use std::time::Instant;

fn measure() -> u64 {
    let start = Instant::now(); //~ fires
    work();
    start.elapsed().as_nanos() as u64
}

fn stamp() -> u64 {
    std::time::SystemTime::now() //~ fires
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

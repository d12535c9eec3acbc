use std::thread;

fn worker_label() -> String {
    format!("{:?}", thread::current().id()) //~ fires
}

fn pool_width() -> usize {
    std::thread::available_parallelism() //~ fires
        .map(|n| n.get())
        .unwrap_or(1)
}

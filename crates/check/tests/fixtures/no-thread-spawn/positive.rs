use std::thread;

fn run() -> usize {
    let h = thread::spawn(|| 1 + 1); //~ fires
    let b = thread::Builder::new(); //~ fires
    let _ = b;
    h.join().unwrap_or(0)
}

use std::collections::{HashMap, HashSet};

fn order_leak(counts: &HashMap<u64, usize>) -> Vec<u64> {
    let mut out = Vec::new();
    for k in counts.keys() { //~ fires
        out.push(*k);
    }
    out
}

fn drain_all(mut pending: HashMap<u64, usize>) -> usize {
    pending.drain().count() //~ fires
}

fn traverse(seen: HashSet<u64>) -> u64 {
    let mut acc = 0;
    for v in seen { //~ fires
        acc ^= v;
    }
    acc
}

fn descend(q: &QueryDist, metric: &Metric, cand: &[u32]) -> f32 {
    let mut best = f32::INFINITY;
    for &c in cand {
        let d = metric.eval(q, c); //~ fires
        if d < best {
            best = d;
        }
    }
    best
}

fn helper(a: &[f32], b: &[f32]) -> f32 {
    squared_l2(a, b) //~ fires
}

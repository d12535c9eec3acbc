fn total(xs: &[f32]) -> f32 {
    // the sanctioned idiom: parallel map into per-chunk parts, then a
    // sequential fold in chunk order
    let parts: Vec<f32> = xs.par_iter().map(|x| x * x).collect();
    parts.iter().fold(0.0, |a, b| a + b)
}

fn total_by_par_map(xs: &[f32]) -> f32 {
    // the same idiom on the vendored pool: results in item order, then a
    // sequential fold
    let parts: Vec<f32> = rayon::par_map(xs.len(), || (), |(), i| xs[i] * xs[i]);
    parts.iter().fold(0.0, |a, b| a + b)
}

fn seq_sum(xs: &[f32]) -> f32 {
    xs.iter().sum()
}

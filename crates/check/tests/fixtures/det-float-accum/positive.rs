fn total(xs: &[f32]) -> f32 {
    xs.par_iter().map(|x| x * x).sum::<f32>() //~ fires
}

fn accumulate(xs: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    xs.par_iter().for_each(|x| {
        acc += x; //~ fires
    });
    acc
}

fn accumulate_in_par_map(xs: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    rayon::par_map(xs.len(), || (), |(), i| {
        acc += xs[i]; //~ fires
    });
    acc
}

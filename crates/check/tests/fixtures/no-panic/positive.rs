fn guard(x: u32) {
    if x > 3 {
        panic!("x out of range: {x}"); //~ fires
    }
}

fn exhaustive(y: u32) -> u32 {
    match y {
        0 => 1,
        _ => unreachable!(), //~ fires
    }
}

fn lookup(v: Option<u32>) -> u32 {
    v.unwrap() //~ fires
}

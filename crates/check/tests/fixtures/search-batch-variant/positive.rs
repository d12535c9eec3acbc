/// A new routing variant of the retired family: documented, but still
/// flagged.
pub fn search_batch_turbo(queries: &[Query]) -> Vec<Hit> { //~ fires
    let _ = queries;
    Vec::new()
}

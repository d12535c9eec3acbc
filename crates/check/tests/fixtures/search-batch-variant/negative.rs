/// Not part of the `search_batch*` family at all.
pub fn search_one(query: &Query) -> Option<Hit> {
    let _ = query;
    None
}

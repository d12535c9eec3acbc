fn drain(world: &World, src: usize) -> Vec<u8> {
    // the None rides on a later line: a token-stream match the old
    // line lint could not see
    let (_tag, bytes) = world.recv( //~ fires
        Some(src),
        None,
    );
    bytes
}

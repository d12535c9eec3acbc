const TAG_ROGUE: u64 = 99; //~ fires

fn send(world: &World, peer: usize, payload: &[u8]) {
    world.send_bytes(peer, 3, payload); //~ fires
}

fn send_sized(world: &World, peer: usize, payload: &[u8]) {
    world.send_sized(peer, 4, payload, 64, None); //~ fires
}

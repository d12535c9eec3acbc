const TAG_GOOD: u64 = 7;

fn send(world: &World, peer: usize, payload: &[u8]) {
    world.send_bytes(peer, TAG_GOOD, payload);
}

fn send_at(world: &World, peer: usize, payload: &[u8], at: u64) {
    let reply_tag = TAG_GOOD;
    world.send_bytes_at(peer, reply_tag, payload, at);
}

fn send_sized(world: &World, peer: usize, payload: &[u8]) {
    world.send_sized(peer, TAG_GOOD, payload, 64, None);
}

pub struct Plan { //~ fires
    pub shards: usize,
}

pub fn execute(p: &Plan) -> usize { //~ fires
    p.shards
}

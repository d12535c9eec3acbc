//! Network model (α–β) and node topology.

/// Maps ranks to compute nodes. Ranks `[0, ranks_per_node)` share node 0,
/// the next group node 1, and so on — the layout MPI launchers use by
/// default. Intra-node messages ride shared memory (cheaper α and β).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Ranks co-located per compute node.
    pub ranks_per_node: usize,
}

impl Topology {
    /// One rank per node (every message crosses the interconnect).
    pub fn one_rank_per_node() -> Self {
        Self { ranks_per_node: 1 }
    }

    /// Compute node hosting `rank`.
    #[inline]
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_node.max(1)
    }

    /// `true` when both ranks share a node.
    #[inline]
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }
}

impl Default for Topology {
    fn default() -> Self {
        Self::one_rank_per_node()
    }
}

/// α–β communication model with distinct intra-node and inter-node
/// parameters, plus fixed per-message CPU overheads.
///
/// Defaults approximate the paper's Cray Aries interconnect: ~1.3 µs
/// inter-node latency, ~10 GB/s per-rank bandwidth; intra-node messages go
/// through shared memory (~0.4 µs, ~25 GB/s).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetModel {
    /// One-way latency within a node (ns).
    pub alpha_intra_ns: f64,
    /// One-way latency across nodes (ns).
    pub alpha_inter_ns: f64,
    /// Seconds-per-byte within a node, expressed as ns/byte.
    pub beta_intra_ns_per_byte: f64,
    /// ns/byte across nodes.
    pub beta_inter_ns_per_byte: f64,
    /// CPU time a sender spends posting a non-blocking send (ns).
    pub send_overhead_ns: f64,
    /// CPU time a receiver spends completing a matched receive (ns).
    pub recv_overhead_ns: f64,
    /// Extra origin-side cost of a one-sided RMA operation (ns); the target
    /// CPU is *not* charged — that asymmetry is the whole point of the
    /// paper's one-sided optimisation.
    pub rma_overhead_ns: f64,
    /// Per-message latency jitter as a fraction of the wire time
    /// (0 = perfectly regular network). Jitter is *deterministic*: derived
    /// from a hash of `(src, dst, bytes, sequence)`, so runs stay
    /// reproducible while message times vary realistically. Congested
    /// fabrics run around 0.1–0.5.
    pub jitter_frac: f64,
}

impl Default for NetModel {
    fn default() -> Self {
        Self {
            alpha_intra_ns: 400.0,
            alpha_inter_ns: 1300.0,
            beta_intra_ns_per_byte: 0.04, // 25 GB/s
            beta_inter_ns_per_byte: 0.10, // 10 GB/s
            send_overhead_ns: 150.0,
            recv_overhead_ns: 250.0,
            rma_overhead_ns: 300.0,
            jitter_frac: 0.0,
        }
    }
}

impl NetModel {
    /// Wire time for `bytes` between two ranks (α + bytes·β), without
    /// jitter.
    #[inline]
    pub fn xfer_ns(&self, topo: &Topology, src: usize, dst: usize, bytes: usize) -> f64 {
        if topo.same_node(src, dst) {
            self.alpha_intra_ns + bytes as f64 * self.beta_intra_ns_per_byte
        } else {
            self.alpha_inter_ns + bytes as f64 * self.beta_inter_ns_per_byte
        }
    }

    /// Wire time including deterministic jitter: the base α–β time scaled
    /// by `1 + jitter_frac * u` with `u ∈ [0, 1)` hashed from the message
    /// identity (`src`, `dst`, `bytes`, `seq`).
    #[inline]
    pub fn xfer_jittered_ns(
        &self,
        topo: &Topology,
        src: usize,
        dst: usize,
        bytes: usize,
        seq: u64,
    ) -> f64 {
        let base = self.xfer_ns(topo, src, dst, bytes);
        if self.jitter_frac <= 0.0 {
            return base;
        }
        let mut x = (src as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((dst as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add((bytes as u64) << 17)
            .wrapping_add(seq);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        base * (1.0 + self.jitter_frac * u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_maps_ranks_to_nodes() {
        let t = Topology { ranks_per_node: 4 };
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(3), 0);
        assert_eq!(t.node_of(4), 1);
        assert!(t.same_node(1, 2));
        assert!(!t.same_node(3, 4));
    }

    #[test]
    fn one_rank_per_node_never_shares() {
        let t = Topology::one_rank_per_node();
        assert!(!t.same_node(0, 1));
        assert!(t.same_node(2, 2));
    }

    #[test]
    fn inter_node_costs_more() {
        let t = Topology { ranks_per_node: 2 };
        let net = NetModel::default();
        let intra = net.xfer_ns(&t, 0, 1, 1024);
        let inter = net.xfer_ns(&t, 0, 2, 1024);
        assert!(inter > intra);
    }

    #[test]
    fn xfer_linear_in_bytes() {
        let t = Topology::one_rank_per_node();
        let net = NetModel::default();
        let a = net.xfer_ns(&t, 0, 1, 0);
        let b = net.xfer_ns(&t, 0, 1, 1000);
        assert!((b - a - 1000.0 * net.beta_inter_ns_per_byte).abs() < 1e-9);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let t = Topology::one_rank_per_node();
        let net = NetModel {
            jitter_frac: 0.3,
            ..NetModel::default()
        };
        let base = net.xfer_ns(&t, 0, 1, 512);
        let a = net.xfer_jittered_ns(&t, 0, 1, 512, 7);
        let b = net.xfer_jittered_ns(&t, 0, 1, 512, 7);
        assert_eq!(a, b, "same message identity -> same jitter");
        assert!(
            a >= base && a <= base * 1.3 + 1e-9,
            "jitter out of bounds: {a} vs {base}"
        );
        let c = net.xfer_jittered_ns(&t, 0, 1, 512, 8);
        assert_ne!(a, c, "different sequence numbers should jitter differently");
        // zero jitter passes through exactly
        let plain = NetModel::default();
        assert_eq!(plain.xfer_jittered_ns(&t, 0, 1, 512, 7), base);
    }
}

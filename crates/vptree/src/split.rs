//! The VP split step — paper Algorithm 2's median split — that every
//! partitioning path shares.
//!
//! A split picks a vantage point, takes the median distance µ of the rows
//! to it, and sends `d <= µ` (the router's near-side test) to the left
//! half. [`split_local`] recurses with it down to one partition per core:
//! the node-local phase of the distributed construction in `fastann-core`
//! runs it after the message-passing halving, and it builds a whole
//! skeleton when called over a full dataset. A live partition split runs
//! [`median_split`] alone, around its own vantage.
//!
//! Rows are addressed by *position* in one [`VectorSet`]: a split moves
//! `u32` positions, never vectors, and the caller gathers each partition's
//! rows once at the end.

use fastann_data::select::median;
use fastann_data::{Distance, VectorSet};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;

use crate::partition::{write_inner, write_leaf};
use crate::vantage::select_vantage;

/// Vantage-point candidates sampled per split (paper Algorithm 1 samples
/// 100 elements; the draw is capped by the row count).
pub const N_CANDIDATES: usize = 16;
/// Rows sampled to score each vantage candidate.
pub const N_SCORE_SAMPLE: usize = 256;

/// Picks a vantage among the rows of `rows` at positions `pos`: draws
/// [`N_CANDIDATES`] candidates, then [`N_SCORE_SAMPLE`] scoring rows, in
/// that order, from `pos` with `rng`, and keeps the candidate
/// [`select_vantage`] scores best. Returns the winner's position and the
/// distance evaluations spent.
///
/// # Panics
/// Panics if `pos` is empty.
pub fn choose_vantage(
    rows: &VectorSet,
    pos: &[u32],
    dist: Distance,
    rng: &mut SmallRng,
) -> (u32, u64) {
    let cands: Vec<u32> = pos.choose_multiple(rng, N_CANDIDATES).copied().collect();
    let sample: Vec<u32> = pos.choose_multiple(rng, N_SCORE_SAMPLE).copied().collect();
    let (best, ndist) = select_vantage(rows, &cands, rows, &sample, dist);
    (cands[best], ndist)
}

/// The median step of a split around `vp`: µ is the median of the
/// distances from `vp` to the rows at `pos`, and each position goes left
/// when its distance is `<= µ`, right otherwise, both sides in input
/// order. Spends `pos.len()` distance evaluations.
///
/// # Panics
/// Panics if `pos` is empty.
pub fn median_split(
    rows: &VectorSet,
    pos: &[u32],
    vp: &[f32],
    dist: Distance,
) -> (f32, Vec<u32>, Vec<u32>) {
    let dists: Vec<f32> = pos
        .iter()
        .map(|&p| dist.eval(vp, rows.get(p as usize)))
        .collect();
    let mu = median(&mut dists.clone());
    let mut left = Vec::with_capacity(pos.len());
    let mut right = Vec::with_capacity(pos.len() / 2 + 1);
    for (&p, &d) in pos.iter().zip(&dists) {
        if d <= mu {
            left.push(p);
        } else {
            right.push(p);
        }
    }
    (mu, left, right)
}

/// Splits the rows of `rows` at positions `pos` into `parts` partitions
/// (a power of two) by recursive median splits, the left subtree first.
/// Returns the subtree in the skeleton layout
/// [`crate::PartitionTree::from_bytes`] reads, and each leaf's partition
/// id (numbered from `first_pid` in leaf order) with its positions.
///
/// Each split draws its vantage with [`choose_vantage`] from `rng` and
/// reports its distance evaluations to `charge`: the vantage scoring
/// first, then the `pos.len()` median distances. When ties on µ leave
/// one side with fewer rows than partitions, the guard moves rows from
/// the tail of the other side until both can be split further.
///
/// # Panics
/// Panics unless `parts` is a power of two, and when a split that still
/// needs both halves receives fewer than 2 rows.
pub fn split_local(
    rows: &VectorSet,
    pos: Vec<u32>,
    parts: usize,
    first_pid: u32,
    dist: Distance,
    rng: &mut SmallRng,
    charge: &mut dyn FnMut(u64),
) -> (Vec<u8>, Vec<(u32, Vec<u32>)>) {
    assert!(
        parts.is_power_of_two(),
        "partition count must be a power of two"
    );
    let mut s = Splitter {
        rows,
        dist,
        rng,
        charge,
        next_pid: first_pid,
        skeleton: Vec::new(),
        leaves: Vec::with_capacity(parts),
    };
    s.split(pos, parts);
    (s.skeleton, s.leaves)
}

/// The state one [`split_local`] call threads through its recursion.
struct Splitter<'a> {
    rows: &'a VectorSet,
    dist: Distance,
    rng: &'a mut SmallRng,
    charge: &'a mut dyn FnMut(u64),
    next_pid: u32,
    skeleton: Vec<u8>,
    leaves: Vec<(u32, Vec<u32>)>,
}

impl Splitter<'_> {
    fn split(&mut self, pos: Vec<u32>, parts: usize) {
        if parts == 1 {
            write_leaf(&mut self.skeleton, self.next_pid);
            self.leaves.push((self.next_pid, pos));
            self.next_pid += 1;
            return;
        }
        assert!(
            pos.len() >= 2,
            "cannot split {} rows into {} local partitions",
            pos.len(),
            parts
        );
        let rows = self.rows;
        let (best, ndist) = choose_vantage(rows, &pos, self.dist, self.rng);
        (self.charge)(ndist);
        (self.charge)(pos.len() as u64);
        let vp = rows.get(best as usize);
        let (mu, mut left, mut right) = median_split(rows, &pos, vp, self.dist);
        let half = parts / 2;
        while right.len() < half {
            let Some(p) = left.pop() else { break };
            right.push(p);
        }
        while left.len() < half {
            let Some(p) = right.pop() else { break };
            left.push(p);
        }
        write_inner(&mut self.skeleton, mu, vp);
        self.split(left, half);
        self.split(right, half);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PartitionTree;
    use fastann_data::synth;
    use rand::SeedableRng;

    fn split_all(data: &VectorSet, parts: usize, seed: u64) -> (Vec<u8>, Vec<(u32, Vec<u32>)>) {
        let pos = (0..data.len() as u32).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        split_local(data, pos, parts, 0, Distance::L2, &mut rng, &mut |_| {})
    }

    #[test]
    fn tie_guard_gives_every_part_a_row() {
        // all rows identical: every median split sends everything left,
        // so each level's right half exists only through the guard
        let data = VectorSet::from_flat(3, [0.5f32, -1.0, 2.0].repeat(40));
        let (skel, leaves) = split_all(&data, 8, 1);
        assert_eq!(leaves.len(), 8);
        let pids: Vec<u32> = leaves.iter().map(|(pid, _)| *pid).collect();
        assert_eq!(pids, (0..8).collect::<Vec<_>>(), "leaf order names 0..8");
        let mut seen = vec![0u32; data.len()];
        for (pid, pos) in &leaves {
            assert!(!pos.is_empty(), "partition {pid} got no row");
            assert!(
                pos.windows(2).all(|w| w[0] < w[1]),
                "partition {pid} reorders its rows: {pos:?}"
            );
            for &p in pos {
                seen[p as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "rows covered exactly once");
        let tree = PartitionTree::from_bytes(&skel, Distance::L2).expect("valid skeleton");
        assert_eq!(tree.n_partitions(), 8);
    }

    #[test]
    fn charges_vantage_scoring_then_median_per_split() {
        let data = synth::sift_like(300, 8, 2);
        let mut charges = Vec::new();
        let mut rng = SmallRng::seed_from_u64(2);
        let pos = (0..300).collect();
        let (_, leaves) = split_local(&data, pos, 2, 0, Distance::L2, &mut rng, &mut |n| {
            charges.push(n)
        });
        // one split: 16 candidates × 256 sample rows, then 300 medians
        assert_eq!(charges, vec![16 * 256, 300]);
        assert_eq!(leaves[0].1.len() + leaves[1].1.len(), 300);
    }

    #[test]
    fn median_split_sends_ties_left_in_input_order() {
        let data = VectorSet::from_flat(1, vec![3.0, 1.0, 2.0, 1.0, 5.0]);
        let (mu, left, right) = median_split(&data, &[0, 1, 2, 3, 4], &[0.0], Distance::L2);
        assert_eq!(mu, 2.0);
        assert_eq!(left, vec![1, 2, 3]);
        assert_eq!(right, vec![0, 4]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let data = synth::sift_like(100, 4, 7);
        let _ = split_all(&data, 3, 7);
    }

    #[test]
    #[should_panic(expected = "cannot split 1 rows into 2 local partitions")]
    fn too_few_rows_rejected() {
        let data = synth::sift_like(1, 4, 8);
        let _ = split_all(&data, 2, 8);
    }
}

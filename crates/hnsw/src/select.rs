//! Neighbour selection heuristic (HNSW paper, Algorithm 4).
//!
//! Given a candidate set ordered by distance to the inserted point, the
//! heuristic keeps a candidate only if it is closer to the new point than to
//! every already-selected neighbour. This spreads links across directions
//! (an approximation of the relative-neighbourhood graph) instead of
//! clustering them, which is what gives HNSW graphs their navigability in
//! clustered data.

use fastann_data::{Distance, Neighbor, VectorSet};

/// Selects up to `m` neighbours from `candidates` (must be sorted by
/// ascending distance to the query point) using the diversification
/// heuristic, then back-fills with the nearest pruned candidates if fewer
/// than `m` survive (Algorithm 4's `keepPrunedConnections`, always on).
///
/// Returns the survivors nearest-first, followed by the back-filled
/// candidates nearest-first. Increments `ndist` by the number of distance
/// evaluations performed.
pub(crate) fn select_neighbors_heuristic(
    data: &VectorSet,
    candidates: &[Neighbor],
    m: usize,
    dist: Distance,
    ndist: &mut u64,
) -> Vec<u32> {
    debug_assert!(
        candidates.windows(2).all(|w| w[0].dist <= w[1].dist),
        "candidates must be sorted by distance"
    );
    let mut selected: Vec<Neighbor> = Vec::with_capacity(m);
    let mut pruned: Vec<Neighbor> = Vec::new();

    for &c in candidates {
        if selected.len() >= m {
            break;
        }
        // keep c iff it is closer to the query than to every selected node
        let mut keep = true;
        for s in &selected {
            *ndist += 1;
            let d_cs = dist.eval(data.get(c.id as usize), data.get(s.id as usize));
            if d_cs < c.dist {
                keep = false;
                break;
            }
        }
        if keep {
            selected.push(c);
        } else {
            pruned.push(c);
        }
    }

    for &p in &pruned {
        if selected.len() >= m {
            break;
        }
        selected.push(p);
    }

    selected.iter().map(|n| n.id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_data() -> VectorSet {
        // points on a line: 0, 1, 2, 10, 11
        VectorSet::from_flat(1, vec![0.0, 1.0, 2.0, 10.0, 11.0])
    }

    fn cands(data: &VectorSet, q: &[f32], ids: &[u32]) -> Vec<Neighbor> {
        let mut v: Vec<Neighbor> = ids
            .iter()
            .map(|&i| Neighbor::new(i, Distance::L2.eval(q, data.get(i as usize))))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn heuristic_diversifies_directions() {
        let data = line_data();
        // Query between the two clusters: nearest candidates are 2 (d=3),
        // 1 (d=4), 0 (d=5), 3 (d=5), 4 (d=6). The heuristic keeps 2, prunes
        // 1 and 0 (shadowed by 2), and keeps 3 — one link per direction.
        let q = [5.0f32];
        let c = cands(&data, &q, &[0, 1, 2, 3, 4]);
        let mut nd = 0;
        let sel = select_neighbors_heuristic(&data, &c, 2, Distance::L2, &mut nd);
        assert_eq!(sel, vec![2, 3], "one representative per cluster");
        assert!(nd > 0);
    }

    #[test]
    fn heuristic_prunes_shadowed_same_direction_points() {
        let data = line_data();
        // Query left of everything: 0 shadows 1, 2, 3 and 4 (each is
        // closer to 0 than to q), so only the nearest survives; the
        // back-fill then restores the nearest pruned ones, nearest-first.
        let q = [-0.5f32];
        let c = cands(&data, &q, &[0, 1, 2, 3, 4]);
        let mut nd = 0;
        let sel = select_neighbors_heuristic(&data, &c, 3, Distance::L2, &mut nd);
        assert_eq!(sel, vec![0, 1, 2]);
        assert_eq!(nd, 4, "each later candidate is checked against 0 alone");
    }

    #[test]
    fn backfill_appends_pruned_after_survivors() {
        let data = line_data();
        // q = 5: survivors 2 and 3 (one per cluster); 1, 0 and 4 are
        // pruned. The back-fill appends them by distance to q (4, 5, 6),
        // after the survivors, not merged into distance order.
        let q = [5.0f32];
        let c = cands(&data, &q, &[0, 1, 2, 3, 4]);
        let mut nd = 0;
        let sel = select_neighbors_heuristic(&data, &c, 3, Distance::L2, &mut nd);
        assert_eq!(sel, vec![2, 3, 1]);
        let all = select_neighbors_heuristic(&data, &c, 5, Distance::L2, &mut nd);
        assert_eq!(all, vec![2, 3, 1, 0, 4]);
    }

    #[test]
    fn respects_m_bound() {
        let data = line_data();
        let q = [5.0f32];
        let c = cands(&data, &q, &[0, 1, 2, 3, 4]);
        let mut nd = 0;
        let sel = select_neighbors_heuristic(&data, &c, 2, Distance::L2, &mut nd);
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn empty_candidates_ok() {
        let data = line_data();
        let mut nd = 0;
        let sel = select_neighbors_heuristic(&data, &[], 4, Distance::L2, &mut nd);
        assert!(sel.is_empty());
        assert_eq!(nd, 0);
    }

    #[test]
    fn first_candidate_always_selected() {
        let data = line_data();
        let q = [10.2f32];
        let c = cands(&data, &q, &[0, 1, 2, 3, 4]);
        let mut nd = 0;
        let sel = select_neighbors_heuristic(&data, &c, 1, Distance::L2, &mut nd);
        assert_eq!(sel, vec![3], "nearest candidate is always kept");
    }
}

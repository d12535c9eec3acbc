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
/// heuristic. `keep_pruned` back-fills with the nearest pruned candidates if
/// fewer than `m` survive.
///
/// Returns ids ordered as selected (nearest-first). Increments `ndist` by
/// the number of distance evaluations performed.
pub(crate) fn select_neighbors_heuristic(
    data: &VectorSet,
    candidates: &[Neighbor],
    m: usize,
    dist: Distance,
    keep_pruned: bool,
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

    if keep_pruned {
        for &p in &pruned {
            if selected.len() >= m {
                break;
            }
            selected.push(p);
        }
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
        let sel = select_neighbors_heuristic(&data, &c, 2, Distance::L2, false, &mut nd);
        assert_eq!(sel, vec![2, 3], "one representative per cluster");
        assert!(nd > 0);
    }

    #[test]
    fn heuristic_prunes_shadowed_same_direction_points() {
        let data = line_data();
        // Query left of everything: 0 shadows 1, 2; 3 shadows nothing new
        // (3 is closer to 0 than to q), so only the nearest survives.
        let q = [-0.5f32];
        let c = cands(&data, &q, &[0, 1, 2, 3, 4]);
        let mut nd = 0;
        let sel = select_neighbors_heuristic(&data, &c, 3, Distance::L2, false, &mut nd);
        assert_eq!(sel, vec![0]);
    }

    #[test]
    fn keep_pruned_backfills() {
        let data = line_data();
        let q = [0.5f32];
        let c = cands(&data, &q, &[0, 1, 2]);
        let mut nd = 0;
        let none = select_neighbors_heuristic(&data, &c, 3, Distance::L2, false, &mut nd);
        let filled = select_neighbors_heuristic(&data, &c, 3, Distance::L2, true, &mut nd);
        assert!(none.len() <= filled.len());
        assert_eq!(filled.len(), 3, "keep_pruned fills to m when possible");
    }

    #[test]
    fn respects_m_bound() {
        let data = line_data();
        let q = [5.0f32];
        let c = cands(&data, &q, &[0, 1, 2, 3, 4]);
        let mut nd = 0;
        let sel = select_neighbors_heuristic(&data, &c, 2, Distance::L2, true, &mut nd);
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn empty_candidates_ok() {
        let data = line_data();
        let mut nd = 0;
        let sel = select_neighbors_heuristic(&data, &[], 4, Distance::L2, true, &mut nd);
        assert!(sel.is_empty());
        assert_eq!(nd, 0);
    }

    #[test]
    fn first_candidate_always_selected() {
        let data = line_data();
        let q = [10.2f32];
        let c = cands(&data, &q, &[0, 1, 2, 3, 4]);
        let mut nd = 0;
        let sel = select_neighbors_heuristic(&data, &c, 1, Distance::L2, false, &mut nd);
        assert_eq!(sel, vec![3], "nearest candidate is always kept");
    }
}

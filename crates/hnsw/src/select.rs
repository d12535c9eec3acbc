//! Neighbour selection heuristic (HNSW paper, Algorithm 4).
//!
//! Given a candidate set ordered by distance to the inserted point, the
//! heuristic keeps a candidate only if it is closer to the new point than to
//! every already-selected neighbour. This spreads links across directions
//! (an approximation of the relative-neighbourhood graph) instead of
//! clustering them, which is what gives HNSW graphs their navigability in
//! clustered data.
//!
//! Every selection runs in a [`Selection`]: a new node's links at insert,
//! an overflowing list's reselection and a repair's re-pointing alike. It
//! records the outcome of each pair check the heuristic decides. For a
//! fixed owner `o`, the check "candidate `c` is shadowed by the nearer
//! candidate `s`" (`d(c, s) < d(o, c)`) depends only on three stored
//! points, so while [`crate::Hnsw::build`] runs the graph keeps the
//! outcomes of each node's links (its memo) and an owner's next overflow
//! evaluates only the pairs it has not decided before.

use fastann_data::{Distance, Neighbor, VectorSet};

use crate::scratch::total_order_bits;

/// Selects up to `m` of `candidates` (sorted by ascending distance to the
/// owner) with the diversification heuristic, then back-fills with the
/// nearest pruned candidates if fewer than `m` survive (Algorithm 4's
/// `keepPrunedConnections`, always on).
///
/// `shadowed(c, selected)` is the heuristic's test: whether candidate `c`
/// lies closer to one of the `selected` candidates (all nearer to the
/// owner than `c`, in selection order) than to the owner. Each pair check
/// is a pure function of three points, so the answer does not depend on
/// which pairs are examined or in what order; the textbook examines them
/// in selection order and stops at the first that shadows `c`.
///
/// Writes the chosen positions into `out`: the survivors nearest-first,
/// then the back-filled candidates nearest-first.
pub(crate) fn select_neighbors_heuristic(
    candidates: &[Neighbor],
    m: usize,
    out: &mut Vec<usize>,
    mut shadowed: impl FnMut(usize, &[usize]) -> bool,
) {
    debug_assert!(
        candidates.windows(2).all(|w| w[0].dist <= w[1].dist),
        "candidates must be sorted by distance"
    );
    out.clear();
    for c in 0..candidates.len() {
        if out.len() >= m {
            return;
        }
        if !shadowed(c, out) {
            out.push(c);
        }
    }
    // Every candidate was examined, so the pruned ones are exactly the
    // positions missing from the ascending survivor list.
    let survivors = out.len();
    let mut next = 0;
    for c in 0..candidates.len() {
        if out.len() >= m {
            break;
        }
        if next < survivors && out[next] == c {
            next += 1;
        } else {
            out.push(c);
        }
    }
}

/// The heuristic's pair check, evaluated: whether `c` lies closer to the
/// nearer candidate `s` than to the owner.
#[inline]
fn shadows(data: &VectorSet, dist: Distance, c: Neighbor, s: Neighbor) -> bool {
    dist.eval(data.get(c.id as usize), data.get(s.id as usize)) < c.dist
}

/// `n`'s place in `(dist, id)` order ([`Neighbor`]'s) as one integer.
#[inline]
fn order_key(n: Neighbor) -> u64 {
    u64::from(total_order_bits(n.dist)) << 32 | u64::from(n.id)
}

/// Rows of bits, each `bits` wide in whole `u64` words.
#[derive(Debug, Default)]
pub(crate) struct BitRows {
    /// Bits per row.
    bits: usize,
    /// `u64` words per row.
    words: usize,
    w: Vec<u64>,
}

impl BitRows {
    /// `rows` rows of `bits` bits each, all clear.
    pub(crate) fn reset(&mut self, rows: usize, bits: usize) {
        self.bits = bits;
        self.words = bits.div_ceil(64);
        self.w.clear();
        self.w.resize(rows * self.words, 0);
    }

    /// The word and mask of bit `b` of row `r`.
    #[inline]
    fn at(&self, r: usize, b: usize) -> (usize, u64) {
        (r * self.words + b / 64, 1 << (b % 64))
    }

    /// Bit `b` of row `r`.
    #[inline]
    pub(crate) fn get(&self, r: usize, b: usize) -> bool {
        let (w, mask) = self.at(r, b);
        self.w[w] & mask != 0
    }

    /// Sets bit `b` of row `r`.
    #[inline]
    pub(crate) fn set(&mut self, r: usize, b: usize) {
        let (w, mask) = self.at(r, b);
        self.w[w] |= mask;
    }

    /// Clears bit `b` of row `r`.
    #[inline]
    pub(crate) fn clear(&mut self, r: usize, b: usize) {
        let (w, mask) = self.at(r, b);
        self.w[w] &= !mask;
    }

    /// Clears rows `first..first + n`.
    pub(crate) fn clear_rows(&mut self, first: usize, n: usize) {
        self.w[first * self.words..(first + n) * self.words].fill(0);
    }

    /// Clears bit `b` of rows `first..first + n`.
    pub(crate) fn clear_column(&mut self, first: usize, n: usize, b: usize) {
        let (w, mask) = self.at(first, b);
        for word in self.w[w..].iter_mut().step_by(self.words).take(n) {
            *word &= !mask;
        }
    }

    /// The first clear bit of row `r`, if any.
    pub(crate) fn first_clear(&self, r: usize) -> Option<usize> {
        let row = &self.w[r * self.words..(r + 1) * self.words];
        let (w, word) = row.iter().enumerate().find(|(_, &x)| x != u64::MAX)?;
        Some(w * 64 + word.trailing_ones() as usize).filter(|&b| b < self.bits)
    }

    /// Bytes the rows hold.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        8 * self.w.len()
    }
}

/// Decided pair checks over the candidates of one or more owners.
///
/// Bit `b` of row `a` in `known` marks the pair of candidates `a` and `b`
/// decided, where `a` is the one farther from the owner; the same bit in
/// `shadow` holds the outcome, "`a` is shadowed by `b`". Which of two
/// links is farther is fixed by the owner's distances to them, so every
/// pair has one home bit.
#[derive(Debug, Default)]
pub(crate) struct PairBits {
    known: BitRows,
    shadow: BitRows,
}

impl PairBits {
    /// `rows` rows of `bits` bits each, nothing decided.
    pub(crate) fn reset(&mut self, rows: usize, bits: usize) {
        self.known.reset(rows, bits);
        self.shadow.reset(rows, bits);
    }

    /// The outcome of pair `(a, b)`, `a` the farther, if decided.
    #[inline]
    pub(crate) fn get(&self, a: usize, b: usize) -> Option<bool> {
        self.known.get(a, b).then(|| self.shadow.get(a, b))
    }

    /// Records the outcome of pair `(a, b)`, `a` the farther.
    #[inline]
    pub(crate) fn set(&mut self, a: usize, b: usize, shadowed: bool) {
        self.known.set(a, b);
        if shadowed {
            self.shadow.set(a, b);
        }
    }

    /// `u64` words per row.
    pub(crate) fn words(&self) -> usize {
        self.known.words
    }

    /// Whether row `a` records a shadow by any candidate of `set`, a bit
    /// row as wide as this matrix's rows: `Some(true)` if so, `Some(false)`
    /// when every pair with `set` is decided and none shadows, `None`
    /// when some are undecided and none of the decided ones shadows.
    #[inline]
    pub(crate) fn shadowed_by_any(&self, a: usize, set: &[u64]) -> Option<bool> {
        let w = set.len();
        let known = &self.known.w[a * w..][..w];
        let shadow = &self.shadow.w[a * w..][..w];
        if shadow.iter().zip(set).any(|(&s, &m)| s & m != 0) {
            Some(true)
        } else if known.iter().zip(set).all(|(&k, &m)| m & !k == 0) {
            Some(false)
        } else {
            None
        }
    }

    /// Forgets rows `first..first + n`.
    pub(crate) fn clear_rows(&mut self, first: usize, n: usize) {
        self.known.clear_rows(first, n);
        self.shadow.clear_rows(first, n);
    }

    /// Forgets every pair with `b` in rows `first..first + n`.
    pub(crate) fn clear_column(&mut self, first: usize, n: usize, b: usize) {
        self.known.clear_column(first, n, b);
        self.shadow.clear_column(first, n, b);
    }

    /// Bytes the two bit matrices hold.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        self.known.bytes() + self.shadow.bytes()
    }
}

/// The row of a candidate whose pair checks are not lent.
const NO_ROW: u32 = u32::MAX;

/// One neighbour selection: its candidates and what the heuristic kept.
/// It lives in the search scratch, so a selection allocates nothing once
/// the scratch is warm.
///
/// A fresh selection evaluates the heuristic's pair checks as the
/// textbook does. A reselection of an overflowing layer-0 list during
/// [`crate::Hnsw::build`] reads and records them in the graph's memo
/// instead ([`crate::graph::Graph::load_memo`]): each candidate is pushed
/// with its memo slot, which names its row and bit there.
#[derive(Debug, Default)]
pub(crate) struct Selection {
    /// Candidates with their rows in the lent pair checks: in push
    /// order, then nearest first.
    cands: Vec<(Neighbor, u32)>,
    /// The node whose memo lent the pair checks, if any.
    lender: Option<u32>,
    /// The candidates nearest first: what the heuristic reads.
    sorted: Vec<Neighbor>,
    /// The lent row of each candidate, nearest first.
    sorted_rows: Vec<u32>,
    /// The lent rows of the survivors so far, as one bit row.
    survivors: Vec<u64>,
    /// Positions in `sorted` the heuristic kept, in selection order.
    picked: Vec<usize>,
    /// `kept[p]`: the heuristic kept `sorted[p]`.
    kept: Vec<bool>,
}

impl Selection {
    /// Starts an empty, fresh selection.
    pub(crate) fn begin(&mut self) {
        self.cands.clear();
        self.lender = None;
    }

    /// Adds a candidate with its distance to the owner.
    #[inline]
    pub(crate) fn push(&mut self, n: Neighbor) {
        self.push_in(n, NO_ROW);
    }

    /// Adds a candidate whose pair checks sit in `row` of the lent ones.
    #[inline]
    pub(crate) fn push_in(&mut self, n: Neighbor, row: u32) {
        self.cands.push((n, row));
    }

    /// Records that node `u`'s memo lends this selection its pair checks.
    pub(crate) fn lent_by(&mut self, u: u32) {
        self.lender = Some(u);
    }

    /// The node whose memo lent the pair checks, if any.
    pub(crate) fn lender(&self) -> Option<u32> {
        self.lender
    }

    /// Keeps up to `m` candidates with the heuristic, nearest first in
    /// `(dist, id)` order. With `lent` pair checks (rows from the given
    /// first row on), a candidate some survivor is known to shadow is
    /// pruned without an evaluation, one every survivor is known not to
    /// shadow is kept without one, and otherwise only the undecided checks
    /// are evaluated and recorded. Every evaluation is counted in `ndist`.
    pub(crate) fn select(
        &mut self,
        data: &VectorSet,
        dist: Distance,
        m: usize,
        lent: Option<(&mut PairBits, usize)>,
        ndist: &mut u64,
    ) {
        let key = |&(n, _): &(Neighbor, u32)| order_key(n);
        if !self.cands.windows(2).all(|w| key(&w[0]) < key(&w[1])) {
            self.cands.sort_unstable_by_key(key);
        }
        self.sorted.clear();
        self.sorted.extend(self.cands.iter().map(|&(n, _)| n));
        self.sorted_rows.clear();
        self.sorted_rows
            .extend(self.cands.iter().map(|&(_, row)| row));
        let sorted = &self.sorted;
        match lent {
            None => select_neighbors_heuristic(sorted, m, &mut self.picked, |c, selected| {
                selected.iter().any(|&s| {
                    *ndist += 1;
                    shadows(data, dist, sorted[c], sorted[s])
                })
            }),
            Some((pairs, first)) => {
                let rows = &self.sorted_rows;
                let survivors = &mut self.survivors;
                survivors.clear();
                survivors.resize(pairs.words(), 0);
                let mut marked = 0;
                select_neighbors_heuristic(sorted, m, &mut self.picked, |c, selected| {
                    for &s in &selected[marked..] {
                        let b = rows[s] as usize;
                        survivors[b / 64] |= 1 << (b % 64);
                    }
                    marked = selected.len();
                    let a = first + rows[c] as usize;
                    if let Some(shadowed) = pairs.shadowed_by_any(a, survivors) {
                        return shadowed;
                    }
                    selected.iter().any(|&s| {
                        let b = rows[s] as usize;
                        pairs.get(a, b).unwrap_or_else(|| {
                            *ndist += 1;
                            let shadowed = shadows(data, dist, sorted[c], sorted[s]);
                            pairs.set(a, b, shadowed);
                            shadowed
                        })
                    })
                });
            }
        }
        self.kept.clear();
        self.kept.resize(self.sorted.len(), false);
        for &p in &self.picked {
            self.kept[p] = true;
        }
    }

    /// The kept candidates, in selection order.
    pub(crate) fn chosen(&self) -> impl Iterator<Item = Neighbor> + '_ {
        self.chosen_in().map(|(n, _)| n)
    }

    /// The kept candidates with their lent rows, in selection order.
    pub(crate) fn chosen_in(&self) -> impl Iterator<Item = (Neighbor, u32)> + '_ {
        self.picked
            .iter()
            .map(|&p| (self.sorted[p], self.sorted_rows[p]))
    }

    /// How many candidates were kept.
    pub(crate) fn len(&self) -> usize {
        self.picked.len()
    }

    /// `true` when `id` was kept.
    pub(crate) fn keeps(&self, id: u32) -> bool {
        self.chosen().any(|n| n.id == id)
    }

    /// The candidates not kept, with their lent rows, nearest first.
    pub(crate) fn dropped_in(&self) -> impl Iterator<Item = (Neighbor, u32)> + '_ {
        (0..self.sorted.len())
            .filter(|&p| !self.kept[p])
            .map(|p| (self.sorted[p], self.sorted_rows[p]))
    }

    /// Ids of the candidates not kept, nearest first.
    pub(crate) fn dropped(&self) -> impl Iterator<Item = u32> + '_ {
        self.dropped_in().map(|(n, _)| n.id)
    }
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

    /// The ids a fresh selection over `c` keeps.
    fn select(data: &VectorSet, c: &[Neighbor], m: usize, nd: &mut u64) -> Vec<u32> {
        let mut sel = Selection::default();
        sel.begin();
        for &n in c {
            sel.push(n);
        }
        sel.select(data, Distance::L2, m, None, nd);
        sel.chosen().map(|n| n.id).collect()
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
        let sel = select(&data, &c, 2, &mut nd);
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
        let sel = select(&data, &c, 3, &mut nd);
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
        let sel = select(&data, &c, 3, &mut nd);
        assert_eq!(sel, vec![2, 3, 1]);
        let all = select(&data, &c, 5, &mut nd);
        assert_eq!(all, vec![2, 3, 1, 0, 4]);
    }

    #[test]
    fn respects_m_bound() {
        let data = line_data();
        let q = [5.0f32];
        let c = cands(&data, &q, &[0, 1, 2, 3, 4]);
        let mut nd = 0;
        let sel = select(&data, &c, 2, &mut nd);
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn empty_candidates_ok() {
        let data = line_data();
        let mut nd = 0;
        let sel = select(&data, &[], 4, &mut nd);
        assert!(sel.is_empty());
        assert_eq!(nd, 0);
    }

    #[test]
    fn first_candidate_always_selected() {
        let data = line_data();
        let q = [10.2f32];
        let c = cands(&data, &q, &[0, 1, 2, 3, 4]);
        let mut nd = 0;
        let sel = select(&data, &c, 1, &mut nd);
        assert_eq!(sel, vec![3], "nearest candidate is always kept");
    }

    #[test]
    fn lent_pairs_are_read_and_recorded() {
        let data = line_data();
        let q = [5.0f32];
        // pushed out of order, in rows 4, 3, 2, 1, 0 of a lent matrix
        // starting at row 2: the selection sorts by distance itself
        let c: Vec<Neighbor> = cands(&data, &q, &[0, 1, 2, 3, 4])
            .into_iter()
            .rev()
            .collect();
        let mut facts = PairBits::default();
        facts.reset(8, 5);
        let run = |facts: &mut PairBits, nd: &mut u64| {
            let mut sel = Selection::default();
            sel.begin();
            for (i, &n) in c.iter().enumerate() {
                sel.push_in(n, 4 - i as u32);
            }
            sel.lent_by(9);
            sel.select(&data, Distance::L2, 3, Some((facts, 2)), nd);
            let kept: Vec<u32> = sel.chosen().map(|n| n.id).collect();
            let dropped: Vec<u32> = sel.dropped().collect();
            let rows: Vec<u32> = sel.dropped_in().map(|(_, r)| r).collect();
            (kept, dropped, rows)
        };
        let mut nd = 0;
        let (kept, dropped, rows) = run(&mut facts, &mut nd);
        assert_eq!(kept, vec![2, 3, 1]);
        assert_eq!(dropped, vec![0, 4], "nearest first");
        assert_eq!(rows, vec![2, 4], "their rows");
        assert_eq!(nd, 5);
        // 1 (row 1) is shadowed by 2 (row 0), filed at row 2 + 1
        assert_eq!(facts.get(3, 0), Some(true));
        // 3 (row 3) is not shadowed by 2
        assert_eq!(facts.get(5, 0), Some(false));
        let mut again = 0;
        assert_eq!(run(&mut facts, &mut again).0, kept);
        assert_eq!(again, 0, "every check was decided by the first run");
    }

    #[test]
    fn bit_rows_span_words() {
        let mut r = BitRows::default();
        r.reset(3, 70);
        assert_eq!(r.first_clear(1), Some(0));
        for b in 0..66 {
            r.set(1, b);
        }
        r.set(0, 65);
        r.set(2, 65);
        assert_eq!(r.first_clear(1), Some(66));
        assert!(r.get(0, 65) && !r.get(0, 64));
        r.clear_column(0, 2, 65);
        assert!(!r.get(0, 65) && !r.get(1, 65) && r.get(2, 65));
        assert_eq!(r.first_clear(1), Some(65));
        r.clear(1, 3);
        assert_eq!(r.first_clear(1), Some(3));
        r.clear_rows(1, 1);
        assert_eq!(r.first_clear(1), Some(0));
        assert!(r.get(2, 65), "other rows stay");
        for b in 0..70 {
            r.set(0, b);
        }
        assert_eq!(r.first_clear(0), None, "a full row has no clear bit");
    }
}

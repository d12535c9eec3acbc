//! Scalar quantization (SQ8): the simplest member of the compressed-index
//! family the paper contrasts itself against.
//!
//! Section V-F argues that compression-based billion-scale indexes
//! "cannot achieve near perfect recalls" — quantization error puts a
//! ceiling on recall that no amount of extra search effort removes, while
//! the paper's uncompressed distributed index reaches recall ≈ 1 by raising
//! M. [`Sq8`](crate::quant::Sq8) lets the benchmark suite demonstrate
//! that plateau: vectors are compressed 4× (f32 → u8 per dimension,
//! per-dimension affine grid) and searched exhaustively in the quantized
//! domain.
//!
//! Beyond the plateau demo, [`Sq8`](crate::quant::Sq8) is the engine's
//! traversal codec: the *asymmetric* distance
//! ([`Sq8::prepare_query`](crate::quant::Sq8::prepare_query) +
//! [`Sq8::asym_l2`](crate::quant::Sq8::asym_l2)) keeps the query at full
//! f32 precision and compares it against the quantized grid points, which
//! halves the quantization error of the symmetric-quantized
//! [`Sq8::knn`](crate::quant::Sq8::knn) scan and — via the dot-expansion in
//! [`crate::kernels::sq8_dot`] — costs one multiply and one add per
//! dimension (never fused: Rust does not contract them into an FMA, which
//! keeps the result bit-identical across ISAs) over a quarter of the
//! memory traffic of exact `squared_l2`.
//! The HNSW index traverses with it and re-ranks a small survivor pool at
//! full precision (the AQR-HNSW recipe).

use crate::kernels;
use crate::metric::Distance;
use crate::topk::{Neighbor, TopK};
use crate::vector::VectorSet;

/// An SQ8-compressed vector set: one byte per dimension, per-dimension
/// affine dequantization `x ≈ lo + code * (hi - lo) / 255`.
#[derive(Clone, Debug)]
pub struct Sq8 {
    dim: usize,
    lo: Vec<f32>,
    step: Vec<f32>,
    codes: Vec<u8>,
    /// Per-row squared grid norm `Σ_d (step[d]·code[d])²`, cached at encode
    /// time so the asymmetric distance is a single dot pass per candidate.
    norms: Vec<f32>,
    n: usize,
}

/// A query prepared for repeated [`Sq8::asym_l2`] evaluations against one
/// trained grid.
///
/// Holds the grid-relative weight vector `w[d] = (q[d] − lo[d]) · step[d]`
/// and the query's squared offset from the grid origin
/// `qnorm = Σ_d (q[d] − lo[d])²`. The query itself is **never quantized**
/// — out-of-training-range components stay at full precision instead of
/// clamping to the grid edge, so asymmetric distances remain faithful at
/// the extremes.
///
/// One value serves query after query: [`Sq8::prepare_query`] overwrites
/// it in place and keeps its buffer.
#[derive(Clone, Debug, Default)]
pub struct Sq8Query {
    w: Vec<f32>,
    qnorm: f32,
}

impl Sq8Query {
    /// The prepared query's dimensionality.
    pub fn dim(&self) -> usize {
        self.w.len()
    }
}

impl Sq8 {
    /// Quantizes `data` (trains the per-dimension grid on the data itself).
    ///
    /// # Panics
    /// Panics if `data` is empty.
    pub fn encode(data: &VectorSet) -> Sq8 {
        assert!(!data.is_empty(), "cannot quantize an empty set");
        let dim = data.dim();
        let (lo, hi) = data.bounds().expect("non-empty");
        let step: Vec<f32> = lo
            .iter()
            .zip(&hi)
            .map(|(&l, &h)| ((h - l) / 255.0).max(f32::MIN_POSITIVE))
            .collect();
        let mut codes = Vec::with_capacity(data.len() * dim);
        for row in data.iter() {
            for d in 0..dim {
                let c = ((row[d] - lo[d]) / step[d]).round().clamp(0.0, 255.0);
                codes.push(c as u8);
            }
        }
        let norms = row_norms(dim, &step, &codes);
        Sq8 {
            dim,
            lo,
            step,
            codes,
            norms,
            n: data.len(),
        }
    }

    /// Rebuilds a quantizer from its serialized parts (grid plus codes).
    /// The per-row norm cache is recomputed — it is derived data, so
    /// persisting it would only add a corruption surface.
    ///
    /// # Panics
    /// Panics if `lo`/`step` are not `dim`-long, if `codes` is not a whole
    /// number of `dim`-long rows, or if any step is non-positive.
    pub fn from_parts(dim: usize, lo: Vec<f32>, step: Vec<f32>, codes: Vec<u8>) -> Sq8 {
        assert!(dim > 0, "quantizer dimension must be positive");
        assert_eq!(lo.len(), dim, "lo length must equal dim");
        assert_eq!(step.len(), dim, "step length must equal dim");
        assert_eq!(codes.len() % dim, 0, "codes must be whole rows");
        assert!(
            step.iter().all(|&s| s > 0.0),
            "quantizer steps must be positive"
        );
        let n = codes.len() / dim;
        let norms = row_norms(dim, &step, &codes);
        Sq8 {
            dim,
            lo,
            step,
            codes,
            norms,
            n,
        }
    }

    /// Appends `v` as a new row: encodes it onto the trained grid (clamped
    /// like [`Sq8::encode_query`]) and caches that row's norm alone, with
    /// the same arithmetic [`Sq8::from_parts`] runs over every row.
    ///
    /// # Panics
    /// Panics if `v.len() != self.dim()`.
    pub fn push(&mut self, v: &[f32]) {
        let row = self.encode_query(v);
        self.norms.push(kernels::sq8_norm(&self.step, &row));
        self.codes.extend_from_slice(&row);
        self.n += 1;
    }

    /// The cached per-row squared grid norms (derived from the codes).
    pub fn norms(&self) -> &[f32] {
        &self.norms
    }

    /// Per-dimension grid origin (serialization accessor).
    pub fn lo(&self) -> &[f32] {
        &self.lo
    }

    /// Per-dimension grid step (serialization accessor).
    pub fn step(&self) -> &[f32] {
        &self.step
    }

    /// All code bytes, row-major (serialization accessor).
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Number of compressed vectors.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when empty (never after `encode`).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Compressed bytes (codes only; the grid adds `2 × dim × 4`).
    pub fn code_bytes(&self) -> usize {
        self.codes.len()
    }

    /// Dequantizes row `i` (for inspection/testing).
    pub fn decode(&self, i: usize) -> Vec<f32> {
        let s = i * self.dim;
        self.codes[s..s + self.dim]
            .iter()
            .enumerate()
            .map(|(d, &c)| self.lo[d] + c as f32 * self.step[d])
            .collect()
    }

    /// Quantizes a query onto the trained grid without storing it,
    /// returning one code byte per dimension. Two queries produce the same
    /// byte string iff they round to the same grid cell in every
    /// dimension, so the codes double as a compact (deliberately lossy)
    /// cache key for online serving: an exact re-submission always maps to
    /// the same key, while near-duplicate queries coalesce onto one entry.
    /// Callers that need exactness on top (the serving result cache does)
    /// must verify the stored query against the incoming one on a hit.
    ///
    /// # Panics
    /// Panics if `q.len() != self.dim()`.
    pub fn encode_query(&self, q: &[f32]) -> Vec<u8> {
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        q.iter()
            .enumerate()
            .map(|(d, &x)| ((x - self.lo[d]) / self.step[d]).round().clamp(0.0, 255.0) as u8)
            .collect()
    }

    /// Prepares `q` into `out` for repeated [`Sq8::asym_l2`] evaluations:
    /// one pass over the query amortized across every candidate it will be
    /// compared to. `out`'s previous contents are replaced and its buffer
    /// reused. No clamping and no division happens here — the query stays
    /// at full precision even outside the trained range.
    ///
    /// # Panics
    /// Panics if `q.len() != self.dim()`.
    pub fn prepare_query(&self, q: &[f32], out: &mut Sq8Query) {
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        out.w.clear();
        out.w.extend(
            q.iter()
                .zip(&self.lo)
                .zip(&self.step)
                .map(|((&x, &lo), &s)| (x - lo) * s),
        );
        out.qnorm = kernels::squared_l2(q, &self.lo);
    }

    /// Asymmetric squared-L2 distance between a prepared full-precision
    /// query and quantized row `i`: exactly `squared_l2(q, decode(i))` up
    /// to floating-point rearrangement, computed via the dot expansion
    /// `‖q−lo‖² + norm_i − 2·Σ_d w[d]·code[d]` so the inner loop touches
    /// one byte per dimension. Clamped at zero (the expansion can go
    /// slightly negative through rounding when the query sits on a grid
    /// point).
    ///
    /// # Panics
    /// Panics if the prepared query's dimension differs from the grid's or
    /// `i` is out of range.
    #[inline]
    pub fn asym_l2(&self, prep: &Sq8Query, i: usize) -> f32 {
        let s = i * self.dim;
        let row = &self.codes[s..s + self.dim];
        (prep.qnorm + self.norms[i] - 2.0 * kernels::sq8_dot(&prep.w, row)).max(0.0)
    }

    /// Exhaustive k-NN in the quantized domain: the query is quantized to
    /// the same grid and distances computed between dequantized values.
    /// This is where the recall ceiling comes from — true neighbours whose
    /// distance gap is below the quantization error get misranked, no
    /// matter how hard you search.
    pub fn knn(&self, q: &[f32], k: usize, dist: Distance) -> Vec<Neighbor> {
        // dequantized query (same information loss the stored vectors had)
        let qq: Vec<f32> = self
            .encode_query(q)
            .iter()
            .enumerate()
            .map(|(d, &c)| self.lo[d] + c as f32 * self.step[d])
            .collect();
        let mut top = TopK::new(k);
        let mut row = vec![0f32; self.dim];
        for i in 0..self.n {
            let s = i * self.dim;
            for (d, r) in row.iter_mut().enumerate() {
                *r = self.lo[d] + self.codes[s + d] as f32 * self.step[d];
            }
            top.push(Neighbor::new(i as u32, dist.eval(&qq, &row)));
        }
        top.into_sorted()
    }
}

/// Caches `Σ_d (step[d]·code[d])²` for every row.
fn row_norms(dim: usize, step: &[f32], codes: &[u8]) -> Vec<f32> {
    codes
        .chunks_exact(dim)
        .map(|row| kernels::sq8_norm(step, row))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground_truth;
    use crate::synth;

    #[test]
    fn decode_error_bounded_by_step() {
        let data = synth::sift_like(200, 8, 1);
        let sq = Sq8::encode(&data);
        for i in (0..200).step_by(37) {
            let orig = data.get(i);
            let dec = sq.decode(i);
            for d in 0..8 {
                assert!(
                    (orig[d] - dec[d]).abs() <= sq.step[d] * 0.51,
                    "dim {d}: {} vs {}",
                    orig[d],
                    dec[d]
                );
            }
        }
    }

    #[test]
    fn compression_is_4x() {
        let data = synth::sift_like(100, 32, 2);
        let sq = Sq8::encode(&data);
        assert_eq!(sq.code_bytes(), 100 * 32);
        assert_eq!(sq.code_bytes() * 4, data.as_flat().len() * 4);
    }

    #[test]
    fn quantized_search_is_good_but_not_perfect() {
        // SIFT-like data has byte-range values, so SQ8 is nearly lossless
        // there; use fine-grained unit-norm data where quantization bites.
        let data = synth::deep_like(3000, 24, 3);
        let queries = synth::queries_near(&data, 40, 0.01, 4);
        let sq = Sq8::encode(&data);
        let gt = ground_truth::brute_force(&data, &queries, 10, Distance::L2);
        let approx: Vec<_> = (0..queries.len())
            .map(|i| sq.knn(queries.get(i), 10, Distance::L2))
            .collect();
        let recall = ground_truth::recall_at_k(&approx, &gt, 10);
        assert!(recall.mean > 0.6, "SQ8 recall collapsed: {}", recall.mean);
        assert!(
            recall.mean < 1.0,
            "quantization should cost at least a little recall on dense data"
        );
    }

    #[test]
    fn exact_grid_points_round_trip() {
        // data already on the grid -> lossless
        let mut data = VectorSet::new(2);
        data.push(&[0.0, 0.0]);
        data.push(&[255.0, 255.0]);
        data.push(&[128.0, 64.0]);
        let sq = Sq8::encode(&data);
        for i in 0..3 {
            let dec = sq.decode(i);
            for (got, want) in dec.iter().zip(data.get(i)) {
                assert!((got - want).abs() < 0.51);
            }
        }
    }

    #[test]
    #[should_panic]
    fn empty_encode_panics() {
        let _ = Sq8::encode(&VectorSet::new(4));
    }

    #[test]
    fn encode_query_is_a_stable_lossy_key() {
        let data = synth::sift_like(300, 16, 9);
        let sq = Sq8::encode(&data);
        let q: Vec<f32> = data.get(7).to_vec();

        // exact resubmission -> identical key
        assert_eq!(sq.encode_query(&q), sq.encode_query(&q));

        // sub-step perturbation -> same grid cell, same key
        let mut near = q.clone();
        near[0] += sq.step[0] * 0.2;
        assert_eq!(sq.encode_query(&q), sq.encode_query(&near));

        // a far query -> different key
        let far: Vec<f32> = data.get(100).to_vec();
        assert_ne!(sq.encode_query(&q), sq.encode_query(&far));

        // the key is exactly the stored code path: encoding row i's vector
        // reproduces row i's stored codes
        let key = sq.encode_query(data.get(7));
        assert_eq!(&key[..], &sq.codes[7 * sq.dim..8 * sq.dim]);
    }

    #[test]
    #[should_panic]
    fn encode_query_rejects_dim_mismatch() {
        let data = synth::sift_like(10, 8, 11);
        let _ = Sq8::encode(&data).encode_query(&[0.0; 4]);
    }

    #[test]
    fn encode_query_clamps_out_of_range_components() {
        // regression: components far outside the trained range must
        // saturate at the grid edges (0 / 255), not wrap around through
        // an unchecked float->u8 cast (which is UB-adjacent saturation in
        // release and would skew every asymmetric comparison)
        let mut data = VectorSet::new(2);
        data.push(&[0.0, 0.0]);
        data.push(&[10.0, 10.0]);
        let sq = Sq8::encode(&data);
        assert_eq!(sq.encode_query(&[-1e6, -1e6]), vec![0, 0]);
        assert_eq!(sq.encode_query(&[1e6, 1e6]), vec![255, 255]);
        // NaN propagates through the clamp and the saturating cast maps
        // it to 0 -- defined behaviour, pinned here so it stays that way
        assert_eq!(sq.encode_query(&[f32::NAN, 5.0]), vec![0, 127]);
    }

    #[test]
    fn asym_l2_matches_exact_distance_to_decoded_row() {
        let data = synth::deep_like(400, 24, 5);
        let queries = synth::queries_near(&data, 10, 0.05, 6);
        let sq = Sq8::encode(&data);
        for qi in 0..queries.len() {
            let q = queries.get(qi);
            let mut prep = Sq8Query::default();
            sq.prepare_query(q, &mut prep);
            for i in (0..400).step_by(53) {
                let want = crate::kernels::squared_l2(q, &sq.decode(i));
                let got = sq.asym_l2(&prep, i);
                let tol = 1e-4 * (1.0 + want);
                assert!(
                    (got - want).abs() <= tol,
                    "row {i}: asym {got} vs exact-to-decoded {want}"
                );
            }
        }
    }

    #[test]
    fn asym_l2_handles_out_of_range_queries_without_distortion() {
        // a query far outside the trained box: the asymmetric form must
        // track the true distance to the decoded points (no clamping), so
        // the *nearest* decoded point under asym_l2 is the true nearest
        let mut data = VectorSet::new(2);
        data.push(&[0.0, 0.0]);
        data.push(&[10.0, 0.0]);
        data.push(&[0.0, 10.0]);
        let sq = Sq8::encode(&data);
        let q = [1000.0f32, 0.0];
        let mut prep = Sq8Query::default();
        sq.prepare_query(&q, &mut prep);
        let d: Vec<f32> = (0..3).map(|i| sq.asym_l2(&prep, i)).collect();
        assert!(d[1] < d[0] && d[1] < d[2], "{d:?}");
        let want = crate::kernels::squared_l2(&q, &sq.decode(1));
        assert!((d[1] - want).abs() <= 1e-2 * want.max(1.0));
    }

    #[test]
    fn from_parts_round_trips_and_recomputes_norms() {
        let data = synth::sift_like(50, 16, 21);
        let sq = Sq8::encode(&data);
        let rebuilt = Sq8::from_parts(
            sq.dim(),
            sq.lo().to_vec(),
            sq.step().to_vec(),
            sq.codes().to_vec(),
        );
        assert_eq!(rebuilt.len(), sq.len());
        let q = data.get(3);
        let (mut p1, mut p2) = (Sq8Query::default(), Sq8Query::default());
        sq.prepare_query(q, &mut p1);
        rebuilt.prepare_query(q, &mut p2);
        for i in 0..50 {
            assert_eq!(
                sq.asym_l2(&p1, i).to_bits(),
                rebuilt.asym_l2(&p2, i).to_bits(),
                "row {i} not bit-identical after round trip"
            );
        }
    }

    #[test]
    fn push_appends_what_from_parts_would_build() {
        let data = synth::sift_like(60, 16, 22);
        let mut sq = Sq8::encode(&data.gather(&(0..40).collect::<Vec<_>>()));
        for i in 40..60 {
            sq.push(data.get(i));
        }
        let rebuilt = Sq8::from_parts(
            sq.dim(),
            sq.lo().to_vec(),
            sq.step().to_vec(),
            sq.codes().to_vec(),
        );
        assert_eq!(sq.len(), 60);
        assert_eq!(
            &sq.codes()[40 * 16..41 * 16],
            &sq.encode_query(data.get(40))[..]
        );
        let bits = |s: &Sq8| s.norms().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&sq), bits(&rebuilt));
    }

    #[test]
    #[should_panic(expected = "steps must be positive")]
    fn from_parts_rejects_bad_steps() {
        let _ = Sq8::from_parts(2, vec![0.0, 0.0], vec![1.0, 0.0], vec![0, 0]);
    }

    #[test]
    fn degenerate_constant_data_does_not_divide_by_zero() {
        // zero range per dimension -> step pinned at f32::MIN_POSITIVE;
        // encode, decode, prepare, and asym all stay finite
        let mut data = VectorSet::new(3);
        for _ in 0..4 {
            data.push(&[7.0, 7.0, 7.0]);
        }
        let sq = Sq8::encode(&data);
        let dec = sq.decode(2);
        assert!(dec.iter().all(|v| v.is_finite()));
        let mut prep = Sq8Query::default();
        sq.prepare_query(&[7.0, 7.0, 7.0], &mut prep);
        let d = sq.asym_l2(&prep, 0);
        assert!(d.is_finite() && d >= 0.0);
        sq.prepare_query(&[8.0, 6.0, 7.0], &mut prep);
        assert!(sq.asym_l2(&prep, 0).is_finite());
    }
}

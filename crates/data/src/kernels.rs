//! Chunked, auto-vectorization-friendly inner loops shared by the f32 and
//! SQ8 distance paths.
//!
//! Every kernel walks its inputs in fixed-width [`LANES`](crate::kernels::LANES)-wide chunks with
//! one accumulator per lane and no per-element branching — the shape LLVM
//! reliably turns into packed SIMD in release builds (the portable
//! equivalent of the hand-written AVX kernels ANN libraries ship). The
//! remainder elements reuse the same accumulator array, so the reduction
//! order is a pure function of the input length: results are
//! bit-identical across calls, threads and thread counts, which is what
//! the workspace determinism contract requires.
//!
//! The f32 kernels ([`squared_l2`](crate::kernels::squared_l2),
//! [`dot`](crate::kernels::dot), [`l1`](crate::kernels::l1),
//! [`chebyshev`](crate::kernels::chebyshev)) back
//! [`crate::metric::Distance`]; the SQ8 kernels
//! ([`sq8_dot`](crate::kernels::sq8_dot),
//! [`sq8_norm`](crate::kernels::sq8_norm)) back the asymmetric quantized distance of
//! [`crate::quant::Sq8`], which streams one *byte* per dimension instead
//! of four and therefore bounds the memory traffic of a quantized-first
//! graph traversal at a quarter of the exact path's.

/// Accumulator width of every chunked kernel. Eight f32 lanes is one AVX2
/// register (and half an AVX-512 register); narrower widths leave packed
/// units idle, wider ones spill on SSE-only hosts.
pub const LANES: usize = 8;

/// Folds a lane accumulator in a fixed pairwise order. The order never
/// depends on data or environment, so the reduction is deterministic.
#[inline]
fn hsum(acc: [f32; LANES]) -> f32 {
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))
}

/// Folds a lane maximum in a fixed pairwise order.
#[inline]
fn hmax(acc: [f32; LANES]) -> f32 {
    acc[0]
        .max(acc[4])
        .max(acc[1].max(acc[5]))
        .max(acc[2].max(acc[6]).max(acc[3].max(acc[7])))
}

/// Squared Euclidean distance, chunked over [`LANES`] accumulators.
///
/// # Panics
/// Panics on a length mismatch, in every build profile. (An earlier
/// version silently computed over the shorter prefix in release builds,
/// turning dimension bugs into wrong-but-plausible distances.)
#[inline]
pub fn squared_l2(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "squared_l2 between different dimensions");
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for j in 0..LANES {
            let d = xa[j] - xb[j];
            acc[j] += d * d;
        }
    }
    for (j, (x, y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
        let d = x - y;
        acc[j] += d * d;
    }
    hsum(acc)
}

/// Dot product, chunked over [`LANES`] accumulators.
///
/// # Panics
/// Panics on a length mismatch, in every build profile — the same
/// explicit-mismatch contract as [`squared_l2`].
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot between different dimensions");
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for j in 0..LANES {
            acc[j] += xa[j] * xb[j];
        }
    }
    for (j, (x, y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
        acc[j] += x * y;
    }
    hsum(acc)
}

/// Manhattan distance, chunked over [`LANES`] accumulators.
///
/// # Panics
/// Panics on a length mismatch, in every build profile.
#[inline]
pub fn l1(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "l1 between different dimensions");
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for j in 0..LANES {
            acc[j] += (xa[j] - xb[j]).abs();
        }
    }
    for (j, (x, y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
        acc[j] += (x - y).abs();
    }
    hsum(acc)
}

/// Chebyshev distance, chunked over [`LANES`] max accumulators.
///
/// # Panics
/// Panics on a length mismatch, in every build profile.
#[inline]
pub fn chebyshev(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "chebyshev between different dimensions");
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for j in 0..LANES {
            acc[j] = acc[j].max((xa[j] - xb[j]).abs());
        }
    }
    for (j, (x, y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
        acc[j] = acc[j].max((x - y).abs());
    }
    hmax(acc)
}

/// Weighted dot product of an f32 query vector against one SQ8 code row:
/// `Σ_d w[d] · codes[d]`.
///
/// This is the per-candidate inner loop of the asymmetric quantized
/// distance (see [`crate::quant::Sq8::asym_l2`]): the byte codes widen to
/// f32 in-register, so the loop does one load + one fused multiply-add
/// per dimension over a quarter of the exact path's bytes, with no
/// per-element branching and no square root.
///
/// # Panics
/// Panics on a length mismatch, in every build profile.
#[inline]
pub fn sq8_dot(w: &[f32], codes: &[u8]) -> f32 {
    assert_eq!(w.len(), codes.len(), "sq8_dot between different dimensions");
    let mut acc = [0.0f32; LANES];
    let mut cw = w.chunks_exact(LANES);
    let mut cc = codes.chunks_exact(LANES);
    for (xw, xc) in (&mut cw).zip(&mut cc) {
        for j in 0..LANES {
            acc[j] += xw[j] * xc[j] as f32;
        }
    }
    for (j, (x, c)) in cw.remainder().iter().zip(cc.remainder()).enumerate() {
        acc[j] += x * *c as f32;
    }
    hsum(acc)
}

/// Squared grid norm of one SQ8 code row: `Σ_d (step[d] · codes[d])²`.
///
/// Precomputed once per row at encode time, it turns the asymmetric
/// distance into `‖q−lo‖² + norm − 2·sq8_dot(w, codes)` — a single
/// [`sq8_dot`] pass per candidate.
///
/// # Panics
/// Panics on a length mismatch, in every build profile.
#[inline]
pub fn sq8_norm(step: &[f32], codes: &[u8]) -> f32 {
    assert_eq!(
        step.len(),
        codes.len(),
        "sq8_norm between different dimensions"
    );
    let mut acc = [0.0f32; LANES];
    let mut cs = step.chunks_exact(LANES);
    let mut cc = codes.chunks_exact(LANES);
    for (xs, xc) in (&mut cs).zip(&mut cc) {
        for j in 0..LANES {
            let v = xs[j] * xc[j] as f32;
            acc[j] += v * v;
        }
    }
    for (j, (s, c)) in cs.remainder().iter().zip(cc.remainder()).enumerate() {
        let v = s * *c as f32;
        acc[j] += v * v;
    }
    hsum(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(squared_l2(&[], &[]), 0.0);
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(l1(&[], &[]), 0.0);
        assert_eq!(chebyshev(&[], &[]), 0.0);
        assert_eq!(sq8_dot(&[], &[]), 0.0);
        assert_eq!(sq8_norm(&[], &[]), 0.0);
    }

    #[test]
    fn matches_closed_forms() {
        let a: Vec<f32> = (0..13).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..13).map(|i| (2 * i) as f32).collect();
        // Σ i² for i in 0..13 = 650
        assert_eq!(squared_l2(&a, &b), 650.0);
        assert_eq!(l1(&a, &b), 78.0);
        assert_eq!(chebyshev(&a, &b), 12.0);
        assert_eq!(dot(&a, &b), 1300.0);
    }

    #[test]
    fn sq8_kernels_match_scalar_reference() {
        let w: Vec<f32> = (0..19).map(|i| (i as f32 - 9.0) * 0.5).collect();
        let codes: Vec<u8> = (0..19).map(|i| (i * 13 % 251) as u8).collect();
        let want_dot: f32 = w.iter().zip(&codes).map(|(x, &c)| x * c as f32).sum();
        assert!((sq8_dot(&w, &codes) - want_dot).abs() < 1e-2);
        let step = vec![0.25f32; 19];
        let want_norm: f32 = codes.iter().map(|&c| (0.25 * c as f32).powi(2)).sum();
        assert!((sq8_norm(&step, &codes) - want_norm).abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "different dimensions")]
    fn sq8_dot_rejects_dimension_mismatch() {
        let _ = sq8_dot(&[1.0, 2.0], &[1u8]);
    }

    #[test]
    #[should_panic(expected = "different dimensions")]
    fn sq8_norm_rejects_dimension_mismatch() {
        let _ = sq8_norm(&[1.0], &[1u8, 2]);
    }
}

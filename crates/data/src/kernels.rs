//! Chunked inner loops shared by the f32 and SQ8 distance paths.
//!
//! Every kernel walks its inputs in [`LANES`](crate::kernels::LANES)-wide
//! chunks with one accumulator per lane and no per-element branching, then
//! folds the lanes in a fixed pairwise order. The float-add order is a pure
//! function of the input length: results are bit-identical across calls,
//! threads, thread counts and build profiles, which is what the workspace
//! determinism contract requires. `tests/kernel_golden.rs` pins that order
//! by hash over non-integer, mixed-magnitude inputs.
//!
//! The chunk loop lives in one out-of-line function per kernel
//! (`lanes`), and that is what makes it vectorize. There the lane array
//! meets only constant-index, full-width uses, and LLVM's SLP vectorizer
//! packs each chunk into one 8-lane subtract/multiply/add
//! (`vsubps`/`vmulps`/`vaddps` on a ymm register with AVX2). Inlined into a
//! caller next to the dynamically indexed tail loop, the same loop splits
//! into 2-, 1-, 4- and 1-lane pieces and runs at scalar speed, about
//! 0.4 ns per dimension. The price is one call per distance. The caller
//! maps the tail to terms and hands them in, so the call returns the
//! finished `f32` in a register.
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

use std::ops::Add;

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

/// Folds the elementwise `term(a[i], b[i])` into lane `i % LANES` with
/// `combine`, in index order within each lane, then `reduce`s the lanes.
///
/// The tail (the last `len % LANES` elements) maps to terms here, in the
/// caller's inlined copy; [`lanes`] combines them into lanes `0..r`
/// after the chunk loop. The zero terms of lanes `r..` leave those lanes
/// unchanged: every lane starts at +0.0, a round-to-nearest sum reaches
/// -0.0 only from two -0.0 operands, and a lane max never drops below its
/// +0.0 start, so `acc + 0.0` and `max(acc, 0.0)` are `acc` bit for bit.
#[inline(always)]
fn fold<A: Copy, B: Copy>(
    a: &[A],
    b: &[B],
    term: impl Fn(A, B) -> f32 + Copy,
    combine: impl Fn(f32, f32) -> f32,
    reduce: impl Fn([f32; LANES]) -> f32,
) -> f32 {
    let (ca, ta) = a.as_chunks::<LANES>();
    let (cb, tb) = b.as_chunks::<LANES>();
    let mut tail = [0.0f32; LANES];
    for (t, (&x, &y)) in tail.iter_mut().zip(ta.iter().zip(tb)) {
        *t = term(x, y);
    }
    lanes(ca, cb, &tail, term, combine, reduce)
}

/// The chunk loop of [`fold`], then the tail combine and `reduce`. Out of
/// line so the loop vectorizes to full width (see the module docs).
#[inline(never)]
fn lanes<A: Copy, B: Copy>(
    a: &[[A; LANES]],
    b: &[[B; LANES]],
    tail: &[f32; LANES],
    term: impl Fn(A, B) -> f32,
    combine: impl Fn(f32, f32) -> f32,
    reduce: impl Fn([f32; LANES]) -> f32,
) -> f32 {
    let mut acc = [0.0f32; LANES];
    for (xa, xb) in a.iter().zip(b) {
        acc = std::array::from_fn(|j| combine(acc[j], term(xa[j], xb[j])));
    }
    reduce(std::array::from_fn(|j| combine(acc[j], tail[j])))
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
    fold(
        a,
        b,
        |x, y| {
            let d = x - y;
            d * d
        },
        f32::add,
        hsum,
    )
}

/// Dot product, chunked over [`LANES`] accumulators.
///
/// # Panics
/// Panics on a length mismatch, in every build profile — the same
/// explicit-mismatch contract as [`squared_l2`].
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot between different dimensions");
    fold(a, b, |x, y| x * y, f32::add, hsum)
}

/// Manhattan distance, chunked over [`LANES`] accumulators.
///
/// # Panics
/// Panics on a length mismatch, in every build profile.
#[inline]
pub fn l1(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "l1 between different dimensions");
    fold(a, b, |x, y| (x - y).abs(), f32::add, hsum)
}

/// Chebyshev distance, chunked over [`LANES`] max accumulators.
///
/// # Panics
/// Panics on a length mismatch, in every build profile.
#[inline]
pub fn chebyshev(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "chebyshev between different dimensions");
    // `if t > acc` is `acc.max(t)` bit for bit here: both drop a NaN term,
    // and the one tie whose operands differ in bits, -0.0 against +0.0,
    // cannot occur because lanes start at +0.0 and `abs` clears the sign.
    // The comparison packs into one `vmaxps` per chunk; `f32::max` adds a
    // NaN blend that breaks the loop into shuffled pieces.
    fold(
        a,
        b,
        |x, y| (x - y).abs(),
        |acc, t| if t > acc { t } else { acc },
        hmax,
    )
}

/// Weighted dot product of an f32 query vector against one SQ8 code row:
/// `Σ_d w[d] · codes[d]`.
///
/// This is the per-candidate inner loop of the asymmetric quantized
/// distance (see [`crate::quant::Sq8::asym_l2`]): the byte codes widen to
/// f32 in-register, so each chunk is one widening load, one multiply and
/// one add (Rust never contracts them into a fused multiply-add) over a
/// quarter of the exact path's bytes, with no per-element branching and
/// no square root.
///
/// # Panics
/// Panics on a length mismatch, in every build profile.
#[inline]
pub fn sq8_dot(w: &[f32], codes: &[u8]) -> f32 {
    assert_eq!(w.len(), codes.len(), "sq8_dot between different dimensions");
    fold(w, codes, |x, c| x * c as f32, f32::add, hsum)
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
    fold(
        step,
        codes,
        |s, c| {
            let v = s * c as f32;
            v * v
        },
        f32::add,
        hsum,
    )
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

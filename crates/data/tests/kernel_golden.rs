//! Frozen-order golden for the six chunked kernels.
//!
//! `kernel_parity.rs` feeds small integers on purpose, so every partial sum
//! is exact and any summation order gives the same bits: it proves the
//! kernels compute the right *function* but cannot see a changed float-add
//! order. This suite pins the order itself. Its inputs are real-valued,
//! non-integer, mixed-sign and spread over twelve binades, so almost every
//! add rounds and reassociating them changes the result. The tail
//! lanes (the `len % LANES` elements after the last full chunk) also carry
//! -0.0, ±inf, NaN and subnormals.
//!
//! Each kernel's results over all inputs fold into one FNV-1a hash of their
//! `to_bits()`. The constants were captured from the original
//! per-lane-sequential kernels; a kernel rewrite must reproduce them
//! exactly, in debug and release builds alike, because every distance,
//! graph, report and golden of the workspace is built on these bits.

use fastann_data::kernels;

/// Input lengths: every tail width across many chunk counts, plus the
/// dimensions the benchmarks run (SIFT 128, MDC 256, GIST 960).
fn lengths() -> impl Iterator<Item = usize> {
    (0..=67).chain([128, 256, 960])
}

/// Values the tail lanes cycle through in the special-value variants.
const SPECIALS: [f32; 8] = [
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    f32::MIN_POSITIVE / 4.0,  // subnormal
    -f32::MIN_POSITIVE / 3.0, // negative subnormal
    f32::from_bits(1),        // smallest subnormal
    -1.25e-41,                // subnormal
];

/// splitmix64, so the inputs never depend on a vendored RNG's stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A non-integer real of random sign with magnitude in `[2^-6, 2^6)`.
    fn real(&mut self) -> f32 {
        let r = self.next();
        let mantissa = 1.0 + (r >> 40) as f32 / (1u64 << 24) as f32;
        let exp = ((r >> 8) % 12) as i32 - 6;
        let v = mantissa * 2f32.powi(exp);
        if r & 1 == 1 {
            -v
        } else {
            v
        }
    }

    fn reals(&mut self, len: usize) -> Vec<f32> {
        (0..len).map(|_| self.real()).collect()
    }

    fn codes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| (self.next() >> 56) as u8).collect()
    }
}

/// Overwrites the tail lanes of `v` with special values, starting the
/// cycle through [`SPECIALS`] at `phase`.
fn specials_in_tail(v: &mut [f32], phase: usize) {
    let start = v.len() - v.len() % kernels::LANES;
    for (i, x) in v[start..].iter_mut().enumerate() {
        *x = SPECIALS[(i + phase) % SPECIALS.len()];
    }
}

/// Sprinkles the finite specials (-0.0 and subnormals) through the whole
/// vector, chunk lanes included.
fn finite_specials_everywhere(v: &mut [f32], rng: &mut Rng) {
    for x in v.iter_mut() {
        match rng.next() % 8 {
            0 => *x = -0.0,
            1 => *x = SPECIALS[4 + (rng.next() % 4) as usize],
            _ => {}
        }
    }
}

/// The seeded input pairs: for each length, plain reals, reals with
/// special tails on one side or both, and reals with -0.0 and subnormals
/// throughout.
fn f32_inputs() -> Vec<(Vec<f32>, Vec<f32>)> {
    let mut rng = Rng(0x6b65_726e_656c_7331);
    let mut out = Vec::new();
    for len in lengths() {
        out.push((rng.reals(len), rng.reals(len)));
        let (mut a, b) = (rng.reals(len), rng.reals(len));
        specials_in_tail(&mut a, len);
        out.push((a, b));
        let (mut a, mut b) = (rng.reals(len), rng.reals(len));
        specials_in_tail(&mut a, len + 3);
        specials_in_tail(&mut b, len + 5);
        out.push((a, b));
        let (mut a, mut b) = (rng.reals(len), rng.reals(len));
        finite_specials_everywhere(&mut a, &mut rng);
        finite_specials_everywhere(&mut b, &mut rng);
        out.push((a, b));
    }
    out
}

/// The seeded SQ8 inputs: a weight (or step) row against a code row, with
/// the same special-value variants on the f32 side.
fn sq8_inputs() -> Vec<(Vec<f32>, Vec<u8>)> {
    let mut rng = Rng(0x7371_385f_676f_6c64);
    let mut out = Vec::new();
    for len in lengths() {
        out.push((rng.reals(len), rng.codes(len)));
        let (mut w, c) = (rng.reals(len), rng.codes(len));
        specials_in_tail(&mut w, len);
        out.push((w, c));
        let (mut w, c) = (rng.reals(len), rng.codes(len));
        finite_specials_everywhere(&mut w, &mut rng);
        out.push((w, c));
    }
    out
}

/// FNV-1a over the little-endian bytes of each result's bits. Every NaN
/// hashes as the canonical quiet NaN: IEEE 754 leaves the sign and payload
/// of a propagated NaN unspecified, and on x86 they follow operand order,
/// which the compiler may commute. Which results are NaN is still pinned.
fn fnv1a(results: impl Iterator<Item = f32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in results {
        let bits = if r.is_nan() {
            f32::NAN.to_bits()
        } else {
            r.to_bits()
        };
        for byte in bits.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn f32_hash(kernel: fn(&[f32], &[f32]) -> f32) -> u64 {
    fnv1a(f32_inputs().iter().map(|(a, b)| kernel(a, b)))
}

fn sq8_hash(kernel: fn(&[f32], &[u8]) -> f32) -> u64 {
    fnv1a(sq8_inputs().iter().map(|(w, c)| kernel(w, c)))
}

#[test]
fn squared_l2_add_order_is_frozen() {
    assert_eq!(f32_hash(kernels::squared_l2), 0x888f_e4c1_d816_a98c);
}

#[test]
fn dot_add_order_is_frozen() {
    assert_eq!(f32_hash(kernels::dot), 0xd02d_a6e0_b9b7_311d);
}

#[test]
fn l1_add_order_is_frozen() {
    assert_eq!(f32_hash(kernels::l1), 0xabf5_910b_0b16_f292);
}

#[test]
fn chebyshev_order_is_frozen() {
    assert_eq!(f32_hash(kernels::chebyshev), 0xc81f_8b4e_18d5_6d6c);
}

#[test]
fn sq8_dot_add_order_is_frozen() {
    assert_eq!(sq8_hash(kernels::sq8_dot), 0xad42_22de_62cd_8001);
}

#[test]
fn sq8_norm_add_order_is_frozen() {
    assert_eq!(sq8_hash(kernels::sq8_norm), 0xf0a1_75f5_3711_281c);
}

/// Guards the inputs themselves: the tails really carry every special
/// value, and the reals really round when summed, so the hashes above are
/// sensitive to the add order rather than trivially order-free.
#[test]
fn inputs_exercise_specials_and_rounding() {
    let inputs = f32_inputs();
    let tail_values: Vec<f32> = inputs
        .iter()
        .flat_map(|(a, _)| a[a.len() - a.len() % kernels::LANES..].to_vec())
        .collect();
    for s in SPECIALS {
        assert!(
            tail_values
                .iter()
                .any(|t| t.to_bits() == s.to_bits() || (s.is_nan() && t.is_nan())),
            "special {s:e} never reaches a tail lane"
        );
        assert!(s.is_nan() || s.is_infinite() || s == 0.0 || s.is_subnormal());
    }
    // plain pairs of every length >= 32: non-integer, and the sequential
    // forward and backward dot products round differently for most
    let plain: Vec<_> = inputs
        .iter()
        .step_by(4)
        .filter(|(a, _)| a.len() >= 32)
        .collect();
    let reordered = plain
        .iter()
        .filter(|(a, b)| {
            assert!(a.iter().chain(b.iter()).all(|x| x.fract() != 0.0));
            let fwd = a.iter().zip(b).fold(0.0f32, |s, (x, y)| s + x * y);
            let bwd = a.iter().zip(b).rev().fold(0.0f32, |s, (x, y)| s + x * y);
            fwd.to_bits() != bwd.to_bits()
        })
        .count();
    assert!(
        reordered * 4 > plain.len() * 3,
        "{reordered}/{}",
        plain.len()
    );
}

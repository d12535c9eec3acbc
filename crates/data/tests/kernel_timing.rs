//! Kernel throughput probe, ignored by default. Run it against the
//! optimized codegen that ships:
//!
//! ```text
//! cargo test -p fastann-data --release --test kernel_timing -- --ignored --nocapture
//! ```
//!
//! It prints the median ns per call of `squared_l2`, `dot`, `l1`, `sq8_dot`
//! and `Sq8::asym_l2` at dims 16, 32, 128, 256, 512 and 960, each called
//! in a loop over rows the way a graph probe calls it. A kernel whose
//! chunk loop stops vectorizing shows up here as a jump to scalar speed,
//! about 0.4 ns per dimension on a 2020s x86 core.

use std::hint::black_box;
use std::time::Instant;

use fastann_data::kernels;
use fastann_data::quant::{Sq8, Sq8Query};
use fastann_data::synth;

const DIMS: [usize; 6] = [16, 32, 128, 256, 512, 960];
const ROWS: usize = 512;
const SAMPLES: usize = 7;

/// Median over [`SAMPLES`] timed passes of ns per call of `f(i)`, where
/// `i` walks `0..calls`.
fn median_ns(calls: usize, mut f: impl FnMut(usize) -> f32) -> f64 {
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            let mut acc = 0f32;
            for i in 0..calls {
                acc += f(i);
            }
            black_box(acc);
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[SAMPLES / 2]
}

#[test]
#[ignore]
fn kernel_ns_per_call() {
    println!(
        "{:>5} {:>11} {:>8} {:>8} {:>8} {:>8}  (median ns/call)",
        "dim", "squared_l2", "dot", "l1", "sq8_dot", "asym_l2"
    );
    for dim in DIMS {
        let data = synth::sift_like(ROWS, dim, 7);
        let sq = Sq8::encode(&data);
        let mut prep = Sq8Query::default();
        sq.prepare_query(data.get(0), &mut prep);
        let w = data.get(0).to_vec();
        let codes = |i: usize| &sq.codes()[i * dim..(i + 1) * dim];
        let pair = |i: usize| (data.get(i % ROWS), data.get((i * 7 + 1) % ROWS));
        let calls = (8_000_000 / dim).max(50_000);
        let l2 = median_ns(calls, |i| {
            let (a, b) = pair(i);
            kernels::squared_l2(a, b)
        });
        let dot = median_ns(calls, |i| {
            let (a, b) = pair(i);
            kernels::dot(a, b)
        });
        let l1 = median_ns(calls, |i| {
            let (a, b) = pair(i);
            kernels::l1(a, b)
        });
        let sq8 = median_ns(calls, |i| kernels::sq8_dot(black_box(&w), codes(i % ROWS)));
        let asym = median_ns(calls, |i| sq.asym_l2(black_box(&prep), i % ROWS));
        println!("{dim:>5} {l2:>11.1} {dot:>8.1} {l1:>8.1} {sq8:>8.1} {asym:>8.1}");
    }
}

//! Metering costs no heap allocation: a warm metered `SearchRequest`
//! run makes exactly as many allocations as the same warm unmetered run.
//! The batch's series fold into an accumulator the registry keeps
//! between batches, so once both have seen the batch nothing grows. This
//! binary counts the allocations made on the test's own thread through a
//! counting global allocator; one engine thread keeps every probe there.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fastann_core::{DistIndex, EngineConfig, SearchOptions, SearchRequest};
use fastann_data::synth;
use fastann_hnsw::HnswConfig;
use fastann_obs::Metrics;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialised thread-local `Cell`,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

#[test]
fn a_warm_metered_run_allocates_as_much_as_an_unmetered_one() {
    let data = synth::sift_like(2_000, 16, 21);
    let queries = synth::queries_near(&data, 24, 0.02, 22);
    let cfg = EngineConfig::new(8, 2)
        .with_hnsw(HnswConfig::with_m(8).ef_construction(40).seed(21))
        .with_seed(21)
        .with_threads(1);
    let index = DistIndex::build(&data, cfg);
    let metrics = Metrics::new();
    for one_sided in [false, true] {
        let opts = SearchOptions::new(10).with_one_sided(one_sided);
        let run = |m: Option<&Metrics>| {
            let mut req = SearchRequest::new(&index, &queries).opts(opts);
            if let Some(m) = m {
                req = req.metrics(m);
            }
            let before = allocs();
            let report = req.run();
            let spent = allocs() - before;
            drop(report);
            spent
        };
        // warm-up: the registry's series and its spare accumulator grow
        // to what this batch records
        run(None);
        run(Some(&metrics));
        let unmetered = run(None);
        let metered = run(Some(&metrics));
        assert_eq!(
            metered, unmetered,
            "one_sided={one_sided}: metering must not allocate"
        );
    }
    assert!(
        metrics
            .snapshot()
            .counter("fastann_engine_queries_total", &[])
            .is_some(),
        "the metered runs recorded"
    );
}

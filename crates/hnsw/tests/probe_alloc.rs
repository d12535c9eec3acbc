//! A probe on warm scratch allocates only its answer: the prepared SQ8
//! query, the beam, the descent seeds and the re-rank scores all live in
//! the `SearchScratch` it reuses. This binary counts the heap
//! allocations made on the test's own thread through a counting global
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fastann_data::{synth, Distance};
use fastann_hnsw::{Hnsw, HnswConfig, SearchParams, SearchScratch};

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
fn warm_probe_allocates_only_its_answer() {
    let data = synth::sift_like(1500, 32, 3);
    let queries = synth::queries_near(&data, 40, 0.02, 4);
    let index = Hnsw::build(
        data,
        Distance::L2,
        HnswConfig::with_m(8).ef_construction(40),
    );
    assert!(index.quantizer().is_some());
    let exact = SearchParams::new(10, 40);
    let mut scratch = SearchScratch::default();
    for params in [exact, exact.quantized(true)] {
        // warm-up: the buffers grow to the largest size these probes use
        for qi in 0..queries.len() {
            index.search(queries.get(qi), &params, &mut scratch);
        }
        let mut answers = Vec::with_capacity(queries.len());
        let before = allocs();
        for qi in 0..queries.len() {
            answers.push(index.search(queries.get(qi), &params, &mut scratch).0);
        }
        let spent = allocs() - before;
        assert_eq!(
            spent,
            queries.len(),
            "{params:?}: one allocation per probe, its answer"
        );
        assert!(answers.iter().all(|a| a.len() == 10));
    }
}

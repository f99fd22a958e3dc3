//! A warm hit allocates only what it keeps or returns: `serve` of a
//! cached shape makes at most three heap allocations — the canonical
//! key's words, its labeling and the relabeled plan, one vector of steps
//! — and a cached 12-table shape makes as many as a cached 4-table one.
//! Scratch on the hit path (validation's worklist, the canonicalizer's
//! per-join labels and half-edges, the inverse labeling) fails the bound,
//! and a per-node allocation anywhere fails the comparison.

use lec_catalog::CatalogGenerator;
use lec_core::Mode;
use lec_plan::{QueryProfile, Topology, WorkloadGenerator};
use lec_service::{CacheDecision, ConcurrentPlanServer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the allocations the current thread
/// makes while its `COUNTING` flag is up.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (reallocations included) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// The key's words, the labeling and the relabeled plan.
const KEPT_OR_RETURNED: usize = 3;

#[test]
fn a_hit_allocates_the_same_for_a_4_and_a_12_table_plan() {
    let mut g = CatalogGenerator::new(17);
    let catalog = g.generate(16);
    let memory = lec_prob::presets::spread_family(500.0, 0.6, 4).unwrap();
    let server = ConcurrentPlanServer::new(&catalog, memory);
    let mode = Mode::AlgorithmC;
    let mut counts = Vec::new();
    for n in [4, 12] {
        let ids = g.pick_tables(&catalog, n);
        let profile = QueryProfile {
            topology: Topology::Chain,
            ..Default::default()
        };
        let query = WorkloadGenerator::new(n as u64).gen_query(&catalog, &ids, &profile);
        let miss = server.serve(&query, &mode).unwrap();
        assert_eq!(miss.decision, CacheDecision::Recomputed);
        assert!(miss.plan.tables().len() == n);
        // The first hit warms whatever is lazily built once per process.
        server.serve(&query, &mode).unwrap();
        let (made, hit) = allocations(|| server.serve(&query, &mode).unwrap());
        assert_eq!(hit.decision, CacheDecision::Served);
        assert_eq!(hit.plan, miss.plan);
        counts.push(made);
    }
    assert!(
        counts.iter().all(|&made| made <= KEPT_OR_RETURNED),
        "a hit made {counts:?} allocations (4, 12 tables), past {KEPT_OR_RETURNED}"
    );
    assert_eq!(
        counts[0], counts[1],
        "a hit's allocations grew with its plan: 4 tables {}, 12 tables {}",
        counts[0], counts[1]
    );
}

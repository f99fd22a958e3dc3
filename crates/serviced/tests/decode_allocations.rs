//! A request decodes into its connection's query without allocating: a
//! query decoded into a buffer that has already held one as large, with
//! filters where that one had them, makes no heap allocation.  Decoding
//! into a fresh query, or a buffer whose distributions do not carry over,
//! allocates each vector anew and fails the bound.

use lec_catalog::CatalogGenerator;
use lec_plan::{Query, QueryProfile, Topology, WorkloadGenerator};
use lec_serviced::protocol::{decode_query_into, encode_query, Reader, Writer};
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

fn encoded(q: &Query) -> Vec<u8> {
    let mut w = Writer::new();
    encode_query(&mut w, q);
    w.into_bytes()
}

/// Decode `bytes` into `buf`, counting the allocations.
fn decode_counted(bytes: &[u8], buf: &mut Query) -> usize {
    let (made, decoded) = allocations(|| decode_query_into(&mut Reader::new(bytes), buf));
    decoded.expect("a valid query");
    assert_eq!(encoded(buf), bytes, "the buffer holds the query decoded");
    made
}

#[test]
fn a_warm_buffer_decodes_without_allocating() {
    let mut g = CatalogGenerator::new(52);
    let catalog = g.generate(18);
    let mut wg = WorkloadGenerator::new(52);
    let mut gen = |n: usize, topology, sel_buckets, p_filter| {
        let ids = g.pick_tables(&catalog, n);
        let profile = QueryProfile {
            topology,
            sel_buckets,
            p_filter,
            ..Default::default()
        };
        wg.gen_query(&catalog, &ids, &profile)
    };

    // The shapes a warm-hit stream sends: 4 to 7 tables, three
    // topologies, the default profile.  Each decoded a second time into
    // the buffer that just held it.
    let mut buf = Query::default();
    for i in 0..24 {
        let topology = [Topology::Chain, Topology::Star, Topology::Random][i % 3];
        let bytes = encoded(&gen(4 + i % 4, topology, 1 + 2 * (i % 2), 0.3));
        decode_counted(&bytes, &mut buf);
        let made = decode_counted(&bytes, &mut buf);
        assert_eq!(made, 0, "shape {i} decoded again made {made} allocations");
    }

    // A smaller query, every table filtered, with fewer buckets, into a
    // buffer that held a larger one filtered everywhere.
    let large = encoded(&gen(12, Topology::Random, 5, 1.0));
    let small = encoded(&gen(6, Topology::Star, 3, 1.0));
    let mut buf = Query::default();
    assert!(
        decode_counted(&large, &mut buf) > 0,
        "a fresh buffer allocates"
    );
    let made = decode_counted(&small, &mut buf);
    assert_eq!(made, 0, "a smaller query made {made} allocations");
}

//! A request decodes into its connection's query without allocating: a
//! query decoded into a buffer that has already held one as large makes no
//! heap allocation, and neither does a renamed one whose filters land
//! elsewhere, once the connection's spare distributions cover them.
//! Decoding into a fresh query, or a buffer whose distributions do not
//! carry over, allocates each vector anew and fails the bound.

use lec_catalog::CatalogGenerator;
use lec_plan::{Query, QueryProfile, Topology, WorkloadGenerator};
use lec_prob::Distribution;
use lec_serviced::protocol::{decode_query_into, encode_query, Reader, Writer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations the current thread
/// makes while its `COUNTING` flag is up, in a per-thread counter: the
/// tests run side by side.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
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
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCATIONS.with(Cell::get) - before, out)
}

fn encoded(q: &Query) -> Vec<u8> {
    let mut w = Writer::new();
    encode_query(&mut w, q);
    w.into_bytes()
}

/// Decode `bytes` into `buf` and its spares, counting the allocations.
fn decode_counted(bytes: &[u8], (buf, spares): (&mut Query, &mut Vec<Distribution>)) -> usize {
    let (made, decoded) = allocations(|| decode_query_into(&mut Reader::new(bytes), buf, spares));
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
    let (mut buf, mut spares) = (Query::default(), Vec::new());
    for i in 0..24 {
        let topology = [Topology::Chain, Topology::Star, Topology::Random][i % 3];
        let bytes = encoded(&gen(4 + i % 4, topology, 1 + 2 * (i % 2), 0.3));
        decode_counted(&bytes, (&mut buf, &mut spares));
        let made = decode_counted(&bytes, (&mut buf, &mut spares));
        assert_eq!(made, 0, "shape {i} decoded again made {made} allocations");
    }

    // A smaller query, every table filtered, with fewer buckets, into a
    // buffer that held a larger one filtered everywhere.
    let large = encoded(&gen(12, Topology::Random, 5, 1.0));
    let small = encoded(&gen(6, Topology::Star, 3, 1.0));
    let (mut buf, mut spares) = (Query::default(), Vec::new());
    assert!(
        decode_counted(&large, (&mut buf, &mut spares)) > 0,
        "a fresh buffer allocates"
    );
    let made = decode_counted(&small, (&mut buf, &mut spares));
    assert_eq!(made, 0, "a smaller query made {made} allocations");
}

/// A warm-hit stream renames its shapes per request, so a filter lands
/// where the query before had none and a join list shrinks and grows
/// again.  After one pass over the 24 shapes of such a stream (the
/// default profile), a second pass under other names decodes into the
/// same buffer without allocating: every distribution it needs is one an
/// earlier request left in place or dropped into the spares.
#[test]
fn a_renamed_warm_stream_decodes_without_allocating() {
    let mut g = CatalogGenerator::new(35);
    let catalog = g.generate(18);
    let mut wg = WorkloadGenerator::new(35);
    let shapes: Vec<Query> = (0..24)
        .map(|i| {
            let ids = g.pick_tables(&catalog, 4 + i % 4);
            let profile = QueryProfile {
                topology: [Topology::Chain, Topology::Star, Topology::Random][i % 3],
                ..Default::default()
            };
            wg.gen_query(&catalog, &ids, &profile)
        })
        .collect();
    let (mut buf, mut spares) = (Query::default(), Vec::new());
    let mut moved = 0;
    for pass in 0..2 {
        let mut made = 0;
        for (i, q) in shapes.iter().enumerate() {
            // A rotation on the first pass, a reflection on the second.
            let n = q.n_tables();
            let map: Vec<usize> = (0..n)
                .map(|t| match pass {
                    0 => (t + i) % n,
                    _ => (2 * n - 1 - t - i % n) % n,
                })
                .collect();
            let renamed = q.relabel_tables(&map);
            let filtered = |q: &Query| {
                q.tables
                    .iter()
                    .map(|t| t.filter.is_some())
                    .collect::<Vec<_>>()
            };
            moved += usize::from(filtered(&renamed) != filtered(&buf));
            made += decode_counted(&encoded(&renamed), (&mut buf, &mut spares));
        }
        if pass == 1 {
            assert_eq!(made, 0, "the second pass made {made} allocations");
        }
    }
    assert!(
        moved > 24,
        "filters land in new places: {moved} of 48 requests"
    );
}

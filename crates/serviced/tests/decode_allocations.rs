//! A request decodes into its connection's query without allocating: a
//! query decoded into a buffer that has already held one as large makes no
//! heap allocation, and neither does a renamed one whose filters land
//! elsewhere, once the connection's spare distributions cover them.
//! Decoding into a fresh query, or a buffer whose distributions do not
//! carry over, allocates each vector anew and fails the bound.
//!
//! A response's plan decodes into two buffers sized once, for a 4-table
//! plan as for a 15-table one, and a hostile plan body reserves no more
//! than the largest valid plan would: the size is taken from the bytes
//! left, and capped.

use lec_catalog::CatalogGenerator;
use lec_core::SearchStats;
use lec_plan::{
    ColumnRef, JoinMethod, PlanNode, Query, QueryProfile, Step, TableSet, Topology,
    WorkloadGenerator,
};
use lec_prob::Distribution;
use lec_service::{CacheDecision, ServeResponse};
use lec_serviced::protocol::{
    decode_plan, decode_query_into, decode_response, encode_query, encode_response, Reader, Writer,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations the current thread
/// makes while its `COUNTING` flag is up, and the largest size asked for,
/// in per-thread counters: the tests run side by side.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        LARGEST.with(|m| m.set(m.get().max(size)));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// The largest single request, in bytes, `f` makes on this thread.
fn largest_request<T>(f: impl FnOnce() -> T) -> (usize, T) {
    LARGEST.with(|m| m.set(0));
    let (_, out) = allocations(f);
    (LARGEST.with(Cell::get), out)
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

/// A left-deep plan over `n` tables, every join method and both scans in
/// turn, under a root sort; and a bushy one of balanced halves.
fn plans(n: usize) -> [PlanNode; 2] {
    let scan = |t: usize| match t % 2 {
        0 => PlanNode::seq_scan(t),
        _ => PlanNode::index_scan(t),
    };
    let method = |i: usize| JoinMethod::ALL[i % JoinMethod::ALL.len()];
    let left_deep = (1..n).fold(scan(0), |outer, t| {
        PlanNode::join(method(t), outer, scan(t))
    });
    let key = ColumnRef {
        table: 0,
        column: 1,
    };
    fn bushy(tables: std::ops::Range<usize>, leaf: &dyn Fn(usize) -> PlanNode) -> PlanNode {
        if tables.len() == 1 {
            return leaf(tables.start);
        }
        let mid = tables.start + tables.len() / 2;
        let method = JoinMethod::ALL[mid % JoinMethod::ALL.len()];
        PlanNode::join(
            method,
            bushy(tables.start..mid, leaf),
            bushy(mid..tables.end, leaf),
        )
    }
    [PlanNode::sort(left_deep, key), bushy(0..n, &scan)]
}

/// The client decodes a response's plan into its two buffers, the steps
/// and the stack of pending nodes, each sized once: a 15-table plan makes
/// as many allocations as a 4-table one.  A buffer grown from empty
/// reallocates per doubling and fails both the bound and the comparison.
#[test]
fn a_responses_plan_decodes_in_two_allocations_at_any_size() {
    let mut counts = Vec::new();
    for n in [4, 15] {
        for plan in plans(n) {
            let mut w = Writer::new();
            let response = ServeResponse {
                plan,
                cost: 1.5e6,
                stats: SearchStats::default(),
                decision: CacheDecision::Served,
            };
            encode_response(&mut w, &response);
            let bytes = w.into_bytes();
            let (made, decoded) = allocations(|| decode_response(&mut Reader::new(&bytes)));
            let decoded = decoded.expect("a valid response");
            assert_eq!(decoded.plan, response.plan, "{n} tables: the plan decoded");
            assert!(made <= 2, "{n} tables: {made} allocations");
            counts.push(made);
        }
    }
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "allocations per plan moved with its size: {counts:?}"
    );
}

/// A plan body of 1 MiB of join tags is read only as far as its first
/// bad tag, after `TableSet::MAX_TABLES` joins, but the frame's length is
/// what sizes the buffers: without the cap at `2 * TableSet::MAX_TABLES`
/// nodes the decoder would reserve a slot for every 5 bytes, 5 MB.  And a
/// body of join tags to the depth limit asks for no more at 1 MiB than at
/// 4 KiB.
#[test]
fn a_hostile_plan_body_reserves_no_more_than_the_cap() {
    let joins = |bytes: usize| [3u8, 0].repeat(bytes / 2);
    let decode = |body: &[u8]| largest_request(|| decode_plan(&mut Reader::new(body)));

    let mut body = joins(1 << 20);
    body[2 * TableSet::MAX_TABLES] = 0xFF;
    let (largest, decoded) = decode(&body);
    assert!(decoded.is_err(), "a bad tag is an error");
    let cap = 2 * TableSet::MAX_TABLES * std::mem::size_of::<Step>();
    assert!(largest <= cap, "reserved {largest} B up front, cap {cap} B");

    let (deep, decoded) = decode(&joins(1 << 20));
    assert!(decoded.is_err(), "past the depth limit is an error");
    let (short, _) = decode(&joins(4 << 10));
    assert_eq!(deep, short, "the frame's length sized a request");
}

//! Algorithm D allocates per search and per survivor, never per size
//! pair: a search's heap allocations are pinned on three fixtures at
//! their measured counts plus a margin, and a warm `combine` makes none,
//! whether it prices one operand-size pair or sixteen.  A scratch buffer
//! dropped for a fresh one per pair (the size chain's, the selectivity
//! memo's, the price list's), or a survivor's tables built per entry
//! rather than per size, fails one or the other.

use lec_core::fixtures::{pruning_clique, pruning_star, scaling_chain};
use lec_core::search::{
    run_search_with, CandidatePolicy, DistEntry, JoinContext, MultiParamPolicy, PlanArena,
    PlanShape, SearchStats, Step,
};
use lec_core::AlgDConfig;
use lec_cost::{CostModel, DistTables};
use lec_plan::{OrderProperty, TableSet};
use lec_prob::Distribution;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations the current thread
/// makes while its count is on: per thread, since the tests of this file
/// run side by side.
struct Counting;

thread_local! {
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn count() {
    COUNT.with(|c| c.set(c.get().map(|n| n + 1)));
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
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    (COUNT.with(|c| c.take()).expect("counting"), out)
}

fn memory() -> Distribution {
    lec_prob::presets::spread_family(500.0, 0.6, 4).unwrap()
}

/// Each fixture's measured allocations per default-configured left-deep D
/// search: the level vectors and their exact copies, the plan arena,
/// access paths, the selectivity memo's few growths and one block per
/// surviving size.  Survivors number in the dozens on each, so an
/// allocation per survivor (tables built per entry) is past the margin.
const PINNED: [(&str, usize); 3] = [
    ("pruning_star(7)", 216),
    ("pruning_clique(6)", 207),
    ("scaling_chain(6)", 141),
];

/// Room for a benign change in how often a growing vector reallocates.
const MARGIN: usize = 16;

#[test]
fn a_d_search_allocates_what_its_survivors_keep() {
    let fixtures = [pruning_star(7), pruning_clique(6), scaling_chain(6)];
    for ((name, pinned), (catalog, query)) in PINNED.into_iter().zip(fixtures) {
        let model = CostModel::new(&catalog, &query);
        let memory = memory();
        let (made, run) = allocations(|| {
            let mut policy = MultiParamPolicy::new(&memory, AlgDConfig::default());
            run_search_with(&model, PlanShape::LeftDeep, &mut policy)
        });
        let run = run.unwrap();
        assert_eq!(
            run.plans.node(run.best().plan).tables(),
            TableSet::full(query.n_tables())
        );
        assert!(
            made <= pinned + MARGIN,
            "{name}: a D search made {made} allocations, expected {pinned} + {MARGIN}"
        );
    }
}

/// `k` outer entries of distinct sizes over table `t`, each a scan.
fn outers(plans: &mut PlanArena, t: usize, k: usize) -> Vec<DistEntry> {
    (0..k)
        .map(|i| {
            let base = 40.0 * (i + 1) as f64;
            let size = Distribution::uniform(&[base, base * 3.0, base * 7.5]).unwrap();
            let pages = DistTables::new(&size);
            DistEntry {
                plan: plans.push(Step::SeqScan(t)),
                cost: 100.0 + i as f64,
                pages_fp: pages.fingerprint(),
                pages,
                order: OrderProperty::Unsorted,
            }
        })
        .collect()
}

/// A warm `combine` — its scratch, price list and memo entry in place
/// from a first call on the same split — allocates nothing, and so
/// nothing per size pair: pricing sixteen distinct pairs costs what one
/// does.
#[test]
fn a_warm_combine_allocates_nothing_whatever_it_prices() {
    let (catalog, query) = pruning_star(7);
    let model = CostModel::new(&catalog, &query);
    let (u, v) = query.joins[0].tables();
    let ctx = JoinContext::of(TableSet::singleton(u), TableSet::singleton(v));
    let memory = memory();
    let mut counts = Vec::new();
    for k in [1, 16] {
        let mut plans = PlanArena::default();
        let outer = outers(&mut plans, u, k);
        let inner = outers(&mut plans, v, 1);
        let mut policy = MultiParamPolicy::new(&memory, AlgDConfig::default());
        let mut level = Vec::new();
        let mut stats = SearchStats::default();
        policy.combine(&model, &plans, &ctx, &outer, &inner, &mut stats);
        policy.build(&mut plans, &mut level);
        let built = level.len();
        let (made, ()) = allocations(|| {
            policy.combine(&model, &plans, &ctx, &outer, &inner, &mut stats);
        });
        policy.build(&mut plans, &mut level);
        assert!(built > 0, "the first combine keeps survivors");
        assert_eq!(level.len(), 2 * built, "the warm survivors are built");
        assert_eq!(stats.candidates, 2 * 4 * k as u64);
        counts.push(made);
    }
    assert_eq!(
        counts,
        [0, 0],
        "a warm combine's allocations, pricing 1 and 16 size pairs"
    );
}

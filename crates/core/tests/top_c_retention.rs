//! Algorithm B's top-`c` insert ([`insert_top_c`]: sorted runs, binary
//! search, a one-compare reject) keeps exactly the entries the original
//! scan-for-worst rule kept, and its policy's pending joins, early
//! frontier stop and once-per-size pricing keep exactly what an eager walk
//! of the whole frontier, pricing every group, kept.  Both originals are
//! kept here as references, changed only to name plans by arena step.

use lec_catalog::{Catalog, CatalogGenerator, ColumnStats, TableStats};
use lec_core::fixtures::{pruning_clique, pruning_star, three_chain};
use lec_core::search::policy::shape_rank;
use lec_core::search::{
    insert_top_c, order_run, run_search_with, CandidatePolicy, DpEntry, FrontierStats, JoinContext,
    Joined, MemoryCoster, PhaseCoster, PlanArena, PlanId, PlanShape, SearchStats, Step, TopCPolicy,
};
use lec_cost::CostModel;
use lec_plan::{
    ColumnRef, JoinMethod, JoinPredicate, OrderProperty, PlanNode, Query, QueryProfile, QueryTable,
    Topology, WorkloadGenerator,
};
use proptest::prelude::*;
use std::cmp::Ordering;

/// Algorithm B's policy as it was before pending joins, the early stop
/// and once-per-size pricing: its frontier walk verbatim, the methods
/// priced per group, every admitted combination inserted into the node's
/// list (as a join not built yet: the search's arena is read-only inside
/// a combine), which `build` then builds whole.  Its groups are keyed on
/// the policy's order classes (sorted as required, and the rest) and each
/// combination carries its own outer entry's output order.  Access paths
/// and finalization are [`TopCPolicy`]'s own.
struct EagerTopC {
    delegate: TopCPolicy,
    coster: MemoryCoster,
    c: usize,
    bound: u64,
    frontier: FrontierStats,
    node: Vec<Joined<f64>>,
}

impl EagerTopC {
    fn new(memory: f64, c: usize) -> Self {
        EagerTopC {
            delegate: TopCPolicy::new(memory, c),
            coster: MemoryCoster::point(memory),
            c,
            bound: (c as f64 + c as f64 * (c as f64).ln()).ceil() as u64,
            frontier: FrontierStats::default(),
            node: Vec::new(),
        }
    }
}

impl CandidatePolicy for EagerTopC {
    type Entry = DpEntry;

    fn access_entries(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        idx: usize,
    ) -> Vec<DpEntry> {
        self.delegate.access_entries(model, plans, idx)
    }

    fn combine(
        &mut self,
        model: &CostModel<'_>,
        plans: &PlanArena,
        ctx: &JoinContext,
        outer: &[DpEntry],
        inner: &[DpEntry],
        stats: &mut SearchStats,
    ) {
        let split = model.split(ctx.left, ctx.right);
        let key = |e: &DpEntry| (e.order.is_required(), e.pages.to_bits());
        let mut outer_list: Vec<&DpEntry> = outer.iter().collect();
        outer_list.sort_by_key(|e| key(e));
        let mut inner_list: Vec<&DpEntry> = inner.iter().collect();
        inner_list.sort_by(|a, b| shape_rank(model, plans, *a, *b));
        let inner_pages = inner_list.first().map(|e| e.pages).unwrap_or(0.0);

        for group in outer_list.chunk_by(|a, b| key(a) == key(b)) {
            let outer_pages = group[0].pages;
            for method in JoinMethod::ALL {
                self.frontier.groups += 1;
                self.frontier.bound_total = self.frontier.bound_total.saturating_add(self.bound);
                let join_cost = self
                    .coster
                    .join_cost(model, ctx, method, outer_pages, inner_pages);
                let pages = split.pages(outer_pages, inner_pages);
                for (ki, ie) in inner_list.iter().enumerate() {
                    let i_max = self.c / (ki + 1);
                    if i_max == 0 {
                        break;
                    }
                    for oe in group.iter().take(i_max) {
                        self.frontier.combinations_examined += 1;
                        stats.candidates += 1;
                        let e = Joined {
                            cost: oe.cost + ie.cost + join_cost,
                            order: split.order(method, oe.order),
                            size: pages,
                            method,
                            outer: oe.plan,
                            inner: ie.plan,
                        };
                        let mut run = order_run(&self.node, e.order);
                        insert_top_c(model, plans, &mut self.node, &mut run, self.c, e);
                    }
                }
            }
        }
    }

    fn build(&mut self, plans: &mut PlanArena, into: &mut Vec<DpEntry>) {
        into.extend(self.node.drain(..).map(|j| DpEntry {
            plan: plans.push(Step::Join(j.method, j.outer, j.inner)),
            cost: j.cost,
            pages: j.size,
            order: j.order,
        }));
    }

    fn finalize(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        entries: Vec<DpEntry>,
        stats: &mut SearchStats,
    ) -> Vec<DpEntry> {
        self.delegate.finalize(model, plans, entries, stats)
    }
}

/// Every work counter of a run but `evals` (the reference prices every
/// group, the policy every distinct size).
fn counters(s: &SearchStats) -> [u64; 5] {
    [
        s.nodes as u64,
        s.candidates,
        s.cache_hits,
        s.memo_hits,
        s.memo_misses,
    ]
}

type View = Vec<(PlanNode, u64, OrderProperty)>;

/// The comparable content of an entry list: plans, cost bits, orders.
fn view(plans: &PlanArena, entries: &[DpEntry]) -> View {
    entries
        .iter()
        .map(|e| (plans.node(e.plan), e.cost.to_bits(), e.order))
        .collect()
}

/// A policy that records every node it builds, in build order.  A lost
/// top-c member rarely reaches the root's final top `c`, so comparing
/// every node is what makes a wrong stop visible.
struct Logged<P> {
    policy: P,
    nodes: Vec<View>,
}

impl<P: CandidatePolicy<Entry = DpEntry>> CandidatePolicy for Logged<P> {
    type Entry = DpEntry;

    fn access_entries(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        idx: usize,
    ) -> Vec<DpEntry> {
        self.policy.access_entries(model, plans, idx)
    }

    fn combine(
        &mut self,
        model: &CostModel<'_>,
        plans: &PlanArena,
        ctx: &JoinContext,
        outer: &[DpEntry],
        inner: &[DpEntry],
        stats: &mut SearchStats,
    ) {
        self.policy.combine(model, plans, ctx, outer, inner, stats);
    }

    fn build(&mut self, plans: &mut PlanArena, into: &mut Vec<DpEntry>) {
        let start = into.len();
        self.policy.build(plans, into);
        self.nodes.push(view(plans, &into[start..]));
    }

    fn finalize(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        entries: Vec<DpEntry>,
        stats: &mut SearchStats,
    ) -> Vec<DpEntry> {
        self.policy.finalize(model, plans, entries, stats)
    }
}

/// Run [`TopCPolicy`] and [`EagerTopC`] on one query and memory value and
/// require the same node lists and root list (plans, cost bits, orders),
/// the same frontier counters and every work counter but `evals` the same,
/// with the policy's `evals` no more than the reference's.
fn assert_early_stop_is_exact(catalog: &Catalog, query: &Query, memory: f64, c: usize) {
    let model = CostModel::new(catalog, query);
    let mut fast = Logged {
        policy: TopCPolicy::new(memory, c),
        nodes: Vec::new(),
    };
    let mut eager = Logged {
        policy: EagerTopC::new(memory, c),
        nodes: Vec::new(),
    };
    let got = run_search_with(&model, PlanShape::LeftDeep, &mut fast).unwrap();
    let want = run_search_with(&model, PlanShape::LeftDeep, &mut eager).unwrap();
    let ctx = format!("c = {c}, m = {memory}");
    assert_eq!(fast.nodes, eager.nodes, "nodes, {ctx}");
    assert_eq!(
        view(&got.plans, &got.roots),
        view(&want.plans, &want.roots),
        "roots, {ctx}"
    );
    assert_eq!(
        fast.policy.frontier, eager.policy.frontier,
        "frontier, {ctx}"
    );
    assert_eq!(counters(&got.stats), counters(&want.stats), "stats, {ctx}");
    assert!(got.stats.evals <= want.stats.evals, "evals, {ctx}");
}

const MEMORIES: [f64; 4] = [40.0, 300.0, 1500.0, 8000.0];

/// A chain of four 10-page tables ending in a 10¹⁸-page one.  Joining the
/// giant costs ≈10¹⁸, whose last-place unit is hundreds of pages, so outer
/// plans that differ by less round to the *same* candidate cost and only
/// shape decides: the one input on which a stop that also broke on a
/// shape-tie rejection (rather than a strictly costlier one) would lose a
/// plan the eager walk keeps.
fn absorbing_chain() -> (Catalog, Query) {
    let mut catalog = Catalog::new();
    let ids: Vec<_> = (0..5u64)
        .map(|i| {
            let pages = if i == 4 {
                1_000_000_000_000_000_000
            } else {
                10 + i
            };
            let stats = TableStats::new(
                pages,
                pages,
                vec![ColumnStats::plain("a", 100), ColumnStats::plain("b", 100)],
            );
            catalog.add_table(format!("W{i}"), stats)
        })
        .collect();
    let query = Query {
        tables: ids.into_iter().map(QueryTable::bare).collect(),
        joins: (1..5)
            .map(|i| {
                let sel = if i == 4 { 1e-18 } else { 0.1 };
                JoinPredicate::exact(ColumnRef::new(i - 1, 1), ColumnRef::new(i, 0), sel)
            })
            .collect(),
        required_order: None,
    };
    (catalog, query)
}

/// The clamp-heavy fixtures, where one-page intermediates make many
/// same-size groups and exact cost ties, and the absorbing chain.
#[test]
fn the_early_stop_keeps_the_eager_frontier_on_tie_heavy_fixtures() {
    for (catalog, query) in [pruning_star(7), pruning_clique(6), absorbing_chain()] {
        for c in 1..=8 {
            for memory in MEMORIES {
                assert_early_stop_is_exact(&catalog, &query, memory, c);
            }
        }
    }
}

const TOPOLOGIES: [Topology; 3] = [Topology::Chain, Topology::Star, Topology::Random];

/// The rule `insert_top_c` replaced, restated for order classes: per
/// class (sorted as required, and the rest), scan for the worst entry
/// under (cost, shape), the last found among equal-rank worsts; a full
/// list rejects an equal-rank newcomer and otherwise evicts that worst;
/// survivors keep arrival order.
fn reference_insert(
    model: &CostModel<'_>,
    plans: &PlanArena,
    c: usize,
    entries: &mut Vec<DpEntry>,
    e: DpEntry,
) {
    let rank = |a: &DpEntry, b: &DpEntry| reference_rank(model, plans, a, b);
    let mut same = 0usize;
    let mut worst: Option<usize> = None;
    for (i, f) in entries.iter().enumerate() {
        if f.order.is_required() != e.order.is_required() {
            continue;
        }
        same += 1;
        if worst.is_none_or(|w| rank(&entries[w], f) != Ordering::Greater) {
            worst = Some(i);
        }
    }
    if same >= c {
        let w = worst.expect("same >= c >= 1 implies a worst entry");
        if rank(&e, &entries[w]) != Ordering::Less {
            return;
        }
        entries.remove(w);
    }
    entries.push(e);
}

/// Cost, then shape.
fn reference_rank(model: &CostModel<'_>, plans: &PlanArena, a: &DpEntry, b: &DpEntry) -> Ordering {
    a.cost
        .total_cmp(&b.cost)
        .then_with(|| plans.shape_cmp(model, a.plan, b.plan))
}

/// Plans whose shapes tie and differ in every way the shape compare looks
/// at: scan kind, table, join method, operands.
fn plan_pool() -> Vec<PlanNode> {
    let scan = PlanNode::seq_scan;
    let join = |method, o, i| PlanNode::join(method, scan(o), scan(i));
    vec![
        PlanNode::seq_scan(0),
        PlanNode::seq_scan(2),
        PlanNode::index_scan(1),
        join(JoinMethod::GraceHash, 0, 1),
        join(JoinMethod::GraceHash, 1, 0),
        join(JoinMethod::SortMerge, 0, 1),
        join(JoinMethod::PageNestedLoop, 1, 2),
    ]
}

/// `plan`'s steps appended to `plans`, fresh: the id is this copy's own.
fn push_tree(plans: &mut PlanArena, plan: &PlanNode) -> PlanId {
    let mut ids = Vec::new();
    for step in plan.steps() {
        let step = step.map_inputs(|i| ids[i as usize]);
        ids.push(plans.push(step));
    }
    *ids.last().expect("a plan has a root")
}

const COSTS: [f64; 4] = [1.0, 2.0, 3.0, 5.0];
const CS: [usize; 4] = [1, 2, 3, 5];

/// Two orders are two classes; the third shares the first's class.
fn order(i: usize) -> OrderProperty {
    match i {
        0 => OrderProperty::Unsorted,
        1 => OrderProperty::Required,
        _ => OrderProperty::Incidental,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Random candidate streams with frequent exact ties (four cost values,
    /// repeated plans): every class's run holds the reference survivors,
    /// plan for plan (the same step, not merely an equal plan), in
    /// (cost, shape) order; the insert reports "beaten" exactly
    /// when a full run's worst costs strictly less than the candidate; and
    /// the run it was handed is the class's run after the insert too.
    #[test]
    fn top_c_insert_keeps_the_scan_for_worst_survivors(
        ci in 0usize..4,
        n_orders in 2usize..4,
        stream in prop::collection::vec((0usize..4, 0usize..3, 0usize..7), 0..48),
    ) {
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        let c = CS[ci];
        let pool = plan_pool();
        let mut plans = PlanArena::default();
        let (mut fast, mut reference): (Vec<DpEntry>, Vec<DpEntry>) = (Vec::new(), Vec::new());
        for (k, o, p) in stream {
            let e = DpEntry {
                plan: push_tree(&mut plans, &pool[p]),
                cost: COSTS[k],
                pages: 10.0,
                order: order(o % n_orders),
            };
            let class = e.order.is_required();
            let run: Vec<&DpEntry> = fast.iter().filter(|f| f.order.is_required() == class).collect();
            let must_skip = run.len() >= c && run.last().is_some_and(|w| w.cost < e.cost);
            let mut run = order_run(&fast, e.order);
            let beaten = insert_top_c(&model, &plans, &mut fast, &mut run, c, e);
            prop_assert_eq!(beaten, must_skip, "beaten exactly when a full run's worst costs less");
            prop_assert_eq!(&run, &order_run(&fast, e.order), "the run stays current");
            reference_insert(&model, &plans, c, &mut reference, e);
        }
        let rank = |a: &DpEntry, b: &DpEntry| reference_rank(&model, &plans, a, b);
        let class = |e: &DpEntry| e.order.is_required();
        prop_assert!(fast.is_sorted_by(|a, b| {
            class(a).cmp(&class(b)).then_with(|| rank(a, b)) != Ordering::Greater
        }));
        for required in [false, true] {
            let mut want: Vec<&DpEntry> = reference.iter().filter(|e| class(e) == required).collect();
            want.sort_by(|a, b| rank(a, b));
            let got: Vec<&DpEntry> = fast.iter().filter(|e| class(e) == required).collect();
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                let (gp, wp) = (plans.node(g.plan), plans.node(w.plan));
                prop_assert_eq!(g.plan, w.plan, "{} vs {}", gp.compact(), wp.compact());
            }
        }
        prop_assert_eq!(fast.len(), reference.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `rename_equivariance.rs`'s generator, twin tables included: every
    /// tie the early stop could mishandle is in play.
    #[test]
    fn the_early_stop_keeps_the_eager_frontier_on_random_queries(
        seed in 0u64..1_000_000,
        n in 3usize..8,
        topology in 0usize..3,
        sel_buckets in 1usize..4,
        c in 1usize..=8,
        mi in 0usize..4,
    ) {
        let mut tables = CatalogGenerator::new(seed);
        let catalog = tables.generate(n + 4);
        let ids = tables.pick_tables(&catalog, n);
        let profile = QueryProfile {
            topology: TOPOLOGIES[topology],
            sel_buckets,
            ..Default::default()
        };
        let query = WorkloadGenerator::new(seed ^ 0x5EED).gen_query(&catalog, &ids, &profile);
        assert_early_stop_is_exact(&catalog, &query, MEMORIES[mi], c);
    }
}

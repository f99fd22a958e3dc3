//! Only the required order is interesting: a search that keeps one entry
//! for every order nothing consumes (unsorted and incidentally sorted
//! together, an incidental sort ranked first on exact cost ties) returns
//! the answers of a keep-best that still tracks every sort-merge and
//! clustered-index column class.  That reference is kept here: its entries
//! carry their full `ColumnEquivalences` class, and its covering and
//! insert rules are the ones the search ran before the collapse, verbatim.
//!
//! Join costs ignore input order and only the root's sort consumes one,
//! so no cost bit may move under LSC, Algorithm C or the bushy extension,
//! and LSC and C return the reference's plan — with one exception, which
//! floating point makes: the reference may keep an incidental entry the
//! collapse drops as strictly costlier, by a few units in the last place,
//! whose extension then rounds to an exact tie and wins it on order.  A
//! differing plan must be that case: it extends such an entry.  (Bushy
//! may pick another plan of the same cost on an exact tie.)

use lec_catalog::{Catalog, CatalogGenerator, IndexKind};
use lec_core::search::{
    run_search_with, CandidatePolicy, DpEntry, JoinContext, Joined, KeepBestPolicy, MemoryCoster,
    PhaseCoster, PlanArena, PlanId, PlanShape, SearchEntry, SearchStats, Step,
};
use lec_core::{Mode, PointEstimate};
use lec_cost::{AccessPath, CostModel};
use lec_plan::{
    ColumnEquivalences, ColumnRef, JoinMethod, OrderProperty, QueryProfile, TableSet, Topology,
    WorkloadGenerator,
};
use lec_prob::Distribution;
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::HashMap;

/// A full order class: `None` unsorted, `Some(c)` sorted on the class
/// whose canonical column is `c`.
type Class = Option<ColumnRef>;

/// `a` can substitute for `b`: same order, or `b` needs no order.
fn covers(a: Class, b: Class) -> bool {
    a == b || b.is_none()
}

/// The insert rule before the collapse, over full classes: keep an entry
/// only if no entry with a covering order is cheaper; on an exact cost tie
/// a strictly stronger order wins, and equivalent orders go to the smaller
/// shape.
fn insert_full_class<T: SearchEntry>(
    model: &CostModel<'_>,
    plans: &PlanArena,
    entries: &mut Vec<T>,
    e: T,
    class: impl Fn(&T) -> Class,
) {
    let (cost, order) = (e.cost(), class(&e));
    for found in entries.iter() {
        let (f_cost, f_order) = (found.cost(), class(found));
        if covers(f_order, order)
            && (f_cost < cost
                || (f_cost == cost
                    && (!covers(order, f_order)
                        || found.shape_cmp(model, plans, &e) != Ordering::Greater)))
        {
            return;
        }
    }
    entries.retain(|f| {
        !(covers(order, class(f))
            && (cost < f.cost()
                || (cost == f.cost()
                    && (!covers(class(f), order)
                        || e.shape_cmp(model, plans, f) == Ordering::Less))))
    });
    entries.push(e);
}

/// A keep-best entry that knows its full class.
#[derive(Debug, Clone, Copy)]
struct FullEntry {
    plan: PlanId,
    cost: f64,
    pages: f64,
    class: Class,
    order: OrderProperty,
}

impl SearchEntry for FullEntry {
    fn cost(&self) -> f64 {
        self.cost
    }
    fn order(&self) -> OrderProperty {
        self.order
    }
    fn shape_cmp(&self, model: &CostModel<'_>, plans: &PlanArena, other: &Self) -> Ordering {
        plans.shape_cmp(model, self.plan, other.plan)
    }
}

/// Keep-best over full classes, every candidate priced and inserted.  A
/// pending join's size carries its result pages and its full class.
struct FullClassKeepBest {
    coster: MemoryCoster,
    classes: ColumnEquivalences,
    /// The required order's class, if the query has one.
    required: Class,
    /// Each table's clustered filter column, if any.
    clustered: Vec<Option<usize>>,
    /// Every entry's cost and order, by its plan step.
    kept: HashMap<PlanId, (f64, OrderProperty)>,
    /// The subset in hand's pending joins.
    pending: Vec<Joined<(f64, Class)>>,
}

impl FullClassKeepBest {
    fn new(catalog: &Catalog, model: &CostModel<'_>, coster: MemoryCoster) -> Self {
        let q = model.query();
        let classes = ColumnEquivalences::for_query(q);
        let clustered = (q.tables.iter())
            .map(|qt| {
                let f = qt.filter.as_ref()?;
                let kind = catalog.table(qt.table).stats.index_on(f.column);
                (kind == IndexKind::Clustered).then_some(f.column)
            })
            .collect();
        FullClassKeepBest {
            coster,
            required: q.required_order.map(|c| classes.canonical(c)),
            classes,
            clustered,
            kept: HashMap::new(),
            pending: Vec::new(),
        }
    }

    fn order(&self, class: Class) -> OrderProperty {
        match class {
            None => OrderProperty::Unsorted,
            Some(_) if class == self.required => OrderProperty::Required,
            Some(_) => OrderProperty::Incidental,
        }
    }
}

impl CandidatePolicy for FullClassKeepBest {
    type Entry = FullEntry;

    fn access_entries(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        idx: usize,
    ) -> Vec<FullEntry> {
        let mut entries = Vec::new();
        for path in model.access_paths(idx) {
            let (step, class) = match path {
                AccessPath::SeqScan => (Step::SeqScan(idx), None),
                AccessPath::IndexScan => {
                    let col = self.clustered[idx];
                    let class = col.map(|c| self.classes.canonical(ColumnRef::new(idx, c)));
                    (Step::IndexScan(idx), class)
                }
            };
            let e = FullEntry {
                plan: plans.push(step),
                cost: model.access_cost(path, idx),
                pages: model.base_pages(idx),
                class,
                order: self.order(class),
            };
            insert_full_class(model, plans, &mut entries, e, |e| e.class);
        }
        self.kept
            .extend(entries.iter().map(|e| (e.plan, (e.cost, e.order))));
        entries
    }

    fn combine(
        &mut self,
        model: &CostModel<'_>,
        plans: &PlanArena,
        ctx: &JoinContext,
        outer: &[FullEntry],
        inner: &[FullEntry],
        stats: &mut SearchStats,
    ) {
        let q = model.query();
        let split = model.split(ctx.left, ctx.right);
        let crossing = q.joins_crossing(ctx.left, ctx.right);
        let merge = crossing
            .first()
            .map(|&p| self.classes.canonical(q.joins[p].left));
        for oe in outer {
            for ie in inner {
                let pages = split.pages(oe.pages, ie.pages);
                for method in JoinMethod::ALL {
                    stats.candidates += 1;
                    let join_cost = self
                        .coster
                        .join_cost(model, ctx, method, oe.pages, ie.pages);
                    let class = match method {
                        JoinMethod::SortMerge => merge,
                        JoinMethod::PageNestedLoop => oe.class,
                        JoinMethod::GraceHash | JoinMethod::BlockNestedLoop => None,
                    };
                    let joined = Joined {
                        cost: oe.cost + ie.cost + join_cost,
                        order: self.order(class),
                        size: (pages, class),
                        method,
                        outer: oe.plan,
                        inner: ie.plan,
                    };
                    insert_full_class(model, plans, &mut self.pending, joined, |j| j.size.1);
                }
            }
        }
    }

    fn build(&mut self, plans: &mut PlanArena, into: &mut Vec<FullEntry>) {
        let start = into.len();
        into.extend(self.pending.drain(..).map(|j| FullEntry {
            plan: plans.push(Step::Join(j.method, j.outer, j.inner)),
            cost: j.cost,
            pages: j.size.0,
            class: j.size.1,
            order: j.order,
        }));
        let built = into[start..].iter();
        self.kept.extend(built.map(|e| (e.plan, (e.cost, e.order))));
    }

    /// Sort every root off the required class, then rank the roots by
    /// (cost, shape).
    fn finalize(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        entries: Vec<FullEntry>,
        _stats: &mut SearchStats,
    ) -> Vec<FullEntry> {
        let sort_phase = model.query().n_tables() - 1;
        let mut roots: Vec<FullEntry> = entries
            .into_iter()
            .map(|e| match model.query().required_order {
                Some(want) if e.class != self.required => FullEntry {
                    plan: plans.push(Step::Sort(e.plan, want)),
                    cost: e.cost + self.coster.sort_cost(model, sort_phase, e.pages),
                    class: self.required,
                    order: OrderProperty::Required,
                    ..e
                },
                _ => e,
            })
            .collect();
        roots.sort_by(|a, b| {
            a.cost
                .total_cmp(&b.cost)
                .then_with(|| a.shape_cmp(model, plans, b))
        });
        roots
    }
}

/// The collapsed keep-best, its entries' costs and orders recorded by
/// subset.
struct Recorded {
    policy: KeepBestPolicy<MemoryCoster>,
    /// The subset the splits being combined build.
    building: TableSet,
    nodes: HashMap<TableSet, Vec<(f64, OrderProperty)>>,
}

impl Recorded {
    fn record(&mut self, set: TableSet, entries: &[DpEntry]) {
        let kept = entries.iter().map(|e| (e.cost, e.order));
        self.nodes.entry(set).or_default().extend(kept);
    }
}

impl CandidatePolicy for Recorded {
    type Entry = DpEntry;

    fn access_entries(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        idx: usize,
    ) -> Vec<DpEntry> {
        let entries = self.policy.access_entries(model, plans, idx);
        self.record(TableSet::singleton(idx), &entries);
        entries
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
        self.building = ctx.left.union(ctx.right);
        self.policy.combine(model, plans, ctx, outer, inner, stats);
    }

    fn build(&mut self, plans: &mut PlanArena, into: &mut Vec<DpEntry>) {
        let start = into.len();
        self.policy.build(plans, into);
        self.record(self.building, &into[start..]);
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

/// Does the reference plan rooted at `id` extend an entry, not sorted as
/// required, that the collapsed search dropped for a strictly cheaper one
/// of its class?
fn extends_a_strictly_dominated_entry(
    reference: &FullClassKeepBest,
    plans: &PlanArena,
    collapsed: &HashMap<TableSet, Vec<(f64, OrderProperty)>>,
    id: PlanId,
) -> bool {
    let inputs = match plans.step(id) {
        Step::Sort(input, _) => {
            return extends_a_strictly_dominated_entry(reference, plans, collapsed, input)
        }
        Step::Join(_, outer, inner) => vec![outer, inner],
        Step::SeqScan(_) | Step::IndexScan(_) => vec![],
    };
    let (cost, order) = reference.kept[&id];
    let set = plans.node(id).tables();
    let cheaper = |&(c, o): &(f64, OrderProperty)| !o.is_required() && c < cost;
    (!order.is_required() && collapsed[&set].iter().any(cheaper))
        || inputs
            .into_iter()
            .any(|i| extends_a_strictly_dominated_entry(reference, plans, collapsed, i))
}

const TOPOLOGIES: [Topology; 4] = [
    Topology::Chain,
    Topology::Star,
    Topology::Random,
    Topology::Clique,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// LSC at the mean, Algorithm C and the bushy extension against the
    /// full-class reference on random 4–8-table queries of every topology,
    /// half of them with a required order on a join column and half
    /// without one.
    #[test]
    fn the_collapsed_search_answers_as_the_full_class_one(
        seed in 0u64..1_000_000,
        n in 4usize..9,
        topology in 0usize..4,
        sel_buckets in 1usize..4,
        ordered in 0usize..2,
    ) {
        let mut tables = CatalogGenerator::new(seed);
        let catalog = tables.generate(n + 4);
        let ids = tables.pick_tables(&catalog, n);
        let profile = QueryProfile {
            topology: TOPOLOGIES[topology],
            sel_buckets,
            p_filter: 0.5,
            p_required_order: 0.0,
            ..Default::default()
        };
        let mut query = WorkloadGenerator::new(seed ^ 0x0DE5).gen_query(&catalog, &ids, &profile);
        if ordered == 1 {
            let join = &query.joins[seed as usize % query.joins.len()];
            query.required_order = Some(if seed % 2 == 0 { join.left } else { join.right });
        }
        let model = CostModel::new(&catalog, &query);
        let memory: Distribution = lec_prob::presets::spread_family(500.0, 0.6, 4).unwrap();
        let runs = [
            (Mode::Lsc(PointEstimate::Mean), MemoryCoster::point(memory.mean()), PlanShape::LeftDeep),
            (Mode::AlgorithmC, MemoryCoster::fixed(&memory), PlanShape::LeftDeep),
            (Mode::Bushy, MemoryCoster::fixed(&memory), PlanShape::Bushy),
        ];
        for (mode, coster, shape) in runs {
            let got = lec_core::optimize(&model, &memory, &mode).unwrap();
            let mut reference = FullClassKeepBest::new(&catalog, &model, coster.clone());
            let run = run_search_with(&model, shape, &mut reference).unwrap();
            let want = run.best();
            let want_plan = run.plans.node(want.plan);
            prop_assert_eq!(
                got.cost.to_bits(),
                want.cost.to_bits(),
                "{}: {} vs the reference's {}",
                mode.name(),
                got.plan.compact(),
                want_plan.compact()
            );
            if shape == PlanShape::Bushy || got.plan == want_plan {
                continue;
            }
            let mut collapsed = Recorded {
                policy: KeepBestPolicy::new(coster),
                building: TableSet::EMPTY,
                nodes: HashMap::new(),
            };
            run_search_with(&model, shape, &mut collapsed).unwrap();
            prop_assert!(
                extends_a_strictly_dominated_entry(&reference, &run.plans, &collapsed.nodes, want.plan),
                "{}: {} vs the reference's {}, both at {:#018x}",
                mode.name(),
                got.plan.compact(),
                want_plan.compact(),
                want.cost.to_bits()
            );
        }
    }
}

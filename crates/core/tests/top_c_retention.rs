//! Algorithm B's top-`c` insert ([`insert_top_c`]: sorted runs, binary
//! search, lazy plan construction) keeps exactly the entries the original
//! scan-for-worst rule kept.  That rule is kept here as the reference.

use lec_core::fixtures::three_chain;
use lec_core::search::{insert_top_c, plan_shape_cmp, DpEntry};
use lec_cost::CostModel;
use lec_plan::{ColumnRef, JoinMethod, OrderProperty, PlanNode};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::sync::Arc;

/// The rule `insert_top_c` replaced, verbatim: per order, scan for the
/// worst entry under (cost, shape), the last found among equal-rank worsts;
/// a full list rejects an equal-rank newcomer and otherwise evicts that
/// worst; survivors keep arrival order.
fn reference_insert(model: &CostModel<'_>, c: usize, entries: &mut Vec<DpEntry>, e: DpEntry) {
    let rank = |a: &DpEntry, b: &DpEntry| {
        a.cost
            .total_cmp(&b.cost)
            .then_with(|| plan_shape_cmp(model, &a.plan, &b.plan))
    };
    let mut same = 0usize;
    let mut worst: Option<usize> = None;
    for (i, f) in entries.iter().enumerate() {
        if f.order != e.order {
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

/// Plans whose shapes tie and differ in every way `plan_shape_cmp` looks
/// at: scan kind, table, join method, operands.
fn plan_pool() -> Vec<PlanNode> {
    let scan = |t| Arc::new(PlanNode::SeqScan { table: t });
    let join = |method, o, i| PlanNode::Join {
        method,
        outer: scan(o),
        inner: scan(i),
    };
    vec![
        PlanNode::SeqScan { table: 0 },
        PlanNode::SeqScan { table: 2 },
        PlanNode::IndexScan { table: 1 },
        join(JoinMethod::GraceHash, 0, 1),
        join(JoinMethod::GraceHash, 1, 0),
        join(JoinMethod::SortMerge, 0, 1),
        join(JoinMethod::PageNestedLoop, 1, 2),
    ]
}

const COSTS: [f64; 4] = [1.0, 2.0, 3.0, 5.0];
const CS: [usize; 4] = [1, 2, 3, 5];

fn order(i: usize) -> OrderProperty {
    match i {
        0 => OrderProperty::None,
        1 => OrderProperty::Sorted(ColumnRef::new(0, 0)),
        _ => OrderProperty::Sorted(ColumnRef::new(1, 1)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Random candidate streams with frequent exact ties (four cost values,
    /// repeated plans): every order's run holds the reference survivors,
    /// plan for plan (the same allocation, not merely an equal plan), in
    /// (cost, shape) order; and a full run never builds a candidate that
    /// costs more than its worst.
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
        let (mut fast, mut reference): (Vec<DpEntry>, Vec<DpEntry>) = (Vec::new(), Vec::new());
        for (k, o, p) in stream {
            let e = DpEntry {
                plan: Arc::new(pool[p].clone()),
                cost: COSTS[k],
                pages: 10.0,
                order: order(o % n_orders),
            };
            let run: Vec<&DpEntry> = fast.iter().filter(|f| f.order == e.order).collect();
            let must_skip = run.len() >= c && run.last().is_some_and(|w| w.cost < e.cost);
            let mut built = false;
            insert_top_c(&model, &mut fast, c, e.cost, e.order, || {
                built = true;
                e.clone()
            });
            prop_assert!(!(must_skip && built), "built a candidate a full run rejects on cost");
            reference_insert(&model, c, &mut reference, e);
        }
        let rank = |a: &DpEntry, b: &DpEntry| {
            a.cost
                .total_cmp(&b.cost)
                .then_with(|| plan_shape_cmp(&model, &a.plan, &b.plan))
        };
        prop_assert!(fast.is_sorted_by(|a, b| {
            a.order.cmp(&b.order).then_with(|| rank(a, b)) != Ordering::Greater
        }));
        for o in 0..n_orders {
            let mut want: Vec<&DpEntry> = reference.iter().filter(|e| e.order == order(o)).collect();
            want.sort_by(|a, b| rank(a, b));
            let got: Vec<&DpEntry> = fast.iter().filter(|e| e.order == order(o)).collect();
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert!(Arc::ptr_eq(&g.plan, &w.plan), "{} vs {}", g.plan.compact(), w.plan.compact());
            }
        }
        prop_assert_eq!(fast.len(), reference.len());
    }
}

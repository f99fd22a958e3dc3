//! The plan replay's bits, pinned: `expected_plan_cost_static`, the
//! dynamic `Objective::replay` and `plan_cost_at` on a left-deep plan, a bushy join whose outer is a
//! leaf and whose inner is a join, a sort over a leaf and lone accesses,
//! as `to_bits` literals.  Any change to how the replay walks a plan must
//! leave every one of these bits where it is.

use lec_catalog::{Catalog, ColumnStats, IndexKind, TableStats};
use lec_cost::{expected_plan_cost_static, plan_cost_at, CostModel, Objective};
use lec_plan::{ColumnRef, JoinMethod, JoinPredicate, PlanNode, Query, QueryTable};
use lec_prob::{Distribution, MarkovChain};

/// A 4-table chain `R0 – R1 – R2 – R3` joined on columns 0 and 1, with
/// clustered (R1) and unclustered (R2) indexes on a filtered column 2.
fn chain() -> (Catalog, Query) {
    let mut cat = Catalog::new();
    let columns = |index| {
        vec![
            ColumnStats::plain("a", 500),
            ColumnStats::plain("b", 800),
            ColumnStats::indexed("f", 100, index),
        ]
    };
    let sizes = [
        (12_000, 600_000),
        (3_500, 140_000),
        (800, 48_000),
        (25_000, 900_000),
    ];
    let kinds = [
        IndexKind::None,
        IndexKind::Clustered,
        IndexKind::Unclustered,
        IndexKind::None,
    ];
    let ids: Vec<_> = sizes
        .iter()
        .zip(kinds)
        .enumerate()
        .map(|(i, (&(pages, rows), kind))| {
            cat.add_table(format!("R{i}"), TableStats::new(pages, rows, columns(kind)))
        })
        .collect();
    let query = Query {
        tables: vec![
            QueryTable::bare(ids[0]),
            QueryTable::filtered(ids[1], 2, Distribution::point(0.2)),
            QueryTable::filtered(ids[2], 2, Distribution::point(0.05)),
            QueryTable::bare(ids[3]),
        ],
        joins: vec![
            JoinPredicate::exact(ColumnRef::new(0, 0), ColumnRef::new(1, 0), 2e-3),
            JoinPredicate::exact(ColumnRef::new(1, 1), ColumnRef::new(2, 0), 1.25e-3),
            JoinPredicate::exact(ColumnRef::new(2, 1), ColumnRef::new(3, 0), 1e-3),
        ],
        required_order: Some(ColumnRef::new(0, 0)),
    };
    (cat, query)
}

fn plans() -> Vec<PlanNode> {
    use JoinMethod::*;
    vec![
        // Left-deep: ((R0 ⋈ IxR1) ⋈ R2) ⋈ R3 under a root sort.
        PlanNode::sort(
            PlanNode::join(
                GraceHash,
                PlanNode::join(
                    PageNestedLoop,
                    PlanNode::join(SortMerge, PlanNode::seq_scan(0), PlanNode::index_scan(1)),
                    PlanNode::seq_scan(2),
                ),
                PlanNode::seq_scan(3),
            ),
            ColumnRef::new(0, 0),
        ),
        // Bushy: a leaf outer over a join inner.
        PlanNode::join(
            SortMerge,
            PlanNode::seq_scan(0),
            PlanNode::join(
                BlockNestedLoop,
                PlanNode::index_scan(1),
                PlanNode::index_scan(2),
            ),
        ),
        // Sort over a leaf.
        PlanNode::sort(PlanNode::index_scan(1), ColumnRef::new(1, 2)),
        // Lone accesses.
        PlanNode::seq_scan(3),
        PlanNode::index_scan(2),
    ]
}

/// Per plan: static expectation, dynamic expectation, then `plan_cost_at`
/// at each of [`POINTS`].
fn replay_bits() -> Vec<[u64; 2 + POINTS.len()]> {
    let (cat, q) = chain();
    let model = CostModel::new(&cat, &q);
    let states = vec![5.0, 40.0, 150.0, 900.0];
    let memory =
        Distribution::from_pairs([(5.0, 0.1), (40.0, 0.3), (150.0, 0.4), (900.0, 0.2)]).unwrap();
    let chain = MarkovChain::birth_death(states, 0.3, 0.2).unwrap();
    let dynamic = Objective::Dynamic {
        initial: memory.clone(),
        chain,
    };
    plans()
        .iter()
        .map(|plan| {
            let mut row = [0u64; 2 + POINTS.len()];
            row[0] = expected_plan_cost_static(&model, plan, &memory).to_bits();
            row[1] = dynamic.replay(&model, plan).to_bits();
            for (k, &m) in POINTS.iter().enumerate() {
                row[2 + k] = plan_cost_at(&model, plan, m).to_bits();
            }
            row
        })
        .collect()
}

const POINTS: [f64; 4] = [3.0, 17.0, 150.0, 1e6];

const PINNED: [[u64; 2 + POINTS.len()]; 5] = [
    [
        0x411f058800000000,
        0x41217fee28f5c28f,
        0x4130de9600000000,
        0x413014b600000000,
        0x4107db7000000000,
        0x4102baf000000000,
    ],
    [
        0x40e9f8e000000000,
        0x40eb800333333333,
        0x40fc54c000000000,
        0x40f5f44000000000,
        0x40e3950000000000,
        0x40e3810000000000,
    ],
    [
        0x40a6040000000000,
        0x40a6040000000000,
        0x40b5f20000000000,
        0x40b07a0000000000,
        0x40a6040000000000,
        0x4096280000000000,
    ],
    [
        0x40d86a0000000000,
        0x40d86a0000000000,
        0x40d86a0000000000,
        0x40d86a0000000000,
        0x40d86a0000000000,
        0x40d86a0000000000,
    ],
    [
        0x40a2e00000000000,
        0x40a2e00000000000,
        0x40a2e00000000000,
        0x40a2e00000000000,
        0x40a2e00000000000,
        0x40a2e00000000000,
    ],
];

#[test]
fn replay_bits_are_pinned() {
    let got = replay_bits();
    for row in &got {
        println!("{row:#018x?},");
    }
    for (i, row) in got.iter().enumerate() {
        assert_eq!(row, &PINNED[i], "plan {i}: {}", plans()[i].compact());
    }
}

/// `plan_node_costs`' labels and phase indices: accesses carry none, and
/// each sort or join takes the next phase in postorder.
#[test]
fn node_phases_are_pinned() {
    let (cat, q) = chain();
    let model = CostModel::new(&cat, &q);
    let pinned: [&[(&str, Option<usize>)]; 5] = [
        &[
            ("R0", None),
            ("IxR1", None),
            ("SM", Some(0)),
            ("R2", None),
            ("NL", Some(1)),
            ("R3", None),
            ("GH", Some(2)),
            ("Sort", Some(3)),
        ],
        &[
            ("R0", None),
            ("IxR1", None),
            ("IxR2", None),
            ("BNL", Some(0)),
            ("SM", Some(1)),
        ],
        &[("IxR1", None), ("Sort", Some(0))],
        &[("R3", None)],
        &[("IxR2", None)],
    ];
    for (plan, want) in plans().iter().zip(pinned) {
        let got: Vec<(String, Option<usize>)> = lec_cost::plan_node_costs(&model, plan)
            .into_iter()
            .map(|n| (n.label, n.phase))
            .collect();
        let want: Vec<(String, Option<usize>)> =
            want.iter().map(|&(l, p)| (l.to_string(), p)).collect();
        assert_eq!(got, want, "{}", plan.compact());
    }
}

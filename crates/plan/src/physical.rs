//! Physical evaluation plans.
//!
//! Plans are binary operator trees whose nodes are *shared*: a node holds
//! its children behind [`Arc`], so a plan is a dag in memory and a tree in
//! meaning.  The optimizer's left-deep construction is System R's (§2.2: "a
//! three-relation join evaluation plan involves the combination of a
//! two-relation join result and a stored relation") — a DP table entry
//! *points at* the subplan it extends.  With `Arc` children that is literal:
//! building a join candidate from two table entries clones two pointers, not
//! two subtrees, and the whole DP table holds one node per retained
//! candidate instead of one subtree copy per level above it.  The shape is
//! still a general binary tree (bushy plans, sorts anywhere), so the
//! executor and cost model need no special cases.
//!
//! Sharing is invisible to readers: children deref to `&PlanNode`, equality
//! is by value (a relabeled copy of a plan compares equal to a freshly
//! built one), and nodes are immutable once built.  Depth is bounded by
//! [`TableSet::MAX_TABLES`], so the recursive `Drop`/`PartialEq` are safe.

use crate::query::ColumnRef;
use crate::tableset::TableSet;
use std::fmt;
use std::sync::Arc;

/// The binary join algorithms of the cost model.
///
/// `SortMerge`, `GraceHash` and `PageNestedLoop` carry the paper's cost
/// formulas (§3.6.1, Example 1.1, §3.6.2); `BlockNestedLoop` is the
/// standard refinement of page nested-loop mentioned as the realistic
/// variant in \[Sha86\] and serves as an ablation of formula granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum JoinMethod {
    /// Sort both inputs, merge.  Output sorted on the join column.
    SortMerge,
    /// Grace hash join \[Sha86\].  Output unordered.
    GraceHash,
    /// Naive page nested-loop.  Preserves outer order.
    PageNestedLoop,
    /// Block nested-loop with `M-2` buffer blocks.  Output unordered.
    BlockNestedLoop,
}

impl JoinMethod {
    /// All methods, for enumeration loops.
    pub const ALL: [JoinMethod; 4] = [
        JoinMethod::SortMerge,
        JoinMethod::GraceHash,
        JoinMethod::PageNestedLoop,
        JoinMethod::BlockNestedLoop,
    ];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            JoinMethod::SortMerge => "SM",
            JoinMethod::GraceHash => "GH",
            JoinMethod::PageNestedLoop => "NL",
            JoinMethod::BlockNestedLoop => "BNL",
        }
    }
}

impl fmt::Display for JoinMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A physical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Sequential (heap) scan of a base table, applying its local filter.
    SeqScan {
        /// Query-local table index.
        table: usize,
    },
    /// Index scan of a base table through the index matching its filter.
    IndexScan {
        /// Query-local table index.
        table: usize,
    },
    /// Explicit sort enforcer.
    Sort {
        /// Input plan.
        input: Arc<PlanNode>,
        /// Sort key (canonical form is up to the caller).
        key: ColumnRef,
    },
    /// Binary join.
    Join {
        /// Algorithm.
        method: JoinMethod,
        /// Outer (left) input — in left-deep plans, the composite.
        outer: Arc<PlanNode>,
        /// Inner (right) input — in left-deep plans, a base access.
        inner: Arc<PlanNode>,
    },
}

impl PlanNode {
    /// Convenience constructor for a join.
    pub fn join(method: JoinMethod, outer: PlanNode, inner: PlanNode) -> PlanNode {
        PlanNode::Join {
            method,
            outer: Arc::new(outer),
            inner: Arc::new(inner),
        }
    }

    /// Convenience constructor for a sort.
    pub fn sort(input: PlanNode, key: ColumnRef) -> PlanNode {
        PlanNode::Sort {
            input: Arc::new(input),
            key,
        }
    }

    /// Set of base tables referenced by the plan.
    pub fn tables(&self) -> TableSet {
        match self {
            PlanNode::SeqScan { table } | PlanNode::IndexScan { table } => {
                TableSet::singleton(*table)
            }
            PlanNode::Sort { input, .. } => input.tables(),
            PlanNode::Join { outer, inner, .. } => outer.tables().union(inner.tables()),
        }
    }

    /// Number of join operators in the plan.
    pub fn n_joins(&self) -> usize {
        match self {
            PlanNode::SeqScan { .. } | PlanNode::IndexScan { .. } => 0,
            PlanNode::Sort { input, .. } => input.n_joins(),
            PlanNode::Join { outer, inner, .. } => 1 + outer.n_joins() + inner.n_joins(),
        }
    }

    /// Number of execution *phases* in the paper's §3.5 sense: one per join
    /// plus one per explicit sort (a sort is a blocking pass of its own).
    pub fn n_phases(&self) -> usize {
        match self {
            PlanNode::SeqScan { .. } | PlanNode::IndexScan { .. } => 0,
            PlanNode::Sort { input, .. } => 1 + input.n_phases(),
            PlanNode::Join { outer, inner, .. } => 1 + outer.n_phases() + inner.n_phases(),
        }
    }

    /// True when the plan is left-deep: every join's inner child is a base
    /// access (possibly wrapped in the System R sense — we do not place
    /// sorts below joins, so no wrapper appears on the inner side).
    pub fn is_left_deep(&self) -> bool {
        match self {
            PlanNode::SeqScan { .. } | PlanNode::IndexScan { .. } => true,
            PlanNode::Sort { input, .. } => input.is_left_deep(),
            PlanNode::Join { outer, inner, .. } => {
                matches!(
                    **inner,
                    PlanNode::SeqScan { .. } | PlanNode::IndexScan { .. }
                ) && outer.is_left_deep()
            }
        }
    }

    /// The left-deep join order: base-table indices from the innermost
    /// (first-joined) outward.  Sort nodes are transparent.
    ///
    /// # Panics
    /// Panics when the plan is not left-deep.
    pub fn join_order(&self) -> Vec<usize> {
        match self {
            PlanNode::SeqScan { table } | PlanNode::IndexScan { table } => vec![*table],
            PlanNode::Sort { input, .. } => input.join_order(),
            PlanNode::Join { outer, inner, .. } => {
                let mut order = outer.join_order();
                match &**inner {
                    PlanNode::SeqScan { table } | PlanNode::IndexScan { table } => {
                        order.push(*table)
                    }
                    _ => panic!("join_order on non-left-deep plan"),
                }
                order
            }
        }
    }

    /// Count joins per method, for experiment reporting.
    pub fn method_histogram(&self) -> [usize; 4] {
        let mut h = [0usize; 4];
        self.visit(&mut |node| {
            if let PlanNode::Join { method, .. } = node {
                let idx = JoinMethod::ALL
                    .iter()
                    .position(|m| m == method)
                    .expect("known method");
                h[idx] += 1;
            }
        });
        h
    }

    /// The plan with every query-local table index `i` replaced by
    /// `map[i]` (sort keys included).  This is the relabeling step of
    /// cross-query plan caching: a plan optimized for one query is carried
    /// into the table numbering of an isomorphic query.
    ///
    /// # Panics
    /// Panics when the plan references a table index outside `map`.
    pub fn relabel_tables(&self, map: &[usize]) -> PlanNode {
        match self {
            PlanNode::SeqScan { table } => PlanNode::SeqScan { table: map[*table] },
            PlanNode::IndexScan { table } => PlanNode::IndexScan { table: map[*table] },
            PlanNode::Sort { input, key } => PlanNode::Sort {
                input: Arc::new(input.relabel_tables(map)),
                key: ColumnRef::new(map[key.table], key.column),
            },
            PlanNode::Join {
                method,
                outer,
                inner,
            } => PlanNode::Join {
                method: *method,
                outer: Arc::new(outer.relabel_tables(map)),
                inner: Arc::new(inner.relabel_tables(map)),
            },
        }
    }

    /// Pre-order visit of every node.
    pub fn visit(&self, f: &mut impl FnMut(&PlanNode)) {
        f(self);
        match self {
            PlanNode::SeqScan { .. } | PlanNode::IndexScan { .. } => {}
            PlanNode::Sort { input, .. } => input.visit(f),
            PlanNode::Join { outer, inner, .. } => {
                outer.visit(f);
                inner.visit(f);
            }
        }
    }

    /// One-line summary, e.g. `Sort(SM(NL(R0,R1),R2))`.
    pub fn compact(&self) -> String {
        match self {
            PlanNode::SeqScan { table } => format!("R{table}"),
            PlanNode::IndexScan { table } => format!("IxR{table}"),
            PlanNode::Sort { input, .. } => format!("Sort({})", input.compact()),
            PlanNode::Join {
                method,
                outer,
                inner,
            } => {
                format!("{}({},{})", method.name(), outer.compact(), inner.compact())
            }
        }
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = "  ".repeat(depth);
        match self {
            PlanNode::SeqScan { table } => writeln!(f, "{pad}SeqScan  table={table}"),
            PlanNode::IndexScan { table } => writeln!(f, "{pad}IndexScan table={table}"),
            PlanNode::Sort { input, key } => {
                writeln!(f, "{pad}Sort key={key}")?;
                input.fmt_indented(f, depth + 1)
            }
            PlanNode::Join {
                method,
                outer,
                inner,
            } => {
                writeln!(f, "{pad}Join [{method}]")?;
                outer.fmt_indented(f, depth + 1)?;
                inner.fmt_indented(f, depth + 1)
            }
        }
    }
}

impl fmt::Display for PlanNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn left_deep_3() -> PlanNode {
        PlanNode::join(
            JoinMethod::SortMerge,
            PlanNode::join(
                JoinMethod::PageNestedLoop,
                PlanNode::SeqScan { table: 0 },
                PlanNode::SeqScan { table: 1 },
            ),
            PlanNode::IndexScan { table: 2 },
        )
    }

    #[test]
    fn tables_and_join_counts() {
        let p = left_deep_3();
        assert_eq!(p.tables(), TableSet::from_indices([0, 1, 2]));
        assert_eq!(p.n_joins(), 2);
        assert_eq!(p.n_phases(), 2);
        let sorted = PlanNode::sort(p, ColumnRef::new(0, 0));
        assert_eq!(sorted.n_joins(), 2);
        assert_eq!(sorted.n_phases(), 3);
    }

    #[test]
    fn left_deep_recognition() {
        let p = left_deep_3();
        assert!(p.is_left_deep());
        assert_eq!(p.join_order(), vec![0, 1, 2]);
        let bushy = PlanNode::join(
            JoinMethod::GraceHash,
            PlanNode::SeqScan { table: 0 },
            PlanNode::join(
                JoinMethod::GraceHash,
                PlanNode::SeqScan { table: 1 },
                PlanNode::SeqScan { table: 2 },
            ),
        );
        assert!(!bushy.is_left_deep());
    }

    #[test]
    fn method_histogram_counts() {
        let p = left_deep_3();
        let h = p.method_histogram();
        assert_eq!(h, [1, 0, 1, 0]); // one SM, one NL
    }

    #[test]
    fn compact_rendering() {
        let p = PlanNode::sort(left_deep_3(), ColumnRef::new(0, 0));
        assert_eq!(p.compact(), "Sort(SM(NL(R0,R1),IxR2))");
    }

    #[test]
    fn display_is_indented() {
        let p = left_deep_3();
        let s = p.to_string();
        assert!(s.contains("Join [SM]"));
        assert!(s.contains("  Join [NL]"));
        assert!(s.contains("    SeqScan  table=0"));
    }

    #[test]
    fn relabeling_maps_scans_and_sort_keys() {
        let p = PlanNode::sort(left_deep_3(), ColumnRef::new(2, 1));
        let map = [1usize, 2, 0];
        let r = p.relabel_tables(&map);
        assert_eq!(r.tables(), TableSet::from_indices([0, 1, 2]));
        assert_eq!(r.compact(), "Sort(SM(NL(R1,R2),IxR0))");
        match &r {
            PlanNode::Sort { key, .. } => assert_eq!(*key, ColumnRef::new(0, 1)),
            _ => panic!("sort survives relabeling"),
        }
        // Identity map is a no-op.
        assert_eq!(p.relabel_tables(&[0, 1, 2]), p);
    }

    #[test]
    fn visit_sees_all_nodes() {
        let mut count = 0;
        left_deep_3().visit(&mut |_| count += 1);
        assert_eq!(count, 5);
    }

    /// A left-deep plan over tables `0..=depth`, built the way the DP
    /// builds one: each level's node points at the level below.  Returns
    /// every level's node ("the DP table") and the root.
    fn left_deep(depth: usize) -> (Vec<Arc<PlanNode>>, PlanNode) {
        let mut levels = vec![Arc::new(PlanNode::SeqScan { table: 0 })];
        for t in 1..depth {
            let below = Arc::clone(levels.last().unwrap());
            levels.push(Arc::new(PlanNode::Join {
                method: JoinMethod::ALL[t % 4],
                outer: below,
                inner: Arc::new(PlanNode::SeqScan { table: t }),
            }));
        }
        let root = PlanNode::Join {
            method: JoinMethod::GraceHash,
            outer: Arc::clone(levels.last().unwrap()),
            inner: Arc::new(PlanNode::IndexScan { table: depth }),
        };
        (levels, root)
    }

    fn children(p: &PlanNode) -> (&Arc<PlanNode>, &Arc<PlanNode>) {
        match p {
            PlanNode::Join { outer, inner, .. } => (outer, inner),
            _ => panic!("not a join"),
        }
    }

    #[test]
    fn clone_of_a_deep_plan_is_shallow() {
        let (_levels, root) = left_deep(14);
        assert_eq!(root.n_joins(), 14);
        let copy = root.clone();
        assert_eq!(copy, root);
        let ((o1, i1), (o2, i2)) = (children(&root), children(&copy));
        assert!(Arc::ptr_eq(o1, o2) && Arc::ptr_eq(i1, i2));
    }

    #[test]
    fn separately_built_equal_trees_compare_equal_by_value() {
        let ((_, a), (_, b)) = (left_deep(14), left_deep(14));
        assert!(!Arc::ptr_eq(children(&a).0, children(&b).0));
        assert_eq!(a, b);
        let (_, shorter) = left_deep(13);
        assert_ne!(a, shorter);
    }

    #[test]
    fn relabeling_shares_no_node_with_its_source() {
        let (_levels, root) = left_deep(14);
        let before = root.compact();
        let map: Vec<usize> = (0..15).rev().collect();
        let relabeled = root.relabel_tables(&map);
        assert_eq!(root.compact(), before, "the source is untouched");
        assert_eq!(relabeled.join_order(), map);
        let mut source_nodes = Vec::new();
        root.visit(&mut |n| source_nodes.push(n as *const PlanNode));
        relabeled.visit(&mut |n| assert!(!source_nodes.contains(&(n as *const PlanNode))));
        // A cache-served plan is such a copy: equal by value to a fresh one.
        let identity: Vec<usize> = (0..15).collect();
        assert_eq!(root.relabel_tables(&identity), root);
    }

    #[test]
    fn a_returned_plan_outlives_the_table_it_was_built_from() {
        let (levels, root) = left_deep(14);
        let expected = left_deep(14).1;
        let below_root = Arc::clone(&levels[13]);
        assert!(Arc::strong_count(&below_root) >= 3); // table, root, this handle
        drop(levels);
        assert_eq!(
            Arc::strong_count(&below_root),
            2,
            "only the root and this handle remain"
        );
        assert_eq!(root, expected);
        assert_eq!(root.join_order(), (0..15).collect::<Vec<_>>());
    }
}

//! Physical evaluation plans.
//!
//! A plan is one vector of [`Step`]s in postorder — a join's outer subtree,
//! then its inner subtree, then the join; a sort's input, then the sort —
//! with the root last, each step naming its inputs by their index in the
//! same vector.  That is System R's own representation (§2.2: "a
//! three-relation join evaluation plan involves the combination of a
//! two-relation join result and a stored relation" — a DP table entry
//! *points at* the subplan it extends): the optimizer keeps every candidate
//! of a search as such steps in one per-search arena and copies out the
//! steps reachable from the root it returns.  The shape is a general binary
//! tree (bushy plans, sorts anywhere), so the executor and cost model need
//! no special cases.
//!
//! A tree has exactly one postorder, so equality of two step vectors is
//! equality of the trees (a relabeled copy of a plan compares equal to a
//! freshly built one), and every subtree is one contiguous run of steps
//! ending at its root.  Readers walk the tree through [`PlanNode::root`], a
//! borrowed [`NodeRef`] whose [`NodeRef::node`] is the operator with its
//! inputs as further `NodeRef`s; whole-plan passes (relabeling, the table
//! set, the phase count) iterate the steps.  A plan is one heap allocation
//! however many operators it holds.

use crate::query::ColumnRef;
use crate::tableset::TableSet;
use std::fmt;

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

/// One plan operator, its inputs named by `I`: in a plan's vector or a
/// search's plan arena, the indices of earlier steps of the same vector
/// (`u32`); read through [`NodeRef::node`], the inputs' own [`NodeRef`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Step<I = u32> {
    /// Sequential (heap) scan of a query table, applying its local filter.
    SeqScan(usize),
    /// Index scan of a query table through the index matching its filter.
    IndexScan(usize),
    /// Explicit sort enforcer: an input, sorted on a key (canonical form
    /// is up to the caller).
    Sort(I, ColumnRef),
    /// Binary join: the algorithm, the outer input (in left-deep plans,
    /// the composite) and the inner input (in left-deep plans, a base
    /// access).
    Join(JoinMethod, I, I),
}

impl<I> Step<I> {
    /// The step with each input `i` replaced by `f(i)`, outer before inner.
    pub fn map_inputs<J>(self, mut f: impl FnMut(I) -> J) -> Step<J> {
        match self {
            Step::SeqScan(table) => Step::SeqScan(table),
            Step::IndexScan(table) => Step::IndexScan(table),
            Step::Sort(input, key) => Step::Sort(f(input), key),
            Step::Join(method, outer, inner) => Step::Join(method, f(outer), f(inner)),
        }
    }
}

/// A physical plan: its [`Step`]s in postorder, root last.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNode {
    steps: Vec<Step>,
}

/// A borrowed subtree of a plan: the step at `at` and the steps below it.
#[derive(Debug, Clone, Copy)]
pub struct NodeRef<'a> {
    steps: &'a [Step],
    at: u32,
}

/// The first step of the subtree rooted at `at`: its leftmost leaf.
fn subtree_start(steps: &[Step], mut at: u32) -> u32 {
    loop {
        match steps[at as usize] {
            Step::SeqScan(_) | Step::IndexScan(_) => return at,
            Step::Sort(input, _) => at = input,
            Step::Join(_, outer, _) => at = outer,
        }
    }
}

fn tables_of(steps: &[Step]) -> TableSet {
    steps.iter().fold(TableSet::EMPTY, |set, step| match *step {
        Step::SeqScan(t) | Step::IndexScan(t) => set.with(t),
        Step::Sort(..) | Step::Join(..) => set,
    })
}

impl<'a> NodeRef<'a> {
    /// The operator at this node, its inputs as nodes.
    pub fn node(self) -> Step<NodeRef<'a>> {
        self.steps[self.at as usize].map_inputs(|at| NodeRef { at, ..self })
    }

    /// Set of base tables the subtree references.
    pub fn tables(self) -> TableSet {
        let start = subtree_start(self.steps, self.at) as usize;
        tables_of(&self.steps[start..=self.at as usize])
    }

    /// One-line summary, e.g. `Sort(SM(NL(R0,R1),R2))`.
    pub fn compact(self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out)
            .expect("a String takes every write");
        out
    }

    fn write_compact(self, out: &mut String) -> fmt::Result {
        use std::fmt::Write;
        match self.node() {
            Step::SeqScan(table) => write!(out, "R{table}"),
            Step::IndexScan(table) => write!(out, "IxR{table}"),
            Step::Sort(input, _) => {
                write!(out, "Sort(")?;
                input.write_compact(out)?;
                write!(out, ")")
            }
            Step::Join(method, outer, inner) => {
                write!(out, "{method}(")?;
                outer.write_compact(out)?;
                write!(out, ",")?;
                inner.write_compact(out)?;
                write!(out, ")")
            }
        }
    }

    fn fmt_indented(self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = "  ".repeat(depth);
        match self.node() {
            Step::SeqScan(table) => writeln!(f, "{pad}SeqScan  table={table}"),
            Step::IndexScan(table) => writeln!(f, "{pad}IndexScan table={table}"),
            Step::Sort(input, key) => {
                writeln!(f, "{pad}Sort key={key}")?;
                input.fmt_indented(f, depth + 1)
            }
            Step::Join(method, outer, inner) => {
                writeln!(f, "{pad}Join [{method}]")?;
                outer.fmt_indented(f, depth + 1)?;
                inner.fmt_indented(f, depth + 1)
            }
        }
    }
}

impl PlanNode {
    /// A sequential scan of query table `table`.
    pub fn seq_scan(table: usize) -> PlanNode {
        PlanNode {
            steps: vec![Step::SeqScan(table)],
        }
    }

    /// An index scan of query table `table`.
    pub fn index_scan(table: usize) -> PlanNode {
        PlanNode {
            steps: vec![Step::IndexScan(table)],
        }
    }

    /// A join of two plans.
    pub fn join(method: JoinMethod, outer: PlanNode, inner: PlanNode) -> PlanNode {
        let mut steps = outer.steps;
        let shift = steps.len() as u32;
        let shifted = inner
            .steps
            .iter()
            .map(|step| step.map_inputs(|i| i + shift));
        steps.extend(shifted);
        steps.push(Step::Join(method, shift - 1, steps.len() as u32 - 1));
        PlanNode { steps }
    }

    /// A plan sorted on `key`.
    pub fn sort(input: PlanNode, key: ColumnRef) -> PlanNode {
        let mut steps = input.steps;
        steps.push(Step::Sort(steps.len() as u32 - 1, key));
        PlanNode { steps }
    }

    /// The plan whose postorder is `steps`.
    ///
    /// # Panics
    /// Panics unless `steps` is a tree's postorder: each sort's input the
    /// step before it, each join's inner the step before it and its outer
    /// the step before the inner's subtree, and the root's subtree every
    /// step.
    pub fn from_postorder(steps: Vec<Step>) -> PlanNode {
        let postorder = !steps.is_empty()
            && steps.iter().enumerate().all(|(at, step)| match *step {
                Step::SeqScan(_) | Step::IndexScan(_) => true,
                Step::Sort(input, _) => input as usize + 1 == at,
                Step::Join(_, outer, inner) => {
                    inner as usize + 1 == at
                        && outer as usize + 1 == subtree_start(&steps, inner) as usize
                }
            })
            && subtree_start(&steps, steps.len() as u32 - 1) == 0;
        assert!(postorder, "plan steps are not a postorder: {steps:?}");
        PlanNode { steps }
    }

    /// The plan's steps in postorder, root last.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// The root operator's node.
    pub fn root(&self) -> NodeRef<'_> {
        NodeRef {
            steps: &self.steps,
            at: self.steps.len() as u32 - 1,
        }
    }

    /// Set of base tables referenced by the plan.
    pub fn tables(&self) -> TableSet {
        tables_of(&self.steps)
    }

    /// Number of execution *phases* in the paper's §3.5 sense: one per join
    /// plus one per explicit sort (a sort is a blocking pass of its own).
    pub fn n_phases(&self) -> usize {
        let phase = |step: &&Step| matches!(step, Step::Sort(..) | Step::Join(..));
        self.steps.iter().filter(phase).count()
    }

    /// True when the plan is left-deep: every join's inner input is a base
    /// access (we do not place sorts below joins, so no wrapper appears on
    /// the inner side).
    pub fn is_left_deep(&self) -> bool {
        self.steps.iter().all(|step| match *step {
            Step::Join(_, _, inner) => {
                matches!(
                    self.steps[inner as usize],
                    Step::SeqScan(_) | Step::IndexScan(_)
                )
            }
            _ => true,
        })
    }

    /// The plan with every query-local table index `i` replaced by
    /// `map[i]` (sort keys included).  This is the relabeling step of
    /// cross-query plan caching: a plan optimized for one query is carried
    /// into the table numbering of an isomorphic query.
    ///
    /// # Panics
    /// Panics when the plan references a table index outside `map`.
    pub fn relabel_tables(&self, map: &[usize]) -> PlanNode {
        let relabel = |&step: &Step| match step {
            Step::SeqScan(t) => Step::SeqScan(map[t]),
            Step::IndexScan(t) => Step::IndexScan(map[t]),
            Step::Sort(input, key) => Step::Sort(input, ColumnRef::new(map[key.table], key.column)),
            join => join,
        };
        PlanNode {
            steps: self.steps.iter().map(relabel).collect(),
        }
    }

    /// One-line summary, e.g. `Sort(SM(NL(R0,R1),R2))`.
    pub fn compact(&self) -> String {
        self.root().compact()
    }
}

impl fmt::Display for PlanNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.root().fmt_indented(f, 0)
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
                PlanNode::seq_scan(0),
                PlanNode::seq_scan(1),
            ),
            PlanNode::index_scan(2),
        )
    }

    fn bushy() -> PlanNode {
        PlanNode::join(
            JoinMethod::GraceHash,
            PlanNode::seq_scan(0),
            PlanNode::join(
                JoinMethod::GraceHash,
                PlanNode::seq_scan(1),
                PlanNode::seq_scan(2),
            ),
        )
    }

    #[test]
    fn tables_and_phase_counts() {
        let p = left_deep_3();
        assert_eq!(p.tables(), TableSet::from_indices([0, 1, 2]));
        assert_eq!(p.n_phases(), 2);
        let sorted = PlanNode::sort(p, ColumnRef::new(0, 0));
        assert_eq!(sorted.n_phases(), 3);
    }

    #[test]
    fn steps_are_a_postorder_with_the_root_last() {
        use Step::*;
        let p = PlanNode::sort(bushy(), ColumnRef::new(2, 0));
        let gh = JoinMethod::GraceHash;
        assert_eq!(
            p.steps(),
            [
                SeqScan(0),
                SeqScan(1),
                SeqScan(2),
                Join(gh, 1, 2),
                Join(gh, 0, 3),
                Sort(4, ColumnRef::new(2, 0))
            ]
        );
        assert_eq!(PlanNode::from_postorder(p.steps().to_vec()), p);
        let Step::Sort(input, _) = p.root().node() else {
            panic!("a sort at the root");
        };
        let Step::Join(_, outer, inner) = input.node() else {
            panic!("a join below it");
        };
        assert_eq!(outer.tables(), TableSet::singleton(0));
        assert_eq!(inner.tables(), TableSet::from_indices([1, 2]));
        assert_eq!(inner.compact(), "GH(R1,R2)");
    }

    #[test]
    #[should_panic(expected = "not a postorder")]
    fn a_join_whose_outer_is_not_before_its_inner_subtree_is_refused() {
        let gh = JoinMethod::GraceHash;
        let steps = vec![
            Step::SeqScan(0),
            Step::SeqScan(1),
            Step::SeqScan(2),
            Step::Join(gh, 0, 2),
            Step::Join(gh, 1, 3),
        ];
        PlanNode::from_postorder(steps);
    }

    #[test]
    fn left_deep_recognition() {
        assert!(left_deep_3().is_left_deep());
        assert!(PlanNode::sort(left_deep_3(), ColumnRef::new(0, 0)).is_left_deep());
        assert!(!bushy().is_left_deep());
    }

    #[test]
    fn compact_rendering() {
        let p = PlanNode::sort(left_deep_3(), ColumnRef::new(0, 0));
        assert_eq!(p.compact(), "Sort(SM(NL(R0,R1),IxR2))");
        assert_eq!(bushy().compact(), "GH(R0,GH(R1,R2))");
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
        match r.root().node() {
            Step::Sort(_, key) => assert_eq!(key, ColumnRef::new(0, 1)),
            _ => panic!("sort survives relabeling"),
        }
        // Identity map is a no-op.
        assert_eq!(p.relabel_tables(&[0, 1, 2]), p);
    }

    #[test]
    fn separately_built_equal_trees_compare_equal_by_value() {
        let left_deep = |depth: usize| {
            (1..=depth).fold(PlanNode::seq_scan(0), |plan, t| {
                PlanNode::join(JoinMethod::ALL[t % 4], plan, PlanNode::seq_scan(t))
            })
        };
        assert_eq!(left_deep(14), left_deep(14));
        assert_ne!(left_deep(14), left_deep(13));
        let map: Vec<usize> = (0..15).rev().collect();
        let relabeled = left_deep(14).relabel_tables(&map);
        assert_ne!(relabeled, left_deep(14));
        assert_eq!(relabeled.relabel_tables(&map), left_deep(14));
    }
}

//! Interesting orders: the one order a query can use, and the column
//! equivalence classes that decide which sorted outputs have it.
//!
//! The paper brackets interesting orders away ("this requires simple
//! extensions of the optimization algorithm, as described in \[SAC+79\] …
//! our solutions apply without change in the presence of these
//! extensions"), yet its own Example 1.1 *depends* on one: Plan 1 wins at
//! high memory precisely because sort-merge output is already ordered on
//! the join column while the hash plan must add a final sort.  The DP
//! keeps the best plan per (subset, interesting order), as \[SAC+79\] does,
//! and only the query's required order is interesting.  That is exact:
//! every join formula prices only the method, the two operand sizes and
//! memory (sort-merge always sorts both inputs), so no input order makes a
//! join cheaper, and the only consumer of an order is the root's sort.  A
//! sort on any other class survives only as a rank on exact cost ties
//! ([`OrderProperty::Incidental`]).
//!
//! Because equi-joins make their two columns equal, "sorted on A.x" and
//! "sorted on B.y" are the same physical property once `A.x = B.y` has been
//! applied.  [`ColumnEquivalences`] computes those classes with a
//! union-find over all join-predicate columns.

use crate::query::{ColumnRef, Query};
use std::collections::HashMap;

/// The order property of a plan's output, as far as its query can use it,
/// in rank order: an exact cost tie goes to the greater.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OrderProperty {
    /// No ordering.
    Unsorted,
    /// Sorted on a column class nothing consumes: unsorted to every later
    /// step but the exact-tie rank.
    Incidental,
    /// Sorted on the query's required order's class.
    Required,
}

impl OrderProperty {
    /// Does this output satisfy the query's required order?
    pub fn is_required(self) -> bool {
        self == OrderProperty::Required
    }
}

/// Union-find over query columns, seeded by the query's equi-join
/// predicates.
#[derive(Debug, Clone)]
pub struct ColumnEquivalences {
    parent: HashMap<ColumnRef, ColumnRef>,
    /// The canonical column of the required order's class, if any.
    required: Option<ColumnRef>,
}

impl ColumnEquivalences {
    /// Build the classes for a query: one `union` per join predicate.
    pub fn for_query(query: &Query) -> Self {
        let mut eq = ColumnEquivalences {
            parent: HashMap::new(),
            required: None,
        };
        for p in &query.joins {
            eq.union(p.left, p.right);
        }
        eq.required = query.required_order.map(|c| eq.find(c));
        eq
    }

    fn find(&self, c: ColumnRef) -> ColumnRef {
        let mut cur = c;
        while let Some(&p) = self.parent.get(&cur) {
            if p == cur {
                break;
            }
            cur = p;
        }
        cur
    }

    fn union(&mut self, a: ColumnRef, b: ColumnRef) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            // Deterministic representative: smaller (table, column) wins.
            let (root, child) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent.insert(child, root);
            self.parent.entry(root).or_insert(root);
        } else {
            self.parent.entry(ra).or_insert(ra);
        }
    }

    /// Canonical representative of a column's equivalence class.
    pub fn canonical(&self, c: ColumnRef) -> ColumnRef {
        self.find(c)
    }

    /// Are two columns made equal by the query's join predicates?
    pub fn same_class(&self, a: ColumnRef, b: ColumnRef) -> bool {
        self.find(a) == self.find(b)
    }

    /// The order property of an output sorted on column `c`: sorted as
    /// required when `c` is in the required order's class, incidentally
    /// sorted otherwise.
    pub fn sorted_on(&self, c: ColumnRef) -> OrderProperty {
        match self.required == Some(self.find(c)) {
            true => OrderProperty::Required,
            false => OrderProperty::Incidental,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{JoinPredicate, QueryTable};
    use lec_catalog::TableId;

    fn query_with_joins(n: usize, joins: Vec<(ColumnRef, ColumnRef)>) -> Query {
        Query {
            tables: (0..n)
                .map(|i| QueryTable::bare(TableId(i as u32)))
                .collect(),
            joins: joins
                .into_iter()
                .map(|(l, r)| JoinPredicate::exact(l, r, 1e-3))
                .collect(),
            required_order: None,
        }
    }

    #[test]
    fn join_columns_are_equivalent() {
        let q = query_with_joins(
            3,
            vec![
                (ColumnRef::new(0, 0), ColumnRef::new(1, 0)),
                (ColumnRef::new(1, 0), ColumnRef::new(2, 1)),
            ],
        );
        let eq = ColumnEquivalences::for_query(&q);
        // Transitive: 0.0 = 1.0 = 2.1
        assert!(eq.same_class(ColumnRef::new(0, 0), ColumnRef::new(2, 1)));
        assert_eq!(eq.canonical(ColumnRef::new(2, 1)), ColumnRef::new(0, 0));
        // Unrelated column is its own class.
        assert!(!eq.same_class(ColumnRef::new(0, 1), ColumnRef::new(0, 0)));
        assert_eq!(eq.canonical(ColumnRef::new(0, 1)), ColumnRef::new(0, 1));
    }

    /// `query_with_joins` with a required order.
    fn ordered_by(mut q: Query, want: ColumnRef) -> ColumnEquivalences {
        q.required_order = Some(want);
        ColumnEquivalences::for_query(&q)
    }

    #[test]
    fn order_satisfaction_uses_classes() {
        let q = query_with_joins(2, vec![(ColumnRef::new(0, 0), ColumnRef::new(1, 3))]);
        let sorted_left = |eq: ColumnEquivalences| eq.sorted_on(ColumnRef::new(0, 0));
        // Sorted on A.c0 satisfies "order by B.c3" because the join equated them.
        let by_b3 = ordered_by(q.clone(), ColumnRef::new(1, 3));
        assert_eq!(sorted_left(by_b3), OrderProperty::Required);
        let by_a0 = ordered_by(q.clone(), ColumnRef::new(0, 0));
        assert_eq!(sorted_left(by_a0), OrderProperty::Required);
        let by_b1 = ordered_by(q.clone(), ColumnRef::new(1, 1));
        assert_eq!(sorted_left(by_b1), OrderProperty::Incidental);
        assert!(!OrderProperty::Unsorted.is_required());
        // With no required order, every sorted output is incidental.
        let unordered = ColumnEquivalences::for_query(&q);
        assert_eq!(sorted_left(unordered), OrderProperty::Incidental);
    }

    #[test]
    fn sorted_on_canonicalizes_both_sides() {
        let q = query_with_joins(2, vec![(ColumnRef::new(1, 2), ColumnRef::new(0, 5))]);
        for want in [
            ColumnRef::new(1, 2),
            ColumnRef::new(0, 5),
            ColumnRef::new(0, 1),
        ] {
            let eq = ordered_by(q.clone(), want);
            assert_eq!(
                eq.sorted_on(ColumnRef::new(1, 2)),
                eq.sorted_on(ColumnRef::new(0, 5))
            );
        }
    }

    #[test]
    fn the_ranks_order_unsorted_incidental_required() {
        use OrderProperty::*;
        assert!(Unsorted < Incidental && Incidental < Required);
    }

    #[test]
    fn disjoint_classes_stay_disjoint() {
        let q = query_with_joins(
            4,
            vec![
                (ColumnRef::new(0, 0), ColumnRef::new(1, 0)),
                (ColumnRef::new(2, 0), ColumnRef::new(3, 0)),
            ],
        );
        let eq = ColumnEquivalences::for_query(&q);
        assert!(!eq.same_class(ColumnRef::new(0, 0), ColumnRef::new(2, 0)));
    }
}

//! Bitset over the tables of one query.
//!
//! The System R dag's nodes "are labeled by the subsets of {1,…,n}" (§2.2);
//! `TableSet` is that label.  Indices are query-local (0-based positions in
//! `Query::tables`), not global `TableId`s, so a `u64` comfortably covers
//! any join the exponential DP could ever enumerate.

use std::fmt;

/// A set of query-local table indices (0..64).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TableSet(u64);

impl TableSet {
    /// The empty set (the root of the paper's dag).
    pub const EMPTY: TableSet = TableSet(0);

    /// Maximum supported index.
    pub const MAX_TABLES: usize = 64;

    /// Set containing a single table.
    pub fn singleton(idx: usize) -> Self {
        assert!(idx < Self::MAX_TABLES);
        TableSet(1 << idx)
    }

    /// Set containing all of `0..n`.
    pub fn full(n: usize) -> Self {
        assert!(n <= Self::MAX_TABLES);
        if n == 64 {
            TableSet(u64::MAX)
        } else {
            TableSet((1u64 << n) - 1)
        }
    }

    /// Construct from an iterator of indices.
    pub fn from_indices(indices: impl IntoIterator<Item = usize>) -> Self {
        let mut s = TableSet::EMPTY;
        for i in indices {
            s = s.with(i);
        }
        s
    }

    /// Raw bits (useful as a dense DP index).
    pub fn bits(&self) -> u64 {
        self.0
    }

    /// Build from raw bits.
    pub fn from_bits(bits: u64) -> Self {
        TableSet(bits)
    }

    /// Number of tables in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Membership test.
    pub fn contains(&self, idx: usize) -> bool {
        idx < Self::MAX_TABLES && (self.0 >> idx) & 1 == 1
    }

    /// Set with `idx` added.
    pub fn with(&self, idx: usize) -> Self {
        assert!(idx < Self::MAX_TABLES);
        TableSet(self.0 | (1 << idx))
    }

    /// Set with `idx` removed (the paper's `S_j = S − {j}`).
    pub fn without(&self, idx: usize) -> Self {
        assert!(idx < Self::MAX_TABLES);
        TableSet(self.0 & !(1 << idx))
    }

    /// Union.
    pub fn union(&self, other: TableSet) -> Self {
        TableSet(self.0 | other.0)
    }

    /// Intersection.
    pub fn intersect(&self, other: TableSet) -> Self {
        TableSet(self.0 & other.0)
    }

    /// Iterate over member indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let idx = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(idx)
            }
        })
    }

    /// The single member of a singleton set.
    ///
    /// # Panics
    /// Panics when the set is not a singleton.
    pub fn sole_member(&self) -> usize {
        assert_eq!(self.len(), 1, "sole_member on non-singleton {self}");
        self.0.trailing_zeros() as usize
    }

    /// All subsets of `{0..n}` of cardinality `k`, in increasing bit order.
    ///
    /// This drives the per-depth phases of the DP ("the nodes at depth k are
    /// labeled by the subsets of cardinality k").
    pub fn subsets_of_size(n: usize, k: usize) -> Vec<TableSet> {
        assert!(n <= Self::MAX_TABLES);
        let mut out = Vec::new();
        if k > n {
            return out;
        }
        if k == 0 {
            out.push(TableSet::EMPTY);
            return out;
        }
        // Gosper's hack: next bit-permutation with the same popcount.
        let mut v: u64 = (1u64 << k) - 1;
        let limit: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        while v <= limit {
            out.push(TableSet(v));
            if v == 0 {
                break;
            }
            let t = v | (v - 1);
            if t == u64::MAX {
                break;
            }
            v = (t + 1) | (((!t & (t + 1)) - 1) >> (v.trailing_zeros() + 1));
        }
        out
    }
}

impl fmt::Display for TableSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, idx) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{idx}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_set_algebra() {
        let s = TableSet::from_indices([0, 2, 5]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(2));
        assert!(!s.contains(1));
        assert_eq!(s.without(2), TableSet::from_indices([0, 5]));
        assert_eq!(s.with(1).len(), 4);
        assert_eq!(
            s.union(TableSet::singleton(1)),
            TableSet::from_indices([0, 1, 2, 5])
        );
        assert_eq!(s.intersect(TableSet::from_indices([2, 5, 7])).len(), 2);
    }

    #[test]
    fn full_and_empty() {
        assert_eq!(TableSet::full(4).len(), 4);
        assert!(TableSet::EMPTY.is_empty());
        assert_eq!(TableSet::full(0), TableSet::EMPTY);
        assert_eq!(TableSet::full(64).len(), 64);
    }

    #[test]
    fn iteration_is_sorted() {
        let s = TableSet::from_indices([7, 1, 4]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 4, 7]);
    }

    #[test]
    fn sole_member_of_singleton() {
        assert_eq!(TableSet::singleton(9).sole_member(), 9);
    }

    #[test]
    #[should_panic]
    fn sole_member_panics_on_pair() {
        TableSet::from_indices([1, 2]).sole_member();
    }

    #[test]
    fn subsets_of_size_counts_binomially() {
        fn choose(n: u64, k: u64) -> u64 {
            if k > n {
                return 0;
            }
            let mut r = 1u64;
            for i in 0..k {
                r = r * (n - i) / (i + 1);
            }
            r
        }
        for n in 0..=8 {
            for k in 0..=n {
                let subs = TableSet::subsets_of_size(n, k);
                assert_eq!(subs.len() as u64, choose(n as u64, k as u64), "n={n},k={k}");
                for s in &subs {
                    assert_eq!(s.len(), k);
                    assert_eq!(s.intersect(TableSet::full(n)), *s);
                }
                // strictly increasing bit order, hence distinct
                for w in subs.windows(2) {
                    assert!(w[0].bits() < w[1].bits());
                }
            }
        }
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(TableSet::from_indices([0, 3]).to_string(), "{0,3}");
        assert_eq!(TableSet::EMPTY.to_string(), "{}");
    }
}

//! # lec-canon — canonical query shapes
//!
//! Label-free normal forms for optimization requests, consumed by the
//! serving layer's cross-query plan cache (`lec-service`).
//!
//! Two requests should share cached work exactly when the optimizer would
//! do the same computation for both, which is a statement about the
//! *shape* of the request (statistics fingerprints, filters, join
//! predicates, selectivity distributions) and never about its query-local
//! table numbering.  [`canonical_form`] computes the [`CanonicalForm`]
//! behind `lec-service`'s plan-cache keys — an *exact* encoding (every bit
//! the cost model can observe, join predicates in original vector order
//! and orientation because floating-point selectivity products fold in
//! that order) and a *weak* bucketed one (log₂ size/selectivity buckets,
//! sorted edges) for near-miss revalidation.
//!
//! Shapes whose DP tie-breaks are inherently label-dependent are refused:
//! a nontrivial exact automorphism of the body **or** a swappable twin
//! pair inside any connected induced subgraph (a third table that
//! disambiguates the twins globally never enters the symmetric subgraph's
//! dag node, so body-level asymmetry is not enough).  Shapes too large or
//! too symmetric to canonicalize cheaply ([`MAX_CANON_TABLES`],
//! [`MAX_CANDIDATE_PERMS`]) are likewise declared uncacheable rather than
//! slow.

#![forbid(unsafe_code)]

mod query;

pub use query::{
    canonical_form, CanonicalForm, RefusalReason, MAX_CANDIDATE_PERMS, MAX_CANON_TABLES,
};

/// Invert a permutation: `inv[perm[i]] = i`.
pub(crate) fn invert(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (orig, &canon) in perm.iter().enumerate() {
        inv[canon] = orig;
    }
    inv
}

/// All permutations of `items` in lexicographic order (by position).
pub(crate) fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (i, &head) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for tail in permutations(&rest) {
            let mut p = Vec::with_capacity(items.len());
            p.push(head);
            p.extend(tail);
            out.push(p);
        }
    }
    out
}

pub(crate) fn distinct(colors: &[u64]) -> usize {
    let mut sorted = colors.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

pub(crate) fn factorial(k: usize) -> u128 {
    (1..=k as u128).product()
}

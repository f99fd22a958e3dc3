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
//! behind `lec-service`'s plan-cache keys: a canonical table labeling and
//! the *exact* encoding of the relabeled query (every bit the cost model
//! can observe, join predicates in original vector order and orientation
//! because floating-point selectivity products fold in that order).
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

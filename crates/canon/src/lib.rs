//! # lec-canon — canonical query shapes
//!
//! Label-free normal forms for optimization requests, consumed by the
//! serving layer's cross-query plan cache (`lec-service`).
//!
//! Two requests should share a cached plan exactly when the DP would do
//! the same work for both — a statement about the *shape* of the request,
//! never its query-local table numbering.  [`canonical_form`] computes a
//! canonical relabeling of a query's tables (`perm[original] = canonical`)
//! and the **exact** encoding of the relabeled query: every bit the cost
//! model can observe — per-table statistics fingerprints, filters, join
//! predicates *in their original vector order and orientation*
//! (floating-point selectivity products fold in that order, so it is part
//! of the computation's identity), selectivity distributions, and the
//! required output order.  Equal exact encodings are the same computation
//! up to table renaming, so a cached plan is served by relabeling alone.
//!
//! **The labeling.**  Weisfeiler–Leman colour refinement, seeded from
//! *weak* per-table attributes (log₂ size buckets and plan-space
//! structure, folded once per stored table by the catalog) over edges
//! labeled by log₂ selectivity bucket, runs until the class count stops
//! growing or every table has a colour of its own.  Such a *discrete*
//! colouring — every request of the benchmark's warm workloads — admits
//! one labeling, the tables in colour order, whose exact encoding is
//! emitted directly: no permutation enumerated, no candidate encoding
//! built or sorted; the request costs its fingerprint folds (byte-wise
//! FNV-1a, eight dependent multiplies per word) and the form's two
//! vectors, the labeling and the key's words.  Per-join labels and the
//! half-edges refinement sorts live in stack scratch up to 66 joins (a
//! simple graph on 12 tables), and no half-edge is built when the seed
//! colouring is already discrete.  Only a
//! class of two or more tables starts a search: of all class-respecting
//! labelings, the one whose weak encoding (bucketed tables, sorted labeled
//! edges) — then exact encoding — is lexicographically least.
//!
//! **What is pinned.**  No key is built from the weak labels, but they
//! *decide the labeling*, the labeling decides the exact key's bytes, and
//! those pick the cache stripe an entry lands in and so what a per-stripe
//! LRU evicts.  Re-seeding the refinement from the exact attributes moved
//! the frozen benchmark's `mixed_churn` hit share out of the window its
//! state check accepts (0.7515 → 0.7173 on seed 2; failures on 5 of 10
//! seeds).  So the seed, every colour value, the FNV fold and the key
//! bytes (`canonical_keys.rs::exact_key_bytes_are_pinned`) stay put.
//!
//! **Refusals.**  Shapes whose DP tie-breaks are inherently
//! label-dependent are refused: a nontrivial exact automorphism of the
//! body **or** a swappable twin pair inside any connected induced subgraph
//! (a third table that disambiguates the twins globally never enters the
//! symmetric subgraph's dag node, so body-level asymmetry is not enough).
//! Shapes too large or too symmetric to label cheaply
//! ([`MAX_CANON_TABLES`], [`MAX_CANDIDATE_PERMS`]) are likewise declared
//! uncacheable rather than slow.

#![forbid(unsafe_code)]

mod query;

pub use query::{
    canonical_form, CanonicalForm, RefusalReason, MAX_CANDIDATE_PERMS, MAX_CANON_TABLES,
};

//! # lec-prob — probability substrate for LEC query optimization
//!
//! This crate provides the probability machinery assumed throughout
//! Chu, Halpern & Seshadri, *"Least Expected Cost Query Optimization: An
//! Exercise in Utility"* (PODS 1999):
//!
//! * [`Distribution`] — the bucketed discrete distributions over parameter
//!   values (§3.1–§3.2), with expectations, quantiles, independent
//!   products and the ∛-rebucketing of §3.6.3;
//! * [`MarkovChain`] — the per-phase memory evolution model of §3.5
//!   (Theorem 3.4);
//! * [`presets`] — parametric environment families used by the experiments
//!   in place of the paper's (unavailable) production observations;
//! * [`fit`] — estimators turning observed memory samples/traces into the
//!   distributions and chains above (the paper's §3.1 "how do we get the
//!   probability distributions?" answered with DBMS-style statistics).
//!
//! Everything downstream (`lec-cost`, `lec-core`, `lec-exec`) treats these
//! types as the ground truth for "what the optimizer believes about the
//! run-time environment".

#![forbid(unsafe_code)]

pub mod dist;
pub mod error;
pub mod fit;
pub mod markov;
pub mod presets;

pub use dist::{normalize_pairs, product_pairs, rebucket_pairs, Distribution, Rebucket};
pub use error::ProbError;
pub use markov::MarkovChain;

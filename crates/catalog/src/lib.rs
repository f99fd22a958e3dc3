//! # lec-catalog — table statistics and synthetic catalogs
//!
//! The System R-style optimizer of the paper consumes three families of
//! parameters (§1): data properties (this crate), query properties
//! (selectivities, attached to predicates in `lec-plan`), and run-time
//! environment properties (`lec-prob`).  This crate provides the first:
//! tables with page/row counts, column statistics, index metadata, and a
//! generator for synthetic catalogs used by the workload experiments.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod fingerprint;
pub mod stats;
pub mod synthetic;

pub use catalog::{Catalog, Table, TableId};
pub use fingerprint::{table_stats_fingerprint, Fingerprint};
pub use stats::{ColumnStats, IndexKind, TableStats};
pub use synthetic::{CatalogGenerator, CatalogProfile};

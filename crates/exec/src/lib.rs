//! # lec-exec — execution substrate for the LEC reproduction
//!
//! The paper closes by promising "a prototype ... to test its benefits
//! against realistic queries and execution environments" (§4).  This crate
//! is that prototype's execution half:
//!
//! * [`bufpool`] / [`extops`] — page-granular disk tables, each carrying
//!   its rows per page, and *real* external-memory operators that count
//!   actual page I/O under a buffer budget: [`external_sort`], and
//!   [`join`] for each of the four join methods (sort-merge, Grace hash,
//!   page nested-loop, block nested-loop).  They demonstrate that the cost
//!   cliffs driving the paper exist in a genuine implementation
//!   (experiment E11);
//! * [`datagen`] — synthetic rows whose join and filter selectivities are
//!   known by construction, so queries are executable, not just costable.
//!
//! ## Calibration: auditing predictions against ground truth
//!
//! The [`calib`] module closes the predicted-vs-measured loop.  A
//! [`calib::Calibrator`] builds a *physical twin* of a query — every
//! table scaled down to an executable size with `rows = pages·page_cap`
//! and selectivities rewritten to the page-exact values the generated
//! data induces.  [`calib::Calibrator::run`] is the one way a plan becomes
//! rows: it executes the plan through the real page-counting operators at
//! one memory value and returns its output, in a table-ordered canonical
//! form, beside each node's measured page I/O.  The same output checks
//! that every plan the optimizer can emit for a query computes the same
//! result (the §2.2 commutativity/associativity observations, made
//! executable).  Run at every memory bucket of a memory belief (a
//! [`lec_cost::Objective`]), it yields a [`calib::CostAudit`]: for each
//! plan node, its operator class and predicted cost (point per bucket,
//! and expected under the belief's per-phase marginals) beside measured
//! page I/O, dumpable as sorted-key JSON.  The audit is the caller's: no
//! served request executes a plan, so calibration data stays out of the
//! serving stack's metrics document.  [`calib::op_band`] records the
//! measured-vs-formula envelope each operator class is expected to stay
//! inside; the `calibration` bench pins per-optimizer-mode error bands in
//! `BENCH_calibration.json`.

#![forbid(unsafe_code)]

pub mod bufpool;
pub mod calib;
pub mod datagen;
pub mod extops;

pub use bufpool::{Disk, DiskTable, Io};
pub use calib::{error_bp, op_band, CalibError, Calibrator, CostAudit, Execution, NodeAudit, Twin};
pub use datagen::{generate, Dataset};
pub use extops::{external_sort, join, OpResult};

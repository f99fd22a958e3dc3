//! # lec-bench — the paper's claims as checked tests, and three benches
//!
//! Each experiment of the reproduction is one `#[test]` (E1–E11, E14,
//! E15, F1 in `exp_plans`, `exp_model` and `exp_ext`): it prints the table
//! it regenerates and asserts its verdict, on plan cost where the claim is
//! about plans, through one helper that reports expected ± margin and
//! actual.  `--nocapture` shows the tables:
//!
//! ```text
//! cargo test --release -p lec-bench -- --nocapture e9
//! cargo test --release -p lec-bench -- --ignored --nocapture e4
//! ```
//!
//! E4 and E6 are timing tables: `#[ignore]`d, they print and assert
//! nothing.  The criterion benches (`daemon_serve`, `telemetry`,
//! `calibration`) live in `benches/` and share [`workloads`],
//! [`host_cores`] and [`BENCH_SCHEMA_VERSION`].

#![forbid(unsafe_code)]

mod exp_ext;
mod exp_model;
mod exp_plans;
#[cfg(test)]
mod table;
pub mod workloads;

/// Schema version stamped into every `BENCH_*.json` record.  Bump when
/// any bench record's shape changes incompatibly, so downstream tooling
/// (CI artifact diffing, dashboards) can reject mixed-schema comparisons.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Core count of the host a bench ran on, recorded alongside results so
/// cross-host comparisons stay interpretable (parallel speedups and
/// contention numbers are meaningless without it).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The experiments' shorthand: one search on a model and belief the
/// experiment built.
#[cfg(test)]
fn search(
    model: &lec_cost::CostModel<'_>,
    memory: &lec_prob::Distribution,
    mode: lec_core::Mode,
) -> lec_core::SearchOutcome {
    lec_core::optimize(model, memory, &mode).expect("experiment workloads optimize")
}

/// Which side of `expected ± margin` a [`verdict`] accepts.
#[cfg(test)]
#[derive(Clone, Copy)]
enum Side {
    /// Within the margin on both sides.
    Both,
    /// Not below `expected - margin`.
    AtLeast,
    /// Not above `expected + margin`.
    AtMost,
}

/// The one check every experiment asserts through (lantern's
/// `is_within_error`): `actual` must sit on `side` of `expected ± margin`.
/// A failure names the quantity and prints expected ± margin and actual.
/// NaN fails every side.
#[cfg(test)]
#[track_caller]
fn verdict(what: impl std::fmt::Display, side: Side, expected: f64, margin: f64, actual: f64) {
    let (ok, tail) = match side {
        Side::Both => ((actual - expected).abs() <= margin, ""),
        Side::AtLeast => (actual >= expected - margin, " or above"),
        Side::AtMost => (actual <= expected + margin, " or below"),
    };
    assert!(
        ok,
        "{what}: expected {expected:?} ± {margin:?}{tail}, actual {actual:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::{verdict, Side};

    #[test]
    fn verdict_accepts_its_side_of_the_margin() {
        verdict("both", Side::Both, 1.0, 0.5, 1.5);
        verdict("at least", Side::AtLeast, 1.0, 0.0, 7.0);
        verdict("at most", Side::AtMost, 1.0, 0.0, -7.0);
    }

    #[test]
    #[should_panic(expected = "gap: expected 0.0 ± 0.01 or below, actual 0.02")]
    fn verdict_reports_expected_margin_and_actual() {
        verdict("gap", Side::AtMost, 0.0, 0.01, 0.02);
    }

    #[test]
    #[should_panic(expected = "actual NaN")]
    fn verdict_fails_nan() {
        verdict("nan", Side::AtLeast, 0.0, 1.0, f64::NAN);
    }
}

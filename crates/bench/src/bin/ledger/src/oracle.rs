//! The oracle every response is held against: a fresh
//! `Optimizer::optimize` of each request, computed before anything is
//! timed (this is `harness_s`, not `setup_s`).  The same pass yields the
//! bare-optimizer times behind the `core.*` per-layer metrics, and the
//! LSC side of the plan-cost ratio that states the paper's claim as a
//! number; the LEC side is the plans the server returned.

use crate::stats::geometric_mean;
use crate::workloads::{memory, Workload};
use crate::Res;
use lec_catalog::Catalog;
use lec_core::{Mode, Optimizer, PointEstimate, SearchStats};
use lec_plan::PlanNode;
use lec_service::ServeResponse;

/// What a correct response to one request carries.
pub struct Expected {
    pub plan: PlanNode,
    pub cost_bits: u64,
}

impl Expected {
    /// Byte identity: same plan (table numbering included), same cost bits.
    pub fn matches(&self, resp: &ServeResponse) -> bool {
        resp.plan == self.plan && resp.cost.to_bits() == self.cost_bits
    }
}

pub struct Oracle<'a> {
    opt: Optimizer<'a>,
    /// Per request of the block's list.
    pub expected: Vec<Expected>,
    /// Per request: wall time of the bare optimize, fastest pass.
    pub fresh_ns: Vec<u64>,
    /// Per request: the bare search's work counters.
    pub fresh_stats: Vec<SearchStats>,
    /// Per distinct request (in `first_of_each_shape` order) with a
    /// static-memory LEC mode: the expected cost of LSC(mean)'s plan.
    lsc_ec: Vec<Option<f64>>,
}

/// The paper's claim on one workload, from the plans the server served.
pub struct CostRatio {
    /// Geometric mean over the distinct static-memory LEC requests of
    /// `EC(served plan) / EC(LSC(mean) plan)`.
    pub geometric_mean: f64,
    /// Requests on which an exact mode's served plan cost more in
    /// expectation than LSC's — each one a failed operation.
    pub dominance_violations: u64,
}

impl Oracle<'_> {
    /// `served[k]` is the plan the server returned for the `k`-th
    /// distinct request of `w`.
    pub fn cost_ratio(&self, w: &Workload, served: &[PlanNode]) -> CostRatio {
        let mut ratios = Vec::new();
        let mut dominance_violations = 0;
        for ((&i, plan), lsc_ec) in w.first_of_each_shape().iter().zip(served).zip(&self.lsc_ec) {
            let Some(lsc_ec) = *lsc_ec else { continue };
            let (id, mode, query) = &w.requests[i];
            let lec_ec = self.opt.expected_cost_of(query, plan);
            ratios.push(lec_ec / lsc_ec);
            // Algorithms C and Bushy are exact, so LSC's plan — a member
            // of their search space — can never beat theirs in expectation.
            let exact = matches!(mode, Mode::AlgorithmC | Mode::Bushy);
            if exact && lec_ec > lsc_ec * (1.0 + 1e-9) {
                eprintln!("request {id}: EC(served plan) {lec_ec} > EC(LSC plan) {lsc_ec}");
                dominance_violations += 1;
            }
        }
        // The list's order is the seed's; the mean must not be, to the bit.
        ratios.sort_by(f64::total_cmp);
        CostRatio {
            geometric_mean: geometric_mean(&ratios),
            dominance_violations,
        }
    }
}

/// The optimizer the oracle runs: branch-and-bound on (answers are
/// bit-identical with it off, and the 13-to-15-table requests need it), no memo,
/// no worker pool — nothing shared between two calls.
pub fn fresh_optimizer(catalog: &Catalog) -> Optimizer<'_> {
    Optimizer::new(catalog, memory()).with_pruning(true)
}

/// Modes whose objective is expected cost under the static memory
/// belief, so their plans are comparable with LSC's under
/// `expected_cost_of`.
fn is_static_lec(mode: &Mode) -> bool {
    matches!(
        mode,
        Mode::AlgorithmA | Mode::AlgorithmB { .. } | Mode::AlgorithmC | Mode::Bushy
    )
}

/// Optimize every request afresh.  `extra_passes` re-times the distinct
/// requests (the traced run wants a best-of for `core.optimize_us`).
pub fn build(w: &Workload, extra_passes: usize) -> Res<Oracle<'_>> {
    let opt = fresh_optimizer(&w.catalog);
    let mut expected = Vec::with_capacity(w.requests.len());
    let mut fresh_ns = Vec::with_capacity(w.requests.len());
    let mut fresh_stats = Vec::with_capacity(w.requests.len());
    for (id, mode, query) in &w.requests {
        let out = opt
            .optimize(query, mode)
            .map_err(|e| format!("oracle: request {id} ({}): {e}", mode.name()))?;
        fresh_ns.push(out.stats.elapsed.as_nanos() as u64);
        fresh_stats.push(out.stats);
        expected.push(Expected {
            plan: out.plan,
            cost_bits: out.cost.to_bits(),
        });
    }
    let distinct = w.first_of_each_shape();
    for _ in 0..extra_passes {
        for &i in &distinct {
            let (_, mode, query) = &w.requests[i];
            let out = opt.optimize(query, mode).map_err(|e| e.to_string())?;
            fresh_ns[i] = fresh_ns[i].min(out.stats.elapsed.as_nanos() as u64);
        }
    }

    let lsc_ec = distinct
        .iter()
        .map(|&i| {
            let (id, mode, query) = &w.requests[i];
            if !is_static_lec(mode) {
                return Ok(None);
            }
            let lsc = opt
                .optimize(query, &Mode::Lsc(PointEstimate::Mean))
                .map_err(|e| format!("oracle: LSC of request {id}: {e}"))?;
            Ok(Some(opt.expected_cost_of(query, &lsc.plan)))
        })
        .collect::<Res<_>>()?;
    Ok(Oracle {
        opt,
        expected,
        fresh_ns,
        fresh_stats,
        lsc_ec,
    })
}

//! Experiments E1–E5: plan quality and optimizer overhead.
//!
//! [`crate::registry`] is the experiment index (`experiments list` prints
//! it); each function regenerates one quantitative claim of the paper and
//! returns a JSON summary.

use crate::search;
use crate::table::{num, pct, Table};
use crate::workloads::{batch, scaling_chain};
use lec_core::alg_a::representatives;
use lec_core::search::TopCPolicy;
use lec_core::{
    fixtures, run_search_with, FrontierStats, Mode, Optimizer, PlanShape, PointEstimate,
    SearchConfig,
};
use lec_cost::{expected_plan_cost_static, oracle, plan_cost_at, CostModel, Objective};
use lec_prob::presets;
use serde_json::{json, Value};
use std::time::Instant;

/// E1 — Example 1.1 (§1.1): the full cost table, the LSC choice at the
/// mean and mode, the LEC choice, and the expected costs.
pub fn e1() -> Value {
    println!("E1: Example 1.1 — Plan 1 (sort-merge) vs Plan 2 (Grace hash + sort)\n");
    let (catalog, query) = fixtures::example_1_1();
    let memory = fixtures::example_1_1_memory();
    let model = CostModel::new(&catalog, &query);
    let opt = Optimizer::new(&catalog, memory.clone());

    let lsc_mode = opt
        .optimize(&query, &Mode::Lsc(PointEstimate::Mode))
        .unwrap();
    let lsc_mean = opt
        .optimize(&query, &Mode::Lsc(PointEstimate::Mean))
        .unwrap();
    let lec = opt.optimize(&query, &Mode::AlgorithmC).unwrap();

    let mut t = Table::new(&["plan", "C(P,2000)", "C(P,700)", "EC(P)"]);
    let mut rows_json = Vec::new();
    for (name, plan) in [
        ("Plan1=SM(A,B)", &lsc_mode.plan),
        ("Plan2=Sort(GH(A,B))", &lec.plan),
    ] {
        let hi = plan_cost_at(&model, plan, 2000.0);
        let lo = plan_cost_at(&model, plan, 700.0);
        let ec = expected_plan_cost_static(&model, plan, &memory);
        t.row(vec![name.into(), num(hi), num(lo), num(ec)]);
        rows_json.push(json!({
            "plan": name, "cost_at_2000": hi, "cost_at_700": lo, "expected_cost": ec,
        }));
    }
    println!("{}", t.render());
    println!("LSC @ mode(2000): {}", lsc_mode.plan.compact());
    println!("LSC @ mean(1740): {}", lsc_mean.plan.compact());
    println!("LEC (Alg C):      {}", lec.plan.compact());
    let ec1 = expected_plan_cost_static(&model, &lsc_mode.plan, &memory);
    let saving = 1.0 - lec.cost / ec1;
    println!(
        "\nLEC saving over the LSC plan in expectation: {}\n",
        pct(saving)
    );
    json!({
        "experiment": "e1",
        "plans": rows_json,
        "lsc_plan": lsc_mode.plan.compact(),
        "lsc_mean_plan": lsc_mean.plan.compact(),
        "lec_plan": lec.plan.compact(),
        "lec_saving": saving,
        "paper_claim": "LSC picks Plan 1 at mean/mode; Plan 2 is cheaper on average",
        "claim_holds": fixtures::is_plan1(&lsc_mode.plan)
            && fixtures::is_plan1(&lsc_mean.plan)
            && lec.plan != lsc_mode.plan
            && saving > 0.0,
    })
}

/// E2 — §1/§1.2: "The greater the run-time variation ... the greater the
/// cost advantage of the LEC plan is likely to be."  Sweep the spread of a
/// mean-preserving memory family over random workloads.
pub fn e2() -> Value {
    println!("E2: LEC advantage vs run-time variability (mean-preserving spread)\n");
    let n_queries = 40;
    let spreads = [0.0, 0.2, 0.4, 0.6, 0.8, 0.95];
    let mut t = Table::new(&["spread", "plans differ", "mean EC gain", "max EC gain"]);
    let workloads = batch(1000, n_queries, 4, 1);
    let mut rows_json = Vec::new();
    for &spread in &spreads {
        let memory = presets::spread_family(400.0, spread, 7).unwrap();
        let mut differs = 0usize;
        let mut ec_gains = Vec::new();
        for w in &workloads {
            let model = CostModel::new(&w.catalog, &w.query);
            let lsc = search(&model, &memory, Mode::Lsc(PointEstimate::Mean));
            let lec = search(&model, &memory, Mode::AlgorithmC);
            let lsc_ec = expected_plan_cost_static(&model, &lsc.plan, &memory);
            let gain = 1.0 - lec.cost / lsc_ec;
            ec_gains.push(gain);
            differs += usize::from(lsc.plan != lec.plan);
        }
        // Clamp float dust so the spread-0 row prints exactly 0.0%.
        let mean_ec = (ec_gains.iter().sum::<f64>() / ec_gains.len() as f64).max(0.0);
        let max_ec = ec_gains.iter().cloned().fold(0.0f64, f64::max);
        t.row(vec![
            format!("{spread:.2}"),
            format!("{differs}/{n_queries}"),
            pct(mean_ec),
            pct(max_ec),
        ]);
        rows_json.push(json!({
            "spread": spread, "plans_differ": differs, "n_queries": n_queries,
            "mean_ec_gain": mean_ec, "max_ec_gain": max_ec,
        }));
    }
    println!("{}", t.render());
    println!("(spread 0 = the classical point world: LEC must equal LSC)\n");
    json!({
        "experiment": "e2", "rows": rows_json,
        "paper_claim": "LEC advantage grows with run-time variability; zero at spread 0",
    })
}

/// E3 — §3.2–§3.4: quality ladder of Algorithms A, B(c) and C, every
/// plan replayed and measured against the oracle's least expected cost.
pub fn e3() -> Value {
    println!(
        "E3: Algorithm A vs B(c) vs C plan quality against the oracle (n=4, b=6, 30 queries)\n"
    );
    let workloads = batch(2000, 30, 4, 1);
    let memory = presets::spread_family(350.0, 0.85, 6).unwrap();
    let objective = Objective::Static(memory.clone());
    let modes = [
        ("A", "A", Mode::AlgorithmA),
        ("B(c=2)", "B2", Mode::AlgorithmB { c: 2 }),
        ("B(c=4)", "B4", Mode::AlgorithmB { c: 4 }),
        ("C", "C", Mode::AlgorithmC),
    ];
    // Per mode, EC(plan) / EC(oracle) - 1 on each query.
    let mut gaps = vec![Vec::new(); modes.len()];
    for w in &workloads {
        let model = CostModel::new(&w.catalog, &w.query);
        let best = oracle::left_deep(&model, &objective).expect("experiment queries are connected");
        for ((_, _, mode), gaps) in modes.iter().zip(&mut gaps) {
            let plan = search(&model, &memory, mode.clone()).plan;
            gaps.push(objective.replay(&model, &plan) / best.cost - 1.0);
        }
    }
    let n_queries = workloads.len();
    let suboptimal = |v: &[f64]| v.iter().filter(|&&g| g > 1e-9).count();
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let min = |v: &[f64]| v.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut t = Table::new(&["algorithm", "suboptimal", "avg gap", "max gap", "min gap"]);
    let (mut sub_json, mut avg_json, mut min_json) = (Vec::new(), Vec::new(), Vec::new());
    for ((name, key, _), gaps) in modes.iter().zip(&gaps) {
        t.row(vec![
            name.to_string(),
            format!("{}/{n_queries}", suboptimal(gaps)),
            pct(avg(gaps)),
            pct(max(gaps)),
            format!("{:.1e}", min(gaps)),
        ]);
        sub_json.push((key.to_string(), json!(suboptimal(gaps))));
        avg_json.push((key.to_string(), json!(avg(gaps))));
        min_json.push((key.to_string(), json!(min(gaps))));
    }
    println!("{}", t.render());
    let c_matches = n_queries - suboptimal(&gaps[modes.len() - 1]);
    println!("Algorithm C matched the oracle on {c_matches}/{n_queries} queries.\n");
    json!({
        "experiment": "e3",
        "suboptimal": Value::Object(sub_json),
        "avg_gap": Value::Object(avg_json),
        "min_gap": Value::Object(min_json),
        "c_matches_oracle": c_matches, "n_queries": n_queries,
        "paper_claim": "A may miss the LEC plan; B narrows the gap; C is exact",
    })
}

/// E4 — Contribution 3 / Theorem 3.2: optimization overhead is a factor of
/// the bucket count `b` (and Algorithm B costs ~αb of one invocation).
pub fn e4() -> Value {
    println!("E4: optimization overhead vs bucket count b (6-table chain)\n");
    let w = scaling_chain(6);

    // Baseline: single-bucket LSC.  Each timed run gets a fresh CostModel
    // so it measures one cold optimization call.
    let time_of = |f: &dyn Fn(&CostModel<'_>) -> u64| {
        // median of 7 runs, returns (micros, evals)
        let mut times = Vec::new();
        let mut evals = 0;
        for _ in 0..7 {
            let model = CostModel::new(&w.catalog, &w.query);
            let start = Instant::now();
            evals = f(&model);
            times.push(start.elapsed().as_secs_f64() * 1e6);
        }
        times.sort_by(f64::total_cmp);
        (times[3], evals)
    };
    let (t_lsc, e_lsc) = time_of(&|model| {
        search(
            model,
            &lec_prob::Distribution::point(400.0),
            Mode::LscAt(400.0),
        )
        .stats
        .evals
    });

    let mut t = Table::new(&[
        "b",
        "AlgC time",
        "AlgC/LSC",
        "evals ratio",
        "AlgA/LSC",
        "AlgB(c=3)/LSC",
    ]);
    let mut rows_json = Vec::new();
    for b in [1usize, 2, 4, 8, 16, 32] {
        let memory = presets::spread_family(400.0, 0.8, b).unwrap();
        let (t_c, e_c) = time_of(&|model| search(model, &memory, Mode::AlgorithmC).stats.evals);
        let (t_a, _) = time_of(&|model| search(model, &memory, Mode::AlgorithmA).stats.evals);
        let (t_b, _) = time_of(&|model| {
            search(model, &memory, Mode::AlgorithmB { c: 3 })
                .stats
                .evals
        });
        t.row(vec![
            b.to_string(),
            format!("{t_c:.0}us"),
            format!("{:.1}x", t_c / t_lsc),
            format!("{:.1}x", e_c as f64 / e_lsc as f64),
            format!("{:.1}x", t_a / t_lsc),
            format!("{:.1}x", t_b / t_lsc),
        ]);
        rows_json.push(json!({
            "b": b, "alg_c_us": t_c, "alg_c_ratio": t_c / t_lsc,
            "alg_c_evals": e_c,
            "evals_ratio": e_c as f64 / e_lsc as f64,
            "alg_a_ratio": t_a / t_lsc, "alg_b_ratio": t_b / t_lsc,
        }));
    }
    println!("{}", t.render());
    println!("LSC baseline: {t_lsc:.0}us, {e_lsc} cost-formula evaluations.\n");
    json!({
        "experiment": "e4", "lsc_us": t_lsc, "lsc_evals": e_lsc, "rows": rows_json,
        "paper_claim": "LEC optimization costs ~b times one standard invocation",
    })
}

/// E5 — Proposition 3.1: combinations examined per (node, j, method) group
/// in Algorithm B stay within `c + c·log c`.
pub fn e5() -> Value {
    println!("E5: Prop 3.1 — Algorithm B combinations vs the c + c*log(c) bound\n");
    let w = scaling_chain(6);
    let model = CostModel::new(&w.catalog, &w.query);
    let memory = presets::spread_family(400.0, 0.8, 4).unwrap();
    let mut t = Table::new(&[
        "c",
        "groups",
        "examined/group",
        "bound/group",
        "within bound",
    ]);
    let mut rows_json = Vec::new();
    for c in [1usize, 2, 3, 5, 8, 13, 21] {
        // Algorithm B's counters: one top-c run per memory representative.
        let mut f = FrontierStats::default();
        for m in representatives(&memory) {
            let mut policy = TopCPolicy::new(m, c);
            run_search_with(
                &model,
                PlanShape::LeftDeep,
                &mut policy,
                &SearchConfig::default(),
            )
            .unwrap();
            f.combinations_examined += policy.frontier.combinations_examined;
            f.bound_total = f.bound_total.saturating_add(policy.frontier.bound_total);
            f.groups += policy.frontier.groups;
        }
        let per_group = f.combinations_examined as f64 / f.groups as f64;
        let bound = c as f64 + c as f64 * (c as f64).ln();
        let ok = f.combinations_examined <= f.bound_total;
        t.row(vec![
            c.to_string(),
            f.groups.to_string(),
            format!("{per_group:.2}"),
            format!("{bound:.2}"),
            ok.to_string(),
        ]);
        rows_json.push(json!({
            "c": c, "groups": f.groups,
            "examined_per_group": per_group, "bound_per_group": bound,
            "examined": f.combinations_examined, "bound_total": f.bound_total, "within": ok,
        }));
    }
    println!("{}", t.render());
    println!("(examined/group is below the bound; our inner lists are short —");
    println!(" at most seq+index per table — so the frontier is rarely saturated)\n");
    json!({
        "experiment": "e5", "rows": rows_json,
        "paper_claim": "top-c combination needs at most c + c*log(c) probes per method",
    })
}

#[cfg(test)]
mod tests {
    /// E3 against the paper's claim, measured: Algorithm C's plan costs
    /// the oracle's optimum on every query, and no plan of any algorithm
    /// replays below it.
    #[test]
    fn e3_c_is_exact_and_no_plan_beats_the_oracle() {
        let v = super::e3();
        let (n, matched) = (&v["n_queries"], &v["c_matches_oracle"]);
        assert_eq!(
            matched, n,
            "C matched the oracle on: expected {n} ± 0 queries, actual {matched}"
        );
        for key in ["A", "B2", "B4", "C"] {
            let least = v["min_gap"][key].as_f64().unwrap();
            assert!(
                least >= -1e-9,
                "{key}'s least gap to the oracle: expected 0 ± 1e-9 or above, actual {least:e}"
            );
        }
    }
}

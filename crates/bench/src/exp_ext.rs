//! Experiments E12–E16: the paper's explicitly flagged extensions —
//! randomized search with the EC objective (§1), the \[INSS92\] parametric
//! combination (§3.2/§3.4), bushy trees (§4), closed-loop statistics
//! fitting (§3.1 question 1), and the reactive re-optimization comparison
//! (§2.3).

use crate::search;
use crate::table::{num, pct, Table};
use crate::workloads::{batch, scaling_chain};
use lec_core::{
    coverage_family, iterative_improvement, simulated_annealing, Mode, PlanCache, PointEstimate,
    RandomizedConfig,
};
use lec_cost::{expected_plan_cost_dynamic, CostModel};
use lec_exec::monte_carlo_reopt;
use lec_prob::{fit, presets, Distribution, MarkovChain, Rebucket};
use rand::SeedableRng;
use serde_json::{json, Value};
use std::time::Instant;

/// E12 — §1: "randomized algorithms ... apply in our approach too".
/// Iterative improvement and simulated annealing with EC as the objective,
/// against the exact Algorithm C, as query size grows.
pub fn e12() -> Value {
    println!("E12: randomized LEC optimization (II / SA) vs exact Algorithm C\n");
    let memory = presets::spread_family(400.0, 0.8, 5).unwrap();
    let mut t = Table::new(&[
        "n", "C cost", "II gap", "SA gap", "C time", "II time", "SA time", "II evals",
    ]);
    let mut rows_json = Vec::new();
    for n in [4usize, 6, 8, 10, 12] {
        let w = scaling_chain(n);
        // Fresh model per timed algorithm, so each times one cold call.
        let model_c = CostModel::new(&w.catalog, &w.query);
        let t0 = Instant::now();
        let c = search(&model_c, &memory, Mode::AlgorithmC);
        let t_c = t0.elapsed().as_secs_f64() * 1e3;
        let cfg = RandomizedConfig::default();
        let model_ii = CostModel::new(&w.catalog, &w.query);
        let t0 = Instant::now();
        let ii = iterative_improvement(&model_ii, &memory, &cfg, 42).unwrap();
        let t_ii = t0.elapsed().as_secs_f64() * 1e3;
        let model_sa = CostModel::new(&w.catalog, &w.query);
        let t0 = Instant::now();
        let sa = simulated_annealing(&model_sa, &memory, &cfg, 42).unwrap();
        let t_sa = t0.elapsed().as_secs_f64() * 1e3;
        let gap = |x: f64| (x - c.cost) / c.cost;
        t.row(vec![
            n.to_string(),
            num(c.cost),
            pct(gap(ii.cost)),
            pct(gap(sa.cost)),
            format!("{t_c:.1}ms"),
            format!("{t_ii:.1}ms"),
            format!("{t_sa:.1}ms"),
            ii.stats.nodes.to_string(),
        ]);
        rows_json.push(json!({
            "n": n, "c_cost": c.cost,
            "ii_gap": gap(ii.cost), "sa_gap": gap(sa.cost),
            "c_ms": t_c, "ii_ms": t_ii, "sa_ms": t_sa,
            "ii_evaluations": ii.stats.nodes,
        }));
    }
    println!("{}", t.render());
    println!("(the randomized searches use the same EC objective; their gaps are");
    println!(" relative to the provably optimal Algorithm C plan)\n");
    json!({
        "experiment": "e12", "rows": rows_json,
        "paper_claim": "randomized join optimizers transfer to the LEC objective unchanged",
    })
}

/// E13 — §3.2/§3.4: parametric precomputation.  Compile-time plan caches
/// of increasing coverage, judged by start-up regret against a fresh
/// Algorithm C run.
pub fn e13() -> Value {
    println!("E13: parametric LEC — plan-cache coverage vs start-up regret\n");
    let workloads = batch(13_000, 15, 5, 1);
    let families: Vec<(&str, Vec<lec_prob::Distribution>)> = vec![
        ("1 point", coverage_family(&[400.0], &[0.0], 5)),
        (
            "3 centers",
            coverage_family(&[100.0, 400.0, 1600.0], &[0.0], 5),
        ),
        (
            "3 centers x 3 spreads",
            coverage_family(&[100.0, 400.0, 1600.0], &[0.0, 0.5, 0.9], 5),
        ),
        (
            "5 centers x 3 spreads",
            coverage_family(&[50.0, 150.0, 450.0, 1350.0, 4050.0], &[0.0, 0.5, 0.9], 5),
        ),
    ];
    // Start-up distributions the cache was NOT optimized for.
    let actuals: Vec<lec_prob::Distribution> = vec![
        presets::spread_family(250.0, 0.7, 6).unwrap(),
        presets::spread_family(900.0, 0.3, 6).unwrap(),
        presets::zipf_over(&[60.0, 240.0, 960.0, 3840.0], 1.0).unwrap(),
    ];
    let mut t = Table::new(&[
        "coverage",
        "avg cached plans",
        "mean regret",
        "max regret",
        "lookup/full-opt time",
    ]);
    let mut rows_json = Vec::new();
    for (name, family) in &families {
        let mut regrets = Vec::new();
        let mut sizes = Vec::new();
        let mut t_lookup = 0.0;
        let mut t_full = 0.0;
        for w in &workloads {
            let model = CostModel::new(&w.catalog, &w.query);
            let cache = PlanCache::precompute(&model, family).unwrap();
            sizes.push(cache.len() as f64);
            for actual in &actuals {
                let t0 = Instant::now();
                let _ = cache.choose_fast(&model, actual).unwrap();
                t_lookup += t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                let choice = cache.choose(&model, actual).unwrap();
                t_full += t0.elapsed().as_secs_f64(); // includes the full re-opt
                regrets.push(choice.regret);
            }
        }
        let mean_regret = regrets.iter().sum::<f64>() / regrets.len() as f64;
        let max_regret = regrets.iter().cloned().fold(0.0f64, f64::max);
        let avg_size = sizes.iter().sum::<f64>() / sizes.len() as f64;
        t.row(vec![
            name.to_string(),
            format!("{avg_size:.1}"),
            pct(mean_regret),
            pct(max_regret),
            format!("{:.2}", t_lookup / t_full),
        ]);
        rows_json.push(json!({
            "coverage": name, "avg_cached_plans": avg_size,
            "mean_regret": mean_regret, "max_regret": max_regret,
            "lookup_time_fraction": t_lookup / t_full,
        }));
    }
    println!("{}", t.render());
    println!("(regret = EC of the cached choice over EC of a fresh Algorithm C run,");
    println!(" under start-up distributions outside the anticipated family)\n");
    json!({
        "experiment": "e13", "rows": rows_json,
        "paper_claim": "precomputing LEC plans per anticipated distribution leaves little start-up work",
    })
}

/// E14 — §4: bushy trees.  How much does the left-deep restriction cost
/// the LEC objective, and what does lifting it cost in search effort?
pub fn e14() -> Value {
    println!("E14: left-deep vs bushy LEC plans\n");
    let memory = presets::spread_family(400.0, 0.7, 5).unwrap();
    let mut t = Table::new(&[
        "topology",
        "n",
        "bushy wins",
        "mean gain",
        "max gain",
        "candidates LD",
        "candidates bushy",
    ]);
    let mut rows_json = Vec::new();
    for (name, topo) in [
        ("chain", lec_plan::Topology::Chain),
        ("star", lec_plan::Topology::Star),
        ("random", lec_plan::Topology::Random),
    ] {
        for n in [4usize, 6] {
            let mut wins = 0usize;
            let mut gains = Vec::new();
            let mut cand_ld = 0u64;
            let mut cand_bu = 0u64;
            let workloads: Vec<_> = (0..12u64)
                .map(|i| {
                    let mut g = lec_catalog::CatalogGenerator::new(14_000 + i);
                    let cat = g.generate(n + 1);
                    let ids = g.pick_tables(&cat, n);
                    let mut wg = lec_plan::WorkloadGenerator::new(14_100 + i);
                    let q = wg.gen_query(
                        &cat,
                        &ids,
                        &lec_plan::QueryProfile {
                            topology: topo,
                            ..Default::default()
                        },
                    );
                    (cat, q)
                })
                .collect();
            for (cat, q) in &workloads {
                let model = CostModel::new(cat, q);
                let ld = search(&model, &memory, Mode::AlgorithmC);
                let bu = search(&model, &memory, Mode::Bushy);
                cand_ld += ld.stats.candidates;
                cand_bu += bu.stats.candidates;
                let gain = 1.0 - bu.cost / ld.cost;
                if gain > 1e-9 {
                    wins += 1;
                }
                gains.push(gain.max(0.0));
            }
            let mean = gains.iter().sum::<f64>() / gains.len() as f64;
            let max = gains.iter().cloned().fold(0.0f64, f64::max);
            t.row(vec![
                name.into(),
                n.to_string(),
                format!("{wins}/12"),
                pct(mean),
                pct(max),
                (cand_ld / 12).to_string(),
                (cand_bu / 12).to_string(),
            ]);
            rows_json.push(json!({
                "topology": name, "n": n, "bushy_wins": wins,
                "mean_gain": mean, "max_gain": max,
                "candidates_left_deep": cand_ld / 12, "candidates_bushy": cand_bu / 12,
            }));
        }
    }
    // The engineered diamond: both join inputs must be composite for the
    // optimum, so the left-deep restriction genuinely costs something.
    let (cat, q) = lec_core::fixtures::diamond();
    let model = CostModel::new(&cat, &q);
    let ld = search(&model, &memory, Mode::AlgorithmC);
    let bu = search(&model, &memory, Mode::Bushy);
    let gain = 1.0 - bu.cost / ld.cost;
    t.row(vec![
        "diamond*".into(),
        "4".into(),
        "1/1".into(),
        pct(gain),
        pct(gain),
        ld.stats.candidates.to_string(),
        bu.stats.candidates.to_string(),
    ]);
    rows_json.push(json!({
        "topology": "diamond_engineered", "n": 4, "bushy_wins": 1,
        "mean_gain": gain, "max_gain": gain,
        "candidates_left_deep": ld.stats.candidates,
        "candidates_bushy": bu.stats.candidates,
    }));
    println!("{}", t.render());
    println!("(*diamond: A-B and C-D tiny, mild middle predicate — the shape where");
    println!(" bushiness pays.  Calibrated random workloads rarely produce it;");
    println!(" chains provably cannot.)\n");
    json!({
        "experiment": "e14", "rows": rows_json,
        "paper_claim": "the left-deep heuristic is the restriction the paper flags in section 4",
    })
}

/// E15 — §3.1 question 1 ("how do we get the probability distributions?"):
/// the closed loop.  Observe memory traces from an unknown environment,
/// fit a chain + initial distribution, optimize with the *fitted* beliefs,
/// and measure regret against optimizing with the true model.
pub fn e15() -> Value {
    println!("E15: closed loop — observe, fit, optimize (regret vs sample count)\n");
    let states = vec![60.0, 180.0, 540.0, 1620.0];
    let truth_chain = MarkovChain::birth_death(states.clone(), 0.40, 0.15).unwrap();
    let truth_init = Distribution::bimodal(180.0, 1620.0, 0.7).unwrap();
    let init_probs = truth_chain.dist_to_probs(&truth_init).unwrap();
    let workloads = batch(15_000, 12, 5, 1);
    let mut t = Table::new(&[
        "observed traces",
        "mean regret",
        "max regret",
        "chain L1 err",
    ]);
    let mut rows_json = Vec::new();
    for n_traces in [1usize, 5, 25, 125, 625] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(15_000 + n_traces as u64);
        let traces: Vec<Vec<f64>> = (0..n_traces)
            .map(|_| truth_chain.sample_path(&init_probs, 8, &mut rng))
            .collect();
        // Fit states from the pooled samples, then the chain and initial.
        let pooled: Vec<f64> = traces.iter().flatten().copied().collect();
        let state_dist =
            fit::fit_distribution(&pooled, states.len(), Rebucket::EqualDepth).unwrap();
        let fitted_chain = fit::fit_markov(&traces, state_dist.support().to_vec()).unwrap();
        let fitted_init = fit::fit_initial(&traces, &fitted_chain).unwrap();
        // Transition-matrix L1 error (only meaningful when supports align;
        // report against the snapped truth).
        let l1 = chain_l1(&truth_chain, &fitted_chain);
        let mut regrets = Vec::new();
        for w in &workloads {
            let model = CostModel::new(&w.catalog, &w.query);
            let fitted_plan = search(
                &model,
                &fitted_init,
                Mode::AlgorithmCDynamic {
                    chain: fitted_chain.clone(),
                },
            );
            let oracle = search(
                &model,
                &truth_init,
                Mode::AlgorithmCDynamic {
                    chain: truth_chain.clone(),
                },
            );
            // Judge the fitted plan under the TRUE environment.
            let true_ec =
                expected_plan_cost_dynamic(&model, &fitted_plan.plan, &truth_init, &truth_chain)
                    .unwrap();
            regrets.push((true_ec - oracle.cost).max(0.0) / oracle.cost);
        }
        let mean = regrets.iter().sum::<f64>() / regrets.len() as f64;
        let max = regrets.iter().cloned().fold(0.0f64, f64::max);
        t.row(vec![
            n_traces.to_string(),
            pct(mean),
            pct(max),
            format!("{l1:.3}"),
        ]);
        rows_json.push(json!({
            "n_traces": n_traces, "mean_regret": mean, "max_regret": max,
            "chain_l1_error": l1,
        }));
    }
    println!("{}", t.render());
    println!("(regret of the plan chosen under fitted beliefs, judged in the true");
    println!(" environment, against the true-model optimum — §3.1's question 1)\n");
    json!({
        "experiment": "e15", "rows": rows_json,
        "paper_claim": "DBMS-gathered statistics can estimate the distributions the algorithms need",
    })
}

fn chain_l1(truth: &MarkovChain, fitted: &MarkovChain) -> f64 {
    // Align fitted states to the nearest truth state and compare rows.
    let n = truth.n_states().min(fitted.n_states());
    let mut err = 0.0;
    for i in 0..n {
        for j in 0..n {
            err += (truth.row(i)[j] - fitted.row(i)[j]).abs();
        }
    }
    err / n as f64
}

/// E16 — §2.3: LEC planning vs reactive mid-query re-optimization
/// (\[KD98\]-style) under Markov drift, measured by simulation.
pub fn e16() -> Value {
    println!("E16: plan-ahead (Algorithm C) vs reactive re-optimization under drift\n");
    let states = vec![50.0, 150.0, 450.0, 1350.0];
    let chain = MarkovChain::birth_death(states.clone(), 0.45, 0.10).unwrap();
    let initial = Distribution::point(1350.0);
    let init_probs = chain.dist_to_probs(&initial).unwrap();
    // Same workload batch as E7, where drift demonstrably changes plans.
    let workloads = batch(7000, 25, 5, 1);
    let runs = 2000;
    let mut sums = [0.0f64; 4];
    let mut replans_total = 0.0;
    for (i, w) in workloads.iter().enumerate() {
        let model = CostModel::new(&w.catalog, &w.query);
        let lsc = search(&model, &initial, Mode::Lsc(PointEstimate::Mean));
        let stat = search(&model, &initial, Mode::AlgorithmC);
        let dynm = search(
            &model,
            &initial,
            Mode::AlgorithmCDynamic {
                chain: chain.clone(),
            },
        );
        let dyn_ec = |p: &lec_plan::PlanNode| {
            expected_plan_cost_dynamic(&model, p, &initial, &chain).unwrap()
        };
        sums[0] += dyn_ec(&lsc.plan);
        sums[1] += dyn_ec(&stat.plan);
        sums[2] += dyn_ec(&dynm.plan);
        let (reopt_mean, replans) =
            monte_carlo_reopt(&model, &chain, &init_probs, runs, 16_000 + i as u64);
        sums[3] += reopt_mean;
        replans_total += replans;
    }
    let n = workloads.len() as f64;
    let mut t = Table::new(&["strategy", "mean cost under drift", "vs LSC"]);
    let names = [
        "LSC @ start",
        "static Alg C",
        "dynamic Alg C",
        "reactive reopt*",
    ];
    let mut rows_json = Vec::new();
    for (k, name) in names.iter().enumerate() {
        t.row(vec![
            name.to_string(),
            num(sums[k] / n),
            pct(1.0 - sums[k] / sums[0]),
        ]);
        rows_json.push(json!({"strategy": name, "mean_cost": sums[k] / n}));
    }
    println!("{}", t.render());
    println!(
        "(*idealized: free re-planning, pipelined intermediates; avg {:.1} plan\n changes per run.  The reactive baseline exploits observations the\n planner cannot have; dynamic Algorithm C closes most of the gap with\n zero run-time machinery.)\n",
        replans_total / n
    );
    json!({
        "experiment": "e16", "rows": rows_json,
        "avg_replans_per_run": replans_total / n,
        "paper_claim": "LEC is compile-time only; reactive schemes wait for more information (2.3)",
    })
}

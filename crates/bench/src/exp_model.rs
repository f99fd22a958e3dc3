//! Experiments E6–E11 and F1: expected-cost machinery, dynamic memory,
//! selectivity uncertainty, bucketing, rebucketing, and the measured I/O
//! cliffs.

use crate::search;
use crate::table::{num, pct, Table};
use crate::workloads::batch;
use lec_core::{
    bucketize, fixtures, query_memory_breakpoints, AlgDConfig, BucketStrategy, Mode, PointEstimate,
};
use lec_cost::expected::{
    naive_eval_count, naive_expected_join_cost, streaming_expected_join_cost, DistTables,
};
use lec_cost::{oracle, CostModel};
use lec_plan::{JoinMethod, TableSet};
use lec_prob::{presets, Distribution, MarkovChain, PrefixTables, Rebucket};
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};
use std::time::Instant;

fn rand_dist(rng: &mut impl Rng, b: usize, lo: f64, hi: f64) -> Distribution {
    Distribution::from_pairs((0..b).map(|_| (rng.gen_range(lo..hi), rng.gen_range(0.05..1.0))))
        .unwrap()
}

/// E6 — §3.6.1/§3.6.2: the streaming expected-cost algorithms agree with
/// the defining triple sum and scale linearly rather than cubically.
pub fn e6() -> Value {
    println!("E6: expected join cost — naive O(b^3) vs streaming O(b)\n");
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xE6);
    let mut t = Table::new(&[
        "b (each)",
        "naive evals",
        "naive time",
        "streaming time",
        "speedup",
        "max rel err",
    ]);
    let mut rows_json = Vec::new();
    for b in [4usize, 8, 16, 32, 64, 128] {
        let reps = 20usize;
        let dists: Vec<_> = (0..reps)
            .map(|_| {
                (
                    rand_dist(&mut rng, b, 1.0, 1e6),
                    rand_dist(&mut rng, b, 1.0, 1e6),
                    rand_dist(&mut rng, b, 2.0, 5e3),
                )
            })
            .collect();
        let start = Instant::now();
        let mut naive_vals = Vec::new();
        for (a, bd, m) in &dists {
            for method in [JoinMethod::SortMerge, JoinMethod::PageNestedLoop] {
                naive_vals.push(naive_expected_join_cost(method, a, bd, m));
            }
        }
        let t_naive = start.elapsed().as_secs_f64() * 1e6 / reps as f64;
        let start = Instant::now();
        let mut fast_vals = Vec::new();
        for (a, bd, m) in &dists {
            let mt = PrefixTables::new(m);
            let (a, bd) = (DistTables::new(a.clone()), DistTables::new(bd.clone()));
            for method in [JoinMethod::SortMerge, JoinMethod::PageNestedLoop] {
                fast_vals.push(streaming_expected_join_cost(method, &a, &bd, &mt).unwrap());
            }
        }
        let t_fast = start.elapsed().as_secs_f64() * 1e6 / reps as f64;
        let max_err = naive_vals
            .iter()
            .zip(&fast_vals)
            .map(|(n, f)| ((n - f) / n.max(1.0)).abs())
            .fold(0.0f64, f64::max);
        let evals = naive_eval_count(&dists[0].0, &dists[0].1, &dists[0].2);
        t.row(vec![
            b.to_string(),
            evals.to_string(),
            format!("{t_naive:.1}us"),
            format!("{t_fast:.1}us"),
            format!("{:.1}x", t_naive / t_fast),
            format!("{max_err:.2e}"),
        ]);
        rows_json.push(json!({
            "b": b, "naive_evals": evals, "naive_us": t_naive,
            "streaming_us": t_fast, "speedup": t_naive / t_fast, "max_rel_err": max_err,
        }));
    }
    println!("{}", t.render());
    println!("(times averaged over 20 random (|A|,|B|,M) triples, 2 methods each)\n");
    json!({
        "experiment": "e6", "rows": rows_json,
        "paper_claim": "EC(SM)/EC(NL) computable in time linear in total bucket count",
    })
}

/// E7 — §3.5 / Theorem 3.4: dynamic memory.  LSC vs static-LEC vs
/// dynamic-LEC, judged in the true drifting environment, and dynamic-LEC
/// against the oracle's optimum there.
pub fn e7() -> Value {
    println!("E7: dynamic memory — Markov drift between execution phases\n");
    let chain = MarkovChain::birth_death(vec![50.0, 150.0, 450.0, 1350.0], 0.45, 0.10).unwrap();
    let initial = Distribution::point(1350.0);
    let dynamic = Mode::AlgorithmCDynamic { chain };
    let objective = dynamic.objective(&initial).unwrap();
    let workloads = batch(7000, 25, 5, 1);
    let mut rows = Vec::new();
    let (mut wins_dyn, mut c_dyn_matches) = (0usize, 0usize);
    for w in &workloads {
        let model = CostModel::new(&w.catalog, &w.query);
        let lsc = search(&model, &initial, Mode::Lsc(PointEstimate::Mean));
        let stat = search(&model, &initial, Mode::AlgorithmC);
        let dynm = search(&model, &initial, dynamic.clone());
        let dyn_ec = |p| objective.replay(&model, p);
        let (c_lsc, c_stat, c_dyn) = (dyn_ec(&lsc.plan), dyn_ec(&stat.plan), dyn_ec(&dynm.plan));
        if c_dyn < c_stat - 1e-9 || c_dyn < c_lsc - 1e-9 {
            wins_dyn += 1;
        }
        let best = oracle::left_deep(&model, &objective).expect("experiment queries are connected");
        c_dyn_matches += usize::from(c_dyn / best.cost - 1.0 <= 1e-9);
        rows.push((c_lsc, c_stat, c_dyn));
    }
    let mean =
        |f: &dyn Fn(&(f64, f64, f64)) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
    let m_lsc = mean(&|r| r.0);
    let m_stat = mean(&|r| r.1);
    let m_dyn = mean(&|r| r.2);
    let mut t = Table::new(&["optimizer", "mean dynamic EC", "vs LSC"]);
    t.row(vec!["LSC @ start value".into(), num(m_lsc), "-".into()]);
    t.row(vec![
        "static Alg C".into(),
        num(m_stat),
        pct(1.0 - m_stat / m_lsc),
    ]);
    t.row(vec![
        "dynamic Alg C".into(),
        num(m_dyn),
        pct(1.0 - m_dyn / m_lsc),
    ]);
    println!("{}", t.render());
    println!(
        "dynamic Alg C strictly improved on static/LSC in {wins_dyn}/{} queries",
        rows.len()
    );
    println!(
        "dynamic Alg C matched the oracle on {c_dyn_matches}/{} queries.\n",
        rows.len()
    );
    json!({
        "experiment": "e7",
        "mean_dynamic_ec": {"lsc": m_lsc, "static_c": m_stat, "dynamic_c": m_dyn},
        "dyn_strict_wins": wins_dyn, "c_dyn_matches_oracle": c_dyn_matches,
        "n_queries": rows.len(),
        "paper_claim": "Algorithm C with evolved per-phase distributions is optimal under drift",
    })
}

/// E8 — §3.6: selectivity uncertainty.  Judge the three optimizers under
/// the *joint* (memory × selectivity) uncertainty by Monte-Carlo sampling
/// selectivity draws.
pub fn e8() -> Value {
    println!("E8: uncertain selectivities — LSC vs Alg C (mean sel) vs Alg D\n");
    let workloads = batch(8000, 20, 4, 5); // 5 selectivity buckets per predicate
    let memory = presets::spread_family(400.0, 0.7, 5).unwrap();
    let mut sums = (0.0f64, 0.0f64, 0.0f64);
    let mut d_wins = 0usize;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xE8);
    for w in &workloads {
        let model = CostModel::new(&w.catalog, &w.query);
        let lsc = search(&model, &memory, Mode::Lsc(PointEstimate::Mean));
        let alg_c = search(&model, &memory, Mode::AlgorithmC);
        let alg_d = search(
            &model,
            &memory,
            Mode::AlgorithmD {
                config: AlgDConfig::default(),
            },
        );
        // Joint evaluation: draw concrete selectivities, re-cost each plan.
        let mut costs = (0.0f64, 0.0f64, 0.0f64);
        let draws = 300;
        for _ in 0..draws {
            let mut q2 = w.query.clone();
            for p in &mut q2.joins {
                p.selectivity = Distribution::point(p.selectivity.sample(&mut rng));
            }
            let m2 = CostModel::new(&w.catalog, &q2);
            costs.0 += lec_cost::expected_plan_cost_static(&m2, &lsc.plan, &memory);
            costs.1 += lec_cost::expected_plan_cost_static(&m2, &alg_c.plan, &memory);
            costs.2 += lec_cost::expected_plan_cost_static(&m2, &alg_d.plan, &memory);
        }
        let d = draws as f64;
        let (c_lsc, c_c, c_d) = (costs.0 / d, costs.1 / d, costs.2 / d);
        if c_d <= c_c + 1e-9 && c_d <= c_lsc + 1e-9 {
            d_wins += 1;
        }
        sums.0 += c_lsc;
        sums.1 += c_c;
        sums.2 += c_d;
    }
    let n = workloads.len() as f64;
    let mut t = Table::new(&["optimizer", "mean joint cost", "vs LSC"]);
    t.row(vec![
        "LSC (mean M, mean sel)".into(),
        num(sums.0 / n),
        "-".into(),
    ]);
    t.row(vec![
        "Alg C (dist M, mean sel)".into(),
        num(sums.1 / n),
        pct(1.0 - sums.1 / sums.0),
    ]);
    t.row(vec![
        "Alg D (dist M, dist sel)".into(),
        num(sums.2 / n),
        pct(1.0 - sums.2 / sums.0),
    ]);
    println!("{}", t.render());
    println!(
        "Alg D was best-or-tied on {d_wins}/{} workloads under joint sampling\n",
        workloads.len()
    );
    json!({
        "experiment": "e8",
        "mean_joint_cost": {"lsc": sums.0 / n, "alg_c": sums.1 / n, "alg_d": sums.2 / n},
        "d_best_or_tied": d_wins, "n_queries": workloads.len(),
        "paper_claim": "modeling selectivity uncertainty ameliorates its difficulty",
    })
}

/// E9 — §3.7 / §4: the impact of bucket choice on LEC plan quality and
/// optimization effort.
pub fn e9() -> Value {
    println!("E9: bucket granularity and placement vs plan quality (Example 1.1)\n");
    let (catalog, query) = fixtures::example_1_1();
    let model = CostModel::new(&catalog, &query);
    let truth = presets::uniform_grid(100.0, 2600.0, 126).unwrap();
    let breakpoints = query_memory_breakpoints(&model);
    let full = search(&model, &truth, Mode::AlgorithmC);
    let mut t = Table::new(&["strategy", "b", "plan", "true EC", "regret", "evals"]);
    let mut rows_json = Vec::new();
    for strategy in [
        BucketStrategy::EqualWidth,
        BucketStrategy::EqualDepth,
        BucketStrategy::LevelSet,
    ] {
        for b in [1usize, 2, 3, 5, 10, 20, 50] {
            let belief = bucketize(&truth, b, strategy, &breakpoints);
            let r = search(&model, &belief, Mode::AlgorithmC);
            let true_ec = lec_cost::expected_plan_cost_static(&model, &r.plan, &truth);
            let regret = true_ec / full.cost - 1.0;
            t.row(vec![
                format!("{strategy:?}"),
                b.to_string(),
                r.plan.compact(),
                num(true_ec),
                pct(regret),
                r.stats.evals.to_string(),
            ]);
            rows_json.push(json!({
                "strategy": format!("{strategy:?}"), "b": b,
                "plan": r.plan.compact(), "true_ec": true_ec, "regret": regret,
                "evals": r.stats.evals,
            }));
        }
    }
    println!("{}", t.render());
    println!(
        "full-resolution (b=126) LEC plan: {} EC {}\n",
        full.plan.compact(),
        num(full.cost)
    );
    json!({
        "experiment": "e9", "rows": rows_json, "full_ec": full.cost,
        "paper_claim": "coarse buckets trade plan quality for optimization effort; level-set buckets are efficient",
    })
}

/// E10 — §3.6.3: result-size distributions — exact product vs ∛b
/// rebucketing, accuracy and support size.
pub fn e10() -> Value {
    println!("E10: result-size distribution — exact product vs cube-root rebucketing\n");
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xE10);
    let mut t = Table::new(&[
        "b per input",
        "exact support",
        "rebucketed",
        "mean err",
        "P(X>t) err",
        "sort EC err",
    ]);
    let mut rows_json = Vec::new();
    let m = presets::spread_family(500.0, 0.6, 6).unwrap();
    let mt = PrefixTables::new(&m);
    for b in [2usize, 4, 8, 16, 32] {
        let mut worst = (0.0f64, 0.0f64, 0.0f64);
        let mut exact_support = 0usize;
        let mut reb_support = 0usize;
        for _ in 0..30 {
            let a = rand_dist(&mut rng, b, 100.0, 1e5);
            let bd = rand_dist(&mut rng, b, 100.0, 1e5);
            let sel = rand_dist(&mut rng, b, 1e-8, 1e-5);
            let exact = a.product(&bd).product(&sel).map(|v| v.max(1.0));
            let cube = ((b as f64).cbrt().ceil() as usize).max(1);
            let approx = a
                .rebucket(cube, Rebucket::EqualDepth)
                .unwrap()
                .product(&bd.rebucket(cube, Rebucket::EqualDepth).unwrap())
                .product(&sel.rebucket(cube, Rebucket::EqualDepth).unwrap())
                .map(|v| v.max(1.0));
            exact_support = exact_support.max(exact.len());
            reb_support = reb_support.max(approx.len());
            let mean_err = ((approx.mean() - exact.mean()) / exact.mean()).abs();
            let thresh = exact.quantile(0.8);
            let tail_err = (approx.prob_gt(thresh) - exact.prob_gt(thresh)).abs();
            let ec_exact = lec_cost::expected_sort_cost(&exact, &mt);
            let ec_approx = lec_cost::expected_sort_cost(&approx, &mt);
            let ec_err = ((ec_approx - ec_exact) / ec_exact.max(1.0)).abs();
            worst.0 = worst.0.max(mean_err);
            worst.1 = worst.1.max(tail_err);
            worst.2 = worst.2.max(ec_err);
        }
        t.row(vec![
            b.to_string(),
            exact_support.to_string(),
            reb_support.to_string(),
            format!("{:.2e}", worst.0),
            format!("{:.3}", worst.1),
            pct(worst.2),
        ]);
        rows_json.push(json!({
            "b": b, "exact_support": exact_support, "rebucketed_support": reb_support,
            "worst_mean_err": worst.0, "worst_tail_err": worst.1, "worst_sort_ec_err": worst.2,
        }));
    }
    println!("{}", t.render());
    println!("(worst case over 30 random (|A|,|B|,sigma) triples per row; mean is");
    println!(" preserved exactly up to float error — conditional-mean representatives)\n");
    json!({
        "experiment": "e10", "rows": rows_json,
        "paper_claim": "cube-root input rebucketing keeps the product near b buckets at bounded accuracy loss",
    })
}

/// E11 — footnote 2 / Example 1.1 premise: the cost cliffs are real.
/// Measured I/O of actual external-memory operators vs the model, across a
/// memory sweep.
pub fn e11() -> Value {
    println!("E11: measured I/O of real operators vs the paper's formulas\n");
    use lec_exec::{block_nl_join, external_sort, grace_hash_join, sort_merge_join, DiskTable};
    let page_cap = 4usize;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xE11);
    let mk = |rows: usize, rng: &mut rand::rngs::StdRng| {
        DiskTable::from_rows(
            (0..rows).map(|i| vec![rng.gen_range(0..256i64), i as i64]),
            page_cap,
        )
    };
    let a = mk(512, &mut rng); // 128 pages
    let b = mk(128, &mut rng); // 32 pages
    let (ap, bp) = (a.n_pages() as f64, b.n_pages() as f64);
    println!("inputs: |A| = {ap} pages, |B| = {bp} pages\n");
    let mut t = Table::new(&[
        "m",
        "sort(A) io",
        "model",
        "SM io",
        "model",
        "GH io",
        "model",
        "BNL io",
        "model",
    ]);
    let mut rows_json = Vec::new();
    for m in [4usize, 6, 8, 12, 24, 48, 96, 140] {
        let mf = m as f64;
        let sort = external_sort(&a, 0, m, page_cap);
        let sm = sort_merge_join(&a, &b, 0, 0, m, page_cap);
        let gh = grace_hash_join(&a, &b, 0, 0, m, page_cap);
        let bnl = block_nl_join(&a, &b, 0, 0, m, page_cap);
        let model_sort = lec_cost::formulas::sort_cost(ap, mf);
        let model_sm = lec_cost::formulas::sm_join_cost(ap, bp, mf);
        let model_gh = lec_cost::formulas::grace_join_cost(ap, bp, mf);
        let model_bnl = lec_cost::formulas::bnl_join_cost(ap, bp, mf);
        t.row(vec![
            m.to_string(),
            sort.io.to_string(),
            num(model_sort),
            sm.io.to_string(),
            num(model_sm),
            gh.io.to_string(),
            num(model_gh),
            bnl.io.to_string(),
            num(model_bnl),
        ]);
        rows_json.push(json!({
            "m": m,
            "sort": {"measured": sort.io, "model": model_sort},
            "sm": {"measured": sm.io, "model": model_sm},
            "gh": {"measured": gh.io, "model": model_gh},
            "bnl": {"measured": bnl.io, "model": model_bnl},
        }));
    }
    println!("{}", t.render());
    println!("cliff positions agree (sqrt/cbrt of input sizes; S+2 for NL); the");
    println!("join constants differ by one 'pass' because the paper counts a");
    println!("read+write sweep as one unit — see EXPERIMENTS.md.\n");
    json!({
        "experiment": "e11", "a_pages": ap, "b_pages": bp, "rows": rows_json,
        "paper_claim": "join cost formulas are discontinuous in memory; cliffs at sqrt/cbrt thresholds",
    })
}

/// F1 — Figure 1: the four distributions carried per DP node and what
/// depends on them, shown live for one node of a 3-way join.
pub fn f1() -> Value {
    println!("F1: Figure 1 — per-node distributions of Algorithm D\n");
    let mut ws = batch(9000, 1, 3, 4);
    let w = ws.pop().unwrap();
    let model = CostModel::new(&w.catalog, &w.query);
    let memory = presets::spread_family(400.0, 0.6, 4).unwrap();

    // The node S = {0,1} joined with A_j = table 2 (if connected; else 1).
    let sj = TableSet::from_indices([0, 1]);
    let j = if w.query.is_connected_to(sj, 2) { 2 } else { 1 };
    let sj = w.query.all_tables().without(j);
    let b_outer = model
        .base_pages_dist(sj.iter().next().unwrap())
        .product(&model.base_pages_dist(sj.iter().nth(1).unwrap()))
        .product(&model.join_selectivity_dist(
            TableSet::singleton(sj.iter().next().unwrap()),
            sj.iter().nth(1).unwrap(),
        ))
        .map(|v| v.max(1.0));
    let a_j = model.base_pages_dist(j);
    let sigma = model.join_selectivity_dist(sj, j);

    println!("node S_j = {sj}, joining A_j = table {j}\n");
    let mut t = Table::new(&["distribution", "buckets", "mean", "min", "max"]);
    for (name, d) in [
        ("Pr(M)       memory", &memory),
        ("Pr(|B_j|)   composite size", &b_outer),
        ("Pr(|A_j|)   joined table size", &a_j),
        ("Pr(sigma)   predicate selectivity", &sigma),
    ] {
        t.row(vec![
            name.into(),
            d.len().to_string(),
            num(d.mean()),
            num(d.min_value()),
            num(d.max_value()),
        ]);
    }
    println!("{}", t.render());

    // The two arrows of Figure 1: EC(P_S) from (M, |B_j|, |A_j|), and
    // Pr(|B_j ⋈ A_j|) from (|B_j|, |A_j|, σ).
    let mut ec_table = Table::new(&["join method", "EC from (M,|B_j|,|A_j|)"]);
    let [m, b, a] = [&memory, &b_outer, &a_j].map(|d| DistTables::new(d.clone()));
    for method in JoinMethod::ALL {
        let ec = lec_cost::expected::expected_join_cost(method, &b, &a, &m);
        ec_table.row(vec![method.name().into(), num(ec)]);
    }
    println!("{}", ec_table.render());
    let result = b_outer.product(&a_j).product(&sigma).map(|v| v.max(1.0));
    println!(
        "Pr(|B_j join A_j|) from (|B_j|,|A_j|,sigma): {} buckets, mean {} pages\n",
        result.len(),
        num(result.mean())
    );
    json!({
        "experiment": "f1",
        "node": format!("{sj}"), "joined_table": j,
        "distributions": {
            "memory_buckets": memory.len(),
            "composite_buckets": b_outer.len(),
            "table_buckets": a_j.len(),
            "selectivity_buckets": sigma.len(),
        },
        "result_size_buckets": result.len(),
        "paper_claim": "exactly four distributions are needed per node regardless of parameter count",
    })
}

#[cfg(test)]
mod tests {
    /// E7 against the paper's claim (Theorem 3.4): dynamic Algorithm C's
    /// plan costs the dynamic oracle's optimum on every query.
    #[test]
    fn e7_c_dyn_is_exact() {
        let v = super::e7();
        let (n, matched) = (&v["n_queries"], &v["c_dyn_matches_oracle"]);
        assert_eq!(
            matched, n,
            "C-dyn matched the oracle on: expected {n} ± 0 queries, actual {matched}"
        );
    }
}

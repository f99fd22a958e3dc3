//! Experiments E6–E11 and F1: expected-cost machinery, dynamic memory,
//! selectivity uncertainty, bucketing, rebucketing, and the measured I/O
//! cliffs, one test each.

#[cfg(test)]
mod tests {
    use crate::table::{num, pct, Table};
    use crate::workloads::batch;
    use crate::{search, verdict, Side};
    use lec_core::{
        bucketize, fixtures, query_memory_breakpoints, AlgDConfig, BucketStrategy, Mode,
        PointEstimate,
    };
    use lec_cost::expected::{
        expected_join_costs, naive_eval_count, naive_expected_join_cost,
        streaming_expected_join_costs, DistTables,
    };
    use lec_cost::{expected_plan_cost_static, oracle, CostModel, OpClass};
    use lec_plan::{JoinMethod, TableSet};
    use lec_prob::{presets, Distribution, MarkovChain, Rebucket};
    use rand::{Rng, SeedableRng};
    use std::time::Instant;

    fn rand_dist(rng: &mut impl Rng, b: usize, lo: f64, hi: f64) -> Distribution {
        Distribution::from_pairs((0..b).map(|_| (rng.gen_range(lo..hi), rng.gen_range(0.05..1.0))))
            .unwrap()
    }

    /// E6 — §3.6.1/§3.6.2: the streaming expected-cost algorithms agree
    /// with the defining triple sum and scale linearly rather than
    /// cubically.  A timing table: it prints and asserts nothing, and runs
    /// only when asked (`-- --ignored --nocapture e6`, in release).  F1
    /// checks the agreement.
    #[test]
    #[ignore = "timing table; run in release with --ignored --nocapture"]
    fn e6_naive_vs_streaming_expected_cost() {
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
            // Sort-merge and page nested-loop, each with its index in the
            // streaming costs.
            let methods = [(JoinMethod::SortMerge, 0), (JoinMethod::PageNestedLoop, 2)];
            let start = Instant::now();
            let mut naive_vals = Vec::new();
            for (a, bd, m) in &dists {
                for (method, _) in methods {
                    naive_vals.push(naive_expected_join_cost(method, a, bd, m));
                }
            }
            let t_naive = start.elapsed().as_secs_f64() * 1e6 / reps as f64;
            let start = Instant::now();
            let mut fast_vals = Vec::new();
            for (a, bd, m) in &dists {
                let mt = DistTables::new(m);
                let (a, bd) = (DistTables::new(a), DistTables::new(bd));
                let streamed = streaming_expected_join_costs(&a, &bd, &mt);
                fast_vals.extend(methods.map(|(_, at)| streamed[at]));
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
        }
        println!("{}", t.render());
        println!("(times averaged over 20 random (|A|,|B|,M) triples, 2 methods each)\n");
    }

    /// E7 — §3.5 / Theorem 3.4: dynamic memory.  LSC vs static-LEC vs
    /// dynamic-LEC, judged in the true drifting environment; dynamic
    /// Algorithm C's plan costs the dynamic oracle's optimum on every query.
    #[test]
    fn e7_c_dyn_is_exact() {
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
            let (c_lsc, c_stat, c_dyn) =
                (dyn_ec(&lsc.plan), dyn_ec(&stat.plan), dyn_ec(&dynm.plan));
            if c_dyn < c_stat - 1e-9 || c_dyn < c_lsc - 1e-9 {
                wins_dyn += 1;
            }
            let best =
                oracle::left_deep(&model, &objective).expect("experiment queries are connected");
            c_dyn_matches += usize::from(c_dyn / best.cost - 1.0 <= 1e-9);
            rows.push((c_lsc, c_stat, c_dyn));
        }
        let n = rows.len() as f64;
        let m_lsc = rows.iter().map(|r| r.0).sum::<f64>() / n;
        let m_stat = rows.iter().map(|r| r.1).sum::<f64>() / n;
        let m_dyn = rows.iter().map(|r| r.2).sum::<f64>() / n;
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

        verdict(
            "e7: queries on which C-dyn matched the oracle",
            Side::Both,
            n,
            0.0,
            c_dyn_matches as f64,
        );
    }

    /// E8 — §3.6: selectivity uncertainty.  Judge the three optimizers
    /// under the *joint* (memory × selectivity) uncertainty by Monte-Carlo
    /// sampling selectivity draws.  Algorithm D is best-or-tied on every
    /// workload, and the mean joint costs are ordered D < C < LSC, each at
    /// least 1% below the next (today 0.83M, 1.69M and 9.69M).
    #[test]
    fn e8_d_is_best_or_tied_under_joint_sampling() {
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
            let config = AlgDConfig::default();
            let alg_d = search(&model, &memory, Mode::AlgorithmD { config });
            // Joint evaluation: draw concrete selectivities, re-cost each plan.
            let mut costs = (0.0f64, 0.0f64, 0.0f64);
            let draws = 300;
            for _ in 0..draws {
                let mut q2 = w.query.clone();
                for p in &mut q2.joins {
                    p.selectivity = Distribution::point(p.selectivity.sample(&mut rng));
                }
                let m2 = CostModel::new(&w.catalog, &q2);
                costs.0 += expected_plan_cost_static(&m2, &lsc.plan, &memory);
                costs.1 += expected_plan_cost_static(&m2, &alg_c.plan, &memory);
                costs.2 += expected_plan_cost_static(&m2, &alg_d.plan, &memory);
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
        println!("Alg D was best-or-tied on {d_wins}/{n} workloads under joint sampling\n");

        verdict(
            "e8: workloads on which D is best-or-tied",
            Side::Both,
            n,
            0.0,
            d_wins as f64,
        );
        verdict(
            "e8: mean joint cost of Alg D / Alg C",
            Side::AtMost,
            0.99,
            0.0,
            sums.2 / sums.1,
        );
        verdict(
            "e8: mean joint cost of Alg C / LSC",
            Side::AtMost,
            0.99,
            0.0,
            sums.1 / sums.0,
        );
    }

    /// E9 — §3.7 / §4: the impact of bucket choice on LEC plan quality and
    /// optimization effort, on Example 1.1 under a 126-value grid.
    ///
    /// Every strategy reaches the full-resolution plan by b = 5 (regret
    /// 0 ± 1e-12 from there on).  LevelSet's regret never rises with b, and
    /// at b = 50 it spends no more evals than EqualWidth at b = 5 (29 vs
    /// 47).  Monotonicity is asserted for LevelSet only: EqualWidth and
    /// EqualDepth regress to 9.1% at b = 3, after reaching 0 at b = 2.
    #[test]
    fn e9_every_strategy_reaches_the_full_plan_and_level_sets_stay_cheap() {
        println!("E9: bucket granularity and placement vs plan quality (Example 1.1)\n");
        let (catalog, query) = fixtures::example_1_1();
        let model = CostModel::new(&catalog, &query);
        let truth = presets::uniform_grid(100.0, 2600.0, 126).unwrap();
        let breakpoints = query_memory_breakpoints(&model);
        let full = search(&model, &truth, Mode::AlgorithmC);
        let bs = [1usize, 2, 3, 5, 10, 20, 50];
        let mut t = Table::new(&["strategy", "b", "plan", "true EC", "regret", "evals"]);
        let mut rows = Vec::new();
        for strategy in [
            BucketStrategy::EqualWidth,
            BucketStrategy::EqualDepth,
            BucketStrategy::LevelSet,
        ] {
            for b in bs {
                let belief = bucketize(&truth, b, strategy, &breakpoints);
                let r = search(&model, &belief, Mode::AlgorithmC);
                let true_ec = expected_plan_cost_static(&model, &r.plan, &truth);
                let regret = true_ec / full.cost - 1.0;
                t.row(vec![
                    format!("{strategy:?}"),
                    b.to_string(),
                    r.plan.compact(),
                    num(true_ec),
                    pct(regret),
                    r.stats.evals.to_string(),
                ]);
                rows.push((strategy, b, regret, r.stats.evals));
            }
        }
        println!("{}", t.render());
        println!(
            "full-resolution (b=126) LEC plan: {} EC {}\n",
            full.plan.compact(),
            num(full.cost)
        );

        for &(strategy, b, regret, _) in rows.iter().filter(|r| r.1 >= 5) {
            verdict(
                format!("e9: {strategy:?}'s regret at b = {b}"),
                Side::Both,
                0.0,
                1e-12,
                regret,
            );
        }
        let level_set: Vec<_> = rows
            .iter()
            .filter(|r| r.0 == BucketStrategy::LevelSet)
            .collect();
        for w in level_set.windows(2) {
            verdict(
                format!(
                    "e9: LevelSet's regret at b = {} (at b = {})",
                    w[1].1, w[0].1
                ),
                Side::AtMost,
                w[0].2,
                1e-12,
                w[1].2,
            );
        }
        let evals = |strategy, b| {
            rows.iter()
                .find(|r| r.0 == strategy && r.1 == b)
                .map(|r| r.3 as f64)
                .unwrap()
        };
        verdict(
            "e9: LevelSet's evals at b = 50",
            Side::AtMost,
            evals(BucketStrategy::EqualWidth, 5),
            0.0,
            evals(BucketStrategy::LevelSet, 50),
        );
    }

    /// E10 — §3.6.3: result-size distributions — exact product vs ∛b
    /// rebucketing, accuracy and support size, worst case over 30 random
    /// (|A|, |B|, σ) triples per row.
    ///
    /// Rebucketing each input to ⌈∛b⌉ buckets keeps the product's support
    /// at most ⌈∛b⌉³ (8, 8, 8, 27, 64), and the worst sort-EC error at most
    /// 6%, falling from b = 4 to b = 32 (5.6 → 1.1%).  Equal-depth
    /// representatives are conditional means, so each input's mean, and so
    /// the independent product's, is kept to float error: ≤ 1e-12 relative
    /// before the one-page clamp (`max(1.0)`) both sides apply to the
    /// product.  The clamp is what moves the mean: it lifts every sub-page
    /// product value to one page, and merging buckets changes how much
    /// mass lies below one page.  That clamped error is bounded at its
    /// measured size, ≤ 1e-6 (today 9.3e-7, at b = 16).
    #[test]
    fn e10_cube_root_rebucketing_bounds_support_and_error() {
        println!("E10: result-size distribution — exact product vs cube-root rebucketing\n");
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xE10);
        let mut t = Table::new(&[
            "b per input",
            "exact support",
            "rebucketed",
            "mean err",
            "unclamped",
            "P(X>t) err",
            "sort EC err",
        ]);
        let m = presets::spread_family(500.0, 0.6, 6).unwrap();
        let mt = DistTables::new(&m);
        let rel = |x: f64, exact: f64| ((x - exact) / exact).abs();
        let mut rows = Vec::new();
        for b in [2usize, 4, 8, 16, 32] {
            let mut worst = [0.0f64; 4];
            let mut exact_support = 0usize;
            let mut reb_support = 0usize;
            let cube = ((b as f64).cbrt().ceil() as usize).max(1);
            for _ in 0..30 {
                let a = rand_dist(&mut rng, b, 100.0, 1e5);
                let bd = rand_dist(&mut rng, b, 100.0, 1e5);
                let sel = rand_dist(&mut rng, b, 1e-8, 1e-5);
                let raw = a.product(&bd).product(&sel);
                let exact = raw.map(|v| v.max(1.0));
                let reb = |d: &Distribution| d.rebucket(cube, Rebucket::EqualDepth).unwrap();
                let raw_approx = reb(&a).product(&reb(&bd)).product(&reb(&sel));
                let approx = raw_approx.map(|v| v.max(1.0));
                exact_support = exact_support.max(exact.len());
                reb_support = reb_support.max(approx.len());
                let thresh = exact.quantile(0.8);
                let [exact_t, approx_t] = [&exact, &approx].map(DistTables::new);
                let ec_exact = lec_cost::expected_sort_cost(&exact_t, &mt);
                let ec_approx = lec_cost::expected_sort_cost(&approx_t, &mt);
                let errs = [
                    rel(approx.mean(), exact.mean()),
                    rel(raw_approx.mean(), raw.mean()),
                    (approx_t.sums().prob_gt(thresh) - exact_t.sums().prob_gt(thresh)).abs(),
                    ((ec_approx - ec_exact) / ec_exact.max(1.0)).abs(),
                ];
                for (w, e) in worst.iter_mut().zip(errs) {
                    *w = w.max(e);
                }
            }
            t.row(vec![
                b.to_string(),
                exact_support.to_string(),
                reb_support.to_string(),
                format!("{:.2e}", worst[0]),
                format!("{:.2e}", worst[1]),
                format!("{:.3}", worst[2]),
                pct(worst[3]),
            ]);
            rows.push((b, cube, reb_support, worst));
        }
        println!("{}", t.render());
        println!("(worst case over 30 random (|A|,|B|,sigma) triples per row; the mean");
        println!(" error is the one-page clamp's — unclamped, the product keeps its mean)\n");

        for &(b, cube, support, [mean, unclamped, _, sort_ec]) in &rows {
            verdict(
                format!("e10 at b = {b}: rebucketed support"),
                Side::AtMost,
                cube.pow(3) as f64,
                0.0,
                support as f64,
            );
            verdict(
                format!("e10 at b = {b}: worst relative mean error"),
                Side::Both,
                0.0,
                1e-6,
                mean,
            );
            verdict(
                format!("e10 at b = {b}: worst unclamped relative mean error"),
                Side::Both,
                0.0,
                1e-12,
                unclamped,
            );
            verdict(
                format!("e10 at b = {b}: worst sort-EC error"),
                Side::Both,
                0.0,
                0.06,
                sort_ec,
            );
        }
        for w in rows.windows(2).filter(|w| w[0].0 >= 4) {
            verdict(
                format!(
                    "e10: worst sort-EC error at b = {} (at b = {})",
                    w[1].0, w[0].0
                ),
                Side::AtMost,
                w[0].3[3],
                0.0,
                w[1].3[3],
            );
        }
    }

    /// E11 — footnote 2 / Example 1.1 premise: the cost cliffs are real.
    /// Measured I/O of actual external-memory operators vs the model,
    /// across a memory sweep.
    ///
    /// Every (operator, m) ratio of measured to modelled I/O lies inside
    /// [`lec_exec::op_band`] of its class, and block nested-loop equals its
    /// formula at every m.  The sort and join ratios move off 1 because the
    /// two count passes differently: the operators count each page read and
    /// written, so a sort-merge that needs one run level reads its inputs,
    /// writes runs and reads them back (3·(|A|+|B|), 480 pages at m = 12)
    /// and one whose inputs fit reads them once (160 at m = 140), while the
    /// formulas charge 2·(|A|+|B|) across the whole upper regime (320), and
    /// the operators' cliffs sit at fan-in boundaries (⌈R/m⌉ ≤ m − 1), not
    /// at √R and ∛R.
    #[test]
    fn e11_measured_io_stays_in_each_operators_band() {
        println!("E11: measured I/O of real operators vs the paper's formulas\n");
        use lec_cost::formulas::{bnl_join_cost, grace_join_cost, sm_join_cost, sort_cost};
        use lec_exec::{external_sort, join, DiskTable};
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
        let mut pairs = Vec::new();
        for m in [4usize, 6, 8, 12, 24, 48, 96, 140] {
            let mf = m as f64;
            let measured = [
                external_sort(&a, 0, m).io,
                join(JoinMethod::SortMerge, &a, &b, (0, 0), m).io,
                join(JoinMethod::GraceHash, &a, &b, (0, 0), m).io,
                join(JoinMethod::BlockNestedLoop, &a, &b, (0, 0), m).io,
            ];
            let model = [
                sort_cost(ap, mf),
                sm_join_cost(ap, bp, mf),
                grace_join_cost(ap, bp, mf),
                bnl_join_cost(ap, bp, mf),
            ];
            let mut row = vec![m.to_string()];
            for (io, model) in measured.iter().zip(model) {
                row.extend([io.to_string(), num(model)]);
            }
            t.row(row);
            pairs.push((m, measured, model));
        }
        println!("{}", t.render());
        println!("cliff positions agree (sqrt/cbrt of input sizes; S+2 for NL); the");
        println!("joins' constants differ by a pass: the operators count each read and");
        println!("write sweep, the formulas charge 2(|A|+|B|) for the upper regime.\n");

        let classes = [
            OpClass::Sort,
            OpClass::SortMerge,
            OpClass::GraceHash,
            OpClass::BlockNestedLoop,
        ];
        for (m, measured, model) in &pairs {
            for ((class, io), model) in classes.iter().zip(measured).zip(model) {
                let (lo, hi) = lec_exec::op_band(*class);
                verdict(
                    format!("e11 at m = {m}: {class:?} measured / model"),
                    Side::Both,
                    (lo + hi) / 2.0,
                    (hi - lo) / 2.0,
                    *io as f64 / model,
                );
            }
            verdict(
                format!("e11 at m = {m}: BNL measured I/O"),
                Side::Both,
                model[3],
                0.0,
                measured[3] as f64,
            );
        }
    }

    /// F1 — Figure 1: the four distributions carried per DP node and what
    /// depends on them, shown live for one node of a 3-way join.  The
    /// streaming EC of each join method, computed from (M, |B_j|, |A_j|),
    /// equals the defining triple sum (`naive_expected_join_cost`) over
    /// the same three distributions to 1e-9 relative.
    #[test]
    fn f1_streaming_ec_equals_the_triple_sum_at_one_node() {
        println!("F1: Figure 1 — per-node distributions of Algorithm D\n");
        let mut ws = batch(9000, 1, 3, 4);
        let w = ws.pop().unwrap();
        let model = CostModel::new(&w.catalog, &w.query);
        let memory = presets::spread_family(400.0, 0.6, 4).unwrap();

        // The node S = {0,1} joined with A_j = table 2 (if connected; else 1).
        let sj = TableSet::from_indices([0, 1]);
        let j = if w.query.is_connected_to(sj, 2) { 2 } else { 1 };
        let sj = TableSet::full(w.query.n_tables()).without(j);
        let (first, second) = (sj.iter().next().unwrap(), sj.iter().nth(1).unwrap());
        let b_outer = model
            .base_pages_dist(first)
            .product(&model.base_pages_dist(second))
            .product(&model.join_selectivity_dist_sets(
                TableSet::singleton(first),
                TableSet::singleton(second),
            ))
            .map(|v| v.max(1.0));
        let a_j = model.base_pages_dist(j);
        let sigma = model.join_selectivity_dist_sets(sj, TableSet::singleton(j));

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
        let mut ec_table = Table::new(&["join method", "EC from (M,|B_j|,|A_j|)", "triple sum"]);
        let [m, b, a] = [&memory, &b_outer, &a_j].map(DistTables::new);
        let mut ecs = Vec::new();
        let node_ecs = expected_join_costs(&b, &a, &m);
        for (method, ec) in JoinMethod::ALL.into_iter().zip(node_ecs) {
            let naive = naive_expected_join_cost(method, &b_outer, &a_j, &memory);
            ec_table.row(vec![method.name().into(), num(ec), num(naive)]);
            ecs.push((method, ec, naive));
        }
        println!("{}", ec_table.render());
        let result = b_outer.product(&a_j).product(&sigma).map(|v| v.max(1.0));
        println!(
            "Pr(|B_j join A_j|) from (|B_j|,|A_j|,sigma): {} buckets, mean {} pages\n",
            result.len(),
            num(result.mean())
        );

        // That node's sizes keep √l above every memory value: only the
        // cheap regime of sort-merge's and Grace's brackets.  Sizes just
        // under and over each memory value's square and cube put √l and
        // ∛l on both sides of the memory support, so the middle
        // (∛l < M ≤ √l) and deep (M ≤ ∛l) regimes are checked too.
        let straddling = |k: f64| {
            let sizes: Vec<f64> = (memory.support().iter())
                .flat_map(|&m| [m * m * k, m * m * m * k])
                .collect();
            Distribution::uniform(&sizes).unwrap()
        };
        let (under, over) = (straddling(0.9), straddling(1.1));
        let nodes = [
            (&under, &over),
            (&over, &under),
            (&b_outer, &over),
            (&under, &a_j),
        ];
        let mut ec_table = Table::new(&["join method (node)", "EC", "triple sum"]);
        for (k, (outer, inner)) in nodes.into_iter().enumerate() {
            let [b, a] = [outer, inner].map(DistTables::new);
            let node_ecs = expected_join_costs(&b, &a, &m);
            for (method, ec) in JoinMethod::ALL.into_iter().zip(node_ecs) {
                let naive = naive_expected_join_cost(method, outer, inner, &memory);
                ecs.push((method, ec, naive));
                ec_table.row(vec![
                    format!("{} (node {k})", method.name()),
                    num(ec),
                    num(naive),
                ]);
            }
        }
        println!("straddling √M and ∛M:\n{}", ec_table.render());

        for (method, ec, naive) in ecs {
            verdict(
                format!("f1: {}'s streaming EC", method.name()),
                Side::Both,
                naive,
                1e-9 * naive.abs(),
                ec,
            );
        }
    }
}

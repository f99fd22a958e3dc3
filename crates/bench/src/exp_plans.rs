//! Experiments E1–E5: plan quality and optimizer overhead, one test each.

#[cfg(test)]
mod tests {
    use crate::table::{num, pct, Table};
    use crate::workloads::{batch, scaling_chain};
    use crate::{search, verdict, Side};
    use lec_core::alg_a::representatives;
    use lec_core::search::TopCPolicy;
    use lec_core::{
        fixtures, run_search_with, FrontierStats, Mode, Optimizer, PlanShape, PointEstimate,
    };
    use lec_cost::{expected_plan_cost_static, oracle, plan_cost_at, CostModel, Objective};
    use lec_prob::presets;
    use std::time::Instant;

    /// E1 — Example 1.1 (§1.1): the full cost table, the LSC choice at the
    /// mean and mode, the LEC choice, and the expected costs.  Stated on
    /// plan cost: LSC at the mode (2000 pages) and at the mean (1740) both
    /// pick a plan of Plan 1's expected cost, the paper's 4.76e6, and
    /// Algorithm C one of Plan 2's, 4.209e6.
    #[test]
    fn e1_lsc_picks_plan_1_and_lec_the_cheaper_plan_2() {
        println!("E1: Example 1.1 — Plan 1 (sort-merge) vs Plan 2 (Grace hash + sort)\n");
        let (catalog, query) = fixtures::example_1_1();
        let memory = fixtures::example_1_1_memory();
        let model = CostModel::new(&catalog, &query);
        let opt = Optimizer::new(&catalog, memory.clone());
        let optimize = |mode| opt.optimize(&query, &mode).unwrap();
        let lsc_mode = optimize(Mode::Lsc(PointEstimate::Mode));
        let lsc_mean = optimize(Mode::Lsc(PointEstimate::Mean));
        let lec = optimize(Mode::AlgorithmC);

        let mut t = Table::new(&["plan", "C(P,2000)", "C(P,700)", "EC(P)"]);
        for (name, plan) in [
            ("Plan1=SM(A,B)", &lsc_mode.plan),
            ("Plan2=Sort(GH(A,B))", &lec.plan),
        ] {
            t.row(vec![
                name.into(),
                num(plan_cost_at(&model, plan, 2000.0)),
                num(plan_cost_at(&model, plan, 700.0)),
                num(expected_plan_cost_static(&model, plan, &memory)),
            ]);
        }
        println!("{}", t.render());
        println!("LSC @ mode(2000): {}", lsc_mode.plan.compact());
        println!("LSC @ mean(1740): {}", lsc_mean.plan.compact());
        println!("LEC (Alg C):      {}", lec.plan.compact());
        let ec1 = expected_plan_cost_static(&model, &lsc_mode.plan, &memory);
        println!(
            "\nLEC saving over the LSC plan in expectation: {}\n",
            pct(1.0 - lec.cost / ec1)
        );

        for (at, lsc) in [("mode", &lsc_mode), ("mean", &lsc_mean)] {
            let ec = expected_plan_cost_static(&model, &lsc.plan, &memory);
            verdict(
                format!("e1: EC of LSC's plan at the {at}"),
                Side::Both,
                4.76e6,
                1e-3,
                ec,
            );
        }
        verdict("e1: EC of LEC's plan", Side::Both, 4.209e6, 1e-3, lec.cost);
    }

    /// E2 — §1/§1.2: "The greater the run-time variation ... the greater
    /// the cost advantage of the LEC plan is likely to be."  Sweep the
    /// spread of a mean-preserving memory family over random workloads.
    ///
    /// At spread 0 memory is a point, so LEC is LSC: no plan differs and
    /// every per-query gain is 0 ± 1e-12.  From there the mean EC gain
    /// rises by at least one percentage point per step (today 13.1, 18.1,
    /// 25.9, 32.0, 40.5%), and the count of differing plans never falls.
    #[test]
    fn e2_lec_advantage_grows_with_spread_from_zero() {
        println!("E2: LEC advantage vs run-time variability (mean-preserving spread)\n");
        let n_queries = 40;
        let spreads = [0.0, 0.2, 0.4, 0.6, 0.8, 0.95];
        let mut t = Table::new(&["spread", "plans differ", "mean EC gain", "max EC gain"]);
        let workloads = batch(1000, n_queries, 4, 1);
        let mut rows = Vec::new();
        for &spread in &spreads {
            let memory = presets::spread_family(400.0, spread, 7).unwrap();
            let mut differs = 0usize;
            let mut gains = Vec::new();
            for w in &workloads {
                let model = CostModel::new(&w.catalog, &w.query);
                let lsc = search(&model, &memory, Mode::Lsc(PointEstimate::Mean));
                let lec = search(&model, &memory, Mode::AlgorithmC);
                let ec = |plan| expected_plan_cost_static(&model, plan, &memory);
                gains.push(1.0 - ec(&lec.plan) / ec(&lsc.plan));
                differs += usize::from(lsc.plan != lec.plan);
            }
            let mean = gains.iter().sum::<f64>() / gains.len() as f64;
            let max = gains.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            t.row(vec![
                format!("{spread:.2}"),
                format!("{differs}/{n_queries}"),
                pct(mean),
                pct(max),
            ]);
            rows.push((spread, differs, mean, gains));
        }
        println!("{}", t.render());
        println!("(spread 0 = the classical point world: LEC must equal LSC)\n");

        let (_, differs, _, gains) = &rows[0];
        verdict(
            "e2 spread 0: plans that differ",
            Side::Both,
            0.0,
            0.0,
            *differs as f64,
        );
        for (i, &gain) in gains.iter().enumerate() {
            verdict(
                format!("e2 spread 0, query {i}: EC gain"),
                Side::Both,
                0.0,
                1e-12,
                gain,
            );
        }
        for w in rows.windows(2) {
            let ((s0, d0, g0, _), (s1, d1, g1, _)) = (&w[0], &w[1]);
            verdict(
                format!("e2: rise of the mean EC gain from spread {s0} to {s1}"),
                Side::AtLeast,
                0.01,
                0.0,
                g1 - g0,
            );
            verdict(
                format!("e2: plans that differ at spread {s1} (at {s0}: {d0})"),
                Side::AtLeast,
                *d0 as f64,
                0.0,
                *d1 as f64,
            );
        }
    }

    /// E3 — §3.2–§3.4: quality ladder of Algorithms A, B(c) and C, every
    /// plan replayed and measured against the oracle's least expected cost.
    /// Algorithm C's plan costs the oracle's optimum on every query, and no
    /// plan of any algorithm replays below it.
    #[test]
    fn e3_c_is_exact_and_no_plan_beats_the_oracle() {
        println!(
            "E3: Algorithm A vs B(c) vs C plan quality against the oracle (n=4, b=6, 30 queries)\n"
        );
        let workloads = batch(2000, 30, 4, 1);
        let memory = presets::spread_family(350.0, 0.85, 6).unwrap();
        let objective = Objective::Static(memory.clone());
        let modes = [
            ("A", Mode::AlgorithmA),
            ("B(c=2)", Mode::AlgorithmB { c: 2 }),
            ("B(c=4)", Mode::AlgorithmB { c: 4 }),
            ("C", Mode::AlgorithmC),
        ];
        // Per mode, EC(plan) / EC(oracle) - 1 on each query.
        let mut gaps = vec![Vec::new(); modes.len()];
        for w in &workloads {
            let model = CostModel::new(&w.catalog, &w.query);
            let best =
                oracle::left_deep(&model, &objective).expect("experiment queries are connected");
            for ((_, mode), gaps) in modes.iter().zip(&mut gaps) {
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
        for ((name, _), gaps) in modes.iter().zip(&gaps) {
            t.row(vec![
                name.to_string(),
                format!("{}/{n_queries}", suboptimal(gaps)),
                pct(avg(gaps)),
                pct(max(gaps)),
                format!("{:.1e}", min(gaps)),
            ]);
        }
        println!("{}", t.render());
        let c_matches = n_queries - suboptimal(&gaps[modes.len() - 1]);
        println!("Algorithm C matched the oracle on {c_matches}/{n_queries} queries.\n");

        verdict(
            "e3: queries on which C matched the oracle",
            Side::Both,
            n_queries as f64,
            0.0,
            c_matches as f64,
        );
        for ((name, _), gaps) in modes.iter().zip(&gaps) {
            verdict(
                format!("e3: {name}'s least gap to the oracle"),
                Side::AtLeast,
                0.0,
                1e-9,
                min(gaps),
            );
        }
    }

    /// E4 — Contribution 3 / Theorem 3.2: optimization overhead is a factor
    /// of the bucket count `b` (and Algorithm B costs ~αb of one
    /// invocation).  A timing table: it prints and asserts nothing, and
    /// runs only when asked (`-- --ignored --nocapture e4`, in release).
    #[test]
    #[ignore = "timing table; run in release with --ignored --nocapture"]
    fn e4_overhead_vs_bucket_count() {
        println!("E4: optimization overhead vs bucket count b (6-table chain)\n");
        let w = scaling_chain(6);

        // Each timed run gets a fresh CostModel so it measures one cold
        // optimization call: the median of 7 runs, with the evals count.
        let time_of = |f: &dyn Fn(&CostModel<'_>) -> u64| {
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
        // Baseline: single-bucket LSC.
        let (t_lsc, e_lsc) = time_of(&|model| {
            let point = lec_prob::Distribution::point(400.0);
            search(model, &point, Mode::LscAt(400.0)).stats.evals
        });

        let mut t = Table::new(&[
            "b",
            "AlgC time",
            "AlgC/LSC",
            "evals ratio",
            "AlgA/LSC",
            "AlgB(c=3)/LSC",
        ]);
        for b in [1usize, 2, 4, 8, 16, 32] {
            let memory = presets::spread_family(400.0, 0.8, b).unwrap();
            let timed =
                |mode: Mode| time_of(&|model| search(model, &memory, mode.clone()).stats.evals);
            let (t_c, e_c) = timed(Mode::AlgorithmC);
            let (t_a, _) = timed(Mode::AlgorithmA);
            let (t_b, _) = timed(Mode::AlgorithmB { c: 3 });
            t.row(vec![
                b.to_string(),
                format!("{t_c:.0}us"),
                format!("{:.1}x", t_c / t_lsc),
                format!("{:.1}x", e_c as f64 / e_lsc as f64),
                format!("{:.1}x", t_a / t_lsc),
                format!("{:.1}x", t_b / t_lsc),
            ]);
        }
        println!("{}", t.render());
        println!("LSC baseline: {t_lsc:.0}us, {e_lsc} cost-formula evaluations.\n");
    }

    /// E4, counted — Theorem 3.2 in the paper's units, cost-formula
    /// evaluations (§3.4), on e4's chain at b ∈ {1, …, 32}.  Algorithm C
    /// makes between 0.9·b and b times LSC's (every distinct size pair of
    /// the search priced at `b` buckets, every access path once).
    /// Algorithms A and B(3) make exactly what their parts make: one
    /// single-lane top-`c` search per memory representative (`c` = 1 for
    /// A) and one replay of each distinct root they rank.
    #[test]
    fn e4_evaluations_grow_as_the_bucket_count() {
        println!("E4 counted: cost-formula evaluations vs bucket count b (6-table chain)\n");
        let w = scaling_chain(6);
        let model = CostModel::new(&w.catalog, &w.query);
        let lsc = search(
            &model,
            &lec_prob::Distribution::point(400.0),
            Mode::LscAt(400.0),
        )
        .stats;
        // One top-`c` search per representative, then one replay of each
        // distinct root: what A (c = 1) and B(c) are built from.
        let parts = |memory: &lec_prob::Distribution, c: usize| {
            let (mut evals, mut roots) = (0, Vec::new());
            for m in representatives(memory) {
                let mut policy = TopCPolicy::new(m, c);
                let run = run_search_with(&model, PlanShape::LeftDeep, &mut policy).unwrap();
                evals += run.stats.evals;
                for root in &run.roots {
                    let plan = run.plans.node(root.plan);
                    if !roots.contains(&plan) {
                        roots.push(plan);
                    }
                }
            }
            model.reset_evals();
            for plan in &roots {
                expected_plan_cost_static(&model, plan, memory);
            }
            evals + model.evals()
        };
        let mut t = Table::new(&[
            "b",
            "C/LSC/b",
            "evals C / A / B(3)",
            "nodes C / A / B(3)",
            "candidates C / A / B(3)",
        ]);
        let mut rows = Vec::new();
        for b in [1usize, 2, 4, 8, 16, 32] {
            let memory = presets::spread_family(400.0, 0.8, b).unwrap();
            let c = search(&model, &memory, Mode::AlgorithmC).stats;
            let a = search(&model, &memory, Mode::AlgorithmA).stats;
            let b3 = search(&model, &memory, Mode::AlgorithmB { c: 3 }).stats;
            let per_bucket = c.evals as f64 / lsc.evals as f64 / b as f64;
            let three = |f: fn(&lec_core::SearchStats) -> u64| {
                format!("{} / {} / {}", f(&c), f(&a), f(&b3))
            };
            t.row(vec![
                b.to_string(),
                format!("{per_bucket:.3}"),
                three(|s| s.evals),
                three(|s| s.nodes as u64),
                three(|s| s.candidates),
            ]);
            let (a_want, b_want) = (parts(&memory, 1), parts(&memory, 3));
            rows.push((b, per_bucket, (a.evals, a_want), (b3.evals, b_want)));
        }
        println!("{}", t.render());
        println!("LSC at 400: {} cost-formula evaluations.\n", lsc.evals);

        for (b, per_bucket, (a, a_want), (b3, b_want)) in rows {
            let at = format!("e4 at b = {b}");
            let ratio = format!("{at}: C evals / (b · LSC's)");
            verdict(&ratio, Side::AtLeast, 0.9, 0.0, per_bucket);
            verdict(&ratio, Side::AtMost, 1.0, 0.0, per_bucket);
            for (alg, want, got) in [("A", a_want, a), ("B(3)", b_want, b3)] {
                let what = format!("{at}: {alg} evals");
                verdict(what, Side::Both, want as f64, 0.0, got as f64);
            }
        }
    }

    /// E5 — Proposition 3.1: combinations examined per (node, j, method)
    /// group in Algorithm B stay within `c + c·log c`, at every `c`.
    #[test]
    fn e5_top_c_stays_within_prop_3_1() {
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
        let mut rows = Vec::new();
        for c in [1usize, 2, 3, 5, 8, 13, 21] {
            // Algorithm B's counters: one top-c run per memory representative.
            let mut f = FrontierStats::default();
            for m in representatives(&memory) {
                let mut policy = TopCPolicy::new(m, c);
                run_search_with(&model, PlanShape::LeftDeep, &mut policy).unwrap();
                f.combinations_examined += policy.frontier.combinations_examined;
                f.bound_total = f.bound_total.saturating_add(policy.frontier.bound_total);
                f.groups += policy.frontier.groups;
            }
            let per_group = f.combinations_examined as f64 / f.groups as f64;
            let bound = c as f64 + c as f64 * (c as f64).ln();
            t.row(vec![
                c.to_string(),
                f.groups.to_string(),
                format!("{per_group:.2}"),
                format!("{bound:.2}"),
                (f.combinations_examined <= f.bound_total).to_string(),
            ]);
            rows.push((c, f));
        }
        println!("{}", t.render());
        println!("(examined/group is below the bound; our inner lists are short —");
        println!(" at most seq+index per table — so the frontier is rarely saturated)\n");

        for (c, f) in rows {
            verdict(
                format!("e5 at c = {c}: combinations examined"),
                Side::AtMost,
                f.bound_total as f64,
                0.0,
                f.combinations_examined as f64,
            );
        }
    }
}

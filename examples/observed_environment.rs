//! Closing the loop on §3.1's first question — "How do we get the
//! probability distributions?": observe memory traces the way a DBMS
//! would, fit a Markov chain and initial distribution, and optimize with
//! the fitted beliefs.
//!
//! ```text
//! cargo run --example observed_environment --release
//! ```

use lec_qopt::core::{fixtures, optimize, Mode, SearchConfig};
use lec_qopt::cost::{expected_plan_cost_dynamic, CostModel};
use lec_qopt::prob::{fit, Distribution, MarkovChain, Rebucket};
use rand::SeedableRng;

fn main() {
    // The TRUE environment (unknown to the optimizer): memory decays.
    let states = vec![80.0, 240.0, 720.0, 2160.0];
    let truth_chain = MarkovChain::birth_death(states.clone(), 0.4, 0.15).unwrap();
    let truth_init = Distribution::bimodal(240.0, 2160.0, 0.75).unwrap();
    let init_probs = truth_chain.dist_to_probs(&truth_init).unwrap();

    // The DBMS logs per-phase memory for 60 past executions.
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let traces: Vec<Vec<f64>> = (0..60)
        .map(|_| truth_chain.sample_path(&init_probs, 6, &mut rng))
        .collect();
    println!("observed {} traces of 6 phases each", traces.len());

    // Fit states, chain, and initial distribution from the log.
    let pooled: Vec<f64> = traces.iter().flatten().copied().collect();
    let state_dist = fit::fit_distribution(&pooled, 4, Rebucket::EqualDepth).unwrap();
    let chain = fit::fit_markov(&traces, state_dist.support().to_vec()).unwrap();
    let initial = fit::fit_initial(&traces, &chain).unwrap();
    println!(
        "fitted states: {:?}",
        chain.states().iter().map(|s| s.round()).collect::<Vec<_>>()
    );
    println!(
        "fitted initial: {:?}",
        initial
            .iter()
            .map(|(v, p)| format!("{:.0}@{:.2}", v, p))
            .collect::<Vec<_>>()
    );

    // Optimize the three-table chain with fitted beliefs.
    let (catalog, query) = fixtures::three_chain();
    let model = CostModel::new(&catalog, &query);
    let fitted = optimize(
        &model,
        &initial,
        &Mode::AlgorithmCDynamic {
            chain: chain.clone(),
        },
        &SearchConfig::default(),
    )
    .unwrap();
    let oracle = optimize(
        &model,
        &truth_init,
        &Mode::AlgorithmCDynamic {
            chain: truth_chain.clone(),
        },
        &SearchConfig::default(),
    )
    .unwrap();

    // Judge both under the TRUE environment.
    let fitted_true_ec =
        expected_plan_cost_dynamic(&model, &fitted.plan, &truth_init, &truth_chain).unwrap();
    println!("\nplan from fitted beliefs: {}", fitted.plan.compact());
    println!("plan from the true model: {}", oracle.plan.compact());
    println!(
        "true expected cost, fitted-belief plan: {:>12.0}",
        fitted_true_ec
    );
    println!(
        "true expected cost, oracle plan:        {:>12.0}",
        oracle.cost
    );
    println!(
        "regret from estimation: {:.2}%",
        (fitted_true_ec / oracle.cost - 1.0) * 100.0
    );
}

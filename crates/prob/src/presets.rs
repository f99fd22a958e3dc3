//! Ready-made parameter distributions used throughout the experiments.
//!
//! The paper obtains its memory distribution "by observing the actual query
//! execution environment" (\[Loh98\] personal communication).  We have no such
//! observations, so — per the reproduction's substitution rule — we provide
//! parametric families that exercise the same code paths: a point mass (the
//! classical optimizer's assumption), the paper's bimodal example, uniform
//! grids, and a *spread family* whose single knob controls run-time
//! variability (the quantity the paper predicts governs the LEC advantage).

use crate::dist::Distribution;
use crate::error::ProbError;

/// The exact memory distribution of Example 1.1:
/// 2000 pages with probability 0.8, 700 pages with probability 0.2.
pub fn example_1_1_memory() -> Distribution {
    Distribution::bimodal(700.0, 2000.0, 0.8).expect("static example distribution")
}

/// Uniform distribution over an inclusive arithmetic grid of `n >= 1` points.
pub fn uniform_grid(lo: f64, hi: f64, n: usize) -> Result<Distribution, ProbError> {
    if n == 0 {
        return Err(ProbError::EmptySupport);
    }
    if n == 1 {
        return Ok(Distribution::point((lo + hi) / 2.0));
    }
    let step = (hi - lo) / (n - 1) as f64;
    Distribution::uniform(&(0..n).map(|i| lo + step * i as f64).collect::<Vec<_>>())
}

/// A family of distributions centered (in mean) at `center` whose relative
/// spread is controlled by `spread` in `[0, 1)`.
///
/// `spread = 0` yields the point mass `center` (the classical optimizer's
/// world); larger values spread `n` equally likely representatives over
/// `[center·(1-spread), center·(1+spread)]`.  Means are equal across the
/// family, so an LSC optimizer using the mean sees *identical* inputs while
/// the true environment varies — precisely the failure mode of §1.1.
pub fn spread_family(center: f64, spread: f64, n: usize) -> Result<Distribution, ProbError> {
    assert!(center > 0.0, "center must be positive");
    assert!((0.0..1.0).contains(&spread), "spread must be in [0,1)");
    if spread == 0.0 || n <= 1 {
        return Ok(Distribution::point(center));
    }
    uniform_grid(center * (1.0 - spread), center * (1.0 + spread), n)
}

/// Selectivity distribution: `n` representatives log-uniformly spread over
/// `[lo, hi] ⊆ (0, 1]`, uniformly likely.
///
/// Selectivities are "notoriously uncertain" (§3.6); a log-uniform support
/// reflects that they are uncertain in *order of magnitude*.
pub fn selectivity_band(lo: f64, hi: f64, n: usize) -> Result<Distribution, ProbError> {
    assert!(0.0 < lo && lo <= hi && hi <= 1.0, "need 0 < lo <= hi <= 1");
    if n <= 1 || lo == hi {
        return Ok(Distribution::point((lo * hi).sqrt()));
    }
    let (llo, lhi) = (lo.ln(), hi.ln());
    let step = (lhi - llo) / (n - 1) as f64;
    Distribution::uniform(
        &(0..n)
            .map(|i| (llo + step * i as f64).exp())
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_memory_matches_paper() {
        let d = example_1_1_memory();
        assert_eq!(d.support(), &[700.0, 2000.0]);
        assert!((d.mean() - 1740.0).abs() < 1e-9);
        assert_eq!(d.mode(), 2000.0);
    }

    #[test]
    fn uniform_grid_shape() {
        let d = uniform_grid(100.0, 200.0, 5).unwrap();
        assert_eq!(d.support(), &[100.0, 125.0, 150.0, 175.0, 200.0]);
        assert!((d.mean() - 150.0).abs() < 1e-9);
        assert!(uniform_grid(1.0, 2.0, 0).is_err());
        assert!(uniform_grid(100.0, 200.0, 1).unwrap().is_point());
    }

    #[test]
    fn spread_family_keeps_the_mean_fixed() {
        for spread in [0.0, 0.1, 0.5, 0.9] {
            let d = spread_family(1000.0, spread, 7).unwrap();
            assert!(
                (d.mean() - 1000.0).abs() < 1e-6,
                "spread {spread}: mean {}",
                d.mean()
            );
        }
        assert!(spread_family(1000.0, 0.0, 7).unwrap().is_point());
    }

    #[test]
    fn spread_family_variance_increases_with_spread() {
        let mut last = -1.0;
        for spread in [0.0, 0.2, 0.4, 0.6, 0.8] {
            let d = spread_family(1000.0, spread, 9).unwrap();
            let v = d.expect(|x| (x - d.mean()) * (x - d.mean()));
            assert!(v >= last, "variance must be monotone in spread");
            last = v;
        }
    }

    #[test]
    fn selectivity_band_is_log_spaced_and_valid() {
        let d = selectivity_band(1e-4, 1e-1, 4).unwrap();
        assert_eq!(d.len(), 4);
        for (v, _) in d.iter() {
            assert!(v > 0.0 && v <= 1.0);
        }
        // Log-uniform: successive ratios equal.
        let s = d.support();
        let r1 = s[1] / s[0];
        let r2 = s[2] / s[1];
        assert!((r1 - r2).abs() < 1e-9);
        assert!(selectivity_band(0.5, 0.5, 10).unwrap().is_point());
    }
}

//! Prefix tables: the O(b) preprocessing behind the paper's linear-time
//! expected-cost algorithms (§3.6.1, §3.6.2).
//!
//! The paper's trick is to precompute, in one pass over a distribution's
//! buckets, running tables of `Pr(X <= x)` and the *partial* expectation
//! `E[X · 1{X <= x}]` so that every later query — `Pr(M > √b)`,
//! `E(|A| : |A| <= b)`, `E(|B| : a <= |B|)`, … — costs `O(log b)` (or `O(1)`
//! when walked in order).  [`PrefixTables`] is that one-pass preprocessing.

use crate::dist::Distribution;

/// Cumulative tables over a [`Distribution`], built in `O(b)`.
///
/// `cum_prob[i]` is `Pr(X <= support[i])` and `cum_vp[i]` is
/// `Σ_{j<=i} v_j·p_j` (the truncated first moment).  All query methods are
/// binary searches over these arrays.
#[derive(Debug, Clone)]
pub struct PrefixTables {
    support: Vec<f64>,
    cum_prob: Vec<f64>,
    cum_vp: Vec<f64>,
}

impl PrefixTables {
    /// Build the tables in a single pass over the distribution.
    pub fn new(dist: &Distribution) -> Self {
        let n = dist.len();
        let mut cum_prob = Vec::with_capacity(n);
        let mut cum_vp = Vec::with_capacity(n);
        let mut acc_p = 0.0;
        let mut acc_vp = 0.0;
        for (v, p) in dist.iter() {
            acc_p += p;
            acc_vp += v * p;
            cum_prob.push(acc_p);
            cum_vp.push(acc_vp);
        }
        PrefixTables {
            support: dist.support().to_vec(),
            cum_prob,
            cum_vp,
        }
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.support.len()
    }

    /// Always false (distributions are non-empty).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total mean `E[X]` (last entry of the truncated-moment table).
    pub fn mean(&self) -> f64 {
        *self.cum_vp.last().expect("non-empty tables")
    }

    /// `Pr(X <= x)`.
    pub fn prob_le(&self, x: f64) -> f64 {
        match self.support.partition_point(|&v| v <= x) {
            0 => 0.0,
            i => self.cum_prob[i - 1],
        }
    }

    /// `Pr(X < x)`.
    pub fn prob_lt(&self, x: f64) -> f64 {
        match self.support.partition_point(|&v| v < x) {
            0 => 0.0,
            i => self.cum_prob[i - 1],
        }
    }

    /// `Pr(X >= x)`.
    pub fn prob_ge(&self, x: f64) -> f64 {
        1.0 - self.prob_lt(x)
    }

    /// `Pr(X > x)`.
    pub fn prob_gt(&self, x: f64) -> f64 {
        1.0 - self.prob_le(x)
    }

    /// Partial (truncated) expectation `E[X · 1{X <= x}]`.
    ///
    /// This is the quantity the paper manipulates as
    /// `E(|A| : |A| <= b)·Pr(|A| <= b)`; keeping it un-normalized is what
    /// makes the running update `E(≤b') = E(≤b) + E(b<·≤b')` a plain sum.
    pub fn partial_expect_le(&self, x: f64) -> f64 {
        match self.support.partition_point(|&v| v <= x) {
            0 => 0.0,
            i => self.cum_vp[i - 1],
        }
    }

    /// Partial expectation `E[X · 1{X >= x}]`.
    pub fn partial_expect_ge(&self, x: f64) -> f64 {
        self.mean() - self.partial_expect_lt(x)
    }

    /// Partial expectation `E[X · 1{X < x}]`.
    pub fn partial_expect_lt(&self, x: f64) -> f64 {
        match self.support.partition_point(|&v| v < x) {
            0 => 0.0,
            i => self.cum_vp[i - 1],
        }
    }

    /// Partial expectation `E[X · 1{X > x}]`.
    pub fn partial_expect_gt(&self, x: f64) -> f64 {
        self.mean() - self.partial_expect_le(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist() -> Distribution {
        Distribution::from_pairs([(1.0, 0.1), (2.0, 0.2), (5.0, 0.3), (9.0, 0.4)]).unwrap()
    }

    #[test]
    fn tables_match_direct_computation() {
        let d = dist();
        let t = PrefixTables::new(&d);
        for x in [0.0, 1.0, 1.5, 2.0, 4.9, 5.0, 8.0, 9.0, 100.0] {
            assert!((t.prob_le(x) - d.prob_le(x)).abs() < 1e-12, "prob_le({x})");
            assert!((t.prob_lt(x) - d.prob_lt(x)).abs() < 1e-12, "prob_lt({x})");
            assert!((t.prob_ge(x) - d.prob_ge(x)).abs() < 1e-12, "prob_ge({x})");
            assert!((t.prob_gt(x) - d.prob_gt(x)).abs() < 1e-12, "prob_gt({x})");
            let direct: f64 = d.iter().filter(|&(v, _)| v <= x).map(|(v, p)| v * p).sum();
            assert!(
                (t.partial_expect_le(x) - direct).abs() < 1e-12,
                "partial_expect_le({x})"
            );
        }
    }

    #[test]
    fn mean_agrees() {
        let d = dist();
        let t = PrefixTables::new(&d);
        assert!((t.mean() - d.mean()).abs() < 1e-12);
    }

    #[test]
    fn partial_expectations_partition_the_mean() {
        let t = PrefixTables::new(&dist());
        for x in [0.5, 2.0, 5.0, 9.0, 10.0] {
            let le = t.partial_expect_le(x);
            let gt = t.partial_expect_gt(x);
            assert!((le + gt - t.mean()).abs() < 1e-12);
            let lt = t.partial_expect_lt(x);
            let ge = t.partial_expect_ge(x);
            assert!((lt + ge - t.mean()).abs() < 1e-12);
        }
    }
}

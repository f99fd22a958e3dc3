//! Prefix tables: the O(b) preprocessing behind the paper's linear-time
//! expected-cost algorithms (§3.6.1, §3.6.2).
//!
//! The paper's trick is to precompute, in one pass over a distribution's
//! buckets, running tables of `Pr(X <= x)` and the *partial* expectation
//! `E[X · 1{X <= x}]` so that every later query — `Pr(M > √b)`,
//! `E(|A| : |A| <= b)`, `E(|B| : a <= |B|)`, … — costs `O(log b)`: a
//! binary search for a position in the support
//! ([`PrefixTables::count_le`], [`PrefixTables::count_lt`]), read off the
//! tables ([`PrefixTables::prob_first`], [`PrefixTables::expect_first`]),
//! once for every quantity at that position.
//! [`PrefixTables::accumulate`] is the one-pass preprocessing; the tables
//! live with their owner, beside the support they index, and
//! [`PrefixTables`] borrows the three.

/// Cumulative tables over a distribution's buckets, borrowed from their
/// owner.
///
/// `cum_prob[i]` is `Pr(X <= support[i])` and `cum_vp[i]` is
/// `Σ_{j<=i} v_j·p_j` (the truncated first moment).  The by-value queries
/// are binary searches over the support.
#[derive(Debug, Clone, Copy)]
pub struct PrefixTables<'a> {
    support: &'a [f64],
    cum_prob: &'a [f64],
    cum_vp: &'a [f64],
}

impl<'a> PrefixTables<'a> {
    /// Write the running sums of `buckets` (`(value, probability)` by
    /// increasing value) into `cum_prob` and `cum_vp`, in one pass.
    pub fn accumulate(
        buckets: impl Iterator<Item = (f64, f64)>,
        cum_prob: &mut [f64],
        cum_vp: &mut [f64],
    ) {
        let mut acc_p = 0.0;
        let mut acc_vp = 0.0;
        for (((v, p), cp), cv) in buckets.zip(cum_prob).zip(cum_vp) {
            acc_p += p;
            acc_vp += v * p;
            *cp = acc_p;
            *cv = acc_vp;
        }
    }

    /// The tables over a non-empty `support` whose running sums
    /// [`Self::accumulate`] wrote into `cum_prob` and `cum_vp`.
    pub fn new(support: &'a [f64], cum_prob: &'a [f64], cum_vp: &'a [f64]) -> Self {
        assert!(!support.is_empty(), "prefix tables need a bucket");
        assert!(
            cum_prob.len() == support.len() && cum_vp.len() == support.len(),
            "one running sum per support value"
        );
        PrefixTables {
            support,
            cum_prob,
            cum_vp,
        }
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.support.len()
    }

    /// Always false (the tables have a bucket).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total mean `E[X]` (last entry of the truncated-moment table).
    pub fn mean(&self) -> f64 {
        *self.cum_vp.last().expect("non-empty tables")
    }

    /// The number of support values `<= x`: the position at which
    /// [`Self::prob_first`] and [`Self::expect_first`] read `Pr(X <= x)`
    /// and `E[X · 1{X <= x}]`.
    pub fn count_le(&self, x: f64) -> usize {
        self.support.partition_point(|&v| v <= x)
    }

    /// The number of support values `< x`.
    pub fn count_lt(&self, x: f64) -> usize {
        self.support.partition_point(|&v| v < x)
    }

    /// The probability of the first `i` buckets.
    pub fn prob_first(&self, i: usize) -> f64 {
        match i {
            0 => 0.0,
            i => self.cum_prob[i - 1],
        }
    }

    /// The partial expectation `E[X · 1{X in the first i buckets}]`.
    pub fn expect_first(&self, i: usize) -> f64 {
        match i {
            0 => 0.0,
            i => self.cum_vp[i - 1],
        }
    }

    /// `Pr(X <= x)`.
    pub fn prob_le(&self, x: f64) -> f64 {
        self.prob_first(self.count_le(x))
    }

    /// `Pr(X < x)`.
    pub fn prob_lt(&self, x: f64) -> f64 {
        self.prob_first(self.count_lt(x))
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
        self.expect_first(self.count_le(x))
    }

    /// Partial expectation `E[X · 1{X >= x}]`.
    pub fn partial_expect_ge(&self, x: f64) -> f64 {
        self.mean() - self.partial_expect_lt(x)
    }

    /// Partial expectation `E[X · 1{X < x}]`.
    pub fn partial_expect_lt(&self, x: f64) -> f64 {
        self.expect_first(self.count_lt(x))
    }

    /// Partial expectation `E[X · 1{X > x}]`.
    pub fn partial_expect_gt(&self, x: f64) -> f64 {
        self.mean() - self.partial_expect_le(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Distribution;

    /// `d`'s running sums, for [`PrefixTables::new`].
    fn sums(d: &Distribution) -> (Vec<f64>, Vec<f64>) {
        let (mut cum_prob, mut cum_vp) = (vec![0.0; d.len()], vec![0.0; d.len()]);
        PrefixTables::accumulate(d.iter(), &mut cum_prob, &mut cum_vp);
        (cum_prob, cum_vp)
    }

    fn dist() -> Distribution {
        Distribution::from_pairs([(1.0, 0.1), (2.0, 0.2), (5.0, 0.3), (9.0, 0.4)]).unwrap()
    }

    #[test]
    fn tables_match_direct_computation() {
        let d = dist();
        let (cp, cv) = sums(&d);
        let t = PrefixTables::new(d.support(), &cp, &cv);
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
        let (cp, cv) = sums(&d);
        let t = PrefixTables::new(d.support(), &cp, &cv);
        assert!((t.mean() - d.mean()).abs() < 1e-12);
    }

    #[test]
    fn partial_expectations_partition_the_mean() {
        let d = dist();
        let (cp, cv) = sums(&d);
        let t = PrefixTables::new(d.support(), &cp, &cv);
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

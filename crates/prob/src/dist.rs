//! Bucketed discrete probability distributions.
//!
//! The PODS'99 paper models every uncertain parameter (available memory,
//! relation sizes, predicate selectivities) as a distribution over a small
//! number of *buckets*, each represented by a single value (§3.2: "we pick a
//! representative from each bucket ... Pr(m_i) characterizes how likely we
//! are to run the query in the i-th bucket").  [`Distribution`] is exactly
//! that object: a finite support of strictly increasing representatives with
//! strictly positive probabilities summing to one.

use crate::error::ProbError;
use rand::Rng;

/// Relative tolerance used when merging near-identical support values that
/// arise from floating-point products (e.g. `|A|·|B|·σ` computed in two
/// different orders).
const MERGE_EPS: f64 = 1e-9;

/// A finite discrete probability distribution over `f64` values.
///
/// Invariants (enforced by every constructor):
/// * the support is non-empty, finite, and strictly increasing;
/// * every probability is finite and strictly positive;
/// * probabilities sum to 1 (inputs are normalized).
///
/// In the paper's terminology each `(value, prob)` pair is a bucket with its
/// representative; the statement `X = x` abbreviates "X falls in the bucket
/// represented by x" (footnote 3).
#[derive(Debug, Clone, PartialEq)]
pub struct Distribution {
    support: Vec<f64>,
    probs: Vec<f64>,
}

/// Strategy for reducing the number of buckets of a distribution (§3.6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rebucket {
    /// Split `[min, max]` into equal-width intervals; each new bucket gets
    /// the contained mass and the mass-weighted mean as representative.
    EqualWidth,
    /// Equi-depth (quantile) buckets: successive buckets receive roughly
    /// `1/n` of the total mass each.
    EqualDepth,
}

impl Distribution {
    /// A degenerate (point-mass) distribution.
    ///
    /// The paper observes that with a single bucket every LEC algorithm
    /// collapses to the classical System R optimizer; point masses are how
    /// that collapse is expressed in this crate.
    pub fn point(value: f64) -> Self {
        assert!(value.is_finite(), "point mass must be finite, got {value}");
        Distribution {
            support: vec![value],
            probs: vec![1.0],
        }
    }

    /// Build a distribution from `(value, probability)` pairs.
    ///
    /// Pairs are sorted by value, near-duplicate values are merged, zero
    /// probabilities are dropped, and the result is normalized to total mass
    /// one ([`normalize_pairs`]).  Returns an error for
    /// empty/non-finite/negative input.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (f64, f64)>) -> Result<Self, ProbError> {
        let mut pairs: Vec<(f64, f64)> = pairs.into_iter().collect();
        normalize_pairs(&mut pairs)?;
        Ok(Self::from_normalized(&pairs))
    }

    /// The distribution whose buckets `pairs` are, as [`normalize_pairs`]
    /// leaves them.
    fn from_normalized(pairs: &[(f64, f64)]) -> Self {
        Distribution {
            support: pairs.iter().map(|&(v, _)| v).collect(),
            probs: pairs.iter().map(|&(_, p)| p).collect(),
        }
    }

    /// Rebuild a distribution from parts previously read out of
    /// [`Self::support`] and [`Self::probs`] — *without* renormalizing.
    ///
    /// [`Self::from_pairs`] divides every probability by the total mass,
    /// and for an already-normalized input that division is not guaranteed
    /// to be the identity at the bit level (the sum may be `1.0 ± 1ulp`).
    /// Wire codecs that must round-trip a distribution bit-exactly — the
    /// serving daemon's byte-identity bar extends across the socket — use
    /// this constructor instead.  The invariants are still *checked*
    /// (parallel lengths, strictly increasing finite support, strictly
    /// positive finite probabilities, total mass within `1e-6` of one);
    /// only the normalization rewrite is skipped.
    pub fn from_parts_exact(support: Vec<f64>, probs: Vec<f64>) -> Result<Self, ProbError> {
        check_parts(support.iter().copied(), probs.iter().copied())?;
        Ok(Distribution { support, probs })
    }

    /// [`Self::from_parts_exact`] in place: the parts are checked first,
    /// then copied into `self`'s buffers, whose capacity is reused.  On an
    /// error nothing is written, so `self` stays the valid distribution it
    /// was.
    pub fn assign_parts_exact<S, P>(&mut self, support: S, probs: P) -> Result<(), ProbError>
    where
        S: ExactSizeIterator<Item = f64> + Clone,
        P: ExactSizeIterator<Item = f64> + Clone,
    {
        check_parts(support.clone(), probs.clone())?;
        self.support.clear();
        self.support.extend(support);
        self.probs.clear();
        self.probs.extend(probs);
        Ok(())
    }

    /// Uniform distribution over the given values.
    pub fn uniform(values: &[f64]) -> Result<Self, ProbError> {
        Self::from_pairs(values.iter().map(|&v| (v, 1.0)))
    }

    /// Two-point distribution: `hi` with probability `p_hi`, `lo` otherwise.
    ///
    /// This is the shape of the paper's motivating memory distribution
    /// (Example 1.1: 2000 pages 80% of the time, 700 pages 20%).
    pub fn bimodal(lo: f64, hi: f64, p_hi: f64) -> Result<Self, ProbError> {
        Self::from_pairs([(lo, 1.0 - p_hi), (hi, p_hi)])
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.support.len()
    }

    /// True when the distribution is a single point mass.
    pub fn is_point(&self) -> bool {
        self.support.len() == 1
    }

    /// Always false: constructors reject empty supports.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The strictly increasing bucket representatives (the paper's `Val(X)`).
    pub fn support(&self) -> &[f64] {
        &self.support
    }

    /// Bucket probabilities, parallel to [`Self::support`].
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Iterate over `(value, probability)` pairs in increasing value order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (f64, f64)> + Clone + '_ {
        self.support.iter().copied().zip(self.probs.iter().copied())
    }

    /// Smallest support value.
    pub fn min_value(&self) -> f64 {
        self.support[0]
    }

    /// Largest support value.
    pub fn max_value(&self) -> f64 {
        *self.support.last().expect("non-empty support")
    }

    /// Expected value `E[X]`.
    pub fn mean(&self) -> f64 {
        self.iter().map(|(v, p)| v * p).sum()
    }

    /// Modal value: the representative with the largest probability.
    ///
    /// Ties are broken toward the larger value; the choice only matters for
    /// the LSC baseline, which the paper parameterizes by "mean or modal
    /// value" without specifying tie-breaks.
    pub fn mode(&self) -> f64 {
        let mut best = (self.support[0], self.probs[0]);
        for (v, p) in self.iter() {
            if p >= best.1 {
                best = (v, p);
            }
        }
        best.0
    }

    /// Expectation of an arbitrary function of the value: `E[f(X)]`.
    ///
    /// This is the paper's fundamental quantity
    /// `EC(P) = Σ_v C(P, v)·Pr(v)` specialized to one parameter.
    pub fn expect(&self, mut f: impl FnMut(f64) -> f64) -> f64 {
        self.iter().map(|(v, p)| f(v) * p).sum()
    }

    /// Smallest support value `v` with `Pr(X <= v) >= q` (a quantile).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
        let mut acc = 0.0;
        for (v, p) in self.iter() {
            acc += p;
            if acc + 1e-12 >= q {
                return v;
            }
        }
        self.max_value()
    }

    /// Apply `f` to every support value (probabilities are carried along and
    /// coinciding images are merged).  `f` need not be monotone.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Distribution {
        Distribution::from_pairs(self.iter().map(|(v, p)| (f(v), p)))
            .expect("mapping a valid distribution preserves validity")
    }

    /// Distribution of `X · Y` for independent `X` (self) and `Y` (other).
    ///
    /// This is the §3.6.3 product used for result sizes `|A|·|B|·σ`; the
    /// support may grow to `|X|·|Y|` buckets, which callers keep in check
    /// with [`Self::rebucket`].
    pub fn product(&self, other: &Distribution) -> Distribution {
        let mut pairs = Vec::with_capacity(self.len() * other.len());
        product_pairs(self.iter(), other.iter(), &mut pairs);
        normalize_pairs(&mut pairs).expect("product of valid distributions is valid");
        Self::from_normalized(&pairs)
    }

    /// Reduce to at most `n` buckets (§3.6.3).
    ///
    /// Both strategies preserve total mass exactly and the mean exactly
    /// (each coarse bucket's representative is the conditional mean of the
    /// mass it absorbs).  What is lost is resolution: `Pr(X <= t)` may move
    /// by up to the mass of the bucket straddling `t`.
    pub fn rebucket(&self, n: usize, strategy: Rebucket) -> Result<Distribution, ProbError> {
        let mut pairs = Vec::with_capacity(self.len().min(n));
        rebucket_pairs(self.iter(), n, strategy, &mut pairs)?;
        Ok(Self::from_normalized(&pairs))
    }

    /// Draw a sample using inverse-CDF sampling.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (v, p) in self.iter() {
            acc += p;
            if u < acc {
                return v;
            }
        }
        self.max_value() // guard against accumulated rounding
    }
}

/// [`Distribution::from_pairs`]' normalization, in place on a caller's
/// buffer: check every pair (a finite value, a finite non-negative
/// probability), stably sort by value, fold each value within the merge
/// tolerance of its group's first value into that group, drop zero
/// probabilities and divide by the total.  `pairs` ends as the
/// distribution's buckets, `(value, probability)` by increasing value.
/// Every allocating constructor and transform runs through it, so a chain
/// of transforms kept in scratch buffers has the bits of the distributions
/// it stands for.  On an error `pairs` holds no distribution.
pub fn normalize_pairs(pairs: &mut Vec<(f64, f64)>) -> Result<(), ProbError> {
    if pairs.is_empty() {
        return Err(ProbError::EmptySupport);
    }
    for &(v, p) in pairs.iter() {
        if !v.is_finite() {
            return Err(ProbError::NonFinite {
                what: "support value",
                value: v,
            });
        }
        if !p.is_finite() {
            return Err(ProbError::NonFinite {
                what: "probability",
                value: p,
            });
        }
        if p < 0.0 {
            return Err(ProbError::NegativeProbability(p));
        }
    }
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut kept = 0;
    for i in 0..pairs.len() {
        let (v, p) = pairs[i];
        if p == 0.0 {
            continue;
        }
        match kept {
            0 => {}
            _ if nearly_equal(pairs[kept - 1].0, v) => {
                pairs[kept - 1].1 += p;
                continue;
            }
            _ => {}
        }
        pairs[kept] = (v, p);
        kept += 1;
    }
    pairs.truncate(kept);
    let total: f64 = pairs.iter().map(|&(_, p)| p).sum();
    if pairs.is_empty() || total <= 0.0 {
        return Err(ProbError::ZeroTotalMass);
    }
    for (_, p) in pairs.iter_mut() {
        *p /= total;
    }
    Ok(())
}

/// Append the pairs of `X · Y` for independent `X` and `Y` given by their
/// buckets, `x`'s value major: what [`Distribution::product`] normalizes.
pub fn product_pairs(
    x: impl Iterator<Item = (f64, f64)>,
    y: impl Iterator<Item = (f64, f64)> + Clone,
    out: &mut Vec<(f64, f64)>,
) {
    for (a, pa) in x {
        out.extend(y.clone().map(|(b, pb)| (a * b, pa * pb)));
    }
}

/// [`Distribution::rebucket`] of the distribution whose buckets `buckets`
/// are, written normalized into `out` (cleared first): a copy when it has
/// at most `n` buckets already.
pub fn rebucket_pairs<I>(
    buckets: I,
    n: usize,
    strategy: Rebucket,
    out: &mut Vec<(f64, f64)>,
) -> Result<(), ProbError>
where
    I: ExactSizeIterator<Item = (f64, f64)> + Clone,
{
    if n == 0 {
        return Err(ProbError::ZeroBuckets);
    }
    out.clear();
    if buckets.len() <= n {
        out.extend(buckets);
        return Ok(());
    }
    match strategy {
        Rebucket::EqualWidth => equal_width_pairs(buckets, n, out),
        Rebucket::EqualDepth => equal_depth_pairs(buckets, n, out),
    }
    normalize_pairs(out)
}

/// Equal-width buckets over `[min, max]`: each gets the contained mass and
/// its mass-weighted mean.  `out` first accumulates (weighted, mass) per
/// bucket.
fn equal_width_pairs(
    buckets: impl ExactSizeIterator<Item = (f64, f64)> + Clone,
    n: usize,
    out: &mut Vec<(f64, f64)>,
) {
    let lo = buckets.clone().next().expect("non-empty buckets").0;
    let hi = buckets.clone().last().expect("non-empty buckets").0;
    let width = (hi - lo) / n as f64;
    out.resize(n, (0.0, 0.0));
    for (v, p) in buckets {
        let mut idx = if width > 0.0 {
            ((v - lo) / width) as usize
        } else {
            0
        };
        if idx >= n {
            idx = n - 1; // v == hi lands in the last bucket
        }
        out[idx].1 += p;
        out[idx].0 += v * p;
    }
    out.retain(|&(_, m)| m > 0.0);
    for (w, m) in out.iter_mut() {
        *w /= *m;
    }
}

/// Equi-depth buckets: successive buckets receive roughly `1/n` of the
/// mass each.
fn equal_depth_pairs(
    buckets: impl ExactSizeIterator<Item = (f64, f64)>,
    n: usize,
    out: &mut Vec<(f64, f64)>,
) {
    let len = buckets.len();
    let target = 1.0 / n as f64;
    let mut mass = 0.0;
    let mut weighted = 0.0;
    let mut filled = 0usize;
    for (i, (v, p)) in buckets.enumerate() {
        mass += p;
        weighted += v * p;
        let remaining_buckets = n - filled;
        let last_value = i + 1 == len;
        // Close the bucket once it holds its share, but never leave more
        // values than buckets remaining.
        let values_left = len - (i + 1);
        if last_value
            || (mass + 1e-12 >= target && values_left >= remaining_buckets - 1)
            || values_left < remaining_buckets
        {
            out.push((weighted / mass, mass));
            filled += 1;
            mass = 0.0;
            weighted = 0.0;
            if filled == n {
                break;
            }
        }
    }
    if mass > 0.0 {
        // Fold any residue into the last bucket, preserving the mean.
        let (lv, lp) = out.pop().expect("at least one bucket emitted");
        out.push(((lv * lp + weighted) / (lp + mass), lp + mass));
    }
}

/// The invariants [`Distribution::from_parts_exact`] checks, in its order:
/// parallel non-empty parts, a finite strictly increasing support, finite
/// strictly positive probabilities with a total within `1e-6` of one.
fn check_parts(
    support: impl ExactSizeIterator<Item = f64> + Clone,
    probs: impl ExactSizeIterator<Item = f64>,
) -> Result<(), ProbError> {
    if support.len() == 0 {
        return Err(ProbError::EmptySupport);
    }
    if support.len() != probs.len() {
        return Err(ProbError::SupportMismatch {
            expected: support.len(),
            got: probs.len(),
        });
    }
    if let Some(v) = support.clone().find(|v| !v.is_finite()) {
        return Err(ProbError::NonFinite {
            what: "support value",
            value: v,
        });
    }
    if support.clone().zip(support.skip(1)).any(|(a, b)| a >= b) {
        return Err(ProbError::InvalidParts("support not strictly increasing"));
    }
    let mut total = 0.0;
    for p in probs {
        if !p.is_finite() {
            return Err(ProbError::NonFinite {
                what: "probability",
                value: p,
            });
        }
        if p <= 0.0 {
            return Err(ProbError::InvalidParts("probability not strictly positive"));
        }
        total += p;
    }
    if (total - 1.0).abs() > 1e-6 {
        return Err(ProbError::InvalidParts("total mass not within 1e-6 of one"));
    }
    Ok(())
}

fn nearly_equal(a: f64, b: f64) -> bool {
    (a - b).abs() <= MERGE_EPS * a.abs().max(b.abs()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_memory() -> Distribution {
        Distribution::bimodal(700.0, 2000.0, 0.8).unwrap()
    }

    #[test]
    fn point_mass_basics() {
        let d = Distribution::point(42.0);
        assert!(d.is_point());
        assert_eq!(d.mean(), 42.0);
        assert_eq!(d.mode(), 42.0);
        assert_eq!(d.expect(|v| (v - 42.0) * (v - 42.0)), 0.0);
    }

    #[test]
    fn example_1_1_memory_distribution() {
        // The paper's motivating distribution: mean 1740, mode 2000.
        let d = example_memory();
        assert!((d.mean() - 1740.0).abs() < 1e-9);
        assert_eq!(d.mode(), 2000.0);
    }

    #[test]
    fn from_pairs_sorts_merges_normalizes() {
        let d = Distribution::from_pairs([(5.0, 2.0), (1.0, 1.0), (5.0, 1.0)]).unwrap();
        assert_eq!(d.support(), &[1.0, 5.0]);
        assert!((d.probs()[0] - 0.25).abs() < 1e-12);
        assert!((d.probs()[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn from_pairs_drops_zero_mass() {
        let d = Distribution::from_pairs([(1.0, 0.0), (2.0, 1.0)]).unwrap();
        assert_eq!(d.support(), &[2.0]);
    }

    #[test]
    fn from_pairs_rejects_bad_input() {
        assert_eq!(
            Distribution::from_pairs(std::iter::empty()),
            Err(ProbError::EmptySupport)
        );
        assert!(matches!(
            Distribution::from_pairs([(f64::NAN, 1.0)]),
            Err(ProbError::NonFinite { .. })
        ));
        assert!(matches!(
            Distribution::from_pairs([(1.0, -0.5)]),
            Err(ProbError::NegativeProbability(_))
        ));
        assert_eq!(
            Distribution::from_pairs([(1.0, 0.0)]),
            Err(ProbError::ZeroTotalMass)
        );
    }

    #[test]
    fn from_parts_exact_roundtrips_bit_exactly() {
        // A distribution whose probabilities don't sum to exactly 1.0 in
        // floating point: from_pairs would renormalize (and perturb bits),
        // from_parts_exact must not.
        let d = Distribution::from_pairs([(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)]).unwrap();
        let rt = Distribution::from_parts_exact(d.support().to_vec(), d.probs().to_vec()).unwrap();
        for (a, b) in d.probs().iter().zip(rt.probs()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in d.support().iter().zip(rt.support()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn from_parts_exact_rejects_bad_parts() {
        assert_eq!(
            Distribution::from_parts_exact(vec![], vec![]),
            Err(ProbError::EmptySupport)
        );
        assert_eq!(
            Distribution::from_parts_exact(vec![1.0, 2.0], vec![1.0]),
            Err(ProbError::SupportMismatch {
                expected: 2,
                got: 1
            })
        );
        assert!(matches!(
            Distribution::from_parts_exact(vec![2.0, 1.0], vec![0.5, 0.5]),
            Err(ProbError::InvalidParts(_))
        ));
        assert!(matches!(
            Distribution::from_parts_exact(vec![1.0, 2.0], vec![1.0, 0.0]),
            Err(ProbError::InvalidParts(_))
        ));
        assert!(matches!(
            Distribution::from_parts_exact(vec![1.0, 2.0], vec![0.5, 0.4]),
            Err(ProbError::InvalidParts(_))
        ));
        assert!(matches!(
            Distribution::from_parts_exact(vec![1.0, f64::NAN], vec![0.5, 0.5]),
            Err(ProbError::NonFinite { .. })
        ));
    }

    #[test]
    fn assign_parts_exact_checks_before_it_writes_and_reuses_the_buffers() {
        let mut d = Distribution::uniform(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let before = d.clone();
        let bad: [(&[f64], &[f64]); 5] = [
            (&[], &[]),
            (&[1.0, 2.0], &[1.0]),
            (&[2.0, 1.0], &[0.5, 0.5]),
            (&[1.0, 2.0], &[1.0, 0.0]),
            (&[1.0, f64::NAN], &[0.5, 0.5]),
        ];
        for (support, probs) in bad {
            let owned = Distribution::from_parts_exact(support.to_vec(), probs.to_vec());
            let got = d.assign_parts_exact(support.iter().copied(), probs.iter().copied());
            // By their text: a NaN in an error is unequal to itself.
            let owned = owned.map(|_| ());
            assert_eq!(format!("{got:?}"), format!("{owned:?}"), "{support:?}");
            assert_eq!(d, before, "a rejected assignment writes nothing");
        }
        let at = d.support().as_ptr();
        let (support, probs) = ([0.5, 7.0], [0.25, 0.75]);
        d.assign_parts_exact(support.iter().copied(), probs.iter().copied())
            .unwrap();
        assert_eq!(d.support(), &support);
        assert_eq!(d.probs(), &probs);
        assert_eq!(d.support().as_ptr(), at, "fewer buckets fit the old buffer");
    }

    #[test]
    fn quantiles() {
        let d = Distribution::uniform(&[10.0, 20.0, 30.0, 40.0]).unwrap();
        assert_eq!(d.quantile(0.0), 10.0);
        assert_eq!(d.quantile(0.25), 10.0);
        assert_eq!(d.quantile(0.5), 20.0);
        assert_eq!(d.quantile(1.0), 40.0);
    }

    #[test]
    fn expectation_of_step_function_sees_the_cliff() {
        // The essence of the paper: E[f(X)] != f(E[X]) for discontinuous f.
        let d = example_memory();
        let cost = |m: f64| if m > 1000.0 { 2.0 } else { 4.0 };
        assert_eq!(cost(d.mean()), 2.0); // LSC at the mean sees the cheap side
        let ec = d.expect(cost);
        assert!((ec - (0.8 * 2.0 + 0.2 * 4.0)).abs() < 1e-12);
        assert!(ec > cost(d.mean()));
    }

    #[test]
    fn map_handles_non_monotone_functions() {
        let d = Distribution::uniform(&[-2.0, -1.0, 1.0, 2.0]).unwrap();
        let sq = d.map(|v| v * v);
        assert_eq!(sq.support(), &[1.0, 4.0]);
        assert!((sq.probs()[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn product_of_independents() {
        let a = Distribution::uniform(&[2.0, 3.0]).unwrap();
        let b = Distribution::uniform(&[5.0, 7.0]).unwrap();
        let p = a.product(&b);
        assert_eq!(p.support(), &[10.0, 14.0, 15.0, 21.0]);
        assert!((p.mean() - a.mean() * b.mean()).abs() < 1e-9);
    }

    #[test]
    fn rebucket_preserves_mass_and_mean() {
        let d = Distribution::uniform(&(1..=100).map(|i| i as f64).collect::<Vec<_>>()).unwrap();
        for strategy in [Rebucket::EqualWidth, Rebucket::EqualDepth] {
            let r = d.rebucket(7, strategy).unwrap();
            assert!(r.len() <= 7, "{strategy:?} produced {} buckets", r.len());
            let total: f64 = r.probs().iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
            assert!(
                (r.mean() - d.mean()).abs() < 1e-6,
                "{strategy:?} mean {} vs {}",
                r.mean(),
                d.mean()
            );
        }
    }

    #[test]
    fn rebucket_noop_when_already_small() {
        let d = example_memory();
        let r = d.rebucket(10, Rebucket::EqualWidth).unwrap();
        assert_eq!(r, d);
    }

    #[test]
    fn rebucket_zero_is_an_error() {
        let d = example_memory();
        assert_eq!(
            d.rebucket(0, Rebucket::EqualWidth),
            Err(ProbError::ZeroBuckets)
        );
    }

    #[test]
    fn sampling_matches_distribution() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let d = example_memory();
        let n = 20_000;
        let hits = (0..n).filter(|_| d.sample(&mut rng) == 2000.0).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.02, "sampled frac {frac}");
    }
}

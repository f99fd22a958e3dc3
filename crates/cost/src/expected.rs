//! Expected join/sort cost under distributions for *both* input sizes and
//! memory — §3.6 of the paper.
//!
//! The defining triple sum, [`naive_expected_join_cost`]
//! (`Σ_a Σ_b Σ_m C(a,b,m)·Pr(a)Pr(b)Pr(m)`, `b_A · b_B · b_M` formula
//! evaluations), is tested against [`streaming_expected_join_costs`]: the
//! paper's `O(b_M + b_A + b_B)` algorithms for sort-merge (§3.6.1) and
//! nested-loop (§3.6.2), extended to Grace hash (whose formula has the
//! same shape as sort-merge with `min` in place of `max`).  Following the
//! paper, the expectation is split on `|A| ≤ |B|` vs `|A| > |B|` and each
//! term is read off an operand's [`DistTables`]; they keep *partial*
//! (unnormalized) expectations `E[X·1{X≤x}]` so the paper's running
//! update `E(≤b') = E(≤b) + E(b<·≤b')` is a plain sum.
//!
//! The three separable methods share their passes: one over `B`'s support
//! gives every method its `a ≤ b` term and one over `A`'s its `a > b`
//! term, each value searching the other operand's tables once for all
//! three, and sort-merge and Grace sharing the memory factor they read at
//! the same size.  Each term sums in its per-method algorithm's order, so
//! the bits are the per-method algorithms'.  (Walking the positions in
//! step instead of searching them measured no faster on 2–16 buckets.)
//!
//! Block nested-loop has no separable form (`⌈a/(m-2)⌉·b` couples `a` and
//! `m`), so it deliberately takes the triple sum — it is the resident
//! example of why the generic `O(b³)` algorithm must exist.  Its block
//! count does not read `b`, so [`expected_join_costs`] computes it once
//! per (outer, memory) value pair, in the naive sum's term order, to the
//! same bits.
//!
//! Every operand, memory included, reaches the streaming path as a
//! [`DistTables`]: its buckets, running sums and roots, built once into
//! one block and then only read.

use crate::formulas;
use lec_plan::JoinMethod;
use lec_prob::Distribution;
use std::sync::Arc;

fn join_formula(method: JoinMethod) -> fn(f64, f64, f64) -> f64 {
    match method {
        JoinMethod::SortMerge => formulas::sm_join_cost,
        JoinMethod::GraceHash => formulas::grace_join_cost,
        JoinMethod::PageNestedLoop => formulas::nl_join_cost,
        JoinMethod::BlockNestedLoop => formulas::bnl_join_cost,
    }
}

/// Expected cost by the defining triple sum.  Exact for every method.
pub fn naive_expected_join_cost(
    method: JoinMethod,
    a: &Distribution,
    b: &Distribution,
    m: &Distribution,
) -> f64 {
    let f = join_formula(method);
    a.iter()
        .map(|(av, ap)| {
            let mut partial = 0.0;
            for (bv, bp) in b.iter() {
                for (mv, mp) in m.iter() {
                    partial += f(av, bv, mv) * bp * mp;
                }
            }
            ap * partial
        })
        .sum()
}

/// Block nested-loop's [`naive_expected_join_cost`], term for term and
/// so bit for bit, with each (outer, memory) pair's block count computed
/// once rather than once per inner size.
fn expected_bnl_cost(a: &DistTables, b: &DistTables, m: &DistTables) -> f64 {
    // One outer value's block counts, on the stack up to 16 memory buckets.
    let (mut stack, mut heap) = ([0.0; 16], Vec::new());
    let blocks = match m.len() <= stack.len() {
        true => &mut stack[..m.len()],
        false => {
            heap.resize(m.len(), 0.0);
            &mut heap[..]
        }
    };
    a.iter()
        .map(|(av, ap)| {
            for (scans, &mv) in blocks.iter_mut().zip(m.support()) {
                *scans = formulas::bnl_blocks(av, mv);
            }
            let outer = formulas::clamp(av);
            let mut partial = 0.0;
            for (bv, bp) in b.iter() {
                let inner = formulas::clamp(bv);
                for (&mp, &scans) in m.probs().iter().zip(blocks.iter()) {
                    partial += (outer + scans * inner) * bp * mp;
                }
            }
            ap * partial
        })
        .sum()
}

/// Number of formula evaluations the naive path performs.
pub fn naive_eval_count(a: &Distribution, b: &Distribution, m: &Distribution) -> u64 {
    (a.len() * b.len() * m.len()) as u64
}

/// The sort-merge memory factor
/// `2·Pr(M > √l) + 4·Pr(∛l < M ≤ √l) + 6·Pr(M ≤ ∛l)` of a size `l` with
/// roots `sqrt` and `cbrt` (§3.6.1's bracketed term); Grace hash's on the
/// smaller size is the same function.
fn sm_memory_factor(m: &Sums<'_>, sqrt: f64, cbrt: f64) -> f64 {
    let p_cheap = m.prob_gt(sqrt);
    let p_deep = m.prob_le(cbrt);
    let p_mid = (1.0 - p_cheap - p_deep).max(0.0);
    2.0 * p_cheap + 4.0 * p_mid + 6.0 * p_deep
}

/// The §3.6.1/§3.6.2 expectations of the three separable methods,
/// `[sort-merge, Grace hash, page nested-loop]`, `A` outer, each
/// `term1 + term2` split on `a ≤ b` vs `a > b` and summed in the order of
/// the per-method algorithms:
///
/// * sort-merge, `g` the memory factor on the larger size:
///   `Σ_{a≤b} Pr(a)Pr(b)(a+b)·g(b) + Σ_{a>b} Pr(a)Pr(b)(a+b)·g(a)`;
/// * Grace hash, the same on the smaller size;
/// * page nested-loop, `|A|+|B|` if `M ≥ S+2` else `|A| + |A|·|B|`.
///
/// The pass over `B` makes sort-merge's term 1 and Grace's and nested
/// loop's term 2 (their inner sums over `a ≤ b` read `A`'s tables at `b`),
/// the pass over `A` the others (over `b < a`, `B`'s tables at `a`).
pub fn streaming_expected_join_costs(a: &DistTables, b: &DistTables, m: &DistTables) -> [f64; 3] {
    let (ta, tb, tm) = (a.sums(), b.sums(), m.sums());
    let (mut sm, mut gh, mut nl) = ([0.0; 2], [0.0; 2], [0.0; 2]);

    // Over b: Σ_{a≤b} Pr(a)(a+b) = E[A·1{A≤b}] + b·Pr(A≤b) for sort-merge
    // (L = b); for Grace and nested loop, Σ_{a>b} Pr(a)(a+b) =
    // b·Pr(A>b) + E[A·1{A>b}] (S = b), and nested loop's flood
    // Σ_{a>b} Pr(a)(a+a·b) = E[A·1{A>b}]·(1+b).
    for (((bv, bp), &sqrt), &cbrt) in b.iter().zip(b.sqrt()).zip(b.cbrt()) {
        let at = ta.count_le(bv);
        let (pa_le, ea_le) = (ta.prob_first(at), ta.expect_first(at));
        let (pa_gt, ea_gt) = (1.0 - pa_le, ta.mean() - ea_le);
        let sm_inner = ea_le + bv * pa_le;
        let gh_inner = bv * pa_gt + ea_gt;
        if sm_inner > 0.0 || gh_inner > 0.0 {
            let factor = sm_memory_factor(&tm, sqrt, cbrt);
            if sm_inner > 0.0 {
                sm[0] += bp * sm_inner * factor;
            }
            if gh_inner > 0.0 {
                gh[1] += bp * gh_inner * factor;
            }
        }
        if pa_gt > 0.0 {
            let p_cheap = tm.prob_ge(bv + 2.0);
            let cheap = ea_gt + bv * pa_gt;
            let flood = ea_gt * (1.0 + bv);
            nl[1] += bp * (cheap * p_cheap + flood * (1.0 - p_cheap));
        }
    }

    // Over a: Σ_{b<a} Pr(b)(a+b) = E[B·1{B<a}] + a·Pr(B<a) for sort-merge
    // (L = a); for Grace and nested loop, Σ_{b≥a} Pr(b)(a+b) =
    // a·Pr(B≥a) + E[B·1{B≥a}] (S = a), and nested loop's flood
    // Σ_{b≥a} Pr(b)(a+a·b) = a·Pr(B≥a) + a·E[B·1{B≥a}].
    for (((av, ap), &sqrt), &cbrt) in a.iter().zip(a.sqrt()).zip(a.cbrt()) {
        let at = tb.count_lt(av);
        let (pb_lt, eb_lt) = (tb.prob_first(at), tb.expect_first(at));
        let (pb_ge, eb_ge) = (1.0 - pb_lt, tb.mean() - eb_lt);
        let sm_inner = eb_lt + av * pb_lt;
        let gh_inner = av * pb_ge + eb_ge;
        if sm_inner > 0.0 || gh_inner > 0.0 {
            let factor = sm_memory_factor(&tm, sqrt, cbrt);
            if sm_inner > 0.0 {
                sm[1] += ap * sm_inner * factor;
            }
            if gh_inner > 0.0 {
                gh[0] += ap * gh_inner * factor;
            }
        }
        if pb_ge > 0.0 {
            let p_cheap = tm.prob_ge(av + 2.0);
            let cheap = av * pb_ge + eb_ge;
            let flood = av * pb_ge + av * eb_ge;
            nl[0] += ap * (cheap * p_cheap + flood * (1.0 - p_cheap));
        }
    }
    [sm, gh, nl].map(|[term1, term2]| term1 + term2)
}

/// A distribution's buckets with their prefix tables and each support
/// value's square and cube roots, built once into one shared block and
/// then only read: what the linear-time expectations read of an operand
/// or of memory.  Cloning shares the block.
///
/// The block holds six columns of one value per bucket: the support,
/// the probabilities, the running sums `Pr(X ≤ v_i)` and
/// `E[X·1{X ≤ v_i}]`, `√v` and `∛v` — the roots at which sort-merge's,
/// Grace's and the sort's memory brackets are read, computed here once
/// rather than per size pair.  Every query of the tables (§3.6.1's
/// `Pr(M > √b)`, `E(|A| : |A| ≤ b)`, …) goes through [`Self::sums`]: a
/// binary search for a position in the support ([`Sums::count_le`],
/// [`Sums::count_lt`]) and a read of the sums there
/// ([`Sums::prob_first`], [`Sums::expect_first`]), one search for every
/// quantity at that position.
#[derive(Debug, Clone)]
pub struct DistTables {
    block: Arc<[f64]>,
}

/// Columns of a [`DistTables`] block.
const COLUMNS: usize = 6;

impl DistTables {
    /// `dist`'s tables.
    pub fn new(dist: &Distribution) -> Self {
        Self::from_buckets(dist.iter(), &mut Vec::new())
    }

    /// The tables of the distribution whose buckets `buckets` are
    /// (normalized, as [`lec_prob::normalize_pairs`] leaves them), laid out
    /// in `scratch` and copied into the block: one allocation.
    pub fn from_buckets(
        buckets: impl ExactSizeIterator<Item = (f64, f64)> + Clone,
        scratch: &mut Vec<f64>,
    ) -> Self {
        let n = buckets.len();
        assert!(n > 0, "a distribution has a bucket");
        scratch.clear();
        scratch.extend(buckets.clone().map(|(v, _)| v));
        scratch.extend(buckets.clone().map(|(_, p)| p));
        let (mut acc_p, mut acc_vp) = (0.0, 0.0);
        scratch.extend(buckets.clone().map(|(_, p)| {
            acc_p += p;
            acc_p
        }));
        scratch.extend(buckets.map(|(v, p)| {
            acc_vp += v * p;
            acc_vp
        }));
        for root in [f64::sqrt, f64::cbrt] {
            let at = scratch.len();
            scratch.extend_from_within(..n);
            for v in &mut scratch[at..] {
                *v = root(*v);
            }
        }
        DistTables {
            block: Arc::from(&scratch[..]),
        }
    }

    fn column(&self, c: usize) -> &[f64] {
        let n = self.len();
        &self.block[c * n..(c + 1) * n]
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.block.len() / COLUMNS
    }

    /// Always false: a distribution has a bucket.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The strictly increasing bucket representatives.
    pub fn support(&self) -> &[f64] {
        self.column(0)
    }

    /// Bucket probabilities, parallel to [`Self::support`].
    pub fn probs(&self) -> &[f64] {
        self.column(1)
    }

    /// `√v` of each support value.
    pub fn sqrt(&self) -> &[f64] {
        self.column(4)
    }

    /// `∛v` of each support value.
    pub fn cbrt(&self) -> &[f64] {
        self.column(5)
    }

    /// `(value, probability)` pairs in increasing value order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (f64, f64)> + Clone + '_ {
        self.support()
            .iter()
            .copied()
            .zip(self.probs().iter().copied())
    }

    /// The support and running sums, sliced once: the §3.6.1 query
    /// surface, which a hot loop binds rather than slicing the block per
    /// query.
    pub fn sums(&self) -> Sums<'_> {
        Sums {
            support: self.support(),
            cum_prob: self.column(2),
            cum_vp: self.column(3),
        }
    }

    /// The distribution, bit for bit.
    pub fn to_distribution(&self) -> Distribution {
        Distribution::from_parts_exact(self.support().to_vec(), self.probs().to_vec())
            .expect("the buckets of a distribution")
    }

    /// [`crate::dist_fingerprint`] of the distribution, from the block.
    pub fn fingerprint(&self) -> u64 {
        (self.iter())
            .fold(lec_catalog::Fingerprint::new(), |fp, (v, p)| {
                fp.f64(v).f64(p)
            })
            .finish()
    }
}

/// A [`DistTables`]' support and running sums `Pr(X ≤ v_i)` and
/// `E[X·1{X ≤ v_i}]`, sliced once ([`DistTables::sums`]): §3.6.1's
/// queries.
#[derive(Debug, Clone, Copy)]
pub struct Sums<'a> {
    support: &'a [f64],
    cum_prob: &'a [f64],
    cum_vp: &'a [f64],
}

impl Sums<'_> {
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

    /// The mean `E[X]`: the last partial expectation.
    pub fn mean(&self) -> f64 {
        self.expect_first(self.support.len())
    }

    /// `Pr(X <= x)`.
    pub fn prob_le(&self, x: f64) -> f64 {
        self.prob_first(self.count_le(x))
    }

    /// `Pr(X > x)`.
    pub fn prob_gt(&self, x: f64) -> f64 {
        1.0 - self.prob_le(x)
    }

    /// `Pr(X >= x)`.
    pub fn prob_ge(&self, x: f64) -> f64 {
        1.0 - self.prob_first(self.count_lt(x))
    }
}

/// Algorithm D's per-pair costing step: every method's expected cost, in
/// [`JoinMethod::ALL`] order — [`streaming_expected_join_costs`] and
/// block nested-loop's triple sum with its block counts hoisted.
pub fn expected_join_costs(a: &DistTables, b: &DistTables, m: &DistTables) -> [f64; 4] {
    let [sm, gh, nl] = streaming_expected_join_costs(a, b, m);
    [sm, gh, nl, expected_bnl_cost(a, b, m)]
}

/// Expected external-sort cost over uncertain input size and memory, in
/// time linear in the bucket counts (same §3.6.1 technique: the formula is
/// `r · factor(M vs r)`), reading each size's roots off its tables.
pub fn expected_sort_cost(r: &DistTables, m: &DistTables) -> f64 {
    let m = m.sums();
    let mut total = 0.0;
    for (((rv, rp), &sqrt), &cbrt) in r.iter().zip(r.sqrt()).zip(r.cbrt()) {
        let p_fit = m.prob_ge(rv);
        let p_one = (m.prob_ge(sqrt) - p_fit).max(0.0);
        let p_two = (m.prob_ge(cbrt) - p_fit - p_one).max(0.0);
        let p_deep = (1.0 - p_fit - p_one - p_two).max(0.0);
        total += rp * rv * (p_fit + 3.0 * p_one + 5.0 * p_two + 7.0 * p_deep);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rand_dist(rng: &mut impl Rng, max_buckets: usize, lo: f64, hi: f64) -> Distribution {
        let n = rng.gen_range(1..=max_buckets);
        Distribution::from_pairs((0..n).map(|_| (rng.gen_range(lo..hi), rng.gen_range(0.05..1.0))))
            .unwrap()
    }

    fn tabled(d: &Distribution) -> DistTables {
        DistTables::new(d)
    }

    const SEPARABLE: [JoinMethod; 3] = [
        JoinMethod::SortMerge,
        JoinMethod::GraceHash,
        JoinMethod::PageNestedLoop,
    ];

    #[test]
    fn streaming_matches_naive_on_random_inputs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE);
        for trial in 0..200 {
            let a = rand_dist(&mut rng, 8, 1.0, 1e6);
            let b = rand_dist(&mut rng, 8, 1.0, 1e6);
            let m = rand_dist(&mut rng, 8, 2.0, 5e3);
            let streamed = streaming_expected_join_costs(&tabled(&a), &tabled(&b), &tabled(&m));
            for (method, fast) in SEPARABLE.into_iter().zip(streamed) {
                let naive = naive_expected_join_cost(method, &a, &b, &m);
                let scale = naive.abs().max(1.0);
                assert!(
                    ((naive - fast) / scale).abs() < 1e-9,
                    "trial {trial} {method:?}: naive {naive} vs streaming {fast}"
                );
            }
        }
    }

    /// Sizes and a memory whose supports share values exactly: they
    /// exercise the ≤ vs < splits.
    fn boundary_ties() -> (Distribution, Distribution, Distribution) {
        let a = Distribution::from_pairs([(100.0, 0.5), (200.0, 0.5)]).unwrap();
        let b = Distribution::from_pairs([(100.0, 0.25), (200.0, 0.75)]).unwrap();
        // Memory exactly at cliff values of both:
        let m = Distribution::from_pairs([
            (10.0, 0.2),          // = √100
            (100f64.cbrt(), 0.2), // ∛100
            (102.0, 0.3),         // = min+2 for a=100
            (1000.0, 0.3),
        ])
        .unwrap();
        (a, b, m)
    }

    #[test]
    fn streaming_handles_boundary_ties() {
        let (a, b, m) = boundary_ties();
        let streamed = streaming_expected_join_costs(&tabled(&a), &tabled(&b), &tabled(&m));
        for (method, fast) in SEPARABLE.into_iter().zip(streamed) {
            let naive = naive_expected_join_cost(method, &a, &b, &m);
            assert!(
                (naive - fast).abs() / naive.max(1.0) < 1e-12,
                "{method:?}: {naive} vs {fast}"
            );
        }
    }

    /// The per-method §3.6.1/§3.6.2 algorithms as they were before the
    /// passes were shared: every quantity its own binary search of the
    /// prefix tables, every root computed per call.
    mod searched {
        use super::DistTables;
        use lec_prob::Distribution;

        /// The by-value queries of the tables as the per-method
        /// algorithms read them, over a [`DistTables`].
        pub struct PrefixTables<'a>(pub &'a DistTables);

        impl PrefixTables<'_> {
            fn count_le(&self, x: f64) -> usize {
                self.0.support().partition_point(|&v| v <= x)
            }

            fn count_lt(&self, x: f64) -> usize {
                self.0.support().partition_point(|&v| v < x)
            }

            fn mean(&self) -> f64 {
                self.0.sums().mean()
            }

            fn prob_le(&self, x: f64) -> f64 {
                self.0.sums().prob_first(self.count_le(x))
            }

            fn prob_lt(&self, x: f64) -> f64 {
                self.0.sums().prob_first(self.count_lt(x))
            }

            fn prob_ge(&self, x: f64) -> f64 {
                1.0 - self.prob_lt(x)
            }

            fn prob_gt(&self, x: f64) -> f64 {
                1.0 - self.prob_le(x)
            }

            fn partial_expect_le(&self, x: f64) -> f64 {
                self.0.sums().expect_first(self.count_le(x))
            }

            fn partial_expect_ge(&self, x: f64) -> f64 {
                self.mean() - self.partial_expect_lt(x)
            }

            fn partial_expect_lt(&self, x: f64) -> f64 {
                self.0.sums().expect_first(self.count_lt(x))
            }

            fn partial_expect_gt(&self, x: f64) -> f64 {
                self.mean() - self.partial_expect_le(x)
            }
        }

        fn sm_memory_factor(m: &PrefixTables, l: f64) -> f64 {
            let p_cheap = m.prob_gt(l.sqrt());
            let p_deep = m.prob_le(l.cbrt());
            let p_mid = (1.0 - p_cheap - p_deep).max(0.0);
            2.0 * p_cheap + 4.0 * p_mid + 6.0 * p_deep
        }

        pub fn sm(
            a: &PrefixTables,
            b_dist: &Distribution,
            b: &PrefixTables,
            a_dist: &Distribution,
            m: &PrefixTables,
        ) -> f64 {
            let mut term1 = 0.0;
            for (bv, bp) in b_dist.iter() {
                let inner = a.partial_expect_le(bv) + bv * a.prob_le(bv);
                if inner > 0.0 {
                    term1 += bp * inner * sm_memory_factor(m, bv);
                }
            }
            let mut term2 = 0.0;
            for (av, ap) in a_dist.iter() {
                let inner = b.partial_expect_lt(av) + av * b.prob_lt(av);
                if inner > 0.0 {
                    term2 += ap * inner * sm_memory_factor(m, av);
                }
            }
            term1 + term2
        }

        pub fn grace(
            a: &PrefixTables,
            b_dist: &Distribution,
            b: &PrefixTables,
            a_dist: &Distribution,
            m: &PrefixTables,
        ) -> f64 {
            let mut term1 = 0.0;
            for (av, ap) in a_dist.iter() {
                let inner = av * b.prob_ge(av) + b.partial_expect_ge(av);
                if inner > 0.0 {
                    term1 += ap * inner * sm_memory_factor(m, av);
                }
            }
            let mut term2 = 0.0;
            for (bv, bp) in b_dist.iter() {
                let inner = bv * a.prob_gt(bv) + a.partial_expect_gt(bv);
                if inner > 0.0 {
                    term2 += bp * inner * sm_memory_factor(m, bv);
                }
            }
            term1 + term2
        }

        pub fn nl(
            a: &PrefixTables,
            b_dist: &Distribution,
            b: &PrefixTables,
            a_dist: &Distribution,
            m: &PrefixTables,
        ) -> f64 {
            let mut term1 = 0.0;
            for (av, ap) in a_dist.iter() {
                let pb = b.prob_ge(av);
                let eb = b.partial_expect_ge(av);
                if pb <= 0.0 {
                    continue;
                }
                let p_cheap = m.prob_ge(av + 2.0);
                let cheap = av * pb + eb;
                let flood = av * pb + av * eb;
                term1 += ap * (cheap * p_cheap + flood * (1.0 - p_cheap));
            }
            let mut term2 = 0.0;
            for (bv, bp) in b_dist.iter() {
                let pa = a.prob_gt(bv);
                let ea = a.partial_expect_gt(bv);
                if pa <= 0.0 {
                    continue;
                }
                let p_cheap = m.prob_ge(bv + 2.0);
                let cheap = ea + bv * pa;
                let flood = ea * (1.0 + bv);
                term2 += bp * (cheap * p_cheap + flood * (1.0 - p_cheap));
            }
            term1 + term2
        }

        pub fn sort(r_dist: &Distribution, m: &PrefixTables) -> f64 {
            let mut total = 0.0;
            for (rv, rp) in r_dist.iter() {
                let p_fit = m.prob_ge(rv);
                let p_one = (m.prob_ge(rv.sqrt()) - p_fit).max(0.0);
                let p_two = (m.prob_ge(rv.cbrt()) - p_fit - p_one).max(0.0);
                let p_deep = (1.0 - p_fit - p_one - p_two).max(0.0);
                total += rp * rv * (p_fit + 3.0 * p_one + 5.0 * p_two + 7.0 * p_deep);
            }
            total
        }
    }

    /// A distribution with values at `m`'s squares and cubes, at its
    /// values and two pages below them, and under one page: every regime
    /// boundary the expectations read.
    fn straddling(rng: &mut impl Rng, m: &Distribution) -> Distribution {
        let pick = |rng: &mut dyn rand::RngCore| m.support()[rng.gen_range(0..m.len())];
        let n = rng.gen_range(1..=8);
        Distribution::from_pairs((0..n).map(|_| {
            let v = pick(rng);
            let v = match rng.gen_range(0..6) {
                0 => v * v,
                1 => v * v * v,
                2 => (v - 2.0).max(0.25),
                3 => v,
                4 => rng.gen_range(0.25..2.0),
                _ => rng.gen_range(1.0..1e6),
            };
            (v, rng.gen_range(0.05..1.0))
        }))
        .unwrap()
    }

    /// Tables built once, with their roots, read by the shared passes and
    /// the sort cost give the bits of the per-method algorithms taking
    /// every root per value, in both operand orders, on random sizes, on
    /// sizes at memory's squares, cubes and two pages below it, and on
    /// boundary ties.
    #[test]
    fn prebuilt_tables_change_no_bits() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7AB1E5);
        let mut inputs: Vec<_> = (0..300)
            .map(|trial| {
                let m = rand_dist(&mut rng, 8, 2.0, 5e3);
                match trial % 2 {
                    0 => (
                        rand_dist(&mut rng, 8, 1.0, 1e6),
                        rand_dist(&mut rng, 8, 1.0, 1e6),
                        m,
                    ),
                    _ => (straddling(&mut rng, &m), straddling(&mut rng, &m), m),
                }
            })
            .collect();
        inputs.push(boundary_ties());
        for (a, b, m) in &inputs {
            let (ta, tb, tm) = (tabled(a), tabled(b), tabled(m));
            let [pa, pb, pm] = [&ta, &tb, &tm].map(searched::PrefixTables);
            for (x, y, tx, ty, px, py) in [(a, b, &ta, &tb, &pa, &pb), (b, a, &tb, &ta, &pb, &pa)] {
                let want = [
                    searched::sm(px, y, py, x, &pm),
                    searched::grace(px, y, py, x, &pm),
                    searched::nl(px, y, py, x, &pm),
                    naive_expected_join_cost(JoinMethod::BlockNestedLoop, x, y, m),
                ];
                let got = expected_join_costs(tx, ty, &tm);
                for (method, (g, w)) in JoinMethod::ALL.into_iter().zip(got.iter().zip(want)) {
                    assert_eq!(g.to_bits(), w.to_bits(), "{method:?}: {g} vs {w}");
                }
                let (g, w) = (expected_sort_cost(tx, &tm), searched::sort(x, &pm));
                assert_eq!(g.to_bits(), w.to_bits(), "sort: {g} vs {w}");
            }
        }
    }

    /// The tables hold the distribution bit for bit, and its fingerprint
    /// is [`crate::dist_fingerprint`]'s.
    #[test]
    fn tables_hold_the_distribution_and_its_fingerprint() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EEC);
        for _ in 0..100 {
            let d = rand_dist(&mut rng, 12, 0.5, 1e4);
            let t = tabled(&d);
            assert_eq!(t.to_distribution(), d);
            assert_eq!(t.fingerprint(), crate::dist_fingerprint(&d));
        }
    }

    #[test]
    fn point_sizes_reduce_to_memory_expectation() {
        // With point sizes the expected cost must equal E_M[C(a,b,M)].
        let a = tabled(&Distribution::point(1_000_000.0));
        let b = tabled(&Distribution::point(400_000.0));
        let m = lec_prob::presets::example_1_1_memory();
        let mt = tabled(&m);
        let direct = m.expect(|mv| formulas::sm_join_cost(1_000_000.0, 400_000.0, mv));
        let [fast, grace, _] = streaming_expected_join_costs(&a, &b, &mt);
        assert!((direct - fast).abs() < 1e-6);
        // Paper numbers: 0.8·2.8e6 + 0.2·5.6e6 = 3.36e6.
        assert!((fast - 3_360_000.0).abs() < 1e-6);
        assert!((grace - 2_800_000.0).abs() < 1e-6);
    }

    #[test]
    fn nl_asymmetry_is_preserved() {
        // Outer 10 pages vs outer 1000 pages differ under low memory.
        let small = tabled(&Distribution::point(10.0));
        let big = tabled(&Distribution::point(1000.0));
        let mt = tabled(&Distribution::point(5.0));
        let [_, _, small_outer] = streaming_expected_join_costs(&small, &big, &mt);
        let [_, _, big_outer] = streaming_expected_join_costs(&big, &small, &mt);
        assert_eq!(small_outer, 10.0 + 10.0 * 1000.0);
        assert_eq!(big_outer, 1000.0 + 1000.0 * 10.0);
        assert!(small_outer < big_outer);
    }

    /// The hoisted block counts give the naive triple sum's bits, on
    /// distributions of up to 16×16×4 buckets with sub-page sizes and
    /// memories whose block clamps to one page, and on memories of up to
    /// 24 buckets, past the stack's 16.
    #[test]
    fn hoisted_bnl_blocks_give_the_naive_bits() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB10C);
        for trial in 0..300 {
            let a = rand_dist(&mut rng, 16, 0.25, 1e5);
            let b = rand_dist(&mut rng, 16, 0.25, 1e5);
            let m = rand_dist(&mut rng, if trial % 10 == 0 { 24 } else { 4 }, 0.5, 3e3);
            let naive = naive_expected_join_cost(JoinMethod::BlockNestedLoop, &a, &b, &m);
            let got = expected_bnl_cost(&tabled(&a), &tabled(&b), &tabled(&m));
            assert_eq!(
                got.to_bits(),
                naive.to_bits(),
                "trial {trial}: {got} vs {naive}"
            );
        }
    }

    #[test]
    fn bnl_falls_back_to_naive() {
        let a = tabled(&Distribution::point(100.0));
        let b = tabled(&Distribution::point(50.0));
        let m = tabled(&Distribution::point(12.0));
        let ec = expected_join_costs(&a, &b, &m)[3];
        assert_eq!(ec, formulas::bnl_join_cost(100.0, 50.0, 12.0));
    }

    /// The defining double sum of [`expected_sort_cost`].
    fn naive_expected_sort_cost(r_dist: &Distribution, m_dist: &Distribution) -> f64 {
        let mut total = 0.0;
        for (rv, rp) in r_dist.iter() {
            for (mv, mp) in m_dist.iter() {
                total += formulas::sort_cost(rv, mv) * rp * mp;
            }
        }
        total
    }

    #[test]
    fn sort_streaming_matches_naive() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..100 {
            let r = rand_dist(&mut rng, 8, 1.0, 1e5);
            let m = rand_dist(&mut rng, 8, 2.0, 1e4);
            let naive = naive_expected_sort_cost(&r, &m);
            let fast = expected_sort_cost(&tabled(&r), &tabled(&m));
            assert!(
                (naive - fast).abs() / naive.max(1.0) < 1e-9,
                "{naive} vs {fast}"
            );
        }
    }

    #[test]
    fn eval_count_is_the_product_of_bucket_counts() {
        let a = Distribution::uniform(&[1.0, 2.0, 3.0]).unwrap();
        let b = Distribution::uniform(&[1.0, 2.0]).unwrap();
        let m = Distribution::uniform(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(naive_eval_count(&a, &b, &m), 24);
    }

    /// `d`'s probability and partial expectation over the values `keep`
    /// admits, summed directly.
    fn direct(d: &Distribution, keep: impl Fn(f64) -> bool) -> (f64, f64) {
        (d.iter().filter(|&(v, _)| keep(v))).fold((0.0, 0.0), |(p, e), (v, q)| (p + q, e + v * q))
    }

    fn four_buckets() -> Distribution {
        Distribution::from_pairs([(1.0, 0.1), (2.0, 0.2), (5.0, 0.3), (9.0, 0.4)]).unwrap()
    }

    #[test]
    fn tables_match_direct_computation() {
        let d = four_buckets();
        let tables = tabled(&d);
        let t = tables.sums();
        for x in [0.0, 1.0, 1.5, 2.0, 4.9, 5.0, 8.0, 9.0, 100.0] {
            let (le, e_le) = direct(&d, |v| v <= x);
            let (lt, _) = direct(&d, |v| v < x);
            assert!((t.prob_le(x) - le).abs() < 1e-12, "prob_le({x})");
            let prob_lt = t.prob_first(t.count_lt(x));
            assert!((prob_lt - lt).abs() < 1e-12, "prob_lt({x})");
            assert!((t.prob_ge(x) - (1.0 - lt)).abs() < 1e-12, "prob_ge({x})");
            assert!((t.prob_gt(x) - (1.0 - le)).abs() < 1e-12, "prob_gt({x})");
            let partial_le = t.expect_first(t.count_le(x));
            assert!((partial_le - e_le).abs() < 1e-12, "partial_expect_le({x})");
        }
    }

    #[test]
    fn mean_agrees() {
        let d = four_buckets();
        assert!((tabled(&d).sums().mean() - d.mean()).abs() < 1e-12);
    }

    /// The partial expectation read at `count_le` (`count_lt`) and the
    /// direct sum over the values above (at or above) `x` add to the mean.
    #[test]
    fn partial_expectations_partition_the_mean() {
        let d = four_buckets();
        let tables = tabled(&d);
        let t = tables.sums();
        for x in [0.5, 2.0, 5.0, 9.0, 10.0] {
            let le = t.expect_first(t.count_le(x));
            let (_, gt) = direct(&d, |v| v > x);
            assert!((le + gt - t.mean()).abs() < 1e-12);
            let lt = t.expect_first(t.count_lt(x));
            let (_, ge) = direct(&d, |v| v >= x);
            assert!((lt + ge - t.mean()).abs() < 1e-12);
        }
    }

    /// A value at a support point counts for `≤` but not for `<`: on a
    /// uniform distribution, a point mass and Example 1.1's memory.
    #[test]
    fn tail_probabilities_are_consistent() {
        let prob_lt = |t: &Sums, x| t.prob_first(t.count_lt(x));
        let uniform = tabled(&Distribution::uniform(&[1.0, 2.0, 3.0, 4.0]).unwrap());
        let t = uniform.sums();
        for x in [0.5, 1.0, 2.5, 4.0, 9.0] {
            assert!((t.prob_le(x) + t.prob_gt(x) - 1.0).abs() < 1e-12);
            assert!((prob_lt(&t, x) + t.prob_ge(x) - 1.0).abs() < 1e-12);
        }
        assert_eq!(t.prob_le(2.0), 0.5);
        assert_eq!(prob_lt(&t, 2.0), 0.25);
        assert_eq!(t.prob_ge(2.0), 0.75);
        let point = tabled(&Distribution::point(42.0));
        let point = point.sums();
        assert_eq!(point.prob_le(42.0), 1.0);
        assert_eq!(prob_lt(&point, 42.0), 0.0);
        let memory = tabled(&Distribution::bimodal(700.0, 2000.0, 0.8).unwrap());
        let memory = memory.sums();
        assert!((memory.prob_gt(1000.0) - 0.8).abs() < 1e-12);
        assert!((memory.prob_le(700.0) - 0.2).abs() < 1e-12);
    }
}

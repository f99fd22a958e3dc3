//! Expected join/sort cost under distributions for *both* input sizes and
//! memory — §3.6 of the paper.
//!
//! Two implementations are provided and tested against each other:
//!
//! * [`naive_expected_join_cost`] — the defining triple sum
//!   `Σ_a Σ_b Σ_m C(a,b,m)·Pr(a)Pr(b)Pr(m)`, costing
//!   `b_A · b_B · b_M` formula evaluations (the generic Algorithm D path);
//! * [`streaming_expected_join_cost`] — the paper's `O(b_M + b_A + b_B)`
//!   algorithms for sort-merge (§3.6.1) and nested-loop (§3.6.2), extended
//!   to Grace hash (whose formula has the same shape as sort-merge with
//!   `min` in place of `max`).  Following the paper, the expectation is
//!   split on `|A| ≤ |B|` vs `|A| > |B|` and each term is computed from
//!   running prefix tables; we keep *partial* (unnormalized) expectations
//!   `E[X·1{X≤x}]` so the paper's running update
//!   `E(≤b') = E(≤b) + E(b<·≤b')` is a plain sum.
//!
//! Block nested-loop has no separable form (`⌈a/(m-2)⌉·b` couples `a` and
//! `m`), so it deliberately takes the triple sum — it is the resident
//! example of why the generic `O(b³)` algorithm must exist.  Its block
//! count does not read `b`, so [`expected_join_cost`] computes it once per
//! (outer, memory) value pair, in the naive sum's term order, to the same
//! bits.
//!
//! Every operand reaches the streaming path as a [`DistTables`]: its
//! prefix tables are built once, with the distribution, and then only
//! queried.

use crate::formulas;
use lec_plan::JoinMethod;
use lec_prob::{Distribution, PrefixTables};

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
fn expected_bnl_cost(a: &Distribution, b: &Distribution, m: &Distribution) -> f64 {
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
            for (scans, (mv, _)) in blocks.iter_mut().zip(m.iter()) {
                *scans = formulas::bnl_blocks(av, mv);
            }
            let outer = formulas::clamp(av);
            let mut partial = 0.0;
            for (bv, bp) in b.iter() {
                let inner = formulas::clamp(bv);
                for ((_, mp), &scans) in m.iter().zip(blocks.iter()) {
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
/// `2·Pr(M > √l) + 4·Pr(∛l < M ≤ √l) + 6·Pr(M ≤ ∛l)` for a given larger
/// size `l` (§3.6.1's bracketed term).
fn sm_memory_factor(m: &PrefixTables, l: f64) -> f64 {
    let p_cheap = m.prob_gt(l.sqrt());
    let p_deep = m.prob_le(l.cbrt());
    let p_mid = (1.0 - p_cheap - p_deep).max(0.0);
    2.0 * p_cheap + 4.0 * p_mid + 6.0 * p_deep
}

/// §3.6.1: expected sort-merge cost in `O((b_A + b_B)·log + b_M)` time.
///
/// `EC(SM) = Σ_{a≤b} Pr(a)Pr(b)(a+b)·g(M, b) + Σ_{a>b} Pr(a)Pr(b)(a+b)·g(M, a)`
/// where `g` is the three-regime memory factor `sm_memory_factor`; the
/// inner sums collapse into the prefix tables of the opposite side.
pub fn streaming_expected_sm_cost(
    a: &PrefixTables,
    b_dist: &Distribution,
    b: &PrefixTables,
    a_dist: &Distribution,
    m: &PrefixTables,
) -> f64 {
    // Term 1: a ≤ b, so L = b.  For each b: Σ_{a≤b} Pr(a)(a+b) =
    // E[A·1{A≤b}] + b·Pr(A≤b).
    let mut term1 = 0.0;
    for (bv, bp) in b_dist.iter() {
        let inner = a.partial_expect_le(bv) + bv * a.prob_le(bv);
        if inner > 0.0 {
            term1 += bp * inner * sm_memory_factor(m, bv);
        }
    }
    // Term 2: a > b, so L = a.  For each a: Σ_{b<a} Pr(b)(a+b) =
    // E[B·1{B<a}] + a·Pr(B<a).
    let mut term2 = 0.0;
    for (av, ap) in a_dist.iter() {
        let inner = b.partial_expect_lt(av) + av * b.prob_lt(av);
        if inner > 0.0 {
            term2 += ap * inner * sm_memory_factor(m, av);
        }
    }
    term1 + term2
}

/// The Grace-hash memory factor: same brackets as sort-merge but on the
/// *smaller* size `s` (Example 1.1 / \[Sha86\]).
fn grace_memory_factor(m: &PrefixTables, s: f64) -> f64 {
    sm_memory_factor(m, s) // identical piecewise shape, different argument
}

/// Grace hash analogue of §3.6.1 (the paper's technique transfers because
/// the formula again depends only on `(a+b)` and a one-sided extremum).
pub fn streaming_expected_grace_cost(
    a: &PrefixTables,
    b_dist: &Distribution,
    b: &PrefixTables,
    a_dist: &Distribution,
    m: &PrefixTables,
) -> f64 {
    // Term 1: a ≤ b, S = a.  For each a: Σ_{b≥a} Pr(b)(a+b) =
    // a·Pr(B≥a) + E[B·1{B≥a}].
    let mut term1 = 0.0;
    for (av, ap) in a_dist.iter() {
        let inner = av * b.prob_ge(av) + b.partial_expect_ge(av);
        if inner > 0.0 {
            term1 += ap * inner * grace_memory_factor(m, av);
        }
    }
    // Term 2: a > b, S = b.  For each b: Σ_{a>b} Pr(a)(a+b) =
    // b·Pr(A>b) + E[A·1{A>b}].
    let mut term2 = 0.0;
    for (bv, bp) in b_dist.iter() {
        let inner = bv * a.prob_gt(bv) + a.partial_expect_gt(bv);
        if inner > 0.0 {
            term2 += bp * inner * grace_memory_factor(m, bv);
        }
    }
    term1 + term2
}

/// §3.6.2: expected page nested-loop cost, `A` outer.
///
/// `C(NL) = |A|+|B|` if `M ≥ S+2` else `|A| + |A|·|B|`, `S = min`.
pub fn streaming_expected_nl_cost(
    a: &PrefixTables,
    b_dist: &Distribution,
    b: &PrefixTables,
    a_dist: &Distribution,
    m: &PrefixTables,
) -> f64 {
    // Term 1: a ≤ b (S = a).  Inner sums over b ≥ a:
    //   cheap: Σ Pr(b)(a+b)   = a·Pr(B≥a) + E[B·1{B≥a}]
    //   flood: Σ Pr(b)(a+a·b) = a·Pr(B≥a) + a·E[B·1{B≥a}]
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
    // Term 2: a > b (S = b).  Inner sums over a > b:
    //   cheap: Σ Pr(a)(a+b)   = E[A·1{A>b}] + b·Pr(A>b)
    //   flood: Σ Pr(a)(a+a·b) = E[A·1{A>b}]·(1+b)
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

/// A distribution together with its [`PrefixTables`], built once and then
/// only queried: what the linear-time expectations read of an operand.
#[derive(Debug, Clone)]
pub struct DistTables {
    /// The distribution.
    pub dist: Distribution,
    /// Its prefix tables.
    pub tables: PrefixTables,
}

impl DistTables {
    /// Build `dist`'s prefix tables, once.
    pub fn new(dist: Distribution) -> Self {
        DistTables {
            tables: PrefixTables::new(&dist),
            dist,
        }
    }
}

/// Expected join cost via the linear-time path when one exists.
/// Returns `None` for block nested-loop (not separable; use the naive sum).
pub fn streaming_expected_join_cost(
    method: JoinMethod,
    a: &DistTables,
    b: &DistTables,
    m_tables: &PrefixTables,
) -> Option<f64> {
    let (a_dist, b_dist) = (&a.dist, &b.dist);
    let (a, b) = (&a.tables, &b.tables);
    match method {
        JoinMethod::SortMerge => Some(streaming_expected_sm_cost(a, b_dist, b, a_dist, m_tables)),
        JoinMethod::GraceHash => Some(streaming_expected_grace_cost(
            a, b_dist, b, a_dist, m_tables,
        )),
        JoinMethod::PageNestedLoop => {
            Some(streaming_expected_nl_cost(a, b_dist, b, a_dist, m_tables))
        }
        JoinMethod::BlockNestedLoop => None,
    }
}

/// Best available expected join cost: streaming when separable, the
/// triple sum with its block counts hoisted otherwise.  This is Algorithm
/// D's per-method costing step.
pub fn expected_join_cost(
    method: JoinMethod,
    a: &DistTables,
    b: &DistTables,
    m: &DistTables,
) -> f64 {
    streaming_expected_join_cost(method, a, b, &m.tables)
        .unwrap_or_else(|| expected_bnl_cost(&a.dist, &b.dist, &m.dist))
}

/// Expected external-sort cost over uncertain input size and memory, in
/// time linear in the bucket counts (same §3.6.1 technique: the formula is
/// `r · factor(M vs r)`).
pub fn expected_sort_cost(r_dist: &Distribution, m: &PrefixTables) -> f64 {
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

/// Naive counterpart of [`expected_sort_cost`], for testing.
pub fn naive_expected_sort_cost(r_dist: &Distribution, m_dist: &Distribution) -> f64 {
    let mut total = 0.0;
    for (rv, rp) in r_dist.iter() {
        for (mv, mp) in m_dist.iter() {
            total += formulas::sort_cost(rv, mv) * rp * mp;
        }
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
        DistTables::new(d.clone())
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
            let mt = PrefixTables::new(&m);
            for method in SEPARABLE {
                let naive = naive_expected_join_cost(method, &a, &b, &m);
                let fast = streaming_expected_join_cost(method, &tabled(&a), &tabled(&b), &mt)
                    .expect("separable method");
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
        let mt = PrefixTables::new(&m);
        for method in SEPARABLE {
            let naive = naive_expected_join_cost(method, &a, &b, &m);
            let fast = streaming_expected_join_cost(method, &tabled(&a), &tabled(&b), &mt).unwrap();
            assert!(
                (naive - fast).abs() / naive.max(1.0) < 1e-12,
                "{method:?}: {naive} vs {fast}"
            );
        }
    }

    /// The expectation as it was computed before operands carried their
    /// tables: both operands' tables rebuilt on every call.
    fn with_tables_rebuilt(
        method: JoinMethod,
        a_dist: &Distribution,
        b_dist: &Distribution,
        m_dist: &Distribution,
        m: &PrefixTables,
    ) -> f64 {
        let a = PrefixTables::new(a_dist);
        let b = PrefixTables::new(b_dist);
        match method {
            JoinMethod::SortMerge => streaming_expected_sm_cost(&a, b_dist, &b, a_dist, m),
            JoinMethod::GraceHash => streaming_expected_grace_cost(&a, b_dist, &b, a_dist, m),
            JoinMethod::PageNestedLoop => streaming_expected_nl_cost(&a, b_dist, &b, a_dist, m),
            JoinMethod::BlockNestedLoop => naive_expected_join_cost(method, a_dist, b_dist, m_dist),
        }
    }

    /// Tables built once and queried by every call give every method the
    /// bits of tables rebuilt per call, in both operand orders.
    #[test]
    fn prebuilt_tables_change_no_bits() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7AB1E5);
        let mut inputs: Vec<_> = (0..200)
            .map(|_| {
                (
                    rand_dist(&mut rng, 8, 1.0, 1e6),
                    rand_dist(&mut rng, 8, 1.0, 1e6),
                    rand_dist(&mut rng, 8, 2.0, 5e3),
                )
            })
            .collect();
        inputs.push(boundary_ties());
        for (a, b, m) in &inputs {
            let (ta, tb, tm) = (tabled(a), tabled(b), tabled(m));
            for method in JoinMethod::ALL {
                for (x, y, tx, ty) in [(a, b, &ta, &tb), (b, a, &tb, &ta)] {
                    let want = with_tables_rebuilt(method, x, y, m, &tm.tables);
                    let got = expected_join_cost(method, tx, ty, &tm);
                    assert_eq!(got.to_bits(), want.to_bits(), "{method:?}: {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn point_sizes_reduce_to_memory_expectation() {
        // With point sizes the expected cost must equal E_M[C(a,b,M)].
        let a = tabled(&Distribution::point(1_000_000.0));
        let b = tabled(&Distribution::point(400_000.0));
        let m = lec_prob::presets::example_1_1_memory();
        let mt = PrefixTables::new(&m);
        let direct = m.expect(|mv| formulas::sm_join_cost(1_000_000.0, 400_000.0, mv));
        let fast = streaming_expected_join_cost(JoinMethod::SortMerge, &a, &b, &mt).unwrap();
        assert!((direct - fast).abs() < 1e-6);
        // Paper numbers: 0.8·2.8e6 + 0.2·5.6e6 = 3.36e6.
        assert!((fast - 3_360_000.0).abs() < 1e-6);
        let grace = streaming_expected_join_cost(JoinMethod::GraceHash, &a, &b, &mt).unwrap();
        assert!((grace - 2_800_000.0).abs() < 1e-6);
    }

    #[test]
    fn nl_asymmetry_is_preserved() {
        // Outer 10 pages vs outer 1000 pages differ under low memory.
        let small = tabled(&Distribution::point(10.0));
        let big = tabled(&Distribution::point(1000.0));
        let mt = PrefixTables::new(&Distribution::point(5.0));
        let small_outer =
            streaming_expected_join_cost(JoinMethod::PageNestedLoop, &small, &big, &mt).unwrap();
        let big_outer =
            streaming_expected_join_cost(JoinMethod::PageNestedLoop, &big, &small, &mt).unwrap();
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
            let got = expected_bnl_cost(&a, &b, &m);
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
        let bnl = JoinMethod::BlockNestedLoop;
        assert!(streaming_expected_join_cost(bnl, &a, &b, &m.tables).is_none());
        let ec = expected_join_cost(bnl, &a, &b, &m);
        assert_eq!(ec, formulas::bnl_join_cost(100.0, 50.0, 12.0));
    }

    #[test]
    fn sort_streaming_matches_naive() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..100 {
            let r = rand_dist(&mut rng, 8, 1.0, 1e5);
            let m = rand_dist(&mut rng, 8, 2.0, 1e4);
            let mt = PrefixTables::new(&m);
            let naive = naive_expected_sort_cost(&r, &m);
            let fast = expected_sort_cost(&r, &mt);
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
}

//! The paper's I/O cost formulas.
//!
//! All costs are page I/Os and deliberately use the *simplified* \[Sha86\]
//! formulas; footnote 2 of the paper argues that "a return to simple
//! formulas in combination with LEC optimization may result in more
//! reliable query optimizers".  Sizes are `f64` pages (intermediate results
//! may be fractional before clamping) and are clamped to at least one page
//! at entry.
//!
//! * Sort-merge (§3.6.1, verbatim), with `L = max(|A|,|B|)`:
//!   `2(|A|+|B|)` if `M > √L`; `4(|A|+|B|)` if `∛L < M ≤ √L`;
//!   `6(|A|+|B|)` if `M ≤ ∛L`.
//! * Page nested-loop (§3.6.2, verbatim), with `S = min(|A|,|B|)` and `A`
//!   the outer input: `|A|+|B|` if `M ≥ S+2`; `|A| + |A|·|B|` otherwise.
//! * Grace hash join: Example 1.1 pins its behaviour — pass count flips at
//!   `√(min)` (633 = √400000 in the example) and a pass costs the same as a
//!   sort-merge pass.  We mirror the sort-merge shape with thresholds on
//!   `S = min(|A|,|B|)`, which is exactly \[Sha86\]'s point that hash join
//!   cliffs scale with the *smaller* relation.
//! * External sort and scans follow the same pass-counting style.

use lec_plan::JoinMethod;
use lec_prob::Distribution;

/// Smallest size, in pages, any input is treated as.
pub const MIN_PAGES: f64 = 1.0;

/// Dispatch a join method to its cost formula without touching any model
/// counter — the uncounted twin of [`crate::CostModel::join_cost`], for
/// callers reconstructing values they are not (re)computing.
pub fn raw_join_cost(method: JoinMethod, outer: f64, inner: f64, m: f64) -> f64 {
    match method {
        JoinMethod::SortMerge => sm_join_cost(outer, inner, m),
        JoinMethod::GraceHash => grace_join_cost(outer, inner, m),
        JoinMethod::PageNestedLoop => nl_join_cost(outer, inner, m),
        JoinMethod::BlockNestedLoop => bnl_join_cost(outer, inner, m),
    }
}

/// `E[raw_join_cost(method, outer, inner, M)]` over a memory distribution,
/// bit for bit, with sort-merge's and Grace hash's square and cube roots
/// taken once per call rather than once per bucket.
pub fn join_cost_over(method: JoinMethod, outer: f64, inner: f64, memory: &Distribution) -> f64 {
    let (a, b) = (clamp(outer), clamp(inner));
    match method {
        JoinMethod::SortMerge => memory.expect(passes(a.max(b), a + b)),
        JoinMethod::GraceHash => memory.expect(passes(a.min(b), a + b)),
        _ => memory.expect(|m| raw_join_cost(method, a, b, m)),
    }
}

pub(crate) fn clamp(pages: f64) -> f64 {
    if pages.is_nan() {
        MIN_PAGES
    } else {
        pages.max(MIN_PAGES)
    }
}

/// The pass-counting shape sort-merge and Grace hash share, as a function
/// of memory: two passes over `total` pages above `√l`, four above `∛l`,
/// six below.  The cube root is taken only once a memory value reaches
/// below the square root.
fn passes(l: f64, total: f64) -> impl FnMut(f64) -> f64 {
    let sqrt = l.sqrt();
    let mut cbrt = None;
    move |m| {
        if m > sqrt {
            2.0 * total
        } else if m > *cbrt.get_or_insert_with(|| l.cbrt()) {
            4.0 * total
        } else {
            6.0 * total
        }
    }
}

/// Sort-merge join cost (paper §3.6.1).
pub fn sm_join_cost(a: f64, b: f64, m: f64) -> f64 {
    let (a, b) = (clamp(a), clamp(b));
    passes(a.max(b), a + b)(m)
}

/// Grace hash join cost (Example 1.1 / \[Sha86\]); thresholds on the smaller
/// input.
pub fn grace_join_cost(a: f64, b: f64, m: f64) -> f64 {
    let (a, b) = (clamp(a), clamp(b));
    passes(a.min(b), a + b)(m)
}

/// Page nested-loop join cost (paper §3.6.2); `a` is the outer input.
pub fn nl_join_cost(a: f64, b: f64, m: f64) -> f64 {
    let (a, b) = (clamp(a), clamp(b));
    let s = a.min(b);
    if m >= s + 2.0 {
        a + b
    } else {
        a + a * b
    }
}

/// Block nested-loop join cost: the standard refinement scanning the inner
/// once per `M-2`-page block of the outer.  Not in the paper's formula set;
/// included as the "more complicated formula" ablation its footnote 2
/// discusses.
pub fn bnl_join_cost(a: f64, b: f64, m: f64) -> f64 {
    clamp(a) + bnl_blocks(a, m) * clamp(b)
}

/// Block nested-loop's block count `⌈a/max(m−2, 1)⌉`: how many times the
/// inner is scanned.  It does not read the inner size, so an expectation
/// over one hoists it out of the inner loop.
pub(crate) fn bnl_blocks(a: f64, m: f64) -> f64 {
    (clamp(a) / (m - 2.0).max(1.0)).ceil()
}

/// External sort of `r` pages with `m` buffer pages, in the same
/// pass-counting style as the join formulas: in-memory if it fits, one
/// extra run+merge level per cube/square-root regime.
pub fn sort_cost(r: f64, m: f64) -> f64 {
    let r = clamp(r);
    if m >= r {
        r
    } else if m >= r.sqrt() {
        3.0 * r
    } else if m >= r.cbrt() {
        5.0 * r
    } else {
        7.0 * r
    }
}

/// Sequential scan: one read per page.
pub fn seq_scan_cost(pages: f64) -> f64 {
    clamp(pages)
}

/// Clustered index scan retrieving fraction `sel` of `pages`: the matching
/// leaf/heap pages plus an index descent.
pub fn clustered_index_scan_cost(pages: f64, rows: f64, sel: f64) -> f64 {
    clamp(pages * sel) + (rows.max(1.0)).log2().ceil().max(1.0)
}

/// Unclustered index scan: one heap I/O per matching row (capped at reading
/// the whole table sequentially never helps here — the optimizer simply
/// won't pick it), plus an index descent.
pub fn unclustered_index_scan_cost(rows: f64, sel: f64) -> f64 {
    clamp(rows * sel) + (rows.max(1.0)).log2().ceil().max(1.0)
}

/// Memory values at which [`sm_join_cost`] changes value, ascending.
pub fn sm_breakpoints(a: f64, b: f64) -> Vec<f64> {
    let l = clamp(a).max(clamp(b));
    vec![l.cbrt(), l.sqrt()]
}

/// Memory values at which [`grace_join_cost`] changes value, ascending.
pub fn grace_breakpoints(a: f64, b: f64) -> Vec<f64> {
    let s = clamp(a).min(clamp(b));
    vec![s.cbrt(), s.sqrt()]
}

/// Memory values at which [`nl_join_cost`] changes value.
pub fn nl_breakpoints(a: f64, b: f64) -> Vec<f64> {
    vec![clamp(a).min(clamp(b)) + 2.0]
}

/// Memory values at which [`sort_cost`] changes value, ascending.
pub fn sort_breakpoints(r: f64) -> Vec<f64> {
    let r = clamp(r);
    vec![r.cbrt(), r.sqrt(), r]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Example 1.1 of the paper, Plan 1: sort-merge of A (1,000,000 pages)
    /// and B (400,000 pages).  "if the available buffer size is greater
    /// than 1000 pages (the square root of the larger relation), the join
    /// requires two passes ... fewer than 1000 pages, at least another
    /// pass."
    #[test]
    fn example_1_1_sort_merge() {
        let (a, b) = (1_000_000.0, 400_000.0);
        assert_eq!(sm_join_cost(a, b, 2000.0), 2.0 * 1_400_000.0);
        assert_eq!(sm_join_cost(a, b, 1001.0), 2.0 * 1_400_000.0);
        assert_eq!(sm_join_cost(a, b, 1000.0), 4.0 * 1_400_000.0); // M ≤ √L
        assert_eq!(sm_join_cost(a, b, 700.0), 4.0 * 1_400_000.0);
        assert_eq!(sm_join_cost(a, b, 100.0), 6.0 * 1_400_000.0); // M ≤ ∛L
        assert_eq!(sm_join_cost(a, b, 50.0), 6.0 * 1_400_000.0);
    }

    /// Example 1.1, Plan 2: Grace hash of the same relations.  "if the
    /// available buffer size is greater than 633 pages (the square root of
    /// the smaller relation), the hash join requires two passes."
    #[test]
    fn example_1_1_grace_hash() {
        let (a, b) = (1_000_000.0, 400_000.0);
        let sqrt_s = 400_000f64.sqrt(); // ≈ 632.45
        assert!((632.0..634.0).contains(&sqrt_s));
        assert_eq!(grace_join_cost(a, b, 2000.0), 2.0 * 1_400_000.0);
        assert_eq!(grace_join_cost(a, b, 700.0), 2.0 * 1_400_000.0); // 700 > 633!
        assert_eq!(grace_join_cost(a, b, 600.0), 4.0 * 1_400_000.0);
        assert_eq!(grace_join_cost(a, b, 50.0), 6.0 * 1_400_000.0);
    }

    #[test]
    fn join_formulas_are_symmetric_where_the_paper_says_so() {
        // SM and Grace depend on {|A|,|B|} as a set.
        for m in [10.0, 500.0, 5000.0] {
            assert_eq!(sm_join_cost(1e6, 4e5, m), sm_join_cost(4e5, 1e6, m));
            assert_eq!(grace_join_cost(1e6, 4e5, m), grace_join_cost(4e5, 1e6, m));
        }
        // NL is asymmetric below the memory threshold (A is outer).
        assert_ne!(
            nl_join_cost(10.0, 1000.0, 5.0),
            nl_join_cost(1000.0, 10.0, 5.0)
        );
        // ... but symmetric above it.
        assert_eq!(
            nl_join_cost(10.0, 1000.0, 2000.0),
            nl_join_cost(1000.0, 10.0, 2000.0)
        );
    }

    #[test]
    fn nested_loop_threshold_is_s_plus_2() {
        let (a, b) = (100.0, 50.0);
        assert_eq!(nl_join_cost(a, b, 52.0), 150.0);
        assert_eq!(nl_join_cost(a, b, 51.9), 100.0 + 100.0 * 50.0);
    }

    #[test]
    fn bnl_interpolates_between_nl_regimes() {
        let (a, b) = (100.0, 50.0);
        // Plenty of memory: one block → a + b.
        assert_eq!(bnl_join_cost(a, b, 102.0), 150.0);
        // Two blocks.
        assert_eq!(bnl_join_cost(a, b, 52.0), 100.0 + 2.0 * 50.0);
        // Memory 12 → block 10 → 10 blocks.
        assert_eq!(bnl_join_cost(a, b, 12.0), 100.0 + 10.0 * 50.0);
        // Below the NL threshold (M < S+2), blocking always beats the
        // paper's flooding formula; above it, the paper's NL formula is the
        // optimistic one (it keeps the smaller relation resident).
        for m in [3.0, 10.0, 51.0] {
            assert!(bnl_join_cost(a, b, m) <= nl_join_cost(a, b, m));
        }
        for m in [52.0, 60.0, 200.0] {
            assert!(bnl_join_cost(a, b, m) >= nl_join_cost(a, b, m));
        }
    }

    #[test]
    fn sort_cost_regimes() {
        let r = 3000.0;
        assert_eq!(sort_cost(r, 3000.0), 3000.0); // fits
        assert_eq!(sort_cost(r, 2000.0), 9000.0); // √3000 ≈ 54.8 ≤ m < r
        assert_eq!(sort_cost(r, 55.0), 9000.0);
        assert_eq!(sort_cost(r, 54.0), 15000.0); // ∛3000 ≈ 14.4 ≤ m < √r
        assert_eq!(sort_cost(r, 15.0), 15000.0);
        assert_eq!(sort_cost(r, 14.0), 21000.0);
    }

    #[test]
    fn scan_costs() {
        assert_eq!(seq_scan_cost(123.0), 123.0);
        assert_eq!(seq_scan_cost(0.2), MIN_PAGES);
        // 1% of 1000 pages + ⌈log2(50_000)⌉ = 10 + 16
        assert_eq!(clustered_index_scan_cost(1000.0, 50_000.0, 0.01), 26.0);
        // Unclustered pays one I/O per row.
        assert_eq!(unclustered_index_scan_cost(50_000.0, 0.001), 50.0 + 16.0);
    }

    #[test]
    fn costs_are_monotone_nonincreasing_in_memory() {
        let sizes = [(100.0, 50.0), (1e6, 4e5), (1e4, 1e4), (3.0, 8.0)];
        let mems = [2.0, 5.0, 11.0, 55.0, 101.0, 633.0, 1000.0, 1e4, 1e6, 1e7];
        for &(a, b) in &sizes {
            for f in [sm_join_cost, grace_join_cost, nl_join_cost, bnl_join_cost] {
                let mut last = f64::INFINITY;
                for &m in &mems {
                    let c = f(a, b, m);
                    assert!(c <= last + 1e-9, "cost must not increase with memory");
                    last = c;
                }
            }
        }
        let mut last = f64::INFINITY;
        for &m in &mems {
            let c = sort_cost(3000.0, m);
            assert!(c <= last);
            last = c;
        }
    }

    #[test]
    fn breakpoints_bracket_actual_cliffs() {
        let (a, b) = (1e6, 4e5);
        for (f, bps) in [
            (
                sm_join_cost as fn(f64, f64, f64) -> f64,
                sm_breakpoints(a, b),
            ),
            (grace_join_cost, grace_breakpoints(a, b)),
            (nl_join_cost, nl_breakpoints(a, b)),
        ] {
            for bp in bps {
                let below = f(a, b, bp * (1.0 - 1e-9) - 1e-9);
                let above = f(a, b, bp * (1.0 + 1e-6) + 1e-6);
                assert!(below > above, "cost should drop across breakpoint {bp}");
            }
        }
        for bp in sort_breakpoints(3000.0) {
            let below = sort_cost(3000.0, bp - 1e-6);
            let above = sort_cost(3000.0, bp + 1e-6);
            assert!(below > above, "sort cliff at {bp}");
        }
    }

    #[test]
    fn nan_and_tiny_inputs_are_clamped() {
        assert!(sm_join_cost(f64::NAN, 10.0, 100.0).is_finite());
        assert_eq!(seq_scan_cost(f64::NAN), MIN_PAGES);
        assert!(nl_join_cost(0.0, 0.0, 100.0) >= 2.0 * MIN_PAGES);
    }
}

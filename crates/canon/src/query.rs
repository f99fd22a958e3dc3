//! Canonical whole-query shapes: the normal form behind cross-query cache
//! keys.
//!
//! Two optimization requests should share a cached plan exactly when the
//! DP would do the same work for both — which is a statement about the
//! *shape* of the request, not its table numbering.  This module computes,
//! for a query, a canonical relabeling of its tables (a permutation
//! `perm[original] = canonical`) together with the **exact** encoding of
//! the relabeled query: every bit the cost model can observe — per-table
//! statistics fingerprints, filters, join predicates *in their original
//! vector order and orientation* (floating-point products are taken in
//! that order, so it is part of the computation's identity), selectivity
//! distributions, and the required output order.  Two requests with equal
//! exact encodings are the same computation up to table renaming, and a
//! cached plan can be served by relabeling alone.
//!
//! The canonical permutation is found by Weisfeiler–Leman colour
//! refinement seeded from *weak* per-table attributes (log₂ size buckets
//! and plan-space structure), followed by exhaustive minimization over
//! the (usually single) permutation consistent with the refined colour
//! classes: among all candidates, the one whose weak encoding (bucketed
//! tables, sorted edges labeled by log₂ selectivity bucket) — then exact
//! encoding — is lexicographically least.  The weak labels are private to
//! this module and no key is built from them; they stay because they
//! *decide the labeling*, and the labeling decides the exact key's bytes,
//! which pick the cache stripe an entry lands in and so what a per-stripe
//! LRU evicts.  Re-seeding the refinement from the exact attributes was
//! measured against the frozen benchmark: `mixed_churn`'s hit share moved
//! out of the window its state check accepts (0.7515 → 0.7173 on seed 2;
//! failed operations on 5 of 10 seeds).  Ties
//! inside a colour class (genuinely interchangeable tables) resolve
//! toward the identity order, matching the DP's own first-wins tie-breaks.
//! Queries larger than [`MAX_CANON_TABLES`], with more than
//! [`MAX_CANDIDATE_PERMS`] residual candidates (a near-regular graph of
//! near-identical tables), or whose join-graph body admits a *nontrivial
//! exact automorphism* — interchangeable twin tables, between which the
//! DP's tie-breaks are unavoidably label-dependent — are declared
//! uncacheable rather than risking a served plan that a fresh search
//! would not reproduce.

use lec_catalog::{Catalog, IndexKind};
use lec_cost::Fingerprint;
use lec_plan::Query;

/// Largest query the canonicalizer will touch.  Beyond this every
/// request is searched afresh (branch-and-bound pruning is what keeps
/// those searches affordable).
pub const MAX_CANON_TABLES: usize = 12;

/// Cap on candidate permutations examined after colour refinement (7! —
/// a fully symmetric 7-table clique of identical tables).  Above this the
/// query is declared uncacheable.
pub const MAX_CANDIDATE_PERMS: u128 = 5040;

/// Why [`canonical_form`] refused to canonicalize a query.  Each variant
/// is a distinct operational signal: `TooManyTables` says the workload
/// outgrew the canonicalizer's size cap, `TooManyPermutations` says the
/// query shape is too regular to label cheaply, and `TwinTables` says the
/// query contains interchangeable tables between which the DP's
/// tie-breaks are label-dependent.  Services count refusals per reason so
/// a cache whose hit rate collapses can say *why* requests stopped being
/// cacheable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefusalReason {
    /// The query is empty or exceeds [`MAX_CANON_TABLES`] tables.
    TooManyTables,
    /// Colour refinement left more than [`MAX_CANDIDATE_PERMS`] candidate
    /// labelings — a near-regular graph of near-identical tables.
    TooManyPermutations,
    /// The body admits a nontrivial exact automorphism (whole-body or a
    /// local twin swap): interchangeable tables whose tie-breaks a served
    /// relabeling could not reproduce.
    TwinTables,
}

impl RefusalReason {
    /// Stable snake_case name, used as the JSON metrics key suffix.
    pub fn name(self) -> &'static str {
        match self {
            RefusalReason::TooManyTables => "too_many_tables",
            RefusalReason::TooManyPermutations => "too_many_permutations",
            RefusalReason::TwinTables => "twin_tables",
        }
    }
}

/// A query's canonical relabeling and its cache-key encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalForm {
    /// `perm[i]` is the canonical index of original table `i`.
    pub perm: Vec<usize>,
    /// Exact encoding of the relabeled query (see module docs).
    pub exact: Vec<u64>,
}

impl CanonicalForm {
    /// The inverse permutation: `inv[canonical] = original`, for carrying
    /// a canonically-labeled cached plan back to the caller's numbering.
    pub fn inverse_perm(&self) -> Vec<usize> {
        invert(&self.perm)
    }
}

/// The bucketed view of the same occurrence: log₂ size buckets plus the
/// plan-space-shaping structure (column count, index kinds, filter
/// column) that decides which access paths and interesting orders exist.
/// The colouring seed of the canonical labeling (module docs).
fn weak_table_attr(catalog: &Catalog, query: &Query, idx: usize) -> u64 {
    let qt = &query.tables[idx];
    let stats = &catalog.table(qt.table).stats;
    let mut fp = Fingerprint::new()
        .u64(stats.pages.ilog2() as u64)
        .u64(stats.rows.max(1).ilog2() as u64)
        .u64(stats.columns.len() as u64);
    for col in &stats.columns {
        fp = fp.u64(match col.index {
            IndexKind::None => 0,
            IndexKind::Clustered => 1,
            IndexKind::Unclustered => 2,
        });
    }
    match &qt.filter {
        Some(f) => fp.u64(1).u64(f.column as u64),
        None => fp.u64(0),
    }
    .finish()
}

/// Log₂ bucket of a selectivity's mean, as the weak edge label.  (Cast of
/// a negative floor to `u64` wraps, which is fine for a bucket id — it
/// only ever needs to be deterministic and discriminating.)
fn weak_sel_bucket(mean: f64) -> u64 {
    mean.log2().floor() as i64 as u64
}

/// Per-join precomputed labels: weak bucket and exact distribution
/// fingerprint.
struct EdgeLabels {
    weak: u64,
    exact: u64,
}

/// Body-only, order-insensitive encoding under `perm`: per-table
/// attributes plus the *sorted* multiset of labeled edges, without the
/// required output order.  Two callers:
///
/// * over the weak attributes and edge labels it is the labeling's first
///   tie-break, never a key (module docs).  It works on the body because
///   that is all the DP's sub-root tie-breaks can see — a required order
///   only acts at root finalization and must not mask an
///   interchangeable-twin symmetry;
/// * over the exact ones it is what the automorphism check runs on — the
///   DP's tie-breaks observe tables and predicates by content, not by
///   their position in the joins vector, so a symmetry must be detected
///   even between permutations that shuffle identical predicates past
///   each other (which the original-order [`exact_encoding`] would
///   spuriously distinguish).
fn sorted_edge_encoding(
    query: &Query,
    attr: &[u64],
    labels: &[EdgeLabels],
    label: fn(&EdgeLabels) -> u64,
    perm: &[usize],
) -> Vec<u64> {
    let n = query.n_tables();
    let inv = invert(perm);
    let mut out = Vec::with_capacity(1 + n + query.joins.len() * 5);
    out.push(n as u64);
    for canon in 0..n {
        out.push(attr[inv[canon]]);
    }
    let mut edges: Vec<[u64; 5]> = query
        .joins
        .iter()
        .zip(labels)
        .map(|(j, l)| {
            let (u, cu) = (perm[j.left.table] as u64, j.left.column as u64);
            let (v, cv) = (perm[j.right.table] as u64, j.right.column as u64);
            if u <= v {
                [u, cu, v, cv, label(l)]
            } else {
                [v, cv, u, cu, label(l)]
            }
        })
        .collect();
    edges.sort_unstable();
    for e in edges {
        out.extend_from_slice(&e);
    }
    out
}

/// Body-only exact encoding (see [`sorted_edge_encoding`] for why the
/// required order is excluded here and appended afterwards).
fn exact_encoding(
    query: &Query,
    exact_attr: &[u64],
    labels: &[EdgeLabels],
    perm: &[usize],
) -> Vec<u64> {
    let n = query.n_tables();
    let inv = invert(perm);
    let mut out = Vec::with_capacity(1 + n + query.joins.len() * 5);
    out.push(n as u64);
    for canon in 0..n {
        out.push(exact_attr[inv[canon]]);
    }
    // Joins in original vector order and orientation: selectivity products
    // are folded in this order, so it is part of the computation's
    // identity (see the module docs).
    for (j, l) in query.joins.iter().zip(labels) {
        out.extend_from_slice(&[
            perm[j.left.table] as u64,
            j.left.column as u64,
            perm[j.right.table] as u64,
            j.right.column as u64,
            l.exact,
        ]);
    }
    out
}

/// True when some pair of equal-fingerprint tables admits a *local swap
/// symmetry*: a self-mirrored set of edges between the two, or a third
/// table to which both relate with identical oriented edge labels.
/// Either witness means the transposition of the pair is an exact
/// automorphism of a small **connected induced subgraph** — and the DP's
/// tie-breaks inside that subgraph's dag node are label-dependent even
/// when the *whole* query body is asymmetric (a distinguishing table
/// elsewhere never enters that node).  Such queries cannot be served by
/// relabeling and are declared uncacheable, exactly like whole-body
/// automorphisms.  (Higher-order subgraph symmetries with no swappable
/// pair — e.g. label-alternating cycles of twins moved only by k-cycles —
/// are not detected; like fingerprint collisions, they are accepted as a
/// beyond-adversarial residual.)
fn twin_swap_exists(exact_attr: &[u64], query: &Query, labels: &[EdgeLabels]) -> bool {
    use std::collections::HashMap;
    let n = exact_attr.len();
    for a in 0..n {
        for b in a + 1..n {
            if exact_attr[a] != exact_attr[b] {
                continue;
            }
            // Edges between a and b (oriented from a's side), and each
            // one's edges to every third table (oriented from the pair's
            // side).
            let mut mutual: Vec<(u64, u64, u64)> = Vec::new();
            let mut to_a: HashMap<usize, Vec<(u64, u64, u64)>> = HashMap::new();
            let mut to_b: HashMap<usize, Vec<(u64, u64, u64)>> = HashMap::new();
            for (j, l) in query.joins.iter().zip(labels) {
                let (u, cu) = (j.left.table, j.left.column as u64);
                let (v, cv) = (j.right.table, j.right.column as u64);
                if (u, v) == (a, b) {
                    mutual.push((cu, cv, l.exact));
                } else if (u, v) == (b, a) {
                    mutual.push((cv, cu, l.exact));
                } else if u == a {
                    to_a.entry(v).or_default().push((cu, cv, l.exact));
                } else if v == a {
                    to_a.entry(u).or_default().push((cv, cu, l.exact));
                } else if u == b {
                    to_b.entry(v).or_default().push((cu, cv, l.exact));
                } else if v == b {
                    to_b.entry(u).or_default().push((cv, cu, l.exact));
                }
            }
            if !mutual.is_empty() {
                // Swapping a and b flips each mutual edge's column pair;
                // a self-mirrored multiset makes {a, b} automorphic on
                // its own.  Asymmetric mutual edges pin the pair apart in
                // *every* induced subgraph (they are always included), so
                // the common-neighbour test below is moot either way.
                let mut orig = mutual.clone();
                let mut flipped: Vec<_> = mutual.iter().map(|&(x, y, l)| (y, x, l)).collect();
                orig.sort_unstable();
                flipped.sort_unstable();
                if orig == flipped {
                    return true;
                }
                continue;
            }
            for (t, ea) in &mut to_a {
                if let Some(eb) = to_b.get_mut(t) {
                    ea.sort_unstable();
                    eb.sort_unstable();
                    if ea == eb {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Append the required-order suffix to a body encoding under `perm`.
fn push_required_order(out: &mut Vec<u64>, query: &Query, perm: &[usize]) {
    match &query.required_order {
        Some(c) => out.extend_from_slice(&[1, perm[c.table] as u64, c.column as u64]),
        None => out.push(0),
    }
}

/// Compute the canonical form of `query`, or the [`RefusalReason`] when
/// the query is too large or too symmetric to canonicalize cheaply (the
/// caller then treats the request as uncacheable, counting the reason).
pub fn canonical_form(catalog: &Catalog, query: &Query) -> Result<CanonicalForm, RefusalReason> {
    let n = query.n_tables();
    if n == 0 || n > MAX_CANON_TABLES {
        return Err(RefusalReason::TooManyTables);
    }
    // Everything the cost model can observe about each table occurrence —
    // the same fingerprint the engine's tie-breaks use, which is what makes
    // a served plan relabel onto exactly the plan a fresh search would pick.
    let exact_attr: Vec<u64> = (0..n)
        .map(|i| lec_cost::table_occurrence_fingerprint(catalog, query, i))
        .collect();
    let weak_attr: Vec<u64> = (0..n).map(|i| weak_table_attr(catalog, query, i)).collect();
    let labels: Vec<EdgeLabels> = query
        .joins
        .iter()
        .map(|j| EdgeLabels {
            weak: weak_sel_bucket(j.selectivity.mean()),
            exact: lec_cost::dist_fingerprint(&j.selectivity),
        })
        .collect();

    // Interchangeable twins anywhere in the body — even inside a proper
    // subgraph a third table disambiguates globally — make sub-root
    // tie-breaks label-dependent; refuse before doing any more work.
    if twin_swap_exists(&exact_attr, query, &labels) {
        return Err(RefusalReason::TwinTables);
    }

    // Adjacency with oriented weak edge labels, for colour refinement.
    let mut adj: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    for (j, l) in query.joins.iter().zip(&labels) {
        let (a, ca) = (j.left.table, j.left.column as u64);
        let (b, cb) = (j.right.table, j.right.column as u64);
        let from_a = Fingerprint::new().u64(ca).u64(cb).u64(l.weak).finish();
        let from_b = Fingerprint::new().u64(cb).u64(ca).u64(l.weak).finish();
        adj[a].push((b, from_a));
        adj[b].push((a, from_b));
    }

    let colors = refine_colors(weak_attr.clone(), &adj);

    // Colour classes, ordered by colour value; members ascend by original
    // index so the identity-leaning candidate is enumerated first.
    let classes = color_classes(&colors);

    let mut candidates: u128 = 1;
    for class in &classes {
        candidates = candidates.saturating_mul(factorial(class.len()));
        if candidates > MAX_CANDIDATE_PERMS {
            return Err(RefusalReason::TooManyPermutations);
        }
    }

    // Enumerate all class-respecting permutations via an odometer over the
    // per-class orderings, minimizing (weak encoding, exact encoding).
    let class_perms: Vec<Vec<Vec<usize>>> = classes.iter().map(|c| permutations(c)).collect();
    let class_base: Vec<usize> = class_bases(&classes);
    let mut odo = vec![0usize; classes.len()];
    let mut best: Option<(Vec<u64>, Vec<u64>, Vec<usize>)> = None;
    // The automorphism detector: the minimal order-insensitive exact body
    // encoding seen so far, the perm that achieved it, and whether a
    // *different* perm reproduced it.  Two distinct permutations with
    // equal exact [`sorted_edge_encoding`]s compose into a nontrivial exact
    // automorphism: the query contains interchangeable twin tables, the
    // DP's sub-root tie-breaks between them are label-dependent
    // (plan_shape_cmp sees equal fingerprints and falls back to
    // first-wins), and a served relabeling could legitimately differ from
    // a fresh search — so the query is declared uncacheable.
    let mut best_sym: Option<(Vec<u64>, Vec<usize>)> = None;
    let mut automorphic = false;
    loop {
        let mut perm = vec![0usize; n];
        for (ci, &choice) in odo.iter().enumerate() {
            for (pos, &orig) in class_perms[ci][choice].iter().enumerate() {
                perm[orig] = class_base[ci] + pos;
            }
        }
        let sym = sorted_edge_encoding(query, &exact_attr, &labels, |l| l.exact, &perm);
        match &best_sym {
            None => best_sym = Some((sym, perm.clone())),
            Some((bs, bp)) => match sym.cmp(bs) {
                std::cmp::Ordering::Less => {
                    automorphic = false;
                    best_sym = Some((sym, perm.clone()));
                }
                std::cmp::Ordering::Equal => {
                    if perm != *bp {
                        automorphic = true;
                    }
                }
                std::cmp::Ordering::Greater => {}
            },
        }
        let weak = sorted_edge_encoding(query, &weak_attr, &labels, |l| l.weak, &perm);
        let better = match &best {
            None => true,
            Some((bw, be, _)) => {
                weak.cmp(bw)
                    .then_with(|| exact_encoding(query, &exact_attr, &labels, &perm).cmp(be))
                    == std::cmp::Ordering::Less
            }
        };
        if better {
            let exact = exact_encoding(query, &exact_attr, &labels, &perm);
            best = Some((weak, exact, perm));
        }
        // Advance the odometer.
        let mut ci = 0;
        loop {
            if ci == odo.len() {
                if automorphic {
                    return Err(RefusalReason::TwinTables);
                }
                let (_, mut exact, perm) = best.expect("at least one candidate");
                push_required_order(&mut exact, query, &perm);
                return Ok(CanonicalForm { perm, exact });
            }
            odo[ci] += 1;
            if odo[ci] < class_perms[ci].len() {
                break;
            }
            odo[ci] = 0;
            ci += 1;
        }
    }
}

/// Weisfeiler–Leman refinement: a table's colour absorbs the sorted
/// multiset of (edge label, neighbour colour).  Colours only ever split
/// (each round's signature includes the previous colour), so iteration
/// stops when the number of classes stops growing.
fn refine_colors(mut colors: Vec<u64>, adj: &[Vec<(usize, u64)>]) -> Vec<u64> {
    let n = colors.len();
    let mut n_classes = distinct(&colors);
    for _ in 0..n {
        let next: Vec<u64> = (0..n)
            .map(|i| {
                let mut neigh: Vec<(u64, u64)> =
                    adj[i].iter().map(|&(j, e)| (e, colors[j])).collect();
                neigh.sort_unstable();
                let mut fp = Fingerprint::new().u64(colors[i]);
                for (e, c) in neigh {
                    fp = fp.u64(e).u64(c);
                }
                fp.finish()
            })
            .collect();
        let next_classes = distinct(&next);
        if next_classes == n_classes {
            break;
        }
        colors = next;
        n_classes = next_classes;
    }
    colors
}

/// Colour classes ordered by colour value, members ascending by original
/// index (so the identity-leaning candidate is enumerated first).
fn color_classes(colors: &[u64]) -> Vec<Vec<usize>> {
    let mut members: Vec<usize> = (0..colors.len()).collect();
    members.sort_by_key(|&i| (colors[i], i));
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for &i in &members {
        match classes.last_mut() {
            Some(class) if colors[class[0]] == colors[i] => class.push(i),
            _ => classes.push(vec![i]),
        }
    }
    classes
}

/// Starting canonical index of each class (classes are laid out
/// contiguously in class order).
fn class_bases(classes: &[Vec<usize>]) -> Vec<usize> {
    classes
        .iter()
        .scan(0usize, |acc, c| {
            let base = *acc;
            *acc += c.len();
            Some(base)
        })
        .collect()
}

/// Invert a permutation: `inv[perm[i]] = i`.
fn invert(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (orig, &canon) in perm.iter().enumerate() {
        inv[canon] = orig;
    }
    inv
}

/// All permutations of `items` in lexicographic order (by position).
fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (i, &head) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for tail in permutations(&rest) {
            let mut p = Vec::with_capacity(items.len());
            p.push(head);
            p.extend(tail);
            out.push(p);
        }
    }
    out
}

fn distinct(colors: &[u64]) -> usize {
    let mut sorted = colors.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

fn factorial(k: usize) -> u128 {
    (1..=k as u128).product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lec_catalog::{Catalog, ColumnStats, TableStats};
    use lec_plan::{ColumnRef, JoinPredicate, Query, QueryTable};

    /// A chain with strictly growing table sizes (no symmetry).
    fn chain(n: usize) -> (Catalog, Query) {
        let mut cat = Catalog::new();
        let ids: Vec<_> = (0..n)
            .map(|i| {
                cat.add_table(
                    format!("T{i}"),
                    TableStats::new(
                        1000 * (i as u64 + 1),
                        50_000 * (i as u64 + 1),
                        vec![ColumnStats::plain("a", 100), ColumnStats::plain("b", 100)],
                    ),
                )
            })
            .collect();
        let q = Query {
            tables: ids.into_iter().map(QueryTable::bare).collect(),
            joins: (0..n - 1)
                .map(|i| JoinPredicate::exact(ColumnRef::new(i, 1), ColumnRef::new(i + 1, 0), 1e-5))
                .collect(),
            required_order: None,
        };
        (cat, q)
    }

    #[test]
    fn renamed_queries_share_their_canonical_form() {
        let (cat, q) = chain(5);
        let base = canonical_form(&cat, &q).unwrap();
        let map = [3usize, 0, 4, 1, 2];
        let renamed = q.relabel_tables(&map);
        let other = canonical_form(&cat, &renamed).unwrap();
        assert_eq!(base.exact, other.exact);
        // The permutations compose: original i and renamed map[i] land on
        // the same canonical index.
        for (i, &m) in map.iter().enumerate() {
            assert_eq!(base.perm[i], other.perm[m]);
        }
    }

    #[test]
    fn inverse_perm_inverts() {
        let (cat, q) = chain(4);
        let form = canonical_form(&cat, &q).unwrap();
        let inv = form.inverse_perm();
        for i in 0..4 {
            assert_eq!(inv[form.perm[i]], i);
        }
    }

    #[test]
    fn selectivity_drift_within_a_bucket_changes_the_key_but_not_the_labeling() {
        let (cat, mut q) = chain(4);
        let base = canonical_form(&cat, &q).unwrap();
        // Nudge a selectivity within its log2 bucket.
        q.joins[1].selectivity = lec_prob::Distribution::point(1.01e-5);
        let drift = canonical_form(&cat, &q).unwrap();
        assert_eq!(base.perm, drift.perm, "same weak labels, same labeling");
        assert_ne!(base.exact, drift.exact, "different exact computation");
    }

    #[test]
    fn required_order_participates_in_the_key() {
        let (cat, mut q) = chain(4);
        let base = canonical_form(&cat, &q).unwrap();
        q.required_order = Some(ColumnRef::new(2, 0));
        let ordered = canonical_form(&cat, &q).unwrap();
        assert_ne!(base.exact, ordered.exact);
    }

    #[test]
    fn oversize_and_hypersymmetric_queries_are_uncacheable() {
        let (cat, q) = chain(MAX_CANON_TABLES + 1);
        assert_eq!(canonical_form(&cat, &q), Err(RefusalReason::TooManyTables));

        // A clique of eight *identical* tables is refused for its twins
        // (the pairwise automorphism check fires before any permutation is
        // enumerated).
        let clique = |stats: &dyn Fn(usize) -> TableStats| {
            let mut cat = Catalog::new();
            let ids: Vec<_> = (0..8)
                .map(|i| cat.add_table(format!("C{i}"), stats(i)))
                .collect();
            let mut joins = Vec::new();
            for i in 0..8 {
                for j in i + 1..8 {
                    joins.push(JoinPredicate::exact(
                        ColumnRef::new(i, 0),
                        ColumnRef::new(j, 0),
                        1e-5,
                    ));
                }
            }
            let q = Query {
                tables: ids.into_iter().map(QueryTable::bare).collect(),
                joins,
                required_order: None,
            };
            (cat, q)
        };
        let (cat, q) =
            clique(&|_| TableStats::new(1000, 50_000, vec![ColumnStats::plain("a", 100)]));
        assert_eq!(canonical_form(&cat, &q), Err(RefusalReason::TwinTables));

        // The same clique with row counts drifted inside one log₂ bucket:
        // no exact twins, but the weak attributes (all colour refinement
        // can see) stay equal, leaving 8! candidate labelings.
        let (cat, q) = clique(&|i| {
            TableStats::new(1000, 50_000 + i as u64, vec![ColumnStats::plain("a", 100)])
        });
        assert_eq!(
            canonical_form(&cat, &q),
            Err(RefusalReason::TooManyPermutations)
        );
    }

    #[test]
    fn globally_distinguished_twins_are_still_uncacheable() {
        // Hub H with twin spokes S1/S2 (equal stats, equal selectivities)
        // plus X joined only to S1.  The *whole body* has no automorphism
        // (X breaks the symmetry), but the induced subgraph {H, S1, S2}
        // does — and the DP's node for that subset breaks the twin tie by
        // arrival order, so a renamed request could legitimately get the
        // other twin first.  The pairwise twin-swap witness must refuse
        // the query even though the body-level check cannot see it.
        let mut cat = Catalog::new();
        let hub = cat.add_table(
            "hub",
            TableStats::new(50_000, 2_500_000, vec![ColumnStats::plain("a", 100)]),
        );
        let spoke = || TableStats::new(1000, 50_000, vec![ColumnStats::plain("a", 100)]);
        let s1 = cat.add_table("s1", spoke());
        let s2 = cat.add_table("s2", spoke());
        let x = cat.add_table(
            "x",
            TableStats::new(7000, 300_000, vec![ColumnStats::plain("a", 100)]),
        );
        let mut q = Query {
            tables: [hub, s1, s2, x].into_iter().map(QueryTable::bare).collect(),
            joins: vec![
                JoinPredicate::exact(ColumnRef::new(0, 0), ColumnRef::new(1, 0), 1e-5),
                JoinPredicate::exact(ColumnRef::new(0, 0), ColumnRef::new(2, 0), 1e-5),
                JoinPredicate::exact(ColumnRef::new(1, 0), ColumnRef::new(3, 0), 1e-4),
            ],
            required_order: None,
        };
        assert_eq!(
            canonical_form(&cat, &q),
            Err(RefusalReason::TwinTables),
            "a subgraph-level twin symmetry must refuse the whole query"
        );
        // Distinct spoke selectivities break the sub-symmetry too.
        q.joins[1].selectivity = lec_prob::Distribution::point(3e-5);
        assert!(canonical_form(&cat, &q).is_ok());
    }

    #[test]
    fn automorphic_twin_tables_are_uncacheable() {
        // A star whose spokes are pairwise identical admits nontrivial
        // exact automorphisms: the DP's tie-breaks between twin spokes
        // are label-dependent (equal shape fingerprints), so serving a
        // relabeled cached plan could diverge from a fresh search — the
        // canonicalizer must refuse such queries.
        let mut cat = Catalog::new();
        let hub = cat.add_table(
            "hub",
            TableStats::new(50_000, 2_500_000, vec![ColumnStats::plain("a", 100)]),
        );
        let spoke_stats = || TableStats::new(1000, 50_000, vec![ColumnStats::plain("a", 100)]);
        let spokes: Vec<_> = (0..4)
            .map(|i| cat.add_table(format!("s{i}"), spoke_stats()))
            .collect();
        let mut tables = vec![QueryTable::bare(hub)];
        tables.extend(spokes.into_iter().map(QueryTable::bare));
        let mut q = Query {
            tables,
            joins: (1..5)
                .map(|i| JoinPredicate::exact(ColumnRef::new(0, 0), ColumnRef::new(i, 0), 1e-5))
                .collect(),
            required_order: None,
        };
        assert_eq!(
            canonical_form(&cat, &q),
            Err(RefusalReason::TwinTables),
            "twin spokes"
        );
        // A required order distinguishes one spoke globally, but the DP
        // never sees it below the root — the body symmetry (and so the
        // refusal) must stand.
        q.required_order = Some(ColumnRef::new(2, 0));
        assert_eq!(
            canonical_form(&cat, &q),
            Err(RefusalReason::TwinTables),
            "a root order requirement must not mask the twin symmetry"
        );
        // Making the spokes' join selectivities distinct breaks the
        // automorphism and restores cacheability.
        for (i, j) in q.joins.iter_mut().enumerate() {
            j.selectivity = lec_prob::Distribution::point(1e-5 * (i + 1) as f64);
        }
        assert!(canonical_form(&cat, &q).is_ok());
    }
}

//! [`canonical_form`]: the labeling and the exact encoding behind
//! cross-query cache keys.  The crate docs say what is computed, what is
//! refused and which values are pinned; the comments here say how.

use lec_catalog::Catalog;
use lec_cost::Fingerprint;
use lec_plan::Query;

/// Largest query the canonicalizer will touch.  Beyond this every
/// request is searched afresh (the DP visits connected subsets only,
/// which is what keeps those searches affordable).
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

/// A query's canonical relabeling and its cache-key encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalForm {
    /// `perm[i]` is the canonical index of original table `i`.
    pub perm: Vec<usize>,
    /// Exact encoding of the relabeled query (see the crate docs).
    pub exact: Vec<u64>,
}

impl CanonicalForm {
    /// The inverse permutation: `inv[canonical] = original`, for carrying
    /// a canonically-labeled cached plan back to the caller's numbering.
    /// It lives on the stack; slots past the query's tables hold 0.
    pub fn inverse_perm(&self) -> [usize; MAX_CANON_TABLES] {
        invert(&self.perm)
    }
}

/// The bucketed view of one table occurrence, the colouring seed of the
/// labeling: the stored table's log₂ size buckets and plan-space-shaping
/// structure (folded once by the catalog) plus the occurrence's filter
/// column — what decides which access paths and interesting orders exist.
fn weak_table_attr(catalog: &Catalog, query: &Query, idx: usize) -> u64 {
    let qt = &query.tables[idx];
    let fp = catalog.bucketed_prefix(qt.table);
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

/// Per-join labels: weak bucket and exact distribution fingerprint.
#[derive(Clone, Copy, Default)]
struct EdgeLabels {
    weak: u64,
    exact: u64,
}

/// `[n, attr of canonical table 0, .., attr of canonical table n - 1]`,
/// the head both body encodings share, with room for `spare` more words.
fn encoding_head(attr: &[u64], perm: &[usize], spare: usize) -> Vec<u64> {
    let n = attr.len();
    let mut out = Vec::with_capacity(1 + n + spare);
    out.resize(1 + n, n as u64);
    for (orig, &a) in attr.iter().enumerate() {
        out[1 + perm[orig]] = a;
    }
    out
}

/// Body-only, order-insensitive encoding under `perm`: per-table
/// attributes plus the *sorted* multiset of labeled edges, without the
/// required output order.  Only [`minimal_labeling`] builds it, twice per
/// candidate:
///
/// * over the weak attributes and edge labels it is the labeling's first
///   tie-break, never a key (crate docs).  It works on the body because
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
    let mut out = encoding_head(attr, perm, query.joins.len() * 5);
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
    out.extend(edges.into_iter().flatten());
    out
}

/// Body-only exact encoding (see [`sorted_edge_encoding`] for why the
/// required order is excluded here and appended afterwards).
fn exact_encoding(query: &Query, r: &Refined, perm: &[usize]) -> Vec<u64> {
    // Room for the required-order suffix and for the two environment words
    // the serving layer pushes to make its cache key of the same buffer.
    let mut out = encoding_head(&r.exact_attr[..r.n], perm, query.joins.len() * 5 + 3 + 2);
    // Joins in original vector order and orientation: selectivity products
    // are folded in this order, so it is part of the computation's
    // identity (see the crate docs).
    for (j, l) in query.joins.iter().zip(r.labels) {
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
    // A table's edges as sorted (far table, near column, far column, label).
    let edges_of = |x: usize| {
        let mut edges: Vec<(usize, u64, u64, u64)> = Vec::new();
        for (j, l) in query.joins.iter().zip(labels) {
            for (near, far) in [(j.left, j.right), (j.right, j.left)] {
                if near.table == x {
                    edges.push((far.table, near.column as u64, far.column as u64, l.exact));
                }
            }
        }
        edges.sort_unstable();
        edges
    };
    let toward = |edges: &[(usize, u64, u64, u64)], t: usize| -> Vec<(u64, u64, u64)> {
        let to_t = edges.iter().filter(|e| e.0 == t);
        to_t.map(|&(_, near, far, l)| (near, far, l)).collect()
    };
    let n = exact_attr.len();
    for a in 0..n {
        for b in a + 1..n {
            if exact_attr[a] != exact_attr[b] {
                continue;
            }
            let (of_a, of_b) = (edges_of(a), edges_of(b));
            let mutual = toward(&of_a, b);
            if !mutual.is_empty() {
                // Swapping a and b flips each mutual edge's column pair;
                // a self-mirrored multiset makes {a, b} automorphic on
                // its own.  Asymmetric mutual edges pin the pair apart in
                // *every* induced subgraph (they are always included), so
                // the common-neighbour test below is moot either way.
                let mut flipped: Vec<_> = mutual.iter().map(|&(x, y, l)| (y, x, l)).collect();
                flipped.sort_unstable();
                if mutual == flipped {
                    return true;
                }
                continue;
            }
            // A third table both relate to with identical oriented edges.
            let shared = |t| {
                let (to_a, to_b) = (toward(&of_a, t), toward(&of_b, t));
                !to_a.is_empty() && to_a == to_b
            };
            if (0..n).any(shared) {
                return true;
            }
        }
    }
    false
}

/// Compute the canonical form of `query`, or the [`RefusalReason`] when
/// the query is too large or too symmetric to canonicalize cheaply (the
/// caller then treats the request as uncacheable, counting the reason).
/// The form's two vectors are all it allocates: per-join labels and
/// half-edges live in stack scratch up to `STACK_JOINS` joins.
pub fn canonical_form(catalog: &Catalog, query: &Query) -> Result<CanonicalForm, RefusalReason> {
    with_scratch::<_, STACK_JOINS, _>(query.joins.len(), |labels| {
        let r = refine(catalog, query, labels)?;
        let (perm, mut exact) = if r.discrete {
            discrete_labeling(query, &r)
        } else {
            minimal_labeling(query, &r)?
        };
        // The required-order suffix: part of the key, not of the labeled
        // body.
        match &query.required_order {
            Some(c) => exact.extend_from_slice(&[1, perm[c.table] as u64, c.column as u64]),
            None => exact.push(0),
        }
        Ok(CanonicalForm { perm, exact })
    })
}

/// Joins whose scratch (an [`EdgeLabels`] and two [`HalfEdge`]s each)
/// lives on the stack: a simple graph on [`MAX_CANON_TABLES`] tables has
/// at most this many edges.  A query repeating predicates past it takes
/// the heap.
const STACK_JOINS: usize = MAX_CANON_TABLES * (MAX_CANON_TABLES - 1) / 2;

/// Run `f` on `len` default values: in an `N`-slot array on the stack
/// when they fit, in a vector when they do not.
fn with_scratch<T: Copy + Default, const N: usize, R>(
    len: usize,
    f: impl FnOnce(&mut [T]) -> R,
) -> R {
    if len <= N {
        f(&mut [T::default(); N][..len])
    } else {
        f(&mut vec![T::default(); len])
    }
}

/// What a labeling is chosen from: a query's per-table attributes (`n`
/// live slots each), its per-join labels and the refined colouring.
struct Refined<'l> {
    n: usize,
    exact_attr: [u64; MAX_CANON_TABLES],
    weak_attr: [u64; MAX_CANON_TABLES],
    labels: &'l [EdgeLabels],
    colors: [u64; MAX_CANON_TABLES],
    /// Tables by (colour, original index): the colour classes end to end.
    order: [usize; MAX_CANON_TABLES],
    /// Every class is a single table.
    discrete: bool,
}

/// Refine `query`'s colouring, its per-join labels written to `labels`
/// (one slot per join).
fn refine<'l>(
    catalog: &Catalog,
    query: &Query,
    labels: &'l mut [EdgeLabels],
) -> Result<Refined<'l>, RefusalReason> {
    let n = query.n_tables();
    if n == 0 || n > MAX_CANON_TABLES {
        return Err(RefusalReason::TooManyTables);
    }
    // Everything the cost model can observe about each table occurrence —
    // the same fingerprint the engine's tie-breaks use, which is what makes
    // a served plan relabel onto exactly the plan a fresh search would pick.
    let (mut exact_attr, mut weak_attr) = ([0; MAX_CANON_TABLES], [0; MAX_CANON_TABLES]);
    for i in 0..n {
        exact_attr[i] = lec_cost::table_occurrence_fingerprint(catalog, query, i);
        weak_attr[i] = weak_table_attr(catalog, query, i);
    }
    for (l, j) in labels.iter_mut().zip(&query.joins) {
        *l = EdgeLabels {
            weak: weak_sel_bucket(j.selectivity.mean()),
            exact: lec_cost::dist_fingerprint(&j.selectivity),
        };
    }
    let labels = &*labels;
    // Interchangeable twins anywhere in the body — even inside a proper
    // subgraph a third table disambiguates globally — make sub-root
    // tie-breaks label-dependent; refuse before doing any more work.
    if twin_swap_exists(&exact_attr[..n], query, labels) {
        return Err(RefusalReason::TwinTables);
    }
    let (colors, n_classes) = refine_colors(&weak_attr[..n], query, labels);
    let mut order: [usize; MAX_CANON_TABLES] = std::array::from_fn(|i| i);
    order[..n].sort_unstable_by_key(|&i| (colors[i], i));
    Ok(Refined {
        n,
        exact_attr,
        weak_attr,
        labels,
        colors,
        order,
        discrete: n_classes == n,
    })
}

/// The one class-respecting labeling of a discrete colouring — the class
/// order itself — and its exact body encoding.
fn discrete_labeling(query: &Query, r: &Refined) -> (Vec<usize>, Vec<u64>) {
    let perm = invert(&r.order[..r.n])[..r.n].to_vec();
    let exact = exact_encoding(query, r, &perm);
    (perm, exact)
}

/// The search behind a colouring with a class of two or more tables:
/// among all class-respecting labelings, the one whose weak
/// [`sorted_edge_encoding`] — then [`exact_encoding`] — is
/// lexicographically least, with that exact encoding.
fn minimal_labeling(query: &Query, r: &Refined) -> Result<(Vec<usize>, Vec<u64>), RefusalReason> {
    // Colour classes as position ranges of the class order; members ascend
    // by original index, so the identity-leaning candidate comes first.
    let mut arrangement = r.order;
    let mut classes: Vec<std::ops::Range<usize>> = Vec::new();
    let mut candidates: u128 = 1;
    for class in r.order[..r.n].chunk_by(|&a, &b| r.colors[a] == r.colors[b]) {
        let at = classes.last().map_or(0, |c| c.end);
        classes.push(at..at + class.len());
        candidates = candidates.saturating_mul((1..=class.len() as u128).product());
        if candidates > MAX_CANDIDATE_PERMS {
            return Err(RefusalReason::TooManyPermutations);
        }
    }

    let mut best: Option<(_, [usize; MAX_CANON_TABLES])> = None;
    // The automorphism detector: the minimal order-insensitive exact body
    // encoding seen so far, and whether a *different* perm reproduced it
    // (the candidates are distinct permutations, so any equal encoding
    // is one).  Two distinct permutations with equal exact
    // [`sorted_edge_encoding`]s compose into a nontrivial exact
    // automorphism: the query contains interchangeable twin tables, the
    // DP's sub-root tie-breaks between them are label-dependent
    // (the shape tie-break sees equal fingerprints and falls back to
    // first-wins), and a served relabeling could legitimately differ from
    // a fresh search — so the query is declared uncacheable.
    let mut best_sym: Option<Vec<u64>> = None;
    let mut automorphic = false;
    loop {
        let inverse = invert(&arrangement[..r.n]);
        let perm = &inverse[..r.n];
        let sym = sorted_edge_encoding(query, &r.exact_attr[..r.n], r.labels, |l| l.exact, perm);
        match best_sym.as_ref().map(|bs| sym.cmp(bs)) {
            None | Some(std::cmp::Ordering::Less) => {
                automorphic = false;
                best_sym = Some(sym);
            }
            Some(std::cmp::Ordering::Equal) => automorphic = true,
            Some(std::cmp::Ordering::Greater) => {}
        }
        let weak = sorted_edge_encoding(query, &r.weak_attr[..r.n], r.labels, |l| l.weak, perm);
        let key = (weak, exact_encoding(query, r, perm));
        if best.as_ref().is_none_or(|(least, _)| key < *least) {
            best = Some((key, inverse));
        }
        // An odometer over the per-class orderings, first class fastest:
        // a class past its last ordering wraps and carries into the next.
        let mut digits = classes.iter().cloned();
        if !digits.any(|c| next_permutation(&mut arrangement[c])) {
            break;
        }
    }
    if automorphic {
        return Err(RefusalReason::TwinTables);
    }
    let ((_, exact), perm) = best.expect("at least one candidate");
    Ok((perm[..r.n].to_vec(), exact))
}

/// One direction of a join predicate as colour refinement reads it: the
/// far table and the fold of (near column, far column, weak selectivity
/// bucket).
#[derive(Clone, Copy, Default)]
struct HalfEdge {
    to: usize,
    label: u64,
}

/// Weisfeiler–Leman refinement from the weak attributes: a table's colour
/// absorbs the sorted multiset of (edge label, neighbour colour).  Colours
/// only ever split (each round's signature includes the previous colour),
/// so iteration stops when the class count stops growing — which a
/// discrete colouring shows without the round that would confirm it.
fn refine_colors(
    weak_attr: &[u64],
    query: &Query,
    labels: &[EdgeLabels],
) -> ([u64; MAX_CANON_TABLES], usize) {
    let n = weak_attr.len();
    let mut colors = [0; MAX_CANON_TABLES];
    colors[..n].copy_from_slice(weak_attr);
    let mut n_classes = distinct(&colors[..n]);
    if n_classes == n {
        return (colors, n_classes);
    }
    // Half-edges grouped by near table: `start[i]..start[i + 1]` are `i`'s.
    let mut start = [0usize; MAX_CANON_TABLES + 1];
    for (u, v) in query.joins.iter().map(|j| j.tables()) {
        start[u + 1] += 1;
        start[v + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut fill = start;
    with_scratch::<_, { 2 * STACK_JOINS }, _>(2 * query.joins.len(), |half| {
        for (j, l) in query.joins.iter().zip(labels) {
            for (near, far) in [(j.left, j.right), (j.right, j.left)] {
                let label = Fingerprint::new().u64(near.column as u64);
                let label = label.u64(far.column as u64).u64(l.weak).finish();
                let to = far.table;
                half[fill[near.table]] = HalfEdge { to, label };
                fill[near.table] += 1;
            }
        }
        for _ in 0..n {
            let mut next = [0; MAX_CANON_TABLES];
            for i in 0..n {
                let neigh = &mut half[start[i]..start[i + 1]];
                neigh.sort_unstable_by_key(|h| (h.label, colors[h.to]));
                let seed = Fingerprint::new().u64(colors[i]);
                let fold = |fp: Fingerprint, h: &HalfEdge| fp.u64(h.label).u64(colors[h.to]);
                next[i] = neigh.iter().fold(seed, fold).finish();
            }
            let next_classes = distinct(&next[..n]);
            if next_classes == n_classes {
                break;
            }
            colors = next;
            n_classes = next_classes;
            if n_classes == n {
                break;
            }
        }
    });
    (colors, n_classes)
}

/// Invert a permutation of at most [`MAX_CANON_TABLES`] tables:
/// `inv[perm[i]] = i`, slots past `perm.len()` left 0.
fn invert(perm: &[usize]) -> [usize; MAX_CANON_TABLES] {
    let mut inv = [0; MAX_CANON_TABLES];
    for (orig, &canon) in perm.iter().enumerate() {
        inv[canon] = orig;
    }
    inv
}

/// Step `a` to its next permutation in lexicographic order; from the last
/// one, back to the first (ascending) and `false`.
fn next_permutation(a: &mut [usize]) -> bool {
    let Some(i) = a.windows(2).rposition(|w| w[0] < w[1]) else {
        a.reverse();
        return false;
    };
    let j = a.iter().rposition(|&x| x > a[i]).expect("a[i + 1] is one");
    a.swap(i, j);
    a[i + 1..].reverse();
    true
}

/// Number of distinct values among at most [`MAX_CANON_TABLES`] colours.
fn distinct(colors: &[u64]) -> usize {
    let first_of_its_value = |i: &usize| !colors[..*i].contains(&colors[*i]);
    (0..colors.len()).filter(first_of_its_value).count()
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
    fn a_query_past_the_stack_scratch_keys_like_its_renamings() {
        // Twelve tables in six pairs, each pair one weak class (rows
        // drifted inside a log₂ bucket) but exactly distinct; a clique of
        // 66 joins plus one repeated predicate, so both the per-join
        // labels (67) and the half-edges (134) take the heap.  The repeat
        // joins tables 0 and 2, which splits their pairs in refinement;
        // four pairs stay classes, so a search runs too.
        let mut cat = Catalog::new();
        let ids: Vec<_> = (0..MAX_CANON_TABLES)
            .map(|i| {
                let (pages, rows) = (1000 << (i / 2), (50_000 << (i / 2)) + i as u64 % 2);
                let stats = TableStats::new(pages, rows, vec![ColumnStats::plain("a", 100)]);
                cat.add_table(format!("P{i}"), stats)
            })
            .collect();
        let mut joins = Vec::new();
        for i in 0..MAX_CANON_TABLES {
            for j in i + 1..MAX_CANON_TABLES {
                joins.push(JoinPredicate::exact(
                    ColumnRef::new(i, 0),
                    ColumnRef::new(j, 0),
                    1e-5,
                ));
            }
        }
        joins.push(JoinPredicate::exact(
            ColumnRef::new(0, 0),
            ColumnRef::new(2, 0),
            1e-3,
        ));
        assert!(joins.len() > STACK_JOINS);
        let mut q = Query {
            tables: ids.into_iter().map(QueryTable::bare).collect(),
            joins,
            required_order: None,
        };
        let base = canonical_form(&cat, &q).expect("no twins, 16 candidates");
        let map = [7usize, 3, 11, 0, 5, 9, 1, 10, 2, 8, 4, 6];
        let renamed = canonical_form(&cat, &q.relabel_tables(&map)).unwrap();
        assert_eq!(base.exact, renamed.exact);
        for (i, &m) in map.iter().enumerate() {
            assert_eq!(base.perm[i], renamed.perm[m]);
        }
        // The heap-held labels reach the key.
        q.joins.last_mut().unwrap().selectivity = lec_prob::Distribution::point(2e-3);
        assert_ne!(canonical_form(&cat, &q).unwrap().exact, base.exact);
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
    /// The discrete fast path and the enumerator it bypasses are the same
    /// function wherever both apply.
    #[test]
    fn the_discrete_fast_path_agrees_with_the_enumerator() {
        use lec_plan::{QueryProfile, Topology, WorkloadGenerator};
        let mut checked = 0;
        for seed in 0..160u64 {
            let n = 3 + (seed % 6) as usize;
            let mut g = lec_catalog::CatalogGenerator::new(seed);
            let cat = g.generate(n + 1);
            let ids = g.pick_tables(&cat, n);
            // Chain, star, random, and a cycle (a chain plus a closing edge).
            let topology =
                [Topology::Chain, Topology::Star, Topology::Random][(seed % 4 % 3) as usize];
            let profile = QueryProfile {
                topology,
                sel_buckets: 1 + 2 * (seed % 2) as usize,
                ..Default::default()
            };
            let mut q = WorkloadGenerator::new(seed ^ 0xC0FFEE).gen_query(&cat, &ids, &profile);
            if seed % 4 == 3 {
                let (last, first) = (ColumnRef::new(n - 1, 0), ColumnRef::new(0, 0));
                q.joins.push(JoinPredicate::exact(last, first, 1e-4));
            }
            let mut labels = vec![EdgeLabels::default(); q.joins.len()];
            let Ok(r) = refine(&cat, &q, &mut labels) else {
                continue;
            };
            if r.discrete {
                let fast = discrete_labeling(&q, &r);
                assert_eq!(minimal_labeling(&q, &r), Ok(fast), "seed {seed}");
                checked += 1;
            }
        }
        assert!(checked >= 100, "only {checked} discrete colourings");
    }

    /// A 4-cycle whose two opposite corners share their log₂ buckets and
    /// differ in rows: nothing refinement sees separates them, so the
    /// labeling comes from the enumerator — and is the same labeling under
    /// every renaming.
    #[test]
    fn near_twins_in_symmetric_positions_are_labeled_by_the_enumerator() {
        let mut cat = Catalog::new();
        let stats = |pages, rows| TableStats::new(pages, rows, vec![ColumnStats::plain("a", 100)]);
        let ids = [
            cat.add_table("hub", stats(50_000, 2_500_000)),
            cat.add_table("east", stats(1000, 50_000)),
            cat.add_table("far", stats(7000, 300_000)),
            cat.add_table("west", stats(1000, 50_001)),
        ];
        let q = Query {
            tables: ids.into_iter().map(QueryTable::bare).collect(),
            joins: (0..4)
                .map(|i| {
                    let (l, r) = (ColumnRef::new(i, 0), ColumnRef::new((i + 1) % 4, 0));
                    JoinPredicate::exact(l, r, 1e-5)
                })
                .collect(),
            required_order: None,
        };
        let mut labels = vec![EdgeLabels::default(); q.joins.len()];
        assert!(!refine(&cat, &q, &mut labels).unwrap().discrete);
        let base = canonical_form(&cat, &q).unwrap();
        let mut map = [0, 1, 2, 3];
        while next_permutation(&mut map) {
            let other = canonical_form(&cat, &q.relabel_tables(&map)).unwrap();
            assert_eq!(base.exact, other.exact, "renaming {map:?}");
            for (i, &m) in map.iter().enumerate() {
                assert_eq!(base.perm[i], other.perm[m], "renaming {map:?}");
            }
        }
    }
}

//! The cost-calibration observatory: ground truth in the loop.
//!
//! The paper's claim is that minimizing *expected* cost beats minimizing
//! least-specific cost — a claim about predictions.  This module closes
//! the predicted-vs-measured loop: it executes plans through the real
//! page-counting operators ([`crate::bufpool`] / [`crate::extops`]) and
//! produces a per-plan **cost audit trace** pairing, for every plan node,
//! its operator class and the cost model's prediction (point per memory
//! bucket, and expected under the memory belief) with measured page I/O.
//! The [`CostAudit`] is the one home of calibration data: no served
//! request executes a plan, so nothing of it reaches the metrics document.
//!
//! Because catalogs describe tables far too large to materialize, the
//! observatory builds a **physical twin** of the query: each table scaled
//! down (ratio-preserving) to at most 32 pages, with `rows = pages ·
//! page_cap` (4 rows a page) so page arithmetic is exact, and with the
//! twin's selectivities rewritten to the *page-level* values the
//! generated data actually induces (a join on the shared
//! [`crate::datagen::JOIN_DOMAIN`] produces `a·b·(page_cap/domain)` pages
//! from `a` and `b` page inputs; a filter keeps exactly
//! `threshold/domain` of its rows in expectation).  Predictions are then
//! audited against *that* catalog — the model and the hardware describe
//! the same physical reality, so residual error is formula error, not
//! scaling error.
//!
//! The expected measured cost uses the same linearity trick as the
//! replay ([`Objective::replay`]): operand sizes do not depend on memory,
//! so executing the whole plan once per memory bucket and weighting each
//! node's measurement by its *phase's* marginal distribution
//! ([`Objective::phase_distributions`]) yields the exact expectation
//! under static or drifting memory without enumerating memory paths.

use crate::bufpool::{Disk, DiskTable, Row};
use crate::datagen::{self, Dataset};
use crate::extops;
use lec_catalog::{Catalog, ColumnStats, IndexKind, TableStats};
use lec_cost::{plan_cost_at, plan_node_costs, CostModel, Objective, OpClass};
use lec_plan::{ColumnRef, NodeRef, PlanNode, Query, Step};
use lec_prob::{Distribution, ProbError};
use serde_json::{json, Value};

/// Rows per page in the twin (kept small so page counts are exact).
const PAGE_CAP: usize = 4;
/// Largest table in the twin, in pages; bigger catalogs are scaled down
/// ratio-preserving.
const MAX_PAGES: usize = 32;
/// Floor for rewritten filter selectivities, so filtered intermediates
/// never collapse to empty inputs.
const MIN_FILTER_SEL: f64 = 0.25;
/// Seed for data generation.
const SEED: u64 = 0xCA11B;

/// Absolute relative prediction error in basis points,
/// `|pred − meas| / meas · 10⁴`, rounded.  Total over all float inputs (a
/// non-positive measurement with a positive prediction saturates) and
/// deterministic.
pub fn error_bp(predicted: f64, measured: f64) -> u64 {
    if measured <= 0.0 {
        return if predicted <= 0.0 { 0 } else { u64::MAX };
    }
    let bp = ((predicted - measured) / measured).abs() * 1e4;
    if !bp.is_finite() {
        u64::MAX
    } else {
        bp.round().min(1e18) as u64
    }
}

/// Errors an audit can hit.
#[derive(Debug, Clone, PartialEq)]
pub enum CalibError {
    /// A join node has no crossing equi-join predicate (cross product).
    NoJoinPredicate(String),
    /// A memory bucket is not a whole number of pages ≥ 3.
    BadMemoryBucket(f64),
    /// An index scan appears in the plan for a table with no usable filter.
    MissingFilter(usize),
    /// Probability-layer failure (initial memory off the chain's states).
    Prob(ProbError),
}

impl std::fmt::Display for CalibError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalibError::NoJoinPredicate(plan) => {
                write!(f, "join without a crossing predicate in {plan}")
            }
            CalibError::BadMemoryBucket(m) => {
                write!(f, "memory bucket {m} is not a whole page count >= 3")
            }
            CalibError::MissingFilter(t) => write!(f, "index scan on unfiltered table R{t}"),
            CalibError::Prob(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CalibError {}

impl From<ProbError> for CalibError {
    fn from(e: ProbError) -> Self {
        CalibError::Prob(e)
    }
}

/// The scaled-down executable replica of a query: a fresh catalog with one
/// physical table per query-table occurrence, and the query rewritten
/// against it with page-exact selectivities.
#[derive(Debug, Clone)]
pub struct Twin {
    /// The twin catalog (table `i` backs query-table occurrence `i`).
    pub catalog: Catalog,
    /// The rewritten query.
    pub query: Query,
}

/// Measured-vs-predicted ratio band for one operator class: the envelope
/// within which that operator's measured page I/O tracks its closed-form
/// `lec-cost` formula (exact operand sizes, any memory ≥ 3, tables up to
/// ~128 pages).  Wide where the implementation's cliffs sit at fan-in
/// boundaries (`⌈R/m⌉ ≤ m−1`) rather than the model's `√R`, and where the
/// model's simplified constants (2·(a+b) for a fitting join) double the
/// measured single pass; exact (±0.1%) where the operator is the formula.
pub fn op_band(class: OpClass) -> (f64, f64) {
    match class {
        OpClass::SeqAccess => (0.999, 1.001),
        OpClass::IndexAccess => (0.5, 1.9),
        OpClass::Sort => (0.4, 2.4),
        OpClass::SortMerge => (0.45, 2.4),
        OpClass::GraceHash => (0.35, 3.0),
        OpClass::BlockNestedLoop => (0.999, 1.001),
        OpClass::PageNestedLoop => (0.999, 1.001),
    }
}

/// One plan node's audit record: predictions and measurements per memory
/// bucket, plus both expectations under the memory belief.
#[derive(Debug, Clone)]
pub struct NodeAudit {
    /// Display label (`R0`, `IxR2`, `Sort`, `SM`, ...).
    pub label: String,
    /// Physical operator class.
    pub class: OpClass,
    /// Phase index (the replay's, [`lec_cost::PlanNodeCost::phase`], which
    /// indexes the per-phase marginals); `None` for memory-independent base
    /// accesses.
    pub phase: Option<usize>,
    /// `(memory bucket, predicted cost)` pairs.
    pub predicted: Vec<(f64, f64)>,
    /// `(memory bucket, measured page I/O)` pairs.
    pub measured: Vec<(f64, f64)>,
    /// Prediction weighted by this node's phase marginal.
    pub predicted_expected: f64,
    /// Measurement weighted by this node's phase marginal.
    pub measured_expected: f64,
}

impl NodeAudit {
    /// Absolute relative prediction error in basis points.
    pub fn error_bp(&self) -> u64 {
        error_bp(self.predicted_expected, self.measured_expected)
    }

    fn to_json(&self) -> Value {
        let pairs =
            |v: &[(f64, f64)]| Value::Array(v.iter().map(|(m, c)| json!([*m, *c])).collect());
        json!({
            "class": self.class.name(),
            "error_bp": self.error_bp() as f64,
            "label": self.label.clone(),
            "measured": pairs(&self.measured),
            "measured_expected": self.measured_expected,
            "phase": self.phase.map(|p| p as f64),
            "predicted": pairs(&self.predicted),
            "predicted_expected": self.predicted_expected,
        })
        .sorted()
    }
}

/// A whole plan's audit trace: per-node records, whole-plan totals per
/// bucket and both expectations.
#[derive(Debug, Clone)]
pub struct CostAudit {
    /// `PlanNode::compact` of the audited plan.
    pub plan: String,
    /// Memory buckets executed (the union of the phase marginals' supports).
    pub buckets: Vec<f64>,
    /// Per-node audits in `plan_node_costs` traversal order.
    pub nodes: Vec<NodeAudit>,
    /// Whole-plan predicted cost per bucket.
    pub predicted_total: Vec<(f64, f64)>,
    /// Whole-plan measured page I/O per bucket.
    pub measured_total: Vec<(f64, f64)>,
    /// Expected predicted cost under the memory belief (the replay).
    pub predicted_expected: f64,
    /// Expected measured page I/O under the memory belief.
    pub measured_expected: f64,
    /// Largest relative disagreement, over buckets, between the summed
    /// per-node predictions and the whole-plan prediction.  A correct
    /// decomposition keeps this at float-summation noise (≤ 1e-9).
    pub node_consistency_rel: f64,
}

impl CostAudit {
    /// Headline number: relative error of the expected prediction against
    /// the expected measurement.
    pub fn relative_error(&self) -> f64 {
        if self.measured_expected == 0.0 {
            return if self.predicted_expected == 0.0 {
                0.0
            } else {
                f64::INFINITY
            };
        }
        (self.predicted_expected - self.measured_expected).abs() / self.measured_expected
    }

    /// The full trace as sorted-key JSON.
    pub fn to_json(&self) -> Value {
        let pairs =
            |v: &[(f64, f64)]| Value::Array(v.iter().map(|(m, c)| json!([*m, *c])).collect());
        json!({
            "buckets": self.buckets.clone(),
            "measured_expected": self.measured_expected,
            "node_consistency_rel": self.node_consistency_rel,
            "nodes": Value::Array(self.nodes.iter().map(|n| n.to_json()).collect()),
            "plan": self.plan.clone(),
            "predicted_expected": self.predicted_expected,
            "relative_error": self.relative_error(),
            "totals": json!({
                "measured": pairs(&self.measured_total),
                "predicted": pairs(&self.predicted_total),
            }),
        })
        .sorted()
    }
}

/// One plan's output from [`Calibrator::run`] at one memory value.
#[derive(Debug, Clone)]
pub struct Execution {
    /// Output rows in delivery order, each row's column blocks laid out
    /// by ascending table index (the canonical form two plans compare in).
    pub rows: Vec<Row>,
    /// `(table, offset)` of each table's column block, ascending by table.
    pub blocks: Vec<(usize, usize)>,
    /// Measured page I/O per plan node, in `plan_node_costs` order.
    pub ios: Vec<u64>,
}

impl Execution {
    /// Offset of `col` in every row.  Panics if its table is not in the
    /// output.
    pub fn column(&self, col: ColumnRef) -> usize {
        let &(_, off) = self
            .blocks
            .iter()
            .find(|(t, _)| *t == col.table)
            .unwrap_or_else(|| panic!("column {col:?} not in output {:?}", self.blocks));
        off + col.column
    }
}

/// The observatory: owns the twin, its generated dataset, and the stored
/// base tables, and audits any plan for the twin query.
#[derive(Debug)]
pub struct Calibrator {
    twin: Twin,
    dataset: Dataset,
    /// Base tables as stored: sorted by the filter column where the
    /// catalog declares a clustered index on it, heap order otherwise.
    base: Vec<DiskTable>,
    /// Filter thresholds (`value < t`) per query table.
    thresholds: Vec<Option<i64>>,
}

impl Calibrator {
    /// Build the physical twin of `query` and generate its data.
    pub fn new(catalog: &Catalog, query: &Query) -> Calibrator {
        let mut twin = physical_twin(catalog, query);
        // Pass 1 computed the twin with the original filter selectivities;
        // the generated data is independent of them, so thresholds derived
        // now stay valid after the rewrite below.
        let dataset = datagen::generate(&twin.catalog, &twin.query, SEED);
        let mut thresholds = Vec::with_capacity(twin.query.tables.len());
        for t in 0..twin.query.tables.len() {
            let thr = datagen::filter_threshold(&dataset, &twin.query, t).map(|thr| {
                let f = twin.query.tables[t].filter.as_ref().unwrap();
                let domain = dataset.domains[t][f.column];
                let floor = (MIN_FILTER_SEL * domain as f64).ceil() as i64;
                thr.max(floor).clamp(1, domain)
            });
            // Pass 2: rewrite the filter selectivity to the exact fraction
            // of the domain the threshold keeps, so the model predicts the
            // same filtered sizes the data realizes in expectation.
            if let Some(thr) = thr {
                let f = twin.query.tables[t].filter.as_mut().unwrap();
                let domain = dataset.domains[t][f.column];
                f.selectivity = Distribution::point(thr as f64 / domain as f64);
            }
            thresholds.push(thr);
        }
        let base = twin
            .query
            .tables
            .iter()
            .enumerate()
            .map(|(t, qt)| {
                let mut rows = dataset.tables[t].clone();
                if let Some(f) = &qt.filter {
                    let kind = twin.catalog.table(qt.table).stats.index_on(f.column);
                    if kind == IndexKind::Clustered {
                        rows.sort_by_key(|r| r[f.column]);
                    }
                }
                DiskTable::from_rows(rows, PAGE_CAP)
            })
            .collect();
        Calibrator {
            twin,
            dataset,
            base,
            thresholds,
        }
    }

    /// The twin catalog + query the audit model runs against.
    pub fn twin(&self) -> &Twin {
        &self.twin
    }

    /// A cost model over the twin (what every prediction is computed from).
    pub fn model(&self) -> CostModel<'_> {
        CostModel::new(&self.twin.catalog, &self.twin.query)
    }

    /// Audit one plan under one memory belief.
    pub fn audit(&self, plan: &PlanNode, objective: &Objective) -> Result<CostAudit, CalibError> {
        let model = self.model();
        let node_costs = plan_node_costs(&model, plan);
        let n_phases = node_costs.iter().filter(|n| n.phase.is_some()).count();

        // Memory buckets: the union of every phase marginal's support.
        let phase_dists = objective.phase_distributions(n_phases.max(1))?;
        let mut buckets: Vec<f64> = phase_dists
            .iter()
            .flat_map(|d| d.support().iter().copied())
            .collect();
        buckets.sort_by(f64::total_cmp);
        buckets.dedup();
        let mut bucket_pages = Vec::with_capacity(buckets.len());
        for &m in &buckets {
            let pages = m.round();
            if (m - pages).abs() > 1e-6 || pages < 3.0 {
                return Err(CalibError::BadMemoryBucket(m));
            }
            bucket_pages.push(pages as usize);
        }

        // Execute once per bucket.
        let mut measured_per_bucket: Vec<Vec<u64>> = Vec::with_capacity(buckets.len());
        for &m in &bucket_pages {
            let ios = self.run(plan, m)?.ios;
            debug_assert_eq!(ios.len(), node_costs.len());
            measured_per_bucket.push(ios);
        }

        // Per-node records: pointwise per bucket, expectation by the
        // node's phase marginal (phase 0 for memory-independent accesses —
        // any marginal gives the same constant expectation), each support
        // value read at its position in the sorted `buckets`.
        let bucket = |m: f64| {
            buckets
                .binary_search_by(|b| b.total_cmp(&m))
                .expect("every support value is a bucket")
        };
        let pairs = |values: Vec<f64>| buckets.iter().copied().zip(values).collect();
        let mut nodes = Vec::with_capacity(node_costs.len());
        for (i, nc) in node_costs.iter().enumerate() {
            let predicted: Vec<f64> = buckets.iter().map(|&m| nc.cost_at(&model, m)).collect();
            let measured: Vec<f64> = (measured_per_bucket.iter())
                .map(|ios| ios[i] as f64)
                .collect();
            let dist = &phase_dists[nc.phase.unwrap_or(0).min(phase_dists.len() - 1)];
            nodes.push(NodeAudit {
                label: nc.label.clone(),
                class: nc.class(),
                phase: nc.phase,
                predicted_expected: dist.expect(|m| predicted[bucket(m)]),
                measured_expected: dist.expect(|m| measured[bucket(m)]),
                predicted: pairs(predicted),
                measured: pairs(measured),
            });
        }

        // Whole-plan totals and expectations.
        let predicted_total: Vec<(f64, f64)> = buckets
            .iter()
            .map(|&m| (m, plan_cost_at(&model, plan, m)))
            .collect();
        let measured_total: Vec<(f64, f64)> = buckets
            .iter()
            .enumerate()
            .map(|(bi, &m)| (m, measured_per_bucket[bi].iter().sum::<u64>() as f64))
            .collect();
        let predicted_expected = objective.replay(&model, plan);
        let measured_expected = nodes.iter().map(|n| n.measured_expected).sum();
        let node_consistency_rel = (predicted_total.iter().enumerate())
            .map(|(b, &(_, whole))| {
                let node_sum: f64 = nodes.iter().map(|n| n.predicted[b].1).sum();
                (node_sum - whole).abs() / whole.max(1.0)
            })
            .fold(0.0f64, f64::max);

        Ok(CostAudit {
            plan: plan.compact(),
            buckets,
            nodes,
            predicted_total,
            measured_total,
            predicted_expected,
            measured_expected,
            node_consistency_rel,
        })
    }

    /// Execute `plan` through the page-counting operators with `m` buffer
    /// pages: its output rows, in the order the plan delivers them and
    /// with each row's table blocks in ascending table order, and each
    /// node's measured page I/O.  This is the only code that turns a plan
    /// into rows.
    pub fn run(&self, plan: &PlanNode, m: usize) -> Result<Execution, CalibError> {
        if m < 3 {
            return Err(CalibError::BadMemoryBucket(m as f64));
        }
        let mut ios = Vec::with_capacity(plan.steps().len());
        let (mut rows, tables) = self.exec_node(plan.root(), m, &mut ios)?;
        let width = |t: usize| self.dataset.domains[t].len();
        let mut blocks = Vec::with_capacity(tables.len());
        let mut off = 0;
        for &t in &tables {
            blocks.push((t, off));
            off += width(t);
        }
        blocks.sort_unstable();
        if !tables.is_sorted() {
            for row in &mut rows {
                *row = blocks
                    .iter()
                    .flat_map(|&(t, o)| row[o..o + width(t)].iter().copied())
                    .collect();
            }
        }
        let mut off = 0;
        for (t, o) in &mut blocks {
            *o = off;
            off += width(*t);
        }
        Ok(Execution { rows, blocks, ios })
    }

    /// Execute one subtree at memory `m`, appending each node's measured
    /// page I/O to `ios` in `plan_node_costs` traversal order, returning
    /// the subtree's output rows and table layout.
    fn exec_node(
        &self,
        node: NodeRef<'_>,
        m: usize,
        ios: &mut Vec<u64>,
    ) -> Result<(Vec<Row>, Vec<usize>), CalibError> {
        match node.node() {
            Step::SeqScan(table) => {
                let mut disk = Disk::default();
                let mut rows = disk.read_all(&self.base[table]);
                if let Some(thr) = self.thresholds[table] {
                    let col = self.twin.query.tables[table]
                        .filter
                        .as_ref()
                        .unwrap()
                        .column;
                    rows.retain(|r| r[col] < thr);
                }
                ios.push(disk.io().total());
                Ok((rows, vec![table]))
            }
            Step::IndexScan(table) => {
                let thr = self.thresholds[table].ok_or(CalibError::MissingFilter(table))?;
                let qt = &self.twin.query.tables[table];
                let col = qt.filter.as_ref().unwrap().column;
                let base = &self.base[table];
                let mut disk = Disk::default();
                let descent = (base.n_rows().max(1) as f64).log2().ceil().max(1.0) as u64;
                disk.charge_reads(descent);
                let kind = self.twin.catalog.table(qt.table).stats.index_on(col);
                let rows = match kind {
                    IndexKind::Clustered => {
                        // Matching rows are a prefix of the sorted heap:
                        // read exactly the pages holding them.
                        let n_match = base.peek_rows().iter().filter(|r| r[col] < thr).count();
                        let n_read = n_match.div_ceil(base.page_cap()).max(1).min(base.n_pages());
                        let mut rows = Vec::new();
                        for p in 0..n_read {
                            rows.extend(disk.read_page(base, p));
                        }
                        rows.retain(|r| r[col] < thr);
                        rows
                    }
                    _ => {
                        // Unclustered (or formally unindexed): one heap
                        // page I/O per matching row, wherever it lives,
                        // and one when nothing matches.
                        let mut rows = base.peek_rows();
                        rows.retain(|r| r[col] < thr);
                        disk.charge_reads(rows.len().max(1) as u64);
                        rows
                    }
                };
                ios.push(disk.io().total());
                Ok((rows, vec![table]))
            }
            Step::Sort(input, key) => {
                let (rows, layout) = self.exec_node(input, m, ios)?;
                let off = self.column_offset(&layout, key);
                let t = DiskTable::from_rows(rows, PAGE_CAP);
                let r = extops::external_sort(&t, off, m);
                ios.push(r.io);
                Ok((r.rows, layout))
            }
            Step::Join(method, outer, inner) => {
                let (orows, olay) = self.exec_node(outer, m, ios)?;
                let (irows, ilay) = self.exec_node(inner, m, ios)?;
                let crossing = self
                    .twin
                    .query
                    .joins_crossing(outer.tables(), inner.tables());
                let Some(&first) = crossing.first() else {
                    return Err(CalibError::NoJoinPredicate(node.compact()));
                };
                let pred = &self.twin.query.joins[first];
                let (okey, ikey) = if outer.tables().contains(pred.left.table) {
                    (pred.left, pred.right)
                } else {
                    (pred.right, pred.left)
                };
                let o_off = self.column_offset(&olay, okey);
                let i_off = self.column_offset(&ilay, ikey);
                let ot = DiskTable::from_rows(orows, PAGE_CAP);
                let it = DiskTable::from_rows(irows, PAGE_CAP);
                let r = extops::join(method, &ot, &it, (o_off, i_off), m);
                ios.push(r.io);
                // Output layout is outer ++ inner; apply any further
                // crossing predicates as an uncharged post-filter.
                let mut layout = olay;
                layout.extend_from_slice(&ilay);
                let mut rows = r.rows;
                for &j in crossing.iter().skip(1) {
                    let p = &self.twin.query.joins[j];
                    let l = self.column_offset(&layout, p.left);
                    let rgt = self.column_offset(&layout, p.right);
                    rows.retain(|row| row[l] == row[rgt]);
                }
                Ok((rows, layout))
            }
        }
    }

    /// Offset of `col` in the composite row of a subtree whose tables
    /// appear in `layout` order.
    fn column_offset(&self, layout: &[usize], col: ColumnRef) -> usize {
        let mut off = 0;
        for &t in layout {
            if t == col.table {
                return off + col.column;
            }
            off += self.dataset.domains[t].len();
        }
        unreachable!("column {col:?} not in subtree layout {layout:?}")
    }
}

/// Scale a query's catalog down to an executable replica: each query-table
/// occurrence becomes its own twin table of at most [`MAX_PAGES`] pages
/// (ratios preserved, two-page floor), with `rows = pages · page_cap`, and
/// every join selectivity rewritten to the page-level value the shared
/// join domain induces (`page_cap / JOIN_DOMAIN`).  Filter selectivities
/// are rewritten by [`Calibrator::new`] once thresholds are known.
fn physical_twin(catalog: &Catalog, query: &Query) -> Twin {
    let max_orig = query
        .tables
        .iter()
        .map(|qt| catalog.table(qt.table).stats.pages)
        .max()
        .unwrap_or(1)
        .max(1);
    let scale = (max_orig as f64 / MAX_PAGES as f64).max(1.0);
    let mut twin_cat = Catalog::new();
    let mut twin_q = query.clone();
    for (i, qt) in query.tables.iter().enumerate() {
        let stats = &catalog.table(qt.table).stats;
        let pages = ((stats.pages as f64 / scale).round() as u64).max(2);
        let rows = pages * PAGE_CAP as u64;
        let columns = stats
            .columns
            .iter()
            .map(|c| ColumnStats {
                name: c.name.clone(),
                distinct: c.distinct.clamp(2, rows),
                index: c.index,
            })
            .collect();
        let name = format!("{}#{}", catalog.table(qt.table).name, i);
        let id = twin_cat.add_table(name, TableStats::new(pages, rows, columns));
        twin_q.tables[i].table = id;
    }
    let page_sel = PAGE_CAP as f64 / datagen::JOIN_DOMAIN as f64;
    for j in &mut twin_q.joins {
        j.selectivity = Distribution::point(page_sel);
    }
    Twin {
        catalog: twin_cat,
        query: twin_q,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lec_core::fixtures;
    use lec_core::{Mode, Optimizer, PointEstimate};
    use lec_plan::QueryTable;
    use lec_prob::MarkovChain;

    fn spread(center: f64, n: usize) -> Distribution {
        // Integer page buckets ≥ 3 around `center`.
        let vals: Vec<f64> = (0..n).map(|i| (center + 4.0 * i as f64).round()).collect();
        Distribution::from_pairs(vals.iter().map(|&v| (v, 1.0 / n as f64))).unwrap()
    }

    #[test]
    fn error_bp_is_total_and_symmetric_in_sign() {
        assert_eq!(error_bp(100.0, 100.0), 0);
        assert_eq!(error_bp(150.0, 100.0), 5_000);
        assert_eq!(error_bp(50.0, 100.0), 5_000);
        assert_eq!(error_bp(0.0, 0.0), 0);
        assert_eq!(error_bp(1.0, 0.0), u64::MAX);
        assert_eq!(error_bp(f64::NAN, 100.0), u64::MAX);
    }

    #[test]
    fn twin_preserves_ratios_and_rewrites_selectivities() {
        let (cat, q) = fixtures::example_1_1();
        let twin = physical_twin(&cat, &q);
        let a = twin.catalog.table(twin.query.tables[0].table).stats.pages;
        let b = twin.catalog.table(twin.query.tables[1].table).stats.pages;
        assert_eq!(a, 32); // 1e6 pages scaled to the cap
        assert_eq!(b, 13); // 4e5 · 32/1e6 = 12.8 → 13
        for t in [0, 1] {
            let stats = &twin.catalog.table(twin.query.tables[t].table).stats;
            assert_eq!(stats.rows, stats.pages * PAGE_CAP as u64);
        }
        let sel = twin.query.joins[0].selectivity.mean();
        assert_eq!(sel, PAGE_CAP as f64 / datagen::JOIN_DOMAIN as f64);
    }

    #[test]
    fn seq_scan_measurement_is_exact() {
        let (cat, q) = fixtures::example_1_1();
        let cal = Calibrator::new(&cat, &q);
        let plan = PlanNode::seq_scan(0);
        let objective = Objective::Static(Distribution::point(8.0));
        let audit = cal.audit(&plan, &objective).unwrap();
        assert_eq!(audit.nodes.len(), 1);
        assert_eq!(audit.nodes[0].class, OpClass::SeqAccess);
        // Model seq scan = raw pages; measured = the same pages read once.
        assert_eq!(audit.predicted_expected, audit.measured_expected);
        assert_eq!(audit.relative_error(), 0.0);
    }

    #[test]
    fn an_unclustered_index_scan_reads_a_page_per_match_and_one_for_none() {
        let mut cat = Catalog::new();
        let columns = vec![ColumnStats::indexed("f", 40, IndexKind::Unclustered)];
        let id = cat.add_table("R", TableStats::new(8, 32, columns));
        let q = Query {
            tables: vec![QueryTable::filtered(id, 0, Distribution::point(0.5))],
            joins: Vec::new(),
            required_order: None,
        };
        let mut cal = Calibrator::new(&cat, &q);
        // 32 rows: a descent of log2(32) = 5 pages before the heap reads.
        let scanned = cal.run(&PlanNode::seq_scan(0), 3).unwrap().rows;
        assert!(!scanned.is_empty());
        let ix = cal.run(&PlanNode::index_scan(0), 3).unwrap();
        assert_eq!(ix.ios, [5 + scanned.len() as u64]);
        assert_eq!(ix.rows, scanned, "heap order");
        cal.thresholds[0] = Some(i64::MIN);
        let none = cal.run(&PlanNode::index_scan(0), 3).unwrap();
        assert!(none.rows.is_empty());
        assert_eq!(none.ios, [5 + 1]);
    }

    /// Index scans, clustered and unclustered, over tables of 4 to 32
    /// pages and filters keeping 5% to 90% of the rows, measure inside
    /// their class's band: nothing else audits an index access.
    #[test]
    fn index_scans_measure_inside_their_band() {
        let (lo, hi) = op_band(OpClass::IndexAccess);
        let objective = Objective::Static(Distribution::point(8.0));
        for kind in [IndexKind::Clustered, IndexKind::Unclustered] {
            for pages in [4, 8, 20, 32] {
                for selectivity in [0.05, 0.25, 0.5, 0.9] {
                    let mut cat = Catalog::new();
                    let columns = vec![ColumnStats::indexed("f", 40, kind)];
                    let id = cat.add_table("R", TableStats::new(pages, 4 * pages, columns));
                    let q = Query {
                        tables: vec![QueryTable::filtered(
                            id,
                            0,
                            Distribution::point(selectivity),
                        )],
                        joins: Vec::new(),
                        required_order: None,
                    };
                    let cal = Calibrator::new(&cat, &q);
                    let audit = cal.audit(&PlanNode::index_scan(0), &objective).unwrap();
                    let node = &audit.nodes[0];
                    assert_eq!(node.class, OpClass::IndexAccess);
                    let ratio = node.measured_expected / node.predicted_expected;
                    assert!(
                        (lo..=hi).contains(&ratio),
                        "{kind:?}, {pages} pages, selectivity {selectivity}: ratio {ratio}"
                    );
                }
            }
        }
    }

    #[test]
    fn audit_trace_is_consistent_and_sorted() {
        let (cat, q) = fixtures::three_chain();
        let cal = Calibrator::new(&cat, &q);
        let memory = spread(6.0, 3);
        let optimized = Optimizer::new(&cal.twin().catalog, memory.clone())
            .optimize(&cal.twin().query, &Mode::AlgorithmC)
            .unwrap();
        let objective = Objective::Static(memory);
        let audit = cal.audit(&optimized.plan, &objective).unwrap();
        // Per-node predictions agree with the whole-plan prediction.
        assert!(
            audit.node_consistency_rel <= 1e-9,
            "node consistency {}",
            audit.node_consistency_rel
        );
        // The optimizer's own expected cost is the audit's prediction.
        assert!(
            (audit.predicted_expected - optimized.cost).abs() <= 1e-6 * optimized.cost,
            "audit {} vs optimizer {}",
            audit.predicted_expected,
            optimized.cost
        );
        // JSON is sorted-key at every level.
        fn assert_sorted(v: &Value) {
            match v {
                Value::Object(pairs) => {
                    for w in pairs.windows(2) {
                        assert!(w[0].0 < w[1].0, "{} !< {}", w[0].0, w[1].0);
                    }
                    pairs.iter().for_each(|(_, v)| assert_sorted(v));
                }
                Value::Array(items) => items.iter().for_each(assert_sorted),
                _ => {}
            }
        }
        assert_sorted(&audit.to_json());
        // The measured expectation is positive and within the same order
        // of magnitude as the prediction.
        assert!(audit.measured_expected > 0.0);
        assert!(audit.relative_error() < 3.0);
    }

    #[test]
    fn dynamic_audit_weights_phases_by_the_chain() {
        let (cat, q) = fixtures::three_chain();
        let cal = Calibrator::new(&cat, &q);
        let states = vec![4.0, 8.0, 16.0];
        let chain = MarkovChain::birth_death(states.clone(), 0.4, 0.2).unwrap();
        let initial = Distribution::point(8.0);
        let objective = Objective::Dynamic {
            initial: initial.clone(),
            chain: chain.clone(),
        };
        let mode = Mode::Lsc(PointEstimate::Mean);
        let optimized = Optimizer::new(&cal.twin().catalog, initial)
            .optimize(&cal.twin().query, &mode)
            .unwrap();
        let audit = cal.audit(&optimized.plan, &objective).unwrap();
        assert_eq!(audit.buckets, states);
        assert!(audit.node_consistency_rel <= 1e-9);
        // The dynamic expectation matches the library computation (the
        // audit calls it, but the totals must also equal the per-node sum).
        let node_sum: f64 = audit.nodes.iter().map(|n| n.predicted_expected).sum();
        assert!(
            (node_sum - audit.predicted_expected).abs() <= 1e-9 * audit.predicted_expected,
            "node sum {} vs whole {}",
            node_sum,
            audit.predicted_expected
        );
    }

    #[test]
    fn cross_product_plans_are_rejected() {
        let (cat, q) = fixtures::example_1_1();
        let mut q2 = q.clone();
        q2.joins.clear();
        let cal = Calibrator::new(&cat, &q2);
        let plan = PlanNode::join(
            lec_plan::JoinMethod::GraceHash,
            PlanNode::seq_scan(0),
            PlanNode::seq_scan(1),
        );
        let objective = Objective::Static(Distribution::point(8.0));
        match cal.audit(&plan, &objective) {
            Err(CalibError::NoJoinPredicate(_)) => {}
            other => panic!("expected NoJoinPredicate, got {other:?}"),
        }
    }

    #[test]
    fn fractional_memory_buckets_are_rejected() {
        let (cat, q) = fixtures::example_1_1();
        let cal = Calibrator::new(&cat, &q);
        let plan = PlanNode::seq_scan(0);
        let objective = Objective::Static(Distribution::point(7.5));
        match cal.audit(&plan, &objective) {
            Err(CalibError::BadMemoryBucket(m)) => assert_eq!(m, 7.5),
            other => panic!("expected BadMemoryBucket, got {other:?}"),
        }
    }
}

//! FNV-1a fingerprints, and what is observable about a stored table.

use crate::stats::{IndexKind, TableStats};
use lec_prob::Distribution;

/// An incremental 64-bit FNV-1a fingerprint over exact bit patterns: the
/// shared hashing primitive behind every cross-query cache key (model
/// state, memory distributions, optimizer modes, canonical query shapes).
///
/// Builder-style so key assembly reads as a pipeline, and `Copy`, so a
/// prefix folded once can be resumed any number of times:
///
/// ```
/// let prefix = lec_catalog::Fingerprint::new().u64(3);
/// let fp = prefix.f64(0.25).finish();
/// assert_ne!(fp, lec_catalog::Fingerprint::new().f64(0.25).u64(3).finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// Start from the FNV-1a offset basis.
    pub fn new() -> Self {
        Fingerprint(0xCBF29CE484222325)
    }

    /// Absorb a `u64`, byte by byte from the low end.
    pub fn u64(mut self, v: u64) -> Self {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001B3);
        }
        self
    }

    /// Absorb an `f64` by exact bit pattern (`-0.0` and `0.0` differ; every
    /// NaN payload is its own value — cache keys must never conflate
    /// almost-equal floats).
    pub fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    /// Absorb a distribution's exact contents.
    pub fn dist(self, d: &Distribution) -> Self {
        d.iter().fold(self, |fp, (v, p)| fp.f64(v).f64(p))
    }

    /// The accumulated fingerprint.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

fn index_word(kind: IndexKind) -> u64 {
    match kind {
        IndexKind::None => 0,
        IndexKind::Clustered => 1,
        IndexKind::Unclustered => 2,
    }
}

/// Fingerprint of everything in one table's statistics that the cost
/// model can observe: pages, rows, the optional page-count distribution,
/// and each column's distinct count and index kind (names are display
/// only).  This is the per-table ingredient of cross-query cache keys —
/// two tables with equal fingerprints are interchangeable to the DP.
pub fn table_stats_fingerprint(stats: &TableStats) -> u64 {
    let mut fp = Fingerprint::new().u64(stats.pages).u64(stats.rows);
    fp = match &stats.page_dist {
        Some(d) => fp.u64(1).dist(d),
        None => fp.u64(0),
    };
    fp = fp.u64(stats.columns.len() as u64);
    for col in &stats.columns {
        fp = fp.u64(col.distinct).u64(index_word(col.index));
    }
    fp.finish()
}

/// The `(exact, bucketed)` FNV states every occurrence of a stored table
/// resumes from, folded once at registration: [`table_stats_fingerprint`]
/// absorbed, and log₂ pages, log₂ rows, column count and index kinds.
pub(crate) fn stored_prefixes(stats: &TableStats) -> (Fingerprint, Fingerprint) {
    let bucketed = Fingerprint::new()
        .u64(stats.pages.max(1).ilog2() as u64)
        .u64(stats.rows.max(1).ilog2() as u64)
        .u64(stats.columns.len() as u64);
    let index_kinds = stats.columns.iter().map(|col| index_word(col.index));
    let exact = Fingerprint::new().u64(table_stats_fingerprint(stats));
    (exact, index_kinds.fold(bucketed, Fingerprint::u64))
}

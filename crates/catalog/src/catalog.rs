//! The catalog: a registry of stored tables and their statistics.

use crate::fingerprint::{stored_prefixes, Fingerprint};
use crate::stats::TableStats;
use std::fmt;

/// Opaque identifier of a stored table within one [`Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A stored table: a name plus statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Identifier, assigned by the catalog on insertion.
    pub id: TableId,
    /// Human-readable name.
    pub name: String,
    /// Optimizer-visible statistics.
    pub stats: TableStats,
}

/// An in-memory catalog, the source of all data-property parameters.
///
/// A registered table is immutable: [`Catalog::add_table`] is the only way
/// in and every accessor hands out `&Table`, so the fingerprint prefixes
/// folded at registration have no statistics update to fall behind.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Catalog {
    tables: Vec<Table>,
    /// `(exact, bucketed)` prefix per table, parallel to `tables`.
    prefixes: Vec<(Fingerprint, Fingerprint)>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a table; returns its id.
    pub fn add_table(&mut self, name: impl Into<String>, stats: TableStats) -> TableId {
        let id = TableId(self.tables.len() as u32);
        self.prefixes.push(stored_prefixes(&stats));
        self.tables.push(Table {
            id,
            name: name.into(),
            stats,
        });
        id
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Look up a table by id.
    ///
    /// # Panics
    /// Panics if the id does not belong to this catalog; ids are only ever
    /// produced by [`Catalog::add_table`], so this indicates a logic error.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.0 as usize]
    }

    /// Look up a table by id, returning `None` for foreign ids.
    pub fn try_table(&self, id: TableId) -> Option<&Table> {
        self.tables.get(id.0 as usize)
    }

    /// A fresh [`Fingerprint`] that has absorbed the table's
    /// [`crate::table_stats_fingerprint`]: where every occurrence of the
    /// table in a query starts its own, with only its filter left to fold.
    pub fn exact_prefix(&self, id: TableId) -> Fingerprint {
        self.prefixes[id.0 as usize].0
    }

    /// The bucketed counterpart: log₂ pages, log₂ rows, the column count
    /// and each column's index kind — what shapes the plan space, blind to
    /// statistics drift inside a size bucket.
    pub fn bucketed_prefix(&self, id: TableId) -> Fingerprint {
        self.prefixes[id.0 as usize].1
    }

    /// Iterate over all tables in id order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.iter()
    }

    /// All table ids in id order.
    pub fn ids(&self) -> impl Iterator<Item = TableId> + '_ {
        self.tables.iter().map(|t| t.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ColumnStats;

    fn sample_stats(pages: u64) -> TableStats {
        TableStats::new(pages, pages * 10, vec![ColumnStats::plain("c0", 10)])
    }

    #[test]
    fn add_and_lookup() {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", sample_stats(100));
        let b = cat.add_table("B", sample_stats(200));
        assert_eq!(cat.len(), 2);
        assert_eq!(cat.table(a).name, "A");
        assert_eq!(cat.table(b).stats.pages, 200);
        assert!(cat.try_table(TableId(99)).is_none());
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut cat = Catalog::new();
        for i in 0..5 {
            let id = cat.add_table(format!("t{i}"), sample_stats(10));
            assert_eq!(id, TableId(i));
        }
        let ids: Vec<_> = cat.ids().collect();
        assert_eq!(ids, (0..5).map(TableId).collect::<Vec<_>>());
    }

    #[test]
    fn display_of_table_id() {
        assert_eq!(TableId(3).to_string(), "T3");
    }
}

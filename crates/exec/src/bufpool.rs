//! Page-granular storage with I/O accounting.
//!
//! The external-memory operators in [`crate::extops`] run against these
//! disk tables under an explicit buffer budget of `m` pages, counting every
//! page read and write.  This is the substrate that demonstrates the cost
//! *cliffs* the whole paper is built on (E11): measured I/O against buffer
//! size shows the same discontinuities as the closed-form formulas.

/// One tuple: a fixed-width vector of integers.
pub type Row = Vec<i64>;

/// A page: up to `page_cap` rows.
pub type Page = Vec<Row>;

/// A disk-resident table: a sequence of pages of at most `page_cap` rows.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskTable {
    pages: Vec<Page>,
    page_cap: usize,
}

impl DiskTable {
    /// Build a table from rows, `page_cap` rows per page.
    pub fn from_rows(rows: impl IntoIterator<Item = Row>, page_cap: usize) -> Self {
        assert!(page_cap > 0);
        let mut pages = Vec::new();
        let mut cur: Page = Vec::with_capacity(page_cap);
        for r in rows {
            cur.push(r);
            if cur.len() == page_cap {
                pages.push(std::mem::take(&mut cur));
            }
        }
        if !cur.is_empty() {
            pages.push(cur);
        }
        DiskTable { pages, page_cap }
    }

    /// Rows per page, as [`DiskTable::from_rows`] was given it.
    pub fn page_cap(&self) -> usize {
        self.page_cap
    }

    /// Number of pages.
    pub fn n_pages(&self) -> usize {
        self.pages.len()
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.pages.iter().map(|p| p.len()).sum()
    }

    /// All rows in page order, as a read with no I/O charged.
    pub fn peek_rows(&self) -> Vec<Row> {
        self.pages.iter().flatten().cloned().collect()
    }
}

/// Read/write counters, in pages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Io {
    /// Pages read.
    pub reads: u64,
    /// Pages written.
    pub writes: u64,
}

impl Io {
    /// Total I/Os.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

/// A handle charging I/O to a counter; `Disk::default()` starts at zero.
#[derive(Debug, Default)]
pub struct Disk {
    io: Io,
}

impl Disk {
    /// Counter snapshot.
    pub fn io(&self) -> Io {
        self.io
    }

    /// Charge `n` page reads without moving data (synthetic accounting,
    /// e.g. an index descent).
    pub fn charge_reads(&mut self, n: u64) {
        self.io.reads += n;
    }

    /// Read page `i` of `table` (one page read).
    pub fn read_page(&mut self, table: &DiskTable, i: usize) -> Page {
        self.io.reads += 1;
        table.pages[i].clone()
    }

    /// Write all `rows` as pages of `page_cap` (counts one write per page).
    pub fn write_rows(
        &mut self,
        rows: impl IntoIterator<Item = Row>,
        page_cap: usize,
    ) -> DiskTable {
        let table = DiskTable::from_rows(rows, page_cap);
        self.io.writes += table.n_pages() as u64;
        table
    }

    /// Read the whole table into memory (counts every page).
    pub fn read_all(&mut self, table: &DiskTable) -> Vec<Row> {
        self.io.reads += table.n_pages() as u64;
        table.pages.iter().flatten().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize) -> Vec<Row> {
        (0..n as i64).map(|i| vec![i, i * 10]).collect()
    }

    #[test]
    fn pagination() {
        let t = DiskTable::from_rows(rows(10), 4);
        assert_eq!(t.n_pages(), 3);
        assert_eq!(t.n_rows(), 10);
        assert_eq!(t.page_cap(), 4);
        let mut disk = Disk::default();
        assert_eq!(disk.read_page(&t, 2).len(), 2); // remainder page
    }

    #[test]
    fn io_accounting() {
        let mut disk = Disk::default();
        let t = DiskTable::from_rows(rows(8), 2);
        let _ = disk.read_page(&t, 0);
        assert_eq!(
            disk.io(),
            Io {
                reads: 1,
                writes: 0
            }
        );
        let all = disk.read_all(&t);
        assert_eq!(all.len(), 8);
        assert_eq!(disk.io().reads, 5);
        let out = disk.write_rows(all, 2);
        assert_eq!(out.n_pages(), 4);
        assert_eq!(disk.io().writes, 4);
        assert_eq!(disk.io().total(), 9);
    }
}

//! The in-memory named-column statistics catalog.
//!
//! `Catalog` is the registry a query planner consults; durable persistence
//! (checksummed files, atomic generations, quarantine, degraded-mode
//! answering) lives in [`crate::store::DurableCatalog`], which saves and
//! reloads this type through the binary format in [`crate::format`].

use std::collections::BTreeMap;

use synoptic_core::{RangeEstimator, RangeQuery, Result, SynopticError};

use crate::persist::{LoadedSynopsis, PersistentSynopsis};

/// Reserved WAL-marks key holding the node's current election term.
/// `'#'` cannot start a real column's journal name, so reserved keys and
/// column marks share the section without collision.
pub const ELECTION_TERM_KEY: &str = "#election/term";

/// Reserved WAL-marks key holding the node granted the current term.
pub const ELECTION_VOTE_KEY: &str = "#election/vote";

/// Metadata + synopsis for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnEntry {
    /// Domain size of the column's value distribution.
    pub n: usize,
    /// Total row count at build time.
    pub total_rows: i64,
    /// The persisted synopsis.
    pub synopsis: PersistentSynopsis,
}

/// A catalog of per-column synopses, as a database engine would keep in its
/// system tables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Catalog {
    columns: BTreeMap<String, ColumnEntry>,
    /// Per-column WAL checkpoint marks: the last journal LSN whose effect is
    /// captured by the synopses in this catalog. Kept beside (not inside)
    /// [`ColumnEntry`] because most columns never journal. Persisted in the
    /// manifest's trailing WAL-marks section.
    wal_marks: BTreeMap<String, u64>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a column's synopsis.
    pub fn insert(&mut self, name: impl Into<String>, entry: ColumnEntry) {
        self.columns.insert(name.into(), entry);
    }

    /// Removes a column; returns whether it existed.
    pub fn remove(&mut self, name: &str) -> bool {
        self.columns.remove(name).is_some()
    }

    /// Looks up a column.
    pub fn get(&self, name: &str) -> Option<&ColumnEntry> {
        self.columns.get(name)
    }

    /// Column names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.columns.keys().map(String::as_str).collect()
    }

    /// Iterates `(name, entry)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ColumnEntry)> {
        self.columns.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of registered columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Records the WAL checkpoint mark for a column: every journal record
    /// with LSN ≤ `lsn` is captured by this catalog's synopsis for `name`.
    pub fn set_wal_mark(&mut self, name: impl Into<String>, lsn: u64) {
        self.wal_marks.insert(name.into(), lsn);
    }

    /// The WAL checkpoint mark for a column (`0` when the column has never
    /// journaled — replay everything).
    pub fn wal_mark(&self, name: &str) -> u64 {
        self.wal_marks.get(name).copied().unwrap_or(0)
    }

    /// All WAL checkpoint marks, sorted by column name.
    pub fn wal_marks(&self) -> impl Iterator<Item = (&str, u64)> {
        self.wal_marks.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// The current election term this node has granted or claimed (`0` =
    /// never participated in an election). Persisted as a reserved key in
    /// the manifest's WAL-marks section — the section is feed-forward
    /// compatible, so builds predating elections carry it untouched, and
    /// mark lookups only ever consult keys for columns the catalog
    /// actually holds, so `'#'`-prefixed reserved keys never collide.
    pub fn election_term(&self) -> u64 {
        self.wal_marks.get(ELECTION_TERM_KEY).copied().unwrap_or(0)
    }

    /// Records the current election term. Terms are monotonic; callers
    /// must never move one backwards (persisting a lower term would let
    /// two leaders hold the same term after a crash).
    pub fn set_election_term(&mut self, term: u64) {
        self.wal_marks.insert(ELECTION_TERM_KEY.to_string(), term);
    }

    /// The node this catalog's owner recognizes as the leader of
    /// [`Catalog::election_term`], if any vote was granted.
    pub fn election_vote(&self) -> Option<u64> {
        self.wal_marks.get(ELECTION_VOTE_KEY).copied()
    }

    /// Records the node granted leadership of the current term.
    pub fn set_election_vote(&mut self, node: u64) {
        self.wal_marks.insert(ELECTION_VOTE_KEY.to_string(), node);
    }

    /// Total storage footprint across all columns (paper words).
    pub fn total_words(&self) -> usize {
        self.columns
            .values()
            .map(|e| e.synopsis.storage_words())
            .sum()
    }

    /// Loads a column's estimator.
    pub fn estimator(&self, name: &str) -> Result<LoadedSynopsis> {
        self.columns
            .get(name)
            .ok_or_else(|| SynopticError::InvalidParameter(format!("unknown column '{name}'")))?
            .synopsis
            .load()
    }

    /// One-shot estimate for `column BETWEEN q.lo AND q.hi`.
    pub fn estimate(&self, name: &str, q: RangeQuery) -> Result<f64> {
        let est = self.estimator(name)?;
        q.check_bounds(est.n())?;
        Ok(est.estimate(q))
    }

    /// A human-readable summary table.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<20} {:>8} {:>12} {:>8}",
            "column", "n", "rows", "words"
        );
        for (name, e) in &self.columns {
            let _ = writeln!(
                out,
                "{:<20} {:>8} {:>12} {:>8}",
                name,
                e.n,
                e.total_rows,
                e.synopsis.storage_words()
            );
        }
        let _ = writeln!(out, "total words: {}", self.total_words());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synoptic_core::Budget;
    use synoptic_core::{PrefixSums, ValueHistogram};
    use synoptic_hist::sap0::build_sap0_with_budget;

    fn entry(vals: &[i64]) -> ColumnEntry {
        let ps = PrefixSums::from_values(vals);
        let (h, _) = build_sap0_with_budget(&ps, 3, &Budget::unlimited()).unwrap();
        ColumnEntry {
            n: vals.len(),
            total_rows: ps.total() as i64,
            synopsis: PersistentSynopsis::from_sap0(&h),
        }
    }

    #[test]
    fn insert_query_remove() {
        let mut cat = Catalog::new();
        assert!(cat.is_empty());
        cat.insert("price", entry(&[5, 1, 8, 8, 2, 9, 0, 3, 7, 7]));
        cat.insert("age", entry(&[2, 4, 9, 9, 4, 2]));
        assert_eq!(cat.len(), 2);
        assert_eq!(cat.names(), vec!["age", "price"]);
        let e = cat.estimate("price", RangeQuery { lo: 0, hi: 9 }).unwrap();
        assert!((e - 50.0).abs() < 1e-6, "whole-domain estimate {e}");
        assert!(cat.estimate("nope", RangeQuery::point(0)).is_err());
        assert!(cat.estimate("age", RangeQuery { lo: 0, hi: 99 }).is_err());
        assert!(cat.remove("age"));
        assert!(!cat.remove("age"));
        assert_eq!(cat.len(), 1);
    }

    #[test]
    fn binary_roundtrip_preserves_answers() {
        let mut cat = Catalog::new();
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14, 13, 6];
        cat.insert("qty", entry(&vals));
        let ps = PrefixSums::from_values(&vals);
        let b = synoptic_core::Bucketing::new(10, vec![0, 5]).unwrap();
        let h = ValueHistogram::with_averages(b, &ps, "OPT-A").unwrap();
        cat.insert(
            "amount",
            ColumnEntry {
                n: 10,
                total_rows: ps.total() as i64,
                synopsis: PersistentSynopsis::from_value_histogram(&h),
            },
        );
        // Every entry round-trips through the checksummed binary format.
        for (_, e) in cat.iter() {
            let bytes = crate::format::synopsis_to_bytes(&e.synopsis);
            let back = crate::format::synopsis_from_bytes(&bytes, "t").unwrap();
            assert_eq!(back, e.synopsis);
        }
        for q in RangeQuery::all(10) {
            let a = cat.estimate("qty", q).unwrap();
            assert!(a.is_finite());
        }
    }

    #[test]
    fn iter_walks_in_name_order() {
        let mut cat = Catalog::new();
        cat.insert("zeta", entry(&[1, 2, 3, 4, 5, 6]));
        cat.insert("alpha", entry(&[6, 5, 4, 3, 2, 1]));
        let names: Vec<&str> = cat.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn summary_and_accounting() {
        let mut cat = Catalog::new();
        cat.insert("a", entry(&[1, 2, 3, 4, 5, 6, 7, 8]));
        let words = cat.total_words();
        assert!(words > 0);
        let s = cat.summary();
        assert!(s.contains('a') && s.contains(&words.to_string()), "{s}");
    }
}

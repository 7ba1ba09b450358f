//! Answers that carry their provenance, and the one trait that produces
//! them.
//!
//! Before this crate existed the workspace had three estimate entry
//! points with three shapes: `ColumnHandle::estimate` returned a bare
//! `f64` (dropping the serving generation and build outcome),
//! `Follower::estimate` returned `Result<f64>` (dropping the observed
//! lag that justified the answer), and `DurableCatalog::estimate`
//! returned a `SourcedEstimate` (dropping the manifest generation).
//! [`Queryable`] unifies them: every answer is an [`AnswerEnvelope`] and
//! no boundary is allowed to strip the provenance off.

use std::fmt;
use std::sync::Arc;

use synoptic_catalog::{DurableCatalog, Storage};
use synoptic_core::{AnswerSource, BuildOutcome, RangeQuery, Result};

/// An estimate plus everything needed to judge it: where the answer came
/// from, which published snapshot answered, how stale it was, and how the
/// synopsis that answered was built.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerEnvelope {
    /// The estimated range sum.
    pub value: f64,
    /// Which synopsis answered (primary, an older generation, or the
    /// naive fallback) — the serving-side half of the provenance.
    pub source: AnswerSource,
    /// The publication generation of the snapshot that answered: the
    /// hot-swap generation for pool columns and batch servers, the
    /// manifest generation for catalog reads, the applied LSN for
    /// replication followers. Two answers with equal generations from
    /// the same responder came from the same published snapshot.
    pub generation: u64,
    /// How stale the answerer was: records applied-but-not-rebuilt for a
    /// maintained column, records behind the leader for a follower, `0`
    /// for a fresh primary.
    pub lag: u64,
    /// Provenance of the build that produced the answering synopsis
    /// (which anytime rung served and why), when the answerer tracks it.
    pub outcome: Option<BuildOutcome>,
    /// Per-segment build provenance for segmented columns, in segment
    /// order; `None` for monolithic answerers. Shared with the pin that
    /// answered, so a batch's envelopes do not copy it per range.
    pub segment_outcomes: Option<Arc<[BuildOutcome]>>,
}

impl AnswerEnvelope {
    /// A fresh primary answer with no build provenance attached.
    pub fn primary(value: f64, generation: u64) -> Self {
        Self {
            value,
            source: AnswerSource::Primary,
            generation,
            lag: 0,
            outcome: None,
            segment_outcomes: None,
        }
    }

    /// `true` when anything about this answer is weaker than asked for:
    /// a non-primary source or a build that fell down the anytime ladder.
    pub fn is_degraded(&self) -> bool {
        self.source.is_degraded() || self.outcome.as_ref().is_some_and(BuildOutcome::is_degraded)
    }
}

impl fmt::Display for AnswerEnvelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} (source {}, generation {}, lag {})",
            self.value, self.source, self.generation, self.lag
        )?;
        if let Some(outcome) = &self.outcome {
            write!(f, " — {outcome}")?;
        }
        Ok(())
    }
}

/// The one estimate entry point. Implementors answer a range-sum query
/// for a named column and *must* return full provenance — or refuse
/// loudly (lag bound exceeded, unknown column, out-of-bounds range).
pub trait Queryable {
    /// Answers `q` against `column`, or refuses with provenance.
    fn query(&self, column: &str, q: RangeQuery) -> Result<AnswerEnvelope>;
}

/// Every `&Q` is as queryable as `Q` itself.
impl<Q: Queryable + ?Sized> Queryable for &Q {
    fn query(&self, column: &str, q: RangeQuery) -> Result<AnswerEnvelope> {
        (**self).query(column, q)
    }
}

/// Catalog reads answer through the degraded-mode fallback chain; the
/// envelope carries the fallback source and the manifest generation that
/// served.
impl<S: Storage> Queryable for DurableCatalog<S> {
    fn query(&self, column: &str, q: RangeQuery) -> Result<AnswerEnvelope> {
        let answer = self.estimate(column, q)?;
        Ok(AnswerEnvelope {
            value: answer.value,
            source: answer.source,
            generation: answer.generation,
            lag: 0,
            outcome: None,
            segment_outcomes: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use std::sync::Mutex;
    use synoptic_catalog::{Catalog, FsStorage};

    #[test]
    fn degradation_is_visible_from_source_and_outcome() {
        let mut env = AnswerEnvelope::primary(4.0, 7);
        assert!(!env.is_degraded());
        env.outcome = Some(BuildOutcome::direct("sap0", 1, 10));
        assert!(!env.is_degraded());
        env.source = AnswerSource::FallbackNaive;
        assert!(env.is_degraded());
        let mut degraded_build = AnswerEnvelope::primary(4.0, 7);
        degraded_build.outcome = Some(BuildOutcome {
            requested: "opt-a".into(),
            used: "sap0".into(),
            tier: 2,
            attempts: Vec::new(),
            elapsed_ms: 3,
            cells: 9,
        });
        assert!(degraded_build.is_degraded());
    }

    #[test]
    fn display_carries_the_provenance() {
        let env = AnswerEnvelope::primary(12.5, 3);
        let text = env.to_string();
        assert!(text.contains("12.50"), "{text}");
        assert!(text.contains("generation 3"), "{text}");
    }

    #[test]
    fn durable_catalog_answers_with_manifest_generation() {
        let dir = std::env::temp_dir().join(format!("synoptic-api-env-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DurableCatalog::open(&dir, FsStorage::new()).unwrap();
        let values = vec![3i64, 1, 4, 1, 5, 9, 2, 6];
        let mut catalog = Catalog::new();
        catalog.insert_exact("c", &values, 0).unwrap();
        let generation = store.save(&catalog).unwrap();
        let env = store.query("c", RangeQuery::new(1, 3).unwrap()).unwrap();
        assert_eq!(env.generation, generation);
        assert_eq!(env.source, AnswerSource::Primary);
        assert_eq!(env.value, (1 + 4 + 1) as f64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The filesystem, recording the name of every file read.
    #[derive(Clone, Default)]
    struct CountingStorage {
        inner: FsStorage,
        reads: Arc<Mutex<Vec<String>>>,
    }

    impl Storage for CountingStorage {
        fn read(&self, path: &Path) -> Result<Vec<u8>> {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            self.reads.lock().unwrap().push(name);
            self.inner.read(path)
        }
        fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<()> {
            self.inner.write_atomic(path, bytes)
        }
        fn write_at(&self, path: &Path, offset: u64, bytes: &[u8], sync: bool) -> Result<()> {
            self.inner.write_at(path, offset, bytes, sync)
        }
        fn truncate(&self, path: &Path, len: u64) -> Result<()> {
            self.inner.truncate(path, len)
        }
        fn remove(&self, path: &Path) -> Result<()> {
            self.inner.remove(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> Result<()> {
            self.inner.rename(from, to)
        }
        fn list(&self, dir: &Path) -> Result<Vec<String>> {
            self.inner.list(dir)
        }
        fn create_dir_all(&self, dir: &Path) -> Result<()> {
            self.inner.create_dir_all(dir)
        }
        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }
    }

    /// One query resolves `CURRENT` and the manifest once and reports the
    /// generation of that manifest; a second resolution could see a
    /// `save` that committed after the synopsis was read.
    #[test]
    fn a_catalog_query_reads_each_file_once() {
        let dir = std::env::temp_dir().join(format!("synoptic-api-reads-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let storage = CountingStorage::default();
        let store = DurableCatalog::open(&dir, storage.clone()).unwrap();
        let mut catalog = Catalog::new();
        catalog.insert_exact("c", &[3, 1, 4, 1], 0).unwrap();
        let generation = store.save(&catalog).unwrap();
        storage.reads.lock().unwrap().clear();

        let env = store.query("c", RangeQuery::new(0, 3).unwrap()).unwrap();
        assert_eq!((env.value, env.generation), (9.0, generation));
        let mut reads = storage.reads.lock().unwrap().clone();
        reads.sort();
        let expected = [
            "CURRENT".to_string(),
            format!("MANIFEST-{generation}"),
            format!("c-{generation}.syn"),
        ];
        assert_eq!(reads, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Startup recovery for journaled maintained columns: **fsck → prune →
//! replay → serve**.
//!
//! A crash can leave the durable state of a maintained column in three
//! layers: the last *committed* catalog generation (manifest + synopses +
//! per-column WAL marks), *abandoned* generation files from persists that
//! died before the `CURRENT` swap, and the write-ahead journal holding
//! every acknowledged update since the committed snapshot. [`recover`]
//! walks them in order:
//!
//! 1. **fsck** — [`DurableCatalog::fsck`] validates the `CURRENT` chain;
//!    when unhealthy, [`DurableCatalog::repair`] quarantines corrupt
//!    files and re-points `CURRENT` at the newest valid generation.
//! 2. **prune** — [`DurableCatalog::prune_abandoned`] reclaims generation
//!    files that were written but never committed (idempotent; never runs
//!    without a valid committed pointer).
//! 3. **replay** — the journal directory is scanned once
//!    ([`scan_journals`]: every segment file read once, every column's
//!    chain validated). For every column whose committed snapshot is an
//!    exact frequency vector ([`PersistentSynopsis::Frequencies`]),
//!    records with `lsn >` the column's committed WAL mark are applied in
//!    order. A torn final
//!    record is tolerated (truncate-and-continue: it was never
//!    acknowledged as durable under `FsyncCadence::EveryRecord`); any
//!    deeper damage surfaces as [`SynopticError::CorruptJournal`], and a
//!    segment written against a *newer* base generation than the
//!    recovered snapshot is refused with
//!    [`SynopticError::WalGenerationMismatch`] — replaying it would apply
//!    deltas the snapshot never saw from a history that superseded it.
//! 4. **serve** — the caller re-registers each [`RecoveredColumn`] with a
//!    [`crate::MaintainedPool`]
//!    ([`crate::MaintainedPool::add_column_durable`]) using its exact
//!    `values`; reopening the journal continues the LSN chain without
//!    touching the replayed segments, which the next successful
//!    checkpoint truncates.
//!
//! Columns whose snapshot is *not* an exact frequency vector are skipped
//! when their journal is clean, and refused (corrupt journal) when it has
//! unreplayed records — deltas cannot be applied exactly to a lossy
//! synopsis, so acknowledging them would be a silent durability lie. Two
//! more refusals close silent-loss holes: the replayable chain must
//! *anchor* at the committed mark (first pending record at `mark + 1` —
//! a gap means a lost newer generation's checkpoint truncated
//! acknowledged deltas), and a journal whose column is absent from the
//! committed catalog must hold no acknowledged records (they would have
//! nothing to replay onto); record-free orphan journals are reported in
//! [`RecoveryReport::orphaned`].

use std::path::Path;
use std::sync::Arc;

use synoptic_catalog::wal::{scan_journals, JournalScan, WalRecord};
use synoptic_catalog::{
    Catalog, DurableCatalog, FsckReport, PersistentSynopsis, PruneReport, RepairReport, Storage,
};
use synoptic_core::{Result, SynopticError};
use synoptic_repl::transport::{Received, Transport};
use synoptic_repl::wire::{decode_frame, encode_frame, Frame};

use crate::follow::{FollowConfig, Follower};
use crate::maintained::SharedStorage;

/// One column's state reconstructed by [`recover`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredColumn {
    /// Column name.
    pub name: String,
    /// Exact frequencies: the committed snapshot plus every replayed
    /// journal delta. Re-register the column with these.
    pub values: Vec<i64>,
    /// The WAL mark the committed manifest recorded (records at or below
    /// it were already captured by the snapshot and are skipped).
    pub committed_mark: u64,
    /// Journal records applied on top of the snapshot.
    pub replayed: u64,
    /// Highest LSN observed in the journal (0 when empty).
    pub max_lsn: u64,
    /// Whether the final segment ended in a torn (truncated) record that
    /// was tolerated and dropped.
    pub torn_tail: bool,
    /// Segment files skipped because a crash interrupted their creation
    /// before any record in them was acknowledged.
    pub skipped_segments: Vec<String>,
}

/// What [`recover`] did, layer by layer.
#[derive(Debug)]
pub struct RecoveryReport {
    /// The committed generation everything was recovered on top of.
    pub generation: u64,
    /// The fsck findings prior to any repair.
    pub fsck: FsckReport,
    /// The repair pass, when fsck found issues.
    pub repaired: Option<RepairReport>,
    /// Abandoned-generation reclamation (always run, idempotent).
    pub pruned: PruneReport,
    /// Every journaled column reconstructed, in catalog order.
    pub columns: Vec<RecoveredColumn>,
    /// Columns that own journal segments under the WAL directory but are
    /// absent from the committed catalog, and whose journals hold no
    /// acknowledged records (only wrecked segments from torn creations).
    /// An absent column whose journal *does* hold acknowledged records is
    /// refused with [`SynopticError::CorruptJournal`] instead — those
    /// records have nothing to replay onto and must not vanish silently.
    pub orphaned: Vec<String>,
    /// The recovered catalog (committed snapshots + WAL marks), for
    /// callers that want to re-serve non-journaled columns too.
    pub catalog: Catalog,
}

impl RecoveryReport {
    /// The recovered column named `name`, if it was journal-replayed.
    pub fn column(&self, name: &str) -> Option<&RecoveredColumn> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Total journal records applied across all columns.
    pub fn total_replayed(&self) -> u64 {
        self.columns.iter().map(|c| c.replayed).sum()
    }

    /// Human-readable summary for logs and the CLI.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "recovered generation {} ({} column(s), {} journal record(s) replayed)\n",
            self.generation,
            self.columns.len(),
            self.total_replayed()
        ));
        if let Some(rep) = &self.repaired {
            out.push_str(&rep.render());
            out.push('\n');
        }
        if !self.pruned.abandoned_generations.is_empty() {
            out.push_str(&self.pruned.render());
            out.push('\n');
        }
        for name in &self.orphaned {
            out.push_str(&format!(
                "  {name}: journal present but column absent from the catalog \
                 (no acknowledged records; wrecked segments only)\n"
            ));
        }
        for c in &self.columns {
            out.push_str(&format!(
                "  {}: {} replayed (mark {} -> lsn {}){}{}\n",
                c.name,
                c.replayed,
                c.committed_mark,
                c.max_lsn.max(c.committed_mark),
                if c.torn_tail {
                    ", torn final record dropped"
                } else {
                    ""
                },
                if c.skipped_segments.is_empty() {
                    String::new()
                } else {
                    format!(", {} empty wreck(s) skipped", c.skipped_segments.len())
                },
            ));
        }
        out
    }
}

/// Recovers the maintained serving state from `store` and the write-ahead
/// journals under `wal_dir`. See the module docs for the state machine.
///
/// Errors: anything fsck/repair/prune/load surface, plus
/// [`SynopticError::CorruptJournal`] (journal damage beyond the tolerated
/// torn tail, an out-of-range replay index, a delta that moves a cell
/// outside `i64`, or unreplayable records
/// against a lossy snapshot) and [`SynopticError::WalGenerationMismatch`]
/// (journal written against a newer generation than the one recovered).
/// Both of the latter mean the journal cannot be trusted; the CLI maps
/// them to a dedicated exit code.
pub fn recover<S: Storage>(
    store: &DurableCatalog<S>,
    wal_dir: impl AsRef<Path>,
) -> Result<RecoveryReport> {
    let wal_dir = wal_dir.as_ref();
    let fsck = store.fsck()?;
    let repaired = if fsck.healthy() {
        None
    } else {
        Some(store.repair()?)
    };
    let pruned = store.prune_abandoned(false)?;
    let catalog = store.load()?;
    let generation = store.effective_manifest()?.generation;

    let journals = scan_journals(store.storage(), wal_dir)?;
    let no_journal = JournalScan::default();
    let mut columns = Vec::new();
    for (name, entry) in catalog.iter() {
        let mark = catalog.wal_mark(name);
        let scan = journals.get(name).unwrap_or(&no_journal);
        let records = scan.records();
        let pending: Vec<_> = records.iter().filter(|r| r.lsn > mark).collect();
        let base = match &entry.synopsis {
            PersistentSynopsis::Frequencies { values } => values,
            _ if pending.is_empty() => continue, // lossy synopsis, clean journal
            _ => {
                return Err(SynopticError::CorruptJournal {
                    context: name.to_string(),
                    detail: format!(
                        "{} journal record(s) past mark {mark}, but the committed \
                         snapshot is not an exact frequency vector: deltas cannot \
                         be replayed",
                        pending.len()
                    ),
                });
            }
        };
        // The replayable chain must anchor exactly at the committed mark.
        // A gap can only mean records were truncated by a *newer*
        // generation's checkpoint than the one recovered (e.g. repair fell
        // back after the newer CURRENT was damaged): the deltas in
        // (mark, first_lsn) were acknowledged, captured only by the lost
        // snapshot, and are gone — replaying around the hole would serve
        // silently wrong counts.
        if let Some(first) = pending.first() {
            if first.lsn != mark + 1 {
                return Err(SynopticError::CorruptJournal {
                    context: name.to_string(),
                    detail: format!(
                        "journal does not anchor at the committed mark: first \
                         replayable record is lsn {} but mark {mark} requires \
                         {}; acknowledged records in between were truncated \
                         by a checkpoint of a lost newer generation",
                        first.lsn,
                        mark + 1
                    ),
                });
            }
        }
        // Every segment contributing replayed records must have been
        // written against the recovered generation or an older one.
        for (seg, _) in &scan.segments {
            if seg.last_lsn >= seg.first_lsn
                && seg.last_lsn > mark
                && seg.base_generation > generation
            {
                return Err(SynopticError::WalGenerationMismatch {
                    wal_generation: seg.base_generation,
                    snapshot_generation: generation,
                });
            }
        }
        let values = replay(base, pending.iter().copied()).map_err(|detail| {
            SynopticError::CorruptJournal {
                context: name.to_string(),
                detail,
            }
        })?;
        let replayed = pending.len() as u64;
        columns.push(RecoveredColumn {
            name: name.to_string(),
            values,
            committed_mark: mark,
            replayed,
            max_lsn: scan.max_lsn,
            torn_tail: scan.segments.iter().any(|(s, _)| s.torn_tail),
            skipped_segments: scan.skipped.clone(),
        });
    }
    // Journals for columns the committed catalog does not know. The one
    // legitimate way these arise is a crash after a durable column's
    // journal was created but before its first persist ever committed a
    // catalog entry — if such a journal holds acknowledged records, they
    // have no snapshot to replay onto and must be refused, not dropped.
    let mut orphaned = Vec::new();
    for (column, scan) in journals {
        if catalog.get(&column).is_some() {
            continue;
        }
        let records = scan.records();
        if !records.is_empty() {
            return Err(SynopticError::CorruptJournal {
                context: column.clone(),
                detail: format!(
                    "{} acknowledged journal record(s) (lsn up to {}) for a \
                     column absent from the committed catalog: the snapshot \
                     that owned them never committed, so they cannot be \
                     replayed — and must not be silently dropped",
                    records.len(),
                    scan.max_lsn
                ),
            });
        }
        orphaned.push(column);
    }
    Ok(RecoveryReport {
        generation,
        fsck,
        repaired,
        pruned,
        columns,
        orphaned,
        catalog,
    })
}

/// Applies journal records to a copy of `values` — the one replay both
/// crash recovery and a follower run. A record whose index falls outside
/// the domain, or whose delta moves its cell outside `i64`, refuses the
/// whole replay with a reason naming that record's LSN and index; the
/// input is never touched, so a refusal leaves nothing half-applied.
pub(crate) fn replay<'a>(
    values: &[i64],
    records: impl IntoIterator<Item = &'a WalRecord>,
) -> std::result::Result<Vec<i64>, String> {
    let mut out = values.to_vec();
    let n = out.len();
    for rec in records {
        let Some(cell) = usize::try_from(rec.index).ok().and_then(|i| out.get_mut(i)) else {
            return Err(format!(
                "record lsn {} targets index {} outside domain 0..{n}",
                rec.lsn, rec.index
            ));
        };
        *cell = cell.checked_add(rec.delta).ok_or_else(|| {
            format!(
                "record lsn {} moves index {} by {} outside the i64 range",
                rec.lsn, rec.index, rec.delta
            )
        })?;
    }
    Ok(out)
}

fn reseed_diverged(detail: impl Into<String>) -> SynopticError {
    SynopticError::ReplicationDivergence {
        context: "reseed".to_string(),
        detail: detail.into(),
    }
}

/// The receiving half of the re-seed path: rebuilds a stranded node — a
/// fenced ex-leader — from the current leader's snapshot transfer, and
/// rejoins it as a follower.
///
/// Protocol (the sending half is `synoptic_repl::election::Seeder`):
///
/// 1. The leader's [`Frame::Claim`] arrives first; the grant (term +
///    vote) is persisted as a catalog generation *before* the
///    [`Frame::Grant`] travels, so a crash cannot double-grant the term.
/// 2. Each [`Frame::Snapshot`] stages one column's committed frequencies
///    and WAL mark; each is acknowledged at its mark.
/// 3. The first non-snapshot frame (the shipper's probe, or a clean
///    close) commits the staged catalog and runs the proven recovery
///    path — a rejoin *is* [`Follower::open`] over the seeded state. The
///    journal tail then ships as ordinary segments into the returned
///    follower's serve loop.
///
/// The target directories must hold no committed catalog: a fenced
/// node's own history diverged at its unacknowledged tail and must be
/// discarded (point the rejoin at fresh directories), never merged.
pub fn rejoin(
    storage: SharedStorage,
    catalog_dir: impl AsRef<Path>,
    wal_dir: impl AsRef<Path>,
    config: FollowConfig,
    transport: &mut dyn Transport,
) -> Result<(Follower, RecoveryReport)> {
    let store = DurableCatalog::open(catalog_dir.as_ref(), Arc::clone(&storage))?;
    if store.load().is_ok() {
        return Err(reseed_diverged(
            "target already holds a committed catalog: a re-seeded node discards \
             its diverged state and rejoins from fresh directories",
        ));
    }
    if !scan_journals(&storage, wal_dir.as_ref())?.is_empty() {
        return Err(reseed_diverged(
            "target journal directory already holds segments: a re-seeded node \
             discards its diverged journal and rejoins from fresh directories",
        ));
    }

    // 1. The claim handshake, persisted before the grant travels.
    let (term, node) = match transport.recv(None)? {
        Received::Frame(bytes) => match decode_frame(&bytes)? {
            Frame::Claim { term, node } => (term, node),
            other => {
                return Err(reseed_diverged(format!(
                    "expected the leader's claim, got {other:?}"
                )))
            }
        },
        other => {
            return Err(reseed_diverged(format!(
                "link ended before the leader's claim: {other:?}"
            )))
        }
    };
    let mut staged = Catalog::new();
    staged.set_election_term(term);
    staged.set_election_vote(node);
    store.save(&staged)?;
    transport.send(&encode_frame(&Frame::Grant { term, node }))?;

    // 2. Snapshots, staged and acknowledged one by one.
    let mut deferred = None;
    loop {
        match transport.recv(None)? {
            Received::Frame(bytes) => match decode_frame(&bytes)? {
                Frame::Snapshot {
                    term: t,
                    column,
                    mark,
                    values,
                } => {
                    // A wrong term, an empty domain or a total outside i64
                    // is refused before anything is staged.
                    let refusal = if t != term {
                        Some(format!(
                            "snapshot of column {column} carries term {t}, but this \
                             rejoin granted term {term}"
                        ))
                    } else {
                        staged
                            .insert_exact(column.as_str(), &values, mark)
                            .err()
                            .map(|e| format!("snapshot of column {column} refused: {e}"))
                    };
                    if let Some(reason) = refusal {
                        transport.send(&encode_frame(&Frame::Refuse {
                            term,
                            column,
                            applied_lsn: 0,
                            reason: reason.clone(),
                        }))?;
                        return Err(reseed_diverged(reason));
                    }
                    transport.send(&encode_frame(&Frame::Ack {
                        term,
                        column,
                        applied_lsn: mark,
                    }))?;
                }
                // The shipper's probe (or first segment): the snapshot
                // phase is over. Handled by the opened follower below.
                _ => {
                    deferred = Some(bytes);
                    break;
                }
            },
            Received::Closed => break,
            Received::TimedOut => continue,
        }
    }

    // 3. Commit the seeded catalog and rejoin through the proven
    // recovery path.
    store.save(&staged)?;
    let (mut follower, report) =
        Follower::open(storage, catalog_dir.as_ref(), wal_dir.as_ref(), config)?;
    if let Some(bytes) = deferred {
        let response = follower.handle(&bytes);
        // An undeliverable response means the leader vanished mid-seed;
        // its retry ladder (or the next leader) re-solicits.
        let _ = transport.send(&response);
    }
    Ok((follower, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use synoptic_catalog::wal::{ColumnWal, WalConfig};
    use synoptic_catalog::{ColumnEntry, FsStorage};

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("synoptic-recovery-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn commit_frequencies(
        store: &DurableCatalog<FsStorage>,
        name: &str,
        values: &[i64],
        mark: u64,
    ) -> u64 {
        let mut cat = Catalog::new();
        cat.insert_exact(name, values, mark).unwrap();
        store.save(&cat).unwrap()
    }

    #[test]
    fn replay_applies_only_records_past_the_committed_mark() {
        let root = tempdir("mark");
        let store = DurableCatalog::open(root.join("cat"), FsStorage::new()).unwrap();
        let wal_dir = root.join("wal");
        let storage: Arc<dyn Storage + Send + Sync> = Arc::new(FsStorage::new());
        let wal =
            ColumnWal::open(Arc::clone(&storage), &wal_dir, "c", 0, WalConfig::default()).unwrap();
        // Records 1..=3 are captured by the snapshot (mark 3); 4..=5 not.
        for (i, d) in [(0u64, 5i64), (1, -2), (2, 7), (3, 11), (0, 1)] {
            wal.append(i, d).unwrap();
        }
        let gen = commit_frequencies(&store, "c", &[5, -2, 7, 0], 3);
        let report = recover(&store, &wal_dir).unwrap();
        assert_eq!(report.generation, gen);
        let col = report.column("c").unwrap();
        assert_eq!(col.values, vec![6, -2, 7, 11]);
        assert_eq!(col.replayed, 2);
        assert_eq!(col.committed_mark, 3);
        assert_eq!(col.max_lsn, 5);
        assert!(!col.torn_tail);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_zeroed_record_inside_the_final_segment_is_refused() {
        let root = tempdir("zeroed");
        let store = DurableCatalog::open(root.join("cat"), FsStorage::new()).unwrap();
        let wal_dir = root.join("wal");
        let storage: Arc<dyn Storage + Send + Sync> = Arc::new(FsStorage::new());
        let wal =
            ColumnWal::open(Arc::clone(&storage), &wal_dir, "c", 0, WalConfig::default()).unwrap();
        for i in 0..3u64 {
            wal.append(i, 1).unwrap();
        }
        commit_frequencies(&store, "c", &[0, 0, 0], 0);
        // A zeroed second record (a lost block) with a synced record after
        // it is damage, not a torn tail, in the padded active segment and
        // once the segment is sealed.
        let seg = wal_dir.join("c-1.wal");
        let slot = 32 + "c".len() + 32;
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[slot..slot + 32].fill(0);
        std::fs::write(&seg, &bytes).unwrap();
        for sealed in [false, true] {
            if sealed {
                wal.seal().unwrap();
            }
            let err = recover(&store, &wal_dir).unwrap_err();
            assert!(
                matches!(err, SynopticError::CorruptJournal { .. }),
                "sealed {sealed}: {err:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn replay_refuses_a_journal_that_does_not_anchor_at_the_mark() {
        let root = tempdir("anchor");
        let store = DurableCatalog::open(root.join("cat"), FsStorage::new()).unwrap();
        let wal_dir = root.join("wal");
        let storage: Arc<dyn Storage + Send + Sync> = Arc::new(FsStorage::new());
        let cfg = WalConfig {
            segment_bytes: 1, // one record per segment
            ..WalConfig::default()
        };
        let wal = ColumnWal::open(Arc::clone(&storage), &wal_dir, "c", 0, cfg).unwrap();
        for i in 1..=4u64 {
            wal.append(i % 2, 1).unwrap();
        }
        // A newer generation's checkpoint truncated segments 1..=3, then
        // that generation was lost and repair fell back to a manifest whose
        // mark is only 1: lsn 2..=3 are gone for good.
        wal.checkpoint(3, 2).unwrap();
        commit_frequencies(&store, "c", &[0, 0], 1);
        match recover(&store, &wal_dir) {
            Err(SynopticError::CorruptJournal { detail, .. }) => {
                assert!(detail.contains("anchor"), "{detail}");
                assert!(detail.contains("lsn 4"), "{detail}");
            }
            other => panic!("expected CorruptJournal, got {other:?}"),
        }
        // With the mark at 3 the same journal anchors (4 = 3 + 1) and
        // replays cleanly.
        commit_frequencies(&store, "c", &[0, 0], 3);
        let report = recover(&store, &wal_dir).unwrap();
        assert_eq!(report.column("c").unwrap().replayed, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn journal_for_a_column_absent_from_the_catalog_is_refused() {
        let root = tempdir("orphan");
        let store = DurableCatalog::open(root.join("cat"), FsStorage::new()).unwrap();
        let wal_dir = root.join("wal");
        let storage: Arc<dyn Storage + Send + Sync> = Arc::new(FsStorage::new());
        // "ghost" acknowledged two updates, but its first durable persist
        // never committed a catalog entry; only "c" is in the catalog.
        let wal = ColumnWal::open(
            Arc::clone(&storage),
            &wal_dir,
            "ghost",
            0,
            WalConfig::default(),
        )
        .unwrap();
        wal.append(0, 1).unwrap();
        wal.append(1, 2).unwrap();
        commit_frequencies(&store, "c", &[0, 0], 0);
        match recover(&store, &wal_dir) {
            Err(SynopticError::CorruptJournal { context, detail }) => {
                assert_eq!(context, "ghost");
                assert!(
                    detail.contains("absent from the committed catalog"),
                    "{detail}"
                );
            }
            other => panic!("expected CorruptJournal, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn record_free_orphan_journal_is_reported_not_refused() {
        let root = tempdir("orphan-clean");
        let store = DurableCatalog::open(root.join("cat"), FsStorage::new()).unwrap();
        let wal_dir = root.join("wal");
        std::fs::create_dir_all(&wal_dir).unwrap();
        // The crash hit the ghost journal's very first append: an
        // unreadable header means nothing was ever acknowledged.
        std::fs::write(wal_dir.join("ghost-1.wal"), b"SYN").unwrap();
        commit_frequencies(&store, "c", &[0, 0], 0);
        let report = recover(&store, &wal_dir).unwrap();
        assert!(
            report.orphaned.is_empty(),
            "unreadable headers name no column"
        );
        // A readable header with zero whole records (torn first record,
        // never acknowledged) IS nameable: reported as orphaned, not fatal.
        let storage: Arc<dyn Storage + Send + Sync> = Arc::new(FsStorage::new());
        let wal = ColumnWal::open(
            Arc::clone(&storage),
            &wal_dir,
            "wisp",
            0,
            WalConfig::default(),
        )
        .unwrap();
        wal.append(0, 1).unwrap();
        wal.seal().unwrap(); // trims the padding: the file ends at the record
        let seg = wal_dir.join("wisp-1.wal");
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 5]).unwrap();
        let report = recover(&store, &wal_dir).unwrap();
        assert_eq!(report.orphaned, vec!["wisp".to_string()]);
        assert!(report.render().contains("wisp"), "{}", report.render());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_journal_recovers_the_snapshot_verbatim() {
        let root = tempdir("nowal");
        let store = DurableCatalog::open(root.join("cat"), FsStorage::new()).unwrap();
        commit_frequencies(&store, "c", &[1, 2, 3], 0);
        let report = recover(&store, root.join("wal")).unwrap();
        let col = report.column("c").unwrap();
        assert_eq!(col.values, vec![1, 2, 3]);
        assert_eq!(col.replayed, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn newer_base_generation_is_refused_with_a_typed_error() {
        let root = tempdir("gen");
        let store = DurableCatalog::open(root.join("cat"), FsStorage::new()).unwrap();
        let wal_dir = root.join("wal");
        let storage: Arc<dyn Storage + Send + Sync> = Arc::new(FsStorage::new());
        // Journal claims base generation 9; the committed snapshot is 1.
        let wal =
            ColumnWal::open(Arc::clone(&storage), &wal_dir, "c", 9, WalConfig::default()).unwrap();
        wal.append(0, 1).unwrap();
        let gen = commit_frequencies(&store, "c", &[0, 0], 0);
        assert_eq!(gen, 1);
        match recover(&store, &wal_dir) {
            Err(SynopticError::WalGenerationMismatch {
                wal_generation,
                snapshot_generation,
            }) => {
                assert_eq!(wal_generation, 9);
                assert_eq!(snapshot_generation, 1);
            }
            other => panic!("expected WalGenerationMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn out_of_range_replay_index_is_a_corrupt_journal() {
        let root = tempdir("oob");
        let store = DurableCatalog::open(root.join("cat"), FsStorage::new()).unwrap();
        let wal_dir = root.join("wal");
        let storage: Arc<dyn Storage + Send + Sync> = Arc::new(FsStorage::new());
        let wal =
            ColumnWal::open(Arc::clone(&storage), &wal_dir, "c", 0, WalConfig::default()).unwrap();
        wal.append(99, 1).unwrap(); // domain is only 2 wide
        commit_frequencies(&store, "c", &[0, 0], 0);
        match recover(&store, &wal_dir) {
            Err(SynopticError::CorruptJournal { detail, .. }) => {
                assert!(detail.contains("index 99"), "{detail}");
            }
            other => panic!("expected CorruptJournal, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn replay_past_i64_is_a_corrupt_journal() {
        let root = tempdir("wrap");
        let store = DurableCatalog::open(root.join("cat"), FsStorage::new()).unwrap();
        let wal_dir = root.join("wal");
        let storage: Arc<dyn Storage + Send + Sync> = Arc::new(FsStorage::new());
        let wal =
            ColumnWal::open(Arc::clone(&storage), &wal_dir, "c", 0, WalConfig::default()).unwrap();
        wal.append(1, 5).unwrap(); // i64::MAX − 1 + 5 leaves i64
        commit_frequencies(&store, "c", &[0, i64::MAX - 1], 0);
        match recover(&store, &wal_dir) {
            Err(SynopticError::CorruptJournal { context, detail }) => {
                assert_eq!(context, "c");
                assert!(detail.contains("lsn 1"), "{detail}");
                assert!(detail.contains("index 1"), "{detail}");
                assert!(detail.contains("i64"), "{detail}");
            }
            other => panic!("expected CorruptJournal, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn lossy_snapshot_with_pending_records_is_refused() {
        let root = tempdir("lossy");
        let store = DurableCatalog::open(root.join("cat"), FsStorage::new()).unwrap();
        let wal_dir = root.join("wal");
        let storage: Arc<dyn Storage + Send + Sync> = Arc::new(FsStorage::new());
        let wal =
            ColumnWal::open(Arc::clone(&storage), &wal_dir, "c", 0, WalConfig::default()).unwrap();
        wal.append(0, 1).unwrap();
        let mut cat = Catalog::new();
        cat.insert(
            "c",
            ColumnEntry {
                n: 4,
                total_rows: 4,
                synopsis: PersistentSynopsis::Sap0 {
                    n: 4,
                    starts: vec![0],
                    suff: vec![4.0],
                    pref: vec![4.0],
                },
            },
        );
        store.save(&cat).unwrap();
        match recover(&store, &wal_dir) {
            Err(SynopticError::CorruptJournal { detail, .. }) => {
                assert!(detail.contains("exact frequency"), "{detail}");
            }
            other => panic!("expected CorruptJournal, got {other:?}"),
        }
        // A lossy snapshot with a *clean* journal is simply skipped.
        let report = recover(&store, root.join("no-such-wal")).unwrap();
        assert!(report.columns.is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }
}

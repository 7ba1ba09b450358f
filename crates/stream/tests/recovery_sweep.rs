//! Crash-point sweep for the write-ahead journal + recovery path.
//!
//! The kill-and-recover property under test: **every update acknowledged
//! before a crash survives recovery, and nothing else appears**. Each
//! sweep drives a deterministic update stream through a journaled column
//! of a one-worker [`MaintainedPool`] over a [`FaultyStorage`], moving a
//! single terminal fault across *every* write-operation index — WAL
//! appends, segment-rotation appends, durable persists, and
//! checkpoint-truncation deletes all sit in the same operation stream, so
//! the sweep hits every boundary. The sweep waits
//! ([`synoptic_stream::ColumnHandle::quiesce`]) after every update that
//! scheduled a rebuild, so the rebuild's persist and checkpoint land
//! before the next append and the operation order is deterministic.
//! After the simulated kill, [`recover`] must reconstruct exactly the
//! shadow array of acknowledged updates.
//!
//! Fault semantics per schedule:
//! * `Enospc` / `CrashBeforeRename` — the faulted operation fails
//!   *visibly*: a faulted append rejects the update (never acknowledged),
//!   a faulted persist/truncate is absorbed non-fatally. Sound at every
//!   operation index.
//! * `TornWrite` — the faulted append *lies*: the caller sees success but
//!   only a prefix hit the platter. That models power loss mid-append, so
//!   the torn operation must be the final one before the kill and its
//!   update does not count as acknowledged (the "client" died with the
//!   server). Recovery tolerates exactly this torn tail.

use std::sync::Arc;

use synoptic_catalog::{
    Catalog, ColumnEntry, DurableCatalog, Fault, FaultyStorage, FsStorage, PersistentSynopsis,
};
use synoptic_core::{Budget, PrefixSums, RangeEstimator, Result};
use synoptic_hist::sap0::build_sap0_with_budget;
use synoptic_stream::{
    recover, ColumnBuild, DurabilityConfig, DurablePersistFn, MaintainedPool, RebuildConfig,
    RebuildPolicy, SharedStorage,
};

const COLUMN: &str = "c";
const N: usize = 16;

fn tempdir(tag: &str, k: usize) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("synoptic-sweep-{tag}-{k}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn initial_values() -> Vec<i64> {
    (0..N as i64).map(|i| 10 + (i * 7) % 23).collect()
}

/// A deterministic update stream (position, delta).
fn stream(len: usize) -> Vec<(usize, i64)> {
    let mut s = 0x2001_u64;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let i = (s % N as u64) as usize;
        let d = ((s >> 32) % 9) as i64 - 4;
        out.push((i, if d == 0 { 5 } else { d }));
    }
    out
}

fn builder() -> impl FnMut(&[i64], &PrefixSums, &Budget) -> Result<Box<dyn RangeEstimator>> {
    |_vals: &[i64], ps: &PrefixSums, budget: &Budget| {
        Ok(Box::new(build_sap0_with_budget(ps, 3, budget)?.0) as Box<dyn RangeEstimator>)
    }
}

/// Commits the initial frequencies through a clean (non-faulty) handle so
/// the fault schedule indexes only the maintenance phase's operations.
fn commit_initial(cat_dir: &std::path::Path, values: &[i64]) -> u64 {
    let store = DurableCatalog::open(cat_dir, FsStorage::new()).unwrap();
    let mut cat = Catalog::new();
    cat.insert(
        COLUMN,
        ColumnEntry {
            n: values.len(),
            total_rows: values.iter().sum(),
            synopsis: PersistentSynopsis::from_frequencies(values),
        },
    );
    store.save(&cat).unwrap()
}

/// Runs one crash scenario: `k` clean write operations, then `fault`
/// fires on write op `k`, then the process "dies" at the next update
/// boundary. Returns `(shadow, fired, in_rebuild)` where `shadow` is the
/// array of acknowledged state, `fired` says whether the fault was
/// reached, and `in_rebuild` says whether it landed in the persist hook or
/// the checkpoint of a rebuild rather than in a journal append.
///
/// `torn` flags the torn-write ack rule: an update whose own append tore
/// returned `Ok` to a caller that never lived to see it, so it is *not*
/// acknowledged.
fn run_crash_scenario(
    tag: &str,
    k: usize,
    fault: Fault,
    torn: bool,
    policy: RebuildPolicy,
    updates: usize,
) -> (Vec<i64>, bool, bool) {
    let root = tempdir(tag, k);
    let cat_dir = root.join("cat");
    let wal_dir = root.join("wal");
    let values = initial_values();
    let generation = commit_initial(&cat_dir, &values);

    let mut schedule = vec![Fault::CleanWrite; k];
    schedule.push(fault);
    let faulty = Arc::new(FaultyStorage::new(FsStorage::new(), schedule));
    let shared: SharedStorage = faulty.clone();
    // The torn sweep's ack rule needs every write op to be a record
    // append; `OnRotate` adds empty fsync-only appends at seal time, so
    // that sweep syncs per record instead.
    let cadence = if torn {
        synoptic_catalog::wal::FsyncCadence::EveryRecord
    } else {
        synoptic_catalog::wal::FsyncCadence::OnRotate
    };
    let durability = DurabilityConfig::journaled(&wal_dir)
        .with_segment_bytes(128) // rotate every ~3 records
        .with_fsync(cadence);
    let hook_store = DurableCatalog::open(&cat_dir, Arc::clone(&faulty)).unwrap();
    let hook: DurablePersistFn = Box::new(move |snap| {
        let mut cat = hook_store.load()?;
        cat.insert(
            COLUMN,
            ColumnEntry {
                n: snap.values.len(),
                total_rows: snap.values.iter().sum(),
                synopsis: PersistentSynopsis::from_frequencies(snap.values),
            },
        );
        cat.set_wal_mark(COLUMN, snap.wal_mark);
        hook_store.save(&cat)
    });
    // No persist retries: a failed persist is a failed persist — the crash
    // arrives before any retry would.
    let config =
        RebuildConfig::new(policy).with_persist_retries(0, std::time::Duration::from_micros(1));
    let pool = MaintainedPool::new(1);
    let col = pool
        .add_column_durable(
            COLUMN,
            &values,
            ColumnBuild::Custom(Box::new(builder())),
            config,
            shared,
            &durability,
            generation,
            Some(hook),
        )
        .unwrap();

    let mut shadow = values;
    let mut fired = false;
    let mut in_rebuild = false;
    for (i, d) in stream(updates) {
        let before = faulty.faults_fired();
        let res = col.update(i, d);
        if matches!(res, Ok(true)) {
            col.quiesce(); // let the rebuild, its persist and its checkpoint land
        }
        let fired_now = faulty.faults_fired() > before;
        // A faulted append rejects its update, so a fault under an update
        // that was accepted and scheduled a rebuild hit that rebuild. A
        // visible fault under an accepted update that scheduled nothing
        // would belong to an earlier rebuild still running: the sweep has
        // lost its deterministic write-op order.
        assert!(
            !fired_now || torn || !matches!(res, Ok(false)),
            "{tag} k={k}: fault fired outside this update's append and rebuild"
        );
        in_rebuild |= fired_now && matches!(res, Ok(true));
        match res {
            // A visible failure (Enospc / crash on the append) rejected
            // the update; a torn append "succeeded" for a caller that the
            // power loss took with it. Everything else is acknowledged —
            // even when the fault landed in the persist/checkpoint that
            // this update triggered.
            Ok(_) if !(torn && fired_now) => {
                shadow[i] += d;
            }
            _ => {}
        }
        if fired_now {
            fired = true;
            break; // the simulated kill
        }
    }
    drop(col); // the crash: in-memory state is gone
    drop(pool);

    // A fresh process recovers from the durable state alone.
    let store = DurableCatalog::open(&cat_dir, FsStorage::new()).unwrap();
    let report = recover(&store, &wal_dir)
        .unwrap_or_else(|e| panic!("{tag} k={k}: recovery must succeed, got {e}"));
    let col = report
        .column(COLUMN)
        .unwrap_or_else(|| panic!("{tag} k={k}: column must be recovered"));
    assert_eq!(
        col.values, shadow,
        "{tag} k={k}: recovered state must equal acknowledged state \
         (replayed {} of max_lsn {})",
        col.replayed, col.max_lsn
    );
    let recovered = col.values.clone();
    let _ = std::fs::remove_dir_all(&root);
    (recovered, fired, in_rebuild)
}

/// ENOSPC swept across every write operation: appends, rotations, persist
/// writes, and checkpoint deletes all fail visibly at some `k`.
#[test]
fn enospc_at_every_write_op_preserves_acknowledged_updates() {
    let mut exhausted = false;
    let mut rebuild_faults = 0;
    for k in 0..200 {
        let (_, fired, in_rebuild) = run_crash_scenario(
            "enospc",
            k,
            Fault::Enospc,
            false,
            RebuildPolicy::EveryKUpdates(6),
            24,
        );
        if !fired {
            // The whole run fits in fewer than k operations: every later
            // schedule is identical to the clean run.
            exhausted = true;
            break;
        }
        rebuild_faults += usize::from(in_rebuild);
    }
    assert!(
        exhausted,
        "sweep must extend past the scenario's total write-op count"
    );
    assert!(
        rebuild_faults > 0,
        "some k must fault a persist or checkpoint, not only journal appends"
    );
}

/// Crash-before-rename/append swept across every write operation.
#[test]
fn crash_at_every_write_op_preserves_acknowledged_updates() {
    let mut exhausted = false;
    let mut rebuild_faults = 0;
    for k in 0..200 {
        let (_, fired, in_rebuild) = run_crash_scenario(
            "crash",
            k,
            Fault::CrashBeforeRename,
            false,
            RebuildPolicy::EveryKUpdates(6),
            24,
        );
        if !fired {
            exhausted = true;
            break;
        }
        rebuild_faults += usize::from(in_rebuild);
    }
    assert!(exhausted, "sweep must cover the whole operation stream");
    assert!(
        rebuild_faults > 0,
        "some k must fault a persist or checkpoint, not only journal appends"
    );
}

/// A torn write at every journal append (including segment-creation
/// appends at rotation boundaries, whose headers get torn): the torn
/// record — and only the torn record — is lost.
#[test]
fn torn_append_at_every_position_loses_only_the_torn_record() {
    let mut exhausted = false;
    for k in 0..64 {
        // Manual policy: no rebuilds, so every write op is an append and
        // the torn fault always models power loss mid-append.
        let (_, fired, _) = run_crash_scenario(
            "torn",
            k,
            Fault::TornWrite { keep: 7 },
            true,
            RebuildPolicy::Manual,
            20,
        );
        if !fired {
            exhausted = true;
            break;
        }
    }
    assert!(exhausted, "sweep must cover every append");
}

/// The clean path (no fault ever fires) recovers the full stream, and a
/// second recovery is idempotent.
#[test]
fn clean_run_recovers_everything_and_is_idempotent() {
    let root = tempdir("clean", 0);
    let cat_dir = root.join("cat");
    let wal_dir = root.join("wal");
    let values = initial_values();
    let generation = commit_initial(&cat_dir, &values);
    let shared: SharedStorage = Arc::new(FsStorage::new());
    let durability = DurabilityConfig::journaled(&wal_dir)
        .with_segment_bytes(128)
        .with_fsync(synoptic_catalog::wal::FsyncCadence::OnRotate);
    let hook_store = DurableCatalog::open(&cat_dir, FsStorage::new()).unwrap();
    let hook: DurablePersistFn = Box::new(move |snap| {
        let mut cat = hook_store.load()?;
        cat.insert(
            COLUMN,
            ColumnEntry {
                n: snap.values.len(),
                total_rows: snap.values.iter().sum(),
                synopsis: PersistentSynopsis::from_frequencies(snap.values),
            },
        );
        cat.set_wal_mark(COLUMN, snap.wal_mark);
        hook_store.save(&cat)
    });
    let config = RebuildConfig::new(RebuildPolicy::EveryKUpdates(5));
    let pool = MaintainedPool::new(1);
    let col = pool
        .add_column_durable(
            COLUMN,
            &values,
            ColumnBuild::Custom(Box::new(builder())),
            config,
            shared,
            &durability,
            generation,
            Some(hook),
        )
        .unwrap();
    let mut shadow = values;
    for (i, d) in stream(32) {
        if col.update(i, d).unwrap() {
            col.quiesce();
        }
        shadow[i] += d;
    }
    assert!(col.stats().rebuilds >= 5);
    assert_eq!(col.stats().persist_failures, 0);
    drop(col);
    drop(pool);

    let store = DurableCatalog::open(&cat_dir, FsStorage::new()).unwrap();
    let first = recover(&store, &wal_dir).unwrap();
    assert_eq!(first.column(COLUMN).unwrap().values, shadow);
    // Checkpoints truncated everything the committed snapshot covers, so
    // only the post-checkpoint tail replays.
    assert!(first.total_replayed() <= 5);
    let second = recover(&store, &wal_dir).unwrap();
    assert_eq!(second.column(COLUMN).unwrap().values, shadow);
    let _ = std::fs::remove_dir_all(&root);
}

/// The pool's background workers hit faulted persists and checkpoint
/// deletes, yet every acknowledged update survives recovery: failed
/// persists leave the journal intact, failed deletes leave stale (and
/// skippable) segments.
#[test]
fn pool_survives_background_persist_faults() {
    let root = tempdir("pool", 0);
    let cat_dir = root.join("cat");
    let wal_dir = root.join("wal");
    let values = initial_values();
    let generation = commit_initial(&cat_dir, &values);

    // Appends run on the caller thread *before* updates are acknowledged;
    // persists run on workers. Sprinkling visible failures through the
    // shared write queue therefore hits both — and neither may lose an
    // acknowledged update.
    let mut schedule = Vec::new();
    for burst in 0..12 {
        schedule.extend(std::iter::repeat_n(Fault::CleanWrite, 5));
        schedule.push(if burst % 2 == 0 {
            Fault::Enospc
        } else {
            Fault::CrashBeforeRename
        });
    }
    let faulty = Arc::new(FaultyStorage::new(FsStorage::new(), schedule));
    let shared: SharedStorage = faulty.clone();
    let durability = DurabilityConfig::journaled(&wal_dir)
        .with_segment_bytes(128)
        .with_fsync(synoptic_catalog::wal::FsyncCadence::OnRotate);
    let hook_store = DurableCatalog::open(&cat_dir, Arc::clone(&faulty)).unwrap();
    let hook: DurablePersistFn = Box::new(move |snap| {
        let mut cat = hook_store.load()?;
        cat.insert(
            COLUMN,
            ColumnEntry {
                n: snap.values.len(),
                total_rows: snap.values.iter().sum(),
                synopsis: PersistentSynopsis::from_frequencies(snap.values),
            },
        );
        cat.set_wal_mark(COLUMN, snap.wal_mark);
        hook_store.save(&cat)
    });
    let pool = MaintainedPool::new(1);
    let col = pool
        .add_column_durable(
            COLUMN,
            &values,
            ColumnBuild::Anytime {
                method: synoptic_hist::HistogramMethod::Sap0,
                budget_words: 12,
            },
            RebuildConfig::new(RebuildPolicy::EveryKUpdates(4))
                .with_persist_retries(0, std::time::Duration::from_micros(1)),
            shared,
            &durability,
            generation,
            Some(hook),
        )
        .unwrap();

    let mut shadow = values;
    for (i, d) in stream(64) {
        if col.update(i, d).is_ok() {
            shadow[i] += d;
        }
    }
    col.quiesce();
    assert!(faulty.faults_fired() >= 4, "schedule barely exercised");
    pool.shutdown();

    let store = DurableCatalog::open(&cat_dir, FsStorage::new()).unwrap();
    let report = recover(&store, &wal_dir).unwrap();
    assert_eq!(report.column(COLUMN).unwrap().values, shadow);
    let _ = std::fs::remove_dir_all(&root);
}

//! Crash-point sweep for group-committed update batches.
//!
//! The property under test: **a batch acknowledged before a crash
//! survives recovery whole, and a batch that was not acknowledged leaves
//! no trace — not even a prefix of its records**. Each sweep drives a
//! deterministic stream of 8-delta batches through
//! [`synoptic_stream::ColumnHandle::update_batch`] on a journaled column of
//! a one-worker [`MaintainedPool`] over a [`FaultyStorage`], moving a
//! single terminal fault across *every* write-operation index: batch
//! appends, seal fsyncs, durable persists and checkpoint deletes. As in
//! the single-update recovery sweep, the loop waits for every rebuild a
//! batch scheduled, so the operation order is deterministic.
//!
//! Fault semantics per schedule:
//! * `Enospc` / `CrashBeforeRename` fail *visibly*: a faulted append
//!   rejects its batch, and a faulted persist or delete is absorbed.
//! * `TornWrite` *lies*: the caller sees success but only `keep` bytes of
//!   the batch's append land. Power was lost mid-append, so the batch is
//!   not acknowledged. With `keep` holding whole records but not the
//!   batch's last one, a reader without batch end marks would replay a
//!   prefix of the batch; recovery must drop it whole.

use std::sync::Arc;

use synoptic_catalog::wal::{FsyncCadence, WAL_RECORD_LEN};
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
const BATCH: usize = 8;

fn tempdir(tag: &str, k: usize) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("synoptic-batch-{tag}-{k}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn initial_values() -> Vec<i64> {
    (0..N as i64).map(|i| 10 + (i * 7) % 23).collect()
}

/// A deterministic stream of `count` batches of `BATCH` (position, delta)
/// updates each.
fn batches(count: usize) -> Vec<Vec<(usize, i64)>> {
    let mut s = 0xB47C_u64;
    (0..count)
        .map(|_| {
            (0..BATCH)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    let d = ((s >> 32) % 9) as i64 - 4;
                    ((s % N as u64) as usize, if d == 0 { 5 } else { d })
                })
                .collect()
        })
        .collect()
}

fn builder() -> impl FnMut(&[i64], &PrefixSums, &Budget) -> Result<Box<dyn RangeEstimator>> {
    |_vals: &[i64], ps: &PrefixSums, budget: &Budget| {
        Ok(Box::new(build_sap0_with_budget(ps, 3, budget)?.0) as Box<dyn RangeEstimator>)
    }
}

/// Commits the initial frequencies through a clean handle so the fault
/// schedule indexes only the ingest phase's operations.
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

/// Runs one crash scenario: `k` clean write operations, then `fault` on
/// write op `k`, then the process "dies" at the next batch boundary.
/// Recovery must reproduce the shadow of acknowledged batches exactly.
/// Returns `(fired, in_rebuild)`: whether the fault was reached, and
/// whether it landed in a rebuild's persist or checkpoint rather than in
/// the journal.
///
/// `torn` applies the torn-write ack rule: a batch whose own append tore
/// returned `Ok` to a caller that never lived to see it, so it is *not*
/// acknowledged.
fn run_crash_scenario(
    tag: &str,
    k: usize,
    fault: Fault,
    torn: bool,
    policy: RebuildPolicy,
    count: usize,
) -> (bool, bool) {
    let root = tempdir(tag, k);
    let cat_dir = root.join("cat");
    let wal_dir = root.join("wal");
    let values = initial_values();
    let generation = commit_initial(&cat_dir, &values);

    let mut schedule = vec![Fault::CleanWrite; k];
    schedule.push(fault);
    let faulty = Arc::new(FaultyStorage::new(FsStorage::new(), schedule));
    let shared: SharedStorage = faulty.clone();
    // The torn sweep's ack rule needs every write op to be a batch append,
    // so it syncs every batch (a seal then has nothing left to fsync).
    // The visible-failure sweeps sync once per 12 records, so some seals
    // add their own fsync-only append.
    let cadence = if torn {
        FsyncCadence::EveryRecord
    } else {
        FsyncCadence::EveryN(12)
    };
    let durability = DurabilityConfig::journaled(&wal_dir)
        .with_segment_bytes(2 * BATCH * WAL_RECORD_LEN) // rotate every ~2 batches
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
    for batch in batches(count) {
        let before = faulty.faults_fired();
        let res = col.update_batch(&batch);
        if matches!(res, Ok(true)) {
            col.quiesce(); // let the rebuild, its persist and its checkpoint land
        }
        let fired_now = faulty.faults_fired() > before;
        assert!(
            !fired_now || torn || !matches!(res, Ok(false)),
            "{tag} k={k}: fault fired outside this batch's append and rebuild"
        );
        in_rebuild |= fired_now && matches!(res, Ok(true));
        match res {
            Ok(_) if !(torn && fired_now) => {
                for &(i, d) in &batch {
                    shadow[i] += d;
                }
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

    let store = DurableCatalog::open(&cat_dir, FsStorage::new()).unwrap();
    let report = recover(&store, &wal_dir)
        .unwrap_or_else(|e| panic!("{tag} k={k}: recovery must succeed, got {e}"));
    let col = report
        .column(COLUMN)
        .unwrap_or_else(|| panic!("{tag} k={k}: column must be recovered"));
    assert_eq!(
        col.values, shadow,
        "{tag} k={k}: recovered state must equal the acknowledged batches \
         (replayed {} of max_lsn {})",
        col.replayed, col.max_lsn
    );
    assert_eq!(
        col.max_lsn as usize % BATCH,
        0,
        "{tag} k={k}: the journal must end on a batch boundary"
    );
    let _ = std::fs::remove_dir_all(&root);
    (fired, in_rebuild)
}

/// Sweeps `fault` across every write op until a run never reaches it.
/// Returns the exhaustion index and how many runs faulted a rebuild.
fn sweep(
    tag: &str,
    fault: Fault,
    torn: bool,
    policy: RebuildPolicy,
    count: usize,
) -> (usize, usize) {
    let mut rebuild_faults = 0;
    for k in 0..200 {
        let (fired, in_rebuild) = run_crash_scenario(tag, k, fault.clone(), torn, policy, count);
        if !fired {
            return (k, rebuild_faults);
        }
        rebuild_faults += usize::from(in_rebuild);
    }
    panic!("{tag}: sweep must extend past the scenario's total write-op count");
}

#[test]
fn enospc_at_every_write_op_preserves_acknowledged_batches() {
    let (_, rebuild_faults) = sweep(
        "enospc",
        Fault::Enospc,
        false,
        RebuildPolicy::EveryKUpdates(20),
        9,
    );
    assert!(
        rebuild_faults > 0,
        "some k must fault a persist or checkpoint, not only batch appends"
    );
}

#[test]
fn crash_at_every_write_op_preserves_acknowledged_batches() {
    let (_, rebuild_faults) = sweep(
        "crash",
        Fault::CrashBeforeRename,
        false,
        RebuildPolicy::EveryKUpdates(20),
        9,
    );
    assert!(
        rebuild_faults > 0,
        "some k must fault a persist or checkpoint, not only batch appends"
    );
}

/// A torn write at every batch append — including segment-creating
/// appends, whose headers tear too: the torn batch, and only the torn
/// batch, is lost. `keep` covers a tear inside the first record and a
/// tear that lands seven whole records but not the batch's last one.
#[test]
fn torn_append_at_every_position_loses_only_the_torn_batch() {
    for keep in [7, (BATCH - 1) * WAL_RECORD_LEN] {
        let (appends, _) = sweep(
            &format!("torn{keep}"),
            Fault::TornWrite { keep },
            true,
            RebuildPolicy::Manual,
            6,
        );
        assert_eq!(appends, 6, "keep={keep}: one append per batch");
    }
}

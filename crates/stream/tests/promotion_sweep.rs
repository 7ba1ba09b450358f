//! Kill-the-leader promotion sweep.
//!
//! The replicated extension of the recovery sweep's property: **a
//! follower promoted after the leader dies serves exactly the state the
//! leader acknowledged as replicated — no lost acks, no phantom
//! updates.** Each scenario drives a journaled leader (a column of a
//! one-worker [`MaintainedPool`]) over a [`FaultyStorage`] whose schedule
//! kills it at write operation `k`; after every acknowledged update the
//! leader seals and ships its journal to a live follower over a
//! [`MemTransport`]. When the fault fires, the leader process "dies"
//! mid-whatever-it-was-doing: the transport drops, the follower's serve
//! loop ends, and promotion runs — which is nothing more than the
//! *existing* crash-recovery path over the follower's own journal
//! ([`Follower::open`] calls [`synoptic_stream::recover`]), plus
//! serving.
//!
//! The shadow tracked here is the *replicated* shadow: an update counts
//! only when its append **and** its ship round (segment transfer + ack)
//! both completed. The sweep moves `k` across every write operation the
//! leader performs — WAL appends, rotation appends, persists, checkpoint
//! deletes — until a schedule longer than the whole run fires nothing.

use std::sync::Arc;
use std::time::Duration;

use synoptic_catalog::{
    Catalog, ColumnEntry, DurableCatalog, Fault, FaultyStorage, FsStorage, PersistentSynopsis,
};
use synoptic_core::{Budget, PrefixSums, RangeEstimator, RangeQuery, Result};
use synoptic_hist::sap0::build_sap0_with_budget;
use synoptic_repl::transport::{MemTransport, Transport};
use synoptic_repl::Shipper;
use synoptic_stream::{
    ColumnBuild, DurabilityConfig, FollowConfig, Follower, MaintainedPool, RebuildConfig,
    RebuildPolicy, SharedStorage,
};

const COLUMN: &str = "c";
const N: usize = 16;

fn tempdir(tag: &str, k: usize) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("synoptic-promote-{tag}-{k}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn initial_values() -> Vec<i64> {
    (0..N as i64).map(|i| 10 + (i * 7) % 23).collect()
}

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
        Ok(Box::new(build_sap0_with_budget(ps, 3, budget)?) as Box<dyn RangeEstimator>)
    }
}

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

/// One scenario: the leader runs with `k` clean write ops before `fault`
/// fires, shipping to a live follower after every acknowledged update.
/// When the fault fires the leader dies and the follower is promoted.
/// Returns whether the fault was reached (`false` ends the sweep).
fn run_promotion_scenario(tag: &str, k: usize, fault: Fault, updates: usize) -> bool {
    let root = tempdir(tag, k);
    let leader_cat = root.join("leader-cat");
    let leader_wal = root.join("leader-wal");
    let follower_cat = root.join("follower-cat");
    let follower_wal = root.join("follower-wal");
    let values = initial_values();
    let generation = commit_initial(&leader_cat, &values);
    commit_initial(&follower_cat, &values);

    // The leader's storage carries the kill schedule; the follower's disk
    // is healthy — the disaster under test is losing the leader *node*.
    let mut schedule = vec![Fault::CleanWrite; k];
    schedule.push(fault);
    let faulty = Arc::new(FaultyStorage::new(FsStorage::new(), schedule));
    let shared: SharedStorage = faulty.clone();
    let durability = DurabilityConfig::journaled(&leader_wal)
        .with_segment_bytes(128) // rotate every ~3 records
        .with_fsync(synoptic_catalog::wal::FsyncCadence::OnRotate);
    // Manual policy: no persists/checkpoints, so the leader's journal
    // keeps every segment and the fault schedule indexes appends only.
    let config = RebuildConfig::new(RebuildPolicy::Manual);
    let pool = MaintainedPool::new(1);
    let leader = pool
        .add_column_durable(
            COLUMN,
            &values,
            ColumnBuild::Custom(Box::new(builder())),
            config,
            shared,
            &durability,
            generation,
            None,
        )
        .unwrap();

    let follower_storage: SharedStorage = Arc::new(FsStorage::new());
    let (follower, _) = Follower::open(
        Arc::clone(&follower_storage),
        &follower_cat,
        &follower_wal,
        FollowConfig::default(),
    )
    .unwrap();
    let (mut leader_end, mut follower_end) = MemTransport::pair();
    let serve = std::thread::spawn(move || {
        let mut follower = follower;
        let served = follower.serve(&mut follower_end);
        (follower, served)
    });
    let shipper = Shipper::new(FsStorage::new(), &leader_wal, COLUMN)
        .with_retry(2, Duration::from_millis(1))
        .with_drain_timeout(Duration::from_millis(500));

    // The replicated shadow: an update is *replicated-acknowledged* only
    // when append + seal + ship + ack all completed before the kill.
    let mut shadow = values.clone();
    let mut fired = false;
    for (i, d) in stream(updates) {
        let before = faulty.faults_fired();
        let appended = leader.update(i, d).is_ok();
        if faulty.faults_fired() > before {
            // The leader died inside this update's write op. Whether the
            // append itself survived on the leader's disk is irrelevant to
            // the *replicated* contract: it was never shipped.
            fired = true;
            break;
        }
        if !appended {
            continue;
        }
        // Ship everything sealed so far. Sealing is also a write op on
        // the faulty disk — the kill can land inside it.
        let sealed = {
            let wal = leader.journal().expect("durability enabled");
            let before = faulty.faults_fired();
            let res = wal.seal();
            if faulty.faults_fired() > before {
                fired = true;
                break;
            }
            res.is_ok()
        };
        if !sealed {
            continue;
        }
        let mark = leader.journal().unwrap().pending_mark();
        match shipper.ship(&mut leader_end, mark) {
            Ok(report) if report.acked_lsn >= mark => {
                shadow[i] += d; // replicated-acknowledged
            }
            _ => {}
        }
    }
    // The kill: leader process and its transport vanish.
    drop(leader);
    drop(pool);
    leader_end.close();
    drop(leader_end);

    let (old_follower, served) = serve.join().unwrap();
    served.unwrap_or_else(|e| panic!("{tag} k={k}: follower serve must end cleanly, got {e}"));
    drop(old_follower);

    // Promotion: a fresh process recovers the follower's local durable
    // state — the same code path as single-node crash recovery.
    let (promoted, report) = Follower::open(
        follower_storage,
        &follower_cat,
        &follower_wal,
        FollowConfig::default(),
    )
    .unwrap_or_else(|e| panic!("{tag} k={k}: promotion must succeed, got {e}"));
    let col = report
        .column(COLUMN)
        .unwrap_or_else(|| panic!("{tag} k={k}: column must survive promotion"));
    assert_eq!(
        promoted.values(COLUMN).unwrap(),
        &shadow[..],
        "{tag} k={k}: promoted follower must equal the replicated-acknowledged \
         shadow exactly (replayed {}, max_lsn {})",
        col.replayed,
        col.max_lsn
    );
    // The promoted replica serves immediately, exactly.
    let q = RangeQuery::new(0, N - 1).unwrap();
    assert_eq!(
        promoted.estimate(COLUMN, q).unwrap(),
        shadow.iter().sum::<i64>() as f64
    );
    let _ = std::fs::remove_dir_all(&root);
    fired
}

/// ENOSPC on the leader's disk at every write operation: whatever the
/// leader lost, the promoted follower serves every replicated ack.
#[test]
fn promotion_after_enospc_kill_at_every_write_op() {
    let mut exhausted = false;
    for k in 0..120 {
        if !run_promotion_scenario("enospc", k, Fault::Enospc, 14) {
            exhausted = true;
            break;
        }
    }
    assert!(
        exhausted,
        "sweep must extend past the scenario's total write-op count"
    );
}

/// Power-loss-style kill (crash before rename/append) at every write
/// operation.
#[test]
fn promotion_after_crash_kill_at_every_write_op() {
    let mut exhausted = false;
    for k in 0..120 {
        if !run_promotion_scenario("crash", k, Fault::CrashBeforeRename, 14) {
            exhausted = true;
            break;
        }
    }
    assert!(exhausted, "sweep must cover the whole operation stream");
}

/// A torn append at every position: the leader's own journal tore, but
/// the follower only ever saw validated, sealed bytes — the promoted
/// state still equals the replicated shadow.
#[test]
fn promotion_after_torn_append_at_every_position() {
    let mut exhausted = false;
    for k in 0..120 {
        if !run_promotion_scenario("torn", k, Fault::TornWrite { keep: 7 }, 14) {
            exhausted = true;
            break;
        }
    }
    assert!(exhausted, "sweep must cover every append");
}

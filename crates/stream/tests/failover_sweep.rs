//! Crash-tested automated failover: the election-layer extension of the
//! promotion sweep.
//!
//! Each scenario runs a term-stamped leader (claim handshake, then
//! term-1 frames) against a follower serving under
//! [`Follower::serve_with_lease`] on a shared [`ManualClock`] — all
//! lease arithmetic is clock ticks, never wall time. The leader is a
//! journaled column of a one-worker [`MaintainedPool`] under a manual
//! rebuild policy. It is then killed at index `k`, swept across every
//! index the scenario has:
//!
//! * **storage kills** — a [`FaultyStorage`] schedule fires ENOSPC /
//!   crash-before-rename / torn-write inside the leader's `k`-th write
//!   operation (append, rotation, seal), exactly like the promotion
//!   sweep;
//! * **partitions** — the link goes permanently dark after round `k`
//!   (one round = one heartbeat probe + that update's segments), the
//!   leader still alive but unreachable.
//!
//! After every kill the same end-to-end contract is asserted:
//!
//! 1. the follower's lease expires on the clock and the serve loop
//!    reports [`ServeOutcome::LeaseExpired`] — never a hang, never a
//!    silent exit;
//! 2. promotion ([`promote`]) recovers the follower's local files and
//!    claims term 2; the promoted state equals the
//!    *replicated-acknowledged* shadow exactly and serves immediately;
//! 3. the ex-leader, still on term 1, is fenced: its probe comes back
//!    [`SynopticError::StaleLeaderTerm`] with both terms, and the
//!    refusal is recorded on the replica with provenance;
//! 4. at most one node holds any term: rival claims on the granted term
//!    are refused by every durable ledger;
//! 5. (partition scenarios) the fenced ex-leader is re-seeded from the
//!    new leader ([`Seeder`] → [`rejoin`]) into fresh directories and
//!    converges to exactly the promoted state.

use std::sync::Arc;
use std::time::Duration;

use synoptic_catalog::{
    Catalog, ColumnEntry, DurableCatalog, Fault, FaultyStorage, FsStorage, PersistentSynopsis,
};
use synoptic_core::{Budget, PrefixSums, RangeEstimator, RangeQuery, Result, SynopticError};
use synoptic_hist::sap0::build_sap0_with_budget;
use synoptic_repl::election::{ManualClock, Seeder, TermLedger};
use synoptic_repl::transport::{MemTransport, Received, Transport};
use synoptic_repl::wire::{decode_frame, encode_frame, Frame};
use synoptic_repl::Shipper;
use synoptic_stream::{
    promote, rejoin, ColumnBuild, DurabilityConfig, FollowConfig, Follower, MaintainedPool,
    RebuildConfig, RebuildPolicy, ServeOutcome, SharedStorage,
};

const COLUMN: &str = "c";
const N: usize = 16;
const LEADER_NODE: u64 = 10;
const PROMOTED_NODE: u64 = 20;
const TTL: u64 = 10;

fn tempdir(tag: &str, k: usize) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "synoptic-failover-{tag}-{k}-{}",
        std::process::id()
    ));
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

/// How the leader dies at index `k`.
enum Kill {
    /// The leader's disk fails inside its `k`-th write operation.
    Storage(Fault),
    /// The link goes permanently dark after round `k`; the leader node
    /// survives, unreachable.
    Partition,
}

/// One scenario. Returns whether the kill was actually reached (`false`
/// ends the sweep: `k` walked past everything the scenario does).
fn run_failover_scenario(tag: &str, k: usize, kill: Kill, updates: usize) -> bool {
    let root = tempdir(tag, k);
    let leader_cat = root.join("leader-cat");
    let leader_wal = root.join("leader-wal");
    let follower_cat = root.join("follower-cat");
    let follower_wal = root.join("follower-wal");
    let values = initial_values();
    let generation = commit_initial(&leader_cat, &values);
    commit_initial(&follower_cat, &values);

    // The leader claims term 1 on its own durable ledger before serving.
    let ledger = TermLedger::open(&leader_cat, FsStorage::new()).unwrap();
    ledger.claim(1, LEADER_NODE).unwrap();
    drop(ledger);

    // Only a Storage kill poisons the leader's disk; the follower's disk
    // is always healthy — the disaster under test is losing the leader.
    let schedule = match &kill {
        Kill::Storage(fault) => {
            let mut s = vec![Fault::CleanWrite; k];
            s.push(fault.clone());
            s
        }
        Kill::Partition => Vec::new(),
    };
    let faulty = Arc::new(FaultyStorage::new(FsStorage::new(), schedule));
    let shared: SharedStorage = faulty.clone();
    let durability = DurabilityConfig::journaled(&leader_wal)
        .with_segment_bytes(128) // rotate every ~3 records
        .with_fsync(synoptic_catalog::wal::FsyncCadence::OnRotate);
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

    let clock = ManualClock::new();
    let follower_storage: SharedStorage = Arc::new(FsStorage::new());
    let (follower, _) = Follower::open(
        Arc::clone(&follower_storage),
        &follower_cat,
        &follower_wal,
        FollowConfig::default(),
    )
    .unwrap();
    let (mut leader_end, mut follower_end) = MemTransport::pair();
    let serve_clock = clock.clone();
    let serve = std::thread::spawn(move || {
        let mut follower = follower;
        let outcome = follower.serve_with_lease(
            &mut follower_end,
            &serve_clock,
            TTL,
            Duration::from_millis(1),
        );
        (follower, outcome)
    });

    // The claim handshake: the follower persists its grant of term 1
    // before the grant travels.
    leader_end
        .send(&encode_frame(&Frame::Claim {
            term: 1,
            node: LEADER_NODE,
        }))
        .unwrap();
    match leader_end.recv(Some(Duration::from_millis(2000))).unwrap() {
        Received::Frame(bytes) => assert_eq!(
            decode_frame(&bytes).unwrap(),
            Frame::Grant {
                term: 1,
                node: LEADER_NODE
            },
            "{tag} k={k}"
        ),
        other => panic!("{tag} k={k}: expected the grant, got {other:?}"),
    }

    let shipper = Shipper::new(FsStorage::new(), &leader_wal, COLUMN)
        .with_term(1)
        .with_retry(2, Duration::from_millis(1))
        .with_drain_timeout(Duration::from_millis(500));

    // The replicated shadow: an update counts only when its append, seal,
    // ship and cumulative ack all completed before the kill. One round =
    // one update = one clock tick; the lease renews on every round's
    // frames, so it never expires while the leader lives.
    let mut shadow = values.clone();
    let mut fired = false;
    for (round, (i, d)) in stream(updates).into_iter().enumerate() {
        if matches!(kill, Kill::Partition) && round == k {
            fired = true;
            break; // the link goes dark mid-lease; the leader lives on
        }
        clock.tick();
        let before = faulty.faults_fired();
        let appended = leader.update(i, d).is_ok();
        if faulty.faults_fired() > before {
            fired = true;
            break; // the leader died inside this write op
        }
        if !appended {
            continue;
        }
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

    if !fired {
        // The sweep walked past everything this scenario does: the
        // leader survived, close down cleanly and report exhaustion.
        leader_end.close();
        let (_follower, outcome) = serve.join().unwrap();
        assert_eq!(outcome.unwrap(), ServeOutcome::LeaderClosed, "{tag} k={k}");
        let _ = std::fs::remove_dir_all(&root);
        return false;
    }

    // 1. Detection: the leader is gone (or unreachable) but the link was
    // never closed — only the clock passing TTL without a renewal ends
    // the session. Tick until the serve loop notices; however late its
    // lease was armed, no further frame ever renews it.
    while !serve.is_finished() {
        clock.advance(1);
        std::thread::sleep(Duration::from_millis(1));
    }
    let (dead_session, outcome) = serve.join().unwrap();
    assert_eq!(
        outcome.unwrap_or_else(|e| panic!("{tag} k={k}: serve errored: {e}")),
        ServeOutcome::LeaseExpired,
        "{tag} k={k}: a silent leader must expire the lease, not close the session"
    );
    drop(dead_session);

    // 2. Promotion: recovery over the follower's own files plus a
    // durable claim of term 2, serving exactly the replicated-
    // acknowledged shadow.
    let (term, report) = promote(
        Arc::clone(&follower_storage),
        &follower_cat,
        &follower_wal,
        PROMOTED_NODE,
    )
    .unwrap_or_else(|e| panic!("{tag} k={k}: promotion must succeed, got {e}"));
    assert_eq!(term, 2, "{tag} k={k}: the grant made term 1 durable");
    assert_eq!(
        report.column(COLUMN).unwrap().values,
        shadow,
        "{tag} k={k}: promoted state must equal the replicated-acknowledged shadow"
    );
    let (promoted, _) = Follower::open(
        Arc::clone(&follower_storage),
        &follower_cat,
        &follower_wal,
        FollowConfig::default(),
    )
    .unwrap();
    assert_eq!(promoted.term(), 2, "{tag} k={k}");
    let q = RangeQuery::new(0, N - 1).unwrap();
    assert_eq!(
        promoted.estimate(COLUMN, q).unwrap(),
        shadow.iter().sum::<i64>() as f64,
        "{tag} k={k}: the promoted replica serves the first read exactly"
    );

    // 3. Fencing: every post-promotion write from the deposed term-1
    // leader is refused with term provenance. The probe path turns the
    // refusal into the typed fencing error.
    let mut promoted = promoted;
    let hb = encode_frame(&Frame::Heartbeat {
        term: 1,
        column: COLUMN.into(),
        leader_mark: 0,
    });
    match decode_frame(&promoted.handle(&hb)).unwrap() {
        Frame::Refuse { term, reason, .. } => {
            assert_eq!(term, 2, "{tag} k={k}: the refusal names the current term");
            assert!(reason.contains("fenced"), "{tag} k={k}: {reason}");
            assert!(
                reason.contains("term 1") && reason.contains("term 2"),
                "{tag} k={k}: {reason}"
            );
        }
        other => panic!("{tag} k={k}: stale leader must be refused, got {other:?}"),
    }
    assert!(
        promoted.refusals().iter().any(|r| r.contains("fenced")),
        "{tag} k={k}: the fencing verdict must be recorded: {:?}",
        promoted.refusals()
    );

    // 4. At most one claimant per term, durably: rival claims on the
    // granted terms are refused by the promoted node's ledger.
    let promoted_ledger = TermLedger::open(&follower_cat, FsStorage::new()).unwrap();
    assert_eq!(
        promoted_ledger.current().unwrap(),
        (2, Some(PROMOTED_NODE)),
        "{tag} k={k}"
    );
    assert_eq!(
        promoted_ledger.claim(2, 99).unwrap_err(),
        SynopticError::StaleLeaderTerm {
            stale_term: 2,
            current_term: 2
        },
        "{tag} k={k}: term 2 is granted exactly once"
    );
    assert!(promoted_ledger.claim(1, 99).is_err(), "{tag} k={k}");

    // 5. Re-seed (partition kills: the ex-leader node survives and must
    // come back): the new leader streams its committed snapshot plus the
    // journal tail; the fenced ex-leader rejoins as a follower in fresh
    // directories and converges to exactly the promoted state.
    if matches!(kill, Kill::Partition) {
        // End-to-end fencing first: the surviving ex-leader's own
        // shipper learns it was deposed.
        drop(leader);
        drop(pool);
        let (fenced_end, promoted_end) = MemTransport::pair();
        let fence_serve = std::thread::spawn(move || {
            let mut promoted = promoted;
            let mut transport = promoted_end;
            let served = promoted.serve(&mut transport);
            (promoted, served)
        });
        let stale = Shipper::new(FsStorage::new(), &leader_wal, COLUMN)
            .with_term(1)
            .with_retry(2, Duration::from_millis(1))
            .with_drain_timeout(Duration::from_millis(500));
        let mut fenced_end: Box<dyn Transport> = Box::new(fenced_end);
        let err = stale.ship(fenced_end.as_mut(), 1).unwrap_err();
        assert_eq!(
            err,
            SynopticError::StaleLeaderTerm {
                stale_term: 1,
                current_term: 2
            },
            "{tag} k={k}: the deposed leader's own shipping path is fenced"
        );
        fenced_end.close();
        let (_promoted, served) = fence_serve.join().unwrap();
        served.unwrap_or_else(|e| panic!("{tag} k={k}: {e}"));

        // The ex-leader discards its diverged directories and rejoins.
        let rejoin_cat = root.join("rejoin-cat");
        let rejoin_wal = root.join("rejoin-wal");
        let (mut seed_end, rejoin_end) = MemTransport::pair();
        let (rx_cat, rx_wal) = (rejoin_cat.clone(), rejoin_wal.clone());
        let receiver = std::thread::spawn(move || {
            let storage: SharedStorage = Arc::new(FsStorage::new());
            let mut transport = rejoin_end;
            let (mut follower, _) = rejoin(
                storage,
                &rx_cat,
                &rx_wal,
                FollowConfig::default(),
                &mut transport,
            )
            .unwrap();
            let served = follower.serve(&mut transport);
            (follower, served)
        });
        let seeder = Seeder::new(
            FsStorage::new(),
            &follower_cat,
            &follower_wal,
            2,
            PROMOTED_NODE,
        )
        .with_timeout(Duration::from_millis(2000));
        let seed_report = seeder
            .seed(&mut seed_end)
            .unwrap_or_else(|e| panic!("{tag} k={k}: seed failed: {e}"));
        assert_eq!(seed_report.snapshots, 1, "{tag} k={k}");
        seed_end.close();
        let (rejoined, served) = receiver.join().unwrap();
        served.unwrap_or_else(|e| panic!("{tag} k={k}: rejoin serve failed: {e}"));
        assert_eq!(
            rejoined.values(COLUMN).unwrap(),
            &shadow[..],
            "{tag} k={k}: the re-seeded node converges to the promoted state"
        );
        assert_eq!(rejoined.term(), 2, "{tag} k={k}");
        let rejoined_ledger = TermLedger::open(&rejoin_cat, FsStorage::new()).unwrap();
        assert_eq!(
            rejoined_ledger.current().unwrap(),
            (2, Some(PROMOTED_NODE)),
            "{tag} k={k}"
        );
        assert!(
            rejoined_ledger.claim(2, 99).is_err(),
            "{tag} k={k}: the rejoined node also refuses rival claims on term 2"
        );
    }

    let _ = std::fs::remove_dir_all(&root);
    true
}

/// ENOSPC inside every write operation of the leader: detection,
/// promotion, fencing, and single-claimant all hold at every index.
#[test]
fn failover_after_enospc_kill_at_every_write_op() {
    let mut exhausted = false;
    for k in 0..120 {
        if !run_failover_scenario("enospc", k, Kill::Storage(Fault::Enospc), 14) {
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
fn failover_after_crash_kill_at_every_write_op() {
    let mut exhausted = false;
    for k in 0..120 {
        if !run_failover_scenario("crash", k, Kill::Storage(Fault::CrashBeforeRename), 14) {
            exhausted = true;
            break;
        }
    }
    assert!(exhausted, "sweep must cover the whole operation stream");
}

/// The link goes permanently dark after every round (one heartbeat
/// probe plus that round's segments): the surviving-but-unreachable
/// leader is deposed, fenced end-to-end through its own shipper, and
/// re-seeded back in as a follower.
#[test]
fn failover_after_partition_at_every_round() {
    let mut exhausted = false;
    for k in 0..40 {
        if !run_failover_scenario("partition", k, Kill::Partition, 14) {
            exhausted = true;
            break;
        }
    }
    assert!(exhausted, "sweep must cover every replication round");
}

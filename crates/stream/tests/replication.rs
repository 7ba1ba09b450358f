//! Integration tests for the replication path: leader-side segment
//! shipping ([`synoptic_repl::Shipper`]) feeding a follower
//! ([`synoptic_stream::Follower`]) across in-memory and fault-injecting
//! transports.
//!
//! The contract under test is the same one the recovery sweep enforces
//! on a single node, extended across a wire: **a follower either
//! converges to exactly the leader's acknowledged state, or refuses with
//! a recorded reason — it never silently diverges.** Every refusal path
//! the follower owns is driven here: non-anchoring segments, CRC-corrupt
//! records mid-stream, torn segment transfers, duplicate replay (which
//! must be idempotent, not refused), and lag-bounded reads.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use synoptic_catalog::wal::{scan_journals, ColumnWal, FsyncCadence, WalConfig};
use synoptic_catalog::{Catalog, DurableCatalog, FsStorage};
use synoptic_core::{RangeQuery, SynopticError};
use synoptic_repl::election::{ManualClock, Seeder, TermLedger};
use synoptic_repl::transport::{
    FaultyTransport, MemTransport, Received, Transport, TransportFault,
};
use synoptic_repl::wire::{decode_frame, encode_frame, Frame};
use synoptic_repl::Shipper;
use synoptic_stream::{promote, rejoin, FollowConfig, Follower, ServeOutcome, SharedStorage};

const COLUMN: &str = "c";
const N: usize = 16;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "synoptic-repl-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn initial_values() -> Vec<i64> {
    (0..N as i64).map(|i| 10 + (i * 7) % 23).collect()
}

/// Deterministic update stream, same shape as the recovery sweep's.
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

fn commit_initial(cat_dir: &Path, values: &[i64]) -> u64 {
    let store = DurableCatalog::open(cat_dir, FsStorage::new()).unwrap();
    let mut cat = Catalog::new();
    cat.insert_exact(COLUMN, values, 0).unwrap();
    store.save(&cat).unwrap()
}

/// A leader: committed catalog + journal that appends `updates` and seals
/// everything. Returns `(wal_dir, shadow, pending_mark)`.
fn build_leader(root: &Path, updates: usize) -> (PathBuf, Vec<i64>, u64) {
    let cat_dir = root.join("leader-cat");
    let wal_dir = root.join("leader-wal");
    let values = initial_values();
    let generation = commit_initial(&cat_dir, &values);
    let wal = ColumnWal::open(
        FsStorage::new(),
        &wal_dir,
        COLUMN,
        generation,
        WalConfig {
            segment_bytes: 128, // ~3 records per segment
            fsync: FsyncCadence::OnRotate,
        },
    )
    .unwrap();
    let mut shadow = values;
    for (i, d) in stream(updates) {
        wal.append(i as u64, d).unwrap();
        shadow[i] += d;
    }
    wal.seal().unwrap();
    let mark = wal.pending_mark();
    (wal_dir, shadow, mark)
}

/// A follower bootstrapped from its own committed catalog and an empty
/// local journal.
fn build_follower(root: &Path, config: FollowConfig) -> Follower {
    let cat_dir = root.join("follower-cat");
    let wal_dir = root.join("follower-wal");
    commit_initial(&cat_dir, &initial_values());
    let storage: SharedStorage = Arc::new(FsStorage::new());
    let (follower, _report) = Follower::open(storage, &cat_dir, wal_dir, config).unwrap();
    follower
}

/// Runs the follower's serve loop on its own thread until the leader
/// closes the link, returning the follower for inspection.
fn serve_in_thread(
    mut follower: Follower,
    mut transport: MemTransport,
) -> std::thread::JoinHandle<(Follower, Result<(), SynopticError>)> {
    std::thread::spawn(move || {
        let served = follower.serve(&mut transport);
        (follower, served)
    })
}

/// Reads the leader's sealed segments in LSN order as raw file bytes.
fn leader_segments(wal_dir: &Path) -> Vec<(u64, Vec<u8>)> {
    let storage = FsStorage::new();
    scan_journals(&storage, wal_dir)
        .unwrap()
        .into_values()
        .flat_map(|scan| scan.segments)
        .map(|(s, _)| (s.seq, std::fs::read(wal_dir.join(&s.file)).unwrap()))
        .collect()
}

fn total(q_values: &[i64]) -> f64 {
    q_values.iter().sum::<i64>() as f64
}

/// Clean transport: shipping converges, the replica's values and its
/// lag-free estimates equal the leader's acknowledged state exactly.
#[test]
fn shipped_segments_converge_to_leader_state() {
    let root = tempdir("clean");
    let (wal_dir, shadow, mark) = build_leader(&root, 20);
    let follower = build_follower(&root, FollowConfig::default());

    let (mut leader_end, follower_end) = MemTransport::pair();
    let handle = serve_in_thread(follower, follower_end);

    let shipper = Shipper::new(FsStorage::new(), &wal_dir, COLUMN);
    let report = shipper.ship(&mut leader_end, mark).unwrap();
    assert_eq!(report.acked_lsn, mark, "every sealed record must be acked");
    assert!(report.shipped > 0);
    assert!(report.refusals.is_empty(), "{:?}", report.refusals);

    leader_end.close();
    let (follower, served) = handle.join().unwrap();
    served.unwrap();
    assert_eq!(follower.values(COLUMN).unwrap(), &shadow[..]);
    assert_eq!(follower.applied_lsn(COLUMN), Some(mark));
    assert_eq!(follower.lag(COLUMN), Some(0));
    let q = RangeQuery::new(0, N - 1).unwrap();
    assert_eq!(follower.estimate(COLUMN, q).unwrap(), total(&shadow));
    assert!(follower.refusals().is_empty(), "{:?}", follower.refusals());
    let _ = std::fs::remove_dir_all(&root);
}

/// Replica reads are exact range sums over the applied frequencies, and a
/// range past the column's end is refused, never a panic.
#[test]
fn replica_reads_are_exact_range_sums_and_refuse_past_the_end() {
    let root = tempdir("bounds");
    let follower = build_follower(&root, FollowConfig::default());
    let values = initial_values();
    for q in RangeQuery::all(N) {
        let exact: i64 = values[q.lo..=q.hi].iter().sum();
        assert_eq!(follower.estimate(COLUMN, q).unwrap(), exact as f64);
    }
    assert_eq!(
        follower.estimate(COLUMN, RangeQuery::new(3, N).unwrap()),
        Err(SynopticError::IndexOutOfBounds { index: N, n: N })
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Shipping twice is incremental and idempotent: the second ship finds
/// the follower already at the watermark and re-ships nothing.
#[test]
fn reshipping_an_up_to_date_follower_ships_nothing() {
    let root = tempdir("reship");
    let (wal_dir, shadow, mark) = build_leader(&root, 12);
    let follower = build_follower(&root, FollowConfig::default());

    let (mut leader_end, follower_end) = MemTransport::pair();
    let handle = serve_in_thread(follower, follower_end);

    let shipper = Shipper::new(FsStorage::new(), &wal_dir, COLUMN);
    let first = shipper.ship(&mut leader_end, mark).unwrap();
    assert!(first.shipped > 0);
    let second = shipper.ship(&mut leader_end, mark).unwrap();
    assert_eq!(second.shipped, 0, "second ship must be incremental");
    assert_eq!(second.acked_lsn, mark);

    leader_end.close();
    let (follower, served) = handle.join().unwrap();
    served.unwrap();
    assert_eq!(follower.values(COLUMN).unwrap(), &shadow[..]);
    let _ = std::fs::remove_dir_all(&root);
}

/// The full fault menu on the wire — dropped frames, a torn mid-record
/// transfer, duplicated segments, reordering — and the follower still
/// converges to exactly the leader's state, refusing (loudly, with
/// recorded reasons) rather than applying anything invalid.
#[test]
fn faulty_transport_converges_to_exact_leader_state() {
    let root = tempdir("faulty");
    let (wal_dir, shadow, mark) = build_leader(&root, 24);
    let follower = build_follower(&root, FollowConfig::default());

    let (leader_end, follower_end) = MemTransport::pair();
    let schedule = vec![
        TransportFault::Drop,
        TransportFault::Clean,
        TransportFault::Torn { keep: 13 },
        TransportFault::Reorder,
        TransportFault::Clean,
        TransportFault::Duplicate,
        TransportFault::Drop,
    ];
    let fault_count = schedule
        .iter()
        .filter(|f| !matches!(f, TransportFault::Clean))
        .count();
    let mut faulty = FaultyTransport::new(leader_end, schedule);
    let handle = serve_in_thread(follower, follower_end);

    let shipper = Shipper::new(FsStorage::new(), &wal_dir, COLUMN)
        .with_retry(8, Duration::from_millis(2))
        .with_drain_timeout(Duration::from_millis(100));
    let report = match shipper.ship(&mut faulty, mark) {
        Ok(r) => r,
        Err(e) => {
            let (f, served) = handle.join().unwrap();
            panic!(
                "ship failed: {e}; served={served:?}; refusals={:?}",
                f.refusals()
            );
        }
    };
    assert_eq!(report.acked_lsn, mark, "must converge despite faults");
    assert_eq!(
        faulty.faults_fired(),
        fault_count,
        "every scheduled fault must actually fire"
    );

    faulty.close();
    let (follower, served) = handle.join().unwrap();
    served.unwrap();
    assert_eq!(
        follower.values(COLUMN).unwrap(),
        &shadow[..],
        "converge-or-refuse: the converged state must be exact"
    );
    // The torn transfer must have been noticed, not swallowed.
    assert!(
        follower.refusals().iter().any(|r| r.contains("<frame>")),
        "torn frame must be recorded as a refusal: {:?}",
        follower.refusals()
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A segment that skips ahead of the applied mark parks in the reorder
/// window; with the window disabled it is refused immediately, with the
/// expected and actual LSNs in the reason.
#[test]
fn non_anchoring_segment_is_refused_when_window_disabled() {
    let root = tempdir("anchor");
    let (wal_dir, _shadow, mark) = build_leader(&root, 9);
    let mut follower = build_follower(
        &root,
        FollowConfig {
            max_lag: None,
            reorder_window: 0,
            checkpoint_segments: None,
        },
    );

    let segments = leader_segments(&wal_dir);
    assert!(segments.len() >= 2, "need at least two sealed segments");
    // Skip the first segment: the second cannot anchor at LSN 0.
    let (seq, bytes) = segments.last().unwrap().clone();
    let response = follower.handle(&encode_frame(&Frame::Segment {
        term: 0,
        column: COLUMN.into(),
        seq,
        leader_mark: mark,
        bytes,
    }));
    match decode_frame(&response).unwrap() {
        Frame::Refuse {
            column,
            applied_lsn,
            reason,
            ..
        } => {
            assert_eq!(column, COLUMN);
            assert_eq!(applied_lsn, 0, "nothing may have been applied");
            assert!(reason.contains("does not anchor"), "{reason}");
            assert!(reason.contains("LSN"), "{reason}");
        }
        other => panic!("expected a refusal, got {other:?}"),
    }
    assert_eq!(follower.values(COLUMN).unwrap(), &initial_values()[..]);
    assert_eq!(follower.refusals().len(), 1);
    let _ = std::fs::remove_dir_all(&root);
}

/// A shipped delta that would move a committed cell outside `i64` is
/// refused with one `Refuse` frame naming the record: nothing is
/// journaled, the applied mark and the values stay where they were.
#[test]
fn a_delta_past_i64_is_refused_before_journaling() {
    let root = tempdir("wrap");
    let mut values = vec![0i64; N];
    values[3] = i64::MAX - 1;
    let follower_cat = root.join("follower-cat");
    let follower_wal = root.join("follower-wal");
    commit_initial(&follower_cat, &values);
    let storage: SharedStorage = Arc::new(FsStorage::new());
    let (mut follower, _) = Follower::open(
        storage,
        &follower_cat,
        follower_wal.clone(),
        FollowConfig::default(),
    )
    .unwrap();

    let leader_wal = root.join("leader-wal");
    let generation = commit_initial(&root.join("leader-cat"), &values);
    let wal = ColumnWal::open(
        FsStorage::new(),
        &leader_wal,
        COLUMN,
        generation,
        WalConfig::default(),
    )
    .unwrap();
    wal.append(0, 1).unwrap();
    wal.append(3, 5).unwrap();
    wal.seal().unwrap();
    let journaled = |dir: &Path| std::fs::read_dir(dir).map(|d| d.count()).unwrap_or(0);
    let before = journaled(&follower_wal);

    let (seq, bytes) = leader_segments(&leader_wal)[0].clone();
    let response = follower.handle(&encode_frame(&Frame::Segment {
        term: 0,
        column: COLUMN.into(),
        seq,
        leader_mark: wal.pending_mark(),
        bytes,
    }));
    match decode_frame(&response).unwrap() {
        Frame::Refuse {
            column,
            applied_lsn,
            reason,
            ..
        } => {
            assert_eq!(column, COLUMN);
            assert_eq!(applied_lsn, 0, "nothing may have been applied");
            assert!(reason.contains("lsn 2"), "{reason}");
            assert!(reason.contains("index 3"), "{reason}");
            assert!(reason.contains("i64"), "{reason}");
        }
        other => panic!("expected a refusal, got {other:?}"),
    }
    assert_eq!(follower.values(COLUMN).unwrap(), &values[..]);
    assert_eq!(follower.applied_lsn(COLUMN), Some(0));
    assert_eq!(journaled(&follower_wal), before, "nothing may be journaled");
    let _ = std::fs::remove_dir_all(&root);
}

/// A CRC-corrupt record mid-stream: the whole segment is refused before
/// anything is applied, and a pristine retry of the same segment then
/// applies cleanly — corruption costs a retry, never integrity.
#[test]
fn crc_corrupt_record_mid_stream_is_refused_then_retried() {
    let root = tempdir("crc");
    let (wal_dir, _shadow, mark) = build_leader(&root, 5);
    let mut follower = build_follower(&root, FollowConfig::default());

    let segments = leader_segments(&wal_dir);
    let (seq, pristine) = segments[0].clone();
    let mut corrupt = pristine.clone();
    // Flip one bit inside the final record's delta so the failure sits
    // mid-stream, after records that validate.
    let at = pristine.len() - 12;
    corrupt[at] ^= 0x40;
    let response = follower.handle(&encode_frame(&Frame::Segment {
        term: 0,
        column: COLUMN.into(),
        seq,
        leader_mark: mark,
        bytes: corrupt,
    }));
    match decode_frame(&response).unwrap() {
        Frame::Refuse { reason, .. } => {
            assert!(reason.contains("corrupt shipped segment"), "{reason}")
        }
        other => panic!("expected a refusal, got {other:?}"),
    }
    assert_eq!(
        follower.values(COLUMN).unwrap(),
        &initial_values()[..],
        "a refused segment must not be partially applied"
    );

    // The leader's retry ladder re-ships the same bytes intact.
    let response = follower.handle(&encode_frame(&Frame::Segment {
        term: 0,
        column: COLUMN.into(),
        seq,
        leader_mark: mark,
        bytes: pristine,
    }));
    match decode_frame(&response).unwrap() {
        Frame::Ack { applied_lsn, .. } => assert!(applied_lsn > 0),
        other => panic!("expected an ack, got {other:?}"),
    }
    let mut expect = initial_values();
    for (i, d) in stream(5)
        .into_iter()
        .take(follower.applied_lsn(COLUMN).unwrap() as usize)
    {
        expect[i] += d;
    }
    assert_eq!(follower.values(COLUMN).unwrap(), &expect[..]);
    let _ = std::fs::remove_dir_all(&root);
}

/// A segment truncated mid-record inside a valid frame (the transfer
/// tore, the frame CRC was recomputed by a hypothetical buggy relay) is
/// refused as torn — the follower never journals a prefix.
#[test]
fn torn_segment_transfer_is_refused() {
    let root = tempdir("torn-seg");
    let (wal_dir, _shadow, mark) = build_leader(&root, 5);
    let mut follower = build_follower(&root, FollowConfig::default());

    let (seq, pristine) = leader_segments(&wal_dir)[0].clone();
    let torn = pristine[..pristine.len() - 11].to_vec();
    let response = follower.handle(&encode_frame(&Frame::Segment {
        term: 0,
        column: COLUMN.into(),
        seq,
        leader_mark: mark,
        bytes: torn,
    }));
    match decode_frame(&response).unwrap() {
        Frame::Refuse { reason, .. } => {
            assert!(reason.contains("torn segment transfer"), "{reason}")
        }
        other => panic!("expected a refusal, got {other:?}"),
    }
    assert_eq!(follower.applied_lsn(COLUMN), Some(0));
    let _ = std::fs::remove_dir_all(&root);
}

/// Replaying an already-applied segment is idempotent: same ack, same
/// values, no double-application of deltas.
#[test]
fn duplicate_segment_replay_is_idempotent() {
    let root = tempdir("dup");
    let (wal_dir, _shadow, mark) = build_leader(&root, 6);
    let mut follower = build_follower(&root, FollowConfig::default());

    let (seq, bytes) = leader_segments(&wal_dir)[0].clone();
    let frame = encode_frame(&Frame::Segment {
        term: 0,
        column: COLUMN.into(),
        seq,
        leader_mark: mark,
        bytes,
    });
    let first = decode_frame(&follower.handle(&frame)).unwrap();
    let after_first = follower.values(COLUMN).unwrap().to_vec();
    let second = decode_frame(&follower.handle(&frame)).unwrap();
    assert_eq!(first, second, "duplicate replay must re-ack identically");
    assert_eq!(follower.values(COLUMN).unwrap(), &after_first[..]);
    assert!(follower.refusals().is_empty());
    let _ = std::fs::remove_dir_all(&root);
}

/// Reads past the configured lag bound are refused with full provenance
/// (column, observed lag, bound), and start serving again the moment the
/// replica catches up.
#[test]
fn reads_beyond_max_lag_are_refused_with_provenance() {
    let root = tempdir("lag");
    let (wal_dir, shadow, mark) = build_leader(&root, 10);
    let mut follower = build_follower(
        &root,
        FollowConfig {
            max_lag: Some(2),
            reorder_window: 8,
            checkpoint_segments: None,
        },
    );
    let q = RangeQuery::new(0, N - 1).unwrap();

    // Fresh replica, no leader contact yet: lag is 0, reads flow.
    assert!(follower.estimate(COLUMN, q).is_ok());

    // A heartbeat reveals the leader is `mark` ahead: reads refuse.
    follower.handle(&encode_frame(&Frame::Heartbeat {
        term: 0,
        column: COLUMN.into(),
        leader_mark: mark,
    }));
    match follower.estimate(COLUMN, q) {
        Err(SynopticError::ReplicationLagExceeded {
            column,
            lag,
            max_lag,
        }) => {
            assert_eq!(column, COLUMN);
            assert_eq!(lag, mark);
            assert_eq!(max_lag, 2);
        }
        other => panic!("expected a lag refusal, got {other:?}"),
    }

    // Catch up over the wire; reads flow again and are exact.
    for (seq, bytes) in leader_segments(&wal_dir) {
        follower.handle(&encode_frame(&Frame::Segment {
            term: 0,
            column: COLUMN.into(),
            seq,
            leader_mark: mark,
            bytes,
        }));
    }
    assert_eq!(follower.lag(COLUMN), Some(0));
    assert_eq!(follower.estimate(COLUMN, q).unwrap(), total(&shadow));
    let _ = std::fs::remove_dir_all(&root);
}

/// The follower's local journal is a real journal: restarting the
/// follower (fresh process, recovery from its own files) reproduces the
/// replicated state exactly — this is the promotion primitive.
#[test]
fn follower_restart_recovers_replicated_state_from_its_own_journal() {
    let root = tempdir("restart");
    let (wal_dir, shadow, mark) = build_leader(&root, 15);
    let follower = build_follower(&root, FollowConfig::default());

    let (mut leader_end, follower_end) = MemTransport::pair();
    let handle = serve_in_thread(follower, follower_end);
    let shipper = Shipper::new(FsStorage::new(), &wal_dir, COLUMN);
    shipper.ship(&mut leader_end, mark).unwrap();
    leader_end.close();
    let (follower, served) = handle.join().unwrap();
    served.unwrap();
    assert_eq!(follower.values(COLUMN).unwrap(), &shadow[..]);
    drop(follower); // the follower process dies

    // A fresh follower bootstraps purely from local durable state.
    let storage: SharedStorage = Arc::new(FsStorage::new());
    let (reborn, report) = Follower::open(
        storage,
        root.join("follower-cat"),
        root.join("follower-wal"),
        FollowConfig::default(),
    )
    .unwrap();
    assert_eq!(reborn.values(COLUMN).unwrap(), &shadow[..]);
    assert_eq!(reborn.applied_lsn(COLUMN), Some(mark));
    assert!(report.column(COLUMN).unwrap().replayed > 0);
    let _ = std::fs::remove_dir_all(&root);
}

/// A stream that ends with a parked (never-anchored) segment is a
/// divergence at end-of-stream, not a silent gap.
#[test]
fn stream_ending_with_parked_segment_is_divergence() {
    let root = tempdir("parked");
    let (wal_dir, _shadow, mark) = build_leader(&root, 9);
    let mut follower = build_follower(&root, FollowConfig::default());

    let (seq, bytes) = leader_segments(&wal_dir).last().unwrap().clone();
    follower.handle(&encode_frame(&Frame::Segment {
        term: 0,
        column: COLUMN.into(),
        seq,
        leader_mark: mark,
        bytes,
    }));
    let err = follower.finish().unwrap_err();
    assert!(
        matches!(err, SynopticError::ReplicationDivergence { .. }),
        "{err:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Fencing: once the replica has adopted a term, every frame from an
/// older term — segments and heartbeats alike — is refused with both
/// terms in the verdict, and the adopted term survives a restart.
#[test]
fn stale_term_frames_are_fenced_with_provenance() {
    let root = tempdir("fence");
    let (wal_dir, _shadow, mark) = build_leader(&root, 6);
    let mut follower = build_follower(&root, FollowConfig::default());
    assert_eq!(follower.term(), 0, "no election has touched this node yet");

    // A term-3 heartbeat: the replica adopts and persists the term.
    let resp = follower.handle(&encode_frame(&Frame::Heartbeat {
        term: 3,
        column: COLUMN.into(),
        leader_mark: mark,
    }));
    assert!(
        matches!(decode_frame(&resp).unwrap(), Frame::Ack { term: 3, .. }),
        "the ack must carry the adopted term"
    );
    assert_eq!(follower.term(), 3);

    // A deposed leader still shipping on term 2 is refused — loudly, with
    // term provenance — and nothing is applied.
    let (seq, bytes) = leader_segments(&wal_dir)[0].clone();
    let resp = follower.handle(&encode_frame(&Frame::Segment {
        term: 2,
        column: COLUMN.into(),
        seq,
        leader_mark: mark,
        bytes,
    }));
    match decode_frame(&resp).unwrap() {
        Frame::Refuse { term, reason, .. } => {
            assert_eq!(term, 3, "the refusal carries the replica's own term");
            assert!(reason.contains("fenced"), "{reason}");
            assert!(
                reason.contains("term 2") && reason.contains("term 3"),
                "{reason}"
            );
        }
        other => panic!("expected a refusal, got {other:?}"),
    }
    assert_eq!(follower.applied_lsn(COLUMN), Some(0));

    // Its heartbeats are fenced too: a stale leader gets no comfort.
    let resp = follower.handle(&encode_frame(&Frame::Heartbeat {
        term: 2,
        column: COLUMN.into(),
        leader_mark: mark,
    }));
    assert!(matches!(
        decode_frame(&resp).unwrap(),
        Frame::Refuse { term: 3, .. }
    ));

    // The adopted term was a manifest generation: a restarted replica is
    // still on term 3 and still fences.
    drop(follower);
    let storage: SharedStorage = Arc::new(FsStorage::new());
    let (reborn, _) = Follower::open(
        storage,
        root.join("follower-cat"),
        root.join("follower-wal"),
        FollowConfig::default(),
    )
    .unwrap();
    assert_eq!(reborn.term(), 3);
    let _ = std::fs::remove_dir_all(&root);
}

/// At most one grant per term: the first claim wins and is persisted
/// before the grant travels; a rival claim on the same term is refused
/// naming the holder; a newer term supersedes cleanly.
#[test]
fn a_term_is_granted_at_most_once() {
    let root = tempdir("claim");
    let mut follower = build_follower(&root, FollowConfig::default());

    let grant =
        decode_frame(&follower.handle(&encode_frame(&Frame::Claim { term: 4, node: 1 }))).unwrap();
    assert_eq!(grant, Frame::Grant { term: 4, node: 1 });
    assert_eq!(follower.term(), 4);

    // A rival claiming the already-granted term is fenced, with the
    // holder named in the verdict.
    match decode_frame(&follower.handle(&encode_frame(&Frame::Claim { term: 4, node: 2 }))).unwrap()
    {
        Frame::Refuse { term, reason, .. } => {
            assert_eq!(term, 4);
            assert!(reason.contains("granted to node 1"), "{reason}");
        }
        other => panic!("expected a refusal, got {other:?}"),
    }

    // Re-claiming by the holder is idempotent…
    let again =
        decode_frame(&follower.handle(&encode_frame(&Frame::Claim { term: 4, node: 1 }))).unwrap();
    assert_eq!(again, Frame::Grant { term: 4, node: 1 });

    // …and a newer term supersedes, whoever claims it.
    let newer =
        decode_frame(&follower.handle(&encode_frame(&Frame::Claim { term: 5, node: 2 }))).unwrap();
    assert_eq!(newer, Frame::Grant { term: 5, node: 2 });

    // The grant is durable: the persisted ledger names term 5, node 2.
    drop(follower);
    let ledger = TermLedger::open(root.join("follower-cat"), FsStorage::new()).unwrap();
    assert_eq!(ledger.current().unwrap(), (5, Some(2)));
    let _ = std::fs::remove_dir_all(&root);
}

/// An asymmetric partition — the follower hears the leader fine, but the
/// leader is deaf to the first acks — resolves through the retry ladder:
/// re-probes re-solicit the cumulative ack and shipping converges.
#[test]
fn asymmetric_partition_dropping_acks_still_converges() {
    let root = tempdir("asym");
    let (wal_dir, shadow, mark) = build_leader(&root, 20);
    let follower = build_follower(&root, FollowConfig::default());

    let (leader_end, follower_end) = MemTransport::pair();
    let mut faulty = FaultyTransport::with_recv_faults(
        leader_end,
        vec![],
        vec![TransportFault::Drop, TransportFault::Drop],
    );
    let handle = serve_in_thread(follower, follower_end);

    let shipper = Shipper::new(FsStorage::new(), &wal_dir, COLUMN)
        .with_retry(8, Duration::from_millis(2))
        .with_drain_timeout(Duration::from_millis(100));
    let report = shipper.ship(&mut faulty, mark).unwrap();
    assert_eq!(
        report.acked_lsn, mark,
        "must converge once the partition heals"
    );
    assert_eq!(faulty.faults_fired(), 2, "both scheduled drops must fire");

    faulty.close();
    let (follower, served) = handle.join().unwrap();
    served.unwrap();
    assert_eq!(follower.values(COLUMN).unwrap(), &shadow[..]);
    let _ = std::fs::remove_dir_all(&root);
}

/// The failover trigger: a leader ships everything, then goes silent
/// (crash without closing the link). The lease — tracked on a manual
/// clock, no wall-time — expires, the serve loop reports it, and the
/// replica promotes: recovery over its own files plus a durable claim of
/// term + 1, serving exactly the replicated-acknowledged state.
#[test]
fn lease_expiry_after_leader_silence_promotes_the_replica() {
    let root = tempdir("lease");
    let (wal_dir, shadow, mark) = build_leader(&root, 10);
    let follower = build_follower(&root, FollowConfig::default());
    let clock = ManualClock::new();

    let (mut leader_end, follower_end) = MemTransport::pair();
    let serve_clock = clock.clone();
    let handle = std::thread::spawn(move || {
        let mut follower = follower;
        let mut transport = follower_end;
        let outcome =
            follower.serve_with_lease(&mut transport, &serve_clock, 10, Duration::from_millis(1));
        (follower, outcome)
    });

    // The leader ships everything…
    let shipper = Shipper::new(FsStorage::new(), &wal_dir, COLUMN);
    let report = shipper.ship(&mut leader_end, mark).unwrap();
    assert_eq!(report.acked_lsn, mark);
    // …then dies mid-lease: no close, no more heartbeats. The clock
    // advancing past the TTL is the only signal the replica gets.
    clock.advance(11);
    let (follower, outcome) = handle.join().unwrap();
    assert_eq!(outcome.unwrap(), ServeOutcome::LeaseExpired);
    assert_eq!(follower.values(COLUMN).unwrap(), &shadow[..]);
    drop(follower);

    // Promotion: the proven recovery path over local files, then a
    // durable claim of term + 1.
    let storage: SharedStorage = Arc::new(FsStorage::new());
    let (term, report) = promote(
        storage,
        root.join("follower-cat"),
        root.join("follower-wal"),
        7,
    )
    .unwrap();
    assert_eq!(term, 1);
    assert_eq!(
        report.column(COLUMN).unwrap().values,
        shadow,
        "the promoted state is exactly the replicated-acknowledged state"
    );
    let ledger = TermLedger::open(root.join("follower-cat"), FsStorage::new()).unwrap();
    assert_eq!(ledger.current().unwrap(), (1, Some(7)));
    let _ = std::fs::remove_dir_all(&root);
}

/// A heartbeat stuck in flight is indistinguishable from a dead leader:
/// the lease expires on clock time even though the frame was sent.
#[test]
fn a_delayed_heartbeat_does_not_save_the_lease() {
    let root = tempdir("hb-delay");
    let (_wal_dir, _shadow, mark) = build_leader(&root, 5);
    let follower = build_follower(&root, FollowConfig::default());
    let clock = ManualClock::new();

    let (mut leader_end, follower_end) = MemTransport::pair();
    // Everything inbound to the follower is held back for 1000 polls —
    // far past any lease — modelling a heartbeat stuck in flight.
    let faulty = FaultyTransport::with_recv_faults(
        follower_end,
        vec![],
        vec![TransportFault::Delay { frames: 1000 }],
    );
    let serve_clock = clock.clone();
    let handle = std::thread::spawn(move || {
        let mut follower = follower;
        let mut transport = faulty;
        let outcome =
            follower.serve_with_lease(&mut transport, &serve_clock, 10, Duration::from_millis(1));
        (transport, outcome)
    });

    leader_end
        .send(&encode_frame(&Frame::Heartbeat {
            term: 0,
            column: COLUMN.into(),
            leader_mark: mark,
        }))
        .unwrap();
    // Tick until the serve loop notices the silence: however late the
    // lease was armed, no on-time heartbeat ever reaches it.
    while !handle.is_finished() {
        clock.advance(1);
        std::thread::sleep(Duration::from_millis(1));
    }
    let (faulty, outcome) = handle.join().unwrap();
    assert_eq!(outcome.unwrap(), ServeOutcome::LeaseExpired);
    assert_eq!(
        faulty.faults_fired(),
        1,
        "the delay must actually have fired"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Follower auto-checkpointing: with `checkpoint_segments` set, a
/// long-lived replica periodically commits its live frequencies and
/// truncates the captured journal prefix — the journal stays bounded
/// across a long ingest, and a restart still reproduces the exact state.
#[test]
fn auto_checkpoint_keeps_the_follower_journal_bounded() {
    let root = tempdir("ckpt");
    let (wal_dir, shadow, mark) = build_leader(&root, 60);
    let shipped = leader_segments(&wal_dir).len();
    assert!(shipped >= 10, "need a long stream, got {shipped} segments");
    let follower = build_follower(
        &root,
        FollowConfig {
            max_lag: None,
            reorder_window: 8,
            checkpoint_segments: Some(2),
        },
    );

    let (mut leader_end, follower_end) = MemTransport::pair();
    let handle = serve_in_thread(follower, follower_end);
    let shipper = Shipper::new(FsStorage::new(), &wal_dir, COLUMN);
    let report = shipper.ship(&mut leader_end, mark).unwrap();
    assert_eq!(report.acked_lsn, mark);

    leader_end.close();
    let (follower, served) = handle.join().unwrap();
    served.unwrap();
    assert_eq!(follower.values(COLUMN).unwrap(), &shadow[..]);
    assert_eq!(follower.applied_lsn(COLUMN), Some(mark));
    assert!(follower.refusals().is_empty(), "{:?}", follower.refusals());
    drop(follower);

    // The journal was truncated along the way: only the post-checkpoint
    // tail remains of the `shipped` segments that travelled.
    let remaining: usize = scan_journals(&FsStorage::new(), &root.join("follower-wal"))
        .unwrap()
        .values()
        .map(|scan| scan.segments.len())
        .sum();
    assert!(
        remaining <= 3,
        "journal must stay bounded: {remaining} of {shipped} shipped segments remain"
    );

    // A truncated replica still restarts to the exact replicated state:
    // the committed snapshot plus the surviving tail is the whole truth.
    let storage: SharedStorage = Arc::new(FsStorage::new());
    let (reborn, _) = Follower::open(
        storage,
        root.join("follower-cat"),
        root.join("follower-wal"),
        FollowConfig::default(),
    )
    .unwrap();
    assert_eq!(reborn.values(COLUMN).unwrap(), &shadow[..]);
    assert_eq!(reborn.applied_lsn(COLUMN), Some(mark));
    let _ = std::fs::remove_dir_all(&root);
}

/// Multi-column fan-in: all of a pool's journaled columns replicate over
/// ONE link; the follower demultiplexes per column and each converges to
/// its own shadow exactly.
#[test]
fn multiple_columns_fan_in_over_one_link() {
    let root = tempdir("fanin");
    let cat_dir = root.join("leader-cat");
    let wal_dir = root.join("leader-wal");
    let a0 = initial_values();
    let b0: Vec<i64> = (0..N as i64).map(|i| 3 + (i * 5) % 17).collect();

    // One committed leader catalog holding both columns.
    let store = DurableCatalog::open(&cat_dir, FsStorage::new()).unwrap();
    let mut cat = Catalog::new();
    for (name, values) in [("a", &a0), ("b", &b0)] {
        cat.insert_exact(name, values, 0).unwrap();
    }
    let generation = store.save(&cat).unwrap();

    // Each column journals its own update stream into the same WAL dir.
    let mut shadow_a = a0.clone();
    let mut shadow_b = b0.clone();
    for (name, shadow) in [("a", &mut shadow_a), ("b", &mut shadow_b)] {
        let wal = ColumnWal::open(
            FsStorage::new(),
            &wal_dir,
            name,
            generation,
            WalConfig {
                segment_bytes: 128,
                fsync: FsyncCadence::OnRotate,
            },
        )
        .unwrap();
        for (i, d) in stream(14) {
            wal.append(i as u64, d).unwrap();
            shadow[i] += d;
        }
        wal.seal().unwrap();
    }

    // A follower whose committed catalog holds both columns.
    let f_cat = root.join("follower-cat");
    let f_store = DurableCatalog::open(&f_cat, FsStorage::new()).unwrap();
    let mut fcat = Catalog::new();
    for (name, values) in [("a", &a0), ("b", &b0)] {
        fcat.insert_exact(name, values, 0).unwrap();
    }
    f_store.save(&fcat).unwrap();
    let storage: SharedStorage = Arc::new(FsStorage::new());
    let (follower, _) = Follower::open(
        storage,
        &f_cat,
        root.join("follower-wal"),
        FollowConfig::default(),
    )
    .unwrap();
    assert_eq!(follower.columns(), vec!["a".to_string(), "b".to_string()]);

    // Every journal column ships over the SAME transport, sequentially —
    // exactly what `maintain --replicate-to` does per cycle.
    let (mut leader_end, follower_end) = MemTransport::pair();
    let handle = serve_in_thread(follower, follower_end);
    for (column, scan) in scan_journals(&FsStorage::new(), &wal_dir).unwrap() {
        let report = Shipper::new(FsStorage::new(), &wal_dir, &column)
            .ship(&mut leader_end, scan.max_lsn)
            .unwrap();
        assert_eq!(report.acked_lsn, scan.max_lsn, "column {column}");
    }
    leader_end.close();
    let (follower, served) = handle.join().unwrap();
    served.unwrap();
    assert_eq!(follower.values("a").unwrap(), &shadow_a[..]);
    assert_eq!(follower.values("b").unwrap(), &shadow_b[..]);
    let q = RangeQuery::new(0, N - 1).unwrap();
    assert_eq!(follower.estimate("a", q).unwrap(), total(&shadow_a));
    assert_eq!(follower.estimate("b", q).unwrap(), total(&shadow_b));
    let _ = std::fs::remove_dir_all(&root);
}

/// The re-seed path end-to-end: a stranded node (a fenced ex-leader)
/// receives the leader's committed snapshot plus the journal tail over
/// one link, rejoins as a follower on the leader's term, and converges
/// exactly. A rejoin into directories that already hold state is refused
/// — diverged history is discarded, never merged.
#[test]
fn a_stranded_node_reseeds_and_rejoins_as_a_follower() {
    let root = tempdir("reseed");
    let (wal_dir, shadow, mark) = build_leader(&root, 18);
    let cat_dir = root.join("leader-cat");
    let fresh_cat = root.join("reseed-cat");
    let fresh_wal = root.join("reseed-wal");

    let (mut leader_end, follower_end) = MemTransport::pair();
    let (rx_cat, rx_wal) = (fresh_cat.clone(), fresh_wal.clone());
    let receiver = std::thread::spawn(move || {
        let storage: SharedStorage = Arc::new(FsStorage::new());
        let mut transport = follower_end;
        let (mut follower, report) = rejoin(
            storage,
            &rx_cat,
            &rx_wal,
            FollowConfig::default(),
            &mut transport,
        )
        .unwrap();
        let served = follower.serve(&mut transport);
        (follower, report, served)
    });

    let seeder = Seeder::new(FsStorage::new(), &cat_dir, &wal_dir, 2, 7)
        .with_timeout(Duration::from_millis(2000));
    let report = seeder.seed(&mut leader_end).unwrap();
    assert_eq!(report.snapshots, 1, "one frequency column to snapshot");
    assert!(report.segments > 0, "the journal tail ships as segments");
    assert_eq!(report.term, 2);

    leader_end.close();
    let (follower, _rejoin_report, served) = receiver.join().unwrap();
    served.unwrap();
    assert_eq!(follower.values(COLUMN).unwrap(), &shadow[..]);
    assert_eq!(follower.applied_lsn(COLUMN), Some(mark));
    assert_eq!(
        follower.term(),
        2,
        "the rejoined node is on the leader's term"
    );
    let q = RangeQuery::new(0, N - 1).unwrap();
    assert_eq!(follower.estimate(COLUMN, q).unwrap(), total(&shadow));
    drop(follower);

    // The grant was persisted: the re-seeded node's ledger names the
    // leader.
    let ledger = TermLedger::open(&fresh_cat, FsStorage::new()).unwrap();
    assert_eq!(ledger.current().unwrap(), (2, Some(7)));

    // Rejoining into non-fresh directories is refused loudly.
    let storage: SharedStorage = Arc::new(FsStorage::new());
    let (mut dead_end, _peer) = MemTransport::pair();
    let err = match rejoin(
        storage,
        &fresh_cat,
        &fresh_wal,
        FollowConfig::default(),
        &mut dead_end,
    ) {
        Err(e) => e,
        Ok(_) => panic!("rejoin into non-fresh directories must refuse"),
    };
    match err {
        SynopticError::ReplicationDivergence { detail, .. } => {
            assert!(detail.contains("fresh directories"), "{detail}")
        }
        other => panic!("expected a divergence refusal, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A re-seed snapshot whose exact frequencies sum past `i64` is refused
/// with one `Refuse` frame and a divergence error — never a panic, never
/// a wrapped row total — and nothing of it is committed.
#[test]
fn a_snapshot_whose_total_leaves_i64_is_refused_on_rejoin() {
    let root = tempdir("reseed-overflow");
    let (cat_dir, wal_dir) = (root.join("cat"), root.join("wal"));
    let (mut leader_end, follower_end) = MemTransport::pair();
    let (rx_cat, rx_wal) = (cat_dir.clone(), wal_dir.clone());
    let receiver = std::thread::spawn(move || {
        let storage: SharedStorage = Arc::new(FsStorage::new());
        let mut transport = follower_end;
        rejoin(
            storage,
            &rx_cat,
            &rx_wal,
            FollowConfig::default(),
            &mut transport,
        )
        .map(|_| ())
    });
    let recv = |t: &mut MemTransport| match t.recv(Some(Duration::from_secs(5))).unwrap() {
        Received::Frame(bytes) => decode_frame(&bytes).unwrap(),
        other => panic!("expected a frame, got {other:?}"),
    };
    leader_end
        .send(&encode_frame(&Frame::Claim { term: 3, node: 1 }))
        .unwrap();
    assert!(matches!(
        recv(&mut leader_end),
        Frame::Grant { term: 3, node: 1 }
    ));
    leader_end
        .send(&encode_frame(&Frame::Snapshot {
            term: 3,
            column: COLUMN.to_string(),
            mark: 9,
            values: vec![i64::MAX, 1],
        }))
        .unwrap();
    match recv(&mut leader_end) {
        Frame::Refuse {
            term: 3,
            column,
            applied_lsn: 0,
            reason,
        } => {
            assert_eq!(column, COLUMN);
            assert!(reason.contains("overflow"), "{reason}");
        }
        other => panic!("expected a refusal, got {other:?}"),
    }
    match receiver.join().unwrap() {
        Err(SynopticError::ReplicationDivergence { detail, .. }) => {
            assert!(detail.contains("overflow"), "{detail}")
        }
        other => panic!("expected a divergence refusal, got {other:?}"),
    }
    // Only the grant was persisted: no column, no mark.
    let cat = DurableCatalog::open(&cat_dir, FsStorage::new())
        .unwrap()
        .load()
        .unwrap();
    assert!(cat.is_empty());
    assert_eq!(cat.wal_mark(COLUMN), 0);
    let _ = std::fs::remove_dir_all(&root);
}

//! Replication throughput and follower-lag benchmark — the offline
//! emitter behind `results/BENCH_replication.json`.
//!
//! Two curves, both over an in-memory transport so the numbers measure
//! the replication machinery (encode → validate → journal → apply →
//! publish), not a network stack:
//!
//! * **ship+replay throughput** — a pre-built journal of sealed segments
//!   is shipped to a fresh follower in one converging ship; the rate is
//!   records through the full pipeline per second.
//! * **lag under sustained ingest** — the leader appends and ships in
//!   rounds while sampling the follower's replication lag after each
//!   round, reporting the worst and mean observed lag and asserting the
//!   stream ends fully converged.
//!
//! Each curve runs `TRIALS` times on fresh directories, and every timing
//! and lag figure is reported as min / median / max over the trials. The
//! figures depend on the host and its disk, so a comparison across
//! sessions needs a run of the parent commit in the same session.
//!
//! Run with: `cargo run --release --example replication_bench`
//! Writes `results/BENCH_replication.json` (override dir with
//! `BENCH_OUT_DIR`).

use std::sync::Arc;
use std::time::Instant;

use synoptic::catalog::wal::{ColumnWal, FsyncCadence, WalConfig};
use synoptic::catalog::{Catalog, DurableCatalog, FsStorage};
use synoptic::eval::bench::{spread, tempdir, write_report};
use synoptic::eval::json::JsonValue;
use synoptic::repl::{MemTransport, Shipper};
use synoptic::stream::{FollowConfig, Follower, SharedStorage};

const COLUMN: &str = "c";
const N: usize = 1024;
const RECORDS: usize = 20_000;
const SEGMENT_BYTES: usize = 4096; // ~127 records per segment
const ROUNDS: usize = 40;
const BATCH: usize = 250;
const TRIALS: usize = 7;

fn initial_values() -> Vec<i64> {
    (0..N as i64).map(|i| 100 + (i * 13) % 57).collect()
}

fn commit_initial(cat_dir: &std::path::Path) -> u64 {
    let store = DurableCatalog::open(cat_dir, FsStorage::new()).unwrap();
    let mut cat = Catalog::new();
    cat.insert_exact(COLUMN, &initial_values(), 0).unwrap();
    store.save(&cat).unwrap()
}

fn open_leader_wal(root: &std::path::Path, generation: u64) -> ColumnWal<FsStorage> {
    ColumnWal::open(
        FsStorage::new(),
        root.join("leader-wal"),
        COLUMN,
        generation,
        WalConfig {
            segment_bytes: SEGMENT_BYTES,
            fsync: FsyncCadence::OnRotate,
        },
    )
    .unwrap()
}

fn open_follower(root: &std::path::Path) -> Follower {
    commit_initial(&root.join("follower-cat"));
    let storage: SharedStorage = Arc::new(FsStorage::new());
    let (follower, _) = Follower::open(
        storage,
        root.join("follower-cat"),
        root.join("follower-wal"),
        FollowConfig::default(),
    )
    .unwrap();
    follower
}

/// Deterministic update stream.
fn updates(len: usize) -> impl Iterator<Item = (u64, i64)> {
    let mut s = 0xB5EC_u64;
    (0..len).map(move |_| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        ((s % N as u64), ((s >> 32) % 17) as i64 - 8)
    })
}

/// One converging ship of a fully built journal into a fresh follower:
/// the segments shipped and the seconds the ship took.
fn bench_ship_replay() -> (usize, f64) {
    let root = tempdir("repl-throughput");
    let generation = commit_initial(&root.join("leader-cat"));
    let wal = open_leader_wal(&root, generation);
    for (i, d) in updates(RECORDS) {
        wal.append(i, d).unwrap();
    }
    wal.seal().unwrap();
    let mark = wal.pending_mark();

    let mut follower = open_follower(&root);
    let (mut leader_end, mut follower_end) = MemTransport::pair();
    let serve = std::thread::spawn(move || {
        follower.serve(&mut follower_end).unwrap();
        follower
    });
    let shipper = Shipper::new(FsStorage::new(), root.join("leader-wal"), COLUMN);

    let start = Instant::now();
    let report = shipper.ship(&mut leader_end, mark).unwrap();
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(report.acked_lsn, mark, "throughput run must converge");

    use synoptic::repl::Transport;
    leader_end.close();
    let follower = serve.join().unwrap();
    assert_eq!(follower.applied_lsn(COLUMN), Some(mark));
    let _ = std::fs::remove_dir_all(&root);

    println!(
        "ship+replay: {RECORDS} records in {} segment(s), {secs:.3}s ({:.0} records/s)",
        report.shipped,
        RECORDS as f64 / secs
    );
    (report.shipped, secs)
}

/// What one sustained-ingest run measured.
struct Sustained {
    secs: f64,
    max_lag: f64,
    mean_lag: f64,
}

/// Leader ingest racing follower replay: lag sampled after every round.
fn bench_sustained_lag() -> Sustained {
    let root = tempdir("repl-lag");
    let generation = commit_initial(&root.join("leader-cat"));
    let wal = open_leader_wal(&root, generation);
    let mut follower = open_follower(&root);
    let (mut leader_end, mut follower_end) = MemTransport::pair();
    let serve = std::thread::spawn(move || {
        follower.serve(&mut follower_end).unwrap();
        follower
    });
    let shipper = Shipper::new(FsStorage::new(), root.join("leader-wal"), COLUMN);

    let mut feed = updates(ROUNDS * BATCH);
    let mut lags = Vec::with_capacity(ROUNDS);
    let start = Instant::now();
    for _ in 0..ROUNDS {
        for _ in 0..BATCH {
            let (i, d) = feed.next().unwrap();
            wal.append(i, d).unwrap();
        }
        wal.seal().unwrap();
        let mark = wal.pending_mark();
        let report = shipper.ship(&mut leader_end, mark).unwrap();
        // Lag the leader observes at round end: its mark vs the ack.
        lags.push(mark.saturating_sub(report.acked_lsn) as f64);
    }
    let secs = start.elapsed().as_secs_f64();
    let final_mark = wal.pending_mark();

    use synoptic::repl::Transport;
    leader_end.close();
    let follower = serve.join().unwrap();
    assert_eq!(
        follower.applied_lsn(COLUMN),
        Some(final_mark),
        "sustained run must end converged"
    );
    let _ = std::fs::remove_dir_all(&root);

    let max_lag = lags.iter().cloned().fold(0.0_f64, f64::max);
    let mean_lag = lags.iter().sum::<f64>() / lags.len() as f64;
    println!(
        "sustained ingest: {} records over {ROUNDS} rounds in {secs:.3}s, \
         lag max {max_lag:.0} / mean {mean_lag:.1}, final lag {}",
        ROUNDS * BATCH,
        final_mark - follower.applied_lsn(COLUMN).unwrap()
    );
    Sustained {
        secs,
        max_lag,
        mean_lag,
    }
}

fn main() {
    let ships: Vec<(usize, f64)> = (0..TRIALS).map(|_| bench_ship_replay()).collect();
    let runs: Vec<Sustained> = (0..TRIALS).map(|_| bench_sustained_lag()).collect();
    let report = JsonValue::obj([
        ("bench", JsonValue::Str("replication".to_string())),
        (
            "note",
            JsonValue::Str(
                "Timings depend on the host and its disk: compare them across sessions \
                 only against a parent-commit run made in the same session."
                    .to_string(),
            ),
        ),
        ("n", JsonValue::Int(N as i128)),
        ("trials", JsonValue::Int(TRIALS as i128)),
        (
            "ship_replay",
            JsonValue::obj([
                ("records", JsonValue::Int(RECORDS as i128)),
                ("segments", JsonValue::Int(ships[0].0 as i128)),
                ("segment_bytes", JsonValue::Int(SEGMENT_BYTES as i128)),
                ("seconds", spread(ships.iter().map(|s| s.1))),
                (
                    "records_per_sec",
                    spread(ships.iter().map(|s| RECORDS as f64 / s.1)),
                ),
            ]),
        ),
        (
            "sustained_ingest",
            JsonValue::obj([
                ("rounds", JsonValue::Int(ROUNDS as i128)),
                ("batch", JsonValue::Int(BATCH as i128)),
                ("seconds", spread(runs.iter().map(|r| r.secs))),
                ("max_lag", spread(runs.iter().map(|r| r.max_lag))),
                ("mean_lag", spread(runs.iter().map(|r| r.mean_lag))),
                ("final_lag", JsonValue::Int(0)),
            ]),
        ),
    ]);
    write_report("BENCH_replication.json", &report);
}

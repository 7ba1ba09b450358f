//! Automated-failover latency benchmark — the offline emitter behind
//! `results/BENCH_failover.json`.
//!
//! Measures the three phases of an unplanned failover, wall clock, over
//! an in-memory transport (so the numbers are the election + recovery
//! machinery, not a network stack):
//!
//! * **detection** — from the moment the leader goes silent (link open,
//!   no frames) to the follower's lease expiring under
//!   `serve_with_lease` with a small real TTL;
//! * **promotion** — `promote`: crash recovery over the follower's own
//!   catalog + journal plus the durable claim of the next election term;
//! * **first served read** — reopening the promoted replica and serving
//!   a full-range estimate off the recovered state.
//!
//! Each phase, and their sum, is reported as min / median / max over
//! `TRIALS` failovers on fresh directories.
//!
//! Run with: `cargo run --release --example failover_bench`
//! Writes `results/BENCH_failover.json` (override dir with
//! `BENCH_OUT_DIR`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use synoptic::catalog::wal::{ColumnWal, FsyncCadence, WalConfig};
use synoptic::catalog::{Catalog, DurableCatalog, FsStorage};
use synoptic::core::RangeQuery;
use synoptic::eval::bench::{spread, tempdir, write_report};
use synoptic::eval::json::JsonValue;
use synoptic::repl::{MemTransport, Shipper, WallClock};
use synoptic::stream::{promote, FollowConfig, Follower, ServeOutcome, SharedStorage};

const COLUMN: &str = "c";
const N: usize = 1024;
const RECORDS: usize = 2_000;
const SEGMENT_BYTES: usize = 4096;
const TTL_MS: u64 = 50;
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

/// Deterministic update stream.
fn updates(len: usize) -> impl Iterator<Item = (u64, i64)> {
    let mut s = 0xFA11_u64;
    (0..len).map(move |_| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        ((s % N as u64), ((s >> 32) % 17) as i64 - 8)
    })
}

struct Trial {
    detection_ms: f64,
    promotion_ms: f64,
    first_read_ms: f64,
}

/// One full failover: replicate, fall silent, detect, promote, serve.
fn run_trial(trial: usize) -> Trial {
    let root = tempdir(&format!("failover-t{trial}"));
    let generation = commit_initial(&root.join("leader-cat"));
    commit_initial(&root.join("follower-cat"));
    let wal = ColumnWal::open(
        FsStorage::new(),
        root.join("leader-wal"),
        COLUMN,
        generation,
        WalConfig {
            segment_bytes: SEGMENT_BYTES,
            fsync: FsyncCadence::OnRotate,
        },
    )
    .unwrap();
    for (i, d) in updates(RECORDS) {
        wal.append(i, d).unwrap();
    }
    wal.seal().unwrap();
    let mark = wal.pending_mark();

    let storage: SharedStorage = Arc::new(FsStorage::new());
    let (mut follower, _) = Follower::open(
        Arc::clone(&storage),
        root.join("follower-cat"),
        root.join("follower-wal"),
        FollowConfig::default(),
    )
    .unwrap();
    let (mut leader_end, mut follower_end) = MemTransport::pair();
    let serve = std::thread::spawn(move || {
        let clock = WallClock::new();
        let outcome = follower
            .serve_with_lease(&mut follower_end, &clock, TTL_MS, Duration::from_millis(1))
            .unwrap();
        (outcome, Instant::now())
    });

    // Replicate everything with term-1 frames, then fall silent: the link
    // stays open, no heartbeat ever arrives again.
    let shipper = Shipper::new(FsStorage::new(), root.join("leader-wal"), COLUMN).with_term(1);
    let report = shipper.ship(&mut leader_end, mark).unwrap();
    assert_eq!(
        report.acked_lsn, mark,
        "trial must converge before the kill"
    );
    let silence = Instant::now();

    let (outcome, detected_at) = serve.join().unwrap();
    assert_eq!(outcome, ServeOutcome::LeaseExpired);
    let detection_ms = detected_at.duration_since(silence).as_secs_f64() * 1e3;

    let promote_start = Instant::now();
    let (term, _report) = promote(
        Arc::clone(&storage),
        root.join("follower-cat"),
        root.join("follower-wal"),
        7,
    )
    .unwrap();
    assert_eq!(term, 2);
    let promotion_ms = promote_start.elapsed().as_secs_f64() * 1e3;

    let read_start = Instant::now();
    let (promoted, _) = Follower::open(
        storage,
        root.join("follower-cat"),
        root.join("follower-wal"),
        FollowConfig::default(),
    )
    .unwrap();
    let q = RangeQuery::new(0, N - 1).unwrap();
    let est = promoted.estimate(COLUMN, q).unwrap();
    assert!(est.is_finite());
    let first_read_ms = read_start.elapsed().as_secs_f64() * 1e3;

    let _ = std::fs::remove_dir_all(&root);
    Trial {
        detection_ms,
        promotion_ms,
        first_read_ms,
    }
}

fn main() {
    let trials: Vec<Trial> = (0..TRIALS).map(run_trial).collect();
    for (i, t) in trials.iter().enumerate() {
        println!(
            "trial {i}: detection {:.1} ms (ttl {TTL_MS}), promotion {:.1} ms, \
             first read {:.1} ms",
            t.detection_ms, t.promotion_ms, t.first_read_ms
        );
    }
    // Silence to serving: the three phases together.
    let mut totals: Vec<f64> = trials
        .iter()
        .map(|t| t.detection_ms + t.promotion_ms + t.first_read_ms)
        .collect();
    totals.sort_by(f64::total_cmp);
    println!(
        "failover (median of {TRIALS} trials, {RECORDS} replicated records): \
         silence -> serving in {:.1} ms",
        totals[TRIALS / 2]
    );
    let report = JsonValue::obj([
        ("bench", JsonValue::Str("failover".to_string())),
        (
            "note",
            JsonValue::Str(
                "Timings depend on the host and its disk: compare them across sessions \
                 only against a parent-commit run made in the same session."
                    .to_string(),
            ),
        ),
        ("n", JsonValue::Int(N as i128)),
        ("records", JsonValue::Int(RECORDS as i128)),
        ("lease_ttl_ms", JsonValue::Int(TTL_MS as i128)),
        ("trials", JsonValue::Int(TRIALS as i128)),
        (
            "detection_ms",
            spread(trials.iter().map(|t| t.detection_ms)),
        ),
        (
            "promotion_ms",
            spread(trials.iter().map(|t| t.promotion_ms)),
        ),
        (
            "first_read_ms",
            spread(trials.iter().map(|t| t.first_read_ms)),
        ),
        ("total_ms", spread(totals)),
    ]);
    write_report("BENCH_failover.json", &report);
}

//! Overload-behavior benchmark — the offline emitter behind
//! `results/BENCH_overload.json`.
//!
//! A live [`synoptic::serve::Server`] with per-tenant token-bucket
//! admission is driven at 1x, 2x, and 4x its metered capacity over real
//! TCP. Every request carries the PR-10 header (tenant + `degrade_ok`),
//! and the column's rebuild lag crosses its bound halfway through each
//! level (updates land, rebuilds are Manual), so the run exercises the
//! whole overload surface: fresh answers, the degradation ladder
//! (cache-hit / last-good rungs, each stamped), and token-bucket sheds.
//!
//! Per load level the report carries offered rate, **fresh** answers per
//! second (undegraded), **answered** per second (fresh plus degraded),
//! **shed rate**, **degraded-answer fraction**, and wire p50/p99 over
//! answered requests, each as min / median / max over `TRIALS` runs of
//! the three levels. The shape to look for: answers saturate near 1x
//! capacity while sheds absorb the overload — and degraded answers are
//! never silent (asserted). Half of each level runs past the lag bound by
//! design, so the degraded fraction says how the bench is set up, not how
//! the server performs.
//!
//! Run with: `cargo run --release --example overload_bench`
//! Writes `results/BENCH_overload.json` (override dir with `BENCH_OUT_DIR`).

use std::net::TcpListener;
use std::time::{Duration, Instant};

use synoptic::api::wire::RequestHeader;
use synoptic::core::{RangeQuery, SynopticError};
use synoptic::eval::bench::{percentile, spread, write_report, Rng};
use synoptic::eval::json::JsonValue;
use synoptic::hist::HistogramMethod;
use synoptic::serve::{Client, ServeConfig, Server};
use synoptic::stream::{ColumnBuild, MaintainedPool, RebuildConfig, RebuildPolicy};

const COLUMN: &str = "price";
const N: usize = 4096;
const BUDGET_WORDS: usize = 32;
/// Tenant bucket: 50-token burst, one token back every 2ms = 500/s.
const BURST: u64 = 50;
const REFILL_MS: u64 = 2;
const CAPACITY_PER_SEC: u64 = 1_000 / REFILL_MS;
/// Requests offered per level = multiple x capacity x this duration.
const LEVEL_SECS: f64 = 1.5;
/// One update lands every this many estimate requests.
const UPDATE_EVERY: usize = 20;
/// Runs of all three load levels.
const TRIALS: usize = 5;
const MULTIPLES: [u64; 3] = [1, 2, 4];

struct LevelReport {
    multiple: u64,
    offered: u64,
    fresh: u64,
    degraded: u64,
    shed: u64,
    seconds: f64,
    p50_us: f64,
    p99_us: f64,
}

/// Drives one load level against a fresh server (clean buckets, clean
/// meters, generation 0).
fn run_level(multiple: u64) -> LevelReport {
    let values: Vec<i64> = (0..N as i64).map(|i| 100 + (i * 13) % 57).collect();
    let pool = MaintainedPool::new(2);
    let offered = ((CAPACITY_PER_SEC * multiple) as f64 * LEVEL_SECS) as u64;
    let updates_total = offered as usize / UPDATE_EVERY;
    let col = pool
        .add_column(
            COLUMN,
            &values,
            ColumnBuild::Anytime {
                method: HistogramMethod::EquiDepth,
                budget_words: BUDGET_WORDS,
            },
            // Manual: lag only ever grows, crossing the bound mid-level.
            RebuildConfig::new(RebuildPolicy::Manual),
        )
        .unwrap();
    let server = Server::new(ServeConfig {
        tenant_burst: Some(BURST),
        tenant_refill_ms: REFILL_MS,
        // The lag bound is breached once half the level's updates have
        // landed, so the second half exercises the degradation ladder.
        max_rebuild_lag: Some((updates_total / 2).max(1) as u64),
        ..ServeConfig::default()
    });
    server.register(col);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server_thread = {
        let server = server.clone();
        std::thread::spawn(move || server.serve(listener).unwrap())
    };
    let reader = Client::connect(&addr).unwrap();
    let writer = Client::connect(&addr).unwrap();
    reader.ping().unwrap();

    let header = RequestHeader {
        deadline_ms: Some(10_000),
        tenant: Some("bench".to_string()),
        degrade_ok: true,
    };
    let writer_header = RequestHeader {
        deadline_ms: Some(10_000),
        tenant: Some("writer".to_string()),
        degrade_ok: false,
    };
    let interval = Duration::from_secs_f64(1.0 / (CAPACITY_PER_SEC * multiple) as f64);
    let mut rng = Rng(0x0F_F10AD ^ multiple);
    let mut fresh = 0u64;
    let mut degraded = 0u64;
    let mut shed = 0u64;
    let mut lat_us: Vec<f64> = Vec::with_capacity(offered as usize);
    let start = Instant::now();
    for i in 0..offered as usize {
        // Offered-load pacing: request i is due at i * interval.
        let due = interval * i as u32;
        let now = start.elapsed();
        if due > now {
            std::thread::sleep(due - now);
        }
        let lo = (rng.next_u64() % N as u64) as usize;
        let hi = (lo + (rng.next_u64() % 64) as usize).min(N - 1);
        let t = Instant::now();
        match reader.estimate_batch_with(&header, COLUMN, vec![RangeQuery::new(lo, hi).unwrap()]) {
            Ok(answer) => {
                lat_us.push(t.elapsed().as_secs_f64() * 1e6);
                match answer.rung {
                    None => fresh += 1,
                    Some(_) => degraded += 1,
                }
            }
            Err(SynopticError::ServerOverloaded { .. }) => shed += 1,
            Err(e) => panic!("unexpected error under overload: {e}"),
        }
        if i % UPDATE_EVERY == UPDATE_EVERY - 1 {
            // The writer's own bucket paces these well under its burst.
            writer
                .update_with(&writer_header, COLUMN, vec![(rng.next_u64() % N as u64, 1)])
                .unwrap();
        }
    }
    let seconds = start.elapsed().as_secs_f64();

    // Degradation is never silent: the server's own meter agrees with
    // what the client counted from the stamped rungs.
    let stats = reader.stats_with(&writer_header, COLUMN).unwrap();
    assert_eq!(
        stats.degraded, degraded,
        "every ladder answer must be stamped and counted"
    );

    server.shutdown();
    server_thread.join().unwrap();
    drop(pool);

    lat_us.sort_by(|a, b| a.total_cmp(b));
    LevelReport {
        multiple,
        offered,
        fresh,
        degraded,
        shed,
        seconds,
        p50_us: percentile(&lat_us, 50.0),
        p99_us: percentile(&lat_us, 99.0),
    }
}

fn main() {
    // `runs[t][l]`: trial `t` at level `MULTIPLES[l]`; the levels alternate
    // within each trial, so a drifting host spreads over all of them.
    let mut runs: Vec<Vec<LevelReport>> = Vec::new();
    for trial in 0..TRIALS {
        let mut levels = Vec::new();
        for multiple in MULTIPLES {
            let r = run_level(multiple);
            println!(
                "trial {trial}, {}x offered ({} req in {:.2}s): fresh {:.0}/s, \
                 answered {:.0}/s, degraded {:.1}%, shed {:.1}%, p50 {:.0}us, p99 {:.0}us",
                r.multiple,
                r.offered,
                r.seconds,
                r.fresh as f64 / r.seconds,
                (r.fresh + r.degraded) as f64 / r.seconds,
                100.0 * r.degraded as f64 / r.offered as f64,
                100.0 * r.shed as f64 / r.offered as f64,
                r.p50_us,
                r.p99_us,
            );
            // The overload contract, coarsely: everything offered is
            // accounted for, the lag bound crossed mid-level fires the
            // ladder, and sustained overload sheds instead of queueing.
            assert_eq!(r.fresh + r.degraded + r.shed, r.offered);
            assert!(
                r.degraded > 0,
                "the lag bound is crossed mid-level, the ladder must fire"
            );
            levels.push(r);
        }
        let worst = levels.last().unwrap();
        assert!(
            worst.shed > 0,
            "4x offered load must shed (got {} fresh / {} degraded / 0 shed)",
            worst.fresh,
            worst.degraded
        );
        runs.push(levels);
    }

    let level_entry = |l: usize| {
        let level = || runs.iter().map(move |levels| &levels[l]);
        let per_sec = |count: fn(&LevelReport) -> u64| {
            spread(level().map(move |r| count(r) as f64 / r.seconds))
        };
        let per_offered = |count: fn(&LevelReport) -> u64| {
            spread(level().map(move |r| count(r) as f64 / r.offered as f64))
        };
        JsonValue::obj([
            ("offered_multiple", JsonValue::Int(MULTIPLES[l] as i128)),
            (
                "offered_requests",
                JsonValue::Int(runs[0][l].offered as i128),
            ),
            ("seconds", spread(level().map(|r| r.seconds))),
            ("offered_per_sec", per_sec(|r| r.offered)),
            ("fresh_per_sec", per_sec(|r| r.fresh)),
            ("answered_per_sec", per_sec(|r| r.fresh + r.degraded)),
            ("shed_rate", per_offered(|r| r.shed)),
            ("degraded_fraction", per_offered(|r| r.degraded)),
            ("p50_us", spread(level().map(|r| r.p50_us))),
            ("p99_us", spread(level().map(|r| r.p99_us))),
        ])
    };
    let report = JsonValue::obj([
        ("bench", JsonValue::Str("overload".to_string())),
        (
            "note",
            JsonValue::Str(
                "Timings depend on the host: compare them across sessions only against \
                 a parent-commit run made in the same session."
                    .to_string(),
            ),
        ),
        ("n", JsonValue::Int(N as i128)),
        ("trials", JsonValue::Int(TRIALS as i128)),
        ("tenant_burst", JsonValue::Int(BURST as i128)),
        ("tenant_refill_ms", JsonValue::Int(REFILL_MS as i128)),
        ("capacity_per_sec", JsonValue::Int(CAPACITY_PER_SEC as i128)),
        (
            "levels",
            JsonValue::Arr((0..MULTIPLES.len()).map(level_entry).collect()),
        ),
    ]);
    write_report("BENCH_overload.json", &report);
}

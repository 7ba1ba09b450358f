//! Serving-tier throughput and wire-latency benchmark — the offline
//! emitter behind `results/BENCH_serve.json`.
//!
//! A live [`synoptic::serve::Server`] binds a real TCP listener and a
//! [`synoptic::serve::Client`] drives a mixed workload over the wire:
//! update requests (batches of point deltas feeding the rebuild policy)
//! interleaved with estimate batches (each answered against a single
//! snapshot pin, half the ranges hot so the generation-keyed answer
//! cache earns its keep). Every request's round-trip is timed, so the
//! report carries true wire latency percentiles — encode → TCP → decode
//! → admission → pin → answer → respond — not just server-side work.
//!
//! The run sustains well over 10⁵ mixed ops/s (an op is one applied
//! delta or one answered range); the bench asserts that floor.
//!
//! Run with: `cargo run --release --example serve_bench`
//! Writes `results/BENCH_serve.json` (override dir with `BENCH_OUT_DIR`).

use std::net::TcpListener;
use std::time::Instant;

use synoptic::core::RangeQuery;
use synoptic::eval::bench::{percentile, write_report, Rng};
use synoptic::eval::json::JsonValue;
use synoptic::hist::HistogramMethod;
use synoptic::serve::{Client, ServeConfig, Server};
use synoptic::stream::{ColumnBuild, MaintainedPool, RebuildConfig, RebuildPolicy};

const COLUMN: &str = "price";
const N: usize = 4096;
const BUDGET_WORDS: usize = 32;
const ROUNDS: usize = 500;
const UPDATE_BATCH: usize = 64;
const QUERY_BATCH: usize = 256;
const HOT_RANGES: usize = 16;
const REBUILD_EVERY: u64 = 8192;

fn initial_values() -> Vec<i64> {
    (0..N as i64).map(|i| 100 + (i * 13) % 57).collect()
}

fn main() {
    let values = initial_values();
    let pool = MaintainedPool::new(2);
    let col = pool
        .add_column(
            COLUMN,
            &values,
            ColumnBuild::Anytime {
                method: HistogramMethod::EquiDepth,
                budget_words: BUDGET_WORDS,
            },
            RebuildConfig::new(RebuildPolicy::EveryKUpdates(REBUILD_EVERY)),
        )
        .unwrap();
    let server = Server::new(ServeConfig::default());
    server.register(col);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server_thread = {
        let server = server.clone();
        std::thread::spawn(move || server.serve(listener).unwrap())
    };
    let client = Client::connect(&addr).unwrap();
    client.ping().unwrap();

    // The hot set: a small pool of repeated ranges so the answer cache
    // sees real reuse between hot-swaps.
    let mut rng = Rng(0x5E4E);
    let hot: Vec<RangeQuery> = (0..HOT_RANGES)
        .map(|_| {
            let lo = (rng.next_u64() % (N as u64 / 2)) as usize;
            let hi = lo + (rng.next_u64() % (N as u64 / 2)) as usize;
            RangeQuery::new(lo, hi.min(N - 1)).unwrap()
        })
        .collect();

    let mut update_lat_us: Vec<f64> = Vec::with_capacity(ROUNDS);
    let mut query_lat_us: Vec<f64> = Vec::with_capacity(ROUNDS);
    let mut ops: u64 = 0;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        let deltas: Vec<(u64, i64)> = (0..UPDATE_BATCH)
            .map(|_| (rng.next_u64() % N as u64, (rng.next_u64() % 17) as i64 - 8))
            .collect();
        let t = Instant::now();
        let (applied, _) = client.update(COLUMN, deltas).unwrap();
        update_lat_us.push(t.elapsed().as_secs_f64() * 1e6);
        ops += applied;

        let ranges: Vec<RangeQuery> = (0..QUERY_BATCH)
            .map(|k| {
                if k % 2 == 0 {
                    hot[(rng.next_u64() % HOT_RANGES as u64) as usize]
                } else {
                    let lo = (rng.next_u64() % N as u64) as usize;
                    let hi = lo + (rng.next_u64() % 64) as usize;
                    RangeQuery::new(lo, hi.min(N - 1)).unwrap()
                }
            })
            .collect();
        let t = Instant::now();
        let answer = client.estimate_batch(COLUMN, ranges).unwrap();
        query_lat_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(answer.values.len(), QUERY_BATCH);
        ops += QUERY_BATCH as u64;
    }
    let secs = start.elapsed().as_secs_f64();
    let stats = client.stats(COLUMN).unwrap();

    server.shutdown();
    server_thread.join().unwrap();
    drop(pool);

    let ops_per_sec = ops as f64 / secs;
    assert!(
        ops_per_sec >= 1e5,
        "serving tier must sustain >= 1e5 mixed ops/s, measured {ops_per_sec:.0}"
    );
    update_lat_us.sort_by(|a, b| a.total_cmp(b));
    query_lat_us.sort_by(|a, b| a.total_cmp(b));
    println!(
        "mixed workload: {ops} ops ({ROUNDS} rounds of {UPDATE_BATCH} deltas + \
         {QUERY_BATCH} ranges) in {secs:.3}s ({ops_per_sec:.0} ops/s)"
    );
    println!(
        "wire latency: query p50 {:.0}us p99 {:.0}us, update p50 {:.0}us p99 {:.0}us",
        percentile(&query_lat_us, 50.0),
        percentile(&query_lat_us, 99.0),
        percentile(&update_lat_us, 50.0),
        percentile(&update_lat_us, 99.0),
    );
    println!(
        "server: generation {} after {} rebuild(s), cache {} hit(s) / {} miss(es) / \
         {} invalidation(s)",
        stats.generation,
        stats.rebuilds,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_invalidations
    );

    let report = JsonValue::obj([
        ("bench", JsonValue::Str("serve".to_string())),
        ("n", JsonValue::Int(N as i128)),
        ("rounds", JsonValue::Int(ROUNDS as i128)),
        ("update_batch", JsonValue::Int(UPDATE_BATCH as i128)),
        ("query_batch", JsonValue::Int(QUERY_BATCH as i128)),
        ("ops", JsonValue::Int(ops as i128)),
        ("seconds", JsonValue::Num(secs)),
        ("ops_per_sec", JsonValue::Num(ops_per_sec)),
        (
            "query_p50_us",
            JsonValue::Num(percentile(&query_lat_us, 50.0)),
        ),
        (
            "query_p99_us",
            JsonValue::Num(percentile(&query_lat_us, 99.0)),
        ),
        (
            "update_p50_us",
            JsonValue::Num(percentile(&update_lat_us, 50.0)),
        ),
        (
            "update_p99_us",
            JsonValue::Num(percentile(&update_lat_us, 99.0)),
        ),
        ("generation", JsonValue::Int(stats.generation as i128)),
        ("rebuilds", JsonValue::Int(stats.rebuilds as i128)),
        ("cache_hits", JsonValue::Int(stats.cache_hits as i128)),
        ("cache_misses", JsonValue::Int(stats.cache_misses as i128)),
        (
            "cache_invalidations",
            JsonValue::Int(stats.cache_invalidations as i128),
        ),
    ]);
    write_report("BENCH_serve.json", &report);
}

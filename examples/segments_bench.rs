//! Dirty-segment rebuild benchmark — the offline emitter behind
//! `results/BENCH_segments.json`.
//!
//! Registers one column as a segmented pool column at 1 / 4 / 16 / 64
//! segments and measures, wall clock:
//!
//! * **full rebuild** — a manual rebuild with every segment clean, which
//!   refreshes all partials (at 1 segment this is exactly the monolithic
//!   rebuild cost);
//! * **dirty rebuild** — one update lands in one segment, then a rebuild:
//!   only the dirty slice re-runs the SAP0 DP, every clean partial is
//!   reused bit-for-bit.
//!
//! The SAP0 DP costs `O(n²)` cost-oracle calls plus `O(n²B)` f64 min-plus
//! steps, so rebuilding one dirty segment of `S` costs between `1/S²` and
//! `1/S³` of the monolithic build — the reported
//! `speedup_vs_monolithic` (monolithic full-rebuild time over this
//! config's dirty-rebuild time) should far exceed the 4× the roadmap
//! demands at 16 segments.
//!
//! Run with: `cargo run --release --example segments_bench`
//! Writes `results/BENCH_segments.json` (override dir with
//! `BENCH_OUT_DIR`).

use std::time::Instant;

use synoptic::eval::json::JsonValue;
use synoptic::hist::HistogramMethod;
use synoptic::stream::{MaintainedPool, RebuildConfig, RebuildPolicy};

const N: usize = 1024;
/// 64 SAP0 buckets globally — also the one-bucket-per-segment floor at
/// the largest segment count below.
const BUDGET_WORDS: usize = 64 * 3;
const SEGMENT_COUNTS: [usize; 4] = [1, 4, 16, 64];
const TRIALS: usize = 3;

fn values() -> Vec<i64> {
    (0..N as i64)
        .map(|i| (i * i * 31 + 7 * i) % 997 - 300)
        .collect()
}

/// One timed rebuild (request + quiesce), in fractional milliseconds.
fn timed_rebuild(col: &synoptic::stream::ColumnHandle) -> f64 {
    let started = Instant::now();
    col.request_rebuild().unwrap();
    col.quiesce();
    started.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let vals = values();
    let mut rows = Vec::new();
    let mut monolithic_full = f64::NAN;
    for segments in SEGMENT_COUNTS {
        let pool = MaintainedPool::new(1);
        let col = pool
            .add_column_segmented(
                "bench",
                &vals,
                HistogramMethod::Sap0,
                BUDGET_WORDS,
                segments,
                RebuildConfig::new(RebuildPolicy::Manual),
            )
            .unwrap();
        let mut full = f64::INFINITY;
        let mut dirty = f64::INFINITY;
        for _ in 0..TRIALS {
            // All segments clean → the manual rebuild refreshes everything.
            full = full.min(timed_rebuild(&col));
            // One update dirties exactly one segment.
            col.update(N / 2, 1).unwrap();
            dirty = dirty.min(timed_rebuild(&col));
        }
        let stats = col.stats();
        assert_eq!(
            stats.segments_rebuilt as usize,
            TRIALS * (segments + 1),
            "each trial must rebuild all {segments} segments once and 1 dirty segment once"
        );
        if segments == 1 {
            monolithic_full = full;
        }
        let speedup = monolithic_full / dirty;
        println!(
            "segments {segments:>3}: full {full:>9.3} ms, one-dirty {dirty:>9.3} ms, \
             {speedup:>7.1}x vs monolithic rebuild"
        );
        rows.push(JsonValue::obj([
            ("segments", JsonValue::Int(segments as i128)),
            ("full_rebuild_ms", JsonValue::Num(full)),
            ("dirty_rebuild_ms", JsonValue::Num(dirty)),
            ("speedup_vs_monolithic", JsonValue::Num(speedup)),
        ]));
        pool.shutdown();
    }
    let report = JsonValue::obj([
        ("bench", JsonValue::Str("segments".to_string())),
        ("n", JsonValue::Int(N as i128)),
        ("budget_words", JsonValue::Int(BUDGET_WORDS as i128)),
        ("method", JsonValue::Str("sap0".to_string())),
        ("trials", JsonValue::Int(TRIALS as i128)),
        ("configs", JsonValue::Arr(rows)),
    ]);
    let out_dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| "results".to_string());
    std::fs::create_dir_all(&out_dir).unwrap();
    let path = std::path::Path::new(&out_dir).join("BENCH_segments.json");
    std::fs::write(&path, report.to_string_pretty()).unwrap();
    println!("wrote {}", path.display());
}

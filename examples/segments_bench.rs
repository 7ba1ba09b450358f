//! Dirty-segment rebuild benchmark — the offline emitter behind
//! `results/BENCH_segments.json`.
//!
//! Registers one column as a segmented pool column
//! ([`ColumnBuild::Segmented`]) at 1 / 4 / 16 / 64 segments and measures,
//! wall clock, as min / median / max over `TRIALS` trials:
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
//! `speedup_vs_monolithic` (the monolithic full-rebuild median over this
//! config's dirty-rebuild median) should far exceed the 4× the roadmap
//! demands at 16 segments.
//!
//! Beside each speed-up it reports what the column serves: `served_sse`,
//! the exact SSE over all `n(n+1)/2` ranges of the registered column's
//! estimator (the segment-local SAP0 answers summed), and
//! `sse_ratio_vs_monolithic`, that SSE over the 1-segment column's (the
//! monolithic build). Both are taken right after registration, before any
//! trial update.
//!
//! Run with: `cargo run --release --example segments_bench`
//! Writes `results/BENCH_segments.json` (override dir with
//! `BENCH_OUT_DIR`).

use std::time::Instant;

use synoptic::core::sse::sse_brute;
use synoptic::core::PrefixSums;
use synoptic::eval::bench::{spread, write_report};
use synoptic::eval::json::JsonValue;
use synoptic::hist::HistogramMethod;
use synoptic::stream::{ColumnBuild, MaintainedPool, RebuildConfig, RebuildPolicy};

const N: usize = 1024;
/// 64 SAP0 buckets globally — also the one-bucket-per-segment floor at
/// the largest segment count below.
const BUDGET_WORDS: usize = 64 * 3;
const SEGMENT_COUNTS: [usize; 4] = [1, 4, 16, 64];
const TRIALS: usize = 7;

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
    let ps = PrefixSums::from_values(&vals);
    let mut rows = Vec::new();
    let mut monolithic_full = f64::NAN;
    let mut monolithic_sse = f64::NAN;
    for segments in SEGMENT_COUNTS {
        let pool = MaintainedPool::new(1);
        let col = pool
            .add_column(
                "bench",
                &vals,
                ColumnBuild::Segmented {
                    method: HistogramMethod::Sap0,
                    budget_words: BUDGET_WORDS,
                    segments,
                },
                RebuildConfig::new(RebuildPolicy::Manual),
            )
            .unwrap();
        let served_sse = sse_brute(&col.estimator().as_ref(), &ps);
        let mut fulls = Vec::with_capacity(TRIALS);
        let mut dirties = Vec::with_capacity(TRIALS);
        for _ in 0..TRIALS {
            // All segments clean → the manual rebuild refreshes everything.
            fulls.push(timed_rebuild(&col));
            // One update dirties exactly one segment.
            col.update(N / 2, 1).unwrap();
            dirties.push(timed_rebuild(&col));
        }
        fulls.sort_by(f64::total_cmp);
        dirties.sort_by(f64::total_cmp);
        let (full, dirty) = (fulls[TRIALS / 2], dirties[TRIALS / 2]);
        let stats = col.stats();
        assert_eq!(
            stats.segments_rebuilt as usize,
            TRIALS * (segments + 1),
            "each trial must rebuild all {segments} segments once and 1 dirty segment once"
        );
        if segments == 1 {
            monolithic_full = full;
            monolithic_sse = served_sse;
        }
        let speedup = monolithic_full / dirty;
        let sse_ratio = served_sse / monolithic_sse;
        println!(
            "segments {segments:>3}: median full {full:>9.3} ms, one-dirty {dirty:>9.3} ms, \
             {speedup:>7.1}x vs monolithic rebuild; served SSE {served_sse:.3e} \
             ({sse_ratio:.2}x monolithic)"
        );
        rows.push(JsonValue::obj([
            ("segments", JsonValue::Int(segments as i128)),
            ("full_rebuild_ms", spread(fulls)),
            ("dirty_rebuild_ms", spread(dirties)),
            ("speedup_vs_monolithic", JsonValue::Num(speedup)),
            ("served_sse", JsonValue::Num(served_sse)),
            ("sse_ratio_vs_monolithic", JsonValue::Num(sse_ratio)),
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
    write_report("BENCH_segments.json", &report);
}

//! The repository benchmark. One process runs one workload against the
//! workspace crates' public APIs and checks every output:
//!
//! * `serve_hot`: read-mostly serving, the answer cache fits;
//! * `ingest_durable`: write-heavy serving with a journal, persisted
//!   rebuilds and a replicated follower, no cache reuse;
//! * `build_cold`: single-threaded synopsis construction, no server.
//!
//! Usage: `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--out-dir DIR]`. The last line of standard output is one JSON object
//! with every metric the run measured; `perfbench/run.py` builds this
//! binary and keeps the metrics `BENCHMARK.json` declares. With `--trace
//! 1` half the run is traced: spans recorded around each call into a
//! layer, plus replays of each layer's public functions on the recorded
//! inputs, give the per-layer metrics; the spans are written to the
//! output directory.

mod build_cold;
mod inputs;
mod layers;
mod report;
mod serving;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use report::Report;
use trace::Tracer;

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Every per-layer metric a traced run reports, with its unit. A layer
/// that a workload never calls reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("requests_per_s", "1/s"),
    ("latency_tail_us", "us"),
    ("estimate_p50_us", "us"),
    ("estimate_p99_us", "us"),
    ("update_p50_us", "us"),
    ("update_p99_us", "us"),
    ("updates_per_s", "1/s"),
    ("freshness_p50_ms", "ms"),
    ("replica_ack_p50_ms", "ms"),
    ("failed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("api.encode_request_ns", "ns"),
    ("api.decode_request_ns", "ns"),
    ("api.encode_response_ns", "ns"),
    ("api.decode_response_ns", "ns"),
    ("api.request_bytes", "bytes"),
    ("api.response_bytes", "bytes"),
    ("api.self_ms", "ms"),
    ("serve.inproc_estimate_p50_us", "us"),
    ("serve.inproc_update_p50_us", "us"),
    ("serve.wire_overhead_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_invalidations", "count"),
    ("serve.refused", "count"),
    ("serve.deadline_sheds", "count"),
    ("serve.degraded", "count"),
    ("serve.self_ms", "ms"),
    ("core.estimate_ns_per_range", "ns"),
    ("core.pin_ns", "ns"),
    ("core.self_ms", "ms"),
    ("stream.update_ns", "ns"),
    ("stream.rebuild_ms", "ms"),
    ("stream.rebuilds", "count"),
    ("stream.coalesced", "count"),
    ("stream.failed_rebuilds", "count"),
    ("stream.segments_rebuilt_frac", "ratio"),
    ("stream.stale_updates_p50", "count"),
    ("stream.self_ms", "ms"),
    ("hist.sap0_ns_per_cell", "ns"),
    ("hist.sap1_ns_per_cell", "ns"),
    ("hist.a0_ns_per_cell", "ns"),
    ("hist.pointopt_ns_per_cell", "ns"),
    ("hist.opta_ns_per_cell", "ns"),
    ("hist.sap0_cells", "count"),
    ("hist.self_ms", "ms"),
    ("catalog.wal_append_us", "us"),
    ("catalog.wal_bytes_per_update", "bytes"),
    ("catalog.persist_ms", "ms"),
    ("catalog.self_ms", "ms"),
    ("repl.ship_ms", "ms"),
    ("repl.segments_per_ship", "count"),
    ("repl.follower_lag_records", "count"),
    ("repl.ship_retries", "count"),
    ("repl.self_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        out_dir: PathBuf::from(".bench_build/perfbench-out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err(format!("--seconds {} outside (0, 120]", args.seconds));
    }
    Ok(args)
}

fn run(args: &Args, tracer: &Arc<Tracer>, report: &mut Report) -> Res<()> {
    let scratch = args.out_dir.join(format!("tmp-{}", std::process::id()));
    let result = match args.workload.as_str() {
        "serve_hot" => serving::run(
            serving::Kind::Hot,
            args.seed,
            args.seconds,
            args.trace,
            tracer,
            &scratch,
            report,
        ),
        "ingest_durable" => serving::run(
            serving::Kind::Durable,
            args.seed,
            args.seconds,
            args.trace,
            tracer,
            &scratch,
            report,
        ),
        "build_cold" => build_cold::run(args.seed, args.seconds, args.trace, tracer, report),
        other => Err(format!("unknown workload {other:?}").into()),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Arc::new(Tracer::new());
    let mut report = Report::default();
    if let Err(e) = run(&args, &tracer, &mut report) {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    if args.trace {
        for (layer, ms) in tracer.self_ms_by_layer() {
            report.put(&format!("{layer}.self_ms"), ms, "ms");
        }
        let path = args
            .out_dir
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(n) => println!("wrote {n} spans to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        let missing = report.fill_missing(PER_LAYER);
        if !missing.is_empty() {
            println!(
                "not on this workload's path (reported as 0): {}",
                missing.join(", ")
            );
        }
    }
    report.print(&format!(
        "workload {} seed {} ({} s, trace {}):",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    ExitCode::SUCCESS
}

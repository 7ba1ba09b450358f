//! Per-layer measurements for the traced run: counters read from the
//! layers' own meters, and replays of each layer's public functions on the
//! inputs the workload recorded. Each replay runs inside one span per
//! layer call site, so the trace carries per-layer self time.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use synoptic_api::wire::{
    decode_request_with, decode_response, encode_request_with, encode_response,
    encode_response_extended, BatchAnswer, QueryBatch, Request, RequestHeader, Response,
    ServerStats,
};
use synoptic_catalog::wal::ColumnWal;
use synoptic_catalog::FsStorage;
use synoptic_core::{Budget, PrefixSums, RangeEstimator, RangeQuery};
use synoptic_hist::builder::{build_with_budget, HistogramMethod};
use synoptic_repl::MemTransport;
use synoptic_serve::{Client, Server};
use synoptic_stream::{
    ColumnHandle, MaintainedPool, RebuildConfig, RebuildPolicy, RebuildStats, SharedStorage,
};

use crate::report::{p50, Report};
use crate::serving::{durability, Kind, BUDGET_WORDS, COLUMN, SEGMENTS};
use crate::trace::Tracer;
use crate::Res;

/// Repeats `f` over `items` until at least 20 ms have passed; returns
/// nanoseconds per item.
fn ns_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let started = Instant::now();
    let mut done = 0usize;
    while done == 0 || started.elapsed() < Duration::from_millis(20) {
        for item in items {
            f(item);
        }
        done += items.len();
    }
    started.elapsed().as_nanos() as f64 / done as f64
}

/// `serve.*` counters from the server's own stats frame.
pub fn server_counters(stats: &ServerStats, report: &mut Report) {
    let lookups = (stats.cache_hits + stats.cache_misses).max(1);
    report.put(
        "serve.cache_hit_ratio",
        stats.cache_hits as f64 / lookups as f64,
        "ratio",
    );
    report.put(
        "serve.cache_invalidations",
        stats.cache_invalidations as f64,
        "count",
    );
    report.put("serve.refused", stats.refused as f64, "count");
    report.put("serve.deadline_sheds", stats.deadline_sheds as f64, "count");
    report.put("serve.degraded", stats.degraded as f64, "count");
}

/// `stream.*` counters from the column's maintenance meters.
pub fn column_counters(stats: &RebuildStats, report: &mut Report) {
    report.put("stream.rebuilds", stats.rebuilds as f64, "count");
    report.put("stream.coalesced", stats.coalesced as f64, "count");
    report.put(
        "stream.failed_rebuilds",
        stats.failed_rebuilds as f64,
        "count",
    );
    let segments = (stats.segments_rebuilt + stats.segments_reused).max(1);
    report.put(
        "stream.segments_rebuilt_frac",
        stats.segments_rebuilt as f64 / segments as f64,
        "ratio",
    );
}

/// The workload's own requests and responses, in wire order.
fn frames(
    ranges: &[Vec<RangeQuery>],
    deltas: &[Vec<(u64, i64)>],
    answers: &[BatchAnswer],
) -> (Vec<Request>, Vec<Response>) {
    let mut requests: Vec<Request> = ranges
        .iter()
        .map(|r| Request::EstimateBatch(QueryBatch::new(COLUMN, r.clone())))
        .collect();
    requests.extend(deltas.iter().map(|d| Request::Update {
        column: COLUMN.to_string(),
        deltas: d.clone(),
    }));
    let mut responses: Vec<Response> = answers.iter().cloned().map(Response::Estimates).collect();
    responses.extend(deltas.iter().map(|d| Response::Updated {
        applied: d.len() as u64,
        scheduled: 0,
    }));
    (requests, responses)
}

/// `api.*`: the SQP1 codec on the workload's own frames.
pub fn api(
    header: &RequestHeader,
    ranges: &[Vec<RangeQuery>],
    deltas: &[Vec<(u64, i64)>],
    answers: &[BatchAnswer],
    tracer: &Tracer,
    report: &mut Report,
) {
    let (requests, responses) = frames(ranges, deltas, answers);
    let encode_response_for = |r: &Response| {
        if header.is_empty() {
            encode_response(r)
        } else {
            encode_response_extended(r)
        }
    };
    let req_frames: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| encode_request_with(header, r))
        .collect();
    let resp_frames: Vec<Vec<u8>> = responses.iter().map(encode_response_for).collect();
    let mean_len =
        |f: &[Vec<u8>]| f.iter().map(Vec::len).sum::<usize>() as f64 / f.len().max(1) as f64;
    report.put("api.request_bytes", mean_len(&req_frames), "bytes");
    report.put("api.response_bytes", mean_len(&resp_frames), "bytes");
    let ns = tracer.span("api.encode_request", 0, || {
        ns_per_item(&requests, |r| {
            black_box(encode_request_with(header, r));
        })
    });
    report.put("api.encode_request_ns", ns, "ns");
    let ns = tracer.span("api.decode_request", 0, || {
        ns_per_item(&req_frames, |f| {
            black_box(decode_request_with(f).expect("own request frame decodes"));
        })
    });
    report.put("api.decode_request_ns", ns, "ns");
    let ns = tracer.span("api.encode_response", 0, || {
        ns_per_item(&responses, |r| {
            black_box(encode_response_for(r));
        })
    });
    report.put("api.encode_response_ns", ns, "ns");
    let ns = tracer.span("api.decode_response", 0, || {
        ns_per_item(&resp_frames, |f| {
            black_box(decode_response(f).expect("own response frame decodes"));
        })
    });
    report.put("api.decode_response_ns", ns, "ns");
}

/// `serve.inproc_*`: the recorded requests again, through
/// `Server::handle_transport` over an in-memory transport (no TCP); the
/// wire overhead is `wire_estimate_p50_us` minus the in-process median.
/// The caller's shadow must apply `deltas` once more.
pub fn serve_inproc(
    server: &Server,
    header: &RequestHeader,
    ranges: &[Vec<RangeQuery>],
    deltas: &[Vec<(u64, i64)>],
    wire_estimate_p50_us: f64,
    tracer: &Tracer,
    report: &mut Report,
) -> Res<()> {
    let (client_end, mut server_end) = MemTransport::pair();
    let serving = {
        let server = server.clone();
        std::thread::spawn(move || server.handle_transport(&mut server_end))
    };
    let client = Client::from_transport(Box::new(client_end), Duration::from_secs(30));
    let mut estimate_us = Vec::with_capacity(ranges.len());
    for (id, r) in ranges.iter().enumerate() {
        let sent = Instant::now();
        tracer.span("serve.inproc_estimate", id as u64, || {
            client.estimate_batch_with(header, COLUMN, r.clone())
        })?;
        estimate_us.push(sent.elapsed().as_secs_f64() * 1e6);
    }
    let mut update_us = Vec::with_capacity(deltas.len());
    for (id, d) in deltas.iter().enumerate() {
        let sent = Instant::now();
        tracer.span("serve.inproc_update", id as u64, || {
            client.update_with(header, COLUMN, d.clone())
        })?;
        update_us.push(sent.elapsed().as_secs_f64() * 1e6);
    }
    drop(client);
    serving
        .join()
        .map_err(|_| "in-process serving thread panicked")?;
    let inproc = p50(&mut estimate_us);
    report.put("serve.inproc_estimate_p50_us", inproc, "us");
    report.put("serve.inproc_update_p50_us", p50(&mut update_us), "us");
    report.put(
        "serve.wire_overhead_us",
        wire_estimate_p50_us - inproc,
        "us",
    );
    Ok(())
}

/// `core.*`: the pinned estimator on the recorded ranges, and the
/// hot-swap pin itself.
pub fn core(col: &ColumnHandle, ranges: &[Vec<RangeQuery>], tracer: &Tracer, report: &mut Report) {
    let all: Vec<RangeQuery> = ranges.concat();
    let est = col.estimator();
    let ns = tracer.span("core.estimate", 0, || {
        ns_per_item(&all, |&q| {
            black_box(est.estimate(q));
        })
    });
    report.put("core.estimate_ns_per_range", ns, "ns");
    let mut reader = col.reader();
    let spins = vec![(); 4096];
    let ns = tracer.span("core.pin", 0, || {
        ns_per_item(&spins, |_| {
            black_box(reader.pinned().0);
        })
    });
    report.put("core.pin_ns", ns, "ns");
}

/// `stream.update_ns` and `stream.rebuild_ms` on a twin of the served
/// column (journaled like it, manual rebuilds) fed the recorded deltas.
pub fn stream_twin(
    kind: Kind,
    values: &[i64],
    deltas: &[(u64, i64)],
    root: &Path,
    tracer: &Tracer,
    report: &mut Report,
) -> Res<()> {
    let pool = MaintainedPool::new(1);
    let config = RebuildConfig::new(RebuildPolicy::Manual);
    let twin = match kind {
        Kind::Hot => pool.add_column_segmented(
            COLUMN,
            values,
            HistogramMethod::Sap0,
            BUDGET_WORDS,
            SEGMENTS,
            config,
        )?,
        Kind::Durable => {
            let storage: SharedStorage = Arc::new(FsStorage::new());
            pool.add_column_segmented_durable(
                COLUMN,
                values,
                HistogramMethod::Sap0,
                BUDGET_WORDS,
                SEGMENTS,
                config,
                storage,
                &durability(&root.join("wal")),
                0,
                None,
            )?
        }
    };
    let started = Instant::now();
    tracer.span("stream.update", 0, || -> Res<()> {
        for &(i, d) in deltas {
            twin.update(i as usize, d)?;
        }
        Ok(())
    })?;
    let ns = started.elapsed().as_nanos() as f64 / deltas.len().max(1) as f64;
    report.put("stream.update_ns", ns, "ns");
    let started = Instant::now();
    tracer.span("stream.rebuild", 0, || -> Res<()> {
        twin.request_rebuild()?;
        twin.quiesce();
        Ok(())
    })?;
    report.put(
        "stream.rebuild_ms",
        started.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    pool.shutdown();
    remove_dir(root)
}

/// One DP construction at a recorded input: `(metric stem, method,
/// values, storage words)`.
pub type Construction<'a> = (&'static str, HistogramMethod, &'a [i64], usize);

/// Builds once through `hist::build_with_budget` with an unlimited budget
/// and returns the build's milliseconds, the DP cells it charged, and the
/// synopsis.
pub fn build_timed(
    method: HistogramMethod,
    values: &[i64],
    words: usize,
    tracer: &Tracer,
) -> Res<(f64, u64, Box<dyn RangeEstimator>)> {
    let ps = PrefixSums::from_values(values);
    let budget = Budget::unlimited();
    let started = Instant::now();
    let est = tracer.span("hist.build", 0, || {
        build_with_budget(method, values, &ps, words, &budget)
    })?;
    Ok((
        started.elapsed().as_secs_f64() * 1e3,
        budget.cells_used(),
        est,
    ))
}

/// `hist.<stem>_ns_per_cell` for each construction, and
/// `hist.sap0_cells` (an exactly repeating count).
pub fn hist_builds(builds: &[Construction<'_>], tracer: &Tracer, report: &mut Report) -> Res<()> {
    for &(stem, method, values, words) in builds {
        let (ms, cells, _) = build_timed(method, values, words, tracer)?;
        report.put(
            &format!("hist.{stem}_ns_per_cell"),
            ms * 1e6 / cells.max(1) as f64,
            "ns",
        );
        if stem == "sap0" {
            report.put("hist.sap0_cells", cells as f64, "count");
        }
    }
    Ok(())
}

/// Every DP builder on one segment of the served column (OPT-A on its
/// first 127 keys: its cost grows with the data's magnitude, not just n).
pub fn hist_replay(segment: &[i64], tracer: &Tracer, report: &mut Report) -> Res<()> {
    let opta_keys = &segment[..127.min(segment.len())];
    hist_builds(
        &[
            ("sap0", HistogramMethod::Sap0, segment, 24),
            ("sap1", HistogramMethod::Sap1, segment, 40),
            ("a0", HistogramMethod::A0, segment, 16),
            ("pointopt", HistogramMethod::PointOpt, segment, 16),
            ("opta", HistogramMethod::OptA, opta_keys, 16),
        ],
        tracer,
        report,
    )
}

/// `catalog.wal_append_us` and `catalog.wal_bytes_per_update`: the
/// recorded deltas appended to a fresh journal with the workload's
/// configuration.
pub fn wal_append(
    deltas: &[(u64, i64)],
    dir: &Path,
    tracer: &Tracer,
    report: &mut Report,
) -> Res<()> {
    let wal = ColumnWal::open(FsStorage::new(), dir, COLUMN, 0, durability(dir).wal)?;
    let started = Instant::now();
    tracer.span("catalog.wal_append", 0, || -> Res<()> {
        for &(i, d) in deltas {
            wal.append(i, d)?;
        }
        Ok(())
    })?;
    let count = deltas.len().max(1) as f64;
    report.put(
        "catalog.wal_append_us",
        started.elapsed().as_secs_f64() * 1e6 / count,
        "us",
    );
    wal.seal()?;
    let mut bytes = 0u64;
    for f in std::fs::read_dir(dir)? {
        bytes += f?.metadata()?.len();
    }
    report.put(
        "catalog.wal_bytes_per_update",
        bytes as f64 / count,
        "bytes",
    );
    drop(wal);
    remove_dir(dir)
}

/// Removes `dir` and everything in it; a missing `dir` is fine.
pub fn remove_dir(dir: &Path) -> Res<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.into()),
        _ => Ok(()),
    }
}

//! The two serving workloads, `serve_hot` and `ingest_durable`: a live
//! `Server` on a TCP listener, one closed-loop `Client` connection, and a
//! segmented SAP0 column maintained by a `MaintainedPool`. The durable
//! variant journals every update, commits each rebuild through a
//! `DurableCatalog` persist hook, and ships sealed journal segments to an
//! in-process `Follower` from a seal-hook-fed shipper thread.

use std::net::TcpListener;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use synoptic_api::wire::{BatchAnswer, RequestHeader};
use synoptic_catalog::wal::FsyncCadence;
use synoptic_catalog::{Catalog, ColumnEntry, DurableCatalog, FsStorage, PersistentSynopsis};
use synoptic_core::{NaiveEstimator, PrefixSums, RangeEstimator, RangeQuery, Rng, SynopticError};
use synoptic_hist::builder::HistogramMethod;
use synoptic_repl::{MemTransport, Shipper, Transport};
use synoptic_serve::{Client, ServeConfig, Server};
use synoptic_stream::{
    ColumnHandle, DurabilityConfig, DurablePersistFn, FollowConfig, Follower, MaintainedPool,
    RebuildConfig, RebuildPolicy, SharedStorage,
};

use crate::inputs::{self, N};
use crate::layers;
use crate::report::{p50, tail, Report};
use crate::trace::Tracer;
use crate::Res;

pub const COLUMN: &str = "price";
/// Segments of the served column.
pub const SEGMENTS: usize = 16;
/// About eight 3-word SAP0 buckets per segment.
pub const BUDGET_WORDS: usize = SEGMENTS * 8 * 3;
const ESTIMATE_RANGES: usize = 32;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Journal fsync cadence of `ingest_durable`: per-record fsync would
/// measure the virtual disk, not the program.
const FSYNC: FsyncCadence = FsyncCadence::EveryN(64);
/// Retention-hold name of the in-process follower.
const REPLICA_HOLD: &str = "replica";
/// Generous client deadline carried by `serve_hot`'s headers.
const DEADLINE_MS: u64 = 10_000;
/// Cycles of untimed warm-up before the forced rebuild.
const WARMUP_CYCLES: usize = 256;
/// Uniformly random ranges, besides the hot set, in the accuracy query set.
const EVAL_RANGES: usize = 32_768;
/// Batches kept from the traced phase for the per-layer replays.
const RECORDED: usize = 256;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Durable,
}

/// One workload's traffic shape.
struct Shape {
    kind: Kind,
    /// `EveryKUpdates` rebuild period.
    every_k: u64,
    update_deltas: usize,
    /// Estimate batches sent per update batch.
    estimates_per_update: usize,
    /// Whether the even positions of each estimate batch come from the
    /// hot set (the rest are uniformly random ranges).
    hot_set: bool,
    /// Updates go to the highest segments: `recent_share` of them to the
    /// top `recent_segments`, the rest to the `older_segments` below. The
    /// segments under those stay clean, so rebuilds reuse their partials.
    recent_segments: usize,
    recent_share: f64,
    older_segments: usize,
    /// Whether requests carry a tenant and deadline header.
    headered: bool,
}

impl Shape {
    fn of(kind: Kind) -> Self {
        match kind {
            Kind::Hot => Shape {
                kind,
                every_k: 131_072,
                update_deltas: 16,
                estimates_per_update: 16,
                hot_set: true,
                recent_segments: 1,
                recent_share: 1.0,
                older_segments: 0,
                headered: true,
            },
            Kind::Durable => Shape {
                kind,
                every_k: 262_144,
                update_deltas: 64,
                estimates_per_update: 1,
                hot_set: false,
                recent_segments: 2,
                recent_share: 0.8,
                older_segments: 2,
                headered: false,
            },
        }
    }
}

/// Hot-set size of `serve_hot` (the server's cache holds 4096 entries).
const HOT_RANGES: usize = 64;

/// The seeded request stream.
struct Traffic {
    queries: Rng,
    updates: Rng,
    hot: Vec<RangeQuery>,
    hot_set: bool,
    recent: Range<usize>,
    recent_share: f64,
    older: Range<usize>,
    update_deltas: usize,
}

impl Traffic {
    fn new(seed: u64, shape: &Shape) -> Self {
        let width = N / SEGMENTS;
        let recent_start = N - shape.recent_segments * width;
        let older_start = recent_start - shape.older_segments * width;
        Self {
            queries: Rng::new(seed ^ 0x0051_7E55),
            updates: Rng::new(seed ^ 0x0D17_A5E7),
            hot: inputs::hot_set(seed, HOT_RANGES),
            hot_set: shape.hot_set,
            recent: recent_start..N,
            recent_share: shape.recent_share,
            older: older_start..recent_start,
            update_deltas: shape.update_deltas,
        }
    }

    fn estimate(&mut self) -> Vec<RangeQuery> {
        (0..ESTIMATE_RANGES)
            .map(|k| {
                if self.hot_set && k % 2 == 0 {
                    self.hot[self.queries.usize_in(0, self.hot.len())]
                } else {
                    inputs::random_range(&mut self.queries)
                }
            })
            .collect()
    }

    fn update(&mut self) -> Vec<(u64, i64)> {
        (0..self.update_deltas)
            .map(|_| {
                inputs::update(
                    &mut self.updates,
                    &self.recent,
                    self.recent_share,
                    &self.older,
                )
            })
            .collect()
    }
}

/// What the shipper thread observed.
#[derive(Default)]
struct ShipLog {
    ship_ms: Vec<f64>,
    segments: Vec<f64>,
    /// Seal-hook firing until a ship round returned with the mark acked.
    ack_ms: Vec<f64>,
    /// Leader mark minus acked LSN when each round returned.
    lag_records: Vec<f64>,
    /// Rounds repeated because a checkpoint raced the segment listing.
    retries: u64,
}

/// The leader → follower link of `ingest_durable`.
struct Replication {
    seal_tx: mpsc::Sender<(u64, Instant)>,
    shipper: JoinHandle<Res<(ShipLog, MemTransport)>>,
    follower: JoinHandle<Res<Follower>>,
    persist_ms: Arc<Mutex<Vec<f64>>>,
}

/// One running server stack.
struct Stack {
    pool: MaintainedPool,
    col: ColumnHandle,
    server: Server,
    server_thread: JoinHandle<std::io::Result<()>>,
    addr: String,
    client: Client,
    repl: Option<Replication>,
    root: PathBuf,
}

/// What tearing a stack down leaves to check and report.
#[derive(Default)]
struct Down {
    ship: ShipLog,
    persist_ms: Vec<f64>,
    follower: Option<Follower>,
    leader_mark: u64,
}

fn entry(values: &[i64]) -> ColumnEntry {
    ColumnEntry {
        n: values.len(),
        total_rows: values.iter().sum(),
        synopsis: PersistentSynopsis::from_frequencies(values),
    }
}

/// Commits `values` as a fresh catalog's first generation.
fn commit_initial(dir: &Path, values: &[i64]) -> Res<u64> {
    let store = DurableCatalog::open(dir, FsStorage::new())?;
    let mut cat = Catalog::new();
    cat.insert(COLUMN, entry(values));
    Ok(store.save(&cat)?)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The journal configuration of `ingest_durable`.
pub fn durability(wal_dir: &Path) -> DurabilityConfig {
    DurabilityConfig::journaled(wal_dir).with_fsync(FSYNC)
}

impl Stack {
    fn up(shape: &Shape, values: &[i64], root: &Path, tracer: &Arc<Tracer>) -> Res<Self> {
        let pool = MaintainedPool::new(1);
        let config = RebuildConfig::new(RebuildPolicy::EveryKUpdates(shape.every_k));
        let (col, repl) = match shape.kind {
            Kind::Hot => {
                let col = pool.add_column_segmented(
                    COLUMN,
                    values,
                    HistogramMethod::Sap0,
                    BUDGET_WORDS,
                    SEGMENTS,
                    config,
                )?;
                (col, None)
            }
            Kind::Durable => {
                let (col, repl) = durable_column(&pool, config, values, root, tracer)?;
                (col, Some(repl))
            }
        };
        let server = Server::new(ServeConfig::default());
        server.register(col.clone());
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let server_thread = {
            let server = server.clone();
            thread::spawn(move || server.serve(listener))
        };
        let client = Client::connect(&addr)?;
        client.ping()?;
        Ok(Self {
            pool,
            col,
            server,
            server_thread,
            addr,
            client,
            repl,
            root: root.to_path_buf(),
        })
    }

    fn down(self) -> Res<Down> {
        drop(self.client);
        self.server.shutdown();
        self.server_thread
            .join()
            .map_err(|_| "server thread panicked")??;
        self.col.quiesce();
        let mut down = Down::default();
        if let Some(repl) = self.repl {
            let journal = self
                .col
                .journal()
                .ok_or("durable column without a journal")?;
            journal.set_seal_hook(None);
            journal.seal()?;
            down.leader_mark = journal.pending_mark();
            if down.leader_mark > 0 {
                let _ = repl.seal_tx.send((down.leader_mark, Instant::now()));
            }
            drop(repl.seal_tx);
            let (ship, mut transport) = repl
                .shipper
                .join()
                .map_err(|_| "shipper thread panicked")??;
            transport.close();
            down.follower = Some(
                repl.follower
                    .join()
                    .map_err(|_| "follower thread panicked")??,
            );
            down.ship = ship;
            down.persist_ms = std::mem::take(&mut *repl.persist_ms.lock().expect("persist log"));
        }
        self.pool.shutdown();
        layers::remove_dir(&self.root)?;
        Ok(down)
    }
}

/// Registers the journaled column with its persist hook, a follower, and
/// the seal-hook-fed shipper thread (the `maintain --replicate-to` shape).
fn durable_column(
    pool: &MaintainedPool,
    config: RebuildConfig,
    values: &[i64],
    root: &Path,
    tracer: &Arc<Tracer>,
) -> Res<(ColumnHandle, Replication)> {
    let leader_cat = root.join("leader-cat");
    let leader_wal = root.join("leader-wal");
    let follower_cat = root.join("follower-cat");
    let generation = commit_initial(&leader_cat, values)?;
    commit_initial(&follower_cat, values)?;
    let storage: SharedStorage = Arc::new(FsStorage::new());
    let (mut follower, _) = Follower::open(
        Arc::clone(&storage),
        &follower_cat,
        root.join("follower-wal"),
        FollowConfig::default(),
    )?;

    let persist_ms = Arc::new(Mutex::new(Vec::new()));
    let hook: DurablePersistFn = {
        let store = DurableCatalog::open(&leader_cat, FsStorage::new())?;
        let log = Arc::clone(&persist_ms);
        let tracer = Arc::clone(tracer);
        Box::new(move |snap| {
            tracer.span("catalog.persist", 0, || {
                let started = Instant::now();
                let mut cat = Catalog::new();
                cat.insert(COLUMN, entry(snap.values));
                cat.set_wal_mark(COLUMN, snap.wal_mark);
                let committed = store.save(&cat);
                log.lock().expect("persist log").push(ms_since(started));
                committed
            })
        })
    };
    let col = pool.add_column_segmented_durable(
        COLUMN,
        values,
        HistogramMethod::Sap0,
        BUDGET_WORDS,
        SEGMENTS,
        config,
        storage,
        &durability(&leader_wal),
        generation,
        Some(hook),
    )?;

    let (mut leader_end, mut follower_end) = MemTransport::pair();
    let follower = thread::spawn(move || -> Res<Follower> {
        follower.serve(&mut follower_end)?;
        Ok(follower)
    });
    let journal = col.journal().ok_or("durable column without a journal")?;
    journal.set_retention_hold(REPLICA_HOLD, 0);
    let (seal_tx, seal_rx) = mpsc::channel::<(u64, Instant)>();
    let hook_tx = seal_tx.clone();
    // The hook runs under the journal lock: enqueue only, ship elsewhere.
    journal.set_seal_hook(Some(Box::new(move |_path, last_lsn| {
        let _ = hook_tx.send((last_lsn, Instant::now()));
    })));
    let shipper = {
        let col = col.clone();
        let tracer = Arc::clone(tracer);
        thread::spawn(move || -> Res<(ShipLog, MemTransport)> {
            let shipper = Shipper::new(FsStorage::new(), leader_wal, COLUMN);
            let mut log = ShipLog::default();
            let mut waiting: Vec<(u64, Instant)> = Vec::new();
            let mut acked = 0u64;
            while let Ok(first) = seal_rx.recv() {
                waiting.push(first);
                waiting.extend(seal_rx.try_iter());
                let mark = waiting.iter().map(|w| w.0).max().unwrap_or(0);
                let started = Instant::now();
                let report = loop {
                    match tracer.span("repl.ship", 0, || shipper.ship(&mut leader_end, mark)) {
                        Ok(report) => break report,
                        // `wal::list_sealed_segments` reads every file it
                        // lists, so a checkpoint deleting an acknowledged
                        // segment mid-listing fails the round; the segment
                        // held nothing the follower needs, so go again.
                        Err(SynopticError::Io { path, .. })
                            if path.ends_with(".wal") && !Path::new(&path).exists() =>
                        {
                            log.retries += 1;
                        }
                        Err(e) => return Err(e.into()),
                    }
                };
                log.ship_ms.push(ms_since(started));
                log.segments.push(report.shipped as f64);
                acked = acked.max(report.acked_lsn);
                waiting.retain(|&(lsn, sealed)| {
                    if lsn <= acked {
                        log.ack_ms.push(ms_since(sealed));
                        false
                    } else {
                        true
                    }
                });
                if let Some(journal) = col.journal() {
                    journal.set_retention_hold(REPLICA_HOLD, acked);
                    log.lag_records
                        .push(journal.pending_mark().saturating_sub(acked) as f64);
                }
            }
            Ok((log, leader_end))
        })
    };
    Ok((
        col,
        Replication {
            seal_tx,
            shipper,
            follower,
            persist_ms,
        },
    ))
}

/// The request header: a tenant plus a generous deadline, or none.
fn header(headered: bool) -> RequestHeader {
    if headered {
        RequestHeader {
            deadline_ms: Some(DEADLINE_MS),
            tenant: Some("bench".to_string()),
            degrade_ok: false,
        }
    } else {
        RequestHeader::default()
    }
}

/// When a closed loop stops.
#[derive(Clone, Copy)]
enum Until {
    Cycles(usize),
    Deadline(Instant),
}

/// What one closed-loop phase measured.
#[derive(Default)]
struct Phase {
    seconds: f64,
    requests: u64,
    failed: u64,
    estimate_us: Vec<f64>,
    update_us: Vec<f64>,
    deltas_acked: u64,
    /// Rebuild lag the server reported with each answered batch.
    lags: Vec<f64>,
    /// (acknowledged at, cumulative deltas acknowledged) per update batch.
    acks: Vec<(Instant, u64)>,
    checked: u64,
    skipped: u64,
    recorded_ranges: Vec<Vec<RangeQuery>>,
    recorded_deltas: Vec<Vec<(u64, i64)>>,
    recorded_answers: Vec<BatchAnswer>,
}

impl Phase {
    fn primary_us(&mut self, kind: Kind) -> &mut Vec<f64> {
        match kind {
            Kind::Hot => &mut self.estimate_us,
            Kind::Durable => &mut self.update_us,
        }
    }
}

/// Drives the closed loop: each request is sent only after the previous
/// reply arrived. Every answered batch is checked, on a sample of its
/// ranges, bit for bit against the in-process estimator pinned at the
/// same generation; every acknowledged update is applied to `shadow`.
#[allow(clippy::too_many_arguments)]
fn drive(
    stack: &mut Stack,
    shape: &Shape,
    traffic: &mut Traffic,
    shadow: &mut [i64],
    until: Until,
    tracer: &Tracer,
    record: bool,
    report: &mut Report,
) -> Res<Phase> {
    let header = header(shape.headered);
    let mut reader = stack.col.reader();
    let mut phase = Phase::default();
    let started = Instant::now();
    let mut cycle = 0usize;
    loop {
        match until {
            Until::Cycles(c) if cycle >= c => break,
            Until::Deadline(d) if Instant::now() >= d => break,
            _ => {}
        }
        cycle += 1;
        for _ in 0..shape.estimates_per_update {
            let ranges = traffic.estimate();
            let id = phase.requests;
            phase.requests += 1;
            let sent = Instant::now();
            let answer = tracer.span("serve.client_estimate", id, || {
                stack
                    .client
                    .estimate_batch_with(&header, COLUMN, ranges.clone())
            });
            let us = sent.elapsed().as_secs_f64() * 1e6;
            match answer {
                Ok(answer) => {
                    phase.estimate_us.push(us);
                    phase.lags.push(answer.lag as f64);
                    if answer.rung.is_some() {
                        phase.failed += 1;
                    }
                    let (generation, est) = reader.pinned();
                    report.check(answer.values.len() == ranges.len(), || {
                        format!(
                            "batch {id}: {} answers for {} ranges",
                            answer.values.len(),
                            ranges.len()
                        )
                    });
                    if generation == answer.generation {
                        phase.checked += 1;
                        for j in 0..4 {
                            let k = (id as usize * 7 + j * 9) % ranges.len();
                            let local = est.estimate(ranges[k]);
                            report.check(local.to_bits() == answer.values[k].to_bits(), || {
                                format!(
                                    "batch {id} range {:?}: served {} but in-process {local} at generation {generation}",
                                    ranges[k], answer.values[k]
                                )
                            });
                        }
                    } else {
                        phase.skipped += 1;
                    }
                    if record && phase.recorded_ranges.len() < RECORDED {
                        phase.recorded_ranges.push(ranges);
                        phase.recorded_answers.push(answer);
                    }
                }
                Err(e) => {
                    phase.failed += 1;
                    eprintln!("estimate batch {id} failed: {e}");
                    reconnect(stack)?;
                }
            }
        }
        let deltas = traffic.update();
        let id = phase.requests;
        phase.requests += 1;
        let sent = Instant::now();
        let acked = tracer.span("serve.client_update", id, || {
            stack.client.update_with(&header, COLUMN, deltas.clone())
        });
        let us = sent.elapsed().as_secs_f64() * 1e6;
        match acked {
            Ok((applied, _)) => {
                phase.update_us.push(us);
                report.check(applied == deltas.len() as u64, || {
                    format!("update {id}: {applied} of {} deltas applied", deltas.len())
                });
                for &(i, d) in &deltas {
                    shadow[i as usize] += d;
                }
                phase.deltas_acked += applied;
                phase.acks.push((Instant::now(), phase.deltas_acked));
                if record && phase.recorded_deltas.len() < RECORDED {
                    phase.recorded_deltas.push(deltas);
                }
            }
            Err(e) => {
                phase.failed += 1;
                eprintln!("update batch {id} failed: {e}");
                reconnect(stack)?;
            }
        }
    }
    phase.seconds = started.elapsed().as_secs_f64();
    report.attempted += phase.requests;
    report.failed += phase.failed;
    Ok(phase)
}

/// A failed call may poison the connection; open a fresh one.
fn reconnect(stack: &mut Stack) -> Res<()> {
    if stack.client.is_poisoned() {
        stack.client = Client::connect(&stack.addr)?;
    }
    Ok(())
}

/// Samples `updates − updates_since_rebuild` (the updates the serving
/// synopsis covers) every millisecond until stopped.
fn freshness_monitor(col: ColumnHandle, stop: Arc<AtomicBool>) -> JoinHandle<Vec<(Instant, u64)>> {
    thread::spawn(move || {
        let mut samples = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            let s = col.stats();
            samples.push((Instant::now(), s.updates - s.updates_since_rebuild));
            thread::sleep(Duration::from_millis(1));
        }
        samples
    })
}

/// Time from each update batch's acknowledgement until a rebuild covered
/// it, for the batches a rebuild covered before the run ended.
fn freshness_ms(acks: &[(Instant, u64)], base: u64, samples: &[(Instant, u64)]) -> Vec<f64> {
    let mut out = Vec::new();
    let mut s = 0usize;
    for &(at, cumulative) in acks {
        let target = base + cumulative;
        while s < samples.len() && (samples[s].0 < at || samples[s].1 < target) {
            s += 1;
        }
        match samples.get(s) {
            Some(&(covered_at, _)) => out.push((covered_at - at).as_secs_f64() * 1e3),
            None => break,
        }
    }
    out
}

/// Squared-error ratio of the serving synopsis against NAIVE over `eval`,
/// with exact answers from the shadow; also checks the column's exact
/// Fenwick sums against the shadow on the same ranges.
fn sse_ratio(col: &ColumnHandle, shadow: &[i64], eval: &[RangeQuery], report: &mut Report) -> f64 {
    let ps = PrefixSums::from_values(shadow);
    let naive = NaiveEstimator::new(&ps);
    let est = col.estimator();
    let (mut err, mut base) = (0.0, 0.0);
    for &q in eval {
        let exact = ps.answer(q);
        report.check(col.exact(q) == exact, || {
            format!(
                "exact sum of {q:?}: column {} vs shadow {exact}",
                col.exact(q)
            )
        });
        err += (exact as f64 - est.estimate(q)).powi(2);
        base += (exact as f64 - naive.estimate(q)).powi(2);
    }
    err / base
}

/// Runs one serving workload and records its metrics into `report`.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
    tracer: &Arc<Tracer>,
    scratch: &Path,
    report: &mut Report,
) -> Res<()> {
    let shape = Shape::of(kind);
    let values = inputs::column_values(seed);

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for k in 0..SETUPS {
        let started = Instant::now();
        let stack = Stack::up(&shape, &values, &scratch.join(format!("stack{k}")), tracer)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            stack.down()?;
        } else {
            kept = Some(stack);
        }
    }
    println!("set-up times (s): {setup_s:.3?}");
    report.put("setup_s", p50(&mut setup_s), "s");
    let mut stack = kept.ok_or("no stack was set up")?;

    // Warm-up: a fixed prefix of the seeded stream, then a forced rebuild,
    // so caches are warm and the accuracy figure is fixed by the seed.
    let mut shadow = values.clone();
    let mut traffic = Traffic::new(seed, &shape);
    let mut warm = Report::default();
    drive(
        &mut stack,
        &shape,
        &mut traffic,
        &mut shadow,
        Until::Cycles(WARMUP_CYCLES),
        tracer,
        false,
        &mut warm,
    )?;
    report.attempted += warm.attempted;
    report.failed += warm.failed;
    stack.col.quiesce();
    stack.col.request_rebuild()?;
    stack.col.quiesce();
    let mut eval = inputs::hot_set(seed, HOT_RANGES);
    let mut eval_rng = Rng::new(seed ^ 0x0E7A_1000);
    eval.extend((0..EVAL_RANGES).map(|_| inputs::random_range(&mut eval_rng)));
    let ratio = sse_ratio(&stack.col, &shadow, &eval, report);
    report.put("sse_ratio", ratio, "ratio");

    let before = stack.col.stats();
    let stop = Arc::new(AtomicBool::new(false));
    let monitor =
        (kind == Kind::Durable).then(|| freshness_monitor(stack.col.clone(), Arc::clone(&stop)));
    let untraced_s = if traced { seconds / 2.0 } else { seconds };
    let mut phase = drive(
        &mut stack,
        &shape,
        &mut traffic,
        &mut shadow,
        Until::Deadline(Instant::now() + Duration::from_secs_f64(untraced_s)),
        tracer,
        false,
        report,
    )?;
    stop.store(true, Ordering::Relaxed);
    let samples = match monitor {
        Some(m) => m.join().map_err(|_| "freshness monitor panicked")?,
        None => Vec::new(),
    };
    let freshness = freshness_ms(&phase.acks, before.updates, &samples);

    report.put(
        "requests_per_s",
        phase.requests as f64 / phase.seconds,
        "1/s",
    );
    let primary_p50 = p50(phase.primary_us(kind));
    report.put("latency_p50_us", primary_p50, "us");
    let (primary_tail, pct) = tail(phase.primary_us(kind));
    report.put("latency_tail_us", primary_tail, "us");
    report.put("latency_tail_pct", pct, "%");
    report.put("estimate_p50_us", p50(&mut phase.estimate_us), "us");
    report.put("estimate_p99_us", tail(&mut phase.estimate_us).0, "us");
    report.put("update_p50_us", p50(&mut phase.update_us), "us");
    report.put("update_p99_us", tail(&mut phase.update_us).0, "us");
    report.put(
        "updates_per_s",
        phase.deltas_acked as f64 / phase.seconds,
        "1/s",
    );
    report.put("freshness_p50_ms", p50(&mut freshness.clone()), "ms");
    report.put("stream.stale_updates_p50", p50(&mut phase.lags), "count");
    println!(
        "{} requests in {:.2}s {} batches checked against the in-process estimator, {} skipped (generation moved); {} of {} acknowledged batches covered by a rebuild before the end",
        phase.requests,
        phase.seconds,
        phase.checked,
        phase.skipped,
        freshness.len(),
        phase.acks.len()
    );

    if traced {
        let wire_estimate_p50_us = p50(&mut phase.estimate_us);
        tracer.enable();
        let mut traced_phase = drive(
            &mut stack,
            &shape,
            &mut traffic,
            &mut shadow,
            Until::Deadline(Instant::now() + Duration::from_secs_f64(seconds - untraced_s)),
            tracer,
            true,
            report,
        )?;
        report.put(
            "trace.overhead_frac",
            p50(traced_phase.primary_us(kind)) / primary_p50 - 1.0,
            "ratio",
        );
        let stats = stack.client.stats_with(&header(true), COLUMN)?;
        layers::server_counters(&stats, report);
        layers::column_counters(&stack.col.stats(), report);
        let header = header(shape.headered);
        let recorded = &traced_phase;
        layers::api(
            &header,
            &recorded.recorded_ranges,
            &recorded.recorded_deltas,
            &recorded.recorded_answers,
            tracer,
            report,
        );
        layers::serve_inproc(
            &stack.server,
            &header,
            &recorded.recorded_ranges,
            &recorded.recorded_deltas,
            wire_estimate_p50_us,
            tracer,
            report,
        )?;
        let deltas: Vec<(u64, i64)> = recorded.recorded_deltas.concat();
        for &(i, d) in &deltas {
            shadow[i as usize] += d;
        }
        layers::core(&stack.col, &recorded.recorded_ranges, tracer, report);
        layers::stream_twin(
            kind,
            &shadow,
            &deltas,
            &scratch.join("twin"),
            tracer,
            report,
        )?;
        // The highest segment: the one both workloads' updates dirty most.
        let width = N / SEGMENTS;
        layers::hist_replay(&shadow[N - width..], tracer, report)?;
        if kind == Kind::Durable {
            layers::wal_append(&deltas, &scratch.join("wal-replay"), tracer, report)?;
        }
    }

    let final_values = |report: &mut Report, what: &str, got: &[i64]| {
        report.check(got == shadow.as_slice(), || {
            let first = got.iter().zip(&shadow).position(|(a, b)| a != b);
            format!("{what} differ from the shadow of acknowledged deltas (first at {first:?})")
        });
    };
    let leader: Vec<i64> = (0..N)
        .map(|i| stack.col.exact(RangeQuery::point(i)) as i64)
        .collect();
    final_values(report, "leader exact sums", &leader);
    let down = stack.down()?;
    if kind == Kind::Durable {
        let follower = down.follower.as_ref().ok_or("no follower")?;
        report.check(
            follower.applied_lsn(COLUMN) == Some(down.leader_mark),
            || {
                format!(
                    "follower applied lsn {:?}, leader mark {}",
                    follower.applied_lsn(COLUMN),
                    down.leader_mark
                )
            },
        );
        final_values(
            report,
            "follower frequencies",
            follower.values(COLUMN).unwrap_or(&[]),
        );
        report.put(
            "replica_ack_p50_ms",
            p50(&mut down.ship.ack_ms.clone()),
            "ms",
        );
        if traced {
            report.put(
                "catalog.persist_ms",
                p50(&mut down.persist_ms.clone()),
                "ms",
            );
            report.put("repl.ship_ms", p50(&mut down.ship.ship_ms.clone()), "ms");
            let rounds = down.ship.segments.len().max(1) as f64;
            report.put(
                "repl.segments_per_ship",
                down.ship.segments.iter().sum::<f64>() / rounds,
                "count",
            );
            report.put("repl.ship_retries", down.ship.retries as f64, "count");
            report.put(
                "repl.follower_lag_records",
                p50(&mut down.ship.lag_records.clone()),
                "count",
            );
        }
    }
    report.put(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    Ok(())
}

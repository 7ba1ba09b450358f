//! The serving tier: batched query execution over pinned snapshots, with
//! admission control, deadline propagation, and graceful degradation.
//!
//! A [`Server`] owns a set of maintained columns
//! ([`ColumnHandle`]s from a `MaintainedPool`) and answers the four-verb
//! protocol of `synoptic-api` over any [`Transport`] — a real TCP
//! listener in production ([`Server::serve`]), an in-memory pair or a
//! fault-injecting wrapper in tests ([`Server::handle_transport`]).
//!
//! ## Batching: one pin per batch
//!
//! Every [`Request::EstimateBatch`] is answered against a **single
//! snapshot pin**: the column's handle is pinned once
//! ([`ColumnHandle::pin`]), and every range in the batch reads the same
//! `Arc` snapshot at the same generation, stamped with the provenance of
//! the build that produced it. The column is looked up by name for every
//! batch, so a column re-registered under the same name serves the very
//! next batch on every connection. A rebuild landing mid-batch
//! cannot split the batch across snapshots — the response's
//! batch-wide `generation` is the proof, and the answers are mutually
//! consistent (e.g. a full-range sum equals the sum of its halves).
//!
//! ## Deadline propagation
//!
//! A headered request carrying `deadline_ms` is executed under a
//! per-request [`Budget`] with that remaining time as its wall-clock
//! deadline. Work that is **already expired on arrival** is shed before
//! execution with [`SynopticError::DeadlineExceeded`] and elapsed
//! provenance — the cheapest request is the one never run — and the
//! estimate loop checkpoints the budget per range, so a deadline firing
//! mid-batch aborts with the same structured error instead of burning
//! the remaining ranges. Update batches only check the deadline on
//! arrival: aborting half-applied deltas would trade a latency bound for
//! a consistency surprise.
//!
//! ## Admission control
//!
//! Four bounds, each refusing with
//! [`SynopticError::ServerOverloaded`] (exit code 10) carrying the
//! observed value and the configured limit:
//!
//! * **queue depth** — requests in flight across all connections;
//! * **rebuild lag** — a column whose `updates_since_rebuild` exceeds
//!   the bound refuses estimates (mirroring the replication tier's
//!   `ReplicationLagExceeded`: better loud refusal than a silently
//!   stale answer);
//! * **tenant token bucket** — each tenant (the request header's
//!   `tenant`; un-headered clients share `""`) spends one token per
//!   served estimate or update from a [`TenantBuckets`] bucket, refilled
//!   on the configured clock. The refusal names the tenant;
//! * **connection cap** — concurrent connections, refused at accept.
//!
//! Ordering is part of the contract: a request shed for queue depth,
//! rebuild lag, or an expired deadline **never consumes a token** —
//! admission refusals must not double-penalize the client being shed —
//! and `Stats` requests bypass queue-depth/lag/token admission entirely,
//! because monitoring has to keep working precisely when the server is
//! refusing everything else.
//!
//! ## The degradation ladder
//!
//! When queue depth or rebuild lag would refuse an estimate and the
//! request set `degrade_ok`, the server descends an anytime ladder
//! (mirroring the build-side `build_anytime` fallback chain) instead of
//! refusing, and stamps the rung into the answer
//! ([`DegradeRung`]) so degradation is **never silent**:
//!
//! 1. **cache-hit** — every range answered from the generation-keyed
//!    cache at the pinned generation: zero compute, values as fresh as a
//!    normal answer.
//! 2. **last-good** — lag shed only: computed from the pinned (serving)
//!    synopsis at whatever lag it has, stamped
//!    `AnswerSource::FallbackGeneration` with the lag field saying how
//!    stale.
//! 3. **naive** — queue shed only: the column's total mass (one cached
//!    full-range estimate) spread uniformly over each range, stamped
//!    `AnswerSource::FallbackNaive`. Full per-range compute under queue
//!    pressure is exactly what must be avoided, so the ladder skips the
//!    last-good rung there.
//!
//! A degraded answer still consumes a tenant token — it is served work.
//!
//! Refusals are responses, not disconnects: the client keeps its
//! connection and may back off and retry.
//!
//! [`Budget`]: synoptic_core::Budget
//! [`DegradeRung`]: synoptic_api::wire::DegradeRung

use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use synoptic_api::wire::{
    decode_request_with, encode_response, encode_response_extended, BatchAnswer, DegradeRung,
    QueryBatch, Request, RequestHeader, Response, ServerStats,
};
use synoptic_core::{AnswerSource, Budget, RangeQuery, SynopticError};
use synoptic_repl::{Clock, Received, TcpTransport, Transport, WallClock};
use synoptic_stream::{ColumnHandle, PinnedBuild};

use crate::admission::TenantBuckets;
use crate::cache::AnswerCache;
use crate::histo::LatencyHistogram;

/// Serving-tier bounds and tunables. The CLI validates user input before
/// constructing one; the defaults suit tests and small deployments.
#[derive(Clone)]
pub struct ServeConfig {
    /// Most ranges accepted in one [`Request::EstimateBatch`].
    pub max_batch: usize,
    /// Most requests in flight across all connections before refusal.
    pub max_queue_depth: u64,
    /// Refuse estimates for a column whose updates-since-rebuild exceed
    /// this (`None` = never refuse on lag).
    pub max_rebuild_lag: Option<u64>,
    /// Token-bucket capacity per tenant (`None` = unmetered). Each
    /// served estimate or update spends one token.
    pub tenant_burst: Option<u64>,
    /// Clock ticks (milliseconds on the default clock) for a tenant
    /// bucket to earn one token back; `0` = rate-unlimited.
    pub tenant_refill_ms: u64,
    /// Hot-range answer cache capacity per column (entries; 0 disables).
    pub cache_capacity: usize,
    /// Most concurrent connections before refusal-at-accept.
    pub max_connections: u64,
    /// How often an idle connection loop wakes to check for shutdown.
    pub poll_interval: Duration,
    /// The clock token-bucket refill runs on — [`WallClock`] in
    /// production, a `ManualClock` in tests so refill is deterministic.
    pub clock: Arc<dyn Clock>,
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("max_batch", &self.max_batch)
            .field("max_queue_depth", &self.max_queue_depth)
            .field("max_rebuild_lag", &self.max_rebuild_lag)
            .field("tenant_burst", &self.tenant_burst)
            .field("tenant_refill_ms", &self.tenant_refill_ms)
            .field("cache_capacity", &self.cache_capacity)
            .field("max_connections", &self.max_connections)
            .field("poll_interval", &self.poll_interval)
            .finish_non_exhaustive()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 4096,
            max_queue_depth: 256,
            max_rebuild_lag: None,
            tenant_burst: None,
            tenant_refill_ms: 100,
            cache_capacity: 4096,
            max_connections: 256,
            poll_interval: Duration::from_millis(50),
            clock: Arc::new(WallClock::new()),
        }
    }
}

/// One served column: its pool handle plus its shared answer cache.
struct ColumnState {
    handle: ColumnHandle,
    cache: AnswerCache,
}

struct Inner {
    config: ServeConfig,
    columns: Mutex<HashMap<String, Arc<ColumnState>>>,
    tenants: TenantBuckets,
    /// Requests being processed right now, across all connections.
    inflight: AtomicU64,
    /// Requests refused by admission control since start.
    refused: AtomicU64,
    /// Requests shed pre-execution on an already-expired deadline.
    deadline_sheds: AtomicU64,
    /// Estimates answered by the degradation ladder instead of refused.
    degraded: AtomicU64,
    /// Connections accepted since start.
    connections: AtomicU64,
    /// Connections currently open.
    active: AtomicU64,
    /// Service latency of answered estimate batches (µs, log2 buckets).
    lat_estimate: LatencyHistogram,
    /// Service latency of answered update batches (µs, log2 buckets).
    lat_update: LatencyHistogram,
    shutdown: AtomicBool,
    /// Addresses of the listeners [`Server::serve`] is blocked on, which
    /// [`Server::shutdown`] connects to so their `accept` returns.
    listening: Mutex<Vec<SocketAddr>>,
}

/// How long [`Server::shutdown`] waits to connect to a blocked listener.
const SHUTDOWN_WAKE_TIMEOUT: Duration = Duration::from_millis(500);

/// Where to connect to reach a listener bound to `addr`: an unspecified
/// IP (`0.0.0.0`, `::`) is reached through the loopback of its family.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Decrements a gauge on drop, so early returns cannot leak a slot.
struct GaugeGuard<'a>(&'a AtomicU64);

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Why admission would shed an estimate — and therefore which ladder
/// rung set a `degrade_ok` batch descends to.
enum ShedReason {
    QueueDepth { observed: u64, limit: u64 },
    RebuildLag { observed: u64, limit: u64 },
}

/// The batched serving front-end (see the module docs). Cheap to clone;
/// clones share the column set, caches, and admission meters.
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

impl Server {
    /// A server with no columns yet; register them with
    /// [`Server::register`].
    pub fn new(config: ServeConfig) -> Self {
        let tenants = TenantBuckets::new(
            config.tenant_burst,
            config.tenant_refill_ms,
            Arc::clone(&config.clock),
        );
        Self {
            inner: Arc::new(Inner {
                config,
                columns: Mutex::new(HashMap::new()),
                tenants,
                inflight: AtomicU64::new(0),
                refused: AtomicU64::new(0),
                deadline_sheds: AtomicU64::new(0),
                degraded: AtomicU64::new(0),
                connections: AtomicU64::new(0),
                active: AtomicU64::new(0),
                lat_estimate: LatencyHistogram::new(),
                lat_update: LatencyHistogram::new(),
                shutdown: AtomicBool::new(false),
                listening: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Serves `handle` under its column name. Re-registering a name
    /// replaces the column (and starts a fresh cache); open connections
    /// notice the replacement on their next batch (each connection's cached
    /// reader compares the column's identity) and answer from it.
    pub fn register(&self, handle: ColumnHandle) {
        let capacity = self.inner.config.cache_capacity;
        lock(&self.inner.columns).insert(
            handle.name().to_string(),
            Arc::new(ColumnState {
                handle,
                cache: AnswerCache::new(capacity),
            }),
        );
    }

    /// Asks the accept loop and every connection loop to wind down. Each
    /// blocked [`Server::serve`] is woken by a connection to its
    /// listener; connection loops notice within `poll_interval`.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Held across the wake-ups, so a `serve` cannot drop its listener
        // (and free the port for someone else) while being connected to.
        let listening = lock(&self.inner.listening);
        for addr in listening.iter() {
            let _ = TcpStream::connect_timeout(&wake_addr(*addr), SHUTDOWN_WAKE_TIMEOUT);
        }
    }

    fn column(&self, name: &str) -> Option<Arc<ColumnState>> {
        lock(&self.inner.columns).get(name).cloned()
    }

    fn refuse(&self, what: &str, observed: u64, limit: u64) -> Response {
        self.inner.refused.fetch_add(1, Ordering::Relaxed);
        Response::Error(SynopticError::ServerOverloaded {
            what: what.to_string(),
            observed,
            limit,
        })
    }

    /// Spends one token from the request's tenant bucket, refusing with
    /// the tenant named when the bucket is dry. Called only once the
    /// server has committed to serving (normally or degraded) — sheds
    /// and refusals upstream never reach it.
    fn take_token(&self, header: &RequestHeader) -> Result<(), Box<Response>> {
        let tenant = header.tenant_or_default();
        match self.inner.tenants.try_take(tenant) {
            Ok(()) => Ok(()),
            Err((observed, limit)) => Err(Box::new(self.refuse(
                &format!("tenant {tenant:?} token bucket"),
                observed,
                limit,
            ))),
        }
    }

    /// Accept loop: serves connections until [`Server::shutdown`] (or the
    /// process exits). Each connection runs [`Server::handle_transport`]
    /// on its own thread.
    ///
    /// The accept blocks (the listener is switched to blocking mode);
    /// `shutdown` wakes it by connecting to the listener, and that
    /// connection, like any accepted after the shutdown flag is set, is
    /// dropped unserved.
    pub fn serve(&self, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(false)?;
        let addr = listener.local_addr()?;
        {
            // Checked under the lock `shutdown` takes after setting the
            // flag: either this sees the flag, or `shutdown` sees `addr`.
            let mut listening = lock(&self.inner.listening);
            if self.inner.shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            listening.push(addr);
        }
        let served = self.accept_loop(&listener);
        let mut listening = lock(&self.inner.listening);
        if let Some(i) = listening.iter().position(|a| *a == addr) {
            listening.swap_remove(i);
        }
        served
    }

    fn accept_loop(&self, listener: &TcpListener) -> std::io::Result<()> {
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            let accepted = listener.accept();
            if self.inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match accepted {
                Ok((stream, _peer)) => {
                    let server = self.clone();
                    workers.push(std::thread::spawn(move || {
                        let mut transport = TcpTransport::from_stream(stream);
                        server.handle_transport(&mut transport);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            workers.retain(|w| !w.is_finished());
        }
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }

    /// Serves one connection over any [`Transport`] until the peer closes
    /// (or shutdown). Exposed so tests drive the exact production code
    /// path through `MemTransport` pairs and `FaultyTransport` wrappers.
    ///
    /// A frame that fails validation (torn, bit-flipped, truncated) is
    /// answered with the decode error and the connection keeps serving —
    /// corruption refuses the *frame*, never the link.
    pub fn handle_transport(&self, transport: &mut dyn Transport) {
        self.inner.connections.fetch_add(1, Ordering::SeqCst);
        let active = self.inner.active.fetch_add(1, Ordering::SeqCst) + 1;
        let _active_guard = GaugeGuard(&self.inner.active);
        if active > self.inner.config.max_connections {
            let refusal = self.refuse(
                "connection quota",
                active,
                self.inner.config.max_connections,
            );
            let _ = transport.send(&encode_response(&refusal));
            transport.close();
            return;
        }
        loop {
            match transport.recv(Some(self.inner.config.poll_interval)) {
                Ok(Received::Frame(bytes)) => {
                    let (headered, response) = self.respond(&bytes);
                    // Responses speak the dialect of their request: only
                    // headered (PR-10+) clients receive extended frames.
                    let encoded = if headered {
                        encode_response_extended(&response)
                    } else {
                        encode_response(&response)
                    };
                    if transport.send(&encoded).is_err() {
                        return;
                    }
                }
                Ok(Received::TimedOut) => {
                    if self.inner.shutdown.load(Ordering::SeqCst) {
                        transport.close();
                        return;
                    }
                }
                Ok(Received::Closed) | Err(_) => return,
            }
        }
    }

    /// Decodes and executes one request frame, producing exactly one
    /// response plus whether the request carried a header (which selects
    /// the response dialect). Never panics on wire input: malformed bytes
    /// become the decode error, refusals become
    /// [`SynopticError::ServerOverloaded`].
    fn respond(&self, bytes: &[u8]) -> (bool, Response) {
        let (header, request) = match decode_request_with(bytes) {
            Ok(r) => r,
            Err(e) => return (false, Response::Error(e)),
        };
        let headered = !header.is_empty();
        let started = Instant::now();
        // Deadline propagation: the header's remaining time becomes this
        // request's budget; already-expired work is shed before any
        // admission check or execution touches it.
        let budget = match header.deadline_ms {
            Some(0) => {
                self.inner.deadline_sheds.fetch_add(1, Ordering::Relaxed);
                return (
                    headered,
                    Response::Error(SynopticError::DeadlineExceeded { elapsed_ms: 0 }),
                );
            }
            Some(ms) => {
                let budget = Budget::unlimited().with_deadline(Duration::from_millis(ms));
                if let Err(e) = budget.check() {
                    self.inner.deadline_sheds.fetch_add(1, Ordering::Relaxed);
                    return (headered, Response::Error(e));
                }
                budget
            }
            None => Budget::unlimited(),
        };
        let inflight = self.inner.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        let _inflight_guard = GaugeGuard(&self.inner.inflight);
        let over_queue = inflight > self.inner.config.max_queue_depth;
        let response = match request {
            // Stats bypass queue-depth/lag/token admission: monitoring
            // must keep working precisely when everything else is being
            // refused.
            Request::Stats { column } => self.stats_for(&column),
            Request::Ping => {
                if over_queue {
                    self.refuse("queue depth", inflight, self.inner.config.max_queue_depth)
                } else {
                    Response::Pong
                }
            }
            Request::EstimateBatch(batch) => {
                let resp = self.estimate_batch(&header, &budget, &batch, inflight);
                if matches!(resp, Response::Estimates(_)) {
                    self.inner
                        .lat_estimate
                        .record(started.elapsed().as_micros() as u64);
                }
                resp
            }
            Request::Update { column, deltas } => {
                if over_queue {
                    self.refuse("queue depth", inflight, self.inner.config.max_queue_depth)
                } else if let Err(refusal) = self.take_token(&header) {
                    *refusal
                } else {
                    let resp = self.apply_updates(&column, &deltas);
                    if matches!(resp, Response::Updated { .. }) {
                        self.inner
                            .lat_update
                            .record(started.elapsed().as_micros() as u64);
                    }
                    resp
                }
            }
        };
        (headered, response)
    }

    fn estimate_batch(
        &self,
        header: &RequestHeader,
        budget: &Budget,
        batch: &QueryBatch,
        inflight: u64,
    ) -> Response {
        let name = &batch.column;
        let Some(col) = self.column(name) else {
            return Response::Error(unknown_column(name));
        };
        if batch.ranges.len() > self.inner.config.max_batch {
            return Response::Error(SynopticError::InvalidParameter(format!(
                "batch of {} ranges exceeds the configured maximum {}",
                batch.ranges.len(),
                self.inner.config.max_batch
            )));
        }
        let stats = col.handle.stats();
        let lag = stats.updates_since_rebuild;
        // Which admission bound would shed this estimate, if any. Queue
        // depth outranks lag: it is the cheaper observation and the one
        // that caps work the soonest.
        let shed = if inflight > self.inner.config.max_queue_depth {
            Some(ShedReason::QueueDepth {
                observed: inflight,
                limit: self.inner.config.max_queue_depth,
            })
        } else {
            self.inner.config.max_rebuild_lag.and_then(|max_lag| {
                (lag > max_lag).then_some(ShedReason::RebuildLag {
                    observed: lag,
                    limit: max_lag,
                })
            })
        };
        if let Some(reason) = &shed {
            if !header.degrade_ok {
                // A shed request never consumes a tenant token — the
                // refusal IS the whole service it gets.
                let (what, observed, limit) = match reason {
                    ShedReason::QueueDepth { observed, limit } => {
                        ("queue depth", *observed, *limit)
                    }
                    ShedReason::RebuildLag { observed, limit } => {
                        ("rebuild lag", *observed, *limit)
                    }
                };
                return self.refuse(what, observed, limit);
            }
        }
        // Past here the server is committed to serving (normally or
        // degraded): this is where the tenant pays.
        if let Err(refusal) = self.take_token(header) {
            return *refusal;
        }
        // The batch's one snapshot pin: every range below reads this Arc
        // at this generation, no matter what hot-swaps mid-batch.
        let pin = col.handle.pin();
        let n = pin.estimator.n();
        for q in &batch.ranges {
            if q.hi >= n {
                return Response::Error(SynopticError::IndexOutOfBounds { index: q.hi, n });
            }
        }
        if let Some(reason) = shed {
            return self.degraded_batch(&col, pin, lag, reason, batch);
        }
        let PinnedBuild {
            generation,
            estimator: snapshot,
            outcome,
            segment_outcomes,
        } = pin;
        let mut values = Vec::with_capacity(batch.ranges.len());
        let mut cached = Vec::with_capacity(batch.ranges.len());
        for q in &batch.ranges {
            // The per-range deadline checkpoint: a deadline firing
            // mid-batch aborts loudly with elapsed provenance instead of
            // finishing late.
            if let Err(e) = budget.charge(1) {
                return Response::Error(e);
            }
            match col.cache.lookup(generation, q.lo, q.hi) {
                Some(v) => {
                    values.push(v);
                    cached.push(true);
                }
                None => {
                    let v = snapshot.estimate(*q);
                    col.cache.store(generation, q.lo, q.hi, v);
                    values.push(v);
                    cached.push(false);
                }
            }
        }
        Response::Estimates(BatchAnswer {
            generation,
            source: AnswerSource::Primary,
            lag,
            outcome,
            segment_outcomes,
            values,
            cached,
            rung: None,
        })
    }

    /// The serving-side anytime ladder (module docs §degradation): the
    /// request opted in with `degrade_ok`, admission would have shed it,
    /// so answer as cheaply as honesty allows — and stamp the rung.
    fn degraded_batch(
        &self,
        col: &ColumnState,
        pin: PinnedBuild,
        lag: u64,
        reason: ShedReason,
        batch: &QueryBatch,
    ) -> Response {
        self.inner.degraded.fetch_add(1, Ordering::Relaxed);
        let PinnedBuild {
            generation,
            estimator: snapshot,
            outcome,
            segment_outcomes,
        } = pin;
        // Rung 1 — cache-hit: if every range is in the generation-keyed
        // cache, the answer costs nothing and is as fresh as a normal
        // one. All-or-nothing: a partial probe descends.
        let hits: Vec<f64> = batch
            .ranges
            .iter()
            .map_while(|q| col.cache.lookup(generation, q.lo, q.hi))
            .collect();
        if hits.len() == batch.ranges.len() {
            return Response::Estimates(BatchAnswer {
                generation,
                source: AnswerSource::Primary,
                lag,
                outcome,
                segment_outcomes,
                cached: vec![true; hits.len()],
                values: hits,
                rung: Some(DegradeRung::CacheHit),
            });
        }
        match reason {
            // Rung 2 — last-good: the lag bound shed us, but the pinned
            // snapshot still answers; serve it at whatever lag it has,
            // stamped as a generation fallback so the staleness is loud.
            ShedReason::RebuildLag { .. } => {
                let mut values = Vec::with_capacity(batch.ranges.len());
                let mut cached = Vec::with_capacity(batch.ranges.len());
                for q in &batch.ranges {
                    match col.cache.lookup(generation, q.lo, q.hi) {
                        Some(v) => {
                            values.push(v);
                            cached.push(true);
                        }
                        None => {
                            let v = snapshot.estimate(*q);
                            col.cache.store(generation, q.lo, q.hi, v);
                            values.push(v);
                            cached.push(false);
                        }
                    }
                }
                Response::Estimates(BatchAnswer {
                    generation,
                    source: AnswerSource::FallbackGeneration { generation },
                    lag,
                    outcome,
                    segment_outcomes,
                    values,
                    cached,
                    rung: Some(DegradeRung::LastGood),
                })
            }
            // Rung 3 — naive: under queue pressure even per-range synopsis
            // walks are work worth shedding. One (cached) full-range
            // estimate gives the column's total mass; spread it uniformly.
            ShedReason::QueueDepth { .. } => {
                let n = snapshot.n();
                let full = RangeQuery::new(0, n - 1).expect("n >= 1 for a served column");
                let total = match col.cache.lookup(generation, full.lo, full.hi) {
                    Some(v) => v,
                    None => {
                        let v = snapshot.estimate(full);
                        col.cache.store(generation, full.lo, full.hi, v);
                        v
                    }
                };
                let values: Vec<f64> = batch
                    .ranges
                    .iter()
                    .map(|q| total * ((q.hi - q.lo + 1) as f64) / (n as f64))
                    .collect();
                Response::Estimates(BatchAnswer {
                    generation,
                    source: AnswerSource::FallbackNaive,
                    lag,
                    outcome,
                    segment_outcomes,
                    cached: vec![false; values.len()],
                    values,
                    rung: Some(DegradeRung::Naive),
                })
            }
        }
    }

    fn apply_updates(&self, name: &str, deltas: &[(u64, i64)]) -> Response {
        let Some(col) = self.column(name) else {
            return Response::Error(unknown_column(name));
        };
        // One batch, whole or nothing: a bad index or a failed journal
        // append refuses it untouched. The only error after it applies is
        // `WorkerUnavailable` (docs/SERVING.md §2).
        let batch: Vec<(usize, i64)> = deltas
            .iter()
            .map(|&(i, d)| (usize::try_from(i).unwrap_or(usize::MAX), d))
            .collect();
        match col.handle.update_batch(&batch) {
            Ok(scheduled) => Response::Updated {
                applied: deltas.len() as u64,
                scheduled: u64::from(scheduled),
            },
            Err(e) => Response::Error(e),
        }
    }

    fn stats_for(&self, name: &str) -> Response {
        let Some(col) = self.column(name) else {
            return Response::Error(unknown_column(name));
        };
        let stats = col.handle.stats();
        Response::Stats(ServerStats {
            column: name.to_string(),
            n: col.handle.estimator().n() as u64,
            generation: col.handle.serving_generation(),
            updates: stats.updates,
            rebuilds: stats.rebuilds,
            failed_rebuilds: stats.failed_rebuilds,
            updates_since_rebuild: stats.updates_since_rebuild,
            cache_hits: col.cache.hits(),
            cache_misses: col.cache.misses(),
            cache_invalidations: col.cache.invalidations(),
            refused: self.inner.refused.load(Ordering::Relaxed),
            connections: self.inner.connections.load(Ordering::SeqCst),
            deadline_sheds: self.inner.deadline_sheds.load(Ordering::Relaxed),
            degraded: self.inner.degraded.load(Ordering::Relaxed),
            tenants: self.inner.tenants.tenants(),
            estimate_p50_us: self.inner.lat_estimate.p50_us(),
            estimate_p99_us: self.inner.lat_estimate.p99_us(),
            update_p50_us: self.inner.lat_update.p50_us(),
            update_p99_us: self.inner.lat_update.p99_us(),
        })
    }
}

fn unknown_column(name: &str) -> SynopticError {
    SynopticError::InvalidParameter(format!("unknown column {name:?}"))
}

/// Compile-time proof the server crosses thread boundaries (one thread
/// per connection).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Server>();
};

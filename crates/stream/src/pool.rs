//! Sharded background maintenance: the engine that keeps synopses fresh
//! under updates.
//!
//! A rebuild costs milliseconds to seconds of DP, and a persist retry
//! ladder can sleep up to [`RebuildConfig::persist_total_backoff`]. Run
//! inline, either would stall every `update()` caller. This module splits
//! each maintained column into two halves so that **ingest and range
//! queries never block on a rebuild or a persist retry**:
//!
//! * a lock-light **serving handle** ([`ColumnHandle`]): point updates go
//!   into a [`Fenwick`] tree behind a short mutex (held for `O(log n)`
//!   arithmetic, never across a build or I/O), and answers come from the
//!   last-good estimator behind a [`HotSwap`] cell — the read path is an
//!   `Arc` snapshot, and hot readers ([`ColumnHandle::reader`]) skip even
//!   that in the steady state via a generation check;
//! * a **background rebuild worker** that receives rebuild jobs over a
//!   channel, snapshots the live frequencies, runs the (budgeted,
//!   panic-contained) build, hot-swaps the fresh synopsis in, and performs
//!   the persist retry/backoff ladder *off-thread*.
//!
//! A [`MaintainedPool`] shards many columns across a fixed set of worker
//! threads (round-robin at registration; every job for a column runs on
//! its home worker, so per-column maintenance is serial and race-free by
//! construction), each column under its own [`RebuildConfig`] budget.
//!
//! That serialization also makes the pool deterministic to test: with
//! one worker, a caller that runs [`ColumnHandle::quiesce`] after every
//! `update()` returning `Ok(true)` sees each rebuild, its persist and its
//! checkpoint finish before its next update. The crash, promotion and
//! failover sweeps drive their write-op streams exactly that way.
//!
//! ## The anytime upgrade path
//!
//! Columns registered with [`ColumnBuild::Anytime`] rebuild through the
//! quality ladder of `synoptic_hist::builder::build_anytime`. When a
//! deadline or cell cap forces the ladder to commit a *degraded* rung, a
//! column configured with [`RebuildConfig::with_background_upgrade`]
//! schedules an **upgrade job**: the worker re-runs the originally
//! requested method over a fresh snapshot with a multiplied budget and, on
//! success, hot-swaps the better synopsis (and re-persists it). This is
//! the inverse of the fallback ladder — degrade under pressure, quietly
//! restore full quality when the pressure lifts — and it runs entirely in
//! the background: serving answers from the degraded rung until the
//! upgrade lands, never from nothing.
//!
//! ## Serving invariant
//!
//! Once [`MaintainedPool::add_column`] returns, the column's estimator
//! **never disappears** — every failure mode (budget exhaustion, cancellation,
//! builder panic, persist failure, worker shutdown) leaves the last-good
//! synopsis serving and is visible through [`ColumnHandle::stats`] /
//! [`ColumnHandle::last_error`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread;

use synoptic_core::{
    Budget, BuildOutcome, HotSwap, HotSwapReader, PrefixSums, RangeEstimator, RangeQuery, Result,
    SegmentLayout, SegmentedEstimator, SynopticError,
};
use synoptic_hist::builder::{build_anytime, build_with_budget, AnytimeParams, HistogramMethod};

use crate::fenwick::Fenwick;
use crate::maintained::{
    drift_exceeds, panic_detail, persist_durable_with_retry, persist_with_retry, run_builder,
    ColumnJournal, DurabilityConfig, DurablePersistFn, DurableSnapshot, PersistFn, RebuildConfig,
    RebuildPolicy, RebuildStats, SharedStorage,
};
use crate::segments::{build_segment, split_segment_budget, upgrade_segment, SegmentRuntime};

/// A boxed construction function for [`ColumnBuild::Custom`] columns.
/// `Send` because it runs on the column's home worker thread.
pub type PoolBuildFn =
    Box<dyn FnMut(&[i64], &PrefixSums, &Budget) -> Result<Box<dyn RangeEstimator>> + Send>;

/// How a pool column (re)builds its synopsis.
pub enum ColumnBuild {
    /// A caller-supplied builder (no ladder, no upgrade path).
    Custom(PoolBuildFn),
    /// The anytime quality ladder for `method` at `budget_words` of
    /// storage: degrades under budget pressure, and (with
    /// [`RebuildConfig::with_background_upgrade`]) upgrades back in the
    /// background.
    Anytime {
        /// The requested (tier-0) histogram method.
        method: HistogramMethod,
        /// Storage budget in machine words (the paper's accounting).
        budget_words: usize,
    },
}

/// Ingest-side mutable state, behind one short-lived mutex. The lock is
/// held for `O(log n)` Fenwick arithmetic on the ingest path and for the
/// `O(n)` snapshot copy at the start of a rebuild — never across a build,
/// a persist, or a sleep.
struct IngestState {
    fenwick: Fenwick,
    drift_abs: i128,
    mass_at_build: i128,
    updates_since_rebuild: u64,
    /// Per-segment dirty marks (segmented columns only; empty otherwise).
    /// Set by `update()` under this lock, snapshot-and-cleared by the
    /// worker at the rebuild cut.
    dirty: Vec<bool>,
}

/// Lock-free maintenance counters (see [`RebuildStats`] for meanings).
#[derive(Default)]
struct AtomicStats {
    updates: AtomicU64,
    rebuilds: AtomicU64,
    failed_rebuilds: AtomicU64,
    persist_failures: AtomicU64,
    persist_retries: AtomicU64,
    upgrades: AtomicU64,
    failed_upgrades: AtomicU64,
    coalesced: AtomicU64,
    segments_rebuilt: AtomicU64,
    segments_reused: AtomicU64,
}

/// Shared state of one maintained column.
struct ColumnInner {
    name: String,
    config: RebuildConfig,
    /// Worker-only state (the home worker is the single consumer; the
    /// mutexes make the struct `Sync` and recover from builder panics).
    build: Mutex<ColumnBuild>,
    persist: Mutex<Option<PersistFn>>,
    /// Write-ahead journal for durable columns (`None` = durability off,
    /// the default; the ingest path then never touches it). Appends run
    /// under the ingest lock so the journal order and the Fenwick order
    /// agree with the snapshot cut taken by rebuilds.
    wal: Option<ColumnJournal>,
    /// Persist hook for journaled columns (used instead of `persist`).
    durable_persist: Mutex<Option<DurablePersistFn>>,
    serving: Arc<HotSwap<dyn RangeEstimator>>,
    ingest: Mutex<IngestState>,
    /// Segment layout, per-segment budgets, and partial synopses for
    /// columns registered through
    /// [`MaintainedPool::add_column_segmented`]; `None` for monolithic
    /// columns (the default — their paths are unchanged).
    segments: Option<SegmentRuntime>,
    /// Failure cooldown, kept as atomics so the ingest hot path can tick
    /// it without holding the ingest lock.
    cooldown_remaining: AtomicU64,
    cooldown_factor: AtomicU64,
    stats: AtomicStats,
    /// True while a rebuild job is queued or running; gates scheduling so
    /// a hot ingest path cannot flood the worker queue.
    rebuild_pending: AtomicBool,
    /// Jobs scheduled but not yet finished (rebuilds *and* upgrades), for
    /// [`ColumnHandle::quiesce`].
    inflight: Mutex<u64>,
    inflight_cv: Condvar,
    last_error: Mutex<Option<SynopticError>>,
    last_outcome: Mutex<Option<BuildOutcome>>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ColumnInner {
    fn stats_snapshot(&self) -> RebuildStats {
        let usr = lock(&self.ingest).updates_since_rebuild;
        RebuildStats {
            updates: self.stats.updates.load(Ordering::Relaxed),
            updates_since_rebuild: usr,
            rebuilds: self.stats.rebuilds.load(Ordering::Relaxed),
            failed_rebuilds: self.stats.failed_rebuilds.load(Ordering::Relaxed),
            persist_failures: self.stats.persist_failures.load(Ordering::Relaxed),
            persist_retries: self.stats.persist_retries.load(Ordering::Relaxed),
            upgrades: self.stats.upgrades.load(Ordering::Relaxed),
            failed_upgrades: self.stats.failed_upgrades.load(Ordering::Relaxed),
            coalesced: self.stats.coalesced.load(Ordering::Relaxed),
            segments_rebuilt: self.stats.segments_rebuilt.load(Ordering::Relaxed),
            segments_reused: self.stats.segments_reused.load(Ordering::Relaxed),
        }
    }

    /// Consumes one cooldown tick if any remain. Lock-free: `fetch_update`
    /// only succeeds while the counter is positive, so concurrent ingest
    /// threads each consume at most one tick and none fires the policy
    /// while cooling down.
    fn in_cooldown(&self) -> bool {
        self.cooldown_remaining
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| c.checked_sub(1))
            .is_ok()
    }

    fn start_cooldown(&self) {
        let factor = self.cooldown_factor.load(Ordering::Relaxed);
        self.cooldown_remaining.store(
            self.config.failure_cooldown_updates.saturating_mul(factor),
            Ordering::Release,
        );
        self.cooldown_factor
            .store((factor * 2).min(1024), Ordering::Relaxed);
    }

    fn clear_cooldown(&self) {
        self.cooldown_remaining.store(0, Ordering::Release);
        self.cooldown_factor.store(1, Ordering::Relaxed);
    }

    fn job_started(&self) {
        *lock(&self.inflight) += 1;
    }

    fn job_finished(&self) {
        let mut n = lock(&self.inflight);
        *n = n.saturating_sub(1);
        self.inflight_cv.notify_all();
    }

    fn set_error(&self, err: SynopticError) {
        *lock(&self.last_error) = Some(err);
    }
}

/// One job on a worker's queue.
enum Job {
    Rebuild(Arc<ColumnInner>),
    Upgrade(Arc<ColumnInner>),
    Shutdown,
}

/// The serving + ingest handle of a pool column. Cheap to clone; every
/// clone talks to the same column. All methods take `&self` — handles are
/// shared freely across writer and reader threads.
#[derive(Clone)]
pub struct ColumnHandle {
    inner: Arc<ColumnInner>,
    tx: mpsc::Sender<Job>,
}

impl ColumnHandle {
    /// Ingests `A[i] += delta`. Never blocks on a rebuild or a persist: the
    /// critical section is the Fenwick update plus policy arithmetic. When
    /// the rebuild policy fires (and no rebuild is already in flight), a
    /// rebuild job is scheduled on the column's home worker. Returns
    /// `Ok(true)` exactly when this call scheduled a rebuild; the rebuild
    /// itself, its persist and its checkpoint finish later, on the worker
    /// ([`ColumnHandle::quiesce`] waits for them).
    pub fn update(&self, i: usize, delta: i64) -> Result<bool> {
        // Narrow critical section: the write-ahead append, the Fenwick
        // write, the drift arithmetic it feeds, and the dirty-segment
        // mark. The global counter, cooldown tick, and policy decision
        // run on the captured snapshot after the lock drops.
        let (usr, drift_abs, mass) = {
            let mut st = lock(&self.inner.ingest);
            if let Some(wal) = &self.inner.wal {
                // Write-ahead: journal before mutating, inside the ingest
                // critical section so the journal order agrees with the
                // snapshot cut a concurrent rebuild takes. A failed append
                // rejects the update without touching in-memory state.
                assert!(
                    i < st.fenwick.n(),
                    "index {i} out of bounds for n={}",
                    st.fenwick.n()
                );
                wal.append(i as u64, delta)?;
            }
            st.fenwick.update(i, delta);
            st.drift_abs += (delta as i128).abs();
            st.updates_since_rebuild += 1;
            if let Some(seg) = &self.inner.segments {
                st.dirty[seg.layout.segment_of(i)] = true;
            }
            (st.updates_since_rebuild, st.drift_abs, st.mass_at_build)
        };
        self.inner.stats.updates.fetch_add(1, Ordering::Relaxed);
        if self.inner.in_cooldown() {
            return Ok(false);
        }
        let fire = match self.inner.config.policy {
            RebuildPolicy::EveryKUpdates(k) => usr >= k,
            RebuildPolicy::DriftFraction(f) => drift_exceeds(drift_abs, f, mass),
            RebuildPolicy::Manual => false,
        };
        if !fire {
            return Ok(false);
        }
        self.request_rebuild()
    }

    /// Schedules a rebuild on the column's home worker unless one is
    /// already queued or running. Returns whether a job was scheduled.
    /// Fails with [`SynopticError::WorkerUnavailable`] only when the pool
    /// has shut down — serving continues from the last-good synopsis even
    /// then.
    pub fn request_rebuild(&self) -> Result<bool> {
        if self.inner.rebuild_pending.swap(true, Ordering::AcqRel) {
            return Ok(false); // already in flight
        }
        self.inner.job_started();
        match self.tx.send(Job::Rebuild(Arc::clone(&self.inner))) {
            Ok(()) => Ok(true),
            Err(_) => {
                self.inner.rebuild_pending.store(false, Ordering::Release);
                self.inner.job_finished();
                let err = SynopticError::WorkerUnavailable {
                    column: self.inner.name.clone(),
                };
                self.inner.set_error(err.clone());
                Err(err)
            }
        }
    }

    /// The last-good estimator — never absent after registration. The
    /// returned snapshot stays valid even if a rebuild swaps a fresh one in
    /// a nanosecond later.
    pub fn estimator(&self) -> Arc<dyn RangeEstimator> {
        self.inner.serving.load()
    }

    /// A caching reader for hot answer loops: one atomic generation check
    /// per call in the steady state, no shared lock traffic.
    pub fn reader(&self) -> HotSwapReader<dyn RangeEstimator> {
        self.inner.serving.reader()
    }

    /// Estimated range sum from the current serving synopsis.
    pub fn estimate(&self, q: RangeQuery) -> f64 {
        self.estimator().estimate(q)
    }

    /// Exact current answer from the live Fenwick tree (maintenance-side).
    pub fn exact(&self, q: RangeQuery) -> i128 {
        lock(&self.inner.ingest).fenwick.range_sum(q.lo, q.hi)
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Maintenance counters (consistent snapshot of the atomic meters).
    pub fn stats(&self) -> RebuildStats {
        self.inner.stats_snapshot()
    }

    /// The most recent rebuild/persist/upgrade error, if any. Cleared by
    /// the next successful rebuild.
    pub fn last_error(&self) -> Option<SynopticError> {
        lock(&self.inner.last_error).clone()
    }

    /// Provenance of the most recent committed build (anytime columns):
    /// which rung served, what was abandoned, whether an upgrade replaced
    /// it (`tier == 0` with [`RebuildStats::upgrades`] incremented).
    pub fn last_outcome(&self) -> Option<BuildOutcome> {
        lock(&self.inner.last_outcome).clone()
    }

    /// Number of segments for columns registered through
    /// [`MaintainedPool::add_column_segmented`]; `None` for monolithic
    /// columns.
    pub fn segments(&self) -> Option<usize> {
        self.inner.segments.as_ref().map(|s| s.layout.segments())
    }

    /// Per-segment provenance: the committed [`BuildOutcome`] of every
    /// segment's most recent build, in segment order. `None` for
    /// monolithic columns. Clean segments keep the outcome of the build
    /// that produced their serving partial — the vector always describes
    /// exactly what is serving.
    pub fn segment_outcomes(&self) -> Option<Vec<BuildOutcome>> {
        self.inner
            .segments
            .as_ref()
            .map(|s| lock(&s.outcomes).clone())
    }

    /// The per-segment word budgets fixed by the joint split at
    /// registration. `None` for monolithic columns.
    pub fn segment_budgets(&self) -> Option<Vec<usize>> {
        self.inner.segments.as_ref().map(|s| s.budgets.clone())
    }

    /// Current dirty marks (segments touched since their last rebuild
    /// cut), in segment order. `None` for monolithic columns.
    pub fn dirty_segments(&self) -> Option<Vec<bool>> {
        self.inner
            .segments
            .as_ref()
            .map(|_| lock(&self.inner.ingest).dirty.clone())
    }

    /// How many swaps the serving cell has published (initial build = 0).
    pub fn serving_generation(&self) -> u64 {
        self.inner.serving.generation()
    }

    /// Whether this column journals its updates
    /// ([`MaintainedPool::add_column_durable`]).
    pub fn journaled(&self) -> bool {
        self.inner.wal.is_some()
    }

    /// LSN of the last acknowledged journal record (0 when nothing was
    /// journaled yet, or durability is off).
    pub fn wal_mark(&self) -> u64 {
        self.inner.wal.as_ref().map_or(0, |w| w.pending_mark())
    }

    /// Direct access to the column's journal when durability is enabled.
    /// Replication hangs off this: seal hooks, explicit seals, and
    /// per-follower retention holds that keep checkpoint truncation from
    /// deleting segments a registered follower has not acknowledged.
    pub fn journal(&self) -> Option<&ColumnJournal> {
        self.inner.wal.as_ref()
    }

    /// Blocks until every scheduled job (rebuilds and upgrades) for this
    /// column has finished. Test/shutdown aid; serving threads never need
    /// it.
    pub fn quiesce(&self) {
        let mut n = lock(&self.inner.inflight);
        while *n > 0 {
            n = self
                .inner
                .inflight_cv
                .wait(n)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A fixed pool of background maintenance workers serving many columns.
///
/// Columns are sharded round-robin at registration; all maintenance for a
/// column runs serially on its home worker. Dropping the pool shuts the
/// workers down gracefully (in-flight jobs finish; queued jobs are
/// abandoned with their bookkeeping released); handles outliving the pool
/// keep serving and ingesting, and report
/// [`SynopticError::WorkerUnavailable`] when a rebuild would be needed.
pub struct MaintainedPool {
    shards: Vec<mpsc::Sender<Job>>,
    workers: Vec<thread::JoinHandle<()>>,
    next_shard: AtomicUsize,
}

impl MaintainedPool {
    /// Spawns `workers` background maintenance threads (at least one).
    pub fn new(workers: usize) -> Self {
        let count = workers.max(1);
        let mut shards = Vec::with_capacity(count);
        let mut handles = Vec::with_capacity(count);
        for idx in 0..count {
            let (tx, rx) = mpsc::channel::<Job>();
            let self_tx = tx.clone();
            let handle = thread::Builder::new()
                .name(format!("synoptic-maint-{idx}"))
                .spawn(move || worker_loop(rx, self_tx))
                .expect("spawn maintenance worker");
            shards.push(tx);
            handles.push(handle);
        }
        Self {
            shards,
            workers: handles,
            next_shard: AtomicUsize::new(0),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Registers a column: builds the initial synopsis synchronously on the
    /// caller's thread (under the configured budget — if it fails there is
    /// nothing to serve, so the error propagates), then hands maintenance
    /// to the column's home worker. If the initial anytime build committed
    /// a degraded rung and the config enables background upgrades, an
    /// upgrade job is scheduled immediately.
    pub fn add_column(
        &self,
        name: &str,
        values: &[i64],
        build: ColumnBuild,
        config: RebuildConfig,
    ) -> Result<ColumnHandle> {
        self.add_column_with_persist(name, values, build, config, None)
    }

    /// [`MaintainedPool::add_column`] with a persist hook, invoked by the
    /// worker (never the serving thread) after every successful rebuild or
    /// upgrade, under the bounded retry ladder.
    pub fn add_column_with_persist(
        &self,
        name: &str,
        values: &[i64],
        build: ColumnBuild,
        config: RebuildConfig,
        persist: Option<PersistFn>,
    ) -> Result<ColumnHandle> {
        self.register_column(name, values, build, config, persist, None, None, None)
    }

    /// Registers a **segmented** column: the domain is split into
    /// `segments` equi-width segments, the global `budget_words` is
    /// divided across them once by the catalog's exact knapsack DP
    /// ([`crate::split_segment_budget`]), and each segment builds its own
    /// synopsis through the anytime ladder. Serving composes the partials
    /// behind a [`SegmentedEstimator`]; `update()` marks only the touched
    /// segment dirty, and rebuilds re-run the ladder on dirty slices
    /// alone, reusing every clean partial bit-for-bit.
    pub fn add_column_segmented(
        &self,
        name: &str,
        values: &[i64],
        method: HistogramMethod,
        budget_words: usize,
        segments: usize,
        config: RebuildConfig,
    ) -> Result<ColumnHandle> {
        self.register_column(
            name,
            values,
            ColumnBuild::Anytime {
                method,
                budget_words,
            },
            config,
            None,
            None,
            None,
            Some(segments),
        )
    }

    /// [`MaintainedPool::add_column_segmented`] with write-ahead
    /// durability, composing exactly like
    /// [`MaintainedPool::add_column_durable`]: the journal, checkpoint,
    /// and replication paths are unchanged — segmentation only alters
    /// *what the worker rebuilds*, never what is journaled or persisted.
    #[allow(clippy::too_many_arguments)]
    pub fn add_column_segmented_durable(
        &self,
        name: &str,
        values: &[i64],
        method: HistogramMethod,
        budget_words: usize,
        segments: usize,
        config: RebuildConfig,
        storage: SharedStorage,
        durability: &DurabilityConfig,
        committed_generation: u64,
        persist: Option<DurablePersistFn>,
    ) -> Result<ColumnHandle> {
        let wal = durability.open_journal(storage, name, committed_generation)?;
        self.register_column(
            name,
            values,
            ColumnBuild::Anytime {
                method,
                budget_words,
            },
            config,
            None,
            wal,
            persist,
            Some(segments),
        )
    }

    /// [`MaintainedPool::add_column_with_persist`] for a **journaled**
    /// column: opens (or resumes) the column's write-ahead journal per
    /// `durability`, appends every acknowledged update to it before the
    /// in-memory state changes, and checkpoints it after each committed
    /// persist (`persist` returns the committed generation;
    /// `committed_generation` seeds new segment headers until then). With
    /// durability disabled in the config this degrades to the journal-free
    /// registration path.
    #[allow(clippy::too_many_arguments)]
    pub fn add_column_durable(
        &self,
        name: &str,
        values: &[i64],
        build: ColumnBuild,
        config: RebuildConfig,
        storage: SharedStorage,
        durability: &DurabilityConfig,
        committed_generation: u64,
        persist: Option<DurablePersistFn>,
    ) -> Result<ColumnHandle> {
        let wal = durability.open_journal(storage, name, committed_generation)?;
        self.register_column(name, values, build, config, None, wal, persist, None)
    }

    #[allow(clippy::too_many_arguments)]
    fn register_column(
        &self,
        name: &str,
        values: &[i64],
        mut build: ColumnBuild,
        config: RebuildConfig,
        persist: Option<PersistFn>,
        wal: Option<ColumnJournal>,
        durable_persist: Option<DurablePersistFn>,
        segments: Option<usize>,
    ) -> Result<ColumnHandle> {
        validate_policy(&config.policy)?;
        let ps = PrefixSums::from_values(values);
        let budget = config.budget();
        let (initial, outcome, runtime) = match segments {
            None => {
                let (est, outcome) = run_column_build(&mut build, values, &ps, &budget, &config)?;
                (est, outcome, None)
            }
            Some(segs) => {
                let ColumnBuild::Anytime {
                    method,
                    budget_words,
                } = &build
                else {
                    return Err(SynopticError::InvalidParameter(
                        "segmented columns require an anytime build".into(),
                    ));
                };
                let (est, outcome, runtime) =
                    build_segmented_initial(*method, *budget_words, segs, values, &config)?;
                (est, outcome, Some(runtime))
            }
        };
        let degraded = outcome.as_ref().is_some_and(BuildOutcome::is_degraded);
        let dirty = runtime
            .as_ref()
            .map_or_else(Vec::new, |r| vec![false; r.layout.segments()]);
        let inner = Arc::new(ColumnInner {
            name: name.to_string(),
            config,
            build: Mutex::new(build),
            persist: Mutex::new(persist),
            wal,
            durable_persist: Mutex::new(durable_persist),
            serving: Arc::new(HotSwap::new(initial)),
            ingest: Mutex::new(IngestState {
                fenwick: Fenwick::from_values(values),
                drift_abs: 0,
                mass_at_build: ps.total().abs(),
                updates_since_rebuild: 0,
                dirty,
            }),
            segments: runtime,
            cooldown_remaining: AtomicU64::new(0),
            cooldown_factor: AtomicU64::new(1),
            stats: AtomicStats::default(),
            rebuild_pending: AtomicBool::new(false),
            inflight: Mutex::new(0),
            inflight_cv: Condvar::new(),
            last_error: Mutex::new(None),
            last_outcome: Mutex::new(outcome),
        });
        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let tx = self.shards[shard].clone();
        let handle = ColumnHandle {
            inner: Arc::clone(&inner),
            tx,
        };
        // Persist the initial synopsis off-thread, piggybacked on the
        // upgrade/rebuild machinery: schedule an upgrade job when degraded
        // (it re-persists on success); otherwise leave durability to the
        // first rebuild.
        if degraded && inner.config.upgrade_in_background {
            schedule_upgrade(&handle.tx, &inner);
        }
        Ok(handle)
    }

    /// Blocks until every column registered through this pool is idle.
    /// (Convenience for tests and orderly shutdown: call
    /// [`ColumnHandle::quiesce`] per column for finer control.)
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        for tx in &self.shards {
            let _ = tx.send(Job::Shutdown);
        }
        self.shards.clear(); // drop senders so the channels disconnect
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for MaintainedPool {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Schedules an upgrade job, with quiesce bookkeeping.
fn schedule_upgrade(tx: &mpsc::Sender<Job>, col: &Arc<ColumnInner>) {
    col.job_started();
    if tx.send(Job::Upgrade(Arc::clone(col))).is_err() {
        col.job_finished();
    }
}

/// Refuses policies the trigger cannot evaluate: a drift fraction must be
/// finite and positive ([`drift_exceeds`] decomposes it exactly), and an
/// update period must be at least one.
fn validate_policy(policy: &RebuildPolicy) -> Result<()> {
    if let RebuildPolicy::DriftFraction(f) = policy {
        if !(f.is_finite() && *f > 0.0) {
            return Err(SynopticError::InvalidParameter(
                "drift fraction must be finite and positive".into(),
            ));
        }
    }
    if let RebuildPolicy::EveryKUpdates(0) = policy {
        return Err(SynopticError::InvalidParameter(
            "update period must be positive".into(),
        ));
    }
    Ok(())
}

/// Runs a column's builder (custom or anytime ladder) with panics contained,
/// returning the estimator as a shareable `Arc` plus anytime provenance.
#[allow(clippy::type_complexity)]
fn run_column_build(
    build: &mut ColumnBuild,
    values: &[i64],
    ps: &PrefixSums,
    budget: &Budget,
    config: &RebuildConfig,
) -> Result<(Arc<dyn RangeEstimator>, Option<BuildOutcome>)> {
    match build {
        ColumnBuild::Custom(f) => run_builder(f, values, ps, budget).map(|est| {
            let est: Arc<dyn RangeEstimator> = Arc::from(est);
            (est, None)
        }),
        ColumnBuild::Anytime {
            method,
            budget_words,
        } => {
            let params = anytime_params(config);
            let method = *method;
            let words = *budget_words;
            let result = catch_unwind(AssertUnwindSafe(|| {
                build_anytime(method, values, ps, words, &params)
            }))
            .unwrap_or_else(|payload| {
                Err(SynopticError::BuildPanicked {
                    detail: panic_detail(payload),
                })
            })?;
            let est: Arc<dyn RangeEstimator> = Arc::from(result.estimator);
            Ok((est, Some(result.outcome)))
        }
    }
}

/// The anytime-ladder execution constraints a [`RebuildConfig`] implies.
fn anytime_params(config: &RebuildConfig) -> AnytimeParams {
    let mut params = AnytimeParams::unconstrained();
    if let Some(d) = config.deadline {
        params = params.with_deadline(d);
    }
    if let Some(c) = config.max_cells {
        params = params.with_max_cells(c);
    }
    if let Some(t) = &config.cancel {
        params = params.with_cancel_token(t.clone());
    }
    params
}

/// The most-degraded outcome of a set (highest ladder tier), cloned — what
/// a segmented column reports through the monolithic
/// [`ColumnHandle::last_outcome`] accessor. Per-segment detail lives in
/// [`ColumnHandle::segment_outcomes`].
fn worst_outcome(outcomes: &[BuildOutcome]) -> Option<BuildOutcome> {
    outcomes.iter().max_by_key(|o| o.tier).cloned()
}

/// Builds every segment of a new segmented column through the anytime
/// ladder (synchronously, on the registering thread — like the monolithic
/// initial build, a failure here means there is nothing to serve and the
/// error propagates).
fn build_segmented_initial(
    method: HistogramMethod,
    budget_words: usize,
    segments: usize,
    values: &[i64],
    config: &RebuildConfig,
) -> Result<(
    Arc<dyn RangeEstimator>,
    Option<BuildOutcome>,
    SegmentRuntime,
)> {
    let layout = SegmentLayout::equi_width(values.len(), segments)?;
    let budgets = split_segment_budget(values, &layout, method, budget_words)?;
    let params = anytime_params(config);
    let mut parts: Vec<Arc<dyn RangeEstimator>> = Vec::with_capacity(segments);
    let mut outcomes: Vec<BuildOutcome> = Vec::with_capacity(segments);
    for (s, words) in budgets.iter().enumerate() {
        let (est, outcome) = build_segment(method, values, &layout, s, *words, &params)?;
        parts.push(est);
        outcomes.push(outcome);
    }
    let composed = SegmentedEstimator::new(layout.clone(), parts.clone())?;
    let worst = worst_outcome(&outcomes);
    let runtime = SegmentRuntime {
        layout,
        method,
        budgets,
        parts: Mutex::new(parts),
        outcomes: Mutex::new(outcomes),
        segment_builds: AtomicU64::new(segments as u64),
    };
    Ok((Arc::new(composed), worst, runtime))
}

/// Releases an abandoned job's bookkeeping (pending flag, quiesce counter)
/// so handles never wedge on shutdown.
fn abandon(job: Job) {
    match job {
        Job::Rebuild(col) => {
            col.rebuild_pending.store(false, Ordering::Release);
            col.job_finished();
        }
        Job::Upgrade(col) => col.job_finished(),
        Job::Shutdown => {}
    }
}

/// The column `job` duplicates within `queued` (same column, same kind),
/// if any. Running the earlier job serves both: a rebuild/upgrade always
/// works from a *fresh* snapshot of the live frequencies, so the duplicate
/// would redo identical work.
fn coalesces_into(queued: &[Job], job: &Job) -> Option<Arc<ColumnInner>> {
    for earlier in queued {
        match (earlier, job) {
            (Job::Rebuild(a), Job::Rebuild(b)) | (Job::Upgrade(a), Job::Upgrade(b))
                if Arc::ptr_eq(a, b) =>
            {
                return Some(Arc::clone(a));
            }
            _ => {}
        }
    }
    None
}

/// The worker loop: drains its queue until shutdown. Each wake-up pulls
/// the whole backlog and collapses duplicate jobs for the same column
/// before running any of them — a very hot column whose upgrades queue
/// faster than they run cannot build a backlog; dropped duplicates release
/// their bookkeeping and are counted in [`RebuildStats::coalesced`]. On
/// shutdown, queued jobs are abandoned but their bookkeeping (pending
/// flag, quiesce counter) is released so handles never wedge.
fn worker_loop(rx: mpsc::Receiver<Job>, self_tx: mpsc::Sender<Job>) {
    while let Ok(first) = rx.recv() {
        let mut shutdown = false;
        let mut run: Vec<Job> = Vec::new();
        let mut accept = |job: Job, run: &mut Vec<Job>| {
            if shutdown {
                abandon(job);
                return;
            }
            if matches!(job, Job::Shutdown) {
                shutdown = true;
                return;
            }
            if let Some(col) = coalesces_into(run, &job) {
                col.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                abandon(job);
                return;
            }
            run.push(job);
        };
        accept(first, &mut run);
        while let Ok(job) = rx.try_recv() {
            accept(job, &mut run);
        }
        for job in run {
            match job {
                Job::Rebuild(col) => run_rebuild(&col, &self_tx),
                Job::Upgrade(col) => run_upgrade(&col),
                Job::Shutdown => unreachable!("shutdown jobs never enter the run list"),
            }
        }
        if shutdown {
            while let Ok(stale) = rx.try_recv() {
                abandon(stale);
            }
            break;
        }
    }
}

/// One background rebuild: snapshot → budgeted build → hot-swap →
/// off-thread persist → (optionally) schedule an upgrade of a degraded
/// rung.
fn run_rebuild(col: &Arc<ColumnInner>, self_tx: &mpsc::Sender<Job>) {
    if col.segments.is_some() {
        run_rebuild_segmented(col, self_tx);
        return;
    }
    // 1. Snapshot the live frequencies. The ingest lock is held for the
    //    O(n) copy only — the build below runs without it. The WAL mark is
    //    read under the same lock: appends also run under it, so the mark
    //    names exactly the last journal record the snapshot contains.
    let (values, drift_snap, usr_snap, wal_mark) = {
        let st = lock(&col.ingest);
        (
            st.fenwick.to_values(),
            st.drift_abs,
            st.updates_since_rebuild,
            col.wal.as_ref().map(|w| w.pending_mark()),
        )
    };
    let ps = PrefixSums::from_values(&values);
    let budget = col.config.budget();
    let result = {
        let mut build = lock(&col.build);
        run_column_build(&mut build, &values, &ps, &budget, &col.config)
    };
    match result {
        Ok((est, outcome)) => {
            col.serving.swap(est);
            {
                // Rebase drift bookkeeping on the snapshot: updates that
                // arrived *during* the build keep their drift contribution
                // relative to the freshly built synopsis.
                let mut st = lock(&col.ingest);
                st.drift_abs -= drift_snap;
                st.mass_at_build = ps.total().abs();
                st.updates_since_rebuild -= usr_snap;
            }
            col.clear_cooldown();
            col.stats.rebuilds.fetch_add(1, Ordering::Relaxed);
            *lock(&col.last_error) = None;
            let degraded = outcome.as_ref().is_some_and(BuildOutcome::is_degraded);
            if outcome.is_some() {
                *lock(&col.last_outcome) = outcome;
            }
            // Ingest may schedule the next rebuild from here on; it will
            // run after this job (same worker), which is exactly the
            // serialization we want.
            col.rebuild_pending.store(false, Ordering::Release);
            run_persist(col, &values, wal_mark);
            if degraded && col.config.upgrade_in_background {
                schedule_upgrade(self_tx, col);
            }
        }
        Err(err) => {
            col.stats.failed_rebuilds.fetch_add(1, Ordering::Relaxed);
            col.set_error(err);
            col.start_cooldown();
            col.rebuild_pending.store(false, Ordering::Release);
        }
    }
    col.job_finished();
}

/// One background rebuild of a **segmented** column: snapshot the live
/// frequencies *and* the dirty marks (clearing them at the cut), re-run
/// the anytime ladder on dirty slices only, and hot-swap a composition of
/// fresh and reused partials. A manual rebuild with nothing dirty
/// refreshes every segment.
///
/// Failure is atomic: if any segment's build fails (budget exhaustion,
/// cancellation mid-merge, panic), nothing swaps, the snapshot's dirty
/// marks are OR-ed back over whatever ingest dirtied meanwhile, and the
/// error — including cancellation provenance — surfaces through
/// [`ColumnHandle::last_error`] exactly like a monolithic failure.
fn run_rebuild_segmented(col: &Arc<ColumnInner>, self_tx: &mpsc::Sender<Job>) {
    let seg = col.segments.as_ref().expect("caller checked segments");
    let s_count = seg.layout.segments();
    let (values, drift_snap, usr_snap, wal_mark, dirty) = {
        let mut st = lock(&col.ingest);
        let dirty = std::mem::replace(&mut st.dirty, vec![false; s_count]);
        (
            st.fenwick.to_values(),
            st.drift_abs,
            st.updates_since_rebuild,
            col.wal.as_ref().map(|w| w.pending_mark()),
            dirty,
        )
    };
    let targets: Vec<usize> = if dirty.iter().any(|&d| d) {
        (0..s_count).filter(|&s| dirty[s]).collect()
    } else {
        (0..s_count).collect()
    };
    let params = anytime_params(&col.config);
    let mut fresh: Vec<(usize, Arc<dyn RangeEstimator>, BuildOutcome)> =
        Vec::with_capacity(targets.len());
    let mut failure: Option<SynopticError> = None;
    for &s in &targets {
        match build_segment(seg.method, &values, &seg.layout, s, seg.budgets[s], &params) {
            Ok((est, outcome)) => fresh.push((s, est, outcome)),
            Err(err) => {
                failure = Some(err);
                break;
            }
        }
    }
    seg.record_builds(fresh.len() as u64);
    let composed = match failure {
        Some(err) => Err(err),
        None => {
            let mut parts = lock(&seg.parts).clone();
            for (s, est, _) in &fresh {
                parts[*s] = Arc::clone(est);
            }
            SegmentedEstimator::new(seg.layout.clone(), parts)
        }
    };
    match composed {
        Ok(composed) => {
            // Commit: publish the composition, then record the fresh
            // partials and their provenance as the new baseline.
            col.serving.swap(Arc::new(composed));
            {
                let mut parts = lock(&seg.parts);
                let mut outcomes = lock(&seg.outcomes);
                for (s, est, outcome) in fresh {
                    parts[s] = est;
                    outcomes[s] = outcome;
                }
            }
            {
                let mut st = lock(&col.ingest);
                st.drift_abs -= drift_snap;
                st.mass_at_build = PrefixSums::from_values(&values).total().abs();
                st.updates_since_rebuild -= usr_snap;
            }
            col.clear_cooldown();
            col.stats.rebuilds.fetch_add(1, Ordering::Relaxed);
            col.stats
                .segments_rebuilt
                .fetch_add(targets.len() as u64, Ordering::Relaxed);
            col.stats
                .segments_reused
                .fetch_add((s_count - targets.len()) as u64, Ordering::Relaxed);
            *lock(&col.last_error) = None;
            let (worst, degraded) = {
                let outcomes = lock(&seg.outcomes);
                let degraded = outcomes.iter().any(BuildOutcome::is_degraded);
                (worst_outcome(&outcomes), degraded)
            };
            *lock(&col.last_outcome) = worst;
            col.rebuild_pending.store(false, Ordering::Release);
            run_persist(col, &values, wal_mark);
            if degraded && col.config.upgrade_in_background {
                schedule_upgrade(self_tx, col);
            }
        }
        Err(err) => {
            {
                let mut st = lock(&col.ingest);
                for (s, &was) in dirty.iter().enumerate() {
                    if was {
                        st.dirty[s] = true;
                    }
                }
            }
            col.stats.failed_rebuilds.fetch_add(1, Ordering::Relaxed);
            col.set_error(err);
            col.start_cooldown();
            col.rebuild_pending.store(false, Ordering::Release);
        }
    }
    col.job_finished();
}

/// One background upgrade: re-run the abandoned tier-0 rung over a fresh
/// snapshot with a multiplied budget; hot-swap and re-persist on success.
fn run_upgrade(col: &Arc<ColumnInner>) {
    if col.segments.is_some() {
        run_upgrade_segmented(col);
        return;
    }
    let outcome = lock(&col.last_outcome).clone();
    let Some(outcome) = outcome else {
        col.job_finished();
        return;
    };
    if !outcome.is_degraded() {
        col.job_finished(); // a newer rebuild already restored full quality
        return;
    }
    let (method, words) = {
        let build = lock(&col.build);
        match &*build {
            ColumnBuild::Anytime {
                method,
                budget_words,
            } => (*method, *budget_words),
            ColumnBuild::Custom(_) => {
                col.job_finished(); // upgrades are an anytime-ladder concept
                return;
            }
        }
    };
    let (values, drift_snap, usr_snap, wal_mark) = {
        let st = lock(&col.ingest);
        (
            st.fenwick.to_values(),
            st.drift_abs,
            st.updates_since_rebuild,
            col.wal.as_ref().map(|w| w.pending_mark()),
        )
    };
    let ps = PrefixSums::from_values(&values);
    let factor = col.config.upgrade_budget_factor.max(1);
    let mut budget = Budget::unlimited();
    if let Some(d) = col.config.deadline {
        budget = budget.with_deadline(d * factor);
    }
    if let Some(c) = col.config.max_cells {
        budget = budget.with_max_cells(c.saturating_mul(factor as u64));
    }
    if let Some(t) = &col.config.cancel {
        budget = budget.with_cancel_token(t.clone());
    }
    let started = std::time::Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        build_with_budget(method, &values, &ps, words, &budget)
    }))
    .unwrap_or_else(|payload| {
        Err(SynopticError::BuildPanicked {
            detail: panic_detail(payload),
        })
    });
    match result {
        Ok(est) => {
            let est: Arc<dyn RangeEstimator> = Arc::from(est);
            col.serving.swap(est);
            {
                let mut st = lock(&col.ingest);
                st.drift_abs -= drift_snap;
                st.mass_at_build = ps.total().abs();
                st.updates_since_rebuild -= usr_snap;
            }
            col.stats.upgrades.fetch_add(1, Ordering::Relaxed);
            *lock(&col.last_outcome) = Some(BuildOutcome::direct(
                method.name(),
                started.elapsed().as_millis() as u64,
                budget.cells_used(),
            ));
            run_persist(col, &values, wal_mark);
        }
        Err(err) => {
            // The degraded synopsis keeps serving; the next degraded
            // rebuild will schedule another attempt.
            col.stats.failed_upgrades.fetch_add(1, Ordering::Relaxed);
            col.set_error(err);
        }
    }
    col.job_finished();
}

/// One background upgrade of a **segmented** column: re-run the tier-0
/// method directly (no ladder) on every segment whose committed outcome is
/// degraded, at the multiplied budget, and hot-swap the re-composition.
/// All-or-nothing like the monolithic upgrade: any failure keeps the
/// degraded partials serving and counts one failed upgrade.
fn run_upgrade_segmented(col: &Arc<ColumnInner>) {
    let seg = col.segments.as_ref().expect("caller checked segments");
    let degraded: Vec<usize> = {
        let outcomes = lock(&seg.outcomes);
        (0..outcomes.len())
            .filter(|&s| outcomes[s].is_degraded())
            .collect()
    };
    if degraded.is_empty() {
        col.job_finished(); // a newer rebuild already restored full quality
        return;
    }
    let (values, drift_snap, usr_snap, wal_mark) = {
        let st = lock(&col.ingest);
        (
            st.fenwick.to_values(),
            st.drift_abs,
            st.updates_since_rebuild,
            col.wal.as_ref().map(|w| w.pending_mark()),
        )
    };
    let factor = col.config.upgrade_budget_factor.max(1);
    let mut fresh: Vec<(usize, Arc<dyn RangeEstimator>, BuildOutcome)> =
        Vec::with_capacity(degraded.len());
    let mut failure: Option<SynopticError> = None;
    for &s in &degraded {
        let mut budget = Budget::unlimited();
        if let Some(d) = col.config.deadline {
            budget = budget.with_deadline(d * factor);
        }
        if let Some(c) = col.config.max_cells {
            budget = budget.with_max_cells(c.saturating_mul(factor as u64));
        }
        if let Some(t) = &col.config.cancel {
            budget = budget.with_cancel_token(t.clone());
        }
        match upgrade_segment(seg.method, &values, &seg.layout, s, seg.budgets[s], &budget) {
            Ok((est, outcome)) => fresh.push((s, est, outcome)),
            Err(err) => {
                failure = Some(err);
                break;
            }
        }
    }
    seg.record_builds(fresh.len() as u64);
    let composed = match failure {
        Some(err) => Err(err),
        None => {
            let mut parts = lock(&seg.parts).clone();
            for (s, est, _) in &fresh {
                parts[*s] = Arc::clone(est);
            }
            SegmentedEstimator::new(seg.layout.clone(), parts)
        }
    };
    match composed {
        Ok(composed) => {
            col.serving.swap(Arc::new(composed));
            {
                let mut parts = lock(&seg.parts);
                let mut outcomes = lock(&seg.outcomes);
                for (s, est, outcome) in fresh {
                    parts[s] = est;
                    outcomes[s] = outcome;
                }
            }
            {
                let mut st = lock(&col.ingest);
                st.drift_abs -= drift_snap;
                st.mass_at_build = PrefixSums::from_values(&values).total().abs();
                st.updates_since_rebuild -= usr_snap;
            }
            col.stats.upgrades.fetch_add(1, Ordering::Relaxed);
            *lock(&col.last_outcome) = worst_outcome(&lock(&seg.outcomes));
            run_persist(col, &values, wal_mark);
        }
        Err(err) => {
            // The degraded partials keep serving; the next degraded
            // rebuild schedules another attempt.
            col.stats.failed_upgrades.fetch_add(1, Ordering::Relaxed);
            col.set_error(err);
        }
    }
    col.job_finished();
}

/// Runs the persist hook (if any) through the shared bounded retry ladder,
/// on the worker thread. Journaled columns run the durable hook instead
/// (snapshot values + WAL mark), then checkpoint the journal at the mark
/// the committed generation now covers.
fn run_persist(col: &Arc<ColumnInner>, values: &[i64], wal_mark: Option<u64>) {
    let estimator = col.serving.load();
    if let Some(wal) = &col.wal {
        let mut hook = lock(&col.durable_persist);
        let Some(hook) = hook.as_mut() else {
            return;
        };
        let mark = wal_mark.unwrap_or(0);
        let snapshot = DurableSnapshot {
            estimator: estimator.as_ref(),
            values,
            wal_mark: mark,
        };
        let (report, generation) =
            persist_durable_with_retry(hook.as_mut(), &snapshot, &col.config);
        col.stats
            .persist_retries
            .fetch_add(report.retries, Ordering::Relaxed);
        if report.failed {
            col.stats.persist_failures.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(err) = report.last_error {
            col.set_error(err);
        }
        if !report.failed {
            if let Some(generation) = generation {
                // A failed truncation is non-fatal: stale segments are
                // skipped at replay (LSNs ≤ the committed mark) and the
                // next checkpoint retries the delete.
                if let Err(err) = wal.checkpoint(mark, generation) {
                    col.set_error(err);
                }
            }
        }
        return;
    }
    let mut persist = lock(&col.persist);
    let Some(persist) = persist.as_mut() else {
        return;
    };
    let report = persist_with_retry(persist.as_mut(), estimator.as_ref(), &col.config);
    col.stats
        .persist_retries
        .fetch_add(report.retries, Ordering::Relaxed);
    if report.failed {
        col.stats.persist_failures.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(err) = report.last_error {
        col.set_error(err);
    }
}

/// Compile-time proof (checked by every `cargo build`, including the
/// release gate in `ci.sh`) that the serving handle, the pool, and the
/// persist hook type cross thread boundaries.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<ColumnHandle>();
    assert_send_sync::<MaintainedPool>();
    assert_send::<PersistFn>();
    assert_send::<PoolBuildFn>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use synoptic_core::CancelToken;
    use synoptic_hist::sap0::build_sap0_with_budget;

    fn sap0_builder() -> ColumnBuild {
        ColumnBuild::Custom(Box::new(|_v: &[i64], ps: &PrefixSums, budget: &Budget| {
            Ok(Box::new(build_sap0_with_budget(ps, 3, budget)?.0) as Box<dyn RangeEstimator>)
        }))
    }

    #[test]
    fn pool_column_rebuilds_on_schedule() {
        let pool = MaintainedPool::new(2);
        let vals = vec![10i64; 12];
        let col = pool
            .add_column(
                "c",
                &vals,
                sap0_builder(),
                RebuildConfig::new(RebuildPolicy::EveryKUpdates(5)),
            )
            .unwrap();
        let mut scheduled = 0;
        for t in 0..12 {
            if col.update(t % 12, 1).unwrap() {
                scheduled += 1;
                col.quiesce(); // deterministic: let each rebuild land
            }
        }
        assert_eq!(scheduled, 2);
        let stats = col.stats();
        assert_eq!(stats.rebuilds, 2);
        assert_eq!(stats.updates, 12);
        assert_eq!(stats.updates_since_rebuild, 2);
        assert_eq!(stats.failed_rebuilds, 0);
        assert_eq!(col.serving_generation(), 2);
    }

    #[test]
    fn rebuild_refreshes_toward_current_data() {
        let pool = MaintainedPool::new(1);
        let vals = vec![0i64; 8];
        let col = pool
            .add_column(
                "c",
                &vals,
                sap0_builder(),
                RebuildConfig::new(RebuildPolicy::EveryKUpdates(4)),
            )
            .unwrap();
        for _ in 0..4 {
            col.update(7, 25).unwrap();
        }
        col.quiesce();
        let est = col.estimate(RangeQuery { lo: 7, hi: 7 });
        assert!(est > 10.0, "estimate {est} should reflect the new spike");
    }

    /// Every rebuild failure mode — a builder panic, an exhausted cell
    /// budget, a cancelled build — leaves the initial synopsis serving
    /// bit-for-bit, records the error, and starts a cooldown that doubles
    /// on the next failure. Once the cause clears (the token is reset),
    /// the next policy-fired rebuild succeeds and resets the cooldown.
    #[test]
    fn failed_rebuild_keeps_serving_and_cools_down() {
        let vals = vec![7i64; 12];
        let initial_cells = {
            let metered = Budget::unlimited();
            build_sap0_with_budget(&PrefixSums::from_values(&vals), 3, &metered).unwrap();
            metered.cells_used()
        };
        let token = CancelToken::new();
        let policy = RebuildPolicy::EveryKUpdates(3);
        let cases = [
            ("panic", RebuildConfig::new(policy)),
            (
                "cells",
                RebuildConfig::new(policy).with_max_cells(initial_cells),
            ),
            (
                "cancel",
                RebuildConfig::new(policy).with_cancel_token(token.clone()),
            ),
        ];
        for (mode, config) in cases {
            let pool = MaintainedPool::new(1);
            let cooldown = config.failure_cooldown_updates;
            let mut calls = 0u32;
            let build =
                ColumnBuild::Custom(Box::new(move |_v: &[i64], ps: &PrefixSums, b: &Budget| {
                    calls += 1;
                    // The initial build always fits; rebuilds in "cells"
                    // mode ask for more buckets than the cap pays for.
                    let buckets = match (mode, calls) {
                        (_, 1) => 3,
                        ("panic", _) => panic!("injected builder panic"),
                        ("cells", _) => 6,
                        _ => 3,
                    };
                    Ok(Box::new(build_sap0_with_budget(ps, buckets, b)?.0)
                        as Box<dyn RangeEstimator>)
                }));
            let col = pool.add_column("c", &vals, build, config).unwrap();
            if mode == "cancel" {
                token.cancel();
            }
            let q = RangeQuery { lo: 0, hi: 11 };
            let before = col.estimate(q);
            for t in 0..3 {
                col.update(t, 1).unwrap();
            }
            col.quiesce();
            let stats = col.stats();
            assert_eq!(stats.rebuilds, 0, "{mode}");
            assert_eq!(stats.failed_rebuilds, 1, "{mode}");
            match (mode, col.last_error()) {
                ("panic", Some(SynopticError::BuildPanicked { detail }))
                    if detail.contains("injected") => {}
                ("cells", Some(SynopticError::CellBudgetExceeded { .. })) => {}
                ("cancel", Some(SynopticError::Cancelled)) => {}
                (mode, other) => panic!("{mode}: unexpected last error {other:?}"),
            }
            // Serving never stopped, still the initial synopsis bit-for-bit.
            assert_eq!(before.to_bits(), col.estimate(q).to_bits(), "{mode}");
            // Cooldown absorbs the next `cooldown` updates without
            // rescheduling…
            let remaining = || col.inner.cooldown_remaining.load(Ordering::Acquire);
            assert_eq!(remaining(), cooldown, "{mode}");
            for t in 0..cooldown {
                assert!(!col.update((t % 12) as usize, 1).unwrap(), "{mode}");
            }
            assert_eq!(remaining(), 0, "{mode}");
            assert_eq!(col.stats().failed_rebuilds, 1, "{mode}");
            // …then the policy fires again, fails again, and the cooldown
            // doubles.
            assert!(col.update(0, 1).unwrap(), "{mode}");
            col.quiesce();
            assert_eq!(col.stats().failed_rebuilds, 2, "{mode}");
            assert_eq!(remaining(), 2 * cooldown, "{mode}");
            assert_eq!(before.to_bits(), col.estimate(q).to_bits(), "{mode}");
            if mode == "cancel" {
                // Un-cancel: after the doubled cooldown the next
                // policy-fired rebuild succeeds, clears the error and
                // resets the cooldown ladder.
                token.reset();
                for t in 0..2 * cooldown {
                    assert!(!col.update((t % 12) as usize, 1).unwrap());
                }
                assert!(col.update(0, 1).unwrap());
                col.quiesce();
                assert_eq!(col.stats().rebuilds, 1);
                assert!(col.last_error().is_none());
                assert_eq!(remaining(), 0);
                assert_eq!(col.inner.cooldown_factor.load(Ordering::Relaxed), 1);
            }
        }
    }

    #[test]
    fn handles_outliving_the_pool_keep_serving() {
        let pool = MaintainedPool::new(1);
        let vals = vec![5i64; 8];
        let col = pool
            .add_column(
                "c",
                &vals,
                sap0_builder(),
                RebuildConfig::new(RebuildPolicy::EveryKUpdates(2)),
            )
            .unwrap();
        drop(pool);
        // Ingest still works; the rebuild cannot be scheduled.
        col.update(0, 1).unwrap();
        match col.update(1, 1) {
            Err(SynopticError::WorkerUnavailable { column }) => assert_eq!(column, "c"),
            other => panic!("expected WorkerUnavailable, got {other:?}"),
        }
        // Serving continues from the last-good synopsis, and *both* updates
        // were ingested — a failed schedule never drops data.
        assert!(col.estimate(RangeQuery { lo: 0, hi: 7 }).is_finite());
        assert_eq!(col.exact(RangeQuery { lo: 0, hi: 0 }), 6);
        assert_eq!(col.exact(RangeQuery { lo: 1, hi: 1 }), 6);
    }

    #[test]
    fn manual_policy_never_schedules() {
        let pool = MaintainedPool::new(1);
        let vals = vec![3i64; 6];
        let col = pool
            .add_column(
                "c",
                &vals,
                sap0_builder(),
                RebuildConfig::new(RebuildPolicy::Manual),
            )
            .unwrap();
        for _ in 0..50 {
            assert!(!col.update(0, 2).unwrap());
        }
        assert_eq!(col.stats().rebuilds, 0);
        // The estimator is stale, but the maintenance side is exact.
        let q = RangeQuery { lo: 0, hi: 0 };
        let stale = col.estimate(q);
        assert_eq!(col.exact(q), 103);
        assert!(col.request_rebuild().unwrap());
        col.quiesce();
        assert_eq!(col.stats().rebuilds, 1);
        let fresh = col.estimate(q);
        assert!(
            (fresh - 103.0).abs() < (stale - 103.0).abs(),
            "rebuild should tighten the estimate: stale {stale}, fresh {fresh}"
        );
    }

    #[test]
    fn invalid_policies_are_rejected() {
        let pool = MaintainedPool::new(1);
        let vals = vec![1i64, 2];
        for policy in [
            RebuildPolicy::EveryKUpdates(0),
            RebuildPolicy::DriftFraction(0.0),
            RebuildPolicy::DriftFraction(f64::INFINITY),
        ] {
            assert!(
                pool.add_column("c", &vals, sap0_builder(), RebuildConfig::new(policy))
                    .is_err(),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn drift_policy_fires_via_exact_comparison() {
        let pool = MaintainedPool::new(1);
        let vals = vec![100i64; 10]; // mass 1000
        let col = pool
            .add_column(
                "c",
                &vals,
                sap0_builder(),
                RebuildConfig::new(RebuildPolicy::DriftFraction(0.1)),
            )
            .unwrap();
        let mut scheduled = false;
        for _ in 0..101 {
            scheduled |= col.update(3, 1).unwrap();
        }
        assert!(scheduled, "101 units of |δ| must cross the 10% threshold");
        col.quiesce();
        assert_eq!(col.stats().rebuilds, 1);
    }

    #[test]
    fn upgrade_replaces_degraded_rung_with_requested_method() {
        // Measure budgets so the ladder degrades deterministically: pick a
        // cell cap that kills OPT-A (and the intermediate rungs) but lets
        // SAP0 through, then let the upgrade run OPT-A at factor× budget.
        let vals: Vec<i64> = (0..48).map(|i| (i * i * 31 + 7 * i) % 97 - 20).collect();
        let ps = PrefixSums::from_values(&vals);
        let cost = |m: HistogramMethod| {
            let b = Budget::unlimited();
            build_with_budget(m, &vals, &ps, 12, &b).unwrap();
            b.cells_used()
        };
        let opta = cost(HistogramMethod::OptA);
        let sap0 = cost(HistogramMethod::Sap0);
        let rounded = cost(HistogramMethod::OptARounded { eps: 0.25 });
        if !(sap0 < rounded && sap0 < opta) {
            return; // dataset shape made the ladder non-monotone; skip
        }
        let cap = sap0.max(1);
        let factor = (opta / cap + 2).min(u32::MAX as u64) as u32;
        let pool = MaintainedPool::new(1);
        let config = RebuildConfig::new(RebuildPolicy::EveryKUpdates(4))
            .with_max_cells(cap)
            .with_background_upgrade(factor);
        let col = pool
            .add_column(
                "c",
                &vals,
                ColumnBuild::Anytime {
                    method: HistogramMethod::OptA,
                    budget_words: 12,
                },
                config,
            )
            .unwrap();
        // The initial build already degrades → an upgrade job is scheduled
        // at registration; let it land.
        col.quiesce();
        let stats = col.stats();
        assert!(stats.upgrades >= 1, "stats: {stats:?}");
        assert_eq!(col.estimator().method_name(), "OPT-A");
        let outcome = col.last_outcome().unwrap();
        assert_eq!(outcome.used, "OPT-A");
        assert!(!outcome.is_degraded());

        // Now force a rebuild: it degrades again (same cap), commits the
        // weaker rung, and the background upgrade restores OPT-A.
        for t in 0..4 {
            col.update(t, 3).unwrap();
        }
        col.quiesce();
        let stats = col.stats();
        assert!(stats.rebuilds >= 1);
        assert!(stats.upgrades >= 2, "stats: {stats:?}");
        assert_eq!(col.estimator().method_name(), "OPT-A");
    }

    #[test]
    fn sharding_distributes_columns_across_workers() {
        let pool = MaintainedPool::new(3);
        assert_eq!(pool.workers(), 3);
        let vals = vec![4i64; 16];
        let cols: Vec<_> = (0..6)
            .map(|i| {
                pool.add_column(
                    &format!("col{i}"),
                    &vals,
                    sap0_builder(),
                    RebuildConfig::new(RebuildPolicy::EveryKUpdates(4)),
                )
                .unwrap()
            })
            .collect();
        for col in &cols {
            for t in 0..8 {
                col.update(t, 1).unwrap();
            }
        }
        for col in &cols {
            col.quiesce();
            assert!(col.stats().rebuilds >= 1, "{}", col.name());
            assert!(col.estimate(RangeQuery { lo: 0, hi: 15 }).is_finite());
        }
        pool.shutdown();
    }

    /// Transient persist errors are retried until one attempt succeeds;
    /// a disk that never recovers exhausts the retries and is counted, yet
    /// the rebuild still counts and serving reflects the fresh data.
    #[test]
    fn persist_runs_off_thread_with_bounded_retries() {
        // (failing attempts before success, retries allowed,
        //  expected retries, expected failures)
        for (failing, retries, want_retries, want_failures) in
            [(2u32, 3u32, 2u64, 0u64), (u32::MAX, 1, 1, 1)]
        {
            let pool = MaintainedPool::new(1);
            let vals = vec![1i64; 6];
            let mut failures_left = failing;
            let persist: PersistFn = Box::new(move |_e: &dyn RangeEstimator| {
                if failures_left > 0 {
                    failures_left -= 1;
                    return Err(SynopticError::Io {
                        path: "/dev/faulty".into(),
                        detail: "enospc".into(),
                    });
                }
                Ok(())
            });
            let config = RebuildConfig::new(RebuildPolicy::Manual)
                .with_persist_retries(retries, Duration::from_micros(10));
            let col = pool
                .add_column_with_persist("c", &vals, sap0_builder(), config, Some(persist))
                .unwrap();
            for i in 0..6 {
                col.update(i, 10).unwrap();
            }
            col.request_rebuild().unwrap();
            col.quiesce();
            let stats = col.stats();
            assert_eq!(stats.rebuilds, 1, "failing {failing}");
            assert_eq!(stats.persist_retries, want_retries, "failing {failing}");
            assert_eq!(stats.persist_failures, want_failures, "failing {failing}");
            // Every failed attempt is recorded, even when a retry succeeded.
            assert!(matches!(col.last_error(), Some(SynopticError::Io { .. })));
            // The in-memory synopsis reflects the fresh data either way.
            let est = col.estimate(RangeQuery { lo: 0, hi: 5 });
            assert!((est - 66.0).abs() < 10.0, "fresh estimate, got {est}");
        }
    }
}

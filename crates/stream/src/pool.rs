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
//!   `Arc` snapshot. [`ColumnHandle::pin`] takes that snapshot together
//!   with its generation and the provenance of the build behind it, under
//!   the lock every commit swaps under, so a served answer never mixes one
//!   build's value with another's provenance;
//! * a **background worker** that receives maintenance jobs over a
//!   channel and runs each through one pipeline, whatever the job and
//!   the column's kind: **snapshot** the live frequencies, **build** the
//!   job's target parts (panic-contained, budgeted), then **commit** —
//!   hot-swap the fresh synopsis in together with its provenance and run
//!   the persist retry ladder *off-thread* — or take the one **failure**
//!   path, which leaves the last-good synopsis serving.
//!
//! A column is made of parts: a monolithic column has one (its whole
//! domain, served unwrapped), a segmented column one per segment (served
//! behind a [`SegmentedEstimator`]). Segmentation is a property of the
//! build ([`ColumnBuild::Segmented`]): [`MaintainedPool::add_column`] and
//! [`MaintainedPool::add_column_durable`] register every kind of column,
//! the latter with its journal and persist hook. A rebuild targets the
//! dirty parts, or every part when none is dirty; an upgrade targets the
//! parts whose committed build degraded.
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
//! requested method directly over a fresh snapshot of the degraded parts,
//! with the budget scaled by the upgrade factor, and on success hot-swaps
//! the better synopsis (and re-persists it). This is the inverse of the
//! fallback ladder — degrade under pressure, quietly restore full quality
//! when the pressure lifts — and it runs entirely in the background:
//! serving answers from the degraded rung until the upgrade lands, never
//! from nothing.
//!
//! ## Serving invariant
//!
//! Once [`MaintainedPool::add_column`] returns, the column's estimator
//! **never disappears** — every failure mode (budget exhaustion, cancellation,
//! builder or persist-hook panic, persist failure, worker shutdown) leaves
//! the last-good synopsis serving and is visible through
//! [`ColumnHandle::stats`] / [`ColumnHandle::last_error`].

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread;

use synoptic_core::{
    Budget, BuildOutcome, HotSwap, HotSwapReader, PrefixSums, RangeEstimator, RangeQuery, Result,
    SegmentLayout, SegmentedEstimator, SynopticError,
};
use synoptic_hist::builder::HistogramMethod;

use crate::fenwick::Fenwick;
use crate::maintained::{
    contain, drift_exceeds, persist_with_retry, ColumnJournal, DurabilityConfig, DurablePersistFn,
    DurableSnapshot, RebuildConfig, RebuildPolicy, RebuildStats, SharedStorage,
};
use crate::segments::{build_segment, split_segment_budget, Segments};

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
    /// The anytime ladder per segment: the domain splits into `segments`
    /// equi-width segments, `budget_words` is divided across them once by
    /// the catalog's exact knapsack DP ([`crate::split_segment_budget`]),
    /// and serving composes the partials behind a [`SegmentedEstimator`].
    /// An update marks only its segment dirty, and a rebuild re-runs the
    /// ladder on the dirty slices alone, reusing every clean partial
    /// bit-for-bit.
    Segmented {
        /// The requested (tier-0) histogram method of every segment.
        method: HistogramMethod,
        /// The column's whole storage budget in machine words.
        budget_words: usize,
        /// How many equi-width segments the domain splits into.
        segments: usize,
    },
}

/// One committed build, pinned by [`ColumnHandle::pin`]: the serving
/// estimator, the generation it was published at, and the provenance of
/// the build that produced it. Every field describes the same build,
/// however many commits race the pin.
#[derive(Clone)]
pub struct PinnedBuild {
    /// The serving generation ([`ColumnHandle::serving_generation`]) the
    /// estimator was published at.
    pub generation: u64,
    /// The pinned estimator; it keeps answering after later swaps.
    pub estimator: Arc<dyn RangeEstimator>,
    /// The whole-column outcome ([`ColumnHandle::last_outcome`]).
    pub outcome: Option<BuildOutcome>,
    /// The per-segment outcomes ([`ColumnHandle::segment_outcomes`]),
    /// shared with the commit that published them; `None` for monolithic
    /// columns.
    pub segment_outcomes: Option<Arc<[BuildOutcome]>>,
}

/// Ingest-side mutable state, behind one short-lived mutex. The lock is
/// held for `O(log n)` Fenwick arithmetic on the ingest path and for the
/// `O(n)` snapshot copy at the start of a job — never across a build,
/// a persist, or a sleep.
struct IngestState {
    fenwick: Fenwick,
    drift_abs: i128,
    mass_at_build: i128,
    updates_since_rebuild: u64,
    /// Per-segment dirty marks (segmented columns only; empty otherwise).
    /// Set by `update_batch()` under this lock, snapshot-and-cleared by the
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

/// What a column serves, part by part, with the provenance of the build
/// that produced each part. A commit swaps the serving cell while holding
/// this record's lock, so a pin taken under the same lock
/// ([`ColumnHandle::pin`]) reads the provenance of exactly the build it
/// pinned.
struct Served {
    /// The serving parts in segment order; a monolithic column has one.
    parts: Vec<Arc<dyn RangeEstimator>>,
    /// Per-part anytime provenance; empty for custom-built columns. A
    /// commit publishes a fresh slice, so a pin shares it by reference
    /// count instead of copying it under the lock.
    outcomes: Arc<[BuildOutcome]>,
}

/// Shared state of one maintained column.
struct ColumnInner {
    name: String,
    config: RebuildConfig,
    /// Worker-only state (the home worker is the single consumer; the
    /// mutexes make the struct `Sync` and recover from builder panics).
    build: Mutex<ColumnBuild>,
    /// The one persist hook; only journaled columns checkpoint after it.
    persist: Mutex<Option<DurablePersistFn>>,
    /// Write-ahead journal for durable columns (`None` = durability off,
    /// the default; the ingest path then never touches it). Appends run
    /// under the ingest lock so the journal order and the Fenwick order
    /// agree with the snapshot cut taken by jobs.
    wal: Option<ColumnJournal>,
    serving: Arc<HotSwap<dyn RangeEstimator>>,
    served: Mutex<Served>,
    ingest: Mutex<IngestState>,
    /// Segment layout and per-segment budgets for columns built with
    /// [`ColumnBuild::Segmented`]; `None` for monolithic columns.
    segments: Option<Segments>,
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

    /// Consumes up to `k` cooldown ticks, one per update of a batch, and
    /// reports whether every update found one — then the whole batch is
    /// cooling down and must not fire the policy. Lock-free: `fetch_update`
    /// only succeeds while the counter is positive, so concurrent ingest
    /// threads never consume more ticks than remain.
    fn in_cooldown(&self, k: u64) -> bool {
        self.cooldown_remaining
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| {
                (c > 0).then(|| c.saturating_sub(k))
            })
            .is_ok_and(|before| before >= k)
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

    /// Number of parts: one per segment, one for a monolithic column.
    fn part_count(&self) -> usize {
        self.segments.as_ref().map_or(1, |s| s.layout.segments())
    }
}

/// What a maintenance job does. Both kinds run the one pipeline; they
/// differ in their targets, in how a part builds, and in the counters.
#[derive(Clone, Copy, PartialEq, Eq)]
enum JobKind {
    /// Refresh the dirty parts (every part when none is dirty) through
    /// the anytime ladder, or the custom builder.
    Rebuild,
    /// Re-run the requested method directly, at the budget scaled by
    /// [`RebuildConfig::upgrade_budget_factor`], on every part whose
    /// committed build degraded.
    Upgrade,
}

/// One job on a worker's queue.
enum Job {
    Run(JobKind, Arc<ColumnInner>),
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
    /// Ingests `A[i] += delta`: a one-update [`Self::update_batch`].
    pub fn update(&self, i: usize, delta: i64) -> Result<bool> {
        self.update_batch(&[(i, delta)])
    }

    /// Ingests `A[i] += delta` for every `(i, delta)` of `batch`, whole or
    /// not at all: an out-of-range index ([`SynopticError::IndexOutOfBounds`]),
    /// a step that would move a cell outside `i64`
    /// ([`SynopticError::Overflow`]; deltas to one index accumulate in
    /// batch order, as replay applies them) or a failed journal append
    /// rejects the batch before any state changes, and recovery replays a
    /// journaled batch whole or not at all.
    /// Never blocks on a rebuild or a persist: the critical section is the
    /// one journal append plus Fenwick arithmetic. When the rebuild policy
    /// fires after the batch (and no rebuild is already in flight), a
    /// rebuild job is scheduled on the column's home worker. Returns
    /// `Ok(true)` exactly when this call scheduled a rebuild; the rebuild
    /// itself, its persist and its checkpoint finish later, on the worker
    /// ([`ColumnHandle::quiesce`] waits for them). Past the append, the
    /// only error is [`SynopticError::WorkerUnavailable`] from scheduling,
    /// and the batch is applied by then.
    pub fn update_batch(&self, batch: &[(usize, i64)]) -> Result<bool> {
        if batch.is_empty() {
            return Ok(false);
        }
        // Narrow critical section: the write-ahead append, the Fenwick
        // writes, the drift arithmetic they feed, and the dirty-segment
        // marks. The global counter, cooldown ticks, and policy decision
        // run on the captured snapshot after the lock drops.
        let (usr, drift_abs, mass) = {
            let mut st = lock(&self.inner.ingest);
            st.fenwick.check_batch(batch)?;
            if let Some(wal) = &self.inner.wal {
                // Write-ahead: journal before mutating, inside the ingest
                // critical section so the journal order agrees with the
                // snapshot cut a concurrent rebuild takes. A failed append
                // rejects the batch without touching in-memory state.
                let records: Vec<(u64, i64)> = batch.iter().map(|&(i, d)| (i as u64, d)).collect();
                wal.append_batch(&records)?;
            }
            for &(i, delta) in batch {
                st.fenwick.update(i, delta);
                st.drift_abs += (delta as i128).abs();
                if let Some(seg) = &self.inner.segments {
                    st.dirty[seg.layout.segment_of(i)] = true;
                }
            }
            st.updates_since_rebuild += batch.len() as u64;
            (st.updates_since_rebuild, st.drift_abs, st.mass_at_build)
        };
        let k = batch.len() as u64;
        self.inner.stats.updates.fetch_add(k, Ordering::Relaxed);
        if self.inner.in_cooldown(k) {
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
        match self
            .tx
            .send(Job::Run(JobKind::Rebuild, Arc::clone(&self.inner)))
        {
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
    /// per call in the steady state, no shared lock traffic. It carries no
    /// provenance; [`Self::pin`] does.
    pub fn reader(&self) -> HotSwapReader<dyn RangeEstimator> {
        self.inner.serving.reader()
    }

    /// Pins the committed build that serves now: its generation, its
    /// estimator, and its provenance, all read under the lock every commit
    /// swaps under, so they describe the same build however many commits
    /// race the call. The critical section is a few reference-count
    /// increments; the worst outcome is picked after the lock drops.
    pub fn pin(&self) -> PinnedBuild {
        let (generation, estimator, outcomes) = {
            let served = lock(&self.inner.served);
            let (generation, estimator) = self.inner.serving.load_pinned();
            (generation, estimator, Arc::clone(&served.outcomes))
        };
        PinnedBuild {
            generation,
            estimator,
            outcome: worst_outcome(&outcomes),
            segment_outcomes: self.inner.segments.as_ref().map(|_| outcomes),
        }
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
    /// it (`tier == 0` with [`RebuildStats::upgrades`] incremented). A
    /// segmented column reports its most-degraded segment.
    pub fn last_outcome(&self) -> Option<BuildOutcome> {
        worst_outcome(&lock(&self.inner.served).outcomes)
    }

    /// Number of segments of a [`ColumnBuild::Segmented`] column; `None`
    /// for monolithic columns.
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
            .map(|_| lock(&self.inner.served).outcomes.to_vec())
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
    /// nothing to serve, so the error propagates; a segmented column builds
    /// its segments on parallel threads), then hands maintenance to the
    /// column's home worker. If the initial anytime build committed a
    /// degraded rung and the config enables background upgrades, an
    /// upgrade job is scheduled immediately.
    pub fn add_column(
        &self,
        name: &str,
        values: &[i64],
        build: ColumnBuild,
        config: RebuildConfig,
    ) -> Result<ColumnHandle> {
        self.register_column(name, values, build, config, None, None)
    }

    /// [`MaintainedPool::add_column`] for a `Segmented` build
    /// ([`ColumnBuild::Segmented`]).
    pub fn add_column_segmented(
        &self,
        name: &str,
        values: &[i64],
        method: HistogramMethod,
        budget_words: usize,
        segments: usize,
        config: RebuildConfig,
    ) -> Result<ColumnHandle> {
        let build = ColumnBuild::Segmented {
            method,
            budget_words,
            segments,
        };
        self.add_column(name, values, build, config)
    }

    /// [`MaintainedPool::add_column_durable`] for a `Segmented` build
    /// ([`ColumnBuild::Segmented`]).
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
        let build = ColumnBuild::Segmented {
            method,
            budget_words,
            segments,
        };
        self.add_column_durable(
            name,
            values,
            build,
            config,
            storage,
            durability,
            committed_generation,
            persist,
        )
    }

    /// [`MaintainedPool::add_column`] with a persist hook, invoked by the
    /// worker (never the serving thread) after every successful rebuild or
    /// upgrade, under the bounded retry ladder. With journaling enabled in
    /// `durability` it opens (or resumes) the column's write-ahead journal,
    /// appends every acknowledged update to it before the in-memory state
    /// changes, and checkpoints it after each committed persist (`persist`
    /// returns the committed generation; `committed_generation` seeds new
    /// segment headers until then). With [`DurabilityConfig::disabled`]
    /// this is the journal-free path: the hook still runs, and nothing
    /// checkpoints. Segmentation changes only *what the worker rebuilds*,
    /// never what is journaled or persisted.
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
        self.register_column(name, values, build, config, wal, persist)
    }

    /// Builds every part of a new column through the pipeline's build
    /// step (a segmented column's on parallel threads) before registration
    /// returns — a failure means there is nothing to serve, and the error
    /// propagates.
    fn register_column(
        &self,
        name: &str,
        values: &[i64],
        build: ColumnBuild,
        config: RebuildConfig,
        wal: Option<ColumnJournal>,
        persist: Option<DurablePersistFn>,
    ) -> Result<ColumnHandle> {
        validate_policy(&config.policy)?;
        let segments = match &build {
            ColumnBuild::Segmented {
                method,
                budget_words,
                segments,
            } => {
                let layout = SegmentLayout::equi_width(values.len(), *segments)?;
                let budgets = split_segment_budget(values, &layout, *method, *budget_words)?;
                Some(Segments { layout, budgets })
            }
            ColumnBuild::Custom(_) | ColumnBuild::Anytime { .. } => None,
        };
        let build = Mutex::new(build);
        let count = segments.as_ref().map_or(1, |s| s.layout.segments());
        let targets: Vec<usize> = (0..count).collect();
        let threads = thread::available_parallelism().map_or(1, |p| p.get());
        let (segs, kind) = (segments.as_ref(), JobKind::Rebuild);
        let fresh = build_parts(&build, segs, values, &targets, kind, &config, threads)?;
        let (parts, outcomes): (Vec<_>, Vec<_>) = fresh.into_iter().map(|(_, e, o)| (e, o)).unzip();
        let outcomes: Arc<[BuildOutcome]> = outcomes.into_iter().flatten().collect();
        let initial = compose(segs, &parts)?;
        let degraded = outcomes.iter().any(BuildOutcome::is_degraded);
        let dirty = vec![false; if segs.is_some() { count } else { 0 }];
        let inner = Arc::new(ColumnInner {
            name: name.to_string(),
            config,
            build,
            persist: Mutex::new(persist),
            wal,
            serving: Arc::new(HotSwap::new(initial)),
            served: Mutex::new(Served { parts, outcomes }),
            ingest: Mutex::new(IngestState {
                fenwick: Fenwick::from_values(values),
                drift_abs: 0,
                mass_at_build: mass(values),
                updates_since_rebuild: 0,
                dirty,
            }),
            segments,
            cooldown_remaining: AtomicU64::new(0),
            cooldown_factor: AtomicU64::new(1),
            stats: AtomicStats::default(),
            rebuild_pending: AtomicBool::new(false),
            inflight: Mutex::new(0),
            inflight_cv: Condvar::new(),
            last_error: Mutex::new(None),
        });
        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let tx = self.shards[shard].clone();
        // Persist the initial synopsis off-thread, piggybacked on the
        // upgrade machinery: schedule an upgrade job when degraded (it
        // re-persists on success); otherwise leave durability to the
        // first rebuild.
        if degraded && inner.config.upgrade_in_background {
            schedule_upgrade(&tx, &inner);
        }
        Ok(ColumnHandle { inner, tx })
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
    if tx
        .send(Job::Run(JobKind::Upgrade, Arc::clone(col)))
        .is_err()
    {
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

/// The total mass `|Σ A[i]|` the drift trigger measures against.
fn mass(values: &[i64]) -> i128 {
    values.iter().map(|&v| i128::from(v)).sum::<i128>().abs()
}

/// The most-degraded outcome of a set (highest ladder tier), cloned — what
/// [`ColumnHandle::last_outcome`] reports. Per-segment detail lives in
/// [`ColumnHandle::segment_outcomes`].
fn worst_outcome(outcomes: &[BuildOutcome]) -> Option<BuildOutcome> {
    outcomes.iter().max_by_key(|o| o.tier).cloned()
}

/// Composes a column's parts into the estimator it serves: a segmented
/// column's behind a [`SegmentedEstimator`], a monolithic column's one
/// part unwrapped.
fn compose(
    segments: Option<&Segments>,
    parts: &[Arc<dyn RangeEstimator>],
) -> Result<Arc<dyn RangeEstimator>> {
    match segments {
        Some(seg) => Ok(Arc::new(SegmentedEstimator::new(
            seg.layout.clone(),
            parts.to_vec(),
        )?)),
        None => Ok(Arc::clone(&parts[0])),
    }
}

/// A freshly built part: its index, estimator and anytime provenance.
type Fresh = (usize, Arc<dyn RangeEstimator>, Option<BuildOutcome>);

/// The pipeline's build step: builds each part in `targets` from the
/// snapshot `values` for a `kind` job, on up to `threads` threads (the
/// caller's alone when 1). Parts are claimed in order from a shared
/// counter and claiming stops at the first failure, so the error returned
/// is the lowest-index one, as a serial loop would return. Results come
/// back in target order.
fn build_parts(
    build: &Mutex<ColumnBuild>,
    segments: Option<&Segments>,
    values: &[i64],
    targets: &[usize],
    kind: JobKind,
    config: &RebuildConfig,
    threads: usize,
) -> Result<Vec<Fresh>> {
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    // Relaxed: the counter only hands out indices and the flag only stops
    // claiming early; the results come back through `join`.
    let claim = || {
        let mut mine = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&s) = targets.get(i) else { break };
            let part = build_part(build, segments, values, s, kind, config);
            failed.fetch_or(part.is_err(), Ordering::Relaxed);
            mine.push((i, part));
        }
        mine
    };
    let threads = threads.min(targets.len());
    let mut built = if threads <= 1 {
        claim()
    } else {
        thread::scope(|scope| {
            let workers: Vec<_> = (0..threads).map(|_| scope.spawn(claim)).collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|payload| resume_unwind(payload)))
                .collect()
        })
    };
    built.sort_unstable_by_key(|&(i, _)| i);
    built
        .into_iter()
        .map(|(i, part)| part.map(|(est, outcome)| (targets[i], est, outcome)))
        .collect()
}

/// Builds part `s` of a column from the snapshot `values`: a custom
/// column runs its builder over the whole domain under the configured
/// budget; an anytime column runs [`build_segment`] over the part's slice
/// at its word budget.
fn build_part(
    build: &Mutex<ColumnBuild>,
    segments: Option<&Segments>,
    values: &[i64],
    s: usize,
    kind: JobKind,
    config: &RebuildConfig,
) -> Result<(Arc<dyn RangeEstimator>, Option<BuildOutcome>)> {
    let (method, words) = match &mut *lock(build) {
        ColumnBuild::Custom(f) => {
            let ps = PrefixSums::from_values(values);
            let est = contain("build", || {
                f(values, &ps, &config.exec.budget_for_attempt(true))
            })?;
            return Ok((Arc::from(est), None));
        }
        ColumnBuild::Anytime {
            method,
            budget_words,
        }
        | ColumnBuild::Segmented {
            method,
            budget_words,
            ..
        } => (*method, *budget_words),
    };
    let (slice, words) = match segments {
        Some(seg) => {
            let (l, r) = seg.layout.bounds(s);
            (&values[l..=r], seg.budgets[s])
        }
        None => (values, words),
    };
    let factor = (kind == JobKind::Upgrade).then(|| config.upgrade_budget_factor.max(1));
    let (est, outcome) = build_segment(method, slice, words, factor, config)?;
    Ok((est, Some(outcome)))
}

/// Releases an abandoned job's bookkeeping (pending flag, quiesce counter)
/// so handles never wedge on shutdown.
fn abandon(job: Job) {
    if let Job::Run(kind, col) = job {
        if kind == JobKind::Rebuild {
            col.rebuild_pending.store(false, Ordering::Release);
        }
        col.job_finished();
    }
}

/// The column `job` duplicates within `queued` (same column, same kind),
/// if any. Running the earlier job serves both: a job always works from a
/// *fresh* snapshot of the live frequencies, so the duplicate would redo
/// identical work.
fn coalesces_into(queued: &[Job], job: &Job) -> Option<Arc<ColumnInner>> {
    let Job::Run(kind, col) = job else {
        return None;
    };
    queued.iter().find_map(|earlier| match earlier {
        Job::Run(k, a) if k == kind && Arc::ptr_eq(a, col) => Some(Arc::clone(a)),
        _ => None,
    })
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
            if let Job::Run(kind, col) = job {
                run_job(&col, kind, &self_tx);
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

/// The cut a job works from, taken under the ingest lock: the live
/// frequencies, the drift meters and journal mark they cover, the dirty
/// marks a rebuild clears, and the parts the job builds.
struct Snapshot {
    values: Vec<i64>,
    drift_abs: i128,
    updates: u64,
    wal_mark: u64,
    dirty: Vec<bool>,
    targets: Vec<usize>,
}

/// The pipeline's snapshot step, or `None` when an upgrade finds no
/// degraded part (a newer rebuild already restored full quality, or the
/// column is custom-built). The journal mark is read under the ingest
/// lock: appends also run under it, so the mark names exactly the last
/// journal record the snapshot contains. Fails, taking nothing, only if a
/// cell lies outside `i64`, which ingest refuses to bring about.
fn snapshot(col: &ColumnInner, kind: JobKind) -> Result<Option<Snapshot>> {
    let degraded: Vec<usize> = match kind {
        JobKind::Rebuild => Vec::new(),
        JobKind::Upgrade => {
            let outcomes = &lock(&col.served).outcomes;
            (0..outcomes.len())
                .filter(|&s| outcomes[s].is_degraded())
                .collect()
        }
    };
    if kind == JobKind::Upgrade && degraded.is_empty() {
        return Ok(None);
    }
    let mut st = lock(&col.ingest);
    let values = st.fenwick.to_values()?;
    let mut dirty = Vec::new();
    if kind == JobKind::Rebuild {
        let clean = vec![false; st.dirty.len()];
        dirty = std::mem::replace(&mut st.dirty, clean);
    }
    let targets = match kind {
        JobKind::Upgrade => degraded,
        JobKind::Rebuild if dirty.contains(&true) => {
            (0..dirty.len()).filter(|&s| dirty[s]).collect()
        }
        JobKind::Rebuild => (0..col.part_count()).collect(),
    };
    Ok(Some(Snapshot {
        values,
        drift_abs: st.drift_abs,
        updates: st.updates_since_rebuild,
        wal_mark: col.wal.as_ref().map_or(0, |w| w.pending_mark()),
        dirty,
        targets,
    }))
}

/// Runs one job through the pipeline: snapshot → build → commit, or the
/// failure path. Failure is atomic: unless every target builds and the
/// parts compose, nothing swaps.
fn run_job(col: &Arc<ColumnInner>, kind: JobKind, self_tx: &mpsc::Sender<Job>) {
    match snapshot(col, kind) {
        Ok(Some(snap)) => {
            let (build, segments) = (&col.build, col.segments.as_ref());
            let built = build_parts(
                build,
                segments,
                &snap.values,
                &snap.targets,
                kind,
                &col.config,
                1,
            );
            if let Err(err) = built.and_then(|fresh| commit(col, kind, &snap, fresh, self_tx)) {
                fail(col, kind, snap.dirty, err);
            }
        }
        Ok(None) => {}
        Err(err) => fail(col, kind, Vec::new(), err),
    }
    col.job_finished();
}

/// The pipeline's commit: composes the fresh parts with the reused ones
/// and swaps the result in together with its provenance, rebases the
/// drift meters on the snapshot, updates the counters, persists and
/// checkpoints, and schedules an upgrade when what now serves is degraded.
/// Fails, before changing anything, only if the parts do not compose.
fn commit(
    col: &Arc<ColumnInner>,
    kind: JobKind,
    snap: &Snapshot,
    fresh: Vec<Fresh>,
    self_tx: &mpsc::Sender<Job>,
) -> Result<()> {
    let (estimator, degraded) = {
        let mut served = lock(&col.served);
        let mut parts = served.parts.clone();
        for (s, est, _) in &fresh {
            parts[*s] = Arc::clone(est);
        }
        let estimator = compose(col.segments.as_ref(), &parts)?;
        col.serving.swap(Arc::clone(&estimator));
        served.parts = parts;
        let mut outcomes = served.outcomes.to_vec();
        for (s, _, outcome) in fresh {
            if let Some(outcome) = outcome {
                outcomes[s] = outcome;
            }
        }
        served.outcomes = outcomes.into();
        (
            estimator,
            served.outcomes.iter().any(BuildOutcome::is_degraded),
        )
    };
    {
        // Rebase drift bookkeeping on the snapshot: updates that arrived
        // *during* the build keep their drift contribution relative to
        // the freshly built synopsis.
        let mut st = lock(&col.ingest);
        st.drift_abs -= snap.drift_abs;
        st.mass_at_build = mass(&snap.values);
        st.updates_since_rebuild -= snap.updates;
    }
    match kind {
        JobKind::Rebuild => {
            col.clear_cooldown();
            col.stats.rebuilds.fetch_add(1, Ordering::Relaxed);
            if col.segments.is_some() {
                let rebuilt = snap.targets.len() as u64;
                let reused = col.part_count() as u64 - rebuilt;
                col.stats
                    .segments_rebuilt
                    .fetch_add(rebuilt, Ordering::Relaxed);
                col.stats
                    .segments_reused
                    .fetch_add(reused, Ordering::Relaxed);
            }
            *lock(&col.last_error) = None;
            // Ingest may schedule the next rebuild from here on; it will
            // run after this job (same worker), which is exactly the
            // serialization we want.
            col.rebuild_pending.store(false, Ordering::Release);
        }
        JobKind::Upgrade => {
            col.stats.upgrades.fetch_add(1, Ordering::Relaxed);
        }
    }
    run_persist(col, estimator.as_ref(), &snap.values, snap.wal_mark);
    if degraded && col.config.upgrade_in_background {
        schedule_upgrade(self_tx, col);
    }
    Ok(())
}

/// The pipeline's failure path; the last-good synopsis keeps serving. A
/// failed rebuild ORs the snapshot's dirty marks (`dirty`, empty when no
/// snapshot was taken) back over whatever ingest dirtied meanwhile,
/// records the error — cancellation provenance included — and starts the
/// cooldown. A failed upgrade records the error; the next degraded
/// rebuild schedules another attempt.
fn fail(col: &ColumnInner, kind: JobKind, dirty: Vec<bool>, err: SynopticError) {
    match kind {
        JobKind::Rebuild => {
            for (mark, was) in lock(&col.ingest).dirty.iter_mut().zip(dirty) {
                *mark |= was;
            }
            col.stats.failed_rebuilds.fetch_add(1, Ordering::Relaxed);
            col.set_error(err);
            col.start_cooldown();
            col.rebuild_pending.store(false, Ordering::Release);
        }
        JobKind::Upgrade => {
            col.stats.failed_upgrades.fetch_add(1, Ordering::Relaxed);
            col.set_error(err);
        }
    }
}

/// Runs the persist hook, if any, through the bounded retry ladder on the
/// worker, each attempt panic-contained (a panic is final: counted as a
/// persist failure and never retried). A journaled column then
/// checkpoints its journal at the mark the committed generation covers.
fn run_persist(col: &ColumnInner, estimator: &dyn RangeEstimator, values: &[i64], wal_mark: u64) {
    let mut hook = lock(&col.persist);
    let Some(hook) = hook.as_mut() else {
        return;
    };
    let snapshot = DurableSnapshot {
        estimator,
        values,
        wal_mark,
    };
    let attempt = || contain("persist hook", || hook(&snapshot));
    let (report, generation) = persist_with_retry(attempt, &col.config);
    col.stats
        .persist_retries
        .fetch_add(report.retries, Ordering::Relaxed);
    if report.failed {
        col.stats.persist_failures.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(err) = report.last_error {
        col.set_error(err);
    }
    if let (Some(wal), Some(generation)) = (&col.wal, generation) {
        // A failed truncation is non-fatal: stale segments are skipped at
        // replay (LSNs ≤ the committed mark) and the next checkpoint
        // retries the delete.
        if let Err(err) = wal.checkpoint(wal_mark, generation) {
            col.set_error(err);
        }
    }
}

/// Compile-time proof (checked by every `cargo build`, including the
/// release gate in `ci.sh`) that the serving handle, its pin, the pool,
/// and the persist hook type cross thread boundaries.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<ColumnHandle>();
    assert_send_sync::<PinnedBuild>();
    assert_send_sync::<MaintainedPool>();
    assert_send::<DurablePersistFn>();
    assert_send::<PoolBuildFn>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use synoptic_core::CancelToken;
    use synoptic_hist::builder::{build_with_budget, AnytimeParams};
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
    fn a_batch_fires_the_policy_once_after_all_its_updates() {
        let pool = MaintainedPool::new(1);
        let col = pool
            .add_column(
                "c",
                &[10i64; 12],
                sap0_builder(),
                RebuildConfig::new(RebuildPolicy::EveryKUpdates(5)),
            )
            .unwrap();
        assert!(!col.update_batch(&[(0, 1), (1, 1), (2, 1)]).unwrap());
        // The fifth update lands mid-batch; the batch schedules once.
        assert!(col.update_batch(&[(3, 1), (4, 1), (5, 1)]).unwrap());
        col.quiesce();
        assert!(!col.update_batch(&[]).unwrap());
        let stats = col.stats();
        assert_eq!((stats.updates, stats.rebuilds), (6, 1));
        assert_eq!(col.exact(RangeQuery::new(0, 11).unwrap()), 126);
    }

    #[test]
    fn an_out_of_range_index_refuses_the_whole_batch_untouched() {
        let dir = std::env::temp_dir().join(format!("synoptic_pool_bounds_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pool = MaintainedPool::new(1);
        let vals = [1i64; 8];
        let config = RebuildConfig::new(RebuildPolicy::Manual);
        let plain = pool
            .add_column("plain", &vals, sap0_builder(), config.clone())
            .unwrap();
        let storage: SharedStorage = Arc::new(synoptic_catalog::FsStorage::new());
        let journaled = pool
            .add_column_durable(
                "journaled",
                &vals,
                sap0_builder(),
                config,
                storage,
                &DurabilityConfig::journaled(&dir),
                0,
                None,
            )
            .unwrap();
        for col in [&plain, &journaled] {
            col.update(0, 1).unwrap();
            let mark = col.wal_mark();
            // The bad index comes last: nothing before it may land.
            assert_eq!(
                col.update_batch(&[(1, 5), (2, 5), (8, 5)]),
                Err(SynopticError::IndexOutOfBounds { index: 8, n: 8 })
            );
            assert_eq!(
                col.update(9, 1),
                Err(SynopticError::IndexOutOfBounds { index: 9, n: 8 })
            );
            assert_eq!(col.wal_mark(), mark, "{}", col.name());
            assert_eq!(col.exact(RangeQuery::new(0, 7).unwrap()), 9);
            assert_eq!(col.stats().updates, 1);
        }
        assert_eq!(journaled.wal_mark(), 1);
        drop(pool);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A batch that would move a cell outside `i64` is refused whole,
    /// before the journal, like an out-of-range index: the Fenwick tree
    /// sums in `i128`, so without the check `exact` reads past `i64` and
    /// the next rebuild's snapshot wraps.
    #[test]
    fn a_batch_that_would_leave_i64_is_refused_whole_untouched() {
        let dir = std::env::temp_dir().join(format!("synoptic_pool_wrap_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pool = MaintainedPool::new(1);
        let mut vals = [0i64; 8];
        vals[3] = i64::MAX - 1;
        let naive = || {
            ColumnBuild::Custom(Box::new(|v: &[i64], ps: &PrefixSums, b: &Budget| {
                build_with_budget(HistogramMethod::Naive, v, ps, 1, b)
            }))
        };
        let config = RebuildConfig::new(RebuildPolicy::Manual);
        let plain = pool
            .add_column("plain", &vals, naive(), config.clone())
            .unwrap();
        let storage: SharedStorage = Arc::new(synoptic_catalog::FsStorage::new());
        let journaled = pool
            .add_column_durable(
                "journaled",
                &vals,
                naive(),
                config,
                storage,
                &DurabilityConfig::journaled(&dir),
                0,
                None,
            )
            .unwrap();
        let cell = |col: &ColumnHandle| col.exact(RangeQuery::new(3, 3).unwrap());
        for col in [&plain, &journaled] {
            col.update(0, 1).unwrap();
            let mark = col.wal_mark();
            assert_eq!(col.update_batch(&[(3, 5)]), Err(SynopticError::Overflow));
            // Each delta fits alone; accumulated in batch order the second
            // leaves i64, so nothing of the batch lands.
            assert_eq!(
                col.update_batch(&[(1, 2), (3, 1), (3, 1)]),
                Err(SynopticError::Overflow)
            );
            assert_eq!(col.wal_mark(), mark, "{}", col.name());
            assert_eq!(cell(col), (i64::MAX - 1) as i128);
            assert_eq!(col.exact(RangeQuery::new(0, 2).unwrap()), 1);
            assert_eq!(col.stats().updates, 1);
            // A batch whose every step stays inside i64 lands, and the next
            // rebuild snapshots it without error.
            assert!(!col.update_batch(&[(3, 1), (3, -2)]).unwrap());
            assert_eq!(cell(col), (i64::MAX - 2) as i128);
            col.request_rebuild().unwrap();
            col.quiesce();
            assert_eq!(col.stats().rebuilds, 1, "{}", col.name());
            assert_eq!(col.last_error(), None, "{}", col.name());
        }
        assert_eq!(journaled.wal_mark(), 3);
        drop(pool);
        let _ = std::fs::remove_dir_all(&dir);
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
                RebuildConfig::new(policy)
                    .with_exec(AnytimeParams::unconstrained().with_max_cells(initial_cells)),
            ),
            (
                "cancel",
                RebuildConfig::new(policy)
                    .with_exec(AnytimeParams::unconstrained().with_cancel_token(token.clone())),
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
            .with_exec(AnytimeParams::unconstrained().with_max_cells(cap))
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
            let persist: DurablePersistFn = Box::new(move |_snap| {
                if failures_left > 0 {
                    failures_left -= 1;
                    return Err(SynopticError::Io {
                        path: "/dev/faulty".into(),
                        detail: "enospc".into(),
                    });
                }
                Ok(0)
            });
            let config = RebuildConfig::new(RebuildPolicy::Manual)
                .with_persist_retries(retries, Duration::from_micros(10));
            let storage: SharedStorage = Arc::new(synoptic_catalog::FsStorage::new());
            let col = pool
                .add_column_durable(
                    "c",
                    &vals,
                    sap0_builder(),
                    config,
                    storage,
                    &DurabilityConfig::disabled(),
                    0,
                    Some(persist),
                )
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

//! The shared vocabulary of synopsis maintenance: when to rebuild, under
//! what budget, and how to persist the result.
//!
//! Histograms have no cheap incremental form (their boundaries are the
//! optimized object), so production systems ingest updates into the base
//! table and *rebuild* statistics when they have drifted enough. The
//! engine that runs that loop is [`crate::pool::MaintainedPool`]; this
//! module holds what it is configured with and the pieces of the loop
//! that do not depend on threads:
//!
//! * [`RebuildPolicy`] / [`RebuildConfig`] — the trigger plus the
//!   execution-control (deadline, cell cap, cancellation) and persist
//!   retry knobs applied to every rebuild;
//! * [`DurabilityConfig`] — opt-in write-ahead journaling of the ingest
//!   path;
//! * [`RebuildStats`] — the maintenance counters a column reports;
//! * [`drift_exceeds`] — the exact integer test behind
//!   [`RebuildPolicy::DriftFraction`];
//! * the one panic-containment helper every call into builder or hook
//!   code goes through, and the bounded persist retry ladder the pool's
//!   workers run.
//!
//! ## Robustness contract
//!
//! The serving invariant is **the estimator never disappears**: once a
//! column's initial build succeeds, it always has a synopsis to answer
//! from, no matter what rebuilds do. Concretely:
//!
//! * Every rebuild runs under a [`Budget`] (deadline / cell cap /
//!   cancellation from [`RebuildConfig`]). A rebuild that exhausts its
//!   budget or is cancelled leaves the **last-good** synopsis serving.
//! * Builder and persist-hook panics are contained at this subsystem
//!   boundary with [`std::panic::catch_unwind`] and surface as
//!   [`SynopticError::BuildPanicked`]; the last-good (or, for a hook,
//!   the fresh) synopsis keeps serving and the worker keeps running.
//! * A deadline too far out to represent is no deadline, and upgrade
//!   budgets scale with saturating arithmetic — no configuration value
//!   can overflow on the worker.
//! * After a failed rebuild the column enters a doubling *cooldown* (in
//!   updates) so a persistently failing builder cannot turn the ingest
//!   path into a rebuild storm.
//! * An optional persist hook runs after each successful rebuild or
//!   upgrade, with bounded retry + doubling backoff on transient
//!   [`SynopticError::Io`] / [`SynopticError::CorruptSynopsis`] errors,
//!   and a **hard cap on total retry wall-clock**
//!   ([`RebuildConfig::persist_total_backoff`], default 2 s) so a dead disk
//!   cannot wedge a maintenance worker. A persist failure **never** unseats
//!   the freshly built in-memory synopsis — durability lags, serving does
//!   not.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Duration;

use synoptic_catalog::wal::{ColumnWal, FsyncCadence, WalConfig};
use synoptic_catalog::Storage;
use synoptic_core::{Budget, CancelToken, RangeEstimator, Result, SynopticError};
use synoptic_hist::builder::AnytimeParams;

/// The storage handle journaled columns append through: shared because
/// appends run on ingest threads while checkpoints run on rebuild workers.
pub type SharedStorage = std::sync::Arc<dyn Storage + Send + Sync>;

/// A column's write-ahead journal over the shared storage handle.
pub type ColumnJournal = ColumnWal<SharedStorage>;

/// When to rebuild the synopsis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RebuildPolicy {
    /// Rebuild after every `k` updates.
    EveryKUpdates(u64),
    /// Rebuild when the accumulated absolute update mass `Σ|δ|` exceeds the
    /// given fraction of the total mass at last build.
    DriftFraction(f64),
    /// Only rebuild when [`crate::pool::ColumnHandle::request_rebuild`]
    /// is called.
    Manual,
}

/// Maintenance configuration: the rebuild policy plus the execution-control
/// and durability knobs applied to every rebuild.
#[derive(Debug, Clone)]
pub struct RebuildConfig {
    /// When to rebuild.
    pub policy: RebuildPolicy,
    /// Wall-clock allowance per rebuild. `None` = no deadline.
    pub deadline: Option<Duration>,
    /// DP-cell allowance per rebuild. `None` = no cap.
    pub max_cells: Option<u64>,
    /// Cooperative cancellation observed by in-flight rebuilds.
    pub cancel: Option<CancelToken>,
    /// Extra attempts for the persist hook on transient storage errors
    /// (0 = no retry).
    pub persist_retries: u32,
    /// Initial backoff between persist attempts; doubles per retry.
    pub persist_backoff: Duration,
    /// Hard cap on the *total* wall-clock spent sleeping between persist
    /// attempts, across the whole doubling ladder. Once the cap is spent,
    /// the next failure is final regardless of `persist_retries` — a dead
    /// disk must not wedge a maintenance thread. Default 2 s.
    pub persist_total_backoff: Duration,
    /// Updates to suppress policy-fired rebuilds after a failure; doubles
    /// per consecutive failure (capped at 1024×), resets on success.
    pub failure_cooldown_updates: u64,
    /// After a *degraded* anytime build commits, re-run the originally
    /// requested rung in the background with a
    /// [`RebuildConfig::upgrade_budget_factor`]× budget and hot-swap the
    /// better synopsis on success (the inverse of the fallback ladder).
    /// Only [`crate::pool::ColumnBuild::Anytime`] columns degrade, so
    /// custom-built columns never upgrade.
    pub upgrade_in_background: bool,
    /// Budget multiplier (deadline and cell cap) for background upgrade
    /// attempts. Default 4.
    pub upgrade_budget_factor: u32,
    /// Evaluate budget constraints only at every `charge_batch`-th
    /// checkpoint ([`Budget::with_charge_batch`]): on small `n`, where a
    /// checkpoint guards a handful of DP cells, this trades up to
    /// `charge_batch - 1` checkpoints of cancellation/deadline latency for
    /// lower per-checkpoint overhead. Default 1 (check every checkpoint);
    /// never changes what an unconstrained build produces.
    pub charge_batch: u64,
}

impl RebuildConfig {
    /// Defaults: no execution constraints, 2 persist retries with 1 ms
    /// initial backoff capped at 2 s total, 8-update failure cooldown, no
    /// background upgrades.
    pub fn new(policy: RebuildPolicy) -> Self {
        Self {
            policy,
            deadline: None,
            max_cells: None,
            cancel: None,
            persist_retries: 2,
            persist_backoff: Duration::from_millis(1),
            persist_total_backoff: Duration::from_secs(2),
            failure_cooldown_updates: 8,
            upgrade_in_background: false,
            upgrade_budget_factor: 4,
            charge_batch: 1,
        }
    }

    /// Sets the per-rebuild wall-clock allowance.
    #[must_use]
    pub fn with_deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }

    /// Sets the per-rebuild DP-cell allowance.
    #[must_use]
    pub fn with_max_cells(mut self, max_cells: u64) -> Self {
        self.max_cells = Some(max_cells);
        self
    }

    /// Attaches a cancellation token observed by every rebuild.
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Configures persist retry behaviour.
    #[must_use]
    pub fn with_persist_retries(mut self, retries: u32, backoff: Duration) -> Self {
        self.persist_retries = retries;
        self.persist_backoff = backoff;
        self
    }

    /// Caps the total wall-clock spent sleeping between persist retries.
    #[must_use]
    pub fn with_persist_total_backoff(mut self, cap: Duration) -> Self {
        self.persist_total_backoff = cap;
        self
    }

    /// Enables background upgrades after degraded anytime builds, with the
    /// given budget multiplier.
    #[must_use]
    pub fn with_background_upgrade(mut self, budget_factor: u32) -> Self {
        self.upgrade_in_background = true;
        self.upgrade_budget_factor = budget_factor.max(1);
        self
    }

    /// Sets the checkpoint batching factor (see
    /// [`RebuildConfig::charge_batch`]).
    #[must_use]
    pub fn with_charge_batch(mut self, batch: u64) -> Self {
        self.charge_batch = batch;
        self
    }

    /// The [`Budget`] for one direct build: the configured deadline and
    /// cell cap scaled by `factor` (1 for rebuilds, the upgrade factor for
    /// upgrades; a product past the range means no limit), plus the cancel
    /// token and [`RebuildConfig::charge_batch`].
    pub(crate) fn budget(&self, factor: u32) -> Budget {
        let mut b = Budget::unlimited().with_charge_batch(self.charge_batch);
        if let Some(d) = self.deadline {
            b = b.with_deadline(d.saturating_mul(factor));
        }
        if let Some(c) = self.max_cells {
            b = b.with_max_cells(c.saturating_mul(u64::from(factor)));
        }
        if let Some(t) = &self.cancel {
            b = b.with_cancel_token(t.clone());
        }
        b
    }

    /// The per-rung constraints the anytime ladder runs a rebuild under.
    pub(crate) fn anytime_params(&self) -> AnytimeParams {
        AnytimeParams {
            deadline: self.deadline,
            max_cells: self.max_cells,
            cancel: self.cancel.clone(),
        }
    }
}

/// Opt-in crash durability for the ingest path of a pool column.
///
/// When enabled, every acknowledged `update()` is appended to a
/// checksummed per-column write-ahead journal
/// ([`synoptic_catalog::wal::ColumnWal`]) *before* the in-memory Fenwick
/// state changes, and startup recovery ([`crate::recovery`]) replays the
/// journal on top of the last committed catalog generation. Disabled by
/// default: with `wal_dir` unset, the ingest path is bit-identical to the
/// journal-free behaviour — no extra branches taken, no I/O, no locks.
#[derive(Debug, Clone, Default)]
pub struct DurabilityConfig {
    /// Directory holding the column's journal segments. `None` (the
    /// default) disables write-ahead logging entirely.
    pub wal_dir: Option<PathBuf>,
    /// Segment-rotation and fsync tuning, consulted only when `wal_dir`
    /// is set.
    pub wal: WalConfig,
}

impl DurabilityConfig {
    /// Durability off (the default): no journal, no recovery obligations.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Journals ingest under `dir` with default tuning (64 KiB segments,
    /// fsync on every record).
    pub fn journaled(dir: impl Into<PathBuf>) -> Self {
        Self {
            wal_dir: Some(dir.into()),
            wal: WalConfig::default(),
        }
    }

    /// Sets the segment-rotation size in bytes.
    #[must_use]
    pub fn with_segment_bytes(mut self, bytes: usize) -> Self {
        self.wal.segment_bytes = bytes;
        self
    }

    /// Sets the fsync cadence ([`FsyncCadence`]).
    #[must_use]
    pub fn with_fsync(mut self, cadence: FsyncCadence) -> Self {
        self.wal.fsync = cadence;
        self
    }

    /// Whether write-ahead logging is enabled.
    pub fn enabled(&self) -> bool {
        self.wal_dir.is_some()
    }

    /// Opens `column`'s journal per this configuration: `Ok(None)` when
    /// durability is disabled. `committed_generation` is stamped into new
    /// segment headers until the first checkpoint (see
    /// [`ColumnWal::open`]).
    pub fn open_journal(
        &self,
        storage: SharedStorage,
        column: &str,
        committed_generation: u64,
    ) -> Result<Option<ColumnJournal>> {
        match &self.wal_dir {
            None => Ok(None),
            Some(dir) => Ok(Some(ColumnWal::open(
                storage,
                dir.clone(),
                column,
                committed_generation,
                self.wal,
            )?)),
        }
    }
}

/// Counters describing the maintenance history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebuildStats {
    /// Total updates ingested.
    pub updates: u64,
    /// Updates since the last successful rebuild.
    pub updates_since_rebuild: u64,
    /// Number of successful rebuilds performed (excluding the initial
    /// build).
    pub rebuilds: u64,
    /// Rebuild attempts that failed (budget exhausted, cancelled, panicked,
    /// or builder error); the previous synopsis kept serving each time.
    pub failed_rebuilds: u64,
    /// Persist-hook invocations that failed even after retries; the
    /// in-memory synopsis stayed fresh each time.
    pub persist_failures: u64,
    /// Individual persist attempts that errored and were retried.
    pub persist_retries: u64,
    /// Background upgrades that completed and hot-swapped a better synopsis
    /// over a degraded rung's result.
    pub upgrades: u64,
    /// Background upgrade attempts that failed; the degraded synopsis kept
    /// serving.
    pub failed_upgrades: u64,
    /// Duplicate rebuild/upgrade jobs collapsed by worker-queue coalescing
    /// before they ran.
    pub coalesced: u64,
    /// Segments rebuilt across all successful rebuilds (segmented columns
    /// only; always 0 for monolithic columns).
    pub segments_rebuilt: u64,
    /// Segments whose partial was reused unchanged because they were
    /// clean at the rebuild cut (segmented columns only).
    pub segments_reused: u64,
}

/// Exact integer test for the [`RebuildPolicy::DriftFraction`] trigger:
/// fires iff `drift_abs > f · mass` **in exact rational arithmetic**.
///
/// The naive `drift_abs as f64 > f * mass as f64` comparison silently loses
/// precision once either side exceeds 2⁵³ (an `i128` mass does not fit in
/// an `f64` mantissa), producing spurious or missed fires near the
/// threshold. Instead we use the fact that every finite `f64` is exactly
/// `m · 2^e` for integers `m ≤ 2⁵³` and `e`, and cross-multiply:
///
/// ```text
/// drift > (m · 2^e) · mass   ⟺   drift · 2^-e > m · mass      (e < 0)
///                            ⟺   drift > (m · mass) · 2^e     (e ≥ 0)
/// ```
///
/// both sides evaluated in 256-bit integers (`m · mass` needs ≤ 181 bits;
/// the shifts saturate, which is exact for comparison purposes because the
/// unshifted side always fits in 128 bits). `mass` is clamped to ≥ 1,
/// matching the policy's treatment of empty distributions.
pub fn drift_exceeds(drift_abs: i128, f: f64, mass: i128) -> bool {
    debug_assert!(
        f > 0.0 && f.is_finite(),
        "policy validation enforces a finite f > 0"
    );
    let drift = drift_abs.unsigned_abs();
    let mass = mass.unsigned_abs().max(1);
    // Exact decomposition f = m · 2^e.
    let bits = f.to_bits();
    let exp_field = ((bits >> 52) & 0x7ff) as i32;
    let frac = bits & ((1u64 << 52) - 1);
    let (m, e) = if exp_field == 0 {
        (frac, -1074i32) // subnormal
    } else {
        (frac | (1u64 << 52), exp_field - 1075)
    };
    if m == 0 {
        return drift > 0; // f == +0.0: defensive, excluded by validation
    }
    let rhs = mul_u128_by_u64(mass, m);
    let lhs = (0u128, drift);
    if e >= 0 {
        cmp_u256(lhs, shl_u256_saturating(rhs, e as u32)) == std::cmp::Ordering::Greater
    } else {
        cmp_u256(shl_u256_saturating(lhs, e.unsigned_abs()), rhs) == std::cmp::Ordering::Greater
    }
}

/// `a · b` as a 256-bit `(hi, lo)` pair.
fn mul_u128_by_u64(a: u128, b: u64) -> (u128, u128) {
    const LOW64: u128 = (1u128 << 64) - 1;
    let b = b as u128;
    let p0 = (a & LOW64) * b;
    let p1 = (a >> 64) * b;
    let mid = (p0 >> 64) + p1; // ≤ 2^64 + 2^117: no overflow
    ((mid >> 64), (mid << 64) | (p0 & LOW64))
}

/// `v << s` on a 256-bit `(hi, lo)` pair, saturating to the 256-bit max on
/// overflow. Saturation is exact for our comparisons: the opposite side of
/// every comparison fits in far fewer than 256 bits.
fn shl_u256_saturating(v: (u128, u128), s: u32) -> (u128, u128) {
    const SAT: (u128, u128) = (u128::MAX, u128::MAX);
    let (hi, lo) = v;
    if s == 0 || (hi == 0 && lo == 0) {
        return v;
    }
    if s >= 256 {
        return SAT;
    }
    if s < 128 {
        if hi >> (128 - s) != 0 {
            return SAT;
        }
        ((hi << s) | (lo >> (128 - s)), lo << s)
    } else {
        let s2 = s - 128;
        if hi != 0 || (s2 > 0 && lo >> (128 - s2) != 0) {
            return SAT;
        }
        (lo << s2, 0)
    }
}

/// Lexicographic comparison of 256-bit `(hi, lo)` pairs.
fn cmp_u256(a: (u128, u128), b: (u128, u128)) -> std::cmp::Ordering {
    a.0.cmp(&b.0).then(a.1.cmp(&b.1))
}

/// Runs builder or hook code with its panics contained at this subsystem
/// boundary: a panic surfaces as [`SynopticError::BuildPanicked`], its
/// detail naming `what` panicked, and the maintenance worker lives on.
/// Every call from the pool into caller-supplied or construction code
/// goes through here.
pub(crate) fn contain<T>(what: &str, f: impl FnOnce() -> Result<T>) -> Result<T> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let detail = if let Some(s) = payload.downcast_ref::<&str>() {
            s
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.as_str()
        } else {
            "non-string panic payload"
        };
        Err(SynopticError::BuildPanicked {
            detail: format!("{what} panicked: {detail}"),
        })
    })
}

/// Classifies persist errors worth retrying: transient storage conditions,
/// not logic errors (and not a contained hook panic).
pub(crate) fn persist_error_is_transient(err: &SynopticError) -> bool {
    matches!(
        err,
        SynopticError::Io { .. } | SynopticError::CorruptSynopsis { .. }
    )
}

/// The post-rebuild durability hook. `Send` because the hook crosses a
/// thread boundary in the pool design: the serving thread installs it, the
/// background rebuild worker runs it (with retries and backoff) off the
/// ingest path.
pub type PersistFn = Box<dyn FnMut(&dyn RangeEstimator) -> Result<()> + Send>;

/// What a durable persist hook is handed after a successful rebuild of a
/// journaled column: the fresh estimator, the **exact frequencies** the
/// build snapshotted (recovery replays journal deltas on top of these, so
/// the hook must persist them — typically via
/// [`synoptic_catalog::PersistentSynopsis::from_frequencies`]), and the
/// journal LSN the snapshot covers (to record as the column's WAL mark via
/// [`synoptic_catalog::Catalog::set_wal_mark`]).
pub struct DurableSnapshot<'a> {
    /// The freshly built (now serving) estimator.
    pub estimator: &'a dyn RangeEstimator,
    /// The exact frequency vector the build ran over.
    pub values: &'a [i64],
    /// LSN of the last journal record captured by `values`.
    pub wal_mark: u64,
}

/// The persist hook for journaled columns. Returns the committed catalog
/// generation on success; the maintenance loop then checkpoints the
/// journal at the snapshot's WAL mark, truncating segments whose deltas
/// the committed generation now covers.
pub type DurablePersistFn = Box<dyn FnMut(&DurableSnapshot<'_>) -> Result<u64> + Send>;

/// What one run of the persist retry ladder did.
#[derive(Debug, Default)]
pub(crate) struct PersistReport {
    /// Attempts that errored and were retried.
    pub retries: u64,
    /// Whether the ladder gave up (the synopsis is fresh in memory but not
    /// durable).
    pub failed: bool,
    /// The most recent error observed, if any attempt errored (present
    /// even when a later retry succeeded).
    pub last_error: Option<SynopticError>,
}

/// Runs one persist `attempt` with bounded retry + doubling backoff, and a
/// hard cap on the total wall-clock slept
/// ([`RebuildConfig::persist_total_backoff`]). Returns the report and the
/// successful attempt's value, if any attempt succeeded.
///
/// This function may sleep. The pool runs it on the column's rebuild
/// worker, where the sleeps overlap serving and ingest instead of
/// stalling them.
pub(crate) fn persist_with_retry<T>(
    mut attempt: impl FnMut() -> Result<T>,
    config: &RebuildConfig,
) -> (PersistReport, Option<T>) {
    let mut report = PersistReport::default();
    let mut backoff = config.persist_backoff;
    let mut slept = Duration::ZERO;
    let attempts = 1 + config.persist_retries;
    for n in 0..attempts {
        match attempt() {
            Ok(value) => return (report, Some(value)),
            Err(err) => {
                let transient = persist_error_is_transient(&err);
                report.last_error = Some(err);
                let remaining = config.persist_total_backoff.saturating_sub(slept);
                if !transient || n + 1 >= attempts || remaining.is_zero() {
                    break;
                }
                report.retries += 1;
                let nap = backoff.min(remaining);
                std::thread::sleep(nap);
                slept += nap;
                backoff = backoff.saturating_mul(2);
            }
        }
    }
    report.failed = true;
    (report, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use synoptic_core::PrefixSums;
    use synoptic_hist::sap0::build_sap0_with_budget;

    #[test]
    fn drift_exceeds_is_exact_at_the_2p53_boundary() {
        // mass = 2⁵³ + 1 is not representable in f64: `mass as f64` rounds
        // down to 2⁵³, so the naive float comparison
        // `drift as f64 > f * mass as f64` would fire at drift == mass.
        // The exact test must NOT fire there (strict inequality) and MUST
        // fire at drift == mass + 1.
        let mass: i128 = (1i128 << 53) + 1;
        assert!(!drift_exceeds(mass, 1.0, mass), "drift == f·mass: no fire");
        assert!(drift_exceeds(mass + 1, 1.0, mass), "drift == f·mass + 1");

        // Demonstrate the naive float comparison genuinely misses a fire:
        // drift = 2⁵³ + 1 exceeds mass = 2⁵³, but `drift as f64` rounds
        // down to exactly 2⁵³ and the strict float inequality fails.
        let mass: i128 = 1i128 << 53;
        let drift = mass + 1;
        let naive = (drift as f64) > 1.0 * (mass as f64);
        assert!(!naive, "float rounding hides the exceedance");
        assert!(drift_exceeds(drift, 1.0, mass), "exact math catches it");

        // f = 0.5 with an odd huge mass: f·mass = (2⁵⁴ + 2)/2 = 2⁵³ + 1,
        // again straddling the mantissa limit.
        let mass: i128 = (1i128 << 54) + 2;
        let thresh: i128 = (1i128 << 53) + 1;
        assert!(!drift_exceeds(thresh, 0.5, mass));
        assert!(drift_exceeds(thresh + 1, 0.5, mass));

        // Subnormal f: f = 2^-1074 (minimum positive f64). Exact threshold
        // is mass·2^-1074; for any mass < 2^1074 and drift ≥ 1 this fires.
        let tiny = f64::from_bits(1);
        assert!(drift_exceeds(1, tiny, i128::MAX));
        assert!(!drift_exceeds(0, tiny, 10));

        // Very large f saturates the shifted side; drift (≤ 2^127) can
        // never exceed it.
        assert!(!drift_exceeds(i128::MAX, f64::MAX, i128::MAX));

        // Small sanity values agree with plain arithmetic.
        assert!(drift_exceeds(11, 0.1, 100));
        assert!(!drift_exceeds(10, 0.1, 100));
    }

    #[test]
    fn persist_total_backoff_caps_wall_clock() {
        // 20 retries with 100 ms starting backoff would sleep > 2 s doubling;
        // a 5 ms cap must bound the whole ladder to ~5 ms.
        let mut persist: PersistFn = Box::new(|_e: &dyn RangeEstimator| {
            Err(SynopticError::Io {
                path: "/dev/full".into(),
                detail: "enospc".into(),
            })
        });
        let config = RebuildConfig::new(RebuildPolicy::Manual)
            .with_persist_retries(20, Duration::from_millis(100))
            .with_persist_total_backoff(Duration::from_millis(5));
        let vals = vec![2i64; 4];
        let (est, _) =
            build_sap0_with_budget(&PrefixSums::from_values(&vals), 2, &Budget::unlimited())
                .unwrap();
        let start = std::time::Instant::now();
        let (report, _) = persist_with_retry(|| persist(&est), &config);
        let elapsed = start.elapsed();
        assert!(report.failed);
        // One 5 ms nap, then `remaining` hits zero and the ladder gives up:
        // far below the 2+ seconds the uncapped ladder would burn.
        assert!(
            elapsed < Duration::from_millis(500),
            "retry ladder must respect the wall-clock cap, took {elapsed:?}"
        );
        assert!(report.retries >= 1, "at least one retry before the cap");
        assert!(report.last_error.is_some());
    }
}

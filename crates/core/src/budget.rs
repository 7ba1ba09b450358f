//! Execution control for long-running synopsis construction.
//!
//! OPT-A is pseudo-polynomial, and even the polynomial DPs (SAP0, SAP1,
//! V-OPT) are super-linear: a single oversized `n·B` build can stall a
//! rebuild loop or a CLI invocation indefinitely. This module provides the
//! cooperative execution-control layer every builder in the workspace
//! threads through its hot loops:
//!
//! * [`CancelToken`] — a shareable cancellation flag. The owner calls
//!   [`CancelToken::cancel`]; the builder observes it at its next
//!   checkpoint and aborts with [`SynopticError::Cancelled`].
//! * [`Budget`] — a per-build control block bundling an optional wall-clock
//!   deadline, an optional DP-cell budget, and an optional cancel token.
//!   Builders call [`Budget::charge`] at coarse checkpoints (typically once
//!   per DP cell-group, never per inner-loop iteration); the call is a few
//!   nanoseconds when unconstrained.
//!
//! The contract that keeps unconstrained builds **bit-identical** to the
//! pre-budget code: budgets only ever *observe* progress and *abort*
//! between checkpoints. They never alter iteration order, numeric state, or
//! tie-breaking. [`Budget::unlimited`] runs the exact same instruction
//! stream as a constrained budget that never fires.
//!
//! Checkpoint semantics for tests: [`CancelToken::cancel_after_checks`]
//! arms the token to trip at an exact checkpoint index, which lets property
//! tests drive cancellation through *every* checkpoint of a build
//! deterministically and offline (no timing dependence). Armed trip points
//! are consumed only by [`CancelToken::observe`] (which [`Budget::charge`]
//! calls); the read-only [`CancelToken::is_cancelled`] never perturbs them,
//! so diagnostics and logging can poll the token freely without an
//! observer effect on cancellation tests.
//!
//! Both [`Budget`] and [`CancelToken`] are `Send + Sync`: a budget can be
//! shared by reference with a background rebuild worker while the owner
//! watches its meters, and the token is the cross-thread cancel handle.
//! The counters are relaxed atomics — they are monotone meters, not
//! synchronization edges — so the unconstrained fast path stays a few
//! nanoseconds per checkpoint.
//!
//! # Example
//!
//! ```
//! use synoptic_core::{Budget, CancelToken, SynopticError};
//!
//! // A cell cap trips at the first checkpoint past the limit.
//! let budget = Budget::unlimited().with_max_cells(10);
//! assert!(budget.charge(8).is_ok());
//! assert!(matches!(
//!     budget.charge(8),
//!     Err(SynopticError::CellBudgetExceeded { used: 16, limit: 10 })
//! ));
//!
//! // Cancellation is cooperative and outranks resource constraints.
//! let token = CancelToken::new();
//! let budget = Budget::unlimited().with_cancel_token(token.clone());
//! assert!(budget.check().is_ok());
//! token.cancel();
//! assert!(matches!(budget.check(), Err(SynopticError::Cancelled)));
//! ```

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{Result, SynopticError};

/// Sentinel for "no armed trip point" in [`CancelToken`].
const TRIP_DISABLED: i64 = -1;

/// A shareable, cooperative cancellation flag.
///
/// Cloning the token yields a handle to the same flag, so a maintenance
/// thread (or a test) can hold one clone while a builder polls the other
/// through its [`Budget`]. Cancellation is *cooperative*: the builder
/// observes the flag at its next checkpoint, never mid-expression.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

#[derive(Debug, Default)]
struct TokenInner {
    cancelled: AtomicBool,
    /// Number of further checks allowed before the token auto-trips;
    /// [`TRIP_DISABLED`] when no trip point is armed.
    trip_after: AtomicI64,
}

impl CancelToken {
    /// A fresh, un-cancelled token with no armed trip point.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                trip_after: AtomicI64::new(TRIP_DISABLED),
            }),
        }
    }

    /// Requests cancellation. Every [`Budget`] holding a clone of this
    /// token fails its next [`Budget::charge`] with
    /// [`SynopticError::Cancelled`].
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Arms the token to trip automatically at a checkpoint: the first
    /// `checks` observations pass, and the observation after that cancels.
    /// `cancel_after_checks(0)` therefore trips at the very first
    /// checkpoint. Used by tests to exercise cancellation at every
    /// checkpoint index deterministically.
    pub fn cancel_after_checks(&self, checks: u64) {
        self.inner
            .trip_after
            .store(checks.min(i64::MAX as u64) as i64, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested (or an armed trip point has
    /// already been reached by a previous [`CancelToken::observe`]).
    ///
    /// This is a **pure read**: it never advances an armed trip point, so a
    /// diagnostic or logging call cannot perturb the checkpoint at which a
    /// `cancel_after_checks` sweep trips. The counted primitive — the one
    /// [`Budget::charge`] uses at every checkpoint — is
    /// [`CancelToken::observe`].
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::SeqCst)
    }

    /// Records one *checkpoint observation* and reports whether the build
    /// should abort. Identical to [`CancelToken::is_cancelled`] for plain
    /// tokens; on a token armed with [`CancelToken::cancel_after_checks`],
    /// each call consumes one allowed check and the call after the allowance
    /// trips (and latches) cancellation.
    pub fn observe(&self) -> bool {
        if self.inner.cancelled.load(Ordering::SeqCst) {
            return true;
        }
        if self.inner.trip_after.load(Ordering::SeqCst) == TRIP_DISABLED {
            return false;
        }
        let prev = self.inner.trip_after.fetch_sub(1, Ordering::SeqCst);
        if prev <= 0 {
            // Trip point reached: latch the cancelled flag and disarm so the
            // counter does not wrap on further observations.
            self.inner.cancelled.store(true, Ordering::SeqCst);
            self.inner.trip_after.store(TRIP_DISABLED, Ordering::SeqCst);
            true
        } else {
            false
        }
    }

    /// Clears the cancelled flag and disarms any trip point, returning the
    /// token to its freshly-constructed state. Intended for reuse across
    /// ladder rungs in tests.
    pub fn reset(&self) {
        self.inner.cancelled.store(false, Ordering::SeqCst);
        self.inner.trip_after.store(TRIP_DISABLED, Ordering::SeqCst);
    }
}

/// Per-build execution control: wall-clock deadline, DP-cell budget, and
/// cooperative cancellation, checked together at coarse checkpoints.
///
/// A `Budget` is created per build attempt and passed by shared reference
/// down the call tree. It is `Send + Sync`: a background rebuild worker can
/// run a build under a budget while another thread reads its meters
/// ([`Budget::cells_used`], [`Budget::elapsed`]) or cancels through the
/// attached [`CancelToken`]. Builders call [`Budget::charge`] with the
/// number of DP cells (or comparable work units) completed since the last
/// checkpoint; the budget accumulates usage and fails the build with the
/// first exhausted constraint.
///
/// # Example
///
/// ```
/// use synoptic_core::{Budget, SynopticError};
///
/// let budget = Budget::unlimited().with_max_cells(10);
/// assert!(budget.charge(8).is_ok());
/// match budget.charge(8) {
///     Err(SynopticError::CellBudgetExceeded { used: 16, limit: 10 }) => {}
///     other => panic!("unexpected: {other:?}"),
/// }
/// ```
#[derive(Debug)]
pub struct Budget {
    started: Instant,
    deadline: Option<Instant>,
    max_cells: Option<u64>,
    cancel: Option<CancelToken>,
    /// Evaluate constraints only every `charge_batch`-th checkpoint; see
    /// [`Budget::with_charge_batch`].
    charge_batch: u64,
    cells: AtomicU64,
    checks: AtomicU64,
}

/// Compile-time proof (checked by every `cargo build`, including the
/// release gate in `ci.sh`) that the execution-control types can cross
/// thread boundaries: a serving thread hands a `Budget` to a rebuild
/// worker and keeps a `CancelToken` clone as the abort handle.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Budget>();
    assert_send_sync::<CancelToken>();
};

impl Default for Budget {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl Budget {
    /// A budget with no constraints. [`Budget::charge`] still meters usage
    /// (so provenance can report cells touched) but never fails.
    pub fn unlimited() -> Self {
        Self {
            started: Instant::now(),
            deadline: None,
            max_cells: None,
            cancel: None,
            charge_batch: 1,
            cells: AtomicU64::new(0),
            checks: AtomicU64::new(0),
        }
    }

    /// Adds a wall-clock deadline, measured from *now*. A deadline beyond
    /// the range of [`Instant`] is no deadline at all.
    #[must_use]
    pub fn with_deadline(mut self, limit: Duration) -> Self {
        self.deadline = Instant::now().checked_add(limit);
        self
    }

    /// Adds a cap on total DP cells (work units) charged.
    #[must_use]
    pub fn with_max_cells(mut self, max_cells: u64) -> Self {
        self.max_cells = Some(max_cells);
        self
    }

    /// Attaches a cooperative cancellation token.
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Evaluates the attached constraints only at every `batch`-th
    /// checkpoint (cells are still metered at every one). On small `n`,
    /// where per-checkpoint work is a handful of DP cells, this trades
    /// cancellation/deadline latency — up to `batch - 1` checkpoints of
    /// it — for lower checkpoint overhead. `batch` values `0` and `1`
    /// both mean "every checkpoint", the default.
    ///
    /// The bit-identity contract is unchanged: batching never alters
    /// iteration order or numeric state, only *when* an abort is noticed,
    /// so an unconstrained build produces identical output at any batch.
    #[must_use]
    pub fn with_charge_batch(mut self, batch: u64) -> Self {
        self.charge_batch = batch.max(1);
        self
    }

    /// Whether no constraint (deadline, cell cap, or token) is attached.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_cells.is_none() && self.cancel.is_none()
    }

    /// Records `cells` work units completed and checks every attached
    /// constraint. This is the *checkpoint* primitive: each call counts as
    /// exactly one checkpoint regardless of `cells`.
    ///
    /// Constraint precedence (first failure wins): cancellation, then
    /// deadline, then cell cap. The order is part of the contract —
    /// explicit user intent (cancel) outranks resource exhaustion, which
    /// lets callers distinguish "abort, don't fall back" from "fall down
    /// the quality ladder".
    pub fn charge(&self, cells: u64) -> Result<()> {
        // Saturating add via CAS: the meters are relaxed (they order
        // nothing; they are read for provenance), but saturation must hold
        // even under concurrent charging.
        let mut cur = self.cells.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(cells);
            match self
                .cells
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        let check_no = self.checks.fetch_add(1, Ordering::Relaxed) + 1;
        if !check_no.is_multiple_of(self.charge_batch) {
            // Off-batch checkpoint: metered above, constraints deferred to
            // the next on-batch checkpoint. (`charge_batch` is 1 unless
            // [`Budget::with_charge_batch`] raised it, and x % 1 == 0.)
            return Ok(());
        }
        if let Some(token) = &self.cancel {
            if token.observe() {
                return Err(SynopticError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            let now = Instant::now();
            if now >= deadline {
                return Err(SynopticError::DeadlineExceeded {
                    elapsed_ms: now.duration_since(self.started).as_millis() as u64,
                });
            }
        }
        if let Some(limit) = self.max_cells {
            let used = self.cells.load(Ordering::Relaxed);
            if used > limit {
                return Err(SynopticError::CellBudgetExceeded { used, limit });
            }
        }
        Ok(())
    }

    /// A checkpoint that records no work units (e.g. at a phase boundary).
    pub fn check(&self) -> Result<()> {
        self.charge(0)
    }

    /// Total work units charged so far.
    pub fn cells_used(&self) -> u64 {
        self.cells.load(Ordering::Relaxed)
    }

    /// Total checkpoints observed so far.
    pub fn checks_performed(&self) -> u64 {
        self.checks.load(Ordering::Relaxed)
    }

    /// Wall-clock time since the budget was created.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Wall-clock time remaining before the deadline, if one is set.
    /// Returns `Some(Duration::ZERO)` once the deadline has passed.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_fails_but_meters() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        for _ in 0..1000 {
            b.charge(7).unwrap();
        }
        assert_eq!(b.cells_used(), 7000);
        assert_eq!(b.checks_performed(), 1000);
        assert!(b.remaining().is_none());
    }

    #[test]
    fn cell_budget_trips_at_the_right_checkpoint() {
        let b = Budget::unlimited().with_max_cells(100);
        assert!(!b.is_unlimited());
        b.charge(60).unwrap();
        b.charge(40).unwrap(); // exactly at the limit: still fine
        let err = b.charge(1).unwrap_err();
        assert_eq!(
            err,
            SynopticError::CellBudgetExceeded {
                used: 101,
                limit: 100
            }
        );
    }

    #[test]
    fn expired_deadline_fails_with_elapsed_time() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        match b.charge(1) {
            Err(SynopticError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        let b = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        for _ in 0..100 {
            b.charge(1).unwrap();
        }
        assert!(b.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn a_deadline_past_the_instant_range_is_no_deadline() {
        let b = Budget::unlimited().with_deadline(Duration::MAX);
        assert!(b.is_unlimited());
        assert!(b.remaining().is_none());
        b.charge(1).unwrap();
    }

    #[test]
    fn cancel_token_trips_next_checkpoint() {
        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel_token(token.clone());
        b.charge(1).unwrap();
        token.cancel();
        assert_eq!(b.charge(1).unwrap_err(), SynopticError::Cancelled);
        // Cancellation latches.
        assert_eq!(b.check().unwrap_err(), SynopticError::Cancelled);
    }

    #[test]
    fn cancel_after_checks_is_exact() {
        for k in 0..5u64 {
            let token = CancelToken::new();
            token.cancel_after_checks(k);
            let b = Budget::unlimited().with_cancel_token(token);
            let mut passed = 0u64;
            let err = loop {
                match b.charge(1) {
                    Ok(()) => passed += 1,
                    Err(e) => break e,
                }
            };
            assert_eq!(err, SynopticError::Cancelled);
            assert_eq!(passed, k, "token armed at {k} must pass exactly {k} checks");
        }
    }

    #[test]
    fn reset_clears_cancellation_and_trip_point() {
        let token = CancelToken::new();
        token.cancel();
        assert!(token.is_cancelled());
        token.reset();
        assert!(!token.is_cancelled());
        token.cancel_after_checks(0);
        token.reset();
        assert!(!token.is_cancelled(), "reset must disarm the trip point");
    }

    #[test]
    fn cancellation_outranks_deadline_and_cells() {
        let token = CancelToken::new();
        token.cancel();
        let b = Budget::unlimited()
            .with_cancel_token(token)
            .with_deadline(Duration::ZERO)
            .with_max_cells(0);
        assert_eq!(b.charge(10).unwrap_err(), SynopticError::Cancelled);
    }

    #[test]
    fn is_cancelled_is_a_pure_read_with_no_observer_effect() {
        // An armed trip point must be consumed only by counted observations
        // (`observe`, i.e. budget checkpoints) — never by diagnostic reads.
        let token = CancelToken::new();
        token.cancel_after_checks(2);
        for _ in 0..100 {
            assert!(!token.is_cancelled(), "pure read must not consume checks");
        }
        let b = Budget::unlimited().with_cancel_token(token.clone());
        b.charge(1).unwrap();
        assert!(!token.is_cancelled());
        b.charge(1).unwrap();
        // Interleave more diagnostic reads: still exactly at check 2.
        assert!(!token.is_cancelled());
        assert_eq!(b.charge(1).unwrap_err(), SynopticError::Cancelled);
        // After the trip the latched flag is visible to the pure read.
        assert!(token.is_cancelled());
    }

    #[test]
    fn observe_counts_and_latches() {
        let token = CancelToken::new();
        token.cancel_after_checks(1);
        assert!(!token.observe());
        assert!(token.observe(), "second observation reaches the trip point");
        assert!(token.observe(), "latched");
        assert!(token.is_cancelled());
    }

    #[test]
    fn charge_batching_defers_constraint_checks_but_meters_every_charge() {
        let b = Budget::unlimited().with_max_cells(10).with_charge_batch(4);
        // Three off-batch checkpoints sail past the exceeded cap…
        for _ in 0..3 {
            b.charge(6).unwrap();
        }
        // …and the fourth (on-batch) one notices, reporting the true total.
        assert_eq!(
            b.charge(6).unwrap_err(),
            SynopticError::CellBudgetExceeded {
                used: 24,
                limit: 10
            }
        );
        assert_eq!(
            b.checks_performed(),
            4,
            "every charge is still a checkpoint"
        );
    }

    #[test]
    fn charge_batching_defers_cancellation_by_at_most_batch_minus_one() {
        let token = CancelToken::new();
        token.cancel();
        let b = Budget::unlimited()
            .with_cancel_token(token)
            .with_charge_batch(3);
        b.charge(1).unwrap();
        b.charge(1).unwrap();
        assert_eq!(b.charge(1).unwrap_err(), SynopticError::Cancelled);
    }

    #[test]
    fn charge_batch_of_zero_or_one_checks_every_checkpoint() {
        for batch in [0, 1] {
            let b = Budget::unlimited()
                .with_max_cells(5)
                .with_charge_batch(batch);
            assert_eq!(
                b.charge(6).unwrap_err(),
                SynopticError::CellBudgetExceeded { used: 6, limit: 5 },
                "batch {batch}"
            );
        }
    }

    #[test]
    fn budget_meters_are_readable_across_threads() {
        let b = std::sync::Arc::new(Budget::unlimited());
        let b2 = std::sync::Arc::clone(&b);
        let t = std::thread::spawn(move || {
            for _ in 0..1000 {
                b2.charge(3).unwrap();
            }
        });
        t.join().unwrap();
        assert_eq!(b.cells_used(), 3000);
        assert_eq!(b.checks_performed(), 1000);
    }

    #[test]
    fn cell_accounting_saturates() {
        let b = Budget::unlimited();
        b.charge(u64::MAX).unwrap();
        b.charge(u64::MAX).unwrap();
        assert_eq!(b.cells_used(), u64::MAX);
    }
}

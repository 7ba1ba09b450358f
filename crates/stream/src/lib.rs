//! # synoptic-stream
//!
//! Dynamic maintenance of range-sum synopses under point updates
//! (`A[i] += δ`) — the "dynamic maintenance of such statistics" direction
//! the paper cites from the wavelet literature (§3), built out as a full
//! subsystem:
//!
//! * [`fenwick`] — a binary-indexed tree over the live frequencies: exact
//!   O(log n) point updates and prefix sums, the maintenance-side source of
//!   truth.
//! * [`haar_stream`] — **O(log n)-per-update** maintenance of Haar
//!   coefficient sets: [`haar_stream::StreamingHaar`] tracks the transform
//!   of `A` itself; [`haar_stream::StreamingRangeOptimal`] tracks the
//!   first-row/first-column coefficients of the paper's virtual range-sum
//!   matrix (Theorem 9). The key fact making the latter cheap: a point
//!   update shifts the prefix-sum vector by a *step function*, which is
//!   orthogonal to every wavelet whose support does not straddle the update
//!   position — so only one wavelet per level changes.
//! * [`progressive`] — online query answering (the paper's §1 scenario):
//!   a synopsis answer refined by user-paced scanning, with certified
//!   shrinking bounds.
//! * [`pool`] — the maintenance engine: a [`pool::MaintainedPool`] ingests
//!   updates, serves the last-built synopsis of every column, and rebuilds
//!   it when the accumulated drift or update count crosses a policy
//!   threshold. Columns are sharded across a fixed set of background
//!   rebuild workers so that ingest and query threads never block on a
//!   rebuild or a persist retry; serving estimators are published through
//!   `synoptic_core::HotSwap`.
//! * [`maintained`] — what the engine is configured with: the rebuild
//!   policy and budget ([`RebuildConfig`]), opt-in durability, the
//!   maintenance counters, and the exact drift trigger.
//! * [`recovery`] — crash recovery for journaled columns: fsck the durable
//!   catalog, prune abandoned generations, replay the write-ahead journal
//!   on top of the committed snapshot, and hand back exact frequencies to
//!   re-serve from. Durability itself is opt-in per column via
//!   [`maintained::DurabilityConfig`].
//! * [`segments`] — segmented columns: the domain splits into equi-width
//!   segments, each with its own anytime-built partial synopsis and a word
//!   budget fixed by the catalog's exact knapsack DP; `update()` dirties
//!   only the touched segment and rebuilds re-run the ladder on dirty
//!   slices alone ([`pool::MaintainedPool::add_column_segmented`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fenwick;
pub mod follow;
pub mod haar_stream;
pub mod maintained;
pub mod pool;
pub mod progressive;
pub mod queryable;
pub mod recovery;
pub mod segments;

pub use fenwick::Fenwick;
pub use follow::{promote, FollowConfig, Follower, ServeOutcome};
pub use haar_stream::{StreamingHaar, StreamingRangeOptimal};
pub use maintained::{
    drift_exceeds, ColumnJournal, DurabilityConfig, DurablePersistFn, DurableSnapshot, PersistFn,
    RebuildConfig, RebuildPolicy, RebuildStats, SharedStorage,
};
pub use pool::{ColumnBuild, ColumnHandle, MaintainedPool, PoolBuildFn};
pub use progressive::{ProgressiveAnswer, ProgressiveQuery};
pub use recovery::{recover, rejoin, RecoveredColumn, RecoveryReport};
pub use segments::split_segment_budget;

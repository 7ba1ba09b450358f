//! # synoptic-stream
//!
//! Dynamic maintenance of range-sum synopses under point updates
//! (`A[i] += δ`) — the "dynamic maintenance of such statistics" direction
//! the paper cites from the wavelet literature (§3), built out as a full
//! subsystem. (The O(log n) streaming Haar transforms of that literature
//! live in `synoptic_wavelet::streaming`.)
//!
//! * [`fenwick`] — a binary-indexed tree over the live frequencies: exact
//!   O(log n) point updates and prefix sums, the maintenance-side source of
//!   truth.
//! * [`pool`] — the maintenance engine: a [`pool::MaintainedPool`] ingests
//!   updates, serves the last-built synopsis of every column, and rebuilds
//!   it when the accumulated drift or update count crosses a policy
//!   threshold. Columns are sharded across a fixed set of background
//!   rebuild workers so that ingest and query threads never block on a
//!   rebuild or a persist retry; serving estimators are published through
//!   `synoptic_core::HotSwap`.
//! * [`maintained`] — what the engine is configured with: the rebuild
//!   policy and budget ([`RebuildConfig`]), opt-in durability and its
//!   catalog persist hook ([`catalog_persist_hook`]), the maintenance
//!   counters, and the exact drift trigger.
//! * [`recovery`] — crash recovery for journaled columns: fsck the durable
//!   catalog, prune abandoned generations, replay the write-ahead journal
//!   on top of the committed snapshot, and hand back exact frequencies to
//!   re-serve from. Durability itself is opt-in per column via
//!   [`maintained::DurabilityConfig`].
//! * [`segments`] — segmented columns: the domain splits into equi-width
//!   segments, each with its own anytime-built partial synopsis and a word
//!   budget fixed by the catalog's exact knapsack DP; `update()` dirties
//!   only the touched segment and rebuilds re-run the ladder on dirty
//!   slices alone ([`pool::ColumnBuild::Segmented`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fenwick;
pub mod follow;
pub mod maintained;
pub mod pool;
pub mod queryable;
pub mod recovery;
pub mod segments;

pub use fenwick::Fenwick;
pub use follow::{promote, FollowConfig, Follower, ServeOutcome};
pub use maintained::{
    catalog_persist_hook, drift_exceeds, ColumnJournal, DurabilityConfig, DurablePersistFn,
    DurableSnapshot, RebuildConfig, RebuildPolicy, RebuildStats, SharedStorage,
};
pub use pool::{ColumnBuild, ColumnHandle, MaintainedPool, PinnedBuild, PoolBuildFn};
pub use recovery::{recover, rejoin, RecoveredColumn, RecoveryReport};
pub use segments::split_segment_budget;

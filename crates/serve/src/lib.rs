//! `synoptic-serve`: the batched network serving tier.
//!
//! A std-only TCP front-end over the maintained-column pool, speaking
//! the checksummed `SQP1` query protocol of `synoptic-api` (the same
//! framing discipline as the replication tier's `SRP1`):
//!
//! * [`Server`] — answers [`QueryBatch`](synoptic_api::wire::QueryBatch)
//!   requests against a **single snapshot pin per batch**, with a
//!   hot-range answer cache keyed on `(column, generation, range)` that
//!   a hot-swap generation bump invalidates wholesale, and admission
//!   control that refuses loudly ([`SynopticError::ServerOverloaded`],
//!   exit code 10) when queue depth, rebuild lag, or a connection quota
//!   exceeds its bound.
//! * [`Client`] — the same [`Queryable`](synoptic_api::Queryable)
//!   surface as every in-process answerer, over TCP; server-side errors
//!   arrive structurally with their exit codes intact.
//! * [`AnswerCache`] — the generation-keyed cache, separately testable.
//! * [`TenantBuckets`] — per-tenant token-bucket admission, refilled
//!   from an injected clock.
//! * [`LatencyHistogram`] — lock-free log2-bucketed latency meters
//!   behind the stats surface's p50/p99 fields.
//!
//! PR 10 adds overload-proofing end to end: requests may carry an
//! optional header (`deadline_ms`, `tenant`, `degrade_ok`) that old
//! clients simply never send — the un-headered wire format is
//! byte-identical to PR 9 in both directions. The server sheds
//! already-expired work before running it, meters admission per tenant
//! instead of per connection, and — when the request opts in — answers
//! would-be refusals from a graceful-degradation ladder (cache-hit →
//! last-good synopsis → naive uniform estimate), stamping the rung into
//! the answer so degradation is never silent.
//!
//! See `docs/SERVING.md` for the protocol frame table, the batching and
//! cache-invalidation contracts, and the backpressure semantics, and
//! `docs/ROBUSTNESS.md` §8 for the overload model.
//!
//! [`SynopticError::ServerOverloaded`]: synoptic_core::SynopticError::ServerOverloaded

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod client;
pub mod histo;
pub mod server;

pub use admission::TenantBuckets;
pub use cache::AnswerCache;
pub use client::Client;
pub use histo::LatencyHistogram;
pub use server::{ServeConfig, Server};

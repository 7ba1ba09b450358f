//! # synoptic-repl
//!
//! WAL segment replication for journaled columns: the leader streams
//! sealed write-ahead segments (see [`synoptic_catalog::wal`]) to N
//! follower processes, which continuously replay them into read-only
//! serving state. The subsystem keeps the workspace's zero-external-deps
//! contract: transports are std-only.
//!
//! * [`wire`] — the length-prefixed, CRC-checksummed frame format
//!   (`Segment` / `Heartbeat` / `Ack` / `Refuse`). Sealed segment files
//!   ship byte-for-byte; the receiver re-validates every record CRC and
//!   the LSN chain on receipt, so a transport cannot silently corrupt a
//!   journal.
//! * [`transport`] — the [`Transport`] trait with three implementations:
//!   [`TcpTransport`] (std-only, length-prefixed frames over a
//!   `TcpStream`), [`MemTransport`] (an in-process duplex pair for tests
//!   and same-process followers), and [`FaultyTransport`] (deterministic
//!   fault injection — drops, torn mid-record streams, duplicated frames,
//!   reordering — mirroring `synoptic_catalog::FaultyStorage`).
//! * [`ship`] — the leader side: [`Shipper`] probes a follower's applied
//!   LSN, ships every sealed segment past it in order, tracks cumulative
//!   acks, retries refused or lost segments with backoff, and reports —
//!   loudly, never silently — when a follower cannot converge.
//! * [`election`] — lease-based leader election and automated failover:
//!   monotonic terms persisted through the catalog's manifest
//!   generations, heartbeat-renewed leases over injectable clocks,
//!   fencing of deposed leaders via term-stamped frames, and the
//!   [`Seeder`] re-seed path that brings a fenced ex-leader back as a
//!   follower.
//!
//! The follower side lives in `synoptic_stream::follow`, next to the
//! recovery machinery it reuses for promotion.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod election;
pub mod ship;
pub mod transport;
pub mod wire;

pub use election::{Clock, LeaseTracker, ManualClock, SeedReport, Seeder, TermLedger, WallClock};
pub use ship::{ship_journals, ShipReport, Shipper};
pub use transport::{
    FaultyTransport, MemTransport, Received, TcpTransport, Transport, TransportFault,
};
pub use wire::{decode_frame, encode_frame, Frame};

//! # synoptic-catalog
//!
//! The systems layer a database engine would wrap around the paper's
//! algorithms: a **statistics catalog** holding one synopsis per column,
//! persisted durably at exactly the storage costs the paper's theorems
//! claim, plus a **budget allocator** that splits a global word budget
//! across columns to minimize total (weighted) error.
//!
//! * [`persist`] — in-memory synopsis representations. Persistence is a
//!   direct exercise of the storage theorems: SAP0 stores boundaries +
//!   `suff`/`pref` only (3B words, Theorem 7) and *recovers* the bucket
//!   averages on load via `avg = (suff + pref)/(len + 1)`; SAP1 stores its
//!   four fit values (5B words, Theorem 8) and recovers averages from the
//!   fitted means; wavelets store `(index, value)` pairs.
//! * [`checksum`] / [`format`](mod@format) — an in-repo CRC-32 and the self-describing
//!   checksummed binary file format (magic, version, per-section length
//!   prefixes, header + payload CRCs). See `docs/PERSISTENCE.md` for the
//!   normative specification.
//! * [`codec`] — the one byte codec: [`codec::ByteWriter`] /
//!   [`codec::ByteReader`] primitives shared by the catalog format, the
//!   `SYNWAL01` journal segments and the `SQP1`/`SRP1` wire protocols,
//!   plus the [`codec::seal`] / [`codec::open`] CRC envelope both
//!   protocols use.
//! * [`storage`] — the [`storage::Storage`] trait with a production
//!   filesystem backend (write-temp → fsync → atomic-rename) and a
//!   deterministic fault-injection backend for crash/corruption testing.
//! * [`store`] — [`store::DurableCatalog`]: generational manifests, an
//!   atomically-swapped `CURRENT` pointer, quarantine of corrupt files, and
//!   graceful-degradation answering whose provenance is surfaced through
//!   [`synoptic_core::AnswerSource`].
//! * [`wal`] — the per-column write-ahead update journal: checksummed
//!   segment files of `(index, delta)` records appended before the
//!   in-memory state changes, rotated by size, truncated at checkpoints,
//!   and replayed by startup recovery on top of the last committed
//!   generation (the manifest's WAL marks say where to resume).
//! * [`allocation`] — exact grid-DP allocation of a total word budget
//!   across columns under per-column SSE curves; the segment split uses
//!   it.
//! * [`catalog`] — the in-memory named-column registry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation;
pub mod catalog;
pub mod checksum;
pub mod codec;
pub mod format;
pub mod persist;
pub mod storage;
pub mod store;
pub mod wal;

pub use allocation::{allocate_budget, AllocationResult, ColumnCurve};
pub use catalog::{Catalog, ColumnEntry, ELECTION_TERM_KEY, ELECTION_VOTE_KEY};
pub use format::{synopsis_from_bytes, synopsis_to_bytes, Manifest, ManifestColumn};
pub use persist::{LoadedSynopsis, PersistentSynopsis};
pub use storage::{Fault, FaultyStorage, FsStorage, Storage};
pub use store::{DurableCatalog, FsckReport, PruneReport, RepairReport};
pub use wal::{
    decode_segment, restamp_segment_generation, scan_column_journal, scan_journals, ColumnWal,
    DecodedSegment, FsyncCadence, JournalScan, SegmentMeta, WalConfig, WalRecord,
};

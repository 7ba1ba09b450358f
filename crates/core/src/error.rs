//! Error types shared across the workspace.

use std::fmt;

/// Convenience alias used by every fallible API in the workspace.
pub type Result<T> = std::result::Result<T, SynopticError>;

/// Errors produced while validating inputs or constructing synopses.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SynopticError {
    /// The input array was empty where a non-empty array is required.
    EmptyInput,
    /// A query or parameter referenced indices outside `0..n`.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The array length the index was checked against.
        n: usize,
    },
    /// A range query had `lo > hi`.
    InvalidRange {
        /// Lower endpoint of the query.
        lo: usize,
        /// Upper endpoint of the query.
        hi: usize,
    },
    /// A bucket count was zero or exceeded the array length.
    InvalidBucketCount {
        /// Requested number of buckets.
        buckets: usize,
        /// Array length.
        n: usize,
    },
    /// Bucket boundaries were not strictly increasing, did not start at 0, or
    /// exceeded the array length.
    InvalidBoundaries(String),
    /// A storage budget was too small to hold even a single bucket or
    /// coefficient of the requested representation.
    BudgetTooSmall {
        /// Requested budget, in machine words.
        words: usize,
        /// Minimum number of words the representation requires.
        minimum: usize,
    },
    /// A numeric parameter was outside its valid domain (e.g. `ε ≤ 0`).
    InvalidParameter(String),
    /// A linear system arising in re-optimization was singular and could not
    /// be solved even with ridge fallback.
    SingularSystem(String),
    /// A value left the exact-arithmetic range it must fit. Either the
    /// input lies outside the envelope of the `i128` window statistics —
    /// with `N = n + 1` prefix-table positions and `R = max P − min P`, the
    /// window oracle needs `N ≤ 2²¹` and `N²·R ≤ ⌊√(2¹²⁷ − 1)⌋` (≈ 2^63.5),
    /// and SAP1's fits additionally `⌈(n·R)²/4⌉ · n²(n²−1)/12 ≤ 2¹²⁷ − 1`
    /// (see `window`) — or a column's total row count, summed exactly,
    /// lies outside `i64` (see `Catalog::insert_exact` in
    /// `synoptic-catalog`).
    Overflow,
    /// A persisted synopsis failed integrity or semantic validation on load
    /// (bad magic, checksum mismatch, truncation, non-finite floats,
    /// inconsistent lengths, …). The bytes are never trusted after this.
    CorruptSynopsis {
        /// What was being loaded (file path, column name, or section).
        context: String,
        /// What exactly failed validation.
        detail: String,
    },
    /// A persisted artifact declared a format version this build does not
    /// understand.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// Highest version this build supports.
        supported: u16,
    },
    /// An I/O failure in the persistence layer, with location context.
    Io {
        /// File or directory the operation touched.
        path: String,
        /// The underlying OS error rendered as text.
        detail: String,
    },
    /// A build was cancelled via a [`crate::CancelToken`]. This is explicit
    /// caller intent, so anytime builders propagate it instead of falling
    /// down the quality ladder.
    Cancelled,
    /// A build exceeded its wall-clock deadline and was abandoned at a
    /// checkpoint. Anytime builders treat this as a signal to fall back to
    /// a cheaper construction.
    DeadlineExceeded {
        /// Wall-clock milliseconds elapsed when the deadline fired.
        elapsed_ms: u64,
    },
    /// A build charged more DP cells (work units) than its budget allows.
    /// Anytime builders treat this as a signal to fall back to a cheaper
    /// construction.
    CellBudgetExceeded {
        /// Work units charged when the cap fired.
        used: u64,
        /// The configured cap.
        limit: u64,
    },
    /// A builder panicked and the panic was contained at the subsystem
    /// boundary (`catch_unwind`); the previous synopsis keeps serving.
    BuildPanicked {
        /// The panic payload rendered as text, when it was a string.
        detail: String,
    },
    /// The background worker pool serving a maintained column has shut
    /// down, so a rebuild could not be scheduled. Serving and ingest keep
    /// working from the last-good synopsis; only maintenance stops.
    WorkerUnavailable {
        /// The column whose rebuild could not be scheduled.
        column: String,
    },
    /// A write-ahead journal segment was written against a different base
    /// generation than the snapshot it is being replayed onto. Replaying it
    /// would apply deltas to state that never saw them (or saw them twice),
    /// so recovery refuses rather than guessing.
    WalGenerationMismatch {
        /// The base generation recorded in the segment header.
        wal_generation: u64,
        /// The committed generation of the recovered snapshot.
        snapshot_generation: u64,
    },
    /// A write-ahead journal failed integrity validation beyond the
    /// tolerated torn final batch: a corrupt header, a mid-stream CRC
    /// mismatch, a broken LSN chain, or an out-of-range replay index.
    /// The journal's deltas cannot be trusted and replay stops.
    CorruptJournal {
        /// Which journal (segment file or column) failed.
        context: String,
        /// What exactly failed validation.
        detail: String,
    },
    /// A replication stream diverged irreparably from the receiver's
    /// state: a shipped segment does not anchor at the follower's applied
    /// mark (and no retry can bridge the gap), the reorder buffer
    /// overflowed, or the stream ended with unbridged segments pending.
    /// The follower refuses to apply and reports why — never a silent
    /// divergence.
    ReplicationDivergence {
        /// Which stream (column or peer) diverged.
        context: String,
        /// What exactly diverged.
        detail: String,
    },
    /// A write (shipped segment or heartbeat) was fenced: the sender's
    /// election term is older than the receiver's, so a newer leader has
    /// been elected since the sender last held the lease. The stale
    /// leader must stop writing, re-seed from the current leader, and
    /// rejoin as a follower. Both terms travel in the error — fencing is
    /// always refused with provenance, never silently dropped.
    StaleLeaderTerm {
        /// The term the fenced sender was still writing under.
        stale_term: u64,
        /// The receiver's current term (the newest leadership it has
        /// granted or observed).
        current_term: u64,
    },
    /// The serving tier refused a request under admission control: a
    /// bound on queue depth, rebuild lag, or a per-connection quota was
    /// exceeded. Mirrors [`SynopticError::ReplicationLagExceeded`]: the
    /// refusal always carries which bound fired, the observed value, and
    /// the configured limit — backpressure with provenance, never a bare
    /// "no".
    ServerOverloaded {
        /// Which bound refused (`"queue depth"`, `"rebuild lag"`, or
        /// `"connection quota"`).
        what: String,
        /// The observed value when the request was refused.
        observed: u64,
        /// The configured bound it exceeded.
        limit: u64,
    },
    /// A follower read was refused because its replica lags the leader
    /// beyond the configured staleness bound. The provenance fields say
    /// exactly how stale the replica was when it refused.
    ReplicationLagExceeded {
        /// The column whose read was refused.
        column: String,
        /// Records the leader has journaled but this replica has not
        /// applied.
        lag: u64,
        /// The configured maximum tolerated lag.
        max_lag: u64,
    },
}

impl fmt::Display for SynopticError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyInput => write!(f, "input array must be non-empty"),
            Self::IndexOutOfBounds { index, n } => {
                write!(f, "index {index} out of bounds for array of length {n}")
            }
            Self::InvalidRange { lo, hi } => {
                write!(f, "invalid range query: lo={lo} > hi={hi}")
            }
            Self::InvalidBucketCount { buckets, n } => {
                write!(f, "bucket count {buckets} invalid for array of length {n}")
            }
            Self::InvalidBoundaries(msg) => write!(f, "invalid bucket boundaries: {msg}"),
            Self::BudgetTooSmall { words, minimum } => {
                write!(
                    f,
                    "storage budget of {words} words below the minimum of {minimum}"
                )
            }
            Self::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            Self::SingularSystem(msg) => write!(f, "singular linear system: {msg}"),
            Self::Overflow => write!(
                f,
                "arithmetic overflow: input outside the exact i128 window-statistic \
                 envelope, or a column total outside i64"
            ),
            Self::CorruptSynopsis { context, detail } => {
                write!(f, "corrupt synopsis ({context}): {detail}")
            }
            Self::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported format version {found} (this build supports up to {supported})"
                )
            }
            Self::Io { path, detail } => write!(f, "i/o error at {path}: {detail}"),
            Self::Cancelled => write!(f, "build cancelled"),
            Self::DeadlineExceeded { elapsed_ms } => {
                write!(f, "deadline exceeded after {elapsed_ms} ms")
            }
            Self::CellBudgetExceeded { used, limit } => {
                write!(f, "cell budget exceeded: {used} cells used, limit {limit}")
            }
            Self::BuildPanicked { detail } => write!(f, "builder panicked: {detail}"),
            Self::WorkerUnavailable { column } => {
                write!(f, "rebuild worker pool unavailable for column {column}")
            }
            Self::WalGenerationMismatch {
                wal_generation,
                snapshot_generation,
            } => {
                write!(
                    f,
                    "journal base generation {wal_generation} does not match \
                     recovered snapshot generation {snapshot_generation}"
                )
            }
            Self::CorruptJournal { context, detail } => {
                write!(f, "corrupt journal ({context}): {detail}")
            }
            Self::ReplicationDivergence { context, detail } => {
                write!(f, "replication divergence ({context}): {detail}")
            }
            Self::StaleLeaderTerm {
                stale_term,
                current_term,
            } => {
                write!(
                    f,
                    "write fenced: leader term {stale_term} is stale (current \
                     term is {current_term}); the deposed leader must re-seed \
                     and rejoin as a follower"
                )
            }
            Self::ServerOverloaded {
                what,
                observed,
                limit,
            } => {
                write!(
                    f,
                    "server refused: {what} {observed} exceeds the configured \
                     limit {limit}; back off and retry"
                )
            }
            Self::ReplicationLagExceeded {
                column,
                lag,
                max_lag,
            } => {
                write!(
                    f,
                    "replica of column {column} lags the leader by {lag} records \
                     (max tolerated {max_lag}); read refused"
                )
            }
        }
    }
}

impl std::error::Error for SynopticError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(SynopticError, &str)> = vec![
            (SynopticError::EmptyInput, "non-empty"),
            (
                SynopticError::IndexOutOfBounds { index: 9, n: 4 },
                "index 9",
            ),
            (SynopticError::InvalidRange { lo: 3, hi: 1 }, "lo=3"),
            (
                SynopticError::InvalidBucketCount { buckets: 0, n: 10 },
                "bucket count 0",
            ),
            (SynopticError::InvalidBoundaries("x".into()), "boundaries"),
            (
                SynopticError::BudgetTooSmall {
                    words: 1,
                    minimum: 2,
                },
                "minimum of 2",
            ),
            (SynopticError::InvalidParameter("eps".into()), "eps"),
            (SynopticError::SingularSystem("Q".into()), "singular"),
            (SynopticError::Overflow, "overflow"),
            (
                SynopticError::CorruptSynopsis {
                    context: "col_a/gen-3.syn".into(),
                    detail: "payload CRC mismatch".into(),
                },
                "CRC mismatch",
            ),
            (
                SynopticError::UnsupportedVersion {
                    found: 9,
                    supported: 1,
                },
                "version 9",
            ),
            (
                SynopticError::Io {
                    path: "/tmp/x".into(),
                    detail: "permission denied".into(),
                },
                "/tmp/x",
            ),
            (SynopticError::Cancelled, "cancelled"),
            (SynopticError::DeadlineExceeded { elapsed_ms: 42 }, "42 ms"),
            (
                SynopticError::CellBudgetExceeded {
                    used: 101,
                    limit: 100,
                },
                "limit 100",
            ),
            (
                SynopticError::BuildPanicked {
                    detail: "index out of range".into(),
                },
                "panicked",
            ),
            (
                SynopticError::WorkerUnavailable {
                    column: "price".into(),
                },
                "price",
            ),
            (
                SynopticError::WalGenerationMismatch {
                    wal_generation: 4,
                    snapshot_generation: 2,
                },
                "generation 4",
            ),
            (
                SynopticError::CorruptJournal {
                    context: "col-3.wal".into(),
                    detail: "record CRC mismatch".into(),
                },
                "col-3.wal",
            ),
            (
                SynopticError::ReplicationDivergence {
                    context: "price".into(),
                    detail: "segment starts at LSN 9 but 4 was expected".into(),
                },
                "LSN 9",
            ),
            (
                SynopticError::StaleLeaderTerm {
                    stale_term: 3,
                    current_term: 5,
                },
                "term 3 is stale",
            ),
            (
                SynopticError::ServerOverloaded {
                    what: "queue depth".into(),
                    observed: 65,
                    limit: 64,
                },
                "queue depth 65",
            ),
            (
                SynopticError::ReplicationLagExceeded {
                    column: "price".into(),
                    lag: 12,
                    max_lag: 8,
                },
                "lags the leader by 12",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<SynopticError>();
    }
}

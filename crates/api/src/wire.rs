//! The query-protocol frame format.
//!
//! Same framing discipline as the replication protocol (`SRP1` in
//! `synoptic-repl`): every frame is self-delimiting at the transport
//! layer (transports carry whole frames, length-prefixed) and
//! self-validating here:
//!
//! ```text
//! frame:   magic "SQP1" (4) | type u8 | payload | crc32 u32
//! string:  len u16 | bytes              (column names, error text)
//! ranges:  len u32 | (lo u64, hi u64) × len
//! deltas:  len u32 | (index u64, delta i64) × len
//! answers: len u32 | (value f64-bits u64, cached u8) × len
//! ```
//!
//! All integers are little-endian; the CRC covers every byte before it.
//! The envelope and every primitive come from
//! [`synoptic_catalog::codec`], the one byte codec the replication
//! protocol and the catalog files share. Strings longer than 64 KiB are
//! truncated at a char boundary. Floats travel as raw bits.
//! A frame that fails validation decodes to
//! [`SynopticError::CorruptSynopsis`] with context `"query frame"` —
//! the receiver refuses it loudly (exit code 4 class) and never acts on
//! bytes that did not validate.
//!
//! Errors cross the wire *structurally*: [`Response::Error`] carries the
//! exact [`SynopticError`] variant, re-encoded field by field, so a
//! server-side refusal keeps its provenance fields and its
//! [`crate::exit_code`] mapping on the client — the consolidated
//! `SynopticError` → wire error → exit code chain has exactly one link
//! per hop and no lossy step.

use std::sync::Arc;

use synoptic_catalog::codec::{self, ByteReader, ByteWriter};
use synoptic_core::{AnswerSource, BuildAttempt, BuildOutcome, RangeQuery, Result, SynopticError};

use crate::envelope::AnswerEnvelope;

/// Magic bytes opening every query-protocol frame.
pub const FRAME_MAGIC: [u8; 4] = *b"SQP1";

const TYPE_PING: u8 = 1;
const TYPE_PONG: u8 = 2;
const TYPE_ESTIMATE_BATCH: u8 = 3;
const TYPE_ESTIMATES: u8 = 4;
const TYPE_UPDATE: u8 = 5;
const TYPE_UPDATED: u8 = 6;
const TYPE_STATS: u8 = 7;
const TYPE_STATS_RESP: u8 = 8;
const TYPE_ERROR: u8 = 9;
const TYPE_HEADERED: u8 = 10;
const TYPE_ESTIMATES_DEGRADED: u8 = 11;
const TYPE_STATS_RESP2: u8 = 12;

/// Optional per-request metadata riding ahead of any [`Request`].
///
/// The header is strictly additive to the PR-9 wire format: a request
/// with an **empty** header encodes to the exact same bytes an
/// un-headered client produces (no new frame type, no extra fields), and
/// every old frame decodes to the request plus a default header. A
/// non-empty header wraps the request in a `TYPE_HEADERED` frame that
/// old servers refuse loudly as an unknown type — never misread.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestHeader {
    /// Remaining client deadline in milliseconds. The server converts it
    /// into a per-request `Budget` deadline and sheds already-expired
    /// work before execution (`0` means "expired on arrival": the
    /// request is always shed, with `DeadlineExceeded` provenance).
    pub deadline_ms: Option<u64>,
    /// Tenant identity for token-bucket admission. Requests without one
    /// share the default `""` tenant.
    pub tenant: Option<String>,
    /// Whether the client accepts a degraded answer (cache hit,
    /// last-good synopsis, or naive metadata estimate — see
    /// [`DegradeRung`]) instead of a refusal when admission would shed
    /// the estimate.
    pub degrade_ok: bool,
}

impl RequestHeader {
    /// Whether every field is at its default — an empty header encodes
    /// to the un-headered (PR-9) frame bytes.
    pub fn is_empty(&self) -> bool {
        self.deadline_ms.is_none() && self.tenant.is_none() && !self.degrade_ok
    }

    /// The tenant name admission control buckets this request under.
    pub fn tenant_or_default(&self) -> &str {
        self.tenant.as_deref().unwrap_or("")
    }
}

/// Which rung of the serving-side degradation ladder answered a batch
/// whose request set [`RequestHeader::degrade_ok`] while admission would
/// otherwise have refused it. Rungs descend in answer quality; every
/// degraded answer carries its rung so it can never be mistaken for a
/// normally-served one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeRung {
    /// Every range was answered from the generation-keyed cache at the
    /// pinned generation — values are as fresh as a normal answer, but
    /// nothing was computed under overload.
    CacheHit,
    /// Computed from the last-good (pinned) synopsis even though its
    /// rebuild lag exceeds the admission bound; the batch `lag` field
    /// says by how much.
    LastGood,
    /// A naive metadata estimate: the column's total mass spread
    /// uniformly over the domain. The cheapest possible answer, taken
    /// when computing from the synopsis is exactly what overload must
    /// avoid.
    Naive,
}

impl DegradeRung {
    fn tag(self) -> u8 {
        match self {
            DegradeRung::CacheHit => 0,
            DegradeRung::LastGood => 1,
            DegradeRung::Naive => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            0 => DegradeRung::CacheHit,
            1 => DegradeRung::LastGood,
            2 => DegradeRung::Naive,
            other => return Err(corrupt(format!("bad degrade rung tag {other}"))),
        })
    }
}

impl std::fmt::Display for DegradeRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DegradeRung::CacheHit => "cache-hit",
            DegradeRung::LastGood => "last-good",
            DegradeRung::Naive => "naive",
        })
    }
}

/// Many ranges against one column, answered from one snapshot pin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryBatch {
    /// Column every range queries.
    pub column: String,
    /// The ranges, answered in order.
    pub ranges: Vec<RangeQuery>,
}

impl QueryBatch {
    /// A batch over `column`.
    pub fn new(column: impl Into<String>, ranges: Vec<RangeQuery>) -> Self {
        Self {
            column: column.into(),
            ranges,
        }
    }
}

/// A client request. The whole protocol is four verbs; anything richer
/// composes out of them client-side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; the server answers [`Response::Pong`].
    Ping,
    /// Answer every range in the batch against one snapshot pin.
    EstimateBatch(QueryBatch),
    /// Ingest point updates `A[index] += delta`, in order.
    Update {
        /// Column to update.
        column: String,
        /// `(index, delta)` pairs, applied in order.
        deltas: Vec<(u64, i64)>,
    },
    /// Maintenance counters and cache/admission meters for a column.
    Stats {
        /// Column to report on.
        column: String,
    },
}

/// One batch's answers plus the provenance shared by all of them (they
/// were answered from a single pinned snapshot, so source, generation,
/// lag, and build outcome are batch-wide by construction).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchAnswer {
    /// Publication generation of the pinned snapshot that answered every
    /// range in the batch.
    pub generation: u64,
    /// Which synopsis answered.
    pub source: AnswerSource,
    /// Updates applied but not yet rebuilt into the snapshot at pin time.
    pub lag: u64,
    /// Build provenance of the answering synopsis, when tracked.
    pub outcome: Option<BuildOutcome>,
    /// Per-segment build provenance for segmented columns, shared with
    /// the pin that answered.
    pub segment_outcomes: Option<Arc<[BuildOutcome]>>,
    /// Estimated range sums, in request order.
    pub values: Vec<f64>,
    /// Per-range: `true` when the hot-range cache answered (same
    /// `(column, generation, range)` key seen before), `false` when the
    /// pinned synopsis computed it fresh.
    pub cached: Vec<bool>,
    /// The degradation-ladder rung that produced this answer, when the
    /// server shed normal execution and the request allowed degradation
    /// (`None` for normally-served batches). Travels in a dedicated
    /// frame type, so only headered (PR-10+) clients ever receive it.
    pub rung: Option<DegradeRung>,
}

impl BatchAnswer {
    /// Expands the shared provenance into one [`AnswerEnvelope`] per
    /// range, in request order.
    pub fn envelopes(&self) -> Vec<AnswerEnvelope> {
        self.values
            .iter()
            .map(|&value| AnswerEnvelope {
                value,
                source: self.source.clone(),
                generation: self.generation,
                lag: self.lag,
                outcome: self.outcome.clone(),
                segment_outcomes: self.segment_outcomes.clone(),
            })
            .collect()
    }
}

/// Maintenance, cache, and admission meters for one served column.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Column reported on.
    pub column: String,
    /// Domain size.
    pub n: u64,
    /// Current serving generation of the column's hot-swap cell.
    pub generation: u64,
    /// Total updates ingested.
    pub updates: u64,
    /// Successful background rebuilds.
    pub rebuilds: u64,
    /// Rebuild attempts that failed (previous synopsis kept serving).
    pub failed_rebuilds: u64,
    /// Updates applied since the last successful rebuild (the rebuild
    /// lag that admission control bounds).
    pub updates_since_rebuild: u64,
    /// Hot-range cache hits across all connections.
    pub cache_hits: u64,
    /// Hot-range cache misses (fresh computations) across all
    /// connections.
    pub cache_misses: u64,
    /// Times the cache dropped its entries because the serving
    /// generation moved — every hot swap invalidates the whole keyed
    /// set, making a stale-generation hit impossible.
    pub cache_invalidations: u64,
    /// Requests refused by admission control (queue depth, rebuild lag,
    /// or tenant quota) since the server started.
    pub refused: u64,
    /// Connections accepted since the server started.
    pub connections: u64,
    /// Requests shed before execution because their propagated deadline
    /// had already expired on arrival.
    pub deadline_sheds: u64,
    /// Estimates answered by the degradation ladder (any rung) instead
    /// of being refused.
    pub degraded: u64,
    /// Distinct tenants the token-bucket admission layer has seen.
    pub tenants: u64,
    /// Median estimate-request service latency in microseconds, derived
    /// from the server's log2-bucketed histogram (upper bucket bound).
    pub estimate_p50_us: u64,
    /// 99th-percentile estimate-request service latency in microseconds.
    pub estimate_p99_us: u64,
    /// Median update-request service latency in microseconds.
    pub update_p50_us: u64,
    /// 99th-percentile update-request service latency in microseconds.
    pub update_p99_us: u64,
}

impl ServerStats {
    /// The seven overload/latency meters added in the extended
    /// (`TYPE_STATS_RESP2`) stats frame, in wire order. The legacy frame
    /// omits them; a legacy decode leaves them zero.
    fn extended_fields(&self) -> [u64; 7] {
        [
            self.deadline_sheds,
            self.degraded,
            self.tenants,
            self.estimate_p50_us,
            self.estimate_p99_us,
            self.update_p50_us,
            self.update_p99_us,
        ]
    }
}

/// A server response. Every request gets exactly one, in order.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::EstimateBatch`].
    Estimates(BatchAnswer),
    /// Answer to [`Request::Update`]: how many deltas were applied and
    /// how many background rebuilds the stream scheduled.
    Updated {
        /// Deltas applied (always all of them, or the request errored).
        applied: u64,
        /// Rebuild jobs the updates scheduled.
        scheduled: u64,
    },
    /// Answer to [`Request::Stats`].
    Stats(ServerStats),
    /// The request was refused or failed; the exact error crosses the
    /// wire structurally (see the module docs).
    Error(SynopticError),
}

/// Every SQP1 decode failure is `CorruptSynopsis` under this context.
const CONTEXT: &str = "query frame";

fn corrupt(detail: impl Into<String>) -> SynopticError {
    SynopticError::CorruptSynopsis {
        context: CONTEXT.to_string(),
        detail: detail.into(),
    }
}

fn put_outcome_opt(w: &mut ByteWriter, outcome: &Option<BuildOutcome>) {
    match outcome {
        None => w.u8(0),
        Some(o) => {
            w.u8(1);
            put_outcome(w, o);
        }
    }
}

fn put_outcome(w: &mut ByteWriter, o: &BuildOutcome) {
    w.str16(&o.requested);
    w.str16(&o.used);
    w.u64(o.tier as u64);
    w.u64(o.elapsed_ms);
    w.u64(o.cells);
    w.u32(o.attempts.len() as u32);
    for a in &o.attempts {
        w.str16(&a.method);
        w.str16(&a.error);
        w.u64(a.elapsed_ms);
        w.u64(a.cells);
    }
}

fn read_outcome_opt(r: &mut ByteReader<'_>) -> Result<Option<BuildOutcome>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(read_outcome(r)?)),
        other => Err(corrupt(format!("bad outcome flag {other}"))),
    }
}

fn read_outcome(r: &mut ByteReader<'_>) -> Result<BuildOutcome> {
    let requested = r.str16()?;
    let used = r.str16()?;
    let tier = r.u64()? as usize;
    let elapsed_ms = r.u64()?;
    let cells = r.u64()?;
    let attempts = r.count(4)?;
    let attempts = (0..attempts)
        .map(|_| {
            Ok(BuildAttempt {
                method: r.str16()?,
                error: r.str16()?,
                elapsed_ms: r.u64()?,
                cells: r.u64()?,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(BuildOutcome {
        requested,
        used,
        tier,
        attempts,
        elapsed_ms,
        cells,
    })
}

fn put_source(w: &mut ByteWriter, source: &AnswerSource) {
    match source {
        AnswerSource::Primary => w.u8(0),
        AnswerSource::FallbackGeneration { generation } => {
            w.u8(1);
            w.u64(*generation);
        }
        AnswerSource::FallbackNaive => w.u8(2),
    }
}

fn read_source(r: &mut ByteReader<'_>) -> Result<AnswerSource> {
    Ok(match r.u8()? {
        0 => AnswerSource::Primary,
        1 => AnswerSource::FallbackGeneration {
            generation: r.u64()?,
        },
        2 => AnswerSource::FallbackNaive,
        other => return Err(corrupt(format!("bad answer source tag {other}"))),
    })
}

// Structural error codec. One tag per variant; fields in declaration
// order. A variant this build does not know how to encode (the enum is
// `#[non_exhaustive]`) degrades to `InvalidParameter` carrying its
// rendered text — lossy display, lossless refusal.
const ERR_EMPTY_INPUT: u8 = 1;
const ERR_INDEX_OOB: u8 = 2;
const ERR_INVALID_RANGE: u8 = 3;
const ERR_INVALID_BUCKETS: u8 = 4;
const ERR_INVALID_BOUNDARIES: u8 = 5;
const ERR_BUDGET_TOO_SMALL: u8 = 6;
const ERR_INVALID_PARAMETER: u8 = 7;
const ERR_SINGULAR: u8 = 8;
const ERR_OVERFLOW: u8 = 9;
const ERR_CORRUPT_SYNOPSIS: u8 = 10;
const ERR_UNSUPPORTED_VERSION: u8 = 11;
const ERR_IO: u8 = 12;
const ERR_CANCELLED: u8 = 13;
const ERR_DEADLINE: u8 = 14;
const ERR_CELL_BUDGET: u8 = 15;
const ERR_BUILD_PANICKED: u8 = 16;
const ERR_WORKER_UNAVAILABLE: u8 = 17;
const ERR_WAL_GENERATION: u8 = 18;
const ERR_CORRUPT_JOURNAL: u8 = 19;
const ERR_REPL_DIVERGENCE: u8 = 20;
const ERR_STALE_TERM: u8 = 21;
const ERR_REPL_LAG: u8 = 22;
const ERR_SERVER_OVERLOADED: u8 = 23;

fn put_error(w: &mut ByteWriter, e: &SynopticError) {
    match e {
        SynopticError::EmptyInput => w.u8(ERR_EMPTY_INPUT),
        SynopticError::IndexOutOfBounds { index, n } => {
            w.u8(ERR_INDEX_OOB);
            w.u64(*index as u64);
            w.u64(*n as u64);
        }
        SynopticError::InvalidRange { lo, hi } => {
            w.u8(ERR_INVALID_RANGE);
            w.u64(*lo as u64);
            w.u64(*hi as u64);
        }
        SynopticError::InvalidBucketCount { buckets, n } => {
            w.u8(ERR_INVALID_BUCKETS);
            w.u64(*buckets as u64);
            w.u64(*n as u64);
        }
        SynopticError::InvalidBoundaries(msg) => {
            w.u8(ERR_INVALID_BOUNDARIES);
            w.str16(msg);
        }
        SynopticError::BudgetTooSmall { words, minimum } => {
            w.u8(ERR_BUDGET_TOO_SMALL);
            w.u64(*words as u64);
            w.u64(*minimum as u64);
        }
        SynopticError::InvalidParameter(msg) => {
            w.u8(ERR_INVALID_PARAMETER);
            w.str16(msg);
        }
        SynopticError::SingularSystem(msg) => {
            w.u8(ERR_SINGULAR);
            w.str16(msg);
        }
        SynopticError::Overflow => w.u8(ERR_OVERFLOW),
        SynopticError::CorruptSynopsis { context, detail } => {
            w.u8(ERR_CORRUPT_SYNOPSIS);
            w.str16(context);
            w.str16(detail);
        }
        SynopticError::UnsupportedVersion { found, supported } => {
            w.u8(ERR_UNSUPPORTED_VERSION);
            w.u64(u64::from(*found));
            w.u64(u64::from(*supported));
        }
        SynopticError::Io { path, detail } => {
            w.u8(ERR_IO);
            w.str16(path);
            w.str16(detail);
        }
        SynopticError::Cancelled => w.u8(ERR_CANCELLED),
        SynopticError::DeadlineExceeded { elapsed_ms } => {
            w.u8(ERR_DEADLINE);
            w.u64(*elapsed_ms);
        }
        SynopticError::CellBudgetExceeded { used, limit } => {
            w.u8(ERR_CELL_BUDGET);
            w.u64(*used);
            w.u64(*limit);
        }
        SynopticError::BuildPanicked { detail } => {
            w.u8(ERR_BUILD_PANICKED);
            w.str16(detail);
        }
        SynopticError::WorkerUnavailable { column } => {
            w.u8(ERR_WORKER_UNAVAILABLE);
            w.str16(column);
        }
        SynopticError::WalGenerationMismatch {
            wal_generation,
            snapshot_generation,
        } => {
            w.u8(ERR_WAL_GENERATION);
            w.u64(*wal_generation);
            w.u64(*snapshot_generation);
        }
        SynopticError::CorruptJournal { context, detail } => {
            w.u8(ERR_CORRUPT_JOURNAL);
            w.str16(context);
            w.str16(detail);
        }
        SynopticError::ReplicationDivergence { context, detail } => {
            w.u8(ERR_REPL_DIVERGENCE);
            w.str16(context);
            w.str16(detail);
        }
        SynopticError::StaleLeaderTerm {
            stale_term,
            current_term,
        } => {
            w.u8(ERR_STALE_TERM);
            w.u64(*stale_term);
            w.u64(*current_term);
        }
        SynopticError::ReplicationLagExceeded {
            column,
            lag,
            max_lag,
        } => {
            w.u8(ERR_REPL_LAG);
            w.str16(column);
            w.u64(*lag);
            w.u64(*max_lag);
        }
        SynopticError::ServerOverloaded {
            what,
            observed,
            limit,
        } => {
            w.u8(ERR_SERVER_OVERLOADED);
            w.str16(what);
            w.u64(*observed);
            w.u64(*limit);
        }
        // `SynopticError` is #[non_exhaustive]: a variant added after
        // this codec shipped still crosses the wire as a refusal, just
        // without structure.
        other => {
            w.u8(ERR_INVALID_PARAMETER);
            w.str16(&other.to_string());
        }
    }
}

fn read_error(r: &mut ByteReader<'_>) -> Result<SynopticError> {
    Ok(match r.u8()? {
        ERR_EMPTY_INPUT => SynopticError::EmptyInput,
        ERR_INDEX_OOB => SynopticError::IndexOutOfBounds {
            index: r.u64()? as usize,
            n: r.u64()? as usize,
        },
        ERR_INVALID_RANGE => SynopticError::InvalidRange {
            lo: r.u64()? as usize,
            hi: r.u64()? as usize,
        },
        ERR_INVALID_BUCKETS => SynopticError::InvalidBucketCount {
            buckets: r.u64()? as usize,
            n: r.u64()? as usize,
        },
        ERR_INVALID_BOUNDARIES => SynopticError::InvalidBoundaries(r.str16()?),
        ERR_BUDGET_TOO_SMALL => SynopticError::BudgetTooSmall {
            words: r.u64()? as usize,
            minimum: r.u64()? as usize,
        },
        ERR_INVALID_PARAMETER => SynopticError::InvalidParameter(r.str16()?),
        ERR_SINGULAR => SynopticError::SingularSystem(r.str16()?),
        ERR_OVERFLOW => SynopticError::Overflow,
        ERR_CORRUPT_SYNOPSIS => SynopticError::CorruptSynopsis {
            context: r.str16()?,
            detail: r.str16()?,
        },
        ERR_UNSUPPORTED_VERSION => SynopticError::UnsupportedVersion {
            found: r.u64()? as u16,
            supported: r.u64()? as u16,
        },
        ERR_IO => SynopticError::Io {
            path: r.str16()?,
            detail: r.str16()?,
        },
        ERR_CANCELLED => SynopticError::Cancelled,
        ERR_DEADLINE => SynopticError::DeadlineExceeded {
            elapsed_ms: r.u64()?,
        },
        ERR_CELL_BUDGET => SynopticError::CellBudgetExceeded {
            used: r.u64()?,
            limit: r.u64()?,
        },
        ERR_BUILD_PANICKED => SynopticError::BuildPanicked { detail: r.str16()? },
        ERR_WORKER_UNAVAILABLE => SynopticError::WorkerUnavailable { column: r.str16()? },
        ERR_WAL_GENERATION => SynopticError::WalGenerationMismatch {
            wal_generation: r.u64()?,
            snapshot_generation: r.u64()?,
        },
        ERR_CORRUPT_JOURNAL => SynopticError::CorruptJournal {
            context: r.str16()?,
            detail: r.str16()?,
        },
        ERR_REPL_DIVERGENCE => SynopticError::ReplicationDivergence {
            context: r.str16()?,
            detail: r.str16()?,
        },
        ERR_STALE_TERM => SynopticError::StaleLeaderTerm {
            stale_term: r.u64()?,
            current_term: r.u64()?,
        },
        ERR_REPL_LAG => SynopticError::ReplicationLagExceeded {
            column: r.str16()?,
            lag: r.u64()?,
            max_lag: r.u64()?,
        },
        ERR_SERVER_OVERLOADED => SynopticError::ServerOverloaded {
            what: r.str16()?,
            observed: r.u64()?,
            limit: r.u64()?,
        },
        other => return Err(corrupt(format!("unknown error tag {other}"))),
    })
}

fn request_kind(req: &Request) -> u8 {
    match req {
        Request::Ping => TYPE_PING,
        Request::EstimateBatch(_) => TYPE_ESTIMATE_BATCH,
        Request::Update { .. } => TYPE_UPDATE,
        Request::Stats { .. } => TYPE_STATS,
    }
}

fn put_request_body(w: &mut ByteWriter, req: &Request) {
    match req {
        Request::Ping => {}
        Request::EstimateBatch(batch) => {
            w.str16(&batch.column);
            w.u32(batch.ranges.len() as u32);
            for q in &batch.ranges {
                w.u64(q.lo as u64);
                w.u64(q.hi as u64);
            }
        }
        Request::Update { column, deltas } => {
            w.str16(column);
            w.u32(deltas.len() as u32);
            for (i, d) in deltas {
                w.u64(*i);
                w.i64(*d);
            }
        }
        Request::Stats { column } => w.str16(column),
    }
}

fn read_request_body(kind: u8, r: &mut ByteReader<'_>) -> Result<Request> {
    Ok(match kind {
        TYPE_PING => Request::Ping,
        TYPE_ESTIMATE_BATCH => {
            let column = r.str16()?;
            let count = r.count(16)?;
            let ranges = (0..count)
                .map(|_| {
                    let lo = r.u64()? as usize;
                    let hi = r.u64()? as usize;
                    RangeQuery::new(lo, hi).map_err(|e| corrupt(e.to_string()))
                })
                .collect::<Result<Vec<_>>>()?;
            Request::EstimateBatch(QueryBatch { column, ranges })
        }
        TYPE_UPDATE => {
            let column = r.str16()?;
            let count = r.count(16)?;
            let deltas = (0..count)
                .map(|_| Ok((r.u64()?, r.i64()?)))
                .collect::<Result<Vec<_>>>()?;
            Request::Update { column, deltas }
        }
        TYPE_STATS => Request::Stats { column: r.str16()? },
        other => return Err(corrupt(format!("unknown request type {other}"))),
    })
}

const HEADER_HAS_DEADLINE: u8 = 1;
const HEADER_HAS_TENANT: u8 = 2;
const HEADER_DEGRADE_OK: u8 = 4;

/// Encodes a request into its checksummed byte representation (no
/// header — the PR-9 frame bytes, unchanged).
pub fn encode_request(req: &Request) -> Vec<u8> {
    codec::seal(FRAME_MAGIC, request_kind(req), |w| put_request_body(w, req))
}

/// Encodes a request with its header. An **empty** header produces byte
/// output identical to [`encode_request`] — the back-compat guarantee —
/// while a non-empty one wraps the request in a `TYPE_HEADERED` frame:
///
/// ```text
/// headered: flags u8 | [deadline_ms u64] | [tenant str] | inner type u8 | inner payload
/// ```
pub fn encode_request_with(header: &RequestHeader, req: &Request) -> Vec<u8> {
    if header.is_empty() {
        return encode_request(req);
    }
    codec::seal(FRAME_MAGIC, TYPE_HEADERED, |w| {
        let mut flags = 0u8;
        if header.deadline_ms.is_some() {
            flags |= HEADER_HAS_DEADLINE;
        }
        if header.tenant.is_some() {
            flags |= HEADER_HAS_TENANT;
        }
        if header.degrade_ok {
            flags |= HEADER_DEGRADE_OK;
        }
        w.u8(flags);
        if let Some(ms) = header.deadline_ms {
            w.u64(ms);
        }
        if let Some(tenant) = &header.tenant {
            w.str16(tenant);
        }
        w.u8(request_kind(req));
        put_request_body(w, req);
    })
}

/// Decodes and validates one request frame. Any failure — bad magic,
/// CRC mismatch, truncation, an unknown or response-side type — refuses
/// the bytes. A headered frame decodes to its inner request (use
/// [`decode_request_with`] to keep the header).
pub fn decode_request(bytes: &[u8]) -> Result<Request> {
    decode_request_with(bytes).map(|(_, req)| req)
}

/// Decodes one request frame together with its header. Un-headered
/// (PR-9) frames decode to a default header, so a server upgraded past
/// the header change keeps serving old clients unchanged.
pub fn decode_request_with(bytes: &[u8]) -> Result<(RequestHeader, Request)> {
    let (kind, mut r) = codec::open(bytes, FRAME_MAGIC, CONTEXT)?;
    let (header, req) = if kind == TYPE_HEADERED {
        let flags = r.u8()?;
        if flags & !(HEADER_HAS_DEADLINE | HEADER_HAS_TENANT | HEADER_DEGRADE_OK) != 0 {
            return Err(corrupt(format!("unknown request header flags {flags:#x}")));
        }
        let deadline_ms = if flags & HEADER_HAS_DEADLINE != 0 {
            Some(r.u64()?)
        } else {
            None
        };
        let tenant = if flags & HEADER_HAS_TENANT != 0 {
            Some(r.str16()?)
        } else {
            None
        };
        let degrade_ok = flags & HEADER_DEGRADE_OK != 0;
        let inner = r.u8()?;
        if inner == TYPE_HEADERED {
            return Err(corrupt("nested headered request"));
        }
        (
            RequestHeader {
                deadline_ms,
                tenant,
                degrade_ok,
            },
            read_request_body(inner, &mut r)?,
        )
    } else {
        (RequestHeader::default(), read_request_body(kind, &mut r)?)
    };
    r.finish()?;
    Ok((header, req))
}

fn put_batch_answer(w: &mut ByteWriter, b: &BatchAnswer) {
    w.u64(b.generation);
    put_source(w, &b.source);
    w.u64(b.lag);
    put_outcome_opt(w, &b.outcome);
    match &b.segment_outcomes {
        None => w.u8(0),
        Some(outcomes) => {
            w.u8(1);
            w.u32(outcomes.len() as u32);
            for o in outcomes.iter() {
                put_outcome(w, o);
            }
        }
    }
    w.u32(b.values.len() as u32);
    for (v, cached) in b.values.iter().zip(&b.cached) {
        w.f64(*v);
        w.u8(u8::from(*cached));
    }
}

fn put_legacy_stats(w: &mut ByteWriter, s: &ServerStats) {
    w.str16(&s.column);
    for v in [
        s.n,
        s.generation,
        s.updates,
        s.rebuilds,
        s.failed_rebuilds,
        s.updates_since_rebuild,
        s.cache_hits,
        s.cache_misses,
        s.cache_invalidations,
        s.refused,
        s.connections,
    ] {
        w.u64(v);
    }
}

/// Encodes a response into its checksummed byte representation, in the
/// frame dialect a **pre-header (PR-9) client** understands: stats use
/// the legacy frame (the overload/latency meters are dropped). The one
/// exception is a degraded batch answer (`rung` set): it has no legacy
/// representation and always takes the degraded frame type — servers
/// only produce one in reply to a headered request, so an old client
/// can never receive it.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Pong => codec::seal(FRAME_MAGIC, TYPE_PONG, |_| {}),
        Response::Estimates(b) => match b.rung {
            None => codec::seal(FRAME_MAGIC, TYPE_ESTIMATES, |w| put_batch_answer(w, b)),
            Some(rung) => codec::seal(FRAME_MAGIC, TYPE_ESTIMATES_DEGRADED, |w| {
                w.u8(rung.tag());
                put_batch_answer(w, b);
            }),
        },
        Response::Updated { applied, scheduled } => codec::seal(FRAME_MAGIC, TYPE_UPDATED, |w| {
            w.u64(*applied);
            w.u64(*scheduled);
        }),
        Response::Stats(s) => codec::seal(FRAME_MAGIC, TYPE_STATS_RESP, |w| put_legacy_stats(w, s)),
        Response::Error(e) => codec::seal(FRAME_MAGIC, TYPE_ERROR, |w| put_error(w, e)),
    }
}

/// Encodes a response in the extended dialect for a client that sent a
/// headered request: stats carry the overload/latency meters
/// (`TYPE_STATS_RESP2`). Every other variant encodes exactly as
/// [`encode_response`]. Servers pick the dialect per request, so a
/// pre-header client only ever sees frame types it can decode.
pub fn encode_response_extended(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Stats(s) => codec::seal(FRAME_MAGIC, TYPE_STATS_RESP2, |w| {
            put_legacy_stats(w, s);
            for v in s.extended_fields() {
                w.u64(v);
            }
        }),
        other => encode_response(other),
    }
}

fn read_batch_answer(r: &mut ByteReader<'_>, rung: Option<DegradeRung>) -> Result<BatchAnswer> {
    let generation = r.u64()?;
    let source = read_source(r)?;
    let lag = r.u64()?;
    let outcome = read_outcome_opt(r)?;
    let segment_outcomes = match r.u8()? {
        0 => None,
        1 => {
            let count = r.count(1)?;
            Some(
                (0..count)
                    .map(|_| read_outcome(r))
                    .collect::<Result<Arc<[_]>>>()?,
            )
        }
        other => return Err(corrupt(format!("bad segment-outcomes flag {other}"))),
    };
    let count = r.count(9)?;
    let mut values = Vec::with_capacity(count);
    let mut cached = Vec::with_capacity(count);
    for _ in 0..count {
        values.push(f64::from_bits(r.u64()?));
        cached.push(match r.u8()? {
            0 => false,
            1 => true,
            other => return Err(corrupt(format!("bad cached flag {other}"))),
        });
    }
    Ok(BatchAnswer {
        generation,
        source,
        lag,
        outcome,
        segment_outcomes,
        values,
        cached,
        rung,
    })
}

fn read_legacy_stats(r: &mut ByteReader<'_>) -> Result<ServerStats> {
    let column = r.str16()?;
    let mut next = || r.u64();
    Ok(ServerStats {
        column,
        n: next()?,
        generation: next()?,
        updates: next()?,
        rebuilds: next()?,
        failed_rebuilds: next()?,
        updates_since_rebuild: next()?,
        cache_hits: next()?,
        cache_misses: next()?,
        cache_invalidations: next()?,
        refused: next()?,
        connections: next()?,
        ..ServerStats::default()
    })
}

/// Decodes and validates one response frame (either dialect: legacy
/// PR-9 frames and the extended degraded-answer / extended-stats
/// frames all decode).
pub fn decode_response(bytes: &[u8]) -> Result<Response> {
    let (kind, mut r) = codec::open(bytes, FRAME_MAGIC, CONTEXT)?;
    let resp = match kind {
        TYPE_PONG => Response::Pong,
        TYPE_ESTIMATES => Response::Estimates(read_batch_answer(&mut r, None)?),
        TYPE_ESTIMATES_DEGRADED => {
            let rung = DegradeRung::from_tag(r.u8()?)?;
            Response::Estimates(read_batch_answer(&mut r, Some(rung))?)
        }
        TYPE_UPDATED => Response::Updated {
            applied: r.u64()?,
            scheduled: r.u64()?,
        },
        TYPE_STATS_RESP => Response::Stats(read_legacy_stats(&mut r)?),
        TYPE_STATS_RESP2 => {
            let mut stats = read_legacy_stats(&mut r)?;
            stats.deadline_sheds = r.u64()?;
            stats.degraded = r.u64()?;
            stats.tenants = r.u64()?;
            stats.estimate_p50_us = r.u64()?;
            stats.estimate_p99_us = r.u64()?;
            stats.update_p50_us = r.u64()?;
            stats.update_p99_us = r.u64()?;
            Response::Stats(stats)
        }
        TYPE_ERROR => Response::Error(read_error(&mut r)?),
        other => return Err(corrupt(format!("unknown response type {other}"))),
    };
    r.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exit::exit_code;

    fn sample_outcome() -> BuildOutcome {
        BuildOutcome {
            requested: "opt-a".into(),
            used: "sap0".into(),
            tier: 2,
            attempts: vec![BuildAttempt {
                method: "opt-a".into(),
                error: "deadline exceeded after 9 ms".into(),
                elapsed_ms: 9,
                cells: 1234,
            }],
            elapsed_ms: 12,
            cells: 2048,
        }
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::EstimateBatch(QueryBatch::new(
                "price",
                vec![
                    RangeQuery::new(0, 5).unwrap(),
                    RangeQuery::point(3),
                    RangeQuery::new(2, 1023).unwrap(),
                ],
            )),
            Request::Update {
                column: "price".into(),
                deltas: vec![(0, 5), (1023, -3), (7, 0)],
            },
            Request::Stats {
                column: "price".into(),
            },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::Estimates(BatchAnswer {
                generation: 42,
                source: AnswerSource::FallbackGeneration { generation: 41 },
                lag: 7,
                outcome: Some(sample_outcome()),
                segment_outcomes: Some(
                    vec![sample_outcome(), BuildOutcome::direct("sap0", 1, 2)].into(),
                ),
                values: vec![1.5, -0.25, 1e12],
                cached: vec![true, false, true],
                rung: None,
            }),
            Response::Estimates(BatchAnswer {
                generation: 0,
                source: AnswerSource::Primary,
                lag: 0,
                outcome: None,
                segment_outcomes: None,
                values: vec![],
                cached: vec![],
                rung: None,
            }),
            Response::Updated {
                applied: 100,
                scheduled: 3,
            },
            Response::Stats(ServerStats {
                column: "price".into(),
                n: 1024,
                generation: 9,
                updates: 5000,
                rebuilds: 12,
                failed_rebuilds: 1,
                updates_since_rebuild: 88,
                cache_hits: 700,
                cache_misses: 300,
                cache_invalidations: 12,
                refused: 4,
                connections: 2,
                ..ServerStats::default()
            }),
            Response::Error(SynopticError::ServerOverloaded {
                what: "rebuild lag".into(),
                observed: 100,
                limit: 64,
            }),
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn every_error_variant_round_trips_with_its_exit_code() {
        let errors = vec![
            SynopticError::EmptyInput,
            SynopticError::IndexOutOfBounds { index: 9, n: 4 },
            SynopticError::InvalidRange { lo: 3, hi: 1 },
            SynopticError::InvalidBucketCount { buckets: 0, n: 10 },
            SynopticError::InvalidBoundaries("b".into()),
            SynopticError::BudgetTooSmall {
                words: 1,
                minimum: 2,
            },
            SynopticError::InvalidParameter("eps".into()),
            SynopticError::SingularSystem("Q".into()),
            SynopticError::Overflow,
            SynopticError::CorruptSynopsis {
                context: "c".into(),
                detail: "crc".into(),
            },
            SynopticError::UnsupportedVersion {
                found: 9,
                supported: 1,
            },
            SynopticError::Io {
                path: "/x".into(),
                detail: "denied".into(),
            },
            SynopticError::Cancelled,
            SynopticError::DeadlineExceeded { elapsed_ms: 42 },
            SynopticError::CellBudgetExceeded {
                used: 101,
                limit: 100,
            },
            SynopticError::BuildPanicked {
                detail: "oor".into(),
            },
            SynopticError::WorkerUnavailable {
                column: "price".into(),
            },
            SynopticError::WalGenerationMismatch {
                wal_generation: 4,
                snapshot_generation: 2,
            },
            SynopticError::CorruptJournal {
                context: "w".into(),
                detail: "crc".into(),
            },
            SynopticError::ReplicationDivergence {
                context: "c".into(),
                detail: "gap".into(),
            },
            SynopticError::StaleLeaderTerm {
                stale_term: 3,
                current_term: 5,
            },
            SynopticError::ReplicationLagExceeded {
                column: "price".into(),
                lag: 12,
                max_lag: 8,
            },
            SynopticError::ServerOverloaded {
                what: "connection quota".into(),
                observed: 1001,
                limit: 1000,
            },
        ];
        for err in errors {
            let bytes = encode_response(&Response::Error(err.clone()));
            let Response::Error(back) = decode_response(&bytes).unwrap() else {
                panic!("error response decoded to a non-error");
            };
            assert_eq!(back, err, "error must round-trip structurally");
            assert_eq!(
                exit_code(&back),
                exit_code(&err),
                "wire transit must preserve the exit code of {err}"
            );
        }
    }

    /// A string of 64 KiB or more cannot be length-prefixed by a `u16`;
    /// it must truncate (at a char boundary) rather than wrap the prefix
    /// and corrupt the frame — the peer still gets a decodable error
    /// carrying as much of the text as fits.
    #[test]
    fn over_long_strings_truncate_instead_of_corrupting_the_frame() {
        // 65_534 ASCII bytes then multibyte chars: the u16::MAX cut at
        // byte 65_535 lands mid-char and must back off to a boundary.
        let long = "a".repeat(65_534) + &"é".repeat(100);
        let bytes = encode_response(&Response::Error(SynopticError::InvalidParameter(
            long.clone(),
        )));
        let Response::Error(SynopticError::InvalidParameter(back)) =
            decode_response(&bytes).unwrap()
        else {
            panic!("over-long error text must still decode as the same variant");
        };
        assert!(back.len() <= usize::from(u16::MAX));
        assert!(long.starts_with(&back), "truncation keeps a prefix");
        assert_eq!(back.len(), 65_534, "the cut backs off to a char boundary");
    }

    #[test]
    fn batch_answer_expands_to_per_range_envelopes() {
        let batch = BatchAnswer {
            generation: 5,
            source: AnswerSource::Primary,
            lag: 2,
            outcome: Some(sample_outcome()),
            segment_outcomes: None,
            values: vec![1.0, 2.0],
            cached: vec![false, true],
            rung: None,
        };
        let envelopes = batch.envelopes();
        assert_eq!(envelopes.len(), 2);
        for (env, v) in envelopes.iter().zip([1.0, 2.0]) {
            assert_eq!(env.value, v);
            assert_eq!(env.generation, 5);
            assert_eq!(env.lag, 2);
            assert_eq!(env.outcome.as_ref().unwrap().used, "sap0");
        }
    }

    fn sample_headers() -> Vec<RequestHeader> {
        vec![
            RequestHeader {
                deadline_ms: Some(250),
                tenant: Some("analytics".into()),
                degrade_ok: true,
            },
            RequestHeader {
                deadline_ms: Some(0),
                tenant: None,
                degrade_ok: false,
            },
            RequestHeader {
                deadline_ms: None,
                tenant: Some("ingest".into()),
                degrade_ok: false,
            },
            RequestHeader {
                deadline_ms: None,
                tenant: None,
                degrade_ok: true,
            },
        ]
    }

    #[test]
    fn headered_requests_round_trip_with_their_header() {
        for header in sample_headers() {
            for req in sample_requests() {
                let bytes = encode_request_with(&header, &req);
                let (back_header, back_req) = decode_request_with(&bytes).unwrap();
                assert_eq!(back_header, header);
                assert_eq!(back_req, req);
                // The header-blind decoder still accepts the frame.
                assert_eq!(decode_request(&bytes).unwrap(), req);
            }
        }
    }

    /// The back-compat contract, from the encoding side: an empty header
    /// adds nothing — the frame is byte-for-byte what a pre-header client
    /// sends, and decodes everywhere a pre-header frame does.
    #[test]
    fn an_empty_header_encodes_to_the_unheadered_frame_bytes() {
        for req in sample_requests() {
            let bare = encode_request(&req);
            let headered = encode_request_with(&RequestHeader::default(), &req);
            assert_eq!(bare, headered, "empty header must not change the bytes");
            let (header, back) = decode_request_with(&bare).unwrap();
            assert!(header.is_empty());
            assert_eq!(back, req);
        }
    }

    #[test]
    fn degraded_answers_round_trip_their_rung() {
        for rung in [
            DegradeRung::CacheHit,
            DegradeRung::LastGood,
            DegradeRung::Naive,
        ] {
            let resp = Response::Estimates(BatchAnswer {
                generation: 7,
                source: AnswerSource::FallbackNaive,
                lag: 90,
                outcome: None,
                segment_outcomes: None,
                values: vec![12.5],
                cached: vec![false],
                rung: Some(rung),
            });
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn extended_stats_round_trip_and_the_legacy_dialect_drops_them() {
        let stats = ServerStats {
            column: "price".into(),
            n: 64,
            generation: 3,
            refused: 4,
            deadline_sheds: 11,
            degraded: 6,
            tenants: 3,
            estimate_p50_us: 128,
            estimate_p99_us: 4096,
            update_p50_us: 64,
            update_p99_us: 512,
            ..ServerStats::default()
        };
        let resp = Response::Stats(stats.clone());
        // Extended dialect: everything survives.
        assert_eq!(
            decode_response(&encode_response_extended(&resp)).unwrap(),
            resp
        );
        // Legacy dialect: the PR-9 fields survive, the meters zero out —
        // exactly what a pre-header client would have seen.
        let Response::Stats(legacy) = decode_response(&encode_response(&resp)).unwrap() else {
            panic!("stats frame decoded to a non-stats response");
        };
        assert_eq!(legacy.column, stats.column);
        assert_eq!(legacy.refused, stats.refused);
        assert_eq!(legacy.extended_fields(), [0; 7]);
        // Non-stats responses are dialect-independent.
        assert_eq!(
            encode_response_extended(&Response::Pong),
            encode_response(&Response::Pong)
        );
    }

    /// Golden PR-9 frames, captured byte-for-byte from the codec **before**
    /// the header change. Every one must still decode to the same value,
    /// and re-encode to the identical bytes — the proof that a pre-PR-10
    /// peer's wire traffic is untouched by this upgrade.
    #[test]
    fn pr9_golden_frames_decode_and_re_encode_identically() {
        fn unhex(s: &str) -> Vec<u8> {
            (0..s.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
                .collect()
        }
        let golden_requests = [
            ("53515031015533c617", Request::Ping),
            (
                "53515031030500707269636502000000020000000000000009000000000000000400000000000000040000000000000040e7a4a5",
                Request::EstimateBatch(QueryBatch::new(
                    "price",
                    vec![RangeQuery::new(2, 9).unwrap(), RangeQuery::point(4)],
                )),
            ),
            (
                "53515031050500707269636502000000010000000000000005000000000000000900000000000000fdfffffffffffffff99703a0",
                Request::Update {
                    column: "price".into(),
                    deltas: vec![(1, 5), (9, -3)],
                },
            ),
            (
                "535150310705007072696365d4ed495d",
                Request::Stats {
                    column: "price".into(),
                },
            ),
        ];
        for (hex, expected) in golden_requests {
            let bytes = unhex(hex);
            let (header, req) = decode_request_with(&bytes).unwrap();
            assert!(header.is_empty(), "golden frames carry no header");
            assert_eq!(req, expected);
            assert_eq!(encode_request(&req), bytes, "re-encode must be identical");
        }
        let golden_responses = [
            ("5351503102ef62cf8e", Response::Pong),
            (
                "53515031040300000000000000000200000000000000000002000000000000000000f83f00000000000000004001a177c802",
                Response::Estimates(BatchAnswer {
                    generation: 3,
                    source: AnswerSource::Primary,
                    lag: 2,
                    outcome: None,
                    segment_outcomes: None,
                    values: vec![1.5, 2.0],
                    cached: vec![false, true],
                    rung: None,
                }),
            ),
            (
                "5351503106020000000000000001000000000000001e3f851b",
                Response::Updated {
                    applied: 2,
                    scheduled: 1,
                },
            ),
            (
                "535150310805007072696365400000000000000003000000000000000a00000000000000020000000000000000000000000000000400000000000000070000000000000005000000000000000100000000000000000000000000000002000000000000003a02f465",
                Response::Stats(ServerStats {
                    column: "price".into(),
                    n: 64,
                    generation: 3,
                    updates: 10,
                    rebuilds: 2,
                    failed_rebuilds: 0,
                    updates_since_rebuild: 4,
                    cache_hits: 7,
                    cache_misses: 5,
                    cache_invalidations: 1,
                    refused: 0,
                    connections: 2,
                    ..ServerStats::default()
                }),
            ),
            (
                "5351503109170b00717565756520646570746809000000000000000800000000000000b827e68f",
                Response::Error(SynopticError::ServerOverloaded {
                    what: "queue depth".into(),
                    observed: 9,
                    limit: 8,
                }),
            ),
        ];
        for (hex, expected) in golden_responses {
            let bytes = unhex(hex);
            assert_eq!(decode_response(&bytes).unwrap(), expected);
            assert_eq!(
                encode_response(&expected),
                bytes,
                "re-encode must be identical"
            );
        }
    }

    /// The repl wire discipline, applied here: flip any byte or truncate
    /// at any length and the frame must refuse to decode — never a
    /// partial or garbled result. Headered requests and extended
    /// responses are held to the same bar as the legacy frames.
    #[test]
    fn corruption_anywhere_is_refused() {
        let header = RequestHeader {
            deadline_ms: Some(250),
            tenant: Some("analytics".into()),
            degrade_ok: true,
        };
        let frames: Vec<Vec<u8>> = sample_requests()
            .iter()
            .map(encode_request)
            .chain(
                sample_requests()
                    .iter()
                    .map(|r| encode_request_with(&header, r)),
            )
            .chain(sample_responses().iter().map(encode_response))
            .chain(std::iter::once(encode_response_extended(&Response::Stats(
                ServerStats {
                    column: "price".into(),
                    estimate_p99_us: 4096,
                    ..ServerStats::default()
                },
            ))))
            .collect();
        for bytes in frames {
            let decodes = |b: &[u8]| decode_request(b).is_ok() || decode_response(b).is_ok();
            assert!(decodes(&bytes), "pristine frame must decode");
            for i in 0..bytes.len() {
                for bit in 0..8 {
                    let mut bad = bytes.clone();
                    bad[i] ^= 1 << bit;
                    assert!(
                        !decodes(&bad),
                        "flipping bit {bit} of byte {i} must refuse the frame"
                    );
                }
            }
            for len in 0..bytes.len() {
                assert!(!decodes(&bytes[..len]), "truncation at {len} must refuse");
            }
        }
    }
}

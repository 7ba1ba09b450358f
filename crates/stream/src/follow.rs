//! Follower-side replication: continuous WAL replay into read-only
//! serving state, with lag-bounded reads and recovery-based promotion.
//!
//! A [`Follower`] bootstraps by running the *existing* crash-recovery
//! path ([`crate::recovery::recover`]) over its local catalog and journal
//! — startup and promotion are the same code — then applies shipped
//! segments (see `synoptic_repl`) as they arrive:
//!
//! 1. **Validate on receipt.** Each [`Frame::Segment`] is decoded with
//!    [`decode_segment`]: every record CRC and the consecutive-LSN chain
//!    are re-verified on the follower, so a transport (or a buggy leader)
//!    cannot smuggle corruption into the replica's journal.
//! 2. **Anchor at the applied mark** — the PR 5 recovery invariant,
//!    enforced *online*: a segment is applied only when it starts at
//!    `applied_lsn + 1` (or overlaps below it). A fully duplicate segment
//!    is re-acknowledged idempotently. A segment that leaves a gap parks
//!    in a bounded reorder window; overflow is a loud refusal, and a
//!    stream that *ends* with parked segments is a
//!    [`SynopticError::ReplicationDivergence`] — never silence.
//! 3. **Journal before state.** The accepted segment's bytes are
//!    persisted into the follower's own journal directory (re-stamped to
//!    the follower's committed generation via
//!    [`restamp_segment_generation`]) *before* the in-memory frequencies
//!    change, preserving the leader-side WAL discipline. Promotion is
//!    therefore exactly [`crate::recovery::recover`] over local files.
//! 4. **Serve read-only, lag-bounded.** Reads via [`Follower::estimate`]
//!    are exact range sums over the applied frequencies, summed in `i128`
//!    on demand (nothing is rebuilt per applied segment). They are
//!    refused with [`SynopticError::ReplicationLagExceeded`] (column,
//!    lag, and bound in the error — provenance, not a bare "no") once the
//!    replica trails the leader's mark beyond
//!    [`FollowConfig::max_lag`].
//! 5. **Fence by term, fail over by lease.** Every frame carries its
//!    sender's election term (see `synoptic_repl::election`). A frame on
//!    an *older* term than the replica has granted is refused with the
//!    replica's own term — the fencing verdict that stops a deposed
//!    leader. A newer term is adopted and persisted (a manifest
//!    generation) before anything of that term is applied. Under
//!    [`Follower::serve_with_lease`] the replica tracks heartbeat
//!    renewals on an injected clock and reports
//!    [`ServeOutcome::LeaseExpired`] when the leader goes silent; the
//!    caller then runs [`promote`] — recovery plus a persisted claim on
//!    `term + 1` — and starts serving as the new leader.
//! 6. **Checkpoint in place.** With
//!    [`FollowConfig::checkpoint_segments`] set, a long-lived replica
//!    periodically commits its live frequencies as a new catalog
//!    generation and truncates the journal segments the snapshot
//!    captured — the promote-in-place loop that keeps a
//!    week-of-ingest replica's journal bounded.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use synoptic_catalog::wal::{
    decode_segment, restamp_segment_generation, wal_file_name, ColumnWal, DecodedSegment,
    WalConfig, WAL_RECORD_LEN,
};
use synoptic_catalog::{Catalog, DurableCatalog};
use synoptic_core::{RangeQuery, Result, SynopticError};
use synoptic_repl::election::{Clock, LeaseTracker};
use synoptic_repl::transport::{Received, Transport};
use synoptic_repl::wire::{decode_frame, encode_frame, Frame};

use crate::maintained::SharedStorage;
use crate::recovery::{recover, replay, RecoveryReport};

/// Tuning for a [`Follower`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FollowConfig {
    /// Refuse reads once the replica trails the leader's pending mark by
    /// more than this many records. `None` serves at any staleness.
    pub max_lag: Option<u64>,
    /// How many non-anchoring (out-of-order) segments may park awaiting
    /// the gap-filler before the follower refuses. `0` refuses any
    /// non-anchoring segment immediately.
    pub reorder_window: usize,
    /// Auto-checkpoint: after this many applied segments a column commits
    /// its live frequencies as a new catalog generation and truncates the
    /// captured journal prefix, keeping a long-lived replica's journal
    /// bounded. `None` never checkpoints (journal grows until promotion).
    pub checkpoint_segments: Option<usize>,
}

impl Default for FollowConfig {
    fn default() -> Self {
        Self {
            max_lag: None,
            reorder_window: 8,
            checkpoint_segments: None,
        }
    }
}

/// How a [`Follower::serve_with_lease`] session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// The leader closed the link cleanly; the end-of-stream invariant
    /// held.
    LeaderClosed,
    /// The leader's lease expired: no current-term heartbeat or segment
    /// arrived within the TTL. The replica should promote.
    LeaseExpired,
}

struct FollowedColumn {
    values: Vec<i64>,
    applied_lsn: u64,
    leader_mark: u64,
    /// Parked out-of-order segments keyed by first LSN: `(seq, bytes)`.
    pending: BTreeMap<u64, (u64, Vec<u8>)>,
    /// Segments journaled since the last auto-checkpoint.
    segments_since_checkpoint: usize,
}

impl FollowedColumn {
    fn lag(&self) -> u64 {
        self.leader_mark.saturating_sub(self.applied_lsn)
    }
}

/// A read-only replica of journaled columns, fed by shipped WAL segments.
pub struct Follower {
    storage: SharedStorage,
    store: DurableCatalog<SharedStorage>,
    catalog: Catalog,
    wal_dir: PathBuf,
    generation: u64,
    term: u64,
    config: FollowConfig,
    columns: BTreeMap<String, FollowedColumn>,
    refusals: Vec<String>,
}

impl Follower {
    /// Opens a follower over its local durable state: runs full crash
    /// recovery (fsck → repair → prune → replay) on `catalog_dir` +
    /// `wal_dir` and serves every recovered journaled column. The same
    /// call *is* promotion — a promoted follower is just a process that
    /// ran this and started accepting writes instead of segments.
    pub fn open(
        storage: SharedStorage,
        catalog_dir: impl AsRef<Path>,
        wal_dir: impl Into<PathBuf>,
        config: FollowConfig,
    ) -> Result<(Self, RecoveryReport)> {
        let wal_dir = wal_dir.into();
        let store = DurableCatalog::open(catalog_dir.as_ref(), Arc::clone(&storage))?;
        let report = recover(&store, &wal_dir)?;
        storage.create_dir_all(&wal_dir)?;
        let mut columns = BTreeMap::new();
        for col in &report.columns {
            columns.insert(
                col.name.clone(),
                FollowedColumn {
                    values: col.values.clone(),
                    applied_lsn: col.committed_mark.max(col.max_lsn),
                    leader_mark: col.committed_mark.max(col.max_lsn),
                    pending: BTreeMap::new(),
                    segments_since_checkpoint: 0,
                },
            );
        }
        Ok((
            Self {
                storage,
                catalog: report.catalog.clone(),
                term: report.catalog.election_term(),
                store,
                wal_dir,
                generation: report.generation,
                config,
                columns,
                refusals: Vec::new(),
            },
            report,
        ))
    }

    /// The election term this replica has granted or observed (0 = no
    /// election has ever touched this node).
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Columns this replica serves, sorted.
    pub fn columns(&self) -> Vec<String> {
        self.columns.keys().cloned().collect()
    }

    /// The highest LSN applied *and locally journaled* for `column`.
    pub fn applied_lsn(&self, column: &str) -> Option<u64> {
        self.columns.get(column).map(|c| c.applied_lsn)
    }

    /// Records the leader has journaled beyond this replica's applied
    /// mark, per the freshest leader mark seen.
    pub fn lag(&self, column: &str) -> Option<u64> {
        self.columns.get(column).map(FollowedColumn::lag)
    }

    /// The replica's live frequencies for `column`.
    pub fn values(&self, column: &str) -> Option<&[i64]> {
        self.columns.get(column).map(|c| c.values.as_slice())
    }

    /// Every refusal this follower has recorded, in order — the loud
    /// half of "converge or refuse".
    pub fn refusals(&self) -> &[String] {
        &self.refusals
    }

    /// Answers a range-sum query from the replica exactly (the `i128` sum
    /// of the applied frequencies over the range), refusing with full
    /// provenance ([`SynopticError::ReplicationLagExceeded`]) when the
    /// replica is staler than [`FollowConfig::max_lag`], and with
    /// [`SynopticError::IndexOutOfBounds`] past the column's end.
    pub fn estimate(&self, column: &str, q: RangeQuery) -> Result<f64> {
        let col = self
            .columns
            .get(column)
            .ok_or_else(|| SynopticError::InvalidParameter(format!("unknown column {column}")))?;
        if let Some(max_lag) = self.config.max_lag {
            let lag = col.lag();
            if lag > max_lag {
                return Err(SynopticError::ReplicationLagExceeded {
                    column: column.to_string(),
                    lag,
                    max_lag,
                });
            }
        }
        let Some(range) = col.values.get(q.lo..=q.hi) else {
            return Err(SynopticError::IndexOutOfBounds {
                index: q.hi,
                n: col.values.len(),
            });
        };
        Ok(range.iter().map(|&v| i128::from(v)).sum::<i128>() as f64)
    }

    fn refuse(&mut self, column: &str, reason: String) -> Frame {
        let applied_lsn = self.columns.get(column).map(|c| c.applied_lsn).unwrap_or(0);
        self.refusals.push(format!("{column}: {reason}"));
        Frame::Refuse {
            term: self.term,
            column: column.to_string(),
            applied_lsn,
            reason,
        }
    }

    /// Adopts a newer term, persisting it (a manifest generation) before
    /// it takes effect — a crash between observing and persisting must
    /// re-observe, never regress. Returns a refusal reason on failure.
    fn adopt_term(&mut self, term: u64) -> std::result::Result<(), String> {
        if term <= self.term {
            return Ok(());
        }
        self.catalog.set_election_term(term);
        match self.store.save(&self.catalog) {
            Ok(generation) => {
                self.generation = generation;
                self.term = term;
                Ok(())
            }
            Err(e) => {
                // Roll the in-memory copy back: the durable state still
                // holds the old term, and the two must agree.
                self.catalog.set_election_term(self.term);
                Err(format!("persisting adopted term {term} failed: {e}"))
            }
        }
    }

    /// The fencing gate for leader-originated frames. `Ok` means the
    /// frame's term is current (adopting and persisting a newer one);
    /// `Err` is the refusal to send back, with term provenance.
    fn check_term(&mut self, column: &str, frame_term: u64) -> std::result::Result<(), Frame> {
        if frame_term < self.term {
            let current = self.term;
            return Err(self.refuse(
                column,
                format!(
                    "fenced: sender term {frame_term} is stale, this replica is on \
                     term {current}"
                ),
            ));
        }
        self.adopt_term(frame_term)
            .map_err(|reason| self.refuse(column, reason))
    }

    /// Persists `column`'s live frequencies as a new catalog generation
    /// and truncates the journal prefix the snapshot captured. Errors are
    /// reported as refusal reasons; the replica's in-memory state is
    /// untouched by a failed checkpoint (the journal simply stays long).
    fn checkpoint_column(&mut self, column: &str) -> std::result::Result<(), String> {
        let col = self.columns.get(column).expect("caller checked");
        let applied_lsn = col.applied_lsn;
        self.catalog
            .insert_exact(column, &col.values, applied_lsn)
            .map_err(|e| format!("checkpoint refused: {e}"))?;
        let generation = self
            .store
            .save(&self.catalog)
            .map_err(|e| format!("checkpoint persist failed: {e}"))?;
        self.generation = generation;
        // Truncate through the proven WAL checkpoint path: sealed
        // segments wholly at or below the mark are deleted. A failure
        // here only delays truncation — replay filters by the mark.
        let wal = ColumnWal::open(
            Arc::clone(&self.storage),
            &self.wal_dir,
            column,
            generation,
            WalConfig::default(),
        )
        .map_err(|e| format!("checkpoint truncation open failed: {e}"))?;
        wal.checkpoint(applied_lsn, generation)
            .map_err(|e| format!("checkpoint truncation failed: {e}"))?;
        let col = self.columns.get_mut(column).expect("caller checked");
        col.segments_since_checkpoint = 0;
        Ok(())
    }

    /// Handles a leadership claim: grant when the term is newer (or a
    /// re-claim by the already-granted node), persisting term + vote
    /// *before* the grant frame travels — the at-most-one-grant-per-term
    /// invariant survives any crash. Everything else is fenced.
    fn handle_claim(&mut self, term: u64, node: u64) -> Frame {
        let current = self.term;
        let vote = self.catalog.election_vote();
        if term < current || (term == current && vote != Some(node)) {
            return self.refuse(
                "",
                format!(
                    "claim of term {term} by node {node} fenced: this replica is on \
                     term {current}{}",
                    match vote {
                        Some(v) if term == current => format!(", granted to node {v}"),
                        _ => String::new(),
                    }
                ),
            );
        }
        if term > current || vote != Some(node) {
            // Stage on a copy: the in-memory catalog only advances when
            // the grant is durably committed.
            let mut staged = self.catalog.clone();
            staged.set_election_term(term);
            staged.set_election_vote(node);
            match self.store.save(&staged) {
                Ok(generation) => {
                    self.catalog = staged;
                    self.generation = generation;
                    self.term = term;
                }
                Err(e) => {
                    return self.refuse("", format!("persisting grant of term {term} failed: {e}"));
                }
            }
        }
        Frame::Grant { term, node }
    }

    /// Applies one decoded, validated, anchoring segment: journal first,
    /// then memory. Returns a refusal reason on failure
    /// (nothing applied).
    fn apply_anchored(
        &mut self,
        column: &str,
        seq: u64,
        bytes: &[u8],
        decoded: &DecodedSegment,
    ) -> std::result::Result<(), String> {
        let col = self.columns.get(column).expect("caller checked");
        // Replay onto a copy before touching journal or memory: a
        // half-applied segment would be exactly the silent divergence
        // this subsystem exists to refuse.
        let applied_lsn = col.applied_lsn;
        let fresh = decoded.records.iter().filter(|r| r.lsn > applied_lsn);
        let values = replay(&col.values, fresh)?;
        // Journal before state, re-stamped to the *local* committed
        // generation so promotion-time recovery anchors cleanly.
        let valid = decoded.header_len + decoded.records.len() * WAL_RECORD_LEN;
        let mut local = bytes[..valid].to_vec();
        let file = wal_file_name(column, seq);
        restamp_segment_generation(&mut local, &file, self.generation)
            .map_err(|e| e.to_string())?;
        self.storage
            .write_atomic(&self.wal_dir.join(&file), &local)
            .map_err(|e| format!("journaling shipped segment failed: {e}"))?;
        let col = self.columns.get_mut(column).expect("caller checked");
        col.values = values;
        col.applied_lsn = decoded.last_lsn;
        col.segments_since_checkpoint += 1;
        Ok(())
    }

    fn handle_segment(
        &mut self,
        column: String,
        seq: u64,
        leader_mark: u64,
        bytes: Vec<u8>,
    ) -> Frame {
        let Some(col) = self.columns.get_mut(&column) else {
            return self.refuse(
                &column,
                "unknown column: not in this replica's committed catalog".to_string(),
            );
        };
        col.leader_mark = col.leader_mark.max(leader_mark);
        let file = wal_file_name(&column, seq);
        let decoded = match decode_segment(&bytes, &file) {
            Ok(d) => d,
            Err(e) => return self.refuse(&column, format!("corrupt shipped segment: {e}")),
        };
        if decoded.torn_tail {
            return self.refuse(
                &column,
                format!(
                    "torn segment transfer: {} of {} bytes decoded",
                    decoded.header_len + decoded.records.len() * WAL_RECORD_LEN,
                    bytes.len()
                ),
            );
        }
        if decoded.column != column {
            return self.refuse(
                &column,
                format!("segment header names column '{}'", decoded.column),
            );
        }
        if decoded.records.is_empty() || decoded.last_lsn <= col.applied_lsn {
            // Fully duplicate (or empty): replay is idempotent — re-ack.
            let applied_lsn = col.applied_lsn;
            return Frame::Ack {
                term: self.term,
                column,
                applied_lsn,
            };
        }
        // `first_lsn >= 1`, so `first_lsn - 1` cannot wrap where
        // `applied_lsn + 1` could.
        if decoded.first_lsn - 1 > col.applied_lsn {
            // Does not anchor at the applied mark. Park it when the
            // reorder window allows; otherwise refuse, loudly.
            if col.pending.len() < self.config.reorder_window {
                let applied_lsn = col.applied_lsn;
                col.pending.insert(decoded.first_lsn, (seq, bytes));
                return Frame::Ack {
                    term: self.term,
                    column,
                    applied_lsn,
                };
            }
            let expected = col.applied_lsn + 1;
            let window = self.config.reorder_window;
            return self.refuse(
                &column,
                format!(
                    "segment does not anchor: starts at LSN {} where {} was expected \
                     (reorder window of {} is full)",
                    decoded.first_lsn, expected, window
                ),
            );
        }
        if let Err(reason) = self.apply_anchored(&column, seq, &bytes, &decoded) {
            return self.refuse(&column, reason);
        }
        // The gap-filler may unblock parked segments — drain in LSN order.
        loop {
            let col = self.columns.get_mut(&column).expect("checked");
            let Some((&first_lsn, _)) = col.pending.iter().next() else {
                break;
            };
            if first_lsn - 1 > col.applied_lsn {
                break;
            }
            let (seq, parked) = col.pending.remove(&first_lsn).expect("peeked");
            let file = wal_file_name(&column, seq);
            match decode_segment(&parked, &file) {
                Ok(d) if d.last_lsn <= self.columns[&column].applied_lsn => {} // stale duplicate
                Ok(d) => {
                    if let Err(reason) = self.apply_anchored(&column, seq, &parked, &d) {
                        return self.refuse(&column, reason);
                    }
                }
                Err(e) => {
                    return self.refuse(&column, format!("corrupt parked segment: {e}"));
                }
            }
        }
        // Auto-checkpoint: promote-in-place once enough segments landed.
        if let Some(threshold) = self.config.checkpoint_segments {
            if self.columns[&column].segments_since_checkpoint >= threshold.max(1) {
                if let Err(reason) = self.checkpoint_column(&column) {
                    // A failed checkpoint is recorded but not fatal: the
                    // replica keeps serving, the journal just stays long.
                    self.refusals.push(format!("{column}: {reason}"));
                }
            }
        }
        let applied_lsn = self.columns[&column].applied_lsn;
        Frame::Ack {
            term: self.term,
            column,
            applied_lsn,
        }
    }

    /// Processes one raw frame and returns the encoded response frame
    /// (always exactly one: an ack, a grant, or a refusal).
    pub fn handle(&mut self, frame_bytes: &[u8]) -> Vec<u8> {
        let response = match decode_frame(frame_bytes) {
            Ok(Frame::Segment {
                term,
                column,
                seq,
                leader_mark,
                bytes,
            }) => match self.check_term(&column, term) {
                Ok(()) => self.handle_segment(column, seq, leader_mark, bytes),
                Err(refusal) => refusal,
            },
            Ok(Frame::Heartbeat {
                term,
                column,
                leader_mark,
            }) => match self.check_term(&column, term) {
                Ok(()) => match self.columns.get_mut(&column) {
                    Some(col) => {
                        col.leader_mark = col.leader_mark.max(leader_mark);
                        let applied_lsn = col.applied_lsn;
                        Frame::Ack {
                            term: self.term,
                            column,
                            applied_lsn,
                        }
                    }
                    None => self.refuse(&column, "unknown column".to_string()),
                },
                Err(refusal) => refusal,
            },
            Ok(Frame::Claim { term, node }) => self.handle_claim(term, node),
            Ok(Frame::Snapshot { column, .. }) => self.refuse(
                &column,
                "re-seed snapshot outside a rejoin session: this replica already \
                 holds committed state"
                    .to_string(),
            ),
            Ok(Frame::Ack { column, .. } | Frame::Refuse { column, .. }) => self.refuse(
                &column,
                "follower received a follower-side frame".to_string(),
            ),
            Ok(Frame::Grant { term, .. }) => self.refuse(
                "",
                format!("follower received a grant for term {term} it never claimed"),
            ),
            Err(e) => {
                // The outer frame did not validate; there is no column to
                // charge it to. The empty column name tells the shipper
                // "yours, probably torn in flight".
                self.refusals.push(format!("<frame>: {e}"));
                Frame::Refuse {
                    term: self.term,
                    column: String::new(),
                    applied_lsn: 0,
                    reason: e.to_string(),
                }
            }
        };
        encode_frame(&response)
    }

    /// The end-of-stream invariant: a stream may not end with parked
    /// (unanchored) segments — that gap is a divergence, reported with
    /// the exact LSNs involved.
    pub fn finish(&self) -> Result<()> {
        for (name, col) in &self.columns {
            if let Some((&first_lsn, _)) = col.pending.iter().next() {
                return Err(SynopticError::ReplicationDivergence {
                    context: name.clone(),
                    detail: format!(
                        "stream ended with a parked segment at LSN {first_lsn} that never \
                         anchored (applied mark {})",
                        col.applied_lsn
                    ),
                });
            }
        }
        Ok(())
    }

    /// Serves one replication session: applies frames until the peer
    /// closes, then checks the end-of-stream invariant.
    pub fn serve(&mut self, transport: &mut dyn Transport) -> Result<()> {
        loop {
            match transport.recv(None)? {
                Received::Frame(bytes) => {
                    let response = self.handle(&bytes);
                    // The peer may close immediately after its last frame;
                    // an undeliverable response is the peer's loss (its
                    // retry ladder re-solicits), not replica corruption.
                    if transport.send(&response).is_err() {
                        break;
                    }
                }
                Received::Closed => break,
                Received::TimedOut => unreachable!("recv(None) cannot time out"),
            }
        }
        self.finish()
    }

    /// Serves like [`Follower::serve`] while tracking the leader's lease
    /// on the injected `clock`: any current-or-newer-term leader frame
    /// renews the lease, and once `ttl` clock ticks pass without one the
    /// session ends with [`ServeOutcome::LeaseExpired`] — the caller's
    /// cue to [`promote`]. `poll` is the real-time granularity at which
    /// the transport is polled between frames (the clock, not `poll`,
    /// decides expiry — tests drive a `ManualClock` and never depend on
    /// wall-time).
    ///
    /// A lease expiry does **not** run the end-of-stream invariant:
    /// parked (never-anchored, never-acknowledged) segments are the dead
    /// leader's unacknowledged tail, and promotion serves exactly the
    /// acknowledged prefix.
    pub fn serve_with_lease(
        &mut self,
        transport: &mut dyn Transport,
        clock: &dyn Clock,
        ttl: u64,
        poll: Duration,
    ) -> Result<ServeOutcome> {
        let mut lease = LeaseTracker::arm(ttl, clock.now());
        loop {
            match transport.recv(Some(poll))? {
                Received::Frame(bytes) => {
                    // Only a frame carrying a current-or-newer term is
                    // proof of a live, valid leader: a fenced ex-leader's
                    // heartbeats must not keep the lease alive.
                    if let Ok(frame) = decode_frame(&bytes) {
                        if frame.term() >= self.term
                            && matches!(
                                frame,
                                Frame::Segment { .. }
                                    | Frame::Heartbeat { .. }
                                    | Frame::Claim { .. }
                            )
                        {
                            lease.renew(clock.now());
                        }
                    }
                    let response = self.handle(&bytes);
                    if transport.send(&response).is_err() {
                        self.finish()?;
                        return Ok(ServeOutcome::LeaderClosed);
                    }
                }
                Received::Closed => {
                    self.finish()?;
                    return Ok(ServeOutcome::LeaderClosed);
                }
                Received::TimedOut => {
                    if lease.expired(clock.now()) {
                        return Ok(ServeOutcome::LeaseExpired);
                    }
                }
            }
        }
    }
}

/// Promotes a replica to leadership: full crash recovery over its local
/// catalog + journal (exactly [`Follower::open`]'s path — the invariants
/// the promotion sweep proves), then a durable claim of `term + 1` voted
/// to `node`. Returns the claimed term and the recovery report.
///
/// Nothing more happens in-process. The one caller, `synoptic follow
/// --auto-promote`, re-opens the recovered state as a read-only
/// [`Follower`], prints one full-range read per column and returns; no
/// caller re-opens a maintained loop over it. A later `synoptic ship
/// --seed --catalog` run reads the claimed term from the catalog and
/// stamps it on every frame. Serving the promoted state from the pool is
/// the open "One serving state across replication" item in ROADMAP.md.
pub fn promote(
    storage: SharedStorage,
    catalog_dir: impl AsRef<Path>,
    wal_dir: impl AsRef<Path>,
    node: u64,
) -> Result<(u64, RecoveryReport)> {
    let store = DurableCatalog::open(catalog_dir.as_ref(), Arc::clone(&storage))?;
    let report = recover(&store, wal_dir.as_ref())?;
    let mut catalog = report.catalog.clone();
    let term = catalog.election_term() + 1;
    catalog.set_election_term(term);
    catalog.set_election_vote(node);
    store.save(&catalog)?;
    Ok((term, report))
}

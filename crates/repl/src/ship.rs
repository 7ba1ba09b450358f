//! Leader-side segment shipping.
//!
//! A [`Shipper`] pushes one column's sealed WAL segments to one follower
//! over any [`Transport`], in LSN order, and tracks the follower's
//! *cumulative* acknowledged LSN. The protocol is pipelined and
//! retry-driven:
//!
//! 1. **Probe.** A [`Frame::Heartbeat`] solicits an [`Frame::Ack`], so
//!    the shipper learns where the follower already is (a restarted
//!    leader does not re-ship what the follower holds; a duplicate would
//!    be absorbed idempotently anyway).
//! 2. **Ship.** Each pass sends, as [`Frame::Segment`]s, every segment of
//!    a chain scan ([`scan_column_journal`]) that holds records past the
//!    acked LSN — byte for byte its validated prefix, so a torn on-disk
//!    tail (never acknowledged) is not shipped, and a journal the scan
//!    refuses (damage, a broken LSN chain, a header naming another column)
//!    ships nothing. The scan starts at a sequence-number floor: the newest
//!    segment an earlier pass found pending. Every file below it is sealed
//!    and holds only records below that segment's first LSN, so while the
//!    follower's ack covers them they are skipped by name, unread. A probe
//!    that reports an ack below them (a follower that lost what it had)
//!    drops the floor, and the next scan reads every file again. A caller
//!    that already scanned the journal hands its scan to the first pass
//!    ([`Shipper::ship_journal`]), which then reads nothing.
//! 3. **Drain.** Acks advance the watermark; [`Frame::Refuse`] frames are
//!    recorded. When the watermark reaches the last sealed LSN the pass
//!    succeeds.
//! 4. **Retry.** Lost, torn, or refused segments leave the watermark
//!    short; the shipper backs off (doubling per pass) and re-ships
//!    everything still unacknowledged. A follower that cannot converge
//!    within the retry budget is a loud
//!    [`SynopticError::ReplicationDivergence`] carrying the follower's
//!    own refusal reason — never a silent divergence.
//!
//! The shipper is deliberately storage-driven (it reads the journal
//! through the same chain scan recovery uses) rather than hooked into a live
//! `ColumnWal`'s internals: the one-shot `synoptic ship` CLI and the
//! in-process `maintain --replicate-to` loop ship through the identical
//! code path. [`ship_journals`] fans every column of a journal directory
//! in over one link — the re-seed path and `maintain --replicate-to`'s
//! side columns.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use synoptic_catalog::storage::Storage;
use synoptic_catalog::wal::{scan_column_journal, scan_journals, JournalScan, SegmentMeta};
use synoptic_core::{Result, SynopticError};

use crate::transport::{Received, Transport};
use crate::wire::{decode_frame, encode_frame, Frame};

/// What one [`Shipper::ship`] call accomplished.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShipReport {
    /// Segment frames sent (including re-ships).
    pub shipped: usize,
    /// The follower's cumulative acknowledged LSN when shipping finished.
    pub acked_lsn: u64,
    /// The highest sealed LSN on disk — the convergence target.
    pub target_lsn: u64,
    /// Ship/drain passes used (1 = everything acked first try).
    pub passes: u32,
    /// Refusal reasons the follower reported along the way (retries may
    /// have resolved them; `acked_lsn` is the ground truth).
    pub refusals: Vec<String>,
}

/// Ships one column's sealed segments to one follower. See the module
/// docs for the protocol.
pub struct Shipper<S: Storage> {
    storage: S,
    dir: PathBuf,
    column: String,
    term: u64,
    max_passes: u32,
    backoff: Duration,
    drain_timeout: Duration,
    /// `(seq, lsn)`: every segment file numbered below `seq` holds only
    /// records at or below `lsn`. `(0, 0)` when nothing is known.
    floor: Mutex<(u64, u64)>,
}

impl<S: Storage> Shipper<S> {
    /// A shipper for `column`'s journal under `dir`. Defaults: 4 retry
    /// passes, 10 ms initial backoff (doubling), 500 ms ack-drain
    /// timeout, election term 0 (no election in play).
    pub fn new(storage: S, dir: impl Into<PathBuf>, column: &str) -> Self {
        Self {
            storage,
            dir: dir.into(),
            column: column.to_string(),
            term: 0,
            max_passes: 4,
            backoff: Duration::from_millis(10),
            drain_timeout: Duration::from_millis(500),
            floor: Mutex::new((0, 0)),
        }
    }

    /// Stamps every outgoing frame with the leader's election term. A
    /// follower on a newer term refuses the frames, and the shipper turns
    /// that refusal into [`SynopticError::StaleLeaderTerm`] — the fencing
    /// signal that this leader was deposed and must stand down.
    #[must_use]
    pub fn with_term(mut self, term: u64) -> Self {
        self.term = term;
        self
    }

    /// Sets the retry budget: `passes` ship/drain rounds with `backoff`
    /// doubling between them.
    #[must_use]
    pub fn with_retry(mut self, passes: u32, backoff: Duration) -> Self {
        self.max_passes = passes.max(1);
        self.backoff = backoff;
        self
    }

    /// Sets how long each drain waits for the next ack before re-shipping.
    #[must_use]
    pub fn with_drain_timeout(mut self, timeout: Duration) -> Self {
        self.drain_timeout = timeout;
        self
    }

    /// The sequence number the next scan starts at: the floor while the
    /// follower's `acked` LSN covers every file below it, else 0 (and the
    /// floor is dropped).
    fn walk_from(&self, acked: u64) -> u64 {
        let mut floor = self.floor.lock().unwrap_or_else(PoisonError::into_inner);
        if acked < floor.1 {
            *floor = (0, 0);
        }
        floor.0
    }

    /// Raises the floor to the newest `pending` segment: the files below
    /// it are sealed and hold only records before its first.
    fn raise_floor(&self, pending: &[(SegmentMeta, Vec<u8>)]) {
        if let Some((newest, _)) = pending.last() {
            let mut floor = self.floor.lock().unwrap_or_else(PoisonError::into_inner);
            if newest.seq > floor.0 {
                *floor = (newest.seq, newest.first_lsn.saturating_sub(1));
            }
        }
    }

    fn diverged(&self, detail: impl Into<String>) -> SynopticError {
        SynopticError::ReplicationDivergence {
            context: self.column.clone(),
            detail: detail.into(),
        }
    }

    /// Probes the follower's cumulative applied LSN with a heartbeat.
    /// `leader_mark` is the leader's current pending mark (what the
    /// follower bounds its lag against).
    pub fn probe(&self, transport: &mut dyn Transport, leader_mark: u64) -> Result<u64> {
        for pass in 0..self.max_passes {
            transport.send(&encode_frame(&Frame::Heartbeat {
                term: self.term,
                column: self.column.clone(),
                leader_mark,
            }))?;
            loop {
                match transport.recv(Some(self.drain_timeout))? {
                    Received::Frame(bytes) => match decode_frame(&bytes)? {
                        Frame::Ack {
                            column,
                            applied_lsn,
                            ..
                        } if column == self.column => return Ok(applied_lsn),
                        // A refusal on a newer term is the fence: stop
                        // immediately, no retry can make a deposed leader
                        // current again.
                        Frame::Refuse { term, .. } if term > self.term => {
                            return Err(SynopticError::StaleLeaderTerm {
                                stale_term: self.term,
                                current_term: term,
                            })
                        }
                        // Stale acks for other columns, late refusals:
                        // keep draining.
                        _ => continue,
                    },
                    Received::TimedOut => break,
                    Received::Closed => {
                        return Err(self.diverged("follower closed the link during probe"))
                    }
                }
            }
            std::thread::sleep(self.backoff * 2u32.pow(pass));
        }
        Err(self.diverged(format!(
            "follower never answered a probe within {} passes",
            self.max_passes
        )))
    }

    /// Ships every sealed segment the follower has not acknowledged and
    /// drains acks until the follower converges to the highest sealed
    /// LSN, retrying with backoff. `leader_mark` is stamped into every
    /// segment frame for follower-side lag accounting.
    pub fn ship(&self, transport: &mut dyn Transport, leader_mark: u64) -> Result<ShipReport> {
        self.ship_from(transport, leader_mark, None)
    }

    /// [`Self::ship`] from a chain scan the caller already made of this
    /// column's journal: the first pass sends from its bytes instead of
    /// reading the files again, and its highest LSN is the leader mark.
    /// Retry passes scan the files as [`Self::ship`] does.
    pub fn ship_journal(
        &self,
        transport: &mut dyn Transport,
        journal: JournalScan,
    ) -> Result<ShipReport> {
        self.ship_from(transport, journal.max_lsn, Some(journal))
    }

    fn ship_from(
        &self,
        transport: &mut dyn Transport,
        leader_mark: u64,
        mut scanned: Option<JournalScan>,
    ) -> Result<ShipReport> {
        let mut report = ShipReport {
            acked_lsn: self.probe(transport, leader_mark)?,
            ..ShipReport::default()
        };
        for pass in 0..self.max_passes {
            report.passes = pass + 1;
            let scan = match scanned.take() {
                Some(scan) => scan,
                None => scan_column_journal(
                    &self.storage,
                    &self.dir,
                    &self.column,
                    self.walk_from(report.acked_lsn),
                )?,
            };
            // The segments holding records past the ack.
            let pending: Vec<_> = scan
                .segments
                .into_iter()
                .filter(|(meta, _)| {
                    meta.last_lsn >= meta.first_lsn && meta.last_lsn > report.acked_lsn
                })
                .collect();
            self.raise_floor(&pending);
            let target = pending
                .iter()
                .map(|(meta, _)| meta.last_lsn)
                .fold(report.acked_lsn, u64::max);
            report.target_lsn = target;
            if report.acked_lsn >= target {
                return Ok(report);
            }
            for (meta, bytes) in pending {
                transport.send(&encode_frame(&Frame::Segment {
                    term: self.term,
                    column: self.column.clone(),
                    seq: meta.seq,
                    leader_mark,
                    bytes,
                }))?;
                report.shipped += 1;
            }
            // Drain until converged or the link goes quiet.
            loop {
                if report.acked_lsn >= target {
                    return Ok(report);
                }
                match transport.recv(Some(self.drain_timeout))? {
                    Received::Frame(bytes) => match decode_frame(&bytes)? {
                        Frame::Ack {
                            column,
                            applied_lsn,
                            ..
                        } if column == self.column => {
                            report.acked_lsn = report.acked_lsn.max(applied_lsn);
                        }
                        // A refusal on a newer term fences this leader
                        // outright — retrying a deposed term would split
                        // the replicated history.
                        Frame::Refuse { term, .. } if term > self.term => {
                            return Err(SynopticError::StaleLeaderTerm {
                                stale_term: self.term,
                                current_term: term,
                            })
                        }
                        // An empty column is the follower saying "the
                        // outer frame itself did not validate" — it
                        // cannot know which column the wreck was for, so
                        // every shipper takes the hint.
                        Frame::Refuse {
                            column,
                            applied_lsn,
                            reason,
                            ..
                        } if column == self.column || column.is_empty() => {
                            if column == self.column {
                                report.acked_lsn = report.acked_lsn.max(applied_lsn);
                            }
                            report.refusals.push(reason);
                        }
                        _ => continue,
                    },
                    Received::TimedOut => break,
                    Received::Closed => {
                        return Err(self.diverged(format!(
                            "follower closed the link at LSN {} of {}",
                            report.acked_lsn, target
                        )))
                    }
                }
            }
            std::thread::sleep(self.backoff * 2u32.pow(pass));
        }
        let detail = match report.refusals.last() {
            Some(reason) => format!(
                "follower refused and never converged (stalled at LSN {} of {}): {reason}",
                report.acked_lsn, report.target_lsn
            ),
            None => format!(
                "follower stalled at LSN {} of {} after {} passes",
                report.acked_lsn, report.target_lsn, report.passes
            ),
        };
        Err(self.diverged(detail))
    }
}

/// Ships every column journaled under `dir` except `except` over one
/// link, one [`Shipper`] on election term `term` per column, each with its
/// column's highest journaled LSN as the leader mark. The directory is
/// read once ([`scan_journals`]), and each shipper's first pass
/// sends from that scan ([`Shipper::ship_journal`]); only a retry pass
/// reads its column's files again. Returns every column's report, in
/// column order.
pub fn ship_journals<S: Storage + Clone>(
    storage: &S,
    dir: &Path,
    term: u64,
    except: Option<&str>,
    transport: &mut dyn Transport,
) -> Result<Vec<(String, ShipReport)>> {
    let mut reports = Vec::new();
    for (column, journal) in scan_journals(storage, dir)? {
        if except == Some(column.as_str()) {
            continue;
        }
        let report = Shipper::new(storage.clone(), dir, &column)
            .with_term(term)
            .ship_journal(transport, journal)?;
        reports.push((column, report));
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::MemTransport;
    use synoptic_catalog::storage::FsStorage;
    use synoptic_catalog::wal::{decode_segment, wal_file_name, ColumnWal, WalConfig, WAL_MAGIC};

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("synoptic_ship_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// A hand-rolled follower stub: acks everything whole, refusing
    /// nothing — enough to unit-test the shipper's bookkeeping. The real
    /// follower lives in synoptic-stream.
    fn ack_everything(t: MemTransport) -> std::thread::JoinHandle<usize> {
        let follower = recording_follower(t, 0);
        std::thread::spawn(move || follower.join().unwrap().len())
    }

    /// [`ack_everything`] for a follower that already applied `applied`:
    /// returns every segment frame it received, byte for byte.
    fn recording_follower(
        mut t: MemTransport,
        mut applied: u64,
    ) -> std::thread::JoinHandle<Vec<Vec<u8>>> {
        std::thread::spawn(move || {
            let mut frames = Vec::new();
            loop {
                match t.recv(None).unwrap() {
                    Received::Frame(bytes) => {
                        let column = match decode_frame(&bytes).unwrap() {
                            Frame::Segment {
                                column,
                                bytes: segment,
                                ..
                            } => {
                                let seg = decode_segment(&segment, "shipped").unwrap();
                                applied = applied.max(seg.last_lsn);
                                frames.push(bytes);
                                column
                            }
                            Frame::Heartbeat { column, .. } => column,
                            _ => continue,
                        };
                        t.send(&encode_frame(&Frame::Ack {
                            term: 0,
                            column,
                            applied_lsn: applied,
                        }))
                        .unwrap();
                    }
                    Received::Closed => return frames,
                    Received::TimedOut => unreachable!(),
                }
            }
        })
    }

    /// Ships to a follower stub at `applied`: from `scan` through
    /// [`Shipper::ship_journal`] when one is given, else through
    /// [`Shipper::ship`] at `leader_mark`. Returns the report and every
    /// segment frame the follower received.
    fn ship_to(
        shipper: &Shipper<FsStorage>,
        applied: u64,
        scan: Option<JournalScan>,
        leader_mark: u64,
    ) -> Result<(ShipReport, Vec<Vec<u8>>)> {
        let (leader_end, follower_end) = MemTransport::pair();
        let follower = recording_follower(follower_end, applied);
        let mut t: Box<dyn Transport> = Box::new(leader_end);
        let report = match scan {
            Some(scan) => shipper.ship_journal(t.as_mut(), scan),
            None => shipper.ship(t.as_mut(), leader_mark),
        };
        t.close();
        let frames = follower.join().unwrap();
        Ok((report?, frames))
    }

    /// Journals `appends` one-record segments of `column` under `d`, each
    /// sealed, continuing whatever journal is there.
    fn journal(d: &Path, column: &str, appends: u64) {
        let cfg = WalConfig {
            segment_bytes: 1, // every append rotates
            ..WalConfig::default()
        };
        let wal = ColumnWal::open(FsStorage::new(), d, column, 1, cfg).unwrap();
        for i in 0..appends {
            wal.append(i, 1).unwrap();
        }
        wal.seal().unwrap();
    }

    /// Appends `bytes` to the end of the file at `path`.
    fn append_to(path: &Path, bytes: &[u8]) {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(path).unwrap();
        f.write_all(bytes).unwrap();
    }

    #[test]
    fn ship_and_ship_journal_send_the_same_frames() {
        let d = tmp_dir("same_frames");
        let s = FsStorage::new();
        // A torn final tail: bytes short of one record after the last.
        journal(&d, "torn", 4);
        append_to(&d.join(wal_file_name("torn", 4)), &[0xab; 20]);
        // A mid-chain wreck that LSN continuity proves empty: segment 3's
        // header never landed, and segment 4 starts right after segment 2.
        journal(&d, "wreck", 2);
        std::fs::write(d.join(wal_file_name("wreck", 3)), &WAL_MAGIC[..5]).unwrap();
        journal(&d, "wreck", 2);
        for (column, last) in [("torn", 4), ("wreck", 4)] {
            let scan = scan_column_journal(&s, &d, column, 0).unwrap();
            assert_eq!(scan.max_lsn, last, "{column}");
            assert_eq!(scan.segments.last().unwrap().0.torn_tail, column == "torn");
            assert_eq!(scan.skipped.len(), usize::from(column == "wreck"));
            for applied in [0, 2] {
                let shipper = Shipper::new(s.clone(), &d, column);
                let (walked, sent) = ship_to(&shipper, applied, None, last).unwrap();
                let shipper = Shipper::new(s.clone(), &d, column);
                let (handed, from_scan) =
                    ship_to(&shipper, applied, Some(scan.clone()), 0).unwrap();
                assert_eq!(walked, handed, "{column} from {applied}");
                assert_eq!(sent.len() as u64, last - applied, "{column} from {applied}");
                assert_eq!(sent, from_scan, "{column} from {applied}");
            }
        }
        // A nonzero sequence floor: a shipper that shipped segments 1-3
        // scans from segment 3 on, and sends what a whole-journal scan
        // handed to a fresh shipper sends.
        journal(&d, "floor", 3);
        let shipper = Shipper::new(s.clone(), &d, "floor");
        let (first, _) = ship_to(&shipper, 0, None, 3).unwrap();
        assert_eq!((first.shipped, first.acked_lsn), (3, 3));
        journal(&d, "floor", 2);
        assert_eq!(*shipper.floor.lock().unwrap(), (3, 2));
        let (walked, sent) = ship_to(&shipper, 3, None, 5).unwrap();
        let scan = scan_column_journal(&s, &d, "floor", 0).unwrap();
        let fresh = Shipper::new(s.clone(), &d, "floor");
        let (handed, from_scan) = ship_to(&fresh, 3, Some(scan), 0).unwrap();
        assert_eq!(walked, handed);
        assert_eq!(sent.len(), 2);
        assert_eq!(sent, from_scan);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn a_segment_naming_another_column_is_refused() {
        let d = tmp_dir("collision");
        // `a.b` and `a_b` sanitize to the same file prefix: `a_b`'s
        // shipper finds segments whose header names `a.b`.
        journal(&d, "a.b", 2);
        let shipper = Shipper::new(FsStorage::new(), &d, "a_b");
        let err = ship_to(&shipper, 0, None, 2).unwrap_err();
        assert!(
            matches!(err, SynopticError::CorruptJournal { ref detail, .. } if detail.contains("collision")),
            "{err:?}"
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn ships_all_sealed_segments_and_converges() {
        let d = tmp_dir("converge");
        let s = FsStorage::new();
        let cfg = WalConfig {
            segment_bytes: 1,
            ..WalConfig::default()
        };
        let wal = ColumnWal::open(s.clone(), &d, "c", 1, cfg).unwrap();
        for i in 0..5u64 {
            wal.append(i, 1).unwrap();
        }
        wal.seal().unwrap();
        let (leader_end, follower_end) = MemTransport::pair();
        let follower = ack_everything(follower_end);
        let shipper = Shipper::new(s, &d, "c");
        let mut t: Box<dyn Transport> = Box::new(leader_end);
        let report = shipper.ship(t.as_mut(), wal.pending_mark()).unwrap();
        assert_eq!(report.acked_lsn, 5);
        assert_eq!(report.target_lsn, 5);
        assert_eq!(report.shipped, 5);
        assert_eq!(report.passes, 1);
        assert!(report.refusals.is_empty());
        t.close();
        assert_eq!(follower.join().unwrap(), 5);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn second_ship_is_incremental_from_the_ack_watermark() {
        let d = tmp_dir("incremental");
        let s = FsStorage::new();
        let cfg = WalConfig {
            segment_bytes: 1,
            ..WalConfig::default()
        };
        let wal = ColumnWal::open(s.clone(), &d, "c", 1, cfg).unwrap();
        wal.append(0, 1).unwrap();
        wal.seal().unwrap();
        let (leader_end, follower_end) = MemTransport::pair();
        let follower = ack_everything(follower_end);
        let shipper = Shipper::new(s, &d, "c");
        let mut t: Box<dyn Transport> = Box::new(leader_end);
        let r1 = shipper.ship(t.as_mut(), wal.pending_mark()).unwrap();
        assert_eq!((r1.shipped, r1.acked_lsn), (1, 1));
        wal.append(1, 2).unwrap();
        wal.seal().unwrap();
        // The probe finds the follower at LSN 1; only the new segment
        // travels.
        let r2 = shipper.ship(t.as_mut(), wal.pending_mark()).unwrap();
        assert_eq!((r2.shipped, r2.acked_lsn), (1, 2));
        t.close();
        assert_eq!(follower.join().unwrap(), 2);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn silent_follower_is_a_loud_divergence_not_a_hang() {
        let d = tmp_dir("silent");
        let s = FsStorage::new();
        let wal = ColumnWal::open(s.clone(), &d, "c", 1, WalConfig::default()).unwrap();
        wal.append(0, 1).unwrap();
        wal.seal().unwrap();
        let (mut leader_end, _follower_end_kept_silent) = MemTransport::pair();
        let shipper = Shipper::new(s, &d, "c")
            .with_retry(2, Duration::from_millis(1))
            .with_drain_timeout(Duration::from_millis(10));
        let err = shipper.ship(&mut leader_end, 1).unwrap_err();
        assert!(
            matches!(err, SynopticError::ReplicationDivergence { ref detail, .. } if detail.contains("probe")),
            "{err:?}"
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn newer_term_refusal_fences_the_shipper() {
        let d = tmp_dir("fenced");
        let s = FsStorage::new();
        let wal = ColumnWal::open(s.clone(), &d, "c", 1, WalConfig::default()).unwrap();
        wal.append(0, 1).unwrap();
        wal.seal().unwrap();
        let (leader_end, mut follower_end) = MemTransport::pair();
        // A follower that has granted term 7 fences everything from this
        // term-3 leader.
        let follower = std::thread::spawn(move || loop {
            match follower_end.recv(None).unwrap() {
                Received::Frame(bytes) => {
                    let frame = decode_frame(&bytes).unwrap();
                    follower_end
                        .send(&encode_frame(&Frame::Refuse {
                            term: 7,
                            column: match frame {
                                Frame::Segment { column, .. } | Frame::Heartbeat { column, .. } => {
                                    column
                                }
                                _ => String::new(),
                            },
                            applied_lsn: 0,
                            reason: "fenced: leader term 3 is stale (current term 7)".into(),
                        }))
                        .unwrap();
                }
                _ => return,
            }
        });
        let shipper = Shipper::new(s, &d, "c").with_term(3);
        let mut t: Box<dyn Transport> = Box::new(leader_end);
        let err = shipper.ship(t.as_mut(), 1).unwrap_err();
        assert_eq!(
            err,
            SynopticError::StaleLeaderTerm {
                stale_term: 3,
                current_term: 7
            }
        );
        t.close();
        follower.join().unwrap();
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn empty_journal_ships_nothing_and_succeeds() {
        let d = tmp_dir("empty");
        let s = FsStorage::new();
        s.create_dir_all(&d).unwrap();
        let (leader_end, follower_end) = MemTransport::pair();
        let follower = ack_everything(follower_end);
        let shipper = Shipper::new(s, &d, "c");
        let mut t: Box<dyn Transport> = Box::new(leader_end);
        let report = shipper.ship(t.as_mut(), 0).unwrap();
        assert_eq!(report.shipped, 0);
        assert_eq!(report.acked_lsn, 0);
        t.close();
        assert_eq!(follower.join().unwrap(), 0);
        let _ = std::fs::remove_dir_all(&d);
    }
}

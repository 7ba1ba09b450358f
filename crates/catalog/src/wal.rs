//! The per-column write-ahead update journal.
//!
//! Point updates applied to a maintained synopsis live only in memory until
//! the next background rebuild persists a new catalog generation. The WAL
//! closes that window: every acknowledged batch of `(index, delta)` updates
//! is appended to a checksummed segment file *before* the in-memory state
//! changes, so a crash loses at most the one batch that was mid-append when
//! power failed — whole, never a prefix of it.
//!
//! ## Segment format
//!
//! One column owns a sequence of segment files `<sanitized>-<seq>.wal`:
//!
//! ```text
//! header:  magic "SYNWAL01" (8) | version u16 | name_len u16
//!          | base_generation u64 | first_lsn u64 | name bytes | crc32 u32
//! record:  len u32 (= 24, bit 31 = batch continues) | lsn u64
//!          | index u64 | delta i64 | crc32 u32
//! ```
//!
//! All integers are little-endian. The header CRC covers every header byte
//! before it; a record CRC covers the length prefix and payload. Records
//! carry consecutive LSNs starting at the header's `first_lsn`, and
//! consecutive segments chain (`next.first_lsn = prev.last_lsn + 1`), so a
//! vanished middle segment is detectable. `base_generation` is the catalog
//! generation that was committed when the segment was opened.
//!
//! ## Batches
//!
//! [`ColumnWal::append_batch`] journals a batch of records in one
//! [`Storage::append`]. Every record of a batch except the last sets bit 31
//! of its length word (the *continuation bit*); the last record's clear bit
//! is the batch's end mark. A batch never spans segments. Writers stamp
//! header version 2; version 1 segments, written before batches existed,
//! never set the bit, so each of their records reads as a one-record batch.
//! Readers accept both versions.
//!
//! ## Durability and truncation
//!
//! Appends go through [`Storage::append`] with an fsync cadence chosen by
//! [`FsyncCadence`], decided once per batch: `EveryN(n)` syncs a batch of
//! `k` records iff `since_sync + k >= n`, so at most `n - 1` acknowledged
//! records are ever unsynced. A failed append is rolled back to the
//! segment's acknowledged length with [`Storage::truncate`], so its LSNs
//! can be reused; if even the rollback fails, the journal refuses every
//! later append with the original error. Segments rotate once they exceed
//! [`WalConfig::segment_bytes`]. After a catalog generation commits with a
//! WAL mark (see [`crate::Catalog::set_wal_mark`]), [`ColumnWal::checkpoint`]
//! deletes every segment whose records are all covered by the mark — the
//! only place the journal ever deletes, and only data a committed snapshot
//! already holds. A failed delete is harmless: replay skips records at or
//! below the mark.
//!
//! ## Reading back
//!
//! [`scan_column_journal`] validates the whole chain. A torn *tail* —
//! fewer trailing bytes than one record, a trailing batch with no end mark
//! (dropped whole), or an unreadable header on the final segment (the
//! crash hit the segment's very first append) — is tolerated and
//! truncated, because those bytes were never acknowledged as durable.
//! Everything else (mid-stream CRC mismatch, broken LSN chain, torn tail
//! on a non-final segment) is a hard [`SynopticError::CorruptJournal`]:
//! the journal cannot be trusted and recovery must say so rather than
//! guess.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use synoptic_core::{Result, SynopticError};

use crate::checksum::crc32;
use crate::storage::Storage;
use crate::store::sanitize_column;

/// Magic bytes opening every WAL segment file.
pub const WAL_MAGIC: [u8; 8] = *b"SYNWAL01";
/// Highest segment format version this build reads and the one it writes.
/// Version 2 added the batch continuation bit; version 1 is still read.
pub const WAL_VERSION: u16 = 2;
/// Extension of WAL segment files.
pub const WAL_EXT: &str = "wal";
/// Encoded size of one record: length prefix (4) + payload (24) + CRC (4).
pub const WAL_RECORD_LEN: usize = 32;

/// Fixed-size prefix of the header, before the column name bytes.
const HEADER_FIXED_LEN: usize = 28;
/// Declared payload length of every record.
const RECORD_PAYLOAD_LEN: u32 = 24;
/// Length-word bit set on every record of a batch except its last.
const BATCH_CONTINUES: u32 = 1 << 31;

/// How often appended records are fsynced to the platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncCadence {
    /// Every record is synced before the append returns (maximum
    /// durability: a crash loses at most the record being appended).
    #[default]
    EveryRecord,
    /// Sync once every `N` records; up to `N - 1` acknowledged records may
    /// be lost to a crash.
    EveryN(u64),
    /// Sync only when a segment is sealed at rotation; a crash may lose
    /// everything appended to the active segment since it opened.
    OnRotate,
}

/// Tuning knobs for one column's journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Rotate to a new segment once the active one reaches this many bytes.
    pub segment_bytes: usize,
    /// Fsync cadence for appends.
    pub fsync: FsyncCadence,
    /// Upper bound on checkpoint-covered segments retained *solely* for
    /// lagging replication followers (see
    /// [`ColumnWal::set_retention_hold`]). When a checkpoint would hold
    /// back more covered segments than this, the most-lagging followers
    /// are evicted — reported in the [`CheckpointReport`], never silently.
    /// `None` retains without bound.
    pub retain_cap_segments: Option<usize>,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 64 * 1024,
            fsync: FsyncCadence::EveryRecord,
            retain_cap_segments: None,
        }
    }
}

/// One decoded journal record: apply `delta` at `index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecord {
    /// Log sequence number, consecutive from 1 per column.
    pub lsn: u64,
    /// Domain index the update targets.
    pub index: u64,
    /// Signed frequency delta.
    pub delta: i64,
}

/// Metadata of one readable segment found by [`scan_column_journal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// File name relative to the journal directory.
    pub file: String,
    /// Sequence number parsed from the file name.
    pub seq: u64,
    /// Catalog generation committed when the segment was opened.
    pub base_generation: u64,
    /// LSN of the segment's first record.
    pub first_lsn: u64,
    /// LSN of the segment's last record (`first_lsn - 1` when empty).
    pub last_lsn: u64,
    /// Whether a torn final batch was truncated off this segment.
    pub torn_tail: bool,
}

/// Everything [`scan_column_journal`] recovered for one column.
#[derive(Debug, Clone, Default)]
pub struct JournalScan {
    /// All valid records across all segments, in LSN order.
    pub records: Vec<WalRecord>,
    /// Readable segments, ascending by sequence number.
    pub segments: Vec<SegmentMeta>,
    /// Segments skipped wholesale because their header never became
    /// readable (the crash hit the segment's very first append). Skipping
    /// is only allowed when the segment provably held no acknowledged
    /// records: it is the final segment, or the LSN chain runs unbroken
    /// from the segment before it to the segment after it.
    pub skipped: Vec<String>,
    /// Highest valid LSN seen (`0` when the journal is empty).
    pub max_lsn: u64,
}

/// One segment file found by [`list_sealed_segments`]: a header-validated
/// on-disk segment, the unit replication ships.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentFile {
    /// File name relative to the journal directory.
    pub file: String,
    /// Sequence number parsed from the file name.
    pub seq: u64,
    /// Column the header declares ownership by.
    pub column: String,
    /// Catalog generation committed when the segment was opened.
    pub base_generation: u64,
    /// LSN of the segment's first record.
    pub first_lsn: u64,
}

/// One fully decoded segment, as [`decode_segment`] returns it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedSegment {
    /// Total encoded header length in bytes. `header_len +
    /// records.len() * WAL_RECORD_LEN` is the validated prefix of the
    /// segment bytes — what a shipper sends when the tail is torn.
    pub header_len: usize,
    /// Column the header declares ownership by.
    pub column: String,
    /// Catalog generation committed when the segment was opened.
    pub base_generation: u64,
    /// LSN of the segment's first record.
    pub first_lsn: u64,
    /// LSN of the segment's last record (`first_lsn - 1` when empty).
    pub last_lsn: u64,
    /// All valid records, consecutive from `first_lsn`.
    pub records: Vec<WalRecord>,
    /// Whether a torn final batch was truncated off: trailing bytes short
    /// of one whole record, or records with no batch end mark. A sealed,
    /// fully shipped segment is never torn; receivers treat a torn decode
    /// as an incomplete transfer, not corruption.
    pub torn_tail: bool,
}

/// What one [`ColumnWal::checkpoint_report`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Segment files removed.
    pub removed: usize,
    /// Covered segments kept back only because a registered follower has
    /// not acknowledged them yet.
    pub retained_for_followers: usize,
    /// Followers whose retention hold was evicted by
    /// [`WalConfig::retain_cap_segments`], with the LSN each had
    /// acknowledged when evicted. An evicted follower must bootstrap from
    /// a snapshot; it can no longer catch up from this journal alone.
    pub evicted: Vec<(String, u64)>,
}

/// The file name of segment `seq` of `column`'s journal.
pub fn wal_file_name(column: &str, seq: u64) -> String {
    format!("{}-{seq}.{WAL_EXT}", sanitize_column(column))
}

/// Parses the sequence number out of a segment file name, given the
/// column's `"<sanitized>-"` prefix. Sanitized names never contain `-`, so
/// the parse is unambiguous.
fn parse_wal_seq(name: &str, prefix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(&format!(".{WAL_EXT}"))?
        .parse::<u64>()
        .ok()
}

fn corrupt(file: &str, detail: impl Into<String>) -> SynopticError {
    SynopticError::CorruptJournal {
        context: file.to_string(),
        detail: detail.into(),
    }
}

fn encode_header(column: &str, base_generation: u64, first_lsn: u64) -> Vec<u8> {
    let name = column.as_bytes();
    let mut out = Vec::with_capacity(HEADER_FIXED_LEN + name.len() + 4);
    out.extend_from_slice(&WAL_MAGIC);
    out.extend_from_slice(&WAL_VERSION.to_le_bytes());
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(&base_generation.to_le_bytes());
    out.extend_from_slice(&first_lsn.to_le_bytes());
    out.extend_from_slice(name);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

fn encode_record(lsn: u64, index: u64, delta: i64, continues: bool) -> [u8; WAL_RECORD_LEN] {
    let mut out = [0u8; WAL_RECORD_LEN];
    let len = if continues {
        RECORD_PAYLOAD_LEN | BATCH_CONTINUES
    } else {
        RECORD_PAYLOAD_LEN
    };
    out[0..4].copy_from_slice(&len.to_le_bytes());
    out[4..12].copy_from_slice(&lsn.to_le_bytes());
    out[12..20].copy_from_slice(&index.to_le_bytes());
    out[20..28].copy_from_slice(&delta.to_le_bytes());
    let crc = crc32(&out[0..28]);
    out[28..32].copy_from_slice(&crc.to_le_bytes());
    out
}

struct ParsedHeader {
    version: u16,
    column: String,
    base_generation: u64,
    first_lsn: u64,
    /// Total header length including name and CRC.
    len: usize,
}

fn u16_at(bytes: &[u8], at: usize) -> u16 {
    u16::from_le_bytes(bytes[at..at + 2].try_into().expect("bounds checked"))
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("bounds checked"))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("bounds checked"))
}

/// Validates a segment header. Integrity failures are
/// [`SynopticError::CorruptJournal`]; a CRC-valid header from a newer
/// format is [`SynopticError::UnsupportedVersion`] — never skippable,
/// because its contents are intact, just not ours to interpret.
fn parse_header(bytes: &[u8], file: &str) -> Result<ParsedHeader> {
    if bytes.len() < HEADER_FIXED_LEN + 4 {
        return Err(corrupt(
            file,
            format!("{} bytes is shorter than a segment header", bytes.len()),
        ));
    }
    if bytes[0..8] != WAL_MAGIC {
        return Err(corrupt(file, "bad magic"));
    }
    let name_len = u16_at(bytes, 10) as usize;
    let header_len = HEADER_FIXED_LEN + name_len + 4;
    if bytes.len() < header_len {
        return Err(corrupt(
            file,
            "shorter than its declared header (torn at creation)",
        ));
    }
    let crc_stored = u32_at(bytes, HEADER_FIXED_LEN + name_len);
    let crc_actual = crc32(&bytes[..HEADER_FIXED_LEN + name_len]);
    if crc_stored != crc_actual {
        return Err(corrupt(file, "header CRC mismatch"));
    }
    // The CRC validated, so the version field is trustworthy.
    let version = u16_at(bytes, 8);
    if version > WAL_VERSION {
        return Err(SynopticError::UnsupportedVersion {
            found: version,
            supported: WAL_VERSION,
        });
    }
    let first_lsn = u64_at(bytes, 20);
    if first_lsn == 0 {
        return Err(corrupt(file, "first LSN is 0 (LSNs start at 1)"));
    }
    let column = std::str::from_utf8(&bytes[HEADER_FIXED_LEN..HEADER_FIXED_LEN + name_len])
        .map_err(|_| corrupt(file, "column name is not UTF-8"))?
        .to_string();
    Ok(ParsedHeader {
        version,
        column,
        base_generation: u64_at(bytes, 12),
        first_lsn,
        len: header_len,
    })
}

/// Decodes the record stream following a segment header. `Err` means
/// untrustworthy mid-stream bytes; `Ok(.., Some(detail))` means a torn
/// tail was truncated off — always a whole batch, so a batch is either
/// fully in the returned records or absent.
fn parse_records(
    bytes: &[u8],
    first_lsn: u64,
    version: u16,
    file: &str,
) -> Result<(Vec<WalRecord>, Option<String>)> {
    let mut records = Vec::with_capacity(bytes.len() / WAL_RECORD_LEN);
    // Records before this index belong to batches whose end mark was read.
    let mut complete = 0usize;
    let mut at = 0usize;
    let mut torn = None;
    while at < bytes.len() {
        let remaining = bytes.len() - at;
        if remaining < WAL_RECORD_LEN {
            // A torn append leaves a strict prefix of its bytes; anything
            // shorter than a whole record can only be that.
            torn = Some(format!("{remaining} trailing bytes, less than one record"));
            break;
        }
        let word = u32_at(bytes, at);
        // Version 1 predates batches: bit 31 there is corruption, caught
        // by the length check below.
        let continues = version >= 2 && word & BATCH_CONTINUES != 0;
        let len = if continues {
            word & !BATCH_CONTINUES
        } else {
            word
        };
        if len != RECORD_PAYLOAD_LEN {
            return Err(corrupt(
                file,
                format!("record at byte {at} declares payload length {len}"),
            ));
        }
        let crc_stored = u32_at(bytes, at + 28);
        let crc_actual = crc32(&bytes[at..at + 28]);
        if crc_stored != crc_actual {
            return Err(corrupt(file, format!("record CRC mismatch at byte {at}")));
        }
        let lsn = u64_at(bytes, at + 4);
        let expect = first_lsn + records.len() as u64;
        if lsn != expect {
            return Err(corrupt(
                file,
                format!("LSN {lsn} where {expect} was expected"),
            ));
        }
        records.push(WalRecord {
            lsn,
            index: u64_at(bytes, at + 12),
            delta: u64_at(bytes, at + 20) as i64,
        });
        at += WAL_RECORD_LEN;
        if !continues {
            complete = records.len();
        }
    }
    let open = records.len() - complete;
    if open > 0 {
        // The append that carried this batch tore before its end mark
        // landed: none of the batch was acknowledged, so all of it goes.
        records.truncate(complete);
        let detail = format!("batch of {open} record(s) has no end mark");
        torn = Some(match torn {
            Some(bytes) => format!("{detail}, then {bytes}"),
            None => detail,
        });
    }
    Ok((records, torn))
}

/// Reads and validates `column`'s whole journal under `dir`.
///
/// Tolerates exactly the damage an interrupted append can cause at the
/// journal's tail (see the module docs); everything else errors. Returns
/// all valid records in LSN order plus per-segment metadata, so recovery
/// can check each contributing segment's `base_generation` against the
/// snapshot it replays onto.
pub fn scan_column_journal<S: Storage>(
    storage: &S,
    dir: &Path,
    column: &str,
) -> Result<JournalScan> {
    let mut scan = JournalScan::default();
    if !storage.exists(dir) {
        return Ok(scan);
    }
    let prefix = format!("{}-", sanitize_column(column));
    let mut files: Vec<(u64, String)> = storage
        .list(dir)?
        .into_iter()
        .filter_map(|name| parse_wal_seq(&name, &prefix).map(|seq| (seq, name)))
        .collect();
    files.sort_unstable();

    // Unreadable-header segments seen since the last readable one. They are
    // forgiven only if the next readable segment proves (by LSN continuity)
    // that they never held an acknowledged record.
    let mut wrecks: Vec<(String, SynopticError)> = Vec::new();

    for (i, (seq, name)) in files.iter().enumerate() {
        let is_final = i + 1 == files.len();
        let bytes = storage.read(&dir.join(name))?;
        let header = match parse_header(&bytes, name) {
            Ok(h) => h,
            Err(e @ SynopticError::UnsupportedVersion { .. }) => return Err(e),
            Err(e) => {
                if is_final {
                    // The crash hit this segment's very first append: no
                    // record in it was ever acknowledged as durable.
                    scan.skipped.push(name.clone());
                    break;
                }
                if scan.segments.is_empty() {
                    // No earlier readable segment to anchor a continuity
                    // proof: the wreck may hold real records. Refuse.
                    return Err(e);
                }
                wrecks.push((name.clone(), e));
                continue;
            }
        };
        if header.column != column {
            return Err(corrupt(
                name,
                format!(
                    "segment belongs to column '{}' (sanitized file-name collision)",
                    header.column
                ),
            ));
        }
        if let Some(prev) = scan.segments.last() {
            if header.first_lsn != prev.last_lsn + 1 {
                // A broken chain: either this segment is damaged, or one of
                // the unreadable segments between it and `prev` held real
                // records. Surface the wreck's own error when there is one.
                if let Some((_, e)) = wrecks.drain(..).next() {
                    return Err(e);
                }
                return Err(corrupt(
                    name,
                    format!(
                        "LSN chain broken: segment starts at {} but {} was expected",
                        header.first_lsn,
                        prev.last_lsn + 1
                    ),
                ));
            }
        }
        // Continuity held across any intervening wrecks: they provably
        // carried nothing durable.
        scan.skipped.extend(wrecks.drain(..).map(|(n, _)| n));
        let (records, torn) =
            parse_records(&bytes[header.len..], header.first_lsn, header.version, name)?;
        if let Some(detail) = &torn {
            if !is_final {
                return Err(corrupt(
                    name,
                    format!("torn tail on a non-final segment: {detail}"),
                ));
            }
        }
        let last_lsn = header.first_lsn + records.len() as u64 - 1;
        scan.max_lsn = scan.max_lsn.max(last_lsn);
        scan.segments.push(SegmentMeta {
            file: name.clone(),
            seq: *seq,
            base_generation: header.base_generation,
            first_lsn: header.first_lsn,
            last_lsn,
            torn_tail: torn.is_some(),
        });
        scan.records.extend(records);
    }
    // Wrecks with no later readable segment to vouch for them (the journal
    // ended in the middle of them) stay unproven: refuse.
    if let Some((_, e)) = wrecks.into_iter().next() {
        return Err(e);
    }
    Ok(scan)
}

/// Enumerates every segment file with a readable, CRC-valid header under
/// `dir`, ordered by `(column, first_lsn)` — the one directory walk both
/// replication shipping and fsck/recovery share. Segments whose header
/// never became readable are skipped here: the header goes out in the same
/// append as the first record, so an unreadable header means nothing in
/// that segment was ever acknowledged as durable (and there is nothing to
/// ship). A CRC-valid header from a newer format version still errors —
/// its contents are intact, just not ours to interpret.
pub fn list_sealed_segments<S: Storage>(storage: &S, dir: &Path) -> Result<Vec<SegmentFile>> {
    let mut segments: Vec<SegmentFile> = Vec::new();
    if !storage.exists(dir) {
        return Ok(segments);
    }
    let suffix = format!(".{WAL_EXT}");
    for name in storage.list(dir)? {
        if !name.ends_with(&suffix) {
            continue;
        }
        let path = dir.join(&name);
        let bytes = match storage.read(&path) {
            Ok(bytes) => bytes,
            // A checkpoint may delete a covered segment between the
            // listing and this read; a vanished segment is not listed.
            Err(_) if !storage.exists(&path) => continue,
            Err(e) => return Err(e),
        };
        match parse_header(&bytes, &name) {
            Ok(h) => {
                let prefix = format!("{}-", sanitize_column(&h.column));
                let Some(seq) = parse_wal_seq(&name, &prefix) else {
                    // A readable header inside a file whose name does not
                    // match its own column: a sanitized-name collision.
                    // The per-column scan reports it precisely; the
                    // enumeration just leaves it out.
                    continue;
                };
                segments.push(SegmentFile {
                    file: name,
                    seq,
                    column: h.column,
                    base_generation: h.base_generation,
                    first_lsn: h.first_lsn,
                });
            }
            Err(e @ SynopticError::UnsupportedVersion { .. }) => return Err(e),
            Err(_) => {}
        }
    }
    segments.sort_by(|a, b| (&a.column, a.first_lsn, a.seq).cmp(&(&b.column, b.first_lsn, b.seq)));
    Ok(segments)
}

/// Distinct column names owning at least one segment with a readable
/// header under `dir`, sorted. Recovery uses this to find journals whose
/// column is *absent* from the committed catalog (e.g. a column whose
/// first durable persist never committed) — silently skipping them would
/// drop acknowledged records. Built on [`list_sealed_segments`], the same
/// enumeration the replication shipper walks.
pub fn list_journal_columns<S: Storage>(storage: &S, dir: &Path) -> Result<Vec<String>> {
    let mut columns: Vec<String> = Vec::new();
    for seg in list_sealed_segments(storage, dir)? {
        if columns.last() != Some(&seg.column) {
            columns.push(seg.column);
        }
    }
    Ok(columns)
}

/// Decodes one whole segment file as shipped over a replication transport:
/// header plus record stream, CRC- and LSN-chain-validated exactly like
/// [`scan_column_journal`] validates it on disk. A torn final batch —
/// trailing bytes short of a whole record, or records with no batch end
/// mark — is truncated off whole and flagged (`torn_tail`) rather than
/// refused: over a transport that means an incomplete transfer the sender
/// will retry, and on disk it means a torn final append.
pub fn decode_segment(bytes: &[u8], file: &str) -> Result<DecodedSegment> {
    let header = parse_header(bytes, file)?;
    let (records, torn) =
        parse_records(&bytes[header.len..], header.first_lsn, header.version, file)?;
    let last_lsn = header.first_lsn + records.len() as u64 - 1;
    Ok(DecodedSegment {
        header_len: header.len,
        column: header.column,
        base_generation: header.base_generation,
        first_lsn: header.first_lsn,
        last_lsn,
        records,
        torn_tail: torn.is_some(),
    })
}

/// Rewrites the `base_generation` a segment's header declares, in place,
/// and recomputes the header CRC. A follower applies this before
/// persisting a shipped segment locally: the leader stamped its own
/// committed generation, but relative to the *follower's* catalog the
/// segment extends the follower's committed snapshot — recovery's
/// generation check must see the local generation or promotion would
/// refuse a perfectly consistent journal. Sound because `base_generation`
/// is an annotation relative to the local snapshot, not part of the record
/// stream, and the anchor-at-mark check still guarantees completeness.
pub fn restamp_segment_generation(bytes: &mut [u8], file: &str, generation: u64) -> Result<()> {
    let header = parse_header(bytes, file)?;
    bytes[12..20].copy_from_slice(&generation.to_le_bytes());
    let crc_at = header.len - 4;
    let crc = crc32(&bytes[..crc_at]);
    bytes[crc_at..header.len].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

struct ActiveSegment {
    path: PathBuf,
    bytes: usize,
}

struct SealedSegment {
    path: PathBuf,
    last_lsn: u64,
}

struct WalState {
    next_lsn: u64,
    next_seq: u64,
    /// Base generation stamped into the next segment opened.
    generation: u64,
    active: Option<ActiveSegment>,
    sealed: Vec<SealedSegment>,
    /// Records appended since the last fsync (for [`FsyncCadence::EveryN`]).
    since_sync: u64,
    /// Set when a failed append could not be rolled back: the active
    /// segment may end in bytes that were never acknowledged, so every
    /// later append and seal is refused with this error.
    poisoned: Option<SynopticError>,
}

/// Called after a segment seals durably, with its path and last LSN.
///
/// Invoked while the journal's internal lock is held: the hook must only
/// enqueue (notify a shipper) — calling back into the same `ColumnWal`
/// deadlocks.
pub type SealHook = Box<dyn Fn(&Path, u64) + Send + Sync>;

/// The append side of one column's journal.
///
/// Thread-safe behind an internal mutex: the ingest path appends while a
/// background worker checkpoints. Opening never appends to pre-existing
/// segments (their tails may be torn); it seals them as found and starts a
/// fresh segment on the first append.
pub struct ColumnWal<S: Storage> {
    storage: S,
    dir: PathBuf,
    column: String,
    config: WalConfig,
    state: Mutex<WalState>,
    /// Per-follower acknowledged LSNs holding back checkpoint truncation.
    holds: Mutex<BTreeMap<String, u64>>,
    seal_hook: Mutex<Option<SealHook>>,
}

impl<S: Storage> ColumnWal<S> {
    /// Opens `column`'s journal under `dir`, creating the directory when
    /// absent. `committed_generation` is the catalog generation the
    /// in-memory state was loaded from; it is stamped into new segment
    /// headers until the first [`Self::checkpoint`]. The existing journal
    /// must scan cleanly — run recovery first when in doubt.
    pub fn open(
        storage: S,
        dir: impl Into<PathBuf>,
        column: &str,
        committed_generation: u64,
        config: WalConfig,
    ) -> Result<Self> {
        let dir = dir.into();
        if column.is_empty() || column.len() > u16::MAX as usize {
            return Err(SynopticError::InvalidParameter(format!(
                "column name length {} outside 1..=65535",
                column.len()
            )));
        }
        storage.create_dir_all(&dir)?;
        let scan = scan_column_journal(&storage, &dir, column)?;
        let prefix = format!("{}-", sanitize_column(column));
        // Never reuse a sequence number, including one whose header never
        // became readable — appending to that file would bury live records
        // behind garbage.
        let next_seq = storage
            .list(&dir)?
            .iter()
            .filter_map(|n| parse_wal_seq(n, &prefix))
            .max()
            .map_or(1, |s| s + 1);
        let mut sealed: Vec<SealedSegment> = scan
            .segments
            .iter()
            .map(|s| SealedSegment {
                path: dir.join(&s.file),
                last_lsn: s.last_lsn,
            })
            .collect();
        for name in &scan.skipped {
            // Unreadable and already written off by the scan: eligible for
            // deletion at the first checkpoint.
            sealed.push(SealedSegment {
                path: dir.join(name),
                last_lsn: 0,
            });
        }
        Ok(Self {
            storage,
            dir,
            column: column.to_string(),
            config,
            state: Mutex::new(WalState {
                next_lsn: scan.max_lsn + 1,
                next_seq,
                generation: committed_generation,
                active: None,
                sealed,
                since_sync: 0,
                poisoned: None,
            }),
            holds: Mutex::new(BTreeMap::new()),
            seal_hook: Mutex::new(None),
        })
    }

    /// The column this journal belongs to.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WalState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Seals the active segment: fsyncs it whenever any record in it is
    /// still unsynced (`EveryN` between sync points as well as `OnRotate`),
    /// then moves it to the sealed list — a sealed segment must be fully
    /// durable before the next segment starts receiving synced records, or
    /// a crash would tear a *non-final* segment, which recovery rightly
    /// treats as hard corruption. On fsync failure the segment stays active
    /// so a later append retries the seal.
    fn seal_active(&self, st: &mut WalState) -> Result<()> {
        let Some(a) = st.active.take() else {
            return Ok(());
        };
        if st.since_sync > 0 {
            if let Err(e) = self.storage.append(&a.path, &[], true) {
                st.active = Some(a);
                return Err(e);
            }
            st.since_sync = 0;
        }
        let last_lsn = st.next_lsn - 1;
        if let Some(hook) = self
            .seal_hook
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
        {
            hook(&a.path, last_lsn);
        }
        st.sealed.push(SealedSegment {
            path: a.path,
            last_lsn,
        });
        Ok(())
    }

    /// Seals the active segment now, without waiting for rotation: after
    /// this returns `Ok`, every acknowledged record is in a durable sealed
    /// segment — the unit replication ships. A no-op when nothing is
    /// active. The next append opens a fresh segment.
    pub fn seal(&self) -> Result<()> {
        let mut st = self.lock();
        if let Some(e) = &st.poisoned {
            return Err(e.clone());
        }
        self.seal_active(&mut st)
    }

    /// Installs (or clears) the hook called whenever a segment seals
    /// durably — the leader-side replication shipper's wake-up. See
    /// [`SealHook`] for the reentrancy contract.
    pub fn set_seal_hook(&self, hook: Option<SealHook>) {
        *self
            .seal_hook
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = hook;
    }

    /// Registers (or advances) follower `name`'s acknowledged LSN.
    /// Checkpoints retain every segment holding records above the smallest
    /// registered hold, so a lagging follower can still catch up from this
    /// journal — bounded by [`WalConfig::retain_cap_segments`].
    pub fn set_retention_hold(&self, name: &str, acked_lsn: u64) {
        self.holds
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), acked_lsn);
    }

    /// Drops follower `name`'s retention hold (it deregistered or was
    /// promoted). Returns whether a hold existed.
    pub fn remove_retention_hold(&self, name: &str) -> bool {
        self.holds
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(name)
            .is_some()
    }

    /// Currently registered `(follower, acked_lsn)` holds, sorted by name.
    pub fn retention_holds(&self) -> Vec<(String, u64)> {
        self.holds
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(n, l)| (n.clone(), *l))
            .collect()
    }

    /// Journals one update and returns its LSN: a one-record
    /// [`Self::append_batch`].
    pub fn append(&self, index: u64, delta: i64) -> Result<u64> {
        self.append_batch(&[(index, delta)])
    }

    /// Journals a batch of `(index, delta)` updates in one storage append
    /// and returns the LSN of its last record (the current mark when the
    /// batch is empty, which appends nothing). The batch is on its way to
    /// disk (synced, per the cadence) before this returns; only then may
    /// the caller mutate the in-memory state it protects. Recovery replays
    /// the batch whole or not at all.
    pub fn append_batch(&self, batch: &[(u64, i64)]) -> Result<u64> {
        let mut st = self.lock();
        if let Some(e) = &st.poisoned {
            return Err(e.clone());
        }
        if batch.is_empty() {
            return Ok(st.next_lsn - 1);
        }
        let k = batch.len() as u64;
        // A batch never spans segments: rotate before it, not inside it.
        let over_budget = st
            .active
            .as_ref()
            .is_some_and(|a| a.bytes >= self.config.segment_bytes);
        if over_budget {
            self.seal_active(&mut st)?;
        }
        let first = st.next_lsn;
        let sync = match self.config.fsync {
            FsyncCadence::EveryRecord => true,
            FsyncCadence::EveryN(n) => st.since_sync + k >= n.max(1),
            FsyncCadence::OnRotate => false,
        };
        let (path, acked, mut buf) = match &st.active {
            Some(a) => (a.path.clone(), a.bytes, Vec::new()),
            // First batch of a new segment: header and records go out in
            // one append, so a tear at any byte is a torn creation or a
            // torn tail — never a half-header with a live record stranded
            // behind it.
            None => (
                self.dir.join(wal_file_name(&self.column, st.next_seq)),
                0,
                encode_header(&self.column, st.generation, first),
            ),
        };
        buf.reserve(batch.len() * WAL_RECORD_LEN);
        for (j, &(index, delta)) in batch.iter().enumerate() {
            let lsn = first + j as u64;
            buf.extend_from_slice(&encode_record(lsn, index, delta, j + 1 < batch.len()));
        }
        if let Err(e) = self.storage.append(&path, &buf, sync) {
            // Some of the bytes may have landed (a short write, or a write
            // followed by a failed fsync). Cut them off so the next append
            // can reuse these LSNs; if that fails too, the tail cannot be
            // trusted and the journal stops accepting appends.
            if self.storage.truncate(&path, acked as u64).is_err() {
                st.poisoned = Some(e.clone());
            }
            return Err(e);
        }
        if st.active.is_none() {
            st.next_seq += 1;
        }
        st.active = Some(ActiveSegment {
            path,
            bytes: acked + buf.len(),
        });
        st.next_lsn = first + k;
        st.since_sync = if sync { 0 } else { st.since_sync + k };
        Ok(first + k - 1)
    }

    /// The LSN of the last acknowledged record (`0` when nothing was ever
    /// journaled). A snapshot built from the current in-memory state covers
    /// exactly the records up to this mark — capture it under the same lock
    /// that freezes the state.
    pub fn pending_mark(&self) -> u64 {
        self.lock().next_lsn - 1
    }

    /// Checkpoint: a catalog generation `generation` committed, covering
    /// every record with LSN ≤ `snapshot_lsn`. Deletes segments whose
    /// records are all covered and stamps `generation` into future segment
    /// headers. Returns the number of files removed. A failed delete keeps
    /// the segment queued for the next checkpoint — stale segments are
    /// harmless, replay skips records at or below the committed mark.
    ///
    /// Shorthand for [`Self::checkpoint_report`] when follower retention
    /// detail is not needed.
    pub fn checkpoint(&self, snapshot_lsn: u64, generation: u64) -> Result<usize> {
        self.checkpoint_report(snapshot_lsn, generation)
            .map(|r| r.removed)
    }

    /// [`Self::checkpoint`], reporting replication retention decisions.
    ///
    /// Truncation honours follower holds ([`Self::set_retention_hold`]):
    /// a segment is deleted only when its records are covered by the
    /// snapshot *and* acknowledged by every registered follower. Covered
    /// segments kept back for followers count as `retained_for_followers`.
    /// When [`WalConfig::retain_cap_segments`] caps the backlog, the cap is
    /// measured against **every** sealed segment this checkpoint must
    /// retain — segments pinned by follower holds *and* segments sealed
    /// past the snapshot under sustained ingest (no eviction can free
    /// those, but they occupy the same disk budget). While the total
    /// exceeds the cap, the most-lagging followers whose holds actually pin
    /// covered segments are evicted (their holds dropped, names and acked
    /// LSNs reported in `evicted`); followers at or past the snapshot are
    /// never evicted, because dropping them frees nothing. An evicted
    /// follower must re-bootstrap from a snapshot.
    pub fn checkpoint_report(
        &self,
        snapshot_lsn: u64,
        generation: u64,
    ) -> Result<CheckpointReport> {
        let mut holds = self.holds.lock().unwrap_or_else(PoisonError::into_inner);
        let mut st = self.lock();
        st.generation = generation;
        let mut report = CheckpointReport::default();
        let floor_of = |holds: &BTreeMap<String, u64>| -> u64 {
            holds
                .values()
                .copied()
                .min()
                .map_or(snapshot_lsn, |h| h.min(snapshot_lsn))
        };
        if let Some(cap) = self.config.retain_cap_segments {
            loop {
                let floor = floor_of(&holds);
                // Everything this checkpoint cannot delete counts toward
                // the cap — including segments sealed past the snapshot,
                // which previously escaped the count and let a slow
                // follower's backlog grow without bound under sustained
                // ingest.
                let held = st.sealed.iter().filter(|s| s.last_lsn > floor).count();
                if held <= cap {
                    break;
                }
                // Evict the most-lagging follower whose hold actually pins
                // covered segments (hold below the snapshot) — evicting a
                // follower at or past the snapshot frees nothing. Ties
                // broken by name, the BTreeMap's iteration order —
                // deterministic.
                let Some((name, lsn)) = holds
                    .iter()
                    .filter(|(_, l)| **l < snapshot_lsn)
                    .min_by_key(|(_, l)| **l)
                    .map(|(n, l)| (n.clone(), *l))
                else {
                    break;
                };
                holds.remove(&name);
                report.evicted.push((name, lsn));
            }
        }
        let floor = floor_of(&holds);
        drop(holds);
        let mut failure = None;
        let sealed = std::mem::take(&mut st.sealed);
        let mut keep = Vec::new();
        for s in sealed {
            if failure.is_none() && s.last_lsn <= floor {
                match self.storage.remove(&s.path) {
                    Ok(()) => report.removed += 1,
                    Err(e) => {
                        failure = Some(e);
                        keep.push(s);
                    }
                }
            } else {
                if s.last_lsn > floor && s.last_lsn <= snapshot_lsn {
                    report.retained_for_followers += 1;
                }
                keep.push(s);
            }
        }
        st.sealed = keep;
        // The active segment too, when everything it holds is covered and
        // acknowledged; the next append then opens a fresh segment at the
        // new generation.
        if failure.is_none() && st.active.is_some() && st.next_lsn - 1 <= floor {
            let path = st.active.as_ref().expect("checked is_some").path.clone();
            match self.storage.remove(&path) {
                Ok(()) => {
                    st.active = None;
                    report.removed += 1;
                }
                Err(e) => failure = Some(e),
            }
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// File names of the segments currently on disk for this column
    /// (sealed then active), for diagnostics and tests.
    pub fn segment_count(&self) -> usize {
        let st = self.lock();
        st.sealed.len() + usize::from(st.active.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{Fault, FaultyStorage, FsStorage};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("synoptic_wal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn append_scan_round_trip() {
        let d = tmp_dir("roundtrip");
        let wal = ColumnWal::open(FsStorage::new(), &d, "price", 3, WalConfig::default()).unwrap();
        assert_eq!(wal.pending_mark(), 0);
        for (i, delta) in [2i64, -1, 5].into_iter().enumerate() {
            let lsn = wal.append(i as u64, delta).unwrap();
            assert_eq!(lsn, i as u64 + 1);
        }
        assert_eq!(wal.pending_mark(), 3);
        let scan = scan_column_journal(&FsStorage::new(), &d, "price").unwrap();
        assert_eq!(scan.max_lsn, 3);
        assert_eq!(scan.segments.len(), 1);
        assert_eq!(scan.segments[0].base_generation, 3);
        assert_eq!(scan.segments[0].first_lsn, 1);
        assert_eq!(scan.segments[0].last_lsn, 3);
        assert!(!scan.segments[0].torn_tail);
        assert_eq!(
            scan.records,
            vec![
                WalRecord {
                    lsn: 1,
                    index: 0,
                    delta: 2
                },
                WalRecord {
                    lsn: 2,
                    index: 1,
                    delta: -1
                },
                WalRecord {
                    lsn: 3,
                    index: 2,
                    delta: 5
                },
            ]
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn rotation_splits_segments_and_the_chain_validates() {
        let d = tmp_dir("rotate");
        let cfg = WalConfig {
            segment_bytes: 1, // over budget after every record
            ..WalConfig::default()
        };
        let wal = ColumnWal::open(FsStorage::new(), &d, "c", 1, cfg).unwrap();
        for i in 0..5u64 {
            wal.append(i, 1).unwrap();
        }
        assert_eq!(wal.segment_count(), 5);
        let scan = scan_column_journal(&FsStorage::new(), &d, "c").unwrap();
        assert_eq!(scan.segments.len(), 5);
        assert_eq!(scan.records.len(), 5);
        for (i, s) in scan.segments.iter().enumerate() {
            assert_eq!(s.first_lsn, i as u64 + 1);
            assert_eq!(s.last_lsn, i as u64 + 1);
        }
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn empty_or_missing_journal_scans_clean() {
        let d = tmp_dir("empty");
        let scan = scan_column_journal(&FsStorage::new(), &d, "none").unwrap();
        assert!(scan.records.is_empty() && scan.segments.is_empty());
        assert_eq!(scan.max_lsn, 0);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn torn_final_record_is_truncated_and_flagged() {
        let d = tmp_dir("torntail");
        let s = FsStorage::new();
        let wal = ColumnWal::open(s.clone(), &d, "t", 1, WalConfig::default()).unwrap();
        wal.append(1, 10).unwrap();
        wal.append(2, 20).unwrap();
        // Power fails mid-append: a strict prefix of record 3 lands.
        let partial = &encode_record(3, 3, 30, false)[..11];
        s.append(&d.join(wal_file_name("t", 1)), partial, false)
            .unwrap();
        let scan = scan_column_journal(&s, &d, "t").unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.max_lsn, 2);
        assert!(scan.segments[0].torn_tail);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn torn_tail_on_a_non_final_segment_is_corrupt() {
        let d = tmp_dir("tornmid");
        let s = FsStorage::new();
        let cfg = WalConfig {
            segment_bytes: 1,
            ..WalConfig::default()
        };
        let wal = ColumnWal::open(s.clone(), &d, "t", 1, cfg).unwrap();
        wal.append(1, 1).unwrap();
        wal.append(2, 2).unwrap();
        s.append(&d.join(wal_file_name("t", 1)), b"stray", false)
            .unwrap();
        let err = scan_column_journal(&s, &d, "t").unwrap_err();
        assert!(
            matches!(err, SynopticError::CorruptJournal { .. }),
            "{err:?}"
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn bit_flip_mid_stream_is_corrupt_not_truncated() {
        let d = tmp_dir("bitflip");
        let s = FsStorage::new();
        let wal = ColumnWal::open(s.clone(), &d, "b", 1, WalConfig::default()).unwrap();
        wal.append(1, 1).unwrap();
        wal.append(2, 2).unwrap();
        let p = d.join(wal_file_name("b", 1));
        let mut bytes = std::fs::read(&p).unwrap();
        let flip = bytes.len() - WAL_RECORD_LEN - 10; // inside record 1
        bytes[flip] ^= 0x20;
        std::fs::write(&p, bytes).unwrap();
        let err = scan_column_journal(&s, &d, "b").unwrap_err();
        assert!(
            matches!(err, SynopticError::CorruptJournal { ref detail, .. } if detail.contains("CRC")),
            "{err:?}"
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn unreadable_final_segment_header_is_skipped_and_never_reused() {
        let d = tmp_dir("tornhead");
        let s = FsStorage::new();
        let cfg = WalConfig {
            segment_bytes: 1,
            ..WalConfig::default()
        };
        let wal = ColumnWal::open(s.clone(), &d, "h", 1, cfg).unwrap();
        wal.append(1, 1).unwrap();
        // Crash hits the very first append of segment 2: only a few header
        // bytes land.
        s.append(&d.join(wal_file_name("h", 2)), &WAL_MAGIC[..5], false)
            .unwrap();
        let scan = scan_column_journal(&s, &d, "h").unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.skipped, vec!["h-2.wal".to_string()]);
        // Reopening seals the wreck and appends into a fresh sequence. The
        // wreck is now mid-chain, but LSN continuity (1 then 2) proves it
        // never held an acknowledged record, so the scan still succeeds.
        let wal = ColumnWal::open(s.clone(), &d, "h", 1, cfg).unwrap();
        assert_eq!(wal.append(9, 9).unwrap(), 2);
        let scan = scan_column_journal(&s, &d, "h").unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.skipped, vec!["h-2.wal".to_string()]);
        // The first checkpoint reclaims the wreck along with covered
        // segments.
        wal.checkpoint(2, 2).unwrap();
        assert!(!s.exists(&d.join("h-2.wal")));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn checkpoint_deletes_covered_segments_and_restamps_generation() {
        let d = tmp_dir("checkpoint");
        let s = FsStorage::new();
        let cfg = WalConfig {
            segment_bytes: 1,
            ..WalConfig::default()
        };
        let wal = ColumnWal::open(s.clone(), &d, "k", 1, cfg).unwrap();
        for i in 1..=4u64 {
            wal.append(i, i as i64).unwrap();
        }
        // Snapshot covering LSNs 1..=3 committed as generation 2: the three
        // sealed segments go, the active one (LSN 4) stays.
        let removed = wal.checkpoint(3, 2).unwrap();
        assert_eq!(removed, 3);
        let scan = scan_column_journal(&s, &d, "k").unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].lsn, 4);
        // Covering everything removes the active segment too; the next
        // append opens a segment stamped with the new generation.
        let removed = wal.checkpoint(4, 3).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(wal.segment_count(), 0);
        wal.append(0, 1).unwrap();
        let scan = scan_column_journal(&s, &d, "k").unwrap();
        assert_eq!(scan.segments.len(), 1);
        assert_eq!(scan.segments[0].base_generation, 3);
        assert_eq!(scan.records[0].lsn, 5, "LSNs never restart");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn failed_checkpoint_delete_keeps_segment_for_retry() {
        let d = tmp_dir("ckptfail");
        let storage = Arc::new(FaultyStorage::new(FsStorage::new(), vec![]));
        let cfg = WalConfig {
            segment_bytes: 1,
            ..WalConfig::default()
        };
        let wal = ColumnWal::open(Arc::clone(&storage), &d, "r", 1, cfg).unwrap();
        wal.append(1, 1).unwrap();
        wal.append(2, 2).unwrap();
        storage.push_fault(Fault::CrashBeforeRename);
        assert!(wal.checkpoint(2, 2).is_err());
        // The stale segment survived and is still readable.
        let scan = scan_column_journal(&FsStorage::new(), &d, "r").unwrap();
        assert_eq!(scan.records.len(), 2);
        // The retry (no fault scheduled) reclaims both segments.
        assert_eq!(wal.checkpoint(2, 2).unwrap(), 2);
        assert_eq!(wal.segment_count(), 0);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn reopen_continues_lsns_without_touching_old_tails() {
        let d = tmp_dir("reopen");
        let s = FsStorage::new();
        {
            let wal = ColumnWal::open(s.clone(), &d, "c", 1, WalConfig::default()).unwrap();
            wal.append(5, 50).unwrap();
            wal.append(6, 60).unwrap();
        }
        let wal = ColumnWal::open(s.clone(), &d, "c", 1, WalConfig::default()).unwrap();
        assert_eq!(wal.pending_mark(), 2);
        assert_eq!(wal.append(7, 70).unwrap(), 3);
        let scan = scan_column_journal(&s, &d, "c").unwrap();
        assert_eq!(scan.segments.len(), 2, "old segment sealed, new one opened");
        assert_eq!(scan.max_lsn, 3);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn every_n_and_on_rotate_cadences_journal_identically() {
        for fsync in [FsyncCadence::EveryN(2), FsyncCadence::OnRotate] {
            let d = tmp_dir("cadence");
            let cfg = WalConfig {
                segment_bytes: 100,
                fsync,
                ..WalConfig::default()
            };
            let wal = ColumnWal::open(FsStorage::new(), &d, "f", 1, cfg).unwrap();
            for i in 0..7u64 {
                wal.append(i, 1).unwrap();
            }
            let scan = scan_column_journal(&FsStorage::new(), &d, "f").unwrap();
            assert_eq!(scan.records.len(), 7, "{fsync:?}");
            let _ = std::fs::remove_dir_all(&d);
        }
    }

    /// Records every `append` the WAL issues so tests can assert *when*
    /// syncs happen, not just that data survives.
    #[derive(Clone)]
    struct SyncSpy {
        inner: FsStorage,
        appends: Arc<Mutex<Vec<(String, usize, bool)>>>,
    }

    impl SyncSpy {
        fn new() -> Self {
            Self {
                inner: FsStorage::new(),
                appends: Arc::new(Mutex::new(Vec::new())),
            }
        }
    }

    impl Storage for SyncSpy {
        fn read(&self, path: &Path) -> Result<Vec<u8>> {
            self.inner.read(path)
        }
        fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<()> {
            self.inner.write_atomic(path, bytes)
        }
        fn append(&self, path: &Path, bytes: &[u8], sync: bool) -> Result<()> {
            self.appends.lock().unwrap().push((
                path.file_name().unwrap().to_string_lossy().into_owned(),
                bytes.len(),
                sync,
            ));
            self.inner.append(path, bytes, sync)
        }
        fn truncate(&self, path: &Path, len: u64) -> Result<()> {
            self.inner.truncate(path, len)
        }
        fn remove(&self, path: &Path) -> Result<()> {
            self.inner.remove(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> Result<()> {
            self.inner.rename(from, to)
        }
        fn list(&self, dir: &Path) -> Result<Vec<String>> {
            self.inner.list(dir)
        }
        fn create_dir_all(&self, dir: &Path) -> Result<()> {
            self.inner.create_dir_all(dir)
        }
        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }
    }

    #[test]
    fn seal_fsyncs_unsynced_records_under_every_n() {
        let d = tmp_dir("sealsync");
        let spy = SyncSpy::new();
        let cfg = WalConfig {
            // Two records fit before rotation; EveryN(100) never syncs on
            // its own, so both are unsynced when the segment seals.
            segment_bytes: 2 * WAL_RECORD_LEN,
            fsync: FsyncCadence::EveryN(100),
            ..WalConfig::default()
        };
        let wal = ColumnWal::open(spy.clone(), &d, "s", 1, cfg).unwrap();
        for i in 0..3u64 {
            wal.append(i, 1).unwrap();
        }
        let appends = spy.appends.lock().unwrap().clone();
        // Segment 1 receives two unsynced appends, then a zero-byte synced
        // flush at seal time, and only then does segment 2 open: the sealed
        // segment is durable before any later record can be.
        let seg1 = wal_file_name("s", 1);
        let seg2 = wal_file_name("s", 2);
        let seal_at = appends
            .iter()
            .position(|(f, len, sync)| f == &seg1 && *len == 0 && *sync)
            .expect("seal must fsync the sealed segment under EveryN");
        let open2 = appends
            .iter()
            .position(|(f, _, _)| f == &seg2)
            .expect("rotation opens segment 2");
        assert!(seal_at < open2, "{appends:?}");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn list_journal_columns_names_every_readable_journal() {
        let d = tmp_dir("listcols");
        let s = FsStorage::new();
        assert!(list_journal_columns(&s, &d).unwrap().is_empty());
        for col in ["beta", "alpha"] {
            let wal = ColumnWal::open(s.clone(), &d, col, 1, WalConfig::default()).unwrap();
            wal.append(0, 1).unwrap();
        }
        // A wreck whose header never landed names nothing: it was never
        // acknowledged.
        s.append(&d.join(wal_file_name("ghost", 1)), &WAL_MAGIC[..4], false)
            .unwrap();
        assert_eq!(list_journal_columns(&s, &d).unwrap(), vec!["alpha", "beta"]);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn future_format_version_is_refused_even_on_the_final_segment() {
        let d = tmp_dir("version");
        let s = FsStorage::new();
        std::fs::create_dir_all(&d).unwrap();
        // A CRC-valid header claiming the next, unknown version.
        let mut h = encode_header("v", 1, 1);
        h[8..10].copy_from_slice(&(WAL_VERSION + 1).to_le_bytes());
        let crc = crc32(&h[..h.len() - 4]);
        let at = h.len() - 4;
        h[at..].copy_from_slice(&crc.to_le_bytes());
        s.append(&d.join(wal_file_name("v", 1)), &h, false).unwrap();
        let err = scan_column_journal(&s, &d, "v").unwrap_err();
        assert!(
            matches!(
                err,
                SynopticError::UnsupportedVersion {
                    found,
                    supported: WAL_VERSION
                } if found == WAL_VERSION + 1
            ),
            "{err:?}"
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    /// Lists one extra segment that no longer exists, as a directory
    /// listing taken just before a checkpoint deleted the file would.
    struct VanishedListing(FsStorage);

    impl Storage for VanishedListing {
        fn read(&self, path: &Path) -> Result<Vec<u8>> {
            self.0.read(path)
        }
        fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<()> {
            self.0.write_atomic(path, bytes)
        }
        fn append(&self, path: &Path, bytes: &[u8], sync: bool) -> Result<()> {
            self.0.append(path, bytes, sync)
        }
        fn truncate(&self, path: &Path, len: u64) -> Result<()> {
            self.0.truncate(path, len)
        }
        fn remove(&self, path: &Path) -> Result<()> {
            self.0.remove(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> Result<()> {
            self.0.rename(from, to)
        }
        fn list(&self, dir: &Path) -> Result<Vec<String>> {
            let mut names = self.0.list(dir)?;
            names.push(wal_file_name("a", 99));
            Ok(names)
        }
        fn create_dir_all(&self, dir: &Path) -> Result<()> {
            self.0.create_dir_all(dir)
        }
        fn exists(&self, path: &Path) -> bool {
            self.0.exists(path)
        }
    }

    #[test]
    fn list_sealed_segments_orders_by_column_then_first_lsn() {
        let d = tmp_dir("listsegs");
        let s = FsStorage::new();
        let cfg = WalConfig {
            segment_bytes: 1,
            ..WalConfig::default()
        };
        for col in ["b", "a"] {
            let wal = ColumnWal::open(s.clone(), &d, col, 1, cfg).unwrap();
            for i in 0..3u64 {
                wal.append(i, 1).unwrap();
            }
        }
        // A wreck whose header never landed is not a shippable segment.
        s.append(&d.join(wal_file_name("a", 9)), &WAL_MAGIC[..5], false)
            .unwrap();
        // Nor is one a checkpoint deleted after the directory listing.
        let s = VanishedListing(s);
        let segs = list_sealed_segments(&s, &d).unwrap();
        assert_eq!(segs.len(), 6);
        let keys: Vec<(&str, u64)> = segs
            .iter()
            .map(|g| (g.column.as_str(), g.first_lsn))
            .collect();
        assert_eq!(
            keys,
            vec![("a", 1), ("a", 2), ("a", 3), ("b", 1), ("b", 2), ("b", 3)]
        );
        // The column walk is the same enumeration.
        assert_eq!(list_journal_columns(&s, &d).unwrap(), vec!["a", "b"]);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn decode_segment_round_trips_and_flags_torn_tails() {
        let d = tmp_dir("decode");
        let s = FsStorage::new();
        let wal = ColumnWal::open(s.clone(), &d, "price", 7, WalConfig::default()).unwrap();
        wal.append(3, -2).unwrap();
        wal.append(4, 9).unwrap();
        let bytes = s.read(&d.join(wal_file_name("price", 1))).unwrap();
        let seg = decode_segment(&bytes, "price-1.wal").unwrap();
        assert_eq!(seg.column, "price");
        assert_eq!(seg.base_generation, 7);
        assert_eq!((seg.first_lsn, seg.last_lsn), (1, 2));
        assert_eq!(seg.records.len(), 2);
        assert!(!seg.torn_tail);
        // A transfer cut mid-record decodes to the same prefix, flagged.
        let cut = &bytes[..bytes.len() - 5];
        let torn = decode_segment(cut, "price-1.wal").unwrap();
        assert_eq!(torn.records.len(), 1);
        assert!(torn.torn_tail);
        // A flipped record byte is corruption, not truncation.
        let mut flipped = bytes.clone();
        let at = flipped.len() - WAL_RECORD_LEN - 3;
        flipped[at] ^= 0x40;
        assert!(matches!(
            decode_segment(&flipped, "price-1.wal"),
            Err(SynopticError::CorruptJournal { .. })
        ));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn restamp_segment_generation_rewrites_header_in_place() {
        let d = tmp_dir("restamp");
        let s = FsStorage::new();
        let wal = ColumnWal::open(s.clone(), &d, "g", 12, WalConfig::default()).unwrap();
        wal.append(0, 1).unwrap();
        let mut bytes = s.read(&d.join(wal_file_name("g", 1))).unwrap();
        restamp_segment_generation(&mut bytes, "g-1.wal", 3).unwrap();
        let seg = decode_segment(&bytes, "g-1.wal").unwrap();
        assert_eq!(seg.base_generation, 3);
        assert_eq!(seg.records.len(), 1, "records untouched");
        // Corrupt headers refuse the restamp rather than writing blind.
        let mut junk = vec![0u8; 40];
        assert!(restamp_segment_generation(&mut junk, "x", 1).is_err());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn explicit_seal_fires_hook_and_rotates() {
        let d = tmp_dir("sealhook");
        let s = FsStorage::new();
        let sealed: Arc<Mutex<Vec<(String, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&sealed);
        let cfg = WalConfig {
            fsync: FsyncCadence::OnRotate,
            ..WalConfig::default()
        };
        let wal = ColumnWal::open(s.clone(), &d, "s", 1, cfg).unwrap();
        wal.set_seal_hook(Some(Box::new(move |path, last_lsn| {
            log.lock().unwrap().push((
                path.file_name().unwrap().to_string_lossy().into_owned(),
                last_lsn,
            ));
        })));
        wal.seal().unwrap(); // nothing active: no-op, no hook
        wal.append(0, 1).unwrap();
        wal.append(1, 1).unwrap();
        wal.seal().unwrap();
        assert_eq!(*sealed.lock().unwrap(), vec![(wal_file_name("s", 1), 2)]);
        // The next append opens a fresh segment chained at LSN 3.
        wal.append(2, 1).unwrap();
        let scan = scan_column_journal(&s, &d, "s").unwrap();
        assert_eq!(scan.segments.len(), 2);
        assert_eq!(scan.segments[1].first_lsn, 3);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn retention_holds_keep_covered_segments_until_acked() {
        let d = tmp_dir("retain");
        let s = FsStorage::new();
        let cfg = WalConfig {
            segment_bytes: 1,
            ..WalConfig::default()
        };
        let wal = ColumnWal::open(s.clone(), &d, "r", 1, cfg).unwrap();
        for i in 1..=4u64 {
            wal.append(i, 1).unwrap();
        }
        wal.set_retention_hold("f1", 1);
        // Snapshot covers 1..=3, but f1 only acked 1: segments 2 and 3
        // stay for the follower.
        let rep = wal.checkpoint_report(3, 2).unwrap();
        assert_eq!(rep.removed, 1);
        assert_eq!(rep.retained_for_followers, 2);
        assert!(rep.evicted.is_empty());
        let scan = scan_column_journal(&s, &d, "r").unwrap();
        assert_eq!(scan.records.first().unwrap().lsn, 2);
        // The follower catches up: the hold advances and the retained
        // segments go.
        wal.set_retention_hold("f1", 3);
        let rep = wal.checkpoint_report(3, 2).unwrap();
        assert_eq!(rep.removed, 2);
        assert_eq!(rep.retained_for_followers, 0);
        assert!(wal.remove_retention_hold("f1"));
        assert!(!wal.remove_retention_hold("f1"));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn retention_cap_evicts_most_lagging_follower_with_report() {
        let d = tmp_dir("retaincap");
        let s = FsStorage::new();
        let cfg = WalConfig {
            segment_bytes: 1,
            retain_cap_segments: Some(2),
            ..WalConfig::default()
        };
        let wal = ColumnWal::open(s.clone(), &d, "e", 1, cfg).unwrap();
        for i in 1..=6u64 {
            wal.append(i, 1).unwrap();
        }
        wal.set_retention_hold("slow", 0);
        wal.set_retention_hold("near", 4);
        // Snapshot covers 1..=6 (five sealed segments plus the active
        // one). "slow" would hold back all five sealed covered segments —
        // over the cap of 2 — so it is evicted, loudly. "near" holds back
        // only the sealed segment with LSN 5, which fits.
        let rep = wal.checkpoint_report(6, 2).unwrap();
        assert_eq!(rep.evicted, vec![("slow".to_string(), 0)]);
        assert_eq!(rep.retained_for_followers, 1);
        assert_eq!(rep.removed, 4);
        assert_eq!(wal.retention_holds(), vec![("near".to_string(), 4)]);
        let scan = scan_column_journal(&s, &d, "e").unwrap();
        assert_eq!(scan.records.first().unwrap().lsn, 5);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn retention_cap_counts_segments_sealed_past_the_snapshot() {
        // Regression: the eviction loop used to count only covered
        // segments (`last_lsn <= snapshot_lsn`), so a slow follower under
        // sustained ingest kept its hold while segments sealed *past* the
        // snapshot pushed the total retained backlog far over the cap.
        let d = tmp_dir("retaincap_past");
        let s = FsStorage::new();
        let cfg = WalConfig {
            segment_bytes: 1,
            retain_cap_segments: Some(3),
            ..WalConfig::default()
        };
        let wal = ColumnWal::open(s.clone(), &d, "p", 1, cfg).unwrap();
        for i in 1..=8u64 {
            wal.append(i, 1).unwrap();
        }
        // Sealed segments hold LSNs 1..=7; the active one holds 8. The
        // snapshot covers only 1..=2 — five sealed segments sit past it.
        wal.set_retention_hold("slow", 1);
        let rep = wal.checkpoint_report(2, 2).unwrap();
        // Only one *covered* segment (LSN 2) is pinned by the hold — under
        // the old count that was far below the cap and "slow" survived with
        // six segments of total backlog. The bounded count sees 6 > 3 and
        // evicts.
        assert_eq!(rep.evicted, vec![("slow".to_string(), 1)]);
        assert!(wal.retention_holds().is_empty());
        assert_eq!(rep.removed, 2); // LSNs 1 and 2, freed by the eviction
        assert_eq!(rep.retained_for_followers, 0);
        let scan = scan_column_journal(&s, &d, "p").unwrap();
        assert_eq!(scan.records.first().unwrap().lsn, 3);

        // A follower already at the snapshot pins nothing: even over cap,
        // it is never evicted (dropping it would free no segment).
        wal.set_retention_hold("current", 2);
        let rep = wal.checkpoint_report(2, 2).unwrap();
        assert!(rep.evicted.is_empty());
        assert_eq!(wal.retention_holds(), vec![("current".to_string(), 2)]);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn a_batch_is_one_append_with_one_end_mark() {
        let d = tmp_dir("batch");
        let spy = SyncSpy::new();
        let wal = ColumnWal::open(spy.clone(), &d, "b", 1, WalConfig::default()).unwrap();
        assert_eq!(wal.append_batch(&[]).unwrap(), 0, "empty: nothing appended");
        assert_eq!(wal.append_batch(&[(0, 1), (1, -2), (2, 3)]).unwrap(), 3);
        assert_eq!(wal.append(7, 4).unwrap(), 4);
        let appends = spy.appends.lock().unwrap().clone();
        assert_eq!(
            appends.len(),
            2,
            "one storage append per batch: {appends:?}"
        );
        let bytes = std::fs::read(d.join(wal_file_name("b", 1))).unwrap();
        let header = bytes.len() - 4 * WAL_RECORD_LEN;
        assert_eq!(u16_at(&bytes, 8), WAL_VERSION);
        let continues: Vec<bool> = (0..4)
            .map(|r| u32_at(&bytes, header + r * WAL_RECORD_LEN) & BATCH_CONTINUES != 0)
            .collect();
        assert_eq!(continues, vec![true, true, false, false]);
        let scan = scan_column_journal(&FsStorage::new(), &d, "b").unwrap();
        let got: Vec<(u64, u64, i64)> = scan
            .records
            .iter()
            .map(|r| (r.lsn, r.index, r.delta))
            .collect();
        assert_eq!(got, vec![(1, 0, 1), (2, 1, -2), (3, 2, 3), (4, 7, 4)]);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn a_batch_without_its_end_mark_is_dropped_whole() {
        let d = tmp_dir("tornbatch");
        let s = FsStorage::new();
        let wal = ColumnWal::open(s.clone(), &d, "t", 1, WalConfig::default()).unwrap();
        wal.append_batch(&[(0, 1), (1, 1)]).unwrap();
        let path = d.join(wal_file_name("t", 1));
        let whole = s.read(&path).unwrap();
        // Power fails mid-append of a three-record batch: its first two
        // records land whole, its last one (the end mark) does not.
        let mut torn = whole.clone();
        torn.extend_from_slice(&encode_record(3, 2, 5, true));
        torn.extend_from_slice(&encode_record(4, 3, 5, true));
        for tail in [0, 9] {
            let mut bytes = torn.clone();
            bytes.extend_from_slice(&encode_record(5, 4, 5, false)[..tail]);
            std::fs::write(&path, &bytes).unwrap();
            let scan = scan_column_journal(&s, &d, "t").unwrap();
            assert_eq!(scan.max_lsn, 2, "tail {tail}");
            assert_eq!(scan.records.len(), 2);
            assert!(scan.segments[0].torn_tail);
            let seg = decode_segment(&bytes, "t-1.wal").unwrap();
            assert!(seg.torn_tail);
            assert_eq!(
                seg.header_len + seg.records.len() * WAL_RECORD_LEN,
                whole.len()
            );
        }
        // The same open batch on a non-final segment is corruption.
        s.append(
            &d.join(wal_file_name("t", 2)),
            &encode_header("t", 1, 3),
            false,
        )
        .unwrap();
        let err = scan_column_journal(&s, &d, "t").unwrap_err();
        assert!(
            matches!(err, SynopticError::CorruptJournal { ref detail, .. } if detail.contains("end mark")),
            "{err:?}"
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    /// A version-1 segment as the format's first release wrote it: column
    /// "old", base generation 4, records (LSN 1, index 2, delta 5) and
    /// (LSN 2, index 0, delta -3).
    const V1_SEGMENT: [u8; 99] = [
        0x53, 0x59, 0x4e, 0x57, 0x41, 0x4c, 0x30, 0x31, 0x01, 0x00, 0x03, 0x00, 0x04, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x6f, 0x6c,
        0x64, 0x59, 0x0f, 0x27, 0x5b, //
        0x18, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf1, 0x00,
        0xe5, 0xd8, //
        0x18, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0xfd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xd6, 0x85,
        0xf8, 0x49,
    ];

    #[test]
    fn a_version_1_segment_still_replays() {
        let d = tmp_dir("v1");
        let s = FsStorage::new();
        std::fs::create_dir_all(&d).unwrap();
        s.append(&d.join(wal_file_name("old", 1)), &V1_SEGMENT, false)
            .unwrap();
        let expect = vec![
            WalRecord {
                lsn: 1,
                index: 2,
                delta: 5,
            },
            WalRecord {
                lsn: 2,
                index: 0,
                delta: -3,
            },
        ];
        let scan = scan_column_journal(&s, &d, "old").unwrap();
        assert_eq!(scan.records, expect);
        assert_eq!(scan.segments[0].base_generation, 4);
        assert!(!scan.segments[0].torn_tail);
        // Appending after it opens a version-2 segment; the mixed chain
        // scans as one.
        let wal = ColumnWal::open(s.clone(), &d, "old", 4, WalConfig::default()).unwrap();
        assert_eq!(wal.append_batch(&[(1, 1), (3, 1)]).unwrap(), 4);
        let scan = scan_column_journal(&s, &d, "old").unwrap();
        assert_eq!(scan.records[..2], expect[..]);
        assert_eq!(scan.max_lsn, 4);
        let v2 = s.read(&d.join(wal_file_name("old", 2))).unwrap();
        assert_eq!(u16_at(&v2, 8), 2);
        // Version 1 has no continuation bit: a record claiming one is
        // corrupt there, not an open batch.
        let mut flagged = V1_SEGMENT;
        flagged[38] |= 0x80;
        let crc = crc32(&flagged[35..63]);
        flagged[63..67].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_segment(&flagged, "old-1.wal"),
            Err(SynopticError::CorruptJournal { .. })
        ));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn every_n_bounds_unsynced_records_at_batch_granularity() {
        let d = tmp_dir("everyn_batch");
        let spy = SyncSpy::new();
        let cfg = WalConfig {
            fsync: FsyncCadence::EveryN(4),
            ..WalConfig::default()
        };
        let wal = ColumnWal::open(spy.clone(), &d, "n", 1, cfg).unwrap();
        // Unsynced counts: 3, then 3 + 3 >= 4 syncs, 1, then 1 + 5 syncs.
        for size in [3u64, 3, 1, 5] {
            let batch: Vec<(u64, i64)> = (0..size).map(|i| (i, 1)).collect();
            wal.append_batch(&batch).unwrap();
        }
        let syncs: Vec<bool> = spy.appends.lock().unwrap().iter().map(|a| a.2).collect();
        assert_eq!(syncs, vec![false, true, false, true]);
        let _ = std::fs::remove_dir_all(&d);
    }

    /// Lands every append's bytes, then fails the appends armed by
    /// `fail_appends` — a write followed by a failed fsync. With
    /// `fail_truncates` set, rollbacks fail as well.
    #[derive(Clone, Default)]
    struct FailAfterWrite {
        inner: FsStorage,
        fail_appends: Arc<AtomicBool>,
        fail_truncates: Arc<AtomicBool>,
    }

    impl Storage for FailAfterWrite {
        fn read(&self, path: &Path) -> Result<Vec<u8>> {
            self.inner.read(path)
        }
        fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<()> {
            self.inner.write_atomic(path, bytes)
        }
        fn append(&self, path: &Path, bytes: &[u8], sync: bool) -> Result<()> {
            self.inner.append(path, bytes, sync)?;
            if self.fail_appends.swap(false, Ordering::SeqCst) {
                return Err(SynopticError::Io {
                    path: path.display().to_string(),
                    detail: "fsync failed (injected)".into(),
                });
            }
            Ok(())
        }
        fn truncate(&self, path: &Path, len: u64) -> Result<()> {
            if self.fail_truncates.load(Ordering::SeqCst) {
                return Err(SynopticError::Io {
                    path: path.display().to_string(),
                    detail: "truncate failed (injected)".into(),
                });
            }
            self.inner.truncate(path, len)
        }
        fn remove(&self, path: &Path) -> Result<()> {
            self.inner.remove(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> Result<()> {
            self.inner.rename(from, to)
        }
        fn list(&self, dir: &Path) -> Result<Vec<String>> {
            self.inner.list(dir)
        }
        fn create_dir_all(&self, dir: &Path) -> Result<()> {
            self.inner.create_dir_all(dir)
        }
        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }
    }

    #[test]
    fn a_failed_append_is_rolled_back_and_its_lsns_reused() {
        let d = tmp_dir("rollback");
        let s = FailAfterWrite::default();
        let wal = ColumnWal::open(s.clone(), &d, "r", 1, WalConfig::default()).unwrap();
        // The failure hits a segment's creating append, then a later one.
        s.fail_appends.store(true, Ordering::SeqCst);
        assert!(wal.append(9, 90).is_err());
        assert_eq!(wal.append(1, 10).unwrap(), 1);
        s.fail_appends.store(true, Ordering::SeqCst);
        assert!(wal.append_batch(&[(8, 80), (8, 81)]).is_err());
        assert_eq!(wal.pending_mark(), 1);
        assert_eq!(wal.append_batch(&[(2, 20), (3, 30)]).unwrap(), 3);
        let scan = scan_column_journal(&FsStorage::new(), &d, "r").unwrap();
        let got: Vec<(u64, u64)> = scan.records.iter().map(|r| (r.lsn, r.index)).collect();
        assert_eq!(got, vec![(1, 1), (2, 2), (3, 3)]);
        assert_eq!(scan.segments.len(), 1);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn a_failed_rollback_refuses_every_later_append() {
        let d = tmp_dir("poison");
        let s = FailAfterWrite::default();
        let wal = ColumnWal::open(s.clone(), &d, "p", 1, WalConfig::default()).unwrap();
        wal.append(1, 10).unwrap();
        s.fail_appends.store(true, Ordering::SeqCst);
        s.fail_truncates.store(true, Ordering::SeqCst);
        let err = wal.append(2, 20).unwrap_err();
        s.fail_truncates.store(false, Ordering::SeqCst);
        assert_eq!(wal.append(3, 30).unwrap_err(), err);
        assert_eq!(wal.append_batch(&[(4, 40)]).unwrap_err(), err);
        assert_eq!(wal.seal().unwrap_err(), err);
        assert_eq!(wal.pending_mark(), 1);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn sanitized_name_collision_is_detected() {
        let d = tmp_dir("collide");
        let s = FsStorage::new();
        let wal = ColumnWal::open(s.clone(), &d, "a.b", 1, WalConfig::default()).unwrap();
        wal.append(0, 1).unwrap();
        // "a_b" sanitizes to the same file prefix but is a different column.
        let err = scan_column_journal(&s, &d, "a_b").unwrap_err();
        assert!(
            matches!(err, SynopticError::CorruptJournal { ref detail, .. } if detail.contains("collision")),
            "{err:?}"
        );
        assert!(scan_column_journal(&s, &d, "a.b").is_ok());
        let _ = std::fs::remove_dir_all(&d);
    }
}

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
//! padding: zero bytes (the active segment only)
//! ```
//!
//! All integers are little-endian, written and read through the shared
//! [`crate::codec`] (a decode failure there surfaces as
//! [`SynopticError::CorruptJournal`]). The header CRC covers every header
//! byte before it; a record CRC covers the length prefix and payload.
//! Records carry consecutive LSNs starting at the header's `first_lsn`, and
//! consecutive segments chain (`next.first_lsn = prev.last_lsn + 1`), so a
//! vanished middle segment is detectable. An LSN is never 0 and never
//! `u64::MAX`: every record's successor is a valid LSN, so no reader's
//! `last_lsn + 1` can wrap. `base_generation` is the catalog generation
//! that was committed when the segment was opened.
//!
//! ## Batches
//!
//! [`ColumnWal::append_batch`] journals a batch of records in one
//! [`Storage::write_at`]. Every record of a batch except the last sets bit
//! 31 of its length word (the *continuation bit*); the last record's clear
//! bit is the batch's end mark. A batch never spans segments. Writers stamp
//! header version 2; version 1 segments, written before batches existed,
//! never set the bit, so each of their records reads as a one-record batch.
//! Readers accept both versions.
//!
//! ## Padding
//!
//! A segment's first write carries its header, its first batch and zero
//! bytes up to [`WalConfig::segment_bytes`], in one [`Storage::write_at`].
//! Every later batch overwrites zeros at the segment's acknowledged
//! length, so a sync commits data into blocks the file already holds and
//! no file-size change (on the filesystem backend, `sync_data` rather than
//! a full `fsync`). A write that reaches past the file's end — a batch
//! that crosses the budget, or the first one after a rollback — pads the
//! file the same way. Sealing trims the padding with [`Storage::truncate`],
//! so a sealed, shipped segment is exactly its header and records.
//!
//! ## Durability and truncation
//!
//! Writes go through [`Storage::write_at`] with a sync cadence chosen by
//! [`FsyncCadence`], decided once per batch: `EveryN(n)` syncs a batch of
//! `k` records iff `since_sync + k >= n`, so at most `n - 1` acknowledged
//! records are ever unsynced. A failed write is rolled back to the
//! segment's acknowledged length with [`Storage::truncate`], so its LSNs
//! can be reused; if even the rollback fails, the journal refuses every
//! later append with the original error. Segments rotate once they reach
//! [`WalConfig::segment_bytes`]; a seal syncs anything unsynced (a write of
//! no bytes with `sync` set, an operation of its own) and then trims. After
//! a catalog generation commits with a WAL mark (see
//! [`crate::Catalog::set_wal_mark`]), [`ColumnWal::checkpoint`] deletes
//! every segment whose records are all covered by the mark — the only
//! place the journal ever deletes, and only data a committed snapshot
//! already holds. A failed delete is harmless: replay skips records at or
//! below the mark.
//!
//! ## Reading back
//!
//! Every reader goes through one chain scan, which lists the directory once
//! and reads each segment file once (a file a checkpoint deleted after the
//! listing counts as unlisted; one whose record stream reads corrupt is
//! read again, see below): [`scan_column_journal`] for one column's chain,
//! [`scan_journals`] for every column's. A scan returns one
//! [`JournalScan`] per column: each readable segment's metadata and its
//! validated prefix (the header and every whole batch), which is what a
//! replication shipper sends; recovery decodes the records from those
//! bytes ([`JournalScan::records`]). A column scan may start at a
//! sequence-number floor: the files below it are left out by name, unread,
//! and the chain is validated from the first file at or above it. A
//! shipper passes the newest segment an earlier pass found pending; every
//! other reader passes 0.
//!
//! The record stream ends at the first 32-byte slot that does not hold the
//! next record. What follows decides whether the segment ends cleanly, ends
//! in a torn tail, or is corrupt:
//!
//! 1. Only zero bytes, or nothing: a clean end (padding not yet written).
//! 2. Fewer bytes than one record, not all zero: a torn tail (a write cut
//!    short at the end of the file).
//! 3. A whole slot that does not hold a valid record (wrong declared
//!    length, CRC mismatch), whose last byte and every byte after it are
//!    zero: a torn tail. A write cut short inside the padding leaves a
//!    prefix of a record over zeros; a whole record with a bit flipped
//!    keeps its CRC word, whose last byte is non-zero 255 times in 256.
//! 4. Anything else is a hard [`SynopticError::CorruptJournal`]: a slot
//!    with non-zero bytes after it (such as a zeroed record, which declares
//!    payload length 0, inside a stream that continues), or a damaged slot
//!    whose last byte is non-zero (a damaged record, whether it ends the
//!    file or padding follows it).
//!
//! A CRC-valid record with an out-of-sequence LSN is always corrupt. A
//! torn tail is dropped together with any trailing batch that has no end
//! mark, so a batch replays whole or not at all.
//!
//! A reader racing a live writer can see a slot's old zeros, or part of a
//! slot, and a later slot's new bytes in one read, which rule 4 refuses.
//! The writer fills a segment front to back, so a second read shows that
//! slot written, while damage at rest reads the same twice. The walk
//! therefore reads a file whose record stream reads corrupt again, and
//! refuses it only when two reads in a row give the same verdict (at most
//! four reads). Trailing zeros cannot be told from padding: a final
//! segment whose last slots read as zeros ends early, as one whose last
//! writes were lost does.
//!
//! A chain scan validates the whole chain. A torn *tail* — the cases above,
//! or an unreadable header on the final segment (the crash hit the
//! segment's very first write) — is tolerated and truncated, because those
//! bytes were never acknowledged as durable. An unreadable header mid-chain
//! is forgiven only when the LSN chain runs unbroken across it. Everything
//! else (a corrupt record, a broken LSN chain, a torn tail on a non-final
//! segment) is a hard [`SynopticError::CorruptJournal`]: the journal cannot
//! be trusted and recovery must say so rather than guess.

use std::collections::BTreeMap;
use std::iter::Peekable;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use synoptic_core::{Result, SynopticError};

use crate::checksum::crc32;
use crate::codec::{ByteReader, ByteWriter};
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
    /// Rotate to a new segment once the active one reaches this many bytes;
    /// also the length its first write pads it to with zeros.
    pub segment_bytes: usize,
    /// Fsync cadence for appends.
    pub fsync: FsyncCadence,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 64 * 1024,
            fsync: FsyncCadence::EveryRecord,
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

/// Metadata of one readable segment file, as a chain scan found it.
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
    /// Length of the validated prefix: the header and every whole batch.
    /// A sealed segment's file is exactly this long.
    pub len: u64,
}

/// Everything a chain scan found of one column's journal.
#[derive(Debug, Clone, Default)]
pub struct JournalScan {
    /// Readable segments, ascending by sequence number, each with its
    /// validated prefix: the header and every whole batch, byte for byte.
    pub segments: Vec<(SegmentMeta, Vec<u8>)>,
    /// Segments skipped wholesale because their header never became
    /// readable (the crash hit the segment's very first append). Skipping
    /// is only allowed when the segment provably held no acknowledged
    /// records: it is the final segment, or the LSN chain runs unbroken
    /// from the segment before it to the segment after it.
    pub skipped: Vec<String>,
    /// Highest valid LSN seen (`0` when the journal is empty).
    pub max_lsn: u64,
}

impl JournalScan {
    /// All valid records across all segments, in LSN order, decoded from
    /// the validated prefixes: a segment's records are the last
    /// `last_lsn - first_lsn + 1` slots of its prefix.
    pub fn records(&self) -> Vec<WalRecord> {
        let field = |slot: &[u8], at: usize| {
            u64::from_le_bytes(slot[at..at + 8].try_into().expect("an 8-byte field"))
        };
        self.segments
            .iter()
            .flat_map(|(meta, bytes)| {
                let count = (meta.last_lsn + 1 - meta.first_lsn) as usize;
                bytes[bytes.len() - count * WAL_RECORD_LEN..].chunks_exact(WAL_RECORD_LEN)
            })
            .map(|slot| WalRecord {
                lsn: field(slot, 4),
                index: field(slot, 12),
                delta: field(slot, 20) as i64,
            })
            .collect()
    }
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

/// The file name of segment `seq` of `column`'s journal.
pub fn wal_file_name(column: &str, seq: u64) -> String {
    format!("{}-{seq}.{WAL_EXT}", sanitize_column(column))
}

/// Splits a segment file name into its sanitized column name and sequence
/// number. Sanitized names never contain `-`, so the split is unambiguous.
fn split_wal_name(name: &str) -> Option<(&str, u64)> {
    let (prefix, seq) = name.strip_suffix(&format!(".{WAL_EXT}"))?.split_once('-')?;
    Some((prefix, seq.parse().ok()?))
}

fn corrupt(file: &str, detail: impl Into<String>) -> SynopticError {
    SynopticError::CorruptJournal {
        context: file.to_string(),
        detail: detail.into(),
    }
}

/// Reports a [`ByteReader`] failure, which the codec raises as a corrupt
/// synopsis, as the journal damage it is; other errors pass through.
fn journal_error(e: SynopticError) -> SynopticError {
    match e {
        SynopticError::CorruptSynopsis { context, detail } => {
            SynopticError::CorruptJournal { context, detail }
        }
        e => e,
    }
}

fn encode_header(
    w: &mut ByteWriter,
    version: u16,
    column: &str,
    base_generation: u64,
    first_lsn: u64,
) {
    let start = w.offset();
    w.bytes(&WAL_MAGIC);
    w.u16(version);
    w.u16(column.len() as u16);
    w.u64(base_generation);
    w.u64(first_lsn);
    w.bytes(column.as_bytes());
    w.crc32_since(start);
}

fn encode_record(w: &mut ByteWriter, lsn: u64, index: u64, delta: i64, continues: bool) {
    let start = w.offset();
    w.u32(if continues {
        RECORD_PAYLOAD_LEN | BATCH_CONTINUES
    } else {
        RECORD_PAYLOAD_LEN
    });
    w.u64(lsn);
    w.u64(index);
    w.i64(delta);
    w.crc32_since(start);
}

struct ParsedHeader {
    version: u16,
    column: String,
    base_generation: u64,
    first_lsn: u64,
    /// Total header length including name and CRC.
    len: usize,
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
    let mut r = ByteReader::new(bytes, file);
    let mut read = || -> Result<ParsedHeader> {
        if r.bytes(WAL_MAGIC.len())? != WAL_MAGIC {
            return Err(corrupt(file, "bad magic"));
        }
        let version = r.u16()?;
        let name_len = usize::from(r.u16()?);
        let base_generation = r.u64()?;
        let first_lsn = r.u64()?;
        if bytes.len() < HEADER_FIXED_LEN + name_len + 4 {
            return Err(corrupt(
                file,
                "shorter than its declared header (torn at creation)",
            ));
        }
        let name = r.bytes(name_len)?;
        let covered = r.offset();
        if r.u32()? != crc32(&bytes[..covered]) {
            return Err(corrupt(file, "header CRC mismatch"));
        }
        // The CRC validated, so the version field is trustworthy.
        if version > WAL_VERSION {
            return Err(SynopticError::UnsupportedVersion {
                found: version,
                supported: WAL_VERSION,
            });
        }
        if first_lsn == 0 {
            return Err(corrupt(file, "first LSN is 0 (LSNs start at 1)"));
        }
        let column = std::str::from_utf8(name)
            .map_err(|_| corrupt(file, "column name is not UTF-8"))?
            .to_string();
        Ok(ParsedHeader {
            version,
            column,
            base_generation,
            first_lsn,
            len: r.offset(),
        })
    };
    read().map_err(journal_error)
}

/// The record stream after one segment header.
struct ParsedRecords {
    records: Vec<WalRecord>,
    /// LSN of the last record (`first_lsn - 1` when there is none).
    last_lsn: u64,
    /// Why a torn tail was truncated off, when one was.
    torn: Option<String>,
}

/// What one 32-byte record slot holds.
enum Slot {
    /// The record the stream expects next, and whether its batch continues.
    Record(WalRecord, bool),
    /// Bytes that do not make a record, and why.
    Damaged(String),
}

/// Decodes the slot at byte `at` of the record stream, which must hold LSN
/// `expect` (`None` past `u64`). `Err` is a CRC-valid record that is out of
/// sequence or leaves the LSN range: never the work of a torn write.
fn decode_slot(
    slot: &[u8],
    at: usize,
    expect: Option<u64>,
    version: u16,
    file: &str,
) -> Result<Slot> {
    let mut f = ByteReader::new(slot, file);
    let word = f.u32()?;
    // Version 1 predates batches: bit 31 there is damage, caught by the
    // length check below.
    let continues = version >= 2 && word & BATCH_CONTINUES != 0;
    let len = if continues {
        word & !BATCH_CONTINUES
    } else {
        word
    };
    if len != RECORD_PAYLOAD_LEN {
        return Ok(Slot::Damaged(format!(
            "record at byte {at} declares payload length {len}"
        )));
    }
    let (lsn, index, delta) = (f.u64()?, f.u64()?, f.i64()?);
    if f.u32()? != crc32(&slot[..WAL_RECORD_LEN - 4]) {
        return Ok(Slot::Damaged(format!("record CRC mismatch at byte {at}")));
    }
    // The record's successor must be a valid LSN too, so no `last_lsn + 1`
    // downstream can wrap.
    let expect = expect.filter(|&expect| expect < u64::MAX).ok_or_else(|| {
        corrupt(
            file,
            format!("record at byte {at} leaves the u64 LSN range"),
        )
    })?;
    if lsn != expect {
        return Err(corrupt(
            file,
            format!("LSN {lsn} where {expect} was expected"),
        ));
    }
    Ok(Slot::Record(WalRecord { lsn, index, delta }, continues))
}

/// Decodes the record stream following a segment header with the tail rule
/// in the module docs. `Err` means untrustworthy mid-stream bytes; `torn:
/// Some(detail)` means a torn tail was truncated off — always a whole
/// batch, so a batch is either fully in the returned records or absent.
fn parse_records(bytes: &[u8], first_lsn: u64, version: u16, file: &str) -> Result<ParsedRecords> {
    let mut records = Vec::with_capacity(bytes.len() / WAL_RECORD_LEN);
    // Records before this index belong to batches whose end mark was read.
    let mut complete = 0usize;
    let mut torn = None;
    let mut at = 0;
    while at < bytes.len() {
        let rest = &bytes[at..];
        let expect = first_lsn.checked_add(records.len() as u64);
        let slot = match rest.get(..WAL_RECORD_LEN) {
            Some(slot) => decode_slot(slot, at, expect, version, file).map_err(journal_error)?,
            None => Slot::Damaged(format!(
                "{} trailing bytes, less than one record",
                rest.len()
            )),
        };
        let detail = match slot {
            Slot::Record(record, continues) => {
                records.push(record);
                if !continues {
                    complete = records.len();
                }
                at += WAL_RECORD_LEN;
                continue;
            }
            _ if rest.iter().all(|&b| b == 0) => break,
            // A write cut short at the end of the file.
            Slot::Damaged(detail) if rest.len() < WAL_RECORD_LEN => detail,
            // A write cut short inside the padding: a prefix of a record,
            // then zeros from the slot's last byte on.
            Slot::Damaged(detail) if rest[WAL_RECORD_LEN - 1..].iter().all(|&b| b == 0) => detail,
            Slot::Damaged(detail) => return Err(corrupt(file, detail)),
        };
        torn = Some(detail);
        break;
    }
    let open = records.len() - complete;
    if open > 0 {
        // The write that carried this batch tore before its end mark
        // landed: none of the batch was acknowledged, so all of it goes.
        records.truncate(complete);
        let detail = format!("batch of {open} record(s) has no end mark");
        torn = Some(match torn {
            Some(bytes) => format!("{detail}, then {bytes}"),
            None => detail,
        });
    }
    // Every kept record's LSN is below `u64::MAX`, so `first_lsn +
    // records.len()` fits, and `first_lsn >= 1` keeps the difference at
    // or above 0.
    let last_lsn = first_lsn + records.len() as u64 - 1;
    Ok(ParsedRecords {
        records,
        last_lsn,
        torn,
    })
}

/// Most reads of one segment file whose record stream reads corrupt,
/// before the last verdict stands.
const CORRUPT_READS: usize = 4;

/// The record-stream error of a parsed segment file, when it has one.
fn record_error(parsed: &Result<(ParsedHeader, Result<ParsedRecords>)>) -> Option<&SynopticError> {
    parsed.as_ref().ok()?.1.as_ref().err()
}

/// One segment file as the walk read it.
struct WalFile {
    name: String,
    /// The sanitized column name the file name carries.
    prefix: String,
    seq: u64,
    bytes: Vec<u8>,
    /// The header, and the record stream behind it when the header is
    /// readable.
    parsed: Result<(ParsedHeader, Result<ParsedRecords>)>,
}

impl SegmentMeta {
    fn new(file: String, seq: u64, header: &ParsedHeader, records: &ParsedRecords) -> Self {
        Self {
            file,
            seq,
            base_generation: header.base_generation,
            first_lsn: header.first_lsn,
            last_lsn: records.last_lsn,
            torn_tail: records.torn.is_some(),
            len: (header.len + records.records.len() * WAL_RECORD_LEN) as u64,
        }
    }
}

/// The one directory walk behind every journal reader: lists `dir` once,
/// then yields, in journal and sequence order, each segment file of the
/// journal named `prefix` (a sanitized column name; every journal when
/// `None`) whose sequence number is at least `from_seq`. Both filters
/// apply to the file name, before any read. Each file is read once, when
/// it is yielded, and its header and records are parsed once, right after
/// the read; a file whose record stream reads corrupt is read and parsed
/// again until two reads agree (module docs). A file that vanished between
/// the listing and its read — a checkpoint deleted a covered segment —
/// counts as unlisted.
fn walk<'a, S: Storage>(
    storage: &'a S,
    dir: &'a Path,
    prefix: Option<&str>,
    from_seq: u64,
) -> Result<impl Iterator<Item = Result<WalFile>> + 'a> {
    let mut names: Vec<(String, u64, String)> = Vec::new();
    if storage.exists(dir) {
        for name in storage.list(dir)? {
            if let Some((file_prefix, seq)) = split_wal_name(&name) {
                if seq >= from_seq && prefix.is_none_or(|p| p == file_prefix) {
                    names.push((file_prefix.to_string(), seq, name));
                }
            }
        }
    }
    names.sort_unstable();
    Ok(names.into_iter().filter_map(move |(prefix, seq, name)| {
        let path = dir.join(&name);
        let read = || match storage.read(&path) {
            Ok(bytes) => Some(Ok(bytes)),
            Err(_) if !storage.exists(&path) => None,
            Err(e) => Some(Err(e)),
        };
        let parse = |bytes: &[u8]| {
            parse_header(bytes, &name).map(|h| {
                let records = parse_records(&bytes[h.len..], h.first_lsn, h.version, &name);
                (h, records)
            })
        };
        let mut bytes = match read()? {
            Ok(bytes) => bytes,
            Err(e) => return Some(Err(e)),
        };
        let mut parsed = parse(&bytes);
        // A record stream that reads corrupt may have raced a live writer
        // (module docs): read it again until two reads agree.
        for _ in 1..CORRUPT_READS {
            let Some(verdict) = record_error(&parsed) else {
                break;
            };
            let again = match read()? {
                Ok(bytes) => bytes,
                Err(e) => return Some(Err(e)),
            };
            let reparsed = parse(&again);
            let agreed = record_error(&reparsed) == Some(verdict);
            (bytes, parsed) = (again, reparsed);
            if agreed {
                break;
            }
        }
        Some(Ok(WalFile {
            name,
            prefix,
            seq,
            bytes,
            parsed,
        }))
    }))
}

/// Validates the chain of the journal `files` yields next, consuming its
/// files, with the rules in the module docs. Every readable header must
/// name `column`, or, when `None`, the column the first one names; that
/// column is returned with the scan (`None` when no header was readable).
fn scan_chain(
    column: Option<&str>,
    files: &mut Peekable<impl Iterator<Item = Result<WalFile>>>,
) -> Result<(Option<String>, JournalScan)> {
    let mut column = column.map(str::to_string);
    let mut prefix: Option<String> = None;
    let mut scan = JournalScan::default();
    // Unreadable-header segments seen since the last readable one. They are
    // forgiven only if the next readable segment proves (by LSN continuity)
    // that they never held an acknowledged record.
    let mut wrecks: Vec<(String, SynopticError)> = Vec::new();
    while let Some(f) = files.next_if(|next| match (next, &prefix) {
        (Ok(f), Some(p)) => f.prefix == *p,
        _ => true,
    }) {
        let f = f?;
        let prefix = prefix.get_or_insert_with(|| f.prefix.clone());
        let is_final = match files.peek() {
            Some(Ok(next)) => next.prefix != *prefix,
            Some(Err(_)) => false,
            None => true,
        };
        let (header, records) = match f.parsed {
            Ok(parsed) => parsed,
            Err(e @ SynopticError::UnsupportedVersion { .. }) => return Err(e),
            Err(e) => {
                if is_final {
                    // The crash hit this segment's very first append: no
                    // record in it was ever acknowledged as durable.
                    scan.skipped.push(f.name);
                    continue;
                }
                if scan.segments.is_empty() {
                    // No earlier readable segment to anchor a continuity
                    // proof: the wreck may hold real records. Refuse.
                    return Err(e);
                }
                wrecks.push((f.name, e));
                continue;
            }
        };
        // A header naming another column, or one its file name does not
        // belong to, means two names sanitized to the same file prefix.
        let column = column.get_or_insert_with(|| header.column.clone());
        if header.column != *column || sanitize_column(column) != *prefix {
            return Err(corrupt(
                &f.name,
                format!(
                    "segment belongs to column '{}' (sanitized file-name collision)",
                    header.column
                ),
            ));
        }
        if let Some((prev, _)) = scan.segments.last() {
            if prev.last_lsn.checked_add(1) != Some(header.first_lsn) {
                // A broken chain: either this segment is damaged, or one of
                // the unreadable segments between it and `prev` held real
                // records. Surface the wreck's own error when there is one.
                if let Some((_, e)) = wrecks.into_iter().next() {
                    return Err(e);
                }
                return Err(corrupt(
                    &f.name,
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
        scan.skipped.extend(wrecks.drain(..).map(|(name, _)| name));
        let records = records?;
        if let Some(detail) = &records.torn {
            if !is_final {
                return Err(corrupt(
                    &f.name,
                    format!("torn tail on a non-final segment: {detail}"),
                ));
            }
        }
        scan.max_lsn = scan.max_lsn.max(records.last_lsn);
        let meta = SegmentMeta::new(f.name, f.seq, &header, &records);
        let mut bytes = f.bytes;
        bytes.truncate(meta.len as usize);
        scan.segments.push((meta, bytes));
    }
    // Wrecks with no later readable segment to vouch for them (the journal
    // ended in the middle of them) stay unproven: refuse.
    if let Some((_, e)) = wrecks.into_iter().next() {
        return Err(e);
    }
    Ok((column, scan))
}

/// Reads and validates `column`'s journal under `dir`, from its segment
/// file numbered `from_seq` on (0 for the whole journal).
///
/// Tolerates exactly the damage an interrupted append can cause at the
/// journal's tail (see the module docs); everything else errors. Returns
/// each readable segment's metadata and validated prefix, so recovery can
/// check each contributing segment's `base_generation` against the
/// snapshot it replays onto and a shipper can send the bytes as read.
/// Files below `from_seq` are left out by name, unread; the chain is
/// validated from the first file at or above it.
pub fn scan_column_journal<S: Storage>(
    storage: &S,
    dir: &Path,
    column: &str,
    from_seq: u64,
) -> Result<JournalScan> {
    let mut files = walk(storage, dir, Some(&sanitize_column(column)), from_seq)?.peekable();
    Ok(scan_chain(Some(column), &mut files)?.1)
}

/// Reads and validates every journal under `dir` in one walk, each exactly
/// as [`scan_column_journal`] validates its column's, keyed by the column
/// its first readable header names. A journal with no readable header
/// names no column and is left out once its chain checks out: nothing in
/// it was acknowledged.
pub fn scan_journals<S: Storage>(storage: &S, dir: &Path) -> Result<BTreeMap<String, JournalScan>> {
    let mut files = walk(storage, dir, None, 0)?.peekable();
    let mut journals = BTreeMap::new();
    while files.peek().is_some() {
        if let (Some(column), scan) = scan_chain(None, &mut files)? {
            journals.insert(column, scan);
        }
    }
    Ok(journals)
}

/// Decodes one whole segment file as shipped over a replication transport:
/// header plus record stream, CRC- and LSN-chain-validated exactly like
/// [`scan_column_journal`] validates it on disk, with the same tail rule
/// (module docs). A torn final batch is truncated off whole and flagged
/// (`torn_tail`) rather than refused: over a transport that means an
/// incomplete transfer the sender will retry, and on disk it means a torn
/// final write.
pub fn decode_segment(bytes: &[u8], file: &str) -> Result<DecodedSegment> {
    let header = parse_header(bytes, file)?;
    let parsed = parse_records(&bytes[header.len..], header.first_lsn, header.version, file)?;
    Ok(DecodedSegment {
        header_len: header.len,
        column: header.column,
        base_generation: header.base_generation,
        first_lsn: header.first_lsn,
        last_lsn: parsed.last_lsn,
        records: parsed.records,
        torn_tail: parsed.torn.is_some(),
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
    let h = parse_header(bytes, file)?;
    let mut w = ByteWriter::with_capacity(h.len);
    encode_header(&mut w, h.version, &h.column, generation, h.first_lsn);
    bytes[..h.len].copy_from_slice(&w.into_bytes());
    Ok(())
}

struct ActiveSegment {
    path: PathBuf,
    /// Acknowledged length: the header and every whole batch written.
    bytes: usize,
    /// Bytes the file holds, its zero padding included.
    file_len: usize,
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
/// segments: it trims the final one to its last whole batch (dropping its
/// padding and any torn tail), seals them all as found, and starts a fresh
/// segment on the first append.
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
    /// must scan cleanly — run recovery first when in doubt. The final
    /// segment is trimmed to its validated prefix before it is sealed: a
    /// torn tail left on it would become a torn tail on a non-final segment
    /// once the next append opens a segment after it, which every later scan
    /// refuses.
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
        let scan = scan_column_journal(&storage, &dir, column, 0)?;
        if let Some((last, _)) = scan.segments.last() {
            storage.truncate(&dir.join(&last.file), last.len)?;
        }
        // Never reuse a sequence number, including one whose header never
        // became readable — appending to that file would bury live records
        // behind garbage. The scan accounts for every file of the column.
        let next_seq = scan
            .segments
            .iter()
            .map(|(s, _)| s.seq)
            .chain(
                scan.skipped
                    .iter()
                    .filter_map(|n| Some(split_wal_name(n)?.1)),
            )
            .max()
            .map_or(1, |s| s + 1);
        let mut sealed: Vec<SealedSegment> = scan
            .segments
            .iter()
            .map(|(s, _)| SealedSegment {
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

    /// Seals the active segment: syncs it whenever any record in it is
    /// still unsynced (`EveryN` between sync points as well as `OnRotate`),
    /// trims its zero padding, then moves it to the sealed list — a sealed
    /// segment must be fully durable before the next segment starts
    /// receiving synced records, or a crash would tear a *non-final*
    /// segment, which recovery rightly treats as hard corruption. On a
    /// failed sync or trim the segment stays active so a later append
    /// retries the seal.
    fn seal_active(&self, st: &mut WalState) -> Result<()> {
        let Some(a) = st.active.take() else {
            return Ok(());
        };
        if st.since_sync > 0 {
            if let Err(e) = self.storage.write_at(&a.path, a.bytes as u64, &[], true) {
                st.active = Some(a);
                return Err(e);
            }
            st.since_sync = 0;
        }
        if a.file_len > a.bytes {
            if let Err(e) = self.storage.truncate(&a.path, a.bytes as u64) {
                st.active = Some(a);
                return Err(e);
            }
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
    /// journal. Retention is unbounded while a hold lags.
    pub fn set_retention_hold(&self, name: &str, acked_lsn: u64) {
        self.holds
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), acked_lsn);
    }

    /// Journals one update and returns its LSN: a one-record
    /// [`Self::append_batch`].
    pub fn append(&self, index: u64, delta: i64) -> Result<u64> {
        self.append_batch(&[(index, delta)])
    }

    /// Journals a batch of `(index, delta)` updates in one storage write
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
        if st.next_lsn.checked_add(k).is_none() {
            // The last record's successor would leave the LSN range, which
            // every reader refuses.
            return Err(SynopticError::Overflow);
        }
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
        let records_len = batch.len() * WAL_RECORD_LEN;
        let (path, acked, file_len, mut w) = match &st.active {
            Some(a) => (
                a.path.clone(),
                a.bytes,
                a.file_len,
                ByteWriter::with_capacity(records_len),
            ),
            // First batch of a new segment: header, records and padding go
            // out in one write, so a tear at any byte is a torn creation or
            // a torn tail — never a half-header with a live record stranded
            // behind it.
            None => {
                let written = HEADER_FIXED_LEN + self.column.len() + 4 + records_len;
                let mut w = ByteWriter::with_capacity(written.max(self.config.segment_bytes));
                encode_header(&mut w, WAL_VERSION, &self.column, st.generation, first);
                (
                    self.dir.join(wal_file_name(&self.column, st.next_seq)),
                    0,
                    0,
                    w,
                )
            }
        };
        for (j, &(index, delta)) in batch.iter().enumerate() {
            let lsn = first + j as u64;
            encode_record(&mut w, lsn, index, delta, j + 1 < batch.len());
        }
        let mut buf = w.into_bytes();
        let written = buf.len();
        // A write that reaches past the file's end pads it with zeros up to
        // the segment budget, so the batches after it overwrite blocks the
        // file already holds.
        if acked + written > file_len {
            buf.resize(
                self.config.segment_bytes.saturating_sub(acked).max(written),
                0,
            );
        }
        if let Err(e) = self.storage.write_at(&path, acked as u64, &buf, sync) {
            // Some of the bytes may have landed (a short write, or a write
            // followed by a failed sync). Cut them off so the next append
            // can reuse these LSNs; if that fails too, the tail cannot be
            // trusted and the journal stops accepting appends.
            match self.storage.truncate(&path, acked as u64) {
                Ok(()) => {
                    if let Some(a) = st.active.as_mut() {
                        a.file_len = acked;
                    }
                }
                Err(_) => st.poisoned = Some(e.clone()),
            }
            return Err(e);
        }
        if st.active.is_none() {
            st.next_seq += 1;
        }
        st.active = Some(ActiveSegment {
            path,
            bytes: acked + written,
            file_len: file_len.max(acked + buf.len()),
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
    /// Truncation honours follower holds ([`Self::set_retention_hold`]):
    /// a segment is deleted only when its records are covered by the
    /// snapshot *and* acknowledged by every registered follower.
    pub fn checkpoint(&self, snapshot_lsn: u64, generation: u64) -> Result<usize> {
        let floor = self
            .holds
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .fold(snapshot_lsn, |f, &h| f.min(h));
        let mut st = self.lock();
        st.generation = generation;
        let mut removed = 0;
        let mut failure = None;
        let sealed = std::mem::take(&mut st.sealed);
        let mut keep = Vec::new();
        for s in sealed {
            if failure.is_none() && s.last_lsn <= floor {
                match self.storage.remove(&s.path) {
                    Ok(()) => removed += 1,
                    Err(e) => {
                        failure = Some(e);
                        keep.push(s);
                    }
                }
            } else {
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
                    removed += 1;
                }
                Err(e) => failure = Some(e),
            }
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(removed),
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

    fn header(column: &str, base_generation: u64, first_lsn: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode_header(&mut w, WAL_VERSION, column, base_generation, first_lsn);
        w.into_bytes()
    }

    fn record(lsn: u64, index: u64, delta: i64, continues: bool) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode_record(&mut w, lsn, index, delta, continues);
        w.into_bytes()
    }

    fn u16_le(bytes: &[u8], at: usize) -> u16 {
        u16::from_le_bytes([bytes[at], bytes[at + 1]])
    }

    /// Writes `bytes` where the next batch of the segment at `path` would
    /// land: right after its validated prefix (inside an active segment's
    /// padding), or at byte 0 of a file with no readable header. A fresh
    /// backend writes them, as the crashed writer's own handle is gone.
    fn write_next(path: &Path, bytes: &[u8]) {
        let s = FsStorage::new();
        let at = s
            .read(path)
            .ok()
            .and_then(|b| decode_segment(&b, "next").ok())
            .map_or(0, |seg| seg.header_len + seg.records.len() * WAL_RECORD_LEN);
        s.write_at(path, at as u64, bytes, false).unwrap();
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
        let scan = scan_column_journal(&FsStorage::new(), &d, "price", 0).unwrap();
        assert_eq!(scan.max_lsn, 3);
        assert_eq!(scan.segments.len(), 1);
        assert_eq!(scan.segments[0].0.base_generation, 3);
        assert_eq!(scan.segments[0].0.first_lsn, 1);
        assert_eq!(scan.segments[0].0.last_lsn, 3);
        assert!(!scan.segments[0].0.torn_tail);
        assert_eq!(
            scan.records(),
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
        let scan = scan_column_journal(&FsStorage::new(), &d, "c", 0).unwrap();
        assert_eq!(scan.segments.len(), 5);
        assert_eq!(scan.records().len(), 5);
        for (i, (s, _)) in scan.segments.iter().enumerate() {
            assert_eq!(s.first_lsn, i as u64 + 1);
            assert_eq!(s.last_lsn, i as u64 + 1);
        }
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn empty_or_missing_journal_scans_clean() {
        let d = tmp_dir("empty");
        let scan = scan_column_journal(&FsStorage::new(), &d, "none", 0).unwrap();
        assert!(scan.records().is_empty() && scan.segments.is_empty());
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
        let partial = &record(3, 3, 30, false)[..11];
        write_next(&d.join(wal_file_name("t", 1)), partial);
        let scan = scan_column_journal(&s, &d, "t", 0).unwrap();
        assert_eq!(scan.records().len(), 2);
        assert_eq!(scan.max_lsn, 2);
        assert!(scan.segments[0].0.torn_tail);
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
        write_next(&d.join(wal_file_name("t", 1)), b"stray");
        let err = scan_column_journal(&s, &d, "t", 0).unwrap_err();
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
        wal.seal().unwrap(); // trims the padding: the file ends at record 2
        let p = d.join(wal_file_name("b", 1));
        let mut bytes = std::fs::read(&p).unwrap();
        let flip = bytes.len() - WAL_RECORD_LEN - 10; // inside record 1
        bytes[flip] ^= 0x20;
        std::fs::write(&p, bytes).unwrap();
        let err = scan_column_journal(&s, &d, "b", 0).unwrap_err();
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
        write_next(&d.join(wal_file_name("h", 2)), &WAL_MAGIC[..5]);
        let scan = scan_column_journal(&s, &d, "h", 0).unwrap();
        assert_eq!(scan.records().len(), 1);
        assert_eq!(scan.skipped, vec!["h-2.wal".to_string()]);
        // Reopening seals the wreck and appends into a fresh sequence. The
        // wreck is now mid-chain, but LSN continuity (1 then 2) proves it
        // never held an acknowledged record, so the scan still succeeds.
        let wal = ColumnWal::open(s.clone(), &d, "h", 1, cfg).unwrap();
        assert_eq!(wal.append(9, 9).unwrap(), 2);
        let scan = scan_column_journal(&s, &d, "h", 0).unwrap();
        assert_eq!(scan.records().len(), 2);
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
        let scan = scan_column_journal(&s, &d, "k", 0).unwrap();
        assert_eq!(scan.records().len(), 1);
        assert_eq!(scan.records()[0].lsn, 4);
        // Covering everything removes the active segment too; the next
        // append opens a segment stamped with the new generation.
        let removed = wal.checkpoint(4, 3).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(wal.segment_count(), 0);
        wal.append(0, 1).unwrap();
        let scan = scan_column_journal(&s, &d, "k", 0).unwrap();
        assert_eq!(scan.segments.len(), 1);
        assert_eq!(scan.segments[0].0.base_generation, 3);
        assert_eq!(scan.records()[0].lsn, 5, "LSNs never restart");
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
        let scan = scan_column_journal(&FsStorage::new(), &d, "r", 0).unwrap();
        assert_eq!(scan.records().len(), 2);
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
        let scan = scan_column_journal(&s, &d, "c", 0).unwrap();
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
            };
            let wal = ColumnWal::open(FsStorage::new(), &d, "f", 1, cfg).unwrap();
            for i in 0..7u64 {
                wal.append(i, 1).unwrap();
            }
            let scan = scan_column_journal(&FsStorage::new(), &d, "f", 0).unwrap();
            assert_eq!(scan.records().len(), 7, "{fsync:?}");
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
        fn write_at(&self, path: &Path, offset: u64, bytes: &[u8], sync: bool) -> Result<()> {
            self.appends.lock().unwrap().push((
                path.file_name().unwrap().to_string_lossy().into_owned(),
                bytes.len(),
                sync,
            ));
            self.inner.write_at(path, offset, bytes, sync)
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
    fn scan_journals_names_every_readable_journal() {
        let d = tmp_dir("listcols");
        let s = FsStorage::new();
        assert!(scan_journals(&s, &d).unwrap().is_empty());
        for col in ["beta", "alpha"] {
            let wal = ColumnWal::open(s.clone(), &d, col, 1, WalConfig::default()).unwrap();
            wal.append(0, 1).unwrap();
        }
        // A wreck whose header never landed names nothing: it was never
        // acknowledged.
        write_next(&d.join(wal_file_name("ghost", 1)), &WAL_MAGIC[..4]);
        let journals = scan_journals(&s, &d).unwrap();
        assert_eq!(journals.keys().collect::<Vec<_>>(), vec!["alpha", "beta"]);
        // A second wreck leaves the first unanchored: refused, exactly as
        // scanning that column by name refuses it.
        write_next(&d.join(wal_file_name("ghost", 2)), &WAL_MAGIC[..4]);
        let err = scan_journals(&s, &d).unwrap_err();
        assert_eq!(err, scan_column_journal(&s, &d, "ghost", 0).unwrap_err());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn future_format_version_is_refused_even_on_the_final_segment() {
        let d = tmp_dir("version");
        let s = FsStorage::new();
        std::fs::create_dir_all(&d).unwrap();
        // A CRC-valid header claiming the next, unknown version.
        let mut h = header("v", 1, 1);
        h[8..10].copy_from_slice(&(WAL_VERSION + 1).to_le_bytes());
        let crc = crc32(&h[..h.len() - 4]);
        let at = h.len() - 4;
        h[at..].copy_from_slice(&crc.to_le_bytes());
        write_next(&d.join(wal_file_name("v", 1)), &h);
        let err = scan_column_journal(&s, &d, "v", 0).unwrap_err();
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
        fn write_at(&self, path: &Path, offset: u64, bytes: &[u8], sync: bool) -> Result<()> {
            self.0.write_at(path, offset, bytes, sync)
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
    fn every_reader_orders_segments_by_column_then_first_lsn() {
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
        write_next(&d.join(wal_file_name("a", 9)), &WAL_MAGIC[..5]);
        // Nor is one a checkpoint deleted after the directory listing.
        let s = VanishedListing(s);
        let journals = scan_journals(&s, &d).unwrap();
        let keys: Vec<(&str, u64)> = journals
            .iter()
            .flat_map(|(c, scan)| {
                scan.segments
                    .iter()
                    .map(move |(g, _)| (c.as_str(), g.first_lsn))
            })
            .collect();
        assert_eq!(
            keys,
            vec![("a", 1), ("a", 2), ("a", 3), ("b", 1), ("b", 2), ("b", 3)]
        );
        assert_eq!(journals["a"].skipped, vec![wal_file_name("a", 9)]);
        // One column's scan: its own readable segments,
        // each clipped to its validated prefix.
        let shipped = scan_column_journal(&s, &d, "a", 0).unwrap().segments;
        let seqs: Vec<(u64, u64)> = shipped.iter().map(|(m, _)| (m.seq, m.last_lsn)).collect();
        assert_eq!(seqs, vec![(1, 1), (2, 2), (3, 3)]);
        for (meta, bytes) in &shipped {
            assert_eq!(bytes, &s.read(&d.join(&meta.file)).unwrap());
        }
        // A sequence-number floor leaves the files below it out.
        let floored = scan_column_journal(&s, &d, "a", 2).unwrap().segments;
        let seqs: Vec<u64> = floored.iter().map(|(m, _)| m.seq).collect();
        assert_eq!(seqs, vec![2, 3]);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn decode_segment_round_trips_and_flags_torn_tails() {
        let d = tmp_dir("decode");
        let s = FsStorage::new();
        let wal = ColumnWal::open(s.clone(), &d, "price", 7, WalConfig::default()).unwrap();
        wal.append(3, -2).unwrap();
        wal.append(4, 9).unwrap();
        wal.seal().unwrap(); // trims the padding, as a shipped segment is
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
        let scan = scan_column_journal(&s, &d, "s", 0).unwrap();
        assert_eq!(scan.segments.len(), 2);
        assert_eq!(scan.segments[1].0.first_lsn, 3);
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
        assert_eq!(wal.checkpoint(3, 2).unwrap(), 1);
        let scan = scan_column_journal(&s, &d, "r", 0).unwrap();
        assert_eq!(scan.records().first().unwrap().lsn, 2);
        // The follower catches up: the hold advances and the retained
        // segments go.
        wal.set_retention_hold("f1", 3);
        assert_eq!(wal.checkpoint(3, 2).unwrap(), 2);
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
        wal.seal().unwrap(); // trims the padding: the file ends at record 4
        let bytes = std::fs::read(d.join(wal_file_name("b", 1))).unwrap();
        let header = bytes.len() - 4 * WAL_RECORD_LEN;
        assert_eq!(u16_le(&bytes, 8), WAL_VERSION);
        let continues: Vec<bool> = (0..4)
            .map(|r| {
                let at = header + r * WAL_RECORD_LEN;
                u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) & BATCH_CONTINUES != 0
            })
            .collect();
        assert_eq!(continues, vec![true, true, false, false]);
        let scan = scan_column_journal(&FsStorage::new(), &d, "b", 0).unwrap();
        let got: Vec<(u64, u64, i64)> = scan
            .records()
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
        wal.seal().unwrap(); // trims the padding: the file ends at the batch
        let path = d.join(wal_file_name("t", 1));
        let whole = s.read(&path).unwrap();
        // Power fails mid-append of a three-record batch: its first two
        // records land whole, its last one (the end mark) does not.
        let mut torn = whole.clone();
        torn.extend_from_slice(&record(3, 2, 5, true));
        torn.extend_from_slice(&record(4, 3, 5, true));
        for tail in [0, 9] {
            let mut bytes = torn.clone();
            bytes.extend_from_slice(&record(5, 4, 5, false)[..tail]);
            std::fs::write(&path, &bytes).unwrap();
            let scan = scan_column_journal(&s, &d, "t", 0).unwrap();
            assert_eq!(scan.max_lsn, 2, "tail {tail}");
            assert_eq!(scan.records().len(), 2);
            assert!(scan.segments[0].0.torn_tail);
            let seg = decode_segment(&bytes, "t-1.wal").unwrap();
            assert!(seg.torn_tail);
            assert_eq!(
                seg.header_len + seg.records.len() * WAL_RECORD_LEN,
                whole.len()
            );
        }
        // The same open batch on a non-final segment is corruption.
        write_next(&d.join(wal_file_name("t", 2)), &header("t", 1, 3));
        let err = scan_column_journal(&s, &d, "t", 0).unwrap_err();
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
        write_next(&d.join(wal_file_name("old", 1)), &V1_SEGMENT);
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
        let scan = scan_column_journal(&s, &d, "old", 0).unwrap();
        assert_eq!(scan.records(), expect);
        assert_eq!(scan.segments[0].0.base_generation, 4);
        assert!(!scan.segments[0].0.torn_tail);
        // Appending after it opens a version-2 segment; the mixed chain
        // scans as one.
        let wal = ColumnWal::open(s.clone(), &d, "old", 4, WalConfig::default()).unwrap();
        assert_eq!(wal.append_batch(&[(1, 1), (3, 1)]).unwrap(), 4);
        let scan = scan_column_journal(&s, &d, "old", 0).unwrap();
        assert_eq!(scan.records()[..2], expect[..]);
        assert_eq!(scan.max_lsn, 4);
        let v2 = s.read(&d.join(wal_file_name("old", 2))).unwrap();
        assert_eq!(u16_le(&v2, 8), 2);
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

    /// A version-2 segment as the format writes it: column "price", base
    /// generation 1, the three-record batch (3, 5), (0, -2), (63, 7) with
    /// continuation bits on its first two records, then the one-record
    /// batch (9, 1).
    const V2_SEGMENT_HEX: &str = concat!(
        "53594e57414c30310200050001000000000000000100000000000000",
        "707269636547efbdc6",
        "18000080010000000000000003000000000000000500000000000000d3a0a7db",
        "1800008002000000000000000000000000000000feffffffffffffff86b35d6a",
        "1800000003000000000000003f00000000000000070000000000000039cca9bb",
        "18000000040000000000000009000000000000000100000000000000cede57ee",
    );

    #[test]
    fn a_version_2_segment_encodes_and_decodes_byte_for_byte() {
        let d = tmp_dir("golden");
        let s = FsStorage::new();
        let wal = ColumnWal::open(s.clone(), &d, "price", 1, WalConfig::default()).unwrap();
        wal.append_batch(&[(3, 5), (0, -2), (63, 7)]).unwrap();
        wal.append_batch(&[(9, 1)]).unwrap();
        wal.seal().unwrap();
        let bytes = s.read(&d.join(wal_file_name("price", 1))).unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, V2_SEGMENT_HEX);
        let seg = decode_segment(&bytes, "price-1.wal").unwrap();
        assert_eq!(seg.column, "price");
        assert_eq!(
            (seg.base_generation, seg.first_lsn, seg.last_lsn),
            (1, 1, 4)
        );
        assert!(!seg.torn_tail);
        let got: Vec<(u64, u64, i64)> = seg
            .records
            .iter()
            .map(|r| (r.lsn, r.index, r.delta))
            .collect();
        assert_eq!(got, vec![(1, 3, 5), (2, 0, -2), (3, 63, 7), (4, 9, 1)]);
        // Restamping to the generation already stamped changes no byte.
        let mut same = bytes.clone();
        restamp_segment_generation(&mut same, "price-1.wal", 1).unwrap();
        assert_eq!(same, bytes);
        let _ = std::fs::remove_dir_all(&d);
    }

    /// A CRC-valid segment of column "x" whose header starts at
    /// `first_lsn` and whose one-record batches carry `lsns`.
    fn hand_built(first_lsn: u64, lsns: &[u64]) -> Vec<u8> {
        let mut bytes = header("x", 1, first_lsn);
        for &lsn in lsns {
            bytes.extend_from_slice(&record(lsn, 0, 1, false));
        }
        bytes
    }

    #[test]
    fn lsns_that_leave_u64_are_refused_not_wrapped() {
        let d = tmp_dir("lsnwrap");
        let s = FsStorage::new();
        s.create_dir_all(&d).unwrap();
        let path = d.join(wal_file_name("x", 1));
        for (first, lsns) in [
            (u64::MAX, vec![u64::MAX]),
            (u64::MAX, vec![u64::MAX, 0]),
            (u64::MAX - 1, vec![u64::MAX - 1, u64::MAX]),
        ] {
            let bytes = hand_built(first, &lsns);
            let refused = |r: Result<()>| {
                let err = r.unwrap_err();
                assert!(
                    matches!(err, SynopticError::CorruptJournal { ref detail, .. } if detail.contains("u64")),
                    "first {first}, lsns {lsns:?}: {err:?}"
                );
            };
            refused(decode_segment(&bytes, "x-1.wal").map(drop));
            std::fs::write(&path, &bytes).unwrap();
            refused(scan_column_journal(&s, &d, "x", 0).map(drop));
            refused(scan_journals(&s, &d).map(drop));
        }
        // The highest LSN a record may carry is u64::MAX - 1; a journal
        // that holds it refuses further appends rather than writing a
        // record its readers would refuse.
        let bytes = hand_built(u64::MAX - 1, &[u64::MAX - 1]);
        assert_eq!(
            decode_segment(&bytes, "x-1.wal").unwrap().last_lsn,
            u64::MAX - 1
        );
        std::fs::write(&path, &bytes).unwrap();
        let wal = ColumnWal::open(s.clone(), &d, "x", 1, WalConfig::default()).unwrap();
        assert_eq!(wal.pending_mark(), u64::MAX - 1);
        assert_eq!(wal.append(0, 1).unwrap_err(), SynopticError::Overflow);
        assert_eq!(wal.segment_count(), 1, "nothing written");
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
        fn write_at(&self, path: &Path, offset: u64, bytes: &[u8], sync: bool) -> Result<()> {
            self.inner.write_at(path, offset, bytes, sync)?;
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
        let scan = scan_column_journal(&FsStorage::new(), &d, "r", 0).unwrap();
        let got: Vec<(u64, u64)> = scan.records().iter().map(|r| (r.lsn, r.index)).collect();
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
        let err = scan_column_journal(&s, &d, "a_b", 0).unwrap_err();
        assert!(
            matches!(err, SynopticError::CorruptJournal { ref detail, .. } if detail.contains("collision")),
            "{err:?}"
        );
        assert!(scan_column_journal(&s, &d, "a.b", 0).is_ok());
        let _ = std::fs::remove_dir_all(&d);
    }

    /// `records` as one batch's bytes: continuation bits on all but the
    /// last, LSNs from `first`.
    fn batch_bytes(first: u64, records: &[(u64, i64)]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for (j, &(index, delta)) in records.iter().enumerate() {
            encode_record(
                &mut w,
                first + j as u64,
                index,
                delta,
                j + 1 < records.len(),
            );
        }
        w.into_bytes()
    }

    #[test]
    fn a_segment_is_padded_while_active_and_trimmed_when_sealed() {
        let d = tmp_dir("padded");
        let spy = SyncSpy::new();
        let cfg = WalConfig {
            segment_bytes: 4096,
            fsync: FsyncCadence::EveryN(3),
        };
        let wal = ColumnWal::open(spy.clone(), &d, "p", 1, cfg).unwrap();
        wal.append_batch(&[(0, 1), (1, 2)]).unwrap();
        wal.append_batch(&[(2, 3)]).unwrap();
        wal.append_batch(&[(3, 4)]).unwrap();
        let path = d.join(wal_file_name("p", 1));
        let header_len = header("p", 1, 1).len();
        // The first write carries the header, the batch and the padding;
        // later batches overwrite zeros and never grow the file.
        let writes = spy.appends.lock().unwrap().clone();
        let lens: Vec<usize> = writes.iter().map(|w| w.1).collect();
        assert_eq!(lens, vec![4096, WAL_RECORD_LEN, WAL_RECORD_LEN]);
        let syncs: Vec<bool> = writes.iter().map(|w| w.2).collect();
        assert_eq!(syncs, vec![false, true, false]);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 4096);
        let scan = scan_column_journal(&spy, &d, "p", 0).unwrap();
        assert_eq!(scan.max_lsn, 4);
        let meta = &scan.segments[0].0;
        assert!(!meta.torn_tail, "zero padding is a clean end");
        assert_eq!(meta.len as usize, header_len + 4 * WAL_RECORD_LEN);
        // Sealing syncs the unsynced batch in a write of its own, then
        // trims: the sealed file is exactly its header and records.
        wal.seal().unwrap();
        let writes = spy.appends.lock().unwrap().clone();
        assert_eq!(writes.last().map(|w| (w.1, w.2)), Some((0, true)));
        assert_eq!(
            std::fs::metadata(&path).unwrap().len() as usize,
            header_len + 4 * WAL_RECORD_LEN
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn a_torn_write_at_every_byte_of_a_padded_batch_is_dropped_whole() {
        let d = tmp_dir("tornpad");
        let s = FsStorage::new();
        let kept: [(u64, i64); 3] = [(0, 1), (1, 2), (2, 3)];
        let torn = batch_bytes(4, &[(7, 7), (8, 8), (9, 9)]);
        for keep in 0..=torn.len() {
            let _ = std::fs::remove_dir_all(&d);
            let wal = ColumnWal::open(s.clone(), &d, "t", 1, WalConfig::default()).unwrap();
            wal.append_batch(&kept[..2]).unwrap();
            wal.append_batch(&kept[2..]).unwrap();
            drop(wal);
            // Power fails mid-write: `keep` bytes of the next batch land in
            // the padding.
            let path = d.join(wal_file_name("t", 1));
            write_next(&path, &torn[..keep]);
            let scan = scan_column_journal(&s, &d, "t", 0).unwrap();
            let expect = if keep == torn.len() { 6 } else { 3 };
            assert_eq!(scan.max_lsn, expect, "keep {keep}");
            assert_eq!(scan.records().len() as u64, expect, "keep {keep}");
            assert_eq!(
                scan.segments[0].0.torn_tail,
                keep > 0 && keep < torn.len(),
                "keep {keep}"
            );
            // Reopening trims the segment to its last whole batch, padding
            // included, and the next append chains on.
            let wal = ColumnWal::open(s.clone(), &d, "t", 1, WalConfig::default()).unwrap();
            let trimmed = std::fs::metadata(&path).unwrap().len();
            assert_eq!(trimmed, scan.segments[0].0.len, "keep {keep}");
            assert_eq!(wal.append(5, 5).unwrap(), expect + 1, "keep {keep}");
            let scan = scan_column_journal(&s, &d, "t", 0).unwrap();
            assert_eq!(scan.max_lsn, expect + 1, "keep {keep}");
            assert!(
                scan.segments.iter().all(|(m, _)| !m.torn_tail),
                "keep {keep}"
            );
        }
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn a_torn_final_segment_survives_two_restarts() {
        let d = tmp_dir("restart2");
        let s = FsStorage::new();
        let wal = ColumnWal::open(s.clone(), &d, "r", 1, WalConfig::default()).unwrap();
        for i in 1..=3u64 {
            wal.append(i, 1).unwrap();
        }
        drop(wal);
        // The crash tears the write of LSN 4.
        write_next(&d.join(wal_file_name("r", 1)), &record(4, 4, 1, false)[..9]);
        // First restart: the torn segment is sealed as found and LSN 4 is
        // acknowledged into a new segment.
        let wal = ColumnWal::open(s.clone(), &d, "r", 1, WalConfig::default()).unwrap();
        assert_eq!(wal.append(9, 9).unwrap(), 4);
        drop(wal);
        // Second restart, before any checkpoint: the journal still scans,
        // with LSN 4 in it.
        let wal = ColumnWal::open(s.clone(), &d, "r", 1, WalConfig::default()).unwrap();
        assert_eq!(wal.pending_mark(), 4);
        let scan = scan_column_journal(&s, &d, "r", 0).unwrap();
        assert_eq!(
            scan.records().last().map(|r| (r.lsn, r.index)),
            Some((4, 9))
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn a_damaged_record_the_stream_continues_past_is_refused() {
        let d = tmp_dir("damaged");
        let s = FsStorage::new();
        let wal = ColumnWal::open(s.clone(), &d, "c", 1, WalConfig::default()).unwrap();
        for i in 1..=3u64 {
            wal.append(i, 1).unwrap();
        }
        let path = d.join(wal_file_name("c", 1));
        let padded = s.read(&path).unwrap();
        let first = header("c", 1, 1).len();
        let refused = |bytes: &[u8], what: &str| {
            std::fs::write(&path, bytes).unwrap();
            let err = scan_column_journal(&s, &d, "c", 0).unwrap_err();
            assert!(
                matches!(err, SynopticError::CorruptJournal { .. }),
                "{what}: {err:?}"
            );
        };
        for (slot, flip) in [
            // A bad CRC with valid records after it.
            (0, 20),
            (1, 9),
            // A bad declared length with a valid record after it.
            (1, 1),
            // The last record with a bit flipped, padding after it: a write
            // cut short never leaves the slot's last byte (its CRC word's
            // top byte) written over zeros.
            (2, 20),
        ] {
            let mut bytes = padded.clone();
            bytes[first + slot * WAL_RECORD_LEN + flip] ^= 0x10;
            refused(&bytes, &format!("slot {slot} byte {flip}"));
        }
        // A length word with its first byte zeroed (24 becomes 0, as
        // 0x80000018 becomes 0x80000000 in a batch): a declared length of 0.
        let mut bytes = padded.clone();
        bytes[first] = 0;
        refused(&bytes, "zeroed length byte");
        // A zeroed record (a lost block) with a valid record after it.
        let mut bytes = padded.clone();
        bytes[first + WAL_RECORD_LEN..first + 2 * WAL_RECORD_LEN].fill(0);
        refused(&bytes, "zeroed slot 1");
        // The same once sealed, and a sealed segment whose last record is
        // damaged.
        let sealed = &padded[..first + 3 * WAL_RECORD_LEN];
        refused(&bytes[..sealed.len()], "sealed, zeroed slot 1");
        let mut bytes = sealed.to_vec();
        bytes[first + 2 * WAL_RECORD_LEN + 20] ^= 0x10;
        refused(&bytes, "sealed, damaged last record");
        assert!(matches!(
            decode_segment(&bytes, "c-1.wal"),
            Err(SynopticError::CorruptJournal { .. })
        ));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn a_corrupt_read_is_read_again_and_refused_only_when_it_repeats() {
        let d = tmp_dir("reread");
        let wal = ColumnWal::open(FsStorage::new(), &d, "c", 1, WalConfig::default()).unwrap();
        for i in 1..=3u64 {
            wal.append(i, 1).unwrap();
        }
        // A bad CRC in slot 1, with slot 2 valid after it.
        let flip = header("c", 1, 1).len() + WAL_RECORD_LEN + 20;
        let bad = Fault::BitFlip {
            offset: flip,
            mask: 0x10,
        };
        // Seen once, as a reader racing the writer sees a slot it is
        // overwriting: the second read is whole and stands.
        let s = FaultyStorage::new(FsStorage::new(), vec![bad.clone()]);
        let scan = scan_column_journal(&s, &d, "c", 0).unwrap();
        assert_eq!((scan.max_lsn, s.faults_fired()), (3, 1));
        // Seen twice in a row, as damage at rest reads: refused.
        let s = FaultyStorage::new(FsStorage::new(), vec![bad.clone(), bad]);
        let err = scan_column_journal(&s, &d, "c", 0).unwrap_err();
        assert!(
            matches!(err, SynopticError::CorruptJournal { .. }),
            "{err:?}"
        );
        assert_eq!(s.faults_fired(), 2);
        let _ = std::fs::remove_dir_all(&d);
    }

    /// The filesystem, read 4 KiB at a time with a yield between reads, as
    /// a read of a large file may be split: a read that overlaps a write can
    /// see one chunk before the write and the next one after it.
    struct ChunkedReads(FsStorage);

    impl Storage for ChunkedReads {
        fn read(&self, path: &Path) -> Result<Vec<u8>> {
            use std::io::Read as _;
            let io = |e: std::io::Error| SynopticError::Io {
                path: path.display().to_string(),
                detail: e.to_string(),
            };
            let mut f = std::fs::File::open(path).map_err(io)?;
            let (mut bytes, mut chunk) = (Vec::new(), [0u8; 4096]);
            loop {
                let n = f.read(&mut chunk).map_err(io)?;
                if n == 0 {
                    return Ok(bytes);
                }
                bytes.extend_from_slice(&chunk[..n]);
                std::thread::yield_now();
            }
        }
        fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<()> {
            self.0.write_atomic(path, bytes)
        }
        fn write_at(&self, path: &Path, offset: u64, bytes: &[u8], sync: bool) -> Result<()> {
            self.0.write_at(path, offset, bytes, sync)
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
            self.0.list(dir)
        }
        fn create_dir_all(&self, dir: &Path) -> Result<()> {
            self.0.create_dir_all(dir)
        }
        fn exists(&self, path: &Path) -> bool {
            self.0.exists(path)
        }
    }

    /// One reader thread scans the journal while the writer appends into
    /// the padding of the active segment and rotates: every scan succeeds
    /// and holds whole batches only. A reader that read a slot's zeros
    /// before the writer reached it can see a later slot's new record in
    /// the same read; that is a torn tail, never corruption.
    #[test]
    fn a_reader_racing_the_writer_sees_whole_batches_and_no_error() {
        const BATCH: u64 = 64;
        const BATCHES: u64 = 1500;
        let d = tmp_dir("race");
        let cfg = WalConfig {
            segment_bytes: 32 * 1024,
            fsync: FsyncCadence::OnRotate,
        };
        let wal = ColumnWal::open(FsStorage::new(), &d, "r", 1, cfg).unwrap();
        // Record `lsn` carries index `(lsn - 1) / BATCH` and delta `lsn`.
        let whole = |records: &[WalRecord], what: &str| {
            assert_eq!(records.len() as u64 % BATCH, 0, "{what}: a partial batch");
            for r in records {
                assert_eq!(
                    (r.index, r.delta),
                    ((r.lsn - 1) / BATCH, r.lsn as i64),
                    "{what}"
                );
            }
        };
        let done = Arc::new(AtomicBool::new(false));
        let reader = {
            let done = Arc::clone(&done);
            let d = d.clone();
            std::thread::spawn(move || {
                let s = ChunkedReads(FsStorage::new());
                let (mut scans, mut from_seq) = (0u64, 0u64);
                while !done.load(Ordering::SeqCst) {
                    for (meta, bytes) in
                        scan_column_journal(&s, &d, "r", from_seq).unwrap().segments
                    {
                        let seg = decode_segment(&bytes, &meta.file).unwrap();
                        assert!(!seg.torn_tail, "a shipped prefix is never torn");
                        whole(&seg.records, &meta.file);
                        from_seq = from_seq.max(meta.seq);
                    }
                    if scans % 8 == 0 {
                        let scan = scan_column_journal(&s, &d, "r", 0).unwrap();
                        whole(&scan.records(), "chain scan");
                    }
                    scans += 1;
                }
                scans
            })
        };
        for b in 0..BATCHES {
            let batch: Vec<(u64, i64)> = (1..=BATCH).map(|j| (b, (b * BATCH + j) as i64)).collect();
            wal.append_batch(&batch).unwrap();
            // Pace the writer so the reader's passes overlap its writes.
            let paced = std::time::Instant::now();
            while paced.elapsed() < std::time::Duration::from_micros(20) {
                std::hint::spin_loop();
            }
        }
        done.store(true, Ordering::SeqCst);
        assert!(reader.join().unwrap() > 0);
        let scan = scan_column_journal(&FsStorage::new(), &d, "r", 0).unwrap();
        assert_eq!(scan.max_lsn, BATCH * BATCHES);
        whole(&scan.records(), "final scan");
        let _ = std::fs::remove_dir_all(&d);
    }
}

//! The self-describing binary on-disk format for persisted synopses.
//!
//! Every file the catalog writes — synopsis files, manifests, and the
//! `CURRENT` generation pointer — shares one frame (see docs/PERSISTENCE.md
//! for the normative specification):
//!
//! ```text
//! offset size  field
//! 0      8     magic  b"SYNOPTC1"
//! 8      2     format version (u16 LE), currently 1
//! 10     2     file kind (u16 LE): 1 synopsis, 2 manifest, 3 current-pointer
//! 12     8     payload length in bytes (u64 LE)
//! 20     4     CRC-32 of the payload (u32 LE)
//! 24     4     CRC-32 of the header bytes [0, 24) (u32 LE)
//! 28     …     payload
//! ```
//!
//! The header checksum catches corruption of the framing itself (including a
//! forged payload length); the payload checksum catches torn writes,
//! truncation and bit flips in the body. Inside a payload, every variable-
//! length section carries its own `u64` length prefix, so a reader can never
//! over-run — any inconsistency surfaces as
//! [`SynopticError::CorruptSynopsis`] with the byte offset at which decoding
//! failed. No value read from disk is trusted before validation: vector
//! lengths are bounded, floats must be finite, and bucket boundaries must be
//! strictly increasing from 0.

use synoptic_core::{Result, SynopticError};
use synoptic_wavelet::range_optimal::CoeffSlot;

use crate::checksum::crc32;
use crate::codec::{corrupt, ByteReader, ByteWriter};
use crate::persist::PersistentSynopsis;

/// Magic bytes opening every file.
pub const MAGIC: [u8; 8] = *b"SYNOPTC1";
/// Current (and only) format version.
pub const FORMAT_VERSION: u16 = 1;
/// Total header size in bytes.
pub const HEADER_LEN: usize = 28;
/// Hard cap on any section's element count — rejects absurd length prefixes
/// before they can drive an allocation (64 Mi elements ≫ any real synopsis).
pub const MAX_SECTION_LEN: u64 = 1 << 26;

/// What a frame contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A single [`PersistentSynopsis`].
    Synopsis,
    /// A catalog manifest (one generation's column table).
    Manifest,
    /// The `CURRENT` generation pointer.
    Current,
}

impl FileKind {
    fn code(self) -> u16 {
        match self {
            FileKind::Synopsis => 1,
            FileKind::Manifest => 2,
            FileKind::Current => 3,
        }
    }

    fn from_code(code: u16) -> Option<Self> {
        match code {
            1 => Some(FileKind::Synopsis),
            2 => Some(FileKind::Manifest),
            3 => Some(FileKind::Current),
            _ => None,
        }
    }
}

/// Wraps a payload in the checksummed frame.
pub fn frame(kind: FileKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&kind.code().to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    let header_crc = crc32(&out);
    out.extend_from_slice(&header_crc.to_le_bytes());
    debug_assert_eq!(out.len(), HEADER_LEN);
    out.extend_from_slice(payload);
    out
}

/// Validates the frame and returns the payload slice.
///
/// Every failure mode is a distinct, diagnosable error: wrong magic, header
/// CRC mismatch, unsupported version, wrong kind, truncated payload, payload
/// CRC mismatch, trailing garbage.
pub fn unframe<'a>(bytes: &'a [u8], kind: FileKind, context: &str) -> Result<&'a [u8]> {
    if bytes.len() < HEADER_LEN {
        return Err(corrupt(
            context,
            format!(
                "file too short for header: {} < {HEADER_LEN} bytes",
                bytes.len()
            ),
        ));
    }
    let (header, rest) = bytes.split_at(HEADER_LEN);
    let stored_header_crc = u32::from_le_bytes(header[24..28].try_into().unwrap());
    if crc32(&header[..24]) != stored_header_crc {
        return Err(corrupt(context, "header CRC mismatch"));
    }
    // Header integrity established; its fields can now be interpreted.
    if header[..8] != MAGIC {
        return Err(corrupt(context, format!("bad magic {:02x?}", &header[..8])));
    }
    let version = u16::from_le_bytes(header[8..10].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(SynopticError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let code = u16::from_le_bytes(header[10..12].try_into().unwrap());
    match FileKind::from_code(code) {
        Some(k) if k == kind => {}
        Some(k) => {
            return Err(corrupt(
                context,
                format!("wrong file kind: expected {kind:?}, found {k:?}"),
            ))
        }
        None => return Err(corrupt(context, format!("unknown file kind code {code}"))),
    }
    let payload_len = u64::from_le_bytes(header[12..20].try_into().unwrap());
    if payload_len != rest.len() as u64 {
        return Err(corrupt(
            context,
            format!(
                "payload length mismatch: header says {payload_len}, file has {}",
                rest.len()
            ),
        ));
    }
    let stored_payload_crc = u32::from_le_bytes(header[20..24].try_into().unwrap());
    if crc32(rest) != stored_payload_crc {
        return Err(corrupt(context, "payload CRC mismatch"));
    }
    Ok(rest)
}

// ---------------------------------------------------------------------------
// Synopsis payload encoding
// ---------------------------------------------------------------------------

const TAG_NAIVE: u8 = 1;
const TAG_VALUE: u8 = 2;
const TAG_SAP0: u8 = 3;
const TAG_SAP1: u8 = 4;
const TAG_WPOINT: u8 = 5;
const TAG_WRANGE: u8 = 6;
const TAG_FREQ: u8 = 7;

const SLOT_CORNER: u8 = 0;
const SLOT_ROW: u8 = 1;
const SLOT_COL: u8 = 2;

/// Encodes a synopsis into its payload bytes (framing is separate so the
/// corruption tests can target payload vs header independently).
pub fn encode_synopsis(s: &PersistentSynopsis) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match s {
        PersistentSynopsis::Naive { n, avg } => {
            w.u8(TAG_NAIVE);
            w.u64(*n as u64);
            w.f64(*avg);
        }
        PersistentSynopsis::ValueHistogram {
            n,
            starts,
            values,
            name,
        } => {
            w.u8(TAG_VALUE);
            w.u64(*n as u64);
            w.str(name);
            w.usize_vec(starts);
            w.f64_vec(values);
        }
        PersistentSynopsis::Sap0 {
            n,
            starts,
            suff,
            pref,
        } => {
            w.u8(TAG_SAP0);
            w.u64(*n as u64);
            w.usize_vec(starts);
            w.f64_vec(suff);
            w.f64_vec(pref);
        }
        PersistentSynopsis::Sap1 {
            n,
            starts,
            suff_slope,
            suff_icpt,
            pref_slope,
            pref_icpt,
        } => {
            w.u8(TAG_SAP1);
            w.u64(*n as u64);
            w.usize_vec(starts);
            w.f64_vec(suff_slope);
            w.f64_vec(suff_icpt);
            w.f64_vec(pref_slope);
            w.f64_vec(pref_icpt);
        }
        PersistentSynopsis::WaveletPoint { n, padded, entries } => {
            w.u8(TAG_WPOINT);
            w.u64(*n as u64);
            w.u64(*padded as u64);
            w.u64(entries.len() as u64);
            for &(idx, v) in entries {
                w.u32(idx);
                w.f64(v);
            }
        }
        PersistentSynopsis::Frequencies { values } => {
            w.u8(TAG_FREQ);
            w.u64(values.len() as u64);
            for &v in values {
                w.i64(v);
            }
        }
        PersistentSynopsis::WaveletRange { n, padded, entries } => {
            w.u8(TAG_WRANGE);
            w.u64(*n as u64);
            w.u64(*padded as u64);
            w.u64(entries.len() as u64);
            for &(slot, v) in entries {
                match slot {
                    CoeffSlot::Corner => {
                        w.u8(SLOT_CORNER);
                        w.u32(0);
                    }
                    CoeffSlot::Row(i) => {
                        w.u8(SLOT_ROW);
                        w.u32(i);
                    }
                    CoeffSlot::Col(i) => {
                        w.u8(SLOT_COL);
                        w.u32(i);
                    }
                }
                w.f64(v);
            }
        }
    }
    w.into_bytes()
}

fn read_n(r: &mut ByteReader<'_>) -> Result<usize> {
    let n = r.u64()?;
    if n == 0 || n > MAX_SECTION_LEN {
        return Err(SynopticError::CorruptSynopsis {
            context: "synopsis".into(),
            detail: format!("implausible domain size n = {n}"),
        });
    }
    Ok(n as usize)
}

/// Decodes a synopsis payload. Structural validation only — semantic
/// validation (boundary monotonicity, length consistency, `padded ≥ n`)
/// happens in [`PersistentSynopsis::load`], which every loader must also
/// call before serving answers.
pub fn decode_synopsis(payload: &[u8], context: &str) -> Result<PersistentSynopsis> {
    let mut r = ByteReader::new(payload, context);
    let tag = r.u8()?;
    let s = match tag {
        TAG_NAIVE => {
            let n = read_n(&mut r)?;
            let avg = r.f64()?;
            PersistentSynopsis::Naive { n, avg }
        }
        TAG_VALUE => {
            let n = read_n(&mut r)?;
            let name = r.str()?;
            let starts = r.usize_vec()?;
            let values = r.f64_vec()?;
            PersistentSynopsis::ValueHistogram {
                n,
                starts,
                values,
                name,
            }
        }
        TAG_SAP0 => {
            let n = read_n(&mut r)?;
            let starts = r.usize_vec()?;
            let suff = r.f64_vec()?;
            let pref = r.f64_vec()?;
            PersistentSynopsis::Sap0 {
                n,
                starts,
                suff,
                pref,
            }
        }
        TAG_SAP1 => {
            let n = read_n(&mut r)?;
            let starts = r.usize_vec()?;
            let suff_slope = r.f64_vec()?;
            let suff_icpt = r.f64_vec()?;
            let pref_slope = r.f64_vec()?;
            let pref_icpt = r.f64_vec()?;
            PersistentSynopsis::Sap1 {
                n,
                starts,
                suff_slope,
                suff_icpt,
                pref_slope,
                pref_icpt,
            }
        }
        TAG_WPOINT => {
            let n = read_n(&mut r)?;
            let padded = r.u64()? as usize;
            let count = r.u64()?;
            if count > MAX_SECTION_LEN {
                return Err(SynopticError::CorruptSynopsis {
                    context: context.into(),
                    detail: format!("implausible coefficient count {count}"),
                });
            }
            let mut entries = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let idx = r.u32()?;
                let v = r.f64()?;
                entries.push((idx, v));
            }
            PersistentSynopsis::WaveletPoint { n, padded, entries }
        }
        TAG_FREQ => {
            let n = read_n(&mut r)?;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(r.i64()?);
            }
            PersistentSynopsis::Frequencies { values }
        }
        TAG_WRANGE => {
            let n = read_n(&mut r)?;
            let padded = r.u64()? as usize;
            let count = r.u64()?;
            if count > MAX_SECTION_LEN {
                return Err(SynopticError::CorruptSynopsis {
                    context: context.into(),
                    detail: format!("implausible coefficient count {count}"),
                });
            }
            let mut entries = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let slot = match r.u8()? {
                    SLOT_CORNER => {
                        let _ = r.u32()?;
                        CoeffSlot::Corner
                    }
                    SLOT_ROW => CoeffSlot::Row(r.u32()?),
                    SLOT_COL => CoeffSlot::Col(r.u32()?),
                    other => {
                        return Err(SynopticError::CorruptSynopsis {
                            context: context.into(),
                            detail: format!("unknown coefficient slot tag {other}"),
                        })
                    }
                };
                let v = r.f64()?;
                entries.push((slot, v));
            }
            PersistentSynopsis::WaveletRange { n, padded, entries }
        }
        other => {
            return Err(SynopticError::CorruptSynopsis {
                context: context.into(),
                detail: format!("unknown synopsis tag {other}"),
            })
        }
    };
    r.finish()?;
    Ok(s)
}

/// Convenience: frame + encode in one step.
pub fn synopsis_to_bytes(s: &PersistentSynopsis) -> Vec<u8> {
    frame(FileKind::Synopsis, &encode_synopsis(s))
}

/// Convenience: unframe + decode + semantic validation (`load` succeeds) in
/// one step. This is the only path loaders should use: a successful return
/// guarantees the synopsis answers queries without panicking or lying.
pub fn synopsis_from_bytes(bytes: &[u8], context: &str) -> Result<PersistentSynopsis> {
    let payload = unframe(bytes, FileKind::Synopsis, context)?;
    let s = decode_synopsis(payload, context)?;
    // Semantic validation: must reconstruct into an answering estimator.
    s.load().map_err(|e| match e {
        c @ SynopticError::CorruptSynopsis { .. } => c,
        other => SynopticError::CorruptSynopsis {
            context: context.to_string(),
            detail: other.to_string(),
        },
    })?;
    Ok(s)
}

// ---------------------------------------------------------------------------
// Manifest encoding
// ---------------------------------------------------------------------------

/// One column's record in a manifest: everything needed to find, verify and
/// — if all else fails — *approximate* the column.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestColumn {
    /// Column name.
    pub name: String,
    /// Domain size.
    pub n: usize,
    /// Total row count at build time (the NAIVE fallback is
    /// `total_rows / n` per position).
    pub total_rows: i64,
    /// Synopsis file name, relative to the store root.
    pub file: String,
    /// Method name, for reporting.
    pub method: String,
}

/// One generation's column table.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Generation number (monotonically increasing across saves).
    pub generation: u64,
    /// Column records, sorted by name.
    pub columns: Vec<ManifestColumn>,
    /// WAL checkpoint marks, sorted by column name: the last journal LSN
    /// whose effect is captured by this generation's synopses. Replay after
    /// recovery applies only records *beyond* the committed mark. Encoded as
    /// an optional trailing section so pre-WAL manifests (which simply end
    /// after the columns) decode with no marks — no version bump needed.
    pub wal_marks: Vec<(String, u64)>,
}

/// Encodes a manifest into framed file bytes.
pub fn manifest_to_bytes(m: &Manifest) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(m.generation);
    w.u64(m.columns.len() as u64);
    for c in &m.columns {
        w.str(&c.name);
        w.u64(c.n as u64);
        w.i64(c.total_rows);
        w.str(&c.file);
        w.str(&c.method);
    }
    w.u64(m.wal_marks.len() as u64);
    for (name, lsn) in &m.wal_marks {
        w.str(name);
        w.u64(*lsn);
    }
    frame(FileKind::Manifest, &w.into_bytes())
}

/// Decodes framed manifest bytes.
pub fn manifest_from_bytes(bytes: &[u8], context: &str) -> Result<Manifest> {
    let payload = unframe(bytes, FileKind::Manifest, context)?;
    let mut r = ByteReader::new(payload, context);
    let generation = r.u64()?;
    let count = r.u64()?;
    if count > MAX_SECTION_LEN {
        return Err(SynopticError::CorruptSynopsis {
            context: context.into(),
            detail: format!("implausible column count {count}"),
        });
    }
    let mut columns = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let name = r.str()?;
        let n = read_n(&mut r)?;
        let total_rows = r.i64()?;
        let file = r.str()?;
        let method = r.str()?;
        columns.push(ManifestColumn {
            name,
            n,
            total_rows,
            file,
            method,
        });
    }
    let mut wal_marks = Vec::new();
    if r.has_remaining() {
        let marks = r.u64()?;
        if marks > MAX_SECTION_LEN {
            return Err(SynopticError::CorruptSynopsis {
                context: context.into(),
                detail: format!("implausible WAL-mark count {marks}"),
            });
        }
        for _ in 0..marks {
            let name = r.str()?;
            let lsn = r.u64()?;
            wal_marks.push((name, lsn));
        }
    }
    r.finish()?;
    Ok(Manifest {
        generation,
        columns,
        wal_marks,
    })
}

/// Encodes the `CURRENT` pointer (generation number) into framed bytes.
pub fn current_to_bytes(generation: u64) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(generation);
    frame(FileKind::Current, &w.into_bytes())
}

/// Decodes the `CURRENT` pointer.
pub fn current_from_bytes(bytes: &[u8], context: &str) -> Result<u64> {
    let payload = unframe(bytes, FileKind::Current, context)?;
    let mut r = ByteReader::new(payload, context);
    let generation = r.u64()?;
    r.finish()?;
    Ok(generation)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PersistentSynopsis {
        PersistentSynopsis::Sap0 {
            n: 10,
            starts: vec![0, 3, 7],
            suff: vec![1.5, 2.5, 3.5],
            pref: vec![0.5, 1.0, 2.0],
        }
    }

    #[test]
    fn frame_round_trips() {
        let payload = b"hello world".to_vec();
        let bytes = frame(FileKind::Manifest, &payload);
        assert_eq!(bytes.len(), HEADER_LEN + payload.len());
        assert_eq!(
            unframe(&bytes, FileKind::Manifest, "t").unwrap(),
            &payload[..]
        );
    }

    #[test]
    fn frame_rejects_wrong_kind_and_magic() {
        let bytes = frame(FileKind::Synopsis, b"x");
        assert!(matches!(
            unframe(&bytes, FileKind::Manifest, "t"),
            Err(SynopticError::CorruptSynopsis { .. })
        ));
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(unframe(&bad, FileKind::Synopsis, "t").is_err());
    }

    #[test]
    fn frame_rejects_future_version() {
        let mut bytes = frame(FileKind::Synopsis, b"x");
        // Bump the version field and re-seal the header CRC so only the
        // version is wrong.
        bytes[8] = 0xEE;
        let crc = crc32(&bytes[..24]).to_le_bytes();
        bytes[24..28].copy_from_slice(&crc);
        match unframe(&bytes, FileKind::Synopsis, "t") {
            Err(SynopticError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, 0xEE);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = synopsis_to_bytes(&sample());
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                let res = synopsis_from_bytes(&bad, "t");
                assert!(
                    res.is_err(),
                    "bit flip at {byte}:{bit} yielded a successful load"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = synopsis_to_bytes(&sample());
        for cut in 0..bytes.len() {
            assert!(
                synopsis_from_bytes(&bytes[..cut], "t").is_err(),
                "truncation to {cut} bytes yielded a successful load"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut bytes = synopsis_to_bytes(&sample());
        bytes.push(0);
        assert!(synopsis_from_bytes(&bytes, "t").is_err());
    }

    #[test]
    fn all_variants_round_trip() {
        let variants = vec![
            PersistentSynopsis::Naive { n: 7, avg: 3.25 },
            PersistentSynopsis::ValueHistogram {
                n: 9,
                starts: vec![0, 4],
                values: vec![1.0, -2.0],
                name: "OPT-A".into(),
            },
            sample(),
            PersistentSynopsis::Sap1 {
                n: 6,
                starts: vec![0, 2],
                suff_slope: vec![0.1, 0.2],
                suff_icpt: vec![1.0, 2.0],
                pref_slope: vec![-0.1, 0.0],
                pref_icpt: vec![0.0, 1.0],
            },
            PersistentSynopsis::WaveletPoint {
                n: 6,
                padded: 8,
                entries: vec![(0, 4.5), (3, -1.25)],
            },
            PersistentSynopsis::Frequencies {
                values: vec![3, 0, -2, 7, 1],
            },
            PersistentSynopsis::WaveletRange {
                n: 7,
                padded: 8,
                entries: vec![
                    (CoeffSlot::Corner, 2.0),
                    (CoeffSlot::Row(1), -0.5),
                    (CoeffSlot::Col(3), 0.75),
                ],
            },
        ];
        for v in variants {
            let bytes = synopsis_to_bytes(&v);
            let back = synopsis_from_bytes(&bytes, "t").unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn non_finite_floats_are_rejected() {
        // Hand-craft a Naive payload with a NaN average.
        let mut w = ByteWriter::new();
        w.u8(1); // TAG_NAIVE
        w.u64(5);
        w.f64(f64::NAN);
        let bytes = frame(FileKind::Synopsis, &w.into_bytes());
        let err = synopsis_from_bytes(&bytes, "t").unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn absurd_length_prefix_is_rejected_without_allocation() {
        let mut w = ByteWriter::new();
        w.u8(2); // TAG_VALUE
        w.u64(5);
        w.str("x");
        w.u64(u64::MAX); // starts length prefix
        let bytes = frame(FileKind::Synopsis, &w.into_bytes());
        assert!(synopsis_from_bytes(&bytes, "t").is_err());
    }

    #[test]
    fn manifest_round_trips() {
        let m = Manifest {
            generation: 42,
            columns: vec![
                ManifestColumn {
                    name: "age".into(),
                    n: 100,
                    total_rows: 1_000_000,
                    file: "age-42.syn".into(),
                    method: "SAP1".into(),
                },
                ManifestColumn {
                    name: "price".into(),
                    n: 64,
                    total_rows: 5_000,
                    file: "price-42.syn".into(),
                    method: "OPT-A".into(),
                },
            ],
            wal_marks: vec![("age".into(), 17), ("price".into(), 0)],
        };
        let bytes = manifest_to_bytes(&m);
        assert_eq!(manifest_from_bytes(&bytes, "t").unwrap(), m);
    }

    #[test]
    fn pre_wal_manifest_without_marks_section_still_decodes() {
        // A manifest written before the WAL-marks section existed: the
        // payload simply ends after the column records.
        let mut w = ByteWriter::new();
        w.u64(3); // generation
        w.u64(1); // one column
        w.str("age");
        w.u64(100);
        w.i64(42);
        w.str("age-3.syn");
        w.str("SAP0");
        let bytes = frame(FileKind::Manifest, &w.into_bytes());
        let m = manifest_from_bytes(&bytes, "t").unwrap();
        assert_eq!(m.generation, 3);
        assert_eq!(m.columns.len(), 1);
        assert!(m.wal_marks.is_empty());
    }

    #[test]
    fn current_pointer_round_trips_and_rejects_flips() {
        let bytes = current_to_bytes(7);
        assert_eq!(current_from_bytes(&bytes, "t").unwrap(), 7);
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x10;
            assert!(current_from_bytes(&bad, "t").is_err(), "flip at {byte}");
        }
    }

    #[test]
    fn byte_reader_reports_offsets() {
        let mut w = ByteWriter::new();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "t");
        r.u64().unwrap();
        let err = r.u32().unwrap_err();
        assert!(err.to_string().contains("offset 8"), "{err}");
    }
}

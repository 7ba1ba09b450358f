//! Seeded mutation fuzzer for every decoder that reads bytes from outside
//! the process: `SQP1` requests and responses, `SRP1` replication frames,
//! `SYNWAL01` journal segments and `SYNOPTC1` synopsis and manifest files.
//!
//! Each valid input is mutated (byte overwrites, 4/8-byte `0xFF` or random
//! runs, truncation, insertion) and then **re-sealed**: every CRC the
//! format carries is recomputed over the mutated bytes, so mutants get past
//! the checksum and reach the field decoders. The contract under test is
//! the one the decoders document: hostile bytes decode or are refused
//! with the format's own error, and never panic. SQP1 refuses with
//! `CorruptSynopsis { context: "query frame" }`, SRP1 with
//! `ReplicationDivergence { context: "wire" }`, SYNWAL01 with
//! `CorruptJournal` and SYNOPTC1 with `CorruptSynopsis`; a CRC-valid
//! header from a newer format version may also be `UnsupportedVersion`.
//!
//! Deterministic: the seed is fixed, so a failure reproduces exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};

use synoptic_api::{
    decode_request, decode_response, encode_request, encode_request_with, encode_response,
    encode_response_extended, BatchAnswer, DegradeRung, QueryBatch, Request, RequestHeader,
    Response, ServerStats,
};
use synoptic_catalog::checksum::crc32;
use synoptic_catalog::format::{manifest_to_bytes, HEADER_LEN};
use synoptic_catalog::{
    decode_segment, list_sealed_segments, synopsis_from_bytes, synopsis_to_bytes, ColumnWal,
    FsStorage, Manifest, ManifestColumn, PersistentSynopsis, WalConfig,
};
use synoptic_core::{AnswerSource, BuildAttempt, BuildOutcome, RangeQuery, Rng, SynopticError};
use synoptic_repl::wire::{decode_frame, encode_frame, Frame};
use synoptic_wavelet::range_optimal::CoeffSlot;

/// Mutants generated per seed input.
const MUTANTS_PER_INPUT: usize = 4000;

/// How a format's checksums are recomputed after mutation.
#[derive(Clone, Copy)]
enum Seal {
    /// `magic | type | payload | crc32` (SQP1, SRP1).
    Envelope,
    /// SYNWAL01: header CRC plus one CRC per 32-byte record.
    Wal,
    /// SYNOPTC1: payload length, payload CRC and header CRC.
    Catalog,
}

fn put_crc(bytes: &mut [u8], covered: usize) {
    let crc = crc32(&bytes[..covered]);
    bytes[covered..covered + 4].copy_from_slice(&crc.to_le_bytes());
}

fn reseal(seal: Seal, bytes: &mut [u8]) {
    match seal {
        Seal::Envelope => {
            if bytes.len() >= 9 {
                put_crc(bytes, bytes.len() - 4);
            }
        }
        Seal::Wal => {
            // magic 8 | version 2 | name_len 2 | generation 8 | first_lsn 8
            const FIXED: usize = 28;
            if bytes.len() < FIXED {
                return;
            }
            let name_len = usize::from(u16::from_le_bytes([bytes[10], bytes[11]]));
            let header_len = FIXED + name_len + 4;
            if bytes.len() < header_len {
                return;
            }
            put_crc(bytes, header_len - 4);
            for record in bytes[header_len..].chunks_exact_mut(32) {
                put_crc(record, 28);
            }
        }
        Seal::Catalog => {
            if bytes.len() < HEADER_LEN {
                return;
            }
            let (header, payload) = bytes.split_at_mut(HEADER_LEN);
            header[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
            header[20..24].copy_from_slice(&crc32(payload).to_le_bytes());
            put_crc(header, 24);
        }
    }
}

fn mutate(rng: &mut Rng, input: &[u8]) -> Vec<u8> {
    let mut bytes = input.to_vec();
    for _ in 0..rng.usize_in(1, 4) {
        let at = rng.usize_in(0, bytes.len() + 1);
        match rng.usize_in(0, 4) {
            0 => {
                if at < bytes.len() {
                    bytes[at] = rng.next_u32() as u8;
                }
            }
            1 => {
                let run = if rng.bool() { 4 } else { 8 };
                let ff = rng.bool();
                for b in bytes.iter_mut().skip(at).take(run) {
                    *b = if ff { 0xFF } else { rng.next_u32() as u8 };
                }
            }
            2 => bytes.truncate(at),
            _ => {
                for _ in 0..rng.usize_in(1, 9) {
                    bytes.insert(at, rng.next_u32() as u8);
                }
            }
        }
    }
    bytes
}

/// Runs `decode` on `MUTANTS_PER_INPUT` re-sealed mutants of every input
/// and checks each refusal with `refusal_ok`.
fn fuzz(
    rng: &mut Rng,
    label: &str,
    seal: Seal,
    inputs: &[Vec<u8>],
    decode: impl Fn(&[u8]) -> Result<(), SynopticError>,
    refusal_ok: impl Fn(&SynopticError) -> bool,
) {
    let mut decoded = 0;
    for (i, input) in inputs.iter().enumerate() {
        assert!(decode(input).is_ok(), "{label} input {i} must decode");
        for m in 0..MUTANTS_PER_INPUT {
            let mut bytes = mutate(rng, input);
            reseal(seal, &mut bytes);
            match catch_unwind(AssertUnwindSafe(|| decode(&bytes))) {
                Ok(Ok(())) => decoded += 1,
                Ok(Err(e)) => assert!(
                    refusal_ok(&e),
                    "{label} input {i} mutant {m}: wrong refusal {e:?}"
                ),
                Err(_) => panic!("{label} input {i} mutant {m} panicked: {bytes:02x?}"),
            }
        }
    }
    // Some mutants must decode, or the re-sealing is not reaching the
    // field decoders and the refusals prove nothing.
    assert!(decoded > 0, "{label}: no mutant got past the checksum");
}

fn outcome() -> BuildOutcome {
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

fn sqp1_requests() -> Vec<Vec<u8>> {
    let requests = [
        Request::Ping,
        Request::EstimateBatch(QueryBatch::new(
            "price",
            vec![RangeQuery::new(2, 9).unwrap(), RangeQuery::point(4)],
        )),
        Request::Update {
            column: "price".into(),
            deltas: vec![(1, 5), (9, -3)],
        },
        Request::Stats {
            column: "price".into(),
        },
    ];
    let header = RequestHeader {
        deadline_ms: Some(250),
        tenant: Some("analytics".into()),
        degrade_ok: true,
    };
    requests
        .iter()
        .map(encode_request)
        .chain(requests.iter().map(|r| encode_request_with(&header, r)))
        .collect()
}

fn sqp1_responses() -> Vec<Vec<u8>> {
    let answer = BatchAnswer {
        generation: 42,
        source: AnswerSource::FallbackGeneration { generation: 41 },
        lag: 7,
        outcome: Some(outcome()),
        segment_outcomes: Some(vec![outcome(), BuildOutcome::direct("sap0", 1, 2)]),
        values: vec![1.5, -0.25],
        cached: vec![true, false],
        rung: None,
    };
    let stats = Response::Stats(ServerStats {
        column: "price".into(),
        n: 64,
        estimate_p99_us: 4096,
        ..ServerStats::default()
    });
    let legacy = [
        Response::Pong,
        Response::Estimates(answer.clone()),
        Response::Updated {
            applied: 2,
            scheduled: 1,
        },
        stats.clone(),
        Response::Error(SynopticError::ReplicationLagExceeded {
            column: "price".into(),
            lag: 12,
            max_lag: 8,
        }),
    ];
    let degraded = Response::Estimates(BatchAnswer {
        rung: Some(DegradeRung::LastGood),
        ..answer
    });
    legacy
        .iter()
        .map(encode_response)
        .chain([encode_response(&degraded), encode_response_extended(&stats)])
        .collect()
}

fn srp1_frames() -> Vec<Vec<u8>> {
    [
        Frame::Segment {
            term: 3,
            column: "price".into(),
            seq: 7,
            leader_mark: 901,
            bytes: vec![1, 2, 3, 0, 255],
        },
        Frame::Heartbeat {
            term: 2,
            column: "price".into(),
            leader_mark: 40,
        },
        Frame::Ack {
            term: 2,
            column: "price".into(),
            applied_lsn: 39,
        },
        Frame::Refuse {
            term: 5,
            column: "price".into(),
            applied_lsn: 3,
            reason: "gap".into(),
        },
        Frame::Claim { term: 2, node: 7 },
        Frame::Grant { term: 2, node: 7 },
        Frame::Snapshot {
            term: 4,
            column: "price".into(),
            mark: 120,
            values: vec![-1, 0, 9],
        },
    ]
    .iter()
    .map(encode_frame)
    .collect()
}

/// Sealed journal segments written by the production append path: three
/// one-record batches, and one three-record batch (continuation bits on
/// its first two records) followed by a one-record batch.
fn wal_segments() -> Vec<Vec<u8>> {
    let batches: [&[&[(u64, i64)]]; 2] = [
        &[&[(3, 5)], &[(0, -2)], &[(63, 7)]],
        &[&[(3, 5), (0, -2), (63, 7)], &[(9, 1)]],
    ];
    batches
        .iter()
        .enumerate()
        .map(|(k, batches)| {
            let dir = std::env::temp_dir()
                .join(format!("synoptic_decoder_fuzz_{k}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let wal =
                ColumnWal::open(FsStorage::new(), &dir, "price", 1, WalConfig::default()).unwrap();
            for batch in *batches {
                wal.append_batch(batch).unwrap();
            }
            wal.seal().unwrap();
            let segments = list_sealed_segments(&FsStorage::new(), &dir).unwrap();
            let bytes = std::fs::read(dir.join(&segments[0].file)).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            bytes
        })
        .collect()
}

fn synopsis_files() -> Vec<Vec<u8>> {
    [
        PersistentSynopsis::Naive { n: 7, avg: 3.25 },
        PersistentSynopsis::ValueHistogram {
            n: 6,
            starts: vec![0, 2, 5],
            values: vec![1.0, 2.5, -3.0],
            name: "OPT-A".into(),
        },
        PersistentSynopsis::Sap0 {
            n: 6,
            starts: vec![0, 3],
            suff: vec![4.0, 1.5],
            pref: vec![2.0, 0.5],
        },
        PersistentSynopsis::Sap1 {
            n: 6,
            starts: vec![0, 3],
            suff_slope: vec![0.5, 1.0],
            suff_icpt: vec![1.0, 2.0],
            pref_slope: vec![-0.5, 0.25],
            pref_icpt: vec![3.0, 4.0],
        },
        PersistentSynopsis::WaveletPoint {
            n: 6,
            padded: 8,
            entries: vec![(0, 4.5), (3, -1.25)],
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
        PersistentSynopsis::Frequencies {
            values: vec![3, 0, -2, 7, 1],
        },
    ]
    .iter()
    .map(synopsis_to_bytes)
    .collect()
}

fn manifest_file() -> Vec<u8> {
    manifest_to_bytes(&Manifest {
        generation: 42,
        columns: vec![ManifestColumn {
            name: "price".into(),
            n: 64,
            total_rows: 5_000,
            file: "price-42.syn".into(),
            method: "SAP0".into(),
        }],
        wal_marks: vec![("price".into(), 17)],
    })
}

fn is_corrupt_with(e: &SynopticError, expected: &str) -> bool {
    matches!(e, SynopticError::CorruptSynopsis { context, .. } if context == expected)
}

#[test]
fn sqp1_mutants_decode_or_refuse_as_corrupt_query_frames() {
    let mut rng = Rng::new(0x5351_5031);
    let refused = |e: &SynopticError| is_corrupt_with(e, "query frame");
    fuzz(
        &mut rng,
        "SQP1 request",
        Seal::Envelope,
        &sqp1_requests(),
        |b| decode_request(b).map(drop),
        refused,
    );
    fuzz(
        &mut rng,
        "SQP1 response",
        Seal::Envelope,
        &sqp1_responses(),
        |b| decode_response(b).map(drop),
        refused,
    );
}

#[test]
fn srp1_mutants_decode_or_refuse_as_divergence() {
    let mut rng = Rng::new(0x5352_5031);
    fuzz(
        &mut rng,
        "SRP1",
        Seal::Envelope,
        &srp1_frames(),
        |b| {
            let frame = decode_frame(b)?;
            // The format has no slack: whatever decodes re-encodes to the
            // same bytes.
            assert_eq!(encode_frame(&frame), b, "SRP1 re-encode drifted");
            Ok(())
        },
        |e| matches!(e, SynopticError::ReplicationDivergence { context, .. } if context == "wire"),
    );
}

#[test]
fn wal_segment_mutants_decode_or_refuse_as_corrupt_journal() {
    let mut rng = Rng::new(0x5359_4e57);
    fuzz(
        &mut rng,
        "SYNWAL01",
        Seal::Wal,
        &wal_segments(),
        |b| decode_segment(b, "fuzz.wal").map(drop),
        |e| {
            matches!(
                e,
                SynopticError::CorruptJournal { .. } | SynopticError::UnsupportedVersion { .. }
            )
        },
    );
}

#[test]
fn catalog_file_mutants_decode_or_refuse_as_corrupt_synopses() {
    let mut rng = Rng::new(0x5359_4e4f);
    let refused = |e: &SynopticError| {
        matches!(
            e,
            SynopticError::CorruptSynopsis { .. } | SynopticError::UnsupportedVersion { .. }
        )
    };
    fuzz(
        &mut rng,
        "SYNOPTC1 synopsis",
        Seal::Catalog,
        &synopsis_files(),
        |b| synopsis_from_bytes(b, "fuzz.syn").map(drop),
        refused,
    );
    fuzz(
        &mut rng,
        "SYNOPTC1 manifest",
        Seal::Catalog,
        &[manifest_file()],
        |b| synoptic_catalog::format::manifest_from_bytes(b, "MANIFEST").map(drop),
        refused,
    );
}

/// The mutant the fuzzer first found: a CRC-valid batch whose range has
/// `lo > hi`. It is a malformed frame like any other, so it is refused
/// as a corrupt query frame, not as a caller's `InvalidRange`.
#[test]
fn a_reversed_range_is_a_corrupt_query_frame() {
    let mut bytes = encode_request(&Request::EstimateBatch(QueryBatch::new(
        "c",
        vec![RangeQuery::new(2, 9).unwrap()],
    )));
    // magic 4 | type 1 | column len 2 + "c" | count 4 | lo 8 | hi 8 | crc 4
    bytes[12..28].rotate_left(8);
    reseal(Seal::Envelope, &mut bytes);
    let err = decode_request(&bytes).unwrap_err();
    assert!(is_corrupt_with(&err, "query frame"), "{err:?}");
}

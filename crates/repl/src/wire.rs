//! The replication frame format.
//!
//! Every frame is self-delimiting at the transport layer (transports carry
//! whole frames) and self-validating at this layer:
//!
//! ```text
//! frame:   magic "SRP1" (4) | type u8 | payload | crc32 u32
//! string:  len u16 | bytes            (column names, refusal reasons)
//! blob:    len u32 | bytes            (raw segment file bytes)
//! values:  len u32 | i64-LE × len     (snapshot frequency vectors)
//! ```
//!
//! All integers are little-endian; the CRC covers every byte before it.
//! The envelope and every primitive come from
//! [`synoptic_catalog::codec`], the one byte codec the query protocol and
//! the catalog files share. Strings longer than 64 KiB are truncated at a
//! char boundary.
//! A frame that fails validation decodes to
//! [`SynopticError::ReplicationDivergence`] — the receiver reports the
//! reason and the sender's retry ladder re-ships; nothing is ever applied
//! from bytes that did not validate.
//!
//! The protocol is deliberately tiny and leader-driven. Every frame
//! carries the sender's **election term** (see `crate::election`): a
//! receiver on a newer term refuses the frame loudly with its own term in
//! the refusal — that refusal *is* the fencing mechanism that stops a
//! deposed leader from splitting the replicated history. Nodes that never
//! run elections use term 0 everywhere and the checks are vacuous.
//!
//! * [`Frame::Segment`] — one sealed WAL segment, byte-for-byte as it
//!   exists in the leader's journal, plus the leader's current pending
//!   mark so the follower can bound its replication lag.
//! * [`Frame::Heartbeat`] — the leader's mark with no payload: a probe
//!   that solicits an [`Frame::Ack`] (how far is this follower?), keeps
//!   lag accounting fresh between segments, and renews the follower's
//!   leader lease.
//! * [`Frame::Ack`] — the follower's *cumulative* applied LSN. Duplicate
//!   and stale acks are harmless: the shipper tracks the maximum.
//! * [`Frame::Refuse`] — the follower could not apply a segment, with the
//!   reason, its (unchanged) applied LSN, and its current term. Refusals
//!   are the loud half of the "converge or refuse, never silently
//!   diverge" contract; a refusal whose term exceeds the sender's is a
//!   fencing verdict.
//! * [`Frame::Claim`] — a node announces leadership of a term.
//! * [`Frame::Grant`] — the receiver recognizes that leadership (its vote
//!   is persisted before this frame is sent).
//! * [`Frame::Snapshot`] — one column's committed frequency snapshot plus
//!   its WAL mark: the re-seed path for a fenced ex-leader rejoining. The
//!   journal tail past the mark follows as ordinary [`Frame::Segment`]s.

use synoptic_catalog::codec;
use synoptic_core::{Result, SynopticError};

/// Magic bytes opening every replication frame.
pub const FRAME_MAGIC: [u8; 4] = *b"SRP1";

const TYPE_SEGMENT: u8 = 1;
const TYPE_HEARTBEAT: u8 = 2;
const TYPE_ACK: u8 = 3;
const TYPE_REFUSE: u8 = 4;
const TYPE_CLAIM: u8 = 5;
const TYPE_GRANT: u8 = 6;
const TYPE_SNAPSHOT: u8 = 7;

/// One replication protocol message. See the module docs for the roles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Leader → follower: one sealed WAL segment, verbatim file bytes.
    Segment {
        /// The sender's election term (0 when elections are not in play).
        term: u64,
        /// Column the segment belongs to.
        column: String,
        /// Segment sequence number (the follower persists under the same
        /// name, keeping scan order).
        seq: u64,
        /// The leader's pending mark (last acknowledged LSN) when this
        /// frame was sent — the follower's lag reference point.
        leader_mark: u64,
        /// The raw segment file: header plus record stream.
        bytes: Vec<u8>,
    },
    /// Leader → follower: a probe carrying the leader's pending mark.
    /// Also the lease renewal: a follower counts heartbeats (of a
    /// current-or-newer term) toward its leader lease.
    Heartbeat {
        /// The sender's election term.
        term: u64,
        /// Column being probed.
        column: String,
        /// The leader's pending mark.
        leader_mark: u64,
    },
    /// Follower → leader: cumulative progress.
    Ack {
        /// The follower's current election term.
        term: u64,
        /// Column acknowledged.
        column: String,
        /// Highest LSN applied *and locally persisted* by the follower.
        applied_lsn: u64,
    },
    /// Follower → leader: a segment was not applied, and why. When
    /// `term` exceeds the sender's own term, this refusal is a fencing
    /// verdict: a newer leader exists and the sender must stand down.
    Refuse {
        /// The follower's current election term (fencing provenance).
        term: u64,
        /// Column refused (empty when the outer frame didn't validate).
        column: String,
        /// The follower's applied LSN, unchanged by the refusal.
        applied_lsn: u64,
        /// Human-readable reason, also recorded follower-side.
        reason: String,
    },
    /// A node announces it holds leadership of `term`.
    Claim {
        /// The claimed term.
        term: u64,
        /// The claiming node's id.
        node: u64,
    },
    /// The receiver recognizes `node` as the leader of `term`; its vote
    /// was persisted (term + vote in the catalog's WAL-marks section)
    /// before this frame was sent.
    Grant {
        /// The granted term.
        term: u64,
        /// The node granted leadership.
        node: u64,
    },
    /// Re-seed: one column's committed frequency snapshot. Everything at
    /// or below `mark` is captured by `values`; the journal tail past the
    /// mark follows as ordinary [`Frame::Segment`]s.
    Snapshot {
        /// The sender's election term.
        term: u64,
        /// Column being seeded.
        column: String,
        /// The WAL mark the snapshot captures (records ≤ mark included).
        mark: u64,
        /// Exact frequencies at the mark.
        values: Vec<i64>,
    },
}

impl Frame {
    /// The election term stamped on this frame.
    pub fn term(&self) -> u64 {
        match self {
            Frame::Segment { term, .. }
            | Frame::Heartbeat { term, .. }
            | Frame::Ack { term, .. }
            | Frame::Refuse { term, .. }
            | Frame::Claim { term, .. }
            | Frame::Grant { term, .. }
            | Frame::Snapshot { term, .. } => *term,
        }
    }
}

fn diverged(detail: impl Into<String>) -> SynopticError {
    SynopticError::ReplicationDivergence {
        context: "wire".to_string(),
        detail: detail.into(),
    }
}

/// Encodes a frame into its checksummed byte representation.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let kind = match frame {
        Frame::Segment { .. } => TYPE_SEGMENT,
        Frame::Heartbeat { .. } => TYPE_HEARTBEAT,
        Frame::Ack { .. } => TYPE_ACK,
        Frame::Refuse { .. } => TYPE_REFUSE,
        Frame::Claim { .. } => TYPE_CLAIM,
        Frame::Grant { .. } => TYPE_GRANT,
        Frame::Snapshot { .. } => TYPE_SNAPSHOT,
    };
    codec::seal(FRAME_MAGIC, kind, |w| {
        w.u64(frame.term());
        match frame {
            Frame::Segment {
                column,
                seq,
                leader_mark,
                bytes,
                ..
            } => {
                w.str16(column);
                w.u64(*seq);
                w.u64(*leader_mark);
                w.u32(bytes.len() as u32);
                w.bytes(bytes);
            }
            Frame::Heartbeat {
                column,
                leader_mark: lsn,
                ..
            }
            | Frame::Ack {
                column,
                applied_lsn: lsn,
                ..
            } => {
                w.str16(column);
                w.u64(*lsn);
            }
            Frame::Refuse {
                column,
                applied_lsn,
                reason,
                ..
            } => {
                w.str16(column);
                w.u64(*applied_lsn);
                w.str16(reason);
            }
            Frame::Claim { node, .. } | Frame::Grant { node, .. } => w.u64(*node),
            Frame::Snapshot {
                column,
                mark,
                values,
                ..
            } => {
                w.str16(column);
                w.u64(*mark);
                w.u32(values.len() as u32);
                for &v in values {
                    w.i64(v);
                }
            }
        }
    })
}

/// Decodes and validates one frame. Any failure — bad magic, CRC
/// mismatch, truncation, an unknown type — is
/// [`SynopticError::ReplicationDivergence`]; the bytes are never trusted
/// after this.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame> {
    read_frame(bytes).map_err(|e| match e {
        SynopticError::CorruptSynopsis { detail, .. } => diverged(detail),
        other => other,
    })
}

fn read_frame(bytes: &[u8]) -> Result<Frame> {
    let (kind, mut r) = codec::open(bytes, FRAME_MAGIC, "wire")?;
    let term = r.u64()?;
    let frame = match kind {
        TYPE_SEGMENT => Frame::Segment {
            term,
            column: r.str16()?,
            seq: r.u64()?,
            leader_mark: r.u64()?,
            bytes: {
                let len = r.count(1)?;
                r.bytes(len)?.to_vec()
            },
        },
        TYPE_HEARTBEAT => Frame::Heartbeat {
            term,
            column: r.str16()?,
            leader_mark: r.u64()?,
        },
        TYPE_ACK => Frame::Ack {
            term,
            column: r.str16()?,
            applied_lsn: r.u64()?,
        },
        TYPE_REFUSE => Frame::Refuse {
            term,
            column: r.str16()?,
            applied_lsn: r.u64()?,
            reason: r.str16()?,
        },
        TYPE_CLAIM => Frame::Claim {
            term,
            node: r.u64()?,
        },
        TYPE_GRANT => Frame::Grant {
            term,
            node: r.u64()?,
        },
        TYPE_SNAPSHOT => Frame::Snapshot {
            term,
            column: r.str16()?,
            mark: r.u64()?,
            values: {
                let len = r.count(8)?;
                let mut values = Vec::with_capacity(len);
                for _ in 0..len {
                    values.push(r.i64()?);
                }
                values
            },
        },
        other => return Err(diverged(format!("unknown frame type {other}"))),
    };
    r.finish()?;
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One frame of every type, in type order.
    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Segment {
                term: 3,
                column: "price".into(),
                seq: 7,
                leader_mark: 901,
                bytes: vec![1, 2, 3, 0, 255],
            },
            Frame::Heartbeat {
                term: 0,
                column: "c".into(),
                leader_mark: 0,
            },
            Frame::Ack {
                term: u64::MAX,
                column: "c".into(),
                applied_lsn: u64::MAX,
            },
            Frame::Refuse {
                term: 5,
                column: "c".into(),
                applied_lsn: 3,
                reason: "segment starts at LSN 9 but 4 was expected".into(),
            },
            Frame::Claim { term: 2, node: 7 },
            Frame::Grant { term: 2, node: 7 },
            Frame::Snapshot {
                term: 4,
                column: "price".into(),
                mark: 120,
                values: vec![i64::MIN, -1, 0, 1, i64::MAX],
            },
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for frame in sample_frames() {
            assert_eq!(decode_frame(&encode_frame(&frame)).unwrap(), frame);
        }
    }

    #[test]
    fn frame_term_accessor_reads_every_variant() {
        assert_eq!(Frame::Claim { term: 9, node: 1 }.term(), 9);
        assert_eq!(
            Frame::Snapshot {
                term: 4,
                column: "c".into(),
                mark: 0,
                values: vec![],
            }
            .term(),
            4
        );
    }

    #[test]
    fn corruption_anywhere_is_refused() {
        let good = encode_frame(&Frame::Ack {
            term: 1,
            column: "c".into(),
            applied_lsn: 5,
        });
        for at in 0..good.len() {
            let mut bad = good.clone();
            bad[at] ^= 0x01;
            assert!(
                matches!(
                    decode_frame(&bad),
                    Err(SynopticError::ReplicationDivergence { .. })
                ),
                "flip at byte {at} must not decode"
            );
        }
        for cut in 0..good.len() {
            assert!(
                decode_frame(&good[..cut]).is_err(),
                "truncation to {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_refused() {
        let mut bytes = encode_frame(&Frame::Heartbeat {
            term: 0,
            column: "c".into(),
            leader_mark: 1,
        });
        // Valid-CRC frame with extra payload spliced in before re-CRCing.
        let crc_at = bytes.len() - 4;
        bytes.truncate(crc_at);
        bytes.extend_from_slice(&[0, 0, 0]);
        let crc = synoptic_catalog::checksum::crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let err = decode_frame(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                SynopticError::ReplicationDivergence { ref detail, .. } if detail.contains("trailing")
            ),
            "{err:?}"
        );
    }

    /// Golden SRP1 frames for [`sample_frames`], captured byte-for-byte
    /// from the encoder. Each must decode to the same value and
    /// re-encode to the identical bytes: mixed-version replicas depend
    /// on the wire format never drifting, even when the encoder and
    /// decoder change together.
    #[test]
    fn golden_frames_decode_and_re_encode_identically() {
        fn unhex(s: &str) -> Vec<u8> {
            (0..s.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
                .collect()
        }
        let golden = [
            "5352503101030000000000000005007072696365070000000000000085030000000000000500000001020300ff046fc3c1",
            "5352503102000000000000000001006300000000000000001463a705",
            "5352503103ffffffffffffffff010063ffffffffffffffffaf927d29",
            "5352503104050000000000000001006303000000000000002a007365676d656e7420737461727473206174204c534e20392062757420342077617320657870656374656432f99fa6",
            "535250310502000000000000000700000000000000d720d921",
            "535250310602000000000000000700000000000000537b4372",
            "53525031070400000000000000050070726963657800000000000000050000000000000000000080ffffffffffffffff00000000000000000100000000000000ffffffffffffff7fe7a52e7b",
        ];
        for (hex, expected) in golden.into_iter().zip(sample_frames()) {
            let bytes = unhex(hex);
            assert_eq!(decode_frame(&bytes).unwrap(), expected);
            assert_eq!(
                encode_frame(&expected),
                bytes,
                "re-encode must be identical"
            );
        }
    }

    /// A string of 64 KiB or more cannot be length-prefixed by a `u16`;
    /// it must truncate at a char boundary rather than wrap the prefix,
    /// which would leave the peer a frame it refuses as divergence.
    #[test]
    fn over_long_strings_truncate_instead_of_corrupting_the_frame() {
        // The u16::MAX cut at byte 65_535 lands inside an `é` and must
        // back off to the boundary at 65_534.
        let long = "a".repeat(65_534) + &"é".repeat(100);
        let bytes = encode_frame(&Frame::Refuse {
            term: 1,
            column: "c".into(),
            applied_lsn: 0,
            reason: long.clone(),
        });
        let Frame::Refuse { reason, .. } = decode_frame(&bytes).unwrap() else {
            panic!("over-long refusal must still decode as a refusal");
        };
        assert!(long.starts_with(&reason), "truncation keeps a prefix");
        assert_eq!(reason.len(), 65_534, "the cut backs off to a char boundary");
    }

    #[test]
    fn snapshot_with_truncated_values_is_refused() {
        let mut bytes = encode_frame(&Frame::Snapshot {
            term: 1,
            column: "c".into(),
            mark: 2,
            values: vec![10, 20, 30],
        });
        // Cut one value out of the payload and re-CRC: the declared count
        // no longer matches the bytes present.
        let crc_at = bytes.len() - 4;
        bytes.truncate(crc_at - 8);
        let crc = synoptic_catalog::checksum::crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert!(decode_frame(&bytes).is_err());
    }
}

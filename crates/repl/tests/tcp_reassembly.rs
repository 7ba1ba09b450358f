//! `TcpTransport` frame reassembly against a raw `TcpStream` peer.
//!
//! The peer writes seeded frames in seeded chunkings — one-byte dribbles,
//! several frames in one write, random cuts, and length prefixes split
//! across the receiver's recv timeout — and the transport must return
//! exactly those frames, in order, then `Closed`. The edge cases pin the
//! error contract: an over-long declared length and EOF inside a body are
//! `Err`; EOF at a frame boundary or inside a prefix is `Closed`.

use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use synoptic_repl::transport::MAX_FRAME_LEN;
use synoptic_repl::{Received, TcpTransport, Transport};

/// The receiver's poll timeout; split-prefix pauses sleep past it.
const POLL: Duration = Duration::from_millis(5);

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> usize {
        (self.next() % n) as usize
    }
}

/// How the peer cuts the byte stream into writes.
#[derive(Debug, Clone, Copy)]
enum Chunking {
    /// One byte per write.
    Dribble,
    /// The whole stream, every frame, in one write.
    OneWrite,
    /// Random cuts of 1–64 bytes.
    Random,
    /// Each length prefix is cut at a seeded point, with a pause longer
    /// than the receiver's timeout between the two halves.
    SplitPrefix,
}

/// One write of the peer, optionally followed by a pause.
struct Chunk {
    bytes: Vec<u8>,
    pause: bool,
}

fn seeded_frames(rng: &mut Rng, large: bool) -> Vec<Vec<u8>> {
    let count = 1 + rng.below(8);
    (0..count)
        .map(|_| {
            let len = match rng.below(8) {
                0 => 0,
                // Past the transport's 16 KiB receive buffer.
                1 if large => 16 * 1024 + rng.below(24 * 1024),
                _ => rng.below(400),
            };
            (0..len).map(|_| rng.next() as u8).collect()
        })
        .collect()
}

fn plan(frames: &[Vec<u8>], chunking: Chunking, rng: &mut Rng) -> Vec<Chunk> {
    let mut stream = Vec::new();
    let mut prefix_starts = Vec::new();
    for f in frames {
        prefix_starts.push(stream.len());
        stream.extend_from_slice(&(f.len() as u32).to_le_bytes());
        stream.extend_from_slice(f);
    }
    let cuts: Vec<(usize, bool)> = match chunking {
        Chunking::Dribble => (1..stream.len()).map(|c| (c, false)).collect(),
        Chunking::OneWrite => Vec::new(),
        Chunking::Random => {
            let mut cuts = Vec::new();
            let mut at = 0;
            loop {
                at += 1 + rng.below(64);
                if at >= stream.len() {
                    break cuts;
                }
                cuts.push((at, false));
            }
        }
        Chunking::SplitPrefix => prefix_starts
            .iter()
            .map(|&p| (p + 1 + rng.below(3), true))
            .collect(),
    };
    let mut writes = Vec::new();
    let mut from = 0;
    for (at, pause) in cuts {
        writes.push(Chunk {
            bytes: stream[from..at].to_vec(),
            pause,
        });
        from = at;
    }
    writes.push(Chunk {
        bytes: stream[from..].to_vec(),
        pause: false,
    });
    writes
}

/// A connected `(peer, receiver)` pair.
fn pair() -> (TcpStream, TcpTransport) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    peer.set_nodelay(true).unwrap();
    let (accepted, _) = listener.accept().unwrap();
    (peer, TcpTransport::from_stream(accepted))
}

/// Receives until a frame or a terminal outcome, skipping timeouts.
fn next(t: &mut TcpTransport) -> Result<Received, String> {
    loop {
        match t.recv(Some(POLL)) {
            Ok(Received::TimedOut) => {}
            Ok(other) => return Ok(other),
            Err(e) => return Err(e.to_string()),
        }
    }
}

#[test]
fn seeded_chunkings_reassemble_exactly_the_sent_frames() {
    let chunkings = [
        Chunking::Dribble,
        Chunking::OneWrite,
        Chunking::Random,
        Chunking::SplitPrefix,
    ];
    for seed in 1..=12u64 {
        for chunking in chunkings {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            // Dribbling a 40 KiB frame a byte at a time only slows the
            // sweep down; the other chunkings cover the large path.
            let frames = seeded_frames(&mut rng, !matches!(chunking, Chunking::Dribble));
            let writes = plan(&frames, chunking, &mut rng);
            let (mut peer, mut t) = pair();
            let writer = thread::spawn(move || {
                for w in writes {
                    peer.write_all(&w.bytes).unwrap();
                    if w.pause {
                        thread::sleep(POLL * 3);
                    }
                }
            });
            for (i, want) in frames.iter().enumerate() {
                assert_eq!(
                    next(&mut t),
                    Ok(Received::Frame(want.clone())),
                    "seed {seed} {chunking:?}: frame {i} of {}",
                    frames.len()
                );
            }
            writer.join().unwrap();
            assert_eq!(
                next(&mut t),
                Ok(Received::Closed),
                "seed {seed} {chunking:?}"
            );
        }
    }
}

#[test]
fn a_declared_length_over_the_ceiling_is_refused_before_its_body() {
    for len in [MAX_FRAME_LEN as u32 + 1, u32::MAX] {
        let (mut peer, mut t) = pair();
        // The peer keeps the link open and sends no body: a receiver
        // that tried to allocate and fill the body would block here.
        peer.write_all(&len.to_le_bytes()).unwrap();
        let err = next(&mut t).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        drop(peer);
    }
}

#[test]
fn eof_inside_a_body_is_an_error() {
    // A body that fits the receive buffer, and one that does not.
    for (declared, sent) in [(100u32, 10usize), (64 * 1024, 20 * 1024)] {
        let (mut peer, mut t) = pair();
        peer.write_all(&declared.to_le_bytes()).unwrap();
        peer.write_all(&vec![7u8; sent]).unwrap();
        peer.shutdown(Shutdown::Write).unwrap();
        assert!(next(&mut t).is_err(), "declared {declared}, sent {sent}");
    }
}

#[test]
fn eof_at_a_frame_boundary_or_inside_a_prefix_is_closed() {
    for tail in [&[][..], &[3u8][..], &[3, 0][..], &[3, 0, 0][..]] {
        let (mut peer, mut t) = pair();
        peer.write_all(&[2, 0, 0, 0, b'o', b'k']).unwrap();
        peer.write_all(tail).unwrap();
        peer.shutdown(Shutdown::Write).unwrap();
        assert_eq!(next(&mut t), Ok(Received::Frame(b"ok".to_vec())));
        assert_eq!(next(&mut t), Ok(Received::Closed), "tail {tail:?}");
    }
}

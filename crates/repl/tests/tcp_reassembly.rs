//! `TcpTransport` frame reassembly against a raw `TcpStream` peer.
//!
//! The peer writes seeded frames in seeded chunkings — one-byte dribbles,
//! several frames in one write, random cuts, and length prefixes split
//! across the receiver's recv timeout — and the transport must return
//! exactly those frames, in order, then `Closed`. The sweep runs twice:
//! the second time the transport sends a frame before every `recv`, so
//! each `recv` starts inside its polling window. The edge cases pin the
//! error contract: an over-long declared length and EOF inside a body are
//! `Err`; EOF at a frame boundary or inside a prefix is `Closed`. Then the
//! polling window: a timeout inside it still times out and keeps the
//! stream, a prefix dribbled past the timeout does not stretch it, a
//! shutdown inside the window is `Closed`, and a send right after a
//! `recv` that polled reaches a slow reader whole.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

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
    next_sending(t, None)
}

/// [`next`], but when `sent` is given the transport first sends the
/// peer a frame holding that running count before every `recv`, so each
/// `recv` starts inside the polling window.
fn next_sending(t: &mut TcpTransport, mut sent: Option<&mut u32>) -> Result<Received, String> {
    loop {
        if let Some(count) = sent.as_deref_mut() {
            t.send(&count.to_le_bytes()).map_err(|e| e.to_string())?;
            *count += 1;
        }
        match t.recv(Some(POLL)) {
            Ok(Received::TimedOut) => {}
            Ok(other) => return Ok(other),
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// The seeded sweep. With `in_window`, the transport sends before every
/// `recv` and a second peer thread reads those frames until EOF; they
/// must arrive exactly once each, in order.
fn sweep(in_window: bool) {
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
            let drain = in_window.then(|| {
                let mut from_t = peer.try_clone().unwrap();
                thread::spawn(move || {
                    let mut bytes = Vec::new();
                    from_t.read_to_end(&mut bytes).unwrap();
                    bytes
                })
            });
            let writer = thread::spawn(move || {
                for w in writes {
                    peer.write_all(&w.bytes).unwrap();
                    if w.pause {
                        thread::sleep(POLL * 3);
                    }
                }
                if in_window {
                    // The drain still reads: end the link with a FIN.
                    peer.shutdown(Shutdown::Write).unwrap();
                }
            });
            let mut sent = 0u32;
            for (i, want) in frames.iter().enumerate() {
                assert_eq!(
                    next_sending(&mut t, in_window.then_some(&mut sent)),
                    Ok(Received::Frame(want.clone())),
                    "seed {seed} {chunking:?}: frame {i} of {}",
                    frames.len()
                );
            }
            writer.join().unwrap();
            assert_eq!(
                next_sending(&mut t, in_window.then_some(&mut sent)),
                Ok(Received::Closed),
                "seed {seed} {chunking:?}"
            );
            drop(t);
            if let Some(drain) = drain {
                let want: Vec<u8> = (0..sent)
                    .flat_map(|count| [4u32.to_le_bytes(), count.to_le_bytes()])
                    .flatten()
                    .collect();
                assert!(
                    drain.join().unwrap() == want,
                    "seed {seed} {chunking:?}: the {sent} sent frames did not arrive exactly once"
                );
            }
        }
    }
}

#[test]
fn seeded_chunkings_reassemble_exactly_the_sent_frames() {
    sweep(false);
}

#[test]
fn seeded_chunkings_reassemble_when_every_recv_starts_inside_the_polling_window() {
    sweep(true);
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

#[test]
fn a_timeout_inside_the_polling_window_times_out_and_keeps_the_stream() {
    let (mut peer, mut t) = pair();
    // A timeout shorter than the window is used up by polling.
    t.send(b"ping").unwrap();
    assert_eq!(
        t.recv(Some(Duration::from_micros(10))),
        Ok(Received::TimedOut)
    );
    // A longer one polls, then blocks for the rest, not less.
    t.send(b"ping").unwrap();
    let began = Instant::now();
    assert_eq!(t.recv(Some(POLL)), Ok(Received::TimedOut));
    assert!(began.elapsed() >= POLL / 2, "{:?}", began.elapsed());
    // A frame the peer writes afterwards, prefix first, arrives intact.
    let frame: Vec<u8> = (0..20 * 1024u32).map(|i| (i * 7) as u8).collect();
    let prefix = (frame.len() as u32).to_le_bytes();
    peer.write_all(&prefix[..2]).unwrap();
    t.send(b"ping").unwrap();
    assert_eq!(t.recv(Some(POLL)), Ok(Received::TimedOut));
    peer.write_all(&prefix[2..]).unwrap();
    peer.write_all(&frame).unwrap();
    assert_eq!(next(&mut t), Ok(Received::Frame(frame)));
}

#[test]
fn a_dribbled_prefix_does_not_stretch_the_timeout() {
    let (mut peer, mut t) = pair();
    // One prefix byte every 30 ms: the prefix cannot be whole before
    // 90 ms, so a 50 ms recv must time out, whatever it got by then.
    let writer = thread::spawn(move || {
        for b in [3u8, 0, 0, 0] {
            peer.write_all(&[b]).unwrap();
            thread::sleep(Duration::from_millis(30));
        }
        peer.write_all(b"abc").unwrap();
    });
    assert_eq!(
        t.recv(Some(Duration::from_millis(50))),
        Ok(Received::TimedOut)
    );
    assert_eq!(next(&mut t), Ok(Received::Frame(b"abc".to_vec())));
    writer.join().unwrap();
    assert_eq!(next(&mut t), Ok(Received::Closed));
}

#[test]
fn a_peer_shutdown_inside_the_polling_window_is_closed() {
    for round in 0..20 {
        let (mut peer, mut t) = pair();
        let closer = thread::spawn(move || {
            let mut ping = [0u8; 8];
            peer.read_exact(&mut ping).unwrap();
            peer.shutdown(Shutdown::Write).unwrap();
            // Read on, so the link ends with a FIN and not a reset.
            peer.read_to_end(&mut Vec::new()).unwrap();
        });
        t.send(b"ping").unwrap();
        assert_eq!(
            t.recv(Some(Duration::from_secs(5))),
            Ok(Received::Closed),
            "round {round}"
        );
        drop(t);
        closer.join().unwrap();
    }
}

#[test]
fn a_large_send_after_a_polled_recv_reaches_a_slow_reader_whole() {
    let (mut peer, mut t) = pair();
    // The reply is queued before the ping goes out, so the recv's first
    // non-blocking read takes it and leaves the socket non-blocking.
    peer.write_all(&[4, 0, 0, 0, b'p', b'o', b'n', b'g'])
        .unwrap();
    thread::sleep(Duration::from_millis(10));
    let reader = thread::spawn(move || {
        let mut got = Vec::new();
        let mut chunk = [0u8; 4096];
        for reads in 1.. {
            let n = peer.read(&mut chunk).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&chunk[..n]);
            if reads % 16 == 0 {
                thread::sleep(Duration::from_millis(1));
            }
        }
        got
    });
    t.send(b"ping").unwrap();
    assert_eq!(
        t.recv(Some(Duration::from_secs(5))),
        Ok(Received::Frame(b"pong".to_vec()))
    );
    // Far more than the socket buffers hold while the reader dawdles:
    // the non-blocking socket fills, and the send must finish anyway.
    let big: Vec<u8> = (0..4u32 << 20).map(|i| (i ^ (i >> 11)) as u8).collect();
    t.send(&big).unwrap();
    drop(t);
    let mut want = vec![4, 0, 0, 0, b'p', b'i', b'n', b'g'];
    want.extend_from_slice(&(big.len() as u32).to_le_bytes());
    want.extend_from_slice(&big);
    let got = reader.join().unwrap();
    assert_eq!(got.len(), want.len());
    assert!(got == want, "the 4 MiB frame arrived altered");
}

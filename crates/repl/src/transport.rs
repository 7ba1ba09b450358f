//! Frame transports: how replication frames move between processes.
//!
//! A [`Transport`] carries *whole frames* (the wire layer's checksummed
//! byte strings) in order, with three implementations:
//!
//! * [`TcpTransport`] — std-only `u32`-length-prefixed frames over a
//!   `TcpStream`, for real leader/follower deployments.
//! * [`MemTransport`] — an in-process duplex pair backed by two queues,
//!   for tests and same-process followers. Blocking `recv` with optional
//!   timeout, unbounded buffering (a lagging receiver models unbounded
//!   replication lag, not backpressure).
//! * [`FaultyTransport`] — wraps any transport with deterministic fault
//!   queues, mirroring `synoptic_catalog::FaultyStorage`: dropped frames,
//!   torn mid-record deliveries, duplicated frames, reordering, and
//!   k-frame delays. Unbounded lag is a streak of
//!   [`TransportFault::Drop`]s. Faults are scheduled per *direction*:
//!   the send-side queue corrupts outgoing frames, the recv-side queue
//!   corrupts incoming ones — an **asymmetric partition** (one direction
//!   dark, the other clean) is a recv-side `Drop` streak with an empty
//!   send schedule, and a **delayed heartbeat** is a recv-side
//!   [`TransportFault::Delay`].
//!
//! Transports never interpret frames; all validation happens in
//! [`crate::wire`] and above. A transport failure is loud
//! ([`SynopticError::Io`]) — silent loss only ever comes from an injected
//! fault, and those are counted.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use synoptic_core::{Result, SynopticError};

/// Ceiling on a received frame's declared length: a sealed WAL segment is
/// at most a few hundred KiB, so anything past this is stream garbage,
/// not a frame.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Outcome of one [`Transport::recv`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Received {
    /// One whole frame arrived.
    Frame(Vec<u8>),
    /// The timeout elapsed with no frame; the link is still up.
    TimedOut,
    /// The peer closed the link cleanly; no more frames will arrive.
    Closed,
}

/// A bidirectional, ordered, whole-frame byte channel.
pub trait Transport: Send {
    /// Sends one frame. Returns only after the frame is handed to the
    /// underlying channel (not necessarily received).
    fn send(&mut self, frame: &[u8]) -> Result<()>;

    /// Receives the next frame, blocking up to `timeout` (`None` blocks
    /// until a frame arrives or the peer closes).
    fn recv(&mut self, timeout: Option<Duration>) -> Result<Received>;

    /// Closes this end; the peer's next `recv` drains buffered frames and
    /// then reports [`Received::Closed`].
    fn close(&mut self);
}

fn io_err(detail: impl Into<String>) -> SynopticError {
    SynopticError::Io {
        path: "transport".to_string(),
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------------------
// In-memory duplex pair

#[derive(Default)]
struct ChannelState {
    queue: VecDeque<Vec<u8>>,
    closed: bool,
}

#[derive(Default)]
struct Channel {
    state: Mutex<ChannelState>,
    ready: Condvar,
}

impl Channel {
    fn lock(&self) -> std::sync::MutexGuard<'_, ChannelState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One end of an in-process duplex frame channel (see
/// [`MemTransport::pair`]).
pub struct MemTransport {
    tx: Arc<Channel>,
    rx: Arc<Channel>,
}

impl MemTransport {
    /// A connected pair: frames sent on one end arrive, in order, at the
    /// other.
    pub fn pair() -> (MemTransport, MemTransport) {
        let a = Arc::new(Channel::default());
        let b = Arc::new(Channel::default());
        (
            MemTransport {
                tx: Arc::clone(&a),
                rx: Arc::clone(&b),
            },
            MemTransport { tx: b, rx: a },
        )
    }
}

impl Transport for MemTransport {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        let mut st = self.tx.lock();
        if st.closed {
            return Err(io_err("peer closed the link"));
        }
        st.queue.push_back(frame.to_vec());
        drop(st);
        self.tx.ready.notify_all();
        Ok(())
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Received> {
        let mut st = self.rx.lock();
        loop {
            if let Some(frame) = st.queue.pop_front() {
                return Ok(Received::Frame(frame));
            }
            if st.closed {
                return Ok(Received::Closed);
            }
            match timeout {
                Some(t) => {
                    let (next, res) = self
                        .rx
                        .ready
                        .wait_timeout(st, t)
                        .unwrap_or_else(PoisonError::into_inner);
                    st = next;
                    if res.timed_out() && st.queue.is_empty() && !st.closed {
                        return Ok(Received::TimedOut);
                    }
                }
                None => {
                    st = self
                        .rx
                        .ready
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    fn close(&mut self) {
        for ch in [&self.tx, &self.rx] {
            ch.lock().closed = true;
            ch.ready.notify_all();
        }
    }
}

impl Drop for MemTransport {
    fn drop(&mut self) {
        self.close();
    }
}

// ---------------------------------------------------------------------------
// TCP

/// Size of a [`TcpTransport`]'s receive buffer, and the capacity its send
/// buffer shrinks back to after an unusually large frame. A frame that
/// fits usually arrives in one `read`, together with any frames queued
/// behind it; the part of a body that did not arrive with its prefix is
/// read straight into the frame, so the receive buffer never grows.
const BUF_LEN: usize = 16 * 1024;

/// `u32`-length-prefixed frames over a [`TcpStream`]. Std-only: the
/// workspace's zero-external-deps contract holds.
///
/// Each frame is one `write` of `len | frame`, assembled in a reusable
/// buffer. Reads are buffered: bytes past the current frame are kept for
/// the next [`Transport::recv`], and so is a length prefix cut short by a
/// timeout, so a slow peer can never desynchronise the stream. The
/// socket's read timeout is only changed when a call asks for a
/// different one.
pub struct TcpTransport {
    stream: TcpStream,
    /// `len | frame` of the frame being sent, reused across sends.
    out: Vec<u8>,
    /// Receive buffer: `inbuf[head..tail]` is received but not returned.
    inbuf: Box<[u8]>,
    head: usize,
    tail: usize,
    /// The read timeout the socket has (`None` until first set).
    read_timeout: Option<Option<Duration>>,
}

impl TcpTransport {
    /// Connects to a listening peer (e.g. `"127.0.0.1:7501"`).
    pub fn connect(addr: &str) -> Result<Self> {
        let stream =
            TcpStream::connect(addr).map_err(|e| io_err(format!("connect {addr}: {e}")))?;
        Ok(Self::from_stream(stream))
    }

    /// Wraps an accepted connection.
    pub fn from_stream(stream: TcpStream) -> Self {
        stream.set_nodelay(true).ok();
        Self {
            stream,
            out: Vec::new(),
            inbuf: vec![0u8; BUF_LEN].into_boxed_slice(),
            head: 0,
            tail: 0,
            read_timeout: None,
        }
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<()> {
        if self.read_timeout != Some(timeout) {
            self.stream
                .set_read_timeout(timeout)
                .map_err(|e| io_err(format!("set timeout: {e}")))?;
            self.read_timeout = Some(timeout);
        }
        Ok(())
    }

    /// One `read` into the receive buffer. It is only called while
    /// fewer than 4 bytes are pending, so it first moves those to the
    /// front and offers the read the rest of the buffer. Returns the byte
    /// count (`0` at EOF).
    fn fill(&mut self) -> std::io::Result<usize> {
        self.inbuf.copy_within(self.head..self.tail, 0);
        self.tail -= self.head;
        self.head = 0;
        let n = self.stream.read(&mut self.inbuf[self.tail..])?;
        self.tail += n;
        Ok(n)
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        let len = u32::try_from(frame.len()).map_err(|_| io_err("frame exceeds u32 length"))?;
        self.out.clear();
        self.out.extend_from_slice(&len.to_le_bytes());
        self.out.extend_from_slice(frame);
        let sent = self.stream.write_all(&self.out);
        self.out.clear();
        self.out.shrink_to(BUF_LEN);
        sent.map_err(|e| io_err(format!("send: {e}")))
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Received> {
        while self.tail - self.head < 4 {
            self.set_read_timeout(timeout)?;
            match self.fill() {
                Ok(0) => return Ok(Received::Closed),
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(Received::TimedOut)
                }
                Err(e) => return Err(io_err(format!("recv: {e}"))),
            }
        }
        let mut prefix = [0u8; 4];
        prefix.copy_from_slice(&self.inbuf[self.head..self.head + 4]);
        let len = u32::from_le_bytes(prefix) as usize;
        if len > MAX_FRAME_LEN {
            return Err(io_err(format!(
                "frame length {len} exceeds {MAX_FRAME_LEN}"
            )));
        }
        self.head += 4;
        if self.tail - self.head >= len {
            let frame = self.inbuf[self.head..self.head + len].to_vec();
            self.head += len;
            return Ok(Received::Frame(frame));
        }
        // The length prefix arrived, so the body is in flight: block for
        // it without a timeout — a half-received frame cannot be resumed.
        // The rest of the body is read straight into the frame, sized
        // once, with no bytes past it taken from the stream.
        self.set_read_timeout(None)?;
        let have = self.tail - self.head;
        let mut frame = vec![0u8; len];
        frame[..have].copy_from_slice(&self.inbuf[self.head..self.tail]);
        self.head = self.tail;
        self.stream
            .read_exact(&mut frame[have..])
            .map_err(|e| io_err(format!("recv body: {e}")))?;
        Ok(Received::Frame(frame))
    }

    fn close(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

// ---------------------------------------------------------------------------
// Deterministic fault injection

/// One delivery fault, consumed in FIFO order from the schedule for its
/// direction (exactly like `synoptic_catalog::Fault` schedules storage
/// faults) — send-side faults per [`Transport::send`], recv-side faults
/// per received frame. With the queue empty, delivery is clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportFault {
    /// The frame vanishes in flight. On the recv side this models an
    /// asymmetric partition: the sender believes the frame was delivered.
    Drop,
    /// Only the first `keep` bytes arrive — a torn mid-record stream: the
    /// receiver's CRC/torn-tail validation must catch it.
    Torn {
        /// Bytes of the frame that survive.
        keep: usize,
    },
    /// The frame arrives twice — replay idempotence must absorb it.
    Duplicate,
    /// The frame is held back and delivered *after* the next sent frame.
    Reorder,
    /// The frame is held back for `frames` subsequent deliveries before
    /// arriving — a delayed heartbeat. On the recv side, the delayed
    /// frame surfaces only after `frames` further `recv` calls have each
    /// produced (or failed to produce) a frame, so a lease clock keeps
    /// ticking while the renewal is stuck in flight.
    Delay {
        /// How many deliveries overtake the delayed frame.
        frames: usize,
    },
    /// The frame arrives intact (a scheduling placeholder).
    Clean,
}

/// A [`Transport`] decorator injecting deterministic queues of delivery
/// faults — one schedule per direction — for driving every follower-side
/// refusal path and every election/lease timeout path from tests.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    faults: Mutex<VecDeque<TransportFault>>,
    recv_faults: Mutex<VecDeque<TransportFault>>,
    /// Frames held back by [`TransportFault::Reorder`] /
    /// [`TransportFault::Delay`] on the send side: `(frame, deliveries
    /// still to overtake it)`.
    held: Vec<(Vec<u8>, usize)>,
    /// Same, for the recv side.
    recv_held: Vec<(Vec<u8>, usize)>,
    fired: AtomicUsize,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` with a FIFO send-side fault schedule.
    pub fn new(inner: T, schedule: Vec<TransportFault>) -> Self {
        Self {
            inner,
            faults: Mutex::new(schedule.into()),
            recv_faults: Mutex::new(VecDeque::new()),
            held: Vec::new(),
            recv_held: Vec::new(),
            fired: AtomicUsize::new(0),
        }
    }

    /// Wraps `inner` with both a send-side and a recv-side schedule.
    pub fn with_recv_faults(
        inner: T,
        send_schedule: Vec<TransportFault>,
        recv_schedule: Vec<TransportFault>,
    ) -> Self {
        let mut t = Self::new(inner, send_schedule);
        t.recv_faults = Mutex::new(recv_schedule.into());
        t
    }

    /// Appends one fault to the send-side schedule.
    pub fn push_fault(&self, fault: TransportFault) {
        self.faults
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(fault);
    }

    /// Appends one fault to the recv-side schedule.
    pub fn push_recv_fault(&self, fault: TransportFault) {
        self.recv_faults
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(fault);
    }

    /// How many non-[`TransportFault::Clean`] faults have fired, across
    /// both directions.
    pub fn faults_fired(&self) -> usize {
        self.fired.load(Ordering::SeqCst)
    }

    /// Ages held-back frames by one delivery and returns the first that
    /// became due, preserving hold order.
    fn release_due(held: &mut Vec<(Vec<u8>, usize)>) -> Option<Vec<u8>> {
        for slot in held.iter_mut() {
            slot.1 = slot.1.saturating_sub(1);
        }
        let due = held.iter().position(|(_, left)| *left == 0)?;
        Some(held.remove(due).0)
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        let fault = self
            .faults
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
            .unwrap_or(TransportFault::Clean);
        if !matches!(fault, TransportFault::Clean) {
            self.fired.fetch_add(1, Ordering::SeqCst);
        }
        match fault {
            TransportFault::Drop => {}
            TransportFault::Torn { keep } => {
                self.inner.send(&frame[..keep.min(frame.len())])?;
            }
            TransportFault::Duplicate => {
                self.inner.send(frame)?;
                self.inner.send(frame)?;
            }
            TransportFault::Reorder => {
                self.held.push((frame.to_vec(), 1));
                return Ok(()); // delivered after the *next* frame
            }
            TransportFault::Delay { frames } => {
                self.held.push((frame.to_vec(), frames.max(1)));
                return Ok(());
            }
            TransportFault::Clean => self.inner.send(frame)?,
        }
        while let Some(due) = Self::release_due(&mut self.held) {
            self.inner.send(&due)?;
        }
        Ok(())
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Received> {
        // A held-back frame whose delay has elapsed is delivered before
        // the inner transport is polled again.
        if let Some(due) = self
            .recv_held
            .iter()
            .position(|(_, left)| *left == 0)
            .map(|at| self.recv_held.remove(at).0)
        {
            return Ok(Received::Frame(due));
        }
        loop {
            let frame = match self.inner.recv(timeout)? {
                Received::Frame(f) => f,
                Received::TimedOut => {
                    // The wait itself counts as a delivery opportunity:
                    // delayed frames age even while the link is quiet.
                    if let Some(due) = Self::release_due(&mut self.recv_held) {
                        return Ok(Received::Frame(due));
                    }
                    return Ok(Received::TimedOut);
                }
                Received::Closed => {
                    // A closing peer flushes whatever was stuck in flight.
                    if let Some((frame, _)) =
                        (!self.recv_held.is_empty()).then(|| self.recv_held.remove(0))
                    {
                        return Ok(Received::Frame(frame));
                    }
                    return Ok(Received::Closed);
                }
            };
            let fault = self
                .recv_faults
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_front()
                .unwrap_or(TransportFault::Clean);
            if !matches!(fault, TransportFault::Clean) {
                self.fired.fetch_add(1, Ordering::SeqCst);
            }
            let deliver = match fault {
                TransportFault::Drop => {
                    // The frame is gone, but its non-arrival still ages
                    // delayed frames; then report the partition as
                    // silence, exactly what the sender's peer observes.
                    if let Some(due) = Self::release_due(&mut self.recv_held) {
                        return Ok(Received::Frame(due));
                    }
                    return Ok(Received::TimedOut);
                }
                TransportFault::Torn { keep } => frame[..keep.min(frame.len())].to_vec(),
                TransportFault::Duplicate => {
                    self.recv_held.push((frame.clone(), 0));
                    frame
                }
                TransportFault::Reorder => {
                    self.recv_held.push((frame, 1));
                    continue; // surfaces after the next arrival
                }
                TransportFault::Delay { frames } => {
                    // Model the delay as silence for this recv call: the
                    // receiver's lease clock sees nothing arrive, and the
                    // frame surfaces only after `frames` further recvs.
                    self.recv_held.push((frame, frames.max(1)));
                    return Ok(Received::TimedOut);
                }
                TransportFault::Clean => frame,
            };
            if let Some(due) = Self::release_due(&mut self.recv_held) {
                // An aged-out frame surfaces first; the current one waits
                // its turn at the head of the held queue.
                self.recv_held.insert(0, (deliver, 0));
                return Ok(Received::Frame(due));
            }
            return Ok(Received::Frame(deliver));
        }
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(t: &mut dyn Transport, n: usize) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for _ in 0..n {
            match t.recv(Some(Duration::from_millis(200))).unwrap() {
                Received::Frame(f) => out.push(f),
                other => panic!("expected a frame, got {other:?}"),
            }
        }
        out
    }

    #[test]
    fn mem_pair_delivers_in_order_both_ways() {
        let (mut a, mut b) = MemTransport::pair();
        a.send(b"one").unwrap();
        a.send(b"two").unwrap();
        b.send(b"reply").unwrap();
        assert_eq!(frames(&mut b, 2), vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(frames(&mut a, 1), vec![b"reply".to_vec()]);
        assert_eq!(
            b.recv(Some(Duration::from_millis(10))).unwrap(),
            Received::TimedOut
        );
        a.close();
        assert_eq!(b.recv(None).unwrap(), Received::Closed);
        assert!(b.send(b"x").is_err(), "send after peer closed is loud");
    }

    #[test]
    fn mem_close_drains_buffered_frames_first() {
        let (mut a, mut b) = MemTransport::pair();
        a.send(b"last words").unwrap();
        drop(a);
        assert_eq!(
            b.recv(None).unwrap(),
            Received::Frame(b"last words".to_vec())
        );
        assert_eq!(b.recv(None).unwrap(), Received::Closed);
    }

    #[test]
    fn faults_fire_in_schedule_order() {
        let (inner, mut rx) = MemTransport::pair();
        let mut t = FaultyTransport::new(
            inner,
            vec![
                TransportFault::Drop,
                TransportFault::Torn { keep: 2 },
                TransportFault::Duplicate,
                TransportFault::Reorder,
                TransportFault::Clean,
            ],
        );
        for frame in [&b"AAAA"[..], b"BBBB", b"CCCC", b"DDDD", b"EEEE", b"FFFF"] {
            t.send(frame).unwrap();
        }
        assert_eq!(t.faults_fired(), 4, "Clean is not a fault");
        let got = frames(&mut rx, 6);
        assert_eq!(
            got,
            vec![
                b"BB".to_vec(),   // torn survivor of BBBB (AAAA dropped)
                b"CCCC".to_vec(), // duplicated
                b"CCCC".to_vec(),
                b"EEEE".to_vec(), // DDDD held back, EEEE overtakes
                b"DDDD".to_vec(),
                b"FFFF".to_vec(), // schedule exhausted: clean
            ]
        );
    }

    #[test]
    fn send_side_delay_holds_a_frame_for_k_deliveries() {
        let (inner, mut rx) = MemTransport::pair();
        let mut t = FaultyTransport::new(
            inner,
            vec![TransportFault::Delay { frames: 2 }, TransportFault::Clean],
        );
        t.send(b"late").unwrap();
        t.send(b"first").unwrap();
        t.send(b"second").unwrap(); // "late" becomes due after this
        assert_eq!(
            frames(&mut rx, 3),
            vec![b"first".to_vec(), b"second".to_vec(), b"late".to_vec()]
        );
        assert_eq!(t.faults_fired(), 1);
    }

    #[test]
    fn recv_side_drop_models_an_asymmetric_partition() {
        let (mut tx, inner) = MemTransport::pair();
        let mut t = FaultyTransport::with_recv_faults(
            inner,
            vec![],
            vec![TransportFault::Drop, TransportFault::Drop],
        );
        // One direction is dark: sends succeed, yet nothing arrives.
        tx.send(b"into the void").unwrap();
        tx.send(b"also lost").unwrap();
        tx.send(b"heard").unwrap();
        assert_eq!(
            t.recv(Some(Duration::from_millis(200))).unwrap(),
            Received::TimedOut
        );
        assert_eq!(
            t.recv(Some(Duration::from_millis(200))).unwrap(),
            Received::TimedOut
        );
        assert_eq!(
            t.recv(Some(Duration::from_millis(200))).unwrap(),
            Received::Frame(b"heard".to_vec())
        );
        assert_eq!(t.faults_fired(), 2);
        // The reverse direction stays clean.
        t.send(b"reply").unwrap();
        assert_eq!(frames(&mut tx, 1), vec![b"reply".to_vec()]);
    }

    #[test]
    fn recv_side_delay_surfaces_the_frame_after_k_recvs() {
        let (mut tx, inner) = MemTransport::pair();
        let mut t = FaultyTransport::with_recv_faults(
            inner,
            vec![],
            vec![TransportFault::Delay { frames: 2 }],
        );
        tx.send(b"heartbeat").unwrap();
        // The delayed frame reads as silence now…
        assert_eq!(
            t.recv(Some(Duration::from_millis(50))).unwrap(),
            Received::TimedOut
        );
        // …ages through one more quiet recv…
        assert_eq!(
            t.recv(Some(Duration::from_millis(50))).unwrap(),
            Received::TimedOut
        );
        // …and then arrives intact.
        assert_eq!(
            t.recv(Some(Duration::from_millis(50))).unwrap(),
            Received::Frame(b"heartbeat".to_vec())
        );
    }

    #[test]
    fn recv_side_delay_is_flushed_by_peer_close() {
        let (mut tx, inner) = MemTransport::pair();
        let mut t = FaultyTransport::with_recv_faults(
            inner,
            vec![],
            vec![TransportFault::Delay { frames: 50 }],
        );
        tx.send(b"stuck").unwrap();
        assert_eq!(
            t.recv(Some(Duration::from_millis(50))).unwrap(),
            Received::TimedOut
        );
        tx.close();
        assert_eq!(t.recv(None).unwrap(), Received::Frame(b"stuck".to_vec()));
        assert_eq!(t.recv(None).unwrap(), Received::Closed);
    }

    #[test]
    fn tcp_round_trips_frames_with_timeouts() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::from_stream(stream);
            let frame = match t.recv(None).unwrap() {
                Received::Frame(f) => f,
                other => panic!("{other:?}"),
            };
            t.send(&frame).unwrap(); // echo
            assert_eq!(t.recv(None).unwrap(), Received::Closed);
        });
        let mut c = TcpTransport::connect(&addr).unwrap();
        assert_eq!(
            c.recv(Some(Duration::from_millis(20))).unwrap(),
            Received::TimedOut
        );
        c.send(b"ping with some payload").unwrap();
        assert_eq!(
            c.recv(None).unwrap(),
            Received::Frame(b"ping with some payload".to_vec())
        );
        c.close();
        server.join().unwrap();
    }

    #[test]
    fn tcp_length_prefix_split_across_a_timeout_is_kept() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let frame = b"a frame whose prefix straddles a recv timeout".to_vec();
        let mut wire = (frame.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&frame);
        let peer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_nodelay(true).unwrap();
            s.write_all(&wire[..2]).unwrap();
            std::thread::sleep(Duration::from_millis(100));
            s.write_all(&wire[2..]).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut t = TcpTransport::from_stream(stream);
        let mut timeouts = 0;
        let got = loop {
            match t.recv(Some(Duration::from_millis(20))).unwrap() {
                Received::TimedOut => timeouts += 1,
                other => break other,
            }
        };
        assert_eq!(got, Received::Frame(frame));
        assert!(timeouts > 0, "the prefix never straddled a timeout");
        peer.join().unwrap();
        assert_eq!(t.recv(None).unwrap(), Received::Closed);
    }
}

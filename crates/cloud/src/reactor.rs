//! The sharded nonblocking reactor behind [`CloudServer`](crate::CloudServer).
//!
//! Thread layout (see DESIGN.md §11):
//!
//! * **Acceptor** — one thread on a nonblocking listener behind its own
//!   tiny poller; admits connections round-robin across the shards (or
//!   refuses them with `RESP_ERROR` at the `max_connections` ceiling).
//! * **Shards** — N reactor threads. Each owns one epoll instance, an
//!   eventfd waker, and a slab of connection state machines. Readiness
//!   events drive incremental frame assembly; no shard thread ever blocks
//!   on a socket, so idle connections cost zero CPU.
//! * **Compute pool** — the existing crossbeam worker pool. Shards hand
//!   decoded frames over a channel; workers run the DP/SAE work, encode
//!   the response into a pooled buffer (or clone a cached frame), and
//!   queue it back to the owning shard via its inbox + waker.
//!
//! Per-connection ordering: a connection has **at most one frame in the
//! compute pool at a time**; later frames wait in its pending queue.
//! Responses therefore come back in request order without any sequencing
//! machinery, exactly like the old blocking loop — the reactor changes
//! *when* work runs, never *what* it computes.
//!
//! Backpressure: reads pause (the shard drops `EPOLLIN` interest) while a
//! connection's parsed-frame queue or outbound queue is at its cap. The
//! parsed-frame queue is capped by count and by payload bytes: a peer that
//! pipelines frames of the largest legal size holds at most one frame's
//! worth past the byte cap, not 32 of them. Frames are parsed as their
//! bytes arrive, and parsing stops at the cap, so the raw read buffer holds
//! at most one incomplete frame and the rest of one read. Writes happen
//! under `EPOLLOUT` and unfinished frames stay queued. A slab slot's
//! generation counter stamps every dispatched job so a response for a
//! connection that died mid-solve is discarded instead of being delivered
//! to the slot's next connection.

use crate::server::ServerStats;
use bytes::{Bytes, BytesMut};
use crossbeam::channel::{Receiver, Sender, TryRecvError};
use parking_lot::Mutex;
use polling::{Events, Interest, Poller, Waker};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Upper bound on a single frame, matching the blocking protocol readers.
const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;
/// Read syscall granularity.
const READ_CHUNK: usize = 16 * 1024;
/// Reads pause once this many parsed frames await the compute pool.
const MAX_PENDING_FRAMES: usize = 32;
/// Reads pause once the parsed frames awaiting the compute pool hold this
/// many payload bytes: one frame of the largest legal size.
const MAX_PENDING_BYTES: usize = MAX_FRAME_LEN;
/// Reads pause (and compute dispatch stops) once this many responses are
/// queued outbound — the bounded per-connection outbound queue.
const MAX_OUTBOX_FRAMES: usize = 64;
/// Epoll key reserved for the shard's waker eventfd.
const WAKER_KEY: u64 = u64::MAX;
/// Events drained per `epoll_wait` call.
const EVENTS_CAPACITY: usize = 256;

/// An encoded response frame ready for the wire (header + tag + payload).
pub(crate) enum FrameBuf {
    /// Encoded into a pooled buffer; returned to the pool once written.
    Pooled(BytesMut),
    /// A cached encoding served by reference (plan-cache hits) — cloning
    /// the `Bytes` is an `Arc` bump, not a copy.
    Shared(Bytes),
}

impl FrameBuf {
    fn as_slice(&self) -> &[u8] {
        match self {
            FrameBuf::Pooled(buf) => buf,
            FrameBuf::Shared(bytes) => bytes,
        }
    }
}

/// Per-shard pool of response buffers, provisioned eagerly at server start
/// so steady state serves from recycled buffers (`cloud.buf.reuse`);
/// allocations (`cloud.buf.alloc`) happen only when a burst outruns the
/// pool's capacity.
pub(crate) struct BufferPool {
    buffers: Mutex<Vec<BytesMut>>,
    capacity: usize,
    stats: Arc<ServerStats>,
}

impl BufferPool {
    pub(crate) fn new(capacity: usize, stats: Arc<ServerStats>) -> Self {
        // Startup provisioning is deliberately not counted as `buf.alloc`:
        // the counters describe the serving hot path, and a pool that pays
        // its allocations before the first connection keeps them there.
        let buffers = (0..capacity)
            .map(|_| BytesMut::with_capacity(4096))
            .collect();
        Self {
            buffers: Mutex::new(buffers),
            capacity,
            stats,
        }
    }

    /// An empty buffer, recycled when possible.
    pub(crate) fn acquire(&self) -> BytesMut {
        if let Some(mut buf) = self.buffers.lock().pop() {
            buf.clear();
            self.stats.record_buf_reuse();
            buf
        } else {
            self.stats.record_buf_alloc();
            BytesMut::with_capacity(4096)
        }
    }

    /// Returns a buffer to the pool (dropped if the pool is full).
    pub(crate) fn release(&self, buf: BytesMut) {
        let mut buffers = self.buffers.lock();
        if buffers.len() < self.capacity {
            buffers.push(buf);
        }
    }
}

/// A decoded request frame on its way to the compute pool.
pub(crate) struct Job {
    pub shard: usize,
    pub conn: usize,
    pub gen: u64,
    pub tag: u8,
    pub payload: Bytes,
}

/// Messages into a shard's inbox (paired with a waker wake).
pub(crate) enum ShardMsg {
    /// A freshly accepted connection to adopt.
    Accept(TcpStream),
    /// A computed response for slab slot `conn`, valid only if the slot's
    /// generation still matches `gen`.
    Response {
        conn: usize,
        gen: u64,
        frame: FrameBuf,
    },
}

/// The handle everyone else (acceptor, compute workers, shutdown) uses to
/// reach a shard: its inbox, its waker, and its buffer pool.
pub(crate) struct ShardHandle {
    pub tx: Sender<ShardMsg>,
    pub waker: Arc<Waker>,
    pub pool: Arc<BufferPool>,
}

/// A connection's inbound side: raw bytes, and the frames parsed from them
/// that wait for their turn in the compute pool.
struct Inbound {
    /// Raw inbound bytes not yet assembled into frames.
    read_buf: Vec<u8>,
    /// Parsed frames waiting for their turn in the compute pool.
    pending: VecDeque<(u8, Bytes)>,
    /// Payload bytes held in `pending`.
    pending_bytes: usize,
    /// Payload bytes at which `pending` is full: [`MAX_PENDING_BYTES`].
    byte_cap: usize,
}

impl Inbound {
    fn new() -> Self {
        Self {
            read_buf: Vec::new(),
            pending: VecDeque::new(),
            pending_bytes: 0,
            byte_cap: MAX_PENDING_BYTES,
        }
    }

    /// Whether reads pause: the parsed frames number
    /// [`MAX_PENDING_FRAMES`] or hold the byte cap.
    fn full(&self) -> bool {
        self.pending.len() >= MAX_PENDING_FRAMES || self.pending_bytes >= self.byte_cap
    }

    /// Assembles complete length-prefixed frames out of `read_buf` until
    /// the queue is full; the rest waits there for [`Self::pop`] to make
    /// room. The queue thus holds at most the byte cap plus one frame.
    fn parse(&mut self, stats: &ServerStats) -> Result<(), ()> {
        let mut off = 0usize;
        while !self.full() {
            let available = self.read_buf.len() - off;
            if available < 4 {
                break;
            }
            let len = u32::from_be_bytes(
                self.read_buf[off..off + 4]
                    .try_into()
                    .expect("4-byte slice"),
            ) as usize;
            if len == 0 || len > MAX_FRAME_LEN {
                return Err(());
            }
            if available < 4 + len {
                break;
            }
            let tag = self.read_buf[off + 4];
            let payload = Bytes::from(self.read_buf[off + 5..off + 4 + len].to_vec());
            stats.record_frame(tag);
            self.pending_bytes += payload.len();
            self.pending.push_back((tag, payload));
            off += 4 + len;
        }
        if off > 0 {
            self.read_buf.drain(..off);
        }
        Ok(())
    }

    /// The next parsed frame, with the frames it made room for parsed
    /// behind it.
    fn pop(&mut self, stats: &ServerStats) -> Result<Option<(u8, Bytes)>, ()> {
        let Some(frame) = self.pending.pop_front() else {
            return Ok(None);
        };
        self.pending_bytes -= frame.1.len();
        self.parse(stats)?;
        Ok(Some(frame))
    }
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Generation of the slab slot at admission; stamps dispatched jobs.
    gen: u64,
    inbound: Inbound,
    /// Encoded responses waiting for the socket, with a write offset for
    /// partially flushed frames.
    outbox: VecDeque<(FrameBuf, usize)>,
    /// Whether a frame of ours is currently in the compute pool.
    in_flight: bool,
    /// Peer sent EOF; we finish answering what is queued, then close.
    peer_closed: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
}

/// Slab of connections with generation-stamped slot reuse. Slot indices are
/// the epoll keys.
struct Slab {
    slots: Vec<(u64, Option<Conn>)>,
    free: Vec<usize>,
}

impl Slab {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, mut conn: Conn) -> usize {
        if let Some(idx) = self.free.pop() {
            conn.gen = self.slots[idx].0;
            self.slots[idx].1 = Some(conn);
            idx
        } else {
            conn.gen = 0;
            self.slots.push((0, Some(conn)));
            self.slots.len() - 1
        }
    }

    fn get_mut(&mut self, idx: usize) -> Option<&mut Conn> {
        self.slots.get_mut(idx).and_then(|slot| slot.1.as_mut())
    }

    /// Frees the slot and bumps its generation so late responses for the
    /// old connection are recognizably stale.
    fn remove(&mut self, idx: usize) -> Option<Conn> {
        let slot = self.slots.get_mut(idx)?;
        let conn = slot.1.take()?;
        slot.0 += 1;
        self.free.push(idx);
        Some(conn)
    }

    fn live_indices(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.1.is_some().then_some(i))
            .collect()
    }
}

/// Everything a shard thread owns.
pub(crate) struct Shard {
    pub id: usize,
    pub poller: Poller,
    pub waker: Arc<Waker>,
    pub inbox: Receiver<ShardMsg>,
    pub jobs: Sender<Job>,
    pub pool: Arc<BufferPool>,
    pub stats: Arc<ServerStats>,
    pub stop: Arc<AtomicBool>,
}

impl Shard {
    /// The shard thread body: wait → drain inbox → service readiness.
    pub(crate) fn run(self) {
        let mut slab = Slab::new();
        let mut events = Events::with_capacity(EVENTS_CAPACITY);
        loop {
            if self.poller.wait(&mut events, None).is_err() {
                // Only reachable on a broken poller (EINTR retries inside);
                // honor stop, otherwise nothing sensible remains to do.
                break;
            }
            let mut woken = false;
            for ev in events.iter() {
                if ev.key == WAKER_KEY {
                    woken = true;
                }
            }
            if woken {
                self.waker.drain();
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            self.drain_inbox(&mut slab);
            for ev in events.iter() {
                if ev.key == WAKER_KEY {
                    continue;
                }
                let idx = ev.key as usize;
                if ev.readable || ev.closed {
                    self.on_readable(&mut slab, idx);
                }
                if ev.writable {
                    self.on_writable(&mut slab, idx);
                }
            }
        }
        // Shutdown: release every live connection so active_connections
        // drains to zero and pooled buffers are accounted.
        for idx in slab.live_indices() {
            self.close(&mut slab, idx);
        }
    }

    fn drain_inbox(&self, slab: &mut Slab) {
        loop {
            match self.inbox.try_recv() {
                Ok(ShardMsg::Accept(stream)) => self.register(slab, stream),
                Ok(ShardMsg::Response { conn, gen, frame }) => {
                    self.on_response(slab, conn, gen, frame)
                }
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
    }

    fn register(&self, slab: &mut Slab, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            self.stats.record_disconnect();
            return;
        }
        stream.set_nodelay(true).ok();
        let idx = slab.insert(Conn {
            stream,
            gen: 0, // overwritten by Slab::insert
            inbound: Inbound::new(),
            outbox: VecDeque::new(),
            in_flight: false,
            peer_closed: false,
            interest: Interest::READ,
        });
        let conn = slab.get_mut(idx).expect("just inserted");
        let fd = conn.stream.as_raw_fd();
        if self.poller.add(fd, idx as u64, Interest::READ).is_err() {
            slab.remove(idx);
            self.stats.record_disconnect();
        }
    }

    fn on_readable(&self, slab: &mut Slab, idx: usize) {
        let Some(conn) = slab.get_mut(idx) else {
            return;
        };
        // Frames are parsed as their bytes arrive, so `read_buf` holds at
        // most one incomplete frame (and one chunk past it): a frame of any
        // legal size completes, and a peer that pipelines many frames is
        // held at `MAX_PENDING_FRAMES` or `MAX_PENDING_BYTES`.
        let mut scratch = [0u8; READ_CHUNK];
        while !conn.inbound.full() {
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    conn.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.inbound.read_buf.extend_from_slice(&scratch[..n]);
                    if conn.inbound.parse(&self.stats).is_err() {
                        // Protocol violation: the stream is beyond recovery.
                        self.close(slab, idx);
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slab, idx);
                    return;
                }
            }
        }
        // At the pending cap, reads pause; level-triggered epoll re-reports.
        self.process(slab, idx);
    }

    fn on_writable(&self, slab: &mut Slab, idx: usize) {
        if slab.get_mut(idx).is_some() {
            self.process(slab, idx);
        }
    }

    fn on_response(&self, slab: &mut Slab, conn_idx: usize, gen: u64, frame: FrameBuf) {
        match slab.get_mut(conn_idx) {
            Some(conn) if conn.gen == gen => {
                conn.in_flight = false;
                conn.outbox.push_back((frame, 0));
                self.process(slab, conn_idx);
            }
            // The connection this response was computed for is gone;
            // recycle the buffer instead of delivering it to the slot's
            // next connection.
            _ => {
                if let FrameBuf::Pooled(buf) = frame {
                    self.pool.release(buf);
                }
            }
        }
    }

    /// Flush the outbox, dispatch the next pending frame (if allowed), then
    /// reconcile interest — the single place connection state advances.
    /// Flushing first lets a connection held at its outbox cap dispatch
    /// again as soon as a write drains it: its reads are paused and nothing
    /// is in flight, so no later event would.
    fn process(&self, slab: &mut Slab, idx: usize) {
        let Some(conn) = slab.get_mut(idx) else {
            return;
        };
        if Self::flush(conn, &self.pool).is_err() {
            self.close(slab, idx);
            return;
        }
        // Dispatch at most one frame to the compute pool: per-connection
        // FIFO responses fall out of never having two in flight. The frame
        // leaves room for any the read buffer holds complete.
        if !conn.in_flight && conn.outbox.len() < MAX_OUTBOX_FRAMES {
            let Ok(next) = conn.inbound.pop(&self.stats) else {
                // Protocol violation: the stream is beyond recovery.
                self.close(slab, idx);
                return;
            };
            if let Some((tag, payload)) = next {
                conn.in_flight = true;
                let job = Job {
                    shard: self.id,
                    conn: idx,
                    gen: conn.gen,
                    tag,
                    payload,
                };
                if self.jobs.send(job).is_err() {
                    // Compute pool is gone (shutdown); nothing more to serve.
                    self.close(slab, idx);
                    return;
                }
            }
        }
        if conn.peer_closed
            && !conn.in_flight
            && conn.inbound.pending.is_empty()
            && conn.outbox.is_empty()
        {
            // Everything the peer asked for has been answered and written
            // (a trailing partial frame can never complete — drop it).
            self.close(slab, idx);
            return;
        }
        let paused = conn.inbound.full() || conn.outbox.len() >= MAX_OUTBOX_FRAMES;
        let want = Interest {
            readable: !conn.peer_closed && !paused,
            writable: !conn.outbox.is_empty(),
        };
        if want != conn.interest {
            let fd = conn.stream.as_raw_fd();
            if self.poller.modify(fd, idx as u64, want).is_err() {
                self.close(slab, idx);
                return;
            }
            let conn = slab.get_mut(idx).expect("still live");
            conn.interest = want;
        }
    }

    /// Writes queued frames until the socket would block; partially written
    /// frames keep their offset.
    fn flush(conn: &mut Conn, pool: &BufferPool) -> Result<(), ()> {
        while let Some((frame, written)) = conn.outbox.front_mut() {
            let slice = frame.as_slice();
            while *written < slice.len() {
                match conn.stream.write(&slice[*written..]) {
                    Ok(0) => return Err(()),
                    Ok(n) => *written += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return Err(()),
                }
            }
            let (frame, _) = conn.outbox.pop_front().expect("front exists");
            if let FrameBuf::Pooled(buf) = frame {
                pool.release(buf);
            }
        }
        Ok(())
    }

    fn close(&self, slab: &mut Slab, idx: usize) {
        if let Some(conn) = slab.remove(idx) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            for (frame, _) in conn.outbox {
                if let FrameBuf::Pooled(buf) = frame {
                    self.pool.release(buf);
                }
            }
            self.stats.record_disconnect();
        }
    }
}

/// The acceptor thread body: poll the listener, admit round-robin, refuse
/// over-capacity connections with an error frame instead of wedging them.
pub(crate) struct Acceptor {
    pub listener: TcpListener,
    pub poller: Poller,
    pub waker: Arc<Waker>,
    pub shards: Arc<Vec<ShardHandle>>,
    pub stats: Arc<ServerStats>,
    pub stop: Arc<AtomicBool>,
    pub max_connections: usize,
}

impl Acceptor {
    pub(crate) fn run(self) {
        let mut next_shard = 0usize;
        let mut events = Events::with_capacity(16);
        loop {
            if self.poller.wait(&mut events, None).is_err() {
                break;
            }
            self.waker.drain();
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if self.stats.active_connections() >= self.max_connections as u64 {
                            self.stats.record_rejected();
                            Self::refuse(stream);
                            continue;
                        }
                        self.stats.record_admitted();
                        let shard = &self.shards[next_shard % self.shards.len()];
                        next_shard = next_shard.wrapping_add(1);
                        if shard.tx.send(ShardMsg::Accept(stream)).is_ok() {
                            let _ = shard.waker.wake();
                        } else {
                            self.stats.record_disconnect();
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    // Transient per-connection failures (e.g. the peer reset
                    // before we accepted); try the next one.
                    Err(_) => continue,
                }
            }
        }
    }

    /// Tells an over-capacity client why it is being turned away. The
    /// stream is still blocking (nonblocking is set at shard registration)
    /// and the frame is tiny, so a plain write is fine here.
    fn refuse(mut stream: TcpStream) {
        let _ = crate::protocol::write_frame(
            &mut stream,
            crate::protocol::tags::RESP_ERROR,
            b"server at connection capacity",
        );
    }
}

/// Registers a shard's waker on its poller under the reserved key.
pub(crate) fn register_waker(poller: &Poller, waker: &Waker) -> std::io::Result<()> {
    poller.add(waker.as_raw_fd(), WAKER_KEY, Interest::READ)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Back-to-back frames, frame `i` tagged `i` with `sizes[i]` payload
    /// bytes.
    fn frames(sizes: &[usize]) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            out.extend_from_slice(&(1 + size as u32).to_be_bytes());
            out.push(i as u8);
            out.resize(out.len() + size, i as u8);
        }
        out
    }

    /// Drains `inbound`, checking every frame's tag and payload against
    /// its position and that the queue never holds more than `bound`
    /// payload bytes.
    fn drain_in_order(inbound: &mut Inbound, stats: &ServerStats, n: usize, bound: usize) {
        for i in 0..n {
            let (tag, payload) = inbound.pop(stats).unwrap().expect("a frame per request");
            assert_eq!(usize::from(tag), i);
            assert!(payload.iter().all(|&b| usize::from(b) == i), "frame {i}");
            let held: usize = inbound.pending.iter().map(|(_, p)| p.len()).sum();
            assert_eq!(held, inbound.pending_bytes);
            assert!(held <= bound, "{held} bytes pending after frame {i}");
        }
        assert!(inbound.pop(stats).unwrap().is_none());
        assert!(inbound.read_buf.is_empty());
    }

    /// Frames pipelined past the byte cap: parsing stops once the queue
    /// holds the cap, so it never holds more than the cap plus one frame,
    /// and each frame popped parses the ones behind it, in order.
    #[test]
    fn pending_frames_stop_at_the_byte_cap_and_come_out_in_order() {
        let stats = ServerStats::default();
        let mut inbound = Inbound {
            byte_cap: 1000,
            ..Inbound::new()
        };
        inbound.read_buf = frames(&[300; 10]);
        inbound.parse(&stats).unwrap();
        // 4 frames hold 1,200 bytes, past the 1,000-byte cap: reads pause.
        assert_eq!(inbound.pending.len(), 4);
        assert_eq!(inbound.pending_bytes, 1200);
        assert!(inbound.full());
        assert_eq!(inbound.read_buf.len(), 6 * 305);
        drain_in_order(&mut inbound, &stats, 10, 1000 + 300);
    }

    /// One frame larger than the byte cap still completes, alone.
    #[test]
    fn a_frame_past_the_byte_cap_still_completes() {
        let stats = ServerStats::default();
        let mut inbound = Inbound {
            byte_cap: 100,
            ..Inbound::new()
        };
        inbound.read_buf = frames(&[500, 500]);
        inbound.parse(&stats).unwrap();
        assert_eq!(inbound.pending.len(), 1);
        assert!(inbound.full());
        drain_in_order(&mut inbound, &stats, 2, 500);
    }

    /// Small frames are held by count, at [`MAX_PENDING_FRAMES`].
    #[test]
    fn small_frames_stop_at_the_frame_cap() {
        let stats = ServerStats::default();
        let mut inbound = Inbound::new();
        inbound.read_buf = frames(&[8; 40]);
        inbound.parse(&stats).unwrap();
        assert_eq!(inbound.pending.len(), MAX_PENDING_FRAMES);
        assert!(inbound.full());
        drain_in_order(&mut inbound, &stats, 40, 8 * MAX_PENDING_FRAMES);
    }
}

//! The one `REQ_TRIP` path: single-flight for every trip request
//! (DESIGN.md §13).
//!
//! Correlated demand is the serving tier's worst case: a signal flips and
//! every EV approaching that corridor replans *the same trip* in the same
//! tick. Every trip request a compute worker takes goes through one
//! in-flight table keyed on its request bytes:
//!
//! * a **cache hit** is answered at once with the cached frame;
//! * a miss whose key is already being solved parks as a **follower**
//!   (its shard, connection and generation) and is answered with a
//!   `Bytes` clone of the leader's frame (`cloud.coalesce.hits`) — the
//!   worker moves on, so no worker thread blocks while a follower waits;
//! * a miss with nothing in flight **leads** (`cloud.coalesce.flights`):
//!   it solves inline on its worker, on a pooled warm arena
//!   ([`crate::planner`]).
//!
//! Because a solve serves many waiters, a leader is a guard: one dropped
//! without landing — a solve that panicked, unwinding — answers itself and
//! every follower with a framed error and clears its flight, so no waiter
//! hangs and the key can lead again.
//!
//! Results are bit-identical to a lone solve by construction: a plan's
//! bits depend only on its request, each key a leader solves is encoded
//! exactly once with [`plan_frame`], and waiters receive `Bytes` clones of
//! that one encoding.

use crate::cache::FrameCache;
use crate::planner::Planner;
use crate::protocol::TripRequest;
use crate::reactor::{FrameBuf, Job, ShardHandle, ShardMsg};
use crate::server::{error_frame, plan_frame, ServerStats};
use bytes::Bytes;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Where a response goes: enough to deliver a frame to its connection
/// once the plan lands.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    shard: usize,
    conn: usize,
    gen: u64,
}

impl Waiter {
    fn of(job: &Job) -> Self {
        Self {
            shard: job.shard,
            conn: job.conn,
            gen: job.gen,
        }
    }
}

/// The in-flight table: every key being solved, with the followers
/// waiting on its leader.
type Flights = HashMap<Vec<u8>, Vec<Waiter>>;

/// How a flight ended, which every waiter receives: a fresh solve's frame
/// (already cached) or an error message.
type Outcome = std::result::Result<Bytes, String>;

/// A flight's leader until it lands. Dropping it without landing answers
/// the leader and every follower with an error frame and clears the
/// flight.
struct Leader<'c> {
    desk: &'c Coalescer,
    key: Vec<u8>,
    waiter: Option<Waiter>,
}

impl Leader<'_> {
    fn land(mut self, outcome: Outcome) {
        if let Some(waiter) = self.waiter.take() {
            self.desk.land(&self.key, waiter, outcome);
        }
    }
}

impl Drop for Leader<'_> {
    fn drop(&mut self) {
        if let Some(waiter) = self.waiter.take() {
            self.desk.land(
                &self.key,
                waiter,
                Err("plan aborted: the solve did not complete".into()),
            );
        }
    }
}

/// The trip desk: the in-flight table, shared by the compute workers.
pub(crate) struct Coalescer {
    flights: Mutex<Flights>,
    shards: Arc<Vec<ShardHandle>>,
    stats: Arc<ServerStats>,
    cache: Arc<FrameCache>,
    planner: Arc<Planner>,
}

impl std::fmt::Debug for Coalescer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coalescer")
            .field("in_flight", &self.flights().len())
            .finish_non_exhaustive()
    }
}

impl Coalescer {
    pub(crate) fn new(
        shards: Arc<Vec<ShardHandle>>,
        stats: Arc<ServerStats>,
        cache: Arc<FrameCache>,
        planner: Arc<Planner>,
    ) -> Self {
        Self {
            flights: Mutex::new(Flights::new()),
            shards,
            stats,
            cache,
            planner,
        }
    }

    /// The in-flight table. A leader landing during an unwind takes it
    /// too, so poisoning is ignored: no critical section leaves it torn.
    fn flights(&self) -> MutexGuard<'_, Flights> {
        self.flights.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Routes one `REQ_TRIP` job through the in-flight table.
    pub(crate) fn submit(&self, job: Job) {
        if let Some(leader) = self.enter(&job.payload, Waiter::of(&job)) {
            self.solve(leader, job.payload);
        }
    }

    /// Answers a cache hit or parks a follower; otherwise opens a flight
    /// and returns its leader.
    fn enter(&self, key: &[u8], waiter: Waiter) -> Option<Leader<'_>> {
        if let Some(frame) = self.cache.get(key) {
            self.answer_hit(waiter, frame);
            return None;
        }
        let mut flights = self.flights();
        if let Some(followers) = flights.get_mut(key) {
            followers.push(waiter);
            return None;
        }
        // A leader caches its frame before it clears its flight, so a key
        // with neither is planned nowhere: this miss leads.
        if let Some(frame) = self.cache.get(key) {
            drop(flights);
            self.answer_hit(waiter, frame);
            return None;
        }
        flights.insert(key.to_vec(), Vec::new());
        Some(Leader {
            desk: self,
            key: key.to_vec(),
            waiter: Some(waiter),
        })
    }

    /// Decodes, admits and solves a leader's trip on a pooled arena,
    /// caches its frame, and lands its flight. An invalid trip fails the
    /// flight without reaching the solver.
    fn solve(&self, leader: Leader<'_>, mut payload: Bytes) {
        let trip = match TripRequest::decode(&mut payload) {
            Ok(trip) => trip,
            Err(e) => return leader.land(Err(e.to_string())),
        };
        let admitted = match self.planner.admit(&trip) {
            Ok(admitted) => admitted,
            Err(e) => return leader.land(Err(e.to_string())),
        };
        let plan_span = telemetry::span("cloud.plan_seconds");
        let planned = self.planner.solve_batch(std::slice::from_ref(&admitted));
        drop(plan_span);
        self.stats.record_flights(1);
        match planned.into_iter().next().expect("one result per trip") {
            Ok(profile) => {
                self.stats.record_solve(&profile.metrics);
                let frame = plan_frame(&profile);
                let evicted = self.cache.insert(&leader.key, frame.clone());
                self.stats.record_plan_evictions(evicted);
                leader.land(Ok(frame));
            }
            Err(e) => leader.land(Err(e.to_string())),
        }
    }

    /// Clears a flight and answers its leader and every follower with one
    /// outcome.
    fn land(&self, key: &[u8], leader: Waiter, outcome: Outcome) {
        let followers = self.flights().remove(key).unwrap_or_default();
        self.stats.record_followers(followers.len() as u64);
        let waiters = std::iter::once(leader).chain(followers);
        match outcome {
            Ok(frame) => {
                for waiter in waiters {
                    self.stats.record_served(1);
                    self.respond(&waiter, FrameBuf::Shared(frame.clone()));
                }
            }
            Err(message) => {
                for waiter in waiters {
                    let frame = error_frame(&self.stats, &self.shards[waiter.shard].pool, &message);
                    self.respond(&waiter, frame);
                }
            }
        }
    }

    fn answer_hit(&self, waiter: Waiter, frame: Bytes) {
        self.stats.record_served(1);
        self.stats.record_plan_cache_hits(1);
        self.respond(&waiter, FrameBuf::Shared(frame));
    }

    /// Queues a response frame back to a waiter's shard. A failed send
    /// means the shard exited (shutdown); the frame is dropped with it.
    fn respond(&self, waiter: &Waiter, frame: FrameBuf) {
        let shard = &self.shards[waiter.shard];
        let delivered = shard
            .tx
            .send(ShardMsg::Response {
                conn: waiter.conn,
                gen: waiter.gen,
                frame,
            })
            .is_ok();
        if delivered {
            let _ = shard.waker.wake();
        }
    }
}

/// A desk wired to one in-process shard inbox, for handler tests that
/// run without sockets.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::reactor::BufferPool;
    use crossbeam::channel::{unbounded, Receiver};

    pub(crate) struct TestDesk {
        pub(crate) desk: Coalescer,
        pub(crate) inbox: Receiver<ShardMsg>,
        pub(crate) stats: Arc<ServerStats>,
        pub(crate) cache: Arc<FrameCache>,
        pub(crate) planner: Arc<Planner>,
    }

    impl TestDesk {
        pub(crate) fn new() -> Self {
            let stats = Arc::new(ServerStats::default());
            let (tx, inbox) = unbounded();
            let shard = ShardHandle {
                tx,
                waker: Arc::new(polling::Waker::new().unwrap()),
                pool: Arc::new(BufferPool::new(4, Arc::clone(&stats))),
            };
            let cache = Arc::new(FrameCache::new(crate::cache::PLAN_CACHE_BYTES));
            let planner = Arc::new(Planner::new(1).unwrap());
            let desk = Coalescer::new(
                Arc::new(vec![shard]),
                Arc::clone(&stats),
                Arc::clone(&cache),
                Arc::clone(&planner),
            );
            Self {
                desk,
                inbox,
                stats,
                cache,
                planner,
            }
        }

        /// Submits one `REQ_TRIP` for connection `conn` and returns the
        /// response frame (header, tag, payload).
        pub(crate) fn trip(&self, conn: usize, payload: &Bytes) -> Vec<u8> {
            self.desk.submit(Job {
                shard: 0,
                conn,
                gen: 0,
                tag: crate::protocol::tags::REQ_TRIP,
                payload: payload.clone(),
            });
            match self.inbox.try_recv().expect("a lone trip answers inline") {
                ShardMsg::Response { frame, .. } => frame_bytes(frame),
                ShardMsg::Accept(_) => unreachable!("no acceptor here"),
            }
        }
    }

    pub(crate) fn frame_bytes(frame: FrameBuf) -> Vec<u8> {
        match frame {
            FrameBuf::Pooled(buf) => buf.to_vec(),
            FrameBuf::Shared(bytes) => bytes.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{frame_bytes, TestDesk};
    use super::*;
    use crate::protocol::{encode_profile, tags, write_frame};
    use bytes::BytesMut;

    fn waiter(conn: usize) -> Waiter {
        Waiter {
            shard: 0,
            conn,
            gen: 0,
        }
    }

    #[test]
    fn trips_cache_by_request_bytes() {
        let t = TestDesk::new();
        let payload = TripRequest::us25_at(0.0).encode();
        let first = t.trip(0, &payload);
        assert_eq!(first[4], tags::RESP_PROFILE);
        assert_eq!(t.stats.served(), 1);
        assert_eq!(t.stats.cache_hits(), 0);
        assert_eq!(t.stats.coalesce_flights(), 1);
        let (expanded, _) = t.stats.solver_states();
        assert!(expanded > 0);

        let second = t.trip(1, &payload);
        assert_eq!(t.stats.served(), 2);
        assert_eq!(t.stats.cache_hits(), 1);
        assert_eq!(t.stats.plan_encode_skipped(), 1);
        // The hit serves the exact cached frame bytes (no re-encode), and
        // only the fresh solve contributed solver counters.
        assert_eq!(first, second);
        assert_eq!(t.stats.solver_states().0, expanded);
    }

    #[test]
    fn cached_frame_is_the_wire_encoding() {
        // The cached frame must be byte-identical to what `write_frame`
        // would produce for the same profile — that is the zero-copy hit
        // path's correctness condition.
        let t = TestDesk::new();
        let payload = TripRequest::us25_at(0.0).encode();
        let frame = t.trip(0, &payload);
        let profile =
            crate::protocol::decode_profile(&mut Bytes::from(frame[5..].to_vec())).unwrap();
        let mut encoded = BytesMut::new();
        encode_profile(&profile, &mut encoded);
        let mut expected = Vec::new();
        write_frame(&mut expected, tags::RESP_PROFILE, &encoded).unwrap();
        assert_eq!(frame, expected);
        assert_eq!(t.cache.get(&payload).unwrap().to_vec(), expected);
    }

    /// The leader a miss with nothing in flight becomes.
    fn lead<'t>(t: &'t TestDesk, key: &Bytes, conn: usize) -> Leader<'t> {
        t.desk
            .enter(key, waiter(conn))
            .expect("a miss with nothing in flight leads")
    }

    /// A leader whose solve panics, unwinding before it lands, answers
    /// itself and every follower with an error frame and clears its
    /// flight; the key then leads again.
    #[test]
    fn a_leader_dropped_before_it_lands_fails_its_followers_and_clears_its_flight() {
        let t = TestDesk::new();
        let key = TripRequest::us25_at(0.0).encode();
        let leader = lead(&t, &key, 0);
        for conn in 1..4 {
            assert!(t.desk.enter(&key, waiter(conn)).is_none());
        }
        assert_eq!(t.desk.flights()[&key[..]].len(), 3);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _leader = leader;
            panic!("solver panicked");
        }));
        assert!(unwound.is_err());

        let mut answered: Vec<usize> = std::iter::from_fn(|| t.inbox.try_recv().ok())
            .map(|msg| match msg {
                ShardMsg::Response { conn, frame, .. } => {
                    let frame = frame_bytes(frame);
                    assert_eq!(frame[4], tags::RESP_ERROR);
                    assert!(String::from_utf8_lossy(&frame[5..]).contains("aborted"));
                    conn
                }
                ShardMsg::Accept(_) => unreachable!(),
            })
            .collect();
        answered.sort_unstable();
        assert_eq!(answered, [0, 1, 2, 3]);
        assert!(t.desk.flights().is_empty());
        assert_eq!(t.stats.error_responses(), 4);
        assert_eq!(t.stats.served(), 0);
        lead(&t, &key, 9);
    }

    /// A follower of an in-flight key is answered by the leader's landing,
    /// with a clone of its frame, and counts as a coalesce hit rather than
    /// a cache hit.
    #[test]
    fn followers_share_the_leaders_frame() {
        let t = TestDesk::new();
        let key = TripRequest::us25_at(30.0).encode();
        let leader = lead(&t, &key, 0);
        assert!(t.desk.enter(&key, waiter(1)).is_none());
        assert!(t.inbox.try_recv().is_err(), "the follower waits");
        t.desk.solve(leader, key.clone());
        let frames: Vec<Vec<u8>> = std::iter::from_fn(|| t.inbox.try_recv().ok())
            .map(|msg| match msg {
                ShardMsg::Response { frame, .. } => frame_bytes(frame),
                ShardMsg::Accept(_) => unreachable!(),
            })
            .collect();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], frames[1]);
        assert_eq!(frames[0][4], tags::RESP_PROFILE);
        assert_eq!(t.stats.served(), 2);
        assert_eq!(t.stats.coalesce_hits(), 1);
        assert_eq!(t.stats.coalesce_flights(), 1);
        assert_eq!(t.stats.cache_hits(), 0);
        assert!(t.desk.flights().is_empty());
    }
}

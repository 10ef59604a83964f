//! The one `REQ_TRIP` path: single-flight for every trip request, with
//! optional batching in front of the solver (DESIGN.md §13).
//!
//! Correlated demand is the serving tier's worst case: a signal flips and
//! every EV approaching that corridor replans *the same trip* in the same
//! tick. Every trip request a compute worker takes goes through one
//! in-flight table keyed on its request bytes, whatever `coalesce_window`
//! is:
//!
//! * a **cache hit** is answered at once with the cached frame;
//! * a miss whose key is already being solved parks as a **follower**
//!   (its shard, connection and generation) and is answered with a
//!   `Bytes` clone of the leader's frame (`cloud.coalesce.hits`) — the
//!   worker moves on, so no worker thread blocks while a follower waits;
//! * a miss with nothing in flight **leads** (`cloud.coalesce.flights`).
//!   With `coalesce_window = 0` it solves inline on its worker, as a
//!   window of one, on a pooled warm arena ([`crate::planner`]).
//!
//! A window > 0 adds only two things on top:
//!
//! * **batching** — leaders park in a collection window whose distinct
//!   keys are solved together through one
//!   [`DpOptimizer::optimize_batch_with`](velopt_core::dp::DpOptimizer::optimize_batch_with)
//!   call (`cloud.batch.size`/`cloud.batch.flushes`), and
//! * a **per-tenant admission ceiling** on the requests waiting in that
//!   window, so one greedy tenant cannot fill it and starve the others
//!   (`cloud.tenant.rejected`).
//!
//! A window flushes either when it holds `batch_max` waiters (leaders and
//! the followers parked on them) — inline, on the worker that enqueued the
//! last one, which makes the flush point (and therefore every counter)
//! deterministic under a lockstep load — or when `coalesce_window`
//! elapses, handled by a dedicated flusher thread parked on a condvar.
//!
//! Because a solve now outlives the request that started it and serves
//! many waiters, a leader is a guard: one dropped without landing — a
//! solve that panicked, unwinding — answers itself and every follower
//! with a framed error and clears its flight, so no waiter hangs and the
//! key can lead again.
//!
//! Results are bit-identical to a lone solve by construction: a plan's
//! bits depend only on its request, each distinct key is encoded exactly
//! once with [`plan_frame`], and waiters receive `Bytes` clones of that
//! one encoding.

use crate::cache::FrameCache;
use crate::planner::Planner;
use crate::protocol::TripRequest;
use crate::reactor::{FrameBuf, Job, ShardHandle, ShardMsg};
use crate::server::{error_frame, plan_frame, ServerStats};
use bytes::Bytes;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use velopt_common::Result;
use velopt_core::dp::OptimizedProfile;

/// Where a response goes: enough to deliver a frame to its connection
/// once the plan lands.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    shard: usize,
    conn: usize,
    gen: u64,
    tenant: u32,
}

impl Waiter {
    fn of(job: &Job) -> Self {
        Self {
            shard: job.shard,
            conn: job.conn,
            gen: job.gen,
            tenant: job.tenant,
        }
    }
}

/// One request key being planned: the followers waiting on its leader.
#[derive(Default)]
struct Flight {
    followers: Vec<Waiter>,
    /// The leader still waits in the open window (window > 0 only):
    /// followers joining now count toward the window's fill and their
    /// tenant's admission. Cleared when the window is taken for solving.
    parked: bool,
}

/// A leader waiting in the collection window.
struct Group {
    key: Vec<u8>,
    payload: Bytes,
    leader: Waiter,
}

/// The current collection window. Groups keep insertion order so the
/// batch handed to the solver is reproducible under lockstep load.
#[derive(Default)]
struct Window {
    groups: Vec<Group>,
    waiters: usize,
    deadline: Option<Instant>,
}

#[derive(Default)]
struct State {
    /// The in-flight table, keyed on request bytes.
    flights: HashMap<Vec<u8>, Flight>,
    window: Window,
    /// Waiters currently parked in the window per tenant — the admission
    /// counter.
    tenant_pending: HashMap<u32, usize>,
}

/// What [`Coalescer::enter`] left for the caller to do.
enum Step {
    /// The request was answered, refused, or parked.
    Done,
    /// Solve these leaders now: a window the request filled, or, at
    /// window 0, the request itself as a window of one.
    Solve(Window),
}

/// How a flight ended; every waiter receives the same answer.
enum Outcome {
    /// A fresh solve's frame (already cached).
    Solved(Bytes),
    /// A frame the late cache pass found at flush time.
    Cached(Bytes),
    /// The error message every waiter receives.
    Failed(String),
}

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
                Outcome::Failed("plan aborted: the solve did not complete".into()),
            );
        }
    }
}

/// The trip desk: the in-flight table plus the optional collection window.
/// Shared by the compute workers (which `submit` into it) and, with a
/// window > 0, the flusher thread (which handles timeout flushes).
pub(crate) struct Coalescer {
    window: Duration,
    batch_max: usize,
    tenant_max_inflight: usize,
    state: Mutex<State>,
    flush_cv: Condvar,
    stopped: AtomicBool,
    shards: Arc<Vec<ShardHandle>>,
    stats: Arc<ServerStats>,
    cache: Arc<FrameCache>,
    planner: Arc<Planner>,
}

impl std::fmt::Debug for Coalescer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coalescer")
            .field("window", &self.window)
            .field("batch_max", &self.batch_max)
            .field("tenant_max_inflight", &self.tenant_max_inflight)
            .finish_non_exhaustive()
    }
}

impl Coalescer {
    pub(crate) fn new(
        window: Duration,
        batch_max: usize,
        tenant_max_inflight: usize,
        shards: Arc<Vec<ShardHandle>>,
        stats: Arc<ServerStats>,
        cache: Arc<FrameCache>,
        planner: Arc<Planner>,
    ) -> Self {
        Self {
            window,
            batch_max: batch_max.max(1),
            tenant_max_inflight,
            state: Mutex::new(State::default()),
            flush_cv: Condvar::new(),
            stopped: AtomicBool::new(false),
            shards,
            stats,
            cache,
            planner,
        }
    }

    /// Whether leaders wait in a collection window (and a flusher thread
    /// is needed) rather than solving inline.
    pub(crate) fn batches(&self) -> bool {
        self.window > Duration::ZERO
    }

    /// The state lock. A leader landing during an unwind takes it too, so
    /// poisoning is ignored: no critical section leaves the maps torn.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Routes one `REQ_TRIP` job through the in-flight table.
    pub(crate) fn submit(&self, job: Job) {
        if let Step::Solve(window) = self.enter(&job.payload, Waiter::of(&job)) {
            self.flush(window);
        }
    }

    /// Answers a cache hit, parks a follower, or makes the request a
    /// leader — inline at window 0, in the window otherwise.
    fn enter(&self, payload: &Bytes, waiter: Waiter) -> Step {
        let key: &[u8] = payload;
        if let Some(frame) = self.cache.get(key) {
            self.answer_hit(waiter, frame);
            return Step::Done;
        }
        let mut state = self.state();
        let parked = match state.flights.get_mut(key) {
            Some(flight) if !flight.parked => {
                flight.followers.push(waiter);
                return Step::Done;
            }
            Some(_) => true,
            None => {
                // A leader caches its frame before it clears its flight, so
                // a key with neither is planned nowhere: this miss leads.
                if let Some(frame) = self.cache.get(key) {
                    drop(state);
                    self.answer_hit(waiter, frame);
                    return Step::Done;
                }
                false
            }
        };
        if !self.batches() {
            state.flights.insert(key.to_vec(), Flight::default());
            return Step::Solve(Window {
                groups: vec![Group {
                    key: key.to_vec(),
                    payload: payload.clone(),
                    leader: waiter,
                }],
                ..Window::default()
            });
        }
        if self.tenant_max_inflight > 0 {
            let pending = state
                .tenant_pending
                .get(&waiter.tenant)
                .copied()
                .unwrap_or(0);
            if pending >= self.tenant_max_inflight {
                drop(state);
                self.refuse(waiter);
                return Step::Done;
            }
        }
        *state.tenant_pending.entry(waiter.tenant).or_insert(0) += 1;
        if parked {
            state
                .flights
                .get_mut(key)
                .expect("checked above")
                .followers
                .push(waiter);
        } else {
            state.flights.insert(
                key.to_vec(),
                Flight {
                    followers: Vec::new(),
                    parked: true,
                },
            );
            state.window.groups.push(Group {
                key: key.to_vec(),
                payload: payload.clone(),
                leader: waiter,
            });
        }
        let window = &mut state.window;
        window.waiters += 1;
        if window.deadline.is_none() {
            window.deadline = Some(Instant::now() + self.window);
            self.flush_cv.notify_one();
        }
        if window.waiters >= self.batch_max {
            Step::Solve(Self::take(&mut state))
        } else {
            Step::Done
        }
    }

    /// Detaches the current window for solving: its flights stop taking
    /// window waiters, and their admission counts are released.
    fn take(state: &mut State) -> Window {
        let window = std::mem::take(&mut state.window);
        let State {
            flights,
            tenant_pending,
            ..
        } = state;
        for group in &window.groups {
            let flight = flights
                .get_mut(&group.key)
                .expect("a parked leader has a flight");
            flight.parked = false;
            let waiters = std::iter::once(&group.leader).chain(&flight.followers);
            for waiter in waiters {
                if let Some(n) = tenant_pending.get_mut(&waiter.tenant) {
                    *n = n.saturating_sub(1);
                }
            }
        }
        window
    }

    /// The flusher thread body: sleep until the open window's deadline
    /// (or until `submit` opens one), then flush whatever `batch_max`
    /// has not already claimed.
    pub(crate) fn run_flusher(&self) {
        let mut state = self.state();
        loop {
            if self.stopped.load(Ordering::Acquire) {
                return;
            }
            match state.window.deadline {
                None => {
                    state = self
                        .flush_cv
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        let window = Self::take(&mut state);
                        drop(state);
                        self.flush(window);
                        state = self.state();
                    } else {
                        state = self
                            .flush_cv
                            .wait_timeout(state, deadline - now)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0;
                    }
                }
            }
        }
    }

    /// Wakes and terminates the flusher. Called at server shutdown after
    /// the workers have exited, so nothing submits afterwards.
    pub(crate) fn stop(&self) {
        let _guard = self.state();
        self.stopped.store(true, Ordering::Release);
        self.flush_cv.notify_all();
    }

    /// Solves a detached window — one batch over its distinct keys, on
    /// pooled arenas — and lands every group's flight.
    fn flush(&self, window: Window) {
        if window.groups.is_empty() {
            return;
        }
        // Every group's leader becomes a guard first, so whatever happens
        // below, each waiter of the window is answered.
        let mut misses = Vec::new();
        for group in window.groups {
            let leader = Leader {
                desk: self,
                key: group.key,
                waiter: Some(group.leader),
            };
            // Late cache pass: a REQ_BATCH may have planned this trip since
            // its leader parked.
            match self.cache.get(&leader.key) {
                Some(frame) => leader.land(Outcome::Cached(frame)),
                None => misses.push((leader, group.payload)),
            }
        }
        // Decode and admit the misses; invalid trips fail their own flight
        // without sinking the window.
        let mut leaders = Vec::new();
        let mut trips = Vec::new();
        for (leader, mut payload) in misses {
            match TripRequest::decode(&mut payload) {
                Ok(trip) => {
                    leaders.push(leader);
                    trips.push(trip);
                }
                Err(e) => leader.land(Outcome::Failed(e.to_string())),
            }
        }
        let mut solving = Vec::new();
        let mut admitted = Vec::new();
        for (leader, trip) in leaders.into_iter().zip(&trips) {
            match self.planner.admit(trip) {
                Ok(trip) => {
                    solving.push(leader);
                    admitted.push(trip);
                }
                Err(e) => leader.land(Outcome::Failed(e.to_string())),
            }
        }
        let plan_span = telemetry::span("cloud.plan_seconds");
        let planned = self.planner.solve_batch(&admitted);
        drop(plan_span);
        let flights = admitted.len() as u64;
        if self.batches() {
            self.stats.record_flush(flights);
        } else {
            self.stats.record_flights(flights);
        }
        for (leader, result) in solving.into_iter().zip(planned) {
            self.finish(leader, result);
        }
    }

    /// Caches a fresh plan's frame, then lands its flight.
    fn finish(&self, leader: Leader<'_>, result: Result<OptimizedProfile>) {
        match result {
            Ok(profile) => {
                self.stats.record_solve(&profile.metrics);
                let frame = plan_frame(&profile);
                let evicted = self.cache.insert(&leader.key, frame.clone());
                self.stats.record_plan_evictions(evicted);
                leader.land(Outcome::Solved(frame));
            }
            Err(e) => leader.land(Outcome::Failed(e.to_string())),
        }
    }

    /// Clears a flight and answers its leader and every follower with one
    /// outcome.
    fn land(&self, key: &[u8], leader: Waiter, outcome: Outcome) {
        let followers = self
            .state()
            .flights
            .remove(key)
            .map_or_else(Vec::new, |flight| flight.followers);
        self.stats.record_followers(followers.len() as u64);
        let waiters = std::iter::once(leader).chain(followers);
        let frame = match outcome {
            Outcome::Solved(frame) => frame,
            Outcome::Cached(frame) => {
                self.stats.record_plan_cache_hits(1);
                frame
            }
            Outcome::Failed(message) => {
                for waiter in waiters {
                    let frame = error_frame(&self.stats, &self.shards[waiter.shard].pool, &message);
                    self.respond(&waiter, frame);
                }
                return;
            }
        };
        for waiter in waiters {
            self.stats.record_served(1);
            self.stats.record_tenant_served(waiter.tenant);
            self.respond(&waiter, FrameBuf::Shared(frame.clone()));
        }
    }

    fn answer_hit(&self, waiter: Waiter, frame: Bytes) {
        self.stats.record_served(1);
        self.stats.record_plan_cache_hits(1);
        self.stats.record_tenant_served(waiter.tenant);
        self.respond(&waiter, FrameBuf::Shared(frame));
    }

    fn refuse(&self, waiter: Waiter) {
        self.stats.record_tenant_rejected(waiter.tenant);
        let frame = error_frame(
            &self.stats,
            &self.shards[waiter.shard].pool,
            &format!("tenant {} over its admission limit", waiter.tenant),
        );
        self.respond(&waiter, frame);
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
        pub(crate) fn new(window: Duration) -> Self {
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
                window,
                16,
                0,
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
                tenant: 0,
                tag: crate::protocol::tags::REQ_TRIP,
                payload: payload.clone(),
            });
            match self.inbox.try_recv().expect("window-0 trips answer inline") {
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
            tenant: 0,
        }
    }

    #[test]
    fn trips_cache_by_request_bytes() {
        let t = TestDesk::new(Duration::ZERO);
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
        let t = TestDesk::new(Duration::ZERO);
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

    /// The window of one a window-0 miss leads.
    fn lead(t: &TestDesk, key: &Bytes, conn: usize) -> Window {
        match t.desk.enter(key, waiter(conn)) {
            Step::Solve(window) => window,
            Step::Done => panic!("a miss with nothing in flight leads"),
        }
    }

    /// A leader whose solve panics, unwinding before it lands, answers
    /// itself and every follower with an error frame and clears its
    /// flight; the key then leads again.
    #[test]
    fn a_leader_dropped_before_it_lands_fails_its_followers_and_clears_its_flight() {
        let t = TestDesk::new(Duration::ZERO);
        let key = TripRequest::us25_at(0.0).encode();
        let mut window = lead(&t, &key, 0);
        for conn in 1..4 {
            assert!(matches!(t.desk.enter(&key, waiter(conn)), Step::Done));
        }
        assert_eq!(t.desk.state().flights[&key[..]].followers.len(), 3);
        let group = window.groups.pop().unwrap();
        let leader = Leader {
            desk: &t.desk,
            key: group.key,
            waiter: Some(group.leader),
        };
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
        assert!(t.desk.state().flights.is_empty());
        assert_eq!(t.stats.error_responses(), 4);
        assert_eq!(t.stats.served(), 0);
        lead(&t, &key, 9);
    }

    /// At window 0 a follower of an in-flight key is answered by the
    /// leader's landing, with a clone of its frame, and counts as a
    /// coalesce hit rather than a cache hit.
    #[test]
    fn followers_share_the_leaders_frame() {
        let t = TestDesk::new(Duration::ZERO);
        let key = TripRequest::us25_at(30.0).encode();
        let window = lead(&t, &key, 0);
        assert!(matches!(t.desk.enter(&key, waiter(1)), Step::Done));
        assert!(t.inbox.try_recv().is_err(), "the follower waits");
        t.desk.flush(window);
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
        assert_eq!(t.stats.batch_flushes(), 0);
        assert!(t.desk.state().flights.is_empty());
    }
}

//! The cloud service: sharded nonblocking reactor + compute pool + caches.
//!
//! I/O runs on N reactor shards (epoll, nonblocking sockets, per-connection
//! state machines — see [`crate::reactor`] and DESIGN.md §11); DP solves and
//! SAE predictions run on a separate compute worker pool. Concurrency
//! scales with file descriptors, not threads: thousands of idle connections
//! cost nothing, and `compute_workers` bounds CPU-bound work only.
//!
//! The server builds its optimizer once at spawn ([`crate::planner`]):
//! every solve runs on a pooled warm arena, and every `REQ_TRIP` goes
//! through one single-flight in-flight table ([`crate::coalesce`]), so
//! identical requests racing one miss share one solve. Everything the
//! server keeps is bounded by constants: the arena pool by
//! `compute_workers` and the lattice budget and class cap it enforces, the
//! plan and route frame caches by bytes ([`crate::cache`]).

use crate::cache::{FrameCache, PLAN_CACHE_BYTES, ROUTE_CACHE_BYTES};
use crate::coalesce::Coalescer;
use crate::planner::{check_lattice, Planner};
use crate::protocol::{
    decode_profile, encode_frame_into, encode_profile, tags, BatchPlanRequest, BatchPlanResponse,
    PredictBatchRequest, PredictBatchResponse, RouteNetRequest, RouteNetResponse,
};
use crate::reactor::{Acceptor, BufferPool, FrameBuf, Job, Shard, ShardHandle, ShardMsg};
use bytes::{BufMut, Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver};
use parking_lot::{Mutex, RwLock};
use polling::{Poller, Waker};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use velopt_common::{Error, Result};
use velopt_core::dp::{DpConfig, DpOptimizer, OptimizedProfile};
use velopt_core::route::{RouteConfig, RouteMetrics, RouteQuery, Router};
use velopt_road::NodeId;
use velopt_traffic::nn::SgdConfig;
use velopt_traffic::{
    SaeConfig, SaePredictorConfig, VolumeGenerator, VolumePredictor, VolumeQuery,
};

/// Per-frame-type request counters: how the server's inbound traffic is
/// split across the protocol. Returned by [`ServerStats::frame_counts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameCounts {
    /// `REQ_TRIP` frames received.
    pub trips: u64,
    /// `REQ_BATCH` frames received.
    pub batches: u64,
    /// `REQ_STATS` frames received.
    pub stats: u64,
    /// `REQ_TELEMETRY` frames received.
    pub telemetry: u64,
    /// `REQ_PREDICT_BATCH` frames received.
    pub predicts: u64,
    /// `REQ_ROUTE` frames received.
    pub routes: u64,
    /// `REQ_HELLO` frames received.
    pub hello: u64,
    /// Frames carrying an unknown tag.
    pub unknown: u64,
}

/// Serving counters, exposed over the wire via `REQ_STATS`.
#[derive(Debug, Default)]
pub struct ServerStats {
    served: AtomicU64,
    cache_hits: AtomicU64,
    batches: AtomicU64,
    solver_states_expanded: AtomicU64,
    solver_states_pruned: AtomicU64,
    solver_simd_rows: AtomicU64,
    solver_scalar_rows: AtomicU64,
    solver_repair_hits: AtomicU64,
    solver_repair_full_resolves: AtomicU64,
    connections: AtomicU64,
    rejected: AtomicU64,
    active: AtomicU64,
    frames_trip: AtomicU64,
    frames_stats: AtomicU64,
    frames_telemetry: AtomicU64,
    frames_hello: AtomicU64,
    frames_unknown: AtomicU64,
    error_responses: AtomicU64,
    predict_frames: AtomicU64,
    frames_route: AtomicU64,
    routes_served: AtomicU64,
    route_cache_hits: AtomicU64,
    route_states_settled: AtomicU64,
    route_edges_expanded: AtomicU64,
    route_edges_pruned: AtomicU64,
    route_oracle_calls: AtomicU64,
    route_plan_memo_hits: AtomicU64,
    route_lb_cache_hits: AtomicU64,
    route_lb_cache_misses: AtomicU64,
    predictor_cache_hits: AtomicU64,
    predictor_trainings: AtomicU64,
    predictions: AtomicU64,
    buf_reuse: AtomicU64,
    buf_alloc: AtomicU64,
    plan_encode_skipped: AtomicU64,
    coalesce_hits: AtomicU64,
    coalesce_flights: AtomicU64,
    batch_flushes: AtomicU64,
    plan_evictions: AtomicU64,
    route_evictions: AtomicU64,
    /// Per-tenant `(served, rejected)` buckets, keyed by the tenant id the
    /// connection declared via `REQ_HELLO` (0 = anonymous). A plain mutex:
    /// touched once per answered trip, never on the solver hot path.
    tenants: std::sync::Mutex<HashMap<u32, (u64, u64)>>,
}

impl ServerStats {
    /// Trips answered with a profile so far (batch members count
    /// individually).
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// How many of those came straight from the plan cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Batch frames handled so far.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Connections accepted and admitted to a reactor shard so far.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Alias of [`Self::connections`] under the lifecycle-counter naming:
    /// accepted = admitted; see also [`Self::rejected`] and
    /// [`Self::active_connections`].
    pub fn accepted(&self) -> u64 {
        self.connections()
    }

    /// Connections refused at the `max_connections` ceiling (each received
    /// a `RESP_ERROR` frame instead of silently hanging).
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Connections currently registered with a reactor shard.
    pub fn active_connections(&self) -> u64 {
        self.active.load(Ordering::Relaxed)
    }

    /// Error frames sent back so far (rejected trips, malformed batches,
    /// unknown tags). Capacity refusals count under [`Self::rejected`]
    /// instead.
    pub fn error_responses(&self) -> u64 {
        self.error_responses.load(Ordering::Relaxed)
    }

    /// The inbound request mix, split by frame type.
    pub fn frame_counts(&self) -> FrameCounts {
        FrameCounts {
            trips: self.frames_trip.load(Ordering::Relaxed),
            batches: self.batches(),
            stats: self.frames_stats.load(Ordering::Relaxed),
            telemetry: self.frames_telemetry.load(Ordering::Relaxed),
            predicts: self.predict_frames.load(Ordering::Relaxed),
            routes: self.frames_route.load(Ordering::Relaxed),
            hello: self.frames_hello.load(Ordering::Relaxed),
            unknown: self.frames_unknown.load(Ordering::Relaxed),
        }
    }

    /// Route queries answered with a plan so far.
    pub fn routes(&self) -> u64 {
        self.routes_served.load(Ordering::Relaxed)
    }

    /// How many of those came straight from the route-frame cache (no
    /// search, no encode — the cached `RESP_ROUTE` bytes are cloned).
    pub fn route_cache_hits(&self) -> u64 {
        self.route_cache_hits.load(Ordering::Relaxed)
    }

    /// Aggregated [`RouteMetrics`] counters over every fresh (non-cached)
    /// route search: settled states, expanded/pruned edges, oracle calls,
    /// and the plan-memo / lower-bound-cache hit counters. An operator
    /// watching `oracle_calls` against `edges_expanded` spots a pruning or
    /// memoization regression without attaching a profiler.
    pub fn route_search(&self) -> RouteMetrics {
        RouteMetrics {
            states_settled: self.route_states_settled.load(Ordering::Relaxed),
            edges_expanded: self.route_edges_expanded.load(Ordering::Relaxed),
            edges_pruned: self.route_edges_pruned.load(Ordering::Relaxed),
            oracle_calls: self.route_oracle_calls.load(Ordering::Relaxed),
            plan_memo_hits: self.route_plan_memo_hits.load(Ordering::Relaxed),
            lb_cache_hits: self.route_lb_cache_hits.load(Ordering::Relaxed),
            lb_cache_misses: self.route_lb_cache_misses.load(Ordering::Relaxed),
        }
    }

    /// Folds one fresh route search's counters into the aggregate. The
    /// per-query `route.*` telemetry counters are published by the router
    /// itself; this keeps the `REQ_STATS`-style aggregate in lockstep.
    pub(crate) fn record_route(&self, metrics: &RouteMetrics) {
        self.route_states_settled
            .fetch_add(metrics.states_settled, Ordering::Relaxed);
        self.route_edges_expanded
            .fetch_add(metrics.edges_expanded, Ordering::Relaxed);
        self.route_edges_pruned
            .fetch_add(metrics.edges_pruned, Ordering::Relaxed);
        self.route_oracle_calls
            .fetch_add(metrics.oracle_calls, Ordering::Relaxed);
        self.route_plan_memo_hits
            .fetch_add(metrics.plan_memo_hits, Ordering::Relaxed);
        self.route_lb_cache_hits
            .fetch_add(metrics.lb_cache_hits, Ordering::Relaxed);
        self.route_lb_cache_misses
            .fetch_add(metrics.lb_cache_misses, Ordering::Relaxed);
    }

    /// Trips answered as single-flight followers: each waited on an
    /// identical in-flight request's solve instead of running its own, so
    /// each hit is a DP solve that never ran. Followers are not plan-cache
    /// hits.
    pub fn coalesce_hits(&self) -> u64 {
        self.coalesce_hits.load(Ordering::Relaxed)
    }

    /// Fresh solves led through the in-flight table: one per trip that
    /// missed the cache with nothing identical in flight, and passed
    /// validation (the denominator for the dedupe ratio:
    /// `hits / (hits + flights)`).
    pub fn coalesce_flights(&self) -> u64 {
        self.coalesce_flights.load(Ordering::Relaxed)
    }

    /// Coalescing windows flushed to the batch solver (by size or timeout).
    pub fn batch_flushes(&self) -> u64 {
        self.batch_flushes.load(Ordering::Relaxed)
    }

    /// Plan-cache entries evicted to keep the cache within its byte budget.
    pub fn plan_cache_evictions(&self) -> u64 {
        self.plan_evictions.load(Ordering::Relaxed)
    }

    /// Route-frame-cache entries evicted to keep the cache within its byte
    /// budget.
    pub fn route_cache_evictions(&self) -> u64 {
        self.route_evictions.load(Ordering::Relaxed)
    }

    /// Plans served to `tenant` (cache hits, followers and leaders all
    /// count; a tenant is whatever id the connection declared via
    /// `REQ_HELLO`, 0 = anonymous).
    pub fn tenant_served(&self, tenant: u32) -> u64 {
        self.tenants
            .lock()
            .expect("tenant stats lock")
            .get(&tenant)
            .map_or(0, |(served, _)| *served)
    }

    /// Requests refused to `tenant` at its admission ceiling
    /// (`tenant_max_inflight`).
    pub fn tenant_rejected(&self, tenant: u32) -> u64 {
        self.tenants
            .lock()
            .expect("tenant stats lock")
            .get(&tenant)
            .map_or(0, |(_, rejected)| *rejected)
    }

    /// Volume-forecast values served so far (`queries × horizons`, summed
    /// over every `REQ_PREDICT_BATCH`).
    pub fn predictions(&self) -> u64 {
        self.predictions.load(Ordering::Relaxed)
    }

    /// How the predictor cache behaved: `(cache hits, trainings)`. A
    /// training is one full SAE fit — the expensive path a warm cache
    /// avoids.
    pub fn predictor_cache(&self) -> (u64, u64) {
        (
            self.predictor_cache_hits.load(Ordering::Relaxed),
            self.predictor_trainings.load(Ordering::Relaxed),
        )
    }

    /// Response-buffer pool behavior: `(reuses, allocations)`. Steady state
    /// should be nearly all reuses; the allocation count is the pool's
    /// high-water mark plus burst overflow.
    pub fn buffer_pool(&self) -> (u64, u64) {
        (
            self.buf_reuse.load(Ordering::Relaxed),
            self.buf_alloc.load(Ordering::Relaxed),
        )
    }

    /// Plan responses served by cloning the cached frame encoding — repeat
    /// trips skip `encode_profile` entirely.
    pub fn plan_encode_skipped(&self) -> u64 {
        self.plan_encode_skipped.load(Ordering::Relaxed)
    }

    /// Counts one inbound frame by tag, mirrored into the telemetry
    /// registry's `cloud.req.*` counters.
    pub(crate) fn record_frame(&self, tag: u8) {
        match tag {
            tags::REQ_TRIP => {
                self.frames_trip.fetch_add(1, Ordering::Relaxed);
                telemetry::add("cloud.req.trip", 1);
            }
            tags::REQ_BATCH => {
                // `batches` itself is counted in `handle_batch` (which unit
                // tests also call directly, without a connection).
                telemetry::add("cloud.req.batch", 1);
            }
            tags::REQ_STATS => {
                self.frames_stats.fetch_add(1, Ordering::Relaxed);
                telemetry::add("cloud.req.stats", 1);
            }
            tags::REQ_TELEMETRY => {
                self.frames_telemetry.fetch_add(1, Ordering::Relaxed);
                telemetry::add("cloud.req.telemetry", 1);
            }
            tags::REQ_PREDICT_BATCH => {
                // `predict_frames` itself is counted in
                // `handle_predict_batch` (unit tests call it directly).
                telemetry::add("cloud.req.predict_batch", 1);
            }
            tags::REQ_ROUTE => {
                self.frames_route.fetch_add(1, Ordering::Relaxed);
                telemetry::add("cloud.req.route", 1);
            }
            tags::REQ_HELLO => {
                self.frames_hello.fetch_add(1, Ordering::Relaxed);
                telemetry::add("cloud.req.hello", 1);
            }
            _ => {
                self.frames_unknown.fetch_add(1, Ordering::Relaxed);
                telemetry::add("cloud.req.unknown", 1);
            }
        }
    }

    pub(crate) fn record_error_response(&self) {
        self.error_responses.fetch_add(1, Ordering::Relaxed);
        telemetry::add("cloud.resp.error", 1);
    }

    /// One connection admitted past the capacity check.
    pub(crate) fn record_admitted(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
        self.active.fetch_add(1, Ordering::Relaxed);
        telemetry::add("cloud.connections", 1);
    }

    /// One connection refused at the `max_connections` ceiling.
    pub(crate) fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        telemetry::add("cloud.rejected", 1);
    }

    /// One admitted connection left (closed, errored, or shed at
    /// shutdown).
    pub(crate) fn record_disconnect(&self) {
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn record_buf_reuse(&self) {
        self.buf_reuse.fetch_add(1, Ordering::Relaxed);
        telemetry::add("cloud.buf.reuse", 1);
    }

    pub(crate) fn record_buf_alloc(&self) {
        self.buf_alloc.fetch_add(1, Ordering::Relaxed);
        telemetry::add("cloud.buf.alloc", 1);
    }

    /// Aggregated [`SolverMetrics`](velopt_core::metrics::SolverMetrics)
    /// counters over every fresh (non-cached) solve: `(states expanded,
    /// states pruned)`. An operator watching these spot a pruning
    /// regression without attaching a profiler.
    pub fn solver_states(&self) -> (u64, u64) {
        (
            self.solver_states_expanded.load(Ordering::Relaxed),
            self.solver_states_pruned.load(Ordering::Relaxed),
        )
    }

    pub(crate) fn record_solve(&self, metrics: &velopt_core::metrics::SolverMetrics) {
        self.solver_states_expanded
            .fetch_add(metrics.states_expanded, Ordering::Relaxed);
        self.solver_states_pruned
            .fetch_add(metrics.states_pruned, Ordering::Relaxed);
        self.solver_simd_rows
            .fetch_add(metrics.simd_rows, Ordering::Relaxed);
        self.solver_scalar_rows
            .fetch_add(metrics.scalar_rows, Ordering::Relaxed);
        self.solver_repair_hits
            .fetch_add(metrics.repair_hits, Ordering::Relaxed);
        self.solver_repair_full_resolves
            .fetch_add(metrics.repair_full_resolves, Ordering::Relaxed);
    }

    /// Relax-kernel dispatch mix over every fresh solve: `(rows through
    /// the AVX2 microkernels, rows through the scalar kernel)`. An
    /// all-scalar split on AVX2 hardware means `VELOPT_DP_SIMD` (or
    /// `DpConfig::simd`) disabled vectorization on the serving path.
    pub fn dp_simd_rows(&self) -> (u64, u64) {
        (
            self.solver_simd_rows.load(Ordering::Relaxed),
            self.solver_scalar_rows.load(Ordering::Relaxed),
        )
    }

    /// Warm-start repair behavior over every fresh solve: `(window
    /// refreshes served by dirty-suffix repair, refreshes that fell back
    /// to a full retention re-solve)`. Stateless per-request serving
    /// reports zeros — repair only engages on arena-retained refreshes.
    pub fn dp_repair(&self) -> (u64, u64) {
        (
            self.solver_repair_hits.load(Ordering::Relaxed),
            self.solver_repair_full_resolves.load(Ordering::Relaxed),
        )
    }

    /// `n` more trips answered with a profile.
    pub(crate) fn record_served(&self, n: u64) {
        self.served.fetch_add(n, Ordering::Relaxed);
    }

    /// `n` trips answered by cloning a cached frame (no solve, no encode).
    pub(crate) fn record_plan_cache_hits(&self, n: u64) {
        self.cache_hits.fetch_add(n, Ordering::Relaxed);
        self.plan_encode_skipped.fetch_add(n, Ordering::Relaxed);
        telemetry::add("cloud.plan.encode_skipped", n);
    }

    /// `n` fresh solves led through the in-flight table.
    pub(crate) fn record_flights(&self, n: u64) {
        self.coalesce_flights.fetch_add(n, Ordering::Relaxed);
        telemetry::add("cloud.coalesce.flights", n);
    }

    /// `n` followers answered by their leader's landing.
    pub(crate) fn record_followers(&self, n: u64) {
        self.coalesce_hits.fetch_add(n, Ordering::Relaxed);
        telemetry::add("cloud.coalesce.hits", n);
    }

    /// One coalescing window flushed, `flights` of its keys needing a
    /// fresh solve (the rest were answered by a late cache hit).
    pub(crate) fn record_flush(&self, flights: u64) {
        self.record_flights(flights);
        self.batch_flushes.fetch_add(1, Ordering::Relaxed);
        telemetry::add("cloud.batch.flushes", 1);
        telemetry::observe("cloud.batch.size", flights as f64);
    }

    pub(crate) fn record_plan_evictions(&self, n: u64) {
        self.plan_evictions.fetch_add(n, Ordering::Relaxed);
        telemetry::add("cloud.plan.evictions", n);
    }

    fn record_route_evictions(&self, n: u64) {
        self.route_evictions.fetch_add(n, Ordering::Relaxed);
        telemetry::add("cloud.route.evictions", n);
    }

    /// One plan delivered to `tenant`.
    pub(crate) fn record_tenant_served(&self, tenant: u32) {
        self.tenants
            .lock()
            .expect("tenant stats lock")
            .entry(tenant)
            .or_insert((0, 0))
            .0 += 1;
    }

    /// One request refused to `tenant` at its admission ceiling.
    pub(crate) fn record_tenant_rejected(&self, tenant: u32) {
        self.tenants
            .lock()
            .expect("tenant stats lock")
            .entry(tenant)
            .or_insert((0, 0))
            .1 += 1;
        telemetry::add("cloud.tenant.rejected", 1);
    }
}

/// The shared routing tier. One process-wide [`Router`] serves every
/// `REQ_ROUTE`: its edge-plan memo and certified lower-bound cache are
/// keyed on `(corridor signature, departure bin)`, so two fleet queries
/// that share a corridor class share its solved plans even across
/// different graphs. On top of that sits a byte-keyed frame cache
/// mirroring the trip [`PlanCache`]: a repeat query (identical request
/// bytes) is answered by cloning the cached `RESP_ROUTE` frame — no
/// search, no encode.
pub(crate) struct RouteService {
    /// The router, serialized behind a mutex: route searches share warm
    /// caches rather than racing cold ones, and the per-edge DP solves
    /// inside one search already fan out over the compute cores.
    router: Mutex<Router>,
    /// The router's DP configuration, for the lattice check.
    config: DpConfig,
    frames: FrameCache,
}

impl RouteService {
    pub(crate) fn new(optimizer: DpOptimizer) -> Result<Self> {
        let config = *optimizer.config();
        Ok(Self {
            router: Mutex::new(Router::new(optimizer, RouteConfig::default())?),
            config,
            frames: FrameCache::new(ROUTE_CACHE_BYTES),
        })
    }
}

/// Trained volume predictors keyed by `(station seed, train weeks, lags)`.
/// Training an SAE is orders of magnitude more expensive than querying it,
/// so every connection shares one cache of [`Arc`]ed predictors and the
/// batched inference path runs on a clone of the handle outside the lock.
type PredictorCache = RwLock<HashMap<(u64, u32, u32), Arc<VolumePredictor>>>;

/// Tuning knobs for [`CloudServer::spawn_with`]. `..Default::default()`
/// fills unspecified fields.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Threads running DP solves and SAE predictions (must be ≥ 1).
    pub compute_workers: usize,
    /// Reactor shards (epoll instances). `0` = auto: one per available
    /// core, capped at 4 — I/O shards saturate long before compute.
    pub shards: usize,
    /// Hard ceiling on concurrently admitted connections; connection
    /// number `max_connections + 1` receives a `RESP_ERROR` frame and is
    /// closed instead of hanging (must be ≥ 1).
    pub max_connections: usize,
    /// Response buffers each shard's pool retains for reuse.
    pub buffer_pool_capacity: usize,
    /// How long a `REQ_TRIP` that leads a new solve may wait in the
    /// coalescing window for near-simultaneous requests before the window
    /// is flushed to the batch solver. Identical requests single-flight
    /// whatever this is: a miss whose key is already being solved waits
    /// for that solve. `Duration::ZERO` (the default) turns off only the
    /// batching and the tenant admission: a leader solves inline on its
    /// worker.
    pub coalesce_window: std::time::Duration,
    /// Flush the coalescing window as soon as it holds this many waiting
    /// requests, without waiting out `coalesce_window` (must be ≥ 1 when
    /// coalescing is enabled).
    pub batch_max: usize,
    /// Per-tenant admission ceiling: at most this many of one tenant's
    /// requests may wait in the coalescing window at once; the next one
    /// is refused with `RESP_ERROR` so a greedy tenant cannot starve the
    /// others. `0` = unlimited. Tenants declare themselves via
    /// `REQ_HELLO`; connections that never do share tenant 0.
    pub tenant_max_inflight: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            compute_workers: 4,
            shards: 0,
            max_connections: 1024,
            buffer_pool_capacity: 64,
            coalesce_window: std::time::Duration::ZERO,
            batch_max: 16,
            tenant_max_inflight: 0,
        }
    }
}

/// The vehicular-cloud optimization server.
///
/// See the crate-level example.
#[derive(Debug)]
pub struct CloudServer {
    addr: SocketAddr,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    accept_waker: Arc<Waker>,
    shard_wakers: Vec<Arc<Waker>>,
    acceptor: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    desk: Arc<Coalescer>,
    flusher: Option<JoinHandle<()>>,
    planner: Arc<Planner>,
}

impl CloudServer {
    /// Binds an ephemeral localhost port and spawns `workers` compute
    /// workers with default reactor settings — shorthand for
    /// [`Self::spawn_with`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for zero workers and [`Error::Io`]
    /// if the port cannot be bound.
    pub fn spawn(workers: usize) -> Result<Self> {
        Self::spawn_with(ServerConfig {
            compute_workers: workers,
            ..ServerConfig::default()
        })
    }

    /// Binds an ephemeral localhost port and spawns the full serving tier:
    /// acceptor, reactor shards, and compute workers.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for zero compute workers or a zero
    /// connection ceiling, and [`Error::Io`] if the port or the epoll/
    /// eventfd plumbing cannot be set up.
    pub fn spawn_with(config: ServerConfig) -> Result<Self> {
        if config.compute_workers == 0 {
            return Err(Error::invalid_input("need at least one worker"));
        }
        if config.max_connections == 0 {
            return Err(Error::invalid_input("need max_connections >= 1"));
        }
        if config.coalesce_window > std::time::Duration::ZERO && config.batch_max == 0 {
            return Err(Error::invalid_input(
                "need batch_max >= 1 when coalescing is enabled",
            ));
        }
        let shard_count = if config.shards == 0 {
            velopt_common::par::effective_threads(0).clamp(1, 4)
        } else {
            config.shards
        };

        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ServerStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let cache = Arc::new(FrameCache::new(PLAN_CACHE_BYTES));
        let predictors: Arc<PredictorCache> = Arc::new(RwLock::new(HashMap::new()));
        // The one optimizer construction of the server's life: every solve
        // runs on it, on a pooled warm arena.
        let planner = Arc::new(Planner::new(config.compute_workers)?);
        let routes = Arc::new(RouteService::new(planner.optimizer().clone())?);

        // Compute-pool channel: shards produce decoded frames, workers
        // consume them. Unbounded so a shard thread can never block on
        // dispatch (per-connection pending caps bound it to
        // connections × 1 in practice).
        let (jobs_tx, jobs_rx) = unbounded::<Job>();

        // Build every shard's plumbing first so any setup error surfaces
        // before a single thread is spawned.
        let mut shard_parts = Vec::with_capacity(shard_count);
        let mut handles = Vec::with_capacity(shard_count);
        let mut shard_wakers = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let poller = Poller::new()?;
            let waker = Arc::new(Waker::new()?);
            crate::reactor::register_waker(&poller, &waker)?;
            let pool = Arc::new(BufferPool::new(
                config.buffer_pool_capacity,
                Arc::clone(&stats),
            ));
            let (tx, rx) = unbounded::<ShardMsg>();
            handles.push(ShardHandle {
                tx,
                waker: Arc::clone(&waker),
                pool: Arc::clone(&pool),
            });
            shard_wakers.push(Arc::clone(&waker));
            shard_parts.push((poller, waker, rx, pool));
        }
        let handles = Arc::new(handles);

        // Every `REQ_TRIP` goes through the trip desk's in-flight table.
        // With a coalescing window, leaders wait there to be batched and a
        // dedicated flusher thread handles timeout-triggered flushes
        // (size-triggered flushes run inline on the worker that filled the
        // window).
        let desk = Arc::new(Coalescer::new(
            config.coalesce_window,
            config.batch_max,
            config.tenant_max_inflight,
            Arc::clone(&handles),
            Arc::clone(&stats),
            Arc::clone(&cache),
            Arc::clone(&planner),
        ));
        let flusher = desk.batches().then(|| {
            let desk = Arc::clone(&desk);
            std::thread::spawn(move || desk.run_flusher())
        });

        let accept_poller = Poller::new()?;
        let accept_waker = Arc::new(Waker::new()?);
        crate::reactor::register_waker(&accept_poller, &accept_waker)?;
        accept_poller.add(listener.as_raw_fd_compat(), 0, polling::Interest::READ)?;

        let shard_threads: Vec<JoinHandle<()>> = shard_parts
            .into_iter()
            .enumerate()
            .map(|(id, (poller, waker, inbox, pool))| {
                let shard = Shard {
                    id,
                    poller,
                    waker,
                    inbox,
                    jobs: jobs_tx.clone(),
                    pool,
                    stats: Arc::clone(&stats),
                    stop: Arc::clone(&stop),
                };
                std::thread::spawn(move || shard.run())
            })
            .collect();
        // Shards hold the only job senders now; once they exit, workers
        // drain the queue and see disconnect.
        drop(jobs_tx);

        let worker_threads: Vec<JoinHandle<()>> = (0..config.compute_workers)
            .map(|_| {
                let jobs = jobs_rx.clone();
                let ctx = WorkerCtx {
                    shards: Arc::clone(&handles),
                    stats: Arc::clone(&stats),
                    cache: Arc::clone(&cache),
                    planner: Arc::clone(&planner),
                    predictors: Arc::clone(&predictors),
                    routes: Arc::clone(&routes),
                    desk: Arc::clone(&desk),
                };
                std::thread::spawn(move || ctx.run(jobs))
            })
            .collect();

        let acceptor = Acceptor {
            listener,
            poller: accept_poller,
            waker: Arc::clone(&accept_waker),
            shards: handles,
            stats: Arc::clone(&stats),
            stop: Arc::clone(&stop),
            max_connections: config.max_connections,
        };
        let acceptor = std::thread::spawn(move || acceptor.run());

        Ok(Self {
            addr,
            stats,
            stop,
            accept_waker,
            shard_wakers,
            acceptor: Some(acceptor),
            shards: shard_threads,
            workers: worker_threads,
            desk,
            flusher,
            planner,
        })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live serving counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Stops accepting, sheds connections, and joins every thread.
    /// Idempotent: dropping the server after (or instead of) calling this
    /// performs the same orderly teardown exactly once.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    /// The single teardown path, shared by [`Self::shutdown`] and `Drop`.
    /// Wakes every reactor thread through its eventfd (no TCP self-connect
    /// involved) and joins; a second call finds the handles already taken
    /// and does nothing.
    fn shutdown_impl(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return; // already torn down
        }
        let _ = self.accept_waker.wake();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for waker in &self.shard_wakers {
            let _ = waker.wake();
        }
        for h in self.shards.drain(..) {
            let _ = h.join();
        }
        // Shard exits dropped the last job senders; workers drain what is
        // queued and see the disconnect.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Workers are gone, so nothing can enqueue into the coalescing
        // window anymore; stop the flusher last. Still-parked waiters
        // belong to connections the shards already shed.
        self.desk.stop();
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        }
        // No solve can run anymore: give the warm arenas' memory back.
        self.planner.release();
    }
}

impl Drop for CloudServer {
    fn drop(&mut self) {
        // Safe to block: every thread is parked on epoll/eventfd or the
        // jobs channel and wakes immediately; there is no lingering
        // self-connect and no double teardown after `shutdown()`.
        self.shutdown_impl();
    }
}

// `TcpListener::as_raw_fd` lives in a platform-specific trait; this tiny
// shim keeps the single call site readable.
trait AsRawFdCompat {
    fn as_raw_fd_compat(&self) -> std::os::fd::RawFd;
}

impl AsRawFdCompat for TcpListener {
    fn as_raw_fd_compat(&self) -> std::os::fd::RawFd {
        use std::os::fd::AsRawFd;
        self.as_raw_fd()
    }
}

/// What a compute worker serves requests with: the shared caches, the warm
/// planner, and the trip desk every `REQ_TRIP` goes through.
struct WorkerCtx {
    shards: Arc<Vec<ShardHandle>>,
    stats: Arc<ServerStats>,
    cache: Arc<FrameCache>,
    planner: Arc<Planner>,
    predictors: Arc<PredictorCache>,
    routes: Arc<RouteService>,
    desk: Arc<Coalescer>,
}

impl WorkerCtx {
    /// Compute-worker body: take a decoded frame and produce its response.
    /// A trip goes to the desk, which answers it (now, or when its flight
    /// lands); every other frame is answered here and handed back to the
    /// owning shard.
    fn run(self, jobs: Receiver<Job>) {
        while let Ok(job) = jobs.recv() {
            let request_span = telemetry::span("cloud.request_seconds");
            if job.tag == tags::REQ_TRIP {
                self.desk.submit(job);
                continue;
            }
            let shard = &self.shards[job.shard];
            let frame = self.respond(job.tag, job.payload, &shard.pool);
            drop(request_span);
            let delivered = shard
                .tx
                .send(ShardMsg::Response {
                    conn: job.conn,
                    gen: job.gen,
                    frame,
                })
                .is_ok();
            if delivered {
                let _ = shard.waker.wake();
            }
            // If the shard is gone (shutdown), the response is dropped with it.
        }
    }

    /// Builds the complete response frame for one non-trip request frame.
    /// Every path returns wire-ready bytes — header, tag, payload.
    fn respond(&self, tag: u8, mut payload: Bytes, pool: &BufferPool) -> FrameBuf {
        let stats = &self.stats;
        match tag {
            tags::REQ_ROUTE => match handle_route(&mut payload, stats, &self.routes) {
                Ok(frame) => FrameBuf::Shared(frame),
                Err(e) => error_frame(stats, pool, &e.to_string()),
            },
            tags::REQ_BATCH => {
                match handle_batch(&mut payload, stats, &self.cache, &self.planner) {
                    Ok(response) => {
                        let mut buf = pool.acquire();
                        let encode_span = telemetry::span("cloud.encode_seconds");
                        encode_frame_into(&mut buf, tags::RESP_BATCH, |b| response.encode_into(b));
                        drop(encode_span);
                        FrameBuf::Pooled(buf)
                    }
                    Err(e) => error_frame(stats, pool, &e.to_string()),
                }
            }
            tags::REQ_PREDICT_BATCH => {
                match handle_predict_batch(&mut payload, stats, &self.predictors) {
                    Ok(response) => {
                        let mut buf = pool.acquire();
                        let encode_span = telemetry::span("cloud.encode_seconds");
                        encode_frame_into(&mut buf, tags::RESP_PREDICT_BATCH, |b| {
                            response.encode_into(b)
                        });
                        drop(encode_span);
                        FrameBuf::Pooled(buf)
                    }
                    Err(e) => error_frame(stats, pool, &e.to_string()),
                }
            }
            tags::REQ_STATS => {
                let mut buf = pool.acquire();
                encode_frame_into(&mut buf, tags::RESP_STATS, |b| {
                    b.put_u64(stats.served());
                    b.put_u64(stats.cache_hits());
                });
                FrameBuf::Pooled(buf)
            }
            tags::REQ_TELEMETRY => {
                let mut buf = pool.acquire();
                encode_frame_into(&mut buf, tags::RESP_TELEMETRY, |b| {
                    b.extend_from_slice(telemetry::snapshot_json().as_bytes())
                });
                FrameBuf::Pooled(buf)
            }
            other => error_frame(stats, pool, &format!("unknown request tag {other}")),
        }
    }
}

pub(crate) fn error_frame(stats: &ServerStats, pool: &BufferPool, message: &str) -> FrameBuf {
    stats.record_error_response();
    let mut buf = pool.acquire();
    encode_frame_into(&mut buf, tags::RESP_ERROR, |b| {
        b.extend_from_slice(message.as_bytes())
    });
    FrameBuf::Pooled(buf)
}

/// Encodes a profile's complete `RESP_PROFILE` frame once, for the cache.
pub(crate) fn plan_frame(profile: &OptimizedProfile) -> Bytes {
    let encode_span = telemetry::span("cloud.encode_seconds");
    let mut buf = BytesMut::new();
    encode_frame_into(&mut buf, tags::RESP_PROFILE, |b| encode_profile(profile, b));
    drop(encode_span);
    buf.freeze()
}

/// Answers one `REQ_ROUTE`. Repeat queries (byte-identical requests) are
/// served by cloning the cached `RESP_ROUTE` frame; fresh queries pass the
/// lattice check on every edge, rebuild the graph, run the A* search on
/// the shared router — whose edge-plan memo and lower-bound cache persist
/// across every query the server has seen — and join the frame cache on
/// the way out.
fn handle_route(payload: &mut Bytes, stats: &ServerStats, routes: &RouteService) -> Result<Bytes> {
    let key = payload.clone();
    if let Some(hit) = routes.frames.get(&key) {
        stats.routes_served.fetch_add(1, Ordering::Relaxed);
        stats.route_cache_hits.fetch_add(1, Ordering::Relaxed);
        telemetry::add("cloud.route.cache_hits", 1);
        return Ok(hit);
    }
    let decode_span = telemetry::span("cloud.decode_seconds");
    let request = RouteNetRequest::decode(payload)?;
    drop(decode_span);
    for (_, _, road) in &request.edges {
        check_lattice(road, &routes.config)?;
    }
    let graph = request.to_graph()?;
    let query = RouteQuery {
        origin: NodeId(request.origin),
        dest: NodeId(request.dest),
        depart: request.depart,
    };
    let plan_span = telemetry::span("cloud.route_seconds");
    let plan = routes.router.lock().plan(&graph, query)?;
    drop(plan_span);
    stats.record_route(&plan.metrics);
    let response = RouteNetResponse::from_plan(&plan);
    let encode_span = telemetry::span("cloud.encode_seconds");
    let mut buf = BytesMut::new();
    encode_frame_into(&mut buf, tags::RESP_ROUTE, |b| response.encode_into(b));
    drop(encode_span);
    let frame = buf.freeze();
    stats.record_route_evictions(routes.frames.insert(&key, frame.clone()));
    stats.routes_served.fetch_add(1, Ordering::Relaxed);
    Ok(frame)
}

/// The profile inside a cached `RESP_PROFILE` frame.
fn cached_profile(frame: &Bytes) -> std::result::Result<OptimizedProfile, String> {
    decode_profile(&mut frame.slice(5..)).map_err(|e| e.to_string())
}

/// Plans a whole batch in one go: cached trips are answered immediately,
/// each distinct miss fans out over the cores on pooled arenas, and per-trip
/// failures come back as error entries in request order (they never sink
/// the batch). A member whose request bytes repeat an earlier miss of the
/// same batch is answered with a clone of that member's result, plan or
/// error, and counts as a coalesce hit, like a single-flight follower.
fn handle_batch(
    payload: &mut Bytes,
    stats: &ServerStats,
    cache: &FrameCache,
    planner: &Planner,
) -> Result<BatchPlanResponse> {
    let decode_span = telemetry::span("cloud.decode_seconds");
    let batch = BatchPlanRequest::decode(payload)?;
    drop(decode_span);
    stats.batches.fetch_add(1, Ordering::Relaxed);
    let n = batch.trips.len();
    let mut results: Vec<Option<std::result::Result<OptimizedProfile, String>>> =
        (0..n).map(|_| None).collect();

    // Cache pass first — a batch member's key is its canonical encoding,
    // the same bytes a single `REQ_TRIP` for that trip would carry.
    let keys: Vec<Bytes> = batch.trips.iter().map(|t| t.encode()).collect();
    for (i, key) in keys.iter().enumerate() {
        if let Some(hit) = cache.get(key) {
            stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            results[i] = Some(cached_profile(&hit));
        }
    }

    // Admit each distinct miss once; invalid trips become error entries
    // right here, and repeats wait on their first occurrence.
    let mut admitted = Vec::new();
    let mut members = Vec::new();
    let mut first: HashMap<&[u8], usize> = HashMap::new();
    let mut repeats = Vec::new();
    for (i, trip) in batch.trips.iter().enumerate() {
        if results[i].is_some() {
            continue;
        }
        if let Some(&leader) = first.get(&keys[i][..]) {
            repeats.push((i, leader));
            continue;
        }
        first.insert(&keys[i][..], i);
        match planner.admit(trip) {
            Ok(trip) => {
                admitted.push(trip);
                members.push(i);
            }
            Err(e) => results[i] = Some(Err(e.to_string())),
        }
    }

    let plan_span = telemetry::span("cloud.plan_seconds");
    let planned_batch = planner.solve_batch(&admitted);
    drop(plan_span);
    for (&i, planned) in members.iter().zip(planned_batch) {
        match planned {
            Ok(profile) => {
                stats.record_solve(&profile.metrics);
                // Fresh batch members join the plan cache with their frame
                // encoding, so a later single REQ_TRIP for the same trip is
                // a zero-encode hit.
                stats.record_plan_evictions(cache.insert(&keys[i], plan_frame(&profile)));
                results[i] = Some(Ok(profile));
            }
            Err(e) => results[i] = Some(Err(e.to_string())),
        }
    }
    for &(i, leader) in &repeats {
        results[i] = results[leader].clone();
    }
    stats.record_followers(repeats.len() as u64);
    stats.served.fetch_add(n as u64, Ordering::Relaxed);
    Ok(BatchPlanResponse {
        results: results.into_iter().flatten().collect(),
    })
}

/// The SAE recipe the service trains cache misses with: mini-batch SGD on
/// the gemm kernels, sized for serving latency rather than paper-figure
/// fidelity (the full recipe lives in `SaePredictorConfig::default`).
fn service_predictor_config(lags: usize) -> SaePredictorConfig {
    let sgd = |epochs| SgdConfig {
        epochs,
        learning_rate: 0.05,
        momentum: 0.9,
        batch_size: 16,
    };
    SaePredictorConfig {
        lags,
        sae: SaeConfig {
            hidden_layers: vec![16, 8],
            pretrain: sgd(6),
            finetune: sgd(40),
            ..SaeConfig::default()
        },
    }
}

/// Answers a volume-forecast batch from the shared predictor cache,
/// training (and caching) a predictor on the first request for a given
/// `(station seed, train weeks, lags)`. Inference runs outside the cache
/// lock on a cloned [`Arc`], so a slow training never blocks forecasts
/// against already-warm predictors.
fn handle_predict_batch(
    payload: &mut Bytes,
    stats: &ServerStats,
    predictors: &PredictorCache,
) -> Result<PredictBatchResponse> {
    let decode_span = telemetry::span("cloud.decode_seconds");
    let request = PredictBatchRequest::decode(payload)?;
    drop(decode_span);
    stats.predict_frames.fetch_add(1, Ordering::Relaxed);
    request.validated()?;
    if request.queries.is_empty() {
        return Ok(PredictBatchResponse::default());
    }
    let lags = request.queries[0].history.len() as u32;
    let key = (request.station_seed, request.train_weeks, lags);
    // Look up and drop the read guard before the (possibly training) miss
    // path: an `if let` on the guard itself would hold it across the
    // `write()` below and self-deadlock.
    let cached = predictors.read().get(&key).map(Arc::clone);
    let predictor = if let Some(hit) = cached {
        stats.predictor_cache_hits.fetch_add(1, Ordering::Relaxed);
        telemetry::add("cloud.predictor.cache_hits", 1);
        hit
    } else {
        let train_span = telemetry::span("cloud.predictor_train_seconds");
        let feed = VolumeGenerator::us25_station(request.station_seed)
            .generate_weeks(request.train_weeks as usize)?;
        let trained = Arc::new(VolumePredictor::train(
            &feed,
            &service_predictor_config(lags as usize),
        )?);
        drop(train_span);
        stats.predictor_trainings.fetch_add(1, Ordering::Relaxed);
        telemetry::add("cloud.predictor.trainings", 1);
        // A concurrent training of the same key may have won the race;
        // keep whichever landed first so repeat queries stay consistent.
        Arc::clone(
            predictors
                .write()
                .entry(key)
                .or_insert_with(|| Arc::clone(&trained)),
        )
    };
    let queries: Vec<VolumeQuery> = request
        .queries
        .iter()
        .map(|q| VolumeQuery {
            history: q.history.clone(),
            hour_index: q.hour_index as usize,
        })
        .collect();
    let predict_span = telemetry::span("cloud.predict_seconds");
    let rows = predictor.predict_batch(&queries, request.horizons as usize)?;
    drop(predict_span);
    let volumes: Vec<Vec<f64>> = rows
        .into_iter()
        .map(|row| row.into_iter().map(|v| v.value()).collect())
        .collect();
    let served = (volumes.len() * request.horizons as usize) as u64;
    stats.predictions.fetch_add(served, Ordering::Relaxed);
    telemetry::add("cloud.predictions", served);
    Ok(PredictBatchResponse { volumes })
}

// Integration-style tests live with the client (`client.rs`) and in
// `tests/` so they exercise the full wire path; protocol unit tests live in
// `protocol.rs`.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::testing::TestDesk;
    use crate::planner::corridor_optimizer;
    use crate::protocol::TripRequest;

    fn route_service() -> RouteService {
        RouteService::new(corridor_optimizer().unwrap()).unwrap()
    }

    #[test]
    fn zero_workers_rejected() {
        assert!(CloudServer::spawn(0).is_err());
        assert!(CloudServer::spawn_with(ServerConfig {
            compute_workers: 0,
            ..ServerConfig::default()
        })
        .is_err());
        assert!(CloudServer::spawn_with(ServerConfig {
            max_connections: 0,
            ..ServerConfig::default()
        })
        .is_err());
    }

    #[test]
    fn stats_start_at_zero() {
        let server = CloudServer::spawn(1).unwrap();
        assert_eq!(server.stats().served(), 0);
        assert_eq!(server.stats().cache_hits(), 0);
        assert_eq!(server.stats().accepted(), 0);
        assert_eq!(server.stats().rejected(), 0);
        assert_eq!(server.stats().active_connections(), 0);
        assert_eq!(server.stats().plan_encode_skipped(), 0);
        server.shutdown();
    }

    #[test]
    fn shutdown_then_drop_is_idempotent() {
        let server = CloudServer::spawn(1).unwrap();
        server.shutdown(); // consumes; Drop runs right after and must no-op
        let server = CloudServer::spawn(1).unwrap();
        drop(server); // never explicitly shut down; Drop joins cleanly
    }

    #[test]
    fn batch_handler_mixes_cache_fresh_and_errors() {
        let t = TestDesk::new(std::time::Duration::ZERO);
        let stats = &t.stats;

        // Prime the cache with the t=0 trip through the single-trip path.
        let frame = t.trip(0, &TripRequest::us25_at(0.0).encode());
        let cached_plan = decode_profile(&mut Bytes::from(frame[5..].to_vec())).unwrap();

        let mut invalid = TripRequest::us25_at(30.0);
        invalid.rates.pop(); // arity mismatch
        let batch = BatchPlanRequest {
            trips: vec![
                TripRequest::us25_at(0.0),
                invalid,
                TripRequest::us25_at(60.0),
            ],
        };
        let mut payload = batch.encode();
        let response = handle_batch(&mut payload, stats, &t.cache, &t.planner).unwrap();
        assert_eq!(response.results.len(), 3);
        // Member 0 came from the cache (same plan, one more hit).
        assert_eq!(response.results[0].as_ref().unwrap(), &cached_plan);
        assert_eq!(stats.cache_hits(), 1);
        // Member 1 failed alone.
        assert!(response.results[1].as_ref().unwrap_err().contains("rates"));
        // Member 2 was solved fresh and is now cached with its frame.
        assert!(response.results[2].is_ok());
        assert_eq!(stats.served(), 1 + 3);
        assert_eq!(stats.batches(), 1);
        let key = TripRequest::us25_at(60.0).encode();
        let entry = cached_profile(&t.cache.get(&key).unwrap()).unwrap();
        assert_eq!(&entry, response.results[2].as_ref().unwrap());
    }

    #[test]
    fn predict_handler_trains_once_then_hits_the_cache() {
        use crate::protocol::PredictQuery;
        let stats = ServerStats::default();
        let predictors: PredictorCache = RwLock::new(HashMap::new());
        let feed = VolumeGenerator::us25_station(11).generate_weeks(2).unwrap();
        let lags = 12;
        let request = PredictBatchRequest {
            station_seed: 11,
            train_weeks: 2,
            horizons: 3,
            queries: vec![
                PredictQuery {
                    history: feed.samples()[..lags].to_vec(),
                    hour_index: lags as u64,
                },
                PredictQuery {
                    history: feed.samples()[feed.len() - lags..].to_vec(),
                    hour_index: feed.len() as u64,
                },
            ],
        };
        let mut payload = request.encode();
        let first = handle_predict_batch(&mut payload, &stats, &predictors).unwrap();
        assert_eq!(first.volumes.len(), 2);
        assert!(first
            .volumes
            .iter()
            .all(|row| row.len() == 3 && row.iter().all(|v| v.is_finite() && *v >= 0.0)));
        assert_eq!(stats.predictor_cache(), (0, 1));
        assert_eq!(stats.predictions(), 6);

        let mut payload = request.encode();
        let second = handle_predict_batch(&mut payload, &stats, &predictors).unwrap();
        assert_eq!(second, first, "a cached predictor answers identically");
        assert_eq!(stats.predictor_cache(), (1, 1));
        assert_eq!(stats.predictions(), 12);
        assert_eq!(stats.frame_counts().predicts, 2);
    }

    #[test]
    fn predict_handler_rejects_invalid_requests() {
        use crate::protocol::PredictQuery;
        let stats = ServerStats::default();
        let predictors: PredictorCache = RwLock::new(HashMap::new());
        let request = PredictBatchRequest {
            station_seed: 1,
            train_weeks: 0, // degenerate training window
            horizons: 2,
            queries: vec![PredictQuery {
                history: vec![10.0; 12],
                hour_index: 0,
            }],
        };
        let mut payload = request.encode();
        assert!(handle_predict_batch(&mut payload, &stats, &predictors).is_err());
        assert!(predictors.read().is_empty(), "nothing trained or cached");
    }

    /// A batch `[A, B, A, C, B, A]` to a fresh server solves each distinct
    /// trip once: the repeats are coalesce hits answered with their first
    /// occurrence's plan, and every member keeps the bits of a cold solve.
    #[test]
    fn batch_equals_sequential_trip_requests() {
        use velopt_core::dp::StartState;
        let t = TestDesk::new(std::time::Duration::ZERO);
        let distinct = [0.0, 45.0, 90.0].map(TripRequest::us25_at);
        let cold = corridor_optimizer().unwrap();
        let singles = distinct.clone().map(|trip| {
            let horizon = cold.config().horizon;
            let signals = velopt_core::windows::queue_aware_constraints(
                &trip.road,
                &trip.rates,
                trip.queue,
                horizon,
            )
            .unwrap();
            let start = StartState {
                time: trip.departure,
                ..StartState::default()
            };
            cold.optimize_from(&trip.road, &signals, start).unwrap()
        });
        let bits = |p: &OptimizedProfile| -> Vec<u64> {
            let stations = p.stations.iter().map(|x| x.value());
            let speeds = p.speeds.iter().map(|v| v.value());
            let times = p.times.iter().map(|t| t.value());
            let totals = [p.total_energy.value(), p.trip_time.value()];
            stations
                .chain(speeds)
                .chain(times)
                .chain(totals)
                .map(f64::to_bits)
                .collect()
        };

        let order = [0, 1, 0, 2, 1, 0];
        let trips = order.map(|k| distinct[k].clone()).to_vec();
        let mut payload = BatchPlanRequest { trips }.encode();
        let response = handle_batch(&mut payload, &t.stats, &t.cache, &t.planner).unwrap();
        for (&k, member) in order.iter().zip(&response.results) {
            assert_eq!(bits(member.as_ref().unwrap()), bits(&singles[k]));
        }
        let solved = |f: fn(&OptimizedProfile) -> u64| singles.iter().map(f).sum::<u64>();
        let expanded = solved(|p| p.metrics.states_expanded);
        let pruned = solved(|p| p.metrics.states_pruned);
        assert_eq!(t.stats.solver_states(), (expanded, pruned));
        assert_eq!(t.stats.coalesce_hits(), 3);
        assert_eq!(t.stats.served(), 6);
    }

    /// A 3-junction diamond whose corridors come from a small class pool,
    /// so distinct edges share plans through the router's memo.
    fn demo_route_graph(extra_nodes: usize) -> velopt_road::RoadGraph {
        use velopt_road::CorridorTemplate;
        let template = CorridorTemplate {
            length: (200.0, 400.0),
            lights: (0, 1),
            phase: (15.0, 25.0),
            stop_sign_probability: 0.3,
            max_grade_percent: 0.0,
            limits_kmh: (30.0, 50.0),
        };
        let mut graph = velopt_road::RoadGraph::new(3 + extra_nodes).unwrap();
        graph
            .add_edge(NodeId(0), NodeId(1), template.generate(1).unwrap())
            .unwrap();
        graph
            .add_edge(NodeId(1), NodeId(2), template.generate(2).unwrap())
            .unwrap();
        graph
            .add_edge(NodeId(0), NodeId(2), template.generate(3).unwrap())
            .unwrap();
        graph
    }

    #[test]
    fn route_handler_caches_by_request_bytes() {
        use velopt_common::units::Seconds;
        let stats = ServerStats::default();
        let routes = route_service();
        let request = RouteNetRequest::from_graph(
            &demo_route_graph(0),
            NodeId(0),
            NodeId(2),
            Seconds::new(10.0),
        );
        let encoded = request.encode();

        let first = handle_route(&mut encoded.clone(), &stats, &routes).unwrap();
        assert_eq!(stats.routes(), 1);
        assert_eq!(stats.route_cache_hits(), 0);
        let fresh = stats.route_search();
        assert!(fresh.oracle_calls > 0);
        assert!(fresh.states_settled > 0);

        // The frame is the wire encoding: header, RESP_ROUTE tag, payload.
        assert_eq!(first[4], tags::RESP_ROUTE);
        let mut payload = Bytes::copy_from_slice(&first[5..]);
        let response = RouteNetResponse::decode(&mut payload).unwrap();
        assert!(!response.edges.is_empty());
        assert_eq!(response.depart, Seconds::new(10.0));
        assert!(response.arrival > response.depart);
        assert!(response
            .times
            .windows(2)
            .all(|w| w[1].value() >= w[0].value()));

        // The repeat query clones the cached frame: no search ran.
        let second = handle_route(&mut encoded.clone(), &stats, &routes).unwrap();
        assert_eq!(first, second);
        assert_eq!(stats.routes(), 2);
        assert_eq!(stats.route_cache_hits(), 1);
        assert_eq!(stats.route_search(), fresh);
    }

    #[test]
    fn shared_router_memoizes_edge_plans_across_requests() {
        use velopt_common::units::Seconds;
        let stats = ServerStats::default();
        let routes = route_service();
        let depart = Seconds::new(10.0);
        let warm = RouteNetRequest::from_graph(&demo_route_graph(0), NodeId(0), NodeId(2), depart);
        let encoded = warm.encode();
        handle_route(&mut encoded.clone(), &stats, &routes).unwrap();
        let after_warm = stats.route_search();
        assert!(after_warm.oracle_calls > 0);

        // Same corridors, same query, but one extra (isolated) junction:
        // byte-different request, so the frame cache misses and the search
        // re-runs — yet every edge plan comes from the shared memo, so not
        // a single new oracle call is spent.
        let padded =
            RouteNetRequest::from_graph(&demo_route_graph(1), NodeId(0), NodeId(2), depart);
        let encoded = padded.encode();
        handle_route(&mut encoded.clone(), &stats, &routes).unwrap();
        assert_eq!(stats.route_cache_hits(), 0, "distinct bytes, fresh search");
        let after_padded = stats.route_search();
        assert_eq!(after_padded.oracle_calls, after_warm.oracle_calls);
        assert!(after_padded.plan_memo_hits > after_warm.plan_memo_hits);
    }

    #[test]
    fn route_handler_rejects_malformed_queries() {
        use velopt_common::units::Seconds;
        let stats = ServerStats::default();
        let routes = route_service();
        let mut request = RouteNetRequest::from_graph(
            &demo_route_graph(0),
            NodeId(0),
            NodeId(2),
            Seconds::new(0.0),
        );
        request.dest = 0; // origin == dest
        let encoded = request.encode();
        let err = handle_route(&mut encoded.clone(), &stats, &routes).unwrap_err();
        assert!(err.to_string().contains("coincide"), "{err}");
        // An edge the server cannot afford to plan is refused before any
        // search: the lattice check runs on the route path too.
        request.dest = 2;
        request.edges[0].2 =
            velopt_road::RoadBuilder::new(velopt_common::units::Meters::new(f64::INFINITY))
                .build()
                .unwrap();
        let encoded = request.encode();
        let err = handle_route(&mut encoded.clone(), &stats, &routes).unwrap_err();
        assert!(err.to_string().contains("not finite"), "{err}");
        assert_eq!(stats.routes(), 0);
        assert!(routes.frames.is_empty(), "errors are not cached");
    }
}

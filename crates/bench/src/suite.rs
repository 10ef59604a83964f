//! The continuous-benchmark suite behind the `bench-suite` binary.
//!
//! Criterion answers "how fast is this on my machine, interactively"; this
//! module answers "did the solver get slower since the committed baseline"
//! in CI. It runs a fixed, seeded scenario matrix over the DP solver, the
//! SAE traffic predictor's mini-batch kernels, the cloud reactor, and the
//! sharded microsimulation network, summarizes each scenario as wall-time
//! percentiles plus the component's own work counters (DP states and memo
//! traffic; gemm FLOPs and scratch reuse/allocations; buffer-pool reuse;
//! vehicle-steps), serializes the report as JSON (`BENCH_dp.json`),
//! and compares two reports under a relative tolerance so a perf
//! regression fails the build instead of landing silently.
//!
//! Everything here is deterministic: starts are jittered with a fixed
//! [`SplitMix64`] seed, so two runs of the same build solve bit-identical
//! problems and only the wall-clock numbers move.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use telemetry::json::Json;
use velopt_cloud::protocol::{read_frame, tags, write_frame};
use velopt_cloud::{CloudServer, PredictBatchRequest, PredictQuery, ServerConfig, TripRequest};
use velopt_common::rng::SplitMix64;
use velopt_common::stats::Percentiles;
use velopt_common::units::{Meters, MetersPerSecond, Seconds, VehiclesPerHour};
use velopt_common::{Error, Result};
use velopt_core::batch::PlanRequest;
use velopt_core::dp::{DpConfig, DpOptimizer, SolverArena, StartState, TimeHandling};
use velopt_core::metrics::SolverMetrics;
use velopt_core::pipeline::{SystemConfig, VelocityOptimizationSystem};
use velopt_core::replan::{ReplanConfig, Replanner};
use velopt_core::route::{RouteConfig, RouteMetrics, RouteQuery, Router};
use velopt_core::windows::green_only_constraints;
use velopt_ev_energy::{EnergyModel, VehicleParams};
use velopt_microsim::{
    CorridorSpec, KraussParams, Network, SimConfig, Simulation, StepMetrics, VehicleMix,
};
use velopt_queue::QueueParams;
use velopt_road::{CorridorTemplate, NetworkTemplate, Road, RoadBuilder};
use velopt_traffic::nn::SgdConfig;
use velopt_traffic::{
    SaeConfig, SaePredictor, SaePredictorConfig, TrainMetrics, VolumeGenerator, VolumePredictor,
    VolumeQuery, VolumeScratch,
};

/// The fixed seed every scenario derives its jitter streams from.
pub const BENCH_SEED: u64 = 0x9E37_2026;

/// How much work the matrix does per scenario.
#[derive(Debug, Clone, Copy)]
pub struct MatrixSpec {
    /// Solves per single-trip scenario.
    pub trip_iters: usize,
    /// Trips per batch request.
    pub batch_size: usize,
    /// Batch requests timed.
    pub batch_iters: usize,
    /// Replanner control ticks timed.
    pub replan_ticks: usize,
    /// Full SAE trainings timed.
    pub sae_train_iters: usize,
    /// Batched multi-horizon rollouts timed.
    pub sae_predict_iters: usize,
    /// Simultaneous connections held open against the cloud reactor.
    pub cloud_clients: usize,
    /// Lockstep request rounds timed across those connections.
    pub cloud_rounds: usize,
    /// Vehicles in the co-simulation replan storm (the wave size; the
    /// coalescing server's `batch_max` is pinned to it so every round is
    /// exactly one flush).
    pub cosim_vehicles: usize,
    /// Distinct trip keys the storm's vehicles share (its corridors).
    pub cosim_corridors: usize,
    /// Lockstep storm rounds timed, each with fresh trip keys.
    pub cosim_rounds: usize,
    /// Grid side of the seeded routing network (`route_grid²` junctions).
    pub route_grid: usize,
    /// Timed routing iterations; each runs the seeded query set against a
    /// cold router, so the work counters are per-iteration invariant.
    pub route_iters: usize,
    /// Corridors in the sharded microsimulation network.
    pub network_corridors: usize,
    /// Untimed simulated seconds that fill the network with traffic before
    /// the timed rounds start.
    pub network_warmup_s: f64,
    /// Timed rounds, each advancing the network by one simulated second.
    pub network_rounds: usize,
    /// Untimed simulated seconds that fill the single-corridor step-engine
    /// scenario with traffic before its timed rounds.
    pub step_warmup_s: f64,
    /// Timed rounds of the step-engine scenario, alternating between the
    /// forced-scalar and auto-dispatch twin simulations.
    pub step_rounds: usize,
    /// Simulated seconds each step-engine round advances (ten ticks per
    /// second); long enough that a round is far above timer noise.
    pub step_round_s: usize,
}

impl MatrixSpec {
    /// The full matrix (local runs, baseline refreshes).
    pub fn full() -> Self {
        Self {
            trip_iters: 12,
            batch_size: 64,
            batch_iters: 4,
            replan_ticks: 120,
            sae_train_iters: 10,
            sae_predict_iters: 16,
            cloud_clients: 256,
            cloud_rounds: 6,
            cosim_vehicles: 48,
            cosim_corridors: 6,
            cosim_rounds: 5,
            route_grid: 8,
            route_iters: 4,
            network_corridors: 128,
            network_warmup_s: 600.0,
            network_rounds: 24,
            step_warmup_s: 2700.0,
            step_rounds: 24,
            step_round_s: 5,
        }
    }

    /// The reduced matrix CI's `bench-smoke` job runs on every push.
    pub fn quick() -> Self {
        Self {
            trip_iters: 5,
            batch_size: 16,
            batch_iters: 3,
            replan_ticks: 48,
            sae_train_iters: 5,
            sae_predict_iters: 8,
            cloud_clients: 64,
            cloud_rounds: 4,
            cosim_vehicles: 16,
            cosim_corridors: 4,
            cosim_rounds: 3,
            route_grid: 8,
            route_iters: 2,
            network_corridors: 12,
            network_warmup_s: 120.0,
            network_rounds: 6,
            step_warmup_s: 900.0,
            step_rounds: 8,
            step_round_s: 5,
        }
    }
}

/// One scenario's summary: wall-time spread plus the solver work that
/// produced it (so a "faster because it searched less" regression is
/// visible next to the timing win).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Stable scenario name (the comparator joins on it).
    pub name: String,
    /// Timed iterations behind the percentiles.
    pub iterations: u64,
    /// Seconds per iteration.
    pub wall_seconds: Percentiles,
    /// Total DP states relaxed across all iterations.
    pub states_expanded: u64,
    /// Total candidate transitions pruned across all iterations.
    pub states_pruned: u64,
    /// Layer allocations avoided via arena reuse.
    pub arena_reuse_hits: u64,
    /// Layer buffers freshly allocated.
    pub arena_allocations: u64,
    /// Transition-cost tables served from the arena's memo.
    pub memo_hits: u64,
    /// Transition-cost tables built from the energy model.
    pub memo_misses: u64,
    /// Energy-model segment evaluations across all iterations (zero once
    /// the memo is warm).
    pub energy_evals: u64,
    /// Speed rows the reachability masks proved dead and skipped.
    pub rows_skipped: u64,
    /// Speed rows relaxed through the AVX2 microkernels (DP scenarios;
    /// zero under forced-scalar dispatch). Chunk-geometry dependent, so
    /// reported for visibility but never gated.
    pub simd_rows: u64,
    /// Window refreshes served by incremental dirty-suffix repair (the
    /// `replan_refresh` scenario; zero elsewhere). The refresh schedule is
    /// seeded and the solver deterministic, so the per-iteration count is
    /// machine-invariant and `--check-work` floors it.
    pub repair_hits: u64,
    /// Window refreshes that fell back to a full retention re-solve.
    pub repair_full_resolves: u64,
    /// DP layers the repair path retained instead of re-relaxing.
    pub repair_layers_skipped: u64,
    /// Median scalar-dispatch wall time divided by the SIMD median for the
    /// same seeded workload — a same-run ratio, so machine speed cancels
    /// out (zero for scenarios that time only one dispatch).
    pub simd_speedup: f64,
    /// Median from-scratch refresh wall time divided by the repair-enabled
    /// median over the same window schedule — a same-run ratio (zero for
    /// non-refresh scenarios).
    pub repair_speedup: f64,
    /// Multiply-add FLOPs through the traffic gemm kernels (SAE scenarios;
    /// zero for the DP scenarios).
    pub gemm_flops: u64,
    /// Training/inference scratch geometries served from existing buffers.
    pub scratch_reuse_hits: u64,
    /// Scratch geometries that required fresh allocations (zero in steady
    /// state for the batched-inference scenario).
    pub scratch_allocations: u64,
    /// Cloud response buffers served from the per-shard pools (the
    /// `cloud_serve` scenario; zero elsewhere).
    pub buf_reuse: u64,
    /// Cloud response buffers freshly allocated (zero in steady state once
    /// the pools are warm).
    pub buf_alloc: u64,
    /// Plan responses that skipped `encode_profile` by cloning the cached
    /// frame bytes.
    pub plan_encode_skipped: u64,
    /// Identical in-flight trip requests folded into another waiter's
    /// solve by the coalescer (the `cloud_cosim` scenario; zero
    /// elsewhere). The storm is seeded and flushes on an exact waiter
    /// count, so this is machine-invariant.
    pub coalesce_hits: u64,
    /// Fresh DP solves the coalescer dispatched (distinct keys per flush).
    pub coalesce_flights: u64,
    /// Coalescing windows flushed to the batch solver.
    pub batch_flushes: u64,
    /// Median round time of the same storm served without a coalescing
    /// window, divided by the batching server's median — a same-run ratio,
    /// reported without a bound (zero for non-cosim scenarios).
    pub storm_speedup: f64,
    /// Vehicle-steps executed by the sharded network during the timed
    /// rounds (the `microsim_network` scenario; zero elsewhere). The
    /// network is bit-deterministic across shard counts, so this is
    /// machine-invariant.
    pub vehicles_stepped: u64,
    /// Junction handoffs routed during the timed rounds (zero elsewhere).
    pub network_handoffs: u64,
    /// Full DP solves the router requested from its edge-cost oracle (the
    /// `route_plan` scenario; zero elsewhere). The network and query set
    /// are seeded and the search deterministic, so the per-iteration count
    /// is machine-invariant and `--check-work` ceilings it.
    pub route_oracle_calls: u64,
    /// Edge traversals the router discarded on their certified `emin`
    /// lower bound alone, before any oracle evaluation.
    pub route_edges_pruned: u64,
    /// Edge traversals priced from the (corridor class, departure bin)
    /// plan memo without touching the oracle.
    pub route_plan_memo_hits: u64,
    /// Oracle calls of the featureless Dijkstra sweep (lower bounds, plan
    /// memo, and batching all off) divided by the full router's, over the
    /// identical seeded query set — a same-run work ratio, so it is
    /// machine-invariant (zero for non-routing scenarios).
    pub route_oracle_ratio: f64,
    /// Vehicle lanes the microsim step engine evaluated through the AVX2
    /// Krauss kernel during the timed rounds (the microsim scenarios; zero
    /// elsewhere). Dispatch-dependent — zero on scalar hosts or under
    /// `VELOPT_MICROSIM_SIMD=off` — so reported for visibility but never
    /// gated; the gated quantity is the dispatch-invariant lane total.
    pub sim_simd_lanes: u64,
    /// Vehicle lanes evaluated through the portable Krauss kernel (lane 0,
    /// ragged tails, forced-scalar runs). `sim_simd_lanes +
    /// sim_scalar_lanes` is the dispatch-invariant vehicle-step total the
    /// work gate floors alongside `vehicles_stepped`.
    pub sim_scalar_lanes: u64,
    /// Steps that grew the microsim's pooled scratch during the timed
    /// rounds. The timed rounds run after warm-up, so this is the step
    /// engine's zero-steady-state-allocation pin: `--check-work` ceilings
    /// it at the baseline.
    pub sim_arena_grows: u64,
    /// Median forced-scalar wall time of the identical seeded microsim
    /// workload divided by the auto-dispatch median — a same-run ratio
    /// measured back-to-back, so machine speed cancels out (zero for
    /// non-microsim scenarios).
    pub microsim_simd_speedup: f64,
}

impl ScenarioResult {
    fn from_samples(name: &str, samples: &[f64], metrics: &SolverMetrics) -> Result<Self> {
        Ok(Self {
            name: name.to_string(),
            iterations: samples.len() as u64,
            wall_seconds: Percentiles::from_samples(samples)?,
            states_expanded: metrics.states_expanded,
            states_pruned: metrics.states_pruned,
            arena_reuse_hits: metrics.arena_reuse_hits,
            arena_allocations: metrics.arena_allocations,
            memo_hits: metrics.memo_hits,
            memo_misses: metrics.memo_misses,
            energy_evals: metrics.energy_evals,
            rows_skipped: metrics.rows_skipped,
            simd_rows: metrics.simd_rows,
            repair_hits: metrics.repair_hits,
            repair_full_resolves: metrics.repair_full_resolves,
            repair_layers_skipped: metrics.repair_layers_skipped,
            simd_speedup: 0.0,
            repair_speedup: 0.0,
            gemm_flops: 0,
            scratch_reuse_hits: 0,
            scratch_allocations: 0,
            buf_reuse: 0,
            buf_alloc: 0,
            plan_encode_skipped: 0,
            coalesce_hits: 0,
            coalesce_flights: 0,
            batch_flushes: 0,
            storm_speedup: 0.0,
            vehicles_stepped: 0,
            network_handoffs: 0,
            route_oracle_calls: 0,
            route_edges_pruned: 0,
            route_plan_memo_hits: 0,
            route_oracle_ratio: 0.0,
            sim_simd_lanes: 0,
            sim_scalar_lanes: 0,
            sim_arena_grows: 0,
            microsim_simd_speedup: 0.0,
        })
    }

    /// Summary for a traffic-predictor scenario: wall percentiles plus the
    /// trainer's deterministic work counters; the DP counters stay zero.
    fn from_traffic_samples(name: &str, samples: &[f64], metrics: &TrainMetrics) -> Result<Self> {
        Ok(Self {
            name: name.to_string(),
            iterations: samples.len() as u64,
            wall_seconds: Percentiles::from_samples(samples)?,
            states_expanded: 0,
            states_pruned: 0,
            arena_reuse_hits: 0,
            arena_allocations: 0,
            memo_hits: 0,
            memo_misses: 0,
            energy_evals: 0,
            rows_skipped: 0,
            simd_rows: 0,
            repair_hits: 0,
            repair_full_resolves: 0,
            repair_layers_skipped: 0,
            simd_speedup: 0.0,
            repair_speedup: 0.0,
            gemm_flops: metrics.gemm_flops,
            scratch_reuse_hits: metrics.scratch_reuse_hits,
            scratch_allocations: metrics.scratch_allocations,
            buf_reuse: 0,
            buf_alloc: 0,
            plan_encode_skipped: 0,
            coalesce_hits: 0,
            coalesce_flights: 0,
            batch_flushes: 0,
            storm_speedup: 0.0,
            vehicles_stepped: 0,
            network_handoffs: 0,
            route_oracle_calls: 0,
            route_edges_pruned: 0,
            route_plan_memo_hits: 0,
            route_oracle_ratio: 0.0,
            sim_simd_lanes: 0,
            sim_scalar_lanes: 0,
            sim_arena_grows: 0,
            microsim_simd_speedup: 0.0,
        })
    }

    /// Summary for the cloud serving scenario: wall percentiles over the
    /// lockstep rounds plus the server's steady-state buffer-pool and
    /// encode-skip deltas; the DP and gemm counters stay zero.
    fn from_cloud_samples(
        name: &str,
        samples: &[f64],
        buf_reuse: u64,
        buf_alloc: u64,
        plan_encode_skipped: u64,
    ) -> Result<Self> {
        Ok(Self {
            name: name.to_string(),
            iterations: samples.len() as u64,
            wall_seconds: Percentiles::from_samples(samples)?,
            states_expanded: 0,
            states_pruned: 0,
            arena_reuse_hits: 0,
            arena_allocations: 0,
            memo_hits: 0,
            memo_misses: 0,
            energy_evals: 0,
            rows_skipped: 0,
            simd_rows: 0,
            repair_hits: 0,
            repair_full_resolves: 0,
            repair_layers_skipped: 0,
            simd_speedup: 0.0,
            repair_speedup: 0.0,
            gemm_flops: 0,
            scratch_reuse_hits: 0,
            scratch_allocations: 0,
            buf_reuse,
            buf_alloc,
            plan_encode_skipped,
            coalesce_hits: 0,
            coalesce_flights: 0,
            batch_flushes: 0,
            storm_speedup: 0.0,
            vehicles_stepped: 0,
            network_handoffs: 0,
            route_oracle_calls: 0,
            route_edges_pruned: 0,
            route_plan_memo_hits: 0,
            route_oracle_ratio: 0.0,
            sim_simd_lanes: 0,
            sim_scalar_lanes: 0,
            sim_arena_grows: 0,
            microsim_simd_speedup: 0.0,
        })
    }

    /// Summary for the co-simulation storm scenario: wall percentiles over
    /// the coalesced lockstep rounds, the coalescer's deterministic
    /// counters, and the same-run speedup over uncoalesced dispatch; every
    /// other counter stays zero.
    fn from_cosim_samples(
        name: &str,
        samples: &[f64],
        coalesce_hits: u64,
        coalesce_flights: u64,
        batch_flushes: u64,
        storm_speedup: f64,
    ) -> Result<Self> {
        Ok(Self {
            name: name.to_string(),
            iterations: samples.len() as u64,
            wall_seconds: Percentiles::from_samples(samples)?,
            states_expanded: 0,
            states_pruned: 0,
            arena_reuse_hits: 0,
            arena_allocations: 0,
            memo_hits: 0,
            memo_misses: 0,
            energy_evals: 0,
            rows_skipped: 0,
            simd_rows: 0,
            repair_hits: 0,
            repair_full_resolves: 0,
            repair_layers_skipped: 0,
            simd_speedup: 0.0,
            repair_speedup: 0.0,
            gemm_flops: 0,
            scratch_reuse_hits: 0,
            scratch_allocations: 0,
            buf_reuse: 0,
            buf_alloc: 0,
            plan_encode_skipped: 0,
            coalesce_hits,
            coalesce_flights,
            batch_flushes,
            storm_speedup,
            vehicles_stepped: 0,
            network_handoffs: 0,
            route_oracle_calls: 0,
            route_edges_pruned: 0,
            route_plan_memo_hits: 0,
            route_oracle_ratio: 0.0,
            sim_simd_lanes: 0,
            sim_scalar_lanes: 0,
            sim_arena_grows: 0,
            microsim_simd_speedup: 0.0,
        })
    }

    /// Summary for the microsimulation scenarios: wall percentiles over the
    /// timed rounds, the simulator's deterministic work deltas, the step
    /// engine's kernel-lane split and pooled-scratch counters, and the
    /// same-run forced-scalar/auto speedup; every other counter stays zero.
    fn from_network_samples(
        name: &str,
        samples: &[f64],
        vehicles_stepped: u64,
        network_handoffs: u64,
        step_metrics: velopt_microsim::StepMetrics,
        microsim_simd_speedup: f64,
    ) -> Result<Self> {
        Ok(Self {
            name: name.to_string(),
            iterations: samples.len() as u64,
            wall_seconds: Percentiles::from_samples(samples)?,
            states_expanded: 0,
            states_pruned: 0,
            arena_reuse_hits: 0,
            arena_allocations: 0,
            memo_hits: 0,
            memo_misses: 0,
            energy_evals: 0,
            rows_skipped: 0,
            simd_rows: 0,
            repair_hits: 0,
            repair_full_resolves: 0,
            repair_layers_skipped: 0,
            simd_speedup: 0.0,
            repair_speedup: 0.0,
            gemm_flops: 0,
            scratch_reuse_hits: 0,
            scratch_allocations: 0,
            buf_reuse: 0,
            buf_alloc: 0,
            plan_encode_skipped: 0,
            coalesce_hits: 0,
            coalesce_flights: 0,
            batch_flushes: 0,
            storm_speedup: 0.0,
            vehicles_stepped,
            network_handoffs,
            route_oracle_calls: 0,
            route_edges_pruned: 0,
            route_plan_memo_hits: 0,
            route_oracle_ratio: 0.0,
            sim_simd_lanes: step_metrics.simd_lanes,
            sim_scalar_lanes: step_metrics.scalar_lanes,
            sim_arena_grows: step_metrics.arena_grows,
            microsim_simd_speedup,
        })
    }

    /// Summary for the routing scenario: wall percentiles over the cold
    /// searches, the router's deterministic work counters, and the same-run
    /// oracle-call ratio over featureless Dijkstra; every other counter
    /// stays zero.
    fn from_route_samples(
        name: &str,
        samples: &[f64],
        metrics: &RouteMetrics,
        route_oracle_ratio: f64,
    ) -> Result<Self> {
        Ok(Self {
            name: name.to_string(),
            iterations: samples.len() as u64,
            wall_seconds: Percentiles::from_samples(samples)?,
            states_expanded: 0,
            states_pruned: 0,
            arena_reuse_hits: 0,
            arena_allocations: 0,
            memo_hits: 0,
            memo_misses: 0,
            energy_evals: 0,
            rows_skipped: 0,
            simd_rows: 0,
            repair_hits: 0,
            repair_full_resolves: 0,
            repair_layers_skipped: 0,
            simd_speedup: 0.0,
            repair_speedup: 0.0,
            gemm_flops: 0,
            scratch_reuse_hits: 0,
            scratch_allocations: 0,
            buf_reuse: 0,
            buf_alloc: 0,
            plan_encode_skipped: 0,
            coalesce_hits: 0,
            coalesce_flights: 0,
            batch_flushes: 0,
            storm_speedup: 0.0,
            vehicles_stepped: 0,
            network_handoffs: 0,
            route_oracle_calls: metrics.oracle_calls,
            route_edges_pruned: metrics.edges_pruned,
            route_plan_memo_hits: metrics.plan_memo_hits,
            route_oracle_ratio,
            sim_simd_lanes: 0,
            sim_scalar_lanes: 0,
            sim_arena_grows: 0,
            microsim_simd_speedup: 0.0,
        })
    }

    /// Fraction of transition-table fetches served from the memo, in
    /// `[0, 1]`; `1.0` for a scenario that fetched no tables.
    pub fn memo_hit_rate(&self) -> f64 {
        let fetches = self.memo_hits + self.memo_misses;
        if fetches == 0 {
            return 1.0;
        }
        self.memo_hits as f64 / fetches as f64
    }

    /// Fraction of cloud response buffers served from the pools, in
    /// `[0, 1]`; `1.0` for a scenario with no buffer traffic.
    pub fn buffer_reuse_rate(&self) -> f64 {
        let total = self.buf_reuse + self.buf_alloc;
        if total == 0 {
            return 1.0;
        }
        self.buf_reuse as f64 / total as f64
    }

    /// Average waiters folded into each coalescing flush (requests per
    /// window); `0.0` for a scenario with no flushes. Collapsing toward
    /// `1.0` means every request flushed alone and batching is off.
    pub fn batch_fill(&self) -> f64 {
        if self.batch_flushes == 0 {
            return 0.0;
        }
        (self.coalesce_hits + self.coalesce_flights) as f64 / self.batch_flushes as f64
    }

    fn to_json(&self) -> Json {
        let p = &self.wall_seconds;
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("iterations".into(), Json::Num(self.iterations as f64)),
            (
                "wall_seconds".into(),
                Json::Obj(vec![
                    ("min".into(), Json::Num(p.min)),
                    ("p50".into(), Json::Num(p.p50)),
                    ("p90".into(), Json::Num(p.p90)),
                    ("p95".into(), Json::Num(p.p95)),
                    ("p99".into(), Json::Num(p.p99)),
                    ("max".into(), Json::Num(p.max)),
                ]),
            ),
            (
                "states_expanded".into(),
                Json::Num(self.states_expanded as f64),
            ),
            ("states_pruned".into(), Json::Num(self.states_pruned as f64)),
            (
                "arena_reuse_hits".into(),
                Json::Num(self.arena_reuse_hits as f64),
            ),
            (
                "arena_allocations".into(),
                Json::Num(self.arena_allocations as f64),
            ),
            ("memo_hits".into(), Json::Num(self.memo_hits as f64)),
            ("memo_misses".into(), Json::Num(self.memo_misses as f64)),
            ("memo_hit_rate".into(), Json::Num(self.memo_hit_rate())),
            ("energy_evals".into(), Json::Num(self.energy_evals as f64)),
            ("rows_skipped".into(), Json::Num(self.rows_skipped as f64)),
            ("simd_rows".into(), Json::Num(self.simd_rows as f64)),
            ("repair_hits".into(), Json::Num(self.repair_hits as f64)),
            (
                "repair_full_resolves".into(),
                Json::Num(self.repair_full_resolves as f64),
            ),
            (
                "repair_layers_skipped".into(),
                Json::Num(self.repair_layers_skipped as f64),
            ),
            ("simd_speedup".into(), Json::Num(self.simd_speedup)),
            ("repair_speedup".into(), Json::Num(self.repair_speedup)),
            ("gemm_flops".into(), Json::Num(self.gemm_flops as f64)),
            (
                "scratch_reuse_hits".into(),
                Json::Num(self.scratch_reuse_hits as f64),
            ),
            (
                "scratch_allocations".into(),
                Json::Num(self.scratch_allocations as f64),
            ),
            ("buf_reuse".into(), Json::Num(self.buf_reuse as f64)),
            ("buf_alloc".into(), Json::Num(self.buf_alloc as f64)),
            (
                "plan_encode_skipped".into(),
                Json::Num(self.plan_encode_skipped as f64),
            ),
            ("coalesce_hits".into(), Json::Num(self.coalesce_hits as f64)),
            (
                "coalesce_flights".into(),
                Json::Num(self.coalesce_flights as f64),
            ),
            ("batch_flushes".into(), Json::Num(self.batch_flushes as f64)),
            ("storm_speedup".into(), Json::Num(self.storm_speedup)),
            (
                "vehicles_stepped".into(),
                Json::Num(self.vehicles_stepped as f64),
            ),
            (
                "network_handoffs".into(),
                Json::Num(self.network_handoffs as f64),
            ),
            (
                "route_oracle_calls".into(),
                Json::Num(self.route_oracle_calls as f64),
            ),
            (
                "route_edges_pruned".into(),
                Json::Num(self.route_edges_pruned as f64),
            ),
            (
                "route_plan_memo_hits".into(),
                Json::Num(self.route_plan_memo_hits as f64),
            ),
            (
                "route_oracle_ratio".into(),
                Json::Num(self.route_oracle_ratio),
            ),
            (
                "sim_simd_lanes".into(),
                Json::Num(self.sim_simd_lanes as f64),
            ),
            (
                "sim_scalar_lanes".into(),
                Json::Num(self.sim_scalar_lanes as f64),
            ),
            (
                "sim_arena_grows".into(),
                Json::Num(self.sim_arena_grows as f64),
            ),
            (
                "microsim_simd_speedup".into(),
                Json::Num(self.microsim_simd_speedup),
            ),
        ])
    }

    fn from_json(value: &Json, index: usize) -> Result<Self> {
        let field = |key: &str| {
            value.get(key).and_then(Json::as_f64).ok_or_else(|| {
                Error::invalid_input(format!("scenario {index}: missing number {key:?}"))
            })
        };
        let name = value
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| Error::invalid_input(format!("scenario {index}: missing \"name\"")))?
            .to_string();
        let wall = value.get("wall_seconds").ok_or_else(|| {
            Error::invalid_input(format!("scenario {index}: missing \"wall_seconds\""))
        })?;
        let pct = |key: &str| {
            wall.get(key).and_then(Json::as_f64).ok_or_else(|| {
                Error::invalid_input(format!("scenario {index}: missing wall_seconds.{key}"))
            })
        };
        let p90 = pct("p90")?;
        Ok(Self {
            name,
            iterations: field("iterations")? as u64,
            wall_seconds: Percentiles {
                min: pct("min")?,
                p50: pct("p50")?,
                p90,
                // p95 joined the format with the cloud scenario; an older
                // baseline reads its p90 (the field is never gated on).
                p95: wall.get("p95").and_then(Json::as_f64).unwrap_or(p90),
                p99: pct("p99")?,
                max: pct("max")?,
            },
            states_expanded: field("states_expanded")? as u64,
            states_pruned: field("states_pruned")? as u64,
            arena_reuse_hits: field("arena_reuse_hits")? as u64,
            arena_allocations: field("arena_allocations")? as u64,
            // Memo counters appeared after the format's first release, so a
            // pre-memo baseline simply reads as zero.
            memo_hits: optional(value, "memo_hits"),
            memo_misses: optional(value, "memo_misses"),
            energy_evals: optional(value, "energy_evals"),
            rows_skipped: optional(value, "rows_skipped"),
            // SIMD and repair counters appeared with the vectorized relax
            // kernels; older baselines read as zero, disabling their floors.
            simd_rows: optional(value, "simd_rows"),
            repair_hits: optional(value, "repair_hits"),
            repair_full_resolves: optional(value, "repair_full_resolves"),
            repair_layers_skipped: optional(value, "repair_layers_skipped"),
            simd_speedup: value
                .get("simd_speedup")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            repair_speedup: value
                .get("repair_speedup")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            // Traffic counters appeared with the SAE scenarios; older
            // baselines read as zero too.
            gemm_flops: optional(value, "gemm_flops"),
            scratch_reuse_hits: optional(value, "scratch_reuse_hits"),
            scratch_allocations: optional(value, "scratch_allocations"),
            // Cloud counters appeared with the serving scenario; older
            // baselines read as zero, which disables the reuse-rate gate.
            buf_reuse: optional(value, "buf_reuse"),
            buf_alloc: optional(value, "buf_alloc"),
            plan_encode_skipped: optional(value, "plan_encode_skipped"),
            // Coalescing counters appeared with the co-simulation storm
            // scenario; older baselines read as zero, disabling the
            // coalesce floors.
            coalesce_hits: optional(value, "coalesce_hits"),
            coalesce_flights: optional(value, "coalesce_flights"),
            batch_flushes: optional(value, "batch_flushes"),
            storm_speedup: value
                .get("storm_speedup")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            // Network counters appeared with the sharded microsimulation
            // scenario; older baselines read as zero, disabling the gate.
            vehicles_stepped: optional(value, "vehicles_stepped"),
            network_handoffs: optional(value, "network_handoffs"),
            // Routing counters appeared with the graph-routing scenario;
            // older baselines read as zero, disabling the route floors.
            route_oracle_calls: optional(value, "route_oracle_calls"),
            route_edges_pruned: optional(value, "route_edges_pruned"),
            route_plan_memo_hits: optional(value, "route_plan_memo_hits"),
            route_oracle_ratio: value
                .get("route_oracle_ratio")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            // Step-engine counters appeared with the SoA microsim rewrite;
            // older baselines read as zero, disabling the lane floor, the
            // arena-grow ceiling, and the microsim speedup gate.
            sim_simd_lanes: optional(value, "sim_simd_lanes"),
            sim_scalar_lanes: optional(value, "sim_scalar_lanes"),
            sim_arena_grows: optional(value, "sim_arena_grows"),
            microsim_simd_speedup: value
                .get("microsim_simd_speedup")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        })
    }
}

/// Reads an optional numeric counter, defaulting to zero when the field is
/// absent (older reports predate the memo counters).
fn optional(value: &Json, key: &str) -> u64 {
    value.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64
}

/// A full suite run: every scenario's summary, in matrix order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchReport {
    /// One entry per scenario.
    pub scenarios: Vec<ScenarioResult>,
}

impl BenchReport {
    /// Serializes the report (the `BENCH_dp.json` format).
    pub fn to_json(&self) -> String {
        Json::Obj(vec![(
            "scenarios".into(),
            Json::Arr(self.scenarios.iter().map(ScenarioResult::to_json).collect()),
        )])
        .to_string()
    }

    /// Parses a report back.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] naming the defect — an empty or
    /// malformed document, a missing `scenarios` array, or a scenario with
    /// missing fields — never panics.
    pub fn from_json(text: &str) -> Result<Self> {
        let doc = Json::parse(text)
            .map_err(|e| Error::invalid_input(format!("malformed report: {e}")))?;
        let scenarios = doc
            .get("scenarios")
            .and_then(Json::as_arr)
            .ok_or_else(|| Error::invalid_input("report has no \"scenarios\" array"))?;
        Ok(Self {
            scenarios: scenarios
                .iter()
                .enumerate()
                .map(|(i, s)| ScenarioResult::from_json(s, i))
                .collect::<Result<Vec<_>>>()?,
        })
    }

    /// Looks a scenario up by name.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioResult> {
        self.scenarios.iter().find(|s| s.name == name)
    }
}

/// What the comparator concluded about `current` vs `baseline`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    /// Human-readable regression messages (non-empty = gate fails).
    pub regressions: Vec<String>,
    /// Scenarios in the current report the baseline does not know —
    /// warnings, not failures, so adding a scenario never blocks a PR.
    pub missing: Vec<String>,
    /// Scenarios compared and found within tolerance.
    pub passed: usize,
}

impl Comparison {
    /// `true` when at least one scenario regressed.
    pub fn is_regression(&self) -> bool {
        !self.regressions.is_empty()
    }
}

/// Absolute slack added on top of the relative tolerance, so scenarios
/// whose median is microseconds (the replanner's stale-plan ticks) are not
/// failed over scheduler noise that is huge relatively but meaningless
/// absolutely.
pub const ABSOLUTE_SLACK_SECONDS: f64 = 2e-3;

/// Absolute slack for the per-iteration states-expanded gate: one state
/// per iteration absorbs integer rounding when iteration counts differ
/// between the baseline refresh and the CI run.
pub const WORK_SLACK_STATES_PER_ITER: f64 = 1.0;

/// Absolute slack for the energy-evaluation gate: roughly one cold
/// transition-table build (`n_speeds²` lattice points), so a scenario that
/// legitimately pays one extra cold start does not trip the gate.
pub const WORK_SLACK_ENERGY_EVALS: f64 = 1024.0;

/// Absolute slack for the per-iteration gemm-FLOP gate: one small batched
/// forward, absorbing integer rounding when iteration counts differ.
pub const WORK_SLACK_FLOPS_PER_ITER: f64 = 1024.0;

/// Absolute slack for the per-iteration scratch-allocation gate: one
/// geometry rebuild, so a legitimate extra cold start does not trip it.
/// Anything beyond that means buffers stopped being recycled.
pub const WORK_SLACK_SCRATCH_ALLOCS_PER_ITER: f64 = 1.0;

/// Absolute slack for the per-iteration vehicle-steps gate: one vehicle
/// per iteration absorbs integer rounding when iteration counts differ.
/// The gate is a **floor** — the sharded network is bit-deterministic, so
/// a round that suddenly steps fewer vehicles means the scenario silently
/// shrank and its timing win is fake.
pub const WORK_SLACK_VEHICLE_STEPS_PER_ITER: f64 = 1.0;

/// Absolute slack for the per-iteration coalesce-hits floor: one folded
/// request per iteration absorbs integer rounding when iteration counts
/// differ. The floor catches single-flight dedupe silently disengaging —
/// the storm is seeded and flushes on an exact waiter count, so the hit
/// count per round is a constant of the scenario shape.
pub const WORK_SLACK_COALESCE_HITS_PER_ITER: f64 = 1.0;

/// Absolute slack for the batch-fill floor (average waiters per flush):
/// one request of headroom, so a single early timeout flush does not trip
/// the gate. Fill collapsing toward one means every trip dispatched alone
/// and the batching layer is off.
pub const WORK_SLACK_BATCH_FILL: f64 = 1.0;

/// Absolute slack for the per-iteration repair-hits floor. The refresh
/// schedule is seeded and the solver deterministic, so nearly every timed
/// refresh should be served by dirty-suffix repair; one fallback per eight
/// ticks of headroom absorbs a legitimately unrepairable shift without
/// letting repair silently disengage (which would re-run the full DP every
/// tick and still "pass" on a fast machine).
pub const WORK_SLACK_REPAIR_HITS_PER_ITER: f64 = 0.125;

/// Minimum same-run speedup of SIMD dispatch over forced-scalar dispatch
/// on the seeded exact-solve workloads. The ratio divides two medians
/// measured back-to-back on the same machine, so host speed cancels out;
/// falling below 2x means the vectorized relax kernels stopped earning
/// their keep. The gate only applies when the baseline itself demonstrated
/// the floor, so scalar-only hosts never trip it on themselves.
pub const MIN_SIMD_SPEEDUP: f64 = 2.0;

/// Minimum same-run speedup of repair-enabled window refreshes over
/// from-scratch refreshes of the identical window schedule. Same-run
/// ratio, baseline-armed, like [`MIN_SIMD_SPEEDUP`]; falling below 3x
/// means incremental repair no longer beats re-solving.
pub const MIN_REPAIR_SPEEDUP: f64 = 3.0;

/// Absolute slack for the per-iteration route-oracle-call ceiling: one
/// solve per iteration absorbs integer rounding when iteration counts
/// differ between the baseline refresh and the CI run. The routing network
/// and query set are seeded and the search deterministic, so beyond that
/// slack a higher count means a pruning layer disengaged.
pub const WORK_SLACK_ROUTE_ORACLE_CALLS_PER_ITER: f64 = 1.0;

/// Minimum same-run ratio of featureless-Dijkstra oracle calls over the
/// full router's on the seeded routing network: the certified `emin`
/// lower bounds, the shared-segment plan memo, and batched frontier
/// evaluation together must keep at least 5x of the edge DP solves off
/// the oracle. The ratio divides two deterministic counters from the same
/// run, so host speed is irrelevant; the gate only applies when the
/// baseline itself cleared the floor, so reduced local matrices never
/// trip it on themselves.
pub const MIN_ROUTE_ORACLE_RATIO: f64 = 5.0;

/// Minimum same-run speedup of the microsim step engine's auto dispatch
/// over forced-scalar (`simd: false`) on the identical seeded traffic. The
/// ratio divides two per-round medians measured interleaved on the same
/// machine, so host speed and drift cancel out. The floor is deliberately
/// far below the lane kernels' isolated gain (the AVX2 Krauss lanes
/// microbenchmark at roughly 3x over scalar): Amdahl caps the whole-step
/// ratio because the constraint sweep, the RNG-ordered dawdle pass, the
/// collision guard, and the AoS write-back are dispatch-invariant scalar
/// work shared by both flavors, leaving a measured whole-step ratio near
/// 1.4x on the bench host. Falling below the floor therefore does not mean
/// "a bit slower" — it means the vectorized kernels stopped contributing
/// at all (dispatch regressed to scalar, or a kernel change destroyed the
/// win). Baseline-armed like [`MIN_SIMD_SPEEDUP`], so scalar-only hosts
/// never trip it on themselves.
pub const MIN_MICROSIM_SIMD_SPEEDUP: f64 = 1.15;

/// Absolute slack for the microsim pooled-scratch ceiling: one growth
/// across the timed rounds absorbs a legitimate high-water bump (a traffic
/// burst past the warm-up's maximum). Beyond that, the step arena stopped
/// reusing its capacity and per-tick allocation crept back into the hot
/// loop. Only applies when the baseline recorded step-engine lane traffic.
pub const WORK_SLACK_ARENA_GROWS: f64 = 1.0;

/// Absolute slack for the per-iteration kernel-lane floor: one lane per
/// iteration absorbs integer rounding when iteration counts differ. The
/// lane total (`sim_simd_lanes + sim_scalar_lanes`) is dispatch-invariant
/// and equals the vehicle-steps the engine executed, so a floor on it
/// catches the step engine silently dropping work.
pub const WORK_SLACK_SIM_LANES_PER_ITER: f64 = 1.0;

/// Minimum steady-state cloud buffer reuse rate. The `cloud_serve`
/// scenario's counters are deltas taken after a warm-up round, so nearly
/// every response should come from the pools; below this, response
/// allocation has crept back into the serving hot path. The gate only
/// applies when the baseline recorded buffer traffic, so pre-reactor
/// baselines do not trip it.
pub const MIN_BUF_REUSE_RATE: f64 = 0.90;

/// Compares a current report against a baseline: a scenario regresses when
/// its median wall time exceeds the baseline median by **strictly more**
/// than `tolerance` (so `tolerance = 0.15` allows up to exactly +15%),
/// with [`ABSOLUTE_SLACK_SECONDS`] of headroom for sub-millisecond medians.
///
/// Work counters are gated too, under the same tolerance, because the
/// solver is deterministic and a work regression is a real regression even
/// when the wall clock hides it on a fast machine:
///
/// * `states_expanded`, normalized per iteration (every iteration solves
///   the identical problem, so the per-iteration count is machine- and
///   iteration-count-invariant), with [`WORK_SLACK_STATES_PER_ITER`];
/// * `energy_evals`, compared in absolute terms with
///   [`WORK_SLACK_ENERGY_EVALS`] — with a working memo the total is one
///   cold build regardless of iteration count, and a broken memo scales it
///   by the iteration count, which is exactly what the gate should catch.
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] for a baseline with no scenarios (an
/// empty gate would vacuously pass) or a negative/non-finite tolerance.
pub fn compare(
    current: &BenchReport,
    baseline: &BenchReport,
    tolerance: f64,
) -> Result<Comparison> {
    if baseline.scenarios.is_empty() {
        return Err(Error::invalid_input(
            "baseline contains no scenarios; refusing to compare against an empty gate",
        ));
    }
    if !tolerance.is_finite() || tolerance < 0.0 {
        return Err(Error::invalid_input(format!(
            "tolerance must be a non-negative finite fraction, got {tolerance}"
        )));
    }
    let mut outcome = Comparison::default();
    for scenario in &current.scenarios {
        let Some(base) = baseline.scenario(&scenario.name) else {
            outcome.missing.push(scenario.name.clone());
            continue;
        };
        let before = outcome.regressions.len();
        let limit = base.wall_seconds.p50 * (1.0 + tolerance) + ABSOLUTE_SLACK_SECONDS;
        if scenario.wall_seconds.p50 > limit {
            outcome.regressions.push(format!(
                "{}: median {:.4}s exceeds baseline {:.4}s by more than {:.0}% (limit {:.4}s)",
                scenario.name,
                scenario.wall_seconds.p50,
                base.wall_seconds.p50,
                tolerance * 100.0,
                limit,
            ));
        }
        work_regressions(scenario, base, tolerance, &mut outcome.regressions);
        if outcome.regressions.len() == before {
            outcome.passed += 1;
        }
    }
    Ok(outcome)
}

/// Appends work-counter regression messages for one scenario pair.
fn work_regressions(
    scenario: &ScenarioResult,
    base: &ScenarioResult,
    tolerance: f64,
    regressions: &mut Vec<String>,
) {
    let per_iter = |v: u64, iters: u64| v as f64 / iters.max(1) as f64;
    let current_states = per_iter(scenario.states_expanded, scenario.iterations);
    let base_states = per_iter(base.states_expanded, base.iterations);
    let states_limit = base_states * (1.0 + tolerance) + WORK_SLACK_STATES_PER_ITER;
    if current_states > states_limit {
        regressions.push(format!(
            "{}: {:.0} states expanded per iteration exceeds baseline {:.0} \
             by more than {:.0}% (limit {:.0})",
            scenario.name,
            current_states,
            base_states,
            tolerance * 100.0,
            states_limit,
        ));
    }
    let evals_limit = base.energy_evals as f64 * (1.0 + tolerance) + WORK_SLACK_ENERGY_EVALS;
    if scenario.energy_evals as f64 > evals_limit {
        regressions.push(format!(
            "{}: {} energy evaluations exceeds baseline {} by more than {:.0}% \
             (limit {:.0}) — is the transition memo still engaged?",
            scenario.name,
            scenario.energy_evals,
            base.energy_evals,
            tolerance * 100.0,
            evals_limit,
        ));
    }
    let current_flops = per_iter(scenario.gemm_flops, scenario.iterations);
    let base_flops = per_iter(base.gemm_flops, base.iterations);
    let flops_limit = base_flops * (1.0 + tolerance) + WORK_SLACK_FLOPS_PER_ITER;
    if current_flops > flops_limit {
        regressions.push(format!(
            "{}: {:.0} gemm FLOPs per iteration exceeds baseline {:.0} \
             by more than {:.0}% (limit {:.0})",
            scenario.name,
            current_flops,
            base_flops,
            tolerance * 100.0,
            flops_limit,
        ));
    }
    let current_allocs = per_iter(scenario.scratch_allocations, scenario.iterations);
    let base_allocs = per_iter(base.scratch_allocations, base.iterations);
    let allocs_limit = base_allocs * (1.0 + tolerance) + WORK_SLACK_SCRATCH_ALLOCS_PER_ITER;
    if current_allocs > allocs_limit {
        regressions.push(format!(
            "{}: {:.1} scratch allocations per iteration exceeds baseline {:.1} \
             by more than {:.0}% (limit {:.1}) — are the arenas still recycled?",
            scenario.name,
            current_allocs,
            base_allocs,
            tolerance * 100.0,
            allocs_limit,
        ));
    }
    // A floor, not a ceiling: the network is deterministic, so stepping
    // fewer vehicles than the baseline means the scenario lost traffic
    // (broken arrivals, dropped handoffs) and its wall time is not
    // comparable. Only applies when the baseline recorded vehicle traffic.
    let current_stepped = per_iter(scenario.vehicles_stepped, scenario.iterations);
    let base_stepped = per_iter(base.vehicles_stepped, base.iterations);
    let stepped_floor =
        base_stepped * (1.0 - tolerance.min(1.0)) - WORK_SLACK_VEHICLE_STEPS_PER_ITER;
    if base_stepped > 0.0 && current_stepped < stepped_floor {
        regressions.push(format!(
            "{}: {:.0} vehicle-steps per iteration fell below baseline {:.0} \
             by more than {:.0}% (floor {:.0}) — did the network lose traffic?",
            scenario.name,
            current_stepped,
            base_stepped,
            tolerance * 100.0,
            stepped_floor,
        ));
    }
    // Floor on the step engine's dispatch-invariant lane total, and a
    // ceiling on its pooled-scratch growths, both only when the baseline
    // recorded step-engine traffic (pre-SoA baselines read zero). The lane
    // split itself (simd vs scalar) is host-dependent and never gated.
    let lane_total = |s: &ScenarioResult| s.sim_simd_lanes + s.sim_scalar_lanes;
    let current_lanes = per_iter(lane_total(scenario), scenario.iterations);
    let base_lanes = per_iter(lane_total(base), base.iterations);
    let lanes_floor = base_lanes * (1.0 - tolerance.min(1.0)) - WORK_SLACK_SIM_LANES_PER_ITER;
    if base_lanes > 0.0 && current_lanes < lanes_floor {
        regressions.push(format!(
            "{}: {:.0} kernel lanes per iteration fell below baseline {:.0} \
             by more than {:.0}% (floor {:.0}) — did the step engine lose traffic?",
            scenario.name,
            current_lanes,
            base_lanes,
            tolerance * 100.0,
            lanes_floor,
        ));
    }
    let grows_limit = base.sim_arena_grows as f64 * (1.0 + tolerance) + WORK_SLACK_ARENA_GROWS;
    if base_lanes > 0.0 && scenario.sim_arena_grows as f64 > grows_limit {
        regressions.push(format!(
            "{}: {} step-arena growths exceeds baseline {} by more than {:.0}% \
             (limit {:.0}) — is the pooled step scratch still reused?",
            scenario.name,
            scenario.sim_arena_grows,
            base.sim_arena_grows,
            tolerance * 100.0,
            grows_limit,
        ));
    }
    // Absolute floor on the microsim same-run speedup, baseline-armed like
    // the DP SIMD gate: once a baseline demonstrated the lane kernels
    // beating forced-scalar on this scenario, losing that is a regression
    // even though the wall clock alone could hide it.
    if base.microsim_simd_speedup >= MIN_MICROSIM_SIMD_SPEEDUP
        && scenario.microsim_simd_speedup < MIN_MICROSIM_SIMD_SPEEDUP
    {
        regressions.push(format!(
            "{}: microsim SIMD speedup {:.2}x fell below the {:.1}x floor \
             (baseline {:.2}x) — the lane kernels no longer beat scalar",
            scenario.name,
            scenario.microsim_simd_speedup,
            MIN_MICROSIM_SIMD_SPEEDUP,
            base.microsim_simd_speedup,
        ));
    }
    // Floor on incremental-repair engagement: the refresh schedule is
    // seeded and the solver deterministic, so hits per iteration are a
    // constant of the scenario shape; falling below the baseline means
    // refreshes quietly degraded to full re-solves. Only applies when the
    // baseline recorded repair traffic.
    let current_repairs = per_iter(scenario.repair_hits, scenario.iterations);
    let base_repairs = per_iter(base.repair_hits, base.iterations);
    let repairs_floor = base_repairs * (1.0 - tolerance.min(1.0)) - WORK_SLACK_REPAIR_HITS_PER_ITER;
    if base_repairs > 0.0 && current_repairs < repairs_floor {
        regressions.push(format!(
            "{}: {:.2} repair hits per iteration fell below baseline {:.2} \
             by more than {:.0}% (floor {:.2}) — are refreshes still repaired \
             instead of re-solved?",
            scenario.name,
            current_repairs,
            base_repairs,
            tolerance * 100.0,
            repairs_floor,
        ));
    }
    // Absolute floors on the same-run speedup ratios, baseline-armed like
    // the storm gate below: once a baseline demonstrated the SIMD or
    // repair win on this scenario, losing it is a regression even though
    // the wall clock alone could hide it on a faster machine.
    if base.simd_speedup >= MIN_SIMD_SPEEDUP && scenario.simd_speedup < MIN_SIMD_SPEEDUP {
        regressions.push(format!(
            "{}: SIMD speedup {:.2}x fell below the {:.1}x floor \
             (baseline {:.2}x) — vectorized relaxation no longer beats scalar",
            scenario.name, scenario.simd_speedup, MIN_SIMD_SPEEDUP, base.simd_speedup,
        ));
    }
    if base.repair_speedup >= MIN_REPAIR_SPEEDUP && scenario.repair_speedup < MIN_REPAIR_SPEEDUP {
        regressions.push(format!(
            "{}: repair speedup {:.2}x fell below the {:.1}x floor \
             (baseline {:.2}x) — incremental repair no longer beats re-solving",
            scenario.name, scenario.repair_speedup, MIN_REPAIR_SPEEDUP, base.repair_speedup,
        ));
    }
    // Ceiling on the router's oracle traffic: the routing network and its
    // query set are seeded, so the per-iteration solve count is a constant
    // of the build; growing past the baseline means the lower bounds, the
    // plan memo, or batched evaluation stopped deduplicating work.
    let current_oracle = per_iter(scenario.route_oracle_calls, scenario.iterations);
    let base_oracle = per_iter(base.route_oracle_calls, base.iterations);
    let oracle_limit = base_oracle * (1.0 + tolerance) + WORK_SLACK_ROUTE_ORACLE_CALLS_PER_ITER;
    if current_oracle > oracle_limit {
        regressions.push(format!(
            "{}: {:.0} route oracle calls per iteration exceeds baseline {:.0} \
             by more than {:.0}% (limit {:.0}) — are the emin bounds and plan \
             memo still engaged?",
            scenario.name,
            current_oracle,
            base_oracle,
            tolerance * 100.0,
            oracle_limit,
        ));
    }
    // Absolute floor on the same-run oracle-call ratio, baseline-armed
    // like the speedup gates: once a baseline demonstrated the router
    // doing 5x less oracle work than featureless Dijkstra, losing that
    // is a regression even though the wall clock could hide it.
    if base.route_oracle_ratio >= MIN_ROUTE_ORACLE_RATIO
        && scenario.route_oracle_ratio < MIN_ROUTE_ORACLE_RATIO
    {
        regressions.push(format!(
            "{}: route oracle ratio {:.2}x fell below the {:.1}x floor \
             (baseline {:.2}x) — certified pruning no longer beats Dijkstra",
            scenario.name,
            scenario.route_oracle_ratio,
            MIN_ROUTE_ORACLE_RATIO,
            base.route_oracle_ratio,
        ));
    }
    // Absolute floor, not a relative gate: steady-state serving must keep
    // recycling response buffers regardless of what the baseline measured.
    if base.buf_reuse + base.buf_alloc > 0
        && scenario.buf_reuse + scenario.buf_alloc > 0
        && scenario.buffer_reuse_rate() < MIN_BUF_REUSE_RATE
    {
        regressions.push(format!(
            "{}: buffer reuse rate {:.1}% fell below the {:.0}% floor \
             ({} reuses vs {} allocations) — is the response pool still engaged?",
            scenario.name,
            scenario.buffer_reuse_rate() * 100.0,
            MIN_BUF_REUSE_RATE * 100.0,
            scenario.buf_reuse,
            scenario.buf_alloc,
        ));
    }
    // Floors for the co-simulation storm. The scenario is seeded and the
    // coalescing window flushes on an exact waiter count, so hits per
    // iteration and waiters per flush are constants of the shape; falling
    // below the baseline means dedupe or batching silently disengaged.
    // Each floor only applies when the baseline recorded that traffic.
    let current_hits = per_iter(scenario.coalesce_hits, scenario.iterations);
    let base_hits = per_iter(base.coalesce_hits, base.iterations);
    let hits_floor = base_hits * (1.0 - tolerance.min(1.0)) - WORK_SLACK_COALESCE_HITS_PER_ITER;
    if base_hits > 0.0 && current_hits < hits_floor {
        regressions.push(format!(
            "{}: {:.0} coalesce hits per iteration fell below baseline {:.0} \
             by more than {:.0}% (floor {:.0}) — is single-flight dedupe still engaged?",
            scenario.name,
            current_hits,
            base_hits,
            tolerance * 100.0,
            hits_floor,
        ));
    }
    let fill_floor = base.batch_fill() * (1.0 - tolerance.min(1.0)) - WORK_SLACK_BATCH_FILL;
    if base.batch_flushes > 0 && scenario.batch_flushes > 0 && scenario.batch_fill() < fill_floor {
        regressions.push(format!(
            "{}: batch fill {:.1} waiters per flush fell below baseline {:.1} \
             by more than {:.0}% (floor {:.1}) — did batching collapse to singles?",
            scenario.name,
            scenario.batch_fill(),
            base.batch_fill(),
            tolerance * 100.0,
            fill_floor,
        ));
    }
}

/// Work-only comparison at **zero tolerance**: flags any scenario whose
/// deterministic work counters exceed the baseline (beyond integer slack),
/// ignoring wall time entirely. The committed baseline records the
/// memoized + pruned solver's reduced `states_expanded`, so this pins that
/// reduction — a change that re-inflates the search fails even on a noisy
/// shared runner, where the wall-clock gate needs generous tolerance.
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] for a baseline with no scenarios.
pub fn compare_work(current: &BenchReport, baseline: &BenchReport) -> Result<Comparison> {
    if baseline.scenarios.is_empty() {
        return Err(Error::invalid_input(
            "baseline contains no scenarios; refusing to compare against an empty gate",
        ));
    }
    let mut outcome = Comparison::default();
    for scenario in &current.scenarios {
        let Some(base) = baseline.scenario(&scenario.name) else {
            outcome.missing.push(scenario.name.clone());
            continue;
        };
        let before = outcome.regressions.len();
        work_regressions(scenario, base, 0.0, &mut outcome.regressions);
        if outcome.regressions.len() == before {
            outcome.passed += 1;
        }
    }
    Ok(outcome)
}

fn spark_optimizer(config: DpConfig) -> Result<DpOptimizer> {
    DpOptimizer::new(EnergyModel::new(VehicleParams::spark_ev()), config)
}

/// Times `trip_iters` full-corridor solves with one persistent arena, so
/// every iteration after the first exercises the reuse path.
fn single_trip(name: &str, config: DpConfig, iters: usize) -> Result<ScenarioResult> {
    let road = Road::us25();
    let constraints = green_only_constraints(&road, config.horizon);
    let optimizer = spark_optimizer(config)?;
    let mut arena = SolverArena::new();
    let mut metrics = SolverMetrics::default();
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        let profile =
            optimizer.optimize_from_with(&road, &constraints, StartState::default(), &mut arena)?;
        samples.push(start.elapsed().as_secs_f64());
        metrics.absorb(&profile.metrics);
    }
    ScenarioResult::from_samples(name, &samples, &metrics)
}

/// Times the fleet-gateway burst: one `optimize_batch` call over
/// `batch_size` seeded mid-trip requests per iteration.
fn batch_burst(spec: &MatrixSpec) -> Result<ScenarioResult> {
    let road = Road::us25();
    let config = DpConfig::default();
    let constraints = green_only_constraints(&road, config.horizon);
    let optimizer = spark_optimizer(config)?;
    // The same jittered mid-trip starts the Criterion batch bench uses,
    // but seeded, so every run solves the identical burst.
    let mut rng = SplitMix64::new(BENCH_SEED ^ 0xBA7C);
    let starts: Vec<StartState> = (0..spec.batch_size)
        .map(|_| StartState {
            position: Meters::new(rng.uniform(1900.0, 2250.0)),
            speed: MetersPerSecond::new(rng.uniform(10.0, 15.0)),
            time: Seconds::new(rng.uniform(120.0, 184.0)),
        })
        .collect();
    let requests: Vec<PlanRequest<'_>> = starts
        .iter()
        .map(|&start| PlanRequest {
            road: &road,
            signals: &constraints,
            start,
        })
        .collect();

    let mut metrics = SolverMetrics::default();
    let mut samples = Vec::with_capacity(spec.batch_iters);
    for _ in 0..spec.batch_iters {
        let start = Instant::now();
        let results = optimizer.optimize_batch(&requests);
        samples.push(start.elapsed().as_secs_f64());
        for result in results {
            metrics.absorb(&result?.metrics);
        }
    }
    ScenarioResult::from_samples(&format!("batch_{}", spec.batch_size), &samples, &metrics)
}

/// Times the MPC loop in steady state: mostly cheap stale-plan ticks with a
/// forced drift (and therefore a mid-trip re-solve) every eighth tick.
fn replan_steady_state(ticks: usize) -> Result<ScenarioResult> {
    let system = VelocityOptimizationSystem::new(SystemConfig::us25_rush())?;
    let corridor = system.config().road.length().value();
    let mut replanner = Replanner::new(system, ReplanConfig::default())?;
    let mut rng = SplitMix64::new(BENCH_SEED ^ 0x4E9);
    let mut metrics = replanner.plan().metrics;
    let mut refreshes = replanner.replans();
    let mut samples = Vec::with_capacity(ticks);
    for i in 0..ticks {
        // Sweep the middle 70% of the corridor; the ends are not plannable.
        let frac = 0.1 + 0.7 * (i as f64 / ticks.max(1) as f64);
        let position = Meters::new(corridor * frac);
        let planned = replanner.plan().arrival_time_at(position);
        let drift = if i % 8 == 7 {
            // Stuck behind a platoon: late enough to force a refresh.
            rng.uniform(10.0, 12.0)
        } else {
            rng.uniform(-0.5, 0.5)
        };
        let speed = MetersPerSecond::new(
            replanner
                .plan()
                .speed_at_position(position)
                .value()
                .max(8.0),
        );
        let start = Instant::now();
        replanner.command(position, speed, planned + Seconds::new(drift))?;
        samples.push(start.elapsed().as_secs_f64());
        if replanner.replans() > refreshes {
            refreshes = replanner.replans();
            metrics.absorb(&replanner.plan().metrics);
        }
    }
    ScenarioResult::from_samples("replan_steady_state", &samples, &metrics)
}

/// Times the window-refresh path alone: every tick installs a shifted set
/// of queue-free windows (the downstream signal's epoch slipping — the
/// common cloud `T_q` push) through [`Replanner::refresh_windows`], so the
/// row is pure refresh latency — warm arena, warm transition memo. With
/// repair on, the solver revalidates the retained layer stack and
/// re-relaxes only the dirty suffix; the identical schedule is first timed
/// with repair off (full re-solves from the same warm arena), and
/// `repair_speedup` is the ratio of the two medians — a same-run ratio, so
/// machine speed cancels out — which `--check` keeps above
/// [`MIN_REPAIR_SPEEDUP`]. The schedule is deterministic and every tick's
/// windows differ from the previous tick's, so the repair-hit counters are
/// machine-invariant and `--check-work` floors them.
fn replan_refresh_only(ticks: usize) -> Result<ScenarioResult> {
    let run = |repair: bool| -> Result<(Vec<f64>, SolverMetrics)> {
        let system = VelocityOptimizationSystem::new(SystemConfig::us25_rush())?;
        let config = ReplanConfig {
            min_interval: Seconds::ZERO,
            repair,
            ..ReplanConfig::default()
        };
        let mut replanner = Replanner::new(system, config)?;
        let base = replanner.windows().to_vec();
        // One untimed refresh retains the layer stack, so every timed tick
        // exercises the steady state (repair, or a warm full re-solve).
        replanner.refresh_windows(base.clone())?;
        let mut metrics = SolverMetrics::default();
        let mut samples = Vec::with_capacity(ticks);
        for i in 0..ticks {
            let mut windows = base.clone();
            let last = windows
                .last_mut()
                .ok_or_else(|| Error::invalid_input("us25 rush hour has no signals"))?;
            // Bounded drift of the downstream epoch: consecutive ticks
            // always differ, and the upstream windows stay put, so repair
            // only ever has to re-relax the final layers.
            let shift = Seconds::new(0.25 * ((i % 8) as f64 + 1.0));
            for w in &mut last.windows {
                w.start += shift;
                w.end += shift;
            }
            let start = Instant::now();
            let plan = replanner.refresh_windows(windows)?;
            samples.push(start.elapsed().as_secs_f64());
            metrics.absorb(&plan.metrics);
        }
        Ok((samples, metrics))
    };
    let (scratch_samples, _) = run(false)?;
    let (samples, metrics) = run(true)?;
    let mut result = ScenarioResult::from_samples("replan_refresh", &samples, &metrics)?;
    result.repair_speedup =
        Percentiles::from_samples(&scratch_samples)?.p50 / result.wall_seconds.p50.max(1e-12);
    Ok(result)
}

/// Times the identical seeded full-corridor exact solve under both
/// dispatches — forced-scalar first, then SIMD — each through its own warm
/// arena, and reports the same-run median ratio as `simd_speedup`
/// (`--check` keeps it above [`MIN_SIMD_SPEEDUP`] once a baseline has
/// demonstrated it).
fn dp_single_simd(iters: usize) -> Result<ScenarioResult> {
    let road = Road::us25();
    let run = |simd: bool| -> Result<(Vec<f64>, SolverMetrics)> {
        let config = DpConfig {
            simd,
            ..DpConfig::default()
        };
        let constraints = green_only_constraints(&road, config.horizon);
        let optimizer = spark_optimizer(config)?;
        let mut arena = SolverArena::new();
        let mut metrics = SolverMetrics::default();
        let mut samples = Vec::with_capacity(iters);
        for _ in 0..iters {
            let start = Instant::now();
            let profile = optimizer.optimize_from_with(
                &road,
                &constraints,
                StartState::default(),
                &mut arena,
            )?;
            samples.push(start.elapsed().as_secs_f64());
            metrics.absorb(&profile.metrics);
        }
        Ok((samples, metrics))
    };
    let (scalar_samples, _) = run(false)?;
    let (samples, metrics) = run(true)?;
    let mut result = ScenarioResult::from_samples("dp_single_simd", &samples, &metrics)?;
    result.simd_speedup =
        Percentiles::from_samples(&scalar_samples)?.p50 / result.wall_seconds.p50.max(1e-12);
    Ok(result)
}

/// The fleet-gateway burst under both dispatches: the same seeded mid-trip
/// requests as `batch_burst`, solved scalar then SIMD on all cores, with
/// the same-run median ratio reported as `simd_speedup`.
fn dp_batch_simd(spec: &MatrixSpec) -> Result<ScenarioResult> {
    let road = Road::us25();
    let run = |simd: bool| -> Result<(Vec<f64>, SolverMetrics)> {
        let config = DpConfig {
            simd,
            ..DpConfig::default()
        };
        let constraints = green_only_constraints(&road, config.horizon);
        let optimizer = spark_optimizer(config)?;
        let mut rng = SplitMix64::new(BENCH_SEED ^ 0xBA7C);
        let starts: Vec<StartState> = (0..spec.batch_size)
            .map(|_| StartState {
                position: Meters::new(rng.uniform(1900.0, 2250.0)),
                speed: MetersPerSecond::new(rng.uniform(10.0, 15.0)),
                time: Seconds::new(rng.uniform(120.0, 184.0)),
            })
            .collect();
        let requests: Vec<PlanRequest<'_>> = starts
            .iter()
            .map(|&start| PlanRequest {
                road: &road,
                signals: &constraints,
                start,
            })
            .collect();
        let mut metrics = SolverMetrics::default();
        let mut samples = Vec::with_capacity(spec.batch_iters);
        for _ in 0..spec.batch_iters {
            let start = Instant::now();
            let results = optimizer.optimize_batch(&requests);
            samples.push(start.elapsed().as_secs_f64());
            for result in results {
                metrics.absorb(&result?.metrics);
            }
        }
        Ok((samples, metrics))
    };
    let (scalar_samples, _) = run(false)?;
    let (samples, metrics) = run(true)?;
    let mut result = ScenarioResult::from_samples("dp_batch_simd", &samples, &metrics)?;
    result.simd_speedup =
        Percentiles::from_samples(&scalar_samples)?.p50 / result.wall_seconds.p50.max(1e-12);
    Ok(result)
}

/// The seeded SAE training workload: the paper's station shape, two weeks
/// of hourly volumes, and the mini-batch trainer's production-sized recipe.
fn sae_bench_config() -> SaePredictorConfig {
    let sgd = |epochs: usize| SgdConfig {
        epochs,
        learning_rate: 0.05,
        momentum: 0.9,
        batch_size: 64,
    };
    SaePredictorConfig {
        lags: 24,
        sae: SaeConfig {
            hidden_layers: vec![24, 12],
            pretrain: sgd(6),
            finetune: sgd(40),
            ..SaeConfig::default()
        },
    }
}

/// Times full SAE trainings (layer-wise pretraining + fine-tune) on the
/// seeded two-week feed. The work counters — gemm FLOPs, scratch
/// reuse/allocations — are deterministic per iteration, so `--check-work`
/// pins both the kernel workload and the arena recycling.
fn sae_train(iters: usize) -> Result<ScenarioResult> {
    let feed = VolumeGenerator::us25_station(BENCH_SEED).generate_weeks(2)?;
    let cfg = sae_bench_config();
    let mut metrics = TrainMetrics::default();
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        let predictor = SaePredictor::train(&feed, &cfg)?;
        samples.push(start.elapsed().as_secs_f64());
        metrics.absorb(predictor.sae().metrics());
    }
    ScenarioResult::from_traffic_samples("sae_train", &samples, &metrics)
}

/// Times warm batched multi-horizon rollouts: 32 intersections × 24
/// lookahead hours per call through [`VolumePredictor::predict_batch_with`]
/// with reused scratch. Counters are deltas across the timed loop only
/// (after one warm-up call), so the committed baseline records **zero**
/// steady-state scratch allocations and `--check-work` keeps it that way.
fn sae_predict_batch(iters: usize) -> Result<ScenarioResult> {
    let feed = VolumeGenerator::us25_station(BENCH_SEED).generate_weeks(2)?;
    let cfg = sae_bench_config();
    let vp = VolumePredictor::train(&feed, &cfg)?;
    let lags = vp.predictor().lags();
    let queries: Vec<VolumeQuery> = (0..32)
        .map(|q| VolumeQuery {
            history: feed.samples()[q * 3..q * 3 + lags].to_vec(),
            hour_index: q * 3 + lags,
        })
        .collect();
    let horizons = 24;
    let mut scratch = VolumeScratch::new();
    let mut out = Vec::new();
    vp.predict_batch_with(&queries, horizons, &mut scratch, &mut out)?;
    let (warm_hits, warm_allocs, warm_flops) =
        (scratch.reuse_hits(), scratch.allocations(), scratch.flops());
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        vp.predict_batch_with(&queries, horizons, &mut scratch, &mut out)?;
        samples.push(start.elapsed().as_secs_f64());
    }
    let metrics = TrainMetrics {
        gemm_flops: scratch.flops() - warm_flops,
        scratch_reuse_hits: scratch.reuse_hits() - warm_hits,
        scratch_allocations: scratch.allocations() - warm_allocs,
        ..TrainMetrics::default()
    };
    ScenarioResult::from_traffic_samples("sae_predict_batch", &samples, &metrics)
}

/// Times concurrent serving through the cloud's sharded reactor:
/// `cloud_clients` simultaneous connections against 4 compute workers,
/// driven in lockstep rounds of mixed traffic (cached trip plans, volume
/// forecasts, telemetry, stats). Each sample is one round — every
/// connection writes its request, then every response is read back — so
/// the percentiles describe how long a full concurrent wave takes, and
/// throughput is `cloud_clients / p50`. The buffer-pool and encode-skip
/// counters are deltas across the timed rounds only (after a warm-up
/// round), so the committed baseline records near-total steady-state
/// reuse and `--check-work` keeps it that way.
fn cloud_serve(spec: &MatrixSpec) -> Result<ScenarioResult> {
    let clients = spec.cloud_clients;
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: 4,
        shards: 2,
        max_connections: clients + 8,
        // Retain a full round's worth of responses per shard so steady
        // state never allocates.
        buffer_pool_capacity: clients,
        ..ServerConfig::default()
    })?;
    let addr = server.addr();

    // Warm the plan cache (4 distinct trips) and the predictor cache (one
    // SAE training) through one connection, so the timed rounds measure
    // serving, not solving.
    let departures = [0.0, 60.0, 120.0, 180.0];
    let feed = VolumeGenerator::us25_station(BENCH_SEED).generate_weeks(2)?;
    let lags = 12;
    let predict = PredictBatchRequest {
        station_seed: BENCH_SEED,
        train_weeks: 2,
        horizons: 3,
        queries: vec![PredictQuery {
            history: feed.samples()[..lags].to_vec(),
            hour_index: lags as u64,
        }],
    };
    let frame = |tag: u8, payload: &[u8]| -> Result<Vec<u8>> {
        let mut out = Vec::new();
        write_frame(&mut out, tag, payload)?;
        Ok(out)
    };
    let trip_frames: Vec<Vec<u8>> = departures
        .iter()
        .map(|&d| frame(tags::REQ_TRIP, &TripRequest::us25_at(d).encode()))
        .collect::<Result<_>>()?;
    let predict_frame = frame(tags::REQ_PREDICT_BATCH, &predict.encode())?;
    let telemetry_frame = frame(tags::REQ_TELEMETRY, &[])?;
    let stats_frame = frame(tags::REQ_STATS, &[])?;
    {
        let mut warm = TcpStream::connect(addr)?;
        for f in trip_frames.iter().chain([&predict_frame]) {
            warm.write_all(f)?;
            read_frame(&mut warm)?
                .ok_or_else(|| Error::invalid_input("cloud warm-up connection closed"))?;
        }
    }

    let streams: Vec<TcpStream> = (0..clients)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true).ok();
            Ok(s)
        })
        .collect::<Result<_>>()?;
    // Each connection's fixed request: trip hits, forecasts, telemetry and
    // stats in a 1:1:1:1 mix (the pooled-response paths dominate 3:1).
    let request_for = |i: usize| -> &[u8] {
        match i % 4 {
            0 => &trip_frames[(i / 4) % departures.len()],
            1 => &predict_frame,
            2 => &telemetry_frame,
            _ => &stats_frame,
        }
    };
    let round = |streams: &[TcpStream]| -> Result<f64> {
        let start = Instant::now();
        for (i, mut stream) in streams.iter().enumerate() {
            stream.write_all(request_for(i))?;
        }
        for mut stream in streams {
            let (tag, payload) = read_frame(&mut stream)?
                .ok_or_else(|| Error::invalid_input("cloud bench connection closed"))?;
            if tag == tags::RESP_ERROR {
                return Err(Error::invalid_input(format!(
                    "cloud bench request rejected: {}",
                    String::from_utf8_lossy(&payload)
                )));
            }
        }
        Ok(start.elapsed().as_secs_f64())
    };

    // One warm-up round fills the per-shard buffer pools; counters are
    // deltas across the timed rounds only.
    round(&streams)?;
    let (reuse0, alloc0) = server.stats().buffer_pool();
    let skipped0 = server.stats().plan_encode_skipped();
    let mut samples = Vec::with_capacity(spec.cloud_rounds);
    for _ in 0..spec.cloud_rounds {
        samples.push(round(&streams)?);
    }
    let (reuse, alloc) = server.stats().buffer_pool();
    let skipped = server.stats().plan_encode_skipped();
    let result = ScenarioResult::from_cloud_samples(
        &format!("cloud_serve_{clients}"),
        &samples,
        reuse - reuse0,
        alloc - alloc0,
        skipped - skipped0,
    );
    drop(streams);
    server.shutdown();
    result
}

/// Times the co-simulation replan storm through the coalescing layer: the
/// traffic pattern the fleet driver produces when a signal epoch flips —
/// `cosim_vehicles` simultaneous `REQ_TRIP`s sharing `cosim_corridors`
/// distinct trip keys — replayed in lockstep rounds against two servers at
/// the same worker count: one without a coalescing window (leaders solve
/// inline), one batching with `batch_max` pinned to the wave size. Each
/// round uses fresh departures, so no round starts from a cached plan and
/// the batching server's counters are exact: per round, one flush,
/// `cosim_corridors` flights, `cosim_vehicles - cosim_corridors`
/// single-flight hits. Both servers single-flight, so the window-0 run is
/// checked exactly too: per round it solves each key once and answers the
/// other requests as followers (or, for a duplicate that reaches a worker
/// after its leader landed, from the cache); any other count fails the
/// scenario. The timed samples are the batching server's rounds;
/// `storm_speedup` is the window-0 median over the batching median, a
/// same-run ratio reported without a bound.
fn cloud_cosim(spec: &MatrixSpec) -> Result<ScenarioResult> {
    let wave = spec.cosim_vehicles.max(1);
    let keys = spec.cosim_corridors.clamp(1, wave);
    let rounds = spec.cosim_rounds.max(1);

    // The fleet's corridors: short seeded arterials. Every vehicle on a
    // corridor shares its canonical TripRequest, exactly as the fleet
    // driver builds one request per (corridor, signal epoch).
    let template = CorridorTemplate {
        length: (600.0, 900.0),
        ..CorridorTemplate::default()
    };
    let roads: Vec<Road> = (0..keys)
        .map(|i| template.generate(BENCH_SEED ^ (0xC0_5100 + i as u64)))
        .collect::<Result<_>>()?;
    let request_frame = |vehicle: usize, round: usize| -> Result<Vec<u8>> {
        let road = roads[vehicle % keys].clone();
        let rates = vec![VehiclesPerHour::new(840.0); road.traffic_lights().len()];
        let trip = TripRequest {
            road,
            // Fresh departures per round: a new signal epoch, so every
            // round misses the plan cache on both servers.
            departure: Seconds::new(300.0 + 60.0 * round as f64),
            rates,
            queue: QueueParams::us25_probe(),
            queue_aware: true,
        };
        let mut out = Vec::new();
        write_frame(&mut out, tags::REQ_TRIP, &trip.encode())?;
        Ok(out)
    };

    // One storm: `wave` persistent connections, each round writes every
    // request then reads every response back (lockstep, like the fleet
    // driver's replan wave), one wall sample per round.
    let storm = |addr: std::net::SocketAddr| -> Result<Vec<f64>> {
        let streams: Vec<TcpStream> = (0..wave)
            .map(|_| {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true).ok();
                Ok(s)
            })
            .collect::<Result<_>>()?;
        let mut samples = Vec::with_capacity(rounds);
        for round in 0..rounds {
            let frames: Vec<Vec<u8>> = (0..wave)
                .map(|v| request_frame(v, round))
                .collect::<Result<_>>()?;
            let start = Instant::now();
            for (mut stream, frame) in streams.iter().zip(&frames) {
                stream.write_all(frame)?;
            }
            for mut stream in &streams {
                let (tag, payload) = read_frame(&mut stream)?
                    .ok_or_else(|| Error::invalid_input("cosim bench connection closed"))?;
                if tag != tags::RESP_PROFILE {
                    return Err(Error::invalid_input(format!(
                        "cosim bench request rejected: {}",
                        String::from_utf8_lossy(&payload)
                    )));
                }
            }
            samples.push(start.elapsed().as_secs_f64());
        }
        Ok(samples)
    };

    // The window-0 server first: same compute pool, no batching, so each
    // key's leader solves inline while its duplicates wait on it.
    let singles = CloudServer::spawn_with(ServerConfig {
        compute_workers: 4,
        shards: 2,
        max_connections: wave + 8,
        ..ServerConfig::default()
    })?;
    let singles_samples = storm(singles.addr())?;
    let stats = singles.stats();
    let (solves, shared) = (
        stats.coalesce_flights(),
        stats.coalesce_hits() + stats.cache_hits(),
    );
    singles.shutdown();
    let expected = ((keys * rounds) as u64, ((wave - keys) * rounds) as u64);
    if (solves, shared) != expected {
        return Err(Error::invalid_input(format!(
            "cosim bench: the window-0 server made {solves} fresh solves and answered \
             {shared} requests from a shared solve; single-flight means exactly {} and {}",
            expected.0, expected.1
        )));
    }

    // Then the coalescing server: the window is long and `batch_max` is
    // the wave size, so every round is exactly one inline flush.
    let coalesced = CloudServer::spawn_with(ServerConfig {
        compute_workers: 4,
        shards: 2,
        max_connections: wave + 8,
        coalesce_window: Duration::from_secs(5),
        batch_max: wave,
        ..ServerConfig::default()
    })?;
    let samples = storm(coalesced.addr())?;
    let stats = coalesced.stats();
    let (hits, flights, flushes) = (
        stats.coalesce_hits(),
        stats.coalesce_flights(),
        stats.batch_flushes(),
    );
    coalesced.shutdown();

    let singles_p50 = Percentiles::from_samples(&singles_samples)?.p50;
    let coalesced_p50 = Percentiles::from_samples(&samples)?.p50;
    ScenarioResult::from_cosim_samples(
        &format!("cloud_cosim_{wave}x{keys}"),
        &samples,
        hits,
        flights,
        flushes,
        singles_p50 / coalesced_p50.max(1e-12),
    )
}

/// Per-field delta of two cumulative step-metric snapshots (`after` taken
/// later in the same run than `before`).
fn step_metrics_delta(after: StepMetrics, before: StepMetrics) -> StepMetrics {
    StepMetrics {
        simd_lanes: after.simd_lanes - before.simd_lanes,
        scalar_lanes: after.scalar_lanes - before.scalar_lanes,
        sweep_advances: after.sweep_advances - before.sweep_advances,
        sign_window_checks: after.sign_window_checks - before.sign_window_checks,
        arena_grows: after.arena_grows - before.arena_grows,
        arena_reuses: after.arena_reuses - before.arena_reuses,
    }
}

/// Times the sharded multi-corridor microsimulation: a seeded chain of
/// `network_corridors` dense arterial corridors (roughly 20 signals each),
/// every corridor fed by its own arrival process and carrying its own
/// seeded [`VehicleMix`] (truck and IDM shares vary corridor to corridor),
/// stepped in lockstep on all cores. An untimed warm-up fills the network
/// with traffic; each timed round then advances one simulated second (ten
/// ticks), so the percentiles describe how much wall time a simulated
/// second costs and throughput is `vehicles_stepped / iterations / p50`
/// vehicle-steps per second. The vehicle-step, handoff, and kernel-lane
/// counters are deltas across the timed rounds only and — because the
/// network is bit-identical at any shard count and under either dispatch —
/// machine-invariant, so `--check-work` pins the workload and the pooled
/// scratch's zero-steady-state-allocation property. Two bit-identical
/// networks — one forced scalar, one auto-dispatch — advance in
/// interleaved one-second rounds so host drift hits both flavors equally,
/// and `microsim_simd_speedup` is the ratio of the per-round medians
/// (diluted below the step-engine ratio by the dispatch-invariant shard
/// scheduling, junction routing, and injection scans this scenario
/// deliberately includes).
fn microsim_network(spec: &MatrixSpec) -> Result<ScenarioResult> {
    let template = CorridorTemplate {
        length: (2500.0, 4500.0),
        lights: (16, 24),
        ..CorridorTemplate::default()
    };
    let build = |simd: bool| -> Result<Network> {
        let mut mix_rng = SplitMix64::new(BENCH_SEED ^ 0x317A);
        let specs = (0..spec.network_corridors)
            .map(|i| {
                let road = template.generate(BENCH_SEED ^ (0xC0_0000 + i as u64))?;
                let mut corridor = if i + 1 < spec.network_corridors {
                    CorridorSpec::through(road, i + 1)
                } else {
                    CorridorSpec::terminal(road)
                };
                corridor.arrival_rate = VehiclesPerHour::new(1000.0);
                corridor.mix = Some(VehicleMix {
                    truck_fraction: mix_rng.uniform(0.0, 0.25),
                    idm_fraction: mix_rng.uniform(0.0, 0.35),
                });
                Ok(corridor)
            })
            .collect::<Result<Vec<_>>>()?;
        let config = SimConfig {
            seed: BENCH_SEED ^ 0x2E7,
            straight_ratio: 0.97,
            simd,
            ..SimConfig::default()
        };
        let mut net = Network::new(specs, 0, config)?;
        net.run_until(Seconds::new(spec.network_warmup_s))?;
        Ok(net)
    };
    let mut scalar = build(false)?;
    let mut auto = build(true)?;
    let warm = auto.stats();
    let warm_metrics = auto.step_metrics();
    let mut scalar_samples = Vec::with_capacity(spec.network_rounds);
    let mut samples = Vec::with_capacity(spec.network_rounds);
    for round in 0..spec.network_rounds {
        let target = Seconds::new(spec.network_warmup_s + (round + 1) as f64);
        let start = Instant::now();
        scalar.run_until(target)?;
        scalar_samples.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        auto.run_until(target)?;
        samples.push(start.elapsed().as_secs_f64());
    }
    let stats = auto.stats();
    let metrics = step_metrics_delta(auto.step_metrics(), warm_metrics);
    let speedup = Percentiles::from_samples(&scalar_samples)?.p50
        / Percentiles::from_samples(&samples)?.p50.max(1e-12);
    ScenarioResult::from_network_samples(
        &format!("microsim_network_{}", spec.network_corridors),
        &samples,
        stats.vehicles_stepped - warm.vehicles_stepped,
        stats.handoffs - warm.handoffs,
        metrics,
        speedup,
    )
}

/// Times the single-corridor step engine on a dense signalized platoon: a
/// 30 km arterial with 36 offset fixed-time lights, no stop signs, no
/// speed zones, no detectors, and a non-dawdling (`σ = 0`) Krauss
/// population, filled by an untimed saturating warm-up and then *frozen*
/// (arrivals shut off) so the timed rounds measure pure stepping of a
/// ~500-vehicle queue-discharge workload with no O(V) injection scans
/// diluting the kernel share. Two bit-identical simulations — one forced
/// scalar, one auto-dispatch — advance in interleaved 50-tick rounds (five
/// simulated seconds each), so clock-frequency and cache drift hit both
/// flavors equally, and `microsim_simd_speedup` is the ratio of the
/// per-round medians. `--check` keeps it above
/// [`MIN_MICROSIM_SIMD_SPEEDUP`] once a baseline demonstrated it; the lane
/// and arena counters are deltas across the auto run's timed rounds (the
/// lane total floors the workload, the arena-grow ceiling pins zero
/// steady-state allocation).
fn microsim_step(spec: &MatrixSpec) -> Result<ScenarioResult> {
    const LIGHTS: usize = 36;
    let length = 30_000.0;
    let mut builder = RoadBuilder::new(Meters::new(length));
    for i in 0..LIGHTS {
        builder.traffic_light(
            Meters::new(length / (LIGHTS + 1) as f64 * (i + 1) as f64),
            Seconds::new(25.0),
            Seconds::new(35.0),
            Seconds::new(7.0 * i as f64),
        );
    }
    let road = builder.build()?;
    let build = |simd: bool| -> Result<Simulation> {
        let config = SimConfig {
            seed: BENCH_SEED ^ 0x57E9,
            // No dawdle: the scalar post-kernel pass is empty, so the
            // timed work is the lane kernels, the sweep, and integration.
            background: KraussParams {
                sigma: 0.0,
                ..KraussParams::passenger()
            },
            straight_ratio: 1.0,
            simd,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(road.clone(), config)?;
        sim.set_arrival_rate(VehiclesPerHour::new(2600.0));
        sim.run_until(Seconds::new(spec.step_warmup_s))?;
        // Freeze the platoon: the timed rounds step a fixed population.
        sim.set_arrival_rate(VehiclesPerHour::new(0.0));
        Ok(sim)
    };
    let mut scalar = build(false)?;
    let mut auto = build(true)?;
    let warm = auto.step_metrics();
    let ticks = 10 * spec.step_round_s;
    let mut scalar_samples = Vec::with_capacity(spec.step_rounds);
    let mut samples = Vec::with_capacity(spec.step_rounds);
    for _ in 0..spec.step_rounds {
        let start = Instant::now();
        for _ in 0..ticks {
            scalar.step();
        }
        scalar_samples.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        for _ in 0..ticks {
            auto.step();
        }
        samples.push(start.elapsed().as_secs_f64());
    }
    let metrics = step_metrics_delta(auto.step_metrics(), warm);
    let speedup = Percentiles::from_samples(&scalar_samples)?.p50
        / Percentiles::from_samples(&samples)?.p50.max(1e-12);
    ScenarioResult::from_network_samples(
        "microsim_step",
        &samples,
        metrics.total_lanes(),
        0,
        metrics,
        speedup,
    )
}

/// Times energy-optimal routing over a seeded grid network: each iteration
/// runs a fixed query set (corner-to-corner and cross-grid sweeps) against
/// a cold router, so the oracle-call, pruning, and memo counters are
/// per-iteration invariant. Like `dp_single_simd`, the scenario is a
/// same-run comparison: the featureless sweep — lower bounds, plan memo,
/// and batched frontier evaluation all off, i.e. plain Dijkstra paying one
/// DP solve per (edge, departure bin) — runs first over the identical
/// queries, and `route_oracle_ratio` divides its oracle calls by the full
/// router's. Both counts are deterministic, so the ratio is
/// machine-invariant and `--check-work` keeps it above
/// [`MIN_ROUTE_ORACLE_RATIO`].
fn route_plan(spec: &MatrixSpec) -> Result<ScenarioResult> {
    let side = spec.route_grid.max(2);
    let template = NetworkTemplate {
        rows: side,
        cols: side,
        corridor: CorridorTemplate {
            length: (200.0, 400.0),
            lights: (0, 1),
            phase: (15.0, 25.0),
            stop_sign_probability: 0.3,
            max_grade_percent: 0.0,
            limits_kmh: (30.0, 50.0),
        },
        corridor_pool: 4,
    };
    let graph = template.generate(BENCH_SEED ^ 0x207E)?;
    let corner = side - 1;
    let queries = [
        (
            template.node_at(0, 0),
            template.node_at(corner, corner),
            0.0,
        ),
        (
            template.node_at(0, corner),
            template.node_at(corner, 0),
            45.0,
        ),
        (
            template.node_at(corner, 0),
            template.node_at(0, corner),
            90.0,
        ),
        (
            template.node_at(side / 2, 0),
            template.node_at(side / 2, corner),
            150.0,
        ),
    ];
    let run = |config: RouteConfig, iters: usize| -> Result<(Vec<f64>, RouteMetrics)> {
        let mut metrics = RouteMetrics::default();
        let mut samples = Vec::with_capacity(iters);
        for _ in 0..iters {
            let optimizer = spark_optimizer(DpConfig {
                horizon: Seconds::new(300.0),
                ..DpConfig::default()
            })?;
            let mut router = Router::new(optimizer, config)?;
            let start = Instant::now();
            for &(origin, dest, depart) in &queries {
                let plan = router.plan(
                    &graph,
                    RouteQuery {
                        origin,
                        dest,
                        depart: Seconds::new(depart),
                    },
                )?;
                metrics.absorb(&plan.metrics);
            }
            samples.push(start.elapsed().as_secs_f64());
        }
        Ok((samples, metrics))
    };
    let dijkstra = RouteConfig {
        heuristic: false,
        memo: false,
        batch_frontier: false,
        ..RouteConfig::default()
    };
    // One reference iteration is enough: the sweep is deterministic, so
    // its per-iteration oracle count never moves, and repeating the (much
    // slower) featureless search would only burn matrix time.
    let (_, dijkstra_metrics) = run(dijkstra, 1)?;
    let iters = spec.route_iters.max(1);
    let (samples, metrics) = run(RouteConfig::default(), iters)?;
    let ratio = dijkstra_metrics.oracle_calls as f64
        / (metrics.oracle_calls as f64 / iters as f64).max(1.0);
    ScenarioResult::from_route_samples(
        &format!("route_plan_{}", side * side),
        &samples,
        &metrics,
        ratio,
    )
}

/// Runs the scenario matrix — optionally filtered — and collects the
/// report. `filter` is matched as a substring of each scenario family's
/// stable name stem (`"route_plan"`, `"cloud"`, `"sae"`, …); passing a
/// filter that selects nothing is an error, so a typo cannot silently
/// produce an empty report.
///
/// # Errors
///
/// Propagates solver failures — the matrix is seeded, so a scenario that
/// solves once solves always, and an error here means the build is broken.
/// Returns [`Error::InvalidInput`] for a filter no scenario stem contains.
pub fn run_scenarios(spec: &MatrixSpec, filter: Option<&str>) -> Result<BenchReport> {
    let greedy = DpConfig {
        time_handling: TimeHandling::Greedy,
        ..DpConfig::default()
    };
    type Scenario<'a> = (
        &'static str,
        Box<dyn FnOnce() -> Result<ScenarioResult> + 'a>,
    );
    let entries: Vec<Scenario<'_>> = vec![
        (
            "single_trip_sequential",
            Box::new(move || {
                single_trip(
                    "single_trip_sequential",
                    DpConfig::default(),
                    spec.trip_iters,
                )
            }),
        ),
        (
            "single_trip_greedy",
            Box::new(move || single_trip("single_trip_greedy", greedy, spec.trip_iters)),
        ),
        ("batch", Box::new(|| batch_burst(spec))),
        (
            "dp_single_simd",
            Box::new(|| dp_single_simd(spec.trip_iters)),
        ),
        ("dp_batch_simd", Box::new(|| dp_batch_simd(spec))),
        (
            "replan_steady_state",
            Box::new(|| replan_steady_state(spec.replan_ticks)),
        ),
        (
            "replan_refresh",
            Box::new(|| replan_refresh_only((spec.replan_ticks / 4).max(1))),
        ),
        ("sae_train", Box::new(|| sae_train(spec.sae_train_iters))),
        (
            "sae_predict_batch",
            Box::new(|| sae_predict_batch(spec.sae_predict_iters)),
        ),
        ("cloud_serve", Box::new(|| cloud_serve(spec))),
        ("cloud_cosim", Box::new(|| cloud_cosim(spec))),
        ("microsim_network", Box::new(|| microsim_network(spec))),
        ("microsim_step", Box::new(|| microsim_step(spec))),
        ("route_plan", Box::new(|| route_plan(spec))),
    ];
    if let Some(needle) = filter {
        if !entries.iter().any(|(stem, _)| stem.contains(needle)) {
            let known: Vec<&str> = entries.iter().map(|(stem, _)| *stem).collect();
            return Err(Error::invalid_input(format!(
                "--scenario {needle:?} matches no scenario; known stems: {}",
                known.join(", ")
            )));
        }
    }
    let mut scenarios = Vec::new();
    for (stem, entry) in entries {
        if filter.is_some_and(|needle| !stem.contains(needle)) {
            continue;
        }
        scenarios.push(entry()?);
    }
    Ok(BenchReport { scenarios })
}

/// Runs the whole scenario matrix and collects the report.
///
/// # Errors
///
/// Propagates solver failures — the matrix is seeded, so a scenario that
/// solves once solves always, and an error here means the build is broken.
pub fn run_matrix(spec: &MatrixSpec) -> Result<BenchReport> {
    run_scenarios(spec, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(name: &str, p50: f64) -> ScenarioResult {
        ScenarioResult {
            name: name.to_string(),
            iterations: 5,
            wall_seconds: Percentiles {
                min: p50 * 0.8,
                p50,
                p90: p50 * 1.2,
                p95: p50 * 1.25,
                p99: p50 * 1.3,
                max: p50 * 1.4,
            },
            states_expanded: 1000,
            states_pruned: 400,
            arena_reuse_hits: 12,
            arena_allocations: 3,
            memo_hits: 90,
            memo_misses: 10,
            energy_evals: 500,
            rows_skipped: 20,
            simd_rows: 800,
            repair_hits: 4 * 5,
            repair_full_resolves: 1,
            repair_layers_skipped: 600,
            simd_speedup: 2.6,
            repair_speedup: 4.2,
            gemm_flops: 50_000,
            scratch_reuse_hits: 40,
            scratch_allocations: 5,
            buf_reuse: 950,
            buf_alloc: 50,
            plan_encode_skipped: 100,
            coalesce_hits: 60,
            coalesce_flights: 20,
            batch_flushes: 5,
            storm_speedup: 3.5,
            vehicles_stepped: 40_000,
            network_handoffs: 120,
            route_oracle_calls: 400,
            route_edges_pruned: 150,
            route_plan_memo_hits: 60,
            route_oracle_ratio: 6.5,
            sim_simd_lanes: 30_000,
            sim_scalar_lanes: 10_000,
            sim_arena_grows: 0,
            microsim_simd_speedup: 2.8,
        }
    }

    fn report(entries: &[(&str, f64)]) -> BenchReport {
        BenchReport {
            scenarios: entries.iter().map(|&(n, p)| scenario(n, p)).collect(),
        }
    }

    #[test]
    fn report_json_round_trips() {
        let original = report(&[("a", 0.125), ("b", 2.5e-3)]);
        let parsed = BenchReport::from_json(&original.to_json()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn empty_or_malformed_reports_are_clear_errors() {
        let err = BenchReport::from_json("").unwrap_err();
        assert!(err.to_string().contains("malformed report"), "{err}");
        let err = BenchReport::from_json("{}").unwrap_err();
        assert!(err.to_string().contains("scenarios"), "{err}");
        let err = BenchReport::from_json(r#"{"scenarios":[{"name":"x"}]}"#).unwrap_err();
        assert!(err.to_string().contains("wall_seconds"), "{err}");
        let err = BenchReport::from_json(r#"{"scenarios":[{"iterations":1}]}"#).unwrap_err();
        assert!(err.to_string().contains("name"), "{err}");
    }

    #[test]
    fn comparator_flags_only_regressions_beyond_tolerance() {
        let baseline = report(&[("fast", 0.100), ("slow", 0.100)]);
        let current = report(&[("fast", 0.105), ("slow", 0.114)]);
        let outcome = compare(&current, &baseline, 0.15).unwrap();
        assert!(!outcome.is_regression(), "{:?}", outcome.regressions);
        assert_eq!(outcome.passed, 2);

        let outcome = compare(&current, &baseline, 0.10).unwrap();
        assert!(outcome.is_regression());
        assert_eq!(outcome.regressions.len(), 1);
        assert!(outcome.regressions[0].starts_with("slow:"));
        assert_eq!(outcome.passed, 1);
    }

    #[test]
    fn work_counter_regressions_are_flagged() {
        let baseline = report(&[("s", 0.100)]);
        // Same wall time, but the solver suddenly expands twice the states
        // per iteration: a real regression even though the clock is flat.
        let mut current = report(&[("s", 0.100)]);
        current.scenarios[0].states_expanded *= 2;
        let outcome = compare(&current, &baseline, 0.15).unwrap();
        assert!(outcome.is_regression());
        assert!(outcome.regressions[0].contains("states expanded"));

        // A memo that stopped engaging multiplies energy evals far past the
        // one-cold-build slack.
        let mut current = report(&[("s", 0.100)]);
        current.scenarios[0].energy_evals = 500 * 12;
        let outcome = compare(&current, &baseline, 0.15).unwrap();
        assert!(outcome.is_regression());
        assert!(outcome.regressions[0].contains("energy evaluations"));

        // A gemm kernel that started doing redundant work is caught even
        // with the wall clock flat.
        let mut current = report(&[("s", 0.100)]);
        current.scenarios[0].gemm_flops *= 3;
        let outcome = compare(&current, &baseline, 0.15).unwrap();
        assert!(outcome.is_regression());
        assert!(outcome.regressions[0].contains("gemm FLOPs"));

        // Scratch that stopped being recycled allocates every iteration.
        let mut current = report(&[("s", 0.100)]);
        current.scenarios[0].scratch_allocations = 5 * 20;
        let outcome = compare(&current, &baseline, 0.15).unwrap();
        assert!(outcome.is_regression());
        assert!(outcome.regressions[0].contains("scratch allocations"));

        // Fewer states / fewer evals is an improvement, never a regression.
        let mut current = report(&[("s", 0.100)]);
        current.scenarios[0].states_expanded = 1;
        current.scenarios[0].energy_evals = 0;
        let outcome = compare(&current, &baseline, 0.15).unwrap();
        assert!(!outcome.is_regression(), "{:?}", outcome.regressions);
        assert_eq!(outcome.passed, 1);
    }

    #[test]
    fn vehicle_step_floor_is_gated() {
        let baseline = report(&[("net", 0.100)]);
        // The network silently stepping half the traffic is a regression
        // even though less work looks like a timing win.
        let mut current = report(&[("net", 0.100)]);
        current.scenarios[0].vehicles_stepped /= 2;
        let outcome = compare(&current, &baseline, 0.15).unwrap();
        assert!(outcome.is_regression());
        assert!(outcome.regressions[0].contains("vehicle-steps"));
        let outcome = compare_work(&current, &baseline).unwrap();
        assert!(outcome.is_regression());

        // More traffic than the baseline is never flagged.
        let mut current = report(&[("net", 0.100)]);
        current.scenarios[0].vehicles_stepped *= 2;
        let outcome = compare_work(&current, &baseline).unwrap();
        assert!(!outcome.is_regression(), "{:?}", outcome.regressions);

        // A baseline without network traffic (pre-network) disables the
        // floor instead of failing every run.
        let mut old = report(&[("net", 0.100)]);
        old.scenarios[0].vehicles_stepped = 0;
        let mut current = report(&[("net", 0.100)]);
        current.scenarios[0].vehicles_stepped = 0;
        let outcome = compare_work(&current, &old).unwrap();
        assert!(!outcome.is_regression(), "{:?}", outcome.regressions);
    }

    #[test]
    fn step_engine_floors_are_gated() {
        let baseline = report(&[("sim", 0.100)]);
        // The step engine silently evaluating half the lanes is a
        // regression even though less work looks like a timing win. The
        // floor is on the dispatch-invariant total, so a host that shifts
        // lanes from SIMD to scalar (or vice versa) never trips it.
        let mut current = report(&[("sim", 0.100)]);
        current.scenarios[0].sim_simd_lanes = 0;
        current.scenarios[0].sim_scalar_lanes = 20_000;
        let outcome = compare(&current, &baseline, 0.15).unwrap();
        assert!(outcome.is_regression());
        assert!(outcome.regressions[0].contains("kernel lanes"));
        let outcome = compare_work(&current, &baseline).unwrap();
        assert!(outcome.is_regression());

        // A host that dispatches everything scalar but does the same total
        // work passes.
        let mut current = report(&[("sim", 0.100)]);
        current.scenarios[0].sim_simd_lanes = 0;
        current.scenarios[0].sim_scalar_lanes = 40_000;
        let outcome = compare_work(&current, &baseline).unwrap();
        assert!(!outcome.is_regression(), "{:?}", outcome.regressions);

        // Per-tick allocation creeping back into the step loop blows the
        // arena-grow ceiling.
        let mut current = report(&[("sim", 0.100)]);
        current.scenarios[0].sim_arena_grows = 50;
        let outcome = compare_work(&current, &baseline).unwrap();
        assert!(outcome.is_regression());
        assert!(outcome.regressions[0].contains("step-arena growths"));

        // The microsim speedup collapsing below the floor fails when the
        // baseline itself cleared it.
        let mut current = report(&[("sim", 0.100)]);
        current.scenarios[0].microsim_simd_speedup = 1.0;
        let outcome = compare_work(&current, &baseline).unwrap();
        assert!(outcome.is_regression());
        assert!(outcome.regressions[0].contains("microsim SIMD speedup"));

        // A pre-SoA baseline (no lane traffic) disables all three gates
        // instead of failing every run.
        let mut old = report(&[("sim", 0.100)]);
        old.scenarios[0].sim_simd_lanes = 0;
        old.scenarios[0].sim_scalar_lanes = 0;
        old.scenarios[0].microsim_simd_speedup = 0.0;
        let mut current = report(&[("sim", 0.100)]);
        current.scenarios[0].sim_simd_lanes = 0;
        current.scenarios[0].sim_scalar_lanes = 0;
        current.scenarios[0].sim_arena_grows = 500;
        current.scenarios[0].microsim_simd_speedup = 0.5;
        let outcome = compare_work(&current, &old).unwrap();
        assert!(!outcome.is_regression(), "{:?}", outcome.regressions);
    }

    #[test]
    fn buffer_reuse_floor_is_gated() {
        let baseline = report(&[("cloud", 0.100)]);
        // Reuse collapsing to 50% fails both gates, tolerance or not.
        let mut current = report(&[("cloud", 0.100)]);
        current.scenarios[0].buf_reuse = 500;
        current.scenarios[0].buf_alloc = 500;
        let outcome = compare(&current, &baseline, 0.15).unwrap();
        assert!(outcome.is_regression());
        assert!(outcome.regressions[0].contains("buffer reuse rate"));
        let outcome = compare_work(&current, &baseline).unwrap();
        assert!(outcome.is_regression());

        // Exactly at the floor passes; the gate is strict-below.
        let mut current = report(&[("cloud", 0.100)]);
        current.scenarios[0].buf_reuse = 900;
        current.scenarios[0].buf_alloc = 100;
        let outcome = compare_work(&current, &baseline).unwrap();
        assert!(!outcome.is_regression(), "{:?}", outcome.regressions);

        // A baseline without buffer traffic (pre-reactor) disables the
        // floor instead of failing every run.
        let mut old = report(&[("cloud", 0.100)]);
        old.scenarios[0].buf_reuse = 0;
        old.scenarios[0].buf_alloc = 0;
        let mut current = report(&[("cloud", 0.100)]);
        current.scenarios[0].buf_reuse = 1;
        current.scenarios[0].buf_alloc = 999;
        let outcome = compare_work(&current, &old).unwrap();
        assert!(!outcome.is_regression(), "{:?}", outcome.regressions);
    }

    #[test]
    fn coalesce_floors_are_gated() {
        let baseline = report(&[("cosim", 0.100)]);
        // Dedupe disengaging halves the hit count: a regression even with
        // the wall clock flat.
        let mut current = report(&[("cosim", 0.100)]);
        current.scenarios[0].coalesce_hits /= 2;
        let outcome = compare(&current, &baseline, 0.15).unwrap();
        assert!(outcome.is_regression());
        assert!(outcome.regressions[0].contains("coalesce hits"));
        let outcome = compare_work(&current, &baseline).unwrap();
        assert!(outcome.is_regression());

        // Batching collapsing to singles multiplies the flush count, so
        // the fill (waiters per flush) craters.
        let mut current = report(&[("cosim", 0.100)]);
        current.scenarios[0].batch_flushes = 80;
        let outcome = compare_work(&current, &baseline).unwrap();
        assert!(outcome.is_regression());
        assert!(outcome.regressions[0].contains("batch fill"));

        // More hits or fuller windows never regress, and the storm
        // speedup is reported without a bound.
        let mut current = report(&[("cosim", 0.100)]);
        current.scenarios[0].coalesce_hits *= 2;
        current.scenarios[0].storm_speedup = 0.5;
        let outcome = compare_work(&current, &baseline).unwrap();
        assert!(!outcome.is_regression(), "{:?}", outcome.regressions);

        // A baseline without coalescing traffic (pre-coalescer) disables
        // the floors instead of failing every run.
        let mut old = report(&[("cosim", 0.100)]);
        old.scenarios[0].coalesce_hits = 0;
        old.scenarios[0].batch_flushes = 0;
        let mut current = report(&[("cosim", 0.100)]);
        current.scenarios[0].coalesce_hits = 0;
        current.scenarios[0].batch_flushes = 1000;
        let outcome = compare_work(&current, &old).unwrap();
        assert!(!outcome.is_regression(), "{:?}", outcome.regressions);
    }

    #[test]
    fn route_floors_are_gated() {
        let baseline = report(&[("route", 0.100)]);
        // The router suddenly solving twice the edge DPs per iteration is
        // a regression even with the wall clock flat.
        let mut current = report(&[("route", 0.100)]);
        current.scenarios[0].route_oracle_calls *= 2;
        let outcome = compare(&current, &baseline, 0.15).unwrap();
        assert!(outcome.is_regression());
        assert!(outcome.regressions[0].contains("route oracle calls"));
        let outcome = compare_work(&current, &baseline).unwrap();
        assert!(outcome.is_regression());

        // The same-run ratio falling below the 5x floor fails when the
        // baseline itself cleared it.
        let mut current = report(&[("route", 0.100)]);
        current.scenarios[0].route_oracle_ratio = 3.0;
        let outcome = compare_work(&current, &baseline).unwrap();
        assert!(outcome.is_regression());
        assert!(outcome.regressions[0].contains("route oracle ratio"));

        // Fewer solves or a stronger ratio never regress, and the pruning
        // and memo counters are visibility-only, never gated.
        let mut current = report(&[("route", 0.100)]);
        current.scenarios[0].route_oracle_calls /= 2;
        current.scenarios[0].route_oracle_ratio = 20.0;
        current.scenarios[0].route_edges_pruned = 0;
        current.scenarios[0].route_plan_memo_hits = 0;
        let outcome = compare_work(&current, &baseline).unwrap();
        assert!(!outcome.is_regression(), "{:?}", outcome.regressions);

        // A baseline without route traffic (pre-router) or below the
        // ratio floor (a reduced local run) disables the floors instead of
        // failing every run.
        let mut old = report(&[("route", 0.100)]);
        old.scenarios[0].route_oracle_calls = 0;
        old.scenarios[0].route_oracle_ratio = 2.0;
        let mut current = report(&[("route", 0.100)]);
        current.scenarios[0].route_oracle_calls = 4; // within per-iter slack
        current.scenarios[0].route_oracle_ratio = 1.0;
        let outcome = compare_work(&current, &old).unwrap();
        assert!(!outcome.is_regression(), "{:?}", outcome.regressions);
    }

    #[test]
    fn simd_and_repair_floors_are_gated() {
        let baseline = report(&[("dp", 0.100)]);
        // Repair disengaging (every refresh re-solves) craters the hit
        // count: a regression even with the wall clock flat.
        let mut current = report(&[("dp", 0.100)]);
        current.scenarios[0].repair_hits = 5;
        let outcome = compare(&current, &baseline, 0.15).unwrap();
        assert!(outcome.is_regression());
        assert!(outcome.regressions[0].contains("repair hits"));
        let outcome = compare_work(&current, &baseline).unwrap();
        assert!(outcome.is_regression());

        // The SIMD speedup falling below the 2x floor fails when the
        // baseline itself cleared it.
        let mut current = report(&[("dp", 0.100)]);
        current.scenarios[0].simd_speedup = 1.3;
        let outcome = compare_work(&current, &baseline).unwrap();
        assert!(outcome.is_regression());
        assert!(outcome.regressions[0].contains("SIMD speedup"));

        // Likewise the repair speedup below its 3x floor.
        let mut current = report(&[("dp", 0.100)]);
        current.scenarios[0].repair_speedup = 2.1;
        let outcome = compare_work(&current, &baseline).unwrap();
        assert!(outcome.is_regression());
        assert!(outcome.regressions[0].contains("repair speedup"));

        // More hits or faster kernels never regress, and `simd_rows` is
        // geometry-dependent telemetry that is never gated.
        let mut current = report(&[("dp", 0.100)]);
        current.scenarios[0].repair_hits *= 2;
        current.scenarios[0].simd_speedup = 9.0;
        current.scenarios[0].simd_rows = 0;
        let outcome = compare_work(&current, &baseline).unwrap();
        assert!(!outcome.is_regression(), "{:?}", outcome.regressions);

        // A baseline without repair traffic or below the speedup floors
        // (a scalar host, a pre-repair baseline) disables the gates.
        let mut old = report(&[("dp", 0.100)]);
        old.scenarios[0].repair_hits = 0;
        old.scenarios[0].simd_speedup = 1.0;
        old.scenarios[0].repair_speedup = 0.0;
        let mut current = report(&[("dp", 0.100)]);
        current.scenarios[0].repair_hits = 0;
        current.scenarios[0].simd_speedup = 0.9;
        current.scenarios[0].repair_speedup = 0.5;
        let outcome = compare_work(&current, &old).unwrap();
        assert!(!outcome.is_regression(), "{:?}", outcome.regressions);
    }

    #[test]
    fn work_only_gate_ignores_wall_time() {
        let baseline = report(&[("s", 0.100)]);
        // 10x slower wall clock but identical work: the work gate passes.
        let current = report(&[("s", 1.000)]);
        let outcome = compare_work(&current, &baseline).unwrap();
        assert!(!outcome.is_regression(), "{:?}", outcome.regressions);
        assert_eq!(outcome.passed, 1);
        // One extra state per iteration beyond the integer slack fails it.
        let mut current = report(&[("s", 0.100)]);
        current.scenarios[0].states_expanded += 2 * 5;
        let outcome = compare_work(&current, &baseline).unwrap();
        assert!(outcome.is_regression());
    }

    #[test]
    fn memo_hit_rate_and_optional_fields() {
        assert!((scenario("s", 0.1).memo_hit_rate() - 0.9).abs() < 1e-12);
        // A pre-memo report (no memo fields) parses with zero counters and
        // a vacuous 100% hit rate.
        let legacy = r#"{"scenarios":[{"name":"s","iterations":5,
            "wall_seconds":{"min":0.08,"p50":0.1,"p90":0.12,"p99":0.13,"max":0.14},
            "states_expanded":1000,"states_pruned":400,
            "arena_reuse_hits":12,"arena_allocations":3}]}"#;
        let parsed = BenchReport::from_json(legacy).unwrap();
        let s = &parsed.scenarios[0];
        assert_eq!(s.memo_hits, 0);
        assert_eq!(s.energy_evals, 0);
        assert_eq!(s.memo_hit_rate(), 1.0);
        assert_eq!(s.gemm_flops, 0);
        assert_eq!(s.scratch_allocations, 0);
        // Cloud counters and p95 are also optional: absent counters read
        // zero (a vacuous 100% reuse rate), absent p95 reads the p90.
        assert_eq!(s.buf_reuse, 0);
        assert_eq!(s.buffer_reuse_rate(), 1.0);
        assert_eq!(s.wall_seconds.p95, s.wall_seconds.p90);
        // Coalescing counters are optional too; zero disables the
        // coalesce floors, and a flush-free scenario has zero fill.
        assert_eq!(s.coalesce_hits, 0);
        assert_eq!(s.batch_flushes, 0);
        assert_eq!(s.batch_fill(), 0.0);
        assert_eq!(s.storm_speedup, 0.0);
        // Network counters are optional too; zero disables their floor.
        assert_eq!(s.vehicles_stepped, 0);
        assert_eq!(s.network_handoffs, 0);
        // SIMD/repair counters and ratios are optional; zero disables
        // their floors on pre-vectorization baselines.
        assert_eq!(s.simd_rows, 0);
        assert_eq!(s.repair_hits, 0);
        assert_eq!(s.simd_speedup, 0.0);
        assert_eq!(s.repair_speedup, 0.0);
        // Routing counters are optional too; zero disables the route
        // floors on pre-router baselines.
        assert_eq!(s.route_oracle_calls, 0);
        assert_eq!(s.route_plan_memo_hits, 0);
        assert_eq!(s.route_oracle_ratio, 0.0);
    }

    #[test]
    fn tolerance_exactly_met_passes() {
        let baseline = report(&[("s", 0.100)]);
        // p50 lands exactly on the +15% limit: allowed, not a regression.
        let mut current = report(&[("s", 0.100)]);
        current.scenarios[0].wall_seconds.p50 = 0.100 * 1.15;
        let outcome = compare(&current, &baseline, 0.15).unwrap();
        assert!(!outcome.is_regression(), "{:?}", outcome.regressions);
    }

    #[test]
    fn microsecond_medians_get_absolute_slack() {
        // +300% relatively, but far inside the absolute slack: scheduler
        // noise on a near-zero median must not fail the gate.
        let baseline = report(&[("ticks", 2.0e-6)]);
        let current = report(&[("ticks", 8.0e-6)]);
        let outcome = compare(&current, &baseline, 0.15).unwrap();
        assert!(!outcome.is_regression(), "{:?}", outcome.regressions);
    }

    #[test]
    fn missing_scenario_warns_instead_of_failing() {
        let baseline = report(&[("old", 0.1)]);
        let current = report(&[("old", 0.1), ("brand_new", 9.9)]);
        let outcome = compare(&current, &baseline, 0.15).unwrap();
        assert!(!outcome.is_regression());
        assert_eq!(outcome.missing, vec!["brand_new".to_string()]);
        assert_eq!(outcome.passed, 1);
    }

    #[test]
    fn empty_baseline_is_rejected() {
        let baseline = BenchReport::default();
        let current = report(&[("s", 0.1)]);
        let err = compare(&current, &baseline, 0.15).unwrap_err();
        assert!(err.to_string().contains("no scenarios"), "{err}");
    }

    #[test]
    fn bad_tolerance_is_rejected() {
        let r = report(&[("s", 0.1)]);
        assert!(compare(&r, &r, -0.1).is_err());
        assert!(compare(&r, &r, f64::NAN).is_err());
    }

    fn tiny_spec() -> MatrixSpec {
        MatrixSpec {
            trip_iters: 1,
            batch_size: 2,
            batch_iters: 1,
            replan_ticks: 8,
            sae_train_iters: 1,
            sae_predict_iters: 1,
            cloud_clients: 8,
            cloud_rounds: 2,
            cosim_vehicles: 6,
            cosim_corridors: 2,
            cosim_rounds: 2,
            route_grid: 4,
            route_iters: 1,
            network_corridors: 3,
            network_warmup_s: 30.0,
            network_rounds: 2,
            step_warmup_s: 20.0,
            step_rounds: 2,
            step_round_s: 1,
        }
    }

    #[test]
    fn scenario_filter_selects_by_stem_and_rejects_typos() {
        let spec = tiny_spec();
        let report = run_scenarios(&spec, Some("route_plan")).unwrap();
        assert_eq!(report.scenarios.len(), 1);
        assert_eq!(report.scenarios[0].name, "route_plan_16");
        let err = run_scenarios(&spec, Some("no_such_scenario")).unwrap_err();
        assert!(err.to_string().contains("matches no scenario"), "{err}");
        assert!(err.to_string().contains("route_plan"), "{err}");
    }

    #[test]
    fn tiny_matrix_produces_a_complete_report() {
        let spec = tiny_spec();
        let report = run_matrix(&spec).unwrap();
        assert_eq!(report.scenarios.len(), 14);
        for s in &report.scenarios {
            assert!(s.iterations > 0, "{}", s.name);
            assert!(s.wall_seconds.p50 > 0.0, "{}", s.name);
            // Every scenario reports its work: DP states, gemm FLOPs,
            // served response buffers, or stepped vehicles.
            assert!(
                s.states_expanded > 0
                    || s.gemm_flops > 0
                    || s.buf_reuse + s.buf_alloc > 0
                    || s.coalesce_flights > 0
                    || s.vehicles_stepped > 0
                    || s.route_oracle_calls > 0,
                "{}",
                s.name
            );
        }
        assert!(report.scenario("batch_2").is_some());
        // The SIMD delta rows ran both dispatches and report the same-run
        // ratio; the timed (SIMD) half only touches the vector kernels
        // when the host supports them.
        let simd = report.scenario("dp_single_simd").unwrap();
        assert!(simd.simd_speedup > 0.0);
        assert!(report.scenario("dp_batch_simd").is_some());
        // Every timed refresh tick shifts only the downstream signal's
        // windows, so the warm-started solver repairs instead of
        // re-solving, and the ratio over the scratch schedule is positive.
        let refresh = report.scenario("replan_refresh").unwrap();
        assert!(refresh.repair_speedup > 0.0);
        assert!(
            refresh.repair_hits > 0,
            "refresh ticks were not served by repair ({} full re-solves)",
            refresh.repair_full_resolves
        );
        assert!(refresh.repair_layers_skipped > 0);
        // The SAE rows carry the trainer's counters instead of the DP's,
        // and the warm rollout scenario must report zero allocations.
        let train = report.scenario("sae_train").unwrap();
        assert!(train.gemm_flops > 0);
        assert!(train.scratch_allocations > 0); // cold arenas, once per run
        let predict = report.scenario("sae_predict_batch").unwrap();
        assert!(predict.gemm_flops > 0);
        assert_eq!(
            predict.scratch_allocations, 0,
            "warm batched rollouts must not allocate"
        );
        assert!(predict.scratch_reuse_hits > 0);
        // Every scenario runs the memoized solver, so cost tables were
        // fetched and most fetches hit the shared cache.
        let seq = report.scenario("single_trip_sequential").unwrap();
        assert!(seq.memo_misses > 0);
        assert!(seq.memo_hit_rate() > 0.5, "rate {}", seq.memo_hit_rate());
        // The cloud scenario served warm traffic: every trip response came
        // from the cached frame, and the pools recycled in steady state.
        let cloud = report.scenario("cloud_serve_8").unwrap();
        assert!(cloud.plan_encode_skipped > 0);
        assert!(cloud.buf_reuse > 0);
        assert!(
            cloud.buffer_reuse_rate() >= MIN_BUF_REUSE_RATE,
            "steady-state reuse {:.2}",
            cloud.buffer_reuse_rate()
        );
        // The co-simulation storm's counters are exact: `batch_max` equals
        // the wave size, so each of the 2 rounds is one flush of 6 waiters
        // over 2 distinct trip keys.
        let cosim = report.scenario("cloud_cosim_6x2").unwrap();
        assert_eq!(cosim.batch_flushes, 2);
        assert_eq!(cosim.coalesce_flights, 2 * 2);
        assert_eq!(cosim.coalesce_hits, 2 * (6 - 2));
        assert!((cosim.batch_fill() - 6.0).abs() < 1e-12);
        assert!(cosim.storm_speedup > 0.0);
        // The warmed-up network keeps stepping traffic through the timed
        // rounds, and its counters are deltas (rounds only, not warm-up).
        let net = report.scenario("microsim_network_3").unwrap();
        assert!(net.vehicles_stepped > 0);
        assert_eq!(net.iterations, 2);
        // The network ran both dispatches and reports the step engine's
        // dispatch-invariant lane total alongside the same-run ratio.
        assert!(net.microsim_simd_speedup > 0.0);
        assert_eq!(
            net.sim_simd_lanes + net.sim_scalar_lanes,
            net.vehicles_stepped,
            "lane total must equal the vehicle-steps the network executed"
        );
        // The step-engine scenario's warm rounds reuse the pooled scratch
        // (zero growths) and keep every vehicle in the lane counters.
        let step = report.scenario("microsim_step").unwrap();
        assert!(step.vehicles_stepped > 0);
        assert!(step.microsim_simd_speedup > 0.0);
        assert_eq!(
            step.sim_arena_grows, 0,
            "timed step rounds must not grow the pooled scratch"
        );
        // The router solved edge DPs, pruned on certified bounds, shared
        // plans through the memo, and beat featureless Dijkstra on oracle
        // work — the same-run ratio is deterministic and above one even on
        // the tiny grid.
        let route = report.scenario("route_plan_16").unwrap();
        assert!(route.route_oracle_calls > 0);
        assert!(route.route_edges_pruned > 0);
        assert!(route.route_plan_memo_hits > 0);
        assert!(
            route.route_oracle_ratio > 1.0,
            "ratio {}",
            route.route_oracle_ratio
        );
        // A matrix run is comparable against itself at any tolerance.
        let outcome = compare(&report, &report, 0.0).unwrap();
        assert!(!outcome.is_regression(), "{:?}", outcome.regressions);
        assert_eq!(outcome.passed, 14);
    }
}

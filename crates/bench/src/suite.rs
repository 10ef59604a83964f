//! The continuous-benchmark suite behind the `bench-suite` binary.
//!
//! It answers "did a layer get slower, or start doing more work, since the
//! committed baseline" in CI. It runs a fixed, seeded scenario matrix over
//! the DP solver, the SAE traffic predictor's mini-batch kernels, the cloud
//! reactor and coalescer, the sharded microsimulation and the graph router,
//! and summarizes each scenario as one [`ScenarioResult`]: the wall-time
//! median (plus the one tail percentile its sample count supports) and the
//! work counters that scenario measures. The report serializes as JSON
//! (`BENCH_dp.json`), and [`compare`] and [`compare_work`] check it against
//! a baseline through one table, [`GATES`], so a regression fails the build
//! instead of landing silently.
//!
//! Everything here is deterministic: starts are jittered with a fixed
//! [`SplitMix64`] seed, so two runs of the same build solve bit-identical
//! problems and only the wall-clock numbers move.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;
use telemetry::json::Json;
use velopt_cloud::protocol::{read_frame, tags, write_frame};
use velopt_cloud::{CloudServer, PredictBatchRequest, PredictQuery, ServerConfig, TripRequest};
use velopt_common::rng::SplitMix64;
use velopt_common::stats::percentile;
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
use Kind::{AbsoluteFloor, Ceiling, Floor, SameRunFloor};
use Scale::{PerIteration, Total};

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
    /// Vehicles in the co-simulation replan storm (the wave size).
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

/// Wall seconds per timed iteration: the median, plus the highest tail
/// percentile the sample count supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wall {
    /// The median: the only wall number a gate reads.
    pub p50: f64,
    /// `(percentile, seconds)` for the highest of p90, p95 and p99 with at
    /// least ten samples beyond it (p90 needs 100 samples, p95 200, p99
    /// 1000); `None` below 100 samples, where a tail percentile would be
    /// one or two samples, not a tail.
    pub tail: Option<(u32, f64)>,
}

impl Wall {
    fn from_samples(samples: &[f64]) -> Result<Self> {
        let n = samples.len();
        let tail = [99u32, 95, 90]
            .into_iter()
            .find(|&pct| n * (100 - pct as usize) >= 1000)
            .map(|pct| Ok::<_, Error>((pct, percentile(samples, f64::from(pct) / 100.0)?)))
            .transpose()?;
        Ok(Self {
            p50: percentile(samples, 0.5)?,
            tail,
        })
    }
}

/// One scenario's summary: its wall time, and the work behind it, so a
/// "faster because it did less" change is visible next to the timing win.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Stable scenario name (the comparator joins on it).
    pub name: String,
    /// Timed iterations: the samples behind [`Self::wall`].
    pub iterations: u64,
    /// Seconds per iteration.
    pub wall: Wall,
    /// The counters this scenario measures, and only those, by report key:
    /// work totals over all timed iterations, same-run ratios, and the
    /// derived rates a gate reads.
    pub counters: BTreeMap<String, f64>,
}

impl ScenarioResult {
    fn new(name: &str, samples: &[f64], counters: BTreeMap<String, f64>) -> Result<Self> {
        Ok(Self {
            name: name.to_string(),
            iterations: samples.len() as u64,
            wall: Wall::from_samples(samples)?,
            counters,
        })
    }

    fn to_json(&self) -> Json {
        let mut wall = vec![("p50".to_string(), Json::Num(self.wall.p50))];
        if let Some((pct, seconds)) = self.wall.tail {
            wall.push((format!("p{pct}"), Json::Num(seconds)));
        }
        let counters = self
            .counters
            .iter()
            .map(|(key, &value)| (key.clone(), Json::Num(value)))
            .collect();
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("iterations".into(), Json::Num(self.iterations as f64)),
            ("wall_seconds".into(), Json::Obj(wall)),
            ("counters".into(), Json::Obj(counters)),
        ])
    }

    fn from_json(value: &Json, index: usize) -> Result<Self> {
        let missing =
            |what: &str| Error::invalid_input(format!("scenario {index}: missing {what}"));
        let number = |of: &Json, key: &str| of.get(key).and_then(Json::as_f64);
        let name = value.get("name").and_then(Json::as_str);
        let name = name.ok_or_else(|| missing("\"name\""))?.to_string();
        let iterations = number(value, "iterations").ok_or_else(|| missing("\"iterations\""))?;
        let wall = value
            .get("wall_seconds")
            .ok_or_else(|| missing("\"wall_seconds\""))?;
        let p50 = number(wall, "p50").ok_or_else(|| missing("wall_seconds.p50"))?;
        let tail = [99, 95, 90]
            .into_iter()
            .find_map(|pct| Some((pct, number(wall, &format!("p{pct}"))?)));
        let Some(Json::Obj(members)) = value.get("counters") else {
            return Err(missing("\"counters\" object"));
        };
        let counters = members.iter().map(|(key, value)| {
            let value = value.as_f64().ok_or_else(|| {
                Error::invalid_input(format!("scenario {index}: counter {key:?} is not a number"))
            });
            Ok((key.clone(), value?))
        });
        Ok(Self {
            name,
            iterations: iterations as u64,
            wall: Wall { p50, tail },
            counters: counters.collect::<Result<_>>()?,
        })
    }
}

fn counters<const N: usize>(pairs: [(&str, f64); N]) -> BTreeMap<String, f64> {
    pairs
        .into_iter()
        .map(|(key, value)| (key.to_string(), value))
        .collect()
}

/// The DP counters of every solver scenario, from its absorbed
/// [`SolverMetrics`], plus the derived `memo_hit_rate` (memo hits over
/// transition-table fetches; `1` for a run that fetched none). `simd_rows`
/// depends on chunk geometry and dispatch, so it is reported, never gated.
fn solver_counters(m: &SolverMetrics) -> BTreeMap<String, f64> {
    let fetches = m.memo_hits + m.memo_misses;
    let memo_hit_rate = if fetches == 0 {
        1.0
    } else {
        m.memo_hits as f64 / fetches as f64
    };
    counters([
        ("states_expanded", m.states_expanded as f64),
        ("states_pruned", m.states_pruned as f64),
        ("arena_reuse_hits", m.arena_reuse_hits as f64),
        ("arena_allocations", m.arena_allocations as f64),
        ("memo_hits", m.memo_hits as f64),
        ("memo_misses", m.memo_misses as f64),
        ("memo_hit_rate", memo_hit_rate),
        ("energy_evals", m.energy_evals as f64),
        ("rows_skipped", m.rows_skipped as f64),
        ("simd_rows", m.simd_rows as f64),
        ("repair_hits", m.repair_hits as f64),
        ("repair_full_resolves", m.repair_full_resolves as f64),
        ("repair_layers_skipped", m.repair_layers_skipped as f64),
    ])
}

/// The SAE scenarios' counters: gemm FLOPs and scratch reuse/allocations.
fn train_counters(m: &TrainMetrics) -> BTreeMap<String, f64> {
    counters([
        ("gemm_flops", m.gemm_flops as f64),
        ("scratch_reuse_hits", m.scratch_reuse_hits as f64),
        ("scratch_allocations", m.scratch_allocations as f64),
    ])
}

/// The cloud serving counters: response-buffer pool reuses and
/// allocations, cached-frame encode skips, and the derived
/// `buf_reuse_rate` (reuses over pooled responses; `0` for a run with no
/// pooled responses, so a silent pool fails its floor).
fn pool_counters(reuse: u64, alloc: u64, encode_skipped: u64) -> BTreeMap<String, f64> {
    let rate = reuse as f64 / (reuse + alloc).max(1) as f64;
    counters([
        ("buf_reuse", reuse as f64),
        ("buf_alloc", alloc as f64),
        ("plan_encode_skipped", encode_skipped as f64),
        ("buf_reuse_rate", rate),
    ])
}

/// The step engine's counters across the timed rounds (`after` minus the
/// warm `before` snapshot): the AVX2/portable lane split, which depends on
/// the host and is never gated; the derived, dispatch-invariant lane total
/// `sim_lanes` (`sim_simd_lanes + sim_scalar_lanes`, the vehicle-steps the
/// engine executed); and the steps that grew the pooled scratch.
fn step_counters(after: StepMetrics, before: StepMetrics) -> BTreeMap<String, f64> {
    let simd = after.simd_lanes - before.simd_lanes;
    let scalar = after.scalar_lanes - before.scalar_lanes;
    let grows = after.arena_grows - before.arena_grows;
    counters([
        ("sim_simd_lanes", simd as f64),
        ("sim_scalar_lanes", scalar as f64),
        ("sim_lanes", (simd + scalar) as f64),
        ("sim_arena_grows", grows as f64),
    ])
}

/// Same-run ratio of two sample sets' medians, `reference / timed`: both
/// were measured back to back on one machine, so its speed cancels out.
fn median_ratio(reference: &[f64], timed: &[f64]) -> Result<f64> {
    Ok(percentile(reference, 0.5)? / percentile(timed, 0.5)?.max(1e-12))
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
    /// malformed document, a missing `scenarios` array, or a scenario
    /// without its name, iteration count, wall median or counters object —
    /// never panics. An absent counter stays absent: nothing reads as zero.
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

/// How a [`GATES`] row judges a counter against the baseline's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// More is worse: fails above `baseline × (1 + tolerance) + slack`.
    Ceiling,
    /// Less is worse: fails below `baseline × (1 − tolerance) − slack`,
    /// with the tolerance capped at 100%. A zero baseline floors nothing.
    Floor,
    /// A same-run ratio — two medians or two counts taken in one run, so
    /// host speed cancels out: fails below the floor, but only once the
    /// baseline itself reached it, so a host that never shows the win (a
    /// scalar-only CPU, a reduced local matrix) does not trip on itself.
    SameRunFloor,
    /// Fails below the floor whenever the baseline records the counter.
    AbsoluteFloor,
}

/// Which value of a counter a [`GATES`] row reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The total over the timed iterations divided by their count. Every
    /// iteration repeats the same seeded work, so the mean does not depend
    /// on how many iterations the baseline ran.
    PerIteration,
    /// The recorded value as it is.
    Total,
}

/// Every work gate, as `(counter, kind, scale, slack or floor)`: the last
/// column is the absolute slack on top of the tolerance for a `Ceiling` or
/// `Floor` row, and the floor itself for a `SameRunFloor` or
/// `AbsoluteFloor` row. [`compare`] applies the table at `--tolerance`,
/// [`compare_work`] at zero. A row is armed for a scenario whose baseline
/// records its counter; a scenario that lacks a counter its baseline
/// records fails, so renaming a counter cannot silently disarm its gate.
///
/// The work is seeded and deterministic, so a per-iteration slack of one
/// unit only absorbs integer rounding when the baseline ran a different
/// iteration count. The SIMD speedups divide a forced-scalar median by an
/// auto-dispatch median of the same workload, so they measure everything
/// dispatch changes, not only the kernels.
pub const GATES: [(&str, Kind, Scale, f64); 14] = [
    // DP search: states per solve, and energy-model evaluations, which a
    // warm transition memo keeps at one cold table build (about
    // `n_speeds²` evaluations of slack) whatever the iteration count.
    ("states_expanded", Ceiling, PerIteration, 1.0),
    ("energy_evals", Ceiling, Total, 1024.0),
    // Warm-started refreshes: nearly every seeded refresh is repaired, with
    // one fallback per eight ticks of slack, and repair must beat full
    // re-solves 3×.
    ("repair_hits", Floor, PerIteration, 0.125),
    ("repair_speedup", SameRunFloor, Total, 3.0),
    // SIMD dispatch must beat forced-scalar 2× on the DP rows. Besides the
    // relax kernels this ratio includes the layer reset: between solves
    // (and in repair) AVX2 dispatch clears only the logged dirty spans,
    // while forced-scalar dispatch refills the whole layer stack.
    ("simd_speedup", SameRunFloor, Total, 2.0),
    // SAE kernels: FLOPs (one small batched forward of slack) and scratch
    // allocations (one geometry rebuild of slack) per iteration.
    ("gemm_flops", Ceiling, PerIteration, 1024.0),
    ("scratch_allocations", Ceiling, PerIteration, 1.0),
    // Cloud serving: after warm-up, responses come from the buffer pools.
    ("buf_reuse_rate", AbsoluteFloor, Total, 0.90),
    // Microsim: the seeded traffic volume, the step engine's lane total,
    // its pooled-scratch growths (one high-water bump of slack), and the
    // lane kernels' same-run win over forced-scalar, floored far below
    // their isolated ~3× because a step's sweep, dawdle, collision guard
    // and write-back are scalar under either dispatch.
    ("vehicles_stepped", Floor, PerIteration, 1.0),
    ("sim_lanes", Floor, PerIteration, 1.0),
    ("sim_arena_grows", Ceiling, Total, 1.0),
    ("microsim_simd_speedup", SameRunFloor, Total, 1.15),
    // Routing: oracle solves per iteration, and featureless Dijkstra's
    // oracle calls over the full router's on the same queries.
    ("route_oracle_calls", Ceiling, PerIteration, 1.0),
    ("route_oracle_ratio", SameRunFloor, Total, 5.0),
];

/// Absolute slack added on top of the relative tolerance of the wall-time
/// gate, so scenarios whose median is microseconds (the replanner's
/// stale-plan ticks) are not failed over scheduler noise that is huge
/// relatively but meaningless absolutely.
pub const ABSOLUTE_SLACK_SECONDS: f64 = 2e-3;

/// Compares a current report against a baseline: a scenario regresses when
/// its median wall time exceeds the baseline median by **strictly more**
/// than `tolerance` (so `tolerance = 0.15` allows up to exactly +15%),
/// with [`ABSOLUTE_SLACK_SECONDS`] of headroom for sub-millisecond medians,
/// or when it fails a row of [`GATES`] at the same tolerance — the work is
/// deterministic, so a work regression is real even when a fast machine's
/// wall clock hides it.
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
    if !tolerance.is_finite() || tolerance < 0.0 {
        return Err(Error::invalid_input(format!(
            "tolerance must be a non-negative finite fraction, got {tolerance}"
        )));
    }
    evaluate(current, baseline, tolerance, true)
}

/// Work-only comparison: [`GATES`] at **zero tolerance**, wall time
/// ignored, so the gate is immune to runner noise. The committed baseline
/// records the memoized + pruned solver's reduced `states_expanded`, so
/// this pins that reduction — a change that re-inflates the search fails
/// even on a noisy shared runner, where the wall-clock gate needs generous
/// tolerance.
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] for a baseline with no scenarios.
pub fn compare_work(current: &BenchReport, baseline: &BenchReport) -> Result<Comparison> {
    evaluate(current, baseline, 0.0, false)
}

fn evaluate(
    current: &BenchReport,
    baseline: &BenchReport,
    tolerance: f64,
    gate_wall: bool,
) -> Result<Comparison> {
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
        let limit = base.wall.p50 * (1.0 + tolerance) + ABSOLUTE_SLACK_SECONDS;
        if gate_wall && scenario.wall.p50 > limit {
            outcome.regressions.push(format!(
                "{}: median {:.4}s exceeds baseline {:.4}s by more than {:.0}% (limit {:.4}s)",
                scenario.name,
                scenario.wall.p50,
                base.wall.p50,
                tolerance * 100.0,
                limit,
            ));
        }
        gate_regressions(scenario, base, tolerance, &mut outcome.regressions);
        if outcome.regressions.len() == before {
            outcome.passed += 1;
        }
    }
    Ok(outcome)
}

/// Appends one message per [`GATES`] row `scenario` fails against `base`.
fn gate_regressions(
    scenario: &ScenarioResult,
    base: &ScenarioResult,
    tolerance: f64,
    regressions: &mut Vec<String>,
) {
    for (counter, kind, scale, value) in GATES {
        let Some(&base_value) = base.counters.get(counter) else {
            continue;
        };
        let Some(&current_value) = scenario.counters.get(counter) else {
            regressions.push(format!(
                "{}: gated counter {counter} is missing (baseline {base_value})",
                scenario.name
            ));
            continue;
        };
        let read = |value: f64, of: &ScenarioResult| match scale {
            PerIteration => value / of.iterations.max(1) as f64,
            Total => value,
        };
        let (now, then) = (read(current_value, scenario), read(base_value, base));
        let bound = match kind {
            Ceiling => then * (1.0 + tolerance) + value,
            Floor => then * (1.0 - tolerance.min(1.0)) - value,
            SameRunFloor | AbsoluteFloor => value,
        };
        let failed = match kind {
            Ceiling => now > bound,
            Floor | AbsoluteFloor => now < bound,
            SameRunFloor => then >= value && now < bound,
        };
        if failed {
            let per = if scale == Total { "" } else { " per iteration" };
            let side = if kind == Ceiling { "above" } else { "below" };
            regressions.push(format!(
                "{}: {counter}{per} {now} is {side} its bound {bound} (baseline {then})",
                scenario.name
            ));
        }
    }
}

fn spark_optimizer(config: DpConfig) -> Result<DpOptimizer> {
    DpOptimizer::new(EnergyModel::new(VehicleParams::spark_ev()), config)
}

/// Times `iters` full-corridor US-25 solves on one persistent arena, so
/// every iteration after the first exercises the reuse path.
fn timed_solves(config: DpConfig, iters: usize) -> Result<(Vec<f64>, SolverMetrics)> {
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
    Ok((samples, metrics))
}

/// Times the fleet-gateway burst: `batch_iters` `optimize_batch` calls over
/// the same `batch_size` jittered mid-trip starts, seeded so every run
/// solves the identical burst.
fn timed_batches(config: DpConfig, spec: &MatrixSpec) -> Result<(Vec<f64>, SolverMetrics)> {
    let road = Road::us25();
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
}

/// A DP scenario timed by one of the runners above, with its counters.
fn dp_scenario(name: &str, timed: Result<(Vec<f64>, SolverMetrics)>) -> Result<ScenarioResult> {
    let (samples, metrics) = timed?;
    ScenarioResult::new(name, &samples, solver_counters(&metrics))
}

/// A same-run DP comparison: runs `run(false)` — forced-scalar dispatch,
/// or refreshes without repair — and then `run(true)` on the identical
/// seeded workload, times the second, and records the median of the first
/// over the median of the second under `ratio` (floored by [`GATES`]).
fn same_run_pair(
    name: &str,
    ratio: &str,
    run: impl Fn(bool) -> Result<(Vec<f64>, SolverMetrics)>,
) -> Result<ScenarioResult> {
    let (reference, _) = run(false)?;
    let (samples, metrics) = run(true)?;
    let mut result = ScenarioResult::new(name, &samples, solver_counters(&metrics))?;
    let speedup = median_ratio(&reference, &samples)?;
    result.counters.insert(ratio.to_string(), speedup);
    Ok(result)
}

/// The default solver with vectorized relaxation on or off.
fn dispatch(simd: bool) -> DpConfig {
    DpConfig {
        simd,
        ..DpConfig::default()
    }
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
        let speed = replanner
            .plan()
            .speed_at_position(position)
            .value()
            .max(8.0);
        let speed = MetersPerSecond::new(speed);
        let start = Instant::now();
        replanner.command(position, speed, planned + Seconds::new(drift))?;
        samples.push(start.elapsed().as_secs_f64());
        if replanner.replans() > refreshes {
            refreshes = replanner.replans();
            metrics.absorb(&replanner.plan().metrics);
        }
    }
    dp_scenario("replan_steady_state", Ok((samples, metrics)))
}

/// Times the window-refresh path alone: every tick installs a shifted set
/// of queue-free windows (the downstream signal's epoch slipping — the
/// common cloud `T_q` push) through [`Replanner::refresh_windows`], so the
/// row is pure refresh latency — warm arena, warm transition memo. With
/// `repair` on, the solver revalidates the retained layer stack and
/// re-relaxes only the dirty suffix; without it, every tick is a full
/// re-solve from the same warm arena. The schedule is deterministic and
/// every tick's windows differ from the previous tick's, so the repair-hit
/// counters are machine-invariant.
fn timed_refreshes(repair: bool, ticks: usize) -> Result<(Vec<f64>, SolverMetrics)> {
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
        // Bounded drift of the downstream epoch: consecutive ticks always
        // differ, and the upstream windows stay put, so repair only ever
        // has to re-relax the final layers.
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
/// reuse/allocations — are deterministic per iteration, so the gates pin
/// both the kernel workload and the arena recycling.
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
    ScenarioResult::new("sae_train", &samples, train_counters(&metrics))
}

/// Times warm batched multi-horizon rollouts: 32 intersections × 24
/// lookahead hours per call through [`VolumePredictor::predict_batch_with`]
/// with reused scratch. Counters are deltas across the timed loop only
/// (after one warm-up call), so the committed baseline records **zero**
/// steady-state scratch allocations and the gates keep it that way.
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
    ScenarioResult::new("sae_predict_batch", &samples, train_counters(&metrics))
}

/// A four-worker, two-shard server config with room for `clients`
/// connections.
fn bench_server(clients: usize) -> ServerConfig {
    ServerConfig {
        compute_workers: 4,
        shards: 2,
        max_connections: clients + 8,
        ..ServerConfig::default()
    }
}

fn frame(tag: u8, payload: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    write_frame(&mut out, tag, payload)?;
    Ok(out)
}

/// `n` persistent connections to `addr`, with Nagle off.
fn connect(addr: SocketAddr, n: usize) -> Result<Vec<TcpStream>> {
    (0..n)
        .map(|_| {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true).ok();
            Ok(stream)
        })
        .collect()
}

/// One timed lockstep round: every connection writes `request(i)`, then
/// every response is read back; an error response fails the scenario.
fn lockstep<'a>(streams: &[TcpStream], request: impl Fn(usize) -> &'a [u8]) -> Result<f64> {
    let start = Instant::now();
    for (i, mut stream) in streams.iter().enumerate() {
        stream.write_all(request(i))?;
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
}

/// Times concurrent serving through the cloud's sharded reactor:
/// `cloud_clients` simultaneous connections against 4 compute workers,
/// driven in lockstep rounds of mixed traffic (cached trip plans, volume
/// forecasts, telemetry, stats). Each sample is one round, so the median
/// describes how long a full concurrent wave takes, and throughput is
/// `cloud_clients / p50`. The buffer-pool and encode-skip counters are
/// deltas across the timed rounds only (after a warm-up round), so the
/// committed baseline records near-total steady-state reuse and the gates
/// keep it that way.
fn cloud_serve(spec: &MatrixSpec) -> Result<ScenarioResult> {
    let clients = spec.cloud_clients;
    let server = CloudServer::spawn_with(ServerConfig {
        // Retain a full round's worth of responses per shard so steady
        // state never allocates.
        buffer_pool_capacity: clients,
        ..bench_server(clients)
    })?;

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
    let trip_frames: Vec<Vec<u8>> = departures
        .iter()
        .map(|&d| frame(tags::REQ_TRIP, &TripRequest::us25_at(d).encode()))
        .collect::<Result<_>>()?;
    let predict_frame = frame(tags::REQ_PREDICT_BATCH, &predict.encode())?;
    let telemetry_frame = frame(tags::REQ_TELEMETRY, &[])?;
    let stats_frame = frame(tags::REQ_STATS, &[])?;
    let warm = connect(server.addr(), 1)?;
    for f in trip_frames.iter().chain([&predict_frame]) {
        lockstep(&warm, |_| f)?;
    }
    drop(warm);

    // Each connection's fixed request: trip hits, forecasts, telemetry and
    // stats in a 1:1:1:1 mix (the pooled-response paths dominate 3:1).
    let request = |i: usize| -> &[u8] {
        match i % 4 {
            0 => &trip_frames[(i / 4) % departures.len()],
            1 => &predict_frame,
            2 => &telemetry_frame,
            _ => &stats_frame,
        }
    };
    let streams = connect(server.addr(), clients)?;
    // One warm-up round fills the per-shard buffer pools; counters are
    // deltas across the timed rounds only.
    lockstep(&streams, request)?;
    let (reuse0, alloc0) = server.stats().buffer_pool();
    let skipped0 = server.stats().plan_encode_skipped();
    let samples = (0..spec.cloud_rounds)
        .map(|_| lockstep(&streams, request))
        .collect::<Result<Vec<_>>>()?;
    let (reuse, alloc) = server.stats().buffer_pool();
    let skipped = server.stats().plan_encode_skipped();
    drop(streams);
    server.shutdown();
    ScenarioResult::new(
        &format!("cloud_serve_{clients}"),
        &samples,
        pool_counters(reuse - reuse0, alloc - alloc0, skipped - skipped0),
    )
}

/// Times the co-simulation replan storm through the single-flight desk:
/// the fleet driver's traffic when a signal epoch flips —
/// `cosim_vehicles` simultaneous `REQ_TRIP`s sharing `cosim_corridors`
/// distinct trip keys — replayed in lockstep rounds. Fresh departures
/// every round keep the plan cache cold, so the server must solve each
/// key exactly once per round and answer every other vehicle from those
/// solves, or the scenario fails. Whether a duplicate waits on its leader
/// (`coalesce_hits`) or reaches a worker after the leader landed and hits
/// the cache depends on timing, so no counter of the split is gated.
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
            // round misses the plan cache.
            departure: Seconds::new(300.0 + 60.0 * round as f64),
            rates,
            queue: QueueParams::us25_probe(),
            queue_aware: true,
        };
        frame(tags::REQ_TRIP, &trip.encode())
    };

    // `wave` persistent connections: each round writes every request then
    // reads every response back (lockstep, like the fleet driver's replan
    // wave), one wall sample per round. Each key's leader solves inline on
    // its worker while its duplicates wait on it.
    let server = CloudServer::spawn_with(bench_server(wave))?;
    let streams = connect(server.addr(), wave)?;
    let samples = (0..rounds)
        .map(|round| {
            let frames: Vec<Vec<u8>> = (0..wave)
                .map(|v| request_frame(v, round))
                .collect::<Result<_>>()?;
            lockstep(&streams, |i| &frames[i])
        })
        .collect::<Result<Vec<_>>>()?;
    drop(streams);
    let stats = server.stats();
    let (solves, hits) = (stats.coalesce_flights(), stats.coalesce_hits());
    let shared = hits + stats.cache_hits();
    server.shutdown();
    let expected = ((keys * rounds) as u64, ((wave - keys) * rounds) as u64);
    if (solves, shared) != expected {
        return Err(Error::invalid_input(format!(
            "cosim bench: the server made {solves} fresh solves and answered {shared} \
             requests from a shared solve; single-flight means exactly {} and {}",
            expected.0, expected.1
        )));
    }
    let measured = counters([
        ("coalesce_hits", hits as f64),
        ("coalesce_flights", solves as f64),
    ]);
    ScenarioResult::new(&format!("cloud_cosim_{wave}x{keys}"), &samples, measured)
}

/// Advances the forced-scalar and auto-dispatch twins of one seeded
/// simulation in interleaved timed rounds, so clock and cache drift hit
/// both equally; returns the auto twin's samples and the same-run ratio of
/// the scalar median over the auto median.
fn interleave<T>(
    rounds: usize,
    scalar: &mut T,
    auto: &mut T,
    advance: impl Fn(&mut T, usize) -> Result<()>,
) -> Result<(Vec<f64>, f64)> {
    let (mut reference, mut samples) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        for (twin, timed) in [(&mut *scalar, &mut reference), (&mut *auto, &mut samples)] {
            let start = Instant::now();
            advance(twin, round)?;
            timed.push(start.elapsed().as_secs_f64());
        }
    }
    let speedup = median_ratio(&reference, &samples)?;
    Ok((samples, speedup))
}

/// Times the multi-corridor microsimulation: a seeded chain of
/// `network_corridors` dense arterial corridors (roughly 20 signals each),
/// each with its own arrival process and seeded [`VehicleMix`]. The chain
/// is one junction component, so the network is one stepping group and
/// steps on the calling thread whatever the core count. After an untimed
/// warm-up each timed round advances one simulated second, so throughput
/// is `vehicles_stepped / iterations / p50` vehicle-steps per second. The
/// counters are deltas across the timed rounds and, because the network is
/// bit-identical at any shard count and under either dispatch,
/// machine-invariant. The forced-scalar and auto-dispatch twins give
/// `microsim_simd_speedup`, diluted below the step-engine ratio by the
/// dispatch-invariant junction routing and injection scans.
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
    let (mut scalar, mut auto) = (build(false)?, build(true)?);
    let (warm, warm_metrics) = (auto.stats(), auto.step_metrics());
    let rounds = spec.network_rounds;
    let (samples, speedup) = interleave(rounds, &mut scalar, &mut auto, |net, round| {
        net.run_until(Seconds::new(spec.network_warmup_s + (round + 1) as f64))
    })?;
    let stats = auto.stats();
    let stepped = (stats.vehicles_stepped - warm.vehicles_stepped) as f64;
    let handoffs = (stats.handoffs - warm.handoffs) as f64;
    let mut measured = step_counters(auto.step_metrics(), warm_metrics);
    measured.extend(counters([
        ("vehicles_stepped", stepped),
        ("network_handoffs", handoffs),
        ("microsim_simd_speedup", speedup),
    ]));
    ScenarioResult::new(
        &format!("microsim_network_{}", spec.network_corridors),
        &samples,
        measured,
    )
}

/// Times the single-corridor step engine on a dense signalized platoon: a
/// 30 km arterial with 36 offset fixed-time lights and a non-dawdling
/// (`σ = 0`) Krauss population, filled by an untimed saturating warm-up and
/// then *frozen* (arrivals shut off), so the timed rounds measure pure
/// stepping of a ~500-vehicle queue discharge with no injection scans
/// diluting the kernel share. Forced-scalar and auto-dispatch twins advance
/// in interleaved 50-tick rounds for `microsim_simd_speedup`; the lane and
/// arena counters are the auto twin's, and `vehicles_stepped` is its lane
/// total.
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
    let (mut scalar, mut auto) = (build(false)?, build(true)?);
    let warm = auto.step_metrics();
    let (samples, speedup) = interleave(spec.step_rounds, &mut scalar, &mut auto, |sim, _| {
        (0..10 * spec.step_round_s).for_each(|_| sim.step());
        Ok(())
    })?;
    let mut measured = step_counters(auto.step_metrics(), warm);
    let lanes = measured["sim_lanes"];
    measured.extend(counters([
        ("vehicles_stepped", lanes),
        ("microsim_simd_speedup", speedup),
    ]));
    ScenarioResult::new("microsim_step", &samples, measured)
}

/// Times energy-optimal routing over a seeded grid network: each iteration
/// runs a fixed query set (corner-to-corner and cross-grid sweeps) against
/// a cold router, so the oracle-call, pruning, and memo counters are
/// per-iteration invariant. Like the SIMD rows, the scenario is a same-run
/// comparison: the featureless sweep — lower bounds, plan memo, and
/// batched frontier evaluation all off, i.e. plain Dijkstra paying one DP
/// solve per (edge, departure bin) — runs first over the identical
/// queries, and `route_oracle_ratio` divides its oracle calls by the full
/// router's. Both counts are deterministic, so the ratio is
/// machine-invariant.
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
    let (corner, node) = (side - 1, |row, col| template.node_at(row, col));
    let queries = [
        (node(0, 0), node(corner, corner), 0.0),
        (node(0, corner), node(corner, 0), 45.0),
        (node(corner, 0), node(0, corner), 90.0),
        (node(side / 2, 0), node(side / 2, corner), 150.0),
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
    ScenarioResult::new(
        &format!("route_plan_{}", side * side),
        &samples,
        counters([
            ("route_oracle_calls", metrics.oracle_calls as f64),
            ("route_edges_pruned", metrics.edges_pruned as f64),
            ("route_plan_memo_hits", metrics.plan_memo_hits as f64),
            ("route_oracle_ratio", ratio),
        ]),
    )
}

/// A scenario family: its stable name stem and its runner.
type Scenario = (&'static str, fn(&MatrixSpec) -> Result<ScenarioResult>);

/// The scenario matrix, in report order.
const SCENARIOS: [Scenario; 14] = [
    ("single_trip_sequential", |s| {
        dp_scenario(
            "single_trip_sequential",
            timed_solves(DpConfig::default(), s.trip_iters),
        )
    }),
    ("single_trip_greedy", |s| {
        let greedy = DpConfig {
            time_handling: TimeHandling::Greedy,
            ..DpConfig::default()
        };
        dp_scenario("single_trip_greedy", timed_solves(greedy, s.trip_iters))
    }),
    ("batch", |s| {
        dp_scenario(
            &format!("batch_{}", s.batch_size),
            timed_batches(DpConfig::default(), s),
        )
    }),
    ("dp_single_simd", |s| {
        same_run_pair("dp_single_simd", "simd_speedup", |simd| {
            timed_solves(dispatch(simd), s.trip_iters)
        })
    }),
    ("dp_batch_simd", |s| {
        same_run_pair("dp_batch_simd", "simd_speedup", |simd| {
            timed_batches(dispatch(simd), s)
        })
    }),
    ("replan_steady_state", |s| {
        replan_steady_state(s.replan_ticks)
    }),
    ("replan_refresh", |s| {
        let ticks = (s.replan_ticks / 4).max(1);
        same_run_pair("replan_refresh", "repair_speedup", |repair| {
            timed_refreshes(repair, ticks)
        })
    }),
    ("sae_train", |s| sae_train(s.sae_train_iters)),
    ("sae_predict_batch", |s| {
        sae_predict_batch(s.sae_predict_iters)
    }),
    ("cloud_serve", cloud_serve),
    ("cloud_cosim", cloud_cosim),
    ("microsim_network", microsim_network),
    ("microsim_step", microsim_step),
    ("route_plan", route_plan),
];

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
    let selected: Vec<&Scenario> = SCENARIOS
        .iter()
        .filter(|(stem, _)| filter.is_none_or(|needle| stem.contains(needle)))
        .collect();
    if selected.is_empty() {
        let known: Vec<&str> = SCENARIOS.iter().map(|(stem, _)| *stem).collect();
        return Err(Error::invalid_input(format!(
            "--scenario {:?} matches no scenario; known stems: {}",
            filter.unwrap_or_default(),
            known.join(", ")
        )));
    }
    let scenarios = selected
        .into_iter()
        .map(|(_, run)| run(spec))
        .collect::<Result<_>>()?;
    Ok(BenchReport { scenarios })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic scenario recording every gated counter, with the raw
    /// counters the derived ones come from.
    fn scenario(name: &str, p50: f64) -> ScenarioResult {
        let mut measured = solver_counters(&SolverMetrics {
            states_expanded: 1000,
            states_pruned: 400,
            memo_hits: 90,
            memo_misses: 10,
            energy_evals: 500,
            repair_hits: 4 * 5,
            ..SolverMetrics::default()
        });
        measured.extend(train_counters(&TrainMetrics {
            gemm_flops: 50_000,
            scratch_allocations: 5,
            ..TrainMetrics::default()
        }));
        measured.extend(pool_counters(950, 50, 100));
        measured.extend(lanes(30_000, 10_000));
        measured.extend(counters([
            ("simd_speedup", 2.6),
            ("repair_speedup", 4.2),
            ("vehicles_stepped", 40_000.0),
            ("microsim_simd_speedup", 2.8),
            ("route_oracle_calls", 400.0),
            ("route_oracle_ratio", 6.5),
        ]));
        let wall = Wall { p50, tail: None };
        let (name, iterations) = (name.to_string(), 5);
        ScenarioResult {
            name,
            iterations,
            wall,
            counters: measured,
        }
    }

    /// The step-engine counters of `simd` AVX2 and `scalar` portable lanes.
    fn lanes(simd: u64, scalar: u64) -> BTreeMap<String, f64> {
        let after = StepMetrics {
            simd_lanes: simd,
            scalar_lanes: scalar,
            ..Default::default()
        };
        step_counters(after, StepMetrics::default())
    }

    fn report(entries: &[(&str, f64)]) -> BenchReport {
        BenchReport {
            scenarios: entries.iter().map(|&(n, p)| scenario(n, p)).collect(),
        }
    }

    /// The synthetic one-scenario report the gate tests start from.
    fn base() -> BenchReport {
        report(&[("s", 0.100)])
    }

    /// [`base`] with `changes` applied to its counters.
    fn with(changes: impl IntoIterator<Item = (String, f64)>) -> BenchReport {
        let mut r = base();
        r.scenarios[0].counters.extend(changes);
        r
    }

    fn set<const N: usize>(changes: [(&str, f64); N]) -> BenchReport {
        with(counters(changes))
    }

    /// [`base`] without the named counters.
    fn without(removed: &[&str]) -> BenchReport {
        let mut r = base();
        r.scenarios[0]
            .counters
            .retain(|key, _| !removed.contains(&key.as_str()));
        r
    }

    /// Asserts that `current` fails both `--check` (at 15%) and
    /// `--check-work` against [`base`], with a message naming `counter`.
    fn assert_flags(current: &BenchReport, counter: &str) {
        let needle = format!(": {counter} ");
        for outcome in [
            compare(current, &base(), 0.15).unwrap(),
            compare_work(current, &base()).unwrap(),
        ] {
            let named = outcome.regressions.iter().any(|m| m.contains(&needle));
            assert!(named, "{counter} not flagged: {:?}", outcome.regressions);
        }
    }

    fn assert_passes(current: &BenchReport, baseline: &BenchReport) {
        let outcome = compare_work(current, baseline).unwrap();
        assert!(!outcome.is_regression(), "{:?}", outcome.regressions);
    }

    #[test]
    fn report_json_round_trips() {
        let mut original = report(&[("a", 0.125), ("b", 2.5e-3)]);
        original.scenarios[1].wall.tail = Some((90, 4.5e-3));
        let parsed = BenchReport::from_json(&original.to_json()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn empty_or_malformed_reports_are_clear_errors() {
        let err = |text: &str| BenchReport::from_json(text).unwrap_err().to_string();
        assert!(err("").contains("malformed report"));
        assert!(err("{}").contains("scenarios"));
        assert!(err(r#"{"scenarios":[{"name":"x","iterations":1}]}"#).contains("wall_seconds"));
        assert!(err(r#"{"scenarios":[{"iterations":1}]}"#).contains("name"));
        let head = r#"{"scenarios":[{"name":"x","iterations":1,"wall_seconds":{"p50":0.1}"#;
        assert!(err(&format!("{head}}}]}}")).contains("counters"));
        assert!(err(&format!(r#"{head},"counters":{{"a":"1"}}}}]}}"#)).contains("not a number"));
    }

    #[test]
    fn wall_keeps_only_the_tail_its_samples_support() {
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        let tail = |n: usize| Wall::from_samples(&samples(n)).unwrap().tail.map(|t| t.0);
        assert_eq!(
            [5, 99, 100, 199, 200, 999, 1000].map(tail),
            [None, None, Some(90), Some(90), Some(95), Some(95), Some(99)]
        );
        let wall = Wall::from_samples(&samples(101)).unwrap();
        assert_eq!((wall.p50, wall.tail), (51.0, Some((90, 91.0))));
        assert!(Wall::from_samples(&[]).is_err());
    }

    #[test]
    fn comparator_flags_only_regressions_beyond_tolerance() {
        let baseline = report(&[("fast", 0.100), ("slow", 0.100)]);
        let current = report(&[("fast", 0.105), ("slow", 0.114)]);
        let outcome = compare(&current, &baseline, 0.15).unwrap();
        assert!(!outcome.is_regression(), "{:?}", outcome.regressions);
        assert_eq!(outcome.passed, 2);

        let outcome = compare(&current, &baseline, 0.10).unwrap();
        assert_eq!(outcome.regressions.len(), 1);
        assert!(outcome.regressions[0].starts_with("slow:"));
        assert_eq!(outcome.passed, 1);
    }

    /// Every row of the table fails its scenario under `--check` and
    /// `--check-work`, and is disarmed by a baseline that does not record
    /// its counter.
    #[test]
    fn every_gate_row_fires_and_a_baseline_without_its_counter_disarms_it() {
        assert_passes(&base(), &base());
        for (counter, kind, _, floor) in GATES {
            let bad = match kind {
                Ceiling => 1e9,
                Floor => 0.0,
                SameRunFloor | AbsoluteFloor => floor / 2.0,
            };
            assert_flags(&set([(counter, bad)]), counter);
            assert_passes(&set([(counter, bad)]), &without(&[counter]));
        }
    }

    #[test]
    fn a_gated_counter_missing_from_the_current_run_fails() {
        for (counter, ..) in GATES {
            let current = without(&[counter]);
            for outcome in [
                compare(&current, &base(), 0.15).unwrap(),
                compare_work(&current, &base()).unwrap(),
            ] {
                assert_eq!(outcome.regressions.len(), 1, "{:?}", outcome.regressions);
                assert!(outcome.regressions[0].contains(&format!("{counter} is missing")));
            }
        }
        // An ungated counter may come and go.
        assert_passes(&without(&["states_pruned"]), &base());
    }

    #[test]
    fn work_counter_regressions_are_flagged() {
        // Same wall time, but the solver suddenly expands twice the states
        // per iteration: a real regression even though the clock is flat.
        assert_flags(&set([("states_expanded", 2000.0)]), "states_expanded");
        // A memo that stopped engaging multiplies energy evals far past the
        // one-cold-build slack.
        assert_flags(&set([("energy_evals", 500.0 * 12.0)]), "energy_evals");
        // A gemm kernel that started doing redundant work is caught even
        // with the wall clock flat.
        assert_flags(&set([("gemm_flops", 150_000.0)]), "gemm_flops");
        // Scratch that stopped being recycled allocates every iteration.
        assert_flags(
            &set([("scratch_allocations", 100.0)]),
            "scratch_allocations",
        );

        // Fewer states / fewer evals is an improvement, never a regression.
        let current = set([("states_expanded", 1.0), ("energy_evals", 0.0)]);
        let outcome = compare(&current, &base(), 0.15).unwrap();
        assert!(!outcome.is_regression(), "{:?}", outcome.regressions);
        assert_eq!(outcome.passed, 1);
    }

    #[test]
    fn vehicle_step_floor_is_gated() {
        // The network silently stepping half the traffic is a regression
        // even though less work looks like a timing win.
        assert_flags(&set([("vehicles_stepped", 20_000.0)]), "vehicles_stepped");
        // More traffic than the baseline is never flagged.
        assert_passes(&set([("vehicles_stepped", 80_000.0)]), &base());
        // A baseline without network traffic floors nothing.
        let none = set([("vehicles_stepped", 0.0)]);
        assert_passes(&none, &none);
    }

    #[test]
    fn step_engine_floors_are_gated() {
        // The step engine silently evaluating half the lanes is a
        // regression even though less work looks like a timing win. The
        // floor is on the dispatch-invariant total, so a host that shifts
        // lanes from SIMD to scalar (or vice versa) never trips it.
        assert_flags(&with(lanes(0, 20_000)), "sim_lanes");
        assert_passes(&with(lanes(0, 40_000)), &base());
        // Per-tick allocation creeping back into the step loop blows the
        // arena-grow ceiling.
        assert_flags(&set([("sim_arena_grows", 50.0)]), "sim_arena_grows");
        // The microsim speedup collapsing below the floor fails when the
        // baseline itself cleared it.
        assert_flags(
            &set([("microsim_simd_speedup", 1.0)]),
            "microsim_simd_speedup",
        );

        // A baseline from before the step engine (no lane counters, a
        // speedup below the floor) disables all three gates instead of
        // failing every run.
        let mut old = without(&["sim_lanes", "sim_simd_lanes", "sim_scalar_lanes"]);
        let old_counters = &mut old.scenarios[0].counters;
        old_counters.remove("sim_arena_grows");
        old_counters.insert("microsim_simd_speedup".into(), 0.0);
        let mut current = with(lanes(0, 0));
        let broken = [("sim_arena_grows", 500.0), ("microsim_simd_speedup", 0.5)];
        current.scenarios[0].counters.extend(counters(broken));
        assert_passes(&current, &old);
    }

    #[test]
    fn buffer_reuse_floor_is_gated() {
        // Reuse collapsing to 50% fails both gates, tolerance or not.
        assert_flags(&with(pool_counters(500, 500, 100)), "buf_reuse_rate");
        // Exactly at the floor passes; the gate is strict-below.
        assert_passes(&with(pool_counters(900, 100, 100)), &base());
        // A baseline without buffer counters disables the floor instead of
        // failing every run.
        let pool = pool_counters(0, 0, 0);
        let old = without(&pool.keys().map(String::as_str).collect::<Vec<_>>());
        assert_passes(&with(pool_counters(1, 999, 0)), &old);
    }

    #[test]
    fn route_floors_are_gated() {
        // The router suddenly solving twice the edge DPs per iteration is
        // a regression even with the wall clock flat.
        assert_flags(&set([("route_oracle_calls", 800.0)]), "route_oracle_calls");
        // The same-run ratio falling below the 5x floor fails when the
        // baseline itself cleared it.
        assert_flags(&set([("route_oracle_ratio", 3.0)]), "route_oracle_ratio");
        // Fewer solves or a stronger ratio never regress, and the pruning
        // and memo counters are visibility-only, never gated.
        let better = [("route_oracle_calls", 200.0), ("route_oracle_ratio", 20.0)];
        let mut current = set(better);
        let unread = [("route_edges_pruned", 0.0), ("route_plan_memo_hits", 0.0)];
        current.scenarios[0].counters.extend(counters(unread));
        assert_passes(&current, &base());
        // A baseline without route traffic or below the ratio floor (a
        // reduced local run) disables the gates; four calls over five
        // iterations stay within the per-iteration slack.
        let old = set([("route_oracle_calls", 0.0), ("route_oracle_ratio", 2.0)]);
        let current = set([("route_oracle_calls", 4.0), ("route_oracle_ratio", 1.0)]);
        assert_passes(&current, &old);
    }

    #[test]
    fn simd_and_repair_floors_are_gated() {
        // Repair disengaging (every refresh re-solves) craters the hit
        // count: a regression even with the wall clock flat.
        assert_flags(&set([("repair_hits", 5.0)]), "repair_hits");
        // The SIMD speedup falling below the 2x floor fails when the
        // baseline itself cleared it; likewise the repair speedup below 3x.
        assert_flags(&set([("simd_speedup", 1.3)]), "simd_speedup");
        assert_flags(&set([("repair_speedup", 2.1)]), "repair_speedup");
        // More hits or faster kernels never regress, and `simd_rows` is
        // geometry-dependent telemetry that is never gated.
        let mut better = set([("repair_hits", 40.0), ("simd_speedup", 9.0)]);
        better.scenarios[0].counters.insert("simd_rows".into(), 0.0);
        assert_passes(&better, &base());
        // A baseline without repair traffic or below the speedup floors
        // (a scalar host, a pre-repair baseline) disables the gates.
        let speedups = |simd, repair| [("simd_speedup", simd), ("repair_speedup", repair)];
        let mut old = set(speedups(1.0, 0.0));
        let mut current = set(speedups(0.9, 0.5));
        for r in [&mut old, &mut current] {
            r.scenarios[0].counters.insert("repair_hits".into(), 0.0);
        }
        assert_passes(&current, &old);
    }

    #[test]
    fn work_only_gate_ignores_wall_time() {
        // 10x slower wall clock but identical work: the work gate passes.
        let outcome = compare_work(&report(&[("s", 1.000)]), &base()).unwrap();
        assert!(!outcome.is_regression(), "{:?}", outcome.regressions);
        assert_eq!(outcome.passed, 1);
        // Two extra states per iteration, past the one-state slack, fail it.
        let current = set([("states_expanded", 1000.0 + 2.0 * 5.0)]);
        assert!(compare_work(&current, &base()).unwrap().is_regression());
    }

    #[test]
    fn memo_hit_rate_and_optional_fields() {
        assert!((scenario("s", 0.1).counters["memo_hit_rate"] - 0.9).abs() < 1e-12);
        // A run that fetched no tables has a vacuous 100% hit rate.
        let idle = solver_counters(&SolverMetrics::default());
        assert_eq!(idle["memo_hit_rate"], 1.0);
        // A scenario records only what it measures: an absent counter and
        // an absent tail percentile stay absent through a round trip,
        // never zero.
        let text = r#"{"scenarios":[{"name":"s","iterations":5,
            "wall_seconds":{"p50":0.1},"counters":{"gemm_flops":7}}]}"#;
        let parsed = BenchReport::from_json(text).unwrap();
        let s = &parsed.scenarios[0];
        assert_eq!(s.wall.tail, None);
        assert_eq!(s.counters.get("gemm_flops"), Some(&7.0));
        assert_eq!(s.counters.get("memo_hits"), None);
        assert_eq!(BenchReport::from_json(&parsed.to_json()).unwrap(), parsed);
    }

    #[test]
    fn tolerance_exactly_met_passes() {
        // p50 lands exactly on the +15% limit: allowed, not a regression.
        let outcome = compare(&report(&[("s", 0.100 * 1.15)]), &base(), 0.15).unwrap();
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
        let empty = BenchReport::default();
        let err = compare(&base(), &empty, 0.15).unwrap_err();
        assert!(err.to_string().contains("no scenarios"), "{err}");
        let err = compare_work(&base(), &empty).unwrap_err();
        assert!(err.to_string().contains("no scenarios"), "{err}");
    }

    #[test]
    fn bad_tolerance_is_rejected() {
        assert!(compare(&base(), &base(), -0.1).is_err());
        assert!(compare(&base(), &base(), f64::NAN).is_err());
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
        let report = run_scenarios(&tiny_spec(), None).unwrap();
        assert_eq!(report.scenarios.len(), 14);
        let work = "states_expanded gemm_flops buf_reuse coalesce_flights vehicles_stepped \
                    route_oracle_calls";
        for s in &report.scenarios {
            assert!(s.iterations > 0 && s.wall.p50 > 0.0, "{}", s.name);
            assert_eq!(s.wall.tail, None, "{}: too few samples for a tail", s.name);
            // Every scenario reports its work: DP states, gemm FLOPs,
            // served response buffers, solves, stepped vehicles or oracle
            // calls.
            let did_work = work
                .split_whitespace()
                .any(|k| s.counters.get(k).is_some_and(|&v| v > 0.0));
            assert!(did_work, "{}: {:?}", s.name, s.counters);
        }
        let get = |name: &str| report.scenario(name).unwrap().counters.clone();
        assert!(report.scenario("batch_2").is_some());
        // The SIMD delta rows ran both dispatches and report the same-run
        // ratio; the timed (SIMD) half only touches the vector kernels
        // when the host supports them.
        assert!(get("dp_single_simd")["simd_speedup"] > 0.0);
        assert!(get("dp_batch_simd")["simd_speedup"] > 0.0);
        // Every timed refresh tick shifts only the downstream signal's
        // windows, so the warm-started solver repairs instead of
        // re-solving, and the ratio over the scratch schedule is positive.
        let refresh = get("replan_refresh");
        assert!(refresh["repair_speedup"] > 0.0);
        let resolves = refresh["repair_full_resolves"];
        assert!(refresh["repair_hits"] > 0.0, "{resolves} full re-solves");
        assert!(refresh["repair_layers_skipped"] > 0.0);
        // The SAE rows carry the trainer's counters instead of the DP's,
        // and the warm rollout scenario must report zero allocations.
        let train = get("sae_train");
        assert!(train["gemm_flops"] > 0.0);
        assert!(train["scratch_allocations"] > 0.0); // cold arenas, once per run
        assert!(!train.contains_key("states_expanded"));
        let predict = get("sae_predict_batch");
        assert!(predict["gemm_flops"] > 0.0 && predict["scratch_reuse_hits"] > 0.0);
        assert_eq!(
            predict["scratch_allocations"], 0.0,
            "warm rollouts allocated"
        );
        // Every DP scenario runs the memoized solver, so cost tables were
        // fetched and most fetches hit the shared cache.
        let seq = get("single_trip_sequential");
        assert!(seq["memo_misses"] > 0.0);
        assert!(seq["memo_hit_rate"] > 0.5, "rate {}", seq["memo_hit_rate"]);
        // The cloud scenario served warm traffic: every trip response came
        // from the cached frame, and the pools recycled in steady state.
        let cloud = get("cloud_serve_8");
        assert!(cloud["plan_encode_skipped"] > 0.0 && cloud["buf_reuse"] > 0.0);
        assert!(cloud["buf_reuse_rate"] >= 0.90, "{cloud:?}");
        // The co-simulation storm solved each of its 2 keys once in each
        // of its 2 rounds; of the other 4 vehicles per round, those that
        // did not hit the cache followed a leader.
        let cosim = get("cloud_cosim_6x2");
        assert_eq!(cosim["coalesce_flights"], 2.0 * 2.0);
        assert!(cosim["coalesce_hits"] <= 2.0 * 4.0, "{cosim:?}");
        // The warmed-up network keeps stepping traffic through the timed
        // rounds, and its counters are deltas (rounds only, not warm-up).
        assert_eq!(report.scenario("microsim_network_3").unwrap().iterations, 2);
        let net = get("microsim_network_3");
        assert!(net["vehicles_stepped"] > 0.0);
        // The network ran both dispatches and reports the step engine's
        // dispatch-invariant lane total alongside the same-run ratio; the
        // lane total is the vehicle-steps the network executed.
        assert!(net["microsim_simd_speedup"] > 0.0);
        let split = net["sim_simd_lanes"] + net["sim_scalar_lanes"];
        assert_eq!([split, net["sim_lanes"]], [net["vehicles_stepped"]; 2]);
        // The step-engine scenario's warm rounds reuse the pooled scratch
        // (zero growths) and keep every vehicle in the lane counters.
        let step = get("microsim_step");
        assert!(step["vehicles_stepped"] > 0.0 && step["microsim_simd_speedup"] > 0.0);
        assert_eq!(
            step["sim_arena_grows"], 0.0,
            "timed rounds grew the scratch"
        );
        // The router solved edge DPs, pruned on certified bounds, shared
        // plans through the memo, and beat featureless Dijkstra on oracle
        // work — the same-run ratio is deterministic and above one even on
        // the tiny grid.
        let route = get("route_plan_16");
        let work = ["route_oracle_calls", "route_edges_pruned"];
        assert!(work.iter().all(|k| route[*k] > 0.0), "{route:?}");
        assert!(route["route_plan_memo_hits"] > 0.0, "{route:?}");
        assert!(route["route_oracle_ratio"] > 1.0, "{route:?}");
        // A matrix run is comparable against itself at any tolerance.
        let outcome = compare(&report, &report, 0.0).unwrap();
        assert!(!outcome.is_regression(), "{:?}", outcome.regressions);
        assert_eq!(outcome.passed, 14);
    }
}

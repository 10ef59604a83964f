//! The space–velocity(–time) dynamic program (Eq. 7–12).
//!
//! The road is discretized into equal-distance stations `s_i` (Eq. 7's
//! setup). A profile is a speed per station; between stations the vehicle
//! holds the constant acceleration implied by the kinematic relation
//! `v_{i+1}² = v_i² + 2·a·Δs`. The DP searches over discrete speeds at each
//! station for the assignment minimizing total charge consumption.
//!
//! ## Time handling
//!
//! Eq. 10 makes the penalty of Eq. 11 depend on the *arrival time* at a
//! signal station, which depends on the entire path prefix — so a pure
//! (station × speed) DP is not Markovian. The paper glosses over this; we
//! implement both resolutions:
//!
//! * [`TimeHandling::Exact`] *(default)* — the state space is expanded with
//!   a discretized arrival time `(station, v, t-bin)`. This restores the
//!   Markov property at the cost of a larger (still tractable) state space
//!   and is what the headline results use.
//! * [`TimeHandling::Greedy`] — paper-literal: a `(station, v)` DP where
//!   each state remembers the arrival time of its current-best path and the
//!   penalty is evaluated against that single estimate. Cheaper, but the
//!   kept path can be window-infeasible when a slightly costlier prefix
//!   would have hit the window. Offered as an ablation (`bench dp`).
//!
//! ## Penalty form
//!
//! Eq. 12 multiplies the transition cost by a large constant `M` outside
//! `T_q`. With regenerative braking the transition cost can be *negative*,
//! and multiplying a negative cost by `M` would reward violations; we apply
//! the penalty additively (`cost + M`) instead, which preserves Eq. 12's
//! intent for all cost signs. (Documented deviation; see DESIGN.md.)
//!
//! ## Transition memoization
//!
//! Segment energy depends only on `(v_from, v_to, segment length, grade)`,
//! so per solve there are only as many distinct transition structures as
//! there are distinct (quantized) `(length, grade)` segment classes — one
//! on a uniform flat corridor. [`crate::memo`] caches one V×V cost table
//! per class in the [`SolverArena`]; the relaxation loops read the table
//! instead of calling the energy model per candidate, and the cache
//! persists across layers, batch trips and replanning ticks. Costs are
//! evaluated at the snapped class values whether memoization is on or off
//! ([`DpConfig::memo`]), so the two paths are bit-identical; see the
//! [`crate::memo`] docs for the exactness argument.
//!
//! ## Reachability pruning and the cost-to-go bound
//!
//! Before relaxing, the solver intersects a forward acceleration cone from
//! the start state with a backward cone from the terminal (both restricted
//! to `allowed` rows and table-feasible transitions) and skips every
//! `(station, v)` row outside the intersection
//! ([`SolverMetrics::rows_skipped`]). A row outside the cone can neither
//! hold a state nor feed one into a live row, so skipping it leaves the
//! live rows' contents — and the backtracked profile — bit-identical.
//!
//! On top of the masks, Exact mode prunes candidates against a lower bound
//! on their completion cost: an admissible per-row cost-to-go `B(i, v)`
//! from a backward Bellman sweep (folding in the unavoidable penalty `M`
//! at signal stations whose windows the earliest possible arrival already
//! misses), combined with a window-aware arrival-time bound
//! (`window_bounds`) that prices window penalties the cost-to-go cannot
//! see. The window-aware tables do not depend on the start state, so the
//! [`SolverArena`] keeps them for later solves of the same corridor and
//! windows. Every bound term is a pure function of a candidate's DP slot
//! `(station, v, t-bin)`, so within one slot prunability is monotone in
//! cost: if any candidate survives, the slot's winner survives, and
//! pruning can never change a surviving slot's contents.
//!
//! The pruning limit comes from an *aspiration ladder* rather than a
//! single upper bound. The first rungs are optimistic
//! `B(0, v_start) + time_weight·Δ` guesses (Δ = 6 s, 24 s, …, capped by
//! the Greedy presolve's achievable-path cost); the ladder ends with the
//! greedy bound and finally `None` (unbounded). Each rung is *verified*:
//! the sweep's terminal cost must not exceed the rung, otherwise the rung
//! undercut the optimum (or time-bin merging legitimately pushed the DP
//! value past the greedy path cost) and the solver retries with the next,
//! looser rung. A failing rung costs one heavily pruned — therefore cheap
//! — sweep; a passing rung certifies that every slot that can reach a
//! terminal within the limit was relaxed identically to the unbounded
//! sweep, so the returned profile is bit-identical to the unpruned one
//! (see DESIGN.md for the full argument). The rung schedule is fixed and
//! data-independent, so the work counters remain deterministic across
//! memoization and kernel-dispatch settings.
//!
//! ## Parallelism
//!
//! One solve runs on one thread: a layer is tens of microseconds of work,
//! too little to pay for waking workers twice per layer. Parallelism lives
//! one level up, across independent trips. [`DpOptimizer::optimize_batch`]
//! runs one worker per core (capped by the request count),
//! [`DpOptimizer::optimize_batch_with`] one worker per caller-owned arena,
//! and the cloud's compute workers, the coalescer, the router's frontier
//! batches and the fleet driver's replan waves all plan many trips at
//! once. Every plan is a pure function of its request, so a batch returns
//! the same bits as solving its trips one after another.

use crate::arena::{LayerPool, LayerStack, StackLayer};
use crate::memo::{
    BoundsKey, BoundsMemo, ClassKey, CostTable, MemoStats, TransitionTable, WindowBounds,
};
use crate::metrics::SolverMetrics;
use crate::simd;
use serde::{Deserialize, Serialize};
use std::num::NonZeroU32;
use std::sync::Arc;
use std::time::Instant;
use velopt_common::units::{AmpereHours, Meters, MetersPerSecond, MetersPerSecondSq, Seconds};
use velopt_common::{Error, Result, TimeSeries};
use velopt_ev_energy::{EnergyModel, GridSpec};
use velopt_queue::TimeWindow;
use velopt_road::Road;

/// How arrival times are tracked for the queue-window penalty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimeHandling {
    /// Time-expanded state space `(station, v, t-bin)` — exact.
    Exact,
    /// Paper-literal `(station, v)` with greedy per-state arrival times.
    Greedy,
}

/// Discretization and penalty settings for the DP.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DpConfig {
    /// Station spacing Δs.
    pub ds: Meters,
    /// Speed grid resolution.
    pub dv: MetersPerSecond,
    /// Arrival-time bin width (Exact mode only).
    pub dt_bin: Seconds,
    /// Planning horizon: arrival times beyond this are pruned.
    pub horizon: Seconds,
    /// Comfort deceleration bound (negative).
    pub a_min: MetersPerSecondSq,
    /// Comfort acceleration bound (positive).
    pub a_max: MetersPerSecondSq,
    /// The additive window penalty `M` (must dominate any trip energy).
    pub penalty_m: f64,
    /// Time spent serving an interior stop sign (come to rest, check,
    /// launch), added to the arrival clock at every stop-sign station. The
    /// DP's kinematic profile touches `v = 0` only instantaneously; real
    /// sign service (and the microscopic simulator's) costs several
    /// seconds, and arrival-time accuracy at downstream lights depends on
    /// accounting for it.
    pub stop_dwell: Seconds,
    /// Value of time in the blended objective, in Ah per second.
    ///
    /// With a pure-physics energy model the slowest legal speed is always
    /// the cheapest, which would (a) weld the optimum to `v_min` leaving no
    /// slack to *delay* an arrival into a queue-free window and (b)
    /// contradict the paper's own profiles (Fig. 6 cruises around 60 km/h,
    /// and §III-B-3 reports the optimized trip matching the fast driver's
    /// time). The default of 3 mAh/s places the free-cruise optimum near
    /// 60 km/h for the Spark EV. Reported energies are always the raw
    /// charge, never the blended cost.
    pub time_weight: f64,
    /// Time-tracking mode.
    pub time_handling: TimeHandling,
    /// Whether to reuse transition-cost tables from the arena cache
    /// (default `true`). With `false` every solve rebuilds its tables from
    /// the energy model — same results bit-for-bit, no sharing; kept as an
    /// ablation/verification knob (`SolverMetrics::memo_misses` then counts
    /// every per-layer build).
    pub memo: bool,
    /// Whether the relax loops may use the AVX2 microkernels when the host
    /// supports them (default `true`). The portable fallback is
    /// bit-identical (see the crate-private `simd` module), so this — like the
    /// `VELOPT_DP_SIMD` env override that also forces the portable path —
    /// is purely an A/B benchmarking and CI-coverage knob.
    #[serde(default = "default_simd")]
    pub simd: bool,
}

/// Serde default for [`DpConfig::simd`]: configs serialized before the
/// knob existed deserialize with SIMD enabled.
fn default_simd() -> bool {
    true
}

impl Default for DpConfig {
    fn default() -> Self {
        Self {
            ds: Meters::new(20.0),
            dv: MetersPerSecond::new(1.0),
            dt_bin: Seconds::new(1.0),
            horizon: Seconds::new(900.0),
            a_min: MetersPerSecondSq::new(-1.5),
            a_max: MetersPerSecondSq::new(2.5),
            penalty_m: 1.0e6,
            stop_dwell: Seconds::new(5.5),
            time_weight: 0.003,
            time_handling: TimeHandling::Exact,
            memo: true,
            simd: default_simd(),
        }
    }
}

impl DpConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if any resolution is non-positive,
    /// the acceleration interval is empty or mis-signed, or the penalty is
    /// not positive.
    pub fn validated(self) -> Result<Self> {
        if self.ds.value() <= 0.0 || self.dv.value() <= 0.0 || self.dt_bin.value() <= 0.0 {
            return Err(Error::invalid_input("DP resolutions must be positive"));
        }
        if self.horizon.value() <= 0.0 {
            return Err(Error::invalid_input("horizon must be positive"));
        }
        if self.a_min.value() >= 0.0 || self.a_max.value() <= 0.0 {
            return Err(Error::invalid_input(
                "need a_min < 0 < a_max for a drivable profile",
            ));
        }
        if self.penalty_m <= 0.0 {
            return Err(Error::invalid_input("penalty M must be positive"));
        }
        if self.time_weight < 0.0 {
            return Err(Error::invalid_input("time weight must be non-negative"));
        }
        if self.stop_dwell.value() < 0.0 {
            return Err(Error::invalid_input("stop dwell must be non-negative"));
        }
        Ok(self)
    }
}

/// Arrival-time windows attached to a position on the road (a traffic
/// light's stop line). The DP penalizes arriving at the nearest station
/// outside every window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SignalConstraint {
    /// Stop-line position.
    pub position: Meters,
    /// Allowed arrival windows (queue-free greens for our method, whole
    /// greens for the baseline DP).
    pub windows: Vec<TimeWindow>,
}

impl SignalConstraint {
    /// Whether an arrival at `t` satisfies the constraint.
    pub fn admits(&self, t: Seconds) -> bool {
        self.windows.iter().any(|w| w.contains(t))
    }
}

/// Where (and how fast, and when) the optimization starts.
///
/// The default is the paper's setting: at the corridor origin, at rest, at
/// `t = 0`. A mid-trip state enables **closed-loop replanning**: after the
/// EV has been perturbed (a slow platoon, an unexpected queue), re-run the
/// DP from its live state against the same absolute-time windows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StartState {
    /// Current position along the corridor.
    pub position: Meters,
    /// Current speed.
    pub speed: MetersPerSecond,
    /// Current absolute time (the windows' clock).
    pub time: Seconds,
}

impl Default for StartState {
    fn default() -> Self {
        Self {
            position: Meters::ZERO,
            speed: MetersPerSecond::ZERO,
            time: Seconds::ZERO,
        }
    }
}

/// The optimizer output: a station-indexed speed/time profile plus summary
/// metrics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptimizedProfile {
    /// Station positions (first = 0, last = road length).
    pub stations: Vec<Meters>,
    /// Speed at each station.
    pub speeds: Vec<MetersPerSecond>,
    /// Arrival time at each station.
    pub times: Vec<Seconds>,
    /// Net charge drawn over the whole trip.
    pub total_energy: AmpereHours,
    /// Trip duration (arrival time at the last station).
    pub trip_time: Seconds,
    /// Number of signal stations whose arrival fell outside every window
    /// (0 = fully feasible plan).
    pub window_violations: usize,
    /// How the solver got here: state counts, phase timings, arena reuse.
    /// Excluded from equality — see the `PartialEq` impl below.
    pub metrics: SolverMetrics,
}

/// Equality is over the *plan*, not the solve: two profiles describing the
/// same trajectory compare equal even if one came from the cache and has
/// different timings in `metrics`.
impl PartialEq for OptimizedProfile {
    fn eq(&self, other: &Self) -> bool {
        self.stations == other.stations
            && self.speeds == other.speeds
            && self.times == other.times
            && self.total_energy == other.total_energy
            && self.trip_time == other.trip_time
            && self.window_violations == other.window_violations
    }
}

impl OptimizedProfile {
    /// Speed as a function of position (linear interpolation of `v²`, which
    /// is exact for constant-acceleration segments).
    ///
    /// Positions outside the road clamp to the endpoint speeds.
    pub fn speed_at_position(&self, x: Meters) -> MetersPerSecond {
        let xs = &self.stations;
        if x <= xs[0] {
            return self.speeds[0];
        }
        if x >= xs[xs.len() - 1] {
            return self.speeds[self.speeds.len() - 1];
        }
        let idx = xs.partition_point(|&s| s <= x);
        let (x0, x1) = (xs[idx - 1].value(), xs[idx].value());
        let (v0, v1) = (self.speeds[idx - 1].value(), self.speeds[idx].value());
        let f = ((x.value() - x0) / (x1 - x0)).clamp(0.0, 1.0);
        MetersPerSecond::new((v0 * v0 + f * (v1 * v1 - v0 * v0)).max(0.0).sqrt())
    }

    /// The profile as a uniform speed-vs-time series (speed is linear in
    /// time on constant-acceleration segments).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if `dt` is non-positive.
    pub fn to_time_series(&self, dt: Seconds) -> Result<TimeSeries> {
        if dt.value() <= 0.0 {
            return Err(Error::invalid_input("sample step must be positive"));
        }
        let n = (self.trip_time.value() / dt.value()).ceil() as usize;
        TimeSeries::sample_fn(Seconds::ZERO, dt, n, |t| {
            let t = t.min(self.trip_time);
            // Find the segment containing t.
            let idx = self.times.partition_point(|&u| u <= t);
            if idx == 0 {
                return self.speeds[0].value();
            }
            if idx >= self.times.len() {
                return self.speeds[self.speeds.len() - 1].value();
            }
            let (t0, t1) = (self.times[idx - 1], self.times[idx]);
            let (v0, v1) = (self.speeds[idx - 1].value(), self.speeds[idx].value());
            let span = (t1 - t0).value();
            if span <= 0.0 {
                return v1;
            }
            let f = ((t - t0).value() / span).clamp(0.0, 1.0);
            v0 + f * (v1 - v0)
        })
    }

    /// Arrival time at the station nearest to `x`.
    pub fn arrival_time_at(&self, x: Meters) -> Seconds {
        let idx = nearest_index(&self.stations, x);
        self.times[idx]
    }
}

/// Index of the station nearest to `x` by binary search (stations are
/// sorted ascending). Exact midpoints resolve to the lower station — the
/// same winner the old linear scan's strict `<` produced.
fn nearest_index(stations: &[Meters], x: Meters) -> usize {
    debug_assert!(!stations.is_empty());
    let hi = stations.partition_point(|&s| s < x);
    if hi == 0 {
        return 0;
    }
    if hi == stations.len() {
        return stations.len() - 1;
    }
    let lo = hi - 1;
    let d_lo = (x - stations[lo]).abs().value();
    let d_hi = (stations[hi] - x).abs().value();
    if d_hi < d_lo {
        hi
    } else {
        lo
    }
}

/// Certified lower bounds on a full corridor traversal, from
/// [`DpOptimizer::edge_bound`]. Both floors are admissible for any
/// departure time and signal windows: no feasible profile over the
/// corridor can consume less charge or arrive sooner. Infinite floors mean
/// no table-admissible speed chain exists at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeBound {
    /// Floor on the battery charge consumed (can be negative on net
    /// regenerative corridors).
    pub energy_floor: AmpereHours,
    /// Floor on the traversal duration, including mandatory stop dwells.
    pub duration_floor: Seconds,
}

impl EdgeBound {
    /// The floor on the solver's blended objective
    /// `charge + time_weight · duration` (window penalties are bounded
    /// below by zero and excluded).
    pub fn cost_floor(&self, time_weight: f64) -> f64 {
        self.energy_floor.value() + time_weight * self.duration_floor.value()
    }
}

/// The DP optimizer.
///
/// See the crate-level example; the full pipeline that builds the
/// [`SignalConstraint`]s lives in [`crate::pipeline`].
#[derive(Debug, Clone)]
pub struct DpOptimizer {
    energy: EnergyModel,
    config: DpConfig,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    cost: f64,
    /// Continuous arrival time carried alongside the bin to avoid drift.
    time: f64,
    prev_v: u32,
    prev_t: u32,
    /// Window violations on the path so far, plus one. The zero niche
    /// packs a layer slot, `Option<Node>`, into 32 bytes instead of 40.
    violations_1: NonZeroU32,
}

const _: () = assert!(std::mem::size_of::<Option<Node>>() == 32);

impl Node {
    fn violations(&self) -> usize {
        (self.violations_1.get() - 1) as usize
    }
}

/// Greedy-mode state: like [`Node`] without the time-bin dimension.
#[derive(Debug, Clone, Copy)]
struct GNode {
    cost: f64,
    time: f64,
    prev_v: u32,
    violations: u32,
}

/// Reusable solver scratch: the DP layers and the cross-solve
/// transition-cost and window-bound caches.
///
/// `optimize_from` allocates these afresh on every call; a caller that
/// solves repeatedly (the [`Replanner`](crate::replan::Replanner) tick
/// loop, [batch planning](crate::batch)) should hold one arena and use
/// [`DpOptimizer::optimize_from_with`] so the second and later solves
/// reuse the first solve's buffers, its memoized cost tables **and** its
/// pruning tables: an Exact solve whose corridor, windows and lattice
/// match an earlier one's on this arena skips the window-bound build,
/// whatever its start time or speed (at most
/// [`BOUNDS_MEMO_BYTES`](crate::memo::BOUNDS_MEMO_BYTES) of tables are
/// kept). The Exact layers are one dense `n_speeds × n_bins` scratch layer
/// and a compact stack of the slots each sweep wrote (see
/// [`crate::arena`]), so what an arena retains follows the states its
/// solves reached. The resulting profile and work counters are identical
/// either way; only the arena and memo counters in [`SolverMetrics`]
/// differ.
#[derive(Debug, Clone, Default)]
pub struct SolverArena {
    exact: LayerStack<Node>,
    greedy: LayerPool<Option<GNode>>,
    transitions: TransitionTable,
    bounds: BoundsMemo,
    repair: Option<RepairState>,
}

/// What an Exact sweep prunes with: the reachability mask and the rows it
/// retired, the cost-to-go floor, the window-bound tables, and the
/// aspiration rung (`None` = unbounded).
#[derive(Debug, Clone)]
struct Pruning {
    live: Vec<Vec<bool>>,
    rows_skipped: u64,
    ctg: Vec<Vec<f64>>,
    bounds: Arc<WindowBounds>,
    limit: Option<f64>,
}

/// Everything a warm-started window refresh needs to reuse the previous
/// solve ([`DpOptimizer::optimize_windows_refresh`]): the windows the
/// retained sweep was solved under, its window-free pruning and the rung
/// it was certified under, and the resulting profile. The retained layers
/// themselves are the arena's Exact stack (a repair keeps its prefix),
/// which is why any direct solve through the same arena drops this state.
#[derive(Debug, Clone)]
struct RepairState {
    /// Fingerprint of everything the retained solve depended on *except*
    /// the windows: physics, lattice, station grid, speed masks, dwell
    /// times, and the start state. A refresh with a different signature
    /// cannot reuse the layers.
    signature: u64,
    /// Per-station windows of the retained solve (`None` = no signal).
    /// The diff against a refresh's windows yields the first layer a
    /// repair must redo.
    windows: Vec<Option<Vec<TimeWindow>>>,
    /// Window-free floors (`cost_to_go` with no dead stations,
    /// `window_bounds` with no windows) and the certified rung: a repair
    /// relaxes under the same and re-verifies.
    pruning: Pruning,
    /// The retained solve's profile, returned as-is on a zero-diff
    /// refresh.
    profile: OptimizedProfile,
}

impl SolverArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct segment classes currently cached in the
    /// transition-cost table.
    pub fn cached_classes(&self) -> usize {
        self.transitions.classes()
    }

    /// Number of window-bound table sets currently kept for later solves.
    pub fn cached_bounds(&self) -> usize {
        self.bounds.len()
    }
}

/// Everything the relaxation loops need, borrowed once per solve.
struct SolveCtx<'a> {
    stations: &'a [Meters],
    /// Per-segment cost table: `tables[i - 1]` covers `stations[i-1] →
    /// stations[i]`.
    tables: &'a [&'a CostTable],
    /// The tables' exact identity: the physics-and-lattice signature plus
    /// each segment's class (same indexing as `tables`).
    table_sig: u64,
    classes: &'a [ClassKey],
    /// Per-segment snapped lengths (same indexing), used for the
    /// acceleration bands so memoized and direct solves share every float.
    layer_ds: &'a [f64],
    allowed: &'a [Vec<bool>],
    station_windows: &'a [Option<&'a SignalConstraint>],
    dwell: &'a [f64],
    n_speeds: usize,
    start_vi: usize,
    start_time: f64,
}

/// The road-and-start-dependent solve geometry built by
/// [`DpOptimizer::prepare`]: validated start indices, the station grid,
/// speed masks, per-station windows and dwell times, and each segment's
/// quantized class and grid spec. Everything here is window-signature
/// material for a refresh; the cost tables themselves are resolved
/// separately (they depend on the arena's memo cache).
struct Prepared<'a> {
    stations: Vec<Meters>,
    station_windows: Vec<Option<&'a SignalConstraint>>,
    allowed: Vec<Vec<bool>>,
    dwell: Vec<f64>,
    layer_ds: Vec<f64>,
    table_sig: u64,
    classes: Vec<ClassKey>,
    grids: Vec<GridSpec>,
    n_speeds: usize,
    start_vi: usize,
    start_time: f64,
}

impl Prepared<'_> {
    /// Borrows the geometry (plus the caller-resolved cost tables) as the
    /// relax loops' [`SolveCtx`].
    fn ctx<'t>(&'t self, tables: &'t [&'t CostTable]) -> SolveCtx<'t> {
        SolveCtx {
            stations: &self.stations,
            tables,
            table_sig: self.table_sig,
            classes: &self.classes,
            layer_ds: &self.layer_ds,
            allowed: &self.allowed,
            station_windows: &self.station_windows,
            dwell: &self.dwell,
            n_speeds: self.n_speeds,
            start_vi: self.start_vi,
            start_time: self.start_time,
        }
    }
}

/// Per-layer read-only inputs shared by every relax tile of one layer:
/// the layer's clock/penalty parameters, its live mask, and (Exact mode
/// only) the slot-uniform lower-bound tables plus the current aspiration
/// rung. Slices are indexed by target-speed index / time bin.
struct RelaxEnv<'a> {
    horizon: f64,
    dt_bin: f64,
    dwell: f64,
    penalty_m: f64,
    limit: Option<f64>,
    window: Option<&'a SignalConstraint>,
    live: &'a [bool],
    ctg: &'a [f64],
    emin: &'a [f64],
    wait: &'a [f64],
}

/// Relax counters of one sweep, merged into [`SolverMetrics`] when it
/// ends. The state counters are dispatch-invariant (candidates are counted
/// per candidate, table-infeasible pairs once per pair); the kernel-row
/// counters depend on the host and the dispatch override and stay
/// observability-only.
#[derive(Debug, Default, Clone, Copy)]
struct RelaxCounters {
    expanded: u64,
    pruned: u64,
    simd_rows: u64,
    scalar_rows: u64,
}

impl RelaxCounters {
    fn add_to(self, metrics: &mut SolverMetrics) {
        metrics.states_expanded += self.expanded;
        metrics.states_pruned += self.pruned;
        metrics.simd_rows += self.simd_rows;
        metrics.scalar_rows += self.scalar_rows;
    }
}

/// Relaxes one gathered Exact-mode source group — states of a single
/// source speed `vi`, time bins ascending — over its target band
/// `[lo, lo + charge_row.len())`, tile by tile.
///
/// The cost/arrival tiles come from [`simd::relax_tile`] (AVX2 or the
/// bit-identical portable kernel); the winner pass stays scalar and visits
/// candidates for any fixed slot `(vj, tj)` in exactly the sequential
/// order (`vi` ascending from the caller's loop, `ti` ascending within
/// and across groups), so the strict `<` keeps the same winner as the
/// pre-SIMD loop. Table-infeasible lanes (NaN duration) were counted as
/// pruned once per `(vi, vj)` pair by the caller and are skipped here
/// without counting, exactly like the old per-pair `table.get` miss.
#[allow(clippy::too_many_arguments)]
fn relax_exact_group(
    use_simd: bool,
    tw: f64,
    vi: u32,
    charge_row: &[f64],
    dur_row: &[f64],
    srcs: &[simd::TileSrc],
    metas: &[(u32, NonZeroU32)],
    lo: usize,
    n_bins: usize,
    env: &RelaxEnv<'_>,
    layer: &mut [Option<Node>],
    row_spans: &mut [Option<(u32, u32)>],
    counters: &mut RelaxCounters,
) {
    let n_lanes = charge_row.len();
    let mut out = simd::TileOut::new();
    let mut j0 = 0usize;
    while j0 < n_lanes {
        let n = simd::NR.min(n_lanes - j0);
        let went_simd = simd::relax_tile(
            use_simd,
            &charge_row[j0..j0 + n],
            &dur_row[j0..j0 + n],
            srcs,
            tw,
            env.dwell,
            n,
            &mut out,
        );
        if went_simd {
            counters.simd_rows += srcs.len() as u64;
        } else {
            counters.scalar_rows += srcs.len() as u64;
        }
        // Indexed on purpose: the `metas[..].iter().enumerate()` form
        // measurably deoptimizes this loop (~15-20% on the batch bench).
        #[allow(clippy::needless_range_loop)]
        for r in 0..srcs.len() {
            let (ti, violations_1) = metas[r];
            for j in 0..n {
                let vj = lo + j0 + j;
                if !env.live[vj] || dur_row[j0 + j].is_nan() {
                    continue;
                }
                let t1 = out.t1[r][j];
                if t1 > env.horizon {
                    counters.pruned += 1;
                    continue;
                }
                let tj = (t1 / env.dt_bin).round() as usize;
                if tj >= n_bins {
                    counters.pruned += 1;
                    continue;
                }
                let (penalty, violation) = match env.window {
                    Some(sc) if !sc.admits(Seconds::new(t1)) => (env.penalty_m, 1),
                    _ => (0.0, 0),
                };
                let cost = out.cost[r][j] + penalty;
                if let Some(limit) = env.limit {
                    // Slot-uniform completion lower bound — see
                    // `window_bounds` for why pruning on it can never
                    // change a surviving slot's winner.
                    let floor = env.ctg[vj].max(env.emin[vj] + env.wait[tj]);
                    if cost + floor > limit {
                        counters.pruned += 1;
                        continue;
                    }
                }
                counters.expanded += 1;
                let slot = &mut layer[vj * n_bins + tj];
                if slot.is_none_or(|s| cost < s.cost) {
                    *slot = Some(Node {
                        cost,
                        time: t1,
                        prev_v: vi,
                        prev_t: ti,
                        violations_1: violations_1.saturating_add(violation),
                    });
                    let span = &mut row_spans[vj];
                    *span = Some(match *span {
                        None => (tj as u32, tj as u32),
                        Some((s_lo, s_hi)) => (s_lo.min(tj as u32), s_hi.max(tj as u32)),
                    });
                }
            }
        }
        j0 += n;
    }
}

/// Mixes everything the cached cost tables depend on besides the segment
/// class itself: the energy physics and the velocity/acceleration lattice.
fn table_signature(energy: &EnergyModel, config: &DpConfig, n_speeds: usize) -> u64 {
    let mut h = energy.fingerprint();
    for bits in [
        config.dv.value().to_bits(),
        n_speeds as u64,
        config.a_min.value().to_bits(),
        config.a_max.value().to_bits(),
    ] {
        h ^= bits;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Mixes everything a retained repair stack depends on *except* the
/// arrival windows: the table signature (physics + lattice), the station
/// grid, each segment's snapped geometry, the speed masks, dwell times,
/// the start state, and the clock/penalty parameters. Two refreshes with
/// equal signatures relax identical DP graphs up to their windows, so the
/// window diff alone decides which layers a repair must redo. (Knobs that
/// provably cannot change the solved bits — `memo` and `simd` — are
/// deliberately left out.)
fn refresh_signature(config: &DpConfig, prep: &Prepared<'_>) -> u64 {
    fn mix(h: &mut u64, bits: u64) {
        *h ^= bits;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
    let mut h = prep.table_sig;
    for s in &prep.stations {
        mix(&mut h, s.value().to_bits());
    }
    for (ds, grid) in prep.layer_ds.iter().zip(&prep.grids) {
        mix(&mut h, ds.to_bits());
        mix(&mut h, grid.grade.value().to_bits());
    }
    for d in &prep.dwell {
        mix(&mut h, d.to_bits());
    }
    for row in &prep.allowed {
        for &a in row {
            mix(&mut h, a as u64 + 1);
        }
    }
    mix(&mut h, prep.start_vi as u64);
    mix(&mut h, prep.start_time.to_bits());
    mix(&mut h, config.horizon.value().to_bits());
    mix(&mut h, config.dt_bin.value().to_bits());
    mix(&mut h, config.penalty_m.to_bits());
    mix(&mut h, config.time_weight.to_bits());
    h
}

/// The cheapest Exact-mode terminal state: the best occupied `v = 0` time
/// bin of the last layer, with its bin index.
fn exact_terminal(last: StackLayer<'_, Node>) -> Option<(usize, Node)> {
    let (first, run) = last.row(0);
    let mut best: Option<(usize, Node)> = None;
    for (k, slot) in run.iter().enumerate() {
        if let Some(node) = slot {
            if best.is_none_or(|(_, b)| node.cost < b.cost) {
                best = Some((first + k, *node));
            }
        }
    }
    best
}

/// Walks the winning terminal's parent links back to the start: the
/// station-indexed speed cells and arrival times.
fn backtrack_exact(
    ctx: &SolveCtx<'_>,
    stack: &LayerStack<Node>,
    terminal_ti: usize,
    terminal: Node,
) -> Result<(Vec<usize>, Vec<f64>)> {
    let n_stations = ctx.stations.len();
    let mut speeds_idx = vec![0; n_stations];
    let mut times = vec![0.0; n_stations];
    let mut vi = 0usize;
    let mut ti = terminal_ti;
    times[n_stations - 1] = terminal.time;
    for i in (1..n_stations).rev() {
        let node = stack.layer(i).get(vi, ti).ok_or_else(|| {
            Error::infeasible("backtrack lost its parent state (inconsistent DP layers)")
        })?;
        times[i] = node.time;
        speeds_idx[i] = vi;
        vi = node.prev_v as usize;
        ti = node.prev_t as usize;
    }
    speeds_idx[0] = ctx.start_vi;
    times[0] = ctx.start_time;
    Ok((speeds_idx, times))
}

/// Forward/backward reachability over `(station, speed)` rows: a row is
/// *live* iff some acceleration-feasible chain connects the start state to
/// it **and** it to the terminal rest state. Returns the live mask and the
/// number of `allowed` rows the masks retired.
///
/// Skipping non-live rows is exact: a state can only exist in a
/// forward-reachable row, and a candidate into a live target from a
/// backward-dead source is impossible (a feasible transition into a
/// backward-live row makes the source backward-live by definition), so the
/// live rows' layer contents are bit-identical to an unmasked sweep.
fn reachability(ctx: &SolveCtx<'_>) -> (Vec<Vec<bool>>, u64) {
    let n_stations = ctx.stations.len();
    let n = ctx.n_speeds;
    let mut fwd = vec![vec![false; n]; n_stations];
    fwd[0][ctx.start_vi] = true;
    for i in 1..n_stations {
        let table = ctx.tables[i - 1];
        for u in 0..n {
            if !ctx.allowed[i][u] {
                continue;
            }
            fwd[i][u] = (0..n).any(|v| fwd[i - 1][v] && table.get(v, u).is_some());
        }
    }
    let mut bwd = vec![vec![false; n]; n_stations];
    bwd[n_stations - 1][0] = true;
    for i in (0..n_stations - 1).rev() {
        let table = ctx.tables[i];
        for v in 0..n {
            let gate = if i == 0 {
                v == ctx.start_vi
            } else {
                ctx.allowed[i][v]
            };
            if !gate {
                continue;
            }
            bwd[i][v] = (0..n).any(|u| bwd[i + 1][u] && table.get(v, u).is_some());
        }
    }
    let mut live = vec![vec![false; n]; n_stations];
    let mut skipped = 0u64;
    for i in 0..n_stations {
        for v in 0..n {
            live[i][v] = fwd[i][v] && bwd[i][v];
            if i > 0 && ctx.allowed[i][v] && !live[i][v] {
                skipped += 1;
            }
        }
    }
    (live, skipped)
}

/// Energy-only cost-to-go over the transition tables, `emin[i][v]`: the
/// least charge of any chain of table-admitted transitions from station
/// `i` at speed `v` to rest at the last station.
fn energy_to_go(tables: &[&CostTable], n_speeds: usize) -> Vec<Vec<f64>> {
    let n_stations = tables.len() + 1;
    let mut emin = vec![vec![f64::INFINITY; n_speeds]; n_stations];
    emin[n_stations - 1][0] = 0.0;
    for (i, table) in tables.iter().enumerate().rev() {
        let (rest, done) = emin.split_at_mut(i + 1);
        let next = &done[0];
        for (vi, slot) in rest[i].iter_mut().enumerate() {
            let mut best = f64::INFINITY;
            for (vj, &e) in next.iter().enumerate() {
                if !e.is_finite() {
                    continue;
                }
                if let Some((charge, _)) = table.get(vi, vj) {
                    best = best.min(charge + e);
                }
            }
            *slot = best;
        }
    }
    emin
}

/// The shortest and longest duration over every transition `table`
/// admits — a superset of the acceleration-feasible ones, so time bounds
/// built from it hold for every real path.
fn duration_envelope(table: &CostTable) -> (f64, f64) {
    let n = table.n_speeds();
    let mut dmin = f64::INFINITY;
    let mut dmax = f64::NEG_INFINITY;
    for v in 0..n {
        for u in 0..n {
            if let Some((_, dur)) = table.get(v, u) {
                dmin = dmin.min(dur);
                dmax = dmax.max(dur);
            }
        }
    }
    (dmin, dmax)
}

/// Safety slack on the arrival-time cone: a window is only declared
/// unreachable if it closes at least this far before the earliest possible
/// arrival, so float-association differences between the cone sweep and
/// the DP's own time accumulation can never mislabel a reachable window.
const CONE_SLACK: f64 = 1e-6;

impl DpOptimizer {
    /// Creates an optimizer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if the configuration is invalid.
    pub fn new(energy: EnergyModel, config: DpConfig) -> Result<Self> {
        Ok(Self {
            energy,
            config: config.validated()?,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &DpConfig {
        &self.config
    }

    /// Runs the optimization over `road` with the given per-signal arrival
    /// windows, from the corridor origin at rest at `t = 0`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Infeasible`] if no profile satisfies the hard
    /// kinematic constraints (window violations are soft: they surface as
    /// `window_violations > 0`, not an error).
    pub fn optimize(&self, road: &Road, signals: &[SignalConstraint]) -> Result<OptimizedProfile> {
        self.optimize_from(road, signals, StartState::default())
    }

    /// Runs the optimization from an arbitrary mid-trip state (closed-loop
    /// replanning). Window times stay on the absolute clock `start.time`
    /// lives on.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if the start state lies outside the
    /// corridor or the planning horizon, and [`Error::Infeasible`] if no
    /// profile satisfies the hard kinematic constraints from that state.
    pub fn optimize_from(
        &self,
        road: &Road,
        signals: &[SignalConstraint],
        start: StartState,
    ) -> Result<OptimizedProfile> {
        let mut arena = SolverArena::new();
        self.optimize_from_with(road, signals, start, &mut arena)
    }

    /// [`optimize_from`](Self::optimize_from) with caller-owned scratch
    /// storage, for hot loops that solve repeatedly: layer buffers **and
    /// memoized transition-cost tables** are recycled across calls instead
    /// of reallocated/recomputed. The profile is identical to the
    /// arena-less call; only the arena and memo counters in its
    /// [`metrics`](OptimizedProfile::metrics) differ.
    ///
    /// # Errors
    ///
    /// Same contract as [`optimize_from`](Self::optimize_from).
    pub fn optimize_from_with(
        &self,
        road: &Road,
        signals: &[SignalConstraint],
        start: StartState,
        arena: &mut SolverArena,
    ) -> Result<OptimizedProfile> {
        self.solve(road, signals, start, arena, false)
    }

    /// Validates the start state and builds the road-and-start-dependent
    /// solve geometry shared by [`optimize_from_with`](Self::optimize_from_with)
    /// and [`optimize_windows_refresh`](Self::optimize_windows_refresh).
    fn prepare<'a>(
        &self,
        road: &Road,
        signals: &'a [SignalConstraint],
        start: StartState,
    ) -> Result<Prepared<'a>> {
        if !road.contains(start.position) || start.position >= road.length() {
            return Err(Error::invalid_input(
                "start position must lie strictly inside the corridor",
            ));
        }
        if !(start.speed.value() >= 0.0 && start.speed.value().is_finite()) {
            return Err(Error::invalid_input(
                "start speed must be finite and non-negative",
            ));
        }
        if !(start.time.value() >= 0.0 && start.time < self.config.horizon) {
            return Err(Error::invalid_input(
                "start time must be within [0, horizon)",
            ));
        }
        let grid = build_stations_from(road, start.position, self.config.ds);
        let v_max_global = road.max_speed_limit();
        let n_speeds = (v_max_global.value() / self.config.dv.value()).floor() as usize + 1;
        let start_vi =
            ((start.speed.value() / self.config.dv.value()).round() as usize).min(n_speeds - 1);

        // Mandatory stop stations: stop signs still ahead, the destination,
        // and — only when departing from rest at the origin — the source.
        let mut must_stop = vec![false; grid.len()];
        for stop in road.mandatory_stops() {
            if stop > start.position {
                must_stop[nearest_index(&grid, stop)] = true;
            }
        }
        if start.position == Meters::ZERO && start_vi == 0 {
            must_stop[0] = true;
        }

        // Signal windows snapped to stations (only lights still ahead).
        let mut station_windows: Vec<Option<&SignalConstraint>> = vec![None; grid.len()];
        for sc in signals {
            if sc.position > start.position {
                station_windows[nearest_index(&grid, sc.position)] = Some(sc);
            }
        }
        let (stations, must_stop, station_windows) =
            split_rest_pairs(grid, must_stop, station_windows, start_vi == 0);
        let n_stations = stations.len();

        // Minimum-speed lower bound (Eq. 7a). Near a mandatory stop the hard
        // bound `v >= v_min(s)` is physically impossible (the EV must launch
        // from and brake to rest), so the bound tapers with the distance δ
        // to the nearest stop as `min(v_min, sqrt(2·a_floor·δ))`: the EV must
        // make at least gentle (0.5 m/s²) average progress away from stops.
        // Without this taper-floor the energy objective degenerates into
        // crawling (slower is always cheaper when time is unpriced).
        const LAUNCH_FLOOR: f64 = 0.5;
        let mut stop_positions: Vec<f64> = (0..n_stations)
            .filter(|&i| must_stop[i])
            .map(|i| stations[i].value())
            .collect();
        // The start is a taper anchor too: a replanning call may begin at
        // any speed, and the profile must be allowed to recover from it.
        stop_positions.push(start.position.value());

        let allowed: Vec<Vec<bool>> = (0..n_stations)
            .map(|i| {
                let x = stations[i];
                let (lim_min, lim_max) = road.speed_limits_at(x);
                let delta = stop_positions
                    .iter()
                    .map(|&p| (p - x.value()).abs())
                    .fold(f64::INFINITY, f64::min);
                let floor = lim_min.value().min((2.0 * LAUNCH_FLOOR * delta).sqrt());
                (0..n_speeds)
                    .map(|vi| {
                        let v = self.config.dv.value() * vi as f64;
                        if must_stop[i] {
                            return vi == 0;
                        }
                        if v > lim_max.value() + 1e-9 {
                            return false;
                        }
                        // One grid cell of tolerance below the taper floor so
                        // a coarse grid cannot render the corridor infeasible.
                        if v + self.config.dv.value() + 1e-9 < floor {
                            return false;
                        }
                        true
                    })
                    .collect()
            })
            .collect();

        // Interior mandatory stops (stop signs) cost service time; the
        // source and destination do not.
        let dwell: Vec<f64> = (0..n_stations)
            .map(|i| {
                if must_stop[i] && i != 0 && i != n_stations - 1 {
                    self.config.stop_dwell.value()
                } else {
                    0.0
                }
            })
            .collect();

        // Quantize each segment to its transition class. The table itself
        // is resolved later, against the arena's memo cache, by
        // `resolve_tables`.
        let mut layer_ds = Vec::with_capacity(n_stations - 1);
        let mut classes = Vec::with_capacity(n_stations - 1);
        let mut grids = Vec::with_capacity(n_stations - 1);
        for i in 1..n_stations {
            let ds = stations[i] - stations[i - 1];
            let grade = road.grade_at(stations[i - 1] + ds * 0.5);
            let (key, length, grade) = ClassKey::quantize(ds, grade);
            layer_ds.push(length.value());
            classes.push(key);
            grids.push(GridSpec {
                dv: self.config.dv,
                n_speeds,
                distance: length,
                grade,
                a_min: self.config.a_min,
                a_max: self.config.a_max,
            });
        }
        Ok(Prepared {
            stations,
            station_windows,
            allowed,
            dwell,
            layer_ds,
            table_sig: table_signature(&self.energy, &self.config, n_speeds),
            classes,
            grids,
            n_speeds,
            start_vi,
            start_time: start.time.value(),
        })
    }

    /// Resolves every segment's V×V transition-cost table against the
    /// arena memo cache (or builds them into `owned` when memoization is
    /// off) and seeds the solve metrics with the setup accounting.
    fn resolve_tables<'t>(
        &self,
        prep: &Prepared<'_>,
        transitions: &'t mut TransitionTable,
        owned: &'t mut Vec<CostTable>,
        setup_started: Instant,
    ) -> (Vec<&'t CostTable>, SolverMetrics) {
        transitions.reconcile(prep.table_sig);
        let mut stats = MemoStats::default();
        let tables = if self.config.memo {
            let ids: Vec<usize> = prep
                .classes
                .iter()
                .zip(&prep.grids)
                .map(|(key, spec)| transitions.class_for(*key, &self.energy, spec, &mut stats))
                .collect();
            let transitions: &'t TransitionTable = transitions;
            ids.iter().map(|&id| transitions.table(id)).collect()
        } else {
            *owned = prep
                .grids
                .iter()
                .map(|spec| {
                    let (table, evals) = CostTable::build(&self.energy, spec);
                    stats.misses += 1;
                    stats.energy_evals += evals;
                    table
                })
                .collect();
            let owned: &'t Vec<CostTable> = owned;
            owned.iter().collect()
        };
        let metrics = SolverMetrics {
            setup_seconds: setup_started.elapsed().as_secs_f64(),
            memo_hits: stats.hits,
            memo_misses: stats.misses,
            energy_evals: stats.energy_evals,
            ..SolverMetrics::default()
        };
        (tables, metrics)
    }

    /// A window-only re-solve through the arena's retained repair state:
    /// behaviorally identical to
    /// [`optimize_from_with`](Self::optimize_from_with) — bit-identical
    /// profile, same error contract — but when only the arrival windows
    /// changed since the previous refresh through the same arena, the
    /// solver keeps the previous layer stack and re-relaxes only the
    /// layers from the first station whose windows differ
    /// ([`SolverMetrics::repair_hits`] /
    /// [`SolverMetrics::repair_layers_skipped`]). Any other change —
    /// road, start state, physics, lattice — or a failed revalidation
    /// falls back to a full retention solve
    /// ([`SolverMetrics::repair_full_resolves`]), which re-arms the
    /// repair state for the next refresh. Greedy time handling has no
    /// layer stack worth retaining and solves as `optimize_from_with`
    /// does.
    ///
    /// # Errors
    ///
    /// Same contract as [`optimize_from`](Self::optimize_from).
    pub fn optimize_windows_refresh(
        &self,
        road: &Road,
        signals: &[SignalConstraint],
        start: StartState,
        arena: &mut SolverArena,
    ) -> Result<OptimizedProfile> {
        self.solve(road, signals, start, arena, true)
    }

    /// Certified lower bounds on any full traversal of `road` from the
    /// origin at rest: a floor on the battery charge and a floor on the
    /// travel duration (including mandatory stop dwells), without running
    /// the full time-expanded DP.
    ///
    /// The energy floor is the solver's `emin` cost-to-go evaluated at the
    /// start state — the minimum charge over every chain of
    /// table-admissible transitions, a superset of the
    /// acceleration-feasible paths, so no real profile can consume less.
    /// The duration floor sums each segment's minimum table duration plus
    /// the interior stop dwells; window penalties are bounded below by
    /// zero. Both floors therefore stay admissible for *any* departure
    /// time and any signal windows, which is what lets the router prune
    /// with them before committing to a full solve (see
    /// [`crate::route`]).
    ///
    /// Cost: one V×V table per distinct segment class — resolved from the
    /// arena's transition memo, so bounding many edges that share corridor
    /// classes builds each table once — plus two `O(stations · V²)`
    /// sweeps. No layer buffers are touched; the arena's retained repair
    /// state survives.
    ///
    /// An edge with no table-admissible chain (e.g. a corridor whose
    /// limits make every transition infeasible) reports infinite floors
    /// rather than an error.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if the corridor itself is
    /// degenerate (same validation as [`optimize`](Self::optimize)).
    pub fn edge_bound_with(&self, road: &Road, arena: &mut SolverArena) -> Result<EdgeBound> {
        let setup_started = Instant::now();
        let prep = self.prepare(road, &[], StartState::default())?;
        let mut owned = Vec::new();
        let (tables, _) =
            self.resolve_tables(&prep, &mut arena.transitions, &mut owned, setup_started);
        // Energy-only cost-to-go, the sweep `window_bounds` runs — the
        // profile must terminate at rest (`v = 0`).
        let energy_floor = energy_to_go(&tables, prep.n_speeds)[0][prep.start_vi];

        // Minimum traversal duration: per-segment duration envelope over
        // every admitted transition, plus interior stop dwells.
        let mut duration_floor: f64 = prep.dwell.iter().sum();
        for table in &tables {
            duration_floor += duration_envelope(table).0;
        }
        Ok(EdgeBound {
            energy_floor: AmpereHours::new(energy_floor),
            duration_floor: Seconds::new(duration_floor),
        })
    }

    /// [`edge_bound_with`](Self::edge_bound_with) with a throwaway arena.
    ///
    /// # Errors
    ///
    /// Same contract as [`edge_bound_with`](Self::edge_bound_with).
    pub fn edge_bound(&self, road: &Road) -> Result<EdgeBound> {
        let mut arena = SolverArena::new();
        self.edge_bound_with(road, &mut arena)
    }

    /// The one solve behind [`optimize_from_with`](Self::optimize_from_with)
    /// and [`optimize_windows_refresh`](Self::optimize_windows_refresh)
    /// (`refresh`): Greedy, or one Exact ladder. A refresh first tries the
    /// retained sweep ([`reuse`](Self::reuse): zero-diff, then suffix
    /// repair) and retains the full ladder it falls back to; a direct solve
    /// runs the full ladder alone and drops any retained state, since it
    /// rewrites the stack.
    fn solve(
        &self,
        road: &Road,
        signals: &[SignalConstraint],
        start: StartState,
        arena: &mut SolverArena,
        refresh: bool,
    ) -> Result<OptimizedProfile> {
        let _solve_span = telemetry::span("dp.optimize_seconds");
        let setup_started = Instant::now();
        let prep = self.prepare(road, signals, start)?;
        let mut owned = Vec::new();
        let (tables, mut metrics) =
            self.resolve_tables(&prep, &mut arena.transitions, &mut owned, setup_started);
        let ctx = prep.ctx(&tables);
        let result = 'solve: {
            if self.config.time_handling == TimeHandling::Greedy {
                arena.repair = None;
                break 'solve self.solve_greedy(&ctx, &mut arena.greedy, &mut metrics);
            }
            let mut retain = None;
            if refresh {
                let signature = refresh_signature(&self.config, &prep);
                let windows: Vec<Option<Vec<TimeWindow>>> = ctx
                    .station_windows
                    .iter()
                    .map(|o| o.map(|sc| sc.windows.clone()))
                    .collect();
                let retained = arena.repair.as_mut().filter(|state| {
                    state.signature == signature && state.windows.len() == windows.len()
                });
                if let Some(profile) = retained.and_then(|state| {
                    self.reuse(&ctx, &mut arena.exact, state, &windows, &mut metrics)
                }) {
                    break 'solve Ok(profile);
                }
                metrics.repair_full_resolves += 1;
                retain = Some((signature, windows));
            }
            // The ladder rewrites the stack: no snapshot survives it, even
            // when it fails.
            arena.repair = None;
            let solved = self.ladder(
                &ctx,
                &mut arena.exact,
                &mut arena.greedy,
                &mut arena.bounds,
                refresh,
                &mut metrics,
            );
            solved.map(|(profile, pruning)| {
                if let Some((signature, windows)) = retain {
                    arena.repair = Some(RepairState {
                        signature,
                        windows,
                        pruning,
                        profile: profile.clone(),
                    });
                }
                profile
            })
        };
        match &result {
            Ok(profile) => profile.metrics.publish(),
            Err(_) => telemetry::add("dp.failed_solves", 1),
        }
        result
    }

    /// Rungs 1 and 2 of a refresh, through the retained sweep `state`: its
    /// profile as-is when no window moved, else a suffix repair that keeps
    /// the stack's layers before the first station whose windows differ
    /// and re-relaxes the rest under the retained floors and limit. The
    /// kept layers are what a from-scratch sweep under the new windows
    /// computes — they depend only on windows at earlier stations and on
    /// the window-independent floors — so a repair that certifies is
    /// bit-identical to a from-scratch solve. `None` when it does not
    /// certify; the caller then runs the full ladder.
    fn reuse(
        &self,
        ctx: &SolveCtx<'_>,
        stack: &mut LayerStack<Node>,
        state: &mut RepairState,
        windows: &[Option<Vec<TimeWindow>>],
        metrics: &mut SolverMetrics,
    ) -> Option<OptimizedProfile> {
        let n_stations = ctx.stations.len();
        metrics.rows_skipped = state.pruning.rows_skipped;
        let (profile, skipped) = match (0..n_stations).find(|&i| state.windows[i] != windows[i]) {
            // Nothing moved: the retained profile was certified
            // bit-identical to a from-scratch solve under these windows.
            None => (state.profile.clone(), n_stations - 1),
            // Station 0 sits behind the start and never carries a window,
            // so a changed station is ≥ 1 in practice, which is also what
            // keeping the seed layer needs.
            Some(d) if d >= 1 => {
                let started = Instant::now();
                let repaired = self.step(ctx, stack, d, &state.pruning, metrics, started);
                let profile = repaired.ok().flatten()?;
                state.windows = windows.to_vec();
                state.profile = profile.clone();
                (profile, d - 1)
            }
            Some(_) => return None,
        };
        metrics.repair_hits += 1;
        metrics.repair_layers_skipped += skipped as u64;
        Some(OptimizedProfile {
            metrics: *metrics,
            ..profile
        })
    }
}

impl DpOptimizer {
    /// Stations whose every arrival window is provably unreachable. Two
    /// sweeps of the duration tables over live rows bound every arrival,
    /// with the DP clock's association `(t + dur) + dwell`: a min-plus
    /// sweep gives the earliest and a max-plus sweep the latest. A window
    /// is unreachable when it closes before the earliest arrival, opens
    /// after the latest, or opens beyond the horizon. Every surviving path
    /// pays `M` at a station whose windows are all unreachable, so the
    /// cost-to-go bound may charge it unconditionally.
    fn cone_dead(&self, ctx: &SolveCtx<'_>, live: &[Vec<bool>]) -> Vec<bool> {
        let n_stations = ctx.stations.len();
        let n = ctx.n_speeds;
        let horizon = self.config.horizon.value();
        let mut dead = vec![false; n_stations];
        // Per speed row, the earliest and latest arrival; `None` where no
        // live path arrives.
        let mut prev: Vec<Option<(f64, f64)>> = vec![None; n];
        prev[ctx.start_vi] = Some((ctx.start_time, ctx.start_time));
        let mut next = vec![None; n];
        for i in 1..n_stations {
            let table = ctx.tables[i - 1];
            let (mut earliest, mut latest) = (f64::INFINITY, f64::NEG_INFINITY);
            for (u, slot) in next.iter_mut().enumerate() {
                *slot = None;
                if !live[i][u] {
                    continue;
                }
                for (v, from) in prev.iter().enumerate() {
                    if !live[i - 1][v] && i > 1 {
                        continue;
                    }
                    let (Some((lo, hi)), Some((_, dur))) = (*from, table.get(v, u)) else {
                        continue;
                    };
                    // Same association as the DP's arrival clock.
                    let (lo, hi) = ((lo + dur) + ctx.dwell[i], (hi + dur) + ctx.dwell[i]);
                    *slot =
                        Some(slot.map_or((lo, hi), |(a, b): (f64, f64)| (a.min(lo), b.max(hi))));
                }
                if let Some((lo, hi)) = *slot {
                    earliest = earliest.min(lo);
                    latest = latest.max(hi);
                }
            }
            if let Some(sc) = ctx.station_windows[i] {
                dead[i] = sc.windows.iter().all(|w| {
                    w.end.value() <= earliest - CONE_SLACK
                        || w.start.value() >= latest + CONE_SLACK
                        || w.start.value() > horizon
                });
            }
            std::mem::swap(&mut prev, &mut next);
        }
        dead
    }

    /// Slot-uniform lower bounds on the cost a state still has to pay.
    ///
    /// `emin[i][v]` is the energy-only cost-to-go through the transition
    /// tables (terminating at `v = 0`), and `wait[i][b]` lower-bounds the
    /// time-weighted remaining travel time *plus the window penalties at
    /// stations past `i`* for any state whose arrival time falls in time
    /// bin `b`. The bounded relax prunes a candidate when
    /// `cost + max(B, emin + wait)` exceeds the current upper bound; the
    /// `wait` term is what prices future window-induced slowdowns (and
    /// outright unreachable windows) that the joint cost-to-go `B` cannot
    /// see.
    ///
    /// Every input to `wait` is quantized to whole time bins with a
    /// conservative one-bin widening, so the combined bound is a pure
    /// function of a candidate's DP slot `(station, speed, time bin)`:
    /// all candidates competing for one slot carry the same bound. If any
    /// of them survives the prune, the cheapest one does too — so pruning
    /// can never change a surviving slot's winner, which is what keeps
    /// bounded sweeps bit-identical to the unbounded sweep (see the
    /// module docs).
    ///
    /// Nothing here depends on the start state, so the tables go through
    /// the arena's bound memo: a solve whose every input word — table
    /// signature and segment classes, dwell times, each station's window
    /// bits, `n_stations`, `n_speeds`, `n_bins`, `dt_bin`, `time_weight`
    /// and `penalty_m` — equals an earlier solve's gets that solve's
    /// tables back, the very bits a fresh build would produce. With
    /// `DpConfig::memo` off every call builds.
    fn window_bounds(
        &self,
        ctx: &SolveCtx<'_>,
        n_bins: usize,
        memo: &mut BoundsMemo,
    ) -> Arc<WindowBounds> {
        let build = || {
            telemetry::add("dp.bounds.misses", 1);
            Arc::new(self.build_window_bounds(ctx, n_bins))
        };
        if !self.config.memo {
            return build();
        }
        let mut words = vec![
            ctx.table_sig,
            ctx.stations.len() as u64,
            ctx.n_speeds as u64,
            n_bins as u64,
            self.config.dt_bin.value().to_bits(),
            self.config.time_weight.to_bits(),
            self.config.penalty_m.to_bits(),
        ];
        words.extend(ctx.classes.iter().flat_map(ClassKey::words));
        words.extend(ctx.dwell.iter().map(|d| d.to_bits()));
        for (i, sc) in ctx.station_windows.iter().enumerate() {
            if let Some(sc) = sc {
                words.extend([i as u64, sc.windows.len() as u64]);
                for w in &sc.windows {
                    words.extend([w.start.value().to_bits(), w.end.value().to_bits()]);
                }
            }
        }
        let key = BoundsKey::new(words);
        if let Some(hit) = memo.get(&key) {
            telemetry::add("dp.bounds.hits", 1);
            return hit;
        }
        let tables = build();
        memo.insert(key, Arc::clone(&tables));
        tables
    }

    /// Builds the [`window_bounds`](Self::window_bounds) tables.
    fn build_window_bounds(&self, ctx: &SolveCtx<'_>, n_bins: usize) -> WindowBounds {
        let n_stations = ctx.stations.len();
        let n_speeds = ctx.n_speeds;
        let dt = self.config.dt_bin.value();
        let tw = self.config.time_weight;
        let use_simd = simd::dispatch(self.config.simd);
        let emin = energy_to_go(ctx.tables, n_speeds);

        // Backward sweep over (station, arrival-time bin). A bin's value
        // is the cheapest `tw·duration + penalty` chain over successor
        // bins, where the duration is bounded below by both the segment
        // envelope and the bin gap (less one bin of quantization slack),
        // and a successor bin pays `penalty_m` only when *no* time inside
        // it is admitted by the station's windows. The successor range is
        // widened by one bin on each side so it covers every arrival the
        // exact-time relax can produce from this bin.
        let mut wait = vec![vec![0.0f64; n_bins]; n_stations];
        for i in (0..n_stations - 1).rev() {
            let (dmin, dmax) = duration_envelope(ctx.tables[i]);
            let dw = ctx.dwell[i + 1];
            let pen: Vec<f64> = (0..n_bins)
                .map(|b| match ctx.station_windows[i + 1] {
                    Some(sc) => {
                        let lo = b as f64 * dt - 0.5 * dt - CONE_SLACK;
                        let hi = b as f64 * dt + 0.5 * dt + CONE_SLACK;
                        let admitted = sc
                            .windows
                            .iter()
                            .any(|w| w.start.value() <= hi && w.end.value() >= lo);
                        if admitted {
                            0.0
                        } else {
                            self.config.penalty_m
                        }
                    }
                    None => 0.0,
                })
                .collect();
            let (rest, done) = wait.split_at_mut(i + 1);
            let next = &done[0];
            let here = &mut rest[i];
            for (b, slot) in here.iter_mut().enumerate() {
                let t = b as f64 * dt;
                let lo = (((t + dmin + dw) / dt) - 1.0).floor().max(0.0) as usize;
                let hi = ((((t + dmax + dw) / dt) + 1.0).ceil()).min((n_bins - 1) as f64) as usize;
                let hi = hi.min(n_bins - 1);
                *slot = if lo > hi {
                    f64::INFINITY
                } else {
                    // This stencil fold is the hot loop of the bound
                    // precompute; the AVX2 flavor is bit-identical (see
                    // `simd::wait_stencil_min`).
                    simd::wait_stencil_min(
                        use_simd, next, &pen, lo, hi, b, dt, dw, CONE_SLACK, tw, dmin,
                    )
                };
            }
        }
        WindowBounds { emin, wait }
    }

    /// Admissible cost-to-go `B(i, v)`: a backward Bellman sweep over live
    /// rows of `charge + time_weight·duration` per step, plus `M` for
    /// steps into cone-dead signal stations. `B` never exceeds any real
    /// suffix cost (penalties at non-dead stations are bounded below by
    /// zero), so `prefix + B > upper bound` certifies a candidate cannot
    /// start the winning suffix.
    fn cost_to_go(&self, ctx: &SolveCtx<'_>, live: &[Vec<bool>], dead: &[bool]) -> Vec<Vec<f64>> {
        let n_stations = ctx.stations.len();
        let n = ctx.n_speeds;
        let tw = self.config.time_weight;
        let mut b = vec![vec![f64::INFINITY; n]; n_stations];
        b[n_stations - 1][0] = 0.0;
        for i in (0..n_stations - 1).rev() {
            let table = ctx.tables[i];
            let step_pen = if dead[i + 1] {
                self.config.penalty_m
            } else {
                0.0
            };
            let (rest, done) = b.split_at_mut(i + 1);
            let b_next = &done[0];
            let b_here = &mut rest[i];
            for (v, slot) in b_here.iter_mut().enumerate() {
                if !live[i][v] {
                    continue;
                }
                let mut best = f64::INFINITY;
                for (u, &b_u) in b_next.iter().enumerate() {
                    if !live[i + 1][u] || b_u.is_infinite() {
                        continue;
                    }
                    if let Some((charge, dur)) = table.get(v, u) {
                        best = best.min(charge + tw * dur + step_pen + b_u);
                    }
                }
                *slot = best;
            }
        }
        b
    }

    /// Relaxes every greedy layer in place (seeding layer 0 itself) and
    /// returns the relax counters. Shared by Greedy-mode solves and the
    /// Exact solver's upper-bound presolve. The cost/time accumulation
    /// uses the exact float expressions of the Exact relax, so a greedy
    /// terminal cost is a *bit-exact* achievable-path cost.
    ///
    /// The inner loop runs source-speed-outer over SoA cost rows so each
    /// source state is relaxed over `NR`-lane target tiles
    /// ([`simd::relax_tile`]); for a fixed slot `vj` candidates still
    /// arrive in source-speed-ascending order exactly as in the historical
    /// sequential loop (same winners under the strict `<`).
    fn relax_greedy(&self, ctx: &SolveCtx<'_>, layers: &mut [Vec<Option<GNode>>]) -> RelaxCounters {
        let n_stations = ctx.stations.len();
        let n_speeds = ctx.n_speeds;
        let horizon = self.config.horizon.value();
        let tw = self.config.time_weight;
        let use_simd = simd::dispatch(self.config.simd);
        layers[0][ctx.start_vi] = Some(GNode {
            cost: 0.0,
            time: ctx.start_time,
            prev_v: ctx.start_vi as u32,
            violations: 0,
        });
        let mut c = RelaxCounters::default();
        let mut out = simd::TileOut::new();
        for i in 1..n_stations {
            let table = ctx.tables[i - 1];
            let (done, rest) = layers.split_at_mut(i);
            let prev_layer: &[Option<GNode>] = &done[i - 1];
            let layer: &mut [Option<GNode>] = &mut rest[0];
            for (vi, prev) in prev_layer.iter().enumerate() {
                if i > 1 && !ctx.allowed[i - 1][vi] {
                    continue;
                }
                let Some(node) = *prev else {
                    continue;
                };
                let charge_row = table.charges(vi);
                let dur_row = table.durations(vi);
                let srcs = [simd::TileSrc {
                    cost: node.cost,
                    time: node.time,
                }];
                let mut j0 = 0usize;
                while j0 < n_speeds {
                    let n = simd::NR.min(n_speeds - j0);
                    let went_simd = simd::relax_tile(
                        use_simd,
                        &charge_row[j0..j0 + n],
                        &dur_row[j0..j0 + n],
                        &srcs,
                        tw,
                        ctx.dwell[i],
                        n,
                        &mut out,
                    );
                    if went_simd {
                        c.simd_rows += 1;
                    } else {
                        c.scalar_rows += 1;
                    }
                    for j in 0..n {
                        let vj = j0 + j;
                        if !ctx.allowed[i][vj] {
                            continue;
                        }
                        if dur_row[vj].is_nan() {
                            // Table-infeasible pair, like the old
                            // per-pair `table.get` miss.
                            c.pruned += 1;
                            continue;
                        }
                        let t1 = out.t1[0][j];
                        if t1 > horizon {
                            c.pruned += 1;
                            continue;
                        }
                        let (penalty, violation) = match ctx.station_windows[i] {
                            Some(sc) if !sc.admits(Seconds::new(t1)) => (self.config.penalty_m, 1),
                            _ => (0.0, 0),
                        };
                        let cand = GNode {
                            cost: out.cost[0][j] + penalty,
                            time: t1,
                            prev_v: vi as u32,
                            violations: node.violations + violation,
                        };
                        c.expanded += 1;
                        let slot = &mut layer[vj];
                        if slot.is_none_or(|s| cand.cost < s.cost) {
                            *slot = Some(cand);
                        }
                    }
                    j0 += n;
                }
            }
        }
        c
    }

    /// Time bins of the Exact lattice: `[0, horizon]` in steps of `dt_bin`.
    fn n_bins(&self) -> usize {
        (self.config.horizon.value() / self.config.dt_bin.value()).ceil() as usize + 1
    }

    /// Rung 3, the full ladder: reachability and the pruning floors, then
    /// one step per aspiration rung, tightest first, each on a freshly
    /// seeded stack. A refresh prunes with window-free floors, which a
    /// later window shift cannot invalidate; a direct solve with the
    /// cone-dead floors. Returns the profile with the pruning it was
    /// certified under.
    fn ladder(
        &self,
        ctx: &SolveCtx<'_>,
        stack: &mut LayerStack<Node>,
        greedy_pool: &mut LayerPool<Option<GNode>>,
        bounds_memo: &mut BoundsMemo,
        refresh: bool,
        metrics: &mut SolverMetrics,
    ) -> Result<(OptimizedProfile, Pruning)> {
        let relax_started = Instant::now();
        let n_stations = ctx.stations.len();
        let n_bins = self.n_bins();

        // Reachability masks (exact — see `reachability`). If the start row
        // cannot reach the terminal at all, no sweep can succeed.
        let (live, rows_skipped) = reachability(ctx);
        metrics.rows_skipped = rows_skipped;
        if !live[0][ctx.start_vi] {
            return Err(Error::infeasible("no kinematically feasible profile"));
        }
        let (ctg, bounds, slacks): (_, _, &[f64]) = if refresh {
            let ctg = self.cost_to_go(ctx, &live, &vec![false; n_stations]);
            let none_windows = vec![None; n_stations];
            let ctx_free = SolveCtx {
                station_windows: &none_windows,
                ..*ctx
            };
            let bounds = self.window_bounds(&ctx_free, n_bins, bounds_memo);
            // Window-free floors undercut window-forced waiting, so the
            // tight 6/24 s rungs would rarely certify; start looser.
            (ctg, bounds, &[96.0, 384.0])
        } else {
            let dead = self.cone_dead(ctx, &live);
            let ctg = self.cost_to_go(ctx, &live, &dead);
            let bounds = self.window_bounds(ctx, n_bins, bounds_memo);
            (ctg, bounds, &[6.0, 24.0, 96.0, 384.0])
        };
        let b0 = ctg[0][ctx.start_vi];
        let mut pruning = Pruning {
            live,
            rows_skipped,
            ctg,
            bounds,
            limit: None,
        };
        for limit in self.rungs(ctx, greedy_pool, b0, slacks, metrics) {
            pruning.limit = limit;
            if let Some(profile) = self.step(ctx, stack, 0, &pruning, metrics, relax_started)? {
                return Ok((profile, pruning));
            }
        }
        // The last rung is unbounded: it fails only for want of a terminal.
        Err(Error::infeasible("no kinematically feasible profile"))
    }

    /// The aspiration ladder: each rung is a candidate pruning limit,
    /// tightest first. The first rungs are `b0` (the start's cost-to-go)
    /// plus `time_weight` times each of `slacks`, capped by the Greedy
    /// presolve's achievable-path cost; then that cost itself, then the
    /// unbounded `None`.
    fn rungs(
        &self,
        ctx: &SolveCtx<'_>,
        greedy_pool: &mut LayerPool<Option<GNode>>,
        b0: f64,
        slacks: &[f64],
        metrics: &mut SolverMetrics,
    ) -> Vec<Option<f64>> {
        let n_stations = ctx.stations.len();
        // Presolve: the Greedy DP's terminal cost is an achievable-path
        // cost accumulated with bit-identical float expressions, so it
        // upper-bounds the candidate costs along *some* complete path.
        let (glayers, glease) = greedy_pool.take_layers(n_stations, ctx.n_speeds, None);
        metrics.arena_reuse_hits += glease.reuse_hits;
        metrics.arena_allocations += glease.allocations;
        self.relax_greedy(ctx, glayers).add_to(metrics);
        // Tiny relative margin so accumulated rounding in the bound
        // arithmetic can never prune the true winner's path.
        let greedy_ub =
            glayers[n_stations - 1][0].map(|node| node.cost + 1e-9 * node.cost.abs().max(1.0));

        // A rung is certified by the step's verification *without* needing
        // the limit to be achievable, so the first rungs can undercut the
        // greedy path cost — crucial when the greedy presolve pays a window
        // penalty and its bound degenerates to ~`penalty_m`. A failing rung
        // costs one (heavily pruned, therefore cheap) sweep.
        let tw = self.config.time_weight;
        let mut ladder: Vec<Option<f64>> = Vec::new();
        if b0.is_finite() && tw > 0.0 {
            for &slack_seconds in slacks {
                let trial = b0 + tw * slack_seconds;
                ladder.push(Some(match greedy_ub {
                    Some(g) => trial.min(g),
                    None => trial,
                }));
            }
        }
        ladder.push(greedy_ub);
        ladder.push(None);
        ladder.dedup();
        ladder
    }

    /// One step of the solve ladder: keep the stack's first `from` layers
    /// (a rung passes 0 and reseeds the start state), relax the rest under
    /// `pruning`, and verify the cheapest terminal against its limit. A
    /// rung is certified only when the bounded sweep's value stays under
    /// it; otherwise the rung undercut the optimum (or bin merging pushed
    /// the DP value past the greedy path cost) and pruning is not provably
    /// lossless. A certified step backtracks and assembles the profile;
    /// `Ok(None)` means no terminal came in under the limit.
    fn step(
        &self,
        ctx: &SolveCtx<'_>,
        stack: &mut LayerStack<Node>,
        from: usize,
        pruning: &Pruning,
        metrics: &mut SolverMetrics,
        relax_started: Instant,
    ) -> Result<Option<OptimizedProfile>> {
        let n_stations = ctx.stations.len();
        let reserved = stack.capacity();
        if from == 0 {
            let n_bins = self.n_bins();
            stack.reset(n_stations, ctx.n_speeds, n_bins);
            let start_ti =
                ((ctx.start_time / self.config.dt_bin.value()).round() as usize).min(n_bins - 1);
            let seed = Node {
                cost: 0.0,
                time: ctx.start_time,
                prev_v: ctx.start_vi as u32,
                prev_t: start_ti as u32,
                violations_1: NonZeroU32::MIN,
            };
            stack.seed(ctx.start_vi, start_ti, seed);
        } else {
            stack.truncate(from);
        }
        self.relax_exact(ctx, stack, pruning, metrics);
        // One lease of the scratch layer and the stack per step: served
        // from retained capacity, or grown.
        let grew = u64::from(stack.capacity() > reserved);
        metrics.arena_allocations += grew;
        metrics.arena_reuse_hits += 1 - grew;
        telemetry::add("arena.allocations", grew);
        telemetry::add("arena.reuse_hits", 1 - grew);

        let Some((ti, terminal)) = exact_terminal(stack.layer(n_stations - 1)) else {
            return Ok(None);
        };
        if pruning.limit.is_some_and(|limit| terminal.cost > limit) {
            return Ok(None);
        }
        metrics.relax_seconds = relax_started.elapsed().as_secs_f64();
        let backtrack_started = Instant::now();
        let (speeds_idx, times) = backtrack_exact(ctx, stack, ti, terminal)?;
        metrics.backtrack_seconds = backtrack_started.elapsed().as_secs_f64();
        let profile = self.assemble(ctx, &speeds_idx, &times, terminal.violations(), *metrics)?;
        Ok(Some(profile))
    }

    /// Relaxes the Exact layers past the stack's top: layer `i` reads layer
    /// `i - 1`'s committed rows, is written into the scratch layer, and
    /// commits the written span of every row. This is the hot loop of
    /// every ladder step, a full sweep's and a repair's alike.
    fn relax_exact(
        &self,
        ctx: &SolveCtx<'_>,
        stack: &mut LayerStack<Node>,
        pruning: &Pruning,
        metrics: &mut SolverMetrics,
    ) {
        let n_stations = ctx.stations.len();
        let n_speeds = ctx.n_speeds;
        let n_bins = self.n_bins();
        let tw = self.config.time_weight;
        let use_simd = simd::dispatch(self.config.simd);
        let mut c = RelaxCounters::default();
        // Written time-bin span per target row of the layer being relaxed.
        let mut spans: Vec<Option<(u32, u32)>> = vec![None; n_speeds];
        for i in stack.layers()..n_stations {
            let table = ctx.tables[i - 1];
            let ds = ctx.layer_ds[i - 1];
            let env = RelaxEnv {
                horizon: self.config.horizon.value(),
                dt_bin: self.config.dt_bin.value(),
                dwell: ctx.dwell[i],
                penalty_m: self.config.penalty_m,
                limit: pruning.limit,
                window: ctx.station_windows[i],
                live: &pruning.live[i],
                ctg: &pruning.ctg[i],
                emin: &pruning.bounds.emin[i],
                wait: &pruning.bounds.wait[i],
            };
            spans.fill(None);
            let (prev, layer) = stack.relax_view();

            // Source-speed-outer over SoA cost rows: each group of up to
            // MR source states (one vi, ti ascending) is relaxed over
            // NR-lane target tiles. For a fixed slot (vj, tj) candidates
            // arrive in (vi asc, ti asc) order, so the strict `<` keeps the
            // same winner under either kernel dispatch.
            let mut srcs = [simd::TileSrc::default(); simd::MR];
            let mut metas = [(0u32, NonZeroU32::MIN); simd::MR];
            for vi in 0..n_speeds {
                let (ti_first, run) = prev.row(vi);
                if run.is_empty() {
                    continue;
                }
                // The feasible target band from the acceleration bounds
                // (the same float expressions in memoized and direct
                // solves, via the snapped length).
                let v0 = self.config.dv.value() * vi as f64;
                let lo_sq = v0 * v0 + 2.0 * self.config.a_min.value() * ds;
                let hi_sq = v0 * v0 + 2.0 * self.config.a_max.value() * ds;
                let lo = (lo_sq.max(0.0).sqrt() / self.config.dv.value()).floor() as usize;
                let hi = ((hi_sq.max(0.0).sqrt() / self.config.dv.value()).ceil() as usize)
                    .min(n_speeds - 1);
                if lo > hi {
                    continue;
                }
                let charge_row = &table.charges(vi)[lo..=hi];
                let dur_row = &table.durations(vi)[lo..=hi];
                // Table-infeasible (vi, vj) pairs prune once per pair,
                // exactly like the old loop's per-pair `table.get` miss.
                for (k, d) in dur_row.iter().enumerate() {
                    if env.live[lo + k] && d.is_nan() {
                        c.pruned += 1;
                    }
                }
                let mut m = 0usize;
                for (k, slot) in run.iter().enumerate() {
                    let Some(node) = *slot else {
                        continue;
                    };
                    srcs[m] = simd::TileSrc {
                        cost: node.cost,
                        time: node.time,
                    };
                    metas[m] = ((ti_first + k) as u32, node.violations_1);
                    m += 1;
                    if m == simd::MR {
                        relax_exact_group(
                            use_simd, tw, vi as u32, charge_row, dur_row, &srcs, &metas, lo,
                            n_bins, &env, layer, &mut spans, &mut c,
                        );
                        m = 0;
                    }
                }
                if m > 0 {
                    relax_exact_group(
                        use_simd,
                        tw,
                        vi as u32,
                        charge_row,
                        dur_row,
                        &srcs[..m],
                        &metas[..m],
                        lo,
                        n_bins,
                        &env,
                        layer,
                        &mut spans,
                        &mut c,
                    );
                }
            }
            stack.commit(&spans);
        }
        c.add_to(metrics);
    }

    fn solve_greedy(
        &self,
        ctx: &SolveCtx<'_>,
        greedy_pool: &mut LayerPool<Option<GNode>>,
        metrics: &mut SolverMetrics,
    ) -> Result<OptimizedProfile> {
        let relax_started = Instant::now();
        let n_stations = ctx.stations.len();

        let (layers, lease) = greedy_pool.take_layers(n_stations, ctx.n_speeds, None);
        metrics.arena_reuse_hits += lease.reuse_hits;
        metrics.arena_allocations += lease.allocations;

        self.relax_greedy(ctx, layers).add_to(metrics);
        metrics.relax_seconds = relax_started.elapsed().as_secs_f64();

        let backtrack_started = Instant::now();
        let terminal = layers[n_stations - 1][0]
            .ok_or_else(|| Error::infeasible("no kinematically feasible profile"))?;
        let mut speeds_idx = vec![0; n_stations];
        let mut times = vec![0.0; n_stations];
        let mut vi = 0usize;
        times[n_stations - 1] = terminal.time;
        for i in (1..n_stations).rev() {
            let node = layers[i][vi].ok_or_else(|| {
                Error::infeasible("backtrack lost its parent state (inconsistent DP layers)")
            })?;
            times[i] = node.time;
            speeds_idx[i] = vi;
            vi = node.prev_v as usize;
        }
        speeds_idx[0] = ctx.start_vi;
        times[0] = ctx.start_time;
        metrics.backtrack_seconds = backtrack_started.elapsed().as_secs_f64();

        self.assemble(
            ctx,
            &speeds_idx,
            &times,
            terminal.violations as usize,
            *metrics,
        )
    }

    fn assemble(
        &self,
        ctx: &SolveCtx<'_>,
        speeds_idx: &[usize],
        times: &[f64],
        window_violations: usize,
        metrics: SolverMetrics,
    ) -> Result<OptimizedProfile> {
        let speeds: Vec<MetersPerSecond> = speeds_idx
            .iter()
            .map(|&vi| MetersPerSecond::new(self.config.dv.value() * vi as f64))
            .collect();
        // Re-read the raw energy (without penalties) along the chosen path
        // from the same tables the relaxation used.
        let mut total = 0.0;
        for i in 1..ctx.stations.len() {
            let (charge, _) = ctx.tables[i - 1]
                .get(speeds_idx[i - 1], speeds_idx[i])
                .ok_or_else(|| Error::numeric("assembled profile has an infeasible segment"))?;
            total += charge;
        }
        Ok(OptimizedProfile {
            stations: ctx.stations.to_vec(),
            speeds,
            times: times.iter().map(|&t| Seconds::new(t)).collect(),
            total_energy: AmpereHours::new(total),
            trip_time: Seconds::new(times[times.len() - 1] - times[0]),
            window_violations,
            metrics,
        })
    }
}

/// Stations on the Δs grid, with what each must satisfy: rest, and an
/// arrival window.
type Stations<'a> = (Vec<Meters>, Vec<bool>, Vec<Option<&'a SignalConstraint>>);

/// Puts a midpoint station, with no stop and no window, between every two
/// adjacent stations that must both be at rest (station 0 is at rest when
/// the start is, `start_at_rest`): no constant acceleration takes a vehicle
/// from rest to rest, so the segment between them has no finite duration.
/// Stops and lights stay where they snapped on the grid, and stations with
/// no such pair come back unchanged.
fn split_rest_pairs(
    stations: Vec<Meters>,
    must_stop: Vec<bool>,
    windows: Vec<Option<&SignalConstraint>>,
    start_at_rest: bool,
) -> Stations<'_> {
    let at_rest = |i: usize| must_stop[i] || (i == 0 && start_at_rest);
    let split = |i: usize| i > 0 && at_rest(i - 1) && at_rest(i);
    let added = (0..stations.len()).filter(|&i| split(i)).count();
    if added == 0 {
        return (stations, must_stop, windows);
    }
    let n = stations.len() + added;
    let (mut xs, mut stops, mut ws) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    for (i, &x) in stations.iter().enumerate() {
        if split(i) {
            xs.push(stations[i - 1] + (x - stations[i - 1]) * 0.5);
            stops.push(false);
            ws.push(None);
        }
        xs.push(x);
        stops.push(must_stop[i]);
        ws.push(windows[i]);
    }
    (xs, stops, ws)
}

/// Builds the station grid from `from` in steps of Δs plus the exact road
/// end. A regular station closer than Δs/2 to the end is dropped so the
/// final segment is never degenerately short (a near-zero segment makes any
/// speed change there kinematically impossible).
fn build_stations_from(road: &Road, from: Meters, ds: Meters) -> Vec<Meters> {
    let mut stations = Vec::new();
    let mut x = from.value();
    while x < road.length().value() - 1e-9 {
        stations.push(Meters::new(x));
        x += ds.value();
    }
    if stations.len() > 1
        && (road.length() - stations[stations.len() - 1]).value() < ds.value() / 2.0
    {
        stations.pop();
    }
    stations.push(road.length());
    stations
}

#[cfg(test)]
mod tests {
    use super::*;
    use velopt_common::units::KilometersPerHour;
    use velopt_ev_energy::VehicleParams;
    use velopt_road::RoadBuilder;

    fn optimizer() -> DpOptimizer {
        DpOptimizer::new(
            EnergyModel::new(VehicleParams::spark_ev()),
            DpConfig::default(),
        )
        .unwrap()
    }

    fn simple_road(length: f64) -> Road {
        RoadBuilder::new(Meters::new(length))
            .default_limits(
                KilometersPerHour::new(40.0).to_meters_per_second(),
                KilometersPerHour::new(70.0).to_meters_per_second(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(DpConfig {
            ds: Meters::ZERO,
            ..DpConfig::default()
        }
        .validated()
        .is_err());
        assert!(DpConfig {
            a_min: MetersPerSecondSq::new(0.5),
            ..DpConfig::default()
        }
        .validated()
        .is_err());
        assert!(DpConfig {
            penalty_m: 0.0,
            ..DpConfig::default()
        }
        .validated()
        .is_err());
    }

    #[test]
    fn free_road_profile_is_feasible_and_smooth() {
        let road = simple_road(1000.0);
        let profile = optimizer().optimize(&road, &[]).unwrap();
        assert_eq!(profile.window_violations, 0);
        assert_eq!(profile.speeds[0], MetersPerSecond::ZERO);
        assert_eq!(*profile.speeds.last().unwrap(), MetersPerSecond::ZERO);
        // Accelerations stay within comfort bounds.
        for i in 1..profile.stations.len() {
            let ds = (profile.stations[i] - profile.stations[i - 1]).value();
            let a = (profile.speeds[i].value().powi(2) - profile.speeds[i - 1].value().powi(2))
                / (2.0 * ds);
            assert!((-1.5 - 1e-6..=2.5 + 1e-6).contains(&a), "a = {a}");
        }
        // Times are strictly increasing.
        for w in profile.times.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(profile.total_energy.value() > 0.0);
    }

    #[test]
    fn respects_max_speed_limit() {
        let road = simple_road(2000.0);
        let profile = optimizer().optimize(&road, &[]).unwrap();
        let vmax = road.max_speed_limit().value();
        for v in &profile.speeds {
            assert!(v.value() <= vmax + 1e-9);
        }
    }

    #[test]
    fn stop_sign_forces_zero_speed() {
        let road = RoadBuilder::new(Meters::new(1500.0))
            .default_limits(
                KilometersPerHour::new(40.0).to_meters_per_second(),
                KilometersPerHour::new(70.0).to_meters_per_second(),
            )
            .stop_sign(Meters::new(700.0))
            .build()
            .unwrap();
        let profile = optimizer().optimize(&road, &[]).unwrap();
        // Station nearest the sign is at 700 (multiple of 20) — speed 0.
        let idx = profile
            .stations
            .iter()
            .position(|&s| (s.value() - 700.0).abs() < 1e-9)
            .unwrap();
        assert_eq!(profile.speeds[idx], MetersPerSecond::ZERO);
    }

    /// A 601 m road with 40–70 km/h limits and stop signs at `signs`.
    fn signed_road(signs: &[f64]) -> Road {
        let mut builder = RoadBuilder::new(Meters::new(601.0));
        builder.default_limits(
            KilometersPerHour::new(40.0).to_meters_per_second(),
            KilometersPerHour::new(70.0).to_meters_per_second(),
        );
        for &x in signs {
            builder.stop_sign(Meters::new(x));
        }
        builder.build().unwrap()
    }

    /// The planned speed at the station at `x`.
    fn speed_at_station(profile: &OptimizedProfile, x: f64) -> f64 {
        let i = profile
            .stations
            .iter()
            .position(|s| (s.value() - x).abs() < 1e-9)
            .unwrap_or_else(|| panic!("no station at {x}: {:?}", profile.stations));
        profile.speeds[i].value()
    }

    /// Two adjacent stations that must both be at rest get a midpoint
    /// station between them, so the trip plans instead of being refused:
    /// a sign that snaps to the station after a start at rest (11–30 m,
    /// where a 601 m trip departing at 19 s once read infeasible), a sign
    /// 16 or 26 m before the road's end, two signs 20 m apart, and a replan
    /// from rest 25 m before a sign. Each plan rests at both stations and
    /// moves in between. Signs that snap elsewhere keep their stations.
    #[test]
    fn adjacent_rest_stations_plan_through_a_midpoint() {
        let opt = optimizer();
        let grid = build_stations_from(&signed_road(&[]), Meters::ZERO, Meters::new(20.0));
        let rests = |profile: &OptimizedProfile, a: f64, b: f64| {
            assert_eq!(speed_at_station(profile, a), 0.0, "at {a}");
            assert_eq!(speed_at_station(profile, b), 0.0, "at {b}");
            assert!(speed_at_station(profile, 0.5 * (a + b)) > 0.0);
            assert_eq!(profile.stations.len(), grid.len() + 1);
        };
        for sign in 11..=30 {
            let profile = opt.optimize(&signed_road(&[f64::from(sign)]), &[]).unwrap();
            rests(&profile, 0.0, 20.0);
        }
        for sign in [601.0 - 16.0, 601.0 - 26.0] {
            let profile = opt.optimize(&signed_road(&[sign]), &[]).unwrap();
            rests(&profile, 580.0, 601.0);
        }
        let profile = opt.optimize(&signed_road(&[300.0, 320.0]), &[]).unwrap();
        rests(&profile, 300.0, 320.0);
        for sign in [9.0, 10.0, 31.0] {
            let profile = opt.optimize(&signed_road(&[sign]), &[]).unwrap();
            assert_eq!(profile.stations, grid, "sign at {sign}");
        }

        let start = StartState {
            position: Meters::new(275.0),
            speed: MetersPerSecond::ZERO,
            time: Seconds::new(40.0),
        };
        let profile = opt
            .optimize_from(&signed_road(&[300.0]), &[], start)
            .unwrap();
        assert_eq!(speed_at_station(&profile, 275.0), 0.0);
        assert_eq!(speed_at_station(&profile, 295.0), 0.0);
        assert!(speed_at_station(&profile, 285.0) > 0.0);
        assert_eq!(profile.times[0], start.time);
    }

    #[test]
    fn window_constraint_shifts_arrival() {
        let road = simple_road(1000.0);
        // Free-run arrival at 500 m.
        let free = optimizer().optimize(&road, &[]).unwrap();
        let t_free = free.arrival_time_at(Meters::new(500.0));
        // Constrain arrival at 500 m to a window well after the free time.
        let w0 = t_free + Seconds::new(15.0);
        let constraint = SignalConstraint {
            position: Meters::new(500.0),
            windows: vec![TimeWindow {
                start: w0,
                end: w0 + Seconds::new(10.0),
            }],
        };
        let constrained = optimizer()
            .optimize(&road, std::slice::from_ref(&constraint))
            .unwrap();
        assert_eq!(constrained.window_violations, 0);
        let t_c = constrained.arrival_time_at(Meters::new(500.0));
        assert!(
            constraint.admits(t_c),
            "arrival {t_c} must fall in [{w0}, +10s)"
        );
    }

    #[test]
    fn impossible_window_reports_violation_not_panic() {
        let road = simple_road(600.0);
        // A window that is long past: the EV cannot be that slow within the
        // horizon... use a window before any feasible arrival instead.
        let constraint = SignalConstraint {
            position: Meters::new(400.0),
            windows: vec![TimeWindow {
                start: Seconds::ZERO,
                end: Seconds::new(1.0),
            }],
        };
        let profile = optimizer().optimize(&road, &[constraint]).unwrap();
        assert!(profile.window_violations > 0);
    }

    /// The stations `cone_dead` marks on `road` under `signals`, from the
    /// origin at rest.
    fn cone_dead_stations(
        opt: &DpOptimizer,
        road: &Road,
        signals: &[SignalConstraint],
    ) -> Vec<bool> {
        let prep = opt.prepare(road, signals, StartState::default()).unwrap();
        let mut arena = SolverArena::new();
        let mut owned = Vec::new();
        let (tables, _) =
            opt.resolve_tables(&prep, &mut arena.transitions, &mut owned, Instant::now());
        let ctx = prep.ctx(&tables);
        let (live, _) = reachability(&ctx);
        opt.cone_dead(&ctx, &live)
    }

    /// A light whose only window opens after the latest arrival the speed
    /// floors allow is marked dead, though it closes long after the
    /// earliest arrival, so the cost-to-go charges its penalty up front:
    /// the plan keeps the bits a window-free-floor solve certifies, and
    /// the bits of a solve whose cone swept only the earliest arrival,
    /// which expanded 19,463 states here (this one expands 2,255).
    #[test]
    fn a_window_after_the_latest_arrival_is_cone_dead() {
        let opt = optimizer();
        let road = simple_road(600.0);
        let light = |start: f64| SignalConstraint {
            position: Meters::new(400.0),
            windows: vec![TimeWindow {
                start: Seconds::new(start),
                end: Seconds::new(start + 20.0),
            }],
        };
        let station = 400 / 20;
        for (start, dead) in [(200.0, true), (20.0, false)] {
            let marked = cone_dead_stations(&opt, &road, &[light(start)]);
            assert_eq!(marked[station], dead, "window opening at {start} s");
            assert_eq!(marked.iter().filter(|&&d| d).count(), usize::from(dead));
        }
        let late = [light(200.0)];
        let profile = opt.optimize(&road, &late).unwrap();
        assert_eq!(profile.window_violations, 1);
        let reference = opt
            .optimize_windows_refresh(&road, &late, StartState::default(), &mut SolverArena::new())
            .unwrap();
        let bits = |p: &OptimizedProfile| {
            let mut bits = vec![p.total_energy.value().to_bits(), p.window_violations as u64];
            bits.extend(p.speeds.iter().map(|v| v.value().to_bits()));
            bits.extend(p.times.iter().map(|t| t.value().to_bits()));
            bits
        };
        assert_eq!(bits(&profile), bits(&reference));
        let expanded = profile.metrics.states_expanded;
        assert!(expanded < 19_463, "{expanded} states expanded");
    }

    #[test]
    fn greedy_mode_also_produces_profiles() {
        let road = simple_road(1000.0);
        let opt = DpOptimizer::new(
            EnergyModel::new(VehicleParams::spark_ev()),
            DpConfig {
                time_handling: TimeHandling::Greedy,
                ..DpConfig::default()
            },
        )
        .unwrap();
        let profile = opt.optimize(&road, &[]).unwrap();
        assert_eq!(profile.speeds[0], MetersPerSecond::ZERO);
        assert!(profile.trip_time.value() > 0.0);
    }

    #[test]
    fn exact_beats_or_matches_greedy_under_windows() {
        let road = simple_road(1000.0);
        let mk = |th| {
            DpOptimizer::new(
                EnergyModel::new(VehicleParams::spark_ev()),
                DpConfig {
                    time_handling: th,
                    ..DpConfig::default()
                },
            )
            .unwrap()
        };
        let free = mk(TimeHandling::Exact).optimize(&road, &[]).unwrap();
        let t_free = free.arrival_time_at(Meters::new(600.0));
        let constraint = SignalConstraint {
            position: Meters::new(600.0),
            windows: vec![TimeWindow {
                start: t_free + Seconds::new(20.0),
                end: t_free + Seconds::new(28.0),
            }],
        };
        let exact = mk(TimeHandling::Exact)
            .optimize(&road, std::slice::from_ref(&constraint))
            .unwrap();
        let greedy = mk(TimeHandling::Greedy)
            .optimize(&road, &[constraint])
            .unwrap();
        assert!(exact.window_violations <= greedy.window_violations);
    }

    #[test]
    fn profile_sampling_helpers() {
        let road = simple_road(1000.0);
        let profile = optimizer().optimize(&road, &[]).unwrap();
        // Position sampling.
        assert_eq!(
            profile.speed_at_position(Meters::new(-5.0)),
            profile.speeds[0]
        );
        let mid = profile.speed_at_position(Meters::new(500.0));
        assert!(mid.value() > 0.0);
        // Time series export covers the trip and ends at rest.
        let series = profile.to_time_series(Seconds::new(0.5)).unwrap();
        assert!(series.duration() >= profile.trip_time - Seconds::new(0.5));
        assert!(series.samples().last().unwrap() < &0.5);
        assert!(profile.to_time_series(Seconds::ZERO).is_err());
        // Distance covered by the series matches the road length.
        let dist = series.integrate();
        assert!(
            (dist - 1000.0).abs() < 30.0,
            "time-series distance {dist} should be ~1000 m"
        );
    }

    #[test]
    fn energy_is_less_than_naive_fast_profile() {
        // The DP should never do worse than a crude bang-bang profile's
        // energy on the same road (it could pick that profile itself).
        let road = simple_road(1500.0);
        let profile = optimizer().optimize(&road, &[]).unwrap();
        // A crude comparison: max accel to vmax, cruise, max brake.
        let e = EnergyModel::new(VehicleParams::spark_ev());
        let vmax = road.max_speed_limit();
        let d_up = vmax.value().powi(2) / (2.0 * 2.5);
        let d_down = vmax.value().powi(2) / (2.0 * 1.5);
        let up = e
            .segment_energy(
                MetersPerSecond::ZERO,
                MetersPerSecondSq::new(2.5),
                Meters::new(d_up),
                road.grade_at(Meters::ZERO),
            )
            .unwrap();
        let cruise = e
            .segment_energy(
                vmax,
                MetersPerSecondSq::ZERO,
                Meters::new(1500.0 - d_up - d_down),
                road.grade_at(Meters::new(750.0)),
            )
            .unwrap();
        let down = e
            .segment_energy(
                vmax,
                MetersPerSecondSq::new(-1.5),
                Meters::new(d_down),
                road.grade_at(Meters::new(1400.0)),
            )
            .unwrap();
        let naive = up.charge.value() + cruise.charge.value() + down.charge.value();
        assert!(
            profile.total_energy.value() <= naive + 1e-6,
            "DP {} vs naive {naive}",
            profile.total_energy.value()
        );
    }

    fn optimizer_with(config: DpConfig) -> DpOptimizer {
        DpOptimizer::new(EnergyModel::new(VehicleParams::spark_ev()), config).unwrap()
    }

    fn bitwise_equal(a: &OptimizedProfile, b: &OptimizedProfile) -> bool {
        a.stations.len() == b.stations.len()
            && a.stations
                .iter()
                .zip(&b.stations)
                .all(|(x, y)| x.value().to_bits() == y.value().to_bits())
            && a.speeds
                .iter()
                .zip(&b.speeds)
                .all(|(x, y)| x.value().to_bits() == y.value().to_bits())
            && a.times
                .iter()
                .zip(&b.times)
                .all(|(x, y)| x.value().to_bits() == y.value().to_bits())
            && a.total_energy.value().to_bits() == b.total_energy.value().to_bits()
            && a.trip_time.value().to_bits() == b.trip_time.value().to_bits()
            && a.window_violations == b.window_violations
    }

    /// The SIMD exactness claim: the AVX2 relax tiles must not move a
    /// single bit of the solution relative to the portable kernel — in
    /// both time handlings, on a road with a stop sign and an arrival
    /// window — and the search-space counters must not depend on the
    /// dispatch either.
    #[test]
    fn simd_and_scalar_solves_are_bit_identical() {
        let road = RoadBuilder::new(Meters::new(1400.0))
            .default_limits(
                KilometersPerHour::new(40.0).to_meters_per_second(),
                KilometersPerHour::new(70.0).to_meters_per_second(),
            )
            .stop_sign(Meters::new(500.0))
            .build()
            .unwrap();
        let free = optimizer().optimize(&road, &[]).unwrap();
        let t = free.arrival_time_at(Meters::new(900.0));
        let constraint = SignalConstraint {
            position: Meters::new(900.0),
            windows: vec![TimeWindow {
                start: t + Seconds::new(10.0),
                end: t + Seconds::new(18.0),
            }],
        };
        for time_handling in [TimeHandling::Exact, TimeHandling::Greedy] {
            let mk = |simd| {
                optimizer_with(DpConfig {
                    time_handling,
                    simd,
                    ..DpConfig::default()
                })
                .optimize(&road, std::slice::from_ref(&constraint))
                .unwrap()
            };
            let vectorized = mk(true);
            let scalar = mk(false);
            assert!(
                bitwise_equal(&vectorized, &scalar),
                "profile diverged between kernels ({time_handling:?})"
            );
            assert_eq!(
                vectorized.metrics.states_expanded,
                scalar.metrics.states_expanded
            );
            assert_eq!(
                vectorized.metrics.states_pruned,
                scalar.metrics.states_pruned
            );
            // With the knob off every relax row goes through the
            // portable kernel; either way rows were counted.
            assert_eq!(scalar.metrics.simd_rows, 0);
            assert!(scalar.metrics.scalar_rows > 0);
            assert!(vectorized.metrics.simd_rows + vectorized.metrics.scalar_rows > 0);
        }
    }

    /// The warm-started refresh ladder: a first `optimize_windows_refresh`
    /// runs a full retention solve; a refresh whose only change is a
    /// shifted window repairs just the dirty suffix; a refresh with no
    /// change returns the retained profile outright — and all three are
    /// bit-identical to a from-scratch solve under the same windows.
    #[test]
    fn window_refresh_repair_is_bit_identical_to_scratch() {
        let road = RoadBuilder::new(Meters::new(1400.0))
            .default_limits(
                KilometersPerHour::new(40.0).to_meters_per_second(),
                KilometersPerHour::new(70.0).to_meters_per_second(),
            )
            .stop_sign(Meters::new(500.0))
            .build()
            .unwrap();
        let free = optimizer().optimize(&road, &[]).unwrap();
        let t = free.arrival_time_at(Meters::new(900.0));
        let window_at = |lo: f64, hi: f64| SignalConstraint {
            position: Meters::new(900.0),
            windows: vec![TimeWindow {
                start: t + Seconds::new(lo),
                end: t + Seconds::new(hi),
            }],
        };
        let opt = optimizer();
        let mut arena = SolverArena::new();
        let start = StartState::default();

        let w0 = [window_at(10.0, 18.0)];
        let first = opt
            .optimize_windows_refresh(&road, &w0, start, &mut arena)
            .unwrap();
        assert_eq!(first.metrics.repair_full_resolves, 1);
        assert_eq!(first.metrics.repair_hits, 0);
        assert!(bitwise_equal(&first, &opt.optimize(&road, &w0).unwrap()));

        // Shift the window: only layers from the signal's station onward
        // re-relax, and the repaired plan matches from-scratch bit for bit.
        let w1 = [window_at(12.0, 20.0)];
        let repaired = opt
            .optimize_windows_refresh(&road, &w1, start, &mut arena)
            .unwrap();
        assert_eq!(repaired.metrics.repair_hits, 1);
        assert_eq!(repaired.metrics.repair_full_resolves, 0);
        assert!(repaired.metrics.repair_layers_skipped > 0);
        assert!(bitwise_equal(&repaired, &opt.optimize(&road, &w1).unwrap()));

        // No change at all: the retained profile comes straight back, with
        // every non-terminal layer skipped.
        let cached = opt
            .optimize_windows_refresh(&road, &w1, start, &mut arena)
            .unwrap();
        assert_eq!(cached.metrics.repair_hits, 1);
        assert_eq!(cached.metrics.repair_full_resolves, 0);
        assert_eq!(
            cached.metrics.repair_layers_skipped as usize,
            cached.stations.len() - 1
        );
        assert!(bitwise_equal(&cached, &repaired));
    }

    /// A direct solve through the same arena rewrites the Exact stack, so
    /// the next refresh must fall back to a full retention solve rather
    /// than repairing against foreign layer contents.
    #[test]
    fn direct_solve_invalidates_retained_repair_state() {
        let road = simple_road(1000.0);
        let opt = optimizer();
        let mut arena = SolverArena::new();
        let start = StartState::default();
        let first = opt
            .optimize_windows_refresh(&road, &[], start, &mut arena)
            .unwrap();
        assert_eq!(first.metrics.repair_full_resolves, 1);
        opt.optimize_from_with(&road, &[], start, &mut arena)
            .unwrap();
        let after = opt
            .optimize_windows_refresh(&road, &[], start, &mut arena)
            .unwrap();
        assert_eq!(after.metrics.repair_full_resolves, 1);
        assert_eq!(after.metrics.repair_hits, 0);
        assert!(bitwise_equal(&first, &after));
    }

    /// The Exact stack keeps exactly what the winning sweep wrote. On the
    /// US-25 green-only trip from rest, the winning rung wrote 15,877 of
    /// the 211 × 20 × 901 lattice's 3,802,220 slots, in 1,768 of its 4,220
    /// rows, and the scratch layer ends clean; a second solve on the same
    /// arena holds the same and plans the same bits.
    #[test]
    fn exact_stack_holds_what_the_sweep_wrote() {
        let road = Road::us25();
        let signals = crate::windows::green_only_constraints(&road, DpConfig::default().horizon);
        let opt = optimizer();
        let mut arena = SolverArena::new();
        let start = StartState::default();
        let first = opt
            .optimize_from_with(&road, &signals, start, &mut arena)
            .unwrap();
        let held = |arena: &SolverArena| (arena.exact.held(), arena.exact.occupied_rows());
        assert_eq!(held(&arena), (15_877, 1_768));
        assert!(arena.exact.scratch_is_clear());
        let second = opt
            .optimize_from_with(&road, &signals, start, &mut arena)
            .unwrap();
        assert_eq!(held(&arena), (15_877, 1_768));
        assert!(arena.exact.scratch_is_clear());
        assert!(bitwise_equal(&first, &second));
    }

    /// A start state the clock or the speed grid cannot hold is refused,
    /// not planned: a NaN passes every `< 0` and `>= horizon` test, and a
    /// NaN or infinite speed would snap to a speed cell.
    #[test]
    fn non_finite_start_states_are_refused() {
        let road = simple_road(800.0);
        let opt = optimizer();
        let at = |time: f64, speed: f64| StartState {
            position: Meters::new(100.0),
            speed: MetersPerSecond::new(speed),
            time: Seconds::new(time),
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for start in [at(bad, 10.0), at(10.0, bad)] {
                let mut arena = SolverArena::new();
                let direct = opt.optimize_from_with(&road, &[], start, &mut arena);
                let refresh = opt.optimize_windows_refresh(&road, &[], start, &mut arena);
                for got in [direct, refresh] {
                    assert!(
                        matches!(got, Err(Error::InvalidInput(_))),
                        "{start:?}: {got:?}"
                    );
                }
            }
        }
    }

    /// The tentpole exactness claim: replacing per-candidate energy-model
    /// calls with memoized, quantized cost tables must not move a single
    /// bit of the solution, on a road that exercises stop signs, windows
    /// and penalties.
    #[test]
    fn memoized_and_direct_solves_are_bit_identical() {
        let road = RoadBuilder::new(Meters::new(1500.0))
            .default_limits(
                KilometersPerHour::new(40.0).to_meters_per_second(),
                KilometersPerHour::new(70.0).to_meters_per_second(),
            )
            .stop_sign(Meters::new(600.0))
            .build()
            .unwrap();
        let free = optimizer().optimize(&road, &[]).unwrap();
        let t = free.arrival_time_at(Meters::new(1000.0));
        let constraint = SignalConstraint {
            position: Meters::new(1000.0),
            windows: vec![TimeWindow {
                start: t + Seconds::new(8.0),
                end: t + Seconds::new(16.0),
            }],
        };
        let memo = optimizer()
            .optimize(&road, std::slice::from_ref(&constraint))
            .unwrap();
        let direct = optimizer_with(DpConfig {
            memo: false,
            ..DpConfig::default()
        })
        .optimize(&road, std::slice::from_ref(&constraint))
        .unwrap();
        assert!(
            bitwise_equal(&memo, &direct),
            "memoized profile diverged from direct"
        );
        // Identical search: every counter matches, not just the plan.
        assert_eq!(memo.metrics.states_expanded, direct.metrics.states_expanded);
        assert_eq!(memo.metrics.states_pruned, direct.metrics.states_pruned);
        assert_eq!(memo.metrics.rows_skipped, direct.metrics.rows_skipped);
        // The uniform corridor collapses to a couple of segment classes:
        // the cache pays off within a single solve...
        assert!(memo.metrics.memo_hits > 0);
        assert!(memo.metrics.memo_misses < memo.metrics.memo_hits);
        // ...while the direct path rebuilds per segment, never caching.
        assert_eq!(direct.metrics.memo_hits, 0);
        assert_eq!(
            direct.metrics.memo_misses,
            (road.length().value() / 20.0).round() as u64
        );
    }

    /// The cache lives in the arena: a second solve over the same corridor
    /// runs entirely on cached tables — zero energy-model evaluations.
    #[test]
    fn transition_cache_is_shared_across_solves() {
        let road = simple_road(800.0);
        let opt = optimizer();
        let mut arena = SolverArena::new();
        let first = opt
            .optimize_from_with(&road, &[], StartState::default(), &mut arena)
            .unwrap();
        assert!(first.metrics.memo_misses > 0);
        assert!(first.metrics.energy_evals > 0);
        assert!(arena.cached_classes() > 0);
        let second = opt
            .optimize_from_with(&road, &[], StartState::default(), &mut arena)
            .unwrap();
        assert_eq!(second.metrics.memo_misses, 0);
        assert_eq!(second.metrics.energy_evals, 0);
        assert!(second.metrics.memo_hits > 0);
        assert_eq!(first, second);
    }

    /// Distinct corridors fill the window-bound memo up to its byte budget
    /// and then evict, never passing the budget.
    #[test]
    fn bounds_memo_evicts_within_its_budget() {
        let opt = optimizer();
        let mut arena = SolverArena::new();
        let mut evicted = false;
        for k in 0..16 {
            let before = arena.cached_bounds();
            let road = simple_road(1000.0 + 20.0 * k as f64);
            opt.optimize_from_with(&road, &[], StartState::default(), &mut arena)
                .unwrap();
            assert!(arena.bounds.bytes() <= crate::memo::BOUNDS_MEMO_BYTES);
            evicted |= arena.cached_bounds() <= before;
        }
        assert!(evicted, "16 corridors fit the budget");
        assert!(arena.cached_bounds() > 1);
    }

    /// Reachability masks retire rows the acceleration cones can't connect
    /// to both endpoints (e.g. high speeds one station after launch).
    #[test]
    fn reachability_pruning_skips_rows_and_counts_them() {
        let road = simple_road(1000.0);
        let profile = optimizer().optimize(&road, &[]).unwrap();
        assert!(profile.metrics.rows_skipped > 0);
        // And the masks must never cut into the feasible plan itself.
        assert_eq!(profile.window_violations, 0);
    }

    #[test]
    fn arena_reuse_kicks_in_on_second_solve() {
        let road = simple_road(800.0);
        let opt = optimizer();
        let mut arena = SolverArena::new();
        let first = opt
            .optimize_from_with(&road, &[], StartState::default(), &mut arena)
            .unwrap();
        assert_eq!(first.metrics.arena_reuse_hits, 0);
        assert!(first.metrics.arena_allocations > 0);
        let second = opt
            .optimize_from_with(&road, &[], StartState::default(), &mut arena)
            .unwrap();
        assert_eq!(second.metrics.arena_allocations, 0);
        assert!(second.metrics.arena_reuse_hits > 0);
        // Scratch reuse must not change the plan.
        assert_eq!(first, second);
    }

    #[test]
    fn metrics_are_populated() {
        let road = simple_road(1000.0);
        let profile = optimizer().optimize(&road, &[]).unwrap();
        let m = profile.metrics;
        assert!(m.states_expanded > 0);
        assert!(m.relax_seconds >= 0.0 && m.total_seconds() >= m.relax_seconds);
        assert!(m.expansion_ratio() > 0.0 && m.expansion_ratio() <= 1.0);
        assert!(m.memo_misses > 0);
        assert!(m.energy_evals > 0);
    }

    /// With the `telemetry` feature on, every solve publishes its metrics
    /// to the global registry (counters are monotonic and the registry is
    /// process-wide, so the assertions are deltas, not absolutes).
    #[cfg(feature = "telemetry")]
    #[test]
    fn telemetry_records_solves() {
        let road = simple_road(600.0);
        let before = telemetry::snapshot().counter("dp.solves").unwrap_or(0);
        let profile = optimizer().optimize(&road, &[]).unwrap();
        let snap = telemetry::snapshot();
        assert!(snap.counter("dp.solves").unwrap() > before);
        assert!(snap.counter("dp.states_expanded").unwrap() >= profile.metrics.states_expanded);
        assert!(snap.counter("dp.memo.misses").unwrap() >= profile.metrics.memo_misses);
        assert!(snap.counter("dp.rows_skipped").unwrap() >= profile.metrics.rows_skipped);
        assert!(snap.histogram("dp.relax_seconds").unwrap().count >= 1);
        // The whole-solve span wraps every phase: its histogram fills too.
        assert!(snap.histogram("dp.optimize_seconds").unwrap().count >= 1);
        // Arena lease accounting reaches the registry as well.
        assert!(snap.counter("arena.allocations").unwrap() > 0);
        // So does the window-bound memo: a cold arena builds, a warm one
        // reuses.
        assert!(snap.counter("dp.bounds.misses").unwrap() >= 1);
        let hits = snap.counter("dp.bounds.hits").unwrap_or(0);
        let mut arena = SolverArena::new();
        for _ in 0..2 {
            optimizer()
                .optimize_from_with(&road, &[], StartState::default(), &mut arena)
                .unwrap();
        }
        assert!(telemetry::snapshot().counter("dp.bounds.hits").unwrap() > hits);
    }

    #[test]
    fn profiles_with_different_metrics_compare_equal() {
        let road = simple_road(800.0);
        let a = optimizer().optimize(&road, &[]).unwrap();
        let mut b = a.clone();
        b.metrics.relax_seconds += 100.0;
        b.metrics.states_expanded += 1;
        assert_eq!(a, b);
        b.window_violations += 1;
        assert_ne!(a, b);
    }

    #[test]
    fn nearest_index_boundary_behavior() {
        let stations: Vec<Meters> = [0.0, 20.0, 40.0, 60.0]
            .iter()
            .map(|&x| Meters::new(x))
            .collect();
        // Below the first and past the last station clamp.
        assert_eq!(nearest_index(&stations, Meters::new(-5.0)), 0);
        assert_eq!(nearest_index(&stations, Meters::new(1000.0)), 3);
        // Exact hits.
        for (i, &s) in stations.iter().enumerate() {
            assert_eq!(nearest_index(&stations, s), i);
        }
        // Interior points round to the closer neighbor; exact midpoints
        // resolve to the lower station (the linear scan's tie rule).
        assert_eq!(nearest_index(&stations, Meters::new(24.0)), 1);
        assert_eq!(nearest_index(&stations, Meters::new(36.0)), 2);
        assert_eq!(nearest_index(&stations, Meters::new(30.0)), 1);
        // Single-station degenerate case.
        assert_eq!(nearest_index(&[Meters::new(7.0)], Meters::new(99.0)), 0);
    }

    #[test]
    fn nearest_index_matches_linear_scan() {
        let stations = build_stations_from(&simple_road(1000.0), Meters::ZERO, Meters::new(20.0));
        for k in 0..200 {
            let x = Meters::new(-10.0 + k as f64 * 5.3);
            let linear = stations
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    (**a - x)
                        .abs()
                        .value()
                        .partial_cmp(&(**b - x).abs().value())
                        .unwrap()
                })
                .map(|(i, _)| i)
                .unwrap();
            assert_eq!(nearest_index(&stations, x), linear, "x = {x}");
        }
    }

    #[test]
    fn greedy_infeasible_backtrack_is_an_error_not_a_panic() {
        // A corridor far too long for the horizon: no terminal state exists
        // and the solver must report infeasibility.
        let road = simple_road(30_000.0);
        let opt = optimizer_with(DpConfig {
            time_handling: TimeHandling::Greedy,
            horizon: Seconds::new(120.0),
            ..DpConfig::default()
        });
        assert!(matches!(
            opt.optimize(&road, &[]),
            Err(Error::Infeasible(_))
        ));
        let opt = optimizer_with(DpConfig {
            horizon: Seconds::new(120.0),
            ..DpConfig::default()
        });
        assert!(matches!(
            opt.optimize(&road, &[]),
            Err(Error::Infeasible(_))
        ));
    }
}

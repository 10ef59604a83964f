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

use crate::arena::{LayerPool, LeaseStats};
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

/// Reusable solver scratch: the DP layer stacks, backtrack buffers and the
/// cross-solve transition-cost and window-bound caches.
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
/// kept). The resulting profile and work counters are identical either
/// way; only the arena and memo counters in [`SolverMetrics`] differ.
#[derive(Debug, Clone, Default)]
pub struct SolverArena {
    exact: LayerPool<Option<Node>>,
    exact_dirty: Option<DirtyLog>,
    greedy: LayerPool<Option<GNode>>,
    speeds_idx: Vec<usize>,
    times: Vec<f64>,
    transitions: TransitionTable,
    bounds: BoundsMemo,
    repair: Option<RepairState>,
}

/// Physical write log for the pooled Exact layer stack: per layer, per
/// speed row, the inclusive time-bin span of slots that may hold `Some`
/// since the stack was last fully refilled. An Exact sweep touches ~1% of
/// the `n_stations × n_speeds × n_bins` stack, so the vectorized solver
/// path resets a sweep by clearing only the logged spans instead of
/// rewriting every slot (`reset_exact_layers`) — by far the solver's
/// largest memory traffic. Both dispatch flavors *maintain* the log (a
/// span union per relaxed layer, a few hundred words), so scalar and AVX2
/// solves can interleave on one arena; only the reset strategy differs,
/// and a shape change or a missing log falls back to the full refill.
///
/// Correctness invariant: every slot outside the logged spans is `None`.
/// Spans are merged into the log as layers are relaxed — before any
/// infeasible/verification early-return — so the invariant holds even for
/// failed sweeps.
/// Inclusive occupied/written time-bin span per `(layer, speed row)`;
/// `None` = untouched. Shared by the arena's [`DirtyLog`], the retained
/// [`RepairState::spans`], and the relax sweep's span log.
type BinSpans = Vec<Vec<Option<(u32, u32)>>>;

#[derive(Debug, Clone)]
struct DirtyLog {
    /// `(n_speeds, n_bins)` of every tracked layer. The *layer count* is
    /// deliberately not part of the shape: replanning mid-trip shrinks and
    /// grows the station count from solve to solve, and a solve needing
    /// `n ≤ spans.len()` layers can still sparse-reset the first `n`
    /// tracked buffers. A solve needing more layers than the log tracks
    /// falls back to the full refill (pooled buffers beyond the tracked
    /// set have unknown contents).
    rows_shape: (usize, usize),
    /// `spans[layer][row]` — inclusive written-bin span, `None` = clean.
    spans: BinSpans,
}

impl DirtyLog {
    /// A log for a freshly refilled (all-`None`) stack.
    fn clean(n_stations: usize, n_speeds: usize, n_bins: usize) -> Self {
        Self {
            rows_shape: (n_speeds, n_bins),
            spans: vec![vec![None; n_speeds]; n_stations],
        }
    }

    /// Whether the log covers a sparse reset of `n_stations` layers of
    /// this row shape.
    fn covers(&self, n_stations: usize, n_speeds: usize, n_bins: usize) -> bool {
        self.rows_shape == (n_speeds, n_bins) && self.spans.len() >= n_stations
    }

    /// Widens `spans[layer][row]` to cover `[lo, hi]`.
    fn merge(&mut self, layer: usize, row: usize, lo: u32, hi: u32) {
        let slot = &mut self.spans[layer][row];
        *slot = Some(match *slot {
            None => (lo, hi),
            Some((a, b)) => (a.min(lo), b.max(hi)),
        });
    }

    /// The safe over-approximation for a stack whose write history is
    /// unknown: every row fully dirty, so the next sparse clear degrades
    /// to a full refill instead of missing a stale slot.
    fn all_dirty(n_stations: usize, n_speeds: usize, n_bins: usize) -> Self {
        Self {
            rows_shape: (n_speeds, n_bins),
            spans: vec![vec![Some((0, (n_bins - 1) as u32)); n_speeds]; n_stations],
        }
    }
}

/// Hands back an all-`None` Exact layer stack. The portable path refills
/// the whole pool ([`LayerPool::take_layers`]); the vectorized path, when
/// the dirty log covers the pooled stack's writes, clears only the logged
/// spans — equivalent by the [`DirtyLog`] invariant, at a small fraction
/// of the memory traffic. Either way the returned stack is bit-for-bit the
/// all-`None` stack, and the log is left clean.
fn reset_exact_layers<'p>(
    pool: &'p mut LayerPool<Option<Node>>,
    dirty: &mut Option<DirtyLog>,
    use_simd: bool,
    n_stations: usize,
    n_speeds: usize,
    n_bins: usize,
) -> (&'p mut [Vec<Option<Node>>], LeaseStats) {
    let len = n_speeds * n_bins;
    let sparse = use_simd
        && dirty
            .as_ref()
            .is_some_and(|log| log.covers(n_stations, n_speeds, n_bins))
        && pool.can_resume(n_stations, len);
    if sparse {
        let layers = pool
            .resume_layers(n_stations, len)
            .expect("can_resume verified the shape");
        let log = dirty.as_mut().expect("the sparse path checked for a log");
        for (layer, rows) in layers.iter_mut().zip(log.spans[..n_stations].iter_mut()) {
            for (vi, span) in rows.iter_mut().enumerate() {
                if let Some((lo, hi)) = span.take() {
                    layer[vi * n_bins + lo as usize..=vi * n_bins + hi as usize].fill(None);
                }
            }
        }
        let stats = LeaseStats {
            reuse_hits: n_stations as u64,
            allocations: 0,
        };
        telemetry::add("arena.reuse_hits", stats.reuse_hits);
        return (layers, stats);
    }
    let (layers, stats) = pool.take_layers(n_stations, len, None);
    *dirty = Some(DirtyLog::clean(n_stations, n_speeds, n_bins));
    (layers, stats)
}

/// Everything a warm-started window refresh needs to reuse the previous
/// solve ([`DpOptimizer::optimize_windows_refresh`]): the *window-free*
/// pruning floors, each retained layer's occupied-bin spans, the windows
/// the retention sweep was solved under, its certified pruning limit, and
/// the resulting profile. The retained layer contents themselves stay in
/// the arena's exact [`LayerPool`] (repair resumes them in place), which
/// is why any direct solve through the same arena invalidates this state.
#[derive(Debug, Clone)]
struct RepairState {
    /// Fingerprint of everything the retained solve depended on *except*
    /// the windows: physics, lattice, station grid, speed masks, dwell
    /// times, and the start state. A refresh with a different signature
    /// cannot reuse the layers.
    signature: u64,
    /// Per-station windows of the retained solve (`None` = no signal).
    /// The diff against a refresh's windows yields the dirty-layer set.
    windows: Vec<Option<Vec<TimeWindow>>>,
    /// Reachability mask (window-independent).
    live: Vec<Vec<bool>>,
    /// `rows_skipped` of the retained solve (window-independent).
    rows_skipped: u64,
    /// Window-free joint cost-to-go (`cost_to_go` with no dead stations).
    b_free: Vec<Vec<f64>>,
    /// Window-free pruning tables (`window_bounds` with no windows).
    bounds_free: Arc<WindowBounds>,
    /// Occupied time-bin span per `(layer, speed row)` of the retained
    /// sweep; `spans[d - 1]` seeds a repair that re-relaxes from layer
    /// `d`.
    spans: BinSpans,
    /// The rung the retention sweep was certified under (`None` =
    /// unbounded). Repairs relax with this same limit and re-verify.
    limit: Option<f64>,
    /// The retained solve's profile, returned as-is on a zero-diff
    /// refresh.
    profile: OptimizedProfile,
    /// Time-bin count of the retained layers.
    n_bins: usize,
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
fn exact_terminal(last: &[Option<Node>], n_bins: usize) -> Option<(usize, Node)> {
    let mut best: Option<(usize, Node)> = None;
    for (ti, slot) in last[..n_bins].iter().enumerate() {
        if let Some(node) = slot {
            if best.is_none_or(|(_, b)| node.cost < b.cost) {
                best = Some((ti, *node));
            }
        }
    }
    best
}

/// Walks the winning terminal's parent links back to the start, filling
/// `speeds_idx`/`times` (station-indexed).
fn backtrack_exact(
    ctx: &SolveCtx<'_>,
    layers: &[Vec<Option<Node>>],
    n_bins: usize,
    terminal_ti: usize,
    terminal: Node,
    speeds_idx: &mut Vec<usize>,
    times: &mut Vec<f64>,
) -> Result<()> {
    let n_stations = ctx.stations.len();
    speeds_idx.clear();
    speeds_idx.resize(n_stations, 0);
    times.clear();
    times.resize(n_stations, 0.0);
    let mut vi = 0usize;
    let mut ti = terminal_ti;
    times[n_stations - 1] = terminal.time;
    for i in (1..n_stations).rev() {
        let node = layers[i][vi * n_bins + ti].ok_or_else(|| {
            Error::infeasible("backtrack lost its parent state (inconsistent DP layers)")
        })?;
        times[i] = node.time;
        let pv = node.prev_v as usize;
        let pt = node.prev_t as usize;
        speeds_idx[i] = vi;
        vi = pv;
        ti = pt;
    }
    speeds_idx[0] = ctx.start_vi;
    times[0] = ctx.start_time;
    Ok(())
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
        let _solve_span = telemetry::span("dp.optimize_seconds");
        let setup_started = Instant::now();
        let prep = self.prepare(road, signals, start)?;
        let SolverArena {
            exact,
            exact_dirty,
            greedy,
            speeds_idx,
            times,
            transitions,
            bounds,
            repair,
        } = arena;
        // A direct solve clobbers the layer pools, so any retained repair
        // state no longer describes their contents.
        *repair = None;
        let (owned_tables, memo_ids, mut metrics) =
            self.resolve_tables(&prep, transitions, setup_started);
        let tables: Vec<&CostTable> = if self.config.memo {
            memo_ids.iter().map(|&id| transitions.table(id)).collect()
        } else {
            owned_tables.iter().collect()
        };
        let ctx = prep.ctx(&tables);
        let result = match self.config.time_handling {
            TimeHandling::Exact => self.solve_exact(
                &ctx,
                exact,
                exact_dirty,
                greedy,
                speeds_idx,
                times,
                bounds,
                &mut metrics,
            ),
            TimeHandling::Greedy => {
                self.solve_greedy(&ctx, greedy, speeds_idx, times, &mut metrics)
            }
        };
        match &result {
            Ok(profile) => profile.metrics.publish(),
            Err(_) => telemetry::add("dp.failed_solves", 1),
        }
        result
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
        if start.speed.value() < 0.0 {
            return Err(Error::invalid_input("start speed must be non-negative"));
        }
        if start.time.value() < 0.0 || start.time >= self.config.horizon {
            return Err(Error::invalid_input(
                "start time must be within [0, horizon)",
            ));
        }
        let stations = build_stations_from(road, start.position, self.config.ds);
        let n_stations = stations.len();
        let v_max_global = road.max_speed_limit();
        let n_speeds = (v_max_global.value() / self.config.dv.value()).floor() as usize + 1;
        let start_vi =
            ((start.speed.value() / self.config.dv.value()).round() as usize).min(n_speeds - 1);

        // Mandatory stop stations: stop signs still ahead, the destination,
        // and — only when departing from rest at the origin — the source.
        let mut must_stop = vec![false; n_stations];
        for stop in road.mandatory_stops() {
            if stop > start.position {
                must_stop[nearest_index(&stations, stop)] = true;
            }
        }
        if start.position == Meters::ZERO && start_vi == 0 {
            must_stop[0] = true;
        }

        // Signal windows snapped to stations (only lights still ahead).
        let mut station_windows: Vec<Option<&SignalConstraint>> = vec![None; n_stations];
        for sc in signals {
            if sc.position > start.position {
                station_windows[nearest_index(&stations, sc.position)] = Some(sc);
            }
        }

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
    /// arena memo cache (or builds them outright when memoization is off)
    /// and seeds the solve metrics with the setup accounting. Exactly one
    /// of the returned vectors is non-empty: memo class ids when
    /// `config.memo`, owned tables otherwise — the caller assembles the
    /// `&CostTable` slice from whichever applies, keeping the borrows on
    /// its own stack frame.
    fn resolve_tables(
        &self,
        prep: &Prepared<'_>,
        transitions: &mut TransitionTable,
        setup_started: Instant,
    ) -> (Vec<CostTable>, Vec<usize>, SolverMetrics) {
        transitions.reconcile(prep.table_sig);
        let mut stats = MemoStats::default();
        let mut owned_tables = Vec::new();
        let mut memo_ids = Vec::new();
        if self.config.memo {
            memo_ids = prep
                .classes
                .iter()
                .zip(&prep.grids)
                .map(|(key, spec)| transitions.class_for(*key, &self.energy, spec, &mut stats))
                .collect();
        } else {
            owned_tables = prep
                .grids
                .iter()
                .map(|spec| {
                    let (table, evals) = CostTable::build(&self.energy, spec);
                    stats.misses += 1;
                    stats.energy_evals += evals;
                    table
                })
                .collect();
        }
        let metrics = SolverMetrics {
            setup_seconds: setup_started.elapsed().as_secs_f64(),
            memo_hits: stats.hits,
            memo_misses: stats.misses,
            energy_evals: stats.energy_evals,
            ..SolverMetrics::default()
        };
        (owned_tables, memo_ids, metrics)
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
    /// layer stack worth retaining and delegates to `optimize_from_with`
    /// unchanged.
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
        if self.config.time_handling == TimeHandling::Greedy {
            return self.optimize_from_with(road, signals, start, arena);
        }
        let _solve_span = telemetry::span("dp.optimize_seconds");
        let setup_started = Instant::now();
        let prep = self.prepare(road, signals, start)?;
        let SolverArena {
            exact,
            exact_dirty,
            greedy,
            speeds_idx,
            times,
            transitions,
            bounds,
            repair,
        } = arena;
        let (owned_tables, memo_ids, mut metrics) =
            self.resolve_tables(&prep, transitions, setup_started);
        let tables: Vec<&CostTable> = if self.config.memo {
            memo_ids.iter().map(|&id| transitions.table(id)).collect()
        } else {
            owned_tables.iter().collect()
        };
        let sig = refresh_signature(&self.config, &prep);
        let ctx = prep.ctx(&tables);
        let result = self.solve_exact_refresh(
            &ctx,
            exact,
            exact_dirty,
            greedy,
            speeds_idx,
            times,
            bounds,
            &mut metrics,
            repair,
            sig,
        );
        match &result {
            Ok(profile) => profile.metrics.publish(),
            Err(_) => telemetry::add("dp.failed_solves", 1),
        }
        result
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
        let (owned_tables, memo_ids, _metrics) =
            self.resolve_tables(&prep, &mut arena.transitions, setup_started);
        let tables: Vec<&CostTable> = if self.config.memo {
            memo_ids
                .iter()
                .map(|&id| arena.transitions.table(id))
                .collect()
        } else {
            owned_tables.iter().collect()
        };
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

    /// Exact-mode refresh dispatch: try, in order, a zero-diff cache hit,
    /// an incremental dirty-suffix repair, and the full retention solve.
    #[allow(clippy::too_many_arguments)]
    fn solve_exact_refresh(
        &self,
        ctx: &SolveCtx<'_>,
        exact_pool: &mut LayerPool<Option<Node>>,
        exact_dirty: &mut Option<DirtyLog>,
        greedy_pool: &mut LayerPool<Option<GNode>>,
        speeds_idx: &mut Vec<usize>,
        times: &mut Vec<f64>,
        bounds_memo: &mut BoundsMemo,
        metrics: &mut SolverMetrics,
        repair: &mut Option<RepairState>,
        sig: u64,
    ) -> Result<OptimizedProfile> {
        let n_stations = ctx.stations.len();
        let n_bins = (self.config.horizon.value() / self.config.dt_bin.value()).ceil() as usize + 1;
        let new_windows: Vec<Option<Vec<TimeWindow>>> = ctx
            .station_windows
            .iter()
            .map(|o| o.map(|sc| sc.windows.clone()))
            .collect();
        if let Some(state) = repair.as_mut() {
            if state.signature == sig && state.n_bins == n_bins && state.windows.len() == n_stations
            {
                match (0..n_stations).find(|&i| state.windows[i] != new_windows[i]) {
                    None => {
                        // Nothing moved: the retained profile *is* the
                        // answer (it was certified bit-identical to a
                        // from-scratch solve under these exact windows).
                        metrics.rows_skipped = state.rows_skipped;
                        metrics.repair_hits += 1;
                        metrics.repair_layers_skipped += (n_stations - 1) as u64;
                        let mut profile = state.profile.clone();
                        profile.metrics = *metrics;
                        return Ok(profile);
                    }
                    // Station 0 sits behind the start and never carries a
                    // window, so a dirty index is ≥ 1 in practice — which
                    // is also what the resume needs (layer 0 is the seed).
                    Some(d) if d >= 1 => {
                        if let Some(profile) = self.try_repair(
                            ctx,
                            exact_pool,
                            exact_dirty,
                            speeds_idx,
                            times,
                            metrics,
                            state,
                            &new_windows,
                            d,
                            n_bins,
                        ) {
                            return Ok(profile);
                        }
                    }
                    Some(_) => {}
                }
            }
        }
        metrics.repair_full_resolves += 1;
        self.solve_exact_retained(
            ctx,
            exact_pool,
            exact_dirty,
            greedy_pool,
            speeds_idx,
            times,
            bounds_memo,
            metrics,
            repair,
            sig,
            new_windows,
            n_bins,
        )
    }

    /// Attempts the incremental repair: resume the retained layer stack,
    /// wipe and re-relax layers `d..` under the retained *window-free*
    /// floors and certified limit, and re-verify the terminal against
    /// that limit. Layers before `d` are exactly what a from-scratch
    /// bounded sweep under the new windows would compute — they depend
    /// only on windows at stations `< d` (unchanged, `d` is the first
    /// diff) and on the floors/limit (window-independent) — so a passing
    /// verification certifies the repaired profile bit-identical to a
    /// from-scratch solve. Returns `None` whenever that proof does not go
    /// through (resume shape mismatch, terminal over the limit, or no
    /// terminal at all); the caller then runs the authoritative full
    /// retention solve.
    #[allow(clippy::too_many_arguments)]
    fn try_repair(
        &self,
        ctx: &SolveCtx<'_>,
        exact_pool: &mut LayerPool<Option<Node>>,
        exact_dirty: &mut Option<DirtyLog>,
        speeds_idx: &mut Vec<usize>,
        times: &mut Vec<f64>,
        metrics: &mut SolverMetrics,
        state: &mut RepairState,
        new_windows: &[Option<Vec<TimeWindow>>],
        d: usize,
        n_bins: usize,
    ) -> Option<OptimizedProfile> {
        let relax_started = Instant::now();
        let n_stations = ctx.stations.len();
        let use_simd = simd::dispatch(self.config.simd);
        let layers = exact_pool.resume_layers(n_stations, ctx.n_speeds * n_bins)?;
        // Wipe the dirty suffix. The vectorized path clears only the
        // logged spans (see [`DirtyLog`]); a missing or reshaped log
        // degrades to `all_dirty`, making the sparse clear a full one.
        if !exact_dirty
            .as_ref()
            .is_some_and(|log| log.covers(n_stations, ctx.n_speeds, n_bins))
        {
            *exact_dirty = Some(DirtyLog::all_dirty(n_stations, ctx.n_speeds, n_bins));
        }
        let dirty_log = exact_dirty.as_mut().expect("installed just above");
        for (layer, rows) in layers[d..]
            .iter_mut()
            .zip(dirty_log.spans[d..n_stations].iter_mut())
        {
            if use_simd {
                for (vi, span) in rows.iter_mut().enumerate() {
                    if let Some((lo, hi)) = span.take() {
                        layer[vi * n_bins + lo as usize..=vi * n_bins + hi as usize].fill(None);
                    }
                }
            } else {
                layer.fill(None);
                rows.fill(None);
            }
        }
        metrics.rows_skipped = state.rows_skipped;
        let mut span_log = state.spans.clone();
        span_log.truncate(d);
        self.relax_exact_layers(
            ctx,
            layers,
            d,
            state.spans[d - 1].clone(),
            &state.live,
            &state.b_free,
            &state.bounds_free,
            state.limit,
            n_bins,
            use_simd,
            metrics,
            dirty_log,
            Some(&mut span_log),
        );
        let (ti, terminal) = exact_terminal(&layers[n_stations - 1], n_bins)?;
        if let Some(limit) = state.limit {
            // Same certification as a ladder rung: the repaired sweep is
            // provably lossless only while its value stays under the
            // retained limit.
            if terminal.cost > limit {
                return None;
            }
        }
        metrics.relax_seconds = relax_started.elapsed().as_secs_f64();
        let backtrack_started = Instant::now();
        backtrack_exact(ctx, layers, n_bins, ti, terminal, speeds_idx, times).ok()?;
        metrics.backtrack_seconds = backtrack_started.elapsed().as_secs_f64();
        metrics.repair_hits += 1;
        metrics.repair_layers_skipped += (d - 1) as u64;
        let profile = match self.assemble(ctx, speeds_idx, times, terminal.violations(), *metrics) {
            Ok(profile) => profile,
            Err(_) => {
                metrics.repair_hits -= 1;
                metrics.repair_layers_skipped -= (d - 1) as u64;
                return None;
            }
        };
        state.windows = new_windows.to_vec();
        state.spans = span_log;
        state.profile = profile.clone();
        Some(profile)
    }

    /// A full Exact solve that *retains* its layer stack for later window
    /// repairs: identical result to [`solve_exact`](Self::solve_exact),
    /// except the pruning floors are computed window-free (`cost_to_go`
    /// with no cone-dead stations, `window_bounds` against no windows) so
    /// they stay admissible under any later window shift, the aspiration
    /// ladder starts at correspondingly looser rungs, and the winning
    /// rung's layer spans, floors, limit and profile are stored in the
    /// arena as [`RepairState`].
    #[allow(clippy::too_many_arguments)]
    fn solve_exact_retained(
        &self,
        ctx: &SolveCtx<'_>,
        exact_pool: &mut LayerPool<Option<Node>>,
        exact_dirty: &mut Option<DirtyLog>,
        greedy_pool: &mut LayerPool<Option<GNode>>,
        speeds_idx: &mut Vec<usize>,
        times: &mut Vec<f64>,
        bounds_memo: &mut BoundsMemo,
        metrics: &mut SolverMetrics,
        repair: &mut Option<RepairState>,
        sig: u64,
        new_windows: Vec<Option<Vec<TimeWindow>>>,
        n_bins: usize,
    ) -> Result<OptimizedProfile> {
        // A failed solve must not leave a stale snapshot behind.
        *repair = None;
        let relax_started = Instant::now();
        let n_stations = ctx.stations.len();
        let (live, rows_skipped) = reachability(ctx);
        metrics.rows_skipped = rows_skipped;
        if !live[0][ctx.start_vi] {
            return Err(Error::infeasible("no kinematically feasible profile"));
        }
        let no_dead = vec![false; n_stations];
        let b_free = self.cost_to_go(ctx, &live, &no_dead);
        let none_windows: Vec<Option<&SignalConstraint>> = vec![None; n_stations];
        let ctx_free = SolveCtx {
            station_windows: &none_windows,
            ..*ctx
        };
        let bounds_free = self.window_bounds(&ctx_free, n_bins, bounds_memo);
        let mut span_log: BinSpans = Vec::new();
        let (profile, limit) = self.solve_exact_core(
            ctx,
            exact_pool,
            exact_dirty,
            greedy_pool,
            speeds_idx,
            times,
            metrics,
            &live,
            &b_free,
            &bounds_free,
            // Window-free floors undercut window-forced waiting, so the
            // tight 6/24 s rungs would rarely certify; start looser.
            &[96.0, 384.0],
            n_bins,
            Some(&mut span_log),
            relax_started,
        )?;
        *repair = Some(RepairState {
            signature: sig,
            windows: new_windows,
            live,
            rows_skipped,
            b_free,
            bounds_free,
            spans: span_log,
            limit,
            profile: profile.clone(),
            n_bins,
        });
        Ok(profile)
    }
}

impl DpOptimizer {
    /// Stations whose every arrival window is provably unreachable: the
    /// earliest possible arrival (a min-plus sweep of the duration tables
    /// over live rows) already postdates each window's close, or the window
    /// opens beyond the horizon. Every surviving path pays `M` there, so
    /// the cost-to-go bound may charge it unconditionally.
    fn cone_dead(&self, ctx: &SolveCtx<'_>, live: &[Vec<bool>]) -> Vec<bool> {
        let n_stations = ctx.stations.len();
        let n = ctx.n_speeds;
        let horizon = self.config.horizon.value();
        let mut dead = vec![false; n_stations];
        let mut tmin_prev = vec![f64::INFINITY; n];
        tmin_prev[ctx.start_vi] = ctx.start_time;
        for i in 1..n_stations {
            let table = ctx.tables[i - 1];
            let mut tmin = vec![f64::INFINITY; n];
            let mut global = f64::INFINITY;
            for (u, slot) in tmin.iter_mut().enumerate() {
                if !live[i][u] {
                    continue;
                }
                let mut best = f64::INFINITY;
                for v in 0..n {
                    if !live[i - 1][v] && i > 1 {
                        continue;
                    }
                    if tmin_prev[v].is_infinite() {
                        continue;
                    }
                    if let Some((_, dur)) = table.get(v, u) {
                        // Same association as the DP's arrival clock.
                        let t = (tmin_prev[v] + dur) + ctx.dwell[i];
                        best = best.min(t);
                    }
                }
                *slot = best;
                global = global.min(best);
            }
            if let Some(sc) = ctx.station_windows[i] {
                dead[i] = sc
                    .windows
                    .iter()
                    .all(|w| w.end.value() <= global - CONE_SLACK || w.start.value() > horizon);
            }
            tmin_prev = tmin;
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

    #[allow(clippy::too_many_arguments)]
    fn solve_exact(
        &self,
        ctx: &SolveCtx<'_>,
        exact_pool: &mut LayerPool<Option<Node>>,
        exact_dirty: &mut Option<DirtyLog>,
        greedy_pool: &mut LayerPool<Option<GNode>>,
        speeds_idx: &mut Vec<usize>,
        times: &mut Vec<f64>,
        bounds_memo: &mut BoundsMemo,
        metrics: &mut SolverMetrics,
    ) -> Result<OptimizedProfile> {
        let relax_started = Instant::now();
        let n_bins = (self.config.horizon.value() / self.config.dt_bin.value()).ceil() as usize + 1;

        // Reachability masks (exact — see `reachability`). If the start row
        // cannot reach the terminal at all, no sweep can succeed.
        let (live, rows_skipped) = reachability(ctx);
        metrics.rows_skipped = rows_skipped;
        if !live[0][ctx.start_vi] {
            return Err(Error::infeasible("no kinematically feasible profile"));
        }
        let dead = self.cone_dead(ctx, &live);
        let ctg = self.cost_to_go(ctx, &live, &dead);
        let bounds = self.window_bounds(ctx, n_bins, bounds_memo);
        self.solve_exact_core(
            ctx,
            exact_pool,
            exact_dirty,
            greedy_pool,
            speeds_idx,
            times,
            metrics,
            &live,
            &ctg,
            &bounds,
            &[6.0, 24.0, 96.0, 384.0],
            n_bins,
            None,
            relax_started,
        )
        .map(|(profile, _)| profile)
    }

    /// The ladder-driven Exact sweep over caller-supplied masks and floor
    /// tables. `slacks` parameterizes the optimistic aspiration rungs (a
    /// window-refresh retention sweep uses looser ones, so its certified
    /// limit survives window shifts); when `span_log` is given, the
    /// *winning* rung's occupied-bin spans are recorded per layer (layer 0
    /// first) so a later repair can resume relaxation mid-stack. Returns
    /// the profile together with the rung it was certified under
    /// (`None` = unbounded).
    #[allow(clippy::too_many_arguments)]
    fn solve_exact_core(
        &self,
        ctx: &SolveCtx<'_>,
        exact_pool: &mut LayerPool<Option<Node>>,
        exact_dirty: &mut Option<DirtyLog>,
        greedy_pool: &mut LayerPool<Option<GNode>>,
        speeds_idx: &mut Vec<usize>,
        times: &mut Vec<f64>,
        metrics: &mut SolverMetrics,
        live: &[Vec<bool>],
        ctg: &[Vec<f64>],
        bounds: &WindowBounds,
        slacks: &[f64],
        n_bins: usize,
        mut span_log: Option<&mut BinSpans>,
        relax_started: Instant,
    ) -> Result<(OptimizedProfile, Option<f64>)> {
        let n_stations = ctx.stations.len();
        let n_speeds = ctx.n_speeds;
        let dt_bin = self.config.dt_bin.value();
        let use_simd = simd::dispatch(self.config.simd);

        // Presolve: the Greedy DP's terminal cost is an achievable-path
        // cost accumulated with bit-identical float expressions, so it
        // upper-bounds the candidate costs along *some* complete path.
        let (glayers, glease) = greedy_pool.take_layers(n_stations, n_speeds, None);
        metrics.arena_reuse_hits += glease.reuse_hits;
        metrics.arena_allocations += glease.allocations;
        self.relax_greedy(ctx, glayers).add_to(metrics);
        // Tiny relative margin so accumulated rounding in the bound
        // arithmetic can never prune the true winner's path.
        let greedy_ub =
            glayers[n_stations - 1][0].map(|node| node.cost + 1e-9 * node.cost.abs().max(1.0));

        // Aspiration ladder: each rung is a candidate pruning limit,
        // tightest first. The verification below certifies a passing
        // rung bit-identical to the unbounded sweep *without* needing
        // the limit to be achievable, so the first rungs can undercut
        // the greedy path cost — crucial when the greedy presolve pays
        // a window penalty and its bound degenerates to ~`penalty_m`.
        // A failing rung costs one (heavily pruned, therefore cheap)
        // sweep; the ladder always ends in the unbounded `None`.
        let b0 = ctg[0][ctx.start_vi];
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

        // Bounded sweeps, verified; fall back down the ladder (ending
        // unbounded) if time-bin merging pushed the DP value past the
        // rung (rare — see the module docs).
        for use_bound in ladder {
            let (layers, lease) = reset_exact_layers(
                exact_pool,
                exact_dirty,
                use_simd,
                n_stations,
                n_speeds,
                n_bins,
            );
            metrics.arena_reuse_hits += lease.reuse_hits;
            metrics.arena_allocations += lease.allocations;
            let dirty_log = exact_dirty
                .as_mut()
                .expect("reset_exact_layers installs a log");

            let start_ti = ((ctx.start_time / dt_bin).round() as usize).min(n_bins - 1);
            layers[0][ctx.start_vi * n_bins + start_ti] = Some(Node {
                cost: 0.0,
                time: ctx.start_time,
                prev_v: ctx.start_vi as u32,
                prev_t: start_ti as u32,
                violations_1: NonZeroU32::MIN,
            });
            dirty_log.merge(0, ctx.start_vi, start_ti as u32, start_ti as u32);
            // Occupied time-bin span per source row, maintained layer to
            // layer so the relax scans only bins that can hold a state.
            let mut spans0: Vec<Option<(u32, u32)>> = vec![None; n_speeds];
            spans0[ctx.start_vi] = Some((start_ti as u32, start_ti as u32));
            if let Some(log) = span_log.as_deref_mut() {
                log.clear();
                log.push(spans0.clone());
            }
            self.relax_exact_layers(
                ctx,
                layers,
                1,
                spans0,
                live,
                ctg,
                bounds,
                use_bound,
                n_bins,
                use_simd,
                metrics,
                dirty_log,
                span_log.as_deref_mut(),
            );

            // Pick the cheapest terminal state at v = 0.
            let best = exact_terminal(&layers[n_stations - 1], n_bins);
            if let Some(limit) = use_bound {
                // A rung is only certified when the bounded sweep's
                // value stays under it; otherwise the rung undercut
                // the optimum (or bin merging pushed the DP value past
                // the greedy path cost) and pruning is not provably
                // lossless — retry with the next, looser rung. The
                // ladder ends in `None`, which always verifies.
                if !matches!(best, Some((_, node)) if node.cost <= limit) {
                    continue;
                }
            }
            let (ti, terminal) =
                best.ok_or_else(|| Error::infeasible("no kinematically feasible profile"))?;
            metrics.relax_seconds = relax_started.elapsed().as_secs_f64();

            let backtrack_started = Instant::now();
            backtrack_exact(ctx, layers, n_bins, ti, terminal, speeds_idx, times)?;
            metrics.backtrack_seconds = backtrack_started.elapsed().as_secs_f64();

            let profile = self.assemble(ctx, speeds_idx, times, terminal.violations(), *metrics)?;
            return Ok((profile, use_bound));
        }
        // The final rung is `None`, whose sweep is unbounded and always
        // either returns a profile or fails with `infeasible` above.
        unreachable!("the unbounded ladder rung always returns")
    }

    /// Relaxes Exact-mode layers `first..n_stations` in place, given the
    /// occupied-bin spans of layer `first - 1`. This is the hot loop shared
    /// by a full ladder sweep (`first == 1`) and an incremental window
    /// repair, which resumes at the first dirty layer with the retained
    /// spans. Appends each relaxed layer's spans to `span_log` when given.
    #[allow(clippy::too_many_arguments)]
    fn relax_exact_layers(
        &self,
        ctx: &SolveCtx<'_>,
        layers: &mut [Vec<Option<Node>>],
        first: usize,
        spans_first: Vec<Option<(u32, u32)>>,
        live: &[Vec<bool>],
        ctg: &[Vec<f64>],
        bounds: &WindowBounds,
        limit: Option<f64>,
        n_bins: usize,
        use_simd: bool,
        metrics: &mut SolverMetrics,
        dirty: &mut DirtyLog,
        mut span_log: Option<&mut BinSpans>,
    ) {
        let n_stations = ctx.stations.len();
        let n_speeds = ctx.n_speeds;
        let tw = self.config.time_weight;
        let mut c = RelaxCounters::default();
        let mut spans_prev = spans_first;
        for i in first..n_stations {
            let table = ctx.tables[i - 1];
            let ds = ctx.layer_ds[i - 1];
            let (done, rest) = layers.split_at_mut(i);
            let prev_layer: &[Option<Node>] = &done[i - 1];
            let layer: &mut [Option<Node>] = &mut rest[0];
            let env = RelaxEnv {
                horizon: self.config.horizon.value(),
                dt_bin: self.config.dt_bin.value(),
                dwell: ctx.dwell[i],
                penalty_m: self.config.penalty_m,
                limit,
                window: ctx.station_windows[i],
                live: &live[i],
                ctg: &ctg[i],
                emin: &bounds.emin[i],
                wait: &bounds.wait[i],
            };
            let mut spans_next: Vec<Option<(u32, u32)>> = vec![None; n_speeds];

            // Source-speed-outer over SoA cost rows: each group of up to
            // MR source states (one vi, ti ascending) is relaxed over
            // NR-lane target tiles. For a fixed slot (vj, tj) candidates
            // arrive in (vi asc, ti asc) order, so the strict `<` keeps the
            // same winner under either kernel dispatch.
            let mut srcs = [simd::TileSrc::default(); simd::MR];
            let mut metas = [(0u32, NonZeroU32::MIN); simd::MR];
            for (vi, span) in spans_prev.iter().enumerate() {
                let Some((ti_lo, ti_hi)) = *span else {
                    continue;
                };
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
                    if live[i][lo + k] && d.is_nan() {
                        c.pruned += 1;
                    }
                }
                let mut m = 0usize;
                for ti in ti_lo as usize..=ti_hi as usize {
                    let Some(node) = prev_layer[vi * n_bins + ti] else {
                        continue;
                    };
                    srcs[m] = simd::TileSrc {
                        cost: node.cost,
                        time: node.time,
                    };
                    metas[m] = (ti as u32, node.violations_1);
                    m += 1;
                    if m == simd::MR {
                        relax_exact_group(
                            use_simd,
                            tw,
                            vi as u32,
                            charge_row,
                            dur_row,
                            &srcs,
                            &metas,
                            lo,
                            n_bins,
                            &env,
                            layer,
                            &mut spans_next,
                            &mut c,
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
                        &mut spans_next,
                        &mut c,
                    );
                }
            }
            for (vj, span) in spans_next.iter().enumerate() {
                if let Some((s_lo, s_hi)) = *span {
                    dirty.merge(i, vj, s_lo, s_hi);
                }
            }
            spans_prev = spans_next;
            if let Some(log) = span_log.as_deref_mut() {
                log.push(spans_prev.clone());
            }
        }
        c.add_to(metrics);
    }

    fn solve_greedy(
        &self,
        ctx: &SolveCtx<'_>,
        greedy_pool: &mut LayerPool<Option<GNode>>,
        speeds_idx: &mut Vec<usize>,
        times: &mut Vec<f64>,
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
        speeds_idx.clear();
        speeds_idx.resize(n_stations, 0);
        times.clear();
        times.resize(n_stations, 0.0);
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
            speeds_idx,
            times,
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

    /// A direct solve through the same arena clobbers the layer pools, so
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

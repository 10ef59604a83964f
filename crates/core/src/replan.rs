//! Closed-loop replanning (an extension beyond the paper).
//!
//! The paper's protocol is open-loop: optimize once, replay via TraCI, and
//! accept the simulator's perturbations (Fig. 6 shows the plans drifting).
//! With [`StartState`]-capable optimization, the
//! plan can instead be *refreshed* from the EV's live state whenever it has
//! drifted too far — an MPC-style loop that keeps the arrival times locked
//! onto the queue-free windows even after disturbances (a slow platoon, an
//! unexpected stop, a longer-than-modeled sign service).

use crate::dp::{OptimizedProfile, SignalConstraint, SolverArena, StartState};
use crate::pipeline::VelocityOptimizationSystem;
use serde::{Deserialize, Serialize};
use velopt_common::units::{Meters, MetersPerSecond, Seconds};
use velopt_common::{Error, Result};

/// Replanning policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplanConfig {
    /// Re-optimize when the EV's actual arrival clock has drifted from the
    /// active plan by more than this.
    pub drift_threshold: Seconds,
    /// Never replan more often than this (planning is not free).
    pub min_interval: Seconds,
    /// Route [`refresh_windows`](Replanner::refresh_windows) through the
    /// warm-started incremental repair
    /// ([`DpOptimizer::optimize_windows_refresh`](crate::dp::DpOptimizer::optimize_windows_refresh))
    /// instead of a from-scratch solve. The plan is bit-identical either
    /// way; off exists for A/B benchmarking.
    #[serde(default = "default_repair")]
    pub repair: bool,
}

/// Configs serialized before the repair knob existed deserialize with it
/// enabled.
fn default_repair() -> bool {
    true
}

impl Default for ReplanConfig {
    fn default() -> Self {
        Self {
            drift_threshold: Seconds::new(3.0),
            min_interval: Seconds::new(5.0),
            repair: default_repair(),
        }
    }
}

/// An MPC-style wrapper around the velocity-optimization system.
///
/// # Examples
///
/// ```
/// # fn main() -> velopt_common::Result<()> {
/// use velopt_common::units::{Meters, MetersPerSecond, Seconds};
/// use velopt_core::pipeline::{SystemConfig, VelocityOptimizationSystem};
/// use velopt_core::replan::{ReplanConfig, Replanner};
///
/// let system = VelocityOptimizationSystem::new(SystemConfig::us25())?;
/// let mut replanner = Replanner::new(system, ReplanConfig::default())?;
/// // The EV reports its live state; the replanner returns the speed to
/// // command and refreshes the plan when drift demands it.
/// let cmd = replanner.command(
///     Meters::new(900.0),
///     MetersPerSecond::new(12.0),
///     Seconds::new(70.0),
/// )?;
/// assert!(cmd.value() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Replanner {
    system: VelocityOptimizationSystem,
    config: ReplanConfig,
    windows: Vec<SignalConstraint>,
    plan: OptimizedProfile,
    last_replan_at: Seconds,
    replans: usize,
    /// Solver scratch kept across ticks so every refresh after the first
    /// reuses the previous refresh's DP layer buffers and its memoized
    /// transition-cost tables (refreshes over the same corridor hit the
    /// same `(length, grade)` classes and skip the energy model entirely),
    /// plus the window-bound tables of recent solves, reused when a
    /// re-solve's stations, windows and lattice match one of them.
    arena: SolverArena,
}

impl Replanner {
    /// Builds the replanner and computes the initial (origin) plan.
    ///
    /// # Errors
    ///
    /// Propagates window-construction and optimization failures.
    pub fn new(system: VelocityOptimizationSystem, config: ReplanConfig) -> Result<Self> {
        if config.drift_threshold.value() <= 0.0 || config.min_interval.value() < 0.0 {
            return Err(Error::invalid_input("replan thresholds must be positive"));
        }
        let windows = system.queue_windows()?;
        let plan = system.optimize()?;
        Ok(Self {
            system,
            config,
            windows,
            plan,
            last_replan_at: Seconds::ZERO,
            replans: 0,
            arena: SolverArena::new(),
        })
    }

    /// The currently-active plan.
    pub fn plan(&self) -> &OptimizedProfile {
        &self.plan
    }

    /// How many times the plan has been refreshed.
    pub fn replans(&self) -> usize {
        self.replans
    }

    /// The queue-free windows the active plan was optimized against.
    pub fn windows(&self) -> &[SignalConstraint] {
        &self.windows
    }

    /// Time drift of the live state against the active plan (positive =
    /// running late).
    pub fn drift(&self, position: Meters, time: Seconds) -> Seconds {
        time - self.plan.arrival_time_at(position)
    }

    /// Installs an updated set of queue-free windows (e.g. a fresh `T_q`
    /// push from the cloud predictor) and re-solves the plan from its
    /// current origin state. With [`ReplanConfig::repair`] on, the solve
    /// goes through
    /// [`DpOptimizer::optimize_windows_refresh`](crate::dp::DpOptimizer::optimize_windows_refresh):
    /// when only the windows moved since the previous refresh through this
    /// replanner, the solver revalidates its retained DP layer stack and
    /// re-relaxes only the dirty suffix instead of re-running the full DP.
    /// The resulting plan is bit-identical either way.
    ///
    /// # Errors
    ///
    /// Propagates optimization failures; the previous plan and windows
    /// stay active when the refresh fails.
    pub fn refresh_windows(&mut self, windows: Vec<SignalConstraint>) -> Result<&OptimizedProfile> {
        let _refresh_span = telemetry::span("replan.window_refresh_seconds");
        let start = StartState {
            position: self.plan.stations[0],
            speed: self.plan.speeds[0],
            time: self.plan.times[0],
        };
        let optimizer = self.system.optimizer();
        let road = &self.system.config().road;
        let plan = if self.config.repair {
            optimizer.optimize_windows_refresh(road, &windows, start, &mut self.arena)?
        } else {
            optimizer.optimize_from_with(road, &windows, start, &mut self.arena)?
        };
        self.windows = windows;
        self.plan = plan;
        self.replans += 1;
        telemetry::add("replan.window_refreshes", 1);
        Ok(&self.plan)
    }

    /// Returns the speed to command for the live state, replanning first if
    /// the drift exceeds the threshold (and the cool-down allows).
    ///
    /// # Errors
    ///
    /// Propagates replanning failures; the previous plan stays active if a
    /// refresh fails because the live state is infeasible (e.g. stopped in
    /// a spot the grid cannot launch from), so control degrades gracefully.
    pub fn command(
        &mut self,
        position: Meters,
        speed: MetersPerSecond,
        time: Seconds,
    ) -> Result<MetersPerSecond> {
        let _tick_span = telemetry::span("replan.tick_seconds");
        let drift = self.drift(position, time).abs();
        let cooled = (time - self.last_replan_at) >= self.config.min_interval;
        // Replanning only makes sense strictly inside the corridor and the
        // planning horizon; outside, serve the stale plan (it is about to
        // end anyway).
        let road = &self.system.config().road;
        let plannable = position.value() > 0.0
            && position < road.length() - Meters::new(1.0)
            && time.value() >= 0.0
            && time < self.system.config().dp.horizon;
        if plannable && drift > self.config.drift_threshold && cooled {
            let start = StartState {
                position,
                speed,
                time,
            };
            match self.system.optimizer().optimize_from_with(
                &self.system.config().road,
                &self.windows,
                start,
                &mut self.arena,
            ) {
                Ok(plan) => {
                    self.plan = plan;
                    self.replans += 1;
                    self.last_replan_at = time;
                    telemetry::add("replan.refreshes", 1);
                }
                Err(Error::Infeasible(_)) => {
                    // Keep the stale plan; control degrades gracefully.
                    telemetry::add("replan.kept_stale", 1);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(self.plan.speed_at_position(position))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::SystemConfig;
    use velopt_queue::TimeWindow;

    fn replanner() -> Replanner {
        let system = VelocityOptimizationSystem::new(SystemConfig::us25_rush()).unwrap();
        Replanner::new(system, ReplanConfig::default()).unwrap()
    }

    #[test]
    fn rejects_bad_config() {
        let system = VelocityOptimizationSystem::new(SystemConfig::us25()).unwrap();
        assert!(Replanner::new(
            system,
            ReplanConfig {
                drift_threshold: Seconds::ZERO,
                ..ReplanConfig::default()
            },
        )
        .is_err());
    }

    #[test]
    fn on_schedule_state_does_not_replan() {
        let mut r = replanner();
        let pos = Meters::new(1000.0);
        let t = r.plan().arrival_time_at(pos);
        let v = r.plan().speed_at_position(pos);
        let cmd = r.command(pos, v, t).unwrap();
        assert_eq!(r.replans(), 0);
        assert!((cmd.value() - v.value()).abs() < 1e-9);
    }

    #[test]
    fn late_state_triggers_replan_and_recovers_windows() {
        let mut r = replanner();
        let pos = Meters::new(1000.0);
        let planned_t = r.plan().arrival_time_at(pos);
        // The EV shows up 12 s late at reduced speed (was stuck in traffic).
        let late_t = planned_t + Seconds::new(12.0);
        let _ = r.command(pos, MetersPerSecond::new(10.0), late_t).unwrap();
        assert_eq!(r.replans(), 1, "drift should force a refresh");
        // The refreshed plan starts at the live state...
        assert_eq!(r.plan().stations[0], pos);
        assert!((r.plan().times[0] - late_t).abs().value() < 1e-9);
        // ...and still threads every remaining light's queue-free window.
        assert_eq!(r.plan().window_violations, 0);
    }

    #[test]
    fn cooldown_limits_replan_rate() {
        let mut r = replanner();
        let pos = Meters::new(800.0);
        let planned_t = r.plan().arrival_time_at(pos);
        let late = planned_t + Seconds::new(10.0);
        let _ = r.command(pos, MetersPerSecond::new(12.0), late).unwrap();
        assert_eq!(r.replans(), 1);
        // Immediately after: still drifting, but within the cooldown.
        let _ = r
            .command(
                Meters::new(810.0),
                MetersPerSecond::new(12.0),
                late + Seconds::new(1.0),
            )
            .unwrap();
        assert_eq!(r.replans(), 1, "cooldown must suppress the second refresh");
    }

    #[test]
    fn second_replan_reuses_the_arena() {
        let mut r = replanner();
        let pos = Meters::new(800.0);
        let late = r.plan().arrival_time_at(pos) + Seconds::new(10.0);
        let _ = r.command(pos, MetersPerSecond::new(12.0), late).unwrap();
        assert_eq!(r.replans(), 1);
        // First refresh had to allocate its layers.
        assert!(r.plan().metrics.arena_allocations > 0);

        // Past the cooldown, drifting again further down the corridor: the
        // refreshed solve is no larger than the first, so every layer comes
        // from the arena.
        let pos2 = Meters::new(1200.0);
        let late2 =
            (r.plan().arrival_time_at(pos2) + Seconds::new(10.0)).max(late + Seconds::new(6.0));
        let _ = r.command(pos2, MetersPerSecond::new(12.0), late2).unwrap();
        assert_eq!(r.replans(), 2);
        assert_eq!(r.plan().metrics.arena_allocations, 0);
        assert!(r.plan().metrics.arena_reuse_hits > 0);
        // The second refresh's stations are grid-aligned with the first's
        // (both step the same Δs over the same corridor), so every segment
        // class is already in the arena's transition memo.
        assert_eq!(r.plan().metrics.memo_misses, 0);
        assert_eq!(r.plan().metrics.energy_evals, 0);
        assert!(r.plan().metrics.memo_hits > 0);
    }

    #[test]
    fn window_refresh_repairs_through_the_arena() {
        let mut r = replanner();
        let w = r.windows.clone();
        // First push does the retention solve; an identical push is a
        // zero-diff repair hit.
        let first = r.refresh_windows(w.clone()).unwrap().metrics;
        assert_eq!(first.repair_full_resolves, 1);
        assert_eq!(first.repair_hits, 0);
        let second = r.refresh_windows(w.clone()).unwrap().metrics;
        assert_eq!(second.repair_hits, 1);
        assert_eq!(second.repair_full_resolves, 0);

        // Shift every window by 2 s: a dirty-suffix repair (or, if the
        // retained limit no longer certifies, a full fallback) — either
        // way the plan must match a from-scratch solve exactly.
        let shifted: Vec<SignalConstraint> = w
            .iter()
            .map(|sc| SignalConstraint {
                position: sc.position,
                windows: sc
                    .windows
                    .iter()
                    .map(|tw| TimeWindow {
                        start: tw.start + Seconds::new(2.0),
                        end: tw.end + Seconds::new(2.0),
                    })
                    .collect(),
            })
            .collect();
        let repaired = r.refresh_windows(shifted.clone()).unwrap().clone();
        assert_eq!(
            repaired.metrics.repair_hits + repaired.metrics.repair_full_resolves,
            1
        );
        let scratch = r
            .system
            .optimizer()
            .optimize(&r.system.config().road, &shifted)
            .unwrap();
        assert_eq!(repaired, scratch);
        assert_eq!(r.replans(), 3);
    }

    #[test]
    fn repair_knob_off_solves_from_scratch() {
        let system = VelocityOptimizationSystem::new(SystemConfig::us25_rush()).unwrap();
        let mut r = Replanner::new(
            system,
            ReplanConfig {
                repair: false,
                ..ReplanConfig::default()
            },
        )
        .unwrap();
        let w = r.windows.clone();
        let with_repair = replanner().refresh_windows(w.clone()).unwrap().clone();
        let metrics = r.refresh_windows(w).unwrap().metrics;
        assert_eq!(metrics.repair_hits, 0);
        assert_eq!(metrics.repair_full_resolves, 0);
        // Same plan either way — the repair path only changes the work.
        assert_eq!(*r.plan(), with_repair);
    }

    #[test]
    fn drift_sign_convention() {
        let r = replanner();
        let pos = Meters::new(1500.0);
        let t = r.plan().arrival_time_at(pos);
        assert!(r.drift(pos, t + Seconds::new(5.0)).value() > 0.0);
        assert!(r.drift(pos, t - Seconds::new(5.0)).value() < 0.0);
    }
}

//! Queue-aware dynamic-programming velocity optimization for pure EVs — the
//! paper's primary contribution (§II-C).
//!
//! Given a road corridor, an EV energy model, and a prediction of when the
//! waiting queue in front of each traffic light is empty, the optimizer
//! finds the velocity profile from source to destination that minimizes
//! battery charge consumption subject to (Eq. 7):
//!
//! * speed limits `v_min(s) ≤ v(s) ≤ v_max(s)`,
//! * comfort acceleration bounds `a_min ≤ a ≤ a_max`,
//! * mandatory stops (`v = 0`) at the source, every stop sign, and the
//!   destination,
//!
//! and — the novelty — a penalty (Eq. 11–12) that forces the EV's arrival
//! time at each signal into the **queue-free windows `T_q`** predicted by
//! the QL model, so the EV glides through greens without meeting a single
//! waiting vehicle.
//!
//! # Modules
//!
//! * [`dp`] — the space–velocity(–time) dynamic program, with both the
//!   exact time-expanded state space and the paper-literal greedy time
//!   handling as an ablation.
//! * [`windows`] — builds per-light arrival windows: queue-aware `T_q`
//!   (ours) or raw green phases (the prior DP of Ozatay et al. \[2\]).
//! * [`profiles`] — synthetic **mild** and **fast** human driving profiles,
//!   substituting for the traces the authors collected on US-25 (Fig. 7a).
//! * [`pipeline`] — the end-to-end system: SAE arrival prediction → QL
//!   model → `T_q` windows → DP (Fig. 6–8 are produced from this).
//! * [`analysis`] — energy/trip-time/stop metrics and profile comparison.
//!
//! # Examples
//!
//! ```
//! # fn main() -> velopt_common::Result<()> {
//! use velopt_core::pipeline::{SystemConfig, VelocityOptimizationSystem};
//! use velopt_road::Road;
//!
//! let system = VelocityOptimizationSystem::new(SystemConfig::us25())?;
//! let ours = system.optimize()?;
//! let prior = system.optimize_baseline()?;
//! // The queue-aware profile never violates a queue window...
//! assert_eq!(ours.window_violations, 0);
//! // ...and consumes no more energy than the queue-oblivious one evaluated
//! // against the real queue dynamics (see the integration tests for the
//! // full SUMO-style comparison).
//! assert!(ours.total_energy.value().is_finite());
//! # drop(prior);
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod arena;
pub mod batch;
pub mod dp;
pub mod memo;
pub mod metrics;
pub mod pipeline;
pub mod profiles;
pub mod replan;
pub mod route;
pub(crate) mod simd;
pub mod windows;

pub use analysis::{ProfileMetrics, TripComparison};
pub use arena::{LayerPool, LeaseStats};
pub use batch::PlanRequest;
pub use dp::{
    DpConfig, DpOptimizer, EdgeBound, OptimizedProfile, SignalConstraint, SolverArena, StartState,
    TimeHandling,
};
pub use memo::{ClassKey, CostTable, MemoStats, TransitionTable};
pub use metrics::SolverMetrics;
pub use pipeline::{SystemConfig, VelocityOptimizationSystem};
pub use profiles::{DriverProfile, DrivingStyle};
pub use replan::{ReplanConfig, Replanner};
pub use route::{RouteConfig, RouteMetrics, RoutePlan, RouteQuery, Router};

//! A microscopic traffic simulator — the reproduction's SUMO substitute.
//!
//! The paper validates its optimized velocity profiles by injecting them
//! into SUMO over the TraCI interface and letting SUMO's car-following and
//! signal logic perturb them: behind a residual queue the ego vehicle is
//! *forced* to brake no matter what profile it was given (Fig. 6a), and with
//! the queue-aware profile it is not (Fig. 6b). This crate reproduces that
//! mechanism:
//!
//! * **Krauss car-following** ([`KraussParams`]) — the same model family
//!   SUMO defaults to: each vehicle drives at the largest speed that is
//!   safe with respect to its leader, accelerates at most `a`, brakes
//!   comfortably at `b`, and (for background traffic) dawdles by `σ`.
//! * **Signal control** — red lights act as stationary virtual leaders at
//!   the stop line; stop signs require a full stop before proceeding.
//! * **Poisson traffic injection** ([`Simulation::set_arrival_rate`]) —
//!   background vehicles enter at the corridor start with exponential
//!   headways; a fraction `1 − γ` of them turns off at each intersection.
//! * **External speed control** ([`Simulation::set_ego_command`]) — TraCI
//!   `setSpeed` semantics: the commanded speed caps the ego's desired
//!   speed, but safety (collision avoidance, red lights) still binds.
//! * **Measurement** — per-step ego telemetry, stopped-queue probes at each
//!   light, and induction-loop detectors.
//! * **Networks** ([`Network`]) — corridors joined at junctions into a
//!   multi-corridor simulation stepped in parallel by junction component,
//!   whose results are bit-identical at any shard count.
//!
//! # Examples
//!
//! ```
//! # fn main() -> velopt_common::Result<()> {
//! use velopt_common::units::{Seconds, VehiclesPerHour};
//! use velopt_microsim::{SimConfig, Simulation};
//! use velopt_road::Road;
//!
//! let mut sim = Simulation::new(Road::us25(), SimConfig::default())?;
//! sim.set_arrival_rate(VehiclesPerHour::new(200.0));
//! sim.run_until(Seconds::new(120.0))?;
//! assert!(sim.vehicle_count() > 0);
//! // During a red phase a queue builds at the first light.
//! # Ok(())
//! # }
//! ```

mod arena;
mod config;
mod detector;
mod kernel;
mod network;
mod sim;
mod vehicle;

pub use arena::StepMetrics;
pub use config::{FollowingModel, KraussParams, SimConfig};
pub use detector::InductionLoop;
pub use network::{CorridorSpec, Network, NetworkStats, NetworkTracePoint, VehicleMix};
pub use sim::{EgoSnapshot, Handoff, Simulation, TracePoint};
pub use vehicle::{Vehicle, VehicleId, VehicleKind};

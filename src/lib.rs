//! # velopt — queue-aware velocity optimization for pure electric vehicles
//!
//! A from-scratch Rust reproduction of *"Velocity Optimization of Pure
//! Electric Vehicles with Traffic Dynamics Consideration"* (Kang, Shen,
//! Sarker — ICDCS 2017).
//!
//! Prior eco-driving optimizers assume an EV can pass a traffic light the
//! instant it turns green. In reality the queue of waiting vehicles takes
//! seconds to discharge, so "optimal" profiles still brake and stop. This
//! system predicts the **queue length** in front of each light (deep-
//! learning traffic-volume prediction + a vehicle-movement discharge model)
//! and plans a velocity profile, via dynamic programming, that arrives at
//! every light inside the **queue-free window `T_q`** — no stops, no
//! unnecessary decelerations, measurably less energy.
//!
//! This crate is the facade: it re-exports the workspace's crates so
//! downstream users need a single dependency.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`common`] | `velopt-common` | units, stats, time series, RNG |
//! | [`energy`] | `velopt-ev-energy` | EV dynamics + battery model (Eq. 1–3) |
//! | [`road`] | `velopt-road` | corridors, signals, grades |
//! | [`traffic`] | `velopt-traffic` | volume feed + SAE predictor (Fig. 4) |
//! | [`queue`] | `velopt-queue` | VM/QL models, `T_q` windows (Eq. 4–6) |
//! | [`optimizer`] | `velopt-core` | the queue-aware DP (Eq. 7–12) |
//! | [`cloud`] | `velopt-cloud` | the vehicular-cloud optimization service |
//! | [`microsim`] | `velopt-microsim` | Krauss traffic simulator (SUMO substitute) |
//! | [`traci`] | `velopt-traci` | TraCI wire protocol client + server |
//! | [`cosim`] | `velopt-cosim` | TraCI loop drivers: the single-EV loop and its Fig. 6 replay, and fleet co-simulation through the cloud |
//!
//! # Quickstart
//!
//! ```
//! # fn main() -> velopt::Result<()> {
//! use velopt::optimizer::pipeline::{SystemConfig, VelocityOptimizationSystem};
//!
//! // The paper's US-25 experiment: 4.2 km, one stop sign, two lights.
//! let system = VelocityOptimizationSystem::new(SystemConfig::us25())?;
//! let profile = system.optimize()?;
//! assert_eq!(profile.window_violations, 0);
//! println!(
//!     "trip: {:.0} s, energy: {:.1} mAh",
//!     profile.trip_time.value(),
//!     profile.total_energy.to_milliamp_hours()
//! );
//! # Ok(())
//! # }
//! ```

pub use velopt_cloud as cloud;
pub use velopt_common as common;
pub use velopt_core as optimizer;
pub use velopt_cosim as cosim;
pub use velopt_ev_energy as energy;
pub use velopt_microsim as microsim;
pub use velopt_queue as queue;
pub use velopt_road as road;
pub use velopt_traci as traci;
pub use velopt_traffic as traffic;

pub use velopt_common::{Error, Result};

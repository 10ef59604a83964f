//! Shared foundations for the `velopt` workspace.
//!
//! This crate provides the small, dependency-light vocabulary that every other
//! crate in the reproduction of *"Velocity Optimization of Pure Electric
//! Vehicles with Traffic Dynamics Consideration"* (ICDCS 2017) builds on:
//!
//! * [`units`] — newtype wrappers for physical quantities ([`Meters`],
//!   [`Seconds`], [`MetersPerSecond`], …) so that a queue length can never be
//!   added to a battery capacity by accident.
//! * [`stats`] — the error metrics used in the paper's evaluation
//!   (mean relative error, root mean squared error) plus basic descriptive
//!   statistics.
//! * [`series`] — a uniformly-sampled [`TimeSeries`] used for velocity
//!   profiles, queue-length traces and traffic-volume feeds.
//! * [`interp`] — linear interpolation and piecewise-linear curves.
//! * [`rng`] — a tiny, deterministic SplitMix64 generator so that synthetic
//!   workloads are reproducible without pulling `rand` into every crate.
//! * [`par`] — deterministic chunked parallelism over scoped worker
//!   threads, used by the sharded microsimulator.
//! * [`simd`] — the AVX2 probe and the latched `VELOPT_*_SIMD` override
//!   every SIMD kernel family dispatches through.
//! * [`error`] — the workspace-wide [`Error`] type.
//!
//! # Examples
//!
//! ```
//! use velopt_common::units::{KilometersPerHour, MetersPerSecond};
//!
//! let v = KilometersPerHour::new(54.0).to_meters_per_second();
//! assert!((v.value() - 15.0).abs() < 1e-9);
//! ```

pub mod error;
pub mod interp;
pub mod par;
pub mod rng;
pub mod series;
pub mod simd;
pub mod stats;
pub mod units;

pub use error::{Error, Result};
pub use series::TimeSeries;
pub use units::{
    AmpereHours, Amperes, KilometersPerHour, Meters, MetersPerSecond, MetersPerSecondSq, Radians,
    Seconds, VehiclesPerHour, Volts, Watts,
};

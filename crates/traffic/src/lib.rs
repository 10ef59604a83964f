//! Traffic-volume substrate and the stacked-autoencoder (SAE) predictor.
//!
//! The paper predicts the **vehicle arrival rate** `V_in` at a traffic light
//! with the deep-learning SAE traffic-volume model of Huang et al. \[10\],
//! trained on three months of hourly loop-detector data from the South
//! Carolina DoT and tested on one week (§II-B-1, §III-A-2, Fig. 4). That
//! feed is not publicly archivable, so this crate provides:
//!
//! * [`VolumeGenerator`] — a synthetic hourly volume feed with the same
//!   statistical structure the SAE exploits: weekday AM/PM commuter peaks,
//!   weekend single-hump profiles, multiplicative noise and occasional
//!   incident dips (the substitution is documented in `DESIGN.md`),
//! * [`nn`] — a small, from-scratch dense neural network (sigmoid/linear
//!   layers, mini-batch SGD with momentum) running on the cache-blocked
//!   [`gemm`] kernels, with deterministic mini-batch training
//!   ([`nn::SgdConfig::batch_size`]) and reusable scratch
//!   ([`TrainArena`], [`BatchScratch`]),
//! * [`Sae`] — greedy layer-wise autoencoder pretraining followed by
//!   supervised fine-tuning, exactly the SAE recipe of \[10\], with
//!   [`TrainMetrics`] describing the work done,
//! * [`SaePredictor`] — windowed lag features + time-of-day/day-of-week
//!   encodings over an [`HourlyVolume`] feed, with per-day MRE/RMSE
//!   evaluation (the Fig. 4b metrics),
//! * [`VolumePredictor`] — batched multi-horizon forecasting: all
//!   lookahead horizons for N intersections in one [`gemm`]-backed call
//!   per step, allocation-free in steady state.
//!
//! # Examples
//!
//! ```no_run
//! # fn main() -> velopt_common::Result<()> {
//! use velopt_traffic::{SaePredictor, SaePredictorConfig, VolumeGenerator};
//!
//! let feed = VolumeGenerator::us25_station(42).generate_weeks(14)?;
//! let (train, test) = feed.split_at_week(13)?;
//! let predictor = SaePredictor::train(&train, &SaePredictorConfig::default())?;
//! let report = predictor.evaluate(&test)?;
//! assert!(report.overall.mre < 0.10); // the paper's "< 10%" claim
//! # Ok(())
//! # }
//! ```

mod arena;
pub mod dataset;
pub mod gemm;
pub mod nn;
mod predictor;
mod sae;
mod volume;
mod volume_predictor;

pub use arena::{BatchScratch, InferenceScratch, TrainArena, TrainMetrics};
pub use predictor::{
    DayMetrics, EvaluationReport, PredictScratch, SaePredictor, SaePredictorConfig,
};
pub use sae::{Sae, SaeConfig};
pub use volume::{HourlyVolume, VolumeGenerator, HOURS_PER_DAY, HOURS_PER_WEEK};
pub use volume_predictor::{VolumePredictor, VolumeQuery, VolumeScratch};

//! Regenerates **Fig. 8**: distance–time curves of (a) the collected
//! mild/fast profiles and (b) the two optimized profiles as derived from
//! the simulator. Zero-slope regions are stops; the paper's claim is that
//! the proposed method's trip time matches fast driving and beats the
//! current DP, while mild driving is slowest.
//!
//! ```sh
//! cargo run --release -p velopt-bench --bin fig8
//! ```

use velopt_bench::{col, tsv};
use velopt_common::units::Seconds;
use velopt_core::analysis::distance_time_curve;
use velopt_core::pipeline::{SystemConfig, VelocityOptimizationSystem};
use velopt_core::profiles::{DriverProfile, DrivingStyle};
use velopt_cosim::replay_through_traci;

fn main() {
    let system =
        VelocityOptimizationSystem::new(SystemConfig::us25_rush()).expect("preset is valid");
    let road = system.config().road.clone();
    let dt = Seconds::new(0.2);

    let mild = DriverProfile::generate(&road, DrivingStyle::Mild, dt).expect("finishes");
    let fast = DriverProfile::generate(&road, DrivingStyle::Fast, dt).expect("finishes");
    eprintln!("# optimizing and replaying through the simulator...");
    let ours = replay_through_traci(&system.optimize().expect("feasible")).expect("replay");
    let base =
        replay_through_traci(&system.optimize_baseline().expect("feasible")).expect("replay");

    let curves = [
        ("mild", distance_time_curve(&mild.speed)),
        ("fast", distance_time_curve(&fast.speed)),
        ("proposed", distance_time_curve(&ours.derived_speed)),
        ("current_dp", distance_time_curve(&base.derived_speed)),
    ];

    let n = curves.iter().map(|(_, c)| c.len()).max().unwrap_or(0);
    let step = curves[0].1.step().value();
    let rows: Vec<Vec<String>> = (0..n)
        .step_by(5)
        .map(|i| {
            let mut row = vec![col(i as f64 * step)];
            for (_, c) in &curves {
                row.push(c.samples().get(i).map(|d| col(*d)).unwrap_or_default());
            }
            row
        })
        .collect();
    print!(
        "{}",
        tsv(
            &["t_s", "mild_m", "fast_m", "proposed_m", "current_dp_m"],
            &rows,
        )
    );

    let trips = [
        ("mild", mild.trip_time.value()),
        ("fast", fast.trip_time.value()),
        ("proposed", ours.trip.value()),
        ("current DP", base.trip.value()),
    ];
    for (name, t) in trips {
        eprintln!("# trip time {name}: {t:.1} s");
    }
    let ratio = ours.trip.value() / fast.trip_time.value();
    eprintln!(
        "# proposed/fast trip ratio {ratio:.2} (paper: ~1.0) -> {}",
        if (0.8..=1.25).contains(&ratio) {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
    eprintln!(
        "# proposed beats mild ({}) as in the paper",
        if ours.trip.value() < mild.trip_time.value() {
            "yes"
        } else {
            "no"
        }
    );
}

//! Regenerates **Fig. 6**: planned vs simulator-derived velocity profiles
//! for (a) the existing queue-oblivious DP \[2\] and (b) the proposed
//! queue-aware DP, replayed through the microscopic simulator over TraCI.
//!
//! ```sh
//! cargo run --release -p velopt-bench --bin fig6
//! ```

use velopt_bench::{col, downsample_1hz, tsv};
use velopt_common::units::Seconds;
use velopt_core::pipeline::{SystemConfig, VelocityOptimizationSystem};
use velopt_cosim::replay_through_traci;

fn main() {
    let system =
        VelocityOptimizationSystem::new(SystemConfig::us25_rush()).expect("preset is valid");
    let ours = system.optimize().expect("feasible");
    let baseline = system.optimize_baseline().expect("feasible");

    eprintln!("# replaying both plans through the simulator over TraCI...");
    let derived_base = replay_through_traci(&baseline).expect("replay succeeds");
    let derived_ours = replay_through_traci(&ours).expect("replay succeeds");

    let plan_base = baseline
        .to_time_series(Seconds::new(1.0))
        .expect("positive step");
    let plan_ours = ours
        .to_time_series(Seconds::new(1.0))
        .expect("positive step");
    let sim_base = downsample_1hz(&derived_base.derived_speed).expect("long enough");
    let sim_ours = downsample_1hz(&derived_ours.derived_speed).expect("long enough");

    let n = [
        plan_base.len(),
        plan_ours.len(),
        sim_base.len(),
        sim_ours.len(),
    ]
    .into_iter()
    .max()
    .unwrap_or(0);
    let get = |s: &velopt_common::TimeSeries, i: usize| -> String {
        s.samples()
            .get(i)
            .map(|v| col(v * 3.6))
            .unwrap_or_else(|| "".into())
    };
    let rows: Vec<Vec<String>> = (0..n)
        .map(|i| {
            vec![
                i.to_string(),
                get(&plan_base, i),
                get(&sim_base, i),
                get(&plan_ours, i),
                get(&sim_ours, i),
            ]
        })
        .collect();
    print!(
        "{}",
        tsv(
            &[
                "t_s",
                "dp_current_kmh",
                "sumo_current_kmh",
                "dp_ours_kmh",
                "sumo_ours_kmh",
            ],
            &rows,
        )
    );

    eprintln!(
        "# current DP [2]: min speed in light areas {:?} m/s, stops {}",
        derived_base
            .min_speed_at_lights
            .iter()
            .map(|v| (v * 100.0).round() / 100.0)
            .collect::<Vec<_>>(),
        derived_base.stops_at_lights
    );
    eprintln!(
        "# proposed:       min speed in light areas {:?} m/s, stops {}",
        derived_ours
            .min_speed_at_lights
            .iter()
            .map(|v| (v * 100.0).round() / 100.0)
            .collect::<Vec<_>>(),
        derived_ours.stops_at_lights
    );
    let base_min = derived_base
        .min_speed_at_lights
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    let ours_min = derived_ours
        .min_speed_at_lights
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    eprintln!(
        "# paper shape (Fig. 6a stop/hard-deceleration for the current DP, none for ours): {}",
        if base_min < 0.6 * ours_min {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
}

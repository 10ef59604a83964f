//! Regenerates **Fig. 7**: (a) the mild/fast human velocity profiles with
//! the speed limit, and (b) the total-energy comparison across the four
//! profiles — proposed, current DP \[2\], mild driving, fast driving.
//!
//! Paper headline: the proposed profile uses 17.5% less energy than fast
//! driving, 8.4% less than mild driving and 5.1% less than the current DP.
//!
//! ```sh
//! cargo run --release -p velopt-bench --bin fig7
//! ```

use velopt_bench::{col, tsv};
use velopt_common::units::Seconds;
use velopt_core::analysis::{ProfileMetrics, TripComparison};
use velopt_core::pipeline::{SystemConfig, VelocityOptimizationSystem};
use velopt_core::profiles::{DriverProfile, DrivingStyle};
use velopt_cosim::replay_through_traci;

fn main() {
    let system =
        VelocityOptimizationSystem::new(SystemConfig::us25_rush()).expect("preset is valid");
    let road = system.config().road.clone();
    let energy_model = system.energy_model();
    let dt = Seconds::new(0.2);

    let mild = DriverProfile::generate(&road, DrivingStyle::Mild, dt).expect("finishes");
    let fast = DriverProfile::generate(&road, DrivingStyle::Fast, dt).expect("finishes");

    // Fig. 7(a): the collected (here: generated) profiles + speed limit.
    let n = mild.speed.len().max(fast.speed.len());
    let rows: Vec<Vec<String>> = (0..n)
        .step_by(5)
        .map(|i| {
            let t = i as f64 * dt.value();
            let m = mild.speed.samples().get(i).map(|v| col(v * 3.6));
            let f = fast.speed.samples().get(i).map(|v| col(v * 3.6));
            let x = fast
                .position
                .samples()
                .get(i)
                .copied()
                .unwrap_or(road.length().value());
            let limit = road
                .speed_limits_at(velopt_common::units::Meters::new(x))
                .1
                .to_kilometers_per_hour()
                .value();
            vec![
                col(t),
                m.unwrap_or_default(),
                f.unwrap_or_default(),
                col(limit),
            ]
        })
        .collect();
    print!(
        "{}",
        tsv(&["t_s", "mild_kmh", "fast_kmh", "limit_kmh"], &rows)
    );

    // Fig. 7(b): energies of the four profiles on the planned/trace basis
    // (the paper's headline numbers), plus the simulator-derived energies
    // of the two DP methods for reference (traffic perturbs both).
    eprintln!("# optimizing and replaying through the simulator...");
    let ours_plan = system.optimize().expect("feasible");
    let base_plan = system.optimize_baseline().expect("feasible");
    let ours_series = ours_plan.to_time_series(dt).expect("positive step");
    let base_series = base_plan.to_time_series(dt).expect("positive step");
    let ours_sim = replay_through_traci(&ours_plan).expect("replay succeeds");
    let base_sim = replay_through_traci(&base_plan).expect("replay succeeds");

    let metric = |name: &str, s: &velopt_common::TimeSeries| {
        ProfileMetrics::from_speed_series(name, s, &road, &energy_model).expect("valid series")
    };
    let cmp = TripComparison::new(vec![
        metric("proposed", &ours_series),
        metric("current DP", &base_series),
        metric("mild driving", &mild.speed),
        metric("fast driving", &fast.speed),
        metric("proposed (sim-derived)", &ours_sim.derived_speed),
        metric("current DP (sim-derived)", &base_sim.derived_speed),
    ]);
    println!();
    print!("{}", cmp.to_tsv());

    for (name, paper) in [
        ("fast driving", 17.5),
        ("mild driving", 8.4),
        ("current DP", 5.1),
    ] {
        if let Some(saving) = cmp.savings_vs(name) {
            eprintln!(
                "# proposed saves {:+.1}% vs {name} (paper: {paper}%) -> {}",
                100.0 * saving,
                if saving > 0.0 {
                    "HOLDS (direction)"
                } else {
                    "VIOLATED"
                }
            );
        }
    }
}

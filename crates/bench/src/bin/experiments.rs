//! Runs every experiment of the paper's evaluation (§III) and prints one
//! paper-vs-measured row per claim — the source of `EXPERIMENTS.md`.
//!
//! ```sh
//! cargo run --release -p velopt-bench --bin experiments
//! ```

use velopt_common::units::{Seconds, VehiclesPerHour};
use velopt_core::analysis::{ProfileMetrics, TripComparison};
use velopt_core::pipeline::{SystemConfig, VelocityOptimizationSystem};
use velopt_core::profiles::{DriverProfile, DrivingStyle};
use velopt_cosim::replay_through_traci;
use velopt_ev_energy::{map::EnergyMap, EnergyModel, VehicleParams};
use velopt_queue::{BaselineQueueModel, QueueModel, QueueParams};
use velopt_traffic::{SaePredictor, SaePredictorConfig, VolumeGenerator};

fn row(id: &str, claim: &str, paper: &str, measured: String, holds: bool) {
    println!(
        "| {id} | {claim} | {paper} | {measured} | {} |",
        if holds { "HOLDS" } else { "VIOLATED" }
    );
}

fn main() {
    println!("| experiment | claim | paper | measured | verdict |");
    println!("|---|---|---|---|---|");

    // ---- Fig. 3: energy map shape. -------------------------------------
    let model = EnergyModel::new(VehicleParams::spark_ev());
    let map = EnergyMap::generate(&model, 25, 17).expect("grid valid");
    row(
        "Fig. 3",
        "consumption grows with acceleration; negative under braking",
        "qualitative",
        format!(
            "max {:.0} A at (v_max, a_max); min {:.0} A (regen)",
            map.max_rate(),
            map.min_rate()
        ),
        map.min_rate() < 0.0 && map.max_rate() > 0.0,
    );

    // ---- Fig. 4: SAE accuracy. ------------------------------------------
    eprintln!("# training SAE (13 weeks)...");
    let feed = VolumeGenerator::us25_station(2016)
        .generate_weeks(14)
        .expect("feed");
    let (train, test) = feed.split_at_week(13).expect("cut");
    let predictor = SaePredictor::train(&train, &SaePredictorConfig::default()).expect("training");
    let report = predictor.evaluate(&test).expect("evaluation");
    let worst = report.per_day.iter().map(|d| d.mre).fold(0.0f64, f64::max);
    row(
        "Fig. 4b",
        "SAE MRE < 10% on every test day",
        "< 10%",
        format!(
            "worst day {:.1}%, overall {:.1}%, RMSE {:.1} veh/h",
            100.0 * worst,
            100.0 * report.overall.mre,
            report.overall.rmse
        ),
        worst < 0.10,
    );

    // ---- Fig. 5a: leaving-rate ramp. -------------------------------------
    let probe = QueueParams::us25_probe();
    let ql = QueueModel::new(probe).expect("probe valid");
    let ramp = ql.vm().ramp_duration().value();
    row(
        "Fig. 5a",
        "VM model reaches saturation later than the instant-discharge method",
        "slower ramp",
        format!("VM ramp {ramp:.1} s vs 0 s for [9]"),
        ramp > 1.0,
    );

    // ---- Fig. 5b: QL model accuracy vs simulated queue. ------------------
    eprintln!("# measuring simulated queue...");
    let (rmse_ours, rmse_base) = fig5b_rmse();
    row(
        "Fig. 5b",
        "our QL model tracks the real queue better than [9]",
        "more accurate",
        format!("RMSE {rmse_ours:.2} vs {rmse_base:.2} veh"),
        rmse_ours < rmse_base,
    );

    // ---- Fig. 6: simulator-derived profiles. -----------------------------
    eprintln!("# optimizing and replaying through the simulator...");
    let system = VelocityOptimizationSystem::new(SystemConfig::us25_rush()).expect("preset valid");
    let ours_plan = system.optimize().expect("feasible");
    let base_plan = system.optimize_baseline().expect("feasible");
    let ours_sim = replay_through_traci(&ours_plan).expect("replay");
    let base_sim = replay_through_traci(&base_plan).expect("replay");
    let min_of = |v: &[f64]| v.iter().cloned().fold(f64::INFINITY, f64::min);
    let ours_min = min_of(&ours_sim.min_speed_at_lights);
    let base_min = min_of(&base_sim.min_speed_at_lights);
    row(
        "Fig. 6",
        "current DP stops/brakes hard at a light; proposed glides through",
        "stop + large decel vs none",
        format!("min speed at lights: {base_min:.1} vs {ours_min:.1} m/s"),
        base_min < 0.6 * ours_min && ours_min > 6.0,
    );
    row(
        "Fig. 6 (windows)",
        "proposed arrivals inside T_q at every light; current DP outside",
        "0 vs >=1 violations",
        format!(
            "ours {} / baseline {} lights outside T_q",
            tq_violations(&system, &ours_plan),
            tq_violations(&system, &base_plan)
        ),
        tq_violations(&system, &ours_plan) == 0 && tq_violations(&system, &base_plan) >= 1,
    );

    // ---- Fig. 7: energy comparison. --------------------------------------
    let road = system.config().road.clone();
    let em = system.energy_model();
    let dt = Seconds::new(0.2);
    let mild = DriverProfile::generate(&road, DrivingStyle::Mild, dt).expect("finishes");
    let fast = DriverProfile::generate(&road, DrivingStyle::Fast, dt).expect("finishes");
    let cmp = TripComparison::new(vec![
        ProfileMetrics::from_speed_series(
            "proposed",
            &ours_plan.to_time_series(dt).expect("series"),
            &road,
            &em,
        )
        .expect("metrics"),
        ProfileMetrics::from_speed_series(
            "current DP",
            &base_plan.to_time_series(dt).expect("series"),
            &road,
            &em,
        )
        .expect("metrics"),
        ProfileMetrics::from_speed_series("mild driving", &mild.speed, &road, &em)
            .expect("metrics"),
        ProfileMetrics::from_speed_series("fast driving", &fast.speed, &road, &em)
            .expect("metrics"),
    ]);
    for (name, paper) in [
        ("fast driving", "17.5%"),
        ("mild driving", "8.4%"),
        ("current DP", "5.1%"),
    ] {
        let saving = cmp.savings_vs(name).expect("profile present");
        row(
            "Fig. 7b",
            &format!("proposed saves energy vs {name}"),
            paper,
            format!("{:+.1}%", 100.0 * saving),
            saving > 0.0,
        );
    }

    // ---- Fig. 8: trip times. ---------------------------------------------
    let ratio = ours_sim.trip.value() / fast.trip_time.value();
    row(
        "Fig. 8",
        "proposed trip time ≈ fast driving, < mild driving",
        "equal to fast",
        format!(
            "proposed {:.0} s, fast {:.0} s (ratio {ratio:.2}), mild {:.0} s",
            ours_sim.trip.value(),
            fast.trip_time.value(),
            mild.trip_time.value()
        ),
        (0.8..=1.25).contains(&ratio) && ours_sim.trip.value() < mild.trip_time.value(),
    );
}

/// Fig. 5b measurement: cycle-folded simulated queue vs both QL models.
fn fig5b_rmse() -> (f64, f64) {
    use velopt_common::units::Meters;
    use velopt_microsim::{SimConfig, Simulation};
    use velopt_road::RoadBuilder;

    let probe = QueueParams {
        straight_ratio: 1.0,
        arrival_rate: VehiclesPerHour::new(700.0),
        ..QueueParams::us25_probe()
    };
    let road = RoadBuilder::new(Meters::new(2000.0))
        .default_limits(
            velopt_common::units::KilometersPerHour::new(40.0).to_meters_per_second(),
            velopt_common::units::KilometersPerHour::new(70.0).to_meters_per_second(),
        )
        .traffic_light(Meters::new(1500.0), probe.red, probe.green, Seconds::ZERO)
        .build()
        .expect("road valid");
    let mut sim = Simulation::new(road, SimConfig::default()).expect("config valid");
    sim.set_arrival_rate(probe.arrival_rate);
    sim.run_until(Seconds::new(300.0)).expect("time forward");
    let mut real = vec![0.0f64; 60];
    let cycles = 12;
    for c in 0..cycles {
        for (s, bucket) in real.iter_mut().enumerate() {
            sim.run_until(Seconds::new(300.0 + (c * 60 + s) as f64))
                .expect("time forward");
            *bucket += sim.queue_at_light(0) as f64;
        }
    }
    for q in &mut real {
        *q /= cycles as f64;
    }
    let ours = QueueModel::new(probe).expect("valid");
    let base = BaselineQueueModel::new(probe).expect("valid");
    let ours_pred: Vec<f64> = (0..60)
        .map(|s| ours.queue_vehicles(Seconds::new(s as f64)))
        .collect();
    let base_pred: Vec<f64> = (0..60)
        .map(|s| base.queue_vehicles(Seconds::new(s as f64)))
        .collect();
    (
        velopt_common::stats::rmse(&ours_pred, &real).expect("aligned"),
        velopt_common::stats::rmse(&base_pred, &real).expect("aligned"),
    )
}

fn tq_violations(
    system: &VelocityOptimizationSystem,
    plan: &velopt_core::dp::OptimizedProfile,
) -> usize {
    system
        .queue_windows()
        .expect("windows")
        .iter()
        .filter(|w| !w.admits(plan.arrival_time_at(w.position)))
        .count()
}

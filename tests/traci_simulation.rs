//! The Fig. 6 experiment as an integration test: both DP plans replayed
//! through the microscopic simulator over the real TraCI protocol.

use velopt::cosim::replay_through_traci;
use velopt::optimizer::dp::OptimizedProfile;
use velopt::optimizer::pipeline::{SystemConfig, VelocityOptimizationSystem};
use velopt_common::units::{Meters, VehiclesPerHour};
use velopt_microsim::{SimConfig, Simulation};
use velopt_road::Road;
use velopt_traci::{TraciClient, TraciServer};

/// Replays a plan over TraCI; returns (trip seconds, min speed in the two
/// light areas).
fn replay(profile: &OptimizedProfile) -> (f64, f64) {
    let outcome = replay_through_traci(profile).unwrap();
    assert!(outcome.server.api >= 20);
    let min_speed_at_lights = outcome
        .min_speed_at_lights
        .iter()
        .fold(f64::INFINITY, |m, &v| m.min(v));
    (outcome.trip.value(), min_speed_at_lights)
}

#[test]
fn fig6_queue_aware_glides_baseline_brakes() {
    let system = VelocityOptimizationSystem::new(SystemConfig::us25_rush()).unwrap();
    let ours = system.optimize().unwrap();
    let baseline = system.optimize_baseline().unwrap();

    let (trip_ours, min_ours) = replay(&ours);
    let (trip_base, min_base) = replay(&baseline);

    // Fig. 6b: no stops or large decelerations in the light areas.
    assert!(
        min_ours > 6.0,
        "queue-aware profile should glide (min speed {min_ours:.2})"
    );
    // Fig. 6a: the prior DP meets the discharging queue and brakes hard.
    assert!(
        min_base < 0.5 * min_ours,
        "queue-oblivious plan should be forced to brake: {min_base:.2} vs {min_ours:.2}"
    );
    // Neither trip blows up (both finish the 4.2 km corridor).
    assert!(trip_ours > 200.0 && trip_ours < 450.0);
    assert!(trip_base > 200.0 && trip_base < 450.0);
}

#[test]
fn traci_detectors_measure_background_flow() {
    let mut sim = Simulation::new(Road::us25(), SimConfig::default()).unwrap();
    sim.add_detector(Meters::new(1000.0)).unwrap();
    sim.set_arrival_rate(VehiclesPerHour::new(120.0));
    sim.add_entry_point(Meters::new(600.0), VehiclesPerHour::new(680.0))
        .unwrap();
    let server = TraciServer::spawn(sim).unwrap();
    let mut client = TraciClient::connect(server.addr()).unwrap();
    // SUMO LAST_STEP_VEHICLE_NUMBER is a per-step figure: step tick by
    // tick and accumulate, like a real TraCI detector poller.
    let mut crossings = 0;
    for _ in 0..6000 {
        client.simulation_step(0.0).unwrap();
        crossings += client.induction_loop_count("loop0").unwrap();
    }
    // ~800 veh/h for 600 s ≈ 133 expected; allow a wide Poisson/queueing band.
    assert!(
        (60..=200).contains(&crossings),
        "detector saw {crossings} crossings"
    );
    client.close().unwrap();
    server.join();
}

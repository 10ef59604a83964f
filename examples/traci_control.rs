//! Drive an optimized velocity profile through the microscopic traffic
//! simulator over the TraCI protocol — the paper's Fig. 6 mechanism.
//!
//! An external controller connects to a TraCI server fronting the Krauss
//! simulator, warmed up with commuter-hour background traffic, and
//! commands the ego EV's speed every step from the DP profile (the
//! `velopt-cosim` replay). Car-following safety still binds, so if the
//! profile reaches a light while a residual queue is discharging, the ego
//! is *forced* to brake — which is what happens to the queue-oblivious
//! baseline and not to the queue-aware plan.
//!
//! ```sh
//! cargo run --release --example traci_control
//! ```

use velopt::cosim::replay_through_traci;
use velopt::optimizer::pipeline::{SystemConfig, VelocityOptimizationSystem};
use velopt::Result;
use velopt_common::units::Meters;

fn main() -> Result<()> {
    // Plan under commuter-hour arrival rates (the Fig. 6–8 regime).
    let system = VelocityOptimizationSystem::new(SystemConfig::us25_rush())?;
    let ours = system.optimize()?;
    let baseline = system.optimize_baseline()?;
    println!(
        "plan arrivals at the lights — ours: {:.1}s/{:.1}s, baseline: {:.1}s/{:.1}s",
        ours.arrival_time_at(Meters::new(1800.0)).value(),
        ours.arrival_time_at(Meters::new(3460.0)).value(),
        baseline.arrival_time_at(Meters::new(1800.0)).value(),
        baseline.arrival_time_at(Meters::new(3460.0)).value(),
    );

    let a = replay_through_traci(&ours)?;
    println!("[queue-aware] connected: {}", a.server.software);
    let b = replay_through_traci(&baseline)?;
    println!("[baseline] connected: {}", b.server.software);
    // The lowest speed the ego drove inside any light area.
    let min = |speeds: &[f64]| speeds.iter().fold(f64::INFINITY, |m, &v| m.min(v));

    println!("\n                       queue-aware    queue-oblivious [2]");
    println!(
        "derived trip (s)       {:>10.1}    {:>10.1}",
        a.trip.value(),
        b.trip.value()
    );
    println!(
        "stops at lights        {:>10}    {:>10}",
        a.stops_at_lights, b.stops_at_lights
    );
    println!(
        "min speed at lights    {:>10.2}    {:>10.2}",
        min(&a.min_speed_at_lights),
        min(&b.min_speed_at_lights)
    );
    println!(
        "\nThe queue-aware profile glides through both lights; the baseline\n\
         meets the residual queue and is forced to brake (Fig. 6a vs 6b)."
    );
    Ok(())
}

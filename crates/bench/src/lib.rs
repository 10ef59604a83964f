//! Shared harness code for the figure-regeneration binaries, and the
//! [`suite`] behind `bench-suite`, the per-layer perf gate.
//!
//! Every figure of the paper's evaluation (§III) has a binary in
//! `src/bin/` that regenerates its data series as TSV on stdout:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig3` | ζ(v, a) consumption surface |
//! | `fig4` | traffic volume week + SAE MRE/RMSE per day |
//! | `fig5` | leaving-rate and queue-length dynamics vs the baseline \[9\] |
//! | `fig6` | planned vs simulator-derived velocity profiles |
//! | `fig7` | collected profiles + total energy comparison |
//! | `fig8` | distance–time curves and trip times |
//! | `experiments` | all of the above, summarized as paper-vs-measured rows |

pub mod suite;

use velopt_common::units::{Meters, MetersPerSecond, Seconds, VehiclesPerHour};
use velopt_common::{Error, Result, TimeSeries};
use velopt_core::dp::OptimizedProfile;
use velopt_microsim::{SimConfig, Simulation};
use velopt_road::Road;
use velopt_traci::{TraciClient, TraciServer};

/// The departure time used by the simulation experiments: seven whole 60 s
/// signal cycles, so the plan's `t = 0` is phase-aligned.
pub const DEPART_S: f64 = 420.0;

/// The commuter-demand split used by the Fig. 6–8 replays: a light corridor
/// entrance plus a side-road inflow just upstream of the first light.
pub const ENTRANCE_RATE: f64 = 120.0;
/// Side-road inflow rate (veh/h) at 600 m.
pub const SIDE_RATE: f64 = 680.0;

/// What came back from replaying a plan through the simulator over TraCI.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The simulator-derived ego speed profile (the paper's "derived
    /// velocity profile from SUMO").
    pub derived_speed: TimeSeries,
    /// Trip duration in the simulator.
    pub trip: Seconds,
    /// Minimum speed observed inside each traffic-light area.
    pub min_speed_at_lights: Vec<f64>,
    /// Full stops observed inside the light areas.
    pub stops_at_lights: usize,
}

/// Replays an optimized profile through the microscopic simulator, driving
/// the ego with TraCI `setSpeed` commands from the plan's speed-vs-position
/// curve (safety still binds inside the simulator).
///
/// # Errors
///
/// Propagates simulator construction and protocol failures.
pub fn replay_through_traci(profile: &OptimizedProfile) -> Result<ReplayOutcome> {
    let road = Road::us25();
    let light_zones: Vec<(f64, f64)> = road
        .traffic_lights()
        .iter()
        .map(|l| (l.position().value() - 150.0, l.position().value() + 10.0))
        .collect();

    let mut sim = Simulation::new(road, SimConfig::default())?;
    sim.set_arrival_rate(VehiclesPerHour::new(ENTRANCE_RATE));
    sim.add_entry_point(Meters::new(600.0), VehiclesPerHour::new(SIDE_RATE))?;
    sim.run_until(Seconds::new(DEPART_S))?;
    let ego_id = sim.spawn_ego(MetersPerSecond::ZERO)?.to_string();

    let server = TraciServer::spawn(sim)?;
    let mut client = TraciClient::connect(server.addr())?;
    client.get_version()?;

    let mut min_speed_at_lights = vec![f64::INFINITY; light_zones.len()];
    let mut stops = 0usize;
    let mut was_stopped = true;
    let mut moved = false;
    loop {
        client.simulation_step(0.0)?;
        let Ok((x, _)) = client.vehicle_position(&ego_id) else {
            break;
        };
        let v = client.vehicle_speed(&ego_id)?;
        if v > 1.0 {
            moved = true;
            was_stopped = false;
        }
        for (z, &(a, b)) in light_zones.iter().enumerate() {
            if x >= a && x <= b {
                min_speed_at_lights[z] = min_speed_at_lights[z].min(v);
                if moved && v < 0.1 && !was_stopped {
                    stops += 1;
                    was_stopped = true;
                }
            }
        }
        let cmd = profile.speed_at_position(Meters::new(x)).value().max(0.3);
        client.set_vehicle_speed(&ego_id, cmd)?;
    }
    let trip = Seconds::new(client.simulation_time()? - DEPART_S);
    client.close()?;

    // Pull the recorded ego trace out of the (now idle) simulation.
    let sim = server.simulation();
    let derived_speed = {
        let sim = sim.lock();
        sim.ego_speed_series()?
    };
    server.join();
    Ok(ReplayOutcome {
        derived_speed,
        trip,
        min_speed_at_lights,
        stops_at_lights: stops,
    })
}

/// Formats aligned TSV rows: a header then one line per record.
pub fn tsv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = header.join("\t");
    out.push('\n');
    for row in rows {
        out.push_str(&row.join("\t"));
        out.push('\n');
    }
    out
}

/// Convenience: formats an `f64` column value.
pub fn col(value: f64) -> String {
    format!("{value:.3}")
}

/// Resamples a series to 1 Hz for compact figure output.
///
/// # Errors
///
/// Propagates resampling failures (degenerate input grids).
pub fn downsample_1hz(series: &TimeSeries) -> Result<TimeSeries> {
    if series.duration().value() < 1.0 {
        return Err(Error::invalid_input("series shorter than one second"));
    }
    series.resample(Seconds::new(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsv_formatting() {
        let out = tsv(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        assert_eq!(out, "a\tb\n1\t2\n3\t4\n");
        assert_eq!(col(1.23456), "1.235");
    }

    #[test]
    fn downsample_requires_duration() {
        let s = TimeSeries::from_samples(Seconds::ZERO, Seconds::new(0.1), vec![0.0; 4]).unwrap();
        assert!(downsample_1hz(&s).is_err());
        let s = TimeSeries::from_samples(Seconds::ZERO, Seconds::new(0.5), vec![1.0; 9]).unwrap();
        let d = downsample_1hz(&s).unwrap();
        assert_eq!(d.step(), Seconds::new(1.0));
    }
}

//! Simulation backends the TraCI server can front.
//!
//! [`TraciServer`](crate::TraciServer) is generic over a [`TraciBackend`]:
//! the single-corridor [`Simulation`] (object ids `veh<N>`, `tl<N>`,
//! `loop<N>`) and the multi-corridor [`Network`] (vehicles keep their
//! network-unique `veh<N>` names; signals and detectors are corridor-scoped
//! as `tl<corridor>:<N>` and `loop<corridor>:<N>`).

use velopt_common::units::{Meters, MetersPerSecond, Seconds};
use velopt_common::{Error, Result};
use velopt_microsim::{Network, Simulation, VehicleId};
use velopt_road::Phase;

/// The slice of vehicle state the TraCI surface reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VehicleView {
    /// Front-bumper position within the vehicle's corridor.
    pub position: Meters,
    /// Current speed.
    pub speed: MetersPerSecond,
    /// Corridor index (always 0 for a single-corridor backend). Reported as
    /// the `y` coordinate of TraCI 2D positions so network clients can tell
    /// corridors apart.
    pub corridor: usize,
}

/// What a simulation must expose to be served over TraCI.
pub trait TraciBackend: Send + 'static {
    /// Current simulation time.
    fn time(&self) -> Seconds;
    /// Advances exactly one step.
    fn step_once(&mut self);
    /// Advances until `t`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if `t` lies in the past.
    fn advance_to(&mut self, t: Seconds) -> Result<()>;
    /// All active vehicle object ids.
    fn vehicle_ids(&self) -> Vec<String>;
    /// Looks up one vehicle by object id.
    fn vehicle_state(&self, object: &str) -> Option<VehicleView>;
    /// Current phase of the traffic light named `object`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] if no such light exists.
    fn light_phase(&self, object: &str) -> Result<Phase>;
    /// Crossing count of the loop named `object` during the last completed
    /// step (SUMO `LAST_STEP_VEHICLE_NUMBER`; reading never mutates the
    /// detector).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] if no such loop exists.
    fn loop_last_step_count(&self, object: &str) -> Result<u64>;
    /// Applies (or clears, `None`) a TraCI speed command to the vehicle
    /// named `object`. Every live vehicle is externally controllable — the
    /// fleet co-simulation drives background EVs through this, not just
    /// the ego.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] for a malformed object id and
    /// [`Error::InvalidInput`] if no such vehicle is live or the speed is
    /// negative.
    fn command_vehicle_speed(&mut self, object: &str, speed: Option<MetersPerSecond>)
        -> Result<()>;
}

/// Parses a canonical decimal index: ASCII digits only, with no sign and
/// no leading zero, so every object has exactly one spelling (`veh7`, never
/// `veh07` or `veh+7`) on both get and set.
fn canonical<T: std::str::FromStr>(digits: &str) -> Option<T> {
    let canonical = !digits.is_empty()
        && digits.bytes().all(|b| b.is_ascii_digit())
        && (digits == "0" || !digits.starts_with('0'));
    if canonical {
        digits.parse().ok()
    } else {
        None
    }
}

fn malformed(object: &str) -> Error {
    Error::protocol(format!("malformed object id '{object}'"))
}

/// Parses `"<prefix><index>"` (e.g. `tl1`).
fn parse_index(object: &str, prefix: &str) -> Result<usize> {
    object
        .strip_prefix(prefix)
        .and_then(canonical)
        .ok_or_else(|| malformed(object))
}

/// Parses `"<prefix><corridor>:<index>"` (e.g. `tl2:0`).
fn parse_scoped(object: &str, prefix: &str) -> Result<(usize, usize)> {
    object
        .strip_prefix(prefix)
        .and_then(|s| s.split_once(':'))
        .and_then(|(c, i)| Some((canonical(c)?, canonical(i)?)))
        .ok_or_else(|| malformed(object))
}

/// Parses a vehicle's `veh<N>` name (the [`VehicleId`] display form).
fn parse_vehicle(object: &str) -> Result<VehicleId> {
    object
        .strip_prefix("veh")
        .and_then(canonical)
        .map(VehicleId::from_raw)
        .ok_or_else(|| malformed(object))
}

impl TraciBackend for Simulation {
    fn time(&self) -> Seconds {
        Simulation::time(self)
    }

    fn step_once(&mut self) {
        self.step();
    }

    fn advance_to(&mut self, t: Seconds) -> Result<()> {
        self.run_until(t)
    }

    fn vehicle_ids(&self) -> Vec<String> {
        self.vehicles().iter().map(|v| v.id().to_string()).collect()
    }

    fn vehicle_state(&self, object: &str) -> Option<VehicleView> {
        let id = parse_vehicle(object).ok()?;
        self.vehicles()
            .iter()
            .find(|v| v.id() == id)
            .map(|v| VehicleView {
                position: v.position(),
                speed: v.speed(),
                corridor: 0,
            })
    }

    fn light_phase(&self, object: &str) -> Result<Phase> {
        let idx = parse_index(object, "tl")?;
        let light = self
            .road()
            .traffic_lights()
            .get(idx)
            .ok_or_else(|| Error::protocol(format!("no traffic light '{object}'")))?;
        Ok(light.phase_at(Simulation::time(self)))
    }

    fn loop_last_step_count(&self, object: &str) -> Result<u64> {
        let idx = parse_index(object, "loop")?;
        let det = self
            .detectors()
            .get(idx)
            .ok_or_else(|| Error::protocol(format!("no induction loop '{object}'")))?;
        Ok(det.last_step_count())
    }

    fn command_vehicle_speed(
        &mut self,
        object: &str,
        speed: Option<MetersPerSecond>,
    ) -> Result<()> {
        self.set_vehicle_command(parse_vehicle(object)?, speed)
    }
}

impl TraciBackend for Network {
    fn time(&self) -> Seconds {
        Network::time(self)
    }

    fn step_once(&mut self) {
        self.step();
    }

    fn advance_to(&mut self, t: Seconds) -> Result<()> {
        self.run_until(t)
    }

    fn vehicle_ids(&self) -> Vec<String> {
        let mut out = Vec::new();
        for c in 0..self.corridors() {
            let sim = self.corridor(c).expect("index in range");
            out.extend(sim.vehicles().iter().map(|v| v.id().to_string()));
            // Vehicles mid-handoff stay listed so a polling client never
            // sees an id flicker out at a junction.
            out.extend(self.pending(c).map(|h| h.id.to_string()));
        }
        out
    }

    fn vehicle_state(&self, object: &str) -> Option<VehicleView> {
        let id = parse_vehicle(object).ok()?;
        for c in 0..self.corridors() {
            let sim = self.corridor(c).expect("index in range");
            if let Some(v) = sim.vehicles().iter().find(|v| v.id() == id) {
                return Some(VehicleView {
                    position: v.position(),
                    speed: v.speed(),
                    corridor: c,
                });
            }
            // A vehicle queued at the junction is reported at position 0
            // of its destination corridor, one tick before it inserts.
            if let Some(h) = self.pending(c).find(|h| h.id == id) {
                return Some(VehicleView {
                    position: Meters::ZERO,
                    speed: h.speed,
                    corridor: c,
                });
            }
        }
        None
    }

    fn light_phase(&self, object: &str) -> Result<Phase> {
        let (c, idx) = parse_scoped(object, "tl")?;
        let light = self
            .corridor(c)
            .and_then(|sim| sim.road().traffic_lights().get(idx))
            .ok_or_else(|| Error::protocol(format!("no traffic light '{object}'")))?;
        Ok(light.phase_at(Network::time(self)))
    }

    fn loop_last_step_count(&self, object: &str) -> Result<u64> {
        let (c, idx) = parse_scoped(object, "loop")?;
        let det = self
            .corridor(c)
            .and_then(|sim| sim.detectors().get(idx))
            .ok_or_else(|| Error::protocol(format!("no induction loop '{object}'")))?;
        Ok(det.last_step_count())
    }

    fn command_vehicle_speed(
        &mut self,
        object: &str,
        speed: Option<MetersPerSecond>,
    ) -> Result<()> {
        self.set_vehicle_command(parse_vehicle(object)?, speed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_id_parsing() {
        assert_eq!(parse_index("tl3", "tl").unwrap(), 3);
        assert_eq!(parse_index("tl0", "tl").unwrap(), 0);
        assert_eq!(parse_index("tl10", "tl").unwrap(), 10);
        assert!(parse_index("tl", "tl").is_err());
        assert!(parse_index("loop1", "tl").is_err());
        assert_eq!(parse_scoped("tl2:7", "tl").unwrap(), (2, 7));
        assert_eq!(parse_scoped("loop0:0", "loop").unwrap(), (0, 0));
        assert!(parse_scoped("tl2", "tl").is_err());
        assert!(parse_scoped("tl2:", "tl").is_err());
        assert!(parse_scoped("tl:7", "tl").is_err());
        assert_eq!(parse_vehicle("veh42").unwrap(), VehicleId::from_raw(42));
        assert!(
            parse_vehicle("veh18446744073709551616").is_err(),
            "u64 overflow"
        );
    }

    /// Spellings Rust's integer `parse` accepts but that are not an
    /// object's name. Each used to alias the canonical object on some
    /// paths (`setSpeed veh00` commanded `veh0`) but not on others.
    fn non_canonical(prefix: &str, index: &str) -> Vec<String> {
        ["0", "00", "+", "-", " ", "٣"]
            .iter()
            .map(|p| format!("{prefix}{p}{index}"))
            .chain([
                format!("{prefix}{index} "),
                format!("{prefix}{index}x"),
                prefix.to_owned(),
            ])
            .collect()
    }

    /// Every backend answers a canonical id and rejects every other
    /// spelling of it, on reads and on `setSpeed` alike.
    fn assert_only_canonical_ids<B: TraciBackend>(
        backend: &mut B,
        vehicle: &str,
        light: &str,
        detector: &str,
    ) {
        let speed = Some(MetersPerSecond::new(3.0));
        assert!(backend.vehicle_state(vehicle).is_some());
        backend.command_vehicle_speed(vehicle, speed).unwrap();
        backend.light_phase(light).unwrap();
        backend.loop_last_step_count(detector).unwrap();
        let split = |id: &str, prefix: &str| id.strip_prefix(prefix).unwrap().to_owned();
        for bad in non_canonical("veh", &split(vehicle, "veh")) {
            assert!(backend.vehicle_state(&bad).is_none(), "get {bad:?}");
            assert!(
                backend.command_vehicle_speed(&bad, speed).is_err(),
                "set {bad:?}"
            );
        }
        for bad in non_canonical("tl", &split(light, "tl")) {
            assert!(backend.light_phase(&bad).is_err(), "{bad:?}");
        }
        for bad in non_canonical("loop", &split(detector, "loop")) {
            assert!(backend.loop_last_step_count(&bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn simulation_accepts_only_canonical_ids() {
        use velopt_microsim::SimConfig;
        use velopt_road::Road;

        let mut sim = Simulation::new(Road::us25(), SimConfig::default()).unwrap();
        sim.add_detector(Meters::new(100.0)).unwrap();
        let ego = sim.spawn_ego(MetersPerSecond::new(5.0)).unwrap();
        assert_eq!(ego.to_string(), "veh0");
        assert_only_canonical_ids(&mut sim, "veh0", "tl1", "loop0");
    }

    #[test]
    fn network_accepts_only_canonical_ids() {
        use velopt_microsim::{CorridorSpec, SimConfig};
        use velopt_road::Road;

        let mut specs = vec![
            CorridorSpec::through(Road::us25(), 1),
            CorridorSpec::terminal(Road::us25()),
        ];
        for spec in &mut specs {
            spec.detectors.push(Meters::new(100.0));
        }
        let mut net = Network::new(specs, 1, SimConfig::default()).unwrap();
        let ego = net.spawn_ego(0, MetersPerSecond::new(5.0)).unwrap();
        assert_only_canonical_ids(&mut net, &ego.to_string(), "tl1:1", "loop1:0");
        // Both halves of a scoped id must be canonical.
        for bad in ["tl01:1", "tl1:01", "tl+1:1", "tl1:+1", "tl1: 1", "loop1:00"] {
            assert!(
                net.light_phase(bad).is_err() && net.loop_last_step_count(bad).is_err(),
                "{bad:?}"
            );
        }
    }

    /// A vehicle mid-handoff (routed through the junction, queued to
    /// insert next tick) must stay visible to TraCI — a polling client
    /// that sees the id flicker out would conclude the trip ended.
    #[test]
    fn junction_handoff_vehicles_stay_visible() {
        use velopt_microsim::{CorridorSpec, Network, SimConfig};
        use velopt_road::CorridorTemplate;

        let template = CorridorTemplate {
            length: (500.0, 600.0),
            ..CorridorTemplate::default()
        };
        let specs = vec![
            CorridorSpec::through(template.generate(5).unwrap(), 1),
            CorridorSpec::terminal(template.generate(6).unwrap()),
        ];
        let mut net = Network::new(specs, 1, SimConfig::default()).unwrap();
        let ego = net
            .spawn_ego(0, velopt_common::units::MetersPerSecond::new(15.0))
            .unwrap()
            .to_string();
        for _ in 0..5000 {
            net.step();
            if net.pending(1).next().is_some() {
                let v = net.vehicle_state(&ego).expect("ego visible mid-handoff");
                assert_eq!(v.corridor, 1);
                assert_eq!(v.position.value(), 0.0);
                assert!(net.vehicle_ids().contains(&ego));
                return;
            }
        }
        panic!("ego never reached the junction");
    }
}

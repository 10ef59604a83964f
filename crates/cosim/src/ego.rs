//! The paper's single-EV loop (§III-B) in one TraCI message per tick, and
//! the Fig. 6–8 replay that drives it over the commuter-hour US-25
//! simulation.

use std::net::SocketAddr;
use velopt_common::units::{Meters, MetersPerSecond, Seconds, VehiclesPerHour};
use velopt_common::{Result, TimeSeries};
use velopt_core::dp::OptimizedProfile;
use velopt_microsim::{SimConfig, Simulation};
use velopt_road::Road;
use velopt_traci::protocol::ids;
use velopt_traci::{Message, TraciClient, TraciServer, Version};

/// The departure time used by the simulation experiments: seven whole 60 s
/// signal cycles, so the plan's `t = 0` is phase-aligned.
pub const DEPART_S: f64 = 420.0;
/// Entrance arrival rate (veh/h) of the Fig. 6–8 commuter demand.
const ENTRANCE_RATE: f64 = 120.0;
/// Side-road inflow rate (veh/h) at 600 m, just upstream of the first light.
const SIDE_RATE: f64 = 680.0;

/// What a tick read after its step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EgoState {
    /// Simulation time, in seconds.
    pub time: f64,
    /// The ego's offset along its road, in metres.
    pub position: f64,
    /// The ego's speed, in m/s.
    pub speed: f64,
}

/// Drives one ego vehicle through a TraCI simulation. A tick is one
/// message: the `setSpeed` the caller computed from the last tick's state
/// (none on the first tick), the step, then reads of the ego's position and
/// speed, the time and each named loop's last-step count. The server runs
/// a message's commands in order — `setSpeed` k, then step k + 1, as one
/// command per message would — so the simulation keeps its bits.
#[derive(Debug)]
pub struct EgoDriver {
    traci: TraciClient,
    version: Version,
    /// Both built once: the step and the reads, and the same behind a
    /// `setSpeed` whose 8-byte speed at `speed_at` each commanded tick
    /// rewrites in place.
    reads: Message,
    steered: Message,
    speed_at: usize,
    time: f64,
    loop_counts: Vec<i32>,
}

impl EgoDriver {
    /// Connects to the TraCI server at `traci_addr`, checks its version,
    /// and builds the ticks that drive `ego_id` and read the loops `loops`.
    ///
    /// # Errors
    ///
    /// Returns the connection's or the version handshake's error.
    pub fn connect(traci_addr: SocketAddr, ego_id: &str, loops: &[&str]) -> Result<Self> {
        let mut traci = TraciClient::connect(traci_addr)?;
        let version = traci.get_version()?;
        let put_reads = |message: &mut Message| {
            message
                .simulation_step(0.0)
                .get(ids::CMD_GET_VEHICLE_VARIABLE, ids::VAR_POSITION, ego_id)
                .get(ids::CMD_GET_VEHICLE_VARIABLE, ids::VAR_SPEED, ego_id)
                .get(ids::CMD_GET_SIM_VARIABLE, ids::VAR_TIME, "");
            for id in loops {
                message.get(
                    ids::CMD_GET_INDUCTIONLOOP_VARIABLE,
                    ids::LAST_STEP_VEHICLE_NUMBER,
                    id,
                );
            }
        };
        let (mut reads, mut steered) = (Message::new(), Message::new());
        put_reads(&mut reads);
        let speed_at = steered.set_vehicle_speed(ego_id, 0.0);
        put_reads(&mut steered);
        Ok(Self {
            traci,
            version,
            reads,
            steered,
            speed_at,
            time: 0.0,
            loop_counts: vec![0; loops.len()],
        })
    }

    /// The server's answer to the version handshake.
    pub fn version(&self) -> &Version {
        &self.version
    }

    /// Commands the ego's speed (`None` on the first tick), advances the
    /// simulation one step and reads the new state. Returns `None` once
    /// the ego has left: the trip is over, and [`Self::time`] is its end.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the TraCI link fails, the server
    /// rejects the speed command, the step or a loop read, or a read does
    /// not decode.
    pub fn tick(&mut self, command: Option<f64>) -> Result<Option<EgoState>> {
        let message = match command {
            Some(speed) => {
                self.steered.set_speed_at(self.speed_at, speed);
                &self.steered
            }
            None => &self.reads,
        };
        let mut answers = self.traci.send(message)?;
        if command.is_some() {
            answers.check()?;
        }
        answers.check()?;
        // The position read fails once the ego has left.
        let position = answers.position();
        let speed = answers.f64();
        self.time = answers.f64()?;
        for count in &mut self.loop_counts {
            *count = answers.i32()?;
        }
        answers.finish()?;
        let Ok((position, _)) = position else {
            return Ok(None);
        };
        Ok(Some(EgoState {
            time: self.time,
            position,
            speed: speed?,
        }))
    }

    /// The simulation time the last tick read, in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The last tick's vehicle count at each loop named at
    /// [`connect`](Self::connect), in that order.
    pub fn loop_counts(&self) -> &[i32] {
        &self.loop_counts
    }

    /// Ends the TraCI session (`CMD_CLOSE`), letting the server tear down.
    ///
    /// # Errors
    ///
    /// Returns [`velopt_common::Error::Io`] if the close handshake fails.
    pub fn close(mut self) -> Result<()> {
        self.traci.close()
    }
}

/// The Fig. 6–8 scenario: US-25 with [`ENTRANCE_RATE`] at the entrance and
/// [`SIDE_RATE`] from the side road at 600 m, warmed up to [`DEPART_S`],
/// with the ego spawned at rest. Returns the simulation and the ego's id.
///
/// # Errors
///
/// Propagates simulator construction failures.
pub(crate) fn commuter_simulation() -> Result<(Simulation, String)> {
    let mut sim = Simulation::new(Road::us25(), SimConfig::default())?;
    sim.set_arrival_rate(VehiclesPerHour::new(ENTRANCE_RATE));
    sim.add_entry_point(Meters::new(600.0), VehiclesPerHour::new(SIDE_RATE))?;
    sim.run_until(Seconds::new(DEPART_S))?;
    let ego = sim.spawn_ego(MetersPerSecond::ZERO)?.to_string();
    Ok((sim, ego))
}

/// What came back from replaying a plan through the simulator over TraCI.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The simulator-derived ego speed profile (the paper's "derived
    /// velocity profile from SUMO").
    pub derived_speed: TimeSeries,
    /// Trip duration in the simulator.
    pub trip: Seconds,
    /// Minimum speed inside each light's area, from 150 m before its stop
    /// line to 10 m past it.
    pub min_speed_at_lights: Vec<f64>,
    /// Full stops observed inside the light areas.
    pub stops_at_lights: usize,
    /// The TraCI server's version.
    pub server: Version,
}

/// Replays an optimized profile through the simulator, commanding the
/// plan's speed for the ego's position every tick.
///
/// # Errors
///
/// Propagates simulator construction and protocol failures.
pub fn replay_through_traci(profile: &OptimizedProfile) -> Result<ReplayOutcome> {
    replay_with(|ego| Ok(profile.speed_at_position(Meters::new(ego.position)).value()))
}

/// Drives the ego of the Fig. 6–8 scenario (US-25, 120 veh/h at the
/// entrance and 680 veh/h from the side road at 600 m, warmed up to
/// [`DEPART_S`]) to the end of the road, each tick commanding the speed
/// `control` returned for the last tick's state,
/// floored at 0.3 m/s so the ego creeps through a plan's zero-speed point
/// at the stop sign (the simulator's own stop logic makes the halt).
///
/// # Errors
///
/// Propagates simulator construction, protocol and `control` failures.
pub fn replay_with(mut control: impl FnMut(&EgoState) -> Result<f64>) -> Result<ReplayOutcome> {
    let (sim, ego) = commuter_simulation()?;
    let lights = sim
        .road()
        .traffic_lights()
        .iter()
        .map(|l| l.position().value());
    let zones: Vec<(f64, f64)> = lights.map(|p| (p - 150.0, p + 10.0)).collect();
    let server = TraciServer::spawn(sim)?;
    let mut driver = EgoDriver::connect(server.addr(), &ego, &[])?;
    let mut min_speed_at_lights = vec![f64::INFINITY; zones.len()];
    // The ego starts at rest; its departure is not a stop.
    let (mut stops_at_lights, mut was_stopped, mut moved) = (0, true, false);
    let mut command = None;
    while let Some(state) = driver.tick(command)? {
        let (x, v) = (state.position, state.speed);
        if v > 1.0 {
            moved = true;
            was_stopped = false;
        }
        for (z, &(a, b)) in zones.iter().enumerate() {
            if x >= a && x <= b {
                min_speed_at_lights[z] = min_speed_at_lights[z].min(v);
                if moved && v < 0.1 && !was_stopped {
                    stops_at_lights += 1;
                    was_stopped = true;
                }
            }
        }
        command = Some(control(&state)?.max(0.3));
    }
    let trip = Seconds::new(driver.time() - DEPART_S);
    let server_version = driver.version().clone();
    driver.close()?;
    let derived_speed = server.simulation().lock().ego_speed_series()?;
    server.join();
    Ok(ReplayOutcome {
        derived_speed,
        trip,
        min_speed_at_lights,
        stops_at_lights,
        server: server_version,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::counting_proxy;
    use std::sync::atomic::{AtomicU64, Ordering};
    use velopt_core::{ReplanConfig, Replanner, SystemConfig, VelocityOptimizationSystem};

    /// A trip's control law, floored as the replay floors it.
    enum Law<'a> {
        Plan(&'a OptimizedProfile),
        Replan(Box<Replanner>),
    }

    impl Law<'_> {
        fn command(&mut self, ego: &EgoState) -> Result<f64> {
            let position = Meters::new(ego.position);
            let speed = match self {
                Law::Plan(plan) => plan.speed_at_position(position),
                Law::Replan(replanner) => replanner.command(
                    position,
                    MetersPerSecond::new(ego.speed),
                    Seconds::new(ego.time - DEPART_S),
                )?,
            };
            Ok(speed.value().max(0.3))
        }

        fn replans(&self) -> usize {
            match self {
                Law::Plan(_) => 0,
                Law::Replan(replanner) => replanner.replans(),
            }
        }
    }

    /// One trip, bit for bit.
    #[derive(Default)]
    struct Trip {
        /// Each tick's time, position and speed while the ego drove.
        states: Vec<[u64; 3]>,
        /// The time the ego left.
        end: u64,
        /// Loop crossings summed over the ticks the ego drove.
        crossings: i64,
        replans: usize,
        /// Each light area's minimum speed, and the stops in them.
        minima: Vec<u64>,
        stops: usize,
        /// The ego speed trace the simulation recorded.
        trace: Vec<u64>,
        /// The final simulation: its time, completed count, every
        /// vehicle's id, position and speed, and each detector's total.
        digest: Vec<u64>,
    }

    fn bits(ego: &EgoState) -> [u64; 3] {
        [ego.time, ego.position, ego.speed].map(f64::to_bits)
    }

    impl Trip {
        /// Fails at the first tick, then the first field, where `self`
        /// differs from `reference`.
        fn assert_same(&self, reference: &Trip) {
            let ticks = self.states.iter().zip(&reference.states);
            let tick = ticks.take_while(|(a, b)| a == b).count();
            assert_eq!(self.states.len(), tick, "ticks agree up to {tick}");
            assert_eq!(reference.states.len(), tick, "ticks agree up to {tick}");
            assert_eq!(self.end, reference.end, "trip end");
            assert_eq!(self.crossings, reference.crossings, "loop crossings");
            assert_eq!(self.replans, reference.replans, "replans");
            assert_eq!(self.minima, reference.minima, "light-area minima");
            assert_eq!(self.stops, reference.stops, "stops");
            assert!(self.trace == reference.trace, "recorded ego trace");
            assert!(self.digest == reference.digest, "final simulation");
        }

        /// Fills in what follows from the ticks, the law and the
        /// simulation.
        fn finish(&mut self, law: &Law, sim: &Simulation) {
            // The replay's light areas, from 150 m before each stop line
            // to 10 m past it; the ego starts at rest.
            let lights = sim
                .road()
                .traffic_lights()
                .iter()
                .map(|l| l.position().value());
            let zones: Vec<(f64, f64)> = lights.map(|p| (p - 150.0, p + 10.0)).collect();
            let mut minima = vec![f64::INFINITY; zones.len()];
            let (mut was_stopped, mut moved) = (true, false);
            for [_, x, v] in self.states.iter().map(|s| s.map(f64::from_bits)) {
                if v > 1.0 {
                    moved = true;
                    was_stopped = false;
                }
                for (z, &(a, b)) in zones.iter().enumerate() {
                    if (a..=b).contains(&x) {
                        minima[z] = minima[z].min(v);
                        if moved && v < 0.1 && !was_stopped {
                            self.stops += 1;
                            was_stopped = true;
                        }
                    }
                }
            }
            self.minima = minima.iter().map(|v| v.to_bits()).collect();
            self.replans = law.replans();
            self.trace = sim
                .ego_trace()
                .iter()
                .map(|p| p.speed.value().to_bits())
                .collect();
            self.digest = vec![sim.time().value().to_bits(), sim.completed()];
            for v in sim.vehicles() {
                self.digest.extend([
                    v.id().raw(),
                    v.position().value().to_bits(),
                    v.speed().value().to_bits(),
                ]);
            }
            self.digest
                .extend(sim.detectors().iter().map(|d| d.total()));
        }
    }

    /// The loop as every copy wrote it before the driver: one command per
    /// message, the speed command last.
    fn per_call(addr: SocketAddr, ego: &str, loops: &[&str], law: &mut Law) -> Result<Trip> {
        let mut client = TraciClient::connect(addr)?;
        client.get_version()?;
        let mut trip = Trip::default();
        loop {
            client.simulation_step(0.0)?;
            let Ok((position, _)) = client.vehicle_position(ego) else {
                break;
            };
            let speed = client.vehicle_speed(ego)?;
            let time = client.simulation_time()?;
            for id in loops {
                trip.crossings += i64::from(client.induction_loop_count(id)?);
            }
            let state = EgoState {
                time,
                position,
                speed,
            };
            trip.states.push(bits(&state));
            client.set_vehicle_speed(ego, law.command(&state)?)?;
        }
        trip.end = client.simulation_time()?.to_bits();
        client.close()?;
        Ok(trip)
    }

    /// The same loop through an [`EgoDriver`], checking that every tick,
    /// the last included, is one message.
    fn driven(
        addr: SocketAddr,
        ego: &str,
        loops: &[&str],
        law: &mut Law,
        messages: &AtomicU64,
    ) -> Result<Trip> {
        let mut driver = EgoDriver::connect(addr, ego, loops)?;
        let mut trip = Trip::default();
        let mut command = None;
        loop {
            let sent = messages.load(Ordering::SeqCst);
            let state = driver.tick(command)?;
            let tick = trip.states.len();
            assert_eq!(messages.load(Ordering::SeqCst) - sent, 1, "tick {tick}");
            let Some(state) = state else {
                break;
            };
            trip.crossings += driver
                .loop_counts()
                .iter()
                .map(|&c| i64::from(c))
                .sum::<i64>();
            trip.states.push(bits(&state));
            command = Some(law.command(&state)?);
        }
        trip.end = driver.time().to_bits();
        driver.close()?;
        Ok(trip)
    }

    /// Drives one trip of the commuter scenario, with a loop at 25 m when
    /// `loops` names it, per call or through the driver.
    fn trip(law: &mut Law, loops: &[&str], through_driver: bool) -> Trip {
        let (mut sim, ego) = commuter_simulation().unwrap();
        if !loops.is_empty() {
            sim.add_detector(Meters::new(25.0)).unwrap();
        }
        let server = TraciServer::spawn(sim).unwrap();
        let mut trip = if through_driver {
            let (proxy, messages, forwarder) = counting_proxy(server.addr());
            let trip = driven(proxy, &ego, loops, law, &messages).unwrap();
            forwarder.join().unwrap();
            trip
        } else {
            per_call(server.addr(), &ego, loops, law).unwrap()
        };
        trip.finish(law, &server.simulation().lock());
        server.join();
        trip
    }

    /// The driver's one message per tick changes no bit of what the
    /// per-call loop did: on the Fig. 6 queue-aware and baseline plans,
    /// and on a closed-loop `Replanner` trip that reads a loop every
    /// tick, the ego's ticks, trip end, light-area minima and stops, loop
    /// crossings, replans, recorded trace and the final simulation are
    /// equal by `to_bits`. The shared replay reports the per-call loop's
    /// trip, minima, stops and trace.
    #[test]
    fn ego_driver_keeps_the_per_call_bits_in_one_message_a_tick() {
        let system = VelocityOptimizationSystem::new(SystemConfig::us25_rush()).unwrap();
        let ours = system.optimize().unwrap();
        let baseline = system.optimize_baseline().unwrap();
        for plan in [&ours, &baseline] {
            let reference = trip(&mut Law::Plan(plan), &[], false);
            trip(&mut Law::Plan(plan), &[], true).assert_same(&reference);

            let replay = replay_through_traci(plan).unwrap();
            let trip_s = f64::from_bits(reference.end) - DEPART_S;
            assert_eq!(replay.trip.value().to_bits(), trip_s.to_bits());
            let minima: Vec<u64> = replay
                .min_speed_at_lights
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(minima, reference.minima);
            assert_eq!(replay.stops_at_lights, reference.stops);
            let trace: Vec<u64> = replay
                .derived_speed
                .samples()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(trace, reference.trace);
        }

        let replanner = || {
            let replanner = Replanner::new(system.clone(), ReplanConfig::default()).unwrap();
            Law::Replan(Box::new(replanner))
        };
        let reference = trip(&mut replanner(), &["loop0"], false);
        assert!(reference.replans > 0, "the closed loop must replan");
        assert!(reference.crossings > 0, "the loop must count traffic");
        trip(&mut replanner(), &["loop0"], true).assert_same(&reference);
        assert_eq!(Road::us25().traffic_lights().len(), reference.minima.len());
    }
}

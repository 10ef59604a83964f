//! **Co-simulation drivers**: the paper's TraCI loop, for one EV and for a
//! whole fleet.
//!
//! The paper checks its plans by driving one EV through SUMO over TraCI:
//! every step it reads the EV's state and commands its speed (§III-B).
//! [`EgoDriver`] is that loop, one TraCI message per tick, and
//! [`replay_through_traci`] runs it on the commuter-hour US-25 scenario of
//! Fig. 6–8.
//!
//! The serving tier exists so *every* vehicle can plan at once. This crate
//! closes the loop between the two halves the repo already has — the
//! multi-corridor [`Network`](velopt_microsim::Network) behind a
//! [`TraciServer`](velopt_traci::TraciServer), and the sharded
//! [`CloudServer`](velopt_cloud::CloudServer) — with a [`FleetDriver`]
//! that, each tick:
//!
//! 1. **reads** signal phases (`tl<c>:<i>`), loop-detector counts
//!    (`loop<c>:0`) and every vehicle's position over the TraCI protocol,
//! 2. **replans** every vehicle whose corridor's `T_q` windows shifted —
//!    a phase flip restarts the queue clock, so all of that corridor's
//!    vehicles re-request at once (the correlated storm the cloud's
//!    single-flight table exists for); each vehicle is its own
//!    [`CloudClient`] connection. Each corridor's request is encoded once,
//!    and every vehicle's request is written before any reply is read, so
//!    identical requests are in flight together without a thread per
//!    vehicle. The request departs at the epoch's phase in the corridor's
//!    signal period when its arrival windows repeat ([`window_period`]),
//!    so epochs a period apart send the same bytes and share one cloud
//!    solve, and the fleet plans past the planner's horizon,
//! 3. **feeds back** each returned profile as a TraCI speed command for
//!    the vehicle's current position.
//!
//! The TraCI side of a tick is one pipelined message (see
//! [`TraciClient::send`]) unless the tick lists a new vehicle or plans: the
//! step with every signal, loop and vehicle-list read, then the position of
//! every vehicle the last tick listed. Those positions are read after the
//! step, so they are this tick's. A second message reads the vehicles
//! listed for the first time, and on planning ticks a last one carries the
//! wave's speed commands, so a tick sends at most three. Commands are
//! applied at the positions read in the same tick, since no step runs in
//! between. Each message is encoded in place into a buffer the driver
//! keeps, and each reply is read in place: a tick that lists no new
//! vehicle, loses none, sees no flip and plans nothing allocates nothing.
//!
//! Everything the driver does is a pure function of the seeded
//! simulation's state plus the (deterministic) plan responses, so fleet
//! counters — flips seen, replans issued, commands applied — are exactly
//! pinnable under a lockstep harness.

mod ego;

pub use ego::{replay_through_traci, replay_with, EgoDriver, EgoState, ReplayOutcome, DEPART_S};

use std::collections::{HashMap, HashSet};
use std::mem;
use std::net::SocketAddr;
use velopt_cloud::{CloudClient, TripFrame, TripRequest};
use velopt_common::units::{Seconds, VehiclesPerHour};
use velopt_common::Result;
use velopt_core::dp::OptimizedProfile;
use velopt_core::windows::{phase_in_period, window_period};
use velopt_queue::QueueParams;
use velopt_road::Road;
use velopt_traci::protocol::ids;
use velopt_traci::{Answers, Message, TraciClient};

/// Tuning knobs for the [`FleetDriver`].
#[derive(Debug, Clone)]
pub struct CosimConfig {
    /// Plan with the paper's queue-aware arrival windows (`true`, the
    /// default) or the green-only baseline.
    pub queue_aware: bool,
    /// Cap on replans issued per tick (`0` = unlimited). The cap is
    /// applied in sorted vehicle-id order, so it is deterministic.
    pub max_replans_per_tick: usize,
    /// Floor on commanded speeds in m/s: a plan whose local speed is
    /// below this commands the floor instead, so a vehicle is never
    /// ordered to park on the through lane.
    pub command_floor: f64,
    /// Granularity (vehicles/hour) the estimated arrival rates are
    /// rounded to before they enter a plan request. Coarser buckets keep
    /// the rates in the request key stable from one epoch to the next; the
    /// departure, the epoch's phase in its corridor's signal period (see
    /// the crate docs), keeps the rest of the key stable, and together
    /// they let the cloud's plan cache and single-flight table answer
    /// many replans with one solve.
    pub rate_quantum: f64,
}

impl Default for CosimConfig {
    fn default() -> Self {
        Self {
            queue_aware: true,
            max_replans_per_tick: 0,
            command_floor: 1.0,
            rate_quantum: 100.0,
        }
    }
}

/// Lockstep counters describing what the driver has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Ticks driven.
    pub ticks: u64,
    /// Signal-phase flips observed across all corridors (each one shifts
    /// that corridor's `T_q` windows and triggers a replan storm).
    pub flips: u64,
    /// Plan requests issued to the cloud.
    pub replans: u64,
    /// Replans answered with a profile.
    pub plans_ok: u64,
    /// Replans answered without a profile: the cloud refused the trip or
    /// the connection (a server at its connection ceiling), or the
    /// connection failed mid-request.
    pub plan_failures: u64,
    /// Speed commands applied over TraCI.
    pub commands: u64,
}

/// Per-corridor observation state.
struct Corridor {
    road: Road,
    /// Concatenated phase states of every light, as last observed.
    signature: Vec<u8>,
    /// Bumped on every signature change; vehicles replan when their
    /// planned epoch falls behind.
    epoch: u64,
    /// Sim time of the last flip. The epoch's replan wave departs at it,
    /// or at its phase in the corridor's signal period (identical
    /// departures are what coalesce).
    epoch_time: f64,
    /// Cumulative entrance-loop crossings, for the arrival-rate estimate.
    volume: u64,
}

impl Corridor {
    /// Reads the corridor's light states, then its entrance-loop count,
    /// from `answers`, and bumps the replan epoch if the states flipped.
    /// `states` is scratch, swapped with the signature on a flip. Returns
    /// whether they flipped; the first observation is not a flip.
    fn observe(
        &mut self,
        now: f64,
        states: &mut Vec<u8>,
        answers: &mut Answers<'_>,
    ) -> Result<bool> {
        states.clear();
        for _ in 0..self.road.traffic_lights().len() {
            states.extend_from_slice(answers.str()?.as_bytes());
        }
        let crossings = answers.i32()?;
        self.volume += crossings.max(0) as u64;
        if self.signature == *states {
            return Ok(false);
        }
        let flipped = !self.signature.is_empty();
        if flipped {
            self.epoch += 1;
            self.epoch_time = now;
        }
        mem::swap(&mut self.signature, states);
        Ok(flipped)
    }
}

/// One vehicle's planning connection plus what it last planned against.
#[derive(Default)]
struct Pilot {
    /// Opened on the vehicle's first plan, and dropped when a plan fails:
    /// the next plan reconnects, so a connection the cloud refused is not
    /// reused.
    client: Option<CloudClient>,
    /// `(corridor, epoch)` of the last successful (or failed) plan; the
    /// vehicle replans when its corridor moves past this.
    planned: Option<(usize, u64)>,
}

/// A vehicle the simulation lists.
struct Vehicle {
    /// Its TraCI id, made once, when it is first listed.
    id: String,
    /// `(corridor offset, corridor index)`, read this tick.
    position: (f64, f64),
    /// Whether this tick's id list named it; a vehicle it did not name
    /// has left, and its pilot goes with it.
    listed: bool,
    pilot: Pilot,
}

impl Vehicle {
    fn new(id: &str) -> Self {
        Self {
            id: id.to_owned(),
            position: (0.0, 0.0),
            listed: true,
            pilot: Pilot::default(),
        }
    }
}

/// A vehicle chosen for replanning: its index in the listed vehicles, its
/// corridor, and the position its speed command will be computed for.
type Flight = (usize, usize, f64);

/// The fleet driver: one TraCI connection to the network simulation, one
/// cloud connection per vehicle.
pub struct FleetDriver {
    traci: TraciClient,
    cloud_addr: SocketAddr,
    config: CosimConfig,
    corridors: Vec<Corridor>,
    /// Every tick's first message. Everything before `observed` is
    /// encoded once: the step, the simulation time, each corridor's light
    /// states then entrance-loop count, and the vehicle id list. A position
    /// read per vehicle in `vehicles` follows, re-encoded every tick.
    message: Message,
    observed: usize,
    /// The tick's second and third messages: the position reads of newly
    /// listed vehicles, then the wave's speed commands.
    extra: Message,
    /// The vehicles the last tick listed, sorted by id.
    vehicles: Vec<Vehicle>,
    /// Scratch, kept across ticks: vehicles listed for the first time, a
    /// corridor's light states, and the replan wave.
    arrived: Vec<Vehicle>,
    states: Vec<u8>,
    wave: Vec<Flight>,
    stats: FleetStats,
}

impl FleetDriver {
    /// Connects to a TraCI server fronting a `Network` whose corridor
    /// roads are `roads` (in corridor order), and to the cloud at
    /// `cloud_addr`.
    ///
    /// # Errors
    ///
    /// Returns [`velopt_common::Error::Io`] if the TraCI connection
    /// cannot be established.
    pub fn connect(
        traci_addr: SocketAddr,
        cloud_addr: SocketAddr,
        roads: Vec<Road>,
        config: CosimConfig,
    ) -> Result<Self> {
        let traci = TraciClient::connect(traci_addr)?;
        let mut message = Message::new();
        message
            .simulation_step(0.0)
            .get(ids::CMD_GET_SIM_VARIABLE, ids::VAR_TIME, "");
        for (c, road) in roads.iter().enumerate() {
            for i in 0..road.traffic_lights().len() {
                message.get(
                    ids::CMD_GET_TL_VARIABLE,
                    ids::TL_RED_YELLOW_GREEN_STATE,
                    &format!("tl{c}:{i}"),
                );
            }
            message.get(
                ids::CMD_GET_INDUCTIONLOOP_VARIABLE,
                ids::LAST_STEP_VEHICLE_NUMBER,
                &format!("loop{c}:0"),
            );
        }
        message.get(ids::CMD_GET_VEHICLE_VARIABLE, ids::ID_LIST, "");
        let corridors = roads
            .into_iter()
            .map(|road| Corridor {
                road,
                signature: Vec::new(),
                epoch: 0,
                epoch_time: 0.0,
                volume: 0,
            })
            .collect();
        Ok(Self {
            traci,
            cloud_addr,
            config,
            corridors,
            observed: message.mark(),
            message,
            extra: Message::new(),
            vehicles: Vec::new(),
            arrived: Vec::new(),
            states: Vec::new(),
            wave: Vec::new(),
            stats: FleetStats::default(),
        })
    }

    /// Counters so far.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// Advances the simulation one step and closes the loop: observe,
    /// replan shifted corridors, command the fleet.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the TraCI link fails or a new
    /// vehicle's cloud connection cannot be opened. Per-vehicle plan
    /// refusals — of the trip, or of the connection by a cloud at its
    /// connection ceiling — are *not* errors; they count in
    /// [`FleetStats::plan_failures`].
    pub fn step(&mut self) -> Result<()> {
        // Message 1: the step, every read the tick decides on, and the
        // position of every vehicle the last tick listed.
        self.message.truncate(self.observed);
        for vehicle in &self.vehicles {
            position_read(&mut self.message, &vehicle.id);
        }
        let mut answers = self.traci.send(&self.message)?;
        answers.check()?;
        self.stats.ticks += 1;
        let now = answers.f64()?;
        for corridor in &mut self.corridors {
            if corridor.observe(now, &mut self.states, &mut answers)? {
                self.stats.flips += 1;
                telemetry::add("cosim.flips", 1);
            }
        }
        // Merge the id list into the sorted vehicles: a known id is marked
        // listed, an unknown one arrives.
        for vehicle in &mut self.vehicles {
            vehicle.listed = false;
        }
        self.arrived.clear();
        for id in answers.ids()? {
            match self.vehicles.binary_search_by(|v| v.id.as_str().cmp(id)) {
                Ok(k) => self.vehicles[k].listed = true,
                Err(_) => self.arrived.push(Vehicle::new(id)),
            }
        }
        // The positions, in last tick's order; a vehicle that has left
        // fails its read, and its answer is skipped.
        for vehicle in &mut self.vehicles {
            if vehicle.listed {
                vehicle.position = answers.position()?;
            } else {
                let _ = answers.check();
            }
        }
        answers.finish()?;
        // Vehicles that left the network take their connection with them.
        self.vehicles.retain(|v| v.listed);
        if !self.arrived.is_empty() {
            self.arrive()?;
        }
        self.plan_wave();
        self.replan()
    }

    /// Message 2: reads the positions of the vehicles listed for the first
    /// time and merges them into the sorted vehicles.
    fn arrive(&mut self) -> Result<()> {
        self.arrived.sort_unstable_by(|a, b| a.id.cmp(&b.id));
        self.extra.clear();
        for vehicle in &self.arrived {
            position_read(&mut self.extra, &vehicle.id);
        }
        let mut answers = self.traci.send(&self.extra)?;
        for vehicle in &mut self.arrived {
            vehicle.position = answers.position()?;
        }
        answers.finish()?;
        self.vehicles.append(&mut self.arrived);
        self.vehicles.sort_unstable_by(|a, b| a.id.cmp(&b.id));
        Ok(())
    }

    /// Runs `n` lockstep ticks.
    ///
    /// # Errors
    ///
    /// Propagates the first [`Self::step`] error.
    pub fn run(&mut self, n: usize) -> Result<()> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// Collects the vehicles whose corridor epoch moved past their last
    /// plan into `wave`, in sorted-id order (deterministic, and stable
    /// under the `max_replans_per_tick` cap).
    fn plan_wave(&mut self) {
        self.wave.clear();
        for (k, vehicle) in self.vehicles.iter().enumerate() {
            let (x, y) = vehicle.position;
            let corridor = y as usize;
            if corridor >= self.corridors.len() {
                continue;
            }
            let epoch = self.corridors[corridor].epoch;
            if vehicle.pilot.planned != Some((corridor, epoch)) {
                self.wave.push((k, corridor, x));
                if self.config.max_replans_per_tick > 0
                    && self.wave.len() >= self.config.max_replans_per_tick
                {
                    break;
                }
            }
        }
    }

    /// Issues the wave's plan requests and feeds the profiles back as
    /// speed commands, all in the tick's last TraCI message. Every flight's
    /// request is written, each on its vehicle's own connection, before
    /// any reply is read, so the whole wave is in flight together — the
    /// storm the cloud's single-flight table sees — without a thread per
    /// vehicle.
    fn replan(&mut self) -> Result<()> {
        if self.wave.is_empty() {
            return Ok(());
        }
        // Per-corridor requests are encoded once and shared byte-for-byte.
        let frames: HashMap<usize, TripFrame> = self
            .wave
            .iter()
            .map(|&(_, c, _)| c)
            .collect::<HashSet<_>>()
            .into_iter()
            .map(|c| {
                let request = corridor_request(&self.corridors[c], &self.config);
                (c, TripFrame::new(&request))
            })
            .collect();

        // Detach each planning connection (opening it on first use, or
        // after a failed plan) so the wave owns them while it is in flight.
        let mut clients: Vec<CloudClient> = Vec::with_capacity(self.wave.len());
        for &(k, _, _) in &self.wave {
            clients.push(match self.vehicles[k].pilot.client.take() {
                Some(client) => client,
                None => CloudClient::connect(self.cloud_addr)?,
            });
        }

        self.stats.replans += clients.len() as u64;
        telemetry::add("cosim.replans", clients.len() as u64);
        // A failed send or receive is that flight's outcome alone.
        let sent: Vec<Result<()>> = clients
            .iter_mut()
            .zip(&self.wave)
            .map(|(client, flight)| client.send(&frames[&flight.1]))
            .collect();
        let outcomes: Vec<Result<OptimizedProfile>> = clients
            .iter_mut()
            .zip(sent)
            .map(|(client, sent)| sent.and_then(|()| client.receive()))
            .collect();

        // The tick's last message: the wave's speed commands.
        self.extra.clear();
        let mut commands = 0u64;
        for ((&(k, corridor, position), client), outcome) in
            self.wave.iter().zip(clients).zip(outcomes)
        {
            // Failed plans still advance the epoch marker: a refused
            // vehicle retries on the *next* window shift, not every tick,
            // and on a new connection.
            let vehicle = &mut self.vehicles[k];
            let client = match outcome {
                Ok(profile) => {
                    self.stats.plans_ok += 1;
                    let speed = Self::speed_at(&profile, position).max(self.config.command_floor);
                    self.extra.set_vehicle_speed(&vehicle.id, speed);
                    commands += 1;
                    Some(client)
                }
                Err(_) => {
                    self.stats.plan_failures += 1;
                    telemetry::add("cosim.plan_failures", 1);
                    None
                }
            };
            let planned = Some((corridor, self.corridors[corridor].epoch));
            vehicle.pilot = Pilot { client, planned };
        }
        // A command the simulator refuses is not an error, just not
        // counted.
        let mut answers = self.traci.send(&self.extra)?;
        let mut applied = 0;
        for _ in 0..commands {
            applied += u64::from(answers.check().is_ok());
        }
        answers.finish()?;
        self.stats.commands += applied;
        telemetry::add("cosim.commands", applied);
        Ok(())
    }

    /// Ends the TraCI session (`CMD_CLOSE`, letting the simulation server
    /// tear down) and drops every planning connection.
    ///
    /// # Errors
    ///
    /// Returns [`velopt_common::Error::Io`] if the close handshake fails.
    pub fn close(mut self) -> Result<()> {
        self.vehicles.clear();
        self.traci.close()
    }

    /// The planned speed at `position`: the profile speed of the last
    /// station at or before it (the last station's speed past the end).
    fn speed_at(profile: &OptimizedProfile, position: f64) -> f64 {
        let mut speed = profile.speeds.first().map_or(0.0, |s| s.value());
        for (station, s) in profile.stations.iter().zip(&profile.speeds) {
            if station.value() <= position {
                speed = s.value();
            } else {
                break;
            }
        }
        speed
    }
}

/// The corridor's current plan request: shared by every vehicle of the
/// epoch, so identical requests coalesce server-side.
///
/// When the corridor's arrival windows repeat with a period `C`
/// ([`window_period`]), the departure is the epoch's phase in that period
/// on a 1 ms grid ([`phase_in_period`]): `(round(epoch_time · 1000) mod
/// C_ms) / 1000` s. A plan depends on its departure only through that
/// phase, so two epochs a period apart send the same bytes, and the second
/// is answered from the cloud's plan cache or the first's flight instead of
/// a fresh solve; an epoch past the planner's horizon plans at its phase.
/// The plan's times are therefore on the folded clock — the driver reads
/// only its stations and speeds. Without a period (a light whose queue
/// outlives its green) the departure is the epoch's simulation time.
fn corridor_request(corridor: &Corridor, config: &CosimConfig) -> TripRequest {
    let hours = (corridor.epoch_time.max(1.0)) / 3600.0;
    let quantum = config.rate_quantum.max(1.0);
    let rate = ((corridor.volume as f64 / hours) / quantum).round() * quantum;
    let rate = rate.clamp(quantum, 3600.0);
    let rates = vec![VehiclesPerHour::new(rate); corridor.road.traffic_lights().len()];
    let queue = QueueParams::us25_probe();
    let epoch_time = Seconds::new(corridor.epoch_time);
    let departure = match window_period(&corridor.road, &rates, queue, config.queue_aware) {
        Some(period) => phase_in_period(epoch_time, period),
        None => epoch_time,
    };
    TripRequest {
        road: corridor.road.clone(),
        departure,
        rates,
        queue,
        queue_aware: config.queue_aware,
    }
}

/// Appends a read of vehicle `id`'s position to `message`.
fn position_read(message: &mut Message, id: &str) {
    message.get(ids::CMD_GET_VEHICLE_VARIABLE, ids::VAR_POSITION, id);
}

impl std::fmt::Debug for FleetDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetDriver")
            .field("cloud_addr", &self.cloud_addr)
            .field("corridors", &self.corridors.len())
            .field("vehicles", &self.vehicles.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{Shutdown, TcpListener, TcpStream};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::thread::JoinHandle;
    use velopt_cloud::{CloudServer, ServerConfig};
    use velopt_common::units::MetersPerSecond;
    use velopt_microsim::{CorridorSpec, Network, SimConfig};
    use velopt_road::CorridorTemplate;
    use velopt_traci::{TraciBackend, TraciServer};

    /// `corridors` seeded corridors of `template`, chained head to tail,
    /// with fresh arrivals at `head_rate` veh/h at the head and, when
    /// given, at `inner_rate` on every other corridor.
    fn chained_net(
        template: CorridorTemplate,
        corridors: usize,
        seed: u64,
        head_rate: f64,
        inner_rate: Option<f64>,
    ) -> (Network, Vec<Road>) {
        let roads: Vec<Road> = (0..corridors)
            .map(|i| template.generate(seed + i as u64).unwrap())
            .collect();
        let specs: Vec<CorridorSpec> = roads
            .iter()
            .enumerate()
            .map(|(i, road)| {
                let mut spec = if i + 1 < corridors {
                    CorridorSpec::through(road.clone(), i + 1)
                } else {
                    CorridorSpec::terminal(road.clone())
                };
                if let Some(rate) = if i == 0 { Some(head_rate) } else { inner_rate } {
                    spec.arrival_rate = VehiclesPerHour::new(rate);
                }
                spec.detectors = vec![velopt_common::units::Meters::new(25.0)];
                spec
            })
            .collect();
        let net = Network::new(specs, 1, SimConfig::default()).unwrap();
        (net, roads)
    }

    fn small_net(corridors: usize, seed: u64) -> (Network, Vec<Road>) {
        let template = CorridorTemplate {
            length: (600.0, 800.0),
            ..CorridorTemplate::default()
        };
        chained_net(template, corridors, seed, 1200.0, None)
    }

    /// Corridors of `loopbench`'s fleet template — two 30/30 s lights, no
    /// stop sign — with its head and inner arrival rates.
    fn fleet_net(corridors: usize, seed: u64) -> (Network, Vec<Road>) {
        let template = CorridorTemplate {
            length: (600.0, 900.0),
            lights: (2, 2),
            phase: (30.0, 30.0),
            stop_sign_probability: 0.0,
            ..CorridorTemplate::default()
        };
        chained_net(template, corridors, seed, 300.0, Some(60.0))
    }

    /// Two flips a signal period apart read simulation times that differ in
    /// their last bits; their requests fold onto one phase and are the same
    /// frame. A corridor whose queue outlives its green has no period and
    /// departs at the raw epoch time.
    #[test]
    fn epochs_a_period_apart_send_the_same_request_frame() {
        let (_, roads) = fleet_net(1, 5);
        let corridor = |epoch_time: f64, volume: u64| Corridor {
            road: roads[0].clone(),
            signature: Vec::new(),
            epoch: 1,
            epoch_time,
            volume,
        };
        let config = CosimConfig::default();
        // 26 and 31 crossings estimate 299.7 and 299.8 veh/h: 300 both.
        let early = corridor_request(&corridor(312.300_000_000_001_7, 26), &config);
        let late = corridor_request(&corridor(372.300_000_000_002_85, 31), &config);
        assert_eq!(early.departure, Seconds::new(12.3));
        assert_eq!(early.rates, late.rates);
        // The frame is its header and this payload.
        assert_eq!(early.encode(), late.encode());
        // A 30/30 s light cannot clear 3,500 veh/h within its green.
        let jammed = corridor_request(&corridor(312.300_000_000_001_7, 300), &config);
        assert_eq!(jammed.rates[0], VehiclesPerHour::new(3500.0));
        assert_eq!(jammed.departure, Seconds::new(312.300_000_000_001_7));
        // The green-only baseline's windows repeat at any rate.
        let baseline = CosimConfig {
            queue_aware: false,
            ..CosimConfig::default()
        };
        let jammed = corridor_request(&corridor(312.300_000_000_001_7, 300), &baseline);
        assert_eq!(jammed.departure, Seconds::new(12.3));
    }

    /// A fleet attached 3,000 simulated seconds in — past the planner's
    /// 900 s horizon, where every plan of a raw-clock departure fails —
    /// plans every replan. The first 600 ticks span one 60 s signal
    /// period, whose flips each fold onto a phase of their own; the next
    /// period's flips fold onto the same phases, so their replans share the
    /// first period's solves.
    #[test]
    fn a_fleet_plans_past_the_horizon_and_shares_solves_a_period_apart() {
        let (mut net, roads) = fleet_net(3, 25);
        net.run_until(Seconds::new(3000.0)).unwrap();
        let traci = TraciServer::spawn(net).unwrap();
        let cloud = CloudServer::spawn_with(ServerConfig {
            compute_workers: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut driver =
            FleetDriver::connect(traci.addr(), cloud.addr(), roads, CosimConfig::default())
                .unwrap();
        driver.run(600).unwrap();
        let (first, first_flights) = (driver.stats(), cloud.stats().coalesce_flights());
        driver.run(600).unwrap();
        let (stats, flights) = (driver.stats(), cloud.stats().coalesce_flights());
        driver.close().unwrap();
        cloud.shutdown();
        traci.join();
        assert!(first.replans > 0 && first.flips > 0, "{first:?}");
        assert_eq!(stats.plan_failures, 0, "{stats:?}");
        assert_eq!(stats.plans_ok, stats.replans);
        assert!(
            flights < stats.flips,
            "{flights} fresh solves for {} flips",
            stats.flips
        );
        let (second_flights, second_flips) = (flights - first_flights, stats.flips - first.flips);
        assert!(
            stats.replans > first.replans && second_flights < second_flips,
            "second period: {second_flights} fresh solves for {second_flips} flips"
        );
    }

    /// The full closed loop: seeded network → TraCI → single-flight cloud
    /// → speed commands, with deterministic fleet counters across two
    /// identical runs.
    #[test]
    fn closed_loop_replans_and_commands_deterministically() {
        let run = || {
            let (mut net, roads) = small_net(2, 77);
            net.spawn_ego(0, MetersPerSecond::new(10.0)).unwrap();
            let traci = TraciServer::spawn(net).unwrap();
            let cloud = CloudServer::spawn_with(ServerConfig {
                compute_workers: 2,
                ..ServerConfig::default()
            })
            .unwrap();
            let mut driver = FleetDriver::connect(
                traci.addr(),
                cloud.addr(),
                roads,
                CosimConfig {
                    max_replans_per_tick: 8,
                    ..CosimConfig::default()
                },
            )
            .unwrap();
            driver.run(40).unwrap();
            let stats = driver.stats();
            // Whether a duplicate follows its leader or hits the cache
            // after the leader landed depends on timing; their sum and the
            // fresh solves do not.
            let server = cloud.stats();
            let coalesced = (
                server.coalesce_flights(),
                server.coalesce_hits() + server.cache_hits(),
            );
            driver.close().unwrap();
            cloud.shutdown();
            traci.join();
            (stats, coalesced)
        };
        let (a, a_coalesce) = run();
        let (b, b_coalesce) = run();
        assert_eq!(a, b, "fleet counters must be lockstep-deterministic");
        assert!(a.ticks == 40);
        assert!(a.flips > 0, "signals must have flipped within 40 s");
        assert!(a.replans > 0, "flips must have triggered replans");
        assert_eq!(a.plan_failures, 0, "every trip is plannable");
        assert_eq!(a.plans_ok, a.replans);
        assert!(a.commands > 0, "profiles must come back as commands");
        // Every replan was a fresh solve or shared one.
        assert!(a_coalesce.0 > 0, "no fresh solve: {a_coalesce:?}");
        assert_eq!(a_coalesce.0 + a_coalesce.1, a.replans);
        assert_eq!(a_coalesce, b_coalesce, "server counters must repeat");
    }

    /// Pins what a seeded fleet does over many ticks: the driver's
    /// counters and the simulation's bit-exact state. Any change to how
    /// the driver talks TraCI (batching, ordering, reuse of reads) must
    /// leave both unchanged.
    #[test]
    fn seeded_fleet_counters_and_state_are_pinned() {
        let (mut net, roads) = small_net(3, 91);
        net.run_until(Seconds::new(200.0)).unwrap();
        let traci = TraciServer::spawn(net).unwrap();
        let cloud = CloudServer::spawn_with(ServerConfig {
            compute_workers: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut driver = FleetDriver::connect(
            traci.addr(),
            cloud.addr(),
            roads,
            CosimConfig {
                max_replans_per_tick: 4,
                ..CosimConfig::default()
            },
        )
        .unwrap();
        driver.run(1500).unwrap();
        let stats = driver.stats();
        let hash = traci.simulation().lock().state_hash();
        driver.close().unwrap();
        cloud.shutdown();
        traci.join();
        // Recorded from the one-command-per-message driver.
        assert_eq!(
            stats,
            FleetStats {
                ticks: 1500,
                flips: 18,
                replans: 263,
                plans_ok: 263,
                plan_failures: 0,
                commands: 263,
            }
        );
        assert_eq!(hash, 0x674f_f340_0d82_d42c);
    }

    /// Forwards one TraCI connection to `upstream` and counts the
    /// messages its client sends. Returns the address to connect to, the
    /// count, and the forwarding thread (done once both sides hang up).
    pub(crate) fn counting_proxy(
        upstream: SocketAddr,
    ) -> (SocketAddr, Arc<AtomicU64>, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let messages = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&messages);
        let forwarder = std::thread::spawn(move || {
            let (mut client, _) = listener.accept().unwrap();
            let mut server = TcpStream::connect(upstream).unwrap();
            client.set_nodelay(true).unwrap();
            server.set_nodelay(true).unwrap();
            let mut to_client = client.try_clone().unwrap();
            let mut from_server = server.try_clone().unwrap();
            let replies = std::thread::spawn(move || {
                let _ = std::io::copy(&mut from_server, &mut to_client);
            });
            let mut header = [0u8; 4];
            while client.read_exact(&mut header).is_ok() {
                let mut message = header.to_vec();
                message.resize(u32::from_be_bytes(header) as usize, 0);
                client.read_exact(&mut message[4..]).unwrap();
                // Counted before forwarding, so a reply the driver has
                // received implies its message was counted.
                counted.fetch_add(1, Ordering::SeqCst);
                server.write_all(&message).unwrap();
            }
            let _ = server.shutdown(Shutdown::Write);
            replies.join().unwrap();
        });
        (addr, messages, forwarder)
    }

    /// A tick costs at most three TraCI messages whatever the fleet size:
    /// one — the step with every read, and the positions of the vehicles
    /// the last tick listed — on a tick that lists no new vehicle, one more
    /// when a vehicle is listed for the first time, and one more when it
    /// plans. Every case must occur.
    #[test]
    fn a_tick_sends_at_most_three_traci_messages() {
        let (mut net, roads) = small_net(2, 77);
        net.run_until(Seconds::new(120.0)).unwrap();
        let traci = TraciServer::spawn(net).unwrap();
        let sim = traci.simulation();
        let (proxy, messages, forwarder) = counting_proxy(traci.addr());
        let cloud = CloudServer::spawn_with(ServerConfig {
            compute_workers: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut driver =
            FleetDriver::connect(proxy, cloud.addr(), roads, CosimConfig::default()).unwrap();
        let mut listed: HashSet<String> = HashSet::new();
        let (mut quiet, mut arrivals, mut planning) = (0, 0, 0);
        for tick in 0..300 {
            let (sent_before, replans_before) =
                (messages.load(Ordering::SeqCst), driver.stats().replans);
            driver.step().unwrap();
            let sent = messages.load(Ordering::SeqCst) - sent_before;
            let now: HashSet<String> = sim.lock().vehicle_ids().into_iter().collect();
            let arrived = now.iter().any(|id| !listed.contains(id));
            let planned = driver.stats().replans > replans_before;
            listed = now;
            assert_eq!(
                sent,
                1 + u64::from(arrived) + u64::from(planned),
                "tick {tick}: new vehicle {arrived}, planned {planned}"
            );
            match (arrived, planned) {
                (false, false) => quiet += 1,
                (true, _) => arrivals += 1,
                (false, true) => planning += 1,
            }
        }
        assert!(quiet > 0, "no quiet tick");
        assert!(arrivals > 0, "no tick listed a new vehicle");
        assert!(planning > 0, "no tick planned without an arrival");
        driver.close().unwrap();
        forwarder.join().unwrap();
        cloud.shutdown();
        traci.join();
    }

    /// A cloud at its connection ceiling refuses the vehicles past it.
    /// Each refusal costs that vehicle's plan, not the tick: the run goes
    /// on, and the refusals land in `plan_failures`.
    #[test]
    fn refused_cloud_connections_cost_plans_not_ticks() {
        let (mut net, roads) = small_net(1, 33);
        net.spawn_ego(0, MetersPerSecond::new(10.0)).unwrap();
        let traci = TraciServer::spawn(net).unwrap();
        let cloud = CloudServer::spawn_with(ServerConfig {
            compute_workers: 1,
            max_connections: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut driver =
            FleetDriver::connect(traci.addr(), cloud.addr(), roads, CosimConfig::default())
                .unwrap();
        driver.run(300).unwrap();
        let stats = driver.stats();
        assert!(stats.plan_failures > 0, "{stats:?}");
        assert_eq!(stats.plans_ok + stats.plan_failures, stats.replans);
        assert!(cloud.stats().rejected() > 0);
        // A refused pilot reconnects at its next plan, so each refusal
        // costs one plan.
        assert_eq!(stats.plan_failures, cloud.stats().rejected());
        driver.close().unwrap();
        cloud.shutdown();
        traci.join();
    }
}

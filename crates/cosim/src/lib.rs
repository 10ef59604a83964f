//! **Fleet co-simulation**: every microsim EV replans through the cloud.
//!
//! The paper plans one EV's velocity profile against predicted queue
//! dynamics; the serving tier exists so *every* vehicle can do that at
//! once. This crate closes the loop between the two halves the repo
//! already has — the multi-corridor [`Network`](velopt_microsim::Network)
//! behind a [`TraciServer`](velopt_traci::TraciServer), and the sharded
//! [`CloudServer`](velopt_cloud::CloudServer) — with a [`FleetDriver`]
//! that, each tick:
//!
//! 1. **reads** signal phases (`tl<c>:<i>`), loop-detector counts
//!    (`loop<c>:0`) and every vehicle's position over the TraCI protocol,
//! 2. **replans** every vehicle whose corridor's `T_q` windows shifted —
//!    a phase flip restarts the queue clock, so all of that corridor's
//!    vehicles re-request at once (the correlated storm the cloud's
//!    single-flight table exists for); each vehicle is its own
//!    [`CloudClient`] connection, greeted with the corridor index as its
//!    tenant id. Each corridor's request is encoded once, and every
//!    vehicle's request is written before any reply is read, so identical
//!    requests are in flight together without a thread per vehicle,
//! 3. **feeds back** each returned profile as a TraCI speed command for
//!    the vehicle's current position.
//!
//! The TraCI side of a tick is one pipelined message (see
//! [`TraciClient::exchange`]) unless the tick lists a new vehicle or
//! plans: the step with every signal, loop and vehicle-list read, then the
//! position of every vehicle the last tick listed. Those positions are
//! read after the step, so they are this tick's. A second message reads
//! the vehicles listed for the first time, and on planning ticks a last
//! one carries the wave's speed commands, so a tick sends at most three.
//! Commands are applied at the positions read in the same tick, since no
//! step runs in between.
//!
//! Everything the driver does is a pure function of the seeded
//! simulation's state plus the (deterministic) plan responses, so fleet
//! counters — flips seen, replans issued, commands applied — are exactly
//! pinnable under a lockstep harness.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use velopt_cloud::{CloudClient, TripFrame, TripRequest};
use velopt_common::units::{Seconds, VehiclesPerHour};
use velopt_common::Result;
use velopt_core::dp::OptimizedProfile;
use velopt_queue::QueueParams;
use velopt_road::Road;
use velopt_traci::protocol::ids;
use velopt_traci::{Command, Reply, TraciClient};

/// Tuning knobs for the [`FleetDriver`].
#[derive(Debug, Clone)]
pub struct CosimConfig {
    /// Plan with the paper's queue-aware arrival windows (`true`, the
    /// default) or the green-only baseline.
    pub queue_aware: bool,
    /// Greet each vehicle's cloud connection with its corridor index as
    /// the tenant id, so per-tenant admission and stats buckets see the
    /// fleet as one tenant per corridor. `false` leaves every connection
    /// on the anonymous tenant 0.
    pub tenant_per_corridor: bool,
    /// Cap on replans issued per tick (`0` = unlimited). The cap is
    /// applied in sorted vehicle-id order, so it is deterministic.
    pub max_replans_per_tick: usize,
    /// Floor on commanded speeds in m/s: a plan whose local speed is
    /// below this commands the floor instead, so a vehicle is never
    /// ordered to park on the through lane.
    pub command_floor: f64,
    /// Granularity (vehicles/hour) the estimated arrival rates are
    /// rounded to before they enter a plan request. Coarser buckets keep
    /// the request key stable across ticks, which is what makes the
    /// cloud's plan cache and single-flight dedupe effective.
    pub rate_quantum: f64,
}

impl Default for CosimConfig {
    fn default() -> Self {
        Self {
            queue_aware: true,
            tenant_per_corridor: true,
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
    /// Replans the cloud refused (admission limits, invalid trips).
    pub plan_failures: u64,
    /// Speed commands applied over TraCI.
    pub commands: u64,
}

/// Per-corridor observation state.
struct Corridor {
    road: Road,
    /// Concatenated phase states of every light, as last observed.
    signature: String,
    /// Bumped on every signature change; vehicles replan when their
    /// planned epoch falls behind.
    epoch: u64,
    /// Sim time of the last flip — the shared departure time of the
    /// epoch's replan wave (identical departures are what coalesce).
    epoch_time: f64,
    /// Cumulative entrance-loop crossings, for the arrival-rate estimate.
    volume: u64,
}

/// One vehicle's planning connection plus what it last planned against.
struct Pilot {
    client: CloudClient,
    tenant: u32,
    /// `(corridor, epoch)` of the last successful (or failed) plan; the
    /// vehicle replans when its corridor moves past this.
    planned: Option<(usize, u64)>,
}

/// A vehicle chosen for replanning: its id, corridor, and the position
/// its speed command will be computed for.
type Flight = (String, usize, f64);

/// The fleet driver: one TraCI connection to the network simulation, one
/// cloud connection per vehicle.
pub struct FleetDriver {
    traci: TraciClient,
    cloud_addr: SocketAddr,
    config: CosimConfig,
    corridors: Vec<Corridor>,
    /// Every tick's first message. Its first `observed` commands are built
    /// once: the step, the simulation time, each corridor's light states
    /// then entrance-loop count, and the vehicle id list. A position read
    /// per vehicle in `listed` follows, rebuilt every tick.
    message: Vec<Command>,
    observed: usize,
    /// The vehicles the last tick listed, sorted.
    listed: Vec<String>,
    pilots: HashMap<String, Pilot>,
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
        let mut message = vec![
            Command::simulation_step(0.0),
            Command::get(ids::CMD_GET_SIM_VARIABLE, ids::VAR_TIME, ""),
        ];
        for (c, road) in roads.iter().enumerate() {
            for i in 0..road.traffic_lights().len() {
                message.push(Command::get(
                    ids::CMD_GET_TL_VARIABLE,
                    ids::TL_RED_YELLOW_GREEN_STATE,
                    &format!("tl{c}:{i}"),
                ));
            }
            message.push(Command::get(
                ids::CMD_GET_INDUCTIONLOOP_VARIABLE,
                ids::LAST_STEP_VEHICLE_NUMBER,
                &format!("loop{c}:0"),
            ));
        }
        message.push(Command::get(
            ids::CMD_GET_VEHICLE_VARIABLE,
            ids::ID_LIST,
            "",
        ));
        let corridors = roads
            .into_iter()
            .map(|road| Corridor {
                road,
                signature: String::new(),
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
            observed: message.len(),
            message,
            listed: Vec::new(),
            pilots: HashMap::new(),
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
    /// Returns the underlying error if the TraCI link fails. Per-vehicle
    /// plan refusals are *not* errors; they count in
    /// [`FleetStats::plan_failures`].
    pub fn step(&mut self) -> Result<()> {
        // Message 1: the step, every read the tick decides on, and the
        // position of every vehicle the last tick listed.
        self.message.truncate(self.observed);
        self.message
            .extend(self.listed.iter().map(|id| position_read(id)));
        let replies = self.traci.exchange(&self.message)?;
        let (observed, known) = replies.split_at(self.observed);
        let [step, time, reads @ .., listed] = observed else {
            unreachable!("an exchange answers every command");
        };
        step.check()?;
        self.stats.ticks += 1;
        let now = time.value()?.as_double()?;
        self.observe(now, reads)?;
        let mut vehicles = listed.value()?.into_string_list()?;
        vehicles.sort();
        let positions = self.positions(&vehicles, known)?;
        let wave = self.plan_wave(&vehicles, &positions);
        self.listed = vehicles;
        self.replan(wave)
    }

    /// The positions of `vehicles` (sorted). A vehicle the last tick
    /// listed was read in this tick's first message, after the step, and
    /// `known` holds those replies in `self.listed` order; message 2 reads
    /// the vehicles listed for the first time. Replies for vehicles that
    /// have left are skipped.
    fn positions(&mut self, vehicles: &[String], known: &[Reply]) -> Result<Vec<(f64, f64)>> {
        let mut last = self.listed.iter().zip(known).peekable();
        let mut positions = Vec::with_capacity(vehicles.len());
        let (mut fresh, mut fresh_at) = (Vec::new(), Vec::new());
        for id in vehicles {
            while last.next_if(|(prev, _)| *prev < id).is_some() {}
            match last.next_if(|(prev, _)| *prev == id) {
                Some((_, reply)) => positions.push(reply.value()?.as_position()?),
                None => {
                    fresh_at.push(positions.len());
                    positions.push((0.0, 0.0));
                    fresh.push(position_read(id));
                }
            }
        }
        // Message 2, on ticks that list a vehicle for the first time.
        for (at, reply) in fresh_at.into_iter().zip(self.traci.exchange(&fresh)?) {
            positions[at] = reply.value()?.as_position()?;
        }
        Ok(positions)
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

    /// Takes every corridor's signal phases and entrance-loop count from
    /// the replies to the tick's first message, bumping the replan epoch
    /// of corridors whose phase state flipped.
    fn observe(&mut self, now: f64, mut reads: &[Reply]) -> Result<()> {
        for corridor in &mut self.corridors {
            let (lights, rest) = reads.split_at(corridor.road.traffic_lights().len());
            let (count, rest) = rest
                .split_first()
                .expect("each corridor ends in a loop read");
            reads = rest;
            let mut signature = String::new();
            for light in lights {
                signature.push_str(light.value()?.as_string()?);
            }
            let crossings = count.value()?.as_integer()?;
            corridor.volume += crossings.max(0) as u64;
            if corridor.signature != signature {
                if !corridor.signature.is_empty() {
                    corridor.epoch += 1;
                    corridor.epoch_time = now;
                    self.stats.flips += 1;
                    telemetry::add("cosim.flips", 1);
                }
                corridor.signature = signature;
            }
        }
        Ok(())
    }

    /// Collects the vehicles whose corridor epoch moved past their last
    /// plan, from the sorted id list and its positions, in sorted-id order
    /// (deterministic, and stable under the `max_replans_per_tick` cap).
    fn plan_wave(&mut self, vehicles: &[String], positions: &[(f64, f64)]) -> Vec<Flight> {
        // Vehicles that left the network take their connection with them.
        let live: HashSet<&String> = vehicles.iter().collect();
        self.pilots.retain(|id, _| live.contains(id));

        let mut wave = Vec::new();
        for (id, &(x, y)) in vehicles.iter().zip(positions) {
            let corridor = y as usize;
            if corridor >= self.corridors.len() {
                continue;
            }
            let epoch = self.corridors[corridor].epoch;
            let planned = self.pilots.get(id).and_then(|p| p.planned);
            if planned != Some((corridor, epoch)) {
                wave.push((id.clone(), corridor, x));
                if self.config.max_replans_per_tick > 0
                    && wave.len() >= self.config.max_replans_per_tick
                {
                    break;
                }
            }
        }
        wave
    }

    /// The corridor's current plan request: shared by every vehicle of
    /// the epoch, so identical requests coalesce server-side.
    fn corridor_request(&self, corridor: usize) -> TripRequest {
        let c = &self.corridors[corridor];
        let hours = (c.epoch_time.max(1.0)) / 3600.0;
        let quantum = self.config.rate_quantum.max(1.0);
        let rate = ((c.volume as f64 / hours) / quantum).round() * quantum;
        let rate = rate.clamp(quantum, 3600.0);
        let lights = c.road.traffic_lights().len();
        TripRequest {
            road: c.road.clone(),
            departure: Seconds::new(c.epoch_time),
            rates: vec![VehiclesPerHour::new(rate); lights],
            queue: QueueParams::us25_probe(),
            queue_aware: self.config.queue_aware,
        }
    }

    /// Issues the wave's plan requests and feeds the profiles back as
    /// speed commands, all in the tick's last TraCI message. Every flight's request is
    /// written, each on its vehicle's own connection, before any reply is
    /// read, so the whole wave is in flight together — the storm the
    /// cloud's single-flight table sees — without a thread per vehicle.
    fn replan(&mut self, wave: Vec<Flight>) -> Result<()> {
        if wave.is_empty() {
            return Ok(());
        }
        // Per-corridor requests are encoded once and shared byte-for-byte.
        let frames: HashMap<usize, TripFrame> = wave
            .iter()
            .map(|&(_, c, _)| c)
            .collect::<HashSet<_>>()
            .into_iter()
            .map(|c| (c, TripFrame::new(&self.corridor_request(c))))
            .collect();

        // Detach each planning connection (opening it on first use) so the
        // wave owns them while it is in flight.
        let mut flights: Vec<(Flight, Pilot)> = Vec::with_capacity(wave.len());
        for (id, corridor, position) in wave {
            let tenant = if self.config.tenant_per_corridor {
                corridor as u32
            } else {
                0
            };
            let pilot = match self.pilots.remove(&id) {
                Some(mut p) => {
                    if p.tenant != tenant {
                        p.client.hello(tenant)?;
                        p.tenant = tenant;
                    }
                    p
                }
                None => {
                    let mut client = CloudClient::connect(self.cloud_addr)?;
                    client.hello(tenant)?;
                    Pilot {
                        client,
                        tenant,
                        planned: None,
                    }
                }
            };
            flights.push(((id, corridor, position), pilot));
        }

        self.stats.replans += flights.len() as u64;
        telemetry::add("cosim.replans", flights.len() as u64);
        // A failed send or receive is that flight's outcome alone.
        let sent: Vec<Result<()>> = flights
            .iter_mut()
            .map(|(flight, pilot)| pilot.client.send(&frames[&flight.1]))
            .collect();
        let results: Vec<(Flight, Pilot, Result<OptimizedProfile>)> = flights
            .into_iter()
            .zip(sent)
            .map(|((flight, mut pilot), sent)| {
                let outcome = sent.and_then(|()| pilot.client.receive());
                (flight, pilot, outcome)
            })
            .collect();

        // The tick's last message: the wave's speed commands.
        let mut commands = Vec::new();
        for ((id, corridor, position), mut pilot, outcome) in results {
            // Failed plans still advance the epoch marker: a refused
            // tenant retries on the *next* window shift, not every tick.
            pilot.planned = Some((corridor, self.corridors[corridor].epoch));
            match outcome {
                Ok(profile) => {
                    self.stats.plans_ok += 1;
                    let speed = Self::speed_at(&profile, position).max(self.config.command_floor);
                    commands.push(Command::set_vehicle_speed(&id, speed));
                }
                Err(_) => {
                    self.stats.plan_failures += 1;
                    telemetry::add("cosim.plan_failures", 1);
                }
            }
            self.pilots.insert(id, pilot);
        }
        // A command the simulator refuses is not an error, just not
        // counted.
        let applied = self
            .traci
            .exchange(&commands)?
            .iter()
            .filter(|reply| reply.check().is_ok())
            .count() as u64;
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
        self.pilots.clear();
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

/// A read of vehicle `id`'s position.
fn position_read(id: &str) -> Command {
    Command::get(ids::CMD_GET_VEHICLE_VARIABLE, ids::VAR_POSITION, id)
}

impl std::fmt::Debug for FleetDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetDriver")
            .field("cloud_addr", &self.cloud_addr)
            .field("corridors", &self.corridors.len())
            .field("pilots", &self.pilots.len())
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

    fn small_net(corridors: usize, seed: u64) -> (Network, Vec<Road>) {
        let template = CorridorTemplate {
            length: (600.0, 800.0),
            ..CorridorTemplate::default()
        };
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
                if i == 0 {
                    spec.arrival_rate = velopt_common::units::VehiclesPerHour::new(1200.0);
                }
                spec.detectors = vec![velopt_common::units::Meters::new(25.0)];
                spec
            })
            .collect();
        let net = Network::new(specs, 1, SimConfig::default()).unwrap();
        (net, roads)
    }

    /// The full closed loop: seeded network → TraCI → cloud (coalescing
    /// on) → speed commands, with deterministic fleet counters across two
    /// identical runs.
    #[test]
    fn closed_loop_replans_and_commands_deterministically() {
        let run = || {
            let (mut net, roads) = small_net(2, 77);
            net.spawn_ego(0, MetersPerSecond::new(10.0)).unwrap();
            let traci = TraciServer::spawn(net).unwrap();
            let cloud = CloudServer::spawn_with(ServerConfig {
                compute_workers: 2,
                coalesce_window: std::time::Duration::from_millis(40),
                batch_max: 64,
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
            let coalesced = (
                cloud.stats().coalesce_hits(),
                cloud.stats().coalesce_flights(),
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
        assert_eq!(a.plan_failures, 0, "no admission limits configured");
        assert_eq!(a.plans_ok, a.replans);
        assert!(a.commands > 0, "profiles must come back as commands");
        // Identical corridor-mates share a request key: the server must
        // have observed at least one coalesced (or cached) duplicate
        // rather than solving per vehicle.
        assert!(
            a_coalesce.1 > 0,
            "coalescer never flushed a flight: {a_coalesce:?}"
        );
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
    fn counting_proxy(upstream: SocketAddr) -> (SocketAddr, Arc<AtomicU64>, JoinHandle<()>) {
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

    /// A tenant ceiling refuses part of a storm without failing the
    /// driver; refusals land in `plan_failures`.
    #[test]
    fn admission_limit_refusals_are_counted_not_fatal() {
        let (mut net, roads) = small_net(1, 33);
        net.spawn_ego(0, MetersPerSecond::new(10.0)).unwrap();
        let traci = TraciServer::spawn(net).unwrap();
        let cloud = CloudServer::spawn_with(ServerConfig {
            compute_workers: 1,
            coalesce_window: std::time::Duration::from_millis(200),
            batch_max: 1024,
            tenant_max_inflight: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut driver =
            FleetDriver::connect(traci.addr(), cloud.addr(), roads, CosimConfig::default())
                .unwrap();
        driver.run(30).unwrap();
        let stats = driver.stats();
        assert!(stats.replans > 0);
        assert_eq!(stats.plans_ok + stats.plan_failures, stats.replans);
        if stats.plan_failures > 0 {
            assert!(cloud.stats().tenant_rejected(0) > 0);
        }
        driver.close().unwrap();
        cloud.shutdown();
        traci.join();
    }
}

//! A deterministic multi-corridor network simulation, stepped in parallel
//! by junction component.
//!
//! A [`Network`] joins single-corridor [`Simulation`]s at junctions: a
//! vehicle whose rear bumper clears the downstream end of corridor `i` is
//! packaged as a [`Handoff`] boundary message and re-injected at the head of
//! `downstream(i)` on the next tick (or leaves the network when there is no
//! downstream corridor).
//!
//! # Stepping groups
//!
//! A handoff only ever follows a `downstream` link, so corridors that no
//! junction connects never exchange a vehicle. [`Network::new`] cuts the
//! corridor list at every index that no junction crosses and deals the
//! resulting contiguous ranges into at most `shards` groups, fixed for the
//! network's life. [`Network::run_until`] opens one thread scope per call
//! and steps each group through every tick of the call on one thread: it
//! spawns groups − 1 threads, and the calling thread steps the last group.
//! A one-group network, a one-shard network and a one-tick call (such as
//! [`Network::step`]) step on the calling thread and spawn nothing.
//!
//! # Determinism
//!
//! An N-shard run is bit-identical to a 1-shard run:
//!
//! * Within one tick, corridors are **independent** — each cell drains its
//!   own junction queue and steps its own `Simulation` with its own
//!   [`SplitMix64`] stream (seeded deterministically from the corridor
//!   index), so which thread steps a cell cannot change its state.
//! * After each tick a group routes its staged boundary messages in
//!   ascending source-corridor order. Every source feeding a junction
//!   queue lies in the queue's own group, so each queue receives the same
//!   messages in the same order as one pass over the whole network would
//!   deliver.
//! * Every group advances its clock by the same `time += dt` accumulation
//!   from the same start, so trace times agree bit for bit. Aggregate
//!   counters are per-corridor integers summed in corridor order, and trace
//!   hashes mix `f64::to_bits` exactly, so even the observability surface
//!   is reproducible bit for bit.

use crate::arena::StepMetrics;
use crate::config::SimConfig;
use crate::sim::{EgoSnapshot, Handoff, Simulation};
use crate::vehicle::{VehicleId, VehicleKind};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::ops::Range;
use velopt_common::par;
use velopt_common::rng::SplitMix64;
use velopt_common::units::{Meters, MetersPerSecond, Seconds, VehiclesPerHour};
use velopt_common::{Error, Result};
use velopt_road::Road;

/// Per-corridor background-traffic population shares. Overrides the
/// network-wide [`SimConfig`] fractions for one corridor, so a network can
/// mix (say) a truck-heavy arterial feeding a passenger-only downtown grid.
/// The mix only biases which preset each Poisson arrival draws — the draw
/// order itself is unchanged, so two corridors with different mixes still
/// consume their RNG streams identically.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VehicleMix {
    /// Fraction of arrivals drawn as trucks (`[0, 1]`).
    pub truck_fraction: f64,
    /// Fraction of non-truck arrivals drawn as IDM followers (`[0, 1]`).
    pub idm_fraction: f64,
}

/// One corridor of a [`Network`] and how it connects to the rest.
#[derive(Debug, Clone)]
pub struct CorridorSpec {
    /// The corridor geometry and signals.
    pub road: Road,
    /// Index of the corridor that through-traffic continues onto, or `None`
    /// for a network exit.
    pub downstream: Option<usize>,
    /// Poisson arrival rate of fresh background traffic at the corridor
    /// entrance (zero = junction inflow only).
    pub arrival_rate: VehiclesPerHour,
    /// Mid-corridor side-road inflows as `(position, rate)` pairs.
    pub side_entries: Vec<(Meters, VehiclesPerHour)>,
    /// Induction-loop detector positions.
    pub detectors: Vec<Meters>,
    /// Per-corridor traffic-population override (`None` = use the
    /// network-wide [`SimConfig`] fractions).
    pub mix: Option<VehicleMix>,
}

impl CorridorSpec {
    /// A corridor that hands its through-traffic to `downstream`.
    pub fn through(road: Road, downstream: usize) -> Self {
        Self {
            road,
            downstream: Some(downstream),
            arrival_rate: VehiclesPerHour::ZERO,
            side_entries: Vec::new(),
            detectors: Vec::new(),
            mix: None,
        }
    }

    /// A corridor whose through-traffic leaves the network at the end.
    pub fn terminal(road: Road) -> Self {
        Self {
            road,
            downstream: None,
            arrival_rate: VehiclesPerHour::ZERO,
            side_entries: Vec::new(),
            detectors: Vec::new(),
            mix: None,
        }
    }
}

/// One sample of the ego's trajectory through the network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkTracePoint {
    /// Simulation time.
    pub time: Seconds,
    /// Corridor the ego is on.
    pub corridor: usize,
    /// Front-bumper position within that corridor.
    pub position: Meters,
    /// Ego speed.
    pub speed: MetersPerSecond,
}

/// Deterministic aggregate statistics over the whole network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkStats {
    /// Vehicles currently on some corridor.
    pub vehicles: u64,
    /// Corridor-end crossings (a vehicle traversing `k` corridors counts
    /// `k` times).
    pub corridor_completions: u64,
    /// Vehicles that left the network at a terminal corridor.
    pub departed: u64,
    /// Junction boundary messages routed so far.
    pub handoffs: u64,
    /// Hard collision-guard interventions summed over all corridors
    /// (should stay zero).
    pub emergency_brakes: u64,
    /// Total vehicle-steps executed (the bench suite's work counter).
    pub vehicles_stepped: u64,
}

/// A corridor cell: its simulation, its junction queue, and where its
/// through-traffic goes.
#[derive(Debug, Clone)]
struct Cell {
    sim: Simulation,
    downstream: Option<usize>,
    /// Handoffs delivered but not yet admitted (head-of-line blocking:
    /// vehicles enter the new corridor in arrival order).
    pending: VecDeque<Handoff>,
    /// This tick's outgoing boundary messages, staged by the step for the
    /// group's router. Drained every tick; the `Vec` capacity is the reused
    /// outbox buffer (no per-tick message allocation).
    staged: Vec<Handoff>,
    /// Vehicle-steps this cell has executed.
    vehicles_stepped: u64,
    /// Boundary messages this cell has handed to its downstream corridor.
    handoffs: u64,
    /// Vehicles that left the network at this cell's end.
    departed: u64,
}

/// The ego's whereabouts: the one piece of network state a stepping group
/// updates outside its own cells.
#[derive(Debug, Clone, Default)]
struct EgoTrack {
    /// The corridor the ego is on (or queued to enter); `None` before spawn
    /// and after the ego leaves the network.
    cell: Option<usize>,
    trace: Vec<NetworkTracePoint>,
    finished_at: Option<Seconds>,
}

/// A network of corridors, stepped in parallel by junction component.
///
/// # Examples
///
/// ```
/// # fn main() -> velopt_common::Result<()> {
/// use velopt_common::units::{Seconds, VehiclesPerHour};
/// use velopt_microsim::{CorridorSpec, Network, SimConfig};
/// use velopt_road::Road;
///
/// let mut feeder = CorridorSpec::through(Road::us25(), 1);
/// feeder.arrival_rate = VehiclesPerHour::new(600.0);
/// let sink = CorridorSpec::terminal(Road::us25());
/// let mut net = Network::new(vec![feeder, sink], 2, SimConfig::default())?;
/// net.run_until(Seconds::new(60.0))?;
/// assert!(net.stats().vehicles > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    cells: Vec<Cell>,
    /// Contiguous corridor ranges, in order, that no junction crosses; each
    /// is stepped by one thread. Fixed at construction.
    groups: Vec<Range<usize>>,
    shards: usize,
    dt: Seconds,
    time: Seconds,
    ego_id: Option<VehicleId>,
    ego: EgoTrack,
}

impl Network {
    /// Builds a network from corridor specs.
    ///
    /// `shards` caps the number of stepping groups, each a run of whole
    /// junction components that one thread steps (`0` = one per available
    /// core). The shard count never changes results — only wall-clock
    /// time.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if there are no corridors, a
    /// downstream index is out of range or self-referential, the config
    /// fails validation, or a side entry/detector lies outside its road.
    pub fn new(specs: Vec<CorridorSpec>, shards: usize, config: SimConfig) -> Result<Self> {
        if specs.is_empty() {
            return Err(Error::invalid_input(
                "a network needs at least one corridor",
            ));
        }
        let n = specs.len();
        let config = config.validated()?;
        // Per-corridor RNG streams are forked from the master seed in
        // corridor index order, so corridor i's stream depends only on
        // (seed, i) — never on sharding.
        let mut seed_root = SplitMix64::new(config.seed);
        let mut cells = Vec::with_capacity(n);
        for (i, spec) in specs.into_iter().enumerate() {
            if let Some(d) = spec.downstream {
                if d >= n {
                    return Err(Error::invalid_input(format!(
                        "corridor {i} hands off to nonexistent corridor {d}"
                    )));
                }
                if d == i {
                    return Err(Error::invalid_input(format!(
                        "corridor {i} cannot hand off to itself"
                    )));
                }
            }
            let mut cfg = SimConfig {
                seed: seed_root.next_u64(),
                ..config
            };
            if let Some(mix) = spec.mix {
                cfg.truck_fraction = mix.truck_fraction;
                cfg.idm_fraction = mix.idm_fraction;
                // Re-validate: the per-corridor override may be out of range
                // even when the network-wide config was fine.
                cfg = cfg
                    .validated()
                    .map_err(|e| Error::invalid_input(format!("corridor {i} vehicle mix: {e}")))?;
            }
            let mut sim = Simulation::new(spec.road, cfg)?;
            sim.set_id_allocation(i as u64, n as u64);
            if spec.arrival_rate.value() > 0.0 {
                sim.set_arrival_rate(spec.arrival_rate);
            }
            for (pos, rate) in spec.side_entries {
                sim.add_entry_point(pos, rate)?;
            }
            for pos in spec.detectors {
                sim.add_detector(pos)?;
            }
            cells.push(Cell {
                sim,
                downstream: spec.downstream,
                pending: VecDeque::new(),
                staged: Vec::new(),
                vehicles_stepped: 0,
                handoffs: 0,
                departed: 0,
            });
        }
        let shards = par::effective_threads(shards);
        let downstream: Vec<Option<usize>> = cells.iter().map(|c| c.downstream).collect();
        Ok(Self {
            cells,
            groups: stepping_groups(&downstream, shards),
            shards,
            dt: config.dt,
            time: Seconds::ZERO,
            ego_id: None,
            ego: EgoTrack::default(),
        })
    }

    /// Number of corridors.
    pub fn corridors(&self) -> usize {
        self.cells.len()
    }

    /// The cap on stepping groups (threads per [`Network::run_until`]
    /// call).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Current simulation time.
    pub fn time(&self) -> Seconds {
        self.time
    }

    /// Read access to one corridor's simulation (signals, detectors,
    /// vehicles).
    pub fn corridor(&self, idx: usize) -> Option<&Simulation> {
        self.cells.get(idx).map(|c| &c.sim)
    }

    /// Boundary vehicles already routed through a junction and queued to
    /// enter `corridor` at its next step. Observability surfaces (TraCI)
    /// report these at position 0 of the destination corridor so a vehicle
    /// never vanishes for the handoff tick.
    pub fn pending(&self, idx: usize) -> impl Iterator<Item = &Handoff> + '_ {
        self.cells
            .get(idx)
            .map(|c| c.pending.iter())
            .into_iter()
            .flatten()
    }

    /// Total signal heads over all corridors.
    pub fn signal_count(&self) -> usize {
        self.cells
            .iter()
            .map(|c| c.sim.road().traffic_lights().len() + c.sim.road().stop_signs().len())
            .sum()
    }

    /// Deterministic aggregate statistics, folded in corridor order.
    pub fn stats(&self) -> NetworkStats {
        let mut s = NetworkStats {
            vehicles: 0,
            corridor_completions: 0,
            departed: 0,
            handoffs: 0,
            emergency_brakes: 0,
            vehicles_stepped: 0,
        };
        for cell in &self.cells {
            s.vehicles += cell.sim.vehicle_count() as u64 + cell.pending.len() as u64;
            s.corridor_completions += cell.sim.completed();
            s.departed += cell.departed;
            s.handoffs += cell.handoffs;
            s.emergency_brakes += cell.sim.emergency_brakes();
            s.vehicles_stepped += cell.vehicles_stepped;
        }
        s
    }

    /// Cumulative step-engine work counters, folded in corridor order.
    ///
    /// The SIMD/scalar split is dispatch-dependent and therefore *not* part
    /// of [`NetworkStats`] or [`Network::state_hash`]; use
    /// [`StepMetrics::total_lanes`] for dispatch-invariant work accounting.
    pub fn step_metrics(&self) -> StepMetrics {
        let mut m = StepMetrics::default();
        for cell in &self.cells {
            m.merge(cell.sim.step_metrics());
        }
        m
    }

    /// Spawns the ego vehicle at the start of `corridor`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if an ego already exists, the
    /// corridor index is out of range, or the entrance is blocked.
    pub fn spawn_ego(&mut self, corridor: usize, speed: MetersPerSecond) -> Result<VehicleId> {
        if self.ego_id.is_some() {
            return Err(Error::invalid_input("an ego vehicle already exists"));
        }
        let cell = self
            .cells
            .get_mut(corridor)
            .ok_or_else(|| Error::invalid_input("corridor index out of range"))?;
        let id = cell.sim.spawn_ego(speed)?;
        self.ego_id = Some(id);
        self.ego.cell = Some(corridor);
        self.ego.trace.push(NetworkTracePoint {
            time: self.time,
            corridor,
            position: Meters::ZERO,
            speed,
        });
        Ok(id)
    }

    /// The ego's current state, if it is on some corridor (not queued at a
    /// junction).
    pub fn ego(&self) -> Option<EgoSnapshot> {
        self.cells[self.ego.cell?].sim.ego()
    }

    /// The corridor the ego is on or queued to enter.
    pub fn ego_corridor(&self) -> Option<usize> {
        self.ego.cell
    }

    /// The ego's network-wide vehicle id, if one was spawned.
    pub fn ego_vehicle_id(&self) -> Option<VehicleId> {
        self.ego_id
    }

    /// Sets (or clears) the TraCI commanded-speed cap on the ego, wherever
    /// in the network it currently is. A command issued while the ego waits
    /// in a junction queue is applied to the queued boundary message.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if no ego is active or the command is
    /// negative.
    pub fn set_ego_command(&mut self, command: Option<MetersPerSecond>) -> Result<()> {
        let Some(cell_idx) = self.ego.cell else {
            return Err(Error::invalid_input("no ego vehicle active"));
        };
        if let Some(c) = command {
            if c.value() < 0.0 {
                return Err(Error::invalid_input("commanded speed must be >= 0"));
            }
        }
        let ego_id = self.ego_id;
        let cell = &mut self.cells[cell_idx];
        if cell.sim.ego().is_some() {
            return cell.sim.set_ego_command(command);
        }
        for h in cell.pending.iter_mut() {
            if Some(h.id) == ego_id {
                h.commanded = command;
                return Ok(());
            }
        }
        Err(Error::invalid_input("ego has left the network"))
    }

    /// Sets (or clears) the TraCI commanded-speed cap on any live vehicle,
    /// wherever in the network it currently is — the fleet co-simulation
    /// path, where every EV follows a cloud-planned profile. A command
    /// issued while the vehicle waits in a junction queue is applied to the
    /// queued boundary message and travels with it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if the command is negative or no
    /// vehicle with this id is anywhere in the network.
    pub fn set_vehicle_command(
        &mut self,
        id: VehicleId,
        command: Option<MetersPerSecond>,
    ) -> Result<()> {
        if let Some(c) = command {
            if c.value() < 0.0 {
                return Err(Error::invalid_input("commanded speed must be >= 0"));
            }
        }
        for cell in self.cells.iter_mut() {
            // The negative-speed case is pre-checked, so a cell error here
            // only ever means "not in this corridor" — keep looking.
            if cell.sim.set_vehicle_command(id, command).is_ok() {
                return Ok(());
            }
            for h in cell.pending.iter_mut() {
                if h.id == id {
                    h.commanded = command;
                    return Ok(());
                }
            }
        }
        Err(Error::invalid_input(format!(
            "vehicle {id} is not in the network"
        )))
    }

    /// The recorded ego trajectory through the network (one sample per tick
    /// the ego spent on a corridor).
    pub fn ego_trace(&self) -> &[NetworkTracePoint] {
        &self.ego.trace
    }

    /// The time at which the ego left the network, if it has.
    pub fn ego_finished_at(&self) -> Option<Seconds> {
        self.ego.finished_at
    }

    /// Advances every corridor by one tick and routes junction boundary
    /// messages, on the calling thread.
    pub fn step(&mut self) {
        self.advance(1);
    }

    /// Runs until `t` (inclusive of the last partial step boundary).
    ///
    /// Each stepping group advances through every tick of the call on one
    /// thread: the call spawns groups − 1 threads and steps the last group
    /// itself, or spawns none when there is one group or one tick.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if `t` is more than one step in the
    /// past.
    pub fn run_until(&mut self, t: Seconds) -> Result<()> {
        if t + self.dt < self.time {
            return Err(Error::invalid_input("cannot run backwards in time"));
        }
        let (mut clock, mut ticks) = (self.time, 0);
        while clock < t {
            clock += self.dt;
            ticks += 1;
        }
        self.advance(ticks);
        Ok(())
    }

    /// Steps every group through `ticks` ticks. Handoffs never leave a
    /// group, so the groups share nothing but the ego's track, which only
    /// the group holding the ego receives.
    fn advance(&mut self, ticks: u64) {
        let (start, dt) = (self.time, self.dt);
        if ticks <= 1 || self.groups.len() == 1 {
            // The whole network is one closed group too.
            self.time = step_group(&mut self.cells, 0, start, dt, ticks, Some(&mut self.ego));
            return;
        }
        let mut ego = Some(&mut self.ego);
        self.time = std::thread::scope(|scope| {
            let (last, spawned) = self.groups.split_last().expect("a network has a group");
            let mut rest = self.cells.as_mut_slice();
            for range in spawned {
                let (group, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
                rest = tail;
                let track = ego.take_if(|e| e.cell.is_some_and(|c| range.contains(&c)));
                let base = range.start;
                scope.spawn(move || step_group(group, base, start, dt, ticks, track));
            }
            step_group(rest, last.start, start, dt, ticks, ego)
        });
    }

    /// A 64-bit digest of the complete dynamic state (time, every vehicle on
    /// every corridor, every queued boundary message, aggregate counters),
    /// mixing `f64::to_bits` exactly. Equal hashes across shard counts are
    /// the network's bit-identity witness.
    pub fn state_hash(&self) -> u64 {
        let mut h = mix64(0x0005_EED0_F2E7, self.time.value().to_bits());
        for cell in &self.cells {
            for v in cell.sim.vehicles() {
                h = mix64(h, v.id().raw());
                h = mix64(h, v.position().value().to_bits());
                h = mix64(h, v.speed().value().to_bits());
                h = mix64(h, v.stops_cleared());
            }
            for p in &cell.pending {
                h = mix64(h, p.id.raw());
                h = mix64(h, p.speed.value().to_bits());
                h = mix64(h, p.stops_cleared);
            }
            h = mix64(h, cell.sim.completed());
            h = mix64(h, cell.sim.emergency_brakes());
            for det in cell.sim.detectors() {
                h = mix64(h, det.total());
                h = mix64(h, det.last_step_count());
            }
        }
        let s = self.stats();
        h = mix64(h, s.departed);
        h = mix64(h, s.handoffs);
        h = mix64(h, s.vehicles_stepped);
        h
    }

    /// A 64-bit digest of the ego trace (`f64::to_bits` of every sample).
    pub fn ego_trace_hash(&self) -> u64 {
        let mut h = 0x000E_6071_2ACE_u64;
        for p in &self.ego.trace {
            h = mix64(h, p.time.value().to_bits());
            h = mix64(h, p.corridor as u64);
            h = mix64(h, p.position.value().to_bits());
            h = mix64(h, p.speed.value().to_bits());
        }
        h
    }
}

/// Cuts corridors `0..n` at every index that no junction crosses — no
/// `downstream` link joins a corridor before the cut to one after it, in
/// either direction — and deals the resulting contiguous ranges into at
/// most `shards` groups: a range joins group `start * shards / n`.
/// Components that interleave in index order fall into one range.
fn stepping_groups(downstream: &[Option<usize>], shards: usize) -> Vec<Range<usize>> {
    let n = downstream.len();
    let shards = shards.clamp(1, n);
    // far[a]: the highest corridor a junction with lower end `a` reaches
    // (`a` itself if none); a cut before k is open once every junction
    // starting below k ends below k.
    let mut far: Vec<usize> = (0..n).collect();
    for (i, d) in downstream.iter().enumerate() {
        if let Some(d) = *d {
            let (a, b) = (i.min(d), i.max(d));
            far[a] = far[a].max(b);
        }
    }
    let deal = |start: usize| start * shards / n;
    let mut groups: Vec<Range<usize>> = Vec::new();
    let (mut reach, mut start) = (0, 0);
    for k in 1..=n {
        reach = reach.max(far[k - 1]);
        if reach >= k {
            continue; // a junction crosses the cut between k - 1 and k
        }
        match groups.last_mut() {
            Some(last) if deal(last.start) == deal(start) => last.end = k,
            _ => groups.push(start..k),
        }
        start = k;
    }
    groups
}

/// Steps one group of cells — `cells[0]` is corridor `base` — through
/// `ticks` ticks from `time`, and returns the group's clock afterwards.
/// Each tick every cell admits its head-of-line junction arrivals, steps
/// and stages its exits; then the group routes the staged handoffs in
/// ascending source-corridor order onto its own cells' queues. `ego` is the
/// ego's track if the ego is in this group.
fn step_group(
    cells: &mut [Cell],
    base: usize,
    mut time: Seconds,
    dt: Seconds,
    ticks: u64,
    mut ego: Option<&mut EgoTrack>,
) -> Seconds {
    for _ in 0..ticks {
        for cell in cells.iter_mut() {
            while let Some(h) = cell.pending.front() {
                if cell.sim.receive(h) {
                    cell.pending.pop_front();
                } else {
                    break; // head-of-line: keep arrival order at the junction
                }
            }
            cell.vehicles_stepped += cell.sim.vehicle_count() as u64;
            cell.sim.step();
            cell.sim.drain_exits_into(&mut cell.staged);
        }
        time += dt;
        for ci in 0..cells.len() {
            // Take the outbox so its capacity is handed back, empty, below.
            let mut staged = std::mem::take(&mut cells[ci].staged);
            let dest = cells[ci].downstream;
            for h in staged.drain(..) {
                let track = ego.as_deref_mut().filter(|_| h.kind == VehicleKind::Ego);
                match dest {
                    Some(d) => {
                        if let Some(e) = track {
                            e.cell = Some(d);
                        }
                        cells[d - base].pending.push_back(h);
                        cells[ci].handoffs += 1;
                    }
                    None => {
                        if let Some(e) = track {
                            e.cell = None;
                            e.finished_at = Some(time);
                        }
                        cells[ci].departed += 1;
                    }
                }
            }
            cells[ci].staged = staged;
        }
        // Ego telemetry (skipped while the ego waits in a junction queue).
        if let Some(e) = ego.as_deref_mut() {
            if let Some(c) = e.cell {
                if let Some(s) = cells[c - base].sim.ego() {
                    e.trace.push(NetworkTracePoint {
                        time,
                        corridor: c,
                        position: s.position,
                        speed: s.speed,
                    });
                }
            }
        }
    }
    time
}

/// SplitMix64-style avalanche combiner for the state digests.
fn mix64(h: u64, x: u64) -> u64 {
    let mut z = h
        .rotate_left(23)
        .wrapping_add(x)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_corridor_net(shards: usize) -> Network {
        let mut feeder = CorridorSpec::through(Road::us25(), 1);
        feeder.arrival_rate = VehiclesPerHour::new(700.0);
        let sink = CorridorSpec::terminal(Road::us25());
        Network::new(vec![feeder, sink], shards, SimConfig::default()).unwrap()
    }

    #[test]
    fn validation_rejects_bad_topologies() {
        assert!(Network::new(vec![], 1, SimConfig::default()).is_err());
        let dangling = CorridorSpec::through(Road::us25(), 5);
        assert!(Network::new(vec![dangling], 1, SimConfig::default()).is_err());
        let self_loop = CorridorSpec::through(Road::us25(), 0);
        assert!(Network::new(vec![self_loop], 1, SimConfig::default()).is_err());
    }

    #[test]
    fn traffic_flows_across_the_junction() {
        let mut net = two_corridor_net(1);
        net.run_until(Seconds::new(900.0)).unwrap();
        let s = net.stats();
        assert!(s.handoffs > 0, "through-traffic must cross the junction");
        assert!(s.departed > 0, "and eventually leave the network");
        assert_eq!(s.emergency_brakes, 0);
        assert!(net.corridor(1).unwrap().vehicle_count() > 0);
        assert!(net.corridor(2).is_none());
    }

    #[test]
    fn vehicle_ids_are_unique_network_wide() {
        let mut net = two_corridor_net(2);
        net.run_until(Seconds::new(600.0)).unwrap();
        let mut seen = std::collections::HashSet::new();
        for c in 0..net.corridors() {
            for v in net.corridor(c).unwrap().vehicles() {
                assert!(seen.insert(v.id().raw()), "duplicate id {}", v.id());
            }
        }
        assert!(seen.len() > 10);
    }

    #[test]
    fn ego_crosses_junctions_and_finishes() {
        let mut net = two_corridor_net(1);
        let id = net.spawn_ego(0, MetersPerSecond::new(5.0)).unwrap();
        assert!(net.spawn_ego(1, MetersPerSecond::ZERO).is_err());
        net.run_until(Seconds::new(1500.0)).unwrap();
        assert_eq!(
            net.ego_finished_at().is_some(),
            net.ego_corridor().is_none(),
        );
        assert!(
            net.ego_finished_at().is_some(),
            "ego must clear 2 corridors"
        );
        // The trace visits both corridors with the same vehicle identity.
        let trace = net.ego_trace();
        assert!(trace.iter().any(|p| p.corridor == 0));
        assert!(trace.iter().any(|p| p.corridor == 1));
        let _ = id;
    }

    #[test]
    fn ego_commands_apply_across_the_network() {
        let mut net = two_corridor_net(1);
        assert!(net.set_ego_command(None).is_err(), "no ego yet");
        net.spawn_ego(0, MetersPerSecond::new(5.0)).unwrap();
        net.set_ego_command(Some(MetersPerSecond::new(4.0)))
            .unwrap();
        assert!(net
            .set_ego_command(Some(MetersPerSecond::new(-2.0)))
            .is_err());
        net.run_until(Seconds::new(60.0)).unwrap();
        let ego = net.ego().unwrap();
        assert!((ego.speed.value() - 4.0).abs() < 0.1, "speed {}", ego.speed);
    }

    #[test]
    fn signal_count_sums_all_corridors() {
        let net = two_corridor_net(1);
        // us25 has 2 lights + 1 stop sign per corridor.
        assert_eq!(net.signal_count(), 6);
    }

    #[test]
    fn per_corridor_mix_materializes_and_is_shard_invariant() {
        use crate::vehicle::VehicleKind;
        let build = |shards: usize| {
            let mut feeder = CorridorSpec::through(Road::us25(), 1);
            feeder.arrival_rate = VehiclesPerHour::new(900.0);
            feeder.mix = Some(VehicleMix {
                truck_fraction: 0.5,
                idm_fraction: 0.4,
            });
            let mut sink = CorridorSpec::terminal(Road::us25());
            sink.arrival_rate = VehiclesPerHour::new(400.0);
            // Sink keeps the network-wide default mix (no trucks, no IDM).
            Network::new(vec![feeder, sink], shards, SimConfig::default()).unwrap()
        };
        let mut a = build(1);
        a.run_until(Seconds::new(600.0)).unwrap();
        let trucks = a
            .corridor(0)
            .unwrap()
            .vehicles()
            .iter()
            .filter(|v| v.kind() == VehicleKind::Background && v.params().length.value() > 10.0)
            .count();
        assert!(trucks > 0, "a 50% truck mix must put trucks on corridor 0");
        let mut b = build(4);
        b.run_until(Seconds::new(600.0)).unwrap();
        assert_eq!(
            a.state_hash(),
            b.state_hash(),
            "mix must stay shard-invariant"
        );
        assert_eq!(a.stats(), b.stats());

        let mut bad = CorridorSpec::terminal(Road::us25());
        bad.mix = Some(VehicleMix {
            truck_fraction: 1.5,
            idm_fraction: 0.0,
        });
        assert!(Network::new(vec![bad], 1, SimConfig::default()).is_err());
    }

    #[test]
    fn groups_follow_junction_components() {
        let chains = |count: usize, len: usize| -> Vec<Option<usize>> {
            (0..count * len)
                .map(|i| ((i + 1) % len != 0).then_some(i + 1))
                .collect()
        };
        // Eight chains of four, as `network_sim` builds them.
        let eight = chains(8, 4);
        assert_eq!(stepping_groups(&eight, 1), vec![0..32]);
        assert_eq!(stepping_groups(&eight, 2), vec![0..16, 16..32]);
        assert_eq!(stepping_groups(&eight, 3), vec![0..12, 12..24, 24..32]);
        let eight_groups: Vec<_> = (0..8).map(|c| c * 4..c * 4 + 4).collect();
        assert_eq!(stepping_groups(&eight, 8), eight_groups);
        assert_eq!(stepping_groups(&eight, 64), eight_groups);
        // One chain is one group at any shard count.
        assert_eq!(stepping_groups(&chains(1, 12), 4), vec![0..12]);
        // A backward link ties its ends together just as a forward one
        // does, and components that interleave in index order merge.
        let tangled = [None, Some(0), Some(4), None, None, Some(3), None];
        assert_eq!(stepping_groups(&tangled, 7), vec![0..2, 2..6, 6..7]);
        // A fan-in merge is one component.
        let merge = [Some(2), Some(2), None, None];
        assert_eq!(stepping_groups(&merge, 4), vec![0..3, 3..4]);
    }

    #[test]
    fn step_metrics_fold_over_corridors() {
        let mut net = two_corridor_net(2);
        net.run_until(Seconds::new(300.0)).unwrap();
        let m = net.step_metrics();
        let per_cell: u64 = (0..net.corridors())
            .map(|c| net.corridor(c).unwrap().step_metrics().total_lanes())
            .sum();
        assert_eq!(m.total_lanes(), per_cell);
        assert!(m.total_lanes() > 0);
        assert!(m.sweep_advances > 0);
    }
}

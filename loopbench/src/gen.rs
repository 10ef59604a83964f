//! Seeded input generators. The workload seed is the only source of
//! variation: the same seed gives byte-identical corridor specs and trip
//! requests, and the program under test receives only these inputs.

use velopt_cloud::TripRequest;
use velopt_common::rng::{shuffle, SplitMix64};
use velopt_common::units::{Meters, Seconds, VehiclesPerHour};
use velopt_common::Result;
use velopt_microsim::{CorridorSpec, VehicleMix};
use velopt_queue::QueueParams;
use velopt_road::{CorridorTemplate, Road};

/// Independent sub-streams of one workload seed.
pub fn stream(seed: u64, salt: u64) -> SplitMix64 {
    let mut root = SplitMix64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    SplitMix64::new(root.next_u64())
}

/// `n` sub-ranges of `[lo, hi)`, one per equal-width stratum, in seeded
/// order. Drawing one value from each keeps every seed's inputs spread over
/// the whole range, so seed-to-seed differences in totals stay small.
fn strata(rng: &mut SplitMix64, n: usize, lo: f64, hi: f64) -> Vec<(f64, f64)> {
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut order, rng);
    let width = (hi - lo) / n as f64;
    order
        .into_iter()
        .map(|k| (lo + width * k as f64, lo + width * (k + 1) as f64))
        .collect()
}

/// Roads from `template`, one per length stratum of `length`.
fn stratified_roads(
    rng: &mut SplitMix64,
    template: CorridorTemplate,
    n: usize,
    length: (f64, f64),
) -> Result<Vec<Road>> {
    strata(rng, n, length.0, length.1)
        .into_iter()
        .map(|length| CorridorTemplate { length, ..template }.generate(rng.next_u64()))
        .collect()
}

/// Chains of `chain_len` corridors; corridor `i` hands through-traffic to
/// `i + 1` unless it ends its chain. Chain heads take fresh arrivals at
/// `head_rate`, every other corridor at `inner_rate`.
fn chained_specs(
    roads: &[Road],
    chain_len: usize,
    head_rate: f64,
    inner_rate: f64,
) -> Vec<CorridorSpec> {
    roads
        .iter()
        .enumerate()
        .map(|(i, road)| {
            let mut spec = if (i + 1) % chain_len != 0 && i + 1 < roads.len() {
                CorridorSpec::through(road.clone(), i + 1)
            } else {
                CorridorSpec::terminal(road.clone())
            };
            let rate = if i % chain_len == 0 {
                head_rate
            } else {
                inner_rate
            };
            spec.arrival_rate = VehiclesPerHour::new(rate);
            spec
        })
        .collect()
}

/// Number of corridors in the `fleet_loop` network.
pub const FLEET_CORRIDORS: usize = 8;
/// Corridors per junction chain in the `fleet_loop` network.
pub const FLEET_CHAIN: usize = 2;

/// The `fleet_loop` network: short arterials (0.6–0.9 km, stratified, two
/// lights each) in chains, Poisson arrivals at every entrance and one
/// induction loop at each corridor entrance (the detector `FleetDriver`
/// reads). Every light runs 30 s red and 30 s green (offsets are seeded)
/// and there are no stop signs, so phase flips, and with them replan
/// waves, come at the same rate for every seed.
pub fn fleet_network(seed: u64) -> Result<(Vec<CorridorSpec>, Vec<Road>)> {
    let template = CorridorTemplate {
        lights: (2, 2),
        phase: (30.0, 30.0),
        stop_sign_probability: 0.0,
        ..CorridorTemplate::default()
    };
    let mut rng = stream(seed, 1);
    let roads = stratified_roads(&mut rng, template, FLEET_CORRIDORS, (600.0, 900.0))?;
    let mut specs = chained_specs(&roads, FLEET_CHAIN, 300.0, 60.0);
    for spec in &mut specs {
        spec.detectors = vec![Meters::new(25.0)];
    }
    Ok((specs, roads))
}

/// Corridors per junction chain in the `network_sim` network.
pub const NET_CHAIN: usize = 4;

/// The `network_sim` network: long signalized arterials (2.5–4.5 km,
/// 16–24 lights) in junction chains, each corridor with its own seeded
/// truck (0–25%) and IDM (0–35%) shares. Lengths and shares are
/// stratified: IDM followers take the scalar path, so the network-wide
/// share sets the cost of a vehicle-step.
pub fn sim_network(seed: u64, corridors: usize) -> Result<Vec<CorridorSpec>> {
    let template = CorridorTemplate {
        lights: (16, 24),
        ..CorridorTemplate::default()
    };
    let mut rng = stream(seed, 2);
    let roads = stratified_roads(&mut rng, template, corridors, (2500.0, 4500.0))?;
    let mut specs = chained_specs(&roads, NET_CHAIN, 1000.0, 400.0);
    let trucks = strata(&mut rng, corridors, 0.0, 0.25);
    let idm = strata(&mut rng, corridors, 0.0, 0.35);
    for ((spec, t), i) in specs.iter_mut().zip(trucks).zip(idm) {
        spec.mix = Some(VehicleMix {
            truck_fraction: rng.uniform(t.0, t.1),
            idm_fraction: rng.uniform(i.0, i.1),
        });
    }
    Ok(specs)
}

/// Distinct trips per block of the `plan_serve` request stream.
pub const TRIPS_PER_BLOCK: usize = 32;
/// How often each trip is sent.
pub const SENDS_PER_TRIP: usize = 4;

/// The `plan_serve` request stream: blocks of [`TRIPS_PER_BLOCK`] distinct
/// trips over 0.6–4 km corridors (lengths stratified within each block, so
/// every block asks for the same spread of solve sizes), each trip sent
/// [`SENDS_PER_TRIP`] times in a seeded shuffle within its block, so about
/// three requests in four repeat an earlier one. Unbounded: blocks are
/// generated on demand.
#[derive(Debug)]
pub struct TripStream {
    rng: SplitMix64,
    trips: Vec<TripRequest>,
    order: Vec<usize>,
    /// Per trip, the index of the request that sends it first.
    first: Vec<usize>,
}

impl TripStream {
    pub fn new(seed: u64) -> Self {
        Self {
            rng: stream(seed, 3),
            trips: Vec::new(),
            order: Vec::new(),
            first: Vec::new(),
        }
    }

    /// Whether request `k` (already generated) is the first to send its
    /// trip; every later request for the trip repeats it.
    pub fn is_first(&self, k: usize) -> bool {
        self.first[self.order[k]] == k
    }

    /// The distinct trips generated so far.
    pub fn trips(&self) -> &[TripRequest] {
        &self.trips
    }

    /// Request `k` of the stream as the trip index it sends.
    pub fn request(&mut self, k: usize) -> Result<usize> {
        while k >= self.order.len() {
            self.push_block()?;
        }
        Ok(self.order[k])
    }

    fn push_block(&mut self) -> Result<()> {
        let first = self.trips.len();
        let roads = stratified_roads(
            &mut self.rng,
            CorridorTemplate::default(),
            TRIPS_PER_BLOCK,
            (600.0, 4000.0),
        )?;
        for road in roads {
            let lights = road.traffic_lights().len();
            let departure = Seconds::new((self.rng.next_u64() % 120) as f64);
            let rates = (0..lights)
                .map(|_| VehiclesPerHour::new(100.0 * (1 + self.rng.next_u64() % 8) as f64))
                .collect();
            self.trips.push(TripRequest {
                road,
                departure,
                rates,
                queue: QueueParams::us25_probe(),
                queue_aware: true,
            });
        }
        let mut block: Vec<usize> = (first..self.trips.len())
            .flat_map(|t| std::iter::repeat_n(t, SENDS_PER_TRIP))
            .collect();
        shuffle(&mut block, &mut self.rng);
        self.first.resize(self.trips.len(), usize::MAX);
        for (i, &t) in block.iter().enumerate() {
            let k = self.order.len() + i;
            self.first[t] = self.first[t].min(k);
        }
        self.order.extend(block);
        Ok(())
    }
}

/// One `ego_replan` trip: the hour the predictor forecasts, the departure
/// on the simulation clock, and the simulated background traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EgoTrip {
    /// Hour of the test week (Monday 00:00 = 0) the trip departs in.
    pub hour: usize,
    /// Departure on the simulation clock; a whole number of signal cycles,
    /// so the plan clock (zero at departure) sees the same phases.
    pub depart: f64,
    /// Poisson arrivals at the corridor entrance.
    pub entrance_rate: f64,
    /// Side-road inflow at 600 m.
    pub side_rate: f64,
    /// Seed of the simulation's random stream.
    pub sim_seed: u64,
}

/// The US-25 signal cycle (both lights run 30 s red, 30 s green).
pub const US25_CYCLE_S: f64 = 60.0;

/// The seeded `ego_replan` trip sequence (unbounded).
#[derive(Debug)]
pub struct EgoTrips {
    rng: SplitMix64,
}

impl EgoTrips {
    pub fn new(seed: u64) -> Self {
        Self {
            rng: stream(seed, 4),
        }
    }
}

impl Iterator for EgoTrips {
    type Item = EgoTrip;

    fn next(&mut self) -> Option<EgoTrip> {
        let r = &mut self.rng;
        // Daytime hours (07:00–19:59) on one of the seven days.
        let day = (r.next_u64() % 7) as usize;
        let hour = day * 24 + 7 + (r.next_u64() % 13) as usize;
        Some(EgoTrip {
            hour,
            depart: US25_CYCLE_S * (4 + r.next_u64() % 4) as f64,
            entrance_rate: r.uniform(250.0, 450.0),
            side_rate: r.uniform(150.0, 300.0),
            sim_seed: r.next_u64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(seed: u64, n: usize) -> Vec<Vec<u8>> {
        let mut s = TripStream::new(seed);
        (0..n)
            .map(|k| {
                let t = s.request(k).unwrap();
                s.trips()[t].encode().to_vec()
            })
            .collect()
    }

    #[test]
    fn trip_requests_are_seed_deterministic() {
        let a = stream_bytes(11, 200);
        assert_eq!(a, stream_bytes(11, 200), "same seed, same bytes");
        assert_ne!(a, stream_bytes(12, 200), "another seed, other trips");
    }

    #[test]
    fn every_trip_is_sent_four_times_per_block() {
        let mut s = TripStream::new(5);
        let n = TRIPS_PER_BLOCK * SENDS_PER_TRIP;
        let mut counts = vec![0usize; TRIPS_PER_BLOCK];
        let mut firsts = 0;
        for k in 0..n {
            let t = s.request(k).unwrap();
            firsts += usize::from(s.is_first(k));
            assert_eq!(s.is_first(k), counts[t] == 0);
            counts[t] += 1;
        }
        assert!(counts.iter().all(|&c| c == SENDS_PER_TRIP));
        assert_eq!(firsts, TRIPS_PER_BLOCK);
        assert_eq!(s.trips().len(), TRIPS_PER_BLOCK);
    }

    #[test]
    fn strata_cover_the_range_once_each() {
        let mut rng = SplitMix64::new(3);
        let mut s = strata(&mut rng, 8, 0.0, 8.0);
        s.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (k, range) in s.into_iter().enumerate() {
            assert_eq!(range, (k as f64, k as f64 + 1.0));
        }
    }

    #[test]
    fn corridor_specs_are_seed_deterministic() {
        let fp = |specs: &[CorridorSpec]| format!("{specs:?}");
        let (a, _) = fleet_network(3).unwrap();
        let (b, _) = fleet_network(3).unwrap();
        let (c, _) = fleet_network(4).unwrap();
        assert_eq!(fp(&a), fp(&b));
        assert_ne!(fp(&a), fp(&c));
        let a = sim_network(3, 8).unwrap();
        assert_eq!(fp(&a), fp(&sim_network(3, 8).unwrap()));
        assert_ne!(fp(&a), fp(&sim_network(4, 8).unwrap()));
        let trips: Vec<EgoTrip> = EgoTrips::new(9).take(5).collect();
        assert_eq!(trips, EgoTrips::new(9).take(5).collect::<Vec<_>>());
        assert_ne!(trips, EgoTrips::new(10).take(5).collect::<Vec<_>>());
    }
}

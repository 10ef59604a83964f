//! The vehicular-cloud wire format.
//!
//! Frames are length-prefixed: a 4-byte big-endian payload length, a 1-byte
//! message type, then the payload. All multi-byte integers and floats are
//! big-endian; sequences are a 4-byte count followed by the elements. The
//! format is explicit field-by-field encoding (like the TraCI layer) so the
//! wire is stable, compact, and independent of any serialization framework.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use velopt_common::units::{Meters, MetersPerSecond, MetersPerSecondSq, Seconds, VehiclesPerHour};
use velopt_common::{Error, Result};
use velopt_core::dp::OptimizedProfile;
use velopt_core::metrics::SolverMetrics;
use velopt_core::route::RoutePlan;
use velopt_queue::QueueParams;
use velopt_road::{EdgeId, NodeId, Road, RoadBuilder, RoadGraph, SpeedZone};

/// Message type tags.
pub mod tags {
    /// Vehicle → cloud: optimize this trip.
    pub const REQ_TRIP: u8 = 1;
    /// Cloud → vehicle: the optimized profile.
    pub const RESP_PROFILE: u8 = 2;
    /// Cloud → vehicle: the request failed; payload is a message string.
    pub const RESP_ERROR: u8 = 3;
    /// Vehicle/operator → cloud: report serving statistics.
    pub const REQ_STATS: u8 = 4;
    /// Cloud → requester: `(served, cache_hits)` counters.
    pub const RESP_STATS: u8 = 5;
    /// Fleet gateway → cloud: optimize a batch of independent trips.
    pub const REQ_BATCH: u8 = 6;
    /// Cloud → gateway: per-trip profiles/errors, in request order.
    pub const RESP_BATCH: u8 = 7;
    /// Operator → cloud: export the telemetry registry.
    pub const REQ_TELEMETRY: u8 = 8;
    /// Cloud → operator: the telemetry snapshot as UTF-8 JSON (empty
    /// `{"counters":[],"histograms":[]}` when the server was built without
    /// the `telemetry` feature).
    pub const RESP_TELEMETRY: u8 = 9;
    /// Vehicle/gateway → cloud: forecast arrival volumes for a batch of
    /// intersections over several lookahead horizons.
    pub const REQ_PREDICT_BATCH: u8 = 10;
    /// Cloud → requester: the forecast volumes, in request order.
    pub const RESP_PREDICT_BATCH: u8 = 11;
    /// Vehicle → cloud: plan an energy-optimal route across a road graph
    /// (origin junction → destination junction), not just one corridor.
    pub const REQ_ROUTE: u8 = 14;
    /// Cloud → vehicle: the routed plan — the edge sequence plus the
    /// stitched velocity profile along it.
    pub const RESP_ROUTE: u8 = 15;
}

/// A trip uploaded by an EV: corridor geometry plus traffic state.
///
/// Departure time is on the corridor's signal clock (the same clock the
/// lights' offsets are defined on), so two EVs departing one full cycle
/// apart produce byte-identical requests — which is what makes the cloud's
/// plan cache effective.
#[derive(Debug, Clone, PartialEq)]
pub struct TripRequest {
    /// The corridor to drive.
    pub road: Road,
    /// Departure time on the signal clock.
    pub departure: Seconds,
    /// Predicted arrival rate per traffic light.
    pub rates: Vec<VehiclesPerHour>,
    /// Queue-model parameters (signal timing is taken from each light).
    pub queue: QueueParams,
    /// `true` = the paper's queue-aware windows; `false` = the prior
    /// green-only DP \[2\].
    pub queue_aware: bool,
}

impl TripRequest {
    /// The canonical US-25 rush-hour trip departing at `t` on the signal
    /// clock.
    pub fn us25_at(t: f64) -> Self {
        Self {
            road: Road::us25(),
            departure: Seconds::new(t),
            rates: vec![
                VehiclesPerHour::new(800.0),
                VehiclesPerHour::new(800.0 * 0.7636),
            ],
            queue: QueueParams::us25_probe(),
            queue_aware: true,
        }
    }

    /// Validates cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] on a rate/light arity mismatch or
    /// invalid queue parameters.
    pub fn validated(&self) -> Result<()> {
        if self.rates.len() != self.road.traffic_lights().len() {
            return Err(Error::invalid_input(format!(
                "{} rates for {} lights",
                self.rates.len(),
                self.road.traffic_lights().len()
            )));
        }
        self.queue.validated()?;
        if self.departure.value() < 0.0 {
            return Err(Error::invalid_input("departure must be non-negative"));
        }
        Ok(())
    }

    /// Encodes the request payload (without the frame header).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        encode_road(&self.road, &mut buf);
        buf.put_f64(self.departure.value());
        buf.put_u32(self.rates.len() as u32);
        for r in &self.rates {
            buf.put_f64(r.value());
        }
        encode_queue(&self.queue, &mut buf);
        buf.put_u8(u8::from(self.queue_aware));
        buf.freeze()
    }

    /// Decodes a request payload.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] on truncation or malformed geometry.
    pub fn decode(buf: &mut Bytes) -> Result<Self> {
        let road = decode_road(buf)?;
        let departure = Seconds::new(take_f64(buf)?);
        let n = take_u32(buf)? as usize;
        if n > buf.remaining() / 8 {
            return Err(Error::protocol("implausible rate count"));
        }
        let mut rates = Vec::with_capacity(n);
        for _ in 0..n {
            rates.push(VehiclesPerHour::new(take_f64(buf)?));
        }
        let queue = decode_queue(buf)?;
        let queue_aware = take_u8(buf)? != 0;
        Ok(Self {
            road,
            departure,
            rates,
            queue,
            queue_aware,
        })
    }
}

/// The cloud's answer to a trip request.
// Responses are transient (decoded, consumed, dropped within one request
// round-trip); boxing the profile variant would trade one stack copy for
// a heap allocation on the serving hot path, which the buffer-pooled
// tier deliberately avoids.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum CloudResponse {
    /// The optimized profile.
    Profile(OptimizedProfile),
    /// The request could not be served.
    Error(String),
    /// Serving statistics `(requests served, cache hits)`.
    Stats(u64, u64),
}

/// Encodes a profile payload (including its solver metrics, so the vehicle
/// can see what the cloud's solve cost).
pub fn encode_profile(profile: &OptimizedProfile, buf: &mut BytesMut) {
    buf.put_u32(profile.stations.len() as u32);
    for i in 0..profile.stations.len() {
        buf.put_f64(profile.stations[i].value());
        buf.put_f64(profile.speeds[i].value());
        buf.put_f64(profile.times[i].value());
    }
    buf.put_f64(profile.total_energy.value());
    buf.put_f64(profile.trip_time.value());
    buf.put_u32(profile.window_violations as u32);
    let m = &profile.metrics;
    buf.put_u64(m.states_expanded);
    buf.put_u64(m.states_pruned);
    buf.put_f64(m.setup_seconds);
    buf.put_f64(m.relax_seconds);
    buf.put_f64(m.backtrack_seconds);
    buf.put_u64(m.arena_reuse_hits);
    buf.put_u64(m.arena_allocations);
    buf.put_u64(m.memo_hits);
    buf.put_u64(m.memo_misses);
    buf.put_u64(m.energy_evals);
    buf.put_u64(m.rows_skipped);
    buf.put_u64(m.simd_rows);
    buf.put_u64(m.scalar_rows);
    buf.put_u64(m.repair_hits);
    buf.put_u64(m.repair_full_resolves);
    buf.put_u64(m.repair_layers_skipped);
}

/// Decodes a profile payload.
///
/// # Errors
///
/// Returns [`Error::Protocol`] on truncation or implausible lengths.
pub fn decode_profile(buf: &mut Bytes) -> Result<OptimizedProfile> {
    let n = take_u32(buf)? as usize;
    if n == 0 || n > buf.remaining() / 24 + 1 {
        return Err(Error::protocol("implausible station count"));
    }
    let mut stations = Vec::with_capacity(n);
    let mut speeds = Vec::with_capacity(n);
    let mut times = Vec::with_capacity(n);
    for _ in 0..n {
        stations.push(Meters::new(take_f64(buf)?));
        speeds.push(MetersPerSecond::new(take_f64(buf)?));
        times.push(Seconds::new(take_f64(buf)?));
    }
    let total_energy = velopt_common::units::AmpereHours::new(take_f64(buf)?);
    let trip_time = Seconds::new(take_f64(buf)?);
    let window_violations = take_u32(buf)? as usize;
    let metrics = SolverMetrics {
        states_expanded: take_u64(buf)?,
        states_pruned: take_u64(buf)?,
        setup_seconds: take_f64(buf)?,
        relax_seconds: take_f64(buf)?,
        backtrack_seconds: take_f64(buf)?,
        arena_reuse_hits: take_u64(buf)?,
        arena_allocations: take_u64(buf)?,
        memo_hits: take_u64(buf)?,
        memo_misses: take_u64(buf)?,
        energy_evals: take_u64(buf)?,
        rows_skipped: take_u64(buf)?,
        simd_rows: take_u64(buf)?,
        scalar_rows: take_u64(buf)?,
        repair_hits: take_u64(buf)?,
        repair_full_resolves: take_u64(buf)?,
        repair_layers_skipped: take_u64(buf)?,
    };
    Ok(OptimizedProfile {
        stations,
        speeds,
        times,
        total_energy,
        trip_time,
        window_violations,
        metrics,
    })
}

/// A batch of independent trip uploads planned in one round trip — the
/// fleet-gateway path: one frame in, one frame out, the cloud fans the
/// plans out across its cores.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchPlanRequest {
    /// The trips to plan, each exactly as it would appear in a `REQ_TRIP`.
    pub trips: Vec<TripRequest>,
}

/// Per-trip ceiling on batch size (keeps a hostile count from allocating).
pub const MAX_BATCH_TRIPS: usize = 1024;

/// Bytes of the smallest encoded road: its length and default limits, and
/// empty speed-zone, stop-sign, light and grade-knot lists.
const MIN_ROAD_BYTES: usize = 3 * 8 + 4 * 4;

/// Bytes of the smallest encoded trip: a minimal road, the departure, an
/// empty rate list, the queue parameters and the queue-aware flag.
const MIN_TRIP_BYTES: usize = MIN_ROAD_BYTES + 8 + 4 + 7 * 8 + 1;

impl BatchPlanRequest {
    /// Encodes the batch payload.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u32(self.trips.len() as u32);
        for trip in &self.trips {
            buf.extend_from_slice(&trip.encode());
        }
        buf.freeze()
    }

    /// Decodes a batch payload.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] on truncation, a malformed trip, or an
    /// implausible trip count (one the remaining bytes cannot hold, refused
    /// before any trip is reserved).
    pub fn decode(buf: &mut Bytes) -> Result<Self> {
        let n = bounded_count(buf, MAX_BATCH_TRIPS)?;
        if n > buf.remaining() / MIN_TRIP_BYTES {
            return Err(Error::protocol("implausible batch trip count"));
        }
        let mut trips = Vec::with_capacity(n);
        for _ in 0..n {
            trips.push(TripRequest::decode(buf)?);
        }
        Ok(Self { trips })
    }
}

/// Bytes of the smallest batch-response entry: an error marker and an
/// empty message's `u32` length (a profile entry is longer).
const MIN_BATCH_ENTRY_BYTES: usize = 1 + 4;

/// The cloud's per-trip answers to a [`BatchPlanRequest`], in request
/// order: a profile where planning succeeded, the error message where it
/// did not (one bad trip never sinks its batch-mates).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPlanResponse {
    /// One entry per requested trip, in order.
    pub results: Vec<std::result::Result<OptimizedProfile, String>>,
}

impl BatchPlanResponse {
    /// Encodes the batch-response payload.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Encodes the batch-response payload into an existing buffer (the
    /// reactor's pooled-buffer path; same bytes as [`Self::encode`]).
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u32(self.results.len() as u32);
        for result in &self.results {
            match result {
                Ok(profile) => {
                    buf.put_u8(1);
                    encode_profile(profile, buf);
                }
                Err(message) => {
                    buf.put_u8(0);
                    let raw = message.as_bytes();
                    buf.put_u32(raw.len() as u32);
                    buf.extend_from_slice(raw);
                }
            }
        }
    }

    /// Decodes a batch-response payload.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] on truncation, malformed entries, or an
    /// implausible entry count (one the remaining bytes cannot hold,
    /// refused before any entry is reserved).
    pub fn decode(buf: &mut Bytes) -> Result<Self> {
        let n = bounded_count(buf, MAX_BATCH_TRIPS)?;
        if n > buf.remaining() / MIN_BATCH_ENTRY_BYTES {
            return Err(Error::protocol("implausible batch entry count"));
        }
        let mut results = Vec::with_capacity(n);
        for _ in 0..n {
            match take_u8(buf)? {
                1 => results.push(Ok(decode_profile(buf)?)),
                0 => {
                    let len = take_u32(buf)? as usize;
                    if len > buf.remaining() {
                        return Err(Error::protocol("truncated batch error message"));
                    }
                    let raw = buf.split_to(len);
                    results.push(Err(String::from_utf8_lossy(&raw).into_owned()));
                }
                other => {
                    return Err(Error::protocol(format!(
                        "unknown batch entry marker {other}"
                    )))
                }
            }
        }
        Ok(Self { results })
    }
}

/// One intersection's forecasting state inside a [`PredictBatchRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct PredictQuery {
    /// The most recent hourly volumes at this intersection, oldest first.
    /// Every query in a batch must use the same window length (it selects
    /// the predictor's lag count).
    pub history: Vec<f64>,
    /// Global hour index (hour 0 = Monday 00:00) of the first forecast
    /// hour.
    pub hour_index: u64,
}

/// Ceiling on intersections per predict batch.
pub const MAX_PREDICT_QUERIES: usize = 256;
/// Ceiling on lag-window length (one week of hourly volumes).
pub const MAX_PREDICT_LAGS: usize = 168;
/// Ceiling on lookahead horizons (one week of hourly forecasts).
pub const MAX_PREDICT_HORIZONS: usize = 168;

/// A batched volume-forecast request: all lookahead horizons for N
/// intersections in one round trip, served by the cloud's SAE predictor
/// cache. `station_seed`/`train_weeks` identify the feed the predictor is
/// trained on (the synthetic station substrate — see `velopt-traffic`).
#[derive(Debug, Clone, PartialEq)]
pub struct PredictBatchRequest {
    /// Seed of the volume station whose predictor should answer.
    pub station_seed: u64,
    /// Weeks of history the cloud trains that predictor on.
    pub train_weeks: u32,
    /// Consecutive hours to forecast for every query.
    pub horizons: u32,
    /// The intersections to forecast.
    pub queries: Vec<PredictQuery>,
}

impl PredictBatchRequest {
    /// Validates bounds and the uniform-lag invariant.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when a ceiling is exceeded, the
    /// training window is degenerate, or the queries disagree on their
    /// history length.
    pub fn validated(&self) -> Result<()> {
        if self.train_weeks == 0 || self.train_weeks > 52 {
            return Err(Error::invalid_input("train_weeks must be between 1 and 52"));
        }
        if self.horizons as usize > MAX_PREDICT_HORIZONS {
            return Err(Error::invalid_input(format!(
                "horizons {} exceeds bound {MAX_PREDICT_HORIZONS}",
                self.horizons
            )));
        }
        if self.queries.len() > MAX_PREDICT_QUERIES {
            return Err(Error::invalid_input(format!(
                "{} queries exceed bound {MAX_PREDICT_QUERIES}",
                self.queries.len()
            )));
        }
        let lags = self.queries.first().map_or(1, |q| q.history.len());
        for (i, q) in self.queries.iter().enumerate() {
            if q.history.is_empty() || q.history.len() > MAX_PREDICT_LAGS {
                return Err(Error::invalid_input(format!(
                    "query {i}: history length {} outside 1..={MAX_PREDICT_LAGS}",
                    q.history.len()
                )));
            }
            if q.history.len() != lags {
                return Err(Error::invalid_input(format!(
                    "query {i}: history length {} disagrees with {lags}",
                    q.history.len()
                )));
            }
        }
        Ok(())
    }

    /// Encodes the request payload.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u64(self.station_seed);
        buf.put_u32(self.train_weeks);
        buf.put_u32(self.horizons);
        buf.put_u32(self.queries.len() as u32);
        for q in &self.queries {
            buf.put_u64(q.hour_index);
            buf.put_u32(q.history.len() as u32);
            for &v in &q.history {
                buf.put_f64(v);
            }
        }
        buf.freeze()
    }

    /// Decodes a request payload.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] on truncation or implausible counts.
    pub fn decode(buf: &mut Bytes) -> Result<Self> {
        let station_seed = take_u64(buf)?;
        let train_weeks = take_u32(buf)?;
        let horizons = take_u32(buf)?;
        let n = bounded_count(buf, MAX_PREDICT_QUERIES)?;
        let mut queries = Vec::with_capacity(n);
        for _ in 0..n {
            let hour_index = take_u64(buf)?;
            let lags = bounded_count(buf, MAX_PREDICT_LAGS)?;
            if lags > buf.remaining() / 8 {
                return Err(Error::protocol("truncated predict history"));
            }
            let mut history = Vec::with_capacity(lags);
            for _ in 0..lags {
                history.push(take_f64(buf)?);
            }
            queries.push(PredictQuery {
                history,
                hour_index,
            });
        }
        Ok(Self {
            station_seed,
            train_weeks,
            horizons,
            queries,
        })
    }
}

/// The cloud's answer to a [`PredictBatchRequest`]: `volumes[q][s]` is the
/// forecast (vehicles/hour) for query `q` at its `hour_index + s`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PredictBatchResponse {
    /// One row of `horizons` forecasts per query, in request order.
    pub volumes: Vec<Vec<f64>>,
}

impl PredictBatchResponse {
    /// Encodes the response payload.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Encodes the response payload into an existing buffer (the reactor's
    /// pooled-buffer path; same bytes as [`Self::encode`]).
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u32(self.volumes.len() as u32);
        let horizons = self.volumes.first().map_or(0, Vec::len);
        buf.put_u32(horizons as u32);
        for row in &self.volumes {
            for &v in row {
                buf.put_f64(v);
            }
        }
    }

    /// Decodes a response payload.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] on truncation or implausible counts.
    pub fn decode(buf: &mut Bytes) -> Result<Self> {
        let n = bounded_count(buf, MAX_PREDICT_QUERIES)?;
        let horizons = bounded_count(buf, MAX_PREDICT_HORIZONS)?;
        if n * horizons > buf.remaining() / 8 {
            return Err(Error::protocol("truncated predict response"));
        }
        let mut volumes = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = Vec::with_capacity(horizons);
            for _ in 0..horizons {
                row.push(take_f64(buf)?);
            }
            volumes.push(row);
        }
        Ok(Self { volumes })
    }
}

/// Ceiling on route-graph junction counts (keeps a hostile node count from
/// allocating adjacency storage).
pub const MAX_ROUTE_NODES: usize = 4096;

/// Ceiling on route-graph edge counts.
pub const MAX_ROUTE_EDGES: usize = 16_384;

/// Bytes of the smallest encoded route edge: two endpoints and a minimal
/// road.
const MIN_ROUTE_EDGE_BYTES: usize = 2 * 4 + MIN_ROAD_BYTES;

/// A routing query uploaded by an EV: the road graph (junctions plus
/// directed corridor edges) and the `origin → dest` trip to plan across it.
///
/// Like [`TripRequest`], the departure time is on the network's shared
/// signal clock, so two EVs asking for the same trip in the same signal
/// cycle produce byte-identical requests — which is what makes the cloud's
/// route-frame cache effective.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteNetRequest {
    /// Junction count; edge endpoints index `0..nodes`.
    pub nodes: u32,
    /// Directed corridor edges as `(from, to, road)`.
    pub edges: Vec<(u32, u32, Road)>,
    /// Start junction.
    pub origin: u32,
    /// Goal junction.
    pub dest: u32,
    /// Departure time on the signal clock.
    pub depart: Seconds,
}

impl RouteNetRequest {
    /// Captures a whole [`RoadGraph`] plus a query against it.
    pub fn from_graph(graph: &RoadGraph, origin: NodeId, dest: NodeId, depart: Seconds) -> Self {
        Self {
            nodes: graph.node_count() as u32,
            edges: graph
                .edges()
                .iter()
                .map(|e| (e.from().0, e.to().0, e.road().clone()))
                .collect(),
            origin: origin.0,
            dest: dest.0,
            depart,
        }
    }

    /// Validates the graph shape and query endpoints.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when counts exceed the protocol
    /// ceilings, an edge endpoint or query junction is out of range,
    /// `origin == dest`, or the departure is negative.
    pub fn validated(&self) -> Result<()> {
        if self.nodes < 2 || self.nodes as usize > MAX_ROUTE_NODES {
            return Err(Error::invalid_input(format!(
                "route graph needs 2..={MAX_ROUTE_NODES} junctions, got {}",
                self.nodes
            )));
        }
        if self.edges.len() > MAX_ROUTE_EDGES {
            return Err(Error::invalid_input(format!(
                "{} edges exceed bound {MAX_ROUTE_EDGES}",
                self.edges.len()
            )));
        }
        for (i, &(from, to, _)) in self.edges.iter().enumerate() {
            if from >= self.nodes || to >= self.nodes {
                return Err(Error::invalid_input(format!(
                    "edge {i} endpoint ({from} -> {to}) outside 0..{}",
                    self.nodes
                )));
            }
        }
        if self.origin >= self.nodes || self.dest >= self.nodes {
            return Err(Error::invalid_input("query junction outside the graph"));
        }
        if self.origin == self.dest {
            return Err(Error::invalid_input("origin and destination coincide"));
        }
        if self.depart.value() < 0.0 {
            return Err(Error::invalid_input("departure must be non-negative"));
        }
        Ok(())
    }

    /// Validates and rebuilds the [`RoadGraph`] this request describes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] from [`Self::validated`] or graph
    /// construction (e.g. a self-loop edge).
    pub fn to_graph(&self) -> Result<RoadGraph> {
        self.validated()?;
        let mut graph = RoadGraph::new(self.nodes as usize)?;
        for &(from, to, ref road) in &self.edges {
            graph.add_edge(NodeId(from), NodeId(to), road.clone())?;
        }
        Ok(graph)
    }

    /// Encodes the request payload (without the frame header).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u32(self.nodes);
        buf.put_u32(self.origin);
        buf.put_u32(self.dest);
        buf.put_f64(self.depart.value());
        buf.put_u32(self.edges.len() as u32);
        for &(from, to, ref road) in &self.edges {
            buf.put_u32(from);
            buf.put_u32(to);
            encode_road(road, &mut buf);
        }
        buf.freeze()
    }

    /// Decodes a request payload.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] on truncation, implausible counts, or
    /// malformed corridor geometry.
    pub fn decode(buf: &mut Bytes) -> Result<Self> {
        let nodes = take_u32(buf)?;
        let origin = take_u32(buf)?;
        let dest = take_u32(buf)?;
        let depart = Seconds::new(take_f64(buf)?);
        let n = bounded_count(buf, MAX_ROUTE_EDGES)?;
        if n > buf.remaining() / MIN_ROUTE_EDGE_BYTES {
            return Err(Error::protocol("implausible route edge count"));
        }
        let mut edges = Vec::with_capacity(n);
        for _ in 0..n {
            let from = take_u32(buf)?;
            let to = take_u32(buf)?;
            edges.push((from, to, decode_road(buf)?));
        }
        Ok(Self {
            nodes,
            edges,
            origin,
            dest,
            depart,
        })
    }
}

/// The cloud's answer to a route query: the chosen edge sequence and the
/// stitched velocity profile along it, on the absolute signal clock.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteNetResponse {
    /// Edge ids of the chosen route, in driving order.
    pub edges: Vec<u32>,
    /// The blended objective the route minimizes.
    pub cost: f64,
    /// Battery charge drawn over the whole route.
    pub total_energy: velopt_common::units::AmpereHours,
    /// Departure time (echoed from the query).
    pub depart: Seconds,
    /// Arrival time at the destination.
    pub arrival: Seconds,
    /// Queue-window violations summed over the route.
    pub window_violations: u32,
    /// Cumulative station samples from origin to destination.
    pub stations: Vec<Meters>,
    /// Speed at each station sample.
    pub speeds: Vec<MetersPerSecond>,
    /// Clock time at each station sample.
    pub times: Vec<Seconds>,
}

impl RouteNetResponse {
    /// Captures a routed plan for the wire (the search metrics stay on the
    /// server, aggregated into its `route.*` counters).
    pub fn from_plan(plan: &RoutePlan) -> Self {
        Self {
            edges: plan.edges.iter().map(|e| e.0).collect(),
            cost: plan.cost,
            total_energy: plan.total_energy,
            depart: plan.depart,
            arrival: plan.arrival,
            window_violations: plan.window_violations as u32,
            stations: plan.stations.clone(),
            speeds: plan.speeds.clone(),
            times: plan.times.clone(),
        }
    }

    /// The edge ids as typed [`EdgeId`]s.
    pub fn edge_ids(&self) -> Vec<EdgeId> {
        self.edges.iter().map(|&e| EdgeId(e)).collect()
    }

    /// Encodes the response payload.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Encodes the response payload directly into `buf` (the server's
    /// zero-copy framing path).
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u32(self.edges.len() as u32);
        for &e in &self.edges {
            buf.put_u32(e);
        }
        buf.put_f64(self.cost);
        buf.put_f64(self.total_energy.value());
        buf.put_f64(self.depart.value());
        buf.put_f64(self.arrival.value());
        buf.put_u32(self.window_violations);
        buf.put_u32(self.stations.len() as u32);
        for i in 0..self.stations.len() {
            buf.put_f64(self.stations[i].value());
            buf.put_f64(self.speeds[i].value());
            buf.put_f64(self.times[i].value());
        }
    }

    /// Decodes a response payload.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] on truncation or implausible counts.
    pub fn decode(buf: &mut Bytes) -> Result<Self> {
        let n = bounded_count(buf, MAX_ROUTE_EDGES)?;
        if n == 0 || n > buf.remaining() / 4 {
            return Err(Error::protocol("implausible route edge count"));
        }
        let mut edges = Vec::with_capacity(n);
        for _ in 0..n {
            edges.push(take_u32(buf)?);
        }
        let cost = take_f64(buf)?;
        let total_energy = velopt_common::units::AmpereHours::new(take_f64(buf)?);
        let depart = Seconds::new(take_f64(buf)?);
        let arrival = Seconds::new(take_f64(buf)?);
        let window_violations = take_u32(buf)?;
        let samples = take_u32(buf)? as usize;
        if samples == 0 || samples > buf.remaining() / 24 + 1 {
            return Err(Error::protocol("implausible route sample count"));
        }
        let mut stations = Vec::with_capacity(samples);
        let mut speeds = Vec::with_capacity(samples);
        let mut times = Vec::with_capacity(samples);
        for _ in 0..samples {
            stations.push(Meters::new(take_f64(buf)?));
            speeds.push(MetersPerSecond::new(take_f64(buf)?));
            times.push(Seconds::new(take_f64(buf)?));
        }
        Ok(Self {
            edges,
            cost,
            total_energy,
            depart,
            arrival,
            window_violations,
            stations,
            speeds,
            times,
        })
    }
}

/// Encodes one complete frame (length prefix, tag, payload) in place at the
/// end of `buf` — the reactor's zero-copy path. `fill` writes the payload
/// directly into `buf` and the 4-byte big-endian length is patched in
/// afterwards, so no intermediate payload buffer is allocated or copied.
/// The bytes produced are identical to [`write_frame`]'s.
pub fn encode_frame_into(buf: &mut BytesMut, tag: u8, fill: impl FnOnce(&mut BytesMut)) {
    let header_at = buf.len();
    buf.put_u32(0); // length placeholder, patched below
    buf.put_u8(tag);
    fill(buf);
    let frame_len = (buf.len() - header_at - 4) as u32;
    buf[header_at..header_at + 4].copy_from_slice(&frame_len.to_be_bytes());
}

/// Writes one frame (`type` + payload) to a blocking writer.
///
/// # Errors
///
/// Returns [`Error::Io`] on write failures.
pub fn write_frame(writer: &mut impl std::io::Write, tag: u8, payload: &[u8]) -> Result<()> {
    let mut header = BytesMut::with_capacity(5);
    header.put_u32(payload.len() as u32 + 1);
    header.put_u8(tag);
    writer.write_all(&header)?;
    writer.write_all(payload)?;
    writer.flush()?;
    Ok(())
}

/// Reads one frame; returns `(type, payload)`, or `None` on a clean EOF at
/// a frame boundary.
///
/// # Errors
///
/// Returns [`Error::Io`]/[`Error::Protocol`] on failures.
pub fn read_frame(reader: &mut impl std::io::Read) -> Result<Option<(u8, Bytes)>> {
    let mut header = [0u8; 4];
    match reader.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_be_bytes(header) as usize;
    if len == 0 || len > 64 * 1024 * 1024 {
        return Err(Error::protocol(format!("implausible frame length {len}")));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    let mut bytes = Bytes::from(body);
    let tag = take_u8(&mut bytes)?;
    Ok(Some((tag, bytes)))
}

fn encode_road(road: &Road, buf: &mut BytesMut) {
    buf.put_f64(road.length().value());
    let (lo, hi) = road.default_limits();
    buf.put_f64(lo.value());
    buf.put_f64(hi.value());
    buf.put_u32(road.speed_zones().len() as u32);
    for z in road.speed_zones() {
        buf.put_f64(z.start.value());
        buf.put_f64(z.end.value());
        buf.put_f64(z.min.value());
        buf.put_f64(z.max.value());
    }
    buf.put_u32(road.stop_signs().len() as u32);
    for s in road.stop_signs() {
        buf.put_f64(s.position.value());
    }
    buf.put_u32(road.traffic_lights().len() as u32);
    for l in road.traffic_lights() {
        buf.put_f64(l.position().value());
        buf.put_f64(l.red().value());
        buf.put_f64(l.green().value());
        buf.put_f64(l.offset().value());
    }
    let knots = road.grade_percent_profile().knots();
    buf.put_u32(knots.len() as u32);
    for &(x, g) in knots {
        buf.put_f64(x);
        buf.put_f64(g);
    }
}

fn decode_road(buf: &mut Bytes) -> Result<Road> {
    let length = take_f64(buf)?;
    let lo = take_f64(buf)?;
    let hi = take_f64(buf)?;
    let mut builder = RoadBuilder::new(Meters::new(length));
    builder.default_limits(MetersPerSecond::new(lo), MetersPerSecond::new(hi));

    let zones = bounded_count(buf, 32)?;
    for _ in 0..zones {
        builder.speed_zone(SpeedZone {
            start: Meters::new(take_f64(buf)?),
            end: Meters::new(take_f64(buf)?),
            min: MetersPerSecond::new(take_f64(buf)?),
            max: MetersPerSecond::new(take_f64(buf)?),
        });
    }
    let signs = bounded_count(buf, 8)?;
    for _ in 0..signs {
        builder.stop_sign(Meters::new(take_f64(buf)?));
    }
    let lights = bounded_count(buf, 32)?;
    for _ in 0..lights {
        builder.traffic_light(
            Meters::new(take_f64(buf)?),
            Seconds::new(take_f64(buf)?),
            Seconds::new(take_f64(buf)?),
            Seconds::new(take_f64(buf)?),
        );
    }
    let knots = bounded_count(buf, 256)?;
    for _ in 0..knots {
        let x = take_f64(buf)?;
        let g = take_f64(buf)?;
        builder.grade_knot(Meters::new(x), g);
    }
    builder
        .build()
        .map_err(|e| Error::protocol(format!("road rejected: {e}")))
}

fn encode_queue(queue: &QueueParams, buf: &mut BytesMut) {
    buf.put_f64(queue.arrival_rate.value());
    buf.put_f64(queue.spacing.value());
    buf.put_f64(queue.straight_ratio);
    buf.put_f64(queue.v_min.value());
    buf.put_f64(queue.a_max.value());
    buf.put_f64(queue.red.value());
    buf.put_f64(queue.green.value());
}

fn decode_queue(buf: &mut Bytes) -> Result<QueueParams> {
    Ok(QueueParams {
        arrival_rate: VehiclesPerHour::new(take_f64(buf)?),
        spacing: Meters::new(take_f64(buf)?),
        straight_ratio: take_f64(buf)?,
        v_min: MetersPerSecond::new(take_f64(buf)?),
        a_max: MetersPerSecondSq::new(take_f64(buf)?),
        red: Seconds::new(take_f64(buf)?),
        green: Seconds::new(take_f64(buf)?),
    })
}

fn bounded_count(buf: &mut Bytes, max: usize) -> Result<usize> {
    let n = take_u32(buf)? as usize;
    if n > max {
        return Err(Error::protocol(format!("count {n} exceeds bound {max}")));
    }
    Ok(n)
}

fn take_u8(buf: &mut Bytes) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(Error::protocol("unexpected end of frame"));
    }
    Ok(buf.get_u8())
}

fn take_u32(buf: &mut Bytes) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(Error::protocol("unexpected end of frame"));
    }
    Ok(buf.get_u32())
}

fn take_u64(buf: &mut Bytes) -> Result<u64> {
    if buf.remaining() < 8 {
        return Err(Error::protocol("unexpected end of frame"));
    }
    Ok(buf.get_u64())
}

fn take_f64(buf: &mut Bytes) -> Result<f64> {
    if buf.remaining() < 8 {
        return Err(Error::protocol("unexpected end of frame"));
    }
    Ok(buf.get_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use velopt_road::CorridorTemplate;

    #[test]
    fn request_round_trip_us25() {
        let req = TripRequest::us25_at(60.0);
        let encoded = req.encode();
        let mut bytes = encoded.clone();
        let back = TripRequest::decode(&mut bytes).unwrap();
        assert_eq!(back, req);
        assert!(bytes.is_empty(), "decoder must consume the whole payload");
    }

    #[test]
    fn request_round_trip_generated_corridors() {
        for seed in 0..10 {
            let road = CorridorTemplate::default().generate(seed).unwrap();
            let rates = vec![VehiclesPerHour::new(250.0); road.traffic_lights().len()];
            let req = TripRequest {
                road,
                departure: Seconds::new(12.5),
                rates,
                queue: QueueParams::us25_probe(),
                queue_aware: false,
            };
            let mut bytes = req.encode();
            assert_eq!(TripRequest::decode(&mut bytes).unwrap(), req);
        }
    }

    #[test]
    fn validation_catches_arity() {
        let mut req = TripRequest::us25_at(0.0);
        req.rates.pop();
        assert!(req.validated().is_err());
        let mut req = TripRequest::us25_at(0.0);
        req.departure = Seconds::new(-1.0);
        assert!(req.validated().is_err());
    }

    #[test]
    fn truncated_request_rejected() {
        let encoded = TripRequest::us25_at(0.0).encode();
        let mut truncated = encoded.slice(0..encoded.len() / 2);
        assert!(TripRequest::decode(&mut truncated).is_err());
    }

    #[test]
    fn frame_round_trip_and_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, tags::REQ_STATS, &[1, 2, 3]).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let (tag, payload) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(tag, tags::REQ_STATS);
        assert_eq!(&payload[..], &[1, 2, 3]);
        // Clean EOF at the frame boundary -> None.
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn encode_frame_into_matches_write_frame() {
        // Same bytes as the blocking writer, for an empty and a non-empty
        // payload, and appending after existing content patches the right
        // length slot.
        for payload in [&[][..], &[9u8, 8, 7, 6, 5][..]] {
            let mut blocking = Vec::new();
            write_frame(&mut blocking, tags::RESP_ERROR, payload).unwrap();
            let mut reactor = BytesMut::new();
            encode_frame_into(&mut reactor, tags::RESP_ERROR, |b| {
                b.extend_from_slice(payload)
            });
            assert_eq!(&reactor[..], &blocking[..]);
        }
        let mut buf = BytesMut::new();
        encode_frame_into(&mut buf, tags::RESP_STATS, |b| b.put_u64(1));
        encode_frame_into(&mut buf, tags::RESP_ERROR, |b| b.extend_from_slice(b"x"));
        let mut expected = Vec::new();
        write_frame(&mut expected, tags::RESP_STATS, &1u64.to_be_bytes()).unwrap();
        write_frame(&mut expected, tags::RESP_ERROR, b"x").unwrap();
        assert_eq!(&buf[..], &expected[..]);
    }

    #[test]
    fn hostile_counts_rejected() {
        // A zone count of 10^9 must not allocate.
        let mut buf = BytesMut::new();
        buf.put_f64(1000.0);
        buf.put_f64(10.0);
        buf.put_f64(20.0);
        buf.put_u32(1_000_000_000);
        let mut bytes = buf.freeze();
        assert!(decode_road(&mut bytes).is_err());
    }

    #[test]
    fn profile_round_trip() {
        use velopt_core::pipeline::{SystemConfig, VelocityOptimizationSystem};
        let system = VelocityOptimizationSystem::new(SystemConfig::us25()).unwrap();
        let profile = system.optimize().unwrap();
        let mut buf = BytesMut::new();
        encode_profile(&profile, &mut buf);
        let mut bytes = buf.freeze();
        let back = decode_profile(&mut bytes).unwrap();
        assert_eq!(back, profile);
        // Metrics travel too (equality above deliberately ignores them).
        assert_eq!(back.metrics, profile.metrics);
        assert!(bytes.is_empty(), "decoder must consume the whole payload");
    }

    /// `MIN_TRIP_BYTES` is the smallest trip the decoder accepts, so a
    /// batch of such trips is never refused as implausible.
    #[test]
    fn smallest_trip_decodes_from_min_trip_bytes() {
        let trip = TripRequest {
            road: RoadBuilder::new(Meters::new(500.0)).build().unwrap(),
            rates: Vec::new(),
            ..TripRequest::us25_at(0.0)
        };
        // The encoder writes the road's one grade knot; the decoder also
        // accepts none.
        let raw = trip.encode();
        let smallest = [&raw[..36], &[0; 4], &raw[56..]].concat();
        assert_eq!(smallest.len(), MIN_TRIP_BYTES);
        assert_eq!(
            TripRequest::decode(&mut Bytes::from(smallest.clone())).unwrap(),
            trip
        );
        let mut batch = BytesMut::new();
        batch.put_u32(3);
        for _ in 0..3 {
            batch.extend_from_slice(&smallest);
        }
        let back = BatchPlanRequest::decode(&mut batch.freeze()).unwrap();
        assert_eq!(back.trips, vec![trip; 3]);
    }

    #[test]
    fn batch_request_round_trip() {
        let batch = BatchPlanRequest {
            trips: vec![
                TripRequest::us25_at(0.0),
                TripRequest::us25_at(60.0),
                TripRequest::us25_at(120.0),
            ],
        };
        let mut bytes = batch.encode();
        let back = BatchPlanRequest::decode(&mut bytes).unwrap();
        assert_eq!(back, batch);
        assert!(bytes.is_empty());
        // Empty batch is legal on the wire.
        let mut empty = BatchPlanRequest::default().encode();
        assert!(BatchPlanRequest::decode(&mut empty)
            .unwrap()
            .trips
            .is_empty());
    }

    #[test]
    fn batch_response_round_trip_mixes_profiles_and_errors() {
        use velopt_core::pipeline::{SystemConfig, VelocityOptimizationSystem};
        let system = VelocityOptimizationSystem::new(SystemConfig::us25()).unwrap();
        let profile = system.optimize().unwrap();
        let response = BatchPlanResponse {
            results: vec![
                Ok(profile.clone()),
                Err("2 rates for 3 lights".to_string()),
                Ok(profile),
            ],
        };
        let mut bytes = response.encode();
        let back = BatchPlanResponse::decode(&mut bytes).unwrap();
        assert_eq!(back, response);
        assert!(bytes.is_empty());
    }

    #[test]
    fn predict_batch_round_trip() {
        let request = PredictBatchRequest {
            station_seed: 0x9E37,
            train_weeks: 2,
            horizons: 4,
            queries: vec![
                PredictQuery {
                    history: vec![120.0, 340.0, 510.0],
                    hour_index: 168,
                },
                PredictQuery {
                    history: vec![80.0, 95.0, 400.0],
                    hour_index: 7,
                },
            ],
        };
        request.validated().unwrap();
        let mut bytes = request.encode();
        let back = PredictBatchRequest::decode(&mut bytes).unwrap();
        assert_eq!(back, request);
        assert!(bytes.is_empty(), "decoder must consume the whole payload");

        let response = PredictBatchResponse {
            volumes: vec![
                vec![101.5, 99.0, 87.25, 412.0],
                vec![55.0, 56.5, 58.0, 60.0],
            ],
        };
        let mut bytes = response.encode();
        let back = PredictBatchResponse::decode(&mut bytes).unwrap();
        assert_eq!(back, response);
        assert!(bytes.is_empty());
        // Empty response round-trips too.
        let mut empty = PredictBatchResponse::default().encode();
        assert!(PredictBatchResponse::decode(&mut empty)
            .unwrap()
            .volumes
            .is_empty());
    }

    #[test]
    fn predict_batch_validation_catches_bad_requests() {
        let base = PredictBatchRequest {
            station_seed: 1,
            train_weeks: 2,
            horizons: 2,
            queries: vec![PredictQuery {
                history: vec![10.0; 4],
                hour_index: 0,
            }],
        };
        assert!(base.validated().is_ok());
        let mut r = base.clone();
        r.train_weeks = 0;
        assert!(r.validated().is_err());
        let mut r = base.clone();
        r.horizons = MAX_PREDICT_HORIZONS as u32 + 1;
        assert!(r.validated().is_err());
        let mut r = base.clone();
        r.queries.push(PredictQuery {
            history: vec![1.0; 5], // disagreeing lag window
            hour_index: 3,
        });
        assert!(r.validated().is_err());
        let mut r = base;
        r.queries[0].history.clear();
        assert!(r.validated().is_err());
    }

    #[test]
    fn hostile_predict_counts_rejected() {
        // Query count bound.
        let mut buf = BytesMut::new();
        buf.put_u64(1);
        buf.put_u32(2);
        buf.put_u32(2);
        buf.put_u32(1_000_000_000);
        let mut bytes = buf.freeze();
        assert!(PredictBatchRequest::decode(&mut bytes).is_err());
        // History length larger than the remaining payload.
        let mut buf = BytesMut::new();
        buf.put_u64(1);
        buf.put_u32(2);
        buf.put_u32(2);
        buf.put_u32(1);
        buf.put_u64(0);
        buf.put_u32(100); // claims 100 lags, carries none
        let mut bytes = buf.freeze();
        assert!(PredictBatchRequest::decode(&mut bytes).is_err());
        // Response plane larger than the payload.
        let mut buf = BytesMut::new();
        buf.put_u32(200);
        buf.put_u32(100);
        let mut bytes = buf.freeze();
        assert!(PredictBatchResponse::decode(&mut bytes).is_err());
    }

    #[test]
    fn hostile_batch_count_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32(1_000_000_000);
        let mut bytes = buf.freeze();
        assert!(BatchPlanRequest::decode(&mut bytes).is_err());
        // Within the ceiling but more trips than the bytes can hold: refused
        // before any trip is reserved.
        let mut buf = BytesMut::new();
        buf.put_u32(MAX_BATCH_TRIPS as u32);
        let err = BatchPlanRequest::decode(&mut buf.freeze()).unwrap_err();
        assert!(err.to_string().contains("implausible"), "{err}");
        let mut buf = BytesMut::new();
        buf.put_u32(2);
        buf.put_u8(9); // unknown entry marker
        let mut bytes = buf.freeze();
        assert!(BatchPlanResponse::decode(&mut bytes).is_err());
        // The same for a batch response: a 4-byte payload claiming the
        // ceiling is refused before any entry is reserved.
        let mut buf = BytesMut::new();
        buf.put_u32(MAX_BATCH_TRIPS as u32);
        let err = BatchPlanResponse::decode(&mut buf.freeze()).unwrap_err();
        assert!(err.to_string().contains("implausible"), "{err}");
    }

    /// `MIN_BATCH_ENTRY_BYTES` is the smallest entry the decoder accepts
    /// (an error with an empty message), so a batch of such entries is
    /// never refused as implausible, and a profile entry is longer.
    #[test]
    fn smallest_batch_entry_is_min_batch_entry_bytes() {
        let failed = BatchPlanResponse {
            results: vec![Err(String::new()); 3],
        };
        let raw = failed.encode();
        assert_eq!(raw.len(), 4 + 3 * MIN_BATCH_ENTRY_BYTES);
        assert_eq!(BatchPlanResponse::decode(&mut raw.clone()).unwrap(), failed);
        let truncated = raw.slice(..raw.len() - 1);
        let err = BatchPlanResponse::decode(&mut truncated.clone()).unwrap_err();
        assert!(err.to_string().contains("implausible"), "{err}");
        let planned = BatchPlanResponse {
            results: vec![Ok(OptimizedProfile {
                stations: vec![Meters::new(0.0)],
                speeds: vec![MetersPerSecond::new(0.0)],
                times: vec![Seconds::new(0.0)],
                total_energy: velopt_common::units::AmpereHours::new(0.0),
                trip_time: Seconds::new(0.0),
                window_violations: 0,
                metrics: SolverMetrics::default(),
            })],
        };
        assert!(planned.encode().len() > 4 + MIN_BATCH_ENTRY_BYTES);
    }

    fn demo_route_request() -> RouteNetRequest {
        let template = CorridorTemplate {
            length: (200.0, 400.0),
            lights: (0, 1),
            phase: (15.0, 25.0),
            stop_sign_probability: 0.3,
            max_grade_percent: 0.0,
            limits_kmh: (30.0, 50.0),
        };
        let mut graph = RoadGraph::new(3).unwrap();
        graph
            .add_edge(NodeId(0), NodeId(1), template.generate(1).unwrap())
            .unwrap();
        graph
            .add_edge(NodeId(1), NodeId(2), template.generate(2).unwrap())
            .unwrap();
        graph
            .add_edge(NodeId(0), NodeId(2), template.generate(3).unwrap())
            .unwrap();
        RouteNetRequest::from_graph(&graph, NodeId(0), NodeId(2), Seconds::new(12.0))
    }

    #[test]
    fn route_request_round_trip() {
        let request = demo_route_request();
        request.validated().unwrap();
        let mut encoded = Bytes::from(request.encode().to_vec());
        let decoded = RouteNetRequest::decode(&mut encoded).unwrap();
        assert_eq!(decoded, request);
        assert_eq!(encoded.remaining(), 0, "payload fully consumed");
        // The rebuilt graph matches the captured one edge-for-edge.
        let graph = decoded.to_graph().unwrap();
        assert_eq!(graph.node_count(), 3);
        assert_eq!(graph.edge_count(), 3);
        assert_eq!(graph.edge(EdgeId(1)).road(), &request.edges[1].2);
    }

    #[test]
    fn route_request_validation_rejects_bad_shapes() {
        let mut r = demo_route_request();
        r.origin = 2;
        assert!(r.validated().unwrap_err().to_string().contains("coincide"));
        let mut r = demo_route_request();
        r.dest = 9;
        assert!(r.validated().is_err());
        let mut r = demo_route_request();
        r.nodes = 1;
        assert!(r.validated().is_err()); // edge endpoints now out of range too
        let mut r = demo_route_request();
        r.depart = Seconds::new(-1.0);
        assert!(r.validated().is_err());
        let mut r = demo_route_request();
        r.nodes = MAX_ROUTE_NODES as u32 + 1;
        assert!(r.validated().unwrap_err().to_string().contains("junction"));
    }

    #[test]
    fn route_response_round_trip() {
        let response = RouteNetResponse {
            edges: vec![0, 2, 5],
            cost: 3.75,
            total_energy: velopt_common::units::AmpereHours::new(0.42),
            depart: Seconds::new(12.0),
            arrival: Seconds::new(97.5),
            window_violations: 1,
            stations: vec![Meters::ZERO, Meters::new(150.0), Meters::new(300.0)],
            speeds: vec![
                MetersPerSecond::ZERO,
                MetersPerSecond::new(9.5),
                MetersPerSecond::ZERO,
            ],
            times: vec![Seconds::new(12.0), Seconds::new(40.0), Seconds::new(97.5)],
        };
        let mut encoded = Bytes::from(response.encode().to_vec());
        let decoded = RouteNetResponse::decode(&mut encoded).unwrap();
        assert_eq!(decoded, response);
        assert_eq!(encoded.remaining(), 0);
        assert_eq!(decoded.edge_ids(), vec![EdgeId(0), EdgeId(2), EdgeId(5)]);
    }

    #[test]
    fn hostile_route_counts_rejected() {
        // Edge count past the ceiling.
        let mut buf = BytesMut::new();
        buf.put_u32(3);
        buf.put_u32(0);
        buf.put_u32(2);
        buf.put_f64(0.0);
        buf.put_u32(1_000_000_000);
        let mut bytes = buf.freeze();
        assert!(RouteNetRequest::decode(&mut bytes).is_err());
        // An edge count within the ceiling but past the bytes present is
        // refused before any edge slot is reserved.
        let encoded = demo_route_request().encode();
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&encoded[..20]);
        buf.put_u32(MAX_ROUTE_EDGES as u32);
        buf.extend_from_slice(&encoded[24..]);
        let err = RouteNetRequest::decode(&mut buf.freeze()).unwrap_err();
        assert!(err.to_string().contains("implausible"), "{err}");
        // Response claiming more edges than the payload carries.
        let mut buf = BytesMut::new();
        buf.put_u32(10_000);
        buf.put_u32(7);
        let mut bytes = buf.freeze();
        assert!(RouteNetResponse::decode(&mut bytes).is_err());
        // Response claiming more samples than the payload carries.
        let ok = RouteNetResponse {
            edges: vec![0],
            cost: 0.0,
            total_energy: velopt_common::units::AmpereHours::new(0.0),
            depart: Seconds::ZERO,
            arrival: Seconds::ZERO,
            window_violations: 0,
            stations: vec![Meters::ZERO],
            speeds: vec![MetersPerSecond::ZERO],
            times: vec![Seconds::ZERO],
        };
        let full = ok.encode().to_vec();
        let mut truncated = Bytes::from(full[..full.len() - 8].to_vec());
        assert!(RouteNetResponse::decode(&mut truncated).is_err());
    }
}

//! The in-vehicle client side of the vehicular cloud.
//!
//! A trip request is a send and a receive: [`CloudClient::request`] is
//! [`CloudClient::send`] followed by [`CloudClient::receive`]. A caller
//! driving many vehicles — the fleet co-simulation's replan wave — encodes
//! each distinct request once as a [`TripFrame`], sends it on every
//! vehicle's connection, and only then reads the replies, so the whole wave
//! is in flight together without a thread per vehicle.

use crate::protocol::{
    decode_hello, decode_profile, encode_hello, read_frame, tags, write_frame, BatchPlanRequest,
    BatchPlanResponse, PredictBatchRequest, PredictBatchResponse, RouteNetRequest,
    RouteNetResponse, TripRequest,
};
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use velopt_common::{Error, Result};
use velopt_core::dp::OptimizedProfile;

/// A trip request encoded once as a complete `REQ_TRIP` frame, ready to be
/// sent on any number of connections.
#[derive(Debug, Clone)]
pub struct TripFrame(Vec<u8>);

impl TripFrame {
    /// Encodes `trip` with its frame header.
    pub fn new(trip: &TripRequest) -> Self {
        let mut frame = Vec::new();
        write_frame(&mut frame, tags::REQ_TRIP, &trip.encode())
            .expect("writing to a Vec cannot fail");
        Self(frame)
    }
}

/// A blocking cloud client ("the EV's modem").
///
/// See the crate-level example.
#[derive(Debug)]
pub struct CloudClient {
    stream: TcpStream,
}

impl CloudClient {
    /// Connects to a [`CloudServer`](crate::CloudServer).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self { stream })
    }

    /// Declares this connection's tenant (fleet) identity and waits for
    /// the echo. Until a connection says hello it belongs to tenant 0; the
    /// server's per-tenant admission counters and stats buckets key on
    /// whatever was declared last.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] if the server echoes a different tenant
    /// or rejects the frame, and [`Error::Io`] on transport failures.
    pub fn hello(&mut self, tenant: u32) -> Result<()> {
        write_frame(&mut self.stream, tags::REQ_HELLO, &encode_hello(tenant))?;
        let (tag, payload) = read_frame(&mut self.stream)?
            .ok_or_else(|| Error::protocol("server closed the connection"))?;
        match tag {
            tags::RESP_HELLO if decode_hello(&payload)? == tenant => Ok(()),
            tags::RESP_HELLO => Err(Error::protocol("server echoed a different tenant")),
            tags::RESP_ERROR => Err(Error::protocol(
                String::from_utf8_lossy(&payload).into_owned(),
            )),
            other => Err(Error::protocol(format!("unexpected response tag {other}"))),
        }
    }

    /// Uploads a trip and waits for the optimized profile.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] carrying the server's message when the
    /// request is rejected (bad geometry, infeasible trip), and
    /// [`Error::Io`] on transport failures.
    pub fn request(&mut self, trip: &TripRequest) -> Result<OptimizedProfile> {
        self.send(&TripFrame::new(trip))?;
        self.receive()
    }

    /// Uploads a trip without waiting for its answer; collect the answer
    /// with [`Self::receive`]. Requests sent on one connection are
    /// answered in order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on transport failures.
    pub fn send(&mut self, trip: &TripFrame) -> Result<()> {
        self.stream.write_all(&trip.0)?;
        Ok(())
    }

    /// Waits for the answer to the oldest trip [`Self::send`] uploaded.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::request`].
    pub fn receive(&mut self) -> Result<OptimizedProfile> {
        let (tag, mut payload) = read_frame(&mut self.stream)?
            .ok_or_else(|| Error::protocol("server closed the connection"))?;
        match tag {
            tags::RESP_PROFILE => decode_profile(&mut payload),
            tags::RESP_ERROR => Err(Error::protocol(
                String::from_utf8_lossy(&payload).into_owned(),
            )),
            other => Err(Error::protocol(format!("unexpected response tag {other}"))),
        }
    }

    /// Uploads a road graph plus an `origin → dest` query and waits for
    /// the energy-optimal route: the chosen edge sequence and the stitched
    /// velocity profile along it. Repeat queries for the same graph and
    /// departure bin are answered from the cloud's route caches.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] carrying the server's message when the
    /// request is rejected (malformed graph, unreachable destination), and
    /// [`Error::Io`] on transport failures.
    pub fn route(&mut self, request: &RouteNetRequest) -> Result<RouteNetResponse> {
        write_frame(&mut self.stream, tags::REQ_ROUTE, &request.encode())?;
        let (tag, mut payload) = read_frame(&mut self.stream)?
            .ok_or_else(|| Error::protocol("server closed the connection"))?;
        match tag {
            tags::RESP_ROUTE => RouteNetResponse::decode(&mut payload),
            tags::RESP_ERROR => Err(Error::protocol(
                String::from_utf8_lossy(&payload).into_owned(),
            )),
            other => Err(Error::protocol(format!("unexpected response tag {other}"))),
        }
    }

    /// Uploads a whole batch of trips in one frame (the fleet-gateway
    /// path) and waits for the per-trip results, in request order. A trip
    /// the cloud could not plan comes back as an `Err` entry carrying the
    /// server's message; it does not fail the call.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] if the server rejects the batch frame
    /// itself or answers with a malformed or wrongly-sized response, and
    /// [`Error::Io`] on transport failures.
    pub fn plan_batch(
        &mut self,
        trips: &[TripRequest],
    ) -> Result<Vec<std::result::Result<OptimizedProfile, String>>> {
        let batch = BatchPlanRequest {
            trips: trips.to_vec(),
        };
        write_frame(&mut self.stream, tags::REQ_BATCH, &batch.encode())?;
        let (tag, mut payload) = read_frame(&mut self.stream)?
            .ok_or_else(|| Error::protocol("server closed the connection"))?;
        match tag {
            tags::RESP_BATCH => {
                let response = BatchPlanResponse::decode(&mut payload)?;
                if response.results.len() != trips.len() {
                    return Err(Error::protocol(format!(
                        "batch answered {} of {} trips",
                        response.results.len(),
                        trips.len()
                    )));
                }
                Ok(response.results)
            }
            tags::RESP_ERROR => Err(Error::protocol(
                String::from_utf8_lossy(&payload).into_owned(),
            )),
            other => Err(Error::protocol(format!("unexpected response tag {other}"))),
        }
    }

    /// Uploads a volume-forecast batch and waits for the predicted
    /// volumes: `result[q][s]` is the forecast (vehicles/hour) for query
    /// `q` at its `hour_index + s`. The cloud trains (and caches) the SAE
    /// predictor for the requested station on first use, so the first
    /// call for a station pays the training cost and later calls are
    /// batched inference only.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] carrying the server's message when the
    /// request is rejected (bad bounds, ragged histories) or the response
    /// is malformed or wrongly sized, and [`Error::Io`] on transport
    /// failures.
    pub fn predict_batch(&mut self, request: &PredictBatchRequest) -> Result<Vec<Vec<f64>>> {
        write_frame(&mut self.stream, tags::REQ_PREDICT_BATCH, &request.encode())?;
        let (tag, mut payload) = read_frame(&mut self.stream)?
            .ok_or_else(|| Error::protocol("server closed the connection"))?;
        match tag {
            tags::RESP_PREDICT_BATCH => {
                let response = PredictBatchResponse::decode(&mut payload)?;
                if response.volumes.len() != request.queries.len() {
                    return Err(Error::protocol(format!(
                        "predict batch answered {} of {} queries",
                        response.volumes.len(),
                        request.queries.len()
                    )));
                }
                Ok(response.volumes)
            }
            tags::RESP_ERROR => Err(Error::protocol(
                String::from_utf8_lossy(&payload).into_owned(),
            )),
            other => Err(Error::protocol(format!("unexpected response tag {other}"))),
        }
    }

    /// Fetches the server's `(served, cache hits)` counters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`]/[`Error::Io`] on failures.
    pub fn stats(&mut self) -> Result<(u64, u64)> {
        write_frame(&mut self.stream, tags::REQ_STATS, &[])?;
        let (tag, payload) = read_frame(&mut self.stream)?
            .ok_or_else(|| Error::protocol("server closed the connection"))?;
        if tag != tags::RESP_STATS || payload.len() != 16 {
            return Err(Error::protocol("malformed stats response"));
        }
        let served = u64::from_be_bytes(payload[0..8].try_into().expect("8 bytes"));
        let hits = u64::from_be_bytes(payload[8..16].try_into().expect("8 bytes"));
        Ok((served, hits))
    }

    /// Fetches the server's telemetry registry as a JSON document (see
    /// [`telemetry::snapshot_json`]). When the server was built without the
    /// `telemetry` feature, this returns the empty snapshot
    /// `{"counters":[],"histograms":[]}`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`]/[`Error::Io`] on failures.
    pub fn telemetry_json(&mut self) -> Result<String> {
        write_frame(&mut self.stream, tags::REQ_TELEMETRY, &[])?;
        let (tag, payload) = read_frame(&mut self.stream)?
            .ok_or_else(|| Error::protocol("server closed the connection"))?;
        if tag != tags::RESP_TELEMETRY {
            return Err(Error::protocol("malformed telemetry response"));
        }
        String::from_utf8(payload.to_vec())
            .map_err(|_| Error::protocol("telemetry response is not UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::CloudServer;
    use velopt_common::units::Seconds;

    #[test]
    fn end_to_end_profile_request() {
        let server = CloudServer::spawn(2).unwrap();
        let mut client = CloudClient::connect(server.addr()).unwrap();
        let profile = client.request(&TripRequest::us25_at(0.0)).unwrap();
        assert_eq!(profile.window_violations, 0);
        assert!(profile.trip_time.value() > 100.0);
        // Departure time shifts the absolute clock of the plan.
        let later = client.request(&TripRequest::us25_at(60.0)).unwrap();
        assert!((later.times[0] - Seconds::new(60.0)).abs().value() < 1e-9);
        server.shutdown();
    }

    #[test]
    fn cache_hits_for_identical_trips() {
        let server = CloudServer::spawn(2).unwrap();
        let mut client = CloudClient::connect(server.addr()).unwrap();
        let a = client.request(&TripRequest::us25_at(0.0)).unwrap();
        let b = client.request(&TripRequest::us25_at(0.0)).unwrap();
        assert_eq!(a, b);
        let (served, hits) = client.stats().unwrap();
        assert_eq!(served, 2);
        assert_eq!(hits, 1);
        server.shutdown();
    }

    #[test]
    fn invalid_trip_returns_error_frame() {
        let server = CloudServer::spawn(1).unwrap();
        let mut client = CloudClient::connect(server.addr()).unwrap();
        let mut trip = TripRequest::us25_at(0.0);
        trip.rates.pop(); // arity mismatch
        let err = client.request(&trip).unwrap_err();
        assert!(err.to_string().contains("rates"), "{err}");
        // The connection survives an error response.
        assert!(client.request(&TripRequest::us25_at(0.0)).is_ok());
        server.shutdown();
    }

    #[test]
    fn concurrent_vehicles_are_served() {
        let server = CloudServer::spawn(4).unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..6)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut client = CloudClient::connect(addr).unwrap();
                    // Distinct departures, so several are real optimizations.
                    let trip = TripRequest::us25_at((i % 3) as f64 * 60.0);
                    client.request(&trip).unwrap()
                })
            })
            .collect();
        for h in handles {
            let profile = h.join().expect("vehicle thread panicked");
            assert_eq!(profile.window_violations, 0);
        }
        assert_eq!(server.stats().served(), 6);
        // Concurrent identical requests single-flight, but a follower is
        // not a cache hit, so no lower bound on hits holds on the first
        // wave — a second wave of the same trips must hit every time.
        let hits_before = server.stats().cache_hits();
        let mut client = CloudClient::connect(addr).unwrap();
        for i in 0..3 {
            client
                .request(&TripRequest::us25_at(i as f64 * 60.0))
                .unwrap();
        }
        assert_eq!(server.stats().cache_hits(), hits_before + 3);
        server.shutdown();
    }

    /// A queue-aware trip on a seeded template corridor.
    fn corridor_trip(seed: u64, length: (f64, f64), max_grade_percent: f64) -> TripRequest {
        let template = velopt_road::CorridorTemplate {
            length,
            max_grade_percent,
            ..velopt_road::CorridorTemplate::default()
        };
        let road = template.generate(seed).unwrap();
        let rates =
            vec![velopt_common::units::VehiclesPerHour::new(900.0); road.traffic_lights().len()];
        TripRequest {
            road,
            rates,
            ..TripRequest::us25_at(40.0)
        }
    }

    fn plan_bits(p: &OptimizedProfile) -> Vec<u64> {
        let mut bits: Vec<u64> = p.stations.iter().map(|s| s.value().to_bits()).collect();
        bits.extend(p.speeds.iter().map(|v| v.value().to_bits()));
        bits.extend(p.times.iter().map(|t| t.value().to_bits()));
        bits.extend([
            p.total_energy.value().to_bits(),
            p.trip_time.value().to_bits(),
            p.window_violations as u64,
        ]);
        bits
    }

    /// Interleaved trips on corridors of different lengths and grades: the
    /// one pooled arena of a single-worker server changes shape between
    /// solves, yet every served plan equals a cold in-process
    /// `optimize_from` down to the bit, and the batch answers match.
    #[test]
    fn batch_round_trip_matches_single_requests() {
        let server = CloudServer::spawn(1).unwrap();
        let mut client = CloudClient::connect(server.addr()).unwrap();
        let trips = [
            TripRequest::us25_at(0.0),
            corridor_trip(5, (600.0, 900.0), 0.0),
            TripRequest::us25_at(60.0),
            corridor_trip(6, (3000.0, 4000.0), 4.0),
            TripRequest::us25_at(120.0),
        ];
        let singles: Vec<_> = trips.iter().map(|t| client.request(t).unwrap()).collect();
        let cold = crate::planner::corridor_optimizer().unwrap();
        for (trip, single) in trips.iter().zip(&singles) {
            let signals = velopt_core::windows::queue_aware_constraints(
                &trip.road,
                &trip.rates,
                trip.queue,
                cold.config().horizon,
            )
            .unwrap();
            let start = velopt_core::dp::StartState {
                time: trip.departure,
                ..Default::default()
            };
            let reference = cold.optimize_from(&trip.road, &signals, start).unwrap();
            assert_eq!(plan_bits(single), plan_bits(&reference));
        }
        let batched = client.plan_batch(&trips).unwrap();
        assert_eq!(batched.len(), trips.len());
        for (single, result) in singles.iter().zip(&batched) {
            assert_eq!(plan_bits(result.as_ref().unwrap()), plan_bits(single));
        }
        // Profiles over the wire carry their solver metrics.
        assert!(batched[0].as_ref().unwrap().metrics.states_expanded > 0);
        // The singles warmed the cache; the whole batch hit it.
        let (served, hits) = client.stats().unwrap();
        assert_eq!(served, 10);
        assert_eq!(hits, 5);
        assert_eq!(server.stats().batches(), 1);
        server.shutdown();
    }

    #[test]
    fn batch_with_bad_member_still_plans_the_rest() {
        let server = CloudServer::spawn(1).unwrap();
        let mut client = CloudClient::connect(server.addr()).unwrap();
        let mut bad = TripRequest::us25_at(30.0);
        bad.rates.pop();
        let trips = [TripRequest::us25_at(0.0), bad, TripRequest::us25_at(60.0)];
        let results = client.plan_batch(&trips).unwrap();
        assert!(results[0].is_ok());
        assert!(results[1].as_ref().unwrap_err().contains("rates"));
        assert!(results[2].is_ok());
        // The connection survives and keeps serving.
        assert!(client.request(&TripRequest::us25_at(0.0)).is_ok());
        server.shutdown();
    }

    #[test]
    fn empty_batch_is_answered() {
        let server = CloudServer::spawn(1).unwrap();
        let mut client = CloudClient::connect(server.addr()).unwrap();
        assert!(client.plan_batch(&[]).unwrap().is_empty());
        server.shutdown();
    }

    #[test]
    fn predict_batch_round_trips_over_the_wire() {
        use crate::protocol::{PredictBatchRequest, PredictQuery};
        use velopt_traffic::VolumeGenerator;
        let server = CloudServer::spawn(2).unwrap();
        let mut client = CloudClient::connect(server.addr()).unwrap();
        let feed = VolumeGenerator::us25_station(21).generate_weeks(2).unwrap();
        let lags = 12;
        let request = PredictBatchRequest {
            station_seed: 21,
            train_weeks: 2,
            horizons: 4,
            queries: vec![
                PredictQuery {
                    history: feed.samples()[..lags].to_vec(),
                    hour_index: lags as u64,
                },
                PredictQuery {
                    history: feed.samples()[feed.len() - lags..].to_vec(),
                    hour_index: feed.len() as u64,
                },
            ],
        };
        let first = client.predict_batch(&request).unwrap();
        assert_eq!(first.len(), 2);
        assert!(first
            .iter()
            .all(|row| row.len() == 4 && row.iter().all(|v| v.is_finite() && *v >= 0.0)));
        // The second call must be answered by the cached predictor,
        // identically.
        let second = client.predict_batch(&request).unwrap();
        assert_eq!(second, first);
        assert_eq!(server.stats().predictor_cache(), (1, 1));
        assert_eq!(server.stats().predictions(), 16);
        assert_eq!(server.stats().frame_counts().predicts, 2);

        // A bad request comes back as an error frame and the connection
        // survives.
        let mut bad = request.clone();
        bad.queries[0].history.pop(); // ragged lag windows
        let err = client.predict_batch(&bad).unwrap_err();
        assert!(err.to_string().contains("history"), "{err}");
        assert!(client.predict_batch(&request).is_ok());
        server.shutdown();
    }

    #[test]
    fn frame_counts_track_the_request_mix() {
        let server = CloudServer::spawn(1).unwrap();
        let mut client = CloudClient::connect(server.addr()).unwrap();
        client.request(&TripRequest::us25_at(0.0)).unwrap();
        client.request(&TripRequest::us25_at(60.0)).unwrap();
        client.plan_batch(&[TripRequest::us25_at(0.0)]).unwrap();
        client.stats().unwrap();
        client.telemetry_json().unwrap();
        let counts = server.stats().frame_counts();
        assert_eq!(counts.trips, 2);
        assert_eq!(counts.batches, 1);
        assert_eq!(counts.stats, 1);
        assert_eq!(counts.telemetry, 1);
        assert_eq!(counts.unknown, 0);
        assert_eq!(server.stats().connections(), 1);
        assert_eq!(server.stats().error_responses(), 0);
        server.shutdown();
    }

    #[test]
    fn rejected_trips_count_as_error_responses() {
        let server = CloudServer::spawn(1).unwrap();
        let mut client = CloudClient::connect(server.addr()).unwrap();
        let mut trip = TripRequest::us25_at(0.0);
        trip.rates.pop();
        let _ = client.request(&trip).unwrap_err();
        assert_eq!(server.stats().error_responses(), 1);
        server.shutdown();
    }

    #[test]
    fn telemetry_snapshot_round_trips_over_the_wire() {
        let server = CloudServer::spawn(1).unwrap();
        let mut client = CloudClient::connect(server.addr()).unwrap();
        client.request(&TripRequest::us25_at(0.0)).unwrap();
        let json = client.telemetry_json().unwrap();
        // Whatever the build config, the payload must parse back into a
        // well-formed snapshot.
        let snapshot = telemetry::Snapshot::from_json(&json).unwrap();
        if cfg!(feature = "telemetry") {
            // Recording is live: this very connection was counted. Other
            // tests share the process-global registry, so only lower
            // bounds hold.
            assert!(snapshot.counter("cloud.connections").unwrap() >= 1);
            assert!(snapshot.counter("cloud.req.trip").unwrap() >= 1);
            let plan = snapshot.histogram("cloud.plan_seconds");
            assert!(plan.is_some_and(|h| h.count >= 1));
        } else {
            assert!(snapshot.is_empty());
        }
        server.shutdown();
    }

    fn demo_route_request(depart: f64) -> RouteNetRequest {
        use velopt_road::{CorridorTemplate, NodeId, RoadGraph};
        let template = CorridorTemplate {
            length: (200.0, 400.0),
            lights: (0, 1),
            phase: (15.0, 25.0),
            stop_sign_probability: 0.3,
            max_grade_percent: 0.0,
            limits_kmh: (30.0, 50.0),
        };
        let mut graph = RoadGraph::new(4).unwrap();
        let hops = [(0u32, 1u32), (1, 2), (2, 3), (0, 2), (1, 3)];
        for (i, &(from, to)) in hops.iter().enumerate() {
            graph
                .add_edge(
                    NodeId(from),
                    NodeId(to),
                    template.generate(i as u64 % 3).unwrap(),
                )
                .unwrap();
        }
        RouteNetRequest::from_graph(&graph, NodeId(0), NodeId(3), Seconds::new(depart))
    }

    #[test]
    fn route_round_trip_and_frame_cache() {
        let server = CloudServer::spawn(2).unwrap();
        let mut client = CloudClient::connect(server.addr()).unwrap();
        let request = demo_route_request(10.0);
        let first = client.route(&request).unwrap();
        assert!(!first.edges.is_empty());
        assert_eq!(first.depart, Seconds::new(10.0));
        assert!(first.arrival > first.depart);
        assert!(first.total_energy.value().is_finite());
        // The stitched profile starts at the origin at the departure time
        // and walks a monotone clock.
        assert!((first.times[0] - first.depart).abs().value() < 1e-9);
        assert!(first.times.windows(2).all(|w| w[1] >= w[0]));

        // The fresh search spent oracle calls and is visible in the
        // aggregate route counters.
        let fresh = server.stats().route_search();
        assert!(fresh.oracle_calls > 0);

        // The identical repeat query is a pure frame-cache hit.
        let second = client.route(&request).unwrap();
        assert_eq!(second, first);
        assert_eq!(server.stats().routes(), 2);
        assert_eq!(server.stats().route_cache_hits(), 1);
        assert_eq!(server.stats().route_search(), fresh);
        assert_eq!(server.stats().frame_counts().routes, 2);

        // A malformed query gets an error frame and the connection
        // survives.
        let mut bad = request.clone();
        bad.dest = bad.origin;
        let err = client.route(&bad).unwrap_err();
        assert!(err.to_string().contains("coincide"), "{err}");
        assert!(client.route(&request).is_ok());
        server.shutdown();
    }

    #[test]
    fn route_telemetry_reaches_the_operator() {
        let server = CloudServer::spawn(1).unwrap();
        let mut client = CloudClient::connect(server.addr()).unwrap();
        client.route(&demo_route_request(0.0)).unwrap();
        let json = client.telemetry_json().unwrap();
        let snapshot = telemetry::Snapshot::from_json(&json).unwrap();
        if cfg!(feature = "telemetry") {
            // The router publishes its own route.* work counters; the
            // server adds the frame-mix counter. Other tests share the
            // process-global registry, so only lower bounds hold.
            assert!(snapshot.counter("cloud.req.route").unwrap() >= 1);
            assert!(snapshot.counter("route.oracle_calls").unwrap() >= 1);
            assert!(snapshot.counter("route.states_settled").unwrap() >= 1);
            let span = snapshot.histogram("cloud.route_seconds");
            assert!(span.is_some_and(|h| h.count >= 1));
        } else {
            assert!(snapshot.is_empty());
        }
        server.shutdown();
    }

    #[test]
    fn baseline_requests_use_green_windows() {
        let server = CloudServer::spawn(1).unwrap();
        let mut client = CloudClient::connect(server.addr()).unwrap();
        let mut trip = TripRequest::us25_at(0.0);
        trip.queue_aware = false;
        let baseline = client.request(&trip).unwrap();
        let ours = client.request(&TripRequest::us25_at(0.0)).unwrap();
        assert_ne!(
            baseline, ours,
            "the two methods should differ under rush demand"
        );
        server.shutdown();
    }
}

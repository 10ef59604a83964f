//! Concurrent-load integration tests for the sharded reactor: many more
//! simultaneous connections than compute workers, mixed frame types,
//! deliberately fragmented writes, the connection ceiling, and wire-level
//! byte stability of every response path.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use velopt_cloud::protocol::{
    decode_profile, encode_profile, read_frame, tags, write_frame, BatchPlanRequest,
    BatchPlanResponse, PredictBatchRequest, PredictQuery, TripRequest,
};
use velopt_cloud::{CloudClient, CloudServer, ServerConfig};
use velopt_traffic::VolumeGenerator;

/// A complete wire frame for `payload` under `tag`.
fn frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, tag, payload).unwrap();
    out
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream
}

/// One raw request/response round trip on `stream`.
fn round_trip(stream: &mut TcpStream, tag: u8, payload: &[u8]) -> (u8, Vec<u8>) {
    stream.write_all(&frame(tag, payload)).unwrap();
    let (tag, payload) = read_frame(stream).unwrap().expect("connection open");
    (tag, payload.to_vec())
}

/// One raw round trip on a fresh connection.
fn fetch_raw(addr: std::net::SocketAddr, tag: u8, payload: &[u8]) -> (u8, Vec<u8>) {
    let mut stream = connect(addr);
    round_trip(&mut stream, tag, payload)
}

fn wait_until(what: &str, deadline: Duration, mut done: impl FnMut() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(start.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn sample_predict_request(seed: u64) -> PredictBatchRequest {
    let feed = VolumeGenerator::us25_station(seed)
        .generate_weeks(2)
        .unwrap();
    let lags = 12;
    PredictBatchRequest {
        station_seed: seed,
        train_weeks: 2,
        horizons: 3,
        queries: vec![PredictQuery {
            history: feed.samples()[..lags].to_vec(),
            hour_index: lags as u64,
        }],
    }
}

/// The acceptance scenario: 128 simultaneous clients against 4 compute
/// workers, mixed trip / predict / telemetry traffic, a quarter of the
/// clients dribbling their request bytes a few at a time. Every client
/// must get its answer, and every plan must be bit-identical to the
/// single-client wire bytes for the same trip.
#[test]
fn concurrent_mixed_load_served_completely() {
    const CLIENTS: usize = 128;
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: 4,
        shards: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // Warm the plan and predictor caches through one ordinary client, so
    // the concurrent wave measures serving concurrency rather than
    // queueing 128 DP solves behind 4 workers.
    let departures = [0.0, 60.0, 120.0, 180.0];
    let predict = sample_predict_request(11);
    let mut warm = CloudClient::connect(addr).unwrap();
    for &d in &departures {
        warm.request(&TripRequest::us25_at(d)).unwrap();
    }
    warm.predict_batch(&predict).unwrap();
    drop(warm);

    // Single-client reference bytes for every trip and for the forecast.
    let trip_reference: Arc<Vec<(u8, Vec<u8>)>> = Arc::new(
        departures
            .iter()
            .map(|&d| fetch_raw(addr, tags::REQ_TRIP, &TripRequest::us25_at(d).encode()))
            .collect(),
    );
    let predict_reference = Arc::new(fetch_raw(addr, tags::REQ_PREDICT_BATCH, &predict.encode()));
    assert_eq!(trip_reference[0].0, tags::RESP_PROFILE);
    assert_eq!(predict_reference.0, tags::RESP_PREDICT_BATCH);

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            let trip_reference = Arc::clone(&trip_reference);
            let predict_reference = Arc::clone(&predict_reference);
            let predict = predict.clone();
            std::thread::spawn(move || {
                let mut stream = connect(addr);
                barrier.wait();
                match i % 4 {
                    // Ordinary single-write trip request.
                    0 => {
                        let dep = (i / 4) % 4;
                        let payload = TripRequest::us25_at(dep as f64 * 60.0).encode();
                        let response = round_trip(&mut stream, tags::REQ_TRIP, &payload);
                        assert_eq!(response, trip_reference[dep], "client {i} plan differs");
                    }
                    // Volume forecast against the warmed predictor.
                    1 => {
                        let response =
                            round_trip(&mut stream, tags::REQ_PREDICT_BATCH, &predict.encode());
                        assert_eq!(response, *predict_reference, "client {i} forecast differs");
                    }
                    // Telemetry snapshot.
                    2 => {
                        let (tag, payload) = round_trip(&mut stream, tags::REQ_TELEMETRY, &[]);
                        assert_eq!(tag, tags::RESP_TELEMETRY);
                        let json = String::from_utf8(payload).unwrap();
                        assert!(json.starts_with('{'), "client {i}: {json}");
                    }
                    // Trip request dribbled a few bytes at a time, forcing
                    // the shard to assemble the frame across many partial
                    // reads interleaved with other connections.
                    _ => {
                        let dep = (i / 4) % 4;
                        let payload = TripRequest::us25_at(dep as f64 * 60.0).encode();
                        let bytes = frame(tags::REQ_TRIP, &payload);
                        for chunk in bytes.chunks(3) {
                            stream.write_all(chunk).unwrap();
                            std::thread::yield_now();
                        }
                        let (tag, payload) = read_frame(&mut stream).unwrap().expect("open");
                        assert_eq!((tag, payload.to_vec()), trip_reference[dep]);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread panicked");
    }

    let stats = server.stats();
    // 4 warm solves, then 4 reference + 64 client trips all from the cache.
    assert_eq!(stats.served(), 72);
    assert_eq!(stats.cache_hits(), 68);
    assert_eq!(stats.plan_encode_skipped(), 68);
    // One SAE training, every later forecast a predictor-cache hit.
    assert_eq!(stats.predictor_cache(), (33, 1));
    // warm + 4 trip references + 1 predict reference + 128 clients.
    assert_eq!(stats.accepted(), 134);
    assert_eq!(stats.rejected(), 0);
    assert_eq!(stats.error_responses(), 0);
    let counts = stats.frame_counts();
    assert_eq!(counts.trips, 72);
    assert_eq!(counts.predicts, 34);
    assert_eq!(counts.telemetry, 32);
    assert_eq!(counts.unknown, 0);
    // Pooled responses (predict/telemetry/error paths) recycled buffers
    // once the per-shard pools warmed up.
    let (reuse, alloc) = stats.buffer_pool();
    assert!(reuse + alloc >= 66, "{reuse} reuses + {alloc} allocs");
    // Every client has hung up; the reactor notices and drains.
    wait_until("connections to drain", Duration::from_secs(30), || {
        stats.active_connections() == 0
    });
    server.shutdown();
}

#[test]
fn connection_ceiling_refuses_with_error_frame() {
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: 1,
        shards: 1,
        max_connections: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let mut a = CloudClient::connect(addr).unwrap();
    let mut b = CloudClient::connect(addr).unwrap();
    a.stats().unwrap();
    b.stats().unwrap();

    // The third connection is refused with an explanatory error frame and
    // closed — not silently wedged.
    let mut third = connect(addr);
    let (tag, payload) = read_frame(&mut third).unwrap().expect("refusal frame");
    assert_eq!(tag, tags::RESP_ERROR);
    assert!(
        String::from_utf8_lossy(&payload).contains("capacity"),
        "unexpected refusal message"
    );
    assert!(
        read_frame(&mut third).unwrap().is_none(),
        "refused connection must be closed"
    );
    assert_eq!(server.stats().accepted(), 2);
    assert_eq!(server.stats().rejected(), 1);
    assert_eq!(server.stats().active_connections(), 2);
    // Capacity refusals are not protocol errors.
    assert_eq!(server.stats().error_responses(), 0);

    // Hanging up frees the slot for the next vehicle.
    drop(a);
    wait_until("slot to free", Duration::from_secs(30), || {
        server.stats().active_connections() == 1
    });
    let mut c = CloudClient::connect(addr).unwrap();
    c.stats().unwrap();
    assert_eq!(server.stats().accepted(), 3);
    server.shutdown();
}

/// Wire-level byte stability: a cache hit serves the *same bytes* as the
/// miss that populated it, those bytes are the canonical profile encoding,
/// and every other response path keeps serving on the same connection.
#[test]
fn wire_responses_are_byte_stable() {
    let server = CloudServer::spawn(1).unwrap();
    let addr = server.addr();
    let mut stream = connect(addr);
    let trip = TripRequest::us25_at(0.0);

    let (tag, miss) = round_trip(&mut stream, tags::REQ_TRIP, &trip.encode());
    assert_eq!(tag, tags::RESP_PROFILE);
    let (tag, hit) = round_trip(&mut stream, tags::REQ_TRIP, &trip.encode());
    assert_eq!(tag, tags::RESP_PROFILE);
    assert_eq!(miss, hit, "cache hit must serve the miss's exact bytes");
    assert_eq!(server.stats().plan_encode_skipped(), 1);

    // The served payload is exactly `encode_profile` of the decoded plan —
    // the zero-copy path introduced no framing drift.
    let mut payload = bytes::Bytes::from(miss.clone());
    let profile = decode_profile(&mut payload).unwrap();
    let mut reencoded = bytes::BytesMut::new();
    encode_profile(&profile, &mut reencoded);
    assert_eq!(&miss[..], &reencoded[..]);

    // A batch answering from the same cache returns the same profile.
    let batch = BatchPlanRequest {
        trips: vec![trip.clone()],
    };
    let (tag, payload) = round_trip(&mut stream, tags::REQ_BATCH, &batch.encode());
    assert_eq!(tag, tags::RESP_BATCH);
    let mut payload = bytes::Bytes::from(payload);
    let response = BatchPlanResponse::decode(&mut payload).unwrap();
    assert_eq!(response.results[0].as_ref().unwrap(), &profile);

    // Stats frames carry the live counters, big-endian.
    let (tag, payload) = round_trip(&mut stream, tags::REQ_STATS, &[]);
    assert_eq!(tag, tags::RESP_STATS);
    assert_eq!(payload.len(), 16);
    let served = u64::from_be_bytes(payload[0..8].try_into().unwrap());
    assert_eq!(served, server.stats().served());

    // Unknown tags get an error frame; the connection survives it.
    let (tag, payload) = round_trip(&mut stream, 200, &[1, 2, 3]);
    assert_eq!(tag, tags::RESP_ERROR);
    assert!(String::from_utf8_lossy(&payload).contains("unknown request tag"));
    assert_eq!(server.stats().error_responses(), 1);
    let (tag, _) = round_trip(&mut stream, tags::REQ_TELEMETRY, &[]);
    assert_eq!(tag, tags::RESP_TELEMETRY);

    server.shutdown();
}

/// Several frames written back-to-back in one burst are all answered, in
/// order — the reactor's per-connection FIFO guarantee.
#[test]
fn pipelined_frames_answered_in_order() {
    let server = CloudServer::spawn(2).unwrap();
    let mut stream = connect(server.addr());
    let trips = [
        TripRequest::us25_at(0.0),
        TripRequest::us25_at(60.0),
        TripRequest::us25_at(0.0),
    ];
    let mut burst = Vec::new();
    for t in &trips {
        burst.extend_from_slice(&frame(tags::REQ_TRIP, &t.encode()));
    }
    burst.extend_from_slice(&frame(tags::REQ_STATS, &[]));
    stream.write_all(&burst).unwrap();

    let mut profiles = Vec::new();
    for _ in 0..3 {
        let (tag, mut payload) = read_frame(&mut stream).unwrap().expect("open");
        assert_eq!(tag, tags::RESP_PROFILE);
        profiles.push(decode_profile(&mut payload).unwrap());
    }
    assert_eq!(profiles[0], profiles[2], "same trip, same plan");
    assert_ne!(
        profiles[0], profiles[1],
        "different departure, different plan"
    );
    let (tag, payload) = read_frame(&mut stream).unwrap().expect("open");
    assert_eq!(tag, tags::RESP_STATS);
    // The stats frame was answered after all three plans.
    let served = u64::from_be_bytes(payload[0..8].try_into().unwrap());
    assert_eq!(served, 3);
    server.shutdown();
}

/// Shutting down with clients still connected shears them off cleanly:
/// they observe EOF, and the server's teardown joins without deadlock.
#[test]
fn shutdown_sheds_live_connections() {
    let server = CloudServer::spawn(1).unwrap();
    let mut stream = connect(server.addr());
    // Prove the connection is live first.
    let (tag, _) = round_trip(&mut stream, tags::REQ_STATS, &[]);
    assert_eq!(tag, tags::RESP_STATS);
    server.shutdown();
    assert!(
        read_frame(&mut stream).unwrap().is_none(),
        "client must see EOF after shutdown"
    );
}

/// The trust boundary refuses lattices the server cannot afford. Each of
/// these small payloads decodes and validates as a trip, yet an exact DP
/// over it would need ~1e11 states or more — an infinite corridor's
/// station grid never even ends. Each is answered with an error frame
/// naming the cause, before any planning, and the same connection's next
/// valid trip is planned.
#[test]
fn unaffordable_lattices_get_error_frames_and_the_connection_survives() {
    use velopt_common::units::{Meters, MetersPerSecond};
    let trip = |length: f64, upper: f64| {
        let road = velopt_road::RoadBuilder::new(Meters::new(length))
            .default_limits(MetersPerSecond::new(5.0), MetersPerSecond::new(upper))
            .build()
            .unwrap();
        TripRequest {
            road,
            rates: Vec::new(),
            ..TripRequest::us25_at(0.0)
        }
        .encode()
    };
    let server = CloudServer::spawn(1).unwrap();
    let mut stream = connect(server.addr());
    for (payload, cause) in [
        (trip(1e9, 20.0), "budget"),
        (trip(f64::INFINITY, 20.0), "not finite"),
        (trip(1000.0, 1e12), "speed grid"),
    ] {
        let (tag, message) = round_trip(&mut stream, tags::REQ_TRIP, &payload);
        assert_eq!(tag, tags::RESP_ERROR);
        let message = String::from_utf8_lossy(&message);
        assert!(message.contains(cause), "{message}");
    }
    assert_eq!(server.stats().error_responses(), 3);
    assert_eq!(server.stats().coalesce_flights(), 0, "nothing was planned");
    let (tag, _) = round_trip(
        &mut stream,
        tags::REQ_TRIP,
        &TripRequest::us25_at(0.0).encode(),
    );
    assert_eq!(tag, tags::RESP_PROFILE);
    server.shutdown();
}

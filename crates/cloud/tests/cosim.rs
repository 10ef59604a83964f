//! Co-simulation serving tests: the single-flight trip path under the
//! correlated load the fleet driver produces — a replan storm of one trip
//! (and of an invalid trip) answered by one solve, and the faults a storm
//! meets on the wire: waiters that hang up mid-solve, a peer that sends
//! half a frame, a reader too slow for its answers, a frame larger than
//! the reactor's reads, a peer that pipelines large frames, departures
//! past the planner's horizon, and departures the signal clock cannot
//! hold.
//!
//! This file is the `cargo test -p velopt-cloud --test cosim` CI gate.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use velopt_cloud::protocol::{
    decode_profile, read_frame, tags, write_frame, BatchPlanRequest, BatchPlanResponse,
    RouteNetRequest, TripRequest, MAX_BATCH_TRIPS,
};
use velopt_cloud::{CloudClient, CloudServer, ServerConfig};
use velopt_common::units::{Seconds, VehiclesPerHour};
use velopt_core::route::MAX_DEPARTURE_S;
use velopt_road::{CorridorTemplate, NetworkTemplate, NodeId};

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream
}

/// A complete wire frame for `payload` under `tag`.
fn frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, tag, payload).unwrap();
    out
}

/// Sends one frame without waiting for the response.
fn send(stream: &mut TcpStream, tag: u8, payload: &[u8]) {
    stream.write_all(&frame(tag, payload)).unwrap();
}

/// Reads the next response frame.
fn recv(stream: &mut TcpStream) -> (u8, Vec<u8>) {
    let (tag, payload) = read_frame(stream).unwrap().expect("connection open");
    (tag, payload.to_vec())
}

/// Sends one frame and waits for its response.
fn round_trip(stream: &mut TcpStream, tag: u8, payload: &[u8]) -> (u8, Vec<u8>) {
    send(stream, tag, payload);
    recv(stream)
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Whether a `RESP_PROFILE` payload plans a departure at `t`.
fn departs_at(payload: &[u8], t: f64) -> bool {
    let plan = decode_profile(&mut bytes::Bytes::copy_from_slice(payload)).unwrap();
    (plan.times[0].value() - t).abs() < 1e-9
}

/// The high-level client keeps its FIFO request/response discipline
/// through the single-flight desk, including across a repeated (cached)
/// request.
#[test]
fn cloud_client_round_trips_through_the_coalescer() {
    let server = CloudServer::spawn(1).unwrap();
    let mut client = CloudClient::connect(server.addr()).unwrap();
    let trip = TripRequest::us25_at(15.0);
    let first = client.request(&trip).unwrap();
    let second = client.request(&trip).unwrap();
    assert_eq!(first, second);
    let stats = server.stats();
    assert_eq!(stats.served(), 2);
    assert_eq!(stats.cache_hits(), 1);
    assert_eq!(stats.coalesce_flights(), 1);
    server.shutdown();
}

/// Runs one storm: `clients` connections each send `payload` once, all
/// writes released together by a barrier, and every response is returned.
fn storm(addr: SocketAddr, clients: usize, payload: &[u8]) -> Vec<(u8, Vec<u8>)> {
    let barrier = Arc::new(Barrier::new(clients));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let mut stream = connect(addr);
                    barrier.wait();
                    round_trip(&mut stream, tags::REQ_TRIP, payload)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Single-flight needs no coalescing window: a storm of identical trips
/// against a window-0 server runs exactly one DP solve. Every other
/// request either waited on that solve as a follower or, arriving after it
/// landed, hit the cache; all of them receive the leader's exact frame.
#[test]
fn window_zero_storm_is_single_flighted() {
    const VEHICLES: usize = 8;
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let frames = storm(
        server.addr(),
        VEHICLES,
        &TripRequest::us25_at(75.0).encode(),
    );
    for (tag, payload) in &frames {
        assert_eq!(*tag, tags::RESP_PROFILE);
        assert_eq!(
            payload, &frames[0].1,
            "every waiter gets the leader's frame"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.coalesce_flights(), 1, "exactly one fresh solve");
    assert_eq!(
        stats.coalesce_hits() + stats.cache_hits(),
        VEHICLES as u64 - 1
    );
    assert_eq!(stats.served(), VEHICLES as u64);
    let (expanded, _) = stats.solver_states();
    let mut bytes = bytes::Bytes::from(frames[0].1.clone());
    let plan = decode_profile(&mut bytes).unwrap();
    assert_eq!(expanded, plan.metrics.states_expanded, "one solve's work");
    server.shutdown();
}

/// A storm of one invalid trip: its leader fails validation and every
/// follower receives the same framed error; nothing is cached, no waiter
/// hangs, and the server then answers a valid trip.
#[test]
fn window_zero_storm_of_an_invalid_trip_fails_every_waiter() {
    const VEHICLES: usize = 6;
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut invalid = TripRequest::us25_at(75.0);
    invalid.rates.pop(); // arity mismatch
    let frames = storm(server.addr(), VEHICLES, &invalid.encode());
    for (tag, payload) in &frames {
        assert_eq!(*tag, tags::RESP_ERROR);
        assert!(
            String::from_utf8_lossy(payload).contains("rates"),
            "{}",
            String::from_utf8_lossy(payload)
        );
    }
    let stats = server.stats();
    assert_eq!(stats.error_responses(), VEHICLES as u64);
    assert_eq!(stats.served(), 0);
    assert_eq!(stats.cache_hits(), 0);
    assert_eq!(stats.coalesce_flights(), 0, "nothing reached the solver");

    let mut stream = connect(server.addr());
    let (tag, _) = round_trip(
        &mut stream,
        tags::REQ_TRIP,
        &TripRequest::us25_at(75.0).encode(),
    );
    assert_eq!(tag, tags::RESP_PROFILE);
    assert_eq!(server.stats().served(), 1);
    server.shutdown();
}

/// Faults during one solve: a storm of one uncached key in which half
/// the waiters hang up right after sending, the first sender (the likely
/// leader) among them, while another peer writes half a frame and hangs
/// up. Every waiter still connected gets the leader's exact frame, a
/// client that takes a freed slot mid-solve gets its own plan, the
/// connections drain, and the server serves a fresh trip and shuts down
/// cleanly.
#[test]
fn waiters_that_hang_up_mid_solve_leave_the_rest_served() {
    const VEHICLES: usize = 8;
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: 2,
        shards: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let stats = server.stats();
    let key = TripRequest::us25_at(105.0).encode();
    let mut storm: Vec<TcpStream> = (0..VEHICLES).map(|_| connect(addr)).collect();
    let mut half = connect(addr);
    wait_until("every connection admitted", || {
        stats.active_connections() == VEHICLES as u64 + 1
    });

    for stream in &mut storm {
        send(stream, tags::REQ_TRIP, &key);
    }
    let mut kept = storm.split_off(VEHICLES / 2);
    drop(storm);
    let partial = frame(tags::REQ_TRIP, &key);
    half.write_all(&partial[..partial.len() / 2]).unwrap();
    drop(half);

    // The half-frame peer's slot frees at once; the hung-up waiters' slots
    // free when their answers land. A new client takes a freed slot and
    // asks a different key.
    wait_until("a freed slot", || {
        stats.active_connections() <= VEHICLES as u64
    });
    let mut late = connect(addr);
    let (tag, own) = round_trip(
        &mut late,
        tags::REQ_TRIP,
        &TripRequest::us25_at(165.0).encode(),
    );
    assert_eq!(tag, tags::RESP_PROFILE);
    assert!(
        departs_at(&own, 165.0),
        "a stale frame reached a reused slot"
    );

    let frames: Vec<(u8, Vec<u8>)> = kept.iter_mut().map(recv).collect();
    for (tag, payload) in &frames {
        assert_eq!(*tag, tags::RESP_PROFILE);
        assert_eq!(
            payload, &frames[0].1,
            "every waiter gets the leader's frame"
        );
    }
    assert!(departs_at(&frames[0].1, 105.0));

    drop(kept);
    drop(late);
    wait_until("the connections to drain", || {
        stats.active_connections() == 0
    });
    // Every sender of the storm was answered, hung up or not, from one
    // solve; the half frame never became a request.
    assert_eq!(stats.served(), VEHICLES as u64 + 1);
    assert_eq!(stats.coalesce_flights(), 2);
    assert_eq!(
        stats.coalesce_hits() + stats.cache_hits(),
        VEHICLES as u64 - 1
    );
    assert_eq!(stats.frame_counts().trips, VEHICLES as u64 + 1);
    assert_eq!(stats.error_responses(), 0);

    let mut fresh = connect(addr);
    // A frame under the retired hello tag (12) gets the error any unknown
    // tag gets, and the connection survives it.
    let (tag, message) = round_trip(&mut fresh, 12, &[0, 0, 0, 7]);
    assert_eq!(tag, tags::RESP_ERROR);
    assert!(String::from_utf8_lossy(&message).contains("unknown request tag 12"));
    let (tag, payload) = round_trip(
        &mut fresh,
        tags::REQ_TRIP,
        &TripRequest::us25_at(225.0).encode(),
    );
    assert_eq!(tag, tags::RESP_PROFILE);
    assert!(departs_at(&payload, 225.0));
    assert_eq!(stats.coalesce_flights(), 3);
    drop(fresh);
    server.shutdown();
}

/// A slow reader: a writer thread pipelines far more cached trips than
/// the socket buffers and the connection's outbox (`MAX_OUTBOX_FRAMES`,
/// 64 frames) hold, while the reader waits. The server stops answering
/// that connection once its outbox is full, serves another client on the
/// same shard in the meantime, and the reader then gets every answer, in
/// order.
#[test]
fn a_slow_reader_is_held_at_its_outbox_and_then_answered_in_order() {
    // About 5 kB per US-25 plan frame: 2048 answers are ~10 MB, more than
    // a socket's send buffer (4 MB at most by default) plus a receive
    // window that cannot grow while nothing reads it.
    const TRIPS: usize = 2048;
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: 2,
        shards: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let stats = server.stats();
    let keys: Vec<Vec<u8>> = [0.0, 60.0, 120.0]
        .map(|d| TripRequest::us25_at(d).encode().to_vec())
        .to_vec();
    let mut warm = connect(addr);
    let answers: Vec<Vec<u8>> = keys
        .iter()
        .map(|key| {
            let (tag, payload) = round_trip(&mut warm, tags::REQ_TRIP, key);
            assert_eq!(tag, tags::RESP_PROFILE);
            payload
        })
        .collect();
    drop(warm);
    let served_before = stats.served();

    let mut reader = connect(addr);
    let mut writer_stream = reader.try_clone().unwrap();
    let pipelined: Vec<u8> = (0..TRIPS)
        .flat_map(|i| frame(tags::REQ_TRIP, &keys[i % keys.len()]))
        .collect();
    let writer = std::thread::spawn(move || writer_stream.write_all(&pipelined).unwrap());

    // While the reader waits, another client on the same shard is served a
    // fresh plan.
    let mut other = connect(addr);
    let (tag, payload) = round_trip(
        &mut other,
        tags::REQ_TRIP,
        &TripRequest::us25_at(180.0).encode(),
    );
    assert_eq!(tag, tags::RESP_PROFILE);
    assert!(departs_at(&payload, 180.0));
    drop(other);
    // Held at its outbox, the slow connection stops being answered well
    // short of its requests.
    std::thread::sleep(Duration::from_millis(500));
    let answered = stats.served() - served_before - 1;
    assert!(answered < TRIPS as u64, "{answered} answers left unheld");

    for i in 0..TRIPS {
        let (tag, payload) = recv(&mut reader);
        assert_eq!(tag, tags::RESP_PROFILE, "answer {i}");
        assert!(
            payload == answers[i % keys.len()],
            "answer {i} out of order"
        );
    }
    writer.join().unwrap();
    assert_eq!(stats.served(), served_before + 1 + TRIPS as u64);
    assert_eq!(stats.error_responses(), 0);
    drop(reader);
    server.shutdown();
}

/// A frame many reads long: a `REQ_BATCH` of identical trips, over
/// 256 KB, is read whole and answered from one solve within a bounded
/// wait, and its connection then serves a plain trip.
#[test]
fn a_batch_frame_over_256_kb_is_answered_and_its_connection_serves_on() {
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: 2,
        shards: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let stats = server.stats();
    // A 6 km corridor: 1024 US-25 trips would encode to ~218 KB.
    let road = CorridorTemplate {
        length: (6000.0, 6000.0),
        ..CorridorTemplate::default()
    }
    .generate(7)
    .unwrap();
    let trip = TripRequest {
        rates: vec![VehiclesPerHour::new(900.0); road.traffic_lights().len()],
        road,
        ..TripRequest::us25_at(45.0)
    };
    let batch = BatchPlanRequest {
        trips: vec![trip; MAX_BATCH_TRIPS],
    }
    .encode();
    assert!(batch.len() > 256 * 1024, "{} bytes", batch.len());

    let mut stream = connect(server.addr());
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let (tag, payload) = round_trip(&mut stream, tags::REQ_BATCH, &batch);
    assert_eq!(tag, tags::RESP_BATCH);
    let answers = BatchPlanResponse::decode(&mut bytes::Bytes::from(payload))
        .unwrap()
        .results;
    assert_eq!(answers.len(), MAX_BATCH_TRIPS);
    let first = answers[0].as_ref().unwrap();
    assert!(answers.iter().all(|a| a.as_ref() == Ok(first)));
    assert_eq!(stats.batches(), 1);
    assert_eq!(stats.coalesce_hits(), MAX_BATCH_TRIPS as u64 - 1);

    let (tag, payload) = round_trip(
        &mut stream,
        tags::REQ_TRIP,
        &TripRequest::us25_at(285.0).encode(),
    );
    assert_eq!(tag, tags::RESP_PROFILE);
    assert!(departs_at(&payload, 285.0));
    assert_eq!(stats.error_responses(), 0);
    drop(stream);
    server.shutdown();
}

/// A peer that pipelines large frames behind a slow one: 20 frames of
/// 4 MiB each, 80 MiB in all, wait behind a batch of distinct trips. The
/// reactor pauses the connection's reads once its parsed frames hold one
/// largest legal frame's worth (64 MiB) rather than 32 frames of it; the
/// writer then blocks until the queue drains, and every frame is answered,
/// in order. Each large frame carries an unknown tag of its own, so the
/// error naming it shows its place.
#[test]
fn large_frames_pipelined_past_the_byte_cap_are_answered_in_order() {
    const FRAMES: u8 = 20;
    const PAYLOAD: usize = 4 << 20;
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: 1,
        shards: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut reader = connect(server.addr());
    let mut writer_stream = reader.try_clone().unwrap();
    let slow = BatchPlanRequest {
        trips: (0..64)
            .map(|i| TripRequest::us25_at(f64::from(i)))
            .collect(),
    }
    .encode();
    let writer = std::thread::spawn(move || {
        send(&mut writer_stream, tags::REQ_BATCH, &slow);
        let mut large = frame(0, &vec![0u8; PAYLOAD]);
        for i in 0..FRAMES {
            large[4] = 100 + i;
            writer_stream.write_all(&large).unwrap();
        }
    });
    let (tag, _) = recv(&mut reader);
    assert_eq!(tag, tags::RESP_BATCH);
    for i in 0..FRAMES {
        let (tag, message) = recv(&mut reader);
        let message = String::from_utf8_lossy(&message);
        assert_eq!(tag, tags::RESP_ERROR, "{message}");
        assert_eq!(message, format!("unknown request tag {}", 100 + i));
    }
    writer.join().unwrap();
    drop(reader);
    server.shutdown();
}

/// A trip departing past the DP's 900 s horizon plans at its phase in its
/// arrival windows' period. Both US-25 lights run 30/30 s, so the period is
/// 60 s, and a trip at 3,630 s (as a `REQ_TRIP`) or at 930 s (in a
/// `REQ_BATCH`) makes the 30 s trip's plan, 3,600 s or 900 s later: the
/// same stations, speeds, energy and violations by `to_bits`, and its
/// times moved by the whole periods. At 3,000 veh/h a light's queue
/// outlives its green, its windows drift from cycle to cycle, and the trip
/// is refused with an error naming the light.
#[test]
fn late_trips_plan_at_their_phase_in_the_signal_period() {
    let server = CloudServer::spawn(1).unwrap();
    let mut client = CloudClient::connect(server.addr()).unwrap();
    let early = client.request(&TripRequest::us25_at(30.0)).unwrap();
    let jammed = |t: f64| TripRequest {
        rates: vec![VehiclesPerHour::new(3000.0); 2],
        ..TripRequest::us25_at(t)
    };
    let late = client.request(&TripRequest::us25_at(3630.0)).unwrap();
    let refused = client.request(&jammed(3630.0)).unwrap_err().to_string();
    let batched = client
        .plan_batch(&[TripRequest::us25_at(930.0), jammed(930.0)])
        .unwrap();
    let batch_refused = batched[1].as_ref().unwrap_err();
    for (plan, shift) in [(&late, 3600.0), (batched[0].as_ref().unwrap(), 900.0)] {
        let bits = |p: &velopt_core::dp::OptimizedProfile| {
            let mut bits: Vec<u64> = p.stations.iter().map(|s| s.value().to_bits()).collect();
            bits.extend(p.speeds.iter().map(|v| v.value().to_bits()));
            bits.push(p.total_energy.value().to_bits());
            bits.push(p.trip_time.value().to_bits());
            bits.push(p.window_violations as u64);
            bits
        };
        assert_eq!(bits(plan), bits(&early));
        assert_eq!(plan.times.len(), early.times.len());
        for (t, t0) in plan.times.iter().zip(&early.times) {
            assert!(
                (t.value() - (t0.value() + shift)).abs() < 1e-9,
                "{t} vs {t0}"
            );
        }
    }
    for message in [&refused, batch_refused] {
        assert!(message.contains("horizon"), "{message}");
        assert!(message.contains("light 0's queue outlives"), "{message}");
        assert!(message.contains("3000 veh/h"), "{message}");
    }
    assert_eq!(server.stats().error_responses(), 1);
    server.shutdown();
}

/// A NaN departure passes every `< 0` test: a trip with one was planned
/// (NaN arrival times, window violations), and a route with one was
/// planned as `t = 0`. Each is refused with a framed error naming the
/// cause, and the same connection then plans a normal trip.
#[test]
fn nan_departures_get_error_frames_and_the_connection_serves_on() {
    let server = CloudServer::spawn(1).unwrap();
    let graph = NetworkTemplate {
        rows: 1,
        cols: 2,
        ..NetworkTemplate::default()
    }
    .generate(5)
    .unwrap();
    let nan = Seconds::new(f64::NAN);
    let requests = [
        (tags::REQ_TRIP, TripRequest::us25_at(f64::NAN).encode()),
        (
            tags::REQ_ROUTE,
            RouteNetRequest::from_graph(&graph, NodeId(0), NodeId(1), nan).encode(),
        ),
    ];
    let mut stream = connect(server.addr());
    for (tag, payload) in requests {
        let (answer, message) = round_trip(&mut stream, tag, &payload);
        let message = String::from_utf8_lossy(&message);
        assert_eq!(answer, tags::RESP_ERROR, "request tag {tag}: {message}");
        assert!(message.contains("finite"), "{message}");
    }
    let (tag, payload) = round_trip(
        &mut stream,
        tags::REQ_TRIP,
        &TripRequest::us25_at(30.0).encode(),
    );
    assert_eq!(tag, tags::RESP_PROFILE);
    assert!(departs_at(&payload, 30.0));
    assert_eq!(server.stats().error_responses(), 2);
    server.shutdown();
}

/// A finite departure far out on the clock, where a signal cycle is a few
/// ulps, was planned against distorted windows (a route at 1e17 s paid a
/// window violation). It is refused with a framed error naming the bound,
/// and the same connection then plans a route departing just under it.
#[test]
fn far_future_route_departures_get_error_frames_and_the_connection_serves_on() {
    let server = CloudServer::spawn(1).unwrap();
    let graph = NetworkTemplate {
        rows: 2,
        cols: 2,
        ..NetworkTemplate::default()
    }
    .generate(5)
    .unwrap();
    let route = |depart: f64| {
        RouteNetRequest::from_graph(&graph, NodeId(0), NodeId(3), Seconds::new(depart)).encode()
    };
    let mut stream = connect(server.addr());
    for depart in [1e17, MAX_DEPARTURE_S] {
        let (answer, message) = round_trip(&mut stream, tags::REQ_ROUTE, &route(depart));
        let message = String::from_utf8_lossy(&message);
        assert_eq!(
            answer,
            tags::RESP_ERROR,
            "departing at {depart} s: {message}"
        );
        assert!(message.contains("MAX_DEPARTURE_S"), "{message}");
    }
    let (answer, _) = round_trip(&mut stream, tags::REQ_ROUTE, &route(MAX_DEPARTURE_S - 1.0));
    assert_eq!(answer, tags::RESP_ROUTE);
    assert_eq!(server.stats().error_responses(), 2);
    server.shutdown();
}

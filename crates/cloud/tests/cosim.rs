//! Co-simulation serving tests: the request-coalescing layer under the
//! correlated load the fleet driver produces — single-flight dedupe of a
//! replan storm with and without a coalescing window (and a storm of an
//! invalid trip), batch flushes on count and on timeout, per-tenant
//! admission fairness, tenant stats attribution, and bit-identity of
//! coalesced plans against a window-0 server.
//!
//! This file is the `cargo test -p velopt-cloud --test cosim` CI gate.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use velopt_cloud::protocol::{
    decode_hello, decode_profile, encode_hello, read_frame, tags, write_frame, TripRequest,
};
use velopt_cloud::{CloudClient, CloudServer, ServerConfig};

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream
}

/// Sends one frame without waiting for the response.
fn send(stream: &mut TcpStream, tag: u8, payload: &[u8]) {
    let mut out = Vec::new();
    write_frame(&mut out, tag, payload).unwrap();
    stream.write_all(&out).unwrap();
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

/// Opens a raw connection greeted as `tenant`.
fn connect_as(addr: SocketAddr, tenant: u32) -> TcpStream {
    let mut stream = connect(addr);
    let (tag, payload) = round_trip(&mut stream, tags::REQ_HELLO, &encode_hello(tenant));
    assert_eq!(tag, tags::RESP_HELLO);
    assert_eq!(decode_hello(&payload).unwrap(), tenant);
    stream
}

/// A replan storm: N vehicles upload the *same* trip in the same window.
/// Exactly one DP solve runs; every client receives bit-identical frames;
/// the coalesce counters are exact (not merely bounded).
#[test]
fn identical_storm_is_single_flighted() {
    const VEHICLES: usize = 8;
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: 2,
        coalesce_window: Duration::from_secs(30),
        batch_max: VEHICLES,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let trip = TripRequest::us25_at(90.0).encode();

    let barrier = Arc::new(Barrier::new(VEHICLES));
    let frames: Vec<(u8, Vec<u8>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..VEHICLES)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let trip = trip.clone();
                scope.spawn(move || {
                    let mut stream = connect(addr);
                    barrier.wait();
                    round_trip(&mut stream, tags::REQ_TRIP, &trip)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (tag, payload) in &frames {
        assert_eq!(*tag, tags::RESP_PROFILE);
        assert_eq!(
            payload, &frames[0].1,
            "coalesced waiters must share one encoding"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.served(), VEHICLES as u64);
    assert_eq!(stats.coalesce_hits(), VEHICLES as u64 - 1);
    assert_eq!(stats.coalesce_flights(), 1);
    assert_eq!(stats.batch_flushes(), 1);
    // Dedupe is not the cache: nothing was answered from a prior plan.
    assert_eq!(stats.cache_hits(), 0);
    // The one solve that ran reports its relax-kernel dispatch mix: every
    // row went through exactly one kernel flavor, whichever the host
    // selected, so the combined row count is positive.
    let (simd_rows, scalar_rows) = stats.dp_simd_rows();
    assert!(
        simd_rows + scalar_rows > 0,
        "a fresh solve must report its kernel dispatch mix"
    );
    // Stateless per-request serving never engages warm-start repair.
    assert_eq!(stats.dp_repair(), (0, 0));
    server.shutdown();
}

/// Reaching `batch_max` waiters flushes immediately — distinct trips in
/// one window become one `optimize_batch` call, long before the (here
/// deliberately enormous) collection window would expire.
#[test]
fn distinct_requests_batch_flush_on_count() {
    const TRIPS: usize = 3;
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: 2,
        coalesce_window: Duration::from_secs(600),
        batch_max: TRIPS,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let start = Instant::now();
    let barrier = Arc::new(Barrier::new(TRIPS));
    let payloads: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..TRIPS)
            .map(|i| {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let trip = TripRequest::us25_at(i as f64 * 60.0).encode();
                    let mut stream = connect(addr);
                    barrier.wait();
                    let (tag, payload) = round_trip(&mut stream, tags::REQ_TRIP, &trip);
                    assert_eq!(tag, tags::RESP_PROFILE);
                    payload
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        start.elapsed() < Duration::from_secs(120),
        "count-triggered flush must not wait out the window"
    );
    assert_ne!(payloads[0], payloads[1], "distinct trips, distinct plans");

    let stats = server.stats();
    assert_eq!(stats.coalesce_flights(), TRIPS as u64);
    assert_eq!(stats.coalesce_hits(), 0);
    assert_eq!(stats.batch_flushes(), 1);
    server.shutdown();
}

/// A window that never fills still flushes when `coalesce_window`
/// elapses, and never *before* it: the flusher thread owns the deadline.
#[test]
fn underfull_window_flushes_on_timeout() {
    let window = Duration::from_millis(80);
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: 1,
        coalesce_window: window,
        batch_max: 1000,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut stream = connect(server.addr());

    let start = Instant::now();
    let (tag, _) = round_trip(
        &mut stream,
        tags::REQ_TRIP,
        &TripRequest::us25_at(30.0).encode(),
    );
    assert_eq!(tag, tags::RESP_PROFILE);
    assert!(
        start.elapsed() >= window,
        "a lone waiter can only be released by the deadline, got {:?}",
        start.elapsed()
    );
    let stats = server.stats();
    assert_eq!(stats.batch_flushes(), 1);
    assert_eq!(stats.coalesce_flights(), 1);
    assert_eq!(stats.coalesce_hits(), 0);
    server.shutdown();
}

/// Per-tenant admission: a tenant that floods the window gets refused
/// beyond its in-flight ceiling while another tenant's request sails
/// through the same window — greed cannot starve a neighbour.
#[test]
fn greedy_tenant_cannot_starve_another() {
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: 1,
        coalesce_window: Duration::from_millis(400),
        batch_max: 1000,
        tenant_max_inflight: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let mut greedy_a = connect_as(addr, 1);
    let mut greedy_b = connect_as(addr, 1);
    let mut neighbour = connect_as(addr, 2);

    // The greedy tenant parks its one allowed waiter...
    send(
        &mut greedy_a,
        tags::REQ_TRIP,
        &TripRequest::us25_at(0.0).encode(),
    );
    std::thread::sleep(Duration::from_millis(100));
    // ...and its second, distinct request is refused immediately, inside
    // the still-open window.
    let refusal = Instant::now();
    send(
        &mut greedy_b,
        tags::REQ_TRIP,
        &TripRequest::us25_at(60.0).encode(),
    );
    let (tag, payload) = recv(&mut greedy_b);
    assert_eq!(tag, tags::RESP_ERROR);
    assert!(
        String::from_utf8_lossy(&payload).contains("admission limit"),
        "unexpected refusal: {}",
        String::from_utf8_lossy(&payload)
    );
    assert!(
        refusal.elapsed() < Duration::from_millis(300),
        "refusal must not wait for the flush"
    );
    // The other tenant is admitted into the very same window.
    send(
        &mut neighbour,
        tags::REQ_TRIP,
        &TripRequest::us25_at(120.0).encode(),
    );
    let (tag, _) = recv(&mut neighbour);
    assert_eq!(tag, tags::RESP_PROFILE);
    let (tag, _) = recv(&mut greedy_a);
    assert_eq!(tag, tags::RESP_PROFILE);

    let stats = server.stats();
    assert_eq!(stats.tenant_served(1), 1);
    assert_eq!(stats.tenant_rejected(1), 1);
    assert_eq!(stats.tenant_served(2), 1);
    assert_eq!(stats.tenant_rejected(2), 0);

    // The flush released tenant 1's admission slot: it may plan again.
    let (tag, _) = round_trip(
        &mut greedy_b,
        tags::REQ_TRIP,
        &TripRequest::us25_at(60.0).encode(),
    );
    assert_eq!(tag, tags::RESP_PROFILE);
    assert_eq!(server.stats().tenant_served(1), 2);
    server.shutdown();
}

/// Tenant stats attribution regression: when one coalesced solve fans out
/// to waiters of *different* tenants, each response lands in its own
/// tenant's served bucket — and a later plan-cache hit is attributed to
/// the requesting tenant, not the one whose miss populated the cache.
#[test]
fn coalesced_fanout_attributes_stats_per_tenant() {
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: 2,
        coalesce_window: Duration::from_secs(30),
        batch_max: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let trip = TripRequest::us25_at(150.0).encode();

    let barrier = Arc::new(Barrier::new(2));
    let frames: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = [7u32, 9]
            .into_iter()
            .map(|tenant| {
                let barrier = Arc::clone(&barrier);
                let trip = trip.clone();
                scope.spawn(move || {
                    let mut stream = connect_as(addr, tenant);
                    barrier.wait();
                    let (tag, payload) = round_trip(&mut stream, tags::REQ_TRIP, &trip);
                    assert_eq!(tag, tags::RESP_PROFILE);
                    payload
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(frames[0], frames[1]);

    let stats = server.stats();
    assert_eq!(stats.coalesce_hits(), 1);
    assert_eq!(stats.coalesce_flights(), 1);
    assert_eq!(stats.tenant_served(7), 1);
    assert_eq!(stats.tenant_served(9), 1);
    assert_eq!(
        stats.tenant_served(0),
        0,
        "no leak into the anonymous bucket"
    );

    // Tenant 9 re-requests the now-cached trip: the hit is credited to
    // tenant 9 alone.
    let mut stream = connect_as(addr, 9);
    let (tag, payload) = round_trip(&mut stream, tags::REQ_TRIP, &trip);
    assert_eq!(tag, tags::RESP_PROFILE);
    assert_eq!(payload, frames[0]);
    let stats = server.stats();
    assert_eq!(stats.cache_hits(), 1);
    assert_eq!(stats.tenant_served(9), 2);
    assert_eq!(stats.tenant_served(7), 1);
    server.shutdown();
}

/// Acceptance: coalesced serving is bit-identical to uncoalesced serving
/// — same wire bytes, and the decoded profiles match down to
/// `f64::to_bits` on every sample.
#[test]
fn coalesced_plans_are_bit_identical_to_uncoalesced() {
    let trips: Vec<Vec<u8>> = [0.0, 45.0, 90.0]
        .iter()
        .map(|&d| TripRequest::us25_at(d).encode().to_vec())
        .collect();

    // Reference: a server with coalescing off (the default config).
    let reference_server = CloudServer::spawn(1).unwrap();
    let mut stream = connect(reference_server.addr());
    let reference: Vec<Vec<u8>> = trips
        .iter()
        .map(|t| {
            let (tag, payload) = round_trip(&mut stream, tags::REQ_TRIP, t);
            assert_eq!(tag, tags::RESP_PROFILE);
            payload
        })
        .collect();
    reference_server.shutdown();

    // Candidate: the same trips as one coalesced storm, three waiters per
    // trip.
    const WAITERS_PER_TRIP: usize = 3;
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: 2,
        coalesce_window: Duration::from_secs(30),
        batch_max: WAITERS_PER_TRIP * 3,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let barrier = Arc::new(Barrier::new(WAITERS_PER_TRIP * trips.len()));
    let coalesced: Vec<(usize, Vec<u8>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WAITERS_PER_TRIP * trips.len())
            .map(|i| {
                let barrier = Arc::clone(&barrier);
                let trip_idx = i % trips.len();
                let trip = trips[trip_idx].clone();
                scope.spawn(move || {
                    let mut stream = connect(addr);
                    barrier.wait();
                    let (tag, payload) = round_trip(&mut stream, tags::REQ_TRIP, &trip);
                    assert_eq!(tag, tags::RESP_PROFILE);
                    (trip_idx, payload)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // The wire frame carries solver metrics (timings, memo hits) that
    // legitimately differ between batch and single solving, so the
    // comparison is on the decoded *plan*: every station, speed, time,
    // and energy value must match down to the exact bit pattern.
    for (trip_idx, payload) in &coalesced {
        let mut bytes = bytes::Bytes::from(payload.clone());
        let candidate = decode_profile(&mut bytes).unwrap();
        let mut bytes = bytes::Bytes::from(reference[*trip_idx].clone());
        let expected = decode_profile(&mut bytes).unwrap();
        assert_eq!(candidate, expected, "plan differs for trip {trip_idx}");
        assert_eq!(candidate.stations.len(), expected.stations.len());
        for i in 0..candidate.stations.len() {
            assert_eq!(
                candidate.stations[i].value().to_bits(),
                expected.stations[i].value().to_bits()
            );
            assert_eq!(
                candidate.speeds[i].value().to_bits(),
                expected.speeds[i].value().to_bits()
            );
            assert_eq!(
                candidate.times[i].value().to_bits(),
                expected.times[i].value().to_bits()
            );
        }
        assert_eq!(
            candidate.total_energy.value().to_bits(),
            expected.total_energy.value().to_bits()
        );
        assert_eq!(
            candidate.trip_time.value().to_bits(),
            expected.trip_time.value().to_bits()
        );
        assert_eq!(candidate.window_violations, expected.window_violations);
    }
    let stats = server.stats();
    assert_eq!(stats.coalesce_flights(), trips.len() as u64);
    assert_eq!(
        stats.coalesce_hits(),
        (WAITERS_PER_TRIP as u64 - 1) * trips.len() as u64
    );
    server.shutdown();
}

/// Coalescing composes with the high-level client: a `CloudClient` that
/// greeted a tenant keeps its FIFO request/response discipline through
/// the coalescer, including across repeated (cached) requests.
#[test]
fn cloud_client_round_trips_through_the_coalescer() {
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: 1,
        coalesce_window: Duration::from_millis(20),
        batch_max: 64,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = CloudClient::connect(server.addr()).unwrap();
    client.hello(4).unwrap();
    let trip = TripRequest::us25_at(15.0);
    let first = client.request(&trip).unwrap();
    let second = client.request(&trip).unwrap();
    assert_eq!(first, second);
    let stats = server.stats();
    assert_eq!(stats.served(), 2);
    assert_eq!(stats.cache_hits(), 1);
    assert_eq!(stats.tenant_served(4), 2);
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
    assert_eq!(stats.batch_flushes(), 0, "no window, no batching");
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

//! Property-based tests for the vehicular-cloud wire format.

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;
use velopt_cloud::protocol::{
    decode_profile, encode_profile, read_frame, write_frame, BatchPlanRequest, BatchPlanResponse,
    PredictBatchRequest, PredictBatchResponse, PredictQuery, RouteNetRequest, RouteNetResponse,
    TripRequest, MAX_BATCH_TRIPS, MAX_PREDICT_HORIZONS, MAX_ROUTE_EDGES,
};
use velopt_common::units::{AmpereHours, Meters, MetersPerSecond, Seconds, VehiclesPerHour};
use velopt_common::Result;
use velopt_core::dp::OptimizedProfile;
use velopt_core::metrics::SolverMetrics;
use velopt_queue::QueueParams;
use velopt_road::CorridorTemplate;

/// Any `f64` bit pattern, NaNs and infinities included: the codec carries
/// raw bits, so nothing about the value may matter.
fn any_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

fn metrics_strategy() -> impl Strategy<Value = SolverMetrics> {
    let counters = || any::<u64>();
    (
        (
            counters(),
            counters(),
            any_f64(),
            any_f64(),
            any_f64(),
            counters(),
            counters(),
            counters(),
        ),
        (
            counters(),
            counters(),
            counters(),
            counters(),
            counters(),
            counters(),
            counters(),
            counters(),
        ),
    )
        .prop_map(|((se, sp, setup, relax, back, reuse, alloc, mh), rest)| {
            let (mm, ev, rows, simd, scalar, rh, rf, rl) = rest;
            SolverMetrics {
                states_expanded: se,
                states_pruned: sp,
                setup_seconds: setup,
                relax_seconds: relax,
                backtrack_seconds: back,
                arena_reuse_hits: reuse,
                arena_allocations: alloc,
                memo_hits: mh,
                memo_misses: mm,
                energy_evals: ev,
                rows_skipped: rows,
                simd_rows: simd,
                scalar_rows: scalar,
                repair_hits: rh,
                repair_full_resolves: rf,
                repair_layers_skipped: rl,
            }
        })
}

fn profile_strategy() -> impl Strategy<Value = OptimizedProfile> {
    (
        prop::collection::vec((any_f64(), any_f64(), any_f64()), 1..48),
        any_f64(),
        any_f64(),
        any::<u32>(),
        metrics_strategy(),
    )
        .prop_map(
            |(points, energy, trip, violations, metrics)| OptimizedProfile {
                stations: points.iter().map(|p| Meters::new(p.0)).collect(),
                speeds: points.iter().map(|p| MetersPerSecond::new(p.1)).collect(),
                times: points.iter().map(|p| Seconds::new(p.2)).collect(),
                total_energy: AmpereHours::new(energy),
                trip_time: Seconds::new(trip),
                window_violations: violations as usize,
                metrics,
            },
        )
}

/// Batch answers: profiles mixed with error entries (non-ASCII included,
/// since error text travels as UTF-8).
fn batch_strategy() -> impl Strategy<Value = BatchPlanResponse> {
    let entry = prop_oneof![
        profile_strategy().prop_map(Ok::<OptimizedProfile, String>),
        "[ -~À-ÿ]{0,40}".prop_map(Err::<OptimizedProfile, String>),
    ];
    prop::collection::vec(entry, 0..6).prop_map(|results| BatchPlanResponse { results })
}

/// One random valid value of each frame beside trips, profiles and batch
/// responses: a trip batch, a route query and answer, and a forecast batch
/// and answer.
#[derive(Debug, Clone)]
struct Frames {
    batch_request: BatchPlanRequest,
    route_request: RouteNetRequest,
    route_response: RouteNetResponse,
    predict_request: PredictBatchRequest,
    predict_response: PredictBatchResponse,
}

/// A frame decoder under test: `true` when the payload decoded.
type Decoder = fn(&mut Bytes) -> bool;

const BATCH_REQUEST: Decoder = |b| BatchPlanRequest::decode(b).is_ok();
const ROUTE_REQUEST: Decoder = |b| RouteNetRequest::decode(b).is_ok();
const ROUTE_RESPONSE: Decoder = |b| RouteNetResponse::decode(b).is_ok();
const PREDICT_REQUEST: Decoder = |b| PredictBatchRequest::decode(b).is_ok();
const PREDICT_RESPONSE: Decoder = |b| PredictBatchResponse::decode(b).is_ok();

impl Frames {
    /// Each frame's payload with its decoder.
    fn payloads(&self) -> [(Bytes, Decoder); 5] {
        [
            (self.batch_request.encode(), BATCH_REQUEST),
            (self.route_request.encode(), ROUTE_REQUEST),
            (self.route_response.encode(), ROUTE_RESPONSE),
            (self.predict_request.encode(), PREDICT_REQUEST),
            (self.predict_response.encode(), PREDICT_RESPONSE),
        ]
    }
}

fn frames_strategy() -> impl Strategy<Value = Frames> {
    let trip = (any::<u64>(), any_f64(), any_f64(), any::<bool>());
    let batch_request = prop::collection::vec(trip, 0..3).prop_map(|trips| BatchPlanRequest {
        trips: trips
            .into_iter()
            .map(|(seed, departure, rate, queue_aware)| {
                let road = CorridorTemplate::default().generate(seed).unwrap();
                TripRequest {
                    rates: vec![VehiclesPerHour::new(rate); road.traffic_lights().len()],
                    road,
                    departure: Seconds::new(departure),
                    queue: QueueParams::us25_probe(),
                    queue_aware,
                }
            })
            .collect(),
    });
    let edge = (any::<u32>(), any::<u32>(), any::<u64>());
    let route_request = (
        (any::<u32>(), any::<u32>(), any::<u32>()),
        any_f64(),
        prop::collection::vec(edge, 0..3),
    )
        .prop_map(|((nodes, origin, dest), depart, edges)| RouteNetRequest {
            nodes,
            edges: edges
                .into_iter()
                .map(|(from, to, seed)| {
                    let road = CorridorTemplate::default().generate(seed).unwrap();
                    (from, to, road)
                })
                .collect(),
            origin,
            dest,
            depart: Seconds::new(depart),
        });
    let route_response = (
        prop::collection::vec(any::<u32>(), 1..8),
        (any_f64(), any_f64(), any_f64(), any_f64()),
        any::<u32>(),
        prop::collection::vec((any_f64(), any_f64(), any_f64()), 1..24),
    )
        .prop_map(
            |(edges, (cost, energy, depart, arrival), violations, points)| RouteNetResponse {
                edges,
                cost,
                total_energy: AmpereHours::new(energy),
                depart: Seconds::new(depart),
                arrival: Seconds::new(arrival),
                window_violations: violations,
                stations: points.iter().map(|p| Meters::new(p.0)).collect(),
                speeds: points.iter().map(|p| MetersPerSecond::new(p.1)).collect(),
                times: points.iter().map(|p| Seconds::new(p.2)).collect(),
            },
        );
    // Every query of a batch carries the same lag count.
    let queries = (
        1usize..9,
        prop::collection::vec((any::<u64>(), prop::collection::vec(any_f64(), 8..9)), 0..5),
    )
        .prop_map(|(lags, queries)| {
            queries
                .into_iter()
                .map(|(hour_index, history)| PredictQuery {
                    history: history[..lags].to_vec(),
                    hour_index,
                })
                .collect()
        });
    let predict_request = (
        (any::<u64>(), 1u32..53, 0..=MAX_PREDICT_HORIZONS as u32),
        queries,
    )
        .prop_map(
            |((station_seed, train_weeks, horizons), queries)| PredictBatchRequest {
                station_seed,
                train_weeks,
                horizons,
                queries,
            },
        );
    let predict_response =
        (0usize..7, prop::collection::vec(any_f64(), 0..30)).prop_map(|(horizons, values)| {
            PredictBatchResponse {
                volumes: values
                    .chunks_exact(horizons.max(1))
                    .map(|row| row[..horizons].to_vec())
                    .collect(),
            }
        });
    (
        batch_request,
        route_request,
        route_response,
        predict_request,
        predict_response,
    )
        .prop_map(
            |(batch_request, route_request, route_response, predict_request, predict_response)| {
                Frames {
                    batch_request,
                    route_request,
                    route_response,
                    predict_request,
                    predict_response,
                }
            },
        )
}

/// Whether `value` survives encode → decode with the payload fully consumed
/// and re-encodes to the same bytes, so every field kept its bits.
fn round_trips<T>(value: &T, encode: fn(&T) -> Bytes, decode: fn(&mut Bytes) -> Result<T>) -> bool {
    let payload = encode(value);
    let mut rest = payload.clone();
    decode(&mut rest).is_ok_and(|back| rest.is_empty() && encode(&back) == payload)
}

/// Every field of a profile as raw bits. The metrics are destructured
/// without `..`, so a new `SolverMetrics` field fails to compile here until
/// the round-trip checks it too.
fn profile_bits(p: &OptimizedProfile) -> Vec<u64> {
    let SolverMetrics {
        states_expanded,
        states_pruned,
        setup_seconds,
        relax_seconds,
        backtrack_seconds,
        arena_reuse_hits,
        arena_allocations,
        memo_hits,
        memo_misses,
        energy_evals,
        rows_skipped,
        simd_rows,
        scalar_rows,
        repair_hits,
        repair_full_resolves,
        repair_layers_skipped,
    } = p.metrics;
    let mut bits = vec![
        p.stations.len() as u64,
        p.speeds.len() as u64,
        p.times.len() as u64,
    ];
    for i in 0..p.stations.len() {
        bits.push(p.stations[i].value().to_bits());
        bits.push(p.speeds[i].value().to_bits());
        bits.push(p.times[i].value().to_bits());
    }
    bits.extend([
        p.total_energy.value().to_bits(),
        p.trip_time.value().to_bits(),
        p.window_violations as u64,
        states_expanded,
        states_pruned,
        setup_seconds.to_bits(),
        relax_seconds.to_bits(),
        backtrack_seconds.to_bits(),
        arena_reuse_hits,
        arena_allocations,
        memo_hits,
        memo_misses,
        energy_evals,
        rows_skipped,
        simd_rows,
        scalar_rows,
        repair_hits,
        repair_full_resolves,
        repair_layers_skipped,
    ]);
    bits
}

fn encoded_profile(p: &OptimizedProfile) -> Bytes {
    let mut buf = BytesMut::new();
    encode_profile(p, &mut buf);
    buf.freeze()
}

fn flip_bit(payload: &Bytes, bit: usize) -> Bytes {
    let mut raw = payload.to_vec();
    let bit = bit % (raw.len() * 8);
    raw[bit / 8] ^= 1 << (bit % 8);
    Bytes::from(raw)
}

proptest! {
    /// Requests over arbitrary generated corridors round-trip losslessly.
    #[test]
    fn trip_request_round_trip(
        seed in any::<u64>(),
        departure in 0.0f64..600.0,
        rate in 10.0f64..1500.0,
        queue_aware in any::<bool>(),
    ) {
        let road = CorridorTemplate::default().generate(seed).unwrap();
        let rates = vec![VehiclesPerHour::new(rate); road.traffic_lights().len()];
        let req = TripRequest {
            road,
            departure: Seconds::new(departure),
            rates,
            queue: QueueParams::us25_probe(),
            queue_aware,
        };
        let mut bytes = req.encode();
        let back = TripRequest::decode(&mut bytes).unwrap();
        prop_assert_eq!(back, req);
        prop_assert!(bytes.is_empty());
    }

    /// Arbitrary frames round-trip through the stream helpers.
    #[test]
    fn frame_round_trip(tag in any::<u8>(), payload in prop::collection::vec(any::<u8>(), 0..2048)) {
        let mut buf = Vec::new();
        write_frame(&mut buf, tag, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let (t, p) = read_frame(&mut cursor).unwrap().unwrap();
        prop_assert_eq!(t, tag);
        prop_assert_eq!(&p[..], &payload[..]);
        prop_assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    /// Garbage bytes never panic the request decoders (errors are fine).
    #[test]
    fn decoder_never_panics(garbage in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = TripRequest::decode(&mut Bytes::from(garbage.clone()));
        for decodes in [BATCH_REQUEST, ROUTE_REQUEST, PREDICT_REQUEST] {
            decodes(&mut Bytes::from(garbage.clone()));
        }
    }

    /// Truncating a valid request at any point yields an error, not a panic
    /// or a silently-wrong value.
    #[test]
    fn truncation_is_detected(cut_fraction in 0.01f64..0.99) {
        let req = TripRequest::us25_at(30.0);
        let encoded = req.encode();
        let cut = ((encoded.len() as f64) * cut_fraction) as usize;
        prop_assume!(cut < encoded.len());
        let mut truncated = encoded.slice(0..cut);
        prop_assert!(TripRequest::decode(&mut truncated).is_err());
    }

    /// Profile frames round-trip bit for bit — station count, every speed
    /// and time, and every `SolverMetrics` field — and the decoder consumes
    /// the whole payload.
    #[test]
    fn profile_frame_round_trips_bit_for_bit(profile in profile_strategy()) {
        let mut bytes = encoded_profile(&profile);
        let back = decode_profile(&mut bytes).unwrap();
        prop_assert_eq!(profile_bits(&back), profile_bits(&profile));
        prop_assert!(bytes.is_empty(), "{} bytes left over", bytes.len());
    }

    /// Batch responses carry profiles and error entries through unchanged,
    /// in order.
    #[test]
    fn batch_response_round_trips_profiles_and_errors(batch in batch_strategy()) {
        let mut bytes = batch.encode();
        let back = BatchPlanResponse::decode(&mut bytes).unwrap();
        prop_assert!(bytes.is_empty(), "{} bytes left over", bytes.len());
        prop_assert_eq!(back.results.len(), batch.results.len());
        for (got, want) in back.results.iter().zip(&batch.results) {
            match (got, want) {
                (Ok(got), Ok(want)) => prop_assert_eq!(profile_bits(got), profile_bits(want)),
                (Err(got), Err(want)) => prop_assert_eq!(got, want),
                _ => prop_assert!(false, "entry kind changed: {:?} vs {:?}", got, want),
            }
        }
    }

    /// Trip batches, route queries and answers, and forecast batches and
    /// answers round-trip bit for bit, each decoder consuming its whole
    /// payload.
    #[test]
    fn batch_route_and_predict_frames_round_trip(frames in frames_strategy()) {
        let f = &frames;
        prop_assert!(round_trips(&f.batch_request, BatchPlanRequest::encode, BatchPlanRequest::decode));
        prop_assert!(round_trips(&f.route_request, RouteNetRequest::encode, RouteNetRequest::decode));
        let back = RouteNetRequest::decode(&mut f.route_request.encode()).unwrap();
        prop_assert_eq!(&back.edges, &f.route_request.edges);
        prop_assert!(round_trips(&f.route_response, RouteNetResponse::encode, RouteNetResponse::decode));
        prop_assert!(round_trips(
            &f.predict_request,
            PredictBatchRequest::encode,
            PredictBatchRequest::decode
        ));
        prop_assert!(round_trips(
            &f.predict_response,
            PredictBatchResponse::encode,
            PredictBatchResponse::decode
        ));
    }

    /// Every strict prefix of a valid payload is an error: profiles, batch
    /// responses, trip batches, route queries and answers, forecast
    /// batches and answers. A trip batch or route query whose count outruns
    /// its bytes is refused before any trip or edge is reserved.
    #[test]
    fn every_strict_prefix_is_rejected(batch in batch_strategy(), frames in frames_strategy()) {
        const PROFILE: Decoder = |b| decode_profile(b).is_ok();
        const BATCH: Decoder = |b| BatchPlanResponse::decode(b).is_ok();
        let payloads = batch
            .results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|p| (encoded_profile(p), PROFILE))
            .chain([(batch.encode(), BATCH)])
            .chain(frames.payloads());
        for (payload, decodes) in payloads {
            for cut in 0..payload.len() {
                let decoded = decodes(&mut payload.slice(0..cut));
                prop_assert!(!decoded, "prefix of {} / {} bytes decoded", cut, payload.len());
            }
        }
        let mut inflated = frames.route_request.encode().to_vec();
        inflated[20..24].copy_from_slice(&(MAX_ROUTE_EDGES as u32).to_be_bytes());
        let err = RouteNetRequest::decode(&mut Bytes::from(inflated)).unwrap_err();
        prop_assert!(err.to_string().contains("implausible"), "{}", err);
        let mut inflated = frames.batch_request.encode().to_vec();
        inflated[..4].copy_from_slice(&(MAX_BATCH_TRIPS as u32).to_be_bytes());
        let err = BatchPlanRequest::decode(&mut Bytes::from(inflated)).unwrap_err();
        prop_assert!(err.to_string().contains("implausible"), "{}", err);
    }

    /// Random bytes never panic the response decoders.
    #[test]
    fn response_decoders_never_panic(garbage in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_profile(&mut Bytes::from(garbage.clone()));
        let _ = BatchPlanResponse::decode(&mut Bytes::from(garbage.clone()));
        for decodes in [ROUTE_RESPONSE, PREDICT_RESPONSE] {
            decodes(&mut Bytes::from(garbage.clone()));
        }
    }

    /// A single flipped bit anywhere in a valid payload never panics the
    /// decoder (it may decode to a different value or fail). Besides the
    /// responses, this covers the trip batch, route and forecast requests.
    #[test]
    fn bit_flipped_responses_never_panic(
        batch in batch_strategy(),
        frames in frames_strategy(),
        bit in any::<usize>(),
    ) {
        let encoded = batch.encode();
        let _ = BatchPlanResponse::decode(&mut flip_bit(&encoded, bit));
        for profile in batch.results.iter().filter_map(|r| r.as_ref().ok()) {
            let _ = decode_profile(&mut flip_bit(&encoded_profile(profile), bit));
        }
        for (payload, decodes) in frames.payloads() {
            decodes(&mut flip_bit(&payload, bit));
        }
    }
}

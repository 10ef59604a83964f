//! `plan_serve`: the plan service as an EV sees it. Closed-loop clients,
//! each on its own thread and `CloudClient` connection, send their next
//! `TripRequest` only when the previous reply arrives. Fresh DP solves
//! dominate the time and set the tail; repeats put the reactor, protocol
//! and plan cache under the median.

use crate::report::Report;
use crate::stats::{median, Latencies};
use crate::trace::Tracer;
use crate::{gen, Ctx};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};
use velopt_cloud::{CloudClient, CloudServer, ServerConfig, TripRequest};
use velopt_common::units::MetersPerSecond;
use velopt_common::Result;
use velopt_core::dp::{DpConfig, DpOptimizer, OptimizedProfile, StartState};
use velopt_core::windows::queue_aware_constraints;
use velopt_ev_energy::{EnergyModel, RegenPolicy, VehicleParams};

/// Set-ups per run; the median is reported. Set-up here is only a server
/// spawn and two connects, well under a millisecond of CPU, so it takes
/// more samples than the others.
const SETUPS: usize = 31;

/// One reply as a client saw it.
struct Reply {
    /// Request index in the stream.
    k: usize,
    trip: usize,
    first: bool,
    ms: f64,
    /// The plan, kept in full only for the request that sent its trip
    /// first; every repeat keeps a bit fingerprint of its plan.
    outcome: std::result::Result<(u64, Option<OptimizedProfile>), String>,
}

/// A bit-exact digest of everything `OptimizedProfile`'s equality compares
/// (the plan, not the solver metrics).
pub fn plan_fingerprint(p: &OptimizedProfile) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29);
    };
    for ((s, v), t) in p.stations.iter().zip(&p.speeds).zip(&p.times) {
        mix(s.value().to_bits());
        mix(v.value().to_bits());
        mix(t.value().to_bits());
    }
    mix(p.stations.len() as u64);
    mix(p.total_energy.value().to_bits());
    mix(p.trip_time.value().to_bits());
    mix(p.window_violations as u64);
    h
}

/// The optimizer the cloud builds for every trip: the Spark EV with 60%
/// regeneration above 1.5 m/s, default DP settings.
pub fn server_optimizer() -> Result<DpOptimizer> {
    let energy = EnergyModel::with_regen(
        VehicleParams::spark_ev(),
        RegenPolicy::Limited {
            efficiency: 0.6,
            cutoff: MetersPerSecond::new(1.5),
        },
    );
    DpOptimizer::new(energy, DpConfig::default())
}

/// The in-process reference plan of a trip: queue-aware windows, solved
/// from a start at the departure time. Returns the plan and the time spent
/// building windows and solving, in ms.
pub fn reference(
    optimizer: &DpOptimizer,
    trip: &TripRequest,
    tracer: &Tracer,
    group: u64,
) -> Result<(OptimizedProfile, f64, f64)> {
    let open = tracer.begin("queue.windows", group, None);
    let t0 = Instant::now();
    let windows = queue_aware_constraints(
        &trip.road,
        &trip.rates,
        trip.queue,
        optimizer.config().horizon,
    )?;
    let windows_ms = t0.elapsed().as_secs_f64() * 1e3;
    tracer.end(open);
    let open = tracer.begin("dp.optimize_from", group, None);
    let t0 = Instant::now();
    let plan = optimizer.optimize_from(
        &trip.road,
        &windows,
        StartState {
            time: trip.departure,
            ..StartState::default()
        },
    )?;
    let solve_ms = t0.elapsed().as_secs_f64() * 1e3;
    tracer.end(open);
    Ok((plan, windows_ms, solve_ms))
}

/// Compares a trip's served first answer with its reference plan.
pub fn check_against_reference(
    trip: usize,
    served: &OptimizedProfile,
    reference: &OptimizedProfile,
) -> std::result::Result<(), String> {
    if served == reference {
        Ok(())
    } else {
        Err(format!(
            "trip {trip}: served plan differs from the in-process reference \
             (energy {} vs {} Ah, trip {} vs {} s)",
            served.total_energy.value(),
            reference.total_energy.value(),
            served.trip_time.value(),
            reference.trip_time.value()
        ))
    }
}

pub fn run(ctx: &Ctx) -> Result<Report> {
    let mut report = Report::default();
    let tracer = &ctx.tracer;
    let clients = ctx.nproc.clamp(1, 2);
    let ((cloud, stream, mut conns), setup_s) = crate::set_up(SETUPS, || {
        let cloud = CloudServer::spawn_with(ServerConfig {
            compute_workers: ctx.nproc,
            ..ServerConfig::default()
        })?;
        let mut stream = gen::TripStream::new(ctx.seed);
        stream.request(0)?;
        let conns = (0..clients)
            .map(|_| CloudClient::connect(cloud.addr()))
            .collect::<Result<Vec<_>>>()?;
        Ok((cloud, Mutex::new(stream), conns))
    })?;
    report.setup_s = setup_s;

    let stats = cloud.stats();
    let (served0, hits0, errors0) = (stats.served(), stats.cache_hits(), stats.error_responses());
    let (reuse0, alloc0) = stats.buffer_pool();
    let next = AtomicUsize::new(0);
    let barrier = Barrier::new(clients + 1);
    let seconds = ctx.seconds;
    let (replies, start, loop_ns, cpu0) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|client| {
                let (next, barrier, stream) = (&next, &barrier, &stream);
                scope.spawn(move || -> std::result::Result<(Vec<Reply>, u64), String> {
                    let mut replies = Vec::with_capacity(4096);
                    barrier.wait();
                    let begun = Instant::now();
                    let deadline = begun + Duration::from_secs_f64(seconds);
                    while Instant::now() < deadline {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let (trip, first, request) = {
                            let mut s = stream.lock().expect("stream lock");
                            let t = s.request(k).map_err(|e| e.to_string())?;
                            (t, s.is_first(k), s.trips()[t].clone())
                        };
                        let open = tracer.begin("plan_serve.request", k as u64, None);
                        let t0 = Instant::now();
                        let outcome = client.request(&request);
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        tracer.end(open);
                        let outcome = outcome
                            .map(|p| (plan_fingerprint(&p), first.then_some(p)))
                            .map_err(|e| e.to_string());
                        replies.push(Reply {
                            k,
                            trip,
                            first,
                            ms,
                            outcome,
                        });
                    }
                    Ok((replies, begun.elapsed().as_nanos() as u64))
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let cpu0 = crate::cpu::process_ns();
        let mut all = Vec::new();
        let mut loop_ns = 0;
        for h in handles {
            match h.join().expect("client thread panicked") {
                Ok((r, ns)) => {
                    all.extend(r);
                    loop_ns += ns;
                }
                Err(e) => report.errors.push(e),
            }
        }
        (all, start, loop_ns, cpu0)
    });
    let wall = start.elapsed().as_secs_f64();
    let cpu_ns = (crate::cpu::process_ns() - cpu0) as f64;
    let stats = cloud.stats();
    let served = stats.served() - served0;
    let hits = stats.cache_hits() - hits0;
    let errors = stats.error_responses() - errors0;
    let (reuse1, alloc1) = stats.buffer_pool();
    drop(conns);
    cloud.shutdown();

    let mut lat = Latencies::with_capacity(replies.len());
    let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
    let mut completed = 0u64;
    for r in &replies {
        match &r.outcome {
            Ok(_) => {
                lat.record(r.ms);
                completed += 1;
                if r.first {
                    miss_ms.push(r.ms);
                } else {
                    hit_ms.push(r.ms);
                }
            }
            Err(e) => {
                lat.record_failure();
                report
                    .errors
                    .push(format!("request {} got no profile: {e}", r.k));
            }
        }
    }
    report.throughput_per_s = completed as f64 / wall;
    report.throughput_per_cpu_s = completed as f64 * 1e9 / cpu_ns;
    report.latencies(&lat, 0.99, "plan requests");

    // Every repeat must return its trip's first answer.
    let mut firsts: HashMap<usize, (usize, u64, &OptimizedProfile)> = HashMap::new();
    for r in &replies {
        if let Ok((fp, Some(plan))) = &r.outcome {
            firsts.insert(r.trip, (r.k, *fp, plan));
        }
    }
    let mut repeats_checked = 0;
    for r in &replies {
        if let (Ok((fp, None)), Some(&(_, first_fp, _))) = (&r.outcome, firsts.get(&r.trip)) {
            repeats_checked += 1;
            report.check(*fp == first_fp, || {
                format!(
                    "request {} for trip {} differs from the trip's first answer",
                    r.k, r.trip
                )
            });
        }
    }

    // Every distinct trip's first answer must equal the in-process
    // reference, solved one trip at a time after the timed window.
    let optimizer = server_optimizer()?;
    let stream = stream.into_inner().expect("stream lock");
    let trips = stream.trips();
    let mut order: Vec<_> = firsts.iter().map(|(&t, &(k, _, p))| (k, t, p)).collect();
    order.sort_by_key(|&(k, _, _)| k);
    let mut windows_ms = Vec::with_capacity(order.len());
    let mut solve_ms = Vec::with_capacity(order.len());
    let mut ref_ms: HashMap<usize, f64> = HashMap::new();
    let (mut mah, mut km) = (0.0, 0.0);
    for &(k, t, served_plan) in &order {
        let (plan, w_ms, s_ms) = reference(&optimizer, &trips[t], tracer, k as u64)?;
        if let Err(e) = check_against_reference(t, served_plan, &plan) {
            report.errors.push(e);
        }
        windows_ms.push(w_ms);
        solve_ms.push(s_ms);
        ref_ms.insert(t, w_ms + s_ms);
        mah += served_plan.total_energy.to_milliamp_hours();
        km += trips[t].road.length().value() / 1e3;
    }
    report.notes.push(format!(
        "{} requests from {clients} clients in {wall:.2} s: {} first sends (p50 {:.2} ms), \
         {} repeats (p50 {:.3} ms); {} distinct plans checked against references, \
         {repeats_checked} repeats against first answers",
        replies.len(),
        miss_ms.len(),
        median(&miss_ms),
        hit_ms.len(),
        median(&hit_ms),
        order.len()
    ));

    if tracer.enabled() {
        let spans = tracer.take();
        let first_metrics: Vec<_> = order.iter().map(|&(_, _, p)| p.metrics).collect();
        let per = |f: &dyn Fn(&velopt_core::SolverMetrics) -> u64| {
            first_metrics.iter().map(|m| f(m) as f64).sum::<f64>()
                / first_metrics.len().max(1) as f64
        };
        let phase = |f: &dyn Fn(&velopt_core::SolverMetrics) -> f64| {
            median(&first_metrics.iter().map(|m| f(m) * 1e3).collect::<Vec<_>>())
        };
        let overhead: Vec<f64> = replies
            .iter()
            .filter(|r| r.first && r.outcome.is_ok())
            .filter_map(|r| ref_ms.get(&r.trip).map(|m| r.ms - m))
            .collect();
        let r = &mut report;
        r.set("cloud.hit_ms", median(&hit_ms));
        r.set("cloud.miss_ms", median(&miss_ms));
        r.set("cloud.hit_ratio", hits as f64 / served.max(1) as f64);
        r.set(
            "cloud.duplicate_solves",
            (served - hits).saturating_sub(order.len() as u64) as f64,
        );
        r.set("cloud.errors", errors as f64);
        r.set("cloud.buf_reuse", (reuse1 - reuse0) as f64);
        r.set("cloud.buf_alloc", (alloc1 - alloc0) as f64);
        r.set("cloud.overhead_ms", median(&overhead));
        r.set("dp.solve_ms", median(&solve_ms));
        r.set("dp.setup_ms", phase(&|m| m.setup_seconds));
        r.set("dp.relax_ms", phase(&|m| m.relax_seconds));
        r.set("dp.backtrack_ms", phase(&|m| m.backtrack_seconds));
        r.set("dp.states_expanded", per(&|m| m.states_expanded));
        r.set("dp.states_pruned", per(&|m| m.states_pruned));
        r.set("dp.rows_skipped", per(&|m| m.rows_skipped));
        r.set("dp.energy_evals", per(&|m| m.energy_evals));
        r.set("dp.memo_hits", per(&|m| m.memo_hits));
        r.set("dp.memo_misses", per(&|m| m.memo_misses));
        r.set("dp.simd_rows", per(&|m| m.simd_rows));
        r.set("dp.scalar_rows", per(&|m| m.scalar_rows));
        r.set("queue.windows_us", median(&windows_ms) * 1e3);
        r.set("queue.windows_calls", windows_ms.len() as f64);
        r.set("energy.planned_mah_per_km", mah / km.max(1e-9));

        // Blocking path: each client's request loop. A first send's
        // latency holds its trip's windows and solve (measured in-process
        // on the same trip); everything else a request waits for is the
        // cloud tier: reactor, protocol, cache, queueing for a worker.
        let (mut dp_ns, mut queue_ns, mut request_ns) = (0.0, 0.0, 0.0);
        let w_of: HashMap<usize, (f64, f64)> = order
            .iter()
            .zip(windows_ms.iter().zip(&solve_ms))
            .map(|(&(_, t, _), (&w, &s))| (t, (w, s)))
            .collect();
        for reply in replies.iter().filter(|r| r.outcome.is_ok()) {
            request_ns += reply.ms * 1e6;
            if let (true, Some(&(w, s))) = (reply.first, w_of.get(&reply.trip)) {
                let solve = s.min(reply.ms);
                dp_ns += solve * 1e6;
                queue_ns += w.min(reply.ms - solve) * 1e6;
            }
        }
        let a = &mut r.attribution;
        a.total_ns = loop_ns as f64;
        a.add(
            "dp",
            dp_ns,
            "in-process optimize_from of each first-sent trip",
        );
        a.add(
            "queue",
            queue_ns,
            "in-process queue_aware_constraints of each first-sent trip",
        );
        a.add(
            "cloud",
            request_ns - dp_ns - queue_ns,
            "request latency minus dp and queue",
        );
        crate::save_spans(ctx, &spans);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use velopt_cloud::CloudServer;

    #[test]
    fn served_plans_match_references_and_a_perturbed_reference_fails() {
        let mut stream = gen::TripStream::new(21);
        let t = stream.request(0).unwrap();
        let trip = stream.trips()[t].clone();
        let cloud = CloudServer::spawn(1).unwrap();
        let mut client = CloudClient::connect(cloud.addr()).unwrap();
        let served = client.request(&trip).unwrap();
        let again = client.request(&trip).unwrap();
        drop(client);
        cloud.shutdown();
        assert_eq!(plan_fingerprint(&served), plan_fingerprint(&again));

        let tracer = Tracer::new(false);
        let (mut plan, _, _) = reference(&server_optimizer().unwrap(), &trip, &tracer, 0).unwrap();
        assert!(check_against_reference(t, &served, &plan).is_ok());
        let mid = plan.speeds.len() / 2;
        plan.speeds[mid] = MetersPerSecond::new(plan.speeds[mid].value() + 0.25);
        assert!(check_against_reference(t, &served, &plan).is_err());
        assert_ne!(plan_fingerprint(&served), plan_fingerprint(&plan));
    }
}

//! `ego_replan`: the paper's single-EV experiment plus its MPC extension.
//! Per trip, the SAE predictor forecasts the trip hour's arrival rate, a
//! `Replanner` over US-25 plans with it, and a seeded US-25 simulation runs
//! behind a TraCI server. Per tick the loop reads the ego over TraCI, asks
//! the replanner for a command and sends it; every 30 simulated seconds it
//! re-estimates the rate from the entrance loop and refreshes the windows.
//! This is the one workload that runs live-state re-solves and the repair
//! ladder.

use crate::backend::{TickMark, Traced};
use crate::report::Report;
use crate::stats::{median, Latencies};
use crate::trace::{self_times, Span, Tracer};
use crate::{gen, Ctx};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;
use velopt_common::rng::SplitMix64;
use velopt_common::units::{Meters, MetersPerSecond, Seconds, VehiclesPerHour};
use velopt_common::Result;
use velopt_core::dp::{DpOptimizer, OptimizedProfile, SignalConstraint, StartState};
use velopt_core::windows::queue_aware_constraints;
use velopt_core::VelocityOptimizationSystem;
use velopt_core::{ProfileMetrics, ReplanConfig, Replanner, SolverMetrics, SystemConfig};
use velopt_ev_energy::EnergyModel;
use velopt_microsim::{SimConfig, Simulation, StepMetrics};
use velopt_queue::QueueParams;
use velopt_road::Road;
use velopt_traci::{TraciClient, TraciServer};
use velopt_traffic::{
    HourlyVolume, SaePredictor, SaePredictorConfig, VolumeGenerator, HOURS_PER_WEEK,
};

/// Weeks of synthetic detector feed the predictor trains on; the week
/// after them is the one trips depart in.
const TRAIN_WEEKS: usize = 13;
/// Simulated seconds between window refreshes.
const REFRESH_S: f64 = 30.0;
/// Probability that a refresh or re-solve joins the checked sample (the
/// first of each kind always does).
const SAMPLE_P: f64 = 0.25;

/// Set-ups per run; the median is reported.
const SETUPS: usize = 3;
/// Ego spawn attempts, one tick apart, while the entrance is occupied.
const SPAWN_TRIES: usize = 600;

/// A refresh or re-solve kept for the from-scratch comparison.
struct Sampled {
    kind: &'static str,
    start: StartState,
    windows: Vec<SignalConstraint>,
    plan: OptimizedProfile,
}

/// Checks a sampled plan against a from-scratch solve from the same start
/// and windows; returns the solve time in ms.
fn check_sample(
    optimizer: &DpOptimizer,
    road: &Road,
    s: &Sampled,
) -> std::result::Result<f64, String> {
    let t0 = Instant::now();
    let fresh = optimizer
        .optimize_from(road, &s.windows, s.start)
        .map_err(|e| format!("{} reference solve failed: {e}", s.kind))?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if fresh == s.plan {
        Ok(ms)
    } else {
        Err(format!(
            "{} from x={} m, t={} s differs from a from-scratch solve",
            s.kind,
            s.start.position.value(),
            s.start.time.value()
        ))
    }
}

/// What the timed trips produced.
#[derive(Default)]
struct Acc {
    lat: Latencies,
    trips: u64,
    energy_mah: Vec<f64>,
    trip_s: Vec<f64>,
    predict_us: Vec<f64>,
    trace_ms: Vec<f64>,
    solve_ms: Vec<f64>,
    refresh_ms: Vec<f64>,
    windows_us: Vec<f64>,
    repair: SolverMetrics,
    /// Solver metrics of every plan the replanner produced.
    plans: Vec<SolverMetrics>,
    lanes: StepMetrics,
    samples: Vec<Sampled>,
}

struct Env<'a> {
    tracer: &'a Arc<Tracer>,
    predictor: &'a SaePredictor,
    feed: &'a HourlyVolume,
    energy: &'a EnergyModel,
    sample_rng: SplitMix64,
    tick: u64,
}

/// One TraCI client call, inside a `traci.call` span that server-side work
/// nests under.
fn call<T>(env: &Env, mark: &TickMark, tick: Option<u64>, f: impl FnOnce() -> T) -> T {
    let open = env.tracer.begin("traci.call", env.tick, tick);
    mark.set(env.tick, open.seq().or(tick));
    let out = f();
    env.tracer.end(open);
    out
}

fn ego_trip(env: &mut Env, trip: gen::EgoTrip, acc: &mut Acc, report: &mut Report) -> Result<()> {
    let tracer = Arc::clone(env.tracer);
    let trip_span = tracer.begin("ego.trip", env.tick, None);
    let parent = trip_span.seq();
    let global_hour = TRAIN_WEEKS * HOURS_PER_WEEK + trip.hour;
    let lags = env.predictor.lags();
    let history = &env.feed.samples()[global_hour - lags..global_hour];

    let mut system = VelocityOptimizationSystem::new(SystemConfig::us25())?;
    let open = tracer.begin("traffic.predict", env.tick, parent);
    let t0 = Instant::now();
    system.predict_rates(env.predictor, history, global_hour)?;
    acc.predict_us.push(t0.elapsed().as_secs_f64() * 1e6);
    tracer.end(open);
    let horizon = system.config().dp.horizon;
    let mut replanner = tracer.wrap("replan.init", env.tick, parent, || {
        Replanner::new(system, ReplanConfig::default())
    })?;
    acc.plans.push(replanner.plan().metrics);

    let road = Road::us25();
    let mark = Arc::new(TickMark::default());
    let open = tracer.begin("microsim.warm", env.tick, parent);
    let mut sim = Simulation::new(
        road.clone(),
        SimConfig {
            seed: trip.sim_seed,
            ..SimConfig::default()
        },
    )?;
    sim.set_arrival_rate(VehiclesPerHour::new(trip.entrance_rate));
    sim.add_entry_point(Meters::new(600.0), VehiclesPerHour::new(trip.side_rate))?;
    sim.add_detector(Meters::new(25.0))?;
    sim.run_until(Seconds::new(trip.depart))?;
    // Depart at the first tick the entrance is clear; the plan clock stays
    // anchored at the cycle boundary, so a late start is drift to recover.
    let mut spawned = sim.spawn_ego(MetersPerSecond::ZERO);
    for _ in 0..SPAWN_TRIES {
        if spawned.is_ok() {
            break;
        }
        sim.step();
        spawned = sim.spawn_ego(MetersPerSecond::ZERO);
    }
    let ego = spawned?.to_string();
    let lanes0 = sim.step_metrics();
    let server = TraciServer::spawn(Traced::new(
        sim,
        Arc::clone(&tracer),
        Arc::clone(&mark),
        Arc::new(AtomicU64::new(0)),
    ))?;
    let handle = server.simulation();
    let mut client = TraciClient::connect(server.addr())?;
    client.get_version()?;
    tracer.end(open);

    let mut crossings = 0u64;
    let mut next_refresh = REFRESH_S;
    loop {
        env.tick += 1;
        let tick_span = tracer.begin("ego.tick", env.tick, parent);
        let tick = tick_span.seq();
        let t0 = Instant::now();
        call(env, &mark, tick, || client.simulation_step(0.0))?;
        let Ok((x, _)) = call(env, &mark, tick, || client.vehicle_position(&ego)) else {
            // The ego has left the corridor: the trip is over.
            tracer.end(tick_span);
            break;
        };
        let v = call(env, &mark, tick, || client.vehicle_speed(&ego))?;
        let now = call(env, &mark, tick, || client.simulation_time())?;
        let count = call(env, &mark, tick, || client.induction_loop_count("loop0"))?;
        crossings += count.max(0) as u64;
        let t = now - trip.depart;
        if t > 2.0 * horizon.value() {
            tracer.end(tick_span);
            acc.lat.record_failure();
            report
                .errors
                .push(format!("trip at hour {} never ended", trip.hour));
            break;
        }

        if t >= next_refresh {
            next_refresh += REFRESH_S;
            let rate = (crossings as f64 * 3600.0 / t / 10.0).round() * 10.0;
            let rates = vec![VehiclesPerHour::new(rate.max(60.0)); road.traffic_lights().len()];
            let open = tracer.begin("queue.windows", env.tick, tick);
            let w0 = Instant::now();
            let windows =
                queue_aware_constraints(&road, &rates, QueueParams::us25_probe(), horizon)?;
            acc.windows_us.push(w0.elapsed().as_secs_f64() * 1e6);
            tracer.end(open);
            let old = replanner.plan();
            let start = StartState {
                position: old.stations[0],
                speed: old.speeds[0],
                time: old.times[0],
            };
            let keep = acc.refresh_ms.is_empty() || env.sample_rng.chance(SAMPLE_P);
            let kept_windows = keep.then(|| windows.clone());
            let open = tracer.begin("replan.refresh_windows", env.tick, tick);
            let r0 = Instant::now();
            let plan = replanner.refresh_windows(windows)?;
            acc.refresh_ms.push(r0.elapsed().as_secs_f64() * 1e3);
            tracer.end(open);
            let m = plan.metrics;
            acc.repair.repair_hits += m.repair_hits;
            acc.repair.repair_full_resolves += m.repair_full_resolves;
            acc.repair.repair_layers_skipped += m.repair_layers_skipped;
            acc.plans.push(m);
            if let Some(windows) = kept_windows {
                acc.samples.push(Sampled {
                    kind: "refresh",
                    start,
                    windows,
                    plan: plan.clone(),
                });
            }
        }

        let before = replanner.replans();
        let open = tracer.begin("replan.command", env.tick, tick);
        let c0 = Instant::now();
        let cmd = replanner.command(Meters::new(x), MetersPerSecond::new(v), Seconds::new(t))?;
        let command_ms = c0.elapsed().as_secs_f64() * 1e3;
        tracer.end(open);
        if replanner.replans() != before {
            acc.solve_ms.push(command_ms);
            acc.plans.push(replanner.plan().metrics);
            if acc.solve_ms.len() == 1 || env.sample_rng.chance(SAMPLE_P) {
                acc.samples.push(Sampled {
                    kind: "re-solve",
                    start: StartState {
                        position: Meters::new(x),
                        speed: MetersPerSecond::new(v),
                        time: Seconds::new(t),
                    },
                    windows: replanner.windows().to_vec(),
                    plan: replanner.plan().clone(),
                });
            }
        }
        call(env, &mark, tick, || {
            client.set_vehicle_speed(&ego, cmd.value().max(0.3))
        })?;
        acc.lat.record(t0.elapsed().as_secs_f64() * 1e3);
        tracer.end(tick_span);
    }
    client.close()?;
    server.join();

    let sim = handle.lock();
    let lanes1 = sim.inner.step_metrics();
    acc.lanes.simd_lanes += lanes1.simd_lanes - lanes0.simd_lanes;
    acc.lanes.scalar_lanes += lanes1.scalar_lanes - lanes0.scalar_lanes;
    acc.lanes.arena_grows += lanes1.arena_grows - lanes0.arena_grows;
    let finished = sim.inner.ego_finished_at();
    let open = tracer.begin("energy.trace", env.tick, parent);
    let e0 = Instant::now();
    let scored = ProfileMetrics::from_speed_series(
        "ego",
        &sim.inner.ego_speed_series()?,
        &road,
        env.energy,
    )?;
    acc.trace_ms.push(e0.elapsed().as_secs_f64() * 1e3);
    tracer.end(open);
    drop(sim);
    report.check(finished.is_some(), || {
        format!("ego of trip at hour {} never finished", trip.hour)
    });
    report.check(scored.trip_time < horizon, || {
        format!(
            "trip at hour {} took {} s, beyond the {} s horizon",
            trip.hour,
            scored.trip_time.value(),
            horizon.value()
        )
    });
    acc.energy_mah.push(scored.energy_mah());
    acc.trip_s.push(scored.trip_time.value());
    acc.trips += 1;
    tracer.end(trip_span);
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Report> {
    let mut report = Report::default();
    let ((feed, predictor, train_s, reference), setup_s) = crate::set_up(SETUPS, || {
        let feed = VolumeGenerator::us25_station(gen::stream(ctx.seed, 7).next_u64())
            .generate_weeks(TRAIN_WEEKS + 1)?;
        let (train, _) = feed.split_at_week(TRAIN_WEEKS)?;
        let t0 = Instant::now();
        let predictor = SaePredictor::train(&train, &SaePredictorConfig::default())?;
        let train_s = t0.elapsed().as_secs_f64();
        let reference = VelocityOptimizationSystem::new(SystemConfig::us25())?;
        Ok((feed, predictor, train_s, reference))
    })?;
    let energy = reference.energy_model();
    report.setup_s = setup_s;

    let mut env = Env {
        tracer: &ctx.tracer,
        predictor: &predictor,
        feed: &feed,
        energy: &energy,
        sample_rng: gen::stream(ctx.seed, 8),
        tick: 0,
    };
    let mut acc = Acc::default();
    let cpu0 = crate::cpu::process_ns();
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(ctx.seconds);
    for trip in gen::EgoTrips::new(ctx.seed) {
        if Instant::now() >= deadline {
            break;
        }
        ego_trip(&mut env, trip, &mut acc, &mut report)?;
    }
    let wall = start.elapsed().as_secs_f64();
    report.throughput_per_cpu_s =
        acc.lat.attempted() as f64 * 1e9 / (crate::cpu::process_ns() - cpu0) as f64;

    report.throughput_per_s = acc.lat.attempted() as f64 / wall;
    report.latencies(&acc.lat, 0.999, "ego ticks");

    let road = reference.config().road.clone();
    let mut ref_ms = Vec::with_capacity(acc.samples.len());
    for s in &acc.samples {
        match check_sample(reference.optimizer(), &road, s) {
            Ok(ms) => ref_ms.push(ms),
            Err(e) => report.errors.push(e),
        }
    }
    let refreshes = acc.refresh_ms.len();
    report.check(refreshes > 0 && !acc.solve_ms.is_empty(), || {
        format!(
            "{refreshes} refreshes and {} re-solves: both paths must run",
            acc.solve_ms.len()
        )
    });
    report.notes.push(format!(
        "{} trips, {} ticks in {wall:.2} s; {} re-solves (p50 {:.2} ms), {refreshes} refreshes \
         ({} repair hits); {} sampled plans equal from-scratch solves; \
         energy p50 {:.2} mAh, trip p50 {:.1} s",
        acc.trips,
        acc.lat.attempted(),
        acc.solve_ms.len(),
        median(&acc.solve_ms),
        acc.repair.repair_hits,
        ref_ms.len(),
        median(&acc.energy_mah),
        median(&acc.trip_s)
    ));

    if ctx.tracer.enabled() {
        let spans = ctx.tracer.take();
        publish_layers(&mut report, &acc, &spans, wall, train_s, &ref_ms);
        crate::save_spans(ctx, &spans);
    }
    Ok(report)
}

fn publish_layers(
    r: &mut Report,
    acc: &Acc,
    spans: &[Span],
    wall: f64,
    train_s: f64,
    ref_ms: &[f64],
) {
    let self_ns = self_times(spans);
    let sum_self = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self_ns[&s.seq] as f64)
            .sum()
    };
    let durs = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64)
            .collect()
    };
    let ticks = acc.lat.attempted().max(1) as f64;
    let calls = durs("traci.call");
    let steps = durs("microsim.step");
    let backend = durs("traci.backend");
    let step_ns: f64 = steps.iter().sum();
    let vehicle_steps = acc.lanes.simd_lanes + acc.lanes.scalar_lanes;

    // Transport per tick: the self time of the tick's TraCI calls.
    let mut per_tick: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.name == "traci.call") {
        *per_tick.entry(s.group).or_default() += self_ns[&s.seq] as f64 / 1e6;
    }
    let transport: Vec<f64> = per_tick.into_values().collect();
    let phases =
        |m: &SolverMetrics| (m.setup_seconds + m.relax_seconds + m.backtrack_seconds) * 1e9;
    let dp_ns: f64 = acc.plans.iter().map(phases).sum();
    let per = |f: &dyn Fn(&SolverMetrics) -> u64| {
        acc.plans.iter().map(|m| f(m) as f64).sum::<f64>() / acc.plans.len().max(1) as f64
    };
    let phase = |f: &dyn Fn(&SolverMetrics) -> f64| {
        median(&acc.plans.iter().map(|m| f(m) * 1e3).collect::<Vec<_>>())
    };
    let refreshes = acc.refresh_ms.len() as f64;

    r.set("traci.calls_per_tick", calls.len() as f64 / ticks);
    r.set("traci.call_us", median(&calls) / 1e3);
    r.set("traci.backend_us", median(&backend) / 1e3);
    r.set("traci.transport_ms_per_tick", median(&transport));
    r.set("microsim.step_ms", median(&steps) / 1e6);
    r.set(
        "microsim.ns_per_vehicle_step",
        step_ns / vehicle_steps.max(1) as f64,
    );
    r.set("microsim.vehicle_steps", vehicle_steps as f64);
    r.set("microsim.simd_lanes", acc.lanes.simd_lanes as f64);
    r.set("microsim.scalar_lanes", acc.lanes.scalar_lanes as f64);
    r.set("microsim.arena_grows", acc.lanes.arena_grows as f64);
    r.set("microsim.step_share", step_ns / (wall * 1e9));
    r.set("dp.solve_ms", median(ref_ms));
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
    r.set("replan.solve_ms", median(&acc.solve_ms));
    r.set("replan.refresh_ms", median(&acc.refresh_ms));
    r.set("replan.solves", acc.solve_ms.len() as f64);
    r.set("replan.refreshes", refreshes);
    r.set("replan.repair_hits", acc.repair.repair_hits as f64);
    r.set(
        "replan.repair_full_resolves",
        acc.repair.repair_full_resolves as f64,
    );
    r.set(
        "replan.repair_layers_skipped",
        acc.repair.repair_layers_skipped as f64,
    );
    r.set(
        "replan.repair_ratio",
        acc.repair.repair_hits as f64 / refreshes.max(1.0),
    );
    r.set("queue.windows_us", median(&acc.windows_us));
    r.set("queue.windows_calls", acc.windows_us.len() as f64);
    r.set("traffic.train_s", train_s);
    r.set("traffic.predict_us", median(&acc.predict_us));
    r.set("energy.trace_ms", median(&acc.trace_ms));
    r.set("energy.ego_mah_per_trip", median(&acc.energy_mah));
    r.set("energy.ego_trip_s", median(&acc.trip_s));

    let replan_self =
        sum_self("replan.command") + sum_self("replan.refresh_windows") + sum_self("replan.init");
    let dp_ns = dp_ns.min(replan_self);
    let a = &mut r.attribution;
    a.total_ns = wall * 1e9;
    a.add(
        "traci",
        sum_self("traci.call") + backend.iter().sum::<f64>(),
        "traci.call self time + traci.backend spans",
    );
    a.add(
        "microsim",
        step_ns + sum_self("microsim.warm"),
        "microsim.step spans + per-trip build and warm-up",
    );
    a.add(
        "dp",
        dp_ns,
        "SolverMetrics phase timers of every plan the replanner made",
    );
    a.add(
        "replan",
        replan_self - dp_ns,
        "replan.{init,command,refresh_windows} self time minus dp",
    );
    a.add("queue", sum_self("queue.windows"), "queue.windows spans");
    a.add(
        "traffic",
        sum_self("traffic.predict"),
        "traffic.predict spans",
    );
    a.add("energy", sum_self("energy.trace"), "energy.trace spans");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_refresh_check_fails_on_a_perturbed_plan() {
        let system = VelocityOptimizationSystem::new(SystemConfig::us25()).unwrap();
        let mut replanner = Replanner::new(system.clone(), ReplanConfig::default()).unwrap();
        let road = system.config().road.clone();
        let rates = vec![VehiclesPerHour::new(420.0); road.traffic_lights().len()];
        let windows = queue_aware_constraints(
            &road,
            &rates,
            QueueParams::us25_probe(),
            system.config().dp.horizon,
        )
        .unwrap();
        let origin = replanner.plan();
        let start = StartState {
            position: origin.stations[0],
            speed: origin.speeds[0],
            time: origin.times[0],
        };
        let plan = replanner.refresh_windows(windows.clone()).unwrap().clone();
        let mut sample = Sampled {
            kind: "refresh",
            start,
            windows,
            plan,
        };
        assert!(check_sample(system.optimizer(), &road, &sample).is_ok());
        let last = sample.plan.times.len() - 1;
        sample.plan.times[last] += Seconds::new(0.5);
        assert!(check_sample(system.optimizer(), &road, &sample).is_err());
    }
}

//! `fleet_loop`: the paper's loop at fleet scale. A seeded network of
//! short arterials sits behind a TraCI server beside an in-process cloud;
//! one `FleetDriver` closes the loop for every vehicle, one
//! `FleetDriver::step` per timed tick.
//!
//! The timed part is a sequence of episodes of [`EPISODE_TICKS`] steps,
//! each on a fresh seeded network, until the run's time is up.
//! `FleetDriver` sends the absolute simulation time as a plan's departure,
//! so once the simulation clock passes the planner's 900 s horizon every
//! plan fails; an episode ends at 612 simulated seconds.

use crate::backend::{TickMark, Traced};
use crate::report::Report;
use crate::stats::{median, Latencies};
use crate::trace::{self_times, Span};
use crate::{gen, Ctx};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use velopt_cloud::{CloudServer, ServerConfig, ServerStats};
use velopt_common::units::Seconds;
use velopt_common::Result;
use velopt_cosim::{CosimConfig, FleetDriver, FleetStats};
use velopt_microsim::{Network, SimConfig};
use velopt_traci::TraciServer;

/// Simulated seconds the network runs before the driver attaches, so the
/// chains are at steady occupancy.
const WARMUP_S: f64 = 300.0;
/// Driver ticks in set-up: every vehicle present at attach time gets its
/// first plan before timing starts.
const WARM_TICKS: usize = 120;
/// Timed ticks per episode (300 simulated seconds).
const EPISODE_TICKS: u64 = 3000;

/// Set-ups per run; the median is reported.
const SETUPS: usize = 3;

/// Counters diffed around each episode's timed ticks and summed.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    fleet: FleetStats,
    served: u64,
    hits: u64,
    errors: u64,
    accepted: u64,
    buf_reuse: u64,
    buf_alloc: u64,
    expanded: u64,
    pruned: u64,
    simd_rows: u64,
    scalar_rows: u64,
    vehicle_steps: u64,
    handoffs: u64,
    simd_lanes: u64,
    scalar_lanes: u64,
    arena_grows: u64,
}

impl Counters {
    fn read(driver: &FleetDriver, cloud: &ServerStats, net: &Network) -> Self {
        let (expanded, pruned) = cloud.solver_states();
        let (simd_rows, scalar_rows) = cloud.dp_simd_rows();
        let (buf_reuse, buf_alloc) = cloud.buffer_pool();
        let stats = net.stats();
        let lanes = net.step_metrics();
        Self {
            fleet: driver.stats(),
            served: cloud.served(),
            hits: cloud.cache_hits(),
            errors: cloud.error_responses(),
            accepted: cloud.accepted(),
            buf_reuse,
            buf_alloc,
            expanded,
            pruned,
            simd_rows,
            scalar_rows,
            vehicle_steps: stats.vehicles_stepped,
            handoffs: stats.handoffs,
            simd_lanes: lanes.simd_lanes,
            scalar_lanes: lanes.scalar_lanes,
            arena_grows: lanes.arena_grows,
        }
    }

    /// `self + (later - earlier)`, field by field.
    fn add_delta(&mut self, earlier: &Self, later: &Self) {
        macro_rules! acc {
            ($($f:ident).+) => {
                self.$($f).+ += later.$($f).+ - earlier.$($f).+;
            };
        }
        acc!(fleet.ticks);
        acc!(fleet.flips);
        acc!(fleet.replans);
        acc!(fleet.plans_ok);
        acc!(fleet.plan_failures);
        acc!(fleet.commands);
        acc!(served);
        acc!(hits);
        acc!(errors);
        acc!(accepted);
        acc!(buf_reuse);
        acc!(buf_alloc);
        acc!(expanded);
        acc!(pruned);
        acc!(simd_rows);
        acc!(scalar_rows);
        acc!(vehicle_steps);
        acc!(handoffs);
        acc!(simd_lanes);
        acc!(scalar_lanes);
        acc!(arena_grows);
    }
}

type Loop = (TraciServer<Traced<Network>>, CloudServer, FleetDriver);

/// Builds episode `k`'s loop: a fresh seeded network warmed to steady
/// occupancy behind a TraCI server, a cloud, and a driver that has planned
/// every vehicle present at attach time.
fn episode(ctx: &Ctx, k: u64, mark: &Arc<TickMark>, listed: &Arc<AtomicU64>) -> Result<Loop> {
    let seed = gen::stream(ctx.seed, 16 + k).next_u64();
    let (specs, roads) = gen::fleet_network(seed)?;
    let config = SimConfig {
        seed: gen::stream(seed, 5).next_u64(),
        ..SimConfig::default()
    };
    let mut net = Network::new(specs, 1, config)?;
    net.run_until(Seconds::new(WARMUP_S))?;
    let traci = TraciServer::spawn(Traced::new(
        net,
        Arc::clone(&ctx.tracer),
        Arc::clone(mark),
        Arc::clone(listed),
    ))?;
    let cloud = CloudServer::spawn_with(ServerConfig {
        compute_workers: ctx.nproc,
        ..ServerConfig::default()
    })?;
    let mut driver = FleetDriver::connect(
        traci.addr(),
        cloud.addr(),
        roads,
        CosimConfig {
            max_replans_per_tick: ctx.nproc,
            ..CosimConfig::default()
        },
    )?;
    driver.run(WARM_TICKS)?;
    Ok((traci, cloud, driver))
}

pub fn run(ctx: &Ctx) -> Result<Report> {
    let mut report = Report::default();
    let tracer = &ctx.tracer;
    let mark = Arc::new(TickMark::default());
    let listed = Arc::new(AtomicU64::new(0));
    let (mut next, setup_s) = crate::set_up(SETUPS, || episode(ctx, 0, &mark, &listed))?;
    report.setup_s = setup_s;

    let mut lat = Latencies::with_capacity(8192);
    let mut total = Counters::default();
    let (mut vehicle_ticks, mut steps, mut episodes) = (0u64, 0u64, 0u64);
    let (mut stepping_ns, mut cpu_ns) = (0u64, 0u64);
    // Ticks on which the cloud answered at least one plan (traced only).
    let mut cloud_ticks = HashSet::new();
    let mut spans: Vec<Span> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    loop {
        let (traci, cloud, mut driver) = next;
        let sim = traci.simulation();
        let before = Counters::read(&driver, cloud.stats(), &sim.lock().inner);
        let mut served_before = before.served;
        let first = steps;
        // Set-up spans are not part of the timed window.
        drop(tracer.take());
        let cpu0 = crate::cpu::process_ns();
        let start = Instant::now();
        while steps - first < EPISODE_TICKS && Instant::now() < deadline {
            steps += 1;
            let open = tracer.begin("fleet_loop.tick", steps, None);
            mark.set(steps, open.seq());
            let t0 = Instant::now();
            let outcome = driver.step();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            tracer.end(open);
            if let Err(e) = outcome {
                lat.record_failure();
                report.errors.push(format!("tick {steps} failed: {e}"));
                break;
            }
            lat.record(ms);
            vehicle_ticks += listed.load(Ordering::Relaxed);
            if tracer.enabled() {
                let served = cloud.stats().served();
                if served != served_before {
                    cloud_ticks.insert(steps);
                    served_before = served;
                }
            }
        }
        stepping_ns += start.elapsed().as_nanos() as u64;
        cpu_ns += crate::cpu::process_ns() - cpu0;
        spans.extend(tracer.take());
        let after = Counters::read(&driver, cloud.stats(), &sim.lock().inner);
        drop(sim);
        driver.close()?;
        cloud.shutdown();
        traci.join();

        let mut ep = Counters::default();
        ep.add_delta(&before, &after);
        total.add_delta(&before, &after);
        episodes += 1;
        let f = ep.fleet;
        report.check(f.ticks == steps - first, || {
            format!(
                "driver counted {} ticks for {} steps",
                f.ticks,
                steps - first
            )
        });
        report.check(f.plan_failures == 0, || {
            format!("episode {episodes}: {} plan failures", f.plan_failures)
        });
        report.check(f.plans_ok == f.replans && f.replans == ep.served, || {
            format!(
                "episode {episodes}: plans_ok {} / replans {} / served {} disagree",
                f.plans_ok, f.replans, ep.served
            )
        });
        report.check(f.commands <= f.plans_ok, || {
            format!("{} commands for {} plans", f.commands, f.plans_ok)
        });
        report.check(ep.errors == 0, || {
            format!("episode {episodes}: {} cloud error responses", ep.errors)
        });
        if Instant::now() >= deadline || !report.errors.is_empty() {
            break;
        }
        next = episode(ctx, episodes, &mark, &listed)?;
    }
    let fleet = total.fleet;
    report.check(fleet.flips > 0 && fleet.replans > 0, || {
        format!("no signal flips or replans in the timed ticks: {fleet:?}")
    });

    let wall = stepping_ns as f64 / 1e9;
    report.throughput_per_cpu_s = vehicle_ticks as f64 * 1e9 / cpu_ns as f64;
    report.throughput_per_s = vehicle_ticks as f64 / wall;
    report.latencies(&lat, 0.99, "ticks");
    report.notes.push(format!(
        "{steps} ticks in {episodes} episodes, {wall:.2} s stepping, {:.1} live vehicles per tick, {fleet:?}",
        vehicle_ticks as f64 / steps.max(1) as f64
    ));

    if tracer.enabled() {
        publish_layers(&mut report, &total, &spans, &cloud_ticks, steps, wall);
        crate::save_spans(ctx, &spans);
    }
    Ok(report)
}

fn publish_layers(
    report: &mut Report,
    total: &Counters,
    spans: &[Span],
    cloud_ticks: &HashSet<u64>,
    steps: u64,
    wall: f64,
) {
    let self_ns = self_times(spans);
    let step_spans: Vec<_> = spans.iter().filter(|s| s.name == "microsim.step").collect();
    let backend: Vec<_> = spans.iter().filter(|s| s.name == "traci.backend").collect();
    let step_ns: u64 = step_spans.iter().map(|s| s.dur()).sum();
    let backend_ns: u64 = backend.iter().map(|s| s.dur()).sum();
    let tick_self: Vec<(u64, f64)> = spans
        .iter()
        .filter(|s| s.name == "fleet_loop.tick")
        .map(|t| (t.group, self_ns[&t.seq] as f64))
        .collect();
    // Ticks without a plan answer are TraCI round trips and driver
    // bookkeeping only; the excess self time of a tick that planned is the
    // cloud round trip.
    let quiet: Vec<f64> = tick_self
        .iter()
        .filter(|(g, _)| !cloud_ticks.contains(g))
        .map(|&(_, ns)| ns)
        .collect();
    let quiet_ns = median(&quiet);
    let cloud_ns: f64 = tick_self
        .iter()
        .filter(|(g, _)| cloud_ticks.contains(g))
        .map(|&(_, ns)| (ns - quiet_ns).max(0.0))
        .sum();
    let self_total: f64 = tick_self.iter().map(|&(_, ns)| ns).sum();
    let a = &mut report.attribution;
    a.total_ns = wall * 1e9;
    a.add(
        "microsim",
        step_ns as f64,
        "microsim.step spans on the TraCI server",
    );
    a.add(
        "traci",
        backend_ns as f64 + self_total - cloud_ns,
        "traci.backend spans + tick self time of ticks without plans",
    );
    a.add(
        "cloud",
        cloud_ns,
        "tick self time beyond a quiet tick, on planning ticks",
    );

    let t = total;
    let misses = (t.served - t.hits).max(1) as f64;
    let step_ms: Vec<f64> = step_spans.iter().map(|s| s.dur_ms()).collect();
    let backend_us: Vec<f64> = backend.iter().map(|s| s.dur() as f64 / 1e3).collect();
    let self_ms: Vec<f64> = tick_self.iter().map(|&(_, ns)| ns / 1e6).collect();
    let r = report;
    r.set("cosim.flips", t.fleet.flips as f64);
    r.set("cosim.replans", t.fleet.replans as f64);
    r.set("cosim.plans_ok", t.fleet.plans_ok as f64);
    r.set("cosim.plan_failures", t.fleet.plan_failures as f64);
    r.set("cosim.commands", t.fleet.commands as f64);
    r.set("cosim.connects", t.accepted as f64);
    r.set(
        "traci.calls_per_tick",
        (step_spans.len() + backend.len()) as f64 / steps.max(1) as f64,
    );
    r.set("traci.backend_us", median(&backend_us));
    r.set("traci.transport_ms_per_tick", median(&self_ms));
    r.set("microsim.step_ms", median(&step_ms));
    r.set(
        "microsim.ns_per_vehicle_step",
        step_ns as f64 / t.vehicle_steps.max(1) as f64,
    );
    r.set("microsim.vehicle_steps", t.vehicle_steps as f64);
    r.set("microsim.handoffs", t.handoffs as f64);
    r.set("microsim.simd_lanes", t.simd_lanes as f64);
    r.set("microsim.scalar_lanes", t.scalar_lanes as f64);
    r.set("microsim.arena_grows", t.arena_grows as f64);
    r.set("microsim.step_share", step_ns as f64 / (wall * 1e9));
    r.set("cloud.hit_ratio", t.hits as f64 / t.served.max(1) as f64);
    r.set("cloud.errors", t.errors as f64);
    r.set("cloud.buf_reuse", t.buf_reuse as f64);
    r.set("cloud.buf_alloc", t.buf_alloc as f64);
    r.set("dp.states_expanded", t.expanded as f64 / misses);
    r.set("dp.states_pruned", t.pruned as f64 / misses);
    r.set("dp.simd_rows", t.simd_rows as f64 / misses);
    r.set("dp.scalar_rows", t.scalar_rows as f64 / misses);
    r.notes.push(format!(
        "traced: {} planning ticks of {steps}; quiet-tick self time {:.3} ms",
        cloud_ticks.len(),
        quiet_ns / 1e6
    ));
}

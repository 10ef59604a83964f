//! `network_sim`: the bare sharded simulator, one shard per core, stepped
//! in one-second rounds with no TraCI and no planning. The other workloads
//! spend under 1% of their time stepping, so this is the one that measures
//! the microsim and its kernels.

use crate::report::Report;
use crate::stats::{median, Latencies};
use crate::{gen, Ctx};
use std::time::Instant;
use velopt_common::units::Seconds;
use velopt_common::Result;
use velopt_microsim::{CorridorSpec, Network, SimConfig, StepMetrics};

/// Corridors in the network (two chains of four per core on two cores).
const CORRIDORS: usize = 32;
/// Simulated seconds of warm-up to steady occupancy.
const WARMUP_S: f64 = 900.0;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 3;
/// Timed rounds whose end state the one-shard replica must reproduce.
const PREFIX_ROUNDS: usize = 30;

fn build(ctx: &Ctx) -> Result<(Vec<CorridorSpec>, SimConfig)> {
    let specs = gen::sim_network(ctx.seed, CORRIDORS)?;
    let config = SimConfig {
        seed: gen::stream(ctx.seed, 6).next_u64(),
        straight_ratio: 0.97,
        ..SimConfig::default()
    };
    Ok((specs, config))
}

/// Re-simulates `specs` on one shard up to `until` and compares its state
/// hash with the sharded run's: the repository guarantees bit-identical
/// results at any shard count.
pub fn check_replica(
    specs: Vec<CorridorSpec>,
    config: SimConfig,
    until: Seconds,
    sharded_hash: u64,
) -> std::result::Result<(), String> {
    let mut replica = Network::new(specs, 1, config).map_err(|e| e.to_string())?;
    replica.run_until(until).map_err(|e| e.to_string())?;
    let hash = replica.state_hash();
    if hash == sharded_hash {
        Ok(())
    } else {
        Err(format!(
            "one-shard replica hash {hash:#018x} != sharded hash {sharded_hash:#018x} at t={}",
            until.value()
        ))
    }
}

pub fn run(ctx: &Ctx) -> Result<Report> {
    let mut report = Report::default();
    let tracer = &ctx.tracer;
    let ((specs, config, mut net), setup_s) = crate::set_up(SETUPS, || {
        let (specs, config) = build(ctx)?;
        let mut net = Network::new(specs.clone(), ctx.nproc, config)?;
        net.run_until(Seconds::new(WARMUP_S))?;
        Ok((specs, config, net))
    })?;
    report.setup_s = setup_s;

    let stats0 = net.stats();
    let metrics0 = net.step_metrics();
    let mut round_ms = Vec::with_capacity(8192);
    let mut rates = Vec::with_capacity(8192);
    let mut cpu_rates = Vec::with_capacity(8192);
    let mut prefix_hash = None;
    let mut stepped = stats0.vehicles_stepped;
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(ctx.seconds);
    while Instant::now() < deadline {
        let round = round_ms.len() as u64 + 1;
        let target = Seconds::new(WARMUP_S + round as f64);
        let open = tracer.begin("network_sim.round", round, None);
        let c0 = crate::cpu::process_ns();
        let t0 = Instant::now();
        net.run_until(target)?;
        let secs = t0.elapsed().as_secs_f64();
        let cpu_s = (crate::cpu::process_ns() - c0) as f64 / 1e9;
        tracer.end(open);
        let now = net.stats().vehicles_stepped;
        round_ms.push(secs * 1e3);
        rates.push((now - stepped) as f64 / secs);
        cpu_rates.push((now - stepped) as f64 / cpu_s);
        stepped = now;
        if round as usize == PREFIX_ROUNDS {
            prefix_hash = Some(net.state_hash());
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let stats1 = net.stats();
    let metrics1 = net.step_metrics();

    report.throughput_per_s = median(&rates);
    report.throughput_per_cpu_s = median(&cpu_rates);
    let mut lat = Latencies::with_capacity(round_ms.len());
    for &ms in &round_ms {
        lat.record(ms);
    }
    report.latencies(&lat, 0.99, "one-second rounds");
    let steps_done = stats1.vehicles_stepped - stats0.vehicles_stepped;
    report.notes.push(format!(
        "{} rounds in {wall:.2} s on {} shards, {} vehicles live, {steps_done} vehicle-steps",
        round_ms.len(),
        net.shards(),
        stats1.vehicles
    ));

    match prefix_hash {
        Some(hash) => {
            let until = Seconds::new(WARMUP_S + PREFIX_ROUNDS as f64);
            if let Err(e) = check_replica(specs, config, until, hash) {
                report.errors.push(e);
            }
        }
        None => report
            .errors
            .push(format!("fewer than {PREFIX_ROUNDS} rounds ran")),
    }

    if tracer.enabled() {
        let spans = tracer.take();
        let busy: u64 = spans.iter().map(|s| s.dur()).sum();
        report.attribution.total_ns = wall * 1e9;
        report
            .attribution
            .add("microsim", busy as f64, "network_sim.round spans");
        let lanes = |m: StepMetrics| (m.simd_lanes, m.scalar_lanes, m.arena_grows);
        let (s0, sc0, g0) = lanes(metrics0);
        let (s1, sc1, g1) = lanes(metrics1);
        let r = &mut report;
        r.set("microsim.step_ms", median(&round_ms) / 10.0);
        r.set(
            "microsim.ns_per_vehicle_step",
            busy as f64 / steps_done.max(1) as f64,
        );
        r.set("microsim.vehicle_steps", steps_done as f64);
        r.set(
            "microsim.handoffs",
            (stats1.handoffs - stats0.handoffs) as f64,
        );
        r.set("microsim.simd_lanes", (s1 - s0) as f64);
        r.set("microsim.scalar_lanes", (sc1 - sc0) as f64);
        r.set("microsim.arena_grows", (g1 - g0) as f64);
        r.set("microsim.step_share", busy as f64 / (wall * 1e9));
        crate::save_spans(ctx, &spans);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use velopt_road::CorridorTemplate;

    #[test]
    fn replica_check_fails_on_a_perturbed_hash() {
        let template = CorridorTemplate {
            length: (600.0, 800.0),
            ..CorridorTemplate::default()
        };
        let mut specs: Vec<CorridorSpec> = (0..4)
            .map(|i| {
                let road = template.generate(40 + i).unwrap();
                if i % 2 == 0 {
                    CorridorSpec::through(road, i as usize + 1)
                } else {
                    CorridorSpec::terminal(road)
                }
            })
            .collect();
        for s in &mut specs {
            s.arrival_rate = velopt_common::units::VehiclesPerHour::new(900.0);
        }
        let config = SimConfig::default();
        let mut sharded = Network::new(specs.clone(), 2, config).unwrap();
        let until = Seconds::new(120.0);
        sharded.run_until(until).unwrap();
        let hash = sharded.state_hash();
        assert!(check_replica(specs.clone(), config, until, hash).is_ok());
        assert!(check_replica(specs, config, until, hash ^ 1).is_err());
    }
}

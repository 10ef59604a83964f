//! Benchmarks the DP optimizer: the default grid, a finer grid, the
//! Exact-vs-Greedy time-handling ablation called out in DESIGN.md, and
//! batch planning. The single-run
//! benchmarks also print the solver's own [`SolverMetrics`] once, so grid
//! or pruning regressions show up next to the wall-clock numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use velopt_common::units::Meters;
use velopt_core::batch::PlanRequest;
use velopt_core::dp::{DpConfig, DpOptimizer, TimeHandling};
use velopt_core::metrics::SolverMetrics;
use velopt_core::windows::green_only_constraints;
use velopt_ev_energy::{EnergyModel, VehicleParams};
use velopt_road::Road;

fn optimizer(cfg: DpConfig) -> DpOptimizer {
    DpOptimizer::new(EnergyModel::new(VehicleParams::spark_ev()), cfg).unwrap()
}

fn report_metrics(label: &str, m: &SolverMetrics) {
    println!(
        "metrics {label}: expanded={} pruned={} ratio={:.3} \
         setup={:.1}ms relax={:.1}ms backtrack={:.1}ms \
         arena(reuse={}, alloc={})",
        m.states_expanded,
        m.states_pruned,
        m.expansion_ratio(),
        m.setup_seconds * 1e3,
        m.relax_seconds * 1e3,
        m.backtrack_seconds * 1e3,
        m.arena_reuse_hits,
        m.arena_allocations,
    );
}

fn bench_dp(c: &mut Criterion) {
    let road = Road::us25();
    let constraints = green_only_constraints(&road, DpConfig::default().horizon);

    let mut group = c.benchmark_group("dp");
    group.sample_size(10);

    group.bench_function("exact_default_grid_us25", |b| {
        let opt = optimizer(DpConfig::default());
        b.iter(|| opt.optimize(black_box(&road), &constraints).unwrap())
    });

    // One solve's worth of solver introspection next to the timings.
    {
        let profile = optimizer(DpConfig::default())
            .optimize(&road, &constraints)
            .unwrap();
        report_metrics("exact_default_grid_us25", &profile.metrics);
    }

    group.bench_function("exact_fine_space_grid_us25", |b| {
        let opt = optimizer(DpConfig {
            ds: Meters::new(10.0),
            ..DpConfig::default()
        });
        b.iter(|| opt.optimize(black_box(&road), &constraints).unwrap())
    });

    group.bench_function("greedy_ablation_us25", |b| {
        let opt = optimizer(DpConfig {
            time_handling: TimeHandling::Greedy,
            ..DpConfig::default()
        });
        b.iter(|| opt.optimize(black_box(&road), &constraints).unwrap())
    });

    group.bench_function("exact_unconstrained_us25", |b| {
        let opt = optimizer(DpConfig::default());
        b.iter(|| opt.optimize(black_box(&road), &[]).unwrap())
    });

    // Mid-trip replanning is cheaper than a full plan: the state space
    // shrinks with the remaining distance.
    group.bench_function("replan_from_halfway", |b| {
        let opt = optimizer(DpConfig::default());
        let start = velopt_core::dp::StartState {
            position: velopt_common::units::Meters::new(2100.0),
            speed: velopt_common::units::MetersPerSecond::new(14.0),
            time: velopt_common::units::Seconds::new(140.0),
        };
        b.iter(|| {
            opt.optimize_from(black_box(&road), &constraints, start)
                .unwrap()
        })
    });

    // Robustness sweep over generated corridors (one optimize per corridor).
    group.bench_function("corridor_sweep_4_random", |b| {
        let opt = optimizer(DpConfig::default());
        let corridors: Vec<_> = (0..4)
            .map(|seed| {
                velopt_road::CorridorTemplate::default()
                    .generate(seed)
                    .unwrap()
            })
            .collect();
        b.iter(|| {
            for road in &corridors {
                let c = green_only_constraints(road, DpConfig::default().horizon);
                black_box(opt.optimize(road, &c).unwrap());
            }
        })
    });
    group.finish();

    // Batch planning: 64 independent ego requests (the fleet-gateway
    // burst). `optimize_batch` parallelizes across the plans with one
    // arena per worker; on a many-core box the speedup over the serial
    // loop approaches the core count, on one core the two are within
    // noise of each other.
    let mut group = c.benchmark_group("dp_batch");
    group.sample_size(10);
    let starts: Vec<velopt_core::dp::StartState> = (0..64)
        .map(|i| velopt_core::dp::StartState {
            position: Meters::new(1900.0 + (i % 8) as f64 * 50.0),
            speed: velopt_common::units::MetersPerSecond::new(10.0 + (i % 5) as f64),
            time: velopt_common::units::Seconds::new(120.0 + (i % 16) as f64 * 4.0),
        })
        .collect();
    let requests: Vec<PlanRequest<'_>> = starts
        .iter()
        .map(|&start| PlanRequest {
            road: &road,
            signals: &constraints,
            start,
        })
        .collect();

    group.bench_function("batch_64_serial_loop", |b| {
        let opt = optimizer(DpConfig::default());
        b.iter(|| {
            for req in &requests {
                black_box(opt.optimize_from(req.road, req.signals, req.start).unwrap());
            }
        })
    });

    group.bench_function("batch_64_optimize_batch", |b| {
        let opt = optimizer(DpConfig::default());
        b.iter(|| {
            let results = opt.optimize_batch(black_box(&requests));
            for r in &results {
                assert!(r.is_ok());
            }
            black_box(results)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_dp);
criterion_main!(benches);

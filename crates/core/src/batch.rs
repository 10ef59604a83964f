//! Batch planning: many independent trips through one optimizer.
//!
//! The vehicular cloud receives bursts of uploads (every EV entering the
//! corridor asks for a plan), and each plan is independent of the others —
//! an embarrassingly parallel workload. [`DpOptimizer::optimize_batch`]
//! fans the requests out over scoped worker threads, one per core (capped
//! by the request count), and [`DpOptimizer::optimize_batch_with`] runs one
//! worker per caller-owned [`SolverArena`]. Each worker keeps its arena
//! across its share of the batch, so consecutive plans on a worker recycle
//! layer buffers *and* the transition-cost and window-bound memos (plans
//! after the first on a worker typically build zero cost tables, and a
//! trip sharing an earlier one's corridor and windows skips the bound
//! build — see [`crate::memo`]).
//! Results come back **in request order**.
//!
//! Each plan is one sequential DP solve, so a batch of N on C cores uses
//! `min(N, C)` threads. A plan's bits depend only on its request, never on
//! the worker or arena that solved it (see [`crate::dp`]), so a batch of N
//! equals N sequential [`optimize_from`](DpOptimizer::optimize_from) calls
//! profile-for-profile.

use crate::dp::{DpOptimizer, OptimizedProfile, SignalConstraint, SolverArena, StartState};
use velopt_common::{par, Result};
use velopt_road::Road;

/// One trip in a batch: the corridor, its per-signal arrival windows, and
/// the EV's start state.
#[derive(Debug, Clone, Copy)]
pub struct PlanRequest<'a> {
    /// The corridor to drive.
    pub road: &'a Road,
    /// Arrival windows for the signals still ahead.
    pub signals: &'a [SignalConstraint],
    /// Where the plan starts (origin-at-rest for a fresh trip).
    pub start: StartState,
}

impl<'a> PlanRequest<'a> {
    /// A fresh-trip request: from the corridor origin, at rest, at `t = 0`.
    pub fn fresh(road: &'a Road, signals: &'a [SignalConstraint]) -> Self {
        Self {
            road,
            signals,
            start: StartState::default(),
        }
    }
}

impl DpOptimizer {
    /// Plans every request concurrently, one worker per core (capped by
    /// the request count); results come back in request order. Individual
    /// infeasible trips surface as `Err` entries without failing the rest
    /// of the batch.
    pub fn optimize_batch(&self, requests: &[PlanRequest<'_>]) -> Vec<Result<OptimizedProfile>> {
        let workers = par::effective_threads(0).min(requests.len().max(1));
        let mut arenas: Vec<SolverArena> = (0..workers).map(|_| SolverArena::new()).collect();
        self.optimize_batch_with(requests, &mut arenas)
    }

    /// Like [`DpOptimizer::optimize_batch`], but reusing caller-owned
    /// arenas so warm layer buffers, transition-cost and window-bound
    /// memos survive *across* batches — the router's batched frontier
    /// flushes many small batches and would otherwise rebuild every cost
    /// table each flush.
    ///
    /// Up to `arenas.len()` workers run; worker `w` owns `arenas[w]` and
    /// plans requests `w, w + workers, …`, so with a fixed arena count the
    /// request → arena assignment is deterministic.
    pub fn optimize_batch_with(
        &self,
        requests: &[PlanRequest<'_>],
        arenas: &mut [SolverArena],
    ) -> Vec<Result<OptimizedProfile>> {
        let _batch_span = telemetry::span("dp.batch_seconds");
        telemetry::add("dp.batch.calls", 1);
        telemetry::add("dp.batch.trips", requests.len() as u64);
        let workers = arenas.len().min(requests.len());
        if workers <= 1 {
            let mut fallback;
            let arena = match arenas.first_mut() {
                Some(a) => a,
                None => {
                    fallback = SolverArena::new();
                    &mut fallback
                }
            };
            return requests
                .iter()
                .map(|r| self.optimize_from_with(r.road, r.signals, r.start, arena))
                .collect();
        }

        // Round-robin the requests over the workers; each worker keeps one
        // arena across its share of the batch.
        let mut results: Vec<Option<Result<OptimizedProfile>>> =
            (0..requests.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = arenas[..workers]
                .iter_mut()
                .enumerate()
                .map(|(w, arena)| {
                    scope.spawn(move || {
                        requests
                            .iter()
                            .enumerate()
                            .skip(w)
                            .step_by(workers)
                            .map(|(i, r)| {
                                (
                                    i,
                                    self.optimize_from_with(r.road, r.signals, r.start, arena),
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                for (i, res) in handle.join().expect("batch worker thread panicked") {
                    results[i] = Some(res);
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every request planned"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{DpConfig, TimeHandling};
    use velopt_common::units::{KilometersPerHour, Meters, MetersPerSecond, Seconds};
    use velopt_ev_energy::{EnergyModel, VehicleParams};
    use velopt_queue::TimeWindow;
    use velopt_road::RoadBuilder;

    fn optimizer_with(config: DpConfig) -> DpOptimizer {
        DpOptimizer::new(EnergyModel::new(VehicleParams::spark_ev()), config).unwrap()
    }

    fn optimizer() -> DpOptimizer {
        optimizer_with(DpConfig::default())
    }

    fn arenas(n: usize) -> Vec<SolverArena> {
        (0..n).map(|_| SolverArena::new()).collect()
    }

    fn simple_road(length: f64) -> velopt_road::Road {
        RoadBuilder::new(Meters::new(length))
            .default_limits(
                KilometersPerHour::new(40.0).to_meters_per_second(),
                KilometersPerHour::new(70.0).to_meters_per_second(),
            )
            .build()
            .unwrap()
    }

    /// Every float of a plan as raw bits, plus its violation count.
    fn plan_bits(p: &OptimizedProfile) -> Vec<u64> {
        let curves = p.stations.iter().map(|x| x.value());
        let curves = curves.chain(p.speeds.iter().map(|v| v.value()));
        let curves = curves.chain(p.times.iter().map(|t| t.value()));
        curves
            .chain([p.total_energy.value(), p.trip_time.value()])
            .map(f64::to_bits)
            .chain([p.window_violations as u64])
            .collect()
    }

    #[test]
    fn batch_matches_sequential_calls_profile_for_profile() {
        let roads: Vec<_> = [600.0, 800.0, 1000.0, 1200.0, 700.0]
            .iter()
            .map(|&l| simple_road(l))
            .collect();
        let constraint = SignalConstraint {
            position: Meters::new(400.0),
            windows: vec![TimeWindow {
                start: Seconds::new(40.0),
                end: Seconds::new(55.0),
            }],
        };
        let signals = [constraint];
        let requests: Vec<PlanRequest<'_>> = roads
            .iter()
            .enumerate()
            .map(|(i, road)| PlanRequest {
                road,
                signals: if i % 2 == 0 { &signals } else { &[] },
                start: StartState {
                    time: Seconds::new(i as f64 * 5.0),
                    ..StartState::default()
                },
            })
            .collect();

        let opt = optimizer();
        let solo: Vec<OptimizedProfile> = requests
            .iter()
            .map(|r| opt.optimize_from(r.road, r.signals, r.start).unwrap())
            .collect();
        for n in [1, 2, 4] {
            let batched = opt.optimize_batch_with(&requests, &mut arenas(n));
            assert_eq!(batched.len(), requests.len());
            for (k, (got, want)) in batched.iter().zip(&solo).enumerate() {
                let got = got.as_ref().unwrap();
                assert_eq!(
                    plan_bits(got),
                    plan_bits(want),
                    "request {k} diverged with {n} arenas"
                );
                // Same search, whichever worker and arena ran it.
                assert_eq!(got.metrics.states_expanded, want.metrics.states_expanded);
                assert_eq!(got.metrics.states_pruned, want.metrics.states_pruned);
                assert_eq!(got.metrics.rows_skipped, want.metrics.rows_skipped);
            }
        }
    }

    #[test]
    fn batch_preserves_order_and_isolates_failures() {
        let good = simple_road(800.0);
        // Far too long for a 2-minute horizon: infeasible.
        let bad = simple_road(30_000.0);
        let opt = optimizer_with(DpConfig {
            horizon: Seconds::new(120.0),
            ..DpConfig::default()
        });
        let requests = [
            PlanRequest::fresh(&good, &[]),
            PlanRequest::fresh(&bad, &[]),
            PlanRequest::fresh(&good, &[]),
        ];
        let results = opt.optimize_batch_with(&requests, &mut arenas(2));
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
        // The two good plans are for the same trip — identical.
        assert_eq!(results[0].as_ref().unwrap(), results[2].as_ref().unwrap());
    }

    #[test]
    fn batch_arena_reuse_shows_in_metrics() {
        let road = simple_road(700.0);
        let requests: Vec<PlanRequest<'_>> = (0..3)
            .map(|i| PlanRequest {
                road: &road,
                signals: &[],
                start: StartState {
                    time: Seconds::new(i as f64),
                    ..StartState::default()
                },
            })
            .collect();
        // One arena across the whole batch, so every plan after the first
        // must reuse its layers.
        let results = optimizer().optimize_batch_with(&requests, &mut arenas(1));
        let later = results[2].as_ref().unwrap();
        assert_eq!(later.metrics.arena_allocations, 0);
        assert!(later.metrics.arena_reuse_hits > 0);
        // Same corridor, same segment classes: the transition memo is warm,
        // so the later plans build no cost tables and run no energy evals.
        assert_eq!(later.metrics.memo_misses, 0);
        assert_eq!(later.metrics.energy_evals, 0);
        assert!(later.metrics.memo_hits > 0);
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(optimizer().optimize_batch(&[]).is_empty());
        assert!(optimizer().optimize_batch_with(&[], &mut []).is_empty());
    }

    #[test]
    fn batch_with_keeps_arenas_warm_across_calls() {
        let road = simple_road(700.0);
        let opt = optimizer();
        let requests = [PlanRequest::fresh(&road, &[])];
        let mut arenas = arenas(1);
        let first = opt.optimize_batch_with(&requests, &mut arenas);
        let second = opt.optimize_batch_with(&requests, &mut arenas);
        let p = second[0].as_ref().unwrap();
        // The second call reuses the first call's layers and memo tables.
        assert_eq!(p.metrics.arena_allocations, 0);
        assert_eq!(p.metrics.memo_misses, 0);
        assert_eq!(p.metrics.energy_evals, 0);
        // ...and stays bit-identical to the cold-arena plan.
        assert_eq!(p, first[0].as_ref().unwrap());
    }

    #[test]
    fn batch_with_matches_batch() {
        let roads: Vec<_> = [600.0, 900.0, 1100.0]
            .iter()
            .map(|&l| simple_road(l))
            .collect();
        let requests: Vec<PlanRequest<'_>> = roads
            .iter()
            .map(|road| PlanRequest::fresh(road, &[]))
            .collect();
        let opt = optimizer();
        let plain = opt.optimize_batch(&requests);
        let with = opt.optimize_batch_with(&requests, &mut arenas(2));
        for (a, b) in plain.iter().zip(&with) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
    }

    #[test]
    fn greedy_batch_works_too() {
        let road = simple_road(900.0);
        let opt = optimizer_with(DpConfig {
            time_handling: TimeHandling::Greedy,
            ..DpConfig::default()
        });
        let requests = [
            PlanRequest::fresh(&road, &[]),
            PlanRequest::fresh(&road, &[]),
        ];
        let results = opt.optimize_batch_with(&requests, &mut arenas(2));
        let a = results[0].as_ref().unwrap();
        assert_eq!(a.speeds[0], MetersPerSecond::ZERO);
        assert_eq!(a, results[1].as_ref().unwrap());
    }
}

//! Batch planning: many independent trips through one optimizer.
//!
//! The vehicular cloud receives bursts of uploads (every EV entering the
//! corridor asks for a plan), and each plan is independent of the others —
//! an embarrassingly parallel workload. [`DpOptimizer::optimize_batch`]
//! deals the requests over [`BATCH_ARENAS`] fresh arenas (capped by the
//! request count), and [`DpOptimizer::optimize_batch_with`] over the
//! caller-owned [`SolverArena`]s: request `i` goes to arena `i mod A`, and
//! each arena plans its share in request order, so consecutive plans on an
//! arena recycle layer buffers *and* the transition-cost and window-bound
//! memos (plans after the first on an arena typically build zero cost
//! tables, and a trip sharing an earlier one's corridor and windows skips
//! the bound build — see [`crate::memo`]). The arenas run on scoped
//! threads, at most one per core. Results come back **in request order**.
//!
//! Each plan is one sequential DP solve, so a batch over A arenas on C
//! cores uses `min(A, C)` threads. A plan's bits depend only on its
//! request, never on the thread or arena that solved it (see
//! [`crate::dp`]), so a batch of N equals N sequential
//! [`optimize_from`](DpOptimizer::optimize_from) calls profile-for-profile.
//! Which requests share an arena does not depend on the core count, so
//! neither do the arena and memo counters of a batch.

use crate::dp::{DpOptimizer, OptimizedProfile, SignalConstraint, SolverArena, StartState};
use velopt_common::{par, Result};
use velopt_road::Road;

/// Arenas [`DpOptimizer::optimize_batch`] deals a batch over, whatever the
/// host's core count.
pub const BATCH_ARENAS: usize = 2;

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
    /// Plans every request on [`BATCH_ARENAS`] fresh arenas (capped by the
    /// request count), concurrently; results come back in request order.
    /// Individual infeasible trips surface as `Err` entries without failing
    /// the rest of the batch.
    pub fn optimize_batch(&self, requests: &[PlanRequest<'_>]) -> Vec<Result<OptimizedProfile>> {
        let count = BATCH_ARENAS.min(requests.len().max(1));
        let mut arenas: Vec<SolverArena> = (0..count).map(|_| SolverArena::new()).collect();
        self.optimize_batch_with(requests, &mut arenas)
    }

    /// Like [`DpOptimizer::optimize_batch`], but reusing caller-owned
    /// arenas so warm layer buffers, transition-cost and window-bound
    /// memos survive *across* batches — the router's batched frontier
    /// flushes many small batches and would otherwise rebuild every cost
    /// table each flush.
    ///
    /// Up to `arenas.len()` arenas plan, on at most one thread per core:
    /// with `n` arenas in use, `arenas[a]` plans requests `a, a + n, …` in
    /// that order, so with a fixed arena count the request → arena
    /// assignment does not depend on the host.
    pub fn optimize_batch_with(
        &self,
        requests: &[PlanRequest<'_>],
        arenas: &mut [SolverArena],
    ) -> Vec<Result<OptimizedProfile>> {
        let _batch_span = telemetry::span("dp.batch_seconds");
        telemetry::add("dp.batch.calls", 1);
        telemetry::add("dp.batch.trips", requests.len() as u64);
        let used = arenas.len().min(requests.len());
        if used <= 1 {
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

        // Round-robin the requests over the arenas, and the arenas over the
        // threads; each arena plans its share of the batch in order.
        let threads = par::effective_threads(0).min(used);
        let mut shares: Vec<Vec<(usize, &mut SolverArena)>> =
            (0..threads).map(|_| Vec::new()).collect();
        for (a, arena) in arenas[..used].iter_mut().enumerate() {
            shares[a % threads].push((a, arena));
        }
        let mut results: Vec<Option<Result<OptimizedProfile>>> =
            (0..requests.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = shares
                .into_iter()
                .map(|share| {
                    scope.spawn(move || {
                        let mut planned = Vec::new();
                        for (a, arena) in share {
                            for (i, r) in requests.iter().enumerate().skip(a).step_by(used) {
                                let plan =
                                    self.optimize_from_with(r.road, r.signals, r.start, arena);
                                planned.push((i, plan));
                            }
                        }
                        planned
                    })
                })
                .collect();
            for handle in handles {
                for (i, res) in handle.join().expect("batch thread panicked") {
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

    /// `optimize_batch` deals request `i` to arena `i mod BATCH_ARENAS`,
    /// whatever the core count: each plan's arena and memo counters equal
    /// those of solving its arena's share in order on one fresh arena.
    #[test]
    fn batch_counters_follow_the_fixed_dealing() {
        let roads: Vec<_> = [600.0, 800.0, 1000.0, 1200.0, 700.0, 900.0, 650.0]
            .iter()
            .map(|&l| simple_road(l))
            .collect();
        let requests: Vec<PlanRequest<'_>> = roads
            .iter()
            .map(|road| PlanRequest::fresh(road, &[]))
            .collect();
        let opt = optimizer();
        let batched = opt.optimize_batch(&requests);
        let counters = |p: &OptimizedProfile| {
            let m = &p.metrics;
            let memo = [m.memo_hits, m.memo_misses, m.energy_evals];
            [
                m.arena_allocations,
                m.arena_reuse_hits,
                memo[0],
                memo[1],
                memo[2],
            ]
        };
        for a in 0..BATCH_ARENAS {
            let mut arena = SolverArena::new();
            for i in (a..requests.len()).step_by(BATCH_ARENAS) {
                let r = &requests[i];
                let alone = opt
                    .optimize_from_with(r.road, r.signals, r.start, &mut arena)
                    .unwrap();
                let got = batched[i].as_ref().unwrap();
                assert_eq!(counters(got), counters(&alone), "request {i}");
                assert_eq!(plan_bits(got), plan_bits(&alone), "request {i}");
            }
        }
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

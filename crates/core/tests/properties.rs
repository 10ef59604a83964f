//! Property-based tests: every DP output satisfies the Eq. 7 constraints.

use proptest::prelude::*;
use velopt_common::units::{KilometersPerHour, Meters, Seconds};
use velopt_core::dp::{DpConfig, DpOptimizer, SignalConstraint};
use velopt_core::profiles::{DriverProfile, DrivingStyle};
use velopt_ev_energy::{EnergyModel, VehicleParams};
use velopt_queue::TimeWindow;
use velopt_road::{Road, RoadBuilder};

fn optimizer() -> DpOptimizer {
    DpOptimizer::new(
        EnergyModel::new(VehicleParams::spark_ev()),
        DpConfig::default(),
    )
    .unwrap()
}

fn road_with(length: f64, sign_at: Option<f64>) -> Road {
    let mut b = RoadBuilder::new(Meters::new(length));
    b.default_limits(
        KilometersPerHour::new(40.0).to_meters_per_second(),
        KilometersPerHour::new(70.0).to_meters_per_second(),
    );
    if let Some(p) = sign_at {
        b.stop_sign(Meters::new(p));
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Eq. 7 invariants on arbitrary road lengths with an optional stop
    /// sign: endpoint stops, acceleration bounds, speed limits, monotone
    /// time.
    #[test]
    fn dp_profile_satisfies_eq7(
        length in 600.0f64..2500.0,
        sign_frac in prop::option::of(0.25f64..0.75),
    ) {
        let road = road_with(length, sign_frac.map(|f| (f * length).round()));
        let profile = optimizer().optimize(&road, &[]).unwrap();
        prop_assert_eq!(profile.window_violations, 0);
        // 7c/7d: rest at source, destination (and the sign's station).
        prop_assert_eq!(profile.speeds[0].value(), 0.0);
        prop_assert_eq!(profile.speeds.last().unwrap().value(), 0.0);
        // 7a: never above the posted limit.
        for (i, v) in profile.speeds.iter().enumerate() {
            let (_, hi) = road.speed_limits_at(profile.stations[i]);
            prop_assert!(v.value() <= hi.value() + 1e-9);
        }
        // 7b: acceleration within [-1.5, 2.5] on every segment.
        for i in 1..profile.stations.len() {
            let ds = (profile.stations[i] - profile.stations[i - 1]).value();
            let a = (profile.speeds[i].value().powi(2)
                - profile.speeds[i - 1].value().powi(2)) / (2.0 * ds);
            prop_assert!((-1.5 - 1e-6..=2.5 + 1e-6).contains(&a), "a = {a}");
        }
        // Eq. 10: arrival times strictly increase.
        for w in profile.times.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
    }

    /// Reachable windows are always hit exactly (violations = 0) and the
    /// reported arrival admits the constraint.
    #[test]
    fn reachable_windows_are_hit(
        length in 800.0f64..2000.0,
        frac in 0.3f64..0.7,
        delay in 0.0f64..10.0,
        width in 6.0f64..20.0,
    ) {
        let road = road_with(length, None);
        let opt = optimizer();
        let pos = Meters::new((frac * length / 20.0).round() * 20.0);
        let free = opt.optimize(&road, &[]).unwrap();
        let t0 = free.arrival_time_at(pos) + Seconds::new(delay);
        let constraint = SignalConstraint {
            position: pos,
            windows: vec![TimeWindow { start: t0, end: t0 + Seconds::new(width) }],
        };
        let profile = opt.optimize(&road, std::slice::from_ref(&constraint)).unwrap();
        prop_assert_eq!(profile.window_violations, 0);
        prop_assert!(constraint.admits(profile.arrival_time_at(pos)));
    }

    /// The exported time series always reproduces the road length and ends
    /// at rest.
    #[test]
    fn time_series_export_consistent(length in 600.0f64..1800.0) {
        let road = road_with(length, None);
        let profile = optimizer().optimize(&road, &[]).unwrap();
        let series = profile.to_time_series(Seconds::new(0.2)).unwrap();
        let dist = series.integrate();
        prop_assert!((dist - length).abs() < 0.05 * length + 25.0,
            "distance {dist} vs {length}");
        prop_assert!(series.samples().last().unwrap() < &1.0);
        prop_assert!(series.min_value() >= 0.0);
    }

    /// Driver profiles never exceed limits and always finish, for arbitrary
    /// corridor lengths.
    #[test]
    fn driver_profiles_always_finish(
        length in 500.0f64..2000.0,
        style_fast in any::<bool>(),
    ) {
        let road = road_with(length, Some((length / 2.0).round()));
        let style = if style_fast { DrivingStyle::Fast } else { DrivingStyle::Mild };
        let p = DriverProfile::generate(&road, style, Seconds::new(0.2)).unwrap();
        prop_assert!(p.speed.max_value() <= road.max_speed_limit().value() + 0.5);
        let end = *p.position.samples().last().unwrap();
        prop_assert!((end - length).abs() < 1.0);
        prop_assert!(p.trip_time.value() > 0.0);
    }
}

/// A corridor with a random piecewise-linear grade profile, so the
/// transition memo sees many distinct `(length, grade)` classes as well
/// as repeats.
fn graded_road(length: f64, grades: &[f64], sign_frac: Option<f64>) -> Road {
    let mut b = RoadBuilder::new(Meters::new(length));
    b.default_limits(
        KilometersPerHour::new(40.0).to_meters_per_second(),
        KilometersPerHour::new(70.0).to_meters_per_second(),
    );
    let n = grades.len();
    for (i, &g) in grades.iter().enumerate() {
        b.grade_knot(Meters::new(length * i as f64 / (n - 1) as f64), g);
    }
    if let Some(f) = sign_frac {
        b.stop_sign(Meters::new((f * length / 20.0).round() * 20.0));
    }
    b.build().unwrap()
}

mod memo_equivalence {
    use super::*;
    use velopt_core::dp::{SolverArena, StartState, TimeHandling};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The tentpole's exactness contract: the memoized solver is
        /// **bit-identical** to the direct (per-solve table) solver on
        /// random graded corridors, in both time handlings — same
        /// trajectory bits, same work counters.
        #[test]
        fn memoized_dp_is_bit_identical_to_direct(
            length in 700.0f64..1600.0,
            g1 in -6.0f64..6.0,
            g2 in -6.0f64..6.0,
            g3 in -6.0f64..6.0,
            sign_frac in prop::option::of(0.3f64..0.7),
            delay in 0.0f64..8.0,
            greedy in any::<bool>(),
        ) {
            let road = graded_road(length, &[0.0, g1, g2, g3], sign_frac);
            let time_handling = if greedy {
                TimeHandling::Greedy
            } else {
                TimeHandling::Exact
            };
            let solve = |memo: bool, signals: &[SignalConstraint]| {
                let opt = DpOptimizer::new(
                    EnergyModel::new(VehicleParams::spark_ev()),
                    DpConfig { memo, time_handling, ..DpConfig::default() },
                )
                .unwrap();
                let mut arena = SolverArena::new();
                opt.optimize_from_with(&road, signals, StartState::default(), &mut arena)
                    .unwrap()
            };
            // A reachable window mid-corridor keeps the time machinery in
            // play without making the problem infeasible.
            let free = solve(false, &[]);
            let pos = Meters::new((0.5 * length / 20.0).round() * 20.0);
            let t0 = free.arrival_time_at(pos) + Seconds::new(delay);
            let constraint = SignalConstraint {
                position: pos,
                windows: vec![TimeWindow { start: t0, end: t0 + Seconds::new(10.0) }],
            };
            let signals = std::slice::from_ref(&constraint);

            let reference = solve(false, signals);
            for memo in [true, false] {
                let got = solve(memo, signals);
                // Trajectory: bit-for-bit, not approximately.
                prop_assert_eq!(&got, &reference);
                for i in 0..got.speeds.len() {
                    prop_assert_eq!(
                        got.speeds[i].value().to_bits(),
                        reference.speeds[i].value().to_bits()
                    );
                    prop_assert_eq!(
                        got.times[i].value().to_bits(),
                        reference.times[i].value().to_bits()
                    );
                }
                prop_assert_eq!(
                    got.total_energy.value().to_bits(),
                    reference.total_energy.value().to_bits()
                );
                // Work counters: memo-invariant.
                prop_assert_eq!(
                    got.metrics.states_expanded,
                    reference.metrics.states_expanded
                );
                prop_assert_eq!(
                    got.metrics.states_pruned,
                    reference.metrics.states_pruned
                );
                prop_assert_eq!(
                    got.metrics.rows_skipped,
                    reference.metrics.rows_skipped
                );
                // The memo knob changes only where tables come from.
                if memo {
                    prop_assert!(got.metrics.memo_misses > 0);
                } else {
                    prop_assert_eq!(got.metrics.memo_hits, 0);
                }
            }
        }
    }
}

mod simd_and_repair_equivalence {
    use super::*;
    use velopt_core::dp::{SolverArena, StartState, TimeHandling};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        /// Tentpole #1 contract: the AVX2 relax microkernels never move a
        /// bit relative to the portable scalar kernel — random graded
        /// corridors, a random reachable window, both time handlings — and
        /// the search-space counters are dispatch-invariant.
        #[test]
        fn simd_dp_is_bit_identical_to_scalar(
            length in 700.0f64..1500.0,
            g1 in -6.0f64..6.0,
            g2 in -6.0f64..6.0,
            sign_frac in prop::option::of(0.3f64..0.7),
            delay in 0.0f64..8.0,
            greedy in any::<bool>(),
        ) {
            let road = graded_road(length, &[0.0, g1, g2], sign_frac);
            let time_handling = if greedy {
                TimeHandling::Greedy
            } else {
                TimeHandling::Exact
            };
            let solve = |simd: bool, signals: &[SignalConstraint]| {
                DpOptimizer::new(
                    EnergyModel::new(VehicleParams::spark_ev()),
                    DpConfig { simd, time_handling, ..DpConfig::default() },
                )
                .unwrap()
                .optimize(&road, signals)
                .unwrap()
            };
            let free = solve(false, &[]);
            let pos = Meters::new((0.5 * length / 20.0).round() * 20.0);
            let t0 = free.arrival_time_at(pos) + Seconds::new(delay);
            let constraint = SignalConstraint {
                position: pos,
                windows: vec![TimeWindow { start: t0, end: t0 + Seconds::new(10.0) }],
            };
            let signals = std::slice::from_ref(&constraint);

            let reference = solve(false, signals);
            let vectorized = solve(true, signals);
            let scalar = solve(false, signals);
            for got in [&vectorized, &scalar] {
                prop_assert!(*got == reference, "profile differs from reference");
                for i in 0..got.speeds.len() {
                    prop_assert_eq!(
                        got.speeds[i].value().to_bits(),
                        reference.speeds[i].value().to_bits()
                    );
                    prop_assert_eq!(
                        got.times[i].value().to_bits(),
                        reference.times[i].value().to_bits()
                    );
                    prop_assert_eq!(
                        got.stations[i].value().to_bits(),
                        reference.stations[i].value().to_bits()
                    );
                }
                prop_assert_eq!(
                    got.total_energy.value().to_bits(),
                    reference.total_energy.value().to_bits()
                );
                // Work counters never depend on dispatch.
                prop_assert_eq!(
                    got.metrics.states_expanded,
                    reference.metrics.states_expanded
                );
                prop_assert_eq!(got.metrics.states_pruned, reference.metrics.states_pruned);
                prop_assert_eq!(got.metrics.rows_skipped, reference.metrics.rows_skipped);
            }
            // The scalar config truly ran the scalar path.
            prop_assert_eq!(scalar.metrics.simd_rows, 0);
        }

        /// Sparse-reset contract: one arena reused across a *sequence* of
        /// vectorized solves — same corridor twice (dirty-log reuse),
        /// a different corridor (shape change → full refill), then the
        /// first corridor again — always matches fresh-arena scalar
        /// solves bit-for-bit. This is the cross-solve path the other
        /// tests never hit: every solve after the first resets the
        /// pooled layer stack from the previous solve's dirty log.
        #[test]
        fn arena_reuse_across_solves_is_bit_identical(
            length_a in 700.0f64..1200.0,
            length_b in 1250.0f64..1500.0,
            g1 in -6.0f64..6.0,
            g2 in -6.0f64..6.0,
            sign_frac in prop::option::of(0.3f64..0.7),
            delay in 0.0f64..8.0,
        ) {
            let road_a = graded_road(length_a, &[0.0, g1, g2], sign_frac);
            let road_b = graded_road(length_b, &[0.0, g2, g1], None);
            let opt = |simd: bool| {
                DpOptimizer::new(
                    EnergyModel::new(VehicleParams::spark_ev()),
                    DpConfig { simd, ..DpConfig::default() },
                )
                .unwrap()
            };
            let free = opt(false).optimize(&road_a, &[]).unwrap();
            let pos = Meters::new((0.5 * length_a / 20.0).round() * 20.0);
            let t0 = free.arrival_time_at(pos) + Seconds::new(delay);
            let constraint = SignalConstraint {
                position: pos,
                windows: vec![TimeWindow { start: t0, end: t0 + Seconds::new(10.0) }],
            };
            let trips: [(&Road, &[SignalConstraint]); 4] = [
                (&road_a, std::slice::from_ref(&constraint)),
                (&road_a, &[]),
                (&road_b, &[]),
                (&road_a, std::slice::from_ref(&constraint)),
            ];
            let vec_opt = opt(true);
            let scalar_opt = opt(false);
            let mut warm = SolverArena::new();
            for (road, signals) in trips {
                let got = vec_opt
                    .optimize_from_with(road, signals, StartState::default(), &mut warm)
                    .unwrap();
                // Reference: same trip through a cold arena, scalar kernels.
                let reference = scalar_opt.optimize(road, signals).unwrap();
                prop_assert!(got == reference, "warm vectorized solve differs");
                for i in 0..got.speeds.len() {
                    prop_assert_eq!(
                        got.speeds[i].value().to_bits(),
                        reference.speeds[i].value().to_bits()
                    );
                    prop_assert_eq!(
                        got.times[i].value().to_bits(),
                        reference.times[i].value().to_bits()
                    );
                }
                prop_assert_eq!(
                    got.total_energy.value().to_bits(),
                    reference.total_energy.value().to_bits()
                );
                prop_assert_eq!(got.metrics.states_expanded, reference.metrics.states_expanded);
                prop_assert_eq!(got.metrics.states_pruned, reference.metrics.states_pruned);
            }
        }

        /// Tentpole #2 contract: a warm-started window refresh (retention
        /// solve, then an incremental repair after a random window shift,
        /// then a zero-diff re-push) returns plans **bit-identical** to
        /// from-scratch solves at every step.
        #[test]
        fn window_refresh_repair_matches_scratch(
            length in 700.0f64..1500.0,
            g1 in -6.0f64..6.0,
            g2 in -6.0f64..6.0,
            sign_frac in prop::option::of(0.3f64..0.7),
            frac in 0.35f64..0.75,
            delay in 0.0f64..8.0,
            width in 6.0f64..16.0,
            shift in -6.0f64..6.0,
        ) {
            let road = graded_road(length, &[0.0, g1, g2], sign_frac);
            let opt = DpOptimizer::new(
                EnergyModel::new(VehicleParams::spark_ev()),
                DpConfig::default(),
            )
            .unwrap();
            let free = opt.optimize(&road, &[]).unwrap();
            let pos = Meters::new((frac * length / 20.0).round() * 20.0);
            let t0 = free.arrival_time_at(pos) + Seconds::new(delay);
            let window_at = |s: f64| SignalConstraint {
                position: pos,
                windows: vec![TimeWindow {
                    start: t0 + Seconds::new(s),
                    end: t0 + Seconds::new(s + width),
                }],
            };
            let w0 = [window_at(0.0)];
            let w1 = [window_at(shift)];
            let mut arena = SolverArena::new();

            // First refresh has nothing retained: full retention solve.
            let first = opt
                .optimize_windows_refresh(&road, &w0, StartState::default(), &mut arena)
                .unwrap();
            prop_assert_eq!(first.metrics.repair_full_resolves, 1);
            let scratch0 = opt.optimize(&road, &w0).unwrap();
            prop_assert_eq!(&first, &scratch0);

            // Shifted windows: repaired (or re-solved) plan is
            // bit-identical to solving w1 from scratch.
            let repaired = opt
                .optimize_windows_refresh(&road, &w1, StartState::default(), &mut arena)
                .unwrap();
            let scratch1 = opt.optimize(&road, &w1).unwrap();
            prop_assert_eq!(&repaired, &scratch1);
            for i in 0..repaired.speeds.len() {
                prop_assert_eq!(
                    repaired.speeds[i].value().to_bits(),
                    scratch1.speeds[i].value().to_bits()
                );
                prop_assert_eq!(
                    repaired.times[i].value().to_bits(),
                    scratch1.times[i].value().to_bits()
                );
            }
            prop_assert_eq!(
                repaired.total_energy.value().to_bits(),
                scratch1.total_energy.value().to_bits()
            );
            // Exactly one of {repair hit, full re-solve} happened.
            prop_assert_eq!(
                repaired.metrics.repair_hits + repaired.metrics.repair_full_resolves,
                1
            );

            // Re-pushing identical windows is a zero-diff cache hit.
            let cached = opt
                .optimize_windows_refresh(&road, &w1, StartState::default(), &mut arena)
                .unwrap();
            prop_assert_eq!(cached.metrics.repair_hits, 1);
            prop_assert_eq!(cached.metrics.repair_full_resolves, 0);
            prop_assert_eq!(&cached, &scratch1);
        }
    }
}

mod random_corridors {
    use super::*;
    use velopt_common::units::VehiclesPerHour;
    use velopt_core::windows::{green_only_constraints, queue_aware_constraints};
    use velopt_queue::QueueParams;
    use velopt_road::CorridorTemplate;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The optimizer produces hard-constraint-satisfying profiles on
        /// arbitrary generated corridors (grades, multiple uncoordinated
        /// lights, optional stop sign), and its reported violation count
        /// agrees with a recount from the arrival times. (Zero violations
        /// is NOT guaranteed on arbitrary geometry — a corridor can be
        /// genuinely un-threadable within the speed envelope, which is
        /// exactly why Eq. 11 is a soft penalty.)
        #[test]
        fn dp_is_robust_on_generated_corridors(seed in 0u64..500) {
            let road = CorridorTemplate::default().generate(seed).unwrap();
            let opt = optimizer();
            let constraints =
                green_only_constraints(&road, opt.config().horizon);
            let profile = opt.optimize(&road, &constraints).unwrap();
            // Hard constraints hold everywhere.
            prop_assert_eq!(profile.speeds[0].value(), 0.0);
            prop_assert_eq!(profile.speeds.last().unwrap().value(), 0.0);
            for i in 1..profile.stations.len() {
                let ds = (profile.stations[i] - profile.stations[i - 1]).value();
                let a = (profile.speeds[i].value().powi(2)
                    - profile.speeds[i - 1].value().powi(2)) / (2.0 * ds);
                prop_assert!((-1.5 - 1e-6..=2.5 + 1e-6).contains(&a));
            }
            // The reported violation count matches a recount from the
            // plan's own arrival times (up to t-bin rounding at window
            // edges, which can flip an arrival across a boundary by less
            // than one bin).
            let recount = constraints
                .iter()
                .filter(|c| !c.admits(profile.arrival_time_at(c.position)))
                .count();
            prop_assert!(
                recount.abs_diff(profile.window_violations) <= 1,
                "reported {} vs recounted {recount}",
                profile.window_violations
            );
        }

        /// Queue-aware windows on generated corridors: whenever the DP
        /// reports a violation-free plan, every arrival really lies inside
        /// its T_q window.
        #[test]
        fn queue_windows_report_is_sound(seed in 0u64..500) {
            let road = CorridorTemplate::default().generate(seed).unwrap();
            let opt = optimizer();
            let rates = vec![VehiclesPerHour::new(300.0); road.traffic_lights().len()];
            let constraints = queue_aware_constraints(
                &road,
                &rates,
                QueueParams::us25_probe(),
                opt.config().horizon,
            )
            .unwrap();
            let profile = opt.optimize(&road, &constraints).unwrap();
            if profile.window_violations == 0 {
                for c in &constraints {
                    prop_assert!(c.admits(profile.arrival_time_at(c.position)));
                }
            }
            // Queue-aware windows are subsets of greens, so the queue-aware
            // plan can never have fewer options than green-only: its
            // violation count is at least the green-only one.
            let greens = green_only_constraints(&road, opt.config().horizon);
            let green_plan = opt.optimize(&road, &greens).unwrap();
            prop_assert!(profile.window_violations >= green_plan.window_violations);
        }
    }
}

mod bounds_memo {
    use super::*;
    use velopt_core::dp::{OptimizedProfile, SolverArena, StartState};

    /// A light's arrival windows at `position`: `green` seconds open every
    /// `cycle` seconds from `offset` on, across the planning horizon.
    fn light(position: f64, cycle: f64, green: f64, offset: f64) -> SignalConstraint {
        SignalConstraint {
            position: Meters::new(position),
            windows: (0..)
                .map(|k| offset + k as f64 * cycle)
                .take_while(|&open| open < 900.0)
                .map(|open| TimeWindow {
                    start: Seconds::new(open),
                    end: Seconds::new(open + green),
                })
                .collect(),
        }
    }

    /// Every station, speed and time bit, the energy and violation count,
    /// and the search-space counters agree.
    fn same_solve(got: &OptimizedProfile, want: &OptimizedProfile) -> Result<(), TestCaseError> {
        prop_assert_eq!(got.stations.len(), want.stations.len());
        for i in 0..want.stations.len() {
            prop_assert_eq!(
                got.stations[i].value().to_bits(),
                want.stations[i].value().to_bits()
            );
            prop_assert_eq!(
                got.speeds[i].value().to_bits(),
                want.speeds[i].value().to_bits()
            );
            prop_assert_eq!(
                got.times[i].value().to_bits(),
                want.times[i].value().to_bits()
            );
        }
        prop_assert_eq!(
            got.total_energy.value().to_bits(),
            want.total_energy.value().to_bits()
        );
        prop_assert_eq!(got.window_violations, want.window_violations);
        prop_assert_eq!(got.metrics.states_expanded, want.metrics.states_expanded);
        prop_assert_eq!(got.metrics.states_pruned, want.metrics.states_pruned);
        prop_assert_eq!(got.metrics.rows_skipped, want.metrics.rows_skipped);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        /// The window-bound memo is exact: a signalised corridor, flat or
        /// graded, re-planned at a random sequence of departures on one
        /// warm arena reuses one set of bound tables, and every warm solve
        /// equals a cold `optimize_from` bit for bit, work counters
        /// included. A window edge moved by one ulp is a new key, and so
        /// is the same corridor with its stop sign toggled (only the dwell
        /// times differ).
        #[test]
        fn warm_bound_tables_match_cold_solves(
            length in 700.0f64..1400.0,
            grades in prop::option::of((-6.0f64..6.0, -6.0f64..6.0)),
            sign_frac in prop::option::of(0.3f64..0.7),
            light_frac in 0.4f64..0.8,
            cycle in 40.0f64..90.0,
            green_frac in 0.3f64..0.6,
            offset in 0.0f64..40.0,
            departures in prop::collection::vec(0.0f64..500.0, 3..6),
        ) {
            let (g1, g2) = grades.unwrap_or((0.0, 0.0));
            let road = graded_road(length, &[0.0, g1, g2], sign_frac);
            let position = (light_frac * length / 20.0).round() * 20.0;
            let signals = [light(position, cycle, green_frac * cycle, offset)];
            let opt = optimizer();
            let mut arena = SolverArena::new();
            let depart = |t: f64| StartState {
                time: Seconds::new(t),
                ..StartState::default()
            };
            for &t in &departures {
                let warm = opt
                    .optimize_from_with(&road, &signals, depart(t), &mut arena)
                    .unwrap();
                let cold = opt.optimize_from(&road, &signals, depart(t)).unwrap();
                same_solve(&warm, &cold)?;
            }
            prop_assert_eq!(arena.cached_bounds(), 1, "a departure missed the memo");

            let mut nudged = signals.clone();
            let end = &mut nudged[0].windows[0].end;
            *end = Seconds::new(f64::from_bits(end.value().to_bits() + 1));
            let warm = opt
                .optimize_from_with(&road, &nudged, depart(departures[0]), &mut arena)
                .unwrap();
            prop_assert_eq!(arena.cached_bounds(), 2, "a one-ulp window shift hit the memo");
            same_solve(&warm, &opt.optimize_from(&road, &nudged, depart(departures[0])).unwrap())?;

            let toggled = graded_road(length, &[0.0, g1, g2], sign_frac.xor(Some(0.5)));
            let warm = opt
                .optimize_from_with(&toggled, &signals, depart(departures[0]), &mut arena)
                .unwrap();
            prop_assert_eq!(arena.cached_bounds(), 3, "a toggled stop sign hit the memo");
            same_solve(&warm, &opt.optimize_from(&toggled, &signals, depart(departures[0])).unwrap())?;
        }
    }
}

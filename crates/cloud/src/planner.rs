//! The warm solver behind every planning path (DESIGN.md §11).
//!
//! The server builds one [`DpOptimizer`] at spawn and keeps a pool of
//! [`SolverArena`]s. Every solve — a trip leader alone, a `REQ_BATCH` —
//! checks out one arena per batch thread for
//! [`DpOptimizer::optimize_batch_with`] (a lone trip runs inline on one
//! arena, through `optimize_from_with`). No request builds
//! an optimizer, and a warm arena keeps its layers, transition memo
//! and window-bound memo, so a miss reuses cost tables earlier misses
//! built instead of re-evaluating the energy model, and a corridor
//! re-planned at a new departure under the same windows reuses its pruning
//! tables. A plan's bits depend only on its request, never on the arena
//! that solved it, so pooling changes only the arena and memo counters in
//! `SolverMetrics`.
//!
//! Everything the pool keeps is bounded by constants:
//!
//! * at most `compute_workers` arenas;
//! * each arena's layers, through [`MAX_LATTICE_STATES`]: the trust
//!   boundary ([`check_lattice`]) refuses any trip whose exact-DP lattice
//!   exceeds it, and an arena's Exact stack keeps only the slots its sweeps
//!   wrote, never reserving past the largest lattice it solved;
//! * each arena's transition memo, through [`MAX_ARENA_CLASSES`] classes
//!   of at most [`MAX_LATTICE_SPEEDS`]² transitions each;
//! * each arena's window-bound memo, through
//!   [`BOUNDS_MEMO_BYTES`](velopt_core::memo::BOUNDS_MEMO_BYTES) of keys
//!   and tables, least recently used evicted first.
//!
//! An arena dropped for any reason — replaced, surplus to a full pool, or
//! released at shutdown — hands its memory back to the operating system.
//!
//! **Late trips.** The DP's clock ends at its horizon (900 s), so a trip
//! departing late on the signal clock cannot plan there. When such a
//! solve fails and the trip's arrival windows repeat with a period `C` no
//! longer than its departure `d` ([`repeat_period`]), the trip is solved
//! again at `d − k·C`, `k = ⌊d / C⌋`, and the plan's station times move
//! `k·C` later; durations such as `trip_time` keep the solve's bits. The
//! retry runs only after a failure, so a trip that plans at its own
//! departure keeps its bits, and it is cached under the request's own
//! bytes. A trip at or past the horizon whose windows do not repeat is
//! refused with an error naming why.

use crate::protocol::TripRequest;
use parking_lot::Mutex;
use velopt_common::units::Seconds;
use velopt_common::{Error, Result};
use velopt_core::batch::PlanRequest;
use velopt_core::dp::{
    DpConfig, DpOptimizer, OptimizedProfile, SignalConstraint, SolverArena, StartState,
};
use velopt_core::windows::{green_only_constraints, queue_aware_constraints, repeat_period};
use velopt_ev_energy::{EnergyModel, RegenPolicy, VehicleParams};
use velopt_road::Road;

/// Largest exact-DP lattice — stations × speed cells × time bins — the
/// server plans. Twice US-25's 3.8 M states (211 × 20 × 901) plus headroom;
/// the default `CorridorTemplate`'s 6 km corridors reach about 5.4 M. It
/// bounds a solve's work (an unbounded sweep relaxes at most every state)
/// and its worst-case occupancy: at 32 bytes a slot, an arena's Exact stack
/// stays under 256 MB even if a sweep wrote every slot. A sweep writes far
/// fewer (15,877 slots, about 0.5 MB, on US-25), and the stack holds only
/// those.
pub(crate) const MAX_LATTICE_STATES: u64 = 8_000_000;

/// Largest speed grid (cells of `dv`) the server plans: 63 m/s (227 km/h)
/// at the default 1 m/s resolution. It bounds each memoized transition
/// table at `MAX_LATTICE_SPEEDS²` entries.
pub(crate) const MAX_LATTICE_SPEEDS: u64 = 64;

/// Transition classes a pooled arena's memo may hold before the arena is
/// replaced by a fresh one. Flat corridor segments share a handful of
/// classes; every graded segment is a class of its own, so a server fed
/// ever-new graded corridors would otherwise grow each memo without limit.
pub(crate) const MAX_ARENA_CLASSES: usize = 1024;

/// The optimizer every trip is planned with: the same physically-grounded
/// model the local pipeline uses.
pub(crate) fn corridor_optimizer() -> Result<DpOptimizer> {
    let energy = EnergyModel::with_regen(
        VehicleParams::spark_ev(),
        RegenPolicy::Limited {
            efficiency: 0.6,
            cutoff: velopt_common::units::MetersPerSecond::new(1.5),
        },
    );
    DpOptimizer::new(energy, DpConfig::default())
}

/// The trust-boundary check every planning path runs before any planning:
/// the road's length and speed limits must be finite, and the exact-DP
/// lattice of a solve from its origin under `config` must fit
/// [`MAX_LATTICE_SPEEDS`] and [`MAX_LATTICE_STATES`]. Decoding alone admits
/// an infinite corridor (the station grid would never end) or a speed limit
/// of `1e12` m/s (the layer allocation would abort the process).
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] naming the offending value.
pub(crate) fn check_lattice(road: &Road, config: &DpConfig) -> Result<()> {
    let length = road.length().value();
    if !length.is_finite() {
        return Err(Error::invalid_input(format!(
            "road length {length} m is not finite"
        )));
    }
    let (lo, hi) = road.default_limits();
    let finite_limits = [lo, hi]
        .into_iter()
        .chain(road.speed_zones().iter().flat_map(|z| [z.min, z.max]))
        .all(|v| v.value().is_finite());
    if !finite_limits {
        return Err(Error::invalid_input("speed limits must be finite"));
    }
    // Upper bounds of the station, speed and bin counts `DpOptimizer`
    // derives, computed in floating point so no count can overflow. Besides
    // the grid, a solve adds at most one station between each two
    // consecutive rest stops: origin, stop signs, destination.
    let rest_pairs = road.stop_signs().len() as f64 + 1.0;
    let stations = (length / config.ds.value()).ceil() + 1.0 + rest_pairs;
    let speeds = (road.max_speed_limit().value() / config.dv.value())
        .floor()
        .max(0.0)
        + 1.0;
    let bins = (config.horizon.value() / config.dt_bin.value()).ceil() + 1.0;
    if speeds > MAX_LATTICE_SPEEDS as f64 {
        return Err(Error::invalid_input(format!(
            "speed grid of {speeds} cells exceeds the server's cap of {MAX_LATTICE_SPEEDS}"
        )));
    }
    let states = stations * speeds * bins;
    if states > MAX_LATTICE_STATES as f64 {
        return Err(Error::invalid_input(format!(
            "DP lattice of {states:.0} states ({stations} stations x {speeds} speeds x \
             {bins} time bins) exceeds the server's budget of {MAX_LATTICE_STATES}"
        )));
    }
    Ok(())
}

/// A trip that passed validation and the lattice check, with its arrival
/// windows built: ready to solve.
pub(crate) struct Admitted<'t> {
    trip: &'t TripRequest,
    signals: Vec<SignalConstraint>,
}

impl Admitted<'_> {
    /// The trip's solve, departing at `time` on the signal clock.
    fn plan_request(&self, time: Seconds) -> PlanRequest<'_> {
        PlanRequest {
            road: &self.trip.road,
            signals: &self.signals,
            start: StartState {
                time,
                ..StartState::default()
            },
        }
    }

    /// Where the trip plans when its solve at its departure `d` failed:
    /// `Some((d − k·C, k·C))` when its windows repeat with a period `C ≤ d`
    /// (`k = ⌊d / C⌋`), and `None` when no whole period fits before `d`.
    ///
    /// # Errors
    ///
    /// A trip departing at or past `horizon` that cannot move back under
    /// it by whole periods gets an error naming why: the light whose queue
    /// outlives its green, cycles with no common period, or a period longer
    /// than the departure.
    fn late_phase(&self, horizon: Seconds) -> Result<Option<(Seconds, Seconds)>> {
        let trip = self.trip;
        let d = trip.departure.value();
        let period = repeat_period(&trip.road, &trip.rates, trip.queue, trip.queue_aware);
        match period {
            Ok(c) if c.value() <= d => {
                let phase = d % c.value();
                Ok(Some((Seconds::new(phase), Seconds::new(d - phase))))
            }
            _ if d < horizon.value() => Ok(None),
            Ok(c) => Err(Error::invalid_input(format!(
                "departure {d} s is at or past the planning horizon of {} s, and the \
                 trip's arrival windows repeat only every {} s",
                horizon.value(),
                c.value()
            ))),
            Err(cause) => Err(Error::invalid_input(format!(
                "departure {d} s is at or past the planning horizon of {} s, and cannot \
                 move back by whole signal periods: {cause}",
                horizon.value()
            ))),
        }
    }
}

/// One optimizer and a bounded pool of warm arenas, shared by every
/// compute worker.
pub(crate) struct Planner {
    optimizer: DpOptimizer,
    pool: Mutex<Vec<SolverArena>>,
    keep: usize,
    class_cap: usize,
    /// Batch workers: one per available core.
    threads: usize,
}

impl std::fmt::Debug for Planner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Planner")
            .field("keep", &self.keep)
            .field("pooled", &self.pool.lock().len())
            .finish_non_exhaustive()
    }
}

impl Planner {
    /// Builds the server's optimizer; the pool keeps at most `keep` arenas.
    pub(crate) fn new(keep: usize) -> Result<Self> {
        Ok(Self::with_class_cap(
            corridor_optimizer()?,
            keep,
            MAX_ARENA_CLASSES,
        ))
    }

    fn with_class_cap(optimizer: DpOptimizer, keep: usize, class_cap: usize) -> Self {
        Self {
            optimizer,
            pool: Mutex::new(Vec::with_capacity(keep)),
            keep,
            class_cap,
            threads: velopt_common::par::effective_threads(0),
        }
    }

    /// The optimizer every trip is planned with.
    pub(crate) fn optimizer(&self) -> &DpOptimizer {
        &self.optimizer
    }

    /// Validates a trip at the trust boundary and builds its per-signal
    /// arrival windows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for an inconsistent trip or one whose
    /// lattice the server cannot afford (see [`check_lattice`]).
    pub(crate) fn admit<'t>(&self, trip: &'t TripRequest) -> Result<Admitted<'t>> {
        let config = self.optimizer.config();
        trip.validated()?;
        check_lattice(&trip.road, config)?;
        let signals = if trip.queue_aware {
            queue_aware_constraints(&trip.road, &trip.rates, trip.queue, config.horizon)?
        } else {
            green_only_constraints(&trip.road, config.horizon)
        };
        Ok(Admitted { trip, signals })
    }

    /// Solves admitted trips concurrently, one pooled arena per batch
    /// worker (one worker per core, capped by the trip count); results
    /// come back in order. A trip whose solve fails is retried once at its
    /// phase in its windows' period (see the module docs on late trips).
    pub(crate) fn solve_batch(&self, trips: &[Admitted<'_>]) -> Vec<Result<OptimizedProfile>> {
        let requests: Vec<PlanRequest<'_>> = trips
            .iter()
            .map(|t| t.plan_request(t.trip.departure))
            .collect();
        let mut results = self.solve(&requests);
        let horizon = self.optimizer.config().horizon;
        let mut late = Vec::new();
        for (i, (trip, result)) in trips.iter().zip(&mut results).enumerate() {
            if result.is_ok() {
                continue;
            }
            match trip.late_phase(horizon) {
                Ok(Some((phase, shift))) => late.push((i, trip.plan_request(phase), shift)),
                Ok(None) => {}
                Err(e) => *result = Err(e),
            }
        }
        if late.is_empty() {
            return results;
        }
        let requests: Vec<PlanRequest<'_>> = late.iter().map(|(_, r, _)| *r).collect();
        for ((i, _, shift), retried) in late.into_iter().zip(self.solve(&requests)) {
            results[i] = retried.map(|mut profile| {
                for time in &mut profile.times {
                    *time += shift;
                }
                profile
            });
        }
        results
    }

    fn solve(&self, requests: &[PlanRequest<'_>]) -> Vec<Result<OptimizedProfile>> {
        let workers = self.threads.min(requests.len().max(1));
        let mut arenas: Vec<SolverArena> = (0..workers).map(|_| self.checkout()).collect();
        let results = self.optimizer.optimize_batch_with(requests, &mut arenas);
        for arena in arenas {
            self.checkin(arena);
        }
        results
    }

    /// Drops every pooled arena and hands their memory back to the
    /// operating system; called once the server's workers have exited.
    pub(crate) fn release(&self) {
        self.pool.lock().clear();
        release_freed_memory();
    }

    fn checkout(&self) -> SolverArena {
        self.pool.lock().pop().unwrap_or_default()
    }

    /// Returns an arena to the pool, unless its transition memo has
    /// outgrown the class cap (it is then replaced: a later checkout starts
    /// a fresh one) or the pool already keeps `keep` arenas. A dropped
    /// arena's memory goes back to the operating system.
    fn checkin(&self, arena: SolverArena) {
        if arena.cached_classes() > self.class_cap {
            telemetry::add("cloud.arena.replaced", 1);
        } else {
            let mut pool = self.pool.lock();
            if pool.len() < self.keep {
                pool.push(arena);
                return;
            }
        }
        drop(arena);
        release_freed_memory();
    }
}

/// Returns the heap pages freed by dropped arenas to the operating system.
/// A warm arena holds its layers and memo tables, up to several megabytes
/// (a 4 MiB window-bound memo alone); glibc keeps freed memory in the
/// malloc arena of the thread that allocated it,
/// where the allocations of a fresh arena — on another worker, or in the
/// next server of the process — need not land, so every dropped arena
/// would otherwise stay in the resident set on top of its replacement.
fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` takes no pointers and has no preconditions;
        // it only returns free heap pages to the kernel, under the
        // allocator's own locks, and may be called from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velopt_common::units::{Meters, MetersPerSecond};
    use velopt_road::{CorridorTemplate, RoadBuilder};

    fn bits(profile: &OptimizedProfile) -> Vec<u64> {
        let mut bits: Vec<u64> = profile
            .stations
            .iter()
            .map(|s| s.value().to_bits())
            .chain(profile.speeds.iter().map(|v| v.value().to_bits()))
            .chain(profile.times.iter().map(|t| t.value().to_bits()))
            .collect();
        bits.push(profile.total_energy.value().to_bits());
        bits.push(profile.trip_time.value().to_bits());
        bits.push(profile.window_violations as u64);
        bits
    }

    fn solve_one(planner: &Planner, trip: &Admitted<'_>) -> OptimizedProfile {
        planner
            .solve_batch(std::slice::from_ref(trip))
            .remove(0)
            .unwrap()
    }

    fn trip_on(seed: u64, length: (f64, f64), max_grade_percent: f64) -> TripRequest {
        let template = CorridorTemplate {
            length,
            max_grade_percent,
            ..CorridorTemplate::default()
        };
        let road = template.generate(seed).unwrap();
        let lights = road.traffic_lights().len();
        TripRequest {
            road,
            rates: vec![velopt_common::units::VehiclesPerHour::new(700.0); lights],
            ..TripRequest::us25_at(30.0)
        }
    }

    #[test]
    fn lattice_check_admits_us25_and_the_template_and_names_what_it_refuses() {
        let config = DpConfig::default();
        let us25 = velopt_road::Road::us25();
        check_lattice(&us25, &config).unwrap();
        // Twice US-25's lattice fits: a corridor twice as long, as fast.
        let twice = RoadBuilder::new(us25.length() * 2.0)
            .default_limits(MetersPerSecond::new(5.0), us25.max_speed_limit())
            .build()
            .unwrap();
        check_lattice(&twice, &config).unwrap();
        let longest = trip_on(1, (6000.0, 6000.0), 4.0);
        assert!(check_lattice(&longest.road, &config).is_ok());
        // The stations a solve may add between rest stops count: 441 grid
        // segments and one added station fit, one sign more does not.
        let signed = |signs: &[f64]| {
            let mut builder = RoadBuilder::new(Meters::new(8820.0));
            builder.default_limits(MetersPerSecond::new(5.0), us25.max_speed_limit());
            for &x in signs {
                builder.stop_sign(Meters::new(x));
            }
            builder.build().unwrap()
        };
        check_lattice(&signed(&[]), &config).unwrap();
        let err = check_lattice(&signed(&[4000.0]), &config).unwrap_err();
        assert!(err.to_string().contains("budget"), "{err}");

        let road = |length: f64, hi: f64| {
            RoadBuilder::new(Meters::new(length))
                .default_limits(MetersPerSecond::new(5.0), MetersPerSecond::new(hi))
                .build()
                .unwrap()
        };
        let err = check_lattice(&road(f64::INFINITY, 20.0), &config).unwrap_err();
        assert!(err.to_string().contains("not finite"), "{err}");
        let err = check_lattice(&road(1e9, 20.0), &config).unwrap_err();
        assert!(err.to_string().contains("budget"), "{err}");
        let err = check_lattice(&road(1000.0, 1e12), &config).unwrap_err();
        assert!(err.to_string().contains("speed grid"), "{err}");
        let err = check_lattice(&road(1000.0, f64::INFINITY), &config).unwrap_err();
        assert!(err.to_string().contains("finite"), "{err}");
    }

    /// Trips on corridors of different lengths and grades, interleaved on
    /// one pooled arena with a tiny class cap. A flat corridor's two
    /// classes fit, so its arena is kept; a graded corridor gives every
    /// segment a class of its own, so the arena that solved it is
    /// replaced. Every plan stays bit-identical to a cold `optimize_from`.
    #[test]
    fn arena_past_the_class_cap_is_replaced_and_plans_keep_their_bits() {
        const CAP: usize = 8;
        let cold = corridor_optimizer().unwrap();
        let planner = Planner::with_class_cap(corridor_optimizer().unwrap(), 1, CAP);
        let flat = trip_on(3, (600.0, 900.0), 0.0);
        let graded = trip_on(4, (1500.0, 2500.0), 4.0);
        // (trip, arena kept afterwards)
        let steps = [
            (&flat, true),
            (&graded, false),
            (&flat, true),
            (&flat, true),
        ];
        for (i, (trip, kept)) in steps.into_iter().enumerate() {
            let admitted = planner.admit(trip).unwrap();
            let warm = solve_one(&planner, &admitted);
            let reference = cold
                .optimize_from(
                    &trip.road,
                    &admitted.signals,
                    StartState {
                        time: trip.departure,
                        ..StartState::default()
                    },
                )
                .unwrap();
            assert_eq!(bits(&warm), bits(&reference), "step {i}");
            let pool = planner.pool.lock();
            assert_eq!(pool.len(), usize::from(kept), "step {i}");
            assert!(pool.iter().all(|arena| arena.cached_classes() <= CAP));
            // The flat trip after the replacement starts on a fresh arena
            // and rebuilds its tables; the one after that reuses them.
            match i {
                2 => assert!(warm.metrics.memo_misses > 0),
                3 => assert_eq!(warm.metrics.memo_misses, 0),
                _ => {}
            }
        }
    }

    /// Where a trip whose solve failed plans instead, or why it cannot.
    #[test]
    fn late_trips_move_back_by_whole_periods_or_name_why_not() {
        let planner = Planner::new(1).unwrap();
        let horizon = planner.optimizer().config().horizon;
        let phase = |trip: &TripRequest| planner.admit(trip).unwrap().late_phase(horizon);
        let s = Seconds::new;
        // Both US-25 lights run 30/30 s: a 60 s period.
        let moved = phase(&TripRequest::us25_at(3630.0)).unwrap();
        assert_eq!(moved, Some((s(30.0), s(3600.0))));
        assert_eq!(phase(&TripRequest::us25_at(45.0)).unwrap(), None);
        // At 3,000 veh/h a queue outlives its green. Inside the horizon
        // the solve's own error stands; at or past it, the cause is named.
        let jammed = |t: f64| TripRequest {
            rates: vec![velopt_common::units::VehiclesPerHour::new(3000.0); 2],
            ..TripRequest::us25_at(t)
        };
        assert_eq!(phase(&jammed(850.0)).unwrap(), None);
        let err = phase(&jammed(900.0)).unwrap_err().to_string();
        assert!(err.contains("light 0's queue outlives"), "{err}");
        // Cycles of 60 s and 60.5 s repeat every 7,260 s; cycles off the
        // millisecond grid never do.
        let on = |green: f64, t: f64| {
            let road = RoadBuilder::new(Meters::new(1000.0))
                .default_limits(MetersPerSecond::new(5.0), MetersPerSecond::new(15.0))
                .traffic_light(Meters::new(300.0), s(30.0), s(30.0), s(0.0))
                .traffic_light(Meters::new(700.0), s(30.0), s(green), s(10.0))
                .build()
                .unwrap();
            TripRequest {
                road,
                queue_aware: false,
                ..TripRequest::us25_at(t)
            }
        };
        assert_eq!(
            phase(&on(30.5, 7300.0)).unwrap(),
            Some((s(40.0), s(7260.0)))
        );
        let err = phase(&on(30.5, 1000.0)).unwrap_err().to_string();
        assert!(err.contains("repeat only every 7260 s"), "{err}");
        let err = phase(&on(30.0004, 1000.0)).unwrap_err().to_string();
        assert!(
            err.contains("no common period in whole milliseconds"),
            "{err}"
        );
    }

    #[test]
    fn pool_keeps_at_most_its_bound_and_batches_match_singles() {
        let planner = Planner::with_class_cap(corridor_optimizer().unwrap(), 2, MAX_ARENA_CLASSES);
        let trips: Vec<TripRequest> = (0..5).map(|s| trip_on(s, (600.0, 1200.0), 4.0)).collect();
        let admitted: Vec<Admitted<'_>> = trips.iter().map(|t| planner.admit(t).unwrap()).collect();
        let batch = planner.solve_batch(&admitted);
        assert!(planner.pool.lock().len() <= 2);
        for (trip, batched) in admitted.iter().zip(batch) {
            let single = solve_one(&planner, trip);
            assert_eq!(bits(&batched.unwrap()), bits(&single));
        }
        assert!(planner.pool.lock().len() <= 2);
    }
}

//! The warm solver behind every planning path (DESIGN.md §11).
//!
//! The server builds one [`DpOptimizer`] at spawn and keeps a pool of
//! [`SolverArena`]s. Every solve — a trip leader alone, a `REQ_BATCH` —
//! checks out one arena per batch thread for
//! [`DpOptimizer::optimize_batch_with`] (a lone trip runs inline on one
//! arena, through `optimize_from_with`). No request builds
//! an optimizer, and a warm arena keeps its layer buffers, transition memo
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
//! * each arena's layer stack, through [`MAX_LATTICE_STATES`]: the trust
//!   boundary ([`check_lattice`]) refuses any trip whose exact-DP lattice
//!   exceeds it, and an arena whose envelope of solved lattices (most
//!   stations × longest layer) passes it is replaced;
//! * each arena's transition memo, through [`MAX_ARENA_CLASSES`] classes
//!   of at most [`MAX_LATTICE_SPEEDS`]² transitions each;
//! * each arena's window-bound memo, through
//!   [`BOUNDS_MEMO_BYTES`](velopt_core::memo::BOUNDS_MEMO_BYTES) of keys
//!   and tables, least recently used evicted first.
//!
//! An arena dropped for any reason — replaced, surplus to a full pool, or
//! released at shutdown — hands its memory back to the operating system.

use crate::protocol::TripRequest;
use parking_lot::Mutex;
use velopt_common::{Error, Result};
use velopt_core::batch::PlanRequest;
use velopt_core::dp::{
    DpConfig, DpOptimizer, OptimizedProfile, SignalConstraint, SolverArena, StartState,
};
use velopt_core::windows::{green_only_constraints, queue_aware_constraints};
use velopt_ev_energy::{EnergyModel, RegenPolicy, VehicleParams};
use velopt_road::Road;

/// Largest exact-DP lattice — stations × speed cells × time bins — the
/// server plans. Twice US-25's 3.8 M states (211 × 20 × 901) plus headroom;
/// the default `CorridorTemplate`'s 6 km corridors reach about 5.4 M. At
/// 32 bytes a state, one arena's layer stack stays under 256 MB.
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

/// The shape of an exact solve's layer stack: `stations` layers of `row`
/// slots (speed cells × time bins) each.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Lattice {
    stations: u64,
    row: u64,
}

impl Lattice {
    fn states(self) -> u64 {
        self.stations.saturating_mul(self.row)
    }

    /// The smallest shape covering both: what a layer pool that served
    /// both solves keeps.
    fn envelope(self, other: Self) -> Self {
        Self {
            stations: self.stations.max(other.stations),
            row: self.row.max(other.row),
        }
    }
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
pub(crate) fn check_lattice(road: &Road, config: &DpConfig) -> Result<Lattice> {
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
    // derives, computed in floating point so no count can overflow.
    let stations = (length / config.ds.value()).ceil() + 1.0;
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
    Ok(Lattice {
        stations: stations as u64,
        row: (speeds * bins) as u64,
    })
}

/// A trip that passed validation and the lattice check, with its arrival
/// windows built: ready to solve.
pub(crate) struct Admitted<'t> {
    trip: &'t TripRequest,
    signals: Vec<SignalConstraint>,
    lattice: Lattice,
}

impl Admitted<'_> {
    fn plan_request(&self) -> PlanRequest<'_> {
        PlanRequest {
            road: &self.trip.road,
            signals: &self.signals,
            start: StartState {
                time: self.trip.departure,
                ..StartState::default()
            },
        }
    }
}

/// One optimizer and a bounded pool of warm arenas, shared by every
/// compute worker.
pub(crate) struct Planner {
    optimizer: DpOptimizer,
    /// Each pooled arena with the envelope of every lattice it has solved,
    /// which bounds the layer stack it retains.
    pool: Mutex<Vec<(SolverArena, Lattice)>>,
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
        let lattice = check_lattice(&trip.road, config)?;
        let signals = if trip.queue_aware {
            queue_aware_constraints(&trip.road, &trip.rates, trip.queue, config.horizon)?
        } else {
            green_only_constraints(&trip.road, config.horizon)
        };
        Ok(Admitted {
            trip,
            signals,
            lattice,
        })
    }

    /// Solves admitted trips concurrently, one pooled arena per batch
    /// worker (one worker per core, capped by the trip count); results
    /// come back in order.
    pub(crate) fn solve_batch(&self, trips: &[Admitted<'_>]) -> Vec<Result<OptimizedProfile>> {
        let requests: Vec<PlanRequest<'_>> = trips.iter().map(Admitted::plan_request).collect();
        let workers = self.threads.min(trips.len().max(1));
        let (mut arenas, envelopes): (Vec<SolverArena>, Vec<Lattice>) =
            (0..workers).map(|_| self.checkout()).unzip();
        let results = self.optimizer.optimize_batch_with(&requests, &mut arenas);
        // Any worker may have solved any trip's shape; cover them all.
        let solved = trips
            .iter()
            .fold(Lattice::default(), |e, t| e.envelope(t.lattice));
        for (arena, envelope) in arenas.into_iter().zip(envelopes) {
            self.checkin(arena, envelope.envelope(solved));
        }
        results
    }

    /// Drops every pooled arena and hands their memory back to the
    /// operating system; called once the server's workers have exited.
    pub(crate) fn release(&self) {
        self.pool.lock().clear();
        release_freed_memory();
    }

    fn checkout(&self) -> (SolverArena, Lattice) {
        self.pool.lock().pop().unwrap_or_default()
    }

    /// Returns an arena to the pool, unless it has outgrown a bound (it is
    /// then replaced: a later checkout starts a fresh one) or the pool
    /// already keeps `keep` arenas. A dropped arena's memory goes back to
    /// the operating system.
    fn checkin(&self, arena: SolverArena, envelope: Lattice) {
        if arena.cached_classes() > self.class_cap || envelope.states() > MAX_LATTICE_STATES {
            telemetry::add("cloud.arena.replaced", 1);
        } else {
            let mut pool = self.pool.lock();
            if pool.len() < self.keep {
                pool.push((arena, envelope));
                return;
            }
        }
        drop(arena);
        release_freed_memory();
    }
}

/// Returns the heap pages freed by dropped arenas to the operating system.
/// A warm arena is tens to hundreds of megabytes of layer buffers; glibc
/// keeps freed memory in the malloc arena of the thread that allocated it,
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
        let us25 = check_lattice(&velopt_road::Road::us25(), &config).unwrap();
        assert!(us25.states() * 2 <= MAX_LATTICE_STATES, "{us25:?}");
        let longest = trip_on(1, (6000.0, 6000.0), 4.0);
        assert!(check_lattice(&longest.road, &config).is_ok());

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
            assert!(pool.iter().all(|(arena, _)| arena.cached_classes() <= CAP));
            // The flat trip after the replacement starts on a fresh arena
            // and rebuilds its tables; the one after that reuses them.
            match i {
                2 => assert!(warm.metrics.memo_misses > 0),
                3 => assert_eq!(warm.metrics.memo_misses, 0),
                _ => {}
            }
        }
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

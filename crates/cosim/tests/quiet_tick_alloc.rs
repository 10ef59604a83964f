//! A quiet fleet tick allocates nothing on the driver's thread.
//!
//! The global allocator counts allocations per thread, so the TraCI and
//! cloud servers' threads — which answer the tick — are not counted. A
//! tick is quiet when it lists no new vehicle, loses none, sees no signal
//! flip and plans nothing: it sends one TraCI message, and after warm-up
//! every buffer it writes or reads has the capacity it needs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use velopt_cloud::{CloudServer, ServerConfig};
use velopt_common::units::{Meters, Seconds, VehiclesPerHour};
use velopt_cosim::{CosimConfig, FleetDriver};
use velopt_microsim::{CorridorSpec, Network, SimConfig};
use velopt_road::{CorridorTemplate, Road};
use velopt_traci::{TraciBackend, TraciServer};

/// The system allocator, counting each thread's allocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down still allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the caller's arguments,
// so `System`'s guarantees hold; counting touches only a const-initialized
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A chain of `corridors` generated corridors with `rate` veh/h entering
/// each, each with an entrance loop, warmed up for five minutes.
fn network(corridors: usize, rate: f64) -> (Network, Vec<Road>) {
    let template = CorridorTemplate {
        length: (600.0, 800.0),
        ..CorridorTemplate::default()
    };
    let roads: Vec<Road> = (0..corridors)
        .map(|i| template.generate(41 + i as u64).unwrap())
        .collect();
    let specs = roads
        .iter()
        .enumerate()
        .map(|(i, road)| {
            let mut spec = if i + 1 < corridors {
                CorridorSpec::through(road.clone(), i + 1)
            } else {
                CorridorSpec::terminal(road.clone())
            };
            spec.arrival_rate = VehiclesPerHour::new(rate);
            spec.detectors = vec![Meters::new(25.0)];
            spec
        })
        .collect();
    let mut net = Network::new(specs, 1, SimConfig::default()).unwrap();
    net.run_until(Seconds::new(300.0)).unwrap();
    (net, roads)
}

/// Drives the fleet for a minute of warm-up and then two more, and checks
/// every quiet tick of those two allocated nothing. Returns the quiet
/// ticks checked and the mean live vehicles over them.
fn quiet_ticks_allocate_nothing(corridors: usize, rate: f64) -> (usize, f64) {
    let (net, roads) = network(corridors, rate);
    let traci = TraciServer::spawn(net).unwrap();
    let sim = traci.simulation();
    let cloud = CloudServer::spawn_with(ServerConfig {
        compute_workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut driver =
        FleetDriver::connect(traci.addr(), cloud.addr(), roads, CosimConfig::default()).unwrap();
    let listed = || -> BTreeSet<String> {
        TraciBackend::vehicle_ids(&*sim.lock())
            .into_iter()
            .collect()
    };
    let (mut quiet, mut live) = (0, 0);
    for tick in 0..1800 {
        let before = (listed(), driver.stats());
        let counted = allocations();
        driver.step().unwrap();
        let allocated = allocations() - counted;
        let after = (listed(), driver.stats());
        let is_quiet = before.0 == after.0
            && before.1.flips == after.1.flips
            && before.1.replans == after.1.replans;
        if tick >= 600 && is_quiet {
            assert_eq!(
                allocated,
                0,
                "quiet tick {tick} with {} vehicles allocated",
                after.0.len()
            );
            quiet += 1;
            live += after.0.len();
        }
    }
    driver.close().unwrap();
    cloud.shutdown();
    traci.join();
    (quiet, live as f64 / quiet.max(1) as f64)
}

#[test]
fn a_quiet_tick_allocates_nothing_at_a_few_vehicles() {
    let (quiet, live) = quiet_ticks_allocate_nothing(2, 80.0);
    assert!(quiet > 100, "{quiet} quiet ticks");
    assert!((4.0..=6.5).contains(&live), "{live} live vehicles");
}

#[test]
fn a_quiet_tick_allocates_nothing_at_forty_vehicles() {
    let (quiet, live) = quiet_ticks_allocate_nothing(3, 740.0);
    assert!(quiet > 100, "{quiet} quiet ticks");
    assert!((35.0..=50.0).contains(&live), "{live} live vehicles");
}

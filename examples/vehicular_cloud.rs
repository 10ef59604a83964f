//! A fleet of EVs using the vehicular-cloud service (the deployment model
//! the paper's introduction cites from [6], [7]).
//!
//! Each EV uploads its trip (corridor, departure time, predicted arrival
//! rates) over TCP; the cloud runs the queue-aware DP on a worker pool and
//! answers with the profile. EVs departing in the same signal cycle with
//! the same demand get byte-identical requests, so the cloud solves each
//! once: requests racing that solve wait for it, later ones hit the plan
//! cache.
//!
//! ```sh
//! cargo run --release --example vehicular_cloud
//! ```

use velopt::cloud::{CloudClient, CloudServer, TripRequest};
use velopt::Result;

fn main() -> Result<()> {
    let server = CloudServer::spawn(4)?;
    let addr = server.addr();
    println!("cloud listening on {addr} with 4 optimization workers");

    // A morning fleet: 12 EVs, departures spread over three signal cycles.
    // Departure times are on the signal clock, so cycle-aligned departures
    // (60 s apart) produce identical plans.
    let handles: Vec<_> = (0..12)
        .map(|i| {
            std::thread::spawn(move || -> Result<(usize, f64, f64)> {
                let mut client = CloudClient::connect(addr)?;
                let depart = (i % 3) as f64 * 60.0;
                let profile = client.request(&TripRequest::us25_at(depart))?;
                Ok((
                    i,
                    profile.trip_time.value(),
                    profile.total_energy.to_milliamp_hours(),
                ))
            })
        })
        .collect();

    println!("\n ev  depart  trip(s)  energy(mAh)");
    for h in handles {
        let (i, trip, energy) = h.join().expect("vehicle thread panicked")?;
        println!(
            " {i:>2}  {:>6.0}  {trip:>7.1}  {energy:>11.1}",
            (i % 3) as f64 * 60.0
        );
    }

    let mut client = CloudClient::connect(addr)?;
    let (served, hits) = client.stats()?;
    let stats = server.stats();
    println!(
        "\ncloud served {served} requests: {} optimizations (one per distinct \
         departure cycle), {} shared an identical in-flight solve, {hits} from \
         the plan cache",
        stats.coalesce_flights(),
        stats.coalesce_hits(),
    );

    // The fleet-gateway path: instead of one connection per EV, a gateway
    // aggregates the next wave into a single batch frame. The cloud plans
    // the batch's distinct trips concurrently and answers in request order;
    // members whose trips match earlier singles are served from the same
    // plan cache, and repeats within the batch share one solve.
    let wave: Vec<TripRequest> = (0..6)
        .map(|i| TripRequest::us25_at((i % 3) as f64 * 60.0 + 30.0))
        .collect();
    let (repeats_before, cached_before) = (stats.coalesce_hits(), stats.cache_hits());
    let results = client.plan_batch(&wave)?;
    println!("\ngateway batch of {} trips:", wave.len());
    for (i, result) in results.iter().enumerate() {
        match result {
            Ok(p) => {
                let m = &p.metrics;
                println!(
                    " {i:>2}  trip {:>5.1} s  energy {:>7.1} mAh  \
                     (solver: {} states, {:.0} ms relax)",
                    p.trip_time.value(),
                    p.total_energy.to_milliamp_hours(),
                    m.states_expanded,
                    m.relax_seconds * 1e3
                );
            }
            Err(e) => println!(" {i:>2}  rejected: {e}"),
        }
    }
    let repeats = stats.coalesce_hits() - repeats_before;
    let cached = stats.cache_hits() - cached_before;
    println!(
        "batch: {} fresh solves, {repeats} repeats of an earlier member, {cached} from the \
         plan cache",
        wave.len() as u64 - repeats - cached
    );
    let (served, hits) = client.stats()?;
    println!("cloud totals: served {served}, cache hits {hits}");
    server.shutdown();
    Ok(())
}

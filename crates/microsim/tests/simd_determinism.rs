//! Kernel-dispatch bit-identity of the multi-corridor [`Network`].
//!
//! Companion to `network_determinism.rs`: where that suite pins shard-count
//! invariance, this one pins *dispatch* invariance — an auto-dispatch run
//! (AVX2 lane kernels where the host supports them) is `f64::to_bits`
//! identical to a forced-scalar (`simd: false`) run, at 1, 2, and 4 shards,
//! on the random junction graphs of `support/mod.rs`, seeds, and traffic
//! mixes. Together the two suites give the full matrix: {scalar, simd} ×
//! {1, 2, 4 shards} all produce one bit pattern.

mod support;

use proptest::prelude::*;
use support::Layout;
use velopt_common::units::{MetersPerSecond, Seconds};
use velopt_microsim::{Network, NetworkStats, SimConfig};

/// Runs the network with the given dispatch knob and returns its complete
/// observability surface.
fn run(seed: u64, rate: f64, shards: usize, simd: bool) -> (u64, u64, NetworkStats, u64) {
    let config = SimConfig {
        seed,
        straight_ratio: 0.9,
        truck_fraction: 0.15,
        idm_fraction: 0.25,
        simd,
        ..SimConfig::default()
    };
    let layout = Layout::random(seed);
    let specs = layout.specs(seed, 0x51D0_0000, rate);
    let mut net = Network::new(specs, shards, config).unwrap();
    net.spawn_ego(layout.ego, MetersPerSecond::new(5.0))
        .unwrap();
    net.run_until(Seconds::new(300.0)).unwrap();
    (
        net.ego_trace_hash(),
        net.state_hash(),
        net.stats(),
        net.step_metrics().total_lanes(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Auto dispatch and forced scalar agree bit for bit — ego trace hash,
    /// state hash, aggregate stats, and total lane work — at every shard
    /// count the bench suite uses.
    #[test]
    fn scalar_and_simd_dispatch_are_bit_identical(
        seed in any::<u64>(),
        rate in 300.0f64..900.0,
    ) {
        let (th_s, sh_s, stats_s, lanes_s) = run(seed, rate, 1, false);
        for shards in [1usize, 2, 4] {
            let (th_a, sh_a, stats_a, lanes_a) = run(seed, rate, shards, true);
            prop_assert_eq!(th_s, th_a, "trace hash diverged at {} shards", shards);
            prop_assert_eq!(sh_s, sh_a, "state hash diverged at {} shards", shards);
            prop_assert_eq!(stats_s, stats_a);
            prop_assert_eq!(
                lanes_s, lanes_a,
                "total lane work is dispatch-invariant by construction"
            );
        }
    }
}

/// Deterministic witness at a fixed seed, so a dispatch regression fails
/// fast and reproducibly even outside proptest.
#[test]
fn fixed_seed_dispatch_bit_identity() {
    let scalar = run(0x00AD_BEEF, 700.0, 1, false);
    for shards in [1usize, 2, 4] {
        assert_eq!(scalar, run(0x00AD_BEEF, 700.0, shards, true));
    }
}

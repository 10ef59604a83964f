//! Shard-count bit-identity of the multi-corridor [`Network`].
//!
//! The tentpole guarantee: an N-shard run produces `f64::to_bits`-identical
//! ego traces and state/trace hashes to a 1-shard run, for any shard count,
//! on random junction graphs (see `support/mod.rs`) and seeds.

mod support;

use proptest::prelude::*;
use support::Layout;
use velopt_common::rng::SplitMix64;
use velopt_common::units::{MetersPerSecond, Seconds};
use velopt_microsim::{Network, NetworkTracePoint, SimConfig};

/// Salt that varies the generated roads from the other suites'.
const ROADS: u64 = 0xA5A5_0000;

/// Builds `layout` at `shards` shards with the ego spawned on its ego
/// corridor.
fn build(layout: &Layout, seed: u64, rate: f64, shards: usize) -> Network {
    let config = SimConfig {
        seed,
        straight_ratio: 0.95,
        ..SimConfig::default()
    };
    let mut net = Network::new(layout.specs(seed, ROADS, rate), shards, config).unwrap();
    net.spawn_ego(layout.ego, MetersPerSecond::new(5.0))
        .unwrap();
    net
}

/// Runs `layout` at `shards` shards and returns its observability
/// surface: ego trace, trace hash, state hash.
fn run(
    layout: &Layout,
    seed: u64,
    rate: f64,
    shards: usize,
    horizon: f64,
) -> (Vec<NetworkTracePoint>, u64, u64) {
    let mut net = build(layout, seed, rate, shards);
    net.run_until(Seconds::new(horizon)).unwrap();
    (
        net.ego_trace().to_vec(),
        net.ego_trace_hash(),
        net.state_hash(),
    )
}

/// Asserts two ego traces equal sample for sample, every `f64` by
/// `to_bits`.
fn same_trace(a: &[NetworkTracePoint], b: &[NetworkTracePoint]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (a, b) in a.iter().zip(b) {
        prop_assert_eq!(a.corridor, b.corridor);
        prop_assert_eq!(a.time.value().to_bits(), b.time.value().to_bits());
        prop_assert_eq!(
            a.position.value().to_bits(),
            b.position.value().to_bits(),
            "position diverged at t={}",
            a.time
        );
        prop_assert_eq!(a.speed.value().to_bits(), b.speed.value().to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// 1-, 2-, 3- and 4-shard runs of a random network — several chains,
    /// fan-in merges, single corridors, components interleaved in index
    /// order, the ego outside the first component — are indistinguishable
    /// bit for bit: identical ego traces (every `f64` compared by
    /// `to_bits`), identical trace hashes, identical state hashes.
    #[test]
    fn shard_count_never_changes_results(
        seed in any::<u64>(),
        rate in 200.0f64..900.0,
    ) {
        let layout = Layout::random(seed);
        let (trace1, th1, sh1) = run(&layout, seed, rate, 1, 600.0);
        prop_assert!(!trace1.is_empty());
        for shards in [2usize, 3, 4] {
            let (trace_n, th_n, sh_n) = run(&layout, seed, rate, shards, 600.0);
            same_trace(&trace1, &trace_n)?;
            prop_assert_eq!(th1, th_n, "trace hash diverged at {} shards", shards);
            prop_assert_eq!(sh1, sh_n, "state hash diverged at {} shards", shards);
        }
    }

    /// Advancing a sharded network by `run_until` in rounds of random
    /// length, from one tick to several seconds, lands after every round on
    /// the state of a one-shard network stepped tick by tick with `step()`:
    /// the same clock, stats and state hash, and in the end the same ego
    /// trace and trace hash.
    #[test]
    fn stats_are_shard_invariant(
        seed in any::<u64>(),
        shards in 2usize..5,
    ) {
        let layout = Layout::random(seed);
        let mut a = build(&layout, seed, 600.0, shards);
        let mut b = build(&layout, seed, 600.0, 1);
        let mut rounds = SplitMix64::new(seed);
        let mut target = 0.0;
        while a.time().value() < 480.0 {
            target += (1 + rounds.next_u64() % 50) as f64 * 0.1;
            a.run_until(Seconds::new(target)).unwrap();
            // Manual stepping lands on the bit-exact same clock (both sides
            // accumulate the same dt sum), so the states must coincide.
            while b.time() < a.time() {
                b.step();
            }
            prop_assert_eq!(a.time().value().to_bits(), b.time().value().to_bits());
            prop_assert_eq!(a.stats(), b.stats());
            prop_assert_eq!(a.state_hash(), b.state_hash(), "diverged by t={}", a.time());
        }
        same_trace(a.ego_trace(), b.ego_trace())?;
        prop_assert_eq!(a.ego_trace_hash(), b.ego_trace_hash());
    }
}

/// The random layouts have the shapes the properties rely on: every one
/// has a chain, a fan-in merge and a single corridor, and the ego outside
/// corridor 0's component; across seeds, some links point backward in index
/// order and some components interleave.
#[test]
fn random_layouts_cover_every_shape() {
    let (mut backward, mut interleaved) = (0, 0);
    for seed in 0..64 {
        let layout = Layout::random(seed);
        let down = &layout.downstream;
        let fed = |c: usize| down.iter().filter(|d| **d == Some(c)).count();
        let root = |mut c: usize| {
            while let Some(d) = down[c] {
                c = d;
            }
            c
        };
        let n = down.len();
        assert!(
            (0..n).any(|c| down[c].is_some_and(|d| fed(d) == 1)),
            "{down:?}"
        );
        assert!((0..n).any(|c| fed(c) >= 2), "{down:?}");
        assert!((0..n).any(|c| fed(c) == 0 && down[c].is_none()), "{down:?}");
        assert_ne!(root(layout.ego), root(0), "{down:?}");
        backward += usize::from((0..n).any(|c| down[c].is_some_and(|d| d < c)));
        let span = |r: usize| {
            let members: Vec<usize> = (0..n).filter(|&c| root(c) == r).collect();
            (members[0], *members.last().unwrap())
        };
        let spans: Vec<(usize, usize)> = (0..n).filter(|&c| down[c].is_none()).map(span).collect();
        interleaved += usize::from(
            spans
                .iter()
                .any(|a| spans.iter().any(|b| a != b && a.0 < b.0 && b.0 < a.1)),
        );
    }
    assert!(
        backward > 16 && interleaved > 16,
        "{backward} {interleaved}"
    );
}

/// Deterministic (non-proptest) witness on one chain of four — 1 vs 2 vs 4
/// shards.
#[test]
fn bench_scenario_shard_bit_identity() {
    let chain = Layout {
        downstream: vec![Some(1), Some(2), Some(3), None],
        ego: 0,
    };
    let (t1, th1, sh1) = run(&chain, 0x9E37_2026, 700.0, 1, 600.0);
    let (t2, th2, sh2) = run(&chain, 0x9E37_2026, 700.0, 2, 600.0);
    let (t4, th4, sh4) = run(&chain, 0x9E37_2026, 700.0, 4, 600.0);
    assert_eq!(t1.len(), t2.len());
    assert_eq!(t1.len(), t4.len());
    assert_eq!((th1, sh1), (th2, sh2));
    assert_eq!((th1, sh1), (th4, sh4));
}

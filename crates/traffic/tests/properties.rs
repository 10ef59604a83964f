//! Property-based tests for the traffic substrate.

use proptest::prelude::*;
use velopt_common::rng::{shuffle, SplitMix64};
use velopt_traffic::dataset::{read_csv, write_csv};
use velopt_traffic::nn::{Activation, Dense, Network, SgdConfig};
use velopt_traffic::{HourlyVolume, VolumeGenerator, HOURS_PER_WEEK};

proptest! {
    /// Generated feeds are always non-negative, finite, and exactly
    /// `weeks * 168` hours long, for any seed and noise level.
    #[test]
    fn generated_feeds_are_wellformed(
        seed in any::<u64>(),
        weeks in 1usize..5,
        noise in 0.0f64..0.5,
    ) {
        let feed = VolumeGenerator::us25_station(seed)
            .noise_fraction(noise)
            .generate_weeks(weeks)
            .unwrap();
        prop_assert_eq!(feed.len(), weeks * HOURS_PER_WEEK);
        prop_assert!(feed.samples().iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    /// Weekday commuter peaks survive any reasonable noise level on
    /// average: the 17:00 mean across weekdays dominates the 03:00 mean.
    #[test]
    fn peaks_survive_noise(seed in any::<u64>(), noise in 0.0f64..0.3) {
        let feed = VolumeGenerator::us25_station(seed)
            .noise_fraction(noise)
            .generate_weeks(4)
            .unwrap();
        let mut peak = 0.0;
        let mut night = 0.0;
        let mut n = 0.0;
        for day in 0..28 {
            if day % 7 >= 5 {
                continue; // weekends excluded
            }
            peak += feed.at(day, 17).unwrap();
            night += feed.at(day, 3).unwrap();
            n += 1.0;
        }
        prop_assert!(peak / n > 2.0 * night / n);
    }

    /// CSV round trip is lossless for arbitrary valid feeds.
    #[test]
    fn csv_round_trip(samples in prop::collection::vec(0.0f64..2000.0, 1..200)) {
        let feed = HourlyVolume::new(samples).unwrap();
        let mut buf = Vec::new();
        write_csv(&feed, &mut buf).unwrap();
        let back = read_csv(buf.as_slice()).unwrap();
        prop_assert_eq!(back, feed);
    }

    /// Calendar helpers are consistent with each other.
    #[test]
    fn calendar_helpers_consistent(hour in 0usize..100_000) {
        let dow = HourlyVolume::day_of_week(hour);
        let hod = HourlyVolume::hour_of_day(hour);
        prop_assert!(dow < 7);
        prop_assert!(hod < 24);
        // Reconstructing the hour modulo a week agrees.
        let week_hour = hour % HOURS_PER_WEEK;
        prop_assert_eq!(week_hour, dow * 24 + hod);
    }

    /// Splitting and re-concatenating a feed is the identity.
    #[test]
    fn split_concat_identity(weeks in 2usize..6, cut in 1usize..5) {
        prop_assume!(cut < weeks);
        let feed = VolumeGenerator::us25_station(9).generate_weeks(weeks).unwrap();
        let (a, b) = feed.split_at_week(cut).unwrap();
        let mut joined = a.samples().to_vec();
        joined.extend_from_slice(b.samples());
        prop_assert_eq!(joined, feed.samples().to_vec());
    }
}

/// Builds a sigmoid stack with a linear head from a seeded RNG, so two
/// calls with the same arguments produce bit-identical weights.
fn build_net(in_dim: usize, hidden: &[usize], out_dim: usize, seed: u64) -> Network {
    let mut rng = SplitMix64::new(seed);
    let mut layers = Vec::new();
    let mut prev = in_dim;
    for &h in hidden {
        layers.push(Dense::random(prev, h, Activation::Sigmoid, &mut rng));
        prev = h;
    }
    layers.push(Dense::random(prev, out_dim, Activation::Linear, &mut rng));
    Network::new(layers)
}

fn random_rows(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.uniform(-2.0, 2.0)).collect())
        .collect()
}

/// A deliberately naive per-sample SGD trainer mirroring the historical
/// scalar path: forward one sample, backprop, update immediately. The
/// mini-batch engine at `batch_size: 1` must reproduce it bit for bit.
struct RefLayer {
    w: Vec<f64>,
    b: Vec<f64>,
    vw: Vec<f64>,
    vb: Vec<f64>,
    act: Activation,
    in_dim: usize,
    out_dim: usize,
}

fn reference_layers(net: &Network) -> Vec<RefLayer> {
    net.layers()
        .iter()
        .map(|l| RefLayer {
            w: l.weights().to_vec(),
            b: l.biases().to_vec(),
            vw: vec![0.0; l.weights().len()],
            vb: vec![0.0; l.biases().len()],
            act: l.activation(),
            in_dim: l.in_dim(),
            out_dim: l.out_dim(),
        })
        .collect()
}

// Index-style loops are the point here: the reference spells out the
// scalar accumulation order the kernels are defined against.
#[allow(clippy::needless_range_loop)]
fn reference_train(
    layers: &mut [RefLayer],
    inputs: &[&[f64]],
    targets: &[&[f64]],
    cfg: &SgdConfig,
    rng: &mut SplitMix64,
) {
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    for _ in 0..cfg.epochs {
        shuffle(&mut order, rng);
        for &idx in order.iter() {
            // Forward, keeping every layer boundary's activations.
            let mut acts: Vec<Vec<f64>> = vec![inputs[idx].to_vec()];
            for layer in layers.iter() {
                let x = acts.last().unwrap();
                let mut y = vec![0.0; layer.out_dim];
                for (o, yo) in y.iter_mut().enumerate() {
                    let mut s = 0.0;
                    for k in 0..layer.in_dim {
                        s += layer.w[o * layer.in_dim + k] * x[k];
                    }
                    *yo = layer.act.apply(s + layer.b[o]);
                }
                acts.push(y);
            }
            // Backprop: output delta, then hidden deltas through the
            // pre-update weights.
            let depth = layers.len();
            let mut deltas: Vec<Vec<f64>> = vec![Vec::new(); depth];
            let out_act = layers[depth - 1].act;
            deltas[depth - 1] = acts[depth]
                .iter()
                .zip(targets[idx])
                .map(|(&y, &t)| (y - t) * out_act.derivative_from_output(y))
                .collect();
            for l in (0..depth - 1).rev() {
                let next = &layers[l + 1];
                let mut d = vec![0.0; layers[l].out_dim];
                for (i, di) in d.iter_mut().enumerate() {
                    let mut s = 0.0;
                    for o in 0..next.out_dim {
                        s += next.w[o * next.in_dim + i] * deltas[l + 1][o];
                    }
                    *di = s * layers[l].act.derivative_from_output(acts[l + 1][i]);
                }
                deltas[l] = d;
            }
            // Momentum update, gradient "averaged" over this batch of one.
            for (l, layer) in layers.iter_mut().enumerate() {
                for o in 0..layer.out_dim {
                    for k in 0..layer.in_dim {
                        let g = deltas[l][o] * acts[l][k] / 1.0;
                        let wi = o * layer.in_dim + k;
                        layer.vw[wi] = cfg.momentum * layer.vw[wi] - cfg.learning_rate * g;
                        layer.w[wi] += layer.vw[wi];
                    }
                    let g = deltas[l][o] / 1.0;
                    layer.vb[o] = cfg.momentum * layer.vb[o] - cfg.learning_rate * g;
                    layer.b[o] += layer.vb[o];
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The blocked batch forward is bit-identical to the scalar per-row
    /// forward for arbitrary stack shapes and batch sizes (including 1
    /// and sizes that leave a ragged final row tile).
    #[test]
    fn forward_batch_matches_scalar_forward_bitwise(
        seed in any::<u64>(),
        in_dim in 1usize..8,
        hidden in prop::collection::vec(1usize..8, 0..3),
        out_dim in 1usize..5,
        batch in 1usize..20,
    ) {
        let net = build_net(in_dim, &hidden, out_dim, seed);
        let rows = random_rows(batch, in_dim, seed ^ 0xABCD);
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let batched = net.forward_batch(&refs);
        for (b, row) in refs.iter().enumerate() {
            let scalar = net.forward(row);
            prop_assert_eq!(batched[b].len(), scalar.len());
            for (o, (&bv, &sv)) in batched[b].iter().zip(&scalar).enumerate() {
                prop_assert_eq!(bv.to_bits(), sv.to_bits(), "row {} output {}", b, o);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `batch_size: 1` reproduces naive per-sample SGD bit for bit —
    /// the historical scalar trainer is a special case of the batch
    /// engine, not an approximation.
    #[test]
    fn batch_size_one_matches_per_sample_reference(
        seed in any::<u64>(),
        in_dim in 1usize..6,
        hidden in prop::collection::vec(1usize..6, 1..3),
        n in 2usize..16,
    ) {
        let inputs = random_rows(n, in_dim, seed ^ 0x4444);
        let targets = random_rows(n, 1, seed ^ 0x5555);
        let input_refs: Vec<&[f64]> = inputs.iter().map(|r| r.as_slice()).collect();
        let target_refs: Vec<&[f64]> = targets.iter().map(|r| r.as_slice()).collect();
        let cfg = SgdConfig {
            epochs: 4,
            learning_rate: 0.05,
            momentum: 0.9,
            batch_size: 1,
        };

        let mut net = build_net(in_dim, &hidden, 1, seed);
        let mut reference = reference_layers(&net);
        let mut rng = SplitMix64::new(seed ^ 0x6666);
        reference_train(&mut reference, &input_refs, &target_refs, &cfg, &mut rng);

        let mut rng = SplitMix64::new(seed ^ 0x6666);
        net.train(&input_refs, &target_refs, &cfg, &mut rng).unwrap();

        for (layer, refl) in net.layers().iter().zip(&reference) {
            for (i, (&w, &rw)) in layer.weights().iter().zip(&refl.w).enumerate() {
                prop_assert_eq!(w.to_bits(), rw.to_bits(), "weight {}", i);
            }
            for (o, (&b, &rb)) in layer.biases().iter().zip(&refl.b).enumerate() {
                prop_assert_eq!(b.to_bits(), rb.to_bits(), "bias {}", o);
            }
        }
    }
}

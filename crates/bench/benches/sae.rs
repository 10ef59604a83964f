//! Benchmarks SAE training and inference on the synthetic volume feed.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use velopt_traffic::nn::SgdConfig;
use velopt_traffic::{
    SaeConfig, SaePredictor, SaePredictorConfig, VolumeGenerator, VolumePredictor, VolumeQuery,
    VolumeScratch,
};

fn quick_config(batch_size: usize) -> SaePredictorConfig {
    let sgd = |epochs: usize| SgdConfig {
        epochs,
        learning_rate: 0.05,
        momentum: 0.9,
        batch_size,
    };
    SaePredictorConfig {
        lags: 24,
        sae: SaeConfig {
            hidden_layers: vec![12],
            pretrain: sgd(3),
            finetune: sgd(10),
            ..SaeConfig::default()
        },
    }
}

fn bench_sae(c: &mut Criterion) {
    let feed = VolumeGenerator::us25_station(1).generate_weeks(2).unwrap();
    // Scaled-down training configs so the benchmark iterates in seconds:
    // the historical per-sample path and the mini-batch gemm path.
    let per_sample = quick_config(1);
    let batched = quick_config(16);

    let mut group = c.benchmark_group("sae");
    group.sample_size(10);
    group.bench_function("train_2_weeks_per_sample", |b| {
        b.iter(|| SaePredictor::train(black_box(&feed), &per_sample).unwrap())
    });
    group.bench_function("train_2_weeks_minibatch", |b| {
        b.iter(|| SaePredictor::train(black_box(&feed), &batched).unwrap())
    });

    let predictor = SaePredictor::train(&feed, &batched).unwrap();
    let history: Vec<f64> = feed.samples()[..24].to_vec();
    group.bench_function("predict_next_hour", |b| {
        b.iter(|| predictor.predict_next(black_box(&history), 24).unwrap())
    });

    // Warm batched rollout: 32 intersections × 24 horizons per call.
    let vp = VolumePredictor::new(SaePredictor::train(&feed, &batched).unwrap());
    let queries: Vec<VolumeQuery> = (0..32)
        .map(|q| VolumeQuery {
            history: feed.samples()[q * 3..q * 3 + 24].to_vec(),
            hour_index: q * 3 + 24,
        })
        .collect();
    let mut scratch = VolumeScratch::new();
    let mut out = Vec::new();
    group.bench_function("predict_batch_32x24", |b| {
        b.iter(|| {
            vp.predict_batch_with(black_box(&queries), 24, &mut scratch, &mut out)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sae);
criterion_main!(benches);

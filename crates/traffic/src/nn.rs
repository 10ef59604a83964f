//! A small, from-scratch dense neural network.
//!
//! This is the substrate for the stacked autoencoder of [`crate::Sae`]. It
//! deliberately supports exactly what the SAE recipe needs — fully-connected
//! layers with sigmoid or linear activations, mean-squared-error loss, and
//! mini-batch stochastic gradient descent with momentum — and nothing more.
//!
//! The hot paths run on the flat, cache-blocked kernels of the internal
//! `gemm` module: [`Network::forward_batch_into`] pushes a whole batch of
//! rows through packed-transpose matmuls, and [`Network::train_with`]
//! accumulates mini-batch gradients in a reusable [`TrainArena`], one
//! chunk of [`gemm::GRAD_CHUNK`] samples at a time. Gradients are combined
//! by a fixed-order tree reduction over that chunk partition, so the
//! arithmetic (and the trained weights) depend only on the batch geometry.
//! Training runs on the calling thread. With the default `batch_size: 1`
//! the mini-batch path reproduces classic per-sample SGD exactly (a
//! 1-sample gradient average is the gradient itself, bitwise).
//!
//! # Examples
//!
//! Learn the 2-input XOR function (a classic non-linearly-separable task):
//!
//! ```
//! use velopt_common::rng::SplitMix64;
//! use velopt_traffic::nn::{Activation, Dense, Network, SgdConfig};
//!
//! let mut rng = SplitMix64::new(1);
//! let mut net = Network::new(vec![
//!     Dense::random(2, 4, Activation::Sigmoid, &mut rng),
//!     Dense::random(4, 1, Activation::Sigmoid, &mut rng),
//! ]);
//! let xs = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]];
//! let ys = [[0.0], [1.0], [1.0], [0.0]];
//! let inputs: Vec<&[f64]> = xs.iter().map(|x| x.as_slice()).collect();
//! let targets: Vec<&[f64]> = ys.iter().map(|y| y.as_slice()).collect();
//! let cfg = SgdConfig {
//!     epochs: 4000,
//!     learning_rate: 0.9,
//!     momentum: 0.9,
//!     ..SgdConfig::default()
//! };
//! net.train(&inputs, &targets, &cfg, &mut rng).unwrap();
//! assert!(net.forward(&[0.0, 1.0])[0] > 0.8);
//! assert!(net.forward(&[1.0, 1.0])[0] < 0.2);
//! ```

use crate::arena::{ChunkScratch, InferenceScratch, TrainArena, TrainMetrics};
use crate::gemm::{self, GRAD_CHUNK};
use serde::{Deserialize, Serialize};
use std::time::Instant;
use velopt_common::rng::{shuffle, SplitMix64};
use velopt_common::{Error, Result};

pub use crate::arena::BatchScratch;

/// Layer activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Logistic sigmoid, used for all hidden (encoder) layers.
    Sigmoid,
    /// Identity, used for regression outputs and autoencoder decoders.
    Linear,
}

impl Activation {
    /// Applies the activation to a pre-activation value.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Linear => x,
        }
    }

    /// Derivative expressed in terms of the activation *output* `y`.
    pub fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Linear => 1.0,
        }
    }
}

/// A fully-connected layer `y = act(W·x + b)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    /// Row-major `out_dim × in_dim`.
    weights: Vec<f64>,
    biases: Vec<f64>,
    activation: Activation,
}

impl Dense {
    /// Creates a layer with small random weights (uniform in ±1/√in_dim, the
    /// classic "Xavier-ish" range that keeps sigmoids out of saturation).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn random(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        rng: &mut SplitMix64,
    ) -> Self {
        assert!(
            in_dim > 0 && out_dim > 0,
            "layer dimensions must be positive"
        );
        let scale = 1.0 / (in_dim as f64).sqrt();
        let weights = (0..in_dim * out_dim)
            .map(|_| rng.uniform(-scale, scale))
            .collect();
        let biases = vec![0.0; out_dim];
        Self {
            in_dim,
            out_dim,
            weights,
            biases,
            activation,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The layer's activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// The weight matrix, row-major `out_dim × in_dim`.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The bias vector (`out_dim` entries).
    pub fn biases(&self) -> &[f64] {
        &self.biases
    }

    /// Forward pass for one sample, writing into caller scratch. This is
    /// the scalar reference the batch kernels are defined against: each
    /// output is a `k`-ascending dot product from a `0.0` seed, plus the
    /// bias, through the activation.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim` or `out.len() != out_dim`.
    pub fn forward_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.in_dim, "input dimension mismatch");
        assert_eq!(out.len(), self.out_dim, "output dimension mismatch");
        for (o, slot) in out.iter_mut().enumerate() {
            let row = &self.weights[o * self.in_dim..(o + 1) * self.in_dim];
            let z: f64 = row.iter().zip(x).map(|(w, xi)| w * xi).sum::<f64>() + self.biases[o];
            *slot = self.activation.apply(z);
        }
    }

    /// Forward pass for one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.out_dim];
        self.forward_into(x, &mut out);
        out
    }
}

/// SGD hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Full passes over the training set.
    pub epochs: usize,
    /// Step size.
    pub learning_rate: f64,
    /// Classical momentum coefficient in `[0, 1)`.
    pub momentum: f64,
    /// Samples per gradient update. `1` (the default) is classic
    /// per-sample SGD, bit-identical to the historical scalar path;
    /// larger values average the gradient over a mini-batch, trading
    /// update frequency for kernel throughput. `0` is treated as `1`.
    #[serde(default)]
    pub batch_size: usize,
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self {
            epochs: 50,
            learning_rate: 0.05,
            momentum: 0.9,
            batch_size: 1,
        }
    }
}

/// A feed-forward stack of [`Dense`] layers trained with MSE loss.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    layers: Vec<Dense>,
    velocity_w: Vec<Vec<f64>>,
    velocity_b: Vec<Vec<f64>>,
}

impl Network {
    /// Builds a network from layers.
    ///
    /// # Panics
    ///
    /// Panics if consecutive layer dimensions do not chain or `layers` is
    /// empty.
    pub fn new(layers: Vec<Dense>) -> Self {
        assert!(!layers.is_empty(), "network needs at least one layer");
        for w in layers.windows(2) {
            assert_eq!(
                w[0].out_dim, w[1].in_dim,
                "layer dimensions must chain: {} -> {}",
                w[0].out_dim, w[1].in_dim
            );
        }
        let velocity_w = layers.iter().map(|l| vec![0.0; l.weights.len()]).collect();
        let velocity_b = layers.iter().map(|l| vec![0.0; l.biases.len()]).collect();
        Self {
            layers,
            velocity_w,
            velocity_b,
        }
    }

    /// The layers of the network.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Consumes the network and returns its layers (used to harvest
    /// pre-trained encoder layers).
    pub fn into_layers(self) -> Vec<Dense> {
        self.layers
    }

    /// Input dimension of the first layer.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    /// Output dimension of the last layer.
    pub fn out_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].out_dim
    }

    /// Layer-boundary dimensions `[in, hidden…, out]`.
    fn boundary_dims(&self) -> Vec<usize> {
        let mut dims = Vec::with_capacity(self.layers.len() + 1);
        dims.push(self.in_dim());
        dims.extend(self.layers.iter().map(|l| l.out_dim));
        dims
    }

    /// Widest layer boundary (for sizing ping-pong scratch).
    fn max_width(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.in_dim.max(l.out_dim))
            .max()
            .expect("network has layers")
    }

    /// Forward pass through all layers.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut scratch = InferenceScratch::new();
        self.forward_into(x, &mut scratch).to_vec()
    }

    /// Forward pass through all layers into caller scratch, allocating
    /// nothing once the scratch is warm. Bit-identical to [`forward`].
    ///
    /// [`forward`]: Network::forward
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not the network's input dimension.
    pub fn forward_into<'s>(&self, x: &[f64], scratch: &'s mut InferenceScratch) -> &'s [f64] {
        assert_eq!(x.len(), self.in_dim(), "input dimension mismatch");
        scratch.ensure(self.max_width());
        scratch.bufs[0][..x.len()].copy_from_slice(x);
        for (l, layer) in self.layers.iter().enumerate() {
            let [buf0, buf1] = &mut scratch.bufs;
            let (src, dst) = if l % 2 == 0 {
                (&*buf0, buf1)
            } else {
                (&*buf1, buf0)
            };
            layer.forward_into(&src[..layer.in_dim], &mut dst[..layer.out_dim]);
        }
        &scratch.bufs[self.layers.len() % 2][..self.out_dim()]
    }

    /// Batched forward pass over `batch` row-major samples in `xs`
    /// (`batch × in_dim`, flat), returning the `batch × out_dim` output
    /// plane. Runs on the packed-transpose gemm kernels; in steady state
    /// (warm scratch, batch no larger than the high-water mark) it
    /// allocates nothing. Each output row is bit-identical to a scalar
    /// [`forward`] of the same input row.
    ///
    /// [`forward`]: Network::forward
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != batch * in_dim`.
    pub fn forward_batch_into<'s>(
        &self,
        xs: &[f64],
        batch: usize,
        scratch: &'s mut BatchScratch,
    ) -> &'s [f64] {
        assert_eq!(xs.len(), batch * self.in_dim(), "input dimension mismatch");
        scratch.ensure_net(self, batch);
        scratch.acts[0][..xs.len()].copy_from_slice(xs);
        let mut flops = 0u64;
        for (l, layer) in self.layers.iter().enumerate() {
            gemm::pack_transpose(
                &layer.weights,
                layer.in_dim,
                layer.out_dim,
                &mut scratch.packed[l],
            );
            let (lo, hi) = scratch.acts.split_at_mut(l + 1);
            flops += gemm::forward_packed(
                &scratch.packed[l],
                &layer.biases,
                layer.activation,
                layer.in_dim,
                layer.out_dim,
                &lo[l][..batch * layer.in_dim],
                batch,
                &mut hi[0][..batch * layer.out_dim],
            );
        }
        scratch.add_flops(flops);
        &scratch.acts[self.layers.len()][..batch * self.out_dim()]
    }

    /// Convenience wrapper over [`forward_batch_into`]: gathers the rows,
    /// runs the batch kernels once, and splits the output back into one
    /// `Vec` per sample.
    ///
    /// [`forward_batch_into`]: Network::forward_batch_into
    ///
    /// # Panics
    ///
    /// Panics if any row's length is not the network's input dimension.
    pub fn forward_batch(&self, xs: &[&[f64]]) -> Vec<Vec<f64>> {
        let in_dim = self.in_dim();
        let mut flat = Vec::with_capacity(xs.len() * in_dim);
        for x in xs {
            assert_eq!(x.len(), in_dim, "input dimension mismatch");
            flat.extend_from_slice(x);
        }
        let mut scratch = BatchScratch::new();
        let out = self.forward_batch_into(&flat, xs.len(), &mut scratch);
        out.chunks(self.out_dim()).map(|c| c.to_vec()).collect()
    }

    /// Mean squared error over a dataset, evaluated through one batched
    /// forward (each row bit-identical to a scalar [`forward`], and the
    /// error summed in sample order, so the value matches a per-sample
    /// evaluation exactly).
    ///
    /// [`forward`]: Network::forward
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if the dataset is empty or ragged.
    pub fn mse(&self, inputs: &[&[f64]], targets: &[&[f64]]) -> Result<f64> {
        validate_dataset(inputs, targets, self.in_dim(), self.out_dim())?;
        let mut flat = Vec::with_capacity(inputs.len() * self.in_dim());
        for x in inputs {
            flat.extend_from_slice(x);
        }
        let mut scratch = BatchScratch::new();
        let out = self.forward_batch_into(&flat, inputs.len(), &mut scratch);
        let mut total = 0.0;
        for (row, t) in out.chunks(self.out_dim()).zip(targets) {
            total += row
                .iter()
                .zip(*t)
                .map(|(yi, ti)| (yi - ti).powi(2))
                .sum::<f64>();
        }
        Ok(total / inputs.len() as f64)
    }

    /// Trains the network with mini-batch SGD + momentum, shuffling the
    /// sample order every epoch. Returns the final training MSE.
    ///
    /// Equivalent to [`train_with`] on a throwaway [`TrainArena`]; callers
    /// training repeatedly (the SAE recipe, retraining loops) should hold
    /// an arena and call [`train_with`] to recycle the scratch buffers.
    ///
    /// [`train_with`]: Network::train_with
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] on an empty/ragged dataset and
    /// [`Error::Numeric`] if the loss diverges to a non-finite value.
    pub fn train(
        &mut self,
        inputs: &[&[f64]],
        targets: &[&[f64]],
        cfg: &SgdConfig,
        rng: &mut SplitMix64,
    ) -> Result<f64> {
        let mut arena = TrainArena::new();
        self.train_with(inputs, targets, cfg, rng, &mut arena)
            .map(|(mse, _)| mse)
    }

    /// Trains the network with mini-batch SGD + momentum using
    /// caller-owned scratch, returning the final training MSE and the
    /// run's [`TrainMetrics`].
    ///
    /// Each epoch shuffles the sample order ([`velopt_common::rng::shuffle`],
    /// one RNG draw per swap) and walks it in consecutive mini-batches of
    /// [`SgdConfig::batch_size`]. A mini-batch is cut into fixed
    /// [`gemm::GRAD_CHUNK`]-sample chunks; each chunk forwards its
    /// samples, back-propagates, and accumulates private gradient
    /// partials, and the partials are combined by a fixed-order tree
    /// reduction before one averaged momentum update. The chunk partition
    /// and the reduction order depend only on the batch geometry, which
    /// fixes the floating-point arithmetic of every update.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] on an empty/ragged dataset and
    /// [`Error::Numeric`] if the loss diverges to a non-finite value.
    pub fn train_with(
        &mut self,
        inputs: &[&[f64]],
        targets: &[&[f64]],
        cfg: &SgdConfig,
        rng: &mut SplitMix64,
        arena: &mut TrainArena,
    ) -> Result<(f64, TrainMetrics)> {
        validate_dataset(inputs, targets, self.in_dim(), self.out_dim())?;
        let n = inputs.len();
        let batch_size = cfg.batch_size.max(1).min(n);
        let dims = self.boundary_dims();
        let scratch_baseline = (arena.reuse_hits(), arena.allocations());
        arena.ensure(&dims, batch_size.div_ceil(GRAD_CHUNK));

        let mut metrics = TrainMetrics::default();

        let arena_chunks = &mut arena.chunks;
        let arena_packed = &mut arena.packed;
        let arena_order = &mut arena.order;
        arena_order.clear();
        arena_order.extend(0..n);

        for _ in 0..cfg.epochs {
            shuffle(arena_order, rng);
            for batch_idxs in arena_order.chunks(batch_size) {
                let flops = run_batch(
                    &mut self.layers,
                    &mut self.velocity_w,
                    &mut self.velocity_b,
                    arena_chunks,
                    arena_packed,
                    inputs,
                    targets,
                    batch_idxs,
                    cfg,
                    &mut metrics,
                );
                metrics.gemm_flops += flops;
                metrics.batches += 1;
                metrics.samples += batch_idxs.len() as u64;
            }
            metrics.epochs += 1;
        }

        let t_eval = Instant::now();
        let mse = self.mse(inputs, targets)?;
        metrics.eval_seconds += t_eval.elapsed().as_secs_f64();
        let (hits, allocs) = arena.stats_since(scratch_baseline);
        metrics.scratch_reuse_hits = hits;
        metrics.scratch_allocations = allocs;
        metrics.publish();
        if !mse.is_finite() {
            return Err(Error::numeric("training diverged to non-finite loss"));
        }
        Ok((mse, metrics))
    }
}

/// One mini-batch: pack, per-chunk forward/backward, tree reduction,
/// momentum update. Returns the batch's gemm FLOP count.
#[allow(clippy::too_many_arguments)]
fn run_batch(
    layers: &mut [Dense],
    velocity_w: &mut [Vec<f64>],
    velocity_b: &mut [Vec<f64>],
    chunks: &mut [ChunkScratch],
    packed: &mut [Vec<f64>],
    inputs: &[&[f64]],
    targets: &[&[f64]],
    batch_idxs: &[usize],
    cfg: &SgdConfig,
    metrics: &mut TrainMetrics,
) -> u64 {
    let bl = batch_idxs.len();
    let n_chunks = bl.div_ceil(GRAD_CHUNK);

    let t_compute = Instant::now();
    for (l, layer) in layers.iter().enumerate() {
        gemm::pack_transpose(&layer.weights, layer.in_dim, layer.out_dim, &mut packed[l]);
    }
    let mut flops = 0;
    for (cs, idxs) in chunks.iter_mut().zip(batch_idxs.chunks(GRAD_CHUNK)) {
        flops += chunk_forward_backward(layers, packed, inputs, targets, idxs, cs);
    }
    metrics.compute_seconds += t_compute.elapsed().as_secs_f64();

    let t_update = Instant::now();
    gemm::tree_reduce(&mut chunks[..n_chunks], |a, b| {
        for (ga, gb) in a.gw.iter_mut().zip(&b.gw) {
            gemm::vec_add(ga, gb);
        }
        for (ga, gb) in a.gb.iter_mut().zip(&b.gb) {
            gemm::vec_add(ga, gb);
        }
    });

    let bl_f = bl as f64;
    for l in (0..layers.len()).rev() {
        let layer = &mut layers[l];
        let gw = &chunks[0].gw[l];
        let gb = &chunks[0].gb[l];
        gemm::sgd_update(
            &mut layer.weights,
            &mut velocity_w[l],
            gw,
            bl_f,
            cfg.momentum,
            cfg.learning_rate,
        );
        gemm::sgd_update(
            &mut layer.biases,
            &mut velocity_b[l],
            gb,
            bl_f,
            cfg.momentum,
            cfg.learning_rate,
        );
    }
    metrics.update_seconds += t_update.elapsed().as_secs_f64();
    flops
}

/// Forward + backward + gradient accumulation for one chunk's samples,
/// entirely in the chunk's private scratch. Returns the FLOP count.
fn chunk_forward_backward(
    layers: &[Dense],
    packed: &[Vec<f64>],
    inputs: &[&[f64]],
    targets: &[&[f64]],
    idxs: &[usize],
    cs: &mut ChunkScratch,
) -> u64 {
    let m = idxs.len();
    let mut flops = 0u64;

    // Gather this chunk's input rows.
    let in_dim = layers[0].in_dim;
    for (r, &idx) in idxs.iter().enumerate() {
        cs.acts[0][r * in_dim..(r + 1) * in_dim].copy_from_slice(inputs[idx]);
    }

    // Forward through every layer.
    for (l, layer) in layers.iter().enumerate() {
        let (lo, hi) = cs.acts.split_at_mut(l + 1);
        flops += gemm::forward_packed(
            &packed[l],
            &layer.biases,
            layer.activation,
            layer.in_dim,
            layer.out_dim,
            &lo[l][..m * layer.in_dim],
            m,
            &mut hi[0][..m * layer.out_dim],
        );
    }

    // Output error, gathering target rows on the fly.
    let last = layers.len() - 1;
    let out_dim = layers[last].out_dim;
    {
        let y = &cs.acts[last + 1];
        let d = &mut cs.deltas[last];
        let act = layers[last].activation;
        for (r, &idx) in idxs.iter().enumerate() {
            let t_row = targets[idx];
            for o in 0..out_dim {
                let yv = y[r * out_dim + o];
                d[r * out_dim + o] = (yv - t_row[o]) * act.derivative_from_output(yv);
            }
        }
    }

    // Backward: propagate deltas and accumulate gradient partials.
    for l in (0..layers.len()).rev() {
        let layer = &layers[l];
        if l > 0 {
            let (dlo, dhi) = cs.deltas.split_at_mut(l);
            flops += gemm::input_grad(
                &layer.weights,
                layer.in_dim,
                layer.out_dim,
                &dhi[0][..m * layer.out_dim],
                m,
                layers[l - 1].activation,
                &cs.acts[l][..m * layer.in_dim],
                &mut dlo[l - 1][..m * layer.in_dim],
            );
        }
        cs.gw[l].fill(0.0);
        cs.gb[l].fill(0.0);
        flops += gemm::accumulate_grads(
            &cs.deltas[l][..m * layer.out_dim],
            &cs.acts[l][..m * layer.in_dim],
            m,
            layer.in_dim,
            layer.out_dim,
            &mut cs.gw[l],
            &mut cs.gb[l],
        );
    }
    flops
}

fn validate_dataset(
    inputs: &[&[f64]],
    targets: &[&[f64]],
    in_dim: usize,
    out_dim: usize,
) -> Result<()> {
    if inputs.is_empty() || inputs.len() != targets.len() {
        return Err(Error::invalid_input(format!(
            "dataset must be non-empty and paired: {} inputs vs {} targets",
            inputs.len(),
            targets.len()
        )));
    }
    if inputs.iter().any(|x| x.len() != in_dim) {
        return Err(Error::invalid_input("input dimension mismatch"));
    }
    if targets.iter().any(|t| t.len() != out_dim) {
        return Err(Error::invalid_input("target dimension mismatch"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activations() {
        assert_eq!(Activation::Sigmoid.apply(0.0), 0.5);
        assert_eq!(Activation::Linear.apply(-3.0), -3.0);
        assert_eq!(Activation::Sigmoid.derivative_from_output(0.5), 0.25);
        assert_eq!(Activation::Linear.derivative_from_output(123.0), 1.0);
    }

    #[test]
    fn dense_forward_known_weights() {
        let mut rng = SplitMix64::new(0);
        let mut layer = Dense::random(2, 1, Activation::Linear, &mut rng);
        layer.weights = vec![2.0, -1.0];
        layer.biases = vec![0.5];
        assert_eq!(layer.forward(&[3.0, 4.0]), vec![2.0 * 3.0 - 4.0 + 0.5]);
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn dense_forward_rejects_wrong_dim() {
        let mut rng = SplitMix64::new(0);
        let layer = Dense::random(3, 1, Activation::Linear, &mut rng);
        layer.forward(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "layer dimensions must chain")]
    fn network_rejects_mismatched_layers() {
        let mut rng = SplitMix64::new(0);
        Network::new(vec![
            Dense::random(2, 3, Activation::Sigmoid, &mut rng),
            Dense::random(4, 1, Activation::Linear, &mut rng),
        ]);
    }

    #[test]
    fn forward_into_matches_forward_bitwise() {
        let mut rng = SplitMix64::new(21);
        let net = Network::new(vec![
            Dense::random(5, 7, Activation::Sigmoid, &mut rng),
            Dense::random(7, 4, Activation::Sigmoid, &mut rng),
            Dense::random(4, 2, Activation::Linear, &mut rng),
        ]);
        let mut scratch = InferenceScratch::new();
        for _ in 0..20 {
            let x: Vec<f64> = (0..5).map(|_| rng.uniform(-2.0, 2.0)).collect();
            let a = net.forward(&x);
            let b = net.forward_into(&x, &mut scratch);
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn forward_batch_handles_odd_tile_remainders() {
        // Batch sizes straddling the MR=4 register-tile boundary.
        let mut rng = SplitMix64::new(31);
        let net = Network::new(vec![
            Dense::random(3, 5, Activation::Sigmoid, &mut rng),
            Dense::random(5, 2, Activation::Linear, &mut rng),
        ]);
        for batch in [1usize, 7, 8, 9, 16, 17] {
            let xs: Vec<Vec<f64>> = (0..batch)
                .map(|_| (0..3).map(|_| rng.uniform(-1.0, 1.0)).collect())
                .collect();
            let refs: Vec<&[f64]> = xs.iter().map(|x| x.as_slice()).collect();
            let rows = net.forward_batch(&refs);
            assert_eq!(rows.len(), batch);
            for (x, row) in refs.iter().zip(&rows) {
                let scalar = net.forward(x);
                assert_eq!(
                    row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "batch={batch}"
                );
            }
        }
    }

    #[test]
    fn learns_linear_function() {
        // y = 2x1 - x2 + 1 should be learnable exactly by a linear layer.
        let mut rng = SplitMix64::new(42);
        let mut net = Network::new(vec![Dense::random(2, 1, Activation::Linear, &mut rng)]);
        let xs: Vec<[f64; 2]> = (0..50)
            .map(|_| [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)])
            .collect();
        let ys: Vec<[f64; 1]> = xs.iter().map(|x| [2.0 * x[0] - x[1] + 1.0]).collect();
        let inputs: Vec<&[f64]> = xs.iter().map(|x| x.as_slice()).collect();
        let targets: Vec<&[f64]> = ys.iter().map(|y| y.as_slice()).collect();
        let cfg = SgdConfig {
            epochs: 400,
            learning_rate: 0.05,
            momentum: 0.9,
            ..SgdConfig::default()
        };
        let mse = net.train(&inputs, &targets, &cfg, &mut rng).unwrap();
        assert!(mse < 1e-6, "linear fit should be near-exact, mse={mse}");
    }

    #[test]
    fn training_reduces_loss_on_nonlinear_target() {
        let mut rng = SplitMix64::new(7);
        let mut net = Network::new(vec![
            Dense::random(1, 6, Activation::Sigmoid, &mut rng),
            Dense::random(6, 1, Activation::Linear, &mut rng),
        ]);
        let xs: Vec<[f64; 1]> = (0..40).map(|i| [i as f64 / 40.0]).collect();
        let ys: Vec<[f64; 1]> = xs
            .iter()
            .map(|x| [(std::f64::consts::TAU * x[0]).sin() * 0.5])
            .collect();
        let inputs: Vec<&[f64]> = xs.iter().map(|x| x.as_slice()).collect();
        let targets: Vec<&[f64]> = ys.iter().map(|y| y.as_slice()).collect();
        let before = net.mse(&inputs, &targets).unwrap();
        let cfg = SgdConfig {
            epochs: 300,
            learning_rate: 0.1,
            momentum: 0.9,
            ..SgdConfig::default()
        };
        let after = net.train(&inputs, &targets, &cfg, &mut rng).unwrap();
        assert!(after < before * 0.2, "loss {before} -> {after}");
    }

    #[test]
    fn mini_batches_also_learn() {
        // The batched path must converge too (same task as above, larger
        // batch, more epochs to compensate for fewer updates).
        let mut rng = SplitMix64::new(7);
        let mut net = Network::new(vec![
            Dense::random(1, 6, Activation::Sigmoid, &mut rng),
            Dense::random(6, 1, Activation::Linear, &mut rng),
        ]);
        let xs: Vec<[f64; 1]> = (0..40).map(|i| [i as f64 / 40.0]).collect();
        let ys: Vec<[f64; 1]> = xs
            .iter()
            .map(|x| [(std::f64::consts::TAU * x[0]).sin() * 0.5])
            .collect();
        let inputs: Vec<&[f64]> = xs.iter().map(|x| x.as_slice()).collect();
        let targets: Vec<&[f64]> = ys.iter().map(|y| y.as_slice()).collect();
        let before = net.mse(&inputs, &targets).unwrap();
        let cfg = SgdConfig {
            epochs: 2000,
            learning_rate: 0.1,
            momentum: 0.9,
            batch_size: 10,
        };
        let mut arena = TrainArena::new();
        let (after, metrics) = net
            .train_with(&inputs, &targets, &cfg, &mut rng, &mut arena)
            .unwrap();
        assert!(after < before * 0.2, "loss {before} -> {after}");
        assert_eq!(metrics.epochs, 2000);
        assert_eq!(metrics.batches, 2000 * 4); // 40 samples / batch 10
        assert_eq!(metrics.samples, 2000 * 40);
        assert!(metrics.gemm_flops > 0);
        // One geometry allocation, then every batch reuses it.
        assert_eq!(metrics.scratch_allocations, 1);
        assert_eq!(metrics.scratch_reuse_hits, 0); // ensure ran once pre-warm
    }

    #[test]
    fn dataset_validation() {
        let mut rng = SplitMix64::new(0);
        let mut net = Network::new(vec![Dense::random(2, 1, Activation::Linear, &mut rng)]);
        let cfg = SgdConfig::default();
        let x: &[f64] = &[1.0, 2.0];
        let t: &[f64] = &[1.0];
        assert!(net.train(&[], &[], &cfg, &mut rng).is_err());
        assert!(net.train(&[x], &[], &cfg, &mut rng).is_err());
        let bad_x: &[f64] = &[1.0];
        assert!(net.train(&[bad_x], &[t], &cfg, &mut rng).is_err());
        let bad_t: &[f64] = &[1.0, 2.0];
        assert!(net.train(&[x], &[bad_t], &cfg, &mut rng).is_err());
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let build = || {
            let mut rng = SplitMix64::new(5);
            let mut net = Network::new(vec![Dense::random(1, 3, Activation::Sigmoid, &mut rng)]);
            let xs: Vec<[f64; 1]> = (0..10).map(|i| [i as f64 / 10.0]).collect();
            let ys: Vec<[f64; 3]> = xs.iter().map(|x| [x[0], x[0] * 0.5, 0.2]).collect();
            let inputs: Vec<&[f64]> = xs.iter().map(|x| x.as_slice()).collect();
            let targets: Vec<&[f64]> = ys.iter().map(|y| y.as_slice()).collect();
            net.train(&inputs, &targets, &SgdConfig::default(), &mut rng)
                .unwrap()
        };
        assert_eq!(build(), build());
    }
}

//! Reusable training/inference scratch and the [`TrainMetrics`] record.
//!
//! The mini-batch trainer never allocates on its hot path: every buffer
//! it touches — gathered input rows, per-layer activations and deltas,
//! per-chunk gradient partials, packed transposed weights, the shuffle
//! order — lives in a [`TrainArena`] that is sized once per network
//! shape and recycled across mini-batches, epochs, and (via
//! [`Network::train_with`]) across the SAE's pretraining stages and
//! fine-tune. Batched inference gets the same treatment from
//! [`BatchScratch`], and the single-sample path from
//! [`InferenceScratch`].
//!
//! Arena lifecycle: a call to `ensure` compares the requested geometry
//! (layer dims, chunk count, batch capacity) against what the buffers
//! already hold. A match is a *reuse hit* — the buffers are reused as-is
//! (gradient partials are re-zeroed by the trainer, not here). A mismatch
//! reallocates and counts an *allocation*. Both counters surface in
//! [`TrainMetrics`] and in `traffic.*` telemetry, and the bench suite
//! gates on them: in steady state the allocation counter must not grow.
//!
//! [`Network::train_with`]: crate::nn::Network::train_with

use crate::gemm::GRAD_CHUNK;
use crate::nn::{Dense, Network};
use serde::{Deserialize, Serialize};

/// True when `dims` already describes the layer boundaries of `layers`
/// (checked without allocating, so the warm inference path stays
/// allocation-free).
fn dims_match(dims: &[usize], layers: &[Dense]) -> bool {
    dims.len() == layers.len() + 1
        && layers
            .iter()
            .enumerate()
            .all(|(l, layer)| dims[l] == layer.in_dim() && dims[l + 1] == layer.out_dim())
}

/// Counters and timings for one training run (one [`Network::train_with`]
/// call, or the whole SAE recipe when aggregated with [`absorb`]).
///
/// Work counters (`epochs`, `batches`, `samples`, `gemm_flops`, scratch
/// counters) are deterministic functions of the workload and are gated by
/// the bench suite's `--check-work`; wall times vary run to run. Like the
/// DP's `SolverMetrics`, this is observability, not semantics.
///
/// [`Network::train_with`]: crate::nn::Network::train_with
/// [`absorb`]: TrainMetrics::absorb
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainMetrics {
    /// Full passes over the training set.
    pub epochs: u64,
    /// Mini-batch gradient updates applied.
    pub batches: u64,
    /// Sample visits (`epochs × dataset size`).
    pub samples: u64,
    /// Multiply-add FLOPs through the gemm kernels (forward, backprop,
    /// and gradient accumulation), a pure function of the workload.
    pub gemm_flops: u64,
    /// Scratch geometries served from existing arena buffers.
    pub scratch_reuse_hits: u64,
    /// Scratch geometries that required fresh allocations.
    pub scratch_allocations: u64,
    /// Wall time in the per-chunk forward/backward passes.
    pub compute_seconds: f64,
    /// Wall time reducing chunk gradients and applying momentum updates.
    pub update_seconds: f64,
    /// Wall time in the final full-dataset MSE evaluation.
    pub eval_seconds: f64,
}

impl TrainMetrics {
    /// Total wall time across all phases.
    pub fn total_seconds(&self) -> f64 {
        self.compute_seconds + self.update_seconds + self.eval_seconds
    }

    /// Accumulates another run's metrics into this one (counters and
    /// times add). Used to aggregate the SAE's pretraining stages and
    /// fine-tune into one record.
    pub fn absorb(&mut self, other: &TrainMetrics) {
        self.epochs += other.epochs;
        self.batches += other.batches;
        self.samples += other.samples;
        self.gemm_flops += other.gemm_flops;
        self.scratch_reuse_hits += other.scratch_reuse_hits;
        self.scratch_allocations += other.scratch_allocations;
        self.compute_seconds += other.compute_seconds;
        self.update_seconds += other.update_seconds;
        self.eval_seconds += other.eval_seconds;
    }

    /// Publishes this run's counters and phase timings to the global
    /// [`telemetry`] registry under the `traffic.*` namespace, alongside
    /// the DP's `dp.*`. A no-op (and free) unless the crate's `telemetry`
    /// feature is enabled.
    pub fn publish(&self) {
        telemetry::add("traffic.train.runs", 1);
        telemetry::add("traffic.train.epochs", self.epochs);
        telemetry::add("traffic.train.batches", self.batches);
        telemetry::add("traffic.train.samples", self.samples);
        telemetry::add("traffic.train.gemm_flops", self.gemm_flops);
        telemetry::add("traffic.scratch.reuse_hits", self.scratch_reuse_hits);
        telemetry::add("traffic.scratch.allocations", self.scratch_allocations);
        telemetry::observe("traffic.train.compute_seconds", self.compute_seconds);
        telemetry::observe("traffic.train.update_seconds", self.update_seconds);
        telemetry::observe("traffic.train.eval_seconds", self.eval_seconds);
        telemetry::observe("traffic.train.total_seconds", self.total_seconds());
    }
}

/// Private per-chunk scratch: the complete forward/backward state for a
/// [`GRAD_CHUNK`]-sample slice of a mini-batch. Each chunk keeps its own
/// gradient partials until the tree reduction combines them.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChunkScratch {
    /// Per layer boundary: `GRAD_CHUNK × dims[l]` activations
    /// (`acts[0]` holds the gathered input rows).
    pub(crate) acts: Vec<Vec<f64>>,
    /// Per layer: `GRAD_CHUNK × dims[l + 1]` error terms.
    pub(crate) deltas: Vec<Vec<f64>>,
    /// Per layer: `out_dim × in_dim` gradient partials.
    pub(crate) gw: Vec<Vec<f64>>,
    /// Per layer: `out_dim` bias-gradient partials.
    pub(crate) gb: Vec<Vec<f64>>,
}

impl ChunkScratch {
    fn allocate(dims: &[usize]) -> Self {
        let layers = dims.len() - 1;
        Self {
            acts: dims.iter().map(|&d| vec![0.0; GRAD_CHUNK * d]).collect(),
            deltas: dims[1..]
                .iter()
                .map(|&d| vec![0.0; GRAD_CHUNK * d])
                .collect(),
            gw: (0..layers)
                .map(|l| vec![0.0; dims[l] * dims[l + 1]])
                .collect(),
            gb: dims[1..].iter().map(|&d| vec![0.0; d]).collect(),
        }
    }
}

/// Pre-allocated scratch for [`Network::train_with`], reusable across
/// training runs (and network shapes — a shape change just reallocates).
///
/// [`Network::train_with`]: crate::nn::Network::train_with
#[derive(Debug, Clone, Default)]
pub struct TrainArena {
    /// One private scratch per gradient chunk of the largest mini-batch.
    pub(crate) chunks: Vec<ChunkScratch>,
    /// Per layer: transposed weights, repacked after every update.
    pub(crate) packed: Vec<Vec<f64>>,
    /// The epoch shuffle order.
    pub(crate) order: Vec<usize>,
    /// Layer-boundary dims the buffers are currently sized for.
    dims: Vec<usize>,
    /// Reuse/allocation tallies since construction.
    reuse_hits: u64,
    allocations: u64,
}

impl TrainArena {
    /// Creates an empty arena; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch geometries served without allocating since construction.
    pub fn reuse_hits(&self) -> u64 {
        self.reuse_hits
    }

    /// Scratch geometries that required fresh allocations.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Sizes the arena for a network with layer-boundary `dims` and
    /// mini-batches of up to `n_chunks` gradient chunks, recycling
    /// existing buffers when the geometry already matches.
    pub(crate) fn ensure(&mut self, dims: &[usize], n_chunks: usize) {
        let shape_ok = self.dims == dims;
        if shape_ok && self.chunks.len() >= n_chunks {
            self.reuse_hits += 1;
            return;
        }
        self.allocations += 1;
        if !shape_ok {
            self.dims = dims.to_vec();
            self.chunks.clear();
            let layers = dims.len() - 1;
            self.packed = (0..layers)
                .map(|l| vec![0.0; dims[l] * dims[l + 1]])
                .collect();
        }
        while self.chunks.len() < n_chunks {
            self.chunks.push(ChunkScratch::allocate(&self.dims));
        }
    }

    /// Takes the reuse/allocation deltas since `baseline`, for folding
    /// into a [`TrainMetrics`].
    pub(crate) fn stats_since(&self, baseline: (u64, u64)) -> (u64, u64) {
        (self.reuse_hits - baseline.0, self.allocations - baseline.1)
    }
}

/// Ping-pong scratch for the single-sample zero-allocation forward path
/// ([`Network::forward_into`] and friends).
///
/// [`Network::forward_into`]: crate::nn::Network::forward_into
#[derive(Debug, Clone, Default)]
pub struct InferenceScratch {
    /// Two buffers, each sized to the widest layer boundary; layer `l`
    /// reads from `bufs[l % 2]` and writes into `bufs[(l + 1) % 2]`.
    pub(crate) bufs: [Vec<f64>; 2],
}

impl InferenceScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows both buffers to hold `width` values.
    pub(crate) fn ensure(&mut self, width: usize) {
        for buf in &mut self.bufs {
            if buf.len() < width {
                buf.resize(width, 0.0);
            }
        }
    }
}

/// Pre-allocated scratch for the batched forward path
/// ([`Network::forward_batch_into`]): per-layer activation planes plus
/// packed transposed weights. In steady state (same network shape, batch
/// no larger than the high-water mark) a call allocates nothing.
///
/// [`Network::forward_batch_into`]: crate::nn::Network::forward_batch_into
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    /// Per layer boundary: `capacity × dims[l]` activations.
    pub(crate) acts: Vec<Vec<f64>>,
    /// Per layer: transposed weights.
    pub(crate) packed: Vec<Vec<f64>>,
    dims: Vec<usize>,
    capacity: usize,
    reuse_hits: u64,
    allocations: u64,
    /// Multiply-add FLOPs accumulated over all calls.
    flops: u64,
}

impl BatchScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch geometries served without allocating since construction.
    pub fn reuse_hits(&self) -> u64 {
        self.reuse_hits
    }

    /// Scratch geometries that required fresh allocations.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Multiply-add FLOPs accumulated across all batched forwards.
    pub fn flops(&self) -> u64 {
        self.flops
    }

    pub(crate) fn add_flops(&mut self, flops: u64) {
        self.flops += flops;
    }

    /// Sizes the scratch for layer-boundary `dims` and `batch` rows.
    pub(crate) fn ensure(&mut self, dims: &[usize], batch: usize) {
        if self.dims == dims && self.capacity >= batch {
            self.reuse_hits += 1;
            return;
        }
        self.rebuild(dims, batch);
    }

    /// [`ensure`](BatchScratch::ensure) keyed on a network's shape; the
    /// warm-path check compares dims in place, so a hit performs no
    /// allocation at all.
    pub(crate) fn ensure_net(&mut self, net: &Network, batch: usize) {
        if dims_match(&self.dims, net.layers()) && self.capacity >= batch {
            self.reuse_hits += 1;
            return;
        }
        let dims: Vec<usize> = std::iter::once(net.in_dim())
            .chain(net.layers().iter().map(|l| l.out_dim()))
            .collect();
        self.ensure(&dims, batch);
    }

    fn rebuild(&mut self, dims: &[usize], batch: usize) {
        self.allocations += 1;
        self.capacity = self.capacity.max(batch);
        if self.dims != dims {
            self.dims = dims.to_vec();
            let layers = dims.len() - 1;
            self.packed = (0..layers)
                .map(|l| vec![0.0; dims[l] * dims[l + 1]])
                .collect();
        }
        self.acts = self
            .dims
            .iter()
            .map(|&d| vec![0.0; self.capacity * d])
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut a = TrainMetrics {
            epochs: 2,
            batches: 10,
            samples: 20,
            gemm_flops: 1000,
            scratch_reuse_hits: 3,
            scratch_allocations: 1,
            compute_seconds: 0.5,
            update_seconds: 0.25,
            eval_seconds: 0.05,
        };
        let b = TrainMetrics {
            epochs: 1,
            batches: 5,
            samples: 10,
            gemm_flops: 500,
            scratch_reuse_hits: 7,
            scratch_allocations: 0,
            compute_seconds: 0.1,
            update_seconds: 0.1,
            eval_seconds: 0.01,
        };
        a.absorb(&b);
        assert_eq!(a.epochs, 3);
        assert_eq!(a.batches, 15);
        assert_eq!(a.samples, 30);
        assert_eq!(a.gemm_flops, 1500);
        assert_eq!(a.scratch_reuse_hits, 10);
        assert_eq!(a.scratch_allocations, 1);
        assert!((a.total_seconds() - 1.01).abs() < 1e-12);
    }

    #[test]
    fn arena_reuses_matching_geometry() {
        let mut arena = TrainArena::new();
        arena.ensure(&[4, 3, 1], 2);
        assert_eq!(arena.allocations(), 1);
        assert_eq!(arena.reuse_hits(), 0);
        arena.ensure(&[4, 3, 1], 2);
        arena.ensure(&[4, 3, 1], 1); // smaller chunk demand still fits
        assert_eq!(arena.allocations(), 1);
        assert_eq!(arena.reuse_hits(), 2);
        arena.ensure(&[4, 3, 1], 5); // more chunks: grow
        assert_eq!(arena.allocations(), 2);
        arena.ensure(&[5, 2], 1); // new shape: rebuild
        assert_eq!(arena.allocations(), 3);
        assert_eq!(arena.chunks.len(), 1);
        assert_eq!(arena.chunks[0].gw[0].len(), 10);
    }

    #[test]
    fn batch_scratch_is_steady_state_after_warmup() {
        let mut s = BatchScratch::new();
        s.ensure(&[6, 4, 2], 16);
        let allocs = s.allocations();
        for _ in 0..100 {
            s.ensure(&[6, 4, 2], 16);
            s.ensure(&[6, 4, 2], 3); // smaller batches ride the capacity
        }
        assert_eq!(s.allocations(), allocs, "steady state must not allocate");
        assert_eq!(s.reuse_hits(), 200);
    }
}

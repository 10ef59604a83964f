//! Cache-blocked mini-batch kernels for the dense network.
//!
//! Everything the SAE trainer and the batched predictor do on the hot
//! path is one of four flat, allocation-free kernels over row-major
//! buffers:
//!
//! * [`forward_packed`] — `out = act(X · Wᵀ + b)` for a whole mini-batch,
//!   with the weights pre-transposed by [`pack_transpose`] so the inner
//!   loop runs unit-stride over output columns,
//! * [`output_delta`] — the MSE output-layer error `δ = (y − t)·act'(y)`,
//! * [`input_grad`] — back-propagated error `δ_prev = (Wᵀδ)·act'(x)`,
//! * [`accumulate_grads`] — per-chunk gradient accumulation
//!   `∇W += δᵀX`, `∇b += Σδ`.
//!
//! # Bit-identity contract
//!
//! Each kernel's floating-point accumulation order is *defined* to match
//! the scalar reference path ([`Dense::forward`] and the single-sample
//! backprop recurrence) element for element:
//!
//! * forward dots sum over the input index `k` in ascending order from a
//!   `0.0` seed, then add the bias, then apply the activation — exactly
//!   the scalar `Σ_k w[o,k]·x[k] + b[o]`;
//! * input gradients accumulate over the output index `o` in ascending
//!   order, then scale by the activation derivative;
//! * weight gradients accumulate over the sample index `b` in ascending
//!   order within a chunk.
//!
//! Blocking ([`MR`] × [`NR`] register tiles in the gemm-shaped kernels)
//! only changes *which* dot products are in flight together, never the
//! order of additions within one, and no kernel uses fused multiply-add
//! (an FMA would round differently than the scalar `mul` + `add` pair).
//! The payoff: every partial sum is independent across tile lanes, so the
//! inner loops vectorize without reassociation — and the tile's partial
//! sums live in registers across the whole shared-dimension loop instead
//! of round-tripping through the output buffer — while `forward_batch`
//! stays bit-identical to N scalar [`Dense::forward`] calls — the
//! property the crate's proptests pin down with [`f64::to_bits`].
//!
//! [`Dense::forward`]: crate::nn::Dense::forward

use crate::nn::Activation;

/// AVX2 variants of the full-tile microkernels, selected at runtime.
///
/// Each function performs *exactly* the operations of its portable
/// counterpart in the same order — `vmulpd` + `vaddpd`, never a fused
/// multiply-add — so the results are bit-identical; AVX2 only widens the
/// lanes from the two doubles the autovectorizer gets out of baseline
/// SSE2 to four.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{MR, NR};
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_div_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd,
        _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd,
    };

    /// One-time (cached by std) AVX2 probe.
    #[inline]
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    #[inline]
    unsafe fn store_tile(acc0: &[__m256d; MR], acc1: &[__m256d; MR]) -> [[f64; NR]; MR] {
        let mut out = [[0.0; NR]; MR];
        for bi in 0..MR {
            _mm256_storeu_pd(out[bi].as_mut_ptr(), acc0[bi]);
            _mm256_storeu_pd(out[bi].as_mut_ptr().add(4), acc1[bi]);
        }
        out
    }

    /// Full forward tile: `acc[bi][j] = Σ_k wt[k, j0+j] · xs[b0+bi, k]`,
    /// `k` ascending from zero — the portable tile's exact order.
    ///
    /// # Safety
    ///
    /// Requires AVX2, `wt` of shape `in_dim × out_dim`, `xs` holding rows
    /// `b0..b0+MR`, and a full `NR` columns at `j0`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn forward_tile(
        wt: &[f64],
        in_dim: usize,
        out_dim: usize,
        xs: &[f64],
        b0: usize,
        j0: usize,
    ) -> [[f64; NR]; MR] {
        let mut acc0 = [_mm256_setzero_pd(); MR];
        let mut acc1 = [_mm256_setzero_pd(); MR];
        for k in 0..in_dim {
            let wp = wt.as_ptr().add(k * out_dim + j0);
            let w0 = _mm256_loadu_pd(wp);
            let w1 = _mm256_loadu_pd(wp.add(4));
            for bi in 0..MR {
                let x = _mm256_set1_pd(*xs.get_unchecked((b0 + bi) * in_dim + k));
                acc0[bi] = _mm256_add_pd(acc0[bi], _mm256_mul_pd(w0, x));
                acc1[bi] = _mm256_add_pd(acc1[bi], _mm256_mul_pd(w1, x));
            }
        }
        store_tile(&acc0, &acc1)
    }

    /// Full backprop tile: `acc[bi][i] = Σ_o weights[o, i0+i] ·
    /// deltas[b0+bi, o]`, `o` ascending from zero.
    ///
    /// # Safety
    ///
    /// Requires AVX2, `weights` of shape `out_dim × in_dim`, `deltas`
    /// holding rows `b0..b0+MR`, and a full `NR` columns at `i0`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn input_grad_tile(
        weights: &[f64],
        in_dim: usize,
        out_dim: usize,
        deltas: &[f64],
        b0: usize,
        i0: usize,
    ) -> [[f64; NR]; MR] {
        let mut acc0 = [_mm256_setzero_pd(); MR];
        let mut acc1 = [_mm256_setzero_pd(); MR];
        for o in 0..out_dim {
            let wp = weights.as_ptr().add(o * in_dim + i0);
            let w0 = _mm256_loadu_pd(wp);
            let w1 = _mm256_loadu_pd(wp.add(4));
            for bi in 0..MR {
                let d = _mm256_set1_pd(*deltas.get_unchecked((b0 + bi) * out_dim + o));
                acc0[bi] = _mm256_add_pd(acc0[bi], _mm256_mul_pd(w0, d));
                acc1[bi] = _mm256_add_pd(acc1[bi], _mm256_mul_pd(w1, d));
            }
        }
        store_tile(&acc0, &acc1)
    }

    /// Full gradient tile: folds `Σ_b deltas[b, o0+oi] · xs[b, i0+i]`
    /// (`b` ascending) into the `MR × NR` block of `gw` at `(o0, i0)`.
    ///
    /// # Safety
    ///
    /// Requires AVX2, `gw` of shape `out_dim × in_dim` with a full tile
    /// at `(o0, i0)`, and `deltas`/`xs` holding `batch` rows.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn accumulate_tile(
        deltas: &[f64],
        xs: &[f64],
        batch: usize,
        in_dim: usize,
        out_dim: usize,
        gw: &mut [f64],
        o0: usize,
        i0: usize,
    ) {
        let mut acc0 = [_mm256_setzero_pd(); MR];
        let mut acc1 = [_mm256_setzero_pd(); MR];
        for oi in 0..MR {
            let gp = gw.as_ptr().add((o0 + oi) * in_dim + i0);
            acc0[oi] = _mm256_loadu_pd(gp);
            acc1[oi] = _mm256_loadu_pd(gp.add(4));
        }
        for b in 0..batch {
            let xp = xs.as_ptr().add(b * in_dim + i0);
            let x0 = _mm256_loadu_pd(xp);
            let x1 = _mm256_loadu_pd(xp.add(4));
            for oi in 0..MR {
                let d = _mm256_set1_pd(*deltas.get_unchecked(b * out_dim + o0 + oi));
                acc0[oi] = _mm256_add_pd(acc0[oi], _mm256_mul_pd(x0, d));
                acc1[oi] = _mm256_add_pd(acc1[oi], _mm256_mul_pd(x1, d));
            }
        }
        for oi in 0..MR {
            let gp = gw.as_mut_ptr().add((o0 + oi) * in_dim + i0);
            _mm256_storeu_pd(gp, acc0[oi]);
            _mm256_storeu_pd(gp.add(4), acc1[oi]);
        }
    }

    /// Lane-widened momentum step over the leading `len - len % 4`
    /// elements; returns how many it handled. IEEE `div`/`mul`/`sub`/`add`
    /// are exact per lane, so each element matches the scalar formula
    /// bitwise.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and `params`, `velocity`, `grads` of equal length.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sgd_update(
        params: &mut [f64],
        velocity: &mut [f64],
        grads: &[f64],
        scale: f64,
        momentum: f64,
        learning_rate: f64,
    ) -> usize {
        let n = params.len() & !3;
        let vscale = _mm256_set1_pd(scale);
        let vmom = _mm256_set1_pd(momentum);
        let vlr = _mm256_set1_pd(learning_rate);
        for i in (0..n).step_by(4) {
            let g = _mm256_div_pd(_mm256_loadu_pd(grads.as_ptr().add(i)), vscale);
            let v = _mm256_sub_pd(
                _mm256_mul_pd(vmom, _mm256_loadu_pd(velocity.as_ptr().add(i))),
                _mm256_mul_pd(vlr, g),
            );
            _mm256_storeu_pd(velocity.as_mut_ptr().add(i), v);
            let w = _mm256_add_pd(_mm256_loadu_pd(params.as_ptr().add(i)), v);
            _mm256_storeu_pd(params.as_mut_ptr().add(i), w);
        }
        n
    }

    /// Lane-widened `dst[i] += src[i]` over the leading `len - len % 4`
    /// elements; returns how many it handled.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and `dst`, `src` of equal length.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn vec_add(dst: &mut [f64], src: &[f64]) -> usize {
        let n = dst.len() & !3;
        for i in (0..n).step_by(4) {
            let s = _mm256_add_pd(
                _mm256_loadu_pd(dst.as_ptr().add(i)),
                _mm256_loadu_pd(src.as_ptr().add(i)),
            );
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), s);
        }
        n
    }
}

/// Rows of the mini-batch per register tile: with [`NR`] output columns,
/// the tile's `MR × NR` partial sums live in SIMD registers across the
/// whole shared-dimension loop, so the hot loop never touches the output
/// buffer. `4 × 8` doubles (eight 4-lane vectors) leaves headroom for the
/// streamed weight row and broadcast inputs on 16-register machines.
pub const MR: usize = 4;

/// Output columns per register tile (see [`MR`]).
pub const NR: usize = 8;

/// Samples per gradient chunk. This is the unit of the fixed-order tree
/// reduction: a mini-batch is cut into `ceil(len / GRAD_CHUNK)` chunks,
/// each chunk accumulates its samples in ascending order, and the
/// per-chunk sums are combined by [`tree_reduce`]. The partition fixes
/// the floating-point summation order, so changing this constant changes
/// the trained weights.
pub const GRAD_CHUNK: usize = 8;

/// Packs `weights` (row-major `out_dim × in_dim`) into `packed`
/// (row-major `in_dim × out_dim`, i.e. the transpose) so
/// [`forward_packed`] can run unit-stride over output columns.
pub fn pack_transpose(weights: &[f64], in_dim: usize, out_dim: usize, packed: &mut [f64]) {
    debug_assert_eq!(weights.len(), in_dim * out_dim);
    debug_assert_eq!(packed.len(), in_dim * out_dim);
    for o in 0..out_dim {
        let row = &weights[o * in_dim..(o + 1) * in_dim];
        for (k, &w) in row.iter().enumerate() {
            packed[k * out_dim + o] = w;
        }
    }
}

/// One full forward register tile, portable path (see the `x86` module
/// for the lane-widened twin): `acc[bi][j] = Σ_k wt[k, j0+j]·xs[b0+bi, k]`.
#[inline]
fn forward_tile(
    wt: &[f64],
    in_dim: usize,
    out_dim: usize,
    xs: &[f64],
    b0: usize,
    j0: usize,
) -> [[f64; NR]; MR] {
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        // SAFETY: `available()` verified AVX2; bounds match this
        // function's contract (full tile at `(b0, j0)`).
        return unsafe { x86::forward_tile(wt, in_dim, out_dim, xs, b0, j0) };
    }
    let mut acc = [[0.0f64; NR]; MR];
    for k in 0..in_dim {
        let wt_row = &wt[k * out_dim + j0..k * out_dim + j0 + NR];
        for (bi, acc_row) in acc.iter_mut().enumerate() {
            let xk = xs[(b0 + bi) * in_dim + k];
            for (a, &w) in acc_row.iter_mut().zip(wt_row) {
                *a += w * xk;
            }
        }
    }
    acc
}

/// Mini-batch forward pass: `out[b,o] = act(Σ_k xs[b,k]·wt[k,o] + b[o])`
/// with the sum over `k` ascending from `0.0` — bit-identical to
/// [`Dense::forward`](crate::nn::Dense::forward) on each row.
///
/// `wt` is the transposed weight matrix from [`pack_transpose`]. Returns
/// the multiply-add FLOP count (`2·batch·in_dim·out_dim`).
#[allow(clippy::too_many_arguments)]
pub fn forward_packed(
    wt: &[f64],
    biases: &[f64],
    activation: Activation,
    in_dim: usize,
    out_dim: usize,
    xs: &[f64],
    batch: usize,
    out: &mut [f64],
) -> u64 {
    debug_assert_eq!(xs.len(), batch * in_dim);
    debug_assert_eq!(out.len(), batch * out_dim);
    debug_assert_eq!(wt.len(), in_dim * out_dim);
    for b0 in (0..batch).step_by(MR) {
        let mb = (batch - b0).min(MR);
        for j0 in (0..out_dim).step_by(NR) {
            let nj = (out_dim - j0).min(NR);
            if mb == MR && nj == NR {
                // Full tile: MR × NR partial sums stay in registers
                // across the whole k loop.
                let acc = forward_tile(wt, in_dim, out_dim, xs, b0, j0);
                for (bi, acc_row) in acc.iter().enumerate() {
                    let out_row = &mut out[(b0 + bi) * out_dim + j0..];
                    for (j, &a) in acc_row.iter().enumerate() {
                        out_row[j] = activation.apply(a + biases[j0 + j]);
                    }
                }
            } else {
                // Ragged edge: same k-ascending order, one dot at a time.
                for bi in 0..mb {
                    let x_row = &xs[(b0 + bi) * in_dim..(b0 + bi + 1) * in_dim];
                    for j in j0..j0 + nj {
                        let mut a = 0.0;
                        for (k, &xk) in x_row.iter().enumerate() {
                            a += wt[k * out_dim + j] * xk;
                        }
                        out[(b0 + bi) * out_dim + j] = activation.apply(a + biases[j]);
                    }
                }
            }
        }
    }
    2 * (batch * in_dim * out_dim) as u64
}

/// Output-layer error for MSE loss: `δ[b,o] = (y[b,o] − t[b,o])·act'(y)`.
pub fn output_delta(outputs: &[f64], targets: &[f64], activation: Activation, deltas: &mut [f64]) {
    debug_assert_eq!(outputs.len(), targets.len());
    debug_assert_eq!(outputs.len(), deltas.len());
    for ((d, &y), &t) in deltas.iter_mut().zip(outputs).zip(targets) {
        *d = (y - t) * activation.derivative_from_output(y);
    }
}

/// One full backprop register tile, portable path:
/// `acc[bi][i] = Σ_o weights[o, i0+i]·deltas[b0+bi, o]`.
#[inline]
fn input_grad_tile(
    weights: &[f64],
    in_dim: usize,
    out_dim: usize,
    deltas: &[f64],
    b0: usize,
    i0: usize,
) -> [[f64; NR]; MR] {
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        // SAFETY: `available()` verified AVX2; bounds match this
        // function's contract (full tile at `(b0, i0)`).
        return unsafe { x86::input_grad_tile(weights, in_dim, out_dim, deltas, b0, i0) };
    }
    let mut acc = [[0.0f64; NR]; MR];
    for o in 0..out_dim {
        let w_row = &weights[o * in_dim + i0..o * in_dim + i0 + NR];
        for (bi, acc_row) in acc.iter_mut().enumerate() {
            let d = deltas[(b0 + bi) * out_dim + o];
            for (a, &w) in acc_row.iter_mut().zip(w_row) {
                *a += w * d;
            }
        }
    }
    acc
}

/// Back-propagates the error through a layer:
/// `pd[b,i] = (Σ_o weights[o,i]·deltas[b,o]) · act'(act_in[b,i])`
/// with the sum over `o` ascending — the scalar recurrence's order.
///
/// `activation` and `act_in` belong to the *previous* layer (whose
/// outputs feed this one). Returns the multiply-add FLOP count.
#[allow(clippy::too_many_arguments)]
pub fn input_grad(
    weights: &[f64],
    in_dim: usize,
    out_dim: usize,
    deltas: &[f64],
    batch: usize,
    activation: Activation,
    act_in: &[f64],
    pd: &mut [f64],
) -> u64 {
    debug_assert_eq!(deltas.len(), batch * out_dim);
    debug_assert_eq!(act_in.len(), batch * in_dim);
    debug_assert_eq!(pd.len(), batch * in_dim);
    for b0 in (0..batch).step_by(MR) {
        let mb = (batch - b0).min(MR);
        for i0 in (0..in_dim).step_by(NR) {
            let ni = (in_dim - i0).min(NR);
            if mb == MR && ni == NR {
                // Full tile: MR × NR partials in registers across the
                // whole o loop.
                let acc = input_grad_tile(weights, in_dim, out_dim, deltas, b0, i0);
                for (bi, acc_row) in acc.iter().enumerate() {
                    let row = (b0 + bi) * in_dim + i0;
                    for (i, &a) in acc_row.iter().enumerate() {
                        pd[row + i] = a * activation.derivative_from_output(act_in[row + i]);
                    }
                }
            } else {
                // Ragged edge: same o-ascending order, one sum at a time.
                for bi in 0..mb {
                    let d_row = &deltas[(b0 + bi) * out_dim..(b0 + bi + 1) * out_dim];
                    for i in i0..i0 + ni {
                        let mut a = 0.0;
                        for (o, &d) in d_row.iter().enumerate() {
                            a += weights[o * in_dim + i] * d;
                        }
                        let at = (b0 + bi) * in_dim + i;
                        pd[at] = a * activation.derivative_from_output(act_in[at]);
                    }
                }
            }
        }
    }
    2 * (batch * in_dim * out_dim) as u64
}

/// One full gradient register tile, portable path: folds
/// `Σ_b deltas[b, o0+oi]·xs[b, i0+i]` into the `gw` block at `(o0, i0)`.
#[allow(clippy::too_many_arguments)]
#[inline]
fn accumulate_tile(
    deltas: &[f64],
    xs: &[f64],
    batch: usize,
    in_dim: usize,
    out_dim: usize,
    gw: &mut [f64],
    o0: usize,
    i0: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        // SAFETY: `available()` verified AVX2; bounds match this
        // function's contract (full tile at `(o0, i0)`).
        unsafe { x86::accumulate_tile(deltas, xs, batch, in_dim, out_dim, gw, o0, i0) };
        return;
    }
    let mut acc = [[0.0f64; NR]; MR];
    for (oi, acc_row) in acc.iter_mut().enumerate() {
        let gw_row = &gw[(o0 + oi) * in_dim + i0..(o0 + oi) * in_dim + i0 + NR];
        acc_row.copy_from_slice(gw_row);
    }
    for b in 0..batch {
        let x_row = &xs[b * in_dim + i0..b * in_dim + i0 + NR];
        for (oi, acc_row) in acc.iter_mut().enumerate() {
            let d = deltas[b * out_dim + o0 + oi];
            for (g, &x) in acc_row.iter_mut().zip(x_row) {
                *g += d * x;
            }
        }
    }
    for (oi, acc_row) in acc.iter().enumerate() {
        gw[(o0 + oi) * in_dim + i0..(o0 + oi) * in_dim + i0 + NR].copy_from_slice(acc_row);
    }
}

/// Accumulates one chunk's layer gradients:
/// `gw[o,i] += Σ_b deltas[b,o]·xs[b,i]`, `gb[o] += Σ_b deltas[b,o]`,
/// with the sum over `b` ascending. The caller zeroes `gw`/`gb` once per
/// chunk; chunk partials are then combined by [`tree_reduce`]. Returns
/// the multiply-add FLOP count.
pub fn accumulate_grads(
    deltas: &[f64],
    xs: &[f64],
    batch: usize,
    in_dim: usize,
    out_dim: usize,
    gw: &mut [f64],
    gb: &mut [f64],
) -> u64 {
    debug_assert_eq!(deltas.len(), batch * out_dim);
    debug_assert_eq!(xs.len(), batch * in_dim);
    debug_assert_eq!(gw.len(), in_dim * out_dim);
    debug_assert_eq!(gb.len(), out_dim);
    for o0 in (0..out_dim).step_by(MR) {
        let mo = (out_dim - o0).min(MR);
        for i0 in (0..in_dim).step_by(NR) {
            let ni = (in_dim - i0).min(NR);
            if mo == MR && ni == NR {
                // Full tile: the MR × NR gradient block rides registers
                // across the whole sample loop.
                accumulate_tile(deltas, xs, batch, in_dim, out_dim, gw, o0, i0);
            } else {
                // Ragged edge: same b-ascending order, one element at a time.
                for oi in 0..mo {
                    for i in i0..i0 + ni {
                        let mut g = gw[(o0 + oi) * in_dim + i];
                        for b in 0..batch {
                            g += deltas[b * out_dim + o0 + oi] * xs[b * in_dim + i];
                        }
                        gw[(o0 + oi) * in_dim + i] = g;
                    }
                }
            }
        }
    }
    for b in 0..batch {
        let d_row = &deltas[b * out_dim..(b + 1) * out_dim];
        for (g, &d) in gb.iter_mut().zip(d_row) {
            *g += d;
        }
    }
    2 * (batch * in_dim * out_dim) as u64
}

/// Pairwise stride-doubling reduction: folds `items[i + stride]` into
/// `items[i]` for `stride = 1, 2, 4, …`, leaving the total in
/// `items[0]`. The combine order is a pure function of `items.len()`,
/// which is the second half of the trainer's determinism argument (the
/// first half is the fixed [`GRAD_CHUNK`] partition).
pub fn tree_reduce<T>(items: &mut [T], add: impl Fn(&mut T, &T)) {
    let n = items.len();
    let mut stride = 1;
    while stride < n {
        let mut i = 0;
        while i + stride < n {
            let (head, tail) = items.split_at_mut(i + stride);
            add(&mut head[i], &tail[0]);
            i += 2 * stride;
        }
        stride *= 2;
    }
}

/// Elementwise `dst[i] += src[i]` — the [`tree_reduce`] combine for
/// gradient buffers. Per-element and order-free, so the lane-widened
/// path is bitwise identical to the scalar loop.
pub fn vec_add(dst: &mut [f64], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        // SAFETY: `available()` verified AVX2; lengths are equal.
        done = unsafe { x86::vec_add(dst, src) };
    }
    for (d, &s) in dst[done..].iter_mut().zip(&src[done..]) {
        *d += s;
    }
}

/// The classical-momentum SGD step over one flat parameter buffer:
///
/// ```text
/// g = grads[i] / scale
/// velocity[i] = momentum·velocity[i] − learning_rate·g
/// params[i]  += velocity[i]
/// ```
///
/// Every element is independent and each operation is a single IEEE
/// `div`/`mul`/`sub`/`add`, so the lane-widened path is bitwise identical
/// to the scalar loop (the division by the batch length is kept as a
/// division — multiplying by a reciprocal would round differently).
pub fn sgd_update(
    params: &mut [f64],
    velocity: &mut [f64],
    grads: &[f64],
    scale: f64,
    momentum: f64,
    learning_rate: f64,
) {
    debug_assert_eq!(params.len(), velocity.len());
    debug_assert_eq!(params.len(), grads.len());
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        // SAFETY: `available()` verified AVX2; lengths are equal.
        done = unsafe { x86::sgd_update(params, velocity, grads, scale, momentum, learning_rate) };
    }
    for i in done..params.len() {
        let g = grads[i] / scale;
        velocity[i] = momentum * velocity[i] - learning_rate * g;
        params[i] += velocity[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::{Dense, Network};
    use velopt_common::rng::SplitMix64;

    #[test]
    fn pack_transpose_round_trips() {
        let w: Vec<f64> = (0..12).map(|i| i as f64).collect(); // 3 out × 4 in
        let mut packed = vec![0.0; 12];
        pack_transpose(&w, 4, 3, &mut packed);
        for o in 0..3 {
            for k in 0..4 {
                assert_eq!(packed[k * 3 + o], w[o * 4 + k]);
            }
        }
    }

    #[test]
    fn forward_packed_matches_scalar_bitwise() {
        let mut rng = SplitMix64::new(17);
        for (in_dim, out_dim, batch) in [(5, 3, 1), (33, 24, 16), (7, 1, 11), (24, 12, 9)] {
            for activation in [Activation::Sigmoid, Activation::Linear] {
                let layer = Dense::random(in_dim, out_dim, activation, &mut rng);
                let xs: Vec<f64> = (0..batch * in_dim)
                    .map(|_| rng.uniform(-2.0, 2.0))
                    .collect();
                let mut packed = vec![0.0; in_dim * out_dim];
                pack_transpose(layer.weights(), in_dim, out_dim, &mut packed);
                let mut out = vec![0.0; batch * out_dim];
                forward_packed(
                    &packed,
                    layer.biases(),
                    activation,
                    in_dim,
                    out_dim,
                    &xs,
                    batch,
                    &mut out,
                );
                for b in 0..batch {
                    let scalar = layer.forward(&xs[b * in_dim..(b + 1) * in_dim]);
                    for o in 0..out_dim {
                        assert_eq!(
                            out[b * out_dim + o].to_bits(),
                            scalar[o].to_bits(),
                            "row {b} col {o} diverged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn input_grad_matches_scalar_recurrence() {
        let mut rng = SplitMix64::new(5);
        let (in_dim, out_dim, batch) = (6, 4, 3);
        let layer = Dense::random(in_dim, out_dim, Activation::Linear, &mut rng);
        let deltas: Vec<f64> = (0..batch * out_dim)
            .map(|_| rng.uniform(-1.0, 1.0))
            .collect();
        let act_in: Vec<f64> = (0..batch * in_dim).map(|_| rng.uniform(0.1, 0.9)).collect();
        let mut pd = vec![1.0; batch * in_dim]; // nonzero: the kernel must clear it
        input_grad(
            layer.weights(),
            in_dim,
            out_dim,
            &deltas,
            batch,
            Activation::Sigmoid,
            &act_in,
            &mut pd,
        );
        for b in 0..batch {
            for i in 0..in_dim {
                let mut expect = 0.0;
                for o in 0..out_dim {
                    expect += layer.weights()[o * in_dim + i] * deltas[b * out_dim + o];
                }
                let a = act_in[b * in_dim + i];
                expect *= Activation::Sigmoid.derivative_from_output(a);
                assert_eq!(pd[b * in_dim + i].to_bits(), expect.to_bits());
            }
        }
    }

    #[test]
    fn accumulate_grads_sums_samples_in_order() {
        let (in_dim, out_dim, batch) = (3, 2, 4);
        let deltas: Vec<f64> = (0..batch * out_dim).map(|i| 0.1 * i as f64).collect();
        let xs: Vec<f64> = (0..batch * in_dim).map(|i| 1.0 + i as f64).collect();
        let mut gw = vec![0.0; in_dim * out_dim];
        let mut gb = vec![0.0; out_dim];
        accumulate_grads(&deltas, &xs, batch, in_dim, out_dim, &mut gw, &mut gb);
        for o in 0..out_dim {
            for i in 0..in_dim {
                let mut expect = 0.0;
                for b in 0..batch {
                    expect += deltas[b * out_dim + o] * xs[b * in_dim + i];
                }
                assert_eq!(gw[o * in_dim + i].to_bits(), expect.to_bits());
            }
            let expect: f64 = (0..batch).map(|b| deltas[b * out_dim + o]).sum();
            assert_eq!(gb[o].to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn tree_reduce_covers_every_item_once() {
        for n in 1..=17usize {
            let mut items: Vec<u64> = (0..n as u64).map(|i| 1 << i).collect();
            tree_reduce(&mut items, |a, b| *a += *b);
            assert_eq!(items[0], (1u64 << n) - 1, "n={n}");
        }
    }

    #[test]
    fn tree_reduce_order_is_fixed() {
        // Record the combine sequence as strings: it must depend only on n.
        let n = 11;
        let mut items: Vec<String> = (0..n).map(|i| i.to_string()).collect();
        tree_reduce(&mut items, |a, b| *a = format!("({a}+{b})"));
        assert_eq!(
            items[0], "((((0+1)+(2+3))+((4+5)+(6+7)))+((8+9)+10))",
            "the reduction tree is a pure function of the item count"
        );
    }

    #[test]
    fn network_forward_batch_uses_these_kernels_consistently() {
        // End-to-end smoke: a 2-layer net through the batch path equals
        // per-sample scalar forwards bitwise (the full property test
        // lives in tests/properties.rs).
        let mut rng = SplitMix64::new(9);
        let net = Network::new(vec![
            Dense::random(4, 5, Activation::Sigmoid, &mut rng),
            Dense::random(5, 2, Activation::Linear, &mut rng),
        ]);
        let xs: Vec<Vec<f64>> = (0..7)
            .map(|_| (0..4).map(|_| rng.uniform(-1.0, 1.0)).collect())
            .collect();
        let refs: Vec<&[f64]> = xs.iter().map(|x| x.as_slice()).collect();
        let batched = net.forward_batch(&refs);
        for (x, row) in refs.iter().zip(&batched) {
            let scalar = net.forward(x);
            assert_eq!(
                row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}

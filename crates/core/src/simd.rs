//! SIMD microkernels for the DP layer relaxation.
//!
//! The relax loops in [`crate::dp`] evaluate, for every live source state
//! and every target speed in its acceleration band, the candidate pair
//!
//! ```text
//! cost[j] = (src.cost + charge[j]) + time_weight · duration[j]
//! t1[j]   = (src.time + duration[j]) + dwell
//! ```
//!
//! over the contiguous structure-of-arrays charge/duration rows a
//! [`CostTable`](crate::memo::CostTable) keeps per source speed. This
//! module provides that evaluation as an [`MR`] × [`NR`] register tile —
//! up to `MR` source states (which share the charge/duration rows) by
//! `NR` target-speed lanes — in two bit-identical flavors: a portable
//! scalar kernel and an AVX2 kernel selected at runtime.
//!
//! # Bit-identity contract
//!
//! Every lane is an *independent* expression — there is no cross-lane
//! accumulation anywhere — so vectorizing cannot reassociate anything.
//! The AVX2 tile uses `vmulpd` + `vaddpd` only, never a fused
//! multiply-add (an FMA would skip the intermediate rounding of the
//! `mul` result and produce different bits), and evaluates exactly the
//! scalar expressions above with the same association:
//! `(a + b) + c`, with the product `time_weight · duration` rounded
//! before the final add. IEEE-754 `mul` and `add` are deterministic
//! per-lane operations, so the two kernels agree bit-for-bit on every
//! input — including the `NaN` lanes marking infeasible transitions,
//! which the caller's winner pass filters out. Argmin/winner selection
//! never moves into the kernels: the caller scans the tile scalar-ly in
//! the sequential candidate order, so tie-breaking is untouched.
//!
//! # Dispatch
//!
//! [`dispatch`] gates the AVX2 path on three independent switches (see
//! [`velopt_common::simd`]): the
//! [`DpConfig::simd`](crate::dp::DpConfig::simd) knob, the
//! `VELOPT_DP_SIMD` environment override (`0`/`off`/`scalar`/`false`
//! forces the portable kernel — how CI exercises the scalar path on any
//! host), and a runtime AVX2 probe. Bands narrower than a full tile always
//! take the portable kernel (the ragged-edge fallback), which is
//! bit-identical by the argument above.

#[cfg(target_arch = "x86_64")]
use velopt_common::simd::avx2;
use velopt_common::simd::Dispatch;

/// Source rows per tile: live DP states sharing one charge/duration row.
pub(crate) const MR: usize = 4;

/// Target-speed lanes per tile (two AVX2 registers of four doubles).
pub(crate) const NR: usize = 8;

/// One tile source row: the broadcast scalars of a live DP state.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TileSrc {
    /// Accumulated path cost of the source state.
    pub cost: f64,
    /// Continuous arrival time of the source state.
    pub time: f64,
}

/// Tile output: candidate base costs (before the window penalty) and
/// continuous arrival times, one row per tile source.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileOut {
    pub cost: [[f64; NR]; MR],
    pub t1: [[f64; NR]; MR],
}

impl TileOut {
    pub(crate) fn new() -> Self {
        Self {
            cost: [[0.0; NR]; MR],
            t1: [[0.0; NR]; MR],
        }
    }
}

/// Whether the relax loops should attempt the AVX2 kernels: the config
/// knob must allow it, the `VELOPT_DP_SIMD` override must not force
/// scalar, and the host must actually report AVX2.
pub(crate) fn dispatch(config_simd: bool) -> bool {
    static DP: Dispatch = Dispatch::new("VELOPT_DP_SIMD");
    DP.simd(config_simd)
}

/// Portable tile: for each of the `srcs.len()` source rows and `n` target
/// lanes,
///
/// ```text
/// cost[r][j] = (srcs[r].cost + charge[j]) + tw · dur[j]
/// t1[r][j]   = (srcs[r].time + dur[j]) + dwell
/// ```
///
/// — the exact per-lane expressions (and association) of the AVX2 tile
/// and of the historical scalar relax loop.
#[inline]
pub(crate) fn relax_tile_scalar(
    charge: &[f64],
    dur: &[f64],
    srcs: &[TileSrc],
    tw: f64,
    dwell: f64,
    n: usize,
    out: &mut TileOut,
) {
    for (r, src) in srcs.iter().enumerate() {
        for j in 0..n {
            out.cost[r][j] = (src.cost + charge[j]) + tw * dur[j];
            out.t1[r][j] = (src.time + dur[j]) + dwell;
        }
    }
}

/// Computes one relax tile, choosing the AVX2 or portable kernel, and
/// returns whether the AVX2 path ran. `use_simd` is the solve-level
/// [`dispatch`] verdict; short tiles (`n < NR`, the ragged band edge)
/// always take the portable kernel.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn relax_tile(
    use_simd: bool,
    charge: &[f64],
    dur: &[f64],
    srcs: &[TileSrc],
    tw: f64,
    dwell: f64,
    n: usize,
    out: &mut TileOut,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if use_simd && n == NR && avx2() {
        // SAFETY: `avx2()` just verified AVX2 on this host, and
        // `n == NR` guarantees `charge` and `dur` hold a full tile (the
        // caller slices them to `n` lanes).
        unsafe { x86::relax_tile(charge, dur, srcs, tw, dwell, out) };
        return true;
    }
    relax_tile_scalar(charge, dur, srcs, tw, dwell, n, out);
    false
}

/// Portable window-bound stencil fold: the minimum over `b2 in [lo, hi]`
/// of
///
/// ```text
/// gap  = (b2 − b − 1)·dt − dwell − slack
/// cand = tw·max(dmin, gap) + pen[b2] + next[b2]
/// ```
///
/// skipping non-finite `next` bins — exactly the inner loop of the
/// backward `wait` sweep in [`crate::dp`]. Kept as the reference the AVX2
/// fold must match bit-for-bit.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn wait_stencil_min_scalar(
    next: &[f64],
    pen: &[f64],
    lo: usize,
    hi: usize,
    b: usize,
    dt: f64,
    dwell: f64,
    slack: f64,
    tw: f64,
    dmin: f64,
) -> f64 {
    let mut best = f64::INFINITY;
    for b2 in lo..=hi {
        let w2 = next[b2];
        if !w2.is_finite() {
            continue;
        }
        let gap = (b2 as f64 - b as f64 - 1.0) * dt - dwell - slack;
        let cand = tw * dmin.max(gap) + pen[b2] + w2;
        if cand < best {
            best = cand;
        }
    }
    best
}

/// Window-bound stencil fold, choosing the AVX2 or portable flavor.
///
/// Bit-identity: every candidate is an independent per-bin expression
/// (`sub`/`mul`/`max`/`add`, each a single IEEE-754 rounding, evaluated
/// with the scalar association), and the fold is a pure `min` — `min`
/// performs no rounding, so any fold order over the same candidate set
/// yields the same value, and equal `f64` values of this sweep share one
/// bit pattern (all candidates are non-negative, so `±0.0` ties cannot
/// arise). Non-finite `next` bins the scalar loop skips turn into `+∞`
/// candidates in the vector lanes, which a `min` fold ignores identically.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn wait_stencil_min(
    use_simd: bool,
    next: &[f64],
    pen: &[f64],
    lo: usize,
    hi: usize,
    b: usize,
    dt: f64,
    dwell: f64,
    slack: f64,
    tw: f64,
    dmin: f64,
) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if use_simd && hi - lo + 1 >= NR && avx2() {
        // SAFETY: `avx2()` just verified AVX2 on this host, and
        // the caller guarantees `lo <= hi < next.len() == pen.len()`.
        return unsafe { x86::wait_stencil_min(next, pen, lo, hi, b, dt, dwell, slack, tw, dmin) };
    }
    wait_stencil_min_scalar(next, pen, lo, hi, b, dt, dwell, slack, tw, dmin)
}

/// AVX2 variant of the relax tile, selected at runtime.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{TileOut, TileSrc};
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_loadu_pd, _mm256_max_pd, _mm256_min_pd, _mm256_mul_pd,
        _mm256_set1_pd, _mm256_setr_pd, _mm256_storeu_pd, _mm256_sub_pd,
    };

    /// Full relax tile over `NR` target lanes × `srcs.len()` source rows:
    /// per lane `cost = (c0 + charge) + tw·dur` and `t1 = (t0 + dur) +
    /// dwell`, with `vmulpd`/`vaddpd` only — no FMA — so every lane
    /// carries the exact bits of the portable kernel. The `tw·dur`
    /// products are hoisted out of the row loop; they are pure per-lane
    /// multiplications, so hoisting reuses the identical rounded values
    /// the scalar expression computes inline.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and `charge`/`dur` of at least `NR` elements.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn relax_tile(
        charge: &[f64],
        dur: &[f64],
        srcs: &[TileSrc],
        tw: f64,
        dwell: f64,
        out: &mut TileOut,
    ) {
        let vtw = _mm256_set1_pd(tw);
        let vdw = _mm256_set1_pd(dwell);
        let c = charge.as_ptr();
        let d = dur.as_ptr();
        let c0 = _mm256_loadu_pd(c);
        let c1 = _mm256_loadu_pd(c.add(4));
        let d0 = _mm256_loadu_pd(d);
        let d1 = _mm256_loadu_pd(d.add(4));
        let twd0 = _mm256_mul_pd(vtw, d0);
        let twd1 = _mm256_mul_pd(vtw, d1);
        for (r, src) in srcs.iter().enumerate() {
            let vc = _mm256_set1_pd(src.cost);
            let vt = _mm256_set1_pd(src.time);
            let cost0 = _mm256_add_pd(_mm256_add_pd(vc, c0), twd0);
            let cost1 = _mm256_add_pd(_mm256_add_pd(vc, c1), twd1);
            let t10 = _mm256_add_pd(_mm256_add_pd(vt, d0), vdw);
            let t11 = _mm256_add_pd(_mm256_add_pd(vt, d1), vdw);
            _mm256_storeu_pd(out.cost[r].as_mut_ptr(), cost0);
            _mm256_storeu_pd(out.cost[r].as_mut_ptr().add(4), cost1);
            _mm256_storeu_pd(out.t1[r].as_mut_ptr(), t10);
            _mm256_storeu_pd(out.t1[r].as_mut_ptr().add(4), t11);
        }
    }

    /// AVX2 window-bound stencil fold — see
    /// [`wait_stencil_min`](super::wait_stencil_min) for the bit-identity
    /// argument. Eight bins per iteration in two lanes of four, each lane
    /// evaluating the scalar expression sequence verbatim
    /// (`((b2 − b) − 1)·dt − dwell − slack`, then
    /// `(tw·max(dmin, gap) + pen) + next`); the accumulators and the tail
    /// are folded by `min`, which is rounding-free and therefore
    /// order-insensitive here. `_mm256_min_pd`/`_mm256_max_pd` pick the
    /// second operand on ties, matching `f64::max(dmin, gap)`'s
    /// tie-breaking for the finite, positive values this sweep produces;
    /// candidates are placed as the *first* `min` operand so a hypothetical
    /// NaN lane could never displace the accumulator.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and `lo <= hi < next.len() == pen.len()`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn wait_stencil_min(
        next: &[f64],
        pen: &[f64],
        lo: usize,
        hi: usize,
        b: usize,
        dt: f64,
        dwell: f64,
        slack: f64,
        tw: f64,
        dmin: f64,
    ) -> f64 {
        let vbf = _mm256_set1_pd(b as f64);
        let vone = _mm256_set1_pd(1.0);
        let vdt = _mm256_set1_pd(dt);
        let vdw = _mm256_set1_pd(dwell);
        let vsl = _mm256_set1_pd(slack);
        let vtw = _mm256_set1_pd(tw);
        let vdm = _mm256_set1_pd(dmin);
        let vstep = _mm256_set1_pd(4.0);
        // Lane bin indices: integer-valued doubles, exact under +4.0 steps.
        let base = _mm256_set1_pd(lo as f64);
        let mut vb2_0 = _mm256_add_pd(base, _mm256_setr_pd(0.0, 1.0, 2.0, 3.0));
        let mut vb2_1 = _mm256_add_pd(base, _mm256_setr_pd(4.0, 5.0, 6.0, 7.0));
        let vstep2 = _mm256_add_pd(vstep, vstep);
        let mut acc0 = _mm256_set1_pd(f64::INFINITY);
        let mut acc1 = _mm256_set1_pd(f64::INFINITY);
        let mut b2 = lo;
        while b2 + 8 <= hi + 1 {
            let w0 = _mm256_loadu_pd(next.as_ptr().add(b2));
            let w1 = _mm256_loadu_pd(next.as_ptr().add(b2 + 4));
            let p0 = _mm256_loadu_pd(pen.as_ptr().add(b2));
            let p1 = _mm256_loadu_pd(pen.as_ptr().add(b2 + 4));
            let gap0 = _mm256_sub_pd(
                _mm256_sub_pd(
                    _mm256_mul_pd(_mm256_sub_pd(_mm256_sub_pd(vb2_0, vbf), vone), vdt),
                    vdw,
                ),
                vsl,
            );
            let gap1 = _mm256_sub_pd(
                _mm256_sub_pd(
                    _mm256_mul_pd(_mm256_sub_pd(_mm256_sub_pd(vb2_1, vbf), vone), vdt),
                    vdw,
                ),
                vsl,
            );
            let cand0 = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(vtw, _mm256_max_pd(vdm, gap0)), p0),
                w0,
            );
            let cand1 = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(vtw, _mm256_max_pd(vdm, gap1)), p1),
                w1,
            );
            acc0 = _mm256_min_pd(cand0, acc0);
            acc1 = _mm256_min_pd(cand1, acc1);
            vb2_0 = _mm256_add_pd(vb2_0, vstep2);
            vb2_1 = _mm256_add_pd(vb2_1, vstep2);
            b2 += 8;
        }
        let folded = _mm256_min_pd(acc0, acc1);
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), folded);
        let mut best = f64::INFINITY;
        for v in lanes {
            if v < best {
                best = v;
            }
        }
        // Ragged tail — the exact scalar loop.
        if b2 <= hi {
            let tail =
                super::wait_stencil_min_scalar(next, pen, b2, hi, b, dt, dwell, slack, tw, dmin);
            if tail < best {
                best = tail;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> (Vec<f64>, Vec<f64>) {
        // Charge/duration rows with awkward magnitudes and NaN (infeasible)
        // lanes, like a real cost-table band.
        let charge = vec![
            0.0123,
            -0.004,
            f64::NAN,
            0.25,
            1.0 / 3.0,
            -0.75,
            2e-9,
            17.25,
            0.5,
            f64::NAN,
        ];
        let dur = vec![
            1.5,
            2.25,
            f64::NAN,
            3.0,
            7.0 / 3.0,
            4.5,
            100.0,
            0.125,
            9.0,
            f64::NAN,
        ];
        (charge, dur)
    }

    fn srcs() -> [TileSrc; MR] {
        [
            TileSrc {
                cost: 0.1,
                time: 12.5,
            },
            TileSrc {
                cost: -0.02,
                time: 13.0 + 1.0 / 7.0,
            },
            TileSrc {
                cost: 1e6,
                time: 0.0,
            },
            TileSrc {
                cost: 0.333,
                time: 899.5,
            },
        ]
    }

    #[test]
    fn avx2_tile_matches_scalar_bitwise() {
        let (charge, dur) = sample_rows();
        let srcs = srcs();
        let tw = 0.003;
        let dwell = 5.5;
        let mut simd_out = TileOut::new();
        let used = relax_tile(
            dispatch(true),
            &charge[..NR],
            &dur[..NR],
            &srcs,
            tw,
            dwell,
            NR,
            &mut simd_out,
        );
        let mut scalar_out = TileOut::new();
        relax_tile_scalar(
            &charge[..NR],
            &dur[..NR],
            &srcs,
            tw,
            dwell,
            NR,
            &mut scalar_out,
        );
        for r in 0..MR {
            for j in 0..NR {
                // NaN lanes must stay NaN in both; finite lanes must agree
                // bit-for-bit.
                assert_eq!(
                    simd_out.cost[r][j].to_bits(),
                    scalar_out.cost[r][j].to_bits(),
                    "cost[{r}][{j}] diverged (simd path used: {used})"
                );
                assert_eq!(
                    simd_out.t1[r][j].to_bits(),
                    scalar_out.t1[r][j].to_bits(),
                    "t1[{r}][{j}] diverged (simd path used: {used})"
                );
            }
        }
    }

    #[test]
    fn ragged_edge_takes_the_scalar_path() {
        let (charge, dur) = sample_rows();
        let srcs = srcs();
        let mut out = TileOut::new();
        // A short band can never enter the AVX2 kernel, even when allowed.
        let used = relax_tile(
            true,
            &charge[..3],
            &dur[..3],
            &srcs,
            0.003,
            0.0,
            3,
            &mut out,
        );
        assert!(!used);
        assert_eq!(
            out.cost[0][0].to_bits(),
            ((srcs[0].cost + charge[0]) + 0.003 * dur[0]).to_bits()
        );
    }

    #[test]
    fn wait_stencil_fold_matches_scalar_bitwise() {
        // A next-row with awkward magnitudes, infinities (skipped bins) and
        // a penalty row mixing zero and the big-M constant, folded over
        // every sub-range so both the vector body and the ragged tail run.
        let n = 37usize;
        let next: Vec<f64> = (0..n)
            .map(|i| match i % 9 {
                0 => f64::INFINITY,
                1 => 0.0,
                k => (k as f64).sqrt() * 0.37 + i as f64 * 1e-3,
            })
            .collect();
        let pen: Vec<f64> = (0..n)
            .map(|i| if i % 5 == 2 { 1.0e6 } else { 0.0 })
            .collect();
        let (dt, dwell, slack, tw) = (1.0, 5.5, 1e-6, 0.003);
        for b in [0usize, 3, 11] {
            for (lo, hi) in [(0usize, n - 1), (2, 12), (5, 5), (1, 9), (0, 7)] {
                for dmin in [2.25, 31.5] {
                    let scalar =
                        wait_stencil_min_scalar(&next, &pen, lo, hi, b, dt, dwell, slack, tw, dmin);
                    let vector =
                        wait_stencil_min(true, &next, &pen, lo, hi, b, dt, dwell, slack, tw, dmin);
                    assert_eq!(
                        vector.to_bits(),
                        scalar.to_bits(),
                        "wait fold diverged at b={b} lo={lo} hi={hi} dmin={dmin}"
                    );
                }
            }
        }
    }

    #[test]
    fn forced_scalar_dispatch_never_reports_simd() {
        let (charge, dur) = sample_rows();
        let mut out = TileOut::new();
        let used = relax_tile(
            false,
            &charge[..NR],
            &dur[..NR],
            &srcs(),
            0.003,
            5.5,
            NR,
            &mut out,
        );
        assert!(!used);
        // And the config-off dispatch verdict is scalar regardless of host.
        assert!(!dispatch(false));
    }
}

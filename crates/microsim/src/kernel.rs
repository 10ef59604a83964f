//! SIMD lane kernels for the car-following step.
//!
//! [`crate::Simulation::step`] evaluates, for every vehicle lane `i` of the
//! structure-of-arrays state (front-most first), the Krauss update
//!
//! ```text
//! vacc      = spd[i] + accel_dt[i]
//! desired   = min(free[i], vacc)
//! g_lead    = ((pos[i-1] - length[i-1]) - pos[i]) - min_gap[i]     (i > 0)
//! safe_lead = max(-bt[i] + sqrt((btsq[i] + spd[i-1]²) + twob[i]·max(g_lead, 0)), 0)
//! safe_stop = max(-bt[i] + sqrt(btsq[i] + twob[i]·max(stop_gap[i], 0)), 0)
//! next[i]   = max(min(min(desired, safe_lead), safe_stop), 0)
//! ```
//!
//! over contiguous `f64` lanes. This module provides that evaluation in two
//! bit-identical flavors — a portable scalar kernel and an AVX2 kernel
//! selected at runtime — plus the (equally dual) position-integration lane
//! pass `pos[i] = pos[i] + next[i]·dt`.
//!
//! # Bit-identity contract
//!
//! Every lane is an *independent* expression — there is no cross-lane
//! accumulation anywhere — so vectorizing cannot reassociate anything. The
//! AVX2 kernels use `vmulpd`/`vaddpd`/`vsubpd`/`vsqrtpd` only, never a
//! fused multiply-add (an FMA would skip the intermediate rounding of the
//! `mul` result and produce different bits), and evaluate exactly the
//! scalar expressions above with the same association. IEEE-754 requires
//! `vsqrtpd` to be correctly rounded, so even the square root is
//! bit-identical to scalar `f64::sqrt`. The expressions mirror
//! [`KraussParams::safe_speed`](crate::KraussParams::safe_speed) exactly:
//! `btsq = ((b·b)·τ)·τ` carries the left-associated rounding of
//! `b*b*tau*tau`, `(-b)·τ == -(b·τ)` because IEEE negation is exact, and
//! the sum association `(btsq + v_l²) + twob·g` matches
//! `b*b*tau*tau + vl*vl + 2.0*b*g`.
//!
//! Absent constraints use `+∞` sentinels: a missing leader, green light, or
//! served stop sign yields an infinite gap, `sqrt(+∞) = +∞`, and
//! `min(x, +∞) = x` — the same value the historical per-vehicle loop
//! produced by skipping the constraint. The merged light/sign lane
//! `stop_gap = min(light_gap, sign_gap)` is sound because the stopped-
//! obstacle safe speed is weakly monotone in the gap, so
//! `min(f(a), f(b)) == f(min(a, b))` bit-for-bit. No lane ever holds a NaN
//! and no `-0.0` arises (all safe speeds are clamped through `max(·, +0.0)`
//! and gaps of exactly-equal positions round to `+0.0`), so the
//! `min`/`max` folds are order- and flavor-insensitive: `vminpd`/`vmaxpd`
//! tie-breaking cannot be observed.
//!
//! Krauss dawdle noise and IDM vehicles are *not* lane work: the caller
//! applies them in a scalar pass in vehicle order after the kernel, so the
//! SplitMix64 draw sequence is unchanged from the per-vehicle loop.
//!
//! # Dispatch
//!
//! [`dispatch`] gates the AVX2 path on three independent switches (see
//! [`velopt_common::simd`]): the
//! [`SimConfig::simd`](crate::SimConfig::simd) knob, the
//! `VELOPT_MICROSIM_SIMD` environment override (`0`/`off`/`scalar`/`false`
//! forces the portable kernel — how CI exercises the scalar path on any
//! host), and a runtime AVX2 probe. Lane 0 (no leader load at `i - 1`)
//! and ragged tails shorter than a vector block always take the scalar
//! kernel, which is bit-identical by the argument above.

#[cfg(target_arch = "x86_64")]
use velopt_common::simd::avx2;
use velopt_common::simd::Dispatch;

/// Lanes per AVX2 block (one `ymm` register of doubles).
pub(crate) const BLOCK: usize = 4;

/// The structure-of-arrays inputs of one car-following lane pass. All
/// slices have the same length (one entry per vehicle, front-most first);
/// derived parameter lanes are precomputed at vehicle insertion.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KraussIn<'a> {
    /// Front-bumper positions from the previous step.
    pub pos: &'a [f64],
    /// Speeds from the previous step.
    pub spd: &'a [f64],
    /// Vehicle lengths (the *leader's* length is read at `i - 1`).
    pub length: &'a [f64],
    /// Standstill gaps `min_gap`.
    pub min_gap: &'a [f64],
    /// `accel · dt`.
    pub accel_dt: &'a [f64],
    /// `b · τ`.
    pub bt: &'a [f64],
    /// `b · b · τ · τ` (left-associated, matching `safe_speed`).
    pub btsq: &'a [f64],
    /// `2 · b`.
    pub twob: &'a [f64],
    /// Free-flow target (desired speed ∧ road limit ∧ TraCI command).
    pub free: &'a [f64],
    /// Gap to the binding red light / unserved stop sign (`+∞` = none).
    pub stop_gap: &'a [f64],
}

/// Whether the step should attempt the AVX2 kernels: the config knob must
/// allow it, the `VELOPT_MICROSIM_SIMD` override must not force scalar,
/// and the host must actually report AVX2.
pub(crate) fn dispatch(config_simd: bool) -> bool {
    static MICROSIM: Dispatch = Dispatch::new("VELOPT_MICROSIM_SIMD");
    MICROSIM.simd(config_simd)
}

/// The portable per-lane Krauss update — the exact expression sequence of
/// the historical per-vehicle loop, factored per lane. `i == 0` has no
/// leader; its gap sentinel is `+∞`.
#[inline]
pub(crate) fn lane_speed_scalar(input: &KraussIn<'_>, i: usize) -> f64 {
    let vacc = input.spd[i] + input.accel_dt[i];
    let desired = input.free[i].min(vacc);
    let safe_lead = if i > 0 {
        let g =
            (((input.pos[i - 1] - input.length[i - 1]) - input.pos[i]) - input.min_gap[i]).max(0.0);
        let vl = input.spd[i - 1];
        (-input.bt[i] + (input.btsq[i] + vl * vl + input.twob[i] * g).sqrt()).max(0.0)
    } else {
        f64::INFINITY
    };
    let gs = input.stop_gap[i].max(0.0);
    let safe_stop = (-input.bt[i] + (input.btsq[i] + input.twob[i] * gs).sqrt()).max(0.0);
    desired.min(safe_lead).min(safe_stop).max(0.0)
}

/// Computes the full `next` speed lane, choosing the AVX2 or portable
/// kernel per block, and returns `(simd_lanes, scalar_lanes)` — how many
/// vehicle lanes each flavor evaluated. `use_simd` is the step-level
/// [`dispatch`] verdict; lane 0 and the ragged tail always take the
/// portable kernel.
pub(crate) fn lane_speeds(use_simd: bool, input: &KraussIn<'_>, next: &mut [f64]) -> (u64, u64) {
    let n = next.len();
    debug_assert_eq!(input.pos.len(), n);
    if n == 0 {
        return (0, 0);
    }
    #[cfg(target_arch = "x86_64")]
    if use_simd && n > 1 + BLOCK && avx2() {
        // Lane 0 has no leader — scalar. Vector blocks start at lane 1 so
        // the `i - 1` leader loads are always in bounds.
        next[0] = lane_speed_scalar(input, 0);
        let mut i = 1usize;
        while i + BLOCK <= n {
            // SAFETY: `avx2()` verified AVX2 on this host and
            // `i + BLOCK <= n` with `i >= 1` keeps every load (including
            // the leader loads at `i - 1`) inside the equal-length lanes.
            unsafe { x86::lane_speed_block(input, i, next) };
            i += BLOCK;
        }
        let simd_lanes = (i - 1) as u64;
        for (j, out) in next.iter_mut().enumerate().skip(i) {
            *out = lane_speed_scalar(input, j);
        }
        return (simd_lanes, (n - i + 1) as u64);
    }
    for (i, out) in next.iter_mut().enumerate() {
        *out = lane_speed_scalar(input, i);
    }
    (0, n as u64)
}

/// Position integration lane pass: `pos[i] = pos[i] + next[i] · dt` — the
/// exact expression of `v.position += v.speed * dt`. Used when no detector
/// or stop-sign bookkeeping needs the per-vehicle old position; the AVX2
/// flavor is `vmulpd` + `vaddpd` with a broadcast `dt`, bit-identical to
/// scalar.
pub(crate) fn integrate(use_simd: bool, pos: &mut [f64], next: &[f64], dt: f64) {
    let n = pos.len();
    debug_assert_eq!(next.len(), n);
    #[cfg(target_arch = "x86_64")]
    if use_simd && n >= BLOCK && avx2() {
        let mut i = 0usize;
        while i + BLOCK <= n {
            // SAFETY: AVX2 verified; `i + BLOCK <= n` bounds the loads and
            // the store within the equal-length lanes.
            unsafe { x86::integrate_block(pos, next, dt, i) };
            i += BLOCK;
        }
        for j in i..n {
            pos[j] += next[j] * dt;
        }
        return;
    }
    for i in 0..n {
        pos[i] += next[i] * dt;
    }
}

/// AVX2 kernels, selected at runtime.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{KraussIn, BLOCK};
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_loadu_pd, _mm256_max_pd, _mm256_min_pd, _mm256_mul_pd,
        _mm256_set1_pd, _mm256_sqrt_pd, _mm256_storeu_pd, _mm256_sub_pd, _mm256_xor_pd,
    };

    /// One block of [`BLOCK`] Krauss lanes starting at `i >= 1`:
    /// `vmulpd`/`vaddpd`/`vsubpd`/`vsqrtpd` only — no FMA — evaluating the
    /// scalar lane expressions verbatim, so every lane carries the exact
    /// bits of [`super::lane_speed_scalar`]. Negation of `bt` is a sign-bit
    /// XOR (exact); `vsqrtpd` is IEEE correctly rounded and therefore
    /// matches `f64::sqrt` bit-for-bit; the `min`/`max` folds see no NaN
    /// and no `-0.0` (module doc), so operand-order tie-breaking is
    /// unobservable.
    ///
    /// # Safety
    ///
    /// Requires AVX2, `1 <= i` and `i + BLOCK <= n` for the common length
    /// `n` of all lanes in `input` and of `next`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lane_speed_block(input: &KraussIn<'_>, i: usize, next: &mut [f64]) {
        debug_assert!(i >= 1 && i + BLOCK <= next.len());
        let zero = _mm256_set1_pd(0.0);
        let sign = _mm256_set1_pd(-0.0);
        let pos = _mm256_loadu_pd(input.pos.as_ptr().add(i));
        let spd = _mm256_loadu_pd(input.spd.as_ptr().add(i));
        let lead_pos = _mm256_loadu_pd(input.pos.as_ptr().add(i - 1));
        let lead_len = _mm256_loadu_pd(input.length.as_ptr().add(i - 1));
        let lead_spd = _mm256_loadu_pd(input.spd.as_ptr().add(i - 1));
        let min_gap = _mm256_loadu_pd(input.min_gap.as_ptr().add(i));
        let accel_dt = _mm256_loadu_pd(input.accel_dt.as_ptr().add(i));
        let bt = _mm256_loadu_pd(input.bt.as_ptr().add(i));
        let btsq = _mm256_loadu_pd(input.btsq.as_ptr().add(i));
        let twob = _mm256_loadu_pd(input.twob.as_ptr().add(i));
        let free = _mm256_loadu_pd(input.free.as_ptr().add(i));
        let stop_gap = _mm256_loadu_pd(input.stop_gap.as_ptr().add(i));

        // desired = min(free, spd + accel_dt)
        let desired = _mm256_min_pd(free, _mm256_add_pd(spd, accel_dt));
        let neg_bt = _mm256_xor_pd(bt, sign);

        // safe_lead = max(-bt + sqrt((btsq + vl²) + twob·max(g, 0)), 0)
        let g = _mm256_max_pd(
            _mm256_sub_pd(
                _mm256_sub_pd(_mm256_sub_pd(lead_pos, lead_len), pos),
                min_gap,
            ),
            zero,
        );
        let vl2 = _mm256_mul_pd(lead_spd, lead_spd);
        let rad_lead = _mm256_add_pd(_mm256_add_pd(btsq, vl2), _mm256_mul_pd(twob, g));
        let safe_lead = _mm256_max_pd(_mm256_add_pd(neg_bt, _mm256_sqrt_pd(rad_lead)), zero);

        // safe_stop = max(-bt + sqrt(btsq + twob·max(stop_gap, 0)), 0)
        let gs = _mm256_max_pd(stop_gap, zero);
        let rad_stop = _mm256_add_pd(btsq, _mm256_mul_pd(twob, gs));
        let safe_stop = _mm256_max_pd(_mm256_add_pd(neg_bt, _mm256_sqrt_pd(rad_stop)), zero);

        let out = _mm256_max_pd(
            _mm256_min_pd(_mm256_min_pd(desired, safe_lead), safe_stop),
            zero,
        );
        _mm256_storeu_pd(next.as_mut_ptr().add(i), out);
    }

    /// One block of the integration pass: `pos += next · dt`, `vmulpd` +
    /// `vaddpd`, no FMA.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and `i + BLOCK <= pos.len() == next.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn integrate_block(pos: &mut [f64], next: &[f64], dt: f64, i: usize) {
        debug_assert!(i + BLOCK <= pos.len());
        let vdt = _mm256_set1_pd(dt);
        let p = _mm256_loadu_pd(pos.as_ptr().add(i));
        let v = _mm256_loadu_pd(next.as_ptr().add(i));
        let out = _mm256_add_pd(p, _mm256_mul_pd(v, vdt));
        _mm256_storeu_pd(pos.as_mut_ptr().add(i), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KraussParams;
    use velopt_common::rng::SplitMix64;
    use velopt_common::units::{Meters, MetersPerSecond};

    /// Builds awkward but realistic lanes: mixed classes, tight and huge
    /// gaps, stopped and fast leaders, `+∞` stop sentinels and stop lines
    /// exactly at the bumper.
    struct Fixture {
        pos: Vec<f64>,
        spd: Vec<f64>,
        length: Vec<f64>,
        min_gap: Vec<f64>,
        accel_dt: Vec<f64>,
        bt: Vec<f64>,
        btsq: Vec<f64>,
        twob: Vec<f64>,
        free: Vec<f64>,
        stop_gap: Vec<f64>,
        params: Vec<KraussParams>,
    }

    fn fixture(n: usize, seed: u64) -> Fixture {
        let dt = 0.1;
        let classes = [
            KraussParams::passenger(),
            KraussParams::truck(),
            KraussParams::ego(),
        ];
        let mut rng = SplitMix64::new(seed);
        let mut f = Fixture {
            pos: Vec::new(),
            spd: Vec::new(),
            length: Vec::new(),
            min_gap: Vec::new(),
            accel_dt: Vec::new(),
            bt: Vec::new(),
            btsq: Vec::new(),
            twob: Vec::new(),
            free: Vec::new(),
            stop_gap: Vec::new(),
            params: Vec::new(),
        };
        let mut front = 5000.0;
        for i in 0..n {
            let p = classes[(rng.next_u64() % 3) as usize];
            front -= p.length.value() + rng.uniform(0.0, 60.0);
            let b = p.decel.value();
            let tau = p.reaction.value();
            f.pos.push(front);
            f.spd.push(rng.uniform(0.0, 20.0));
            f.length.push(p.length.value());
            f.min_gap.push(p.min_gap.value());
            f.accel_dt.push(p.accel.value() * dt);
            f.bt.push(b * tau);
            f.btsq.push(b * b * tau * tau);
            f.twob.push(2.0 * b);
            f.free.push(if i % 7 == 0 {
                0.0
            } else {
                rng.uniform(5.0, 22.0)
            });
            f.stop_gap.push(match i % 5 {
                0 => f64::INFINITY,
                1 => 0.0, // bumper exactly on the stop line
                _ => rng.uniform(0.5, 300.0),
            });
            f.params.push(p);
        }
        f
    }

    fn input(f: &Fixture) -> KraussIn<'_> {
        KraussIn {
            pos: &f.pos,
            spd: &f.spd,
            length: &f.length,
            min_gap: &f.min_gap,
            accel_dt: &f.accel_dt,
            bt: &f.bt,
            btsq: &f.btsq,
            twob: &f.twob,
            free: &f.free,
            stop_gap: &f.stop_gap,
        }
    }

    /// The scalar lane kernel must reproduce `KraussParams::safe_speed`
    /// bit-for-bit: the lane expression with derived parameters is the same
    /// IEEE operation sequence.
    #[test]
    fn lane_matches_safe_speed_bitwise() {
        let f = fixture(64, 0x5AFE);
        let inp = input(&f);
        for i in 0..f.pos.len() {
            let p = &f.params[i];
            // Reference: the historical per-vehicle fold.
            let vacc = f.spd[i] + p.accel.value() * 0.1;
            let mut want = f.free[i].min(vacc);
            if i > 0 {
                let lead_rear = f.pos[i - 1] - f.length[i - 1];
                let gap = Meters::new(lead_rear - f.pos[i] - f.min_gap[i]);
                want = want.min(
                    p.safe_speed(gap, MetersPerSecond::new(f.spd[i - 1]))
                        .value(),
                );
            }
            if f.stop_gap[i].is_finite() {
                want = want.min(
                    p.safe_speed(Meters::new(f.stop_gap[i]), MetersPerSecond::ZERO)
                        .value(),
                );
            }
            let want = want.max(0.0);
            let got = lane_speed_scalar(&inp, i);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "lane {i} diverged from safe_speed: {got} vs {want}"
            );
        }
    }

    /// The AVX2 kernel must agree with the scalar kernel bit-for-bit on
    /// every lane, across sizes that exercise lane 0, full blocks, and
    /// ragged tails.
    #[test]
    fn avx2_lanes_match_scalar_bitwise() {
        for n in [1usize, 2, 5, 6, 7, 8, 9, 31, 64, 129] {
            let f = fixture(n, 0xB17 ^ n as u64);
            let inp = input(&f);
            let mut scalar = vec![0.0; n];
            let (s0, s1) = lane_speeds(false, &inp, &mut scalar);
            assert_eq!(s0, 0);
            assert_eq!(s1, n as u64);
            let mut auto = vec![0.0; n];
            let (v0, v1) = lane_speeds(dispatch(true), &inp, &mut auto);
            assert_eq!(v0 + v1, n as u64, "every lane counted exactly once");
            for i in 0..n {
                assert_eq!(
                    auto[i].to_bits(),
                    scalar[i].to_bits(),
                    "lane {i}/{n} diverged (simd lanes: {v0})"
                );
            }
        }
    }

    /// Short populations can never enter the AVX2 kernel, even when
    /// dispatch allows it — the ragged edge takes the scalar path.
    #[test]
    fn ragged_edge_takes_the_scalar_path() {
        let f = fixture(BLOCK + 1, 3);
        let mut next = vec![0.0; BLOCK + 1];
        let (simd, scalar) = lane_speeds(true, &input(&f), &mut next);
        assert_eq!(simd, 0, "n <= 1 + BLOCK stays scalar");
        assert_eq!(scalar, (BLOCK + 1) as u64);
    }

    /// A `simd = false` config verdict forces the portable kernels
    /// regardless of host capability, and counts no SIMD lanes.
    #[test]
    fn forced_scalar_dispatch_never_reports_simd() {
        assert!(!dispatch(false));
        let f = fixture(40, 9);
        let mut next = vec![0.0; 40];
        let (simd, scalar) = lane_speeds(false, &input(&f), &mut next);
        assert_eq!(simd, 0);
        assert_eq!(scalar, 40);
    }

    /// The vectorized integration pass is bit-identical to `pos += v·dt`.
    #[test]
    fn integration_matches_scalar_bitwise() {
        for n in [1usize, 3, 4, 5, 16, 33] {
            let mut rng = SplitMix64::new(n as u64);
            let pos: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 4000.0)).collect();
            let next: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 25.0)).collect();
            let mut scalar = pos.clone();
            integrate(false, &mut scalar, &next, 0.1);
            let mut auto = pos.clone();
            integrate(dispatch(true), &mut auto, &next, 0.1);
            for i in 0..n {
                assert_eq!(auto[i].to_bits(), scalar[i].to_bits(), "pos {i}/{n}");
            }
        }
    }
}

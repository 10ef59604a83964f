//! Builds per-signal arrival windows for the DP.
//!
//! * [`queue_aware_constraints`] — our method: each light's windows are the
//!   queue-free portions of its greens (`T_q`, Eq. 11), predicted by the QL
//!   model from the arrival rate.
//! * [`green_only_constraints`] — the prior DP of Ozatay et al. \[2\]: any
//!   instant of green is considered passable (queues ignored).
//! * [`window_period`] — the period after which either kind of window
//!   repeats, when it does: a plan then depends on its departure only
//!   through the departure's phase in that period.

use crate::dp::SignalConstraint;
use velopt_common::units::{Seconds, VehiclesPerHour};
use velopt_common::{Error, Result};
use velopt_queue::{QueueModel, QueueParams, TimeWindow};
use velopt_road::{Road, TrafficLight};

/// Queue-aware `T_q` windows for every light on `road`.
///
/// `arrival_rates` gives the predicted `V_in` per light (e.g. from the SAE
/// predictor); `base` supplies the remaining queue parameters (spacing,
/// straight ratio, `v_min`, `a_max` — the signal timing is taken from each
/// light).
///
/// # Errors
///
/// Returns an error if `arrival_rates` does not match the number of lights
/// or the queue parameters are invalid.
///
/// # Examples
///
/// ```
/// # fn main() -> velopt_common::Result<()> {
/// use velopt_common::units::{Seconds, VehiclesPerHour};
/// use velopt_core::windows::queue_aware_constraints;
/// use velopt_queue::QueueParams;
/// use velopt_road::Road;
///
/// let road = Road::us25();
/// let constraints = queue_aware_constraints(
///     &road,
///     &[VehiclesPerHour::new(153.0), VehiclesPerHour::new(153.0)],
///     QueueParams::us25_probe(),
///     Seconds::new(600.0),
/// )?;
/// assert_eq!(constraints.len(), 2);
/// // The first US-25 light turns green at t = 12 s (offset 42 s); the
/// // queue needs a few seconds to discharge before the window opens.
/// assert!(constraints[0].windows[0].start > Seconds::new(12.0));
/// # Ok(())
/// # }
/// ```
pub fn queue_aware_constraints(
    road: &Road,
    arrival_rates: &[VehiclesPerHour],
    base: QueueParams,
    horizon: Seconds,
) -> Result<Vec<SignalConstraint>> {
    let lights = road.traffic_lights();
    check_arity(lights, arrival_rates)?;
    let mut constraints = Vec::with_capacity(lights.len());
    for (light, &rate) in lights.iter().zip(arrival_rates) {
        let model = light_queue(light, rate, base)?;
        let windows = model.empty_windows(light, Seconds::ZERO, horizon)?;
        constraints.push(SignalConstraint {
            position: light.position(),
            windows,
        });
    }
    Ok(constraints)
}

/// Whole-green windows for every light (the queue-oblivious baseline \[2\]).
///
/// # Examples
///
/// ```
/// use velopt_common::units::Seconds;
/// use velopt_core::windows::green_only_constraints;
/// use velopt_road::Road;
///
/// let constraints = green_only_constraints(&Road::us25(), Seconds::new(300.0));
/// // Baseline windows start exactly at the green (no discharge delay):
/// // the first light (offset 42 s) turns green at t = 12 s.
/// assert_eq!(constraints[0].windows[0].start, Seconds::new(12.0));
/// ```
pub fn green_only_constraints(road: &Road, horizon: Seconds) -> Vec<SignalConstraint> {
    // One scratch buffer shared across lights: `green_windows_into` keeps
    // the steady-state replanning path free of per-light allocations.
    let mut scratch = Vec::new();
    road.traffic_lights()
        .iter()
        .map(|light| {
            light.green_windows_into(Seconds::ZERO, horizon, &mut scratch);
            SignalConstraint {
                position: light.position(),
                windows: scratch
                    .iter()
                    .map(|&(start, end)| TimeWindow { start, end })
                    .collect(),
            }
        })
        .collect()
}

/// Milliseconds per second: signal periods are counted on a 1 ms grid,
/// SUMO's own time resolution.
const MS_PER_S: f64 = 1000.0;

/// The period after which `road`'s arrival windows repeat, or `None` when
/// they do not. See [`repeat_period`] for when they repeat.
///
/// A plan depends on its departure `d` only through the windows ahead of
/// it, so a trip departing at `d + k·C` for a whole `k` makes the plan it
/// makes at `d`, `k·C` later, provided both fit the planning horizon and
/// `k·C` is a whole number of the DP's time bins (the lattice counts bins
/// from `t = 0`).
///
/// # Examples
///
/// ```
/// use velopt_common::units::{Seconds, VehiclesPerHour};
/// use velopt_core::windows::window_period;
/// use velopt_queue::QueueParams;
/// use velopt_road::Road;
///
/// // Both US-25 lights run 30 s red, 30 s green.
/// let road = Road::us25();
/// let base = QueueParams::us25_probe();
/// let light = [VehiclesPerHour::new(300.0); 2];
/// assert_eq!(window_period(&road, &light, base, true), Some(Seconds::new(60.0)));
/// // At 3,000 veh/h the queue outlives the green: every cycle carries a
/// // residual into the next, and the `T_q` windows drift.
/// let jammed = [VehiclesPerHour::new(3000.0); 2];
/// assert_eq!(window_period(&road, &jammed, base, true), None);
/// assert_eq!(window_period(&road, &jammed, base, false), Some(Seconds::new(60.0)));
/// ```
pub fn window_period(
    road: &Road,
    arrival_rates: &[VehiclesPerHour],
    base: QueueParams,
    queue_aware: bool,
) -> Option<Seconds> {
    repeat_period(road, arrival_rates, base, queue_aware).ok()
}

/// `time`'s phase in `period` (a [`window_period`]), on the millisecond
/// grid the period is counted on: `(round(time · 1000) mod C_ms) / 1000` s.
///
/// The grid is SUMO's own time resolution, and it makes phases comparable
/// by their bits: a simulation clock that sums its steps reads two instants
/// a period apart with different last bits (312.3000000000017 and
/// 372.30000000000285 s), and both have the phase 12.3 s.
///
/// # Examples
///
/// ```
/// use velopt_common::units::Seconds;
/// use velopt_core::windows::phase_in_period;
///
/// let minute = Seconds::new(60.0);
/// assert_eq!(phase_in_period(Seconds::new(312.300_000_000_001_7), minute), Seconds::new(12.3));
/// assert_eq!(phase_in_period(Seconds::new(372.300_000_000_002_85), minute), Seconds::new(12.3));
/// ```
pub fn phase_in_period(time: Seconds, period: Seconds) -> Seconds {
    let period_ms = (period.value() * MS_PER_S).round() as u64;
    let time_ms = (time.value() * MS_PER_S).round() as u64;
    Seconds::new((time_ms % period_ms.max(1)) as f64 / MS_PER_S)
}

/// [`window_period`], with the reason when the windows do not repeat.
///
/// The period is the least common multiple of the lights' cycles, counted
/// in whole milliseconds (one millisecond for a corridor without lights).
/// Green-only windows (`queue_aware == false`) repeat whenever that period
/// exists. The queue-aware `T_q` windows repeat only when, besides, every
/// light's QL model — built exactly as [`queue_aware_constraints`] builds
/// it — clears its queue within the green and carries nothing into the
/// next cycle: [`QueueModel::empty_windows`] then starts every cycle empty,
/// and every cycle's window opens at the same point of it.
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] naming the cause: the light whose queue
/// outlives its green at its rate, or cycles with no common period in
/// whole milliseconds (a cycle off the grid, or a multiple past `u64`).
/// Queue-aware, it also returns the errors of [`queue_aware_constraints`]
/// for rates that do not match the lights or invalid queue parameters.
pub fn repeat_period(
    road: &Road,
    arrival_rates: &[VehiclesPerHour],
    base: QueueParams,
    queue_aware: bool,
) -> Result<Seconds> {
    let lights = road.traffic_lights();
    if queue_aware {
        check_arity(lights, arrival_rates)?;
        for (i, (light, &rate)) in lights.iter().zip(arrival_rates).enumerate() {
            let model = light_queue(light, rate, base)?;
            if model.clear_time().is_none() || model.residual_after_cycle(0.0) > 0.0 {
                return Err(Error::invalid_input(format!(
                    "light {i}'s queue outlives its {} s green at {} veh/h, so its \
                     arrival windows do not repeat",
                    light.green().value(),
                    rate.value()
                )));
            }
        }
    }
    let mut period_ms = 1u64;
    for light in lights {
        period_ms = cycle_ms(light)
            .and_then(|ms| lcm(period_ms, ms))
            .ok_or_else(|| {
                let cycles: Vec<String> = lights
                    .iter()
                    .map(|l| format!("{} s", l.cycle().value()))
                    .collect();
                Error::invalid_input(format!(
                    "the light cycles ({}) have no common period in whole milliseconds",
                    cycles.join(", ")
                ))
            })?;
    }
    Ok(Seconds::new(period_ms as f64 / MS_PER_S))
}

/// The QL model of `light` at arrival rate `rate`: `base` with the light's
/// own signal timing. Both [`queue_aware_constraints`] and
/// [`repeat_period`] build their models here, so they cannot drift.
fn light_queue(
    light: &TrafficLight,
    rate: VehiclesPerHour,
    base: QueueParams,
) -> Result<QueueModel> {
    QueueModel::new(QueueParams {
        arrival_rate: rate,
        red: light.red(),
        green: light.green(),
        ..base
    })
}

fn check_arity(lights: &[TrafficLight], arrival_rates: &[VehiclesPerHour]) -> Result<()> {
    if arrival_rates.len() != lights.len() {
        return Err(Error::invalid_input(format!(
            "{} arrival rates for {} lights",
            arrival_rates.len(),
            lights.len()
        )));
    }
    Ok(())
}

/// A light's cycle in whole milliseconds, or `None` when it is more than a
/// nanosecond off the millisecond grid (or too long to count exactly).
fn cycle_ms(light: &TrafficLight) -> Option<u64> {
    let ms = light.cycle().value() * MS_PER_S;
    let whole = ms.round();
    let on_grid = (ms - whole).abs() <= 1e-6;
    (on_grid && whole >= 1.0 && whole < 2f64.powi(53)).then_some(whole as u64)
}

/// Least common multiple, `None` on overflow.
fn lcm(a: u64, b: u64) -> Option<u64> {
    let (mut x, mut y) = (a, b);
    while y != 0 {
        (x, y) = (y, x % y);
    }
    (a / x).checked_mul(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use velopt_common::units::Meters;
    use velopt_queue::QueueParams;
    use velopt_road::RoadBuilder;

    /// A corridor with one light every 300 m per `(red, green)` pair,
    /// offsets staggered so no two lights switch together.
    fn road_with_cycles(phases: &[(f64, f64)]) -> Road {
        let mut builder = RoadBuilder::new(Meters::new(300.0 * (phases.len() as f64 + 1.0)));
        for (i, &(red, green)) in phases.iter().enumerate() {
            builder.traffic_light(
                Meters::new(300.0 + 300.0 * i as f64),
                Seconds::new(red),
                Seconds::new(green),
                Seconds::new(7.0 * i as f64),
            );
        }
        builder.build().unwrap()
    }

    fn period(road: &Road, rate: f64, queue_aware: bool) -> Option<Seconds> {
        let rates = vec![VehiclesPerHour::new(rate); road.traffic_lights().len()];
        window_period(road, &rates, QueueParams::us25_probe(), queue_aware)
    }

    #[test]
    fn two_30_30_lights_repeat_every_minute() {
        let road = road_with_cycles(&[(30.0, 30.0), (30.0, 30.0)]);
        for queue_aware in [true, false] {
            assert_eq!(period(&road, 300.0, queue_aware), Some(Seconds::new(60.0)));
        }
        assert_eq!(period(&Road::us25(), 300.0, true), Some(Seconds::new(60.0)));
    }

    #[test]
    fn the_period_is_the_lcm_of_the_cycles() {
        let road = road_with_cycles(&[(20.0, 20.0), (25.0, 35.0)]);
        assert_eq!(period(&road, 100.0, true), Some(Seconds::new(120.0)));
        // On the millisecond grid: 0.5 s and 0.3 s of green shift the LCM.
        let road = road_with_cycles(&[(30.0, 30.5), (30.0, 30.3)]);
        assert_eq!(
            period(&road, 100.0, false),
            Some(Seconds::new(60.5 * 603.0))
        );
        // No lights: the windows (none) repeat on every millisecond.
        let road = road_with_cycles(&[]);
        assert_eq!(period(&road, 100.0, true), Some(Seconds::new(0.001)));
    }

    #[test]
    fn a_cycle_off_the_millisecond_grid_has_no_period() {
        let road = road_with_cycles(&[(30.0, 30.0004)]);
        for queue_aware in [true, false] {
            assert_eq!(period(&road, 100.0, queue_aware), None);
        }
        let rates = [VehiclesPerHour::new(100.0)];
        let err = repeat_period(&road, &rates, QueueParams::us25_probe(), false).unwrap_err();
        assert!(err.to_string().contains("60.0004 s"), "{err}");
        assert!(err.to_string().contains("whole milliseconds"), "{err}");
        // A common multiple past `u64` milliseconds is no period either.
        let primes = [
            (30.0, 30.001),
            (30.0, 30.007),
            (30.0, 30.013),
            (30.0, 30.019),
            (30.0, 30.023),
        ];
        assert_eq!(period(&road_with_cycles(&primes), 100.0, false), None);
    }

    #[test]
    fn a_queue_that_outlives_its_green_has_no_period_queue_aware() {
        let road = road_with_cycles(&[(30.0, 30.0)]);
        assert_eq!(period(&road, 3000.0, true), None);
        assert_eq!(period(&road, 3000.0, false), Some(Seconds::new(60.0)));
        let rates = [VehiclesPerHour::new(3000.0)];
        let err = repeat_period(&road, &rates, QueueParams::us25_probe(), true).unwrap_err();
        assert!(err.to_string().contains("light 0's queue"), "{err}");
        assert!(err.to_string().contains("3000 veh/h"), "{err}");
        // Rates that do not match the lights are refused as the windows
        // refuse them.
        assert!(repeat_period(&road, &[], QueueParams::us25_probe(), true).is_err());
    }

    /// Where the helper finds a period, the windows the DP is handed do
    /// repeat with it: every window a period or more into the horizon is an
    /// earlier one, a period later.
    #[test]
    fn windows_repeat_with_the_period() {
        let horizon = Seconds::new(900.0);
        let road = road_with_cycles(&[(20.0, 20.0), (25.0, 35.0)]);
        let base = QueueParams::us25_probe();
        for rate in [100.0, 300.0, 600.0] {
            let rates = [VehiclesPerHour::new(rate); 2];
            let c = window_period(&road, &rates, base, true).unwrap().value();
            for (signal, green) in queue_aware_constraints(&road, &rates, base, horizon)
                .unwrap()
                .iter()
                .zip(green_only_constraints(&road, horizon))
            {
                for windows in [&signal.windows, &green.windows] {
                    for w in windows.iter().filter(|w| w.start.value() >= c) {
                        if w.end >= horizon {
                            continue;
                        }
                        assert!(
                            windows
                                .iter()
                                .any(|e| (e.start.value() + c - w.start.value()).abs() < 1e-9
                                    && (e.end.value() + c - w.end.value()).abs() < 1e-9),
                            "{w:?} at {rate} veh/h has no twin a period earlier"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn queue_windows_are_subsets_of_greens() {
        let road = Road::us25();
        let rates = [VehiclesPerHour::new(153.0), VehiclesPerHour::new(300.0)];
        let ours = queue_aware_constraints(
            &road,
            &rates,
            QueueParams::us25_probe(),
            Seconds::new(600.0),
        )
        .unwrap();
        let greens = green_only_constraints(&road, Seconds::new(600.0));
        for (q, g) in ours.iter().zip(&greens) {
            assert_eq!(q.position, g.position);
            for w in &q.windows {
                assert!(
                    g.windows
                        .iter()
                        .any(|gw| gw.start <= w.start && w.end <= gw.end),
                    "T_q window {w:?} must lie inside a green window"
                );
            }
        }
    }

    #[test]
    fn heavier_arrivals_shrink_windows() {
        let road = Road::us25();
        let light_traffic = queue_aware_constraints(
            &road,
            &[VehiclesPerHour::new(50.0), VehiclesPerHour::new(50.0)],
            QueueParams::us25_probe(),
            Seconds::new(300.0),
        )
        .unwrap();
        let heavy_traffic = queue_aware_constraints(
            &road,
            &[VehiclesPerHour::new(900.0), VehiclesPerHour::new(900.0)],
            QueueParams::us25_probe(),
            Seconds::new(300.0),
        )
        .unwrap();
        let total = |cs: &[SignalConstraint]| -> f64 {
            cs.iter()
                .flat_map(|c| &c.windows)
                .map(|w| w.duration().value())
                .sum()
        };
        assert!(total(&heavy_traffic) < total(&light_traffic));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let road = Road::us25();
        assert!(queue_aware_constraints(
            &road,
            &[VehiclesPerHour::new(153.0)],
            QueueParams::us25_probe(),
            Seconds::new(300.0),
        )
        .is_err());
    }

    #[test]
    fn admits_matches_window_membership() {
        // Check membership against the light's own phase function rather
        // than hard-coded instants, so offset tuning cannot break this.
        let road = Road::us25();
        let greens = green_only_constraints(&road, Seconds::new(120.0));
        let light = &road.traffic_lights()[0];
        for t in 0..119 {
            let t = Seconds::new(t as f64 + 0.5);
            assert_eq!(
                greens[0].admits(t),
                light.phase_at(t).is_green(),
                "mismatch at {t}"
            );
        }
    }
}

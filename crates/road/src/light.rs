//! Fixed-cycle traffic lights.
//!
//! The paper models a signal cycle as a red period `[0, t_red)` followed by a
//! green period `[t_red, t_red + t_green)` (§II-B-2). An `offset` shifts the
//! cycle in absolute time so corridors with uncoordinated signals can be
//! expressed.

use serde::{Deserialize, Serialize};
use velopt_common::units::{Meters, Seconds};
use velopt_common::{Error, Result};

/// The state of a signal head.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Vehicles must stop at the stop line.
    Red,
    /// Vehicles may proceed.
    Green,
}

impl Phase {
    /// Whether the phase allows vehicles through.
    pub fn is_green(self) -> bool {
        matches!(self, Phase::Green)
    }
}

/// A fixed-time traffic light at a position along the corridor.
///
/// The cycle begins with red: at absolute time `offset` the light turns red,
/// stays red for `red`, then green for `green`, then repeats.
///
/// # Examples
///
/// ```
/// # fn main() -> velopt_common::Result<()> {
/// use velopt_common::units::{Meters, Seconds};
/// use velopt_road::{Phase, TrafficLight};
///
/// let light = TrafficLight::new(
///     Meters::new(1800.0),
///     Seconds::new(30.0),
///     Seconds::new(30.0),
///     Seconds::ZERO,
/// )?;
/// assert_eq!(light.cycle(), Seconds::new(60.0));
/// assert_eq!(light.phase_at(Seconds::new(29.9)), Phase::Red);
/// assert_eq!(light.phase_at(Seconds::new(30.0)), Phase::Green);
/// assert_eq!(light.phase_at(Seconds::new(60.0)), Phase::Red);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficLight {
    position: Meters,
    red: Seconds,
    green: Seconds,
    offset: Seconds,
}

impl TrafficLight {
    /// Creates a light.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if either period is non-positive or
    /// the position is negative.
    pub fn new(position: Meters, red: Seconds, green: Seconds, offset: Seconds) -> Result<Self> {
        if red.value() <= 0.0 || green.value() <= 0.0 {
            return Err(Error::invalid_input("signal periods must be positive"));
        }
        if position.value() < 0.0 {
            return Err(Error::invalid_input("light position must be non-negative"));
        }
        Ok(Self {
            position,
            red,
            green,
            offset,
        })
    }

    /// Stop-line position along the corridor.
    pub fn position(&self) -> Meters {
        self.position
    }

    /// Red period `t_red`.
    pub fn red(&self) -> Seconds {
        self.red
    }

    /// Green period `t_green`.
    pub fn green(&self) -> Seconds {
        self.green
    }

    /// Cycle offset (time at which a red phase starts).
    pub fn offset(&self) -> Seconds {
        self.offset
    }

    /// Full cycle duration `t_red + t_green`.
    pub fn cycle(&self) -> Seconds {
        self.red + self.green
    }

    /// Time elapsed since the start of the current cycle, in `[0, cycle)`.
    pub fn time_in_cycle(&self, t: Seconds) -> Seconds {
        let c = self.cycle().value();
        let rel = (t - self.offset).value().rem_euclid(c);
        Seconds::new(rel)
    }

    /// Phase at absolute time `t`.
    pub fn phase_at(&self, t: Seconds) -> Phase {
        if self.time_in_cycle(t) < self.red {
            Phase::Red
        } else {
            Phase::Green
        }
    }

    /// Absolute time of the most recent cycle start at or before `t`.
    pub fn cycle_start_at(&self, t: Seconds) -> Seconds {
        t - self.time_in_cycle(t)
    }

    /// The next instant at or after `t` when the light is (or turns) green.
    pub fn next_green_start(&self, t: Seconds) -> Seconds {
        match self.phase_at(t) {
            Phase::Green => t,
            Phase::Red => self.cycle_start_at(t) + self.red,
        }
    }

    /// Green intervals `[start, end)` intersecting `[from, from + horizon)`.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> velopt_common::Result<()> {
    /// use velopt_common::units::{Meters, Seconds};
    /// use velopt_road::TrafficLight;
    ///
    /// let light = TrafficLight::new(
    ///     Meters::ZERO, Seconds::new(30.0), Seconds::new(30.0), Seconds::ZERO)?;
    /// let windows = light.green_windows(Seconds::ZERO, Seconds::new(120.0));
    /// assert_eq!(windows, vec![
    ///     (Seconds::new(30.0), Seconds::new(60.0)),
    ///     (Seconds::new(90.0), Seconds::new(120.0)),
    /// ]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn green_windows(&self, from: Seconds, horizon: Seconds) -> Vec<(Seconds, Seconds)> {
        let mut windows = Vec::new();
        self.green_windows_into(from, horizon, &mut windows);
        windows
    }

    /// Like [`TrafficLight::green_windows`], but clears and fills a
    /// caller-owned buffer so steady-state replanning and router signature
    /// hashing stay allocation-free once the buffer has grown to capacity.
    pub fn green_windows_into(
        &self,
        from: Seconds,
        horizon: Seconds,
        windows: &mut Vec<(Seconds, Seconds)>,
    ) {
        windows.clear();
        let end = from + horizon;
        // Start scanning from the cycle containing `from`, for at most the
        // whole cycles the span holds: once a cycle is under half an ulp of
        // the clock, `cycle_start += cycle` stops advancing.
        let mut cycle_start = self.cycle_start_at(from);
        let cycles = ((end - cycle_start).value() / self.cycle().value()).ceil() as u64 + 1;
        for _ in 0..cycles {
            if cycle_start >= end {
                break;
            }
            let g0 = cycle_start + self.red;
            let g1 = cycle_start + self.cycle();
            let clipped = (g0.max(from), g1.min(end));
            if clipped.0 < clipped.1 {
                windows.push(clipped);
            }
            cycle_start += self.cycle();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn light(offset: f64) -> TrafficLight {
        TrafficLight::new(
            Meters::new(100.0),
            Seconds::new(30.0),
            Seconds::new(30.0),
            Seconds::new(offset),
        )
        .unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(TrafficLight::new(
            Meters::ZERO,
            Seconds::ZERO,
            Seconds::new(1.0),
            Seconds::ZERO
        )
        .is_err());
        assert!(TrafficLight::new(
            Meters::ZERO,
            Seconds::new(1.0),
            Seconds::ZERO,
            Seconds::ZERO
        )
        .is_err());
        assert!(TrafficLight::new(
            Meters::new(-1.0),
            Seconds::new(1.0),
            Seconds::new(1.0),
            Seconds::ZERO
        )
        .is_err());
    }

    #[test]
    fn phase_boundaries() {
        let l = light(0.0);
        assert_eq!(l.phase_at(Seconds::ZERO), Phase::Red);
        assert_eq!(l.phase_at(Seconds::new(29.999)), Phase::Red);
        assert_eq!(l.phase_at(Seconds::new(30.0)), Phase::Green);
        assert_eq!(l.phase_at(Seconds::new(59.999)), Phase::Green);
        assert_eq!(l.phase_at(Seconds::new(60.0)), Phase::Red);
        assert!(l.phase_at(Seconds::new(45.0)).is_green());
    }

    #[test]
    fn offset_shifts_cycle() {
        let l = light(10.0);
        assert_eq!(l.phase_at(Seconds::new(5.0)), Phase::Green); // tail of previous cycle
        assert_eq!(l.phase_at(Seconds::new(10.0)), Phase::Red);
        assert_eq!(l.phase_at(Seconds::new(40.0)), Phase::Green);
    }

    #[test]
    fn negative_time_wraps() {
        let l = light(0.0);
        // t = -15 is inside the green of the "previous" cycle.
        assert_eq!(l.phase_at(Seconds::new(-15.0)), Phase::Green);
        assert_eq!(l.phase_at(Seconds::new(-45.0)), Phase::Red);
    }

    #[test]
    fn next_green_start() {
        let l = light(0.0);
        assert_eq!(l.next_green_start(Seconds::new(10.0)), Seconds::new(30.0));
        assert_eq!(l.next_green_start(Seconds::new(35.0)), Seconds::new(35.0));
        assert_eq!(l.next_green_start(Seconds::new(60.0)), Seconds::new(90.0));
    }

    #[test]
    fn green_windows_clip_to_horizon() {
        let l = light(0.0);
        let ws = l.green_windows(Seconds::new(45.0), Seconds::new(60.0));
        assert_eq!(
            ws,
            vec![
                (Seconds::new(45.0), Seconds::new(60.0)),
                (Seconds::new(90.0), Seconds::new(105.0)),
            ]
        );
    }

    #[test]
    fn green_windows_empty_horizon() {
        let l = light(0.0);
        assert!(l.green_windows(Seconds::ZERO, Seconds::ZERO).is_empty());
    }

    #[test]
    fn green_windows_into_reuses_dirty_buffer() {
        let l = light(0.0);
        let mut buf = vec![(Seconds::new(-1.0), Seconds::new(-2.0)); 7];
        l.green_windows_into(Seconds::new(45.0), Seconds::new(60.0), &mut buf);
        assert_eq!(buf, l.green_windows(Seconds::new(45.0), Seconds::new(60.0)));
        // An empty horizon clears the buffer instead of appending.
        l.green_windows_into(Seconds::ZERO, Seconds::ZERO, &mut buf);
        assert!(buf.is_empty());
    }

    /// At a clock so large that a cycle is under half an ulp, stepping
    /// `cycle_start += cycle` stops advancing; the scan must still end,
    /// with every window inside `[from, from + horizon]`.
    #[test]
    fn green_windows_end_where_the_clock_cannot_hold_a_cycle() {
        let (from, horizon) = (Seconds::new(1e18), Seconds::new(900.0));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut windows = Vec::new();
            light(7.0).green_windows_into(from, horizon, &mut windows);
            let _ = tx.send(windows);
        });
        let windows = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("green_windows_into did not return");
        let end = from + horizon;
        assert!(
            windows.iter().all(|&(a, b)| from <= a && a < b && b <= end),
            "{windows:?}"
        );
    }

    #[test]
    fn cycle_start_is_stable_within_cycle() {
        let l = light(7.0);
        let s1 = l.cycle_start_at(Seconds::new(20.0));
        let s2 = l.cycle_start_at(Seconds::new(60.0));
        assert_eq!(s1, Seconds::new(7.0));
        assert_eq!(s2, s1);
        assert_eq!(l.cycle_start_at(Seconds::new(67.1)), Seconds::new(67.0));
    }
}

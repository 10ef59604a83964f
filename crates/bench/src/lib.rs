//! Shared harness code for the figure-regeneration binaries, and the
//! [`suite`] behind `bench-suite`, the per-layer perf gate.
//!
//! Every figure of the paper's evaluation (§III) has a binary in
//! `src/bin/` that regenerates its data series as TSV on stdout:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig3` | ζ(v, a) consumption surface |
//! | `fig4` | traffic volume week + SAE MRE/RMSE per day |
//! | `fig5` | leaving-rate and queue-length dynamics vs the baseline \[9\] |
//! | `fig6` | planned vs simulator-derived velocity profiles |
//! | `fig7` | collected profiles + total energy comparison |
//! | `fig8` | distance–time curves and trip times |
//! | `experiments` | all of the above, summarized as paper-vs-measured rows |
//!
//! The Fig. 6–8 binaries replay their plans through the microsimulator
//! over TraCI with [`velopt_cosim::replay_through_traci`], the same
//! scenario and ego loop the Fig. 6 test and the TraCI examples run.

pub mod suite;

use velopt_common::units::Seconds;
use velopt_common::{Error, Result, TimeSeries};

/// Formats aligned TSV rows: a header then one line per record.
pub fn tsv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = header.join("\t");
    out.push('\n');
    for row in rows {
        out.push_str(&row.join("\t"));
        out.push('\n');
    }
    out
}

/// Convenience: formats an `f64` column value.
pub fn col(value: f64) -> String {
    format!("{value:.3}")
}

/// Resamples a series to 1 Hz for compact figure output.
///
/// # Errors
///
/// Propagates resampling failures (degenerate input grids).
pub fn downsample_1hz(series: &TimeSeries) -> Result<TimeSeries> {
    if series.duration().value() < 1.0 {
        return Err(Error::invalid_input("series shorter than one second"));
    }
    series.resample(Seconds::new(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsv_formatting() {
        let out = tsv(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        assert_eq!(out, "a\tb\n1\t2\n3\t4\n");
        assert_eq!(col(1.23456), "1.235");
    }

    #[test]
    fn downsample_requires_duration() {
        let s = TimeSeries::from_samples(Seconds::ZERO, Seconds::new(0.1), vec![0.0; 4]).unwrap();
        assert!(downsample_1hz(&s).is_err());
        let s = TimeSeries::from_samples(Seconds::ZERO, Seconds::new(0.5), vec![1.0; 9]).unwrap();
        let d = downsample_1hz(&s).unwrap();
        assert_eq!(d.step(), Seconds::new(1.0));
    }
}

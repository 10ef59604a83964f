//! `bench-suite` — the continuous-benchmark runner and perf-regression
//! gate (see [`velopt_bench::suite`]).
//!
//! ```text
//! bench-suite [--quick] [--scenario NAME] [--out PATH]
//!     Run the scenario matrix and write the report (default BENCH_dp.json).
//!     --scenario NAME runs only the scenario families whose name stem
//!     contains NAME (e.g. "route_plan", "cloud", "sae"); an unknown name
//!     is an error listing the known stems.
//!
//! bench-suite --check BASELINE [--current PATH] [--tolerance T] [--warn-only]
//!     Compare a report (a fresh run, or --current PATH) against BASELINE.
//!     A scenario regresses when its median wall time exceeds the baseline
//!     median by strictly more than T (default 0.15 = +15%, plus 2 ms), or
//!     when it fails a row of the gate table `velopt_bench::suite::GATES`
//!     at tolerance T.
//!
//! bench-suite --check-work BASELINE [--current PATH] [--warn-only]
//!     The gate table alone, at zero tolerance: wall time is ignored, so the
//!     gate is immune to runner noise. Combines with --check.
//! ```
//!
//! Exit codes: `0` success (or regression under `--warn-only`), `1`
//! regression, `2` usage or I/O errors.

use std::process::ExitCode;
use velopt_bench::suite::{
    compare, compare_work, run_scenarios, BenchReport, Comparison, MatrixSpec,
};

struct Args {
    quick: bool,
    scenario: Option<String>,
    out: String,
    check: Option<String>,
    check_work: Option<String>,
    current: Option<String>,
    tolerance: f64,
    warn_only: bool,
}

const USAGE: &str = "usage: bench-suite [--quick] [--scenario NAME] [--out PATH] \
     [--check BASELINE] [--check-work BASELINE] \
     [--current PATH] [--tolerance T] [--warn-only]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        scenario: None,
        out: "BENCH_dp.json".to_string(),
        check: None,
        check_work: None,
        current: None,
        tolerance: 0.15,
        warn_only: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--warn-only" => args.warn_only = true,
            "--scenario" => args.scenario = Some(value("--scenario")?),
            "--out" => args.out = value("--out")?,
            "--check" => args.check = Some(value("--check")?),
            "--check-work" => args.check_work = Some(value("--check-work")?),
            "--current" => args.current = Some(value("--current")?),
            "--tolerance" => {
                let raw = value("--tolerance")?;
                args.tolerance = raw
                    .parse::<f64>()
                    .map_err(|_| format!("--tolerance {raw:?} is not a number\n{USAGE}"))?;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if args.current.is_some() && args.check.is_none() && args.check_work.is_none() {
        return Err(format!(
            "--current only makes sense with --check/--check-work\n{USAGE}"
        ));
    }
    if args.scenario.is_some() && args.current.is_some() {
        return Err(format!(
            "--scenario filters a matrix run, not a loaded report\n{USAGE}"
        ));
    }
    Ok(args)
}

fn load_report(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    BenchReport::from_json(&text).map_err(|e| format!("{path:?}: {e}"))
}

fn run(args: &Args) -> Result<ExitCode, String> {
    // The current report: load it, or run the matrix and persist it.
    let current = match &args.current {
        Some(path) => load_report(path)?,
        None => {
            let spec = if args.quick {
                MatrixSpec::quick()
            } else {
                MatrixSpec::full()
            };
            match &args.scenario {
                Some(name) => eprintln!(
                    "running {} scenario matrix (filtered to {name:?})...",
                    if args.quick { "quick" } else { "full" }
                ),
                None => eprintln!(
                    "running {} scenario matrix...",
                    if args.quick { "quick" } else { "full" }
                ),
            }
            let report = run_scenarios(&spec, args.scenario.as_deref())
                .map_err(|e| format!("matrix failed: {e}"))?;
            std::fs::write(&args.out, report.to_json())
                .map_err(|e| format!("cannot write {:?}: {e}", args.out))?;
            for s in &report.scenarios {
                let tail = s.wall.tail.map_or(String::new(), |(pct, secs)| {
                    format!("  p{pct} {secs:>9.4}s")
                });
                eprintln!(
                    "  {:<24} p50 {:>9.4}s{tail}  n={}",
                    s.name, s.wall.p50, s.iterations
                );
                let counters: Vec<String> =
                    s.counters.iter().map(|(k, v)| format!("{k} {v}")).collect();
                eprintln!("      {}", counters.join("  "));
            }
            eprintln!("report written to {}", args.out);
            report
        }
    };

    let mut failed = false;
    let mut gate = |outcome: &Comparison, label: &str, baseline_path: &str| {
        for name in &outcome.missing {
            eprintln!("warning: scenario {name:?} is not in the baseline (skipped)");
        }
        eprintln!(
            "{} scenario(s) passed the {label} gate against {baseline_path}",
            outcome.passed,
        );
        if outcome.is_regression() {
            for message in &outcome.regressions {
                eprintln!("REGRESSION [{label}] {message}");
            }
            if args.warn_only {
                eprintln!("--warn-only: reporting without failing");
            } else {
                failed = true;
            }
        }
    };
    if let Some(baseline_path) = &args.check {
        let baseline = load_report(baseline_path)?;
        let outcome =
            compare(&current, &baseline, args.tolerance).map_err(|e| format!("compare: {e}"))?;
        gate(&outcome, "wall+work", baseline_path);
    }
    if let Some(baseline_path) = &args.check_work {
        let baseline = load_report(baseline_path)?;
        let outcome =
            compare_work(&current, &baseline).map_err(|e| format!("compare-work: {e}"))?;
        gate(&outcome, "work-only", baseline_path);
    }
    if failed {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("bench-suite: {message}");
            ExitCode::from(2)
        }
    }
}

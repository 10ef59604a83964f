//! `loopbench`: the end-to-end benchmark of the velopt closed loop.
//!
//! ```text
//! cargo run --release --manifest-path loopbench/Cargo.toml -- \
//!     --workload <fleet_loop|plan_serve|ego_replan|network_sim> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds the workload's inputs from the seed, sets the program up,
//! measures for the given number of seconds, checks the outputs against
//! same-run references, and prints a result line as the last line of
//! standard output. With `--trace 1` the run measures the workload twice,
//! untraced then traced, and reports per-layer metrics, the attribution of
//! blocking-path time to layers, and the tracing overhead. See README.md.

mod backend;
mod cpu;
mod ego;
mod fleet;
mod gen;
mod netsim;
mod report;
mod serve;
mod stats;
mod trace;

use report::{result_line, Metric, Report};
use std::process::ExitCode;
use std::sync::Arc;
use trace::{Span, Tracer};

/// The environment overrides that force the portable kernels; a run with
/// either set would measure other code than users run.
const SIMD_OVERRIDES: [&str; 2] = ["VELOPT_DP_SIMD", "VELOPT_MICROSIM_SIMD"];

const WORKLOADS: [&str; 4] = ["fleet_loop", "plan_serve", "ego_replan", "network_sim"];

/// What every workload gets.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    /// Cores available to this process; sizes servers and client counts.
    pub nproc: usize,
    pub tracer: Arc<Tracer>,
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Peak resident set of this process so far, in MiB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Runs a workload's set-up `n` times (odd), keeping only the last
/// instance, and returns it with the median set-up cost in process
/// CPU-seconds: a single set-up is too small a sample to compare two
/// commits by, and CPU time is not charged for time the host steals or
/// spends waking an idle vCPU (see the README).
pub fn set_up<T>(
    n: usize,
    mut f: impl FnMut() -> velopt_common::Result<T>,
) -> velopt_common::Result<(T, f64)> {
    let mut costs = Vec::with_capacity(n);
    let mut kept = None;
    for _ in 0..n.max(1) {
        // Tear the previous instance down before building the next.
        drop(kept.take());
        let c0 = cpu::process_ns();
        kept = Some(f()?);
        costs.push((cpu::process_ns() - c0) as f64 / 1e9);
    }
    Ok((
        kept.expect("at least one set-up ran"),
        stats::median(&costs),
    ))
}

/// Writes a traced pass's spans once, at the end of the pass.
pub fn save_spans(ctx: &Ctx, spans: &[Span]) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.tsv", ctx.workload, ctx.seed));
    match trace::write_spans(&path, spans) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}

fn run_pass(args: &Args, nproc: usize, traced: bool) -> velopt_common::Result<Report> {
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        nproc,
        tracer: Arc::new(Tracer::new(traced)),
    };
    match args.workload {
        "fleet_loop" => fleet::run(&ctx),
        "plan_serve" => serve::run(&ctx),
        "ego_replan" => ego::run(&ctx),
        _ => netsim::run(&ctx),
    }
}

fn print_pass(label: &str, report: &Report, e2e: &[Metric]) {
    for m in e2e {
        println!("[{label}]   {:<20} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "[{label}]   wall: p50 {:.4} ms, {} {:.4} ms, {:.4}/s",
        report.latency_p50_ms, report.tail_label, report.latency_tail_ms, report.throughput_per_s
    );
    for n in &report.notes {
        println!("[{label}] {n}");
    }
    for e in &report.errors {
        println!("[{label}] CHECK FAILED: {e}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loopbench: {e}");
            eprintln!(
                "usage: loopbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Some(var) = SIMD_OVERRIDES
        .iter()
        .find(|v| std::env::var_os(v).is_some())
    {
        eprintln!("loopbench: refusing to run with {var} set: it forces the portable kernels");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "loopbench workload={} seed={} seconds={} trace={} nproc={nproc} avx2={} profile={} features=default",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        avx2(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );

    let untraced = match run_pass(&args, nproc, false) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loopbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let base = untraced.end_to_end(rss_peak_mb());
    print_pass("untraced", &untraced, &base);
    let mut correct = untraced.errors.is_empty();

    let (metrics, attempted, failed) = if args.trace {
        let mut traced = match run_pass(&args, nproc, true) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("loopbench: traced {} failed: {e}", args.workload);
                return ExitCode::FAILURE;
            }
        };
        let with = traced.end_to_end(rss_peak_mb());
        print_pass("traced", &traced, &with);
        correct &= traced.errors.is_empty();
        for (t, u) in with.iter().zip(&base) {
            traced.set(&format!("overhead.{}", t.name), t.value - u.value);
        }
        traced.set("wall.p50_ms", untraced.latency_p50_ms);
        traced.set("wall.tail_ms", untraced.latency_tail_ms);
        traced.set("wall.throughput_per_s", untraced.throughput_per_s);
        traced.set(
            "overhead.wall_p50_ms",
            traced.latency_p50_ms - untraced.latency_p50_ms,
        );
        traced.publish_attribution();
        print!("{}", traced.attribution.table(args.workload));
        (traced.per_layer(), traced.attempted, traced.failed)
    } else {
        (base, untraced.attempted, untraced.failed)
    };
    if attempted == 0 {
        eprintln!("loopbench: {} attempted no operation", args.workload);
        return ExitCode::FAILURE;
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

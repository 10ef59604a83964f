//! What a workload run reports, the metric catalogue, and the attribution
//! table of a traced run.

use crate::stats::Latencies;
use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics: every workload reports every one of them, each in
/// its own unit of work (see the README's mapping table).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rss_peak_mb", "MiB"),
    ("throughput_per_cpu_s", "1/cpu-s"),
];

/// The layers, in blocking-path order, with the metric each is expected
/// to move.
pub const LAYERS: &[(&str, &str)] = &[
    ("cosim", "wall.p50_ms"),
    ("traci", "wall.p50_ms"),
    ("microsim", "throughput_per_cpu_s"),
    ("cloud", "wall.p50_ms"),
    ("dp", "throughput_per_cpu_s"),
    ("replan", "wall.tail_ms"),
    ("queue", "wall.tail_ms"),
    ("traffic", "setup_s"),
    ("energy", "throughput_per_cpu_s"),
];

/// Per-layer metrics printed by a traced run. A workload that does not run
/// a layer reports its counters and timers as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cosim.flips", "count"),
    ("cosim.replans", "count"),
    ("cosim.plans_ok", "count"),
    ("cosim.plan_failures", "count"),
    ("cosim.commands", "count"),
    ("cosim.connects", "count"),
    ("traci.calls_per_tick", "count"),
    ("traci.backend_us", "us"),
    ("traci.call_us", "us"),
    ("traci.transport_ms_per_tick", "ms"),
    ("microsim.step_ms", "ms"),
    ("microsim.ns_per_vehicle_step", "ns"),
    ("microsim.vehicle_steps", "count"),
    ("microsim.handoffs", "count"),
    ("microsim.simd_lanes", "count"),
    ("microsim.scalar_lanes", "count"),
    ("microsim.arena_grows", "count"),
    ("microsim.step_share", "ratio"),
    ("cloud.hit_ms", "ms"),
    ("cloud.miss_ms", "ms"),
    ("cloud.hit_ratio", "ratio"),
    ("cloud.duplicate_solves", "count"),
    ("cloud.errors", "count"),
    ("cloud.buf_reuse", "count"),
    ("cloud.buf_alloc", "count"),
    ("cloud.overhead_ms", "ms"),
    ("dp.solve_ms", "ms"),
    ("dp.relax_ms", "ms"),
    ("dp.setup_ms", "ms"),
    ("dp.backtrack_ms", "ms"),
    ("dp.states_expanded", "count"),
    ("dp.states_pruned", "count"),
    ("dp.rows_skipped", "count"),
    ("dp.energy_evals", "count"),
    ("dp.memo_hits", "count"),
    ("dp.memo_misses", "count"),
    ("dp.simd_rows", "count"),
    ("dp.scalar_rows", "count"),
    ("replan.solve_ms", "ms"),
    ("replan.refresh_ms", "ms"),
    ("replan.solves", "count"),
    ("replan.refreshes", "count"),
    ("replan.repair_hits", "count"),
    ("replan.repair_full_resolves", "count"),
    ("replan.repair_layers_skipped", "count"),
    ("replan.repair_ratio", "ratio"),
    ("queue.windows_us", "us"),
    ("queue.windows_calls", "count"),
    ("traffic.train_s", "s"),
    ("traffic.predict_us", "us"),
    ("energy.trace_ms", "ms"),
    ("energy.ego_mah_per_trip", "mAh"),
    ("energy.ego_trip_s", "s"),
    ("energy.planned_mah_per_km", "mAh/km"),
    ("cosim.share", "ratio"),
    ("traci.share", "ratio"),
    ("microsim.share", "ratio"),
    ("cloud.share", "ratio"),
    ("dp.share", "ratio"),
    ("replan.share", "ratio"),
    ("queue.share", "ratio"),
    ("traffic.share", "ratio"),
    ("energy.share", "ratio"),
    ("residual.share", "ratio"),
    ("cosim.amdahl_x", "x"),
    ("traci.amdahl_x", "x"),
    ("microsim.amdahl_x", "x"),
    ("cloud.amdahl_x", "x"),
    ("dp.amdahl_x", "x"),
    ("replan.amdahl_x", "x"),
    ("queue.amdahl_x", "x"),
    ("traffic.amdahl_x", "x"),
    ("energy.amdahl_x", "x"),
    ("wall.p50_ms", "ms"),
    ("wall.tail_ms", "ms"),
    ("wall.throughput_per_s", "1/s"),
    ("overhead.setup_s", "s"),
    ("overhead.rss_peak_mb", "MiB"),
    ("overhead.throughput_per_cpu_s", "1/cpu-s"),
    ("overhead.wall_p50_ms", "ms"),
];

fn unit_of(catalogue: &[(&str, &'static str)], name: &str) -> &'static str {
    catalogue
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric '{name}' is not in the catalogue"))
}

/// Self time on the blocking path, split by layer.
#[derive(Debug, Default, Clone)]
pub struct Attribution {
    /// Blocking-path wall time the shares are taken of, in ns.
    pub total_ns: f64,
    /// Layer → self time in ns.
    pub layers: BTreeMap<&'static str, f64>,
    /// How each layer's time was measured, for the printed table.
    pub how: BTreeMap<&'static str, &'static str>,
}

impl Attribution {
    pub fn add(&mut self, layer: &'static str, ns: f64, how: &'static str) {
        assert!(
            LAYERS.iter().any(|(l, _)| *l == layer),
            "unknown layer {layer}"
        );
        *self.layers.entry(layer).or_default() += ns.max(0.0);
        self.how.entry(layer).or_insert(how);
    }

    pub fn share(&self, layer: &str) -> f64 {
        if self.total_ns <= 0.0 {
            return 0.0;
        }
        self.layers.get(layer).copied().unwrap_or(0.0) / self.total_ns
    }

    /// Blocking-path time no span accounts for.
    pub fn residual_share(&self) -> f64 {
        let attributed: f64 = LAYERS.iter().map(|(l, _)| self.share(l)).sum();
        (1.0 - attributed).max(0.0)
    }

    /// The most the layer's end-to-end metric can improve if the layer
    /// took no time at all: `1 / (1 - share)`.
    pub fn amdahl(&self, layer: &str) -> f64 {
        1.0 / (1.0 - self.share(layer)).max(1e-9)
    }

    pub fn table(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "attribution ({workload}): {:.1} ms of blocking-path wall time",
            self.total_ns / 1e6
        );
        let _ = writeln!(
            out,
            "  {:<9} {:>8} {:>9}  {:<17} how",
            "layer", "share", "ceiling", "moves"
        );
        for (layer, moves) in LAYERS {
            if !self.layers.contains_key(layer) {
                continue;
            }
            let _ = writeln!(
                out,
                "  {layer:<9} {:>7.2}% {:>8.3}x  {moves:<17} {}",
                100.0 * self.share(layer),
                self.amdahl(layer),
                self.how.get(layer).copied().unwrap_or("")
            );
        }
        let _ = writeln!(
            out,
            "  {:<9} {:>7.2}%  (blocking-path time outside every layer span)",
            "residual",
            100.0 * self.residual_share()
        );
        out
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one pass of a workload produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Median process CPU-seconds of one set-up.
    pub setup_s: f64,
    /// Median op latency, wall time (unbounded: see the README).
    pub latency_p50_ms: f64,
    /// Work per process CPU-second, in the workload's unit (vehicle-ticks,
    /// plans, ego ticks, vehicle-steps).
    pub throughput_per_cpu_s: f64,
    /// Work per second of wall time (unbounded: see the README).
    pub throughput_per_s: f64,
    /// The workload's tail percentile of op latency, wall time (unbounded).
    pub latency_tail_ms: f64,
    /// Which percentile `latency_tail_ms` is, and of what.
    pub tail_label: String,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; empty means correct.
    pub errors: Vec<String>,
    /// Human-readable lines (sample counts, quality figures).
    pub notes: Vec<String>,
    /// Per-layer metrics (traced passes only).
    pub layers: BTreeMap<String, f64>,
    pub attribution: Attribution,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        unit_of(PER_LAYER, name);
        self.layers.insert(name.to_string(), value);
    }

    /// Fills the median and the tail percentile `q` of `lat`. A sample too
    /// small for a median fails the run; the tail is reported only when at
    /// least ten samples lie beyond it.
    pub fn latencies(&mut self, lat: &Latencies, q: f64, of: &str) {
        match lat.percentile(0.5) {
            Ok(p50) => self.latency_p50_ms = p50,
            Err(e) => self.errors.push(e),
        }
        match lat.percentile(q) {
            Ok(tail) => self.latency_tail_ms = tail,
            Err(e) => self.notes.push(format!("no tail: {e}")),
        }
        self.tail_label = format!("p{} of {} {of}", 100.0 * q, lat.attempted());
        self.attempted = lat.attempted();
        self.failed = lat.failed();
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Fills the attribution shares and ceilings into the per-layer map.
    pub fn publish_attribution(&mut self) {
        let a = self.attribution.clone();
        for (layer, _) in LAYERS {
            self.set(&format!("{layer}.share"), a.share(layer));
            self.set(&format!("{layer}.amdahl_x"), a.amdahl(layer));
        }
        self.set("residual.share", a.residual_share());
    }

    pub fn end_to_end(&self, rss_mb: f64) -> Vec<Metric> {
        let values = [self.setup_s, rss_mb, self.throughput_per_cpu_s];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric {
                name: name.to_string(),
                value,
                unit,
            })
            .collect()
    }

    /// Every per-layer metric of the catalogue, 0 for layers this workload
    /// does not run.
    pub fn per_layer(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.to_string(),
                value: self.layers.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

/// A number as JSON: every digit of the shortest round-trip form;
/// non-finite values (a percentile landing on a failure) as the largest
/// finite double.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn attribution_shares_and_ceilings() {
        let mut a = Attribution {
            total_ns: 1000.0,
            ..Attribution::default()
        };
        a.add("traci", 600.0, "spans");
        a.add("microsim", 100.0, "spans");
        assert!((a.share("traci") - 0.6).abs() < 1e-12);
        assert!((a.amdahl("traci") - 2.5).abs() < 1e-12);
        assert!((a.residual_share() - 0.3).abs() < 1e-12);
        assert_eq!(a.share("dp"), 0.0);
        assert_eq!(a.amdahl("dp"), 1.0);
    }

    #[test]
    fn result_line_shape() {
        let m = [Metric {
            name: "setup_s".into(),
            value: 0.8127,
            unit: "s",
        }];
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_number(f64::INFINITY), "1.7976931348623157e308");
    }
}

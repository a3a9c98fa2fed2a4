//! The repository benchmark: three seeded workloads against the public
//! API of the synthesis pipeline, cache and daemon, each printing its
//! end-to-end metrics and checking every output, plus a traced run that
//! times the calls into each layer from the benchmark's own code.
//!
//! See `perfbench/README.md` for the workloads, the metrics and what
//! each per-layer metric is expected to move.

pub mod gen;
pub mod paper;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod worker;

use stats::{median, quantile, Outcome};
use trace::Tracer;

/// Scratch directory (relative to the working directory) for the cold
/// daemon's cache and journal and for written-out spans.
pub const OUT_DIR: &str = ".bench_out";

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["paper_cold", "serve_warm", "serve_cold"];

/// One invocation's settings.
#[derive(Clone, Debug)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
}

/// End-to-end metrics, `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_mean_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("plan_io_s", "sim_s"),
    ("peak_rss_mb", "MiB"),
];

/// Layer calls timed by spans: span name, metric base name, unit, scale
/// from seconds, and whether network-class requests report separately.
const LAYERS: [(&str, &str, &str, f64, bool); 12] = [
    ("ir.parse", "ir.parse_us", "us", 1e6, true),
    ("core.prepare", "core.prepare_us", "us", 1e6, true),
    (
        "solver.canonicalize",
        "solver.canonicalize_us",
        "us",
        1e6,
        true,
    ),
    ("cache.fingerprint", "cache.fingerprint_us", "us", 1e6, true),
    ("cache.lookup", "cache.lookup_us", "us", 1e6, true),
    ("cache.replay", "cache.replay_us", "us", 1e6, true),
    ("solver.solve", "solver.solve_ms", "ms", 1e3, true),
    ("cache.put", "cache.put_us", "us", 1e6, true),
    ("core.finish", "core.finish_us", "us", 1e6, true),
    ("codegen.print", "codegen.print_us", "us", 1e6, false),
    ("exec.dry_run", "exec.dry_run_ms", "ms", 1e3, false),
    (
        "serve.journal_append",
        "serve.journal_append_us",
        "us",
        1e6,
        false,
    ),
];

/// Daemon-side timings taken from job reports (per request class).
const DAEMON_TIMINGS: [&str; 3] = [
    "serve.queue_wait_ms",
    "serve.service_ms",
    "serve.transport_ms",
];

/// Per-layer counts and ratios, `(name, unit)`.
const COUNTS: [(&str, &str); 18] = [
    ("core.model_vars", "count"),
    ("core.model_vars.network", "count"),
    ("core.model_constraints", "count"),
    ("core.model_constraints.network", "count"),
    ("solver.evals", "count"),
    ("solver.evals.network", "count"),
    ("solver.evals_per_s", "1/s"),
    ("solver.evals_per_s.network", "1/s"),
    ("codegen.plan_ops", "count"),
    ("exec.plan_io_s", "sim_s"),
    ("cache.hit_ratio", "ratio"),
    ("cache.replay_rejects", "count"),
    ("serve.journal_bytes_per_job", "B"),
    ("serve.frame_bytes_per_job", "B"),
    ("serve.joined_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// Every per-layer metric a traced run reports, `(name, unit)`, in
/// report order. A layer a workload never calls reports 0.
pub fn per_layer_schema() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    let mut timing = |base: &str, unit: &'static str, network: bool| {
        for suffix in if network {
            &["", ".network"][..]
        } else {
            &[""][..]
        } {
            for q in ["p50", "p99"] {
                out.push((format!("{base}.{q}{suffix}"), unit));
            }
        }
    };
    for (_, base, unit, _, network) in LAYERS {
        timing(base, unit, network);
    }
    for base in DAEMON_TIMINGS {
        timing(base, "ms", true);
    }
    out.push(("self_ms.request".to_string(), "ms"));
    for (span, ..) in LAYERS.iter().filter(|l| l.0 != "exec.dry_run") {
        out.push((format!("self_ms.{span}"), "ms"));
    }
    out.extend(COUNTS.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Records the p50 and p99 of `xs` (already in `unit`) as
/// `<base>.p50` / `<base>.p99`, with a `.network` suffix for the
/// network class.
pub fn timing(out: &mut Outcome, base: &str, network: bool, unit: &'static str, xs: &[f64]) {
    let suffix = if network { ".network" } else { "" };
    out.metric(format!("{base}.p50{suffix}"), median(xs), unit);
    out.metric(format!("{base}.p99{suffix}"), quantile(xs, 0.99), unit);
}

/// Span-derived per-layer metrics: p50/p99 of every layer call per
/// request class, and each span's mean self time per traced request.
pub fn layer_metrics(out: &mut Outcome, t: &Tracer, requests: f64) {
    for (span, base, unit, scale, network) in LAYERS {
        let scaled = |xs: Vec<f64>| xs.into_iter().map(|x| x * scale).collect::<Vec<_>>();
        if network {
            timing(out, base, false, unit, &scaled(t.durations(span, false)));
            timing(out, base, true, unit, &scaled(t.durations(span, true)));
        } else {
            let mut xs = t.durations(span, false);
            xs.extend(t.durations(span, true));
            timing(out, base, false, unit, &scaled(xs));
        }
    }
    let self_times = t.self_times();
    out.metric(
        "self_ms.request",
        self_times.get("request").copied().unwrap_or(0.0) * 1e3 / requests.max(1.0),
        "ms",
    );
    for (span, ..) in LAYERS.iter().filter(|l| l.0 != "exec.dry_run") {
        let total = self_times.get(span).copied().unwrap_or(0.0);
        out.metric(
            format!("self_ms.{span}"),
            total * 1e3 / requests.max(1.0),
            "ms",
        );
    }
    out.metric("trace.spans", t.spans().len() as f64, "count");
}

/// Puts a traced run's metrics in schema order. Metrics of layers the
/// workload never reached report 0; a name outside the schema is a bug
/// and fails the run.
fn order_per_layer(out: &mut Outcome) {
    let measured = std::mem::take(&mut out.metrics);
    let schema = per_layer_schema();
    for (name, ..) in &measured {
        if !schema.iter().any(|(n, _)| n == name) {
            out.fail(format!("metric {name} is not in the per-layer schema"));
        }
    }
    for (name, unit) in schema {
        let value = measured.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
        out.metric(name, value, unit);
    }
}

/// Runs one invocation and returns what it measured.
pub fn run(run: &Run) -> Outcome {
    use serve::Mode;
    let mode = match run.workload.as_str() {
        "serve_warm" => Some(Mode::Warm),
        "serve_cold" => Some(Mode::Cold),
        _ => None,
    };
    if !run.trace {
        let mut out = match mode {
            Some(mode) => serve::run(mode, run),
            None => paper::run(run),
        };
        for (name, _) in END_TO_END {
            if !out.metrics.iter().any(|m| m.0 == name) && out.errors.is_empty() {
                out.fail(format!("metric {name} missing"));
            }
        }
        return out;
    }
    let (mut out, tracer) = match mode {
        Some(mode) => serve::run_traced(mode, run),
        None => paper::run_traced(run),
    };
    order_per_layer(&mut out);
    let path = std::path::Path::new(OUT_DIR).join(format!("trace-{}.jsonl", run.workload));
    if let Err(e) = tracer.write_jsonl(&path) {
        out.fail(format!("writing spans to {path:?}: {e}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_names_are_unique_and_within_limits() {
        let schema = per_layer_schema();
        assert!(schema.len() <= 128, "{} per-layer metrics", schema.len());
        let mut names: Vec<&str> = schema.iter().map(|(n, _)| n.as_str()).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| *n));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric names");
        assert!(names.iter().all(|n| n.len() <= 64));
    }
}

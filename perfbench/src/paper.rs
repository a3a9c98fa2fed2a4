//! `paper_cold`: Table 2's code-generation time. In process, single
//! threaded, no cache: every request runs DSL text → `parse_program` →
//! `synthesize_dcs` → `print_plan` for one of the paper's programs.

use crate::gen::{paper_programs, PoolProgram, Rng};
use crate::stats::{geomean, mean, median, peak_rss_mb, quantile, Outcome};
use crate::trace::Tracer;
use crate::{layer_metrics, Run};
use std::time::{Duration, Instant};
use tce_codegen::print_plan;
use tce_core::{finish_dcs, prepare_dcs, synthesize_dcs, SynthesisConfig, SynthesisResult};
use tce_exec::{execute, ExecOptions};
use tce_ir::parse_program;

/// Set-ups per run, half before the measured loop and half after it;
/// `setup_s` is their median. One set-up takes tens of milliseconds, so
/// many are taken, at two moments, to steady the median.
const SETUPS: usize = 16;

/// A paper program with the reference output of its first synthesis.
struct Prepared {
    program: PoolProgram,
    config: SynthesisConfig,
    /// Printed plan plus the bit patterns of its I/O, memory and predicted
    /// time: every later synthesis must reproduce it exactly.
    signature: String,
    result: SynthesisResult,
}

fn signature(r: &SynthesisResult, printed: &str) -> String {
    format!(
        "{printed}|{:016x}|{:016x}|{:016x}",
        r.io_bytes.to_bits(),
        r.memory_bytes.to_bits(),
        r.predicted.total_s().to_bits()
    )
}

/// One request: parse, synthesize, print. Traced requests split
/// `synthesize_dcs` into its prepare, solve and finish calls.
fn request(
    t: &mut Tracer,
    id: u64,
    p: &PoolProgram,
    config: &SynthesisConfig,
    traced: bool,
) -> Result<(SynthesisResult, String), String> {
    let root = t.open("request", false, id);
    let out = (|| {
        let program = t
            .span("ir.parse", false, id, || parse_program(&p.text))
            .map_err(|e| e.to_string())?;
        let result = if traced {
            let prepared = t
                .span("core.prepare", false, id, || prepare_dcs(&program, config))
                .map_err(|e| e.to_string())?;
            let outcome = t.span("solver.solve", false, id, || {
                tce_solver::solve(&prepared.dcs.model, &config.solve_options())
            });
            t.span("core.finish", false, id, || {
                finish_dcs(prepared, config, outcome)
            })
        } else {
            synthesize_dcs(&program, config)
        }
        .map_err(|e| format!("{}: {e}", p.name))?;
        let printed = t.span("codegen.print", false, id, || print_plan(&result.plan));
        Ok((result, printed))
    })();
    t.close(root);
    out
}

/// Builds the program texts and synthesizes each once for its reference
/// output.
fn setup() -> Result<Vec<Prepared>, String> {
    paper_programs()
        .into_iter()
        .map(|program| {
            let config = SynthesisConfig::new(program.mem_limit);
            let (result, printed) = request(&mut Tracer::new(false), 0, &program, &config, false)?;
            Ok(Prepared {
                signature: signature(&result, &printed),
                program,
                config,
                result,
            })
        })
        .collect()
}

/// Sets up `n` times from scratch, recording each time; returns the last.
fn timed_setups(n: usize, times: &mut Vec<f64>) -> Result<Vec<Prepared>, String> {
    let mut prepared = Vec::new();
    for _ in 0..n {
        let t0 = Instant::now();
        prepared = setup()?;
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok(prepared)
}

/// Checks one request's output against its program's reference.
fn check(p: &Prepared, r: &SynthesisResult, printed: &str) -> Result<(), String> {
    if r.memory_bytes > p.program.mem_limit as f64 {
        return Err(format!(
            "{}: plan needs {} B over the {} B limit",
            p.program.name, r.memory_bytes, p.program.mem_limit
        ));
    }
    if signature(r, printed) != p.signature {
        return Err(format!(
            "{}: plan differs from the first synthesis",
            p.program.name
        ));
    }
    Ok(())
}

/// Dry-runs every reference plan: Table 3's check that measured I/O is
/// within 25% of predicted, and the simulated seconds behind
/// `plan_io_s`. Returns the per-plan simulated seconds.
fn dry_runs(t: &mut Tracer, prepared: &[Prepared], out: &mut Outcome) -> Vec<f64> {
    let mut io_s = Vec::new();
    for (i, p) in prepared.iter().enumerate() {
        let rep = t.span("exec.dry_run", false, i as u64, || {
            execute(&p.result.plan, &ExecOptions::dry_run())
        });
        match rep {
            Ok(rep) => {
                let predicted = p.result.predicted.total_s();
                let rel = (rep.elapsed_io_s - predicted).abs() / predicted;
                if rel >= 0.25 {
                    out.fail(format!(
                        "{}: dry-run I/O {} s vs predicted {predicted} s",
                        p.program.name, rep.elapsed_io_s
                    ));
                }
                io_s.push(rep.elapsed_io_s);
            }
            Err(e) => out.fail(format!("{}: dry run failed: {e}", p.program.name)),
        }
    }
    io_s
}

/// The seeded request order: rounds over the programs, each round in
/// its own shuffled order.
struct Order {
    rng: Rng,
    round: Vec<usize>,
}

impl Order {
    fn new(seed: u64, n: usize) -> Order {
        Order {
            rng: Rng::new(seed),
            round: (0..n).collect(),
        }
    }

    fn next_round(&mut self) -> Vec<usize> {
        self.rng.shuffle(&mut self.round);
        self.round.clone()
    }
}

/// The measured run (untraced), returning the end-to-end metrics.
pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let prepared = match timed_setups(SETUPS / 2, &mut setup_s) {
        Ok(p) => p,
        Err(e) => {
            out.fail(format!("set-up: {e}"));
            return out;
        }
    };

    let mut per_program: Vec<Vec<f64>> = vec![Vec::new(); prepared.len()];
    let mut order = Order::new(run.seed, prepared.len());
    let mut untraced = Tracer::new(false);
    let started = Instant::now();
    let budget = Duration::from_secs_f64(run.seconds);
    while started.elapsed() < budget {
        for i in order.next_round() {
            let p = &prepared[i];
            out.attempted += 1;
            let t0 = Instant::now();
            let res = request(&mut untraced, out.attempted, &p.program, &p.config, false);
            let dt = t0.elapsed().as_secs_f64();
            match res.and_then(|(r, printed)| check(p, &r, &printed)) {
                Ok(()) => per_program[i].push(dt * 1e3),
                Err(e) => out.fail_request(e),
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    if let Err(e) = timed_setups(SETUPS / 2, &mut setup_s) {
        out.fail(format!("set-up after the run: {e}"));
    }

    let io_s = dry_runs(&mut Tracer::new(false), &prepared, &mut out);
    let means: Vec<f64> = per_program.iter().map(|xs| mean(xs)).collect();
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("latency_mean_ms", geomean(&means), "ms");
    out.metric("jobs_per_s", out.attempted as f64 / elapsed, "1/s");
    out.metric("plan_io_s", geomean(&io_s), "sim_s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    for (p, xs) in prepared.iter().zip(&per_program) {
        eprintln!(
            "paper_cold: {:<16} n={:<5} mean {:8.3} ms  p50 {:8.3} ms  p99 {:8.3} ms",
            p.program.name,
            xs.len(),
            mean(xs),
            median(xs),
            quantile(xs, 0.99)
        );
    }
    out
}

/// Per-layer counts of one pass over the paper's programs: mean model
/// size, solver evaluations and plan op count per program, and the
/// geomean of the plans' simulated disk seconds. Deterministic for a
/// given build.
struct Counts {
    model_vars: f64,
    model_constraints: f64,
    evals: f64,
    plan_ops: f64,
    plan_io_s: f64,
}

/// Counts of the set-up pass, with its dry runs traced into `t`.
fn counts(t: &mut Tracer, prepared: &[Prepared], out: &mut Outcome) -> Counts {
    let of = |f: &dyn Fn(&SynthesisResult) -> f64| {
        mean(&prepared.iter().map(|p| f(&p.result)).collect::<Vec<_>>())
    };
    let model_size = |f: &dyn Fn(&tce_solver::Model) -> usize| {
        of(&|r| r.dcs_model.as_ref().map_or(0, |m| f(&m.model)) as f64)
    };
    Counts {
        model_vars: model_size(&|m| m.num_vars()),
        model_constraints: model_size(&|m| m.constraints().len()),
        evals: of(&|r| r.solver_evals as f64),
        plan_ops: of(&|r| r.plan.ops.len() as f64),
        plan_io_s: geomean(&dry_runs(t, prepared, out)),
    }
}

/// The traced run: alternating untraced and traced rounds for the run's
/// length, then the per-layer metrics from the spans.
pub fn run_traced(run: &Run) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let mut t = Tracer::new(true);
    let prepared = match setup() {
        Ok(p) => p,
        Err(e) => {
            out.fail(format!("set-up: {e}"));
            return (out, t);
        }
    };
    let counts = counts(&mut t, &prepared, &mut out);
    let mut order = Order::new(run.seed, prepared.len());
    let mut untraced = Tracer::new(false);
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut evals_per_s = Vec::new();
    let started = Instant::now();
    let budget = Duration::from_secs_f64(run.seconds);
    let mut round = 0u64;
    while started.elapsed() < budget {
        let traced = round % 2 == 1;
        round += 1;
        for i in order.next_round() {
            let p = &prepared[i];
            out.attempted += 1;
            let tracer = if traced { &mut t } else { &mut untraced };
            let t0 = Instant::now();
            let res = request(tracer, out.attempted, &p.program, &p.config, traced);
            let dt = t0.elapsed().as_secs_f64();
            match res.and_then(|(r, printed)| check(p, &r, &printed).map(|()| r)) {
                Ok(r) => {
                    if traced {
                        traced_s.push(dt);
                        if let Some(solve) =
                            t.spans().iter().rev().find(|s| s.name == "solver.solve")
                        {
                            evals_per_s.push(r.solver_evals as f64 / solve.secs());
                        }
                    } else {
                        plain_s.push(dt);
                    }
                }
                Err(e) => out.fail_request(e),
            }
        }
    }

    let requests = traced_s.len() as f64;
    layer_metrics(&mut out, &t, requests);
    out.metric("core.model_vars", counts.model_vars, "count");
    out.metric("core.model_constraints", counts.model_constraints, "count");
    out.metric("solver.evals", counts.evals, "count");
    out.metric("solver.evals_per_s", median(&evals_per_s), "1/s");
    out.metric("codegen.plan_ops", counts.plan_ops, "count");
    out.metric("exec.plan_io_s", counts.plan_io_s, "sim_s");
    out.metric(
        "trace.overhead_ratio",
        mean(&traced_s) / mean(&plain_s),
        "ratio",
    );
    (out, t)
}

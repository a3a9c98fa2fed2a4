//! The calls a `tce serve` worker makes for one job, made in process
//! with a span around each layer call. The traced runs of `serve_warm`
//! and `serve_cold` send their seeded specs through here; the daemon
//! itself is never instrumented.

use crate::trace::Tracer;
use std::time::Instant;
use tce_cache::{
    network_request_fingerprint, request_fingerprint, CacheRecord, SynthesisCache, RECORD_SCHEMA,
};
use tce_core::{finish_dcs, finish_network, prepare_dcs, prepare_network, SynthesisConfig};
use tce_serve::{JobReport, JobSpec, JournalWriter};
use tce_solver::model::FEAS_TOL;
use tce_solver::{
    canonicalize, fingerprint_hex, CanonicalModel, Model, Solution, SolveOutcome, CANON_VERSION,
};

/// Model size and solver effort of one in-process job.
#[derive(Clone, Debug, Default)]
pub struct JobCounts {
    /// Solver variables of the built model.
    pub model_vars: usize,
    /// Constraints of the built model.
    pub model_constraints: usize,
    /// Objective evaluations of a fresh solve (0 on a hit).
    pub evals: u64,
    /// Seconds the fresh solve took (0 on a hit).
    pub solve_s: f64,
}

/// The result of one in-process job.
pub struct Served {
    /// The report the daemon would have sent.
    pub report: JobReport,
    /// Model size and solver effort.
    pub counts: JobCounts,
}

/// Where a job's journal lines go, and under which admission index.
pub struct Journal<'a> {
    /// The journal writer.
    pub writer: &'a JournalWriter,
    /// Admission index of the job.
    pub idx: usize,
}

/// Runs one job through the worker's layer calls: parse, prepare,
/// canonicalize, fingerprint, lookup, then either replay validation or a
/// fresh solve plus cache put, then finish. With a journal, the job's
/// `admit_spec`, `start` and `done` lines are appended around it as the
/// daemon does.
pub fn run_job(
    t: &mut Tracer,
    request: u64,
    spec: &JobSpec,
    cache: &SynthesisCache,
    journal: Option<Journal<'_>>,
) -> Result<Served, String> {
    let network = tce_ir::is_network_src(&spec.program);
    let root = t.open("request", network, request);
    let started = Instant::now();
    if let Some(j) = &journal {
        t.span("serve.journal_append", network, request, || {
            j.writer.admit_spec(j.idx, spec);
            j.writer.start(j.idx);
        });
    }
    let served = if network {
        network_job(t, request, spec, cache)
    } else {
        dense_job(t, request, spec, cache)
    };
    let served = served.map(|mut s| {
        s.report.total_s = started.elapsed().as_secs_f64();
        if let Some(j) = &journal {
            t.span("serve.journal_append", network, request, || {
                j.writer.done(j.idx, &s.report)
            });
        }
        s
    });
    t.close(root);
    served
}

/// What the cache half of a job decided.
struct CacheStep {
    outcome: SolveOutcome,
    hit: bool,
    /// Record to store after finish (fresh solves only).
    record: Option<CacheRecord>,
    solve_s: f64,
}

/// Fingerprint, lookup, and replay-or-solve: the shared middle of the
/// dense and network paths.
fn cache_step(
    t: &mut Tracer,
    (network, request): (bool, u64),
    model: &Model,
    fingerprint: &str,
    canon: &CanonicalModel,
    config: &SynthesisConfig,
    cache: &SynthesisCache,
) -> CacheStep {
    let stored = t.span("cache.lookup", network, request, || cache.get(fingerprint));
    if let Some(rec) = stored {
        let replayed = t.span("cache.replay", network, request, || {
            replay(&rec, canon, model)
        });
        if let Some(outcome) = replayed {
            return CacheStep {
                outcome,
                hit: true,
                record: None,
                solve_s: 0.0,
            };
        }
    }
    let solve_started = Instant::now();
    let outcome = t.span("solver.solve", network, request, || {
        tce_solver::solve(model, &config.solve_options())
    });
    let solve_s = solve_started.elapsed().as_secs_f64();
    let s = &outcome.solution;
    let record = CacheRecord {
        schema: RECORD_SCHEMA.to_string(),
        canon_version: CANON_VERSION.to_string(),
        fingerprint: fingerprint.to_string(),
        canonical_point: canon.to_canonical(&s.point),
        objective: s.objective,
        feasible: s.feasible,
        evals: s.evals,
        iterations: s.iterations,
        report: outcome.report.clone(),
        solve_wall_s: solve_s,
        plan: serde::Value::Null,
    };
    CacheStep {
        outcome,
        hit: false,
        record: Some(record),
        solve_s,
    }
}

/// Replay validation of a stored record against the request's own model,
/// with the acceptance rule of `tce-cache`: same schema and canon
/// version, feasible at the mapped point, and the same objective.
fn replay(rec: &CacheRecord, canon: &CanonicalModel, model: &Model) -> Option<SolveOutcome> {
    if rec.schema != RECORD_SCHEMA || rec.canon_version != CANON_VERSION || !rec.feasible {
        return None;
    }
    if rec.canonical_point.len() != canon.order.len() {
        return None;
    }
    let point = canon.from_canonical(&rec.canonical_point);
    if !model.is_feasible(&point, FEAS_TOL) {
        return None;
    }
    let objective = model.objective_at(&point);
    if (objective - rec.objective).abs() > 1e-9 * objective.abs().max(1.0) {
        return None;
    }
    Some(SolveOutcome {
        solution: Solution {
            point,
            objective: rec.objective,
            feasible: true,
            evals: rec.evals,
            iterations: rec.iterations,
        },
        report: rec.report.clone(),
    })
}

fn report(spec: &JobSpec, fingerprint: String, hit: bool, solve_s: f64) -> JobReport {
    JobReport {
        name: spec.name.clone(),
        ok: true,
        error: None,
        error_kind: None,
        fingerprint,
        hit,
        joined: false,
        queue_wait_s: 0.0,
        solve_wall_s: solve_s,
        saved_wall_s: 0.0,
        total_s: 0.0,
        io_bytes: 0.0,
        memory_bytes: 0.0,
        predicted_s: 0.0,
    }
}

fn dense_job(
    t: &mut Tracer,
    request: u64,
    spec: &JobSpec,
    cache: &SynthesisCache,
) -> Result<Served, String> {
    let key = (false, request);
    let config = spec.config()?;
    let program = t.span("ir.parse", false, request, || spec.parse_program())?;
    let prepared = t
        .span("core.prepare", false, request, || {
            prepare_dcs(&program, &config)
        })
        .map_err(|e| e.to_string())?;
    let model = &prepared.dcs.model;
    let counts = JobCounts {
        model_vars: model.num_vars(),
        model_constraints: model.constraints().len(),
        ..JobCounts::default()
    };
    let canon = t.span("solver.canonicalize", false, request, || {
        canonicalize(model)
    });
    let fingerprint = t.span("cache.fingerprint", false, request, || {
        fingerprint_hex(request_fingerprint(&canon, &config))
    });
    let CacheStep {
        outcome,
        hit,
        record,
        solve_s,
    } = cache_step(t, key, model, &fingerprint, &canon, &config, cache);
    let result = t
        .span("core.finish", false, request, || {
            finish_dcs(prepared, &config, outcome)
        })
        .map_err(|e| e.to_string())?;
    if let Some(mut rec) = record {
        rec.plan = serde::Serialize::to_value(&result.plan);
        t.span("cache.put", false, request, || cache.put(&fingerprint, rec))?;
    }
    let mut r = report(spec, fingerprint, hit, solve_s);
    r.io_bytes = result.io_bytes;
    r.memory_bytes = result.memory_bytes;
    r.predicted_s = result.predicted.total_s();
    Ok(Served {
        counts: JobCounts {
            evals: if hit { 0 } else { result.solver_evals },
            solve_s,
            ..counts
        },
        report: r,
    })
}

fn network_job(
    t: &mut Tracer,
    request: u64,
    spec: &JobSpec,
    cache: &SynthesisCache,
) -> Result<Served, String> {
    let key = (true, request);
    let config = spec.config()?;
    let dag = t
        .span("ir.parse", true, request, || {
            tce_ir::parse_network(&spec.program)
        })
        .map_err(|e| format!("invalid network: {e}"))?;
    let prepared = t
        .span("core.prepare", true, request, || {
            prepare_network(&dag, &config)
        })
        .map_err(|e| e.to_string())?;
    let model = &prepared.net.model;
    let counts = JobCounts {
        model_vars: model.num_vars(),
        model_constraints: model.constraints().len(),
        ..JobCounts::default()
    };
    let canon = t.span("solver.canonicalize", true, request, || canonicalize(model));
    let fingerprint = t.span("cache.fingerprint", true, request, || {
        fingerprint_hex(network_request_fingerprint(&canon, &config))
    });
    let CacheStep {
        outcome,
        hit,
        record,
        solve_s,
    } = cache_step(t, key, model, &fingerprint, &canon, &config, cache);
    let result = t
        .span("core.finish", true, request, || {
            finish_network(prepared, &config, outcome)
        })
        .map_err(|e| e.to_string())?;
    if let Some(mut rec) = record {
        rec.plan = serde::Serialize::to_value(&result.plan);
        t.span("cache.put", true, request, || cache.put(&fingerprint, rec))?;
    }
    let mut r = report(spec, fingerprint, hit, solve_s);
    r.io_bytes = result.io_bytes;
    r.memory_bytes = result.memory_bytes;
    r.predicted_s = result.predicted_s;
    Ok(Served {
        counts: JobCounts {
            evals: if hit { 0 } else { result.solver_evals },
            solve_s,
            ..counts
        },
        report: r,
    })
}

//! The batch execution engine: a supervised, crash-safe worker pool over
//! a shared synthesis cache, with single-flight coalescing of identical
//! requests.
//!
//! Single-flight works on the *canonical* request fingerprint, so two
//! concurrently submitted jobs whose programs differ only by renaming
//! still solve once: the first becomes the leader and solves; the others
//! park on the flight, then replay the leader's outcome from the cache.
//!
//! Dense programs and contraction networks share this engine end to end:
//! [`process_job`] parses either kind, prepares it into a [`JobRequest`],
//! and drives it through the one supervision loop and the one
//! [`JobRunner`] seam. Only parsing, preparation and the plan figures of
//! the report differ by kind.
//!
//! Three robustness layers wrap that core (see `DESIGN.md` §14):
//!
//! * **supervision** — every solve runs under `catch_unwind` holding an
//!   RAII [`FlightGuard`], so a panicking or erroring leader settles its
//!   flight (no follower ever hangs) and one follower is promoted to
//!   retry as the new leader, bounded by [`BatchOptions::retry_budget`];
//! * **deadlines** — each job may carry a wall-clock deadline (per-job
//!   `timeout_ms` or the batch-wide [`BatchOptions::job_timeout`]) as a
//!   [`CancelToken`] threaded into the solver's budget machinery; expired
//!   jobs fail with `deadline_exceeded` instead of blocking the pool;
//! * **journaling** — with [`BatchOptions::journal`] set, admission,
//!   start, and completion events stream to a write-ahead journal, and a
//!   resumed run reuses completed jobs' reports verbatim (see
//!   [`crate::journal`]).

use crate::job::{batch_digest, BatchReport, BatchSummary, JobReport, JobSpec, REPORT_SCHEMA};
use crate::journal::{self, JournalWriter};
use crate::supervise::{Flight, FlightEnd, Role, SingleFlight};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tce_cache::{
    prepare_network_request, prepare_request, run_network_prepared, run_prepared, CachedRun,
    FsFaultPlan, PreparedNetworkRequest, PreparedRequest, SynthesisCache,
};
use tce_core::{SynthesisConfig, SynthesisError};
use tce_ir::network::ContractionDag;
use tce_ir::Program;
use tce_solver::CancelToken;

/// How many times followers may promote a new leader for one fingerprint
/// after the previous leader failed, before giving up.
pub const LEADER_RETRY_BUDGET: u32 = 2;

/// Write-ahead journal configuration for one batch run.
#[derive(Clone)]
pub struct JournalConfig {
    /// Journal file path.
    pub path: PathBuf,
    /// Resume from an existing journal instead of starting fresh.
    pub resume: bool,
    /// Fault schedule applied to journal writes (chaos testing); idle by
    /// default.
    pub faults: FsFaultPlan,
}

impl JournalConfig {
    /// A fresh (non-resuming, fault-free) journal at `path`.
    pub fn new(path: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig {
            path: path.into(),
            resume: false,
            faults: FsFaultPlan::none(),
        }
    }
}

/// Knobs for one batch run. `Default` reproduces the historical batch
/// behavior: core-count workers, no deadlines, no journal.
#[derive(Clone)]
pub struct BatchOptions {
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Batch-wide per-job deadline, measured from job pickup. A job's own
    /// `timeout_ms` overrides it.
    pub job_timeout: Option<Duration>,
    /// Write-ahead journal; `None` disables journaling.
    pub journal: Option<JournalConfig>,
    /// Leader-promotion budget after leader failures.
    pub retry_budget: u32,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            workers: 0,
            job_timeout: None,
            journal: None,
            retry_budget: LEADER_RETRY_BUDGET,
        }
    }
}

/// A job's parsed program: a dense contraction program, or a sparse
/// contraction network (DSL header `network`). Both run through the same
/// supervision loop and the same cached pipeline.
enum ParsedJob {
    Dense(Program),
    Network(ContractionDag),
}

impl ParsedJob {
    fn parse(spec: &JobSpec) -> Result<ParsedJob, String> {
        if tce_ir::is_network_src(&spec.program) {
            tce_ir::parse_network(&spec.program)
                .map(ParsedJob::Network)
                .map_err(|e| format!("invalid network: {e}"))
        } else {
            spec.parse_program().map(ParsedJob::Dense)
        }
    }

    /// Builds and fingerprints the model. Cheap and deterministic, so a
    /// promoted follower simply redoes it.
    fn prepare(&self, config: &SynthesisConfig) -> Result<JobRequest, SynthesisError> {
        match self {
            ParsedJob::Dense(p) => prepare_request(p, config).map(JobRequest::Dense),
            ParsedJob::Network(d) => prepare_network_request(d, config).map(JobRequest::Network),
        }
    }
}

/// A prepared, fingerprinted job, waiting for its solve or replay.
pub(crate) enum JobRequest {
    Dense(PreparedRequest),
    Network(PreparedNetworkRequest),
}

/// The plan figures a job report carries.
pub(crate) struct PlanFigures {
    io_bytes: f64,
    memory_bytes: f64,
    predicted_s: f64,
}

/// A finished job: the cache accounting plus the plan figures.
pub(crate) type JobDone = CachedRun<PlanFigures>;

impl JobRequest {
    fn fingerprint(&self) -> &str {
        match self {
            JobRequest::Dense(r) => &r.fingerprint,
            JobRequest::Network(r) => &r.fingerprint,
        }
    }

    /// Runs the request through the synthesis cache (hit → replay, miss →
    /// solve and populate).
    pub(crate) fn run(
        self,
        config: &SynthesisConfig,
        cache: &SynthesisCache,
    ) -> Result<JobDone, SynthesisError> {
        Ok(match self {
            JobRequest::Dense(r) => run_prepared(r, config, cache)?.map(|r| PlanFigures {
                io_bytes: r.io_bytes,
                memory_bytes: r.memory_bytes,
                predicted_s: r.predicted.total_s(),
            }),
            JobRequest::Network(r) => {
                run_network_prepared(r, config, cache)?.map(|r| PlanFigures {
                    io_bytes: r.io_bytes,
                    memory_bytes: r.memory_bytes,
                    predicted_s: r.predicted_s,
                })
            }
        })
    }
}

/// The solve step behind a leader, seam-isolated so supervision tests can
/// substitute a misbehaving solver without touching the real pipeline.
pub(crate) trait JobRunner: Sync {
    fn run(
        &self,
        request: JobRequest,
        config: &SynthesisConfig,
        cache: &SynthesisCache,
    ) -> Result<JobDone, SynthesisError>;
}

/// The production runner: straight through the synthesis cache.
pub(crate) struct CacheRunner;

impl JobRunner for CacheRunner {
    fn run(
        &self,
        request: JobRequest,
        config: &SynthesisConfig,
        cache: &SynthesisCache,
    ) -> Result<JobDone, SynthesisError> {
        request.run(config, cache)
    }
}

/// A cancel handle for one admitted job, created at admission and shared
/// between the daemon's cancel registry and the worker processing the
/// job.
///
/// Cancellation is *interest-based*: tripping the handle marks the job
/// canceled (its wire report becomes the deterministic
/// [`JobReport::canceled`]) and releases the job's interest in whatever
/// single-flight [`Flight`] it participates in. The underlying solve is
/// only torn down when the *last* interested job cancels — a leader's
/// solve survives as long as any identical request still waits on it.
#[derive(Clone, Default)]
pub struct JobCancel {
    inner: Arc<JobCancelInner>,
}

#[derive(Default)]
struct JobCancelInner {
    /// Shared cancel flag; follower wait-tokens are derived from it.
    token: CancelToken,
    /// Set once by the first effective [`JobCancel::cancel`].
    tripped: AtomicBool,
    /// The flight this job participates in, once its role is known.
    /// Guards the trip/attach race so interest is released exactly once.
    flight: Mutex<Option<Arc<Flight>>>,
}

impl JobCancel {
    /// A fresh, untripped handle.
    pub fn new() -> JobCancel {
        JobCancel::default()
    }

    /// Requests cancellation. Returns `true` the first time (the job is
    /// now canceled and its flight interest released), `false` on
    /// repeats.
    pub fn cancel(&self) -> bool {
        self.cancel_outcome().is_some()
    }

    /// Like [`JobCancel::cancel`], but reports how the job left its
    /// flight: `None` on a repeat (no effect), `Some(true)` when other
    /// waiters keep the underlying solve alive (the job *detached*),
    /// `Some(false)` when the job was unattached or held the last
    /// interest (the solve tears down).
    pub(crate) fn cancel_outcome(&self) -> Option<bool> {
        let flight = {
            let mut slot = self.inner.flight.lock();
            if self.inner.tripped.swap(true, Ordering::SeqCst) {
                return None;
            }
            self.inner.token.cancel();
            slot.take()
        };
        match flight {
            Some(f) => {
                f.drop_interest();
                Some(f.interest() > 0)
            }
            None => Some(false),
        }
    }

    /// Identity comparison, for registry bookkeeping: two handles are
    /// the same iff they share one admitted job.
    pub(crate) fn same(&self, other: &JobCancel) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// True once [`JobCancel::cancel`] was called.
    pub fn is_canceled(&self) -> bool {
        self.inner.tripped.load(Ordering::SeqCst)
    }

    /// The shared cancel flag (no deadline); derive per-attempt deadline
    /// tokens from it with [`CancelToken::and_deadline`].
    fn token(&self) -> &CancelToken {
        &self.inner.token
    }

    /// Records which flight this job participates in. If the cancel
    /// already fired before the role was known, the interest is released
    /// immediately instead. Re-attaching after a leader promotion simply
    /// follows the job to its new flight (the old one has settled).
    fn attach(&self, flight: &Arc<Flight>) {
        let mut slot = self.inner.flight.lock();
        if self.inner.tripped.load(Ordering::SeqCst) {
            drop(slot);
            flight.drop_interest();
        } else {
            *slot = Some(flight.clone());
        }
    }
}

/// Maps a synthesis error to its machine-readable report class.
fn kind_of(err: &SynthesisError) -> &'static str {
    match err {
        SynthesisError::Placement(_) => "placement",
        SynthesisError::Infeasible => "infeasible",
        SynthesisError::Canceled {
            deadline_exceeded: true,
        } => "deadline_exceeded",
        SynthesisError::Canceled {
            deadline_exceeded: false,
        } => "canceled",
    }
}

/// Runs one job, dense or network, to a report. `queue_wait_s` is
/// measured by the caller. Shared by the batch engine and the daemon's
/// worker loop. `cancel`, when given, is the job's admission-time cancel
/// handle: an explicit cancel detaches this job from its flight (tearing
/// the solve down only when it held the last interest) and yields the
/// deterministic [`JobReport::canceled`].
pub(crate) fn process_job(
    spec: &JobSpec,
    cache: &SynthesisCache,
    flights: &SingleFlight,
    queue_wait_s: f64,
    opts: &BatchOptions,
    runner: &dyn JobRunner,
    cancel: Option<&JobCancel>,
) -> JobReport {
    let started = Instant::now();
    let failed = |fingerprint: &str, error: String, kind: &str| {
        JobReport::failed(&spec.name, fingerprint, error, queue_wait_s).kind(kind)
    };
    // stamps a report with how this job ended up in it
    let finish = |report: JobReport, joined: bool| JobReport {
        joined,
        total_s: started.elapsed().as_secs_f64(),
        ..report
    };
    let canceled = || cancel.is_some_and(|c| c.is_canceled());

    let job = match ParsedJob::parse(spec) {
        Ok(j) => j,
        Err(e) => return failed("", e, "invalid_job"),
    };
    let config = match spec.config() {
        Ok(c) => c,
        Err(e) => return failed("", e, "invalid_job"),
    };
    // the job's deadline clock starts when a worker picks it up
    let timeout = spec
        .timeout_ms
        .map(Duration::from_millis)
        .or(opts.job_timeout);
    let deadline = timeout.map(|t| started + t);
    // what a parked follower polls: its own deadline plus its cancel flag
    let wait_token = match (cancel, deadline) {
        (Some(c), Some(d)) => Some(c.token().and_deadline(d)),
        (Some(c), None) => Some(c.token().clone()),
        (None, Some(d)) => Some(CancelToken::with_deadline(d)),
        (None, None) => None,
    };

    let mut request = match job.prepare(&config) {
        Ok(r) => Some(r),
        Err(e) => return failed("", e.to_string(), "invalid_job"),
    };
    let fingerprint = request
        .as_ref()
        .expect("just prepared")
        .fingerprint()
        .to_string();
    // a promoted follower's original request was consumed by an earlier
    // attempt; preparation is cheap and deterministic, so just redo it
    let mut take_request = || request.take().map_or_else(|| job.prepare(&config), Ok);

    // the supervision loop: lead, or park and — if the leader fails —
    // race to be promoted, bounded by the retry budget
    let mut leader_failures = 0u32;
    let (run, joined, stage) = loop {
        match flights.begin(&fingerprint) {
            Role::Leader(guard) => {
                let req = match take_request() {
                    Ok(r) => r,
                    Err(e) => {
                        guard.fail(e.to_string());
                        return failed(&fingerprint, e.to_string(), "invalid_job");
                    }
                };
                // a fresh solve token per leadership attempt: the flight
                // trips it when the last interested job cancels, and the
                // deadline (if any) trips it on expiry. The leader's own
                // *explicit* cancel does not abort the solve directly —
                // it only releases interest, so the solve survives while
                // followers still want the result.
                let solve_token = match deadline {
                    Some(d) => CancelToken::with_deadline(d),
                    None => CancelToken::new(),
                };
                guard.flight().lead_with(solve_token.clone());
                if let Some(c) = cancel {
                    c.attach(guard.flight());
                }
                let config = config.clone().cancel_token(solve_token);
                // the guard is moved into the closure: if the solve
                // panics, unwinding drops it and the flight settles as
                // failed — followers wake either way
                let run = catch_unwind(AssertUnwindSafe(|| {
                    let outcome = runner.run(req, &config, cache);
                    match &outcome {
                        Ok(_) => guard.success(),
                        Err(e) => guard.fail(e.to_string()),
                    }
                    outcome
                }));
                break (run, false, "solve");
            }
            Role::Follower(flight) => {
                if let Some(c) = cancel {
                    c.attach(&flight);
                }
                match flight.wait_with(wait_token.as_ref()) {
                    // our own cancel or deadline fired while parked
                    None if canceled() => {
                        return finish(JobReport::canceled(&spec.name, "", queue_wait_s), false)
                    }
                    None => {
                        return failed(
                            &fingerprint,
                            "job deadline exceeded".to_string(),
                            "deadline_exceeded",
                        )
                    }
                    Some(FlightEnd::Success) => {
                        let req = match take_request() {
                            Ok(r) => r,
                            Err(e) => return failed(&fingerprint, e.to_string(), "invalid_job"),
                        };
                        // replay the leader's outcome from the cache; panics
                        // here are as fatal to the pool as leader panics, so
                        // they get the same containment
                        let run =
                            catch_unwind(AssertUnwindSafe(|| runner.run(req, &config, cache)));
                        break (run, true, "replay");
                    }
                    Some(FlightEnd::Failed(cause)) => {
                        leader_failures += 1;
                        if leader_failures > opts.retry_budget {
                            return failed(
                                &fingerprint,
                                format!(
                                    "leader failed {leader_failures} time(s), retry budget \
                                 exhausted; last cause: {cause}"
                                ),
                                "leader_failed",
                            );
                        }
                        // loop: race to re-begin — first one in is promoted
                        // to leader and retries, the rest park on its flight
                    }
                }
            }
        }
    };

    // the client canceled: whatever the solve did (completed into the
    // cache for remaining followers, or aborted as uncacheable), *this*
    // job reports the canonical canceled outcome
    let report = if canceled() {
        JobReport::canceled(&spec.name, "", queue_wait_s)
    } else {
        match run {
            Ok(Ok(done)) => ok_report(spec, done, queue_wait_s),
            Ok(Err(e)) => failed(&fingerprint, e.to_string(), kind_of(&e)),
            Err(_) => failed(
                &fingerprint,
                format!("worker panicked during {stage}"),
                "panic",
            ),
        }
    };
    finish(report, joined)
}

fn ok_report(spec: &JobSpec, done: JobDone, queue_wait_s: f64) -> JobReport {
    JobReport {
        name: spec.name.clone(),
        ok: true,
        error: None,
        error_kind: None,
        fingerprint: done.fingerprint,
        hit: done.hit,
        joined: false,
        queue_wait_s,
        solve_wall_s: done.solve_wall.as_secs_f64(),
        saved_wall_s: done.saved_wall_s,
        total_s: 0.0,
        io_bytes: done.result.io_bytes,
        memory_bytes: done.result.memory_bytes,
        predicted_s: done.result.predicted_s,
    }
}

pub(crate) fn run_batch_runner(
    jobs: &[JobSpec],
    opts: &BatchOptions,
    cache: &SynthesisCache,
    runner: &dyn JobRunner,
) -> Result<BatchReport, String> {
    let workers = if opts.workers == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        opts.workers
    };
    let workers = workers.min(jobs.len().max(1));
    let batch_started = Instant::now();

    // journal setup: replay on resume, then open for append; fresh runs
    // truncate and write the header + admissions up front (write-ahead)
    let mut resumed: HashMap<usize, JobReport> = HashMap::new();
    let writer = match &opts.journal {
        Some(cfg) => {
            let faults = (!cfg.faults.is_idle()).then(|| cfg.faults.injector(1));
            let state = if cfg.resume {
                journal::replay(&cfg.path)
            } else {
                journal::JournalState::default()
            };
            let continuing = match state.header {
                Some((header_jobs, header_digest)) => {
                    if header_jobs != jobs.len() as u64 || header_digest != batch_digest(jobs) {
                        return Err(format!(
                            "journal {:?} was written for a different jobs file; \
                             refusing to merge its results",
                            cfg.path
                        ));
                    }
                    resumed = state
                        .done
                        .into_iter()
                        .filter(|(idx, _)| *idx < jobs.len())
                        .collect();
                    true
                }
                // resuming an empty/unreadable journal is just a fresh run
                None => false,
            };
            let mut w = JournalWriter::open(&cfg.path, !continuing, faults)?;
            if !continuing {
                w.batch(jobs);
                for (idx, spec) in jobs.iter().enumerate() {
                    w.admit(idx, spec);
                }
            }
            w.sync_parent(&cfg.path);
            Some(w)
        }
        None => None,
    };
    let writer = writer.as_ref();

    let flights = SingleFlight::default();
    let queue: Mutex<Vec<usize>> = Mutex::new(
        (0..jobs.len())
            .rev()
            .filter(|i| !resumed.contains_key(i))
            .collect(),
    );
    let reports: Mutex<Vec<Option<JobReport>>> =
        Mutex::new((0..jobs.len()).map(|_| None).collect());

    crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| loop {
                let idx = match queue.lock().pop() {
                    Some(i) => i,
                    None => break,
                };
                if let Some(w) = writer {
                    w.start(idx);
                }
                let queue_wait_s = batch_started.elapsed().as_secs_f64();
                let report = process_job(
                    &jobs[idx],
                    cache,
                    &flights,
                    queue_wait_s,
                    opts,
                    runner,
                    None,
                );
                if let Some(w) = writer {
                    w.done(idx, &report);
                }
                reports.lock()[idx] = Some(report);
            });
        }
    })
    .expect("worker pool");

    let resumed_count = resumed.len() as u64;
    // per-request latency (admission → report) over the jobs this run
    // actually executed; resumed jobs replayed verbatim don't count
    let mut latencies = Vec::new();
    let jobs: Vec<JobReport> = reports
        .into_inner()
        .into_iter()
        .enumerate()
        .map(|(idx, r)| match r {
            Some(r) => {
                latencies.push(r.queue_wait_s + r.total_s);
                r
            }
            // not queued: merged verbatim from the resumed journal
            None => resumed.remove(&idx).expect("every job reported"),
        })
        .collect();

    let summary = summarize(
        &jobs,
        resumed_count,
        batch_started.elapsed().as_secs_f64(),
        latencies,
    );
    Ok(BatchReport {
        schema: REPORT_SCHEMA.to_string(),
        workers: workers as u64,
        jobs,
        summary,
    })
}

/// Folds per-job reports (plus the measured per-request latencies) into a
/// [`BatchSummary`]. Shared by the batch engine and journal recovery.
pub(crate) fn summarize(
    jobs: &[JobReport],
    resumed: u64,
    wall_s: f64,
    mut latencies: Vec<f64>,
) -> BatchSummary {
    let mut summary = BatchSummary {
        resumed,
        wall_s,
        ..BatchSummary::default()
    };
    for r in jobs {
        summary.count(r);
    }
    latencies.sort_by(f64::total_cmp);
    summary.p50_s = crate::job::percentile(&latencies, 50.0);
    summary.p99_s = crate::job::percentile(&latencies, 99.0);
    summary
}

/// Parses JSON-lines input (one job object per non-empty line).
pub(crate) fn parse_lines(input: &str) -> Result<Vec<JobSpec>, String> {
    let mut jobs = Vec::new();
    for (n, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        jobs.push(JobSpec::from_json_line(line).map_err(|e| format!("line {}: {e}", n + 1))?);
    }
    Ok(jobs)
}

/// Renders a batch report as JSON-lines: one report line per job
/// (submission order) followed by one summary line.
pub(crate) fn render_lines(report: &BatchReport) -> Result<String, String> {
    let mut out = String::new();
    for job in &report.jobs {
        out.push_str(&serde_json::to_string(job).map_err(|e| format!("{e:?}"))?);
        out.push('\n');
    }
    let summary = serde_json::to_string(&report.summary).map_err(|e| format!("{e:?}"))?;
    out.push_str(&summary);
    out.push('\n');
    Ok(out)
}

//! `serve_warm` and `serve_cold`: an in-process `tce_serve::Server` on
//! loopback with two workers, driven by two closed-loop `Client`
//! threads that each wait for their reply before sending the next job.
//!
//! * `serve_warm` (read path): an in-memory cache, a pool of paper-scale
//!   programs in seeded alpha-renamed variants, every fingerprint solved
//!   during set-up, so every measured request is a cache hit.
//! * `serve_cold` (write path): a fresh journal and a disk-backed cache;
//!   every request has its own fingerprint, so every job solves, writes
//!   an fsynced cache record and appends fsynced journal lines.

use crate::gen::{cold_dense_programs, cold_request, mix, spec_for, variants, warm_bases, Rng};
use crate::stats::{geomean, mean, median, peak_rss_mb, quantile, Outcome};
use crate::trace::Tracer;
use crate::worker::{run_job, JobCounts, Journal};
use crate::{layer_metrics, Run};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tce_cache::{synthesize_dcs_cached, synthesize_network_cached, CacheStats, SynthesisCache};
use tce_core::{seeded_network_inputs, synthesize_dcs, verify_network_plan};
use tce_exec::{execute, ExecOptions};
use tce_serve::{
    BatchReport, Client, ClientRetry, JobReport, JobSpec, JournalConfig, JournalWriter, ServeStats,
    Server,
};

/// Which of the two daemon workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Every request hits the cache.
    Warm,
    /// Every request solves.
    Cold,
}

/// Daemon worker threads and load-generating client threads.
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Set-ups per run, half before the measured loop and half after it;
/// `setup_s` is their median. A cold set-up is short and its fsyncs
/// jitter, so it is repeated more often than a warm one.
fn setups(mode: Mode) -> usize {
    match mode {
        Mode::Warm => 6,
        Mode::Cold => 16,
    }
}

/// Renamed variants per warm base program.
const VARIANTS: usize = 4;
/// One cold request in this many is re-checked in process after the
/// run, up to `COLD_SAMPLES`.
const COLD_SAMPLE_EVERY: u64 = 16;
const COLD_SAMPLES: usize = 48;
/// Journal file name inside a cold daemon's scratch directory.
const JOURNAL: &str = "journal.jsonl";
/// Share of a traced run spent on the daemon; the rest replays the
/// worker's calls in process.
const TRACE_DAEMON_SHARE: f64 = 0.4;

/// A daemon on a loopback port, serving from a background thread.
struct Daemon {
    addr: String,
    cache: Arc<SynthesisCache>,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<Result<BatchReport, String>>>,
    /// Scratch directory of a cold daemon: its cache records and journal.
    dir: Option<PathBuf>,
}

impl Daemon {
    /// Starts a daemon: with a scratch directory, on a disk-backed cache
    /// and a fresh journal inside it; without, on an in-memory cache and
    /// no journal.
    fn start(dir: Option<PathBuf>) -> Result<Daemon, String> {
        let cache = match &dir {
            Some(dir) => SynthesisCache::with_dir(dir.join("cache"))?,
            None => SynthesisCache::with_capacity(4096),
        };
        let journal = dir.as_deref().map(|d| JournalConfig::new(d.join(JOURNAL)));
        let server = Server::builder().workers(WORKERS).journal(journal).build();
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        let cache = Arc::new(cache);
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = {
            let (cache, shutdown) = (cache.clone(), shutdown.clone());
            std::thread::spawn(move || server.serve(listener, &cache, &shutdown))
        };
        Ok(Daemon {
            addr,
            cache,
            shutdown,
            handle: Some(handle),
            dir,
        })
    }

    fn client(&self, stream: u64) -> Client {
        Client::new(
            self.addr.clone(),
            ClientRetry::with_attempts(1).with_seed(stream),
        )
    }

    /// The daemon's journal file, if it keeps one.
    fn journal(&self) -> Option<PathBuf> {
        self.dir.as_deref().map(|d| d.join(JOURNAL))
    }

    fn stats(&self) -> Result<ServeStats, String> {
        self.client(0).stats().map_err(|e| format!("stats: {e}"))
    }

    /// Drains the daemon and waits for its thread.
    fn stop(&mut self) -> Result<(), String> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        let asked = self.client(0).shutdown();
        self.shutdown.store(true, Ordering::SeqCst);
        let ended = handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?;
        asked.map_err(|e| format!("shutdown: {e}"))?;
        ended.map(|_| ())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
            // commit the removal now, so its file-system work does not
            // land on a later set-up's fsyncs
            if let Some(parent) = dir.parent() {
                let _ = std::fs::File::open(parent).and_then(|f| f.sync_all());
            }
        }
    }
}

/// A measured request stream's state after set-up.
struct State {
    daemon: Daemon,
    /// Warm: every pooled spec with the daemon's set-up reply to it.
    /// Empty for cold.
    pool: Vec<(JobSpec, JobReport)>,
    /// Cold: the next request index.
    next: AtomicU64,
    /// The workload's `plan_io_s`, from its reference plans.
    plan_io_s: f64,
}

fn bits(r: &JobReport) -> (u64, u64, u64) {
    (
        r.io_bytes.to_bits(),
        r.memory_bytes.to_bits(),
        r.predicted_s.to_bits(),
    )
}

/// Checks a warm reply: a hit (or a join on an identical in-flight
/// request) whose fingerprint and plan figures are bit-identical to the
/// set-up reply to the same spec.
fn check_warm(r: &JobReport, setup: &JobReport) -> Result<(), String> {
    if !r.ok {
        return Err(format!("{}: {:?}", r.name, r.error));
    }
    if !(r.hit || r.joined) {
        return Err(format!("{}: not a cache hit", r.name));
    }
    if r.fingerprint != setup.fingerprint || bits(r) != bits(setup) {
        return Err(format!("{}: hit differs from its set-up reply", r.name));
    }
    Ok(())
}

/// Checks a renamed variant's set-up reply against its original's
/// solve: a hit on the same fingerprint, with the same plan figures up to
/// rounding. Renaming can reorder the floating-point sums that produce
/// the figures (seen on networks), so only the variant's own later
/// replies are held to bit identity.
fn check_variant(r: &JobReport, original: &JobReport) -> Result<(), String> {
    if !r.ok || !r.hit || r.fingerprint != original.fingerprint {
        return Err(format!(
            "{}: not a hit on the fingerprint of {}",
            r.name, original.name
        ));
    }
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs());
    if !(close(r.io_bytes, original.io_bytes)
        && close(r.memory_bytes, original.memory_bytes)
        && close(r.predicted_s, original.predicted_s))
    {
        return Err(format!("{}: plan differs from {}", r.name, original.name));
    }
    Ok(())
}

fn check_cold(r: &JobReport) -> Result<(), String> {
    if !r.ok {
        return Err(format!("{}: {:?}", r.name, r.error));
    }
    if r.hit || r.joined {
        return Err(format!(
            "{}: a unique request was served from the cache",
            r.name
        ));
    }
    Ok(())
}

fn warm_setup(seed: u64) -> Result<State, String> {
    let bases = warm_bases(seed);
    let mut rng = Rng::new(mix(seed, 0x7e11));
    let daemon = Daemon::start(None)?;
    let mut client = daemon.client(seed);
    let mut pool = Vec::new();
    for base in &bases {
        let spec = spec_for(base, base.name.clone(), None);
        let r = client
            .submit(&spec)
            .map_err(|e| format!("{}: {e}", base.name))?;
        if !r.ok || r.hit {
            return Err(format!(
                "{}: set-up solve failed or hit: {:?}",
                base.name, r.error
            ));
        }
        pool.push((spec, r.clone()));
        for (v, text) in variants(&base.text, VARIANTS, &mut rng)
            .into_iter()
            .enumerate()
        {
            let mut spec = spec_for(base, format!("{}-v{v}", base.name), None);
            spec.program = text;
            let renamed = client
                .submit(&spec)
                .map_err(|e| format!("{}: {e}", spec.name))?;
            check_variant(&renamed, &r)?;
            pool.push((spec, renamed));
        }
    }
    Ok(State {
        daemon,
        pool,
        next: AtomicU64::new(0),
        plan_io_s: plan_io_s(Mode::Warm, seed)?,
    })
}

/// A cold set-up: the reference plans, then a daemon on a fresh cache
/// directory and journal. No job is sent: a job's fsyncs would make the
/// set-up time follow the disk's momentary fsync latency.
fn cold_setup(seed: u64) -> Result<State, String> {
    let plan_io_s = plan_io_s(Mode::Cold, seed)?;
    static DAEMONS: AtomicUsize = AtomicUsize::new(0);
    let n = DAEMONS.fetch_add(1, Ordering::Relaxed);
    let dir = PathBuf::from(crate::OUT_DIR).join(format!("serve_cold-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{dir:?}: {e}"))?;
    Ok(State {
        daemon: Daemon::start(Some(dir))?,
        pool: Vec::new(),
        next: AtomicU64::new(0),
        plan_io_s,
    })
}

/// Sets up `n` times, each from scratch, recording each time; keeps the
/// last state.
fn setup(
    mode: Mode,
    seed: u64,
    n: usize,
    times: &mut Vec<f64>,
    out: &mut Outcome,
) -> Option<State> {
    let mut state = None;
    for _ in 0..n {
        drop(state.take());
        let t0 = Instant::now();
        let made = match mode {
            Mode::Warm => warm_setup(seed),
            Mode::Cold => cold_setup(seed),
        };
        times.push(t0.elapsed().as_secs_f64());
        match made {
            Ok(s) => state = Some(s),
            Err(e) => {
                out.fail(format!("set-up: {e}"));
                return None;
            }
        }
    }
    state
}

/// One measured round trip.
struct Sample {
    network: bool,
    joined: bool,
    rtt_s: f64,
    /// The daemon's `JobReport.queue_wait_s` and `total_s`.
    queue_wait_s: f64,
    total_s: f64,
}

/// Cold requests kept for the in-process re-check.
type Kept = Mutex<Vec<(u64, JobSpec, JobReport)>>;

/// Runs the closed loop: `CLIENTS` threads, each submitting its next
/// request when the previous reply arrives, until `seconds` pass.
fn drive(
    mode: Mode,
    seed: u64,
    st: &State,
    seconds: f64,
    kept: &Kept,
) -> (Vec<Sample>, Vec<String>, f64) {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<Sample>, Vec<String>)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = st.daemon.client(mix(seed, c));
                    let mut rng = Rng::new(mix(seed, 0xc1 + c));
                    let (mut samples, mut errors) = (Vec::new(), Vec::new());
                    while started.elapsed() < budget {
                        let (k, setup, spec) = match mode {
                            Mode::Warm => {
                                let (spec, setup) = &st.pool[rng.below(st.pool.len())];
                                (0, Some(setup), spec.clone())
                            }
                            Mode::Cold => {
                                let k = st.next.fetch_add(1, Ordering::Relaxed);
                                (k, None, cold_request(seed, k))
                            }
                        };
                        let network = tce_ir::is_network_src(&spec.program);
                        let t0 = Instant::now();
                        let res = client.submit(&spec);
                        let rtt_s = t0.elapsed().as_secs_f64();
                        let report = match res {
                            Ok(r) => r,
                            Err(e) => {
                                errors.push(format!("{}: {e}", spec.name));
                                continue;
                            }
                        };
                        let checked = match setup {
                            Some(setup) => check_warm(&report, setup),
                            None => check_cold(&report),
                        };
                        match checked {
                            Ok(()) => {
                                if mode == Mode::Cold && sampled(seed, k) {
                                    kept.lock()
                                        .expect("no client panics holding the sample lock")
                                        .push((k, spec, report.clone()));
                                }
                                samples.push(Sample {
                                    network,
                                    joined: report.joined,
                                    rtt_s,
                                    queue_wait_s: report.queue_wait_s,
                                    total_s: report.total_s,
                                });
                            }
                            Err(e) => errors.push(e),
                        }
                    }
                    (samples, errors)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| {
                t.join()
                    .unwrap_or_else(|_| (Vec::new(), vec!["client panicked".into()]))
            })
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let (mut samples, mut errors) = (Vec::new(), Vec::new());
    for (s, e) in per_client {
        samples.extend(s);
        errors.extend(e);
    }
    (samples, errors, elapsed)
}

fn sampled(seed: u64, k: u64) -> bool {
    mix(seed, k).is_multiple_of(COLD_SAMPLE_EVERY)
}

/// Counters of the daemon, its cache and its journal at one moment.
struct Snapshot {
    serve: ServeStats,
    cache: CacheStats,
    journal_bytes: u64,
}

fn snapshot(st: &State) -> Result<Snapshot, String> {
    Ok(Snapshot {
        serve: st.daemon.stats()?,
        cache: st.daemon.cache.stats(),
        journal_bytes: st
            .daemon
            .journal()
            .and_then(|p| std::fs::metadata(p).ok())
            .map_or(0, |m| m.len()),
    })
}

/// After the run: replays every warm pool spec in set-up order (or a
/// seeded sample of cold requests) through the in-process cached
/// pipeline, checks the daemon's reply to it matches bit for bit, and
/// verifies the network plans among them against the dense oracle. The
/// warm originals solve into a fresh cache first, so their renamed
/// variants replay from it exactly as they do in the daemon.
fn recheck(mode: Mode, seed: u64, st: &State, kept: &Kept, out: &mut Outcome) {
    let targets: Vec<(JobSpec, JobReport)> = match mode {
        Mode::Warm => st.pool.clone(),
        Mode::Cold => {
            let mut kept = kept.lock().expect("clients have finished").clone();
            kept.sort_by_key(|(k, _, _)| *k);
            kept.truncate(COLD_SAMPLES);
            kept.into_iter().map(|(_, s, r)| (s, r)).collect()
        }
    };
    if targets.is_empty() {
        out.fail("nothing was re-checked in process");
    }
    let cache = SynthesisCache::in_memory();
    for (spec, report) in targets {
        if let Err(e) = recheck_one(seed, &spec, &report, &cache) {
            out.fail(format!("{}: {e}", spec.name));
        }
    }
}

fn recheck_one(
    seed: u64,
    spec: &JobSpec,
    report: &JobReport,
    cache: &SynthesisCache,
) -> Result<(), String> {
    let config = spec.config()?;
    let same = |hit: bool, fp: &str, io: f64, mem: f64, pred: f64| {
        if hit != report.hit
            || fp != report.fingerprint
            || (io.to_bits(), mem.to_bits(), pred.to_bits()) != bits(report)
        {
            Err("daemon reply differs from the in-process pipeline".to_string())
        } else {
            Ok(())
        }
    };
    if tce_ir::is_network_src(&spec.program) {
        let dag = tce_ir::parse_network(&spec.program).map_err(|e| e.to_string())?;
        let c = synthesize_network_cached(&dag, &config, cache).map_err(|e| e.to_string())?;
        let r = &c.result;
        same(
            c.hit,
            &c.fingerprint,
            r.io_bytes,
            r.memory_bytes,
            r.predicted_s,
        )?;
        let inputs = seeded_network_inputs(&dag, mix(seed, 0x0dd5));
        verify_network_plan(&dag, &r.plan, &inputs, 1e-6).map(|_| ())
    } else {
        let program = spec.parse_program()?;
        let c = synthesize_dcs_cached(&program, &config, cache).map_err(|e| e.to_string())?;
        let r = &c.result;
        same(
            c.hit,
            &c.fingerprint,
            r.io_bytes,
            r.memory_bytes,
            r.predicted.total_s(),
        )
    }
}

/// `plan_io_s` of a daemon workload: the geomean of the dry-run simulated
/// disk seconds of the plans its dense programs get at their base memory
/// limit and the default solver seed. Cold requests vary the solver seed
/// and limit per request, so their own plans would make the quality
/// metric depend on the sample; these reference plans do not.
fn plan_io_s(mode: Mode, seed: u64) -> Result<f64, String> {
    let programs = match mode {
        Mode::Warm => warm_bases(seed),
        Mode::Cold => cold_dense_programs(),
    };
    let mut io_s = Vec::new();
    for p in programs.iter().filter(|p| !p.network) {
        let spec = spec_for(p, p.name.clone(), None);
        let r = synthesize_dcs(&spec.parse_program()?, &spec.config()?)
            .map_err(|e| format!("{}: {e}", p.name))?;
        let rep = execute(&r.plan, &ExecOptions::dry_run())
            .map_err(|e| format!("{}: dry run: {e}", p.name))?;
        io_s.push(rep.elapsed_io_s);
    }
    Ok(geomean(&io_s))
}

fn fold_errors(out: &mut Outcome, samples: usize, errors: Vec<String>) {
    out.attempted += (samples + errors.len()) as u64;
    for e in errors {
        out.fail_request(e);
    }
}

/// The measured run (untraced), returning the end-to-end metrics.
pub fn run(mode: Mode, run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let Some(st) = setup(mode, run.seed, setups(mode) / 2, &mut setup_s, &mut out) else {
        return out;
    };
    let kept = Mutex::new(Vec::new());
    let (samples, errors, elapsed) = drive(mode, run.seed, &st, run.seconds, &kept);
    fold_errors(&mut out, samples.len(), errors);
    recheck(mode, run.seed, &st, &kept, &mut out);
    // the second half of the set-ups runs while the measured daemon still
    // exists: removing its cache directory (thousands of records on
    // serve_cold) queues file-system work that would slow their fsyncs
    drop(setup(
        mode,
        run.seed,
        setups(mode) / 2,
        &mut setup_s,
        &mut out,
    ));
    let plan_io_s = st.plan_io_s;
    drop(st);

    let rtt_ms: Vec<f64> = samples.iter().map(|s| s.rtt_s * 1e3).collect();
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("latency_mean_ms", mean(&rtt_ms), "ms");
    out.metric("jobs_per_s", samples.len() as f64 / elapsed, "1/s");
    out.metric("plan_io_s", plan_io_s, "sim_s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    eprintln!(
        "{mode:?}: {} jobs in {elapsed:.2} s, {} network, round trip p50 {:.3} ms, p99 {:.3} ms",
        samples.len(),
        samples.iter().filter(|s| s.network).count(),
        median(&rtt_ms),
        quantile(&rtt_ms, 0.99)
    );
    out
}

/// Daemon-side per-layer metrics of the measured loop: queue wait,
/// service and transport time from the reports, and the counters of
/// `ServeStats`, the cache and the journal over the loop.
fn daemon_metrics(out: &mut Outcome, samples: &[Sample], before: &Snapshot, after: &Snapshot) {
    for network in [false, true] {
        let class: Vec<&Sample> = samples.iter().filter(|s| s.network == network).collect();
        let series =
            |f: &dyn Fn(&Sample) -> f64| class.iter().map(|s| f(s) * 1e3).collect::<Vec<_>>();
        let queue = series(&|s| s.queue_wait_s);
        let service = series(&|s| s.total_s);
        let transport = series(&|s| (s.rtt_s - s.total_s - s.queue_wait_s).max(0.0));
        for (base, xs) in [
            ("serve.queue_wait_ms", queue),
            ("serve.service_ms", service),
            ("serve.transport_ms", transport),
        ] {
            crate::timing(out, base, network, "ms", &xs);
        }
    }
    let jobs = (after.serve.completed - before.serve.completed).max(1) as f64;
    let (s0, s1) = (&before.serve, &after.serve);
    let frame_bytes = (s1.bytes_in - s0.bytes_in) + (s1.bytes_out - s0.bytes_out);
    let hits = after.cache.hits - before.cache.hits;
    let misses = after.cache.misses - before.cache.misses;
    let joined = samples.iter().filter(|s| s.joined).count();
    out.metric(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    out.metric(
        "cache.replay_rejects",
        (after.cache.rejects - before.cache.rejects) as f64,
        "count",
    );
    out.metric(
        "serve.journal_bytes_per_job",
        (after.journal_bytes - before.journal_bytes) as f64 / jobs,
        "B",
    );
    out.metric("serve.frame_bytes_per_job", frame_bytes as f64 / jobs, "B");
    out.metric(
        "serve.joined_ratio",
        joined as f64 / samples.len().max(1) as f64,
        "ratio",
    );
    out.metric(
        "serve.rejected",
        (s1.rejected - s0.rejected) as f64,
        "count",
    );
}

/// The traced run: the daemon loop for its queueing and counter metrics,
/// then the same seeded request stream through the worker's calls in
/// process, alternating untraced and traced requests.
pub fn run_traced(mode: Mode, run: &Run) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let mut t = Tracer::new(true);
    let Some(st) = setup(mode, run.seed, 1, &mut Vec::new(), &mut out) else {
        return (out, t);
    };
    let kept = Mutex::new(Vec::new());
    let before = snapshot(&st);
    let (samples, errors, _) = drive(mode, run.seed, &st, run.seconds * TRACE_DAEMON_SHARE, &kept);
    let after = snapshot(&st);
    fold_errors(&mut out, samples.len(), errors);
    match (before, after) {
        (Ok(b), Ok(a)) => daemon_metrics(&mut out, &samples, &b, &a),
        (Err(e), _) | (_, Err(e)) => out.fail(e),
    }
    let mut st = st;
    if let Err(e) = st.daemon.stop() {
        out.fail(e);
    }

    // in process: the same stream, with the daemon's cache (and, cold,
    // a journal of its own next to the daemon's)
    let journal = match st.daemon.journal() {
        Some(p) => match JournalWriter::open(&p.with_extension("inproc.jsonl"), true, None) {
            Ok(w) => Some(w),
            Err(e) => {
                out.fail(e);
                return (out, t);
            }
        },
        None => None,
    };
    let mut rng = Rng::new(mix(run.seed, 0xc1));
    let mut untraced = Tracer::new(false);
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut counts: [Vec<JobCounts>; 2] = [Vec::new(), Vec::new()];
    let started = Instant::now();
    let budget = Duration::from_secs_f64(run.seconds * (1.0 - TRACE_DAEMON_SHARE));
    let mut request = 0u64;
    while started.elapsed() < budget {
        request += 1;
        let (setup, spec) = match mode {
            Mode::Warm => {
                let (spec, setup) = &st.pool[rng.below(st.pool.len())];
                (Some(setup), spec.clone())
            }
            Mode::Cold => (
                None,
                cold_request(run.seed, st.next.fetch_add(1, Ordering::Relaxed)),
            ),
        };
        let traced = request.is_multiple_of(2);
        let tracer = if traced { &mut t } else { &mut untraced };
        let journal = journal.as_ref().map(|writer| Journal {
            writer,
            idx: request as usize,
        });
        out.attempted += 1;
        let t0 = Instant::now();
        let served = run_job(tracer, request, &spec, &st.daemon.cache, journal);
        let dt = t0.elapsed().as_secs_f64();
        let checked = served.and_then(|s| {
            match setup {
                Some(setup) => check_warm(&s.report, setup),
                None => check_cold(&s.report),
            }
            .map(|()| s)
        });
        match checked {
            Ok(s) if traced => {
                traced_s.push(dt);
                counts[tce_ir::is_network_src(&spec.program) as usize].push(s.counts);
            }
            Ok(_) => plain_s.push(dt),
            Err(e) => out.fail_request(e),
        }
    }
    drop(st);

    layer_metrics(&mut out, &t, traced_s.len() as f64);
    for (network, class) in [(false, &counts[0]), (true, &counts[1])] {
        let suffix = if network { ".network" } else { "" };
        let of = |f: &dyn Fn(&JobCounts) -> f64| mean(&class.iter().map(f).collect::<Vec<_>>());
        out.metric(
            format!("core.model_vars{suffix}"),
            of(&|c| c.model_vars as f64),
            "count",
        );
        out.metric(
            format!("core.model_constraints{suffix}"),
            of(&|c| c.model_constraints as f64),
            "count",
        );
        out.metric(
            format!("solver.evals{suffix}"),
            of(&|c| c.evals as f64),
            "count",
        );
        let rates: Vec<f64> = class
            .iter()
            .filter(|c| c.solve_s > 0.0)
            .map(|c| c.evals as f64 / c.solve_s)
            .collect();
        out.metric(format!("solver.evals_per_s{suffix}"), median(&rates), "1/s");
    }
    out.metric(
        "trace.overhead_ratio",
        mean(&traced_s) / mean(&plain_s),
        "ratio",
    );
    (out, t)
}

//! Sustained-load chaos soak for the persistent daemon (the `soak` key
//! of `BENCH_solver.json`).
//!
//! Boots a real journaled `tce-serve` daemon on loopback, then replays a
//! seeded mixed job stream against it from several retrying
//! [`tce_serve::Client`] threads for a configurable duration while
//! **both** fault injectors fire: the network plan resets connections at
//! random (`--net-chaos`) and the filesystem plan degrades journal
//! appends (`--fs-chaos`). A separate rude thread keeps submitting jobs
//! and vanishing without reading the reports, exercising the
//! dead-connection write path the whole time.
//!
//! The stream mixes the interesting job classes: warm repeats of a small
//! spec pool, renamed duplicates of pool specs (same fingerprint, new
//! name — must dedup), unique cold specs, sparse contraction-network
//! specs from a second fixed pool (the network synthesis pipeline under
//! the same exactly-once rules), tiny-deadline jobs that terminate as
//! `deadline_exceeded` or are shed at pickup (`deadline_unmeetable`),
//! and a **canceled** class: unique jobs submitted with
//! [`Client::submit_nowait`] and immediately canceled, timing how long
//! the daemon takes to reach the terminal `canceled` report.
//!
//! Gates (exit 1 on violation):
//! - **zero lost jobs** — every client submit returns a terminal report;
//! - **zero double-executions** — solver misses never exceed the number
//!   of distinct fingerprints issued;
//! - **zero leaked worker slots** — after the stream stops, every
//!   admitted job reaches a terminal report (a canceled solve that
//!   pinned its worker would stall this forever);
//! - **zero orphaned journal entries** — every admitted journal index
//!   carries a `done` or `cancel` record after drain (skipped under
//!   `--fs-chaos`, which drops appends on purpose);
//! - **time-to-cancel** — p99 of cancel-to-terminal stays under
//!   `--max-cancel-p99-ms`;
//! - **bounded journal growth** — journal bytes per admitted job stay
//!   under `--max-journal-bytes-per-job`;
//! - **bounded memory** — peak RSS stays under `--max-rss-mb`;
//! - optional `--min-throughput` jobs/s floor;
//! - **trajectory regression** — every run appends a `"bench":"soak"`
//!   line to `BENCH_history.jsonl`; jobs/s must stay above, and
//!   p99/p999 below, the previous same-mode entry scaled by
//!   `--regression-tolerance` (skipped when there is no prior entry).
//!
//! Usage: `bench_soak [--duration-s N] [--fast] [--seed N] [--clients N]
//! [--workers N] [--net-chaos] [--fs-chaos] [--out PATH]
//! [--max-journal-bytes-per-job N] [--max-rss-mb N] [--min-throughput X]
//! [--max-cancel-p99-ms N] [--history PATH] [--no-history]
//! [--regression-tolerance X] [--no-regression-gate]`

use serde::{Serialize, Value};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tce_cache::{FsFaultKind, FsFaultPlan, SynthesisCache};
use tce_ir::fixtures::two_index_fused;
use tce_serve::{
    percentile, replay, write_frame, Client, ClientError, ClientRetry, JobRequest, JobSpec,
    JournalConfig, NetFaultKind, NetFaultPlan, Server, WireFrame,
};

/// Warm pool size: specs the stream keeps re-submitting.
const POOL: usize = 6;

fn job(name: &str, n: u64, v: u64, seed: u64, mem: u64) -> JobSpec {
    JobSpec {
        name: name.to_string(),
        program: tce_ir::to_dsl(&two_index_fused(n, v)),
        mem_limit: mem,
        test_scale: true,
        strategy: None,
        seed: Some(seed),
        budget: None,
        telemetry: false,
        objective: None,
        timeout_ms: None,
    }
}

fn pool_spec(i: usize, seed: u64) -> JobSpec {
    let (n, v) = [(64, 48), (48, 64), (64, 64), (48, 48), (56, 48), (48, 56)][i % POOL];
    job(&format!("pool-{i}"), n, v, seed + i as u64, 64 * 1024)
}

/// Sparse pool size: contraction-network specs the stream re-submits.
const NET_POOL: usize = 4;

/// A deterministic sparse contraction-network spec. Small extents and a
/// capped solver budget keep each fresh solve in the same cost band as
/// the dense pool, so the sparse class stresses the network pipeline
/// without dominating the stream's wall clock.
fn net_pool_spec(i: usize, seed: u64) -> JobSpec {
    let dag = tce_ir::gen_network(&tce_ir::NetworkGenConfig {
        seed: seed ^ (0xA5A5 + i as u64),
        nodes: 2 + i % 2,
        min_extent: 8,
        max_extent: 20,
        ..tce_ir::NetworkGenConfig::default()
    });
    JobSpec {
        name: format!("sparse-{i}"),
        program: tce_ir::to_network_dsl(&dag),
        mem_limit: 64 * 1024,
        test_scale: true,
        strategy: None,
        seed: Some(seed + i as u64),
        budget: Some(20_000),
        telemetry: false,
        objective: None,
        timeout_ms: None,
    }
}

/// Peak-RSS sampler: reads `VmRSS` from `/proc/self/status` every 100 ms
/// and keeps the maximum in kB. Returns 0 on platforms without procfs.
fn sample_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

/// What one client thread observed.
#[derive(Default)]
struct ClientTally {
    submitted: u64,
    ok: u64,
    failed: u64,
    timeouts: u64,
    shed: u64,
    canceled: u64,
    hits: u64,
    latencies_s: Vec<f64>,
    cancel_lat_s: Vec<f64>,
}

/// The `"soak"` object merged into `BENCH_solver.json`.
#[derive(Serialize)]
struct SoakReport {
    schema: &'static str,
    fast: bool,
    seed: u64,
    duration_s: f64,
    clients: usize,
    workers: usize,
    net_chaos: bool,
    fs_chaos: bool,
    submitted: u64,
    delivered: u64,
    ok: u64,
    failed: u64,
    timeouts: u64,
    shed: u64,
    canceled: u64,
    cancel_p99_ms: f64,
    hit_rate: f64,
    distinct_fingerprints: u64,
    solver_misses: u64,
    double_executed: u64,
    jobs_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    daemon_jobs: u64,
    daemon_conns_total: u64,
    daemon_evicted: u64,
    daemon_overloaded: u64,
    daemon_canceled: u64,
    daemon_deadline_shed: u64,
    leaked_worker_slots: u64,
    journal_orphans: u64,
    client_reconnects: u64,
    client_retries: u64,
    journal_bytes: u64,
    journal_bytes_per_job: f64,
    max_rss_mb: f64,
}

/// Merges `report` under the `"soak"` key, preserving every other key.
fn merge_into(path: &str, report: &SoakReport) {
    let mut entries: Vec<(String, Value)> = match std::fs::read_to_string(path) {
        Ok(text) => match serde_json::parse_value(&text) {
            Ok(Value::Map(entries)) => entries,
            _ => panic!("{path} is not a JSON object; refusing to overwrite"),
        },
        Err(_) => vec![
            (
                "schema".to_string(),
                Value::Str("tce-bench/solver-eval/v1".to_string()),
            ),
            ("fast".to_string(), Value::Bool(report.fast)),
        ],
    };
    entries.retain(|(k, _)| k != "soak");
    entries.push(("soak".to_string(), report.to_value()));
    let json = serde_json::to_string_pretty(&Value::Map(entries)).expect("serialize report");
    std::fs::write(path, json).expect("write report");
}

/// One appended line of `BENCH_history.jsonl`: the soak's headline
/// numbers keyed by commit and wall-clock time, so throughput and tail
/// latency can be tracked — and gated — as a per-commit trajectory.
#[derive(Serialize)]
struct HistoryLine {
    unix_secs: u64,
    commit: Option<String>,
    bench: &'static str,
    fast: bool,
    jobs_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    submitted: u64,
    delivered: u64,
    canceled: u64,
    cancel_p99_ms: f64,
}

/// Appends the run's headline numbers as one JSON line to `path`.
fn append_history(path: &str, soak: &SoakReport) {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let line = HistoryLine {
        unix_secs: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        commit,
        bench: "soak",
        fast: soak.fast,
        jobs_per_s: soak.jobs_per_s,
        p50_ms: soak.p50_ms,
        p99_ms: soak.p99_ms,
        p999_ms: soak.p999_ms,
        submitted: soak.submitted,
        delivered: soak.delivered,
        canceled: soak.canceled,
        cancel_p99_ms: soak.cancel_p99_ms,
    };
    let json = serde_json::to_string(&line).expect("serialize history line");
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("open history file");
    writeln!(f, "{json}").expect("append history line");
}

/// The last `"bench":"soak"` history line matching this run's mode:
/// `(jobs_per_s, p99_ms, p999_ms)`.
fn prev_soak_line(path: &str, fast: bool) -> Option<(f64, f64, f64)> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut prev = None;
    for line in text.lines() {
        let Ok(v) = serde_json::parse_value(line) else {
            continue;
        };
        if !matches!(v.get("bench"), Some(Value::Str(b)) if b == "soak") {
            continue;
        }
        if !matches!(v.get("fast"), Some(Value::Bool(f)) if *f == fast) {
            continue;
        }
        let num = |k: &str| match v.get(k) {
            Some(Value::Float(f)) => Some(*f),
            Some(Value::UInt(n)) => Some(*n as f64),
            Some(Value::Int(n)) => Some(*n as f64),
            _ => None,
        };
        if let (Some(jps), Some(p99), Some(p999)) =
            (num("jobs_per_s"), num("p99_ms"), num("p999_ms"))
        {
            prev = Some((jps, p99, p999));
        }
    }
    prev
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |name: &str| args.iter().any(|a| a == name);
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let parse_or = |name: &str, default: f64| -> f64 {
        flag_value(name).map_or(default, |s| {
            s.parse()
                .unwrap_or_else(|_| panic!("{name} wants a number, got {s}"))
        })
    };
    let fast = has("--fast");
    let duration = Duration::from_secs_f64(parse_or("--duration-s", if fast { 5.0 } else { 30.0 }));
    let seed = parse_or("--seed", 2004.0) as u64;
    let clients = parse_or("--clients", 4.0) as usize;
    let workers = parse_or("--workers", 2.0) as usize;
    let net_chaos = has("--net-chaos");
    let fs_chaos = has("--fs-chaos");
    let out = flag_value("--out").unwrap_or_else(|| "BENCH_solver.json".to_string());
    let max_journal_bytes_per_job = parse_or("--max-journal-bytes-per-job", 8192.0);
    let max_rss_mb = parse_or("--max-rss-mb", 2048.0);
    let min_throughput = parse_or("--min-throughput", 0.0);
    let max_cancel_p99_ms = parse_or("--max-cancel-p99-ms", 2000.0);
    let history = if has("--no-history") {
        None
    } else {
        Some(flag_value("--history").unwrap_or_else(|| "BENCH_history.jsonl".to_string()))
    };
    // trajectory tolerance: jobs/s may drop to (1 - tol) of the previous
    // entry; p99/p999 may grow to (1 + 2*tol) of it. Generous by default
    // because CI machines vary.
    let regression_tolerance = parse_or("--regression-tolerance", 0.5).clamp(0.0, 0.95);
    let regression_gate = !has("--no-regression-gate");

    let scratch = std::env::temp_dir().join(format!("tce-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let journal_path = scratch.join("soak.journal");

    let mut net = NetFaultPlan::none();
    if net_chaos {
        net = net.with_seed(seed).probabilistic(0.04, NetFaultKind::Reset);
    }
    let mut fs = FsFaultPlan::none();
    if fs_chaos {
        fs = fs.with_seed(seed).probabilistic(0.05, FsFaultKind::Eio);
    }
    let server = Server::builder()
        .workers(workers)
        .max_conns(clients + 8)
        .idle_timeout(Some(Duration::from_secs(10)))
        .net_faults(net)
        .journal(Some(JournalConfig {
            path: journal_path.clone(),
            resume: false,
            faults: fs,
        }))
        .build();
    // capacity far above the stream's distinct-fingerprint count, so
    // LRU eviction can never force a legitimate re-solve and void the
    // exactly-once gate
    let cache = SynthesisCache::with_capacity(1 << 16);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let shutdown = AtomicBool::new(false);

    eprintln!(
        "bench_soak: {}s, {clients} client(s) x {workers} worker(s), net_chaos={net_chaos}, \
         fs_chaos={fs_chaos}, seed={seed}",
        duration.as_secs_f64()
    );

    let stop = AtomicBool::new(false);
    let max_rss_kb = AtomicU64::new(0);
    let cold_counter = AtomicU64::new(0);
    let timeout_counter = AtomicU64::new(0);
    let cancel_counter = AtomicU64::new(0);
    let started = Instant::now();

    let (tallies, daemon_stats, reconnects, retries, report) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            server
                .serve(listener, &cache, &shutdown)
                .expect("daemon run")
        });

        // peak-RSS sampler
        let rss = scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                max_rss_kb.fetch_max(sample_rss_kb(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(100));
            }
        });

        // the rude thread: submit-and-vanish connections (reports are
        // written to a dead socket; the daemon must shrug it off)
        let rude = scope.spawn(|| {
            let mut rank = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if let Ok(mut conn) = TcpStream::connect(addr) {
                    let spec = pool_spec(rank as usize % POOL, seed);
                    let _ = write_frame(&mut conn, &WireFrame::Job(JobRequest { id: 1, spec }));
                }
                rank += 1;
                std::thread::sleep(Duration::from_millis(250));
            }
        });

        let client_threads: Vec<_> = (0..clients)
            .map(|c| {
                let (cold_counter, timeout_counter, cancel_counter) =
                    (&cold_counter, &timeout_counter, &cancel_counter);
                scope.spawn(move || {
                    let retry = ClientRetry::with_attempts(8).with_seed(seed ^ (c as u64) << 7);
                    let mut client = Client::new(addr.to_string(), retry);
                    let mut tally = ClientTally::default();
                    // splitmix-style stream picking job classes
                    let mut state = seed
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(c as u64 + 1);
                    let mut step = || {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        state >> 33
                    };
                    while started.elapsed() < duration {
                        let roll = step() % 100;
                        if roll >= 90 {
                            // canceled class: a unique spec (own size and
                            // seed family) submitted fire-and-forget, then
                            // canceled — timing cancel-to-terminal
                            let i = cancel_counter.fetch_add(1, Ordering::Relaxed);
                            let spec = job("cancel", 72, 88, 300_000 + i, 64 * 1024);
                            let Ok(id) = client.submit_nowait(&spec) else {
                                // the write failed before a full frame
                                // landed: nothing was admitted
                                continue;
                            };
                            tally.submitted += 1;
                            let t0 = Instant::now();
                            let end = client.cancel(id).and_then(|_ack| client.await_report(id));
                            tally.cancel_lat_s.push(t0.elapsed().as_secs_f64());
                            tally.latencies_s.push(t0.elapsed().as_secs_f64());
                            match end {
                                Ok(r) if r.error_kind.as_deref() == Some("canceled") => {
                                    tally.canceled += 1;
                                }
                                Ok(r) => {
                                    // the solve won the race to the
                                    // terminal report
                                    if r.ok {
                                        tally.ok += 1;
                                    } else {
                                        tally.failed += 1;
                                    }
                                    if r.hit || r.joined {
                                        tally.hits += 1;
                                    }
                                }
                                // a torn connection tears down this
                                // sole-interest job server-side: it is
                                // canceled, just unobserved
                                Err(_) => tally.canceled += 1,
                            }
                            continue;
                        }
                        let spec = if roll < 45 {
                            // warm repeat
                            pool_spec(step() as usize % POOL, seed)
                        } else if roll < 58 {
                            // renamed duplicate: same fingerprint, new name
                            let mut s = pool_spec(step() as usize % POOL, seed);
                            s.name = format!("renamed-{c}-{}", tally.submitted);
                            s
                        } else if roll < 70 {
                            // sparse contraction network from the fixed
                            // network pool (warm after the first solve)
                            net_pool_spec(step() as usize % NET_POOL, seed)
                        } else if roll < 82 {
                            // unique cold spec (seed and mem both vary)
                            let i = cold_counter.fetch_add(1, Ordering::Relaxed);
                            job("cold", 64, 48, 100_000 + i, 64 * 1024 + 16 * i)
                        } else {
                            // tiny deadline: terminates as a solver
                            // timeout or is shed at pickup, on a distinct
                            // size family so its fingerprints never
                            // collide with the normal classes
                            let i = timeout_counter.fetch_add(1, Ordering::Relaxed);
                            let mut s = job("deadline", 96, 80, 200_000 + i, 64 * 1024);
                            s.timeout_ms = Some(1);
                            s
                        };
                        tally.submitted += 1;
                        let t0 = Instant::now();
                        match client.submit(&spec) {
                            Ok(r) => {
                                tally.latencies_s.push(t0.elapsed().as_secs_f64());
                                if r.ok {
                                    tally.ok += 1;
                                } else if r.error_kind.as_deref() == Some("deadline_exceeded") {
                                    tally.timeouts += 1;
                                } else {
                                    tally.failed += 1;
                                }
                                if r.hit || r.joined {
                                    tally.hits += 1;
                                }
                            }
                            Err(ClientError::DeadlineUnmeetable { .. }) => {
                                // deadline-aware admission shed the job
                                // before wasting a solve on it
                                tally.latencies_s.push(t0.elapsed().as_secs_f64());
                                tally.shed += 1;
                            }
                            Err(e) => panic!("client {c}: lost job after retries: {e}"),
                        }
                    }
                    (tally, client.reconnects(), client.retries())
                })
            })
            .collect();

        let mut tallies = Vec::new();
        let (mut reconnects, mut retries) = (0u64, 0u64);
        for t in client_threads {
            let (tally, rc, rt) = t.join().expect("client thread");
            tallies.push(tally);
            reconnects += rc;
            retries += rt;
        }
        stop.store(true, Ordering::Relaxed);
        rude.join().expect("rude thread");
        rss.join().expect("rss thread");

        // drain-wait: with the stream stopped, every admitted job must
        // reach a terminal report. A canceled solve that leaked its
        // worker slot would stall `completed` short of `admitted` here.
        let mut closer = Client::new(addr.to_string(), ClientRetry::with_attempts(8));
        let drain_start = Instant::now();
        let mut daemon_stats = closer.stats().expect("final stats");
        while daemon_stats.admitted != daemon_stats.completed
            && drain_start.elapsed() < Duration::from_secs(20)
        {
            std::thread::sleep(Duration::from_millis(50));
            daemon_stats = closer.stats().expect("final stats");
        }
        closer.shutdown().expect("shutdown");
        // under net chaos an injected close can reach the closer before
        // the daemon reads its shutdown frame, and the client takes EOF
        // as the drain's acknowledgement; the embedder's flag makes the
        // drain certain
        shutdown.store(true, Ordering::Relaxed);
        let report = handle.join().expect("daemon thread");
        (tallies, daemon_stats, reconnects, retries, report)
    });
    let wall = started.elapsed().as_secs_f64();

    let submitted: u64 = tallies.iter().map(|t| t.submitted).sum();
    let ok: u64 = tallies.iter().map(|t| t.ok).sum();
    let failed: u64 = tallies.iter().map(|t| t.failed).sum();
    let timeouts: u64 = tallies.iter().map(|t| t.timeouts).sum();
    let shed: u64 = tallies.iter().map(|t| t.shed).sum();
    let canceled: u64 = tallies.iter().map(|t| t.canceled).sum();
    let hits: u64 = tallies.iter().map(|t| t.hits).sum();
    let delivered = ok + failed + timeouts + shed + canceled;
    let mut cancel_lats: Vec<f64> = tallies
        .iter()
        .flat_map(|t| t.cancel_lat_s.clone())
        .collect();
    cancel_lats.sort_by(f64::total_cmp);
    let mut latencies: Vec<f64> = tallies.into_iter().flat_map(|t| t.latencies_s).collect();
    latencies.sort_by(f64::total_cmp);

    let distinct = POOL as u64
        + NET_POOL as u64
        + cold_counter.load(Ordering::Relaxed)
        + timeout_counter.load(Ordering::Relaxed)
        + cancel_counter.load(Ordering::Relaxed);
    let cache_stats = cache.stats();
    // the exactly-once invariant, from the cache every job (rude
    // connections included) runs through: a fingerprint whose solve
    // *succeeded* is never freshly solved again while its record is
    // resident — resends must hit the cache or join in flight. (Timed-out
    // and failed solves are not cached, so re-running those is correct;
    // the capacity above rules out eviction.)
    let double_executed = cache_stats.duplicate_solves;
    let journal_bytes = std::fs::metadata(&journal_path).map_or(0, |m| m.len());
    let daemon_jobs = report.summary.jobs.max(1);
    let journal_bytes_per_job = journal_bytes as f64 / daemon_jobs as f64;
    let rss_mb = max_rss_kb.load(Ordering::Relaxed) as f64 / 1024.0;
    let leaked_worker_slots = daemon_stats.admitted.saturating_sub(daemon_stats.completed);
    // an orphaned journal entry is an admitted index the drained journal
    // cannot account for: no done record, no cancel record
    let jstate = replay(&journal_path);
    let journal_orphans = jstate
        .specs
        .keys()
        .filter(|idx| !jstate.done.contains_key(idx) && !jstate.canceled.contains(idx))
        .count() as u64;

    let soak = SoakReport {
        schema: "tce-bench/soak/v1",
        fast,
        seed,
        duration_s: wall,
        clients,
        workers,
        net_chaos,
        fs_chaos,
        submitted,
        delivered,
        ok,
        failed,
        timeouts,
        shed,
        canceled,
        cancel_p99_ms: percentile(&cancel_lats, 99.0) * 1e3,
        hit_rate: hits as f64 / submitted.max(1) as f64,
        distinct_fingerprints: distinct,
        solver_misses: cache_stats.misses,
        double_executed,
        jobs_per_s: delivered as f64 / wall.max(1e-9),
        p50_ms: percentile(&latencies, 50.0) * 1e3,
        p99_ms: percentile(&latencies, 99.0) * 1e3,
        p999_ms: percentile(&latencies, 99.9) * 1e3,
        daemon_jobs: report.summary.jobs,
        daemon_conns_total: daemon_stats.conns_total,
        daemon_evicted: daemon_stats.evicted,
        daemon_overloaded: daemon_stats.overloaded,
        daemon_canceled: daemon_stats.canceled,
        daemon_deadline_shed: daemon_stats.deadline_shed,
        leaked_worker_slots,
        journal_orphans,
        client_reconnects: reconnects,
        client_retries: retries,
        journal_bytes,
        journal_bytes_per_job,
        max_rss_mb: rss_mb,
    };
    merge_into(&out, &soak);
    // read the previous trajectory entry before appending this run, then
    // record unconditionally: failing runs belong in the history too
    let prev = history
        .as_deref()
        .and_then(|path| prev_soak_line(path, fast));
    if let Some(path) = &history {
        append_history(path, &soak);
    }
    eprintln!(
        "bench_soak: {delivered}/{submitted} delivered in {wall:.1}s ({:.1} jobs/s), \
         {ok} ok / {failed} failed / {timeouts} timeouts / {shed} shed / {canceled} canceled, \
         hit rate {:.2}",
        soak.jobs_per_s, soak.hit_rate
    );
    eprintln!(
        "bench_soak: p50 {:.1}ms p99 {:.1}ms p999 {:.1}ms, cancel p99 {:.1}ms, {} reconnects, \
         {} retries, {} evicted, journal {:.0} B/job, peak RSS {:.0} MB -> {out} (soak key)",
        soak.p50_ms,
        soak.p99_ms,
        soak.p999_ms,
        soak.cancel_p99_ms,
        reconnects,
        retries,
        daemon_stats.evicted,
        journal_bytes_per_job,
        rss_mb
    );
    let _ = std::fs::remove_dir_all(&scratch);

    // the gates
    let mut violations = Vec::new();
    if delivered != submitted {
        violations.push(format!(
            "lost jobs: {submitted} submitted, {delivered} delivered"
        ));
    }
    if failed > 0 {
        violations.push(format!("{failed} jobs failed outright"));
    }
    if double_executed > 0 {
        violations.push(format!(
            "double-execution: {double_executed} fresh solve(s) repeated work the cache already held"
        ));
    }
    if report.summary.jobs != report.summary.ok + report.summary.failed {
        violations.push("daemon report has non-terminal jobs".to_string());
    }
    if leaked_worker_slots > 0 {
        violations.push(format!(
            "{leaked_worker_slots} admitted job(s) never reached a terminal report \
             (leaked worker slots)"
        ));
    }
    if journal_orphans > 0 && !fs_chaos {
        violations.push(format!(
            "{journal_orphans} journal entr(ies) admitted without a done or cancel record"
        ));
    }
    if canceled > 0 && soak.cancel_p99_ms > max_cancel_p99_ms {
        violations.push(format!(
            "time-to-cancel p99 {:.1}ms exceeds {max_cancel_p99_ms:.0}ms",
            soak.cancel_p99_ms
        ));
    }
    if journal_bytes_per_job > max_journal_bytes_per_job {
        violations.push(format!(
            "journal growth {journal_bytes_per_job:.0} B/job exceeds {max_journal_bytes_per_job:.0}"
        ));
    }
    if rss_mb > max_rss_mb {
        violations.push(format!(
            "peak RSS {rss_mb:.0} MB exceeds {max_rss_mb:.0} MB"
        ));
    }
    if min_throughput > 0.0 && soak.jobs_per_s < min_throughput {
        violations.push(format!(
            "throughput {:.1} jobs/s below required {min_throughput:.1}",
            soak.jobs_per_s
        ));
    }
    if regression_gate {
        if let Some((prev_jps, prev_p99, prev_p999)) = prev {
            let floor = prev_jps * (1.0 - regression_tolerance);
            let grow = 1.0 + 2.0 * regression_tolerance;
            if soak.jobs_per_s < floor {
                violations.push(format!(
                    "throughput regression: {:.1} jobs/s < {floor:.1} \
                     ({:.0}% of previous {prev_jps:.1})",
                    soak.jobs_per_s,
                    (1.0 - regression_tolerance) * 100.0
                ));
            }
            if prev_p99 > 0.0 && soak.p99_ms > prev_p99 * grow {
                violations.push(format!(
                    "p99 regression: {:.1}ms > {:.1}ms ({grow:.1}x previous {prev_p99:.1}ms)",
                    soak.p99_ms,
                    prev_p99 * grow
                ));
            }
            if prev_p999 > 0.0 && soak.p999_ms > prev_p999 * grow {
                violations.push(format!(
                    "p999 regression: {:.1}ms > {:.1}ms ({grow:.1}x previous {prev_p999:.1}ms)",
                    soak.p999_ms,
                    prev_p999 * grow
                ));
            }
        } else {
            eprintln!("bench_soak: no previous soak history entry; regression gate skipped");
        }
    }
    if violations.is_empty() {
        eprintln!("bench_soak: all gates passed");
    } else {
        for v in &violations {
            eprintln!("bench_soak: FAIL — {v}");
        }
        std::process::exit(1);
    }
}

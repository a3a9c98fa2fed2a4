//! Command-line entry of the benchmark:
//!
//! ```text
//! perfbench --workload <paper_cold|serve_warm|serve_cold> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human summary on stderr and, as the last line of stdout, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Exits 1 when any output check failed, 2 on bad arguments.

use perfbench::{run, Run, WORKLOADS};
use std::process::ExitCode;

fn parse_args(args: &[String]) -> Result<Run, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Run {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run_args = match parse_args(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = run(&run_args);
    eprintln!(
        "perfbench: {} seed {} trace {} on {} cpus: {} attempted, {} failed, error_rate {:.6}",
        run_args.workload,
        run_args.seed,
        run_args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for (name, value, unit) in &out.metrics {
        eprintln!("  {name:<40} {value:>16.6} {unit}");
    }
    for e in out.errors.iter().take(10) {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", out.json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! Repeatability of the benchmark's counts and the shape of its seeded
//! workloads.

use perfbench::stats::Outcome;
use perfbench::{run, Run, END_TO_END};

fn value(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .1
}

fn short(workload: &str, seed: u64, trace: bool) -> Outcome {
    let out = run(&Run {
        workload: workload.to_string(),
        seed,
        seconds: 0.3,
        trace,
    });
    assert!(out.correct(), "{workload} seed {seed}: {:?}", out.errors);
    out
}

/// At a fixed seed, the work counts of two short traced runs are
/// bit-identical: they depend on the inputs, never on timing.
#[test]
fn traced_counts_repeat_bit_for_bit() {
    let (a, b) = (short("paper_cold", 11, true), short("paper_cold", 11, true));
    for name in [
        "solver.evals",
        "core.model_vars",
        "core.model_constraints",
        "codegen.plan_ops",
        "exec.plan_io_s",
    ] {
        let (x, y) = (value(&a, name), value(&b, name));
        assert!(x > 0.0, "{name} is {x}");
        assert_eq!(x.to_bits(), y.to_bits(), "{name}: {x} vs {y}");
    }
}

/// A second seed gives other inputs of the same shape: every workload
/// still passes its output checks and reports every end-to-end metric.
#[test]
fn second_seed_keeps_the_workload_shape() {
    for workload in perfbench::WORKLOADS {
        for seed in [1, 2] {
            let out = short(workload, seed, false);
            for (name, unit) in END_TO_END {
                assert!(
                    value(&out, name) > 0.0,
                    "{workload} seed {seed}: {name} is 0"
                );
                assert!(out.metrics.iter().any(|m| m.0 == name && m.2 == unit));
            }
        }
    }
}

//! `BENCHMARK.json` lists exactly the metrics the benchmark reports.

use perfbench::{per_layer_schema, END_TO_END, WORKLOADS};
use serde::Value;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(entries) => &entries.iter().find(|(k, _)| k == key).expect(key).1,
        _ => panic!("{key}: not an object"),
    }
}

fn string(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        _ => panic!("not a string: {v:?}"),
    }
}

/// `(name, unit)` of every entry of a metric list.
fn names(v: &Value) -> Vec<(String, String)> {
    let Value::Seq(items) = v else {
        panic!("not a list")
    };
    items
        .iter()
        .map(|m| {
            (
                string(field(m, "name")).to_string(),
                string(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let json = serde_json::parse_value(&text).expect("valid JSON");

    let reported: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names(field(&json, "end_to_end")), reported);

    let reported: Vec<(String, String)> = per_layer_schema()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names(field(&json, "per_layer")), reported);

    let Value::Seq(workloads) = field(&json, "workloads") else {
        panic!("workloads: not a list")
    };
    let listed: Vec<&str> = workloads.iter().map(|w| string(field(w, "name"))).collect();
    assert_eq!(listed, WORKLOADS);
}

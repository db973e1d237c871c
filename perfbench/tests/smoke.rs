//! Smoke test at tiny scale: every workload runs, its result line names
//! every metric `BENCHMARK.json` declares with the declared unit, its
//! outputs check out, and a deliberately wrong reference digest makes the
//! checks fail.

use sd_perfbench::{run, Options, Report, Workload, WORKLOADS};
use serde::Value;
use std::path::PathBuf;
use std::process::Command;

/// Shrinks every workload's scale (preset A to 0.04, preset B to 0.05).
const TINY: f64 = 0.2;

fn options(w: Workload, trace: bool, wrong_reference: bool) -> Options {
    Options {
        workload: w,
        seed: 3,
        seconds: 0.01,
        trace,
        scale_mul: TINY,
        wrong_reference,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{}-{trace}-{wrong_reference}", w.name)),
    }
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = serde_json::parse(&text).expect("BENCHMARK.json parses");
    let str_of = |v: &Value, key: &str| match v.get_field(key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("{list} entry field {key}: {other:?}"),
    };
    doc.get_field(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|m| (str_of(m, "name"), str_of(m, "unit")))
        .collect()
}

/// `(name, unit, value)` of every metric in a result line, after checking
/// the line's top-level keys.
fn printed(report: &Report) -> Vec<(String, String, f64)> {
    let line = serde_json::parse(&report.to_json()).expect("result line parses");
    let Value::Map(top) = &line else {
        panic!("result line is not an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let Some(Value::Map(metrics)) = line.get_field("metrics") else {
        panic!("no metrics object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = match m.get_field("value") {
                Some(Value::F64(v)) => *v,
                Some(Value::I64(v)) => *v as f64,
                Some(Value::U64(v)) => *v as f64,
                other => panic!("{name}: value {other:?}"),
            };
            let Some(Value::Str(unit)) = m.get_field("unit") else {
                panic!("{name}: no unit")
            };
            (name.clone(), unit.clone(), value)
        })
        .collect()
}

fn assert_reports_exactly(report: &Report, list: &str, w: &str) {
    let got = printed(report);
    let names: Vec<(String, String)> = got.iter().map(|(n, u, _)| (n.clone(), u.clone())).collect();
    let mut want = declared(list);
    let mut have = names.clone();
    want.sort();
    have.sort();
    assert_eq!(
        have, want,
        "{w}: printed metrics differ from the {list} list"
    );
    for (name, _, value) in got {
        assert!(value.is_finite(), "{w}: {name} = {value}");
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in WORKLOADS {
        let report = run(&options(w, false, false));
        assert_eq!(report.failed, 0, "{}: {:?}", w.name, report.summary);
        assert!(report.attempted > 0);
        assert_reports_exactly(&report, "end_to_end", w.name);
        for m in &report.metrics {
            assert!(m.value > 0.0, "{}: {} = {}", w.name, m.name, m.value);
        }
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for w in WORKLOADS {
        let report = run(&options(w, true, false));
        assert_eq!(report.failed, 0, "{}: {:?}", w.name, report.summary);
        assert_reports_exactly(&report, "per_layer", w.name);
        for m in &report.metrics {
            if m.name != "trace.overhead_pct" {
                assert!(m.value >= 0.0, "{}: {} = {}", w.name, m.name, m.value);
            }
        }
        let count = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        assert!(
            count("checkpoint.count") > 0.0,
            "{}: no checkpoints",
            w.name
        );
        assert!(
            count("model.n_malformed") > 0.0,
            "{}: no corruptions",
            w.name
        );
    }
}

#[test]
fn a_wrong_reference_digest_fails_the_checks() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let report = run(&options(w, trace, true));
            assert!(
                report.fail_ratio() > 0.0,
                "{} (trace {trace}): wrong reference went unnoticed",
                w.name
            );
            assert!(!report.correct());
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "offline_a", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "offline_a",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sd-perfbench"))
            .args(args)
            .output()
            .expect("run the benchmark binary");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

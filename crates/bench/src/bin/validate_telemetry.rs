//! CI guard for the telemetry layer (see `.github/workflows/ci.yml`):
//!
//! * `--metrics FILE` — parse a Prometheus text-format snapshot written
//!   by `sdigest --metrics-out`, failing on any malformed line and on
//!   missing pipeline counters/spans;
//! * `--trace FILE` — validate every JSONL provenance record against the
//!   documented schema (event_id, n_messages, routers, templates, links,
//!   closed_by);
//! * `--overhead` — learn preset A ×0.08 once, then time the same
//!   one-thread digest with telemetry on and off, alternating which side
//!   runs first, over [`OVERHEAD_PAIRS`] pairs; fail when the median
//!   per-pair ratio (plain time ÷ instrumented time) is below
//!   [`OVERHEAD_FLOOR`], i.e. instrumentation costs more than ~5 %. Both
//!   sides run in one process, so host speed swings hit them alike;
//! * `--require-durability` — additionally require the durability
//!   counters (`sd_ckpt_n_corrupt`, `sd_ckpt_n_fallback`, and a
//!   quarantine counter) in the `--metrics` snapshot.
//!
//! Exits non-zero with a reason on the first violation.

use sd_model::Parallelism;
use sd_netsim::{Dataset, DatasetSpec};
use sd_telemetry::{validate_exposition, Telemetry};
use serde::Value;
use std::time::Instant;
use syslogdigest::offline::{learn, OfflineConfig};
use syslogdigest::{digest_instrumented, DomainKnowledge, GroupingConfig};

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        Value::I64(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn field_u64(v: &Value, name: &str) -> Option<u64> {
    v.get_field(name).and_then(as_u64)
}

/// Counters any digest run must have registered (batch or streaming).
const REQUIRED_ANY: &[&[&str]] = &[
    &["sd_digest_n_input", "sd_stream_n_input"],
    &["sd_digest_n_events", "sd_stream_n_events"],
];

/// Counters a durability-exercising run (`--require-durability`) must
/// also expose: checkpoint recovery health and the quarantine count.
const REQUIRED_DURABILITY: &[&[&str]] = &[
    &["sd_ckpt_n_corrupt"],
    &["sd_ckpt_n_fallback"],
    &["sd_stream_n_quarantined", "sd_digest_n_quarantined"],
];

fn fail(msg: &str) -> ! {
    eprintln!("validate_telemetry: FAIL: {msg}");
    std::process::exit(1);
}

fn check_metrics(path: &str, require_durability: bool) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("reading {path}: {e}")));
    let n = validate_exposition(&text)
        .unwrap_or_else(|e| fail(&format!("{path} is not valid exposition: {e}")));
    if n == 0 {
        fail(&format!("{path} contains no samples"));
    }
    let mut required: Vec<&[&str]> = REQUIRED_ANY.to_vec();
    if require_durability {
        required.extend(REQUIRED_DURABILITY);
    }
    for group in required {
        if !group
            .iter()
            .any(|name| text.lines().any(|l| l.starts_with(name)))
        {
            fail(&format!("{path} has none of the counters {group:?}"));
        }
    }
    if !text.contains("sd_span_seconds_total") {
        fail(&format!("{path} has no span timings"));
    }
    println!("ok: {path} — {n} samples, required counters and spans present");
}

/// One provenance record must carry these fields with these JSON types.
fn check_trace_record(line_no: usize, v: &Value) {
    let ctx = |field: &str| format!("trace line {line_no}: bad or missing {field:?}");
    let id = field_u64(v, "event_id").unwrap_or_else(|| fail(&ctx("event_id")));
    if id == 0 {
        fail(&format!("trace line {line_no}: event_id must be >= 1"));
    }
    if field_u64(v, "n_messages").unwrap_or_else(|| fail(&ctx("n_messages"))) == 0 {
        fail(&format!("trace line {line_no}: n_messages must be >= 1"));
    }
    let routers = v
        .get_field("routers")
        .and_then(Value::as_array)
        .unwrap_or_else(|| fail(&ctx("routers")));
    if routers.is_empty() || !routers.iter().all(|r| as_str(r).is_some()) {
        fail(&ctx("routers"));
    }
    let templates = v
        .get_field("templates")
        .and_then(Value::as_array)
        .unwrap_or_else(|| fail(&ctx("templates")));
    for t in templates {
        if field_u64(t, "id").is_none()
            || t.get_field("signature").and_then(as_str).is_none()
            || field_u64(t, "members").is_none()
        {
            fail(&ctx("templates[]"));
        }
    }
    let links = v.get_field("links").unwrap_or_else(|| fail(&ctx("links")));
    for stage in ["temporal", "rule", "cross"] {
        if field_u64(links, stage).is_none() {
            fail(&ctx("links"));
        }
    }
    match v.get_field("closed_by").and_then(as_str) {
        Some("batch" | "idle" | "force_closed" | "finish") => {}
        _ => fail(&ctx("closed_by")),
    }
}

fn check_trace(path: &str) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("reading {path}: {e}")));
    let mut n = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value = serde_json::parse(line)
            .unwrap_or_else(|e| fail(&format!("trace line {}: not JSON: {e}", i + 1)));
        check_trace_record(i + 1, &v);
        n += 1;
    }
    if n == 0 {
        fail(&format!("{path} contains no trace records"));
    }
    println!("ok: {path} — {n} provenance records match the schema");
}

/// Preset-A scale the overhead check learns and digests.
const OVERHEAD_SCALE: f64 = 0.08;
/// Timed (telemetry on, telemetry off) digest pairs.
const OVERHEAD_PAIRS: usize = 41;
/// Lowest median `plain ÷ instrumented` time ratio that passes.
const OVERHEAD_FLOOR: f64 = 0.95;

/// The overhead verdict over `(plain secs, instrumented secs)` pairs:
/// `Ok(median ratio)` when the median of `plain ÷ instrumented` is at
/// least [`OVERHEAD_FLOOR`], `Err(median ratio)` otherwise.
fn overhead_verdict(pairs: &[(f64, f64)]) -> Result<f64, f64> {
    let mut ratios: Vec<f64> = pairs.iter().map(|&(plain, inst)| plain / inst).collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    if median >= OVERHEAD_FLOOR {
        Ok(median)
    } else {
        Err(median)
    }
}

/// Wall time of one one-thread digest of `online` with `tel` attached.
fn time_digest(k: &DomainKnowledge, online: &[sd_model::RawMessage], tel: &Telemetry) -> f64 {
    let gcfg = GroupingConfig {
        par: Parallelism::with_threads(1),
        ..GroupingConfig::default()
    };
    let t0 = Instant::now();
    std::hint::black_box(digest_instrumented(k, online, &gcfg, tel, false));
    t0.elapsed().as_secs_f64()
}

fn check_overhead() {
    let d = Dataset::generate(DatasetSpec::preset_a().scaled(OVERHEAD_SCALE));
    let k = learn(&d.configs, d.train(), &OfflineConfig::dataset_a());
    let online = d.online();
    let pairs: Vec<(f64, f64)> = (0..OVERHEAD_PAIRS)
        .map(|i| {
            // A fresh registry per run, as each `sdigest` run has.
            let on = Telemetry::new();
            let off = Telemetry::disabled();
            if i % 2 == 0 {
                let plain = time_digest(&k, online, &off);
                (plain, time_digest(&k, online, &on))
            } else {
                let inst = time_digest(&k, online, &on);
                (time_digest(&k, online, &off), inst)
            }
        })
        .collect();
    let verdict = overhead_verdict(&pairs);
    let (Ok(ratio) | Err(ratio)) = verdict;
    println!(
        "overhead: {} msgs, {OVERHEAD_PAIRS} pairs, median plain/instrumented \
         time ratio {ratio:.3} (floor {OVERHEAD_FLOOR})",
        online.len()
    );
    if verdict.is_err() {
        fail(&format!(
            "telemetry overhead too high: median ratio {ratio:.3} is below {OVERHEAD_FLOOR}"
        ));
    }
}

/// What to validate, from the command line.
#[derive(Debug, Default, PartialEq)]
struct Opts {
    metrics: Option<String>,
    trace: Option<String>,
    overhead: bool,
    require_durability: bool,
}

/// Strict parse: an unknown argument, a `--metrics`/`--trace` with no
/// value, or a value after a bare flag is an error.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut args = args.into_iter().peekable();
    while let Some(a) = args.next() {
        let mut value = || {
            args.next_if(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{a} needs a value"))
        };
        match a.as_str() {
            "--metrics" => o.metrics = Some(value()?),
            "--trace" => o.trace = Some(value()?),
            "--overhead" => o.overhead = true,
            "--require-durability" => o.require_durability = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.metrics.is_none() && o.trace.is_none() && !o.overhead {
        return Err("nothing to validate: pass --metrics, --trace, and/or --overhead".to_owned());
    }
    Ok(o)
}

fn main() {
    let o = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!(
            "validate_telemetry: {e}\n\
             usage: validate_telemetry [--metrics FILE [--require-durability]] \
             [--trace FILE] [--overhead]"
        );
        std::process::exit(2);
    });
    if let Some(p) = &o.metrics {
        check_metrics(p, o.require_durability);
    }
    if let Some(p) = &o.trace {
        check_trace(p);
    }
    if o.overhead {
        check_overhead();
    }
    println!("validate_telemetry: all checks passed");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_timings_pass() {
        let pairs = vec![(0.10, 0.10); OVERHEAD_PAIRS];
        assert_eq!(overhead_verdict(&pairs), Ok(1.0));
    }

    #[test]
    fn ten_percent_slower_instrumented_side_fails() {
        let pairs = vec![(0.10, 0.11); OVERHEAD_PAIRS];
        assert!(overhead_verdict(&pairs).is_err());
    }

    #[test]
    fn verdict_reads_the_median_not_the_outliers() {
        // A few wild pairs in either direction leave the median alone.
        let mut pairs = vec![(0.10, 0.10); OVERHEAD_PAIRS];
        pairs[0] = (0.10, 0.50);
        pairs[1] = (0.50, 0.10);
        assert_eq!(overhead_verdict(&pairs), Ok(1.0));
    }

    fn args(a: &[&str]) -> Result<Opts, String> {
        parse_args(a.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_every_check() {
        let o = args(&[
            "--metrics",
            "m.prom",
            "--require-durability",
            "--trace",
            "t",
            "--overhead",
        ]);
        assert_eq!(
            o,
            Ok(Opts {
                metrics: Some("m.prom".to_owned()),
                trace: Some("t".to_owned()),
                overhead: true,
                require_durability: true,
            })
        );
    }

    #[test]
    fn rejects_unknown_arguments() {
        assert!(args(&["--overhead", "--baseline", "b.json"]).is_err());
    }

    #[test]
    fn rejects_a_value_option_without_its_value() {
        let e = args(&["--metrics", "--trace", "t.jsonl"]).unwrap_err();
        assert!(e.contains("--metrics needs a value"), "{e}");
        assert!(args(&["--trace"]).is_err());
    }

    #[test]
    fn rejects_a_value_after_a_bare_flag() {
        assert!(args(&["--overhead", "3"]).is_err());
    }

    #[test]
    fn rejects_an_empty_command_line() {
        assert!(args(&[]).is_err());
    }
}

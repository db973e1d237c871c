//! The repository benchmark.
//!
//! One process, one producer, closed loop: the benchmark generates its
//! inputs with `sd-netsim` from the workload seed, then calls the
//! `syslogdigest` public API and times each call from outside. An
//! untraced run reports end-to-end metrics; a traced run
//! ([`profile`]) calls each layer's public functions separately inside
//! recorded spans and reports per-layer metrics. Every run checks the
//! program's outputs against references computed in the same process;
//! a mismatch or I/O error counts as a failed operation.
//!
//! A run's input is [`NETWORKS`] independently generated networks of the
//! workload's preset, so that one unusual network moves a run's figures
//! less than it would alone.
//!
//! See `README.md` beside this crate for the workload sheet.

pub mod profile;
pub mod stats;
pub mod trace;

use sd_conformance::golden::{partition_digest, rule_digest, template_digest};
use sd_model::{Parallelism, RawMessage};
use sd_netsim::{inject, Dataset, DatasetSpec, FaultSpec};
use std::path::{Path, PathBuf};
use std::time::Instant;
use syslogdigest::offline::{learn, OfflineConfig};
use syslogdigest::{
    digest, DomainKnowledge, FaultTolerantIngest, GroupingConfig, NetworkEvent, StreamConfig,
};
use trace::Tracer;

/// Dataset preset a workload generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// V1 ISP backbone (`DatasetSpec::preset_a`).
    A,
    /// V2 IPTV backbone (`DatasetSpec::preset_b`).
    B,
}

impl Preset {
    fn spec(self) -> DatasetSpec {
        match self {
            Preset::A => DatasetSpec::preset_a(),
            Preset::B => DatasetSpec::preset_b(),
        }
    }

    fn offline_config(self) -> OfflineConfig {
        match self {
            Preset::A => OfflineConfig::dataset_a(),
            Preset::B => OfflineConfig::dataset_b(),
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub preset: Preset,
    /// `DatasetSpec::scaled` factor of each network.
    pub scale: f64,
    /// Online period of each network in days.
    pub online_days: u32,
    /// Training messages used per network: a prefix of the training
    /// window, fixed so that every seed gives the same input size.
    pub n_train: usize,
    /// Online messages used per network: a prefix of the online window.
    pub n_online: usize,
    /// Stream the faulted online feed at one thread with checkpoints
    /// (`false`: batch learn and digest at default parallelism).
    pub stream: bool,
}

/// Independently generated networks per run.
pub const NETWORKS: usize = 4;
/// Feed lines per timed stream batch: a 50 s `ckpt_b` run then pushes 450
/// to 1 000 batches, mostly inside one band of the tail rule (p95) whether
/// the host runs fast or slow, and every second batch ends a checkpoint
/// interval.
pub const BATCH_LINES: usize = 5_000;
/// Reorder tolerance of the stream workload (bounded faults reorder by
/// at most 30 s).
pub const MAX_SKEW_SECS: i64 = 60;
/// The CLI's default `--checkpoint-every`.
pub const CKPT_EVERY: usize = 10_000;
/// Previous checkpoint generations kept by `save_rotated`.
pub const CKPT_KEEP: usize = 2;

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "offline_a",
        preset: Preset::A,
        scale: 0.2,
        online_days: 5,
        n_train: 65_000,
        n_online: 16_000,
        stream: false,
    },
    Workload {
        name: "ckpt_b",
        preset: Preset::B,
        scale: 0.25,
        online_days: 14,
        n_train: 70_000,
        n_online: 40_000,
        stream: true,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Multiplies the workload's scale and input sizes (1.0 for real
    /// runs; the smoke test shrinks inputs with it).
    pub scale_mul: f64,
    /// Replace every reference digest with a wrong one, so every checked
    /// operation must fail (the smoke test's negative control).
    pub wrong_reference: bool,
    /// Directory for checkpoints and the span file.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON result.
    pub summary: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; a value that could not be measured is
/// reported as -1.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_owned()
    }
}

/// Tally of checked operations.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, for the summary.
    pub first_failures: Vec<String>,
}

impl Checks {
    /// Count one operation, failed unless `ok`.
    pub fn op(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failures.len() < 5 {
                self.first_failures.push(what.to_owned());
            }
        }
    }
}

/// Digests of learned knowledge that every learn must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnowledgeDigest {
    pub templates: String,
    pub rules: String,
}

impl KnowledgeDigest {
    pub fn of(k: &DomainKnowledge) -> Self {
        KnowledgeDigest {
            templates: template_digest(k),
            rules: rule_digest(k),
        }
    }
}

/// A reference that no output can equal.
fn spoil(s: &mut String) {
    s.insert_str(0, "wrong-");
}

/// One generated network's inputs.
pub struct Network {
    /// Router configurations (location learning input).
    pub configs: Vec<String>,
    /// Training messages, time-sorted.
    pub train: Vec<RawMessage>,
    /// Online messages, time-sorted.
    pub online: Vec<RawMessage>,
    /// The online messages rendered as a bounded-fault feed.
    pub feed: Vec<String>,
    /// Lines the fault injector corrupted (the expected `n_malformed`).
    pub n_corrupt: usize,
    /// Knowledge learned at set-up (stream workloads only).
    pub knowledge: Option<DomainKnowledge>,
    /// Partition digest of the clean online feed streamed through the
    /// ingest layer (stream workloads only).
    pub clean_partition: Option<String>,
}

pub fn offline_config(w: &Workload, par: Parallelism) -> OfflineConfig {
    let mut cfg = w.preset.offline_config();
    cfg.par = par;
    cfg
}

pub fn grouping(par: Parallelism) -> GroupingConfig {
    GroupingConfig {
        par,
        ..GroupingConfig::default()
    }
}

/// Stream `lines` through a one-thread `FaultTolerantIngest`, returning
/// the partition digest. (`sd_conformance::golden::run_feed` does the same
/// at default parallelism, which fans out on every multi-message reorder
/// release and is several times slower; the partition is the same.)
pub fn stream_reference(k: &DomainKnowledge, lines: &[String]) -> String {
    let mut ing = FaultTolerantIngest::new(
        k,
        grouping(Parallelism::sequential()),
        StreamConfig::default(),
        MAX_SKEW_SECS,
    );
    let mut events = Vec::new();
    for l in lines {
        events.extend(ing.push_line(l));
    }
    events.extend(ing.finish().0);
    partition_digest(&events)
}

/// Dataset and fault seed of network `i` of a run seeded with `seed`.
fn network_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64)
}

/// Set up network `i`: generate its dataset, keep fixed-size prefixes of
/// its training and online windows, inject bounded faults into the online
/// prefix and, for stream workloads, learn the knowledge base and stream
/// the clean feed for the reference partition. The rest of the generated
/// dataset is dropped.
pub fn setup_network(
    w: &Workload,
    seed: u64,
    i: usize,
    scale_mul: f64,
    tr: &mut Tracer,
) -> Network {
    let seed = network_seed(seed, i);
    let root = tr.enter("setup");
    let mut spec = w.preset.spec().scaled(w.scale * scale_mul);
    spec.online_days = ((f64::from(w.online_days) * scale_mul) as u32).max(1);
    spec.seed = seed;
    let data = tr.span("netsim.generate", || Dataset::generate(spec));
    let prefix = |msgs: &[RawMessage], n: usize| {
        msgs[..msgs.len().min((n as f64 * scale_mul) as usize)].to_vec()
    };
    let train = prefix(data.train(), w.n_train);
    let online = prefix(data.online(), w.n_online);
    let configs = data.configs.clone();
    drop(data);
    let (feed, report) = tr.span("netsim.inject", || {
        inject(&online, &FaultSpec::bounded(seed))
    });
    let (knowledge, clean_partition) = if w.stream {
        let k = learn(&configs, &train, &offline_config(w, Parallelism::default()));
        let clean: Vec<String> = online.iter().map(RawMessage::to_line).collect();
        let partition = stream_reference(&k, &clean);
        (Some(k), Some(partition))
    } else {
        (None, None)
    };
    tr.exit(root);
    Network {
        configs,
        train,
        online,
        feed,
        n_corrupt: report.n_corrupted,
        knowledge,
        clean_partition,
    }
}

/// Set up every network of a run; returns them and the median set-up
/// time of one network.
fn setup(opts: &Options, tr: &mut Tracer) -> (Vec<Network>, f64) {
    let mut times = Vec::new();
    let mut nets = Vec::new();
    for i in 0..NETWORKS {
        let t = Instant::now();
        nets.push(setup_network(
            &opts.workload,
            opts.seed,
            i,
            opts.scale_mul,
            tr,
        ));
        times.push(t.elapsed().as_secs_f64());
    }
    (nets, stats::median(&times))
}

/// Run one workload invocation.
pub fn run(opts: &Options) -> Report {
    let mut checks = Checks::default();
    let mut tr = Tracer::new(opts.trace);
    let (nets, setup_s) = setup(opts, &mut tr);
    // Peak memory of the measured phase, not of the generator.
    let rss_reset = stats::reset_peak_rss();
    let total = |f: fn(&Network) -> usize| nets.iter().map(f).sum::<usize>();
    let mut summary = vec![format!(
        "workload {} seed {}: {} networks, {} train / {} online messages, \
         {} feed lines ({} corrupted); set-up {:.3} s per network (median); \
         {} hardware threads; peak RSS counted {}",
        opts.workload.name,
        opts.seed,
        nets.len(),
        total(|n| n.train.len()),
        total(|n| n.online.len()),
        total(|n| n.feed.len()),
        total(|n| n.n_corrupt),
        setup_s,
        Parallelism::default().threads,
        if rss_reset {
            "from the end of set-up"
        } else {
            "over the whole run"
        },
    )];
    let metrics = if opts.trace {
        profile::traced_run(opts, &nets, &mut tr, &mut checks, &mut summary)
    } else {
        let (throughput, latencies) = if opts.workload.stream {
            stream_run(opts, &nets, &mut checks, &mut summary)
        } else {
            offline_run(opts, &nets, &mut checks, &mut summary)
        };
        let p50 = stats::median(&latencies);
        let p75 = stats::percentile(&latencies, GATED_PERCENTILE);
        let (tail_p, tail) = stats::tail(&latencies);
        summary.push(format!(
            "latency p50 {p50:.3} ms, p{GATED_PERCENTILE} {p75:.3} ms, p{tail_p} {tail:.3} ms \
             over {} calls",
            latencies.len()
        ));
        vec![
            Metric {
                name: "throughput_per_s",
                unit: "msg/s",
                value: throughput,
            },
            Metric {
                name: "latency_p75_ms",
                unit: "ms",
                value: p75,
            },
            Metric {
                name: "setup_s",
                unit: "s",
                value: setup_s,
            },
            Metric {
                name: "peak_rss_mb",
                unit: "MB",
                value: stats::peak_rss_mb(),
            },
        ]
    };
    summary.push(format!(
        "fail_ratio {} ({} failed of {} checked operations){}",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted,
        if checks.first_failures.is_empty() {
            String::new()
        } else {
            format!("; first failures: {}", checks.first_failures.join("; "))
        }
    ));
    Report {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        summary,
    }
}

/// Percentile of a run's call times that the gated metrics report: the
/// upper quartile. A shared host alternates between a slow and a fast
/// speed, up to 1.6x apart on the 2-vCPU host the benchmark was tuned on,
/// in spells of seconds to minutes. Most runs spend at least a quarter of
/// their calls at the slow speed, so the upper quartile reads that speed,
/// where a median or a total moves with the share of the run that fast
/// spells happen to cover. See `README.md`, "Sizing and steadiness".
pub const GATED_PERCENTILE: f64 = 75.0;

/// Messages over the summed per-item [`GATED_PERCENTILE`] time: `times[i]`
/// are the timed calls on item `i` (a network), each over `sizes[i]`
/// messages.
fn gated_rate(sizes: &[usize], times: &[Vec<f64>]) -> f64 {
    let secs: f64 = times
        .iter()
        .map(|t| stats::percentile(t, GATED_PERCENTILE))
        .sum();
    sizes.iter().sum::<usize>() as f64 / secs
}

/// `offline_a`: rounds of `offline::learn` over every network's training
/// window, each followed by `pipeline::digest` calls over the networks'
/// online windows for half as long as the round's learning took, all at
/// default parallelism, until the measured time is used up. Checked
/// against a one-thread pass afterwards (thread invariance). Returns the
/// learn throughput (training messages over the summed per-network upper
/// quartile learn time) and the digest call latencies in ms.
fn offline_run(
    opts: &Options,
    nets: &[Network],
    checks: &mut Checks,
    summary: &mut Vec<String>,
) -> (f64, Vec<f64>) {
    let w = &opts.workload;
    let par = Parallelism::default();
    let cfg = offline_config(w, par);
    let gcfg = grouping(par);
    let n_train: Vec<usize> = nets.iter().map(|n| n.train.len()).collect();
    let n_online: Vec<usize> = nets.iter().map(|n| n.online.len()).collect();

    let mut rounds = 0usize;
    let mut digest_passes = 0usize;
    let mut learn_s_of: Vec<Vec<f64>> = vec![Vec::new(); nets.len()];
    let mut digest_s_of: Vec<Vec<f64>> = vec![Vec::new(); nets.len()];
    let mut learned: Vec<(usize, KnowledgeDigest)> = Vec::new();
    let mut digest_ms = Vec::new();
    let mut partitions: Vec<(usize, String)> = Vec::new();
    let t_run = Instant::now();
    while rounds == 0 || t_run.elapsed().as_secs_f64() < opts.seconds {
        let mut ks = Vec::with_capacity(nets.len());
        let mut learn_s = 0.0;
        for (i, n) in nets.iter().enumerate() {
            let t = Instant::now();
            let k = learn(&n.configs, &n.train, &cfg);
            let s = t.elapsed().as_secs_f64();
            learn_s += s;
            learn_s_of[i].push(s);
            learned.push((i, KnowledgeDigest::of(&k)));
            ks.push(k);
        }
        rounds += 1;

        let t_phase = Instant::now();
        while t_phase.elapsed().as_secs_f64() < learn_s / 2.0 {
            for (i, (n, k)) in nets.iter().zip(&ks).enumerate() {
                let t = Instant::now();
                let dg = digest(k, &n.online, &gcfg);
                let s = t.elapsed().as_secs_f64();
                digest_s_of[i].push(s);
                digest_ms.push(s * 1e3);
                partitions.push((i, partition_digest(&dg.events)));
            }
            digest_passes += 1;
        }
    }

    // One-thread reference pass.
    let seq = Parallelism::sequential();
    let mut want: Vec<(KnowledgeDigest, String)> = nets
        .iter()
        .map(|n| {
            let k1 = learn(&n.configs, &n.train, &offline_config(w, seq));
            let part = partition_digest(&digest(&k1, &n.online, &grouping(seq)).events);
            (KnowledgeDigest::of(&k1), part)
        })
        .collect();
    if opts.wrong_reference {
        for (k, part) in &mut want {
            spoil(&mut k.templates);
            spoil(part);
        }
    }
    for (i, got) in &learned {
        checks.op(
            "learn differs from the one-thread learn",
            *got == want[*i].0,
        );
    }
    for (i, got) in &partitions {
        checks.op(
            "digest differs from the one-thread digest",
            *got == want[*i].1,
        );
    }

    let learn_rate = gated_rate(&n_train, &learn_s_of);
    summary.push(format!(
        "learn_msgs_per_s {learn_rate:.0} ({rounds} rounds over {} networks, {} threads, \
         per-network upper quartile learn)",
        nets.len(),
        par.threads,
    ));
    summary.push(format!(
        "digest_msgs_per_s {:.0} ({digest_passes} digest passes over {} networks, \
         per-network upper quartile digest)",
        gated_rate(&n_online, &digest_s_of),
        nets.len(),
    ));
    (learn_rate, digest_ms)
}

/// Directory for a run's checkpoint files, under `out_dir`.
pub fn checkpoint_dir(opts: &Options, tag: &str) -> PathBuf {
    opts.out_dir.join(format!(
        "ckpt-{}-{}-{}",
        opts.workload.name,
        tag,
        std::process::id()
    ))
}

/// Lines between checkpoints: [`CKPT_EVERY`], shrunk with the inputs.
pub fn checkpoint_interval(opts: &Options) -> usize {
    ((CKPT_EVERY as f64 * opts.scale_mul) as usize).max(1)
}

/// Checkpoint file of network `i` in `dir`.
pub fn checkpoint_file(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("net{i}.ckpt"))
}

/// `ckpt_b`: every network's faulted feed through its own
/// `FaultTolerantIngest` at one thread in [`BATCH_LINES`]-line batches,
/// checkpointing with `save_rotated` every [`CKPT_EVERY`] lines, pass
/// after pass until the measured time is used up. Each feed
/// is checked against its clean-feed reference partition and injected
/// corruption count. Returns the line rate (feed lines over the summed
/// per-network upper quartile time of one feed, checkpoints included) and
/// the batch latencies in ms (checkpoints excluded).
fn stream_run(
    opts: &Options,
    nets: &[Network],
    checks: &mut Checks,
    summary: &mut Vec<String>,
) -> (f64, Vec<f64>) {
    let mut want: Vec<String> = nets
        .iter()
        .map(|n| n.clean_partition.clone().expect("stream set-up"))
        .collect();
    if opts.wrong_reference {
        want.iter_mut().for_each(spoil);
    }
    let dir = checkpoint_dir(opts, "e2e");
    let ckpt_every = checkpoint_interval(opts);
    checks.op(
        "cannot create the checkpoint directory",
        std::fs::create_dir_all(&dir).is_ok(),
    );
    let gcfg = grouping(Parallelism::sequential());
    let n_lines: Vec<usize> = nets.iter().map(|n| n.feed.len()).collect();

    let mut passes = 0usize;
    let mut feed_s_of: Vec<Vec<f64>> = vec![Vec::new(); nets.len()];
    let mut batch_ms = Vec::new();
    let mut stall_ms = Vec::new();
    let t_run = Instant::now();
    while passes == 0 || t_run.elapsed().as_secs_f64() < opts.seconds {
        for (i, n) in nets.iter().enumerate() {
            let t_feed = Instant::now();
            let k = n.knowledge.as_ref().expect("stream set-up learns");
            let ckpt = checkpoint_file(&dir, i);
            let mut ing = FaultTolerantIngest::new(k, gcfg, StreamConfig::default(), MAX_SKEW_SECS);
            let mut events: Vec<NetworkEvent> = Vec::new();
            let mut since_ckpt = 0usize;
            for batch in n.feed.chunks(BATCH_LINES) {
                let t = Instant::now();
                for line in batch {
                    events.extend(ing.push_line(line));
                }
                batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
                since_ckpt += batch.len();
                if since_ckpt >= ckpt_every {
                    since_ckpt = 0;
                    let t = Instant::now();
                    let saved = ing.checkpoint().save_rotated(&ckpt, CKPT_KEEP);
                    stall_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    checks.op("checkpoint save failed", saved.is_ok());
                }
            }
            let (rest, st) = ing.finish();
            events.extend(rest);
            feed_s_of[i].push(t_feed.elapsed().as_secs_f64());
            checks.op(
                "stream partition differs from the clean-feed reference",
                partition_digest(&events) == want[i],
            );
            checks.op(
                "malformed count differs from the injected corruptions",
                st.n_malformed == n.n_corrupt,
            );
        }
        passes += 1;
    }
    let _ = std::fs::remove_dir_all(&dir);

    let rate = gated_rate(&n_lines, &feed_s_of);
    let (tail_p, tail) = stats::tail(&batch_ms);
    summary.push(format!(
        "stream_lines_per_s {rate:.0} ({passes} passes over {} networks, 1 thread, \
         per-network upper quartile feed, checkpoints included)",
        nets.len()
    ));
    summary.push(format!(
        "batch_p50_ms {:.4}, batch_p{tail_p}_ms {tail:.4} ({} batches of {} lines, \
         checkpoints excluded)",
        stats::median(&batch_ms),
        batch_ms.len(),
        BATCH_LINES,
    ));
    if !stall_ms.is_empty() {
        summary.push(format!(
            "ckpt_stall_ms {:.3} (median of {} checkpoint() + save_rotated() calls)",
            stats::median(&stall_ms),
            stall_ms.len()
        ));
    }
    (rate, batch_ms)
}

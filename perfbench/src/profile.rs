//! The traced run: per-layer metrics.
//!
//! A profile pass calls each layer's public functions one by one inside
//! spans, in the order the system runs them, on every network of the run:
//! offline learning split into its stages, the batch digest split into its
//! stages, the ingest stack rebuilt from its parts
//! (`RawMessage::parse_line` → `ReorderBuffer` →
//! `StreamDigester::push_batch`, exactly what `FaultTolerantIngest` does
//! per line), and a checkpointing `FaultTolerantIngest` pass. Learning and
//! digest run at default parallelism (as in `offline_a`), the stream
//! layers at one thread (as in `ckpt_b`). Every workload
//! profiles every layer on its own inputs, so the per-layer metrics exist
//! for each workload; the workload sheet says which layers its untraced
//! run exercises.
//!
//! Passes run in pairs, one untraced and one traced, alternating which
//! goes first, until the measured time is used up; the difference of
//! their median wall times is the tracing overhead.

use crate::stats::median;
use crate::trace::Tracer;
use crate::{
    checkpoint_dir, checkpoint_file, checkpoint_interval, grouping, offline_config, spoil,
    stream_reference, Checks, KnowledgeDigest, Metric, Network, Options, BATCH_LINES, CKPT_KEEP,
    MAX_SKEW_SECS,
};
use sd_conformance::golden::partition_digest;
use sd_locations::{extract, LocationDictionary};
use sd_model::{Interner, Parallelism, ParseError, RawMessage, SyslogPlus};
use sd_rules::{mine, CoOccurrence, RuleSet};
use sd_templates::{learn_par, TokenScratch};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use syslogdigest::offline::{learn, mining_stream, temporal_series_par};
use syslogdigest::{
    augment_batch_isolated, build_event, digest, group, score_group, stage_edges, DomainKnowledge,
    FaultTolerantIngest, MergeCause, NetworkEvent, ReorderBuffer, StreamConfig, StreamDigester,
};

/// Spans written to the trace file at most (the summary covers all).
const MAX_WRITTEN_SPANS: usize = 100_000;

/// References one network's profile is checked against.
struct Refs {
    knowledge: KnowledgeDigest,
    batch_partition: String,
    clean_partition: String,
}

/// Counts of one traced pass: totals over the networks, except `max_*`
/// entries, which are maxima.
#[derive(Default)]
struct Counts(BTreeMap<&'static str, f64>);

impl Counts {
    fn add(&mut self, key: &'static str, v: usize) {
        *self.0.entry(key).or_insert(0.0) += v as f64;
    }

    fn max(&mut self, key: &'static str, v: usize) {
        let e = self.0.entry(key).or_insert(0.0);
        *e = e.max(v as f64);
    }
}

/// Per-layer timings reported as the median over traced passes of each
/// pass's summed span time: `(metric, span)`.
const PASS_LAYERS: [(&str, &str); 13] = [
    ("templates.learn_s", "templates.learn"),
    ("offline.history_s", "offline.history"),
    ("temporal.series_s", "temporal.series"),
    ("rules.count_s", "rules.count"),
    ("rules.mine_s", "rules.mine"),
    ("templates.match_s", "templates.match"),
    ("locations.extract_s", "locations.extract"),
    ("augment.batch_s", "augment.batch"),
    ("grouping.group_s", "grouping.group"),
    ("event.build_s", "event.build"),
    ("model.parse_s", "model.parse"),
    ("reorder.push_s", "reorder.push"),
    ("stream.push_batch_s", "stream.push_batch"),
];

/// Per-call timings reported as the median over every call: set-up
/// stages (one call per network set-up) and checkpoint stages (one call
/// per checkpoint). `(metric, span)`.
const CALL_LAYERS: [(&str, &str); 5] = [
    ("netsim.generate_s", "netsim.generate"),
    ("netsim.inject_s", "netsim.inject"),
    ("checkpoint.snapshot_s", "checkpoint.snapshot"),
    ("checkpoint.encode_s", "checkpoint.encode"),
    ("checkpoint.save_s", "checkpoint.save"),
];

/// Counts reported from the last traced pass: `(metric, unit)`.
const COUNTS: [(&str, &str); 15] = [
    ("templates.n_templates", "count"),
    ("rules.n_rules", "count"),
    ("grouping.edges_temporal", "count"),
    ("grouping.edges_rule", "count"),
    ("grouping.edges_cross", "count"),
    ("event.n_events", "count"),
    ("model.n_malformed", "count"),
    ("reorder.n_late", "count"),
    ("reorder.n_duplicate", "count"),
    ("reorder.max_buffered", "count"),
    ("reorder.multi_releases", "count"),
    ("stream.max_open_messages", "count"),
    ("stream.max_open_groups", "count"),
    ("checkpoint.count", "count"),
    ("checkpoint.bytes_max", "B"),
];

/// Durations of every call of span `name`, in seconds.
fn call_secs(tr: &Tracer, name: &str) -> Vec<f64> {
    tr.spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .collect()
}

/// Offline learning, stage by stage, as `offline::learn` runs it.
fn learn_layers(
    net: &Network,
    opts: &Options,
    par: Parallelism,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> DomainKnowledge {
    let cfg = offline_config(&opts.workload, par);
    let train = &net.train;
    let root = tr.enter("learn");
    let templates = tr.span("templates.learn", || learn_par(train, &cfg.learner, par));
    let mut fallback = Interner::new();
    for m in train {
        fallback.intern(m.code.as_str());
    }
    let dict = tr.span("locations.dict", || LocationDictionary::build(&net.configs));
    let temporal = cfg.fixed_temporal.unwrap_or_default();
    let k = DomainKnowledge::new(
        templates,
        fallback,
        dict,
        temporal,
        RuleSet::default(),
        cfg.window_secs,
        HashMap::new(),
    );
    let stream = tr.span("offline.history", || mining_stream(&k, train));
    black_box(tr.span("temporal.series", || temporal_series_par(&k, train, par)));
    let co = tr.span("rules.count", || {
        CoOccurrence::count_par(&stream, cfg.window_secs, par)
    });
    let rules = tr.span("rules.mine", || mine(&co, &cfg.mine));
    let mut freq: HashMap<(u32, u32), u64> = HashMap::new();
    for &(_, r, t) in &stream {
        *freq.entry((r.0, t.0)).or_insert(0) += 1;
    }
    let k = DomainKnowledge::new(
        k.templates,
        k.fallback_codes,
        k.dict,
        temporal,
        rules,
        cfg.window_secs,
        freq,
    );
    tr.exit(root);
    counts.add("templates.n_templates", k.templates.len());
    counts.add("rules.n_rules", k.rules.len());
    k
}

/// The batch digest over the online window, stage by stage, as
/// `pipeline::digest` runs it; template matching and location extraction
/// are also timed on their own over the same messages.
fn digest_layers(
    k: &DomainKnowledge,
    online: &[RawMessage],
    par: Parallelism,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Vec<NetworkEvent> {
    let gcfg = grouping(par);
    let root = tr.enter("digest");
    tr.span("templates.match", || {
        let mut scratch = TokenScratch::new();
        for m in online {
            black_box(k.resolve_template_with(&m.code, &m.detail, &mut scratch));
        }
    });
    tr.span("locations.extract", || {
        for m in online {
            black_box(extract(&k.dict, m));
        }
    });
    let iso = tr.span("augment.batch", || augment_batch_isolated(k, online, par));
    let batch: Vec<SyslogPlus> = iso.augmented.into_iter().flatten().collect();
    let g = tr.span("grouping.group", || group(k, &batch, &gcfg));
    let edges = tr.span("grouping.edges", || stage_edges(k, &batch, &gcfg));
    let events: Vec<NetworkEvent> = tr.span("event.build", || {
        g.members()
            .iter()
            .map(|m| build_event(k, &batch, m, score_group(k, &batch, m)))
            .collect()
    });
    tr.exit(root);
    for (_, _, cause) in &edges {
        counts.add(
            match cause {
                MergeCause::Temporal => "grouping.edges_temporal",
                MergeCause::Rule(..) => "grouping.edges_rule",
                MergeCause::Cross => "grouping.edges_cross",
            },
            1,
        );
    }
    counts.add("event.n_events", events.len());
    events
}

/// The ingest stack rebuilt from its public parts, one thread, fed the
/// faulted feed line by line in batches; returns the emitted events and
/// the malformed-line count.
fn stream_layers(
    k: &DomainKnowledge,
    feed: &[String],
    tr: &mut Tracer,
    counts: &mut Counts,
) -> (Vec<NetworkEvent>, usize) {
    let root = tr.enter("stream");
    let mut reorder = ReorderBuffer::new(MAX_SKEW_SECS);
    let mut dig = StreamDigester::with_config(
        k,
        grouping(Parallelism::sequential()),
        StreamConfig::default(),
    );
    let mut released: Vec<RawMessage> = Vec::new();
    let mut events = Vec::new();
    let mut n_malformed = 0usize;
    for batch in feed.chunks(BATCH_LINES) {
        let b = tr.enter("stream.batch");
        for line in batch {
            match tr.span("model.parse", || RawMessage::parse_line(line)) {
                Ok(m) => {
                    released.clear();
                    tr.span("reorder.push", || reorder.push(m, &mut released));
                    counts.add("reorder.multi_releases", usize::from(released.len() > 1));
                    counts.max("reorder.max_buffered", reorder.buffered());
                    events.extend(tr.span("stream.push_batch", || dig.push_batch(&released)));
                }
                Err(ParseError::Blank) => {}
                Err(_) => n_malformed += 1,
            }
        }
        tr.exit(b);
        counts.max("stream.max_open_messages", dig.open_messages());
        counts.max("stream.max_open_groups", dig.open_groups());
    }
    released.clear();
    reorder.flush(&mut released);
    events.extend(tr.span("stream.push_batch", || dig.push_batch(&released)));
    events.extend(tr.span("stream.finish", || dig.finish()));
    tr.exit(root);
    counts.add("model.n_malformed", n_malformed);
    counts.add("reorder.n_late", reorder.n_late.get() as usize);
    counts.add("reorder.n_duplicate", reorder.n_duplicate.get() as usize);
    (events, n_malformed)
}

/// A one-thread `FaultTolerantIngest` pass checkpointing with
/// `save_rotated` every [`checkpoint_interval`] lines; the snapshot is
/// also encoded on its own (`StreamSnapshot::to_json`, outside the stall).
fn checkpoint_layers(
    k: &DomainKnowledge,
    feed: &[String],
    opts: &Options,
    ckpt: &Path,
    tr: &mut Tracer,
    checks: &mut Checks,
    counts: &mut Counts,
) -> Vec<NetworkEvent> {
    let root = tr.enter("ckpt_stream");
    let mut ing = FaultTolerantIngest::new(
        k,
        grouping(Parallelism::sequential()),
        StreamConfig::default(),
        MAX_SKEW_SECS,
    );
    let every = checkpoint_interval(opts);
    let mut events = Vec::new();
    let mut since = 0usize;
    for batch in feed.chunks(BATCH_LINES) {
        for line in batch {
            events.extend(ing.push_line(line));
        }
        since += batch.len();
        if since < every {
            continue;
        }
        since = 0;
        let stall = tr.enter("checkpoint.stall");
        let snap = tr.span("checkpoint.snapshot", || ing.checkpoint());
        let saved = tr.span("checkpoint.save", || snap.save_rotated(ckpt, CKPT_KEEP));
        tr.exit(stall);
        black_box(tr.span("checkpoint.encode", || snap.to_json()).ok());
        checks.op("checkpoint save failed", saved.is_ok());
        counts.add("checkpoint.count", 1);
        if let Ok(meta) = std::fs::metadata(ckpt) {
            counts.max("checkpoint.bytes_max", meta.len() as usize);
        }
    }
    events.extend(tr.span("ckpt_stream.finish", || ing.finish()).0);
    tr.exit(root);
    events
}

/// One profile pass over every layer and network, checked against
/// `refs`; returns the pass's counts.
fn profile_pass(
    opts: &Options,
    nets: &[Network],
    refs: &[Refs],
    ckpt_dir: &Path,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Counts {
    let par = Parallelism::default();
    let mut counts = Counts::default();
    let root = tr.enter("pass");
    for (i, (net, r)) in nets.iter().zip(refs).enumerate() {
        let k = learn_layers(net, opts, par, tr, &mut counts);
        checks.op(
            "staged learn differs from the one-thread learn",
            KnowledgeDigest::of(&k) == r.knowledge,
        );
        let events = digest_layers(&k, &net.online, par, tr, &mut counts);
        checks.op(
            "staged digest differs from the one-thread digest",
            partition_digest(&events) == r.batch_partition,
        );
        let (events, n_malformed) = stream_layers(&k, &net.feed, tr, &mut counts);
        checks.op(
            "staged stream differs from the clean-feed reference",
            partition_digest(&events) == r.clean_partition && n_malformed == net.n_corrupt,
        );
        let ckpt = checkpoint_file(ckpt_dir, i);
        let events = checkpoint_layers(&k, &net.feed, opts, &ckpt, tr, checks, &mut counts);
        checks.op(
            "checkpointing stream differs from the clean-feed reference",
            partition_digest(&events) == r.clean_partition,
        );
    }
    tr.exit(root);
    counts
}

/// Run the traced invocation; `tr` already holds the set-up spans.
pub fn traced_run(
    opts: &Options,
    nets: &[Network],
    tr: &mut Tracer,
    checks: &mut Checks,
    summary: &mut Vec<String>,
) -> Vec<Metric> {
    let seq = Parallelism::sequential();

    // References, from a one-thread learn per network (`par.learn_1t_s`
    // is their total).
    let mut learn_1t_s = 0.0;
    let mut knowledge_1t = Vec::new();
    let mut refs = Vec::new();
    for net in nets {
        let t = Instant::now();
        let k1 = learn(
            &net.configs,
            &net.train,
            &offline_config(&opts.workload, seq),
        );
        learn_1t_s += t.elapsed().as_secs_f64();
        let clean_partition = match &net.clean_partition {
            Some(p) => p.clone(),
            None => {
                let clean: Vec<String> = net.online.iter().map(RawMessage::to_line).collect();
                stream_reference(&k1, &clean)
            }
        };
        let mut r = Refs {
            knowledge: KnowledgeDigest::of(&k1),
            batch_partition: partition_digest(&digest(&k1, &net.online, &grouping(seq)).events),
            clean_partition,
        };
        if opts.wrong_reference {
            spoil(&mut r.knowledge.rules);
            spoil(&mut r.batch_partition);
            spoil(&mut r.clean_partition);
        }
        if let Some(k) = &net.knowledge {
            checks.op(
                "set-up learn differs from the one-thread learn",
                KnowledgeDigest::of(k) == r.knowledge,
            );
        }
        refs.push(r);
        knowledge_1t.push(k1);
    }

    // The faulted feeds at default parallelism, no snapshots.
    let mut default_s = 0.0;
    let mut n_lines = 0usize;
    for ((net, k1), r) in nets.iter().zip(&knowledge_1t).zip(&refs) {
        let t = Instant::now();
        let mut ing = FaultTolerantIngest::new(
            k1,
            grouping(Parallelism::default()),
            StreamConfig::default(),
            MAX_SKEW_SECS,
        );
        let mut events = Vec::new();
        for line in &net.feed {
            events.extend(ing.push_line(line));
        }
        events.extend(ing.finish().0);
        default_s += t.elapsed().as_secs_f64();
        n_lines += net.feed.len();
        checks.op(
            "default-parallelism stream differs from the clean-feed reference",
            partition_digest(&events) == r.clean_partition,
        );
    }
    let stream_default_rate = n_lines as f64 / default_s;

    // Untraced/traced pass pairs.
    let dir = checkpoint_dir(opts, "trace");
    checks.op(
        "cannot create the checkpoint directory",
        std::fs::create_dir_all(&dir).is_ok(),
    );
    let mut counts = Counts::default();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let t_run = Instant::now();
    let mut pair = 0usize;
    while pair == 0 || t_run.elapsed().as_secs_f64() < opts.seconds {
        let traced_first = pair % 2 == 1;
        for traced in [traced_first, !traced_first] {
            let mut off = Tracer::new(false);
            let pass_tr = if traced { &mut *tr } else { &mut off };
            let t = Instant::now();
            let c = profile_pass(opts, nets, &refs, &dir, pass_tr, checks);
            let s = t.elapsed().as_secs_f64();
            if traced {
                traced_s.push(s);
                counts = c;
            } else {
                plain_s.push(s);
            }
        }
        pair += 1;
    }
    let _ = std::fs::remove_dir_all(&dir);
    let overhead_pct = (median(&traced_s) / median(&plain_s) - 1.0) * 100.0;

    let mut metrics = Vec::new();
    for (metric, span) in CALL_LAYERS {
        metrics.push(Metric {
            name: metric,
            unit: "s",
            value: median(&call_secs(tr, span)),
        });
    }
    for (metric, span) in PASS_LAYERS {
        metrics.push(Metric {
            name: metric,
            unit: "s",
            value: median(&tr.per_root_secs(span)),
        });
    }
    metrics.push(Metric {
        name: "checkpoint.stall_ms",
        unit: "ms",
        value: median(&call_secs(tr, "checkpoint.stall")) * 1e3,
    });
    for (metric, unit) in COUNTS {
        metrics.push(Metric {
            name: metric,
            unit,
            value: counts.0.get(metric).copied().unwrap_or(0.0),
        });
    }
    metrics.push(Metric {
        name: "par.learn_1t_s",
        unit: "s",
        value: learn_1t_s,
    });
    metrics.push(Metric {
        name: "par.stream_default_lines_per_s",
        unit: "line/s",
        value: stream_default_rate,
    });
    metrics.push(Metric {
        name: "trace.overhead_pct",
        unit: "%",
        value: overhead_pct,
    });
    metrics.push(Metric {
        name: "trace.spans",
        unit: "count",
        value: tr.spans().len() as f64,
    });

    let path = opts.out_dir.join(format!(
        "trace-{}-seed{}.jsonl",
        opts.workload.name, opts.seed
    ));
    let written = tr.write_jsonl(&path, MAX_WRITTEN_SPANS);
    checks.op("cannot write the span file", written.is_ok());
    summary.push(format!(
        "{} traced / {} untraced profile passes; tracing overhead {overhead_pct:.2} % \
         (median pass {:.3} s traced vs {:.3} s untraced); spans in {}",
        traced_s.len(),
        plain_s.len(),
        median(&traced_s),
        median(&plain_s),
        path.display()
    ));
    summary.push(format!(
        "{:<24} {:>8} {:>12} {:>12}",
        "span", "calls", "total_s", "self_s"
    ));
    for (name, st) in tr.by_name() {
        summary.push(format!(
            "{name:<24} {:>8} {:>12.6} {:>12.6}",
            st.calls,
            st.total_ns as f64 / 1e9,
            st.self_ns as f64 / 1e9
        ));
    }
    metrics
}

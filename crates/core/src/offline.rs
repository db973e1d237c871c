//! The offline domain-knowledge learning pipeline (left half of Figure 1):
//! signature identification → location extraction → signature matching /
//! location parsing of the historical data → temporal mining → rule
//! mining, producing a [`DomainKnowledge`] base.

use crate::augment::{augment, augment_with};
use crate::knowledge::DomainKnowledge;
use sd_locations::LocationDictionary;
use sd_model::{par_chunks, Interner, Parallelism, RawMessage, Timestamp};
use sd_rules::{mine, CoOccurrence, MineConfig, StreamItem};
use sd_telemetry::Telemetry;
use sd_templates::{learn_par as learn_templates_par, LearnerConfig, TokenScratch};
use sd_temporal::{calibrate_par, SeriesSet, TemporalConfig};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Offline learning configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OfflineConfig {
    /// Template learner knobs.
    pub learner: LearnerConfig,
    /// Rule mining thresholds.
    pub mine: MineConfig,
    /// Transaction / rule-grouping window W in seconds.
    pub window_secs: i64,
    /// α grid for temporal calibration (Figure 10).
    pub alphas: Vec<f64>,
    /// β grid for temporal calibration (Figure 11).
    pub betas: Vec<f64>,
    /// Relative-improvement knee for β selection.
    pub knee: f64,
    /// Skip the α/β sweeps and use `fixed_temporal` instead (the online
    /// experiments re-learn weekly and don't want to pay for sweeps).
    pub fixed_temporal: Option<TemporalConfig>,
    /// Worker threads for the offline passes (template learning, history
    /// augmentation, calibration sweeps, transaction counting). `threads
    /// == 1` takes the exact sequential code path; every thread count
    /// learns identical knowledge.
    #[serde(default)]
    pub par: Parallelism,
}

impl OfflineConfig {
    /// Table 6 defaults for dataset A (W = 120 s).
    pub fn dataset_a() -> Self {
        OfflineConfig {
            learner: LearnerConfig::default(),
            mine: MineConfig::default(),
            window_secs: 120,
            alphas: vec![0.0, 0.025, 0.05, 0.075, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
            betas: vec![2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
            knee: 0.03,
            fixed_temporal: Some(TemporalConfig::dataset_a()),
            par: Parallelism::default(),
        }
    }

    /// Table 6 defaults for dataset B (W = 40 s).
    pub fn dataset_b() -> Self {
        OfflineConfig {
            window_secs: 40,
            fixed_temporal: Some(TemporalConfig::dataset_b()),
            ..Self::dataset_a()
        }
    }

    /// Enable the calibration sweeps (slower; used by the Table 6
    /// experiment itself).
    #[must_use]
    pub fn with_calibration(mut self) -> Self {
        self.fixed_temporal = None;
        self
    }
}

/// Run offline learning over router configs and historical messages.
pub fn learn(configs: &[String], train: &[RawMessage], cfg: &OfflineConfig) -> DomainKnowledge {
    learn_instrumented(configs, train, cfg, &Telemetry::disabled())
}

/// [`learn`] with per-stage span timings and summary counters recorded
/// into `tel`. The learned knowledge is identical — telemetry is strictly
/// observational.
pub fn learn_instrumented(
    configs: &[String],
    train: &[RawMessage],
    cfg: &OfflineConfig,
    tel: &Telemetry,
) -> DomainKnowledge {
    // 1. Signature identification (parallel over per-code buckets).
    let templates = {
        let _g = tel.time("learn.templates");
        learn_templates_par(train, &cfg.learner, cfg.par)
    };

    // 2. Per-code fallbacks for online messages that match nothing.
    let mut fallback = Interner::new();
    for m in train {
        fallback.intern(m.code.as_str());
    }

    // 3. Location dictionary from configs.
    let dict = {
        let _g = tel.time("learn.locations");
        LocationDictionary::build(configs)
    };

    // Provisional knowledge for augmenting the historical data.
    let mut k = DomainKnowledge::new(
        templates,
        fallback,
        dict,
        cfg.fixed_temporal.unwrap_or_default(),
        sd_rules::RuleSet::default(),
        cfg.window_secs,
        HashMap::new(),
    );

    // 4. Augment history once (parallel over contiguous chunks); build the
    //    mining stream, the temporal series and the frequency table.
    let (stream, series, freq) = {
        let _g = tel.time("learn.history");
        history_pass(&k, train, cfg.par)
    };

    // 5. Temporal mining (Figures 10–11) unless fixed.
    let temporal = match cfg.fixed_temporal {
        Some(t) => t,
        None => {
            let _g = tel.time("learn.calibrate");
            let set: SeriesSet = series.into_values().collect();
            calibrate_par(&set, &cfg.alphas, &cfg.betas, cfg.knee, cfg.par)
        }
    };

    // 6. Rule mining (transaction counting parallel per router).
    let rules = {
        let _g = tel.time("learn.rules");
        let co = CoOccurrence::count_par(&stream, cfg.window_secs, cfg.par);
        mine(&co, &cfg.mine)
    };

    k.temporal = temporal;
    k.rules = rules;
    let templates = k.templates.clone();
    let fallback = k.fallback_codes.clone();
    let dict = k.dict.clone();
    tel.counter("learn.n_train").add(train.len() as u64);
    tel.counter("learn.n_templates").add(templates.len() as u64);
    tel.counter("learn.n_rules").add(k.rules.len() as u64);
    DomainKnowledge::new(
        templates,
        fallback,
        dict,
        temporal,
        k.rules,
        cfg.window_secs,
        freq,
    )
}

/// One augmented pass over time-sorted history: the mining stream, the
/// per-`(router, template, location)` timestamp series, and the
/// `(router, template)` frequency table.
///
/// Chunks are augmented independently (each with its own token scratch)
/// and merged in input order; the series map is a `BTreeMap` so that the
/// [`SeriesSet`] handed to calibration has a deterministic order (its
/// f64 ratio sums are order-sensitive). The result is identical for every
/// thread count.
#[allow(clippy::type_complexity)]
fn history_pass(
    k: &DomainKnowledge,
    msgs: &[RawMessage],
    par: Parallelism,
) -> (
    Vec<StreamItem>,
    BTreeMap<(u32, u32, u32), Vec<Timestamp>>,
    HashMap<(u32, u32), u64>,
) {
    let chunks = par_chunks(par, msgs, |start, chunk| {
        let mut stream: Vec<StreamItem> = Vec::with_capacity(chunk.len());
        let mut series: BTreeMap<(u32, u32, u32), Vec<Timestamp>> = BTreeMap::new();
        let mut freq: HashMap<(u32, u32), u64> = HashMap::new();
        let mut scratch = TokenScratch::new();
        for (off, m) in chunk.iter().enumerate() {
            let Some(sp) = augment_with(k, start + off, m, &mut scratch) else {
                continue;
            };
            let t = sp.template.expect("offline augmentation always assigns");
            stream.push((sp.ts, sp.router, t));
            *freq.entry((sp.router.0, t.0)).or_insert(0) += 1;
            let loc = sp.primary_location().map(|l| l.0).unwrap_or(u32::MAX);
            series
                .entry((sp.router.0, t.0, loc))
                .or_default()
                .push(sp.ts);
        }
        (stream, series, freq)
    });
    let mut stream: Vec<StreamItem> = Vec::with_capacity(msgs.len());
    let mut series: BTreeMap<(u32, u32, u32), Vec<Timestamp>> = BTreeMap::new();
    let mut freq: HashMap<(u32, u32), u64> = HashMap::new();
    for (cs, cser, cf) in chunks {
        stream.extend(cs);
        for (key, ts) in cser {
            series.entry(key).or_default().extend(ts);
        }
        for (key, n) in cf {
            *freq.entry(key).or_insert(0) += n;
        }
    }
    (stream, series, freq)
}

/// Build the `(ts, router, template)` mining stream from already-augmented
/// history — shared by the weekly-update experiments.
pub fn mining_stream(k: &DomainKnowledge, msgs: &[RawMessage]) -> Vec<StreamItem> {
    let mut stream = Vec::with_capacity(msgs.len());
    for (i, m) in msgs.iter().enumerate() {
        if let Some(sp) = augment(k, i, m) {
            stream.push((sp.ts, sp.router, sp.template.expect("assigned")));
        }
    }
    stream
}

/// Weekly knowledge refresh (§3.1: offline learning "will be periodically
/// run to incorporate the latest changes"): mine one new week of history
/// into the evolving rule base with the §4.1.4 conservative update, and
/// fold the week's signature frequencies into the scoring table, swapping
/// the refreshed rule set into the knowledge base.
pub fn refresh_weekly(
    k: &mut DomainKnowledge,
    base: &mut sd_rules::RuleBase,
    week: &[RawMessage],
    cfg: &MineConfig,
) -> sd_rules::UpdateStats {
    let stream = mining_stream(k, week);
    let mut freq: HashMap<(u32, u32), u64> = HashMap::new();
    for &(_, r, t) in &stream {
        *freq.entry((r.0, t.0)).or_insert(0) += 1;
    }
    k.merge_frequencies(freq);
    let co = CoOccurrence::count(&stream, k.window_secs);
    let stats = base.update(&co, cfg);
    k.rules = base.snapshot();
    stats
}

/// Build the per-`(router, template, location)` timestamp series the
/// temporal calibration sweeps over (Figures 10–11), with augmentation
/// parallel over chunks. Key-ordered, so the returned [`SeriesSet`] is
/// deterministic and identical for every `par`.
pub fn temporal_series_par(
    k: &DomainKnowledge,
    msgs: &[RawMessage],
    par: Parallelism,
) -> SeriesSet {
    history_pass(k, msgs, par).1.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_netsim::{Dataset, DatasetSpec};

    #[test]
    fn learn_builds_complete_knowledge() {
        let d = Dataset::generate(DatasetSpec::preset_a().scaled(0.1));
        let k = learn(&d.configs, d.train(), &OfflineConfig::dataset_a());
        assert!(k.templates.len() > 10, "templates {}", k.templates.len());
        assert!(!k.dict.is_empty());
        assert!(!k.rules.is_empty(), "expected some rules");
        assert_eq!(k.window_secs, 120);
        // Link flaps guarantee the LINK <-> LINEPROTO rule.
        let mut link = None;
        let mut proto = None;
        for (id, t) in k.templates.iter() {
            let m = t.masked();
            if m.starts_with("LINK-3-UPDOWN") && m.ends_with("down") {
                link = Some(id);
            }
            if m.starts_with("LINEPROTO-5-UPDOWN") && m.ends_with("down") {
                proto = Some(id);
            }
        }
        let (link, proto) = (link.expect("link template"), proto.expect("proto template"));
        assert!(
            k.rules.related(link, proto),
            "LINK<->LINEPROTO rule missing"
        );
    }

    #[test]
    fn weekly_refresh_updates_the_rule_base() {
        let d = Dataset::generate(DatasetSpec::preset_a().scaled(0.1));
        let mut k = learn(&d.configs, d.train(), &OfflineConfig::dataset_a());
        let mut base = sd_rules::RuleBase::new();
        let weeks = d.spec.train_days.div_ceil(7);
        let mut last_total = 0usize;
        for w in 0..weeks {
            let stats = refresh_weekly(
                &mut k,
                &mut base,
                d.train_week(w),
                &OfflineConfig::dataset_a().mine,
            );
            assert_eq!(stats.total, base.len());
            last_total = stats.total;
        }
        assert!(last_total > 0, "no rules after weekly refresh");
        assert_eq!(k.rules.len(), last_total, "snapshot swapped in");
    }

    #[test]
    fn calibration_mode_produces_plausible_parameters() {
        let d = Dataset::generate(DatasetSpec::preset_a().scaled(0.08));
        let mut cfg = OfflineConfig::dataset_a().with_calibration();
        cfg.alphas = vec![0.0, 0.05, 0.2, 0.5];
        cfg.betas = vec![2.0, 5.0, 7.0];
        let k = learn(&d.configs, d.train(), &cfg);
        assert!(k.temporal.alpha <= 0.5);
        assert!((2.0..=7.0).contains(&k.temporal.beta));
    }
}

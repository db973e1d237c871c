//! Fault-tolerant ingest: the composition real deployments run.
//!
//! [`FaultTolerantIngest`] wires the full defensive stack in front of the
//! streaming digester:
//!
//! ```text
//! feed lines ──parse──► ReorderBuffer ──in-order──► StreamDigester ──► events
//!      │ malformed: count + sample       │ late/duplicate: count
//! ```
//!
//! * Lines that fail to parse are counted ([`IngestStats::n_malformed`])
//!   and the first few are kept with line numbers and reasons
//!   ([`FaultTolerantIngest::malformed_samples`]) so operators see *what*
//!   is wrong with a feed, not just that something is.
//! * Reordering within `max_skew_secs` is repaired, late arrivals and
//!   duplicates are counted and dropped (see [`crate::reorder`]).
//! * [`FaultTolerantIngest::checkpoint`] snapshots the digester *and* the
//!   reorder buffer together, so resume continues mid-skew-window without
//!   losing buffered messages.
//!
//! Within the configured bounds this layer is *exact*: a faulted feed
//! (bounded reordering, duplicates, corrupted lines) digests to the same
//! event partition as the clean feed — the fault-injection integration
//! tests assert exactly that, and that anything beyond the bounds only
//! moves counters, never panics.

use crate::checkpoint::{CheckpointError, IngestState, RecoveryReport, StreamSnapshot};
use crate::event::NetworkEvent;
use crate::grouping::GroupingConfig;
use crate::knowledge::DomainKnowledge;
use crate::provenance::EventProvenance;
use crate::reorder::ReorderBuffer;
use crate::stream::{StreamConfig, StreamDigester, StreamStats};
use sd_model::{ParseError, RawMessage};
use sd_telemetry::{Counter, Telemetry};

/// How many malformed lines to keep verbatim for diagnostics.
const MALFORMED_SAMPLES: usize = 5;

/// Combined counters of a fault-tolerant ingest run. Every way the layer
/// can degrade is observable here; a healthy feed keeps them all zero
/// except [`IngestStats::n_lines`] and [`StreamStats::n_input`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Feed lines consumed (including blank and malformed ones).
    pub n_lines: usize,
    /// Non-blank lines that failed to parse.
    pub n_malformed: usize,
    /// Messages dropped for arriving beyond the reorder tolerance.
    pub n_late: usize,
    /// Duplicate messages absorbed by the reorder buffer.
    pub n_duplicate: usize,
    /// Digester-level counters (`n_dropped`, `n_force_closed`, ...).
    pub digester: StreamStats,
}

/// Streaming digester wrapped with parsing, reorder repair, and
/// checkpointing over the whole composite (see the module docs).
pub struct FaultTolerantIngest<'k> {
    digester: StreamDigester<'k>,
    reorder: ReorderBuffer,
    n_lines: Counter,
    n_malformed: Counter,
    malformed_samples: Vec<(usize, String)>,
    /// Scratch for released messages, reused across pushes.
    released: Vec<RawMessage>,
}

impl<'k> FaultTolerantIngest<'k> {
    /// New ingest layer tolerating up to `max_skew_secs` of reordering.
    pub fn new(
        k: &'k DomainKnowledge,
        cfg: GroupingConfig,
        scfg: StreamConfig,
        max_skew_secs: i64,
    ) -> Self {
        Self::with_telemetry(k, cfg, scfg, max_skew_secs, &Telemetry::disabled())
    }

    /// [`new`](Self::new) with every stage counter and span registered in
    /// `tel` (`ingest.*` and `stream.*` names).
    pub fn with_telemetry(
        k: &'k DomainKnowledge,
        cfg: GroupingConfig,
        scfg: StreamConfig,
        max_skew_secs: i64,
        tel: &Telemetry,
    ) -> Self {
        FaultTolerantIngest {
            digester: StreamDigester::with_telemetry(k, cfg, scfg, tel),
            reorder: ReorderBuffer::with_telemetry(max_skew_secs, tel),
            n_lines: tel.counter("ingest.n_lines"),
            n_malformed: tel.counter("ingest.n_malformed"),
            malformed_samples: Vec::new(),
            released: Vec::new(),
        }
    }

    /// Enable or disable per-event provenance capture (see
    /// [`StreamDigester::set_trace`]).
    pub fn set_trace(&mut self, on: bool) {
        self.digester.set_trace(on);
    }

    /// Drain provenance records accumulated since the last call.
    pub fn take_provenance(&mut self) -> Vec<EventProvenance> {
        self.digester.take_provenance()
    }

    /// Feed one raw feed line: parse, repair ordering, digest. Blank
    /// lines are skipped silently; malformed ones are counted and
    /// sampled. Returns any events that became closable.
    pub fn push_line(&mut self, line: &str) -> Vec<NetworkEvent> {
        self.n_lines.inc();
        match RawMessage::parse_line(line) {
            Ok(m) => self.push_message(m),
            Err(ParseError::Blank) => Vec::new(),
            Err(e) => {
                self.n_malformed.inc();
                if self.malformed_samples.len() < MALFORMED_SAMPLES {
                    self.malformed_samples
                        .push((self.n_lines.get() as usize, e.to_string()));
                }
                Vec::new()
            }
        }
    }

    /// Feed one already-parsed message through the reorder buffer.
    pub fn push_message(&mut self, m: RawMessage) -> Vec<NetworkEvent> {
        self.released.clear();
        self.reorder.push(m, &mut self.released);
        self.digester.push_batch(&self.released)
    }

    /// Flush the reorder buffer and close every remaining group.
    pub fn finish(self) -> (Vec<NetworkEvent>, IngestStats) {
        let (events, stats, _, _) = self.finish_full();
        (events, stats)
    }

    /// [`finish`](Self::finish), also returning the provenance records of
    /// every event closed during the final flush (empty unless tracing
    /// was enabled via [`set_trace`](Self::set_trace)) and draining the
    /// quarantine records of messages whose augmentation panicked during
    /// the final reorder-buffer flush — the only records a caller that
    /// drains [`take_quarantined`](Self::take_quarantined) before
    /// finishing would otherwise lose.
    pub fn finish_full(
        mut self,
    ) -> (
        Vec<NetworkEvent>,
        IngestStats,
        Vec<EventProvenance>,
        Vec<crate::quarantine::QuarantineRecord>,
    ) {
        self.released.clear();
        self.reorder.flush(&mut self.released);
        let mut events = self.digester.push_batch(&self.released);
        let stats = self.stats();
        let quarantined = self.digester.take_quarantined();
        let (rest, prov) = self.digester.finish_traced();
        events.extend(rest);
        (events, stats, prov, quarantined)
    }

    /// Current counters (views over the registry-backed atomics).
    pub fn stats(&self) -> IngestStats {
        IngestStats {
            n_lines: self.n_lines.get() as usize,
            n_malformed: self.n_malformed.get() as usize,
            n_late: self.reorder.n_late.get() as usize,
            n_duplicate: self.reorder.n_duplicate.get() as usize,
            digester: self.digester.stats(),
        }
    }

    /// First few malformed lines as `(line number, reason)` — 1-based
    /// line numbers, reasons from [`ParseError`].
    pub fn malformed_samples(&self) -> &[(usize, String)] {
        &self.malformed_samples
    }

    /// Drain the quarantine records of messages whose augmentation
    /// panicked (see [`crate::quarantine`]); empty in a healthy run.
    pub fn take_quarantined(&mut self) -> Vec<crate::quarantine::QuarantineRecord> {
        self.digester.take_quarantined()
    }

    /// Messages currently held in the reorder buffer.
    pub fn buffered(&self) -> usize {
        self.reorder.buffered()
    }

    /// Snapshot digester *and* reorder-buffer state together.
    pub fn checkpoint(&self) -> StreamSnapshot {
        let mut buffered = Vec::new();
        self.reorder.export_buffered(&mut buffered);
        self.digester.checkpoint().with_ingest(IngestState {
            buffered,
            high: self.reorder.high_watermark_ts(),
            max_skew_secs: self.reorder.max_skew_secs(),
            n_lines: self.n_lines.get() as usize,
            n_malformed: self.n_malformed.get() as usize,
            n_late: self.reorder.n_late.get() as usize,
            n_duplicate: self.reorder.n_duplicate.get() as usize,
            malformed_samples: self.malformed_samples.clone(),
        })
    }

    /// Rebuild an ingest layer (digester + reorder buffer) from a
    /// snapshot taken by [`FaultTolerantIngest::checkpoint`].
    pub fn resume(
        k: &'k DomainKnowledge,
        snapshot: &StreamSnapshot,
    ) -> Result<Self, CheckpointError> {
        Self::resume_with_telemetry(k, snapshot, &Telemetry::disabled())
    }

    /// [`resume`](Self::resume) with counters and spans re-registered in
    /// `tel`; checkpointed counter values carry over.
    pub fn resume_with_telemetry(
        k: &'k DomainKnowledge,
        snapshot: &StreamSnapshot,
        tel: &Telemetry,
    ) -> Result<Self, CheckpointError> {
        let digester = StreamDigester::resume_with_telemetry(k, snapshot, tel)?;
        let Some(ing) = &snapshot.ingest else {
            return Err(CheckpointError::Corrupt(
                "snapshot carries no ingest-layer state".to_owned(),
            ));
        };
        let reorder = ReorderBuffer::restore_with(
            ing.max_skew_secs,
            ing.high,
            ing.buffered.iter().cloned(),
            ing.n_late,
            ing.n_duplicate,
            tel,
        );
        let n_lines = tel.counter("ingest.n_lines");
        n_lines.set(ing.n_lines as u64);
        let n_malformed = tel.counter("ingest.n_malformed");
        n_malformed.set(ing.n_malformed as u64);
        Ok(FaultTolerantIngest {
            digester,
            reorder,
            n_lines,
            n_malformed,
            malformed_samples: ing.malformed_samples.clone(),
            released: Vec::new(),
        })
    }

    /// Resume from the newest verifiable checkpoint generation of `path`
    /// (see [`StreamSnapshot::recover_last_good`]), without telemetry.
    pub fn recover(
        k: &'k DomainKnowledge,
        path: &std::path::Path,
        keep: usize,
    ) -> Result<Option<(Self, RecoveryReport)>, CheckpointError> {
        Self::recover_with_telemetry(k, path, keep, &Telemetry::disabled())
    }

    /// [`recover`](Self::recover) with telemetry: registers and updates
    /// the durability counters — `ckpt.n_corrupt` (generations that
    /// existed but failed verification) and `ckpt.n_fallback` (1 when an
    /// older generation had to be used). The counters are registered
    /// even when no checkpoint exists yet, so a checkpointing run always
    /// exports them (at 0 in the healthy case).
    pub fn recover_with_telemetry(
        k: &'k DomainKnowledge,
        path: &std::path::Path,
        keep: usize,
        tel: &Telemetry,
    ) -> Result<Option<(Self, RecoveryReport)>, CheckpointError> {
        let n_corrupt = tel.counter("ckpt.n_corrupt");
        let n_fallback = tel.counter("ckpt.n_fallback");
        match StreamSnapshot::recover_last_good(path, keep)? {
            None => Ok(None),
            Some((snapshot, report)) => {
                n_corrupt.add(report.n_corrupt as u64);
                if report.generation > 0 {
                    n_fallback.inc();
                }
                let ingest = Self::resume_with_telemetry(k, &snapshot, tel)?;
                Ok(Some((ingest, report)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::{learn, OfflineConfig};
    use sd_netsim::{Dataset, DatasetSpec};

    fn setup() -> (Dataset, DomainKnowledge) {
        let d = Dataset::generate(DatasetSpec::preset_a().scaled(0.08));
        let k = learn(&d.configs, d.train(), &OfflineConfig::dataset_a());
        (d, k)
    }

    #[test]
    fn malformed_lines_are_counted_and_sampled_with_reasons() {
        let (_, k) = setup();
        let mut ing =
            FaultTolerantIngest::new(&k, GroupingConfig::default(), StreamConfig::default(), 30);
        ing.push_line("");
        ing.push_line("2010-01-10 00:00:15 r1"); // truncated
        ing.push_line("garbage line here entirely");
        let stats = ing.stats();
        assert_eq!(stats.n_lines, 3);
        assert_eq!(stats.n_malformed, 2); // blank is not malformed
        let samples = ing.malformed_samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].0, 2);
        assert_eq!(samples[0].1, "truncated line: missing code");
        assert_eq!(samples[1].0, 3);
        assert_eq!(samples[1].1, "malformed timestamp");
    }

    #[test]
    fn line_ingest_equals_message_ingest_on_a_clean_feed() {
        let (d, k) = setup();
        let online = d.online();
        let n = online.len().min(3000);

        let mut by_line =
            FaultTolerantIngest::new(&k, GroupingConfig::default(), StreamConfig::default(), 30);
        let mut e1 = Vec::new();
        for m in &online[..n] {
            e1.extend(by_line.push_line(&m.to_line()));
        }
        let (rest, stats) = by_line.finish();
        e1.extend(rest);
        assert_eq!(stats.n_malformed, 0);
        assert_eq!(stats.n_late, 0);

        let mut by_msg =
            FaultTolerantIngest::new(&k, GroupingConfig::default(), StreamConfig::default(), 30);
        let mut e2 = Vec::new();
        for m in &online[..n] {
            e2.extend(by_msg.push_message(m.clone()));
        }
        let (rest, _) = by_msg.finish();
        e2.extend(rest);

        let norm = |evs: &[NetworkEvent]| {
            let mut v: Vec<String> = evs
                .iter()
                .map(|e| format!("{:?}", e.message_idxs))
                .collect();
            v.sort();
            v
        };
        assert_eq!(norm(&e1), norm(&e2));
    }

    #[test]
    fn checkpoint_resume_through_the_ingest_layer_is_exact() {
        let (d, k) = setup();
        let online = d.online();
        let n = online.len().min(4000);
        let cut = n / 2;

        fn mk(k: &DomainKnowledge) -> FaultTolerantIngest<'_> {
            FaultTolerantIngest::new(k, GroupingConfig::default(), StreamConfig::default(), 30)
        }

        let mut whole = mk(&k);
        let mut e1 = Vec::new();
        for m in &online[..n] {
            e1.extend(whole.push_message(m.clone()));
        }
        let (rest, s1) = whole.finish();
        e1.extend(rest);

        let mut first = mk(&k);
        let mut e2 = Vec::new();
        for m in &online[..cut] {
            e2.extend(first.push_message(m.clone()));
        }
        let snap = first.checkpoint();
        drop(first);
        let json = snap.to_json().expect("snapshot serializes");
        let snap = StreamSnapshot::from_json(&json).expect("snapshot parses");
        let mut second = FaultTolerantIngest::resume(&k, &snap).expect("resume");
        for m in &online[cut..n] {
            e2.extend(second.push_message(m.clone()));
        }
        let (rest, s2) = second.finish();
        e2.extend(rest);

        let norm = |evs: &[NetworkEvent]| {
            let mut v: Vec<Vec<usize>> = evs.iter().map(|e| e.message_idxs.clone()).collect();
            v.sort();
            v
        };
        assert_eq!(norm(&e1), norm(&e2));
        assert_eq!(s1.n_late, s2.n_late);
        assert_eq!(s1.digester.n_dropped, s2.digester.n_dropped);
    }

    #[test]
    fn resume_rejects_a_different_knowledge_base() {
        let (d, k) = setup();
        let ing =
            FaultTolerantIngest::new(&k, GroupingConfig::default(), StreamConfig::default(), 30);
        let snap = ing.checkpoint();
        let d2 = Dataset::generate(DatasetSpec::preset_a().scaled(0.04));
        let k2 = learn(&d2.configs, d2.train(), &OfflineConfig::dataset_a());
        assert!(matches!(
            FaultTolerantIngest::resume(&k2, &snap),
            Err(CheckpointError::KnowledgeMismatch)
        ));
        let _ = d;
    }
}

//! The three grouping stages (§4.2.1–§4.2.3), fused through a union-find
//! so the stage order cannot change the result. `StageState` holds the
//! stages' lookback and steps one message at a time; [`group`] drives it
//! over a finished batch and the streaming digester over a live feed.

use crate::knowledge::DomainKnowledge;
use crate::provenance::{GroupProv, MergeCause};
use crate::union_find::UnionFind;
use sd_model::{par_map, LocationId, Parallelism, SyslogPlus, TemplateId, Timestamp};
use sd_temporal::EwmaTracker;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// Which stages to run (Table 7 compares T, T+R, T+R+C).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GroupingConfig {
    /// Temporal grouping (same template + location + router).
    pub temporal: bool,
    /// Rule-based grouping (different templates, same router, spatial
    /// match, within W).
    pub rules: bool,
    /// Cross-router grouping (same template, connected locations, ~1 s).
    pub cross: bool,
    /// Cross-router simultaneity window in seconds (paper: 1 s).
    pub cross_window_secs: i64,
    /// Thread count for the router-sharded stages (the temporal and
    /// rule-based stages are per-router and shard perfectly; the
    /// cross-router stage is always sequential). Output is identical for
    /// every thread count.
    #[serde(default)]
    pub par: Parallelism,
}

impl Default for GroupingConfig {
    fn default() -> Self {
        GroupingConfig {
            temporal: true,
            rules: true,
            cross: true,
            cross_window_secs: 1,
            par: Parallelism::default(),
        }
    }
}

impl GroupingConfig {
    /// Temporal stage only.
    pub fn t_only() -> Self {
        GroupingConfig {
            rules: false,
            cross: false,
            ..Self::default()
        }
    }

    /// Temporal + rule-based.
    pub fn t_r() -> Self {
        GroupingConfig {
            cross: false,
            ..Self::default()
        }
    }
}

/// Result of grouping one batch.
#[derive(Debug, Clone)]
pub struct GroupingResult {
    /// Group index per batch element (dense, by first appearance).
    pub group_of: Vec<usize>,
    /// Number of groups.
    pub n_groups: usize,
    /// Undirected rule pairs that actually merged messages ("active
    /// rules", the third series of Figure 12).
    pub active_rules: HashSet<(u32, u32)>,
}

impl GroupingResult {
    /// Compression ratio: groups / messages (0 on an empty batch).
    pub fn compression_ratio(&self) -> f64 {
        if self.group_of.is_empty() {
            return 0.0;
        }
        self.n_groups as f64 / self.group_of.len() as f64
    }

    /// Member batch-indices per group.
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.n_groups];
        for (i, &g) in self.group_of.iter().enumerate() {
            out[g].push(i);
        }
        out
    }
}

/// One union edge: `(earlier id, later id, cause)`. The cause names the
/// stage (and, for rules, the undirected template pair) that linked the
/// two messages — the provenance layer consumes it; plain grouping
/// ignores it.
pub(crate) type Edge = (u64, u64, MergeCause);

/// Per router: the recent representative per `(template, location)`.
type RecentRules = HashMap<u32, HashMap<(u32, u32), (u64, Timestamp)>>;

/// The lookback state of the three stages, advanced one message at a time
/// in time order. Both the batch path ([`collect_edges`]) and the
/// streaming digester ([`StreamDigester`](crate::StreamDigester)) drive
/// these steps, so each stage decision is written once. Ids are the
/// caller's: batch indices for [`group`], sequence numbers for the stream.
#[derive(Default)]
pub(crate) struct StageState {
    /// Temporal: EWMA tracker and last id per `(router, template, location)`.
    pub(crate) trackers: HashMap<(u32, u32, u32), (EwmaTracker, u64)>,
    /// Rule-based: per router, the recent representative per
    /// `(template, location)`.
    pub(crate) recent_rules: RecentRules,
    /// Cross-router: per template, the recent `(id, ts)` on any router.
    pub(crate) recent_cross: HashMap<u32, VecDeque<(u64, Timestamp)>>,
}

impl StageState {
    /// The temporal and rule-based stages for message `id`. Both key all
    /// state by router, so stepping one router's messages alone is
    /// *exactly* the sequential traversal restricted to that router —
    /// sharding by router changes nothing about the produced edge set.
    pub(crate) fn step_local(
        &mut self,
        k: &DomainKnowledge,
        cfg: &GroupingConfig,
        id: u64,
        sp: &SyslogPlus,
        edges: &mut Vec<Edge>,
    ) {
        // ---- temporal stage ---------------------------------------------
        if cfg.temporal {
            let key = tkey(sp);
            match self.trackers.get_mut(&key) {
                None => {
                    let mut tr = EwmaTracker::new();
                    tr.observe(sp.ts, &k.temporal);
                    self.trackers.insert(key, (tr, id));
                }
                Some((tr, last)) => {
                    if !tr.observe(sp.ts, &k.temporal) {
                        edges.push((*last, id, MergeCause::Temporal));
                    }
                    *last = id;
                }
            }
        }

        // ---- rule-based stage --------------------------------------------
        if cfg.rules {
            let Some(tj) = sp.template else { return };
            let w = k.window_secs;
            let loc_j = sp.primary_location();
            let rmap = self.recent_rules.entry(sp.router.0).or_default();
            for (&(t2, loc2), &(i2, ts2)) in rmap.iter() {
                if sp.ts.seconds_since(ts2) > w || t2 == tj.0 {
                    continue;
                }
                if !k.rules.related(tj, TemplateId(t2)) {
                    continue;
                }
                if loc_j.is_some_and(|a| k.dict.spatially_match(a, LocationId(loc2))) {
                    edges.push((i2, id, MergeCause::Rule(tj.0.min(t2), tj.0.max(t2))));
                }
            }
            if let Some(loc) = loc_j {
                rmap.insert((tj.0, loc.0), (id, sp.ts));
            }
            // Prune stale representatives occasionally.
            if rmap.len() > 256 {
                let now = sp.ts;
                rmap.retain(|_, &mut (_, ts)| now.seconds_since(ts) <= w);
            }
        }
    }

    /// The cross-router stage for message `id` (its state spans routers,
    /// so it never shards). `earlier` resolves an id from the lookback to
    /// its message; `None` (already emitted) skips it.
    pub(crate) fn step_cross<'a>(
        &mut self,
        k: &DomainKnowledge,
        cfg: &GroupingConfig,
        id: u64,
        sp: &SyslogPlus,
        earlier: impl Fn(u64) -> Option<&'a SyslogPlus>,
        edges: &mut Vec<Edge>,
    ) {
        if !cfg.cross {
            return;
        }
        let Some(tj) = sp.template else { return };
        let q = self.recent_cross.entry(tj.0).or_default();
        while let Some(&(_, ts)) = q.front() {
            if sp.ts.seconds_since(ts) > cfg.cross_window_secs {
                q.pop_front();
            } else {
                break;
            }
        }
        for &(i2, _) in q.iter() {
            let Some(other) = earlier(i2) else { continue };
            if other.router != sp.router && cross_related(k, sp, other) {
                edges.push((i2, id, MergeCause::Cross));
            }
        }
        q.push_back((id, sp.ts));
        if q.len() > 1024 {
            q.pop_front();
        }
    }
}

/// All union edges of the configured stages, with their causes. The
/// router-local stages run per router shard (on `cfg.par` threads); the
/// cross-router stage is sequential (its state spans routers). Union-find
/// partitions do not depend on the order edges are applied, so the edge
/// set fully determines the grouping.
fn collect_edges(k: &DomainKnowledge, batch: &[SyslogPlus], cfg: &GroupingConfig) -> Vec<Edge> {
    // Shard batch indices by router, routers in ascending id order.
    let mut shards: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, sp) in batch.iter().enumerate() {
        shards.entry(sp.router.0).or_default().push(i);
    }
    let shards: Vec<Vec<usize>> = shards.into_values().collect();
    let outcomes = par_map(cfg.par, &shards, |_, shard| {
        let mut st = StageState::default();
        let mut local = Vec::new();
        for &i in shard {
            st.step_local(k, cfg, i as u64, &batch[i], &mut local);
        }
        local
    });
    let mut edges: Vec<Edge> = outcomes.into_iter().flatten().collect();
    let mut st = StageState::default();
    for (i, sp) in batch.iter().enumerate() {
        st.step_cross(
            k,
            cfg,
            i as u64,
            sp,
            |id| batch.get(id as usize),
            &mut edges,
        );
    }
    edges
}

/// All union edges the configured stages produce over `batch`, with the
/// stage (and, for rules, the undirected template pair) that caused each.
///
/// This is the conformance seam: [`group`] is exactly a union-find fold of
/// this edge set, so a differential oracle that compares it against an
/// independently derived reference edge set can pinpoint the first
/// *decision* that differed (which two messages were linked, by which
/// stage) rather than only observing that two partitions disagree.
pub fn stage_edges(
    k: &DomainKnowledge,
    batch: &[SyslogPlus],
    cfg: &GroupingConfig,
) -> Vec<(usize, usize, MergeCause)> {
    collect_edges(k, batch, cfg)
        .into_iter()
        .map(|(a, b, cause)| (a as usize, b as usize, cause))
        .collect()
}

fn result_from_edges(n: usize, edges: &[Edge]) -> GroupingResult {
    let mut uf = UnionFind::new(n);
    let mut active_rules: HashSet<(u32, u32)> = HashSet::new();
    for &(a, b, cause) in edges {
        uf.union(a as usize, b as usize);
        if let MergeCause::Rule(x, y) = cause {
            active_rules.insert((x, y));
        }
    }
    let (group_of, n_groups) = uf.groups();
    GroupingResult {
        group_of,
        n_groups,
        active_rules,
    }
}

/// Group a time-sorted augmented batch. The result is identical for every
/// `cfg.par.threads` value: the parallel path shards the router-local
/// stages by router, and union-find partitions do not depend on the order
/// edges are applied.
pub fn group(k: &DomainKnowledge, batch: &[SyslogPlus], cfg: &GroupingConfig) -> GroupingResult {
    result_from_edges(batch.len(), &collect_edges(k, batch, cfg))
}

/// [`group`] plus a per-group [`GroupProv`] link accumulator (indexed by
/// the result's group index). The grouping itself is *identical* to
/// [`group`] — the causes are replayed over the final partition after the
/// fact, never consulted while merging.
pub fn group_traced(
    k: &DomainKnowledge,
    batch: &[SyslogPlus],
    cfg: &GroupingConfig,
) -> (GroupingResult, Vec<GroupProv>) {
    let edges = collect_edges(k, batch, cfg);
    let result = result_from_edges(batch.len(), &edges);
    let mut provs = vec![GroupProv::default(); result.n_groups];
    for &(a, _, cause) in &edges {
        provs[result.group_of[a as usize]].record(cause);
    }
    (result, provs)
}

fn tkey(sp: &SyslogPlus) -> (u32, u32, u32) {
    (
        sp.router.0,
        sp.template.map(|t| t.0).unwrap_or(u32::MAX),
        sp.primary_location().map(|l| l.0).unwrap_or(u32::MAX),
    )
}

/// §4.2.3 relatedness: the two messages reference the same location (a
/// shared LSP path or each other's elements) or locations that are the two
/// ends of one link.
fn cross_related(k: &DomainKnowledge, a: &SyslogPlus, b: &SyslogPlus) -> bool {
    for &x in &a.locations {
        for &y in &b.locations {
            if x == y || k.dict.cross_router_related(x, y) {
                return true;
            }
            // A remote reference (e.g. the neighbor's loopback behind an
            // IP) spatially matching the other side's own location.
            if k.dict.router_of(x) == k.dict.router_of(y) && k.dict.spatially_match(x, y) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::augment_batch;
    use crate::offline::{learn, OfflineConfig};
    use sd_model::{ErrorCode, RawMessage, Timestamp};
    use sd_netsim::config::render_all;
    use sd_netsim::scenario::{toy_table2_messages, toy_topology};

    /// Training data that teaches the four Table 2 templates with masked
    /// interfaces: the toy flaps replayed over many synthetic interfaces.
    fn toy_training() -> Vec<RawMessage> {
        let mut train = Vec::new();
        for i in 0..25 {
            for (code, detail, state) in [
                ("LINK-3-UPDOWN", "Interface", "down"),
                ("LINK-3-UPDOWN", "Interface", "up"),
            ] {
                train.push(RawMessage::new(
                    Timestamp(i * 40),
                    if i % 2 == 0 { "r1" } else { "r2" },
                    ErrorCode::from(code),
                    format!("{detail} Serial9/{i}.10/1:0, changed state to {state}"),
                ));
            }
            for state in ["down", "up"] {
                train.push(RawMessage::new(
                    Timestamp(i * 40 + 1),
                    if i % 2 == 0 { "r1" } else { "r2" },
                    ErrorCode::from("LINEPROTO-5-UPDOWN"),
                    format!(
                        "Line protocol on Interface Serial9/{i}.10/1:0, changed state to {state}"
                    ),
                ));
            }
        }
        sd_model::sort_batch(&mut train);
        train
    }

    fn toy_knowledge() -> DomainKnowledge {
        let topo = toy_topology();
        let configs = render_all(&topo);
        // Rule mining over the training flaps (LINK and LINEPROTO co-occur
        // within seconds).
        let mut cfg = OfflineConfig::dataset_a();
        cfg.mine.sp_min = 0.0001;
        learn(&configs, &toy_training(), &cfg)
    }

    /// The paper's running example: 16 messages; temporal grouping alone
    /// gives the four per-(template, location) groups, adding rules merges
    /// per router, adding cross-router yields the single network event.
    #[test]
    fn table2_toy_groups_exactly_as_paper_describes() {
        let k = toy_knowledge();
        let raw = toy_table2_messages();
        let (batch, dropped) = augment_batch(&k, &raw);
        assert_eq!(dropped, 0);
        assert_eq!(batch.len(), 16);

        let t = group(&k, &batch, &GroupingConfig::t_only());
        assert_eq!(t.n_groups, 8, "T: per (router, template, location)");

        let tr = group(&k, &batch, &GroupingConfig::t_r());
        assert_eq!(tr.n_groups, 2, "T+R: one group per router");
        assert!(!tr.active_rules.is_empty());

        let trc = group(&k, &batch, &GroupingConfig::default());
        assert_eq!(trc.n_groups, 1, "T+R+C: the single network event");
    }

    #[test]
    fn compression_improves_monotonically_with_stages() {
        let k = toy_knowledge();
        let raw = toy_table2_messages();
        let (batch, _) = augment_batch(&k, &raw);
        let rt = group(&k, &batch, &GroupingConfig::t_only()).compression_ratio();
        let rtr = group(&k, &batch, &GroupingConfig::t_r()).compression_ratio();
        let rtrc = group(&k, &batch, &GroupingConfig::default()).compression_ratio();
        assert!(rt >= rtr && rtr >= rtrc, "{rt} {rtr} {rtrc}");
    }

    #[test]
    fn unrelated_routers_stay_separate() {
        let k = toy_knowledge();
        // Two independent flaps on r1 and r2 hours apart: no cross-router
        // merge is possible.
        let g = Grammar::for_vendor(sd_model::Vendor::V1);
        let mk = |ts, r: &str, iface: &str, key: &str| {
            let t = g.get(key);
            RawMessage::new(
                Timestamp(ts),
                r,
                t.code.clone(),
                t.render(|_| iface.to_owned()),
            )
        };
        let raw = vec![
            mk(0, "r1", "Serial1/0.10/10:0", "LINK_DOWN"),
            mk(10_000, "r2", "Serial1/0.20/20:0", "LINK_DOWN"),
        ];
        let (batch, _) = augment_batch(&k, &raw);
        let r = group(&k, &batch, &GroupingConfig::default());
        assert_eq!(r.n_groups, 2);
    }

    use sd_netsim::Grammar;

    #[test]
    fn empty_batch() {
        let k = toy_knowledge();
        let r = group(&k, &[], &GroupingConfig::default());
        assert_eq!(r.n_groups, 0);
        assert_eq!(r.compression_ratio(), 0.0);
    }
}

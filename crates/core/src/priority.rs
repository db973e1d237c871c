//! Event prioritization (§4.2.4): `score = Σ_m l_m / log(f_m)` where `l_m`
//! is the hierarchy-level weight of the message's location (×10 per level,
//! router highest) and `f_m` the historical frequency of the message's
//! signature on its router (rarer ⇒ more interesting; the logarithm keeps
//! rare-signature events from dominating outright).

use crate::knowledge::DomainKnowledge;
use sd_model::SyslogPlus;

/// Frequency floor for the `1 / log(f_m)` damping. The paper takes the
/// logarithm precisely "to prevent rare events with tiny f_m values from
/// dominating the top of the ranked list" and notes operators may adjust
/// weights; a signature with almost no history has an unreliable
/// frequency estimate, so the denominator is floored as if it had been
/// seen at least this often.
pub const FREQ_FLOOR: f64 = 8.0;

/// Score one group of messages (batch indices into `batch`), with
/// frequencies floored at [`FREQ_FLOOR`].
pub fn score_group(k: &DomainKnowledge, batch: &[SyslogPlus], members: &[usize]) -> f64 {
    members
        .iter()
        .map(|&i| {
            let sp = &batch[i];
            let l = match sp.primary_location() {
                Some(loc) => k.dict.info(loc).level.weight(),
                None => 1.0,
            };
            let f = match sp.template {
                Some(t) => k.frequency(sp.router, t) as f64,
                None => 1.0,
            };
            l / f.max(FREQ_FLOOR).ln()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_locations::LocationDictionary;
    use sd_model::{Interner, LocationId, RouterId, SyslogPlus, TemplateId, Timestamp};
    use sd_rules::RuleSet;
    use sd_templates::TemplateSet;
    use sd_temporal::TemporalConfig;
    use std::collections::HashMap;

    fn knowledge(freqs: &[((u32, u32), u64)]) -> DomainKnowledge {
        let cfg = "\
hostname r1
!
interface Serial1/0
 ip address 10.0.0.1 255.255.255.252
";
        let dict = LocationDictionary::build(&[cfg.to_owned()]);
        let freq: HashMap<(u32, u32), u64> = freqs.iter().copied().collect();
        DomainKnowledge::new(
            TemplateSet::default(),
            Interner::new(),
            dict,
            TemporalConfig::dataset_a(),
            RuleSet::default(),
            120,
            freq,
        )
    }

    fn sp(router: u32, template: u32, loc: Option<LocationId>) -> SyslogPlus {
        SyslogPlus {
            idx: 0,
            ts: Timestamp(0),
            router: RouterId(router),
            template: Some(TemplateId(template)),
            locations: loc.into_iter().collect(),
        }
    }

    #[test]
    fn rarer_signatures_score_higher() {
        let k = knowledge(&[((0, 0), 10_000), ((0, 1), 3)]);
        let r1 = k.dict.router_id("r1").unwrap();
        let loc = k.dict.by_name(r1, "Serial1/0");
        let batch = vec![sp(0, 0, loc), sp(0, 1, loc)];
        let common = score_group(&k, &batch, &[0]);
        let rare = score_group(&k, &batch, &[1]);
        assert!(rare > common, "rare {rare} vs common {common}");
    }

    #[test]
    fn router_level_outweighs_interface_level() {
        let k = knowledge(&[((0, 0), 100)]);
        let r1 = k.dict.router_id("r1").unwrap();
        let iface = k.dict.by_name(r1, "Serial1/0");
        let router = Some(k.dict.router_location(r1));
        let batch = vec![sp(0, 0, iface), sp(0, 0, router)];
        assert!(score_group(&k, &batch, &[1]) > score_group(&k, &batch, &[0]));
    }

    #[test]
    fn more_messages_score_higher() {
        let k = knowledge(&[((0, 0), 100)]);
        let r1 = k.dict.router_id("r1").unwrap();
        let loc = k.dict.by_name(r1, "Serial1/0");
        let batch: Vec<SyslogPlus> = (0..5).map(|_| sp(0, 0, loc)).collect();
        let small = score_group(&k, &batch, &[0, 1]);
        let big = score_group(&k, &batch, &[0, 1, 2, 3, 4]);
        assert!(big > small);
    }

    #[test]
    fn unseen_signature_does_not_blow_up() {
        let k = knowledge(&[]);
        let r1 = k.dict.router_id("r1").unwrap();
        let loc = k.dict.by_name(r1, "Serial1/0");
        let batch = vec![sp(0, 9, loc)];
        let s = score_group(&k, &batch, &[0]);
        assert!(s.is_finite() && s > 0.0);
    }
}

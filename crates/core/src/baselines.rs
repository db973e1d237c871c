//! Baselines the paper argues against: vendor-severity ranking (§2
//! explains why it misleads), compared against §4.2.4 scoring by
//! `exp_severity`.

use crate::event::NetworkEvent;
use sd_model::{RawMessage, Severity};

/// Re-rank events by vendor severity: an event's severity is the most
/// severe (lowest-rank) vendor severity among its member messages; ties
/// break toward more messages. This is the ranking the paper says *not*
/// to trust.
pub fn severity_rank(events: &mut [NetworkEvent], raw: &[RawMessage]) {
    let sev_of = |e: &NetworkEvent| -> u8 {
        e.message_idxs
            .iter()
            .filter_map(|&i| raw.get(i).and_then(|m| m.code.severity()))
            .map(Severity::rank)
            .min()
            .unwrap_or(7)
    };
    events.sort_by(|a, b| {
        sev_of(a)
            .cmp(&sev_of(b))
            .then_with(|| b.size().cmp(&a.size()))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_model::{ErrorCode, Timestamp};

    #[test]
    fn severity_rank_prefers_low_severity_numbers() {
        let raw = vec![
            RawMessage::new(Timestamp(0), "r", ErrorCode::from("SYS-1-X"), "a"),
            RawMessage::new(Timestamp(0), "r", ErrorCode::from("LINK-3-Y"), "b"),
        ];
        let mk = |idxs: Vec<usize>| NetworkEvent {
            start: Timestamp(0),
            end: Timestamp(0),
            score: 0.0,
            routers: vec![],
            location_summary: String::new(),
            label: String::new(),
            signatures: vec![],
            message_idxs: idxs,
            id: 0,
        };
        let mut events = vec![mk(vec![1]), mk(vec![0])];
        severity_rank(&mut events, &raw);
        assert_eq!(events[0].message_idxs, vec![0], "severity-1 event first");
    }
}

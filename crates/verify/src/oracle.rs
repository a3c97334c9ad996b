//! The sequential oracle: property P2 (paper §5.1) stated once.
//!
//! A distributed run must emit exactly what a single-threaded fold of the
//! same input emits — the query is a homomorphism from the input stream
//! into the state monoid, so partitioning, epochs, faults and repairs may
//! change *when* a group's value is complete but never *what* it is.
//! [`oracle`] is that fold: one pass over every record of every partition,
//! no engine code on the path except the plan's own pure functions
//! (filter, window assignment, aggregate update/render). Aggregations are
//! checked by value, joins by pair count per `(window, key)`.

use std::collections::HashMap;
use std::rc::Rc;

use slash_core::{QueryPlan, SinkResult, WindowAssigner};

/// What a query emits: per `(window, key)`, the rendered aggregate or the
/// join's pair count.
pub type Groups = HashMap<(u64, u64), f64>;

/// Sequential oracle: fold every record of every partition.
pub fn oracle(plan: &QueryPlan, partitions: &[Rc<Vec<u8>>]) -> Groups {
    match plan {
        QueryPlan::Aggregate { input, window, agg } => {
            let schema = input.schema;
            let desc = agg.descriptor();
            let mut state: HashMap<(u64, u64), Vec<u8>> = HashMap::new();
            for part in partitions {
                schema.for_each(part, |rec| {
                    if !input.keep(rec) {
                        return;
                    }
                    let group = (window.assign(schema.ts(rec)), schema.key(rec));
                    let value = state.entry(group).or_insert_with(|| {
                        let mut v = vec![0u8; desc.fixed_size()];
                        (desc.init)(&mut v);
                        v
                    });
                    agg.update(&schema, rec, value);
                });
            }
            state.into_iter().map(|(g, v)| (g, agg.render(&v))).collect()
        }
        QueryPlan::Join { input, side_off, window, .. } => {
            let schema = input.schema;
            // Per group, every event as (timestamp, is_left).
            let mut events: HashMap<(u64, u64), Vec<(u64, bool)>> = HashMap::new();
            for part in partitions {
                schema.for_each(part, |rec| {
                    if !input.keep(rec) {
                        return;
                    }
                    let ts = schema.ts(rec);
                    let left = schema.field_u64(rec, *side_off) == 0;
                    events
                        .entry((window.assign(ts), schema.key(rec)))
                        .or_default()
                        .push((ts, left));
                });
            }
            events
                .into_iter()
                .map(|(g, evs)| (g, pairs(evs, window) as f64))
                .filter(|&(_, p)| p > 0.0)
                .collect()
        }
    }
}

/// Left × right combinations of one group's events: over the whole bucket
/// for tumbling and sliding windows, per gap-separated session for session
/// windows.
fn pairs(mut events: Vec<(u64, bool)>, window: &WindowAssigner) -> u64 {
    let gap = match *window {
        WindowAssigner::Session { gap } => gap,
        _ => u64::MAX,
    };
    events.sort_unstable();
    let (mut total, mut left, mut right) = (0u64, 0u64, 0u64);
    let mut last = None;
    for (ts, is_left) in events {
        if last.is_some_and(|prev| ts - prev > gap) {
            total += left * right;
            (left, right) = (0, 0);
        }
        if is_left {
            left += 1;
        } else {
            right += 1;
        }
        last = Some(ts);
    }
    total + left * right
}

/// Index emitted results by `(window, key)`; joins contribute their pair
/// counts (empty pairings are not results). `Err` names a group emitted
/// twice — a window that fired more than once.
pub fn results_map(results: &[SinkResult]) -> Result<Groups, String> {
    let mut out = Groups::new();
    for r in results {
        let (group, value) = match *r {
            SinkResult::Agg { window_id, key, value } => ((window_id, key), value),
            SinkResult::Join { pairs: 0, .. } => continue,
            SinkResult::Join { window_id, key, pairs } => ((window_id, key), pairs as f64),
        };
        if out.insert(group, value).is_some() {
            return Err(format!("group {group:?} emitted twice"));
        }
    }
    Ok(out)
}

/// Compare emitted `results` against `expected`: the same groups, each
/// exactly once, each with the oracle's value. `Err` describes the first
/// difference found.
pub fn check(expected: &Groups, results: &[SinkResult]) -> Result<(), String> {
    let got = results_map(results)?;
    if expected.len() != got.len() {
        return Err(format!("{} groups expected, {} emitted", expected.len(), got.len()));
    }
    for (group, want) in expected {
        match got.get(group) {
            None => return Err(format!("group {group:?} missing")),
            Some(have) if (want - have).abs() >= 1e-9 * want.abs().max(1.0) => {
                return Err(format!("group {group:?}: expected {want}, got {have}"));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_pairs_split_at_the_gap() {
        let w = WindowAssigner::Session { gap: 10 };
        // Two sessions: {L0, R5} and {L30, R31, R32}.
        let evs = vec![(0, true), (5, false), (30, true), (31, false), (32, false)];
        assert_eq!(pairs(evs.clone(), &w), 1 + 2);
        // Bucket semantics pair everything: 2 lefts x 3 rights.
        assert_eq!(pairs(evs, &WindowAssigner::Tumbling { size: 100 }), 6);
    }

    #[test]
    fn a_group_emitted_twice_is_an_error() {
        let r = SinkResult::Agg { window_id: 1, key: 2, value: 3.0 };
        assert!(results_map(&[r.clone(), r]).unwrap_err().contains("emitted twice"));
    }
}

//! The sequential oracle: property P2 (paper §5.1) stated once.
//!
//! A distributed run must emit exactly what a single-threaded fold of the
//! same input emits — the query is a homomorphism from the input stream
//! into the state monoid, so partitioning, epochs, faults and repairs may
//! change *when* a group's value is complete but never *what* it is.
//! [`oracle`] is that fold: one pass over every record of every partition,
//! no engine code on the path except the plan's own pure functions
//! (filter, window assignment, aggregate update/render). Aggregations are
//! checked by value, joins by pair count per `(window, key)`: left × right
//! over the bucket, which every window assigner retires whole.

use std::collections::HashMap;
use std::rc::Rc;

use slash_core::{QueryPlan, RunReport, SinkResult};
use slash_state::ValueKind;

/// What a query emits: per `(window, key)`, the rendered aggregate or the
/// join's pair count.
pub type Groups = HashMap<(u64, u64), f64>;

/// What a run must emit: the oracle's groups, and how their values compare.
pub struct Expected {
    /// The sequential fold's groups.
    pub groups: Groups,
    /// Values match bit for bit: every class but [`ValueKind::Inexact`],
    /// whose float sums match within a relative 1e-9.
    pub exact: bool,
}

/// Sequential oracle: fold every record of every partition.
pub fn oracle(plan: &QueryPlan, partitions: &[Rc<Vec<u8>>]) -> Expected {
    let exact = !matches!(plan.descriptor().kind, ValueKind::Inexact { .. });
    let groups = match plan {
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
            state
                .into_iter()
                .map(|(g, v)| (g, agg.render(&v)))
                .collect()
        }
        QueryPlan::Join {
            input,
            side_off,
            window,
            ..
        } => {
            let schema = input.schema;
            // Per group, its (left, right) event counts: every assigner
            // pairs a bucket whole.
            let mut sides: HashMap<(u64, u64), (u64, u64)> = HashMap::new();
            for part in partitions {
                schema.for_each(part, |rec| {
                    if !input.keep(rec) {
                        return;
                    }
                    let group = (window.assign(schema.ts(rec)), schema.key(rec));
                    let (left, right) = sides.entry(group).or_default();
                    match schema.field_u64(rec, *side_off) {
                        0 => *left += 1,
                        _ => *right += 1,
                    }
                });
            }
            sides
                .into_iter()
                .map(|(g, (left, right))| (g, (left * right) as f64))
                .filter(|&(_, p)| p > 0.0)
                .collect()
        }
    };
    Expected { groups, exact }
}

/// Index emitted results by `(window, key)`; joins contribute their pair
/// counts (empty pairings are not results). `Err` names a group emitted
/// twice — a window that fired more than once.
pub fn results_map(results: &[SinkResult]) -> Result<Groups, String> {
    let mut out = Groups::new();
    for r in results {
        let (group, value) = match *r {
            SinkResult::Agg {
                window_id,
                key,
                value,
            } => ((window_id, key), value),
            SinkResult::Join { pairs: 0, .. } => continue,
            SinkResult::Join {
                window_id,
                key,
                pairs,
            } => ((window_id, key), pairs as f64),
        };
        if out.insert(group, value).is_some() {
            return Err(format!("group {group:?} emitted twice"));
        }
    }
    Ok(out)
}

/// Judge a run against `expected`: no protocol violation counted (the
/// shipped checks, DESIGN §8), and the same groups emitted, each exactly
/// once, each with the oracle's value. `Err` describes the first
/// difference found.
pub fn check(expected: &Expected, run: &RunReport) -> Result<(), String> {
    let (expected, exact) = (&expected.groups, expected.exact);
    if run.protocol_violations.total() > 0 {
        return Err(format!("protocol violations: {}", run.protocol_violations));
    }
    let got = results_map(&run.results)?;
    if expected.len() != got.len() {
        return Err(format!(
            "{} groups expected, {} emitted",
            expected.len(),
            got.len()
        ));
    }
    for (group, want) in expected {
        match got.get(group) {
            None => return Err(format!("group {group:?} missing")),
            Some(have)
                if want.to_bits() != have.to_bits()
                    && (exact || (want - have).abs() >= 1e-9 * want.abs().max(1.0)) =>
            {
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
    fn a_group_emitted_twice_is_an_error() {
        let r = SinkResult::Agg {
            window_id: 1,
            key: 2,
            value: 3.0,
        };
        assert!(results_map(&[r.clone(), r])
            .unwrap_err()
            .contains("emitted twice"));
    }

    /// An exact count is compared bit for bit: off by one at 2^31, inside
    /// a relative 1e-9, it fails; the same gap on an inexact mean passes.
    #[test]
    fn only_inexact_values_have_a_tolerance() {
        let want = f64::from(1u32 << 31);
        let run = RunReport {
            results: vec![SinkResult::Agg {
                window_id: 1,
                key: 2,
                value: want + 1.0,
            }],
            ..RunReport::default()
        };
        let expected = |exact| Expected {
            groups: Groups::from([((1, 2), want)]),
            exact,
        };
        assert!(check(&expected(true), &run)
            .unwrap_err()
            .contains("expected 2147483648, got 2147483649"));
        assert!(check(&expected(false), &run).is_ok());
    }
}

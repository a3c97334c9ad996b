//! Join pairing at trigger time.
//!
//! Triggered holistic state is a per-`(bucket, key)` list of elements
//! tagged with their side (`elem[0]`) and carrying the retained record
//! prefix — whose first eight bytes are the event timestamp. For
//! tumbling/sliding windows the pair count is simply `left × right`; for
//! session windows the elements are additionally split into true sessions
//! by the gap rule (sorted timestamps, break where consecutive events are
//! more than `gap` apart) and pairs are counted per session — the exact
//! NEXMark Q11 semantics *within* a bucket. Sessions that span bucket
//! boundaries remain merged at bucket granularity (the documented
//! approximation).

use std::cell::RefCell;

use slash_state::ElementList;

use crate::window::WindowAssigner;

thread_local! {
    /// [`session_pair_count`]'s decoded events, reused from key to key: a
    /// window fires thousands of keys and each would otherwise allocate
    /// and free a list of its own.
    static EVENTS: RefCell<Vec<(u64, bool)>> = const { RefCell::new(Vec::new()) };
}

/// Decode `(ts, is_left)` from a stored join element, if it retains a
/// timestamp.
#[inline]
fn decode(elem: &[u8]) -> Option<(u64, bool)> {
    let ts_bytes = elem.get(1..9)?;
    let mut ts = [0u8; 8];
    ts.copy_from_slice(ts_bytes);
    Some((u64::from_le_bytes(ts), elem[0] == 0))
}

/// `left × right` over the whole list: one session.
fn bucket_pair_count(elems: &ElementList) -> u64 {
    let left = elems.iter().filter(|e| e[0] == 0).count() as u64;
    left * (elems.len() as u64 - left)
}

/// Count left × right combinations of a triggered element list under the
/// window's semantics. Returns the number of emitted pairs.
pub fn pair_count(elems: &ElementList, window: &WindowAssigner) -> u64 {
    match *window {
        WindowAssigner::Session { gap } => {
            EVENTS.with_borrow_mut(|events| session_pair_count(elems, gap, events))
        }
        _ => bucket_pair_count(elems),
    }
}

/// Session-window pairing: split by the gap rule, pair within sessions.
fn session_pair_count(elems: &ElementList, gap: u64, events: &mut Vec<(u64, bool)>) -> u64 {
    events.clear();
    for e in elems.iter() {
        match decode(e) {
            Some(ev) => events.push(ev),
            // Elements without timestamps cannot be split; fall back
            // to one session (the conservative bucket semantics).
            None => return bucket_pair_count(elems),
        }
    }
    events.sort_unstable_by_key(|&(ts, _)| ts);
    let mut total = 0u64;
    let mut left = 0u64;
    let mut right = 0u64;
    let mut last_ts: Option<u64> = None;
    for &(ts, is_left) in events.iter() {
        if let Some(prev) = last_ts {
            if ts - prev > gap {
                total += left * right;
                left = 0;
                right = 0;
            }
        }
        if is_left {
            left += 1;
        } else {
            right += 1;
        }
        last_ts = Some(ts);
    }
    total + left * right
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elem(side: u8, ts: u64) -> Vec<u8> {
        let mut e = vec![side];
        e.extend_from_slice(&ts.to_le_bytes());
        e.extend_from_slice(&[0u8; 8]); // rest of the retained prefix
        e
    }

    /// The flat list the trigger lends out, built from owned elements.
    fn list(elems: &[Vec<u8>]) -> ElementList {
        let mut list = ElementList::default();
        elems.iter().for_each(|e| list.push(e));
        list
    }

    #[test]
    fn tumbling_is_cross_product() {
        let elems = list(&[elem(0, 1), elem(0, 2), elem(1, 3)]);
        let w = WindowAssigner::Tumbling { size: 100 };
        assert_eq!(pair_count(&elems, &w), 2);
    }

    #[test]
    fn sessions_split_on_gaps() {
        // Two sessions: {1,5,9} (1 left, 2 right... let's build it) and
        // {200, 205}.
        let elems = list(&[
            elem(0, 1),
            elem(1, 5),
            elem(1, 9),
            elem(0, 200),
            elem(1, 205),
        ]);
        let w = WindowAssigner::Session { gap: 50 };
        // Session 1: 1 left × 2 right = 2; session 2: 1 × 1 = 1.
        assert_eq!(pair_count(&elems, &w), 3);
        // The naive bucket product would be 2 × 3 = 6.
        let naive = WindowAssigner::Tumbling { size: 1 << 40 };
        assert_eq!(pair_count(&elems, &naive), 6);
    }

    #[test]
    fn chained_events_stay_in_one_session() {
        // Each consecutive pair within gap, total span way over gap.
        let elems: Vec<Vec<u8>> = (0..10).map(|i| elem((i % 2) as u8, i * 40)).collect();
        let elems = list(&elems);
        let w = WindowAssigner::Session { gap: 50 };
        assert_eq!(pair_count(&elems, &w), 25);
    }

    #[test]
    fn unsorted_input_is_sorted_first() {
        let elems = list(&[elem(1, 205), elem(0, 1), elem(1, 5), elem(0, 200)]);
        let w = WindowAssigner::Session { gap: 50 };
        assert_eq!(pair_count(&elems, &w), 2);
    }

    #[test]
    fn sessions_with_one_side_only_emit_nothing() {
        let elems = list(&[elem(0, 1), elem(0, 10), elem(1, 500)]);
        let w = WindowAssigner::Session { gap: 50 };
        assert_eq!(pair_count(&elems, &w), 0);
    }

    #[test]
    fn timestampless_elements_fall_back_to_bucket_semantics() {
        let elems = list(&[vec![0u8], vec![1u8], vec![1u8]]);
        let w = WindowAssigner::Session { gap: 50 };
        assert_eq!(pair_count(&elems, &w), 2);
    }

    #[test]
    fn empty_list() {
        let w = WindowAssigner::Session { gap: 50 };
        assert_eq!(pair_count(&ElementList::default(), &w), 0);
    }
}

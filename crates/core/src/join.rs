//! Join pairing at trigger time.
//!
//! Triggered holistic state is a per-`(bucket, key)` multiset of elements
//! tagged with their side (`elem[0]`, 0 for left) and carrying the
//! retained record prefix. Every window assigner retires a bucket whole —
//! NB11's session window is a tumbling bucket `gap` wide
//! ([`WindowAssigner::Session`]) — so a bucket's pair count is
//! `left × right`, whatever order the elements come in.

use slash_state::ElementList;

use crate::window::WindowAssigner;

/// Count left × right combinations of a triggered element list. Returns
/// the number of emitted pairs. Every assigner pairs a bucket whole, so
/// `window` does not change the count.
pub fn pair_count(elems: &ElementList, _window: &WindowAssigner) -> u64 {
    let left = elems.iter().filter(|e| e[0] == 0).count() as u64;
    left * (elems.len() as u64 - left)
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
    fn every_assigner_pairs_the_whole_bucket() {
        let elems = list(&[elem(0, 1), elem(1, 5), elem(0, 9), elem(1, 3), elem(1, 7)]);
        for w in [
            WindowAssigner::Tumbling { size: 100 },
            WindowAssigner::Session { gap: 10 },
        ] {
            assert_eq!(pair_count(&elems, &w), 2 * 3, "{w:?}");
        }
    }

    #[test]
    fn runs_pair_like_single_elements() {
        let singles = list(&[elem(1, 4), elem(0, 1), elem(0, 2), elem(1, 3)]);
        let mut runs = ElementList::default();
        runs.push_run(17, &[elem(0, 1), elem(0, 2), elem(1, 3)].concat());
        runs.push_run(17, &elem(1, 4));
        assert_eq!(runs.len(), 4);
        let w = WindowAssigner::Session { gap: 50 };
        assert_eq!(pair_count(&runs, &w), pair_count(&singles, &w));
        assert_eq!(pair_count(&runs, &w), 4);
    }

    #[test]
    fn empty_list() {
        let w = WindowAssigner::Session { gap: 50 };
        assert_eq!(pair_count(&ElementList::default(), &w), 0);
    }
}

//! Completion queues.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Whether the work request succeeded or was flushed.
///
/// A real reliable connection that loses its peer (or whose link goes down
/// past the retry budget) moves the QP to the error state and *flushes* all
/// outstanding work requests: each signaled WR still produces a completion,
/// but with an error status instead of silently succeeding. The simulator
/// mirrors that so fault-injection runs can observe failures through the
/// same completion path real protocol code uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionStatus {
    /// The operation completed and its effects are visible.
    Success,
    /// The work request was flushed: the link or peer failed before the
    /// operation could take effect. No remote memory was modified.
    FlushErr,
}

/// A work completion of a signaled WRITE.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Cookie of the work request.
    pub wr_id: u64,
    /// Payload bytes transferred.
    pub byte_len: usize,
    /// Success or flush-error status.
    pub status: CompletionStatus,
}

impl Completion {
    /// Whether the work request completed successfully.
    pub fn is_ok(&self) -> bool {
        self.status == CompletionStatus::Success
    }
}

/// Shared handle to a completion queue. Protocol processes poll it without
/// blocking from inside their scheduler loop.
#[derive(Clone, Default)]
pub struct CqHandle(Rc<RefCell<VecDeque<Completion>>>);

impl CqHandle {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Non-blocking poll for the oldest completion.
    pub fn poll(&self) -> Option<Completion> {
        self.0.borrow_mut().pop_front()
    }

    /// Number of queued completions.
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// Whether no completions are queued.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }

    /// Append a completion.
    pub(crate) fn push(&self, c: Completion) {
        self.0.borrow_mut().push_back(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let cq = CqHandle::new();
        for wr_id in 0..5 {
            cq.push(Completion {
                wr_id,
                byte_len: 0,
                status: CompletionStatus::Success,
            });
        }
        assert_eq!(cq.len(), 5);
        let ids: Vec<u64> = std::iter::from_fn(|| cq.poll().map(|x| x.wr_id)).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert!(cq.is_empty());
    }
}

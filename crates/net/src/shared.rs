//! The thread-shared memory under the ring protocol, for the threaded
//! backend: the consumer's ring is `c` slots of `AtomicU64` words, the
//! payload from a slot's first word and the footer in its last two.
//!
//! A WRITE becomes stores: payload words and the first footer word
//! `Relaxed`, then the generation's word `Release`, which the consumer
//! polls `Acquire` — so a generation it sees implies the payload before
//! it. Credit return stores the consumed count `Release` into a counter
//! the producer loads `Acquire` (§6.2). Slots are reused and `fill` and
//! `f` work in one slot-sized buffer per endpoint: nothing is allocated
//! per message. Threads share no clock and an `Obs` stays on its thread,
//! so these endpoints stamp no send time and trace nothing.

use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::Arc;

use slash_rdma::RdmaError;

use crate::channel::ChannelConfig;
use crate::layout::{MsgFlags, FOOTER_SIZE};
use crate::receiver::{ChannelReceiver, RxMemory};
use crate::sender::{ChannelSender, TxMemory};

/// The consumer's ring and the producer's credit counter.
struct Ring {
    words: Box<[AtomicU64]>,
    slot_words: usize,
    credit: AtomicU64,
}

impl Ring {
    /// Slot `slot`'s words; its last two hold the footer.
    fn slot(&self, slot: usize) -> (&[AtomicU64], &AtomicU64, &AtomicU64) {
        let words = &self.words[slot * self.slot_words..(slot + 1) * self.slot_words];
        let (payload, footer) = words.split_at(self.slot_words - 2);
        (payload, &footer[0], &footer[1])
    }
}

/// The producer's side of a thread-shared ring.
pub struct SharedTx {
    ring: Arc<Ring>,
    staging: Vec<u8>,
}

/// The consumer's side of a thread-shared ring.
pub struct SharedRx {
    ring: Arc<Ring>,
    scratch: Vec<u8>,
}

impl<C> TxMemory<C> for SharedTx {
    fn acked(&self) -> u64 {
        self.ring.credit.load(Acquire)
    }

    fn post(
        &mut self,
        _: &mut C,
        _: u64,
        slot: usize,
        len: usize,
        [lo, hi]: [u64; 2],
        fill: &mut dyn FnMut(&mut [u8]),
    ) -> Result<(), RdmaError> {
        if TxMemory::<C>::is_error(self) {
            return Err(RdmaError::QpError);
        }
        fill(&mut self.staging[..len]);
        // Whole words: the bytes past `len` are the consumer's to ignore.
        let (staged, _) = self.staging[..len.next_multiple_of(8)].as_chunks();
        let (payload, foot, poll) = self.ring.slot(slot);
        for (w, bytes) in payload.iter().zip(staged) {
            w.store(u64::from_le_bytes(*bytes), Relaxed);
        }
        foot.store(lo, Relaxed);
        poll.store(hi, Release);
        Ok(())
    }

    /// The consumer thread is gone: it dropped its end of the ring.
    fn is_error(&self) -> bool {
        Arc::strong_count(&self.ring) < 2
    }

    fn reset(&mut self) {
        self.ring.credit.store(0, Release);
    }
}

impl<C> RxMemory<C> for SharedRx {
    fn generation(&self, slot: usize) -> u8 {
        self.ring.slot(slot).2.load(Acquire).to_le_bytes()[7]
    }

    fn footer(&self, slot: usize) -> [u64; 2] {
        let (_, foot, poll) = self.ring.slot(slot);
        [foot.load(Relaxed), poll.load(Acquire)]
    }

    fn payload(
        &mut self,
        slot: usize,
        len: usize,
        f: &mut dyn FnMut(&[u8]),
    ) -> Result<(), RdmaError> {
        // Every footer's `len` was checked against the capacity at send.
        let (words, _) = self.scratch[..len.next_multiple_of(8)].as_chunks_mut();
        for (bytes, w) in words.iter_mut().zip(self.ring.slot(slot).0) {
            *bytes = w.load(Relaxed).to_le_bytes();
        }
        f(&self.scratch[..len]);
        Ok(())
    }

    fn return_credit(&mut self, _: &mut C, acked: u64) -> Result<(), RdmaError> {
        self.ring.credit.store(acked, Release);
        Ok(())
    }

    fn reset(&mut self) {
        for slot in 0..self.ring.words.len() / self.ring.slot_words {
            self.ring.slot(slot).2.store(0, Release);
        }
    }
}

/// Create a channel over thread-shared memory: `cfg.credits` slots of
/// `cfg.payload_capacity()` payload bytes each. Its endpoints may move to
/// two threads.
pub fn spsc_channel(cfg: ChannelConfig) -> (ChannelSender<SharedTx>, ChannelReceiver<SharedRx>) {
    let cfg = cfg.validated();
    let cap = cfg.payload_capacity().next_multiple_of(8);
    let slot_words = cap / 8 + FOOTER_SIZE / 8;
    let ring = Arc::new(Ring {
        words: (0..cfg.credits * slot_words)
            .map(|_| AtomicU64::new(0))
            .collect(),
        slot_words,
        credit: AtomicU64::new(0),
    });
    let tx = SharedTx {
        ring: Arc::clone(&ring),
        staging: vec![0; cap],
    };
    let rx = SharedRx {
        ring,
        scratch: vec![0; cap],
    };
    (ChannelSender::new(tx, cfg), ChannelReceiver::new(rx, cfg))
}

impl ChannelSender<SharedTx> {
    /// Send a byte slice; `false` when no credit is available or the
    /// consumer thread is gone.
    pub fn try_send(&mut self, flags: MsgFlags, data: &[u8]) -> bool {
        let fill = |slot: &mut [u8]| slot.copy_from_slice(data);
        self.try_send_with(&mut (), flags, data.len(), fill) == Ok(true)
    }
}

impl ChannelReceiver<SharedRx> {
    /// Copy the next buffer out, if ready.
    pub fn try_recv(&mut self) -> Option<(MsgFlags, Vec<u8>)> {
        let copy = |flags, payload: &[u8]| (flags, payload.to_vec());
        self.poll_with(&mut (), copy).ok().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Violation;

    /// Slots of 60 bytes: a 44-byte payload capacity, not whole words.
    fn cfg(credits: usize) -> ChannelConfig {
        ChannelConfig {
            credits,
            buffer_size: 60,
            credit_batch: 1,
        }
    }

    #[test]
    fn fifo_order_over_many_wraps() {
        let (mut tx, mut rx) = spsc_channel(cfg(4));
        let mut got = Vec::new();
        let msg = |i: u64| [i.to_le_bytes(); 6].concat()[..i as usize % 45].to_vec();
        for i in 0..100u64 {
            assert!(tx.try_send(MsgFlags::DATA, &msg(i)));
            if i % 3 == 2 {
                while let Some((_, data)) = rx.try_recv() {
                    got.push(data);
                }
            }
        }
        while let Some((_, data)) = rx.try_recv() {
            got.push(data);
        }
        let expect: Vec<Vec<u8>> = (0..100u64).map(msg).collect();
        assert_eq!(got, expect);
        assert_eq!(tx.stats.violations.total() + rx.stats.violations.total(), 0);
    }

    #[test]
    fn producer_stalls_at_zero_credits() {
        let (mut tx, mut rx) = spsc_channel(cfg(2));
        assert!(tx.try_send(MsgFlags::STATE_DELTA, &[1]));
        assert!(tx.try_send(MsgFlags::STATE_DELTA, &[2]));
        assert!(!tx.try_send(MsgFlags::STATE_DELTA, &[3]));
        assert_eq!(tx.stats.credit_stalls, 1);
        // Consuming one returns its credit.
        assert_eq!(rx.try_recv(), Some((MsgFlags::STATE_DELTA, vec![1])));
        assert!(tx.try_send(MsgFlags::STATE_DELTA, &[3]));
        assert_eq!(tx.stats.buffers, 3);
    }

    /// The FIFO check runs on this memory too: two buffers consumed in
    /// swapped order are both counted.
    #[test]
    fn a_reordered_slot_is_counted_as_fifo() {
        let (mut tx, mut rx) = spsc_channel(cfg(8));
        rx.fault_reorder_once();
        for m in [b"k0", b"k1", b"k2"] {
            assert!(tx.try_send(MsgFlags::DATA, m));
        }
        let got: Vec<_> = std::iter::from_fn(|| rx.try_recv().map(|m| m.1)).collect();
        assert_eq!(got, [b"k1", b"k0", b"k2"]);
        assert_eq!(rx.stats.violations.get(Violation::Fifo), 2);
        assert_eq!(rx.stats.violations.total(), 2);
    }

    /// The credit-window check runs on this memory too: the post that
    /// overruns the window is counted.
    #[test]
    fn a_post_past_the_credit_window_is_counted() {
        let (mut tx, _rx) = spsc_channel(cfg(2));
        tx.fault_ignore_credit_window();
        assert!(tx.try_send(MsgFlags::DATA, b"a"));
        assert!(tx.try_send(MsgFlags::DATA, b"b"));
        assert_eq!(tx.stats.violations.total(), 0, "full, not overrun");
        assert!(tx.try_send(MsgFlags::DATA, b"c"));
        assert_eq!(tx.stats.violations.get(Violation::CreditWindow), 1);
    }

    #[test]
    fn a_consumer_that_returns_no_credit_stalls_the_producer() {
        let (mut tx, mut rx) = spsc_channel(cfg(2));
        rx.fault_skip_credit_return();
        assert!(tx.try_send(MsgFlags::DATA, b"x"));
        assert!(tx.try_send(MsgFlags::DATA, b"y"));
        assert!(rx.try_recv().is_some() && rx.try_recv().is_some());
        assert!(!tx.try_send(MsgFlags::DATA, b"z"), "no credit came back");
        assert_eq!((tx.acked(), rx.unreturned()), (0, 2));
        assert_eq!(tx.stats.credit_stalls, 1);
    }

    #[test]
    fn cross_thread_delivery_keeps_order_and_credits() {
        let (mut tx, mut rx) = spsc_channel(cfg(4));
        let producer = std::thread::spawn(move || {
            for i in 0..1000u32 {
                while !tx.try_send(MsgFlags::STATE_DELTA, &i.to_le_bytes()) {
                    std::thread::yield_now();
                }
            }
            while tx.acked() < tx.next_seq() {
                std::thread::yield_now();
            }
            tx
        });
        let mut expect = 0u32;
        while expect < 1000 {
            match rx.try_recv() {
                Some((_, payload)) => {
                    assert_eq!(payload, expect.to_le_bytes());
                    expect += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        let tx = producer.join().expect("producer exits");
        assert_eq!(tx.acked(), tx.next_seq());
        assert_eq!(tx.stats.violations.total() + rx.stats.violations.total(), 0);
    }

    #[test]
    fn vanished_consumer_reads_as_link_error() {
        let (mut tx, rx) = spsc_channel(cfg(2));
        drop(rx);
        assert!(!tx.try_send(MsgFlags::STATE_DELTA, &[1]));
        assert!(tx.is_error());
    }
}

//! Property-based tests of the RDMA channel protocol (paper §6.2).
//!
//! The protocol's stated guarantees — FIFO delivery, no overwrites of
//! unread buffers, credit conservation, self-adjusting rate — must hold for
//! *every* interleaving of producer sends, consumer polls, and simulation
//! progress. Seeded loops over the deterministic `DetRng` generator drive
//! randomized schedules against the real channel over the real simulated
//! fabric; every failure reproduces from its printed seed, with no external
//! dependencies (the suite runs fully offline).

use slash_desim::{DetRng, Sim, SimTime};
use slash_net::{create_channel, ChannelConfig, MsgFlags};
use slash_rdma::{Fabric, FabricConfig};

/// One step of a randomized schedule.
#[derive(Debug, Clone)]
enum Op {
    /// Producer attempts to send the next numbered message.
    Send,
    /// Consumer attempts to poll one message.
    Recv,
    /// Let the simulation advance by a bounded amount of virtual time.
    Advance(u32),
    /// Let the simulation run to quiescence.
    Drain,
}

/// Draw one schedule step with the same weights the proptest version used
/// (3 send : 3 recv : 2 advance : 1 drain).
fn draw_op(rng: &mut DetRng) -> Op {
    match rng.next_below(9) {
        0..=2 => Op::Send,
        3..=5 => Op::Recv,
        6..=7 => Op::Advance(1 + rng.next_below(9_999) as u32),
        _ => Op::Drain,
    }
}

/// Under any schedule: messages arrive in FIFO order with intact payloads,
/// and the credit invariant `in_flight = sent - consumed_acked <= c` holds
/// at every step.
#[test]
fn fifo_and_credit_conservation() {
    for seed in 0..128u64 {
        let mut rng = DetRng::new(0xC0FFEE ^ seed);
        let n_ops = 1 + rng.next_below(199) as usize;
        let credits = 1 + rng.next_below(11) as usize;
        let buf_size = 48 + rng.next_below(208) as usize;

        let mut sim = Sim::new();
        let fabric = Fabric::new(FabricConfig::default());
        let a = fabric.add_node();
        let b = fabric.add_node();
        let cfg = ChannelConfig {
            credits,
            buffer_size: buf_size,
            credit_batch: 1,
        };
        let (mut tx, mut rx) = create_channel(&fabric, a, b, cfg);

        let mut next_to_send = 0u64;
        let mut next_expected = 0u64;

        for _ in 0..n_ops {
            match draw_op(&mut rng) {
                Op::Send => {
                    let sent = tx
                        .try_send(&mut sim, MsgFlags::DATA, &next_to_send.to_le_bytes())
                        .unwrap();
                    if sent {
                        next_to_send += 1;
                    }
                    // Credit conservation: `credits() = c - in_flight` must
                    // stay within [0, c]. (`credits()` computes it with
                    // unsigned arithmetic, so an in_flight > c protocol bug
                    // would panic right here.)
                    assert!(tx.credits() <= credits, "seed {seed}");
                }
                Op::Recv => {
                    if let Some((flags, data)) = rx.try_recv(&mut sim).unwrap() {
                        assert_eq!(flags, MsgFlags::DATA, "seed {seed}");
                        let v = u64::from_le_bytes(data.as_slice().try_into().unwrap());
                        assert_eq!(v, next_expected, "FIFO order violated, seed {seed}");
                        next_expected += 1;
                    }
                }
                Op::Advance(ns) => {
                    let t = sim.now() + SimTime::from_nanos(ns as u64);
                    sim.run_until(t);
                }
                Op::Drain => {
                    sim.run();
                }
            }
        }

        // Drain everything that is still in flight.
        loop {
            sim.run();
            match rx.try_recv(&mut sim).unwrap() {
                Some((_, data)) => {
                    let v = u64::from_le_bytes(data.as_slice().try_into().unwrap());
                    assert_eq!(v, next_expected, "seed {seed}");
                    next_expected += 1;
                }
                None => break,
            }
        }
        assert_eq!(next_expected, next_to_send, "message lost, seed {seed}");
    }
}

/// A producer that retries on stall eventually delivers every message, no
/// matter the credit budget or buffer size: the channel is deadlock-free
/// under in-order consumption.
#[test]
fn no_deadlock_under_minimal_credits() {
    for seed in 0..64u64 {
        let mut rng = DetRng::new(0xD00D ^ seed);
        let n_msgs = 1 + rng.next_below(63);
        let credits = 1 + rng.next_below(3) as usize;
        let batch = (1 + rng.next_below(2) as usize).min(credits);

        let mut sim = Sim::new();
        let fabric = Fabric::new(FabricConfig::default());
        let a = fabric.add_node();
        let b = fabric.add_node();
        let cfg = ChannelConfig {
            credits,
            buffer_size: 64,
            credit_batch: batch,
        };
        let (mut tx, mut rx) = create_channel(&fabric, a, b, cfg);

        let mut sent = 0u64;
        let mut got = 0u64;
        let mut spins = 0u32;
        while got < n_msgs {
            spins += 1;
            assert!(spins < 100_000, "protocol deadlocked, seed {seed}");
            if sent < n_msgs
                && tx
                    .try_send(&mut sim, MsgFlags::DATA, &sent.to_le_bytes())
                    .unwrap()
            {
                sent += 1;
            }
            sim.run();
            while let Some((_, data)) = rx.try_recv(&mut sim).unwrap() {
                let v = u64::from_le_bytes(data.as_slice().try_into().unwrap());
                assert_eq!(v, got, "seed {seed}");
                got += 1;
            }
            sim.run();
        }
        assert_eq!(got, n_msgs, "seed {seed}");
    }
}

/// Payload integrity: arbitrary binary payloads of arbitrary legal sizes
/// survive the trip bit-for-bit, including zero-length ones.
#[test]
fn payload_integrity() {
    for seed in 0..64u64 {
        let mut rng = DetRng::new(0xFACADE ^ seed);
        let n_payloads = 1 + rng.next_below(19) as usize;
        let payloads: Vec<Vec<u8>> = (0..n_payloads)
            .map(|_| {
                let len = rng.next_below(200) as usize;
                (0..len).map(|_| rng.next_u64() as u8).collect()
            })
            .collect();

        let mut sim = Sim::new();
        let fabric = Fabric::new(FabricConfig::default());
        let a = fabric.add_node();
        let b = fabric.add_node();
        let cfg = ChannelConfig {
            credits: 4,
            buffer_size: 256,
            credit_batch: 1,
        };
        let (mut tx, mut rx) = create_channel(&fabric, a, b, cfg);

        let mut received: Vec<Vec<u8>> = Vec::new();
        let mut it = payloads.iter();
        let mut pending: Option<&Vec<u8>> = it.next();
        let mut spins = 0;
        while received.len() < payloads.len() {
            spins += 1;
            assert!(spins < 100_000, "seed {seed}");
            if let Some(p) = pending {
                if tx.try_send(&mut sim, MsgFlags::DATA, p).unwrap() {
                    pending = it.next();
                }
            }
            sim.run();
            while let Some((_, data)) = rx.try_recv(&mut sim).unwrap() {
                received.push(data);
            }
            sim.run();
        }
        assert_eq!(received, payloads, "seed {seed}");
    }
}

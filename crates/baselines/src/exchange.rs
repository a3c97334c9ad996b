//! Transport abstraction for the partitioned engine's exchange layer.
//!
//! The *same* partitioning engine runs over two transports:
//!
//! * [`TxChan::Rdma`]/[`RxChan::Rdma`] — the credit-based one-sided RDMA
//!   channel (lightweight integration → RDMA UpPar);
//! * [`TxChan::Socket`]/[`RxChan::Socket`] — the socket/IPoIB channel with
//!   copies and syscalls (plug-and-play integration → Flink-sim).
//!
//! Exchange messages carry a *lane* id (the sender thread within the
//! producing node) so receivers can track per-lane watermarks: each lane's
//! record timestamps are monotone, making `min` over lanes a correct low
//! watermark.

use std::cell::RefCell;
use std::rc::Rc;

use slash_desim::{Sim, SimTime};
use slash_net::{ChannelReceiver, ChannelSender, MsgFlags, SocketReceiver, SocketSender};

/// A parsed exchange message.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ExchangeMsg {
    /// Records from one lane.
    Data {
        /// Sender lane (global sender-thread id).
        lane: u32,
        /// Raw record bytes.
        records: Vec<u8>,
    },
    /// Watermark from one lane.
    Watermark {
        /// Sender lane.
        lane: u32,
        /// The lane's low watermark.
        wm: u64,
    },
    /// The lane is done (its watermark is +∞ from now on).
    LaneDone {
        /// Sender lane.
        lane: u32,
    },
}

fn encode(msg: &ExchangeMsg, out: &mut Vec<u8>) {
    out.clear();
    match msg {
        ExchangeMsg::Data { lane, records } => {
            out.push(0);
            out.extend_from_slice(&lane.to_le_bytes());
            out.extend_from_slice(records);
        }
        ExchangeMsg::Watermark { lane, wm } => {
            out.push(1);
            out.extend_from_slice(&lane.to_le_bytes());
            out.extend_from_slice(&wm.to_le_bytes());
        }
        ExchangeMsg::LaneDone { lane } => {
            out.push(2);
            out.extend_from_slice(&lane.to_le_bytes());
        }
    }
}

fn decode(payload: &[u8]) -> ExchangeMsg {
    let lane = u32::from_le_bytes(payload[1..5].try_into().unwrap());
    match payload[0] {
        0 => ExchangeMsg::Data {
            lane,
            records: payload[5..].to_vec(),
        },
        1 => ExchangeMsg::Watermark {
            lane,
            wm: u64::from_le_bytes(payload[5..13].try_into().unwrap()),
        },
        2 => ExchangeMsg::LaneDone { lane },
        other => panic!("corrupt exchange message kind {other}"),
    }
}

/// Per-message wire overhead of the exchange framing.
pub(crate) const EXCHANGE_HEADER: usize = 5;

/// Sending half of an exchange edge. RDMA senders are shared by all
/// sender threads of a node (one channel per `(node, consumer)`), hence
/// the `Rc<RefCell<…>>`.
#[derive(Clone)]
pub(crate) enum TxChan {
    /// Credit-based one-sided RDMA channel.
    Rdma(Rc<RefCell<ChannelSender>>),
    /// Socket-style channel.
    Socket(Rc<RefCell<SocketSender>>),
}

impl TxChan {
    /// Maximum record bytes per data message.
    pub(crate) fn data_capacity(&self) -> usize {
        match self {
            TxChan::Rdma(c) => c.borrow().payload_capacity() - EXCHANGE_HEADER,
            // Sockets have no slot bound; use the paper's default buffer.
            TxChan::Socket(_) => 64 * 1024 - EXCHANGE_HEADER,
        }
    }

    /// Try to send a message. Returns false on backpressure (no credit /
    /// full socket buffer).
    pub(crate) fn try_send(&self, sim: &mut Sim, msg: &ExchangeMsg, scratch: &mut Vec<u8>) -> bool {
        encode(msg, scratch);
        match self {
            TxChan::Rdma(c) => c
                .borrow_mut()
                .try_send(sim, MsgFlags::DATA, scratch)
                .expect("exchange channel failure"),
            TxChan::Socket(c) => c.borrow_mut().try_send(sim, scratch),
        }
    }

    /// CPU time the transport consumed since the last call (socket
    /// syscalls and copies; zero for RDMA, whose costs the engine charges
    /// explicitly as work-request posts).
    pub(crate) fn take_cpu_cost(&self) -> SimTime {
        match self {
            TxChan::Rdma(_) => SimTime::ZERO,
            TxChan::Socket(c) => c.borrow_mut().take_cpu_cost(),
        }
    }
}

/// Receiving half of an exchange edge; owned by exactly one receiver
/// thread.
pub(crate) enum RxChan {
    /// Credit-based one-sided RDMA channel.
    Rdma(Box<ChannelReceiver>),
    /// Socket-style channel.
    Socket(SocketReceiver),
}

impl RxChan {
    /// Try to receive one message.
    pub(crate) fn try_recv(&mut self, sim: &mut Sim) -> Option<ExchangeMsg> {
        match self {
            RxChan::Rdma(c) => c
                .try_recv(sim)
                .expect("exchange channel failure")
                .map(|(_flags, payload)| decode(&payload)),
            RxChan::Socket(c) => c.try_recv().map(|payload| decode(&payload)),
        }
    }

    /// CPU time the transport consumed since the last call.
    pub(crate) fn take_cpu_cost(&mut self) -> SimTime {
        match self {
            RxChan::Rdma(_) => SimTime::ZERO,
            RxChan::Socket(c) => c.take_cpu_cost(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_roundtrip() {
        let mut buf = Vec::new();
        for msg in [
            ExchangeMsg::Data {
                lane: 7,
                records: vec![1, 2, 3],
            },
            ExchangeMsg::Watermark { lane: 3, wm: 999 },
            ExchangeMsg::LaneDone { lane: 12 },
        ] {
            encode(&msg, &mut buf);
            assert_eq!(decode(&buf), msg);
        }
    }

    #[test]
    fn exchange_over_rdma_channel() {
        use slash_net::{create_channel, ChannelConfig};
        use slash_rdma::{Fabric, FabricConfig};

        let mut sim = Sim::new();
        let fabric = Fabric::new(FabricConfig::default());
        let a = fabric.add_node();
        let b = fabric.add_node();
        let (tx, rx) = create_channel(&fabric, a, b, ChannelConfig::default());
        let tx = TxChan::Rdma(Rc::new(RefCell::new(tx)));
        let mut rx = RxChan::Rdma(Box::new(rx));

        let mut scratch = Vec::new();
        assert!(tx.try_send(
            &mut sim,
            &ExchangeMsg::Data {
                lane: 1,
                records: vec![9; 32],
            },
            &mut scratch,
        ));
        assert!(tx.try_send(
            &mut sim,
            &ExchangeMsg::Watermark { lane: 1, wm: 5 },
            &mut scratch
        ));
        sim.run();
        assert_eq!(
            rx.try_recv(&mut sim),
            Some(ExchangeMsg::Data {
                lane: 1,
                records: vec![9; 32],
            })
        );
        assert_eq!(
            rx.try_recv(&mut sim),
            Some(ExchangeMsg::Watermark { lane: 1, wm: 5 })
        );
        assert_eq!(rx.try_recv(&mut sim), None);
    }

    #[test]
    fn exchange_over_socket() {
        use slash_net::{socket_pair, SocketConfig};
        use slash_rdma::{Fabric, FabricConfig};

        let mut sim = Sim::new();
        let fabric = Fabric::new(FabricConfig::default());
        let a = fabric.add_node();
        let b = fabric.add_node();
        let (tx, rx) = socket_pair(&fabric, a, b, SocketConfig::default());
        let tx = TxChan::Socket(Rc::new(RefCell::new(tx)));
        let mut rx = RxChan::Socket(rx);

        let mut scratch = Vec::new();
        assert!(tx.try_send(&mut sim, &ExchangeMsg::LaneDone { lane: 2 }, &mut scratch));
        assert!(tx.take_cpu_cost() > SimTime::ZERO, "sockets cost CPU");
        sim.run();
        assert_eq!(
            rx.try_recv(&mut sim),
            Some(ExchangeMsg::LaneDone { lane: 2 })
        );
    }
}

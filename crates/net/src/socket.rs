//! Socket-style (TCP over IPoIB) channel — the *plug-and-play* integration.
//!
//! Used by the Flink baseline. Compared to the RDMA channel it models the
//! structural costs the paper attributes to socket networking on RDMA
//! hardware (§2.1, §3.1):
//!
//! * **Reduced goodput**: IPoIB does not saturate the link; achievable
//!   bandwidth is an `efficiency` fraction of the verbs bandwidth.
//! * **Syscall overhead**: every send/recv charges CPU time for the
//!   user/kernel transition.
//! * **Data copies**: payloads are copied between user and kernel space on
//!   both sides, charged at a memcpy bandwidth.
//!
//! CPU costs accrue on the endpoint and must be drained with
//! [`SocketSender::take_cpu_cost`] / [`SocketReceiver::take_cpu_cost`] by
//! the engine that owns the thread, which charges them to its virtual CPU.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use slash_desim::{ProcId, Sim, SimTime};
use slash_rdma::{Fabric, NodeId};

/// Socket stack parameters.
#[derive(Debug, Clone, Copy)]
pub struct SocketConfig {
    /// Fraction of the verbs bandwidth IPoIB achieves (the paper cites
    /// prior work measuring well under half on small messages).
    pub efficiency: f64,
    /// CPU cost of one send or recv syscall.
    pub syscall_overhead: SimTime,
    /// Memcpy bandwidth for the user/kernel copy, bytes/second.
    pub copy_bandwidth: u64,
    /// Socket buffer capacity in messages (backpressure bound).
    pub capacity: usize,
}

impl Default for SocketConfig {
    fn default() -> Self {
        SocketConfig {
            efficiency: 0.45,
            syscall_overhead: SimTime::from_nanos(2_000),
            copy_bandwidth: 8_000_000_000,
            capacity: 64,
        }
    }
}

enum SockMsg {
    Data(Vec<u8>),
    Eos,
}

struct SocketShared {
    queue: VecDeque<SockMsg>,
    capacity: usize,
    /// Messages in flight (sent, not yet delivered) — count toward the
    /// backpressure bound so an infinite pipe cannot form.
    in_flight: usize,
    recv_waiter: Option<ProcId>,
    send_waiter: Option<ProcId>,
    eos: bool,
}

/// Sending half of a socket-style channel.
pub struct SocketSender {
    fabric: Fabric,
    shared: Rc<RefCell<SocketShared>>,
    local: NodeId,
    peer: NodeId,
    cfg: SocketConfig,
    cpu_cost: SimTime,
    /// Payload bytes pushed.
    pub bytes_sent: u64,
    /// Sends rejected due to a full socket buffer.
    pub backpressure_stalls: u64,
}

/// Receiving half of a socket-style channel.
pub struct SocketReceiver {
    shared: Rc<RefCell<SocketShared>>,
    cfg: SocketConfig,
    cpu_cost: SimTime,
    /// Payload bytes drained.
    pub bytes_received: u64,
}

/// Create a socket-style channel between two nodes.
pub fn socket_pair(
    fabric: &Fabric,
    producer: NodeId,
    consumer: NodeId,
    cfg: SocketConfig,
) -> (SocketSender, SocketReceiver) {
    assert!(cfg.efficiency > 0.0 && cfg.efficiency <= 1.0);
    let shared = Rc::new(RefCell::new(SocketShared {
        queue: VecDeque::new(),
        capacity: cfg.capacity,
        in_flight: 0,
        recv_waiter: None,
        send_waiter: None,
        eos: false,
    }));
    (
        SocketSender {
            fabric: fabric.clone(),
            shared: Rc::clone(&shared),
            local: producer,
            peer: consumer,
            cfg,
            cpu_cost: SimTime::ZERO,
            bytes_sent: 0,
            backpressure_stalls: 0,
        },
        SocketReceiver {
            shared,
            cfg,
            cpu_cost: SimTime::ZERO,
            bytes_received: 0,
        },
    )
}

impl SocketSender {
    /// Try to send a payload. Returns false (and charges nothing but a
    /// failed syscall) when the socket buffer is full.
    pub fn try_send(&mut self, sim: &mut Sim, data: &[u8]) -> bool {
        let mut sh = self.shared.borrow_mut();
        if sh.queue.len() + sh.in_flight >= sh.capacity {
            self.backpressure_stalls += 1;
            // A would-block send still pays the syscall.
            self.cpu_cost += self.cfg.syscall_overhead;
            return false;
        }
        sh.in_flight += 1;
        drop(sh);
        // Syscall + user->kernel copy on the sender.
        self.cpu_cost += self.cfg.syscall_overhead
            + slash_desim::clock::transfer_time(data.len() as u64, self.cfg.copy_bandwidth);
        self.bytes_sent += data.len() as u64;
        // Goodput degradation: inflate the wire size.
        let wire_bytes = (data.len() as f64 / self.cfg.efficiency).ceil() as u64;
        let deliver_at = self
            .fabric
            .plan(sim.now(), self.local, self.peer, wire_bytes);
        let shared = Rc::clone(&self.shared);
        let payload = data.to_vec();
        let label = slash_desim::EventLabel::channel(self.local.0, self.peer.0);
        sim.schedule_at_labeled(deliver_at, label, move |sim| {
            let mut sh = shared.borrow_mut();
            sh.in_flight -= 1;
            sh.queue.push_back(SockMsg::Data(payload));
            if let Some(pid) = sh.recv_waiter.take() {
                sim.wake(pid);
            }
        });
        true
    }

    /// Send end-of-stream (always fits: EOS is not subject to capacity).
    pub fn send_eos(&mut self, sim: &mut Sim) {
        self.cpu_cost += self.cfg.syscall_overhead;
        let deliver_at = self.fabric.plan(sim.now(), self.local, self.peer, 1);
        let shared = Rc::clone(&self.shared);
        let label = slash_desim::EventLabel::channel(self.local.0, self.peer.0);
        sim.schedule_at_labeled(deliver_at, label, move |sim| {
            let mut sh = shared.borrow_mut();
            sh.queue.push_back(SockMsg::Eos);
            if let Some(pid) = sh.recv_waiter.take() {
                sim.wake(pid);
            }
        });
    }

    /// Park `pid` until buffer space frees up.
    pub fn arm(&self, pid: ProcId) {
        self.shared.borrow_mut().send_waiter = Some(pid);
    }

    /// Drain the CPU time this endpoint consumed since the last call.
    pub fn take_cpu_cost(&mut self) -> SimTime {
        std::mem::take(&mut self.cpu_cost)
    }
}

impl SocketReceiver {
    /// Try to pop the next message. `None` means nothing available yet;
    /// `Some(None)` means end-of-stream.
    #[allow(clippy::option_option)]
    pub fn try_recv(&mut self, sim: &mut Sim) -> Option<Option<Vec<u8>>> {
        let mut sh = self.shared.borrow_mut();
        let msg = sh.queue.pop_front()?;
        if let Some(pid) = sh.send_waiter.take() {
            sim.wake(pid);
        }
        drop(sh);
        self.cpu_cost += self.cfg.syscall_overhead;
        match msg {
            SockMsg::Data(d) => {
                // Kernel->user copy on the receiver.
                self.cpu_cost +=
                    slash_desim::clock::transfer_time(d.len() as u64, self.cfg.copy_bandwidth);
                self.bytes_received += d.len() as u64;
                Some(Some(d))
            }
            SockMsg::Eos => {
                self.shared.borrow_mut().eos = true;
                Some(None)
            }
        }
    }

    /// Whether end-of-stream has been observed.
    pub fn eos(&self) -> bool {
        self.shared.borrow().eos
    }

    /// Park `pid` until a message arrives.
    pub fn arm(&self, pid: ProcId) {
        self.shared.borrow_mut().recv_waiter = Some(pid);
    }

    /// Drain the CPU time this endpoint consumed since the last call.
    pub fn take_cpu_cost(&mut self) -> SimTime {
        std::mem::take(&mut self.cpu_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slash_rdma::FabricConfig;

    fn setup(cfg: SocketConfig) -> (Sim, SocketSender, SocketReceiver) {
        let sim = Sim::new();
        let fabric = Fabric::new(FabricConfig::default());
        let a = fabric.add_node();
        let b = fabric.add_node();
        let (tx, rx) = socket_pair(&fabric, a, b, cfg);
        (sim, tx, rx)
    }

    #[test]
    fn roundtrip_and_eos() {
        let (mut sim, mut tx, mut rx) = setup(SocketConfig::default());
        assert!(tx.try_send(&mut sim, b"flink record"));
        tx.send_eos(&mut sim);
        sim.run();
        assert_eq!(rx.try_recv(&mut sim), Some(Some(b"flink record".to_vec())));
        assert_eq!(rx.try_recv(&mut sim), Some(None));
        assert!(rx.eos());
        assert_eq!(rx.try_recv(&mut sim), None);
    }

    #[test]
    fn backpressure_bounds_the_pipe() {
        let cfg = SocketConfig {
            capacity: 4,
            ..SocketConfig::default()
        };
        let (mut sim, mut tx, _rx) = setup(cfg);
        let mut accepted = 0;
        for _ in 0..100 {
            if tx.try_send(&mut sim, b"x") {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 4);
        assert_eq!(tx.backpressure_stalls, 96);
    }

    #[test]
    fn cpu_costs_accrue_and_drain() {
        let (mut sim, mut tx, mut rx) = setup(SocketConfig::default());
        assert!(tx.try_send(&mut sim, &vec![0u8; 8192]));
        let cost = tx.take_cpu_cost();
        // Syscall (2µs) + 8KiB at 8GB/s (1µs) ≈ 3µs.
        assert!(cost.as_nanos() >= 3_000, "{cost}");
        assert_eq!(tx.take_cpu_cost(), SimTime::ZERO);
        sim.run();
        rx.try_recv(&mut sim).unwrap();
        assert!(rx.take_cpu_cost().as_nanos() >= 3_000);
    }

    #[test]
    fn socket_is_slower_than_rdma_for_same_bytes() {
        // The structural claim behind the paper's IPoIB comparison.
        let (mut sim, mut tx, mut rx) = setup(SocketConfig::default());
        let payload = vec![7u8; 256 * 1024];
        assert!(tx.try_send(&mut sim, &payload));
        let t_sock = sim.run();

        let mut sim2 = Sim::new();
        let fabric = Fabric::new(FabricConfig::default());
        let a = fabric.add_node();
        let b = fabric.add_node();
        let (mut rtx, mut rrx) = crate::channel::create_channel(
            &fabric,
            a,
            b,
            crate::ChannelConfig {
                buffer_size: 512 * 1024,
                ..Default::default()
            },
        );
        assert!(rtx
            .try_send(&mut sim2, crate::MsgFlags::DATA, &payload)
            .unwrap());
        let t_rdma = sim2.run();
        assert!(
            t_sock.as_nanos() > 2 * t_rdma.as_nanos(),
            "socket {t_sock} vs rdma {t_rdma}"
        );
        assert!(rx.try_recv(&mut sim).is_some());
        assert!(rrx.try_recv(&mut sim2).unwrap().is_some());
    }
}

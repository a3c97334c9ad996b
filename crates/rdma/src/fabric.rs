//! The fabric: nodes, NICs, memory registration, connection setup.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use slash_desim::SimTime;

use crate::cq::CqHandle;
use crate::error::{RdmaError, Result};
use crate::memory::{Mr, RemoteKey};
use crate::nic::{plan_transfer, Nic, NicConfig, NicStats};
use crate::qp::{Qp, QpShared};

/// Identifier of a node (server) attached to the fabric.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Fabric-wide configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricConfig {
    /// NIC configuration applied to every node (homogeneous rack, as in the
    /// paper's testbed).
    pub nic: NicConfig,
}

/// Injected fault state of one node (all clear in a healthy fabric).
///
/// Mutated only by the fault-injection layer (`slash_core::chaos`)
/// through the [`Fabric`] fault hooks; the data path consults it at post and delivery
/// time so failures surface as flushed completions, never as panics.
#[derive(Debug, Clone, Copy, Default)]
struct FaultState {
    /// The node has crashed: its memory and NIC are gone for good.
    dead: bool,
    /// The node's link is administratively/physically down (flap window).
    link_down: bool,
    /// Extra per-message delay while the NIC is degraded or completions
    /// are being delayed (zero when healthy).
    extra_delay: SimTime,
}

struct NodeState {
    nic: Nic,
    mrs: Vec<Mr>, // indexed by rkey
    fault: FaultState,
}

pub(crate) struct FabricInner {
    cfg: FabricConfig,
    nodes: Vec<NodeState>,
}

/// Handle to the shared fabric. Cheap to clone.
#[derive(Clone)]
pub struct Fabric {
    pub(crate) inner: Rc<RefCell<FabricInner>>,
}

impl Fabric {
    /// Create an empty fabric.
    pub fn new(cfg: FabricConfig) -> Self {
        Fabric {
            inner: Rc::new(RefCell::new(FabricInner {
                cfg,
                nodes: Vec::new(),
            })),
        }
    }

    /// Attach a node with the fabric-wide NIC configuration.
    pub fn add_node(&self) -> NodeId {
        let mut inner = self.inner.borrow_mut();
        let id = NodeId(inner.nodes.len() as u32);
        let nic_cfg = inner.cfg.nic;
        inner.nodes.push(NodeState {
            nic: Nic::new(nic_cfg),
            mrs: Vec::new(),
            fault: FaultState::default(),
        });
        id
    }

    /// Attach `n` nodes, returning their ids.
    pub fn add_nodes(&self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_node()).collect()
    }

    /// Number of attached nodes.
    pub fn node_count(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// Register a memory region of `len` bytes on `node`.
    pub fn register(&self, node: NodeId, len: usize) -> Mr {
        let mut inner = self.inner.borrow_mut();
        let state = &mut inner.nodes[node.index()];
        let rkey = state.mrs.len() as u32;
        let mr = Mr::new(node, rkey, len);
        state.mrs.push(mr.clone());
        mr
    }

    /// Resolve a remote key to its region.
    pub(crate) fn resolve(&self, key: RemoteKey) -> Result<Mr> {
        let inner = self.inner.borrow();
        inner
            .nodes
            .get(key.node.index())
            .and_then(|n| n.mrs.get(key.rkey as usize))
            .cloned()
            .ok_or(RdmaError::InvalidRkey {
                node: key.node.0,
                rkey: key.rkey,
            })
    }

    /// Establish a reliable connection between two nodes. Returns the two
    /// queue-pair endpoints; each endpoint completes sends into its
    /// `send_cq` and receives into its `recv_cq`.
    pub fn connect(
        &self,
        a: NodeId,
        a_send_cq: CqHandle,
        a_recv_cq: CqHandle,
        b: NodeId,
        b_send_cq: CqHandle,
        b_recv_cq: CqHandle,
    ) -> (Qp, Qp) {
        let a_shared = Rc::new(RefCell::new(QpShared::new(a_send_cq, a_recv_cq)));
        let b_shared = Rc::new(RefCell::new(QpShared::new(b_send_cq, b_recv_cq)));
        let qp_a = Qp::new(
            self.clone(),
            a,
            b,
            Rc::clone(&a_shared),
            Rc::clone(&b_shared),
        );
        let qp_b = Qp::new(self.clone(), b, a, b_shared, a_shared);
        (qp_a, qp_b)
    }

    /// Plan a paced transfer between two nodes; returns the delivery time.
    /// Loopback (same node) transfers skip the wire but still pay the
    /// per-message overhead.
    ///
    /// This is a low-level hook used by non-verbs transports (the
    /// socket-style channel of the Flink baseline) to share the same paced
    /// wire; verbs users should go through a queue pair.
    pub fn plan(&self, now: SimTime, src: NodeId, dst: NodeId, bytes: u64) -> SimTime {
        let mut inner = self.inner.borrow_mut();
        let extra =
            inner.nodes[src.index()].fault.extra_delay + inner.nodes[dst.index()].fault.extra_delay;
        if src == dst {
            let overhead = inner.cfg.nic.per_message_overhead;
            let nic = &mut inner.nodes[src.index()].nic;
            nic.stats.tx_bytes += bytes;
            nic.stats.tx_msgs += 1;
            nic.stats.rx_bytes += bytes;
            nic.stats.rx_msgs += 1;
            return now + overhead + extra;
        }
        let (lo, hi) = if src.index() < dst.index() {
            (src.index(), dst.index())
        } else {
            (dst.index(), src.index())
        };
        let (head, tail) = inner.nodes.split_at_mut(hi);
        let (first, second) = (&mut head[lo], &mut tail[0]);
        let (s, d) = if src.index() < dst.index() {
            (first, second)
        } else {
            (second, first)
        };
        plan_transfer(now, &mut s.nic, &mut d.nic, bytes) + extra
    }

    /// One-way wire latency (used for ack scheduling).
    pub fn ack_latency(&self) -> SimTime {
        self.inner.borrow().cfg.nic.latency
    }

    // --- Fault-injection hooks (driven by `slash_core::chaos`) ----------

    /// Crash `node`: its NIC stops forever and every reliable connection
    /// touching it flushes outstanding work. Irreversible — a recovered
    /// workload re-homes the node's logical role elsewhere.
    pub fn fail_node(&self, node: NodeId) {
        self.inner.borrow_mut().nodes[node.index()].fault.dead = true;
    }

    /// Whether `node` is still alive (control-plane heartbeat view).
    pub fn node_alive(&self, node: NodeId) -> bool {
        !self.inner.borrow().nodes[node.index()].fault.dead
    }

    /// Take `node`'s link down (`true`) or bring it back up (`false`) —
    /// the link-flap fault. While down, deliveries to and from the node are
    /// flushed; the node itself keeps running.
    pub fn set_link_down(&self, node: NodeId, down: bool) {
        self.inner.borrow_mut().nodes[node.index()].fault.link_down = down;
    }

    /// Whether `node`'s link is up and the node is alive (port state as a
    /// real NIC would report it to the control plane).
    pub fn link_up(&self, node: NodeId) -> bool {
        let f = self.inner.borrow().nodes[node.index()].fault;
        !f.dead && !f.link_down
    }

    /// Add `extra` delay to every message touching `node` (degraded link /
    /// delayed completions). Pass [`SimTime::ZERO`] to clear.
    pub fn set_extra_delay(&self, node: NodeId, extra: SimTime) {
        self.inner.borrow_mut().nodes[node.index()]
            .fault
            .extra_delay = extra;
    }

    /// Whether a message can currently travel between `a` and `b`: both
    /// endpoints alive with their links up. Consulted at post *and*
    /// delivery time, so a fault landing mid-flight flushes the transfer.
    pub fn path_up(&self, a: NodeId, b: NodeId) -> bool {
        let inner = self.inner.borrow();
        let fa = inner.nodes[a.index()].fault;
        let fb = inner.nodes[b.index()].fault;
        !fa.dead && !fa.link_down && !fb.dead && !fb.link_down
    }

    /// NIC statistics of a node.
    pub fn nic_stats(&self, node: NodeId) -> NicStats {
        self.inner.borrow().nodes[node.index()].nic.stats
    }

    /// Mean TX utilization of a node's ports over `[0, now]`.
    pub fn tx_utilization(&self, node: NodeId, now: SimTime) -> f64 {
        self.inner.borrow().nodes[node.index()]
            .nic
            .tx_utilization(now)
    }

    /// Mean RX utilization of a node's ports over `[0, now]`.
    pub fn rx_utilization(&self, node: NodeId, now: SimTime) -> f64 {
        self.inner.borrow().nodes[node.index()]
            .nic
            .rx_utilization(now)
    }

    /// Aggregate bytes moved across the fabric (TX side).
    pub fn total_tx_bytes(&self) -> u64 {
        self.inner
            .borrow()
            .nodes
            .iter()
            .map(|n| n.nic.stats.tx_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_and_regions_get_stable_ids() {
        let f = Fabric::new(FabricConfig::default());
        let a = f.add_node();
        let b = f.add_node();
        assert_eq!((a.0, b.0), (0, 1));
        let m0 = f.register(a, 64);
        let m1 = f.register(a, 64);
        assert_ne!(m0.remote_key(), m1.remote_key());
        assert_eq!(
            f.resolve(m0.remote_key()).unwrap().remote_key(),
            m0.remote_key()
        );
    }

    #[test]
    fn resolving_unknown_rkey_fails() {
        let f = Fabric::new(FabricConfig::default());
        let a = f.add_node();
        let err = f.resolve(RemoteKey { node: a, rkey: 99 }).unwrap_err();
        assert!(matches!(err, RdmaError::InvalidRkey { rkey: 99, .. }));
    }

    #[test]
    fn plan_is_paced_by_bandwidth() {
        let f = Fabric::new(FabricConfig {
            nic: NicConfig {
                bandwidth: 1_000_000_000,
                latency: SimTime::from_nanos(100),
                per_message_overhead: SimTime::from_nanos(10),
                ports: 1,
            },
        });
        let a = f.add_node();
        let b = f.add_node();
        let t1 = f.plan(SimTime::ZERO, a, b, 1000);
        let t2 = f.plan(SimTime::ZERO, a, b, 1000);
        assert_eq!(t1.as_nanos(), 1110);
        assert!(t2 > t1);
        assert_eq!(f.total_tx_bytes(), 2000);
    }

    #[test]
    fn loopback_skips_the_wire() {
        let f = Fabric::new(FabricConfig::default());
        let a = f.add_node();
        let t = f.plan(SimTime::ZERO, a, a, 1 << 20);
        assert_eq!(t, FabricConfig::default().nic.per_message_overhead);
    }
}

//! Reliable-connection queue pairs.

use std::cell::RefCell;
use std::rc::Rc;

use slash_desim::{EventLabel, Sim, SimTime};

use crate::cq::{Completion, CompletionStatus, CqHandle};
use crate::error::{RdmaError, Result};
use crate::fabric::{Fabric, NodeId};
use crate::verbs::WorkRequest;

/// Per-endpoint state shared between the local QP handle and delivery
/// events targeting it.
pub(crate) struct QpShared {
    send_cq: CqHandle,
    /// The endpoint is in the error state: a work request was flushed.
    /// Further posts are rejected until [`Qp::reset`].
    error: bool,
    /// Connection incarnation. Bumped by [`Qp::reset`]; in-flight delivery
    /// events capture the incarnation at post time and become no-ops if it
    /// changed (fencing stale traffic across a re-establishment).
    generation: u64,
    /// Delivery time of the last outbound work request posted from this
    /// endpoint. RC delivers in post order; with multi-port NICs the rails
    /// stripe messages independently and a later message could otherwise
    /// finish first, so every delivery is fenced behind its predecessor
    /// (as the responder's reorder logic would on real bonded fabrics).
    last_delivery: SimTime,
}

impl QpShared {
    pub(crate) fn new(send_cq: CqHandle) -> Self {
        QpShared {
            send_cq,
            error: false,
            generation: 0,
            last_delivery: SimTime::ZERO,
        }
    }
}

/// The connection incarnation a delivery event must match to take effect:
/// both endpoints' generations at post time.
fn conn_generation(a: &Rc<RefCell<QpShared>>, b: &Rc<RefCell<QpShared>>) -> (u64, u64) {
    (a.borrow().generation, b.borrow().generation)
}

/// One endpoint of a reliable connection.
///
/// Work requests are posted through [`Qp::post_send`]; signaled ones
/// complete on the send completion queue supplied at connect time. Work
/// requests on one QP are delivered in post order (RC ordering).
#[derive(Clone)]
pub struct Qp {
    fabric: Fabric,
    local_node: NodeId,
    peer_node: NodeId,
    local: Rc<RefCell<QpShared>>,
    peer: Rc<RefCell<QpShared>>,
}

impl Qp {
    pub(crate) fn new(
        fabric: Fabric,
        local_node: NodeId,
        peer_node: NodeId,
        local: Rc<RefCell<QpShared>>,
        peer: Rc<RefCell<QpShared>>,
    ) -> Self {
        Qp {
            fabric,
            local_node,
            peer_node,
            local,
            peer,
        }
    }

    /// The node this endpoint lives on.
    pub fn local_node(&self) -> NodeId {
        self.local_node
    }

    /// The node at the other end.
    pub fn peer_node(&self) -> NodeId {
        self.peer_node
    }

    /// Whether this endpoint is in the error state (a work request was
    /// flushed). An errored QP rejects further posts until [`Qp::reset`].
    pub fn is_error(&self) -> bool {
        self.local.borrow().error
    }

    /// Reset this endpoint after a fault: clear the error state and bump
    /// the connection incarnation so every still-in-flight delivery
    /// targeting the old incarnation is fenced (silently dropped, exactly
    /// like traffic arriving for a torn-down QP number).
    ///
    /// Both endpoints of a connection must be reset to resume traffic.
    pub fn reset(&self) {
        let mut local = self.local.borrow_mut();
        local.error = false;
        local.generation += 1;
    }

    /// Fence a planned delivery behind this QP's previous one: RC delivers
    /// in post order, and multi-rail striping must not reorder messages of
    /// the same connection. Single-port fabrics serialize on the link, so
    /// the fence is a no-op there.
    fn fence_in_order(&self, planned: SimTime) -> SimTime {
        let mut local = self.local.borrow_mut();
        let at = if planned > local.last_delivery {
            planned
        } else {
            local.last_delivery + SimTime::from_nanos(1)
        };
        local.last_delivery = at;
        at
    }

    /// Post a one-sided WRITE. Validation happens eagerly; the bytes land
    /// in the remote region at the (bandwidth-paced) delivery time, and a
    /// signaled request completes one ack latency later.
    ///
    /// Fault semantics: posting to an errored QP fails with
    /// [`RdmaError::QpError`]. If the path to the peer is down at post time
    /// the request is accepted but immediately *flushed* — a signaled
    /// request produces a [`CompletionStatus::FlushErr`] completion one ack
    /// latency after the post and the QP moves to the error state, like a
    /// real RC exhausting its retry budget. A fault landing while the
    /// request is in flight flushes it at delivery time instead.
    pub fn post_send(&self, sim: &mut Sim, wr: WorkRequest) -> Result<()> {
        if self.local.borrow().error {
            return Err(RdmaError::QpError);
        }
        let WorkRequest::Write {
            wr_id,
            local,
            remote,
            signaled,
        } = wr;
        local.mr.check(local.offset, local.len)?;
        let remote_mr = self.fabric.resolve(remote.key)?;
        remote_mr.check(remote.offset, local.len)?;
        let payload = local.mr.with(local.offset, local.len, |s| s.to_vec())?;
        let byte_len = payload.len();
        let (src, dst) = (self.local_node, self.peer_node);
        let label = EventLabel::channel(src.0, dst.0);
        let send_cq = self.local.borrow().send_cq.clone();
        let completion = move |status| Completion {
            wr_id,
            byte_len,
            status,
        };
        if !self.fabric.path_up(src, dst) {
            self.local.borrow_mut().error = true;
            if signaled {
                let flushed = completion(CompletionStatus::FlushErr);
                let at = sim.now() + self.fabric.ack_latency();
                sim.schedule_at_labeled(at, label, move |_| send_cq.push(flushed));
            }
            return Ok(());
        }
        let deliver_at =
            self.fence_in_order(self.fabric.plan(sim.now(), src, dst, byte_len as u64));
        let ack_at = deliver_at + self.fabric.ack_latency();
        let fabric = self.fabric.clone();
        let gen = conn_generation(&self.local, &self.peer);
        let (local_sh, peer_sh) = (Rc::clone(&self.local), Rc::clone(&self.peer));
        sim.schedule_at_labeled(deliver_at, label, move |sim| {
            if conn_generation(&local_sh, &peer_sh) != gen {
                return; // connection was reset mid-flight: fenced
            }
            let ok = fabric.path_up(src, dst) && remote_mr.write(remote.offset, &payload).is_ok();
            if !ok {
                local_sh.borrow_mut().error = true;
            }
            if signaled {
                let done = completion(if ok {
                    CompletionStatus::Success
                } else {
                    CompletionStatus::FlushErr
                });
                sim.schedule_at_labeled(ack_at, label, move |_| send_cq.push(done));
            }
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricConfig;
    use crate::memory::Mr;
    use crate::nic::NicConfig;
    use crate::verbs::{LocalSlice, RemoteSlice};

    struct Pair {
        sim: Sim,
        fabric: Fabric,
        qp_a: Qp,
        qp_b: Qp,
        a_send: CqHandle,
        a: NodeId,
        b: NodeId,
    }

    fn setup_with(cfg: FabricConfig) -> Pair {
        let sim = Sim::new();
        let fabric = Fabric::new(cfg);
        let a = fabric.add_node();
        let b = fabric.add_node();
        let a_send = CqHandle::new();
        let (qp_a, qp_b) = fabric.connect(
            a,
            a_send.clone(),
            CqHandle::new(),
            b,
            CqHandle::new(),
            CqHandle::new(),
        );
        Pair {
            sim,
            fabric,
            qp_a,
            qp_b,
            a_send,
            a,
            b,
        }
    }

    fn setup() -> Pair {
        setup_with(FabricConfig::default())
    }

    /// Post a WRITE of `local` to `offset` in `dst` from node a to node b.
    fn write(
        p: &mut Pair,
        wr_id: u64,
        local: LocalSlice,
        dst: &Mr,
        offset: usize,
        signaled: bool,
    ) -> Result<()> {
        let remote = RemoteSlice {
            key: dst.remote_key(),
            offset,
        };
        p.qp_a.post_send(
            &mut p.sim,
            WorkRequest::Write {
                wr_id,
                local,
                remote,
                signaled,
            },
        )
    }

    #[test]
    fn one_sided_write_lands_and_completes() {
        let mut p = setup();
        let src = p.fabric.register(p.a, 64);
        let dst = p.fabric.register(p.b, 64);
        src.write(0, b"hello rdma").unwrap();
        write(&mut p, 7, LocalSlice::range(&src, 0, 10), &dst, 16, true).unwrap();
        // Nothing is visible before the simulation runs.
        dst.with(16, 10, |s| assert_eq!(s, [0u8; 10])).unwrap();
        p.sim.run();
        dst.with(16, 10, |s| assert_eq!(s, b"hello rdma")).unwrap();
        let c = p.a_send.poll().expect("signaled write completes");
        assert_eq!(c.wr_id, 7);
        assert!(c.is_ok());
        assert_eq!(c.byte_len, 10);
    }

    #[test]
    fn unsignaled_write_generates_no_completion() {
        let mut p = setup();
        let src = p.fabric.register(p.a, 8);
        let dst = p.fabric.register(p.b, 8);
        write(&mut p, 1, LocalSlice::whole(&src), &dst, 0, false).unwrap();
        p.sim.run();
        assert!(p.a_send.is_empty());
    }

    #[test]
    fn writes_on_one_qp_deliver_in_order() {
        // A long write, then a short one to the same remote word: the
        // second must win. With two ports the short write rides the idle
        // rail and would land first without the per-QP delivery fence.
        for ports in [1, 2] {
            let nic = NicConfig {
                ports,
                ..NicConfig::default()
            };
            let mut p = setup_with(FabricConfig { nic });
            let src = p.fabric.register(p.a, 64 * 1024);
            let dst = p.fabric.register(p.b, 64 * 1024);
            src.write_u64(0, 111);
            write(&mut p, 1, LocalSlice::whole(&src), &dst, 0, false).unwrap();
            src.write_u64(0, 222);
            write(&mut p, 2, LocalSlice::range(&src, 0, 8), &dst, 0, false).unwrap();
            p.sim.run();
            assert_eq!(dst.read_u64(0), 222, "{ports} port(s)");
        }
    }

    #[test]
    fn write_to_dead_peer_flushes_and_errors_the_qp() {
        let mut p = setup();
        let src = p.fabric.register(p.a, 64);
        let dst = p.fabric.register(p.b, 64);
        p.fabric.fail_node(p.b);
        let posted = p.sim.now();
        write(&mut p, 42, LocalSlice::whole(&src), &dst, 0, true).unwrap();
        let surfaced = p.sim.run();
        assert_eq!(
            surfaced,
            posted + p.fabric.ack_latency(),
            "the flush completes one ack latency after the post"
        );
        let c = p.a_send.poll().expect("flushed completion must surface");
        assert_eq!(c.wr_id, 42);
        assert!(!c.is_ok(), "completion must carry FlushErr");
        assert!(p.qp_a.is_error(), "QP must be in the error state");
        assert!(matches!(
            write(&mut p, 43, LocalSlice::whole(&src), &dst, 0, false),
            Err(RdmaError::QpError)
        ));
    }

    #[test]
    fn link_down_mid_flight_flushes_at_delivery() {
        let mut p = setup();
        let src = p.fabric.register(p.a, 64);
        let dst = p.fabric.register(p.b, 64);
        src.write(0, b"payload!").unwrap();
        write(&mut p, 1, LocalSlice::range(&src, 0, 8), &dst, 0, true).unwrap();
        // The fault lands while the WRITE is on the wire.
        p.fabric.set_link_down(p.b, true);
        p.sim.run();
        let c = p.a_send.poll().unwrap();
        assert!(!c.is_ok());
        dst.with(0, 8, |s| assert_eq!(s, [0u8; 8], "no bytes must land"))
            .unwrap();
    }

    #[test]
    fn reset_clears_error_and_fences_stale_deliveries() {
        let mut p = setup();
        let src = p.fabric.register(p.a, 64);
        let dst = p.fabric.register(p.b, 64);
        src.write(0, b"stale!!!").unwrap();
        write(&mut p, 1, LocalSlice::range(&src, 0, 8), &dst, 0, false).unwrap();
        // Reset both endpoints before the delivery fires: the in-flight
        // WRITE belongs to the old incarnation and must be dropped.
        p.qp_a.reset();
        p.qp_b.reset();
        p.sim.run();
        dst.with(0, 8, |s| assert_eq!(s, [0u8; 8], "stale delivery fenced"))
            .unwrap();
        assert!(!p.qp_a.is_error());

        // The re-established connection carries traffic again.
        src.write(0, b"fresh!!!").unwrap();
        write(&mut p, 2, LocalSlice::range(&src, 0, 8), &dst, 0, false).unwrap();
        p.sim.run();
        dst.with(0, 8, |s| assert_eq!(s, b"fresh!!!")).unwrap();
    }

    #[test]
    fn extra_delay_slows_delivery_without_loss() {
        let mut healthy = setup();
        let src = healthy.fabric.register(healthy.a, 64);
        let dst = healthy.fabric.register(healthy.b, 64);
        write(&mut healthy, 1, LocalSlice::whole(&src), &dst, 0, true).unwrap();
        let t_healthy = healthy.sim.run();

        let mut slow = setup();
        let src2 = slow.fabric.register(slow.a, 64);
        let dst2 = slow.fabric.register(slow.b, 64);
        slow.fabric.set_extra_delay(slow.b, SimTime::from_micros(5));
        write(&mut slow, 1, LocalSlice::whole(&src2), &dst2, 0, true).unwrap();
        let t_slow = slow.sim.run();
        assert!(t_slow > t_healthy, "degraded path must be slower");
        let c = slow.a_send.poll().unwrap();
        assert!(c.is_ok(), "delayed completions still succeed");
        dst2.with(0, 8, |_| ()).unwrap();
    }

    #[test]
    fn invalid_remote_access_fails_at_post_time() {
        let mut p = setup();
        let src = p.fabric.register(p.a, 64);
        let dst = p.fabric.register(p.b, 16);
        let err = write(&mut p, 1, LocalSlice::whole(&src), &dst, 0, false).unwrap_err();
        assert!(matches!(err, RdmaError::OutOfBounds { .. }));
    }
}

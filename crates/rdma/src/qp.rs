//! Reliable-connection queue pairs.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use slash_desim::{EventLabel, Sim, SimTime};

use crate::cq::{Completion, CompletionKind, CompletionStatus, CqHandle};
use crate::error::{RdmaError, Result};
use crate::fabric::{Fabric, NodeId};
use crate::verbs::{RecvWr, WorkRequest};

/// Maximum SENDs buffered on the responder while no receive is posted.
/// Models the RNR-retry budget of a reliable connection; protocol code that
/// exceeds it has a flow-control bug and fails loudly.
const MAX_PENDING_SENDS: usize = 1024;

/// Per-endpoint state shared between the local QP handle and delivery
/// events targeting it.
pub(crate) struct QpShared {
    send_cq: CqHandle,
    recv_cq: CqHandle,
    posted_recvs: VecDeque<RecvWr>,
    /// Inbound SENDs awaiting a posted receive: (sender's completion ticket,
    /// payload).
    pending_sends: VecDeque<(Option<PendingAck>, Vec<u8>)>,
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

/// A sender-side completion owed once the responder consumes the message.
pub(crate) struct PendingAck {
    cq: CqHandle,
    completion: Completion,
}

impl QpShared {
    pub(crate) fn new(send_cq: CqHandle, recv_cq: CqHandle) -> Self {
        QpShared {
            send_cq,
            recv_cq,
            posted_recvs: VecDeque::new(),
            pending_sends: VecDeque::new(),
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
/// All verbs are posted through [`Qp::post_send`] / [`Qp::post_recv`];
/// completions surface on the completion queues supplied at connect time.
/// Work requests on one QP complete in post order (RC ordering).
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

    /// Reset this endpoint after a fault: clear the error state, drop all
    /// queued receive buffers and parked inbound SENDs, and bump the
    /// connection incarnation so every still-in-flight delivery targeting
    /// the old incarnation is fenced (silently dropped, exactly like
    /// traffic arriving for a torn-down QP number).
    ///
    /// Both endpoints of a connection must be reset to resume traffic.
    pub fn reset(&self) {
        let mut local = self.local.borrow_mut();
        local.error = false;
        local.generation += 1;
        local.posted_recvs.clear();
        local.pending_sends.clear();
    }

    /// Post a receive buffer. If SENDs are already waiting (the sender ran
    /// ahead of us), the oldest is consumed immediately.
    pub fn post_recv(&self, sim: &mut Sim, wr: RecvWr) -> Result<()> {
        wr.local.mr.check(wr.local.offset, wr.local.len)?;
        let mut local = self.local.borrow_mut();
        if let Some((ack, payload)) = local.pending_sends.pop_front() {
            if payload.len() > wr.local.len {
                // Put it back; the protocol must post a bigger buffer.
                let needed = payload.len();
                local.pending_sends.push_front((ack, payload));
                return Err(RdmaError::RecvBufferTooSmall {
                    needed,
                    got: wr.local.len,
                });
            }
            // Bounds were checked above (payload fits the buffer and the
            // buffer range was validated); a failed write is unreachable
            // but total: restore the parked SEND and report the error.
            if let Err(e) = wr.local.mr.write(wr.local.offset, &payload) {
                local.pending_sends.push_front((ack, payload));
                return Err(e);
            }
            let recv_cq = local.recv_cq.clone();
            drop(local);
            recv_cq.push(
                sim,
                Completion {
                    wr_id: wr.wr_id,
                    kind: CompletionKind::Recv,
                    byte_len: payload.len(),
                    imm: None,
                    status: CompletionStatus::Success,
                },
            );
            if let Some(ack) = ack {
                ack.cq.push(sim, ack.completion);
            }
        } else {
            local.posted_recvs.push_back(wr);
        }
        Ok(())
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

    /// Flush a signaled work request: schedule its error completion after
    /// the ack latency, exactly when a healthy completion would have been
    /// visible at the earliest.
    fn flush_signaled(&self, sim: &mut Sim, wr_id: u64, kind: CompletionKind, byte_len: usize) {
        let send_cq = self.local.borrow().send_cq.clone();
        let at = sim.now() + self.fabric.ack_latency();
        let label = EventLabel::channel(self.local_node.0, self.peer_node.0);
        sim.schedule_at_labeled(at, label, move |sim| {
            send_cq.push(
                sim,
                Completion {
                    wr_id,
                    kind,
                    byte_len,
                    imm: None,
                    status: CompletionStatus::FlushErr,
                },
            );
        });
    }

    /// Post a send-queue work request. Validation happens eagerly; the
    /// operation's effects materialize at its (bandwidth-paced) delivery
    /// time.
    ///
    /// Fault semantics: posting to an errored QP fails with
    /// [`RdmaError::QpError`]. If the path to the peer is down at post time
    /// the request is accepted but immediately *flushed* — signaled requests
    /// produce a [`CompletionStatus::FlushErr`] completion and the QP moves
    /// to the error state, like a real RC exhausting its retry budget. A
    /// fault landing while the request is in flight flushes it at delivery
    /// time instead.
    pub fn post_send(&self, sim: &mut Sim, wr: WorkRequest) -> Result<()> {
        if self.local.borrow().error {
            return Err(RdmaError::QpError);
        }
        let path_up = self.fabric.path_up(self.local_node, self.peer_node);
        match wr {
            WorkRequest::Write {
                wr_id,
                local,
                remote,
                signaled,
            } => {
                local.mr.check(local.offset, local.len)?;
                let remote_mr = self.fabric.resolve(remote.key)?;
                remote_mr.check(remote.offset, local.len)?;
                let payload = local.mr.with(local.offset, local.len, |s| s.to_vec())?;
                let nbytes = payload.len();
                if !path_up {
                    self.local.borrow_mut().error = true;
                    if signaled {
                        self.flush_signaled(sim, wr_id, CompletionKind::Write, nbytes);
                    }
                    return Ok(());
                }
                let deliver_at = self.fence_in_order(self.fabric.plan(
                    sim.now(),
                    self.local_node,
                    self.peer_node,
                    local.len as u64,
                ));
                let ack_at = deliver_at + self.fabric.ack_latency();
                let send_cq = self.local.borrow().send_cq.clone();
                let fabric = self.fabric.clone();
                let gen = conn_generation(&self.local, &self.peer);
                let (local_sh, peer_sh) = (Rc::clone(&self.local), Rc::clone(&self.peer));
                let (src, dst) = (self.local_node, self.peer_node);
                sim.schedule_at_labeled(
                    deliver_at,
                    EventLabel::channel(src.0, dst.0),
                    move |sim| {
                        if conn_generation(&local_sh, &peer_sh) != gen {
                            return; // connection was reset mid-flight: fenced
                        }
                        let ok = fabric.path_up(src, dst)
                            && remote_mr.write(remote.offset, &payload).is_ok();
                        if !ok {
                            local_sh.borrow_mut().error = true;
                        }
                        if signaled {
                            let status = if ok {
                                CompletionStatus::Success
                            } else {
                                CompletionStatus::FlushErr
                            };
                            sim.schedule_at_labeled(
                                ack_at,
                                EventLabel::channel(src.0, dst.0),
                                move |sim| {
                                    send_cq.push(
                                        sim,
                                        Completion {
                                            wr_id,
                                            kind: CompletionKind::Write,
                                            byte_len: nbytes,
                                            imm: None,
                                            status,
                                        },
                                    );
                                },
                            );
                        }
                    },
                );
                Ok(())
            }
            WorkRequest::WriteImm {
                wr_id,
                local,
                remote,
                imm,
                signaled,
            } => {
                local.mr.check(local.offset, local.len)?;
                let remote_mr = self.fabric.resolve(remote.key)?;
                remote_mr.check(remote.offset, local.len)?;
                let payload = local.mr.with(local.offset, local.len, |s| s.to_vec())?;
                let nbytes = payload.len();
                if !path_up {
                    self.local.borrow_mut().error = true;
                    if signaled {
                        self.flush_signaled(sim, wr_id, CompletionKind::Write, nbytes);
                    }
                    return Ok(());
                }
                let deliver_at = self.fence_in_order(self.fabric.plan(
                    sim.now(),
                    self.local_node,
                    self.peer_node,
                    local.len as u64,
                ));
                let ack_at = deliver_at + self.fabric.ack_latency();
                let send_cq = self.local.borrow().send_cq.clone();
                let fabric = self.fabric.clone();
                let gen = conn_generation(&self.local, &self.peer);
                let (local_sh, peer_sh) = (Rc::clone(&self.local), Rc::clone(&self.peer));
                let (src, dst) = (self.local_node, self.peer_node);
                sim.schedule_at_labeled(
                    deliver_at,
                    EventLabel::channel(src.0, dst.0),
                    move |sim| {
                        if conn_generation(&local_sh, &peer_sh) != gen {
                            return;
                        }
                        // WRITE_WITH_IMM needs a live path, a successful write,
                        // and a posted receive on the peer to notify; anything
                        // else flushes the request.
                        let wrote = fabric.path_up(src, dst)
                            && remote_mr.write(remote.offset, &payload).is_ok();
                        let recv = if wrote {
                            peer_sh.borrow_mut().posted_recvs.pop_front()
                        } else {
                            None
                        };
                        let ok = recv.is_some();
                        if !ok {
                            local_sh.borrow_mut().error = true;
                        }
                        if let Some(recv) = recv {
                            let recv_cq = peer_sh.borrow().recv_cq.clone();
                            recv_cq.push(
                                sim,
                                Completion {
                                    wr_id: recv.wr_id,
                                    kind: CompletionKind::RecvImm,
                                    byte_len: nbytes,
                                    imm: Some(imm),
                                    status: CompletionStatus::Success,
                                },
                            );
                        }
                        if signaled {
                            let status = if ok {
                                CompletionStatus::Success
                            } else {
                                CompletionStatus::FlushErr
                            };
                            sim.schedule_at_labeled(
                                ack_at,
                                EventLabel::channel(src.0, dst.0),
                                move |sim| {
                                    send_cq.push(
                                        sim,
                                        Completion {
                                            wr_id,
                                            kind: CompletionKind::Write,
                                            byte_len: nbytes,
                                            imm: None,
                                            status,
                                        },
                                    );
                                },
                            );
                        }
                    },
                );
                Ok(())
            }
            WorkRequest::Send {
                wr_id,
                local,
                signaled,
            } => {
                local.mr.check(local.offset, local.len)?;
                let payload = local.mr.with(local.offset, local.len, |s| s.to_vec())?;
                if !path_up {
                    self.local.borrow_mut().error = true;
                    if signaled {
                        self.flush_signaled(sim, wr_id, CompletionKind::Send, payload.len());
                    }
                    return Ok(());
                }
                let deliver_at = self.fence_in_order(self.fabric.plan(
                    sim.now(),
                    self.local_node,
                    self.peer_node,
                    local.len as u64,
                ));
                let ack_at = deliver_at + self.fabric.ack_latency();
                let send_cq = self.local.borrow().send_cq.clone();
                let fabric = self.fabric.clone();
                let gen = conn_generation(&self.local, &self.peer);
                let (local_sh, peer_sh) = (Rc::clone(&self.local), Rc::clone(&self.peer));
                let (src, dst) = (self.local_node, self.peer_node);
                sim.schedule_at_labeled(
                    deliver_at,
                    EventLabel::channel(src.0, dst.0),
                    move |sim| {
                        if conn_generation(&local_sh, &peer_sh) != gen {
                            return;
                        }
                        if !fabric.path_up(src, dst) {
                            local_sh.borrow_mut().error = true;
                            if signaled {
                                send_cq.push(
                                    sim,
                                    Completion {
                                        wr_id,
                                        kind: CompletionKind::Send,
                                        byte_len: payload.len(),
                                        imm: None,
                                        status: CompletionStatus::FlushErr,
                                    },
                                );
                            }
                            return;
                        }
                        deliver_send(
                            sim,
                            &peer_sh,
                            payload,
                            signaled.then_some(PendingAck {
                                cq: send_cq,
                                completion: Completion {
                                    wr_id,
                                    kind: CompletionKind::Send,
                                    byte_len: 0, // filled below
                                    imm: None,
                                    status: CompletionStatus::Success,
                                },
                            }),
                            ack_at,
                        );
                    },
                );
                Ok(())
            }
            WorkRequest::Read {
                wr_id,
                local,
                remote,
            } => {
                local.mr.check(local.offset, local.len)?;
                let remote_mr = self.fabric.resolve(remote.key)?;
                remote_mr.check(remote.offset, local.len)?;
                let len = local.len;
                if !path_up {
                    self.local.borrow_mut().error = true;
                    self.flush_signaled(sim, wr_id, CompletionKind::Read, len);
                    return Ok(());
                }
                // Phase 1: the request header travels to the responder.
                let req_at = self
                    .fabric
                    .plan(sim.now(), self.local_node, self.peer_node, 0);
                let fabric = self.fabric.clone();
                let send_cq = self.local.borrow().send_cq.clone();
                let gen = conn_generation(&self.local, &self.peer);
                let (local_sh, peer_sh) = (Rc::clone(&self.local), Rc::clone(&self.peer));
                let (src_node, dst_node) = (self.peer_node, self.local_node);
                let label = EventLabel::channel(src_node.0, dst_node.0);
                sim.schedule_at_labeled(req_at, label, move |sim| {
                    if conn_generation(&local_sh, &peer_sh) != gen {
                        return;
                    }
                    // Phase 2: the responder's NIC DMAs the data back. The
                    // data is snapshotted when the responder serves the
                    // request (RC READs see a consistent point-in-time).
                    let data = if fabric.path_up(src_node, dst_node) {
                        remote_mr.with(remote.offset, len, |s| s.to_vec()).ok()
                    } else {
                        None
                    };
                    let Some(data) = data else {
                        local_sh.borrow_mut().error = true;
                        let flush_at = sim.now() + fabric.ack_latency();
                        sim.schedule_at_labeled(flush_at, label, move |sim| {
                            send_cq.push(
                                sim,
                                Completion {
                                    wr_id,
                                    kind: CompletionKind::Read,
                                    byte_len: len,
                                    imm: None,
                                    status: CompletionStatus::FlushErr,
                                },
                            );
                        });
                        return;
                    };
                    let deliver_at = fabric.plan(sim.now(), src_node, dst_node, len as u64);
                    sim.schedule_at_labeled(deliver_at, label, move |sim| {
                        if conn_generation(&local_sh, &peer_sh) != gen {
                            return;
                        }
                        let ok = fabric.path_up(src_node, dst_node)
                            && local.mr.write(local.offset, &data).is_ok();
                        if !ok {
                            local_sh.borrow_mut().error = true;
                        }
                        send_cq.push(
                            sim,
                            Completion {
                                wr_id,
                                kind: CompletionKind::Read,
                                byte_len: len,
                                imm: None,
                                status: if ok {
                                    CompletionStatus::Success
                                } else {
                                    CompletionStatus::FlushErr
                                },
                            },
                        );
                    });
                });
                Ok(())
            }
        }
    }
}

/// Deliver an inbound SEND at the responder: match a posted receive or park
/// the payload until one is posted.
fn deliver_send(
    sim: &mut Sim,
    peer: &Rc<RefCell<QpShared>>,
    payload: Vec<u8>,
    ack: Option<PendingAck>,
    ack_at: slash_desim::SimTime,
) {
    let mut p = peer.borrow_mut();
    if let Some(recv) = p.posted_recvs.pop_front() {
        assert!(
            payload.len() <= recv.local.len,
            "SEND larger than posted receive buffer ({} > {})",
            payload.len(),
            recv.local.len
        );
        // The buffer range was validated at post_recv and the payload fits
        // it (asserted above); a failed write is unreachable but total —
        // flush the SEND into the responder's error state instead.
        if recv.local.mr.write(recv.local.offset, &payload).is_err() {
            p.error = true;
            return;
        }
        let recv_cq = p.recv_cq.clone();
        drop(p);
        recv_cq.push(
            sim,
            Completion {
                wr_id: recv.wr_id,
                kind: CompletionKind::Recv,
                byte_len: payload.len(),
                imm: None,
                status: CompletionStatus::Success,
            },
        );
        if let Some(mut ack) = ack {
            ack.completion.byte_len = payload.len();
            sim.schedule_at(ack_at.max(sim.now()), move |sim| {
                ack.cq.push(sim, ack.completion);
            });
        }
    } else {
        assert!(
            p.pending_sends.len() < MAX_PENDING_SENDS,
            "receiver not ready: {MAX_PENDING_SENDS} SENDs already buffered (RNR)"
        );
        let ack = ack.map(|mut a| {
            a.completion.byte_len = payload.len();
            a
        });
        p.pending_sends.push_back((ack, payload));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricConfig;
    use crate::verbs::{LocalSlice, RemoteSlice};
    use slash_desim::SimTime;

    struct Pair {
        sim: Sim,
        fabric: Fabric,
        qp_a: Qp,
        qp_b: Qp,
        a_send: CqHandle,
        b_recv: CqHandle,
        a: NodeId,
        b: NodeId,
    }

    fn setup() -> Pair {
        let sim = Sim::new();
        let fabric = Fabric::new(FabricConfig::default());
        let a = fabric.add_node();
        let b = fabric.add_node();
        let (a_send, a_recv) = (CqHandle::new(), CqHandle::new());
        let (b_send, b_recv) = (CqHandle::new(), CqHandle::new());
        let (qp_a, qp_b) = fabric.connect(a, a_send.clone(), a_recv, b, b_send, b_recv.clone());
        Pair {
            sim,
            fabric,
            qp_a,
            qp_b,
            a_send,
            b_recv,
            a,
            b,
        }
    }

    #[test]
    fn one_sided_write_lands_and_completes() {
        let mut p = setup();
        let src = p.fabric.register(p.a, 64);
        let dst = p.fabric.register(p.b, 64);
        src.write(0, b"hello rdma").unwrap();
        p.qp_a
            .post_send(
                &mut p.sim,
                WorkRequest::Write {
                    wr_id: 7,
                    local: LocalSlice::range(&src, 0, 10),
                    remote: RemoteSlice {
                        key: dst.remote_key(),
                        offset: 16,
                    },
                    signaled: true,
                },
            )
            .unwrap();
        // Nothing is visible before the simulation runs.
        dst.with(16, 10, |s| assert_eq!(s, [0u8; 10])).unwrap();
        p.sim.run();
        dst.with(16, 10, |s| assert_eq!(s, b"hello rdma")).unwrap();
        let c = p.a_send.poll().expect("signaled write completes");
        assert_eq!(c.wr_id, 7);
        assert_eq!(c.kind, CompletionKind::Write);
        assert_eq!(c.byte_len, 10);
    }

    #[test]
    fn unsignaled_write_generates_no_completion() {
        let mut p = setup();
        let src = p.fabric.register(p.a, 8);
        let dst = p.fabric.register(p.b, 8);
        p.qp_a
            .post_send(
                &mut p.sim,
                WorkRequest::Write {
                    wr_id: 1,
                    local: LocalSlice::whole(&src),
                    remote: RemoteSlice {
                        key: dst.remote_key(),
                        offset: 0,
                    },
                    signaled: false,
                },
            )
            .unwrap();
        p.sim.run();
        assert!(p.a_send.is_empty());
    }

    #[test]
    fn writes_on_one_qp_deliver_in_order() {
        let mut p = setup();
        let src = p.fabric.register(p.a, 8);
        let dst = p.fabric.register(p.b, 8);
        // Post two writes to the same remote location; the second must win.
        src.write_u64(0, 111);
        p.qp_a
            .post_send(
                &mut p.sim,
                WorkRequest::Write {
                    wr_id: 1,
                    local: LocalSlice::whole(&src),
                    remote: RemoteSlice {
                        key: dst.remote_key(),
                        offset: 0,
                    },
                    signaled: false,
                },
            )
            .unwrap();
        src.write_u64(0, 222);
        p.qp_a
            .post_send(
                &mut p.sim,
                WorkRequest::Write {
                    wr_id: 2,
                    local: LocalSlice::whole(&src),
                    remote: RemoteSlice {
                        key: dst.remote_key(),
                        offset: 0,
                    },
                    signaled: false,
                },
            )
            .unwrap();
        p.sim.run();
        assert_eq!(dst.read_u64(0), 222);
    }

    #[test]
    fn send_recv_roundtrip() {
        let mut p = setup();
        let src = p.fabric.register(p.a, 32);
        let dst = p.fabric.register(p.b, 32);
        src.write(0, b"two-sided").unwrap();
        p.qp_b
            .post_recv(
                &mut p.sim,
                RecvWr {
                    wr_id: 55,
                    local: LocalSlice::whole(&dst),
                },
            )
            .unwrap();
        p.qp_a
            .post_send(
                &mut p.sim,
                WorkRequest::Send {
                    wr_id: 9,
                    local: LocalSlice::range(&src, 0, 9),
                    signaled: true,
                },
            )
            .unwrap();
        p.sim.run();
        let c = p.b_recv.poll().expect("receive completes");
        assert_eq!(c.wr_id, 55);
        assert_eq!(c.kind, CompletionKind::Recv);
        assert_eq!(c.byte_len, 9);
        dst.with(0, 9, |s| assert_eq!(s, b"two-sided")).unwrap();
        assert_eq!(p.a_send.poll().unwrap().kind, CompletionKind::Send);
    }

    #[test]
    fn send_before_recv_is_buffered() {
        let mut p = setup();
        let src = p.fabric.register(p.a, 8);
        let dst = p.fabric.register(p.b, 8);
        src.write_u64(0, 0xABCD);
        p.qp_a
            .post_send(
                &mut p.sim,
                WorkRequest::Send {
                    wr_id: 1,
                    local: LocalSlice::whole(&src),
                    signaled: false,
                },
            )
            .unwrap();
        p.sim.run();
        assert!(p.b_recv.is_empty(), "no recv posted yet");
        p.qp_b
            .post_recv(
                &mut p.sim,
                RecvWr {
                    wr_id: 2,
                    local: LocalSlice::whole(&dst),
                },
            )
            .unwrap();
        p.sim.run();
        assert_eq!(p.b_recv.poll().unwrap().wr_id, 2);
        assert_eq!(dst.read_u64(0), 0xABCD);
    }

    #[test]
    fn write_imm_notifies_via_posted_recv() {
        let mut p = setup();
        let src = p.fabric.register(p.a, 16);
        let dst = p.fabric.register(p.b, 16);
        let note = p.fabric.register(p.b, 0);
        p.qp_b
            .post_recv(
                &mut p.sim,
                RecvWr {
                    wr_id: 3,
                    local: LocalSlice::whole(&note),
                },
            )
            .unwrap();
        src.write_u64(0, 42);
        p.qp_a
            .post_send(
                &mut p.sim,
                WorkRequest::WriteImm {
                    wr_id: 4,
                    local: LocalSlice::whole(&src),
                    remote: RemoteSlice {
                        key: dst.remote_key(),
                        offset: 0,
                    },
                    imm: 0xFEED,
                    signaled: false,
                },
            )
            .unwrap();
        p.sim.run();
        let c = p.b_recv.poll().unwrap();
        assert_eq!(c.kind, CompletionKind::RecvImm);
        assert_eq!(c.imm, Some(0xFEED));
        assert_eq!(dst.read_u64(0), 42);
    }

    #[test]
    fn read_pulls_remote_data() {
        let mut p = setup();
        let local = p.fabric.register(p.a, 16);
        let remote = p.fabric.register(p.b, 16);
        remote.write_u64(8, 777);
        p.qp_a
            .post_send(
                &mut p.sim,
                WorkRequest::Read {
                    wr_id: 11,
                    local: LocalSlice::range(&local, 0, 8),
                    remote: RemoteSlice {
                        key: remote.remote_key(),
                        offset: 8,
                    },
                },
            )
            .unwrap();
        p.sim.run();
        assert_eq!(local.read_u64(0), 777);
        let c = p.a_send.poll().unwrap();
        assert_eq!(c.kind, CompletionKind::Read);
        assert_eq!(c.wr_id, 11);
    }

    #[test]
    fn read_has_higher_latency_than_write() {
        // The paper's rationale for choosing WRITEs (§6.3): a READ is a full
        // round trip.
        let mut p = setup();
        let src = p.fabric.register(p.a, 1024);
        let dst = p.fabric.register(p.b, 1024);

        p.qp_a
            .post_send(
                &mut p.sim,
                WorkRequest::Write {
                    wr_id: 1,
                    local: LocalSlice::whole(&src),
                    remote: RemoteSlice {
                        key: dst.remote_key(),
                        offset: 0,
                    },
                    signaled: true,
                },
            )
            .unwrap();
        let write_done = {
            let mut t = SimTime::ZERO;
            while p.a_send.is_empty() {
                if p.sim.pending_events() == 0 {
                    break;
                }
                t = p.sim.run_until(p.sim.now() + SimTime::from_nanos(50));
            }
            p.a_send.poll().unwrap();
            t
        };

        // Fresh pair for the READ so link state is comparable.
        let mut p2 = setup();
        let local = p2.fabric.register(p2.a, 1024);
        let remote = p2.fabric.register(p2.b, 1024);
        p2.qp_a
            .post_send(
                &mut p2.sim,
                WorkRequest::Read {
                    wr_id: 2,
                    local: LocalSlice::whole(&local),
                    remote: RemoteSlice {
                        key: remote.remote_key(),
                        offset: 0,
                    },
                },
            )
            .unwrap();
        let read_done = p2.sim.run();
        assert!(
            read_done > write_done,
            "READ ({read_done}) must be slower than WRITE ({write_done})"
        );
    }

    #[test]
    fn write_to_dead_peer_flushes_and_errors_the_qp() {
        let mut p = setup();
        let src = p.fabric.register(p.a, 64);
        let dst = p.fabric.register(p.b, 64);
        p.fabric.fail_node(p.b);
        p.qp_a
            .post_send(
                &mut p.sim,
                WorkRequest::Write {
                    wr_id: 42,
                    local: LocalSlice::whole(&src),
                    remote: RemoteSlice {
                        key: dst.remote_key(),
                        offset: 0,
                    },
                    signaled: true,
                },
            )
            .unwrap();
        p.sim.run();
        let c = p.a_send.poll().expect("flushed completion must surface");
        assert_eq!(c.wr_id, 42);
        assert!(!c.is_ok(), "completion must carry FlushErr");
        assert!(p.qp_a.is_error(), "QP must be in the error state");
        assert!(matches!(
            p.qp_a.post_send(
                &mut p.sim,
                WorkRequest::Write {
                    wr_id: 43,
                    local: LocalSlice::whole(&src),
                    remote: RemoteSlice {
                        key: dst.remote_key(),
                        offset: 0
                    },
                    signaled: false,
                },
            ),
            Err(RdmaError::QpError)
        ));
    }

    #[test]
    fn link_down_mid_flight_flushes_at_delivery() {
        let mut p = setup();
        let src = p.fabric.register(p.a, 64);
        let dst = p.fabric.register(p.b, 64);
        src.write(0, b"payload!").unwrap();
        p.qp_a
            .post_send(
                &mut p.sim,
                WorkRequest::Write {
                    wr_id: 1,
                    local: LocalSlice::range(&src, 0, 8),
                    remote: RemoteSlice {
                        key: dst.remote_key(),
                        offset: 0,
                    },
                    signaled: true,
                },
            )
            .unwrap();
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
        p.qp_a
            .post_send(
                &mut p.sim,
                WorkRequest::Write {
                    wr_id: 1,
                    local: LocalSlice::range(&src, 0, 8),
                    remote: RemoteSlice {
                        key: dst.remote_key(),
                        offset: 0,
                    },
                    signaled: false,
                },
            )
            .unwrap();
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
        p.qp_a
            .post_send(
                &mut p.sim,
                WorkRequest::Write {
                    wr_id: 2,
                    local: LocalSlice::range(&src, 0, 8),
                    remote: RemoteSlice {
                        key: dst.remote_key(),
                        offset: 0,
                    },
                    signaled: false,
                },
            )
            .unwrap();
        p.sim.run();
        dst.with(0, 8, |s| assert_eq!(s, b"fresh!!!")).unwrap();
    }

    #[test]
    fn extra_delay_slows_delivery_without_loss() {
        let mut healthy = setup();
        let src = healthy.fabric.register(healthy.a, 64);
        let dst = healthy.fabric.register(healthy.b, 64);
        healthy
            .qp_a
            .post_send(
                &mut healthy.sim,
                WorkRequest::Write {
                    wr_id: 1,
                    local: LocalSlice::whole(&src),
                    remote: RemoteSlice {
                        key: dst.remote_key(),
                        offset: 0,
                    },
                    signaled: true,
                },
            )
            .unwrap();
        let t_healthy = healthy.sim.run();

        let mut slow = setup();
        let src2 = slow.fabric.register(slow.a, 64);
        let dst2 = slow.fabric.register(slow.b, 64);
        slow.fabric.set_extra_delay(slow.b, SimTime::from_micros(5));
        slow.qp_a
            .post_send(
                &mut slow.sim,
                WorkRequest::Write {
                    wr_id: 1,
                    local: LocalSlice::whole(&src2),
                    remote: RemoteSlice {
                        key: dst2.remote_key(),
                        offset: 0,
                    },
                    signaled: true,
                },
            )
            .unwrap();
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
        let err = p
            .qp_a
            .post_send(
                &mut p.sim,
                WorkRequest::Write {
                    wr_id: 1,
                    local: LocalSlice::whole(&src),
                    remote: RemoteSlice {
                        key: dst.remote_key(),
                        offset: 0,
                    },
                    signaled: false,
                },
            )
            .unwrap_err();
        assert!(matches!(err, RdmaError::OutOfBounds { .. }));
    }
}

//! The SSB recovery surface: checkpoint, restore, rejoin, relink.
//!
//! Everything that rebuilds a node or rewires a pair of nodes lives here,
//! once. Crash promotion and planned handoff (`slash-core`), and the
//! crash/handoff scenarios of the model checker (`slash-verify`), are
//! callers of these four functions — so the schedules the checker
//! enumerates run the rewire that ships.
//!
//! The protocol (DESIGN.md §15): a node's [`SsbCheckpoint`] is taken at an
//! epoch boundary and holds, from that one instant, the primary snapshot,
//! the vector clock, how far each helper's epochs are merged into the
//! snapshot, and every epoch the node shipped that a leader may still ask
//! for. A replacement is [`SsbNode::restored`] from it and then
//! [`rejoin`]ed to each peer: both channels of the pair are created
//! afresh, and each direction resends retained epochs starting at the
//! *receiving* side's committed horizon — the peer's live receiver for
//! what the replacement ships, the checkpoint for what the peer ships.
//! Anything resent that was already merged is dropped by epoch id
//! ([`DeltaReceiver`]), which is what makes rejoining idempotent.
//! [`relink`] is the same handshake for a pair whose nodes both survived
//! an outage.

use slash_net::create_channel;
use slash_obs::Obs;
use slash_rdma::{Fabric, NodeId};

use super::{SsbConfig, SsbNode};
use crate::coherence::{DeltaReceiver, DeltaSender, RetainedEpoch};
use crate::descriptor::StateDescriptor;
use crate::snapshot::chunks_digest;
use crate::split::SplitLedger;

/// The SSB half of a node checkpoint: all of it from one epoch boundary.
#[derive(Debug, Clone)]
pub struct SsbCheckpoint {
    /// Epochs the node had closed (fragment epoch high-water mark).
    pub epochs_closed: u64,
    /// Primary partition snapshot (delta-format chunks).
    pub snapshot: Vec<Vec<u8>>,
    /// [`chunks_digest`] of [`Self::snapshot`] at capture time; a restore
    /// verifies the copy it was handed against it (checksum stand-in).
    pub digest: u64,
    /// Vector clock at the boundary.
    pub vclock: Vec<u64>,
    /// Per-helper commit horizon: epochs `< receiver_next[h]` from helper
    /// `h` are merged into [`Self::snapshot`].
    pub receiver_next: Vec<u64>,
    /// Per-leader retained epochs, replayable verbatim.
    pub retained: Vec<Vec<RetainedEpoch>>,
}

impl SsbCheckpoint {
    /// Bytes a copy of this checkpoint puts on the wire.
    pub fn payload_bytes(&self) -> u64 {
        let snapshot = self.snapshot.iter();
        let retained = self.retained.iter().flatten().flat_map(|r| r.chunks.iter());
        snapshot.chain(retained).map(|c| c.len() as u64).sum()
    }
}

impl SsbNode {
    /// Capture this node at the current epoch boundary (call right after
    /// an epoch close). Snapshot chunks are at most `max_chunk` bytes.
    /// Partials a write combiner still buffers are flushed first, so the
    /// snapshot never misses an update the source position has passed.
    pub fn checkpoint(&mut self, max_chunk: usize) -> SsbCheckpoint {
        self.flush_combiners();
        let snapshot = self.snapshot_primary(max_chunk);
        SsbCheckpoint {
            epochs_closed: self.epochs_closed(),
            digest: chunks_digest(&snapshot),
            snapshot,
            vclock: self.vclock.snapshot(),
            receiver_next: self
                .receivers
                .iter()
                .map(|r| r.as_ref().map_or(0, DeltaReceiver::next_epoch))
                .collect(),
            retained: (0..self.senders.len())
                .map(|l| self.retained_toward(l))
                .collect(),
        }
    }

    /// A copy of the epochs this node retains for `leader` (none at its
    /// own slot).
    fn retained_toward(&self, leader: usize) -> Vec<RetainedEpoch> {
        self.senders[leader]
            .as_ref()
            .map_or_else(Vec::new, |s| s.retained().to_vec())
    }

    /// The replacement for logical node `node`, as of `ckpt`: primary and
    /// vector clock restored, every remote fragment resuming at the
    /// checkpointed epoch id (a replacement must not reuse ids its
    /// predecessor shipped with other content; what it re-closes during
    /// replay regenerates the same ids with the same content, which the
    /// leaders drop), and `ledger` — a surviving node's split-ledger copy,
    /// identical on every node — so it keeps salting split keys like its
    /// predecessor. It has no channels yet: [`rejoin`] it to every peer.
    pub fn restored(
        node: usize,
        desc: StateDescriptor,
        cfg: SsbConfig,
        ckpt: &SsbCheckpoint,
        ledger: Option<SplitLedger>,
    ) -> SsbNode {
        let mut ssb = SsbNode::detached(node, desc, cfg);
        ssb.restore_primary(&ckpt.snapshot);
        for (slot, &wm) in ckpt.vclock.iter().enumerate() {
            ssb.vclock.fault_force_set(slot, wm);
        }
        for (p, fragment) in ssb.fragments.iter_mut().enumerate() {
            if p != node {
                fragment.resume_at_epoch(ckpt.epochs_closed);
            }
        }
        ssb.split = ledger;
        ssb
    }
}

/// Where one [`rejoin`] runs and how far each side's epochs may commit.
pub struct Rejoin<'a> {
    /// The fabric the pair's two channels are created on.
    pub fabric: &'a Fabric,
    /// Port hosting the replacement.
    pub port: NodeId,
    /// Logical id of the peer.
    pub peer: usize,
    /// Port hosting the peer.
    pub peer_port: NodeId,
    /// Commit gate the peer puts on the replacement's epochs (the
    /// durable horizon of the checkpoint being restored); `u64::MAX`
    /// leaves them ungated.
    pub durable: u64,
    /// Commit gate the replacement puts on the peer's epochs (the peer's
    /// own durable horizon); `u64::MAX` leaves them ungated.
    pub peer_durable: u64,
    /// Trace handle for the new endpoints.
    pub obs: &'a Obs,
}

/// Connect `repl` — [`SsbNode::restored`] from `ckpt` — to one peer:
/// create both channels of the pair (`repl → peer`, then `peer → repl`)
/// and make each direction resend exactly what its receiving side has not
/// committed.
///
/// * `repl → peer`: the sender's memory comes from `ckpt.retained`; it
///   resends from the horizon the peer's live receiver reports, and the
///   peer's new receiver starts at that horizon, gated at `at.durable`.
/// * `peer → repl`: the peer's new sender inherits the live retained list
///   and resends from `ckpt.receiver_next` — what the restored primary
///   already holds; the replacement's receiver starts there, gated at
///   `at.peer_durable`.
///
/// Only the endpoints created here are instrumented; the rest of the peer
/// — its other channels, its heat sketch — is not touched.
///
/// `survivor = None` is the concurrent crash: the peer is down too, its
/// own promotion pending. The replacement's endpoints toward the dead
/// port are installed anyway: the sender keeps *retaining* every epoch
/// closed from here on (its sends error out), so the peer's eventual
/// rejoin finds a complete replay history in the replacement's next
/// checkpoint or live sender, and the seeded receiver records the horizon
/// that rejoin must resume from. Both directions get live channels then.
pub fn rejoin(
    repl: &mut SsbNode,
    survivor: Option<&mut SsbNode>,
    ckpt: &SsbCheckpoint,
    at: &Rejoin<'_>,
) {
    let (d, s) = (repl.node, at.peer);
    let channel = repl.cfg.channel;
    let (tx, rx) = create_channel(at.fabric, at.port, at.peer_port, channel);
    let (tx_back, rx_back) = create_channel(at.fabric, at.peer_port, at.port, channel);

    let mut sender = DeltaSender::new(tx);
    sender.restore_retained(ckpt.retained[s].clone());
    if let Some(sv) = survivor {
        let resume = sv.receivers[d]
            .as_ref()
            .map_or(0, DeltaReceiver::next_epoch);
        sender.requeue_from(resume);
        let mut receiver = DeltaReceiver::new(rx, d);
        receiver.seed_next_epoch(resume);
        receiver.set_durable_epochs(at.durable);
        receiver.instrument(at.obs.clone(), s as u32);
        sv.receivers[d] = Some(receiver);

        let mut back = DeltaSender::new(tx_back);
        back.restore_retained(sv.retained_toward(d));
        back.requeue_from(ckpt.receiver_next[s]);
        back.instrument(at.obs.clone(), s as u32, d as u32);
        sv.senders[d] = Some(back);
    }
    sender.instrument(at.obs.clone(), d as u32, s as u32);
    repl.senders[s] = Some(sender);

    let mut receiver = DeltaReceiver::new(rx_back, s);
    receiver.seed_next_epoch(ckpt.receiver_next[s]);
    receiver.set_durable_epochs(at.peer_durable);
    receiver.instrument(at.obs.clone(), d as u32);
    repl.receivers[s] = Some(receiver);
}

/// Repair the channel `tx → rx` between two nodes that both survived an
/// outage: if either end sits in the error state, reset both, drop what
/// the receiver had staged but not committed, and resend from its
/// committed horizon. Returns whether the channel needed the repair.
pub fn relink(tx: &mut SsbNode, rx: &mut SsbNode) -> bool {
    let (Some(sender), Some(receiver)) =
        (tx.senders[rx.node].as_mut(), rx.receivers[tx.node].as_mut())
    else {
        return false;
    };
    if !sender.is_error() && !receiver.is_error() {
        return false;
    }
    sender.reset_channel();
    receiver.reset_channel();
    sender.requeue_from(receiver.next_epoch());
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::build_cluster_obs;
    use crate::crdts::CounterCrdt;
    use crate::hash::{pack_key, partition_of};
    use slash_desim::Sim;
    use slash_net::ChannelConfig;
    use slash_rdma::FabricConfig;

    const GROUPS: u64 = 8;

    struct World {
        sim: Sim,
        fabric: Fabric,
        ports: Vec<NodeId>,
        cfg: SsbConfig,
        ssb: Vec<SsbNode>,
        obs: Obs,
    }

    fn world(n: usize, obs: Obs) -> World {
        let fabric = Fabric::new(FabricConfig::default());
        let ports = fabric.add_nodes(n);
        let cfg = SsbConfig {
            nodes: n,
            epoch_bytes: u64::MAX, // manual epochs
            channel: ChannelConfig {
                credits: 8,
                buffer_size: 4096,
                credit_batch: 1,
            },
        };
        let mut ssb =
            build_cluster_obs(&fabric, &ports, CounterCrdt::descriptor(), cfg, obs.clone());
        for node in &mut ssb {
            node.set_retention(true);
        }
        World {
            sim: Sim::new(),
            fabric,
            ports,
            cfg,
            ssb,
            obs,
        }
    }

    impl World {
        /// Round `r` of node `i`'s deterministic op stream, closed as one
        /// epoch: replaying a round regenerates the same epoch id with
        /// the same content.
        fn round(&mut self, i: usize, r: u64) {
            for g in 0..GROUPS {
                self.ssb[i].rmw(pack_key(1, g), |v| {
                    CounterCrdt::add(v, r * 10 + i as u64 + 1)
                });
            }
            self.ssb[i].note_progress((r + 1) * 100);
            self.ssb[i].close_epoch(&mut self.sim).unwrap();
        }

        /// Pump until nothing moves (channels toward a dead port never
        /// flush, so "no progress" is the only usable stop).
        fn settle(&mut self) {
            let mut idle = 0;
            for _ in 0..10_000 {
                let mut progress = 0;
                for node in &mut self.ssb {
                    let (sent, merged) = node.pump(&mut self.sim).unwrap();
                    progress += sent + merged;
                }
                self.sim.run();
                idle = if progress == 0 { idle + 1 } else { 0 };
                if idle == 3 {
                    return;
                }
            }
            panic!("cluster did not settle");
        }

        /// Every leader holds exactly `rounds` rounds of every node.
        fn assert_exact(&mut self, rounds: u64) {
            let n = self.ssb.len();
            let want: u64 = (0..rounds)
                .flat_map(|r| (0..n as u64).map(move |i| r * 10 + i + 1))
                .sum();
            for g in 0..GROUPS {
                let key = pack_key(1, g);
                let leader = partition_of(key, n);
                let got = self.ssb[leader].local_get(key).map(CounterCrdt::get);
                assert_eq!(got, Some(want), "key {g} on leader {leader}");
            }
        }

        /// Replace node `d` by a replacement restored from `ckpt` on
        /// `port`, rejoined to every peer (one-sidedly to `dead` ones).
        fn replace(&mut self, d: usize, ckpt: &SsbCheckpoint, port: NodeId, dead: &[usize]) {
            let mut repl = SsbNode::restored(d, CounterCrdt::descriptor(), self.cfg, ckpt, None);
            for s in (0..self.ssb.len()).filter(|&s| s != d) {
                let at = Rejoin {
                    fabric: &self.fabric,
                    port,
                    peer: s,
                    peer_port: self.ports[s],
                    durable: u64::MAX,
                    peer_durable: u64::MAX,
                    obs: &self.obs,
                };
                let survivor = (!dead.contains(&s)).then(|| &mut self.ssb[s]);
                rejoin(&mut repl, survivor, ckpt, &at);
            }
            self.ssb[d] = repl;
            self.ports[d] = port;
        }
    }

    /// Rejoining twice from one checkpoint merges nothing twice: both
    /// times the replacement re-ships epochs the survivor already holds
    /// and the survivor re-ships epochs the restored snapshot is missing;
    /// epoch ids, not luck, keep the counters exact.
    #[test]
    fn rejoin_twice_from_one_checkpoint_merges_nothing_twice() {
        let mut w = world(2, Obs::disabled());
        for i in 0..2 {
            w.round(i, 0);
        }
        w.settle();
        let ckpt = w.ssb[1].checkpoint(512);
        assert_eq!(ckpt.epochs_closed, 1);
        assert_eq!(ckpt.receiver_next, vec![1, 0]);
        for i in 0..2 {
            w.round(i, 1);
        }
        w.settle();
        w.assert_exact(2);

        for _ in 0..2 {
            let port = w.ports[1];
            w.replace(1, &ckpt, port, &[]);
            w.round(1, 1); // replay what the checkpoint lost
            w.settle();
            w.assert_exact(2);
            let horizon = w.ssb[0].receivers[1]
                .as_ref()
                .map(DeltaReceiver::next_epoch);
            assert_eq!(horizon, Some(2), "the survivor's horizon never moved back");
        }
        for i in 0..2 {
            w.round(i, 2);
        }
        w.settle();
        w.assert_exact(3);
    }

    /// Concurrent crash: node 1 rejoins while node 2 is still down. Its
    /// endpoints toward the dead port keep retaining, so when node 2 is
    /// rebuilt later its rejoin replays everything node 1 closed in the
    /// meantime — the replayed round and a fresh one.
    #[test]
    fn rejoin_toward_a_dead_peer_keeps_retaining_for_its_later_rejoin() {
        let mut w = world(3, Obs::disabled());
        for i in 0..3 {
            w.round(i, 0);
        }
        w.settle();
        let ckpt1 = w.ssb[1].checkpoint(512);
        let ckpt2 = w.ssb[2].checkpoint(512);
        for i in 0..3 {
            w.round(i, 1);
        }
        w.settle();
        w.fabric.fail_node(w.ports[1]);
        w.fabric.fail_node(w.ports[2]);

        let port = w.fabric.add_node();
        w.replace(1, &ckpt1, port, &[2]);
        w.round(1, 1);
        for i in 0..2 {
            w.round(i, 2);
        }
        w.settle();

        let port = w.fabric.add_node();
        w.replace(2, &ckpt2, port, &[]);
        for r in 1..3 {
            w.round(2, r);
        }
        w.settle();
        w.assert_exact(3);
    }

    /// Tracing must not change split telemetry: a peer's rejoin with
    /// `Obs` enabled instruments the two new endpoints on the survivor
    /// and leaves its cumulative heat sketch alone, and re-instrumenting a
    /// node keeps the sketch it has.
    #[test]
    fn a_peers_rejoin_leaves_the_survivors_heat_sketch_alone() {
        let mut w = world(2, Obs::enabled(256));
        for i in 0..2 {
            w.round(i, 0);
        }
        w.settle();
        let heat = |w: &mut World| w.ssb[0].heat_snapshot().map(|h| h.total());
        assert_eq!(heat(&mut w), Some(GROUPS));
        let ckpt = w.ssb[1].checkpoint(512);
        let port = w.ports[1];
        w.replace(1, &ckpt, port, &[]);
        assert_eq!(
            heat(&mut w),
            Some(GROUPS),
            "rejoin wiped the survivor's heat"
        );
        let obs = w.obs.clone();
        w.ssb[0].instrument(obs);
        assert_eq!(
            heat(&mut w),
            Some(GROUPS),
            "instrument wiped a running sketch"
        );
        // The new endpoints trace like the ones they replaced.
        w.round(1, 1);
        w.settle();
        let label = w.ssb[0].receivers[1]
            .as_ref()
            .map(|r| r.obs_label().to_string());
        assert_eq!(label.as_deref(), Some("chan=1->0"));
    }
}

//! Arming a fault plan on a simulator + fabric, with trace events.

use slash_desim::{Sim, SimTime};
use slash_obs::{Cat, Obs};
use slash_rdma::{Fabric, NodeId};

use super::plan::{FaultKind, FaultPlan};

/// Trace `tid` used for fault-injection events (one lane per node `pid`).
const FAULT_TID: u32 = 900;

/// Schedules the fabric-level side of a [`FaultPlan`] on a simulator.
///
/// Every event becomes one or two `Sim::schedule_at` closures driving the
/// `slash-rdma` fault hooks, plus `Cat::Fault` trace events marking the
/// outage window. The injector deliberately knows nothing about processes
/// or recovery: the fault-tolerance director behind
/// [`ClusterBuilder::chaos`](crate::ClusterBuilder::chaos) reacts to the
/// faults through the same observable surface real protocol code has —
/// flushed completions, error-state QPs, stalled epoch tokens.
pub struct Injector;

impl Injector {
    /// Arm every event of `plan` on `sim` against `fabric`.
    ///
    /// Node indices in the plan index into `nodes` (the fabric nodes of
    /// the run, in cluster order); plan events naming out-of-range nodes
    /// are ignored, so one plan can be reused across cluster sizes.
    ///
    /// Events sharing a timestamp (e.g. [`FaultPlan::concurrent`]) are
    /// scheduled in plan order and fire deterministically within the
    /// same virtual instant — no protocol code can observe an
    /// intermediate state where only one of two simultaneous crashes has
    /// landed, because the fabric hooks run before any event scheduled
    /// after them at the same timestamp sees the fabric.
    pub fn arm(sim: &mut Sim, fabric: &Fabric, nodes: &[NodeId], obs: &Obs, plan: &FaultPlan) {
        for ev in plan.events() {
            let Some(&node) = nodes.get(ev.kind.node()) else {
                continue;
            };
            let fabric = fabric.clone();
            let pid = node.0;
            match ev.kind {
                FaultKind::NodeCrash { .. } => {
                    obs.instant(
                        Cat::Fault,
                        "fault:node-crash",
                        pid,
                        FAULT_TID,
                        ev.at,
                        &[("node", node.0 as u64)],
                    );
                    sim.schedule_at(ev.at, move |_sim| fabric.fail_node(node));
                }
                FaultKind::LinkFlap { down_for, .. } => {
                    obs.span(
                        Cat::Fault,
                        "fault:link-flap",
                        pid,
                        FAULT_TID,
                        ev.at,
                        ev.at + down_for,
                        &[("node", node.0 as u64), ("down_ns", down_for.as_nanos())],
                    );
                    let up = fabric.clone();
                    sim.schedule_at(ev.at, move |_sim| fabric.set_link_down(node, true));
                    sim.schedule_at(ev.at + down_for, move |_sim| up.set_link_down(node, false));
                }
                FaultKind::LinkDegrade {
                    extra, duration, ..
                }
                | FaultKind::DelayedCompletions {
                    extra, duration, ..
                } => {
                    let name = match ev.kind {
                        FaultKind::LinkDegrade { .. } => "fault:link-degrade",
                        _ => "fault:delayed-completions",
                    };
                    obs.span(
                        Cat::Fault,
                        name,
                        pid,
                        FAULT_TID,
                        ev.at,
                        ev.at + duration,
                        &[("node", node.0 as u64), ("extra_ns", extra.as_nanos())],
                    );
                    let clear = fabric.clone();
                    sim.schedule_at(ev.at, move |_sim| fabric.set_extra_delay(node, extra));
                    sim.schedule_at(ev.at + duration, move |_sim| {
                        clear.set_extra_delay(node, SimTime::ZERO)
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slash_rdma::FabricConfig;

    #[test]
    fn armed_plan_drives_fabric_state() {
        let mut sim = Sim::new();
        let fabric = Fabric::new(FabricConfig::default());
        let nodes = fabric.add_nodes(3);
        let obs = Obs::enabled(1024);
        let plan = FaultPlan::new()
            .crash(SimTime::from_millis(2), 0)
            .link_flap(SimTime::from_millis(1), 1, SimTime::from_millis(1))
            .delay_completions(
                SimTime::from_millis(1),
                2,
                SimTime::from_micros(5),
                SimTime::from_millis(2),
            );
        Injector::arm(&mut sim, &fabric, &nodes, &obs, &plan);

        sim.run_until(SimTime::from_millis(1));
        assert!(fabric.node_alive(nodes[0]));
        assert!(!fabric.link_up(nodes[1]), "flap window open");
        assert!(!fabric.path_up(nodes[0], nodes[1]));

        sim.run_until(SimTime::from_millis(2));
        assert!(!fabric.node_alive(nodes[0]), "crash landed");
        assert!(fabric.link_up(nodes[1]), "flap window closed");

        sim.run_until(SimTime::from_millis(4));
        assert!(!fabric.node_alive(nodes[0]), "crashes are permanent");
        // Fault trace events were emitted.
        assert!(obs.event_count() >= 3);
    }

    #[test]
    fn concurrent_crashes_land_in_the_same_instant() {
        let mut sim = Sim::new();
        let fabric = Fabric::new(FabricConfig::default());
        let nodes = fabric.add_nodes(4);
        let obs = Obs::disabled();
        let at = SimTime::from_millis(1);
        let plan = FaultPlan::new().concurrent(at, &[1, 2]);
        Injector::arm(&mut sim, &fabric, &nodes, &obs, &plan);

        sim.run_until(at - SimTime::from_nanos(1));
        assert!(fabric.node_alive(nodes[1]) && fabric.node_alive(nodes[2]));

        sim.run_until(at);
        assert!(!fabric.node_alive(nodes[1]), "first victim dead");
        assert!(!fabric.node_alive(nodes[2]), "second victim dead");
        assert!(fabric.node_alive(nodes[0]) && fabric.node_alive(nodes[3]));
    }

    #[test]
    fn out_of_range_nodes_are_ignored() {
        let mut sim = Sim::new();
        let fabric = Fabric::new(FabricConfig::default());
        let nodes = fabric.add_nodes(2);
        let obs = Obs::disabled();
        let plan = FaultPlan::new().crash(SimTime::from_millis(1), 7);
        Injector::arm(&mut sim, &fabric, &nodes, &obs, &plan);
        sim.run();
        assert!(fabric.node_alive(nodes[0]) && fabric.node_alive(nodes[1]));
    }
}

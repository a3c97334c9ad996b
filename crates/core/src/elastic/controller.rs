//! The load-reactive scale controller.
//!
//! Policy for elastic rescaling: [`ScaleController`] implements
//! [`ScaleDirector`] by watching the cluster telemetry stream
//! ([`ClusterTelemetry`]) and emitting migration plans that grow the
//! cluster onto parked hosts under load and pack it back when the load
//! recedes. The *mechanism* — planned handoffs, cutover checkpoints,
//! channel re-targeting — is the rest of [`crate::elastic`]; this module
//! only decides *when* and *what* to move.
//!
//! The control signal is **utilization**, not raw backlog: the measured
//! arrival rate (differentiated from the pacing curve's released-records
//! counter) divided by provisioned capacity
//! (`hosts_in_use × host_capacity_rps`). A backlog-only policy flaps: at
//! a sustained high-rate plateau the cluster catches up, the backlog
//! drains to zero, and backlog-only logic scales in — straight back into
//! overload. Utilization stays high through the plateau, so hysteresis on
//! it is stable. Backlog still participates asymmetrically: a large
//! backlog forces scale-*out* even at modest instantaneous rates
//! (catch-up), and a non-drained backlog vetoes scale-*in*.
//!
//! Flap resistance is layered: dual thresholds ([`HIGH_UTIL`] and
//! `low_util`, with a dead band between), [`CONFIRM_TICKS`] consecutive
//! samples beyond a threshold before acting, a `cooldown` between
//! actions, and no decisions at all while migrations are in flight.
//!
//! Placement is heat-aware: scale-out spreads the hottest partition (by
//! the SpaceSaving-backed `partition_updates` telemetry) of the most
//! crowded host onto the lowest-numbered parked host; scale-in packs the
//! partitions of the coldest in-use host onto the least crowded survivor.
//! With telemetry disabled all heat is zero and ties break by index, so
//! the controller stays fully deterministic either way.

use std::collections::VecDeque;

use slash_desim::SimTime;

use super::{ClusterTelemetry, MigrationCmd, ScaleDirector};

/// Scale out when utilization exceeds this for [`CONFIRM_TICKS`].
const HIGH_UTIL: f64 = 0.85;
/// Backlog (records) that must be drained before scale-in is considered.
const BACKLOG_LOW: u64 = 2_000;
/// Consecutive out-of-band samples required before acting.
const CONFIRM_TICKS: u32 = 3;

/// Tuning for [`ScaleController`]. Thresholds are fractions of
/// provisioned capacity (1.0 = every in-use host saturated).
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Never pack below this many hosts.
    pub min_hosts: usize,
    /// Never spread beyond this many hosts (≤ provisioned ports).
    pub max_hosts: usize,
    /// Sustainable per-host service rate, records/second — calibrated
    /// from an unpaced probe run (see `slash-bench`'s rescale experiment)
    /// or set from capacity planning.
    pub host_capacity_rps: f64,
    /// Scale in when utilization is below this (and the backlog is
    /// drained) for three consecutive samples. Must sit well under the
    /// scale-out threshold (0.85) after accounting for the capacity
    /// removed by packing, or the controller oscillates.
    pub low_util: f64,
    /// Backlog (records) that forces scale-out regardless of the
    /// instantaneous rate — the catch-up path.
    pub backlog_high: u64,
    /// Minimum virtual time between consecutive scaling actions.
    pub cooldown: SimTime,
    /// Partitions moved per scaling action.
    pub step_partitions: usize,
}

impl ControllerConfig {
    /// A reasonable starting point: scale in below 0.35 utilization, out
    /// above 0.85 or past 50,000 backlogged records, 1 ms cooldown, one
    /// partition per step.
    pub fn new(min_hosts: usize, max_hosts: usize, host_capacity_rps: f64) -> Self {
        assert!(min_hosts >= 1 && min_hosts <= max_hosts);
        assert!(host_capacity_rps > 0.0);
        ControllerConfig {
            min_hosts,
            max_hosts,
            host_capacity_rps,
            low_util: 0.35,
            backlog_high: 50_000,
            cooldown: SimTime::from_millis(1),
            step_partitions: 1,
        }
    }
}

/// One scaling decision, kept for post-run inspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Spread partitions onto parked hosts.
    Out {
        /// Virtual time of the decision.
        at: SimTime,
        /// Hosts in use when it was taken.
        hosts: usize,
    },
    /// Pack partitions off the coldest host.
    In {
        /// Virtual time of the decision.
        at: SimTime,
        /// Hosts in use when it was taken.
        hosts: usize,
    },
}

/// The utilization-hysteresis controller. Create with
/// [`ScaleController::new`], hand to
/// [`ClusterBuilder::elastic`](crate::ClusterBuilder::elastic) as the director.
#[derive(Debug)]
pub struct ScaleController {
    cfg: ControllerConfig,
    /// Sliding telemetry window: (time, released records) samples, most
    /// recent last; sized `CONFIRM_TICKS + 1` so the measured rate spans
    /// exactly the confirmation interval.
    window: VecDeque<(SimTime, u64)>,
    high_streak: u32,
    low_streak: u32,
    last_action_at: Option<SimTime>,
    decisions: Vec<Decision>,
}

impl ScaleController {
    /// A fresh controller with no history.
    pub fn new(cfg: ControllerConfig) -> Self {
        assert!(cfg.low_util < HIGH_UTIL, "dead band required");
        assert!(cfg.step_partitions >= 1);
        ScaleController {
            cfg,
            window: VecDeque::new(),
            high_streak: 0,
            low_streak: 0,
            last_action_at: None,
            decisions: Vec::new(),
        }
    }

    /// Every scaling decision taken so far, in order.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// Arrival rate (records/second) measured across the sample window;
    /// 0 until two samples with distinct times exist.
    fn measured_rate(&self) -> f64 {
        let (Some(&(t0, r0)), Some(&(t1, r1))) = (self.window.front(), self.window.back()) else {
            return 0.0;
        };
        let dt = t1.as_nanos().saturating_sub(t0.as_nanos());
        if dt == 0 {
            return 0.0;
        }
        (r1.saturating_sub(r0)) as f64 * 1.0e9 / dt as f64
    }

    /// Per-host partition load: heat when telemetry is live, partition
    /// count otherwise (all-zero heat degrades to count-balancing).
    fn host_load(t: &ClusterTelemetry, h: usize) -> (u64, usize) {
        let mut heat = 0;
        let mut parts = 0;
        for (p, &hp) in t.host_of.iter().enumerate() {
            if hp == h {
                heat += t.partition_updates.get(p).copied().unwrap_or(0);
                parts += 1;
            }
        }
        (heat, parts)
    }

    /// Spread: move the hottest partitions of the most crowded hosts onto
    /// the lowest-numbered parked hosts, one partition per parked host.
    fn plan_out(&self, t: &ClusterTelemetry) -> Vec<MigrationCmd> {
        let n = t.host_of.len();
        let mut parked: Vec<usize> = (0..n).filter(|h| !t.host_of.contains(h)).collect();
        parked.truncate(
            self.cfg
                .max_hosts
                .saturating_sub(t.hosts_in_use)
                .min(self.cfg.step_partitions),
        );
        let mut host_of = t.host_of.clone();
        let mut cmds = Vec::new();
        for target in parked {
            // Most crowded host by (partition count, heat); only hosts
            // with at least two partitions can donate one.
            let Some(donor) = (0..n)
                .filter(|&h| host_of.iter().filter(|&&hp| hp == h).count() >= 2)
                .max_by_key(|&h| {
                    let heat: u64 = host_of
                        .iter()
                        .enumerate()
                        .filter(|&(_, &hp)| hp == h)
                        .map(|(p, _)| t.partition_updates.get(p).copied().unwrap_or(0))
                        .sum();
                    let parts = host_of.iter().filter(|&&hp| hp == h).count();
                    // Tie-break toward the lowest host index (max_by_key
                    // keeps the *last* max, so invert the index).
                    (parts, heat, n - h)
                })
            else {
                break;
            };
            // Hottest partition on the donor (ties toward lowest index).
            let Some(victim) = host_of
                .iter()
                .enumerate()
                .filter(|&(_, &hp)| hp == donor)
                .max_by_key(|&(p, _)| (t.partition_updates.get(p).copied().unwrap_or(0), n - p))
                .map(|(p, _)| p)
            else {
                break;
            };
            host_of[victim] = target;
            cmds.push(MigrationCmd {
                partition: victim,
                to_host: target,
            });
        }
        cmds
    }

    /// Pack: move the partitions of the coldest in-use host onto the
    /// least crowded survivors, up to `step_partitions` per action (a
    /// bigger host drains over successive actions).
    fn plan_in(&self, t: &ClusterTelemetry) -> Option<Vec<MigrationCmd>> {
        let n = t.host_of.len();
        let in_use: Vec<usize> = (0..n).filter(|h| t.host_of.contains(h)).collect();
        // Coldest host by (heat, partition count); ties toward the
        // highest index so packing converges onto low-numbered hosts.
        let victim_host = in_use.iter().copied().min_by_key(|&h| {
            let (heat, parts) = Self::host_load(t, h);
            (heat, parts, n - h)
        })?;
        let mut host_of = t.host_of.clone();
        let mut cmds = Vec::new();
        for _ in 0..self.cfg.step_partitions {
            let Some(part) = host_of
                .iter()
                .enumerate()
                .filter(|&(_, &hp)| hp == victim_host)
                .map(|(p, _)| p)
                .next()
            else {
                break;
            };
            let Some(target) = (0..n)
                .filter(|&h| h != victim_host && host_of.contains(&h))
                .min_by_key(|&h| {
                    let parts = host_of.iter().filter(|&&hp| hp == h).count();
                    (parts, h)
                })
            else {
                break;
            };
            host_of[part] = target;
            cmds.push(MigrationCmd {
                partition: part,
                to_host: target,
            });
        }
        Some(cmds).filter(|c| !c.is_empty())
    }
}

// `plan_in` returns Option for the ?-operator over empty clusters.
impl ScaleDirector for ScaleController {
    fn tick(&mut self, t: &ClusterTelemetry) -> Vec<MigrationCmd> {
        // Sample the released-records counter and measure the arrival
        // rate across the confirmation window.
        if self.window.back().is_none_or(|&(at, _)| at < t.now) {
            self.window.push_back((t.now, t.released_records));
            while self.window.len() > CONFIRM_TICKS as usize + 1 {
                self.window.pop_front();
            }
        }
        let rate = self.measured_rate();
        let capacity = t.hosts_in_use as f64 * self.cfg.host_capacity_rps;
        let util = if capacity > 0.0 { rate / capacity } else { 0.0 };
        let backlog = t.backlog();

        // Streak accounting runs every tick, even when actions are
        // blocked, so a long migration does not reset the evidence.
        if util > HIGH_UTIL || backlog > self.cfg.backlog_high {
            self.high_streak += 1;
            self.low_streak = 0;
        } else if util < self.cfg.low_util && backlog < BACKLOG_LOW {
            self.low_streak += 1;
            self.high_streak = 0;
        } else {
            self.high_streak = 0;
            self.low_streak = 0;
        }

        // One decision at a time: in-flight migrations must land before
        // their effect on utilization can be judged.
        if t.migrations_in_flight > 0 {
            return Vec::new();
        }
        if let Some(last) = self.last_action_at {
            if t.now < last + self.cfg.cooldown {
                return Vec::new();
            }
        }

        let cmds = if self.high_streak >= CONFIRM_TICKS && t.hosts_in_use < self.cfg.max_hosts {
            let cmds = self.plan_out(t);
            if !cmds.is_empty() {
                self.decisions.push(Decision::Out {
                    at: t.now,
                    hosts: t.hosts_in_use,
                });
            }
            cmds
        } else if self.low_streak >= CONFIRM_TICKS && t.hosts_in_use > self.cfg.min_hosts {
            let cmds = self.plan_in(t).unwrap_or_default();
            if !cmds.is_empty() {
                self.decisions.push(Decision::In {
                    at: t.now,
                    hosts: t.hosts_in_use,
                });
            }
            cmds
        } else {
            Vec::new()
        };
        if !cmds.is_empty() {
            self.last_action_at = Some(t.now);
            self.high_streak = 0;
            self.low_streak = 0;
        }
        cmds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Telemetry fabricator: a cluster of 8 partitions over 8 hosts,
    /// `released` records released by `now`, everything processed unless
    /// stated (zero backlog).
    struct World {
        host_of: Vec<usize>,
        released: u64,
        processed: u64,
        heat: Vec<u64>,
        in_flight: usize,
    }

    impl World {
        fn packed(hosts: usize) -> Self {
            World {
                host_of: (0..8).map(|p| p % hosts).collect(),
                released: 0,
                processed: 0,
                heat: vec![0; 8],
                in_flight: 0,
            }
        }

        fn telemetry(&self, now: SimTime) -> ClusterTelemetry {
            let mut seen = vec![false; self.host_of.len()];
            let mut hosts = 0;
            for &h in &self.host_of {
                if !seen[h] {
                    seen[h] = true;
                    hosts += 1;
                }
            }
            ClusterTelemetry {
                now,
                released_records: self.released,
                processed_records: self.processed,
                total_records: u64::MAX,
                host_of: self.host_of.clone(),
                hosts_in_use: hosts,
                partition_updates: self.heat.clone(),
                migrations_in_flight: self.in_flight,
            }
        }

        /// Apply migrations as the driver would (instant commit).
        fn apply(&mut self, cmds: &[MigrationCmd]) {
            for c in cmds {
                self.host_of[c.partition] = c.to_host;
            }
        }
    }

    fn cfg() -> ControllerConfig {
        // 1000 records/sec per host, 1 ms ticks.
        let mut c = ControllerConfig::new(2, 8, 1000.0);
        c.cooldown = SimTime::from_millis(2);
        c
    }

    fn tick_ms(w: &World, c: &mut ScaleController, ms: u64) -> Vec<MigrationCmd> {
        c.tick(&w.telemetry(SimTime::from_millis(ms)))
    }

    #[test]
    fn sustained_overload_scales_out_to_parked_hosts() {
        let mut w = World::packed(2);
        let mut c = ScaleController::new(cfg());
        // 2 hosts × 1000 rps capacity; arrive at 3000 rps (u = 1.5).
        let mut cmds = Vec::new();
        for ms in 0..10 {
            w.released += 3;
            w.processed = w.released; // keeps backlog out of the signal
            let out = tick_ms(&w, &mut c, ms);
            if !out.is_empty() {
                cmds = out.clone();
                w.apply(&out);
                break;
            }
        }
        assert_eq!(cmds.len(), 1, "{:?}", c.decisions());
        let cmd = cmds[0];
        assert!(
            !(0..8).map(|p| p % 2).any(|h| h == cmd.to_host),
            "target must be a parked host: {cmd:?}"
        );
        assert!(matches!(c.decisions(), [Decision::Out { hosts: 2, .. }]));
    }

    #[test]
    fn plateau_at_capacity_does_not_flap() {
        // Backlog-only policies scale in once caught up at a plateau;
        // utilization must hold the fleet. Arrive at 0.6 × capacity of 3
        // hosts — between low (0.35) and high (0.85): no action ever.
        let mut w = World::packed(3);
        let mut c = ScaleController::new(cfg());
        for i in 0..50 {
            w.released += 9; // 9 records / 5 ms = 1800 rps, u = 0.6
            w.processed = w.released;
            assert!(tick_ms(&w, &mut c, i * 5).is_empty(), "tick {i}");
        }
        assert!(c.decisions().is_empty());
    }

    #[test]
    fn one_high_sample_is_not_confirmation() {
        let mut w = World::packed(2);
        let mut c = ScaleController::new(cfg());
        // Two quiet samples, one spike, quiet again. The windowed rate
        // sees the spike for a while, but only the spike tick itself
        // clears `HIGH_UTIL` — the streak never reaches `CONFIRM_TICKS`.
        let rates = [1, 1, 3, 1, 1, 1, 1];
        for (ms, r) in rates.iter().enumerate() {
            w.released += r;
            w.processed = w.released;
            assert!(tick_ms(&w, &mut c, ms as u64).is_empty());
        }
    }

    #[test]
    fn big_backlog_forces_catchup_scale_out() {
        let mut w = World::packed(2);
        let mut c = ScaleController::new(cfg());
        w.released = 200_000; // far over backlog_high
        w.processed = 10_000;
        let mut fired = false;
        for ms in 0..10 {
            let out = tick_ms(&w, &mut c, ms);
            if !out.is_empty() {
                fired = true;
                break;
            }
        }
        assert!(fired, "backlog pressure must scale out");
    }

    #[test]
    fn idle_cluster_packs_back_to_min_hosts() {
        let mut w = World::packed(4);
        let mut c = ScaleController::new(cfg());
        // No arrivals at all: scale in step by step, never below
        // min_hosts = 2, one action per cooldown window.
        let mut hosts_seen = Vec::new();
        for ms in 0..200 {
            let out = tick_ms(&w, &mut c, ms);
            if !out.is_empty() {
                w.apply(&out);
                hosts_seen.push(w.telemetry(SimTime::ZERO).hosts_in_use);
            }
        }
        // One partition moves per action, so draining a two-partition
        // host takes two actions before hosts_in_use drops.
        assert_eq!(hosts_seen, vec![4, 3, 3, 2], "pack 4 -> 3 -> 2, then hold");
        assert!(c
            .decisions()
            .iter()
            .all(|d| matches!(d, Decision::In { .. })));
    }

    #[test]
    fn undrained_backlog_vetoes_scale_in() {
        let mut w = World::packed(4);
        let mut c = ScaleController::new(cfg());
        w.released = 100_000;
        w.processed = w.released - 50_000; // rate 0 but huge backlog
        for ms in 0..20 {
            let out = tick_ms(&w, &mut c, ms);
            // Backlog > backlog_high actually *grows* the fleet here —
            // it must never shrink it.
            assert!(
                out.iter().all(|cmd| !w.host_of.contains(&cmd.to_host)),
                "{out:?}"
            );
            w.apply(&out);
        }
    }

    #[test]
    fn no_decisions_while_migrations_in_flight() {
        let mut w = World::packed(2);
        let mut c = ScaleController::new(cfg());
        w.in_flight = 1;
        for ms in 0..20 {
            w.released += 9; // wildly over capacity
            w.processed = w.released;
            assert!(tick_ms(&w, &mut c, ms).is_empty());
        }
        // The evidence kept accumulating: the moment the migration lands,
        // the next tick may act.
        w.in_flight = 0;
        w.released += 9;
        w.processed = w.released;
        assert!(!tick_ms(&w, &mut c, 20).is_empty());
    }

    #[test]
    fn cooldown_spaces_consecutive_actions() {
        let mut w = World::packed(2);
        let mut c = ScaleController::new(cfg());
        let mut action_times = Vec::new();
        for ms in 0..20 {
            w.released += 30; // overload throughout
            w.processed = w.released;
            let out = tick_ms(&w, &mut c, ms);
            if !out.is_empty() {
                action_times.push(ms);
                w.apply(&out);
            }
        }
        assert!(action_times.len() >= 2, "{action_times:?}");
        for pair in action_times.windows(2) {
            assert!(pair[1] - pair[0] >= 2, "cooldown = 2 ms: {action_times:?}");
        }
    }

    #[test]
    fn spread_picks_the_hottest_partition_of_the_crowded_host() {
        let mut w = World::packed(2);
        w.heat = vec![5, 0, 9, 0, 90, 0, 7, 0]; // partition 4 is hottest on host 0
        let mut c = ScaleController::new(cfg());
        let mut cmds = Vec::new();
        for ms in 0..10 {
            w.released += 3;
            w.processed = w.released;
            let out = tick_ms(&w, &mut c, ms);
            if !out.is_empty() {
                cmds = out;
                break;
            }
        }
        assert_eq!(cmds.len(), 1);
        assert_eq!(
            cmds[0].partition, 4,
            "hottest even-partition lives on host 0"
        );
    }

    #[test]
    fn max_hosts_clamps_scale_out() {
        let mut c = ControllerConfig::new(2, 2, 1000.0);
        c.cooldown = SimTime::from_millis(2);
        let mut ctl = ScaleController::new(c);
        let mut w = World::packed(2);
        for ms in 0..20 {
            w.released += 30;
            w.processed = w.released;
            assert!(tick_ms(&w, &mut ctl, ms).is_empty(), "already at max");
        }
    }
}

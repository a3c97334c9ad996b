//! The fault-plan DSL: a deterministic schedule of fault events.

use slash_desim::{DetRng, SimTime};

/// What kind of fault to inject. All node indices are *fabric* node
/// indices (the same indices `Fabric::add_nodes` hands out, in order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The node crashes: volatile state (partitions, channel endpoints,
    /// workers) is lost and its NIC never answers again. Irreversible.
    NodeCrash {
        /// Fabric node that dies.
        node: usize,
    },
    /// The node's link goes down for `down_for`, then comes back. Work
    /// requests in the window are flushed; both endpoints stay alive.
    LinkFlap {
        /// Fabric node whose link flaps.
        node: usize,
        /// How long the link stays down.
        down_for: SimTime,
    },
    /// The node's link is degraded for `duration`: every message touching
    /// the node pays `extra` additional delay, but nothing is lost.
    LinkDegrade {
        /// Fabric node whose link degrades.
        node: usize,
        /// Extra per-message delay while degraded.
        extra: SimTime,
        /// How long the degradation lasts.
        duration: SimTime,
    },
    /// Completions on the node are delayed by `extra` for `duration` —
    /// the "slow NIC firmware" fault. Semantically identical traffic,
    /// later completion visibility.
    DelayedCompletions {
        /// Fabric node whose completions lag.
        node: usize,
        /// Extra completion delay.
        extra: SimTime,
        /// How long the lag lasts.
        duration: SimTime,
    },
}

impl FaultKind {
    /// The fabric node this fault targets.
    pub fn node(&self) -> usize {
        match *self {
            FaultKind::NodeCrash { node }
            | FaultKind::LinkFlap { node, .. }
            | FaultKind::LinkDegrade { node, .. }
            | FaultKind::DelayedCompletions { node, .. } => node,
        }
    }

    /// Stable kebab-case name (trace labels, reports).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::NodeCrash { .. } => "node-crash",
            FaultKind::LinkFlap { .. } => "link-flap",
            FaultKind::LinkDegrade { .. } => "link-degrade",
            FaultKind::DelayedCompletions { .. } => "delayed-completions",
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual time at which the fault strikes.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults, ordered by injection time.
///
/// Built with the fluent methods or generated from a seed; either way the
/// plan is plain data — arming it schedules only `SimTime` events, so the
/// whole run (including the faults) replays byte-identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (the no-fault baseline).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add a node crash at `at`.
    pub fn crash(mut self, at: SimTime, node: usize) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::NodeCrash { node },
        });
        self.sorted()
    }

    /// Add a link flap at `at` lasting `down_for`.
    pub fn link_flap(mut self, at: SimTime, node: usize, down_for: SimTime) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::LinkFlap { node, down_for },
        });
        self.sorted()
    }

    /// Add link degradation at `at`: `extra` delay per message for
    /// `duration`.
    pub fn degrade(mut self, at: SimTime, node: usize, extra: SimTime, duration: SimTime) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::LinkDegrade {
                node,
                extra,
                duration,
            },
        });
        self.sorted()
    }

    /// Add delayed completions at `at`: `extra` delay for `duration`.
    pub fn delay_completions(
        mut self,
        at: SimTime,
        node: usize,
        extra: SimTime,
        duration: SimTime,
    ) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::DelayedCompletions {
                node,
                extra,
                duration,
            },
        });
        self.sorted()
    }

    /// Crash several distinct nodes at the same instant — the cascading
    /// building block for "a rack lost power". Simultaneous crashes mean a
    /// victim's designated checkpoint buddy may itself be dead, forcing
    /// buddy re-selection and recovery from an older (or the seed) copy.
    ///
    /// # Examples
    ///
    /// Nodes 1 and 2 die together at t = 400 µs, so node 1's ring buddy
    /// (node 2) is gone and promotion must fall back to another copy
    /// holder:
    ///
    /// ```
    /// use slash_core::chaos::FaultPlan;
    /// use slash_desim::SimTime;
    ///
    /// let plan = FaultPlan::new().concurrent(SimTime::from_micros(400), &[1, 2]);
    /// assert_eq!(plan.crashed_nodes(), vec![1, 2]);
    /// assert_eq!(plan.events().len(), 2);
    /// ```
    pub fn concurrent(mut self, at: SimTime, nodes: &[usize]) -> Self {
        for &node in nodes {
            self.events.push(FaultEvent {
                at,
                kind: FaultKind::NodeCrash { node },
            });
        }
        self.sorted()
    }

    /// Crash `first` at `first_at`, then crash `second` a `lag` later —
    /// aimed into the recovery window the first crash opens. Callers
    /// typically probe a single-crash run for its detection→commit span
    /// and pick `lag` to land mid-promotion; the promotion state machine
    /// must then restart from the durable checkpoint (recovery
    /// re-entrancy).
    ///
    /// # Examples
    ///
    /// Node 2 dies 150 µs into node 1's recovery:
    ///
    /// ```
    /// use slash_core::chaos::FaultPlan;
    /// use slash_desim::SimTime;
    ///
    /// let plan = FaultPlan::new().during_recovery(
    ///     SimTime::from_micros(200),
    ///     1,
    ///     SimTime::from_micros(150),
    ///     2,
    /// );
    /// assert_eq!(plan.crashed_nodes(), vec![1, 2]);
    /// let times: Vec<u64> = plan.events().iter().map(|e| e.at.as_nanos()).collect();
    /// assert_eq!(times, vec![200_000, 350_000]);
    /// ```
    pub fn during_recovery(
        self,
        first_at: SimTime,
        first: usize,
        lag: SimTime,
        second: usize,
    ) -> Self {
        self.crash(first_at, first).crash(first_at + lag, second)
    }

    fn sorted(mut self) -> Self {
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// Generate a plan of `n_faults` random non-crash faults (flaps,
    /// degradations, delays) over `n_nodes` nodes within `[within/4,
    /// within)`, deterministically from `seed`. Crashes are excluded
    /// because they need a recovery-capable embedding; add them explicitly
    /// with [`FaultPlan::crash`].
    pub fn seeded(seed: u64, n_nodes: usize, n_faults: usize, within: SimTime) -> Self {
        let mut rng = DetRng::new(seed ^ 0xC4A0_5BAD);
        let span = within.as_nanos().max(4);
        let mut plan = FaultPlan::new();
        for _ in 0..n_faults {
            let at = SimTime::from_nanos(span / 4 + rng.next_below(span / 2).max(1));
            let node = rng.next_below(n_nodes as u64) as usize;
            let dur = SimTime::from_nanos(span / 16 + rng.next_below(span / 8).max(1));
            let extra = SimTime::from_micros(1 + rng.next_below(20));
            plan = match rng.next_below(3) {
                0 => plan.link_flap(at, node, dur),
                1 => plan.degrade(at, node, extra, dur),
                _ => plan.delay_completions(at, node, extra, dur),
            };
        }
        plan
    }

    /// The scheduled events, in injection order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan injects nothing (no-fault baseline).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Fabric nodes that crash under this plan, in injection order.
    pub fn crashed_nodes(&self) -> Vec<usize> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::NodeCrash { node } => Some(node),
                _ => None,
            })
            .collect()
    }

    /// A stable 64-bit digest of the plan (SplitMix64 fold over the
    /// encoded events). Two plans digest equal iff they schedule the same
    /// faults at the same times — recorded in golden-determinism tests.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0x5EED_0FCA_0500;
        let mut fold = |v: u64| {
            let mut z = h.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(v);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            h = z ^ (z >> 31);
        };
        for e in &self.events {
            fold(e.at.as_nanos());
            match e.kind {
                FaultKind::NodeCrash { node } => {
                    fold(1);
                    fold(node as u64);
                }
                FaultKind::LinkFlap { node, down_for } => {
                    fold(2);
                    fold(node as u64);
                    fold(down_for.as_nanos());
                }
                FaultKind::LinkDegrade {
                    node,
                    extra,
                    duration,
                } => {
                    fold(3);
                    fold(node as u64);
                    fold(extra.as_nanos());
                    fold(duration.as_nanos());
                }
                FaultKind::DelayedCompletions {
                    node,
                    extra,
                    duration,
                } => {
                    fold(4);
                    fold(node as u64);
                    fold(extra.as_nanos());
                    fold(duration.as_nanos());
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sorts_by_time() {
        let plan = FaultPlan::new()
            .link_flap(SimTime::from_millis(9), 1, SimTime::from_millis(1))
            .crash(SimTime::from_millis(3), 0);
        let times: Vec<u64> = plan.events().iter().map(|e| e.at.as_nanos()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(plan.crashed_nodes(), vec![0]);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_seed_sensitive() {
        let a = FaultPlan::seeded(7, 4, 6, SimTime::from_secs(1));
        let b = FaultPlan::seeded(7, 4, 6, SimTime::from_secs(1));
        let c = FaultPlan::seeded(8, 4, 6, SimTime::from_secs(1));
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.events().len(), 6);
        assert!(a.crashed_nodes().is_empty(), "seeded plans exclude crashes");
    }

    #[test]
    fn digest_distinguishes_kinds_and_times() {
        let t = SimTime::from_millis(5);
        let d = SimTime::from_millis(1);
        let flap = FaultPlan::new().link_flap(t, 0, d);
        let crash = FaultPlan::new().crash(t, 0);
        let later = FaultPlan::new().link_flap(t + d, 0, d);
        assert_ne!(flap.digest(), crash.digest());
        assert_ne!(flap.digest(), later.digest());
        assert_ne!(FaultPlan::new().digest(), flap.digest());
    }
}

//! The simulation driver.

use std::cell::RefCell;
use std::rc::Rc;

use crate::clock::SimTime;
use crate::event::{EventKind, EventLabel, EventQueue, TieBreak};
use crate::process::{ProcId, ProcState, Process, Step};

struct ProcEntry {
    proc_: Rc<RefCell<dyn Process>>,
    state: ProcState,
    name: String,
}

/// Aggregate kernel statistics (useful in tests and reports).
#[derive(Debug, Default, Clone, Copy)]
pub struct SimStats {
    /// Total events fired.
    pub events: u64,
    /// Total process steps executed.
    pub steps: u64,
    /// Wake events dropped as stale.
    pub stale_wakes: u64,
}

/// One same-instant event as seen at a branch point of an explored run.
///
/// `seq` identifies the event within *this* run (sequence numbers are
/// deterministic for a fixed choice prefix); `label` carries the structural
/// information the explorer's independence relation works on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnabledEvent {
    /// Schedule sequence number of the event in this run.
    pub seq: u64,
    /// Structural label (channel / node / none).
    pub label: EventLabel,
}

/// A recorded same-instant scheduling decision from an explored run.
///
/// Whenever two or more events tie at the earliest virtual time, the
/// simulator consults the replay schedule (or defaults to FIFO), fires the
/// chosen event, and records the full enabled set plus the choice here.
/// The sequence of `chosen` indices is a complete, replayable encoding of
/// the schedule: replaying it through [`Sim::with_schedule`] reproduces the
/// run exactly.
#[derive(Debug, Clone)]
pub struct ChoicePoint {
    /// Virtual time of the tie.
    pub at: SimTime,
    /// Every event enabled at this instant, in schedule (seq) order.
    pub enabled: Vec<EnabledEvent>,
    /// Index into `enabled` of the event that fired.
    pub chosen: u32,
    /// Scenario state digest at the branch point (0 if no hook installed).
    pub digest: u64,
}

/// Explore-mode state: replay schedule, recorded trace, digest hook.
struct ExploreState {
    schedule: Vec<u32>,
    cursor: usize,
    trace: Vec<ChoicePoint>,
    /// Distinct virtual instants at which events fired, ascending.
    instants: Vec<SimTime>,
    digest: Option<Box<dyn Fn() -> u64>>,
}

/// A deterministic discrete-event simulator.
///
/// See the crate docs for the execution model. A `Sim` is single-threaded
/// and `!Send`; shared simulation state lives behind `Rc<RefCell<...>>`.
pub struct Sim {
    now: SimTime,
    queue: EventQueue,
    procs: Vec<ProcEntry>,
    stepping: Option<ProcId>,
    self_wake: bool,
    stats: SimStats,
    fingerprint: u64,
    explore: Option<ExploreState>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create an empty simulation at virtual time zero.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            queue: EventQueue::default(),
            procs: Vec::new(),
            stepping: None,
            self_wake: false,
            stats: SimStats::default(),
            fingerprint: 0,
            explore: None,
        }
    }

    /// Create a simulation in *explore mode* with an explicit replay
    /// schedule.
    ///
    /// Whenever two or more events tie at the earliest virtual time, the
    /// next entry of `choices` picks which of them fires (an index into the
    /// enabled set in schedule order, clamped to the set size); once the
    /// schedule is exhausted every remaining tie falls back to FIFO
    /// (index 0). Every decision — enabled set, choice, optional state
    /// digest — is recorded and retrievable via [`Sim::take_choice_trace`],
    /// so a run is fully replayable from its own trace. An empty `choices`
    /// reproduces exactly the [`TieBreak::Fifo`] schedule (and its
    /// fingerprint).
    pub fn with_schedule(choices: &[u32]) -> Self {
        let mut sim = Sim::new();
        sim.explore = Some(ExploreState {
            schedule: choices.to_vec(),
            cursor: 0,
            trace: Vec::new(),
            instants: Vec::new(),
            digest: None,
        });
        sim
    }

    /// Whether this simulation is in explore mode (see [`Sim::with_schedule`]).
    pub fn exploring(&self) -> bool {
        self.explore.is_some()
    }

    /// Install a scenario state-digest hook for explore mode.
    ///
    /// The hook is called at every branch point (before the chosen event
    /// fires) and its value recorded in the [`ChoicePoint`]; the explorer
    /// uses it to deduplicate converged prefixes. Captured state must be
    /// read through `Rc<RefCell<...>>` handles and the hook must not mutate
    /// anything. No-op outside explore mode.
    pub fn set_state_digest(&mut self, f: impl Fn() -> u64 + 'static) {
        if let Some(ex) = self.explore.as_mut() {
            ex.digest = Some(Box::new(f));
        }
    }

    /// Take the recorded branch-point trace of an explored run (empty
    /// outside explore mode).
    pub fn take_choice_trace(&mut self) -> Vec<ChoicePoint> {
        self.explore
            .as_mut()
            .map(|ex| std::mem::take(&mut ex.trace))
            .unwrap_or_default()
    }

    /// Take the distinct virtual instants at which an explored run fired
    /// events, in ascending order (empty outside explore mode). These are
    /// the only instants at which an externally injected event — a fault —
    /// can change its order relative to the run's own events.
    pub fn take_event_instants(&mut self) -> Vec<SimTime> {
        self.explore
            .as_mut()
            .map(|ex| std::mem::take(&mut ex.instants))
            .unwrap_or_default()
    }

    /// Create a simulation whose same-timestamp events fire in the order
    /// chosen by `policy` (the default is [`TieBreak::Fifo`]).
    ///
    /// Used by the race checker to explore many legal interleavings of the
    /// same scenario: the physics (event timestamps) are unchanged, only the
    /// order among genuinely concurrent events varies.
    pub fn with_tie_break(policy: TieBreak) -> Self {
        let mut sim = Sim::new();
        sim.queue.set_policy(policy);
        sim
    }

    /// Change the tie-break policy for events scheduled from now on.
    /// Already-queued events keep the order they were given at scheduling
    /// time, so this is safe to call mid-run.
    pub fn set_tie_break(&mut self, policy: TieBreak) {
        self.queue.set_policy(policy);
    }

    /// The active tie-break policy.
    pub fn tie_break(&self) -> TieBreak {
        self.queue.policy()
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Kernel statistics so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// A hash of the exact order in which events have fired so far.
    ///
    /// Two runs have the same fingerprint iff they popped the same
    /// `(time, schedule-seq)` stream — i.e. executed the same schedule. The
    /// race checker uses this to count how many *distinct* interleavings a
    /// sweep of tie-break seeds actually explored.
    pub fn schedule_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Register a process and schedule its first step at the current time.
    pub fn spawn<P: Process + 'static>(&mut self, p: P) -> ProcId {
        self.spawn_at(self.now, p)
    }

    /// Register a process and schedule its first step at `at`.
    pub fn spawn_at<P: Process + 'static>(&mut self, at: SimTime, p: P) -> ProcId {
        debug_assert!(at >= self.now, "cannot spawn in the past");
        let pid = ProcId(self.procs.len() as u32);
        let name = p.name().to_owned();
        self.procs.push(ProcEntry {
            proc_: Rc::new(RefCell::new(p)),
            state: ProcState::Scheduled,

            name,
        });
        self.queue.push(at, EventKind::Wake(pid));
        pid
    }

    /// Register a process in the parked state; it will only run once
    /// something calls [`Sim::wake`] on it.
    pub fn spawn_parked<P: Process + 'static>(&mut self, p: P) -> ProcId {
        let pid = ProcId(self.procs.len() as u32);
        let name = p.name().to_owned();
        self.procs.push(ProcEntry {
            proc_: Rc::new(RefCell::new(p)),
            state: ProcState::Parked,

            name,
        });
        pid
    }

    /// Wake a parked process at the current virtual time.
    ///
    /// Waking a process that is busy (yielded) or already has a pending wake
    /// is a no-op: the process re-polls its inputs whenever it next steps.
    /// Waking the process that is *currently stepping* defers the wake until
    /// the step finishes, so a step that both parks and triggers its own
    /// wake condition does not lose the wakeup.
    pub fn wake(&mut self, pid: ProcId) {
        if self.stepping == Some(pid) {
            self.self_wake = true;
            return;
        }
        let entry = &mut self.procs[pid.index()];
        match entry.state {
            ProcState::Parked => {
                entry.state = ProcState::Scheduled;

                self.queue.push(self.now, EventKind::Wake(pid));
            }
            ProcState::Scheduled | ProcState::Done => {}
        }
    }

    /// Wake a parked process at a future virtual time (a timer).
    pub fn wake_at(&mut self, at: SimTime, pid: ProcId) {
        debug_assert!(at >= self.now);
        let entry = &mut self.procs[pid.index()];
        if entry.state == ProcState::Parked {
            entry.state = ProcState::Scheduled;
            self.queue.push(at, EventKind::Wake(pid));
        }
    }

    /// Schedule a closure to run at virtual time `at`.
    pub fn schedule_at<F: FnOnce(&mut Sim) + 'static>(&mut self, at: SimTime, f: F) {
        debug_assert!(at >= self.now, "cannot schedule in the past");
        self.queue.push(at, EventKind::Closure(Box::new(f)));
    }

    /// Schedule a closure with a structural [`EventLabel`], so the
    /// exhaustive explorer can reason about which same-instant orders
    /// commute. Only label an event `channel(src, dst)` if its closure
    /// provably touches nothing but endpoint state of those two nodes.
    pub fn schedule_at_labeled<F: FnOnce(&mut Sim) + 'static>(
        &mut self,
        at: SimTime,
        label: EventLabel,
        f: F,
    ) {
        debug_assert!(at >= self.now, "cannot schedule in the past");
        self.queue
            .push_labeled(at, label, EventKind::Closure(Box::new(f)));
    }

    /// Schedule a closure to run after a virtual delay.
    pub fn schedule_in<F: FnOnce(&mut Sim) + 'static>(&mut self, delay: SimTime, f: F) {
        self.schedule_at(self.now + delay, f);
    }

    /// Whether the given process has finished.
    pub fn is_done(&self, pid: ProcId) -> bool {
        self.procs[pid.index()].state == ProcState::Done
    }

    /// Diagnostic name of a process.
    pub fn proc_name(&self, pid: ProcId) -> &str {
        &self.procs[pid.index()].name
    }

    /// Fire events until the queue is empty (all processes parked or done).
    /// Returns the final virtual time.
    pub fn run(&mut self) -> SimTime {
        while self.fire_next() {}
        self.now
    }

    /// Fire events until the queue is empty or virtual time would exceed
    /// `deadline`. Events at exactly `deadline` are fired.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.fire_next();
        }
        // Even if nothing happened at `deadline`, time advances to it.
        if self.now < deadline {
            self.now = deadline;
        }
        self.now
    }

    /// Fire events until `pred` returns true (checked after every event) or
    /// the queue drains. Returns true if the predicate fired.
    pub fn run_while<F: FnMut() -> bool>(&mut self, mut keep_going: F) -> bool {
        while keep_going() {
            if !self.fire_next() {
                return false;
            }
        }
        true
    }

    /// Number of pending events (diagnostics).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    fn fire_next(&mut self) -> bool {
        let ev = if self.explore.is_some() {
            let Some(ev) = self.next_explored() else {
                return false;
            };
            ev
        } else {
            let Some(ev) = self.queue.pop() else {
                return false;
            };
            ev
        };
        debug_assert!(ev.at >= self.now, "event queue went backwards");
        self.now = ev.at;
        self.stats.events += 1;
        // Fold the pop order into the schedule fingerprint (SplitMix64 over
        // the running hash and the event identity).
        let mut z = self
            .fingerprint
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(ev.at.0)
            .wrapping_add(ev.seq.rotate_left(32));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        self.fingerprint = z ^ (z >> 31);
        match ev.kind {
            EventKind::Closure(f) => f(self),
            EventKind::Wake(pid) => self.step_proc(pid),
        }
        true
    }

    /// Explore-mode event selection: pop the full same-instant tie set; if
    /// it is a genuine branch point (two or more enabled events), consult
    /// the replay schedule (FIFO once exhausted), record the decision, and
    /// push the unchosen events back with their original order intact.
    fn next_explored(&mut self) -> Option<crate::event::Scheduled> {
        let mut ties = self.queue.pop_ties();
        if ties.is_empty() {
            return None;
        }
        let ex = self.explore.as_mut().expect("explore mode");
        if ex.instants.last() != Some(&ties[0].at) {
            ex.instants.push(ties[0].at);
        }
        if ties.len() == 1 {
            return ties.pop();
        }
        let idx = if ex.cursor < ex.schedule.len() {
            (ex.schedule[ex.cursor] as usize).min(ties.len() - 1)
        } else {
            0
        };
        ex.cursor += 1;
        let digest = match &ex.digest {
            Some(f) => f(),
            None => 0,
        };
        ex.trace.push(ChoicePoint {
            at: ties[0].at,
            enabled: ties
                .iter()
                .map(|s| EnabledEvent {
                    seq: s.seq,
                    label: s.label,
                })
                .collect(),
            chosen: idx as u32,
            digest,
        });
        let ev = ties.remove(idx);
        for rest in ties {
            self.queue.push_back(rest);
        }
        Some(ev)
    }

    fn step_proc(&mut self, pid: ProcId) {
        {
            let entry = &self.procs[pid.index()];
            if entry.state != ProcState::Scheduled {
                self.stats.stale_wakes += 1;
                return;
            }
        }
        let proc_rc = Rc::clone(&self.procs[pid.index()].proc_);
        self.stepping = Some(pid);
        self.self_wake = false;
        let step = proc_rc.borrow_mut().step(self, pid);
        self.stepping = None;
        self.stats.steps += 1;
        let resched = self.self_wake;
        self.self_wake = false;
        let entry = &mut self.procs[pid.index()];
        match step {
            Step::Yield(d) => {
                let at = self.now + d;
                self.queue.push(at, EventKind::Wake(pid));
            }
            Step::Park => {
                if resched {
                    self.queue.push(self.now, EventKind::Wake(pid));
                } else {
                    entry.state = ProcState::Parked;
                }
            }
            Step::Done => {
                entry.state = ProcState::Done;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Appends its wake times to a shared log, yielding a fixed interval a
    /// fixed number of times.
    struct Ticker {
        log: Rc<RefCell<Vec<u64>>>,
        interval: SimTime,
        remaining: u32,
    }

    impl Process for Ticker {
        fn step(&mut self, sim: &mut Sim, _me: ProcId) -> Step {
            self.log.borrow_mut().push(sim.now().as_nanos());
            self.remaining -= 1;
            if self.remaining == 0 {
                Step::Done
            } else {
                Step::Yield(self.interval)
            }
        }
        fn name(&self) -> &str {
            "ticker"
        }
    }

    #[test]
    fn yield_advances_virtual_time() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        let pid = sim.spawn(Ticker {
            log: Rc::clone(&log),
            interval: SimTime::from_nanos(50),
            remaining: 4,
        });
        let end = sim.run();
        assert_eq!(&*log.borrow(), &[0, 50, 100, 150]);
        assert_eq!(end, SimTime::from_nanos(150));
        assert!(sim.is_done(pid));
    }

    #[test]
    fn two_processes_interleave_deterministically() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        sim.spawn(Ticker {
            log: Rc::clone(&log),
            interval: SimTime::from_nanos(30),
            remaining: 3,
        });
        sim.spawn_at(
            SimTime::from_nanos(10),
            Ticker {
                log: Rc::clone(&log),
                interval: SimTime::from_nanos(30),
                remaining: 3,
            },
        );
        sim.run();
        assert_eq!(&*log.borrow(), &[0, 10, 30, 40, 60, 70]);
    }

    /// A process that parks until woken, recording how many times it ran.
    struct Sleeper {
        runs: Rc<RefCell<u32>>,
    }
    impl Process for Sleeper {
        fn step(&mut self, _sim: &mut Sim, _me: ProcId) -> Step {
            *self.runs.borrow_mut() += 1;
            Step::Park
        }
    }

    #[test]
    fn park_and_wake() {
        let runs = Rc::new(RefCell::new(0));
        let mut sim = Sim::new();
        let pid = sim.spawn_parked(Sleeper {
            runs: Rc::clone(&runs),
        });
        sim.run();
        assert_eq!(*runs.borrow(), 0, "parked process must not run");
        sim.schedule_in(SimTime::from_nanos(5), move |s| s.wake(pid));
        sim.run();
        assert_eq!(*runs.borrow(), 1);
        assert_eq!(sim.now(), SimTime::from_nanos(5));
    }

    #[test]
    fn wake_while_busy_is_coalesced() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        let pid = sim.spawn(Ticker {
            log: Rc::clone(&log),
            interval: SimTime::from_nanos(100),
            remaining: 2,
        });
        // Wake attempts while the ticker is "busy" must not double-step it.
        sim.schedule_in(SimTime::from_nanos(10), move |s| s.wake(pid));
        sim.schedule_in(SimTime::from_nanos(20), move |s| s.wake(pid));
        sim.run();
        assert_eq!(&*log.borrow(), &[0, 100]);
        assert!(
            sim.stats().stale_wakes == 0,
            "busy wakes are dropped, not staled"
        );
    }

    /// A process that wakes itself through a side effect during its own step,
    /// then parks — the kernel must convert that into an immediate re-step.
    struct SelfWaker {
        runs: Rc<RefCell<u32>>,
    }
    impl Process for SelfWaker {
        fn step(&mut self, sim: &mut Sim, me: ProcId) -> Step {
            let mut runs = self.runs.borrow_mut();
            *runs += 1;
            if *runs == 1 {
                sim.wake(me); // e.g. loopback delivery to our own queue
                Step::Park
            } else {
                Step::Done
            }
        }
    }

    #[test]
    fn self_wake_during_step_is_not_lost() {
        let runs = Rc::new(RefCell::new(0));
        let mut sim = Sim::new();
        sim.spawn(SelfWaker {
            runs: Rc::clone(&runs),
        });
        sim.run();
        assert_eq!(*runs.borrow(), 2);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        sim.spawn(Ticker {
            log: Rc::clone(&log),
            interval: SimTime::from_nanos(40),
            remaining: 100,
        });
        sim.run_until(SimTime::from_nanos(100));
        assert_eq!(&*log.borrow(), &[0, 40, 80]);
        assert_eq!(sim.now(), SimTime::from_nanos(100));
        sim.run_until(SimTime::from_nanos(120));
        assert_eq!(&*log.borrow(), &[0, 40, 80, 120]);
    }

    #[test]
    fn closures_and_wakes_fifo_at_same_time() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        for i in 0..4u64 {
            let log = Rc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(10), move |_s| log.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(&*log.borrow(), &[0, 1, 2, 3]);
    }

    fn same_time_order(policy: TieBreak) -> (Vec<u64>, u64) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::with_tie_break(policy);
        for i in 0..8u64 {
            let log = Rc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(10), move |_s| log.borrow_mut().push(i));
        }
        sim.run();
        let order = log.borrow().clone();
        (order, sim.schedule_fingerprint())
    }

    #[test]
    fn tie_break_policies_permute_same_time_events() {
        let (fifo, fp_fifo) = same_time_order(TieBreak::Fifo);
        let (lifo, fp_lifo) = same_time_order(TieBreak::Lifo);
        let (s1, fp_s1) = same_time_order(TieBreak::Seeded(1));
        let (s1_again, fp_s1_again) = same_time_order(TieBreak::Seeded(1));
        assert_eq!(fifo, (0..8u64).collect::<Vec<_>>());
        assert_eq!(lifo, (0..8u64).rev().collect::<Vec<_>>());
        assert_eq!(s1, s1_again, "seeded schedules are reproducible");
        assert_eq!(fp_s1, fp_s1_again);
        assert_ne!(
            fp_fifo, fp_lifo,
            "different schedules → different fingerprints"
        );
        assert_ne!(fp_fifo, fp_s1);
        let mut sorted = s1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, fifo, "every event still fires exactly once");
    }

    /// Run four same-instant closures under an explicit schedule and return
    /// (observed order, fingerprint, trace).
    fn explored_order(choices: &[u32]) -> (Vec<u64>, u64, Vec<ChoicePoint>) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::with_schedule(choices);
        for i in 0..4u64 {
            let log = Rc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(10), move |_s| log.borrow_mut().push(i));
        }
        sim.run();
        let order = log.borrow().clone();
        let trace = sim.take_choice_trace();
        (order, sim.schedule_fingerprint(), trace)
    }

    #[test]
    fn empty_schedule_reproduces_fifo_run_and_fingerprint() {
        let (fifo_order, fp_fifo) = same_time_order(TieBreak::Fifo);
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::with_schedule(&[]);
        for i in 0..8u64 {
            let log = Rc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(10), move |_s| log.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*log.borrow(), fifo_order);
        assert_eq!(sim.schedule_fingerprint(), fp_fifo);
    }

    #[test]
    fn schedule_choices_pick_tie_order_and_trace_replays() {
        // Choice k picks the (k+1)-th remaining event at each branch point.
        let (order, fp, trace) = explored_order(&[3, 2, 1]);
        assert_eq!(
            order,
            vec![3, 2, 1, 0],
            "indices select from the remaining set"
        );
        // Branch points: 4-way, 3-way, 2-way (final singleton unrecorded).
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].enabled.len(), 4);
        assert_eq!(trace[1].enabled.len(), 3);
        assert_eq!(trace[2].enabled.len(), 2);
        assert_eq!(
            trace.iter().map(|c| c.chosen).collect::<Vec<_>>(),
            vec![3, 2, 1]
        );
        // Replaying the trace's own choices reproduces the run exactly.
        let chosen: Vec<u32> = trace.iter().map(|c| c.chosen).collect();
        let (order2, fp2, _) = explored_order(&chosen);
        assert_eq!(order2, order);
        assert_eq!(fp2, fp);
        // Out-of-range choices clamp instead of panicking.
        let (order3, _, _) = explored_order(&[99]);
        assert_eq!(order3, vec![3, 0, 1, 2]);
    }

    #[test]
    fn state_digest_hook_records_at_branch_points() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::with_schedule(&[]);
        for i in 0..3u64 {
            let log = Rc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(5), move |_s| log.borrow_mut().push(i));
        }
        let digest_src = Rc::clone(&log);
        sim.set_state_digest(move || digest_src.borrow().len() as u64);
        sim.run();
        let trace = sim.take_choice_trace();
        // Digest sampled *before* the chosen event fires: 0 events done at
        // the first branch, 1 at the second.
        assert_eq!(
            trace.iter().map(|c| c.digest).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert!(sim.exploring());
        assert_eq!(sim.take_event_instants(), vec![SimTime::from_nanos(5)]);
        let mut plain = Sim::new();
        plain.set_state_digest(|| 42); // no-op outside explore mode
        assert!(plain.take_choice_trace().is_empty());
    }

    #[test]
    fn fingerprint_identical_for_identical_runs() {
        let run = || {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Sim::new();
            sim.spawn(Ticker {
                log,
                interval: SimTime::from_nanos(25),
                remaining: 5,
            });
            sim.run();
            sim.schedule_fingerprint()
        };
        assert_eq!(run(), run());
        assert_ne!(run(), 0, "a non-trivial run should leave a non-zero hash");
    }
}

//! The simulation driver.

use crate::clock::SimTime;
use crate::event::{EventKind, EventLabel, EventQueue, Scheduled};
use crate::process::{ProcId, Process, Step};
use crate::rng::mix64;

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
    /// Registered processes, indexed by [`ProcId`]. A process has exactly
    /// one wake event queued — the one its spawn or its last `Yield`
    /// scheduled — until it returns [`Step::Done`]; then it is dropped and
    /// its slot stays empty.
    procs: Vec<Option<Box<dyn Process>>>,
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
            fingerprint: 0,
            explore: None,
        }
    }

    /// Create a simulation in *explore mode* with an explicit replay
    /// schedule.
    ///
    /// Whenever two or more events tie at the earliest virtual time, the
    /// next entry of `choices` picks which of them fires: entry `c` picks
    /// index `c % n` of the `n` enabled events in schedule order, so any
    /// `u32` vector is valid and uniform entries make an unbiased random
    /// schedule. Once the schedule is exhausted every remaining tie falls
    /// back to FIFO (index 0). Every decision — enabled set, choice,
    /// optional state digest — is recorded and retrievable via
    /// [`Sim::take_choice_trace`], so a run is fully replayable from its
    /// own trace. An empty `choices` reproduces exactly the FIFO schedule
    /// of [`Sim::new`] (and its fingerprint).
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

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// A hash of the exact order in which events have fired so far.
    ///
    /// Two runs have the same fingerprint iff they popped the same
    /// `(time, schedule-seq)` stream — i.e. executed the same schedule. The
    /// race checker uses this to count how many *distinct* interleavings a
    /// sweep of seeded choice vectors actually explored.
    pub fn schedule_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Register a process and schedule its first step at the current time.
    pub fn spawn<P: Process + 'static>(&mut self, p: P) -> ProcId {
        let pid = ProcId(self.procs.len() as u32);
        self.procs.push(Some(Box::new(p)));
        self.queue.push(self.now, EventKind::Wake(pid));
        pid
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

    /// Fire events until the queue is empty (every process done).
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

    /// Number of pending events (diagnostics).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    fn fire_next(&mut self) -> bool {
        let next = match self.explore {
            Some(_) => self.next_explored(),
            None => self.queue.pop(),
        };
        let Some(ev) = next else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "event queue went backwards");
        self.now = ev.at;
        // Fold the pop order into the schedule fingerprint (SplitMix64 over
        // the running hash and the event identity).
        self.fingerprint = mix64(
            self.fingerprint
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(ev.at.0)
                .wrapping_add(ev.seq.rotate_left(32)),
        );
        match ev.kind {
            EventKind::Closure(f) => f(self),
            EventKind::Wake(pid) => self.step_proc(pid),
        }
        true
    }

    /// Explore-mode event selection: pop the next event; if others share
    /// its instant it is a branch point, so drain the tie set, consult the
    /// replay schedule (FIFO once exhausted), record the decision, and push
    /// the unchosen events back with their original order intact.
    fn next_explored(&mut self) -> Option<Scheduled> {
        let first = self.queue.pop()?;
        let at = first.at;
        let ex = self.explore.as_mut().expect("explore mode");
        if ex.instants.last() != Some(&at) {
            ex.instants.push(at);
        }
        if self.queue.peek_time() != Some(at) {
            return Some(first);
        }
        let mut ties = vec![first];
        ties.extend(std::iter::from_fn(|| self.queue.pop_at(at)));
        let idx = match ex.schedule.get(ex.cursor) {
            Some(&c) => c as usize % ties.len(),
            None => 0,
        };
        ex.cursor += 1;
        let digest = ex.digest.as_ref().map_or(0, |f| f());
        ex.trace.push(ChoicePoint {
            at,
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

    /// Step `pid`. The process is taken out of its slot while it runs, so
    /// the step can borrow the simulator, and goes back only if it yields.
    fn step_proc(&mut self, pid: ProcId) {
        let mut p = self.procs[pid.index()]
            .take()
            .expect("a wake is queued only for a live process");
        if let Step::Yield(d) = p.step(self, pid) {
            self.procs[pid.index()] = Some(p);
            self.queue.push(self.now + d, EventKind::Wake(pid));
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
    }

    #[test]
    fn yield_advances_virtual_time() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        sim.spawn(Ticker {
            log: Rc::clone(&log),
            interval: SimTime::from_nanos(50),
            remaining: 4,
        });
        let end = sim.run();
        assert_eq!(&*log.borrow(), &[0, 50, 100, 150]);
        assert_eq!(end, SimTime::from_nanos(150));
    }

    /// Counts its steps and finishes on the first one.
    struct OneShot(Rc<RefCell<u32>>);

    impl Process for OneShot {
        fn step(&mut self, _sim: &mut Sim, _me: ProcId) -> Step {
            *self.0.borrow_mut() += 1;
            assert_eq!(*self.0.borrow(), 1, "stepped again after Step::Done");
            Step::Done
        }
    }

    #[test]
    fn done_process_is_never_stepped_again() {
        let steps = Rc::new(RefCell::new(0));
        let mut sim = Sim::new();
        sim.spawn(OneShot(Rc::clone(&steps)));
        sim.schedule_at(SimTime::from_nanos(10), |_| {});
        sim.run();
        assert_eq!(*steps.borrow(), 1);
        assert_eq!(sim.pending_events(), 0);
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
        let late = Ticker {
            log: Rc::clone(&log),
            interval: SimTime::from_nanos(30),
            remaining: 3,
        };
        sim.schedule_at(SimTime::from_nanos(10), move |s| {
            s.spawn(late);
        });
        sim.run();
        assert_eq!(&*log.borrow(), &[0, 10, 30, 40, 60, 70]);
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

    /// Run eight same-instant closures on `sim` and return (observed
    /// order, fingerprint).
    fn same_time_order(mut sim: Sim) -> (Vec<u64>, u64) {
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..8u64 {
            let log = Rc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(10), move |_s| log.borrow_mut().push(i));
        }
        sim.run();
        let order = log.borrow().clone();
        (order, sim.schedule_fingerprint())
    }

    /// Eight uniform choices drawn from `DetRng::new(seed)`.
    fn seeded(seed: u64) -> Vec<u32> {
        let mut rng = crate::DetRng::new(seed);
        (0..8).map(|_| rng.next_u64() as u32).collect()
    }

    #[test]
    fn seeded_vectors_permute_same_time_events() {
        let (fifo, fp_fifo) = same_time_order(Sim::new());
        let (s1, fp_s1) = same_time_order(Sim::with_schedule(&seeded(1)));
        let (s1_again, fp_s1_again) = same_time_order(Sim::with_schedule(&seeded(1)));
        let (s2, _) = same_time_order(Sim::with_schedule(&seeded(2)));
        assert_eq!(fifo, (0..8u64).collect::<Vec<_>>());
        assert_eq!(s1, s1_again, "seeded schedules are reproducible");
        assert_eq!(fp_s1, fp_s1_again);
        assert_ne!(s1, fifo, "a seeded vector leaves the FIFO order");
        assert_ne!(
            fp_fifo, fp_s1,
            "different schedules → different fingerprints"
        );
        assert_ne!(s1, s2, "different seeds explore different orders");
        for order in [s1, s2] {
            let mut sorted = order;
            sorted.sort_unstable();
            assert_eq!(sorted, fifo, "every event still fires exactly once");
        }
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
        assert_eq!(
            same_time_order(Sim::with_schedule(&[])),
            same_time_order(Sim::new())
        );
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
    }

    #[test]
    fn out_of_range_choice_picks_choice_mod_tie_set_size() {
        // 5 % 4 = 1 picks event 1 of {0, 1, 2, 3}; 7 % 3 = 1 picks event 2
        // of {0, 2, 3}; the rest is FIFO.
        let (order, _, trace) = explored_order(&[5, 7]);
        assert_eq!(order, vec![1, 2, 0, 3]);
        assert_eq!(
            trace.iter().map(|c| c.chosen).collect::<Vec<_>>(),
            vec![1, 1, 0],
            "the trace records the in-range index that fired"
        );
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

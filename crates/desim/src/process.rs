//! Cooperative processes: the unit of concurrent activity in the simulation.
//!
//! A process models one logical thread of execution — a Slash worker thread,
//! a baseline's partitioning thread, a source. The kernel steps a process
//! whenever it is scheduled to wake; the process performs a bounded amount of
//! work against shared state, *charges* the virtual time that work costs by
//! yielding for that duration, and either reschedules itself or finishes.
//! A process that waits for input polls it on its next step.

use std::fmt;

use crate::clock::SimTime;
use crate::sim::Sim;

/// Identifier of a registered process. Stable for the lifetime of the
/// simulation (slots are not reused).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub(crate) u32);

impl ProcId {
    /// The raw index (useful for building per-process tables).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc#{}", self.0)
    }
}

/// The outcome of one step of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Run again after the given virtual duration. Charging compute cost is
    /// expressed as `Yield(cost)`: the process is busy for that long.
    Yield(SimTime),
    /// The process has finished: the simulator drops it and never steps
    /// it again.
    Done,
}

/// A cooperative simulated thread.
///
/// Implementations hold `Rc<RefCell<...>>` handles to whatever shared state
/// they operate on (memory regions, queues, state backend partitions).
pub trait Process {
    /// Perform one bounded quantum of work. `sim` is available for
    /// scheduling follow-up events (e.g. posting RDMA work requests causes
    /// the fabric to schedule delivery events); `me` is the process's own
    /// id.
    fn step(&mut self, sim: &mut Sim, me: ProcId) -> Step;
}

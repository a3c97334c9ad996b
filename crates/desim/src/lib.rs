#![cfg_attr(
    not(test),
    deny(
        clippy::dbg_macro,
        clippy::print_stdout,
        clippy::disallowed_types,
        clippy::disallowed_methods,
    )
)]
//! # slash-desim — deterministic discrete-event simulation kernel
//!
//! All of Slash's "hardware" substrates (the software RDMA fabric, NIC
//! bandwidth pacing, virtual CPU time) run on top of this kernel. It is a
//! classic discrete-event simulator: a priority queue of timestamped events,
//! a virtual clock in nanoseconds, and cooperative *processes* that are
//! stepped whenever they are scheduled to wake.
//!
//! Design goals, in order:
//!
//! 1. **Determinism.** Two runs with the same inputs produce byte-identical
//!    results. Ties between events at the same virtual time are broken by a
//!    monotone sequence number, and the kernel is strictly single-threaded.
//!    The tie-break order among same-timestamp events is *pluggable* (see
//!    [`TieBreak`]): the default is FIFO, and the `slash-verify` race
//!    checker replays protocol scenarios under seeded permutations of
//!    exactly those ties to explore alternative legal schedules.
//! 2. **Ergonomics for protocol code.** The RDMA channel and the epoch
//!    coherence protocol are written as ordinary Rust state machines that
//!    implement [`Process`]; shared structures (memory regions, completion
//!    queues) live behind `Rc<RefCell<...>>` handles.
//! 3. **Zero dependence on wall-clock time.** Throughput measurements in
//!    the reproduction are derived from [`SimTime`], which makes them exact
//!    and reproducible even on a one-core CI machine.
//!
//! The kernel knows nothing about RDMA or streaming; see `slash-rdma` for the
//! fabric model built on top.

pub mod clock;
pub(crate) mod event;
pub mod link;
pub mod process;
pub mod rng;
pub mod sim;

pub use clock::SimTime;
pub use event::{EventLabel, TieBreak};
pub use link::Link;
pub use process::{ProcId, Process, Step};
pub use rng::DetRng;
pub use sim::{ChoicePoint, EnabledEvent, Sim};

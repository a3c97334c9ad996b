#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
//! # slash-verify — verification tooling for the Slash reproduction
//!
//! Two parts, one goal: catch protocol bugs that ordinary unit tests and
//! the compiler's lints structurally cannot.
//!
//! 1. **Exactness, stated once** ([`oracle`] + [`catalogue`]): the
//!    sequential fold of a query's input is the specification, and the
//!    fault matrix — every named crash, flap, handoff and hot-split case
//!    as a data row — is run against it on the cluster driver that ships
//!    (`SlashCluster::builder(..).run_on(sim)`), by `cargo test`,
//!    `slash-race` and the recovery bench alike.
//!
//! 2. **The race checker** ([`race`] + [`scenarios`] + [`explorer`]): a
//!    bounded schedule explorer layered on `slash-desim`'s choice vectors
//!    ([`slash_desim::Sim::with_schedule`]). The simulation's default FIFO
//!    tie-break picks *one* legal order among same-timestamp events; the
//!    checker replays the channel, multi-port fabric and epoch-coherence
//!    protocol scenarios under many seeded choice vectors over exactly
//!    those ties, and the fault matrix under many fault instants × tie
//!    schedules, judging every one: no protocol violation counted by the
//!    shipped code's own checks (FIFO, credit window, epoch order,
//!    watermarks), streams complete and credits converged at quiescence,
//!    epoch convergence, and recovery convergence (a faulted run equals
//!    the sequential fold and every fault got its repair). A violation
//!    names the choice vector that reproduces it. On top of the random
//!    sweep sits the bounded **exhaustive model checker**: a DFS over the
//!    same per-branch-point choice vectors, with sleep-set reduction,
//!    state-digest deduplication, budget accounting, and greedy
//!    counterexample minimization (`slash-race --exhaustive`).
//!
//! All of it runs in CI via `scripts/ci.sh` (`slash-race`). The
//! repository's static rules (no unsafe code, no panics in protocol
//! library code, no hash-ordered containers or host clock reads where the
//! simulation can see them) are rustc and clippy lints, set in the
//! workspace manifest and the library roots (DESIGN §8).

pub mod catalogue;
pub mod explorer;
pub mod oracle;
pub mod race;
pub mod scenarios;

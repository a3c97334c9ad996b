#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! # slash-verify — verification tooling for the Slash reproduction
//!
//! Three parts, one goal: catch protocol bugs that ordinary unit tests and
//! `clippy` structurally cannot.
//!
//! 1. **`slash-lint`** ([`lint`]): a self-contained static-analysis pass
//!    over the workspace sources. No `syn`, no `rustc` plumbing — a small
//!    comment/string-aware token scanner that enforces repo-specific
//!    hygiene rules: no `unwrap`/`expect`/`panic!`/`todo!` in library code
//!    of the protocol crates, no silent truncating `as` casts in
//!    wire-format files, mandatory `#![forbid(unsafe_code)]` +
//!    `#![deny(missing_docs)]` crate roots, and no debug printing in
//!    library code. Grandfathered violations live in a checked-in
//!    allowlist whose budgets can only shrink (burn-down).
//!
//! 2. **Exactness, stated once** ([`oracle`] + [`catalogue`]): the
//!    sequential fold of a query's input is the specification, and the
//!    fault matrix — every named crash, flap, handoff and hot-split case
//!    as a data row — is run against it on the cluster driver that ships
//!    (`SlashCluster::builder(..).run_on(sim)`), by `cargo test`,
//!    `slash-race` and the recovery bench alike.
//!
//! 3. **The race checker** ([`race`] + [`scenarios`] + [`explorer`]): a
//!    bounded schedule explorer layered on `slash-desim`'s pluggable
//!    [`slash_desim::TieBreak`] policy. The simulation's default FIFO
//!    tie-break picks *one* legal order among same-timestamp events; the
//!    checker replays the channel, multi-port fabric and epoch-coherence
//!    protocol scenarios under many seeded permutations of exactly those
//!    ties, and the fault matrix under many fault instants × tie
//!    schedules, asserting the invariants under every one: FIFO delivery,
//!    credit conservation, no slot overwritten before consumption,
//!    vector-clock monotonicity, epoch convergence, and recovery
//!    convergence (a faulted run equals the sequential fold and every
//!    fault got its repair). On top of the random sweep sits the bounded
//!    **exhaustive model checker**: a DFS over the explicit
//!    per-branch-point choice vectors of `slash-desim`'s explore mode,
//!    with sleep-set reduction, state-digest deduplication, budget
//!    accounting, and greedy counterexample minimization
//!    (`slash-race --exhaustive`).
//!
//! All of it runs in CI via `scripts/ci.sh` (`slash-lint`, `slash-race`).

pub mod catalogue;
pub mod explorer;
pub mod lint;
pub mod oracle;
pub mod race;
pub mod scenarios;

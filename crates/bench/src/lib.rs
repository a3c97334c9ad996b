#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! # slash-bench — the experiment harness
//!
//! One runner per table/figure of the paper's evaluation (§8). Each
//! experiment returns [`report::Table`]s that the `repro` binary
//! prints and writes as CSV; integration tests assert the paper's
//! qualitative *shapes* on the same runners (who wins, by roughly what
//! factor, where trends bend).
//!
//! Scales default to a laptop-friendly configuration (4 workers/node,
//! 20 k records/worker) and can be raised toward the paper's setup with
//! `SLASH_WORKERS` / `SLASH_RECORDS` environment variables; throughput in
//! virtual time is scale-stable once runs reach steady state.

pub mod ablation;
pub mod analytic;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod harness;
pub mod micro;
pub mod recovery;
pub mod report;
pub mod rescale;
pub mod scale;
pub mod suts;
pub mod uarch;

pub use scale::Scale;

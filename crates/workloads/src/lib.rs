#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
//! # slash-workloads — benchmark workload generators (paper §8.1.2)
//!
//! Deterministic, seedable generators for every workload the paper
//! evaluates:
//!
//! * **YSB** — Yahoo! Streaming Benchmark: 78-byte ad events, filter +
//!   projection + per-campaign tumbling count windows.
//! * **NEXMark** — auction platform streams; queries NB7 (windowed max
//!   price over bids, Pareto-skewed keys), NB8 (12 h tumbling join of
//!   auctions and sellers, large tuples), NB11 (session join of bids and
//!   sellers, small tuples).
//! * **CM** — Cluster Monitoring: 64-byte task records with a 2 s tumbling
//!   mean-CPU-per-job aggregation. The Google trace itself is not
//!   redistributable; the generator synthesizes records with the same
//!   schema and cardinalities (substitution documented in DESIGN.md).
//! * **RO** — the paper's self-developed read-only drill-down benchmark:
//!   16-byte records, per-key occurrence counting, uniform keys from a
//!   100 M-wide domain (scaled by configuration).
//!
//! Generators pre-materialize in-memory partitions — the paper's
//! methodology ("we pre-generate the dataset to stream data from main
//! memory") — one partition per executor thread, with **non-disjoint key
//! spaces** across partitions: the same key occurs on every node, which is
//! precisely the situation Slash's shared state is designed for.

pub mod dist;
pub mod spec;
pub mod workloads;

pub use dist::{Pareto, Uniform, Zipf};
pub use spec::{GenConfig, Workload};
pub use workloads::{cm, nb11, nb7, nb8, ro, ro_zipf, ysb, ysb_hot, ysb_zipf, ysb_zipf_keyed};

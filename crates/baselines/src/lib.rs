#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
//! # slash-baselines — the paper's comparison systems (§8.1.1)
//!
//! Three systems-under-test, built to be compared head-to-head with Slash
//! on identical workloads over the identical simulated fabric:
//!
//! * **RDMA UpPar** ([`uppar`]) — the *lightweight integration* straw man:
//!   a classic scale-out SPE that hash-re-partitions every record across
//!   the cluster, with its exchange layer swapped onto one-sided RDMA
//!   channels. Half of each node's threads partition, half process
//!   (the paper's configuration for partitioned SUTs).
//! * **Flink-sim** ([`flinksim`]) — the *plug-and-play integration*:
//!   the same re-partitioning topology over socket-style IPoIB channels
//!   (kernel copies, syscalls, reduced goodput) with a managed-runtime
//!   cost factor on every CPU operation, per the paper's observations
//!   about Flink 1.9 on IPoIB.
//! * **LightSaber-sim** ([`lightsaber`]) — the scale-up SPE: single node,
//!   task-based parallelism over one *shared* task queue, late merge,
//!   no networking, no epochs. Used by the COST analysis (Fig. 7).
//!
//! UpPar and Flink share one engine ([`partitioned`]) parameterized by
//! transport and runtime factor, which keeps the comparison structural:
//! the *only* differences between them are the ones the paper names.

pub mod exchange;
pub mod flinksim;
pub mod lightsaber;
pub mod partitioned;
pub mod sut;
pub mod uppar;

pub use flinksim::run_flink;
pub use lightsaber::run_lightsaber;
pub use sut::CommonReport;
pub use uppar::run_uppar;

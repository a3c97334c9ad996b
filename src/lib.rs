//! # Slash — RDMA-native stateful stream processing
//!
//! Facade crate re-exporting the public API of the Slash reproduction.
//! See the README and DESIGN.md at the repository root.

pub use slash_baselines as baselines;
pub use slash_core as core;
pub use slash_desim as desim;
pub use slash_net as net;
pub use slash_obs as obs;
pub use slash_rdma as rdma;
pub use slash_state as state;
pub use slash_workloads as workloads;

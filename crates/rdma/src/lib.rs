#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::dbg_macro,
        clippy::print_stdout,
        clippy::disallowed_methods,
    )
)]
//! # slash-rdma — a software RDMA fabric with ibverbs-shaped semantics
//!
//! This crate is the substitute for the InfiniBand hardware the paper runs
//! on (16 nodes, Mellanox ConnectX-4 EDR 100 Gb/s, one port per node). It
//! models, on top of the `slash-desim` kernel:
//!
//! * **Registered memory regions** ([`memory::Mr`]) addressed by rkey, the
//!   only memory remote operations may touch.
//! * **Reliable-connection queue pairs** ([`qp::Qp`]) carrying one-sided
//!   `RDMA WRITE`s with in-order delivery per QP — the one verb Slash's
//!   RDMA channel (§6 of the paper) is built from, for payload slots and
//!   credit returns alike.
//! * **Completion queues** ([`cq::CqHandle`]) with selective signaling:
//!   unsignaled work requests consume no completion, exactly like
//!   `IBV_SEND_SIGNALED`.
//! * **NIC bandwidth pacing** ([`nic`]): each node has one full-duplex port;
//!   transfers serialize on the sender's TX link and the receiver's RX link
//!   (cut-through) plus a propagation latency and a fixed per-message
//!   overhead. This is what makes incast — many partitioning producers
//!   hammering one consumer — emerge naturally in the baselines.
//!
//! What is intentionally *not* modeled: memory registration cost (setup
//! phase only), MTU segmentation (bandwidth pacing subsumes it), and packet
//! loss (reliable connections only, as in the paper).
//!
//! ## Fault injection
//!
//! The fabric exposes fault hooks ([`Fabric::fail_node`],
//! [`Fabric::set_link_down`], [`Fabric::set_extra_delay`]) driven by
//! `slash_core::chaos`. A failed path flushes work requests instead of
//! delivering them: signaled requests surface
//! [`cq::CompletionStatus::FlushErr`] completions, the QP transitions to
//! the error state ([`qp::Qp::is_error`]) and rejects further posts until
//! [`qp::Qp::reset`] re-establishes the connection under a new incarnation
//! (fencing any stale in-flight deliveries).
//!
//! ## Semantics notes
//!
//! A one-sided WRITE becomes visible in the target memory region atomically
//! at its delivery instant, and completions on the sender are generated
//! after a further ack latency. Because delivery events execute between
//! process steps, a consumer that polls the *last byte* of a buffer (the
//! paper's footer-polling rule) never observes a torn transfer — the same
//! guarantee the paper derives from NICs writing low-to-high addresses.

pub mod cq;
pub mod error;
pub mod fabric;
pub mod memory;
pub mod nic;
pub mod qp;
pub mod verbs;

pub use cq::{Completion, CompletionStatus, CqHandle};
pub use error::{RdmaError, Result};
pub use fabric::{Fabric, FabricConfig, NodeId};
pub use memory::{Mr, RemoteKey};
pub use nic::NicConfig;
pub use qp::Qp;
pub use verbs::{LocalSlice, RemoteSlice, WorkRequest};

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::dbg_macro,
        clippy::print_stdout,
        clippy::disallowed_types,
        clippy::disallowed_methods,
    )
)]
//! # slash-net — RDMA data channels (paper §6)
//!
//! The RDMA channel is Slash's unit of data movement: a credit-based,
//! FIFO, zero-copy circular queue shared between one producer and one
//! consumer over a reliable RDMA connection. The same channel implements
//! data re-partitioning in the RDMA UpPar baseline and ingestion/state
//! synchronization in Slash itself.
//!
//! Protocol (paper §6.2):
//!
//! * **Setup phase** — both sides allocate a circular queue of `c`
//!   fixed-size RDMA-registered buffers; `c` is the credit budget and the
//!   pipelining depth. The producer additionally registers an 8-byte credit
//!   counter the consumer writes into.
//! * **Transfer phase** — the producer ① acquires the next free slot,
//!   ② posts a single one-sided `RDMA WRITE` carrying payload *and* footer,
//!   ③ polls its local credit counter. The consumer ① polls the footer's
//!   final byte of the expected slot, ② processes the payload in place,
//!   ③ returns a credit by writing its cumulative consumed count back.
//!
//! Invariants (tested, including property-based): FIFO delivery; a producer
//! never overwrites an unread buffer; credits are conserved
//! (`available + in_flight + unconsumed == c`); a producer with zero
//! credits cannot post.
//!
//! ## Message layout
//!
//! Each slot is `[padding | payload | footer]` with the 16-byte footer at
//! the *end* of the slot and the payload right-aligned against it. A single
//! contiguous WRITE of `len + 16` bytes therefore carries payload and
//! footer, and polling the footer's last byte guarantees the payload
//! preceding it has fully landed (WRITEs land low-to-high). The poll byte
//! is a per-wrap *generation* so slot reuse needs no cleanup writes.
//!
//! The crate also provides [`socket::SocketSender`]/[`socket::SocketReceiver`],
//! a socket-style (IPoIB) channel with kernel-copy and syscall costs, used by the Flink baseline.

pub mod channel;
pub mod layout;
pub mod receiver;
pub mod sender;
pub mod socket;
pub mod spsc;
pub mod stats;

pub use channel::{create_channel, ChannelConfig, RECONNECT_HANDSHAKE_MSGS};
pub use layout::{Footer, MsgFlags, FOOTER_SIZE};
pub use receiver::ChannelReceiver;
pub use sender::ChannelSender;
pub use socket::{socket_pair, SocketConfig, SocketReceiver, SocketSender};
pub use spsc::{spsc_channel, SpscReceiver, SpscSender};
pub use stats::ChannelStats;

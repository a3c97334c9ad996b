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
//! # slash-state — the Slash State Backend (SSB, paper §7)
//!
//! A distributed, concurrent key-value store for in-memory operator state.
//! The key space is split into `n` *partitions*, one per executor node.
//! Every node is the **leader** of exactly one partition and a **helper**
//! for every other: because Slash never re-partitions the input stream, a
//! node routinely updates keys whose leader is elsewhere, accumulating
//! those updates in a local *fragment* of the foreign partition.
//!
//! Fragments are reconciled by an **epoch-based coherence protocol**
//! (§7.2.2): at every epoch token a helper ① bumps the partition's epoch
//! counter, ② marks the freshly-written region of its log read-only,
//! ③ ships it to the leader over an RDMA channel, and ④ invalidates the
//! shipped region so subsequent read-modify-writes restart from the CRDT
//! zero value (delta-state semantics). Leaders merge inbound deltas into
//! their primary partition with the state's CRDT merge function, so any
//! interleaving of concurrent updates converges to the sequential result.
//!
//! Storage follows FASTER's split of **hash index** (`index`) from
//! **log-structured storage** ([`log`]): the index maps key hashes to log
//! addresses and stores no keys; the log stores key-value entries densely,
//! giving the temporal locality that makes delta extraction a contiguous
//! byte-range scan instead of pointer chasing (§7.2.1).
//!
//! Watermarks ride along with state deltas ([`VectorClock`]), which is how
//! leaders learn that a window can be triggered consistently (property P1).

pub mod backend;
mod coherence;
mod combiner;
mod crdts;
mod crdts_hll;
pub mod delta;
pub mod descriptor;
pub mod entry;
pub mod hash;
mod index;
pub mod log;
mod partition;
mod snapshot;
mod split;
mod vclock;

pub use backend::recovery::{rejoin, relink, Rejoin, SsbCheckpoint};
pub use backend::{SsbConfig, SsbNode, TriggeredValue};
pub use coherence::{DeltaReceiver, DeltaSender, RetainedEpoch, StateError};
pub use combiner::WriteCombiner;
pub use crdts::{CounterCrdt, MaxCrdt, MeanCrdt, MinCrdt};
pub use crdts_hll::HllCrdt;
pub use delta::DeltaDecodeError;
pub use descriptor::{StateDescriptor, ValueKind};
pub use hash::{pack_key, StateKey};
pub use partition::{ElementList, Partition};
pub use snapshot::{chunks_digest, restore, snapshot_chunks};
pub use split::{SplitLedger, SUB_KEY_TAG};
pub use vclock::VectorClock;

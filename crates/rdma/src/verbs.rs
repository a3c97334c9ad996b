//! Work request types — the verbs vocabulary.

use crate::memory::{Mr, RemoteKey};

/// A local scatter/gather entry: a sub-range of a registered region.
#[derive(Clone)]
pub struct LocalSlice {
    /// The registered region the data lives in.
    pub mr: Mr,
    /// Byte offset into the region.
    pub offset: usize,
    /// Length in bytes.
    pub len: usize,
}

impl LocalSlice {
    /// Convenience constructor covering a whole region.
    pub fn whole(mr: &Mr) -> Self {
        LocalSlice {
            mr: mr.clone(),
            offset: 0,
            len: mr.len(),
        }
    }

    /// A sub-range of a region.
    pub fn range(mr: &Mr, offset: usize, len: usize) -> Self {
        LocalSlice {
            mr: mr.clone(),
            offset,
            len,
        }
    }
}

impl std::fmt::Debug for LocalSlice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LocalSlice[{}..{}]", self.offset, self.offset + self.len)
    }
}

/// A remote address: rkey plus offset within the remote region.
#[derive(Debug, Clone, Copy)]
pub struct RemoteSlice {
    /// Remote region token.
    pub key: RemoteKey,
    /// Byte offset into the remote region.
    pub offset: usize,
}

/// A work request posted to a queue pair's send queue.
///
/// The one verb §6 of the paper builds its channel from: a one-sided
/// WRITE. `wr_id` is an opaque caller cookie returned in the matching
/// completion; `signaled` implements selective signaling (an unsignaled
/// request completes silently, saving completion-queue processing). The
/// channel posts both its payload writes and its credit returns
/// unsignaled.
#[derive(Debug, Clone)]
pub enum WorkRequest {
    /// One-sided write of `local` into `remote` on the peer node.
    Write {
        /// Caller cookie echoed in the completion.
        wr_id: u64,
        /// Source bytes.
        local: LocalSlice,
        /// Destination on the peer.
        remote: RemoteSlice,
        /// Whether to generate a send-side completion.
        signaled: bool,
    },
}

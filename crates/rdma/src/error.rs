//! Error types for fabric operations.

use std::fmt;

/// Errors surfaced by verb-level operations.
///
/// These correspond to conditions a real ibverbs stack reports either as
/// immediate `errno`s (invalid arguments) or as flushed work completions
/// (access violations). The simulator reports all of them eagerly at post
/// time, which makes protocol bugs fail fast and deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdmaError {
    /// The rkey does not name a registered memory region on the target node.
    InvalidRkey {
        /// Target node id.
        node: u32,
        /// The unknown rkey.
        rkey: u32,
    },
    /// A local or remote access falls outside the registered region.
    OutOfBounds {
        /// Length of the registered region.
        region_len: usize,
        /// Requested start offset.
        offset: usize,
        /// Requested length.
        len: usize,
    },
    /// The queue pair is in the error state (a prior work request was
    /// flushed after a link or peer failure). Posts are rejected until the
    /// QP is reset and the connection re-established.
    QpError,
}

impl fmt::Display for RdmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdmaError::InvalidRkey { node, rkey } => {
                write!(f, "invalid rkey {rkey:#x} on node {node}")
            }
            RdmaError::OutOfBounds {
                region_len,
                offset,
                len,
            } => write!(
                f,
                "access [{offset}, {}) outside region of {region_len} bytes",
                offset + len
            ),
            RdmaError::QpError => write!(f, "queue pair in error state"),
        }
    }
}

impl std::error::Error for RdmaError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, RdmaError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = RdmaError::OutOfBounds {
            region_len: 100,
            offset: 90,
            len: 20,
        };
        assert_eq!(
            e.to_string(),
            "access [90, 110) outside region of 100 bytes"
        );
        assert!(RdmaError::QpError.to_string().contains("error state"));
    }
}

//! Registered memory regions.
//!
//! An [`Mr`] is a handle to a pinned, registered buffer. The owning node
//! accesses it directly (local loads/stores); remote nodes may only reach it
//! through a queue pair using the region's [`RemoteKey`]. This mirrors the
//! ibverbs model where `ibv_reg_mr` yields an `lkey` for local scatter/gather
//! entries and an `rkey` that is shipped to peers out of band.

use std::cell::RefCell;
use std::rc::Rc;

use crate::error::{RdmaError, Result};
use crate::fabric::NodeId;

/// The token a peer needs to address this region in one-sided verbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RemoteKey {
    /// Node owning the region.
    pub node: NodeId,
    /// Region key, unique per node.
    pub rkey: u32,
}

pub(crate) type Bytes = Rc<RefCell<Box<[u8]>>>;

/// A registered memory region.
///
/// Cloning an `Mr` clones the *handle*; all clones view the same memory,
/// exactly like multiple references to one pinned allocation.
#[derive(Clone)]
pub struct Mr {
    node: NodeId,
    rkey: u32,
    data: Bytes,
}

impl Mr {
    pub(crate) fn new(node: NodeId, rkey: u32, len: usize) -> Self {
        Mr {
            node,
            rkey,
            data: Rc::new(RefCell::new(vec![0u8; len].into_boxed_slice())),
        }
    }

    /// The remote key peers use to address this region.
    pub fn remote_key(&self) -> RemoteKey {
        RemoteKey {
            node: self.node,
            rkey: self.rkey,
        }
    }

    /// Owning node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.data.borrow().len()
    }

    /// Whether the region is empty (zero-length registrations are legal).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bounds-check an access.
    pub fn check(&self, offset: usize, len: usize) -> Result<()> {
        let region_len = self.len();
        if offset.checked_add(len).is_none_or(|end| end > region_len) {
            return Err(RdmaError::OutOfBounds {
                region_len,
                offset,
                len,
            });
        }
        Ok(())
    }

    /// Local read: copy `out.len()` bytes starting at `offset` into `out`.
    pub fn read(&self, offset: usize, out: &mut [u8]) -> Result<()> {
        self.check(offset, out.len())?;
        out.copy_from_slice(&self.data.borrow()[offset..offset + out.len()]);
        Ok(())
    }

    /// Local write: copy `src` into the region at `offset`.
    pub fn write(&self, offset: usize, src: &[u8]) -> Result<()> {
        self.check(offset, src.len())?;
        self.data.borrow_mut()[offset..offset + src.len()].copy_from_slice(src);
        Ok(())
    }

    /// Run `f` with a shared view of a sub-range (cheap polling access).
    pub fn with<R>(&self, offset: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        self.check(offset, len)?;
        let data = self.data.borrow();
        Ok(f(&data[offset..offset + len]))
    }

    /// Run `f` with a mutable view of a sub-range (zero-copy fill before a
    /// send, exactly how the RDMA channel stages payloads).
    pub fn with_mut<R>(
        &self,
        offset: usize,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R> {
        self.check(offset, len)?;
        let mut data = self.data.borrow_mut();
        Ok(f(&mut data[offset..offset + len]))
    }

    /// Read a single byte — the footer-polling primitive. Panics on OOB,
    /// which is always a protocol bug.
    #[inline]
    pub fn poll_byte(&self, offset: usize) -> u8 {
        self.data.borrow()[offset]
    }

    /// Read a little-endian u64 at `offset` (credit counters, sequence
    /// numbers).
    #[inline]
    pub fn read_u64(&self, offset: usize) -> u64 {
        let data = self.data.borrow();
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&data[offset..offset + 8]);
        u64::from_le_bytes(bytes)
    }

    /// Write a little-endian u64 at `offset`.
    #[inline]
    pub fn write_u64(&self, offset: usize, v: u64) {
        self.data.borrow_mut()[offset..offset + 8].copy_from_slice(&v.to_le_bytes());
    }
}

impl std::fmt::Debug for Mr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mr")
            .field("node", &self.node)
            .field("rkey", &self.rkey)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mr(len: usize) -> Mr {
        Mr::new(NodeId(0), 1, len)
    }

    #[test]
    fn read_write_roundtrip() {
        let m = mr(64);
        m.write(8, &[1, 2, 3, 4]).unwrap();
        let mut out = [0u8; 4];
        m.read(8, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn bounds_are_enforced() {
        let m = mr(16);
        assert!(m.write(14, &[0; 4]).is_err());
        assert!(m.read(16, &mut [0; 1]).is_err());
        assert!(m.check(usize::MAX, 2).is_err(), "overflow must not wrap");
        assert!(m.check(16, 0).is_ok(), "empty access at end is legal");
    }

    #[test]
    fn clones_alias_the_same_memory() {
        let a = mr(8);
        let b = a.clone();
        a.write_u64(0, 0xDEAD_BEEF);
        assert_eq!(b.read_u64(0), 0xDEAD_BEEF);
        assert_eq!(a.remote_key(), b.remote_key());
    }

    #[test]
    fn with_mut_allows_in_place_fill() {
        let m = mr(32);
        m.with_mut(4, 8, |s| s.copy_from_slice(b"slashspe"))
            .unwrap();
        m.with(4, 8, |s| assert_eq!(s, b"slashspe")).unwrap();
        assert_eq!(m.poll_byte(11), b'e');
    }

    #[test]
    fn u64_helpers() {
        let m = mr(16);
        m.write_u64(8, u64::MAX - 3);
        assert_eq!(m.read_u64(8), u64::MAX - 3);
    }
}

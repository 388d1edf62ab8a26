//! [`Bytes`]: a shared view of stored bytes, handed out by lookups
//! without copying them.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// An immutable range of a reference-counted buffer. Cloning one bumps a
/// count and copies nothing.
///
/// [`crate::ArtifactStore::get`] and [`crate::ArtifactStore::probe`]
/// return the value of a record this way: the handle shares the buffer
/// the store's index holds for that record (its key and its value), so a
/// handle that is kept, or anything built on [`Bytes::buffer`], keeps that
/// whole record buffer alive, also after the store itself is dropped.
#[derive(Clone)]
pub struct Bytes {
    buf: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// `range` of `buf`; `None` when the range lies outside the buffer.
    pub(crate) fn new(buf: Arc<[u8]>, range: Range<usize>) -> Option<Self> {
        buf.get(range.clone())?;
        Some(Self {
            buf,
            start: range.start,
            end: range.end,
        })
    }

    /// The whole shared buffer this handle is a range of.
    pub fn buffer(&self) -> &Arc<[u8]> {
        &self.buf
    }

    /// Where this handle's bytes lie in [`Bytes::buffer`].
    pub fn range(&self) -> Range<usize> {
        self.start..self.end
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

/// A copy of `bytes` in a fresh buffer of its own.
impl From<&[u8]> for Bytes {
    fn from(bytes: &[u8]) -> Self {
        Self {
            buf: bytes.into(),
            start: 0,
            end: bytes.len(),
        }
    }
}

/// Equality is by content, wherever the bytes live.
impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_handle_is_a_checked_range_of_its_shared_buffer() {
        let whole = Bytes::from(&b"key|value"[..]);
        let value = Bytes::new(Arc::clone(whole.buffer()), 4..9).expect("in bounds");
        assert_eq!(&*value, b"value");
        assert!(Arc::ptr_eq(value.buffer(), whole.buffer()));
        assert_eq!((whole.range(), value.range()), (0..9, 4..9));
        assert!(Bytes::new(Arc::clone(whole.buffer()), 3..10).is_none());
        assert_eq!(
            Bytes::new(Arc::clone(whole.buffer()), 9..9).as_deref(),
            Some(&b""[..])
        );
        assert_eq!(value, Bytes::from(&b"value"[..]));
    }
}

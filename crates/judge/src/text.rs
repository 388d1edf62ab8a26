//! [`Text`]: immutable, cheaply cloned text that may live inside a larger
//! shared buffer, such as a stored record.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// Immutable shared text: either a whole `Arc<str>`, or a range of a
/// shared byte buffer that was checked to be UTF-8 when the `Text` was
/// made. Cloning bumps a reference count and copies no bytes.
///
/// The second form lets a decoder hand out the text fields of an encoded
/// record as ranges of the record's own buffer instead of copying each
/// one into an allocation of its own. Such a `Text` keeps the whole buffer
/// alive. Reading it as `&str` checks the range as UTF-8 again, a pass
/// over the bytes but no allocation; reading its bytes
/// ([`Text::as_bytes`], [`Text::len`], equality) checks nothing.
///
/// Equality is by content, whichever form holds it.
#[derive(Clone)]
pub struct Text(Repr);

#[derive(Clone)]
enum Repr {
    Whole(Arc<str>),
    Range {
        buf: Arc<[u8]>,
        start: usize,
        end: usize,
    },
}

impl Text {
    /// The text in `range` of `buf`, sharing the buffer; `None` when the
    /// range lies outside it or is not UTF-8.
    pub fn from_shared(buf: Arc<[u8]>, range: Range<usize>) -> Option<Self> {
        std::str::from_utf8(buf.get(range.clone())?).ok()?;
        Some(Self(Repr::Range {
            buf,
            start: range.start,
            end: range.end,
        }))
    }

    /// The text as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Whole(text) => text,
            Repr::Range { buf, start, end } => {
                std::str::from_utf8(&buf[*start..*end]).expect("checked as UTF-8 when made")
            }
        }
    }

    /// The UTF-8 bytes of the text, without a check.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Whole(text) => text.as_bytes(),
            Repr::Range { buf, start, end } => &buf[*start..*end],
        }
    }

    /// Length in bytes, without a check.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// True for the empty text.
    pub fn is_empty(&self) -> bool {
        self.as_bytes().is_empty()
    }
}

impl Default for Text {
    fn default() -> Self {
        Self(Repr::Whole(Arc::from("")))
    }
}

impl Deref for Text {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Text {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl From<Arc<str>> for Text {
    fn from(text: Arc<str>) -> Self {
        Self(Repr::Whole(text))
    }
}

impl From<&str> for Text {
    fn from(text: &str) -> Self {
        Self(Repr::Whole(text.into()))
    }
}

impl From<String> for Text {
    fn from(text: String) -> Self {
        Self(Repr::Whole(text.into()))
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Text {}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_forms_compare_by_content() {
        let buf: Arc<[u8]> = Arc::from(&b"\x00\x01caf\xc3\xa9\r\n\xff"[..]);
        let shared = Text::from_shared(Arc::clone(&buf), 2..9).expect("UTF-8");
        assert_eq!(shared, Text::from("café\r\n"));
        assert_eq!(shared.as_str().as_ptr(), buf[2..].as_ptr());
        assert_eq!(shared.len(), 7);
        assert_eq!(format!("{shared}|{shared:?}"), "café\r\n|\"café\\r\\n\"");
        let empty = Text::from_shared(Arc::clone(&buf), 9..9).expect("empty");
        assert_eq!(empty, Text::default());
        assert!(Text::from_shared(Arc::clone(&buf), 2..10).is_none(), "0xFF");
        assert!(
            Text::from_shared(Arc::clone(&buf), 5..6).is_none(),
            "half a char"
        );
        assert!(Text::from_shared(buf, 9..11).is_none(), "out of bounds");
    }
}

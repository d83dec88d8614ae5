//! Zero-copy document buffer: one contiguous byte buffer plus a line
//! offset index.
//!
//! [`DocBuf`] never holds one `Vec<u8>` per line: it owns a single
//! shared byte buffer and an index of line start offsets, and hands out
//! **borrowed** `&[u8]` line views. Cloning a `DocBuf` is O(1) (the
//! buffer and index live behind an `Arc`), so a version chain can
//! retain many versions and the diff
//! pipeline can hold base and target simultaneously without copying
//! either. The line index is computed once at construction; every
//! subsequent diff against the document reuses it.
//!
//! Embedded-newline safety is structural: lines are produced exclusively
//! by splitting the buffer on `\n`, so no `DocBuf` line can ever contain
//! one — in any build profile.

use std::fmt;
use std::sync::Arc;

#[derive(Debug, PartialEq, Eq, Hash)]
struct DocInner {
    /// The raw byte form, exactly as read or produced.
    bytes: Vec<u8>,
    /// Byte offset where each line starts, plus a final sentinel at
    /// `bytes.len()`. Empty buffers have a single sentinel entry.
    line_starts: Vec<u32>,
    /// Whether `bytes` ends with `\n`.
    trailing_newline: bool,
}

/// A text document as one contiguous byte buffer with a line-offset index.
///
/// Construction splits on `\n` (trailing-newline state preserved;
/// non-UTF-8 content welcome), and the lines are borrowed slices of the
/// single buffer. Cloning is O(1): the buffer and the index live behind
/// an `Arc`.
///
/// # Example
///
/// ```
/// use shadow_diff::DocBuf;
///
/// let doc = DocBuf::from_bytes(b"alpha\nbeta\n".to_vec());
/// assert_eq!(doc.line_count(), 2);
/// assert_eq!(doc.line(1), b"beta");
/// assert_eq!(doc.as_bytes(), b"alpha\nbeta\n");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct DocBuf {
    inner: Arc<DocInner>,
}

impl DocBuf {
    /// Creates an empty document (zero lines, no trailing newline).
    pub fn new() -> Self {
        DocBuf::from_bytes(Vec::new())
    }

    /// Builds the line index over `bytes`, taking ownership of the buffer.
    ///
    /// An empty buffer yields an empty document, a buffer not ending in
    /// `\n` keeps its final partial line, and [`as_bytes`](DocBuf::as_bytes)
    /// returns the input byte-for-byte. Documents are limited to
    /// `u32::MAX` bytes (a frame can never carry more); larger input
    /// panics.
    ///
    /// # Example
    ///
    /// ```
    /// use shadow_diff::DocBuf;
    ///
    /// let doc = DocBuf::from_bytes(b"alpha\nbeta".to_vec());
    /// assert_eq!(doc.line_count(), 2);
    /// assert!(!doc.has_trailing_newline());
    /// assert_eq!(doc.as_bytes(), b"alpha\nbeta");
    /// ```
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self::try_from_bytes(bytes).expect("DocBuf is limited to u32::MAX bytes")
    }

    /// [`from_bytes`](Self::from_bytes) for bytes that may be
    /// untrusted: `None` instead of a panic when they exceed `u32::MAX`.
    pub fn try_from_bytes(bytes: Vec<u8>) -> Option<Self> {
        u32::try_from(bytes.len()).ok()?;
        let trailing_newline = bytes.last() == Some(&b'\n');
        let mut line_starts = Vec::with_capacity(bytes.len() / 32 + 2);
        if !bytes.is_empty() {
            line_starts.push(0);
            let scan_end = bytes.len() - usize::from(trailing_newline);
            for (i, &b) in bytes.iter().enumerate().take(scan_end) {
                if b == b'\n' {
                    line_starts.push(i as u32 + 1);
                }
            }
        }
        line_starts.push(bytes.len() as u32);
        Some(DocBuf {
            inner: Arc::new(DocInner {
                bytes,
                line_starts,
                trailing_newline,
            }),
        })
    }

    /// Convenience constructor from a `&str` (handy in tests and examples).
    pub fn from_text(text: &str) -> Self {
        DocBuf::from_bytes(text.as_bytes().into())
    }

    /// The raw byte form, borrowed — no reassembly, no copy.
    pub fn as_bytes(&self) -> &[u8] {
        &self.inner.bytes
    }

    /// Total size of the byte form, including newlines.
    pub fn byte_len(&self) -> usize {
        self.inner.bytes.len()
    }

    /// Number of lines.
    pub fn line_count(&self) -> usize {
        self.inner.line_starts.len() - 1
    }

    /// Whether the document has no lines at all.
    pub fn is_empty(&self) -> bool {
        self.line_count() == 0
    }

    /// Whether the byte form ends with a trailing newline.
    pub fn has_trailing_newline(&self) -> bool {
        self.inner.trailing_newline
    }

    /// Line `index` (0-based) as a borrowed slice, without its newline.
    ///
    /// # Panics
    ///
    /// Panics if `index >= line_count()`.
    pub fn line(&self, index: usize) -> &[u8] {
        let starts = &self.inner.line_starts;
        let start = starts[index] as usize;
        let mut end = starts[index + 1] as usize;
        // All lines but possibly the last are terminated by '\n'.
        if end > start && self.inner.bytes[end - 1] == b'\n' {
            end -= 1;
        }
        &self.inner.bytes[start..end]
    }
}

impl Default for DocBuf {
    fn default() -> Self {
        DocBuf::new()
    }
}

impl fmt::Debug for DocBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DocBuf")
            .field("bytes", &self.byte_len())
            .field("lines", &self.line_count())
            .field("trailing_newline", &self.has_trailing_newline())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_round_trip() {
        let doc = DocBuf::from_bytes(Vec::new());
        assert!(doc.is_empty());
        assert_eq!(doc.line_count(), 0);
        assert_eq!(doc.as_bytes(), b"");
        assert!(!doc.has_trailing_newline());
    }

    #[test]
    fn matches_document_semantics() {
        // A text document is its lines split on '\n' plus a trailing
        // newline flag; a final '\n' ends the last line, it does not
        // start an empty one.
        type Case = (&'static [u8], &'static [&'static [u8]], bool);
        let cases: [Case; 8] = [
            (b"", &[], false),
            (b"x", &[b"x"], false),
            (b"x\n", &[b"x"], true),
            (b"a\nbb\nccc", &[b"a", b"bb", b"ccc"], false),
            (b"a\nbb\nccc\n", &[b"a", b"bb", b"ccc"], true),
            (b"\n", &[b""], true),
            (b"a\n\n\nb\n", &[b"a", b"", b"", b"b"], true),
            (&[0xff, 0xfe, b'\n', 0x00], &[&[0xff, 0xfe], &[0x00]], false),
        ];
        for (text, lines, trailing) in cases {
            let buf = DocBuf::from_bytes(text.to_vec());
            assert_eq!(buf.line_count(), lines.len(), "text {text:?}");
            assert_eq!(buf.has_trailing_newline(), trailing, "text {text:?}");
            assert_eq!(buf.byte_len(), text.len(), "text {text:?}");
            for (i, line) in lines.iter().enumerate() {
                assert_eq!(buf.line(i), *line, "text {text:?} line {i}");
            }
            assert_eq!(buf.as_bytes(), text, "text {text:?}");
        }
    }

    #[test]
    fn new_is_the_empty_document() {
        assert_eq!(DocBuf::new(), DocBuf::from_bytes(Vec::new()));
        assert_eq!(DocBuf::default().byte_len(), 0);
    }

    #[test]
    fn trailing_newline_round_trip() {
        let doc = DocBuf::from_bytes(b"a\nb\n".to_vec());
        assert_eq!(doc.line_count(), 2);
        assert!(doc.has_trailing_newline());
        assert_eq!(doc.as_bytes(), b"a\nb\n");
    }

    #[test]
    fn missing_trailing_newline_round_trip() {
        let doc = DocBuf::from_bytes(b"a\nb".to_vec());
        assert_eq!(doc.line_count(), 2);
        assert!(!doc.has_trailing_newline());
        assert_eq!(doc.as_bytes(), b"a\nb");
    }

    #[test]
    fn lone_newline_is_one_blank_line() {
        let doc = DocBuf::from_bytes(b"\n".to_vec());
        assert_eq!(doc.line_count(), 1);
        assert!(doc.line(0).is_empty());
        assert_eq!(doc.as_bytes(), b"\n");
    }

    #[test]
    fn consecutive_newlines_preserved() {
        let doc = DocBuf::from_bytes(b"a\n\n\nb\n".to_vec());
        assert_eq!(doc.line_count(), 4);
        assert_eq!(doc.as_bytes(), b"a\n\n\nb\n");
    }

    #[test]
    fn byte_len_matches_as_bytes() {
        for text in [&b""[..], b"x", b"x\n", b"a\nbb\nccc", b"a\nbb\nccc\n"] {
            let doc = DocBuf::from_bytes(text.to_vec());
            assert_eq!(doc.byte_len(), doc.as_bytes().len(), "text {text:?}");
        }
    }

    #[test]
    fn non_utf8_content_preserved() {
        let doc = DocBuf::from_bytes(vec![0xff, 0xfe, b'\n', 0x00]);
        assert_eq!(doc.line(0), [0xff, 0xfe]);
        assert_eq!(doc.as_bytes(), [0xff, 0xfe, b'\n', 0x00]);
    }

    #[test]
    fn clone_shares_the_buffer() {
        let a = DocBuf::from_text("one\ntwo\n");
        let b = a.clone();
        assert!(std::ptr::eq(a.as_bytes(), b.as_bytes()));
    }

    #[test]
    fn last_line_without_trailing_newline() {
        let buf = DocBuf::from_bytes(b"a\nbb\nccc".to_vec());
        assert_eq!(buf.line_count(), 3);
        assert_eq!(buf.line(2), b"ccc");
        assert!(!buf.has_trailing_newline());
    }
}

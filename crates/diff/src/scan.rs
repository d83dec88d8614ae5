//! Byte scans that read their input eight bytes at a time.
//!
//! Each scan loads a little-endian `u64` word and marks the bytes it
//! looks for with one exact zero-byte mask (`byte_mask`): `0x80` in
//! every byte that matches and 0 in every other, with no carries between
//! bytes, so a byte next to a target in value (`\x0b` beside `\n`,
//! `\x8a`) is never marked. The line index of [`DocBuf`](crate::DocBuf),
//! [`apply_delta`](crate::apply_delta)'s line count and base cursor, and
//! the server's job interpreter all scan through this module.
//!
//! # Example
//!
//! ```
//! use shadow_diff::scan::{count_lines_and_words, count_newlines, split_lines};
//!
//! let text = b"one two\n\tthree\n";
//! assert_eq!(count_newlines(text), 2);
//! assert_eq!(count_lines_and_words(text), (2, 3));
//! let lines: Vec<&[u8]> = split_lines(text).collect();
//! assert_eq!(lines, [&b"one two"[..], b"\tthree", b""]);
//! ```

/// `0x7f` in every byte.
const LOW7: u64 = u64::from_ne_bytes([0x7f; 8]);

/// `0x80` in every byte.
const HIGH: u64 = !LOW7;

/// `0x80` in every byte of `word` that equals `byte`, 0 in every other
/// byte.
///
/// Xor with a word of `byte`s turns each match into a zero byte. Adding
/// `0x7f` to the low seven bits of a byte sets its top bit unless they
/// are all zero, and no byte's sum carries into the next, so the result
/// marks exactly the zero bytes.
const fn byte_mask(word: u64, byte: u8) -> u64 {
    let x = word ^ u64::from_ne_bytes([byte; 8]);
    !(((x & LOW7) + LOW7) | x | LOW7)
}

/// `0x80` in every byte of the little-endian `word` that is `\n`.
fn newline_mask(word: &[u8; 8]) -> u64 {
    byte_mask(u64::from_le_bytes(*word), b'\n')
}

/// The number of `\n` bytes in `bytes`.
pub fn count_newlines(bytes: &[u8]) -> usize {
    let (words, tail) = bytes.as_chunks::<8>();
    let whole: usize = words
        .iter()
        .map(|word| newline_mask(word).count_ones() as usize)
        .sum();
    whole + tail.iter().filter(|&&b| b == b'\n').count()
}

/// The number of `\n` bytes in `bytes` and the number of words: runs of
/// bytes outside [`u8::is_ascii_whitespace`]'s set (space, `\t`, `\n`,
/// `\x0c` and `\r`; `\x0b` is not in it), as
/// `bytes.split(u8::is_ascii_whitespace)` counts its non-empty pieces.
///
/// A word starts at a byte outside the set whose previous byte is in
/// it, or at offset 0. The previous byte's class carries from word to
/// word, and the final partial word is padded with spaces, which start
/// no word and end no line.
pub fn count_lines_and_words(bytes: &[u8]) -> (usize, usize) {
    let (words, tail) = bytes.as_chunks::<8>();
    let mut last = [b' '; 8];
    last.iter_mut().zip(tail).for_each(|(slot, &b)| *slot = b);
    let (mut lines, mut starts) = (0, 0);
    // `0x80` in byte 0 when the byte before the current word is
    // whitespace; the start of the input counts as whitespace.
    let mut space_before = 0x80;
    let mut scan = |word: u64| {
        let newlines = byte_mask(word, b'\n');
        let space = newlines
            | byte_mask(word, b' ')
            | byte_mask(word, b'\t')
            | byte_mask(word, b'\x0c')
            | byte_mask(word, b'\r');
        lines += newlines.count_ones() as usize;
        starts += (!space & HIGH & ((space << 8) | space_before)).count_ones() as usize;
        space_before = space >> 56;
    };
    words
        .iter()
        .for_each(|word| scan(u64::from_le_bytes(*word)));
    scan(u64::from_le_bytes(last));
    (lines, starts)
}

/// The pieces of `bytes` between `\n` bytes, exactly as
/// `bytes.split(|&b| b == b'\n')` yields them: a trailing `\n` ends
/// with an empty piece, and empty input is one empty piece.
pub fn split_lines(bytes: &[u8]) -> SplitLines<'_> {
    SplitLines { rest: Some(bytes) }
}

/// The iterator of [`split_lines`]: each piece borrows the input.
#[derive(Debug, Clone)]
pub struct SplitLines<'a> {
    rest: Option<&'a [u8]>,
}

impl<'a> Iterator for SplitLines<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let rest = self.rest?;
        match find_newline(rest) {
            Some(end) => {
                self.rest = rest.get(end + 1..);
                rest.get(..end)
            }
            None => {
                self.rest = None;
                Some(rest)
            }
        }
    }
}

/// The offset of the first `\n` in `bytes`.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    let (words, tail) = bytes.as_chunks::<8>();
    for (k, word) in words.iter().enumerate() {
        let marks = newline_mask(word);
        if marks != 0 {
            return Some(k * 8 + marks.trailing_zeros() as usize / 8);
        }
    }
    let at = tail.iter().position(|&b| b == b'\n')?;
    Some(words.len() * 8 + at)
}

/// Appends `i + 1` for every `\n` at offset `i` of `bytes`, in order.
pub(crate) fn push_line_starts(bytes: &[u8], out: &mut Vec<u32>) {
    let (words, tail) = bytes.as_chunks::<8>();
    let mut base = 0u32;
    for word in words {
        let mut marks = newline_mask(word);
        while marks != 0 {
            out.push(base + marks.trailing_zeros() / 8 + 1);
            marks &= marks - 1;
        }
        base += 8;
    }
    for (i, &b) in tail.iter().enumerate() {
        if b == b'\n' {
            out.push(base + i as u32 + 1);
        }
    }
}

/// The offset just past the `n`-th `\n` of `bytes` (0 when `n` is 0),
/// or `None` when `bytes` holds fewer than `n` newlines.
pub(crate) fn skip_newlines(bytes: &[u8], n: usize) -> Option<usize> {
    if n == 0 {
        return Some(0);
    }
    let mut left = n;
    let (words, tail) = bytes.as_chunks::<8>();
    for (k, word) in words.iter().enumerate() {
        let mut marks = newline_mask(word);
        let found = marks.count_ones() as usize;
        if found < left {
            left -= found;
            continue;
        }
        for _ in 1..left {
            marks &= marks - 1;
        }
        return Some(k * 8 + marks.trailing_zeros() as usize / 8 + 1);
    }
    tail.iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .nth(left - 1)
        .map(|(i, _)| words.len() * 8 + i + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every length mod 8, targets at every offset in a word, and bytes
    /// next to them in value (`\x0b`, `\x09`, `\x8a`, `\xa0`) that a
    /// carry between bytes would confuse with them.
    fn inputs() -> impl Iterator<Item = Vec<u8>> {
        const PATTERNS: [&[u8]; 9] = [
            b"\n",
            b"\x0b\n",
            b"a\n\n\x09",
            b"\x8a\x0a\x0b",
            b"xyz",
            b"  ab\tc\r\n",
            b"\x0bw\x0c\x80\xff x",
            b"\xa0 \x20\x0d\x0c\x0b\x09",
            b"word ",
        ];
        (0..40).flat_map(|len| {
            PATTERNS
                .iter()
                .map(move |p| p.iter().copied().cycle().take(len).collect())
        })
    }

    #[test]
    fn newline_scans_match_a_bytewise_scan() {
        for bytes in inputs() {
            let ends: Vec<usize> = bytes
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b == b'\n')
                .map(|(i, _)| i + 1)
                .collect();
            assert_eq!(count_newlines(&bytes), ends.len(), "input {bytes:?}");
            assert_eq!(find_newline(&bytes), ends.first().map(|e| e - 1));
            for n in 0..=ends.len() + 1 {
                let want = if n == 0 {
                    Some(0)
                } else {
                    ends.get(n - 1).copied()
                };
                assert_eq!(skip_newlines(&bytes, n), want, "input {bytes:?}, n {n}");
            }
        }
    }

    #[test]
    fn word_count_matches_a_bytewise_scan() {
        for bytes in inputs() {
            let lines = bytes.iter().filter(|&&b| b == b'\n').count();
            let words = bytes
                .split(u8::is_ascii_whitespace)
                .filter(|w| !w.is_empty())
                .count();
            assert_eq!(
                count_lines_and_words(&bytes),
                (lines, words),
                "input {bytes:?}"
            );
        }
    }

    #[test]
    fn split_lines_matches_split() {
        for bytes in inputs() {
            let want: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
            let got: Vec<&[u8]> = split_lines(&bytes).collect();
            assert_eq!(got, want, "input {bytes:?}");
        }
    }

    #[test]
    fn byte_mask_marks_exactly_the_matching_bytes() {
        for byte in [0u8, b'\n', b' ', 0x7f, 0x80, 0xff] {
            for other in 0..=255u8 {
                let word = u64::from_le_bytes([other, byte, other, byte, 0, 0xff, byte, other]);
                let want =
                    u64::from_le_bytes([other, byte, other, byte, 0, 0xff, byte, other].map(|b| {
                        if b == byte {
                            0x80
                        } else {
                            0
                        }
                    }));
                assert_eq!(
                    byte_mask(word, byte),
                    want,
                    "byte {byte:#x}, other {other:#x}"
                );
            }
        }
    }
}

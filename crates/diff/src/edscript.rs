//! Errors of the `ed`-style edit script format.
//!
//! The shadow editing prototype transmitted file updates "in a form suitable
//! for an editor (like `ed` in Unix) to apply the changes to a previous
//! version" (§7 of the paper). [`DeltaScript::write_text`] writes that
//! form and [`apply_delta`] reads it: append/change/delete commands
//! addressed by 1-based line numbers of the *base* document, listed in
//! **descending** order so every command's addresses stay valid while
//! earlier commands are applied — exactly the convention of `diff -e`.
//!
//! The error types here carry only `Copy` data and render their messages
//! in `Display`, so rejecting a malformed script never allocates.
//!
//! [`DeltaScript::write_text`]: crate::DeltaScript::write_text
//! [`apply_delta`]: crate::apply_delta

use std::error::Error;
use std::fmt;

/// Error applying a well-formed edit script to a base document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyError {
    /// A command addressed a base line that does not exist — usually the
    /// delta was computed against a different base version.
    OutOfRange {
        /// The offending line address.
        line: usize,
        /// Number of lines in the base document.
        base_lines: usize,
    },
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::OutOfRange { line, base_lines } => write!(
                f,
                "edit command addresses line {line} but base has only {base_lines} lines"
            ),
        }
    }
}

impl Error for ApplyError {}

/// What was wrong with a malformed edit script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// A line that is neither a `w`/`W` marker nor an `a`/`c`/`d` command.
    Unrecognized,
    /// A command with an opcode other than `a`, `c` or `d`.
    UnknownOp(u8),
    /// The script lacks its trailing `w`/`W` marker.
    MissingMarker,
    /// An insert block with no terminating `.` line.
    UnterminatedInsert,
    /// An address range that starts at line 0 or is inverted.
    InvalidRange {
        /// First address of the range.
        from: usize,
        /// Last address of the range.
        to: usize,
    },
    /// Commands not in strictly descending, non-overlapping order.
    OutOfOrder {
        /// Last line touched by the offending command.
        last: usize,
        /// First line touched by the command before it.
        prev: usize,
    },
}

/// Error parsing the textual form of an edit script.
///
/// # Example
///
/// ```
/// use shadow_diff::{apply_delta, DeltaError, ParseErrorKind};
///
/// // Commands must come in descending base-line order.
/// match apply_delta(b"one\ntwo\nthree\n", b"1d\n3d\nw\n") {
///     Err(DeltaError::Parse(e)) => {
///         assert_eq!(e.kind, ParseErrorKind::OutOfOrder { last: 3, prev: 1 });
///     }
///     other => panic!("expected a parse error, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the script text where parsing failed (0 = the
    /// script as a whole).
    pub line: usize,
    /// What was wrong.
    pub kind: ParseErrorKind,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "edit script parse error at line {}: ", self.line)?;
        match self.kind {
            ParseErrorKind::Unrecognized => f.write_str("unrecognized command"),
            ParseErrorKind::UnknownOp(op) => write!(f, "unknown operation {:?}", op as char),
            ParseErrorKind::MissingMarker => f.write_str("missing trailing w/W marker"),
            ParseErrorKind::UnterminatedInsert => f.write_str("unterminated insert block"),
            ParseErrorKind::InvalidRange { from, to } => write!(f, "invalid range {from},{to}"),
            ParseErrorKind::OutOfOrder { last, prev } => {
                write!(f, "commands out of order: line {last} not below {prev}")
            }
        }
    }
}

impl Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{apply_delta, diff_docs, DeltaError, DiffAlgorithm, DiffScratch, DocBuf};

    fn parse_kind(base: &[u8], script: &[u8]) -> ParseErrorKind {
        match apply_delta(base, script) {
            Err(DeltaError::Parse(e)) => e.kind,
            other => panic!("expected a parse error for {script:?}, got {other:?}"),
        }
    }

    fn delta(old: &str, new: &str) -> crate::DeltaScript {
        diff_docs(
            DiffAlgorithm::HuntMcIlroy,
            &DocBuf::from_text(old),
            &DocBuf::from_text(new),
            &mut DiffScratch::new(),
        )
    }

    #[test]
    fn apply_change() {
        let out = apply_delta(b"a\nb\nc\n", b"2c\nB\n.\nw\n").unwrap();
        assert_eq!(out, b"a\nB\nc\n");
    }

    #[test]
    fn apply_delete_range() {
        let out = apply_delta(b"a\nb\nc\nd\n", b"2,3d\nw\n").unwrap();
        assert_eq!(out, b"a\nd\n");
    }

    #[test]
    fn apply_append_at_start_and_end() {
        let out = apply_delta(b"m\n", b"1a\nz\n.\n0a\na\n.\nw\n").unwrap();
        assert_eq!(out, b"a\nm\nz\n");
    }

    #[test]
    fn apply_descending_multi_command() {
        let out = apply_delta(b"1\n2\n3\n4\n5\n", b"5d\n2,3c\ntwo\nthree\n.\nw\n").unwrap();
        assert_eq!(out, b"1\ntwo\nthree\n4\n");
    }

    #[test]
    fn out_of_range_is_reported() {
        assert_eq!(
            apply_delta(b"a\n", b"2d\nw\n"),
            Err(DeltaError::Apply(ApplyError::OutOfRange {
                line: 2,
                base_lines: 1
            }))
        );
    }

    #[test]
    fn ascending_commands_rejected() {
        assert_eq!(
            parse_kind(b"a\nb\nc\n", b"1d\n3d\nw\n"),
            ParseErrorKind::OutOfOrder { last: 3, prev: 1 }
        );
    }

    #[test]
    fn inverted_range_rejected() {
        assert_eq!(
            parse_kind(b"a\nb\nc\n", b"3,2d\nw\n"),
            ParseErrorKind::InvalidRange { from: 3, to: 2 }
        );
    }

    #[test]
    fn zero_line_range_rejected() {
        assert_eq!(
            parse_kind(b"a\nb\nc\n", b"0,2d\nw\n"),
            ParseErrorKind::InvalidRange { from: 0, to: 2 }
        );
    }

    #[test]
    fn text_round_trip() {
        // Dot lines are escaped on the way out and unescaped on the way in.
        let old = "x\ny\nz\n";
        let new = ".\n..dots\nx\n.x\nz\ntail\n";
        let text = delta(old, new).to_text();
        assert!(text.windows(4).any(|w| w == b"\n..\n"), "{text:?}");
        assert_eq!(apply_delta(old.as_bytes(), &text).unwrap(), new.as_bytes());
    }

    #[test]
    fn wire_len_matches_text_len() {
        let d = delta("1\n2\n3\n", "abc\n.\n\n...x\n2\n");
        assert_eq!(d.wire_len(), d.to_text().len());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(
            parse_kind(b"a\n", b"not a script\n"),
            ParseErrorKind::Unrecognized
        );
        assert_eq!(
            parse_kind(b"a\n", b"1a\nno terminator\n"),
            ParseErrorKind::UnterminatedInsert
        );
        assert_eq!(
            parse_kind(b"a\n", b"1q\n.\nw\n"),
            ParseErrorKind::UnknownOp(b'q')
        );
        assert_eq!(parse_kind(b"a\n", b""), ParseErrorKind::MissingMarker);
    }

    #[test]
    fn identity_script() {
        let d = delta("a\nb\n", "a\nb\n");
        assert!(d.is_empty());
        assert_eq!(apply_delta(b"a\nb\n", &d.to_text()).unwrap(), b"a\nb\n");
    }

    #[test]
    fn trailing_newline_toggle() {
        let d = delta("a\nb\n", "a\nb");
        assert!(d.is_empty(), "only the marker changes");
        assert_eq!(d.to_text(), b"W\n");
        assert_eq!(apply_delta(b"a\nb\n", &d.to_text()).unwrap(), b"a\nb");
    }

    #[test]
    fn delete_everything_yields_empty() {
        assert_eq!(apply_delta(b"a\nb\n", b"1,2d\nw\n").unwrap(), b"");
        assert_eq!(delta("a\nb\n", "").to_text(), b"1,2d\nW\n");
    }

    #[test]
    fn stats_counts() {
        let d = delta("1\n2\n3\n4\n5\n6\n", "3\n4\nx\n");
        let stats = d.stats();
        assert_eq!(stats.hunks, 2);
        assert_eq!(stats.lines_added, 1);
        assert_eq!(stats.lines_removed, 4);
        assert_eq!(stats.wire_len, d.to_text().len());
    }

    #[test]
    fn parse_error_display_names_each_kind() {
        let cases = [
            (ParseErrorKind::Unrecognized, "unrecognized command"),
            (ParseErrorKind::UnknownOp(b'q'), "unknown operation 'q'"),
            (ParseErrorKind::MissingMarker, "missing trailing w/W marker"),
            (
                ParseErrorKind::UnterminatedInsert,
                "unterminated insert block",
            ),
            (
                ParseErrorKind::InvalidRange { from: 3, to: 2 },
                "invalid range 3,2",
            ),
            (
                ParseErrorKind::OutOfOrder { last: 3, prev: 1 },
                "commands out of order: line 3 not below 1",
            ),
        ];
        for (kind, reason) in cases {
            let e = ParseError { line: 7, kind };
            assert_eq!(
                e.to_string(),
                format!("edit script parse error at line 7: {reason}")
            );
        }
    }
}

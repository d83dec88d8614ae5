//! The zero-copy diff/delta pipeline.
//!
//! [`diff_docs`] compares two [`DocBuf`]s through a [`DiffScratch`] and
//! produces a [`DeltaScript`] whose insert payloads are *line ranges into
//! the target buffer* — no line bytes are copied anywhere in the pipeline:
//!
//! 1. **Anchor trimming** — the common prefix and suffix are found by
//!    comparing borrowed line slices, so a small edit in a large file
//!    narrows the problem to the changed window before anything else runs.
//! 2. **Interning** — each distinct window line is mapped to a dense `u32`
//!    symbol via an open-addressing FxHash table whose entries point back
//!    into the documents (the table never owns line bytes).
//! 3. **LCS** — Hunt–McIlroy or Myers runs over the symbol windows using
//!    the scratch's tables; see [`crate::scratch`].
//! 4. **Hunk building** — the match list becomes descending `a`/`c`/`d`
//!    commands carrying `(from, to)` ranges of target lines.
//!
//! The resulting script serializes with [`DeltaScript::write_text`]
//! straight from the borrowed slices as classic `diff -e` text, and
//! [`apply_delta`] reconstructs a target from `base bytes + script text`
//! in one pass over each, without building intermediate line vectors.

use std::error::Error;
use std::fmt;

use crate::algorithm::DiffAlgorithm;
use crate::docbuf::DocBuf;
use crate::edscript::{ApplyError, ParseError, ParseErrorKind};
use crate::scratch::{fx_hash_bytes, DiffScratch};
use crate::stats::DiffStats;

/// One command of a [`DeltaScript`]. Base addresses are 1-based, as in
/// `ed`; inserted text is the target-line range `new_from..new_to`
/// (0-based, half-open) borrowed from the script's target buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeltaCommand {
    /// Insert target lines after base line `after` (0 = prepend).
    Append {
        /// Base line after which to insert.
        after: u32,
        /// First target line of the insert range.
        new_from: u32,
        /// One past the last target line of the insert range.
        new_to: u32,
    },
    /// Replace base lines `from..=to` with the target-line range.
    Change {
        /// First base line replaced (1-based).
        from: u32,
        /// Last base line replaced (inclusive).
        to: u32,
        /// First target line of the replacement range.
        new_from: u32,
        /// One past the last target line of the replacement range.
        new_to: u32,
    },
    /// Delete base lines `from..=to`.
    Delete {
        /// First base line deleted (1-based).
        from: u32,
        /// Last base line deleted (inclusive).
        to: u32,
    },
}

/// An edit script over [`DocBuf`]s: descending `a`/`c`/`d` commands whose
/// inserted text is borrowed from the retained target buffer.
///
/// Holding a `DeltaScript` costs one `Arc` bump on the target document
/// instead of a `Vec<u8>` per inserted line; [`write_text`] renders the
/// wire form on demand.
///
/// [`write_text`]: DeltaScript::write_text
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaScript {
    /// The target document; insert ranges index into it. O(1) clone.
    pub(crate) target: DocBuf,
    /// Commands in descending base-line order.
    pub(crate) commands: Vec<DeltaCommand>,
    /// Whether the target's byte form ends with `\n`.
    pub(crate) target_trailing_newline: bool,
}

impl DeltaScript {
    /// Number of edit commands (hunks).
    pub fn command_count(&self) -> usize {
        self.commands.len()
    }

    /// Whether the script carries no commands at all.
    ///
    /// Note an empty command list can still toggle the trailing newline.
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }

    /// Whether the target document ends with a trailing newline.
    pub fn target_trailing_newline(&self) -> bool {
        self.target_trailing_newline
    }

    /// Appends the classic `diff -e` textual form onto `out`, straight
    /// from the borrowed target slices.
    ///
    /// Inserted text is terminated by a lone `.` line, as in `ed`. A line
    /// starting with `.` inside inserted text is escaped with one more
    /// leading `.` (and unescaped by [`apply_delta`]); this is the one
    /// place the format extends historic `ed`, which simply could not
    /// represent a lone `.` line. The final line records the target
    /// trailing-newline flag as `w` (with newline) or `W` (without),
    /// another small extension.
    pub fn write_text(&self, out: &mut Vec<u8>) {
        for cmd in &self.commands {
            match *cmd {
                DeltaCommand::Append {
                    after,
                    new_from,
                    new_to,
                } => {
                    push_decimal(out, after);
                    out.push(b'a');
                    out.push(b'\n');
                    self.write_insert_block(out, new_from, new_to);
                }
                DeltaCommand::Change {
                    from,
                    to,
                    new_from,
                    new_to,
                } => {
                    push_address(out, from, to);
                    out.push(b'c');
                    out.push(b'\n');
                    self.write_insert_block(out, new_from, new_to);
                }
                DeltaCommand::Delete { from, to } => {
                    push_address(out, from, to);
                    out.push(b'd');
                    out.push(b'\n');
                }
            }
        }
        out.extend_from_slice(if self.target_trailing_newline {
            b"w\n"
        } else {
            b"W\n"
        });
    }

    /// The textual form as a fresh, exactly-sized buffer.
    pub fn to_text(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.write_text(&mut out);
        out
    }

    fn write_insert_block(&self, out: &mut Vec<u8>, new_from: u32, new_to: u32) {
        for idx in new_from..new_to {
            let line = self.target.line(idx as usize);
            if line.first() == Some(&b'.') {
                out.push(b'.'); // escape leading dot as '..'
            }
            out.extend_from_slice(line);
            out.push(b'\n');
        }
        out.extend_from_slice(b".\n");
    }

    /// Size of the textual form in bytes, computed without materializing
    /// it — the quantity that travels on the wire.
    pub fn wire_len(&self) -> usize {
        let mut n = 2; // w/W marker line
        for cmd in &self.commands {
            match *cmd {
                DeltaCommand::Append {
                    after,
                    new_from,
                    new_to,
                } => {
                    n += decimal_len(after) + 2;
                    n += self.insert_block_len(new_from, new_to);
                }
                DeltaCommand::Change {
                    from,
                    to,
                    new_from,
                    new_to,
                } => {
                    n += addr_len(from, to) + 2;
                    n += self.insert_block_len(new_from, new_to);
                }
                DeltaCommand::Delete { from, to } => {
                    n += addr_len(from, to) + 2;
                }
            }
        }
        n
    }

    fn insert_block_len(&self, new_from: u32, new_to: u32) -> usize {
        let mut n = 2; // terminating ".\n"
        for idx in new_from..new_to {
            let line = self.target.line(idx as usize);
            n += line.len() + 1;
            if line.first() == Some(&b'.') {
                n += 1; // escape dot
            }
        }
        n
    }

    /// Aggregate statistics for this script.
    pub fn stats(&self) -> DiffStats {
        let mut lines_added = 0usize;
        let mut lines_removed = 0usize;
        for cmd in &self.commands {
            match *cmd {
                DeltaCommand::Append {
                    new_from, new_to, ..
                } => lines_added += (new_to - new_from) as usize,
                DeltaCommand::Change {
                    from,
                    to,
                    new_from,
                    new_to,
                } => {
                    lines_added += (new_to - new_from) as usize;
                    lines_removed += (to - from + 1) as usize;
                }
                DeltaCommand::Delete { from, to } => {
                    lines_removed += (to - from + 1) as usize;
                }
            }
        }
        DiffStats {
            hunks: self.commands.len(),
            lines_added,
            lines_removed,
            wire_len: self.wire_len(),
        }
    }
}

/// Writes `n` in decimal onto `out` without allocating.
fn push_decimal(out: &mut Vec<u8>, mut n: u32) {
    let mut buf = [0u8; 10];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

/// Writes an address: `from` alone for a one-line range, else `from,to`.
fn push_address(out: &mut Vec<u8>, from: u32, to: u32) {
    push_decimal(out, from);
    if from != to {
        out.push(b',');
        push_decimal(out, to);
    }
}

/// Number of decimal digits in `n`.
fn decimal_len(mut n: u32) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

/// Length of the address [`push_address`] writes.
fn addr_len(from: u32, to: u32) -> usize {
    if from == to {
        decimal_len(from)
    } else {
        decimal_len(from) + 1 + decimal_len(to)
    }
}

/// Computes the line-oriented difference between `old` and `new` without
/// copying any line bytes, reusing `scratch`'s tables.
///
/// The script is minimal in lines: it removes `old_lines - LCS` and adds
/// `new_lines - LCS` lines, where LCS is the longest common subsequence
/// of the two line sequences. Anchor trimming happens on byte slices
/// before interning; byte equality and symbol equality coincide, and the
/// LCS engines depend only on the equality structure of their inputs.
///
/// # Example
///
/// ```
/// use shadow_diff::{diff_docs, DiffAlgorithm, DiffScratch, DocBuf};
///
/// let old = DocBuf::from_text("a\nb\nc\n");
/// let new = DocBuf::from_text("a\nx\nc\n");
/// let mut scratch = DiffScratch::new();
/// let delta = diff_docs(DiffAlgorithm::HuntMcIlroy, &old, &new, &mut scratch);
/// assert_eq!(delta.to_text(), b"2c\nx\n.\nw\n");
/// ```
pub fn diff_docs(
    algorithm: DiffAlgorithm,
    old: &DocBuf,
    new: &DocBuf,
    scratch: &mut DiffScratch,
) -> DeltaScript {
    let old_n = old.line_count();
    let new_n = new.line_count();

    // Anchor trimming on borrowed byte slices (no interning cost for the
    // unchanged bulk of the file).
    let max = old_n.min(new_n);
    let mut prefix = 0;
    while prefix < max && old.line(prefix) == new.line(prefix) {
        prefix += 1;
    }
    let mut suffix = 0;
    while suffix < max - prefix && old.line(old_n - 1 - suffix) == new.line(new_n - 1 - suffix) {
        suffix += 1;
    }

    intern_window(old, new, prefix, old_n - suffix, new_n - suffix, scratch);

    match algorithm {
        DiffAlgorithm::HuntMcIlroy => crate::hunt_mcilroy::lcs_matches_scratch(scratch),
        DiffAlgorithm::Myers => crate::myers::lcs_matches_scratch(scratch),
    }

    build_commands(new, prefix, suffix, old_n, new_n, scratch)
}

/// Interns the window lines `old[prefix..old_hi]` / `new[prefix..new_hi]`
/// into dense symbols in `scratch.old_syms` / `scratch.new_syms`.
fn intern_window(
    old: &DocBuf,
    new: &DocBuf,
    prefix: usize,
    old_hi: usize,
    new_hi: usize,
    scratch: &mut DiffScratch,
) {
    let total = (old_hi - prefix) + (new_hi - prefix);
    // Power-of-two capacity at most half full: probes stay short.
    let cap = (total * 2).next_power_of_two().max(16);
    let mask = cap - 1;
    scratch.buckets.resize(cap, 0);
    scratch.buckets.fill(0);
    scratch.entries.clear();
    scratch.old_syms.clear();
    scratch.new_syms.clear();

    for doc_tag in 0..2u8 {
        let (doc, hi) = if doc_tag == 0 {
            (old, old_hi)
        } else {
            (new, new_hi)
        };
        for line_idx in prefix..hi {
            let bytes = doc.line(line_idx);
            let hash = fx_hash_bytes(bytes);
            let mut slot = hash as usize & mask;
            let sym = loop {
                let tag = scratch.buckets[slot];
                if tag == 0 {
                    let sym = scratch.entries.len() as u32;
                    scratch.entries.push(crate::scratch::InternEntry {
                        hash,
                        doc: doc_tag,
                        line: line_idx as u32,
                    });
                    scratch.buckets[slot] = sym + 1;
                    break sym;
                }
                let entry = scratch.entries[(tag - 1) as usize];
                if entry.hash == hash {
                    let existing = if entry.doc == 0 {
                        old.line(entry.line as usize)
                    } else {
                        new.line(entry.line as usize)
                    };
                    if existing == bytes {
                        break tag - 1;
                    }
                }
                slot = (slot + 1) & mask;
            };
            if doc_tag == 0 {
                scratch.old_syms.push(sym);
            } else {
                scratch.new_syms.push(sym);
            }
        }
    }
}

/// Converts the window-relative match list in `scratch.matches` into
/// descending commands: each gap between consecutive matches becomes one
/// `a`, `c` or `d` hunk.
fn build_commands(
    new: &DocBuf,
    prefix: usize,
    suffix: usize,
    old_n: usize,
    new_n: usize,
    scratch: &DiffScratch,
) -> DeltaScript {
    let mut commands: Vec<DeltaCommand> = Vec::with_capacity(scratch.matches.len() + 1);
    let mut i = prefix; // next unconsumed old line (absolute)
    let mut j = prefix; // next unconsumed new line (absolute)

    // The trimmed suffix lines are all matches, so the one boundary at
    // `(old_n - suffix, new_n - suffix)` stands in for every one of them
    // plus the end-of-document sentinel: the gaps in between are empty.
    let boundary_iter = scratch
        .matches
        .iter()
        .map(|m| (m.old_line + prefix, m.new_line + prefix))
        .chain(std::iter::once((old_n - suffix, new_n - suffix)));
    for (mi, mj) in boundary_iter {
        let deleted = mi - i;
        let added = mj - j;
        if deleted > 0 && added > 0 {
            commands.push(DeltaCommand::Change {
                from: (i + 1) as u32,
                to: mi as u32,
                new_from: j as u32,
                new_to: mj as u32,
            });
        } else if deleted > 0 {
            commands.push(DeltaCommand::Delete {
                from: (i + 1) as u32,
                to: mi as u32,
            });
        } else if added > 0 {
            commands.push(DeltaCommand::Append {
                after: i as u32,
                new_from: j as u32,
                new_to: mj as u32,
            });
        }
        i = mi + 1;
        j = mj + 1;
    }

    commands.reverse();
    DeltaScript {
        target: new.clone(),
        commands,
        target_trailing_newline: new.has_trailing_newline(),
    }
}

/// Error from [`apply_delta`]: the script text failed to parse, or it
/// does not apply to the given base.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The script text is not well-formed `diff -e` output.
    Parse(ParseError),
    /// The script is structurally valid but does not fit the base.
    Apply(ApplyError),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::Parse(e) => write!(f, "{e}"),
            DeltaError::Apply(e) => write!(f, "{e}"),
        }
    }
}

impl Error for DeltaError {}

impl From<ParseError> for DeltaError {
    fn from(e: ParseError) -> Self {
        DeltaError::Parse(e)
    }
}

impl From<ApplyError> for DeltaError {
    fn from(e: ApplyError) -> Self {
        DeltaError::Apply(e)
    }
}

/// A parsed command, with insert text as a byte range of the script.
#[derive(Debug, Clone, Copy)]
struct RawCommand {
    /// `b'a'`, `b'c'` or `b'd'`.
    op: u8,
    /// First base address; for `a` this is the `after` address.
    from: usize,
    /// Last base address; equals `from` for `a` and single-line ranges.
    to: usize,
    /// Start of the raw (still dot-escaped) insert lines in the script.
    ins_start: usize,
    /// End of the insert lines, excluding the terminating `.\n`.
    ins_end: usize,
}

impl RawCommand {
    fn first_line(&self) -> usize {
        self.from
    }

    fn last_line(&self) -> usize {
        if self.op == b'a' {
            self.from
        } else {
            self.to
        }
    }
}

/// Applies a textual edit script to the raw bytes of a base document,
/// reconstructing the target bytes in one pass.
///
/// The base is consumed as whole byte ranges (no per-line vectors),
/// insert text is copied straight out of the script, and the allocation
/// budget is the output buffer plus a small sized command table; errors
/// carry only `Copy` data.
///
/// # Errors
///
/// Returns [`DeltaError::Parse`] for malformed script text and
/// [`DeltaError::Apply`] when a command addresses a line beyond the base
/// (the symptom of applying a delta to the wrong version).
///
/// # Example
///
/// ```
/// use shadow_diff::apply_delta;
///
/// let out = apply_delta(b"a\nb\nc\n", b"2c\nx\n.\nw\n").unwrap();
/// assert_eq!(out, b"a\nx\nc\n");
/// ```
pub fn apply_delta(base: &[u8], script: &[u8]) -> Result<Vec<u8>, DeltaError> {
    let (commands, target_trailing_newline) = parse_script(script)?;

    let base_trailing = base.last() == Some(&b'\n');
    let base_lines = if base.is_empty() {
        0
    } else {
        base.iter().filter(|&&b| b == b'\n').count() + usize::from(!base_trailing)
    };

    // Range-check every command against the *original* base, in storage
    // (descending) order, so the first offending command is reported.
    for cmd in &commands {
        if cmd.last_line() > base_lines {
            return Err(ApplyError::OutOfRange {
                line: cmd.last_line(),
                base_lines,
            }
            .into());
        }
    }

    let mut out = Vec::with_capacity(base.len() + script.len());
    let mut cursor = BaseCursor {
        base,
        base_lines,
        base_trailing,
        line: 0,
        byte: 0,
    };

    // Commands are stored descending; walking them in reverse lets one
    // forward cursor sweep the base exactly once.
    for cmd in commands.iter().rev() {
        match cmd.op {
            b'a' => {
                cursor.copy_lines(cmd.from, &mut out);
                copy_insert(script, cmd.ins_start, cmd.ins_end, &mut out);
            }
            b'c' => {
                cursor.copy_lines(cmd.from - 1, &mut out);
                cursor.skip_lines(cmd.to);
                copy_insert(script, cmd.ins_start, cmd.ins_end, &mut out);
            }
            _ => {
                cursor.copy_lines(cmd.from - 1, &mut out);
                cursor.skip_lines(cmd.to);
            }
        }
    }
    cursor.copy_lines(base_lines, &mut out);

    // Every emitted chunk was normalized to end in '\n'; restore the
    // target's trailing-newline state from the script's marker.
    if !target_trailing_newline && out.last() == Some(&b'\n') {
        out.pop();
    }
    Ok(out)
}

/// Forward cursor over the base bytes during application.
struct BaseCursor<'a> {
    base: &'a [u8],
    base_lines: usize,
    base_trailing: bool,
    /// Next base line to consume (0-based).
    line: usize,
    /// Byte offset where that line starts.
    byte: usize,
}

impl BaseCursor<'_> {
    /// Advances the cursor to the start of line `upto` (== the byte just
    /// past line `upto - 1`), returning that offset.
    fn advance_to(&mut self, upto: usize) -> usize {
        debug_assert!(upto >= self.line && upto <= self.base_lines);
        while self.line < upto {
            let rest = &self.base[self.byte..];
            match rest.iter().position(|&b| b == b'\n') {
                Some(k) => self.byte += k + 1,
                None => self.byte = self.base.len(),
            }
            self.line += 1;
        }
        self.byte
    }

    /// Copies base lines `[cursor, upto)` onto `out` as one slice copy,
    /// normalized so a non-empty chunk always ends in `\n`.
    fn copy_lines(&mut self, upto: usize, out: &mut Vec<u8>) {
        let start = self.byte;
        let reaches_end = upto == self.base_lines;
        let end = self.advance_to(upto);
        if end > start {
            out.extend_from_slice(&self.base[start..end]);
            if reaches_end && !self.base_trailing {
                out.push(b'\n');
            }
        }
    }

    /// Advances the cursor past line `upto - 1` without copying.
    fn skip_lines(&mut self, upto: usize) {
        self.advance_to(upto);
    }
}

/// Copies the raw insert lines `script[start..end]` onto `out`,
/// unescaping the leading-dot convention line by line.
fn copy_insert(script: &[u8], start: usize, end: usize, out: &mut Vec<u8>) {
    let mut pos = start;
    while pos < end {
        let rest = &script[pos..end];
        let line_len = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
        let line = &rest[..line_len];
        let content = if line.first() == Some(&b'.') {
            &line[1..] // unescape '..' (and '.x' -> 'x')
        } else {
            line
        };
        out.extend_from_slice(content);
        out.push(b'\n');
        pos += line_len + 1;
    }
}

/// Parses the textual script into range-based commands and validates
/// their order, without copying any insert text.
fn parse_script(script: &[u8]) -> Result<(Vec<RawCommand>, bool), DeltaError> {
    // Sized up front: the command table is part of the documented
    // allocation budget (most deltas carry a handful of commands).
    let mut commands: Vec<RawCommand> = Vec::with_capacity(8);
    let mut target_trailing_newline = None;
    let mut pos = 0usize;
    let mut lineno = 0usize;

    while pos < script.len() {
        lineno += 1;
        let rest = &script[pos..];
        let line_len = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
        let raw = &rest[..line_len];
        pos = (pos + line_len + 1).min(script.len());

        if raw == b"w" || raw == b"W" {
            target_trailing_newline = Some(raw == b"w");
            continue;
        }
        let ((from, to), op) = split_command(raw).ok_or(ParseError {
            line: lineno,
            kind: ParseErrorKind::Unrecognized,
        })?;
        match op {
            b'a' | b'c' => {
                let (ins_start, ins_end, next) = read_insert_range(script, pos, &mut lineno)?;
                pos = next;
                commands.push(RawCommand {
                    op,
                    from,
                    to,
                    ins_start,
                    ins_end,
                });
            }
            b'd' => {
                commands.push(RawCommand {
                    op,
                    from,
                    to,
                    ins_start: 0,
                    ins_end: 0,
                });
            }
            _ => {
                return Err(ParseError {
                    line: lineno,
                    kind: ParseErrorKind::UnknownOp(op),
                }
                .into())
            }
        }
    }

    let target_trailing_newline = target_trailing_newline.ok_or(ParseError {
        line: 0,
        kind: ParseErrorKind::MissingMarker,
    })?;
    validate_commands(&commands)?;
    Ok((commands, target_trailing_newline))
}

/// Scans the insert block starting at `pos`, returning the byte range of
/// the content lines (still dot-escaped, excluding the `.\n` terminator)
/// and the position just past the terminator.
fn read_insert_range(
    script: &[u8],
    mut pos: usize,
    lineno: &mut usize,
) -> Result<(usize, usize, usize), DeltaError> {
    let start = pos;
    while pos < script.len() {
        *lineno += 1;
        let rest = &script[pos..];
        let line_len = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
        let raw = &rest[..line_len];
        let next = (pos + line_len + 1).min(script.len());
        if raw == b"." {
            return Ok((start, pos, next));
        }
        pos = next;
    }
    Err(ParseError {
        line: 0,
        kind: ParseErrorKind::UnterminatedInsert,
    }
    .into())
}

/// Splits a command line like `3,7c` / `12a` into its address and opcode.
fn split_command(raw: &[u8]) -> Option<((usize, usize), u8)> {
    if raw.len() < 2 {
        return None;
    }
    let op = *raw.last()?;
    let addr = &raw[..raw.len() - 1];
    let text = std::str::from_utf8(addr).ok()?;
    if let Some((a, b)) = text.split_once(',') {
        let a: usize = a.parse().ok()?;
        let b: usize = b.parse().ok()?;
        Some(((a, b), op))
    } else {
        let a: usize = text.parse().ok()?;
        Some(((a, a), op))
    }
}

/// Structural validation: every range starts at line 1 or later and is
/// not inverted, and commands run strictly descending without overlap.
fn validate_commands(commands: &[RawCommand]) -> Result<(), DeltaError> {
    let mut prev_first: Option<usize> = None;
    for cmd in commands {
        if cmd.op != b'a' && (cmd.from == 0 || cmd.from > cmd.to) {
            return Err(ParseError {
                line: 0,
                kind: ParseErrorKind::InvalidRange {
                    from: cmd.from,
                    to: cmd.to,
                },
            }
            .into());
        }
        if let Some(prev) = prev_first {
            if cmd.last_line() >= prev {
                return Err(ParseError {
                    line: 0,
                    kind: ParseErrorKind::OutOfOrder {
                        last: cmd.last_line(),
                        prev,
                    },
                }
                .into());
            }
        }
        prev_first = Some(cmd.first_line());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(algo: DiffAlgorithm, old: &str, new: &str) -> DeltaScript {
        let old_buf = DocBuf::from_text(old);
        let new_buf = DocBuf::from_text(new);
        let mut scratch = DiffScratch::new();
        diff_docs(algo, &old_buf, &new_buf, &mut scratch)
    }

    const ALGOS: [DiffAlgorithm; 2] = [DiffAlgorithm::HuntMcIlroy, DiffAlgorithm::Myers];

    #[test]
    fn round_trip_through_apply_delta() {
        let cases = [
            ("", ""),
            ("", "a\nb\n"),
            ("a\nb\n", ""),
            ("a\nb\nc\n", "a\nX\nc\n"),
            ("a\nb", "a\nb\n"),
            ("a\nb\n", "a\nb"),
            ("x\nx\nx\n", "x\nx\n"),
            ("a\nb\nc\nd\ne\nf\n", "d\ne\nf\na\nb\nc\n"),
            (".\n..\n.x\n", "..\n.\ny\n"),
        ];
        for algo in ALGOS {
            for (old, new) in cases {
                let d = delta(algo, old, new);
                let text = d.to_text();
                let rebuilt = apply_delta(old.as_bytes(), &text).unwrap();
                assert_eq!(rebuilt, new.as_bytes(), "algo={algo} old={old:?} new={new:?}");
                assert_eq!(text.len(), d.wire_len(), "algo={algo} old={old:?}");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_deterministic() {
        let mut scratch = DiffScratch::new();
        let old = DocBuf::from_text("a\nb\nc\nd\n");
        let new = DocBuf::from_text("a\nx\nc\ny\n");
        let first = diff_docs(DiffAlgorithm::HuntMcIlroy, &old, &new, &mut scratch).to_text();
        // Warm scratch, different sizes in between.
        let big_old = DocBuf::from_text(&"line\n".repeat(500));
        let big_new = DocBuf::from_text(&"line\n".repeat(501));
        diff_docs(DiffAlgorithm::HuntMcIlroy, &big_old, &big_new, &mut scratch);
        let again = diff_docs(DiffAlgorithm::HuntMcIlroy, &old, &new, &mut scratch).to_text();
        assert_eq!(first, again);
    }

    #[test]
    fn anchor_trimming_narrows_the_window() {
        // A one-line edit in the middle: the interner must only see the
        // changed window, i.e. far fewer symbols than lines.
        let old_text: String = (0..1000).map(|i| format!("line {i}\n")).collect();
        let new_text = old_text.replace("line 500\n", "LINE 500\n");
        let old = DocBuf::from_bytes(old_text.into_bytes());
        let new = DocBuf::from_bytes(new_text.into_bytes());
        let mut scratch = DiffScratch::new();
        let d = diff_docs(DiffAlgorithm::HuntMcIlroy, &old, &new, &mut scratch);
        assert!(scratch.entries.len() <= 2, "window not trimmed");
        assert_eq!(d.command_count(), 1);
    }

    #[test]
    fn commands_from_explicit_matches() {
        // "c" moves from the end to the front; hand the hunk builder the
        // common subsequence "a", "b" directly.
        let old = DocBuf::from_text("a\nb\nc\n");
        let new = DocBuf::from_text("c\na\nb\n");
        let mut scratch = DiffScratch::new();
        scratch.matches = vec![
            crate::algorithm::Match {
                old_line: 0,
                new_line: 1,
            },
            crate::algorithm::Match {
                old_line: 1,
                new_line: 2,
            },
        ];
        let d = build_commands(&new, 0, 0, 3, 3, &scratch);
        assert_eq!(d.to_text(), b"3d\n0a\nc\n.\nw\n");
        assert_eq!(apply_delta(old.as_bytes(), &d.to_text()).unwrap(), new.as_bytes());
    }

    #[test]
    fn apply_delta_rejects_out_of_range() {
        let err = apply_delta(b"a\n", b"2d\nw\n").unwrap_err();
        assert_eq!(
            err,
            DeltaError::Apply(ApplyError::OutOfRange {
                line: 2,
                base_lines: 1
            })
        );
    }

    #[test]
    fn apply_delta_rejects_garbage() {
        assert!(matches!(
            apply_delta(b"a\n", b"not a script\n"),
            Err(DeltaError::Parse(_))
        ));
        assert!(matches!(
            apply_delta(b"a\n", b"1a\nno terminator\n"),
            Err(DeltaError::Parse(_))
        ));
        assert!(matches!(
            apply_delta(b"a\n", b""),
            Err(DeltaError::Parse(_))
        ));
        // Out-of-order commands are structural errors.
        assert!(matches!(
            apply_delta(b"a\nb\nc\n", b"1d\n3d\nw\n"),
            Err(DeltaError::Parse(_))
        ));
    }

    #[test]
    fn stats_match_legacy_semantics() {
        let d = delta(DiffAlgorithm::HuntMcIlroy, "a\nb\nc\nd\n", "a\nx\ny\nd\n");
        let s = d.stats();
        assert_eq!(s.hunks, 1);
        assert_eq!(s.lines_added, 2);
        assert_eq!(s.lines_removed, 2);
        assert_eq!(s.wire_len, d.to_text().len());
    }
}

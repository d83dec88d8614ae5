//! Differential file comparison for the shadow editing service.
//!
//! The shadow editing prototype (Comer, Griffioen, Yavatkar; CSD-TR-722 /
//! ICDCS 1988) transmits *changes* between successive versions of a file
//! instead of the whole file. The paper's prototype used the Hunt–McIlroy
//! differential-comparison algorithm (UNIX `diff`) emitting edit commands
//! "in a form suitable for an editor (like `ed`)", and its future-work
//! section (§8.3) names the Miller–Myers algorithm as a candidate to
//! study. Both run here as LCS engines behind one [`DiffAlgorithm`]
//! switch: Hunt–Szymanski/McIlroy (the default, matching the prototype)
//! and Myers *O(ND)* in its linear-space form.
//!
//! There is one line-delta path: [`DocBuf`] documents (one contiguous
//! buffer + line-offset index), [`diff_docs`] with a reusable
//! [`DiffScratch`], a [`DeltaScript`] whose inserts borrow from the
//! target buffer, its `diff -e` text from [`DeltaScript::write_text`],
//! and [`apply_delta`] reconstructing target bytes straight from
//! `base + script text`.
//!
//! Large and binary files that the line differ handles poorly route
//! through the **chunk codec** instead: [`chunk_delta_into`] emits a
//! copy/insert delta over content-defined chunk boundaries (see
//! [`choose_chunk_codec`] for the per-file classifier), applied by
//! [`apply_chunk_delta`].
//!
//! # Example
//!
//! ```
//! use shadow_diff::{apply_delta, diff_docs, DiffAlgorithm, DiffScratch, DocBuf};
//!
//! # fn main() -> Result<(), shadow_diff::DeltaError> {
//! let old = DocBuf::from_text("a\nb\nc\n");
//! let new = DocBuf::from_text("a\nB\nc\nd\n");
//! let mut scratch = DiffScratch::new();
//! let script = diff_docs(DiffAlgorithm::HuntMcIlroy, &old, &new, &mut scratch).to_text();
//! assert_eq!(apply_delta(old.as_bytes(), &script)?, new.as_bytes());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
mod chunk;
mod docbuf;
mod edscript;
mod hunt_mcilroy;
mod myers;
mod scratch;
mod stats;
mod zerocopy;

pub use algorithm::DiffAlgorithm;
pub use chunk::{
    apply_chunk_delta, choose_chunk_codec, chunk_delta_into, classify, ChunkDeltaError,
    ChunkParams, ChunkStats, DocShape, AVG_LINE_CHUNK_THRESHOLD, BINARY_SNIFF_WINDOW,
    CHUNK_FORMAT_VERSION, LEVELS, MAX_LEVELS, MAX_LINE_CHUNK_THRESHOLD,
};
pub use docbuf::DocBuf;
pub use edscript::{ApplyError, ParseError, ParseErrorKind};
pub use scratch::DiffScratch;
pub use stats::DiffStats;
pub use zerocopy::{apply_delta, diff_docs, DeltaError, DeltaScript};

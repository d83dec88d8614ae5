//! Reusable scratch state for the zero-copy diff pipeline.
//!
//! Every table the pipeline needs — the line interner, the Hunt–McIlroy
//! occurrence lists, threshold/link vectors and candidate arena, the Myers
//! frontier vectors, and the match list — lives in one [`DiffScratch`]
//! value that the caller keeps across diffs. Each run `clear()`s and
//! refills these vectors, so after the first few calls at a given document
//! size the pipeline performs **zero heap allocation**: steady-state
//! resubmissions of a shadow file reuse every buffer.
//!
//! The scratch is a pure cache: it carries no semantic state between
//! calls, and [`Clone`] deliberately produces a fresh, empty scratch so
//! that holders (version stores, server nodes) can keep deriving `Clone`
//! without duplicating dead capacity.

use crate::algorithm::Match;
use crate::chunk::ChunkScratch;

/// Multiplier from the FxHash family (Firefox / rustc's default hasher):
/// cheap, and good enough for a table that always confirms equality by
/// comparing the actual line bytes.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Hashes a line's bytes FxHash-style: fold 8-byte little-endian words,
/// then the tail, each via `rotate ^ word * seed`.
pub(crate) fn fx_hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunk is 8 bytes"));
        h = (h.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
    let mut tail = 0u64;
    for (i, &b) in chunks.remainder().iter().enumerate() {
        tail |= u64::from(b) << (8 * i);
    }
    // Mix the length so prefixes of each other don't collide trivially.
    h = (h.rotate_left(5) ^ tail).wrapping_mul(FX_SEED);
    (h.rotate_left(5) ^ bytes.len() as u64).wrapping_mul(FX_SEED)
}

/// One interner entry: the line's hash plus where its bytes live, so a
/// probe can confirm equality against the source document without the
/// table owning any line bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InternEntry {
    /// Full hash of the line bytes (cheap pre-filter before comparing).
    pub(crate) hash: u64,
    /// Which document the representative line lives in: 0 = old, 1 = new.
    pub(crate) doc: u8,
    /// Absolute line index within that document.
    pub(crate) line: u32,
}

/// One Hunt–McIlroy k-candidate, packed to `u32` indices.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    /// Window-relative old line of the matched pair.
    pub(crate) old_line: u32,
    /// Window-relative new line of the matched pair.
    pub(crate) new_line: u32,
    /// Arena index of the length-`k-1` predecessor, or `u32::MAX`.
    pub(crate) prev: u32,
}

/// Reusable working memory for [`diff_docs`](crate::diff_docs).
///
/// Hold one per diffing site (client driver, server reverse-shadow path,
/// version store) and pass it to every call. It is a pure cache: each
/// call clears and refills it, and [`Clone`] yields a fresh, empty one.
#[derive(Debug, Default)]
pub struct DiffScratch {
    /// Open-addressing hash table: `entry index + 1`, `0` = empty slot.
    pub(crate) buckets: Vec<u32>,
    /// Interned distinct lines; the entry index is the line's symbol.
    pub(crate) entries: Vec<InternEntry>,
    /// Symbols of the old document's trimmed window, in order.
    pub(crate) old_syms: Vec<u32>,
    /// Symbols of the new document's trimmed window, in order.
    pub(crate) new_syms: Vec<u32>,
    /// CSR row starts: positions of symbol `s` in the new window are
    /// `occ_items[occ_starts[s]..occ_starts[s + 1]]`.
    pub(crate) occ_starts: Vec<u32>,
    /// Write cursors while bucketing (a working copy of `occ_starts`).
    pub(crate) occ_fill: Vec<u32>,
    /// CSR payload: new-window positions grouped by symbol, ascending.
    pub(crate) occ_items: Vec<u32>,
    /// `thresh[k]`: smallest new-window index ending a common subsequence
    /// of length `k + 1`; strictly increasing.
    pub(crate) thresh: Vec<u32>,
    /// `link[k]`: arena index of the candidate achieving `thresh[k]`.
    pub(crate) link: Vec<u32>,
    /// Candidate arena for chain recovery.
    pub(crate) arena: Vec<Candidate>,
    /// Myers forward frontier (indexed by shifted diagonal).
    pub(crate) vf: Vec<i64>,
    /// Myers backward frontier.
    pub(crate) vb: Vec<i64>,
    /// LCS output: strictly increasing window-relative matches.
    pub(crate) matches: Vec<Match>,
    /// Content-defined chunking arenas (chunk records, digest buckets,
    /// op list) for [`chunk_delta_into`](crate::chunk_delta_into).
    pub(crate) chunk: ChunkScratch,
}

impl DiffScratch {
    /// Creates an empty scratch; buffers grow on first use and are reused
    /// by every subsequent diff.
    pub fn new() -> Self {
        DiffScratch::default()
    }
}

/// A fresh, empty scratch — *not* a copy of the buffers.
///
/// The scratch carries no semantic state, only warmed capacity, so the
/// cheap and correct way to clone a holder (e.g. a version store) is to
/// let the copy warm its own buffers.
impl Clone for DiffScratch {
    fn clone(&self) -> Self {
        DiffScratch::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fx_hash_distinguishes_prefixes_and_lengths() {
        let a = fx_hash_bytes(b"abcdefgh");
        let b = fx_hash_bytes(b"abcdefghi");
        let c = fx_hash_bytes(b"abcdefg");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, fx_hash_bytes(b"abcdefgh"));
        // Tail bytes beyond the last full word must matter.
        assert_ne!(fx_hash_bytes(b"abcdefgh1"), fx_hash_bytes(b"abcdefgh2"));
    }

    #[test]
    fn clone_is_fresh() {
        let mut s = DiffScratch::new();
        s.old_syms.extend_from_slice(&[1, 2, 3]);
        s.vf.resize(64, 0);
        let c = s.clone();
        assert!(c.old_syms.is_empty());
        assert!(c.vf.is_empty());
    }
}

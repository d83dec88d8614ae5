//! Content-defined chunk reconciliation for large and binary files.
//!
//! The line-oriented pipeline ([`diff_docs`](crate::diff_docs)) degenerates
//! on exactly the files supercomputer users ship most — multi-MB data
//! decks, minified sources, binaries — because a file with few newlines is
//! one giant "line" and every edit becomes a whole-file transfer. This
//! module adds the byte-level path from *Scalable String Reconciliation by
//! Recursive Content-Dependent Shingling*: split both documents into
//! **content-defined chunks** (boundaries chosen by a gear rolling hash,
//! so an insertion shifts at most the chunks it touches), index the base's
//! chunks by an FNV digest, and emit a delta of `copy-range-from-base` /
//! `insert-literal` operations. Spans of the target that find no match at
//! the coarse granularity are **recursively re-chunked** at a finer
//! granularity ([`LEVELS`], depth bound [`MAX_LEVELS`]) so a 1 KB edit in
//! the middle of a 64 KB chunk still ships roughly 1 KB.
//!
//! A document's chunking at every level is a [`ChunkIndex`]. A version
//! chain keeps one per retained version and [derives](ChunkIndex::derive)
//! each new version's index from its base's: only the chunks around the
//! edit are re-chunked, and the result is exactly what chunking from
//! scratch would give. [`chunk_delta_indexed`]
//! walks two such indexes; [`chunk_delta_into`] indexes the base and
//! derives the target itself.
//!
//! All working memory — chunk records, digest buckets, the op list — lives
//! in the [`DiffScratch`] the caller already holds for the line path, so
//! steady-state chunk diffs perform **zero heap allocation**: the caller
//! also supplies the output buffer ([`chunk_delta_into`]).
//!
//! A cheap [`classify`] pass over a [`DocBuf`] (NUL sniff, line-length
//! distribution) decides per file whether the line or the chunk codec
//! should carry an update; [`choose_chunk_codec`] combines both sides.

use crate::docbuf::DocBuf;
use crate::scratch::DiffScratch;

/// Version byte leading every serialized chunk delta.
pub const CHUNK_FORMAT_VERSION: u8 = 1;

/// Op tag: copy `len` bytes from `base_off` in the base document.
const OP_COPY: u8 = 0;
/// Op tag: insert `len` literal bytes carried in the delta.
const OP_INSERT: u8 = 1;

/// Chunking parameters for one refinement level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkParams {
    /// No boundary is placed before this many bytes.
    pub min: u32,
    /// Hard cut at this many bytes even without a hash boundary.
    pub max: u32,
    /// Number of high hash bits that must be zero at a boundary; the
    /// expected chunk length is roughly `min + 2^mask_bits`.
    pub mask_bits: u32,
}

impl ChunkParams {
    /// The boundary mask: the top `mask_bits` bits of the gear hash,
    /// which depend on the longest window of preceding bytes.
    const fn mask(self) -> u64 {
        ((1u64 << self.mask_bits) - 1) << (64 - self.mask_bits)
    }
}

/// The refinement ladder: coarse chunks (~10 KB expected) for the first
/// pass, fine chunks (~576 B expected) for spans the coarse pass could
/// not match. Two levels bound the recursion depth ([`MAX_LEVELS`]).
pub const LEVELS: [ChunkParams; 2] = [
    ChunkParams {
        min: 2048,
        max: 65536,
        mask_bits: 13,
    },
    ChunkParams {
        min: 64,
        max: 4096,
        mask_bits: 9,
    },
];

/// Recursion depth bound for refinement: the number of chunking levels.
pub const MAX_LEVELS: usize = LEVELS.len();

/// SplitMix64 step — a well-mixed const-evaluable PRNG used only to fill
/// the gear table with fixed pseudo-random words.
const fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One random 64-bit word per byte value: the gear hash shifts the old
/// state left and adds the word for the incoming byte, so each output bit
/// mixes a sliding window of recent input.
const GEAR: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = splitmix64(i as u64);
        i += 1;
    }
    table
};

/// FNV-1a over 8-byte little-endian rounds with a final avalanche —
/// the per-chunk digest used by the base index. Collisions are harmless:
/// every probe confirms equality against the actual chunk bytes.
fn fnv_chunk(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("word is 8 bytes"));
        hash = (hash ^ w).wrapping_mul(FNV_PRIME);
    }
    let mut tail = 0u64;
    for (i, &b) in words.remainder().iter().enumerate() {
        tail |= u64::from(b) << (8 * i);
    }
    hash = (hash ^ tail).wrapping_mul(FNV_PRIME);
    hash ^= bytes.len() as u64;
    // Murmur-style finalizer so low bits feel every input bit.
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash
}

/// One chunk: where its bytes live in the source document plus its digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChunkRec {
    /// Absolute byte offset of the chunk in its document.
    off: u32,
    /// Chunk length in bytes (bounded by `ChunkParams::max`).
    len: u32,
    /// FNV digest of the chunk bytes.
    hash: u64,
}

/// One delta operation before serialization. `Insert` records the span in
/// the *target* so literal bytes are copied out exactly once, at
/// serialization time.
#[derive(Debug, Clone, Copy)]
enum ChunkOp {
    /// Copy `len` bytes from `base_off` in the base.
    Copy { base_off: u32, len: u32 },
    /// Insert `len` literal bytes found at `t_off` in the target.
    Insert { t_off: u32, len: u32 },
}

/// One level of a [`ChunkIndex`]: the document's chunk records in order,
/// plus the open-addressing digest index over them.
#[derive(Debug, Clone, Default)]
struct LevelIndex {
    /// Chunks of the whole document at this level.
    chunks: Vec<ChunkRec>,
    /// Open-addressing digest index: `chunk index + 1`, `0` = empty.
    buckets: Vec<u32>,
}

/// A document's content-defined chunking at every level of [`LEVELS`],
/// each level indexed by chunk digest.
///
/// [`build`](ChunkIndex::build) chunks a document from scratch;
/// [`derive`](ChunkIndex::derive) computes the same index for an edited
/// version from its base's index, re-chunking only around the edit.
/// Either way the index is a pure function of the document's bytes, so
/// [`chunk_delta_indexed`] over two indexes emits exactly the bytes
/// [`chunk_delta_into`] emits over the two documents.
///
/// A derived index also keeps the common prefix and suffix the
/// derivation proved against its base. [`chunk_delta_indexed`] uses
/// that proof, when told the delta's base is the derivation base, to
/// skip re-comparing the chunks it covers. The proof is not part of the
/// index's equality.
///
/// # Example
///
/// ```
/// use shadow_diff::{chunk_delta_indexed, chunk_delta_into, ChunkIndex, DiffScratch};
///
/// let base: Vec<u8> = (0..200_000u32)
///     .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
///     .collect();
/// let mut target = base.clone();
/// target[100_000..100_100].fill(0);
///
/// let base_idx = ChunkIndex::build(&base);
/// let target_idx = ChunkIndex::derive(&base, &base_idx, &target);
/// assert_eq!(target_idx, ChunkIndex::build(&target));
///
/// let mut scratch = DiffScratch::new();
/// let (mut indexed, mut plain) = (Vec::new(), Vec::new());
/// chunk_delta_indexed(&base, &base_idx, &target, &target_idx, true, &mut scratch, &mut indexed);
/// chunk_delta_into(&base, &target, &mut scratch, &mut plain);
/// assert_eq!(indexed, plain);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChunkIndex {
    /// Length of the indexed document.
    doc_len: usize,
    /// One chunking per refinement level.
    levels: [LevelIndex; MAX_LEVELS],
    /// What [`derive`](ChunkIndex::derive) proved equal between its base
    /// and this document; `None` for a [`build`](ChunkIndex::build).
    derived: Option<Common>,
}

/// Two indexes are equal when they hold the same chunks; the bucket
/// tables are a function of the chunk lists, and the derivation proof
/// says how the index was computed, not what it holds.
impl PartialEq for ChunkIndex {
    fn eq(&self, other: &Self) -> bool {
        self.doc_len == other.doc_len
            && self
                .levels
                .iter()
                .zip(&other.levels)
                .all(|(a, b)| a.chunks == b.chunks)
    }
}

impl Eq for ChunkIndex {}

impl ChunkIndex {
    /// Chunks `doc` from scratch at every level.
    ///
    /// # Panics
    ///
    /// Panics if `doc` exceeds `u32::MAX` bytes (the same bound
    /// [`DocBuf`] enforces).
    #[must_use]
    pub fn build(doc: &[u8]) -> ChunkIndex {
        let mut index = ChunkIndex::default();
        index.index_from(&[], None, doc);
        index
    }

    /// The index of `target`, derived from `base` and its index.
    ///
    /// Base chunks that end inside the common prefix are kept, except
    /// the base's final chunk, whose end may be the document end rather
    /// than a content-defined cut. Chunking resumes after them, and
    /// stops at the first cut inside the common suffix that lands on a
    /// base cut once shifted by the length change: from there on the
    /// remaining bytes and the remaining length are those of the base,
    /// so the base's remaining chunks are the target's, shifted. The
    /// result equals [`ChunkIndex::build`] of `target` exactly.
    ///
    /// `base_idx` must be the index of `base`.
    ///
    /// # Panics
    ///
    /// Panics if `target` exceeds `u32::MAX` bytes (the same bound
    /// [`DocBuf`] enforces).
    #[must_use]
    pub fn derive(base: &[u8], base_idx: &ChunkIndex, target: &[u8]) -> ChunkIndex {
        let mut index = ChunkIndex::default();
        index.index_from(base, Some(base_idx), target);
        index
    }

    /// Re-indexes `self` as the index of `target`, derived from `base`
    /// and its index (`None`: chunk from scratch). Reuses the capacity
    /// `self` already holds.
    fn index_from(&mut self, base: &[u8], base_idx: Option<&ChunkIndex>, target: &[u8]) {
        assert!(
            target.len() <= u32::MAX as usize,
            "chunk records address documents of at most u32::MAX bytes"
        );
        debug_assert!(base_idx.is_none_or(|i| i.doc_len == base.len()));
        let common = Common::of(base, target);
        self.derived = base_idx.map(|_| common);
        for (level, params) in LEVELS.iter().enumerate() {
            let base_chunks = base_idx.map_or(&[][..], |i| &i.levels[level].chunks);
            let out = &mut self.levels[level];
            derive_level(
                *params,
                base_chunks,
                base.len(),
                target,
                common,
                &mut out.chunks,
            );
            build_index(&out.chunks, &mut out.buckets);
        }
        self.doc_len = target.len();
    }
}

/// Reusable working memory for [`chunk_delta_into`] and
/// [`chunk_delta_indexed`].
#[derive(Debug, Default)]
pub(crate) struct ChunkScratch {
    /// [`chunk_delta_into`]'s index of its base.
    base_index: ChunkIndex,
    /// [`chunk_delta_into`]'s level-0 chunks of its target.
    target_chunks: Vec<ChunkRec>,
    /// What every walk uses.
    walk: WalkScratch,
}

/// The working memory of one delta walk.
#[derive(Debug, Default)]
struct WalkScratch {
    /// Chunks of the current unmatched target span, per finer level
    /// (slot 0 unused: level 0 always comes from an index).
    span_chunks: [Vec<ChunkRec>; MAX_LEVELS],
    /// The op list accumulated before serialization.
    ops: Vec<ChunkOp>,
}

/// Summary of one chunk delta, reported by [`chunk_delta_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChunkStats {
    /// Serialized operations (after merging adjacent runs).
    pub ops: usize,
    /// Target bytes reproduced by copying from the base.
    pub copy_bytes: usize,
    /// Target bytes shipped literally in the delta.
    pub insert_bytes: usize,
    /// Total serialized delta size in bytes, header included.
    pub wire_len: usize,
}

/// Length of the chunk that starts at `bytes[0]`: the first
/// content-defined boundary at or after `min`, else `max`, else the end
/// of `bytes`. It depends only on the bytes it scans and on how many
/// bytes remain, which is what lets [`derive_level`] reuse base chunks.
fn cut_len(bytes: &[u8], params: ChunkParams) -> usize {
    let remain = bytes.len();
    let end = remain.min(params.max as usize);
    if remain <= params.min as usize {
        return end;
    }
    let mask = params.mask();
    let mut hash = 0u64;
    let mut i = 0usize;
    while i < end {
        hash = (hash << 1).wrapping_add(GEAR[bytes[i] as usize]);
        i += 1;
        if i >= params.min as usize && hash & mask == 0 {
            return i;
        }
    }
    end
}

/// One chunk record for `doc[off..off + len]`.
fn chunk_rec(doc: &[u8], off: usize, len: usize) -> ChunkRec {
    ChunkRec {
        off: off as u32,
        len: len as u32,
        hash: fnv_chunk(&doc[off..off + len]),
    }
}

/// Splits `doc[lo..hi]` into content-defined chunks, appending one record
/// per chunk (offsets absolute in `doc`).
fn chunk_spans(doc: &[u8], lo: usize, hi: usize, params: ChunkParams, out: &mut Vec<ChunkRec>) {
    let mut start = lo;
    while start < hi {
        let cut = cut_len(&doc[start..hi], params);
        out.push(chunk_rec(doc, start, cut));
        start += cut;
    }
}

/// The common prefix and suffix of a base and a target, the suffix
/// capped so the two never overlap in the shorter document, with the
/// two lengths they were measured on.
#[derive(Debug, Clone, Copy)]
struct Common {
    prefix: usize,
    suffix: usize,
    base_len: usize,
    target_len: usize,
}

impl Common {
    /// Compares whole blocks with slice equality (a `memcmp`) and only
    /// the first differing block byte by byte.
    fn of(base: &[u8], target: &[u8]) -> Common {
        const BLOCK: usize = 256;
        let shorter = base.len().min(target.len());
        let mut prefix = 0;
        while prefix + BLOCK <= shorter
            && base[prefix..prefix + BLOCK] == target[prefix..prefix + BLOCK]
        {
            prefix += BLOCK;
        }
        while prefix < shorter && base[prefix] == target[prefix] {
            prefix += 1;
        }
        let room = shorter - prefix;
        let (b_end, t_end) = (base.len(), target.len());
        let mut suffix = 0;
        while suffix + BLOCK <= room
            && base[b_end - suffix - BLOCK..b_end - suffix]
                == target[t_end - suffix - BLOCK..t_end - suffix]
        {
            suffix += BLOCK;
        }
        while suffix < room && base[b_end - suffix - 1] == target[t_end - suffix - 1] {
            suffix += 1;
        }
        Common {
            prefix,
            suffix,
            base_len: b_end,
            target_len: t_end,
        }
    }

    /// Whether base chunk `b` and target chunk `t` are the same chunk,
    /// proved by position alone: equal lengths, and `t` lies inside the
    /// common prefix at `b`'s offset or inside the common suffix at
    /// `b`'s offset shifted by the length change.
    fn proves(self, b: ChunkRec, t: ChunkRec) -> bool {
        let (b_off, t_off, len) = (b.off as usize, t.off as usize, t.len as usize);
        b.len == t.len
            && ((b_off == t_off && t_off + len <= self.prefix)
                || (t_off >= self.target_len - self.suffix
                    && b_off + self.target_len == t_off + self.base_len))
    }
}

/// Writes the chunking of `target` at one level into `out`, reusing the
/// base's chunks (`base_chunks`, of a base `base_len` bytes long) where
/// [`ChunkIndex::derive`] proves them equal. An empty `base_chunks` makes
/// this a chunking from scratch.
fn derive_level(
    params: ChunkParams,
    base_chunks: &[ChunkRec],
    base_len: usize,
    target: &[u8],
    common: Common,
    out: &mut Vec<ChunkRec>,
) {
    out.clear();
    // Chunks ending inside the prefix, except the final one: a
    // non-final chunk ends at a cut taken on bytes the target shares.
    let candidates = &base_chunks[..base_chunks.len().saturating_sub(1)];
    let kept = candidates.partition_point(|c| (c.off + c.len) as usize <= common.prefix);
    out.extend_from_slice(&candidates[..kept]);
    let mut start = out.last().map_or(0, |c| (c.off + c.len) as usize);
    let suffix_from = target.len() - common.suffix;
    while start < target.len() {
        let cut = cut_len(&target[start..], params);
        out.push(chunk_rec(target, start, cut));
        start += cut;
        if start < suffix_from || start == target.len() {
            continue;
        }
        // `target[start..]` equals the base from `start - shift` on.
        let shifted = start + base_len - target.len();
        if let Ok(at) = base_chunks.binary_search_by_key(&shifted, |c| c.off as usize) {
            out.extend(base_chunks[at..].iter().map(|c| ChunkRec {
                off: (c.off as usize + target.len() - base_len) as u32,
                ..*c
            }));
            return;
        }
    }
}

/// Builds the open-addressing digest index over `chunks`.
fn build_index(chunks: &[ChunkRec], buckets: &mut Vec<u32>) {
    let cap = (chunks.len() * 2).next_power_of_two().max(16);
    buckets.clear();
    buckets.resize(cap, 0);
    for (i, chunk) in chunks.iter().enumerate() {
        let mut slot = chunk.hash as usize & (cap - 1);
        while buckets[slot] != 0 {
            slot = (slot + 1) & (cap - 1);
        }
        buckets[slot] = i as u32 + 1;
    }
}

/// Looks up target chunk `t` in one level of the base index, confirming
/// any digest hit by comparing the actual bytes (digest collisions are
/// thereby harmless). A hit the walk's proof covers is the same chunk
/// and needs no compare; the probe order is unchanged, so the result is
/// too.
fn find_chunk(walk: Walk<'_>, level: &LevelIndex, t: ChunkRec) -> Option<ChunkRec> {
    let buckets = &level.buckets;
    if buckets.is_empty() {
        return None;
    }
    let bytes = &walk.target[t.off as usize..(t.off + t.len) as usize];
    let cap = buckets.len();
    let mut slot = t.hash as usize & (cap - 1);
    loop {
        let slot_val = buckets[slot];
        if slot_val == 0 {
            return None;
        }
        let rec = level.chunks[slot_val as usize - 1];
        if rec.hash == t.hash {
            let same = &walk.base[rec.off as usize..(rec.off + rec.len) as usize];
            let proven = walk.proof.is_some_and(|common| common.proves(rec, t));
            debug_assert!(!proven || same == bytes, "proof covers unequal chunks");
            if proven || same == bytes {
                return Some(rec);
            }
        }
        slot = (slot + 1) & (cap - 1);
    }
}

/// Appends an op, extending the previous one when the two are contiguous
/// (adjacent base ranges for copies, adjacent target ranges for inserts).
fn push_op(ops: &mut Vec<ChunkOp>, op: ChunkOp) {
    if let Some(last) = ops.last_mut() {
        match (last, op) {
            (
                ChunkOp::Copy { base_off, len },
                ChunkOp::Copy {
                    base_off: next_off,
                    len: next_len,
                },
            ) if *base_off + *len == next_off => {
                *len += next_len;
                return;
            }
            (
                ChunkOp::Insert { t_off, len },
                ChunkOp::Insert {
                    t_off: next_off,
                    len: next_len,
                },
            ) if *t_off + *len == next_off => {
                *len += next_len;
                return;
            }
            _ => {}
        }
    }
    ops.push(op);
}

/// The two documents of one delta walk and the base's index.
#[derive(Debug, Clone, Copy)]
struct Walk<'a> {
    base: &'a [u8],
    base_index: &'a ChunkIndex,
    target: &'a [u8],
    /// The common prefix and suffix of exactly these two documents, when
    /// the caller has proved them.
    proof: Option<Common>,
}

/// Matches `t_chunks`, which tile `target[t_lo..t_hi]` at `level`,
/// against the base's chunks at that level. A maximal run of unmatched
/// chunks goes one level finer ([`refine`]).
fn match_chunks(
    walk: Walk<'_>,
    level: usize,
    t_chunks: &[ChunkRec],
    t_lo: usize,
    t_hi: usize,
    work: &mut WalkScratch,
) {
    let mut pending = t_lo;
    for rec in t_chunks {
        let lo = rec.off as usize;
        let hi = lo + rec.len as usize;
        let level_index = &walk.base_index.levels[level];
        if let Some(base_rec) = find_chunk(walk, level_index, *rec) {
            refine(walk, level + 1, pending, lo, work);
            push_op(
                &mut work.ops,
                ChunkOp::Copy {
                    base_off: base_rec.off,
                    len: base_rec.len,
                },
            );
            pending = hi;
        }
    }
    refine(walk, level + 1, pending, t_hi, work);
}

/// Emits the unmatched span `target[t_lo..t_hi]`: chunked at `level` and
/// matched, or, past the last level or against an empty base, inserted
/// literally. Depth is bounded by [`MAX_LEVELS`]: each call recurses only
/// with `level + 1`.
fn refine(walk: Walk<'_>, level: usize, t_lo: usize, t_hi: usize, work: &mut WalkScratch) {
    if t_lo >= t_hi {
        return;
    }
    if level >= MAX_LEVELS || walk.base.is_empty() {
        push_op(
            &mut work.ops,
            ChunkOp::Insert {
                t_off: t_lo as u32,
                len: (t_hi - t_lo) as u32,
            },
        );
        return;
    }
    // The span list leaves the scratch while the recursion below uses
    // the scratch mutably; it goes back with its capacity.
    let mut spans = std::mem::take(&mut work.span_chunks[level]);
    spans.clear();
    chunk_spans(walk.target, t_lo, t_hi, LEVELS[level], &mut spans);
    match_chunks(walk, level, &spans, t_lo, t_hi, work);
    work.span_chunks[level] = spans;
}

/// Walks the target's level-0 chunks against the base index and
/// serializes the resulting ops into `out`.
fn walk_and_serialize(
    walk: Walk<'_>,
    target_chunks: &[ChunkRec],
    work: &mut WalkScratch,
    out: &mut Vec<u8>,
) -> ChunkStats {
    work.ops.clear();
    if walk.base.is_empty() {
        refine(walk, 0, 0, walk.target.len(), work);
    } else {
        match_chunks(walk, 0, target_chunks, 0, walk.target.len(), work);
    }
    let target = walk.target;
    out.clear();
    out.push(CHUNK_FORMAT_VERSION);
    out.extend_from_slice(&(target.len() as u32).to_le_bytes());
    let mut stats = ChunkStats::default();
    for op in &work.ops {
        match *op {
            ChunkOp::Copy { base_off, len } => {
                out.push(OP_COPY);
                out.extend_from_slice(&base_off.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
                stats.copy_bytes += len as usize;
            }
            ChunkOp::Insert { t_off, len } => {
                out.push(OP_INSERT);
                out.extend_from_slice(&len.to_le_bytes());
                let lo = t_off as usize;
                out.extend_from_slice(&target[lo..lo + len as usize]);
                stats.insert_bytes += len as usize;
            }
        }
    }
    stats.ops = work.ops.len();
    stats.wire_len = out.len();
    stats
}

/// Computes a chunk-level delta turning `base` into `target`, serializing
/// it into the caller-held `out` buffer (cleared first).
///
/// The format is one [`CHUNK_FORMAT_VERSION`] byte, the target length as
/// `u32` little-endian, then operations until end of buffer: `0x00` +
/// `base_off: u32` + `len: u32` copies a base range; `0x01` + `len: u32` +
/// `len` literal bytes inserts. The base is indexed and the target's
/// level 0 derived from it ([`ChunkIndex`]) in arenas that live in
/// `scratch`, so repeated calls at a steady document size allocate
/// nothing.
///
/// # Panics
///
/// Panics if either document exceeds `u32::MAX` bytes (the same bound
/// [`DocBuf`] enforces).
pub fn chunk_delta_into(
    base: &[u8],
    target: &[u8],
    scratch: &mut DiffScratch,
    out: &mut Vec<u8>,
) -> ChunkStats {
    assert!(
        base.len() <= u32::MAX as usize && target.len() <= u32::MAX as usize,
        "chunk delta documents are bounded by u32::MAX bytes"
    );
    let chunk = &mut scratch.chunk;
    chunk.base_index.index_from(&[], None, base);
    let common = Common::of(base, target);
    derive_level(
        LEVELS[0],
        &chunk.base_index.levels[0].chunks,
        base.len(),
        target,
        common,
        &mut chunk.target_chunks,
    );
    let walk = Walk {
        base,
        base_index: &chunk.base_index,
        target,
        proof: Some(common),
    };
    walk_and_serialize(walk, &chunk.target_chunks, &mut chunk.walk, out)
}

/// [`chunk_delta_into`] over documents whose indexes the caller keeps:
/// the walk takes the target's level-0 chunks and the base's chunks at
/// every level as given, and chunks only the unmatched target spans.
/// The output is byte-identical to [`chunk_delta_into`]'s.
///
/// `base_index` and `target_index` must be the indexes of `base` and
/// `target` ([`ChunkIndex::build`] or [`ChunkIndex::derive`]). Pass
/// `derived_from_base` only when `target_index` was derived from
/// exactly `base` and `base_index`: the walk then trusts the prefix and
/// suffix the derivation proved equal and skips the byte compare for the
/// chunks inside them. Otherwise every digest hit is compared.
pub fn chunk_delta_indexed(
    base: &[u8],
    base_index: &ChunkIndex,
    target: &[u8],
    target_index: &ChunkIndex,
    derived_from_base: bool,
    scratch: &mut DiffScratch,
    out: &mut Vec<u8>,
) -> ChunkStats {
    debug_assert!(base_index.doc_len == base.len() && target_index.doc_len == target.len());
    let proof = target_index
        .derived
        .filter(|c| derived_from_base && c.base_len == base.len() && c.target_len == target.len());
    let walk = Walk {
        base,
        base_index,
        target,
        proof,
    };
    walk_and_serialize(
        walk,
        &target_index.levels[0].chunks,
        &mut scratch.chunk.walk,
        out,
    )
}

/// Why a serialized chunk delta failed to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkDeltaError {
    /// The delta is shorter than its fixed header.
    Truncated,
    /// The leading version byte is not [`CHUNK_FORMAT_VERSION`].
    UnknownVersion,
    /// An operation tag is neither copy nor insert.
    UnknownOp,
    /// A copy references bytes outside the base document.
    CopyOutOfRange,
    /// The reconstructed output does not match the declared target length.
    LengthMismatch,
    /// A well-formed delta declares a target longer than the caller's
    /// `max_len`.
    TargetTooLarge,
}

impl std::fmt::Display for ChunkDeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            ChunkDeltaError::Truncated => "chunk delta truncated",
            ChunkDeltaError::UnknownVersion => "unknown chunk delta version",
            ChunkDeltaError::UnknownOp => "unknown chunk delta op",
            ChunkDeltaError::CopyOutOfRange => "chunk delta copy out of base range",
            ChunkDeltaError::LengthMismatch => "chunk delta output length mismatch",
            ChunkDeltaError::TargetTooLarge => "chunk delta target exceeds the output cap",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ChunkDeltaError {}

/// One operation of a serialized chunk delta, at its output offset.
#[derive(Debug, Clone, Copy)]
enum WireOp<'a> {
    /// Copy `len` base bytes from `base_off` to output offset `at`.
    Copy {
        at: usize,
        base_off: usize,
        len: usize,
    },
    /// Write literal bytes at output offset `at`.
    Insert { at: usize, literal: &'a [u8] },
}

impl WireOp<'_> {
    /// The output offset just past this operation.
    fn end(self) -> usize {
        match self {
            WireOp::Copy { at, len, .. } => at + len,
            WireOp::Insert { at, literal } => at + literal.len(),
        }
    }

    /// The base range of a copy that moves its bytes to another offset;
    /// `None` for an insert and for a copy that stays where it is.
    fn moves(self) -> Option<std::ops::Range<usize>> {
        match self {
            WireOp::Copy { at, base_off, len } if at != base_off => Some(base_off..base_off + len),
            _ => None,
        }
    }
}

/// The operations of a serialized chunk delta after its header, in
/// order, each at the output offset it writes. A truncated operation or
/// an unknown tag yields an error; a reader stops at the first one.
#[derive(Debug, Clone)]
struct WireOps<'a> {
    delta: &'a [u8],
    pos: usize,
    at: usize,
}

impl<'a> WireOps<'a> {
    /// Checks the header; returns the declared target length and the
    /// operations after it.
    fn parse(delta: &'a [u8]) -> Result<(usize, WireOps<'a>), ChunkDeltaError> {
        let (&version, _) = delta.split_first().ok_or(ChunkDeltaError::Truncated)?;
        let target_len = le_u32(delta, 1).ok_or(ChunkDeltaError::Truncated)?;
        if version != CHUNK_FORMAT_VERSION {
            return Err(ChunkDeltaError::UnknownVersion);
        }
        let ops = WireOps {
            delta,
            pos: 5,
            at: 0,
        };
        Ok((target_len, ops))
    }

    /// Parses the operation after tag byte `tag`.
    fn op(&mut self, tag: u8) -> Result<WireOp<'a>, ChunkDeltaError> {
        let at = self.at;
        let op = match tag {
            OP_COPY => {
                let (base_off, len) = le_u32(self.delta, self.pos)
                    .zip(le_u32(self.delta, self.pos + 4))
                    .ok_or(ChunkDeltaError::Truncated)?;
                self.pos += 8;
                WireOp::Copy { at, base_off, len }
            }
            OP_INSERT => {
                let len = le_u32(self.delta, self.pos).ok_or(ChunkDeltaError::Truncated)?;
                let from = self.pos + 4;
                let literal = self
                    .delta
                    .get(from..from + len)
                    .ok_or(ChunkDeltaError::Truncated)?;
                self.pos = from + len;
                WireOp::Insert { at, literal }
            }
            _ => return Err(ChunkDeltaError::UnknownOp),
        };
        self.at = op.end();
        Ok(op)
    }
}

impl<'a> Iterator for WireOps<'a> {
    type Item = Result<WireOp<'a>, ChunkDeltaError>;

    fn next(&mut self) -> Option<Self::Item> {
        let &tag = self.delta.get(self.pos)?;
        self.pos += 1;
        Some(self.op(tag))
    }
}

/// Applies a serialized chunk delta to `buf`, which holds the base, so
/// that `buf` then holds the target.
///
/// Three passes over the delta's operations:
///
/// 1. Validate everything before touching `buf`: the header, every tag,
///    every copy's range against the base, every literal's length, and
///    the lengths' sum against the declared target length, which must
///    then be at most `max_len`.
/// 2. Stash the source bytes of every copy that *moves*, whose base
///    offset differs from its output offset, in a buffer sized by the
///    moved bytes alone. A copy that stays where it is costs nothing,
///    so a small edit to a large base costs about the edit.
/// 3. Resize `buf` to the target length and write the moved copies and
///    the literals at their output offsets.
///
/// Every moved source is stashed before the first write, so moves,
/// swaps and duplicated blocks come out right whatever order the
/// operations take.
///
/// # Errors
///
/// Returns a [`ChunkDeltaError`] when the delta is truncated, carries an
/// unknown version or op tag, copies outside the base, reconstructs a
/// length other than the one declared in its header, or declares more
/// than `max_len` bytes. On error `buf` is unchanged and nothing was
/// allocated.
///
/// # Example
///
/// ```
/// use shadow_diff::{apply_chunk_delta_in_place, chunk_delta_into, DiffScratch};
///
/// let base = b"0123456789".repeat(1000);
/// let mut target = base.clone();
/// target[5000..5004].copy_from_slice(b"edit");
/// let mut delta = Vec::new();
/// chunk_delta_into(&base, &target, &mut DiffScratch::new(), &mut delta);
///
/// let mut buf = base.clone();
/// apply_chunk_delta_in_place(&mut buf, &delta, usize::MAX).expect("valid delta");
/// assert_eq!(buf, target);
/// ```
pub fn apply_chunk_delta_in_place(
    buf: &mut Vec<u8>,
    delta: &[u8],
    max_len: usize,
) -> Result<(), ChunkDeltaError> {
    let (target_len, ops) = WireOps::parse(delta)?;
    let (mut end, mut moved) = (0usize, 0usize);
    for op in ops.clone() {
        let op = op?;
        if let WireOp::Copy { base_off, len, .. } = op {
            if base_off + len > buf.len() {
                return Err(ChunkDeltaError::CopyOutOfRange);
            }
        }
        end = op.end();
        if end > target_len {
            return Err(ChunkDeltaError::LengthMismatch);
        }
        moved += op.moves().map_or(0, |src| src.len());
    }
    if end != target_len {
        return Err(ChunkDeltaError::LengthMismatch);
    }
    if target_len > max_len {
        return Err(ChunkDeltaError::TargetTooLarge);
    }
    // The delta is valid, so the passes below meet no error.
    let mut stash = Vec::with_capacity(moved);
    for src in ops.clone().flatten().filter_map(WireOp::moves) {
        stash.extend_from_slice(buf.get(src).unwrap_or_default());
    }
    buf.reserve_exact(target_len.saturating_sub(buf.len()));
    buf.resize(target_len, 0);
    let mut stashed = stash.as_slice();
    for op in ops.flatten() {
        let (at, src) = match op {
            WireOp::Insert { at, literal } => (at, literal),
            WireOp::Copy { at, len, .. } if op.moves().is_some() => {
                let (src, rest) = stashed.split_at_checked(len).unwrap_or_default();
                stashed = rest;
                (at, src)
            }
            WireOp::Copy { .. } => continue,
        };
        if let Some(dst) = buf.get_mut(at..at + src.len()) {
            dst.copy_from_slice(src);
        }
    }
    Ok(())
}

/// Reconstructs the target bytes from `base` and a serialized chunk
/// delta in a fresh buffer: [`apply_chunk_delta_in_place`] over a copy
/// of `base`, with no output cap beyond the delta's own bounds.
///
/// # Errors
///
/// As [`apply_chunk_delta_in_place`]: a [`ChunkDeltaError`] when the
/// delta is truncated, carries an unknown version or op tag, copies
/// outside the base, or reconstructs a length other than the one
/// declared in its header.
pub fn apply_chunk_delta(base: &[u8], delta: &[u8]) -> Result<Vec<u8>, ChunkDeltaError> {
    let mut out = Vec::with_capacity(base.len());
    out.extend_from_slice(base);
    apply_chunk_delta_in_place(&mut out, delta, usize::MAX)?;
    Ok(out)
}

/// The little-endian `u32` at `bytes[at..at + 4]`, if the slice is long
/// enough.
fn le_u32(bytes: &[u8], at: usize) -> Option<usize> {
    let field = bytes.get(at..at.checked_add(4)?)?;
    Some(u32::from_le_bytes(field.try_into().ok()?) as usize)
}

/// Byte window sniffed for NUL bytes when deciding whether a document is
/// binary.
pub const BINARY_SNIFF_WINDOW: usize = 8192;

/// Mean line length above which a document is considered line-hostile.
pub const AVG_LINE_CHUNK_THRESHOLD: usize = 256;

/// Single-line length above which a document is considered line-hostile.
pub const MAX_LINE_CHUNK_THRESHOLD: usize = 4096;

/// Cheap shape summary of a document, produced by [`classify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DocShape {
    /// Total bytes.
    pub byte_len: usize,
    /// Number of lines the line index sees.
    pub line_count: usize,
    /// Length of the longest line in bytes.
    pub max_line_len: usize,
    /// Whether a NUL byte appears in the first [`BINARY_SNIFF_WINDOW`]
    /// bytes (UTF-8 text never contains NUL).
    pub binary: bool,
}

impl DocShape {
    /// Whether the chunk codec should carry updates for a document of
    /// this shape: binary content, or lines long enough (on average or at
    /// the extreme) that the line differ degenerates.
    #[must_use]
    pub fn prefers_chunk(&self) -> bool {
        if self.binary {
            return true;
        }
        if self.line_count == 0 {
            return false;
        }
        self.byte_len / self.line_count > AVG_LINE_CHUNK_THRESHOLD
            || self.max_line_len > MAX_LINE_CHUNK_THRESHOLD
    }
}

/// Whether `bytes` is binary: a NUL byte in its first
/// [`BINARY_SNIFF_WINDOW`] bytes (UTF-8 text never contains NUL). A
/// binary document prefers the chunk codec whatever its lines, so a
/// caller that sniffs first can skip building its line index.
#[must_use]
pub fn sniff_binary(bytes: &[u8]) -> bool {
    bytes
        .get(..bytes.len().min(BINARY_SNIFF_WINDOW))
        .unwrap_or_default()
        .contains(&0)
}

/// Computes a document's [`DocShape`] in O(lines) using the line index
/// [`DocBuf`] already carries, plus one bounded NUL sniff.
#[must_use]
pub fn classify(doc: &DocBuf) -> DocShape {
    let binary = sniff_binary(doc.as_bytes());
    let mut max_line_len = 0usize;
    for i in 0..doc.line_count() {
        max_line_len = max_line_len.max(doc.line(i).len());
    }
    DocShape {
        byte_len: doc.byte_len(),
        line_count: doc.line_count(),
        max_line_len,
        binary,
    }
}

/// Decides the codec for an update from `base` to `target`: the chunk
/// codec whenever *either* side is line-hostile (a text file replaced by
/// a binary, or vice versa, must not route through the line differ).
#[must_use]
pub fn choose_chunk_codec(base: &DocBuf, target: &DocBuf) -> bool {
    classify(base).prefers_chunk() || classify(target).prefers_chunk()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(base: &[u8], target: &[u8]) -> (Vec<u8>, ChunkStats) {
        let mut scratch = DiffScratch::new();
        let mut out = Vec::new();
        let stats = chunk_delta_into(base, target, &mut scratch, &mut out);
        (out, stats)
    }

    fn roundtrip(base: &[u8], target: &[u8]) -> ChunkStats {
        let (wire, stats) = delta(base, target);
        let rebuilt = apply_chunk_delta(base, &wire).expect("apply");
        assert_eq!(rebuilt, target, "chunk delta must reproduce the target");
        assert_eq!(stats.wire_len, wire.len());
        assert_eq!(stats.copy_bytes + stats.insert_bytes, target.len());
        stats
    }

    /// Deterministic pseudo-random bytes (splitmix64 stream).
    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut state = seed;
        while out.len() < len {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let word = splitmix64(state);
            let take = (len - out.len()).min(8);
            out.extend_from_slice(&word.to_le_bytes()[..take]);
        }
        out
    }

    #[test]
    fn identical_documents_are_one_copy() {
        let doc = random_bytes(200_000, 1);
        let stats = roundtrip(&doc, &doc);
        assert_eq!(stats.ops, 1, "identical docs should merge into one copy");
        assert_eq!(stats.insert_bytes, 0);
    }

    #[test]
    fn empty_base_is_one_insert() {
        let doc = random_bytes(10_000, 2);
        let stats = roundtrip(&[], &doc);
        assert_eq!(stats.ops, 1);
        assert_eq!(stats.copy_bytes, 0);
    }

    #[test]
    fn empty_target_is_empty_delta() {
        let doc = random_bytes(10_000, 3);
        let stats = roundtrip(&doc, &[]);
        assert_eq!(stats.ops, 0);
        assert_eq!(stats.wire_len, 5);
    }

    #[test]
    fn small_edit_ships_small_delta() {
        let base = random_bytes(1_000_000, 4);
        let mut target = base.clone();
        // Overwrite 1 KB in the middle.
        let patch = random_bytes(1024, 5);
        target[500_000..501_024].copy_from_slice(&patch);
        let stats = roundtrip(&base, &target);
        assert!(
            stats.insert_bytes <= 16 * 1024,
            "1 KB edit shipped {} literal bytes",
            stats.insert_bytes
        );
        assert!(
            stats.wire_len <= 32 * 1024,
            "1 KB edit cost {} wire bytes",
            stats.wire_len
        );
    }

    #[test]
    fn insertion_resynchronizes() {
        let base = random_bytes(500_000, 6);
        let mut target = Vec::with_capacity(base.len() + 100);
        target.extend_from_slice(&base[..250_000]);
        target.extend_from_slice(&random_bytes(100, 7));
        target.extend_from_slice(&base[250_000..]);
        let stats = roundtrip(&base, &target);
        assert!(
            stats.insert_bytes <= 8 * 1024,
            "100-byte insertion shipped {} literal bytes",
            stats.insert_bytes
        );
    }

    #[test]
    fn refinement_beats_coarse_only() {
        // A 1-byte flip inside one coarse chunk: the fine pass must
        // recover most of the chunk as copies.
        let base = random_bytes(100_000, 8);
        let mut target = base.clone();
        target[50_000] ^= 0xff;
        let stats = roundtrip(&base, &target);
        assert!(
            stats.insert_bytes < LEVELS[0].max as usize,
            "fine refinement should beat one coarse chunk, shipped {}",
            stats.insert_bytes
        );
    }

    #[test]
    fn scratch_reuse_is_allocation_stable() {
        // Behavioral stand-in for the counting-allocator bench row: the
        // second run with warmed scratch must produce identical output.
        let base = random_bytes(300_000, 9);
        let mut target = base.clone();
        target[1000..2000].copy_from_slice(&random_bytes(1000, 10));
        let mut scratch = DiffScratch::new();
        let mut first = Vec::new();
        let mut second = Vec::new();
        chunk_delta_into(&base, &target, &mut scratch, &mut first);
        chunk_delta_into(&base, &target, &mut scratch, &mut second);
        assert_eq!(first, second);
    }

    #[test]
    fn boundaries_respect_min_and_max() {
        let doc = random_bytes(1_000_000, 11);
        let mut chunks = Vec::new();
        chunk_spans(&doc, 0, doc.len(), LEVELS[0], &mut chunks);
        let total: usize = chunks.iter().map(|c| c.len as usize).sum();
        assert_eq!(total, doc.len());
        for (i, c) in chunks.iter().enumerate() {
            assert!(c.len <= LEVELS[0].max);
            if i + 1 < chunks.len() {
                assert!(c.len >= LEVELS[0].min.min(doc.len() as u32));
            }
        }
    }

    #[test]
    fn apply_rejects_malformed_deltas() {
        assert_eq!(
            apply_chunk_delta(b"", b"\x01"),
            Err(ChunkDeltaError::Truncated)
        );
        assert_eq!(
            apply_chunk_delta(b"", &[9, 0, 0, 0, 0]),
            Err(ChunkDeltaError::UnknownVersion)
        );
        let bad_op = [CHUNK_FORMAT_VERSION, 0, 0, 0, 0, 7];
        assert_eq!(
            apply_chunk_delta(b"", &bad_op),
            Err(ChunkDeltaError::UnknownOp)
        );
        // Copy past the end of a 4-byte base.
        let mut copy_oob = vec![CHUNK_FORMAT_VERSION, 8, 0, 0, 0, OP_COPY];
        copy_oob.extend_from_slice(&2u32.to_le_bytes());
        copy_oob.extend_from_slice(&8u32.to_le_bytes());
        assert_eq!(
            apply_chunk_delta(b"abcd", &copy_oob),
            Err(ChunkDeltaError::CopyOutOfRange)
        );
        // Declared length 2, inserted 4.
        let mut too_long = vec![CHUNK_FORMAT_VERSION, 2, 0, 0, 0, OP_INSERT];
        too_long.extend_from_slice(&4u32.to_le_bytes());
        too_long.extend_from_slice(b"abcd");
        assert_eq!(
            apply_chunk_delta(b"", &too_long),
            Err(ChunkDeltaError::LengthMismatch)
        );
        // Declared length 4, inserted 2.
        let mut too_short = vec![CHUNK_FORMAT_VERSION, 4, 0, 0, 0, OP_INSERT];
        too_short.extend_from_slice(&2u32.to_le_bytes());
        too_short.extend_from_slice(b"ab");
        assert_eq!(
            apply_chunk_delta(b"", &too_short),
            Err(ChunkDeltaError::LengthMismatch)
        );
    }

    #[test]
    fn forged_header_cannot_force_giant_reserve() {
        // Huge declared target with no ops: validation fails before any
        // output is sized.
        let mut forged = vec![CHUNK_FORMAT_VERSION];
        forged.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            apply_chunk_delta(b"", &forged),
            Err(ChunkDeltaError::LengthMismatch)
        );
    }

    /// One hand-built op: a copy `(OP_COPY, base_off, len)`, or an insert
    /// `(OP_INSERT, len, _)` of `len` bytes of `b'*'`.
    type HandOp = (u8, u32, u32);

    /// A delta of [`HandOp`]s declaring `target_len` bytes.
    fn hand_delta(target_len: u32, ops: &[HandOp]) -> Vec<u8> {
        let mut delta = vec![CHUNK_FORMAT_VERSION];
        delta.extend_from_slice(&target_len.to_le_bytes());
        for &(tag, a, b) in ops {
            delta.push(tag);
            delta.extend_from_slice(&a.to_le_bytes());
            if tag == OP_COPY {
                delta.extend_from_slice(&b.to_le_bytes());
            } else {
                delta.resize(delta.len() + a as usize, b'*');
            }
        }
        delta
    }

    #[test]
    fn oversized_target_is_refused_before_allocating() {
        let base = random_bytes(4 << 20, 13);
        let mut buf = base.clone();
        // ~100 bytes of copies declaring ~4 GiB: the lengths do not add
        // up, and validation says so before anything is sized.
        let copies = [(OP_COPY, 0, 4 << 20); 11];
        let forged = hand_delta(u32::MAX - 7, &copies);
        assert!(forged.len() <= 110);
        assert_eq!(
            apply_chunk_delta_in_place(&mut buf, &forged, usize::MAX),
            Err(ChunkDeltaError::LengthMismatch)
        );
        assert!(buf == base, "a refused delta must leave the base");
        // Well formed, but 44 MiB against a 16 MiB cap.
        let honest = hand_delta(11 << 22, &copies);
        assert_eq!(
            apply_chunk_delta_in_place(&mut buf, &honest, 16 << 20),
            Err(ChunkDeltaError::TargetTooLarge)
        );
        assert!(buf == base, "a refused delta must leave the base");
        assert_eq!(buf.capacity(), base.len(), "nothing may be reserved");
    }

    #[test]
    fn in_place_apply_handles_moves_swaps_and_duplicates() {
        let base = b"AAAABBBBCCCCDDDD".to_vec();
        let cases: [(&[HandOp], &[u8]); 5] = [
            // Swap the halves.
            (&[(OP_COPY, 8, 8), (OP_COPY, 0, 8)], b"CCCCDDDDAAAABBBB"),
            // Insert in front, shifting the whole base over itself.
            (
                &[(OP_INSERT, 2, 0), (OP_COPY, 0, 16)],
                b"**AAAABBBBCCCCDDDD",
            ),
            // Shift left, dropping the head.
            (&[(OP_COPY, 4, 12)], b"BBBBCCCCDDDD"),
            // Duplicate one block over another and keep a block in place.
            (
                &[(OP_COPY, 12, 4), (OP_COPY, 4, 4), (OP_COPY, 12, 4)],
                b"DDDDBBBBDDDD",
            ),
            // Empty target.
            (&[], b""),
        ];
        for (ops, want) in cases {
            let delta = hand_delta(want.len() as u32, ops);
            let mut buf = base.clone();
            apply_chunk_delta_in_place(&mut buf, &delta, usize::MAX).expect("valid delta");
            assert_eq!(buf, want);
            assert_eq!(apply_chunk_delta(&base, &delta).expect("valid delta"), want);
        }
    }

    /// Rewrites bytes 8..24 of `doc` so every chunk that starts at offset
    /// 0 keeps its digest: `fnv_chunk` folds 8-byte words as
    /// `h = (h ^ w) * P`, so flipping word 1 by `flip` is undone by a
    /// matching change to word 2.
    fn collide_head(doc: &mut [u8], flip: u64) {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let word = |doc: &[u8], i: usize| {
            u64::from_le_bytes(doc[8 * i..8 * i + 8].try_into().expect("8 bytes"))
        };
        let h1 = (FNV_OFFSET ^ word(doc, 0)).wrapping_mul(FNV_PRIME);
        let (w1, w2) = (word(doc, 1), word(doc, 2));
        let w1_new = w1 ^ flip;
        let w2_new = w2 ^ (h1 ^ w1).wrapping_mul(FNV_PRIME) ^ (h1 ^ w1_new).wrapping_mul(FNV_PRIME);
        doc[8..16].copy_from_slice(&w1_new.to_le_bytes());
        doc[16..24].copy_from_slice(&w2_new.to_le_bytes());
    }

    #[test]
    fn a_walk_from_another_base_compares_every_hit() {
        // `other` differs from `base` in its first bytes but chunks to
        // the same index, digests included, so only a byte compare can
        // tell their first chunks apart.
        let base = random_bytes(200_000, 21);
        let base_idx = ChunkIndex::build(&base);
        let other = (1..)
            .map(|flip| {
                let mut other = base.clone();
                collide_head(&mut other, flip);
                other
            })
            .find(|other| ChunkIndex::build(other) == base_idx)
            .expect("some flip keeps every cut");
        assert_ne!(other, base);
        assert_eq!(fnv_chunk(&other[..64]), fnv_chunk(&base[..64]));

        // The target shares its whole head with `base`, whose proof
        // covers the first chunk.
        let mut target = base.clone();
        target[150_000..150_100].fill(7);
        let target_idx = ChunkIndex::derive(&base, &base_idx, &target);
        assert!(target_idx.derived.is_some_and(|c| c.prefix >= 150_000));

        let mut scratch = DiffScratch::new();
        let (mut from_other, mut plain) = (Vec::new(), Vec::new());
        chunk_delta_indexed(
            &other,
            &base_idx,
            &target,
            &target_idx,
            false,
            &mut scratch,
            &mut from_other,
        );
        chunk_delta_into(&other, &target, &mut scratch, &mut plain);
        assert_eq!(from_other, plain);
        assert_eq!(apply_chunk_delta(&other, &from_other), Ok(target.clone()));

        // Trusting the proof here would copy `other`'s different head:
        // a debug build stops at the walk's assertion, a release build
        // would ship a delta that does not rebuild the target.
        let trusted = std::panic::catch_unwind(|| {
            let mut out = Vec::new();
            chunk_delta_indexed(
                &other,
                &base_idx,
                &target,
                &target_idx,
                true,
                &mut DiffScratch::new(),
                &mut out,
            );
            out
        });
        assert!(!trusted.is_ok_and(|delta| apply_chunk_delta(&other, &delta) == Ok(target)));
    }

    #[test]
    fn proof_skips_only_the_same_chunk() {
        let common = Common::of(b"abcXYZdef", b"abcQdef");
        assert_eq!((common.prefix, common.suffix), (3, 3));
        let rec = |off, len| ChunkRec { off, len, hash: 0 };
        // Same offset inside the prefix.
        assert!(common.proves(rec(0, 3), rec(0, 3)));
        assert!(!common.proves(rec(1, 3), rec(1, 3)), "crosses the edit");
        assert!(!common.proves(rec(0, 2), rec(0, 3)), "different lengths");
        // Shifted offset inside the suffix: target 4.. is base 6...
        assert!(common.proves(rec(6, 3), rec(4, 3)));
        assert!(!common.proves(rec(4, 3), rec(4, 3)), "unshifted");
        assert!(!common.proves(rec(0, 3), rec(4, 3)), "another chunk");
    }

    #[test]
    fn classifier_flags_binary_and_long_lines() {
        let text = DocBuf::from_bytes(b"fn main() {\n    let x = 1;\n}\n".to_vec());
        assert!(!classify(&text).prefers_chunk());

        let binary = DocBuf::from_bytes(random_bytes(4096, 12));
        assert!(
            classify(&binary).prefers_chunk(),
            "random bytes contain NUL or huge lines"
        );

        let single_line = DocBuf::from_bytes(vec![b'x'; 100_000]);
        let shape = classify(&single_line);
        assert!(shape.prefers_chunk());
        assert_eq!(shape.line_count, 1);

        // Either side being line-hostile selects the chunk codec.
        assert!(choose_chunk_codec(&text, &single_line));
        assert!(choose_chunk_codec(&single_line, &text));
        assert!(!choose_chunk_codec(&text, &text));
    }

    #[test]
    fn fnv_chunk_differs_on_tail_and_length() {
        assert_ne!(fnv_chunk(b"abcdefgh1"), fnv_chunk(b"abcdefgh2"));
        assert_ne!(fnv_chunk(b"abcdefgh"), fnv_chunk(b"abcdefg"));
        assert_eq!(fnv_chunk(b"abc"), fnv_chunk(b"abc"));
    }
}

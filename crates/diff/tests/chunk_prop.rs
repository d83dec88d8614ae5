//! Property tests for the chunk codec: for every pair of byte blobs —
//! random binary data, multi-megabyte single-line strings, structured
//! splice edits — `apply_chunk_delta(base, chunk_delta_into(base, t))`
//! must reproduce `t` exactly, and `apply_chunk_delta` must never panic
//! whatever delta bytes it is fed. The classifier is pinned on the
//! workload generator's text corpora: ordinary program text must keep
//! routing through the line differ. A chunk index derived from a base's
//! index must equal the target's index built from scratch, and the delta
//! walked over indexes must equal [`chunk_delta_into`] byte for byte,
//! whether or not it trusts the derivation's proof. Applying a delta in
//! place must give what the fresh-buffer decoder gives, and a delta it
//! refuses must leave the buffer as it was.

use proptest::prelude::*;
use shadow_diff::{
    apply_chunk_delta, apply_chunk_delta_in_place, choose_chunk_codec, chunk_delta_indexed,
    chunk_delta_into, classify, ChunkIndex, DiffScratch, DocBuf, CHUNK_FORMAT_VERSION,
};
use shadow_workload::{generate_file, EditModel, FileSpec};

/// Round-trips one pair through the chunk codec and returns the wire
/// delta length (callers assert proportionality where it is meaningful).
fn round_trip(base: &[u8], target: &[u8], scratch: &mut DiffScratch) -> usize {
    let mut delta = Vec::new();
    chunk_delta_into(base, target, scratch, &mut delta);
    let rebuilt = apply_chunk_delta(base, &delta).expect("self-produced delta must apply");
    assert_eq!(rebuilt, target, "chunk delta did not reproduce the target");
    assert_in_place_matches(base, &delta);
    delta.len()
}

/// A splice edit: delete `del` bytes at a position and insert `insert`.
#[derive(Debug, Clone)]
struct Splice {
    at: usize,
    del: usize,
    insert: Vec<u8>,
}

fn arb_splices() -> impl Strategy<Value = Vec<Splice>> {
    prop::collection::vec(
        (
            any::<usize>(),
            0usize..512,
            prop::collection::vec(any::<u8>(), 0..512),
        )
            .prop_map(|(at, del, insert)| Splice { at, del, insert }),
        0..6,
    )
}

/// Applies splices to `base`, clamping positions into range.
fn apply_splices(base: &[u8], splices: &[Splice]) -> Vec<u8> {
    let mut out = base.to_vec();
    for s in splices {
        let at = if out.is_empty() {
            0
        } else {
            s.at % (out.len() + 1)
        };
        let end = (at + s.del).min(out.len());
        out.splice(at..end, s.insert.iter().copied());
    }
    out
}

/// Deterministic pseudo-random bytes (xorshift stream).
fn blob(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 56) as u8
        })
        .collect()
}

/// A base document of one of four shapes: random bytes, one zero run,
/// a repeated block (every chunk has duplicates), or zeros with a few
/// random bytes sprinkled in.
fn arb_base() -> impl Strategy<Value = Vec<u8>> {
    (0u8..4, 0usize..200_000, any::<u64>(), 1usize..20_000).prop_map(|(shape, len, seed, block)| {
        match shape {
            0 => blob(len, seed),
            1 => vec![0; len],
            2 => blob(block, seed).repeat(len / block + 1)[..len].to_vec(),
            _ => {
                let mut doc = vec![0; len];
                for (i, b) in blob(len / 4096 + 1, seed).into_iter().enumerate() {
                    if let Some(slot) = doc.get_mut(i * 4093 % len.max(1)) {
                        *slot = b;
                    }
                }
                doc
            }
        }
    })
}

/// One edit turning a base into a target.
#[derive(Debug, Clone)]
enum Edit {
    /// Splices anywhere: overwrites, inserts (`del == 0`) and deletes
    /// (empty `insert`).
    Splices(Vec<Splice>),
    /// Keep only this fraction (in 1/256ths) of the base.
    Truncate(u8),
    /// Append bytes; zero bytes when `zeros`, so a zero-run base stays
    /// one run.
    Append { bytes: Vec<u8>, zeros: bool },
    /// Flip one byte this far from the end (inside the last chunk).
    TailFlip(usize),
    /// Replace the whole document.
    Replace(Vec<u8>),
    /// Swap two adjacent blocks of `len` bytes starting at `at`.
    Swap { at: usize, len: usize },
    /// Insert a copy of `len` bytes from `from` at `to`.
    Duplicate { from: usize, len: usize, to: usize },
}

impl Edit {
    fn apply(&self, base: &[u8]) -> Vec<u8> {
        match self {
            Edit::Splices(splices) => apply_splices(base, splices),
            Edit::Truncate(keep) => base[..base.len() * usize::from(*keep) / 256].to_vec(),
            Edit::Append { bytes, zeros } => {
                let mut out = base.to_vec();
                if *zeros {
                    out.resize(base.len() + bytes.len(), 0);
                } else {
                    out.extend_from_slice(bytes);
                }
                out
            }
            Edit::TailFlip(back) => {
                let mut out = base.to_vec();
                if !out.is_empty() {
                    let at = out.len() - 1 - back % out.len();
                    out[at] ^= 0x5a;
                }
                out
            }
            Edit::Replace(doc) => doc.clone(),
            Edit::Swap { at, len } => {
                let mut out = base.to_vec();
                let len = (*len).min(out.len() / 2);
                let at = at % (out.len() - 2 * len + 1);
                out[at..at + 2 * len].rotate_left(len);
                out
            }
            Edit::Duplicate { from, len, to } => {
                let mut out = base.to_vec();
                let len = (*len).min(out.len());
                let from = from % (out.len() - len + 1);
                let block = base[from..from + len].to_vec();
                out.splice(to % (out.len() + 1)..to % (out.len() + 1), block);
                out
            }
        }
    }
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        4 => arb_splices().prop_map(Edit::Splices),
        1 => any::<u8>().prop_map(Edit::Truncate),
        2 => (prop::collection::vec(any::<u8>(), 0..9000), any::<bool>())
            .prop_map(|(bytes, zeros)| Edit::Append { bytes, zeros }),
        1 => (0usize..3000).prop_map(Edit::TailFlip),
        1 => prop::collection::vec(any::<u8>(), 0..3000).prop_map(Edit::Replace),
        1 => (any::<usize>(), 0usize..70_000).prop_map(|(at, len)| Edit::Swap { at, len }),
        1 => (any::<usize>(), 0usize..70_000, any::<usize>())
            .prop_map(|(from, len, to)| Edit::Duplicate { from, len, to }),
    ]
}

/// Serializes a hand-built delta: `Ok((base_off, len))` copies,
/// `Err(bytes)` inserts. The declared length is the ops' sum.
fn hand_delta(ops: &[Result<(u32, u32), Vec<u8>>]) -> Vec<u8> {
    let total: usize = ops
        .iter()
        .map(|op| op.as_ref().map_or_else(Vec::len, |&(_, len)| len as usize))
        .sum();
    let mut delta = vec![CHUNK_FORMAT_VERSION];
    delta.extend_from_slice(&(total as u32).to_le_bytes());
    for op in ops {
        match op {
            Ok((off, len)) => {
                delta.push(0);
                delta.extend_from_slice(&off.to_le_bytes());
                delta.extend_from_slice(&len.to_le_bytes());
            }
            Err(bytes) => {
                delta.push(1);
                delta.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                delta.extend_from_slice(bytes);
            }
        }
    }
    delta
}

/// Raw ops for [`crossing_ops`]: a copy's two ends or an insert's bytes.
fn arb_raw_ops() -> impl Strategy<Value = Vec<(bool, u32, u32, Vec<u8>)>> {
    prop::collection::vec(
        (
            prop::sample::select(vec![true, true, true, false]),
            any::<u32>(),
            any::<u32>(),
            prop::collection::vec(any::<u8>(), 0..64),
        ),
        0..12,
    )
}

/// Copies anywhere in a base of `base_len` bytes, in any order, so their
/// sources cross each other's outputs, mixed with small inserts.
fn crossing_ops(
    base_len: usize,
    raw: Vec<(bool, u32, u32, Vec<u8>)>,
) -> Vec<Result<(u32, u32), Vec<u8>>> {
    let end = |x: u32| (x as usize % (base_len + 1)) as u32;
    raw.into_iter()
        .map(|(copy, a, b, bytes)| {
            let (lo, hi) = (end(a).min(end(b)), end(a).max(end(b)));
            if copy {
                Ok((lo, hi - lo))
            } else {
                Err(bytes)
            }
        })
        .collect()
}

/// Applies `delta` both ways and checks that they agree: on the result,
/// or on the error, with the in-place buffer then left as it was.
fn assert_in_place_matches(base: &[u8], delta: &[u8]) {
    let fresh = apply_chunk_delta(base, delta);
    let mut buf = base.to_vec();
    let in_place = apply_chunk_delta_in_place(&mut buf, delta, usize::MAX);
    match fresh {
        Ok(want) => {
            assert_eq!(in_place, Ok(()));
            assert!(buf == want, "in-place result differs from the fresh buffer");
        }
        Err(e) => {
            assert_eq!(in_place, Err(e));
            assert!(buf == base, "a refused delta changed the buffer");
        }
    }
}

/// Checks that deriving `target`'s index from `base`'s equals building
/// it, and that the indexed delta equals the plain one.
fn assert_derive_exact(base: &[u8], target: &[u8], scratch: &mut DiffScratch) {
    let base_idx = ChunkIndex::build(base);
    let derived = ChunkIndex::derive(base, &base_idx, target);
    assert_eq!(
        derived,
        ChunkIndex::build(target),
        "derived index differs from a from-scratch chunking \
         (base {} bytes, target {} bytes)",
        base.len(),
        target.len()
    );
    let (mut indexed, mut plain) = (Vec::new(), Vec::new());
    chunk_delta_into(base, target, scratch, &mut plain);
    for trust_proof in [true, false] {
        chunk_delta_indexed(
            base,
            &base_idx,
            target,
            &derived,
            trust_proof,
            scratch,
            &mut indexed,
        );
        assert_eq!(
            indexed, plain,
            "indexed delta differs from chunk_delta_into (proof trusted: {trust_proof})"
        );
    }
    assert_in_place_matches(base, &plain);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `derive(base, build(base), t) == build(t)` at every level, over
    /// every edit shape and base shape, and the indexed walk emits the
    /// same bytes as `chunk_delta_into`.
    #[test]
    fn derived_index_equals_a_fresh_chunking(base in arb_base(), edit in arb_edit()) {
        let target = edit.apply(&base);
        let mut scratch = DiffScratch::new();
        assert_derive_exact(&base, &target, &mut scratch);
        // Derivation is symmetric in which side is the base.
        assert_derive_exact(&target, &base, &mut scratch);
    }

    /// Fully arbitrary binary pairs — no shared structure at all.
    #[test]
    fn chunk_apply_reproduces_arbitrary_binary_pairs(
        base in prop::collection::vec(any::<u8>(), 0..4096),
        target in prop::collection::vec(any::<u8>(), 0..4096),
    ) {
        let mut scratch = DiffScratch::new();
        round_trip(&base, &target, &mut scratch);
    }

    /// The realistic shape: a binary base plus a handful of splice edits.
    /// One scratch is reused across every case, so arena reuse cannot
    /// leak state between unrelated documents.
    #[test]
    fn chunk_apply_reproduces_spliced_binary_edits(
        base in prop::collection::vec(any::<u8>(), 0..65536),
        splices in arb_splices(),
    ) {
        let mut scratch = DiffScratch::new();
        let target = apply_splices(&base, &splices);
        round_trip(&base, &target, &mut scratch);
        // Same pair again through the now-warm scratch: must still agree.
        round_trip(&base, &target, &mut scratch);
    }

    /// Mixed edits on *text* still round-trip through the chunk codec —
    /// codec choice is a bandwidth decision, never a correctness one.
    #[test]
    fn chunk_apply_reproduces_text_edits(
        seed in 0u64..64,
        pct in 0u32..30,
    ) {
        let base = generate_file(&FileSpec::new(20_000, seed));
        let target =
            EditModel::fraction(f64::from(pct) / 100.0, seed.wrapping_add(1)).apply(&base);
        let mut scratch = DiffScratch::new();
        round_trip(&base, &target, &mut scratch);
    }

    /// Hostile input: arbitrary delta bytes against an arbitrary base
    /// must produce `Ok` or `Err`, never a panic or runaway allocation.
    #[test]
    fn apply_never_panics_on_arbitrary_delta(
        base in prop::collection::vec(any::<u8>(), 0..2048),
        delta in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        let _ = apply_chunk_delta(&base, &delta);
    }

    /// Byte soup after a valid header, so the op parser is reached: the
    /// in-place decoder never panics, agrees with the fresh-buffer one,
    /// and leaves `buf` byte-identical whenever it refuses.
    #[test]
    fn in_place_apply_survives_byte_soup(
        base in prop::collection::vec(any::<u8>(), 0..2048),
        target_len in 0u32..4096,
        soup in prop::collection::vec(prop_oneof![3 => 0u8..2, 1 => any::<u8>()], 0..256),
        max_len in prop_oneof![Just(usize::MAX), 0usize..4096],
    ) {
        let mut delta = vec![CHUNK_FORMAT_VERSION];
        delta.extend_from_slice(&target_len.to_le_bytes());
        delta.extend_from_slice(&soup);
        assert_in_place_matches(&base, &delta);
        let mut buf = base.clone();
        if apply_chunk_delta_in_place(&mut buf, &delta, max_len).is_err() {
            prop_assert!(buf == base);
        }
    }

    /// Hand-built deltas whose copies cross: sources overlap other ops'
    /// outputs, blocks swap and repeat. In place equals a fresh buffer,
    /// which equals concatenating the ops.
    #[test]
    fn in_place_apply_equals_fresh_on_crossing_copies(
        base in prop::collection::vec(any::<u8>(), 0..4096),
        raw in arb_raw_ops(),
    ) {
        let ops = crossing_ops(base.len(), raw);
        let delta = hand_delta(&ops);
        let mut want = Vec::new();
        for op in &ops {
            match op {
                Ok((off, len)) => want.extend_from_slice(&base[*off as usize..(off + len) as usize]),
                Err(bytes) => want.extend_from_slice(bytes),
            }
        }
        prop_assert_eq!(apply_chunk_delta(&base, &delta), Ok(want));
        assert_in_place_matches(&base, &delta);
    }
}

/// Multi-megabyte single-line strings: the line differ's worst case. A
/// small splice must round-trip and the wire delta must stay within 10x
/// of the edit, not within 10x of the file.
#[test]
fn multi_mb_single_line_round_trips_proportionally() {
    let len = 3 * 1024 * 1024;
    let mut base = Vec::with_capacity(len);
    let mut state = 0x5eed_u64 | 1;
    for _ in 0..len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        base.push(b' ' + (state >> 56) as u8 % 94); // printable, never \n
    }
    let splices = [Splice {
        at: len / 3,
        del: 512,
        insert: vec![b'!'; 1024],
    }];
    let target = apply_splices(&base, &splices);
    let mut scratch = DiffScratch::new();
    let wire = round_trip(&base, &target, &mut scratch);
    assert!(
        wire <= 10 * 1024,
        "3 MB single-line splice shipped {wire} bytes (> 10x the edit)"
    );
}

/// The classifier must keep ordinary program text — every size and seed
/// the workload generator produces for the paper's experiments — on the
/// line differ, so text latency and wire format are unchanged.
#[test]
fn classifier_pins_line_codec_on_text_corpora() {
    for seed in [1, 7, 42, 99] {
        for size in [1_000usize, 20_000, 200_000] {
            let base = generate_file(&FileSpec::new(size, seed));
            let edited = EditModel::fraction(0.05, seed + 1).apply(&base);
            let base_doc = DocBuf::from_bytes(base);
            let edited_doc = DocBuf::from_bytes(edited);
            assert!(
                !classify(&base_doc).prefers_chunk(),
                "text corpus (size {size}, seed {seed}) misclassified as chunk"
            );
            assert!(
                !choose_chunk_codec(&base_doc, &edited_doc),
                "text edit pair (size {size}, seed {seed}) must stay on line diff"
            );
        }
    }
}

/// And the inverse pins: the shapes the chunk codec exists for actually
/// select it.
#[test]
fn classifier_selects_chunk_for_binary_and_single_line() {
    let binary = DocBuf::from_bytes([0u8, 1, 2, 3, 0, 5].repeat(64));
    assert!(
        classify(&binary).prefers_chunk(),
        "NUL-bearing blob must chunk"
    );
    let single_line = DocBuf::from_bytes(vec![b'x'; 64 * 1024]);
    assert!(
        classify(&single_line).prefers_chunk(),
        "64 KB single-line file must chunk"
    );
    let text = DocBuf::from_bytes(b"short\nlines\nof\ntext\n".to_vec());
    assert!(
        choose_chunk_codec(&text, &binary),
        "text->binary transition must chunk"
    );
}

/// The edges the property test reaches only by chance: empty sides,
/// identical documents, and edits exactly at the first and last byte.
#[test]
fn derived_index_is_exact_at_the_edges() {
    let doc = blob(150_000, 0xfeed);
    let mut scratch = DiffScratch::new();
    assert_derive_exact(&[], &[], &mut scratch);
    assert_derive_exact(&[], &doc, &mut scratch);
    assert_derive_exact(&doc, &[], &mut scratch);
    assert_derive_exact(&doc, &doc, &mut scratch);
    for at in [0, doc.len() - 1] {
        let mut edited = doc.clone();
        edited[at] ^= 1;
        assert_derive_exact(&doc, &edited, &mut scratch);
    }
    let mut longer = doc.clone();
    longer.push(7);
    assert_derive_exact(&doc, &longer, &mut scratch);
    assert_derive_exact(&doc, &doc[1..], &mut scratch);
    assert_derive_exact(&doc, &doc[..doc.len() - 1], &mut scratch);
}

/// Bases whose chunks repeat: every target chunk has several digest
/// hits, and the proof may cover a later one in probe order than the
/// one a compare accepts first. Trusting the proof must not change which
/// one the walk picks.
#[test]
fn proof_walk_matches_the_plain_codec_on_repeated_chunks() {
    let mut scratch = DiffScratch::new();
    for (block, seed) in [(3000, 1u64), (9000, 2), (20_000, 3), (70_000, 4)] {
        let base = blob(block, seed).repeat(300_000 / block + 1);
        let mid = base.len() / 2;
        let mut overwrite = base.clone();
        overwrite[mid..mid + 1024].fill(0x11);
        let mut inserted = base.clone();
        inserted.splice(mid..mid, blob(700, seed + 10));
        let mut deleted = base.clone();
        deleted.drain(mid..mid + block / 2);
        for target in [overwrite, inserted, deleted, base.clone()] {
            assert_derive_exact(&base, &target, &mut scratch);
            assert_derive_exact(&target, &base, &mut scratch);
        }
    }
}

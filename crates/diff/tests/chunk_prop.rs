//! Property tests for the chunk codec: for every pair of byte blobs —
//! random binary data, multi-megabyte single-line strings, structured
//! splice edits — `apply_chunk_delta(base, chunk_delta_into(base, t))`
//! must reproduce `t` exactly, and `apply_chunk_delta` must never panic
//! whatever delta bytes it is fed. The classifier is pinned on the
//! workload generator's text corpora: ordinary program text must keep
//! routing through the line differ. A chunk index derived from a base's
//! index must equal the target's index built from scratch, and the delta
//! walked over indexes must equal [`chunk_delta_into`] byte for byte.

use proptest::prelude::*;
use shadow_diff::{
    apply_chunk_delta, choose_chunk_codec, chunk_delta_indexed, chunk_delta_into, classify,
    ChunkIndex, DiffScratch, DocBuf,
};
use shadow_workload::{generate_file, EditModel, FileSpec};

/// Round-trips one pair through the chunk codec and returns the wire
/// delta length (callers assert proportionality where it is meaningful).
fn round_trip(base: &[u8], target: &[u8], scratch: &mut DiffScratch) -> usize {
    let mut delta = Vec::new();
    chunk_delta_into(base, target, scratch, &mut delta);
    let rebuilt = apply_chunk_delta(base, &delta).expect("self-produced delta must apply");
    assert_eq!(rebuilt, target, "chunk delta did not reproduce the target");
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
    ]
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
    chunk_delta_indexed(base, &base_idx, target, &derived, scratch, &mut indexed);
    chunk_delta_into(base, target, scratch, &mut plain);
    assert_eq!(
        indexed, plain,
        "indexed delta differs from chunk_delta_into"
    );
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

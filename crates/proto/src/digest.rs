//! Content digests for end-to-end update verification.

use std::fmt;

/// A 64-bit FNV-1a digest of file content.
///
/// Used to verify that a delta applied at the server reconstructs exactly
/// the version the client holds; a mismatch makes the server fall back to
/// requesting a full transfer (the cache is *best effort*, §5.1). This is an
/// integrity check against bugs and version skew, **not** a cryptographic
/// authenticator.
///
/// **Format version 3** (protocol version 4): 32-byte blocks fold into
/// four independent FNV lanes, one 8-byte little-endian word each, so
/// four multiply chains run side by side instead of one. The lanes then
/// fold into one hash, and the words and bytes after the last whole
/// block, the length and a final avalanche follow as in format 2, which
/// folded every word into one lane. Each round now ends in a rotation,
/// so flips of two words' top bits no longer cancel out. Every digest
/// value changes with the format, so the change is versioned
/// explicitly, as format 2's was: the
/// [`PROTOCOL_VERSION`](crate::PROTOCOL_VERSION) bump and the durable
/// store's segment magic mean peers never compare digests across
/// formats, and older journals are discarded at recovery (the cache is
/// best effort — the client simply re-sends full content once).
///
/// # Example
///
/// ```
/// use shadow_proto::ContentDigest;
///
/// let d1 = ContentDigest::of(b"hello");
/// let d2 = ContentDigest::of(b"hello");
/// let d3 = ContentDigest::of(b"hellp");
/// assert_eq!(d1, d2);
/// assert_ne!(d1, d3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ContentDigest(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Where the four block lanes start: the FNV offset, made distinct per
/// lane so that no two lanes hash a word the same way.
const LANE_OFFSETS: [u64; 4] = [FNV_OFFSET, FNV_OFFSET ^ 1, FNV_OFFSET ^ 2, FNV_OFFSET ^ 3];

/// One FNV-1a round over a 64-bit word, then a rotation.
///
/// A product's top bit depends on every bit below it, but no bit above
/// it: without the rotation a flip of a word's top bit changes only the
/// hash's top bit, round after round, so two such flips cancel. Rotating
/// by 31 brings the high half down, and the next multiply spreads it.
fn fnv_round(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME).rotate_left(31)
}

impl ContentDigest {
    /// Digests a byte slice in four steps:
    ///
    /// 1. each 32-byte block's four little-endian words go one to each
    ///    of four lanes of FNV-1a rounds (the lanes start from distinct
    ///    offsets, and each round ends in a rotation);
    /// 2. the lanes fold, in order, into one hash;
    /// 3. the remaining whole words, then the tail bytes packed into one
    ///    final word, fold into the same hash;
    /// 4. the length is mixed in, so documents that are prefixes of
    ///    each other differ, and a final avalanche spreads short inputs
    ///    across all 64 bits.
    pub fn of(bytes: &[u8]) -> Self {
        let mut lanes = LANE_OFFSETS;
        let (blocks, rest) = bytes.as_chunks::<32>();
        for block in blocks {
            let (words, _) = block.as_chunks::<8>();
            for (lane, word) in lanes.iter_mut().zip(words) {
                *lane = fnv_round(*lane, u64::from_le_bytes(*word));
            }
        }
        let mut h = lanes.into_iter().fold(FNV_OFFSET, fnv_round);
        let (words, tail) = rest.as_chunks::<8>();
        for word in words {
            h = fnv_round(h, u64::from_le_bytes(*word));
        }
        let mut last = 0u64;
        for (i, &b) in tail.iter().enumerate() {
            last |= u64::from(b) << (8 * i);
        }
        h = fnv_round(h, last);
        h ^= bytes.len() as u64;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        ContentDigest(h)
    }

    /// Wraps a raw digest value (e.g. read off the wire).
    pub const fn from_raw(raw: u64) -> Self {
        ContentDigest(raw)
    }

    /// The raw 64-bit value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ContentDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(ContentDigest::of(b"abc"), ContentDigest::of(b"abc"));
    }

    #[test]
    fn sensitive_to_single_bit() {
        assert_ne!(ContentDigest::of(b"abc"), ContentDigest::of(b"abd"));
        assert_ne!(ContentDigest::of(b""), ContentDigest::of(b"\0"));
    }

    #[test]
    fn sensitive_to_order() {
        assert_ne!(ContentDigest::of(b"ab"), ContentDigest::of(b"ba"));
    }

    #[test]
    fn empty_input_digests() {
        // The digest of empty content is well-defined and non-zero after
        // avalanche.
        assert_ne!(ContentDigest::of(b"").as_u64(), 0);
    }

    #[test]
    fn display_is_hex() {
        let d = ContentDigest::from_raw(0xdead_beef);
        assert_eq!(d.to_string(), "00000000deadbeef");
    }

    #[test]
    fn no_collisions_in_small_corpus() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0..10_000u32 {
            let content = format!("file content number {i}");
            assert!(seen.insert(ContentDigest::of(content.as_bytes())));
        }
    }

    /// Format 3 written out plainly, one byte and one index at a time.
    fn reference(bytes: &[u8]) -> u64 {
        let round = |h: u64, w: u64| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(31);
        let word_at = |at: usize| (0..8).fold(0u64, |w, k| w | u64::from(bytes[at + k]) << (8 * k));
        let offset = 0xcbf2_9ce4_8422_2325u64;
        let mut lanes = [offset, offset ^ 1, offset ^ 2, offset ^ 3];
        let blocks = bytes.len() / 32;
        for block in 0..blocks {
            for (lane, h) in lanes.iter_mut().enumerate() {
                *h = round(*h, word_at(32 * block + 8 * lane));
            }
        }
        let mut h = offset;
        for lane in lanes {
            h = round(h, lane);
        }
        let mut at = 32 * blocks;
        while at + 8 <= bytes.len() {
            h = round(h, word_at(at));
            at += 8;
        }
        let mut last = 0u64;
        for (k, &b) in bytes[at..].iter().enumerate() {
            last |= u64::from(b) << (8 * k);
        }
        h = round(h, last);
        h ^= bytes.len() as u64;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 33)
    }

    /// Deterministic pseudo-random bytes (xorshift stream).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
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

    #[test]
    fn matches_the_plain_reference_at_every_length() {
        // 0..=130 covers every residue mod 32 (whole blocks) and mod 8
        // (whole words) with and without a whole block before it.
        let bytes = noise(130, 3);
        for len in 0..=bytes.len() {
            let prefix = &bytes[..len];
            assert_eq!(
                ContentDigest::of(prefix).as_u64(),
                reference(prefix),
                "len {len}"
            );
        }
    }

    #[test]
    fn format_three_values_are_pinned() {
        // A change here is a digest format change: it needs a protocol
        // version bump and new segment magics.
        let pins: [(&[u8], u64); 5] = [
            (b"", 0x3109_e81a_253b_878f),
            (b"abc", 0x49af_df6e_e0d4_6056),
            (b"0123456789abcdef0123456789abcdef", 0xe030_7092_ab24_82a5),
            (&[0x5a; 100], 0xc17b_bbd9_79b6_e88e),
            (&noise(4096, 9), 0x7ccd_7780_b613_0062),
        ];
        for (bytes, pin) in pins {
            assert_eq!(
                ContentDigest::of(bytes).as_u64(),
                pin,
                "{} bytes",
                bytes.len()
            );
        }
    }

    #[test]
    fn every_byte_and_bit_of_4k_matters() {
        use std::collections::HashSet;
        let original = noise(4096, 5);
        let mut seen = HashSet::from([ContentDigest::of(&original)]);
        let mut edited = original.clone();
        for at in 0..original.len() {
            // One flipped bit, cycling through the bit positions, and
            // the whole byte replaced.
            for mask in [1u8 << (at % 8), 0xff] {
                edited[at] ^= mask;
                assert!(
                    seen.insert(ContentDigest::of(&edited)),
                    "byte {at}, mask {mask:#x}"
                );
                edited[at] ^= mask;
            }
        }
        for at in [0, 7, 8, 31, 32, 2047, 4064, 4095] {
            for bit in 0..8 {
                edited[at] ^= 1 << bit;
                assert_ne!(
                    ContentDigest::of(&edited),
                    ContentDigest::of(&original),
                    "byte {at}, bit {bit}"
                );
                edited[at] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn top_bit_flips_in_two_words_do_not_cancel() {
        // Format 2 mapped both edits to the original's digest: a flip of
        // a word's top bit only ever flipped the hash's top bit.
        let original = noise(256, 13);
        for (a, b) in [(7, 15), (7, 39), (103, 255)] {
            let mut edited = original.clone();
            edited[a] ^= 0x80;
            edited[b] ^= 0x80;
            assert_ne!(
                ContentDigest::of(&edited),
                ContentDigest::of(&original),
                "{a}, {b}"
            );
        }
    }

    #[test]
    fn swapped_words_and_blocks_change_the_digest() {
        let original = noise(4096, 11);
        let digest = ContentDigest::of(&original);
        let swapped = |a: usize, b: usize, len: usize| {
            let mut out = original.clone();
            let first = out[a..a + len].to_vec();
            out.copy_within(b..b + len, a);
            out[b..b + len].copy_from_slice(&first);
            assert_ne!(out, original);
            ContentDigest::of(&out)
        };
        // Two words of one block, in lanes 0 and 1; words of different
        // blocks in lanes 1 and 3; two words in the same lane.
        assert_ne!(swapped(0, 8, 8), digest);
        assert_ne!(swapped(8, 5 * 32 + 24, 8), digest);
        assert_ne!(swapped(16, 9 * 32 + 16, 8), digest);
        // Two whole blocks.
        assert_ne!(swapped(2 * 32, 7 * 32, 32), digest);
        assert_ne!(swapped(0, 32, 32), digest);
    }
}

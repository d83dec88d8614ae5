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
/// **Format version 2** (protocol version 3): the hash folds 8-byte
/// little-endian words per round instead of single bytes, which changes
/// every digest value. The change is versioned explicitly by the
/// [`PROTOCOL_VERSION`](crate::PROTOCOL_VERSION) bump and the durable
/// store's segment magic: peers never compare digests across protocol
/// versions, and pre-bump journals are discarded at recovery (the cache
/// is best effort — the client simply re-sends full content once).
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
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default,
)]
pub struct ContentDigest(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl ContentDigest {
    /// Digests a byte slice: FNV-1a over 8-byte little-endian rounds
    /// (one multiply per word instead of per byte — ~8× the throughput
    /// of the byte-wise loop on the 500 KB benchmark), the tail bytes
    /// packed into one final word, the length mixed in so documents
    /// that are prefixes of each other differ, then a final avalanche
    /// so short inputs spread across all 64 bits.
    pub fn of(bytes: &[u8]) -> Self {
        let mut h = FNV_OFFSET;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let w = u64::from_le_bytes(word.try_into().unwrap_or([0; 8]));
            h = (h ^ w).wrapping_mul(FNV_PRIME);
        }
        let mut tail = 0u64;
        for (i, &b) in words.remainder().iter().enumerate() {
            tail |= u64::from(b) << (8 * i);
        }
        h = (h ^ tail).wrapping_mul(FNV_PRIME);
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
}

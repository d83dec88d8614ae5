//! LZSS: sliding-window Lempel–Ziv with literal/copy flag bits.
//!
//! Format: groups of up to 8 items preceded by one flag byte (LSB first;
//! bit set = copy, clear = literal). A literal is one raw byte. A copy is
//! two bytes: `dddddddd dddd llll` — a 12-bit distance (1–4096, stored
//! minus 1) and a 4-bit length (stored minus [`MIN_MATCH`], encoding
//! 3–18). Copies may overlap themselves (distance < length), giving cheap
//! run encoding.

use crate::DecompressError;

/// Sliding window size (must match the 12-bit distance field).
const WINDOW: usize = 4096;
/// Shortest copy worth emitting (a copy costs 2 bytes + 1/8 flag).
const MIN_MATCH: usize = 3;
/// Longest copy the 4-bit length field can express.
const MAX_MATCH: usize = MIN_MATCH + 15;
/// Hash-chain search depth; higher finds better matches, slower.
const MAX_CHAIN: usize = 64;

fn hash3(bytes: &[u8]) -> usize {
    let h = (bytes[0] as u32) | ((bytes[1] as u32) << 8) | ((bytes[2] as u32) << 16);
    (h.wrapping_mul(0x9E37_79B1) >> 17) as usize & (HASH_SIZE - 1)
}

const HASH_SIZE: usize = 1 << 13;

/// Compresses `input` into a fresh buffer.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), shadow_compress::DecompressError> {
/// let text = b"the cat sat on the mat; the cat sat on the hat".to_vec();
/// let packed = shadow_compress::compress(&text);
/// assert!(packed.len() < text.len());
/// assert_eq!(shadow_compress::decompress(&packed)?, text);
/// # Ok(())
/// # }
/// ```
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    // head[h] = most recent position with hash h; prev[p & mask] = the
    // position before p in that chain.
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; WINDOW];

    let mut flag_at: Option<usize> = None;
    let mut flag_bit = 0u8;
    let mut push_item = |out: &mut Vec<u8>, is_copy: bool, bytes: &[u8]| {
        let at = match flag_at {
            Some(at) if flag_bit < 8 => at,
            _ => {
                out.push(0);
                flag_bit = 0;
                let at = out.len() - 1;
                flag_at = Some(at);
                at
            }
        };
        if is_copy {
            out[at] |= 1 << flag_bit;
        }
        flag_bit += 1;
        out.extend_from_slice(bytes);
    };

    let mut pos = 0usize;
    while pos < input.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if pos + MIN_MATCH <= input.len() {
            let h = hash3(&input[pos..]);
            let mut cand = head[h];
            let mut chain = MAX_CHAIN;
            while cand != usize::MAX && chain > 0 {
                if pos - cand > WINDOW {
                    break;
                }
                let limit = (input.len() - pos).min(MAX_MATCH);
                let mut len = 0usize;
                while len < limit && input[cand + len] == input[pos + len] {
                    len += 1;
                }
                if len > best_len {
                    best_len = len;
                    best_dist = pos - cand;
                    if len == MAX_MATCH {
                        break;
                    }
                }
                let next = prev[cand % WINDOW];
                // Chains only move backwards; a stale slot would loop.
                if next >= cand {
                    break;
                }
                cand = next;
                chain -= 1;
            }
        }

        let take = if best_len >= MIN_MATCH {
            let dist_code = best_dist - 1; // 0..4095
            let len_code = best_len - MIN_MATCH; // 0..15
            let b0 = (dist_code & 0xFF) as u8;
            let b1 = (((dist_code >> 8) as u8) << 4) | len_code as u8;
            push_item(&mut out, true, &[b0, b1]);
            best_len
        } else {
            push_item(&mut out, false, &[input[pos]]);
            1
        };

        // Insert the consumed positions into the hash chains.
        for p in pos..pos + take {
            if p + MIN_MATCH <= input.len() {
                let h = hash3(&input[p..]);
                prev[p % WINDOW] = head[h];
                head[h] = p;
            }
        }
        pos += take;
    }
    out
}

/// Decompresses `input` into a fresh buffer. A stream of `n` bytes
/// decodes to at most `9n` bytes: a 2-byte copy item yields up to 18.
///
/// # Errors
///
/// Returns [`DecompressError`] when `input` is truncated inside a copy
/// item or a copy reaches before the start of the output.
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, DecompressError> {
    let mut out = Vec::with_capacity(input.len() * 2);
    let mut pos = 0usize;
    while pos < input.len() {
        let flags = input[pos];
        pos += 1;
        for bit in 0..8 {
            if pos >= input.len() {
                break;
            }
            if flags & (1 << bit) != 0 {
                if pos + 2 > input.len() {
                    return Err(DecompressError {
                        offset: pos,
                        reason: "truncated copy item",
                    });
                }
                let b0 = input[pos] as usize;
                let b1 = input[pos + 1] as usize;
                pos += 2;
                let dist = (b0 | ((b1 >> 4) << 8)) + 1;
                let len = (b1 & 0x0F) + MIN_MATCH;
                if dist > out.len() {
                    return Err(DecompressError {
                        offset: pos - 2,
                        reason: "copy distance exceeds produced output",
                    });
                }
                let start = out.len() - dist;
                for i in 0..len {
                    let byte = out[start + i];
                    out.push(byte);
                }
            } else {
                out.push(input[pos]);
                pos += 1;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(input: &[u8]) -> Vec<u8> {
        let packed = compress(input);
        assert_eq!(decompress(&packed).unwrap(), input);
        packed
    }

    #[test]
    fn empty_and_tiny() {
        assert!(round_trip(b"").is_empty());
        round_trip(b"a");
        round_trip(b"ab");
        round_trip(b"abc");
    }

    #[test]
    fn repetitive_text_compresses() {
        let input: Vec<u8> = b"lorem ipsum dolor sit amet "
            .iter()
            .copied()
            .cycle()
            .take(8192)
            .collect();
        let packed = round_trip(&input);
        assert!(
            packed.len() < input.len() / 4,
            "packed {} of {}",
            packed.len(),
            input.len()
        );
    }

    #[test]
    fn self_overlapping_run() {
        // "aaaa..." forces copies with distance 1 < length.
        let packed = round_trip(&[b'a'; 500]);
        assert!(packed.len() < 80);
    }

    #[test]
    fn incompressible_random_data_round_trips() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let input: Vec<u8> = (0..10_000).map(|_| rng.gen()).collect();
        let packed = round_trip(&input);
        // 1 flag byte per 8 literals → at most 12.5% expansion.
        assert!(packed.len() <= input.len() + input.len() / 8 + 2);
    }

    #[test]
    fn long_distance_matches_within_window() {
        let mut input = vec![0u8; 0];
        input.extend_from_slice(b"unique-prefix-material-0123456789");
        input.extend(std::iter::repeat_n(b'.', 3000));
        input.extend_from_slice(b"unique-prefix-material-0123456789");
        let packed = round_trip(&input);
        // The 3000-dot run costs ~2 bytes per MAX_MATCH copy; the repeated
        // prefix (3033 bytes back, inside the 4 KiB window) costs a few
        // copies instead of 33 literals.
        assert!(packed.len() < 500, "packed {}", packed.len());
    }

    #[test]
    fn matches_beyond_window_are_not_used() {
        // Same content repeated 8 KiB apart: outside the 4 KiB window, so
        // it must still round-trip (as literals).
        let mut input = b"The quick brown fox jumps over the lazy dog".to_vec();
        input.extend(
            std::iter::repeat_with({
                let mut x = 0u32;
                move || {
                    x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                    (x >> 24) as u8
                }
            })
            .take(8192),
        );
        input.extend_from_slice(b"The quick brown fox jumps over the lazy dog");
        round_trip(&input);
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        // Copy referencing before the start of output.
        let bad = vec![0b0000_0001, 0xFF, 0xFF];
        assert!(decompress(&bad).is_err());
        // Truncated copy.
        let bad = vec![0b0000_0001, 0x00];
        assert!(decompress(&bad).is_err());
    }

    #[test]
    fn text_file_like_content() {
        let text: String = (0..500)
            .map(|i| format!("measurement[{i}] = {}\n", i * 37 % 1000))
            .collect();
        let packed = round_trip(text.as_bytes());
        assert!(packed.len() < text.len() / 2);
    }

    #[test]
    fn distance_one_copies_reach_the_amplification_bound() {
        // One literal, then nothing but distance-1, length-18 copies: the
        // first group (flag, literal, 7 copies) is 16 bytes in and 127
        // out; each further group (flag, 8 copies) is 17 in and 144 out.
        const GROUPS: usize = 1000;
        let copy = [0x00, 0x0F];
        let mut input = vec![0b1111_1110, b'a'];
        input.extend(copy.repeat(7));
        for _ in 0..GROUPS {
            input.push(0xFF);
            input.extend(copy.repeat(8));
        }
        assert_eq!(input.len(), 16 + 17 * GROUPS);
        let out = decompress(&input).unwrap();
        assert_eq!(out.len(), 127 + 144 * GROUPS);
        assert!(out.iter().all(|&b| b == b'a'));
        assert!(
            out.len() * 10 >= input.len() * 84,
            "{} from {}",
            out.len(),
            input.len()
        );
        assert!(out.len() <= 9 * input.len());
    }
}

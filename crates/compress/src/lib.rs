//! The LZSS transfer encoding for shadow editing payloads.
//!
//! The paper's future-work section (§8.3) proposes exploring "data
//! compression techniques to improve the efficiency of data transfer".
//! This crate provides the one compressor behind
//! `TransferEncoding::Lzss`: [`compress`] and [`decompress`], a
//! sliding-window Lempel–Ziv (LZSS) codec with a 4 KiB window — a
//! realistic stand-in for the late-1980s state of practice (LZ77-family
//! compressors of the `compress`(1) era).
//!
//! The format is self-delimiting given the compressed length and carries
//! no header; the transfer encoding travels out-of-band in the protocol.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), shadow_compress::DecompressError> {
//! let input = b"abcabcabcabcabcabcabcabc".to_vec();
//! let packed = shadow_compress::compress(&input);
//! assert!(packed.len() < input.len());
//! assert_eq!(shadow_compress::decompress(&packed)?, input);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lzss;

pub use lzss::{compress, decompress};

use std::error::Error;
use std::fmt;

/// Error decompressing a corrupt or truncated stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecompressError {
    /// Byte offset at which the problem was detected.
    pub offset: usize,
    /// Human-readable description.
    pub reason: &'static str,
}

impl fmt::Display for DecompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lzss stream invalid at byte {}: {}",
            self.offset, self.reason
        )
    }
}

impl Error for DecompressError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = DecompressError {
            offset: 3,
            reason: "truncated copy item",
        };
        assert_eq!(
            e.to_string(),
            "lzss stream invalid at byte 3: truncated copy item"
        );
    }
}

//! Deterministic workload generation for the paper's experiments.
//!
//! The evaluation (§8.1) "used files of different sizes (ranging from 10K
//! to 500K bytes) … we edited the data file and resubmitted the same job.
//! We modified the data file by a different amount every time (the amount
//! of text modified varied from 1% of the text to 80% of the text)".
//!
//! This crate reproduces that workload: a seeded [`generate_file`] that
//! emits realistic line-structured scientific data, and an [`EditModel`]
//! that modifies a controlled *fraction of the text bytes* — scattered
//! across the file or clustered, replacing, inserting and deleting lines
//! the way an editing session does.
//!
//! Everything is deterministic given the seed, so experiments are exactly
//! reproducible.
//!
//! # Example
//!
//! ```
//! use shadow_workload::{generate_file, EditModel, FileSpec};
//!
//! let content = generate_file(&FileSpec::new(10_000, 42));
//! let edited = EditModel::fraction(0.05, 7).apply(&content);
//! assert_ne!(content, edited);
//! // Roughly 5% of the bytes changed (the diff will be proportionate).
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shadow_diff::{diff_docs, DiffAlgorithm, DiffScratch, DocBuf};

/// Parameters for generating one synthetic data file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileSpec {
    /// Approximate size in bytes (within one line of the target).
    pub size_bytes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl FileSpec {
    /// Creates a spec.
    pub fn new(size_bytes: usize, seed: u64) -> Self {
        FileSpec { size_bytes, seed }
    }
}

/// The file sizes the paper's figures use, in bytes.
pub const PAPER_SIZES_FIG1: [usize; 3] = [100_000, 200_000, 500_000];
/// The file sizes of the speedup table (Figure 3).
pub const PAPER_SIZES_FIG3: [usize; 4] = [10_000, 50_000, 100_000, 500_000];
/// The modification percentages swept in Figures 1–2.
pub const PAPER_PERCENTS_FIG1: [f64; 7] = [0.01, 0.05, 0.10, 0.20, 0.40, 0.60, 0.80];
/// The modification percentages of the speedup table (Figure 3).
pub const PAPER_PERCENTS_FIG3: [f64; 4] = [0.01, 0.05, 0.10, 0.20];

/// Generates a line-structured text file of roughly `spec.size_bytes`
/// bytes: numbered records with plausible-looking measurement fields,
/// the kind of program/data text the paper's scientists shipped.
pub fn generate_file(spec: &FileSpec) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut out = Vec::with_capacity(spec.size_bytes + 80);
    let mut record = 0u64;
    while out.len() < spec.size_bytes {
        let line = format!(
            "{record:06} {:9.4} {:9.4} {:9.4} flag={} site={:03}\n",
            rng.gen_range(-999.0..999.0f64),
            rng.gen_range(-999.0..999.0f64),
            rng.gen_range(-999.0..999.0f64),
            if rng.gen_bool(0.5) { 'T' } else { 'F' },
            rng.gen_range(0..1000),
        );
        out.extend_from_slice(line.as_bytes());
        record += 1;
    }
    out.truncate(spec.size_bytes.max(1));
    // Keep the file newline-terminated (POSIX text) without changing size
    // materially.
    if *out.last().unwrap() != b'\n' {
        *out.last_mut().unwrap() = b'\n';
    }
    out
}

/// How an editing session distributes its changes through the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Locality {
    /// Changes land in `hunks` separate regions (the common case: a few
    /// parameters adjusted here and there).
    Scattered {
        /// Number of separate edit regions.
        hunks: usize,
    },
    /// One contiguous region is rewritten.
    Clustered,
}

/// A model of one editing session that modifies a controlled fraction of
/// the file's bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EditModel {
    /// Fraction of the text bytes modified, `0.0..=1.0` (the paper's
    /// x-axis: "percentage (in bytes) of text that was modified").
    pub fraction: f64,
    /// Spatial distribution of the changes.
    pub locality: Locality,
    /// Of the modified bytes, the fraction that are pure insertions
    /// (growing the file) rather than replacements. The remainder splits
    /// evenly between replacement and deletion-plus-reinsertion.
    pub insert_bias: f64,
    /// RNG seed; vary per session for distinct edits.
    pub seed: u64,
}

impl EditModel {
    /// A scattered edit of `fraction` of the bytes with a size-appropriate
    /// number of hunks (≈ one hunk per 2% of file, at least 1, at most 64).
    pub fn fraction(fraction: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
        let hunks = ((fraction * 50.0).ceil() as usize).clamp(1, 64);
        EditModel {
            fraction,
            locality: Locality::Scattered { hunks },
            insert_bias: 0.1,
            seed,
        }
    }

    /// Overrides the locality.
    #[must_use]
    pub fn with_locality(mut self, locality: Locality) -> Self {
        self.locality = locality;
        self
    }

    /// Applies the session to `content`, returning the edited text.
    ///
    /// The returned text differs from the input in approximately
    /// `fraction × len` bytes (measured as replaced/inserted line bytes).
    pub fn apply(&self, content: &[u8]) -> Vec<u8> {
        if self.fraction == 0.0 || content.is_empty() {
            return content.to_vec();
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let doc = DocBuf::from_bytes(content.to_vec());
        let mut lines: Vec<Vec<u8>> = (0..doc.line_count())
            .map(|i| doc.line(i).to_vec())
            .collect();
        if lines.is_empty() {
            return content.to_vec();
        }
        let target_bytes = ((content.len() as f64) * self.fraction).round() as usize;
        let hunks = match self.locality {
            Locality::Scattered { hunks } => hunks.max(1),
            Locality::Clustered => 1,
        };
        let per_hunk = (target_bytes / hunks).max(1);

        // Pick hunk start lines spread through the file (deterministic
        // shuffle of candidate positions).
        let avg_line = (content.len() / lines.len().max(1)).max(1);
        for h in 0..hunks {
            if lines.is_empty() {
                break;
            }
            // Keep the hunk's expected extent inside the file so the
            // requested byte fraction is actually modified.
            let extent_lines = (per_hunk / avg_line + 1).min(lines.len());
            let start_max = lines.len() - extent_lines + 1;
            let start = rng.gen_range(0..start_max);
            let mut consumed = 0usize;
            let mut idx = start;
            let insert_here = rng.gen_bool(self.insert_bias.clamp(0.0, 1.0));
            while consumed < per_hunk && idx < lines.len() {
                let line_len = lines[idx].len() + 1;
                let fresh = Self::fresh_line(&mut rng, h, idx);
                if insert_here {
                    // Contiguous insertion block: one hunk in the diff.
                    lines.insert(idx, fresh);
                } else {
                    lines[idx] = fresh;
                }
                idx += 1;
                consumed += line_len;
            }
        }
        // Every line, the last included, ends in '\n'.
        let mut out = Vec::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in &lines {
            out.extend_from_slice(line);
            out.push(b'\n');
        }
        out
    }

    fn fresh_line(rng: &mut StdRng, hunk: usize, idx: usize) -> Vec<u8> {
        format!(
            "edit-{hunk:02}-{idx:06} {:9.4} {:9.4} {:9.4} flag={} site={:03}",
            rng.gen_range(-999.0..999.0f64),
            rng.gen_range(-999.0..999.0f64),
            rng.gen_range(-999.0..999.0f64),
            if rng.gen_bool(0.5) { 'T' } else { 'F' },
            rng.gen_range(0..1000),
        )
        .into_bytes()
    }
}

/// Measures how many wire bytes an ed-script delta for this edit costs —
/// the quantity that replaces the full file size under shadow processing.
pub fn delta_cost(old: &[u8], new: &[u8]) -> usize {
    diff_docs(
        DiffAlgorithm::HuntMcIlroy,
        &DocBuf::from_bytes(old.to_vec()),
        &DocBuf::from_bytes(new.to_vec()),
        &mut DiffScratch::new(),
    )
    .wire_len()
}

/// Drives `sessions` successive editing sessions from `initial`, returning
/// every version (index 0 = initial).
pub fn edit_sequence(
    initial: &[u8],
    fraction: f64,
    sessions: usize,
    seed: u64,
) -> Vec<Vec<u8>> {
    let mut versions = vec![initial.to_vec()];
    for s in 0..sessions {
        let model = EditModel::fraction(fraction, seed.wrapping_add(s as u64 + 1));
        let next = model.apply(versions.last().expect("non-empty"));
        versions.push(next);
    }
    versions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_files_hit_target_size() {
        for &size in &[1_000usize, 10_000, 100_000] {
            let f = generate_file(&FileSpec::new(size, 1));
            assert_eq!(f.len(), size);
            assert_eq!(*f.last().unwrap(), b'\n');
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_file(&FileSpec::new(5_000, 7));
        let b = generate_file(&FileSpec::new(5_000, 7));
        let c = generate_file(&FileSpec::new(5_000, 8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_files_are_line_structured() {
        let f = generate_file(&FileSpec::new(10_000, 1));
        let lines = f.split(|&b| b == b'\n').filter(|l| !l.is_empty()).count();
        // ~55 bytes per line.
        assert!((150..250).contains(&lines), "{lines} lines");
    }

    #[test]
    fn edit_fraction_controls_delta_size() {
        let base = generate_file(&FileSpec::new(100_000, 3));
        let mut last = 0usize;
        for &fraction in &[0.01, 0.05, 0.20, 0.50] {
            let edited = EditModel::fraction(fraction, 11).apply(&base);
            let cost = delta_cost(&base, &edited);
            assert!(cost > last, "delta cost must grow with fraction");
            last = cost;
            // The delta should be in the same ballpark as the requested
            // fraction (within 3x, including script framing).
            let expected = (base.len() as f64 * fraction) as usize;
            assert!(
                cost < expected * 3 + 400,
                "fraction {fraction}: cost {cost} vs expected ~{expected}"
            );
            assert!(
                cost > expected / 3,
                "fraction {fraction}: cost {cost} vs expected ~{expected}"
            );
        }
    }

    #[test]
    fn edits_are_deterministic_per_seed() {
        let base = generate_file(&FileSpec::new(20_000, 3));
        let a = EditModel::fraction(0.1, 5).apply(&base);
        let b = EditModel::fraction(0.1, 5).apply(&base);
        let c = EditModel::fraction(0.1, 6).apply(&base);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_fraction_changes_nothing() {
        let base = generate_file(&FileSpec::new(1_000, 3));
        let model = EditModel {
            fraction: 0.0,
            locality: Locality::Clustered,
            insert_bias: 0.0,
            seed: 1,
        };
        assert_eq!(model.apply(&base), base);
    }

    #[test]
    fn clustered_edits_make_fewer_hunks_than_scattered() {
        let base = generate_file(&FileSpec::new(50_000, 3));
        let scattered = EditModel::fraction(0.10, 9).apply(&base);
        let clustered = EditModel::fraction(0.10, 9)
            .with_locality(Locality::Clustered)
            .apply(&base);
        let hunk_count = |new: &[u8]| {
            diff_docs(
                DiffAlgorithm::HuntMcIlroy,
                &DocBuf::from_bytes(base.clone()),
                &DocBuf::from_bytes(new.to_vec()),
                &mut DiffScratch::new(),
            )
            .command_count()
        };
        assert!(hunk_count(&clustered) <= hunk_count(&scattered));
    }

    #[test]
    fn edit_sequence_produces_distinct_versions() {
        let base = generate_file(&FileSpec::new(10_000, 3));
        let versions = edit_sequence(&base, 0.05, 4, 99);
        assert_eq!(versions.len(), 5);
        for w in versions.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }

    #[test]
    fn edited_text_ends_every_line_with_newline() {
        // The edited lines are joined with '\n' and the last one is
        // terminated too, even when the input lacked a trailing newline.
        let base = b"alpha\nbeta\ngamma";
        let edited = EditModel::fraction(0.5, 1).apply(base);
        assert_ne!(&edited[..], &base[..]);
        assert_eq!(edited.last(), Some(&b'\n'));
        assert!(!edited.ends_with(b"\n\n"));
    }

    #[test]
    fn empty_content_is_preserved() {
        assert!(EditModel::fraction(0.5, 1).apply(b"").is_empty());
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn out_of_range_fraction_rejected() {
        let _ = EditModel::fraction(1.5, 1);
    }
}

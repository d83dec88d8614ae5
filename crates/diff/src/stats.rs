//! Summary statistics for an edit script.

use std::fmt;

/// Aggregate measurements of an edit script — the quantities the paper's
/// evaluation cares about (how much must travel over the slow link).
///
/// # Example
///
/// ```
/// use shadow_diff::{diff_docs, DiffAlgorithm, DiffScratch, DocBuf};
///
/// let old = DocBuf::from_text("a\nb\nc\n");
/// let new = DocBuf::from_text("a\nx\nc\n");
/// let mut scratch = DiffScratch::new();
/// let stats = diff_docs(DiffAlgorithm::HuntMcIlroy, &old, &new, &mut scratch).stats();
/// assert_eq!(stats.lines_added, 1);
/// assert_eq!(stats.lines_removed, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DiffStats {
    /// Number of edit commands (hunks).
    pub hunks: usize,
    /// Lines introduced by the script.
    pub lines_added: usize,
    /// Base lines removed by the script.
    pub lines_removed: usize,
    /// Size of the script's wire (textual) form in bytes.
    pub wire_len: usize,
}

impl DiffStats {
    /// Total churn: lines added plus lines removed.
    pub fn churn(&self) -> usize {
        self.lines_added + self.lines_removed
    }
}

impl fmt::Display for DiffStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hunks, +{} -{} lines, {} wire bytes",
            self.hunks, self.lines_added, self.lines_removed, self.wire_len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_sums() {
        let s = DiffStats {
            hunks: 2,
            lines_added: 3,
            lines_removed: 4,
            wire_len: 99,
        };
        assert_eq!(s.churn(), 7);
    }

    #[test]
    fn display_nonempty() {
        assert!(!DiffStats::default().to_string().is_empty());
    }
}

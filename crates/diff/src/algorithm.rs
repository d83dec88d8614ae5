//! Algorithm selection and the match type the LCS engines share.

use std::fmt;

/// Which differential-comparison algorithm to run.
///
/// The paper's prototype used Hunt–McIlroy (`diff`(1)); its future-work
/// section proposed evaluating alternatives, which the ablation benches do.
///
/// # Example
///
/// ```
/// use shadow_diff::{apply_delta, diff_docs, DiffAlgorithm, DiffScratch, DocBuf};
///
/// let old = DocBuf::from_text("fn main() {}\n");
/// let new = DocBuf::from_text("fn main() { println!(); }\n");
/// let delta = diff_docs(DiffAlgorithm::Myers, &old, &new, &mut DiffScratch::new());
/// assert_eq!(apply_delta(old.as_bytes(), &delta.to_text()).unwrap(), new.as_bytes());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DiffAlgorithm {
    /// Hunt–Szymanski/McIlroy candidate-list LCS — the prototype's choice.
    #[default]
    HuntMcIlroy,
    /// Myers *O(ND)*, linear-space divide-and-conquer variant.
    Myers,
}

impl fmt::Display for DiffAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffAlgorithm::HuntMcIlroy => write!(f, "hunt-mcilroy"),
            DiffAlgorithm::Myers => write!(f, "myers"),
        }
    }
}

/// A matched line pair: `old_line` in the base equals `new_line` in the
/// target (both 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct Match {
    /// 0-based line index in the old (base) document.
    pub(crate) old_line: usize,
    /// 0-based line index in the new (target) document.
    pub(crate) new_line: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{apply_delta, diff_docs, DeltaScript, DiffScratch, DocBuf};

    fn check(algo: DiffAlgorithm, old: &str, new: &str) -> DeltaScript {
        let delta = diff_docs(
            algo,
            &DocBuf::from_text(old),
            &DocBuf::from_text(new),
            &mut DiffScratch::new(),
        );
        assert_eq!(
            apply_delta(old.as_bytes(), &delta.to_text()).unwrap(),
            new.as_bytes(),
            "algo={algo} old={old:?} new={new:?}"
        );
        delta
    }

    const ALGOS: [DiffAlgorithm; 2] = [DiffAlgorithm::HuntMcIlroy, DiffAlgorithm::Myers];

    #[test]
    fn identical_documents_produce_identity() {
        for algo in ALGOS {
            let s = check(algo, "a\nb\nc\n", "a\nb\nc\n");
            assert!(s.is_empty());
            assert_eq!(s.to_text(), b"w\n");
        }
    }

    #[test]
    fn single_line_change() {
        for algo in ALGOS {
            let s = check(algo, "a\nb\nc\n", "a\nX\nc\n");
            assert_eq!(s.command_count(), 1);
        }
    }

    #[test]
    fn pure_insertion() {
        for algo in ALGOS {
            let s = check(algo, "a\nc\n", "a\nb\nc\n");
            assert_eq!(s.stats().lines_added, 1);
            assert_eq!(s.stats().lines_removed, 0);
        }
    }

    #[test]
    fn pure_deletion() {
        for algo in ALGOS {
            let s = check(algo, "a\nb\nc\n", "a\nc\n");
            assert_eq!(s.stats().lines_removed, 1);
        }
    }

    #[test]
    fn from_empty_and_to_empty() {
        for algo in ALGOS {
            check(algo, "", "a\nb\n");
            check(algo, "a\nb\n", "");
            check(algo, "", "");
        }
    }

    #[test]
    fn total_rewrite() {
        for algo in ALGOS {
            let s = check(algo, "a\nb\nc\n", "x\ny\nz\n");
            assert!(s.stats().lines_added >= 3);
        }
    }

    #[test]
    fn trailing_newline_changes_only() {
        for algo in ALGOS {
            check(algo, "a\nb", "a\nb\n");
            check(algo, "a\nb\n", "a\nb");
        }
    }

    #[test]
    fn repeated_lines() {
        for algo in ALGOS {
            check(algo, "x\nx\nx\nx\n", "x\nx\n");
            check(algo, "x\nx\n", "x\nx\nx\nx\n");
            check(algo, "a\nx\na\nx\n", "x\na\nx\na\n");
        }
    }

    #[test]
    fn interleaved_edits() {
        for algo in ALGOS {
            check(
                algo,
                "1\n2\n3\n4\n5\n6\n7\n8\n9\n10\n",
                "1\ntwo\n3\n4\nfive\nfive-b\n6\n8\n9\nten\n",
            );
        }
    }

    #[test]
    fn block_swap() {
        for algo in ALGOS {
            let s = check(algo, "a\nb\nc\nd\ne\nf\n", "d\ne\nf\na\nb\nc\n");
            // A line diff cannot move blocks: one half travels as text.
            assert_eq!(s.stats().lines_added, 3);
            assert_eq!(s.stats().lines_removed, 3);
        }
    }

    #[test]
    fn small_edit_produces_small_script() {
        // The paper's core premise: a small edit yields a script much
        // smaller than the file.
        let old_text: String = (0..1000).map(|i| format!("line number {i}\n")).collect();
        let new_text = old_text.replace("line number 500", "LINE NUMBER 500");
        for algo in ALGOS {
            let s = check(algo, &old_text, &new_text);
            assert!(
                s.wire_len() < old_text.len() / 50,
                "script {} bytes vs file {}",
                s.wire_len(),
                old_text.len()
            );
        }
    }

    #[test]
    fn algorithms_agree_on_lcs_length_for_simple_cases() {
        // Both should find maximal matches for unique-line documents.
        for algo in ALGOS {
            let s = check(algo, "a\nb\nc\nd\ne\n", "a\nc\ne\n");
            assert_eq!(s.stats().lines_removed, 2, "algo={algo}");
            assert_eq!(s.stats().lines_added, 0, "algo={algo}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(DiffAlgorithm::HuntMcIlroy.to_string(), "hunt-mcilroy");
        assert_eq!(DiffAlgorithm::Myers.to_string(), "myers");
    }
}

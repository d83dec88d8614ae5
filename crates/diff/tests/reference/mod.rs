//! An independent reference for the line-delta properties: a textbook
//! quadratic-DP LCS over lines, and the document generators the property
//! tests share. Each test target uses a different subset.
#![allow(dead_code)]

use proptest::prelude::*;
use shadow_diff::{apply_delta, diff_docs, DiffAlgorithm, DiffScratch, DocBuf};

pub const ALGOS: [DiffAlgorithm; 2] = [DiffAlgorithm::HuntMcIlroy, DiffAlgorithm::Myers];

/// The lines of `text`: split on `\n`, where a final `\n` ends the last
/// line rather than starting an empty one.
pub fn lines(text: &[u8]) -> Vec<&[u8]> {
    if text.is_empty() {
        return Vec::new();
    }
    let body = text.strip_suffix(b"\n").unwrap_or(text);
    body.split(|&b| b == b'\n').collect()
}

/// Length of a longest common subsequence of two line sequences, by the
/// textbook one-row dynamic program.
pub fn lcs_len(a: &[&[u8]], b: &[&[u8]]) -> usize {
    let mut row = vec![0usize; b.len() + 1];
    for x in a {
        let mut diag = 0;
        for (j, y) in b.iter().enumerate() {
            let up = row[j + 1];
            row[j + 1] = if x == y { diag + 1 } else { up.max(row[j]) };
            diag = up;
        }
    }
    row[b.len()]
}

/// Diffs `old` → `new` with `algo` and checks the script against the
/// reference: it rebuilds `new` exactly, its text is `wire_len` bytes,
/// and it is line-minimal (removes `old − LCS` lines, adds `new − LCS`).
pub fn check_delta(
    algo: DiffAlgorithm,
    old: &[u8],
    new: &[u8],
    scratch: &mut DiffScratch,
) -> Result<(), TestCaseError> {
    let old_buf = DocBuf::from_bytes(old.to_vec());
    let new_buf = DocBuf::from_bytes(new.to_vec());
    let delta = diff_docs(algo, &old_buf, &new_buf, scratch);
    let text = delta.to_text();
    prop_assert_eq!(
        apply_delta(old, &text).unwrap(),
        new.to_vec(),
        "algo={}",
        algo
    );
    prop_assert_eq!(text.len(), delta.wire_len(), "algo={}", algo);

    let (a, b) = (lines(old), lines(new));
    let lcs = lcs_len(&a, &b);
    let stats = delta.stats();
    prop_assert_eq!(stats.lines_removed, a.len() - lcs, "algo={}", algo);
    prop_assert_eq!(stats.lines_added, b.len() - lcs, "algo={}", algo);
    Ok(())
}

/// Raw document bytes drawn from a small line alphabet (to force repeated
/// lines, the hard case for LCS) plus arbitrary short lines and dot lines
/// occasionally, with the trailing newline toggled independently.
pub fn arb_doc_bytes() -> impl Strategy<Value = Vec<u8>> {
    let line = prop_oneof![
        4 => prop::sample::select(vec!["alpha", "beta", "gamma", "x", ""]).prop_map(str::to_string),
        1 => "[a-z .]{0,12}".prop_map(|s| s),
        1 => Just(".".to_string()),
        1 => Just("..".to_string()),
    ];
    (prop::collection::vec(line, 0..40), any::<bool>()).prop_map(|(lines, trailing)| {
        let mut text = lines.join("\n");
        if trailing && !text.is_empty() {
            text.push('\n');
        }
        text.into_bytes()
    })
}

/// All-lines-equal documents: the interner collapses everything to one
/// symbol and Hunt–McIlroy sees maximal occurrence lists.
pub fn arb_uniform_doc_bytes() -> impl Strategy<Value = Vec<u8>> {
    (0usize..30, any::<bool>()).prop_map(|(n, trailing)| {
        let mut text = vec!["same"; n].join("\n");
        if trailing && !text.is_empty() {
            text.push('\n');
        }
        text.into_bytes()
    })
}

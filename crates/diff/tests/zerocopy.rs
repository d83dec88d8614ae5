//! Reference properties of the line-delta pipeline (`DocBuf` →
//! `diff_docs` → `DeltaScript::to_text` → `apply_delta`): over random
//! byte documents, including the degenerate shapes (empty files, missing
//! trailing newline, all lines equal, dot lines), every script rebuilds
//! its target, is exactly `wire_len` bytes, and is line-minimal against
//! an independent quadratic-DP LCS.

mod reference;

use proptest::prelude::*;
use reference::{arb_doc_bytes, arb_uniform_doc_bytes, check_delta, lcs_len, lines, ALGOS};
use shadow_diff::{diff_docs, DiffScratch, DocBuf};

fn check_both(old: &[u8], new: &[u8]) -> Result<(), TestCaseError> {
    let mut scratch = DiffScratch::new();
    for algo in ALGOS {
        check_delta(algo, old, new, &mut scratch)?;
    }
    Ok(())
}

#[test]
fn reference_splits_and_measures_lines() {
    assert!(lines(b"").is_empty());
    assert_eq!(lines(b"\n"), vec![&b""[..]]);
    assert_eq!(lines(b"a\nb"), vec![&b"a"[..], b"b"]);
    assert_eq!(lines(b"a\nb\n"), vec![&b"a"[..], b"b"]);
    let a = lines(b"a\nb\nc\nb\nd\na\nb\n");
    let b = lines(b"b\nd\nc\na\nb\na\n");
    assert_eq!(lcs_len(&a, &b), 4);
}

#[test]
fn fixed_cases_match_the_reference() {
    let cases = [
        ("", ""),
        ("", "a\n"),
        ("a\nb\nc\n", "a\nX\nc\n"),
        ("a\nb", "a\nb\n"),
        (".\na\n", "..\na\n"),
        ("x\nx\nx\nx\n", "x\nx\n"),
    ];
    for (old, new) in cases {
        if let Err(e) = check_both(old.as_bytes(), new.as_bytes()) {
            panic!("old={old:?} new={new:?}: {e:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pipelines_agree_on_random_documents(
        old in arb_doc_bytes(),
        new in arb_doc_bytes(),
    ) {
        check_both(&old, &new)?;
    }

    #[test]
    fn pipelines_agree_on_uniform_documents(
        old in arb_uniform_doc_bytes(),
        new in arb_uniform_doc_bytes(),
    ) {
        check_both(&old, &new)?;
    }

    #[test]
    fn pipelines_agree_against_empty(
        doc in arb_doc_bytes(),
        empty_side in any::<bool>(),
    ) {
        if empty_side {
            check_both(&[], &doc)?;
        } else {
            check_both(&doc, &[])?;
        }
    }

    #[test]
    fn scratch_reuse_never_changes_output(
        pairs in prop::collection::vec((arb_doc_bytes(), arb_doc_bytes()), 1..6),
    ) {
        // One scratch across a whole sequence of diffs of varying sizes
        // must behave exactly like a fresh scratch per diff.
        let mut shared = DiffScratch::new();
        for (old, new) in &pairs {
            let old_buf = DocBuf::from_bytes(old.clone());
            let new_buf = DocBuf::from_bytes(new.clone());
            for algo in ALGOS {
                let mut fresh = DiffScratch::new();
                let a = diff_docs(algo, &old_buf, &new_buf, &mut shared).to_text();
                let b = diff_docs(algo, &old_buf, &new_buf, &mut fresh).to_text();
                prop_assert_eq!(a, b);
            }
        }
    }
}

//! Property tests per diff algorithm: for every pair of documents, the
//! script each algorithm produces reconstructs the target exactly, is as
//! long on the wire as its `wire_len`, and is line-minimal against the
//! quadratic-DP reference.

mod reference;

use proptest::prelude::*;
use reference::{arb_doc_bytes, check_delta};
use shadow_diff::{diff_docs, DiffAlgorithm, DiffScratch, DocBuf};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hunt_mcilroy_reconstructs((old, new) in (arb_doc_bytes(), arb_doc_bytes())) {
        check_delta(DiffAlgorithm::HuntMcIlroy, &old, &new, &mut DiffScratch::new())?;
    }

    #[test]
    fn myers_reconstructs((old, new) in (arb_doc_bytes(), arb_doc_bytes())) {
        check_delta(DiffAlgorithm::Myers, &old, &new, &mut DiffScratch::new())?;
    }

    #[test]
    fn algorithms_agree_on_script_economy((old, new) in (arb_doc_bytes(), arb_doc_bytes())) {
        // Both produce *minimal-LCS* scripts, so line churn must agree.
        let old = DocBuf::from_bytes(old);
        let new = DocBuf::from_bytes(new);
        let mut scratch = DiffScratch::new();
        let hm = diff_docs(DiffAlgorithm::HuntMcIlroy, &old, &new, &mut scratch).stats();
        let my = diff_docs(DiffAlgorithm::Myers, &old, &new, &mut scratch).stats();
        prop_assert_eq!(hm.lines_added, my.lines_added);
        prop_assert_eq!(hm.lines_removed, my.lines_removed);
    }

    #[test]
    fn script_text_round_trips((old, new) in (arb_doc_bytes(), arb_doc_bytes())) {
        // Writing into a dirty buffer appends exactly the script text.
        let old_buf = DocBuf::from_bytes(old.clone());
        let new_buf = DocBuf::from_bytes(new.clone());
        let delta = diff_docs(DiffAlgorithm::HuntMcIlroy, &old_buf, &new_buf, &mut DiffScratch::new());
        let mut out = b"prefix".to_vec();
        delta.write_text(&mut out);
        prop_assert_eq!(&out[..6], b"prefix");
        prop_assert_eq!(&out[6..], &delta.to_text()[..]);
        prop_assert_eq!(out.len() - 6, delta.wire_len());
        prop_assert_eq!(shadow_diff::apply_delta(&old, &out[6..]).unwrap(), new);
    }
}

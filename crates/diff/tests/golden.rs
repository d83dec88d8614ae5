//! Wire-byte golden pins: the exact `diff -e` script text that
//! `diff_docs` emits for the paper's workload corpora, pinned as its
//! length and its 64-bit FNV-1a hash for both LCS engines.
//!
//! The pins were computed from, and cross-checked against, the original
//! allocating pipeline that this crate used to carry as an oracle. Any
//! change to the diff engines, the hunk builder, the script writer or the
//! workload generator that moves a single wire byte fails here.

use shadow_diff::{apply_delta, diff_docs, DiffAlgorithm, DiffScratch, DocBuf};
use shadow_workload::{generate_file, EditModel, FileSpec};

/// `(corpus, wire_len, fnv1a(script text))`. Hunt–McIlroy and Myers emit
/// the same script on every corpus here, so one pin covers both.
const PINS: &[(&str, usize, u64)] = &[
    ("gen10k_1pct_s42", 135, 0xb841_d169_5d60_a52c),
    ("gen10k_5pct_s42", 765, 0x90a9_35c3_51ad_9635),
    ("gen10k_20pct_s42", 2402, 0xd3ce_fd69_fead_5afa),
    ("gen100k_1pct_s42", 1172, 0x21c2_4b8c_7fde_2536),
    ("gen100k_5pct_s42", 5895, 0xaf06_50ca_544d_66bc),
    ("gen100k_20pct_s42", 22982, 0xc562_5f38_2c5d_96b4),
    ("gen200k_1pct_s42", 2331, 0x613e_dd2c_1e7a_8a1a),
    ("gen200k_5pct_s42", 11568, 0x1df9_d1ee_43f9_d7a3),
    ("gen200k_20pct_s42", 45070, 0xbe99_b41d_1332_8151),
    ("journal2k_s42", 202, 0xffbe_b5cf_ce62_509d),
    ("gen10k_1pct_s1988", 131, 0x8514_0d67_49fe_ac62),
    ("gen10k_5pct_s1988", 763, 0x3725_bae3_45f3_808c),
    ("gen10k_20pct_s1988", 2276, 0x19a9_1389_cb0f_95af),
    ("gen100k_1pct_s1988", 1169, 0xbb0a_18ef_0faa_bcd8),
    ("gen100k_5pct_s1988", 5883, 0xc577_b08f_c358_008e),
    ("gen100k_20pct_s1988", 23283, 0x6156_4237_a4e6_6e3b),
    ("gen200k_1pct_s1988", 2328, 0x1330_7830_669f_d60f),
    ("gen200k_5pct_s1988", 11563, 0x98fa_8fb9_1524_0cf8),
    ("gen200k_20pct_s1988", 39676, 0xa71e_d699_c66d_0161),
    ("journal2k_s1988", 203, 0xccb6_dc80_6a15_1e59),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The pinned corpora, in `PINS` order: `generate_file` at 10k/100k/200k
/// bytes edited by `EditModel::fraction` at 1/5/20%, then the 2,000-byte
/// replacement-only edit that the end-to-end bench's seeded journal uses.
fn corpora() -> Vec<(String, Vec<u8>, Vec<u8>)> {
    let mut out = Vec::new();
    for seed in [42u64, 1988] {
        for size in [10_000usize, 100_000, 200_000] {
            let base = generate_file(&FileSpec::new(size, seed));
            for (pct, fraction) in [(1, 0.01), (5, 0.05), (20, 0.20)] {
                let edited = EditModel::fraction(fraction, seed).apply(&base);
                let name = format!("gen{}k_{pct}pct_s{seed}", size / 1000);
                out.push((name, base.clone(), edited));
            }
        }
        let base = generate_file(&FileSpec::new(2_000, seed));
        let model = EditModel {
            insert_bias: 0.0,
            ..EditModel::fraction(0.05, seed)
        };
        let edited = model.apply(&base);
        out.push((format!("journal2k_s{seed}"), base, edited));
    }
    out
}

#[test]
fn script_bytes_match_the_pins() {
    let corpora = corpora();
    assert_eq!(corpora.len(), PINS.len());
    let mut scratch = DiffScratch::new();
    for ((name, old, new), &(pin_name, pin_len, pin_fnv)) in corpora.iter().zip(PINS) {
        assert_eq!(name, pin_name);
        let old_buf = DocBuf::from_bytes(old.clone());
        let new_buf = DocBuf::from_bytes(new.clone());
        for algo in [DiffAlgorithm::HuntMcIlroy, DiffAlgorithm::Myers] {
            let delta = diff_docs(algo, &old_buf, &new_buf, &mut scratch);
            let text = delta.to_text();
            assert_eq!(delta.wire_len(), pin_len, "{name} {algo}: wire_len");
            assert_eq!(text.len(), pin_len, "{name} {algo}: text length");
            assert_eq!(fnv1a(&text), pin_fnv, "{name} {algo}: script bytes moved");
            assert_eq!(&apply_delta(old, &text).unwrap(), new, "{name} {algo}");
        }
    }
}

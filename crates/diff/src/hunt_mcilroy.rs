//! The Hunt–Szymanski/McIlroy candidate-list LCS algorithm.
//!
//! This is the algorithm behind the original UNIX `diff` (Hunt & McIlroy,
//! *An Algorithm for Differential File Comparison*, Bell Labs CSTR 41, 1975)
//! and the one the shadow editing prototype used (§7 of the paper).
//!
//! Running time is `O((R + N) log N)` where `R` is the number of matching
//! line pairs — fast when most lines are distinct, which is typical for
//! program and data text. Memory is `O(R + N)`.

use crate::algorithm::Match;
use crate::scratch::{Candidate, DiffScratch};

/// Computes a longest common subsequence of the symbol windows
/// `scratch.old_syms` / `scratch.new_syms` (equal symbols mean equal
/// lines) and leaves it in `scratch.matches` as strictly increasing
/// [`Match`]es.
///
/// For each symbol of the old window, its positions in the new window are
/// visited in descending order (Hunt–Szymanski), so one old line never
/// contributes two links to the same chain. `thresh[k]` holds the
/// smallest new index ending a common subsequence of length `k + 1` and
/// `link[k]` the arena candidate achieving it; the longest chain is
/// recovered from the last link. The occurrence lists (CSR layout), the
/// threshold/link vectors and the candidate arena are reused across calls
/// — zero heap allocation once the buffers are warm.
pub(crate) fn lcs_matches_scratch(scratch: &mut DiffScratch) {
    let DiffScratch {
        old_syms,
        new_syms,
        occ_starts,
        occ_fill,
        occ_items,
        thresh,
        link,
        arena,
        matches,
        ..
    } = scratch;
    matches.clear();
    let a: &[u32] = old_syms;
    let b: &[u32] = new_syms;
    if a.is_empty() || b.is_empty() {
        return;
    }

    // Symbols are dense (the interner hands them out contiguously), so a
    // counting sort of `b`'s positions into a CSR layout gives every
    // symbol's occurrence list in one flat buffer.
    let max_sym = a
        .iter()
        .chain(b.iter())
        .copied()
        .max()
        .map(|m| m as usize + 1)
        .unwrap_or(0);
    occ_starts.clear();
    occ_starts.resize(max_sym + 1, 0);
    for &sym in b {
        occ_starts[sym as usize + 1] += 1;
    }
    for i in 1..occ_starts.len() {
        occ_starts[i] += occ_starts[i - 1];
    }
    occ_fill.clear();
    occ_fill.extend_from_slice(occ_starts);
    occ_items.clear();
    occ_items.resize(b.len(), 0);
    for (j, &sym) in b.iter().enumerate() {
        occ_items[occ_fill[sym as usize] as usize] = j as u32;
        occ_fill[sym as usize] += 1;
    }

    thresh.clear();
    link.clear();
    arena.clear();

    for (i, &sym) in a.iter().enumerate() {
        let lo = occ_starts[sym as usize] as usize;
        let hi = occ_starts[sym as usize + 1] as usize;
        for &j in occ_items[lo..hi].iter().rev() {
            let k = thresh.partition_point(|&t| t < j);
            if k < thresh.len() && thresh[k] == j {
                continue; // no improvement: same endpoint already achieved
            }
            let prev = if k == 0 { u32::MAX } else { link[k - 1] };
            arena.push(Candidate {
                old_line: i as u32,
                new_line: j,
                prev,
            });
            let cand = (arena.len() - 1) as u32;
            if k == thresh.len() {
                thresh.push(j);
                link.push(cand);
            } else {
                thresh[k] = j;
                link[k] = cand;
            }
        }
    }

    if let Some(&last) = link.last() {
        let mut cur = last;
        loop {
            let c = arena[cur as usize];
            matches.push(Match {
                old_line: c.old_line as usize,
                new_line: c.new_line as usize,
            });
            if c.prev == u32::MAX {
                break;
            }
            cur = c.prev;
        }
    }
    matches.reverse();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcs_matches(a: &[u32], b: &[u32]) -> Vec<Match> {
        lcs_matches_in(&mut DiffScratch::new(), a, b)
    }

    fn lcs_matches_in(scratch: &mut DiffScratch, a: &[u32], b: &[u32]) -> Vec<Match> {
        scratch.old_syms.clear();
        scratch.old_syms.extend_from_slice(a);
        scratch.new_syms.clear();
        scratch.new_syms.extend_from_slice(b);
        lcs_matches_scratch(scratch);
        scratch.matches.clone()
    }

    fn lcs_len(a: &[u32], b: &[u32]) -> usize {
        lcs_matches(a, b).len()
    }

    /// Textbook quadratic DP as an oracle.
    fn dp_lcs_len(a: &[u32], b: &[u32]) -> usize {
        let mut row = vec![0usize; b.len() + 1];
        for &x in a {
            let mut diag = 0;
            for (j, &y) in b.iter().enumerate() {
                let up = row[j + 1];
                row[j + 1] = if x == y { diag + 1 } else { up.max(row[j]) };
                diag = up;
            }
        }
        row[b.len()]
    }

    fn random_pair(rng: &mut rand::rngs::StdRng) -> (Vec<u32>, Vec<u32>) {
        use rand::Rng;
        let alphabet = rng.gen_range(1..8u32);
        let n = rng.gen_range(0..40);
        let m = rng.gen_range(0..40);
        let a = (0..n).map(|_| rng.gen_range(0..alphabet)).collect();
        let b = (0..m).map(|_| rng.gen_range(0..alphabet)).collect();
        (a, b)
    }

    #[test]
    fn empty_inputs() {
        assert!(lcs_matches(&[], &[]).is_empty());
        assert!(lcs_matches(&[1], &[]).is_empty());
        assert!(lcs_matches(&[], &[1]).is_empty());
    }

    #[test]
    fn identical_sequences() {
        let a = [1, 2, 3, 4, 5];
        let m = lcs_matches(&a, &a);
        assert_eq!(m.len(), 5);
        for (idx, mm) in m.iter().enumerate() {
            assert_eq!((mm.old_line, mm.new_line), (idx, idx));
        }
    }

    #[test]
    fn disjoint_sequences() {
        assert_eq!(lcs_len(&[1, 2, 3], &[4, 5, 6]), 0);
    }

    #[test]
    fn classic_example() {
        // LCS of "ABCBDAB" / "BDCABA" has length 4.
        let a: Vec<u32> = "ABCBDAB".bytes().map(u32::from).collect();
        let b: Vec<u32> = "BDCABA".bytes().map(u32::from).collect();
        assert_eq!(lcs_len(&a, &b), 4);
    }

    #[test]
    fn lcs_of_interned_symbols() {
        let pairs: Vec<_> = lcs_matches(&[1, 2, 3, 4], &[2, 4, 5])
            .iter()
            .map(|m| (m.old_line, m.new_line))
            .collect();
        assert_eq!(pairs, vec![(1, 0), (3, 1)]);
    }

    #[test]
    fn matches_are_strictly_increasing_and_equal() {
        let a = [5, 1, 5, 2, 5, 3, 5];
        let b = [1, 5, 2, 5, 3];
        let m = lcs_matches(&a, &b);
        let mut prev: Option<Match> = None;
        for mm in &m {
            assert_eq!(a[mm.old_line], b[mm.new_line]);
            if let Some(p) = prev {
                assert!(mm.old_line > p.old_line && mm.new_line > p.new_line);
            }
            prev = Some(*mm);
        }
        assert_eq!(m.len(), dp_lcs_len(&a, &b));
    }

    #[test]
    fn heavy_repetition() {
        let a = vec![7u32; 100];
        let b = vec![7u32; 60];
        assert_eq!(lcs_len(&a, &b), 60);
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5C2A);
        let mut scratch = DiffScratch::new();
        for _ in 0..200 {
            let (a, b) = random_pair(&mut rng);
            let warm = lcs_matches_in(&mut scratch, &a, &b);
            assert_eq!(warm, lcs_matches(&a, &b), "a={a:?} b={b:?}");
        }
    }

    #[test]
    fn agrees_with_dp_oracle_on_random_inputs() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        for trial in 0..200 {
            let (a, b) = random_pair(&mut rng);
            let got = lcs_matches(&a, &b);
            // Valid common subsequence…
            let mut pi = None;
            let mut pj = None;
            for mm in &got {
                assert_eq!(a[mm.old_line], b[mm.new_line], "trial {trial}");
                if let (Some(pi), Some(pj)) = (pi, pj) {
                    assert!(mm.old_line > pi && mm.new_line > pj, "trial {trial}");
                }
                pi = Some(mm.old_line);
                pj = Some(mm.new_line);
            }
            // …of maximal length.
            assert_eq!(got.len(), dp_lcs_len(&a, &b), "trial {trial}");
        }
    }
}

//! The Myers *O(ND)* difference algorithm, linear-space variant.
//!
//! Implements the divide-and-conquer form of Myers' greedy algorithm
//! (*An O(ND) Difference Algorithm and Its Variations*, 1986; published as a
//! practical file-comparison program by Miller & Myers \[MM85\], which the
//! shadow editing paper's future-work section names as a candidate to
//! evaluate). The structure follows the classic `xdiff` formulation: find a
//! point on an optimal edit path with simultaneous forward/backward frontier
//! searches, split the edit box there, and recurse; matches are emitted by
//! the common prefix/suffix trimming at each recursion level. Memory is
//! `O(N + M)` regardless of the edit distance.

use crate::algorithm::Match;
use crate::scratch::DiffScratch;

/// Sentinel priming out-of-range forward diagonals: always loses a `max`.
const FWD_SENTINEL: i64 = -1;
/// Sentinel priming out-of-range backward diagonals: always loses a `min`.
const BWD_SENTINEL: i64 = i64::MAX / 2;

/// Computes a longest common subsequence of the symbol windows
/// `scratch.old_syms` / `scratch.new_syms` as strictly increasing
/// [`Match`]es in `scratch.matches`, in `O((N + M) D)` time and linear
/// space. The frontier vectors `vf` / `vb` are reused across calls —
/// zero heap allocation once the buffers are warm.
pub(crate) fn lcs_matches_scratch(scratch: &mut DiffScratch) {
    let DiffScratch {
        old_syms,
        new_syms,
        vf,
        vb,
        matches,
        ..
    } = scratch;
    matches.clear();
    let a: &[u32] = old_syms;
    let b: &[u32] = new_syms;
    let n = a.len() as i64;
    let m = b.len() as i64;
    let need = (n + m + 3) as usize;
    if vf.len() < need {
        vf.resize(need, 0);
        vb.resize(need, 0);
    }
    solve(a, b, 0, n, 0, m, vf, vb, matches);
    debug_assert!(matches
        .windows(2)
        .all(|w| w[0].old_line < w[1].old_line && w[0].new_line < w[1].new_line));
}

/// Recursively diffs the box `a[off1..lim1] × b[off2..lim2]`, appending the
/// matched pairs in order.
#[allow(clippy::too_many_arguments)]
fn solve(
    a: &[u32],
    b: &[u32],
    mut off1: i64,
    mut lim1: i64,
    mut off2: i64,
    mut lim2: i64,
    vf: &mut [i64],
    vb: &mut [i64],
    out: &mut Vec<Match>,
) {
    // Trim the common prefix: each trimmed pair is a match.
    while off1 < lim1 && off2 < lim2 && a[off1 as usize] == b[off2 as usize] {
        out.push(Match {
            old_line: off1 as usize,
            new_line: off2 as usize,
        });
        off1 += 1;
        off2 += 1;
    }
    // Trim the common suffix; the trimmed pairs sit on one diagonal, so a
    // count suffices to emit them after the interior recursion — no
    // per-level buffer.
    let mut suffix_len: i64 = 0;
    while off1 < lim1 && off2 < lim2 && a[(lim1 - 1) as usize] == b[(lim2 - 1) as usize] {
        lim1 -= 1;
        lim2 -= 1;
        suffix_len += 1;
    }

    // Base cases: one side exhausted means pure insert/delete — no matches.
    if off1 < lim1 && off2 < lim2 {
        if let Some((sx, sy)) = split_point(a, b, off1, lim1, off2, lim2, vf, vb) {
            solve(a, b, off1, sx, off2, sy, vf, vb, out);
            solve(a, b, sx, lim1, sy, lim2, vf, vb, out);
        }
        // A `None` here is impossible for a non-empty box (see
        // `split_point`); treated defensively as "no interior matches",
        // which still yields a correct (just non-minimal) script.
    }

    for t in 0..suffix_len {
        out.push(Match {
            old_line: (lim1 + t) as usize,
            new_line: (lim2 + t) as usize,
        });
    }
}

/// Finds a point `(x, y)` on an optimal edit path through the box, strictly
/// splitting it (neither sub-box equals the whole box).
///
/// Precondition: the box is non-empty on both sides and has no common
/// prefix/suffix (so its edit distance is at least 2), which guarantees the
/// split point is interior enough for the recursion to make progress.
#[allow(clippy::too_many_arguments)]
fn split_point(
    a: &[u32],
    b: &[u32],
    off1: i64,
    lim1: i64,
    off2: i64,
    lim2: i64,
    vf: &mut [i64],
    vb: &mut [i64],
) -> Option<(i64, i64)> {
    let m = b.len() as i64;
    let idx = |k: i64| -> usize { (k + m + 1) as usize };

    let dmin = off1 - lim2; // most negative feasible diagonal
    let dmax = lim1 - off2; // most positive feasible diagonal
    let fmid = off1 - off2; // diagonal through the top-left corner
    let bmid = lim1 - lim2; // diagonal through the bottom-right corner
    let odd = (fmid - bmid) % 2 != 0;

    let mut fmin = fmid;
    let mut fmax = fmid;
    let mut bmin = bmid;
    let mut bmax = bmid;
    vf[idx(fmid)] = off1;
    vb[idx(bmid)] = lim1;

    let max_ec = (lim1 - off1) + (lim2 - off2) + 1;
    for _ec in 1..=max_ec {
        // Expand the forward frontier, priming sentinels just outside it so
        // the in-range neighbour always wins the max below.
        if fmin > dmin {
            fmin -= 1;
            vf[idx(fmin - 1)] = FWD_SENTINEL;
        } else {
            fmin += 1;
        }
        if fmax < dmax {
            fmax += 1;
            vf[idx(fmax + 1)] = FWD_SENTINEL;
        } else {
            fmax -= 1;
        }
        let mut k = fmax;
        while k >= fmin {
            let mut x = if vf[idx(k - 1)] >= vf[idx(k + 1)] {
                vf[idx(k - 1)] + 1
            } else {
                vf[idx(k + 1)]
            };
            let mut y = x - k;
            while x < lim1 && y < lim2 && a[x as usize] == b[y as usize] {
                x += 1;
                y += 1;
            }
            vf[idx(k)] = x;
            if odd && bmin <= k && k <= bmax && vb[idx(k)] <= x {
                return Some((x, y));
            }
            k -= 2;
        }

        // Expand the backward frontier.
        if bmin > dmin {
            bmin -= 1;
            vb[idx(bmin - 1)] = BWD_SENTINEL;
        } else {
            bmin += 1;
        }
        if bmax < dmax {
            bmax += 1;
            vb[idx(bmax + 1)] = BWD_SENTINEL;
        } else {
            bmax -= 1;
        }
        let mut k = bmax;
        while k >= bmin {
            let mut x = if vb[idx(k - 1)] < vb[idx(k + 1)] {
                vb[idx(k - 1)]
            } else {
                vb[idx(k + 1)] - 1
            };
            let mut y = x - k;
            while x > off1 && y > off2 && a[(x - 1) as usize] == b[(y - 1) as usize] {
                x -= 1;
                y -= 1;
            }
            vb[idx(k)] = x;
            if !odd && fmin <= k && k <= fmax && x <= vf[idx(k)] {
                return Some((x, y));
            }
            k -= 2;
        }
    }

    debug_assert!(false, "split_point failed to converge on a non-empty box");
    None
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

    fn assert_valid(a: &[u32], b: &[u32]) {
        let got = lcs_matches(a, b);
        let mut prev: Option<Match> = None;
        for mm in &got {
            assert_eq!(a[mm.old_line], b[mm.new_line], "a={a:?} b={b:?}");
            if let Some(p) = prev {
                assert!(
                    mm.old_line > p.old_line && mm.new_line > p.new_line,
                    "a={a:?} b={b:?}"
                );
            }
            prev = Some(*mm);
        }
        assert_eq!(got.len(), dp_lcs_len(a, b), "a={a:?} b={b:?}");
    }

    #[test]
    fn empty_inputs() {
        assert!(lcs_matches(&[], &[]).is_empty());
        assert!(lcs_matches(&[1, 2], &[]).is_empty());
        assert!(lcs_matches(&[], &[1, 2]).is_empty());
    }

    #[test]
    fn identical() {
        assert_valid(&[1, 2, 3, 4], &[1, 2, 3, 4]);
    }

    #[test]
    fn disjoint() {
        assert_valid(&[1, 2, 3], &[4, 5, 6]);
    }

    #[test]
    fn classic_myers_example() {
        // The worked example from Myers' paper: A = abcabba, B = cbabac.
        let a: Vec<u32> = "abcabba".bytes().map(u32::from).collect();
        let b: Vec<u32> = "cbabac".bytes().map(u32::from).collect();
        assert_valid(&a, &b);
        assert_eq!(lcs_matches(&a, &b).len(), 4);
    }

    #[test]
    fn lcs_of_interned_symbols() {
        assert_valid(&[1, 2, 3], &[2, 3, 4]);
        assert_eq!(lcs_matches(&[1, 2, 3], &[2, 3, 4]).len(), 2);
    }

    #[test]
    fn single_element_cases() {
        assert_valid(&[1], &[1]);
        assert_valid(&[1], &[2]);
        assert_valid(&[1, 1, 1], &[1]);
        assert_valid(&[1], &[1, 1, 1]);
    }

    #[test]
    fn prefix_suffix_overlap() {
        assert_valid(&[1, 2, 3, 4, 5], &[1, 2, 9, 4, 5]);
        assert_valid(&[1, 2, 3], &[1, 2, 3, 4, 5]);
        assert_valid(&[3, 4, 5], &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn heavy_repetition() {
        assert_valid(&[7; 50], &[7; 30]);
        assert_valid(&[1, 7, 1, 7, 1], &[7, 1, 7, 1, 7]);
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x3E25);
        let mut scratch = DiffScratch::new();
        for _ in 0..200 {
            let alphabet = rng.gen_range(1..6u32);
            let n = rng.gen_range(0..32);
            let m = rng.gen_range(0..32);
            let a: Vec<u32> = (0..n).map(|_| rng.gen_range(0..alphabet)).collect();
            let b: Vec<u32> = (0..m).map(|_| rng.gen_range(0..alphabet)).collect();
            let warm = lcs_matches_in(&mut scratch, &a, &b);
            assert_eq!(warm, lcs_matches(&a, &b), "a={a:?} b={b:?}");
        }
    }

    #[test]
    fn agrees_with_dp_oracle_on_random_inputs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xA1CE);
        for _ in 0..400 {
            let alphabet = rng.gen_range(1..6u32);
            let n = rng.gen_range(0..32);
            let m = rng.gen_range(0..32);
            let a: Vec<u32> = (0..n).map(|_| rng.gen_range(0..alphabet)).collect();
            let b: Vec<u32> = (0..m).map(|_| rng.gen_range(0..alphabet)).collect();
            assert_valid(&a, &b);
        }
    }

    #[test]
    fn large_asymmetric_input() {
        let a: Vec<u32> = (0..2000).collect();
        let mut b = a.clone();
        b.retain(|x| x % 3 != 0);
        b.insert(100, 99999);
        assert_valid(&a, &b);
    }

    #[test]
    fn worst_case_total_rewrite_is_linear_space() {
        // 4k fully distinct lines on each side: D = 8k; the linear-space
        // variant must handle this without quadratic memory.
        let a: Vec<u32> = (0..4096).collect();
        let b: Vec<u32> = (100_000..104_096).collect();
        let got = lcs_matches(&a, &b);
        assert!(got.is_empty());
    }
}

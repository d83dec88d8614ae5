//! **Figure 2** — ARPANET transfer times (Purdue → Univ. of Illinois).
//!
//! Same experiment as Figure 1 over the 56 Kbps ARPANET, whose effective
//! per-user throughput the paper found far below line rate due to sharing
//! and congestion [Nag84]. Paper anchor: F-time(500k) ≈ 600 s even on the
//! "fast" network — which is why shadow processing matters beyond slow
//! lines.

use shadow::experiment::{figure_rows, render_figure};
use shadow::{profiles, CpuModel, PAPER_PERCENTS_FIG1, PAPER_SIZES_FIG1};
use shadow_bench::{banner, export_rows, quick_mode};

fn main() {
    banner(
        "Figure 2: ARPANET transfer times to Univ. of Illinois (56 Kbps)",
        "S-time = shadow resubmission, F-time = conventional full transfer",
    );
    let sizes: &[usize] = if quick_mode() {
        &[100_000]
    } else {
        &PAPER_SIZES_FIG1
    };
    let fractions: &[f64] = if quick_mode() {
        &[0.01, 0.20]
    } else {
        &PAPER_PERCENTS_FIG1
    };
    let points = figure_rows(&profiles::arpanet(), sizes, fractions, CpuModel::default());
    print!(
        "{}",
        render_figure("ARPANET, sizes 100k/200k/500k", &points)
    );
    export_rows("fig2_arpanet", points.iter().map(|p| p.to_json()).collect());
}

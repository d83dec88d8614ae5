//! **Figure 1** — Cypress transfer times.
//!
//! Paper: total time per edit-submit-fetch cycle over the 9600-baud
//! Cypress network, file sizes 100 K/200 K/500 K bytes, x-axis = % of the
//! file modified between submissions. Horizontal `F-time` lines show the
//! conventional batch system (the whole file travels every time); `S-time`
//! curves show shadow processing.
//!
//! Paper-reported anchors: F-time(500k) ≈ 600 s; S-time grows roughly
//! linearly with the modified fraction and stays below F-time even at 80%.

use shadow::experiment::{figure_rows, render_figure};
use shadow::{profiles, CpuModel, PAPER_PERCENTS_FIG1, PAPER_SIZES_FIG1};
use shadow_bench::{banner, export_rows, quick_mode};

fn main() {
    banner(
        "Figure 1: Cypress transfer times (9600 baud)",
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
    let points = figure_rows(&profiles::cypress(), sizes, fractions, CpuModel::default());
    print!(
        "{}",
        render_figure("Cypress, sizes 100k/200k/500k", &points)
    );
    export_rows("fig1_cypress", points.iter().map(|p| p.to_json()).collect());
}

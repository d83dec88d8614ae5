//! **Extension (§8.3)** — reverse shadow processing of job output.
//!
//! "Sometimes the result of processing on a supercomputer involves
//! generating a large amount of output … cache the output on the
//! supercomputer, and, next time the same job is run, send the
//! differences between the current output and the previous output."
//!
//! The workload: a job that generates a large report from a data file the
//! user keeps tweaking — most of the report is identical run-to-run. The
//! harness compares server→client payload bytes with and without output
//! shadowing.

use shadow::{
    profiles, ClientConfig, CpuModel, EditModel, FileSpec, ServerConfig, Simulation, SubmitOptions,
};
use shadow_bench::{banner, export_rows, quick_mode};
use shadow_obs::Json;

fn run(shadow_output: bool, rounds: usize) -> (u64, u64) {
    let mut sim = Simulation::new(1).with_cpu(CpuModel::default());
    let server = sim.add_server("superc", ServerConfig::new("superc"));
    let client = sim.add_client("ws", ClientConfig::new("ws", 1));
    let conn = sim.connect(client, server, profiles::cypress()).unwrap();

    let content = shadow::generate_file(&FileSpec::new(30_000, 7));
    sim.edit_file(client, "/data", move |_| content.clone())
        .unwrap();
    let name = sim.canonical_name(client, "/data").unwrap();
    // The job emits the sorted data plus a large generated report: output
    // dominated by content that barely changes between runs.
    sim.edit_file(client, "/report.job", move |_| {
        format!("gen 2000 header-row\nsort {name}\n").into_bytes()
    })
    .unwrap();
    let options = SubmitOptions {
        shadow_output,
        ..SubmitOptions::default()
    };
    for round in 0..rounds {
        if round > 0 {
            let model = EditModel::fraction(0.02, round as u64);
            sim.edit_file(client, "/data", move |c| model.apply(&c))
                .unwrap();
        }
        sim.submit(client, conn, "/report.job", &["/data"], options.clone())
            .unwrap();
        sim.run_until_quiet();
    }
    let down = sim.link_stats(client, server).1.payload_bytes;
    let output_deltas = sim.server_report(server).counter("server", "output_deltas");
    (down, output_deltas)
}

fn main() {
    banner(
        "Extension: reverse shadow processing of output (section 8.3)",
        "re-running a report job after 2% data edits, Cypress downlink bytes",
    );
    let rounds = if quick_mode() { 3 } else { 6 };
    let (plain_bytes, plain_deltas) = run(false, rounds);
    let (shadow_bytes, shadow_deltas) = run(true, rounds);
    println!(
        "{:>22} {:>18} {:>14}",
        "mode", "downlink bytes", "output deltas"
    );
    println!("{:>22} {plain_bytes:>18} {plain_deltas:>14}", "full output");
    println!(
        "{:>22} {shadow_bytes:>18} {shadow_deltas:>14}",
        "shadowed output"
    );
    export_rows(
        "ext_output_shadow",
        vec![
            Json::object()
                .with("mode", "full")
                .with("rounds", rounds)
                .with("downlink_bytes", plain_bytes)
                .with("output_deltas", plain_deltas),
            Json::object()
                .with("mode", "shadow")
                .with("rounds", rounds)
                .with("downlink_bytes", shadow_bytes)
                .with("output_deltas", shadow_deltas),
        ],
    );
    println!();
    println!(
        "reduction: {:.1}x fewer downlink bytes across {rounds} runs",
        plain_bytes as f64 / shadow_bytes.max(1) as f64
    );
    println!("expected shape: after the first (full) delivery, each re-run ships");
    println!("only the output lines the 2% data edit actually changed.");
}

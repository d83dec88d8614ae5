//! **Ablation A (§5.2)** — demand-driven vs request-driven flow control.
//!
//! The paper *argues* for demand-driven control (the server decides when
//! to pull updates) over request-driven (the client pushes). This harness
//! quantifies the argument on the edit-submit cycle: payload bytes on the
//! wire and cycle latency for (a) the conventional request-driven push of
//! full files, (b) demand-driven eager pulls (updates flow in the
//! background during editing), and (c) demand-driven lazy pulls (updates
//! fetched only when a job needs them).

use shadow::experiment::{run_cycle, CycleSetup};
use shadow::{
    profiles, ClientConfig, CpuModel, FlowControl, ServerConfig, Simulation, SubmitOptions,
};
use shadow_bench::{banner, export_rows, quick_mode};
use shadow_obs::Json;

/// Runs one shadow cycle with an explicit server flow-control policy and
/// reports (resubmit seconds, resubmit payload bytes).
fn cycle_with_flow(flow: FlowControl, size: usize, fraction: f64) -> (f64, u64) {
    let mut sim = Simulation::new(1).with_cpu(CpuModel::default());
    let server = sim.add_server("superc", ServerConfig::new("superc").with_flow(flow));
    let client = sim.add_client("ws", ClientConfig::new("ws", 1));
    let conn = sim.connect(client, server, profiles::cypress()).unwrap();

    let content = shadow::generate_file(&shadow::FileSpec::new(size, 7));
    sim.edit_file(client, "/data", {
        let c = content;
        move |_| c.clone()
    })
    .unwrap();
    let name = sim.canonical_name(client, "/data").unwrap();
    sim.edit_file(client, "/run.job", move |_| {
        format!("wc {name}\n").into_bytes()
    })
    .unwrap();
    sim.submit(
        client,
        conn,
        "/run.job",
        &["/data"],
        SubmitOptions::default(),
    )
    .unwrap();
    sim.run_until_quiet();
    let bytes_before = sim.link_stats(client, server).0.payload_bytes;

    let model = shadow::EditModel::fraction(fraction, 8);
    let start = sim.now();
    sim.edit_file(client, "/data", move |c| model.apply(&c))
        .unwrap();
    sim.submit(
        client,
        conn,
        "/run.job",
        &["/data"],
        SubmitOptions::default(),
    )
    .unwrap();
    sim.run_until_quiet();
    let done = sim.finished_jobs(client).last().unwrap().at;
    let bytes = sim.link_stats(client, server).0.payload_bytes - bytes_before;
    ((done - start).as_secs_f64(), bytes)
}

fn main() {
    banner(
        "Ablation A: flow control (section 5.2)",
        "request-driven baseline vs demand-driven eager/lazy/adaptive pulls",
    );
    let size = if quick_mode() { 50_000 } else { 100_000 };
    let fraction = 0.05;

    // The conventional baseline pushes full files from the client side.
    let conventional = CycleSetup::new(profiles::cypress(), size).conventional();
    let conv = run_cycle(&conventional, fraction);

    println!(
        "{:>24} {:>14} {:>16}",
        "policy", "resubmit(s)", "payload bytes"
    );
    println!(
        "{:>24} {:>14.1} {:>16}",
        "request-driven (full)", conv.resubmit_secs, conv.resubmit_bytes
    );
    let mut rows = vec![Json::object()
        .with("policy", "request-driven (full)")
        .with("resubmit_secs", conv.resubmit_secs)
        .with("payload_bytes", conv.resubmit_bytes)];
    for (label, flow) in [
        ("demand eager", FlowControl::DemandEager),
        ("demand lazy", FlowControl::DemandLazy),
        (
            "demand adaptive",
            FlowControl::DemandAdaptive {
                eager_queue_limit: 2,
                cache_pressure_limit: 0.9,
            },
        ),
    ] {
        let (secs, bytes) = cycle_with_flow(flow, size, fraction);
        println!("{label:>24} {secs:>14.1} {bytes:>16}");
        rows.push(
            Json::object()
                .with("policy", label)
                .with("resubmit_secs", secs)
                .with("payload_bytes", bytes),
        );
    }
    export_rows("ablation_flow_control", rows);
    println!();
    println!(
        "expected shape: every demand-driven mode moves ~{:.0}% of the",
        fraction * 100.0
    );
    println!("file instead of all of it; eager overlaps the transfer with editing");
    println!("so its cycle time is lowest.");
}

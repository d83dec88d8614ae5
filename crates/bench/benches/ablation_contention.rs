//! **Ablation F (§2.1/§5.2)** — many clients sharing one supercomputer.
//!
//! "Because a supercomputer serves several users, it is likely to be
//! swamped with several such remote login and file transfer sessions" —
//! and under request-driven flow "if the remote host serves several
//! clients, it may get overrun by such updates". This harness puts N
//! clients through simultaneous edit-submit cycles against one server and
//! compares conventional (request-driven full pushes) with shadow
//! processing: total payload into the server and the last job's
//! completion time.

use shadow::{
    profiles, ClientConfig, CpuModel, EditModel, FileSpec, ServerConfig, SimTime, Simulation,
    SubmitOptions, TransferMode,
};
use shadow_bench::{banner, export_rows, quick_mode};
use shadow_obs::Json;

fn run(mode: TransferMode, clients: usize, rounds: usize) -> (f64, u64, u64) {
    let mut sim = Simulation::new(1).with_cpu(CpuModel::default());
    let server = sim.add_server("superc", ServerConfig::new("superc").with_max_running(2));
    let mut handles = Vec::new();
    for i in 0..clients {
        let host = format!("ws{i}");
        let config = match mode {
            TransferMode::Shadow => ClientConfig::new(host.clone(), 1),
            TransferMode::Conventional => ClientConfig::new(host.clone(), 1).conventional(),
        };
        let client = sim.add_client(&host, config);
        let conn = sim.connect(client, server, profiles::cypress()).unwrap();
        let content = shadow::generate_file(&FileSpec::new(40_000, i as u64));
        sim.edit_file(client, "/data", move |_| content.clone())
            .unwrap();
        let name = sim.canonical_name(client, "/data").unwrap();
        sim.edit_file(client, "/run.job", move |_| {
            format!("wc {name}\n").into_bytes()
        })
        .unwrap();
        handles.push((client, conn));
    }
    // Interleaved rounds: everyone edits 3% and submits "at once".
    for round in 0..rounds {
        for (i, &(client, conn)) in handles.iter().enumerate() {
            if round > 0 {
                let model = EditModel::fraction(0.03, (round * 100 + i) as u64);
                sim.edit_file(client, "/data", move |c| model.apply(&c))
                    .unwrap();
            }
            sim.submit(
                client,
                conn,
                "/run.job",
                &["/data"],
                SubmitOptions::default(),
            )
            .unwrap();
        }
        sim.run_until_quiet();
    }
    let last_done: SimTime = handles
        .iter()
        .map(|&(c, _)| sim.finished_jobs(c).last().unwrap().at)
        .max()
        .unwrap();
    let total_payload: u64 = handles
        .iter()
        .map(|&(c, _)| sim.link_stats(c, server).0.payload_bytes)
        .sum();
    let jobs: u64 = sim
        .server_report(server)
        .counter("server", "jobs_completed");
    (last_done.as_secs_f64(), total_payload, jobs)
}

fn main() {
    banner(
        "Ablation F: multi-client contention at one supercomputer site",
        "N clients x 40 KB files, repeated 3% edits over Cypress lines",
    );
    let (clients, rounds) = if quick_mode() { (2, 2) } else { (4, 3) };
    println!(
        "{:>16} {:>10} {:>16} {:>18} {:>8}",
        "mode", "clients", "makespan(s)", "uplink bytes", "jobs"
    );
    let mut rows = Vec::new();
    for (label, mode) in [
        ("conventional", TransferMode::Conventional),
        ("shadow", TransferMode::Shadow),
    ] {
        let (makespan, payload, jobs) = run(mode, clients, rounds);
        println!("{label:>16} {clients:>10} {makespan:>16.1} {payload:>18} {jobs:>8}");
        rows.push(
            Json::object()
                .with("mode", label)
                .with("clients", clients)
                .with("rounds", rounds)
                .with("makespan_secs", makespan)
                .with("uplink_bytes", payload)
                .with("jobs", jobs),
        );
    }
    export_rows("ablation_contention", rows);
    println!();
    println!("expected shape: with shadow processing the server ingests each 40 KB");
    println!("file once and then only 3% deltas, so total uplink collapses and the");
    println!("makespan tracks job execution instead of file transfer.");
}

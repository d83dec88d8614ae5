//! The paper's motivating scenario (§2.1): a scientist's repeated
//! edit-submit-fetch cycle over a 9600-baud Cypress line, comparing the
//! conventional batch system against shadow processing.
//!
//! Run with: `cargo run --example edit_submit_cycle`

use shadow::prelude::*;
use shadow::{CpuModel, EditModel, FileSpec, SimError};

const FILE_SIZE: usize = 100_000;
const SESSIONS: usize = 4;
const EDIT_FRACTION: f64 = 0.05;

fn run_mode(mode: TransferMode) -> Result<(), SimError> {
    let label = match mode {
        TransferMode::Shadow => "shadow processing",
        TransferMode::Conventional => "conventional batch",
    };
    println!("--- {label} over Cypress (9600 baud), {FILE_SIZE} byte data file ---");

    let mut sim = Simulation::new(1).with_cpu(CpuModel::default());
    let server = sim.add_server(
        "superc",
        ServerConfig::builder("superc")
            .build()
            .expect("valid config"),
    );
    let client_config = match mode {
        TransferMode::Shadow => ClientConfig::builder("ws", 1),
        TransferMode::Conventional => ClientConfig::builder("ws", 1).conventional(),
    }
    .build()
    .expect("valid config");
    let client = sim.add_client("ws", client_config);
    let conn = sim.connect(client, server, profiles::cypress())?;

    let content = shadow::generate_file(&FileSpec::new(FILE_SIZE, 1));
    sim.edit_file(client, "/experiment.dat", move |_| content.clone())?;
    let data_name = sim.canonical_name(client, "/experiment.dat")?;
    sim.edit_file(client, "/run.job", move |_| {
        format!("wc {data_name}\n").into_bytes()
    })?;

    let mut prev_bytes = 0;
    for session in 0..SESSIONS {
        let start = sim.now();
        if session > 0 {
            // The scientist notices a slight error and corrects it (§5.1).
            let model = EditModel::fraction(EDIT_FRACTION, session as u64);
            sim.edit_file(client, "/experiment.dat", move |c| model.apply(&c))?;
        }
        sim.submit(
            client,
            conn,
            "/run.job",
            &["/experiment.dat"],
            SubmitOptions::default(),
        )?;
        sim.run_until_quiet();
        let done = sim.finished_jobs(client).last().expect("job completed").at;
        let sent = sim.link_stats(client, server).0.payload_bytes;
        println!(
            "cycle {}: {:>7.1}s, {:>7} bytes uplink{}",
            session + 1,
            (done - start).as_secs_f64(),
            sent - prev_bytes,
            if session == 0 {
                "  (initial full transfer)"
            } else {
                ""
            },
        );
        prev_bytes = sent;
    }
    let total = sim.link_stats(client, server).0;
    println!(
        "total uplink: {} payload bytes in {} messages, finished at t={}\n",
        total.payload_bytes,
        total.messages,
        sim.now()
    );
    Ok(())
}

fn main() -> Result<(), SimError> {
    println!(
        "Four edit-submit-fetch cycles, editing {:.0}% of the file each time.\n",
        EDIT_FRACTION * 100.0
    );
    run_mode(TransferMode::Conventional)?;
    run_mode(TransferMode::Shadow)?;
    println!("→ after the first submission, shadow processing ships only the");
    println!("  changed lines; the conventional system re-ships everything.");
    Ok(())
}

//! Quickstart: a real (threaded) shadow server and one client.
//!
//! Deploys the server state machine in its own thread over in-process
//! pipes (`Deployment::new(...).pipes()`) —
//! connects a client, runs an editing session, submits a job, edits the
//! data and resubmits, printing what actually travelled each time.
//!
//! Run with: `cargo run --example quickstart`

use std::time::Duration;

use shadow::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("starting shadow server thread…");
    let system = Deployment::new(
        ServerConfig::builder("supercomputer")
            .build()
            .expect("valid config"),
    )
    .pipes()?;
    let mut client = system.connect_client(
        ClientConfig::builder("workstation", 1)
            .build()
            .expect("valid config"),
    );
    client.wait_ready(Duration::from_secs(5))?;
    println!("session established.\n");

    // The scientist's files. In the full system these ids come from name
    // resolution (see the nfs_naming example); here we assign them.
    let data = FileRef::new(FileId::new(1), "workstation:/home/sci/galaxy.dat");
    let job = FileRef::new(FileId::new(2), "workstation:/home/sci/analyze.job");

    // Editing session #1: create the data and the job command file.
    let dataset: Vec<u8> = (0..2000)
        .map(|i| format!("{i:06} {:8.3}\n", (i as f64 * 0.37).sin() * 100.0))
        .collect::<String>()
        .into_bytes();
    client.edit_finished(&data, dataset.clone());
    client.edit_finished(
        &job,
        b"wc workstation:/home/sci/galaxy.dat\nhead 3 workstation:/home/sci/galaxy.dat\n".to_vec(),
    );

    println!("submitting analyze.job (first time: the whole file must travel)…");
    client.submit(&job, std::slice::from_ref(&data), SubmitOptions::default())?;
    let (job_id, output, _, stats) = client.wait_job(Duration::from_secs(10))?;
    println!(
        "{job_id} completed in {} ms of server time:",
        stats.running_ms
    );
    println!("{}", String::from_utf8_lossy(&output));
    let m = client.report();
    println!(
        "traffic so far: {} full transfer(s), {} delta(s), {} payload bytes\n",
        m.counter("client", "fulls_sent"),
        m.counter("client", "deltas_sent"),
        m.counter("client", "update_payload_bytes")
    );

    // Editing session #2: fix one record, resubmit the same job.
    println!("editing one record and resubmitting…");
    let mut edited = dataset;
    let patch = b"000042 REDACTED\n";
    edited.splice(42 * 16..43 * 16, patch.iter().copied());
    client.edit_finished(&data, edited);
    client.submit(&job, &[data], SubmitOptions::default())?;
    let (job_id, output, _, _) = client.wait_job(Duration::from_secs(10))?;
    println!("{job_id} completed:");
    println!("{}", String::from_utf8_lossy(&output));
    let m = client.report();
    println!(
        "traffic total: {} full transfer(s), {} delta(s), {} payload bytes",
        m.counter("client", "fulls_sent"),
        m.counter("client", "deltas_sent"),
        m.counter("client", "update_payload_bytes")
    );
    println!("→ the resubmission travelled as a tiny ed-script delta.");

    drop(client);
    let server = system.shutdown().remove(0);
    let report = server.report();
    println!(
        "\nserver saw: {} deltas applied, {} jobs completed",
        report.counter("server", "delta_updates"),
        report.counter("server", "jobs_completed")
    );
    Ok(())
}

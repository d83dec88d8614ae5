//! One client, two supercomputer sites, routed output (§6.1 + §8.3).
//!
//! "Multiple clients can have connections open to a server simultaneously,
//! and a client can have simultaneous connections to multiple servers."
//! The future-work section adds "routing the output to different hosts" —
//! e.g. a host with a high-speed printer.
//!
//! The scientist's workstation submits the same analysis to two sites over
//! different links, with the second job's output delivered to a separate
//! print host. Background updates keep both sites' shadows fresh while
//! the user keeps editing.
//!
//! Run with: `cargo run --example multi_site`

use shadow::prelude::*;
use shadow::{EditModel, FileSpec, Notification, SimError};

fn main() -> Result<(), SimError> {
    let mut sim = Simulation::new(1);
    let purdue = sim.add_server(
        "purdue-cyber",
        ServerConfig::builder("purdue-cyber")
            .build()
            .expect("valid config"),
    );
    let uiuc = sim.add_server(
        "uiuc-cray",
        ServerConfig::builder("uiuc-cray")
            .build()
            .expect("valid config"),
    );

    let ws = sim.add_client(
        "ws",
        ClientConfig::builder("ws", 1)
            .build()
            .expect("valid config"),
    );
    let printer = sim.add_client(
        "print-host",
        ClientConfig::builder("print-host", 1)
            .build()
            .expect("valid config"),
    );

    // Local site over Cypress; remote site over ARPANET; the print host
    // sits next to the remote site.
    let conn_purdue = sim.connect(ws, purdue, profiles::cypress())?;
    let conn_uiuc = sim.connect(ws, uiuc, profiles::arpanet())?;
    let _printer_conn = sim.connect(printer, uiuc, profiles::lan())?;

    let content = shadow::generate_file(&FileSpec::new(40_000, 9));
    sim.edit_file(ws, "/field.dat", move |_| content.clone())?;
    let data = sim.canonical_name(ws, "/field.dat")?;
    sim.edit_file(ws, "/survey.job", {
        let d = data.clone();
        move |_| format!("wc {d}\nsum {d}\n").into_bytes()
    })?;

    println!("submitting to both sites…");
    sim.submit(
        ws,
        conn_purdue,
        "/survey.job",
        &["/field.dat"],
        SubmitOptions::default(),
    )?;
    sim.submit(
        ws,
        conn_uiuc,
        "/survey.job",
        &["/field.dat"],
        SubmitOptions {
            deliver_to: Some(HostName::new("print-host")),
            ..SubmitOptions::default()
        },
    )?;
    sim.run_until_quiet();

    let local = &sim.finished_jobs(ws)[0];
    println!(
        "purdue result at t={:>8}: {}",
        local.at,
        String::from_utf8_lossy(&local.output)
            .lines()
            .next()
            .unwrap_or("")
    );
    let routed = &sim.finished_jobs(printer)[0];
    println!(
        "uiuc result routed to print-host at t={:>8}: {}",
        routed.at,
        String::from_utf8_lossy(&routed.output)
            .lines()
            .next()
            .unwrap_or("")
    );

    // Keep editing: background notifications flow to BOTH sites without
    // any submit (§5.1 concurrency).
    println!("\nediting 3% of the data; shadows update in the background…");
    let model = EditModel::fraction(0.03, 77);
    sim.edit_file(ws, "/field.dat", move |c| model.apply(&c))?;
    sim.run_until_quiet();
    let m = sim.client_report(ws);
    println!(
        "client traffic: {} notifies, {} deltas, {} fulls",
        m.counter("client", "notifies_sent"),
        m.counter("client", "deltas_sent"),
        m.counter("client", "fulls_sent")
    );
    assert!(
        m.counter("client", "deltas_sent") >= 2,
        "both sites pulled the edit as deltas"
    );

    // Resubmit to the remote site: the shadow is already current, so the
    // submit itself is short and quick.
    let start = sim.now();
    sim.submit(
        ws,
        conn_uiuc,
        "/survey.job",
        &["/field.dat"],
        SubmitOptions::default(),
    )?;
    sim.run_until_quiet();
    let done = sim
        .notifications(ws)
        .iter()
        .rev()
        .find(|(_, n)| matches!(n, Notification::JobFinished { .. }))
        .expect("resubmission completed")
        .0;
    println!(
        "resubmission round-trip with warm shadow: {:.1}s",
        (done - start).as_secs_f64()
    );
    Ok(())
}

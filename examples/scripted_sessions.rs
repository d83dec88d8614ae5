//! A scientist's week of scripted editing sessions (§6.3.2 version
//! control, end to end).
//!
//! Drives a sequence of [`ScriptedEditor`] sessions — substitutions,
//! deletions, insertions, the way real parameter files evolve — through
//! the shadow editor wrapper, and prints what each session cost on a
//! 9600-baud line: version numbers, delta bytes, and the version-store
//! pruning driven by server acknowledgements.
//!
//! Run with: `cargo run --example scripted_sessions`

use shadow::prelude::*;
use shadow::{ScriptedEditor, SimError};

fn main() -> Result<(), SimError> {
    let mut sim = Simulation::new(1);
    let server = sim.add_server(
        "superc",
        ServerConfig::builder("superc")
            .build()
            .expect("valid config"),
    );
    let client = sim.add_client(
        "ws",
        ClientConfig::builder("ws", 1)
            .build()
            .expect("valid config"),
    );
    let conn = sim.connect(client, server, profiles::cypress())?;

    // Monday: write the parameter file and the job, submit.
    let initial: String = (0..800)
        .map(|i| format!("param_{i:03} = {}\n", i * 7 % 100))
        .collect::<String>()
        + "# TODO: tune param_400\nmax_iterations = 10\n";
    sim.edit_file(client, "/params.cfg", {
        let text = initial.clone();
        move |_| text.clone().into_bytes()
    })?;
    let name = sim.canonical_name(client, "/params.cfg")?;
    sim.edit_file(client, "/fit.job", move |_| {
        format!("wc {name}\nstats {name}\n").into_bytes()
    })?;
    sim.submit(
        client,
        conn,
        "/fit.job",
        &["/params.cfg"],
        SubmitOptions::default(),
    )?;
    sim.run_until_quiet();
    report(&sim, client, server, "monday: initial submission");

    // The week's editing sessions, as editor scripts.
    let sessions: Vec<(&str, ScriptedEditor)> = vec![
        (
            "tuesday: bump iterations",
            ScriptedEditor::new().substitute("max_iterations = 10", "max_iterations = 50"),
        ),
        (
            "wednesday: fix the flagged parameter",
            ScriptedEditor::new()
                .substitute("param_400 = 0", "param_400 = 42")
                .delete_matching("# TODO"),
        ),
        (
            "thursday: add a comment block",
            ScriptedEditor::new()
                .insert_line(1, "# calibration run 4")
                .append_line("# reviewed by rcy"),
        ),
    ];
    for (label, editor) in sessions {
        let mut editor = editor;
        sim.edit_file_with(client, "/params.cfg", &mut editor)?;
        sim.submit(
            client,
            conn,
            "/fit.job",
            &["/params.cfg"],
            SubmitOptions::default(),
        )?;
        sim.run_until_quiet();
        report(&sim, client, server, label);
    }

    let last = sim.finished_jobs(client).last().expect("jobs ran").clone();
    println!(
        "\nfinal job output:\n{}",
        String::from_utf8_lossy(&last.output)
    );
    let report = sim.client_report(client);
    println!(
        "version store now holds {} version(s), {} bytes — older versions were \
         pruned as the server acknowledged them.",
        report.counter("versions", "versions"),
        report.counter("versions", "bytes")
    );
    Ok(())
}

fn report(sim: &Simulation, client: shadow::ClientId, server: shadow::ServerId, label: &str) {
    let m = sim.client_report(client);
    let link = sim.link_stats(client, server).0;
    println!(
        "{label:<42} uplink total {:>7} B   ({} full, {} delta)",
        link.payload_bytes,
        m.counter("client", "fulls_sent"),
        m.counter("client", "deltas_sent")
    );
}

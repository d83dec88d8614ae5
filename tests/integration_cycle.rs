//! End-to-end integration: the edit-submit-fetch cycle across the whole
//! stack (vfs → client → wire → server → executor → output delivery),
//! checking both functional results and the traffic/time characteristics
//! the paper claims.

use shadow::prelude::*;
use shadow::{CpuModel, EditModel, FileSpec, JobStatus, Notification};

fn setup_with_data(
    size: usize,
) -> (
    Simulation,
    shadow::ClientId,
    shadow::ServerId,
    shadow::ConnId,
) {
    let mut sim = Simulation::new(1);
    let server = sim.add_server("superc", ServerConfig::new("superc"));
    let client = sim.add_client("ws", ClientConfig::new("ws", 1));
    let conn = sim.connect(client, server, profiles::cypress()).unwrap();
    let content = shadow::generate_file(&FileSpec::new(size, 1));
    sim.edit_file(client, "/data", move |_| content.clone())
        .unwrap();
    let name = sim.canonical_name(client, "/data").unwrap();
    sim.edit_file(client, "/run.job", move |_| {
        format!("wc {name}\n").into_bytes()
    })
    .unwrap();
    (sim, client, server, conn)
}

#[test]
fn five_session_cycle_transfers_shrink_after_first() {
    let (mut sim, client, server, conn) = setup_with_data(50_000);
    let mut uplink_per_cycle = Vec::new();
    let mut prev = 0;
    for session in 0..5 {
        if session > 0 {
            let model = EditModel::fraction(0.05, session as u64);
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
        sim.run_until_quiet();
        let sent = sim.link_stats(client, server).0.payload_bytes;
        uplink_per_cycle.push(sent - prev);
        prev = sent;
    }
    assert_eq!(sim.finished_jobs(client).len(), 5);
    // First cycle carries the whole file; every later cycle carries ~5%.
    assert!(uplink_per_cycle[0] > 50_000);
    for (i, &bytes) in uplink_per_cycle.iter().enumerate().skip(1) {
        assert!(
            bytes < uplink_per_cycle[0] / 5,
            "cycle {i} sent {bytes} bytes"
        );
    }
}

#[test]
fn shadow_beats_conventional_on_resubmission_time() {
    let run = |conventional: bool| -> f64 {
        let mut sim = Simulation::new(1).with_cpu(CpuModel::default());
        let server = sim.add_server("superc", ServerConfig::new("superc"));
        let config = if conventional {
            ClientConfig::new("ws", 1).conventional()
        } else {
            ClientConfig::new("ws", 1)
        };
        let client = sim.add_client("ws", config);
        let conn = sim.connect(client, server, profiles::cypress()).unwrap();
        let content = shadow::generate_file(&FileSpec::new(100_000, 1));
        sim.edit_file(client, "/data", move |_| content.clone())
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
        let model = EditModel::fraction(0.05, 9);
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
        (sim.finished_jobs(client).last().unwrap().at - start).as_secs_f64()
    };
    let conventional = run(true);
    let shadow = run(false);
    // The paper: "the entire processing is four times faster under our
    // system" for <=20% edits; at 5% we expect well above 2x.
    assert!(
        conventional / shadow > 2.0,
        "conventional {conventional:.1}s vs shadow {shadow:.1}s"
    );
}

#[test]
fn status_queries_track_job_lifecycle() {
    let (mut sim, client, _server, conn) = setup_with_data(10_000);
    // A deliberately slow job.
    sim.edit_file(client, "/slow.job", |_| b"compute 2000000000\n".to_vec())
        .unwrap();
    sim.submit(client, conn, "/slow.job", &[], SubmitOptions::default())
        .unwrap();
    // Let the submit reach the server and the job start, then query.
    let deadline = sim.now() + shadow::SimTime::from_secs(30);
    sim.run_until(deadline);
    sim.status(client, conn, None).unwrap();
    sim.run_until_quiet();
    let report = sim
        .notifications(client)
        .iter()
        .find_map(|(_, n)| match n {
            Notification::StatusReport { entries, .. } => Some(entries.clone()),
            _ => None,
        })
        .expect("a status report arrived");
    assert_eq!(report.len(), 1);
    assert!(
        matches!(report[0].status, JobStatus::Running | JobStatus::Queued),
        "status was {:?}",
        report[0].status
    );
    // After completion, a specific query reports Completed.
    let job = report[0].job;
    sim.status(client, conn, Some(job)).unwrap();
    sim.run_until_quiet();
    let last = sim
        .notifications(client)
        .iter()
        .rev()
        .find_map(|(_, n)| match n {
            Notification::StatusReport { entries, .. } => Some(entries.clone()),
            _ => None,
        })
        .unwrap();
    assert_eq!(last[0].status, JobStatus::Completed);
}

#[test]
fn multi_file_job_with_mixed_freshness() {
    let (mut sim, client, server, conn) = setup_with_data(20_000);
    // A second data file and a job reading both.
    let content2 = shadow::generate_file(&FileSpec::new(5_000, 2));
    sim.edit_file(client, "/data2", move |_| content2.clone())
        .unwrap();
    let n1 = sim.canonical_name(client, "/data").unwrap();
    let n2 = sim.canonical_name(client, "/data2").unwrap();
    sim.edit_file(client, "/both.job", move |_| {
        format!("wc {n1} {n2}\n").into_bytes()
    })
    .unwrap();
    sim.submit(
        client,
        conn,
        "/both.job",
        &["/data", "/data2"],
        SubmitOptions::default(),
    )
    .unwrap();
    sim.run_until_quiet();

    // Edit only one of the two files; resubmit. Only that file travels.
    let before = sim.server_report(server);
    let model = EditModel::fraction(0.10, 3);
    sim.edit_file(client, "/data2", move |c| model.apply(&c))
        .unwrap();
    sim.submit(
        client,
        conn,
        "/both.job",
        &["/data", "/data2"],
        SubmitOptions::default(),
    )
    .unwrap();
    sim.run_until_quiet();
    let after = sim.server_report(server);
    assert_eq!(
        after.counter("server", "delta_updates") - before.counter("server", "delta_updates"),
        1
    );
    assert_eq!(
        after.counter("server", "full_updates"),
        before.counter("server", "full_updates")
    );
    let jobs = sim.finished_jobs(client);
    assert_eq!(jobs.len(), 2);
    let out = String::from_utf8_lossy(&jobs[1].output);
    assert_eq!(out.lines().count(), 2, "wc reported both files: {out}");
}

#[test]
fn failed_job_reports_errors_and_exit_code() {
    let (mut sim, client, _server, conn) = setup_with_data(1_000);
    sim.edit_file(client, "/bad.job", |_| b"cat nonexistent:/file\n".to_vec())
        .unwrap();
    sim.submit(client, conn, "/bad.job", &[], SubmitOptions::default())
        .unwrap();
    sim.run_until_quiet();
    let jobs = sim.finished_jobs(client);
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].stats.exit_code, 1);
    assert!(String::from_utf8_lossy(&jobs[0].errors).contains("no such shadow file"));
}

#[test]
fn job_priorities_order_the_batch_queue() {
    let (mut sim, client, _server, conn) = setup_with_data(1_000);
    // Three jobs: the first occupies the single batch slot; the later two
    // queue and must run high-priority-first.
    sim.edit_file(client, "/a.job", |_| {
        b"compute 200000000\necho first\n".to_vec()
    })
    .unwrap();
    sim.edit_file(client, "/b.job", |_| b"echo low\n".to_vec())
        .unwrap();
    sim.edit_file(client, "/c.job", |_| b"echo high\n".to_vec())
        .unwrap();
    sim.submit(client, conn, "/a.job", &[], SubmitOptions::default())
        .unwrap();
    sim.submit(
        client,
        conn,
        "/b.job",
        &[],
        SubmitOptions {
            priority: 1,
            ..SubmitOptions::default()
        },
    )
    .unwrap();
    sim.submit(
        client,
        conn,
        "/c.job",
        &[],
        SubmitOptions {
            priority: 9,
            ..SubmitOptions::default()
        },
    )
    .unwrap();
    sim.run_until_quiet();
    let outputs: Vec<String> = sim
        .finished_jobs(client)
        .iter()
        .map(|j| String::from_utf8_lossy(&j.output).trim().to_string())
        .collect();
    assert_eq!(outputs, vec!["first", "high", "low"]);
}

//! Output routing (§8.3: "routing the output to different hosts") and
//! delivery fallbacks: the output goes to the requested host when it has a
//! live session, else back to the submitter; a submitter that reconnects
//! under the same host name still receives late output.

use shadow::prelude::*;

#[test]
fn output_routes_to_named_host() {
    let mut sim = Simulation::new(1);
    let server = sim.add_server("sc", ServerConfig::new("sc"));
    let submitter = sim.add_client("ws", ClientConfig::new("ws", 1));
    let printer = sim.add_client("printer", ClientConfig::new("printer", 1));
    let conn = sim.connect(submitter, server, profiles::lan()).unwrap();
    sim.connect(printer, server, profiles::lan()).unwrap();

    sim.edit_file(submitter, "/j", |_| b"echo routed output\n".to_vec())
        .unwrap();
    sim.submit(
        submitter,
        conn,
        "/j",
        &[],
        SubmitOptions {
            deliver_to: Some(HostName::new("printer")),
            ..SubmitOptions::default()
        },
    )
    .unwrap();
    sim.run_until_quiet();
    assert!(sim.finished_jobs(submitter).is_empty());
    let routed = sim.finished_jobs(printer);
    assert_eq!(routed.len(), 1);
    assert_eq!(routed[0].output, b"routed output\n");
}

#[test]
fn unknown_route_falls_back_to_submitter() {
    let mut sim = Simulation::new(1);
    let server = sim.add_server("sc", ServerConfig::new("sc"));
    let submitter = sim.add_client("ws", ClientConfig::new("ws", 1));
    let conn = sim.connect(submitter, server, profiles::lan()).unwrap();
    sim.edit_file(submitter, "/j", |_| b"echo fallback\n".to_vec())
        .unwrap();
    sim.submit(
        submitter,
        conn,
        "/j",
        &[],
        SubmitOptions {
            deliver_to: Some(HostName::new("no-such-host")),
            ..SubmitOptions::default()
        },
    )
    .unwrap();
    sim.run_until_quiet();
    let jobs = sim.finished_jobs(submitter);
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].output, b"fallback\n");
}

#[test]
fn submitter_reconnect_under_same_host_receives_late_output() {
    let mut sim = Simulation::new(1);
    let server = sim.add_server("sc", ServerConfig::new("sc"));
    let client = sim.add_client("ws", ClientConfig::new("ws", 1));
    let conn = sim.connect(client, server, profiles::lan()).unwrap();
    // A job slow enough to outlive the first connection.
    sim.edit_file(client, "/slow.job", |_| {
        b"compute 20000000000\necho finally\n".to_vec()
    })
    .unwrap();
    sim.submit(client, conn, "/slow.job", &[], SubmitOptions::default())
        .unwrap();
    sim.run_until(sim.now() + SimTime::from_secs(2));
    // Connection drops mid-run; the client reconnects (same host name).
    sim.drop_connection(client, server);
    let _conn2 = sim.connect(client, server, profiles::lan()).unwrap();
    sim.run_until_quiet();
    let jobs = sim.finished_jobs(client);
    assert_eq!(jobs.len(), 1, "late output reached the reconnected session");
    assert_eq!(jobs[0].output, b"finally\n");
}

#[test]
fn output_to_disconnected_everything_is_dropped_not_fatal() {
    let mut sim = Simulation::new(1);
    let server = sim.add_server("sc", ServerConfig::new("sc"));
    let client = sim.add_client("ws", ClientConfig::new("ws", 1));
    let conn = sim.connect(client, server, profiles::lan()).unwrap();
    sim.edit_file(client, "/slow.job", |_| {
        b"compute 20000000000\necho lost\n".to_vec()
    })
    .unwrap();
    sim.submit(client, conn, "/slow.job", &[], SubmitOptions::default())
        .unwrap();
    sim.run_until(sim.now() + SimTime::from_secs(2));
    sim.drop_connection(client, server);
    // Nobody to deliver to: the server completes the job and moves on.
    sim.run_until_quiet();
    assert!(sim.finished_jobs(client).is_empty());
    assert_eq!(
        sim.server_report(server)
            .counter("server", "jobs_completed"),
        1
    );
}

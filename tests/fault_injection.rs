//! Fault injection: the best-effort promises of §5.1 under adversity —
//! cache loss, starved budgets, pruned version chains, dropped
//! connections. The system must degrade to full transfers, never to
//! wrong results.

use shadow::prelude::*;
use shadow::{EditModel, FileSpec};

#[test]
fn repeated_cache_loss_always_recovers() {
    let mut sim = Simulation::new(1);
    let server = sim.add_server("superc", ServerConfig::new("superc"));
    let client = sim.add_client("ws", ClientConfig::new("ws", 1));
    let conn = sim.connect(client, server, profiles::lan()).unwrap();

    let content = shadow::generate_file(&FileSpec::new(20_000, 1));
    sim.edit_file(client, "/data", move |_| content.clone())
        .unwrap();
    let name = sim.canonical_name(client, "/data").unwrap();
    sim.edit_file(client, "/run.job", move |_| {
        format!("wc {name}\n").into_bytes()
    })
    .unwrap();

    for round in 0..4 {
        if round > 0 {
            sim.drop_server_cache(server);
            let model = EditModel::fraction(0.05, round as u64);
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
    }
    let jobs = sim.finished_jobs(client);
    assert_eq!(jobs.len(), 4);
    for j in &jobs {
        assert_eq!(j.stats.exit_code, 0, "every round still succeeds");
    }
    // Every post-loss round needed full retransfers (no usable base).
    assert!(sim.client_report(client).counter("client", "fulls_sent") >= 4 + 3);
}

#[test]
fn starved_cache_still_runs_jobs_correctly() {
    // Cache smaller than a single data file: nothing can be cached, every
    // submission degenerates to a full transfer, results stay correct.
    let mut sim = Simulation::new(1);
    let server = sim.add_server(
        "superc",
        ServerConfig::builder("superc")
            .cache_budget(1_000)
            .build()
            .unwrap(),
    );
    let client = sim.add_client("ws", ClientConfig::new("ws", 1));
    let conn = sim.connect(client, server, profiles::lan()).unwrap();
    let content = shadow::generate_file(&FileSpec::new(20_000, 1));
    sim.edit_file(client, "/data", move |_| content.clone())
        .unwrap();
    let name = sim.canonical_name(client, "/data").unwrap();
    sim.edit_file(client, "/tiny.job", move |_| {
        format!("head 1 {name}\n").into_bytes()
    })
    .unwrap();
    sim.submit(
        client,
        conn,
        "/tiny.job",
        &["/data"],
        SubmitOptions::default(),
    )
    .unwrap();
    // The data file (20 KB) cannot fit a 1 KB cache: the job can never
    // become runnable. The server retries a bounded number of times, then
    // fails the job *explicitly* — no hang, no corruption.
    sim.run_until_quiet();
    let jobs = sim.finished_jobs(client);
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].stats.exit_code, 1);
    assert!(
        String::from_utf8_lossy(&jobs[0].errors).contains("cannot be retained"),
        "errors: {}",
        String::from_utf8_lossy(&jobs[0].errors)
    );
    assert!(
        sim.server_report(server)
            .counter("cache", "rejected_too_large")
            >= 1
    );
}

#[test]
fn eviction_pressure_forces_retransfer_but_correct_output() {
    let mut sim = Simulation::new(1);
    let server = sim.add_server(
        "superc",
        ServerConfig::builder("superc")
            .cache_budget(30_000)
            .eviction(EvictionPolicy::Lru)
            .build()
            .unwrap(),
    );
    let client = sim.add_client("ws", ClientConfig::new("ws", 1));
    let conn = sim.connect(client, server, profiles::lan()).unwrap();

    // Two 20 KB files cannot both stay cached in 30 KB.
    for i in 0..2 {
        let content = shadow::generate_file(&FileSpec::new(20_000, i));
        sim.edit_file(client, &format!("/d{i}"), move |_| content.clone())
            .unwrap();
    }
    let n0 = sim.canonical_name(client, "/d0").unwrap();
    let n1 = sim.canonical_name(client, "/d1").unwrap();
    sim.edit_file(client, "/j0", {
        let n = n0.clone();
        move |_| format!("wc {n}\n").into_bytes()
    })
    .unwrap();
    sim.edit_file(client, "/j1", {
        let n = n1.clone();
        move |_| format!("wc {n}\n").into_bytes()
    })
    .unwrap();

    for round in 0..3 {
        for (job, data) in [("/j0", "/d0"), ("/j1", "/d1")] {
            let model = EditModel::fraction(0.02, round);
            sim.edit_file(client, data, move |c| model.apply(&c))
                .unwrap();
            sim.submit(client, conn, job, &[data], SubmitOptions::default())
                .unwrap();
            sim.run_until_quiet();
        }
    }
    let jobs = sim.finished_jobs(client);
    assert_eq!(jobs.len(), 6);
    for j in &jobs {
        assert_eq!(j.stats.exit_code, 0);
    }
    let cache = sim.server_report(server);
    assert!(
        cache.counter("cache", "evictions") > 0,
        "pressure must have evicted something"
    );
    // Correctness survived the evictions; extra fulls were the price.
    assert!(sim.client_report(client).counter("client", "fulls_sent") > 4);
}

#[test]
fn zero_retention_client_never_sends_deltas_but_works() {
    // A client configured to keep no old versions can never answer a
    // delta request — every update falls back to a full transfer.
    let env = ShadowEnv {
        version_retention: 0,
        ..ShadowEnv::default()
    };
    let mut sim = Simulation::new(1);
    let server = sim.add_server("superc", ServerConfig::new("superc"));
    // The validated builder rejects zero retention, so this degenerate
    // configuration must go through the raw `with_env` path on purpose.
    let client = sim.add_client("ws", ClientConfig::new("ws", 1).with_env(env));
    let conn = sim.connect(client, server, profiles::lan()).unwrap();

    let content = shadow::generate_file(&FileSpec::new(10_000, 1));
    sim.edit_file(client, "/data", move |_| content.clone())
        .unwrap();
    let name = sim.canonical_name(client, "/data").unwrap();
    sim.edit_file(client, "/run.job", move |_| {
        format!("wc {name}\n").into_bytes()
    })
    .unwrap();
    for round in 0..3u64 {
        let model = EditModel::fraction(0.05, round);
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
    }
    assert_eq!(sim.finished_jobs(client).len(), 3);
    let m = sim.client_report(client);
    // With no retained bases, deltas are impossible... unless the server
    // happens to hold the *latest* version already (dedup). Allow zero.
    assert_eq!(m.counter("client", "deltas_sent"), 0);
    assert!(m.counter("client", "fulls_sent") >= 3);
}

#[test]
fn connection_drop_mid_stream_leaves_server_consistent() {
    let mut sim = Simulation::new(1);
    let server = sim.add_server("superc", ServerConfig::new("superc"));
    let client = sim.add_client("ws", ClientConfig::new("ws", 1));
    let conn = sim.connect(client, server, profiles::lan()).unwrap();
    let content = shadow::generate_file(&FileSpec::new(10_000, 1));
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

    sim.drop_connection(client, server);
    // Reconnect and carry on: a new session, same domain, same shadows.
    let conn2 = sim.connect(client, server, profiles::lan()).unwrap();
    let model = EditModel::fraction(0.05, 5);
    sim.edit_file(client, "/data", move |c| model.apply(&c))
        .unwrap();
    sim.submit(
        client,
        conn2,
        "/run.job",
        &["/data"],
        SubmitOptions::default(),
    )
    .unwrap();
    sim.run_until_quiet();
    let jobs = sim.finished_jobs(client);
    assert_eq!(jobs.len(), 2);
    assert_eq!(jobs[1].stats.exit_code, 0);
    // The shadow survived the disconnect: the resubmission was a delta.
    assert!(sim.server_report(server).counter("server", "delta_updates") >= 1);
}

#[test]
fn oversized_single_file_vs_budget_reports_not_corrupts() {
    let mut sim = Simulation::new(1);
    let server = sim.add_server(
        "superc",
        ServerConfig::new("superc").with_cache_budget(5_000),
    );
    let client = sim.add_client("ws", ClientConfig::new("ws", 1));
    let conn = sim.connect(client, server, profiles::lan()).unwrap();
    // The job file itself fits; jobs without data files run fine.
    sim.edit_file(client, "/ok.job", |_| b"echo fits\n".to_vec())
        .unwrap();
    sim.submit(client, conn, "/ok.job", &[], SubmitOptions::default())
        .unwrap();
    sim.run_until_quiet();
    assert_eq!(sim.finished_jobs(client)[0].output, b"fits\n");
    let _ = server;
}

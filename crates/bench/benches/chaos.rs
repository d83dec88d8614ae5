//! **Chaos suite** — the seeded fault matrix over the reconnect/resume
//! machinery: does a session survive link churn with its delta path
//! warm, and how long does a recovery take?
//!
//! Three row families, each a full client/server deployment under a
//! different fault regime:
//!
//! * `chaos_reset_storm` — a [`FaultTransport`] hard-resets the link on
//!   a schedule, over and over; every outage must end in a resumed
//!   session whose next submission travels as a delta.
//! * `chaos_lossy_link` — the client roams onto a link that drops,
//!   duplicates, and reorders frames. The resume handshake retries
//!   until a `Hello` survives, heartbeats count their losses, and the
//!   fail-over back to a clean link must still find the cache warm.
//! * `chaos_partition` — a TCP [`ChaosProxy`] partitions the network
//!   mid-session; the [`Supervisor`] redials with capped backoff into
//!   the refusing proxy until the partition heals.
//!
//! Every fault decision comes from a seeded generator, so a row is the
//! same run-to-run: the matrix is chaos *testing*, not flakiness.
//! Exports `BENCH_chaos.json`; `bench_guard chaos` gates the recovered-
//! as-delta ratio and the recovery latency against the committed
//! `BENCH_baseline_chaos.json`.

use std::time::{Duration, Instant};

use shadow::tcp::TcpFramed;
use shadow::{
    ChaosProxy, ClientConfig, Deployment, FaultPlan, FaultTransport, FileRef, FrameTransport,
    LiveClient, LiveError, Notification, ServerConfig, SubmitOptions, Supervisor, SupervisorConfig,
    SupervisorEvent,
};
use shadow_bench::{banner, export_rows, quick_mode};
use shadow_obs::Json;
use shadow_proto::FileId;

const WAIT: Duration = Duration::from_secs(10);

/// Idle window for TCP deployments: long enough that an outage plus the
/// whole redial dance never looks like a drained server.
const SERVER_IDLE: Duration = Duration::from_secs(2);

/// Scheduled reset point: comfortably past the handshake plus one
/// cycle's workload, so every reset lands in the heartbeat phase.
const RESET_AFTER: u64 = 64;

fn data_ref(tag: &str) -> FileRef {
    FileRef::new(FileId::new(2), format!("{tag}:/data"))
}

fn job_ref(tag: &str) -> FileRef {
    FileRef::new(FileId::new(1), format!("{tag}:/run.job"))
}

/// What one trial observed; rows aggregate these across seeds.
#[derive(Default)]
struct Trial {
    /// Link losses that required a resumption to recover from.
    outages: u64,
    /// Resumptions the server confirmed (`SessionReady { resumed }`).
    recovered: u64,
    /// Post-recovery submissions (each must travel as a delta).
    resubmits: u64,
    /// Resume handshakes retried because the lossy link ate the Hello.
    handshake_retries: u64,
    /// Heartbeats that never saw their pong.
    pings_missed: u64,
    /// Redial attempts refused while the network was partitioned.
    refused_dials: u64,
    /// Wall-clock nanoseconds per recovery (loss observed → resumed).
    recovery_ns: Vec<f64>,
    /// Client counters after the trial.
    deltas_sent: u64,
    resume_hits: u64,
    resume_fallbacks: u64,
    reconnects: u64,
}

/// The warm-up half of every trial: a data file large enough that the
/// adaptive policy always prefers a delta for a small edit, a job over
/// it, and the first full transfer + execution.
fn warm<T: FrameTransport>(client: &mut LiveClient<T>, tag: &str) -> Vec<u8> {
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

/// One post-recovery submission: append a line and resubmit. The edit
/// is small against a warm base, so it must travel as a delta — the
/// guard checks `deltas_sent` against `resubmits`.
fn resubmit<T: FrameTransport>(client: &mut LiveClient<T>, tag: &str, content: &mut Vec<u8>) {
    content.extend_from_slice(format!("appended after an outage in {tag}\n").as_bytes());
    client.edit_finished(&data_ref(tag), content.clone());
    client
        .submit(
            &job_ref(tag),
            std::slice::from_ref(&data_ref(tag)),
            SubmitOptions::default(),
        )
        .expect("resubmit");
    client.wait_job(WAIT).expect("job after recovery");
}

/// Heartbeats with strictly increasing nonces until the dead link
/// surfaces as a transport close. Exact-nonce matching keeps stale
/// pongs (duplicated by an earlier lossy window) from satisfying a
/// later wait.
fn ping_until_closed<T: FrameTransport>(client: &mut LiveClient<T>, nonce: &mut u64) {
    let deadline = Instant::now() + WAIT;
    loop {
        assert!(Instant::now() < deadline, "link loss was never observed");
        *nonce += 1;
        let n = *nonce;
        let outcome = client.ping(n).and_then(|()| {
            client
                .wait_for(Duration::from_millis(50), move |x| {
                    matches!(x, Notification::Pong { nonce, .. } if *nonce == n)
                })
            .map(|_| ())
        });
        match outcome {
            Ok(()) | Err(LiveError::Timeout) => {}
            Err(e) if e.closed().is_some() => return,
            Err(e) => panic!("expected a transport close, got: {e}"),
        }
    }
}

/// Proves a freshly resumed link end-to-end (one pong with the exact
/// nonce), then drains any `SessionReady` a duplicated `HelloAck` left
/// queued — later waits must only ever see notifications of their own
/// handshake.
fn settle_link<T: FrameTransport>(client: &mut LiveClient<T>, nonce: &mut u64) {
    for _ in 0..64 {
        *nonce += 1;
        let n = *nonce;
        client.ping(n).expect("ping on a resumed link");
        let pong = client.wait_for(Duration::from_millis(100), move |x| {
            matches!(x, Notification::Pong { nonce, .. } if *nonce == n)
        });
        if pong.is_ok() {
            while client
                .wait_for(Duration::from_millis(1), |x| {
                    matches!(x, Notification::SessionReady { .. })
                })
                .is_ok()
            {}
            return;
        }
    }
    panic!("a resumed link never answered a heartbeat");
}

fn is_resumed(ready: &Notification) -> bool {
    matches!(ready, Notification::SessionReady { resumed: true, .. })
}

/// Folds the client's report counters into the trial.
fn harvest<T: FrameTransport>(trial: &mut Trial, client: &LiveClient<T>) {
    let report = client.report();
    trial.deltas_sent = report.counter("client", "deltas_sent");
    trial.resume_hits = report.counter("client", "resume_hits");
    trial.resume_fallbacks = report.counter("client", "resume_fallbacks");
    trial.reconnects = report.counter("client", "reconnects");
}

/// `chaos_reset_storm`: every transport carries a scheduled hard reset;
/// each cycle walks into it, resumes over the next doomed transport,
/// and resubmits as a delta.
fn reset_storm_trial(seed: u64, cycles: usize) -> Trial {
    let system = Deployment::new(ServerConfig::new("sc")).pipes().unwrap();
    let plan = |s: u64| FaultPlan {
        reset_after_sends: Some(RESET_AFTER),
        ..FaultPlan::none(s)
    };
    let tag = format!("ws{seed}");
    let transport = FaultTransport::new(system.connect_transport(), plan(seed));
    let mut client =
        LiveClient::over_transport(ClientConfig::new(tag.clone(), seed), transport).unwrap();
    let mut content = warm(&mut client, &tag);

    let mut trial = Trial::default();
    let mut nonce = 0u64;
    for cycle in 0..cycles {
        ping_until_closed(&mut client, &mut nonce);
        trial.outages += 1;
        let started = Instant::now();
        client.link_down();
        let fresh = FaultTransport::new(
            system.connect_transport(),
            plan(seed.wrapping_mul(31).wrapping_add(cycle as u64 + 1)),
        );
        client.resume_over(fresh).expect("resume handshake");
        let ready = client
            .wait_for(WAIT, |n| matches!(n, Notification::SessionReady { .. }))
            .expect("resumed session");
        assert!(is_resumed(&ready), "seed {seed}: resumption must be confirmed");
        trial.recovered += 1;
        trial.recovery_ns.push(started.elapsed().as_nanos() as f64);
        resubmit(&mut client, &tag, &mut content);
        trial.resubmits += 1;
    }
    harvest(&mut trial, &client);
    drop(client);
    system.shutdown();
    trial
}

/// `chaos_lossy_link`: each cycle roams onto a link that drops (15%),
/// duplicates (10%), and reorders (10%) frames — the resume handshake
/// retries until a Hello survives, heartbeats tally their losses, and
/// the fail-over back to a clean link must still resubmit as a delta.
fn lossy_link_trial(seed: u64, cycles: usize, pings: usize) -> Trial {
    let system = Deployment::new(ServerConfig::new("sc")).pipes().unwrap();
    let tag = format!("ws{seed}");
    let clean = |s: u64| FaultPlan::none(s);
    let lossy = |s: u64| FaultPlan {
        drop_per_mille: 150,
        dup_per_mille: 100,
        delay_per_mille: 100,
        ..FaultPlan::none(s)
    };
    let transport = FaultTransport::new(system.connect_transport(), clean(seed));
    let mut client =
        LiveClient::over_transport(ClientConfig::new(tag.clone(), seed), transport).unwrap();
    let mut content = warm(&mut client, &tag);

    let mut trial = Trial::default();
    let mut nonce = 0u64;
    for cycle in 0..cycles {
        // Roam onto the lossy link: retry the resume handshake until a
        // Hello makes it through the drops.
        client.link_down();
        trial.outages += 1;
        let started = Instant::now();
        let mut attempt = 0u64;
        loop {
            attempt += 1;
            assert!(attempt <= 32, "seed {seed}: resume never survived the loss");
            let mix = seed
                .wrapping_mul(1_000)
                .wrapping_add(cycle as u64 * 37)
                .wrapping_add(attempt);
            let flaky = FaultTransport::new(system.connect_transport(), lossy(mix));
            if client.resume_over(flaky).is_err() {
                client.link_down();
                continue;
            }
            match client.wait_for(Duration::from_millis(300), |n| {
                matches!(n, Notification::SessionReady { .. })
            }) {
                Ok(ready) => {
                    assert!(is_resumed(&ready));
                    break;
                }
                Err(_) => client.link_down(),
            }
        }
        trial.handshake_retries += attempt - 1;
        trial.recovered += 1;
        trial.recovery_ns.push(started.elapsed().as_nanos() as f64);
        settle_link(&mut client, &mut nonce);

        // Heartbeat through the loss window; a dropped ping is a miss,
        // never a failure.
        for _ in 0..pings {
            nonce += 1;
            let n = nonce;
            client.ping(n).expect("ping on the lossy link");
            let pong = client.wait_for(Duration::from_millis(30), move |x| {
                matches!(x, Notification::Pong { nonce, .. } if *nonce == n)
            });
            if pong.is_err() {
                trial.pings_missed += 1;
            }
        }

        // Enough misses: declare the flaky link dead and fail over to a
        // clean one. The cache knowledge must have survived the chaos.
        client.link_down();
        trial.outages += 1;
        let started = Instant::now();
        let fresh = FaultTransport::new(
            system.connect_transport(),
            clean(seed.wrapping_add(0xabc + cycle as u64)),
        );
        client.resume_over(fresh).expect("fail-over handshake");
        let ready = client
            .wait_for(WAIT, |n| matches!(n, Notification::SessionReady { .. }))
            .expect("failed-over session");
        assert!(is_resumed(&ready));
        trial.recovered += 1;
        trial.recovery_ns.push(started.elapsed().as_nanos() as f64);
        settle_link(&mut client, &mut nonce);
        resubmit(&mut client, &tag, &mut content);
        trial.resubmits += 1;
    }
    harvest(&mut trial, &client);
    drop(client);
    system.shutdown();
    trial
}

/// Drives the supervisor's policy clock (virtual time — TCP dials are
/// instant on loopback) until a dial succeeds.
fn redial<N: shadow::Connector>(sup: &mut Supervisor<N>, mut now_ms: u64) -> (N::Transport, u64) {
    for _ in 0..64 {
        match sup.poll(now_ms) {
            Some(SupervisorEvent::Connected { .. }) => {
                return (sup.take_transport().expect("fresh dial"), now_ms);
            }
            Some(SupervisorEvent::DialFailed { retry_at_ms }) => now_ms = retry_at_ms,
            Some(_) => {}
            None => now_ms = sup.next_deadline_ms(),
        }
    }
    panic!("supervisor never reconnected");
}

/// `chaos_partition`: a TCP proxy partitions the network mid-session —
/// live connections are cut and fresh dials are accepted only to be
/// dropped — so redials connect and immediately die until the partition
/// heals. The supervisor's backoff paces the attempts; the session then
/// resumes and resubmits as a delta.
fn partition_trial(seed: u64) -> Trial {
    let runtime = Deployment::new(ServerConfig::new("sc"))
        .tcp("127.0.0.1:0")
        .unwrap();
    let addr = runtime.local_addr().unwrap();
    let server = std::thread::spawn(move || runtime.run_until_idle_for(SERVER_IDLE));
    let proxy = ChaosProxy::start(addr).unwrap();
    let proxy_addr = proxy.addr();

    let mut sup = Supervisor::new(
        move || TcpFramed::connect(proxy_addr),
        SupervisorConfig {
            base_backoff_ms: 10,
            max_backoff_ms: 200,
            seed,
            ..SupervisorConfig::default()
        },
    );
    let (transport, mut now_ms) = redial(&mut sup, 0);
    let tag = format!("ws{seed}");
    let mut client =
        LiveClient::over_transport(ClientConfig::new(tag.clone(), seed), transport).unwrap();
    let mut content = warm(&mut client, &tag);

    let mut trial = Trial::default();
    let mut nonce = 0u64;
    proxy.partition(true);
    ping_until_closed(&mut client, &mut nonce);
    trial.outages += 1;
    let started = Instant::now();
    client.link_down();
    now_ms = sup.link_failed(now_ms + 1);
    loop {
        let (fresh, at) = redial(&mut sup, now_ms);
        now_ms = at;
        let outcome = client
            .resume_over(fresh)
            .and_then(|()| client.wait_for(Duration::from_secs(2), |n| {
                matches!(n, Notification::SessionReady { .. })
            }));
        match outcome {
            Ok(ready) => {
                assert!(is_resumed(&ready), "seed {seed}: partition recovery must resume");
                break;
            }
            Err(_) => {
                // The partitioned proxy accepted the dial only to drop
                // it; after two refusals the network heals.
                trial.refused_dials += 1;
                assert!(trial.refused_dials <= 32, "partition recovery never converged");
                if trial.refused_dials == 2 {
                    proxy.partition(false);
                }
                client.link_down();
                now_ms = sup.link_failed(now_ms + 1);
            }
        }
    }
    trial.recovered += 1;
    trial.recovery_ns.push(started.elapsed().as_nanos() as f64);
    resubmit(&mut client, &tag, &mut content);
    trial.resubmits += 1;
    harvest(&mut trial, &client);
    drop(client);
    server.join().unwrap().unwrap();
    trial
}

/// Aggregates trials into one exported row.
fn row(op: &str, trials: &[Trial]) -> Json {
    let sum = |f: fn(&Trial) -> u64| trials.iter().map(f).sum::<u64>();
    let outages = sum(|t| t.outages);
    let resubmits = sum(|t| t.resubmits);
    let deltas = sum(|t| t.deltas_sent);
    let all_ns: Vec<f64> = trials.iter().flat_map(|t| t.recovery_ns.clone()).collect();
    let mean_ns = all_ns.iter().sum::<f64>() / all_ns.len().max(1) as f64;
    let max_ns = all_ns.iter().fold(0.0f64, |a, &b| a.max(b));
    let ratio = deltas as f64 / resubmits.max(1) as f64;
    println!(
        "{op:<20} {:>2} sessions {outages:>3} outages {:>3} recovered   delta ratio {ratio:>5.2}   recovery {:>8.2} ms mean / {:>8.2} ms max",
        trials.len(),
        sum(|t| t.recovered),
        mean_ns / 1e6,
        max_ns / 1e6,
    );
    Json::object()
        .with("op", op)
        .with("sessions", trials.len())
        .with("outages", outages)
        .with("recovered", sum(|t| t.recovered))
        .with("resubmits", resubmits)
        .with("deltas_sent", deltas)
        .with("delta_ratio", ratio)
        .with("resume_hits", sum(|t| t.resume_hits))
        .with("resume_fallbacks", sum(|t| t.resume_fallbacks))
        .with("reconnects", sum(|t| t.reconnects))
        .with("handshake_retries", sum(|t| t.handshake_retries))
        .with("pings_missed", sum(|t| t.pings_missed))
        .with("refused_dials", sum(|t| t.refused_dials))
        .with("recovery_ms_mean", mean_ns / 1e6)
        .with("recovery_ms_max", max_ns / 1e6)
        .with("ns_per_op", mean_ns)
}

fn main() {
    banner(
        "Chaos suite: reconnect/resume under a seeded fault matrix",
        "scheduled resets, a lossy link, a healed partition (DESIGN.md \u{a7}15)",
    );
    let (seeds, cycles, pings) = if quick_mode() {
        (2u64, 2usize, 12usize)
    } else {
        (3, 3, 25)
    };
    let seed_range = || (1..=seeds).map(|s| s * 7 + 1);

    let rows = vec![
        row(
            "chaos_reset_storm",
            &seed_range()
                .map(|s| reset_storm_trial(s, cycles))
                .collect::<Vec<_>>(),
        ),
        row(
            "chaos_lossy_link",
            &seed_range()
                .map(|s| lossy_link_trial(s, cycles, pings))
                .collect::<Vec<_>>(),
        ),
        row(
            "chaos_partition",
            &seed_range().map(partition_trial).collect::<Vec<_>>(),
        ),
    ];

    export_rows("chaos", rows);
    println!();
    println!("expected shape: recovered == outages everywhere; every post-recovery");
    println!("submission is a delta (ratio 1.0, zero resume fallbacks); recovery is");
    println!("milliseconds, dominated by loss detection, not by the handshake.");
}

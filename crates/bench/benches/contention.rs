//! **Sharded runtime contention** — throughput and latency of the live
//! (threads-and-pipes) server under many concurrent sessions, single
//! runtime vs. domain-affine shards.
//!
//! The paper's server is one process per supercomputer; a busy site
//! "is likely to be swamped with several such … sessions" (§2.1). This
//! harness measures the scale-out answer: N worker shards fed by
//! Hello-reading session readers, each shard owning the sessions of the
//! domains hashed to it. Jobs are tiny `echo`s whose cost is the per-job scheduling
//! overhead, so the bottleneck under load is the per-node execution
//! slots (`max_running` × `job_overhead_ms`) — exactly the resource
//! sharding multiplies. Every session is its own naming domain, so
//! domains spread across shards and the aggregate job-completion rate
//! scales with the shard count even on a single CPU.
//!
//! Exports `BENCH_contention.json`; the acceptance row is 1k sessions,
//! where 4 shards must clear ≥2× the single-shard throughput.

use std::time::{Duration, Instant};

use shadow::{
    ClientConfig, Deployment, ExecProfile, FileId, FileRef, LiveClient, Notification,
    PipeDeployment, ServerConfig, SubmitOptions,
};
use shadow_bench::{banner, export_rows, quick_mode};
use shadow_obs::Json;

/// Execution slots per shard node. With `JOB_OVERHEAD_MS` this caps a
/// single node's completion rate at `SLOTS / overhead` jobs per second;
/// shards multiply the slot pool.
const SLOTS: usize = 8;
/// Fixed per-job scheduling overhead (ms) — small enough to keep the
/// sweep fast, large enough to dominate the ~µs of actual echo work.
const JOB_OVERHEAD_MS: u64 = 20;

struct Row {
    sessions: usize,
    shards: usize,
    makespan: Duration,
    mean_latency_ms: f64,
}

impl Row {
    fn throughput(&self) -> f64 {
        self.sessions as f64 / self.makespan.as_secs_f64().max(1e-9)
    }
}

fn config() -> ServerConfig {
    ServerConfig::new("superc")
        .with_max_running(SLOTS)
        .with_exec(ExecProfile {
            cpu_byte_rate: 2_000_000,
            job_overhead_ms: JOB_OVERHEAD_MS,
        })
}

/// One sweep point: `sessions` clients (each its own domain) connect,
/// submit one tiny job each, and the driver thread pumps them all
/// round-robin until every job has finished. Returns makespan (first
/// submit → last completion) and mean per-job latency.
fn run(sessions: usize, shards: usize) -> Row {
    let system: PipeDeployment = Deployment::new(config())
        .shards(shards)
        .pipes()
        .expect("deploy");

    let mut clients: Vec<LiveClient> = (0..sessions)
        .map(|i| system.connect_client(ClientConfig::new(format!("ws{i}"), i as u64 + 1)))
        .collect();
    for c in &mut clients {
        c.wait_ready(Duration::from_secs(30)).expect("handshake");
    }

    let job = FileRef::new(FileId::new(1), "ws:/tiny.job");
    let start = Instant::now();
    let mut submitted_at = Vec::with_capacity(sessions);
    for c in &mut clients {
        c.edit_finished(&job, b"echo ok\n".to_vec());
        c.submit(&job, &[], SubmitOptions::default())
            .expect("submit");
        submitted_at.push(Instant::now());
    }

    let mut done = vec![false; sessions];
    let mut latency_total = Duration::ZERO;
    let mut finished = 0usize;
    while finished < sessions {
        let mut progressed = false;
        for (i, c) in clients.iter_mut().enumerate() {
            if done[i] {
                continue;
            }
            if c.pump().expect("server alive") > 0 {
                progressed = true;
            }
            if c.take_notifications()
                .iter()
                .any(|n| matches!(n, Notification::JobFinished { .. }))
            {
                done[i] = true;
                latency_total += submitted_at[i].elapsed();
                finished += 1;
            }
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let makespan = start.elapsed();

    drop(clients);
    let nodes = system.shutdown();
    let completed: u64 = nodes
        .iter()
        .map(|n| n.report().counter("server", "jobs_completed"))
        .sum();
    assert_eq!(completed as usize, sessions, "every job must complete");

    Row {
        sessions,
        shards,
        makespan,
        mean_latency_ms: latency_total.as_secs_f64() * 1000.0 / sessions as f64,
    }
}

fn main() {
    banner(
        "Sharded runtime contention: sessions x shards over in-process pipes",
        "tiny echo jobs; bottleneck = exec slots per node (max_running x overhead)",
    );
    let (session_counts, shard_counts): (&[usize], &[usize]) = if quick_mode() {
        (&[100, 1_000], &[1, 4])
    } else {
        (&[100, 1_000, 10_000], &[1, 4, 8])
    };

    println!(
        "{:>10} {:>8} {:>14} {:>16} {:>18}",
        "sessions", "shards", "makespan(s)", "jobs/sec", "mean latency(ms)"
    );
    let mut rows = Vec::new();
    let mut baselines: Vec<(usize, f64)> = Vec::new();
    for &sessions in session_counts {
        for &shards in shard_counts {
            let row = run(sessions, shards);
            let throughput = row.throughput();
            if shards == 1 {
                baselines.push((sessions, throughput));
            }
            let speedup = baselines
                .iter()
                .find(|(s, _)| *s == sessions)
                .map_or(1.0, |(_, base)| throughput / base.max(1e-9));
            println!(
                "{:>10} {:>8} {:>14.2} {:>16.0} {:>18.1}   ({speedup:.2}x vs 1 shard)",
                row.sessions,
                row.shards,
                row.makespan.as_secs_f64(),
                throughput,
                row.mean_latency_ms,
            );
            rows.push(
                Json::object()
                    .with("sessions", row.sessions)
                    .with("shards", row.shards)
                    .with("makespan_secs", row.makespan.as_secs_f64())
                    .with("throughput_jobs_per_sec", throughput)
                    .with("mean_latency_ms", row.mean_latency_ms)
                    .with("speedup_vs_one_shard", speedup),
            );
        }
    }
    export_rows("contention", rows);
    println!();
    println!("expected shape: each shard contributes {SLOTS} execution slots of");
    println!("{JOB_OVERHEAD_MS} ms jobs, so aggregate throughput rises near-linearly with");
    println!("the shard count until the single client-driving thread saturates.");
}

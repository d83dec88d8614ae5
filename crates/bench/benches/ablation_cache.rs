//! **Ablation D (§5.1)** — cache capacity and eviction policy.
//!
//! Best-effort caching means the server may lose shadows under disk
//! pressure and clients fall back to full transfers. This harness works a
//! set of files larger than the cache through repeated edit/submit
//! rounds and reports, per (capacity, policy): full transfers forced,
//! delta transfers achieved, and total payload bytes.

use shadow::{
    profiles, ClientConfig, CpuModel, EditModel, EvictionPolicy, FileSpec, ServerConfig,
    Simulation, SubmitOptions,
};
use shadow_bench::{banner, export_rows, quick_mode};
use shadow_obs::Json;

struct Outcome {
    fulls: u64,
    deltas: u64,
    payload: u64,
    evictions: u64,
}

fn run(policy: EvictionPolicy, budget: usize, files: usize, rounds: usize) -> Outcome {
    let mut sim = Simulation::new(1).with_cpu(CpuModel::instant());
    let server = sim.add_server(
        "superc",
        ServerConfig::new("superc")
            .with_cache_budget(budget)
            .with_eviction(policy),
    );
    let client = sim.add_client("ws", ClientConfig::new("ws", 1));
    let conn = sim.connect(client, server, profiles::lan()).unwrap();

    // Create the working set.
    let size = 20_000;
    for i in 0..files {
        let content = shadow::generate_file(&FileSpec::new(size, i as u64));
        sim.edit_file(client, &format!("/data{i}"), move |_| content.clone())
            .unwrap();
    }

    // Rounds: edit one file (round-robin) and submit a job over just that
    // file. The *working set across rounds* exceeds a starved cache, so an
    // evicted shadow forces a full retransfer when its turn comes again.
    for round in 0..rounds {
        let target = format!("/data{}", round % files);
        let model = EditModel::fraction(0.02, round as u64 + 100);
        sim.edit_file(client, &target, move |c| model.apply(&c))
            .unwrap();
        let name = sim.canonical_name(client, &target).unwrap();
        let job = format!("/job{}", round % files);
        sim.edit_file(client, &job, move |_| format!("wc {name}\n").into_bytes())
            .unwrap();
        sim.submit(
            client,
            conn,
            &job,
            &[target.as_str()],
            SubmitOptions::default(),
        )
        .unwrap();
        sim.run_until_quiet();
    }
    let m = sim.client_report(client);
    let evictions = sim.server_report(server).counter("cache", "evictions");
    Outcome {
        fulls: m.counter("client", "fulls_sent"),
        deltas: m.counter("client", "deltas_sent"),
        payload: m.counter("client", "update_payload_bytes"),
        evictions,
    }
}

fn main() {
    banner(
        "Ablation D: shadow cache capacity & eviction policy (section 5.1)",
        "8 files x 20 KB working set; cache from generous to starved",
    );
    let (files, rounds) = if quick_mode() { (4, 8) } else { (8, 24) };
    println!(
        "{:>10} {:>14} {:>8} {:>8} {:>10} {:>14}",
        "budget", "policy", "fulls", "deltas", "evictions", "payload bytes"
    );
    let mut rows = Vec::new();
    for budget in [400_000usize, 100_000, 60_000] {
        for policy in [
            EvictionPolicy::Lru,
            EvictionPolicy::Fifo,
            EvictionPolicy::Lfu,
            EvictionPolicy::LargestFirst,
        ] {
            let o = run(policy, budget, files, rounds);
            println!(
                "{:>10} {:>14} {:>8} {:>8} {:>10} {:>14}",
                budget,
                policy.to_string(),
                o.fulls,
                o.deltas,
                o.evictions,
                o.payload
            );
            rows.push(
                Json::object()
                    .with("budget", budget)
                    .with("policy", policy.to_string())
                    .with("fulls", o.fulls)
                    .with("deltas", o.deltas)
                    .with("evictions", o.evictions)
                    .with("payload_bytes", o.payload),
            );
        }
    }
    export_rows("ablation_cache", rows);
    println!();
    println!("expected shape: with a generous cache every resubmission is a delta;");
    println!("as the budget starves, evictions force full retransfers — the system");
    println!("degrades (more bytes) but never fails (best-effort, section 5.1).");
}

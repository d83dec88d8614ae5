//! **Ablation E (§3 adaptability)** — delta-versus-full decision policy.
//!
//! When most of a file changed, the ed script can exceed the file itself;
//! the adaptive policy ships whichever is smaller. This harness sweeps the
//! modified fraction and compares `Always`-delta against `Adaptive`,
//! reporting resubmission payload bytes.

use shadow::{
    profiles, ClientConfig, CpuModel, DeltaPolicy, EditModel, FileSpec, ServerConfig, ShadowEnv,
    Simulation, SubmitOptions,
};
use shadow_bench::{banner, export_rows, quick_mode};
use shadow_obs::Json;

/// A total rewrite: every line replaced (the ed script must carry the whole
/// new file plus framing, exceeding the raw file).
fn rewrite_bytes(policy: DeltaPolicy, size: usize) -> u64 {
    resubmit_with(policy, size, move |_| {
        shadow::generate_file(&FileSpec::new(size, 999))
    })
}

fn resubmit_bytes(policy: DeltaPolicy, size: usize, fraction: f64) -> u64 {
    resubmit_with(policy, size, move |c| {
        EditModel::fraction(fraction, 8).apply(&c)
    })
}

fn resubmit_with(
    policy: DeltaPolicy,
    size: usize,
    edit: impl Fn(Vec<u8>) -> Vec<u8> + 'static,
) -> u64 {
    let env = ShadowEnv {
        delta_policy: policy,
        ..ShadowEnv::default()
    };
    let mut sim = Simulation::new(1).with_cpu(CpuModel::instant());
    let server = sim.add_server("superc", ServerConfig::new("superc"));
    let client = sim.add_client("ws", ClientConfig::new("ws", 1).with_env(env));
    let conn = sim.connect(client, server, profiles::lan()).unwrap();

    let content = shadow::generate_file(&FileSpec::new(size, 7));
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
    let before = sim.link_stats(client, server).0.payload_bytes;

    sim.edit_file(client, "/data", edit).unwrap();
    sim.submit(
        client,
        conn,
        "/run.job",
        &["/data"],
        SubmitOptions::default(),
    )
    .unwrap();
    sim.run_until_quiet();
    sim.link_stats(client, server).0.payload_bytes - before
}

fn main() {
    banner(
        "Ablation E: delta-vs-full policy (adaptability goal, section 3)",
        "payload bytes for the resubmission as the edit fraction grows",
    );
    let size = if quick_mode() { 20_000 } else { 50_000 };
    println!(
        "{:>7} {:>16} {:>16} {:>10}",
        "%mod", "always-delta B", "adaptive B", "full file B"
    );
    let mut rows = Vec::new();
    for fraction in [0.01, 0.10, 0.30, 0.60, 0.80] {
        let always = resubmit_bytes(DeltaPolicy::Always, size, fraction);
        let adaptive = resubmit_bytes(DeltaPolicy::Adaptive, size, fraction);
        println!(
            "{:>7.0} {:>16} {:>16} {:>10}",
            fraction * 100.0,
            always,
            adaptive,
            size
        );
        rows.push(
            Json::object()
                .with("fraction", fraction)
                .with("always_bytes", always)
                .with("adaptive_bytes", adaptive)
                .with("full_bytes", size),
        );
    }
    // Total rewrite: the ed script must carry every line plus framing, so
    // it exceeds the raw file and the adaptive policy ships full instead.
    let always = rewrite_bytes(DeltaPolicy::Always, size);
    let adaptive = rewrite_bytes(DeltaPolicy::Adaptive, size);
    println!("{:>7} {always:>16} {adaptive:>16} {size:>10}", "100*");
    rows.push(
        Json::object()
            .with("fraction", 1.0)
            .with("rewrite", true)
            .with("always_bytes", always)
            .with("adaptive_bytes", adaptive)
            .with("full_bytes", size),
    );
    export_rows("ablation_delta_policy", rows);
    println!("        (* = total rewrite; every line replaced)");
    println!();
    println!("expected shape: identical at small fractions; once the script");
    println!("outgrows the file (heavy edits), adaptive caps the cost at ~file size.");
}

//! **Ablation C (§8.3)** — data compression of transfers.
//!
//! The paper's future work: "we also plan to explore data compression
//! techniques to improve the efficiency of data transfer." This harness
//! measures the resubmission cycle with each transfer encoding (none /
//! LZSS) applied to update payloads, over Cypress where every byte hurts.

use shadow::{
    profiles, ClientConfig, CpuModel, EditModel, FileSpec, ServerConfig, ShadowEnv, Simulation,
    SubmitOptions, TransferEncoding,
};
use shadow_bench::{banner, export_rows, quick_mode};
use shadow_obs::Json;

fn cycle_with_encoding(encoding: TransferEncoding, size: usize, fraction: f64) -> (f64, u64, u64) {
    let env = ShadowEnv {
        encoding,
        ..ShadowEnv::default()
    };
    let mut sim = Simulation::new(1).with_cpu(CpuModel::default());
    let server = sim.add_server("superc", ServerConfig::new("superc"));
    let client = sim.add_client("ws", ClientConfig::new("ws", 1).with_env(env));
    let conn = sim.connect(client, server, profiles::cypress()).unwrap();

    let content = shadow::generate_file(&FileSpec::new(size, 7));
    sim.edit_file(client, "/data", {
        let c = content;
        move |_| c.clone()
    })
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
    let first_bytes = sim.link_stats(client, server).0.payload_bytes;

    let model = EditModel::fraction(fraction, 8);
    let start = sim.now();
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
    let done = sim.finished_jobs(client).last().unwrap().at;
    let resubmit_bytes = sim.link_stats(client, server).0.payload_bytes - first_bytes;
    ((done - start).as_secs_f64(), first_bytes, resubmit_bytes)
}

fn main() {
    banner(
        "Ablation C: transfer compression (section 8.3 future work)",
        "update payloads over Cypress with identity / LZSS encodings",
    );
    let size = if quick_mode() { 50_000 } else { 100_000 };
    println!(
        "{:>10} {:>7} {:>14} {:>14} {:>14}",
        "encoding", "%mod", "resubmit(s)", "first bytes", "resubmit bytes"
    );
    let mut rows = Vec::new();
    for fraction in [0.05, 0.40] {
        for encoding in [TransferEncoding::Identity, TransferEncoding::Lzss] {
            let (secs, first, resubmit) = cycle_with_encoding(encoding, size, fraction);
            println!(
                "{:>10} {:>7.0} {:>14.1} {:>14} {:>14}",
                encoding.to_string(),
                fraction * 100.0,
                secs,
                first,
                resubmit
            );
            rows.push(
                Json::object()
                    .with("encoding", encoding.to_string())
                    .with("fraction", fraction)
                    .with("resubmit_secs", secs)
                    .with("first_bytes", first)
                    .with("resubmit_bytes", resubmit),
            );
        }
    }
    export_rows("ablation_compression", rows);
    println!();
    println!("expected shape: LZSS compresses both the initial full transfer and");
    println!("the structured ed-script deltas.");
}

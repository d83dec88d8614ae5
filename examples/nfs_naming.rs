//! Name resolution across an NFS domain (§5.3/§6.5 of the paper).
//!
//! Machine C exports `/usr`; machine A mounts it as `/projl`, machine B as
//! `/others`. Both workstations submit jobs over the same file under
//! different names — the shadow server caches exactly one copy, because
//! both names resolve to the same `(domain id, file id)` pair.
//!
//! Run with: `cargo run --example nfs_naming`

use shadow::prelude::*;
use shadow::SimError;

fn main() -> Result<(), SimError> {
    let mut sim = Simulation::new(1);
    let server = sim.add_server(
        "superc",
        ServerConfig::builder("superc")
            .build()
            .expect("valid config"),
    );

    // Build the NFS topology: fileserver c exports /usr.
    let vfs = sim.vfs_mut();
    vfs.add_host("c")?;
    vfs.add_host("a")?;
    vfs.add_host("b")?;
    vfs.mkdir_p("c", "/usr")?;
    let dataset: Vec<u8> = (0..500)
        .map(|i| format!("sample {i}: {}\n", i * i % 997))
        .collect::<String>()
        .into_bytes();
    vfs.write_file("c", "/usr/foo", dataset)?;
    vfs.mount("a", "/projl", "c", "/usr")?;
    vfs.mount("b", "/others", "c", "/usr")?;
    // Workstation a also reaches it through a personal symlink (an alias).
    vfs.symlink("a", "/mydata", "/projl/foo")?;

    let ws_a = sim.add_client(
        "a",
        ClientConfig::builder("a", 1).build().expect("valid config"),
    );
    let ws_b = sim.add_client(
        "b",
        ClientConfig::builder("b", 1).build().expect("valid config"),
    );
    let conn_a = sim.connect(ws_a, server, profiles::cypress())?;
    let conn_b = sim.connect(ws_b, server, profiles::cypress())?;

    println!("the same file under three user-visible names:");
    for (client, path) in [
        (ws_a, "/projl/foo"),
        (ws_a, "/mydata"),
        (ws_b, "/others/foo"),
    ] {
        let canonical = sim.canonical_name(client, path)?;
        println!("  {:>14} → {canonical}", path);
    }
    let shared = sim.canonical_name(ws_a, "/mydata")?;
    assert_eq!(shared, sim.canonical_name(ws_b, "/others/foo")?);

    // Workstation a submits a job over its alias.
    sim.edit_file(ws_a, "/job_a.cmd", {
        let n = shared.clone();
        move |_| format!("wc {n}\n").into_bytes()
    })?;
    sim.submit(
        ws_a,
        conn_a,
        "/job_a.cmd",
        &["/mydata"],
        SubmitOptions::default(),
    )?;
    sim.run_until_quiet();
    println!(
        "\nws a submitted via /mydata         → output: {}",
        String::from_utf8_lossy(&sim.finished_jobs(ws_a)[0].output).trim_end()
    );

    // Workstation b submits over its own mount: the file is ALREADY cached.
    sim.edit_file(ws_b, "/job_b.cmd", {
        let n = shared.clone();
        move |_| format!("head 2 {n}\n").into_bytes()
    })?;
    sim.submit(
        ws_b,
        conn_b,
        "/job_b.cmd",
        &["/others/foo"],
        SubmitOptions::default(),
    )?;
    sim.run_until_quiet();
    println!(
        "ws b submitted via /others/foo     → output: {}",
        String::from_utf8_lossy(&sim.finished_jobs(ws_b)[0].output).trim_end()
    );

    let fulls = sim.server_report(server).counter("server", "full_updates");
    println!("\nserver full transfers received: {fulls} (2 job files + 1 shared data file)");
    assert_eq!(fulls, 3, "the shared file was transferred once");
    println!("→ one cached shadow served both workstations' names.");
    Ok(())
}

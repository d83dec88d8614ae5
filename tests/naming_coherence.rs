//! Naming and cache coherence across an NFS domain (§5.3/§6.5): aliases,
//! symlinks, mounts and multiple hosts must all collapse to one cached
//! shadow per physical file — and updates through any alias must cohere.

use shadow::prelude::*;
use shadow::Vfs;

/// Builds the paper's topology: fileserver `c` exports /usr, `a` mounts it
/// at /projl, `b` at /others.
fn nfs_sim() -> (
    Simulation,
    shadow::ClientId,
    shadow::ClientId,
    shadow::ServerId,
) {
    let mut sim = Simulation::new(1);
    let server = sim.add_server("superc", ServerConfig::new("superc"));
    let vfs = sim.vfs_mut();
    vfs.add_host("c").unwrap();
    vfs.add_host("a").unwrap();
    vfs.add_host("b").unwrap();
    vfs.mkdir_p("c", "/usr").unwrap();
    vfs.write_file("c", "/usr/foo", b"line 1\nline 2\nline 3\n".to_vec())
        .unwrap();
    vfs.mount("a", "/projl", "c", "/usr").unwrap();
    vfs.mount("b", "/others", "c", "/usr").unwrap();
    let a = sim.add_client("a", ClientConfig::new("a", 1));
    let b = sim.add_client("b", ClientConfig::new("b", 1));
    (sim, a, b, server)
}

#[test]
fn one_shadow_for_all_aliases() {
    let (mut sim, a, b, server) = nfs_sim();
    let conn_a = sim.connect(a, server, profiles::lan()).unwrap();
    let conn_b = sim.connect(b, server, profiles::lan()).unwrap();
    // Extra aliases: a symlink on a, a hard link on the fileserver
    // (reachable through both mounts).
    sim.vfs_mut()
        .symlink("a", "/shortcut", "/projl/foo")
        .unwrap();
    sim.vfs_mut()
        .hard_link("c", "/usr/foo", "/usr/foo-alias")
        .unwrap();

    let names = [
        sim.canonical_name(a, "/projl/foo").unwrap(),
        sim.canonical_name(a, "/shortcut").unwrap(),
        sim.canonical_name(b, "/others/foo").unwrap(),
        sim.canonical_name(b, "/others/foo-alias").unwrap(),
    ];
    for n in &names[1..] {
        assert_eq!(&names[0], n, "every alias resolves to one identity");
    }

    // Submit through different aliases from both workstations.
    let shared = names[0].clone();
    sim.edit_file(a, "/ja.cmd", {
        let n = shared.clone();
        move |_| format!("wc {n}\n").into_bytes()
    })
    .unwrap();
    sim.submit(
        a,
        conn_a,
        "/ja.cmd",
        &["/shortcut"],
        SubmitOptions::default(),
    )
    .unwrap();
    sim.run_until_quiet();
    sim.edit_file(b, "/jb.cmd", {
        let n = shared.clone();
        move |_| format!("cat {n}\n").into_bytes()
    })
    .unwrap();
    sim.submit(
        b,
        conn_b,
        "/jb.cmd",
        &["/others/foo-alias"],
        SubmitOptions::default(),
    )
    .unwrap();
    sim.run_until_quiet();

    assert_eq!(sim.finished_jobs(a).len(), 1);
    assert_eq!(sim.finished_jobs(b)[0].output, b"line 1\nline 2\nline 3\n");
    // 2 job files + exactly 1 copy of the shared file.
    assert_eq!(
        sim.server_report(server).counter("server", "full_updates"),
        3
    );
}

#[test]
fn edit_through_one_mount_deltas_for_the_other() {
    let (mut sim, a, b, server) = nfs_sim();
    let conn_a = sim.connect(a, server, profiles::lan()).unwrap();
    let conn_b = sim.connect(b, server, profiles::lan()).unwrap();
    let shared = sim.canonical_name(a, "/projl/foo").unwrap();

    sim.edit_file(a, "/ja.cmd", {
        let n = shared.clone();
        move |_| format!("cat {n}\n").into_bytes()
    })
    .unwrap();
    sim.submit(
        a,
        conn_a,
        "/ja.cmd",
        &["/projl/foo"],
        SubmitOptions::default(),
    )
    .unwrap();
    sim.run_until_quiet();

    // Workstation a edits through its mount; the change is visible to b
    // through the fileserver, and b's submission needs only a delta.
    sim.edit_file(a, "/projl/foo", |mut c| {
        c.extend_from_slice(b"line 4 added on a\n");
        c
    })
    .unwrap();
    sim.run_until_quiet(); // background update (delta) flows
    assert_eq!(
        sim.vfs().read_file("b", "/others/foo").unwrap(),
        b"line 1\nline 2\nline 3\nline 4 added on a\n"
    );

    sim.edit_file(b, "/jb.cmd", {
        let n = shared.clone();
        move |_| format!("wc {n}\n").into_bytes()
    })
    .unwrap();
    sim.submit(
        b,
        conn_b,
        "/jb.cmd",
        &["/others/foo"],
        SubmitOptions::default(),
    )
    .unwrap();
    sim.run_until_quiet();
    let out = String::from_utf8_lossy(&sim.finished_jobs(b)[0].output).to_string();
    assert!(out.starts_with("4 "), "job saw the edited file: {out}");
    let m = sim.server_report(server);
    assert_eq!(
        m.counter("server", "delta_updates"),
        1,
        "a's edit travelled once, as a delta"
    );
    assert_eq!(
        m.counter("server", "full_updates"),
        3,
        "still one full copy of the shared file"
    );
}

#[test]
fn different_domains_do_not_share_shadows() {
    // Two clients in DIFFERENT naming domains submit files with identical
    // canonical names; the server must keep them apart.
    let mut sim = Simulation::new(1);
    let server = sim.add_server("superc", ServerConfig::new("superc"));
    let c1 = sim.add_client("wsx", ClientConfig::new("wsx", 1));
    let c2 = sim.add_client("wsy", ClientConfig::new("wsy", 2));
    let conn1 = sim.connect(c1, server, profiles::lan()).unwrap();
    let conn2 = sim.connect(c2, server, profiles::lan()).unwrap();

    sim.edit_file(c1, "/j.cmd", |_| b"echo domain-one\n".to_vec())
        .unwrap();
    sim.edit_file(c2, "/j.cmd", |_| b"echo domain-two\n".to_vec())
        .unwrap();
    sim.submit(c1, conn1, "/j.cmd", &[], SubmitOptions::default())
        .unwrap();
    sim.submit(c2, conn2, "/j.cmd", &[], SubmitOptions::default())
        .unwrap();
    sim.run_until_quiet();
    assert_eq!(sim.finished_jobs(c1)[0].output, b"domain-one\n");
    assert_eq!(sim.finished_jobs(c2)[0].output, b"domain-two\n");
}

#[test]
fn vfs_identities_are_stable_under_remount() {
    // Unmount/remount semantics: identity depends on the exporting host's
    // canonical path, not the mount point used to reach it.
    let mut vfs = Vfs::new(DomainId::new(1));
    vfs.add_host("server").unwrap();
    vfs.add_host("ws").unwrap();
    vfs.mkdir_p("server", "/data").unwrap();
    vfs.write_file("server", "/data/f", b"x".to_vec()).unwrap();
    vfs.mount("ws", "/m1", "server", "/data").unwrap();
    let id1 = vfs.resolve("ws", "/m1/f").unwrap().file_id;
    vfs.mount("ws", "/m2", "server", "/data").unwrap();
    let id2 = vfs.resolve("ws", "/m2/f").unwrap().file_id;
    assert_eq!(id1, id2);
}

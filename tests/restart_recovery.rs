//! Kill-and-restart: the durable shadow store must preserve the delta
//! economy across a server restart.
//!
//! A client submits edits, the server process "dies" (the deployment is
//! shut down and its in-memory state discarded), a new deployment
//! replays the journal from the same store root, and the client — whose
//! own shadow environment survived via `persist::save_state` — resubmits
//! an edited file. Because journal replay rebuilt the server's cached
//! `vN`, the resubmission must travel as a delta, not a full transfer.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use shadow::persist;
use shadow::{ClientConfig, Deployment, FileRef, ServerConfig, SubmitOptions};
use shadow_proto::FileId;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("restart-recovery-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn restart_from_journal_keeps_the_delta_path() {
    let store_root = temp_dir("store");
    let client_state = temp_dir("client");
    let data = FileRef::new(FileId::new(1), "ws:/galaxy.dat");
    let job = FileRef::new(FileId::new(2), "ws:/analyze.job");
    let content: Vec<u8> = (0..2000)
        .flat_map(|i| format!("row {i}\n").into_bytes())
        .collect();

    // Session 1: first submission, whole files travel, journal fills.
    {
        let system = Deployment::new(ServerConfig::new("sc"))
            .durable(&store_root)
            .pipes()
            .expect("deploy");
        assert_eq!(system.recovery().replayed(), 0, "fresh store");
        let mut client = system.connect_client(ClientConfig::new("ws", 1));
        client.wait_ready(Duration::from_secs(5)).unwrap();
        client.edit_finished(&data, content.clone());
        client.edit_finished(&job, b"wc ws:/galaxy.dat\n".to_vec());
        client
            .submit(&job, std::slice::from_ref(&data), SubmitOptions::default())
            .unwrap();
        client.wait_job(Duration::from_secs(10)).unwrap();
        assert_eq!(client.report().counter("client", "fulls_sent"), 2);

        // The client's shadow environment outlives the process …
        persist::save_state(&client_state, client.node()).unwrap();
        drop(client);
        // … the server's in-memory state does NOT: the deployment is
        // discarded entirely. Only the journal under `store_root`
        // remains.
        system.shutdown();
    }

    // Session 2: a new deployment over the same store root. Journal
    // replay must rebuild the server's cached versions before serving.
    let system = Deployment::new(ServerConfig::new("sc"))
        .durable(&store_root)
        .pipes()
        .expect("redeploy");
    let recovery = system.recovery();
    assert!(
        recovery.replayed() > 0,
        "the restart must replay the journaled shadow state"
    );
    assert!(!recovery.degraded(), "a clean shutdown leaves no damage");

    let mut client = system.connect_client(ClientConfig::new("ws", 1));
    let loaded = persist::load_state(&client_state, client.node_mut()).unwrap();
    assert!(
        loaded.restored > 0,
        "the client restored its version chains"
    );
    client.wait_ready(Duration::from_secs(5)).unwrap();

    let mut edited = content;
    edited.extend_from_slice(b"one more row\n");
    client.edit_finished(&data, edited);
    client
        .submit(&job, &[data], SubmitOptions::default())
        .unwrap();
    let (_, output, _, stats) = client.wait_job(Duration::from_secs(10)).unwrap();
    assert_eq!(stats.exit_code, 0);
    assert!(!output.is_empty());

    // The acceptance criterion: the client holding vN got to send a
    // delta against the *replayed* cache — no full transfer happened
    // after the restart.
    assert_eq!(
        client.report().counter("client", "deltas_sent"),
        1,
        "resubmission after restart must travel as a delta"
    );
    assert_eq!(client.report().counter("client", "fulls_sent"), 0);

    drop(client);
    let server = system.shutdown().remove(0);
    assert_eq!(server.report().counter("server", "delta_updates"), 1);
    let _ = fs::remove_dir_all(&store_root);
    let _ = fs::remove_dir_all(&client_state);
}

#[test]
fn sharded_restart_replays_each_shards_journal() {
    let store_root = temp_dir("sharded");
    // Spread domains over two shards, journal, kill, restart, and check
    // the replayed state survived shard-by-shard.
    {
        let system = Deployment::new(ServerConfig::new("sc"))
            .shards(2)
            .durable(&store_root)
            .pipes()
            .expect("deploy");
        for d in 1..=4u64 {
            let mut client = system.connect_client(ClientConfig::new(format!("ws{d}"), d));
            client.wait_ready(Duration::from_secs(5)).unwrap();
            let job = FileRef::new(FileId::new(1), "ws:/j.job");
            client.edit_finished(&job, format!("echo domain {d}\n").into_bytes());
            client.submit(&job, &[], SubmitOptions::default()).unwrap();
            client.wait_job(Duration::from_secs(10)).unwrap();
            drop(client);
        }
        system.shutdown();
    }

    let system = Deployment::new(ServerConfig::new("sc"))
        .shards(2)
        .durable(&store_root)
        .pipes()
        .expect("redeploy");
    let recovery = system.recovery();
    assert_eq!(recovery.domains, 4, "every domain's journal was replayed");
    assert!(recovery.replayed() > 0);

    // The replayed cache is live again: restore inserted each domain's
    // journaled versions back into the shard caches.
    let report = system.report().expect("running");
    assert!(report.counter("cache", "insertions") >= 4);
    system.shutdown();
    let _ = fs::remove_dir_all(&store_root);
}

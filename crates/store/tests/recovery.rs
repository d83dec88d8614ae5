//! Recovery edge cases for the durable shadow store: empty journals,
//! torn tails, mid-file corruption, interrupted compactions, and the
//! determinism of replay. The store only reads and repairs; every test
//! that looks at rebuilt state replays through `ServerNode::restore`,
//! and every compaction snapshots a `ServerNode`, as a shard does.

use std::fs;
use std::path::{Path, PathBuf};
use std::slice;

use bytes::Bytes;
use shadow_diff::{diff_docs, DiffAlgorithm, DiffScratch, DocBuf};
use shadow_proto::{
    ClientMessage, ContentDigest, DeltaCodec, DomainId, FileId, FileKey, HostName, JobId,
    PersistRecord, TransferEncoding, UpdatePayload, VersionNumber, PROTOCOL_VERSION,
};
use shadow_runtime::{shard_for, PersistSink};
use shadow_server::{
    RestoreSummary, ServerAction, ServerConfig, ServerEvent, ServerNode, SessionId,
};
use shadow_store::{DurableStore, RecoverySummary};

fn temp_root(tag: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("store-recovery-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

fn key(domain: u64, file: u64) -> FileKey {
    FileKey::new(DomainId::new(domain), FileId::new(file))
}

fn full(domain: u64, file: u64, version: u64, content: &str) -> PersistRecord {
    PersistRecord::CacheFull {
        key: key(domain, file),
        version: VersionNumber::new(version),
        content: Bytes::from(content.as_bytes().to_vec()),
    }
}

/// The Hunt–McIlroy line script turning `from` into `to`.
fn line_script(from: &str, to: &str) -> Bytes {
    let script = diff_docs(
        DiffAlgorithm::HuntMcIlroy,
        &DocBuf::from_bytes(from.as_bytes().to_vec()),
        &DocBuf::from_bytes(to.as_bytes().to_vec()),
        &mut DiffScratch::new(),
    );
    Bytes::from(script.to_text())
}

fn delta(domain: u64, file: u64, base: u64, version: u64, from: &str, to: &str) -> PersistRecord {
    PersistRecord::CacheDelta {
        key: key(domain, file),
        version: VersionNumber::new(version),
        base: VersionNumber::new(base),
        codec: DeltaCodec::Line,
        script: line_script(from, to),
        digest: ContentDigest::of(to.as_bytes()),
    }
}

fn journal_path(root: &Path, domain: u64) -> PathBuf {
    root.join(format!("domain-{domain:016x}"))
        .join("journal.log")
}

/// Journals `record` as a shard does: the server applies it, the store
/// appends it, then snapshots whatever domain fell due.
fn journal(node: &mut ServerNode, store: &mut DurableStore, record: &PersistRecord) {
    node.restore(slice::from_ref(record));
    store.persist(record);
    store.compact(&mut |domain| node.snapshot(domain));
}

/// Reopens the store at `root` and replays it into a fresh node; also
/// returns what the store's own recovery found.
fn reopen_and_restore(
    root: &Path,
    config: ServerConfig,
) -> (ServerNode, RestoreSummary, RecoverySummary) {
    let mut store = DurableStore::open(root).unwrap();
    let mut node = ServerNode::new(config);
    let summary = node.restore(&store.recovered());
    (node, summary, store.summary())
}

#[test]
fn empty_store_recovers_to_nothing() {
    let root = temp_root("empty");
    let mut store = DurableStore::open(&root).unwrap();
    assert_eq!(store.recovered(), Vec::new());
    let summary = store.summary();
    assert_eq!(summary.domains, 0);
    assert_eq!(summary.replayed(), 0);
    assert!(!summary.degraded());

    // A journal that exists but holds zero records is equally empty.
    drop(store);
    let mut store = DurableStore::open(&root).unwrap();
    store.persist(&full(1, 1, 1, "x\n"));
    let mut reopened = DurableStore::open(&root).unwrap();
    assert_eq!(reopened.recovered().len(), 1);
    assert!(
        reopened.recovered().is_empty(),
        "records are handed over once"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn journal_replay_collapses_delta_chains() {
    let root = temp_root("chain");
    let mut store = DurableStore::open(&root).unwrap();
    store.persist(&full(1, 1, 1, "a\nb\n"));
    store.persist(&delta(1, 1, 1, 2, "a\nb\n", "a\nc\n"));
    store.persist(&delta(1, 1, 2, 3, "a\nc\n", "a\nc\nd\n"));
    drop(store);

    let mut store = DurableStore::open(&root).unwrap();
    assert_eq!(store.summary().journal_records, 3);
    let mut node = ServerNode::new(ServerConfig::new("remote"));
    assert_eq!(node.restore(&store.recovered()).skipped, 0);
    assert_eq!(
        node.snapshot(DomainId::new(1)),
        vec![full(1, 1, 3, "a\nc\nd\n")],
        "three journal records replay to one collapsed CacheFull"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn torn_last_record_is_truncated_and_the_prefix_survives() {
    let root = temp_root("torn");
    let mut store = DurableStore::open(&root).unwrap();
    store.persist(&full(1, 1, 1, "kept\n"));
    store.persist(&full(1, 2, 1, "lost half-written\n"));
    drop(store);

    let journal = journal_path(&root, 1);
    let bytes = fs::read(&journal).unwrap();
    fs::write(&journal, &bytes[..bytes.len() - 7]).unwrap();

    let mut store = DurableStore::open(&root).unwrap();
    let summary = store.summary();
    assert_eq!(summary.torn_tails, 1);
    assert!(summary.degraded());
    assert_eq!(store.recovered(), vec![full(1, 1, 1, "kept\n")]);
    drop(store);

    // Recovery re-stabilized the salvage: a second open is clean.
    let mut store = DurableStore::open(&root).unwrap();
    assert_eq!(store.summary().torn_tails, 0);
    assert!(!store.summary().degraded());
    assert_eq!(store.recovered(), vec![full(1, 1, 1, "kept\n")]);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn checksum_mismatch_mid_file_degrades_to_the_valid_prefix() {
    let root = temp_root("corrupt");
    let mut store = DurableStore::open(&root).unwrap();
    store.persist(&full(1, 1, 1, "first\n"));
    store.persist(&full(1, 2, 1, "second\n"));
    store.persist(&full(1, 3, 1, "third\n"));
    drop(store);

    // Flip one payload byte of the *middle* record: its checksum fails,
    // and everything from there on is distrusted.
    let journal = journal_path(&root, 1);
    let mut bytes = fs::read(&journal).unwrap();
    let needle = bytes
        .windows(7)
        .position(|w| w == b"second\n")
        .expect("middle record payload present");
    bytes[needle] ^= 0xFF;
    fs::write(&journal, &bytes).unwrap();

    let mut store = DurableStore::open(&root).unwrap();
    let summary = store.summary();
    assert_eq!(summary.corrupt_segments, 1);
    assert_eq!(summary.journal_records, 1);
    assert_eq!(store.recovered(), vec![full(1, 1, 1, "first\n")]);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn format_two_segments_read_as_corrupt_and_recovery_starts_empty() {
    // A store written before digest format 3: its segments carry the
    // format-2 magics, so none of their digests are compared.
    let root = temp_root("format-two");
    let mut store = DurableStore::open(&root).unwrap();
    store.persist(&full(1, 1, 1, "old\n"));
    store.persist(&delta(1, 1, 1, 2, "old\n", "older\n"));
    drop(store);
    let journal = journal_path(&root, 1);
    let mut bytes = fs::read(&journal).unwrap();
    assert_eq!(&bytes[..8], b"SHDWJRN3");
    bytes[..8].copy_from_slice(b"SHDWJRN2");
    fs::write(&journal, &bytes).unwrap();
    let mut snapshot = b"SHDWSNP2".to_vec();
    snapshot.extend_from_slice(&2u64.to_le_bytes());
    fs::write(journal.with_file_name("snapshot.log"), &snapshot).unwrap();

    let (node, restored, summary) = reopen_and_restore(&root, ServerConfig::new("remote"));
    assert_eq!(summary.corrupt_segments, 2);
    assert_eq!(summary.replayed(), 0);
    assert_eq!(restored.applied, 0);
    assert!(node.cached_keys().is_empty());

    // The discarded store re-stabilizes: the next open is clean, and
    // new records journal as before.
    let mut store = DurableStore::open(&root).unwrap();
    assert!(!store.summary().degraded());
    store.persist(&full(1, 1, 3, "new\n"));
    drop(store);
    let mut store = DurableStore::open(&root).unwrap();
    assert_eq!(store.recovered(), vec![full(1, 1, 3, "new\n")]);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn snapshot_newer_than_journal_skips_the_stale_records() {
    let root = temp_root("stale");
    // compact_every=2 → the second append publishes a snapshot
    // (covers 2) and resets the journal.
    let mut store = DurableStore::open(&root).unwrap().with_compact_every(2);
    let mut node = ServerNode::new(ServerConfig::new("remote"));
    journal(&mut node, &mut store, &full(1, 1, 1, "a\n"));
    journal(&mut node, &mut store, &full(1, 2, 1, "b\n"));
    journal(&mut node, &mut store, &full(1, 3, 1, "c\n"));
    drop(store);

    // Simulate the crash window *between* snapshot publication and
    // journal reset: rebuild the journal as it looked before the
    // compaction (base 0, all three records), leaving the snapshot
    // (covers 2) in place. The record bytes come from a scratch store
    // that journals the same records without compacting.
    let journal = journal_path(&root, 1);
    let live = fs::read(&journal).unwrap();
    let mut stale = Vec::new();
    stale.extend_from_slice(&live[..8]);
    stale.extend_from_slice(&0u64.to_le_bytes());
    let scratch_root = temp_root("stale-scratch");
    let mut scratch = DurableStore::open(&scratch_root).unwrap();
    scratch.persist(&full(1, 1, 1, "a\n"));
    scratch.persist(&full(1, 2, 1, "b\n"));
    scratch.persist(&full(1, 3, 1, "c\n"));
    drop(scratch);
    let scratch_journal = fs::read(journal_path(&scratch_root, 1)).unwrap();
    stale.extend_from_slice(&scratch_journal[16..]);
    fs::write(&journal, &stale).unwrap();

    let mut store = DurableStore::open(&root).unwrap();
    let summary = store.summary();
    assert_eq!(
        summary.stale_skipped, 2,
        "snapshot already covered two records"
    );
    assert_eq!(summary.snapshot_records, 2);
    assert_eq!(summary.journal_records, 1);
    assert_eq!(
        store.recovered(),
        vec![
            full(1, 1, 1, "a\n"),
            full(1, 2, 1, "b\n"),
            full(1, 3, 1, "c\n")
        ]
    );
    let _ = fs::remove_dir_all(&root);
    let _ = fs::remove_dir_all(&scratch_root);
}

#[test]
fn compaction_preserves_the_recovered_state() {
    let root = temp_root("compact");
    let mut store = DurableStore::open(&root).unwrap().with_compact_every(4);
    let mut node = ServerNode::new(ServerConfig::new("remote"));
    let mut from = String::from("line 0\n");
    journal(&mut node, &mut store, &full(1, 1, 1, &from));
    for v in 2..=9u64 {
        let to = format!("{from}line {}\n", v - 1);
        journal(&mut node, &mut store, &delta(1, 1, v - 1, v, &from, &to));
        from = to;
    }
    journal(
        &mut node,
        &mut store,
        &PersistRecord::Output {
            domain: DomainId::new(1),
            job_file: FileId::new(1),
            job: JobId::new(5),
            content: Bytes::from_static(b"output\n"),
        },
    );
    journal(
        &mut node,
        &mut store,
        &PersistRecord::OutputAcked {
            domain: DomainId::new(1),
            job: JobId::new(5),
        },
    );
    assert_eq!(
        store.section().get("compactions").and_then(|v| v.as_u64()),
        Some(2)
    );
    drop(store);

    let snapshot = root.join("domain-0000000000000001").join("snapshot.log");
    assert!(snapshot.exists(), "compaction published a snapshot");

    let (restored, summary, recovery) = reopen_and_restore(&root, ServerConfig::new("remote"));
    assert!(!recovery.degraded());
    assert_eq!(summary.skipped, 0);
    assert_eq!(
        restored.snapshot(DomainId::new(1)),
        node.snapshot(DomainId::new(1)),
        "snapshot + journal suffix rebuild the server's state"
    );
    let rebuilt = restored.snapshot(DomainId::new(1));
    assert!(rebuilt.contains(&full(1, 1, 9, &from)));
    assert!(rebuilt.contains(&PersistRecord::OutputAcked {
        domain: DomainId::new(1),
        job: JobId::new(5),
    }));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn replaying_twice_rebuilds_identical_server_state() {
    let root = temp_root("idempotent");
    let mut store = DurableStore::open(&root).unwrap();
    store.persist(&full(1, 1, 1, "a\nb\n"));
    store.persist(&delta(1, 1, 1, 2, "a\nb\n", "a\nc\n"));
    store.persist(&full(1, 2, 1, "other\n"));
    store.persist(&PersistRecord::Output {
        domain: DomainId::new(1),
        job_file: FileId::new(1),
        job: JobId::new(3),
        content: Bytes::from_static(b"out\n"),
    });
    drop(store);

    let restore_once = || {
        let mut store = DurableStore::open(&root).unwrap();
        let mut node = ServerNode::new(ServerConfig::new("remote"));
        let summary = node.restore(&store.recovered());
        assert_eq!(summary.skipped, 0);
        node
    };
    let a = restore_once();
    let b = restore_once();
    assert_eq!(
        a.report().section("server"),
        b.report().section("server"),
        "two recoveries must rebuild identical protocol state"
    );
    assert_eq!(a.report().section("cache"), b.report().section("cache"));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn shard_stores_partition_the_domains() {
    let root = temp_root("shards");
    let shards = 2usize;
    let domains: Vec<u64> = (1..=6).collect();
    {
        let mut writers: Vec<DurableStore> = (0..shards)
            .map(|i| DurableStore::open_shard(&root, i, shards).unwrap())
            .collect();
        for &d in &domains {
            let record = full(d, 1, 1, "content\n");
            let shard = shard_for(DomainId::new(d), shards);
            writers[shard].persist(&record);
        }
    }
    let mut seen = Vec::new();
    for i in 0..shards {
        let mut store = DurableStore::open_shard(&root, i, shards).unwrap();
        for record in store.recovered() {
            assert_eq!(
                shard_for(record.domain(), shards),
                i,
                "a shard must only recover its own domains"
            );
            seen.push(record.domain().as_u64());
        }
    }
    seen.sort_unstable();
    assert_eq!(seen, domains, "the shards together recover every domain");
    let _ = fs::remove_dir_all(&root);
}

fn output(job_file: u64, job: u64, bytes: usize) -> PersistRecord {
    PersistRecord::Output {
        domain: DomainId::new(1),
        job_file: FileId::new(job_file),
        job: JobId::new(job),
        content: Bytes::from(vec![b'a' + (job % 26) as u8; bytes]),
    }
}

fn outputs_of(records: &[PersistRecord]) -> Vec<(u64, u64)> {
    records
        .iter()
        .filter_map(|r| match r {
            PersistRecord::Output { job_file, job, .. } => Some((job_file.as_u64(), job.as_u64())),
            _ => None,
        })
        .collect()
}

#[test]
fn compaction_forgets_outputs_the_server_evicted() {
    let config = ServerConfig::builder("remote")
        .output_shadow_budget(4096)
        .build()
        .unwrap();
    let root = temp_root("evicted-outputs");
    let mut store = DurableStore::open(&root).unwrap().with_compact_every(8);
    let mut node = ServerNode::new(config.clone());
    for n in 1..=200u64 {
        journal(&mut node, &mut store, &output(n, n, 1_000));
    }
    drop(store);
    let mut store = DurableStore::open(&root).unwrap();
    let outputs = outputs_of(&store.recovered());
    assert!(
        outputs.len() <= 8 + 4,
        "the store kept {} outputs the server evicted",
        outputs.len()
    );
    drop(store);
    let _ = fs::remove_dir_all(&root);

    // A re-run job file is the newest output after a restart too, so
    // FIFO eviction picks the same victim it would have before the crash.
    let root = temp_root("rerun-output");
    let mut store = DurableStore::open(&root).unwrap().with_compact_every(5);
    let mut node = ServerNode::new(config.clone());
    for n in 1..=4u64 {
        journal(&mut node, &mut store, &output(n, n, 1_000));
    }
    journal(&mut node, &mut store, &output(1, 5, 1_000));
    assert_eq!(
        store.section().get("compactions").and_then(|v| v.as_u64()),
        Some(1)
    );
    drop(store);
    let (mut restored, _, recovery) = reopen_and_restore(&root, config);
    assert!(!recovery.degraded());
    assert_eq!(
        outputs_of(&restored.snapshot(DomainId::new(1))),
        vec![(2, 2), (3, 3), (4, 4), (1, 5)]
    );
    restored.restore(&[output(6, 6, 1_000)]);
    assert_eq!(
        outputs_of(&restored.snapshot(DomainId::new(1))),
        vec![(3, 3), (4, 4), (1, 5), (6, 6)],
        "the oldest output, not the re-run one, is evicted"
    );
    let _ = fs::remove_dir_all(&root);
}

/// Hands `message` to the server on session 1 and journals what it
/// persists, compacting afterwards as a shard's dispatch does.
fn serve(node: &mut ServerNode, store: &mut DurableStore, message: ClientMessage) {
    let actions = node.handle(ServerEvent::Message {
        session: SessionId::new(1),
        message,
        now_ms: 0,
    });
    for action in actions {
        if let ServerAction::Persist(record) = action {
            store.persist(&record);
        }
    }
    store.compact(&mut |domain| node.snapshot(domain));
}

#[test]
fn compaction_right_after_a_delta_update_never_double_applies() {
    let root = temp_root("compact-after-delta");
    // Every second record compacts: the full version, then the delta.
    let mut store = DurableStore::open(&root).unwrap().with_compact_every(2);
    let mut node = ServerNode::new(ServerConfig::new("remote"));
    let key = key(1, 5);
    let hello = ClientMessage::Hello {
        domain: DomainId::new(1),
        host: HostName::new("ws1"),
        protocol: PROTOCOL_VERSION,
        epoch: 0,
        resume: Vec::new(),
    };
    serve(&mut node, &mut store, hello);
    let versions = [
        (
            "a\nb\n",
            UpdatePayload::Full {
                encoding: TransferEncoding::Identity,
                data: Bytes::from_static(b"a\nb\n"),
                digest: ContentDigest::of(b"a\nb\n"),
            },
        ),
        (
            "a\nc\n",
            UpdatePayload::Delta {
                base: VersionNumber::FIRST,
                codec: DeltaCodec::Line,
                encoding: TransferEncoding::Identity,
                data: line_script("a\nb\n", "a\nc\n"),
                digest: ContentDigest::of(b"a\nc\n"),
            },
        ),
    ];
    for (n, (text, payload)) in (1u64..).zip(versions) {
        let version = VersionNumber::new(n);
        let notify = ClientMessage::NotifyVersion {
            file: key.file,
            name: String::from("/data.txt"),
            version,
            size: text.len() as u64,
            digest: ContentDigest::of(text.as_bytes()),
        };
        serve(&mut node, &mut store, notify);
        let update = ClientMessage::Update {
            file: key.file,
            version,
            payload,
        };
        serve(&mut node, &mut store, update);
    }
    assert_eq!(node.report().counter("server", "delta_updates"), 1);
    assert_eq!(
        store.section().get("compactions").and_then(|v| v.as_u64()),
        Some(1)
    );
    drop(store);

    let (restored, summary, recovery) = reopen_and_restore(&root, ServerConfig::new("remote"));
    assert!(!recovery.degraded());
    assert_eq!(summary.skipped, 0);
    assert_eq!(restored.report().counter("server", "restore_skipped"), 0);
    assert_eq!(restored.cached_version(key), Some(VersionNumber::new(2)));
    assert_eq!(restored.cached_digest(key), node.cached_digest(key));
    let _ = fs::remove_dir_all(&root);
}

//! **Durable store recovery** — what durability costs on the write path
//! and what it buys back at restart.
//!
//! Three questions, three row families:
//!
//! * `journal_append_submit` — the per-submission write-path overhead:
//!   one submit journals roughly three records (job file, data file,
//!   output), so this is the price `durable(..)` adds to every job.
//! * `replay_1k` / `replay_10k` — cold-start time with a journal of N
//!   records and compaction effectively off: the worst-case tail a
//!   crash immediately after N appends must replay.
//! * `replay_compacted_10k` — the same 10k-record history journaled
//!   with the default compaction interval: snapshots collapse each
//!   domain to its live state, so replay reads a bounded prefix instead
//!   of the whole history.
//!
//! Exports `BENCH_recovery.json`; `bench_guard recovery` compares the
//! rows against the committed `BENCH_baseline_recovery.json`.

use std::fs;
use std::path::PathBuf;
use std::slice;
use std::time::Instant;

use bytes::Bytes;
use shadow::{DurableStore, ServerConfig, ServerNode};
use shadow_bench::{banner, export_rows, quick_mode};
use shadow_obs::Json;
use shadow_proto::{DomainId, FileId, FileKey, JobId, PersistRecord, VersionNumber};
use shadow_runtime::PersistSink;

/// Domains the synthetic history is spread over — enough to give
/// compaction per-domain work without drowning the run in directories.
const DOMAINS: u64 = 16;
/// Payload bytes per cached version (a small source file).
const CONTENT_LEN: usize = 1024;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "shadow-bench-recovery-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn content(seed: usize) -> Bytes {
    let line = format!("line of shadowed content {seed}\n");
    let mut buf = Vec::with_capacity(CONTENT_LEN + line.len());
    while buf.len() < CONTENT_LEN {
        buf.extend_from_slice(line.as_bytes());
    }
    Bytes::from(buf)
}

/// The i-th record of the synthetic history: rotating domains, a few
/// files per domain, versions climbing as edits arrive.
fn record(i: usize) -> PersistRecord {
    let domain = DomainId::new(1 + (i as u64 % DOMAINS));
    let file = FileId::new(1 + (i as u64 / DOMAINS) % 4);
    let version = VersionNumber::new(1 + (i as u64 / (DOMAINS * 4)));
    PersistRecord::CacheFull {
        key: FileKey::new(domain, file),
        version,
        content: content(i),
    }
}

/// One submission's worth of journal traffic: the job file, a data
/// file, and the job's output.
fn submit_records(i: usize) -> [PersistRecord; 3] {
    let domain = DomainId::new(1 + (i as u64 % DOMAINS));
    let version = VersionNumber::new(1 + i as u64);
    [
        PersistRecord::CacheFull {
            key: FileKey::new(domain, FileId::new(1)),
            version,
            content: Bytes::from_static(b"wc ws:/galaxy.dat\n"),
        },
        PersistRecord::CacheFull {
            key: FileKey::new(domain, FileId::new(2)),
            version,
            content: content(i),
        },
        PersistRecord::Output {
            domain,
            job_file: FileId::new(1),
            job: JobId::new(1 + i as u64),
            content: content(i + 1),
        },
    ]
}

/// Journals `record` as a shard does: the server applies it, the store
/// appends it, then snapshots whatever domain fell due.
fn journal(node: &mut ServerNode, store: &mut DurableStore, record: &PersistRecord) {
    node.restore(slice::from_ref(record));
    store.persist(record);
    store.compact(&mut |domain| node.snapshot(domain));
}

/// Appends `n` records journaled `compact_every` apart, returning the
/// store root and the on-disk footprint in bytes.
fn build_journal(tag: &str, n: usize, compact_every: usize) -> (PathBuf, u64) {
    let root = scratch_dir(tag);
    let mut store = DurableStore::open(&root)
        .expect("open store")
        .with_compact_every(compact_every);
    let mut node = ServerNode::new(ServerConfig::new("superc"));
    for i in 0..n {
        journal(&mut node, &mut store, &record(i));
    }
    drop(store);
    let mut bytes = 0;
    let mut stack = vec![root.clone()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).expect("scan store") {
            let entry = entry.expect("entry");
            let meta = entry.metadata().expect("metadata");
            if meta.is_dir() {
                stack.push(entry.path());
            } else {
                bytes += meta.len();
            }
        }
    }
    (root, bytes)
}

/// Times a cold start over `root`: open (which reads and repairs the
/// segments), then restore the salvaged records into a fresh server
/// node. Returns `(millis, records_restored)`.
fn time_replay(root: &PathBuf) -> (f64, usize) {
    let start = Instant::now();
    let mut store = DurableStore::open(root).expect("reopen store");
    let recovered = store.recovered();
    let mut node = ServerNode::new(ServerConfig::new("superc"));
    let summary = node.restore(&recovered);
    let elapsed = start.elapsed();
    assert!(summary.applied > 0, "replay must restore state");
    (elapsed.as_secs_f64() * 1000.0, store.summary().replayed())
}

fn main() {
    banner(
        "Durable store recovery: append overhead, replay time, compaction win",
        "per-domain write-ahead journals + snapshot compaction (DESIGN.md \u{a7}14)",
    );
    let (submits, replay_small, replay_large) = if quick_mode() {
        (300usize, 1_000usize, 4_000usize)
    } else {
        (3_000, 1_000, 10_000)
    };
    let mut rows = Vec::new();

    // Write path: one submission = three journaled records.
    let root = scratch_dir("append");
    let mut store = DurableStore::open(&root).expect("open store");
    let mut node = ServerNode::new(ServerConfig::new("superc"));
    let start = Instant::now();
    for i in 0..submits {
        for r in submit_records(i) {
            journal(&mut node, &mut store, &r);
        }
    }
    let elapsed = start.elapsed();
    let ns_per_submit = elapsed.as_nanos() as f64 / submits as f64;
    drop(store);
    let _ = fs::remove_dir_all(&root);
    println!(
        "{:<22} {submits:>7} submits   {:>10.1} ns/submit ({:.1} us)",
        "journal_append_submit",
        ns_per_submit,
        ns_per_submit / 1000.0
    );
    rows.push(
        Json::object()
            .with("op", "journal_append_submit")
            .with("submits", submits)
            .with("records", submits * 3)
            .with("ns_per_op", ns_per_submit),
    );

    // Replay: worst-case tails (compaction off) at two journal depths,
    // then the same large history with default compaction.
    let uncompacted = usize::MAX;
    let mut compaction_base = 0.0f64;
    for (op, n, compact_every) in [
        ("replay_1k", replay_small, uncompacted),
        ("replay_10k", replay_large, uncompacted),
        (
            "replay_compacted_10k",
            replay_large,
            shadow::DEFAULT_COMPACT_EVERY,
        ),
    ] {
        let (root, disk_bytes) = build_journal(op, n, compact_every);
        let (ms, replayed) = time_replay(&root);
        let _ = fs::remove_dir_all(&root);
        let ns_per_record = ms * 1_000_000.0 / n as f64;
        if op == "replay_10k" {
            compaction_base = ms;
        }
        let note = if op == "replay_compacted_10k" && compaction_base > 0.0 {
            format!(
                "   ({:.1}x faster than uncompacted)",
                compaction_base / ms.max(1e-9)
            )
        } else {
            String::new()
        };
        println!(
            "{op:<22} {n:>7} records   {ms:>10.2} ms   {replayed:>6} replayed   {:>9} KiB on disk{note}",
            disk_bytes / 1024
        );
        rows.push(
            Json::object()
                .with("op", op)
                .with("records", n)
                .with("replay_ms", ms)
                .with("replayed", replayed)
                .with("disk_bytes", disk_bytes)
                .with("ns_per_op", ns_per_record),
        );
    }

    export_rows("recovery", rows);
    println!();
    println!("expected shape: appends are sequential writes (microseconds each);");
    println!("uncompacted replay grows linearly with journal depth; compaction");
    println!("bounds replay by live state, not history length.");
}

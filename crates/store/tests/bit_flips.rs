//! Bit rot in a journal or snapshot segment: whatever bits flip, reopening
//! the store and replaying it through `ServerNode::restore` never panics,
//! and every entry it rebuilds holds exactly the content the server held
//! for that version. Damage may lose entries — each costs one full
//! transfer (paper §5.1) — but it never alters one.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::slice;

use bytes::Bytes;
use proptest::prelude::*;
use shadow_diff::{diff_docs, DiffAlgorithm, DiffScratch, DocBuf};
use shadow_proto::{
    ContentDigest, DeltaCodec, DomainId, FileId, FileKey, JobId, PersistRecord, VersionNumber,
};
use shadow_runtime::PersistSink;
use shadow_server::{ServerConfig, ServerNode};
use shadow_store::DurableStore;

const DOMAIN: DomainId = DomainId::new(1);

/// What the server held: cache content per `(file, version)` and
/// output content per `(job file, job)`.
#[derive(Debug, Default)]
struct Truth {
    cache: HashMap<(FileId, VersionNumber), Bytes>,
    outputs: HashMap<(FileId, JobId), Bytes>,
}

impl Truth {
    fn observe(&mut self, node: &ServerNode) {
        for record in node.snapshot(DOMAIN) {
            match record {
                PersistRecord::CacheFull {
                    key,
                    version,
                    content,
                } => {
                    self.cache.insert((key.file, version), content);
                }
                PersistRecord::Output {
                    job_file,
                    job,
                    content,
                    ..
                } => {
                    self.outputs.insert((job_file, job), content);
                }
                _ => {}
            }
        }
    }
}

/// The records of a short editing session: three files, each a full
/// version followed by a chain of line deltas, and a job output with
/// its ack after every round.
fn history() -> Vec<PersistRecord> {
    let mut records = Vec::new();
    let mut heads: Vec<String> = (0..3).map(|f| format!("file {f}\nline\n")).collect();
    for (f, head) in (1u64..).zip(&heads) {
        records.push(PersistRecord::CacheFull {
            key: FileKey::new(DOMAIN, FileId::new(f)),
            version: VersionNumber::FIRST,
            content: Bytes::from(head.clone().into_bytes()),
        });
    }
    for round in 1..=6u64 {
        for (f, head) in (1u64..).zip(heads.iter_mut()) {
            let next = format!("{head}round {round}\n");
            let script = diff_docs(
                DiffAlgorithm::HuntMcIlroy,
                &DocBuf::from_bytes(head.clone().into_bytes()),
                &DocBuf::from_bytes(next.clone().into_bytes()),
                &mut DiffScratch::new(),
            );
            records.push(PersistRecord::CacheDelta {
                key: FileKey::new(DOMAIN, FileId::new(f)),
                version: VersionNumber::new(round + 1),
                base: VersionNumber::new(round),
                codec: DeltaCodec::Line,
                script: Bytes::from(script.to_text()),
                digest: ContentDigest::of(next.as_bytes()),
            });
            *head = next;
        }
        records.push(PersistRecord::Output {
            domain: DOMAIN,
            job_file: FileId::new(9),
            job: JobId::new(round),
            content: Bytes::from(format!("output of round {round}\n").into_bytes()),
        });
        records.push(PersistRecord::OutputAcked {
            domain: DOMAIN,
            job: JobId::new(round),
        });
    }
    records
}

/// Journals the history through a server, compacting every
/// `compact_every` appends as a shard would, and returns what the
/// server held along the way.
fn build(root: &Path, compact_every: usize) -> Truth {
    let mut store = DurableStore::open(root)
        .unwrap()
        .with_compact_every(compact_every);
    let mut node = ServerNode::new(ServerConfig::new("remote"));
    let mut truth = Truth::default();
    for record in history() {
        node.restore(slice::from_ref(&record));
        store.persist(&record);
        store.compact(&mut |domain| node.snapshot(domain));
        truth.observe(&node);
    }
    truth
}

fn temp_root(case: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("store-bit-flips-{}-{case}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn flipped_bits_lose_entries_but_never_alter_them(
        compact_every in 4usize..30,
        in_snapshot in any::<bool>(),
        flips in prop::collection::vec(any::<u64>(), 1..9),
        case in any::<u64>(),
    ) {
        let root = temp_root(case);
        let _ = fs::remove_dir_all(&root);
        let truth = build(&root, compact_every);
        let domain_dir = root.join(format!("domain-{:016x}", DOMAIN.as_u64()));
        let segment = domain_dir.join(if in_snapshot { "snapshot.log" } else { "journal.log" });
        // The history is longer than any interval drawn, so both
        // segments exist.
        let mut bytes = fs::read(&segment).unwrap();
        let bits = bytes.len() as u64 * 8;
        for flip in &flips {
            let bit = flip % bits;
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        fs::write(&segment, &bytes).unwrap();

        let mut store = DurableStore::open(&root).unwrap();
        let mut node = ServerNode::new(ServerConfig::new("remote"));
        node.restore(&store.recovered());
        for record in node.snapshot(DOMAIN) {
            match record {
                PersistRecord::CacheFull { key, version, content } => {
                    prop_assert_eq!(
                        truth.cache.get(&(key.file, version)),
                        Some(&content),
                        "{:?} {} was altered", key, version
                    );
                }
                PersistRecord::Output { job_file, job, content, .. } => {
                    prop_assert_eq!(
                        truth.outputs.get(&(job_file, job)),
                        Some(&content),
                        "output of {:?} was altered", job
                    );
                }
                _ => {}
            }
        }
        drop(store);
        let _ = fs::remove_dir_all(&root);
    }
}

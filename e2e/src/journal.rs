//! The journal a durable deployment starts from: 2,000 records over the
//! naming domains 100–115, so every `durable_report` set-up replays a
//! realistic store (full versions and delta chains) before serving.

use std::path::Path;

use bytes::Bytes;
use shadow::{
    diff_docs, ContentDigest, DeltaCodec, DiffAlgorithm, DiffScratch, DocBuf, DomainId,
    DurableStore, EditModel, FileId, FileKey, FileSpec, PersistRecord, PersistSink, VersionNumber,
};

use crate::Error;

/// Records in the seeded journal.
pub const RECORDS: usize = 2_000;
/// The first seeded naming domain; sixteen follow from it.
const FIRST_DOMAIN: u64 = 100;
const DOMAINS: u64 = 16;
/// Files per seeded domain.
const FILES: u64 = 4;
/// Size of each seeded file.
const FILE_BYTES: usize = 2_000;

/// The seeded records, in journal order: each of the 64 files starts
/// with a full version and continues as a chain of line deltas.
pub fn records(seed: u64) -> Vec<PersistRecord> {
    let keys = DOMAINS * FILES;
    let mut heads: Vec<Option<(VersionNumber, DocBuf)>> = vec![None; keys as usize];
    let mut scratch = DiffScratch::new();
    (0..RECORDS as u64)
        .map(|n| {
            let k = n % keys;
            let key = FileKey::new(
                DomainId::new(FIRST_DOMAIN + k / FILES),
                FileId::new(1 + k % FILES),
            );
            let file_seed = seed.wrapping_mul(31).wrapping_add(n);
            let head = &mut heads[k as usize];
            match head.take() {
                None => {
                    let content = shadow::generate_file(&FileSpec::new(FILE_BYTES, file_seed));
                    *head = Some((VersionNumber::FIRST, DocBuf::from_bytes(content.clone())));
                    PersistRecord::CacheFull {
                        key,
                        version: VersionNumber::FIRST,
                        content: Bytes::from(content),
                    }
                }
                Some((base, old)) => {
                    let model = EditModel {
                        insert_bias: 0.0,
                        ..EditModel::fraction(0.05, file_seed)
                    };
                    let new = DocBuf::from_bytes(model.apply(old.as_bytes()));
                    let script =
                        diff_docs(DiffAlgorithm::HuntMcIlroy, &old, &new, &mut scratch).to_text();
                    let version = base.next();
                    let record = PersistRecord::CacheDelta {
                        key,
                        version,
                        base,
                        codec: DeltaCodec::Line,
                        script: Bytes::from(script),
                        digest: ContentDigest::of(new.as_bytes()),
                    };
                    *head = Some((version, new));
                    record
                }
            }
        })
        .collect()
}

/// Writes `records` into a fresh store under `root` as one uncompacted
/// journal per domain.
///
/// # Errors
///
/// The store could not be opened or an append failed.
pub fn seed(root: &Path, records: &[PersistRecord]) -> Result<(), Error> {
    let mut store = DurableStore::open(root)?.with_compact_every(usize::MAX);
    for record in records {
        store.persist(record);
    }
    match store.section().get("io_errors").and_then(|v| v.as_u64()) {
        Some(0) => Ok(()),
        _ => Err("seeding the journal hit I/O errors".into()),
    }
}

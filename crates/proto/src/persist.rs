//! Storage intents for the durable shadow store.
//!
//! A [`PersistRecord`] describes one mutation of the server's restart-
//! surviving state — the shadow cache and the output shadow store — in
//! exactly the terms the server applied it. The server state machine
//! *emits* these records (as `ServerAction::Persist` in `shadow-server`);
//! the runtime layer appends them to a per-domain write-ahead journal
//! (`shadow-store`); and startup replay feeds them back through
//! `ServerNode::restore` to rebuild version chains without re-transfer.
//!
//! Records archive *deltas*, not materialized versions, whenever the
//! client sent a delta: the journal is then a compressed version chain in
//! the spirit of differential archiving, and snapshot compaction (the
//! server's own `ServerNode::snapshot`) is what re-materializes it. Every record names its [`DomainId`] so journals
//! shard with the same domain affinity as the server runtime.

use bytes::{BufMut, Bytes, BytesMut};

use crate::message::DeltaCodec;
use crate::wire::{get_codec, put_bytes, put_codec, Cursor, WireDecode, WireEncode};
use crate::{ContentDigest, DomainId, FileId, FileKey, JobId, VersionNumber, WireError};

/// One durable mutation of the server's shadow state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistRecord {
    /// A file version entered the shadow cache as full content.
    CacheFull {
        /// The file the content belongs to.
        key: FileKey,
        /// The version now cached.
        version: VersionNumber,
        /// The complete file content.
        content: Bytes,
    },
    /// A file version entered the shadow cache by applying a delta to
    /// the previously cached base — the record archives the *delta*,
    /// and replay re-applies it.
    CacheDelta {
        /// The file the delta applies to.
        key: FileKey,
        /// The version produced by applying the delta.
        version: VersionNumber,
        /// The base version the delta was diffed against.
        base: VersionNumber,
        /// Delta representation carried in `script`.
        codec: DeltaCodec,
        /// The serialized delta (ed script or chunk delta).
        script: Bytes,
        /// Digest of the *resulting* content; replay verifies it.
        digest: ContentDigest,
    },
    /// A file left the shadow cache (eviction or failed update).
    CacheRemove {
        /// The file that was dropped.
        key: FileKey,
    },
    /// A job output entered the output shadow store.
    Output {
        /// The domain the job belongs to.
        domain: DomainId,
        /// The job command file (the output-shadow key).
        job_file: FileId,
        /// The job that produced the output.
        job: JobId,
        /// The complete output content.
        content: Bytes,
    },
    /// The client acknowledged receipt of a job's output, making it a
    /// valid delta base for future runs.
    OutputAcked {
        /// The domain the job belongs to.
        domain: DomainId,
        /// The acknowledged job.
        job: JobId,
    },
}

impl PersistRecord {
    /// The naming domain this record belongs to — the journal shard key.
    pub fn domain(&self) -> DomainId {
        match self {
            PersistRecord::CacheFull { key, .. }
            | PersistRecord::CacheDelta { key, .. }
            | PersistRecord::CacheRemove { key } => key.domain,
            PersistRecord::Output { domain, .. } | PersistRecord::OutputAcked { domain, .. } => {
                *domain
            }
        }
    }

    /// Bytes of payload carried (journal sizing/diagnostics).
    pub fn payload_len(&self) -> usize {
        match self {
            PersistRecord::CacheFull { content, .. } => content.len(),
            PersistRecord::CacheDelta { script, .. } => script.len(),
            PersistRecord::Output { content, .. } => content.len(),
            PersistRecord::CacheRemove { .. } | PersistRecord::OutputAcked { .. } => 0,
        }
    }
}

const PR_CACHE_FULL: u8 = 0x01;
const PR_CACHE_DELTA: u8 = 0x02;
const PR_CACHE_REMOVE: u8 = 0x03;
const PR_OUTPUT: u8 = 0x04;
const PR_OUTPUT_ACKED: u8 = 0x05;

fn put_key(buf: &mut BytesMut, key: FileKey) {
    buf.put_u64_le(key.domain.as_u64());
    buf.put_u64_le(key.file.as_u64());
}

fn get_key(c: &mut Cursor<'_>) -> Result<FileKey, WireError> {
    Ok(FileKey::new(
        DomainId::new(c.get_u64()?),
        FileId::new(c.get_u64()?),
    ))
}

impl WireEncode for PersistRecord {
    fn encode_body(&self, buf: &mut BytesMut) {
        match self {
            PersistRecord::CacheFull {
                key,
                version,
                content,
            } => {
                buf.put_u8(PR_CACHE_FULL);
                put_key(buf, *key);
                buf.put_u64_le(version.as_u64());
                put_bytes(buf, content);
            }
            PersistRecord::CacheDelta {
                key,
                version,
                base,
                codec,
                script,
                digest,
            } => {
                buf.put_u8(PR_CACHE_DELTA);
                put_key(buf, *key);
                buf.put_u64_le(version.as_u64());
                buf.put_u64_le(base.as_u64());
                put_codec(buf, *codec);
                put_bytes(buf, script);
                buf.put_u64_le(digest.as_u64());
            }
            PersistRecord::CacheRemove { key } => {
                buf.put_u8(PR_CACHE_REMOVE);
                put_key(buf, *key);
            }
            PersistRecord::Output {
                domain,
                job_file,
                job,
                content,
            } => {
                buf.put_u8(PR_OUTPUT);
                buf.put_u64_le(domain.as_u64());
                buf.put_u64_le(job_file.as_u64());
                buf.put_u64_le(job.as_u64());
                put_bytes(buf, content);
            }
            PersistRecord::OutputAcked { domain, job } => {
                buf.put_u8(PR_OUTPUT_ACKED);
                buf.put_u64_le(domain.as_u64());
                buf.put_u64_le(job.as_u64());
            }
        }
    }
}

impl WireDecode for PersistRecord {
    fn decode_body(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        match c.get_u8()? {
            PR_CACHE_FULL => Ok(PersistRecord::CacheFull {
                key: get_key(c)?,
                version: VersionNumber::new(c.get_u64()?),
                content: c.get_bytes()?,
            }),
            PR_CACHE_DELTA => Ok(PersistRecord::CacheDelta {
                key: get_key(c)?,
                version: VersionNumber::new(c.get_u64()?),
                base: VersionNumber::new(c.get_u64()?),
                codec: get_codec(c)?,
                script: c.get_bytes()?,
                digest: ContentDigest::from_raw(c.get_u64()?),
            }),
            PR_CACHE_REMOVE => Ok(PersistRecord::CacheRemove { key: get_key(c)? }),
            PR_OUTPUT => Ok(PersistRecord::Output {
                domain: DomainId::new(c.get_u64()?),
                job_file: FileId::new(c.get_u64()?),
                job: JobId::new(c.get_u64()?),
                content: c.get_bytes()?,
            }),
            PR_OUTPUT_ACKED => Ok(PersistRecord::OutputAcked {
                domain: DomainId::new(c.get_u64()?),
                job: JobId::new(c.get_u64()?),
            }),
            tag => Err(WireError::UnknownTag {
                what: "PersistRecord",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Frame;

    fn round_trip(record: PersistRecord) {
        let bytes = Frame::encode(&record);
        let (decoded, used) = Frame::decode::<PersistRecord>(&bytes).unwrap().unwrap();
        assert_eq!(decoded, record);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn all_record_variants_round_trip() {
        let key = FileKey::new(DomainId::new(7), FileId::new(3));
        round_trip(PersistRecord::CacheFull {
            key,
            version: VersionNumber::new(2),
            content: Bytes::from_static(b"line one\nline two\n"),
        });
        round_trip(PersistRecord::CacheDelta {
            key,
            version: VersionNumber::new(3),
            base: VersionNumber::new(2),
            codec: DeltaCodec::Line,
            script: Bytes::from_static(b"2c\nchanged\n.\nw\n"),
            digest: ContentDigest::of(b"line one\nchanged\n"),
        });
        round_trip(PersistRecord::CacheDelta {
            key,
            version: VersionNumber::new(4),
            base: VersionNumber::new(3),
            codec: DeltaCodec::Chunk,
            script: Bytes::from_static(b"\x01\x00\x00\x00\x00"),
            digest: ContentDigest::of(b""),
        });
        round_trip(PersistRecord::CacheRemove { key });
        round_trip(PersistRecord::Output {
            domain: DomainId::new(7),
            job_file: FileId::new(3),
            job: JobId::new(11),
            content: Bytes::from_static(b"result: 42\n"),
        });
        round_trip(PersistRecord::OutputAcked {
            domain: DomainId::new(7),
            job: JobId::new(11),
        });
    }

    #[test]
    fn domain_affinity_is_stable_across_variants() {
        let key = FileKey::new(DomainId::new(9), FileId::new(1));
        let records = [
            PersistRecord::CacheFull {
                key,
                version: VersionNumber::FIRST,
                content: Bytes::new(),
            },
            PersistRecord::CacheRemove { key },
            PersistRecord::OutputAcked {
                domain: DomainId::new(9),
                job: JobId::new(1),
            },
        ];
        assert!(records.iter().all(|r| r.domain() == DomainId::new(9)));
    }

    #[test]
    fn unknown_tag_is_a_wire_error() {
        let framed = [1u8, 0, 0, 0, 0x7F];
        let err = Frame::decode::<PersistRecord>(&framed).unwrap_err();
        assert_eq!(
            err,
            WireError::UnknownTag {
                what: "PersistRecord",
                tag: 0x7F
            }
        );
    }
}

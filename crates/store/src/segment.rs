//! On-disk framing for journal and snapshot segments.
//!
//! Both files share one layout:
//!
//! ```text
//! [8-byte magic][u64 LE seq]          segment header
//! [frame][u64 LE FNV-1a of frame]*    zero or more records
//! ```
//!
//! where `frame` is the wire codec's length-prefixed encoding of one
//! [`PersistRecord`] — exactly the bytes `Frame::encode` produces for
//! the network — and the trailing checksum covers those frame bytes.
//! The `seq` header carries the store's monotonic record counter: a
//! journal's records-before-this-file *base*, a snapshot's
//! records-*covered* count. Comparing the two is what lets recovery
//! skip journal records a crash left behind after they were already
//! compacted into the snapshot.
//!
//! Reading never fails on bad data: the readable prefix is returned
//! together with a [`Damage`] verdict and the byte length of that
//! prefix, and the caller truncates (or rewrites) the rest away.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;

use shadow_proto::{ContentDigest, Frame, PersistRecord};

/// Journal segment magic ("base" semantics for `seq`). The trailing
/// digit tracks the record/digest format: `2` added the per-delta codec
/// tag and block-wise digests (protocol version 3); `3` carries the
/// four-lane digest format 3, in record digests and in the per-record
/// checksums (protocol version 4). Older segments read as corrupt and
/// recovery starts empty — the shadow cache is best effort, so clients
/// simply re-seed with full transfers.
pub(crate) const JOURNAL_MAGIC: &[u8; 8] = b"SHDWJRN3";
/// Snapshot segment magic ("covers" semantics for `seq`).
pub(crate) const SNAPSHOT_MAGIC: &[u8; 8] = b"SHDWSNP3";
/// Magic plus the `seq` counter.
const HEADER_LEN: usize = 16;
/// Bytes of FNV-1a checksum trailing every record frame.
const CHECKSUM_LEN: usize = 8;

/// Why a segment's readable prefix ended before the file did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Damage {
    /// Every byte decoded.
    None,
    /// The last record is incomplete — the classic torn tail of a
    /// crash mid-append.
    Torn,
    /// A record (or the header itself) failed its checksum or decode —
    /// bit rot or an overwritten region.
    Corrupt,
}

/// The readable content of one segment file.
#[derive(Debug)]
pub(crate) struct Segment {
    /// The header's monotonic record counter (0 when the header itself
    /// was unreadable).
    pub seq: u64,
    /// Records of the valid prefix, in file order.
    pub records: Vec<PersistRecord>,
    /// How (whether) the readable prefix ended early.
    pub damage: Damage,
}

/// Appends one record's on-disk form (frame + checksum) to `buf`,
/// encoding straight into the caller's buffer (no per-record frame
/// allocation).
pub(crate) fn encode_record(record: &PersistRecord, buf: &mut Vec<u8>) {
    let start = buf.len();
    Frame::encode_into(record, buf);
    let sum = ContentDigest::of(buf.get(start..).unwrap_or_default()).as_u64();
    buf.extend_from_slice(&sum.to_le_bytes());
}

/// Reads a segment, salvaging the longest valid prefix. `Ok(None)`
/// means the file does not exist (an empty store, not an error);
/// genuine I/O failures are returned as errors.
pub(crate) fn read_segment(path: &Path, magic: &[u8; 8]) -> io::Result<Option<Segment>> {
    let data = match fs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let Some((seq, mut rest)) = data
        .split_first_chunk()
        .filter(|(head, _)| *head == magic)
        .and_then(|(_, rest)| rest.split_first_chunk())
        .map(|(seq, rest)| (u64::from_le_bytes(*seq), rest))
    else {
        // Nothing below an unreadable header can be trusted.
        return Ok(Some(Segment {
            seq: 0,
            records: Vec::new(),
            damage: Damage::Corrupt,
        }));
    };
    let mut records = Vec::new();
    let mut damage = Damage::None;
    while !rest.is_empty() {
        match Frame::decode::<PersistRecord>(rest) {
            Ok(Some((record, used))) => {
                let Some((frame, tail)) = rest.split_at_checked(used) else {
                    damage = Damage::Corrupt;
                    break;
                };
                let Some((sum, next)) = tail.split_first_chunk::<CHECKSUM_LEN>() else {
                    damage = Damage::Torn;
                    break;
                };
                if ContentDigest::of(frame).as_u64() != u64::from_le_bytes(*sum) {
                    damage = Damage::Corrupt;
                    break;
                }
                records.push(record);
                rest = next;
            }
            Ok(None) => {
                damage = Damage::Torn;
                break;
            }
            Err(_) => {
                damage = Damage::Corrupt;
                break;
            }
        }
    }
    Ok(Some(Segment { seq, records, damage }))
}

/// Writes a whole segment atomically: build in memory, write to a
/// `.tmp` sibling, fsync, rename over the target. A crash leaves either
/// the old segment or the new one, never a mix.
pub(crate) fn write_segment(
    path: &Path,
    magic: &[u8; 8],
    seq: u64,
    records: &[PersistRecord],
) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut buf = Vec::with_capacity(HEADER_LEN + records.len() * 64);
    buf.extend_from_slice(magic);
    buf.extend_from_slice(&seq.to_le_bytes());
    for record in records {
        encode_record(record, &mut buf);
    }
    let mut file = File::create(&tmp)?;
    file.write_all(&buf)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use shadow_proto::{DomainId, FileId, FileKey, VersionNumber};

    fn sample(n: u64) -> PersistRecord {
        PersistRecord::CacheFull {
            key: FileKey::new(DomainId::new(1), FileId::new(n)),
            version: VersionNumber::FIRST,
            content: Bytes::from(format!("content {n}\n").into_bytes()),
        }
    }

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("shadow-segment-{tag}-{}", std::process::id()))
    }

    #[test]
    fn segment_round_trips_records_and_seq() {
        let path = tmp_path("round");
        let records = vec![sample(1), sample(2), sample(3)];
        write_segment(&path, JOURNAL_MAGIC, 42, &records).unwrap();
        let seg = read_segment(&path, JOURNAL_MAGIC).unwrap().unwrap();
        assert_eq!(seg.seq, 42);
        assert_eq!(seg.records, records);
        assert_eq!(seg.damage, Damage::None);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_none_and_wrong_magic_is_corrupt() {
        let path = tmp_path("magic");
        let _ = fs::remove_file(&path);
        assert!(read_segment(&path, JOURNAL_MAGIC).unwrap().is_none());
        write_segment(&path, SNAPSHOT_MAGIC, 1, &[]).unwrap();
        let seg = read_segment(&path, JOURNAL_MAGIC).unwrap().unwrap();
        assert_eq!(seg.damage, Damage::Corrupt);
        assert!(seg.records.is_empty());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn format_two_segments_read_as_corrupt() {
        for (old, magic) in [(b"SHDWJRN2", JOURNAL_MAGIC), (b"SHDWSNP2", SNAPSHOT_MAGIC)] {
            let path = tmp_path("format-two");
            write_segment(&path, old, 7, &[sample(1), sample(2)]).unwrap();
            let seg = read_segment(&path, magic).unwrap().unwrap();
            assert_eq!(seg.damage, Damage::Corrupt);
            assert_eq!(seg.seq, 0);
            assert!(seg.records.is_empty());
            let _ = fs::remove_file(&path);
        }
    }

    #[test]
    fn torn_tail_keeps_the_valid_prefix() {
        let path = tmp_path("torn");
        write_segment(&path, JOURNAL_MAGIC, 0, &[sample(1), sample(2)]).unwrap();
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 5]).unwrap();
        let seg = read_segment(&path, JOURNAL_MAGIC).unwrap().unwrap();
        assert_eq!(seg.records, vec![sample(1)]);
        assert_eq!(seg.damage, Damage::Torn);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn checksum_flip_marks_corruption_at_that_record() {
        let path = tmp_path("flip");
        write_segment(&path, JOURNAL_MAGIC, 0, &[sample(1), sample(2)]).unwrap();
        let mut data = fs::read(&path).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0xFF;
        fs::write(&path, &data).unwrap();
        let seg = read_segment(&path, JOURNAL_MAGIC).unwrap().unwrap();
        assert_eq!(seg.records, vec![sample(1)]);
        assert_eq!(seg.damage, Damage::Corrupt);
        let _ = fs::remove_file(&path);
    }
}

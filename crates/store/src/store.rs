//! The durable store: per-domain journals, snapshot compaction,
//! startup recovery.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use shadow_obs::Section;
use shadow_proto::{DomainId, PersistRecord};
use shadow_runtime::{shard_for, PersistSink};

use crate::segment::{read_segment, write_segment, Damage, JOURNAL_MAGIC, SNAPSHOT_MAGIC};

/// Journal file name inside a domain directory.
const JOURNAL_FILE: &str = "journal.log";
/// Snapshot file name inside a domain directory.
const SNAPSHOT_FILE: &str = "snapshot.log";
/// Appends per domain between snapshot compactions, unless overridden
/// with [`DurableStore::with_compact_every`].
pub const DEFAULT_COMPACT_EVERY: usize = 64;

/// What startup recovery found (and had to give up on).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Domain directories recovered (after shard filtering).
    pub domains: usize,
    /// Records salvaged from snapshots.
    pub snapshot_records: usize,
    /// Fresh records salvaged from journals.
    pub journal_records: usize,
    /// Journal records skipped because the snapshot already covered
    /// them (a crash landed between snapshot publication and journal
    /// reset).
    pub stale_skipped: usize,
    /// Segments whose last record was torn mid-write and truncated away.
    pub torn_tails: usize,
    /// Segments cut short by a checksum or decode failure.
    pub corrupt_segments: usize,
    /// Records `ServerNode::restore` skipped (broken delta chains). The
    /// store never applies a record, so it leaves this at 0; a
    /// deployment fills it from `RestoreSummary::skipped`.
    pub dropped_records: usize,
}

impl RecoverySummary {
    /// Total records salvaged for replay.
    pub fn replayed(&self) -> usize {
        self.snapshot_records + self.journal_records
    }

    /// True when recovery lost *anything* — the store degraded rather
    /// than failed, but the operator should know.
    pub fn degraded(&self) -> bool {
        self.torn_tails + self.corrupt_segments + self.dropped_records > 0
    }
}

/// One domain's journal: its directory and append handle.
#[derive(Debug)]
struct DomainStore {
    dir: PathBuf,
    /// Append handle for `journal.log`; reopened lazily after
    /// compaction replaces the file.
    appender: Option<File>,
    /// Monotonic count of records ever journaled for this domain; the
    /// basis for snapshot `covers` / journal `base` headers.
    seq: u64,
    /// Appends since the last compaction.
    since_compact: usize,
}

/// The durable shadow store behind one server (or one shard).
///
/// Layout under `root`:
///
/// ```text
/// <root>/domain-<016x>/journal.log    append-only record frames
/// <root>/domain-<016x>/snapshot.log   compacted equivalent state
/// ```
///
/// The store is a plain log and a [`PersistSink`]: the runtime hands it
/// every `ServerAction::Persist` record and it appends the record to
/// the owning domain's journal. A domain falls due after
/// [`DEFAULT_COMPACT_EVERY`] appends; the next
/// [`compact`](PersistSink::compact) call writes the server's own
/// `ServerNode::snapshot` of it as the domain's snapshot and resets its
/// journal. The store never interprets a record: opening it reads and
/// repairs the segments, and [`recovered`](Self::recovered) hands the
/// salvaged records over, once, for `ServerNode::restore` to replay.
///
/// Sharded deployments open one store *per shard* over the same root:
/// [`open_shard`](Self::open_shard) recovers only the domains
/// [`shard_for`] assigns to that shard, so journals shard with exactly
/// the same domain affinity as the server runtime and no file is ever
/// shared between threads.
#[derive(Debug)]
pub struct DurableStore {
    root: PathBuf,
    shard_index: usize,
    shard_count: usize,
    compact_every: usize,
    domains: HashMap<DomainId, DomainStore>,
    /// Domains whose journal reached `compact_every` appends since their
    /// last snapshot, for the next [`compact`](PersistSink::compact).
    due: Vec<DomainId>,
    /// Records salvaged at open, until [`recovered`](Self::recovered)
    /// takes them.
    recovered: Vec<PersistRecord>,
    summary: RecoverySummary,
    appends: u64,
    appended_bytes: u64,
    compactions: u64,
    io_errors: u64,
}

fn domain_dir_name(domain: DomainId) -> String {
    format!("domain-{:016x}", domain.as_u64())
}

fn parse_domain_dir(name: &str) -> Option<DomainId> {
    let hex = name.strip_prefix("domain-")?;
    u64::from_str_radix(hex, 16).ok().map(DomainId::new)
}

impl DurableStore {
    /// Opens (creating if needed) the store for a single-server
    /// deployment, recovering every domain under `root`.
    ///
    /// # Errors
    ///
    /// I/O failures creating or scanning the root. Damaged segment
    /// *content* is never an error — it is truncated away and counted
    /// in the [`RecoverySummary`].
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_shard(root, 0, 1)
    }

    /// Opens the store for shard `shard_index` of `shard_count`,
    /// recovering only the domains that shard owns.
    ///
    /// # Errors
    ///
    /// See [`open`](Self::open).
    pub fn open_shard(
        root: impl Into<PathBuf>,
        shard_index: usize,
        shard_count: usize,
    ) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let mut store = DurableStore {
            root,
            shard_index,
            shard_count: shard_count.max(1),
            compact_every: DEFAULT_COMPACT_EVERY,
            domains: HashMap::new(),
            due: Vec::new(),
            recovered: Vec::new(),
            summary: RecoverySummary::default(),
            appends: 0,
            appended_bytes: 0,
            compactions: 0,
            io_errors: 0,
        };
        let mut owned = Vec::new();
        for entry in fs::read_dir(&store.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let Some(domain) = entry.file_name().to_str().and_then(parse_domain_dir) else {
                continue;
            };
            if shard_for(domain, store.shard_count) == store.shard_index {
                owned.push((domain, entry.path()));
            }
        }
        // Domains in id order, so replay is deterministic.
        owned.sort_unstable_by_key(|(domain, _)| domain.as_u64());
        for (domain, dir) in owned {
            store.recover_domain(domain, dir)?;
        }
        store.summary.domains = store.domains.len();
        Ok(store)
    }

    /// Overrides the per-domain compaction interval (appends between
    /// snapshots). Clamped to at least 1.
    pub fn with_compact_every(mut self, every: usize) -> Self {
        self.compact_every = every.max(1);
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// `(shard_index, shard_count)` this store recovers and journals for.
    pub fn shard(&self) -> (usize, usize) {
        (self.shard_index, self.shard_count)
    }

    /// What recovery found when the store was opened.
    pub fn summary(&self) -> RecoverySummary {
        self.summary
    }

    /// Takes the records salvaged at open time, to feed
    /// `ServerNode::restore`: domains in id order, each as its snapshot
    /// and then the journal records the snapshot does not cover. Hands
    /// them over once (later calls return nothing), so the store keeps
    /// no shadow content while serving.
    pub fn recovered(&mut self) -> Vec<PersistRecord> {
        std::mem::take(&mut self.recovered)
    }

    /// The store's report section: recovery outcome plus live append /
    /// compaction counters.
    pub fn section(&self) -> Section {
        Section::new("store")
            .with("domains", self.domains.len())
            .with("recovered_records", self.summary.replayed())
            .with("stale_skipped", self.summary.stale_skipped)
            .with("torn_tails", self.summary.torn_tails)
            .with("corrupt_segments", self.summary.corrupt_segments)
            .with("appends", self.appends)
            .with("appended_bytes", self.appended_bytes)
            .with("compactions", self.compactions)
            .with("io_errors", self.io_errors)
    }

    /// Reads one domain directory: the snapshot, then the journal
    /// records the snapshot does not already cover. Nothing is applied;
    /// the salvaged records join [`recovered`](Self::recovered). Any
    /// damage (torn tail, corruption, an interrupted compaction) is
    /// repaired by re-persisting the salvage as a fresh snapshot + empty
    /// journal, so the next open starts clean.
    fn recover_domain(&mut self, domain: DomainId, dir: PathBuf) -> io::Result<()> {
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let journal_path = dir.join(JOURNAL_FILE);
        let mut salvage = Vec::new();
        let mut covers = 0u64;
        let mut damaged = false;

        if let Some(seg) = read_segment(&snapshot_path, SNAPSHOT_MAGIC)? {
            // A damaged snapshot no longer covers what its header
            // claims; trusting `covers` would skip journal records that
            // are now the only copy. Degrade to replaying the journal
            // in full.
            match seg.damage {
                Damage::None => covers = seg.seq,
                Damage::Torn => {
                    self.summary.torn_tails += 1;
                    damaged = true;
                }
                Damage::Corrupt => {
                    self.summary.corrupt_segments += 1;
                    damaged = true;
                }
            }
            self.summary.snapshot_records += seg.records.len();
            salvage = seg.records;
        }

        let mut base = 0u64;
        let mut journal_total = 0u64;
        let mut stale = 0usize;
        if let Some(mut seg) = read_segment(&journal_path, JOURNAL_MAGIC)? {
            match seg.damage {
                Damage::None => {}
                Damage::Torn => {
                    self.summary.torn_tails += 1;
                    damaged = true;
                }
                Damage::Corrupt => {
                    self.summary.corrupt_segments += 1;
                    damaged = true;
                }
            }
            base = seg.seq;
            journal_total = seg.records.len() as u64;
            stale = usize::try_from(covers.saturating_sub(base))
                .map_or(seg.records.len(), |n| n.min(seg.records.len()));
            self.summary.stale_skipped += stale;
            self.summary.journal_records += seg.records.len() - stale;
            salvage.extend(seg.records.drain(stale..));
        }

        let seq = covers.max(base.saturating_add(journal_total));
        if damaged || stale > 0 {
            // The salvage is the only intact copy now; persist it before
            // serving so a second crash cannot lose it again.
            write_segment(&snapshot_path, SNAPSHOT_MAGIC, seq, &salvage)?;
            write_segment(&journal_path, JOURNAL_MAGIC, seq, &[])?;
        }
        self.recovered.extend(salvage);
        self.domains.insert(
            domain,
            DomainStore {
                dir,
                appender: None,
                seq,
                since_compact: 0,
            },
        );
        Ok(())
    }

    fn append(&mut self, domain: DomainId, record: &PersistRecord) -> io::Result<()> {
        if !self.domains.contains_key(&domain) {
            let dir = self.root.join(domain_dir_name(domain));
            fs::create_dir_all(&dir)?;
            self.domains.insert(
                domain,
                DomainStore {
                    dir,
                    appender: None,
                    seq: 0,
                    since_compact: 0,
                },
            );
        }
        let compact_every = self.compact_every;
        let ds = self.domains.get_mut(&domain).expect("domain just ensured");
        if ds.appender.is_none() {
            let journal = ds.dir.join(JOURNAL_FILE);
            if !journal.exists() {
                write_segment(&journal, JOURNAL_MAGIC, ds.seq, &[])?;
            }
            ds.appender = Some(OpenOptions::new().append(true).open(&journal)?);
        }
        let mut buf = Vec::new();
        crate::segment::encode_record(record, &mut buf);
        ds.appender
            .as_mut()
            .expect("appender just opened")
            .write_all(&buf)?;
        ds.seq += 1;
        ds.since_compact += 1;
        if ds.since_compact == compact_every {
            self.due.push(domain);
        }
        self.appends += 1;
        self.appended_bytes += buf.len() as u64;
        Ok(())
    }

    /// Publishes `records` (the server's snapshot of the domain) as the
    /// domain's snapshot, then resets the journal. The order is the
    /// crash-consistency argument: after the snapshot rename lands, the
    /// journal's records are *stale* (its `base` is below the snapshot's
    /// `covers`), and recovery skips them; if the crash hits before the
    /// rename, the old snapshot + full journal still replay everything.
    fn write_snapshot(ds: &mut DomainStore, records: &[PersistRecord]) -> io::Result<()> {
        write_segment(&ds.dir.join(SNAPSHOT_FILE), SNAPSHOT_MAGIC, ds.seq, records)?;
        // The rewrite replaces the journal's inode; drop the handle so
        // the next append reopens the fresh file.
        ds.appender = None;
        write_segment(&ds.dir.join(JOURNAL_FILE), JOURNAL_MAGIC, ds.seq, &[])
    }
}

impl PersistSink for DurableStore {
    /// Journals one record. Infallible by contract: an I/O failure
    /// degrades (the record is dropped and counted in `io_errors`)
    /// rather than poisoning the poll loop — durability is
    /// best-effort, correctness never depends on it.
    fn report_section(&self) -> Option<Section> {
        Some(self.section())
    }

    fn persist(&mut self, record: &PersistRecord) {
        let domain = record.domain();
        if self.append(domain, record).is_err() {
            self.io_errors += 1;
            // Drop a possibly half-written handle; the next append
            // reopens (and the valid-prefix reader bounds the damage).
            if let Some(ds) = self.domains.get_mut(&domain) {
                ds.appender = None;
            }
        }
    }

    /// Snapshots each domain that fell due since the last call. A
    /// failed write is counted in `io_errors`; the domain falls due
    /// again after another `compact_every` appends.
    fn compact(&mut self, state: &mut dyn FnMut(DomainId) -> Vec<PersistRecord>) {
        for domain in std::mem::take(&mut self.due) {
            let Some(ds) = self.domains.get_mut(&domain) else {
                continue;
            };
            ds.since_compact = 0;
            match Self::write_snapshot(ds, &state(domain)) {
                Ok(()) => self.compactions += 1,
                Err(_) => self.io_errors += 1,
            }
        }
    }
}

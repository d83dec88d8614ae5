//! Reverse shadow processing: caching job output at the server (§8.3).
//!
//! "Sometimes the result of processing on a supercomputer involves
//! generating a large amount of output … it will be advantageous to apply
//! the technique of shadow processing in reverse (i.e., cache the output on
//! the supercomputer, and, next time the same job is run, send the
//! differences between the current output and the previous output to the
//! client)."
//!
//! An output delta may only be used as a base once the client has
//! **acknowledged** receiving the base output — otherwise the client could
//! be asked to patch an output it never stored.

use std::collections::HashMap;

use bytes::Bytes;
use shadow_diff::DocBuf;
use shadow_proto::{DomainId, FileId, JobId, PersistRecord};

#[derive(Debug, Clone)]
struct OutputEntry {
    job: JobId,
    /// Cached output as a [`DocBuf`]: the line index is built once at
    /// record time, so every later reverse-shadow diff against this base
    /// starts from pre-indexed lines, and handing the entry out is O(1).
    output: DocBuf,
    acked: bool,
    inserted: u64,
}

/// The store of previous job outputs, keyed by the job command file that
/// produced them ("the same job" = same command file).
#[derive(Debug, Clone)]
pub struct OutputShadowStore {
    budget: usize,
    used: usize,
    clock: u64,
    entries: HashMap<(DomainId, FileId), OutputEntry>,
    /// The newest job each domain recorded an output for, evicted and
    /// refused outputs included: a snapshot carries it, so a restart
    /// never hands out a job id a client may still hold an output for.
    newest_job: HashMap<DomainId, JobId>,
}

impl OutputShadowStore {
    /// Creates a store with a byte budget.
    pub fn new(budget: usize) -> Self {
        OutputShadowStore {
            budget,
            used: 0,
            clock: 0,
            entries: HashMap::new(),
            newest_job: HashMap::new(),
        }
    }

    /// Bytes currently held.
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// Records the latest output for a job command file. Oversized outputs
    /// are simply not cached (best effort). Older entries are evicted FIFO
    /// to fit.
    pub fn record(&mut self, domain: DomainId, job_file: FileId, job: JobId, output: DocBuf) {
        self.clock += 1;
        self.note_job(domain, job);
        if let Some(old) = self.entries.remove(&(domain, job_file)) {
            self.used -= old.output.byte_len();
        }
        if output.byte_len() > self.budget {
            return;
        }
        while self.used + output.byte_len() > self.budget {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(k, e)| (e.inserted, **k))
                .map(|(k, _)| *k);
            let Some(e) = oldest.and_then(|k| self.entries.remove(&k)) else {
                break;
            };
            self.used -= e.output.byte_len();
        }
        self.used += output.byte_len();
        self.entries.insert(
            (domain, job_file),
            OutputEntry {
                job,
                output,
                acked: false,
                inserted: self.clock,
            },
        );
    }

    /// The acknowledged previous output usable as a delta base, if any.
    /// The returned [`DocBuf`] carries the line index built at record
    /// time, ready for [`shadow_diff::diff_docs`].
    pub fn base_for(&self, domain: DomainId, job_file: FileId) -> Option<(JobId, &DocBuf)> {
        let e = self.entries.get(&(domain, job_file))?;
        if e.acked {
            Some((e.job, &e.output))
        } else {
            None
        }
    }

    /// Raises `domain`'s newest job to at least `job`.
    pub fn note_job(&mut self, domain: DomainId, job: JobId) {
        let newest = self.newest_job.entry(domain).or_insert(job);
        *newest = (*newest).max(job);
    }

    /// Marks the output of `job` as held by the client (OutputAck
    /// arrived). Returns the domain of the entry that flipped, if any —
    /// the journal key for persisting the ack.
    pub fn mark_acked(&mut self, job: JobId) -> Option<DomainId> {
        let mut domain = None;
        for (key, e) in self.entries.iter_mut() {
            if e.job == job {
                e.acked = true;
                domain = Some(key.0);
            }
        }
        domain
    }

    /// Appends the journal records that rebuild `domain`'s cached
    /// outputs: oldest first by insertion, each followed by its
    /// `OutputAcked` when the client holds it. Replaying them through
    /// [`record`](Self::record) restores the same FIFO eviction order. A
    /// last `OutputAcked` names the newest job if its output is gone.
    pub fn snapshot(&self, domain: DomainId, out: &mut Vec<PersistRecord>) {
        let mut entries: Vec<(&FileId, &OutputEntry)> = self
            .entries
            .iter()
            .filter(|((d, _), _)| *d == domain)
            .map(|((_, file), e)| (file, e))
            .collect();
        entries.sort_unstable_by_key(|(_, e)| e.inserted);
        let newest = self
            .newest_job
            .get(&domain)
            .filter(|&&job| entries.iter().all(|(_, e)| e.job != job));
        for (&job_file, e) in entries {
            out.push(PersistRecord::Output {
                domain,
                job_file,
                job: e.job,
                content: Bytes::copy_from_slice(e.output.as_bytes()),
            });
            if e.acked {
                out.push(PersistRecord::OutputAcked { domain, job: e.job });
            }
        }
        if let Some(&job) = newest {
            out.push(PersistRecord::OutputAcked { domain, job });
        }
    }

    /// Number of cached outputs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A deterministic digest of the cached outputs (model-checker state
    /// deduplication). Insertion order is excluded for the same reason
    /// recency is excluded from the file cache's digest: it only matters
    /// once eviction pressure exists.
    pub fn state_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut items: Vec<((DomainId, FileId), JobId, u64, bool)> = self
            .entries
            .iter()
            .map(|(k, e)| {
                (
                    *k,
                    e.job,
                    shadow_proto::ContentDigest::of(e.output.as_bytes()).as_u64(),
                    e.acked,
                )
            })
            .collect();
        items.sort_unstable();
        let mut newest: Vec<_> = self.newest_job.iter().collect();
        newest.sort_unstable();
        let mut h = shadow_proto::StableHasher::new();
        items.hash(&mut h);
        newest.hash(&mut h);
        self.used.hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d() -> DomainId {
        DomainId::new(1)
    }

    #[test]
    fn unacked_output_is_not_a_base() {
        let mut s = OutputShadowStore::new(1000);
        s.record(
            d(),
            FileId::new(1),
            JobId::new(10),
            DocBuf::from_bytes(b"out".to_vec()),
        );
        assert!(s.base_for(d(), FileId::new(1)).is_none());
        s.mark_acked(JobId::new(10));
        let (job, out) = s.base_for(d(), FileId::new(1)).unwrap();
        assert_eq!(job, JobId::new(10));
        assert_eq!(out.as_bytes(), b"out");
    }

    #[test]
    fn new_run_replaces_old_output() {
        let mut s = OutputShadowStore::new(1000);
        s.record(
            d(),
            FileId::new(1),
            JobId::new(10),
            DocBuf::from_bytes(vec![0; 100]),
        );
        s.mark_acked(JobId::new(10));
        s.record(
            d(),
            FileId::new(1),
            JobId::new(11),
            DocBuf::from_bytes(vec![1; 50]),
        );
        assert_eq!(s.used_bytes(), 50);
        // The replacement is not acked yet.
        assert!(s.base_for(d(), FileId::new(1)).is_none());
    }

    #[test]
    fn oversized_output_not_cached() {
        let mut s = OutputShadowStore::new(10);
        s.record(
            d(),
            FileId::new(1),
            JobId::new(1),
            DocBuf::from_bytes(vec![0; 100]),
        );
        assert!(s.is_empty());
        assert_eq!(s.used_bytes(), 0);
    }

    #[test]
    fn budget_enforced_by_fifo_eviction() {
        let mut s = OutputShadowStore::new(100);
        s.record(
            d(),
            FileId::new(1),
            JobId::new(1),
            DocBuf::from_bytes(vec![0; 60]),
        );
        s.record(
            d(),
            FileId::new(2),
            JobId::new(2),
            DocBuf::from_bytes(vec![0; 60]),
        );
        assert_eq!(s.len(), 1);
        assert!(s.used_bytes() <= 100);
        assert!(s.entries.contains_key(&(d(), FileId::new(2))));
    }

    #[test]
    fn stale_ack_does_not_resurrect_replaced_output() {
        let mut s = OutputShadowStore::new(1000);
        s.record(
            d(),
            FileId::new(1),
            JobId::new(10),
            DocBuf::from_bytes(b"old".to_vec()),
        );
        s.record(
            d(),
            FileId::new(1),
            JobId::new(11),
            DocBuf::from_bytes(b"new".to_vec()),
        );
        s.mark_acked(JobId::new(10)); // ack for the replaced output
        assert!(s.base_for(d(), FileId::new(1)).is_none());
        s.mark_acked(JobId::new(11));
        assert_eq!(s.base_for(d(), FileId::new(1)).unwrap().0, JobId::new(11));
    }
}

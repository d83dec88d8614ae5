//! Job bookkeeping: the batch queue.

use std::collections::BTreeMap;

use shadow_proto::{DomainId, FileId, HostName, JobId, JobStatus, SubmitOptions, VersionNumber};

use crate::exec::ExecOutcome;
use crate::node::SessionId;

/// Lifecycle phase of a job inside the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobPhase {
    /// Waiting for file updates to be retrieved (§6.4: updates "may be
    /// obtained in the background even before a submit request is received
    /// and processed" — or after, if they are still missing).
    WaitingForFiles,
    /// All files present; waiting for a batch slot.
    Queued,
    /// Executing; carries the precomputed outcome revealed when the
    /// simulated runtime elapses.
    Running {
        /// The interpreter's result, delivered at completion time.
        outcome: ExecOutcome,
    },
    /// Finished successfully.
    Completed,
    /// Finished unsuccessfully.
    Failed,
}

/// One batch job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Server-assigned id.
    pub id: JobId,
    /// Session that submitted it.
    pub session: SessionId,
    /// Submitting client's naming domain.
    pub domain: DomainId,
    /// Submitting client's host (fallback output destination).
    pub client_host: HostName,
    /// The job command file and required version.
    pub job_file: (FileId, VersionNumber),
    /// Data files and required versions.
    pub data_files: Vec<(FileId, VersionNumber)>,
    /// Submission options.
    pub options: SubmitOptions,
    /// Current phase.
    pub phase: JobPhase,
    /// Update requests issued per missing file while waiting; bounds
    /// eviction ping-pong (a cache too small for the job's files).
    pub fetch_attempts: BTreeMap<FileId, u32>,
    /// Server clock at submission.
    pub submitted_at_ms: u64,
    /// Server clock when all files were present.
    pub files_ready_at_ms: Option<u64>,
    /// Server clock when execution started.
    pub started_at_ms: Option<u64>,
}

impl Job {
    /// Every file (command file first) the job needs, with versions.
    pub fn required_files(&self) -> impl Iterator<Item = (FileId, VersionNumber)> + '_ {
        std::iter::once(self.job_file).chain(self.data_files.iter().copied())
    }

    /// The protocol-level status for reports.
    pub fn status(&self) -> JobStatus {
        match self.phase {
            JobPhase::WaitingForFiles => JobStatus::WaitingForFiles,
            JobPhase::Queued => JobStatus::Queued,
            JobPhase::Running { .. } => JobStatus::Running,
            JobPhase::Completed => JobStatus::Completed,
            JobPhase::Failed => JobStatus::Failed,
        }
    }

    /// Whether the job still occupies server attention.
    pub fn is_pending(&self) -> bool {
        !matches!(self.phase, JobPhase::Completed | JobPhase::Failed)
    }
}

/// The server's table of jobs, in submission order.
///
/// The jobs sit in one vector sorted by id. Ids only grow, so a new job
/// is a push, a lookup is a binary search, and the scans that run on
/// every message walk contiguous memory.
#[derive(Debug, Clone, Default)]
pub(crate) struct JobTable {
    jobs: Vec<Job>,
}

impl JobTable {
    /// Adds `job`, whose id is above every id in the table.
    pub(crate) fn insert(&mut self, job: Job) {
        debug_assert!(self.jobs.last().is_none_or(|last| last.id < job.id));
        self.jobs.push(job);
    }

    fn position(&self, id: JobId) -> Option<usize> {
        self.jobs.binary_search_by_key(&id, |job| job.id).ok()
    }

    pub(crate) fn get(&self, id: JobId) -> Option<&Job> {
        self.position(id).and_then(|i| self.jobs.get(i))
    }

    pub(crate) fn get_mut(&mut self, id: JobId) -> Option<&mut Job> {
        self.position(id).and_then(|i| self.jobs.get_mut(i))
    }

    /// Jobs currently executing.
    pub(crate) fn running_count(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| matches!(j.phase, JobPhase::Running { .. }))
            .count()
    }

    /// Jobs not yet in a terminal phase.
    pub(crate) fn pending_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.is_pending()).count()
    }

    /// The next queued job to run: highest priority, then oldest.
    pub(crate) fn next_queued(&self) -> Option<JobId> {
        self.jobs
            .iter()
            .filter(|j| matches!(j.phase, JobPhase::Queued))
            .max_by_key(|j| (j.options.priority, std::cmp::Reverse(j.id)))
            .map(|j| j.id)
    }

    /// Ids of jobs waiting on files (checked when the cache gains data).
    pub(crate) fn waiting_ids(&self) -> Vec<JobId> {
        self.jobs
            .iter()
            .filter(|j| matches!(j.phase, JobPhase::WaitingForFiles))
            .map(|j| j.id)
            .collect()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, phase: JobPhase, priority: u8) -> Job {
        Job {
            id: JobId::new(id),
            session: SessionId::new(1),
            domain: DomainId::new(1),
            client_host: HostName::new("ws"),
            job_file: (FileId::new(1), VersionNumber::FIRST),
            data_files: vec![(FileId::new(2), VersionNumber::FIRST)],
            options: SubmitOptions {
                priority,
                ..SubmitOptions::default()
            },
            phase,
            fetch_attempts: BTreeMap::new(),
            submitted_at_ms: 0,
            files_ready_at_ms: None,
            started_at_ms: None,
        }
    }

    #[test]
    fn required_files_includes_command_file_first() {
        let j = job(1, JobPhase::Queued, 0);
        let files: Vec<_> = j.required_files().collect();
        assert_eq!(files.len(), 2);
        assert_eq!(files[0].0, FileId::new(1));
    }

    #[test]
    fn status_mapping() {
        assert_eq!(
            job(1, JobPhase::WaitingForFiles, 0).status(),
            JobStatus::WaitingForFiles
        );
        assert_eq!(job(1, JobPhase::Queued, 0).status(), JobStatus::Queued);
        assert_eq!(
            job(1, JobPhase::Completed, 0).status(),
            JobStatus::Completed
        );
        assert!(!job(1, JobPhase::Failed, 0).is_pending());
        assert!(job(1, JobPhase::Queued, 0).is_pending());
    }

    #[test]
    fn next_queued_prefers_priority_then_age() {
        let mut t = JobTable::default();
        t.insert(job(1, JobPhase::Queued, 0));
        t.insert(job(2, JobPhase::Queued, 5));
        t.insert(job(3, JobPhase::Queued, 5));
        assert_eq!(t.next_queued(), Some(JobId::new(2)));
    }

    #[test]
    fn next_queued_skips_non_queued() {
        let mut t = JobTable::default();
        t.insert(job(1, JobPhase::WaitingForFiles, 9));
        t.insert(job(2, JobPhase::Completed, 9));
        t.insert(job(3, JobPhase::Queued, 0));
        assert_eq!(t.next_queued(), Some(JobId::new(3)));
    }

    #[test]
    fn lookups_find_every_job_and_only_those() {
        let mut t = JobTable::default();
        for id in [2, 5, 9] {
            t.insert(job(id, JobPhase::Queued, 0));
        }
        assert_eq!(t.get(JobId::new(5)).unwrap().id, JobId::new(5));
        assert!(t.get(JobId::new(3)).is_none());
        assert!(t.get(JobId::new(10)).is_none());
        t.get_mut(JobId::new(9)).unwrap().phase = JobPhase::Completed;
        assert_eq!(t.get(JobId::new(9)).unwrap().status(), JobStatus::Completed);
        assert_eq!(t.pending_count(), 2);
    }

    #[test]
    fn counts() {
        let mut t = JobTable::default();
        t.insert(job(
            1,
            JobPhase::Running {
                outcome: ExecOutcome::default(),
            },
            0,
        ));
        t.insert(job(2, JobPhase::Queued, 0));
        t.insert(job(3, JobPhase::Completed, 0));
        assert_eq!(t.running_count(), 1);
        assert_eq!(t.pending_count(), 2);
        assert_eq!(t.waiting_ids().len(), 0);
        assert_eq!(t.iter().count(), 3);
    }
}

//! Client-side job tracking (§6.2: "the client maintains the information
//! on the status of all the jobs").

use std::collections::BTreeMap;

use shadow_proto::{JobId, JobStatus, RequestId};

use crate::node::ConnId;

/// What the client knows about one submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackedJob {
    /// The connection it was submitted on.
    pub conn: ConnId,
    /// The submit request that created it.
    pub request: RequestId,
    /// Last known status.
    pub status: JobStatus,
    /// Client clock (ms) at submission.
    pub submitted_at_ms: u64,
    /// Client clock (ms) when the output arrived, if it has.
    pub completed_at_ms: Option<u64>,
    /// Bytes of output delivered, once completed.
    pub output_bytes: Option<u64>,
}

/// The client's table of jobs it has submitted.
#[derive(Debug, Clone, Default)]
pub struct JobTracker {
    jobs: BTreeMap<JobId, TrackedJob>,
    /// Submits awaiting their ack: request → (conn, submitted_at_ms).
    pending: BTreeMap<RequestId, (ConnId, u64)>,
}

impl JobTracker {
    /// Records a submit that has not been acknowledged yet.
    pub(crate) fn submitted(&mut self, request: RequestId, conn: ConnId, now_ms: u64) {
        self.pending.insert(request, (conn, now_ms));
    }

    /// Converts a pending submit into a tracked job on `SubmitAck`.
    ///
    /// A `JobComplete` can overtake its `SubmitAck` (re-delivery across a
    /// reconnect); the job is then already tracked in a terminal state and
    /// the late ack only fills in the submit bookkeeping — it must not
    /// resurrect the job as `Queued`.
    pub(crate) fn accepted(&mut self, request: RequestId, job: JobId, now_ms: u64) {
        let (conn, submitted_at_ms) = self
            .pending
            .remove(&request)
            .unwrap_or((ConnId::new(0), now_ms));
        let t = self.jobs.entry(job).or_insert(TrackedJob {
            conn,
            request,
            status: JobStatus::Queued,
            submitted_at_ms,
            completed_at_ms: None,
            output_bytes: None,
        });
        t.conn = conn;
        t.request = request;
        t.submitted_at_ms = submitted_at_ms;
    }

    /// Drops a pending submit on `SubmitError`.
    pub(crate) fn rejected(&mut self, request: RequestId) {
        self.pending.remove(&request);
    }

    /// Applies a status report entry.
    pub(crate) fn status_update(&mut self, job: JobId, status: JobStatus) {
        if let Some(t) = self.jobs.get_mut(&job) {
            // Never regress a completed job on a stale report.
            if !t.status.is_terminal() {
                t.status = status;
            }
        }
    }

    /// Marks a job completed with its delivered output size. A job the
    /// tracker has no ack for yet is recorded on the spot, so a
    /// completion that overtakes its `SubmitAck` is never lost.
    pub(crate) fn completed(
        &mut self,
        conn: ConnId,
        job: JobId,
        output_bytes: u64,
        failed: bool,
        now_ms: u64,
    ) {
        let t = self.jobs.entry(job).or_insert(TrackedJob {
            conn,
            request: RequestId::new(0),
            status: JobStatus::Queued,
            submitted_at_ms: now_ms,
            completed_at_ms: None,
            output_bytes: None,
        });
        t.status = if failed {
            JobStatus::Failed
        } else {
            JobStatus::Completed
        };
        t.completed_at_ms = Some(now_ms);
        t.output_bytes = Some(output_bytes);
    }

    /// Everything known about `job`.
    pub fn get(&self, job: JobId) -> Option<&TrackedJob> {
        self.jobs.get(&job)
    }

    /// All tracked jobs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, &TrackedJob)> {
        self.jobs.iter().map(|(id, t)| (*id, t))
    }

    /// Jobs not yet in a terminal state.
    pub fn pending_jobs(&self) -> Vec<JobId> {
        self.jobs
            .iter()
            .filter(|(_, t)| !t.status.is_terminal())
            .map(|(id, _)| *id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_ack_complete_lifecycle() {
        let mut t = JobTracker::default();
        let req = RequestId::new(1);
        let conn = ConnId::new(3);
        t.submitted(req, conn, 100);
        t.accepted(req, JobId::new(7), 150);
        let job = t.get(JobId::new(7)).unwrap();
        assert_eq!(job.conn, conn);
        assert_eq!(job.status, JobStatus::Queued);
        assert_eq!(job.submitted_at_ms, 100);

        t.status_update(JobId::new(7), JobStatus::Running);
        assert_eq!(t.get(JobId::new(7)).unwrap().status, JobStatus::Running);
        assert_eq!(t.pending_jobs(), vec![JobId::new(7)]);

        t.completed(conn, JobId::new(7), 42, false, 900);
        let job = t.get(JobId::new(7)).unwrap();
        assert_eq!(job.status, JobStatus::Completed);
        assert_eq!(job.completed_at_ms, Some(900));
        assert_eq!(job.output_bytes, Some(42));
        assert!(t.pending_jobs().is_empty());
    }

    #[test]
    fn rejection_clears_pending() {
        let mut t = JobTracker::default();
        t.submitted(RequestId::new(1), ConnId::new(0), 0);
        t.rejected(RequestId::new(1));
        t.accepted(RequestId::new(1), JobId::new(9), 50);
        // Ack after rejection still tracks (defensively) with ack time.
        assert_eq!(t.get(JobId::new(9)).unwrap().submitted_at_ms, 50);
    }

    #[test]
    fn stale_status_cannot_regress_terminal_state() {
        let mut t = JobTracker::default();
        t.submitted(RequestId::new(1), ConnId::new(0), 0);
        t.accepted(RequestId::new(1), JobId::new(1), 1);
        t.completed(ConnId::new(0), JobId::new(1), 10, false, 5);
        t.status_update(JobId::new(1), JobStatus::Running);
        assert_eq!(t.get(JobId::new(1)).unwrap().status, JobStatus::Completed);
    }

    /// A `JobComplete` that overtakes its `SubmitAck` must still leave
    /// the job terminal once the late ack arrives — found by
    /// `shadow-check explore` as a stuck-job violation under reordered
    /// delivery.
    #[test]
    fn completion_before_ack_stays_terminal() {
        let mut t = JobTracker::default();
        let conn = ConnId::new(2);
        t.submitted(RequestId::new(1), conn, 100);
        t.completed(conn, JobId::new(4), 8, false, 200);
        let job = t.get(JobId::new(4)).unwrap();
        assert_eq!(job.status, JobStatus::Completed);
        assert!(t.pending_jobs().is_empty());

        t.accepted(RequestId::new(1), JobId::new(4), 300);
        let job = t.get(JobId::new(4)).unwrap();
        assert_eq!(
            job.status,
            JobStatus::Completed,
            "late ack must not requeue"
        );
        assert_eq!(job.conn, conn);
        assert_eq!(job.request, RequestId::new(1));
        assert_eq!(job.submitted_at_ms, 100);
        assert_eq!(job.output_bytes, Some(8));
        assert!(t.pending_jobs().is_empty());
    }

    #[test]
    fn failed_jobs_are_terminal() {
        let mut t = JobTracker::default();
        t.submitted(RequestId::new(1), ConnId::new(0), 0);
        t.accepted(RequestId::new(1), JobId::new(1), 1);
        t.completed(ConnId::new(0), JobId::new(1), 0, true, 5);
        assert_eq!(t.get(JobId::new(1)).unwrap().status, JobStatus::Failed);
        assert!(t.pending_jobs().is_empty());
    }

    #[test]
    fn iter_orders_by_job_id() {
        let mut t = JobTracker::default();
        for i in [3u64, 1, 2] {
            t.submitted(RequestId::new(i), ConnId::new(0), 0);
            t.accepted(RequestId::new(i), JobId::new(i), 0);
        }
        let ids: Vec<u64> = t.iter().map(|(id, _)| id.as_u64()).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }
}

//! The client↔server message sets.

use std::fmt;

use bytes::Bytes;

use crate::{ContentDigest, DomainId, FileId, HostName, JobId, RequestId, VersionNumber};

/// Transfer encoding applied to a payload's bytes (§8.3 future work: "we
/// also plan to explore data compression techniques").
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default,
)]
pub enum TransferEncoding {
    /// Bytes as-is.
    #[default]
    Identity,
    /// LZSS (sliding-window Lempel–Ziv).
    Lzss,
}

/// Which delta representation a delta payload's `data` carries (before
/// transfer encoding). Sender and receiver must agree per payload, so the
/// codec travels on the wire and in persisted cache records.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default,
)]
pub enum DeltaCodec {
    /// A textual ed script from the line differ.
    #[default]
    Line,
    /// A binary copy/insert delta over content-defined chunks.
    Chunk,
}

impl fmt::Display for DeltaCodec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaCodec::Line => write!(f, "line"),
            DeltaCodec::Chunk => write!(f, "chunk"),
        }
    }
}

impl fmt::Display for TransferEncoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransferEncoding::Identity => write!(f, "identity"),
            TransferEncoding::Lzss => write!(f, "lzss"),
        }
    }
}

/// The body of a file update travelling client→server.
///
/// `digest` is always the digest of the complete **new** file content, so
/// the receiver can verify reconstruction end-to-end and fall back to a
/// full transfer on mismatch (best-effort caching, §5.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdatePayload {
    /// The complete file content.
    Full {
        /// Encoding of `data`.
        encoding: TransferEncoding,
        /// The (possibly compressed) content bytes.
        data: Bytes,
        /// Digest of the decoded content.
        digest: ContentDigest,
    },
    /// A delta against a base version the server holds.
    Delta {
        /// The base version the delta applies to.
        base: VersionNumber,
        /// Delta representation carried in `data`.
        codec: DeltaCodec,
        /// Encoding of `data`.
        encoding: TransferEncoding,
        /// The (possibly compressed) delta bytes.
        data: Bytes,
        /// Digest of the content the delta reconstructs.
        digest: ContentDigest,
    },
}

impl UpdatePayload {
    /// Bytes this payload puts on the wire (its dominant cost).
    pub fn data_len(&self) -> usize {
        match self {
            UpdatePayload::Full { data, .. } | UpdatePayload::Delta { data, .. } => data.len(),
        }
    }

    /// Digest of the content this payload produces.
    pub fn digest(&self) -> ContentDigest {
        match self {
            UpdatePayload::Full { digest, .. } | UpdatePayload::Delta { digest, .. } => *digest,
        }
    }

    /// Whether this is a delta (as opposed to a full transfer).
    pub fn is_delta(&self) -> bool {
        matches!(self, UpdatePayload::Delta { .. })
    }
}

/// The body of a completed job's standard output travelling server→client.
///
/// Reverse shadow processing (§8.3): when the same job is re-run, the
/// server may send only the differences against the previous run's output,
/// which the client still holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutputPayload {
    /// The complete output.
    Full {
        /// Encoding of `data`.
        encoding: TransferEncoding,
        /// The (possibly compressed) output bytes.
        data: Bytes,
    },
    /// A delta against the output of a previous job.
    Delta {
        /// The earlier job whose output is the base.
        base_job: JobId,
        /// Delta representation carried in `data`.
        codec: DeltaCodec,
        /// Encoding of `data`.
        encoding: TransferEncoding,
        /// The (possibly compressed) delta bytes.
        data: Bytes,
        /// Digest of the output the delta reconstructs.
        digest: ContentDigest,
    },
}

impl OutputPayload {
    /// Bytes this payload puts on the wire.
    pub fn data_len(&self) -> usize {
        match self {
            OutputPayload::Full { data, .. } | OutputPayload::Delta { data, .. } => data.len(),
        }
    }

    /// Whether this is a delta against a previous run's output.
    pub fn is_delta(&self) -> bool {
        matches!(self, OutputPayload::Delta { .. })
    }
}

/// Options accepted by the `submit` command (§6.2).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SubmitOptions {
    /// File (at the client) into which standard output is stored.
    pub output_file: Option<String>,
    /// File (at the client) into which error output is stored.
    pub error_file: Option<String>,
    /// Deliver output to this host instead of the submitting one (§8.3:
    /// "routing the output to different hosts").
    pub deliver_to: Option<HostName>,
    /// Scheduling priority, 0 (lowest) to 255.
    pub priority: u8,
    /// Ask the server to shadow the job's output (reverse shadow
    /// processing) so re-runs can send output deltas.
    pub shadow_output: bool,
}

/// Lifecycle state of a submitted job.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash,
)]
pub enum JobStatus {
    /// Accepted; waiting in the batch queue.
    Queued,
    /// Scheduled, but the server is still retrieving file updates it needs.
    WaitingForFiles,
    /// Executing on the supercomputer.
    Running,
    /// Finished successfully; output has been (or is being) delivered.
    Completed,
    /// Finished unsuccessfully.
    Failed,
    /// The server does not know this job.
    Unknown,
}

impl JobStatus {
    /// Whether the job has reached a terminal state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Completed | JobStatus::Failed | JobStatus::Unknown
        )
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JobStatus::Queued => "queued",
            JobStatus::WaitingForFiles => "waiting-for-files",
            JobStatus::Running => "running",
            JobStatus::Completed => "completed",
            JobStatus::Failed => "failed",
            JobStatus::Unknown => "unknown",
        };
        write!(f, "{s}")
    }
}

/// One row of a [`ServerMessage::StatusReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobStatusEntry {
    /// The job.
    pub job: JobId,
    /// Its current status.
    pub status: JobStatus,
    /// Server-clock submission time, milliseconds.
    pub submitted_at_ms: u64,
}

/// Accounting attached to a completed job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobStats {
    /// Milliseconds spent queued before file retrieval/execution.
    pub queued_ms: u64,
    /// Milliseconds spent waiting for file updates to arrive.
    pub waiting_ms: u64,
    /// Milliseconds spent executing.
    pub running_ms: u64,
    /// Bytes of standard output produced.
    pub output_bytes: u64,
    /// Process exit code (0 = success).
    pub exit_code: i32,
}

/// One shadow-cache claim presented by a reconnecting client: "version
/// `version` of `file`, whose content digests to `digest`, should still
/// be in your cache". The server confirms each claim it can verify
/// against its (possibly journal-restored) cache, and the confirmed
/// files resume delta transfers without a fresh full copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeEntry {
    /// The file.
    pub file: FileId,
    /// The newest version the server acknowledged before the link died.
    pub version: VersionNumber,
    /// Digest of that version's content, so a cache holding different
    /// bytes under the same number is never trusted.
    pub digest: ContentDigest,
}

/// Messages sent by the shadow client to a shadow server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientMessage {
    /// Opens a session and announces the client's naming domain.
    Hello {
        /// The client's naming domain.
        domain: DomainId,
        /// The client host (for output routing and logs).
        host: HostName,
        /// Protocol version spoken.
        protocol: u32,
        /// Session epoch: 0 for a first connection, incremented on every
        /// reconnect so both sides can tell a resumption from a fresh
        /// session.
        epoch: u64,
        /// Shadow-cache digest summary for resumption: the acked
        /// versions this client believes the server still caches.
        /// Empty on a first connection.
        resume: Vec<ResumeEntry>,
    },
    /// A new version of a file exists at the client (§6.4: "the client
    /// contacts the server to notify it about the creation of a new
    /// version"). Carries no bulk data — notifications are "short and
    /// quick" in the demand-driven model.
    NotifyVersion {
        /// The file.
        file: FileId,
        /// The file's canonical (domain-unique) name, for the server's
        /// per-domain mapping directory (§6.5).
        name: String,
        /// The new latest version.
        version: VersionNumber,
        /// Size of the new content in bytes.
        size: u64,
        /// Digest of the new content.
        digest: ContentDigest,
    },
    /// Bulk data answering a [`ServerMessage::UpdateRequest`] (or pushed
    /// eagerly in the request-driven baseline mode).
    Update {
        /// The file.
        file: FileId,
        /// The version this payload brings the server to.
        version: VersionNumber,
        /// Delta or full content.
        payload: UpdatePayload,
    },
    /// Submits a job: a job-command file plus the data files it needs, all
    /// referenced by id + version — no bulk transfer (§6.4).
    Submit {
        /// Correlation id echoed in the ack.
        request: RequestId,
        /// The job command file.
        job_file: FileId,
        /// Version of the job command file.
        job_version: VersionNumber,
        /// Data files with their current versions.
        data_files: Vec<(FileId, VersionNumber)>,
        /// Submission options.
        options: SubmitOptions,
    },
    /// Asks for the status of one job, or of all pending jobs when `job`
    /// is `None` (§6.2).
    StatusQuery {
        /// Correlation id echoed in the report.
        request: RequestId,
        /// Specific job, or `None` for all.
        job: Option<JobId>,
    },
    /// Confirms receipt of a job's output (lets the server prune delivery
    /// state and drive reverse-shadow bookkeeping).
    OutputAck {
        /// The job whose output arrived.
        job: JobId,
    },
    /// Liveness heartbeat; the server answers with
    /// [`ServerMessage::Pong`] echoing the nonce. Also counts as session
    /// activity for idle-eviction purposes.
    Ping {
        /// Echoed verbatim in the answering pong.
        nonce: u64,
    },
    /// Closes the session.
    Bye,
}

/// Messages sent by a shadow server to a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerMessage {
    /// Accepts a session.
    HelloAck {
        /// Protocol version spoken by the server.
        protocol: u32,
        /// The server host's name.
        server: HostName,
        /// True when the server treated this as a resumption (the
        /// client's `epoch` was non-zero) rather than a fresh session.
        resumed: bool,
        /// The subset of the client's [`ResumeEntry`] claims the server
        /// verified against its cache: these files keep their delta
        /// bases. Claims absent here were lost — the client must fall
        /// back to full transfers for them.
        retained: Vec<(FileId, VersionNumber)>,
    },
    /// Demand-driven pull (§5.2): the server decides *when* to fetch and
    /// names the newest base version it already caches so the client can
    /// send a minimal delta — or a full copy when `have` is `None`.
    UpdateRequest {
        /// The file to update.
        file: FileId,
        /// The base version cached at the server, if any.
        have: Option<VersionNumber>,
    },
    /// The server has durably cached this version; the client may prune
    /// older versions (§6.3.2).
    VersionAck {
        /// The file.
        file: FileId,
        /// The version now cached.
        version: VersionNumber,
    },
    /// A job was accepted.
    SubmitAck {
        /// Correlation id from the submit.
        request: RequestId,
        /// Server-assigned job identifier.
        job: JobId,
    },
    /// A job was rejected outright.
    SubmitError {
        /// Correlation id from the submit.
        request: RequestId,
        /// Human-readable reason.
        reason: String,
    },
    /// Answer to a status query.
    StatusReport {
        /// Correlation id from the query.
        request: RequestId,
        /// One entry per job queried.
        entries: Vec<JobStatusEntry>,
    },
    /// A job finished; output and errors are delivered without polling
    /// ("the shadow server contacts the client to transfer the output").
    JobComplete {
        /// The job.
        job: JobId,
        /// Standard output (full or reverse-shadow delta).
        output: OutputPayload,
        /// Error output (always full; usually tiny).
        errors: Bytes,
        /// Accounting.
        stats: JobStats,
    },
    /// Answer to a [`ClientMessage::Ping`] heartbeat.
    Pong {
        /// The nonce from the ping.
        nonce: u64,
    },
    /// Closes the session.
    Bye,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_status_terminality() {
        assert!(JobStatus::Completed.is_terminal());
        assert!(JobStatus::Failed.is_terminal());
        assert!(JobStatus::Unknown.is_terminal());
        assert!(!JobStatus::Queued.is_terminal());
        assert!(!JobStatus::WaitingForFiles.is_terminal());
        assert!(!JobStatus::Running.is_terminal());
    }

    #[test]
    fn payload_accessors() {
        let full = UpdatePayload::Full {
            encoding: TransferEncoding::Identity,
            data: Bytes::from_static(b"abcd"),
            digest: ContentDigest::of(b"abcd"),
        };
        assert_eq!(full.data_len(), 4);
        assert!(!full.is_delta());
        let delta = UpdatePayload::Delta {
            base: VersionNumber::FIRST,
            codec: DeltaCodec::Line,
            encoding: TransferEncoding::Lzss,
            data: Bytes::from_static(b"xy"),
            digest: ContentDigest::of(b"whole"),
        };
        assert_eq!(delta.data_len(), 2);
        assert!(delta.is_delta());
        assert_eq!(delta.digest(), ContentDigest::of(b"whole"));
    }

    #[test]
    fn output_payload_accessors() {
        let full = OutputPayload::Full {
            encoding: TransferEncoding::Identity,
            data: Bytes::from_static(b"out"),
        };
        assert!(!full.is_delta());
        assert_eq!(full.data_len(), 3);
    }

    #[test]
    fn submit_options_default_is_plain() {
        let opts = SubmitOptions::default();
        assert!(opts.output_file.is_none());
        assert!(opts.deliver_to.is_none());
        assert_eq!(opts.priority, 0);
        assert!(!opts.shadow_output);
    }

    #[test]
    fn encodings_display() {
        assert_eq!(TransferEncoding::Identity.to_string(), "identity");
        assert_eq!(TransferEncoding::Lzss.to_string(), "lzss");
    }
}

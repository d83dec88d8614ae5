//! The client state machine.

use std::collections::{HashMap, HashSet, VecDeque};
use std::error::Error;
use std::fmt;

use bytes::Bytes;
use shadow_proto::{
    ClientMessage, ContentDigest, DeltaCodec, FileId, HostName, JobId, JobStats, JobStatusEntry,
    OutputPayload, RequestId, ResumeEntry, ServerMessage, SubmitOptions, TransferEncoding,
    UpdatePayload, VersionNumber, PROTOCOL_VERSION,
};
use shadow_version::VersionStore;

use crate::config::{ClientConfig, DeltaPolicy, TransferMode};
use crate::jobs::JobTracker;

/// Handle for one connection to one shadow server (driver-assigned).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(u64);

impl ConnId {
    /// Wraps a raw connection number.
    pub const fn new(raw: u64) -> Self {
        ConnId(raw)
    }

    /// The raw value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ConnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conn-{}", self.0)
    }
}

/// A file as the client refers to it: resolved id plus canonical name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FileRef {
    /// The domain-unique file id (from name resolution).
    pub id: FileId,
    /// The canonical name (sent to servers for their mapping directory).
    pub name: String,
}

impl FileRef {
    /// Creates a reference.
    pub fn new(id: FileId, name: impl Into<String>) -> Self {
        FileRef {
            id,
            name: name.into(),
        }
    }
}

/// Inputs to [`ClientNode::handle`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientEvent {
    /// A message arrived from a server.
    Message {
        /// The connection it arrived on.
        conn: ConnId,
        /// The message.
        message: ServerMessage,
        /// Client clock, milliseconds.
        now_ms: u64,
    },
    /// The transport under a connection failed. The connection's shadow
    /// environment (interest, ack watermarks, retained outputs, jobs) is
    /// kept so a later [`Resume`](ClientEvent::Resume) can pick the
    /// session back up; only readiness is withdrawn.
    LinkDown {
        /// The connection whose transport died.
        conn: ConnId,
        /// Client clock, milliseconds.
        now_ms: u64,
    },
    /// A replacement transport was dialled for a downed connection:
    /// re-handshake with a resume summary of everything the server had
    /// acknowledged caching.
    Resume {
        /// The connection to resume.
        conn: ConnId,
        /// Client clock, milliseconds.
        now_ms: u64,
    },
}

/// Outputs of the client state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientAction {
    /// Send a message on a connection.
    Send {
        /// The connection.
        conn: ConnId,
        /// The message.
        message: ClientMessage,
    },
    /// Surface something to the user / driving application.
    Notify(Notification),
}

/// User-visible happenings ("notifies the user of job completion", §4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Notification {
    /// The server accepted our session.
    SessionReady {
        /// The connection.
        conn: ConnId,
        /// The server's name.
        server: HostName,
        /// True when this was a resumption handshake the server
        /// recognized (epoch > 0), not a fresh session.
        resumed: bool,
    },
    /// A submission was accepted.
    JobAccepted {
        /// The connection.
        conn: ConnId,
        /// The request that was acked.
        request: RequestId,
        /// The job id assigned by the server.
        job: JobId,
    },
    /// A submission was rejected.
    JobRejected {
        /// The connection.
        conn: ConnId,
        /// The request that failed.
        request: RequestId,
        /// The server's reason.
        reason: String,
    },
    /// An answer to a status query.
    StatusReport {
        /// The connection.
        conn: ConnId,
        /// The correlated request.
        request: RequestId,
        /// Per-job entries.
        entries: Vec<JobStatusEntry>,
    },
    /// A job finished and its output was reconstructed.
    JobFinished {
        /// The connection.
        conn: ConnId,
        /// The job.
        job: JobId,
        /// Standard output (after any reverse-shadow reconstruction).
        output: Vec<u8>,
        /// Error output.
        errors: Vec<u8>,
        /// Server-side accounting.
        stats: JobStats,
    },
    /// A job's output delta could not be reconstructed (missing or
    /// corrupt base); the output was lost and no ack was sent.
    OutputCorrupt {
        /// The connection.
        conn: ConnId,
        /// The job whose output failed.
        job: JobId,
    },
    /// The server closed the session.
    SessionClosed {
        /// The connection.
        conn: ConnId,
    },
    /// A connection's transport went down (state retained for resume).
    LinkDown {
        /// The connection.
        conn: ConnId,
    },
    /// A heartbeat `Pong` arrived (liveness bookkeeping for
    /// supervisors).
    Pong {
        /// The connection.
        conn: ConnId,
        /// The nonce echoed back by the server.
        nonce: u64,
    },
}

/// Client-side errors from command methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The connection is unknown or not yet ready.
    NotConnected(ConnId),
    /// A file was never registered via
    /// [`edit_finished`](ClientNode::edit_finished).
    UnknownFile(FileId),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::NotConnected(c) => write!(f, "connection {c} is not established"),
            ClientError::UnknownFile(id) => {
                write!(f, "{id} has no recorded version at this client")
            }
        }
    }
}

impl Error for ClientError {}

/// Counters describing client traffic decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientMetrics {
    /// Delta updates sent.
    pub deltas_sent: u64,
    /// Full updates sent.
    pub fulls_sent: u64,
    /// Payload bytes across all updates sent.
    pub update_payload_bytes: u64,
    /// `NotifyVersion` messages sent.
    pub notifies_sent: u64,
    /// Output deltas successfully reconstructed.
    pub output_deltas_applied: u64,
    /// Persisted shadow-environment entries skipped as corrupt or
    /// out-of-order during restore.
    pub restore_skipped: u64,
    /// Resume handshakes initiated after a link loss.
    pub reconnects: u64,
    /// Resume entries the server confirmed: those files' delta bases
    /// stayed warm across the disconnect.
    pub resume_hits: u64,
    /// Resume entries the server could not confirm: those files degrade
    /// to a full transfer on next use.
    pub resume_fallbacks: u64,
}

impl shadow_obs::Snapshot for ClientMetrics {
    fn section_name(&self) -> &'static str {
        "client"
    }

    fn snapshot(&self) -> shadow_obs::Section {
        shadow_obs::Section::new("client")
            .with("deltas_sent", self.deltas_sent)
            .with("fulls_sent", self.fulls_sent)
            .with("update_payload_bytes", self.update_payload_bytes)
            .with("notifies_sent", self.notifies_sent)
            .with("output_deltas_applied", self.output_deltas_applied)
            .with("restore_skipped", self.restore_skipped)
            .with("reconnects", self.reconnects)
            .with("resume_hits", self.resume_hits)
            .with("resume_fallbacks", self.resume_fallbacks)
    }
}

#[derive(Debug, Clone, Default)]
struct Conn {
    ready: bool,
    server: Option<HostName>,
    /// Counts handshakes on this connection: 0 for the initial dial,
    /// incremented by every resume.
    epoch: u64,
}

/// The shadow client state machine. See the [crate docs](crate).
#[derive(Debug, Clone)]
pub struct ClientNode {
    config: ClientConfig,
    versions: VersionStore,
    names: HashMap<FileId, String>,
    conns: HashMap<ConnId, Conn>,
    interest: HashMap<ConnId, HashSet<FileId>>,
    announced: HashMap<(ConnId, FileId), VersionNumber>,
    acked: HashMap<(ConnId, FileId), VersionNumber>,
    outputs: HashMap<ConnId, VecDeque<(JobId, Vec<u8>)>>,
    jobs: JobTracker,
    next_request: u64,
    metrics: ClientMetrics,
}

impl ClientNode {
    /// Creates a client from its configuration.
    pub fn new(config: ClientConfig) -> Self {
        let versions = VersionStore::new(config.env.version_retention);
        ClientNode {
            config,
            versions,
            names: HashMap::new(),
            conns: HashMap::new(),
            interest: HashMap::new(),
            announced: HashMap::new(),
            acked: HashMap::new(),
            outputs: HashMap::new(),
            jobs: JobTracker::default(),
            next_request: 0,
            metrics: ClientMetrics::default(),
        }
    }

    /// The client's configuration.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// Traffic counters.
    pub fn metrics(&self) -> ClientMetrics {
        self.metrics
    }

    /// Version-store summary (diagnostics).
    pub fn version_stats(&self) -> shadow_version::VersionStoreStats {
        self.versions.stats()
    }

    /// Size in bytes of the latest version of a file, if tracked (drives
    /// CPU cost models: differential comparison reads the whole file).
    pub fn file_size(&self, file: FileId) -> Option<usize> {
        self.versions.latest(file).map(|(_, c)| c.len())
    }

    /// Digest of the latest version of a file, if tracked (coherence
    /// checks against a server's cache).
    pub fn latest_digest(&self, file: FileId) -> Option<ContentDigest> {
        self.versions.latest_digest(file)
    }

    /// The latest recorded version number of a file, if tracked.
    pub fn latest_version(&self, file: FileId) -> Option<VersionNumber> {
        self.versions.latest(file).map(|(v, _)| v)
    }

    /// The digest of a specific retained version's content, if still
    /// held (the model checker's coherence oracle: what *should* the
    /// server's shadow of this version contain?).
    pub fn digest_of_version(&self, file: FileId, version: VersionNumber) -> Option<ContentDigest> {
        self.versions.digest_of(file, version)
    }

    /// The newest version this client has announced to a connection.
    pub fn announced_version(&self, conn: ConnId, file: FileId) -> Option<VersionNumber> {
        self.announced.get(&(conn, file)).copied()
    }

    /// The newest version a connection's server has acknowledged caching.
    pub fn acked_version(&self, conn: ConnId, file: FileId) -> Option<VersionNumber> {
        self.acked.get(&(conn, file)).copied()
    }

    /// A deterministic digest of the protocol-relevant client state:
    /// connections (readiness, interest), per-connection announce/ack
    /// watermarks, the version chains, retained outputs, job table, and
    /// the request counter. Used by the model checker to deduplicate
    /// explored states; two clients with equal digests react identically
    /// to any future event sequence.
    pub fn state_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = shadow_proto::StableHasher::new();
        let mut conns: Vec<(ConnId, bool, Option<&HostName>, u64)> = self
            .conns
            .iter()
            .map(|(id, c)| (*id, c.ready, c.server.as_ref(), c.epoch))
            .collect();
        conns.sort_unstable_by_key(|(id, ..)| *id);
        conns.hash(&mut h);
        let mut interest: Vec<(ConnId, Vec<FileId>)> = self
            .interest
            .iter()
            .map(|(c, set)| {
                let mut files: Vec<FileId> = set.iter().copied().collect();
                files.sort_unstable();
                (*c, files)
            })
            .collect();
        interest.sort_unstable();
        interest.hash(&mut h);
        let mut announced: Vec<(&(ConnId, FileId), &VersionNumber)> =
            self.announced.iter().collect();
        announced.sort_unstable();
        announced.hash(&mut h);
        let mut acked: Vec<(&(ConnId, FileId), &VersionNumber)> = self.acked.iter().collect();
        acked.sort_unstable();
        acked.hash(&mut h);
        self.versions.state_digest().hash(&mut h);
        let mut outputs: Vec<(ConnId, Vec<(JobId, u64)>)> = self
            .outputs
            .iter()
            .map(|(c, q)| {
                (
                    *c,
                    q.iter()
                        .map(|(j, o)| (*j, ContentDigest::of(o).as_u64()))
                        .collect(),
                )
            })
            .collect();
        outputs.sort_unstable();
        outputs.hash(&mut h);
        for (job, tracked) in self.jobs.iter() {
            (job, tracked.conn, tracked.request, tracked.status as u8).hash(&mut h);
        }
        self.next_request.hash(&mut h);
        h.finish()
    }

    /// Restores a persisted version chain entry (shadow environments that
    /// survive process restarts, §6.3.1). Must be called before new edits
    /// of the file and in ascending version order.
    ///
    /// # Errors
    ///
    /// Returns the existing newer/equal latest version when out of order.
    pub fn restore_version(
        &mut self,
        file: &FileRef,
        version: VersionNumber,
        content: Vec<u8>,
    ) -> Result<(), VersionNumber> {
        self.names.insert(file.id, file.name.clone());
        self.versions.restore(file.id, version, content)
    }

    /// Records that `n` persisted shadow-environment entries were
    /// skipped as corrupt or out-of-order during restore, so degraded
    /// restores are visible in the [metrics](Self::metrics) instead of
    /// silent.
    pub fn note_restore_skipped(&mut self, n: u64) {
        self.metrics.restore_skipped += n;
    }

    /// The retained `(version, content)` pairs of a file, ascending (for
    /// persisting the shadow environment).
    pub fn retained_versions(&self, file: FileId) -> Vec<(VersionNumber, Vec<u8>)> {
        self.versions
            .retained(file)
            .map(|(v, c)| (v, c.to_vec()))
            .collect()
    }

    /// The table of jobs this client has submitted (§6.2: "the client
    /// maintains the information on the status of all the jobs").
    pub fn jobs(&self) -> &JobTracker {
        &self.jobs
    }

    /// Every file this client tracks, with its canonical name.
    pub fn tracked_files(&self) -> Vec<FileRef> {
        self.versions
            .files()
            .map(|id| FileRef {
                id,
                name: self.names.get(&id).cloned().unwrap_or_default(),
            })
            .collect()
    }

    /// Opens a connection: emits the `Hello`.
    pub fn connect(&mut self, conn: ConnId) -> Vec<ClientAction> {
        self.conns.insert(conn, Conn::default());
        vec![ClientAction::Send {
            conn,
            message: ClientMessage::Hello {
                domain: self.config.domain,
                host: self.config.host.clone(),
                protocol: PROTOCOL_VERSION,
                epoch: 0,
                resume: Vec::new(),
            },
        }]
    }

    /// Drops a connection's local state (transport already gone).
    pub fn disconnect(&mut self, conn: ConnId) {
        self.conns.remove(&conn);
        self.interest.remove(&conn);
        self.outputs.remove(&conn);
        self.announced.retain(|(c, _), _| *c != conn);
        self.acked.retain(|(c, _), _| *c != conn);
    }

    /// The transport under `conn` died. Unlike
    /// [`disconnect`](Self::disconnect) this keeps the connection's
    /// shadow environment — interest, ack watermarks, retained outputs —
    /// so a later [`reconnect`](Self::reconnect) can resume instead of
    /// re-transferring everything; only readiness is withdrawn (command
    /// methods fail with [`ClientError::NotConnected`] until the
    /// resumption handshake completes).
    pub fn link_down(&mut self, conn: ConnId) {
        if let Some(c) = self.conns.get_mut(&conn) {
            c.ready = false;
        }
    }

    /// Re-handshakes a downed connection over a fresh transport: bumps
    /// the session epoch and presents a resume summary of every file
    /// version the server had acknowledged caching (and whose content we
    /// still hold, so deltas from that base remain possible). Announce
    /// watermarks are reset — un-acked announcements may never have
    /// arrived — and rebuilt from the server's `HelloAck` answer.
    pub fn reconnect(&mut self, conn: ConnId) -> Vec<ClientAction> {
        let Some(c) = self.conns.get_mut(&conn) else {
            return self.connect(conn);
        };
        c.ready = false;
        c.epoch += 1;
        let epoch = c.epoch;
        self.metrics.reconnects += 1;
        self.announced.retain(|(cn, _), _| *cn != conn);
        let mut resume: Vec<ResumeEntry> = Vec::new();
        let mut dropped: Vec<FileId> = Vec::new();
        for (&(cn, file), &version) in &self.acked {
            if cn != conn {
                continue;
            }
            match self.versions.digest_of(file, version) {
                Some(digest) => resume.push(ResumeEntry {
                    file,
                    version,
                    digest,
                }),
                // The acked base is no longer held locally: we could not
                // produce a delta from it anyway, so do not claim it.
                None => dropped.push(file),
            }
        }
        for file in dropped {
            self.acked.remove(&(conn, file));
        }
        resume.sort_unstable_by_key(|e| e.file);
        vec![ClientAction::Send {
            conn,
            message: ClientMessage::Hello {
                domain: self.config.domain,
                host: self.config.host.clone(),
                protocol: PROTOCOL_VERSION,
                epoch,
                resume,
            },
        }]
    }

    /// Emits a heartbeat `Ping` (supervisors call this on their
    /// heartbeat timer; the matching [`Notification::Pong`] closes the
    /// liveness loop).
    ///
    /// # Errors
    ///
    /// [`ClientError::NotConnected`] before the `HelloAck`.
    pub fn ping(&mut self, conn: ConnId, nonce: u64) -> Result<Vec<ClientAction>, ClientError> {
        if !self.conns.get(&conn).is_some_and(|c| c.ready) {
            return Err(ClientError::NotConnected(conn));
        }
        Ok(vec![ClientAction::Send {
            conn,
            message: ClientMessage::Ping { nonce },
        }])
    }

    /// The current session epoch of a connection (0 = never resumed).
    pub fn epoch(&self, conn: ConnId) -> Option<u64> {
        self.conns.get(&conn).map(|c| c.epoch)
    }

    /// Reconciles our ack watermarks with the server's `HelloAck`
    /// answer to a resume summary. Confirmed files get their announce
    /// watermark restored too (the server already knows that version —
    /// no re-notify needed, and the next update travels as a delta
    /// against it). Unconfirmed files lose their ack: the next
    /// submission re-announces and the server pulls a full copy.
    fn settle_resume(&mut self, conn: ConnId, retained: &[(FileId, VersionNumber)]) {
        let confirmed: HashSet<(FileId, VersionNumber)> = retained.iter().copied().collect();
        let mine: Vec<(FileId, VersionNumber)> = self
            .acked
            .iter()
            .filter(|((cn, _), _)| *cn == conn)
            .map(|((_, f), v)| (*f, *v))
            .collect();
        for (file, version) in mine {
            if confirmed.contains(&(file, version)) {
                self.metrics.resume_hits += 1;
                self.announced.insert((conn, file), version);
            } else {
                self.metrics.resume_fallbacks += 1;
                self.acked.remove(&(conn, file));
            }
        }
    }

    fn next_request(&mut self) -> RequestId {
        self.next_request += 1;
        RequestId::new(self.next_request)
    }

    /// The shadow post-processor (§6.2): records the edited content as a
    /// new version and notifies every interested server — "whenever a
    /// scientist finishes editing a shadow file, the shadow editor
    /// notifies the server … of the change to the file."
    pub fn edit_finished(&mut self, file: &FileRef, content: Vec<u8>) -> (VersionNumber, Vec<ClientAction>) {
        self.names.insert(file.id, file.name.clone());
        let size = content.len() as u64;
        let version = self.versions.record_edit(file.id, content);
        let digest = self.versions.latest_digest(file.id).expect("just recorded");
        let mut actions = Vec::new();
        if self.config.mode == TransferMode::Shadow {
            let conns: Vec<ConnId> = self
                .conns
                .iter()
                .filter(|(_, c)| c.ready)
                .map(|(id, _)| *id)
                .collect();
            for conn in conns {
                let interested = self
                    .interest
                    .get(&conn)
                    .is_some_and(|set| set.contains(&file.id));
                let already = self
                    .announced
                    .get(&(conn, file.id))
                    .is_some_and(|&v| v >= version);
                if interested && !already {
                    self.announced.insert((conn, file.id), version);
                    self.metrics.notifies_sent += 1;
                    actions.push(ClientAction::Send {
                        conn,
                        message: ClientMessage::NotifyVersion {
                            file: file.id,
                            name: file.name.clone(),
                            version,
                            size,
                            digest,
                        },
                    });
                }
            }
        }
        (version, actions)
    }

    /// Submits a job: the command file plus data files, all previously
    /// registered via [`edit_finished`](Self::edit_finished).
    ///
    /// # Errors
    ///
    /// [`ClientError::NotConnected`] before the `HelloAck`, and
    /// [`ClientError::UnknownFile`] for unregistered files.
    pub fn submit(
        &mut self,
        conn: ConnId,
        job_file: &FileRef,
        data_files: &[FileRef],
        options: SubmitOptions,
    ) -> Result<(RequestId, Vec<ClientAction>), ClientError> {
        if !self.conns.get(&conn).is_some_and(|c| c.ready) {
            return Err(ClientError::NotConnected(conn));
        }
        let mut versions = Vec::with_capacity(1 + data_files.len());
        for fref in std::iter::once(job_file).chain(data_files) {
            let (v, _) = self
                .versions
                .latest(fref.id)
                .ok_or(ClientError::UnknownFile(fref.id))?;
            versions.push((fref.clone(), v));
        }
        let mut actions = Vec::new();
        match self.config.mode {
            TransferMode::Shadow => {
                // Announce whatever this server has not heard about yet;
                // the server pulls on demand.
                for (fref, v) in &versions {
                    self.interest.entry(conn).or_default().insert(fref.id);
                    let already = self
                        .announced
                        .get(&(conn, fref.id))
                        .is_some_and(|&av| av >= *v);
                    if !already {
                        let size = self.versions.latest(fref.id).expect("checked").1.len() as u64;
                        let digest = self.versions.latest_digest(fref.id).expect("checked");
                        self.announced.insert((conn, fref.id), *v);
                        self.metrics.notifies_sent += 1;
                        actions.push(ClientAction::Send {
                            conn,
                            message: ClientMessage::NotifyVersion {
                                file: fref.id,
                                name: fref.name.clone(),
                                version: *v,
                                size,
                                digest,
                            },
                        });
                    }
                }
            }
            TransferMode::Conventional => {
                // The baseline: ship every file whole, every time. The
                // server still needs name mappings, so notify too.
                for (fref, v) in &versions {
                    let content = self.versions.latest(fref.id).expect("checked").1.to_vec();
                    let digest = self.versions.latest_digest(fref.id).expect("checked");
                    self.metrics.notifies_sent += 1;
                    actions.push(ClientAction::Send {
                        conn,
                        message: ClientMessage::NotifyVersion {
                            file: fref.id,
                            name: fref.name.clone(),
                            version: *v,
                            size: content.len() as u64,
                            digest,
                        },
                    });
                    self.metrics.fulls_sent += 1;
                    self.metrics.update_payload_bytes += content.len() as u64;
                    actions.push(ClientAction::Send {
                        conn,
                        message: ClientMessage::Update {
                            file: fref.id,
                            version: *v,
                            payload: UpdatePayload::Full {
                                encoding: TransferEncoding::Identity,
                                data: Bytes::from(content),
                                digest,
                            },
                        },
                    });
                }
            }
        }
        let request = self.next_request();
        self.jobs.submitted(request, conn, 0);
        actions.push(ClientAction::Send {
            conn,
            message: ClientMessage::Submit {
                request,
                job_file: job_file.id,
                job_version: versions[0].1,
                data_files: versions[1..].iter().map(|(f, v)| (f.id, *v)).collect(),
                options,
            },
        });
        Ok((request, actions))
    }

    /// Queries the status of one job (`Some`) or all pending jobs (`None`).
    ///
    /// # Errors
    ///
    /// [`ClientError::NotConnected`] before the `HelloAck`.
    pub fn status(
        &mut self,
        conn: ConnId,
        job: Option<JobId>,
    ) -> Result<(RequestId, Vec<ClientAction>), ClientError> {
        if !self.conns.get(&conn).is_some_and(|c| c.ready) {
            return Err(ClientError::NotConnected(conn));
        }
        let request = self.next_request();
        Ok((
            request,
            vec![ClientAction::Send {
                conn,
                message: ClientMessage::StatusQuery { request, job },
            }],
        ))
    }

    /// Feeds one event through the state machine.
    pub fn handle(&mut self, event: ClientEvent) -> Vec<ClientAction> {
        let (conn, message, now_ms) = match event {
            ClientEvent::Message { conn, message, now_ms } => (conn, message, now_ms),
            ClientEvent::LinkDown { conn, .. } => {
                self.link_down(conn);
                return vec![ClientAction::Notify(Notification::LinkDown { conn })];
            }
            ClientEvent::Resume { conn, .. } => return self.reconnect(conn),
        };
        let mut actions = Vec::new();
        match message {
            ServerMessage::HelloAck {
                server,
                resumed,
                retained,
                ..
            } => {
                if let Some(c) = self.conns.get_mut(&conn) {
                    c.ready = true;
                    c.server = Some(server.clone());
                    if c.epoch > 0 {
                        self.settle_resume(conn, &retained);
                    }
                    actions.push(ClientAction::Notify(Notification::SessionReady {
                        conn,
                        server,
                        resumed,
                    }));
                }
            }
            ServerMessage::Pong { nonce } => {
                actions.push(ClientAction::Notify(Notification::Pong { conn, nonce }));
            }
            ServerMessage::UpdateRequest { file, have } => {
                self.answer_update_request(conn, file, have, &mut actions);
            }
            ServerMessage::VersionAck { file, version } => {
                self.acked.insert((conn, file), version);
                // Prune only up to the *minimum* acked version across all
                // connections that shadow this file: another server may
                // still need an older base.
                let mut min_acked = Some(version);
                for (c, set) in &self.interest {
                    if set.contains(&file) {
                        match self.acked.get(&(*c, file)) {
                            Some(&v) => min_acked = Some(min_acked.unwrap().min(v)),
                            None => min_acked = None,
                        }
                        if min_acked.is_none() {
                            break;
                        }
                    }
                }
                if let Some(v) = min_acked {
                    self.versions.acknowledge(file, v);
                }
            }
            ServerMessage::SubmitAck { request, job } => {
                self.jobs.accepted(request, job, now_ms);
                actions.push(ClientAction::Notify(Notification::JobAccepted {
                    conn,
                    request,
                    job,
                }));
            }
            ServerMessage::SubmitError { request, reason } => {
                self.jobs.rejected(request);
                actions.push(ClientAction::Notify(Notification::JobRejected {
                    conn,
                    request,
                    reason,
                }));
            }
            ServerMessage::StatusReport { request, entries } => {
                for e in &entries {
                    self.jobs.status_update(e.job, e.status);
                }
                actions.push(ClientAction::Notify(Notification::StatusReport {
                    conn,
                    request,
                    entries,
                }));
            }
            ServerMessage::JobComplete {
                job,
                output,
                errors,
                stats,
            } => {
                self.jobs
                    .completed(conn, job, stats.output_bytes, stats.exit_code != 0, now_ms);
                self.on_job_complete(conn, job, output, errors.to_vec(), stats, &mut actions);
            }
            ServerMessage::Bye => {
                actions.push(ClientAction::Notify(Notification::SessionClosed { conn }));
                self.disconnect(conn);
            }
        }
        actions
    }

    /// Applies the configured wire encoding, straight into the payload
    /// buffer: the identity (and compression-didn't-help) paths copy
    /// `raw` once, so a full transfer never holds an intermediate copy
    /// of the content.
    fn encode_with(encoding: TransferEncoding, raw: &[u8]) -> (TransferEncoding, Bytes) {
        let packed = match encoding {
            TransferEncoding::Identity => return (encoding, Bytes::copy_from_slice(raw)),
            TransferEncoding::Lzss => shadow_compress::compress(raw),
        };
        if packed.len() < raw.len() {
            (encoding, Bytes::from(packed))
        } else {
            (TransferEncoding::Identity, Bytes::copy_from_slice(raw))
        }
    }

    fn answer_update_request(
        &mut self,
        conn: ConnId,
        file: FileId,
        have: Option<VersionNumber>,
        actions: &mut Vec<ClientAction>,
    ) {
        let (Some((latest, content)), Some(digest)) =
            (self.versions.latest(file), self.versions.latest_digest(file))
        else {
            return; // we know nothing about this file; nothing to send
        };
        // The digest was computed when the version was recorded, and the
        // length comes straight off the version store's buffer; the full
        // content is only copied on the full-transfer path, once.
        let content_len = content.len();
        // The version store picks the delta codec per file shape: line
        // ed scripts for text, chunk deltas for binary or line-hostile
        // content. When the delta (under either codec) fails to beat the
        // full content the adaptive policy falls back to a full transfer
        // — the "both lost" path.
        let delta = match (self.config.mode, have) {
            (TransferMode::Shadow, Some(base)) if base < latest => {
                self.versions.delta_payload_from(file, base)
            }
            _ => None,
        };
        let use_delta = match (&delta, self.config.env.delta_policy) {
            (Some((_, _, bytes)), DeltaPolicy::Adaptive) => bytes.len() < content_len,
            (Some(_), DeltaPolicy::Always) => true,
            (None, _) => false,
        };
        let payload = if use_delta {
            let (base, codec, bytes) = delta.expect("checked");
            let (encoding, data) = Self::encode_with(self.config.env.encoding, &bytes);
            self.metrics.deltas_sent += 1;
            self.metrics.update_payload_bytes += data.len() as u64;
            UpdatePayload::Delta {
                base,
                codec,
                encoding,
                data,
                digest,
            }
        } else {
            let (encoding, data) = Self::encode_with(self.config.env.encoding, content);
            self.metrics.fulls_sent += 1;
            self.metrics.update_payload_bytes += data.len() as u64;
            UpdatePayload::Full {
                encoding,
                data,
                digest,
            }
        };
        actions.push(ClientAction::Send {
            conn,
            message: ClientMessage::Update {
                file,
                version: latest,
                payload,
            },
        });
    }

    fn on_job_complete(
        &mut self,
        conn: ConnId,
        job: JobId,
        output: OutputPayload,
        errors: Vec<u8>,
        stats: JobStats,
        actions: &mut Vec<ClientAction>,
    ) {
        let reconstructed: Result<Vec<u8>, ()> = match output {
            OutputPayload::Full { encoding, data } => match encoding {
                TransferEncoding::Identity => Ok(data.to_vec()),
                TransferEncoding::Lzss => shadow_compress::decompress(&data).map_err(|_| ()),
            },
            OutputPayload::Delta {
                base_job,
                codec,
                encoding,
                data,
                digest,
            } => {
                let text = match encoding {
                    TransferEncoding::Identity => Ok(data.to_vec()),
                    TransferEncoding::Lzss => shadow_compress::decompress(&data).map_err(|_| ()),
                };
                // Reconstruct in one pass directly over the retained base
                // bytes — no base clone, no intermediate line vectors.
                // The payload's codec selects the decoder; both are
                // symmetric with what the server's reverse-shadow path
                // chose when diffing the outputs.
                let applied = text.and_then(|t| {
                    let base = self
                        .outputs
                        .get(&conn)
                        .and_then(|q| q.iter().find(|(j, _)| *j == base_job))
                        .map(|(_, o)| o.as_slice())
                        .ok_or(())?;
                    match codec {
                        DeltaCodec::Line => shadow_diff::apply_delta(base, &t).map_err(|_| ()),
                        DeltaCodec::Chunk => {
                            shadow_diff::apply_chunk_delta(base, &t).map_err(|_| ())
                        }
                    }
                });
                applied.and_then(|bytes| {
                    if ContentDigest::of(&bytes) == digest {
                        self.metrics.output_deltas_applied += 1;
                        Ok(bytes)
                    } else {
                        Err(())
                    }
                })
            }
        };
        match reconstructed {
            Ok(output) => {
                let retained = self.outputs.entry(conn).or_default();
                retained.push_back((job, output.clone()));
                while retained.len() > self.config.output_retention {
                    retained.pop_front();
                }
                actions.push(ClientAction::Send {
                    conn,
                    message: ClientMessage::OutputAck { job },
                });
                actions.push(ClientAction::Notify(Notification::JobFinished {
                    conn,
                    job,
                    output,
                    errors,
                    stats,
                }));
            }
            Err(()) => {
                actions.push(ClientAction::Notify(Notification::OutputCorrupt {
                    conn,
                    job,
                }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_diff::{diff_docs, DiffAlgorithm, DiffScratch, DocBuf};

    fn ready_client() -> (ClientNode, ConnId) {
        let mut client = ClientNode::new(ClientConfig::new("ws1", 1));
        let conn = ConnId::new(0);
        client.connect(conn);
        client.handle(ClientEvent::Message {
            conn,
            message: ServerMessage::HelloAck {
                protocol: PROTOCOL_VERSION,
                server: HostName::new("sc"),
                resumed: false,
                retained: vec![],
            },
            now_ms: 0,
        });
        (client, conn)
    }

    fn sends(actions: &[ClientAction]) -> Vec<&ClientMessage> {
        actions
            .iter()
            .filter_map(|a| match a {
                ClientAction::Send { message, .. } => Some(message),
                _ => None,
            })
            .collect()
    }

    fn fref(id: u64, name: &str) -> FileRef {
        FileRef::new(FileId::new(id), name)
    }

    #[test]
    fn connect_sends_hello_and_ready_notification() {
        let mut client = ClientNode::new(ClientConfig::new("ws1", 1));
        let conn = ConnId::new(0);
        let actions = client.connect(conn);
        assert!(matches!(
            sends(&actions)[..],
            [ClientMessage::Hello { .. }]
        ));
        let actions = client.handle(ClientEvent::Message {
            conn,
            message: ServerMessage::HelloAck {
                protocol: PROTOCOL_VERSION,
                server: HostName::new("sc"),
                resumed: false,
                retained: vec![],
            },
            now_ms: 0,
        });
        assert!(matches!(
            actions[..],
            [ClientAction::Notify(Notification::SessionReady { .. })]
        ));
    }

    #[test]
    fn submit_before_ready_fails() {
        let mut client = ClientNode::new(ClientConfig::new("ws1", 1));
        let conn = ConnId::new(0);
        client.connect(conn);
        let err = client
            .submit(conn, &fref(1, "/job"), &[], SubmitOptions::default())
            .unwrap_err();
        assert_eq!(err, ClientError::NotConnected(conn));
    }

    #[test]
    fn submit_of_unregistered_file_fails() {
        let (mut client, conn) = ready_client();
        let err = client
            .submit(conn, &fref(1, "/job"), &[], SubmitOptions::default())
            .unwrap_err();
        assert_eq!(err, ClientError::UnknownFile(FileId::new(1)));
    }

    #[test]
    fn submit_notifies_then_submits() {
        let (mut client, conn) = ready_client();
        client.edit_finished(&fref(1, "/job"), b"echo hi\n".to_vec());
        client.edit_finished(&fref(2, "/data"), b"d\n".to_vec());
        let (request, actions) = client
            .submit(
                conn,
                &fref(1, "/job"),
                &[fref(2, "/data")],
                SubmitOptions::default(),
            )
            .unwrap();
        let msgs = sends(&actions);
        assert_eq!(msgs.len(), 3);
        assert!(matches!(msgs[0], ClientMessage::NotifyVersion { .. }));
        assert!(matches!(msgs[1], ClientMessage::NotifyVersion { .. }));
        match msgs[2] {
            ClientMessage::Submit {
                request: r,
                job_file,
                data_files,
                ..
            } => {
                assert_eq!(*r, request);
                assert_eq!(*job_file, FileId::new(1));
                assert_eq!(data_files.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn resubmit_does_not_renotify_unchanged_files() {
        let (mut client, conn) = ready_client();
        client.edit_finished(&fref(1, "/job"), b"echo hi\n".to_vec());
        let (_, first) = client
            .submit(conn, &fref(1, "/job"), &[], SubmitOptions::default())
            .unwrap();
        assert_eq!(sends(&first).len(), 2); // notify + submit
        let (_, second) = client
            .submit(conn, &fref(1, "/job"), &[], SubmitOptions::default())
            .unwrap();
        assert_eq!(sends(&second).len(), 1); // just the submit
    }

    #[test]
    fn edits_notify_interested_servers_in_background() {
        let (mut client, conn) = ready_client();
        client.edit_finished(&fref(1, "/f"), b"v1\n".to_vec());
        client
            .submit(conn, &fref(1, "/f"), &[], SubmitOptions::default())
            .unwrap();
        // A later edit notifies without an explicit submit (§5.1:
        // background updates).
        let (_, actions) = client.edit_finished(&fref(1, "/f"), b"v2\n".to_vec());
        assert!(matches!(
            sends(&actions)[..],
            [ClientMessage::NotifyVersion { .. }]
        ));
        // Servers never told about the file stay silent.
        let (_, actions) = client.edit_finished(&fref(9, "/other"), b"x\n".to_vec());
        assert!(sends(&actions).is_empty());
    }

    #[test]
    fn update_request_with_base_gets_delta() {
        let (mut client, conn) = ready_client();
        let file = fref(1, "/f");
        let base: Vec<u8> = (0..100).flat_map(|i| format!("line {i}\n").into_bytes()).collect();
        client.edit_finished(&file, base.clone());
        let mut edited = base.clone();
        edited.extend_from_slice(b"appended\n");
        client.edit_finished(&file, edited.clone());
        let actions = client.handle(ClientEvent::Message {
            conn,
            message: ServerMessage::UpdateRequest {
                file: file.id,
                have: Some(VersionNumber::FIRST),
            },
            now_ms: 0,
        });
        match sends(&actions)[..] {
            [ClientMessage::Update { payload, version, .. }] => {
                assert!(payload.is_delta());
                assert_eq!(*version, VersionNumber::new(2));
                assert!(payload.data_len() < 64);
            }
            ref other => panic!("unexpected {other:?}"),
        }
        assert_eq!(client.metrics().deltas_sent, 1);
    }

    #[test]
    fn update_request_without_base_gets_full() {
        let (mut client, conn) = ready_client();
        let file = fref(1, "/f");
        client.edit_finished(&file, b"content\n".to_vec());
        let actions = client.handle(ClientEvent::Message {
            conn,
            message: ServerMessage::UpdateRequest {
                file: file.id,
                have: None,
            },
            now_ms: 0,
        });
        match sends(&actions)[..] {
            [ClientMessage::Update { payload, .. }] => assert!(!payload.is_delta()),
            ref other => panic!("unexpected {other:?}"),
        }
        assert_eq!(client.metrics().fulls_sent, 1);
    }

    #[test]
    fn adaptive_policy_sends_full_when_delta_is_larger() {
        let (mut client, conn) = ready_client();
        let file = fref(1, "/f");
        client.edit_finished(&file, b"a\nb\nc\nd\n".to_vec());
        // A total rewrite: the ed script carries everything plus framing,
        // so full is smaller.
        client.edit_finished(&file, b"w\nx\ny\nz\n".to_vec());
        let actions = client.handle(ClientEvent::Message {
            conn,
            message: ServerMessage::UpdateRequest {
                file: file.id,
                have: Some(VersionNumber::FIRST),
            },
            now_ms: 0,
        });
        match sends(&actions)[..] {
            [ClientMessage::Update { payload, .. }] => assert!(!payload.is_delta()),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn version_ack_prunes_only_at_min_across_servers() {
        let (mut client, conn_a) = ready_client();
        let conn_b = ConnId::new(1);
        client.connect(conn_b);
        client.handle(ClientEvent::Message {
            conn: conn_b,
            message: ServerMessage::HelloAck {
                protocol: PROTOCOL_VERSION,
                server: HostName::new("sc2"),
                resumed: false,
                retained: vec![],
            },
            now_ms: 0,
        });
        let file = fref(1, "/f");
        let v1 = client.edit_finished(&file, b"v1\n".to_vec()).0;
        client
            .submit(conn_a, &file, &[], SubmitOptions::default())
            .unwrap();
        client
            .submit(conn_b, &file, &[], SubmitOptions::default())
            .unwrap();
        let v2 = client.edit_finished(&file, b"v2\n".to_vec()).0;
        // Only server A acks v2; server B has nothing acked yet, so v1
        // must survive as a potential base for B.
        client.handle(ClientEvent::Message {
            conn: conn_a,
            message: ServerMessage::VersionAck {
                file: file.id,
                version: v2,
            },
            now_ms: 0,
        });
        assert!(client.versions.content_of(file.id, v1).is_some());
        // Once B acks v2 as well, v1 can go.
        client.handle(ClientEvent::Message {
            conn: conn_b,
            message: ServerMessage::VersionAck {
                file: file.id,
                version: v2,
            },
            now_ms: 0,
        });
        assert!(client.versions.content_of(file.id, v1).is_none());
    }

    #[test]
    fn job_complete_full_output_is_delivered_and_acked() {
        let (mut client, conn) = ready_client();
        let actions = client.handle(ClientEvent::Message {
            conn,
            message: ServerMessage::JobComplete {
                job: JobId::new(5),
                output: OutputPayload::Full {
                    encoding: TransferEncoding::Identity,
                    data: Bytes::from_static(b"results\n"),
                },
                errors: Bytes::new(),
                stats: JobStats::default(),
            },
            now_ms: 0,
        });
        assert!(matches!(
            sends(&actions)[..],
            [ClientMessage::OutputAck { .. }]
        ));
        assert!(actions.iter().any(|a| matches!(
            a,
            ClientAction::Notify(Notification::JobFinished { output, .. }) if output == b"results\n"
        )));
    }

    #[test]
    fn job_complete_output_delta_reconstructs() {
        let (mut client, conn) = ready_client();
        // First run delivers full output.
        client.handle(ClientEvent::Message {
            conn,
            message: ServerMessage::JobComplete {
                job: JobId::new(1),
                output: OutputPayload::Full {
                    encoding: TransferEncoding::Identity,
                    data: Bytes::from_static(b"row 1\nrow 2\nrow 3\n"),
                },
                errors: Bytes::new(),
                stats: JobStats::default(),
            },
            now_ms: 0,
        });
        // Second run sends a delta against job 1's output.
        let new_output = b"row 1\nrow 2 edited\nrow 3\n";
        let script = diff_docs(
            DiffAlgorithm::HuntMcIlroy,
            &DocBuf::from_text("row 1\nrow 2\nrow 3\n"),
            &DocBuf::from_bytes(new_output.to_vec()),
            &mut DiffScratch::new(),
        );
        let actions = client.handle(ClientEvent::Message {
            conn,
            message: ServerMessage::JobComplete {
                job: JobId::new(2),
                output: OutputPayload::Delta {
                    base_job: JobId::new(1),
                    codec: DeltaCodec::Line,
                    encoding: TransferEncoding::Identity,
                    data: Bytes::from(script.to_text()),
                    digest: ContentDigest::of(new_output),
                },
                errors: Bytes::new(),
                stats: JobStats::default(),
            },
            now_ms: 0,
        });
        assert!(actions.iter().any(|a| matches!(
            a,
            ClientAction::Notify(Notification::JobFinished { output, .. })
                if output == new_output
        )));
        assert_eq!(client.metrics().output_deltas_applied, 1);
    }

    #[test]
    fn output_delta_against_unknown_base_reports_corrupt() {
        let (mut client, conn) = ready_client();
        let actions = client.handle(ClientEvent::Message {
            conn,
            message: ServerMessage::JobComplete {
                job: JobId::new(2),
                output: OutputPayload::Delta {
                    base_job: JobId::new(99),
                    codec: DeltaCodec::Line,
                    encoding: TransferEncoding::Identity,
                    data: Bytes::from_static(b"w\n"),
                    digest: ContentDigest::of(b""),
                },
                errors: Bytes::new(),
                stats: JobStats::default(),
            },
            now_ms: 0,
        });
        assert!(matches!(
            actions[..],
            [ClientAction::Notify(Notification::OutputCorrupt { .. })]
        ));
        // No ack was sent for the lost output.
        assert!(sends(&actions).is_empty());
    }

    #[test]
    fn conventional_mode_pushes_full_files_every_submit() {
        let mut client = ClientNode::new(ClientConfig::new("ws1", 1).conventional());
        let conn = ConnId::new(0);
        client.connect(conn);
        client.handle(ClientEvent::Message {
            conn,
            message: ServerMessage::HelloAck {
                protocol: PROTOCOL_VERSION,
                server: HostName::new("sc"),
                resumed: false,
                retained: vec![],
            },
            now_ms: 0,
        });
        let file = fref(1, "/job");
        client.edit_finished(&file, b"echo hi\n".to_vec());
        let (_, first) = client
            .submit(conn, &file, &[], SubmitOptions::default())
            .unwrap();
        // notify + full update + submit
        assert_eq!(sends(&first).len(), 3);
        let (_, second) = client
            .submit(conn, &file, &[], SubmitOptions::default())
            .unwrap();
        // Unchanged file is STILL pushed whole — that is the baseline's
        // defining waste.
        assert_eq!(sends(&second).len(), 3);
        assert_eq!(client.metrics().fulls_sent, 2);
    }

    #[test]
    fn lzss_encoding_is_used_when_it_helps() {
        let mut config = ClientConfig::new("ws1", 1);
        config.env.encoding = TransferEncoding::Lzss;
        let mut client = ClientNode::new(config);
        let conn = ConnId::new(0);
        client.connect(conn);
        client.handle(ClientEvent::Message {
            conn,
            message: ServerMessage::HelloAck {
                protocol: PROTOCOL_VERSION,
                server: HostName::new("sc"),
                resumed: false,
                retained: vec![],
            },
            now_ms: 0,
        });
        let file = fref(1, "/f");
        let content: Vec<u8> = b"repetitive line of text\n"
            .iter()
            .copied()
            .cycle()
            .take(4096)
            .collect();
        client.edit_finished(&file, content.clone());
        let actions = client.handle(ClientEvent::Message {
            conn,
            message: ServerMessage::UpdateRequest {
                file: file.id,
                have: None,
            },
            now_ms: 0,
        });
        match sends(&actions)[..] {
            [ClientMessage::Update { payload, .. }] => match payload {
                UpdatePayload::Full { encoding, data, .. } => {
                    assert_eq!(*encoding, TransferEncoding::Lzss);
                    assert!(data.len() < content.len() / 2);
                }
                other => panic!("unexpected {other:?}"),
            },
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn disconnect_clears_state() {
        let (mut client, conn) = ready_client();
        let file = fref(1, "/f");
        client.edit_finished(&file, b"x\n".to_vec());
        client
            .submit(conn, &file, &[], SubmitOptions::default())
            .unwrap();
        client.disconnect(conn);
        let err = client
            .submit(conn, &file, &[], SubmitOptions::default())
            .unwrap_err();
        assert_eq!(err, ClientError::NotConnected(conn));
    }

    /// Drives the client to a state where the server has acked v1 of
    /// one file, then drops the link.
    fn acked_then_down() -> (ClientNode, ConnId, FileRef, VersionNumber) {
        let (mut client, conn) = ready_client();
        let file = fref(1, "/f");
        let v1 = client.edit_finished(&file, b"v1 content\n".to_vec()).0;
        client
            .submit(conn, &file, &[], SubmitOptions::default())
            .unwrap();
        client.handle(ClientEvent::Message {
            conn,
            message: ServerMessage::VersionAck {
                file: file.id,
                version: v1,
            },
            now_ms: 0,
        });
        client.handle(ClientEvent::LinkDown { conn, now_ms: 1 });
        (client, conn, file, v1)
    }

    #[test]
    fn link_down_withdraws_readiness_but_keeps_state() {
        let (mut client, conn, file, v1) = acked_then_down();
        let err = client
            .submit(conn, &file, &[], SubmitOptions::default())
            .unwrap_err();
        assert_eq!(err, ClientError::NotConnected(conn));
        // The ack watermark survived the link loss.
        assert_eq!(client.acked_version(conn, file.id), Some(v1));
    }

    #[test]
    fn reconnect_presents_a_resume_summary() {
        let (mut client, conn, file, v1) = acked_then_down();
        let actions = client.handle(ClientEvent::Resume { conn, now_ms: 2 });
        match sends(&actions)[..] {
            [ClientMessage::Hello { epoch, resume, .. }] => {
                assert_eq!(*epoch, 1);
                assert_eq!(resume.len(), 1);
                assert_eq!(resume[0].file, file.id);
                assert_eq!(resume[0].version, v1);
                assert_eq!(
                    Some(resume[0].digest),
                    client.digest_of_version(file.id, v1)
                );
            }
            ref other => panic!("expected resume Hello, got {other:?}"),
        }
        assert_eq!(client.metrics().reconnects, 1);
    }

    #[test]
    fn confirmed_resume_keeps_the_delta_path_warm() {
        let (mut client, conn) = ready_client();
        let file = fref(1, "/f");
        let base: Vec<u8> = (0..100)
            .flat_map(|i| format!("line {i}\n").into_bytes())
            .collect();
        let v1 = client.edit_finished(&file, base.clone()).0;
        client
            .submit(conn, &file, &[], SubmitOptions::default())
            .unwrap();
        client.handle(ClientEvent::Message {
            conn,
            message: ServerMessage::VersionAck {
                file: file.id,
                version: v1,
            },
            now_ms: 0,
        });
        client.handle(ClientEvent::LinkDown { conn, now_ms: 1 });
        client.handle(ClientEvent::Resume { conn, now_ms: 2 });
        client.handle(ClientEvent::Message {
            conn,
            message: ServerMessage::HelloAck {
                protocol: PROTOCOL_VERSION,
                server: HostName::new("sc"),
                resumed: true,
                retained: vec![(file.id, v1)],
            },
            now_ms: 3,
        });
        assert_eq!(client.metrics().resume_hits, 1);
        assert_eq!(client.acked_version(conn, file.id), Some(v1));
        // The next edit + pull answers with a delta against the resumed
        // base instead of a full copy.
        let mut edited = base;
        edited.extend_from_slice(b"appended\n");
        client.edit_finished(&file, edited);
        let actions = client.handle(ClientEvent::Message {
            conn,
            message: ServerMessage::UpdateRequest {
                file: file.id,
                have: Some(v1),
            },
            now_ms: 4,
        });
        match sends(&actions)[..] {
            [ClientMessage::Update { payload, .. }] => assert!(payload.is_delta()),
            ref other => panic!("expected Update, got {other:?}"),
        }
    }

    #[test]
    fn unconfirmed_resume_falls_back_to_full_transfer() {
        let (mut client, conn, file, _v1) = acked_then_down();
        client.handle(ClientEvent::Resume { conn, now_ms: 2 });
        // The server lost its cache: nothing retained.
        let actions = client.handle(ClientEvent::Message {
            conn,
            message: ServerMessage::HelloAck {
                protocol: PROTOCOL_VERSION,
                server: HostName::new("sc"),
                resumed: true,
                retained: vec![],
            },
            now_ms: 3,
        });
        assert!(actions.iter().any(|a| matches!(
            a,
            ClientAction::Notify(Notification::SessionReady { resumed: true, .. })
        )));
        assert_eq!(client.metrics().resume_fallbacks, 1);
        assert_eq!(client.acked_version(conn, file.id), None);
        // A resubmission re-announces (the announce watermark was reset).
        let (_, actions) = client
            .submit(conn, &file, &[], SubmitOptions::default())
            .unwrap();
        assert!(matches!(
            sends(&actions)[..],
            [ClientMessage::NotifyVersion { .. }, ClientMessage::Submit { .. }]
        ));
    }

    #[test]
    fn resume_skips_files_whose_acked_base_was_pruned() {
        let (mut client, conn) = ready_client();
        let file = fref(1, "/f");
        // Retention 1 on the default config? No — force the situation by
        // acking a version and then recording enough newer versions that
        // the store prunes the acked base.
        let v1 = client.edit_finished(&file, b"v1\n".to_vec()).0;
        client
            .submit(conn, &file, &[], SubmitOptions::default())
            .unwrap();
        client.handle(ClientEvent::Message {
            conn,
            message: ServerMessage::VersionAck {
                file: file.id,
                version: v1,
            },
            now_ms: 0,
        });
        let v2 = client.edit_finished(&file, b"v2\n".to_vec()).0;
        client.handle(ClientEvent::Message {
            conn,
            message: ServerMessage::VersionAck {
                file: file.id,
                version: v2,
            },
            now_ms: 0,
        });
        // v1 was pruned by the v2 ack; only v2 can appear in a summary.
        client.handle(ClientEvent::LinkDown { conn, now_ms: 1 });
        let actions = client.handle(ClientEvent::Resume { conn, now_ms: 2 });
        match sends(&actions)[..] {
            [ClientMessage::Hello { resume, .. }] => {
                assert_eq!(resume.len(), 1);
                assert_eq!(resume[0].version, v2);
            }
            ref other => panic!("expected Hello, got {other:?}"),
        }
    }

    #[test]
    fn pong_is_surfaced_to_the_supervisor() {
        let (mut client, conn) = ready_client();
        let actions = client.handle(ClientEvent::Message {
            conn,
            message: ServerMessage::Pong { nonce: 9 },
            now_ms: 0,
        });
        assert!(matches!(
            actions[..],
            [ClientAction::Notify(Notification::Pong { nonce: 9, .. })]
        ));
        let sent = client.ping(conn, 10).unwrap();
        assert!(matches!(
            sends(&sent)[..],
            [ClientMessage::Ping { nonce: 10 }]
        ));
    }
}

//! The server state machine.

use std::collections::HashMap;
use std::fmt;

use bytes::Bytes;
use shadow_cache::ShadowStore;
use shadow_diff::{
    apply_chunk_delta_in_place, apply_delta, choose_chunk_codec, chunk_delta_into, diff_docs,
    DeltaError, DiffAlgorithm, DiffScratch, DocBuf,
};
use shadow_proto::{
    ClientMessage, ContentDigest, DeltaCodec, DomainId, FileId, FileKey, HostName, JobId, JobStats,
    JobStatus, JobStatusEntry, OutputPayload, PersistRecord, ServerMessage, SubmitOptions,
    TransferEncoding, UpdatePayload, VersionNumber, PROTOCOL_VERSION,
};

use crate::action::{CloseReason, ServerAction, ServerEvent, TimerToken};
use crate::config::{FlowControl, ServerConfig};
use crate::domain::DomainDirectory;
use crate::exec::run_job;
use crate::jobs::{Job, JobPhase, JobTable};
use crate::output_shadow::OutputShadowStore;

/// Applies a `codec` delta to `base`, which the caller has taken out of
/// the cache: the one decoder dispatch shared by live updates and
/// journal replay. A chunk delta is applied over the base's own buffer
/// when nothing else shares it (a shared one is copied first), and a
/// target above `max_len` bytes is refused before it is allocated.
fn apply_codec(
    codec: DeltaCodec,
    base: Bytes,
    delta: &[u8],
    max_len: usize,
) -> Result<Vec<u8>, &'static str> {
    match codec {
        DeltaCodec::Line => apply_delta(&base, delta).map_err(|e| match e {
            DeltaError::Parse(_) => "edit script parse failed",
            DeltaError::Apply(_) => "edit script apply failed",
        }),
        DeltaCodec::Chunk => {
            let mut content = Vec::from(base);
            apply_chunk_delta_in_place(&mut content, delta, max_len)
                .map_err(|_| "chunk delta apply failed")?;
            // The cache accounts an entry by its length: a shrunk file
            // must not keep its old capacity.
            content.shrink_to_fit();
            Ok(content)
        }
    }
}

/// A transport session handle, assigned by the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl SessionId {
    /// Wraps a raw session number.
    pub const fn new(raw: u64) -> Self {
        SessionId(raw)
    }

    /// The raw value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sess-{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct Session {
    domain: DomainId,
    host: HostName,
}

/// Counters describing server behaviour, for experiments and monitoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerMetrics {
    /// `UpdateRequest`s sent (demand-driven pulls).
    pub update_requests: u64,
    /// Full-content updates received.
    pub full_updates: u64,
    /// Delta updates received and applied.
    pub delta_updates: u64,
    /// Updates that failed verification and triggered a full-transfer
    /// fallback.
    pub update_failures: u64,
    /// Jobs completed (either exit status).
    pub jobs_completed: u64,
    /// Output deltas sent (reverse shadow processing).
    pub output_deltas: u64,
    /// Payload bytes received in updates.
    pub update_payload_bytes: u64,
    /// Journal records applied during startup replay.
    pub restored_records: u64,
    /// Journal records skipped during startup replay (broken delta
    /// chains, digest mismatches).
    pub restore_skipped: u64,
    /// Sessions resumed via an epoch > 0 `Hello`.
    pub sessions_resumed: u64,
    /// Resume-summary entries verified against the shadow cache: the
    /// client's next update for these files travels as a delta.
    pub resume_hits: u64,
    /// Resume-summary entries the cache could not confirm (evicted,
    /// stale, or digest mismatch): those files degrade to full transfer.
    pub resume_fallbacks: u64,
    /// Heartbeat `Ping`s answered with a `Pong`.
    pub pings_answered: u64,
    /// Sessions closed by an orderly `Bye` or clean transport shutdown.
    pub closed_clean: u64,
    /// Sessions closed by a transport failure.
    pub closed_error: u64,
    /// Sessions killed because an inbound frame failed to decode.
    pub closed_decode: u64,
    /// Sessions evicted by the runtime for prolonged inactivity.
    pub closed_idle: u64,
    /// Sessions dropped by a runtime shutdown.
    pub closed_shutdown: u64,
}

impl shadow_obs::Snapshot for ServerMetrics {
    fn section_name(&self) -> &'static str {
        "server"
    }

    fn snapshot(&self) -> shadow_obs::Section {
        shadow_obs::Section::new("server")
            .with("update_requests", self.update_requests)
            .with("full_updates", self.full_updates)
            .with("delta_updates", self.delta_updates)
            .with("update_failures", self.update_failures)
            .with("jobs_completed", self.jobs_completed)
            .with("output_deltas", self.output_deltas)
            .with("update_payload_bytes", self.update_payload_bytes)
            .with("restored_records", self.restored_records)
            .with("restore_skipped", self.restore_skipped)
            .with("sessions_resumed", self.sessions_resumed)
            .with("resume_hits", self.resume_hits)
            .with("resume_fallbacks", self.resume_fallbacks)
            .with("pings_answered", self.pings_answered)
            .with("closed_clean", self.closed_clean)
            .with("closed_error", self.closed_error)
            .with("closed_decode", self.closed_decode)
            .with("closed_idle", self.closed_idle)
            .with("closed_shutdown", self.closed_shutdown)
    }
}

/// What startup replay managed to rebuild (see [`ServerNode::restore`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RestoreSummary {
    /// Records applied to the cache or output store.
    pub applied: usize,
    /// Records skipped: a delta whose base was missing or whose result
    /// digest did not match drops its key instead of corrupting it.
    pub skipped: usize,
}

/// Deliberately injectable protocol bugs, used to prove the model
/// checker in `shadow-check` is not vacuous: a checker that cannot find
/// a *known* bug within its exploration budget is not checking anything.
///
/// All faults default to **off**; the flag is runtime-toggled because
/// cargo feature unification would otherwise enable the buggy code path
/// for every crate in a workspace build.
#[cfg(any(test, feature = "check-faults"))]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultInjection {
    /// Apply delta updates without validating that the cached base
    /// matches the delta's base version, and skip the post-apply digest
    /// check — the server "trusts its cache bookkeeping". Two deltas
    /// against the same base then silently corrupt the shadow.
    pub delta_base_bug: bool,
}

/// The shadow server state machine. See the [crate docs](crate).
#[derive(Debug, Clone)]
pub struct ServerNode {
    config: ServerConfig,
    sessions: HashMap<SessionId, Session>,
    hosts: HashMap<HostName, SessionId>,
    directory: DomainDirectory,
    cache: ShadowStore,
    /// Which session most recently announced each file (where pulls go).
    announcers: HashMap<FileKey, SessionId>,
    /// Versions currently being pulled, to suppress duplicate requests.
    in_flight: HashMap<FileKey, VersionNumber>,
    /// Pulls postponed by adaptive flow control.
    postponed: Vec<(FileKey, VersionNumber)>,
    pulse_armed: bool,
    jobs: JobTable,
    next_job: u64,
    outputs: OutputShadowStore,
    /// Reusable diff working memory for reverse-shadow output deltas;
    /// steady-state re-runs of the same job diff with zero allocation.
    /// (Cloning a server starts with a fresh scratch.)
    diff_scratch: DiffScratch,
    metrics: ServerMetrics,
    #[cfg(any(test, feature = "check-faults"))]
    faults: FaultInjection,
}

impl ServerNode {
    /// Creates a server from its configuration.
    pub fn new(config: ServerConfig) -> Self {
        let cache = ShadowStore::new(config.cache_budget, config.eviction);
        let outputs = OutputShadowStore::new(config.output_shadow_budget);
        ServerNode {
            config,
            sessions: HashMap::new(),
            hosts: HashMap::new(),
            directory: DomainDirectory::new(),
            cache,
            announcers: HashMap::new(),
            in_flight: HashMap::new(),
            postponed: Vec::new(),
            pulse_armed: false,
            jobs: JobTable::default(),
            next_job: 0,
            outputs,
            diff_scratch: DiffScratch::new(),
            metrics: ServerMetrics::default(),
            #[cfg(any(test, feature = "check-faults"))]
            faults: FaultInjection::default(),
        }
    }

    /// Enables or disables injected faults (checker validation only).
    #[cfg(any(test, feature = "check-faults"))]
    pub fn set_faults(&mut self, faults: FaultInjection) {
        self.faults = faults;
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Everything this node can report about itself — behaviour
    /// counters plus shadow-cache statistics — as one aggregate.
    pub fn report(&self) -> shadow_obs::NodeReport {
        shadow_obs::NodeReport::new("server")
            .with(&self.metrics)
            .with(&self.cache.stats())
    }

    /// The cached version of a file, if any (test/diagnostic hook).
    pub fn cached_version(&self, key: FileKey) -> Option<VersionNumber> {
        self.cache.version_of(&key)
    }

    /// The digest of a file's cached content, if any (coherence checks).
    pub fn cached_digest(&self, key: FileKey) -> Option<ContentDigest> {
        self.cache.peek(&key).map(|e| e.digest)
    }

    /// Simulates the remote host reclaiming the shadow disk — the fault
    /// best-effort caching must survive (§5.1).
    pub fn drop_cache(&mut self) {
        self.cache.clear();
    }

    /// Replays journal records into a fresh node, rebuilding the shadow
    /// cache and output shadow store exactly as the pre-crash server had
    /// them. Pure (no I/O): the runtime reads the journal, this applies
    /// it, so the model checker can replay in-memory journals too.
    ///
    /// Replay is deliberately *forgiving*: a delta record whose base is
    /// not cached (its chain was cut by a skipped record) or whose
    /// re-applied result does not match the archived digest drops the
    /// key — the server then degrades to requesting a full transfer for
    /// that one file, never to serving corrupt content.
    ///
    /// Sessions, the mapping directory, and the job table are *not*
    /// restored: sessions and name mappings are re-established by
    /// reconnecting clients, and in-flight jobs are lost by design. Job
    /// ids seen in output records advance the job counter so fresh jobs
    /// never collide with restored output bases.
    pub fn restore(&mut self, records: &[PersistRecord]) -> RestoreSummary {
        let mut summary = RestoreSummary::default();
        for record in records {
            match record {
                PersistRecord::CacheFull {
                    key,
                    version,
                    content,
                } => {
                    self.cache.insert(*key, *version, content.clone());
                    summary.applied += 1;
                }
                PersistRecord::CacheDelta {
                    key,
                    version,
                    base,
                    codec,
                    script,
                    digest,
                } => {
                    // As live: the base leaves the cache and is edited in
                    // place, or copied first if a record still shares it.
                    let max_len = self.cache.budget();
                    let applied = match self.cache.get(key).map(|entry| entry.version) {
                        Some(have) if have == *base => self
                            .cache
                            .remove(key)
                            .and_then(|entry| {
                                apply_codec(*codec, entry.content, script, max_len).ok()
                            })
                            .filter(|c| ContentDigest::of(c) == *digest),
                        _ => None,
                    };
                    match applied {
                        Some(content) => {
                            self.cache.insert_digested(*key, *version, content, *digest);
                            summary.applied += 1;
                        }
                        None => {
                            self.cache.remove(key);
                            summary.skipped += 1;
                        }
                    }
                }
                PersistRecord::CacheRemove { key } => {
                    self.cache.remove(key);
                    summary.applied += 1;
                }
                PersistRecord::Output {
                    domain,
                    job_file,
                    job,
                    content,
                } => {
                    self.next_job = self.next_job.max(job.as_u64());
                    self.outputs.note_job(*domain, *job);
                    match DocBuf::try_from_bytes(content.to_vec()) {
                        Some(output) => {
                            self.outputs.record(*domain, *job_file, *job, output);
                            summary.applied += 1;
                        }
                        None => summary.skipped += 1,
                    }
                }
                PersistRecord::OutputAcked { domain, job } => {
                    self.next_job = self.next_job.max(job.as_u64());
                    self.outputs.note_job(*domain, *job);
                    self.outputs.mark_acked(*job);
                    summary.applied += 1;
                }
            }
        }
        self.metrics.restored_records += summary.applied as u64;
        self.metrics.restore_skipped += summary.skipped as u64;
        summary
    }

    /// The records that rebuild `domain`'s shadow state through
    /// [`restore`](Self::restore): one `CacheFull` per cached key, by
    /// file id, then the outputs ([`OutputShadowStore::snapshot`]).
    /// Pure and deterministic; the durable store writes it as a
    /// compaction snapshot, so delta chains collapse and evicted
    /// entries are forgotten exactly as the server forgot them.
    pub fn snapshot(&self, domain: DomainId) -> Vec<PersistRecord> {
        let mut cached: Vec<_> = self
            .cache
            .iter()
            .filter(|(k, _)| k.domain == domain)
            .collect();
        cached.sort_unstable_by_key(|(k, _)| k.file);
        let mut out: Vec<PersistRecord> = cached
            .into_iter()
            .map(|(key, entry)| PersistRecord::CacheFull {
                key: *key,
                version: entry.version,
                content: entry.content.clone(),
            })
            .collect();
        self.outputs.snapshot(domain, &mut out);
        out
    }

    /// Every file key currently cached (coherence checks).
    pub fn cached_keys(&self) -> Vec<FileKey> {
        let mut keys: Vec<FileKey> = self.cache.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        keys
    }

    /// Ids of jobs not yet in a terminal phase (liveness checks).
    pub fn pending_job_ids(&self) -> Vec<JobId> {
        self.jobs
            .iter()
            .filter(|j| j.is_pending())
            .map(|j| j.id)
            .collect()
    }

    /// A deterministic digest of the protocol-relevant server state:
    /// sessions, the mapping directory, the shadow cache, pull
    /// bookkeeping, the job table, and output shadows. Used by the model
    /// checker to deduplicate explored states; two servers with equal
    /// digests react identically to any future event sequence.
    pub fn state_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = shadow_proto::StableHasher::new();
        let mut sessions: Vec<(SessionId, DomainId, &HostName)> = self
            .sessions
            .iter()
            .map(|(id, s)| (*id, s.domain, &s.host))
            .collect();
        sessions.sort_unstable_by_key(|(id, ..)| *id);
        sessions.hash(&mut h);
        let mut hosts: Vec<(&HostName, SessionId)> =
            self.hosts.iter().map(|(n, s)| (n, *s)).collect();
        hosts.sort_unstable();
        hosts.hash(&mut h);
        self.directory.state_digest().hash(&mut h);
        self.cache.state_digest().hash(&mut h);
        let mut announcers: Vec<(&FileKey, &SessionId)> = self.announcers.iter().collect();
        announcers.sort_unstable();
        announcers.hash(&mut h);
        let mut in_flight: Vec<(&FileKey, &VersionNumber)> = self.in_flight.iter().collect();
        in_flight.sort_unstable();
        in_flight.hash(&mut h);
        let mut postponed = self.postponed.clone();
        postponed.sort_unstable();
        postponed.hash(&mut h);
        self.pulse_armed.hash(&mut h);
        for job in self.jobs.iter() {
            (
                job.id,
                job.session,
                job.domain,
                &job.client_host,
                job.job_file,
                &job.data_files,
                job.status(),
                &job.fetch_attempts,
            )
                .hash(&mut h);
        }
        self.next_job.hash(&mut h);
        self.outputs.state_digest().hash(&mut h);
        h.finish()
    }

    /// A job's current status (diagnostic hook).
    pub fn job_status(&self, job: JobId) -> Option<JobStatus> {
        self.jobs.get(job).map(Job::status)
    }

    /// Feeds one event through the state machine.
    pub fn handle(&mut self, event: ServerEvent) -> Vec<ServerAction> {
        let mut actions = Vec::new();
        match event {
            ServerEvent::Connected { .. } => {}
            ServerEvent::Disconnected {
                session, reason, ..
            } => {
                if let Some(s) = self.sessions.remove(&session) {
                    if self.hosts.get(&s.host) == Some(&session) {
                        self.hosts.remove(&s.host);
                    }
                    self.count_close(reason);
                }
                // Pulls outstanding toward the dead session can never be
                // answered; clearing them lets a re-announce (or resume)
                // re-request instead of wedging behind `in_flight`.
                self.in_flight
                    .retain(|key, _| self.announcers.get(key) != Some(&session));
            }
            ServerEvent::Message {
                session,
                message,
                now_ms,
            } => self.on_message(session, message, now_ms, &mut actions),
            ServerEvent::Timer { token, now_ms } => self.on_timer(token, now_ms, &mut actions),
        }
        actions
    }

    fn on_message(
        &mut self,
        session: SessionId,
        message: ClientMessage,
        now_ms: u64,
        actions: &mut Vec<ServerAction>,
    ) {
        match message {
            ClientMessage::Hello {
                domain,
                host,
                protocol: _,
                epoch,
                resume,
            } => {
                self.hosts.insert(host.clone(), session);
                self.sessions.insert(session, Session { domain, host });
                // Session resumption (epoch > 0): verify each entry of
                // the client's shadow-cache summary against our cache.
                // A confirmed entry keeps its delta base warm — the next
                // update for that file travels as a diff — and re-points
                // the announcer at the new session so pending pulls have
                // somewhere to go. Anything the cache cannot confirm
                // degrades to a full transfer, never to trusting a
                // digest we did not check.
                let resumed = epoch > 0;
                let mut retained = Vec::with_capacity(resume.len().min(4096));
                for entry in &resume {
                    let key = FileKey::new(domain, entry.file);
                    let confirmed = self.cache.version_of(&key) == Some(entry.version)
                        && self.cache.peek(&key).map(|e| e.digest) == Some(entry.digest);
                    if confirmed {
                        self.metrics.resume_hits += 1;
                        self.announcers.insert(key, session);
                        retained.push((entry.file, entry.version));
                    } else {
                        self.metrics.resume_fallbacks += 1;
                    }
                }
                if resumed {
                    self.metrics.sessions_resumed += 1;
                }
                actions.push(ServerAction::Send {
                    session,
                    message: ServerMessage::HelloAck {
                        protocol: PROTOCOL_VERSION,
                        server: self.config.host.clone(),
                        resumed,
                        retained,
                    },
                });
                if resumed {
                    // Jobs stranded by the disconnect (waiting on files
                    // whose pull died with the old session) get their
                    // requests re-driven against the resumed session.
                    self.check_waiting_jobs(now_ms, actions);
                }
            }
            ClientMessage::Ping { nonce } => {
                self.metrics.pings_answered += 1;
                actions.push(ServerAction::Send {
                    session,
                    message: ServerMessage::Pong { nonce },
                });
            }
            ClientMessage::NotifyVersion {
                file,
                name,
                version,
                size,
                digest,
            } => {
                let Some(domain) = self.session_domain(session) else {
                    return;
                };
                self.directory
                    .record(domain, file, &name, version, size, digest);
                let key = FileKey::new(domain, file);
                self.announcers.insert(key, session);
                self.consider_pull(key, version, actions);
            }
            ClientMessage::Update {
                file,
                version,
                payload,
            } => {
                let Some(domain) = self.session_domain(session) else {
                    return;
                };
                self.on_update(
                    session,
                    FileKey::new(domain, file),
                    version,
                    payload,
                    now_ms,
                    actions,
                );
            }
            ClientMessage::Submit {
                request,
                job_file,
                job_version,
                data_files,
                options,
            } => {
                let Some(sess) = self.sessions.get(&session).cloned() else {
                    actions.push(ServerAction::Send {
                        session,
                        message: ServerMessage::SubmitError {
                            request,
                            reason: "session has not said hello".to_string(),
                        },
                    });
                    return;
                };
                self.on_submit(
                    session,
                    &sess,
                    request,
                    job_file,
                    job_version,
                    data_files,
                    options,
                    now_ms,
                    actions,
                );
            }
            ClientMessage::StatusQuery { request, job } => {
                let entries = match job {
                    Some(id) => vec![JobStatusEntry {
                        job: id,
                        status: self.jobs.get(id).map_or(JobStatus::Unknown, Job::status),
                        submitted_at_ms: self.jobs.get(id).map_or(0, |j| j.submitted_at_ms),
                    }],
                    None => self
                        .jobs
                        .iter()
                        .filter(|j| j.session == session && j.is_pending())
                        .map(|j| JobStatusEntry {
                            job: j.id,
                            status: j.status(),
                            submitted_at_ms: j.submitted_at_ms,
                        })
                        .collect(),
                };
                actions.push(ServerAction::Send {
                    session,
                    message: ServerMessage::StatusReport { request, entries },
                });
            }
            ClientMessage::OutputAck { job } => {
                if let Some(domain) = self.outputs.mark_acked(job) {
                    actions.push(ServerAction::Persist(PersistRecord::OutputAcked {
                        domain,
                        job,
                    }));
                }
            }
            ClientMessage::Bye => {
                actions.push(ServerAction::Send {
                    session,
                    message: ServerMessage::Bye,
                });
                if let Some(s) = self.sessions.remove(&session) {
                    if self.hosts.get(&s.host) == Some(&session) {
                        self.hosts.remove(&s.host);
                    }
                    self.count_close(CloseReason::Clean);
                }
            }
        }
    }

    fn session_domain(&self, session: SessionId) -> Option<DomainId> {
        self.sessions.get(&session).map(|s| s.domain)
    }

    /// Counted exactly once per closed session, at the moment it leaves
    /// the session table (a `Bye` followed by the transport reap does
    /// not double-count).
    fn count_close(&mut self, reason: CloseReason) {
        match reason {
            CloseReason::Clean => self.metrics.closed_clean += 1,
            CloseReason::Error => self.metrics.closed_error += 1,
            CloseReason::Decode => self.metrics.closed_decode += 1,
            CloseReason::Idle => self.metrics.closed_idle += 1,
            CloseReason::Shutdown => self.metrics.closed_shutdown += 1,
        }
    }

    /// Flow control: decide whether to pull a newly announced version now,
    /// later, or not at all (§5.2).
    fn consider_pull(
        &mut self,
        key: FileKey,
        version: VersionNumber,
        actions: &mut Vec<ServerAction>,
    ) {
        if self.cache.version_of(&key).is_some_and(|v| v >= version) {
            return; // already current
        }
        match self.config.flow {
            FlowControl::RequestDriven | FlowControl::DemandLazy => {}
            FlowControl::DemandEager => self.request_update(key, version, actions),
            FlowControl::DemandAdaptive {
                eager_queue_limit,
                cache_pressure_limit,
            } => {
                let pressure = if self.cache.budget() == 0 {
                    1.0
                } else {
                    self.cache.used_bytes() as f64 / self.cache.budget() as f64
                };
                if self.jobs.pending_count() <= eager_queue_limit
                    && pressure <= cache_pressure_limit
                {
                    self.request_update(key, version, actions);
                } else {
                    self.postponed.push((key, version));
                    if !self.pulse_armed {
                        self.pulse_armed = true;
                        actions.push(ServerAction::SetTimer {
                            delay_ms: 1_000,
                            token: TimerToken::FetchPulse,
                        });
                    }
                }
            }
        }
    }

    /// Sends an `UpdateRequest` naming the best base version we hold.
    fn request_update(
        &mut self,
        key: FileKey,
        version: VersionNumber,
        actions: &mut Vec<ServerAction>,
    ) {
        if self.in_flight.get(&key).is_some_and(|&v| v >= version) {
            return; // an equal-or-newer pull is already outstanding
        }
        let Some(&session) = self.announcers.get(&key) else {
            return;
        };
        if !self.sessions.contains_key(&session) {
            return;
        }
        self.in_flight.insert(key, version);
        self.metrics.update_requests += 1;
        actions.push(ServerAction::Send {
            session,
            message: ServerMessage::UpdateRequest {
                file: key.file,
                have: self.cache.version_of(&key),
            },
        });
    }

    /// The payload's bytes: an identity payload shares the frame's
    /// buffer, a compressed one decodes into a buffer of its own.
    fn decode_payload(encoding: TransferEncoding, data: &Bytes) -> Result<Bytes, &'static str> {
        match encoding {
            TransferEncoding::Identity => Ok(data.clone()),
            TransferEncoding::Lzss => shadow_compress::decompress(data)
                .map(Bytes::from)
                .map_err(|_| "lzss decode failed"),
        }
    }

    fn on_update(
        &mut self,
        session: SessionId,
        key: FileKey,
        version: VersionNumber,
        payload: UpdatePayload,
        now_ms: u64,
        actions: &mut Vec<ServerAction>,
    ) {
        // Only an update at least as new as the outstanding pull answers
        // it; an older (reordered/duplicated) frame must leave the pull
        // pending or the newer version would never arrive.
        if self.in_flight.get(&key).is_some_and(|&v| v <= version) {
            self.in_flight.remove(&key);
        }
        self.metrics.update_payload_bytes += payload.data_len() as u64;
        // Reordered or duplicated delivery: an update no newer than the
        // cached shadow must not overwrite it (an old Full would roll the
        // shadow back) and must not be re-acked.
        if self
            .cache
            .version_of(&key)
            .is_some_and(|have| have >= version)
        {
            return;
        }
        let trust_bookkeeping = {
            #[cfg(any(test, feature = "check-faults"))]
            {
                self.faults.delta_base_bug
            }
            #[cfg(not(any(test, feature = "check-faults")))]
            {
                false
            }
        };
        let expected_digest = payload.digest();
        // When a delta applies cleanly, the decoded delta bytes are kept
        // (with their codec) so the journal can archive the *delta* (the
        // compressed form of the version chain) instead of the
        // materialized content.
        let mut applied_script: Option<(VersionNumber, DeltaCodec, Bytes)> = None;
        // A delta's base leaves the cache to be edited in place; if the
        // update then fails, its removal must still be journaled.
        let mut base_taken = false;
        // The content is held once: an identity full transfer's buffer
        // already is the content, and the cache entry and the journal
        // record share whichever buffer holds it.
        let content: Result<Bytes, &'static str> = match &payload {
            UpdatePayload::Full { encoding, data, .. } => {
                self.metrics.full_updates += 1;
                Self::decode_payload(*encoding, data)
            }
            UpdatePayload::Delta {
                base,
                codec,
                encoding,
                data,
                ..
            } => {
                self.metrics.delta_updates += 1;
                match self.cache.get(&key).map(|entry| entry.version) {
                    Some(have) if trust_bookkeeping || have == *base => {
                        // The base leaves the cache and the delta edits it
                        // in place: no copy of a large base for a small
                        // edit, no line vectors, no parsed-script
                        // allocation. The payload's codec picks the
                        // decoder the client's classifier chose.
                        let taken = self.cache.remove(&key).ok_or("file not cached");
                        base_taken = taken.is_ok();
                        let max_len = self.cache.budget();
                        taken.and_then(|entry| {
                            let delta_bytes = Self::decode_payload(*encoding, data)?;
                            let applied =
                                apply_codec(*codec, entry.content, &delta_bytes, max_len)?;
                            applied_script = Some((have, *codec, delta_bytes));
                            Ok(Bytes::from(applied))
                        })
                    }
                    Some(_) => Err("delta base version not cached"),
                    None => Err("file not cached"),
                }
            }
        };
        // The new content is digested once: the same digest verifies it,
        // goes into the journal record and into the cache entry.
        let content = content.and_then(|c| {
            let digest = ContentDigest::of(&c);
            if trust_bookkeeping || digest == expected_digest {
                Ok((c, digest))
            } else {
                Err("content digest mismatch")
            }
        });
        match content {
            Ok((content, digest)) => {
                // Build the journal record before the content moves into
                // the cache. A cleanly applied delta is archived as the
                // delta itself; everything else as full content. The
                // digest is of the *actual* result so replay can verify
                // its own re-application.
                let record = match applied_script {
                    Some((base, codec, script)) => PersistRecord::CacheDelta {
                        key,
                        version,
                        base,
                        codec,
                        script,
                        digest,
                    },
                    None => PersistRecord::CacheFull {
                        key,
                        version,
                        content: content.clone(),
                    },
                };
                for victim in self.cache.insert_digested(key, version, content, digest) {
                    actions.push(ServerAction::Persist(PersistRecord::CacheRemove {
                        key: victim,
                    }));
                }
                if self.cache.version_of(&key) == Some(version) {
                    actions.push(ServerAction::Persist(record));
                } else {
                    // The insertion was rejected (content alone exceeds
                    // the budget) and any prior entry is gone with it.
                    actions.push(ServerAction::Persist(PersistRecord::CacheRemove { key }));
                }
                actions.push(ServerAction::Send {
                    session,
                    message: ServerMessage::VersionAck {
                        file: key.file,
                        version,
                    },
                });
                self.check_waiting_jobs(now_ms, actions);
            }
            Err(_reason) => {
                // Best-effort recovery: ask for the whole file.
                self.metrics.update_failures += 1;
                if self.cache.remove(&key).is_some() || base_taken {
                    actions.push(ServerAction::Persist(PersistRecord::CacheRemove { key }));
                }
                self.in_flight.insert(key, version);
                self.metrics.update_requests += 1;
                actions.push(ServerAction::Send {
                    session,
                    message: ServerMessage::UpdateRequest {
                        file: key.file,
                        have: None,
                    },
                });
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_submit(
        &mut self,
        session: SessionId,
        sess: &Session,
        request: shadow_proto::RequestId,
        job_file: FileId,
        job_version: VersionNumber,
        data_files: Vec<(FileId, VersionNumber)>,
        options: SubmitOptions,
        now_ms: u64,
        actions: &mut Vec<ServerAction>,
    ) {
        self.next_job += 1;
        let id = JobId::new(self.next_job);
        let job = Job {
            id,
            session,
            domain: sess.domain,
            client_host: sess.host.clone(),
            job_file: (job_file, job_version),
            data_files,
            options,
            phase: JobPhase::WaitingForFiles,
            fetch_attempts: std::collections::BTreeMap::new(),
            submitted_at_ms: now_ms,
            files_ready_at_ms: None,
            started_at_ms: None,
        };
        actions.push(ServerAction::Send {
            session,
            message: ServerMessage::SubmitAck { request, job: id },
        });
        // Missing files are demanded by `check_waiting_jobs` ("the updates
        // for the files involved may be obtained in the background even
        // before a submit request is received" — and now if they were not).
        self.jobs.insert(job);
        self.check_waiting_jobs(now_ms, actions);
    }

    /// Re-requests a waiting job's missing file before giving up on it —
    /// bounds the eviction ping-pong of a cache too small for the job.
    const MAX_FETCH_ATTEMPTS: u32 = 4;

    /// Promotes waiting jobs whose files are all cached, (re-)requests the
    /// files still missing, fails jobs whose files can never stick, then
    /// fills idle batch slots.
    fn check_waiting_jobs(&mut self, now_ms: u64, actions: &mut Vec<ServerAction>) {
        let mut to_fail = Vec::new();
        for id in self.jobs.waiting_ids() {
            let (domain, missing): (DomainId, Vec<(FileId, VersionNumber)>) = {
                let job = self.jobs.get(id).expect("listed job exists");
                (
                    job.domain,
                    job.required_files()
                        .filter(|(f, v)| {
                            self.cache
                                .version_of(&FileKey::new(job.domain, *f))
                                .is_none_or(|have| have < *v)
                        })
                        .collect(),
                )
            };
            if missing.is_empty() {
                let job = self.jobs.get_mut(id).expect("listed job exists");
                job.phase = JobPhase::Queued;
                job.files_ready_at_ms = Some(now_ms);
                continue;
            }
            if !self.config.flow.is_demand_driven() {
                // Request-driven clients push everything ahead of the
                // submit; a missing file here means the cache rejected or
                // lost it and no pull is possible.
                to_fail.push((id, missing[0].0));
                continue;
            }
            for (file, version) in missing {
                let key = FileKey::new(domain, file);
                if self.in_flight.get(&key).is_some_and(|&v| v >= version) {
                    continue; // a pull is already outstanding
                }
                let attempts = {
                    let job = self.jobs.get_mut(id).expect("listed job exists");
                    let a = job.fetch_attempts.entry(file).or_insert(0);
                    *a += 1;
                    *a
                };
                if attempts > Self::MAX_FETCH_ATTEMPTS {
                    to_fail.push((id, file));
                    break;
                }
                self.request_update(key, version, actions);
            }
        }
        for (id, file) in to_fail {
            self.fail_job(
                id,
                &format!("required shadow file {file} cannot be retained in the cache"),
                now_ms,
                actions,
            );
        }
        self.fill_slots(now_ms, actions);
    }

    /// Terminates a job that can never run, delivering an error report.
    fn fail_job(&mut self, id: JobId, reason: &str, now_ms: u64, actions: &mut Vec<ServerAction>) {
        let Some(job) = self.jobs.get_mut(id) else {
            return;
        };
        job.phase = JobPhase::Failed;
        self.metrics.jobs_completed += 1;
        let job = self.jobs.get(id).expect("job exists");
        let stats = JobStats {
            queued_ms: 0,
            waiting_ms: now_ms.saturating_sub(job.submitted_at_ms),
            running_ms: 0,
            output_bytes: 0,
            exit_code: 1,
        };
        let target = if self.sessions.contains_key(&job.session) {
            Some(job.session)
        } else {
            self.hosts.get(&job.client_host).copied()
        };
        if let Some(session) = target {
            actions.push(ServerAction::Send {
                session,
                message: ServerMessage::JobComplete {
                    job: id,
                    output: OutputPayload::Full {
                        encoding: TransferEncoding::Identity,
                        data: Bytes::new(),
                    },
                    errors: Bytes::from(format!("job aborted: {reason}\n")),
                    stats,
                },
            });
        }
    }

    fn fill_slots(&mut self, now_ms: u64, actions: &mut Vec<ServerAction>) {
        while self.jobs.running_count() < self.config.max_running {
            let Some(id) = self.jobs.next_queued() else {
                break;
            };
            self.start_job(id, now_ms, actions);
        }
    }

    /// Runs the interpreter (deterministically) and schedules the
    /// completion timer for the simulated runtime.
    fn start_job(&mut self, id: JobId, now_ms: u64, actions: &mut Vec<ServerAction>) {
        let (domain, job_file) = {
            let job = self.jobs.get(id).expect("queued job exists");
            (job.domain, job.job_file.0)
        };
        let command_file = self
            .cache
            .peek(&FileKey::new(domain, job_file))
            .map(|e| e.content.clone())
            .unwrap_or_default();
        // Resolve names through the mapping directory, then the cache.
        let directory = &self.directory;
        let cache = &self.cache;
        // The job reads the cached bytes in place: each lookup costs a
        // reference count, not a copy.
        let resolve = |name: &str| -> Option<Bytes> {
            let file = directory.file_by_name(domain, name)?;
            cache
                .peek(&FileKey::new(domain, file))
                .map(|e| e.content.clone())
        };
        let outcome = run_job(&command_file, &resolve);
        let runtime_ms = self.config.exec.job_overhead_ms
            + outcome.cpu_bytes * 1_000 / self.config.exec.cpu_byte_rate.max(1);
        let job = self.jobs.get_mut(id).expect("queued job exists");
        job.started_at_ms = Some(now_ms);
        job.phase = JobPhase::Running { outcome };
        actions.push(ServerAction::SetTimer {
            delay_ms: runtime_ms,
            token: TimerToken::JobDone(id),
        });
    }

    fn on_timer(&mut self, token: TimerToken, now_ms: u64, actions: &mut Vec<ServerAction>) {
        match token {
            TimerToken::JobDone(id) => self.finish_job(id, now_ms, actions),
            TimerToken::FetchPulse => {
                self.pulse_armed = false;
                let postponed = std::mem::take(&mut self.postponed);
                for (key, version) in postponed {
                    self.consider_pull(key, version, actions);
                }
                if !self.postponed.is_empty() && !self.pulse_armed {
                    self.pulse_armed = true;
                    actions.push(ServerAction::SetTimer {
                        delay_ms: 1_000,
                        token: TimerToken::FetchPulse,
                    });
                }
            }
        }
    }

    fn finish_job(&mut self, id: JobId, now_ms: u64, actions: &mut Vec<ServerAction>) {
        let Some(job) = self.jobs.get_mut(id) else {
            return;
        };
        let JobPhase::Running { outcome } = std::mem::replace(&mut job.phase, JobPhase::Completed)
        else {
            return;
        };
        job.phase = if outcome.exit_code == 0 {
            JobPhase::Completed
        } else {
            JobPhase::Failed
        };
        self.metrics.jobs_completed += 1;

        // Index the output once; the reverse-shadow diff, the cache
        // record, the payload, and the digest all share this one buffer
        // (DocBuf clones are O(1)).
        let output_buf = DocBuf::from_bytes(outcome.output);

        let job = self.jobs.get(id).expect("job exists");
        let stats = JobStats {
            queued_ms: job
                .started_at_ms
                .unwrap_or(now_ms)
                .saturating_sub(job.files_ready_at_ms.unwrap_or(job.submitted_at_ms)),
            waiting_ms: job
                .files_ready_at_ms
                .unwrap_or(now_ms)
                .saturating_sub(job.submitted_at_ms),
            running_ms: now_ms.saturating_sub(job.started_at_ms.unwrap_or(now_ms)),
            output_bytes: output_buf.byte_len() as u64,
            exit_code: outcome.exit_code,
        };

        // Reverse shadow processing (§8.3): diff the pre-indexed cached
        // base against the fresh output, reusing the server's scratch.
        let domain = job.domain;
        let job_file = job.job_file.0;
        let shadow_output = job.options.shadow_output && outcome.exit_code == 0;
        let output_payload = if shadow_output {
            match self.outputs.base_for(domain, job_file) {
                Some((base_job, base_output)) => {
                    // The classifier picks the codec for outputs exactly
                    // as the client does for inputs: chunk deltas for
                    // binary or line-hostile output, ed scripts for text.
                    let (codec, delta_bytes) = if choose_chunk_codec(base_output, &output_buf) {
                        let mut out = Vec::new();
                        chunk_delta_into(
                            base_output.as_bytes(),
                            output_buf.as_bytes(),
                            &mut self.diff_scratch,
                            &mut out,
                        );
                        (DeltaCodec::Chunk, out)
                    } else {
                        let script = diff_docs(
                            DiffAlgorithm::HuntMcIlroy,
                            base_output,
                            &output_buf,
                            &mut self.diff_scratch,
                        );
                        (DeltaCodec::Line, script.to_text())
                    };
                    if delta_bytes.len() < output_buf.byte_len() {
                        self.metrics.output_deltas += 1;
                        OutputPayload::Delta {
                            base_job,
                            codec,
                            encoding: TransferEncoding::Identity,
                            data: Bytes::from(delta_bytes),
                            digest: ContentDigest::of(output_buf.as_bytes()),
                        }
                    } else {
                        OutputPayload::Full {
                            encoding: TransferEncoding::Identity,
                            data: Bytes::from(output_buf.as_bytes().to_vec()),
                        }
                    }
                }
                None => OutputPayload::Full {
                    encoding: TransferEncoding::Identity,
                    data: Bytes::from(output_buf.as_bytes().to_vec()),
                },
            }
        } else {
            OutputPayload::Full {
                encoding: TransferEncoding::Identity,
                data: Bytes::from(output_buf.as_bytes().to_vec()),
            }
        };
        if shadow_output {
            actions.push(ServerAction::Persist(PersistRecord::Output {
                domain,
                job_file,
                job: id,
                content: Bytes::from(output_buf.as_bytes().to_vec()),
            }));
            self.outputs.record(domain, job_file, id, output_buf);
        }

        // Output routing (§8.3): deliver to the requested host when it has
        // a live session, else to the submitter.
        let target = job
            .options
            .deliver_to
            .as_ref()
            .and_then(|h| self.hosts.get(h).copied())
            .or_else(|| {
                if self.sessions.contains_key(&job.session) {
                    Some(job.session)
                } else {
                    self.hosts.get(&job.client_host).copied()
                }
            });
        if let Some(session) = target {
            actions.push(ServerAction::Send {
                session,
                message: ServerMessage::JobComplete {
                    job: id,
                    output: output_payload,
                    errors: Bytes::from(outcome.errors),
                    stats,
                },
            });
        }
        // A slot freed up.
        self.fill_slots(now_ms, actions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ServerEvent;

    const NOW: u64 = 1_000;

    /// The Hunt–McIlroy line script turning `old` into `new`.
    fn line_script(old: &[u8], new: &[u8]) -> Vec<u8> {
        diff_docs(
            DiffAlgorithm::HuntMcIlroy,
            &DocBuf::from_bytes(old.to_vec()),
            &DocBuf::from_bytes(new.to_vec()),
            &mut DiffScratch::new(),
        )
        .to_text()
    }

    fn hello(server: &mut ServerNode, session: u64, domain: u64, host: &str) -> Vec<ServerAction> {
        server.handle(ServerEvent::Message {
            session: SessionId::new(session),
            message: ClientMessage::Hello {
                domain: DomainId::new(domain),
                host: HostName::new(host),
                protocol: PROTOCOL_VERSION,
                epoch: 0,
                resume: Vec::new(),
            },
            now_ms: NOW,
        })
    }

    fn resume_hello(
        server: &mut ServerNode,
        session: u64,
        domain: u64,
        host: &str,
        epoch: u64,
        resume: Vec<shadow_proto::ResumeEntry>,
    ) -> Vec<ServerAction> {
        server.handle(ServerEvent::Message {
            session: SessionId::new(session),
            message: ClientMessage::Hello {
                domain: DomainId::new(domain),
                host: HostName::new(host),
                protocol: PROTOCOL_VERSION,
                epoch,
                resume,
            },
            now_ms: NOW,
        })
    }

    fn notify(
        server: &mut ServerNode,
        session: u64,
        file: u64,
        name: &str,
        version: u64,
        content: &[u8],
    ) -> Vec<ServerAction> {
        server.handle(ServerEvent::Message {
            session: SessionId::new(session),
            message: ClientMessage::NotifyVersion {
                file: FileId::new(file),
                name: name.to_string(),
                version: VersionNumber::new(version),
                size: content.len() as u64,
                digest: ContentDigest::of(content),
            },
            now_ms: NOW,
        })
    }

    fn full_update(
        server: &mut ServerNode,
        session: u64,
        file: u64,
        version: u64,
        content: &[u8],
    ) -> Vec<ServerAction> {
        server.handle(ServerEvent::Message {
            session: SessionId::new(session),
            message: ClientMessage::Update {
                file: FileId::new(file),
                version: VersionNumber::new(version),
                payload: UpdatePayload::Full {
                    encoding: TransferEncoding::Identity,
                    data: Bytes::from(content.to_vec()),
                    digest: ContentDigest::of(content),
                },
            },
            now_ms: NOW,
        })
    }

    fn sends(actions: &[ServerAction]) -> Vec<&ServerMessage> {
        actions
            .iter()
            .filter_map(|a| match a {
                ServerAction::Send { message, .. } => Some(message),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn hello_is_acknowledged() {
        let mut server = ServerNode::new(ServerConfig::new("sc"));
        let actions = hello(&mut server, 1, 1, "ws1");
        assert!(matches!(
            sends(&actions)[..],
            [ServerMessage::HelloAck { .. }]
        ));
    }

    #[test]
    fn eager_flow_pulls_on_notify() {
        let mut server = ServerNode::new(ServerConfig::new("sc"));
        hello(&mut server, 1, 1, "ws1");
        let actions = notify(&mut server, 1, 7, "/f", 1, b"content");
        match sends(&actions)[..] {
            [ServerMessage::UpdateRequest { file, have }] => {
                assert_eq!(*file, FileId::new(7));
                assert_eq!(*have, None);
            }
            ref other => panic!("expected UpdateRequest, got {other:?}"),
        }
        // A second notify of the same version does not duplicate the pull.
        let actions = notify(&mut server, 1, 7, "/f", 1, b"content");
        assert!(sends(&actions).is_empty());
    }

    #[test]
    fn lazy_flow_pulls_only_on_submit() {
        let mut server =
            ServerNode::new(ServerConfig::new("sc").with_flow(FlowControl::DemandLazy));
        hello(&mut server, 1, 1, "ws1");
        let actions = notify(&mut server, 1, 7, "/f", 1, b"content");
        assert!(sends(&actions).is_empty());
        let actions = server.handle(ServerEvent::Message {
            session: SessionId::new(1),
            message: ClientMessage::Submit {
                request: shadow_proto::RequestId::new(1),
                job_file: FileId::new(7),
                job_version: VersionNumber::FIRST,
                data_files: vec![],
                options: SubmitOptions::default(),
            },
            now_ms: NOW,
        });
        let msgs = sends(&actions);
        assert!(matches!(msgs[0], ServerMessage::SubmitAck { .. }));
        assert!(matches!(msgs[1], ServerMessage::UpdateRequest { .. }));
    }

    #[test]
    fn full_update_is_cached_and_acked() {
        let mut server = ServerNode::new(ServerConfig::new("sc"));
        hello(&mut server, 1, 1, "ws1");
        notify(&mut server, 1, 7, "/f", 1, b"hello");
        let actions = full_update(&mut server, 1, 7, 1, b"hello");
        assert!(matches!(
            sends(&actions)[..],
            [ServerMessage::VersionAck { .. }]
        ));
        let key = FileKey::new(DomainId::new(1), FileId::new(7));
        assert_eq!(server.cached_version(key), Some(VersionNumber::FIRST));
        assert_eq!(server.report().counter("server", "full_updates"), 1);
    }

    #[test]
    fn delta_update_applies_against_cached_base() {
        let mut server = ServerNode::new(ServerConfig::new("sc"));
        hello(&mut server, 1, 1, "ws1");
        notify(&mut server, 1, 7, "/f", 1, b"a\nb\nc\n");
        full_update(&mut server, 1, 7, 1, b"a\nb\nc\n");

        let new_content = b"a\nB\nc\n";
        let script = line_script(b"a\nb\nc\n", new_content);
        let actions = server.handle(ServerEvent::Message {
            session: SessionId::new(1),
            message: ClientMessage::Update {
                file: FileId::new(7),
                version: VersionNumber::new(2),
                payload: UpdatePayload::Delta {
                    base: VersionNumber::new(1),
                    codec: DeltaCodec::Line,
                    encoding: TransferEncoding::Identity,
                    data: Bytes::from(script),
                    digest: ContentDigest::of(new_content),
                },
            },
            now_ms: NOW,
        });
        assert!(matches!(
            sends(&actions)[..],
            [ServerMessage::VersionAck { .. }]
        ));
        let key = FileKey::new(DomainId::new(1), FileId::new(7));
        assert_eq!(server.cached_version(key), Some(VersionNumber::new(2)));
        assert_eq!(server.report().counter("server", "delta_updates"), 1);
    }

    #[test]
    fn corrupt_delta_triggers_full_fallback() {
        let mut server = ServerNode::new(ServerConfig::new("sc"));
        hello(&mut server, 1, 1, "ws1");
        notify(&mut server, 1, 7, "/f", 1, b"a\nb\n");
        full_update(&mut server, 1, 7, 1, b"a\nb\n");
        let actions = server.handle(ServerEvent::Message {
            session: SessionId::new(1),
            message: ClientMessage::Update {
                file: FileId::new(7),
                version: VersionNumber::new(2),
                payload: UpdatePayload::Delta {
                    base: VersionNumber::new(1),
                    codec: DeltaCodec::Line,
                    encoding: TransferEncoding::Identity,
                    data: Bytes::from_static(b"1c\nX\n.\nw\n"),
                    digest: ContentDigest::of(b"not what the script makes"),
                },
            },
            now_ms: NOW,
        });
        match sends(&actions)[..] {
            [ServerMessage::UpdateRequest { have, .. }] => assert_eq!(*have, None),
            ref other => panic!("expected full-transfer request, got {other:?}"),
        }
        assert_eq!(server.report().counter("server", "update_failures"), 1);
    }

    #[test]
    fn delta_against_missing_base_requests_full() {
        let mut server = ServerNode::new(ServerConfig::new("sc"));
        hello(&mut server, 1, 1, "ws1");
        notify(&mut server, 1, 7, "/f", 2, b"x\n");
        let actions = server.handle(ServerEvent::Message {
            session: SessionId::new(1),
            message: ClientMessage::Update {
                file: FileId::new(7),
                version: VersionNumber::new(2),
                payload: UpdatePayload::Delta {
                    base: VersionNumber::new(1),
                    codec: DeltaCodec::Line,
                    encoding: TransferEncoding::Identity,
                    data: Bytes::from_static(b"w\n"),
                    digest: ContentDigest::of(b"x\n"),
                },
            },
            now_ms: NOW,
        });
        match sends(&actions)[..] {
            [ServerMessage::UpdateRequest { have, .. }] => assert_eq!(*have, None),
            ref other => panic!("expected full-transfer request, got {other:?}"),
        }
    }

    /// Runs a complete submit → execute → complete conversation.
    fn run_echo_job(server: &mut ServerNode) -> Vec<ServerAction> {
        hello(server, 1, 1, "ws1");
        notify(server, 1, 1, "/job.cmd", 1, b"echo hi\n");
        full_update(server, 1, 1, 1, b"echo hi\n");
        let actions = server.handle(ServerEvent::Message {
            session: SessionId::new(1),
            message: ClientMessage::Submit {
                request: shadow_proto::RequestId::new(9),
                job_file: FileId::new(1),
                job_version: VersionNumber::FIRST,
                data_files: vec![],
                options: SubmitOptions::default(),
            },
            now_ms: NOW,
        });
        // Submit ack + the completion timer.
        let timer = actions
            .iter()
            .find_map(|a| match a {
                ServerAction::SetTimer { delay_ms, token } => Some((*delay_ms, *token)),
                _ => None,
            })
            .expect("job completion timer");
        server.handle(ServerEvent::Timer {
            token: timer.1,
            now_ms: NOW + timer.0,
        })
    }

    #[test]
    fn job_lifecycle_delivers_output() {
        let mut server = ServerNode::new(ServerConfig::new("sc"));
        let actions = run_echo_job(&mut server);
        match sends(&actions)[..] {
            [ServerMessage::JobComplete { output, stats, .. }] => {
                match output {
                    OutputPayload::Full { data, .. } => assert_eq!(&data[..], b"hi\n"),
                    other => panic!("expected full output, got {other:?}"),
                }
                assert_eq!(stats.exit_code, 0);
                assert!(stats.running_ms >= 500); // job overhead
            }
            ref other => panic!("expected JobComplete, got {other:?}"),
        }
        assert_eq!(server.report().counter("server", "jobs_completed"), 1);
    }

    #[test]
    fn status_query_reports_pending_jobs() {
        let mut server = ServerNode::new(ServerConfig::new("sc"));
        hello(&mut server, 1, 1, "ws1");
        notify(&mut server, 1, 1, "/job.cmd", 1, b"compute 100000000\n");
        full_update(&mut server, 1, 1, 1, b"compute 100000000\n");
        server.handle(ServerEvent::Message {
            session: SessionId::new(1),
            message: ClientMessage::Submit {
                request: shadow_proto::RequestId::new(1),
                job_file: FileId::new(1),
                job_version: VersionNumber::FIRST,
                data_files: vec![],
                options: SubmitOptions::default(),
            },
            now_ms: NOW,
        });
        let actions = server.handle(ServerEvent::Message {
            session: SessionId::new(1),
            message: ClientMessage::StatusQuery {
                request: shadow_proto::RequestId::new(2),
                job: None,
            },
            now_ms: NOW + 1,
        });
        match sends(&actions)[..] {
            [ServerMessage::StatusReport { entries, .. }] => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].status, JobStatus::Running);
            }
            ref other => panic!("expected StatusReport, got {other:?}"),
        }
    }

    #[test]
    fn status_of_unknown_job_is_unknown() {
        let mut server = ServerNode::new(ServerConfig::new("sc"));
        hello(&mut server, 1, 1, "ws1");
        let actions = server.handle(ServerEvent::Message {
            session: SessionId::new(1),
            message: ClientMessage::StatusQuery {
                request: shadow_proto::RequestId::new(2),
                job: Some(JobId::new(99)),
            },
            now_ms: NOW,
        });
        match sends(&actions)[..] {
            [ServerMessage::StatusReport { entries, .. }] => {
                assert_eq!(entries[0].status, JobStatus::Unknown);
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn submit_without_hello_is_rejected() {
        let mut server = ServerNode::new(ServerConfig::new("sc"));
        let actions = server.handle(ServerEvent::Message {
            session: SessionId::new(5),
            message: ClientMessage::Submit {
                request: shadow_proto::RequestId::new(1),
                job_file: FileId::new(1),
                job_version: VersionNumber::FIRST,
                data_files: vec![],
                options: SubmitOptions::default(),
            },
            now_ms: NOW,
        });
        assert!(matches!(
            sends(&actions)[..],
            [ServerMessage::SubmitError { .. }]
        ));
    }

    #[test]
    fn job_waits_for_missing_files_then_runs() {
        let mut server = ServerNode::new(ServerConfig::new("sc"));
        hello(&mut server, 1, 1, "ws1");
        notify(&mut server, 1, 1, "/job.cmd", 1, b"cat /data\n");
        notify(&mut server, 1, 2, "/data", 1, b"payload\n");
        // Answer only the job-file pull first.
        full_update(&mut server, 1, 1, 1, b"cat /data\n");
        let actions = server.handle(ServerEvent::Message {
            session: SessionId::new(1),
            message: ClientMessage::Submit {
                request: shadow_proto::RequestId::new(1),
                job_file: FileId::new(1),
                job_version: VersionNumber::FIRST,
                data_files: vec![(FileId::new(2), VersionNumber::FIRST)],
                options: SubmitOptions::default(),
            },
            now_ms: NOW,
        });
        // No completion timer yet: the data file is missing.
        assert!(!actions.iter().any(|a| matches!(
            a,
            ServerAction::SetTimer {
                token: TimerToken::JobDone(_),
                ..
            }
        )));
        // Deliver the data file; the job should start now.
        let actions = full_update(&mut server, 1, 2, 1, b"payload\n");
        let timer = actions
            .iter()
            .find_map(|a| match a {
                ServerAction::SetTimer {
                    delay_ms,
                    token: TimerToken::JobDone(j),
                } => Some((*delay_ms, *j)),
                _ => None,
            })
            .expect("job starts once files are present");
        let actions = server.handle(ServerEvent::Timer {
            token: TimerToken::JobDone(timer.1),
            now_ms: NOW + timer.0,
        });
        match sends(&actions)[..] {
            [ServerMessage::JobComplete { output, .. }] => match output {
                OutputPayload::Full { data, .. } => assert_eq!(&data[..], b"payload\n"),
                other => panic!("unexpected output {other:?}"),
            },
            ref other => panic!("expected JobComplete, got {other:?}"),
        }
    }

    #[test]
    fn reverse_shadow_sends_output_delta_on_second_run() {
        let mut server = ServerNode::new(ServerConfig::new("sc"));
        hello(&mut server, 1, 1, "ws1");
        notify(&mut server, 1, 1, "/job.cmd", 1, b"gen 200 row\n");
        full_update(&mut server, 1, 1, 1, b"gen 200 row\n");
        let options = SubmitOptions {
            shadow_output: true,
            ..SubmitOptions::default()
        };
        // First run: full output.
        let actions = server.handle(ServerEvent::Message {
            session: SessionId::new(1),
            message: ClientMessage::Submit {
                request: shadow_proto::RequestId::new(1),
                job_file: FileId::new(1),
                job_version: VersionNumber::FIRST,
                data_files: vec![],
                options: options.clone(),
            },
            now_ms: NOW,
        });
        let (delay, token) = actions
            .iter()
            .find_map(|a| match a {
                ServerAction::SetTimer { delay_ms, token } => Some((*delay_ms, *token)),
                _ => None,
            })
            .unwrap();
        let actions = server.handle(ServerEvent::Timer {
            token,
            now_ms: NOW + delay,
        });
        let first_job = match sends(&actions)[..] {
            [ServerMessage::JobComplete { job, output, .. }] => {
                assert!(!output.is_delta());
                *job
            }
            ref other => panic!("unexpected {other:?}"),
        };
        // The client acknowledges holding the output.
        server.handle(ServerEvent::Message {
            session: SessionId::new(1),
            message: ClientMessage::OutputAck { job: first_job },
            now_ms: NOW + delay + 1,
        });
        // Second run of the same job: output identical, delta tiny.
        let actions = server.handle(ServerEvent::Message {
            session: SessionId::new(1),
            message: ClientMessage::Submit {
                request: shadow_proto::RequestId::new(2),
                job_file: FileId::new(1),
                job_version: VersionNumber::FIRST,
                data_files: vec![],
                options,
            },
            now_ms: NOW + delay + 2,
        });
        let (delay2, token2) = actions
            .iter()
            .find_map(|a| match a {
                ServerAction::SetTimer { delay_ms, token } => Some((*delay_ms, *token)),
                _ => None,
            })
            .unwrap();
        let actions = server.handle(ServerEvent::Timer {
            token: token2,
            now_ms: NOW + delay + 2 + delay2,
        });
        match sends(&actions)[..] {
            [ServerMessage::JobComplete { output, .. }] => {
                assert!(output.is_delta(), "second run should send an output delta");
                assert!(output.data_len() < 100);
            }
            ref other => panic!("unexpected {other:?}"),
        }
        assert_eq!(server.report().counter("server", "output_deltas"), 1);
    }

    #[test]
    fn output_routing_prefers_deliver_to_host() {
        let mut server = ServerNode::new(ServerConfig::new("sc"));
        hello(&mut server, 1, 1, "ws1");
        hello(&mut server, 2, 1, "printer-host");
        notify(&mut server, 1, 1, "/job.cmd", 1, b"echo routed\n");
        full_update(&mut server, 1, 1, 1, b"echo routed\n");
        let actions = server.handle(ServerEvent::Message {
            session: SessionId::new(1),
            message: ClientMessage::Submit {
                request: shadow_proto::RequestId::new(1),
                job_file: FileId::new(1),
                job_version: VersionNumber::FIRST,
                data_files: vec![],
                options: SubmitOptions {
                    deliver_to: Some(HostName::new("printer-host")),
                    ..SubmitOptions::default()
                },
            },
            now_ms: NOW,
        });
        let (delay, token) = actions
            .iter()
            .find_map(|a| match a {
                ServerAction::SetTimer { delay_ms, token } => Some((*delay_ms, *token)),
                _ => None,
            })
            .unwrap();
        let actions = server.handle(ServerEvent::Timer {
            token,
            now_ms: NOW + delay,
        });
        match actions
            .iter()
            .find_map(|a| match a {
                ServerAction::Send { session, message } => Some((session, message)),
                _ => None,
            })
            .expect("a delivery")
        {
            (session, ServerMessage::JobComplete { .. }) => {
                assert_eq!(*session, SessionId::new(2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cache_drop_forces_full_retransfer_not_failure() {
        let mut server = ServerNode::new(ServerConfig::new("sc"));
        hello(&mut server, 1, 1, "ws1");
        notify(&mut server, 1, 7, "/f", 1, b"v1\n");
        full_update(&mut server, 1, 7, 1, b"v1\n");
        server.drop_cache();
        // The next notify finds no cached base: the pull asks for a full
        // copy (have = None).
        let actions = notify(&mut server, 1, 7, "/f", 2, b"v2\n");
        match sends(&actions)[..] {
            [ServerMessage::UpdateRequest { have, .. }] => assert_eq!(*have, None),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn request_driven_mode_never_pulls() {
        let mut server =
            ServerNode::new(ServerConfig::new("sc").with_flow(FlowControl::RequestDriven));
        hello(&mut server, 1, 1, "ws1");
        let actions = notify(&mut server, 1, 7, "/f", 1, b"x");
        assert!(sends(&actions).is_empty());
        assert_eq!(server.report().counter("server", "update_requests"), 0);
    }

    #[test]
    fn adaptive_flow_postpones_under_load() {
        let mut server = ServerNode::new(ServerConfig::new("sc").with_flow(
            FlowControl::DemandAdaptive {
                eager_queue_limit: 0,
                cache_pressure_limit: 0.9,
            },
        ));
        hello(&mut server, 1, 1, "ws1");
        // Create a pending job to push the queue over the limit.
        notify(&mut server, 1, 1, "/job.cmd", 1, b"compute 100000000\n");
        full_update(&mut server, 1, 1, 1, b"compute 100000000\n");
        server.handle(ServerEvent::Message {
            session: SessionId::new(1),
            message: ClientMessage::Submit {
                request: shadow_proto::RequestId::new(1),
                job_file: FileId::new(1),
                job_version: VersionNumber::FIRST,
                data_files: vec![],
                options: SubmitOptions::default(),
            },
            now_ms: NOW,
        });
        // Under load, a notify is postponed to the fetch pulse.
        let actions = notify(&mut server, 1, 9, "/data", 1, b"d");
        assert!(sends(&actions).is_empty());
        assert!(actions.iter().any(|a| matches!(
            a,
            ServerAction::SetTimer {
                token: TimerToken::FetchPulse,
                ..
            }
        )));
    }

    fn persists(actions: &[ServerAction]) -> Vec<PersistRecord> {
        actions
            .iter()
            .filter_map(|a| match a {
                ServerAction::Persist(r) => Some(r.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn full_update_persists_full_record_and_delta_persists_the_script() {
        let mut server = ServerNode::new(ServerConfig::new("sc"));
        hello(&mut server, 1, 1, "ws1");
        notify(&mut server, 1, 7, "/f", 1, b"a\nb\nc\n");
        let records = persists(&full_update(&mut server, 1, 7, 1, b"a\nb\nc\n"));
        assert!(matches!(
            records[..],
            [PersistRecord::CacheFull { version, .. }] if version == VersionNumber::FIRST
        ));

        let new_content = b"a\nB\nc\n";
        let script = line_script(b"a\nb\nc\n", new_content);
        let actions = server.handle(ServerEvent::Message {
            session: SessionId::new(1),
            message: ClientMessage::Update {
                file: FileId::new(7),
                version: VersionNumber::new(2),
                payload: UpdatePayload::Delta {
                    base: VersionNumber::new(1),
                    codec: DeltaCodec::Line,
                    encoding: TransferEncoding::Identity,
                    data: Bytes::from(script),
                    digest: ContentDigest::of(new_content),
                },
            },
            now_ms: NOW,
        });
        match &persists(&actions)[..] {
            [PersistRecord::CacheDelta {
                version,
                base,
                digest,
                ..
            }] => {
                assert_eq!(*version, VersionNumber::new(2));
                assert_eq!(*base, VersionNumber::FIRST);
                assert_eq!(*digest, ContentDigest::of(new_content));
            }
            other => panic!("expected one CacheDelta record, got {other:?}"),
        }
    }

    #[test]
    fn trusted_bookkeeping_still_records_the_actual_digest() {
        // With the seeded delta-base bug on, the server skips the digest
        // check, so the content it caches is not what the client named.
        // The journal record and the cache entry must still carry the
        // digest of what was actually cached, or replay would refuse it.
        let mut server = ServerNode::new(ServerConfig::new("sc"));
        server.set_faults(FaultInjection {
            delta_base_bug: true,
        });
        hello(&mut server, 1, 1, "ws1");
        notify(&mut server, 1, 7, "/f", 1, b"a\nb\nc\n");
        full_update(&mut server, 1, 7, 1, b"a\nb\nc\n");
        let actual = b"a\nB\nc\n";
        let actions = server.handle(ServerEvent::Message {
            session: SessionId::new(1),
            message: ClientMessage::Update {
                file: FileId::new(7),
                version: VersionNumber::new(3),
                payload: UpdatePayload::Delta {
                    base: VersionNumber::new(2),
                    codec: DeltaCodec::Line,
                    encoding: TransferEncoding::Identity,
                    data: Bytes::from(line_script(b"a\nb\nc\n", actual)),
                    digest: ContentDigest::of(b"not what the script makes"),
                },
            },
            now_ms: NOW,
        });
        match &persists(&actions)[..] {
            [PersistRecord::CacheDelta { digest, .. }] => {
                assert_eq!(*digest, ContentDigest::of(actual));
            }
            other => panic!("expected one CacheDelta record, got {other:?}"),
        }
        let key = FileKey::new(DomainId::new(1), FileId::new(7));
        assert_eq!(server.cached_digest(key), Some(ContentDigest::of(actual)));
    }

    #[test]
    fn failed_update_persists_the_removal() {
        let mut server = ServerNode::new(ServerConfig::new("sc"));
        hello(&mut server, 1, 1, "ws1");
        notify(&mut server, 1, 7, "/f", 1, b"a\nb\n");
        full_update(&mut server, 1, 7, 1, b"a\nb\n");
        let actions = server.handle(ServerEvent::Message {
            session: SessionId::new(1),
            message: ClientMessage::Update {
                file: FileId::new(7),
                version: VersionNumber::new(2),
                payload: UpdatePayload::Delta {
                    base: VersionNumber::new(1),
                    codec: DeltaCodec::Line,
                    encoding: TransferEncoding::Identity,
                    data: Bytes::from_static(b"1c\nX\n.\nw\n"),
                    digest: ContentDigest::of(b"not what the script makes"),
                },
            },
            now_ms: NOW,
        });
        let key = FileKey::new(DomainId::new(1), FileId::new(7));
        assert_eq!(persists(&actions), vec![PersistRecord::CacheRemove { key }]);
    }

    /// Deterministic binary content (xorshift bytes).
    fn binary(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect()
    }

    /// Sends version 2 of file 7 as a chunk delta over version 1.
    fn chunk_update(
        server: &mut ServerNode,
        wire: Vec<u8>,
        digest: ContentDigest,
    ) -> Vec<ServerAction> {
        server.handle(ServerEvent::Message {
            session: SessionId::new(1),
            message: ClientMessage::Update {
                file: FileId::new(7),
                version: VersionNumber::new(2),
                payload: UpdatePayload::Delta {
                    base: VersionNumber::new(1),
                    codec: DeltaCodec::Chunk,
                    encoding: TransferEncoding::Identity,
                    data: Bytes::from(wire),
                    digest,
                },
            },
            now_ms: NOW,
        })
    }

    /// A serialized chunk delta declaring `target_len` bytes, made of
    /// `(base_off, len)` copies.
    fn chunk_copies(target_len: u32, copies: &[(u32, u32)]) -> Vec<u8> {
        let mut wire = vec![shadow_diff::CHUNK_FORMAT_VERSION];
        wire.extend_from_slice(&target_len.to_le_bytes());
        for (off, len) in copies {
            wire.push(0);
            wire.extend_from_slice(&off.to_le_bytes());
            wire.extend_from_slice(&len.to_le_bytes());
        }
        wire
    }

    #[test]
    fn failed_chunk_updates_drop_the_base_and_ask_for_the_file() {
        // The base leaves the cache to be edited in place, so every way
        // the update can fail must journal its removal and fall back to
        // a full transfer (§5.1).
        let base = binary(4 << 20, 0xba5e);
        let mut target = base.clone();
        target[2 << 20..(2 << 20) + 1024].fill(0xee);
        let mut good = Vec::new();
        chunk_delta_into(&base, &target, &mut DiffScratch::new(), &mut good);
        let mib = 1u32 << 20;
        let cases = [
            ("wrong digest", good.clone(), ContentDigest::of(b"other")),
            (
                "copy out of range",
                chunk_copies(4 * mib, &[(mib, 4 * mib)]),
                ContentDigest::of(&target),
            ),
            (
                "~4 GiB declared in ~100 bytes",
                chunk_copies(u32::MAX - 7, &[(0, 4 * mib); 11]),
                ContentDigest::of(&target),
            ),
            (
                "well formed, above the 8 MiB cache budget",
                chunk_copies(12 * mib, &[(0, 4 * mib); 3]),
                ContentDigest::of(&target),
            ),
        ];
        let key = FileKey::new(DomainId::new(1), FileId::new(7));
        for (why, wire, digest) in cases {
            let mut server = ServerNode::new(ServerConfig::new("sc").with_cache_budget(8 << 20));
            hello(&mut server, 1, 1, "ws1");
            notify(&mut server, 1, 7, "/f", 1, &base);
            full_update(&mut server, 1, 7, 1, &base);
            let actions = chunk_update(&mut server, wire, digest);
            assert_eq!(
                persists(&actions),
                vec![PersistRecord::CacheRemove { key }],
                "{why}"
            );
            match sends(&actions)[..] {
                [ServerMessage::UpdateRequest { have, .. }] => assert_eq!(*have, None, "{why}"),
                ref other => panic!("{why}: expected a full-transfer request, got {other:?}"),
            }
            assert_eq!(server.cached_version(key), None, "{why}");
        }
    }

    #[test]
    fn a_cloned_node_keeps_its_base_when_the_original_applies_in_place() {
        let base = binary(300_000, 0xc10e);
        let mut target = base.clone();
        target[150_000..151_024].fill(0x5a);
        let mut server = ServerNode::new(ServerConfig::new("sc"));
        hello(&mut server, 1, 1, "ws1");
        notify(&mut server, 1, 7, "/f", 1, &base);
        drop(full_update(&mut server, 1, 7, 1, &base));
        let snapshot = server.clone();
        let mut wire = Vec::new();
        chunk_delta_into(&base, &target, &mut DiffScratch::new(), &mut wire);
        let actions = chunk_update(&mut server, wire, ContentDigest::of(&target));
        assert!(matches!(
            sends(&actions)[..],
            [ServerMessage::VersionAck { .. }]
        ));
        let content = |node: &ServerNode| match &node.snapshot(DomainId::new(1))[..] {
            [PersistRecord::CacheFull { content, .. }] => content.to_vec(),
            other => panic!("expected one cached file, got {other:?}"),
        };
        assert!(content(&server) == target);
        assert!(content(&snapshot) == base, "the clone's base was edited");
    }

    #[test]
    fn replaying_the_journal_rebuilds_the_cache() {
        let mut server = ServerNode::new(ServerConfig::new("sc"));
        hello(&mut server, 1, 1, "ws1");
        let mut journal = Vec::new();
        notify(&mut server, 1, 7, "/f", 1, b"a\nb\nc\n");
        journal.extend(persists(&full_update(&mut server, 1, 7, 1, b"a\nb\nc\n")));
        let new_content = b"a\nB\nc\n";
        let script = line_script(b"a\nb\nc\n", new_content);
        journal.extend(persists(&server.handle(ServerEvent::Message {
            session: SessionId::new(1),
            message: ClientMessage::Update {
                file: FileId::new(7),
                version: VersionNumber::new(2),
                payload: UpdatePayload::Delta {
                    base: VersionNumber::new(1),
                    codec: DeltaCodec::Line,
                    encoding: TransferEncoding::Identity,
                    data: Bytes::from(script),
                    digest: ContentDigest::of(new_content),
                },
            },
            now_ms: NOW,
        })));

        let mut restored = ServerNode::new(ServerConfig::new("sc"));
        let summary = restored.restore(&journal);
        assert_eq!(summary.applied, 2);
        assert_eq!(summary.skipped, 0);
        let key = FileKey::new(DomainId::new(1), FileId::new(7));
        assert_eq!(restored.cached_version(key), Some(VersionNumber::new(2)));
        assert_eq!(restored.cached_digest(key), server.cached_digest(key));
        assert_eq!(restored.report().counter("server", "restored_records"), 2);
    }

    #[test]
    fn broken_delta_chain_drops_the_key_instead_of_corrupting_it() {
        // A CacheDelta whose base record is missing (e.g. truncated away)
        // must not leave any version of the key behind.
        let key = FileKey::new(DomainId::new(1), FileId::new(7));
        let journal = vec![PersistRecord::CacheDelta {
            key,
            version: VersionNumber::new(2),
            base: VersionNumber::FIRST,
            codec: DeltaCodec::Line,
            script: Bytes::from_static(b"1c\nX\n.\nw\n"),
            digest: ContentDigest::of(b"X\n"),
        }];
        let mut restored = ServerNode::new(ServerConfig::new("sc"));
        let summary = restored.restore(&journal);
        assert_eq!(summary.applied, 0);
        assert_eq!(summary.skipped, 1);
        assert_eq!(restored.cached_version(key), None);
        assert_eq!(restored.report().counter("server", "restore_skipped"), 1);
    }

    #[test]
    fn restored_output_records_advance_the_job_counter() {
        let journal = vec![
            PersistRecord::Output {
                domain: DomainId::new(1),
                job_file: FileId::new(3),
                job: JobId::new(9),
                content: Bytes::from_static(b"out\n"),
            },
            PersistRecord::OutputAcked {
                domain: DomainId::new(1),
                job: JobId::new(9),
            },
        ];
        let mut restored = ServerNode::new(ServerConfig::new("sc"));
        restored.restore(&journal);
        hello(&mut restored, 1, 1, "ws1");
        notify(&mut restored, 1, 3, "/job.cmd", 1, b"noop\n");
        full_update(&mut restored, 1, 3, 1, b"noop\n");
        let actions = restored.handle(ServerEvent::Message {
            session: SessionId::new(1),
            message: ClientMessage::Submit {
                request: shadow_proto::RequestId::new(1),
                job_file: FileId::new(3),
                job_version: VersionNumber::FIRST,
                data_files: vec![],
                options: SubmitOptions::default(),
            },
            now_ms: NOW,
        });
        // The fresh job id must not collide with the restored base job 9.
        match sends(&actions)[..] {
            [ServerMessage::SubmitAck { job, .. }] => assert_eq!(*job, JobId::new(10)),
            ref other => panic!("expected SubmitAck, got {other:?}"),
        }
    }

    #[test]
    fn a_snapshot_keeps_the_job_counter_past_an_output_it_could_not_cache() {
        let config = ServerConfig::builder("sc")
            .output_shadow_budget(16)
            .build()
            .unwrap();
        let mut server = ServerNode::new(config.clone());
        server.restore(&[PersistRecord::Output {
            domain: DomainId::new(1),
            job_file: FileId::new(3),
            job: JobId::new(9),
            content: Bytes::from(vec![b'x'; 64]),
        }]);
        let snapshot = server.snapshot(DomainId::new(1));
        assert_eq!(
            snapshot,
            vec![PersistRecord::OutputAcked {
                domain: DomainId::new(1),
                job: JobId::new(9),
            }],
            "the oversized output is not cached, but its job id is kept"
        );
        let mut restored = ServerNode::new(config);
        restored.restore(&snapshot);
        assert_eq!(restored.snapshot(DomainId::new(1)), snapshot);
        hello(&mut restored, 1, 1, "ws1");
        notify(&mut restored, 1, 3, "/job.cmd", 1, b"noop\n");
        full_update(&mut restored, 1, 3, 1, b"noop\n");
        let actions = restored.handle(ServerEvent::Message {
            session: SessionId::new(1),
            message: ClientMessage::Submit {
                request: shadow_proto::RequestId::new(1),
                job_file: FileId::new(3),
                job_version: VersionNumber::FIRST,
                data_files: vec![],
                options: SubmitOptions::default(),
            },
            now_ms: NOW,
        });
        match sends(&actions)[..] {
            [ServerMessage::SubmitAck { job, .. }] => assert_eq!(*job, JobId::new(10)),
            ref other => panic!("expected SubmitAck, got {other:?}"),
        }
    }

    #[test]
    fn ping_is_answered_with_pong() {
        let mut server = ServerNode::new(ServerConfig::new("sc"));
        hello(&mut server, 1, 1, "ws1");
        let actions = server.handle(ServerEvent::Message {
            session: SessionId::new(1),
            message: ClientMessage::Ping { nonce: 77 },
            now_ms: NOW,
        });
        match sends(&actions)[..] {
            [ServerMessage::Pong { nonce }] => assert_eq!(*nonce, 77),
            ref other => panic!("expected Pong, got {other:?}"),
        }
        assert_eq!(server.report().counter("server", "pings_answered"), 1);
    }

    #[test]
    fn resume_confirms_cached_entries_and_degrades_the_rest() {
        let mut server = ServerNode::new(ServerConfig::new("sc"));
        hello(&mut server, 1, 1, "ws1");
        notify(&mut server, 1, 7, "/f", 1, b"kept\n");
        full_update(&mut server, 1, 7, 1, b"kept\n");
        server.handle(ServerEvent::Disconnected {
            session: SessionId::new(1),
            reason: CloseReason::Error,
            now_ms: NOW,
        });
        // The reconnecting client claims file 7 (correct) and file 8
        // (never cached here).
        let resume = vec![
            shadow_proto::ResumeEntry {
                file: FileId::new(7),
                version: VersionNumber::FIRST,
                digest: ContentDigest::of(b"kept\n"),
            },
            shadow_proto::ResumeEntry {
                file: FileId::new(8),
                version: VersionNumber::FIRST,
                digest: ContentDigest::of(b"lost\n"),
            },
        ];
        let actions = resume_hello(&mut server, 2, 1, "ws1", 1, resume);
        match sends(&actions)[..] {
            [ServerMessage::HelloAck {
                resumed, retained, ..
            }] => {
                assert!(*resumed);
                assert_eq!(retained[..], [(FileId::new(7), VersionNumber::FIRST)]);
            }
            ref other => panic!("expected HelloAck, got {other:?}"),
        }
        assert_eq!(server.report().counter("server", "sessions_resumed"), 1);
        assert_eq!(server.report().counter("server", "resume_hits"), 1);
        assert_eq!(server.report().counter("server", "resume_fallbacks"), 1);
        // The confirmed base keeps the delta path warm: a newer version
        // announced on the resumed session is pulled with have = v1.
        let actions = notify(&mut server, 2, 7, "/f", 2, b"kept more\n");
        match sends(&actions)[..] {
            [ServerMessage::UpdateRequest { have, .. }] => {
                assert_eq!(*have, Some(VersionNumber::FIRST));
            }
            ref other => panic!("expected UpdateRequest, got {other:?}"),
        }
    }

    #[test]
    fn resume_with_stale_digest_is_not_confirmed() {
        let mut server = ServerNode::new(ServerConfig::new("sc"));
        hello(&mut server, 1, 1, "ws1");
        notify(&mut server, 1, 7, "/f", 1, b"real\n");
        full_update(&mut server, 1, 7, 1, b"real\n");
        // Right version number, wrong digest: must not be trusted.
        let resume = vec![shadow_proto::ResumeEntry {
            file: FileId::new(7),
            version: VersionNumber::FIRST,
            digest: ContentDigest::of(b"tampered\n"),
        }];
        let actions = resume_hello(&mut server, 2, 1, "ws1", 1, resume);
        match sends(&actions)[..] {
            [ServerMessage::HelloAck { retained, .. }] => assert!(retained.is_empty()),
            ref other => panic!("expected HelloAck, got {other:?}"),
        }
        assert_eq!(server.report().counter("server", "resume_fallbacks"), 1);
    }

    #[test]
    fn disconnect_clears_in_flight_pulls_toward_the_dead_session() {
        let mut server = ServerNode::new(ServerConfig::new("sc"));
        hello(&mut server, 1, 1, "ws1");
        // The notify arms a pull that will never be answered.
        let actions = notify(&mut server, 1, 7, "/f", 1, b"x\n");
        assert!(matches!(
            sends(&actions)[..],
            [ServerMessage::UpdateRequest { .. }]
        ));
        server.handle(ServerEvent::Disconnected {
            session: SessionId::new(1),
            reason: CloseReason::Error,
            now_ms: NOW,
        });
        // After reconnecting, the same announcement must re-request
        // instead of being suppressed by the stale in-flight entry.
        hello(&mut server, 2, 1, "ws1");
        let actions = notify(&mut server, 2, 7, "/f", 1, b"x\n");
        assert!(matches!(
            sends(&actions)[..],
            [ServerMessage::UpdateRequest { .. }]
        ));
    }

    #[test]
    fn close_reasons_are_counted_once_per_session() {
        let mut server = ServerNode::new(ServerConfig::new("sc"));
        hello(&mut server, 1, 1, "ws1");
        // Orderly Bye, then the transport reap that follows it: one
        // clean close, not two.
        server.handle(ServerEvent::Message {
            session: SessionId::new(1),
            message: ClientMessage::Bye,
            now_ms: NOW,
        });
        server.handle(ServerEvent::Disconnected {
            session: SessionId::new(1),
            reason: CloseReason::Clean,
            now_ms: NOW,
        });
        assert_eq!(server.report().counter("server", "closed_clean"), 1);
        // A failed session counts under its own reason.
        hello(&mut server, 2, 1, "ws2");
        server.handle(ServerEvent::Disconnected {
            session: SessionId::new(2),
            reason: CloseReason::Error,
            now_ms: NOW,
        });
        assert_eq!(server.report().counter("server", "closed_error"), 1);
        hello(&mut server, 3, 1, "ws3");
        server.handle(ServerEvent::Disconnected {
            session: SessionId::new(3),
            reason: CloseReason::Idle,
            now_ms: NOW,
        });
        assert_eq!(server.report().counter("server", "closed_idle"), 1);
    }

    fn snapshot_key(file: u64) -> FileKey {
        FileKey::new(DomainId::new(3), FileId::new(file))
    }

    fn full_record(file: u64, version: u64, content: &str) -> PersistRecord {
        PersistRecord::CacheFull {
            key: snapshot_key(file),
            version: VersionNumber::new(version),
            content: Bytes::from(content.as_bytes().to_vec()),
        }
    }

    fn delta_record(file: u64, base: u64, version: u64, from: &str, to: &str) -> PersistRecord {
        PersistRecord::CacheDelta {
            key: snapshot_key(file),
            version: VersionNumber::new(version),
            base: VersionNumber::new(base),
            codec: DeltaCodec::Line,
            script: Bytes::from(line_script(from.as_bytes(), to.as_bytes())),
            digest: ContentDigest::of(to.as_bytes()),
        }
    }

    fn restored(records: &[PersistRecord]) -> (ServerNode, RestoreSummary) {
        let mut node = ServerNode::new(ServerConfig::new("sc"));
        let summary = node.restore(records);
        (node, summary)
    }

    #[test]
    fn chunk_delta_records_replay() {
        let base = vec![0x42u8; 50_000];
        let mut target = base.clone();
        target[25_000] = 0x43;
        let mut wire = Vec::new();
        chunk_delta_into(&base, &target, &mut DiffScratch::new(), &mut wire);
        let journal = [
            PersistRecord::CacheFull {
                key: snapshot_key(9),
                version: VersionNumber::new(1),
                content: Bytes::from(base.clone()),
            },
            PersistRecord::CacheDelta {
                key: snapshot_key(9),
                version: VersionNumber::new(2),
                base: VersionNumber::new(1),
                codec: DeltaCodec::Chunk,
                script: Bytes::from(wire),
                digest: ContentDigest::of(&target),
            },
        ];
        let (node, summary) = restored(&journal);
        // The delta was applied to a copy: the journal record still
        // holds the base it shares with the cache.
        assert!(
            matches!(&journal[0], PersistRecord::CacheFull { content, .. } if *content == base)
        );
        assert_eq!(
            summary,
            RestoreSummary {
                applied: 2,
                skipped: 0
            }
        );
        assert_eq!(
            node.snapshot(DomainId::new(3)),
            vec![PersistRecord::CacheFull {
                key: snapshot_key(9),
                version: VersionNumber::new(2),
                content: Bytes::from(target),
            }]
        );
    }

    #[test]
    fn delta_chains_collapse_to_one_full_record() {
        let (node, summary) = restored(&[
            full_record(1, 1, "a\nb\n"),
            delta_record(1, 1, 2, "a\nb\n", "a\nc\n"),
            delta_record(1, 2, 3, "a\nc\n", "a\nc\nd\n"),
        ]);
        assert_eq!(summary.skipped, 0);
        assert_eq!(
            node.snapshot(DomainId::new(3)),
            vec![full_record(1, 3, "a\nc\nd\n")]
        );
    }

    #[test]
    fn broken_chain_drops_the_key() {
        // A delta against a base the node does not hold.
        let (node, summary) = restored(&[
            full_record(1, 1, "a\n"),
            delta_record(1, 7, 8, "x\n", "y\n"),
        ]);
        assert_eq!(
            summary,
            RestoreSummary {
                applied: 1,
                skipped: 1
            }
        );
        assert!(node.snapshot(DomainId::new(3)).is_empty());
    }

    #[test]
    fn output_replacement_and_acks_materialize_in_order() {
        let output = |job_file: u64, job: u64, text: &str| PersistRecord::Output {
            domain: DomainId::new(3),
            job_file: FileId::new(job_file),
            job: JobId::new(job),
            content: Bytes::from(text.as_bytes().to_vec()),
        };
        let acked = |job: u64| PersistRecord::OutputAcked {
            domain: DomainId::new(3),
            job: JobId::new(job),
        };
        let (node, _) = restored(&[
            full_record(2, 1, "two\n"),
            full_record(1, 4, "one\n"),
            output(1, 10, "first\n"),
            output(2, 11, "second\n"),
            acked(10),
            acked(11),
            // A rerun of the same job file replaces the slot, clears the
            // ack and becomes the newest output.
            output(2, 12, "second again\n"),
            // Another domain's state stays out of this domain's snapshot.
            PersistRecord::CacheFull {
                key: FileKey::new(DomainId::new(4), FileId::new(1)),
                version: VersionNumber::FIRST,
                content: Bytes::from_static(b"elsewhere\n"),
            },
        ]);
        let snapshot = node.snapshot(DomainId::new(3));
        assert_eq!(
            snapshot,
            vec![
                full_record(1, 4, "one\n"),
                full_record(2, 1, "two\n"),
                output(1, 10, "first\n"),
                acked(10),
                output(2, 12, "second again\n"),
            ]
        );

        // Round trip: the snapshot rebuilds the same domain state.
        let (copy, summary) = restored(&snapshot);
        assert_eq!(summary.skipped, 0);
        assert_eq!(copy.snapshot(DomainId::new(3)), snapshot);
        assert!(copy.snapshot(DomainId::new(4)).is_empty());
        let (whole, _) = restored(&[snapshot.clone(), node.snapshot(DomainId::new(4))].concat());
        assert_eq!(
            whole.report().section("cache"),
            node.report().section("cache")
        );
    }
}

//! The checked world: one client, one server, and the frames in flight
//! between them, with every nondeterministic event an explicit
//! [`Choice`].
//!
//! The server is the production server loop, a [`Shard`] on a virtual
//! clock, fed [`ShardEvent`]s: the checker explores the shard's own
//! decode → persist → send → compact ordering, not a copy of it.
//!
//! The world advances only through [`World::apply`]; the explorer clones
//! a world to branch, so `World` is `Clone` — the shard's writer and its
//! model journal included, so no two branches share one — and its
//! [`state_digest`](World::state_digest) is the canonical identity used
//! to deduplicate states reached along different interleavings.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use shadow_client::{ClientConfig, ClientNode, ConnId, FileRef, Notification};
use shadow_obs::FlightRecorder;
use shadow_proto::{
    ContentDigest, DomainId, FileId, FileKey, Frame, PersistRecord, ServerMessage, StableHasher,
    VersionNumber,
};
use shadow_runtime::{
    ClientDriver, ClientOutbound, FeedError, PersistSink, Shard, ShardEvent, VirtualClock,
};
use shadow_server::{CloseReason, FaultInjection, ServerConfig, ServerNode, SessionId};

use crate::scenario::{content_for, Op, Scenario};

/// One nondeterministic step the environment can take.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Choice {
    /// Deliver the client→server frame at queue index `0..reorder_window`.
    DeliverToServer(usize),
    /// Deliver the server→client frame at queue index `0..reorder_window`.
    DeliverToClient(usize),
    /// Drop the head client→server frame (consumes drop budget).
    DropToServer,
    /// Drop the head server→client frame (consumes drop budget).
    DropToClient,
    /// Duplicate the head client→server frame (consumes dup budget); the
    /// copy re-enters at the back of the queue, modelling late redelivery.
    DupToServer,
    /// Duplicate the head server→client frame (consumes dup budget).
    DupToClient,
    /// Advance the clock to the server's next timer deadline and fire it.
    FireTimer,
    /// Execute the next scripted user operation.
    NextOp,
    /// Kill the server (in-memory state and in-flight frames lost),
    /// replay its journal into a fresh node, and re-handshake
    /// (consumes crash budget).
    CrashRestart,
    /// Arm a journal compaction: the server's next dispatch, after its
    /// persists, replaces the journal with the node's own
    /// `ServerNode::snapshot` of the domain, as the durable store does
    /// (consumes compaction budget).
    Compact,
    /// Cut the transport (in-flight frames lost, server state intact),
    /// then reconnect and run the resumption handshake (consumes
    /// disconnect budget).
    LinkDown,
}

impl fmt::Display for Choice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Choice::DeliverToServer(i) => write!(f, "deliver c→s [{i}]"),
            Choice::DeliverToClient(i) => write!(f, "deliver s→c [{i}]"),
            Choice::DropToServer => write!(f, "drop c→s"),
            Choice::DropToClient => write!(f, "drop s→c"),
            Choice::DupToServer => write!(f, "dup c→s"),
            Choice::DupToClient => write!(f, "dup s→c"),
            Choice::FireTimer => write!(f, "fire timer"),
            Choice::NextOp => write!(f, "next op"),
            Choice::CrashRestart => write!(f, "crash+restart"),
            Choice::Compact => write!(f, "compact"),
            Choice::LinkDown => write!(f, "link down+resume"),
        }
    }
}

/// A protocol invariant broken by some interleaving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A driver rejected a frame the peer produced (decode error —
    /// should be impossible for self-generated traffic).
    Feed {
        /// Which driver rejected it.
        receiver: &'static str,
        /// The decode error, stringified.
        error: String,
    },
    /// A scripted client command failed outright.
    Command(String),
    /// The server's cached content for a version does not match what the
    /// client actually recorded for that version: the shadow cache holds
    /// data masquerading as a version it is not.
    CacheIncoherent {
        /// The cached file.
        key: FileKey,
        /// The version the server believes it caches.
        version: VersionNumber,
        /// Digest of the bytes the server cached.
        cached: ContentDigest,
        /// Digest the client recorded for that version.
        expected: ContentDigest,
    },
    /// Within one cache lifetime the server acknowledged an older version
    /// after a newer one — unsafe for the client's §6.3.2 pruning.
    AckRegression {
        /// The file.
        file: FileId,
        /// The newest version previously acknowledged.
        newest: VersionNumber,
        /// The older version acknowledged now.
        acked: VersionNumber,
    },
    /// Journal replay did not rebuild what the server held: after a
    /// crash, the restarted node's snapshot of the domain differs from
    /// the crashed node's.
    ReplayDiverged {
        /// The crashed node's snapshot.
        crashed: Vec<PersistRecord>,
        /// The snapshot of the node rebuilt from the journal.
        restored: Vec<PersistRecord>,
    },
    /// Within one cache lifetime the cached version went backwards.
    CacheRollback {
        /// The cached file.
        key: FileKey,
        /// Version previously cached.
        from: VersionNumber,
        /// Older version cached now.
        to: VersionNumber,
    },
    /// The client pruned (or never kept) its own latest version.
    LatestVersionLost {
        /// The file.
        file: FileId,
    },
    /// A job's output was reported corrupt — must not happen when no
    /// output shadowing is in play.
    OutputCorrupt {
        /// The job.
        job: shadow_proto::JobId,
    },
    /// A submission was rejected even though the session was established.
    JobRejected {
        /// The server's reason.
        reason: String,
    },
    /// Quiescent (script done, queues empty, timers idle, nothing
    /// dropped) but jobs are still pending somewhere.
    StuckJobs {
        /// Pending job ids, server-side then client-side.
        jobs: Vec<shadow_proto::JobId>,
    },
    /// Quiescent with no losses, but the server's shadow of a file does
    /// not match the client's announced latest version.
    NotConverged {
        /// The file.
        file: FileId,
        /// The version the client announced last.
        announced: VersionNumber,
        /// What the server caches (version, if any).
        cached: Option<VersionNumber>,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Feed { receiver, error } => {
                write!(f, "{receiver} failed to decode a peer frame: {error}")
            }
            Violation::Command(e) => write!(f, "scripted client command failed: {e}"),
            Violation::CacheIncoherent {
                key,
                version,
                cached,
                expected,
            } => write!(
                f,
                "shadow cache incoherent: {key:?} claims {version} but cached \
                 content digest {cached} != client digest {expected}"
            ),
            Violation::AckRegression {
                file,
                newest,
                acked,
            } => write!(f, "ack regression on {file}: acked {acked} after {newest}"),
            Violation::ReplayDiverged { crashed, restored } => write!(
                f,
                "journal replay diverged: the crashed server held [{}], \
                 replay rebuilt [{}]",
                record_labels(crashed),
                record_labels(restored)
            ),
            Violation::CacheRollback { key, from, to } => {
                write!(f, "cache rollback on {key:?}: {from} -> {to}")
            }
            Violation::LatestVersionLost { file } => {
                write!(f, "client lost its own latest version of {file}")
            }
            Violation::OutputCorrupt { job } => {
                write!(f, "output of {job} reported corrupt")
            }
            Violation::JobRejected { reason } => {
                write!(f, "job rejected on an established session: {reason}")
            }
            Violation::StuckJobs { jobs } => {
                write!(f, "quiescent with pending jobs: {jobs:?}")
            }
            Violation::NotConverged {
                file,
                announced,
                cached,
            } => write!(
                f,
                "quiescent but {file} not converged: announced {announced}, \
                 server caches {cached:?}"
            ),
        }
    }
}

/// Exploration bounds shared by every branch of a run.
#[derive(Debug, Clone, Copy)]
pub struct Budgets {
    /// Total frames that may be dropped (across both directions).
    pub drops: u32,
    /// Total frames that may be duplicated.
    pub dups: u32,
    /// How deep into each queue out-of-order delivery may reach
    /// (1 = strictly FIFO).
    pub reorder_window: usize,
    /// Total server crash/restart events (journal replay) allowed.
    pub crashes: u32,
    /// Total journal compactions (snapshot of the server's state)
    /// allowed.
    pub compactions: u32,
    /// Total link-cut/resume events (session resumption) allowed.
    pub disconnects: u32,
}

/// The checked server: the production shard loop on a virtual clock.
/// Its writer half queues frames until the world moves them onto the
/// server→client queue, and it journals to a [`Journal`].
type CheckedShard = Shard<VirtualClock, Vec<Vec<u8>>, Journal>;

/// The durable-store model the checked shard journals to: the last
/// compaction's snapshot (empty before any), then every record the
/// shard persisted since, in emission order. A crash replays it into a
/// fresh node through `ServerNode::restore`, exactly as a durable
/// deployment replays what `DurableStore::recovered` hands it.
#[derive(Debug, Clone)]
struct Journal {
    domain: DomainId,
    records: Vec<PersistRecord>,
    /// Running digest of `records` (part of state identity without
    /// rehashing every record each step).
    hash: u64,
    /// A [`Choice::Compact`] is pending: the shard's next dispatch
    /// compacts, after its persists.
    armed: bool,
}

impl PersistSink for Journal {
    fn persist(&mut self, record: &PersistRecord) {
        self.hash = fold_record(self.hash, record);
        self.records.push(record.clone());
    }

    fn compact(&mut self, state: &mut dyn FnMut(DomainId) -> Vec<PersistRecord>) {
        if std::mem::take(&mut self.armed) {
            self.records = state(self.domain);
            self.hash = self.records.iter().fold(0, fold_record);
        }
    }
}

/// One client + one server + the network between them.
#[derive(Debug, Clone)]
pub struct World {
    client: ClientDriver,
    server: CheckedShard,
    conn: ConnId,
    session: SessionId,
    domain: DomainId,
    now_ms: u64,
    c2s: Vec<Vec<u8>>,
    s2c: Vec<Vec<u8>>,
    script: Vec<Op>,
    next_op: usize,
    revs: Vec<u32>,
    drops_left: u32,
    dups_left: u32,
    reorder_window: usize,
    crashes_left: u32,
    compactions_left: u32,
    disconnects_left: u32,
    /// Any crash happened on this branch: in-flight frames and running
    /// jobs were legitimately lost, so end-state convergence claims are
    /// off (step invariants still hold).
    crashed: bool,
    faults: FaultInjection,
    any_dropped: bool,
    script_drops_cache: bool,
    /// Per-file newest version the server has acked this cache lifetime.
    acks_seen: BTreeMap<FileId, VersionNumber>,
    /// Per-key cached version last observed this cache lifetime.
    cache_seen: BTreeMap<FileKey, VersionNumber>,
    /// Bounded log of recent choices, dumped into counterexample
    /// reports. Deliberately excluded from [`state_digest`](Self::state_digest):
    /// two states with identical protocol futures must deduplicate even
    /// when they were reached along different histories.
    flight: FlightRecorder,
}

impl World {
    /// A fresh world with the session handshake already completed (the
    /// handshake is deterministic; exploring it adds depth, not
    /// behaviour).
    pub fn new(scenario: &Scenario, budgets: Budgets, faults: FaultInjection) -> Self {
        let domain = DomainId::new(7);
        let client = ClientNode::new(ClientConfig::new("ws1", domain.as_u64()));
        let journal = Journal {
            domain,
            records: Vec::new(),
            hash: 0,
            armed: false,
        };
        let mut world = World {
            client: ClientDriver::new(client),
            server: server_shard(faults, journal, 0),
            conn: ConnId::new(0),
            session: SessionId::new(1),
            domain,
            now_ms: 0,
            c2s: Vec::new(),
            s2c: Vec::new(),
            script: scenario.script.clone(),
            next_op: 0,
            revs: vec![0; scenario.file_count()],
            drops_left: budgets.drops,
            dups_left: budgets.dups,
            reorder_window: budgets.reorder_window.max(1),
            crashes_left: budgets.crashes,
            compactions_left: budgets.compactions,
            disconnects_left: budgets.disconnects,
            crashed: false,
            faults,
            any_dropped: false,
            script_drops_cache: scenario.script.contains(&Op::DropCache),
            acks_seen: BTreeMap::new(),
            cache_seen: BTreeMap::new(),
            flight: FlightRecorder::default(),
        };
        let hello = world.client.connect(world.conn, 0);
        world.queue_client_out(&hello);
        // Deliver Hello and HelloAck synchronously so every explored
        // interleaving starts from a ready session.
        while !world.c2s.is_empty() || !world.s2c.is_empty() {
            if !world.c2s.is_empty() {
                world
                    .apply(Choice::DeliverToServer(0))
                    .expect("handshake cannot violate invariants");
            }
            if !world.s2c.is_empty() {
                world
                    .apply(Choice::DeliverToClient(0))
                    .expect("handshake cannot violate invariants");
            }
        }
        world
    }

    /// The script position (how many ops have run).
    pub fn ops_done(&self) -> usize {
        self.next_op
    }

    /// Whether any frame has been dropped on this branch.
    pub fn any_dropped(&self) -> bool {
        self.any_dropped
    }

    /// The flight recorder's view of this branch: the last choices
    /// applied, oldest first, as `#seq @at_ms label` lines.
    pub fn flight_lines(&self) -> Vec<String> {
        self.flight.dump_lines()
    }

    /// Every choice legal in this state, in a fixed order.
    pub fn enabled(&self) -> Vec<Choice> {
        let mut out = Vec::new();
        if self.next_op < self.script.len() {
            out.push(Choice::NextOp);
        }
        for i in 0..self.c2s.len().min(self.reorder_window) {
            out.push(Choice::DeliverToServer(i));
        }
        for i in 0..self.s2c.len().min(self.reorder_window) {
            out.push(Choice::DeliverToClient(i));
        }
        if self.server.next_deadline().is_some() {
            out.push(Choice::FireTimer);
        }
        if self.drops_left > 0 {
            if !self.c2s.is_empty() {
                out.push(Choice::DropToServer);
            }
            if !self.s2c.is_empty() {
                out.push(Choice::DropToClient);
            }
        }
        if self.dups_left > 0 {
            if !self.c2s.is_empty() {
                out.push(Choice::DupToServer);
            }
            if !self.s2c.is_empty() {
                out.push(Choice::DupToClient);
            }
        }
        if self.crashes_left > 0 {
            out.push(Choice::CrashRestart);
        }
        if self.compactions_left > 0 {
            out.push(Choice::Compact);
        }
        if self.disconnects_left > 0 {
            out.push(Choice::LinkDown);
        }
        out
    }

    /// Applies one choice; `Err` is an invariant violation observed
    /// during or immediately after the transition. Choices must come
    /// from [`enabled`](Self::enabled).
    pub fn apply(&mut self, choice: Choice) -> Result<(), Violation> {
        self.flight.record(self.now_ms, choice.to_string());
        match choice {
            Choice::DeliverToServer(i) => {
                let frame = self.c2s.remove(i);
                self.deliver_to_server(frame)?;
            }
            Choice::DeliverToClient(i) => {
                let frame = self.s2c.remove(i);
                let out = match self.client.feed_frame(self.conn, &frame, self.now_ms) {
                    Ok(out) => out,
                    Err(e) => return Err(feed_violation("client", e)),
                };
                self.queue_client_out(&out);
            }
            Choice::DropToServer => {
                self.c2s.remove(0);
                self.drops_left -= 1;
                self.any_dropped = true;
            }
            Choice::DropToClient => {
                self.s2c.remove(0);
                self.drops_left -= 1;
                self.any_dropped = true;
            }
            Choice::DupToServer => {
                let copy = self.c2s[0].clone();
                self.c2s.push(copy);
                self.dups_left -= 1;
            }
            Choice::DupToClient => {
                let copy = self.s2c[0].clone();
                self.s2c.push(copy);
                self.dups_left -= 1;
            }
            Choice::FireTimer => {
                let deadline = self
                    .server
                    .next_deadline()
                    .expect("FireTimer only enabled with a pending timer");
                self.now_ms = self.now_ms.max(deadline);
                self.server.clock_mut().advance_to(self.now_ms);
                self.step_server(None)?;
            }
            Choice::NextOp => {
                let op = self.script[self.next_op].clone();
                self.next_op += 1;
                self.run_op(&op)?;
            }
            Choice::CrashRestart => {
                self.crash_restart()?;
            }
            Choice::Compact => {
                self.compactions_left -= 1;
                self.journal_mut().armed = true;
            }
            Choice::LinkDown => {
                self.link_down_resume()?;
            }
        }
        self.check_step()
    }

    fn run_op(&mut self, op: &Op) -> Result<(), Violation> {
        match op {
            Op::Edit(idx) => {
                self.revs[*idx] += 1;
                let content = content_for(*idx, self.revs[*idx]);
                let (_, out) = self
                    .client
                    .edit_finished(&file_ref(*idx), content, self.now_ms);
                self.queue_client_out(&out);
            }
            Op::Submit { job, data } => {
                let data_refs: Vec<FileRef> = data.iter().map(|d| file_ref(*d)).collect();
                match self.client.submit(
                    self.conn,
                    &file_ref(*job),
                    &data_refs,
                    Default::default(),
                    self.now_ms,
                ) {
                    Ok((_, out)) => self.queue_client_out(&out),
                    Err(e) => return Err(Violation::Command(e.to_string())),
                }
            }
            Op::DropCache => {
                self.server.node_mut().drop_cache();
            }
        }
        Ok(())
    }

    /// Kills the server and restarts it from the journal: in-memory
    /// state and every in-flight frame die with the "process"; the
    /// fresh node replays the journal exactly as a durable deployment
    /// replays its on-disk store, and the client re-handshakes (the
    /// transport saw a disconnect). Replay must rebuild the crashed
    /// node's snapshot of the domain — unless a scripted cache wipe ran
    /// first, since the journal still holds what the wipe lost.
    /// Cache-lifetime epochs reset — the replayed cache is a new
    /// lifetime, so monotonicity restarts, but coherence (replayed bytes
    /// must digest to what the client recorded) is checked from the very
    /// next step.
    fn crash_restart(&mut self) -> Result<(), Violation> {
        self.crashes_left -= 1;
        self.crashed = true;
        self.c2s.clear();
        self.s2c.clear();
        let crashed = self.server.node().snapshot(self.domain);
        let shard = server_shard(self.faults, self.journal().clone(), self.now_ms);
        if !self.script[..self.next_op].contains(&Op::DropCache) {
            let restored = shard.node().snapshot(self.domain);
            if restored != crashed {
                return Err(Violation::ReplayDiverged { crashed, restored });
            }
        }
        self.server = shard;
        self.cache_seen.clear();
        self.acks_seen.clear();
        // The client saw its transport die with the server.
        self.client.disconnect(self.conn);
        // Re-handshake synchronously, as in `World::new`: the handshake
        // is deterministic, so exploring its interleavings adds depth
        // without behaviour — and scripted ops must not race it.
        let hello = self.client.connect(self.conn, self.now_ms);
        self.queue_client_out(&hello);
        self.drain_handshake()
    }

    /// Cuts the transport and immediately resumes: in-flight frames die
    /// with the connection, but — unlike [`crash_restart`](Self::crash_restart)
    /// — the server keeps its in-memory state, so the resumption
    /// handshake should confirm the shadow cache and keep the delta path
    /// warm. Cache-lifetime epochs survive (the cache never restarted),
    /// so ack and cached-version monotonicity keep holding *across* the
    /// resume. A cut on a quiet link loses nothing, and then full
    /// quiescent convergence must still hold.
    fn link_down_resume(&mut self) -> Result<(), Violation> {
        self.disconnects_left -= 1;
        // Whatever was in flight is gone with the transport; losing
        // frames legitimately stalls best-effort work, exactly like an
        // explicit drop, so quiescence claims are scoped accordingly.
        if !self.c2s.is_empty() || !self.s2c.is_empty() {
            self.any_dropped = true;
            self.c2s.clear();
            self.s2c.clear();
        }
        // The server observes an abortive close and reaps the session.
        let closed = ShardEvent::Closed(self.session, CloseReason::Error);
        self.server.step(Some(closed), |_| 0);
        // A fresh transport means a fresh accept — and a new session id —
        // at the server, opened on the resume `Hello`; the client keeps
        // its shadow environment and re-handshakes with a resume
        // summary. The handshake is deterministic, so it is applied
        // synchronously like the initial one.
        self.session = SessionId::new(self.session.as_u64() + 1);
        self.client.link_down(self.conn, self.now_ms);
        let hello = self.client.reconnect(self.conn, self.now_ms);
        self.queue_client_out(&hello);
        self.drain_handshake()
    }

    /// Delivers queued frames strictly in order until both directions
    /// are empty — the synchronous (re-)handshake used by `new`,
    /// crash-restart, and link-down+resume.
    fn drain_handshake(&mut self) -> Result<(), Violation> {
        while !self.c2s.is_empty() || !self.s2c.is_empty() {
            if !self.c2s.is_empty() {
                let frame = self.c2s.remove(0);
                self.deliver_to_server(frame)?;
            }
            if !self.s2c.is_empty() {
                let frame = self.s2c.remove(0);
                let out = match self.client.feed_frame(self.conn, &frame, self.now_ms) {
                    Ok(out) => out,
                    Err(e) => return Err(feed_violation("client", e)),
                };
                self.queue_client_out(&out);
            }
        }
        Ok(())
    }

    fn queue_client_out(&mut self, out: &[ClientOutbound]) {
        for o in out {
            debug_assert_eq!(o.conn, self.conn);
            self.c2s.push(o.frame.clone());
        }
    }

    /// Delivers a client frame to the server's shard; the session's
    /// first frame, its `Hello`, opens it. The shard closes a session
    /// whose frame it cannot decode.
    fn deliver_to_server(&mut self, frame: Vec<u8>) -> Result<(), Violation> {
        let event = match self.server.writer_mut(self.session) {
            Some(_) => ShardEvent::Frame(self.session, frame),
            None => ShardEvent::Open(self.session, Vec::new(), frame),
        };
        self.step_server(Some(event))
    }

    /// Steps the server's shard and queues what it sent, checking the
    /// *send-side* invariants: acks must never regress within a cache
    /// lifetime, and no rejection may be emitted for our established
    /// session.
    fn step_server(&mut self, event: Option<ShardEvent<Vec<Vec<u8>>>>) -> Result<(), Violation> {
        self.server.step(event, |_| 0);
        let Some(wire) = self.server.writer_mut(self.session) else {
            return Err(Violation::Feed {
                receiver: "server",
                error: "the shard closed the session on an undecodable frame".to_string(),
            });
        };
        for frame in std::mem::take(wire) {
            if let Ok(Some((ServerMessage::VersionAck { file, version }, _))) =
                Frame::decode::<ServerMessage>(&frame)
            {
                if let Some(&newest) = self.acks_seen.get(&file) {
                    if version < newest {
                        return Err(Violation::AckRegression {
                            file,
                            newest,
                            acked: version,
                        });
                    }
                }
                self.acks_seen.insert(file, version);
            }
            self.s2c.push(frame);
        }
        Ok(())
    }

    fn journal(&self) -> &Journal {
        self.server.sink().expect("the checked shard journals")
    }

    fn journal_mut(&mut self) -> &mut Journal {
        self.server.sink_mut().expect("the checked shard journals")
    }

    /// Invariants checked after every transition.
    fn check_step(&mut self) -> Result<(), Violation> {
        let server = self.server.node();
        let client_node_digest_of =
            |file: FileId, v: VersionNumber| self.client.node().digest_of_version(file, v);

        // Cache-lifetime bookkeeping: a key that vanished from the cache
        // (delta failure, eviction, scripted drop) starts a fresh
        // monotonicity epoch for both the cached version and the acks.
        let cached_now: BTreeSet<FileKey> = server.cached_keys().into_iter().collect();
        let tracked: Vec<FileKey> = self.cache_seen.keys().copied().collect();
        for key in tracked {
            if !cached_now.contains(&key) {
                self.cache_seen.remove(&key);
                self.acks_seen.remove(&key.file);
            }
        }

        for key in &cached_now {
            let version = server.cached_version(*key).expect("listed key is cached");
            // Coherence: cached bytes must digest to what the client
            // recorded for that version (skip versions the client has
            // already pruned — nothing left to compare against).
            if let Some(expected) = client_node_digest_of(key.file, version) {
                let cached = server.cached_digest(*key).expect("listed key is cached");
                if cached != expected {
                    return Err(Violation::CacheIncoherent {
                        key: *key,
                        version,
                        cached,
                        expected,
                    });
                }
            }
            // Rollback: within an epoch the cached version only advances.
            if let Some(&seen) = self.cache_seen.get(key) {
                if version < seen {
                    return Err(Violation::CacheRollback {
                        key: *key,
                        from: seen,
                        to: version,
                    });
                }
            }
            self.cache_seen.insert(*key, version);
        }

        // Prune safety: the client must always retain its own latest.
        for (idx, &rev) in self.revs.iter().enumerate() {
            if rev == 0 {
                continue;
            }
            let file = file_id(idx);
            let latest = self
                .client
                .node()
                .latest_version(file)
                .ok_or(Violation::LatestVersionLost { file })?;
            if client_node_digest_of(file, latest).is_none() {
                return Err(Violation::LatestVersionLost { file });
            }
        }

        // Drain user-facing notifications so they do not accumulate in
        // the digest; corruption and rejection reports are violations in
        // these scenarios (no output shadowing, session established).
        for (_, n) in self.client.take_notifications() {
            match n {
                Notification::OutputCorrupt { job, .. } => {
                    return Err(Violation::OutputCorrupt { job })
                }
                Notification::JobRejected { reason, .. } => {
                    return Err(Violation::JobRejected { reason })
                }
                _ => {}
            }
        }
        self.client.take_finished();
        Ok(())
    }

    /// True once nothing can happen any more without user input: script
    /// done, both queues empty, no timers pending.
    pub fn quiescent(&self) -> bool {
        self.next_op >= self.script.len()
            && self.c2s.is_empty()
            && self.s2c.is_empty()
            && self.server.next_deadline().is_none()
    }

    /// Terminal-state invariants. Convergence claims are only meaningful
    /// when no frame was dropped (loss legitimately stalls the
    /// best-effort protocol) and stronger still when the script never
    /// wiped the cache.
    pub fn check_quiescent(&self) -> Option<Violation> {
        debug_assert!(self.quiescent());
        if self.any_dropped || self.crashed {
            // Loss and crashes legitimately strand best-effort work
            // (running jobs die with the server); the step invariants
            // have already vouched for whatever state survived.
            return None;
        }
        let mut pending = self.server.node().pending_job_ids();
        pending.extend(self.client.node().jobs().pending_jobs());
        if !pending.is_empty() {
            return Some(Violation::StuckJobs { jobs: pending });
        }
        if self.script_drops_cache {
            // After a scripted cache wipe the server only re-pulls on
            // the next announcement; an empty cache at quiescence is
            // legitimate demand-driven behaviour. Coherence of whatever
            // *is* cached was already checked every step.
            return None;
        }
        for (idx, &rev) in self.revs.iter().enumerate() {
            if rev == 0 {
                continue;
            }
            let file = file_id(idx);
            let Some(announced) = self.client.node().announced_version(self.conn, file) else {
                continue; // never announced: the server cannot know it
            };
            let key = FileKey::new(self.domain, file);
            let cached = self.server.node().cached_version(key);
            if cached != Some(announced) {
                return Some(Violation::NotConverged {
                    file,
                    announced,
                    cached,
                });
            }
        }
        None
    }

    /// Canonical identity of this state for deduplication: both nodes'
    /// protocol digests, the in-flight frames, and the environment's
    /// remaining nondeterminism budgets. Absolute time is excluded (the
    /// drivers hash timer deadlines relative to now).
    pub fn state_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = StableHasher::new();
        self.client.state_digest().hash(&mut h);
        self.server.state_digest().hash(&mut h);
        self.c2s.hash(&mut h);
        self.s2c.hash(&mut h);
        self.next_op.hash(&mut h);
        self.revs.hash(&mut h);
        self.drops_left.hash(&mut h);
        self.dups_left.hash(&mut h);
        self.crashes_left.hash(&mut h);
        self.compactions_left.hash(&mut h);
        self.disconnects_left.hash(&mut h);
        self.crashed.hash(&mut h);
        (self.journal().hash, self.journal().armed).hash(&mut h);
        self.any_dropped.hash(&mut h);
        // Monotonicity epochs are part of the observable future: two
        // states that differ only here can still diverge on violations.
        for (k, v) in &self.acks_seen {
            (k, v).hash(&mut h);
        }
        for (k, v) in &self.cache_seen {
            (k, v).hash(&mut h);
        }
        h.finish()
    }
}

/// Snapshot records as short labels, content digests for bytes.
fn record_labels(records: &[PersistRecord]) -> String {
    let label = |record: &PersistRecord| match record {
        PersistRecord::CacheFull {
            key,
            version,
            content,
        } => {
            format!("{key} {version} #{}", ContentDigest::of(content))
        }
        other => format!("{other:?}"),
    };
    records.iter().map(label).collect::<Vec<_>>().join(", ")
}

/// Folds one record into a running journal digest.
fn fold_record(hash: u64, record: &PersistRecord) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = StableHasher::new();
    hash.hash(&mut h);
    Frame::encode(record).hash(&mut h);
    h.finish()
}

/// A fresh server shard at `now_ms` whose node has replayed `journal`
/// and journals on into it.
fn server_shard(faults: FaultInjection, journal: Journal, now_ms: u64) -> CheckedShard {
    let mut node = ServerNode::new(ServerConfig::new("sc1"));
    node.set_faults(faults);
    node.restore(&journal.records);
    let mut clock = VirtualClock::new();
    clock.advance_to(now_ms);
    Shard::new(node, Some(journal), clock)
}

fn feed_violation(receiver: &'static str, e: FeedError) -> Violation {
    Violation::Feed {
        receiver,
        error: e.to_string(),
    }
}

fn file_id(idx: usize) -> FileId {
    FileId::new(idx as u64 + 1)
}

fn file_ref(idx: usize) -> FileRef {
    FileRef::new(file_id(idx), format!("file{idx}.job"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::builtin_scenarios;

    fn budgets() -> Budgets {
        Budgets {
            drops: 0,
            dups: 0,
            reorder_window: 1,
            crashes: 0,
            compactions: 0,
            disconnects: 0,
        }
    }

    #[test]
    fn handshake_completes_and_digest_is_stable() {
        let s = &builtin_scenarios()[0];
        let w = World::new(s, budgets(), FaultInjection::default());
        assert!(w.c2s.is_empty() && w.s2c.is_empty());
        assert_eq!(w.state_digest(), w.state_digest());
        let w2 = World::new(s, budgets(), FaultInjection::default());
        assert_eq!(w.state_digest(), w2.state_digest());
    }

    #[test]
    fn in_order_run_reaches_clean_quiescence() {
        let s = &builtin_scenarios()[0];
        let mut w = World::new(s, budgets(), FaultInjection::default());
        let mut steps = 0;
        while !w.quiescent() {
            let choice = w.enabled()[0];
            w.apply(choice).expect("clean protocol, no violations");
            steps += 1;
            assert!(steps < 500, "did not quiesce");
        }
        assert_eq!(w.check_quiescent(), None);
        // The submitted job ran to completion.
        assert!(w.server.node().pending_job_ids().is_empty());
    }

    #[test]
    fn flight_recorder_logs_choices_but_not_the_digest() {
        let s = &builtin_scenarios()[0];
        let mut a = World::new(s, budgets(), FaultInjection::default());
        let b = a.clone();
        // The handshake in `new` already recorded deliveries.
        let before = a.flight_lines().len();
        assert!(before > 0, "handshake choices are recorded");
        a.apply(Choice::NextOp).unwrap();
        assert_eq!(a.flight_lines().len(), before + 1);
        assert!(a.flight_lines().last().unwrap().contains("next op"));
        // The recorder must not leak into state identity: injecting an
        // extra log entry leaves the digest unchanged.
        let mut c = b.clone();
        c.apply(Choice::NextOp).unwrap();
        let digest = c.state_digest();
        c.flight.record(999, "synthetic entry");
        assert_eq!(c.state_digest(), digest);
        assert_eq!(a.state_digest(), digest);
    }

    #[test]
    fn crash_restart_replays_the_journal_and_stays_coherent() {
        let s = &builtin_scenarios()[0];
        let mut w = World::new(
            s,
            Budgets {
                crashes: 1,
                ..budgets()
            },
            FaultInjection::default(),
        );
        assert!(w.enabled().contains(&Choice::CrashRestart));
        // Run the script in order until everything settles, then crash:
        // the journal now holds every version the server ever persisted.
        let mut steps = 0;
        while !w.quiescent() {
            let choice = w.enabled()[0];
            w.apply(choice).expect("clean run");
            steps += 1;
            assert!(steps < 500, "did not quiesce");
        }
        assert!(
            !w.journal().records.is_empty(),
            "submissions were journaled"
        );
        let digest_before = w.state_digest();
        w.apply(Choice::CrashRestart)
            .expect("replay must not violate cache coherence");
        assert_ne!(w.state_digest(), digest_before, "a crash is a new state");
        assert!(
            !w.enabled().contains(&Choice::CrashRestart),
            "crash budget is spent"
        );
        // The fresh node rebuilt its cache from the journal alone.
        assert!(
            w.server.node().report().counter("cache", "insertions") > 0,
            "replay repopulated the shadow cache"
        );
        // Post-crash the session is ready again; drive to quiescence.
        let mut steps = 0;
        while !w.quiescent() {
            let choice = w.enabled()[0];
            w.apply(choice).expect("post-crash run stays coherent");
            steps += 1;
            assert!(steps < 500, "did not re-quiesce");
        }
        // Convergence claims are off after a crash (running jobs died
        // with the server), but no step invariant fired above.
        assert_eq!(w.check_quiescent(), None);
    }

    #[test]
    fn compaction_then_crash_restart_replays_the_snapshot_and_stays_coherent() {
        let s = &builtin_scenarios()[0];
        let mut w = World::new(
            s,
            Budgets {
                crashes: 1,
                compactions: 1,
                ..budgets()
            },
            FaultInjection::default(),
        );
        // Run the script in order until it is done and a frame is on its
        // way to the server, then arm the compaction.
        let mut steps = 0;
        while w.ops_done() < s.script.len() || w.c2s.is_empty() {
            let choice = w.enabled()[0];
            w.apply(choice).expect("clean run");
            steps += 1;
            assert!(steps < 500, "script never finished");
        }
        let digest_before = w.state_digest();
        let journal_before = w.journal().records.clone();
        w.apply(Choice::Compact)
            .expect("arming a compaction changes no protocol state");
        assert_ne!(
            w.state_digest(),
            digest_before,
            "a compaction is a new state"
        );
        assert!(
            !w.enabled().contains(&Choice::Compact),
            "compaction budget is spent"
        );
        assert_eq!(
            w.journal().records,
            journal_before,
            "nothing compacts until a dispatch"
        );
        // The shard's next dispatch compacts, after its persists: the
        // journal is then exactly the node's snapshot.
        w.apply(Choice::DeliverToServer(0)).expect("clean delivery");
        assert!(!w.journal().armed);
        assert_eq!(w.journal().records, w.server.node().snapshot(w.domain));
        let mut steps = 0;
        while !w.quiescent() {
            let choice = w.enabled()[0];
            w.apply(choice).expect("clean run");
            steps += 1;
            assert!(steps < 500, "did not quiesce");
        }
        // Compaction alone leaves the server untouched: still converged.
        assert_eq!(w.check_quiescent(), None);

        w.apply(Choice::CrashRestart)
            .expect("replaying the snapshot must rebuild the crashed state");
        assert_eq!(
            w.server.node().cached_keys(),
            w.journal()
                .records
                .iter()
                .filter_map(|r| match r {
                    PersistRecord::CacheFull { key, .. } => Some(*key),
                    _ => None,
                })
                .collect::<Vec<_>>(),
            "the restarted node holds exactly the snapshot's cache"
        );
        let mut steps = 0;
        while !w.quiescent() {
            let choice = w.enabled()[0];
            w.apply(choice).expect("post-crash run stays coherent");
            steps += 1;
            assert!(steps < 500, "did not re-quiesce");
        }
        assert_eq!(w.check_quiescent(), None);
    }

    #[test]
    fn crash_restart_is_deterministic() {
        let s = &builtin_scenarios()[0];
        let b = Budgets {
            crashes: 1,
            ..budgets()
        };
        let mut a = World::new(s, b, FaultInjection::default());
        let mut c = World::new(s, b, FaultInjection::default());
        for w in [&mut a, &mut c] {
            w.apply(Choice::NextOp).unwrap();
            w.apply(Choice::CrashRestart).unwrap();
        }
        assert_eq!(a.state_digest(), c.state_digest());
    }

    #[test]
    fn quiet_link_cut_resumes_and_still_converges() {
        let s = &builtin_scenarios()[0];
        let mut w = World::new(
            s,
            Budgets {
                disconnects: 1,
                ..budgets()
            },
            FaultInjection::default(),
        );
        assert!(w.enabled().contains(&Choice::LinkDown));
        // Settle the whole script first: the link is quiet, so the cut
        // loses nothing and full convergence claims stay on.
        let mut steps = 0;
        while !w.quiescent() {
            let choice = w.enabled()[0];
            w.apply(choice).expect("clean run");
            steps += 1;
            assert!(steps < 500, "did not quiesce");
        }
        w.apply(Choice::LinkDown)
            .expect("resume must not violate invariants");
        assert!(
            !w.enabled().contains(&Choice::LinkDown),
            "disconnect budget is spent"
        );
        assert!(!w.any_dropped(), "a quiet cut loses no frames");
        // The resumption handshake confirmed the cached bases: the
        // server state survived, so this is the resume-hit path, not the
        // full-transfer fallback.
        assert!(
            w.client.node().metrics().resume_hits > 0,
            "resume summary was confirmed against the live cache"
        );
        assert_eq!(w.client.node().metrics().resume_fallbacks, 0);
        let mut steps = 0;
        while !w.quiescent() {
            let choice = w.enabled()[0];
            w.apply(choice).expect("post-resume run stays coherent");
            steps += 1;
            assert!(steps < 500, "did not re-quiesce");
        }
        // Nothing was dropped and the server never died: the strong
        // quiescent convergence claim must hold across the resume.
        assert_eq!(w.check_quiescent(), None);
    }

    #[test]
    fn mid_run_link_cut_drops_in_flight_frames() {
        let s = &builtin_scenarios()[0];
        let mut w = World::new(
            s,
            Budgets {
                disconnects: 1,
                ..budgets()
            },
            FaultInjection::default(),
        );
        // Run ops until something is actually in flight, then cut.
        let mut steps = 0;
        while w.c2s.is_empty() && w.s2c.is_empty() {
            let choice = w.enabled()[0];
            w.apply(choice).expect("clean run");
            steps += 1;
            assert!(steps < 500, "nothing ever took flight");
        }
        w.apply(Choice::LinkDown).expect("resume stays coherent");
        assert!(w.any_dropped(), "frames in flight died with the transport");
        let mut steps = 0;
        while !w.quiescent() {
            let choice = w.enabled()[0];
            w.apply(choice).expect("post-resume run stays coherent");
            steps += 1;
            assert!(steps < 500, "did not re-quiesce");
        }
        // Loss scopes the convergence claim, exactly like a drop.
        assert_eq!(w.check_quiescent(), None);
    }

    #[test]
    fn link_cut_then_crash_interleaving_stays_coherent() {
        let s = &builtin_scenarios()[0];
        let mut w = World::new(
            s,
            Budgets {
                crashes: 1,
                disconnects: 1,
                ..budgets()
            },
            FaultInjection::default(),
        );
        // Interleave: one op, cut+resume, another op, crash+restart,
        // then drive to quiescence — every step invariant must hold.
        w.apply(Choice::NextOp).unwrap();
        w.apply(Choice::LinkDown).expect("resume stays coherent");
        let mut steps = 0;
        while !w.quiescent() {
            let choice = w.enabled()[0];
            w.apply(choice).expect("mixed run stays coherent");
            steps += 1;
            assert!(steps < 500, "did not quiesce");
            if steps == 3 && w.enabled().contains(&Choice::CrashRestart) {
                w.apply(Choice::CrashRestart)
                    .expect("replay stays coherent");
            }
        }
        assert_eq!(w.check_quiescent(), None);
    }

    #[test]
    fn link_cut_is_deterministic() {
        let s = &builtin_scenarios()[0];
        let b = Budgets {
            disconnects: 1,
            ..budgets()
        };
        let mut a = World::new(s, b, FaultInjection::default());
        let mut c = World::new(s, b, FaultInjection::default());
        for w in [&mut a, &mut c] {
            w.apply(Choice::NextOp).unwrap();
            w.apply(Choice::LinkDown).unwrap();
        }
        assert_eq!(a.state_digest(), c.state_digest());
        assert_ne!(
            a.state_digest(),
            World::new(s, b, FaultInjection::default()).state_digest(),
            "a cut is a new state"
        );
    }

    #[test]
    fn clone_branches_are_independent() {
        let s = &builtin_scenarios()[0];
        let mut a = World::new(s, budgets(), FaultInjection::default());
        let mut b = a.clone();
        a.apply(Choice::NextOp).unwrap();
        assert_ne!(a.state_digest(), b.state_digest());
        b.apply(Choice::NextOp).unwrap();
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn undecodable_frame_at_the_server_is_a_feed_violation() {
        let s = &builtin_scenarios()[0];
        let mut w = World::new(s, budgets(), FaultInjection::default());
        w.c2s.push(b"garbage".to_vec());
        match w.apply(Choice::DeliverToServer(0)) {
            Err(Violation::Feed { receiver, .. }) => assert_eq!(receiver, "server"),
            other => panic!("expected a server feed violation, got {other:?}"),
        }
    }

    #[test]
    fn replay_that_loses_a_record_is_caught() {
        let s = &builtin_scenarios()[0];
        let mut w = World::new(
            s,
            Budgets {
                crashes: 1,
                ..budgets()
            },
            FaultInjection::default(),
        );
        let mut steps = 0;
        while !w.quiescent() {
            let choice = w.enabled()[0];
            w.apply(choice).expect("clean run");
            steps += 1;
            assert!(steps < 500, "did not quiesce");
        }
        w.journal_mut().records.pop();
        assert!(matches!(
            w.apply(Choice::CrashRestart),
            Err(Violation::ReplayDiverged { .. })
        ));
    }
}

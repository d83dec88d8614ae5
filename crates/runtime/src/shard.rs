//! The server loop: one sans-io [`Shard`] that every deployment drives,
//! and the threaded runtime that runs N of them.
//!
//! A [`Shard`] owns one `ServerNode`, its timers, the writer half of
//! each of its sessions and, optionally, the sink its storage intents
//! are journaled to. It takes [`ShardEvent`]s — a session opening on
//! its `Hello`, a frame, a close — and between two events it does
//! everything the server does: decode, feed the node, journal, send,
//! arm and fire timers, compact. It never blocks and never reads a
//! clock of its own, so the same loop runs on a worker thread over
//! [`WallClock`] and in the discrete-event simulator and the model
//! checker over a `VirtualClock`.
//!
//! The paper's server is one process answering each client's requests
//! as they arrive. Every wall-clock deployment here is **N worker
//! shards** (N = 1 is that one process), each blocking on one inbox.
//! Every accepted session is split in two
//! ([`ShardedServerRuntime::serve`]): the shard keeps the writer half,
//! and a small per-session reader thread owns the reader half. The
//! reader blocks on the pipe or socket, decodes the session's first
//! frame as a `Hello` to learn its naming domain — refusing the session
//! if it is anything else — and then forwards every frame, in order, to
//! the inbox of the shard that owns the domain, followed by a close when
//! the peer goes. A worker blocks in exactly one place: its inbox, until
//! the next event or the shard's next timer deadline.
//!
//! Domain affinity is the load-bearing invariant: shard assignment is a
//! stable `hash(domain) % N` ([`shard_for`]), so every session of one
//! domain lands on the same shard, per-domain protocol state (shadow
//! cache entries, announcer/ in-flight maps, job tables) never crosses a
//! thread boundary, and **no shared mutable protocol state exists at
//! all** — readers and shards communicate only by moving frames, writer
//! halves and report snapshots over channels.
//!
//! Concurrency therefore lives *here and only here* (plus the thin
//! deployment adapters in `shadow`): `shadow-check analyze`'s
//! thread-purity rule forbids threads, channels and locks from
//! appearing in the protocol crates, keeping the refactor honest.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use shadow_obs::{
    merge_reports, shard_section_name, DriverStats, MetricsRegistry, NodeReport, Section,
};
use shadow_proto::{ClientMessage, DomainId, Frame, ServerMessage, StableHasher};
use shadow_server::{CloseReason, ServerAction, ServerEvent, ServerNode, SessionId, TimerToken};

use crate::clock::{Clock, WallClock};
use crate::sink::PersistSink;
use crate::timer::TimerQueue;
use crate::transport::{FrameReader, FrameWriter, TransportClosed};

/// How long [`ShardedServerRuntime::report`] waits for each shard's
/// snapshot before skipping it. A shard only fails to answer within
/// this budget when its worker has already exited.
const REPORT_TIMEOUT: Duration = Duration::from_secs(5);

/// Bucket bounds for the inbound frame-size histogram: tuned around the
/// protocol's typical shapes (control frames ≈ tens of bytes, deltas ≈
/// hundreds, full transfers ≈ kilobytes and up).
const FRAME_SIZE_BUCKETS: [u64; 6] = [64, 256, 1024, 4096, 16384, 65536];

/// Stack size of a session's reader thread. A reader only blocks on
/// reads, cuts frames and decodes one `Hello`, so a small fixed stack
/// keeps ten thousand parked sessions near a hundred MiB.
const READER_STACK: usize = 64 * 1024;

/// The stable shard assignment: `hash(domain) % shards`.
///
/// Stability matters twice over: sessions of one domain must always
/// share a shard (the domain-affinity invariant), and the assignment
/// must not move between runs or restarts, so FNV via
/// [`StableHasher`] — not the std `RandomState` — does the hashing.
pub fn shard_for(domain: DomainId, shards: usize) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = StableHasher::new();
    domain.as_u64().hash(&mut h);
    (h.finish() % shards.max(1) as u64) as usize
}

/// Decodes a session's first frame as a `Hello` and extracts the domain.
/// Anything else — a different message, garbage bytes, a truncated
/// frame — means the peer does not speak the protocol's opening line,
/// and its reader refuses the session.
fn hello_domain(frame: &[u8]) -> Option<DomainId> {
    match Frame::decode::<ClientMessage>(frame) {
        Ok(Some((ClientMessage::Hello { domain, .. }, _))) => Some(domain),
        _ => None,
    }
}

/// How the server names a transport close.
fn close_reason(closed: TransportClosed) -> CloseReason {
    if closed.is_clean() {
        CloseReason::Clean
    } else {
        CloseReason::Error
    }
}

/// One thing that happens to a shard's sessions.
#[derive(Debug)]
pub enum ShardEvent<W> {
    /// A session opens on its first frame, the client's `Hello`: its
    /// id, the writer half the shard answers it on, and that frame.
    Open(SessionId, W, Vec<u8>),
    /// The next frame a session's peer sent.
    Frame(SessionId, Vec<u8>),
    /// A session's peer went.
    Closed(SessionId, CloseReason),
}

/// One server shard: a [`ServerNode`] and everything between it and the
/// world — its timers, the writer half of each live session (`W`), the
/// sink its storage intents are journaled to (`S`; none drops them),
/// its wire counters and its loop's metrics — driven one
/// [`step`](Self::step) at a time on the time of its clock `C`.
///
/// The one place a [`ServerAction`] is interpreted. Within each batch
/// of actions the node emits, every storage intent is journaled before
/// any frame is sent, and the sink compacts only after that: a frame
/// the client sees never acknowledges state the journal lacks, and a
/// compaction never drops a record it has not already folded in.
#[derive(Debug, Clone)]
pub struct Shard<C, W, S> {
    node: ServerNode,
    clock: C,
    timers: TimerQueue<TimerToken>,
    sessions: HashMap<SessionId, W>,
    sink: Option<S>,
    stats: DriverStats,
    metrics: MetricsRegistry,
    /// Reusable frame-encode buffer: every outbound frame is encoded
    /// into this warmed scratch, then copied out at its exact size.
    encode_scratch: Vec<u8>,
}

impl<C: Clock, W: FrameWriter, S: PersistSink> Shard<C, W, S> {
    /// A shard around `node` (fresh, or already restored from its
    /// journal) that journals to `sink` and reads time from `clock`.
    pub fn new(node: ServerNode, sink: Option<S>, clock: C) -> Self {
        let mut metrics = MetricsRegistry::new();
        metrics.histogram("frame_bytes", FRAME_SIZE_BUCKETS.to_vec());
        Shard {
            node,
            clock,
            timers: TimerQueue::new(),
            sessions: HashMap::new(),
            sink,
            stats: DriverStats::default(),
            metrics,
            encode_scratch: Vec::new(),
        }
    }

    /// Everything the shard does between two waits: handle `event`
    /// (`None` is a wake-up), fire every timer due by the clock's now,
    /// and refresh the gauges.
    ///
    /// `cost` prices the CPU time of handling one message (`None` for a
    /// timer expiry): replies to it depart, and timers it arms count,
    /// from now plus that many milliseconds. The simulator prices work
    /// against its CPU model; wall-clock runtimes pass zero, because
    /// real computation already takes real time.
    pub fn step(
        &mut self,
        event: Option<ShardEvent<W>>,
        mut cost: impl FnMut(Option<&ClientMessage>) -> u64,
    ) {
        self.metrics.inc("polls", 1);
        match event {
            Some(ShardEvent::Open(session, writer, hello)) => {
                self.open(session, writer, &hello, &mut cost);
            }
            Some(ShardEvent::Frame(session, frame)) => self.feed(session, &frame, &mut cost),
            Some(ShardEvent::Closed(session, reason)) => self.close(session, reason),
            None => {}
        }
        let now_ms = self.clock.now_ms();
        while let Some((_, token)) = self.timers.pop_due(now_ms) {
            self.stats.timers_fired += 1;
            let base_ms = now_ms + cost(None);
            let actions = self.node.handle(ServerEvent::Timer { token, now_ms });
            self.dispatch(actions, base_ms);
        }
        self.metrics
            .set_gauge("sessions_live", self.sessions.len() as i64);
        self.metrics
            .set_gauge("timers_pending", i64::from(!self.timers.is_empty()));
    }

    /// The earliest pending timer deadline, on the shard's clock.
    pub fn next_deadline(&self) -> Option<u64> {
        self.timers.next_deadline()
    }

    /// True when no session is live and no timer is pending.
    pub fn is_idle(&self) -> bool {
        self.sessions.is_empty() && self.timers.is_empty()
    }

    /// The shard's clock, for a scheduler that advances virtual time.
    pub fn clock_mut(&mut self) -> &mut C {
        &mut self.clock
    }

    /// A live session's writer half; `None` once the session closed.
    pub fn writer_mut(&mut self, session: SessionId) -> Option<&mut W> {
        self.sessions.get_mut(&session)
    }

    /// The installed sink, if any.
    pub fn sink(&self) -> Option<&S> {
        self.sink.as_ref()
    }

    /// The installed sink, if any (mutable).
    pub fn sink_mut(&mut self) -> Option<&mut S> {
        self.sink.as_mut()
    }

    /// The wrapped state machine (read-only).
    pub fn node(&self) -> &ServerNode {
        &self.node
    }

    /// The wrapped state machine (mutable, for fault injection).
    pub fn node_mut(&mut self) -> &mut ServerNode {
        &mut self.node
    }

    /// Unwraps the state machine (for post-shutdown inspection).
    pub fn into_node(self) -> ServerNode {
        self.node
    }

    /// A deterministic digest of the shard's protocol state: the node
    /// plus pending timers, with deadlines taken *relative* to the
    /// clock's now so two worlds that differ only by a clock
    /// translation deduplicate to one explored state. Counters are
    /// excluded (monotonic; would defeat deduplication).
    pub fn state_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let now_ms = self.clock.now_ms();
        let mut h = StableHasher::new();
        self.node.state_digest().hash(&mut h);
        for (deadline_ms, token) in self.timers.pending() {
            (deadline_ms.saturating_sub(now_ms), token).hash(&mut h);
        }
        h.finish()
    }

    /// The node's full [`NodeReport`] with the shard's wire counters
    /// (`driver`), a `server_runtime` section from the loop's registry,
    /// and the installed sink's section (the durable store's journal
    /// counters) when there is one.
    pub fn report(&self) -> NodeReport {
        let mut report = self.node.report().with(&self.stats);
        report.add_section(self.metrics.to_section("server_runtime"));
        if let Some(section) = self.sink.as_ref().and_then(|s| s.report_section()) {
            report.add_section(section);
        }
        report
    }

    fn open(
        &mut self,
        session: SessionId,
        writer: W,
        hello: &[u8],
        cost: &mut impl FnMut(Option<&ClientMessage>) -> u64,
    ) {
        self.sessions.insert(session, writer);
        self.metrics.inc("sessions_accepted", 1);
        let now_ms = self.clock.now_ms();
        let actions = self.node.handle(ServerEvent::Connected { session, now_ms });
        self.dispatch(actions, now_ms);
        self.feed(session, hello, cost);
    }

    fn feed(
        &mut self,
        session: SessionId,
        frame: &[u8],
        cost: &mut impl FnMut(Option<&ClientMessage>) -> u64,
    ) {
        if !self.sessions.contains_key(&session) {
            // Closed here already: the reader's late frames are moot.
            return;
        }
        self.metrics.inc("frames_fed", 1);
        self.metrics.observe("frame_bytes", frame.len() as u64);
        self.stats.frames_received += 1;
        self.stats.bytes_received += frame.len() as u64;
        let Ok(Some((message, _))) = Frame::decode::<ClientMessage>(frame) else {
            // A frame that cannot be decoded means the peer is hopelessly
            // confused; drop them.
            self.metrics.inc("decode_failures", 1);
            return self.close(session, CloseReason::Decode);
        };
        let now_ms = self.clock.now_ms();
        let base_ms = now_ms + cost(Some(&message));
        let actions = self.node.handle(ServerEvent::Message {
            session,
            message,
            now_ms,
        });
        self.dispatch(actions, base_ms);
    }

    /// Closes a session for `reason`. The first close wins: a session
    /// that failed a send (`Error`) and whose reader later saw EOF keeps
    /// the original reason.
    fn close(&mut self, session: SessionId, reason: CloseReason) {
        if let Some((actions, now_ms)) = self.forget(session, reason) {
            self.dispatch(actions, now_ms);
        }
    }

    /// Drops a live session's writer — hanging up on the peer — and
    /// tells the node, returning what it answers and when. `None` if
    /// the session was not live.
    fn forget(
        &mut self,
        session: SessionId,
        reason: CloseReason,
    ) -> Option<(Vec<ServerAction>, u64)> {
        self.sessions.remove(&session)?;
        self.metrics.inc("sessions_reaped", 1);
        let now_ms = self.clock.now_ms();
        let actions = self.node.handle(ServerEvent::Disconnected {
            session,
            reason,
            now_ms,
        });
        Some((actions, now_ms))
    }

    /// Journals a batch's storage intents, then sends its frames and
    /// arms its timers (counting from `base_ms`). A failed send closes
    /// that session, whose disconnect can emit more actions, so this
    /// works through a queue until nothing is left; then the sink
    /// compacts from the node, whose state now covers every record
    /// journaled.
    fn dispatch(&mut self, actions: Vec<ServerAction>, base_ms: u64) {
        let mut work = vec![(actions, base_ms)];
        while let Some((actions, base_ms)) = work.pop() {
            if let Some(sink) = &mut self.sink {
                let mut persisted = 0;
                for action in &actions {
                    if let ServerAction::Persist(record) = action {
                        sink.persist(record);
                        persisted += 1;
                    }
                }
                self.metrics.inc("records_persisted", persisted);
            }
            for action in actions {
                match action {
                    ServerAction::Send { session, message } => {
                        if let Err(closed) = self.send(session, &message) {
                            work.extend(self.forget(session, close_reason(closed)));
                        }
                    }
                    ServerAction::SetTimer { delay_ms, token } => {
                        self.stats.timers_armed += 1;
                        self.timers.schedule(base_ms + delay_ms, token);
                    }
                    ServerAction::Persist(_) => {}
                }
            }
        }
        if let Some(sink) = &mut self.sink {
            let node = &self.node;
            sink.compact(&mut |domain| node.snapshot(domain));
        }
    }

    /// Encodes `message` and writes it to a live session; a session
    /// already gone is skipped.
    fn send(&mut self, session: SessionId, message: &ServerMessage) -> Result<(), TransportClosed> {
        let Some(writer) = self.sessions.get_mut(&session) else {
            return Ok(());
        };
        self.encode_scratch.clear();
        Frame::encode_into(message, &mut self.encode_scratch);
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += self.encode_scratch.len() as u64;
        writer.write_frame(self.encode_scratch.clone())
    }
}

/// A worker shard: wall time, boxed writers and sinks.
type WorkerShard = Shard<WallClock, Box<dyn FrameWriter>, Box<dyn PersistSink>>;

/// One message in a worker shard's inbox.
enum Inbox {
    /// A session event for the shard.
    Event(ShardEvent<Box<dyn FrameWriter>>),
    /// Snapshot the shard's [`NodeReport`] and reply on the channel.
    Report(Sender<NodeReport>),
    /// Stop taking sessions, drain everything in flight (live sessions,
    /// pending timers), then exit with the final node.
    Shutdown,
}

/// A worker thread's loop: wait on the inbox until the next message or
/// timer deadline, then step the shard. Exits — node in hand — once
/// shut down *and* drained (no live sessions, no pending timers), so
/// nothing a client was acked is ever dropped.
fn work(mut shard: WorkerShard, clock: WallClock, inbox: &Receiver<Inbox>) -> ServerNode {
    let mut closing = false;
    loop {
        let message = match shard.next_deadline() {
            Some(deadline) => {
                let wait = deadline.saturating_sub(clock.now_ms());
                inbox.recv_timeout(Duration::from_millis(wait)).ok()
            }
            None => inbox.recv().ok(),
        };
        let (event, reply) = match message {
            // Dropping the writer refuses a session routed after shutdown.
            Some(Inbox::Event(ShardEvent::Open(..))) if closing => (None, None),
            Some(Inbox::Event(event)) => (Some(event), None),
            Some(Inbox::Report(reply)) => (None, Some(reply)),
            Some(Inbox::Shutdown) => {
                closing = true;
                (None, None)
            }
            None => (None, None),
        };
        shard.step(event, |_| 0);
        if let Some(reply) = reply {
            // A caller that stopped waiting is not an error.
            let _ = reply.send(shard.report());
        }
        if closing && shard.is_idle() {
            return shard.into_node();
        }
    }
}

/// What every session's reader shares: each shard's inbox and the
/// routing counters.
struct Router {
    inboxes: Vec<Sender<Inbox>>,
    next_session: AtomicU64,
    routed: AtomicU64,
    refused: AtomicU64,
    /// Sessions whose reader has not yet routed or refused them.
    pending: AtomicU64,
}

impl Router {
    /// A session's reader thread: route on the first frame, then forward
    /// every frame to the owning shard in order, then the close.
    fn read_session(
        &self,
        session: SessionId,
        mut reader: impl FrameReader,
        writer: Box<dyn FrameWriter>,
    ) {
        let routed = match reader.read_frame() {
            Ok(hello) => self.route(session, writer, hello),
            // Hung up before saying anything: neither routed nor refused.
            Err(_) => None,
        };
        // Only now, so a caller that sees no session pending knows every
        // routed `Open` is already in its shard's inbox.
        self.pending.fetch_sub(1, Ordering::SeqCst);
        let Some(inbox) = routed else {
            return;
        };
        loop {
            match reader.read_frame() {
                Ok(frame) => {
                    if inbox
                        .send(Inbox::Event(ShardEvent::Frame(session, frame)))
                        .is_err()
                    {
                        return;
                    }
                }
                Err(closed) => {
                    let closed = ShardEvent::Closed(session, close_reason(closed));
                    let _ = inbox.send(Inbox::Event(closed));
                    return;
                }
            }
        }
    }

    /// Opens the session on the shard that owns its `Hello`'s domain and
    /// returns that shard's inbox. Anything but a `Hello` is refused:
    /// both halves drop, which the peer sees as a hang-up.
    fn route(
        &self,
        session: SessionId,
        writer: Box<dyn FrameWriter>,
        hello: Vec<u8>,
    ) -> Option<&Sender<Inbox>> {
        let opened = hello_domain(&hello).and_then(|domain| {
            let inbox = &self.inboxes[shard_for(domain, self.inboxes.len())];
            inbox
                .send(Inbox::Event(ShardEvent::Open(session, writer, hello)))
                .ok()?;
            Some(inbox)
        });
        let counter = if opened.is_some() {
            &self.routed
        } else {
            &self.refused
        };
        counter.fetch_add(1, Ordering::SeqCst);
        opened
    }
}

/// N domain-affine worker shards and the per-session reader threads
/// that feed them.
///
/// Its owner accepts sessions (the deployments in `shadow`: a new pipe
/// per client, or a TCP listener) and hands each one, split into
/// halves, to [`serve`](Self::serve). The session's first frame must be the
/// protocol's `Hello`, whose domain id picks the owning shard via
/// [`shard_for`]; that shard sees the session's frames
/// unmodified from the `Hello` on.
pub struct ShardedServerRuntime {
    router: Arc<Router>,
    workers: Vec<JoinHandle<ServerNode>>,
}

impl std::fmt::Debug for ShardedServerRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedServerRuntime")
            .field("shards", &self.workers.len())
            .field("pending", &self.pending_count())
            .field("routed", &self.router.routed.load(Ordering::SeqCst))
            .field("refused", &self.router.refused.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl ShardedServerRuntime {
    /// Starts one worker shard per part: its node (fresh, or already
    /// restored from that shard's journal) and the sink its storage
    /// intents are journaled to. Durable deployments construct the
    /// parts so that shard `i`'s journal holds exactly the domains
    /// [`shard_for`] maps to `i` — the journal shards with the same
    /// affinity as the protocol state.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty: a deployment with zero shards
    /// cannot route anything.
    pub fn from_parts(parts: Vec<(ServerNode, Option<Box<dyn PersistSink>>)>) -> Self {
        assert!(
            !parts.is_empty(),
            "a sharded runtime needs at least one shard"
        );
        let clock = WallClock::new();
        let (inboxes, workers) = parts
            .into_iter()
            .enumerate()
            .map(|(i, (node, sink))| {
                let (tx, rx) = channel();
                // The worker holds a sender to its own inbox, so the inbox
                // never reports a disconnect: shutdown is always the
                // explicit event, and a wait for a timer deadline is
                // always a real wait.
                let keepalive = tx.clone();
                let join = std::thread::Builder::new()
                    .name(format!("shadow-shard-{i}"))
                    .spawn(move || {
                        let _keepalive = keepalive;
                        work(Shard::new(node, sink, clock), clock, &rx)
                    })
                    .expect("spawn shard worker thread");
                (tx, join)
            })
            .unzip();
        ShardedServerRuntime {
            router: Arc::new(Router {
                inboxes,
                next_session: AtomicU64::new(1),
                routed: AtomicU64::new(0),
                refused: AtomicU64::new(0),
                pending: AtomicU64::new(0),
            }),
            workers,
        }
    }

    /// Serves one accepted session, split into its halves: starts the
    /// session's reader thread, which routes it on its `Hello` and hands
    /// the writer to the owning shard. A session whose reader cannot be
    /// started is refused.
    pub fn serve(&self, reader: impl FrameReader, writer: impl FrameWriter) {
        let router = Arc::clone(&self.router);
        let session = SessionId::new(router.next_session.fetch_add(1, Ordering::SeqCst));
        router.pending.fetch_add(1, Ordering::SeqCst);
        let writer: Box<dyn FrameWriter> = Box::new(writer);
        let spawned = std::thread::Builder::new()
            .name("shadow-session-reader".to_string())
            .stack_size(READER_STACK)
            .spawn(move || router.read_session(session, reader, writer));
        if spawned.is_err() {
            // Both halves dropped with the closure: the peer sees a hang-up.
            self.router.refused.fetch_add(1, Ordering::SeqCst);
            self.router.pending.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Sessions accepted but not yet routed or refused (no first frame
    /// read yet).
    pub fn pending_count(&self) -> usize {
        self.router.pending.load(Ordering::SeqCst) as usize
    }

    /// Asks every shard whether it has fully drained (no live sessions,
    /// no pending timers). A shard that does not answer has exited,
    /// which is drained by definition.
    pub fn shards_idle(&self) -> bool {
        self.router
            .inboxes
            .iter()
            .filter_map(request_report)
            .all(|report| {
                report.value("server_runtime", "sessions_live") == 0.0
                    && report.value("server_runtime", "timers_pending") == 0.0
            })
    }

    /// The aggregate report: every shard's [`NodeReport`] merged
    /// key-wise (counters and gauges sum — each session, domain, and
    /// job lives on exactly one shard), plus a `shards` section with
    /// routing totals and a `shardN` section of headline gauges per
    /// shard.
    pub fn report(&self) -> NodeReport {
        let snapshots: Vec<NodeReport> = self
            .router
            .inboxes
            .iter()
            .filter_map(request_report)
            .collect();
        let mut merged = merge_reports("server", &snapshots);
        merged.add_section(
            Section::new("shards")
                .with("count", self.workers.len())
                .with("routed", self.router.routed.load(Ordering::SeqCst))
                .with("refused", self.router.refused.load(Ordering::SeqCst))
                .with("pending", self.pending_count()),
        );
        for (i, snapshot) in snapshots.iter().enumerate() {
            let Some(name) = shard_section_name(i) else {
                // Past the static name table: totals above still
                // include this shard, only the breakdown is elided.
                break;
            };
            merged.add_section(
                Section::new(name)
                    .with(
                        "sessions_live",
                        snapshot.value("server_runtime", "sessions_live"),
                    )
                    .with(
                        "sessions_accepted",
                        snapshot.counter("server_runtime", "sessions_accepted"),
                    )
                    .with(
                        "frames_fed",
                        snapshot.counter("server_runtime", "frames_fed"),
                    )
                    .with(
                        "jobs_completed",
                        snapshot.counter("server", "jobs_completed"),
                    ),
            );
        }
        merged
    }

    /// Graceful drain: tells every shard to stop taking sessions, lets
    /// each finish its live sessions and pending timers, and joins them
    /// all, returning the final per-shard protocol states (index order).
    pub fn shutdown(mut self) -> Vec<ServerNode> {
        // Signal everyone first so all shards drain concurrently.
        self.signal_shutdown();
        std::mem::take(&mut self.workers)
            .into_iter()
            .map(|w| w.join().expect("shard worker panicked"))
            .collect()
    }

    fn signal_shutdown(&self) {
        for inbox in &self.router.inboxes {
            let _ = inbox.send(Inbox::Shutdown);
        }
    }
}

impl Drop for ShardedServerRuntime {
    /// Dropped without [`shutdown`](Self::shutdown), the shards still
    /// drain and exit on their own, detached.
    fn drop(&mut self) {
        self.signal_shutdown();
    }
}

/// Requests a report snapshot from one shard, waiting up to
/// [`REPORT_TIMEOUT`].
fn request_report(inbox: &Sender<Inbox>) -> Option<NodeReport> {
    let (reply, answer) = channel();
    inbox.send(Inbox::Report(reply)).ok()?;
    answer.recv_timeout(REPORT_TIMEOUT).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_proto::{HostName, PersistRecord, PROTOCOL_VERSION};
    use shadow_server::ServerConfig;

    fn hello(domain: u64) -> Vec<u8> {
        Frame::encode(&ClientMessage::Hello {
            domain: DomainId::new(domain),
            host: HostName::new("ws"),
            protocol: PROTOCOL_VERSION,
            epoch: 0,
            resume: Vec::new(),
        })
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for n in [1, 2, 4, 8] {
            for d in 0..64 {
                let domain = DomainId::new(d);
                let first = shard_for(domain, n);
                assert!(first < n);
                assert_eq!(first, shard_for(domain, n), "assignment must be stable");
            }
        }
        // All shards of a small pool get some domain (FNV spreads u64s).
        let hit: std::collections::HashSet<usize> =
            (0..64).map(|d| shard_for(DomainId::new(d), 4)).collect();
        assert_eq!(hit.len(), 4, "64 domains must cover all 4 shards");
    }

    #[test]
    fn zero_shards_rounds_up() {
        assert_eq!(shard_for(DomainId::new(7), 0), 0);
    }

    #[test]
    fn hello_peek_rejects_non_hello() {
        assert_eq!(hello_domain(&hello(9)), Some(DomainId::new(9)));
        let status = Frame::encode(&ClientMessage::StatusQuery {
            request: shadow_proto::RequestId::new(1),
            job: None,
        });
        assert_eq!(hello_domain(&status), None);
        assert_eq!(hello_domain(b"garbage"), None);
        assert_eq!(hello_domain(&[]), None);
    }

    /// A writer whose peer is already gone.
    struct ResetWriter;

    impl FrameWriter for ResetWriter {
        fn write_frame(&mut self, _frame: Vec<u8>) -> Result<(), TransportClosed> {
            Err(TransportClosed::Error(std::io::ErrorKind::ConnectionReset))
        }
    }

    #[test]
    fn the_first_close_reason_wins() {
        let node = ServerNode::new(ServerConfig::new("sc"));
        let mut shard = WorkerShard::new(node, None, WallClock::new());
        let session = SessionId::new(1);
        // Answering the Hello fails, which closes the session as `Error`…
        let open = ShardEvent::Open(session, Box::new(ResetWriter) as _, hello(1));
        shard.step(Some(open), |_| 0);
        // …so the reader's later EOF and straggling frames change nothing.
        shard.step(Some(ShardEvent::Closed(session, CloseReason::Clean)), |_| 0);
        shard.step(Some(ShardEvent::Frame(session, b"late".to_vec())), |_| 0);
        let report = shard.report();
        assert_eq!(report.counter("server", "closed_error"), 1);
        assert_eq!(report.counter("server", "closed_clean"), 0);
        assert_eq!(report.counter("server_runtime", "sessions_reaped"), 1);
        assert_eq!(report.counter("server_runtime", "frames_fed"), 1);
        assert!(shard.sessions.is_empty());
    }

    /// A writer whose peer takes every frame.
    struct OpenWriter;

    impl FrameWriter for OpenWriter {
        fn write_frame(&mut self, _frame: Vec<u8>) -> Result<(), TransportClosed> {
            Ok(())
        }
    }

    #[derive(Debug, PartialEq)]
    enum SinkCall {
        Persist(PersistRecord),
        Compact(Vec<PersistRecord>),
    }

    /// A sink that reports every call, compacting domain 1 each time.
    #[derive(Debug)]
    struct RecordingSink(Sender<SinkCall>);

    impl PersistSink for RecordingSink {
        fn persist(&mut self, record: &PersistRecord) {
            self.0.send(SinkCall::Persist(record.clone())).unwrap();
        }

        fn compact(&mut self, state: &mut dyn FnMut(DomainId) -> Vec<PersistRecord>) {
            self.0
                .send(SinkCall::Compact(state(DomainId::new(1))))
                .unwrap();
        }
    }

    #[test]
    fn dispatch_compacts_after_persisting_from_the_node_state() {
        use shadow_proto::{ContentDigest, FileId, TransferEncoding, UpdatePayload, VersionNumber};
        let (tx, calls) = channel();
        let node = ServerNode::new(ServerConfig::new("sc"));
        let sink: Box<dyn PersistSink> = Box::new(RecordingSink(tx));
        let mut shard = WorkerShard::new(node, Some(sink), WallClock::new());
        let session = SessionId::new(1);
        let content = b"a\nb\n";
        let notify = Frame::encode(&ClientMessage::NotifyVersion {
            file: FileId::new(7),
            name: "/f".into(),
            version: VersionNumber::FIRST,
            size: content.len() as u64,
            digest: ContentDigest::of(content),
        });
        let open = ShardEvent::Open(session, Box::new(OpenWriter) as _, hello(1));
        shard.step(Some(open), |_| 0);
        shard.step(Some(ShardEvent::Frame(session, notify)), |_| 0);
        calls.try_iter().for_each(drop);

        let update = Frame::encode(&ClientMessage::Update {
            file: FileId::new(7),
            version: VersionNumber::FIRST,
            payload: UpdatePayload::Full {
                encoding: TransferEncoding::Identity,
                data: bytes::Bytes::from_static(content),
                digest: ContentDigest::of(content),
            },
        });
        shard.step(Some(ShardEvent::Frame(session, update)), |_| 0);
        let calls: Vec<SinkCall> = calls.try_iter().collect();
        let snapshot = shard.node().snapshot(DomainId::new(1));
        assert!(matches!(snapshot[..], [PersistRecord::CacheFull { .. }]));
        // The step dispatches the frame's output (no timer is due): the
        // dispatch ends in one compaction, after its persists.
        assert_eq!(
            calls,
            [
                SinkCall::Persist(snapshot[0].clone()),
                SinkCall::Compact(snapshot),
            ]
        );
    }
}

//! The server runtime: domain-affine worker shards, each fed by one
//! blocking inbox.
//!
//! The paper's server is one process answering each client's requests
//! as they arrive. Every wall-clock deployment here is **N worker
//! shards** (N = 1 is that one process), each owning its *own* sans-io
//! `ServerNode` and one inbox of events. Every accepted session is split
//! in two ([`ShardedServerRuntime::serve`]): the shard keeps the writer
//! half, and a small per-session reader thread owns the reader half. The
//! reader blocks on the pipe or socket, decodes the session's first
//! frame as a `Hello` to learn its naming domain — refusing the session
//! if it is anything else — and then forwards every frame, in order, to
//! the inbox of the shard that owns the domain, followed by a close when
//! the peer goes.
//!
//! A shard blocks in exactly one place: its inbox, until the next event
//! or the driver's next timer deadline. Between two waits it handles the
//! one event that woke it and fires due timers (`Shard::step`); there is
//! no sweep over idle sessions and no nap.
//!
//! Domain affinity is the load-bearing invariant: shard assignment is a
//! stable `hash(domain) % N` ([`shard_for`]), so every session of one
//! domain lands on the same shard, per-domain protocol state (shadow
//! cache entries, announcer/ in-flight maps, job tables) never crosses a
//! thread boundary, and **no shared mutable protocol state exists at
//! all** — readers and shards communicate only by moving frames, writer
//! halves and report snapshots over channels. The sans-io cores are
//! untouched: the exact state machines the model checker explores are
//! what runs on every shard.
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

use shadow_obs::{merge_reports, shard_section_name, MetricsRegistry, NodeReport, Section};
use shadow_proto::{ClientMessage, DomainId, Frame, StableHasher};
use shadow_server::{CloseReason, ServerNode, SessionId};

use crate::clock::{Clock, WallClock};
use crate::server_driver::{ServerDriver, ServerIo};
use crate::sink::PersistSink;
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

/// One event in a worker shard's inbox.
enum ShardEvent {
    /// A routed session: its id, its writer half and its `Hello` frame.
    Open(SessionId, Box<dyn FrameWriter>, Vec<u8>),
    /// The next frame a session's reader read.
    Frame(SessionId, Vec<u8>),
    /// A session's reader saw the peer go.
    Closed(SessionId, CloseReason),
    /// Snapshot the shard's [`NodeReport`] and reply on the channel.
    Report(Sender<NodeReport>),
    /// Stop taking sessions, drain everything in flight (live sessions,
    /// pending timers), then exit with the final node.
    Shutdown,
}

/// One worker shard: its driver, the writer half of every live session
/// and the loop's counters.
struct Shard {
    driver: ServerDriver,
    clock: WallClock,
    sessions: HashMap<SessionId, Box<dyn FrameWriter>>,
    metrics: MetricsRegistry,
    /// Where storage intents go; `None` drops them (diskless).
    sink: Option<Box<dyn PersistSink>>,
    closing: bool,
}

impl Shard {
    fn new(node: ServerNode, sink: Option<Box<dyn PersistSink>>, clock: WallClock) -> Self {
        let mut metrics = MetricsRegistry::new();
        metrics.histogram("frame_bytes", FRAME_SIZE_BUCKETS.to_vec());
        Shard {
            driver: ServerDriver::new(node),
            clock,
            sessions: HashMap::new(),
            metrics,
            sink,
            closing: false,
        }
    }

    /// The worker loop: wait on the inbox until the next event or timer
    /// deadline, then step. Exits — node in hand — once shut down *and*
    /// drained (no live sessions, no pending timers), so nothing a
    /// client was acked is ever dropped.
    fn run(mut self, inbox: &Receiver<ShardEvent>) -> ServerNode {
        loop {
            let event = match self.driver.next_deadline() {
                Some(deadline) => {
                    let wait = deadline.saturating_sub(self.clock.now_ms());
                    inbox.recv_timeout(Duration::from_millis(wait)).ok()
                }
                None => inbox.recv().ok(),
            };
            if self.step(event) {
                return self.driver.into_node();
            }
        }
    }

    /// Everything a shard does between two inbox waits: handle the event
    /// that woke it (`None` is a timer deadline), fire due timers and
    /// refresh the gauges. Returns `true` once the shard is shut down
    /// and drained.
    fn step(&mut self, event: Option<ShardEvent>) -> bool {
        self.metrics.inc("polls", 1);
        match event {
            Some(ShardEvent::Open(session, writer, hello)) => self.open(session, writer, &hello),
            Some(ShardEvent::Frame(session, frame)) => self.feed(session, &frame),
            Some(ShardEvent::Closed(session, reason)) => self.close(session, reason),
            Some(ShardEvent::Report(reply)) => {
                // A caller that stopped waiting is not an error.
                let _ = reply.send(self.report());
            }
            Some(ShardEvent::Shutdown) => self.closing = true,
            None => {}
        }
        let io = self.driver.fire_due(self.clock.now_ms(), 0);
        self.dispatch(io);
        self.metrics.set_gauge("sessions_live", self.sessions.len() as i64);
        self.metrics
            .set_gauge("timers_pending", i64::from(!self.driver.timers_idle()));
        self.closing && self.sessions.is_empty() && self.driver.timers_idle()
    }

    fn open(&mut self, session: SessionId, writer: Box<dyn FrameWriter>, hello: &[u8]) {
        if self.closing {
            // Dropping the writer refuses a session routed after shutdown.
            return;
        }
        self.sessions.insert(session, writer);
        self.metrics.inc("sessions_accepted", 1);
        let io = self.driver.connected(session, self.clock.now_ms());
        self.dispatch(io);
        self.feed(session, hello);
    }

    fn feed(&mut self, session: SessionId, frame: &[u8]) {
        if !self.sessions.contains_key(&session) {
            // Closed here already: the reader's late frames are moot.
            return;
        }
        self.metrics.inc("frames_fed", 1);
        self.metrics.observe("frame_bytes", frame.len() as u64);
        match self.driver.feed_frame(session, frame, self.clock.now_ms(), |_| 0) {
            Ok(io) => self.dispatch(io),
            // A frame that cannot be decoded means the peer is hopelessly
            // confused; drop them.
            Err(_) => {
                self.metrics.inc("decode_failures", 1);
                self.close(session, CloseReason::Decode);
            }
        }
    }

    /// Closes a session for `reason`. The first close wins: a session
    /// that failed a send (`Error`) and whose reader later saw EOF keeps
    /// the original reason.
    fn close(&mut self, session: SessionId, reason: CloseReason) {
        if let Some(io) = self.forget(session, reason) {
            self.dispatch(io);
        }
    }

    /// Drops a live session's writer — hanging up on the peer — and
    /// reports the disconnect to the driver. `None` if it was not live.
    fn forget(&mut self, session: SessionId, reason: CloseReason) -> Option<ServerIo> {
        self.sessions.remove(&session)?;
        self.metrics.inc("sessions_reaped", 1);
        Some(self.driver.disconnected(session, reason, self.clock.now_ms()))
    }

    /// Journals the driver's storage intents and sends its frames. A
    /// failed send closes that session, whose disconnect can emit more
    /// output, so this works through a queue until nothing is left;
    /// then the sink compacts from the node, whose state now covers
    /// every record journaled. Armed deadlines are ignored:
    /// [`run`](Self::run) asks the driver for its next deadline before
    /// every wait.
    fn dispatch(&mut self, io: ServerIo) {
        let mut work = vec![io];
        while let Some(io) = work.pop() {
            if let Some(sink) = &mut self.sink {
                for record in &io.persists {
                    sink.persist(record);
                }
                self.metrics.inc("records_persisted", io.persists.len() as u64);
            }
            for out in io.outbound {
                let Some(writer) = self.sessions.get_mut(&out.session) else {
                    continue;
                };
                if let Err(closed) = writer.write_frame(out.frame) {
                    work.extend(self.forget(out.session, close_reason(closed)));
                }
            }
        }
        if let Some(sink) = &mut self.sink {
            let node = self.driver.node();
            sink.compact(&mut |domain| node.snapshot(domain));
        }
    }

    /// The driver's full [`NodeReport`] extended with a `server_runtime`
    /// section from the loop's registry, plus the installed sink's
    /// section (the durable store's journal counters) when there is one.
    fn report(&self) -> NodeReport {
        let mut report = self.driver.report();
        report.add_section(self.metrics.to_section("server_runtime"));
        if let Some(section) = self.sink.as_ref().and_then(|s| s.report_section()) {
            report.add_section(section);
        }
        report
    }
}

/// What every session's reader shares: each shard's inbox and the
/// routing counters.
struct Router {
    inboxes: Vec<Sender<ShardEvent>>,
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
                    if inbox.send(ShardEvent::Frame(session, frame)).is_err() {
                        return;
                    }
                }
                Err(closed) => {
                    let _ = inbox.send(ShardEvent::Closed(session, close_reason(closed)));
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
    ) -> Option<&Sender<ShardEvent>> {
        let opened = hello_domain(&hello).and_then(|domain| {
            let inbox = &self.inboxes[shard_for(domain, self.inboxes.len())];
            inbox.send(ShardEvent::Open(session, writer, hello)).ok()?;
            Some(inbox)
        });
        let counter = if opened.is_some() { &self.routed } else { &self.refused };
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
/// [`shard_for`]; that shard's driver sees the session's frames
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
        assert!(!parts.is_empty(), "a sharded runtime needs at least one shard");
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
                        Shard::new(node, sink, clock).run(&rx)
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
        let snapshots: Vec<NodeReport> =
            self.router.inboxes.iter().filter_map(request_report).collect();
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
                    .with("frames_fed", snapshot.counter("server_runtime", "frames_fed"))
                    .with("jobs_completed", snapshot.counter("server", "jobs_completed")),
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
            let _ = inbox.send(ShardEvent::Shutdown);
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
fn request_report(inbox: &Sender<ShardEvent>) -> Option<NodeReport> {
    let (reply, answer) = channel();
    inbox.send(ShardEvent::Report(reply)).ok()?;
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
        let mut shard = Shard::new(node, None, WallClock::new());
        let session = SessionId::new(1);
        // Answering the Hello fails, which closes the session as `Error`…
        shard.step(Some(ShardEvent::Open(session, Box::new(ResetWriter), hello(1))));
        // …so the reader's later EOF and straggling frames change nothing.
        shard.step(Some(ShardEvent::Closed(session, CloseReason::Clean)));
        shard.step(Some(ShardEvent::Frame(session, b"late".to_vec())));
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
            self.0.send(SinkCall::Compact(state(DomainId::new(1)))).unwrap();
        }
    }

    #[test]
    fn dispatch_compacts_after_persisting_from_the_node_state() {
        use shadow_proto::{ContentDigest, FileId, TransferEncoding, UpdatePayload, VersionNumber};
        let (tx, calls) = channel();
        let node = ServerNode::new(ServerConfig::new("sc"));
        let mut shard = Shard::new(node, Some(Box::new(RecordingSink(tx))), WallClock::new());
        let session = SessionId::new(1);
        let content = b"a\nb\n";
        let notify = Frame::encode(&ClientMessage::NotifyVersion {
            file: FileId::new(7),
            name: "/f".into(),
            version: VersionNumber::FIRST,
            size: content.len() as u64,
            digest: ContentDigest::of(content),
        });
        shard.step(Some(ShardEvent::Open(session, Box::new(OpenWriter), hello(1))));
        shard.step(Some(ShardEvent::Frame(session, notify)));
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
        shard.step(Some(ShardEvent::Frame(session, update)));
        let calls: Vec<SinkCall> = calls.try_iter().collect();
        let snapshot = shard.driver.node().snapshot(DomainId::new(1));
        assert!(matches!(snapshot[..], [PersistRecord::CacheFull { .. }]));
        // The step dispatches the frame's output, then its due timers:
        // each dispatch ends in one compaction, after its persists.
        assert_eq!(
            calls,
            [
                SinkCall::Persist(snapshot[0].clone()),
                SinkCall::Compact(snapshot.clone()),
                SinkCall::Compact(snapshot),
            ]
        );
    }
}

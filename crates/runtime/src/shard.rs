//! The server runtime: domain-affine worker shards behind a routing
//! acceptor.
//!
//! The paper's server is one process polling a handful of editing
//! clients in sequence. Every wall-clock deployment here is **N worker
//! shards** (N = 1 is that one process), each owning its *own* sans-io
//! `ServerNode` (wrapped in the [`ServerRuntime`] session loop) and an
//! mpsc command inbox, behind a thin acceptor that peeks each new
//! session's `Hello` frame to learn its naming domain and hands the
//! transport to the shard that owns that domain.
//!
//! Domain affinity is the load-bearing invariant: shard assignment is a
//! stable `hash(domain) % N` ([`shard_for`]), so every session of one
//! domain lands on the same shard, per-domain protocol state (shadow
//! cache entries, announcer/ in-flight maps, job tables) never crosses a
//! thread boundary, and **no shared mutable protocol state exists at
//! all** — shards communicate with the router only by moving transports
//! and report snapshots over channels. The sans-io cores are untouched:
//! the exact state machines the model checker explores are what runs on
//! every shard.
//!
//! Concurrency therefore lives *here and only here* (plus the thin
//! deployment adapters in `shadow`): `shadow-check lint`'s thread-purity
//! rule forbids `std::thread`, `Mutex`, and `mpsc` from appearing in the
//! protocol crates, keeping the refactor honest.

use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::thread::JoinHandle;
use std::time::Duration;

use shadow_obs::{merge_reports, shard_section_name, NodeReport, Section};
use shadow_proto::{ClientMessage, DomainId, Frame, StableHasher};
use shadow_server::ServerNode;

use crate::clock::Clock;
use crate::server_runtime::{Accepted, ServerRuntime, SessionAcceptor};
use crate::sink::PersistSink;
use crate::transport::{FrameTransport, TransportClosed};

/// How long [`ShardedServerRuntime::report`] waits for each shard's
/// snapshot before skipping it. A shard only fails to answer within
/// this budget when its worker has already exited.
const REPORT_TIMEOUT: Duration = Duration::from_secs(5);

/// Worker-side nap when a poll round found no work.
const IDLE_NAP: Duration = Duration::from_micros(200);

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

/// Decodes a peeked first frame as a `Hello` and extracts the domain.
/// Anything else — a different message, garbage bytes, a truncated
/// frame — means the peer does not speak the protocol's opening line,
/// and the router refuses the session.
fn hello_domain(frame: &[u8]) -> Option<DomainId> {
    match Frame::decode::<ClientMessage>(frame) {
        Ok(Some((ClientMessage::Hello { domain, .. }, _))) => Some(domain),
        _ => None,
    }
}

/// A transport whose first inbound frame was already consumed by the
/// routing acceptor's `Hello` peek and must be replayed to the shard's
/// driver before the underlying stream continues.
pub struct PeekedTransport<T> {
    replay: Option<Vec<u8>>,
    inner: T,
}

// Manual impl: wrapped transports need not be `Debug`.
impl<T> std::fmt::Debug for PeekedTransport<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeekedTransport")
            .field("replay", &self.replay.as_ref().map(Vec::len))
            .finish_non_exhaustive()
    }
}

impl<T> PeekedTransport<T> {
    /// Wraps `inner`, stashing the peeked `frame` for replay.
    pub fn new(frame: Vec<u8>, inner: T) -> Self {
        PeekedTransport {
            replay: Some(frame),
            inner,
        }
    }
}

impl<T: FrameTransport> FrameTransport for PeekedTransport<T> {
    fn send_frame(&mut self, frame: Vec<u8>) -> Result<(), TransportClosed> {
        self.inner.send_frame(frame)
    }

    fn recv_frame(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, TransportClosed> {
        if let Some(frame) = self.replay.take() {
            return Ok(Some(frame));
        }
        self.inner.recv_frame(timeout)
    }

    fn try_recv_frame(&mut self) -> Result<Option<Vec<u8>>, TransportClosed> {
        if let Some(frame) = self.replay.take() {
            return Ok(Some(frame));
        }
        self.inner.try_recv_frame()
    }
}

/// One instruction from the router to a worker shard.
pub enum ShardCommand<T> {
    /// A routed session: the transport plus its already-peeked `Hello`.
    NewSession(PeekedTransport<T>),
    /// Snapshot the shard's [`NodeReport`] and reply on the channel.
    ReportRequest(Sender<NodeReport>),
    /// Stop accepting sessions, drain everything in flight (live
    /// sessions, pending timers), then exit with the final node.
    Shutdown,
}

// Manual impl: transports need not be `Debug`.
impl<T> std::fmt::Debug for ShardCommand<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ShardCommand::NewSession(_) => "ShardCommand::NewSession(..)",
            ShardCommand::ReportRequest(_) => "ShardCommand::ReportRequest(..)",
            ShardCommand::Shutdown => "ShardCommand::Shutdown",
        })
    }
}

/// The worker-side [`SessionAcceptor`]: a shard's command inbox.
///
/// `NewSession` commands surface as accepted sessions; `Shutdown` (or
/// the router dropping every sender) surfaces as [`Accepted::Closed`];
/// `ReportRequest`s are stashed for the worker loop to answer between
/// polls (via [`ServerRuntime::acceptor_mut`]).
pub struct ShardInbox<T> {
    rx: Receiver<ShardCommand<T>>,
    reports: Vec<Sender<NodeReport>>,
    closed: bool,
}

// Manual impl: transports need not be `Debug`.
impl<T> std::fmt::Debug for ShardInbox<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardInbox")
            .field("reports", &self.reports.len())
            .field("closed", &self.closed)
            .finish_non_exhaustive()
    }
}

impl<T> ShardInbox<T> {
    fn new(rx: Receiver<ShardCommand<T>>) -> Self {
        ShardInbox {
            rx,
            reports: Vec::new(),
            closed: false,
        }
    }

    /// Takes the report requests that arrived since the last call.
    pub fn take_report_requests(&mut self) -> Vec<Sender<NodeReport>> {
        std::mem::take(&mut self.reports)
    }

    /// Drains control commands after the accept path has closed: report
    /// requests are still collected, late sessions are refused (their
    /// transports drop, which the peer sees as a disconnect).
    fn drain_control(&mut self) {
        loop {
            match self.rx.try_recv() {
                Ok(ShardCommand::ReportRequest(reply)) => self.reports.push(reply),
                Ok(ShardCommand::NewSession(_)) | Ok(ShardCommand::Shutdown) => {}
                Err(_) => break,
            }
        }
    }
}

impl<T: FrameTransport> SessionAcceptor for ShardInbox<T> {
    type Transport = PeekedTransport<T>;
    type Error = std::convert::Infallible;

    fn poll_accept(&mut self) -> Result<Accepted<PeekedTransport<T>>, Self::Error> {
        loop {
            return Ok(match self.rx.try_recv() {
                Ok(ShardCommand::NewSession(transport)) => Accepted::Session(transport),
                Ok(ShardCommand::ReportRequest(reply)) => {
                    self.reports.push(reply);
                    continue;
                }
                Ok(ShardCommand::Shutdown) | Err(TryRecvError::Disconnected) => {
                    self.closed = true;
                    Accepted::Closed
                }
                Err(TryRecvError::Empty) => Accepted::None,
            });
        }
    }
}

/// The worker loop: a plain [`ServerRuntime`] fed from the command
/// inbox, answering report requests between polls, exiting — node in
/// hand — once shut down *and* fully drained (no live sessions, no
/// pending timers), so nothing a client was acked is ever dropped.
fn shard_worker<T, C>(
    node: ServerNode,
    sink: Option<Box<dyn PersistSink>>,
    rx: Receiver<ShardCommand<T>>,
    clock: C,
) -> ServerNode
where
    T: FrameTransport,
    C: Clock,
{
    let mut runtime = ServerRuntime::new(node, ShardInbox::new(rx), clock);
    if let Some(sink) = sink {
        runtime = runtime.with_sink(sink);
    }
    loop {
        let Ok(busy) = runtime.poll_once();
        if runtime.acceptor_closed() {
            runtime.acceptor_mut().drain_control();
        }
        let replies = runtime.acceptor_mut().take_report_requests();
        if !replies.is_empty() {
            let report = runtime.report();
            for reply in replies {
                // A router that stopped waiting is not an error.
                let _ = reply.send(report.clone());
            }
        }
        if runtime.acceptor_closed() && runtime.idle() {
            return runtime.into_node();
        }
        if !busy {
            std::thread::sleep(IDLE_NAP);
        }
    }
}

/// The router's handle to one worker shard: the command channel plus
/// the worker's join handle.
pub struct ShardHandle<T> {
    tx: Sender<ShardCommand<T>>,
    join: JoinHandle<ServerNode>,
}

impl<T> std::fmt::Debug for ShardHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardHandle").finish_non_exhaustive()
    }
}

impl<T: FrameTransport + Send + 'static> ShardHandle<T> {
    /// Spawns a worker shard around a node (fresh or journal-restored)
    /// and the sink its storage intents go to, if any.
    fn spawn<C>(
        index: usize,
        node: ServerNode,
        sink: Option<Box<dyn PersistSink>>,
        clock: C,
    ) -> Self
    where
        C: Clock + Send + 'static,
    {
        let (tx, rx) = channel();
        let join = std::thread::Builder::new()
            .name(format!("shadow-shard-{index}"))
            .spawn(move || shard_worker(node, sink, rx, clock))
            .expect("spawn shard worker thread");
        ShardHandle { tx, join }
    }

    /// Routes a peeked session to this shard. Returns `false` if the
    /// worker is gone (the session drops, surfacing as a disconnect).
    pub fn send_session(&self, transport: PeekedTransport<T>) -> bool {
        self.tx.send(ShardCommand::NewSession(transport)).is_ok()
    }

    /// Requests a report snapshot, waiting up to [`REPORT_TIMEOUT`].
    pub fn request_report(&self) -> Option<NodeReport> {
        let (reply_tx, reply_rx) = channel();
        self.tx.send(ShardCommand::ReportRequest(reply_tx)).ok()?;
        reply_rx.recv_timeout(REPORT_TIMEOUT).ok()
    }

    /// Tells the worker to drain and exit, then joins it, returning the
    /// shard's final protocol state.
    pub fn shutdown(self) -> ServerNode {
        let _ = self.tx.send(ShardCommand::Shutdown);
        self.join.join().expect("shard worker panicked")
    }
}

/// N domain-affine worker shards behind one routing acceptor.
///
/// The router owns the deployment's [`SessionAcceptor`] and is polled by
/// its owner (the deployments in `shadow` wrap
/// [`poll_once`](Self::poll_once) in a thread or a blocking loop).
/// Each accepted transport parks in a *pending* list until its first
/// frame arrives; the frame must be the protocol's `Hello`, whose
/// domain id picks the owning shard via [`shard_for`]. The frame
/// travels with the transport (a [`PeekedTransport`]) so the shard's
/// driver sees the byte stream unmodified from the first frame on.
pub struct ShardedServerRuntime<A: SessionAcceptor> {
    acceptor: A,
    pending: Vec<A::Transport>,
    shards: Vec<ShardHandle<A::Transport>>,
    closed: bool,
    routed: u64,
    refused: u64,
}

impl<A: SessionAcceptor> std::fmt::Debug for ShardedServerRuntime<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedServerRuntime")
            .field("shards", &self.shards.len())
            .field("pending", &self.pending.len())
            .field("closed", &self.closed)
            .field("routed", &self.routed)
            .field("refused", &self.refused)
            .finish_non_exhaustive()
    }
}

impl<A> ShardedServerRuntime<A>
where
    A: SessionAcceptor,
    A::Transport: Send + 'static,
{
    /// Builds the runtime from pre-built per-shard parts: each shard's
    /// node (fresh, or already restored from that shard's journal) and
    /// the sink its storage intents are journaled to. Durable
    /// deployments construct the parts so that shard `i`'s journal holds
    /// exactly the domains [`shard_for`] maps to `i` — the journal
    /// shards with the same affinity as the protocol state.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty: a deployment with zero shards
    /// cannot route anything.
    pub fn from_parts<C>(
        parts: Vec<(ServerNode, Option<Box<dyn PersistSink>>)>,
        acceptor: A,
        clock: C,
    ) -> Self
    where
        C: Clock + Clone + Send + 'static,
    {
        assert!(!parts.is_empty(), "a sharded runtime needs at least one shard");
        let handles = parts
            .into_iter()
            .enumerate()
            .map(|(i, (node, sink))| ShardHandle::spawn(i, node, sink, clock.clone()))
            .collect();
        ShardedServerRuntime {
            acceptor,
            pending: Vec::new(),
            shards: handles,
            closed: false,
            routed: 0,
            refused: 0,
        }
    }

    /// Sessions accepted but not yet routed (no `Hello` seen yet).
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// True when the router has nothing left to do: no new sessions can
    /// arrive and none are parked awaiting a `Hello`. (Shards may still
    /// be busy; [`shards_idle`](Self::shards_idle) asks them.)
    pub fn router_idle(&self) -> bool {
        self.closed && self.pending.is_empty()
    }

    /// One routing round: accept transports, peek `Hello`s, hand routed
    /// sessions to their shards. Returns `true` if any work happened.
    ///
    /// # Errors
    ///
    /// Listener failures, exactly as [`ServerRuntime::poll_once`].
    pub fn poll_once(&mut self) -> Result<bool, A::Error> {
        let mut busy = false;

        if !self.closed {
            loop {
                match self.acceptor.poll_accept()? {
                    Accepted::Session(transport) => {
                        self.pending.push(transport);
                        busy = true;
                    }
                    Accepted::None => break,
                    Accepted::Closed => {
                        self.closed = true;
                        break;
                    }
                }
            }
        }

        let mut i = 0;
        while i < self.pending.len() {
            match self.pending[i].try_recv_frame() {
                Ok(Some(frame)) => {
                    busy = true;
                    let transport = self.pending.swap_remove(i);
                    match hello_domain(&frame) {
                        Some(domain) => {
                            let shard = shard_for(domain, self.shards.len());
                            if self.shards[shard]
                                .send_session(PeekedTransport::new(frame, transport))
                            {
                                self.routed += 1;
                            } else {
                                self.refused += 1;
                            }
                        }
                        // Not a Hello: the peer does not speak the
                        // protocol; dropping the transport refuses it.
                        None => self.refused += 1,
                    }
                }
                Ok(None) => i += 1,
                Err(_) => {
                    // Hung up before saying Hello.
                    self.pending.swap_remove(i);
                    busy = true;
                }
            }
        }

        Ok(busy)
    }

    /// Asks every shard whether it has fully drained (no live sessions,
    /// no pending timers). Conservative: an unreachable shard counts as
    /// busy only if its worker is still running — a worker that already
    /// returned its node is done by definition, but that state is only
    /// observable at [`shutdown`](Self::shutdown), so callers use this
    /// while the system is up.
    pub fn shards_idle(&self) -> bool {
        self.shards.iter().all(|s| match s.request_report() {
            Some(report) => {
                report.value("server_runtime", "sessions_live") == 0.0
                    && report.value("server_runtime", "timers_pending") == 0.0
            }
            None => true,
        })
    }

    /// The aggregate report: every shard's [`NodeReport`] merged
    /// key-wise (counters and gauges sum — each session, domain, and
    /// job lives on exactly one shard), plus a `shards` section with
    /// router totals and a `shardN` section of headline gauges per
    /// shard.
    pub fn report(&self) -> NodeReport {
        let snapshots: Vec<NodeReport> = self
            .shards
            .iter()
            .filter_map(ShardHandle::request_report)
            .collect();
        let mut merged = merge_reports("server", &snapshots);
        merged.add_section(
            Section::new("shards")
                .with("count", self.shards.len())
                .with("routed", self.routed)
                .with("refused", self.refused)
                .with("pending", self.pending.len()),
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

    /// Graceful drain: tells every shard to stop accepting, lets each
    /// finish its live sessions and pending timers, and joins them all,
    /// returning the final per-shard protocol states (index order).
    pub fn shutdown(self) -> Vec<ServerNode> {
        // Two passes so all shards drain concurrently instead of
        // serially: first signal everyone, then join.
        for shard in &self.shards {
            let _ = shard.tx.send(ShardCommand::Shutdown);
        }
        self.shards.into_iter().map(ShardHandle::shutdown).collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;

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
        let hello = Frame::encode(&ClientMessage::Hello {
            domain: DomainId::new(9),
            host: shadow_proto::HostName::new("ws"),
            protocol: shadow_proto::PROTOCOL_VERSION,
            epoch: 0,
            resume: Vec::new(),
        });
        assert_eq!(hello_domain(&hello), Some(DomainId::new(9)));
        let status = Frame::encode(&ClientMessage::StatusQuery {
            request: shadow_proto::RequestId::new(1),
            job: None,
        });
        assert_eq!(hello_domain(&status), None);
        assert_eq!(hello_domain(b"garbage"), None);
        assert_eq!(hello_domain(&[]), None);
    }

    /// A loopback FrameTransport over two VecDeques, single-threaded.
    #[derive(Debug, Default)]
    struct LoopTransport {
        inbound: VecDeque<Vec<u8>>,
        outbound: Vec<Vec<u8>>,
    }

    impl FrameTransport for LoopTransport {
        fn send_frame(&mut self, frame: Vec<u8>) -> Result<(), TransportClosed> {
            self.outbound.push(frame);
            Ok(())
        }

        fn recv_frame(
            &mut self,
            _timeout: Duration,
        ) -> Result<Option<Vec<u8>>, TransportClosed> {
            Ok(self.inbound.pop_front())
        }
    }

    #[test]
    fn peeked_transport_replays_first_frame_once() {
        let mut inner = LoopTransport::default();
        inner.inbound.push_back(b"second".to_vec());
        let mut t = PeekedTransport::new(b"first".to_vec(), inner);
        assert_eq!(t.try_recv_frame().unwrap(), Some(b"first".to_vec()));
        assert_eq!(t.try_recv_frame().unwrap(), Some(b"second".to_vec()));
        assert_eq!(t.try_recv_frame().unwrap(), None);
        t.send_frame(b"out".to_vec()).unwrap();
        assert_eq!(t.inner.outbound, vec![b"out".to_vec()]);
    }
}

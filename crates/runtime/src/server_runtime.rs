//! The session loop every worker shard runs.

use std::collections::{HashMap, VecDeque};

use shadow_obs::{MetricsRegistry, NodeReport};
use shadow_server::{CloseReason, ServerNode, SessionId};

use crate::clock::Clock;
use crate::server_driver::{ServerDriver, ServerIo};
use crate::sink::PersistSink;
use crate::transport::FrameTransport;

/// Bucket bounds for the inbound frame-size histogram: tuned around the
/// protocol's typical shapes (control frames ≈ tens of bytes, deltas ≈
/// hundreds, full transfers ≈ kilobytes and up).
const FRAME_SIZE_BUCKETS: [u64; 6] = [64, 256, 1024, 4096, 16384, 65536];

/// One step of accepting new sessions.
pub enum Accepted<T> {
    /// A new session arrived on the given transport.
    Session(T),
    /// Nothing waiting right now.
    None,
    /// The listener is gone; no further sessions will ever arrive.
    Closed,
}

// Manual impl: transports need not be `Debug` themselves.
impl<T> std::fmt::Debug for Accepted<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Accepted::Session(_) => "Accepted::Session(..)",
            Accepted::None => "Accepted::None",
            Accepted::Closed => "Accepted::Closed",
        })
    }
}

/// A source of incoming sessions: the listening half of a deployment.
///
/// Deployments implement this over a crossbeam channel of pipe ends
/// (pipes) or a non-blocking `TcpListener` (TCP) for the shard router;
/// each worker shard's [`ShardInbox`](crate::ShardInbox) implements it
/// over the router's command channel.
pub trait SessionAcceptor {
    /// The transport handed out for each accepted session.
    type Transport: FrameTransport;
    /// Errors the listener itself can raise (distinct from per-session
    /// transport failures, which just close that session).
    type Error;

    /// Polls for one new session without blocking.
    fn poll_accept(&mut self) -> Result<Accepted<Self::Transport>, Self::Error>;
}

struct Session<T> {
    id: SessionId,
    transport: T,
    alive: bool,
}

/// A worker shard's session loop: accept → read → feed → fire timers →
/// reap dead sessions.
///
/// Every wall-clock deployment runs one of these per worker shard of a
/// [`ShardedServerRuntime`](crate::ShardedServerRuntime), fed by the
/// shard's [`ShardInbox`](crate::ShardInbox). A session whose transport
/// fails (read or write) is reported to the driver as disconnected
/// exactly once and then forgotten.
pub struct ServerRuntime<A: SessionAcceptor, C: Clock> {
    driver: ServerDriver,
    acceptor: A,
    clock: C,
    sessions: Vec<Session<A::Transport>>,
    /// `SessionId -> sessions index`, so per-frame routing is O(1); the
    /// reap path swap-removes and patches the one displaced entry.
    index: HashMap<SessionId, usize>,
    /// Sessions marked dead this round, awaiting reaping (each id is
    /// queued exactly once, when `alive` flips), with the close reason
    /// observed at kill time.
    dead: VecDeque<(SessionId, CloseReason)>,
    next_session: u64,
    closed: bool,
    metrics: MetricsRegistry,
    /// Where storage intents go; `None` drops them (diskless).
    sink: Option<Box<dyn PersistSink>>,
}

// Manual impl: acceptors, clocks, and transports need not be `Debug`.
impl<A: SessionAcceptor, C: Clock> std::fmt::Debug for ServerRuntime<A, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerRuntime")
            .field("driver", &self.driver)
            .field("sessions", &self.sessions.len())
            .field("next_session", &self.next_session)
            .field("closed", &self.closed)
            .finish_non_exhaustive()
    }
}

impl<A: SessionAcceptor, C: Clock> ServerRuntime<A, C> {
    /// Builds a runtime around a server state machine.
    pub fn new(node: ServerNode, acceptor: A, clock: C) -> Self {
        let mut metrics = MetricsRegistry::new();
        metrics.histogram("frame_bytes", FRAME_SIZE_BUCKETS.to_vec());
        ServerRuntime {
            driver: ServerDriver::new(node),
            acceptor,
            clock,
            sessions: Vec::new(),
            index: HashMap::new(),
            dead: VecDeque::new(),
            next_session: 1,
            closed: false,
            metrics,
            sink: None,
        }
    }

    /// Installs the sink that journals storage intents (builder-style).
    /// Without one, `Persist` actions are dropped — the diskless
    /// behaviour every deployment had before the durable store existed.
    pub fn with_sink(mut self, sink: Box<dyn PersistSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The driver's full [`NodeReport`] extended with a
    /// `server_runtime` section from the poll loop's registry, plus the
    /// installed sink's section (the durable store's journal counters)
    /// when there is one.
    pub fn report(&self) -> NodeReport {
        let mut report = self.driver.report();
        report.add_section(self.metrics.to_section("server_runtime"));
        if let Some(section) = self.sink.as_ref().and_then(|s| s.report_section()) {
            report.add_section(section);
        }
        report
    }

    /// The session source (mutable). Acceptors that double as command
    /// inboxes — the shard worker's — expose out-of-band requests the
    /// owning loop must collect between polls.
    pub fn acceptor_mut(&mut self) -> &mut A {
        &mut self.acceptor
    }

    /// Unwraps the state machine (for post-shutdown inspection).
    pub fn into_node(self) -> ServerNode {
        self.driver.into_node()
    }

    /// True once the acceptor reported [`Accepted::Closed`].
    pub fn acceptor_closed(&self) -> bool {
        self.closed
    }

    /// True when there is nothing left to do: no sessions and no
    /// pending timers.
    pub fn idle(&self) -> bool {
        self.sessions.is_empty() && self.driver.timers_idle()
    }

    /// Runs one scheduling round. Returns `true` if any work happened
    /// (a session accepted, a frame processed, a timer fired), so
    /// callers can sleep when the loop goes quiet.
    pub fn poll_once(&mut self) -> Result<bool, A::Error> {
        let mut busy = false;
        self.metrics.inc("polls", 1);

        if !self.closed {
            loop {
                match self.acceptor.poll_accept()? {
                    Accepted::Session(transport) => {
                        let id = SessionId::new(self.next_session);
                        self.next_session += 1;
                        let now = self.clock.now_ms();
                        self.index.insert(id, self.sessions.len());
                        self.sessions.push(Session {
                            id,
                            transport,
                            alive: true,
                        });
                        self.metrics.inc("sessions_accepted", 1);
                        let io = self.driver.connected(id, now);
                        self.dispatch(io);
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

        for i in 0..self.sessions.len() {
            while self.sessions[i].alive {
                match self.sessions[i].transport.try_recv_frame() {
                    Ok(Some(frame)) => {
                        busy = true;
                        let id = self.sessions[i].id;
                        let now = self.clock.now_ms();
                        self.metrics.inc("frames_fed", 1);
                        self.metrics.observe("frame_bytes", frame.len() as u64);
                        match self.driver.feed_frame(id, &frame, now, |_| 0) {
                            Ok(io) => self.dispatch(io),
                            // A frame that cannot be decoded means the
                            // peer is hopelessly confused; drop them.
                            Err(_) => {
                                self.metrics.inc("decode_failures", 1);
                                self.kill(i, CloseReason::Decode);
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(closed) => {
                        let reason = if closed.is_clean() {
                            CloseReason::Clean
                        } else {
                            CloseReason::Error
                        };
                        self.kill(i, reason);
                    }
                }
            }
        }

        let now = self.clock.now_ms();
        if self.driver.next_deadline().is_some_and(|d| d <= now) {
            busy = true;
        }
        let io = self.driver.fire_due(now, 0);
        self.dispatch(io);

        busy |= self.reap_dead();
        self.metrics.set_gauge("sessions_live", self.sessions.len() as i64);
        self.metrics.set_gauge(
            "timers_pending",
            i64::from(!self.driver.timers_idle()),
        );

        Ok(busy)
    }

    /// Marks the session at `pos` dead (idempotent); it is reaped — and
    /// its disconnect reported to the driver with `reason` — at the end
    /// of the round. The first kill wins: a session that failed a send
    /// (`Error`) and later read EOF keeps the original reason.
    fn kill(&mut self, pos: usize, reason: CloseReason) {
        let s = &mut self.sessions[pos];
        if s.alive {
            s.alive = false;
            self.dead.push_back((s.id, reason));
        }
    }

    /// Drains the dead queue: disconnect handling can emit sends whose
    /// failure enqueues further sessions, so loop until empty. Returns
    /// `true` if anything was reaped.
    fn reap_dead(&mut self) -> bool {
        let mut reaped = false;
        while let Some((id, reason)) = self.dead.pop_front() {
            let Some(pos) = self.index.remove(&id) else {
                continue;
            };
            let dead = self.sessions.swap_remove(pos);
            if let Some(moved) = self.sessions.get(pos) {
                self.index.insert(moved.id, pos);
            }
            let now = self.clock.now_ms();
            self.metrics.inc("sessions_reaped", 1);
            let io = self.driver.disconnected(dead.id, reason, now);
            self.dispatch(io);
            reaped = true;
        }
        reaped
    }

    /// Routes driver output to the owning transports. Armed deadlines
    /// are ignored here: wall-clock runtimes poll
    /// [`ServerDriver::next_deadline`] each round instead.
    fn dispatch(&mut self, io: ServerIo) {
        if let Some(sink) = &mut self.sink {
            for record in &io.persists {
                sink.persist(record);
            }
            self.metrics.inc("records_persisted", io.persists.len() as u64);
        }
        for out in io.outbound {
            let Some(&pos) = self.index.get(&out.session) else {
                continue;
            };
            let s = &mut self.sessions[pos];
            if !s.alive {
                continue;
            }
            if let Err(closed) = s.transport.send_frame(out.frame) {
                let reason = if closed.is_clean() {
                    CloseReason::Clean
                } else {
                    CloseReason::Error
                };
                self.kill(pos, reason);
            }
        }
    }
}

//! The client loop: one sans-io [`ClientCore`] that every deployment
//! drives, and the policy that keeps its links up.
//!
//! Dialing stays with the host. When a redial falls due the core asks
//! for one ([`ClientCore::dial_wanted`]); the host answers with
//! [`ClientInput::Dialed`] — the core sends the resume `Hello` — or
//! [`ClientInput::DialFailed`], and the core backs off further. A host
//! that cannot dial leaves the link down until it dials by hand.

use std::collections::VecDeque;
use std::io::ErrorKind;

use shadow_client::{
    ClientAction, ClientError, ClientEvent, ClientNode, ConnId, FileRef, Notification,
};
use shadow_obs::{DriverEvent, DriverStats, EventHook, FrameInfo, NodeReport, Section, Snapshot};
use shadow_proto::{
    ClientMessage, Frame, JobId, RequestId, ServerMessage, StableHasher, SubmitOptions,
    UpdatePayload, VersionNumber, WireError,
};

use crate::clock::Clock;
use crate::transport::{FrameWriter, TransportClosed};

/// The first redial after a loss waits this long (plus jitter).
const BASE_BACKOFF_MS: u64 = 100;
/// Each failed redial doubles the wait, up to this ceiling.
const MAX_BACKOFF_MS: u64 = 30_000;
/// A live link quiet this long gets a heartbeat ping.
const HEARTBEAT_MS: u64 = 5_000;
/// A heartbeat (or a handshake) unanswered this long means the link is
/// dead: half-open TCP never reports an error by itself.
const LIVENESS_MS: u64 = 15_000;
/// The nonce of every heartbeat ping. Its pong proves the link alive and
/// is not surfaced as a notification.
const HEARTBEAT_NONCE: u64 = u64::MAX;

/// One thing that happens to a client's connections.
#[derive(Debug)]
pub enum ClientInput<W> {
    /// The next frame the server sent on a connection.
    Frame(ConnId, Vec<u8>),
    /// A connection's transport went, and how.
    Lost(ConnId, TransportClosed),
    /// The host dialed a connection — because the core asked, or by
    /// hand: the new transport's writer. The core sends the resume
    /// `Hello` on it.
    Dialed(ConnId, W),
    /// The dial the core asked for failed.
    DialFailed(ConnId),
}

/// Why an inbound frame could not be fed to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeedError {
    /// The frame was shorter than its header claimed.
    Incomplete,
    /// The frame failed to decode.
    Wire(WireError),
}

impl std::fmt::Display for FeedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedError::Incomplete => write!(f, "incomplete frame"),
            FeedError::Wire(e) => write!(f, "wire error: {e}"),
        }
    }
}

impl std::error::Error for FeedError {}

impl From<WireError> for FeedError {
    fn from(e: WireError) -> Self {
        FeedError::Wire(e)
    }
}

/// Counters of the link policy; exported as the `redial` report
/// section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RedialStats {
    /// Transports the core was handed or asked for: the first connect,
    /// every redial, and every failed dial.
    pub dials: u64,
    /// Dials the host reported failed.
    pub dial_failures: u64,
    /// Heartbeat pings sent after quiet.
    pub heartbeats_sent: u64,
    /// Links declared dead because a heartbeat went unanswered.
    pub heartbeats_missed: u64,
}

impl Snapshot for RedialStats {
    fn section_name(&self) -> &'static str {
        "redial"
    }

    fn snapshot(&self) -> Section {
        Section::new("redial")
            .with("dials", self.dials)
            .with("dial_failures", self.dial_failures)
            .with("heartbeats_sent", self.heartbeats_sent)
            .with("heartbeats_missed", self.heartbeats_missed)
    }
}

/// Where one connection's link stands; each state carries the deadline
/// of its one pending timer.
#[derive(Debug, Clone, Copy)]
enum LinkState {
    /// Up: a heartbeat falls due at `heartbeat_at`.
    Up { heartbeat_at: u64 },
    /// Up, with a heartbeat — or the handshake — unanswered: the link is
    /// dead at `dead_at`.
    Awaiting { dead_at: u64 },
    /// Down since `closed`: redial at `redial_at`.
    Backoff {
        redial_at: u64,
        closed: TransportClosed,
    },
    /// Down since `closed`, waiting on the host's dial.
    Dialing { closed: TransportClosed },
}

/// One connection: its writer while the link is up, and its policy
/// state.
#[derive(Debug, Clone)]
struct Link<W> {
    conn: ConnId,
    writer: Option<W>,
    state: LinkState,
    /// Dials made since the session was last ready; the next backoff
    /// doubles with each.
    attempt: u32,
}

/// One client: a [`ClientNode`] and everything between it and the
/// world — the writer of each connection (`W`), its link timers, its
/// notifications, its counters and its instrumentation tap — driven one
/// [`step`](Self::step) or command at a time on its clock `C`. It never
/// blocks, never dials and never reads a clock of its own.
///
/// Each link keeps itself up: a heartbeat after quiet, a liveness
/// deadline on an unanswered one, and a capped, jittered redial backoff
/// after a loss. A write that fails is a lost link.
///
/// The one place a [`ClientAction`] is interpreted and a client frame
/// encoded.
pub struct ClientCore<C, W> {
    node: ClientNode,
    clock: C,
    links: Vec<Link<W>>,
    /// Spreads the redials of different clients apart.
    jitter_seed: u64,
    notifications: VecDeque<Notification>,
    stats: DriverStats,
    redial: RedialStats,
    hook: Option<EventHook>,
    /// Every outbound frame is encoded into this warmed scratch, then
    /// copied out at its exact size.
    encode_scratch: Vec<u8>,
}

impl<C, W> std::fmt::Debug for ClientCore<C, W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientCore")
            .field("node", &self.node)
            .field("stats", &self.stats)
            .field("redial", &self.redial)
            .finish_non_exhaustive()
    }
}

impl<C: Clone, W: Clone> Clone for ClientCore<C, W> {
    /// Clones the protocol state but not the hook: the model checker's
    /// snapshots are driven headless.
    fn clone(&self) -> Self {
        ClientCore {
            node: self.node.clone(),
            clock: self.clock.clone(),
            links: self.links.clone(),
            jitter_seed: self.jitter_seed,
            notifications: self.notifications.clone(),
            stats: self.stats,
            redial: self.redial,
            hook: None,
            encode_scratch: Vec::new(),
        }
    }
}

/// The wait before the redial that follows `attempt` dials this outage:
/// `min(base·2ⁿ, cap)` plus up to half that again of jitter, drawn from
/// a hash of the seed and the attempt — so simulated runs replay
/// exactly while real fleets still spread their redials.
fn backoff_ms(seed: u64, attempt: u32) -> u64 {
    use std::hash::{Hash, Hasher};
    let base = BASE_BACKOFF_MS
        .saturating_mul(1 << attempt.min(20))
        .min(MAX_BACKOFF_MS);
    let mut h = StableHasher::new();
    (seed, attempt).hash(&mut h);
    base + h.finish() % (base / 2 + 1)
}

/// What a frame carries, for transfer accounting and the simulator's
/// CPU model.
fn classify(node: &ClientNode, message: &ClientMessage) -> FrameInfo {
    match message {
        ClientMessage::Update { file, payload, .. } => match payload {
            UpdatePayload::Full { .. } => FrameInfo::UpdateFull {
                file: *file,
                data_len: payload.data_len(),
            },
            UpdatePayload::Delta { .. } => FrameInfo::UpdateDelta {
                file: *file,
                data_len: payload.data_len(),
                file_size: node.file_size(*file).unwrap_or_else(|| payload.data_len()),
            },
        },
        _ => FrameInfo::Other,
    }
}

impl<C: Clock, W: FrameWriter> ClientCore<C, W> {
    /// A core around `node` that reads time from `clock`.
    pub fn new(node: ClientNode, clock: C) -> Self {
        use std::hash::{Hash, Hasher};
        let mut h = StableHasher::new();
        node.config().host.hash(&mut h);
        node.config().domain.as_u64().hash(&mut h);
        ClientCore {
            node,
            clock,
            links: Vec::new(),
            jitter_seed: h.finish(),
            notifications: VecDeque::new(),
            stats: DriverStats::default(),
            redial: RedialStats::default(),
            hook: None,
            encode_scratch: Vec::new(),
        }
    }

    /// Installs an instrumentation tap observing every frame.
    pub fn set_event_hook(&mut self, hook: EventHook) {
        self.hook = Some(hook);
    }

    /// The wrapped state machine (read-only).
    pub fn node(&self) -> &ClientNode {
        &self.node
    }

    /// The wrapped state machine (mutable, for restoring persisted
    /// version chains).
    pub fn node_mut(&mut self) -> &mut ClientNode {
        &mut self.node
    }

    /// The core's clock.
    pub fn clock(&self) -> &C {
        &self.clock
    }

    /// The core's clock, for a scheduler that advances virtual time.
    pub fn clock_mut(&mut self) -> &mut C {
        &mut self.clock
    }

    /// A connection's writer while its link is up.
    pub fn writer_mut(&mut self, conn: ConnId) -> Option<&mut W> {
        self.link_mut(conn)?.writer.as_mut()
    }

    /// How a connection's link went down; `None` while it is up (or
    /// unknown).
    pub fn link_closed(&self, conn: ConnId) -> Option<TransportClosed> {
        match self.links.iter().find(|l| l.conn == conn)?.state {
            LinkState::Backoff { closed, .. } | LinkState::Dialing { closed } => Some(closed),
            LinkState::Up { .. } | LinkState::Awaiting { .. } => None,
        }
    }

    /// A connection whose redial fell due, for the host to dial.
    pub fn dial_wanted(&self) -> Option<ConnId> {
        self.links
            .iter()
            .find(|l| matches!(l.state, LinkState::Dialing { .. }))
            .map(|l| l.conn)
    }

    /// The earliest link timer, on the core's clock.
    pub fn next_deadline(&self) -> Option<u64> {
        self.links
            .iter()
            .filter_map(|l| match l.state {
                LinkState::Up { heartbeat_at } => Some(heartbeat_at),
                LinkState::Awaiting { dead_at } => Some(dead_at),
                LinkState::Backoff { redial_at, .. } => Some(redial_at),
                LinkState::Dialing { .. } => None,
            })
            .min()
    }

    /// True while a heartbeat (or the handshake) on `conn` is
    /// unanswered.
    pub fn awaiting_answer(&self, conn: ConnId) -> bool {
        self.links
            .iter()
            .any(|l| l.conn == conn && matches!(l.state, LinkState::Awaiting { .. }))
    }

    /// The node's metrics and version-store occupancy, with the core's
    /// wire (`driver`) and link (`redial`) counters.
    pub fn report(&self) -> NodeReport {
        NodeReport::new("client")
            .with(&self.node.metrics())
            .with(&self.node.version_stats())
            .with(&self.stats)
            .with(&self.redial)
    }

    /// Drains all buffered notifications.
    pub fn take_notifications(&mut self) -> Vec<Notification> {
        let drained: Vec<_> = self.notifications.drain(..).collect();
        self.stats.notifications_drained += drained.len() as u64;
        drained
    }

    /// Removes and returns the first buffered notification matching
    /// `pred`, preserving the order of the rest. Counts toward
    /// `notifications_drained` exactly like a bulk drain, so the two
    /// drain paths agree on accounting.
    pub fn take_notification_matching(
        &mut self,
        mut pred: impl FnMut(&Notification) -> bool,
    ) -> Option<Notification> {
        let idx = self.notifications.iter().position(&mut pred)?;
        let taken = self.notifications.remove(idx);
        if taken.is_some() {
            self.stats.notifications_drained += 1;
        }
        taken
    }

    /// A deterministic digest of the core's protocol state, with each
    /// link's deadline taken *relative* to the clock's now: a heartbeat
    /// round trip or a clock translation leaves it unchanged. Counters
    /// are excluded (monotonic; would defeat deduplication).
    pub fn state_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let now_ms = self.clock.now_ms();
        let mut h = StableHasher::new();
        self.node.state_digest().hash(&mut h);
        self.notifications.len().hash(&mut h);
        for link in &self.links {
            let (kind, deadline) = match link.state {
                LinkState::Up { heartbeat_at } => (0u8, heartbeat_at),
                LinkState::Awaiting { dead_at } => (1, dead_at),
                LinkState::Backoff { redial_at, .. } => (2, redial_at),
                LinkState::Dialing { .. } => (3, now_ms),
            };
            (
                link.conn,
                link.attempt,
                kind,
                deadline.saturating_sub(now_ms),
            )
                .hash(&mut h);
        }
        h.finish()
    }

    /// Opens a connection over a transport the host already dialed and
    /// sends the `Hello`.
    pub fn connect(&mut self, conn: ConnId, writer: W) {
        let now_ms = self.clock.now_ms();
        self.install(conn, writer, now_ms);
        let actions = self.node.connect(conn);
        self.perform(actions, now_ms, &mut |_| 0);
    }

    /// Forgets a connection and hangs up on it; nothing is sent.
    pub fn disconnect(&mut self, conn: ConnId) {
        self.links.retain(|l| l.conn != conn);
        self.node.disconnect(conn);
    }

    /// Sends a ping; its [`Notification::Pong`] is queued, unless the
    /// nonce is the heartbeat's own, `u64::MAX`.
    ///
    /// # Errors
    ///
    /// [`ClientError::NotConnected`] before the session is ready.
    pub fn ping(&mut self, conn: ConnId, nonce: u64) -> Result<(), ClientError> {
        let now_ms = self.clock.now_ms();
        let actions = self.node.ping(conn, nonce)?;
        self.perform(actions, now_ms, &mut |_| 0);
        Ok(())
    }

    /// Records the result of an editing session (§6.1 `edit_finished`).
    pub fn edit_finished(&mut self, file: &FileRef, content: Vec<u8>) -> VersionNumber {
        let now_ms = self.clock.now_ms();
        let (version, actions) = self.node.edit_finished(file, content);
        self.perform(actions, now_ms, &mut |_| 0);
        version
    }

    /// Submits a job (§6.2).
    ///
    /// # Errors
    ///
    /// Client-command failures (not connected, unknown file).
    pub fn submit(
        &mut self,
        conn: ConnId,
        job_file: &FileRef,
        data_files: &[FileRef],
        options: SubmitOptions,
    ) -> Result<RequestId, ClientError> {
        let now_ms = self.clock.now_ms();
        let (request, actions) = self.node.submit(conn, job_file, data_files, options)?;
        self.perform(actions, now_ms, &mut |_| 0);
        Ok(request)
    }

    /// Queries job status (§6.3).
    ///
    /// # Errors
    ///
    /// [`ClientError::NotConnected`] before the session is ready.
    pub fn status(&mut self, conn: ConnId, job: Option<JobId>) -> Result<RequestId, ClientError> {
        let now_ms = self.clock.now_ms();
        let (request, actions) = self.node.status(conn, job)?;
        self.perform(actions, now_ms, &mut |_| 0);
        Ok(request)
    }

    /// Everything the core does between two waits: handle `input`
    /// (`None` is a wake-up), then fire every link timer due by now.
    ///
    /// `cost` prices each frame the step sends, in milliseconds; the
    /// link's quiet time counts from when that work is done. The
    /// simulator charges its CPU model; wall-clock hosts pass zero.
    ///
    /// # Errors
    ///
    /// A frame that does not decode. The node never sees it.
    pub fn step(
        &mut self,
        input: Option<ClientInput<W>>,
        mut cost: impl FnMut(&FrameInfo) -> u64,
    ) -> Result<(), FeedError> {
        let now_ms = self.clock.now_ms();
        match input {
            Some(ClientInput::Frame(conn, frame)) => self.feed(conn, &frame, now_ms, &mut cost)?,
            Some(ClientInput::Lost(conn, closed)) => self.lose(conn, closed, now_ms),
            Some(ClientInput::Dialed(conn, writer)) => {
                self.install(conn, writer, now_ms);
                let actions = self.node.handle(ClientEvent::Resume { conn, now_ms });
                self.perform(actions, now_ms, &mut |_| 0);
            }
            Some(ClientInput::DialFailed(conn)) => {
                let seed = self.jitter_seed;
                if let Some(link) = self.link_mut(conn) {
                    if let LinkState::Dialing { closed } = link.state {
                        link.state = LinkState::Backoff {
                            redial_at: now_ms + backoff_ms(seed, link.attempt),
                            closed,
                        };
                        self.redial.dials += 1;
                        self.redial.dial_failures += 1;
                    }
                }
            }
            None => {}
        }
        self.fire(now_ms);
        Ok(())
    }

    fn link_mut(&mut self, conn: ConnId) -> Option<&mut Link<W>> {
        self.links.iter_mut().find(|l| l.conn == conn)
    }

    /// Puts a freshly dialed writer under `conn`: the link is up.
    fn install(&mut self, conn: ConnId, writer: W, now_ms: u64) {
        self.redial.dials += 1;
        let state = LinkState::Up {
            heartbeat_at: now_ms + HEARTBEAT_MS,
        };
        match self.link_mut(conn) {
            Some(link) => {
                link.writer = Some(writer);
                link.state = state;
            }
            None => self.links.push(Link {
                conn,
                writer: Some(writer),
                state,
                attempt: 0,
            }),
        }
    }

    /// Decodes one inbound frame and feeds it to the node. Any frame
    /// proves the link alive.
    fn feed(
        &mut self,
        conn: ConnId,
        frame: &[u8],
        now_ms: u64,
        cost: &mut impl FnMut(&FrameInfo) -> u64,
    ) -> Result<(), FeedError> {
        self.stats.frames_received += 1;
        self.stats.bytes_received += frame.len() as u64;
        if let Some(hook) = &mut self.hook {
            hook(DriverEvent::FrameReceived {
                frame,
                at_ms: now_ms,
            });
        }
        let (message, _used) =
            Frame::decode::<ServerMessage>(frame)?.ok_or(FeedError::Incomplete)?;
        let actions = self.node.handle(ClientEvent::Message {
            conn,
            message,
            now_ms,
        });
        let busy_ms = self.perform(actions, now_ms, cost);
        if let Some(link) = self.link_mut(conn) {
            if let LinkState::Up { .. } | LinkState::Awaiting { .. } = link.state {
                link.state = LinkState::Up {
                    heartbeat_at: now_ms + busy_ms + HEARTBEAT_MS,
                };
            }
        }
        Ok(())
    }

    /// The link under `conn` died: hang up, tell the node (which keeps
    /// the session for a resume), and schedule the redial.
    fn lose(&mut self, conn: ConnId, closed: TransportClosed, now_ms: u64) {
        let seed = self.jitter_seed;
        let Some(link) = self.link_mut(conn) else {
            return;
        };
        if let LinkState::Backoff { .. } | LinkState::Dialing { .. } = link.state {
            return;
        }
        link.writer = None;
        link.state = LinkState::Backoff {
            redial_at: now_ms + backoff_ms(seed, link.attempt),
            closed,
        };
        let actions = self.node.handle(ClientEvent::LinkDown { conn, now_ms });
        self.perform(actions, now_ms, &mut |_| 0);
    }

    /// Fires every link timer due by `now_ms`.
    fn fire(&mut self, now_ms: u64) {
        for i in 0..self.links.len() {
            let conn = self.links[i].conn;
            match self.links[i].state {
                LinkState::Up { heartbeat_at } if heartbeat_at <= now_ms => {
                    self.links[i].state = LinkState::Awaiting {
                        dead_at: now_ms + LIVENESS_MS,
                    };
                    // Before the handshake completes there is nothing
                    // to ping: the handshake itself is what must be
                    // answered in time.
                    if let Ok(actions) = self.node.ping(conn, HEARTBEAT_NONCE) {
                        self.redial.heartbeats_sent += 1;
                        self.perform(actions, now_ms, &mut |_| 0);
                    }
                }
                LinkState::Awaiting { dead_at } if dead_at <= now_ms => {
                    self.redial.heartbeats_missed += 1;
                    self.lose(conn, TransportClosed::Error(ErrorKind::TimedOut), now_ms);
                }
                LinkState::Backoff { redial_at, closed } if redial_at <= now_ms => {
                    let link = &mut self.links[i];
                    link.attempt = link.attempt.saturating_add(1);
                    link.state = LinkState::Dialing { closed };
                }
                _ => {}
            }
        }
    }

    /// **The** client action dispatch: sends frames, buffers
    /// notifications. Nothing outside this function interprets a
    /// [`ClientAction`]. Returns the largest cost of a frame sent.
    fn perform(
        &mut self,
        actions: Vec<ClientAction>,
        now_ms: u64,
        cost: &mut impl FnMut(&FrameInfo) -> u64,
    ) -> u64 {
        let mut busy_ms = 0;
        for action in actions {
            match action {
                ClientAction::Send { conn, message } => {
                    busy_ms = busy_ms.max(self.send(conn, &message, now_ms, cost));
                }
                ClientAction::Notify(n) => self.record(n),
            }
        }
        busy_ms
    }

    /// Encodes `message` and writes it to `conn`'s link; a link that is
    /// down loses it, as its transport would have.
    fn send(
        &mut self,
        conn: ConnId,
        message: &ClientMessage,
        now_ms: u64,
        cost: &mut impl FnMut(&FrameInfo) -> u64,
    ) -> u64 {
        let Some(index) = self
            .links
            .iter()
            .position(|l| l.conn == conn && l.writer.is_some())
        else {
            return 0;
        };
        let info = classify(&self.node, message);
        self.encode_scratch.clear();
        Frame::encode_into(message, &mut self.encode_scratch);
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += self.encode_scratch.len() as u64;
        match info {
            FrameInfo::UpdateDelta { .. } => self.stats.deltas_sent += 1,
            FrameInfo::UpdateFull { .. } => self.stats.fulls_sent += 1,
            FrameInfo::Other => {}
        }
        if let Some(hook) = &mut self.hook {
            hook(DriverEvent::FrameSent {
                frame: &self.encode_scratch,
                info: &info,
                at_ms: now_ms,
            });
        }
        let busy_ms = cost(&info);
        let frame = self.encode_scratch.clone();
        let written = match &mut self.links[index].writer {
            Some(writer) => writer.write_frame(frame),
            None => Ok(()),
        };
        if let Err(closed) = written {
            self.lose(conn, closed, now_ms);
        }
        busy_ms
    }

    fn record(&mut self, notification: Notification) {
        match notification {
            Notification::Pong {
                nonce: HEARTBEAT_NONCE,
                ..
            } => return,
            Notification::SessionReady { conn, .. } => {
                if let Some(link) = self.link_mut(conn) {
                    link.attempt = 0;
                }
            }
            _ => {}
        }
        self.stats.notifications += 1;
        self.notifications.push_back(notification);
    }
}

#[cfg(test)]
mod tests {
    use shadow_client::ClientConfig;
    use shadow_proto::{FileId, HostName};

    use super::*;
    use crate::VirtualClock;

    const CONN: ConnId = ConnId::new(0);

    type TestCore = ClientCore<VirtualClock, Vec<Vec<u8>>>;

    fn core_for(host: &str) -> TestCore {
        ClientCore::new(
            ClientNode::new(ClientConfig::new(host, 1)),
            VirtualClock::new(),
        )
    }

    fn frame(message: ServerMessage) -> ClientInput<Vec<Vec<u8>>> {
        ClientInput::Frame(CONN, Frame::encode(&message))
    }

    fn hello_ack() -> ClientInput<Vec<Vec<u8>>> {
        frame(ServerMessage::HelloAck {
            server: HostName::new("sc"),
            protocol: shadow_proto::PROTOCOL_VERSION,
            resumed: false,
            retained: Vec::new(),
        })
    }

    /// A core whose session on `CONN` is ready, at time 0.
    fn ready(host: &str) -> TestCore {
        let mut core = core_for(host);
        core.connect(CONN, Vec::new());
        core.step(Some(hello_ack()), |_| 0).unwrap();
        sent(&mut core);
        core
    }

    /// Steps `input` at `at`.
    fn step_at(core: &mut TestCore, at: u64, input: ClientInput<Vec<Vec<u8>>>) {
        core.clock_mut().advance_to(at);
        core.step(Some(input), |_| 0).unwrap();
    }

    fn lose_at(core: &mut TestCore, at: u64) {
        step_at(core, at, ClientInput::Lost(CONN, TransportClosed::Clean));
    }

    /// Advances the clock to the next link timer and fires it.
    fn fire_next(core: &mut TestCore) -> u64 {
        let at = core.next_deadline().expect("a link timer is pending");
        core.clock_mut().advance_to(at);
        core.step(None, |_| 0).unwrap();
        at
    }

    /// The messages written to the connection since the last call.
    fn sent(core: &mut TestCore) -> Vec<ClientMessage> {
        std::mem::take(core.writer_mut(CONN).expect("link is up"))
            .iter()
            .map(|f| Frame::decode::<ClientMessage>(f).unwrap().unwrap().0)
            .collect()
    }

    /// Fails `n` dials in a row, returning the wait before each.
    fn failed_dials(core: &mut TestCore, n: usize) -> Vec<u64> {
        let mut waits = Vec::new();
        for _ in 0..n {
            let before = core.clock().now_ms();
            let at = fire_next(core);
            waits.push(at - before);
            assert_eq!(core.dial_wanted(), Some(CONN));
            core.step(Some(ClientInput::DialFailed(CONN)), |_| 0)
                .unwrap();
        }
        waits
    }

    /// The redial schedule of a client of `host` that lost a ready
    /// session and then failed eight dials.
    fn schedule(host: &str) -> Vec<u64> {
        let mut core = ready(host);
        lose_at(&mut core, 1_000);
        failed_dials(&mut core, 8)
    }

    #[test]
    fn first_dial_happens_immediately_and_is_not_a_resume() {
        let mut core = core_for("ws");
        core.connect(CONN, Vec::new());
        match &sent(&mut core)[..] {
            [ClientMessage::Hello { epoch, resume, .. }] => {
                assert_eq!(*epoch, 0, "the first Hello opens a fresh session");
                assert!(resume.is_empty());
            }
            other => panic!("expected one Hello, got {other:?}"),
        }
        assert_eq!(core.link_closed(CONN), None);
        assert!(core.dial_wanted().is_none());
        let r = core.report();
        assert_eq!(r.counter("redial", "dials"), 1);
        assert_eq!(r.counter("client", "reconnects"), 0);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let mut core = ready("ws");
        lose_at(&mut core, 1_000);
        let waits = failed_dials(&mut core, 12);
        // Each wait is within [backoff, 1.5·backoff] for the capped
        // exponential schedule 100, 200, 400 … 30 000.
        for (n, wait) in waits.iter().enumerate() {
            let base = (100u64 << n).min(30_000);
            assert!(
                (base..=base + base / 2).contains(wait),
                "wait {wait} before redial {n}, base {base}"
            );
        }
        assert_eq!(core.report().counter("redial", "dial_failures"), 12);
        assert!(core.dial_wanted().is_none(), "backing off, not dialing");
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        assert_eq!(schedule("ws"), schedule("ws"), "same client, same schedule");
        assert_ne!(schedule("ws"), schedule("ws2"), "other hosts spread out");
    }

    #[test]
    fn next_deadline_tracks_state() {
        let mut core = core_for("ws");
        assert_eq!(core.next_deadline(), None, "no connection, no timer");
        core.connect(CONN, Vec::new());
        assert_eq!(core.next_deadline(), Some(HEARTBEAT_MS));
        core.step(Some(hello_ack()), |_| 0).unwrap();
        lose_at(&mut core, 1_000);
        let redial_at = core.next_deadline().unwrap();
        assert!((1_100..=1_150).contains(&redial_at));
        fire_next(&mut core);
        assert_eq!(core.next_deadline(), None, "waiting on the host's dial");
        assert_eq!(core.dial_wanted(), Some(CONN));
        core.step(Some(ClientInput::DialFailed(CONN)), |_| 0)
            .unwrap();
        assert!(core.next_deadline().unwrap() >= redial_at + 200);
    }

    #[test]
    fn reconnect_after_failure_counts_and_flags_resume() {
        let mut core = ready("ws");
        lose_at(&mut core, 0);
        assert!(core.link_closed(CONN).is_some());
        assert_eq!(core.link_closed(CONN), Some(TransportClosed::Clean));
        assert!(
            core.writer_mut(CONN).is_none(),
            "the old transport is dropped"
        );
        failed_dials(&mut core, 3);
        fire_next(&mut core);
        core.step(Some(ClientInput::Dialed(CONN, Vec::new())), |_| 0)
            .unwrap();
        match &sent(&mut core)[..] {
            [ClientMessage::Hello { epoch: 1, .. }] => {}
            other => panic!("expected the resume Hello, got {other:?}"),
        }
        assert_eq!(core.link_closed(CONN), None);
        let r = core.report();
        assert_eq!(
            r.counter("redial", "dials"),
            5,
            "connect, 3 failures, 1 redial"
        );
        assert_eq!(r.counter("client", "reconnects"), 1);
    }

    #[test]
    fn a_ready_session_resets_the_backoff_and_a_dead_handshake_does_not() {
        let mut core = ready("ws");
        lose_at(&mut core, 0);
        failed_dials(&mut core, 3);
        fire_next(&mut core);
        core.step(Some(ClientInput::Dialed(CONN, Vec::new())), |_| 0)
            .unwrap();
        // The dial went through but the handshake died with the link:
        // the schedule keeps growing.
        let now = core.clock().now_ms();
        lose_at(&mut core, now);
        let wait = core.next_deadline().unwrap() - now;
        assert!(
            (1_600..=2_400).contains(&wait),
            "wait {wait} after a dead dial"
        );

        // A resumed session that becomes ready starts it over.
        fire_next(&mut core);
        core.step(Some(ClientInput::Dialed(CONN, Vec::new())), |_| 0)
            .unwrap();
        core.step(Some(hello_ack()), |_| 0).unwrap();
        let now = core.clock().now_ms();
        lose_at(&mut core, now);
        let wait = core.next_deadline().unwrap() - now;
        assert!((100..=150).contains(&wait), "wait {wait} after a reset");
    }

    #[test]
    fn heartbeat_fires_after_quiet_interval_and_activity_defers_it() {
        let mut core = ready("ws");
        step_at(&mut core, 3_000, frame(ServerMessage::Pong { nonce: 7 }));
        assert_eq!(core.next_deadline(), Some(8_000), "traffic deferred it");
        assert_eq!(fire_next(&mut core), 8_000);
        assert_eq!(
            sent(&mut core),
            vec![ClientMessage::Ping {
                nonce: HEARTBEAT_NONCE
            }]
        );
        assert!(core.awaiting_answer(CONN));
        assert_eq!(core.report().counter("redial", "heartbeats_sent"), 1);
    }

    #[test]
    fn unanswered_ping_declares_the_link_lost() {
        let mut core = ready("ws");
        fire_next(&mut core);
        assert_eq!(fire_next(&mut core), 20_000, "15 s of silence");
        assert!(core.link_closed(CONN).is_some());
        assert_eq!(
            core.link_closed(CONN),
            Some(TransportClosed::Error(ErrorKind::TimedOut))
        );
        assert_eq!(core.report().counter("redial", "heartbeats_missed"), 1);
        assert!(core
            .take_notifications()
            .iter()
            .any(|n| matches!(n, Notification::LinkDown { .. })));
        fire_next(&mut core);
        assert_eq!(core.dial_wanted(), Some(CONN), "and it redials");
    }

    #[test]
    fn answered_ping_keeps_the_link_up() {
        let mut core = ready("ws");
        core.take_notifications();
        let digest = core.state_digest();
        let at = fire_next(&mut core);
        sent(&mut core);
        step_at(
            &mut core,
            at + 50,
            frame(ServerMessage::Pong {
                nonce: HEARTBEAT_NONCE,
            }),
        );
        assert!(core.link_closed(CONN).is_none() && !core.awaiting_answer(CONN));
        assert_eq!(core.next_deadline(), Some(at + 50 + HEARTBEAT_MS));
        assert!(
            core.take_notifications().is_empty(),
            "its pong is not surfaced"
        );
        assert_eq!(core.report().counter("redial", "heartbeats_missed"), 0);
        assert_eq!(core.state_digest(), digest, "a round trip is no new state");
    }

    #[test]
    fn an_unanswered_handshake_is_a_dead_link() {
        let mut core = core_for("ws");
        core.connect(CONN, Vec::new());
        sent(&mut core);
        fire_next(&mut core);
        assert!(
            sent(&mut core).is_empty(),
            "nothing to ping before HelloAck"
        );
        assert!(core.awaiting_answer(CONN));
        fire_next(&mut core);
        assert!(core.link_closed(CONN).is_some());
    }

    #[test]
    fn a_failed_write_loses_the_link() {
        struct Dead;
        impl FrameWriter for Dead {
            fn write_frame(&mut self, _frame: Vec<u8>) -> Result<(), TransportClosed> {
                Err(TransportClosed::Error(ErrorKind::BrokenPipe))
            }
        }
        let mut core = ClientCore::new(
            ClientNode::new(ClientConfig::new("ws", 1)),
            VirtualClock::new(),
        );
        core.connect(CONN, Dead);
        assert_eq!(
            core.link_closed(CONN),
            Some(TransportClosed::Error(ErrorKind::BrokenPipe))
        );
        assert!(core.writer_mut(CONN).is_none());
        assert_eq!(core.report().counter("driver", "frames_sent"), 1);
    }

    #[test]
    fn the_cost_of_a_reply_delays_the_heartbeat() {
        let mut core = ready("ws");
        let data = FileRef::new(FileId::new(1), "ws:/data");
        core.edit_finished(&data, b"row\n".to_vec());
        core.clock_mut().advance_to(1_000);
        let pull = frame(ServerMessage::UpdateRequest {
            file: data.id,
            have: None,
        });
        let mut priced = Vec::new();
        core.step(Some(pull), |info| {
            priced.push(*info);
            40
        })
        .unwrap();
        assert!(matches!(priced[..], [FrameInfo::UpdateFull { .. }]));
        assert_eq!(core.next_deadline(), Some(1_000 + 40 + HEARTBEAT_MS));
    }

    #[test]
    fn stats_snapshot_exports_the_redial_section() {
        let stats = RedialStats {
            dials: 3,
            dial_failures: 1,
            heartbeats_sent: 5,
            heartbeats_missed: 1,
        };
        let s = stats.snapshot();
        assert_eq!(s.name, "redial");
        assert_eq!(s.get("dials").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(s.get("heartbeats_missed").and_then(|v| v.as_u64()), Some(1));
    }
}

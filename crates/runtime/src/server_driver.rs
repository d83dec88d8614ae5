//! The server-side driver: decode→feed, Send/SetTimer dispatch, the
//! unified timer queue.

use shadow_proto::{ClientMessage, Frame, PersistRecord};
use shadow_server::{
    CloseReason, ServerAction, ServerEvent, ServerNode, SessionId, TimerToken,
};

use crate::event::{DriverEvent, DriverStats, EventHook, FeedError, FrameInfo};
use crate::timer::TimerQueue;

/// An encoded frame the runtime must put on the wire.
#[derive(Debug, Clone)]
pub struct ServerOutbound {
    /// The session to send on.
    pub session: SessionId,
    /// The encoded frame, length prefix included.
    pub frame: Vec<u8>,
}

/// Everything one driver call asks of the runtime: frames to transmit
/// and absolute deadlines of any timers armed during the call.
///
/// Wall-clock runtimes can ignore `armed` (they poll
/// [`ServerDriver::next_deadline`]); the discrete-event simulator turns
/// each armed deadline into a scheduled wake-up event.
#[derive(Debug, Default)]
pub struct ServerIo {
    /// Frames to transmit.
    pub outbound: Vec<ServerOutbound>,
    /// Deadlines (driver-clock ms) of timers armed by this call.
    pub armed: Vec<u64>,
    /// Storage intents to append to the durable shadow store. A
    /// diskless runtime drops them; a durable one journals them in
    /// order (see [`PersistSink`](crate::PersistSink)).
    pub persists: Vec<PersistRecord>,
}

/// Drives a [`ServerNode`]: the single place server actions are
/// dispatched.
///
/// Runtimes deliver transport events ([`connected`](Self::connected),
/// [`feed_frame`](Self::feed_frame), [`disconnected`](Self::disconnected))
/// and clock progress ([`fire_due`](Self::fire_due)); the driver owns
/// the [`TimerQueue`] and the `Send`/`SetTimer` match.
///
/// The `act_delay_ms` closures let a runtime charge CPU time for
/// processing a message before its *consequences* (replies, timers)
/// take effect: the simulator prices delta application against its CPU
/// model, while wall-clock runtimes pass zero because real computation
/// already takes real time.
pub struct ServerDriver {
    node: ServerNode,
    timers: TimerQueue<TimerToken>,
    stats: DriverStats,
    hook: Option<EventHook>,
    /// Reusable frame-encode buffer (see `ClientDriver::encode_scratch`).
    encode_scratch: Vec<u8>,
}

impl std::fmt::Debug for ServerDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerDriver")
            .field("node", &self.node)
            .field("timers", &self.timers.len())
            .field("stats", &self.stats)
            .field("hook", &self.hook.is_some())
            .finish_non_exhaustive()
    }
}

impl Clone for ServerDriver {
    /// Clones the full protocol state. The instrumentation hook is a
    /// non-cloneable closure and is **not** carried over — snapshots
    /// taken by the model checker are driven headless.
    fn clone(&self) -> Self {
        ServerDriver {
            node: self.node.clone(),
            timers: self.timers.clone(),
            stats: self.stats,
            hook: None,
            encode_scratch: Vec::new(),
        }
    }
}

impl ServerDriver {
    /// Wraps a server state machine.
    pub fn new(node: ServerNode) -> Self {
        ServerDriver {
            node,
            timers: TimerQueue::new(),
            stats: DriverStats::default(),
            hook: None,
            encode_scratch: Vec::new(),
        }
    }

    /// Installs an instrumentation tap observing every frame.
    pub fn set_event_hook(&mut self, hook: EventHook) {
        self.hook = Some(hook);
    }

    /// The wrapped state machine (read-only).
    pub fn node(&self) -> &ServerNode {
        &self.node
    }

    /// The wrapped state machine (mutable, for diagnostics hooks).
    pub fn node_mut(&mut self) -> &mut ServerNode {
        &mut self.node
    }

    /// Unwraps the state machine (for post-shutdown inspection).
    pub fn into_node(self) -> ServerNode {
        self.node
    }

    /// Everything this endpoint can report about itself: protocol
    /// metrics, shadow-cache behaviour, and driver wire counters, as
    /// one comparable, exportable aggregate.
    pub fn report(&self) -> shadow_obs::NodeReport {
        self.node.report().with(&self.stats)
    }

    /// A transport session opened.
    pub fn connected(&mut self, session: SessionId, now_ms: u64) -> ServerIo {
        let actions = self.node.handle(ServerEvent::Connected { session, now_ms });
        self.perform(actions, now_ms)
    }

    /// A transport session closed, for the given reason.
    pub fn disconnected(
        &mut self,
        session: SessionId,
        reason: CloseReason,
        now_ms: u64,
    ) -> ServerIo {
        if let Some(hook) = &mut self.hook {
            hook(DriverEvent::SessionClosed {
                session: session.as_u64(),
                reason: reason.label(),
                at_ms: now_ms,
            });
        }
        let actions = self.node.handle(ServerEvent::Disconnected {
            session,
            reason,
            now_ms,
        });
        self.perform(actions, now_ms)
    }

    /// Decodes one inbound frame and feeds it to the state machine.
    ///
    /// `act_delay_ms` prices the CPU cost of handling this particular
    /// message; replies depart and timers count from
    /// `now_ms + act_delay_ms(&message)`.
    pub fn feed_frame(
        &mut self,
        session: SessionId,
        frame: &[u8],
        now_ms: u64,
        act_delay_ms: impl FnOnce(&ClientMessage) -> u64,
    ) -> Result<ServerIo, FeedError> {
        self.stats.frames_received += 1;
        self.stats.bytes_received += frame.len() as u64;
        if let Some(hook) = &mut self.hook {
            hook(DriverEvent::FrameReceived { frame, at_ms: now_ms });
        }
        let (message, _used) =
            Frame::decode::<ClientMessage>(frame)?.ok_or(FeedError::Incomplete)?;
        let base_ms = now_ms + act_delay_ms(&message);
        let actions = self.node.handle(ServerEvent::Message {
            session,
            message,
            now_ms,
        });
        Ok(self.perform(actions, base_ms))
    }

    /// The earliest pending timer deadline.
    pub fn next_deadline(&self) -> Option<u64> {
        self.timers.next_deadline()
    }

    /// True when no timers are pending.
    pub fn timers_idle(&self) -> bool {
        self.timers.is_empty()
    }

    /// All pending `(deadline_ms, token)` pairs in firing order.
    pub fn pending_timers(&self) -> Vec<(u64, TimerToken)> {
        self.timers
            .pending()
            .into_iter()
            .map(|(d, t)| (d, *t))
            .collect()
    }

    /// A deterministic digest of the driver's protocol-relevant state:
    /// the wrapped node plus pending timers, with deadlines taken
    /// *relative* to `now_ms` so two worlds that differ only by a clock
    /// translation deduplicate to one explored state. Wire counters are
    /// excluded (monotonic; would defeat deduplication).
    pub fn state_digest(&self, now_ms: u64) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = shadow_proto::StableHasher::new();
        self.node.state_digest().hash(&mut h);
        for (deadline_ms, token) in self.timers.pending() {
            (deadline_ms.saturating_sub(now_ms), token).hash(&mut h);
        }
        h.finish()
    }

    /// Fires every timer due at or before `now_ms`, in deadline order
    /// (FIFO on ties). `act_delay_ms` is the fixed per-message CPU cost
    /// applied to each expiry's consequences.
    pub fn fire_due(&mut self, now_ms: u64, act_delay_ms: u64) -> ServerIo {
        let mut io = ServerIo::default();
        while let Some((deadline_ms, token)) = self.timers.pop_due(now_ms) {
            self.stats.timers_fired += 1;
            if let Some(hook) = &mut self.hook {
                hook(DriverEvent::TimerFired { deadline_ms });
            }
            let actions = self.node.handle(ServerEvent::Timer { token, now_ms });
            self.perform_into(actions, now_ms + act_delay_ms, &mut io);
        }
        io
    }

    /// **The** server action dispatch: encodes sends, arms timers.
    /// Nothing outside this function interprets a [`ServerAction`].
    fn perform(&mut self, actions: Vec<ServerAction>, base_ms: u64) -> ServerIo {
        let mut io = ServerIo::default();
        self.perform_into(actions, base_ms, &mut io);
        io
    }

    fn perform_into(&mut self, actions: Vec<ServerAction>, base_ms: u64, io: &mut ServerIo) {
        for action in actions {
            match action {
                ServerAction::Send { session, message } => {
                    self.encode_scratch.clear();
                    Frame::encode_into(&message, &mut self.encode_scratch);
                    let frame = self.encode_scratch.clone();
                    self.stats.frames_sent += 1;
                    self.stats.bytes_sent += frame.len() as u64;
                    if let Some(hook) = &mut self.hook {
                        let info = FrameInfo::Other;
                        hook(DriverEvent::FrameSent {
                            frame: &frame,
                            info: &info,
                            at_ms: base_ms,
                        });
                    }
                    io.outbound.push(ServerOutbound { session, frame });
                }
                ServerAction::SetTimer { delay_ms, token } => {
                    let deadline_ms = base_ms + delay_ms;
                    self.stats.timers_armed += 1;
                    if let Some(hook) = &mut self.hook {
                        hook(DriverEvent::TimerArmed { deadline_ms });
                    }
                    self.timers.schedule(deadline_ms, token);
                    io.armed.push(deadline_ms);
                }
                ServerAction::Persist(record) => io.persists.push(record),
            }
        }
    }
}

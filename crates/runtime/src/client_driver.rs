//! The client-side driver: encode→send, receive→decode→feed,
//! notification buffering.

use std::collections::{HashMap, VecDeque};

use shadow_client::{
    ClientAction, ClientError, ClientEvent, ClientNode, ConnId, FileRef, Notification,
};
use shadow_proto::{
    ClientMessage, Frame, JobId, RequestId, ServerMessage, SubmitOptions, UpdatePayload,
    VersionNumber,
};

use crate::event::{CompletedJob, DriverEvent, DriverStats, EventHook, FeedError, FrameInfo};

/// An encoded frame the runtime must put on the wire, with its
/// transfer classification.
#[derive(Debug, Clone)]
pub struct ClientOutbound {
    /// The connection to send on.
    pub conn: ConnId,
    /// The encoded frame, length prefix included.
    pub frame: Vec<u8>,
    /// What the frame carries (deltas vs. full transfers…).
    pub info: FrameInfo,
}

/// Drives a [`ClientNode`]: the single place client actions are
/// dispatched.
///
/// Runtimes (simulator, live threads, TCP client) call the command
/// methods ([`connect`](Self::connect), [`submit`](Self::submit), …)
/// and [`feed_frame`](Self::feed_frame) for inbound traffic; every call
/// returns the encoded frames to transmit. Notifications and finished
/// jobs accumulate internally until drained.
pub struct ClientDriver {
    node: ClientNode,
    notifications: VecDeque<(u64, Notification)>,
    finished: Vec<CompletedJob>,
    request_options: HashMap<RequestId, SubmitOptions>,
    job_options: HashMap<JobId, SubmitOptions>,
    stats: DriverStats,
    hook: Option<EventHook>,
    /// Reusable frame-encode buffer: `perform` encodes every outbound
    /// frame into this warmed scratch, then copies out one exact-sized
    /// frame — the encode itself allocates nothing in steady state.
    encode_scratch: Vec<u8>,
}

impl std::fmt::Debug for ClientDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientDriver")
            .field("node", &self.node)
            .field("notifications", &self.notifications.len())
            .field("finished", &self.finished.len())
            .field("stats", &self.stats)
            .field("hook", &self.hook.is_some())
            .finish_non_exhaustive()
    }
}

impl Clone for ClientDriver {
    /// Clones the full protocol state. The instrumentation hook is a
    /// non-cloneable closure and is **not** carried over — snapshots
    /// taken by the model checker are driven headless.
    fn clone(&self) -> Self {
        ClientDriver {
            node: self.node.clone(),
            notifications: self.notifications.clone(),
            finished: self.finished.clone(),
            request_options: self.request_options.clone(),
            job_options: self.job_options.clone(),
            stats: self.stats,
            hook: None,
            encode_scratch: Vec::new(),
        }
    }
}

impl ClientDriver {
    /// Wraps a client state machine.
    pub fn new(node: ClientNode) -> Self {
        ClientDriver {
            node,
            notifications: VecDeque::new(),
            finished: Vec::new(),
            request_options: HashMap::new(),
            job_options: HashMap::new(),
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
    pub fn node(&self) -> &ClientNode {
        &self.node
    }

    /// The wrapped state machine (mutable, for diagnostics hooks).
    pub fn node_mut(&mut self) -> &mut ClientNode {
        &mut self.node
    }

    /// Everything this endpoint can report about itself: protocol
    /// metrics, version-store occupancy, and driver wire counters, as
    /// one comparable, exportable aggregate.
    pub fn report(&self) -> shadow_obs::NodeReport {
        shadow_obs::NodeReport::new("client")
            .with(&self.node.metrics())
            .with(&self.node.version_stats())
            .with(&self.stats)
    }

    /// Opens a session: emits the Hello.
    pub fn connect(&mut self, conn: ConnId, now_ms: u64) -> Vec<ClientOutbound> {
        let actions = self.node.connect(conn);
        self.perform(actions, now_ms)
    }

    /// Forgets a connection (transport already gone; nothing to send).
    pub fn disconnect(&mut self, conn: ConnId) {
        self.node.disconnect(conn);
    }

    /// The link dropped but the session may yet be resumed: withdraws
    /// readiness, keeps all protocol state (see
    /// [`ClientNode::link_down`]).
    pub fn link_down(&mut self, conn: ConnId, now_ms: u64) {
        let actions = self.node.handle(ClientEvent::LinkDown { conn, now_ms });
        // Link loss sends nothing; perform only records notifications.
        let _ = self.perform(actions, now_ms);
    }

    /// A fresh transport is up for `conn`: emits the resume Hello
    /// carrying the shadow-cache digest summary.
    pub fn reconnect(&mut self, conn: ConnId, now_ms: u64) -> Vec<ClientOutbound> {
        let actions = self.node.handle(ClientEvent::Resume { conn, now_ms });
        self.perform(actions, now_ms)
    }

    /// Emits a heartbeat ping; the matching
    /// [`Notification::Pong`](shadow_client::Notification) surfaces
    /// through the notification queue.
    pub fn ping(
        &mut self,
        conn: ConnId,
        nonce: u64,
        now_ms: u64,
    ) -> Result<Vec<ClientOutbound>, ClientError> {
        let actions = self.node.ping(conn, nonce)?;
        Ok(self.perform(actions, now_ms))
    }

    /// Records the result of an editing session (§6.1 `edit_finished`).
    pub fn edit_finished(
        &mut self,
        file: &FileRef,
        content: Vec<u8>,
        now_ms: u64,
    ) -> (VersionNumber, Vec<ClientOutbound>) {
        let (version, actions) = self.node.edit_finished(file, content);
        (version, self.perform(actions, now_ms))
    }

    /// Submits a job (§6.2), remembering its options for output routing.
    pub fn submit(
        &mut self,
        conn: ConnId,
        job_file: &FileRef,
        data_files: &[FileRef],
        options: SubmitOptions,
        now_ms: u64,
    ) -> Result<(RequestId, Vec<ClientOutbound>), ClientError> {
        let (request, actions) = self
            .node
            .submit(conn, job_file, data_files, options.clone())?;
        self.request_options.insert(request, options);
        Ok((request, self.perform(actions, now_ms)))
    }

    /// Queries job status (§6.3).
    pub fn status(
        &mut self,
        conn: ConnId,
        job: Option<JobId>,
        now_ms: u64,
    ) -> Result<(RequestId, Vec<ClientOutbound>), ClientError> {
        let (request, actions) = self.node.status(conn, job)?;
        Ok((request, self.perform(actions, now_ms)))
    }

    /// Decodes one inbound frame and feeds it to the state machine.
    pub fn feed_frame(
        &mut self,
        conn: ConnId,
        frame: &[u8],
        now_ms: u64,
    ) -> Result<Vec<ClientOutbound>, FeedError> {
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
        Ok(self.perform(actions, now_ms))
    }

    /// **The** client action dispatch: encodes sends, buffers
    /// notifications. Nothing outside this function interprets a
    /// [`ClientAction`].
    fn perform(&mut self, actions: Vec<ClientAction>, now_ms: u64) -> Vec<ClientOutbound> {
        let mut out = Vec::new();
        for action in actions {
            match action {
                ClientAction::Send { conn, message } => {
                    let info = self.classify(&message);
                    self.encode_scratch.clear();
                    Frame::encode_into(&message, &mut self.encode_scratch);
                    let frame = self.encode_scratch.clone();
                    self.stats.frames_sent += 1;
                    self.stats.bytes_sent += frame.len() as u64;
                    match info {
                        FrameInfo::UpdateDelta { .. } => self.stats.deltas_sent += 1,
                        FrameInfo::UpdateFull { .. } => self.stats.fulls_sent += 1,
                        FrameInfo::Other => {}
                    }
                    if let Some(hook) = &mut self.hook {
                        hook(DriverEvent::FrameSent {
                            frame: &frame,
                            info: &info,
                            at_ms: now_ms,
                        });
                    }
                    out.push(ClientOutbound { conn, frame, info });
                }
                ClientAction::Notify(n) => self.record(n, now_ms),
            }
        }
        out
    }

    fn classify(&self, message: &ClientMessage) -> FrameInfo {
        match message {
            ClientMessage::Update { file, payload, .. } => match payload {
                UpdatePayload::Full { .. } => FrameInfo::UpdateFull {
                    file: *file,
                    data_len: payload.data_len(),
                },
                UpdatePayload::Delta { .. } => FrameInfo::UpdateDelta {
                    file: *file,
                    data_len: payload.data_len(),
                    file_size: self
                        .node
                        .file_size(*file)
                        .unwrap_or_else(|| payload.data_len()),
                },
            },
            _ => FrameInfo::Other,
        }
    }

    fn record(&mut self, notification: Notification, now_ms: u64) {
        self.stats.notifications += 1;
        match &notification {
            Notification::JobAccepted { request, job, .. } => {
                if let Some(options) = self.request_options.remove(request) {
                    self.job_options.insert(*job, options);
                }
            }
            Notification::JobRejected { request, .. } => {
                self.request_options.remove(request);
            }
            Notification::JobFinished {
                conn,
                job,
                output,
                errors,
                stats,
            } => {
                self.finished.push(CompletedJob {
                    conn: *conn,
                    job: *job,
                    output: output.clone(),
                    errors: errors.clone(),
                    stats: *stats,
                    options: self.job_options.remove(job),
                    at_ms: now_ms,
                });
            }
            _ => {}
        }
        self.notifications.push_back((now_ms, notification));
    }

    /// Drains all buffered notifications with their arrival times.
    pub fn take_notifications(&mut self) -> Vec<(u64, Notification)> {
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
        let idx = self.notifications.iter().position(|(_, n)| pred(n))?;
        let taken = self.notifications.remove(idx).map(|(_, n)| n);
        if taken.is_some() {
            self.stats.notifications_drained += 1;
        }
        taken
    }

    /// Drains all completed jobs.
    pub fn take_finished(&mut self) -> Vec<CompletedJob> {
        std::mem::take(&mut self.finished)
    }

    /// A deterministic digest of the driver's protocol-relevant state:
    /// the wrapped node plus the undrained notification/completion
    /// buffers and the request→options routing tables. Wire counters are
    /// excluded — they grow monotonically and would defeat the model
    /// checker's state deduplication.
    pub fn state_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = shadow_proto::StableHasher::new();
        self.node.state_digest().hash(&mut h);
        self.notifications.len().hash(&mut h);
        self.finished.len().hash(&mut h);
        let mut requests: Vec<RequestId> = self.request_options.keys().copied().collect();
        requests.sort_unstable();
        requests.hash(&mut h);
        let mut jobs: Vec<JobId> = self.job_options.keys().copied().collect();
        jobs.sort_unstable();
        jobs.hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use shadow_client::ClientConfig;
    use shadow_proto::FileId;
    use shadow_server::{ServerConfig, ServerNode, SessionId};

    use super::*;
    use crate::{Clock, Shard, ShardEvent, VirtualClock};

    const CONN: ConnId = ConnId::new(0);
    const SESSION: SessionId = SessionId::new(1);

    type TestShard = Shard<VirtualClock, Vec<Vec<u8>>, Box<dyn crate::PersistSink>>;

    /// Moves frames between the client driver and the server shard,
    /// firing server timers as they come due, until neither side has
    /// anything left to send. The first frame opens the session.
    fn ferry(client: &mut ClientDriver, server: &mut TestShard, mut out: Vec<ClientOutbound>) {
        loop {
            for o in out.drain(..) {
                let event = match server.writer_mut(SESSION) {
                    Some(_) => ShardEvent::Frame(SESSION, o.frame),
                    None => ShardEvent::Open(SESSION, Vec::new(), o.frame),
                };
                server.step(Some(event), |_| 0);
            }
            while let Some(deadline) = server.next_deadline() {
                server.clock_mut().advance_to(deadline);
                server.step(None, |_| 0);
            }
            let now = server.clock_mut().now_ms();
            let back = std::mem::take(server.writer_mut(SESSION).unwrap());
            for frame in back {
                out.extend(client.feed_frame(CONN, &frame, now).unwrap());
            }
            if out.is_empty() {
                return;
            }
        }
    }

    #[test]
    fn option_maps_drain_when_jobs_finish_or_are_rejected() {
        let mut client = ClientDriver::new(ClientNode::new(ClientConfig::new("ws", 1)));
        let node = ServerNode::new(ServerConfig::new("sc"));
        let mut server = TestShard::new(node, None, VirtualClock::new());
        let out = client.connect(CONN, 0);
        ferry(&mut client, &mut server, out);

        let job = FileRef::new(FileId::new(1), "ws:/echo.job");
        let options = SubmitOptions {
            output_file: Some("/echo.out".into()),
            ..SubmitOptions::default()
        };
        for i in 0..3 {
            let (_, out) = client.edit_finished(&job, format!("echo run {i}\n").into_bytes(), 0);
            ferry(&mut client, &mut server, out);
            let (_, out) = client.submit(CONN, &job, &[], options.clone(), 0).unwrap();
            ferry(&mut client, &mut server, out);
        }
        let finished = client.take_finished();
        assert_eq!(finished.len(), 3);
        assert!(finished
            .iter()
            .all(|j| j.options.as_ref() == Some(&options)));

        // A submission the server turns down never becomes a job.
        let (request, _) = client.submit(CONN, &job, &[], options, 0).unwrap();
        let refusal = Frame::encode(&ServerMessage::SubmitError {
            request,
            reason: "queue full".into(),
        });
        client.feed_frame(CONN, &refusal, 0).unwrap();

        assert!(client.request_options.is_empty(), "rejected request leaked");
        assert!(client.job_options.is_empty(), "finished job leaked");
    }
}

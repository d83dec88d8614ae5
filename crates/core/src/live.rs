//! A live deployment of the service: real threads, real queues.
//!
//! The same sans-io state machines that power the deterministic
//! [`Simulation`](crate::Simulation) here run over actual concurrency: the
//! server in its own thread, each client driven by its caller, connected
//! by in-process duplex pipes carrying the same encoded frames that the
//! simulator carries. Nothing in the protocol code knows which world it is
//! in — the paper's prototype structure (client and server as processes
//! talking TCP) with the transport swapped for an in-process pipe.
//!
//! All protocol dispatch lives in `shadow-runtime`: the server thread is a
//! [`ServerRuntime`] polled over a channel of accepted pipes, and
//! [`LiveClient`] wraps a [`ClientDriver`] around whatever
//! [`FrameTransport`] it was given.

use std::error::Error;
use std::fmt;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use shadow_client::{ClientConfig, ClientError, ConnId, FileRef, Notification};
use shadow_netsim::pipe::{duplex, PipeEnd};
use shadow_proto::{JobId, JobStats, RequestId, SubmitOptions, WireError};
use shadow_obs::NodeReport;
use shadow_runtime::{
    Accepted, ClientDriver, ClientOutbound, Clock, EventHook, FeedError, FrameTransport,
    PersistSink, ServerRuntime, SessionAcceptor, ShardedServerRuntime, WallClock,
};
use shadow_server::{ServerConfig, ServerNode};

/// Errors from the live system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiveError {
    /// The peer hung up (stream corrupt or otherwise unresumable).
    Disconnected,
    /// The transport closed, with the clean-vs-error distinction
    /// preserved for supervisors deciding whether to redial.
    Closed(shadow_runtime::TransportClosed),
    /// A wait timed out.
    Timeout,
    /// A client command failed.
    Client(ClientError),
    /// A frame failed to decode.
    Wire(WireError),
}

impl LiveError {
    /// The transport-level close carried by this error, if any.
    pub fn closed(&self) -> Option<shadow_runtime::TransportClosed> {
        match self {
            LiveError::Closed(c) => Some(*c),
            _ => None,
        }
    }
}

impl fmt::Display for LiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveError::Disconnected => write!(f, "peer disconnected"),
            LiveError::Closed(c) => write!(f, "{c}"),
            LiveError::Timeout => write!(f, "timed out waiting for the server"),
            LiveError::Client(e) => write!(f, "client: {e}"),
            LiveError::Wire(e) => write!(f, "wire: {e}"),
        }
    }
}

impl From<shadow_runtime::TransportClosed> for LiveError {
    fn from(c: shadow_runtime::TransportClosed) -> Self {
        LiveError::Closed(c)
    }
}

impl Error for LiveError {}

impl From<ClientError> for LiveError {
    fn from(e: ClientError) -> Self {
        LiveError::Client(e)
    }
}
impl From<WireError> for LiveError {
    fn from(e: WireError) -> Self {
        LiveError::Wire(e)
    }
}
impl From<FeedError> for LiveError {
    fn from(e: FeedError) -> Self {
        match e {
            FeedError::Wire(w) => LiveError::Wire(w),
            // Framed transports deliver whole frames; a short one means
            // the stream is corrupt beyond recovery.
            FeedError::Incomplete => LiveError::Disconnected,
        }
    }
}

/// Accepts sessions from the registrar channel: each new client hands the
/// server its end of a fresh duplex pipe.
struct ChannelAcceptor {
    rx: Receiver<PipeEnd>,
}

impl SessionAcceptor for ChannelAcceptor {
    type Transport = PipeEnd;
    type Error = std::convert::Infallible;

    fn poll_accept(&mut self) -> Result<Accepted<PipeEnd>, Self::Error> {
        Ok(match self.rx.try_recv() {
            Ok(pipe) => Accepted::Session(pipe),
            Err(TryRecvError::Empty) => Accepted::None,
            Err(TryRecvError::Disconnected) => Accepted::Closed,
        })
    }
}

/// A running shadow server thread plus a registrar for new clients.
///
/// # Example
///
/// ```
/// use shadow::{ClientConfig, Deployment, ServerConfig, SubmitOptions, FileRef};
/// use shadow_proto::FileId;
/// use std::time::Duration;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let system = Deployment::new(ServerConfig::new("superc")).pipes()?;
/// let mut client = system.connect_client(ClientConfig::new("ws1", 1));
/// client.wait_ready(Duration::from_secs(2))?;
///
/// let job = FileRef::new(FileId::new(1), "ws1:/hello.job");
/// client.edit_finished(&job, b"echo hello\n".to_vec());
/// client.submit(&job, &[], SubmitOptions::default())?;
/// let (_, output, _, _) = client.wait_job(Duration::from_secs(5))?;
/// assert_eq!(output, b"hello\n");
/// # drop(client);
/// # system.shutdown();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LiveSystem {
    handle: Option<JoinHandle<ServerNode>>,
    registrar: Sender<PipeEnd>,
    reports: Sender<Sender<NodeReport>>,
}

impl LiveSystem {
    /// Starts the server thread.
    #[deprecated(note = "use `Deployment::new(config).pipes()`")]
    pub fn start(config: ServerConfig) -> Self {
        Self::start_with(ServerNode::new(config), None)
    }

    /// Starts the server thread around a pre-built node (fresh, or
    /// restored from a durable store) and the sink its storage intents
    /// go to. The [`Deployment`](crate::Deployment) builder is the
    /// public face of this.
    pub(crate) fn start_with(node: ServerNode, sink: Option<Box<dyn PersistSink>>) -> Self {
        let (registrar, reg_rx) = unbounded::<PipeEnd>();
        let (reports, report_rx) = unbounded::<Sender<NodeReport>>();
        let handle = std::thread::Builder::new()
            .name("shadow-server".to_string())
            .spawn(move || {
                let mut runtime =
                    ServerRuntime::new(node, ChannelAcceptor { rx: reg_rx }, WallClock::new());
                if let Some(sink) = sink {
                    runtime = runtime.with_sink(sink);
                }
                loop {
                    let Ok(busy) = runtime.poll_once();
                    while let Ok(reply) = report_rx.try_recv() {
                        let _ = reply.send(runtime.report());
                    }
                    // Exit once no new clients can arrive and all work
                    // (sessions, pending timers) has drained.
                    if runtime.acceptor_closed() && runtime.idle() {
                        return runtime.into_node();
                    }
                    if !busy {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            })
            .expect("spawn server thread");
        LiveSystem {
            handle: Some(handle),
            registrar,
            reports,
        }
    }

    /// The live server report (protocol metrics, cache behaviour, poll
    /// loop counters). `None` once the system has begun shutting down.
    pub fn report(&self) -> Option<NodeReport> {
        let (reply_tx, reply_rx) = unbounded();
        self.reports.send(reply_tx).ok()?;
        reply_rx.recv_timeout(Duration::from_secs(5)).ok()
    }

    /// Connects a new client: sends the `Hello` immediately.
    pub fn connect_client(&self, config: ClientConfig) -> LiveClient {
        let (client_end, server_end) = duplex();
        self.registrar
            .send(server_end)
            .expect("server thread is running");
        LiveClient::over_transport(config, client_end)
            .expect("hello on a fresh pipe cannot fail")
    }

    /// Establishes a fresh transport without building a client — the
    /// redial path for an existing [`LiveClient`] resuming after a
    /// dropped link ([`LiveClient::resume_over`]).
    pub fn connect_transport(&self) -> PipeEnd {
        let (client_end, server_end) = duplex();
        self.registrar
            .send(server_end)
            .expect("server thread is running");
        client_end
    }

    /// Stops accepting clients and waits for the server thread to finish
    /// (all clients must have been dropped), returning the final server
    /// state for inspection.
    pub fn shutdown(mut self) -> ServerNode {
        drop(self.registrar);
        self.handle
            .take()
            .expect("not yet shut down")
            .join()
            .expect("server thread panicked")
    }

    /// Starts a **sharded** deployment: `shards` worker threads, each
    /// owning its own `ServerNode`, behind a routing acceptor thread
    /// that assigns every session to the shard owning its naming
    /// domain. See [`ShardedLiveSystem`].
    #[deprecated(note = "use `Deployment::new(config).shards(n).pipes()`")]
    #[allow(deprecated)]
    pub fn sharded(config: ServerConfig, shards: usize) -> ShardedLiveSystem {
        ShardedLiveSystem::start(config, shards)
    }
}

/// A running sharded shadow server — the scale-out sibling of
/// [`LiveSystem`].
///
/// The acceptor thread runs a
/// [`ShardedServerRuntime`](shadow_runtime::ShardedServerRuntime) over
/// the same registrar channel a [`LiveSystem`] uses: each new client
/// hands over its end of a duplex pipe, the router peeks the `Hello`
/// frame for the client's domain id, and the session is moved — frames
/// intact — to the worker shard that owns that domain. Clients are
/// oblivious: [`LiveClient`] works identically against either system.
///
/// # Example
///
/// ```
/// use shadow::{ClientConfig, Deployment, ServerConfig, SubmitOptions, FileRef};
/// use shadow_proto::FileId;
/// use std::time::Duration;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let system = Deployment::new(ServerConfig::new("superc")).shards(4).pipes()?;
/// let mut client = system.connect_client(ClientConfig::new("ws1", 1));
/// client.wait_ready(Duration::from_secs(2))?;
///
/// let job = FileRef::new(FileId::new(1), "ws1:/hello.job");
/// client.edit_finished(&job, b"echo hello\n".to_vec());
/// client.submit(&job, &[], SubmitOptions::default())?;
/// let (_, output, _, _) = client.wait_job(Duration::from_secs(5))?;
/// assert_eq!(output, b"hello\n");
/// # drop(client);
/// # system.shutdown();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedLiveSystem {
    handle: Option<JoinHandle<Vec<ServerNode>>>,
    registrar: Sender<PipeEnd>,
    reports: Sender<Sender<NodeReport>>,
}

impl ShardedLiveSystem {
    /// Starts the router thread and its worker shards.
    #[deprecated(note = "use `Deployment::new(config).shards(n).pipes()`")]
    pub fn start(config: ServerConfig, shards: usize) -> Self {
        Self::start_with_parts(
            (0..shards.max(1))
                .map(|_| (ServerNode::new(config.clone()), None))
                .collect(),
        )
    }

    /// Starts the router thread over pre-built shards — each its
    /// (possibly journal-restored) node plus the sink that shard's
    /// storage intents go to. The [`Deployment`](crate::Deployment)
    /// builder is the public face of this.
    pub(crate) fn start_with_parts(
        parts: Vec<(ServerNode, Option<Box<dyn PersistSink>>)>,
    ) -> Self {
        let (registrar, reg_rx) = unbounded::<PipeEnd>();
        let (reports, report_rx) = unbounded::<Sender<NodeReport>>();
        let handle = std::thread::Builder::new()
            .name("shadow-shard-router".to_string())
            .spawn(move || {
                let mut runtime = ShardedServerRuntime::from_parts(
                    parts,
                    ChannelAcceptor { rx: reg_rx },
                    WallClock::new(),
                );
                loop {
                    let Ok(busy) = runtime.poll_once();
                    while let Ok(reply) = report_rx.try_recv() {
                        let _ = reply.send(runtime.report());
                    }
                    // Exit once no new clients can arrive and every
                    // accepted session has been routed; the shards then
                    // drain their own sessions and timers.
                    if runtime.router_idle() {
                        return runtime.shutdown();
                    }
                    if !busy {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            })
            .expect("spawn shard router thread");
        ShardedLiveSystem {
            handle: Some(handle),
            registrar,
            reports,
        }
    }

    /// Connects a new client: sends the `Hello` immediately. Identical
    /// to [`LiveSystem::connect_client`]; the sharding is invisible to
    /// the client.
    pub fn connect_client(&self, config: ClientConfig) -> LiveClient {
        let (client_end, server_end) = duplex();
        self.registrar
            .send(server_end)
            .expect("router thread is running");
        LiveClient::over_transport(config, client_end)
            .expect("hello on a fresh pipe cannot fail")
    }

    /// Establishes a fresh transport without building a client — the
    /// redial path for an existing [`LiveClient`] resuming after a
    /// dropped link. The resume `Hello` carries the client's domain, so
    /// the router lands the new session on the same shard that holds
    /// the cached versions.
    pub fn connect_transport(&self) -> PipeEnd {
        let (client_end, server_end) = duplex();
        self.registrar
            .send(server_end)
            .expect("router thread is running");
        client_end
    }

    /// The aggregate server report: per-shard [`NodeReport`]s merged
    /// value-wise plus `shards`/`shardN` breakdown sections (see
    /// [`ShardedServerRuntime::report`]). `None` once the system has
    /// begun shutting down.
    pub fn report(&self) -> Option<NodeReport> {
        let (reply_tx, reply_rx) = unbounded();
        self.reports.send(reply_tx).ok()?;
        reply_rx.recv_timeout(Duration::from_secs(5)).ok()
    }

    /// Stops accepting clients, drains every shard (all clients must
    /// eventually be dropped), and returns each shard's final protocol
    /// state, in shard-index order.
    pub fn shutdown(mut self) -> Vec<ServerNode> {
        drop(self.registrar);
        self.handle
            .take()
            .expect("not yet shut down")
            .join()
            .expect("shard router thread panicked")
    }
}

/// A client of a live deployment, driven by the calling thread; generic
/// over the frame transport (in-process pipe or TCP).
pub struct LiveClient<T: FrameTransport = PipeEnd> {
    driver: ClientDriver,
    transport: T,
    conn: ConnId,
    clock: WallClock,
}

// Manual impl: transports need not be `Debug`.
impl<T: FrameTransport> std::fmt::Debug for LiveClient<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveClient")
            .field("driver", &self.driver)
            .field("conn", &self.conn)
            .finish_non_exhaustive()
    }
}

impl<T: FrameTransport> LiveClient<T> {
    /// Builds a client over an established transport and sends the
    /// `Hello`.
    ///
    /// # Errors
    ///
    /// Transport failures sending the handshake.
    pub fn over_transport(config: ClientConfig, transport: T) -> Result<Self, LiveError> {
        let mut client = LiveClient {
            driver: ClientDriver::new(shadow_client::ClientNode::new(config)),
            transport,
            conn: ConnId::new(0),
            clock: WallClock::new(),
        };
        let now_ms = client.clock.now_ms();
        let out = client.driver.connect(client.conn, now_ms);
        client.transmit(out)?;
        Ok(client)
    }

    /// Installs an instrumentation tap observing every frame this client
    /// sends or receives.
    pub fn set_event_hook(&mut self, hook: EventHook) {
        self.driver.set_event_hook(hook);
    }

    fn transmit(&mut self, out: Vec<ClientOutbound>) -> Result<(), LiveError> {
        for o in out {
            self.transport.send_frame(o.frame).map_err(LiveError::from)?;
        }
        Ok(())
    }

    fn feed(&mut self, frame: &[u8]) -> Result<(), LiveError> {
        let now_ms = self.clock.now_ms();
        let out = self.driver.feed_frame(self.conn, frame, now_ms)?;
        // Completions reach callers as `JobFinished` notifications only;
        // the driver's completed-job copy would otherwise pile up, one
        // output per finished job, for the life of the client.
        self.driver.take_finished();
        self.transmit(out)
    }

    /// Processes any frames that have arrived; returns how many.
    ///
    /// # Errors
    ///
    /// [`LiveError::Disconnected`] when the server is gone.
    pub fn pump(&mut self) -> Result<usize, LiveError> {
        let mut n = 0;
        while let Some(frame) = self
            .transport
            .recv_frame(Duration::ZERO)
            .map_err(LiveError::from)?
        {
            self.feed(&frame)?;
            n += 1;
        }
        Ok(n)
    }

    /// Pumps until `pred` matches a queued notification (which is removed
    /// and returned) or the timeout elapses.
    ///
    /// # Errors
    ///
    /// [`LiveError::Timeout`] or [`LiveError::Disconnected`].
    pub fn wait_for(
        &mut self,
        timeout: Duration,
        mut pred: impl FnMut(&Notification) -> bool,
    ) -> Result<Notification, LiveError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(n) = self.driver.take_notification_matching(&mut pred) {
                return Ok(n);
            }
            if Instant::now() >= deadline {
                return Err(LiveError::Timeout);
            }
            match self.transport.recv_frame(Duration::from_millis(10)) {
                Ok(Some(frame)) => self.feed(&frame)?,
                Ok(None) => {}
                Err(c) => return Err(LiveError::Closed(c)),
            }
        }
    }

    /// Waits for the session handshake to complete.
    ///
    /// # Errors
    ///
    /// [`LiveError::Timeout`] or [`LiveError::Disconnected`].
    pub fn wait_ready(&mut self, timeout: Duration) -> Result<(), LiveError> {
        self.wait_for(timeout, |n| matches!(n, Notification::SessionReady { .. }))
            .map(|_| ())
    }

    /// The link is gone but the session may yet be resumed: marks the
    /// connection down in the protocol state machine, keeping version
    /// chains and acked knowledge for the resume handshake.
    pub fn link_down(&mut self) {
        let now_ms = self.clock.now_ms();
        self.driver.link_down(self.conn, now_ms);
    }

    /// Resumes the session over a freshly dialed transport: swaps the
    /// transport and sends the resume `Hello` carrying the client's
    /// shadow-cache digest summary. Follow with
    /// [`wait_ready`](Self::wait_ready) to learn what the server
    /// retained.
    ///
    /// # Errors
    ///
    /// Transport failures sending the resume handshake.
    pub fn resume_over(&mut self, transport: T) -> Result<(), LiveError> {
        self.transport = transport;
        let now_ms = self.clock.now_ms();
        let out = self.driver.reconnect(self.conn, now_ms);
        self.transmit(out)
    }

    /// Sends a heartbeat ping; the pong surfaces as
    /// [`Notification::Pong`] via the notification queue.
    ///
    /// # Errors
    ///
    /// Client-command or transport failures.
    pub fn ping(&mut self, nonce: u64) -> Result<(), LiveError> {
        let now_ms = self.clock.now_ms();
        let out = self.driver.ping(self.conn, nonce, now_ms)?;
        self.transmit(out)
    }

    /// Records an editing session's result (the shadow post-processor).
    pub fn edit_finished(&mut self, file: &FileRef, content: Vec<u8>) {
        let now_ms = self.clock.now_ms();
        let (_, out) = self.driver.edit_finished(file, content, now_ms);
        // A send failure surfaces on the next pump.
        let _ = self.transmit(out);
    }

    /// Submits a job.
    ///
    /// # Errors
    ///
    /// Client-command or transport failures.
    pub fn submit(
        &mut self,
        job_file: &FileRef,
        data_files: &[FileRef],
        options: SubmitOptions,
    ) -> Result<RequestId, LiveError> {
        let now_ms = self.clock.now_ms();
        let (request, out) = self
            .driver
            .submit(self.conn, job_file, data_files, options, now_ms)?;
        self.transmit(out)?;
        Ok(request)
    }

    /// Queries job status.
    ///
    /// # Errors
    ///
    /// Client-command or transport failures.
    pub fn status(&mut self, job: Option<JobId>) -> Result<RequestId, LiveError> {
        let now_ms = self.clock.now_ms();
        let (request, out) = self.driver.status(self.conn, job, now_ms)?;
        self.transmit(out)?;
        Ok(request)
    }

    /// Waits for the next completed job, returning
    /// `(job, output, errors, stats)`.
    ///
    /// # Errors
    ///
    /// [`LiveError::Timeout`] or [`LiveError::Disconnected`].
    pub fn wait_job(
        &mut self,
        timeout: Duration,
    ) -> Result<(JobId, Vec<u8>, Vec<u8>, JobStats), LiveError> {
        let n = self.wait_for(timeout, |n| matches!(n, Notification::JobFinished { .. }))?;
        match n {
            Notification::JobFinished {
                job,
                output,
                errors,
                stats,
                ..
            } => Ok((job, output, errors, stats)),
            _ => unreachable!("predicate matched JobFinished"),
        }
    }

    /// Removes and returns all queued notifications.
    pub fn take_notifications(&mut self) -> Vec<Notification> {
        self.driver
            .take_notifications()
            .into_iter()
            .map(|(_, n)| n)
            .collect()
    }

    /// The client's traffic counters.
    #[deprecated(note = "use `report()` and read the \"client\" section")]
    #[allow(deprecated)]
    pub fn metrics(&self) -> shadow_client::ClientMetrics {
        self.driver.metrics()
    }

    /// The client's full report: protocol metrics, version-store
    /// occupancy, and driver wire counters as one aggregate.
    pub fn report(&self) -> shadow_obs::NodeReport {
        self.driver.report()
    }

    /// Direct access to the protocol node (persistence, diagnostics).
    pub fn node(&self) -> &shadow_client::ClientNode {
        self.driver.node()
    }

    /// Mutable access to the protocol node (restoring persisted version
    /// chains before use).
    pub fn node_mut(&mut self) -> &mut shadow_client::ClientNode {
        self.driver.node_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::Deployment;
    use shadow_proto::FileId;

    fn fref(id: u64, name: &str) -> FileRef {
        FileRef::new(FileId::new(id), name)
    }

    #[test]
    fn live_round_trip_runs_a_job() {
        let system = Deployment::new(ServerConfig::new("sc")).pipes().unwrap();
        let mut client = system.connect_client(ClientConfig::new("ws1", 1));
        client.wait_ready(Duration::from_secs(5)).unwrap();

        let job = fref(1, "ws1:/hello.job");
        client.edit_finished(&job, b"echo live\n".to_vec());
        client.submit(&job, &[], SubmitOptions::default()).unwrap();
        let (_, output, errors, stats) = client.wait_job(Duration::from_secs(10)).unwrap();
        assert_eq!(output, b"live\n");
        assert!(errors.is_empty());
        assert_eq!(stats.exit_code, 0);
        drop(client);
        let server = system.shutdown().remove(0);
        assert_eq!(server.report().counter("server", "jobs_completed"), 1);
    }

    #[test]
    fn finished_jobs_are_not_retained_by_the_driver() {
        let config = ServerConfig::new("sc").with_exec(shadow_server::ExecProfile {
            job_overhead_ms: 0,
            cpu_byte_rate: u64::MAX,
        });
        let system = Deployment::new(config).pipes().unwrap();
        let mut client = system.connect_client(ClientConfig::new("ws1", 1));
        client.wait_ready(Duration::from_secs(5)).unwrap();

        let job = fref(1, "ws1:/echo.job");
        for i in 0..50 {
            client.edit_finished(&job, format!("echo run {i}\n").into_bytes());
            client.submit(&job, &[], SubmitOptions::default()).unwrap();
            let (_, output, _, _) = client.wait_job(Duration::from_secs(10)).unwrap();
            assert_eq!(output, format!("run {i}\n").into_bytes());
        }
        assert!(
            client.driver.take_finished().is_empty(),
            "completed jobs must not accumulate in the driver"
        );
        drop(client);
        let server = system.shutdown().remove(0);
        assert_eq!(server.report().counter("server", "jobs_completed"), 50);
    }

    #[test]
    fn live_resubmission_uses_delta() {
        let system = Deployment::new(ServerConfig::new("sc")).pipes().unwrap();
        let mut client = system.connect_client(ClientConfig::new("ws1", 1));
        client.wait_ready(Duration::from_secs(5)).unwrap();

        let data = fref(2, "ws1:/data");
        let job = fref(1, "ws1:/job");
        let content: Vec<u8> = (0..500)
            .flat_map(|i| format!("row {i}\n").into_bytes())
            .collect();
        client.edit_finished(&data, content.clone());
        client.edit_finished(&job, b"wc ws1:/data\n".to_vec());
        client
            .submit(&job, std::slice::from_ref(&data), SubmitOptions::default())
            .unwrap();
        client.wait_job(Duration::from_secs(10)).unwrap();

        let mut edited = content.clone();
        edited.extend_from_slice(b"one more row\n");
        client.edit_finished(&data, edited);
        client
            .submit(&job, std::slice::from_ref(&data), SubmitOptions::default())
            .unwrap();
        client.wait_job(Duration::from_secs(10)).unwrap();
        assert_eq!(client.report().counter("client", "deltas_sent"), 1);

        drop(client);
        let server = system.shutdown().remove(0);
        assert_eq!(server.report().counter("server", "delta_updates"), 1);
        assert_eq!(server.report().counter("server", "jobs_completed"), 2);
    }

    #[test]
    fn multiple_live_clients_share_a_server() {
        let system = Deployment::new(ServerConfig::new("sc").with_max_running(2))
            .pipes()
            .unwrap();
        let mut c1 = system.connect_client(ClientConfig::new("ws1", 1));
        let mut c2 = system.connect_client(ClientConfig::new("ws2", 1));
        c1.wait_ready(Duration::from_secs(5)).unwrap();
        c2.wait_ready(Duration::from_secs(5)).unwrap();

        // Distinct files get distinct ids within the shared domain (name
        // resolution guarantees this; here we assign them by hand).
        let j1 = fref(1, "ws1:/a.job");
        let j2 = fref(2, "ws2:/b.job");
        c1.edit_finished(&j1, b"echo from ws1\n".to_vec());
        c2.edit_finished(&j2, b"echo from ws2\n".to_vec());
        c1.submit(&j1, &[], SubmitOptions::default()).unwrap();
        c2.submit(&j2, &[], SubmitOptions::default()).unwrap();
        let (_, o1, _, _) = c1.wait_job(Duration::from_secs(10)).unwrap();
        let (_, o2, _, _) = c2.wait_job(Duration::from_secs(10)).unwrap();
        assert_eq!(o1, b"from ws1\n");
        assert_eq!(o2, b"from ws2\n");
        drop(c1);
        drop(c2);
        let server = system.shutdown().remove(0);
        assert_eq!(server.report().counter("server", "jobs_completed"), 2);
    }

    #[test]
    fn sharded_live_routes_domains_and_runs_jobs() {
        let system = Deployment::new(ServerConfig::new("sc"))
            .shards(4)
            .pipes()
            .unwrap();
        let mut clients: Vec<LiveClient> = (1..=4u64)
            .map(|d| {
                system.connect_client(ClientConfig::new(format!("ws{d}"), d))
            })
            .collect();
        for (i, c) in clients.iter_mut().enumerate() {
            c.wait_ready(Duration::from_secs(5)).unwrap();
            let job = fref(1, "ws:/job");
            c.edit_finished(&job, format!("echo shard {i}\n").into_bytes());
            c.submit(&job, &[], SubmitOptions::default()).unwrap();
        }
        for (i, c) in clients.iter_mut().enumerate() {
            let (_, output, _, _) = c.wait_job(Duration::from_secs(10)).unwrap();
            assert_eq!(output, format!("shard {i}\n").into_bytes());
        }

        let report = system.report().expect("router still running");
        assert_eq!(report.counter("shards", "routed"), 4);
        assert_eq!(report.counter("shards", "refused"), 0);
        assert_eq!(report.counter("server", "jobs_completed"), 4);

        drop(clients);
        let nodes = system.shutdown();
        assert_eq!(nodes.len(), 4);
        let total: u64 = nodes
            .iter()
            .map(|n| n.report().counter("server", "jobs_completed"))
            .sum();
        assert_eq!(total, 4);
    }

    #[test]
    #[allow(deprecated)]
    fn sharded_live_with_one_shard_matches_single_server_behaviour() {
        // Deliberately exercises the deprecated entry point so the thin
        // wrapper keeps working until it is removed.
        let system = LiveSystem::sharded(ServerConfig::new("sc"), 1);
        let mut client = system.connect_client(ClientConfig::new("ws1", 7));
        client.wait_ready(Duration::from_secs(5)).unwrap();
        let job = fref(1, "ws1:/hello.job");
        client.edit_finished(&job, b"echo one\n".to_vec());
        client.submit(&job, &[], SubmitOptions::default()).unwrap();
        let (_, output, _, _) = client.wait_job(Duration::from_secs(10)).unwrap();
        assert_eq!(output, b"one\n");
        drop(client);
        let nodes = system.shutdown();
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].report().counter("server", "jobs_completed"), 1);
    }
}

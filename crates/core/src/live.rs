//! The client side of a live deployment: real threads, real queues.
//!
//! The same sans-io state machines that power the deterministic
//! [`Simulation`](crate::Simulation) here run over actual concurrency:
//! the server's shards on their own threads, each client driven by its
//! caller, connected by in-process duplex pipes (or TCP) carrying the
//! same encoded frames that the simulator carries. Nothing in the
//! protocol code knows which world it is in — the paper's prototype
//! structure (client and server as processes talking TCP) with the
//! transport swapped for an in-process pipe.
//!
//! All protocol dispatch lives in `shadow-runtime`: the server side is
//! the sharded runtime a [`Deployment`](crate::Deployment) stands up,
//! and [`LiveClient`] steps a [`ClientCore`] on wall time, reading
//! frames from whatever [`FrameTransport`] it was given and, when it
//! has a dialer, redialing when the core asks.

use std::error::Error;
use std::fmt;
use std::io;
use std::time::Duration;

use shadow_client::{ClientConfig, ClientError, ClientNode, ConnId, FileRef, Notification};
use shadow_netsim::pipe::PipeEnd;
use shadow_proto::{JobId, JobStats, RequestId, SubmitOptions, WireError};
use shadow_runtime::{
    ClientCore, ClientInput, Clock, EventHook, FeedError, FrameTransport, TransportClosed,
    WallClock,
};

/// How long one wait on the transport lasts before [`LiveClient`]
/// rechecks its deadlines.
const POLL: Duration = Duration::from_millis(10);

/// A live client's one connection.
const CONN: ConnId = ConnId::new(0);

/// Dials a fresh transport to the client's server.
pub(crate) type Dialer<T> = Box<dyn FnMut() -> io::Result<T> + Send>;

/// Errors from the live system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiveError {
    /// The peer hung up (stream corrupt or otherwise unresumable).
    Disconnected,
    /// The link is down, with how its transport closed.
    Closed(TransportClosed),
    /// A wait timed out.
    Timeout,
    /// A client command failed.
    Client(ClientError),
    /// A frame failed to decode.
    Wire(WireError),
}

impl LiveError {
    /// The transport-level close carried by this error, if any.
    pub fn closed(&self) -> Option<TransportClosed> {
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

impl Error for LiveError {}

impl From<ClientError> for LiveError {
    fn from(e: ClientError) -> Self {
        LiveError::Client(e)
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

/// A client of a live deployment, driven by the calling thread; generic
/// over the frame transport (in-process pipe or TCP). Its [`ClientCore`]
/// keeps the link up; a lost link is redialed by the client itself when
/// it has a dialer ([`connect_tcp`](crate::connect_tcp)), and otherwise
/// surfaces as [`LiveError::Closed`] until [`resume_over`](Self::resume_over).
pub struct LiveClient<T: FrameTransport = PipeEnd> {
    core: ClientCore<WallClock, T>,
    dialer: Option<Dialer<T>>,
}

// Manual impl: transports need not be `Debug`.
impl<T: FrameTransport> std::fmt::Debug for LiveClient<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveClient")
            .field("core", &self.core)
            .field("dialer", &self.dialer.is_some())
            .finish()
    }
}

impl<T: FrameTransport> LiveClient<T> {
    /// Builds a client over an established transport and sends the
    /// `Hello`. The client cannot redial by itself: after a lost link,
    /// hand it a fresh transport with [`resume_over`](Self::resume_over).
    ///
    /// # Errors
    ///
    /// Transport failures sending the handshake.
    pub fn over_transport(config: ClientConfig, transport: T) -> Result<Self, LiveError> {
        LiveClient::start(config, transport, None)
    }

    /// Like [`over_transport`](Self::over_transport), with the dialer, if
    /// any, that the client redials through whenever its core asks.
    pub(crate) fn start(
        config: ClientConfig,
        transport: T,
        dialer: Option<Dialer<T>>,
    ) -> Result<Self, LiveError> {
        let mut core = ClientCore::new(ClientNode::new(config), WallClock::new());
        core.connect(CONN, transport);
        let client = LiveClient { core, dialer };
        client.link_ok()?;
        Ok(client)
    }

    /// Installs an instrumentation tap observing every frame this client
    /// sends or receives.
    pub fn set_event_hook(&mut self, hook: EventHook) {
        self.core.set_event_hook(hook);
    }

    /// `Err` with how the link went, while it is down.
    fn link_ok(&self) -> Result<(), LiveError> {
        match self.core.link_closed(CONN) {
            Some(closed) => Err(LiveError::Closed(closed)),
            None => Ok(()),
        }
    }

    /// Steps the core with `input` (`None` fires its due timers), then
    /// dials if the core asks and the client has a dialer.
    fn step(&mut self, input: Option<ClientInput<T>>) -> Result<(), LiveError> {
        self.core.step(input, |_| 0)?;
        let Some(conn) = self.core.dial_wanted() else {
            return Ok(());
        };
        let Some(dial) = self.dialer.as_mut() else {
            return Ok(());
        };
        let answer = match dial() {
            Ok(transport) => ClientInput::Dialed(conn, transport),
            Err(_) => ClientInput::DialFailed(conn),
        };
        Ok(self.core.step(Some(answer), |_| 0)?)
    }

    /// Processes any frames that have arrived; returns how many.
    ///
    /// # Errors
    ///
    /// [`LiveError::Closed`] when the link is down.
    pub fn pump(&mut self) -> Result<usize, LiveError> {
        let mut n = 0;
        while let Some(transport) = self.core.writer_mut(CONN) {
            let input = match transport.recv_frame(Duration::ZERO) {
                Ok(Some(frame)) => {
                    n += 1;
                    ClientInput::Frame(CONN, frame)
                }
                Ok(None) => return Ok(n),
                Err(closed) => ClientInput::Lost(CONN, closed),
            };
            self.step(Some(input))?;
        }
        self.link_ok().map(|()| n)
    }

    /// Pumps until `pred` matches a queued notification (which is removed
    /// and returned) or the timeout elapses. Meanwhile the client keeps
    /// its link up: it fires its heartbeat and liveness timers and, with
    /// a dialer, redials a lost link.
    ///
    /// # Errors
    ///
    /// [`LiveError::Timeout`], or [`LiveError::Closed`] when the link is
    /// down and the client has no dialer.
    pub fn wait_for(
        &mut self,
        timeout: Duration,
        mut pred: impl FnMut(&Notification) -> bool,
    ) -> Result<Notification, LiveError> {
        let deadline = self.core.clock().now_ms() + timeout.as_millis() as u64;
        loop {
            if let Some(n) = self.core.take_notification_matching(&mut pred) {
                return Ok(n);
            }
            let now_ms = self.core.clock().now_ms();
            if now_ms >= deadline {
                return Err(LiveError::Timeout);
            }
            if self.core.next_deadline().is_some_and(|t| t <= now_ms) {
                self.step(None)?;
            }
            match self.core.writer_mut(CONN) {
                Some(transport) => match transport.recv_frame(POLL) {
                    Ok(Some(frame)) => self.step(Some(ClientInput::Frame(CONN, frame)))?,
                    Ok(None) => {}
                    Err(closed) => self.step(Some(ClientInput::Lost(CONN, closed)))?,
                },
                None if self.dialer.is_none() => self.link_ok()?,
                // Down, with a redial pending: nap until it falls due.
                None => std::thread::sleep(POLL.min(Duration::from_millis(deadline - now_ms))),
            }
        }
    }

    /// Waits for the session handshake to complete.
    ///
    /// # Errors
    ///
    /// [`LiveError::Timeout`] or [`LiveError::Closed`].
    pub fn wait_ready(&mut self, timeout: Duration) -> Result<(), LiveError> {
        self.wait_for(timeout, |n| matches!(n, Notification::SessionReady { .. }))
            .map(|_| ())
    }

    /// The link is gone but the session may yet be resumed: marks the
    /// connection down, keeping version chains and acked knowledge for
    /// the resume handshake, and hangs up on the old transport.
    pub fn link_down(&mut self) {
        let lost = ClientInput::Lost(CONN, TransportClosed::Clean);
        // A lost link decodes nothing, so the step cannot fail.
        let _ = self.core.step(Some(lost), |_| 0);
    }

    /// Resumes the session over a freshly dialed transport: sends the
    /// resume `Hello` carrying the client's shadow-cache digest summary.
    /// Follow with [`wait_ready`](Self::wait_ready) to learn what the
    /// server retained.
    ///
    /// # Errors
    ///
    /// Transport failures sending the resume handshake.
    pub fn resume_over(&mut self, transport: T) -> Result<(), LiveError> {
        self.core
            .step(Some(ClientInput::Dialed(CONN, transport)), |_| 0)?;
        self.link_ok()
    }

    /// Sends a ping; the pong surfaces as [`Notification::Pong`] via the
    /// notification queue. The nonce `u64::MAX` is the client's own
    /// heartbeat, whose pong does not surface.
    ///
    /// # Errors
    ///
    /// Client-command or transport failures.
    pub fn ping(&mut self, nonce: u64) -> Result<(), LiveError> {
        self.core.ping(CONN, nonce)?;
        self.link_ok()
    }

    /// Records an editing session's result (the shadow post-processor).
    /// A send failure surfaces on the next wait.
    pub fn edit_finished(&mut self, file: &FileRef, content: Vec<u8>) {
        self.core.edit_finished(file, content);
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
        let request = self.core.submit(CONN, job_file, data_files, options)?;
        self.link_ok().map(|()| request)
    }

    /// Queries job status.
    ///
    /// # Errors
    ///
    /// Client-command or transport failures.
    pub fn status(&mut self, job: Option<JobId>) -> Result<RequestId, LiveError> {
        let request = self.core.status(CONN, job)?;
        self.link_ok().map(|()| request)
    }

    /// Waits for the next completed job, returning
    /// `(job, output, errors, stats)`.
    ///
    /// # Errors
    ///
    /// [`LiveError::Timeout`] or [`LiveError::Closed`].
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
        self.core.take_notifications()
    }

    /// The client's full report: protocol metrics, version-store
    /// occupancy, wire counters and link-policy counters as one
    /// aggregate.
    pub fn report(&self) -> shadow_obs::NodeReport {
        self.core.report()
    }

    /// Direct access to the protocol node (persistence, diagnostics).
    pub fn node(&self) -> &ClientNode {
        self.core.node()
    }

    /// Mutable access to the protocol node (restoring persisted version
    /// chains before use).
    pub fn node_mut(&mut self) -> &mut ClientNode {
        self.core.node_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::Deployment;
    use shadow_proto::FileId;
    use shadow_server::ServerConfig;

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
        // A job's output lives only in its `JobFinished` notification,
        // which `wait_job` took: nothing else keeps a copy.
        assert!(
            !client
                .take_notifications()
                .iter()
                .any(|n| matches!(n, Notification::JobFinished { .. })),
            "completed jobs must not accumulate in the client"
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
            .map(|d| system.connect_client(ClientConfig::new(format!("ws{d}"), d)))
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
    fn sharded_live_with_one_shard_matches_single_server_behaviour() {
        let system = Deployment::new(ServerConfig::new("sc"))
            .shards(1)
            .pipes()
            .unwrap();
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

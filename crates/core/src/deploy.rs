//! The deployment builder: every wall-clock server is one
//! [`ShardedServerRuntime`] — N domain-affine worker shards, N = 1 by
//! default — over in-process pipes or TCP, diskless or durable.
//!
//! A deployment only accepts sessions: a new pipe from
//! [`PipeDeployment::connect_transport`], or a connection on
//! [`TcpDeployment`]'s listener. It splits each one into halves and
//! hands them to [`ShardedServerRuntime::serve`], whose per-session
//! reader thread routes the session on its `Hello` and forwards its
//! frames to the owning shard's inbox. Shards block on their inboxes;
//! the TCP accept poll is the only server-side nap.
//!
//! ```no_run
//! use shadow::{Deployment, ServerConfig};
//!
//! # fn main() -> Result<(), shadow::DeployError> {
//! // In-process pipes, one shard, diskless:
//! let system = Deployment::new(ServerConfig::new("superc")).pipes()?;
//!
//! // Four shards over TCP, journaling to disk:
//! let daemon = Deployment::new(ServerConfig::new("superc"))
//!     .shards(4)
//!     .durable("/var/lib/shadowd")
//!     .tcp("0.0.0.0:4411")?;
//! # drop(daemon);
//! # system.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! With [`durable`](Deployment::durable), every shard opens its slice of
//! the store ([`DurableStore::open_shard`]), replays the salvaged records
//! through `ServerNode::restore` *before* serving, and journals every
//! subsequent shadow mutation — so a client that held `vN` before the
//! restart still gets a delta, not a full transfer, afterwards.

use std::error::Error;
use std::fmt;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use shadow_client::ClientConfig;
use shadow_netsim::pipe::{duplex, PipeEnd};
use shadow_netsim::tcp::TcpServer;
use shadow_obs::NodeReport;
use shadow_runtime::{PersistSink, ShardedServerRuntime};
use shadow_server::{ServerConfig, ServerNode};
use shadow_store::{DurableStore, RecoverySummary};

use crate::live::LiveClient;

/// How long a TCP deployment's accept loop naps when no connection was
/// waiting.
const ACCEPT_NAP: Duration = Duration::from_millis(1);

/// Errors building a deployment.
#[derive(Debug)]
pub enum DeployError {
    /// The builder was configured inconsistently.
    Invalid(&'static str),
    /// Binding the listener or opening the durable store failed.
    Io(io::Error),
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::Invalid(why) => write!(f, "invalid deployment: {why}"),
            DeployError::Io(e) => write!(f, "deployment i/o: {e}"),
        }
    }
}

impl Error for DeployError {}

impl From<io::Error> for DeployError {
    fn from(e: io::Error) -> Self {
        DeployError::Io(e)
    }
}

/// One pre-built shard: its (possibly journal-restored) node and the
/// sink its storage intents go to.
type ShardParts = (ServerNode, Option<Box<dyn PersistSink>>);

/// The single entry point for standing up a wall-clock deployment.
///
/// Axes:
/// * **shards** — N domain-affine worker shards; 1 (the default) is the
///   paper's single server.
/// * **durable** — a root directory makes the shadow store survive
///   restarts via per-domain write-ahead journals (`shadow-store`);
///   without it the deployment is diskless.
/// * **transport** — [`pipes`](Self::pipes) for in-process duplex pipes,
///   [`tcp`](Self::tcp) for real sockets.
#[derive(Debug, Clone)]
pub struct Deployment {
    config: ServerConfig,
    shards: usize,
    durable: Option<PathBuf>,
}

impl Deployment {
    /// Starts describing a deployment of one server configuration.
    pub fn new(config: ServerConfig) -> Self {
        Deployment {
            config,
            shards: 1,
            durable: None,
        }
    }

    /// Sets the worker-shard count (default 1).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Makes the shadow store durable under `root`: journals are
    /// replayed at build time and appended to while serving. Each shard
    /// owns the subset of per-domain journals its
    /// [`shard_for`](shadow_runtime::shard_for) affinity assigns it.
    #[must_use]
    pub fn durable(mut self, root: impl Into<PathBuf>) -> Self {
        self.durable = Some(root.into());
        self
    }

    /// Builds every shard's node and sink, replaying journals when the
    /// deployment is durable.
    fn parts(&self) -> Result<(Vec<ShardParts>, RecoverySummary), DeployError> {
        if self.shards == 0 {
            return Err(DeployError::Invalid(
                "a deployment needs at least one shard",
            ));
        }
        let mut parts = Vec::with_capacity(self.shards);
        let mut recovery = RecoverySummary::default();
        for index in 0..self.shards {
            let mut node = ServerNode::new(self.config.clone());
            let sink = match &self.durable {
                Some(root) => {
                    let mut store = DurableStore::open_shard(root, index, self.shards)?;
                    let mut summary = store.summary();
                    summary.dropped_records = node.restore(&store.recovered()).skipped;
                    merge_summary(&mut recovery, summary);
                    Some(Box::new(store) as Box<dyn PersistSink>)
                }
                None => None,
            };
            parts.push((node, sink));
        }
        Ok((parts, recovery))
    }

    /// Deploys over in-process duplex pipes: each shard runs on its own
    /// thread, and each session's reader on another.
    ///
    /// # Errors
    ///
    /// Invalid builder combinations; store-opening failures when
    /// durable.
    pub fn pipes(self) -> Result<PipeDeployment, DeployError> {
        let (parts, recovery) = self.parts()?;
        Ok(PipeDeployment {
            runtime: ShardedServerRuntime::from_parts(parts),
            recovery,
        })
    }

    /// Deploys over TCP: binds `addr` and serves real sockets.
    ///
    /// # Errors
    ///
    /// Invalid builder combinations; bind or store-opening failures.
    pub fn tcp(self, addr: impl ToSocketAddrs) -> Result<TcpDeployment, DeployError> {
        let (parts, recovery) = self.parts()?;
        let listener = TcpServer::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(TcpDeployment {
            runtime: ShardedServerRuntime::from_parts(parts),
            listener,
            addr,
            recovery,
        })
    }
}

/// A running in-process deployment built by [`Deployment::pipes`]: the
/// shards, fed by one reader thread per connected pipe.
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
pub struct PipeDeployment {
    runtime: ShardedServerRuntime,
    recovery: RecoverySummary,
}

impl PipeDeployment {
    /// What journal replay recovered at build time (all zeros for a
    /// diskless deployment), merged across shards.
    pub fn recovery(&self) -> RecoverySummary {
        self.recovery
    }

    /// Connects a new client: sends the `Hello` immediately. The
    /// session's reader reads it and hands the session to the shard
    /// owning the client's domain; the client cannot tell.
    pub fn connect_client(&self, config: ClientConfig) -> LiveClient {
        LiveClient::over_transport(config, self.connect_transport())
            .expect("hello on a fresh pipe cannot fail")
    }

    /// Establishes a fresh transport without building a client — the
    /// redial path for an existing [`LiveClient`] resuming after a
    /// dropped link ([`LiveClient::resume_over`]). The resume `Hello`
    /// carries the client's domain, so the new session lands on the
    /// shard that holds the cached versions.
    pub fn connect_transport(&self) -> PipeEnd {
        let (client_end, server_end) = duplex();
        let (writer, reader) = server_end.split();
        self.runtime.serve(reader, writer);
        client_end
    }

    /// The server report: every shard's report merged value-wise plus
    /// the `shards` routing section and a `shardN` section per shard
    /// (see [`ShardedServerRuntime::report`]). Always `Some`: the shards
    /// answer the caller directly.
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
    ///
    /// let report = system.report().expect("shards answer");
    /// assert_eq!(report.counter("shards", "count"), 4);
    /// assert_eq!(report.counter("server", "jobs_completed"), 1);
    /// # drop(client);
    /// # system.shutdown();
    /// # Ok(())
    /// # }
    /// ```
    pub fn report(&self) -> Option<NodeReport> {
        Some(self.runtime.report())
    }

    /// Stops accepting clients, drains every shard (all clients must
    /// eventually be dropped), and returns each shard's final protocol
    /// state, in shard-index order.
    pub fn shutdown(self) -> Vec<ServerNode> {
        self.runtime.shutdown()
    }
}

/// A bound TCP deployment built by [`Deployment::tcp`]: the shards and
/// the well-known port's listener. Drive the accept loop from the owning
/// thread with
/// [`run_forever`](Self::run_forever) (daemon) or
/// [`run_until_idle_for`](Self::run_until_idle_for) (tests).
///
/// # Example
///
/// ```no_run
/// use shadow::{Deployment, ServerConfig};
///
/// # fn main() -> Result<(), shadow::DeployError> {
/// let daemon = Deployment::new(ServerConfig::new("superc")).tcp("0.0.0.0:4411")?;
/// daemon.run_forever()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TcpDeployment {
    runtime: ShardedServerRuntime,
    listener: TcpServer,
    addr: SocketAddr,
    recovery: RecoverySummary,
}

impl TcpDeployment {
    /// What journal replay recovered at build time (all zeros for a
    /// diskless deployment), merged across shards.
    pub fn recovery(&self) -> RecoverySummary {
        self.recovery
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Never fails; the address was resolved at bind time.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        Ok(self.addr)
    }

    /// The server report, merged across shards (see
    /// [`ShardedServerRuntime::report`]).
    pub fn report(&self) -> NodeReport {
        self.runtime.report()
    }

    /// Accepts every waiting connection and starts its reader thread.
    /// Returns whether any connection was accepted (session work does
    /// not count — readers and shards run on their own threads).
    ///
    /// # Errors
    ///
    /// Listener failures (per-connection errors just drop the session).
    pub fn poll_once(&mut self) -> io::Result<bool> {
        let mut accepted = false;
        while let Some(conn) = self.listener.try_accept()? {
            accepted = true;
            if let Ok((writer, reader)) = conn.split() {
                self.runtime.serve(reader, writer);
            }
        }
        Ok(accepted)
    }

    /// Serves forever (the daemon entry point).
    ///
    /// # Errors
    ///
    /// Listener failures.
    ///
    /// # Example
    ///
    /// ```no_run
    /// use shadow::{Deployment, ServerConfig};
    ///
    /// # fn main() -> Result<(), shadow::DeployError> {
    /// let daemon = Deployment::new(ServerConfig::new("superc"))
    ///     .shards(4)
    ///     .tcp("0.0.0.0:4411")?;
    /// daemon.run_forever()?;
    /// # Ok(())
    /// # }
    /// ```
    pub fn run_forever(mut self) -> io::Result<()> {
        loop {
            if !self.poll_once()? {
                std::thread::sleep(ACCEPT_NAP);
            }
        }
    }

    /// Serves until no connection has arrived for `idle`, no session
    /// awaits routing **and** every shard is drained (no live sessions,
    /// no pending timers), then
    /// shuts the shards down and returns their final nodes in
    /// shard-index order (test entry point).
    ///
    /// # Errors
    ///
    /// Listener failures.
    pub fn run_until_idle_for(mut self, idle: Duration) -> io::Result<Vec<ServerNode>> {
        let mut last_busy = Instant::now();
        loop {
            if self.poll_once()? {
                last_busy = Instant::now();
            } else {
                if last_busy.elapsed() >= idle
                    && self.runtime.pending_count() == 0
                    && self.runtime.shards_idle()
                {
                    return Ok(self.runtime.shutdown());
                }
                std::thread::sleep(ACCEPT_NAP);
            }
        }
    }
}

fn merge_summary(into: &mut RecoverySummary, from: RecoverySummary) {
    into.domains += from.domains;
    into.snapshot_records += from.snapshot_records;
    into.journal_records += from.journal_records;
    into.stale_skipped += from.stale_skipped;
    into.torn_tails += from.torn_tails;
    into.corrupt_segments += from.corrupt_segments;
    into.dropped_records += from.dropped_records;
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_client::FileRef;
    use shadow_proto::{
        ClientMessage, DomainId, FileId, Frame, HostName, RequestId, SubmitOptions,
        PROTOCOL_VERSION,
    };
    use shadow_runtime::{FrameTransport, FrameWriter};

    const WAIT: Duration = Duration::from_secs(10);

    #[test]
    fn one_shard_router_refuses_a_session_that_does_not_open_with_hello() {
        let system = Deployment::new(ServerConfig::new("sc")).pipes().unwrap();
        let mut rogue = system.connect_transport();
        rogue
            .write_frame(Frame::encode(&ClientMessage::StatusQuery {
                request: RequestId::new(1),
                job: None,
            }))
            .unwrap();

        let mut client = system.connect_client(ClientConfig::new("ws1", 1));
        client.wait_ready(WAIT).unwrap();
        let job = FileRef::new(FileId::new(1), "ws1:/hello.job");
        client.edit_finished(&job, b"echo honest\n".to_vec());
        client.submit(&job, &[], SubmitOptions::default()).unwrap();
        let (_, output, _, _) = client.wait_job(WAIT).unwrap();
        assert_eq!(output, b"honest\n");

        // The rogue's reader dropped its transport instead of routing it.
        assert!(
            rogue.recv_frame(WAIT).is_err(),
            "refused session must be closed"
        );
        let report = system.report().expect("shards answer");
        assert_eq!(report.counter("shards", "refused"), 1);
        assert_eq!(report.counter("shards", "routed"), 1);
        assert_eq!(report.counter("server", "jobs_completed"), 1);

        drop(client);
        assert_eq!(system.shutdown().len(), 1);
    }

    #[test]
    fn a_session_that_sends_an_undecodable_frame_is_killed_alone() {
        let system = Deployment::new(ServerConfig::new("sc")).pipes().unwrap();
        let mut rogue = system.connect_transport();
        rogue
            .write_frame(Frame::encode(&ClientMessage::Hello {
                domain: DomainId::new(1),
                host: HostName::new("ws1"),
                protocol: PROTOCOL_VERSION,
                epoch: 0,
                resume: Vec::new(),
            }))
            .unwrap();
        rogue.write_frame(b"\xff\xff garbage".to_vec()).unwrap();
        // The shard drops the session's writer, which the peer sees as a
        // hang-up.
        loop {
            match rogue.recv_frame(WAIT) {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("killed session must be closed"),
                Err(_) => break,
            }
        }

        let mut client = system.connect_client(ClientConfig::new("ws2", 1));
        client.wait_ready(WAIT).unwrap();
        let job = FileRef::new(FileId::new(1), "ws2:/hello.job");
        client.edit_finished(&job, b"echo honest\n".to_vec());
        client.submit(&job, &[], SubmitOptions::default()).unwrap();
        let (_, output, _, _) = client.wait_job(WAIT).unwrap();
        assert_eq!(output, b"honest\n");

        let report = system.report().expect("shards answer");
        assert_eq!(report.counter("server_runtime", "decode_failures"), 1);
        assert_eq!(report.counter("server", "closed_decode"), 1);
        assert_eq!(report.counter("shards", "routed"), 2);
        drop(client);
        drop(rogue);
        assert_eq!(system.shutdown().len(), 1);
    }
}

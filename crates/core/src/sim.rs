//! The deterministic simulation driver.
//!
//! Owns the virtual file system, the discrete-event network, and any
//! number of client/server state machines; routes encoded frames between
//! them with realistic transmission times and charges the [`CpuModel`] for
//! diff/apply work. Identical inputs produce identical timelines.
//!
//! Protocol dispatch lives in `shadow-runtime`: each client is a
//! [`ClientDriver`] and each server the same [`Shard`] production runs,
//! fed [`ShardEvent`]s. This module is only the *scheduler* — it decides
//! when frames depart (network + CPU model) and wakes each shard at its
//! next timer deadline.

use std::cell::Cell;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::mpsc::{channel, Receiver, Sender};

use shadow_client::{
    ClientConfig, ClientError, ConnId, Editor, FileRef, FnEditor, Notification, ShadowEditor,
};
use shadow_netsim::{Delivery, LinkProfile, LinkStats, NetError, NodeId, SimEvent, SimNet, SimTime};
use shadow_proto::{ClientMessage, JobId, JobStats, RequestId, SubmitOptions};
use shadow_runtime::{
    ClientDriver, EventHook, FrameInfo, FrameWriter, PersistSink, Shard, ShardEvent,
    TransportClosed, VirtualClock,
};
use shadow_server::{CloseReason, ServerConfig, ServerNode, SessionId};
use shadow_vfs::{Vfs, VfsError};

use crate::CpuModel;

/// Handle for a client in a [`Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClientId(usize);

/// Handle for a server in a [`Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServerId(usize);

/// A delivered, reconstructed job result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishedJob {
    /// The connection the completion arrived on.
    pub conn: ConnId,
    /// The job.
    pub job: JobId,
    /// Standard output.
    pub output: Vec<u8>,
    /// Error output.
    pub errors: Vec<u8>,
    /// Server-side accounting.
    pub stats: JobStats,
    /// Simulated time of delivery.
    pub at: SimTime,
}

/// Simulation-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A virtual file-system operation failed.
    Vfs(VfsError),
    /// A client command failed.
    Client(ClientError),
    /// A network operation failed.
    Net(NetError),
    /// The named client/server pair is already connected.
    AlreadyConnected,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Vfs(e) => write!(f, "file system: {e}"),
            SimError::Client(e) => write!(f, "client: {e}"),
            SimError::Net(e) => write!(f, "network: {e}"),
            SimError::AlreadyConnected => write!(f, "pair is already connected"),
        }
    }
}

impl Error for SimError {}

impl From<VfsError> for SimError {
    fn from(e: VfsError) -> Self {
        SimError::Vfs(e)
    }
}
impl From<ClientError> for SimError {
    fn from(e: ClientError) -> Self {
        SimError::Client(e)
    }
}
impl From<NetError> for SimError {
    fn from(e: NetError) -> Self {
        SimError::Net(e)
    }
}

#[derive(Debug, Clone, Copy)]
enum Endpoint {
    Client(ClientId),
    Server(ServerId),
}

struct ClientRt {
    driver: ClientDriver,
    net: NodeId,
    host: String,
    notifications: Vec<(SimTime, Notification)>,
    finished: Vec<FinishedJob>,
    next_conn: u64,
}

/// A frame a server sent, with the session it is for.
type Sent = (SessionId, Vec<u8>);

/// A server session's writer half: frames join the server's one
/// outbox, in send order, for the scheduler to put on the network.
struct SimWriter {
    session: SessionId,
    outbox: Sender<Sent>,
}

impl FrameWriter for SimWriter {
    fn write_frame(&mut self, frame: Vec<u8>) -> Result<(), TransportClosed> {
        self.outbox
            .send((self.session, frame))
            .map_err(|_| TransportClosed::Clean)
    }
}

struct ServerRt {
    shard: Shard<VirtualClock, SimWriter, Box<dyn PersistSink>>,
    outbox: (Sender<Sent>, Receiver<Sent>),
    net: NodeId,
    sessions: HashMap<SessionId, (ClientId, ConnId)>,
    next_session: u64,
}

/// The deterministic multi-node simulation. See the
/// [crate quickstart](crate) for an end-to-end example.
pub struct Simulation {
    net: SimNet,
    vfs: Vfs,
    clients: Vec<ClientRt>,
    servers: Vec<ServerRt>,
    endpoints: HashMap<NodeId, Endpoint>,
    /// One connection per (client, server) pair.
    pairs: HashMap<(usize, usize), (ConnId, SessionId)>,
    cpu: CpuModel,
}

// Manual impl: a full dump of every node would be pages long; summarize.
impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("clients", &self.clients.len())
            .field("servers", &self.servers.len())
            .field("pairs", &self.pairs.len())
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// Creates a simulation whose clients share naming domain `domain`,
    /// with negligible CPU costs (functional default). Use
    /// [`with_cpu`](Self::with_cpu) for calibrated performance runs.
    pub fn new(domain: u64) -> Self {
        Simulation {
            net: SimNet::new(),
            vfs: Vfs::new(shadow_proto::DomainId::new(domain)),
            clients: Vec::new(),
            servers: Vec::new(),
            endpoints: HashMap::new(),
            pairs: HashMap::new(),
            cpu: CpuModel::instant(),
        }
    }

    /// Sets the CPU cost model.
    #[must_use]
    pub fn with_cpu(mut self, cpu: CpuModel) -> Self {
        self.cpu = cpu;
        self
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// The shared virtual file system.
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// Mutable access to the virtual file system (for topology setup:
    /// mounts, symlinks, extra hosts).
    pub fn vfs_mut(&mut self) -> &mut Vfs {
        &mut self.vfs
    }

    /// Adds a shadow server (its name also becomes its net node name).
    pub fn add_server(&mut self, name: &str, config: ServerConfig) -> ServerId {
        let net = self.net.add_node(name);
        let id = ServerId(self.servers.len());
        self.servers.push(ServerRt {
            shard: Shard::new(ServerNode::new(config), None, VirtualClock::new()),
            outbox: channel(),
            net,
            sessions: HashMap::new(),
            next_session: 0,
        });
        self.endpoints.insert(net, Endpoint::Server(id));
        id
    }

    /// Adds a client workstation; `host` is created in the virtual file
    /// system (it must match `config.host` for name resolution to work).
    pub fn add_client(&mut self, host: &str, config: ClientConfig) -> ClientId {
        let net = self.net.add_node(host);
        // Tolerate pre-created hosts (topology set up via vfs_mut first).
        let _ = self.vfs.add_host(host);
        let id = ClientId(self.clients.len());
        self.clients.push(ClientRt {
            driver: ClientDriver::new(shadow_client::ClientNode::new(config)),
            net,
            host: host.to_string(),
            notifications: Vec::new(),
            finished: Vec::new(),
            next_conn: 0,
        });
        self.endpoints.insert(net, Endpoint::Client(id));
        id
    }

    /// Installs an instrumentation tap on a client's driver, observing
    /// every frame it sends or receives.
    pub fn set_client_event_hook(&mut self, client: ClientId, hook: EventHook) {
        self.clients[client.0].driver.set_event_hook(hook);
    }

    /// Connects a client to a server over `profile` and completes the
    /// session handshake; the server's shard opens the session on the
    /// client's `Hello`. One connection per pair.
    ///
    /// # Errors
    ///
    /// [`SimError::AlreadyConnected`] when the pair has a connection.
    pub fn connect(
        &mut self,
        client: ClientId,
        server: ServerId,
        profile: LinkProfile,
    ) -> Result<ConnId, SimError> {
        if self.pairs.contains_key(&(client.0, server.0)) {
            return Err(SimError::AlreadyConnected);
        }
        let (c_net, s_net) = (self.clients[client.0].net, self.servers[server.0].net);
        self.net.connect(c_net, s_net, profile);

        let conn = ConnId::new(self.clients[client.0].next_conn);
        self.clients[client.0].next_conn += 1;
        let session = SessionId::new(self.servers[server.0].next_session);
        self.servers[server.0].next_session += 1;
        self.servers[server.0]
            .sessions
            .insert(session, (client, conn));
        self.pairs.insert((client.0, server.0), (conn, session));

        let now = self.net.now();
        let out = self.clients[client.0].driver.connect(conn, now.as_millis());
        self.send_client_frames(client, out, now)?;
        self.drain_client(client, now);
        self.run_until_quiet();
        Ok(conn)
    }

    /// Tears down a client↔server connection (transport loss).
    pub fn drop_connection(&mut self, client: ClientId, server: ServerId) {
        self.hang_up(client, server, CloseReason::Error);
    }

    /// Gracefully closes a client↔server connection: the orderly
    /// hang-up a live deployment performs on client drop, so both
    /// worlds account the session under the `clean` close reason.
    pub fn close_connection(&mut self, client: ClientId, server: ServerId) {
        self.hang_up(client, server, CloseReason::Clean);
    }

    fn hang_up(&mut self, client: ClientId, server: ServerId, reason: CloseReason) {
        if let Some((conn, session)) = self.pairs.remove(&(client.0, server.0)) {
            self.clients[client.0].driver.disconnect(conn);
            let now = self.net.now();
            self.step_server(server, now, Some(ShardEvent::Closed(session, reason)));
            self.servers[server.0].sessions.remove(&session);
        }
    }

    /// Runs one shadow editing session on the client's file: read, apply
    /// `edit`, write back, then run the shadow post-processor (version +
    /// background notifications).
    ///
    /// # Errors
    ///
    /// File-system errors from the edit.
    pub fn edit_file(
        &mut self,
        client: ClientId,
        path: &str,
        edit: impl FnMut(Vec<u8>) -> Vec<u8>,
    ) -> Result<FileRef, SimError> {
        let mut editor = FnEditor::new(edit);
        self.edit_file_with(client, path, &mut editor)
    }

    /// Like [`edit_file`](Self::edit_file) with an explicit [`Editor`].
    ///
    /// # Errors
    ///
    /// File-system errors from the edit.
    pub fn edit_file_with(
        &mut self,
        client: ClientId,
        path: &str,
        editor: &mut dyn Editor,
    ) -> Result<FileRef, SimError> {
        let host = self.clients[client.0].host.clone();
        let outcome = ShadowEditor::edit_file(&mut self.vfs, &host, path, editor)?;
        let fref = FileRef::new(
            outcome.name.file_id,
            format!("{}:{}", outcome.name.host, outcome.name.path),
        );
        let now = self.net.now();
        let (_, out) =
            self.clients[client.0]
                .driver
                .edit_finished(&fref, outcome.content, now.as_millis());
        let depart = now + self.cpu.message_time();
        self.send_client_frames(client, out, depart)?;
        self.drain_client(client, now);
        Ok(fref)
    }

    /// The canonical wire name of a file as seen from a client — the name
    /// job command files must use to reference data files.
    ///
    /// # Errors
    ///
    /// Name-resolution failures.
    pub fn canonical_name(&self, client: ClientId, path: &str) -> Result<String, SimError> {
        let host = &self.clients[client.0].host;
        let name = self.vfs.resolve(host, path)?;
        Ok(format!("{}:{}", name.host, name.path))
    }

    /// Submits a job: `job_path` is the command file, `data_paths` the data
    /// files; all are registered (versioned) from their current VFS
    /// content first.
    ///
    /// # Errors
    ///
    /// Resolution or client-command failures.
    pub fn submit(
        &mut self,
        client: ClientId,
        conn: ConnId,
        job_path: &str,
        data_paths: &[&str],
        options: SubmitOptions,
    ) -> Result<RequestId, SimError> {
        let host = self.clients[client.0].host.clone();
        let mut refs = Vec::with_capacity(1 + data_paths.len());
        for path in std::iter::once(&job_path).chain(data_paths) {
            let name = self.vfs.resolve(&host, path)?;
            let content = self.vfs.read_file(&host, path)?;
            let fref = FileRef::new(name.file_id, format!("{}:{}", name.host, name.path));
            // Register current content (deduped if unchanged); background
            // notifications may flow.
            let now = self.net.now();
            let (_, out) =
                self.clients[client.0]
                    .driver
                    .edit_finished(&fref, content, now.as_millis());
            let depart = now + self.cpu.message_time();
            self.send_client_frames(client, out, depart)?;
            self.drain_client(client, now);
            refs.push(fref);
        }
        let now = self.net.now();
        let (request, out) = self.clients[client.0].driver.submit(
            conn,
            &refs[0],
            &refs[1..],
            options,
            now.as_millis(),
        )?;
        let depart = now + self.cpu.message_time();
        self.send_client_frames(client, out, depart)?;
        self.drain_client(client, now);
        Ok(request)
    }

    /// Issues a status query.
    ///
    /// # Errors
    ///
    /// Client-command failures.
    pub fn status(
        &mut self,
        client: ClientId,
        conn: ConnId,
        job: Option<JobId>,
    ) -> Result<RequestId, SimError> {
        let now = self.net.now();
        let (request, out) = self.clients[client.0]
            .driver
            .status(conn, job, now.as_millis())?;
        let depart = now + self.cpu.message_time();
        self.send_client_frames(client, out, depart)?;
        self.drain_client(client, now);
        Ok(request)
    }

    /// Drains every pending event; returns the number processed.
    pub fn run_until_quiet(&mut self) -> usize {
        let mut n = 0;
        while let Some(delivery) = self.net.next() {
            self.dispatch(delivery);
            n += 1;
        }
        n
    }

    /// Runs events up to and including `deadline` (events scheduled after
    /// it stay queued); returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> usize {
        let mut n = 0;
        while self.net.peek_time().is_some_and(|t| t <= deadline) {
            let delivery = self.net.next().expect("peeked event exists");
            self.dispatch(delivery);
            n += 1;
        }
        n
    }

    fn dispatch(&mut self, delivery: Delivery) {
        match delivery.event {
            SimEvent::Message { to, from, payload } => match self.endpoints[&to] {
                Endpoint::Server(s) => self.deliver_to_server(delivery.at, s, from, payload),
                Endpoint::Client(c) => self.deliver_to_client(delivery.at, c, from, &payload),
            },
            SimEvent::Timer { node, .. } => {
                if let Endpoint::Server(s) = self.endpoints[&node] {
                    // The shard owns the timer queue; this event is only
                    // a wake-up for whatever is due by now.
                    self.step_server(s, delivery.at, None);
                }
            }
        }
    }

    /// Delivers a client's frame to the server's shard; the first frame
    /// of a session (its `Hello`) opens it.
    fn deliver_to_server(&mut self, at: SimTime, server: ServerId, from: NodeId, frame: Vec<u8>) {
        let Endpoint::Client(client) = self.endpoints[&from] else {
            panic!("server received frame from a non-client node");
        };
        let (_, session) = self.pairs[&(client.0, server.0)];
        let rt = &mut self.servers[server.0];
        let event = match rt.shard.writer_mut(session) {
            Some(_) => ShardEvent::Frame(session, frame),
            None => {
                let outbox = rt.outbox.0.clone();
                ShardEvent::Open(session, SimWriter { session, outbox }, frame)
            }
        };
        self.step_server(server, at, Some(event));
    }

    /// Steps a server's shard at `at` (`None` is a timer wake-up),
    /// pricing each message against the CPU model; what it sent departs
    /// once that work is done, and a next deadline the step moved gets
    /// a wake-up.
    fn step_server(&mut self, server: ServerId, at: SimTime, event: Option<ShardEvent<SimWriter>>) {
        // Applying an update dominates; everything else is fixed
        // per-message handling. The closure stashes the exact SimTime
        // cost for frame routing.
        let cost = Cell::new(SimTime::ZERO);
        let cpu = self.cpu;
        let rt = &mut self.servers[server.0];
        let deadline_before = rt.shard.next_deadline();
        rt.shard.clock_mut().advance_to(at.as_millis());
        rt.shard.step(event, |message| {
            let c = match message {
                Some(ClientMessage::Update { payload, .. }) => cpu.apply_time(payload.data_len()),
                _ => cpu.message_time(),
            };
            cost.set(cost.get().max(c));
            c.as_millis()
        });
        let now = self.net.now();
        let depart = (at + cost.get()).max(now);
        for (session, frame) in rt.outbox.1.try_iter() {
            let (client, _) = rt.sessions[&session];
            self.net
                .send_at(depart, rt.net, self.clients[client.0].net, frame)
                .expect("connected pair has a link");
        }
        match rt.shard.next_deadline() {
            Some(deadline_ms) if Some(deadline_ms) != deadline_before => {
                let wake = SimTime::from_millis(deadline_ms).saturating_sub(now);
                self.net.schedule_timer(rt.net, wake, 0);
            }
            _ => {}
        }
    }

    fn deliver_to_client(&mut self, at: SimTime, client: ClientId, from: NodeId, payload: &[u8]) {
        let Endpoint::Server(server) = self.endpoints[&from] else {
            panic!("client received frame from a non-server node");
        };
        let (conn, _) = self.pairs[&(client.0, server.0)];
        let out = self.clients[client.0]
            .driver
            .feed_frame(conn, payload, at.as_millis())
            .expect("well-formed frame");
        // Cost: answering an update request with a delta means running the
        // differential comparison over the whole file at the workstation.
        let mut depart = at + self.cpu.message_time();
        for o in &out {
            match o.info {
                FrameInfo::UpdateDelta { file_size, .. } => {
                    depart = at + self.cpu.diff_time(file_size);
                }
                FrameInfo::UpdateFull { .. } => depart = at + self.cpu.message_time(),
                FrameInfo::Other => {}
            }
        }
        self.send_client_frames(client, out, depart)
            .expect("routing of client actions");
        self.drain_client(client, at);
    }

    /// Schedules a client's encoded frames onto the network, all at
    /// `depart` (clamped to the present).
    fn send_client_frames(
        &mut self,
        client: ClientId,
        out: Vec<shadow_runtime::ClientOutbound>,
        depart: SimTime,
    ) -> Result<(), SimError> {
        for o in out {
            let server = self
                .pairs
                .iter()
                .find(|((c, _), (k, _))| *c == client.0 && *k == o.conn)
                .map(|((_, s), _)| ServerId(*s))
                .expect("conn belongs to a connected pair");
            let (c_net, s_net) = (self.clients[client.0].net, self.servers[server.0].net);
            let depart = depart.max(self.net.now());
            self.net.send_at(depart, c_net, s_net, o.frame)?;
        }
        Ok(())
    }

    /// Moves buffered driver notifications into the simulation's log,
    /// stamping them with simulated time and performing output-file
    /// transparency (writing job output into the user's files).
    fn drain_client(&mut self, client: ClientId, at: SimTime) {
        let host = self.clients[client.0].host.clone();
        for job in self.clients[client.0].driver.take_finished() {
            if let Some(options) = &job.options {
                if let Some(out_path) = &options.output_file {
                    let _ = self.vfs.write_file(&host, out_path, job.output.clone());
                }
                if let Some(err_path) = &options.error_file {
                    let _ = self.vfs.write_file(&host, err_path, job.errors.clone());
                }
            }
            self.clients[client.0].finished.push(FinishedJob {
                conn: job.conn,
                job: job.job,
                output: job.output,
                errors: job.errors,
                stats: job.stats,
                at,
            });
        }
        let drained = self.clients[client.0].driver.take_notifications();
        self.clients[client.0]
            .notifications
            .extend(drained.into_iter().map(|(_, n)| (at, n)));
    }

    /// All notifications a client has received, in delivery order.
    pub fn notifications(&self, client: ClientId) -> &[(SimTime, Notification)] {
        &self.clients[client.0].notifications
    }

    /// All finished jobs a client has received.
    pub fn finished_jobs(&self, client: ClientId) -> Vec<FinishedJob> {
        self.clients[client.0].finished.clone()
    }

    /// Clears a client's recorded notifications and finished jobs.
    pub fn clear_notifications(&mut self, client: ClientId) {
        self.clients[client.0].notifications.clear();
        self.clients[client.0].finished.clear();
    }

    /// Traffic between a client and a server: `(client→server, server→client)`.
    pub fn link_stats(&self, client: ClientId, server: ServerId) -> (LinkStats, LinkStats) {
        let (c_net, s_net) = (self.clients[client.0].net, self.servers[server.0].net);
        (self.net.stats(c_net, s_net), self.net.stats(s_net, c_net))
    }

    /// A client's full report: protocol metrics, version-store
    /// occupancy, and driver wire counters as one aggregate.
    pub fn client_report(&self, client: ClientId) -> shadow_obs::NodeReport {
        self.clients[client.0].driver.report()
    }

    /// A server's full report: behaviour counters, shadow-cache
    /// statistics, wire counters and the shard loop's `server_runtime`
    /// section, as one aggregate — the same report pipes and TCP give.
    pub fn server_report(&self, server: ServerId) -> shadow_obs::NodeReport {
        self.servers[server.0].shard.report()
    }

    /// Fault injection: the server loses its shadow disk (§5.1).
    pub fn drop_server_cache(&mut self, server: ServerId) {
        self.servers[server.0].shard.node_mut().drop_cache();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_netsim::profiles;

    fn basic() -> (Simulation, ClientId, ServerId, ConnId) {
        let mut sim = Simulation::new(1);
        let server = sim.add_server("sc", ServerConfig::new("sc"));
        let client = sim.add_client("ws1", ClientConfig::new("ws1", 1));
        let conn = sim.connect(client, server, profiles::lan()).unwrap();
        (sim, client, server, conn)
    }

    #[test]
    fn session_handshake_completes() {
        let (sim, client, _, _) = basic();
        assert!(sim
            .notifications(client)
            .iter()
            .any(|(_, n)| matches!(n, Notification::SessionReady { .. })));
    }

    #[test]
    fn end_to_end_job_runs() {
        let (mut sim, client, _, conn) = basic();
        sim.edit_file(client, "/job.cmd", |_| b"echo it works\n".to_vec())
            .unwrap();
        sim.submit(client, conn, "/job.cmd", &[], SubmitOptions::default())
            .unwrap();
        sim.run_until_quiet();
        let jobs = sim.finished_jobs(client);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].output, b"it works\n");
        assert_eq!(jobs[0].stats.exit_code, 0);
    }

    #[test]
    fn data_files_travel_and_are_processed() {
        let (mut sim, client, server, conn) = basic();
        sim.edit_file(client, "/data.txt", |_| b"3\n1\n2\n".to_vec())
            .unwrap();
        let data_name = sim.canonical_name(client, "/data.txt").unwrap();
        sim.edit_file(client, "/job.cmd", move |_| {
            format!("sort {data_name}\n").into_bytes()
        })
        .unwrap();
        sim.submit(
            client,
            conn,
            "/job.cmd",
            &["/data.txt"],
            SubmitOptions::default(),
        )
        .unwrap();
        sim.run_until_quiet();
        let jobs = sim.finished_jobs(client);
        assert_eq!(jobs[0].output, b"1\n2\n3\n");
        assert!(sim.server_report(server).counter("server", "full_updates") >= 2);
    }

    #[test]
    fn resubmission_after_edit_sends_delta_not_full() {
        let (mut sim, client, server, conn) = basic();
        let base: Vec<u8> = (0..2000)
            .flat_map(|i| format!("record {i}\n").into_bytes())
            .collect();
        let base2 = base.clone();
        sim.edit_file(client, "/data.txt", move |_| base2.clone())
            .unwrap();
        let data_name = sim.canonical_name(client, "/data.txt").unwrap();
        sim.edit_file(client, "/job.cmd", move |_| {
            format!("wc {data_name}\n").into_bytes()
        })
        .unwrap();
        sim.submit(client, conn, "/job.cmd", &["/data.txt"], SubmitOptions::default())
            .unwrap();
        sim.run_until_quiet();
        let before = sim.client_report(client);
        assert_eq!(before.counter("client", "deltas_sent"), 0);

        // Edit a single record and resubmit.
        sim.edit_file(client, "/data.txt", |c| {
            let text = String::from_utf8(c).unwrap();
            text.replace("record 1000", "record one thousand").into_bytes()
        })
        .unwrap();
        sim.submit(client, conn, "/job.cmd", &["/data.txt"], SubmitOptions::default())
            .unwrap();
        sim.run_until_quiet();
        let after = sim.client_report(client);
        assert_eq!(
            after.counter("client", "deltas_sent"),
            1,
            "the edit should travel as a delta"
        );
        assert_eq!(
            after.counter("client", "fulls_sent"),
            before.counter("client", "fulls_sent"),
            "no new full transfers"
        );
        assert_eq!(sim.finished_jobs(client).len(), 2);
        assert_eq!(sim.server_report(server).counter("server", "delta_updates"), 1);
    }

    #[test]
    fn background_update_flows_before_submit() {
        let (mut sim, client, server, conn) = basic();
        sim.edit_file(client, "/f.txt", |_| b"v1 content\n".to_vec())
            .unwrap();
        let name = sim.canonical_name(client, "/f.txt").unwrap();
        sim.edit_file(client, "/job.cmd", move |_| format!("cat {name}\n").into_bytes())
            .unwrap();
        sim.submit(client, conn, "/job.cmd", &["/f.txt"], SubmitOptions::default())
            .unwrap();
        sim.run_until_quiet();
        sim.clear_notifications(client);

        // Edit WITHOUT submitting: the eager server pulls in background.
        sim.edit_file(client, "/f.txt", |_| b"v2 content\n".to_vec())
            .unwrap();
        sim.run_until_quiet();
        let key = shadow_proto::FileKey::new(
            shadow_proto::DomainId::new(1),
            sim.vfs().resolve("ws1", "/f.txt").unwrap().file_id,
        );
        let _ = server;
        assert_eq!(
            sim.servers[0].shard.node().cached_version(key),
            Some(shadow_proto::VersionNumber::new(2)),
            "background update should land without a submit"
        );
    }

    #[test]
    fn output_files_are_written_on_completion() {
        let (mut sim, client, _, conn) = basic();
        sim.edit_file(client, "/job.cmd", |_| b"echo into file\n".to_vec())
            .unwrap();
        let options = SubmitOptions {
            output_file: Some("/results/run.out".to_string()),
            error_file: Some("/results/run.err".to_string()),
            ..SubmitOptions::default()
        };
        sim.vfs_mut().mkdir_p("ws1", "/results").unwrap();
        sim.submit(client, conn, "/job.cmd", &[], options).unwrap();
        sim.run_until_quiet();
        assert_eq!(
            sim.vfs().read_file("ws1", "/results/run.out").unwrap(),
            b"into file\n"
        );
        assert_eq!(sim.vfs().read_file("ws1", "/results/run.err").unwrap(), b"");
    }

    #[test]
    fn cache_loss_degrades_to_full_transfer_not_failure() {
        let (mut sim, client, server, conn) = basic();
        sim.edit_file(client, "/data.txt", |_| b"important data\n".to_vec())
            .unwrap();
        let name = sim.canonical_name(client, "/data.txt").unwrap();
        sim.edit_file(client, "/job.cmd", move |_| format!("cat {name}\n").into_bytes())
            .unwrap();
        sim.submit(client, conn, "/job.cmd", &["/data.txt"], SubmitOptions::default())
            .unwrap();
        sim.run_until_quiet();

        sim.drop_server_cache(server);

        sim.edit_file(client, "/data.txt", |_| b"important data v2\n".to_vec())
            .unwrap();
        sim.submit(client, conn, "/job.cmd", &["/data.txt"], SubmitOptions::default())
            .unwrap();
        sim.run_until_quiet();
        let jobs = sim.finished_jobs(client);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[1].output, b"important data v2\n");
        // The recovery transferred the file whole (no usable base).
        assert!(sim.client_report(client).counter("client", "fulls_sent") >= 3);
    }

    #[test]
    fn simulated_times_reflect_link_speed() {
        let mut slow = Simulation::new(1);
        let server = slow.add_server("sc", ServerConfig::new("sc"));
        let client = slow.add_client("ws1", ClientConfig::new("ws1", 1));
        let conn = slow.connect(client, server, profiles::cypress()).unwrap();
        let content = shadow_workload::generate_file(&shadow_workload::FileSpec::new(50_000, 1));
        slow.edit_file(client, "/data", move |_| content.clone()).unwrap();
        let name = slow.canonical_name(client, "/data").unwrap();
        slow.edit_file(client, "/job.cmd", move |_| format!("wc {name}\n").into_bytes())
            .unwrap();
        slow.submit(client, conn, "/job.cmd", &["/data"], SubmitOptions::default())
            .unwrap();
        slow.run_until_quiet();
        // 50 KB over ~960 B/s is close to a minute.
        let t = slow.finished_jobs(client)[0].at.as_secs_f64();
        assert!((40.0..120.0).contains(&t), "t = {t}");
    }

    #[test]
    fn two_clients_one_nfs_domain_share_one_shadow() {
        let mut sim = Simulation::new(1);
        let server = sim.add_server("sc", ServerConfig::new("sc"));
        // Set up the NFS topology before adding clients so hosts exist.
        let vfs = sim.vfs_mut();
        vfs.add_host("fileserver").unwrap();
        vfs.add_host("ws1").unwrap();
        vfs.add_host("ws2").unwrap();
        vfs.mkdir_p("fileserver", "/export").unwrap();
        vfs.write_file("fileserver", "/export/shared.dat", b"shared content\n".to_vec())
            .unwrap();
        vfs.mount("ws1", "/proj", "fileserver", "/export").unwrap();
        vfs.mount("ws2", "/work", "fileserver", "/export").unwrap();

        let c1 = sim.add_client("ws1", ClientConfig::new("ws1", 1));
        let c2 = sim.add_client("ws2", ClientConfig::new("ws2", 1));
        let conn1 = sim.connect(c1, server, profiles::lan()).unwrap();
        let conn2 = sim.connect(c2, server, profiles::lan()).unwrap();

        let shared1 = sim.canonical_name(c1, "/proj/shared.dat").unwrap();
        let shared2 = sim.canonical_name(c2, "/work/shared.dat").unwrap();
        assert_eq!(shared1, shared2, "one canonical identity across mounts");

        sim.edit_file(c1, "/job1.cmd", {
            let n = shared1.clone();
            move |_| format!("cat {n}\n").into_bytes()
        })
        .unwrap();
        sim.submit(c1, conn1, "/job1.cmd", &["/proj/shared.dat"], SubmitOptions::default())
            .unwrap();
        sim.run_until_quiet();

        sim.edit_file(c2, "/job2.cmd", {
            let n = shared2.clone();
            move |_| format!("wc {n}\n").into_bytes()
        })
        .unwrap();
        sim.submit(c2, conn2, "/job2.cmd", &["/work/shared.dat"], SubmitOptions::default())
            .unwrap();
        sim.run_until_quiet();

        assert_eq!(sim.finished_jobs(c1).len(), 1);
        assert_eq!(sim.finished_jobs(c2).len(), 1);
        // ws2's submission found the shared file already cached: only one
        // full transfer of shared.dat ever happened (plus 2 job files).
        let m = sim.server_report(server);
        assert_eq!(
            m.counter("server", "full_updates"),
            3,
            "shared file cached once: {m:?}"
        );
    }
}

//! Standing up a deployment and driving closed-loop submit cycles
//! through the service's public API only: the `Deployment` builder,
//! `LiveClient` and `connect_tcp`.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use shadow::pipe::PipeEnd;
use shadow::tcp::TcpFramed;
use shadow::{
    connect_tcp, ClientConfig, Deployment, DriverEvent, ExecProfile, FileId, FileRef, Frame,
    FrameInfo, FrameTransport, JobId, JobStats, LiveClient, NodeReport, Notification,
    OutputPayload, PipeDeployment, ServerConfig, ServerMessage, SubmitOptions, TcpDeployment,
    TransferEncoding,
};

use crate::workload::{Workload, DATA_NAME};
use crate::Error;

/// A cycle that has not completed after this long counts as failed.
pub const CYCLE_TIMEOUT: Duration = Duration::from_secs(30);

/// The measured client's naming domain.
const CLIENT_DOMAIN: u64 = 1;
/// The parked peer's naming domain.
const PEER_DOMAIN: u64 = 2;

/// Offset of a frame's message tag: it follows the `u32` length prefix.
const TAG_OFFSET: usize = 4;

/// The server configuration every workload deploys: no modelled job
/// time, so nothing sleeps on the interpreter's behalf while it still
/// really runs.
fn server_config() -> ServerConfig {
    ServerConfig::new("superc").with_exec(ExecProfile {
        job_overhead_ms: 0,
        cpu_byte_rate: u64::MAX,
    })
}

/// A client transport the bench can deploy a server for.
pub trait Link: FrameTransport + Sized {
    /// Builds the server from `deployment` and connects the workload's
    /// client(s), each handshaken.
    ///
    /// # Errors
    ///
    /// Deployment, socket or handshake failures.
    fn deploy(deployment: Deployment, workload: Workload) -> Result<Deployed<Self>, Error>;
}

impl Link for PipeEnd {
    fn deploy(deployment: Deployment, workload: Workload) -> Result<Deployed<Self>, Error> {
        let system = deployment.pipes()?;
        let mut client = system.connect_client(ClientConfig::new("ws", CLIENT_DOMAIN));
        client.wait_ready(CYCLE_TIMEOUT)?;
        Ok(Deployed::new(workload, client, None, Server::Pipes(system)))
    }
}

impl Link for TcpFramed {
    fn deploy(deployment: Deployment, workload: Workload) -> Result<Deployed<Self>, Error> {
        let deployment = deployment.tcp("127.0.0.1:0")?;
        let addr = deployment.local_addr()?;
        let server = TcpLoop::start(deployment)?;
        let mut client = connect_tcp(ClientConfig::new("ws", CLIENT_DOMAIN), addr)?;
        client.wait_ready(CYCLE_TIMEOUT)?;
        let mut peer = connect_tcp(ClientConfig::new("peer", PEER_DOMAIN), addr)?;
        peer.wait_ready(CYCLE_TIMEOUT)?;
        Ok(Deployed::new(
            workload,
            client,
            Some(peer),
            Server::Tcp(server),
        ))
    }
}

/// The server side of a deployment.
enum Server {
    Pipes(PipeDeployment),
    Tcp(TcpLoop),
}

impl Server {
    fn report(&self) -> Option<NodeReport> {
        match self {
            Server::Pipes(system) => system.report(),
            Server::Tcp(server) => server.report(),
        }
    }
}

/// A TCP deployment served on its own thread by the daemon's loop — poll,
/// and sleep 1 ms when a round found no work — that can also answer
/// report requests and be stopped.
struct TcpLoop {
    stop: Arc<AtomicBool>,
    reports: mpsc::Sender<mpsc::Sender<NodeReport>>,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl TcpLoop {
    fn start(mut deployment: TcpDeployment) -> io::Result<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let (reports, requests) = mpsc::channel::<mpsc::Sender<NodeReport>>();
        let stopping = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("e2e-tcp-server".into())
            .spawn(move || {
                while !stopping.load(Ordering::Relaxed) {
                    let busy = deployment.poll_once()?;
                    while let Ok(reply) = requests.try_recv() {
                        let _ = reply.send(deployment.report());
                    }
                    if !busy {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                Ok(())
            })?;
        Ok(TcpLoop {
            stop,
            reports,
            thread: Some(thread),
        })
    }

    fn report(&self) -> Option<NodeReport> {
        let (reply, answer) = mpsc::channel();
        self.reports.send(reply).ok()?;
        answer.recv_timeout(CYCLE_TIMEOUT).ok()
    }

    /// Stops the loop and reports how it ended.
    fn join(mut self) -> Result<(), Error> {
        self.stop.store(true, Ordering::Relaxed);
        match self.thread.take().map(JoinHandle::join) {
            Some(Ok(result)) => Ok(result?),
            Some(Err(_)) => Err("the TCP server thread panicked".into()),
            None => Ok(()),
        }
    }
}

impl Drop for TcpLoop {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The instants that divide one traced cycle into its six stages:
/// `edit_finished` call, `submit` call, wait for the pull, delta build,
/// server turnaround, and output delivery.
pub type Bounds = [Instant; 7];

/// One completed cycle.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// From just before `edit_finished` to `wait_job` returning.
    pub elapsed: Duration,
    /// The stage boundaries, when the cycle was traced.
    pub bounds: Option<Bounds>,
}

/// Timestamps the client-side frames that bound the middle stages.
///
/// The hook stamps `Instant::now()` on every frame the client driver
/// sends or receives and keeps the first of each kind per cycle.
#[derive(Debug)]
pub struct Tracer {
    marks: Arc<Mutex<Marks>>,
}

#[derive(Debug, Default, Clone, Copy)]
struct Marks {
    update_request: Option<Instant>,
    update_sent: Option<Instant>,
    job_complete: Option<Instant>,
}

/// The tag byte a server message is framed with.
fn tag_of(message: &ServerMessage) -> u8 {
    Frame::encode(message)[TAG_OFFSET]
}

impl Tracer {
    /// Installs the stamping hook on `client`.
    pub fn install<T: FrameTransport>(client: &mut LiveClient<T>) -> Tracer {
        let update_request = tag_of(&ServerMessage::UpdateRequest {
            file: FileId::new(0),
            have: None,
        });
        let job_complete = tag_of(&ServerMessage::JobComplete {
            job: JobId::new(0),
            output: OutputPayload::Full {
                encoding: TransferEncoding::Identity,
                data: Bytes::new(),
            },
            errors: Bytes::new(),
            stats: JobStats::default(),
        });
        let marks = Arc::new(Mutex::new(Marks::default()));
        let stamps = Arc::clone(&marks);
        client.set_event_hook(Box::new(move |event| {
            let now = Instant::now();
            let mut marks = stamps.lock().expect("no panic while holding the marks");
            let slot = match event {
                DriverEvent::FrameReceived { frame, .. } => match frame.get(TAG_OFFSET) {
                    Some(&tag) if tag == update_request => &mut marks.update_request,
                    Some(&tag) if tag == job_complete => &mut marks.job_complete,
                    _ => return,
                },
                DriverEvent::FrameSent {
                    info: FrameInfo::UpdateDelta { .. } | FrameInfo::UpdateFull { .. },
                    ..
                } => &mut marks.update_sent,
                _ => return,
            };
            slot.get_or_insert(now);
        }));
        Tracer { marks }
    }

    fn reset(&self) {
        *self.marks.lock().expect("no panic while holding the marks") = Marks::default();
    }

    fn marks(&self) -> Marks {
        *self.marks.lock().expect("no panic while holding the marks")
    }
}

/// A running deployment with its measured client.
pub struct Deployed<T: FrameTransport> {
    workload: Workload,
    // Field order is drop order: clients hang up before the server stops.
    client: LiveClient<T>,
    /// `tcp_idle_peer`'s second session: handshaken, then never driven.
    peer: Option<LiveClient<T>>,
    server: Server,
    job: FileRef,
    data: [FileRef; 1],
    options: SubmitOptions,
}

/// Why a cycle failed.
#[derive(Debug)]
pub enum CycleError {
    /// The service returned an error or timed out.
    Service(Error),
    /// The job finished with a non-zero exit code, error output, or an
    /// output other than the one the bench computed.
    WrongOutput,
}

impl From<shadow::LiveError> for CycleError {
    fn from(e: shadow::LiveError) -> Self {
        CycleError::Service(e.into())
    }
}

/// Checks a finished job — `(job, output, errors, stats)` as `wait_job`
/// returns it — against the output the bench computed.
fn check_output(
    (_, output, errors, stats): (JobId, Vec<u8>, Vec<u8>, JobStats),
    expected: impl FnOnce() -> Vec<u8>,
) -> Result<(), CycleError> {
    if stats.exit_code != 0 || !errors.is_empty() || output != expected() {
        return Err(CycleError::WrongOutput);
    }
    Ok(())
}

impl std::fmt::Display for CycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CycleError::Service(e) => write!(f, "{e}"),
            CycleError::WrongOutput => f.write_str("the job returned the wrong output"),
        }
    }
}

impl<T: FrameTransport> Deployed<T> {
    fn new(
        workload: Workload,
        client: LiveClient<T>,
        peer: Option<LiveClient<T>>,
        server: Server,
    ) -> Self {
        Deployed {
            workload,
            client,
            peer,
            server,
            job: FileRef::new(FileId::new(1), "ws:/job"),
            data: [FileRef::new(FileId::new(2), DATA_NAME)],
            options: SubmitOptions {
                shadow_output: workload.shadow_output(),
                ..SubmitOptions::default()
            },
        }
    }

    /// The measured client.
    pub fn client_mut(&mut self) -> &mut LiveClient<T> {
        &mut self.client
    }

    /// The client's report.
    pub fn client_report(&self) -> NodeReport {
        self.client.report()
    }

    /// The server's report.
    pub fn server_report(&self) -> Result<NodeReport, Error> {
        Ok(self
            .server
            .report()
            .ok_or("the server stopped answering reports")?)
    }

    /// Waits until the server has handled every frame this client sent:
    /// the answer to a heartbeat comes back only after them.
    pub fn quiesce(&mut self) -> Result<(), Error> {
        self.client.ping(0)?;
        self.client
            .wait_for(CYCLE_TIMEOUT, |n| matches!(n, Notification::Pong { .. }))?;
        Ok(())
    }

    /// Registers the job command file; the cold cycle then ships it in
    /// full alongside version 0 of the data.
    pub fn register_job(&mut self) {
        self.client
            .edit_finished(&self.job, self.workload.job().to_vec());
    }

    /// One closed-loop submit cycle: `edit_finished(data)`,
    /// `submit(job, [data])`, `wait_job`. The output is checked against
    /// `expected` after the clock stops.
    ///
    /// # Errors
    ///
    /// A [`CycleError`] when the service fails, times out, or returns
    /// the wrong output.
    pub fn cycle(
        &mut self,
        content: Vec<u8>,
        expected: impl FnOnce() -> Vec<u8>,
        tracer: Option<&Tracer>,
    ) -> Result<Sample, CycleError> {
        let options = self.options.clone();
        if let Some(tracer) = tracer {
            tracer.reset();
        }
        let t0 = Instant::now();
        self.client.edit_finished(&self.data[0], content);
        let edited = Instant::now();
        self.client.submit(&self.job, &self.data, options)?;
        let submitted = Instant::now();
        let finished = self.client.wait_job(CYCLE_TIMEOUT)?;
        let t1 = Instant::now();

        for note in self.client.take_notifications() {
            if matches!(
                note,
                Notification::JobRejected { .. }
                    | Notification::OutputCorrupt { .. }
                    | Notification::SessionClosed { .. }
                    | Notification::LinkDown { .. }
            ) {
                return Err(CycleError::Service(format!("{note:?}").into()));
            }
        }
        check_output(finished, expected)?;
        let bounds = match tracer.map(Tracer::marks) {
            None => None,
            Some(Marks {
                update_request: Some(pulled),
                update_sent: Some(sent),
                job_complete: Some(completed),
            }) => {
                let bounds = [t0, edited, submitted, pulled, sent, completed, t1];
                if !bounds.is_sorted() {
                    return Err(CycleError::Service("frame stamps out of order".into()));
                }
                Some(bounds)
            }
            Some(_) => {
                return Err(CycleError::Service(
                    "a traced cycle missed its pull, update or completion frame".into(),
                ))
            }
        };
        Ok(Sample {
            elapsed: t1 - t0,
            bounds,
        })
    }

    /// Submits a one-off `wc` of the data file the server holds and
    /// checks it against `data`, the client's latest version.
    ///
    /// # Errors
    ///
    /// As for [`cycle`](Self::cycle).
    pub fn check_wc(&mut self, data: &[u8]) -> Result<(), CycleError> {
        let check = FileRef::new(FileId::new(3), "ws:/check.job");
        self.client
            .edit_finished(&check, format!("wc {DATA_NAME}\n").into_bytes());
        self.client
            .submit(&check, &self.data, SubmitOptions::default())?;
        let finished = self.client.wait_job(CYCLE_TIMEOUT)?;
        check_output(finished, || crate::workload::wc(data))
    }

    /// Hangs up the clients and stops the server.
    ///
    /// # Errors
    ///
    /// The server thread failed.
    pub fn shutdown(self) -> Result<(), Error> {
        let Deployed {
            client,
            peer,
            server,
            ..
        } = self;
        drop(peer);
        drop(client);
        match server {
            Server::Pipes(system) => {
                system.shutdown();
                Ok(())
            }
            Server::Tcp(server) => server.join(),
        }
    }
}

/// Builds the deployment, journaling under `store` when there is one.
pub fn deployment(store: Option<&Path>) -> Deployment {
    let deployment = Deployment::new(server_config());
    match store {
        Some(root) => deployment.durable(root),
        None => deployment,
    }
}

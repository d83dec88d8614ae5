//! # Shadow editing: a distributed service for supercomputer access
//!
//! A Rust reproduction of Comer, Griffioen & Yavatkar's *Shadow Editing*
//! (Purdue CSD-TR-722, ICDCS 1988): a remote-job-entry service that caches
//! submitted files at the supercomputer site and ships only *differences*
//! between successive editing sessions — turning the scientist's
//! edit-submit-fetch cycle over a 9600-baud line from minutes of file
//! transfer into seconds of delta transfer.
//!
//! This facade crate wires the substrates together:
//!
//! * [`Simulation`] — a deterministic driver running any number of
//!   [`ClientNode`]s and [`ServerNode`]s over the discrete-event network
//!   simulator, with a calibrated [`CpuModel`]; regenerates every figure
//!   and table of the paper's evaluation (see [`experiment`]).
//! * [`Deployment`] — the single builder for every wall-clock shape:
//!   `Deployment::new(config).shards(n).durable(path)` then
//!   [`.pipes()`](Deployment::pipes) (threads + in-process duplex pipes)
//!   or [`.tcp(addr)`](Deployment::tcp) (real sockets, the paper's
//!   prototype shape). Every server is N domain-affine worker shards
//!   behind a routing acceptor, N = 1 by default; `durable(path)` makes
//!   the shadow store survive restarts via per-domain write-ahead
//!   journals (`shadow-store`), replayed before serving.
//! * [`connect_tcp`] — a TCP client for a bound deployment (or
//!   `shadowd`).
//! * Re-exports of the full public API of the component crates.
//!
//! # Module map
//!
//! Protocol *dispatch* is not implemented here. The simulator and both
//! wall-clock transports are thin adapters over the `shadow-runtime`
//! crate, which owns the single `ClientAction`/`ServerAction`
//! interpreter ([`ClientDriver`] / [`Shard`], the one server loop), the
//! [`TimerQueue`], the [`FrameTransport`] abstraction, and the
//! [`ShardedServerRuntime`] (worker threads that each run one `Shard`
//! behind one inbox of session events, fed by a reader thread per
//! session and routed by `hash(domain) % N`):
//!
//! | module | role | runtime pieces used |
//! |---|---|---|
//! | `sim`  | discrete-event scheduler + CPU/network cost model | `ClientDriver`, `Shard` on a `VirtualClock` (its next deadline becomes a sim wake-up) |
//! | `deploy` | the [`Deployment`] builder: pipes or TCP, diskless or durable | `ShardedServerRuntime` fed with split pipe ends or sockets; `shadow-store`'s `DurableStore` as each shard's `PersistSink` |
//! | `live` | the client side of a wall-clock deployment | `ClientDriver` over any `FrameTransport` |
//! | `tcpd` | the TCP client | `LiveClient` over a TCP stream |
//!
//! What remains in each adapter is only what genuinely differs: how
//! frames move (simulated links, crossbeam pipes, TCP) and how time
//! passes (virtual vs. wall clock).
//!
//! # Quickstart
//!
//! ```
//! use shadow::{Simulation, ServerConfig, ClientConfig, SubmitOptions};
//! use shadow_netsim::profiles;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sim = Simulation::new(1);
//! let server = sim.add_server("superc", ServerConfig::new("superc"));
//! let client = sim.add_client("ws1", ClientConfig::new("ws1", 1));
//! let conn = sim.connect(client, server, profiles::lan())?;
//!
//! sim.edit_file(client, "/sim.job", |_| b"echo hello supercomputer\n".to_vec())?;
//! sim.submit(client, conn, "/sim.job", &[], SubmitOptions::default())?;
//! sim.run_until_quiet();
//!
//! let outputs = sim.finished_jobs(client);
//! assert_eq!(outputs[0].output, b"hello supercomputer\n");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cpu;
mod deploy;
pub mod experiment;
mod live;
pub mod persist;
mod sim;
mod tcpd;

pub use cpu::CpuModel;
pub use deploy::{DeployError, Deployment, PipeDeployment, TcpDeployment};
pub use live::{LiveClient, LiveError};
pub use tcpd::{connect_tcp, TcpClient};
pub use sim::{ClientId, FinishedJob, ServerId, SimError, Simulation};

pub use shadow_store::{DurableStore, RecoverySummary, DEFAULT_COMPACT_EVERY};

pub use shadow_runtime::{
    shard_for, ClientDriver, ClientOutbound, Clock, CompletedJob, Connector, DriverEvent,
    DriverStats, EventHook, FeedError, FrameInfo, FrameReader, FrameTransport, FrameWriter,
    PersistSink, Shard, ShardEvent, ShardedServerRuntime, Supervisor,
    SupervisorConfig, SupervisorEvent, SupervisorStats, TimerQueue, TransportClosed,
    VirtualClock, WallClock,
};

pub use shadow_cache::{CacheStats, EvictionPolicy, ShadowStore};
pub use shadow_client::{
    ClientAction, ClientConfig, ClientConfigBuilder, ClientError, ClientEvent, ClientMetrics,
    ClientNode, ConfigError as ClientConfigError, ConnId, DeltaPolicy, EditOutcome, Editor,
    EditorCommand, FileRef, FnEditor, JobTracker, Notification, ScriptedEditor, ShadowEditor,
    ShadowEnv, TrackedJob, TransferMode,
};
pub use shadow_compress::{compress, decompress};
pub use shadow_diff::{
    apply_chunk_delta, apply_delta, choose_chunk_codec, chunk_delta_into, classify, diff_docs,
    ApplyError, ChunkDeltaError, ChunkParams, ChunkStats, DeltaError, DeltaScript, DiffAlgorithm,
    DiffScratch, DiffStats, DocBuf, DocShape,
};
pub use shadow_netsim::{
    pipe, profiles, tcp, ChaosProxy, FaultPlan, FaultStats, FaultTransport, LinkProfile,
    LinkStats, SimNet, SimTime,
};
pub use shadow_proto::{
    ClientMessage, ContentDigest, DeltaCodec, DomainId, FileId, FileKey, Frame, HostName, JobId,
    JobStats, JobStatus, JobStatusEntry, OutputPayload, PersistRecord, RequestId, ServerMessage,
    SubmitOptions, TransferEncoding, UpdatePayload, VersionNumber, WireDecode, WireEncode,
    WireError, PROTOCOL_VERSION,
};
pub use shadow_obs::{
    FlightEntry, FlightRecorder, Histogram, Json, MetricValue, MetricsRegistry, NodeReport,
    Section, Snapshot,
};
pub use shadow_server::{
    exec, ConfigError as ServerConfigError, ExecProfile, FlowControl, ServerAction, ServerConfig,
    ServerConfigBuilder, ServerEvent, ServerNode, SessionId,
};
pub use shadow_version::{VersionStore, VersionStoreStats};
pub use shadow_vfs::{CanonicalName, VPath, Vfs, VfsError};
pub use shadow_workload::{
    delta_cost, edit_sequence, generate_file, EditModel, FileSpec, Locality, PAPER_PERCENTS_FIG1,
    PAPER_PERCENTS_FIG3, PAPER_SIZES_FIG1, PAPER_SIZES_FIG3,
};

/// The types nearly every consumer of the service touches, importable
/// in one line:
///
/// ```
/// use shadow::prelude::*;
/// ```
///
/// Covers file identity ([`FileRef`]), the validated config builders,
/// the deployment front ends ([`Simulation`], the [`Deployment`]
/// builder, [`TcpClient`]), the client driver and server loop beneath
/// them, and the unified [`NodeReport`] stats surface.
pub mod prelude {
    pub use crate::deploy::{DeployError, Deployment, PipeDeployment, TcpDeployment};
    pub use crate::live::LiveClient;
    pub use crate::sim::{ClientId, FinishedJob, ServerId, Simulation};
    pub use crate::tcpd::{connect_tcp, TcpClient};
    pub use shadow_client::{
        ClientConfig, ClientConfigBuilder, DeltaPolicy, FileRef, ShadowEnv, TransferMode,
    };
    pub use shadow_netsim::{profiles, LinkProfile, SimTime};
    pub use shadow_obs::{NodeReport, Section, Snapshot};
    pub use shadow_proto::{
        ContentDigest, DomainId, FileId, HostName, JobId, SubmitOptions, TransferEncoding,
        VersionNumber,
    };
    pub use shadow_runtime::{ClientDriver, Shard};
    pub use shadow_cache::EvictionPolicy;
    pub use shadow_server::{ExecProfile, FlowControl, ServerConfig, ServerConfigBuilder};
}

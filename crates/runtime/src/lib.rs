//! The transport-agnostic driver runtime.
//!
//! The paper's central claim (§5, §7) is that **one** protocol — shadow
//! caching plus demand-driven delta pull — behaves identically over a
//! 9600-baud simulated link and a real long-haul connection. This crate
//! makes that claim true *by construction*: it is the single place that
//! turns the sans-io state machines ([`shadow_client::ClientNode`],
//! [`shadow_server::ServerNode`]) into running endpoints. Every
//! deployment — the discrete-event simulator, the in-process
//! threads-and-pipes system, and the TCP daemon — drives the same
//! [`ClientDriver`]/[`ServerDriver`] and therefore produces the same
//! bytes on the wire.
//!
//! The pieces:
//!
//! * [`Clock`] — wall time ([`WallClock`]) vs. externally-advanced
//!   virtual time ([`VirtualClock`]), so the drivers never call
//!   `Instant::now()` themselves;
//! * [`FrameTransport`] — a byte-frame pipe; implemented by
//!   `shadow_netsim`'s in-process pipes and TCP framing;
//! * [`TimerQueue`] — deadline-ordered, FIFO on ties, replacing the two
//!   divergent ad-hoc timer structures the drivers used to carry;
//! * [`ClientDriver`] / [`ServerDriver`] — own the encode→send /
//!   receive→decode→feed loop, `SetTimer` handling, and notification
//!   buffering. The `ClientAction`/`ServerAction` match arms live here
//!   and **only** here;
//! * [`ShardedServerRuntime`] — every wall-clock server: N domain-affine
//!   worker shards (N = 1 included), each blocking on one inbox of
//!   session events, fed by a small reader thread per session that reads
//!   the session's `Hello` to learn its domain; `hash(domain) % N`
//!   ([`shard_for`]) keeps every domain's sessions — and so all of its
//!   protocol state — on one thread. Sessions arrive split into a
//!   [`FrameReader`] (the reader thread's) and a [`FrameWriter`] (the
//!   shard's);
//! * [`DriverEvent`] — a structured instrumentation tap (frames and
//!   bytes on the wire, deltas vs. full transfers, timers) used by the
//!   equivalence tests and by metrics collection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client_driver;
mod clock;
mod event;
mod server_driver;
mod shard;
mod sink;
mod supervisor;
mod timer;
mod transport;

pub use client_driver::{ClientDriver, ClientOutbound};
pub use clock::{Clock, VirtualClock, WallClock};
pub use event::{CompletedJob, DriverEvent, DriverStats, EventHook, FeedError, FrameInfo};
pub use server_driver::{ServerDriver, ServerIo, ServerOutbound};
pub use sink::{PersistSink, VecSink};
pub use supervisor::{
    Connector, Supervisor, SupervisorConfig, SupervisorEvent, SupervisorStats,
};
pub use shard::{shard_for, ShardedServerRuntime};
pub use timer::TimerQueue;
pub use transport::{FrameReader, FrameTransport, FrameWriter, TransportClosed};

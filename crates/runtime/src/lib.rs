//! The transport-agnostic driver runtime.
//!
//! The paper's central claim (§5, §7) is that **one** protocol — shadow
//! caching plus demand-driven delta pull — behaves identically over a
//! 9600-baud simulated link and a real long-haul connection. This crate
//! makes that claim true *by construction*: it is the single place that
//! turns the sans-io state machines ([`shadow_client::ClientNode`],
//! [`shadow_server::ServerNode`]) into running endpoints. Every
//! deployment — the discrete-event simulator, the model checker, the
//! in-process threads-and-pipes system, and the TCP daemon — drives the
//! same [`ClientDriver`] and the same server loop, [`Shard`], and
//! therefore produces the same bytes on the wire.
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
//! * [`ClientDriver`] — owns the client's encode→send /
//!   receive→decode→feed loop and notification buffering. The
//!   `ClientAction` match arms live here and **only** here;
//! * [`Shard`] — the one server loop: it takes [`ShardEvent`]s
//!   (a session opening on its `Hello`, a frame, a close), decodes,
//!   feeds the `ServerNode`, journals to its [`PersistSink`], writes to
//!   each session's [`FrameWriter`], and arms and fires its timers on
//!   its [`Clock`]. The `ServerAction` match arms live here and **only**
//!   here, so the persist → send → compact ordering the model checker
//!   explores is the one production runs;
//! * [`ShardedServerRuntime`] — every wall-clock server: N domain-affine
//!   worker threads (N = 1 included), each running one [`Shard`] behind
//!   one blocking inbox, fed by a small reader thread per session that
//!   reads the session's `Hello` to learn its domain; `hash(domain) % N`
//!   ([`shard_for`]) keeps every domain's sessions — and so all of its
//!   protocol state — on one thread. Sessions arrive split into a
//!   [`FrameReader`] (the reader thread's) and a [`FrameWriter`] (the
//!   shard's);
//! * [`DriverEvent`] — a structured instrumentation tap on the client
//!   driver (frames and bytes on the wire, deltas vs. full transfers)
//!   used by the equivalence tests and by metrics collection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client_driver;
mod clock;
mod event;
mod shard;
mod sink;
mod supervisor;
mod timer;
mod transport;

pub use client_driver::{ClientDriver, ClientOutbound};
pub use clock::{Clock, VirtualClock, WallClock};
pub use event::{CompletedJob, DriverEvent, DriverStats, EventHook, FeedError, FrameInfo};
pub use shard::{shard_for, Shard, ShardEvent, ShardedServerRuntime};
pub use sink::PersistSink;
pub use supervisor::{Connector, Supervisor, SupervisorConfig, SupervisorEvent, SupervisorStats};
pub use timer::TimerQueue;
pub use transport::{FrameReader, FrameTransport, FrameWriter, TransportClosed};

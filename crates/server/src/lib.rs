//! The shadow server: the component that runs at each supercomputer site.
//!
//! §6.1 of the paper: "A shadow server runs at each supercomputer site …
//! The server accepts requests for job execution, initiates execution at
//! the supercomputer, reports on the status of outstanding jobs, and
//! transfers results back to an appropriate client."
//!
//! [`ServerNode`] is a **sans-io state machine**: it consumes
//! [`ServerEvent`]s (a message arrived, a timer fired) and returns
//! [`ServerAction`]s (send a message, set a timer). Drivers — the
//! deterministic simulation in the `shadow` crate, or a threaded live
//! system — own all I/O and clocks, so the protocol logic is identical in
//! both worlds and fully unit-testable.
//!
//! Major subsystems:
//!
//! * [`DomainDirectory`] — the per-domain mapping from file ids to cached
//!   shadow files (§6.5), backed by the best-effort
//!   [`ShadowStore`](shadow_cache::ShadowStore);
//! * the **demand-driven update scheduler** (§5.2): the server chooses when
//!   to pull file updates, under a configurable [`FlowControl`] policy
//!   (including the request-driven baseline the paper argues against);
//! * the **batch executor** ([`exec`]) — the stand-in for the
//!   supercomputer: a job-control-file interpreter with a small command
//!   set, deterministic output, and a simulated runtime cost;
//! * **reverse shadow processing** (§8.3): job output is cached so a
//!   re-run of the same job sends only output differences.
//!
//! # Example
//!
//! ```
//! use shadow_server::{ServerConfig, ServerEvent, ServerNode, SessionId};
//! use shadow_proto::{ClientMessage, DomainId, HostName, PROTOCOL_VERSION};
//!
//! let mut server = ServerNode::new(ServerConfig::new("superc"));
//! let session = SessionId::new(1);
//! let actions = server.handle(ServerEvent::Message {
//!     session,
//!     message: ClientMessage::Hello {
//!         domain: DomainId::new(1),
//!         host: HostName::new("ws1"),
//!         protocol: PROTOCOL_VERSION,
//!         epoch: 0,
//!         resume: Vec::new(),
//!     },
//!     now_ms: 0,
//! });
//! assert_eq!(actions.len(), 1); // HelloAck
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
mod config;
mod domain;
pub mod exec;
mod jobs;
mod node;
mod output_shadow;

pub use action::{CloseReason, ServerAction, ServerEvent, TimerToken};
pub use config::{ConfigError, ExecProfile, FlowControl, ServerConfig, ServerConfigBuilder};
pub use domain::{DomainDirectory, MappingEntry};
pub use jobs::{Job, JobPhase};
#[cfg(any(test, feature = "check-faults"))]
pub use node::FaultInjection;
pub use node::{RestoreSummary, ServerMetrics, ServerNode, SessionId};
pub use output_shadow::OutputShadowStore;

//! The shadow client: the component that runs at the user's workstation.
//!
//! §6.1 of the paper: "The client hides the details of communication, and
//! accepts requests for remote processing at the user's site. Multiple
//! clients can have connections open to a server simultaneously, and a
//! client can have simultaneous connections to multiple servers."
//!
//! Like the server, [`ClientNode`] is a **sans-io state machine**: events
//! in ([`ClientEvent`]), actions out ([`ClientAction`]). The pieces:
//!
//! * the **shadow environment** ([`ShadowEnv`]) — the per-user
//!   customization database of §6.3.1 (retention limit, transfer
//!   encoding, delta policy);
//! * the **shadow editor** ([`ShadowEditor`]) — encapsulates a conventional
//!   editor without modifying it (§6.2) and runs the post-processor that
//!   versions the result and notifies interested servers;
//! * `submit` / `status` commands producing protocol messages, output
//!   delivery handling (including reverse-shadow output deltas), and the
//!   version-acknowledgement bookkeeping that lets the
//!   [`VersionStore`](shadow_version::VersionStore) prune safely even with
//!   connections to several servers.
//!
//! # Example
//!
//! ```
//! use shadow_client::{ClientConfig, ClientEvent, ClientNode, ConnId};
//!
//! let mut client = ClientNode::new(ClientConfig::new("ws1", 1));
//! let conn = ConnId::new(0);
//! let actions = client.connect(conn);
//! assert_eq!(actions.len(), 1); // the Hello
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod editor;
mod jobs;
mod node;

pub use config::{
    ClientConfig, ClientConfigBuilder, ConfigError, DeltaPolicy, ShadowEnv, TransferMode,
};
pub use editor::{EditOutcome, Editor, EditorCommand, FnEditor, ScriptedEditor, ShadowEditor};
pub use jobs::{JobTracker, TrackedJob};
pub use node::{
    ClientAction, ClientError, ClientEvent, ClientMetrics, ClientNode, ConnId, FileRef,
    Notification,
};

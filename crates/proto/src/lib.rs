//! Wire protocol for the shadow editing service.
//!
//! Defines the typed identifiers, the client→server and server→client
//! message sets, and a compact hand-rolled binary codec with length-prefixed
//! framing. The message set realizes the paper's **demand-driven** flow
//! control (§5.2/§6.4): clients *notify* the server of new file versions
//! ([`ClientMessage::NotifyVersion`]) and the server decides when to pull
//! the bytes ([`ServerMessage::UpdateRequest`]), against which base version,
//! and the client answers with a delta or a full copy
//! ([`ClientMessage::Update`]).
//!
//! # Example
//!
//! ```
//! use shadow_proto::{ClientMessage, DomainId, HostName, Frame, PROTOCOL_VERSION};
//!
//! # fn main() -> Result<(), shadow_proto::WireError> {
//! let msg = ClientMessage::Hello {
//!     domain: DomainId::new(42),
//!     host: HostName::new("workstation.lab"),
//!     protocol: PROTOCOL_VERSION,
//!     epoch: 0,
//!     resume: Vec::new(),
//! };
//! let bytes = Frame::encode(&msg);
//! let (decoded, used) = Frame::decode::<ClientMessage>(&bytes)?.expect("complete frame");
//! assert_eq!(decoded, msg);
//! assert_eq!(used, bytes.len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod digest;
mod error;
mod ids;
mod message;
mod persist;
mod stable_hash;
mod wire;

/// The shared byte buffer every payload and record carries, re-exported
/// so a crate that holds payload bytes names the same type.
pub use bytes::Bytes;
pub use digest::ContentDigest;
pub use stable_hash::StableHasher;
pub use error::WireError;
pub use persist::PersistRecord;
pub use ids::{DomainId, FileId, FileKey, HostName, JobId, RequestId, VersionNumber};
pub use message::{
    ClientMessage, DeltaCodec, JobStats, JobStatus, JobStatusEntry, OutputPayload, ResumeEntry,
    ServerMessage, SubmitOptions, TransferEncoding, UpdatePayload,
};
pub use wire::{Frame, WireDecode, WireEncode, MAX_FRAME_LEN};

/// Version of the wire protocol spoken by this crate. Version 2 added
/// the session-resumption handshake (`Hello` epoch + resume summary,
/// `HelloAck` retained list) and the `Ping`/`Pong` heartbeats.
/// Version 3 added the [`DeltaCodec`] tag on every delta payload (line
/// ed-script vs content-defined chunk delta) and switched
/// [`ContentDigest`] to its block-wise format (digest values are not
/// comparable across this bump). Version 4 switched [`ContentDigest`]
/// to its four-lane format 3; the wire bytes did not change, but digest
/// values are again not comparable across the bump.
pub const PROTOCOL_VERSION: u32 = 4;

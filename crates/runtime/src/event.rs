//! Driver-level error and completion types.
//!
//! The instrumentation vocabulary ([`FrameInfo`], [`DriverEvent`],
//! [`EventHook`], [`DriverStats`]) lives in `shadow-obs` so that
//! observability consumers need not depend on the drivers; this module
//! re-exports it for existing callers.

pub use shadow_obs::{DriverEvent, DriverStats, EventHook, FrameInfo};

use shadow_client::ConnId;
use shadow_proto::{JobId, JobStats, SubmitOptions, WireError};

/// Why an inbound frame could not be fed to the state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeedError {
    /// The frame was shorter than its header claimed.
    Incomplete,
    /// The frame failed to decode.
    Wire(WireError),
}

impl std::fmt::Display for FeedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedError::Incomplete => write!(f, "incomplete frame"),
            FeedError::Wire(e) => write!(f, "wire error: {e}"),
        }
    }
}

impl std::error::Error for FeedError {}

impl From<WireError> for FeedError {
    fn from(e: WireError) -> Self {
        FeedError::Wire(e)
    }
}

/// A finished job drained from a [`crate::ClientDriver`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedJob {
    /// The connection the completion arrived on.
    pub conn: ConnId,
    /// The job.
    pub job: JobId,
    /// Reconstructed standard output.
    pub output: Vec<u8>,
    /// Error output.
    pub errors: Vec<u8>,
    /// Server-side accounting.
    pub stats: JobStats,
    /// The options the job was submitted with (output routing), when
    /// this driver submitted it.
    pub options: Option<SubmitOptions>,
    /// Driver-clock completion time, milliseconds.
    pub at_ms: u64,
}

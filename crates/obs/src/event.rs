//! The driver instrumentation tap: [`DriverEvent`], [`FrameInfo`],
//! [`EventHook`], and the [`DriverStats`] counters.
//!
//! These types originated in `shadow-runtime` (which re-exports them
//! for compatibility); they live here so that every observability
//! consumer — metrics registries, trace sinks, flight recorders — can
//! depend on the event vocabulary without dragging in the drivers.

use shadow_proto::JobStats;

use crate::report::{Section, Snapshot};

/// What kind of payload a frame carries, as far as transfer accounting
/// is concerned. The simulator also uses this to price CPU costs
/// (diffing a whole file vs. fixed per-message handling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameInfo {
    /// A full-content file update.
    UpdateFull {
        /// The file being updated.
        file: shadow_proto::FileId,
        /// Payload bytes carried.
        data_len: usize,
    },
    /// A delta file update.
    UpdateDelta {
        /// The file being updated.
        file: shadow_proto::FileId,
        /// Payload bytes carried.
        data_len: usize,
        /// Size of the client's full file (the diff reads all of it).
        file_size: usize,
    },
    /// Anything else (control traffic, acks, output…).
    Other,
}

/// A structured instrumentation event emitted by the client driver.
///
/// Taps observe exactly what crosses the driver boundary: encoded
/// frames with their transfer classification. The
/// sim-vs-live equivalence tests capture `FrameSent` events from both
/// worlds and compare the byte sequences; trace sinks and flight
/// recorders consume the driver-clock timestamps.
#[derive(Debug)]
pub enum DriverEvent<'a> {
    /// An encoded frame is about to leave this endpoint.
    FrameSent {
        /// The full encoded frame (length prefix included).
        frame: &'a [u8],
        /// Transfer classification.
        info: &'a FrameInfo,
        /// Driver-clock send time, milliseconds.
        at_ms: u64,
    },
    /// A frame arrived and is about to be decoded and fed in.
    FrameReceived {
        /// The full encoded frame.
        frame: &'a [u8],
        /// Driver-clock receive time, milliseconds.
        at_ms: u64,
    },
}

/// The callback type for [`DriverEvent`] taps.
pub type EventHook = Box<dyn FnMut(DriverEvent<'_>) + Send>;

/// Wire- and timer-level counters accumulated by a driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverStats {
    /// Frames encoded and handed to the transport.
    pub frames_sent: u64,
    /// Frames received and decoded.
    pub frames_received: u64,
    /// Total encoded bytes sent (length prefixes included).
    pub bytes_sent: u64,
    /// Total encoded bytes received.
    pub bytes_received: u64,
    /// File updates sent as deltas.
    pub deltas_sent: u64,
    /// File updates sent in full.
    pub fulls_sent: u64,
    /// Timers armed on behalf of the state machine.
    pub timers_armed: u64,
    /// Timers delivered back to the state machine.
    pub timers_fired: u64,
    /// Notifications surfaced to the application.
    pub notifications: u64,
    /// Notifications the application has drained, whether in bulk or by
    /// predicate. Always ≤ `notifications`; the difference is the
    /// number still buffered.
    pub notifications_drained: u64,
}

impl DriverStats {
    /// Notifications buffered but not yet drained by the application.
    pub fn notifications_pending(&self) -> u64 {
        self.notifications.saturating_sub(self.notifications_drained)
    }
}

impl Snapshot for DriverStats {
    fn section_name(&self) -> &'static str {
        "driver"
    }

    fn snapshot(&self) -> Section {
        Section::new("driver")
            .with("frames_sent", self.frames_sent)
            .with("frames_received", self.frames_received)
            .with("bytes_sent", self.bytes_sent)
            .with("bytes_received", self.bytes_received)
            .with("deltas_sent", self.deltas_sent)
            .with("fulls_sent", self.fulls_sent)
            .with("timers_armed", self.timers_armed)
            .with("timers_fired", self.timers_fired)
            .with("notifications", self.notifications)
            .with("notifications_drained", self.notifications_drained)
    }
}

impl Snapshot for JobStats {
    fn section_name(&self) -> &'static str {
        "job"
    }

    fn snapshot(&self) -> Section {
        Section::new("job")
            .with("queued_ms", self.queued_ms)
            .with("waiting_ms", self.waiting_ms)
            .with("running_ms", self.running_ms)
            .with("output_bytes", self.output_bytes)
            .with("exit_code", self.exit_code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_stats_snapshot_covers_drain_accounting() {
        let stats = DriverStats {
            notifications: 5,
            notifications_drained: 3,
            ..DriverStats::default()
        };
        assert_eq!(stats.notifications_pending(), 2);
        let s = stats.snapshot();
        assert_eq!(s.get("notifications").and_then(|v| v.as_u64()), Some(5));
        assert_eq!(
            s.get("notifications_drained").and_then(|v| v.as_u64()),
            Some(3)
        );
    }

    #[test]
    fn job_stats_snapshot() {
        let stats = JobStats {
            queued_ms: 1,
            waiting_ms: 2,
            running_ms: 3,
            output_bytes: 4,
            exit_code: 0,
        };
        let s = stats.snapshot();
        assert_eq!(s.get("running_ms").and_then(|v| v.as_u64()), Some(3));
    }
}

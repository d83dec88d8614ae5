//! A bounded flight recorder: the last N observability events, kept in
//! a ring so recording is O(1) and memory is fixed.
//!
//! The model checker records every step a `World` takes into one of
//! these; when an invariant violation or decode error surfaces, the
//! recorder's dump — the tail of the event history, in order — is
//! attached to the counterexample report. Drivers can feed one through
//! the [`DriverEvent`] tap for the same purpose in live runs.

use std::collections::VecDeque;

use crate::event::{DriverEvent, FrameInfo};
use crate::json::Json;

/// One recorded event: a monotonic sequence number, a driver-clock
/// timestamp, and a short human-readable label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEntry {
    /// Position in the recording (0-based, never reused). Gaps at the
    /// front of a dump mean older entries were overwritten.
    pub seq: u64,
    /// Driver-clock time, milliseconds (0 when unknown).
    pub at_ms: u64,
    /// What happened.
    pub label: String,
}

/// A fixed-capacity ring buffer of [`FlightEntry`]s.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    next_seq: u64,
    entries: VecDeque<FlightEntry>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            next_seq: 0,
            entries: VecDeque::new(),
        }
    }

    /// Records one event, evicting the oldest when full.
    pub fn record(&mut self, at_ms: u64, label: impl Into<String>) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(FlightEntry {
            seq: self.next_seq,
            at_ms,
            label: label.into(),
        });
        self.next_seq += 1;
    }

    /// Records a driver event with a one-line summary label.
    pub fn record_event(&mut self, event: &DriverEvent<'_>) {
        match event {
            DriverEvent::FrameSent { frame, info, at_ms } => {
                let kind = match info {
                    FrameInfo::UpdateFull { data_len, .. } => {
                        format!("update-full {data_len}B")
                    }
                    FrameInfo::UpdateDelta { data_len, .. } => {
                        format!("update-delta {data_len}B")
                    }
                    FrameInfo::Other => "frame".to_string(),
                };
                self.record(*at_ms, format!("sent {kind} ({}B wire)", frame.len()));
            }
            DriverEvent::FrameReceived { frame, at_ms } => {
                self.record(*at_ms, format!("received frame ({}B wire)", frame.len()));
            }
        }
    }

    /// Events recorded so far, counting overwritten ones.
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }

    /// The retained tail, oldest first, strictly ascending by `seq`.
    pub fn dump(&self) -> Vec<FlightEntry> {
        self.entries.iter().cloned().collect()
    }

    /// The dump as display lines (`#seq @at_ms label`), ready for a
    /// counterexample report.
    pub fn dump_lines(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|e| format!("#{:<4} @{:>6}ms  {}", e.seq, e.at_ms, e.label))
            .collect()
    }

    /// The dump as a JSON array.
    pub fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .entries
            .iter()
            .map(|e| {
                Json::object()
                    .with("seq", e.seq)
                    .with("at_ms", e.at_ms)
                    .with("label", e.label.as_str())
            })
            .collect();
        Json::Arr(rows)
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        // Big enough to hold a whole scripted session; small enough to
        // read in a terminal when a counterexample prints it.
        FlightRecorder::new(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_replays_in_event_order_after_wraparound() {
        let mut fr = FlightRecorder::new(4);
        for i in 0..10u64 {
            fr.record(i * 10, format!("step {i}"));
        }
        let dump = fr.dump();
        assert_eq!(dump.len(), 4);
        let seqs: Vec<u64> = dump.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest evicted, order preserved");
        assert!(dump.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(dump[0].label, "step 6");
        assert_eq!(fr.total_recorded(), 10);
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut fr = FlightRecorder::new(0);
        fr.record(1, "a");
        fr.record(2, "b");
        assert_eq!(fr.dump().len(), 1);
        assert_eq!(fr.dump()[0].label, "b");
    }

    #[test]
    fn driver_events_get_readable_labels() {
        let mut fr = FlightRecorder::new(8);
        let frame = [0u8; 12];
        fr.record_event(&DriverEvent::FrameSent {
            frame: &frame,
            info: &FrameInfo::UpdateDelta {
                file: shadow_proto::FileId::new(1),
                data_len: 5,
                file_size: 100,
            },
            at_ms: 42,
        });
        fr.record_event(&DriverEvent::FrameReceived {
            frame: &frame,
            at_ms: 99,
        });
        let lines = fr.dump_lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("update-delta 5B"));
        assert!(lines[1].contains("received frame (12B wire)"));
    }

    #[test]
    fn json_dump_shape() {
        let mut fr = FlightRecorder::new(2);
        fr.record(7, "x");
        let j = fr.to_json().render();
        assert_eq!(j, "[{\"seq\":0,\"at_ms\":7,\"label\":\"x\"}]");
    }
}

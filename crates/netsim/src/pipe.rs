//! A real (threaded) in-process duplex message transport.
//!
//! Live-mode runs of the service use [`duplex`] instead of the simulator:
//! two [`PipeEnd`]s connected by unbounded channels, safe to use from
//! different threads. The message interface (whole frames in, whole frames
//! out) matches what the protocol layer produces, so client/server state
//! machines run unchanged over either transport.

use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};

/// One end of a duplex message pipe.
///
/// # Example
///
/// ```
/// use shadow_netsim::pipe;
///
/// let (a, b) = pipe::duplex();
/// a.send(vec![1, 2, 3]).unwrap();
/// assert_eq!(b.try_recv().unwrap(), Some(vec![1, 2, 3]));
/// ```
#[derive(Debug, Clone)]
pub struct PipeEnd {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

/// Error talking over a [`PipeEnd`]: the peer hung up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

impl std::fmt::Display for Disconnected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pipe peer disconnected")
    }
}

impl std::error::Error for Disconnected {}

impl PipeEnd {
    /// Sends one message to the peer.
    ///
    /// # Errors
    ///
    /// [`Disconnected`] if the peer end was dropped.
    pub fn send(&self, frame: Vec<u8>) -> Result<(), Disconnected> {
        self.tx.send(frame).map_err(|_| Disconnected)
    }

    /// Receives a pending message without blocking.
    ///
    /// Returns `Ok(None)` when no message is waiting.
    ///
    /// # Errors
    ///
    /// [`Disconnected`] if the peer end was dropped and the queue is empty.
    pub fn try_recv(&self) -> Result<Option<Vec<u8>>, Disconnected> {
        match self.rx.try_recv() {
            Ok(frame) => Ok(Some(frame)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(Disconnected),
        }
    }

    /// Receives a message, waiting up to `timeout`.
    ///
    /// Returns `Ok(None)` on timeout.
    ///
    /// # Errors
    ///
    /// [`Disconnected`] if the peer end was dropped and the queue is empty.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<Vec<u8>>, Disconnected> {
        match self.rx.recv_timeout(timeout) {
            Ok(frame) => Ok(Some(frame)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(Disconnected),
        }
    }

    /// Receives a message, blocking until one arrives.
    ///
    /// # Errors
    ///
    /// [`Disconnected`] if the peer end was dropped and the queue is empty.
    pub fn recv(&self) -> Result<Vec<u8>, Disconnected> {
        self.rx.recv().map_err(|_| Disconnected)
    }

    /// Splits the end into its sending and receiving halves, for a
    /// server that reads a session on one thread and writes it from
    /// another. Dropping the [`PipeWriter`] hangs up on the peer's
    /// receive side; dropping the [`PipeReader`] on its send side.
    pub fn split(self) -> (PipeWriter, PipeReader) {
        (PipeWriter(self.tx), PipeReader(self.rx))
    }
}

impl shadow_runtime::FrameWriter for PipeEnd {
    fn write_frame(&mut self, frame: Vec<u8>) -> Result<(), shadow_runtime::TransportClosed> {
        // A dropped peer end is an orderly hang-up, not a failure.
        PipeEnd::send(self, frame).map_err(|_| shadow_runtime::TransportClosed::Clean)
    }
}

impl shadow_runtime::FrameTransport for PipeEnd {
    fn recv_frame(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<Vec<u8>>, shadow_runtime::TransportClosed> {
        PipeEnd::recv_timeout(self, timeout).map_err(|_| shadow_runtime::TransportClosed::Clean)
    }
}

/// The sending half of a split [`PipeEnd`].
#[derive(Debug)]
pub struct PipeWriter(Sender<Vec<u8>>);

/// The receiving half of a split [`PipeEnd`].
#[derive(Debug)]
pub struct PipeReader(Receiver<Vec<u8>>);

impl shadow_runtime::FrameWriter for PipeWriter {
    fn write_frame(&mut self, frame: Vec<u8>) -> Result<(), shadow_runtime::TransportClosed> {
        self.0
            .send(frame)
            .map_err(|_| shadow_runtime::TransportClosed::Clean)
    }
}

impl shadow_runtime::FrameReader for PipeReader {
    fn read_frame(&mut self) -> Result<Vec<u8>, shadow_runtime::TransportClosed> {
        self.0
            .recv()
            .map_err(|_| shadow_runtime::TransportClosed::Clean)
    }
}

/// Creates a connected pair of pipe ends.
pub fn duplex() -> (PipeEnd, PipeEnd) {
    let (tx_ab, rx_ab) = unbounded();
    let (tx_ba, rx_ba) = unbounded();
    (
        PipeEnd {
            tx: tx_ab,
            rx: rx_ba,
        },
        PipeEnd {
            tx: tx_ba,
            rx: rx_ab,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_flow_both_ways() {
        let (a, b) = duplex();
        a.send(b"ping".to_vec()).unwrap();
        b.send(b"pong".to_vec()).unwrap();
        assert_eq!(b.recv().unwrap(), b"ping");
        assert_eq!(a.recv().unwrap(), b"pong");
    }

    #[test]
    fn try_recv_is_non_blocking() {
        let (a, b) = duplex();
        assert_eq!(b.try_recv().unwrap(), None);
        a.send(vec![9]).unwrap();
        assert_eq!(b.try_recv().unwrap(), Some(vec![9]));
        assert_eq!(b.try_recv().unwrap(), None);
    }

    #[test]
    fn disconnect_is_reported() {
        let (a, b) = duplex();
        drop(b);
        assert_eq!(a.send(vec![1]), Err(Disconnected));
        assert_eq!(a.try_recv(), Err(Disconnected));
    }

    #[test]
    fn queued_messages_survive_peer_drop() {
        let (a, b) = duplex();
        a.send(vec![1]).unwrap();
        drop(a);
        assert_eq!(b.try_recv().unwrap(), Some(vec![1]));
        assert_eq!(b.try_recv(), Err(Disconnected));
    }

    #[test]
    fn recv_timeout_times_out() {
        let (_a, b) = duplex();
        let got = b.recv_timeout(Duration::from_millis(10)).unwrap();
        assert_eq!(got, None);
    }

    #[test]
    fn split_halves_carry_frames_and_hang_up_on_drop() {
        use shadow_runtime::{FrameReader, FrameWriter, TransportClosed};
        let (a, b) = duplex();
        let (mut writer, mut reader) = b.split();
        a.send(vec![1]).unwrap();
        assert_eq!(reader.read_frame().unwrap(), vec![1]);
        writer.write_frame(vec![2]).unwrap();
        assert_eq!(a.recv().unwrap(), vec![2]);
        drop(writer);
        assert_eq!(a.try_recv(), Err(Disconnected));
        drop(a);
        assert_eq!(reader.read_frame(), Err(TransportClosed::Clean));
    }

    #[test]
    fn works_across_threads() {
        let (a, b) = duplex();
        let handle = std::thread::spawn(move || {
            let m = b.recv().unwrap();
            b.send(m.iter().rev().copied().collect()).unwrap();
        });
        a.send(vec![1, 2, 3]).unwrap();
        assert_eq!(a.recv().unwrap(), vec![3, 2, 1]);
        handle.join().unwrap();
    }
}

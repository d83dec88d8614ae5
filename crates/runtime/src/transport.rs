//! The byte-frame transport abstraction.

use std::fmt;
use std::io;
use std::time::Duration;

/// The peer is gone: the pipe, channel, or socket closed.
///
/// Transports collapse their own error vocabularies into one of two
/// terminal conditions: a *clean* shutdown (orderly EOF, peer dropped
/// its end) or an *error* close carrying the underlying
/// [`io::ErrorKind`] (reset, aborted, timeout at the OS level…).
/// Both loops treat either as a lost link; reports use the distinction
/// to tell drain from failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportClosed {
    /// The peer shut the transport down in an orderly way.
    Clean,
    /// The transport failed, with the OS-level error kind carried
    /// through.
    Error(io::ErrorKind),
}

impl TransportClosed {
    /// True for the orderly-shutdown variant.
    pub fn is_clean(&self) -> bool {
        matches!(self, TransportClosed::Clean)
    }

    /// The carried error kind, if this was an error close.
    pub fn error_kind(&self) -> Option<io::ErrorKind> {
        match self {
            TransportClosed::Clean => None,
            TransportClosed::Error(kind) => Some(*kind),
        }
    }
}

impl From<io::Error> for TransportClosed {
    fn from(e: io::Error) -> Self {
        // An orderly EOF is how most transports spell "peer hung up".
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TransportClosed::Clean
        } else {
            TransportClosed::Error(e.kind())
        }
    }
}

impl fmt::Display for TransportClosed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportClosed::Clean => write!(f, "transport closed by peer"),
            TransportClosed::Error(kind) => write!(f, "transport failed: {kind}"),
        }
    }
}

impl std::error::Error for TransportClosed {}

/// A bidirectional pipe carrying whole frames (already length-delimited
/// by the transport): a [`FrameWriter`] that can also be read from.
///
/// This is the seam between the shared runtime and each deployment's
/// I/O: in-process crossbeam pipes, framed TCP sockets, or anything
/// else that can move a `Vec<u8>`. A client's
/// [`ClientCore`](crate::ClientCore) writes to it; its host reads from
/// it. Implementations live next to the transport itself (in
/// `shadow-netsim`), not here.
pub trait FrameTransport: FrameWriter {
    /// Receives one frame, waiting up to `timeout` (`Duration::ZERO`
    /// does not wait). `Ok(None)` means the wait elapsed with nothing to
    /// read.
    fn recv_frame(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, TransportClosed>;
}

/// The receiving half of a server-side session, split from its
/// transport: the session's reader thread blocks on it.
pub trait FrameReader: Send + 'static {
    /// Blocks until the next whole frame arrives or the peer goes.
    fn read_frame(&mut self) -> Result<Vec<u8>, TransportClosed>;
}

/// The sending half of a connection: a server shard keeps one per
/// session (split from its transport), a client core one per
/// connection. Dropping it closes the connection for the peer, so a
/// loop that drops a connection also hangs up on it.
pub trait FrameWriter: Send + 'static {
    /// Sends one frame.
    fn write_frame(&mut self, frame: Vec<u8>) -> Result<(), TransportClosed>;
}

impl<W: FrameWriter + ?Sized> FrameWriter for Box<W> {
    fn write_frame(&mut self, frame: Vec<u8>) -> Result<(), TransportClosed> {
        (**self).write_frame(frame)
    }
}

/// An in-memory writer: frames queue up for a scheduler that moves them
/// itself (the model checker, hand-driven tests).
impl FrameWriter for Vec<Vec<u8>> {
    fn write_frame(&mut self, frame: Vec<u8>) -> Result<(), TransportClosed> {
        self.push(frame);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eof_maps_to_clean_other_kinds_carry_through() {
        let eof = io::Error::new(io::ErrorKind::UnexpectedEof, "eof");
        assert_eq!(TransportClosed::from(eof), TransportClosed::Clean);
        let reset = io::Error::new(io::ErrorKind::ConnectionReset, "rst");
        assert_eq!(
            TransportClosed::from(reset),
            TransportClosed::Error(io::ErrorKind::ConnectionReset)
        );
        assert!(TransportClosed::Clean.is_clean());
        assert_eq!(
            TransportClosed::Error(io::ErrorKind::ConnectionReset).error_kind(),
            Some(io::ErrorKind::ConnectionReset)
        );
    }
}

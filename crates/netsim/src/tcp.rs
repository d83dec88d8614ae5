//! A real TCP transport carrying the service's frames.
//!
//! The paper's prototype ran clients and servers "as UNIX processes that
//! use a reliable transport protocol (TCP/IP) for interprocess
//! communication", the server listening "at a well-known port". This
//! module provides exactly that for the live deployment: a framed,
//! length-prefixed message stream over `std::net` sockets, with the same
//! whole-frame semantics as [`pipe`](crate::pipe) — so the protocol layer
//! cannot tell the difference.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Maximum frame body accepted from a socket (matches the codec's bound).
const MAX_FRAME: u32 = 64 << 20;

/// How many bytes one socket read asks for.
const READ_CHUNK: usize = 16 * 1024;

/// A framed TCP connection: whole frames in, whole frames out.
///
/// # Example
///
/// ```no_run
/// use shadow_netsim::tcp::{TcpFramed, TcpServer};
///
/// # fn main() -> std::io::Result<()> {
/// let server = TcpServer::bind("127.0.0.1:0")?;
/// let addr = server.local_addr()?;
/// let mut client = TcpFramed::connect(addr)?;
/// client.send(b"hello frame")?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TcpFramed {
    stream: TcpStream,
    read_buf: FrameBuf,
}

impl TcpFramed {
    /// Connects to a listening shadow server.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Wraps an accepted stream.
    ///
    /// # Errors
    ///
    /// Propagates socket-option errors.
    pub fn from_stream(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        // Some platforms hand out accepted sockets in the listener's
        // non-blocking mode; every send here expects to block.
        stream.set_nonblocking(false)?;
        Ok(TcpFramed {
            stream,
            read_buf: FrameBuf::default(),
        })
    }

    /// The peer's address.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.stream.peer_addr()
    }

    /// Sends one frame body (the length prefix is added here).
    ///
    /// # Errors
    ///
    /// Propagates socket errors; the connection should then be dropped.
    pub fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        write_frame(&mut self.stream, frame)
    }

    /// Receives one frame, blocking until it arrives or `timeout` elapses
    /// (`Ok(None)` on timeout). Each socket read waits only for what is
    /// left of `timeout`; a zero timeout never blocks.
    ///
    /// # Errors
    ///
    /// An error of kind [`ErrorKind::UnexpectedEof`] means the peer closed;
    /// other errors are socket failures.
    pub fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        let deadline = Instant::now().checked_add(timeout);
        loop {
            if let Some(frame) = self.read_buf.take()? {
                return Ok(Some(frame));
            }
            // `None` is a deadline past the end of time: wait forever.
            let wait = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            let filled = if wait == Some(Duration::ZERO) {
                // std rejects a zero read timeout, so "do not wait" is one
                // non-blocking read. The mode belongs to the socket, not
                // the read, so it goes straight back to blocking: a send
                // must never stop part-way through a frame on `WouldBlock`.
                self.stream.set_nonblocking(true)?;
                let filled = self.read_buf.fill(&mut self.stream);
                self.stream.set_nonblocking(false)?;
                filled?
            } else {
                self.stream.set_read_timeout(wait)?;
                self.read_buf.fill(&mut self.stream)?
            };
            if !filled {
                return Ok(None);
            }
        }
    }

    /// Splits the connection into its sending and receiving halves, for
    /// a server that reads the session on one thread and writes it from
    /// another. The reader blocks without a timeout; dropping the
    /// writer shuts the socket down, which the peer sees as a hang-up
    /// and which wakes the reader with an orderly close.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from cloning the handle.
    pub fn split(self) -> io::Result<(TcpWriter, TcpReader)> {
        let writer = self.stream.try_clone()?;
        self.stream.set_read_timeout(None)?;
        Ok((
            TcpWriter { stream: writer },
            TcpReader {
                stream: self.stream,
                read_buf: self.read_buf,
            },
        ))
    }
}

impl shadow_runtime::FrameTransport for TcpFramed {
    fn send_frame(&mut self, frame: Vec<u8>) -> Result<(), shadow_runtime::TransportClosed> {
        // `From<io::Error>` maps UnexpectedEof (orderly peer close) to
        // Clean and carries every other kind through as an error close.
        TcpFramed::send(self, &frame).map_err(shadow_runtime::TransportClosed::from)
    }

    fn recv_frame(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<Vec<u8>>, shadow_runtime::TransportClosed> {
        TcpFramed::recv_timeout(self, timeout).map_err(shadow_runtime::TransportClosed::from)
    }
}

/// The sending half of a split [`TcpFramed`]. Dropping it shuts the
/// socket down in both directions.
#[derive(Debug)]
pub struct TcpWriter {
    stream: TcpStream,
}

impl Drop for TcpWriter {
    fn drop(&mut self) {
        // The reader half holds its own handle to the socket, so closing
        // this one alone would neither tell the peer nor wake the reader.
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

impl shadow_runtime::FrameWriter for TcpWriter {
    fn write_frame(&mut self, frame: Vec<u8>) -> Result<(), shadow_runtime::TransportClosed> {
        write_frame(&mut self.stream, &frame).map_err(shadow_runtime::TransportClosed::from)
    }
}

/// The receiving half of a split [`TcpFramed`]: blocking reads, no
/// timeout.
#[derive(Debug)]
pub struct TcpReader {
    stream: TcpStream,
    read_buf: FrameBuf,
}

impl shadow_runtime::FrameReader for TcpReader {
    fn read_frame(&mut self) -> Result<Vec<u8>, shadow_runtime::TransportClosed> {
        loop {
            if let Some(frame) = self.read_buf.take()? {
                return Ok(frame);
            }
            self.read_buf.fill(&mut self.stream)?;
        }
    }
}

/// Writes one frame body behind its length prefix.
fn write_frame(stream: &mut TcpStream, frame: &[u8]) -> io::Result<()> {
    // The shadow codec's `Frame::encode` already carries its own length
    // prefix; this transport adds an outer one so arbitrary frame
    // payloads work and framing survives partial reads.
    let len = u32::try_from(frame.len())
        .ok()
        .filter(|&len| len <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(ErrorKind::InvalidInput, "frame too large"))?;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(frame)?;
    stream.flush()
}

/// Bytes read off a socket, cut into whole outer frames.
#[derive(Debug, Default)]
struct FrameBuf(Vec<u8>);

impl FrameBuf {
    /// Removes and returns the first complete frame, if one is buffered.
    fn take(&mut self) -> io::Result<Option<Vec<u8>>> {
        let Some(prefix) = self.0.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*prefix);
        if len > MAX_FRAME {
            return Err(io::Error::new(ErrorKind::InvalidData, "oversized frame"));
        }
        let total = 4 + len as usize;
        if self.0.len() < total {
            return Ok(None);
        }
        let frame = self.0[4..total].to_vec();
        self.0.drain(..total);
        Ok(Some(frame))
    }

    /// One read from `stream`, waiting as the socket is set to. Returns
    /// `false` when the read timed out or would block. Call it only when
    /// [`take`](Self::take) found no whole frame, so an EOF here is
    /// either an orderly close (nothing buffered) or a cut stream.
    fn fill(&mut self, stream: &mut TcpStream) -> io::Result<bool> {
        let start = self.0.len();
        self.0.resize(start + READ_CHUNK, 0);
        let read = stream.read(&mut self.0[start..]);
        self.0.truncate(start + read.as_ref().map_or(0, |&n| n));
        match read {
            Ok(0) if start == 0 => Err(io::Error::new(ErrorKind::UnexpectedEof, "peer closed")),
            // Without this, the partial frame would sit in the buffer
            // returning `Ok(None)` forever.
            Ok(0) => Err(io::Error::new(
                ErrorKind::ConnectionAborted,
                "peer closed mid-frame",
            )),
            Ok(_) => Ok(true),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(true),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }
}

/// A listening socket accepting framed connections.
#[derive(Debug)]
pub struct TcpServer {
    listener: TcpListener,
}

impl TcpServer {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(TcpServer { listener })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts a pending connection without blocking (`Ok(None)` when no
    /// client is waiting).
    ///
    /// # Errors
    ///
    /// Propagates accept failures other than "would block".
    pub fn try_accept(&self) -> io::Result<Option<TcpFramed>> {
        match self.listener.accept() {
            Ok((stream, _)) => Ok(Some(TcpFramed::from_stream(stream)?)),
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (TcpFramed, TcpFramed) {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let client = TcpFramed::connect(addr).unwrap();
        let accepted = loop {
            if let Some(c) = server.try_accept().unwrap() {
                break c;
            }
        };
        (client, accepted)
    }

    #[test]
    fn frames_round_trip() {
        let (mut a, mut b) = pair();
        a.send(b"first").unwrap();
        a.send(b"second frame").unwrap();
        let f1 = b.recv_timeout(Duration::from_secs(2)).unwrap().unwrap();
        let f2 = b.recv_timeout(Duration::from_secs(2)).unwrap().unwrap();
        assert_eq!(f1, b"first");
        assert_eq!(f2, b"second frame");
    }

    #[test]
    fn empty_and_large_frames() {
        let (mut a, mut b) = pair();
        a.send(b"").unwrap();
        let big = vec![0xAB; 1 << 20];
        a.send(&big).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_secs(2)).unwrap().unwrap(),
            b""
        );
        assert_eq!(
            b.recv_timeout(Duration::from_secs(5)).unwrap().unwrap(),
            big
        );
    }

    #[test]
    fn bidirectional() {
        let (mut a, mut b) = pair();
        a.send(b"ping").unwrap();
        let got = b.recv_timeout(Duration::from_secs(2)).unwrap().unwrap();
        b.send(&got.iter().rev().copied().collect::<Vec<_>>()).unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_secs(2)).unwrap().unwrap(),
            b"gnip"
        );
    }

    #[test]
    fn peer_close_is_reported() {
        let (a, mut b) = pair();
        drop(a);
        let err = loop {
            match b.recv_timeout(Duration::from_secs(2)) {
                Ok(Some(_)) => continue,
                Ok(None) => continue,
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn try_recv_nonblocking_when_empty() {
        let (_a, mut b) = pair();
        assert!(b.recv_timeout(Duration::ZERO).unwrap().is_none());
    }

    #[test]
    fn zero_timeout_receive_on_an_idle_socket_does_not_wait() {
        let (_a, mut b) = pair();
        let started = Instant::now();
        assert!(b.recv_timeout(Duration::ZERO).unwrap().is_none());
        assert!(
            started.elapsed() < Duration::from_millis(5),
            "took {:?}",
            started.elapsed()
        );
        // The socket still blocks for a real timeout afterwards.
        let started = Instant::now();
        assert!(b.recv_timeout(Duration::from_millis(20)).unwrap().is_none());
        assert!(started.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn a_large_send_after_a_zero_timeout_receive_is_whole() {
        let (mut a, mut b) = pair();
        assert!(a.recv_timeout(Duration::ZERO).unwrap().is_none());
        // Bigger than the socket buffers, so the send has to wait for
        // the peer to drain them; a non-blocking socket would cut it.
        let big: Vec<u8> = (0..8 << 20).map(|i: u32| (i % 251) as u8).collect();
        let expected = big.clone();
        let peer = std::thread::spawn(move || b.recv_timeout(Duration::from_secs(10)));
        a.send(&big).unwrap();
        assert_eq!(peer.join().unwrap().unwrap().unwrap(), expected);
    }

    #[test]
    fn split_halves_carry_frames_and_the_writer_drop_hangs_up() {
        use shadow_runtime::{FrameReader, FrameWriter, TransportClosed};
        let (mut a, b) = pair();
        a.send(b"before split").unwrap();
        let (mut writer, mut reader) = b.split().unwrap();
        assert_eq!(reader.read_frame().unwrap(), b"before split");
        writer.write_frame(b"reply".to_vec()).unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_secs(2)).unwrap().unwrap(),
            b"reply"
        );
        drop(writer);
        let err = a.recv_timeout(Duration::from_secs(2)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        // The drop also woke the reader half with an orderly close.
        assert_eq!(reader.read_frame(), Err(TransportClosed::Clean));
    }

    #[test]
    fn accept_nonblocking_when_no_client() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        assert!(server.try_accept().unwrap().is_none());
    }
}

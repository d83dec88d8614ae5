//! Fault injection: a chaos wrapper for frame transports and a TCP
//! chaos proxy.
//!
//! Redialing and session resumption only earn their keep if
//! links actually fail, so this module manufactures failure on demand —
//! deterministically, from a seed, so every chaos run replays exactly.
//!
//! Two layers:
//!
//! * [`FaultTransport`] wraps any [`FrameTransport`] and injects
//!   frame-level faults on the send path — drops, duplicates, delays
//!   (held across one send, which also reorders), and a scheduled hard
//!   reset — from a seeded [`FaultPlan`]. Used by integration tests and
//!   the chaos bench, where the inner transport is an in-process pipe.
//! * [`ChaosProxy`] sits between a real TCP client and server, pumping
//!   bytes both ways until told to [`cut`](ChaosProxy::cut) every live
//!   connection (the peer observes a close, typically mid-frame) or to
//!   [`partition`](ChaosProxy::partition) (new dials are refused too,
//!   until healed). This is how tests kill a *real* socket under the
//!   client without cooperation from either endpoint.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use shadow_runtime::{FrameTransport, FrameWriter, TransportClosed};

/// The seeded fault schedule for one [`FaultTransport`].
///
/// Rates are per-mille (0–1000) so plans serialize as plain integers.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Seed for the deterministic fault dice.
    pub seed: u64,
    /// ‰ of sends silently dropped.
    pub drop_per_mille: u16,
    /// ‰ of sends transmitted twice.
    pub dup_per_mille: u16,
    /// ‰ of sends held back and transmitted after the following send
    /// (a delay that is also a reorder).
    pub delay_per_mille: u16,
    /// Hard-fail the transport (connection reset) after this many
    /// sends, simulating a mid-session link kill.
    pub reset_after_sends: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing (the identity wrapper).
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_per_mille: 0,
            dup_per_mille: 0,
            delay_per_mille: 0,
            reset_after_sends: None,
        }
    }
}

/// What a [`FaultTransport`] has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames the caller asked to send.
    pub sent: u64,
    /// Frames actually handed to the inner transport.
    pub delivered: u64,
    /// Frames silently dropped.
    pub dropped: u64,
    /// Extra copies transmitted.
    pub duplicated: u64,
    /// Frames held across a send (delayed + reordered).
    pub delayed: u64,
    /// True once the scheduled reset has tripped.
    pub reset: bool,
}

/// splitmix64: tiny, seedable, and good enough for fault dice.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A [`FrameTransport`] that injects seeded faults into its send path.
///
/// Receives pass straight through; wrap both endpoints' transports to
/// fault both directions. After the scheduled reset trips, every
/// operation fails with a connection-reset error close, like a socket
/// whose peer vanished.
#[derive(Debug)]
pub struct FaultTransport<T> {
    inner: T,
    plan: FaultPlan,
    rng: u64,
    held: VecDeque<Vec<u8>>,
    stats: FaultStats,
}

impl<T: FrameTransport> FaultTransport<T> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        FaultTransport {
            inner,
            plan,
            rng: plan.seed ^ 0x5bd1_e995,
            held: VecDeque::new(),
            stats: FaultStats::default(),
        }
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// The wrapped transport.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Unwraps, discarding any held (delayed) frames.
    pub fn into_inner(self) -> T {
        self.inner
    }

    fn reset_error() -> TransportClosed {
        TransportClosed::Error(ErrorKind::ConnectionReset)
    }

    fn roll(&mut self, per_mille: u16) -> bool {
        per_mille > 0 && splitmix64(&mut self.rng) % 1000 < u64::from(per_mille)
    }
}

impl<T: FrameTransport> FrameWriter for FaultTransport<T> {
    fn write_frame(&mut self, frame: Vec<u8>) -> Result<(), TransportClosed> {
        if self.stats.reset {
            return Err(Self::reset_error());
        }
        self.stats.sent += 1;
        if self
            .plan
            .reset_after_sends
            .is_some_and(|n| self.stats.sent > n)
        {
            self.stats.reset = true;
            return Err(Self::reset_error());
        }
        if self.roll(self.plan.drop_per_mille) {
            self.stats.dropped += 1;
            return Ok(());
        }
        if self.roll(self.plan.delay_per_mille) {
            self.stats.delayed += 1;
            self.held.push_back(frame);
            return Ok(());
        }
        let dup = self.roll(self.plan.dup_per_mille);
        if dup {
            self.stats.duplicated += 1;
            self.stats.delivered += 1;
            self.inner.write_frame(frame.clone())?;
        }
        self.stats.delivered += 1;
        self.inner.write_frame(frame)?;
        // Release anything held: it now travels *after* the newer frame.
        while let Some(held) = self.held.pop_front() {
            self.stats.delivered += 1;
            self.inner.write_frame(held)?;
        }
        Ok(())
    }
}

impl<T: FrameTransport> FrameTransport for FaultTransport<T> {
    fn recv_frame(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, TransportClosed> {
        if self.stats.reset {
            return Err(Self::reset_error());
        }
        self.inner.recv_frame(timeout)
    }
}

/// Shared control block between a [`ChaosProxy`] handle and its threads.
#[derive(Debug)]
struct ProxyShared {
    stop: AtomicBool,
    /// Bumped by [`ChaosProxy::cut`]; pump threads whose connection
    /// generation is older drop their sockets.
    generation: AtomicU64,
    /// While true, new connections are refused (network partition).
    partitioned: AtomicBool,
    served: AtomicU64,
    active: AtomicU64,
}

/// A TCP chaos proxy: forwards bytes between clients and one upstream
/// server, with a kill switch.
///
/// Every accepted connection gets its own upstream dial and a pair of
/// pump threads. [`cut`](ChaosProxy::cut) severs all live connections
/// at whatever byte boundary they happen to be on — the framed
/// transports on either side observe a clean close or a mid-frame
/// abort, exactly as with a real mid-transfer link loss.
#[derive(Debug)]
pub struct ChaosProxy {
    addr: SocketAddr,
    shared: Arc<ProxyShared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts a proxy on an ephemeral local port, forwarding to
    /// `upstream`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(upstream: impl ToSocketAddrs) -> io::Result<Self> {
        let upstream = upstream
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(ErrorKind::InvalidInput, "no upstream addr"))?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            stop: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            partitioned: AtomicBool::new(false),
            served: AtomicU64::new(0),
            active: AtomicU64::new(0),
        });
        let control = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || {
            while !control.stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((downstream, _)) => {
                        if control.partitioned.load(Ordering::SeqCst) {
                            drop(downstream);
                            continue;
                        }
                        match TcpStream::connect(upstream) {
                            Ok(up) => {
                                control.served.fetch_add(1, Ordering::SeqCst);
                                spawn_pumps(downstream, up, Arc::clone(&control));
                            }
                            Err(_) => drop(downstream),
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(ChaosProxy {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients dial instead of the real server.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Severs every live connection. New dials still succeed (and the
    /// client's own redial is expected to make one).
    pub fn cut(&self) {
        self.shared.generation.fetch_add(1, Ordering::SeqCst);
    }

    /// Starts (`true`) or heals (`false`) a partition: while
    /// partitioned, live connections are cut and new dials are refused.
    pub fn partition(&self, on: bool) {
        self.shared.partitioned.store(on, Ordering::SeqCst);
        if on {
            self.cut();
        }
    }

    /// Connections accepted and proxied so far.
    pub fn connections_served(&self) -> u64 {
        self.shared.served.load(Ordering::SeqCst)
    }

    /// Connections currently being pumped.
    pub fn active_connections(&self) -> u64 {
        self.shared.active.load(Ordering::SeqCst)
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.cut();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// One pump direction: copy bytes `from` → `to` until EOF, error, stop,
/// or a generation bump (a cut).
fn pump(mut from: TcpStream, mut to: TcpStream, shared: &ProxyShared, born_gen: u64) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(5)));
    let mut buf = [0u8; 16 * 1024];
    loop {
        if shared.stop.load(Ordering::SeqCst)
            || shared.generation.load(Ordering::SeqCst) != born_gen
        {
            // Dropping both streams severs the link abruptly.
            return;
        }
        match from.read(&mut buf) {
            Ok(0) => {
                // Propagate the orderly half-close: the paired pump
                // still holds clones of both sockets, so merely
                // dropping ours would never deliver the FIN — the
                // upstream peer would wait on a hung-up client forever.
                let _ = to.shutdown(std::net::Shutdown::Write);
                return;
            }
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

fn spawn_pumps(downstream: TcpStream, upstream: TcpStream, shared: Arc<ProxyShared>) {
    let born_gen = shared.generation.load(Ordering::SeqCst);
    let (d2, u2) = match (downstream.try_clone(), upstream.try_clone()) {
        (Ok(d), Ok(u)) => (d, u),
        _ => return,
    };
    shared.active.fetch_add(1, Ordering::SeqCst);
    let a = Arc::clone(&shared);
    std::thread::spawn(move || {
        pump(downstream, u2, &a, born_gen);
    });
    std::thread::spawn(move || {
        pump(upstream, d2, &shared, born_gen);
        shared.active.fetch_sub(1, Ordering::SeqCst);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipe;
    use crate::tcp::{TcpFramed, TcpServer};

    fn faulty_pair(plan: FaultPlan) -> (FaultTransport<pipe::PipeEnd>, pipe::PipeEnd) {
        let (a, b) = pipe::duplex();
        (FaultTransport::new(a, plan), b)
    }

    fn drain(end: &pipe::PipeEnd) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Ok(Some(f)) = end.try_recv() {
            out.push(f);
        }
        out
    }

    #[test]
    fn no_faults_is_the_identity() {
        let (mut t, peer) = faulty_pair(FaultPlan::none(1));
        for i in 0..10u8 {
            t.write_frame(vec![i]).unwrap();
        }
        assert_eq!(drain(&peer).len(), 10);
        assert_eq!(
            t.stats().dropped + t.stats().duplicated + t.stats().delayed,
            0
        );
    }

    #[test]
    fn drops_are_deterministic_per_seed() {
        let run = |seed| {
            let (mut t, peer) = faulty_pair(FaultPlan {
                drop_per_mille: 300,
                ..FaultPlan::none(seed)
            });
            for i in 0..100u8 {
                t.write_frame(vec![i]).unwrap();
            }
            (t.stats().dropped, drain(&peer))
        };
        let (d1, f1) = run(42);
        let (d2, f2) = run(42);
        assert_eq!(d1, d2);
        assert_eq!(f1, f2);
        assert!(d1 > 0, "a 30% plan over 100 sends drops something");
        let (d3, _) = run(43);
        assert_ne!(d1, d3, "different seed, different schedule");
    }

    #[test]
    fn duplicates_arrive_twice() {
        let (mut t, peer) = faulty_pair(FaultPlan {
            dup_per_mille: 1000,
            ..FaultPlan::none(9)
        });
        t.write_frame(vec![7]).unwrap();
        assert_eq!(drain(&peer), vec![vec![7], vec![7]]);
        assert_eq!(t.stats().duplicated, 1);
    }

    #[test]
    fn delayed_frames_travel_after_the_next_send() {
        // Delay every frame: each send parks its frame; the next send
        // goes out first and flushes the parked one behind it.
        let (mut t, peer) = faulty_pair(FaultPlan {
            delay_per_mille: 1000,
            ..FaultPlan::none(5)
        });
        t.write_frame(vec![1]).unwrap();
        assert!(drain(&peer).is_empty(), "frame 1 is parked");
        // Forcing the next roll low would park frame 2 as well, so use a
        // fresh plan where only the first roll delays.
        let (mut t2, peer2) = faulty_pair(FaultPlan::none(5));
        t2.held.push_back(vec![1]);
        t2.write_frame(vec![2]).unwrap();
        assert_eq!(drain(&peer2), vec![vec![2], vec![1]]);
        drop(t);
        drop(peer);
    }

    #[test]
    fn scheduled_reset_fails_everything_afterwards() {
        let (mut t, peer) = faulty_pair(FaultPlan {
            reset_after_sends: Some(2),
            ..FaultPlan::none(3)
        });
        t.write_frame(vec![1]).unwrap();
        t.write_frame(vec![2]).unwrap();
        let err = t.write_frame(vec![3]).unwrap_err();
        assert_eq!(err.error_kind(), Some(ErrorKind::ConnectionReset));
        assert!(matches!(
            t.recv_frame(Duration::ZERO),
            Err(TransportClosed::Error(ErrorKind::ConnectionReset))
        ));
        assert!(t.stats().reset);
        assert_eq!(drain(&peer).len(), 2);
    }

    #[test]
    fn proxy_forwards_frames_both_ways() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let proxy = ChaosProxy::start(server.local_addr().unwrap()).unwrap();
        let mut client = TcpFramed::connect(proxy.addr()).unwrap();
        let mut accepted = loop {
            if let Some(c) = server.try_accept().unwrap() {
                break c;
            }
        };
        client.send(b"through the proxy").unwrap();
        let got = accepted
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .unwrap();
        assert_eq!(got, b"through the proxy");
        accepted.send(b"and back").unwrap();
        let back = client
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .unwrap();
        assert_eq!(back, b"and back");
        assert_eq!(proxy.connections_served(), 1);
    }

    #[test]
    fn cut_severs_live_connections_but_allows_redial() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let proxy = ChaosProxy::start(server.local_addr().unwrap()).unwrap();
        let mut client = TcpFramed::connect(proxy.addr()).unwrap();
        let mut accepted = loop {
            if let Some(c) = server.try_accept().unwrap() {
                break c;
            }
        };
        client.send(b"alive").unwrap();
        assert!(accepted
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .is_some());

        proxy.cut();
        // The client eventually observes the closure.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let err = loop {
            match client.recv_timeout(Duration::from_millis(50)) {
                Ok(_) => assert!(
                    std::time::Instant::now() < deadline,
                    "cut was never observed"
                ),
                Err(e) => break e,
            }
        };
        assert!(
            matches!(
                err.kind(),
                ErrorKind::UnexpectedEof
                    | ErrorKind::ConnectionAborted
                    | ErrorKind::ConnectionReset
                    | ErrorKind::BrokenPipe
            ),
            "unexpected kind {:?}",
            err.kind()
        );

        // A redial through the proxy succeeds.
        let mut client2 = TcpFramed::connect(proxy.addr()).unwrap();
        let mut accepted2 = loop {
            if let Some(c) = server.try_accept().unwrap() {
                break c;
            }
        };
        client2.send(b"back").unwrap();
        assert_eq!(
            accepted2
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .unwrap(),
            b"back"
        );
        assert_eq!(proxy.connections_served(), 2);
    }

    #[test]
    fn orderly_hangup_propagates_through_the_proxy() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let proxy = ChaosProxy::start(server.local_addr().unwrap()).unwrap();
        let mut client = TcpFramed::connect(proxy.addr()).unwrap();
        let mut accepted = loop {
            if let Some(c) = server.try_accept().unwrap() {
                break c;
            }
        };
        client.send(b"last words").unwrap();
        assert!(accepted
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .is_some());

        // The client hangs up; the server's reader must observe the
        // close even though the proxy's pump threads are still alive.
        drop(client);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let err = loop {
            match accepted.recv_timeout(Duration::from_millis(50)) {
                Ok(_) => assert!(
                    std::time::Instant::now() < deadline,
                    "hangup was never propagated upstream"
                ),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "an orderly close");
    }

    #[test]
    fn partition_refuses_new_dials_until_healed() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let proxy = ChaosProxy::start(server.local_addr().unwrap()).unwrap();
        proxy.partition(true);
        // A dial may connect at the TCP level (the listener accepts)
        // but the proxy drops it immediately: sending then receiving
        // fails rather than reaching the server.
        if let Ok(mut c) = TcpFramed::connect(proxy.addr()) {
            let _ = c.send(b"into the void");
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            loop {
                match c.recv_timeout(Duration::from_millis(50)) {
                    Ok(Some(_)) => panic!("partitioned proxy forwarded traffic"),
                    Ok(None) if std::time::Instant::now() < deadline => continue,
                    _ => break,
                }
            }
        }
        assert!(
            server.try_accept().unwrap().is_none(),
            "nothing reached upstream"
        );

        proxy.partition(false);
        let mut c = TcpFramed::connect(proxy.addr()).unwrap();
        c.send(b"healed").unwrap();
        let mut accepted = loop {
            if let Some(a) = server.try_accept().unwrap() {
                break a;
            }
        };
        assert_eq!(
            accepted
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .unwrap(),
            b"healed"
        );
    }
}

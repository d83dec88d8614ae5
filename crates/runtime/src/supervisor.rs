//! Reconnect supervision: capped-exponential redial with deterministic
//! jitter, heartbeat scheduling, and liveness timeouts.
//!
//! A [`Supervisor`] sits between a client runtime and its transport. It
//! owns the *policy* of staying connected — when to redial after a
//! failure, how long to back off, when to send a heartbeat ping, and
//! when an unanswered ping means the link is dead — while the caller
//! keeps the *mechanism* (actually sending frames, feeding the
//! [`ClientDriver`](crate::ClientDriver)). Time comes in through
//! `now_ms` arguments, so the whole state machine runs identically
//! under a [`VirtualClock`](crate::VirtualClock) in tests and under
//! wall time in deployments.
//!
//! The dial itself is abstracted behind [`Connector`]: the live system
//! connects in-process pipes, the TCP client dials a socket, and tests
//! script arbitrary failure sequences.

use shadow_obs::{Section, Snapshot};

use crate::transport::FrameTransport;

/// A way to establish (and re-establish) a transport to the server.
pub trait Connector {
    /// The transport produced by a successful dial.
    type Transport: FrameTransport;
    /// Why a dial attempt failed (transient; the supervisor retries).
    type Error;

    /// Attempts one dial, without blocking beyond ordinary connection
    /// establishment.
    fn connect(&mut self) -> Result<Self::Transport, Self::Error>;
}

impl<T: FrameTransport, E, F: FnMut() -> Result<T, E>> Connector for F {
    type Transport = T;
    type Error = E;

    fn connect(&mut self) -> Result<T, E> {
        self()
    }
}

/// Tuning knobs for the supervision policy.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// First-retry backoff, milliseconds.
    pub base_backoff_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub max_backoff_ms: u64,
    /// Send a heartbeat ping after this much connected quiet time.
    pub heartbeat_interval_ms: u64,
    /// An outstanding ping unanswered for this long declares the link
    /// dead (half-open TCP never reports an error by itself).
    pub liveness_timeout_ms: u64,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            base_backoff_ms: 100,
            max_backoff_ms: 30_000,
            heartbeat_interval_ms: 5_000,
            liveness_timeout_ms: 15_000,
            seed: 0,
        }
    }
}

/// Counters the supervisor accumulates; exported as the `supervisor`
/// report section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Dial attempts made (initial connect included).
    pub dials: u64,
    /// Dial attempts that failed.
    pub dial_failures: u64,
    /// Successful dials after the first — each one a recovered link.
    pub reconnects: u64,
    /// Heartbeat pings handed to the caller to send.
    pub heartbeats_sent: u64,
    /// Pings that went unanswered past the liveness timeout.
    pub heartbeats_missed: u64,
}

impl Snapshot for SupervisorStats {
    fn section_name(&self) -> &'static str {
        "supervisor"
    }

    fn snapshot(&self) -> Section {
        Section::new("supervisor")
            .with("dials", self.dials)
            .with("dial_failures", self.dial_failures)
            .with("reconnects", self.reconnects)
            .with("heartbeats_sent", self.heartbeats_sent)
            .with("heartbeats_missed", self.heartbeats_missed)
    }
}

/// What one [`Supervisor::poll`] asked of the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorEvent {
    /// A fresh transport is up. On the first dial the caller sends the
    /// plain Hello; on every later one it drives the client's resume
    /// path (`reconnect`) so the session resumes instead of restarting.
    Connected {
        /// Dial attempts this link took (1 = first try succeeded).
        attempts: u32,
        /// True for every successful dial after the first.
        resumed: bool,
    },
    /// A dial failed; the next attempt happens at `retry_at_ms`.
    DialFailed {
        /// When the supervisor will redial.
        retry_at_ms: u64,
    },
    /// Connected quiet time elapsed: send `Ping { nonce }` now.
    HeartbeatDue {
        /// Nonce to echo; hand it to `ClientNode::ping`.
        nonce: u64,
    },
    /// An outstanding ping went unanswered past the liveness timeout.
    /// The transport has been dropped and redial is scheduled; the
    /// caller must mark the link down (`ClientDriver::link_down`).
    LinkLost,
}

enum LinkState<T> {
    /// A transport is up. `idle_since_ms` restarts on any inbound
    /// activity the caller reports; `outstanding` is the unanswered
    /// heartbeat, if any, with its send time. The transport is `None`
    /// once the caller has taken it ([`Supervisor::take_transport`]) —
    /// the link is still considered up for heartbeat policy.
    Connected {
        transport: Option<T>,
        idle_since_ms: u64,
        outstanding: Option<(u64, u64)>,
    },
    /// Waiting to redial.
    Backoff { until_ms: u64 },
}

/// The reconnect supervisor: owns the transport, the redial schedule,
/// and heartbeat liveness. See the module docs for the division of
/// labour with the caller.
pub struct Supervisor<N: Connector> {
    connector: N,
    config: SupervisorConfig,
    state: LinkState<N::Transport>,
    stats: SupervisorStats,
    ever_connected: bool,
    /// Consecutive failures on the current outage (resets on success).
    attempt_in_outage: u32,
    next_nonce: u64,
}

impl<N: Connector> std::fmt::Debug for Supervisor<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("connected", &self.is_connected())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// FNV-1a over the seed and attempt number: a deterministic, seedable
/// jitter source, so simulated runs replay exactly while real fleets
/// still spread their redials.
fn jitter(seed: u64, attempt: u32, range: u64) -> u64 {
    if range == 0 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in seed.to_le_bytes().iter().chain(&attempt.to_le_bytes()) {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h % range
}

impl<N: Connector> Supervisor<N> {
    /// Wraps a connector; the link starts down with an immediate dial
    /// pending (the first `poll` performs it).
    pub fn new(connector: N, config: SupervisorConfig) -> Self {
        Supervisor {
            connector,
            config,
            state: LinkState::Backoff { until_ms: 0 },
            stats: SupervisorStats::default(),
            ever_connected: false,
            attempt_in_outage: 0,
            next_nonce: 1,
        }
    }

    /// The accumulated counters.
    pub fn stats(&self) -> SupervisorStats {
        self.stats
    }

    /// True while a transport is up.
    pub fn is_connected(&self) -> bool {
        matches!(self.state, LinkState::Connected { .. })
    }

    /// The live transport, while connected (and not yet taken).
    pub fn transport_mut(&mut self) -> Option<&mut N::Transport> {
        match &mut self.state {
            LinkState::Connected { transport, .. } => transport.as_mut(),
            LinkState::Backoff { .. } => None,
        }
    }

    /// Takes ownership of the freshly dialed transport — the handoff
    /// point for callers that drive frames themselves (a
    /// `LiveClient`'s resume path installs it via `resume_over`). The
    /// supervisor keeps treating the link as up for heartbeat and
    /// liveness policy; report traffic with
    /// [`activity`](Self::activity) and failures with
    /// [`link_failed`](Self::link_failed) as before.
    pub fn take_transport(&mut self) -> Option<N::Transport> {
        match &mut self.state {
            LinkState::Connected { transport, .. } => transport.take(),
            LinkState::Backoff { .. } => None,
        }
    }

    /// The next time something is scheduled to happen: a redial, a
    /// heartbeat falling due, or an outstanding ping expiring. Callers
    /// sleep until this deadline between polls.
    pub fn next_deadline_ms(&self) -> u64 {
        match &self.state {
            LinkState::Backoff { until_ms, .. } => *until_ms,
            LinkState::Connected {
                idle_since_ms,
                outstanding,
                ..
            } => match outstanding {
                Some((_, sent_ms)) => sent_ms + self.config.liveness_timeout_ms,
                None => idle_since_ms + self.config.heartbeat_interval_ms,
            },
        }
    }

    /// The caller saw inbound traffic on the link: restart the quiet
    /// timer and clear any outstanding heartbeat (any frame proves
    /// liveness; the pong itself needs no special casing).
    pub fn activity(&mut self, now_ms: u64) {
        if let LinkState::Connected {
            idle_since_ms,
            outstanding,
            ..
        } = &mut self.state
        {
            *idle_since_ms = now_ms;
            *outstanding = None;
        }
    }

    /// The caller's transport operation failed: drop the link and
    /// schedule a redial. Returns the retry deadline.
    pub fn link_failed(&mut self, now_ms: u64) -> u64 {
        self.begin_backoff(now_ms)
    }

    /// Advances the policy clock: performs a due redial, emits a due
    /// heartbeat, or expires an unanswered one. At most one event per
    /// call; poll until `None` to quiesce a turn.
    pub fn poll(&mut self, now_ms: u64) -> Option<SupervisorEvent> {
        match &mut self.state {
            LinkState::Backoff { until_ms, .. } if now_ms >= *until_ms => {
                self.stats.dials += 1;
                self.attempt_in_outage += 1;
                match self.connector.connect() {
                    Ok(transport) => {
                        let attempts = self.attempt_in_outage;
                        let resumed = self.ever_connected;
                        if resumed {
                            self.stats.reconnects += 1;
                        }
                        self.ever_connected = true;
                        self.attempt_in_outage = 0;
                        self.state = LinkState::Connected {
                            transport: Some(transport),
                            idle_since_ms: now_ms,
                            outstanding: None,
                        };
                        Some(SupervisorEvent::Connected { attempts, resumed })
                    }
                    Err(_) => {
                        self.stats.dial_failures += 1;
                        let retry_at_ms = self.begin_backoff(now_ms);
                        Some(SupervisorEvent::DialFailed { retry_at_ms })
                    }
                }
            }
            LinkState::Backoff { .. } => None,
            LinkState::Connected {
                idle_since_ms,
                outstanding,
                ..
            } => {
                if let Some((_, sent_ms)) = outstanding {
                    if now_ms >= *sent_ms + self.config.liveness_timeout_ms {
                        self.stats.heartbeats_missed += 1;
                        self.begin_backoff(now_ms);
                        return Some(SupervisorEvent::LinkLost);
                    }
                    return None;
                }
                if now_ms >= *idle_since_ms + self.config.heartbeat_interval_ms {
                    let nonce = self.next_nonce;
                    self.next_nonce += 1;
                    self.stats.heartbeats_sent += 1;
                    *outstanding = Some((nonce, now_ms));
                    return Some(SupervisorEvent::HeartbeatDue { nonce });
                }
                None
            }
        }
    }

    /// Drops any live transport and schedules the next dial with
    /// capped exponential backoff plus deterministic jitter. Attempt
    /// `n` (0-based) waits `min(base·2ⁿ, max)` plus up to half that
    /// again of jitter.
    fn begin_backoff(&mut self, now_ms: u64) -> u64 {
        // `attempt_in_outage` counts dials already made this outage;
        // the first retry (and a fresh link failure) waits the base.
        let attempt = self.attempt_in_outage.saturating_sub(1);
        let exp = attempt.min(20);
        let base = self
            .config
            .base_backoff_ms
            .saturating_mul(1u64 << exp)
            .min(self.config.max_backoff_ms);
        let delay = base + jitter(self.config.seed, attempt, base / 2 + 1);
        let until_ms = now_ms + delay;
        self.state = LinkState::Backoff { until_ms };
        until_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TransportClosed;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A transport that never carries anything; dial-policy tests only
    /// exercise connection management.
    struct NullTransport;

    impl FrameTransport for NullTransport {
        fn send_frame(&mut self, _frame: Vec<u8>) -> Result<(), TransportClosed> {
            Ok(())
        }

        fn recv_frame(
            &mut self,
            _timeout: std::time::Duration,
        ) -> Result<Option<Vec<u8>>, TransportClosed> {
            Ok(None)
        }
    }

    /// Fails the first `failures` dials, then succeeds forever.
    fn flaky_connector(
        failures: usize,
    ) -> (
        Rc<RefCell<usize>>,
        impl FnMut() -> Result<NullTransport, &'static str>,
    ) {
        let calls = Rc::new(RefCell::new(0usize));
        let seen = Rc::clone(&calls);
        let connect = move || {
            let mut n = seen.borrow_mut();
            *n += 1;
            if *n <= failures {
                Err("refused")
            } else {
                Ok(NullTransport)
            }
        };
        (calls, connect)
    }

    #[test]
    fn first_dial_happens_immediately_and_is_not_a_resume() {
        let (_, connect) = flaky_connector(0);
        let mut sup = Supervisor::new(connect, SupervisorConfig::default());
        assert_eq!(
            sup.poll(0),
            Some(SupervisorEvent::Connected {
                attempts: 1,
                resumed: false
            })
        );
        assert!(sup.is_connected());
        assert_eq!(sup.stats().dials, 1);
        assert_eq!(sup.stats().reconnects, 0);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let (_, connect) = flaky_connector(usize::MAX);
        let config = SupervisorConfig {
            base_backoff_ms: 100,
            max_backoff_ms: 1_000,
            seed: 7,
            ..SupervisorConfig::default()
        };
        let mut sup = Supervisor::new(connect, config);
        let mut now = 0;
        let mut delays = Vec::new();
        for _ in 0..8 {
            match sup.poll(now) {
                Some(SupervisorEvent::DialFailed { retry_at_ms }) => {
                    delays.push(retry_at_ms - now);
                    now = retry_at_ms;
                }
                other => panic!("expected DialFailed, got {other:?}"),
            }
        }
        // Each delay is within [backoff, 1.5·backoff) for the capped
        // exponential schedule 100, 200, 400, 800, 1000, 1000…
        let expect = [100, 200, 400, 800, 1000, 1000, 1000, 1000];
        for (d, e) in delays.iter().zip(expect) {
            assert!(*d >= e && *d < e + e / 2 + 1, "delay {d} for base {e}");
        }
        assert_eq!(sup.stats().dial_failures, 8);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let run = |seed| {
            let (_, connect) = flaky_connector(usize::MAX);
            let mut sup = Supervisor::new(
                connect,
                SupervisorConfig {
                    seed,
                    ..SupervisorConfig::default()
                },
            );
            let mut now = 0;
            let mut delays = Vec::new();
            for _ in 0..4 {
                if let Some(SupervisorEvent::DialFailed { retry_at_ms }) = sup.poll(now) {
                    delays.push(retry_at_ms - now);
                    now = retry_at_ms;
                }
            }
            delays
        };
        assert_eq!(run(3), run(3), "same seed, same schedule");
        assert_ne!(run(3), run(4), "different seeds spread out");
    }

    #[test]
    fn reconnect_after_failure_counts_and_flags_resume() {
        let (_, connect) = flaky_connector(0);
        let mut sup = Supervisor::new(connect, SupervisorConfig::default());
        sup.poll(0);
        let retry = sup.link_failed(10);
        assert!(!sup.is_connected());
        assert_eq!(sup.poll(retry.saturating_sub(1)), None, "not due yet");
        assert_eq!(
            sup.poll(retry),
            Some(SupervisorEvent::Connected {
                attempts: 1,
                resumed: true
            })
        );
        assert_eq!(sup.stats().reconnects, 1);
    }

    #[test]
    fn heartbeat_fires_after_quiet_interval_and_activity_defers_it() {
        let (_, connect) = flaky_connector(0);
        let config = SupervisorConfig {
            heartbeat_interval_ms: 1_000,
            ..SupervisorConfig::default()
        };
        let mut sup = Supervisor::new(connect, config);
        sup.poll(0);
        assert_eq!(sup.poll(999), None);
        sup.activity(500);
        assert_eq!(sup.poll(1_000), None, "activity reset the quiet timer");
        assert_eq!(
            sup.poll(1_500),
            Some(SupervisorEvent::HeartbeatDue { nonce: 1 })
        );
        assert_eq!(sup.stats().heartbeats_sent, 1);
    }

    #[test]
    fn unanswered_ping_declares_the_link_lost() {
        let (_, connect) = flaky_connector(0);
        let config = SupervisorConfig {
            heartbeat_interval_ms: 1_000,
            liveness_timeout_ms: 2_000,
            ..SupervisorConfig::default()
        };
        let mut sup = Supervisor::new(connect, config);
        sup.poll(0);
        assert_eq!(
            sup.poll(1_000),
            Some(SupervisorEvent::HeartbeatDue { nonce: 1 })
        );
        assert_eq!(sup.poll(2_999), None, "still within the liveness window");
        assert_eq!(sup.poll(3_000), Some(SupervisorEvent::LinkLost));
        assert!(!sup.is_connected());
        assert_eq!(sup.stats().heartbeats_missed, 1);
        // And it redials after backoff.
        let next = sup.next_deadline_ms();
        assert_eq!(
            sup.poll(next),
            Some(SupervisorEvent::Connected {
                attempts: 1,
                resumed: true
            })
        );
    }

    #[test]
    fn answered_ping_keeps_the_link_up() {
        let (_, connect) = flaky_connector(0);
        let config = SupervisorConfig {
            heartbeat_interval_ms: 1_000,
            liveness_timeout_ms: 2_000,
            ..SupervisorConfig::default()
        };
        let mut sup = Supervisor::new(connect, config);
        sup.poll(0);
        sup.poll(1_000); // heartbeat out
        sup.activity(1_050); // pong came back
        assert_eq!(sup.poll(2_000), None, "liveness window cancelled");
        // The next quiet interval produces the next heartbeat — never
        // an expiry.
        assert_eq!(
            sup.poll(3_000),
            Some(SupervisorEvent::HeartbeatDue { nonce: 2 })
        );
        assert!(sup.is_connected());
        assert_eq!(sup.stats().heartbeats_missed, 0);
    }

    #[test]
    fn next_deadline_tracks_state() {
        let (_, connect) = flaky_connector(usize::MAX);
        let config = SupervisorConfig {
            base_backoff_ms: 100,
            heartbeat_interval_ms: 1_000,
            seed: 1,
            ..SupervisorConfig::default()
        };
        let mut sup = Supervisor::new(connect, config);
        assert_eq!(sup.next_deadline_ms(), 0, "initial dial is due at once");
        let Some(SupervisorEvent::DialFailed { retry_at_ms }) = sup.poll(0) else {
            panic!("expected DialFailed");
        };
        assert_eq!(sup.next_deadline_ms(), retry_at_ms);
    }

    #[test]
    fn take_transport_hands_off_the_link_but_keeps_policy_running() {
        let (_, connect) = flaky_connector(0);
        let config = SupervisorConfig {
            heartbeat_interval_ms: 1_000,
            ..SupervisorConfig::default()
        };
        let mut sup = Supervisor::new(connect, config);
        sup.poll(0);
        assert!(sup.take_transport().is_some(), "fresh dial is takeable");
        assert!(sup.take_transport().is_none(), "taken exactly once");
        assert!(sup.transport_mut().is_none());
        // Policy survives the handoff: still connected, heartbeats fire.
        assert!(sup.is_connected());
        assert_eq!(
            sup.poll(1_000),
            Some(SupervisorEvent::HeartbeatDue { nonce: 1 })
        );
        // And a reported failure re-arms the dial loop with a new
        // transport to take.
        let retry = sup.link_failed(1_100);
        assert!(sup.take_transport().is_none(), "nothing while backing off");
        assert!(matches!(
            sup.poll(retry),
            Some(SupervisorEvent::Connected { resumed: true, .. })
        ));
        assert!(sup.take_transport().is_some());
    }

    #[test]
    fn stats_snapshot_exports_the_supervisor_section() {
        let stats = SupervisorStats {
            dials: 3,
            dial_failures: 1,
            reconnects: 2,
            heartbeats_sent: 5,
            heartbeats_missed: 1,
        };
        let s = stats.snapshot();
        assert_eq!(s.name, "supervisor");
        assert_eq!(s.get("reconnects").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(s.get("heartbeats_missed").and_then(|v| v.as_u64()), Some(1));
    }
}

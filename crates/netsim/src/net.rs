//! The event queue and topology.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::error::Error;
use std::fmt;

use crate::{LinkProfile, LinkStats, SimTime};

/// A node (host) in the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// Something delivered by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimEvent {
    /// A message arriving at `to`.
    Message {
        /// Recipient.
        to: NodeId,
        /// Sender.
        from: NodeId,
        /// The payload handed to `send`.
        payload: Vec<u8>,
    },
    /// A timer registered with [`SimNet::schedule_timer`] fired.
    Timer {
        /// Owner of the timer.
        node: NodeId,
        /// Caller-chosen discriminator.
        token: u64,
    },
}

/// A dequeued event and the simulated time at which it occurs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// When the event occurs (the clock has advanced to this).
    pub at: SimTime,
    /// The event.
    pub event: SimEvent,
}

/// Simulation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// `send` between nodes with no link.
    NoLink {
        /// Sender.
        from: NodeId,
        /// Recipient.
        to: NodeId,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::NoLink { from, to } => write!(f, "no link between {from} and {to}"),
        }
    }
}

impl Error for NetError {}

#[derive(Debug)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    event: SimEvent,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

#[derive(Debug)]
struct Link {
    profile: LinkProfile,
    /// Per direction: when the line falls idle.
    busy_until: [SimTime; 2],
    stats: [LinkStats; 2],
}

/// The discrete-event network: nodes, duplex links, message queue, timers.
///
/// Deterministic: identical call sequences produce identical delivery
/// orders (ties broken by submission sequence number).
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Default)]
pub struct SimNet {
    clock: SimTime,
    queue: BinaryHeap<Reverse<Scheduled>>,
    names: Vec<String>,
    links: HashMap<(NodeId, NodeId), usize>,
    link_store: Vec<Link>,
    seq: u64,
}

impl SimNet {
    /// Creates an empty network at time zero.
    pub fn new() -> Self {
        SimNet::default()
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Adds a named node.
    pub fn add_node(&mut self, name: &str) -> NodeId {
        self.names.push(name.to_string());
        NodeId(self.names.len() - 1)
    }

    /// A node's name.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.names[node.0]
    }

    /// Connects two nodes with a duplex link. Replaces any existing link
    /// between the pair.
    pub fn connect(&mut self, a: NodeId, b: NodeId, profile: LinkProfile) {
        self.link_store.push(Link {
            profile,
            busy_until: [SimTime::ZERO; 2],
            stats: [LinkStats::default(); 2],
        });
        let idx = self.link_store.len() - 1;
        self.links.insert(Self::link_key(a, b), idx);
    }

    fn link_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Direction index within a link: 0 = low→high node id.
    fn direction(from: NodeId, to: NodeId) -> usize {
        usize::from(from > to)
    }

    /// Sends `payload` from `from` to `to`, modelling FIFO serialization on
    /// the link direction plus propagation latency. Returns the arrival
    /// time.
    ///
    /// # Errors
    ///
    /// [`NetError::NoLink`] when the nodes are not connected.
    pub fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: Vec<u8>,
    ) -> Result<SimTime, NetError> {
        self.send_at(self.clock, from, to, payload)
    }

    /// Like [`send`](Self::send), but the message enters the link's queue
    /// at `depart` (which must not be in the simulator's past).
    ///
    /// # Errors
    ///
    /// [`NetError::NoLink`] when the nodes are not connected.
    ///
    /// # Panics
    ///
    /// Panics if `depart` is before the current simulated time.
    pub fn send_at(
        &mut self,
        depart: SimTime,
        from: NodeId,
        to: NodeId,
        payload: Vec<u8>,
    ) -> Result<SimTime, NetError> {
        assert!(depart >= self.clock, "send_at into the past");
        let idx = *self
            .links
            .get(&Self::link_key(from, to))
            .ok_or(NetError::NoLink { from, to })?;
        let dir = Self::direction(from, to);
        let link = &mut self.link_store[idx];
        let start = depart.max(link.busy_until[dir]);
        let tx = link.profile.transmit_time(payload.len());
        link.busy_until[dir] = start + tx;
        let arrival = link.busy_until[dir] + link.profile.latency;
        link.stats[dir].record(payload.len(), link.profile.wire_bytes(payload.len()));
        self.push(arrival, SimEvent::Message { to, from, payload });
        Ok(arrival)
    }

    /// Schedules a timer for `node` to fire `delay` from now.
    pub fn schedule_timer(&mut self, node: NodeId, delay: SimTime, token: u64) {
        self.push(self.clock + delay, SimEvent::Timer { node, token });
    }

    fn push(&mut self, at: SimTime, event: SimEvent) {
        self.seq += 1;
        self.queue.push(Reverse(Scheduled {
            at,
            seq: self.seq,
            event,
        }));
    }

    /// Advances the clock to the next event and returns it, or `None` when
    /// the simulation has quiesced.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Delivery> {
        let Reverse(s) = self.queue.pop()?;
        debug_assert!(s.at >= self.clock, "event scheduled in the past");
        self.clock = s.at;
        Some(Delivery {
            at: s.at,
            event: s.event,
        })
    }

    /// Whether any events remain.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// The time of the next event without dequeuing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(s)| s.at)
    }

    /// Traffic counters for the `from → to` direction of a link.
    ///
    /// Returns zeroed stats for unconnected pairs.
    pub fn stats(&self, from: NodeId, to: NodeId) -> LinkStats {
        match self.links.get(&Self::link_key(from, to)) {
            Some(&idx) => self.link_store[idx].stats[Self::direction(from, to)],
            None => LinkStats::default(),
        }
    }

    /// Combined traffic counters over both directions of a link.
    pub fn stats_bidirectional(&self, a: NodeId, b: NodeId) -> LinkStats {
        let mut s = self.stats(a, b);
        s.merge(&self.stats(b, a));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    fn two_node_net(profile: LinkProfile) -> (SimNet, NodeId, NodeId) {
        let mut net = SimNet::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.connect(a, b, profile);
        (net, a, b)
    }

    #[test]
    fn delivery_time_is_transmit_plus_latency() {
        let profile = LinkProfile::new("t", 9600, SimTime::from_millis(100));
        let expect = profile.transmit_time(1000) + profile.latency;
        let (mut net, a, b) = two_node_net(profile);
        let arrival = net.send(a, b, vec![0; 1000]).unwrap();
        assert_eq!(arrival, expect);
        let d = net.next().unwrap();
        assert_eq!(d.at, expect);
        assert_eq!(net.now(), expect);
        assert!(net.is_idle());
    }

    #[test]
    fn fifo_queueing_serializes_messages() {
        let profile = LinkProfile::new("t", 9600, SimTime::from_millis(100));
        let tx = profile.transmit_time(1000);
        let (mut net, a, b) = two_node_net(profile);
        let t1 = net.send(a, b, vec![0; 1000]).unwrap();
        let t2 = net.send(a, b, vec![0; 1000]).unwrap();
        // Second message waits for the first to finish transmitting.
        assert_eq!(t2, t1 + tx);
    }

    #[test]
    fn directions_do_not_interfere() {
        let profile = LinkProfile::new("t", 9600, SimTime::from_millis(10));
        let (mut net, a, b) = two_node_net(profile.clone());
        let t_fwd = net.send(a, b, vec![0; 5000]).unwrap();
        let t_rev = net.send(b, a, vec![0; 100]).unwrap();
        assert!(
            t_rev < t_fwd,
            "reverse direction must not queue behind forward"
        );
    }

    #[test]
    fn deliveries_come_out_in_time_order() {
        let (mut net, a, b) = two_node_net(profiles::lan());
        net.schedule_timer(a, SimTime::from_millis(5), 1);
        net.send(a, b, vec![0; 10]).unwrap();
        net.schedule_timer(b, SimTime::from_millis(1), 2);
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some(d) = net.next() {
            assert!(d.at >= last);
            last = d.at;
            count += 1;
        }
        assert_eq!(count, 3);
    }

    #[test]
    fn ties_break_by_submission_order() {
        let (mut net, a, _b) = two_node_net(profiles::lan());
        net.schedule_timer(a, SimTime::from_millis(1), 10);
        net.schedule_timer(a, SimTime::from_millis(1), 20);
        let d1 = net.next().unwrap();
        let d2 = net.next().unwrap();
        assert_eq!(d1.event, SimEvent::Timer { node: a, token: 10 });
        assert_eq!(d2.event, SimEvent::Timer { node: a, token: 20 });
    }

    #[test]
    fn unconnected_send_errors() {
        let mut net = SimNet::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        let err = net.send(a, b, vec![]).unwrap_err();
        assert_eq!(err, NetError::NoLink { from: a, to: b });
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn stats_track_both_directions_separately() {
        let (mut net, a, b) = two_node_net(profiles::lan());
        net.send(a, b, vec![0; 100]).unwrap();
        net.send(a, b, vec![0; 100]).unwrap();
        net.send(b, a, vec![0; 7]).unwrap();
        let fwd = net.stats(a, b);
        let rev = net.stats(b, a);
        assert_eq!(fwd.messages, 2);
        assert_eq!(fwd.payload_bytes, 200);
        assert!(fwd.wire_bytes > 200);
        assert_eq!(rev.messages, 1);
        assert_eq!(rev.payload_bytes, 7);
        let both = net.stats_bidirectional(a, b);
        assert_eq!(both.messages, 3);
    }

    #[test]
    fn send_at_defers_entry_into_queue() {
        let profile = LinkProfile::new("t", 9600, SimTime::ZERO);
        let tx = profile.transmit_time(100);
        let (mut net, a, b) = two_node_net(profile);
        let later = SimTime::from_secs(10);
        let arrival = net.send_at(later, a, b, vec![0; 100]).unwrap();
        assert_eq!(arrival, later + tx);
    }

    #[test]
    fn node_names_are_kept() {
        let mut net = SimNet::new();
        let a = net.add_node("workstation");
        assert_eq!(net.node_name(a), "workstation");
        assert_eq!(a.to_string(), "node-0");
    }
}

//! The runtime-side sink for the server's storage intents.
//!
//! The sans-io [`ServerNode`](shadow_server::ServerNode) only *emits*
//! `ServerAction::Persist(record)`; whether (and where) records become
//! durable is a deployment decision. Each [`Shard`](crate::Shard) hands
//! every record to the installed sink in emission order.
//! `shadow-store` provides the journaling sink, the model checker its
//! in-memory journal; diskless deployments install none.

use shadow_proto::{DomainId, PersistRecord};

/// Applies storage intents emitted by the server state machine.
///
/// `Send` because sharded deployments move each shard's sink onto that
/// shard's worker thread (journals shard with the same domain affinity
/// as the servers). Implementations must be infallible from the
/// caller's perspective: durability is best-effort by design, so an
/// I/O error should degrade (count, drop) rather than poison the shard
/// loop.
pub trait PersistSink: Send + std::fmt::Debug {
    /// Appends one record.
    fn persist(&mut self, record: &PersistRecord);

    /// Rewrites each domain the sink finds due as `state(domain)`, the
    /// [`ServerNode::snapshot`](shadow_server::ServerNode::snapshot); a
    /// shard calls it once its dispatch queue is empty. No-op default.
    fn compact(&mut self, _state: &mut dyn FnMut(DomainId) -> Vec<PersistRecord>) {}

    /// The sink's observability section, if it keeps counters. The
    /// shard appends it to its report so a durable deployment's report
    /// shows its journal behaviour next to the protocol metrics.
    fn report_section(&self) -> Option<shadow_obs::Section> {
        None
    }
}

impl<S: PersistSink + ?Sized> PersistSink for Box<S> {
    fn persist(&mut self, record: &PersistRecord) {
        (**self).persist(record);
    }

    fn compact(&mut self, state: &mut dyn FnMut(DomainId) -> Vec<PersistRecord>) {
        (**self).compact(state);
    }

    fn report_section(&self) -> Option<shadow_obs::Section> {
        (**self).report_section()
    }
}

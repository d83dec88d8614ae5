//! The runtime-side sink for the server's storage intents.
//!
//! The sans-io [`ServerNode`](shadow_server::ServerNode) only *emits*
//! `ServerAction::Persist(record)`; whether (and where) records become
//! durable is a deployment decision. Each shard hands every record
//! from a [`ServerIo`](crate::ServerIo) to the installed sink in
//! emission order. `shadow-store` provides the journaling sink; tests
//! use [`VecSink`]; diskless deployments install none.

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

/// A sink that collects records in memory — test instrumentation and
/// the model checker's in-memory journal.
#[derive(Debug, Default)]
pub struct VecSink {
    /// Every record persisted, in emission order.
    pub records: Vec<PersistRecord>,
}

impl PersistSink for VecSink {
    fn persist(&mut self, record: &PersistRecord) {
        self.records.push(record.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_proto::{DomainId, FileKey, VersionNumber};

    #[test]
    fn vec_sink_preserves_emission_order() {
        let mut sink = VecSink::default();
        let key = FileKey::new(DomainId::new(1), shadow_proto::FileId::new(2));
        let records = [
            PersistRecord::CacheFull {
                key,
                version: VersionNumber::FIRST,
                content: bytes::Bytes::from_static(b"a"),
            },
            PersistRecord::CacheRemove { key },
        ];
        for r in &records {
            sink.persist(r);
        }
        assert_eq!(sink.records, records);
    }
}

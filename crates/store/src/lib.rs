//! # shadow-store — the durable shadow store
//!
//! The paper's server keeps its shadow state — cached file versions for
//! delta exchange, job outputs held as future delta bases — purely in
//! memory, so a server restart silently degrades every client back to
//! full transfers. This crate makes that state survive restarts without
//! touching the sans-io cores:
//!
//! * the server state machine *describes* each shadow mutation as a
//!   [`PersistRecord`](shadow_proto::PersistRecord) (emitted through
//!   `ServerAction::Persist`);
//! * the runtime hands records to a [`DurableStore`] — a
//!   [`PersistSink`](shadow_runtime::PersistSink) — which appends them
//!   to a per-domain write-ahead journal; when a domain is due, the
//!   shard's [`compact`](shadow_runtime::PersistSink::compact) call
//!   hands it the server's own `ServerNode::snapshot`, which replaces
//!   the journal as the domain's snapshot;
//! * at startup, [`DurableStore::open`] reads snapshot + journal
//!   (truncating torn or corrupt tails, skipping records an interrupted
//!   compaction left stale) and [`DurableStore::recovered`] hands the
//!   salvaged records to `ServerNode::restore`.
//!
//! The store never interprets a record: `ServerNode::restore` is the
//! one replay path, the same one the model checker explores.
//!
//! Journals are **per naming domain** and shard with the same
//! [`shard_for`](shadow_runtime::shard_for) affinity as the sharded
//! runtime: each shard owns its domains' directories outright, so
//! durability adds no cross-thread coordination.

mod segment;
mod store;

pub use store::{DurableStore, RecoverySummary, DEFAULT_COMPACT_EVERY};

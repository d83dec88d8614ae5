//! `shadow-check`: exhaustive state-space checking and whole-workspace
//! static analysis for the sans-io protocol core.
//!
//! The crates under `crates/` deliberately keep all protocol logic in
//! sans-io state machines ([`ClientNode`](shadow_client::ClientNode),
//! [`ServerNode`](shadow_server::ServerNode)) wrapped by pure drivers
//! ([`ClientDriver`](shadow_runtime::ClientDriver) and the server loop,
//! [`Shard`](shadow_runtime::Shard)). That makes the whole protocol a
//! deterministic function of its inputs — so instead of only sampling
//! behaviours with example tests, we can *enumerate* them:
//!
//! * [`world`] models one client and one server — the production
//!   [`Shard`](shadow_runtime::Shard) on a virtual clock, journaling to
//!   an in-memory model of the durable store — plus the frames in
//!   flight between them. Every source of nondeterminism a real network
//!   exhibits — which queued frame is delivered next, whether it is
//!   dropped or duplicated, when timers fire, when the user edits or
//!   submits, when the server crashes or compacts its journal — is an
//!   explicit [`Choice`].
//! * [`explore`](mod@explore) walks the choice tree exhaustively (bounded by depth,
//!   state count, and drop/duplicate budgets), deduplicating states by
//!   the deterministic digests every node exposes
//!   ([`StableHasher`](shadow_proto::StableHasher)-based), and checks
//!   the protocol invariants after every transition.
//! * [`minimize`] shrinks a violating choice trace with delta debugging
//!   so the counterexample a failure prints is the short, readable core.
//! * [`analyze`](mod@analyze) is the offline source-level checker for
//!   the repo's sans-io discipline. Its call-graph rules prove,
//!   transitively and across file and crate boundaries, that no panic
//!   is reachable from untrusted input (the wire decoder, journal
//!   replay), no allocation from the zero-copy diff hot path, no
//!   wall-clock read from a pure crate's public API, and no blocking
//!   call from a shard's event handler, with printed witness chains.
//!   Its file-scope rules ban wall-clock reads from every sans-io crate,
//!   panics from the wire decoder and the observability crate, and
//!   threads and locks from the pure crates; its coverage rules demand
//!   that every message and event variant is tested or handled.
//!
//! The binary front-end (`cargo run -p shadow-check -- explore|analyze`)
//! drives both engines; CI runs them via `just check`.
//!
//! Invariants checked during exploration (see [`world::Violation`]):
//!
//! * **Shadow-cache coherence** — any version the server has cached and
//!   acknowledged has exactly the content digest the client recorded for
//!   that version (§5.1's best-effort cache must never hold data that
//!   *claims* to be a version it is not).
//! * **Acknowledgement / cache monotonicity** — within one cache
//!   lifetime, `VersionAck`s and the cached version never go backwards,
//!   so the client's version-chain pruning (§6.3.2) stays safe.
//! * **Loss degrades, never corrupts** — dropping the shadow cache (or
//!   any delta-base mismatch) may cost a full transfer but must never
//!   produce an error, a stuck job, or wrong cached content.
//! * **Replay fidelity** — a server restarted from its journal holds
//!   exactly the snapshot the crashed server held (unless a scripted
//!   cache drop ran first: the journal still holds what the drop lost).
//! * **Quiescent convergence** — once every frame is delivered, every
//!   timer fired, and the script is done, client and server agree on
//!   file content and no job is pending (checked only on runs where no
//!   frame was dropped).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod explore;
pub mod minimize;
pub mod scenario;
pub mod world;

pub use analyze::{analyze, AnalysisFinding, AnalysisStats};
pub use explore::{explore, minimize_trace, replay, Counterexample, Profile, Report};
pub use minimize::ddmin;
pub use scenario::{builtin_scenarios, Op, Scenario};
pub use world::{Choice, Violation, World};

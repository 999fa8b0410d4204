//! Distributed shard serving for the AFFINITY pipeline.
//!
//! PR 9's [`affinity_shard::ShardedModel`] proved the exact cross-shard
//! merge on one box; this crate moves the shards onto separate shard
//! *server* processes and keeps the same bit-identity contract while
//! surviving the failures distribution introduces — dead shard servers,
//! stalled sockets, and torn snapshots.
//!
//! Layers:
//!
//! * [`proto`] — the coordinator ↔ shard-server wire protocol: typed
//!   request/response frames over the serve line protocol, `f64`s as
//!   bit-exact hex so merged answers round-trip unchanged. Decode paths
//!   are panic-free (afflint R1/R5 gated).
//! * [`backend`] — the [`backend::ShardBackend`] trait the merge layer
//!   routes through, with an in-process implementation
//!   ([`backend::InProcBackend`]) and the shared [`backend::answer`]
//!   function shard servers call for remote peers — one query
//!   implementation behind both transports.
//! * [`remote`] — [`remote::RemoteShard`]: the TCP backend with
//!   per-request deadlines, jittered exponential-backoff retries, and a
//!   closed/open/half-open circuit breaker per shard.
//! * [`coordinator`] — statement execution: the `affinity_ql` planner
//!   runs over the fleet, whose primitives fan out to owner shards,
//!   merge with the *same* splice/merge helpers the single-box model
//!   uses, and degrade gracefully — a partial answer is always typed
//!   `DEGRADED <missing>`, never a silent subset.
//! * [`supervisor`] — spawns shard-server children, detects death,
//!   respawns with `--resume`, re-heals (catch-up ticks + plan check)
//!   and only then readmits the shard's breaker.
//! * [`lines`] — the bounded request-line reader every TCP front end
//!   (this crate's and `affinity_serve`'s) shares.
//! * [`server`] — the client-facing line protocol front-end and the
//!   conservation ledger (`routed == merged + retried + degraded +
//!   failed`) exposed via `.stats`.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod backend;
pub mod coordinator;
pub mod lines;
pub mod proto;
pub mod remote;
pub mod server;
pub mod stats;
pub mod supervisor;

pub use backend::{answer, AnswerError, BackendError, InProcBackend, ShardBackend};
pub use coordinator::{CoordAnswer, CoordError, CoordMeta, Coordinator};
pub use lines::MAX_LINE;
pub use proto::{ProtoError, ShardMeta, ShardRequest, ShardResponse};
pub use remote::{BreakerPolicy, CircuitBreaker, RemoteShard, RetryPolicy};
pub use server::CoordServer;
pub use stats::CoordStats;
pub use supervisor::{launch, spawn_fleet, ShardSpec, Supervisor};

//! Sharded model scale-out for the AFFINITY pipeline.
//!
//! The monolithic model hits an O(n²) wall: one affine set, one index,
//! one engine. This crate partitions the model into shards along an
//! explicit series → shard plan and answers every query through a
//! cross-shard merge layer whose results are **bit-identical** to the
//! unsharded model, because shards are partitions of one
//! globally-fitted model, never independent re-fits.
//!
//! Layers:
//!
//! * [`ShardPlan`] — the series → shard map, cut along cluster
//!   boundaries (so a pivot group never straddles two shards) or in
//!   contiguous blocks derived from the shape alone.
//! * [`ShardedModel`] — per-shard MEC engines + SCAPE indexes behind
//!   an exact merge layer ([`ShardedModel::from_global`] /
//!   [`ShardedModel::build`]).
//!
//! A streaming deployment refreshes the global model with
//! `affinity_stream::StreamingEngine` and re-cuts it with
//! [`ShardedModel::from_global`] once per published epoch.

#![deny(missing_docs)]

mod build;
mod error;
mod model;
mod plan;

pub use error::ShardError;
pub use model::{merge_keyed_series, splice_chunks, ShardModel, ShardedModel};
pub use plan::ShardPlan;

//! Typed errors for shard planning and builds.

use affinity_core::error::CoreError;
use affinity_data::SourceError;
use std::fmt;

/// Errors raised by shard planning and sharded model construction.
#[derive(Debug)]
pub enum ShardError {
    /// Clustering / relationship / MEC engine construction failed.
    Core(CoreError),
    /// A column fetch failed while streaming through a `SeriesSource`.
    Source(SourceError),
    /// A shard plan is inconsistent (bad shard id, shape mismatch).
    Plan(String),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Core(e) => write!(f, "shard model construction failed: {e}"),
            ShardError::Source(e) => write!(f, "shard column fetch failed: {e}"),
            ShardError::Plan(msg) => write!(f, "invalid shard plan: {msg}"),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Core(e) => Some(e),
            ShardError::Source(e) => Some(e),
            ShardError::Plan(_) => None,
        }
    }
}

impl From<CoreError> for ShardError {
    fn from(e: CoreError) -> Self {
        ShardError::Core(e)
    }
}

impl From<SourceError> for ShardError {
    fn from(e: SourceError) -> Self {
        ShardError::Source(e)
    }
}

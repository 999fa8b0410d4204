//! # affinity-scape
//!
//! The SCAPE (SCAlar ProjEction) index — paper Sec. 5 — and the MET/MER
//! query processing built on it.
//!
//! For every pivot pair `p_q` the index keeps a B+ tree of *sequence
//! nodes*, keyed by the scalar projection
//!
//! ```text
//! ξ_qd = (α_q · β_qd) / ‖α_q‖
//! ```
//!
//! where `β_qd = (a₁₂, a₂₂, b₂)` comes from the affine relationship only
//! (measure-independent), and `α_q` encodes the pivot statistics of the
//! indexed measure (paper Table 2). A threshold query over any L- or
//! T-measure becomes a per-pivot B-tree search with the modified threshold
//! `τ' = τ/‖α_q‖`; D-measures (correlation) are processed with
//! normalizer-bound pruning (`U_q^min`, `U_q^max`, Sec. 5.3), touching the
//! raw series never and per-node arithmetic only inside the unpruned band.
//!
//! One structural clarification relative to the paper (DESIGN.md §2): the
//! *ordering* of `ξ` depends on the angle to `α_q`, so each indexed
//! measure keeps its own sorted container per pivot. The stored `β`
//! vectors and node payloads are shared conceptually; the paper's claims
//! (measure-independent `β`, single index machinery for all measures)
//! carry over unchanged.
//!
//! ```
//! use affinity_core::prelude::*;
//! use affinity_data::generator::{sensor_dataset, SensorConfig};
//! use affinity_scape::{ScapeIndex, ThresholdOp};
//!
//! let data = sensor_dataset(&SensorConfig::reduced(16, 48));
//! let affine = Symex::new(SymexParams::default()).run(&data).unwrap();
//! let index = ScapeIndex::build(&data, &affine, &Measure::ALL).unwrap();
//! let hot = index
//!     .threshold_pairs(PairwiseMeasure::Correlation, ThresholdOp::Greater, 0.9)
//!     .unwrap();
//! assert!(hot.len() <= data.pair_count());
//! ```
//!
//! Construction gathers per-pivot `(ξ, node)` arrays, sorts them (in
//! parallel across pivots under [`ScapeIndex::build_with_pool`]) and
//! bulk-loads each B+ tree bottom-up; [`ScapeIndex::apply_delta`]
//! relocates individual nodes when relationships are re-fitted against
//! retained pivots, which is what the streaming engine's delta refresh
//! rides on.

#![deny(missing_docs)]
#![warn(clippy::all)]

mod delta;
mod error;
mod index;
mod persist;
mod query;

pub use delta::{PairDelta, ScapeDelta, SeriesDelta};
pub use error::ScapeError;
pub use index::{IndexStats, ScapeIndex};
pub use persist::{measure_from_tag, measure_tag, INDEX_CODEC_VERSION};
pub use query::{Filter, ThresholdOp};

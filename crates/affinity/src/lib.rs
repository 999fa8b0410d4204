//! # AFFINITY
//!
//! A Rust implementation of **"AFFINITY: Efficiently Querying Statistical
//! Measures on Time-Series Data"** (Sathe & Aberer, ICDE 2013).
//!
//! AFFINITY computes and queries statistical measures (mean, median, mode,
//! covariance, dot product, Pearson correlation) over large collections of
//! time series by exploiting *affine relationships*: instead of scanning
//! raw series for every one of the `n(n−1)/2` pairs, it
//!
//! 1. clusters the series so each is nearly a linear image of its cluster
//!    centre ([`core::afclst`], quality measured by the LSFD metric),
//! 2. fits one least-squares affine relationship per pair against a small
//!    (`≤ n·k`) set of *pivot pairs* ([`core::symex`]),
//! 3. reconstructs any measure for any pair from pivot statistics and a
//!    3-vector `β` ([`core::mec`]),
//! 4. and answers threshold/range queries over *any* of those measures
//!    from one ordered index of scalar projections ([`scape`]).
//!
//! ## Quick start
//!
//! ```
//! use affinity::prelude::*;
//!
//! // Synthetic stand-in for the paper's sensor dataset.
//! let data = sensor_dataset(&SensorConfig::reduced(32, 96));
//!
//! // Cluster + compute affine relationships (AFCLST + SYMEX+).
//! let affine = Symex::new(SymexParams::default()).run(&data).unwrap();
//!
//! // Measure computation through affine relationships (the W_A method).
//! let engine = MecEngine::new(&data, &affine);
//! let rho = engine.pairwise(PairwiseMeasure::Correlation, &[0, 1, 2, 3]).unwrap();
//! assert_eq!(rho.rows(), 4);
//!
//! // Indexed threshold queries (the SCAPE index).
//! let index = ScapeIndex::build(&data, &affine, &Measure::ALL).expect("index");
//! let hot = index
//!     .threshold_pairs(PairwiseMeasure::Correlation, ThresholdOp::Greater, 0.95)
//!     .unwrap();
//! assert!(hot.len() <= data.pair_count());
//! ```
//!
//! ## Out of core
//!
//! Model construction is generic over [`data::SeriesSource`], so the
//! same pipeline runs against an on-disk [`storage::MatrixStore`] — or a
//! bounded-memory [`storage::CachedStore`] — without ever materializing
//! the matrix, producing bit-for-bit the resident result:
//!
//! ```
//! use affinity::prelude::*;
//!
//! let data = sensor_dataset(&SensorConfig::reduced(16, 64));
//! let path = std::env::temp_dir().join("affinity-facade-ooc-doc.afn");
//! MatrixStore::create(&path, &data).unwrap();
//!
//! // Budget: at most 4 columns resident at any time.
//! let source = CachedStore::new(MatrixStore::open(&path).unwrap(), 4);
//! let affine = Symex::new(SymexParams::default()).run(&source).unwrap();
//! let index = ScapeIndex::build_from_source(
//!     &source, &affine, &Measure::ALL, &ThreadPool::new(1)).unwrap();
//! let resident = Symex::new(SymexParams::default()).run(&data).unwrap();
//! assert_eq!(affine.relationships(), resident.relationships());
//! # std::fs::remove_file(&path).ok();
//! ```
//!
//! See `ARCHITECTURE.md` for the end-to-end data flow.
//!
//! ## Crate map
//!
//! | Module | Backing crate | Contents |
//! |---|---|---|
//! | [`core`] | `affinity-core` | measures, LSFD, AFCLST, SYMEX/SYMEX+, MEC engine |
//! | [`scape`] | `affinity-scape` | the SCAPE index: bulk construction, MET/MER/count queries, delta patching |
//! | [`data`] | `affinity-data` | data matrix, `SeriesSource` column access, dataset generators, CSV, Zipf |
//! | [`query`] | `affinity-query` | `W_N`/`W_A`/`W_F` executors, online workloads |
//! | [`ql`] | `affinity-ql` | textual MEC/MET/MER query language + planner |
//! | [`stream`] | `affinity-stream` | sliding windows, rolling stats, drift-driven delta refresh |
//! | [`serve`] | `affinity-serve` | concurrent query service: epoch swaps, admission control, chaos hooks |
//! | [`shard`] | `affinity-shard` | sharded model scale-out: shard plans, partition of one global model, exact cross-shard merge |
//! | [`coord`] | `affinity-coord` | distributed shard serving: coordinator routing, retry/backoff/breakers, failover re-heal, graceful degradation |
//! | [`storage`] | `affinity-storage` | columnar binary store with checksums, LRU `CachedStore` |
//! | [`linalg`] | `affinity-linalg` | QR, Jacobi eigen, power iteration |
//! | [`par`] | `affinity-par` | work-stealing thread pool behind parallel SYMEX + batched MEC |
//! | [`dft`] | `affinity-dft` | FFT (radix-2 + Bluestein), coefficient sketches |
//! | [`index`] | `affinity-index` | the B+ tree behind SCAPE (duplicate-aware, counted, bulk-loadable) |

#![deny(missing_docs)]
#![warn(clippy::all)]

pub use affinity_coord as coord;
pub use affinity_core as core;
pub use affinity_data as data;
pub use affinity_dft as dft;
pub use affinity_index as index;
pub use affinity_linalg as linalg;
pub use affinity_par as par;
pub use affinity_ql as ql;
pub use affinity_query as query;
pub use affinity_scape as scape;
pub use affinity_serve as serve;
pub use affinity_shard as shard;
pub use affinity_storage as storage;
pub use affinity_stream as stream;

/// Everything a typical application needs.
pub mod prelude {
    pub use affinity_coord::{Coordinator, InProcBackend, RemoteShard, ShardBackend};
    pub use affinity_core::prelude::*;
    pub use affinity_data::generator::{sensor_dataset, stock_dataset, SensorConfig, StockConfig};
    pub use affinity_data::{
        DataMatrix, SequencePair, SeriesId, SeriesSource, SourceError, ZipfSampler,
    };
    pub use affinity_par::ThreadPool;
    pub use affinity_ql::Session;
    pub use affinity_query::{AffineExecutor, DftExecutor, NaiveExecutor};
    pub use affinity_scape::{ScapeIndex, ThresholdOp};
    pub use affinity_shard::{ShardPlan, ShardedModel};
    pub use affinity_storage::{CachedStore, MatrixStore};
    pub use affinity_stream::{StreamingConfig, StreamingEngine};
}

//! # affinity-storage
//!
//! Columnar binary storage for time-series data matrices — the
//! `data_matrix` table of the paper's architecture figure (Fig. 2).
//!
//! The on-disk layout is column-oriented because AFFINITY's access
//! pattern is whole-series scans: AFCLST, SYMEX and the measure kernels
//! all stream one series at a time. Each column chunk carries its own
//! CRC32 so partial writes and bit rot are detected at read time, and
//! single series can be read without touching the rest of the file.
//!
//! Both [`MatrixStore`] and the LRU-bounded [`CachedStore`] implement
//! [`affinity_data::SeriesSource`], so the whole model-construction
//! pipeline (AFCLST → SYMEX → MEC/SCAPE) can stream columns from disk
//! without ever materializing the `n·m` matrix — see
//! `ARCHITECTURE.md` at the repository root for the data-flow picture.
//!
//! The crate also houses the crash-safe persistence primitives built
//! on the same CRC/header-validation discipline: the atomic
//! [`SnapshotWriter`]/[`Snapshot`] section container, the append-only
//! [`JournalWriter`] delta journal with torn-tail recovery, and the
//! [`failpoint`] fault-injection layer the crash-matrix suite uses to
//! script power cuts, short writes and bit rot.
//!
//! ```no_run
//! use affinity_data::generator::{sensor_dataset, SensorConfig};
//! use affinity_storage::MatrixStore;
//!
//! let data = sensor_dataset(&SensorConfig::reduced(8, 32));
//! MatrixStore::create("sensors.afn", &data).unwrap();
//! let store = MatrixStore::open("sensors.afn").unwrap();
//! let series3 = store.read_series(3).unwrap();
//! assert_eq!(series3, data.series(3));
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

mod cache;
pub mod crc;
pub mod failpoint;
pub mod journal;
mod layout;
mod snapshot;
mod store;

pub use cache::{CacheStats, CachedStore, PrefetchStats};
pub use failpoint::{CommitFault, FailMode, FailpointWriter};
pub use journal::{replay, JournalReplay, JournalWriter};
pub use snapshot::{staged_path, PersistError, Snapshot, SnapshotWriter, SNAPSHOT_VERSION};
pub use store::{MatrixStore, StorageError, FORMAT_VERSION};

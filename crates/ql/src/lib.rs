//! # affinity-ql
//!
//! A small textual query language over the AFFINITY framework — the
//! query surface a downstream application talks to (the "threshold /
//! range / computation queries" arrows in the paper's architecture
//! figure, Fig. 2).
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! statement := mec | met | mer
//! mec       := "MEC" measure "OF" ident ("," ident)*
//! met       := "MET" measure (">" | "<") number
//! mer       := "MER" measure "BETWEEN" number "AND" number
//! measure   := "mean" | "median" | "mode" | "covariance"
//!            | "dot"  | "correlation" | "cosine" | "dice"
//! ident     := series label (e.g. STK42) or numeric id
//! ```
//!
//! One planner ([`plan`]) serves every model: MET/MER use the SCAPE
//! index when the measure was indexed and fall back to the affine
//! (`W_A`) executor otherwise; MEC always uses the MEC engine. A
//! [`Session`] runs it over a local model; the distributed coordinator
//! runs it over its fleet through [`QueryModel`].
//!
//! ```
//! use affinity_core::prelude::*;
//! use affinity_data::generator::{sensor_dataset, SensorConfig};
//! use affinity_ql::Session;
//!
//! let data = sensor_dataset(&SensorConfig::reduced(12, 32));
//! let affine = Symex::new(SymexParams::default()).run(&data).unwrap();
//! let session = Session::new(&data, &affine, &Measure::ALL).unwrap();
//! let result = session.execute("MET correlation > 0.9").unwrap();
//! println!("{result}");
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod cancel;
mod parser;
pub mod plan;
mod session;

pub use affinity_scape::Filter;
pub use cancel::{CancelCause, CancelToken};
pub use parser::{parse, MeasureName, ParseError, Statement};
pub use plan::QueryModel;
pub use session::{series_labels, QlError, QueryOutput, Session};

//! Error type for the framework core.

use affinity_data::SourceError;
use affinity_linalg::LinalgError;
use std::fmt;

/// Errors surfaced by clustering, relationship computation and query
/// processing.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A numerical kernel failed; wraps the underlying error.
    Numerical(LinalgError),
    /// A [`SeriesSource`](affinity_data::SeriesSource) fetch failed
    /// during a streamed build (I/O error, checksum mismatch, bad
    /// index).
    Source(SourceError),
    /// A model and a data source disagree on the matrix shape.
    ShapeMismatch {
        /// `(series, samples)` of the data source.
        data: (usize, usize),
        /// `(series, samples)` the model was computed over.
        model: (usize, usize),
    },
    /// Clustering was asked for more clusters than there are series.
    TooManyClusters {
        /// Requested cluster count `k`.
        requested: usize,
        /// Available series count `n`.
        available: usize,
    },
    /// A query referenced a series identifier outside `0..n`.
    UnknownSeries {
        /// The offending identifier.
        id: usize,
        /// The number of series in the data matrix.
        series: usize,
    },
    /// A sequence pair has no stored affine relationship (indicates the
    /// SYMEX traversal and the query disagree about the data matrix).
    MissingRelationship {
        /// First member of the pair.
        u: usize,
        /// Second member of the pair.
        v: usize,
    },
    /// A pairwise MEC request named the same series twice (a pair
    /// needs two distinct members).
    DuplicateSeries {
        /// The repeated identifier.
        id: usize,
    },
    /// Invalid parameter value; carries a description.
    InvalidParameter(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Numerical(e) => write!(f, "numerical kernel failed: {e}"),
            CoreError::Source(e) => write!(f, "series source fetch failed: {e}"),
            CoreError::ShapeMismatch { data, model } => write!(
                f,
                "model (series {}, samples {}) does not match the data source (series {}, samples {})",
                model.0, model.1, data.0, data.1
            ),
            CoreError::TooManyClusters {
                requested,
                available,
            } => write!(
                f,
                "requested {requested} clusters but only {available} series exist"
            ),
            CoreError::UnknownSeries { id, series } => {
                write!(f, "series id {id} out of range (n = {series})")
            }
            CoreError::MissingRelationship { u, v } => {
                write!(f, "no affine relationship stored for pair ({u}, {v})")
            }
            CoreError::DuplicateSeries { id } => {
                write!(f, "MEC pairwise requires distinct series (id {id} repeats)")
            }
            CoreError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Numerical(e) => Some(e),
            CoreError::Source(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for CoreError {
    fn from(e: LinalgError) -> Self {
        CoreError::Numerical(e)
    }
}

impl From<SourceError> for CoreError {
    fn from(e: SourceError) -> Self {
        CoreError::Source(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::TooManyClusters {
            requested: 10,
            available: 3,
        };
        assert!(e.to_string().contains("10"));
        let e = CoreError::from(LinalgError::NotPositiveDefinite);
        assert!(std::error::Error::source(&e).is_some());
        assert!(CoreError::MissingRelationship { u: 1, v: 2 }
            .to_string()
            .contains("(1, 2)"));
        assert!(CoreError::UnknownSeries { id: 9, series: 5 }
            .to_string()
            .contains("9"));
        assert!(CoreError::InvalidParameter("k = 0".into())
            .to_string()
            .contains("k = 0"));
    }
}

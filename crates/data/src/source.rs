//! The [`SeriesSource`] abstraction: column access without residency.
//!
//! Every model-construction kernel in this workspace (AFCLST, SYMEX,
//! MEC preprocessing, SCAPE construction) touches the data matrix the
//! same way: *fetch one series, scan it, move on*. [`SeriesSource`]
//! captures exactly that contract, so the kernels can run unchanged
//! over
//!
//! * a fully resident [`DataMatrix`] (fetches are zero-copy borrows),
//! * an on-disk `affinity_storage::MatrixStore` (each fetch is one
//!   checksummed column read into a caller-provided buffer), or
//! * a bounded-memory `affinity_storage::CachedStore` (an LRU of
//!   recently fetched columns with pinning for hot pivot columns).
//!
//! The streamed and resident paths execute the same floating-point
//! operations in the same order, so a model built through any source
//! is **bit-for-bit identical** to the resident build — the workspace
//! equivalence suite (`tests/outofcore_equivalence.rs`) pins this.
//!
//! ```
//! use affinity_data::{DataMatrix, SeriesSource};
//!
//! let dm = DataMatrix::from_series(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
//! let mut buf = Vec::new();
//! // The resident source hands back a borrow; `buf` stays untouched.
//! let col = dm.read_into(1, &mut buf).unwrap();
//! assert_eq!(col, &[3.0, 4.0]);
//! assert!(dm.read_into(2, &mut buf).is_err());
//! ```

use crate::matrix::{DataMatrix, SeriesId};
use std::cell::RefCell;
use std::fmt;

/// Errors raised while fetching series from a [`SeriesSource`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// A series index outside `0..series_count()`.
    OutOfRange {
        /// Requested index.
        requested: usize,
        /// Number of series the source holds.
        available: usize,
    },
    /// A backend failure (I/O error, checksum mismatch, …); carries the
    /// backend's description.
    Backend(String),
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::OutOfRange {
                requested,
                available,
            } => write!(f, "series {requested} out of range ({available} available)"),
            SourceError::Backend(msg) => write!(f, "series source backend: {msg}"),
        }
    }
}

impl std::error::Error for SourceError {}

/// Column access for the model-construction kernels: resident matrices,
/// on-disk stores, and caches all implement this.
///
/// Implementations must be [`Sync`]: the SYMEX fit phase and the SCAPE
/// pivot-statistics pass fetch columns from several worker lanes at
/// once (each lane with its own buffer).
pub trait SeriesSource: Sync {
    /// Samples per series (`m`).
    fn samples(&self) -> usize;

    /// Number of series (`n`).
    fn series_count(&self) -> usize;

    /// Fetch series `v`.
    ///
    /// Resident sources return a borrow of their own storage and leave
    /// `buf` untouched; streaming sources fill `buf` (reusing its
    /// allocation) and return a borrow of it. Either way the returned
    /// slice has [`SeriesSource::samples`] elements.
    ///
    /// # Errors
    /// [`SourceError::OutOfRange`] for bad indices,
    /// [`SourceError::Backend`] for backend failures.
    fn read_into<'a>(
        &'a self,
        v: SeriesId,
        buf: &'a mut Vec<f64>,
    ) -> Result<&'a [f64], SourceError>;

    /// Advisory hint that series `v` is about to be fetched repeatedly
    /// (e.g. a pivot's common series during the SYMEX fit phase).
    /// Caching sources keep pinned columns resident; the default is a
    /// no-op. Pins nest: every `pin` should be paired with an
    /// [`SeriesSource::unpin`].
    fn pin(&self, _v: SeriesId) {}

    /// Advisory announcement that the caller is about to read `cols`,
    /// **in this order**. Resident sources ignore it (the default
    /// no-op); caching sources may read announced columns together
    /// with an earlier miss, so several columns cost one backing
    /// request.
    ///
    /// Purely a scheduling hint: it must not change what any fetch
    /// returns, and callers never need to announce to be correct. Every
    /// model-construction pass in this workspace knows its column
    /// sequence up front and announces it before iterating (see
    /// [`prefetch_range`]).
    fn prefetch(&self, _cols: &[u32]) {}

    /// Release one [`SeriesSource::pin`] of series `v`. No-op by default.
    fn unpin(&self, _v: SeriesId) {}

    /// Read every column and assemble a resident [`DataMatrix`]
    /// (generic fallback; prefer backend-specific bulk reads when
    /// available).
    ///
    /// # Errors
    /// Propagates fetch errors.
    fn materialize(&self) -> Result<DataMatrix, SourceError> {
        let mut buf = Vec::new();
        let columns = (0..self.series_count())
            .map(|v| self.read_into(v, &mut buf).map(<[f64]>::to_vec))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(DataMatrix::from_series(columns))
    }
}

impl SeriesSource for DataMatrix {
    fn samples(&self) -> usize {
        DataMatrix::samples(self)
    }

    fn series_count(&self) -> usize {
        DataMatrix::series_count(self)
    }

    fn read_into<'a>(
        &'a self,
        v: SeriesId,
        _buf: &'a mut Vec<f64>,
    ) -> Result<&'a [f64], SourceError> {
        if v >= DataMatrix::series_count(self) {
            return Err(SourceError::OutOfRange {
                requested: v,
                available: DataMatrix::series_count(self),
            });
        }
        Ok(self.series(v))
    }
}

impl<S: SeriesSource + ?Sized> SeriesSource for &S {
    fn samples(&self) -> usize {
        (**self).samples()
    }

    fn series_count(&self) -> usize {
        (**self).series_count()
    }

    fn read_into<'a>(
        &'a self,
        v: SeriesId,
        buf: &'a mut Vec<f64>,
    ) -> Result<&'a [f64], SourceError> {
        (**self).read_into(v, buf)
    }

    fn pin(&self, v: SeriesId) {
        (**self).pin(v)
    }

    fn unpin(&self, v: SeriesId) {
        (**self).unpin(v)
    }

    fn prefetch(&self, cols: &[u32]) {
        (**self).prefetch(cols)
    }
}

/// Announce the column range `range` to `source` (ascending order) —
/// the one-shot announcement shape of scattered parallel passes (e.g.
/// per-series fits sharded across lanes), where no single consumer
/// walks the sequence in order.
pub fn prefetch_range<S: SeriesSource + ?Sized>(source: &S, range: std::ops::Range<usize>) {
    let cols: Vec<u32> = range.map(|v| v as u32).collect();
    source.prefetch(&cols);
}

/// The identity column sequence `0..n` as announcement entries — the
/// plan of every full sequential pass (AFCLST's fused
/// marginal/assignment sweeps, MEC/SCAPE normalizer scans, streaming
/// warm start), fed to [`prefetch_window`] one position at a time.
pub fn scan_sequence(n: usize) -> Vec<u32> {
    (0..n).map(|v| v as u32).collect()
}

/// How far ahead of the consumer's position [`prefetch_window`]
/// announces. Comfortably larger than any readahead span plus the gaps
/// it may bridge — the span budget, not the window, is what limits
/// readahead.
pub const PREFETCH_WINDOW: usize = 64;

/// Announce the next [`PREFETCH_WINDOW`] entries of a planned column
/// sequence, starting at the entry about to be consumed.
///
/// Sequential passes call this once per iteration, *before* fetching
/// `seq[pos]`. Caching sources dedup entries that are already planned,
/// cached, or in flight, so the repeated overlap costs a few hash
/// probes per column — and entries a bounded plan had to drop earlier
/// are naturally re-announced as the window slides over them.
pub fn prefetch_window<S: SeriesSource + ?Sized>(source: &S, seq: &[u32], pos: usize) {
    let end = (pos + PREFETCH_WINDOW).min(seq.len());
    if pos < end {
        source.prefetch(&seq[pos..end]);
    }
}

/// Owned-buffer column access — the contract cache layers need from
/// their *backing* store.
///
/// [`SeriesSource::read_into`] lets resident sources hand out borrows
/// of their own storage, which is what the kernels want but exactly
/// what a cache cannot store away. `ColumnRead` is the narrower
/// backing-side contract: every read lands in a caller-owned buffer, so
/// `affinity_storage::CachedStore` can wrap any implementor — the
/// on-disk `MatrixStore`, a resident [`DataMatrix`] (for tests), or a
/// latency-injecting [`SlowSource`](crate::slow::SlowSource) double.
pub trait ColumnRead: Send + Sync {
    /// Samples per series (`m`).
    fn samples(&self) -> usize;

    /// Number of series (`n`).
    fn series_count(&self) -> usize;

    /// Read series `v` into `out` (cleared and refilled, reusing its
    /// allocation).
    ///
    /// # Errors
    /// [`SourceError::OutOfRange`] / [`SourceError::Backend`] as for
    /// [`SeriesSource::read_into`].
    fn read_column(&self, v: SeriesId, out: &mut Vec<f64>) -> Result<(), SourceError>;

    /// Read the contiguous region `first .. first + count`, handing
    /// each decoded column to `sink(v, column)` in ascending order.
    ///
    /// The default loops [`ColumnRead::read_column`]; backends whose
    /// layout is contiguous (the `MatrixStore` file format) override it
    /// to fetch the whole region in **one** read request, which is what
    /// makes miss-path readahead worthwhile on high-latency media.
    ///
    /// # Errors
    /// Propagates per-column read failures; `sink` is only called for
    /// columns that decoded successfully.
    fn read_column_range(
        &self,
        first: usize,
        count: usize,
        sink: &mut dyn FnMut(SeriesId, &[f64]),
    ) -> Result<(), SourceError> {
        let mut buf = Vec::new();
        for v in first..first + count {
            self.read_column(v, &mut buf)?;
            sink(v, &buf);
        }
        Ok(())
    }
}

impl ColumnRead for DataMatrix {
    fn samples(&self) -> usize {
        DataMatrix::samples(self)
    }

    fn series_count(&self) -> usize {
        DataMatrix::series_count(self)
    }

    fn read_column(&self, v: SeriesId, out: &mut Vec<f64>) -> Result<(), SourceError> {
        if v >= DataMatrix::series_count(self) {
            return Err(SourceError::OutOfRange {
                requested: v,
                available: DataMatrix::series_count(self),
            });
        }
        out.clear();
        out.extend_from_slice(self.series(v));
        Ok(())
    }
}

thread_local! {
    /// Two per-thread column buffers, reused across every streamed fetch
    /// this thread performs (worker lanes are long-lived, so after
    /// warm-up the streaming hot paths are allocation-free per column).
    static COLUMN_BUFS: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Run `f` with this thread's two reusable column buffers — the
/// "per-lane buffers" of the parallel streamed phases (one for a pivot
/// column held across a group, one for the member column of the moment).
///
/// Nested calls fall back to fresh buffers instead of panicking on the
/// `RefCell`, so reentrancy is safe (just unamortized).
pub fn with_column_buffers<R>(f: impl FnOnce(&mut Vec<f64>, &mut Vec<f64>) -> R) -> R {
    COLUMN_BUFS.with(|cell| match cell.try_borrow_mut() {
        Ok(mut bufs) => {
            let (a, b) = &mut *bufs;
            f(a, b)
        }
        Err(_) => f(&mut Vec::new(), &mut Vec::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> DataMatrix {
        DataMatrix::from_series(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]])
    }

    #[test]
    fn resident_source_borrows_without_copy() {
        let dm = matrix();
        let mut buf = Vec::new();
        let s = dm.read_into(0, &mut buf).unwrap();
        assert_eq!(s, dm.series(0));
        assert!(buf.is_empty(), "resident fetch must not touch the buffer");
        assert_eq!(SeriesSource::samples(&dm), 3);
        assert_eq!(SeriesSource::series_count(&dm), 2);
    }

    #[test]
    fn out_of_range_is_an_error_not_a_panic() {
        let dm = matrix();
        let mut buf = Vec::new();
        assert!(matches!(
            dm.read_into(2, &mut buf),
            Err(SourceError::OutOfRange {
                requested: 2,
                available: 2
            })
        ));
    }

    #[test]
    fn materialize_round_trips() {
        let dm = matrix();
        let back = SeriesSource::materialize(&dm).unwrap();
        assert_eq!(back.series(0), dm.series(0));
        assert_eq!(back.series(1), dm.series(1));
    }

    #[test]
    fn reference_delegation() {
        let dm = matrix();
        let r: &DataMatrix = &dm;
        let mut buf = Vec::new();
        assert_eq!(SeriesSource::series_count(&r), 2);
        assert_eq!(r.read_into(1, &mut buf).unwrap(), dm.series(1));
        r.pin(0);
        r.unpin(0);
    }

    #[test]
    fn column_buffers_are_reentrant() {
        with_column_buffers(|a, _| {
            a.push(1.0);
            with_column_buffers(|inner_a, _| {
                assert!(inner_a.is_empty(), "nested call gets fresh buffers");
            });
            assert_eq!(a.len(), 1);
        });
    }

    #[test]
    fn prefetch_is_a_noop_on_resident_sources() {
        let dm = matrix();
        dm.prefetch(&[0, 1, 99]); // advisory; bad indices must be harmless
        prefetch_range(&dm, 0..2);
        let r: &DataMatrix = &dm;
        r.prefetch(&[1]); // reference delegation compiles and is a no-op
    }

    #[test]
    fn column_read_copies_into_the_buffer() {
        let dm = matrix();
        let mut out = Vec::new();
        ColumnRead::read_column(&dm, 1, &mut out).unwrap();
        assert_eq!(out, dm.series(1));
        assert!(matches!(
            ColumnRead::read_column(&dm, 2, &mut out),
            Err(SourceError::OutOfRange { requested: 2, .. })
        ));
        assert_eq!(ColumnRead::samples(&dm), 3);
        assert_eq!(ColumnRead::series_count(&dm), 2);
    }

    #[test]
    fn column_range_default_visits_in_ascending_order() {
        let dm = matrix();
        let mut seen = Vec::new();
        dm.read_column_range(0, 2, &mut |v, col| seen.push((v, col.to_vec())))
            .unwrap();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], (0, dm.series(0).to_vec()));
        assert_eq!(seen[1], (1, dm.series(1).to_vec()));
        assert!(dm.read_column_range(1, 2, &mut |_, _| {}).is_err());
    }

    #[test]
    fn error_display() {
        let e = SourceError::OutOfRange {
            requested: 9,
            available: 4,
        };
        assert!(e.to_string().contains('9'));
        assert!(SourceError::Backend("disk on fire".into())
            .to_string()
            .contains("disk on fire"));
    }
}

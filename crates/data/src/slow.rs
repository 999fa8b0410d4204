//! A latency-injecting column-read double for I/O-overlap experiments.
//!
//! On a developer box the OS page cache serves "cold" store reads in
//! microseconds, which hides exactly the latency that readahead exists
//! to amortize (the honest-measurement gap recorded for the first
//! out-of-core benchmark run). [`SlowSource`] wraps any
//! [`ColumnRead`] backing and charges a configurable delay per read
//! *request* — one sleep per [`ColumnRead::read_column`] call and one
//! per [`ColumnRead::read_column_range`] call, mimicking
//! seek-dominated media where a contiguous batch costs about the same
//! as a single-column fetch. It also counts requests and watches for
//! two concurrent reads of the same column, so tests can assert that a
//! cache layer dedups in-flight fetches instead of decoding a column
//! twice.

use crate::matrix::SeriesId;
use crate::source::{ColumnRead, SeriesSource, SourceError};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

/// A [`ColumnRead`] (and [`SeriesSource`]) wrapper that sleeps for a
/// fixed delay on every read request, counting requests as it goes.
///
/// ```
/// use affinity_data::slow::SlowSource;
/// use affinity_data::source::ColumnRead;
/// use affinity_data::DataMatrix;
/// use std::time::Duration;
///
/// let dm = DataMatrix::from_series(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let slow = SlowSource::new(dm, Duration::from_micros(50));
/// let mut buf = Vec::new();
/// slow.read_column(1, &mut buf).unwrap();
/// assert_eq!(buf, &[3.0, 4.0]);
/// assert_eq!(slow.reads(), 1);
/// ```
#[derive(Debug)]
pub struct SlowSource<B> {
    inner: B,
    delay: Duration,
    reads: AtomicU64,
    columns_read: AtomicU64,
    /// Readers currently inside each column; used to detect overlapping
    /// same-column reads (a cache layer decoding one column twice).
    in_column: Vec<AtomicU32>,
    /// Cumulative reads per column — lets tests assert a pinned column
    /// never goes back to the medium while pinned.
    column_reads: Vec<AtomicU64>,
    overlap: AtomicBool,
}

impl<B: ColumnRead> SlowSource<B> {
    /// Wrap `inner`, charging `delay` per read request.
    pub fn new(inner: B, delay: Duration) -> Self {
        let n = inner.series_count();
        SlowSource {
            inner,
            delay,
            reads: AtomicU64::new(0),
            columns_read: AtomicU64::new(0),
            in_column: (0..n).map(|_| AtomicU32::new(0)).collect(),
            column_reads: (0..n).map(|_| AtomicU64::new(0)).collect(),
            overlap: AtomicBool::new(false),
        }
    }

    /// The wrapped backing.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Read *requests* served so far (a range read counts once — that
    /// is the point of batching).
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Individual columns decoded so far (a range read counts once per
    /// column it covered).
    pub fn columns_read(&self) -> u64 {
        self.columns_read.load(Ordering::Relaxed)
    }

    /// `true` if two reads of the *same column* ever overlapped in time
    /// — evidence that a cache layer above failed to dedup an in-flight
    /// fetch and decoded the column twice.
    pub fn same_column_overlap(&self) -> bool {
        self.overlap.load(Ordering::Relaxed)
    }

    /// How many times column `v` has reached the medium (0 for columns
    /// that were always served from a cache above).
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn reads_of(&self, v: SeriesId) -> u64 {
        self.column_reads[v].load(Ordering::SeqCst)
    }

    fn charge(&self, cols: std::ops::Range<usize>) -> ColumnGuard<'_> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.columns_read
            .fetch_add(cols.len() as u64, Ordering::Relaxed);
        for v in cols.clone() {
            self.column_reads[v].fetch_add(1, Ordering::SeqCst);
            if self.in_column[v].fetch_add(1, Ordering::SeqCst) > 0 {
                self.overlap.store(true, Ordering::SeqCst);
            }
        }
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        ColumnGuard {
            in_column: &self.in_column,
            cols,
        }
    }
}

/// Marks the wrapped columns as no-longer-being-read on drop, so error
/// paths unwind the occupancy counters too.
struct ColumnGuard<'a> {
    in_column: &'a [AtomicU32],
    cols: std::ops::Range<usize>,
}

impl ColumnGuard<'_> {
    /// Release every still-held column up to and including `v`.
    fn release_through(&mut self, v: SeriesId) {
        while self.cols.start <= v && !self.cols.is_empty() {
            self.in_column[self.cols.start].fetch_sub(1, Ordering::SeqCst);
            self.cols.start += 1;
        }
    }
}

impl Drop for ColumnGuard<'_> {
    fn drop(&mut self) {
        for v in self.cols.clone() {
            self.in_column[v].fetch_sub(1, Ordering::SeqCst);
        }
    }
}

impl<B: ColumnRead> ColumnRead for SlowSource<B> {
    fn samples(&self) -> usize {
        self.inner.samples()
    }

    fn series_count(&self) -> usize {
        self.inner.series_count()
    }

    fn read_column(&self, v: SeriesId, out: &mut Vec<f64>) -> Result<(), SourceError> {
        if v >= self.inner.series_count() {
            // Out-of-range requests don't reach the medium; don't charge.
            return self.inner.read_column(v, out);
        }
        let _guard = self.charge(v..v + 1);
        self.inner.read_column(v, out)
    }

    fn read_column_range(
        &self,
        first: usize,
        count: usize,
        sink: &mut dyn FnMut(SeriesId, &[f64]),
    ) -> Result<(), SourceError> {
        let end = first + count;
        if end > self.inner.series_count() {
            return self.inner.read_column_range(first, count, sink);
        }
        // One delay for the whole contiguous region: batched readahead
        // pays the latency once.
        let mut guard = self.charge(first..end);
        // The `read_column_range` contract treats column `v` as
        // delivered once its sink call begins (a cache may admit it and
        // serve or even re-read it from inside the sink), so occupancy
        // ends there, not when the whole range returns.
        self.inner.read_column_range(first, count, &mut |v, col| {
            guard.release_through(v);
            sink(v, col);
        })
    }
}

/// Direct streamed access with the same delay accounting, so the double
/// can also stand in for an uncached on-disk source.
impl<B: ColumnRead> SeriesSource for SlowSource<B> {
    fn samples(&self) -> usize {
        self.inner.samples()
    }

    fn series_count(&self) -> usize {
        self.inner.series_count()
    }

    fn read_into<'a>(
        &'a self,
        v: SeriesId,
        buf: &'a mut Vec<f64>,
    ) -> Result<&'a [f64], SourceError> {
        ColumnRead::read_column(self, v, buf)?;
        Ok(&buf[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DataMatrix;

    fn matrix() -> DataMatrix {
        DataMatrix::from_series(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]])
    }

    #[test]
    fn delegates_and_counts() {
        let slow = SlowSource::new(matrix(), Duration::ZERO);
        let mut buf = Vec::new();
        slow.read_column(0, &mut buf).unwrap();
        slow.read_column(1, &mut buf).unwrap();
        let mut cols = 0;
        slow.read_column_range(0, 2, &mut |_, _| cols += 1).unwrap();
        assert_eq!(cols, 2);
        assert_eq!(slow.reads(), 3, "range read charged once");
        assert_eq!(slow.columns_read(), 4);
        assert!(!slow.same_column_overlap());
        assert_eq!(ColumnRead::samples(&slow), 3);
        assert_eq!(ColumnRead::series_count(&slow), 2);
    }

    #[test]
    fn injects_the_configured_delay() {
        let slow = SlowSource::new(matrix(), Duration::from_millis(5));
        let mut buf = Vec::new();
        let t = std::time::Instant::now();
        slow.read_column(0, &mut buf).unwrap();
        assert!(t.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn out_of_range_is_not_charged() {
        let slow = SlowSource::new(matrix(), Duration::ZERO);
        let mut buf = Vec::new();
        assert!(slow.read_column(9, &mut buf).is_err());
        assert!(slow.read_column_range(1, 9, &mut |_, _| {}).is_err());
        assert_eq!(slow.reads(), 0);
    }

    #[test]
    fn overlap_detector_fires_on_concurrent_same_column_reads() {
        let slow = SlowSource::new(matrix(), Duration::from_millis(10));
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut buf = Vec::new();
                    slow.read_column(0, &mut buf).unwrap();
                });
            }
        });
        assert!(slow.same_column_overlap());
    }

    #[test]
    fn range_read_releases_each_column_at_its_sink_call() {
        let slow = SlowSource::new(matrix(), Duration::ZERO);
        let mut buf = Vec::new();
        slow.read_column_range(0, 2, &mut |v, _| {
            if v == 0 {
                slow.read_column(0, &mut buf).unwrap();
                assert!(!slow.same_column_overlap(), "delivered column flagged");
                slow.read_column(1, &mut buf).unwrap();
                assert!(slow.same_column_overlap(), "undelivered column missed");
            }
        })
        .unwrap();
    }

    #[test]
    fn is_a_series_source() {
        let dm = matrix();
        let slow = SlowSource::new(dm.clone(), Duration::ZERO);
        let mut buf = Vec::new();
        assert_eq!(slow.read_into(1, &mut buf).unwrap(), dm.series(1));
        assert_eq!(slow.inner().series(0), dm.series(0));
    }
}

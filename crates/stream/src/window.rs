//! Fixed-width sliding windows with contiguous views.
//!
//! Each series keeps a `2m` buffer and every sample is written twice, at
//! `pos` and `pos + m`. The live window is then always the contiguous
//! slice `&buf[pos+1 .. pos+1+m]`, so the batch kernels (AFCLST, SYMEX,
//! measures) run on streaming data with zero copies and no branchy ring
//! arithmetic in inner loops — the standard double-write ring-buffer
//! trick, paid for with 2× memory.

use affinity_data::{DataMatrix, SeriesSource, SourceError};

/// Per-series sliding windows over a fixed number of series.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    series: usize,
    width: usize,
    /// `bufs[v]` has `2·width` slots; see module docs.
    bufs: Vec<Vec<f64>>,
    /// Next write position in `0..width`.
    pos: usize,
    /// Total samples ingested.
    ticks: u64,
}

impl SlidingWindow {
    /// Create windows for `series` series of `width` samples each.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(series: usize, width: usize) -> Self {
        assert!(
            series > 0 && width > 0,
            "window dimensions must be positive"
        );
        SlidingWindow {
            series,
            width,
            bufs: vec![vec![0.0; 2 * width]; series],
            pos: 0,
            ticks: 0,
        }
    }

    /// Pre-fill from the trailing `width` samples of a data matrix.
    ///
    /// # Panics
    /// Panics if the matrix has fewer samples than the window width or a
    /// different series count.
    pub fn from_matrix(data: &DataMatrix, width: usize) -> Self {
        assert!(
            data.samples() >= width,
            "matrix has {} samples, window needs {width}",
            data.samples()
        );
        let mut w = SlidingWindow::new(data.series_count(), width);
        let start = data.samples() - width;
        for i in start..data.samples() {
            let tick: Vec<f64> = (0..data.series_count())
                .map(|v| data.series(v)[i])
                .collect();
            w.push(&tick);
        }
        w
    }

    /// Warm-start a window from the trailing `width` samples of any
    /// [`SeriesSource`], one column at a time — so a streaming engine
    /// can boot from an on-disk store whose full history never fits in
    /// memory: only the window itself (the engine's working set anyway)
    /// is materialized. The result is exactly the state `width` pushes
    /// of the trailing ticks would have produced.
    ///
    /// # Errors
    /// Propagates fetch failures; rejects sources with fewer than
    /// `width` samples (as a [`SourceError::Backend`]).
    ///
    /// # Panics
    /// Panics if `width` is zero.
    pub fn warm_from_source<S: SeriesSource + ?Sized>(
        width: usize,
        source: &S,
    ) -> Result<Self, SourceError> {
        let m = source.samples();
        if m < width {
            return Err(SourceError::Backend(format!(
                "source has {m} samples, window needs {width}"
            )));
        }
        let n = source.series_count();
        let mut w = SlidingWindow::new(n, width);
        let mut buf = Vec::new();
        // One strictly sequential sweep over every column — announce it
        // a sliding window ahead so a caching source reads the
        // contiguous trailing region in few requests.
        let scan = affinity_data::source::scan_sequence(n);
        for v in 0..n {
            affinity_data::source::prefetch_window(source, &scan, v);
            let s = source.read_into(v, &mut buf)?;
            let tail = &s[m - width..];
            w.bufs[v][..width].copy_from_slice(tail);
            w.bufs[v][width..].copy_from_slice(tail);
        }
        // Equivalent to `width` pushes from a fresh window: pos wrapped
        // back to 0, every slot double-written, tick count = width.
        w.pos = 0;
        w.ticks = width as u64;
        Ok(w)
    }

    /// Overwrite the tick counter after restoring contents from a
    /// snapshot ([`SlidingWindow::from_matrix`] leaves it at `width`;
    /// the persisted engine had ingested more). Public so downstream
    /// resume paths (e.g. the sharded streaming engine) can rebuild the
    /// exact pre-crash window state from their own snapshot formats.
    pub fn restore_ticks(&mut self, ticks: u64) {
        debug_assert!(ticks >= self.width as u64, "restored window must be warm");
        self.ticks = ticks;
    }

    /// Number of series.
    pub fn series_count(&self) -> usize {
        self.series
    }

    /// Window width `m`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total ticks ingested since creation.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// `true` once at least `width` ticks have been ingested (the window
    /// holds only real data).
    pub fn is_warm(&self) -> bool {
        self.ticks >= self.width as u64
    }

    /// Ingest one sample per series.
    ///
    /// # Panics
    /// Panics if `tick.len() != series_count()`.
    pub fn push(&mut self, tick: &[f64]) {
        assert_eq!(tick.len(), self.series, "tick arity mismatch");
        for (buf, &x) in self.bufs.iter_mut().zip(tick) {
            buf[self.pos] = x;
            buf[self.pos + self.width] = x;
        }
        self.pos = (self.pos + 1) % self.width;
        self.ticks += 1;
    }

    /// The value evicted by the *next* push for series `v` (the oldest
    /// in-window sample) — what rolling statistics must subtract.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn oldest(&self, v: usize) -> f64 {
        self.bufs[v][self.pos + self.width]
    }

    /// Contiguous view of the current window of series `v`, oldest first.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn series(&self, v: usize) -> &[f64] {
        &self.bufs[v][self.pos..self.pos + self.width]
    }

    /// Snapshot the whole window as a [`DataMatrix`] (copies; used at
    /// model-refresh time).
    pub fn snapshot(&self) -> DataMatrix {
        DataMatrix::from_series((0..self.series).map(|v| self.series(v).to_vec()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_contains_last_m_samples_in_order() {
        let mut w = SlidingWindow::new(2, 4);
        for i in 0..10 {
            w.push(&[i as f64, -(i as f64)]);
        }
        assert_eq!(w.series(0), &[6.0, 7.0, 8.0, 9.0]);
        assert_eq!(w.series(1), &[-6.0, -7.0, -8.0, -9.0]);
        assert_eq!(w.ticks(), 10);
        assert!(w.is_warm());
    }

    #[test]
    fn window_is_contiguous_at_every_phase() {
        let m = 5;
        let mut w = SlidingWindow::new(1, m);
        for i in 0..23 {
            w.push(&[i as f64]);
            if w.is_warm() {
                let s = w.series(0);
                assert_eq!(s.len(), m);
                // Strictly increasing by construction.
                assert!(s.windows(2).all(|p| p[1] == p[0] + 1.0), "{s:?}");
                assert_eq!(s[m - 1], i as f64);
            }
        }
    }

    #[test]
    fn oldest_tracks_eviction() {
        let mut w = SlidingWindow::new(1, 3);
        for i in 0..5 {
            w.push(&[i as f64]);
        }
        // Window is [2, 3, 4]; the next push evicts 2.
        assert_eq!(w.oldest(0), 2.0);
        w.push(&[5.0]);
        assert_eq!(w.series(0), &[3.0, 4.0, 5.0]);
        assert_eq!(w.oldest(0), 3.0);
    }

    #[test]
    fn from_matrix_takes_trailing_window() {
        let dm = DataMatrix::from_series(vec![(0..8).map(|i| i as f64).collect()]);
        let w = SlidingWindow::from_matrix(&dm, 3);
        assert_eq!(w.series(0), &[5.0, 6.0, 7.0]);
        assert!(w.is_warm());
    }

    #[test]
    fn snapshot_round_trips() {
        let mut w = SlidingWindow::new(3, 4);
        for i in 0..7 {
            w.push(&[i as f64, 2.0 * i as f64, 0.5]);
        }
        let dm = w.snapshot();
        assert_eq!(dm.series_count(), 3);
        assert_eq!(dm.samples(), 4);
        assert_eq!(dm.series(0), w.series(0));
        assert_eq!(dm.series(1), w.series(1));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_panics() {
        SlidingWindow::new(2, 4).push(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_panics() {
        SlidingWindow::new(1, 0);
    }
}

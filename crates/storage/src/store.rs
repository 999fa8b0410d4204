//! The matrix store file format and reader/writer.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   8 bytes  "AFNSTORE"
//! version u32
//! samples u64      (m)
//! series  u64      (n)
//! labels  n × (u32 length + utf8 bytes), crc32 over the whole block
//! columns n × (m × f64 + u32 crc32 of the column bytes)
//! ```
//!
//! Columns are fixed-size, so series `v` lives at a computable offset —
//! random access without an index block.

use crate::crc::{crc32, Crc32};
use crate::layout::{le_f64, le_u32, SizeCheck};
use affinity_data::{ColumnRead, DataMatrix, SeriesSource, SourceError};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Current on-disk format version.
pub const FORMAT_VERSION: u32 = 1;

const MAGIC: &[u8; 8] = b"AFNSTORE";

/// Errors raised by the matrix store.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the expected magic.
    BadMagic,
    /// Unsupported format version.
    UnsupportedVersion(u32),
    /// A checksum did not match; carries a description of the block.
    ChecksumMismatch(String),
    /// A series index outside `0..n`.
    SeriesOutOfRange {
        /// Requested index.
        requested: usize,
        /// Stored series count.
        available: usize,
    },
    /// Structurally invalid file (truncated, bad label encoding, …).
    Corrupt(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage i/o error: {e}"),
            StorageError::BadMagic => write!(f, "not an AFNSTORE file"),
            StorageError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            StorageError::ChecksumMismatch(what) => write!(f, "checksum mismatch in {what}"),
            StorageError::SeriesOutOfRange {
                requested,
                available,
            } => write!(f, "series {requested} out of range ({available} stored)"),
            StorageError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// The [`SeriesSource`] view of a storage failure: bad indices map to
/// [`SourceError::OutOfRange`], everything else (I/O, checksum,
/// corruption) to [`SourceError::Backend`]. Shared by every source in
/// this crate.
impl From<StorageError> for SourceError {
    fn from(e: StorageError) -> Self {
        match e {
            StorageError::SeriesOutOfRange {
                requested,
                available,
            } => SourceError::OutOfRange {
                requested,
                available,
            },
            other => SourceError::Backend(other.to_string()),
        }
    }
}

/// A read handle on a stored data matrix.
#[derive(Debug)]
pub struct MatrixStore {
    path: PathBuf,
    samples: usize,
    series: usize,
    labels: Vec<String>,
    /// Byte offset of the first column chunk.
    columns_start: u64,
}

impl MatrixStore {
    /// Serialize a data matrix to `path` (overwrites).
    ///
    /// ```
    /// use affinity_data::generator::{sensor_dataset, SensorConfig};
    /// use affinity_storage::MatrixStore;
    ///
    /// let path = std::env::temp_dir().join("affinity-create-doc.afn");
    /// let data = sensor_dataset(&SensorConfig::reduced(5, 24));
    /// MatrixStore::create(&path, &data).unwrap();
    /// let back = MatrixStore::open(&path).unwrap().read_all().unwrap();
    /// assert_eq!(back, data);
    /// # std::fs::remove_file(&path).ok();
    /// ```
    ///
    /// # Errors
    /// I/O failures.
    pub fn create<P: AsRef<Path>>(path: P, data: &DataMatrix) -> Result<(), StorageError> {
        let f = File::create(path.as_ref())?;
        let mut w = BufWriter::new(f);
        w.write_all(MAGIC)?;
        w.write_all(&FORMAT_VERSION.to_le_bytes())?;
        w.write_all(&(data.samples() as u64).to_le_bytes())?;
        w.write_all(&(data.series_count() as u64).to_le_bytes())?;
        // Label block with trailing crc.
        let mut label_block = Vec::new();
        for v in 0..data.series_count() {
            let bytes = data.label(v).as_bytes();
            label_block.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            label_block.extend_from_slice(bytes);
        }
        w.write_all(&(label_block.len() as u64).to_le_bytes())?;
        w.write_all(&label_block)?;
        w.write_all(&crc32(&label_block).to_le_bytes())?;
        // Column chunks.
        let mut buf = Vec::with_capacity(data.samples() * 8);
        for v in 0..data.series_count() {
            buf.clear();
            for x in data.series(v) {
                buf.extend_from_slice(&x.to_le_bytes());
            }
            w.write_all(&buf)?;
            w.write_all(&crc32(&buf).to_le_bytes())?;
        }
        w.flush()?;
        Ok(())
    }

    /// Open a store and parse its header and labels.
    ///
    /// The header's dimensions are validated against the file's actual
    /// size *before* any size-dependent allocation, so a corrupted
    /// length field (absurd `samples`, `series` or label-block length)
    /// is reported as [`StorageError::Corrupt`] instead of attempting a
    /// huge allocation or reading garbage offsets.
    ///
    /// ```
    /// use affinity_data::generator::{sensor_dataset, SensorConfig};
    /// use affinity_storage::MatrixStore;
    ///
    /// let path = std::env::temp_dir().join("affinity-open-doc.afn");
    /// let data = sensor_dataset(&SensorConfig::reduced(4, 16));
    /// MatrixStore::create(&path, &data).unwrap();
    /// let store = MatrixStore::open(&path).unwrap();
    /// assert_eq!((store.series_count(), store.samples()), (4, 16));
    /// # std::fs::remove_file(&path).ok();
    /// ```
    ///
    /// # Errors
    /// See [`StorageError`].
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, StorageError> {
        let f = File::open(path.as_ref())?;
        let file_len = f.metadata()?.len();
        let mut r = BufReader::new(f);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(StorageError::BadMagic);
        }
        let version = read_u32(&mut r)?;
        if version != FORMAT_VERSION {
            return Err(StorageError::UnsupportedVersion(version));
        }
        let samples64 = read_u64(&mut r)?;
        let series64 = read_u64(&mut r)?;
        if samples64 == 0 || series64 == 0 {
            return Err(StorageError::Corrupt("zero dimensions".into()));
        }
        let label_len64 = read_u64(&mut r)?;
        // Whole-file size check from the four header integers alone,
        // via the shared checked-arithmetic helper (a corrupted count
        // must not overflow into a "valid" size). Layout: fixed header
        // + label crc (40 bytes), label block, then `series` column
        // chunks of `samples·8 + 4` bytes.
        SizeCheck::new()
            .add(8 + 4 + 8 + 8 + 8 + 4)
            .add(label_len64)
            .add_mul3(series64, samples64, 8)
            .add_mul(series64, 4)
            .require(file_len, "store header")
            .map_err(StorageError::Corrupt)?;
        let samples = samples64 as usize;
        let series = series64 as usize;
        let label_len = label_len64 as usize;
        let mut label_block = vec![0u8; label_len];
        r.read_exact(&mut label_block)?;
        let stored_crc = read_u32(&mut r)?;
        if crc32(&label_block) != stored_crc {
            return Err(StorageError::ChecksumMismatch("label block".into()));
        }
        let mut labels = Vec::with_capacity(series);
        let mut cursor = 0usize;
        for i in 0..series {
            // Bounds-checked framing: every read goes through `get` /
            // `checked_add`, so a lying label length is a typed error.
            let truncated = || StorageError::Corrupt(format!("label {i} truncated"));
            let len = le_u32(&label_block, cursor).ok_or_else(truncated)? as usize;
            cursor = cursor.checked_add(4).ok_or_else(truncated)?;
            let end = cursor.checked_add(len).ok_or_else(truncated)?;
            let raw = label_block.get(cursor..end).ok_or_else(truncated)?;
            let s = std::str::from_utf8(raw)
                .map_err(|_| StorageError::Corrupt(format!("label {i} not utf-8")))?;
            labels.push(s.to_string());
            cursor = end;
        }
        if cursor != label_block.len() {
            return Err(StorageError::Corrupt(
                "trailing bytes in label block".into(),
            ));
        }
        // Fixed 40-byte preamble (magic, version, dims, label CRC) +
        // label block; label_len64 ≤ file_len was proven by the
        // SizeCheck above, and the checked add keeps that visible.
        let columns_start = label_len64
            .checked_add(40)
            .ok_or_else(|| StorageError::Corrupt("store header overflow".into()))?;
        Ok(MatrixStore {
            path: path.as_ref().to_path_buf(),
            samples,
            series,
            labels,
            columns_start,
        })
    }

    /// Bytes of one on-disk column (`samples · 8` data + 4 CRC), as
    /// `u64` for seek offsets. The open-time [`SizeCheck`] proved
    /// `series · (samples·8 + 4)` fits the real file length, so this
    /// arithmetic cannot overflow.
    fn chunk_bytes64(&self) -> u64 {
        // afflint: allow(len-arith) -- samples·8+4 ≤ file_len proven by the open-time SizeCheck; sole place column geometry is computed
        (self.samples * 8 + 4) as u64
    }

    /// Samples per series (`m`).
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Number of stored series (`n`).
    pub fn series_count(&self) -> usize {
        self.series
    }

    /// Stored labels.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Read one series into a fresh vector, verifying its checksum.
    /// Thin wrapper over [`MatrixStore::read_series_into`]; streaming
    /// callers should pass their own buffer to avoid the per-column
    /// allocation.
    ///
    /// # Errors
    /// See [`StorageError`].
    pub fn read_series(&self, v: usize) -> Result<Vec<f64>, StorageError> {
        let mut out = Vec::new();
        self.read_series_into(v, &mut out)?;
        Ok(out)
    }

    /// Read one series into `out` (cleared and refilled, reusing its
    /// allocation), verifying its checksum. This is the allocation-free
    /// primitive the streamed model-construction path runs on: bytes
    /// are decoded through a fixed stack scratch, so a fetch costs one
    /// `open` + `seek` + sequential read and zero heap traffic once
    /// `out` has warmed up to `samples()` capacity.
    ///
    /// ```
    /// use affinity_data::generator::{sensor_dataset, SensorConfig};
    /// use affinity_storage::MatrixStore;
    ///
    /// let path = std::env::temp_dir().join("affinity-read-into-doc.afn");
    /// let data = sensor_dataset(&SensorConfig::reduced(3, 32));
    /// MatrixStore::create(&path, &data).unwrap();
    /// let store = MatrixStore::open(&path).unwrap();
    /// let mut buf = Vec::new();
    /// for v in 0..3 {
    ///     store.read_series_into(v, &mut buf).unwrap();
    ///     assert_eq!(buf, data.series(v));
    /// }
    /// # std::fs::remove_file(&path).ok();
    /// ```
    ///
    /// # Errors
    /// See [`StorageError`].
    pub fn read_series_into(&self, v: usize, out: &mut Vec<f64>) -> Result<(), StorageError> {
        let mut f = self.open_at(v, 1)?;
        self.read_chunk(&mut f, v, out)
    }

    /// Open the file positioned at column `first`, after checking that
    /// the region `first .. first + count` (non-empty) is stored.
    fn open_at(&self, first: usize, count: usize) -> Result<File, StorageError> {
        if first >= self.series || count == 0 || count > self.series - first {
            return Err(StorageError::SeriesOutOfRange {
                requested: first.saturating_add(count.max(1) - 1),
                available: self.series,
            });
        }
        let mut f = File::open(&self.path)?;
        f.seek(SeekFrom::Start(
            self.columns_start + first as u64 * self.chunk_bytes64(),
        ))?;
        Ok(f)
    }

    /// Read the column chunk at `f`'s position (series `v`) into `out`,
    /// verifying its checksum. Bytes are decoded through a fixed stack
    /// scratch, so no chunk-sized byte buffer is ever allocated.
    fn read_chunk(&self, f: &mut File, v: usize, out: &mut Vec<f64>) -> Result<(), StorageError> {
        out.clear();
        out.reserve(self.samples);
        let mut hasher = Crc32::new();
        // afflint: allow(len-arith) -- samples·8 ≤ file_len was proven by the open-time SizeCheck
        let mut remaining = self.samples * 8;
        // Multiple of 8 so no f64 straddles a scratch boundary.
        let mut scratch = [0u8; 8192];
        while remaining > 0 {
            let take = remaining.min(scratch.len());
            // afflint: allow(panic) -- take = remaining.min(scratch.len()) ≤ scratch.len(); the window is in bounds by construction
            let window = &mut scratch[..take];
            f.read_exact(window)?;
            hasher.update(window);
            out.extend(window.chunks_exact(8).map(le_f64));
            remaining -= take;
        }
        let stored_crc = {
            let mut b = [0u8; 4];
            f.read_exact(&mut b)?;
            u32::from_le_bytes(b)
        };
        if hasher.finalize() != stored_crc {
            out.clear(); // don't hand corrupt data back
            return Err(StorageError::ChecksumMismatch(format!("series {v}")));
        }
        Ok(())
    }

    /// Read the whole matrix back, verifying every chunk.
    ///
    /// # Errors
    /// See [`StorageError`].
    pub fn read_all(&self) -> Result<DataMatrix, StorageError> {
        let mut f = BufReader::new(File::open(&self.path)?);
        f.seek(SeekFrom::Start(self.columns_start))?;
        let mut columns = Vec::with_capacity(self.series);
        // afflint: allow(len-arith) -- samples·8 ≤ file_len was proven by the open-time SizeCheck
        let mut buf = vec![0u8; self.samples * 8];
        for v in 0..self.series {
            f.read_exact(&mut buf)?;
            let mut crcb = [0u8; 4];
            f.read_exact(&mut crcb)?;
            let mut h = Crc32::new();
            h.update(&buf);
            if h.finalize() != u32::from_le_bytes(crcb) {
                return Err(StorageError::ChecksumMismatch(format!("series {v}")));
            }
            columns.push(buf.chunks_exact(8).map(le_f64).collect());
        }
        let mut dm = DataMatrix::from_series(columns);
        dm.set_labels(self.labels.clone());
        Ok(dm)
    }
}

/// A [`MatrixStore`] is a streaming [`SeriesSource`]: each fetch is one
/// checksummed column read straight from disk, so model construction
/// can run without ever materializing the matrix. Wrap it in a
/// [`crate::CachedStore`] to amortize repeated fetches under a memory
/// budget.
impl SeriesSource for MatrixStore {
    fn samples(&self) -> usize {
        self.samples
    }

    fn series_count(&self) -> usize {
        self.series
    }

    fn read_into<'a>(&'a self, v: usize, buf: &'a mut Vec<f64>) -> Result<&'a [f64], SourceError> {
        self.read_series_into(v, buf)?;
        Ok(buf.as_slice())
    }
}

/// The owned-buffer backing contract cache layers consume: single reads
/// delegate to [`MatrixStore::read_series_into`]; region reads open and
/// seek once, then verify and hand over one column at a time.
impl ColumnRead for MatrixStore {
    fn samples(&self) -> usize {
        self.samples
    }

    fn series_count(&self) -> usize {
        self.series
    }

    fn read_column(&self, v: usize, out: &mut Vec<f64>) -> Result<(), SourceError> {
        self.read_series_into(v, out)?;
        Ok(())
    }

    /// Column chunks are fixed-size and adjacent on disk, so the region
    /// is one `open` + `seek` followed by sequential reads — on
    /// seek-dominated media about the cost of a single column. Only
    /// verified columns reach `sink`: a checksum mismatch stops the
    /// read at that column. An empty or out-of-range region is
    /// [`SourceError::OutOfRange`].
    fn read_column_range(
        &self,
        first: usize,
        count: usize,
        sink: &mut dyn FnMut(usize, &[f64]),
    ) -> Result<(), SourceError> {
        let mut f = self.open_at(first, count)?;
        let mut col = Vec::new();
        for v in (first..).take(count) {
            self.read_chunk(&mut f, v, &mut col)?;
            sink(v, &col);
        }
        Ok(())
    }
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, StorageError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, StorageError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use affinity_data::generator::{sensor_dataset, SensorConfig};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("affinity-storage-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_whole_matrix() {
        let data = sensor_dataset(&SensorConfig::reduced(6, 40));
        let path = tmp("roundtrip.afn");
        MatrixStore::create(&path, &data).unwrap();
        let store = MatrixStore::open(&path).unwrap();
        assert_eq!(store.samples(), 40);
        assert_eq!(store.series_count(), 6);
        let back = store.read_all().unwrap();
        assert_eq!(back, data);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn random_access_single_series() {
        let data = sensor_dataset(&SensorConfig::reduced(9, 24));
        let path = tmp("random.afn");
        MatrixStore::create(&path, &data).unwrap();
        let store = MatrixStore::open(&path).unwrap();
        for v in [0usize, 4, 8] {
            assert_eq!(store.read_series(v).unwrap(), data.series(v));
        }
        assert!(matches!(
            store.read_series(9),
            Err(StorageError::SeriesOutOfRange { requested: 9, .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn labels_survive() {
        let mut data = sensor_dataset(&SensorConfig::reduced(3, 8));
        data.set_labels(vec!["α-temp".into(), "β-hum".into(), "γ".into()]);
        let path = tmp("labels.afn");
        MatrixStore::create(&path, &data).unwrap();
        let store = MatrixStore::open(&path).unwrap();
        assert_eq!(store.labels()[0], "α-temp");
        assert_eq!(store.read_all().unwrap().label(1), "β-hum");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_is_detected() {
        let data = sensor_dataset(&SensorConfig::reduced(4, 16));
        let path = tmp("corrupt.afn");
        MatrixStore::create(&path, &data).unwrap();
        // Flip one byte inside the third column chunk.
        let mut bytes = std::fs::read(&path).unwrap();
        let store = MatrixStore::open(&path).unwrap();
        let offset = store.columns_start as usize + 2 * (16 * 8 + 4) + 7;
        bytes[offset] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let store = MatrixStore::open(&path).unwrap();
        assert!(store.read_series(0).is_ok());
        assert!(matches!(
            store.read_series(2),
            Err(StorageError::ChecksumMismatch(_))
        ));
        assert!(matches!(
            store.read_all(),
            Err(StorageError::ChecksumMismatch(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_and_version() {
        let path = tmp("magic.afn");
        std::fs::write(&path, b"NOTAFILE________").unwrap();
        assert!(matches!(
            MatrixStore::open(&path),
            Err(StorageError::BadMagic)
        ));
        // Valid magic, bogus version.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 32]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            MatrixStore::open(&path),
            Err(StorageError::UnsupportedVersion(99))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_corrupt_not_panicky() {
        let data = sensor_dataset(&SensorConfig::reduced(4, 16));
        let path = tmp("trunc.afn");
        MatrixStore::create(&path, &data).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 40]).unwrap();
        // The whole-file size check catches the truncation at open time.
        assert!(matches!(
            MatrixStore::open(&path),
            Err(StorageError::Corrupt(_))
        ));
        // A file truncated *after* a successful open (e.g. concurrent
        // rewrite) still fails cleanly at read time.
        std::fs::write(&path, &bytes).unwrap();
        let store = MatrixStore::open(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 40]).unwrap();
        match store.read_all() {
            Err(StorageError::Io(_)) | Err(StorageError::ChecksumMismatch(_)) => {}
            other => panic!("unexpected: {other:?}"),
        }
        match store.read_series(3) {
            Err(StorageError::Io(_)) | Err(StorageError::ChecksumMismatch(_)) => {}
            other => panic!("unexpected: {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// Overwrite the 8-byte little-endian field at `offset` in the
    /// header of a valid store file.
    fn patch_header_u64(path: &PathBuf, offset: usize, value: u64) {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
        std::fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn corrupted_length_headers_are_rejected_without_allocation() {
        // Header layout: magic 8, version 4, samples u64 @12,
        // series u64 @20, label_len u64 @28.
        let data = sensor_dataset(&SensorConfig::reduced(4, 16));
        for (offset, bogus) in [
            (12, 0u64),           // zero samples
            (20, 0),              // zero series
            (12, u64::MAX / 9),   // absurd samples: would overflow offsets
            (20, u64::MAX / 5),   // absurd series
            (28, u64::MAX - 100), // absurd label block: would OOM if allocated
            (12, 17),             // plausible but wrong samples
            (20, 40),             // plausible but wrong series
            (28, 1 << 20),        // plausible but wrong label length
        ] {
            let path = tmp(&format!("hdr-{offset}-{bogus}.afn"));
            MatrixStore::create(&path, &data).unwrap();
            patch_header_u64(&path, offset, bogus);
            assert!(
                matches!(MatrixStore::open(&path), Err(StorageError::Corrupt(_))),
                "offset {offset} value {bogus} must be Corrupt"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn zero_sample_header_is_corrupt() {
        // A zero-sample matrix cannot be created through the API
        // (`DataMatrix` forbids it), so a file claiming one is corrupt
        // by construction — the streamed pipeline must see an error,
        // not a 0-length column.
        let data = sensor_dataset(&SensorConfig::reduced(3, 8));
        let path = tmp("zero-samples.afn");
        MatrixStore::create(&path, &data).unwrap();
        patch_header_u64(&path, 12, 0);
        let err = MatrixStore::open(&path).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_series_into_reuses_the_buffer() {
        let data = sensor_dataset(&SensorConfig::reduced(6, 2000));
        let path = tmp("reuse.afn");
        MatrixStore::create(&path, &data).unwrap();
        let store = MatrixStore::open(&path).unwrap();
        let mut buf = Vec::new();
        store.read_series_into(0, &mut buf).unwrap();
        assert_eq!(buf, data.series(0));
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        for v in 1..6 {
            store.read_series_into(v, &mut buf).unwrap();
            assert_eq!(buf, data.series(v));
        }
        assert_eq!(buf.capacity(), cap, "no reallocation across columns");
        assert_eq!(buf.as_ptr(), ptr, "same backing allocation");
        assert!(matches!(
            store.read_series_into(6, &mut buf),
            Err(StorageError::SeriesOutOfRange { requested: 6, .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    /// Every column `read_column_range` hands to its sink, in order.
    fn range(store: &MatrixStore, first: usize, count: usize) -> (Vec<(usize, Vec<f64>)>, bool) {
        let mut seen = Vec::new();
        let ok = ColumnRead::read_column_range(store, first, count, &mut |v, col| {
            seen.push((v, col.to_vec()));
        })
        .is_ok();
        (seen, ok)
    }

    #[test]
    fn range_read_matches_single_reads() {
        let data = sensor_dataset(&SensorConfig::reduced(7, 30));
        let path = tmp("range.afn");
        MatrixStore::create(&path, &data).unwrap();
        let store = MatrixStore::open(&path).unwrap();
        // Every valid (first, count) region.
        for first in 0..7 {
            for count in 1..=7 - first {
                let (seen, ok) = range(&store, first, count);
                assert!(ok, "region ({first}, {count})");
                assert_eq!(seen.len(), count);
                for (c, (v, col)) in seen.iter().enumerate() {
                    assert_eq!(*v, first + c);
                    assert_eq!(col, data.series(first + c), "region ({first}, {count})");
                }
            }
        }
        // Out-of-range and empty regions are errors, not panics, and
        // reach no sink.
        for (first, count) in [(0, 8), (6, 2), (7, 1), (3, 0), (usize::MAX, 2)] {
            let mut sunk = 0;
            assert!(matches!(
                ColumnRead::read_column_range(&store, first, count, &mut |_, _| sunk += 1),
                Err(SourceError::OutOfRange { .. })
            ));
            assert_eq!(sunk, 0);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn range_read_detects_corruption_and_clears_the_buffer() {
        let data = sensor_dataset(&SensorConfig::reduced(5, 16));
        let path = tmp("range-corrupt.afn");
        MatrixStore::create(&path, &data).unwrap();
        let store = MatrixStore::open(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let offset = store.columns_start as usize + 3 * (16 * 8 + 4) + 5;
        bytes[offset] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        // Region before the corruption is fine.
        assert!(range(&store, 0, 3).1);
        // Region covering column 3 fails there: the columns before it
        // reach the sink, the corrupt one and those after it do not.
        let mut seen = Vec::new();
        let err = ColumnRead::read_column_range(&store, 1, 4, &mut |v, col| {
            seen.push((v, col.to_vec()));
        })
        .unwrap_err();
        assert!(err.to_string().contains("series 3"), "{err}");
        let expected: Vec<_> = [1, 2].map(|v| (v, data.series(v).to_vec())).into();
        assert_eq!(seen, expected, "no partially verified data");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn column_read_range_goes_through_the_bulk_path() {
        let data = sensor_dataset(&SensorConfig::reduced(6, 24));
        let path = tmp("colread.afn");
        MatrixStore::create(&path, &data).unwrap();
        let store = MatrixStore::open(&path).unwrap();
        let mut seen = Vec::new();
        ColumnRead::read_column_range(&store, 1, 4, &mut |v, col| {
            seen.push((v, col.to_vec()));
        })
        .unwrap();
        assert_eq!(seen.len(), 4);
        for (i, (v, col)) in seen.iter().enumerate() {
            assert_eq!(*v, 1 + i);
            assert_eq!(col, data.series(1 + i));
        }
        let mut out = Vec::new();
        ColumnRead::read_column(&store, 5, &mut out).unwrap();
        assert_eq!(out, data.series(5));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn store_is_a_series_source() {
        let data = sensor_dataset(&SensorConfig::reduced(5, 33));
        let path = tmp("source.afn");
        MatrixStore::create(&path, &data).unwrap();
        let store = MatrixStore::open(&path).unwrap();
        assert_eq!(SeriesSource::samples(&store), 33);
        assert_eq!(SeriesSource::series_count(&store), 5);
        let mut buf = Vec::new();
        for v in 0..5 {
            assert_eq!(store.read_into(v, &mut buf).unwrap(), data.series(v));
        }
        assert!(matches!(
            store.read_into(5, &mut buf),
            Err(SourceError::OutOfRange { requested: 5, .. })
        ));
        let back = SeriesSource::materialize(&store).unwrap();
        assert_eq!(back.as_slice(), data.as_slice());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn error_display() {
        let e = StorageError::ChecksumMismatch("series 3".into());
        assert!(e.to_string().contains("series 3"));
        assert!(StorageError::BadMagic.to_string().contains("AFNSTORE"));
    }
}

//! Byte-exact serialization of the core model objects.
//!
//! This module is the innermost layer of the snapshot/journal
//! persistence stack: it turns an [`AffineSet`] into opaque bytes and
//! back, **bit-identically** — every `f64` travels via
//! [`f64::to_bits`]-equivalent little-endian encoding, so a model
//! restored from a snapshot answers every query with exactly the bits
//! the freshly built model would produce (signed zeros and all).
//!
//! Framing, checksums and atomic commit live one layer down in
//! `affinity_storage`; this codec is deliberately checksum-free and
//! instead does *structural* validation: every count is checked against
//! the remaining input before allocation (no OOM on absurd values) and
//! every cross-reference (cluster ids, pivot ids, pair membership) is
//! range-checked, so corrupt bytes that survive the outer CRCs still
//! surface as a typed [`DecodeError`] — never a panic.
//!
//! The [`ByteWriter`]/[`ByteReader`] primitives are shared by the
//! `affinity_scape` index codec and the `affinity_stream` journal
//! records, keeping one wire dialect across the whole stack.

use crate::afclst::ClusterModel;
use crate::affine::{AffineRelationship, PivotPair, SeriesRelationship};
use crate::hash::FxHashMap;
use crate::symex::AffineSet;
use affinity_data::SequencePair;

/// Codec version embedded in every [`AffineSet`] payload.
pub const AFFINE_CODEC_VERSION: u8 = 1;

/// Errors raised while decoding persisted model bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the structure did.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// Structurally invalid input (bad counts, dangling references, …).
    Corrupt(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated payload: needed {needed} bytes, had {available}"
                )
            }
            DecodeError::Corrupt(msg) => write!(f, "corrupt payload: {msg}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Little-endian byte sink for model payloads.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Fresh empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Fresh writer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as `u64`.
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f64` bit pattern (sign of zero and NaN payloads
    /// survive).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a slice of `f64` bit patterns.
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.buf.reserve(vs.len() * 8);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Append a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Finish and take the bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Little-endian cursor over a persisted payload. Every read is
/// bounds-checked; count-prefixed reads verify the count against the
/// remaining bytes *before* allocating.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Start reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        // Bounds via `checked_add` + `get`: a lying length is a typed
        // `Truncated`, never a panic or a wrapped offset.
        let truncated = Err(DecodeError::Truncated {
            needed: n,
            available: self.remaining(),
        });
        let Some(end) = self.pos.checked_add(n) else {
            return truncated;
        };
        let Some(s) = self.buf.get(self.pos..end) else {
            return truncated;
        };
        self.pos = end;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(fixed(self.take(4)?)))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(fixed(self.take(8)?)))
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(fixed(self.take(8)?)))
    }

    /// Read a bool byte; anything other than 0/1 is corrupt.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::Corrupt(format!("invalid bool byte {other}"))),
        }
    }

    /// Read a `u64` that must fit the platform `usize`.
    // `len` decodes a length field from the wire; it is not the
    // container-size accessor clippy pairs with `is_empty`.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> Result<usize, DecodeError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| DecodeError::Corrupt(format!("length {v} exceeds usize")))
    }

    /// Read a `u64` count for elements of `elem_bytes` each, verifying
    /// the promised payload fits the remaining input before any
    /// allocation — the in-memory twin of the storage layer's
    /// whole-file size check.
    pub fn checked_count(&mut self, elem_bytes: usize, what: &str) -> Result<usize, DecodeError> {
        let count = self.len()?;
        let promised = count
            .checked_mul(elem_bytes)
            .ok_or_else(|| DecodeError::Corrupt(format!("{what} count {count} overflows")))?;
        if promised > self.remaining() {
            return Err(DecodeError::Corrupt(format!(
                "{what} count {count} ({promised} bytes) exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(count)
    }

    /// Read `count` `f64` bit patterns (the caller obtained `count`
    /// via [`ByteReader::checked_count`] or equivalent validation).
    pub fn f64_vec(&mut self, count: usize) -> Result<Vec<f64>, DecodeError> {
        let bytes = self.take(
            count
                .checked_mul(8)
                .ok_or_else(|| DecodeError::Corrupt(format!("f64 count {count} overflows")))?,
        )?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(fixed(c)))
            .collect())
    }

    /// Require the input to be fully consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::Corrupt(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Zero-extend a byte slice into a fixed array — the panic-free spine
/// of every fixed-width read in this module (`take(N)` guarantees the
/// width; short input zero-fills rather than panicking).
fn fixed<const N: usize>(s: &[u8]) -> [u8; N] {
    let mut a = [0u8; N];
    for (d, src) in a.iter_mut().zip(s) {
        *d = *src;
    }
    a
}

/// Encode one [`AffineRelationship`] (pivot inline). Shared by the
/// affine-set payload and the streaming journal records.
pub fn put_relationship(w: &mut ByteWriter, rel: &AffineRelationship) {
    w.put_len(rel.pair.u);
    w.put_len(rel.pair.v);
    w.put_len(rel.pivot.common);
    w.put_len(rel.pivot.cluster);
    w.put_len(rel.common);
    for row in &rel.a {
        for &val in row {
            w.put_f64(val);
        }
    }
    for &val in &rel.b {
        w.put_f64(val);
    }
}

/// Bytes one encoded [`AffineRelationship`] occupies.
pub const RELATIONSHIP_BYTES: usize = 5 * 8 + 6 * 8;

/// Decode one [`AffineRelationship`], validating pair ordering and
/// common-series membership (cross-references against a concrete model
/// are the caller's job).
///
/// # Errors
/// [`DecodeError`] on truncation or structural violations.
pub fn get_relationship(r: &mut ByteReader<'_>) -> Result<AffineRelationship, DecodeError> {
    let u = r.len()?;
    let v = r.len()?;
    if u >= v {
        return Err(DecodeError::Corrupt(format!(
            "relationship pair ({u}, {v}) not strictly ordered"
        )));
    }
    let pivot = PivotPair {
        common: r.len()?,
        cluster: r.len()?,
    };
    let common = r.len()?;
    if common != u && common != v {
        return Err(DecodeError::Corrupt(format!(
            "relationship common {common} outside pair ({u}, {v})"
        )));
    }
    let mut a = [[0.0f64; 2]; 2];
    for row in &mut a {
        for c in row.iter_mut() {
            *c = r.f64()?;
        }
    }
    let b = [r.f64()?, r.f64()?];
    Ok(AffineRelationship {
        pair: SequencePair::new(u, v),
        pivot,
        common,
        a,
        b,
    })
}

/// Encode one [`SeriesRelationship`].
pub fn put_series_relationship(w: &mut ByteWriter, sr: &SeriesRelationship) {
    w.put_len(sr.series);
    w.put_len(sr.cluster);
    w.put_f64(sr.c);
    w.put_f64(sr.d);
}

/// Bytes one encoded [`SeriesRelationship`] occupies.
pub const SERIES_RELATIONSHIP_BYTES: usize = 4 * 8;

/// Decode one [`SeriesRelationship`].
///
/// # Errors
/// [`DecodeError`] on truncation.
pub fn get_series_relationship(r: &mut ByteReader<'_>) -> Result<SeriesRelationship, DecodeError> {
    Ok(SeriesRelationship {
        series: r.len()?,
        cluster: r.len()?,
        c: r.f64()?,
        d: r.f64()?,
    })
}

impl AffineSet {
    /// Serialize the full model — cluster model, pivots, pairwise and
    /// per-series relationships — to a self-contained byte payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.series_count();
        let samples = self.samples();
        let clusters = self.clusters();
        let k = clusters.k();
        let mut w = ByteWriter::with_capacity(
            // afflint: allow(len-arith) -- encoder-side capacity hint over a live in-memory model, not header-declared sizes
            64 + k * samples * 8
                + n * 8
                + self.pivots().len() * 16
                + self.len() * (RELATIONSHIP_BYTES - 2 * 8)
                + n * (SERIES_RELATIONSHIP_BYTES - 8),
        );
        w.put_u8(AFFINE_CODEC_VERSION);
        w.put_len(n);
        w.put_len(samples);
        // Cluster model: k centres of `samples` values, assignments,
        // run metadata.
        w.put_len(k);
        for l in 0..k {
            w.put_f64_slice(clusters.center(l));
        }
        for &a in clusters.assignments() {
            w.put_len(a);
        }
        w.put_len(clusters.iterations());
        w.put_bool(clusters.converged());
        // Pivot table; relationships reference it by index, which both
        // compresses the payload and lets the decoder prove that every
        // relationship is anchored at a registered pivot.
        let mut pivot_ids: FxHashMap<PivotPair, usize> = FxHashMap::default();
        w.put_len(self.pivots().len());
        for (i, &p) in self.pivots().iter().enumerate() {
            pivot_ids.insert(p, i);
            w.put_len(p.common);
            w.put_len(p.cluster);
        }
        w.put_len(self.len());
        for rel in self.relationships() {
            w.put_len(rel.pair.u);
            w.put_len(rel.pair.v);
            // Encoder over a live model: every relationship pivot is in
            // the table built from `self.pivots()` above (AffineSet
            // invariant), so the lookup cannot miss.
            // afflint: allow(panic) -- encoder side, no untrusted bytes; rel.pivot ∈ self.pivots() is an AffineSet construction invariant
            w.put_len(pivot_ids[&rel.pivot]);
            w.put_len(rel.common);
            for row in &rel.a {
                for &val in row {
                    w.put_f64(val);
                }
            }
            for &val in &rel.b {
                w.put_f64(val);
            }
        }
        // Per-series relationships, series id implied by position.
        for sr in self.series_relationships() {
            w.put_len(sr.cluster);
            w.put_f64(sr.c);
            w.put_f64(sr.d);
        }
        w.into_vec()
    }

    /// Reconstruct an [`AffineSet`] from [`AffineSet::to_bytes`] output.
    /// The result is bit-identical to the encoded model.
    ///
    /// # Errors
    /// [`DecodeError`] on truncation, absurd counts (checked before
    /// allocation), or dangling cross-references — corrupt input never
    /// panics and never round-trips silently wrong.
    pub fn from_bytes(bytes: &[u8]) -> Result<AffineSet, DecodeError> {
        let mut r = ByteReader::new(bytes);
        let version = r.u8()?;
        if version != AFFINE_CODEC_VERSION {
            return Err(DecodeError::Corrupt(format!(
                "unsupported affine codec version {version}"
            )));
        }
        let n = r.len()?;
        let samples = r.len()?;
        if n < 2 {
            return Err(DecodeError::Corrupt(format!("series count {n} < 2")));
        }
        if samples == 0 {
            return Err(DecodeError::Corrupt("zero samples".into()));
        }
        let k = r.checked_count(samples.saturating_mul(8), "cluster")?;
        if k == 0 {
            return Err(DecodeError::Corrupt("zero clusters".into()));
        }
        let mut centers = Vec::with_capacity(k);
        for _ in 0..k {
            centers.push(r.f64_vec(samples)?);
        }
        if n.saturating_mul(8) > r.remaining() {
            return Err(DecodeError::Truncated {
                needed: n.saturating_mul(8),
                available: r.remaining(),
            });
        }
        let mut assignment = Vec::with_capacity(n);
        for v in 0..n {
            let l = r.len()?;
            if l >= k {
                return Err(DecodeError::Corrupt(format!(
                    "series {v} assigned to cluster {l} of {k}"
                )));
            }
            assignment.push(l);
        }
        let iterations = r.len()?;
        let converged = r.bool()?;
        let clusters = ClusterModel::from_parts(centers, assignment, iterations, converged);

        let pivot_count = r.checked_count(16, "pivot")?;
        let mut pivots = Vec::with_capacity(pivot_count);
        for i in 0..pivot_count {
            let common = r.len()?;
            let cluster = r.len()?;
            if common >= n || cluster >= k {
                return Err(DecodeError::Corrupt(format!(
                    "pivot {i} references series {common}/{n}, cluster {cluster}/{k}"
                )));
            }
            pivots.push(PivotPair { common, cluster });
        }

        let total = n * (n - 1) / 2;
        let rel_count = r.checked_count(RELATIONSHIP_BYTES - 8, "relationship")?;
        if rel_count != total {
            return Err(DecodeError::Corrupt(format!(
                "{rel_count} relationships for {n} series (expected {total})"
            )));
        }
        // Duplicate detection by triangular rank: for u < v the pair
        // maps to slot v(v-1)/2 + u, a dense 0..total enumeration — a
        // bit per pair instead of a hash insert on the decode hot loop.
        let mut seen = vec![false; total];
        let mut relationships = Vec::with_capacity(rel_count);
        for _ in 0..rel_count {
            let u = r.len()?;
            let v = r.len()?;
            if u >= v || v >= n {
                return Err(DecodeError::Corrupt(format!(
                    "relationship pair ({u}, {v}) invalid for {n} series"
                )));
            }
            let rank = v * (v - 1) / 2 + u;
            let slot = seen
                .get_mut(rank)
                .ok_or_else(|| DecodeError::Corrupt(format!("pair rank {rank} out of range")))?;
            if std::mem::replace(slot, true) {
                return Err(DecodeError::Corrupt(format!("duplicate pair ({u}, {v})")));
            }
            let pivot_idx = r.len()?;
            let pivot = *pivots.get(pivot_idx).ok_or_else(|| {
                DecodeError::Corrupt(format!("pivot index {pivot_idx} of {pivot_count}"))
            })?;
            let common = r.len()?;
            if common != u && common != v {
                return Err(DecodeError::Corrupt(format!(
                    "common {common} outside pair ({u}, {v})"
                )));
            }
            let mut a = [[0.0f64; 2]; 2];
            for row in &mut a {
                for c in row.iter_mut() {
                    *c = r.f64()?;
                }
            }
            let b = [r.f64()?, r.f64()?];
            relationships.push(AffineRelationship {
                pair: SequencePair::new(u, v),
                pivot,
                common,
                a,
                b,
            });
        }

        if n.saturating_mul(SERIES_RELATIONSHIP_BYTES - 8) > r.remaining() {
            return Err(DecodeError::Truncated {
                needed: n.saturating_mul(SERIES_RELATIONSHIP_BYTES - 8),
                available: r.remaining(),
            });
        }
        let mut series_rels = Vec::with_capacity(n);
        for series in 0..n {
            let cluster = r.len()?;
            if cluster >= k {
                return Err(DecodeError::Corrupt(format!(
                    "series {series} relationship references cluster {cluster}/{k}"
                )));
            }
            series_rels.push(SeriesRelationship {
                series,
                cluster,
                c: r.f64()?,
                d: r.f64()?,
            });
        }
        r.finish()?;
        Ok(AffineSet::assemble(
            clusters,
            relationships,
            pivots,
            series_rels,
            n,
            samples,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symex::{Symex, SymexParams};
    use affinity_data::generator::{sensor_dataset, SensorConfig};

    fn sample_set() -> AffineSet {
        let data = sensor_dataset(&SensorConfig::reduced(9, 24));
        Symex::new(SymexParams::default()).run(&data).unwrap()
    }

    fn assert_bit_identical(a: &AffineSet, b: &AffineSet) {
        assert_eq!(a.series_count(), b.series_count());
        assert_eq!(a.samples(), b.samples());
        assert_eq!(a.pivots(), b.pivots());
        assert_eq!(a.clusters().assignments(), b.clusters().assignments());
        assert_eq!(a.clusters().iterations(), b.clusters().iterations());
        assert_eq!(a.clusters().converged(), b.clusters().converged());
        for l in 0..a.clusters().k() {
            let (ca, cb) = (a.clusters().center(l), b.clusters().center(l));
            assert_eq!(ca.len(), cb.len());
            for (x, y) in ca.iter().zip(cb) {
                assert_eq!(x.to_bits(), y.to_bits(), "centre {l}");
            }
        }
        assert_eq!(a.relationships().len(), b.relationships().len());
        for (x, y) in a.relationships().iter().zip(b.relationships()) {
            assert_eq!(x.pair, y.pair);
            assert_eq!(x.pivot, y.pivot);
            assert_eq!(x.common, y.common);
            for i in 0..2 {
                for j in 0..2 {
                    assert_eq!(x.a[i][j].to_bits(), y.a[i][j].to_bits());
                }
                assert_eq!(x.b[i].to_bits(), y.b[i].to_bits());
            }
        }
        for (x, y) in a
            .series_relationships()
            .iter()
            .zip(b.series_relationships())
        {
            assert_eq!((x.series, x.cluster), (y.series, y.cluster));
            assert_eq!(x.c.to_bits(), y.c.to_bits());
            assert_eq!(x.d.to_bits(), y.d.to_bits());
        }
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let set = sample_set();
        let bytes = set.to_bytes();
        let back = AffineSet::from_bytes(&bytes).unwrap();
        assert_bit_identical(&set, &back);
        // Lookups still work through the rebuilt pair index.
        for rel in set.relationships() {
            assert_eq!(back.relationship(rel.pair).unwrap(), rel);
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = sample_set().to_bytes();
        // Dense near the start (header/counts), strided through the body.
        for cut in (0..64.min(bytes.len())).chain((64..bytes.len()).step_by(7)) {
            match AffineSet::from_bytes(&bytes[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("truncation at {cut} decoded successfully"),
            }
        }
    }

    #[test]
    fn absurd_counts_do_not_allocate() {
        let set = sample_set();
        let mut bytes = set.to_bytes();
        // series_count field at offset 1.
        bytes[1..9].copy_from_slice(&(u64::MAX - 3).to_le_bytes());
        assert!(matches!(
            AffineSet::from_bytes(&bytes),
            Err(DecodeError::Corrupt(_)) | Err(DecodeError::Truncated { .. })
        ));
        let mut bytes = set.to_bytes();
        // cluster count field at offset 17.
        bytes[17..25].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert!(matches!(
            AffineSet::from_bytes(&bytes),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = sample_set().to_bytes();
        bytes[0] = 99;
        assert!(matches!(
            AffineSet::from_bytes(&bytes),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn signed_zero_survives() {
        let mut set = sample_set();
        let mut rel = set.relationships()[0].clone();
        rel.a[0][1] = -0.0;
        rel.b[1] = -0.0;
        assert!(set.replace_relationship(rel.clone()).is_some());
        let back = AffineSet::from_bytes(&set.to_bytes()).unwrap();
        let got = back.relationship(rel.pair).unwrap();
        assert_eq!(got.a[0][1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(got.b[1].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn standalone_relationship_codec_roundtrips() {
        let set = sample_set();
        for rel in set.relationships().iter().take(5) {
            let mut w = ByteWriter::new();
            put_relationship(&mut w, rel);
            let bytes = w.into_vec();
            assert_eq!(bytes.len(), RELATIONSHIP_BYTES);
            let mut r = ByteReader::new(&bytes);
            assert_eq!(&get_relationship(&mut r).unwrap(), rel);
            r.finish().unwrap();
        }
        for sr in set.series_relationships().iter().take(5) {
            let mut w = ByteWriter::new();
            put_series_relationship(&mut w, sr);
            let bytes = w.into_vec();
            assert_eq!(bytes.len(), SERIES_RELATIONSHIP_BYTES);
            let mut r = ByteReader::new(&bytes);
            assert_eq!(&get_series_relationship(&mut r).unwrap(), sr);
            r.finish().unwrap();
        }
    }

    #[test]
    fn reader_primitives_guard_bounds() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert!(matches!(r.u64(), Err(DecodeError::Truncated { .. })));
        assert_eq!(r.u8().unwrap(), 1);
        let mut r = ByteReader::new(&[2]);
        assert!(matches!(r.bool(), Err(DecodeError::Corrupt(_))));
        let mut w = ByteWriter::new();
        w.put_len(usize::MAX);
        w.put_u64(0);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert!(r.checked_count(8, "t").is_err());
        let mut r = ByteReader::new(&bytes);
        r.u64().unwrap();
        r.u64().unwrap();
        assert!(r.finish().is_ok());
        let mut r = ByteReader::new(&bytes);
        r.u64().unwrap();
        assert!(matches!(r.finish(), Err(DecodeError::Corrupt(_))));
    }
}

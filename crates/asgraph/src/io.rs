//! Safe length-prefixed little-endian binary codec for the dense core.
//!
//! The snapshot persistence layer (see `core::snapshot`) serializes the
//! dense structures — [`AsIndexer`], [`CsrGraph`], [`ConeSizes`],
//! [`PpdcCones`] — as flat typed arrays: every slice is written as a `u64`
//! element count followed by the elements as little-endian `u32`/`u64`
//! bytes. This is the safe analogue of mmap'd typed-array formats: no
//! `unsafe`, no transmutes — the workspace stays `forbid(unsafe_code)` —
//! yet loads are a handful of bulk `Vec` fills instead of a graph rebuild.
//!
//! Reading is defensive end to end: every length prefix is validated
//! against the bytes actually remaining *before* any allocation happens
//! (a corrupt length can never trigger an OOM-sized reservation), every
//! structural invariant (sorted indexers, monotone CSR offsets, in-range
//! and per-node strictly ascending targets) is re-checked on load, and
//! every failure surfaces as an [`IoError`] — never a panic.

use crate::asn::Asn;
use crate::cone::{sparse_cutoff, ConeSizes, PpdcCones, PpdcRow};
use crate::csr::{Csr, CsrGraph};
use crate::index::AsIndexer;
use std::fmt;

/// Why a snapshot byte stream could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// The stream ended before a fixed-width field could be read.
    Truncated {
        /// Byte offset at which the read was attempted.
        offset: usize,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// The leading magic bytes did not match.
    BadMagic,
    /// The schema version is not one this build can decode.
    BadVersion {
        /// The version found in the stream.
        found: u32,
    },
    /// A slice length prefix asks for more bytes than the stream holds.
    /// Raised *before* any allocation, so corrupt prefixes cannot OOM.
    OversizedLength {
        /// Byte offset of the length prefix.
        offset: usize,
        /// The element count the prefix claimed.
        count: u64,
        /// Bytes actually remaining after the prefix.
        remaining: usize,
    },
    /// Decoding finished but bytes were left over.
    TrailingBytes {
        /// Number of undecoded bytes at the end of the stream.
        count: usize,
    },
    /// A structural invariant failed (unsorted indexer, broken CSR
    /// offsets, out-of-range id, …).
    Invalid {
        /// Byte offset of the offending region.
        offset: usize,
        /// What was wrong.
        what: &'static str,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Truncated {
                offset,
                needed,
                remaining,
            } => write!(
                f,
                "truncated stream at byte {offset}: needed {needed} bytes, {remaining} remain"
            ),
            IoError::BadMagic => write!(f, "bad magic: not a breval snapshot"),
            IoError::BadVersion { found } => {
                write!(f, "unsupported snapshot schema version {found}")
            }
            IoError::OversizedLength {
                offset,
                count,
                remaining,
            } => write!(
                f,
                "oversized length prefix at byte {offset}: {count} elements but only {remaining} bytes remain"
            ),
            IoError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after snapshot payload")
            }
            IoError::Invalid { offset, what } => {
                write!(f, "invalid snapshot data at byte {offset}: {what}")
            }
        }
    }
}

impl std::error::Error for IoError {}

/// Append-only little-endian byte buffer, the writing half of the codec.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Appends raw bytes (used for magic headers).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one `u32`, little-endian.
    pub fn put_u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends one `u64`, little-endian.
    pub fn put_u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a `u32` slice: `u64` element count, then the elements.
    pub fn put_u32_slice(&mut self, values: &[u32]) {
        self.put_u64(values.len() as u64);
        self.buf.reserve(values.len() * 4);
        for &v in values {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends a `u64` slice: `u64` element count, then the elements.
    pub fn put_u64_slice(&mut self, values: &[u64]) {
        self.put_u64(values.len() as u64);
        self.buf.reserve(values.len() * 8);
        for &v in values {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends a UTF-8 string: `u64` byte count, then the bytes.
    pub fn put_str(&mut self, value: &str) {
        self.put_u64(value.len() as u64);
        self.buf.extend_from_slice(value.as_bytes());
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing was written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The accumulated bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the accumulated bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// Validating cursor over a byte stream, the reading half of the codec.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Current byte offset.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], IoError> {
        match self.bytes.get(self.pos..self.pos + n) {
            Some(slice) => {
                self.pos += n;
                Ok(slice)
            }
            None => Err(IoError::Truncated {
                offset: self.pos,
                needed: n,
                remaining: self.remaining(),
            }),
        }
    }

    /// Consumes `expected.len()` bytes and checks they match (magic check).
    pub fn expect_bytes(&mut self, expected: &[u8]) -> Result<(), IoError> {
        let got = self.take(expected.len()).map_err(|_| IoError::BadMagic)?;
        if got == expected {
            Ok(())
        } else {
            Err(IoError::BadMagic)
        }
    }

    /// Reads one little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, IoError> {
        let b = self.take(4)?;
        let mut arr = [0u8; 4];
        arr.copy_from_slice(b);
        Ok(u32::from_le_bytes(arr))
    }

    /// Reads one little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, IoError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads a length prefix for `width`-byte elements, validating it
    /// against the remaining bytes *before* the caller allocates.
    fn take_len(&mut self, width: usize) -> Result<usize, IoError> {
        let at = self.pos;
        let count = self.take_u64()?;
        let fits = count
            .checked_mul(width as u64)
            .is_some_and(|total| total <= self.remaining() as u64);
        if !fits {
            return Err(IoError::OversizedLength {
                offset: at,
                count,
                remaining: self.remaining(),
            });
        }
        Ok(count as usize)
    }

    /// Reads a length-prefixed `u32` slice.
    pub fn take_u32_slice(&mut self) -> Result<Vec<u32>, IoError> {
        let count = self.take_len(4)?;
        let bytes = self.take(count * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| {
                let mut arr = [0u8; 4];
                arr.copy_from_slice(c);
                u32::from_le_bytes(arr)
            })
            .collect())
    }

    /// Reads a length-prefixed `u64` slice.
    pub fn take_u64_slice(&mut self) -> Result<Vec<u64>, IoError> {
        let count = self.take_len(8)?;
        let bytes = self.take(count * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| {
                let mut arr = [0u8; 8];
                arr.copy_from_slice(c);
                u64::from_le_bytes(arr)
            })
            .collect())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, IoError> {
        let at = self.pos;
        let count = self.take_len(1)?;
        let bytes = self.take(count)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => Err(IoError::Invalid {
                offset: at,
                what: "string payload is not valid UTF-8",
            }),
        }
    }

    /// Asserts the stream is fully consumed.
    pub fn finish(self) -> Result<(), IoError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(IoError::TrailingBytes {
                count: self.remaining(),
            })
        }
    }
}

/// Writes an [`AsIndexer`] as its strictly ascending ASN list.
pub fn write_indexer(w: &mut ByteWriter, indexer: &AsIndexer) {
    let asns: Vec<u32> = indexer.iter().map(|a| a.0).collect();
    w.put_u32_slice(&asns);
}

/// Reads an [`AsIndexer`], validating strict ASN ascent (the invariant
/// `from_sorted` only debug-asserts).
pub fn read_indexer(r: &mut ByteReader) -> Result<AsIndexer, IoError> {
    let at = r.offset();
    let raw = r.take_u32_slice()?;
    if !raw.windows(2).all(|w| w[0] < w[1]) {
        return Err(IoError::Invalid {
            offset: at,
            what: "indexer ASNs are not strictly ascending",
        });
    }
    Ok(AsIndexer::from_sorted(raw.into_iter().map(Asn).collect()))
}

/// Writes a [`CsrGraph`]: its indexer, then per role (providers,
/// customers, peers, siblings) the offsets and targets arrays.
pub fn write_csr_graph(w: &mut ByteWriter, graph: &CsrGraph) {
    write_indexer(w, graph.indexer());
    for csr in &graph.roles {
        w.put_u32_slice(&csr.offsets);
        w.put_u32_slice(&csr.targets);
    }
}

/// Reads one role's CSR arrays and re-validates the CSR invariants:
/// `n + 1` monotone offsets starting at 0 and ending at `targets.len()`,
/// every target a valid node id, every node's segment strictly ascending
/// (lookups binary-search it).
fn read_csr(r: &mut ByteReader, n: usize) -> Result<Csr, IoError> {
    let at = r.offset();
    let offsets = r.take_u32_slice()?;
    let targets = r.take_u32_slice()?;
    // A default-constructed (node-less) CSR has no offsets at all; it is
    // valid because no id can ever index it.
    let empty_ok = n == 0 && offsets.is_empty() && targets.is_empty();
    let shape_ok = empty_ok
        || (offsets.len() == n + 1
            && offsets.first() == Some(&0)
            && offsets.windows(2).all(|w| w[0] <= w[1])
            && offsets.last().copied() == u32::try_from(targets.len()).ok());
    if !shape_ok {
        return Err(IoError::Invalid {
            offset: at,
            what: "CSR offsets are not a monotone prefix sum over the targets",
        });
    }
    if !targets.iter().all(|&t| (t as usize) < n) {
        return Err(IoError::Invalid {
            offset: at,
            what: "CSR target id out of range for the indexer",
        });
    }
    let csr = Csr { offsets, targets };
    if !csr.segments_ascending() {
        return Err(IoError::Invalid {
            offset: at,
            what: "CSR segment targets are not strictly ascending",
        });
    }
    Ok(csr)
}

/// Reads a [`CsrGraph`] written by [`write_csr_graph`].
pub fn read_csr_graph(r: &mut ByteReader) -> Result<CsrGraph, IoError> {
    let indexer = read_indexer(r)?;
    let n = indexer.len();
    let roles = [
        read_csr(r, n)?,
        read_csr(r, n)?,
        read_csr(r, n)?,
        read_csr(r, n)?,
    ];
    Ok(CsrGraph { indexer, roles })
}

/// Writes a [`ConeSizes`]: its indexer plus the id-aligned sizes as `u64`.
pub fn write_cone_sizes(w: &mut ByteWriter, cones: &ConeSizes) {
    write_indexer(w, cones.indexer());
    let sizes: Vec<u64> = cones.iter().map(|(_, s)| s as u64).collect();
    w.put_u64_slice(&sizes);
}

/// Reads a [`ConeSizes`] written by [`write_cone_sizes`].
pub fn read_cone_sizes(r: &mut ByteReader) -> Result<ConeSizes, IoError> {
    let indexer = read_indexer(r)?;
    let at = r.offset();
    let raw = r.take_u64_slice()?;
    if raw.len() != indexer.len() {
        return Err(IoError::Invalid {
            offset: at,
            what: "cone size count does not match the indexer",
        });
    }
    let mut sizes = Vec::with_capacity(raw.len());
    for v in raw {
        match usize::try_from(v) {
            Ok(s) => sizes.push(s),
            Err(_) => {
                return Err(IoError::Invalid {
                    offset: at,
                    what: "cone size does not fit in usize",
                })
            }
        }
    }
    Ok(ConeSizes { indexer, sizes })
}

/// Writes a [`PpdcCones`] in the hybrid layout: its indexer, the sparse
/// rows (ascending owner ids, per-row member counts, all sorted members
/// concatenated), then the dense rows (ascending owner ids, fixed-width
/// bitset words concatenated). ASes without a row (implicit self-only
/// cones) cost zero bytes, and a mostly-sparse cone table serializes in
/// `O(total members)` bytes instead of `O(rows · n/8)`.
pub fn write_ppdc_cones(w: &mut ByteWriter, cones: &PpdcCones) {
    write_indexer(w, cones.indexer());
    let mut sparse_ids: Vec<u32> = Vec::new();
    let mut sparse_lens: Vec<u32> = Vec::new();
    let mut sparse_members: Vec<u32> = Vec::new();
    let mut dense_ids: Vec<u32> = Vec::new();
    let mut dense_words: Vec<u64> = Vec::new();
    for (id, row) in cones.rows.iter().enumerate() {
        match row {
            None => {}
            Some(PpdcRow::Sparse(ids)) => {
                sparse_ids.push(id as u32);
                sparse_lens.push(ids.len() as u32);
                sparse_members.extend_from_slice(ids);
            }
            Some(PpdcRow::Dense(words)) => {
                dense_ids.push(id as u32);
                dense_words.extend_from_slice(words);
            }
        }
    }
    w.put_u32_slice(&sparse_ids);
    w.put_u32_slice(&sparse_lens);
    w.put_u32_slice(&sparse_members);
    w.put_u32_slice(&dense_ids);
    w.put_u64_slice(&dense_words);
}

/// Reads a [`PpdcCones`] written by [`write_ppdc_cones`], validating row
/// ids, lengths, member ordering, the density split (sparse rows below the
/// cutoff, dense rows at or above it — so equal cones have exactly one
/// loadable encoding), and that no bit beyond the indexed range is set.
pub fn read_ppdc_cones(r: &mut ByteReader) -> Result<PpdcCones, IoError> {
    let indexer = read_indexer(r)?;
    let n = indexer.len();
    let words_per_row = n.div_ceil(64);
    let cutoff = sparse_cutoff(n);

    let at = r.offset();
    let sparse_ids = r.take_u32_slice()?;
    let ids_ok = sparse_ids.windows(2).all(|w| w[0] < w[1])
        && sparse_ids.iter().all(|&id| (id as usize) < n);
    if !ids_ok {
        return Err(IoError::Invalid {
            offset: at,
            what: "sparse PPDC row ids are not ascending in-range node ids",
        });
    }
    let at = r.offset();
    let sparse_lens = r.take_u32_slice()?;
    if sparse_lens.len() != sparse_ids.len() {
        return Err(IoError::Invalid {
            offset: at,
            what: "sparse PPDC length count does not match row count",
        });
    }
    // A sparse row always holds at least its owner and, by the density
    // rule, strictly fewer members than the cutoff.
    if !sparse_lens
        .iter()
        .all(|&len| len >= 1 && (len as usize) < cutoff)
    {
        return Err(IoError::Invalid {
            offset: at,
            what: "sparse PPDC row length is outside 1..cutoff",
        });
    }
    let at = r.offset();
    let sparse_members = r.take_u32_slice()?;
    let total: u64 = sparse_lens.iter().map(|&len| u64::from(len)).sum();
    if total != sparse_members.len() as u64 {
        return Err(IoError::Invalid {
            offset: at,
            what: "sparse PPDC member count does not match the row lengths",
        });
    }
    let mut rows: Vec<Option<PpdcRow>> = vec![None; n];
    let mut off = 0usize;
    for (&id, &len) in sparse_ids.iter().zip(&sparse_lens) {
        let members = &sparse_members[off..off + len as usize];
        off += len as usize;
        let members_ok =
            members.windows(2).all(|w| w[0] < w[1]) && members.iter().all(|&m| (m as usize) < n);
        if !members_ok {
            return Err(IoError::Invalid {
                offset: at,
                what: "sparse PPDC row members are not ascending in-range ids",
            });
        }
        rows[id as usize] = Some(PpdcRow::Sparse(members.to_vec().into_boxed_slice()));
    }

    let at = r.offset();
    let dense_ids = r.take_u32_slice()?;
    let ids_ok =
        dense_ids.windows(2).all(|w| w[0] < w[1]) && dense_ids.iter().all(|&id| (id as usize) < n);
    if !ids_ok {
        return Err(IoError::Invalid {
            offset: at,
            what: "dense PPDC row ids are not ascending in-range node ids",
        });
    }
    if dense_ids.iter().any(|&id| rows[id as usize].is_some()) {
        return Err(IoError::Invalid {
            offset: at,
            what: "PPDC row is both sparse and dense",
        });
    }
    let at = r.offset();
    let dense_words = r.take_u64_slice()?;
    if dense_words.len() != dense_ids.len() * words_per_row {
        return Err(IoError::Invalid {
            offset: at,
            what: "dense PPDC word count does not match row count",
        });
    }
    // Bits addressing ids >= n would silently change popcounts; reject them
    // so every loadable stream re-encodes byte-identically.
    let tail_bits = words_per_row * 64 - n;
    if words_per_row > 0 && tail_bits > 0 {
        let mask = !0u64 << (64 - tail_bits as u32);
        let tails_clean = dense_words
            .chunks_exact(words_per_row)
            .all(|row| row.last().is_none_or(|&last| last & mask == 0));
        if !tails_clean {
            return Err(IoError::Invalid {
                offset: at,
                what: "dense PPDC row sets bits beyond the indexed range",
            });
        }
    }
    if words_per_row > 0 {
        for (slot, row) in dense_ids
            .iter()
            .zip(dense_words.chunks_exact(words_per_row))
        {
            let members: usize = row.iter().map(|w| w.count_ones() as usize).sum();
            if members < cutoff {
                return Err(IoError::Invalid {
                    offset: at,
                    what: "dense PPDC row is below the sparse cutoff",
                });
            }
            rows[*slot as usize] = Some(PpdcRow::Dense(row.to_vec().into_boxed_slice()));
        }
    }
    Ok(PpdcCones { indexer, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.put_bytes(b"MAGIC!!!");
        w.put_u32(7);
        w.put_u64(1 << 40);
        w.put_u32_slice(&[1, 2, 3]);
        w.put_u64_slice(&[u64::MAX]);
        w.put_str("asrank");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.expect_bytes(b"MAGIC!!!").unwrap();
        assert_eq!(r.take_u32().unwrap(), 7);
        assert_eq!(r.take_u64().unwrap(), 1 << 40);
        assert_eq!(r.take_u32_slice().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.take_u64_slice().unwrap(), vec![u64::MAX]);
        assert_eq!(r.take_str().unwrap(), "asrank");
        r.finish().unwrap();
    }

    #[test]
    fn oversized_length_is_rejected_before_allocating() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // claims ~1.8e19 elements
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        match r.take_u32_slice() {
            Err(IoError::OversizedLength { count, .. }) => assert_eq!(count, u64::MAX),
            other => panic!("expected OversizedLength, got {other:?}"),
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_are_reported() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(matches!(r.take_u32(), Err(IoError::Truncated { .. })));
        let bytes = [0u8; 12];
        let mut r = ByteReader::new(&bytes);
        r.take_u32().unwrap();
        assert!(matches!(
            r.finish(),
            Err(IoError::TrailingBytes { count: 8 })
        ));
    }

    #[test]
    fn bad_magic_is_reported() {
        let mut r = ByteReader::new(b"NOTMAGIC");
        assert_eq!(r.expect_bytes(b"BREVSNAP"), Err(IoError::BadMagic));
    }

    #[test]
    fn indexer_must_be_strictly_ascending() {
        let mut w = ByteWriter::new();
        w.put_u32_slice(&[5, 5, 9]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(read_indexer(&mut r), Err(IoError::Invalid { .. })));
    }

    fn ppdc_stream(
        n: u32,
        sparse_ids: &[u32],
        sparse_lens: &[u32],
        sparse_members: &[u32],
        dense_ids: &[u32],
        dense_words: &[u64],
    ) -> Vec<u8> {
        let mut w = ByteWriter::new();
        write_indexer(&mut w, &AsIndexer::from_sorted((1..=n).map(Asn).collect()));
        w.put_u32_slice(sparse_ids);
        w.put_u32_slice(sparse_lens);
        w.put_u32_slice(sparse_members);
        w.put_u32_slice(dense_ids);
        w.put_u64_slice(dense_words);
        w.into_bytes()
    }

    fn ppdc_rejected(bytes: &[u8]) -> bool {
        let mut r = ByteReader::new(bytes);
        matches!(read_ppdc_cones(&mut r), Err(IoError::Invalid { .. }))
    }

    #[test]
    fn ppdc_sparse_rows_are_validated() {
        // Members out of ascending order.
        assert!(ppdc_rejected(&ppdc_stream(
            3,
            &[0],
            &[2],
            &[2, 0],
            &[],
            &[]
        )));
        // Member id beyond the indexer.
        assert!(ppdc_rejected(&ppdc_stream(
            3,
            &[0],
            &[2],
            &[0, 7],
            &[],
            &[]
        )));
        // Empty row (a row always holds at least its owner).
        assert!(ppdc_rejected(&ppdc_stream(3, &[0], &[0], &[], &[], &[])));
        // Row at the cutoff must have been encoded dense instead.
        assert!(ppdc_rejected(&ppdc_stream(
            9,
            &[0],
            &[8],
            &[0, 1, 2, 3, 4, 5, 6, 7],
            &[],
            &[],
        )));
        // Length table disagrees with the member payload.
        assert!(ppdc_rejected(&ppdc_stream(3, &[0], &[2], &[0], &[], &[])));
        // A well-formed sparse row decodes.
        assert!(!ppdc_rejected(&ppdc_stream(
            3,
            &[0],
            &[2],
            &[0, 2],
            &[],
            &[]
        )));
    }

    #[test]
    fn ppdc_dense_rows_are_validated() {
        // Popcount below the cutoff: should have been sparse.
        assert!(ppdc_rejected(&ppdc_stream(9, &[], &[], &[], &[0], &[0b11])));
        // Tail bits beyond the indexed range.
        assert!(ppdc_rejected(&ppdc_stream(
            9,
            &[],
            &[],
            &[],
            &[0],
            &[0xffff_ffff_ffff_ffff],
        )));
        // Same id in both the sparse and dense tables.
        assert!(ppdc_rejected(&ppdc_stream(
            9,
            &[0],
            &[1],
            &[0],
            &[0],
            &[0b1_1111_1111],
        )));
        // A full in-range row (9 bits, at the cutoff of 8) decodes.
        assert!(!ppdc_rejected(&ppdc_stream(
            9,
            &[],
            &[],
            &[],
            &[0],
            &[0b1_1111_1111],
        )));
    }

    /// A three-node CSR graph stream with the given providers and
    /// customers roles and empty peers and siblings.
    fn csr_stream(providers: (&[u32], &[u32]), customers: (&[u32], &[u32])) -> Vec<u8> {
        let mut w = ByteWriter::new();
        write_indexer(
            &mut w,
            &AsIndexer::from_sorted(vec![Asn(1), Asn(2), Asn(3)]),
        );
        for (offsets, targets) in [providers, customers, (&[0; 4], &[]), (&[0; 4], &[])] {
            w.put_u32_slice(offsets);
            w.put_u32_slice(targets);
        }
        w.into_bytes()
    }

    fn csr_rejected(bytes: &[u8]) -> bool {
        let mut r = ByteReader::new(bytes);
        matches!(read_csr_graph(&mut r), Err(IoError::Invalid { .. }))
    }

    #[test]
    fn csr_offsets_are_validated() {
        let empty: (&[u32], &[u32]) = (&[0; 4], &[]);
        // Non-monotone offsets.
        assert!(csr_rejected(&csr_stream((&[0, 2, 1, 2], &[0, 1]), empty)));
        // Target id beyond the indexer.
        assert!(csr_rejected(&csr_stream((&[0, 1, 1, 1], &[3]), empty)));
        // Out-of-order segment: providers(0) = [2, 1].
        assert!(csr_rejected(&csr_stream((&[0, 2, 2, 2], &[2, 1]), empty)));
        // Duplicate target: customers(1) = [0, 0].
        assert!(csr_rejected(&csr_stream(empty, (&[0, 0, 2, 2], &[0, 0]))));
        // Well-formed ascending segments decode.
        assert!(!csr_rejected(&csr_stream(
            (&[0, 2, 2, 3], &[1, 2, 0]),
            (&[0, 1, 1, 2], &[2, 0])
        )));
    }
}

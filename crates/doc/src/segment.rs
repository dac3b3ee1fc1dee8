//! Persistent index segments (`.xidx`).
//!
//! The `.xfrg` store removed XML parsing from the load path, but a cold
//! query still had to build the [`InvertedIndex`]: one pass over every
//! token of every node. The segment persists it at `xfrag index` time,
//! with a directory up front and the posting blobs behind it, so a
//! query **lazily** materializes only the terms it actually touches.
//!
//! The segment also carries every node's **prefix label** (root path —
//! see [`StructLabels`]). Decoding validates that section but does not
//! keep it: the [`Document`] a segment is loaded beside builds and owns
//! its own labels.
//!
//! Layout (all integers little-endian), mirroring the hardening of the
//! `XFRG` store — every length and count is bounds-checked before any
//! allocation is sized from it, and a trailing FNV-1a checksum covers
//! the whole payload:
//!
//! ```text
//! magic    4 bytes  "XIDX"
//! version  u16      1 (v2, which older builds wrote, still decodes)
//! nodes    u32      node count (pre-order)
//! per node: u32     label length (= depth + 1)
//! labels   u32 × Σ  flattened root paths, node order
//! terms    u32      distinct term count
//! per term:
//!   name   lstr     u32 length + UTF-8 bytes (lexicographic order)
//!   count  u32      posting count
//!   offset u32      byte offset of this term's postings in the blob
//! blob_len u32      postings blob length in bytes
//! blob     bytes    u32 node ids, ascending, per directory order
//! --- v2 only: statistics for a retired strategy planner ---
//! stats    bytes    64 + 20 × terms, bounds-checked and skipped
//! --- end v2 ---
//! checksum u64      FNV-1a over everything before it
//! ```
//!
//! Decoding verifies the checksum, the label invariants (via
//! [`StructLabels::from_parts`]), and — in one linear pass — that every
//! posting id is in range and strictly ascending, so lazy lookups later
//! can never read out of bounds or return malformed postings. A
//! corrupted or truncated segment yields a typed [`SegmentError`]; the
//! caller (serve, msearch) falls back to an in-memory index for that
//! document rather than quarantining it.

use crate::index::InvertedIndex;
use crate::label::StructLabels;
use crate::store::fnv1a;
use crate::tree::{Document, NodeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const MAGIC: &[u8; 4] = b"XIDX";
/// The version this build writes.
const VERSION: u16 = 1;
/// Newest version this build still decodes (v2 = v1 plus a stats
/// section, which is skipped).
const MAX_VERSION: u16 = 2;
/// Size of a v2 stats section: a fixed 64-byte depth histogram, then
/// 20 bytes per directory term.
const V2_STATS_FIXED: usize = 64;
const V2_STATS_PER_TERM: usize = 20;

/// Errors from decoding an index segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// The file does not start with the `XIDX` magic.
    BadMagic,
    /// Format version this build does not understand.
    UnsupportedVersion(u16),
    /// The payload ended early.
    Truncated,
    /// A term name was not valid UTF-8.
    InvalidUtf8,
    /// The trailing checksum does not match the payload.
    ChecksumMismatch,
    /// Labels, directory, or postings violate an invariant.
    StructuralError(String),
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::BadMagic => write!(f, "not an XIDX segment (bad magic)"),
            SegmentError::UnsupportedVersion(v) => write!(f, "unsupported XIDX version {v}"),
            SegmentError::Truncated => write!(f, "segment truncated"),
            SegmentError::InvalidUtf8 => write!(f, "corrupted term name (invalid UTF-8)"),
            SegmentError::ChecksumMismatch => write!(f, "segment checksum mismatch"),
            SegmentError::StructuralError(e) => write!(f, "segment structural error: {e}"),
        }
    }
}

impl std::error::Error for SegmentError {}

/// The data-file name for a logical stem's index segment:
/// `<stem>.g<gen>.xidx` — the same generation-suffix convention as
/// `.xfrg` data files, so pruning and crash-remnant detection treat
/// both uniformly.
pub fn segment_file_name(stem: &str, generation: u64) -> String {
    format!("{stem}.g{generation:06}.xidx")
}

/// Encode the index segment for a document: its labels plus the full
/// inverted index.
pub fn encode_segment(doc: &Document) -> Vec<u8> {
    encode_from(doc, &InvertedIndex::build(doc))
}

/// Encode from an already-built index (avoids a second tokenization
/// pass when the caller has one at hand).
pub fn encode_from(doc: &Document, index: &InvertedIndex) -> Vec<u8> {
    let (offsets, flat) = doc.labels().parts();
    let mut buf = Vec::with_capacity(64 + flat.len() * 4 + doc.len() * 8);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(doc.len() as u32).to_le_bytes());
    for w in offsets.windows(2) {
        buf.extend_from_slice(&(w[1] - w[0]).to_le_bytes());
    }
    for &id in flat {
        buf.extend_from_slice(&id.to_le_bytes());
    }
    buf.extend_from_slice(&(index.term_count() as u32).to_le_bytes());
    let mut blob = Vec::new();
    for (term, postings) in index.terms() {
        buf.extend_from_slice(&(term.len() as u32).to_le_bytes());
        buf.extend_from_slice(term.as_bytes());
        buf.extend_from_slice(&(postings.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        for &n in postings {
            blob.extend_from_slice(&n.0.to_le_bytes());
        }
    }
    buf.extend_from_slice(&(blob.len() as u32).to_le_bytes());
    buf.extend_from_slice(&blob);
    let checksum = fnv1a(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// One term's directory entry: where its postings live in the blob.
#[derive(Debug, Clone, Copy)]
struct DirEntry {
    /// Posting count.
    count: u32,
    /// Byte offset into the blob.
    offset: u32,
}

/// A decoded, lazily-materializing index segment.
///
/// Construction ([`SegmentIndex::from_bytes`]) decodes the term
/// directory eagerly and validates everything — the labels section and
/// one linear pass over the postings blob included — but individual
/// posting lists are only materialized (allocated, cached) when a query
/// first looks the term up. [`terms_loaded`](SegmentIndex::terms_loaded) counts
/// those materializations for `stats`/EXPLAIN.
#[derive(Debug)]
pub struct SegmentIndex {
    directory: HashMap<String, DirEntry>,
    /// Term names in lexicographic (stored) order, for iteration.
    term_order: Vec<String>,
    /// The raw postings blob (u32 LE node ids).
    blob: Vec<u8>,
    /// Total encoded segment size, for stats.
    bytes_len: usize,
    node_count: usize,
    loaded: Mutex<HashMap<String, Arc<[NodeId]>>>,
    terms_loaded: AtomicU64,
}

/// Bounds-checked little-endian reader (same discipline as the store).
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SegmentError> {
        if self.remaining() < n {
            return Err(SegmentError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u16_le(&mut self) -> Result<u16, SegmentError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32_le(&mut self) -> Result<u32, SegmentError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

impl SegmentIndex {
    /// Decode and fully validate a segment. Never panics on any input.
    pub fn from_bytes(data: &[u8]) -> Result<SegmentIndex, SegmentError> {
        if data.len() < MAGIC.len() + 2 + 4 + 8 {
            return Err(SegmentError::Truncated);
        }
        let (payload, tail) = data.split_at(data.len() - 8);
        let mut tail8 = [0u8; 8];
        tail8.copy_from_slice(tail);
        if fnv1a(payload) != u64::from_le_bytes(tail8) {
            return Err(SegmentError::ChecksumMismatch);
        }
        let mut r = Reader::new(payload);
        if r.take(4)? != MAGIC {
            return Err(SegmentError::BadMagic);
        }
        let version = r.u16_le()?;
        if !(VERSION..=MAX_VERSION).contains(&version) {
            return Err(SegmentError::UnsupportedVersion(version));
        }
        let n = r.u32_le()? as usize;
        // Untrusted count: each node needs at least a 4-byte label
        // length; reject before sizing any allocation.
        if n == 0 || n > r.remaining() / 4 {
            return Err(SegmentError::Truncated);
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut total = 0u64;
        for _ in 0..n {
            let l = r.u32_le()?;
            total += l as u64;
            if total > u32::MAX as u64 {
                return Err(SegmentError::StructuralError("label overflow".into()));
            }
            offsets.push(total as u32);
        }
        if total as usize > r.remaining() / 4 {
            return Err(SegmentError::Truncated);
        }
        let mut flat = Vec::with_capacity(total as usize);
        for _ in 0..total {
            flat.push(r.u32_le()?);
        }
        // Validated as outside input, then dropped: the document owns
        // the labels it navigates by.
        StructLabels::from_parts(offsets, flat)
            .map_err(|e| SegmentError::StructuralError(e.to_string()))?;

        let tcount = r.u32_le()? as usize;
        // Each term record is at least name-len + count + offset.
        if tcount > r.remaining() / 12 {
            return Err(SegmentError::Truncated);
        }
        let mut directory = HashMap::with_capacity(tcount);
        let mut term_order = Vec::with_capacity(tcount);
        let mut dirs = Vec::with_capacity(tcount);
        for _ in 0..tcount {
            let nlen = r.u32_le()? as usize;
            let name = std::str::from_utf8(r.take(nlen)?)
                .map_err(|_| SegmentError::InvalidUtf8)?
                .to_string();
            let count = r.u32_le()?;
            let offset = r.u32_le()?;
            if let Some(prev) = term_order.last() {
                if *prev >= name {
                    return Err(SegmentError::StructuralError(format!(
                        "terms out of order at {name:?}"
                    )));
                }
            }
            term_order.push(name.clone());
            dirs.push(DirEntry { count, offset });
            directory.insert(name, DirEntry { count, offset });
        }
        let blob_len = r.u32_le()? as usize;
        let blob = r.take(blob_len)?.to_vec();
        if version == 2 {
            // Written by older builds for a since-retired planner; the
            // checksum above covered it, nothing reads it.
            r.take(V2_STATS_FIXED + V2_STATS_PER_TERM * tcount)?;
        }
        if r.remaining() > 0 {
            return Err(SegmentError::StructuralError("trailing bytes".into()));
        }
        // Validate every directory entry against the blob once, so lazy
        // lookups can slice without re-checking: offsets in bounds,
        // ids in range, strictly ascending.
        let mut expected_off = 0u64;
        for (name, d) in term_order.iter().zip(&dirs) {
            if d.offset as u64 != expected_off {
                return Err(SegmentError::StructuralError(format!(
                    "postings for {name:?} not contiguous"
                )));
            }
            let end = expected_off + d.count as u64 * 4;
            if end > blob.len() as u64 {
                return Err(SegmentError::Truncated);
            }
            let mut prev: Option<u32> = None;
            for i in 0..d.count as usize {
                let p = d.offset as usize + i * 4;
                let id = u32::from_le_bytes([blob[p], blob[p + 1], blob[p + 2], blob[p + 3]]);
                if id as usize >= n || prev.is_some_and(|q| q >= id) {
                    return Err(SegmentError::StructuralError(format!(
                        "postings for {name:?} not sorted in-range node ids"
                    )));
                }
                prev = Some(id);
            }
            expected_off = end;
        }
        if expected_off != blob.len() as u64 {
            return Err(SegmentError::StructuralError(
                "postings blob has unreferenced bytes".into(),
            ));
        }
        Ok(SegmentIndex {
            directory,
            term_order,
            blob,
            bytes_len: data.len(),
            node_count: n,
            loaded: Mutex::new(HashMap::new()),
            terms_loaded: AtomicU64::new(0),
        })
    }

    /// Number of nodes in the indexed document.
    #[inline]
    pub fn doc_len(&self) -> usize {
        self.node_count
    }

    /// Number of distinct terms.
    #[inline]
    pub fn term_count(&self) -> usize {
        self.directory.len()
    }

    /// Total encoded size of the segment in bytes.
    #[inline]
    pub fn bytes_len(&self) -> usize {
        self.bytes_len
    }

    /// How many distinct terms have been lazily materialized so far.
    pub fn terms_loaded(&self) -> u64 {
        self.terms_loaded.load(Ordering::Relaxed)
    }

    /// Document frequency of a term — directory only, no posting decode.
    pub fn df(&self, term: &str) -> usize {
        self.directory.get(term).map_or(0, |d| d.count as usize)
    }

    /// Whether the term exists in this segment — directory only.
    pub fn has_term(&self, term: &str) -> bool {
        self.directory.contains_key(term)
    }

    /// Whether a term's postings are already materialized (no side
    /// effects; used for trace provenance).
    pub fn is_loaded(&self, term: &str) -> bool {
        !self.directory.contains_key(term)
            || self
                .loaded
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .contains_key(term)
    }

    /// Term names in lexicographic order (directory only).
    pub fn term_names(&self) -> impl Iterator<Item = &str> {
        self.term_order.iter().map(String::as_str)
    }

    /// The postings for a (normalized) term, materializing and caching
    /// them on first access. Absent terms return an empty list without
    /// touching the cache.
    pub fn lookup(&self, term: &str) -> Arc<[NodeId]> {
        let Some(d) = self.directory.get(term) else {
            return Arc::from(Vec::new());
        };
        let mut loaded = self.loaded.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(p) = loaded.get(term) {
            return Arc::clone(p);
        }
        let mut v = Vec::with_capacity(d.count as usize);
        for i in 0..d.count as usize {
            let p = d.offset as usize + i * 4;
            // invariant: from_bytes validated every directory entry
            // against the blob, so this slice is in bounds.
            v.push(NodeId(u32::from_le_bytes([
                self.blob[p],
                self.blob[p + 1],
                self.blob[p + 2],
                self.blob[p + 3],
            ])));
        }
        let arc: Arc<[NodeId]> = Arc::from(v);
        loaded.insert(term.to_string(), Arc::clone(&arc));
        self.terms_loaded.fetch_add(1, Ordering::Relaxed);
        arc
    }
}

impl crate::index::PostingsSource for SegmentIndex {
    fn postings(&self, term: &str) -> crate::index::Postings<'_> {
        crate::index::Postings::Shared(self.lookup(term))
    }

    fn df(&self, term: &str) -> usize {
        SegmentIndex::df(self, term)
    }

    fn needs_load(&self, term: &str) -> bool {
        !self.is_loaded(term)
    }

    fn persistent(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_str;

    fn sample() -> Document {
        parse_str(
            r#"<article lang="en"><title>On Fragments</title>
               <sec id="s1"><par>alpha beta</par><par>gamma alpha</par></sec></article>"#,
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_matches_inverted_index() {
        let d = sample();
        let idx = InvertedIndex::build(&d);
        let seg = SegmentIndex::from_bytes(&encode_segment(&d)).unwrap();
        assert_eq!(seg.doc_len(), d.len());
        assert_eq!(seg.term_count(), idx.term_count());
        for (term, postings) in idx.terms() {
            assert_eq!(seg.df(term), postings.len(), "df {term}");
            assert_eq!(&*seg.lookup(term), postings, "postings {term}");
        }
        assert_eq!(&*seg.lookup("absent"), &[] as &[NodeId]);
    }

    #[test]
    fn lazy_loading_counts_materializations_once() {
        let d = sample();
        let seg = SegmentIndex::from_bytes(&encode_segment(&d)).unwrap();
        assert_eq!(seg.terms_loaded(), 0);
        assert!(!seg.is_loaded("alpha"));
        let a = seg.lookup("alpha");
        assert_eq!(seg.terms_loaded(), 1);
        assert!(seg.is_loaded("alpha"));
        let b = seg.lookup("alpha");
        assert_eq!(seg.terms_loaded(), 1);
        assert_eq!(a, b);
        // Absent terms never count as loads.
        let _ = seg.lookup("nope");
        assert_eq!(seg.terms_loaded(), 1);
        assert_eq!(seg.df("alpha"), 2);
        assert_eq!(seg.df("nope"), 0);
    }

    #[test]
    fn every_truncation_point_errors_without_panicking() {
        let bytes = encode_segment(&sample());
        for cut in 0..bytes.len() {
            assert!(
                SegmentIndex::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn every_single_bitflip_errors_without_panicking() {
        let bytes = encode_segment(&sample());
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut c = bytes.clone();
                c[pos] ^= 1 << bit;
                assert!(
                    SegmentIndex::from_bytes(&c).is_err(),
                    "flip bit {bit} at {pos}"
                );
            }
        }
    }

    /// Corrupt a payload field and re-stamp the checksum so the field's
    /// own validation must fire.
    fn restamp(mut v: Vec<u8>) -> Vec<u8> {
        let csum = fnv1a(&v[..v.len() - 8]);
        let len = v.len();
        v[len - 8..].copy_from_slice(&csum.to_le_bytes());
        v
    }

    #[test]
    fn rejects_restamped_structural_corruption() {
        let bytes = encode_segment(&sample());
        // Wrong magic.
        let mut v = bytes.clone();
        v[0] = b'Y';
        assert_eq!(
            SegmentIndex::from_bytes(&restamp(v)).unwrap_err(),
            SegmentError::BadMagic
        );
        // Future version.
        let mut v = bytes.clone();
        v[4] = 9;
        assert_eq!(
            SegmentIndex::from_bytes(&restamp(v)).unwrap_err(),
            SegmentError::UnsupportedVersion(9)
        );
        // Huge node count must be rejected before allocation.
        let mut v = bytes.clone();
        v[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            SegmentIndex::from_bytes(&restamp(v)).unwrap_err(),
            SegmentError::Truncated
        );
        // First label length stomped: labels become inconsistent.
        let mut v = bytes.clone();
        v[10..14].copy_from_slice(&3u32.to_le_bytes());
        assert!(SegmentIndex::from_bytes(&restamp(v)).is_err());
    }

    /// Rebuild a v1 encoding in the v2 layout older builds wrote: a
    /// zeroed stats section after the postings blob, version 2, and a
    /// restamped checksum.
    fn upgrade_to_v2(v1: &[u8], terms: usize) -> Vec<u8> {
        let mut v2 = v1[..v1.len() - 8].to_vec();
        v2[4..6].copy_from_slice(&2u16.to_le_bytes());
        v2.resize(v2.len() + V2_STATS_FIXED + V2_STATS_PER_TERM * terms, 0);
        let csum = fnv1a(&v2);
        v2.extend_from_slice(&csum.to_le_bytes());
        v2
    }

    #[test]
    fn v2_segments_still_decode() {
        let d = sample();
        let v1 = encode_segment(&d);
        assert_eq!(v1[4..6], 1u16.to_le_bytes(), "the encoder writes v1");
        let old = SegmentIndex::from_bytes(&v1).unwrap();
        let v2 = upgrade_to_v2(&v1, old.term_count());
        let seg = SegmentIndex::from_bytes(&v2).unwrap();
        assert_eq!(seg.doc_len(), old.doc_len());
        assert!(seg.term_names().eq(old.term_names()));
        for term in old.term_names() {
            assert_eq!(seg.df(term), old.df(term), "df {term}");
            assert_eq!(seg.lookup(term), old.lookup(term), "postings {term}");
        }
        // The checksum still covers the skipped stats section.
        for pos in v1.len() - 8..v2.len() - 8 {
            let mut c = v2.clone();
            c[pos] ^= 0x20;
            assert_eq!(
                SegmentIndex::from_bytes(&c).unwrap_err(),
                SegmentError::ChecksumMismatch,
                "flip at {pos}"
            );
        }
        // The section is bounds-checked: one byte short or one byte over
        // fails even with a valid checksum.
        let short = restamp(v2[..v2.len() - 1].to_vec());
        assert_eq!(
            SegmentIndex::from_bytes(&short).unwrap_err(),
            SegmentError::Truncated
        );
        let mut long = v2.clone();
        long.insert(v2.len() - 8, 0);
        assert!(matches!(
            SegmentIndex::from_bytes(&restamp(long)).unwrap_err(),
            SegmentError::StructuralError(_)
        ));
    }

    #[test]
    fn segment_file_names_follow_generation_convention() {
        assert_eq!(segment_file_name("a", 2), "a.g000002.xidx");
        assert_eq!(
            crate::manifest::split_generation_file("a.g000002.xidx"),
            Some(("a.xidx".into(), 2))
        );
    }

    #[test]
    fn encode_is_deterministic() {
        let d = sample();
        assert_eq!(encode_segment(&d), encode_segment(&d));
    }
}

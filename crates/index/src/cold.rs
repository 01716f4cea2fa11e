//! Cold-start index paging: serve [`IndexDoc`]s out of a durable
//! segment instead of recomputing them from raw sequences.
//!
//! A freshly reopened store has its entries on disk but its indexes
//! nowhere: rebuilding them means re-deriving every document (symbol
//! string, interval buckets, peak count) from every stored sequence —
//! exactly the work compaction already did once. The durable layer
//! therefore persists *encoded documents* next to the entries, and this
//! module is the index-side consumer: [`OwnedDoc`] is the owning
//! (de)serializable form of [`IndexDoc`], and [`DocPager`] abstracts
//! "who can produce the document for an id" (in production, a B-tree
//! segment reader) — so a query over twelve ids pages in twelve
//! documents, not the archive.
//!
//! A pager is allowed to *refuse* an id (return `None`): documents go
//! stale the moment a sequence is mutated after compaction, and the
//! contract is that refusal only ever costs the caller a recompute,
//! never correctness.

use crate::index_set::IndexDoc;
use saq_durable::codec::{self, Cursor};
use saq_durable::Result;

/// An owning [`IndexDoc`]: the form that crosses the storage boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedDoc {
    /// θ-quantized slope symbol ids.
    pub symbols: Vec<u8>,
    /// Inter-peak interval buckets in position order.
    pub interval_buckets: Vec<i64>,
    /// Number of peaks.
    pub peak_count: usize,
}

impl OwnedDoc {
    /// The borrowed view every [`crate::SequenceIndex`] consumes.
    pub fn as_doc(&self) -> IndexDoc<'_> {
        IndexDoc {
            symbols: &self.symbols,
            interval_buckets: &self.interval_buckets,
            peak_count: self.peak_count,
        }
    }

    /// Hand-rolled binary encoding (the vendored serde derives are
    /// no-ops): symbols as a length-prefixed byte string, buckets as a
    /// count plus `i64` two's-complement bit patterns, then the peak
    /// count.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        codec::put_bytes(&mut out, &self.symbols);
        codec::put_u32(&mut out, self.interval_buckets.len() as u32);
        for &bucket in &self.interval_buckets {
            codec::put_u64(&mut out, bucket as u64);
        }
        codec::put_u64(&mut out, self.peak_count as u64);
        out
    }

    /// Decodes [`OwnedDoc::encode`] output, rejecting trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<OwnedDoc> {
        let mut c = Cursor::new(bytes, "index doc");
        let symbols = c.get_bytes()?.to_vec();
        let count = c.get_u32()? as usize;
        let mut interval_buckets = Vec::with_capacity(count.min(bytes.len()));
        for _ in 0..count {
            interval_buckets.push(c.get_u64()? as i64);
        }
        let peak_count = c.get_u64()? as usize;
        c.finish()?;
        Ok(OwnedDoc { symbols, interval_buckets, peak_count })
    }
}

/// A source of index documents by id — typically a durable segment
/// reader, but anything that can produce (or decline to produce) the
/// exact document for an id qualifies. Refusal (`None`) must be safe:
/// callers fall back to recomputing from the stored sequence.
pub trait DocPager: Send + Sync {
    /// The document for `id`, or `None` if this pager cannot vouch for
    /// it (unknown id, or known stale).
    fn doc(&self, id: u64) -> Option<OwnedDoc>;

    /// Every id this pager can currently serve.
    fn ids(&self) -> Vec<u64>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(tag: u8, buckets: &[i64], peaks: usize) -> OwnedDoc {
        OwnedDoc { symbols: vec![tag, tag], interval_buckets: buckets.to_vec(), peak_count: peaks }
    }

    #[test]
    fn encode_decode_round_trips() {
        for d in [
            doc(1, &[4, -9, i64::MAX], 3),
            doc(0, &[], 0),
            OwnedDoc { symbols: vec![], interval_buckets: vec![i64::MIN], peak_count: 7 },
        ] {
            assert_eq!(OwnedDoc::decode(&d.encode()).unwrap(), d);
        }
        let mut bytes = doc(1, &[5], 1).encode();
        bytes.push(0);
        assert!(OwnedDoc::decode(&bytes).is_err(), "trailing bytes rejected");
        assert!(OwnedDoc::decode(&bytes[..3]).is_err(), "truncation rejected");
    }
}

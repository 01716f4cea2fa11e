//! Feature documents: what every feature leaf reads of one sequence, in
//! an owning form that crosses the storage boundary.
//!
//! A document is the sequence's [`IndexDoc`] (symbol string, interval
//! buckets, peak count) plus the extrema of its peaks' steepness — the
//! five values that decide every feature predicate. The archive keeps one
//! [`OwnedDoc`] per id resident and persists them in the docs segment at
//! compaction, so a reopened archive decodes documents instead of
//! re-deriving them from every raw sequence. [`DocPager`] names "who can
//! produce the persisted document for an id".

use crate::index_set::IndexDoc;
use saq_durable::codec::{self, Cursor};
use saq_durable::{Error, Result};

/// The leading byte of every encoded document. Version 1 carried no
/// steepness extrema and no format byte; its documents fail to decode.
pub const DOC_FORMAT: u8 = 2;

/// An owning feature document: the form that crosses the storage boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedDoc {
    /// θ-quantized slope symbol ids.
    pub symbols: Vec<u8>,
    /// Inter-peak interval buckets in position order.
    pub interval_buckets: Vec<i64>,
    /// Number of peaks.
    pub peak_count: usize,
    /// `(min, max)` steepness over the peaks; `None` when there are none.
    pub steepness: Option<(f64, f64)>,
}

/// Everything a feature leaf reads of one sequence, borrowed: the index
/// document plus the steepness extrema.
#[derive(Debug, Clone, Copy)]
pub struct FeatureDoc<'a> {
    /// What the index layer reads.
    pub index: IndexDoc<'a>,
    /// `(min, max)` steepness over the peaks; `None` when there are none.
    pub steepness: Option<(f64, f64)>,
}

impl OwnedDoc {
    /// The borrowed view feature predicates evaluate.
    pub fn as_doc(&self) -> FeatureDoc<'_> {
        FeatureDoc {
            index: IndexDoc {
                symbols: &self.symbols,
                interval_buckets: &self.interval_buckets,
                peak_count: self.peak_count,
            },
            steepness: self.steepness,
        }
    }

    /// Hand-rolled binary encoding (the vendored serde derives are
    /// no-ops): the format byte, symbols as a length-prefixed byte
    /// string, buckets as a count plus `i64` two's-complement bit
    /// patterns, the peak count, then a presence byte and, when present,
    /// the steepness minimum and maximum as IEEE-754 bit patterns.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![DOC_FORMAT];
        codec::put_bytes(&mut out, &self.symbols);
        codec::put_u32(&mut out, self.interval_buckets.len() as u32);
        for &bucket in &self.interval_buckets {
            codec::put_u64(&mut out, bucket as u64);
        }
        codec::put_u64(&mut out, self.peak_count as u64);
        out.push(self.steepness.is_some() as u8);
        if let Some((min, max)) = self.steepness {
            codec::put_f64(&mut out, min);
            codec::put_f64(&mut out, max);
        }
        out
    }

    /// Decodes [`OwnedDoc::encode`] output, rejecting other formats and
    /// trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<OwnedDoc> {
        let mut c = Cursor::new(bytes, "index doc");
        let format = c.get_u8()?;
        if format != DOC_FORMAT {
            return Err(Error::corrupt(format!("index doc: unsupported format {format}")));
        }
        let symbols = c.get_bytes()?.to_vec();
        let count = c.get_u32()? as usize;
        let mut interval_buckets = Vec::with_capacity(count.min(bytes.len()));
        for _ in 0..count {
            interval_buckets.push(c.get_u64()? as i64);
        }
        let peak_count = c.get_u64()? as usize;
        let steepness = match c.get_u8()? {
            0 => None,
            1 => Some((c.get_f64()?, c.get_f64()?)),
            flag => return Err(Error::corrupt(format!("index doc: steepness flag {flag}"))),
        };
        c.finish()?;
        Ok(OwnedDoc { symbols, interval_buckets, peak_count, steepness })
    }
}

/// A source of persisted documents by id — typically a durable segment
/// reader. `None` means the source holds no readable document for `id`.
pub trait DocPager: Send + Sync {
    /// The document for `id`, or `None`.
    fn doc(&self, id: u64) -> Option<OwnedDoc>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(tag: u8, buckets: &[i64], peaks: usize) -> OwnedDoc {
        OwnedDoc {
            symbols: vec![tag, tag],
            interval_buckets: buckets.to_vec(),
            peak_count: peaks,
            steepness: (peaks > 0).then_some((0.25, f64::MAX)),
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        for d in [
            doc(1, &[4, -9, i64::MAX], 3),
            doc(0, &[], 0),
            OwnedDoc {
                symbols: vec![],
                interval_buckets: vec![i64::MIN],
                peak_count: 7,
                steepness: Some((-0.0, 1e-300)),
            },
        ] {
            let back = OwnedDoc::decode(&d.encode()).unwrap();
            assert_eq!(back.encode(), d.encode(), "bit-exact, signed zero included");
            assert_eq!(back, d);
        }
        let mut bytes = doc(1, &[5], 1).encode();
        bytes.push(0);
        assert!(OwnedDoc::decode(&bytes).is_err(), "trailing bytes rejected");
        assert!(OwnedDoc::decode(&bytes[..3]).is_err(), "truncation rejected");
        let mut other = doc(1, &[5], 1).encode();
        other[0] = 1;
        assert!(OwnedDoc::decode(&other).is_err(), "a version-1 document is refused");
    }
}

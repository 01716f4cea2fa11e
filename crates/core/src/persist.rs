//! Persistence for linear representations.
//!
//! The paper's premise is that representations are "significantly more
//! space efficient than the original" and therefore *storable locally*;
//! this module lets a [`LinearSeries`] survive process restarts and ship
//! between sites without the raw data.
//!
//! The format is one CRC-checksummed, length-prefixed frame of the durable
//! storage codec ([`saq_durable::codec`]) whose body is `"SAQ2"` +
//! original length + segment records in little-endian with IEEE-754
//! bit-exact floats. Corruption anywhere is detected by the checksum
//! instead of silently mangling coefficients; anything that is not such a
//! frame is rejected.

use crate::error::{Error, Result};
use crate::repr::{FunctionSeries, LinearSeries, Segment};
use saq_curves::Line;
use saq_durable::codec::{self, Cursor};
use saq_sequence::Point;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"SAQ2";

/// Writes a linear series (one checksummed frame over the durable codec).
pub fn write_series<W: Write>(series: &LinearSeries, out: W) -> Result<()> {
    let mut w = BufWriter::new(out);
    w.write_all(&encode_series(series)).map_err(io_err)?;
    w.flush().map_err(io_err)
}

/// Encodes a linear series (the exact bytes [`write_series`] emits).
pub fn encode_series(series: &LinearSeries) -> Vec<u8> {
    let mut body = Vec::with_capacity(8 + 12 + series.segment_count() * 64);
    body.extend_from_slice(MAGIC);
    codec::put_u64(&mut body, series.original_len() as u64);
    codec::put_u32(&mut body, series.segment_count() as u32);
    for seg in series.segments() {
        codec::put_u64(&mut body, seg.start_index as u64);
        codec::put_u64(&mut body, seg.end_index as u64);
        codec::put_f64(&mut body, seg.start.t);
        codec::put_f64(&mut body, seg.start.v);
        codec::put_f64(&mut body, seg.end.t);
        codec::put_f64(&mut body, seg.end.v);
        codec::put_f64(&mut body, seg.curve.slope);
        codec::put_f64(&mut body, seg.curve.intercept);
    }
    codec::frame(&body)
}

/// Reads a linear series written by [`write_series`].
pub fn read_series<R: Read>(mut input: R) -> Result<LinearSeries> {
    let mut bytes = Vec::new();
    input.read_to_end(&mut bytes).map_err(io_err)?;
    decode_series(&bytes)
}

/// Decodes [`encode_series`] bytes back into a series.
pub fn decode_series(bytes: &[u8]) -> Result<LinearSeries> {
    let body = codec::read_single_frame(bytes, "linear series file")?;
    let mut c = Cursor::new(body, "linear series");
    let magic = [c.get_u8()?, c.get_u8()?, c.get_u8()?, c.get_u8()?];
    if &magic != MAGIC {
        return Err(Error::Storage(saq_durable::Error::corrupt(
            "linear series: bad magic".to_string(),
        )));
    }
    let original_len = c.get_u64()? as usize;
    let segment_count = c.get_u32()? as usize;
    let mut segments = Vec::with_capacity(segment_count.min(body.len() / 64 + 1));
    for _ in 0..segment_count {
        let start_index = c.get_u64()? as usize;
        let end_index = c.get_u64()? as usize;
        let start = Point::new(c.get_f64()?, c.get_f64()?);
        let end = Point::new(c.get_f64()?, c.get_f64()?);
        let curve = Line::new(c.get_f64()?, c.get_f64()?);
        segments.push(Segment { start_index, end_index, start, end, curve });
    }
    c.finish()?;
    FunctionSeries::from_segments(segments, original_len)
}

/// Saves to a file path.
pub fn save_series<P: AsRef<Path>>(series: &LinearSeries, path: P) -> Result<()> {
    let file = std::fs::File::create(path).map_err(io_err)?;
    write_series(series, file)
}

/// Loads from a file path.
pub fn load_series<P: AsRef<Path>>(path: P) -> Result<LinearSeries> {
    let file = std::fs::File::open(path).map_err(io_err)?;
    read_series(file)
}

fn io_err(e: std::io::Error) -> Error {
    Error::Sequence(saq_sequence::Error::Io(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brk::{Breaker, LinearInterpolationBreaker};
    use saq_curves::RegressionFitter;
    use saq_sequence::generators::{goalpost, GoalpostSpec};

    fn sample_series() -> LinearSeries {
        let log = goalpost(GoalpostSpec::default());
        let ranges = LinearInterpolationBreaker::new(1.0).break_ranges(&log);
        FunctionSeries::build(&log, &ranges, &RegressionFitter).unwrap()
    }

    #[test]
    fn roundtrip_through_memory() {
        let series = sample_series();
        let mut buf = Vec::new();
        write_series(&series, &mut buf).unwrap();
        let back = read_series(buf.as_slice()).unwrap();
        assert_eq!(series, back);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("saq_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("series.saq");
        let series = sample_series();
        save_series(&series, &path).unwrap();
        let back = load_series(&path).unwrap();
        assert_eq!(series, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_inputs_rejected() {
        assert!(read_series("".as_bytes()).is_err());
        assert!(read_series("not-a-header 1 2\n".as_bytes()).is_err());
    }

    #[test]
    fn v1_text_bytes_are_rejected() {
        // What the retired v1 text writer produced for a one-segment
        // series, with and without a comment preamble: an error, never a
        // panic or a partial series.
        let v1 = "saq-linear-series v1 49 1\n0 48 0 1 48 2 0.2 1\n";
        for text in [v1.to_string(), format!("# preamble\n\n{v1}")] {
            let err = read_series(text.as_bytes()).unwrap_err();
            assert!(matches!(err, Error::Storage(_)), "{err}");
        }
    }

    #[test]
    fn v2_corruption_is_caught_by_the_checksum() {
        let series = sample_series();
        let clean = encode_series(&series);
        // Every single-byte flip anywhere in the frame is detected.
        for at in [0, 4, 8, 9, clean.len() / 2, clean.len() - 1] {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x40;
            assert!(read_series(bytes.as_slice()).is_err(), "flip at {at} accepted");
        }
        // Truncation too.
        assert!(read_series(&clean[..clean.len() - 3]).is_err());
        // And a valid frame with the wrong inner magic.
        let mut body = clean[8..].to_vec();
        body[0] = b'X';
        assert!(read_series(codec::frame(&body).as_slice()).is_err());
    }

    #[test]
    fn loaded_series_still_answers_queries() {
        let series = sample_series();
        let mut buf = Vec::new();
        write_series(&series, &mut buf).unwrap();
        let back = read_series(buf.as_slice()).unwrap();
        // Peak extraction works on the reloaded representation.
        let peaks = crate::features::PeakTable::extract(&back, 0.25);
        assert_eq!(peaks.len(), 2);
        // Evaluation too.
        assert!((back.value_at(8.0).unwrap() - series.value_at(8.0).unwrap()).abs() < 1e-12);
    }
}

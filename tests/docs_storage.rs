//! Keeps `docs/STORAGE.md` honest: every ```wal-record and
//! ```feature-doc fenced block is re-encoded through the implementation
//! and compared byte-for-byte against the documented hex, and the
//! ```storage-keys block is checked against the real key constants. If
//! the on-disk format drifts, this fails before a reader is misled.

use saq::durable::store::{docs_key, segment_key, MANIFEST_KEY};
use saq::durable::wal::WAL_KEY;
use saq::durable::{WalOp, WalRecord};
use saq::index::OwnedDoc;

const DOC: &str = include_str!("../docs/STORAGE.md");

/// Extracts the bodies of fenced code blocks tagged `tag`, in order.
fn fenced_blocks(doc: &str, tag: &str) -> Vec<String> {
    let mut blocks = Vec::new();
    let mut current: Option<String> = None;
    for line in doc.lines() {
        match &mut current {
            Some(body) => {
                if line.trim() == "```" {
                    blocks.push(current.take().unwrap());
                } else {
                    body.push_str(line);
                    body.push('\n');
                }
            }
            None => {
                if line.trim() == format!("```{tag}") {
                    current = Some(String::new());
                }
            }
        }
    }
    assert!(current.is_none(), "unterminated ```{tag} block in docs/STORAGE.md");
    blocks
}

/// Parses a `key=value`-style field out of a wal-record header line.
fn field<'a>(header: &'a str, key: &str) -> Option<&'a str> {
    header.split_whitespace().find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

fn parse_hex(text: &str) -> Vec<u8> {
    text.split_whitespace()
        .map(|byte| {
            u8::from_str_radix(byte, 16).unwrap_or_else(|_| panic!("bad hex byte {byte:?}"))
        })
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect::<Vec<_>>().join(" ")
}

#[test]
fn documented_wal_records_encode_to_their_hex() {
    let blocks = fenced_blocks(DOC, "wal-record");
    assert_eq!(blocks.len(), 4, "STORAGE.md documents a put, a remove, a wildcard, and an append");
    for block in blocks {
        let (header, body) = block.split_once('\n').expect("header line then hex");
        let generation: u64 =
            field(header, "generation").expect("header names a generation").parse().unwrap();
        let kind = header.split_whitespace().next().expect("header names a kind");
        let op = match kind {
            "put" => {
                let payload = field(header, "payload").expect("put has a payload");
                assert!(payload.len().is_multiple_of(2), "payload hex has whole bytes");
                WalOp::Put {
                    id: field(header, "id").expect("put has an id").parse().unwrap(),
                    payload: (0..payload.len())
                        .step_by(2)
                        .map(|i| u8::from_str_radix(&payload[i..i + 2], 16).expect("payload hex"))
                        .collect(),
                }
            }
            "remove" => WalOp::Remove { id: field(header, "id").unwrap().parse().unwrap() },
            "wildcard" => WalOp::Wildcard,
            "append" => {
                let payload = field(header, "payload").expect("append has a payload");
                assert!(payload.len().is_multiple_of(2), "payload hex has whole bytes");
                WalOp::Append {
                    id: field(header, "id").expect("append has an id").parse().unwrap(),
                    payload: (0..payload.len())
                        .step_by(2)
                        .map(|i| u8::from_str_radix(&payload[i..i + 2], 16).expect("payload hex"))
                        .collect(),
                }
            }
            other => panic!("unknown wal-record kind {other:?} in docs/STORAGE.md"),
        };
        let record = WalRecord { generation, op };
        let documented = parse_hex(body);
        assert_eq!(
            hex(&record.encode()),
            hex(&documented),
            "documented bytes for {header:?} match the encoder"
        );
        let decoded = WalRecord::decode_body(&documented[8..]).expect("documented body decodes");
        assert_eq!(decoded, record, "documented bytes decode back to the same record");
    }
}

#[test]
fn documented_feature_docs_encode_to_their_hex() {
    let blocks = fenced_blocks(DOC, "feature-doc");
    assert_eq!(blocks.len(), 2, "STORAGE.md documents a document with peaks and one without");
    for block in blocks {
        let (header, body) = block.split_once('\n').expect("header line then hex");
        let symbols = field(header, "symbols").expect("a doc names its symbols");
        let numbers = |key| -> Vec<f64> {
            let text = field(header, key).expect("field present");
            text.split(',').filter(|t| !t.is_empty()).map(|t| t.parse().unwrap()).collect()
        };
        let steepness = numbers("steepness");
        let doc = OwnedDoc {
            symbols: (0..symbols.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&symbols[i..i + 2], 16).expect("symbol hex"))
                .collect(),
            interval_buckets: numbers("buckets").iter().map(|&b| b as i64).collect(),
            peak_count: field(header, "peaks").unwrap().parse().unwrap(),
            steepness: (!steepness.is_empty()).then(|| (steepness[0], steepness[1])),
        };
        let documented = parse_hex(body);
        assert_eq!(hex(&doc.encode()), hex(&documented), "documented bytes for {header:?}");
        assert_eq!(OwnedDoc::decode(&documented).unwrap(), doc, "documented bytes decode back");
    }
}

#[test]
fn documented_storage_keys_are_the_real_ones() {
    let blocks = fenced_blocks(DOC, "storage-keys");
    assert_eq!(blocks.len(), 1, "STORAGE.md has one storage-keys block");
    let documented: Vec<&str> = blocks[0].lines().map(str::trim).collect();
    assert_eq!(
        documented,
        vec![MANIFEST_KEY, WAL_KEY, &segment_key(42), &docs_key(42)],
        "the documented keyspace matches the store's key builders"
    );
}

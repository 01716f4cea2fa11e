//! Keeps `docs/SERVER.md` honest: every fenced code block tagged `saqp`
//! must parse through the real SAQP/1 implementation — request payloads
//! through `WireRequest::parse` (with `QUERY` bodies parsing as SAQL),
//! response payloads through `WireResponse::parse` and on into what the
//! client reads from them: a `QueryResponse` for query results, a
//! `MetricsSnapshot` for `STATS` counters, or the error they carry. Run by the
//! CI docs job (and plain `cargo test`).

use saq::core::lang::saql;
use saq::server::protocol::{Verb, WireRequest, WireResponse};
use saq::server::MetricsSnapshot;

const DOC: &str = include_str!("../docs/SERVER.md");

/// Extracts the contents of every ```saqp fenced block.
fn saqp_blocks(doc: &str) -> Vec<String> {
    let mut blocks = Vec::new();
    let mut current: Option<String> = None;
    for line in doc.lines() {
        let fence = line.trim_start();
        match &mut current {
            None if fence.trim_end() == "```saqp" => current = Some(String::new()),
            None => {}
            Some(block) => {
                if fence.starts_with("```") {
                    blocks.push(current.take().expect("block in progress"));
                } else {
                    block.push_str(line);
                    block.push('\n');
                }
            }
        }
    }
    assert!(current.is_none(), "unterminated ```saqp block in docs/SERVER.md");
    blocks
}

#[test]
fn every_saqp_block_in_the_docs_speaks_the_real_protocol() {
    let blocks = saqp_blocks(DOC);
    assert!(
        blocks.len() >= 6,
        "docs/SERVER.md should keep its worked protocol examples (found {})",
        blocks.len()
    );
    for block in &blocks {
        let status = block.lines().next().unwrap_or_default();
        if status.starts_with("OK") || status.starts_with("ERR") {
            let reply = WireResponse::parse(block)
                .unwrap_or_else(|e| panic!("docs/SERVER.md reply failed to parse:\n{block}\n{e}"));
            if reply.header("exact").is_some() {
                reply.to_response().unwrap_or_else(|e| {
                    panic!(
                        "docs/SERVER.md OK reply does not lift to a QueryResponse:\n{block}\n{e}"
                    )
                });
            } else if reply.header("connections").is_some() {
                MetricsSnapshot::from_reply(&reply).unwrap_or_else(|e| {
                    panic!("docs/SERVER.md STATS reply is not what the client reads:\n{block}\n{e}")
                });
            } else if !reply.ok {
                let err = reply.to_error();
                assert!(err.code() > 0, "documented errors carry a stable code:\n{block}");
            }
        } else {
            let request = WireRequest::parse(block).unwrap_or_else(|e| {
                panic!("docs/SERVER.md request failed to parse:\n{block}\n{e}")
            });
            if request.verb == Verb::Query {
                saql::parse(request.body.trim()).unwrap_or_else(|e| {
                    panic!("docs/SERVER.md QUERY body is not valid SAQL:\n{block}\n{e}")
                });
            }
        }
    }
}

#[test]
fn documented_examples_round_trip_through_render() {
    for block in saqp_blocks(DOC) {
        let status = block.lines().next().unwrap_or_default();
        if status.starts_with("OK") || status.starts_with("ERR") {
            let reply = WireResponse::parse(&block).unwrap();
            assert_eq!(WireResponse::parse(&reply.render()).unwrap(), reply);
        } else {
            let request = WireRequest::parse(&block).unwrap();
            assert_eq!(WireRequest::parse(&request.render()).unwrap(), request);
        }
    }
}

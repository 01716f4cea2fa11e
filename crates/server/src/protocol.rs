//! SAQP/1 — the `saqd` wire protocol.
//!
//! A deliberately small, hand-framed, text-over-TCP protocol: every
//! message is one *frame* (a 4-byte big-endian length followed by that
//! many bytes of UTF-8), and every frame carries an HTTP-shaped payload —
//! a verb line, `key: value` headers, a blank line, and a free-form body:
//!
//! ```text
//! QUERY SAQP/1
//! stats: true
//!
//! peaks = 2 and steepness all >= 0.4 slack 0.2
//! ```
//!
//! Responses mirror the shape with `OK`/`ERR` status lines. An `ERR`
//! payload carries the stable [`Error::code`] in a `code:` header and the
//! error's full `Display` rendering as the body, so multi-line SAQL caret
//! diagnostics survive the trip losslessly and the client can rebuild an
//! [`saq_core::Error::Remote`] with nothing flattened away.
//!
//! The body of a `QUERY` is always SAQL text: clients holding a built
//! [`saq_core::algebra::QueryExpr`] serialize it through `to_saql()` (the printer and parser
//! are inverses, property-tested in `tests/prop_saql.rs`), so one wire
//! shape serves both request bodies.

use saq_core::algebra::ExecStats;
use saq_core::query::{ApproximateMatch, QueryOutcome};
use saq_core::subscribe::Delta;
use saq_core::{Error, QueryRequest, QueryResponse, Result, SnapshotRef};
use saq_sequence::Point;
use std::io::{Read, Write};

/// The protocol name + revision, asserted on every verb and status line.
pub const PROTOCOL: &str = "SAQP/1";

/// Hard cap on one frame's payload: a megabyte of SAQL or results. Frames
/// above it are refused before allocation — a garbage length prefix must
/// not buy a garbage-sized buffer.
pub const MAX_FRAME: usize = 1 << 20;

/// Writes one length-prefixed frame as a single `write_all` of
/// `[len be32][payload]`. Written in two parts, the payload would wait
/// behind the prefix for the peer's delayed ACK.
pub fn write_frame(w: &mut impl Write, payload: &str) -> Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(Error::Protocol(format!(
            "frame of {} bytes exceeds the {MAX_FRAME}-byte cap",
            bytes.len()
        )));
    }
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (the peer closed
/// between frames); EOF mid-frame is a [`Error::Protocol`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<String>> {
    let mut len = [0u8; 4];
    match r.read(&mut len)? {
        0 => return Ok(None),
        n => r.read_exact(&mut len[n..]).map_err(|_| truncated())?,
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(Error::Protocol(format!(
            "peer announced a {len}-byte frame; the cap is {MAX_FRAME}"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|_| truncated())?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| Error::Protocol("frame payload is not UTF-8".into()))
}

fn truncated() -> Error {
    Error::Protocol("connection closed mid-frame".into())
}

/// The request verbs a `saqd` session understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// Run the SAQL query in the body.
    Query,
    /// Liveness probe; answers with the current snapshot.
    Ping,
    /// Server counters (connections, queries, waves, errors).
    Stats,
    /// Pin this session to a snapshot: subsequent queries refuse to run
    /// against any other generation.
    Pin,
    /// Drop this session's pin.
    Unpin,
    /// Register the SAQL query in the body as a standing subscription;
    /// the reply carries its id in a `subscription:` header, and
    /// membership changes arrive as unsolicited [`Verb::Delta`] frames.
    Subscribe,
    /// Drop the subscription named by the `subscription:` header.
    Unsubscribe,
    /// Append points (one `t v` pair per body line) to the archived
    /// sequence named by the `id:` header, creating it if absent.
    Append,
    /// Server→client push: one subscription's membership change after a
    /// mutation wave (`subscription:`, `entered:`, `left:`, `snapshot:`
    /// headers). Clients never send this verb.
    Delta,
    /// Ask the server to stop accepting connections and drain.
    Shutdown,
}

impl Verb {
    fn as_str(self) -> &'static str {
        match self {
            Verb::Query => "QUERY",
            Verb::Ping => "PING",
            Verb::Stats => "STATS",
            Verb::Pin => "PIN",
            Verb::Unpin => "UNPIN",
            Verb::Subscribe => "SUBSCRIBE",
            Verb::Unsubscribe => "UNSUBSCRIBE",
            Verb::Append => "APPEND",
            Verb::Delta => "DELTA",
            Verb::Shutdown => "SHUTDOWN",
        }
    }

    fn parse(s: &str) -> Result<Verb> {
        Ok(match s {
            "QUERY" => Verb::Query,
            "PING" => Verb::Ping,
            "STATS" => Verb::Stats,
            "PIN" => Verb::Pin,
            "UNPIN" => Verb::Unpin,
            "SUBSCRIBE" => Verb::Subscribe,
            "UNSUBSCRIBE" => Verb::Unsubscribe,
            "APPEND" => Verb::Append,
            "DELTA" => Verb::Delta,
            "SHUTDOWN" => Verb::Shutdown,
            other => return Err(Error::Protocol(format!("unknown verb `{other}`"))),
        })
    }
}

/// One parsed request payload: verb, headers, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRequest {
    /// What the client asks of the server.
    pub verb: Verb,
    /// `key: value` lines between the verb line and the body.
    pub headers: Vec<(String, String)>,
    /// Free-form body; SAQL text for [`Verb::Query`].
    pub body: String,
}

impl WireRequest {
    /// A bodyless, headerless request for `verb`.
    pub fn new(verb: Verb) -> WireRequest {
        WireRequest { verb, headers: Vec::new(), body: String::new() }
    }

    /// The first value for `key`, if present.
    pub fn header(&self, key: &str) -> Option<&str> {
        header_of(&self.headers, key)
    }

    /// Renders the payload (the exact bytes framed onto the wire).
    pub fn render(&self) -> String {
        render(&format!("{} {PROTOCOL}", self.verb.as_str()), &self.headers, &self.body)
    }

    /// Parses a payload produced by [`WireRequest::render`].
    pub fn parse(payload: &str) -> Result<WireRequest> {
        let (status, headers, body) = split(payload)?;
        let verb = match status.strip_suffix(&format!(" {PROTOCOL}")) {
            Some(verb) => Verb::parse(verb)?,
            None => return Err(Error::Protocol(format!("malformed verb line `{status}`"))),
        };
        Ok(WireRequest { verb, headers, body: body.to_string() })
    }

    /// Lowers an engine-level [`QueryRequest`] onto the wire. Built
    /// expressions are serialized through `to_saql()`; the pin and the
    /// stats/explain wants become headers.
    pub fn from_request(req: &QueryRequest) -> Result<WireRequest> {
        let body = match &req.query {
            saq_core::QueryBody::Saql(text) => text.clone(),
            saq_core::QueryBody::Expr(expr) => expr.to_saql()?,
        };
        let mut wire = WireRequest { verb: Verb::Query, headers: Vec::new(), body };
        if let Some(pin) = req.pin {
            wire.headers.push(("pin".into(), pin.to_string()));
        }
        if req.want_stats {
            wire.headers.push(("stats".into(), "true".into()));
        }
        if req.want_explain {
            wire.headers.push(("explain".into(), "true".into()));
        }
        Ok(wire)
    }

    /// Raises a [`Verb::Query`] payload back into a [`QueryRequest`]. An
    /// explicit `pin:` header wins over the session-level `session_pin`
    /// (set by a prior `PIN` verb).
    pub fn to_request(&self, session_pin: Option<SnapshotRef>) -> Result<QueryRequest> {
        let mut req = QueryRequest::saql(self.body.clone());
        req.pin = match self.header("pin") {
            Some(text) => Some(text.parse()?),
            None => session_pin,
        };
        req.want_stats = self.header("stats") == Some("true");
        req.want_explain = self.header("explain") == Some("true");
        Ok(req)
    }
}

/// One parsed response payload: `OK` or `ERR`, headers, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireResponse {
    /// `true` for `OK`, `false` for `ERR`.
    pub ok: bool,
    /// `key: value` lines between the status line and the body.
    pub headers: Vec<(String, String)>,
    /// Free-form body: the explain rendering for queries, the full error
    /// `Display` text for `ERR`.
    pub body: String,
}

impl WireResponse {
    /// A bodyless, headerless `OK`.
    pub fn ok() -> WireResponse {
        WireResponse { ok: true, headers: Vec::new(), body: String::new() }
    }

    /// Serializes an error: its stable code in the `code:` header, its
    /// complete `Display` rendering (carets and all) as the body.
    pub fn err(code: u16, message: &str) -> WireResponse {
        WireResponse {
            ok: false,
            headers: vec![("code".into(), code.to_string())],
            body: message.to_string(),
        }
    }

    /// The first value for `key`, if present.
    pub fn header(&self, key: &str) -> Option<&str> {
        header_of(&self.headers, key)
    }

    /// Adds a header (builder-style).
    pub fn with(mut self, key: &str, value: impl ToString) -> WireResponse {
        self.headers.push((key.into(), value.to_string()));
        self
    }

    /// Renders the payload (the exact bytes framed onto the wire).
    pub fn render(&self) -> String {
        let status = if self.ok { "OK" } else { "ERR" };
        render(&format!("{status} {PROTOCOL}"), &self.headers, &self.body)
    }

    /// Parses a payload produced by [`WireResponse::render`].
    pub fn parse(payload: &str) -> Result<WireResponse> {
        let (status, headers, body) = split(payload)?;
        let ok = match status.strip_suffix(&format!(" {PROTOCOL}")) {
            Some("OK") => true,
            Some("ERR") => false,
            _ => return Err(Error::Protocol(format!("malformed status line `{status}`"))),
        };
        Ok(WireResponse { ok, headers, body: body.to_string() })
    }

    /// Lowers a [`QueryResponse`] onto the wire, stamping the size of the
    /// coalesced wave that served it.
    pub fn from_response(resp: &QueryResponse, wave: u64) -> WireResponse {
        let approx: Vec<String> =
            resp.outcome.approximate.iter().map(|m| format!("{}:{}", m.id, m.deviation)).collect();
        let mut wire = WireResponse::ok()
            .with("wave", wave)
            .with("exact", join_ids(&resp.outcome.exact))
            .with("approx", approx.join(" "));
        if let Some(snapshot) = resp.snapshot {
            wire = wire.with("snapshot", snapshot);
        }
        if let Some(stats) = &resp.stats {
            let mut rendered = format!(
                "universe={} scanned={} index={} scan={}",
                stats.universe, stats.entries_scanned, stats.index_leaves, stats.scan_leaves
            );
            // Per-leaf observed cardinalities ride along as a comma list
            // (`-` marks a leaf short-circuiting skipped entirely).
            if !stats.observed.is_empty() {
                let observed: Vec<String> = stats
                    .observed
                    .iter()
                    .map(|o| o.map_or_else(|| "-".into(), |n| n.to_string()))
                    .collect();
                rendered.push_str(&format!(" observed={}", observed.join(",")));
            }
            wire = wire.with("stats", rendered);
        }
        if let Some(explain) = &resp.explain {
            wire.body = explain.clone();
        }
        wire
    }

    /// Raises an `OK` payload back into a [`QueryResponse`]; an `ERR`
    /// payload becomes the [`Error`] it carries (via [`Self::to_error`]).
    /// The `exact` and `approx` headers are required (the server sends
    /// both, empty when the set is empty): a reply without them is an
    /// [`Error::Protocol`], never an empty result.
    pub fn to_response(&self) -> Result<QueryResponse> {
        if !self.ok {
            return Err(self.to_error());
        }
        let exact = parse_ids(required(&self.headers, "exact", "OK reply")?)?;
        let approximate = required(&self.headers, "approx", "OK reply")?
            .split_whitespace()
            .map(|part| {
                let (id, deviation) = part
                    .split_once(':')
                    .ok_or_else(|| Error::Protocol(format!("malformed approx match `{part}`")))?;
                Ok(ApproximateMatch {
                    id: id
                        .parse()
                        .map_err(|_| Error::Protocol(format!("malformed approx id `{id}`")))?,
                    deviation: deviation.parse().map_err(|_| {
                        Error::Protocol(format!("malformed deviation `{deviation}`"))
                    })?,
                })
            })
            .collect::<Result<_>>()?;
        Ok(QueryResponse {
            outcome: QueryOutcome { exact, approximate },
            stats: self.header("stats").map(parse_stats).transpose()?,
            explain: (!self.body.is_empty()).then(|| self.body.clone()),
            snapshot: self.header("snapshot").map(str::parse).transpose()?,
        })
    }

    /// The error an `ERR` payload carries, rebuilt as [`Error::Remote`]
    /// with the original code and untouched message.
    pub fn to_error(&self) -> Error {
        let code = self.header("code").and_then(|c| c.parse().ok()).unwrap_or(9);
        Error::Remote { code, message: self.body.clone() }
    }

    /// The coalesced-wave size stamped on a query response (0 if absent).
    pub fn wave(&self) -> u64 {
        self.header("wave").and_then(|w| w.parse().ok()).unwrap_or(0)
    }
}

/// One pushed membership change: the payload of a [`Verb::Delta`] frame.
/// The server emits one per subscription whose result set changed in a
/// mutation wave; `snapshot` names the generation the membership is of.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaFrame {
    /// The subscription whose membership changed (wire id).
    pub subscription: u64,
    /// Ids that entered and left the result set, both ascending.
    pub delta: Delta,
    /// The snapshot the new membership was evaluated at.
    pub snapshot: Option<SnapshotRef>,
}

impl DeltaFrame {
    /// Lowers onto the wire as a `DELTA` frame payload.
    pub fn to_wire(&self) -> WireRequest {
        let mut wire = WireRequest::new(Verb::Delta);
        wire.headers.push(("subscription".into(), self.subscription.to_string()));
        wire.headers.push(("entered".into(), join_ids(&self.delta.entered)));
        wire.headers.push(("left".into(), join_ids(&self.delta.left)));
        if let Some(snapshot) = self.snapshot {
            wire.headers.push(("snapshot".into(), snapshot.to_string()));
        }
        wire
    }

    /// Raises a parsed `DELTA` frame back into the membership change.
    /// Every header but `snapshot` is required, like a query reply's
    /// result headers: a frame without `subscription`, `entered` or
    /// `left` is an [`Error::Protocol`].
    pub fn from_wire(wire: &WireRequest) -> Result<DeltaFrame> {
        if wire.verb != Verb::Delta {
            return Err(Error::Protocol(format!("{} frame is not a DELTA", wire.verb.as_str())));
        }
        let subscription = required(&wire.headers, "subscription", "DELTA frame")?
            .parse()
            .map_err(|_| Error::Protocol("malformed subscription id".into()))?;
        Ok(DeltaFrame {
            subscription,
            delta: Delta {
                entered: parse_ids(required(&wire.headers, "entered", "DELTA frame")?)?,
                left: parse_ids(required(&wire.headers, "left", "DELTA frame")?)?,
            },
            snapshot: wire.header("snapshot").map(str::parse).transpose()?,
        })
    }
}

/// Renders points as an `APPEND` body: one `t v` pair per line. `{}` on
/// `f64` is the shortest representation that parses back to the same
/// bits, so the body round-trips losslessly.
pub fn render_points(points: &[Point]) -> String {
    points.iter().map(|p| format!("{} {}\n", p.t, p.v)).collect()
}

/// Parses an `APPEND` body produced by [`render_points`].
pub fn parse_points(body: &str) -> Result<Vec<Point>> {
    body.lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| {
            let (t, v) = line
                .trim()
                .split_once(' ')
                .ok_or_else(|| Error::Protocol(format!("malformed point line `{line}`")))?;
            let parse = |s: &str| {
                s.parse::<f64>()
                    .map_err(|_| Error::Protocol(format!("malformed point coordinate `{s}`")))
            };
            Ok(Point::new(parse(t)?, parse(v)?))
        })
        .collect()
}

fn header_of<'a>(headers: &'a [(String, String)], key: &str) -> Option<&'a str> {
    headers.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

/// The value of a header `what` must carry; its absence is a protocol
/// error naming the header.
fn required<'a>(headers: &'a [(String, String)], key: &str, what: &str) -> Result<&'a str> {
    header_of(headers, key)
        .ok_or_else(|| Error::Protocol(format!("{what} is missing its `{key}` header")))
}

fn render(status: &str, headers: &[(String, String)], body: &str) -> String {
    let mut out = String::with_capacity(status.len() + body.len() + 64);
    out.push_str(status);
    out.push('\n');
    for (key, value) in headers {
        out.push_str(key);
        out.push_str(": ");
        out.push_str(value);
        out.push('\n');
    }
    out.push('\n');
    out.push_str(body);
    out
}

/// A parsed payload: status line, headers in arrival order, body.
type SplitPayload<'a> = (&'a str, Vec<(String, String)>, &'a str);

fn split(payload: &str) -> Result<SplitPayload<'_>> {
    let (head, body) = payload
        .split_once("\n\n")
        .ok_or_else(|| Error::Protocol("payload is missing the blank header/body line".into()))?;
    let mut lines = head.lines();
    let status =
        lines.next().ok_or_else(|| Error::Protocol("payload is missing a status line".into()))?;
    let headers = lines
        .map(|line| {
            line.split_once(": ")
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .ok_or_else(|| Error::Protocol(format!("malformed header `{line}`")))
        })
        .collect::<Result<_>>()?;
    Ok((status, headers, body))
}

fn join_ids(ids: &[u64]) -> String {
    ids.iter().map(u64::to_string).collect::<Vec<_>>().join(" ")
}

fn parse_ids(text: &str) -> Result<Vec<u64>> {
    text.split_whitespace()
        .map(|id| id.parse().map_err(|_| Error::Protocol(format!("malformed id `{id}`"))))
        .collect()
}

fn parse_stats(text: &str) -> Result<ExecStats> {
    let mut stats = ExecStats::default();
    for part in text.split_whitespace() {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| Error::Protocol(format!("malformed stats field `{part}`")))?;
        if key == "observed" {
            stats.observed = value
                .split(',')
                .map(|o| match o {
                    "-" => Ok(None),
                    n => n.parse().map(Some).map_err(|_| {
                        Error::Protocol(format!("malformed observed cardinality `{n}`"))
                    }),
                })
                .collect::<Result<_>>()?;
            continue;
        }
        let value = value
            .parse()
            .map_err(|_| Error::Protocol(format!("malformed stats field `{part}`")))?;
        match key {
            "universe" => stats.universe = value,
            "scanned" => stats.entries_scanned = value,
            "index" => stats.index_leaves = value,
            "scan" => stats.scan_leaves = value,
            other => return Err(Error::Protocol(format!("unknown stats field `{other}`"))),
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use saq_core::algebra::QueryExpr;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF between frames");
    }

    /// A `Write` that records every call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        flushes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_of_length_then_payload() {
        for payload in ["PING SAQP/1\n\n", "", "héllo"] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, payload).unwrap();
            assert_eq!((w.writes, w.flushes), (1, 1), "{payload:?}: one write, one flush");
            let mut expected = (payload.len() as u32).to_be_bytes().to_vec();
            expected.extend_from_slice(payload.as_bytes());
            assert_eq!(w.bytes, expected, "{payload:?}: [len be32][payload]");
        }
    }

    #[test]
    fn oversized_and_truncated_frames_are_refused() {
        let mut r: &[u8] = &[0xff, 0xff, 0xff, 0xff];
        assert_eq!(read_frame(&mut r).unwrap_err().code(), 9);
        let mut r: &[u8] = &[0, 0, 0, 9, b'h', b'i'];
        assert_eq!(read_frame(&mut r).unwrap_err().code(), 9);
        let mut sink = Vec::new();
        let huge = "x".repeat(MAX_FRAME + 1);
        assert_eq!(write_frame(&mut sink, &huge).unwrap_err().code(), 9);
    }

    #[test]
    fn requests_round_trip_with_pins_and_wants() {
        let req = QueryRequest::saql("peaks = 2 and interval = 10 tol 3")
            .pinned(SnapshotRef::new(3, 7))
            .with_stats()
            .with_explain();
        let wire = WireRequest::from_request(&req).unwrap();
        let parsed = WireRequest::parse(&wire.render()).unwrap();
        assert_eq!(parsed, wire);
        assert_eq!(parsed.to_request(None).unwrap(), req);
    }

    #[test]
    fn expr_bodies_serialize_through_saql() {
        let expr = QueryExpr::peak_count(2, 1).and(QueryExpr::min_steepness(0.5, 0.25)).top_k(3);
        let req = QueryRequest::expr(expr.clone());
        let wire = WireRequest::from_request(&req).unwrap();
        let back = wire.to_request(None).unwrap();
        assert_eq!(*back.resolve().unwrap(), expr, "printer and parser are inverses");
    }

    #[test]
    fn session_pin_applies_only_without_an_explicit_one() {
        let session = Some(SnapshotRef::new(1, 4));
        let wire = WireRequest::from_request(&QueryRequest::saql("peaks = 1")).unwrap();
        assert_eq!(wire.to_request(session).unwrap().pin, session);
        let explicit = WireRequest::from_request(
            &QueryRequest::saql("peaks = 1").pinned(SnapshotRef::new(1, 9)),
        )
        .unwrap();
        assert_eq!(explicit.to_request(session).unwrap().pin, Some(SnapshotRef::new(1, 9)));
    }

    #[test]
    fn responses_round_trip() {
        let resp = QueryResponse {
            outcome: QueryOutcome {
                exact: vec![1, 5, 9],
                approximate: vec![ApproximateMatch { id: 4, deviation: 0.5 }],
            },
            stats: Some(ExecStats {
                universe: 24,
                entries_scanned: 7,
                index_leaves: 2,
                scan_leaves: 1,
                observed: vec![Some(4), None, Some(0)],
            }),
            explain: Some("And (exec order #0, #1)\n  #0 PeakCount via index ~4\n".into()),
            snapshot: Some(SnapshotRef::new(8, 2)),
        };
        let wire = WireResponse::from_response(&resp, 5);
        let parsed = WireResponse::parse(&wire.render()).unwrap();
        assert_eq!(parsed.wave(), 5);
        assert_eq!(parsed.to_response().unwrap(), resp);
    }

    #[test]
    fn an_ok_reply_without_its_result_headers_is_an_error_not_no_matches() {
        let empty = QueryResponse {
            outcome: QueryOutcome::default(),
            stats: None,
            explain: None,
            snapshot: None,
        };
        let wire = WireResponse::parse(&WireResponse::from_response(&empty, 1).render()).unwrap();
        assert_eq!(wire.to_response().unwrap(), empty, "empty sets still round-trip");

        for key in ["exact", "approx"] {
            let mut truncated = wire.clone();
            truncated.headers.retain(|(k, _)| k != key);
            let err = truncated.to_response().unwrap_err();
            assert_eq!(err.code(), 9, "{err}");
            assert!(err.to_string().contains(&format!("`{key}`")), "{err}");
        }

        // A reply of another verb (here `STATS`-shaped) is not a result.
        let stats = ["connections", "queries", "waves", "errors", "max-wave"]
            .iter()
            .fold(WireResponse::ok(), |reply, key| reply.with(key, 3));
        assert_eq!(stats.to_response().unwrap_err().code(), 9);
    }

    #[test]
    fn a_delta_missing_a_side_is_an_error() {
        let frame = DeltaFrame {
            subscription: 4,
            delta: Delta { entered: vec![1], left: vec![2] },
            snapshot: None,
        };
        for key in ["entered", "left"] {
            let mut wire = frame.to_wire();
            wire.headers.retain(|(k, _)| k != key);
            let err = DeltaFrame::from_wire(&wire).unwrap_err();
            assert_eq!(err.code(), 9, "{err}");
            assert!(err.to_string().contains(&format!("`{key}`")), "{err}");
        }
    }

    #[test]
    fn delta_frames_round_trip() {
        let frame = DeltaFrame {
            subscription: 12,
            delta: Delta { entered: vec![3, 9], left: vec![7] },
            snapshot: Some(SnapshotRef::new(2, 41)),
        };
        let wire = frame.to_wire();
        let parsed = WireRequest::parse(&wire.render()).unwrap();
        assert_eq!(parsed.verb, Verb::Delta);
        assert_eq!(DeltaFrame::from_wire(&parsed).unwrap(), frame);
        // Empty sides render and parse as empty lists, not errors.
        let quiet = DeltaFrame { subscription: 0, delta: Delta::default(), snapshot: None };
        assert_eq!(DeltaFrame::from_wire(&quiet.to_wire()).unwrap(), quiet);
        assert!(DeltaFrame::from_wire(&WireRequest::new(Verb::Ping)).is_err());
    }

    #[test]
    fn append_bodies_round_trip_bit_exactly() {
        let points = vec![
            Point::new(0.0, 1.5),
            Point::new(0.1, -2.25),
            Point::new(1e9 + 0.125, std::f64::consts::PI),
        ];
        let body = render_points(&points);
        assert_eq!(parse_points(&body).unwrap(), points);
        assert!(parse_points("1.0").is_err(), "a lone coordinate is malformed");
        assert!(parse_points("a b").is_err());
        assert_eq!(parse_points("\n  \n").unwrap(), vec![], "blank lines are skipped");
    }

    #[test]
    fn errors_cross_the_wire_with_code_and_carets_intact() {
        let err = saq_core::lang::saql::parse("peaks == 2").unwrap_err();
        let rendered = err.to_string();
        assert!(rendered.contains('^'), "caret diagnostic expected:\n{rendered}");
        let wire = WireResponse::err(err.code(), &rendered);
        let back = WireResponse::parse(&wire.render()).unwrap().to_error();
        assert_eq!(back.code(), 7, "remote errors relay the original code");
        assert_eq!(back.to_string(), format!("server error [7]: {rendered}"));
        assert!(back.to_string().contains('^'), "carets survive the round trip");
    }
}

//! The client half of SAQP/1: a blocking [`SaqClient`] plus
//! [`RemoteEngine`], which puts a remote `saqd` behind the same
//! `QueryEngine` trait as every in-process engine — the REPL's
//! `--connect` mode and any embedding code stay engine-agnostic.

use crate::protocol::{
    read_frame, render_points, write_frame, DeltaFrame, Verb, WireRequest, WireResponse,
};
use parking_lot::Mutex;
use saq_core::algebra::QueryEngine;
use saq_core::{Error, QueryRequest, QueryResponse, Result, SnapshotRef};
use saq_sequence::Point;
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Server counters as reported by the `STATS` verb.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerStats {
    /// Connections accepted since startup.
    pub connections: u64,
    /// Queries executed (successfully or not).
    pub queries: u64,
    /// Dispatch waves run.
    pub waves: u64,
    /// Failures counted one each: queries that returned an error
    /// (malformed `QUERY` payloads included), refused `SUBSCRIBE` and
    /// `APPEND` calls, failed subscription pumps, and replies refused for
    /// exceeding the frame cap.
    pub errors: u64,
    /// Largest wave coalesced so far.
    pub max_wave: u64,
    /// Append waves applied through the `APPEND` verb.
    pub appends: u64,
    /// `DELTA` frames pushed to subscribed sessions.
    pub deltas: u64,
    /// Currently live subscriptions (a gauge, not a counter).
    pub subscriptions: u64,
    /// The snapshot the server was at when it answered.
    pub snapshot: Option<SnapshotRef>,
}

impl ServerStats {
    /// Reads a `STATS` reply. Every counter must be present and numeric:
    /// a malformed reply is an [`Error::Protocol`] naming the header,
    /// never a silent zero.
    pub fn from_reply(reply: &WireResponse) -> Result<ServerStats> {
        if !reply.ok {
            return Err(reply.to_error());
        }
        let count = |key: &str| -> Result<u64> {
            let value = reply.header(key).ok_or_else(|| {
                Error::Protocol(format!("STATS reply is missing the `{key}` header"))
            })?;
            value.parse().map_err(|_| {
                Error::Protocol(format!("STATS reply header `{key}` is not a count: `{value}`"))
            })
        };
        Ok(ServerStats {
            connections: count("connections")?,
            queries: count("queries")?,
            waves: count("waves")?,
            errors: count("errors")?,
            max_wave: count("max-wave")?,
            appends: count("appends")?,
            deltas: count("deltas")?,
            subscriptions: count("subscriptions")?,
            snapshot: reply.header("snapshot").map(str::parse).transpose()?,
        })
    }

    /// Realized coalescing: queries per dispatch wave (1.0 = no
    /// amortization, N = perfect N-way waves).
    pub fn queries_per_wave(&self) -> f64 {
        if self.waves == 0 {
            return 0.0;
        }
        self.queries as f64 / self.waves as f64
    }
}

/// A blocking SAQP/1 client over one TCP connection (= one session).
///
/// Subscribed sessions receive unsolicited `DELTA` frames; the client
/// queues any that arrive interleaved with a response and hands them out
/// through [`SaqClient::next_delta`] / [`SaqClient::next_delta_within`].
#[derive(Debug)]
pub struct SaqClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    last_wave: u64,
    pending_deltas: VecDeque<DeltaFrame>,
}

impl SaqClient {
    /// Connects to a running `saqd`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<SaqClient> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(SaqClient { reader, writer, last_wave: 0, pending_deltas: VecDeque::new() })
    }

    fn round_trip(&mut self, request: &WireRequest) -> Result<WireResponse> {
        write_frame(&mut self.writer, &request.render())?;
        loop {
            let payload = read_frame(&mut self.reader)?
                .ok_or_else(|| Error::Protocol("server closed the connection".into()))?;
            // Pushed deltas may land between a request and its response;
            // queue them for `next_delta` rather than losing them.
            if let Some(frame) = parse_push(&payload)? {
                self.pending_deltas.push_back(frame);
                continue;
            }
            return WireResponse::parse(&payload);
        }
    }

    /// Runs one query; an `ERR` reply becomes the [`Error::Remote`] it
    /// carries, code and caret diagnostics intact.
    pub fn query(&mut self, req: &QueryRequest) -> Result<QueryResponse> {
        let reply = self.round_trip(&WireRequest::from_request(req)?)?;
        self.last_wave = reply.wave();
        reply.to_response()
    }

    /// The size of the coalesced wave that served the last successful
    /// [`SaqClient::query`] (0 before the first one).
    pub fn last_wave(&self) -> u64 {
        self.last_wave
    }

    /// Liveness probe; returns the snapshot the server is serving.
    pub fn ping(&mut self) -> Result<SnapshotRef> {
        let reply = self.round_trip(&WireRequest::new(Verb::Ping))?;
        expect_snapshot(&reply)
    }

    /// Pins this session to the server's current snapshot and returns
    /// it; subsequent queries refuse to run against any other generation
    /// (code 8) until [`SaqClient::unpin`].
    pub fn pin(&mut self) -> Result<SnapshotRef> {
        let reply = self.round_trip(&WireRequest::new(Verb::Pin))?;
        expect_snapshot(&reply)
    }

    /// Pins this session to an explicit snapshot ref (one learned from a
    /// previous response, possibly on another connection).
    pub fn pin_at(&mut self, snapshot: SnapshotRef) -> Result<SnapshotRef> {
        let mut request = WireRequest::new(Verb::Pin);
        request.headers.push(("snapshot".into(), snapshot.to_string()));
        let reply = self.round_trip(&request)?;
        expect_snapshot(&reply)
    }

    /// Drops this session's pin.
    pub fn unpin(&mut self) -> Result<()> {
        let reply = self.round_trip(&WireRequest::new(Verb::Unpin))?;
        if reply.ok {
            Ok(())
        } else {
            Err(reply.to_error())
        }
    }

    /// Fetches the server's counters.
    pub fn stats(&mut self) -> Result<ServerStats> {
        ServerStats::from_reply(&self.round_trip(&WireRequest::new(Verb::Stats))?)
    }

    /// Asks the server to stop accepting connections and drain.
    pub fn shutdown_server(&mut self) -> Result<()> {
        let reply = self.round_trip(&WireRequest::new(Verb::Shutdown))?;
        if reply.ok {
            Ok(())
        } else {
            Err(reply.to_error())
        }
    }

    /// Registers the SAQL text as a standing query on this session and
    /// returns its subscription id. The baseline result set arrives as
    /// the first pushed `DELTA` frame (everything `entered`, nothing
    /// `left`); later frames report membership changes after each
    /// mutation wave.
    pub fn subscribe(&mut self, saql: &str) -> Result<u64> {
        let mut request = WireRequest::new(Verb::Subscribe);
        request.body = saql.to_string();
        let reply = self.round_trip(&request)?;
        if !reply.ok {
            return Err(reply.to_error());
        }
        reply
            .header("subscription")
            .ok_or_else(|| Error::Protocol("reply is missing the subscription header".into()))?
            .parse()
            .map_err(|_| Error::Protocol("malformed subscription id".into()))
    }

    /// Drops a subscription registered by [`SaqClient::subscribe`].
    pub fn unsubscribe(&mut self, subscription: u64) -> Result<()> {
        let mut request = WireRequest::new(Verb::Unsubscribe);
        request.headers.push(("subscription".into(), subscription.to_string()));
        let reply = self.round_trip(&request)?;
        if reply.ok {
            Ok(())
        } else {
            Err(reply.to_error())
        }
    }

    /// Appends points to the archived sequence `id` (creating it if
    /// absent) and returns its total length afterwards. The server
    /// applies the wave, pumps the standing queries, and pushes `DELTA`
    /// frames to every affected subscriber.
    pub fn append(&mut self, id: u64, points: &[Point]) -> Result<usize> {
        let mut request = WireRequest::new(Verb::Append);
        request.headers.push(("id".into(), id.to_string()));
        request.body = render_points(points);
        let reply = self.round_trip(&request)?;
        if !reply.ok {
            return Err(reply.to_error());
        }
        reply
            .header("total")
            .ok_or_else(|| Error::Protocol("reply is missing the total header".into()))?
            .parse()
            .map_err(|_| Error::Protocol("malformed total".into()))
    }

    /// Blocks until the next pushed `DELTA` frame (already-queued frames
    /// are drained first, in arrival order).
    pub fn next_delta(&mut self) -> Result<DeltaFrame> {
        if let Some(frame) = self.pending_deltas.pop_front() {
            return Ok(frame);
        }
        let payload = read_frame(&mut self.reader)?
            .ok_or_else(|| Error::Protocol("server closed the connection".into()))?;
        parse_push(&payload)?.ok_or_else(|| {
            Error::Protocol("unexpected response frame while waiting for a delta".into())
        })
    }

    /// As [`SaqClient::next_delta`], giving up after `timeout` with
    /// `Ok(None)` instead of blocking forever.
    pub fn next_delta_within(&mut self, timeout: Duration) -> Result<Option<DeltaFrame>> {
        if let Some(frame) = self.pending_deltas.pop_front() {
            return Ok(Some(frame));
        }
        self.reader.get_ref().set_read_timeout(Some(timeout))?;
        let result = read_frame(&mut self.reader);
        self.reader.get_ref().set_read_timeout(None)?;
        match result {
            Ok(Some(payload)) => parse_push(&payload)?.map(Some).ok_or_else(|| {
                Error::Protocol("unexpected response frame while waiting for a delta".into())
            }),
            Ok(None) => Err(Error::Protocol("server closed the connection".into())),
            Err(Error::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

/// Parses a pushed `DELTA` frame; `Ok(None)` for anything else (a
/// response payload).
fn parse_push(payload: &str) -> Result<Option<DeltaFrame>> {
    if !payload.starts_with("DELTA ") {
        return Ok(None);
    }
    Ok(Some(DeltaFrame::from_wire(&WireRequest::parse(payload)?)?))
}

fn expect_snapshot(reply: &WireResponse) -> Result<SnapshotRef> {
    if !reply.ok {
        return Err(reply.to_error());
    }
    reply
        .header("snapshot")
        .ok_or_else(|| Error::Protocol("reply is missing the snapshot header".into()))?
        .parse()
}

/// A remote `saqd` behind the [`QueryEngine`] trait: requests answer
/// over the wire, so code written against the trait runs unchanged
/// against a server.
///
/// The trait takes `&self`, so the single connection sits behind a mutex;
/// callers wanting parallel in-flight queries should open one
/// [`SaqClient`] (or `RemoteEngine`) per thread — which is also what
/// gives the server's dispatcher waves to coalesce.
#[derive(Debug)]
pub struct RemoteEngine {
    client: Mutex<SaqClient>,
}

impl RemoteEngine {
    /// Connects to a running `saqd`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<RemoteEngine> {
        Ok(RemoteEngine { client: Mutex::new(SaqClient::connect(addr)?) })
    }

    /// Wraps an already-connected client.
    pub fn new(client: SaqClient) -> RemoteEngine {
        RemoteEngine { client: Mutex::new(client) }
    }
}

impl QueryEngine for RemoteEngine {
    fn request(&self, req: &QueryRequest) -> Result<QueryResponse> {
        self.client.lock().query(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A well-formed `STATS` reply with every counter at 3.
    fn stats_reply() -> WireResponse {
        [
            "connections",
            "queries",
            "waves",
            "errors",
            "max-wave",
            "appends",
            "deltas",
            "subscriptions",
        ]
        .iter()
        .fold(WireResponse::ok(), |reply, key| reply.with(key, 3))
    }

    #[test]
    fn a_malformed_stats_reply_is_a_protocol_error_not_a_zero() {
        let stats = ServerStats::from_reply(&stats_reply()).unwrap();
        assert_eq!((stats.waves, stats.max_wave, stats.snapshot), (3, 3, None));

        let mut missing = stats_reply();
        missing.headers.retain(|(key, _)| key != "waves");
        let err = ServerStats::from_reply(&missing).unwrap_err();
        assert_eq!(err.code(), 9);
        assert!(err.to_string().contains("`waves`"), "{err}");

        let mut garbled = stats_reply();
        garbled.headers.iter_mut().find(|(key, _)| key == "deltas").unwrap().1 = "many".into();
        let err = ServerStats::from_reply(&garbled).unwrap_err();
        assert_eq!(err.code(), 9);
        assert!(err.to_string().contains("`deltas`") && err.to_string().contains("many"), "{err}");
    }
}

//! The client half of SAQP/1: a blocking [`SaqClient`] plus
//! [`RemoteEngine`], which puts a remote `saqd` behind the same
//! `QueryEngine` trait as every in-process engine — the REPL's
//! `--connect` mode and any embedding code stay engine-agnostic.

use crate::protocol::{
    read_frame, render_points, write_frame, DeltaFrame, Verb, WireRequest, WireResponse,
};
use crate::MetricsSnapshot;
use parking_lot::Mutex;
use saq_core::algebra::QueryEngine;
use saq_core::{Error, QueryRequest, QueryResponse, Result, SnapshotRef};
use saq_sequence::Point;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

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
        writer.set_nodelay(true)?;
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
    pub fn stats(&mut self) -> Result<MetricsSnapshot> {
        MetricsSnapshot::from_reply(&self.round_trip(&WireRequest::new(Verb::Stats))?)
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
    /// commits the append, then its pump re-evaluates the standing
    /// queries and pushes `DELTA` frames to every affected subscriber.
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

    /// As [`SaqClient::next_delta`], giving up with `Ok(None)` when no
    /// frame has begun to arrive within `timeout`. A frame that has begun
    /// is read whole, however slowly the rest arrives, so the stream
    /// stays in frame.
    pub fn next_delta_within(&mut self, timeout: Duration) -> Result<Option<DeltaFrame>> {
        if let Some(frame) = self.pending_deltas.pop_front() {
            return Ok(Some(frame));
        }
        // `fill_buf` consumes nothing, so giving up here loses no bytes.
        self.reader.get_ref().set_read_timeout(Some(timeout))?;
        let waited = self.reader.fill_buf().map(|_| ());
        self.reader.get_ref().set_read_timeout(None)?;
        match waited {
            Ok(()) => self.next_delta().map(Some),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e.into()),
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
    use crate::STATS_HEADERS;
    use saq_core::Delta;
    use std::io::Write;
    use std::net::TcpListener;
    use std::time::Instant;

    /// A well-formed `STATS` reply with every counter at 3.
    fn stats_reply() -> WireResponse {
        STATS_HEADERS.iter().fold(WireResponse::ok(), |reply, (key, _)| reply.with(key, 3))
    }

    #[test]
    fn a_malformed_stats_reply_is_a_protocol_error_not_a_zero() {
        let stats = MetricsSnapshot::from_reply(&stats_reply()).unwrap();
        assert_eq!((stats.waves, stats.max_wave), (3, 3));

        let mut missing = stats_reply();
        missing.headers.retain(|(key, _)| key != "waves");
        let err = MetricsSnapshot::from_reply(&missing).unwrap_err();
        assert_eq!(err.code(), 9);
        assert!(err.to_string().contains("`waves`"), "{err}");

        let mut garbled = stats_reply();
        garbled.headers.iter_mut().find(|(key, _)| key == "deltas").unwrap().1 = "many".into();
        let err = MetricsSnapshot::from_reply(&garbled).unwrap_err();
        assert_eq!(err.code(), 9);
        assert!(err.to_string().contains("`deltas`") && err.to_string().contains("many"), "{err}");
    }

    #[test]
    fn a_delta_split_across_the_timeout_stays_in_frame() {
        let frame = |subscription, id| DeltaFrame {
            subscription,
            delta: Delta { entered: vec![id], left: vec![] },
            snapshot: None,
        };
        let (first, second) = (frame(1, 5), frame(2, 6));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = {
            let (first, second) = (first.clone(), second.clone());
            std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                let mut bytes = Vec::new();
                write_frame(&mut bytes, &first.to_wire().render()).unwrap();
                // Half the length prefix, then the rest well past the
                // client's 50 ms poll.
                stream.write_all(&bytes[..2]).unwrap();
                std::thread::sleep(Duration::from_millis(300));
                stream.write_all(&bytes[2..]).unwrap();
                write_frame(&mut stream, &second.to_wire().render()).unwrap();
            })
        };

        let mut client = SaqClient::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut got = Vec::new();
        while got.len() < 2 && Instant::now() < deadline {
            got.extend(client.next_delta_within(Duration::from_millis(50)).unwrap());
        }
        assert_eq!(got, vec![first, second]);
        peer.join().unwrap();
    }
}

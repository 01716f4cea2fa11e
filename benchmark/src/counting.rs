//! A counting decorator over [`saq_durable::Backend`] — the seam the
//! storage substrate exposes — so the device is measured from outside:
//! calls, bytes and time per method.

use crate::spans::Tracer;
use saq_durable::{Backend, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The `Backend` methods, as indices into the counter table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Get,
    Put,
    Append,
    ReadAt,
    Len,
    Truncate,
    Delete,
    List,
    Sync,
}

const METHODS: usize = 9;

impl Method {
    fn span_name(self) -> &'static str {
        match self {
            Method::Get => "durable.backend.get",
            Method::Put => "durable.backend.put",
            Method::Append => "durable.backend.append",
            Method::ReadAt => "durable.backend.read_at",
            Method::Len => "durable.backend.len",
            Method::Truncate => "durable.backend.truncate",
            Method::Delete => "durable.backend.delete",
            Method::List => "durable.backend.list",
            Method::Sync => "durable.backend.sync",
        }
    }
}

/// Calls, payload bytes and wall time of one method (or a sum of several).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub calls: u64,
    pub bytes: u64,
    pub nanos: u64,
}

impl Tally {
    /// The counts accrued since `earlier`.
    pub fn since(self, earlier: Tally) -> Tally {
        Tally {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
            nanos: self.nanos - earlier.nanos,
        }
    }
}

/// A point-in-time copy of every method's [`Tally`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts([Tally; METHODS]);

impl Counts {
    pub fn of(&self, method: Method) -> Tally {
        self.0[method as usize]
    }

    /// Bytes handed to the backend to store (`put` + `append`).
    pub fn bytes_written(&self) -> u64 {
        self.of(Method::Put).bytes + self.of(Method::Append).bytes
    }

    /// Calls that return stored bytes (`get` + `read_at`) and their volume.
    pub fn reads(&self) -> Tally {
        let (get, read_at) = (self.of(Method::Get), self.of(Method::ReadAt));
        Tally {
            calls: get.calls + read_at.calls,
            bytes: get.bytes + read_at.bytes,
            nanos: get.nanos + read_at.nanos,
        }
    }

    /// Wall time spent inside the backend, all methods.
    pub fn busy_nanos(&self) -> u64 {
        self.0.iter().map(|t| t.nanos).sum()
    }

    pub fn since(&self, earlier: &Counts) -> Counts {
        let mut out = *self;
        for (now, before) in out.0.iter_mut().zip(earlier.0) {
            *now = now.since(before);
        }
        out
    }
}

/// Delegates every call to `inner`, counting it. With one client the
/// counts repeat exactly from run to run; the times do not.
pub struct CountingBackend {
    inner: Arc<dyn Backend>,
    tracer: Option<Arc<Tracer>>,
    // Relaxed everywhere: statistics that publish no other data.
    calls: [AtomicU64; METHODS],
    bytes: [AtomicU64; METHODS],
    nanos: [AtomicU64; METHODS],
}

impl CountingBackend {
    pub fn new(inner: Arc<dyn Backend>) -> CountingBackend {
        CountingBackend {
            inner,
            tracer: None,
            calls: Default::default(),
            bytes: Default::default(),
            nanos: Default::default(),
        }
    }

    /// Also records a span per call, under whatever span is open.
    pub fn traced(mut self, tracer: Arc<Tracer>) -> CountingBackend {
        self.tracer = Some(tracer);
        self
    }

    pub fn counts(&self) -> Counts {
        let mut out = Counts::default();
        for (i, tally) in out.0.iter_mut().enumerate() {
            *tally = Tally {
                calls: self.calls[i].load(Ordering::Relaxed),
                bytes: self.bytes[i].load(Ordering::Relaxed),
                nanos: self.nanos[i].load(Ordering::Relaxed),
            };
        }
        out
    }

    /// Times `f`, then counts it with the byte volume `bytes_of` reads off
    /// its result (failed calls count as calls that moved nothing).
    fn count<T>(
        &self,
        method: Method,
        f: impl FnOnce() -> Result<T>,
        bytes_of: impl FnOnce(&T) -> u64,
    ) -> Result<T> {
        let timed = || {
            let start = Instant::now();
            let out = f();
            (out, start.elapsed().as_nanos() as u64)
        };
        let (out, nanos) = match &self.tracer {
            Some(tracer) => tracer.span(method.span_name(), timed),
            None => timed(),
        };
        let i = method as usize;
        self.calls[i].fetch_add(1, Ordering::Relaxed);
        self.nanos[i].fetch_add(nanos, Ordering::Relaxed);
        if let Ok(value) = &out {
            self.bytes[i].fetch_add(bytes_of(value), Ordering::Relaxed);
        }
        out
    }
}

impl Backend for CountingBackend {
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        self.count(
            Method::Get,
            || self.inner.get(key),
            |v| v.as_ref().map_or(0, |b| b.len() as u64),
        )
    }

    fn put(&self, key: &str, value: &[u8]) -> Result<()> {
        self.count(Method::Put, || self.inner.put(key, value), |()| value.len() as u64)
    }

    fn append(&self, key: &str, bytes: &[u8]) -> Result<u64> {
        self.count(Method::Append, || self.inner.append(key, bytes), |_| bytes.len() as u64)
    }

    fn read_at(&self, key: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.count(Method::ReadAt, || self.inner.read_at(key, offset, buf), |&n| n as u64)
    }

    fn len(&self, key: &str) -> Result<Option<u64>> {
        self.count(Method::Len, || self.inner.len(key), |_| 0)
    }

    fn truncate(&self, key: &str, len: u64) -> Result<()> {
        self.count(Method::Truncate, || self.inner.truncate(key, len), |()| 0)
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.count(Method::Delete, || self.inner.delete(key), |()| 0)
    }

    fn list(&self) -> Result<Vec<String>> {
        self.count(Method::List, || self.inner.list(), |_| 0)
    }

    fn sync(&self) -> Result<()> {
        self.count(Method::Sync, || self.inner.sync(), |()| 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saq_durable::MemoryBackend;

    #[test]
    fn counts_calls_and_bytes_exactly_over_a_memory_backend() {
        let memory = MemoryBackend::new();
        let counting = CountingBackend::new(Arc::new(memory.clone()));
        assert_eq!(counting.append("wal", b"hello ").unwrap(), 6);
        assert_eq!(counting.append("wal", b"world").unwrap(), 11);
        counting.put("manifest", b"v1").unwrap();
        let before_reads = counting.counts();
        assert_eq!(counting.get("wal").unwrap().unwrap(), b"hello world");
        assert_eq!(counting.get("absent").unwrap(), None);
        let mut buf = [0u8; 8];
        assert_eq!(counting.read_at("wal", 6, &mut buf).unwrap(), 5);
        assert_eq!(counting.len("wal").unwrap(), Some(11));
        counting.truncate("wal", 5).unwrap();
        counting.delete("manifest").unwrap();
        assert_eq!(counting.list().unwrap(), vec!["wal".to_string()]);
        counting.sync().unwrap();
        // A failed call is counted but moves no bytes.
        assert!(counting.put("BAD KEY", b"xyz").is_err());

        let counts = counting.counts();
        let tally = |m: Method| (counts.of(m).calls, counts.of(m).bytes);
        assert_eq!(tally(Method::Append), (2, 11));
        assert_eq!(tally(Method::Put), (2, 2));
        assert_eq!(tally(Method::Get), (2, 11));
        assert_eq!(tally(Method::ReadAt), (1, 5));
        assert_eq!(tally(Method::Len), (1, 0));
        assert_eq!(tally(Method::Truncate), (1, 0));
        assert_eq!(tally(Method::Delete), (1, 0));
        assert_eq!(tally(Method::List), (1, 0));
        assert_eq!(tally(Method::Sync), (1, 0));
        assert_eq!(counts.bytes_written(), 13);
        assert_eq!((counts.reads().calls, counts.reads().bytes), (3, 16));
        let delta = counts.since(&before_reads);
        assert_eq!(delta.of(Method::Append).calls, 0);
        assert_eq!(delta.reads().calls, 3);
        // The decorator changed nothing underneath.
        assert_eq!(memory.get("wal").unwrap().unwrap(), b"hello");
    }

    #[test]
    fn traced_calls_become_child_spans() {
        let tracer = Arc::new(Tracer::new(true));
        let counting = CountingBackend::new(Arc::new(MemoryBackend::new())).traced(tracer.clone());
        tracer.span("archive.put", || counting.append("wal", b"x").unwrap());
        let spans = tracer.spans();
        assert_eq!(spans[1].name, "durable.backend.append");
        assert_eq!(spans[1].parent, Some(0));
    }
}

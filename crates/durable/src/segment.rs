//! Immutable B-tree segments: the compacted, point-readable form of
//! the store.
//!
//! A segment is a single backend value holding a B-tree of sorted
//! `(u64 key, bytes value)` entries, written once and never modified.
//! The builder follows the durable-tree construction: **leaves are
//! serialized eagerly** as soon as they fill (so building streams in
//! O(leaf) memory), while **interior nodes are kept as in-memory drafts**
//! — lists of `(first_key, offset, len)` child references — and
//! finalized bottom-up at the end, when every child's position is
//! known. The last page written is the root; its position is returned
//! in [`SegmentMeta`] and recorded by the manifest.
//!
//! # Page layout
//!
//! Every page is one standard frame (see [`crate::codec`]). Bodies:
//!
//! ```text
//! leaf:     [1: u8] [count: u32le] count × ( [key: u64le] [value: u32le len + bytes] )
//! interior: [2: u8] [count: u32le] count × ( [first_key: u64le] [offset: u64le] [len: u32le] )
//! ```
//!
//! Keys are strictly ascending within a page and across the whole
//! segment. An interior child's `first_key` is the smallest key in its
//! subtree, so point lookups descend by binary search without touching
//! siblings. Readers page lazily through [`Backend::read_at`] behind a
//! small cache, counting page reads so tests (and benchmarks) can
//! prove cold lookups touch O(depth) pages, not the whole file.

use crate::backend::Backend;
use crate::codec::{self, Cursor};
use crate::error::{Error, Result};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const PAGE_LEAF: u8 = 1;
const PAGE_INTERIOR: u8 = 2;

/// Entries per leaf page before it is flushed.
pub const LEAF_CAP: usize = 32;
/// Child references per interior page.
pub const INTERIOR_CAP: usize = 32;
/// Decoded pages the reader keeps cached.
const CACHE_CAP: usize = 64;

/// Where a finished segment's root lives, plus its entry count. Encoded
/// into the manifest by the store layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Byte offset of the root page's frame within the segment value.
    pub root_offset: u64,
    /// Total framed length of the root page.
    pub root_len: u32,
    /// Number of entries in the segment.
    pub entry_count: u64,
}

/// A child reference inside a draft interior node.
#[derive(Debug, Clone, Copy)]
struct ChildRef {
    first_key: u64,
    offset: u64,
    len: u32,
}

/// Streaming builder: push entries in strictly ascending key order,
/// then [`SegmentBuilder::finish`].
pub struct SegmentBuilder<'a> {
    backend: &'a dyn Backend,
    key: String,
    leaf_cap: usize,
    interior_cap: usize,
    offset: u64,
    leaf: Vec<(u64, Vec<u8>)>,
    children: Vec<ChildRef>,
    last_key: Option<u64>,
    count: u64,
}

impl<'a> SegmentBuilder<'a> {
    /// Starts a fresh segment under `key` (replacing any existing value)
    /// with the default page capacities.
    pub fn new(backend: &'a dyn Backend, key: &str) -> Result<Self> {
        Self::with_caps(backend, key, LEAF_CAP, INTERIOR_CAP)
    }

    /// As [`SegmentBuilder::new`] with explicit page capacities — tests
    /// use tiny caps to force multi-level trees from small corpora.
    pub fn with_caps(
        backend: &'a dyn Backend,
        key: &str,
        leaf_cap: usize,
        interior_cap: usize,
    ) -> Result<Self> {
        assert!(leaf_cap >= 1 && interior_cap >= 2, "degenerate page capacities");
        backend.delete(key)?;
        Ok(SegmentBuilder {
            backend,
            key: key.to_string(),
            leaf_cap,
            interior_cap,
            offset: 0,
            leaf: Vec::new(),
            children: Vec::new(),
            last_key: None,
            count: 0,
        })
    }

    /// Appends one entry. Keys must be strictly ascending.
    pub fn push(&mut self, key: u64, value: &[u8]) -> Result<()> {
        if let Some(last) = self.last_key {
            if key <= last {
                return Err(Error::corrupt(format!(
                    "segment build: key {key} after {last} breaks ascending order"
                )));
            }
        }
        self.last_key = Some(key);
        self.count += 1;
        self.leaf.push((key, value.to_vec()));
        if self.leaf.len() >= self.leaf_cap {
            self.flush_leaf()?;
        }
        Ok(())
    }

    fn write_page(&mut self, body: &[u8]) -> Result<(u64, u32)> {
        let framed = codec::frame(body);
        let at = self.offset;
        self.offset = self.backend.append(&self.key, &framed)?;
        debug_assert_eq!(self.offset, at + framed.len() as u64);
        Ok((at, framed.len() as u32))
    }

    fn flush_leaf(&mut self) -> Result<()> {
        if self.leaf.is_empty() {
            return Ok(());
        }
        let first_key = self.leaf[0].0;
        let mut body = Vec::new();
        body.push(PAGE_LEAF);
        codec::put_u32(&mut body, self.leaf.len() as u32);
        for (key, value) in self.leaf.drain(..) {
            codec::put_u64(&mut body, key);
            codec::put_bytes(&mut body, &value);
        }
        let (offset, len) = self.write_page(&body)?;
        self.children.push(ChildRef { first_key, offset, len });
        Ok(())
    }

    fn write_interior(&mut self, children: &[ChildRef]) -> Result<(u64, u32)> {
        let mut body = Vec::new();
        body.push(PAGE_INTERIOR);
        codec::put_u32(&mut body, children.len() as u32);
        for child in children {
            codec::put_u64(&mut body, child.first_key);
            codec::put_u64(&mut body, child.offset);
            codec::put_u32(&mut body, child.len);
        }
        self.write_page(&body)
    }

    /// Flushes the trailing leaf, finalizes the draft interior levels
    /// bottom-up, and returns where the root landed.
    pub fn finish(mut self) -> Result<SegmentMeta> {
        self.flush_leaf()?;
        if self.children.is_empty() {
            // Zero entries: the root is one empty leaf.
            let (offset, len) = self.write_page(&[PAGE_LEAF, 0, 0, 0, 0])?;
            self.children.push(ChildRef { first_key: 0, offset, len });
        }
        // Each pass folds one level of children into interior pages; the
        // loop ends when a single reference — the root — remains.
        while self.children.len() > 1 {
            let level = std::mem::take(&mut self.children);
            for group in level.chunks(self.interior_cap) {
                let (offset, len) = self.write_interior(group)?;
                self.children.push(ChildRef { first_key: group[0].first_key, offset, len });
            }
        }
        let root = self.children[0];
        self.backend.sync()?;
        Ok(SegmentMeta { root_offset: root.offset, root_len: root.len, entry_count: self.count })
    }
}

/// A decoded page, as cached by the reader.
enum Page {
    Leaf(Vec<(u64, Vec<u8>)>),
    Interior(Vec<ChildRef>),
}

/// Lazy point-and-range reader over a finished segment.
pub struct SegmentReader {
    backend: Arc<dyn Backend>,
    key: String,
    meta: SegmentMeta,
    cache: Mutex<PageCache>,
    pages_read: AtomicU64,
}

#[derive(Default)]
struct PageCache {
    pages: HashMap<u64, Arc<Page>>,
    order: VecDeque<u64>,
}

impl SegmentReader {
    /// Opens a reader over the segment at `key` described by `meta`.
    pub fn new(backend: Arc<dyn Backend>, key: &str, meta: SegmentMeta) -> Self {
        SegmentReader {
            backend,
            key: key.to_string(),
            meta,
            cache: Mutex::new(PageCache::default()),
            pages_read: AtomicU64::new(0),
        }
    }

    /// The segment's metadata.
    pub fn meta(&self) -> SegmentMeta {
        self.meta
    }

    /// Number of entries in the segment.
    pub fn entry_count(&self) -> u64 {
        self.meta.entry_count
    }

    /// How many pages have been fetched from the backend (cache misses)
    /// over this reader's lifetime.
    pub fn pages_read(&self) -> u64 {
        self.pages_read.load(Ordering::Relaxed)
    }

    fn load_page(&self, offset: u64, len: u32) -> Result<Arc<Page>> {
        {
            let cache = self.cache.lock().expect("page cache lock");
            if let Some(page) = cache.pages.get(&offset) {
                return Ok(Arc::clone(page));
            }
        }
        let mut buf = vec![0u8; len as usize];
        let n = self.backend.read_at(&self.key, offset, &mut buf)?;
        if n != buf.len() {
            return Err(Error::corrupt(format!(
                "segment {}: short page read at offset {offset} ({n} of {len} bytes)",
                self.key
            )));
        }
        self.pages_read.fetch_add(1, Ordering::Relaxed);
        let body = codec::read_single_frame(&buf, &format!("segment {} page", self.key))?;
        let page = Arc::new(decode_page(body, &self.key)?);
        let mut cache = self.cache.lock().expect("page cache lock");
        if cache.pages.len() >= CACHE_CAP {
            if let Some(evict) = cache.order.pop_front() {
                cache.pages.remove(&evict);
            }
        }
        if cache.pages.insert(offset, Arc::clone(&page)).is_none() {
            cache.order.push_back(offset);
        }
        Ok(page)
    }

    /// Point lookup: the value at `id`, or `None`.
    pub fn get(&self, id: u64) -> Result<Option<Vec<u8>>> {
        let mut offset = self.meta.root_offset;
        let mut len = self.meta.root_len;
        loop {
            match &*self.load_page(offset, len)? {
                Page::Leaf(items) => {
                    return Ok(items
                        .binary_search_by_key(&id, |(k, _)| *k)
                        .ok()
                        .map(|i| items[i].1.clone()));
                }
                Page::Interior(children) => {
                    // Last child whose subtree may contain `id`.
                    let i = children.partition_point(|c| c.first_key <= id);
                    let Some(child) = i.checked_sub(1).map(|i| children[i]) else {
                        return Ok(None);
                    };
                    offset = child.offset;
                    len = child.len;
                }
            }
        }
    }

    fn walk<F: FnMut(u64, &[u8])>(&self, offset: u64, len: u32, f: &mut F) -> Result<()> {
        match &*self.load_page(offset, len)? {
            Page::Leaf(items) => {
                for (key, value) in items {
                    f(*key, value);
                }
            }
            Page::Interior(children) => {
                for child in children {
                    self.walk(child.offset, child.len, f)?;
                }
            }
        }
        Ok(())
    }

    /// Visits, in ascending key order, every entry whose pages pass
    /// their checks, without collecting them. A page that fails to read,
    /// frame or decode is skipped together with its subtree; returns how
    /// many pages were skipped.
    pub fn scan_intact(&self, f: &mut impl FnMut(u64, &[u8])) -> u64 {
        self.walk_intact(self.meta.root_offset, self.meta.root_len, f)
    }

    fn walk_intact(&self, offset: u64, len: u32, f: &mut impl FnMut(u64, &[u8])) -> u64 {
        let Ok(page) = self.load_page(offset, len) else { return 1 };
        match &*page {
            Page::Leaf(items) => {
                items.iter().for_each(|(key, value)| f(*key, value));
                0
            }
            Page::Interior(children) => {
                children.iter().map(|c| self.walk_intact(c.offset, c.len, f)).sum()
            }
        }
    }

    /// All entries in ascending key order (used by recovery to
    /// materialize the store).
    pub fn scan(&self) -> Result<Vec<(u64, Vec<u8>)>> {
        let mut out = Vec::with_capacity(self.meta.entry_count as usize);
        self.walk(self.meta.root_offset, self.meta.root_len, &mut |k, v| {
            out.push((k, v.to_vec()))
        })?;
        Ok(out)
    }

    /// All keys in ascending order.
    pub fn keys(&self) -> Result<Vec<u64>> {
        let mut out = Vec::with_capacity(self.meta.entry_count as usize);
        self.walk(self.meta.root_offset, self.meta.root_len, &mut |k, _| out.push(k))?;
        Ok(out)
    }
}

fn decode_page(body: &[u8], key: &str) -> Result<Page> {
    let mut c = Cursor::new(body, "segment page");
    let kind = c.get_u8()?;
    let count = c.get_u32()? as usize;
    match kind {
        PAGE_LEAF => {
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                let k = c.get_u64()?;
                let v = c.get_bytes()?.to_vec();
                items.push((k, v));
            }
            c.finish()?;
            Ok(Page::Leaf(items))
        }
        PAGE_INTERIOR => {
            let mut children = Vec::with_capacity(count);
            for _ in 0..count {
                let first_key = c.get_u64()?;
                let offset = c.get_u64()?;
                let len = c.get_u32()?;
                children.push(ChildRef { first_key, offset, len });
            }
            c.finish()?;
            Ok(Page::Interior(children))
        }
        _ => Err(Error::corrupt(format!("segment {key}: unknown page kind {kind}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;
    use crate::codec::FRAME_HEADER;

    fn value_for(key: u64) -> Vec<u8> {
        format!("value-{key}").into_bytes().repeat(1 + (key % 3) as usize)
    }

    fn build(backend: &MemoryBackend, n: u64, leaf_cap: usize, interior_cap: usize) -> SegmentMeta {
        let mut builder = SegmentBuilder::with_caps(backend, "seg-1", leaf_cap, interior_cap)
            .expect("fresh builder");
        for key in 0..n {
            builder.push(key * 3, &value_for(key * 3)).unwrap();
        }
        builder.finish().unwrap()
    }

    fn reader(backend: &MemoryBackend, meta: SegmentMeta) -> SegmentReader {
        SegmentReader::new(Arc::new(backend.clone()), "seg-1", meta)
    }

    #[test]
    fn multi_level_tree_answers_every_point_lookup() {
        let backend = MemoryBackend::new();
        // 200 entries at caps (4, 3): depth ≥ 3, exercising real descent.
        let meta = build(&backend, 200, 4, 3);
        assert_eq!(meta.entry_count, 200);
        let r = reader(&backend, meta);
        for key in 0..200u64 {
            assert_eq!(r.get(key * 3).unwrap().unwrap(), value_for(key * 3), "key {}", key * 3);
            assert_eq!(r.get(key * 3 + 1).unwrap(), None);
        }
        // Below the smallest key and above the largest.
        assert_eq!(r.get(u64::MAX).unwrap(), None);
        let empty_meta = {
            let mut b = SegmentBuilder::with_caps(&backend, "seg-1", 4, 3).unwrap();
            b.push(10, b"x").unwrap();
            b.finish().unwrap()
        };
        assert_eq!(reader(&backend, empty_meta).get(3).unwrap(), None);
    }

    #[test]
    fn scan_and_keys_return_ascending_order() {
        let backend = MemoryBackend::new();
        let meta = build(&backend, 50, 4, 3);
        let r = reader(&backend, meta);
        let scan = r.scan().unwrap();
        assert_eq!(scan.len(), 50);
        for (i, (k, v)) in scan.iter().enumerate() {
            assert_eq!(*k, i as u64 * 3);
            assert_eq!(v, &value_for(*k));
        }
        assert_eq!(r.keys().unwrap(), (0..50).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_segment_is_valid() {
        let backend = MemoryBackend::new();
        let meta = SegmentBuilder::with_caps(&backend, "seg-1", 4, 3).unwrap().finish().unwrap();
        assert_eq!(meta.entry_count, 0);
        let r = reader(&backend, meta);
        assert_eq!(r.get(0).unwrap(), None);
        assert!(r.scan().unwrap().is_empty());
    }

    #[test]
    fn point_lookups_page_in_less_than_the_whole_segment() {
        let backend = MemoryBackend::new();
        let meta = build(&backend, 500, 4, 4);
        let scanner = reader(&backend, meta);
        scanner.scan().unwrap();
        let full_pages = scanner.pages_read();
        let pointer = reader(&backend, meta);
        pointer.get(3 * 250).unwrap().unwrap();
        assert!(
            pointer.pages_read() * 10 < full_pages,
            "one lookup read {} pages vs {} for a full scan",
            pointer.pages_read(),
            full_pages
        );
        // A repeated lookup is served from cache: no new page reads.
        let before = pointer.pages_read();
        pointer.get(3 * 250).unwrap().unwrap();
        assert_eq!(pointer.pages_read(), before);
    }

    #[test]
    fn builder_rejects_out_of_order_keys() {
        let backend = MemoryBackend::new();
        let mut builder = SegmentBuilder::new(&backend, "seg-1").unwrap();
        builder.push(5, b"x").unwrap();
        assert!(builder.push(5, b"y").is_err());
        assert!(builder.push(4, b"z").is_err());
    }

    #[test]
    fn damaged_pages_are_detected() {
        let backend = MemoryBackend::new();
        let meta = build(&backend, 40, 4, 3);
        let bytes = backend.get("seg-1").unwrap().unwrap();
        // Flip a byte inside the first page's body.
        backend.poke("seg-1", FRAME_HEADER as u64 + 2, 0xAA);
        let r = reader(&backend, meta);
        let failures = (0..40u64).filter(|&k| r.get(k * 3).is_err()).count();
        assert!(failures > 0, "corruption must surface as Err, not wrong data");
        // Restore and confirm the reader recovers (fresh cache).
        backend.put("seg-1", &bytes).unwrap();
        let r = reader(&backend, meta);
        assert_eq!(r.get(0).unwrap().unwrap(), value_for(0));
    }
}

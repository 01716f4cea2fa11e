//! The storage substrate: a small KV-of-byte-strings trait the WAL,
//! segments, and manifest are built on.
//!
//! A [`Backend`] stores whole byte strings under flat string keys and
//! supports three access patterns: atomic whole-value replacement
//! ([`Backend::put`] — the commit point for manifests), append with
//! positional reads ([`Backend::append`]/[`Backend::read_at`] — logs
//! and segment files), and deletion. Keys are flat names like
//! `"wal"` or `"seg-42"`; there is no hierarchy.
//!
//! [`MemoryBackend`] keeps everything in a shared map — tests use it to
//! snapshot, fork, and surgically corrupt stored bytes. [`FileBackend`]
//! maps each key to one file under a root directory, making replacement
//! atomic via the write-temp-then-rename idiom.

use crate::error::{Error, Result};
use std::collections::BTreeMap;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Validates a backend key: non-empty, `[a-z0-9._-]` only, no leading
/// dot. Keys never traverse directories.
pub fn check_key(key: &str) -> Result<()> {
    let ok = !key.is_empty()
        && !key.starts_with('.')
        && key.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._-".contains(c));
    if ok {
        Ok(())
    } else {
        Err(Error::InvalidKey(key.to_string()))
    }
}

/// Byte-string storage under flat keys; see the module docs for the
/// three access patterns it must support.
pub trait Backend: Send + Sync {
    /// Reads the whole value at `key`, or `None` if absent.
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>>;
    /// Atomically replaces the value at `key`. After `put` returns,
    /// readers see either the old value or the new one, never a mix.
    fn put(&self, key: &str, value: &[u8]) -> Result<()>;
    /// Appends bytes to the value at `key` (creating it if absent) and
    /// returns the value's new total length.
    fn append(&self, key: &str, bytes: &[u8]) -> Result<u64>;
    /// Reads up to `buf.len()` bytes at `offset` into `buf`, returning
    /// how many were read (short only at end-of-value).
    fn read_at(&self, key: &str, offset: u64, buf: &mut [u8]) -> Result<usize>;
    /// The value's length in bytes, or `None` if absent.
    fn len(&self, key: &str) -> Result<Option<u64>>;
    /// Truncates the value at `key` to `len` bytes (no-op if shorter).
    fn truncate(&self, key: &str, len: u64) -> Result<()>;
    /// Removes `key` if present.
    fn delete(&self, key: &str) -> Result<()>;
    /// All keys present, sorted.
    fn list(&self) -> Result<Vec<String>>;
    /// Forces buffered writes down to the durable medium.
    fn sync(&self) -> Result<()>;
}

// --- memory -----------------------------------------------------------

/// An in-memory [`Backend`]: a shared `BTreeMap` of byte strings.
///
/// Clones share storage (like two handles on one disk). [`MemoryBackend::fork`]
/// deep-copies instead — the kill-point tests fork a backend, truncate or
/// flip bytes in the fork's WAL, and recover from it without disturbing
/// the original.
#[derive(Clone, Default)]
pub struct MemoryBackend {
    map: Arc<Mutex<BTreeMap<String, Vec<u8>>>>,
}

impl MemoryBackend {
    /// An empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// A deep copy: same contents, independent storage.
    pub fn fork(&self) -> Self {
        let map = self.map.lock().expect("backend lock").clone();
        MemoryBackend { map: Arc::new(Mutex::new(map)) }
    }

    /// Overwrites one byte of the value at `key` with `byte`, for
    /// corruption tests. Panics if the key or offset is absent.
    pub fn poke(&self, key: &str, offset: u64, byte: u8) {
        let mut map = self.map.lock().expect("backend lock");
        let value = map.get_mut(key).expect("poke: key present");
        value[offset as usize] = byte;
    }
}

impl Backend for MemoryBackend {
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        check_key(key)?;
        Ok(self.map.lock().expect("backend lock").get(key).cloned())
    }

    fn put(&self, key: &str, value: &[u8]) -> Result<()> {
        check_key(key)?;
        self.map.lock().expect("backend lock").insert(key.to_string(), value.to_vec());
        Ok(())
    }

    fn append(&self, key: &str, bytes: &[u8]) -> Result<u64> {
        check_key(key)?;
        let mut map = self.map.lock().expect("backend lock");
        let value = map.entry(key.to_string()).or_default();
        value.extend_from_slice(bytes);
        Ok(value.len() as u64)
    }

    fn read_at(&self, key: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
        check_key(key)?;
        let map = self.map.lock().expect("backend lock");
        let Some(value) = map.get(key) else {
            return Err(Error::corrupt(format!("read_at: key {key:?} absent")));
        };
        let offset = (offset as usize).min(value.len());
        let n = buf.len().min(value.len() - offset);
        buf[..n].copy_from_slice(&value[offset..offset + n]);
        Ok(n)
    }

    fn len(&self, key: &str) -> Result<Option<u64>> {
        check_key(key)?;
        Ok(self.map.lock().expect("backend lock").get(key).map(|v| v.len() as u64))
    }

    fn truncate(&self, key: &str, len: u64) -> Result<()> {
        check_key(key)?;
        let mut map = self.map.lock().expect("backend lock");
        if let Some(value) = map.get_mut(key) {
            value.truncate(len as usize);
        }
        Ok(())
    }

    fn delete(&self, key: &str) -> Result<()> {
        check_key(key)?;
        self.map.lock().expect("backend lock").remove(key);
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>> {
        Ok(self.map.lock().expect("backend lock").keys().cloned().collect())
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

// --- files ------------------------------------------------------------

/// A directory-backed [`Backend`]: each key is one file under the root.
///
/// `put` is atomic on POSIX filesystems: the value is written to a
/// `.tmp` sibling, flushed, then renamed over the destination, so a
/// crash leaves either the old manifest or the new one. `append` opens
/// in append mode, the OS's atomic-append guarantee for the WAL. Every
/// `put`, `append` and shrinking `truncate` ends in `File::sync_all`.
#[derive(Clone)]
pub struct FileBackend {
    root: PathBuf,
}

impl FileBackend {
    /// Opens (creating if needed) a backend rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(FileBackend { root })
    }

    /// The directory this backend stores files under.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    fn path(&self, key: &str) -> Result<PathBuf> {
        check_key(key)?;
        Ok(self.root.join(key))
    }
}

impl Backend for FileBackend {
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        match fs::read(self.path(key)?) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn put(&self, key: &str, value: &[u8]) -> Result<()> {
        let path = self.path(key)?;
        let tmp = self.root.join(format!("{key}.tmp"));
        let mut file = fs::File::create(&tmp)?;
        file.write_all(value)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, &path)?;
        Ok(())
    }

    fn append(&self, key: &str, bytes: &[u8]) -> Result<u64> {
        let path = self.path(key)?;
        let mut file = fs::OpenOptions::new().create(true).append(true).open(path)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        Ok(file.stream_position()?)
    }

    fn read_at(&self, key: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let mut file = fs::File::open(self.path(key)?)?;
        file.seek(SeekFrom::Start(offset))?;
        let mut read = 0;
        while read < buf.len() {
            let n = file.read(&mut buf[read..])?;
            if n == 0 {
                break;
            }
            read += n;
        }
        Ok(read)
    }

    fn len(&self, key: &str) -> Result<Option<u64>> {
        match fs::metadata(self.path(key)?) {
            Ok(meta) => Ok(Some(meta.len())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn truncate(&self, key: &str, len: u64) -> Result<()> {
        let path = self.path(key)?;
        match fs::OpenOptions::new().write(true).open(&path) {
            Ok(file) => {
                if file.metadata()?.len() > len {
                    file.set_len(len)?;
                    file.sync_all()?;
                }
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn delete(&self, key: &str) -> Result<()> {
        match fs::remove_file(self.path(key)?) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn list(&self) -> Result<Vec<String>> {
        let mut keys = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue;
            }
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if check_key(name).is_ok() && !name.ends_with(".tmp") {
                keys.push(name.to_string());
            }
        }
        keys.sort();
        Ok(keys)
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let mut root = std::env::temp_dir();
        root.push(format!("saq_durable_backend_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        root
    }

    fn exercise(backend: &dyn Backend) {
        assert_eq!(backend.get("wal").unwrap(), None);
        assert_eq!(backend.len("wal").unwrap(), None);
        assert_eq!(backend.append("wal", b"hello ").unwrap(), 6);
        assert_eq!(backend.append("wal", b"world").unwrap(), 11);
        assert_eq!(backend.get("wal").unwrap().unwrap(), b"hello world");
        let mut buf = [0u8; 5];
        assert_eq!(backend.read_at("wal", 6, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"world");
        assert_eq!(backend.read_at("wal", 9, &mut buf).unwrap(), 2);
        backend.truncate("wal", 5).unwrap();
        assert_eq!(backend.get("wal").unwrap().unwrap(), b"hello");
        backend.truncate("wal", 500).unwrap();
        assert_eq!(backend.len("wal").unwrap(), Some(5));
        backend.put("manifest", b"v1").unwrap();
        backend.put("manifest", b"v2").unwrap();
        assert_eq!(backend.get("manifest").unwrap().unwrap(), b"v2");
        assert_eq!(backend.list().unwrap(), vec!["manifest".to_string(), "wal".to_string()]);
        backend.delete("manifest").unwrap();
        backend.delete("manifest").unwrap();
        assert_eq!(backend.list().unwrap(), vec!["wal".to_string()]);
        backend.sync().unwrap();
    }

    #[test]
    fn memory_backend_contract() {
        exercise(&MemoryBackend::new());
    }

    #[test]
    fn file_backend_contract() {
        let root = temp_root("contract");
        exercise(&FileBackend::open(&root).unwrap());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn file_backend_reopens_existing_data() {
        let root = temp_root("reopen");
        {
            let backend = FileBackend::open(&root).unwrap();
            backend.append("wal", b"persisted").unwrap();
        }
        let backend = FileBackend::open(&root).unwrap();
        assert_eq!(backend.get("wal").unwrap().unwrap(), b"persisted");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn keys_are_validated() {
        for bad in ["", "UPPER", "a/b", "../x", ".hidden", "sp ace"] {
            assert!(check_key(bad).is_err(), "{bad:?} should be rejected");
        }
        for good in ["wal", "seg-42", "docs-7", "manifest", "a.b_c-d0"] {
            check_key(good).unwrap();
        }
        let backend = MemoryBackend::new();
        assert!(backend.put("A/B", b"x").is_err());
    }

    #[test]
    fn memory_fork_and_poke_are_independent() {
        let backend = MemoryBackend::new();
        backend.append("wal", b"abcdef").unwrap();
        let fork = backend.fork();
        fork.poke("wal", 2, b'X');
        fork.truncate("wal", 4).unwrap();
        assert_eq!(fork.get("wal").unwrap().unwrap(), b"abXd");
        assert_eq!(backend.get("wal").unwrap().unwrap(), b"abcdef");
        // Clones, by contrast, share storage.
        let clone = backend.clone();
        clone.append("wal", b"!").unwrap();
        assert_eq!(backend.get("wal").unwrap().unwrap(), b"abcdef!");
    }
}

//! The persistent, content-addressed artifact store.
//!
//! Layout on disk:
//!
//! ```text
//! <root>/objects/<kind>-<key>.blob    one framed artifact per file
//! ```
//!
//! The store holds exactly what a later run reads back through
//! [`InferCache`]: per-method solve records. A method's permissions flow
//! graph is a cheap pure function of its source, so every run rebuilds
//! it; the `pfg-*.blob` files older stores hold are never read. Records
//! are addressed purely by their 128-bit content key — a lookup probes the
//! file derived from `(kind, key)`. Any structural problem with a file
//! (truncation, bit flips, version skew, checksum or payload failure) is
//! counted in [`StoreStats::corrupt_entries`], the offending file is
//! removed, and the lookup reports a miss; the store never panics on
//! hostile bytes.

use crate::blob::{decode_payload, frame_blob, unframe_blob, ArtifactKind};
use crate::codec::{self, Dec};
use anek_core::memo::{CacheKey, InferCache, SolvedRecord};
use anek_core::{InferConfig, InferResult};
use java_syntax::ast::CompilationUnit;
use spec_lang::ApiRegistry;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::Mutex;

/// Counters describing one store's session activity plus its persistent
/// size. Hit/miss counters here include speculative lookups from worker
/// threads, so they may exceed the deterministic `memo_hits`/`memo_misses`
/// committed by the worklist.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Solve-record lookups satisfied from memory or disk.
    pub solve_hits: usize,
    /// Solve-record lookups that found nothing usable.
    pub solve_misses: usize,
    /// Always 0: the store no longer holds PFGs. Kept only because the
    /// repository benchmark (`benchmark/src/layers.rs`) still reads it.
    pub pfg_hits: usize,
    /// Always 0, like [`StoreStats::pfg_hits`]. Kept only because
    /// `benchmark/src/layers.rs` still reads it.
    pub pfg_misses: usize,
    /// Files that existed but failed a frame or payload check; each is
    /// removed after counting so it degrades into a plain miss.
    pub corrupt_entries: usize,
    /// Blob files currently on disk.
    pub entries: usize,
    /// Blobs written during this session.
    pub inserted: usize,
}

struct Inner {
    stats: StoreStats,
    solve_mem: HashMap<CacheKey, SolvedRecord>,
}

/// A versioned, content-addressed, on-disk store for analysis artifacts,
/// usable directly as the worklist's [`InferCache`].
pub struct Store {
    root: PathBuf,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store").field("root", &self.root).finish_non_exhaustive()
    }
}

impl Store {
    /// Opens (creating if needed) the store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Store> {
        let root = root.into();
        fs::create_dir_all(root.join("objects"))?;
        let entries = fs::read_dir(root.join("objects"))?
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "blob"))
            .count();
        let inner = Inner {
            stats: StoreStats { entries, ..StoreStats::default() },
            solve_mem: HashMap::new(),
        };
        Ok(Store { root, inner: Mutex::new(inner) })
    }

    /// A snapshot of the store's counters.
    pub fn stats(&self) -> StoreStats {
        self.lock().stats
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn blob_path(&self, kind: ArtifactKind, key: CacheKey) -> PathBuf {
        self.root.join("objects").join(format!("{}-{key:032x}.blob", kind.label()))
    }

    /// Reads, unframes and decodes one artifact. Missing file → `None`
    /// silently; any structural failure → counted corrupt entry, file
    /// removed, `None`.
    fn read_artifact<T>(
        &self,
        inner: &mut Inner,
        kind: ArtifactKind,
        key: CacheKey,
        decode: impl FnOnce(&mut Dec<'_>) -> Result<T, codec::CodecError>,
    ) -> Option<T> {
        let path = self.blob_path(kind, key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            Err(_) => {
                inner.stats.corrupt_entries += 1;
                return None;
            }
        };
        match unframe_blob(&bytes, kind, key).and_then(|p| decode_payload(p, decode)) {
            Ok(value) => Some(value),
            Err(_) => {
                inner.stats.corrupt_entries += 1;
                inner.stats.entries = inner.stats.entries.saturating_sub(1);
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Frames and writes one artifact atomically (tmp + rename), updating
    /// the entry counters. Write failures are swallowed: the store is a
    /// cache, and a failed insert only costs a future miss.
    fn write_artifact(&self, inner: &mut Inner, kind: ArtifactKind, key: CacheKey, payload: &[u8]) {
        let path = self.blob_path(kind, key);
        let fresh = !path.exists();
        let tmp = path.with_extension("tmp");
        let framed = frame_blob(kind, key, payload);
        if fs::write(&tmp, &framed).and_then(|()| fs::rename(&tmp, &path)).is_ok() {
            inner.stats.inserted += 1;
            if fresh {
                inner.stats.entries += 1;
            }
        }
    }

    /// Writes nothing and returns `Ok(())`. The store keeps only what a
    /// later run reads back: solve records, which carry each method's
    /// summary, written during inference through [`InferCache`]. This
    /// method survives, with its old parameters, only because the
    /// repository benchmark (`benchmark/src/layers.rs`) still calls it; no
    /// product code does.
    pub fn record_run(
        &self,
        _units: &[CompilationUnit],
        _api: &ApiRegistry,
        _cfg: &InferConfig,
        _result: &InferResult,
    ) -> io::Result<()> {
        Ok(())
    }
}

impl InferCache for Store {
    fn solve_lookup(&self, key: CacheKey) -> Option<SolvedRecord> {
        let mut inner = self.lock();
        if let Some(record) = inner.solve_mem.get(&key) {
            let record = record.clone();
            inner.stats.solve_hits += 1;
            return Some(record);
        }
        match self.read_artifact(&mut inner, ArtifactKind::Solve, key, codec::dec_solved) {
            Some(record) => {
                inner.stats.solve_hits += 1;
                inner.solve_mem.insert(key, record.clone());
                Some(record)
            }
            None => {
                inner.stats.solve_misses += 1;
                None
            }
        }
    }

    fn solve_insert(&self, key: CacheKey, record: &SolvedRecord) {
        let mut inner = self.lock();
        let payload = codec::to_bytes(|e| codec::enc_solved(e, record));
        self.write_artifact(&mut inner, ArtifactKind::Solve, key, &payload);
        inner.solve_mem.insert(key, record.clone());
    }
}

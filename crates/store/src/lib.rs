//! # store
//!
//! Persistent, versioned, content-addressed storage for the one ANEK
//! analysis artifact a later run reads back: per-method solve records,
//! each carrying the method's probabilistic summary, from which its spec
//! is extracted.
//!
//! The store implements [`anek_core::InferCache`], so attaching it to
//! [`anek_core::infer_with_store`] turns a cold full run into a warm
//! incremental one: every committed solve whose content key is already
//! present replays the cached record instead of rebuilding a skeleton and
//! running belief propagation. Because the worklist replays its full
//! deterministic schedule either way, warm results are byte-identical to a
//! cold run at any thread count (see `anek_core::memo` for the argument).
//!
//! Robustness contract: a truncated, bit-flipped, version-skewed or
//! otherwise mangled entry is a *counted cache miss*
//! ([`StoreStats::corrupt_entries`]), never a panic or an error.

#![warn(missing_docs)]

pub mod blob;
pub mod codec;
mod store;

pub use blob::{ArtifactKind, BlobError, BLOB_MAGIC, FORMAT_VERSION};
pub use codec::{CodecError, Dec, Enc};
pub use store::{Store, StoreStats};

//! # saq-archive
//!
//! A simulated archival-storage substrate for the paper's §1 motivation:
//! "often this data is archived off-line on very slow storage media (e.g.
//! magnetic tape) in a remote central site... obtaining raw seismic data can
//! take several days. Since the exact data points are not necessarily of
//! interest, we can store instead an approximate representation that is much
//! more compact, thus can be stored locally."
//!
//! Media are *cost models*: every [`ArchiveSnapshot::fetch`] returns the
//! simulated seek + transfer seconds it cost, and callers sum those costs,
//! so experiments measure the latency shape (local representation ≪
//! remote raw) deterministically. This stands in for the remote tape
//! archive the paper's scientists fought with. Fetches sleep only when a
//! test or experiment opts in with [`ArchiveStore::set_realtime_scale`],
//! which turns simulated seconds into real blocking so a worker pool can
//! overlap them.
//!
//! The paper's storage split is the archive plus a representation kept
//! locally: [`ArchiveStore`] holds the raw samples, which only value-band
//! queries fetch, beside one resident feature document per sequence
//! ([`ArchiveSnapshot::doc`]) that answers every feature query without
//! touching the medium. `saq_core::SequenceStore` built with
//! `keep_raw: false` is the same split with the full representation and
//! its indexes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod durability;
mod engine;
mod medium;
mod store;

pub use durability::{compute_doc, decode_sequence, encode_sequence, ColdDocs, DurabilityConfig};
pub use engine::ArchiveScanEngine;
pub use medium::{AccessCost, Medium};
pub use store::{ArchiveSnapshot, ArchiveSnapshotProbe, ArchiveStore};

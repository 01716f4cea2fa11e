//! # saq-index
//!
//! Index structures over function-series representations:
//!
//! * [`BPlusTree`] — an order-configurable B+tree with linked leaves, built
//!   from scratch (the "B-Tree structure" of Fig. 10),
//! * [`InvertedIndex`] — the inverted-file organization of §5.2/Fig. 10:
//!   a B+tree over bucket keys pointing into posting lists of
//!   `(sequence id, position)` pairs,
//! * [`PatternIndex`] — the slope-sign pattern index of §4.4, answering
//!   "positions of the first point of all stored sequences matching a
//!   pattern" with a DFA scan over stored symbol strings,
//! * [`IndexSet`] — the unified maintenance layer: every index a store
//!   keeps, mutated together through the [`SequenceIndex`] trait
//!   (incremental insert *and* remove), with per-index statistics
//!   ([`IndexStats`]) snapshotted for selectivity-driven planning,
//! * [`OwnedDoc`] / [`FeatureDoc`] — a sequence's feature document: its
//!   [`IndexDoc`] plus its peaks' steepness extrema, everything a feature
//!   predicate reads; [`DocPager`] serves persisted documents by id.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bplus;
pub mod cold;
pub mod cow;
pub mod index_set;
pub mod inverted;
pub mod pattern_index;
pub mod stats;

pub use bplus::BPlusTree;
pub use cold::{DocPager, FeatureDoc, OwnedDoc};
pub use cow::ShardedCowMap;
pub use index_set::{IndexDoc, IndexSet, IndexSetProbe, SequenceIndex};
pub use inverted::{InvertedIndex, Posting};
pub use pattern_index::{PatternHit, PatternIndex};
pub use stats::{IndexStats, IntervalStats, PatternStats};

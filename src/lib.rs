//! # saq — Sequence Approximate Queries
//!
//! A Rust reproduction of **Shatkay & Zdonik, "Approximate Queries and
//! Representations for Large Data Sequences" (ICDE 1996)**: breaking large
//! data sequences into meaningful subsequences, representing each by a
//! real-valued function, and answering *generalized approximate queries*
//! (shape and feature queries closed under feature-preserving
//! transformations) over the compact representation.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`sequence`] | `saq-sequence` | data model, statistics, generators, CSV I/O |
//! | [`curves`] | `saq-curves` | lines, polynomials, Bézier, sinusoids + fitting |
//! | [`preprocess`] | `saq-preprocess` | filtering, normalization, wavelets |
//! | [`pattern`] | `saq-pattern` | regex engine over slope alphabets |
//! | [`index`] | `saq-index` | B+tree, inverted file, pattern index |
//! | [`core`] | `saq-core` | breaking, representation, features, queries, query algebra + planner |
//! | [`ecg`] | `saq-ecg` | ECG synthesis and R–R interval workloads |
//! | [`baseline`] | `saq-baseline` | value-band and DFT/F-index comparators |
//! | [`durable`] | `saq-durable` | write-ahead log + immutable B-tree segments behind a `Backend` trait |
//! | [`archive`] | `saq-archive` | simulated archival storage tiers, durably backed |
//! | [`engine`] | `saq-engine` | sharded parallel batch queries over the archive |
//! | [`server`] | `saq-server` | `saqd`: networked SAQL service with batch coalescing |
//!
//! ## Quickstart
//!
//! ```
//! use saq::core::store::{SequenceStore, StoreConfig};
//! use saq::core::{QueryEngine as _, QueryRequest, StoreEngine};
//! use saq::sequence::generators::{goalpost, GoalpostSpec};
//!
//! // Ingest a 24-hour temperature log; query for goal-post fever.
//! let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
//! let id = store.insert(&goalpost(GoalpostSpec::default())).unwrap();
//! let query = QueryRequest::saql(r#"shape "0* 1+ (-1)+ 0* 1+ (-1)+ 0*""#);
//! let resp = StoreEngine::new(&store).request(&query).unwrap();
//! assert_eq!(resp.outcome.exact, vec![id]);
//! ```
//!
//! Queries compose: see [`core::algebra`] for the `And`/`Or`/`Not`/
//! `Limit`/`TopK` expression algebra, the planner that pushes indexable
//! leaves into [`index`] structures, and the `QueryEngine` trait — one
//! `request(&QueryRequest)` entry point shared by the sequential, sharded
//! and remote execution backends.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use saq_archive as archive;
pub use saq_baseline as baseline;
pub use saq_core as core;
pub use saq_curves as curves;
pub use saq_durable as durable;
pub use saq_ecg as ecg;
pub use saq_engine as engine;
pub use saq_index as index;
pub use saq_pattern as pattern;
pub use saq_preprocess as preprocess;
pub use saq_sequence as sequence;
pub use saq_server as server;

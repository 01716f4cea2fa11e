//! # saq-core
//!
//! The paper's primary contribution (Shatkay & Zdonik, ICDE 1996): breaking
//! large data sequences into meaningful subsequences, representing each by a
//! well-behaved real-valued function, and answering *generalized approximate
//! queries* over the resulting compact representation.
//!
//! The crate is organized around the paper's pipeline:
//!
//! 1. **Breaking** ([`brk`]) — the offline recursive curve-fitting template
//!    of Fig. 8 (instantiated with endpoint interpolation, least-squares
//!    regression, or Bézier curves), an online sliding-window breaker, and a
//!    dynamic-programming cost-minimizing breaker used as the expensive
//!    baseline.
//! 2. **Representation** ([`repr`]) — [`FunctionSeries`]: the sequence of
//!    fitted functions with per-segment start/end points, reconstruction and
//!    compression accounting.
//! 3. **Slope alphabet** ([`alphabet`]) — quantizing segment slopes into
//!    `{−1, 0, +1}` (rendered `d`, `f`, `u`), the paper's index alphabet.
//! 4. **Features** ([`features`]) — peaks (Table 1's per-peak rising and
//!    descending functions), inter-peak intervals, steepness.
//! 5. **Transformations** ([`transform`]) — the feature-preserving
//!    transformations that generalized approximate queries are closed under.
//! 6. **Queries** ([`query`], [`store`]) — the feature-query vocabulary
//!    and a store of representations with slope-pattern and inverted-file
//!    indexes.
//! 7. **Algebra** ([`algebra`]) — the composable query algebra
//!    ([`QueryExpr`]: `And`/`Or`/`Not`/`Limit`/`TopK` over predicate
//!    leaves), the [`Planner`] that pushes indexable leaves into
//!    `saq-index` structures, and the [`QueryEngine`] trait — one
//!    [`QueryRequest`] → [`QueryResponse`] entry point ([`request`]) shared
//!    by the sequential, sharded and remote execution backends.
//! 8. **Language** ([`lang`]) — SAQL ([`lang::saql`]), the textual
//!    surface for the full algebra (grammar in `docs/SAQL.md`).
//! 9. **Streaming** ([`streaming`], [`subscribe`]) — incremental
//!    re-representation for live appends (splicing the online breaker's
//!    stable prefix) and standing queries whose result-set deltas are
//!    pushed after every mutation wave.
//!
//! ## Quick start
//!
//! ```
//! use saq_core::{brk::LinearInterpolationBreaker, repr::FunctionSeries, Breaker};
//! use saq_curves::RegressionFitter;
//! use saq_sequence::generators::{goalpost, GoalpostSpec};
//!
//! let log = goalpost(GoalpostSpec::default());
//! let breaker = LinearInterpolationBreaker::new(1.0);
//! let ranges = breaker.break_ranges(&log);
//! let series = FunctionSeries::build(&log, &ranges, &RegressionFitter).unwrap();
//! assert!(series.segment_count() >= 4); // up, down, up, down at least
//! assert!(series.compression().ratio() > 1.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algebra;
pub mod alphabet;
pub mod brk;
mod error;
pub mod features;
pub mod lang;
pub mod multi;
pub mod query;
pub mod repr;
pub mod request;
pub mod store;
pub mod streaming;
pub mod subscribe;
pub mod transform;

pub use algebra::{
    AccessPath, ExecStats, IndexCaps, MatchSet, MatchTier, PhysicalPlan, PlanStats, Planner, Pred,
    PreparedPred, QueryEngine, QueryExpr, StoreEngine,
};
pub use alphabet::{slope_alphabet, SlopeSymbol};
pub use brk::Breaker;
pub use error::{Error, Result};
pub use features::{Peak, PeakTable};
pub use lang::saql::{parse as parse_saql, parse_and_plan, print as print_saql, SaqlError, Span};
pub use multi::{Family, MultiSeries};
pub use query::{ApproximateMatch, QueryOutcome, QuerySpec, SequenceMatch};
pub use repr::{CompressionReport, FunctionSeries, LinearSeries, Segment};
pub use request::{QueryBody, QueryRequest, QueryResponse, SnapshotRef};
pub use store::{BreakerKind, SequenceStore, SharedStore, StoreConfig, StoreSnapshot, StoredEntry};
pub use streaming::{append_entry, extend_entry, SpliceReport};
pub use subscribe::{Delta, PumpCounters, SubscriptionId, SubscriptionRegistry};
pub use transform::Transform;

//! A composable query algebra over sequence representations, with a
//! planner that pushes indexable leaves into the `saq-index` structures.
//!
//! The paper's generalized approximate queries ([`QuerySpec`]) each name a
//! single feature dimension. Real workloads compose them: *"goal-post
//! shaped **and** inter-peak interval 8 ± 2, but **not** in the January
//! batch, give me the 10 closest"*. This module turns the closed
//! [`QuerySpec`] enum into leaves of an expression tree:
//!
//! * [`QueryExpr`] — the algebra: [`Pred`] leaves (feature specs, value
//!   bands, id ranges) combined with `And` / `Or` / `Not` / `Limit` /
//!   `TopK`.
//! * [`Planner`] — normalizes an expression, chooses an [`AccessPath`] per
//!   leaf (pattern index, inverted interval file, id filter, or scan) and
//!   emits a [`PhysicalPlan`]. Given a [`PlanStats`] snapshot of the
//!   backend's index statistics ([`Planner::with_stats`]), it annotates
//!   leaves with cardinality estimates and orders conjunctions by them —
//!   most selective first within each access-path cost class — and serves
//!   `Or`s of index-grade operands as index unions.
//! * [`conjunct_order`] — that ordering rule, the only one: the planner
//!   applies it to `And` children, the sharded engine to its wave slots.
//! * [`execute_plan`] — the one executor shared by every engine; data
//!   access is abstracted behind [`LeafSource`], so the sequential store
//!   engine, the sequential archive engine, and the sharded batch engine
//!   all produce **id-identical** outcomes by construction.
//! * [`QueryEngine`] — the trait the engines implement: one required
//!   method, [`QueryEngine::request`], with [`QueryEngine::execute`] as
//!   sugar for built expressions.
//!
//! ## Semantics
//!
//! Every subexpression evaluates to a [`MatchSet`]: per sequence id, a
//! [`MatchTier`] holding a deviation and an exact/approximate flag.
//! Combination follows §2.2's per-dimension metrics (and the conjunctive
//! query language of [`crate::lang`]):
//!
//! * `And` — a sequence matches iff it matches every operand; deviations
//!   **add** across dimensions, and the result is exact iff every operand
//!   is exact.
//! * `Or` — a sequence matches iff it matches any operand; an exact match
//!   in any operand wins, otherwise the **smallest** deviation is kept.
//! * `Not` — exactly the sequences (of the candidate universe) that do
//!   not match the operand at all; approximate matches of the operand
//!   count as matches, so they are excluded too.
//! * `Limit(n)` — the first `n` results in canonical result order (exact
//!   ids ascending, then approximate by `(deviation, id)`).
//! * `TopK(k)` — the `k` results with the smallest deviations (exact
//!   matches rank as deviation 0).
//!
//! `Limit` and `TopK` are **pipeline breakers**: their operand is always
//! evaluated against the full universe (never against an enclosing
//! conjunction's narrowed candidates), so their meaning is independent of
//! the access paths the planner picks.
//!
//! ## Example
//!
//! ```
//! use saq_core::algebra::{QueryEngine, QueryExpr, StoreEngine};
//! use saq_core::store::{SequenceStore, StoreConfig};
//! use saq_sequence::generators::{goalpost, peaks, GoalpostSpec, PeaksSpec};
//!
//! let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
//! let fever = store.insert(&goalpost(GoalpostSpec::default())).unwrap();
//! let single = store
//!     .insert(&peaks(PeaksSpec { centers: vec![12.0], ..PeaksSpec::default() }))
//!     .unwrap();
//!
//! // Goal-post shape AND an inter-peak interval near 10 hours.
//! let expr = QueryExpr::shape("0* 1+ (-1)+ 0* 1+ (-1)+ 0*")
//!     .and(QueryExpr::peak_interval(10, 2));
//! let (outcome, stats) = StoreEngine::new(&store).execute_with_stats(&expr).unwrap();
//! assert_eq!(outcome.exact, vec![fever]);
//! assert!(!outcome.all_ids().contains(&single));
//! // Both leaves were served by indexes: no stored entry was scanned.
//! assert_eq!(stats.entries_scanned, 0);
//! ```

use crate::error::{Error, Result};
use crate::query::{
    sort_approximate_matches, ApproximateMatch, QueryOutcome, QuerySpec, SequenceMatch,
};
use crate::request::{self, QueryRequest, QueryResponse, SnapshotRef};
use crate::store::{SequenceStore, StoreSnapshot, StoredEntry};
use saq_index::{FeatureDoc, IndexDoc};
use saq_sequence::Sequence;
use std::collections::BTreeMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Predicates (leaves)
// ---------------------------------------------------------------------------

/// A leaf predicate of the algebra: one per-sequence test.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// A generalized approximate feature query (shape, peak count, peak
    /// interval, steepness) with the per-sequence semantics of
    /// [`PreparedPred::matches`].
    Feature(QuerySpec),
    /// The value-based comparator (the paper's Fig. 1): a stored sequence
    /// matches exactly when every sample lies within the ±`delta` envelope
    /// of `query`, and approximately when it lies within
    /// ±`delta`·(1 + `slack`); the deviation is `distance − delta`. Length
    /// mismatches never match, and neither do entries whose raw samples
    /// were not retained (`keep_raw: false`).
    ValueBand {
        /// The envelope's center sequence.
        query: Sequence,
        /// Envelope half-width δ (finite, ≥ 0).
        delta: f64,
        /// Fractional widening of the approximate tier (finite, ≥ 0).
        slack: f64,
    },
    /// An inclusive id range `lo..=hi` — the provenance/partition leaf.
    /// Never touches a stored entry, so it is always index-grade.
    IdRange {
        /// Smallest matching id.
        lo: u64,
        /// Largest matching id.
        hi: u64,
    },
}

/// A [`Pred`] validated and compiled for repeated per-sequence evaluation
/// (shape patterns are parsed and compiled to a DFA once).
#[derive(Debug, Clone)]
pub struct PreparedPred {
    pred: Pred,
    /// Shape leaves only: the pattern parsed and compiled once. The
    /// regex drives the pattern index's pruned full scan, its DFA both
    /// the index's candidate-restricted path and the scan path.
    shape: Option<saq_pattern::Regex>,
}

impl PreparedPred {
    /// Validates and compiles a predicate. Fails on unparsable patterns,
    /// non-finite or negative band parameters, empty band queries, and
    /// inverted id ranges.
    pub fn new(pred: &Pred) -> Result<PreparedPred> {
        let shape = match pred {
            Pred::Feature(QuerySpec::Shape { pattern }) => {
                Some(crate::alphabet::parse_slope_pattern(pattern)?)
            }
            Pred::Feature(_) => None,
            Pred::ValueBand { query, delta, slack } => {
                if !(delta.is_finite() && *delta >= 0.0) {
                    return Err(Error::BadConfig("band delta must be finite and >= 0".into()));
                }
                if !(slack.is_finite() && *slack >= 0.0) {
                    return Err(Error::BadConfig("band slack must be finite and >= 0".into()));
                }
                if query.is_empty() {
                    return Err(Error::EmptyInput);
                }
                None
            }
            Pred::IdRange { lo, hi } => {
                if lo > hi {
                    return Err(Error::BadConfig(format!("inverted id range {lo}..={hi}")));
                }
                None
            }
        };
        Ok(PreparedPred { pred: pred.clone(), shape })
    }

    /// The underlying predicate.
    pub fn pred(&self) -> &Pred {
        &self.pred
    }

    /// Evaluates one sequence. `entry` may be `None` only for
    /// [`Pred::IdRange`], which tests the id alone. Feature leaves
    /// delegate to [`PreparedPred::matches_doc`] through a view over the
    /// entry, value bands to [`PreparedPred::matches_raw`].
    ///
    /// # Panics
    /// Panics if the predicate needs an entry and none is supplied.
    pub fn matches(&self, id: u64, entry: Option<&StoredEntry>) -> Option<SequenceMatch> {
        match &self.pred {
            Pred::Feature(spec) => {
                let entry = entry.expect("feature predicate needs a stored entry");
                // The entry derives buckets and steepness on demand; only
                // the predicates that read them pay for them.
                let buckets = match spec {
                    QuerySpec::PeakInterval { .. } => entry.peaks.interval_buckets(),
                    _ => Vec::new(),
                };
                let steepness = match spec {
                    QuerySpec::MinPeakSteepness { .. } | QuerySpec::HasSteepPeak { .. } => {
                        entry.peaks.steepness_range()
                    }
                    _ => None,
                };
                self.matches_doc(&FeatureDoc {
                    index: IndexDoc {
                        symbols: &entry.symbols,
                        interval_buckets: &buckets,
                        peak_count: entry.peaks.len(),
                    },
                    steepness,
                })
            }
            Pred::ValueBand { .. } => {
                let entry = entry.expect("band predicate needs a stored entry");
                self.matches_raw(entry.raw.as_ref()?)
            }
            Pred::IdRange { lo, hi } => (*lo..=*hi).contains(&id).then_some(SequenceMatch::Exact),
        }
    }

    /// Evaluates a value-band leaf against a sequence's raw samples: the
    /// L∞ distance to the band's center decides the tier.
    ///
    /// # Panics
    /// Panics on any other predicate.
    pub fn matches_raw(&self, raw: &Sequence) -> Option<SequenceMatch> {
        let Pred::ValueBand { query, delta, slack } = &self.pred else {
            panic!("only a value band reads raw samples");
        };
        let distance = query.linf_distance(raw)?;
        if distance <= *delta {
            Some(SequenceMatch::Exact)
        } else if distance <= *delta * (1.0 + *slack) {
            Some(SequenceMatch::Approximate(distance - *delta))
        } else {
            None
        }
    }

    /// Evaluates a feature leaf — shape, peak count, peak interval,
    /// steepness — from a sequence's feature document alone. This is the
    /// one definition of those semantics: [`PreparedPred::matches`]
    /// delegates here through a view over the stored entry, and backends
    /// holding documents answer from them without the entry.
    ///
    /// # Panics
    /// Panics on a value band or id range: a document does not carry what
    /// they test.
    pub fn matches_doc(&self, doc: &FeatureDoc<'_>) -> Option<SequenceMatch> {
        let Pred::Feature(spec) = &self.pred else {
            panic!("predicate is not answerable from a feature document");
        };
        match spec {
            QuerySpec::Shape { .. } => {
                let regex = self.shape.as_ref().expect("prepared shape leaf holds its regex");
                regex.compile().is_match(doc.index.symbols).then_some(SequenceMatch::Exact)
            }
            QuerySpec::PeakCount { count, tolerance } => {
                let dev = doc.index.peak_count.abs_diff(*count);
                if dev == 0 {
                    Some(SequenceMatch::Exact)
                } else if dev <= *tolerance {
                    Some(SequenceMatch::Approximate(dev as f64))
                } else {
                    None
                }
            }
            QuerySpec::PeakInterval { interval, epsilon } => {
                // Mirrors the inverted-file path: postings arrive in
                // position order, an id is exact if *any* in-band
                // interval hits the target dead-on, and otherwise its
                // deviation is the first in-band interval's.
                // Deviations compare as unsigned: `|bucket − interval|`
                // can exceed `i64::MAX`, and a negative ε admits nothing.
                let Ok(epsilon) = u64::try_from(*epsilon) else { return None };
                let mut first_in_band = None;
                let mut exact = false;
                for bucket in doc.index.interval_buckets {
                    let dev = bucket.abs_diff(*interval);
                    if dev <= epsilon {
                        exact |= dev == 0;
                        first_in_band.get_or_insert(dev);
                    }
                }
                if exact {
                    Some(SequenceMatch::Exact)
                } else {
                    first_in_band.map(|dev| SequenceMatch::Approximate(dev as f64))
                }
            }
            // The universal reading tests the least steep peak, the
            // existential one the steepest.
            QuerySpec::MinPeakSteepness { steepness, slack } => {
                steepness_match(doc.steepness.map(|(min, _)| min), *steepness, *slack)
            }
            QuerySpec::HasSteepPeak { steepness, slack } => {
                steepness_match(doc.steepness.map(|(_, max)| max), *steepness, *slack)
            }
        }
    }

    /// The compiled slope-pattern regex of a shape leaf, if any. Backends
    /// that keep a pattern index (the store engine) drive pruned index
    /// scans with it.
    pub fn regex(&self) -> Option<&saq_pattern::Regex> {
        self.shape.as_ref()
    }

    /// The compiled DFA of a shape leaf, if any.
    pub fn dfa(&self) -> Option<&saq_pattern::Dfa> {
        self.shape.as_ref().map(saq_pattern::Regex::compile)
    }
}

/// Shared body of the two steepness dimensions: `measure` is the peak
/// steepness the dimension reads, `None` for a sequence without peaks.
fn steepness_match(measure: Option<f64>, steepness: f64, slack: f64) -> Option<SequenceMatch> {
    let measure = measure?;
    if measure >= steepness {
        Some(SequenceMatch::Exact)
    } else if measure >= steepness * (1.0 - slack) {
        Some(SequenceMatch::Approximate(steepness - measure))
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// The algebra
// ---------------------------------------------------------------------------

/// A composable query expression: [`Pred`] leaves under `And` / `Or` /
/// `Not` / `Limit` / `TopK` nodes. Build leaves with the constructors
/// ([`QueryExpr::shape`], [`QueryExpr::peak_count`], …) and combine them
/// with the chaining methods:
///
/// ```
/// use saq_core::algebra::QueryExpr;
///
/// let expr = QueryExpr::peak_count(2, 1)
///     .and(QueryExpr::peak_interval(8, 2))
///     .and(QueryExpr::id_range(0, 999).negate())
///     .top_k(10);
/// assert_eq!(format!("{expr:?}").is_empty(), false);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum QueryExpr {
    /// A leaf predicate.
    Leaf(Pred),
    /// Conjunction: all operands must match; deviations add.
    And(Vec<QueryExpr>),
    /// Disjunction: any operand may match; the best tier wins.
    Or(Vec<QueryExpr>),
    /// Complement within the candidate universe.
    Not(Box<QueryExpr>),
    /// First `n` results in canonical result order.
    Limit(Box<QueryExpr>, usize),
    /// `k` results with the smallest deviations (exact = 0).
    TopK(Box<QueryExpr>, usize),
}

impl QueryExpr {
    /// A feature-query leaf.
    pub fn feature(spec: QuerySpec) -> QueryExpr {
        QueryExpr::Leaf(Pred::Feature(spec))
    }

    /// A shape leaf: the whole slope string must match `pattern` (either
    /// `u/d/f` or the paper's `1/-1/0` notation).
    pub fn shape(pattern: impl Into<String>) -> QueryExpr {
        QueryExpr::feature(QuerySpec::Shape { pattern: pattern.into() })
    }

    /// A peak-count leaf (`count` peaks ± `tolerance`).
    pub fn peak_count(count: usize, tolerance: usize) -> QueryExpr {
        QueryExpr::feature(QuerySpec::PeakCount { count, tolerance })
    }

    /// An inter-peak-interval leaf (`interval` ± `epsilon`).
    pub fn peak_interval(interval: i64, epsilon: i64) -> QueryExpr {
        QueryExpr::feature(QuerySpec::PeakInterval { interval, epsilon })
    }

    /// A universal steepness leaf: every peak's flanks at least this steep.
    pub fn min_steepness(steepness: f64, slack: f64) -> QueryExpr {
        QueryExpr::feature(QuerySpec::MinPeakSteepness { steepness, slack })
    }

    /// An existential steepness leaf: some peak's flanks at least this steep.
    pub fn has_steep_peak(steepness: f64, slack: f64) -> QueryExpr {
        QueryExpr::feature(QuerySpec::HasSteepPeak { steepness, slack })
    }

    /// A value-band leaf (Fig. 1 semantics with an approximate tier).
    pub fn value_band(query: Sequence, delta: f64, slack: f64) -> QueryExpr {
        QueryExpr::Leaf(Pred::ValueBand { query, delta, slack })
    }

    /// An inclusive id-range leaf.
    pub fn id_range(lo: u64, hi: u64) -> QueryExpr {
        QueryExpr::Leaf(Pred::IdRange { lo, hi })
    }

    /// Conjunction with another expression.
    pub fn and(self, other: QueryExpr) -> QueryExpr {
        match self {
            QueryExpr::And(mut children) => {
                children.push(other);
                QueryExpr::And(children)
            }
            first => QueryExpr::And(vec![first, other]),
        }
    }

    /// Disjunction with another expression.
    pub fn or(self, other: QueryExpr) -> QueryExpr {
        match self {
            QueryExpr::Or(mut children) => {
                children.push(other);
                QueryExpr::Or(children)
            }
            first => QueryExpr::Or(vec![first, other]),
        }
    }

    /// Complement of this expression (also available as `!expr`).
    pub fn negate(self) -> QueryExpr {
        QueryExpr::Not(Box::new(self))
    }

    /// Keeps the first `n` results in canonical result order.
    pub fn limit(self, n: usize) -> QueryExpr {
        QueryExpr::Limit(Box::new(self), n)
    }

    /// Keeps the `k` results with the smallest deviations.
    pub fn top_k(self, k: usize) -> QueryExpr {
        QueryExpr::TopK(Box::new(self), k)
    }
}

impl std::ops::Not for QueryExpr {
    type Output = QueryExpr;

    fn not(self) -> QueryExpr {
        self.negate()
    }
}

impl From<QuerySpec> for QueryExpr {
    /// Lowers a classic one-spec query to a single-leaf expression.
    fn from(spec: QuerySpec) -> QueryExpr {
        QueryExpr::feature(spec)
    }
}

// ---------------------------------------------------------------------------
// Match sets (the evaluation domain)
// ---------------------------------------------------------------------------

/// How one sequence matched a subexpression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchTier {
    /// Accumulated deviation across feature dimensions (0 for exact).
    pub deviation: f64,
    /// Whether any contributing dimension was approximate.
    pub approximate: bool,
}

impl MatchTier {
    /// The exact tier (deviation 0).
    pub fn exact() -> MatchTier {
        MatchTier { deviation: 0.0, approximate: false }
    }

    /// Converts a per-sequence verdict.
    pub fn from_match(m: SequenceMatch) -> MatchTier {
        match m {
            SequenceMatch::Exact => MatchTier::exact(),
            SequenceMatch::Approximate(deviation) => MatchTier { deviation, approximate: true },
        }
    }
}

/// The value of a subexpression: matched ids with their tiers, id-sorted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MatchSet {
    map: BTreeMap<u64, MatchTier>,
}

impl MatchSet {
    /// The empty set.
    pub fn new() -> MatchSet {
        MatchSet::default()
    }

    /// A set of exact matches.
    pub fn from_exact(ids: impl IntoIterator<Item = u64>) -> MatchSet {
        MatchSet { map: ids.into_iter().map(|id| (id, MatchTier::exact())).collect() }
    }

    /// Adds (or replaces) one id's tier.
    pub fn insert(&mut self, id: u64, tier: MatchTier) {
        self.map.insert(id, tier);
    }

    /// Number of matched ids.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing matched.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The tier of one id, if it matched.
    pub fn get(&self, id: u64) -> Option<MatchTier> {
        self.map.get(&id).copied()
    }

    /// Matched ids, ascending.
    pub fn ids(&self) -> Vec<u64> {
        self.map.keys().copied().collect()
    }

    /// Iterates `(id, tier)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, MatchTier)> + '_ {
        self.map.iter().map(|(&id, &tier)| (id, tier))
    }

    /// Conjunction: ids present in both; deviations add, approximate if
    /// either side is.
    pub fn and(self, other: &MatchSet) -> MatchSet {
        let map = self
            .map
            .into_iter()
            .filter_map(|(id, a)| {
                other.map.get(&id).map(|b| {
                    (
                        id,
                        MatchTier {
                            deviation: a.deviation + b.deviation,
                            approximate: a.approximate || b.approximate,
                        },
                    )
                })
            })
            .collect();
        MatchSet { map }
    }

    /// Disjunction: union of ids; an exact tier wins, otherwise the
    /// smaller deviation.
    pub fn or(mut self, other: MatchSet) -> MatchSet {
        for (id, b) in other.map {
            match self.map.entry(id) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(b);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let a = *e.get();
                    let best = if !a.approximate || !b.approximate {
                        MatchTier::exact()
                    } else {
                        MatchTier { deviation: a.deviation.min(b.deviation), approximate: true }
                    };
                    e.insert(best);
                }
            }
        }
        self
    }

    /// Complement: ids of `base` (sorted) absent from `self`, all exact.
    pub fn complement_within(&self, base: &[u64]) -> MatchSet {
        MatchSet::from_exact(base.iter().copied().filter(|id| !self.map.contains_key(id)))
    }

    /// Keeps only ids present in the sorted candidate list.
    pub fn restrict(mut self, candidates: &[u64]) -> MatchSet {
        self.map.retain(|id, _| candidates.binary_search(id).is_ok());
        self
    }

    /// The first `n` results in canonical order (exact ids ascending, then
    /// approximate by `(deviation, id)`).
    pub fn truncate_first(self, n: usize) -> MatchSet {
        let (exact, approx) = self.split_tiers();
        MatchSet { map: exact.into_iter().chain(approx).take(n).collect() }
    }

    /// The `k` entries with the smallest deviations; exact matches rank as
    /// deviation 0 and win ties, then smaller ids.
    pub fn truncate_top_k(self, k: usize) -> MatchSet {
        let mut all: Vec<(u64, MatchTier)> = self.map.into_iter().collect();
        all.sort_by(|a, b| {
            a.1.deviation
                .partial_cmp(&b.1.deviation)
                .expect("finite deviations")
                .then(a.1.approximate.cmp(&b.1.approximate))
                .then(a.0.cmp(&b.0))
        });
        MatchSet { map: all.into_iter().take(k).collect() }
    }

    /// Converts to the classic outcome: exact ids ascending, approximate
    /// matches by `(deviation, id)`.
    pub fn into_outcome(self) -> QueryOutcome {
        let (exact, approx) = self.split_tiers();
        let mut approximate: Vec<ApproximateMatch> = approx
            .into_iter()
            .map(|(id, tier)| ApproximateMatch { id, deviation: tier.deviation })
            .collect();
        sort_approximate_matches(&mut approximate);
        QueryOutcome { exact: exact.into_iter().map(|(id, _)| id).collect(), approximate }
    }

    /// Splits into (exact, approximate) lists — exact in id order,
    /// approximate sorted by `(deviation, id)`.
    #[allow(clippy::type_complexity)]
    fn split_tiers(self) -> (Vec<(u64, MatchTier)>, Vec<(u64, MatchTier)>) {
        let (approx, exact): (Vec<_>, Vec<_>) =
            self.map.into_iter().partition(|(_, tier)| tier.approximate);
        let mut approx = approx;
        approx.sort_by(|a, b| {
            a.1.deviation
                .partial_cmp(&b.1.deviation)
                .expect("finite deviations")
                .then(a.0.cmp(&b.0))
        });
        (exact, approx)
    }
}

// ---------------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------------

/// Which index structures an execution backend can serve leaves from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexCaps {
    /// The slope-pattern index (§4.4) is available for shape leaves.
    pub pattern: bool,
    /// The inverted interval file (Fig. 10) is available for
    /// peak-interval leaves.
    pub interval: bool,
}

impl IndexCaps {
    /// Every index available (the [`SequenceStore`] backends).
    pub fn all() -> IndexCaps {
        IndexCaps { pattern: true, interval: true }
    }

    /// No indexes (raw-archive backends): every entry leaf scans.
    pub fn none() -> IndexCaps {
        IndexCaps { pattern: false, interval: false }
    }
}

/// The access path the planner chose for one leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Serve a shape leaf from the slope-pattern index. On the archive
    /// engine, which keeps no index: answered from the sequence's index
    /// document ([`PreparedPred::matches_doc`]), never from an entry scan.
    PatternIndex,
    /// Serve a peak-interval leaf from the inverted interval file
    /// (B+tree range lookup; no entry is touched). On the archive engine:
    /// answered from the sequence's index document, never from an entry
    /// scan.
    IntervalIndex,
    /// Serve an id-range leaf by id arithmetic alone.
    IdFilter,
    /// Evaluate the predicate against every candidate entry.
    Scan,
}

impl AccessPath {
    /// Evaluation cost class of a leaf on this path inside a conjunction
    /// (the first key of [`conjunct_order`]): id arithmetic, then index
    /// lookups, then entry scans.
    pub fn cost_class(self) -> usize {
        match self {
            AccessPath::IdFilter => 0,
            AccessPath::PatternIndex | AccessPath::IntervalIndex => 1,
            AccessPath::Scan => 2,
        }
    }

    fn label(self) -> &'static str {
        match self {
            AccessPath::PatternIndex => "pattern-index",
            AccessPath::IntervalIndex => "interval-index",
            AccessPath::IdFilter => "id-filter",
            AccessPath::Scan => "scan",
        }
    }
}

/// Statistics a backend hands the [`Planner`] so it can estimate leaf
/// cardinalities: the candidate universe, its id span, and a snapshot of
/// the backend's [`saq_index::IndexStats`] (posting-list sizes, per-symbol
/// prefix counts, interval and peak-count histograms). All estimates are
/// advisory — they steer conjunction evaluation order, never results.
#[derive(Debug, Clone, Default)]
pub struct PlanStats {
    /// Number of ids in the candidate universe.
    pub universe: u64,
    /// Smallest and largest id, when the universe is non-empty.
    pub id_span: Option<(u64, u64)>,
    /// Index statistics, when the backend maintains indexes.
    pub index: Option<saq_index::IndexStats>,
}

impl PlanStats {
    /// Statistics of a [`StoreSnapshot`] — of the live state when called
    /// on a [`SequenceStore`] (which dereferences to its snapshot), and
    /// byte-identical for the lifetime of a pinned one no matter what the
    /// live store does.
    pub fn from_snapshot(snap: &StoreSnapshot) -> PlanStats {
        let ids = snap.ids();
        PlanStats {
            universe: ids.len() as u64,
            id_span: ids.first().copied().zip(ids.last().copied()),
            index: Some(snap.index_stats()),
        }
    }

    /// Estimated number of matching sequences for one leaf, `None` when no
    /// statistic covers the predicate (steepness and value-band leaves).
    pub fn estimate_leaf(&self, pred: &PreparedPred) -> Option<u64> {
        match pred.pred() {
            Pred::IdRange { lo, hi } => {
                let (slo, shi) = self.id_span?;
                let (olo, ohi) = ((*lo).max(slo), (*hi).min(shi));
                if olo > ohi {
                    return Some(0);
                }
                // Assume ids spread uniformly over the span.
                let span = (shi - slo) as u128 + 1;
                let overlap = (ohi - olo) as u128 + 1;
                Some(((self.universe as u128 * overlap / span) as u64).min(self.universe))
            }
            Pred::Feature(QuerySpec::Shape { .. }) => {
                Some(self.index.as_ref()?.pattern.estimate_full_matches(pred.regex()?.ast()))
            }
            Pred::Feature(QuerySpec::PeakInterval { interval, epsilon }) => {
                Some(self.index.as_ref()?.interval.estimate_matches(*interval, *epsilon))
            }
            Pred::Feature(QuerySpec::PeakCount { count, tolerance }) => {
                Some(self.index.as_ref()?.estimate_peak_count(*count, *tolerance))
            }
            _ => None,
        }
    }
}

/// One node of a [`PhysicalPlan`], mirroring the normalized expression.
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// A leaf with its chosen access path. `ix` numbers leaves
    /// left-to-right across the whole plan.
    Leaf {
        /// Position of this leaf in [`PhysicalPlan::leaves`] order.
        ix: usize,
        /// The compiled predicate (boxed: leaves dominate plan trees and
        /// the compiled state is much larger than the structural nodes).
        pred: Box<PreparedPred>,
        /// The chosen access path.
        path: AccessPath,
        /// Estimated matching-sequence cardinality, when the planner had
        /// statistics covering this predicate.
        est: Option<u64>,
    },
    /// Conjunction. `children` keeps the normalized operand order (which
    /// fixes how deviations accumulate); `exec_order` is the planner's
    /// evaluation order — cheap access paths first, ties broken by
    /// estimated cardinality — so later operands evaluate over narrowed
    /// candidates.
    And {
        /// Operands in normalized order.
        children: Vec<PlanNode>,
        /// Indices into `children` in evaluation order.
        exec_order: Vec<usize>,
    },
    /// Disjunction (operands evaluate independently).
    Or(Vec<PlanNode>),
    /// Complement within the enclosing candidate universe.
    Not(Box<PlanNode>),
    /// Canonical-order truncation (pipeline breaker).
    Limit(Box<PlanNode>, usize),
    /// Deviation-ranked truncation (pipeline breaker).
    TopK(Box<PlanNode>, usize),
}

/// An executable plan: the normalized expression with per-leaf access
/// paths, conjunction evaluation order, and an optional id-bounds hint.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    root: PlanNode,
    leaf_count: usize,
    id_bounds: Option<(u64, u64)>,
}

impl PhysicalPlan {
    /// The root node.
    pub fn root(&self) -> &PlanNode {
        &self.root
    }

    /// Number of leaves (leaf `ix` ranges over `0..leaf_count`).
    pub fn leaf_count(&self) -> usize {
        self.leaf_count
    }

    /// If `Some((lo, hi))`, every leaf may be evaluated over just the ids
    /// in `lo..=hi` without changing the outcome (derived from root-level
    /// conjunctive [`Pred::IdRange`] leaves; only emitted for plans free
    /// of `Limit`/`TopK`, whose operands must see the full universe).
    /// `lo > hi` means the result is provably empty.
    pub fn id_bounds(&self) -> Option<(u64, u64)> {
        self.id_bounds
    }

    /// The leaves in `ix` order.
    pub fn leaves(&self) -> Vec<&PlanNode> {
        fn collect<'p>(node: &'p PlanNode, out: &mut Vec<&'p PlanNode>) {
            match node {
                PlanNode::Leaf { .. } => out.push(node),
                PlanNode::And { children, .. } | PlanNode::Or(children) => {
                    children.iter().for_each(|c| collect(c, out));
                }
                PlanNode::Not(c) | PlanNode::Limit(c, _) | PlanNode::TopK(c, _) => {
                    collect(c, out);
                }
            }
        }
        let mut out = Vec::with_capacity(self.leaf_count);
        collect(&self.root, &mut out);
        out.sort_by_key(|n| match n {
            PlanNode::Leaf { ix, .. } => *ix,
            _ => unreachable!("collect only gathers leaves"),
        });
        out
    }

    /// A human-readable rendering of the plan tree.
    pub fn explain(&self) -> String {
        self.explain_with(None)
    }

    /// As [`PhysicalPlan::explain`], annotating each evaluated leaf's
    /// line with the cardinality execution actually observed:
    /// `~N (observed M)` (just `(observed M)` for leaves without an
    /// estimate). The REPL and `saqd` render explain through this after
    /// running the plan, so the estimate and reality sit side by side.
    pub fn explain_with(&self, observed: Option<&ExecStats>) -> String {
        fn describe(pred: &Pred) -> String {
            match pred {
                Pred::Feature(spec) => format!("{spec:?}"),
                Pred::ValueBand { delta, slack, .. } => {
                    format!("ValueBand {{ delta: {delta}, slack: {slack} }}")
                }
                Pred::IdRange { lo, hi } => format!("IdRange {lo}..={hi}"),
            }
        }
        fn go(node: &PlanNode, depth: usize, out: &mut String, observed: Option<&ExecStats>) {
            let pad = "  ".repeat(depth);
            match node {
                PlanNode::Leaf { ix, pred, path, est } => {
                    let seen = observed.and_then(|s| s.observed_for(*ix));
                    let est = match (est, seen) {
                        (Some(e), Some(m)) => format!(" ~{e} (observed {m})"),
                        (Some(e), None) => format!(" ~{e}"),
                        (None, Some(m)) => format!(" (observed {m})"),
                        (None, None) => String::new(),
                    };
                    let _ = writeln!(
                        out,
                        "{pad}#{ix} {} via {}{est}",
                        describe(pred.pred()),
                        path.label()
                    );
                }
                PlanNode::And { children, exec_order } => {
                    let _ = writeln!(out, "{pad}And (exec order {exec_order:?})");
                    children.iter().for_each(|c| go(c, depth + 1, out, observed));
                }
                PlanNode::Or(children) if children.iter().all(|c| cost_class(c) <= 1) => {
                    let _ = writeln!(out, "{pad}Or (index union)");
                    children.iter().for_each(|c| go(c, depth + 1, out, observed));
                }
                PlanNode::Or(children) => {
                    let _ = writeln!(out, "{pad}Or");
                    children.iter().for_each(|c| go(c, depth + 1, out, observed));
                }
                PlanNode::Not(c) => {
                    let _ = writeln!(out, "{pad}Not");
                    go(c, depth + 1, out, observed);
                }
                PlanNode::Limit(c, n) => {
                    let _ = writeln!(out, "{pad}Limit {n}");
                    go(c, depth + 1, out, observed);
                }
                PlanNode::TopK(c, k) => {
                    let _ = writeln!(out, "{pad}TopK {k}");
                    go(c, depth + 1, out, observed);
                }
            }
        }
        let mut out = String::new();
        if let Some((lo, hi)) = self.id_bounds {
            let _ = writeln!(out, "id bounds: {lo}..={hi}");
        }
        go(&self.root, 0, &mut out, observed);
        out
    }
}

/// Chooses access paths for a normalized [`QueryExpr`], producing a
/// [`PhysicalPlan`] for [`execute_plan`].
///
/// Conjunction evaluation order is cost-based: children are grouped by
/// access-path cost class (id filters, then index-served nodes — including
/// `Or`s whose operands are all index-grade, the *index-union* path — then
/// scans, then composites), and ordered **within** each class by the
/// cardinality estimates a [`PlanStats`] snapshot provides
/// ([`Planner::with_stats`]). Without statistics the planner falls back to
/// the static class order alone. Ordering never changes results — only how
/// fast candidate sets narrow.
///
/// ```
/// use saq_core::algebra::{IndexCaps, Planner, QueryExpr};
///
/// let expr = QueryExpr::shape("1+ (-1)+").and(QueryExpr::peak_count(1, 0));
/// let plan = Planner::new(IndexCaps::all()).plan(&expr).unwrap();
/// assert_eq!(plan.leaf_count(), 2);
/// assert!(plan.explain().contains("pattern-index"));
/// ```
#[derive(Debug, Clone)]
pub struct Planner {
    caps: IndexCaps,
    stats: Option<PlanStats>,
}

impl Planner {
    /// A statistics-free planner for a backend with the given index
    /// capabilities (conjunctions are ordered by access-path class only).
    pub fn new(caps: IndexCaps) -> Planner {
        Planner { caps, stats: None }
    }

    /// A planner with a statistics snapshot: leaves are annotated with
    /// cardinality estimates (shown as `~N` in
    /// [`PhysicalPlan::explain`]) and conjunctions are cost-ordered by
    /// them — most selective first within each access-path cost class.
    ///
    /// ```
    /// use saq_core::algebra::{IndexCaps, PlanStats, Planner, QueryExpr};
    /// use saq_core::store::SequenceStore;
    /// use saq_sequence::generators::{goalpost, GoalpostSpec};
    ///
    /// let mut store = SequenceStore::default();
    /// store.insert(&goalpost(GoalpostSpec::default())).unwrap();
    ///
    /// let planner = Planner::with_stats(IndexCaps::all(), PlanStats::from_snapshot(&store));
    /// let expr = QueryExpr::peak_count(2, 0).and(QueryExpr::min_steepness(0.1, 0.0));
    /// let explain = planner.plan(&expr).unwrap().explain();
    /// // The peak-count leaf carries its histogram estimate (one goalpost).
    /// assert!(explain.contains("~1"), "{explain}");
    /// ```
    pub fn with_stats(caps: IndexCaps, stats: PlanStats) -> Planner {
        Planner { caps, stats: Some(stats) }
    }

    /// Rewrites an expression into normal form: nested `And`/`Or` nodes
    /// are flattened (preserving operand order, so left-to-right deviation
    /// accumulation is unchanged) and single-operand `And`/`Or` unwrap.
    /// Double negation is **not** eliminated — `Not` flattens tiers (its
    /// result is all-exact), so `¬¬x` keeps `x`'s ids but deliberately
    /// forgets its deviations. Normalization is capability-independent, so
    /// every backend evaluates the same shape — which is what keeps
    /// accumulated deviations bit-identical across engines.
    pub fn normalize(expr: &QueryExpr) -> QueryExpr {
        match expr {
            QueryExpr::Leaf(p) => QueryExpr::Leaf(p.clone()),
            QueryExpr::And(children) => {
                let mut flat = Vec::with_capacity(children.len());
                for child in children {
                    match Planner::normalize(child) {
                        QueryExpr::And(inner) => flat.extend(inner),
                        other => flat.push(other),
                    }
                }
                if flat.len() == 1 {
                    flat.pop().expect("one element")
                } else {
                    QueryExpr::And(flat)
                }
            }
            QueryExpr::Or(children) => {
                let mut flat = Vec::with_capacity(children.len());
                for child in children {
                    match Planner::normalize(child) {
                        QueryExpr::Or(inner) => flat.extend(inner),
                        other => flat.push(other),
                    }
                }
                if flat.len() == 1 {
                    flat.pop().expect("one element")
                } else {
                    QueryExpr::Or(flat)
                }
            }
            QueryExpr::Not(child) => QueryExpr::Not(Box::new(Planner::normalize(child))),
            QueryExpr::Limit(child, n) => QueryExpr::Limit(Box::new(Planner::normalize(child)), *n),
            QueryExpr::TopK(child, k) => QueryExpr::TopK(Box::new(Planner::normalize(child)), *k),
        }
    }

    /// Normalizes, validates, compiles leaves, and assigns access paths.
    pub fn plan(&self, expr: &QueryExpr) -> Result<PhysicalPlan> {
        let norm = Planner::normalize(expr);
        let mut next_ix = 0;
        let root = self.plan_node(&norm, &mut next_ix)?;
        let id_bounds = if contains_pipeline_breaker(&norm) { None } else { root_id_bounds(&norm) };
        Ok(PhysicalPlan { root, leaf_count: next_ix, id_bounds })
    }

    fn plan_node(&self, expr: &QueryExpr, next_ix: &mut usize) -> Result<PlanNode> {
        match expr {
            QueryExpr::Leaf(pred) => {
                let prepared = PreparedPred::new(pred)?;
                let path = self.leaf_path(pred);
                let est = self.stats.as_ref().and_then(|s| s.estimate_leaf(&prepared));
                let ix = *next_ix;
                *next_ix += 1;
                Ok(PlanNode::Leaf { ix, pred: Box::new(prepared), path, est })
            }
            QueryExpr::And(children) => {
                if children.is_empty() {
                    return Err(Error::BadConfig("`And` needs at least one operand".into()));
                }
                let planned: Vec<PlanNode> =
                    children.iter().map(|c| self.plan_node(c, next_ix)).collect::<Result<_>>()?;
                let universe = self.stats.as_ref().map(|s| s.universe);
                let exec_order = conjunct_order(
                    planned.iter().map(|node| (cost_class(node), estimate_node(node, universe))),
                );
                Ok(PlanNode::And { children: planned, exec_order })
            }
            QueryExpr::Or(children) => {
                if children.is_empty() {
                    return Err(Error::BadConfig("`Or` needs at least one operand".into()));
                }
                let planned =
                    children.iter().map(|c| self.plan_node(c, next_ix)).collect::<Result<_>>()?;
                Ok(PlanNode::Or(planned))
            }
            QueryExpr::Not(child) => Ok(PlanNode::Not(Box::new(self.plan_node(child, next_ix)?))),
            QueryExpr::Limit(child, n) => {
                Ok(PlanNode::Limit(Box::new(self.plan_node(child, next_ix)?), *n))
            }
            QueryExpr::TopK(child, k) => {
                Ok(PlanNode::TopK(Box::new(self.plan_node(child, next_ix)?), *k))
            }
        }
    }

    fn leaf_path(&self, pred: &Pred) -> AccessPath {
        match pred {
            Pred::IdRange { .. } => AccessPath::IdFilter,
            Pred::Feature(QuerySpec::Shape { .. }) if self.caps.pattern => AccessPath::PatternIndex,
            Pred::Feature(QuerySpec::PeakInterval { .. }) if self.caps.interval => {
                AccessPath::IntervalIndex
            }
            _ => AccessPath::Scan,
        }
    }
}

/// The conjunct-ordering rule, for the planner's `And` nodes and for the
/// sharded engine's wave slots alike: given each conjunct's
/// `(cost class, estimated cardinality)` in declaration order, returns
/// the indices in evaluation order — cheap access paths first; within a
/// class, the smallest estimated result first (unknown estimates last),
/// so every later conjunct sees the tightest candidates we can prove;
/// ties keep declaration order.
pub fn conjunct_order(conjuncts: impl IntoIterator<Item = (usize, Option<u64>)>) -> Vec<usize> {
    let keys: Vec<(usize, u64)> =
        conjuncts.into_iter().map(|(class, est)| (class, est.unwrap_or(u64::MAX))).collect();
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&i| keys[i]);
    order
}

/// Evaluation cost class inside a conjunction: cheap access paths first so
/// the expensive ones see narrowed candidates. An `Or` whose operands are
/// all index-grade is itself index-grade — the *index-union* path: the
/// whole disjunction is answered by unioning index lookups, so it runs
/// with the index leaves instead of waiting (and instead of its operands
/// being evaluated over a wide candidate set).
fn cost_class(node: &PlanNode) -> usize {
    match node {
        PlanNode::Leaf { path, .. } => path.cost_class(),
        PlanNode::Or(children) if children.iter().all(|c| cost_class(c) <= 1) => 1,
        PlanNode::And { .. } | PlanNode::Or(_) => 3,
        PlanNode::Not(_) => 4,
        PlanNode::Limit(..) | PlanNode::TopK(..) => 5,
    }
}

/// Estimated result cardinality of a plan subtree, from the leaves'
/// statistics annotations: conjunctions take the tightest child bound,
/// disjunctions sum (capped by the universe), negations complement, and
/// the truncating nodes cap at `n`. `None` when nothing is known.
fn estimate_node(node: &PlanNode, universe: Option<u64>) -> Option<u64> {
    match node {
        PlanNode::Leaf { est, .. } => *est,
        PlanNode::And { children, .. } => {
            children.iter().filter_map(|c| estimate_node(c, universe)).min()
        }
        PlanNode::Or(children) => {
            let mut sum: u64 = 0;
            for child in children {
                sum = sum.saturating_add(estimate_node(child, universe)?);
            }
            Some(universe.map_or(sum, |u| sum.min(u)))
        }
        PlanNode::Not(child) => Some(universe?.saturating_sub(estimate_node(child, universe)?)),
        PlanNode::Limit(child, n) | PlanNode::TopK(child, n) => {
            Some(estimate_node(child, universe).map_or(*n as u64, |e| e.min(*n as u64)))
        }
    }
}

/// Whether the expression contains a conjunction with two or more
/// operands — the only shape whose plan changes under cardinality
/// estimates, and therefore the only one worth a statistics snapshot.
fn has_wide_and(expr: &QueryExpr) -> bool {
    match expr {
        QueryExpr::Leaf(_) => false,
        QueryExpr::And(children) => children.len() >= 2 || children.iter().any(has_wide_and),
        QueryExpr::Or(children) => children.iter().any(has_wide_and),
        QueryExpr::Not(c) | QueryExpr::Limit(c, _) | QueryExpr::TopK(c, _) => has_wide_and(c),
    }
}

/// Whether `expr` holds a `Limit` or `TopK`: the only operators whose
/// answer for one id depends on the other ids.
pub(crate) fn contains_pipeline_breaker(expr: &QueryExpr) -> bool {
    match expr {
        QueryExpr::Leaf(_) => false,
        QueryExpr::And(cs) | QueryExpr::Or(cs) => cs.iter().any(contains_pipeline_breaker),
        QueryExpr::Not(c) => contains_pipeline_breaker(c),
        QueryExpr::Limit(..) | QueryExpr::TopK(..) => true,
    }
}

/// Intersection of the root-level conjunctive id-range leaves, if any.
fn root_id_bounds(norm: &QueryExpr) -> Option<(u64, u64)> {
    let conjuncts: &[QueryExpr] = match norm {
        QueryExpr::And(children) => children,
        leaf @ QueryExpr::Leaf(Pred::IdRange { .. }) => std::slice::from_ref(leaf),
        _ => return None,
    };
    let mut bounds: Option<(u64, u64)> = None;
    for c in conjuncts {
        if let QueryExpr::Leaf(Pred::IdRange { lo, hi }) = c {
            bounds = Some(match bounds {
                None => (*lo, *hi),
                Some((blo, bhi)) => ((*lo).max(blo), (*hi).min(bhi)),
            });
        }
    }
    bounds
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Counters of one plan execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Size of the candidate universe the plan ran over.
    pub universe: u64,
    /// Number of (leaf, entry) predicate evaluations that touched a
    /// materialized entry — the "full-sequence scans" the planner's index
    /// pushdown exists to avoid.
    pub entries_scanned: u64,
    /// Leaf evaluations served by an index (pattern, interval, id filter).
    pub index_leaves: u64,
    /// Leaf evaluations that fell back to scanning entries.
    pub scan_leaves: u64,
    /// Per-leaf observed cardinalities, indexed by leaf `ix`: how many
    /// ids the leaf's [`MatchSet`] held (restricted to the candidates it
    /// was evaluated over). `None` for leaves a short-circuited
    /// conjunction never evaluated. Feeds the `~N (observed M)` explain
    /// annotation.
    pub observed: Vec<Option<u64>>,
}

impl ExecStats {
    /// Records leaf `ix`'s observed cardinality (the last evaluation of a
    /// leaf wins), growing the vector on demand.
    pub fn record_observed(&mut self, ix: usize, count: u64) {
        if self.observed.len() <= ix {
            self.observed.resize(ix + 1, None);
        }
        self.observed[ix] = Some(count);
    }

    /// The observed cardinality of leaf `ix`, when it was evaluated.
    pub fn observed_for(&self, ix: usize) -> Option<u64> {
        self.observed.get(ix).copied().flatten()
    }
}

/// Data access abstraction behind [`execute_plan`]: a backend supplies the
/// candidate universe and evaluates single leaves, while the shared
/// executor owns all composition semantics.
pub trait LeafSource {
    /// The sorted id universe of this backend.
    fn universe(&mut self) -> Result<Vec<u64>>;

    /// Evaluates leaf `ix` over `candidates` (`None` = whole universe).
    /// Implementations must return a subset of the candidates.
    fn eval_leaf(
        &mut self,
        ix: usize,
        pred: &PreparedPred,
        path: AccessPath,
        candidates: Option<&[u64]>,
        stats: &mut ExecStats,
    ) -> Result<MatchSet>;
}

/// Executes a plan against a backend. This is the single composition
/// engine every backend shares: conjunctions narrow candidates in the
/// planner's `exec_order` but accumulate deviations in normalized operand
/// order, disjunctions union, negation complements within the enclosing
/// candidates, and `Limit`/`TopK` evaluate their operand unrestricted.
pub fn execute_plan<S: LeafSource>(
    plan: &PhysicalPlan,
    source: &mut S,
) -> Result<(QueryOutcome, ExecStats)> {
    let universe = source.universe()?;
    let mut stats = ExecStats {
        universe: universe.len() as u64,
        observed: vec![None; plan.leaf_count()],
        ..ExecStats::default()
    };
    let set = exec_node(plan.root(), source, &universe, None, &mut stats)?;
    Ok((set.into_outcome(), stats))
}

fn exec_node<S: LeafSource>(
    node: &PlanNode,
    source: &mut S,
    universe: &[u64],
    candidates: Option<&[u64]>,
    stats: &mut ExecStats,
) -> Result<MatchSet> {
    match node {
        PlanNode::Leaf { ix, pred, path, .. } => {
            let set = source.eval_leaf(*ix, pred, *path, candidates, stats)?;
            stats.record_observed(*ix, set.len() as u64);
            Ok(set)
        }
        PlanNode::And { children, exec_order } => {
            let mut results: Vec<Option<MatchSet>> = vec![None; children.len()];
            let mut narrowed: Option<Vec<u64>> = candidates.map(<[u64]>::to_vec);
            for &i in exec_order {
                let r = exec_node(&children[i], source, universe, narrowed.as_deref(), stats)?;
                let empty = r.is_empty();
                narrowed = Some(r.ids());
                results[i] = Some(r);
                if empty {
                    break;
                }
            }
            // A short-circuited conjunction is empty by definition.
            if results.iter().any(Option::is_none) {
                return Ok(MatchSet::new());
            }
            let mut it = results.into_iter().map(|r| r.expect("all children evaluated"));
            let first = it.next().expect("`And` has operands");
            Ok(it.fold(first, |acc, r| acc.and(&r)))
        }
        PlanNode::Or(children) => {
            let mut acc = MatchSet::new();
            for child in children {
                acc = acc.or(exec_node(child, source, universe, candidates, stats)?);
            }
            Ok(acc)
        }
        PlanNode::Not(child) => {
            let base = candidates.unwrap_or(universe);
            let matched = exec_node(child, source, universe, Some(base), stats)?;
            Ok(matched.complement_within(base))
        }
        PlanNode::Limit(child, n) => {
            let full = exec_node(child, source, universe, None, stats)?.truncate_first(*n);
            Ok(match candidates {
                Some(c) => full.restrict(c),
                None => full,
            })
        }
        PlanNode::TopK(child, k) => {
            let full = exec_node(child, source, universe, None, stats)?.truncate_top_k(*k);
            Ok(match candidates {
                Some(c) => full.restrict(c),
                None => full,
            })
        }
    }
}

// ---------------------------------------------------------------------------
// The engine trait
// ---------------------------------------------------------------------------

/// A query engine: answers [`QueryRequest`]s over some backing store.
/// Implemented by [`StoreEngine`] and [`StoreSnapshot`] (sequential, index
/// pushdown over a [`SequenceStore`]), `saq_archive::ArchiveScanEngine`
/// (sequential over the raw archive), `saq_engine::QueryEngine::bind`
/// (sharded parallel over the raw archive), and `saq_server::RemoteEngine`
/// (a `saqd` over TCP). All implementations return identical outcomes
/// for the same data, with one precondition: [`Pred::ValueBand`] leaves
/// need raw samples, and a [`SequenceStore`] built with `keep_raw: false`
/// retains none — its band leaves match nothing, while the archive-backed
/// engines (whose entries always share the archive's raw samples) still
/// match. Keep raw retention on (the default) wherever band leaves must
/// agree across engines.
pub trait QueryEngine {
    /// Answers one [`QueryRequest`] — SAQL text or a built expression,
    /// optionally pinned to a snapshot, with stats and explain on demand.
    /// The local engines capture one snapshot up front and hand it to the
    /// shared pipeline of [`crate::request`], so the pin check, the plan,
    /// and every leaf evaluation read the same generation.
    ///
    /// ```
    /// use saq_core::algebra::{QueryEngine as _, StoreEngine};
    /// use saq_core::request::QueryRequest;
    /// use saq_core::store::SequenceStore;
    /// use saq_sequence::generators::{goalpost, GoalpostSpec};
    ///
    /// let mut store = SequenceStore::default();
    /// let id = store.insert(&goalpost(GoalpostSpec::default())).unwrap();
    /// let resp = StoreEngine::new(&store)
    ///     .request(&QueryRequest::saql("peaks = 2 and interval = 10 tol 3").with_stats())
    ///     .unwrap();
    /// assert_eq!(resp.outcome.exact, vec![id]);
    /// assert!(resp.stats.unwrap().universe >= 1);
    /// ```
    fn request(&self, req: &QueryRequest) -> Result<QueryResponse>;

    /// Executes a built expression.
    fn execute(&self, expr: &QueryExpr) -> Result<QueryOutcome> {
        Ok(self.request(&QueryRequest::expr(expr.clone()))?.outcome)
    }

    /// Executes a built expression, returning the outcome and execution
    /// counters.
    fn execute_with_stats(&self, expr: &QueryExpr) -> Result<(QueryOutcome, ExecStats)> {
        let resp = self.request(&QueryRequest::expr(expr.clone()).with_stats())?;
        let stats = resp
            .stats
            .ok_or_else(|| Error::Protocol("reply is missing the requested stats".into()))?;
        Ok((resp.outcome, stats))
    }
}

// ---------------------------------------------------------------------------
// The sequential store engine
// ---------------------------------------------------------------------------

/// The sequential, planner-backed engine over a [`SequenceStore`]: shape
/// leaves are served by the slope-pattern index, peak-interval leaves by
/// the inverted interval file (without touching any entry), id ranges by
/// id arithmetic, and only the remaining leaves scan entries — over
/// candidates narrowed by the leaves that ran before them. Conjunctions
/// with something to order are cost-ordered by the store's cardinality
/// estimates.
///
/// ```
/// use saq_core::algebra::{QueryEngine, QueryExpr, StoreEngine};
/// use saq_core::store::SequenceStore;
/// use saq_sequence::generators::{goalpost, GoalpostSpec};
///
/// let mut store = SequenceStore::default();
/// let id = store.insert(&goalpost(GoalpostSpec::default())).unwrap();
/// let engine = StoreEngine::new(&store);
/// let outcome = engine.execute(&QueryExpr::peak_count(2, 0)).unwrap();
/// assert_eq!(outcome.exact, vec![id]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StoreEngine<'a> {
    store: &'a SequenceStore,
}

impl<'a> StoreEngine<'a> {
    /// An engine over `store`.
    pub fn new(store: &'a SequenceStore) -> StoreEngine<'a> {
        StoreEngine { store }
    }

    /// The plan a request for `expr` would run (over a snapshot taken
    /// now).
    pub fn plan(&self, expr: &QueryExpr) -> Result<PhysicalPlan> {
        snapshot_planner(expr, &self.store.snapshot()).plan(expr)
    }

    /// Executes a previously built plan (over a snapshot taken now) —
    /// e.g. one from a [`Planner`] with fewer capabilities or no
    /// statistics, to measure against the engine's own choice.
    pub fn run_plan(&self, plan: &PhysicalPlan) -> Result<(QueryOutcome, ExecStats)> {
        let snap = self.store.snapshot();
        execute_plan(plan, &mut SnapshotSource { snap: &snap })
    }
}

/// Every index capability; statistics are snapshotted (O(store size))
/// only when the expression contains a multi-operand conjunction — the
/// one place estimates change the plan.
fn snapshot_planner(expr: &QueryExpr, snap: &StoreSnapshot) -> Planner {
    if has_wide_and(expr) {
        Planner::with_stats(IndexCaps::all(), PlanStats::from_snapshot(snap))
    } else {
        Planner::new(IndexCaps::all())
    }
}

impl QueryEngine for StoreEngine<'_> {
    fn request(&self, req: &QueryRequest) -> Result<QueryResponse> {
        self.store.snapshot().request(req)
    }
}

/// A pinned snapshot is itself a full engine: planning and leaf
/// evaluation both read the snapshot's generation, which makes it the
/// natural engine for concurrent readers — take a snapshot, query it any
/// number of times, drop it.
impl QueryEngine for StoreSnapshot {
    fn request(&self, req: &QueryRequest) -> Result<QueryResponse> {
        let current = SnapshotRef::new(self.instance_id(), self.generation());
        let planner = |expr: &QueryExpr| snapshot_planner(expr, self);
        request::answer(req, current, planner, &mut SnapshotSource { snap: self })
    }
}

struct SnapshotSource<'a> {
    snap: &'a StoreSnapshot,
}

impl LeafSource for SnapshotSource<'_> {
    fn universe(&mut self) -> Result<Vec<u64>> {
        Ok(self.snap.ids())
    }

    fn eval_leaf(
        &mut self,
        _ix: usize,
        pred: &PreparedPred,
        path: AccessPath,
        candidates: Option<&[u64]>,
        stats: &mut ExecStats,
    ) -> Result<MatchSet> {
        match path {
            AccessPath::IdFilter => {
                stats.index_leaves += 1;
                let Pred::IdRange { lo, hi } = *pred.pred() else {
                    return Err(Error::BadConfig("id-filter path on a non-id-range leaf".into()));
                };
                let ids = match candidates {
                    Some(c) => c.to_vec(),
                    None => self.snap.ids(),
                };
                Ok(MatchSet::from_exact(ids.into_iter().filter(|id| (lo..=hi).contains(id))))
            }
            AccessPath::PatternIndex => {
                stats.index_leaves += 1;
                let dfa = pred.dfa().ok_or_else(|| {
                    Error::BadConfig("pattern-index path on a non-shape leaf".into())
                })?;
                let hits = match candidates {
                    Some(c) => self.snap.pattern_index().full_matches_among(dfa, c),
                    None => {
                        let regex = pred.regex().expect("shape leaf holds its regex");
                        let mut v = self.snap.pattern_index().full_matches(regex);
                        v.sort_unstable();
                        v
                    }
                };
                Ok(MatchSet::from_exact(hits))
            }
            AccessPath::IntervalIndex => {
                stats.index_leaves += 1;
                let Pred::Feature(QuerySpec::PeakInterval { interval, epsilon }) = *pred.pred()
                else {
                    return Err(Error::BadConfig(
                        "interval-index path on a non-interval leaf".into(),
                    ));
                };
                let set = interval_index_match_set(self.snap.interval_index(), interval, epsilon);
                Ok(match candidates {
                    Some(c) => set.restrict(c),
                    None => set,
                })
            }
            AccessPath::Scan => {
                stats.scan_leaves += 1;
                let ids = match candidates {
                    Some(c) => c.to_vec(),
                    None => self.snap.ids(),
                };
                let mut set = MatchSet::new();
                for id in ids {
                    let entry = self.snap.get(id)?;
                    stats.entries_scanned += 1;
                    if let Some(m) = pred.matches(id, Some(entry)) {
                        set.insert(id, MatchTier::from_match(m));
                    }
                }
                Ok(set)
            }
        }
    }
}

/// Serves a peak-interval leaf entirely from an inverted interval file:
/// postings arrive sorted by `(sequence, position)`, so the first posting
/// of a sequence is its first in-band interval, and any posting at the
/// exact key makes the match exact — precisely
/// [`PreparedPred::matches`]'s interval semantics, without
/// touching any stored entry.
fn interval_index_match_set(
    index: &saq_index::InvertedIndex,
    interval: i64,
    epsilon: i64,
) -> MatchSet {
    let mut set = MatchSet::new();
    let mut current: Option<(u64, u64, bool)> = None;
    for (key, posting) in index.range_with_keys(interval, epsilon) {
        let dev = key.abs_diff(interval);
        match &mut current {
            Some((id, _, exact)) if *id == posting.sequence => {
                *exact |= dev == 0;
            }
            _ => {
                if let Some(done) = current.take() {
                    set.insert(done.0, interval_tier(done));
                }
                current = Some((posting.sequence, dev, dev == 0));
            }
        }
    }
    if let Some(done) = current.take() {
        set.insert(done.0, interval_tier(done));
    }
    set
}

/// Tier of one sequence's interval-index result: `(id, first in-band
/// deviation, any exact hit)`.
fn interval_tier((_, first_dev, exact): (u64, u64, bool)) -> MatchTier {
    if exact {
        MatchTier::exact()
    } else {
        MatchTier { deviation: first_dev as f64, approximate: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use saq_sequence::generators::{goalpost, peaks, GoalpostSpec, PeaksSpec};

    /// One 1-peak, two 2-peak (goalpost), one 3-peak sequence.
    fn corpus() -> (SequenceStore, Vec<u64>) {
        let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
        let mut ids = Vec::new();
        let one = peaks(PeaksSpec { centers: vec![12.0], ..PeaksSpec::default() });
        let two_a = goalpost(GoalpostSpec::default());
        let two_b = goalpost(GoalpostSpec { peak1: 6.0, peak2: 16.0, ..GoalpostSpec::default() });
        let three = peaks(PeaksSpec { centers: vec![4.0, 12.0, 20.0], ..PeaksSpec::default() });
        for s in [&one, &two_a, &two_b, &three] {
            ids.push(store.insert(s).unwrap());
        }
        (store, ids)
    }

    const GOALPOST: &str = "0* 1+ (-1)+ 0* 1+ (-1)+ 0*";

    #[test]
    fn conjunct_order_sorts_by_class_then_estimate_and_keeps_ties() {
        let (id, index, scan) = (
            AccessPath::IdFilter.cost_class(),
            AccessPath::PatternIndex.cost_class(),
            AccessPath::Scan.cost_class(),
        );
        assert_eq!(index, AccessPath::IntervalIndex.cost_class());
        // Class before estimate: a scan estimated at 0 still runs after an
        // index leaf estimated at 900 and an id filter with no estimate.
        assert_eq!(conjunct_order([(scan, Some(0)), (index, Some(900)), (id, None)]), [2, 1, 0]);
        // Within a class the smallest estimate first, unknown ones last.
        assert_eq!(conjunct_order([(scan, None), (scan, Some(7)), (scan, Some(3))]), [2, 1, 0]);
        // Ties — equal estimates, or none at all — keep declaration order.
        assert_eq!(conjunct_order([(scan, Some(5)), (scan, Some(5)), (id, Some(5))]), [2, 0, 1]);
        assert_eq!(conjunct_order([(scan, None), (scan, None), (scan, None)]), [0, 1, 2]);
        assert!(conjunct_order([]).is_empty());
    }

    #[test]
    fn normalize_flattens_but_keeps_double_negation() {
        let expr = QueryExpr::peak_count(1, 0)
            .and(QueryExpr::peak_count(2, 0).and(QueryExpr::peak_count(3, 0)))
            .and(QueryExpr::peak_count(4, 0).negate().negate());
        let norm = Planner::normalize(&expr);
        match norm {
            QueryExpr::And(children) => {
                assert_eq!(children.len(), 4);
                assert_eq!(
                    children.iter().filter(|c| matches!(c, QueryExpr::Leaf(_))).count(),
                    3,
                    "the double negation must survive (`Not` flattens tiers): {children:?}"
                );
                assert!(
                    matches!(&children[3], QueryExpr::Not(inner) if matches!(**inner, QueryExpr::Not(_)))
                );
            }
            other => panic!("expected flat And, got {other:?}"),
        }
        // Single-operand composites unwrap.
        let single = Planner::normalize(&QueryExpr::And(vec![QueryExpr::peak_count(1, 0)]));
        assert!(matches!(single, QueryExpr::Leaf(_)));
    }

    #[test]
    fn double_negation_keeps_ids_but_flattens_tiers() {
        let (store, ids) = corpus();
        let expr = QueryExpr::peak_count(2, 1);
        let plain = StoreEngine::new(&store).execute(&expr.clone()).unwrap();
        let double = StoreEngine::new(&store).execute(&expr.negate().negate()).unwrap();
        assert_eq!(double.exact, ids, "¬¬x keeps x's ids, all exact");
        assert!(double.approximate.is_empty());
        assert!(!plain.approximate.is_empty(), "x itself has approximate tiers");
    }

    #[test]
    fn planner_assigns_paths_by_capability() {
        let expr = QueryExpr::shape(GOALPOST)
            .and(QueryExpr::peak_interval(8, 2))
            .and(QueryExpr::peak_count(2, 0))
            .and(QueryExpr::id_range(0, 10));
        let indexed = Planner::new(IndexCaps::all()).plan(&expr).unwrap();
        let explain = indexed.explain();
        assert!(explain.contains("pattern-index"), "{explain}");
        assert!(explain.contains("interval-index"), "{explain}");
        assert!(explain.contains("id-filter"), "{explain}");
        assert!(explain.contains("via scan"), "{explain}");
        assert_eq!(indexed.leaf_count(), 4);
        assert_eq!(indexed.id_bounds(), Some((0, 10)));

        let scanned = Planner::new(IndexCaps::none()).plan(&expr).unwrap();
        assert!(!scanned.explain().contains("pattern-index"));
        assert!(!scanned.explain().contains("interval-index"));
        // Id filters stay index-grade even without indexes.
        assert!(scanned.explain().contains("id-filter"));
    }

    #[test]
    fn exec_order_puts_indexes_before_scans() {
        let expr = QueryExpr::peak_count(2, 0)
            .and(QueryExpr::shape(GOALPOST))
            .and(QueryExpr::id_range(0, 100));
        let plan = Planner::new(IndexCaps::all()).plan(&expr).unwrap();
        match plan.root() {
            PlanNode::And { exec_order, .. } => {
                // id filter (leaf 2) first, pattern index (leaf 1) next,
                // the scan leaf (leaf 0) last.
                assert_eq!(exec_order, &vec![2, 1, 0]);
            }
            other => panic!("expected And root, got {other:?}"),
        }
    }

    #[test]
    fn stats_order_scan_leaves_by_estimated_selectivity() {
        // A skewed ward: many single-peak logs, few goalposts.
        let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
        for i in 0..12u64 {
            let seq = if i % 6 == 0 {
                goalpost(GoalpostSpec { seed: i, ..GoalpostSpec::default() })
            } else {
                peaks(PeaksSpec { centers: vec![12.0], seed: i, ..PeaksSpec::default() })
            };
            store.insert(&seq).unwrap();
        }
        // Declaration order is pessimal: the unselective steepness leaf
        // (no statistics) first, the selective peak-count leaf second.
        let expr = QueryExpr::min_steepness(0.05, 0.0).and(QueryExpr::peak_count(2, 0));

        let stat_free = Planner::new(IndexCaps::all()).plan(&expr).unwrap();
        match stat_free.root() {
            PlanNode::And { exec_order, .. } => assert_eq!(exec_order, &vec![0, 1]),
            other => panic!("expected And root, got {other:?}"),
        }

        let engine = StoreEngine::new(&store);
        let informed = engine.plan(&expr).unwrap();
        match informed.root() {
            PlanNode::And { children, exec_order } => {
                assert_eq!(exec_order, &vec![1, 0], "peak-count estimate flips the order");
                match &children[1] {
                    PlanNode::Leaf { est, .. } => assert_eq!(*est, Some(2)),
                    other => panic!("expected leaf, got {other:?}"),
                }
            }
            other => panic!("expected And root, got {other:?}"),
        }
        assert!(informed.explain().contains("via scan ~2"), "{}", informed.explain());

        // The flipped order scans fewer entries and returns the same ids.
        let (cost_out, cost_stats) = engine.execute_with_stats(&expr).unwrap();
        let (static_out, static_stats) = engine.run_plan(&stat_free).unwrap();
        assert_eq!(cost_out, static_out);
        assert!(
            cost_stats.entries_scanned < static_stats.entries_scanned,
            "cost {cost_stats:?} vs static {static_stats:?}"
        );
    }

    #[test]
    fn leaf_estimates_cover_every_statistic() {
        let (store, ids) = corpus();
        let stats = PlanStats::from_snapshot(&store);
        let est = |expr: &QueryExpr| {
            let QueryExpr::Leaf(pred) = expr else { panic!("leaf expected") };
            stats.estimate_leaf(&PreparedPred::new(pred).unwrap())
        };
        // Two goalposts out of four sequences.
        assert_eq!(est(&QueryExpr::peak_count(2, 0)), Some(2));
        assert_eq!(est(&QueryExpr::peak_count(0, 9)), Some(4));
        // Shape estimate is an upper bound from symbol statistics.
        let shape = est(&QueryExpr::shape(GOALPOST)).unwrap();
        assert!((2..=4).contains(&shape), "{shape}");
        // Interval estimate comes from the histogram.
        assert!(est(&QueryExpr::peak_interval(8, 2)).unwrap() >= 1);
        assert_eq!(est(&QueryExpr::peak_interval(999, 0)), Some(0));
        // Id ranges interpolate over the span.
        assert_eq!(est(&QueryExpr::id_range(ids[0], ids[3])), Some(4));
        assert_eq!(est(&QueryExpr::id_range(500, 900)), Some(0));
        // No statistic covers steepness or value bands.
        assert_eq!(est(&QueryExpr::min_steepness(1.0, 0.0)), None);
        // An empty store estimates nothing (no id span).
        let empty = PlanStats::from_snapshot(&SequenceStore::default());
        assert_eq!(empty.universe, 0);
        assert_eq!(
            empty.estimate_leaf(&PreparedPred::new(&Pred::IdRange { lo: 0, hi: 9 }).unwrap()),
            None
        );
    }

    #[test]
    fn or_of_indexable_leaves_takes_the_index_union_path() {
        let (store, _) = corpus();
        // (shape OR interval) AND steepness-scan: the disjunction is pure
        // index work, so it must run before the scan leaf and the scan
        // leaf must only see the union's survivors.
        let union = QueryExpr::shape(GOALPOST).or(QueryExpr::peak_interval(8, 1));
        let expr = QueryExpr::min_steepness(0.05, 0.0).and(union.clone());
        let engine = StoreEngine::new(&store);
        let plan = engine.plan(&expr).unwrap();
        assert!(plan.explain().contains("Or (index union)"), "{}", plan.explain());
        match plan.root() {
            PlanNode::And { exec_order, .. } => {
                assert_eq!(exec_order, &vec![1, 0], "index union runs before the scan leaf");
            }
            other => panic!("expected And root, got {other:?}"),
        }
        let (out, stats) = engine.execute_with_stats(&expr).unwrap();
        let union_size = engine.execute(&union).unwrap().all_ids().len();
        assert_eq!(
            stats.entries_scanned, union_size as u64,
            "scan leaf saw only the union's candidates"
        );
        // A mixed Or (scan operand) is not index-grade.
        let mixed = QueryExpr::shape(GOALPOST).or(QueryExpr::min_steepness(0.1, 0.0));
        let mixed_plan = engine.plan(&QueryExpr::peak_count(2, 0).and(mixed)).unwrap();
        assert!(!mixed_plan.explain().contains("index union"), "{}", mixed_plan.explain());
        // Identical results to the scan-only baseline.
        let scan_only = Planner::new(IndexCaps::none()).plan(&expr).unwrap();
        assert_eq!(out, engine.run_plan(&scan_only).unwrap().0);
    }

    #[test]
    fn id_bounds_require_breaker_free_plans() {
        let bounded = QueryExpr::id_range(5, 20).and(QueryExpr::peak_count(2, 0));
        assert_eq!(
            Planner::new(IndexCaps::all()).plan(&bounded).unwrap().id_bounds(),
            Some((5, 20))
        );
        let broken = bounded.clone().limit(3);
        assert_eq!(Planner::new(IndexCaps::all()).plan(&broken).unwrap().id_bounds(), None);
        let two = QueryExpr::id_range(5, 20).and(QueryExpr::id_range(10, 30));
        assert_eq!(Planner::new(IndexCaps::all()).plan(&two).unwrap().id_bounds(), Some((10, 20)));
    }

    #[test]
    fn and_intersects_and_sums_deviations() {
        let (store, ids) = corpus();
        // peaks=2 tol 1 AND interval=8 tol 1: the 3-peak sequence matches
        // both, deviating by 1 in count and 0 in interval.
        let expr = QueryExpr::peak_count(2, 1).and(QueryExpr::peak_interval(8, 1));
        let out = StoreEngine::new(&store).execute(&expr).unwrap();
        let m = out.approximate.iter().find(|m| m.id == ids[3]).expect("3-peak approx");
        assert_eq!(m.deviation, 1.0);
        assert!(!out.exact.contains(&ids[0]), "1-peak has no interval");
    }

    #[test]
    fn or_keeps_best_tier() {
        let (store, ids) = corpus();
        // 1 peak exactly OR 2 peaks ± 1: the single-peak sequence is exact
        // via the left operand even though the right matches approximately.
        let expr = QueryExpr::peak_count(1, 0).or(QueryExpr::peak_count(2, 1));
        let out = StoreEngine::new(&store).execute(&expr).unwrap();
        assert!(out.exact.contains(&ids[0]));
        assert!(out.exact.contains(&ids[1]));
        assert!(!out.approximate.iter().any(|m| m.id == ids[0]));
    }

    #[test]
    fn not_excludes_approximate_matches_too() {
        let (store, ids) = corpus();
        let expr = QueryExpr::peak_count(2, 1).negate();
        let out = StoreEngine::new(&store).execute(&expr).unwrap();
        // Everything matches peaks=2 tol 1 here, so the complement is empty.
        assert!(out.exact.is_empty(), "{out:?}");
        let strict = QueryExpr::peak_count(2, 0).negate();
        let out = StoreEngine::new(&store).execute(&strict).unwrap();
        assert_eq!(out.exact, vec![ids[0], ids[3]]);
        assert!(out.approximate.is_empty());
    }

    #[test]
    fn limit_and_top_k_truncate() {
        let (store, ids) = corpus();
        let all = QueryExpr::peak_count(2, 1);
        let limited = StoreEngine::new(&store).execute(&all.clone().limit(2)).unwrap();
        // Canonical order: the two exact goalposts come first.
        assert_eq!(limited.exact, vec![ids[1], ids[2]]);
        assert!(limited.approximate.is_empty());
        let top3 = StoreEngine::new(&store).execute(&all.top_k(3)).unwrap();
        assert_eq!(top3.exact.len() + top3.approximate.len(), 3);
        assert_eq!(top3.exact, vec![ids[1], ids[2]]);
    }

    #[test]
    fn id_range_restricts_and_stays_index_grade() {
        let (store, ids) = corpus();
        let expr = QueryExpr::peak_count(2, 0).and(QueryExpr::id_range(ids[2], u64::MAX));
        let (out, stats) = StoreEngine::new(&store).execute_with_stats(&expr).unwrap();
        assert_eq!(out.exact, vec![ids[2]]);
        // The scan leaf only saw the two candidates past ids[2].
        assert_eq!(stats.entries_scanned, 2);
    }

    #[test]
    fn index_pushdown_scans_fewer_entries() {
        let (store, _) = corpus();
        let expr = QueryExpr::shape(GOALPOST).and(QueryExpr::peak_count(2, 0));
        let engine = StoreEngine::new(&store);
        let (indexed_out, indexed) = engine.execute_with_stats(&expr).unwrap();
        let scan_only = Planner::new(IndexCaps::none()).plan(&expr).unwrap();
        let (scanned_out, scanned) = engine.run_plan(&scan_only).unwrap();
        assert_eq!(indexed_out, scanned_out, "pushdown must not change results");
        assert!(
            indexed.entries_scanned < scanned.entries_scanned,
            "indexed {indexed:?} vs scanned {scanned:?}"
        );
        assert_eq!(indexed.index_leaves, 1);
        assert_eq!(scanned.index_leaves, 0);
    }

    #[test]
    fn interval_leaf_needs_no_entries() {
        let (store, ids) = corpus();
        let engine = StoreEngine::new(&store);
        let expr = QueryExpr::peak_interval(8, 2);
        let (out, stats) = engine.execute_with_stats(&expr).unwrap();
        assert!(out.all_ids().contains(&ids[3]), "{out:?}");
        assert_eq!(stats.entries_scanned, 0);
        // And it agrees with the scan path exactly.
        let scan_only = Planner::new(IndexCaps::none()).plan(&expr).unwrap();
        assert_eq!(out, engine.run_plan(&scan_only).unwrap().0);
    }

    #[test]
    fn value_band_leaf_matches_fig1_semantics() {
        let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
        let center = goalpost(GoalpostSpec::default());
        let a = store.insert(&center).unwrap();
        let b = store
            .insert(&goalpost(GoalpostSpec { baseline: 98.7, ..GoalpostSpec::default() }))
            .unwrap();
        let out =
            StoreEngine::new(&store).execute(&QueryExpr::value_band(center, 0.5, 1.0)).unwrap();
        assert_eq!(out.exact, vec![a]);
        assert_eq!(out.approximate.iter().map(|m| m.id).collect::<Vec<_>>(), vec![b]);
    }

    #[test]
    fn invalid_expressions_error() {
        let (store, _) = corpus();
        let engine = StoreEngine::new(&store);
        assert!(engine.execute(&QueryExpr::shape("((")).is_err());
        assert!(engine.execute(&QueryExpr::And(vec![])).is_err());
        assert!(engine.execute(&QueryExpr::Or(vec![])).is_err());
        assert!(engine
            .execute(&QueryExpr::value_band(goalpost(GoalpostSpec::default()), -1.0, 0.0))
            .is_err());
        assert!(engine.execute(&QueryExpr::id_range(10, 2)).is_err());
    }

    #[test]
    fn empty_store_is_empty_everywhere() {
        let store = SequenceStore::default();
        let engine = StoreEngine::new(&store);
        let expr = QueryExpr::peak_count(1, 0).negate().or(QueryExpr::id_range(0, 9));
        let (out, stats) = engine.execute_with_stats(&expr).unwrap();
        assert!(out.exact.is_empty() && out.approximate.is_empty());
        assert_eq!(stats.universe, 0);
    }

    #[test]
    fn match_set_algebra() {
        let mut a = MatchSet::from_exact([1, 2]);
        a.insert(3, MatchTier { deviation: 2.0, approximate: true });
        let mut b = MatchSet::from_exact([2]);
        b.insert(3, MatchTier { deviation: 1.0, approximate: true });
        b.insert(4, MatchTier::exact());

        let and = a.clone().and(&b);
        assert_eq!(and.ids(), vec![2, 3]);
        assert_eq!(and.get(3), Some(MatchTier { deviation: 3.0, approximate: true }));

        let or = a.clone().or(b);
        assert_eq!(or.ids(), vec![1, 2, 3, 4]);
        assert_eq!(or.get(3), Some(MatchTier { deviation: 1.0, approximate: true }));

        let not = a.complement_within(&[1, 2, 3, 4, 5]);
        assert_eq!(not.ids(), vec![4, 5]);

        let first = a.clone().truncate_first(2);
        assert_eq!(first.ids(), vec![1, 2], "exact matches come first");
        assert_eq!(a.clone().truncate_top_k(1).ids(), vec![1]);
        assert_eq!(a.clone().restrict(&[2, 3]).ids(), vec![2, 3]);

        let outcome = a.into_outcome();
        assert_eq!(outcome.exact, vec![1, 2]);
        assert_eq!(outcome.approximate, vec![ApproximateMatch { id: 3, deviation: 2.0 }]);
    }
}

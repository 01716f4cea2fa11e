//! The request/response surface shared by every engine and the `saqd`
//! server, and the one pipeline that answers it.
//!
//! A [`QueryRequest`] names the query (SAQL text or a built
//! [`QueryExpr`]), an optional snapshot pin, and which extras (stats,
//! explain) the caller wants back; a [`QueryResponse`] carries everything
//! an engine can say about a run. `QueryEngine::request` is the single
//! entry point, and every local engine answers it through the same two
//! steps: [`prepare`] (verify the pin → resolve the body → plan) and
//! [`respond`] (render explain with observed cardinalities → assemble
//! the response). Sequential engines run both around the shared plan
//! executor via [`answer`]; the sharded engine runs them around its wave
//! pass. Pin-check order and explain rendering are therefore defined
//! here, once.

use crate::algebra::{execute_plan, ExecStats, LeafSource, PhysicalPlan, Planner, QueryExpr};
use crate::error::{Error, Result};
use crate::query::QueryOutcome;
use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;

/// A `(instance, generation)` pair naming one immutable snapshot of a
/// store or archive. Requests may *pin* to a ref; an engine positioned at
/// a different snapshot refuses with [`Error::SnapshotMismatch`] rather
/// than silently answering from other data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SnapshotRef {
    /// The store instance the snapshot belongs to.
    pub instance: u64,
    /// The mutation generation within that instance.
    pub generation: u64,
}

impl SnapshotRef {
    /// A ref naming `instance` at `generation`.
    pub fn new(instance: u64, generation: u64) -> SnapshotRef {
        SnapshotRef { instance, generation }
    }
}

/// Prints `instance.generation` — the wire protocol's `snapshot:`/`pin:`
/// header value; [`FromStr`] parses it back.
impl fmt::Display for SnapshotRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.instance, self.generation)
    }
}

impl FromStr for SnapshotRef {
    type Err = Error;

    fn from_str(s: &str) -> Result<SnapshotRef> {
        let (instance, generation) = s
            .split_once('.')
            .ok_or_else(|| Error::Protocol(format!("malformed snapshot ref `{s}`")))?;
        let parse = |part: &str| {
            part.parse::<u64>()
                .map_err(|_| Error::Protocol(format!("malformed snapshot ref `{s}`")))
        };
        Ok(SnapshotRef::new(parse(instance)?, parse(generation)?))
    }
}

/// What a request asks: SAQL text (parsed by the engine, so parse errors
/// flow through the same [`Result`] as execution errors) or an
/// already-built expression.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryBody {
    /// A SAQL query (see `docs/SAQL.md`).
    Saql(String),
    /// A built algebra expression.
    Expr(QueryExpr),
}

/// One query, addressed to any [`crate::algebra::QueryEngine`]: the query
/// body, an optional snapshot pin, and which extras to compute.
///
/// ```
/// use saq_core::request::QueryRequest;
/// use saq_core::algebra::{QueryEngine as _, StoreEngine};
/// use saq_core::store::SequenceStore;
/// use saq_sequence::generators::{goalpost, GoalpostSpec};
///
/// let mut store = SequenceStore::default();
/// let id = store.insert(&goalpost(GoalpostSpec::default())).unwrap();
/// let req = QueryRequest::saql("peaks = 2 and interval = 10 tol 3").with_explain();
/// let resp = StoreEngine::new(&store).request(&req).unwrap();
/// assert_eq!(resp.outcome.exact, vec![id]);
/// assert!(resp.explain.unwrap().contains("And"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The query itself.
    pub query: QueryBody,
    /// Refuse to run unless the engine serves exactly this snapshot.
    pub pin: Option<SnapshotRef>,
    /// Return execution counters in [`QueryResponse::stats`].
    pub want_stats: bool,
    /// Return the physical plan rendering in [`QueryResponse::explain`].
    pub want_explain: bool,
}

impl QueryRequest {
    /// A request carrying SAQL text.
    pub fn saql(text: impl Into<String>) -> QueryRequest {
        QueryRequest {
            query: QueryBody::Saql(text.into()),
            pin: None,
            want_stats: false,
            want_explain: false,
        }
    }

    /// A request carrying a built expression.
    pub fn expr(expr: QueryExpr) -> QueryRequest {
        QueryRequest {
            query: QueryBody::Expr(expr),
            pin: None,
            want_stats: false,
            want_explain: false,
        }
    }

    /// Pins the request to one snapshot.
    pub fn pinned(mut self, snapshot: SnapshotRef) -> QueryRequest {
        self.pin = Some(snapshot);
        self
    }

    /// Asks for execution counters.
    pub fn with_stats(mut self) -> QueryRequest {
        self.want_stats = true;
        self
    }

    /// Asks for the plan explanation.
    pub fn with_explain(mut self) -> QueryRequest {
        self.want_explain = true;
        self
    }

    /// The request's expression: parses SAQL bodies (borrowing built
    /// ones), surfacing parse failures as [`Error::Saql`] with the caret
    /// diagnostic intact.
    pub fn resolve(&self) -> Result<Cow<'_, QueryExpr>> {
        match &self.query {
            QueryBody::Saql(text) => Ok(Cow::Owned(crate::lang::saql::parse(text)?)),
            QueryBody::Expr(expr) => Ok(Cow::Borrowed(expr)),
        }
    }

    /// Checks this request's pin against the snapshot an engine is
    /// actually serving: `Ok` when unpinned or exactly matched,
    /// [`Error::SnapshotMismatch`] otherwise.
    pub fn verify_pin(&self, current: SnapshotRef) -> Result<()> {
        match self.pin {
            Some(requested) if requested != current => {
                Err(Error::SnapshotMismatch { requested, current })
            }
            _ => Ok(()),
        }
    }
}

/// Everything an engine can say about one executed request. Fields the
/// request didn't ask for stay `None` — over the wire they cost nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// Exact and approximate matches.
    pub outcome: QueryOutcome,
    /// Execution counters, when [`QueryRequest::want_stats`] was set.
    pub stats: Option<ExecStats>,
    /// The physical plan rendering, when [`QueryRequest::want_explain`]
    /// was set.
    pub explain: Option<String>,
    /// The snapshot the run was pinned to, when the engine exposes one.
    pub snapshot: Option<SnapshotRef>,
}

impl QueryResponse {
    /// All matching ids — exact then approximate, the flattened view most
    /// callers want.
    pub fn ids(&self) -> Vec<u64> {
        self.outcome.all_ids()
    }
}

/// First half of the request pipeline: checks the pin against the
/// snapshot the engine captured, then resolves the body, then plans it
/// with the planner the engine names for that expression. The order is
/// part of the contract — a request that is both stale-pinned and
/// malformed fails on the pin.
pub fn prepare(
    req: &QueryRequest,
    current: SnapshotRef,
    planner: impl FnOnce(&QueryExpr) -> Planner,
) -> Result<PhysicalPlan> {
    req.verify_pin(current)?;
    let expr = req.resolve()?;
    planner(&expr).plan(&expr)
}

/// Second half of the request pipeline: assembles the response from an
/// executed plan. Explain is rendered after execution so each evaluated
/// leaf carries the cardinality it was observed to resolve to.
pub fn respond(
    req: &QueryRequest,
    current: SnapshotRef,
    plan: &PhysicalPlan,
    outcome: QueryOutcome,
    stats: ExecStats,
) -> QueryResponse {
    let explain = req.want_explain.then(|| plan.explain_with(Some(&stats)));
    QueryResponse {
        outcome,
        stats: req.want_stats.then_some(stats),
        explain,
        snapshot: Some(current),
    }
}

/// The whole pipeline for an engine that evaluates one plan at a time:
/// [`prepare`], run the plan over `source`, [`respond`]. `current` names
/// the snapshot `source` reads.
pub fn answer<S: LeafSource>(
    req: &QueryRequest,
    current: SnapshotRef,
    planner: impl FnOnce(&QueryExpr) -> Planner,
    source: &mut S,
) -> Result<QueryResponse> {
    let plan = prepare(req, current, planner)?;
    let (outcome, stats) = execute_plan(&plan, source)?;
    Ok(respond(req, current, &plan, outcome, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_ref_round_trips_through_display() {
        let r = SnapshotRef::new(42, 7);
        assert_eq!(r.to_string(), "42.7");
        assert_eq!(r.to_string().parse::<SnapshotRef>().unwrap(), r);
        assert!("42".parse::<SnapshotRef>().is_err());
        assert!("a.b".parse::<SnapshotRef>().is_err());
        assert!("1.2.3".parse::<SnapshotRef>().is_err());
    }

    #[test]
    fn resolve_parses_saql_and_borrows_exprs() {
        let req = QueryRequest::saql("peaks = 2");
        assert_eq!(*req.resolve().unwrap(), QueryExpr::peak_count(2, 0));
        let expr = QueryExpr::peak_count(3, 1);
        let req = QueryRequest::expr(expr.clone());
        assert!(matches!(req.resolve().unwrap(), Cow::Borrowed(e) if *e == expr));
        let bad = QueryRequest::saql("peaks 2");
        assert_eq!(bad.resolve().unwrap_err().code(), 7);
    }

    #[test]
    fn verify_pin_semantics() {
        let unpinned = QueryRequest::saql("peaks = 2");
        unpinned.verify_pin(SnapshotRef::new(1, 1)).unwrap();

        let pinned = unpinned.clone().pinned(SnapshotRef::new(1, 1));
        pinned.verify_pin(SnapshotRef::new(1, 1)).unwrap();
        let err = pinned.verify_pin(SnapshotRef::new(1, 2)).unwrap_err();
        assert!(matches!(err, Error::SnapshotMismatch { .. }), "{err}");
    }
}

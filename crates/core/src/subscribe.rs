//! Standing queries: subscriptions re-evaluated as the store mutates.
//!
//! The paper's sequences are *recorded over time*, so the natural query
//! mode is continuous: register a SAQL expression once and learn, after
//! every mutation wave, which sequences **entered** and which **left**
//! its result set. [`SubscriptionRegistry`] owns that loop. It stores
//! each subscription's expression, physical plan, and last-known result
//! set; [`SubscriptionRegistry::pump`] re-evaluates against an engine
//! and emits [`Delta`]s.
//!
//! The point of keeping the plan around is *pruning*: most waves touch a
//! handful of ids, and most subscriptions provably cannot change from
//! them. After its baseline evaluation, `pump` skips a subscription when
//!
//! 1. the wave's dirty-id set is empty (nothing changed), or
//! 2. no dirty id falls inside the plan's conjunctive
//!    [`PhysicalPlan::id_bounds`] (changed sequences can't be members
//!    either before or after).
//!
//! A subscription that survives both rungs is maintained **per id** when
//! it holds no `Limit`/`TopK`: every other operator decides an id's
//! membership from that id's sequence alone, so only the dirty ids
//! inside its bounds (`D`) can enter or leave, and
//! `next = (current − D) ∪ eval(expr and id in [d..d] for each d in D)`.
//! A subscription with a pipeline breaker re-runs whole.
//!
//! A dirty set of `None` means *wildcard*: an id-less whole-store
//! mutation (or a coalesced-away history) where anything may have
//! changed. Wildcards force re-evaluation of **every** subscription —
//! treating them as an empty delta is precisely the silent-staleness bug
//! `tests/prop_subscriptions.rs` locks down.
//!
//! A pump commits all or nothing: when any evaluation fails, every
//! result set stays as it was, so a retry still reports the whole change.

use std::collections::BTreeMap;
use std::fmt;

use crate::algebra::{
    contains_pipeline_breaker, IndexCaps, PhysicalPlan, Planner, QueryEngine, QueryExpr,
};
use crate::error::Result;
use crate::query::QueryOutcome;

/// Opaque handle for one registered subscription. Ids are never reused
/// within a registry's lifetime, so a stale handle can't alias a newer
/// subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubscriptionId(u64);

impl SubscriptionId {
    /// The wire representation (`saqd` renders this in frame headers).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a handle from its wire representation.
    pub fn from_raw(raw: u64) -> SubscriptionId {
        SubscriptionId(raw)
    }
}

impl fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The membership change one pump produced for one subscription: ids
/// that joined the result set and ids that dropped out, both ascending.
/// `entered ∪ (previous − left)` is exactly the fresh result set — the
/// invariant the property suite checks against a batch oracle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Delta {
    /// Ids in the result set now that were not before, ascending.
    pub entered: Vec<u64>,
    /// Ids no longer in the result set, ascending.
    pub left: Vec<u64>,
}

impl Delta {
    /// True when membership did not change.
    pub fn is_empty(&self) -> bool {
        self.entered.is_empty() && self.left.is_empty()
    }
}

/// Cumulative work counters across every [`SubscriptionRegistry::pump`]:
/// the experiments assert `evaluated` stays far below the
/// subscriptions × waves product a naive re-run would pay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpCounters {
    /// Subscriptions actually executed against the engine.
    pub evaluated: u64,
    /// Subscriptions skipped because the wave's dirty set was empty.
    pub skipped_clean: u64,
    /// Subscriptions skipped because no dirty id intersected the plan's
    /// conjunctive id bounds.
    pub skipped_id_bounds: u64,
    /// Non-empty deltas handed back to callers.
    pub deltas_emitted: u64,
}

struct Subscription {
    expr: QueryExpr,
    plan: PhysicalPlan,
    /// No `Limit`/`TopK`: a pump may re-decide just the dirty ids.
    per_id: bool,
    /// Sorted result-set ids at the last evaluation; `None` until the
    /// baseline evaluation, which pruning must never skip.
    current: Option<Vec<u64>>,
}

/// The registry of standing queries. See the module docs for the pump
/// contract and the pruning ladder.
#[derive(Default)]
pub struct SubscriptionRegistry {
    next: u64,
    subs: BTreeMap<u64, Subscription>,
    counters: PumpCounters,
}

impl SubscriptionRegistry {
    /// An empty registry.
    pub fn new() -> SubscriptionRegistry {
        SubscriptionRegistry::default()
    }

    /// Registers an expression. Planning happens here (with every index
    /// capability, purely for pruning metadata), so malformed patterns
    /// are rejected at registration instead of poisoning later pumps.
    /// The first pump after registration always evaluates — it reports
    /// the baseline result set as `entered`.
    pub fn register(&mut self, expr: QueryExpr) -> Result<SubscriptionId> {
        let plan = Planner::new(IndexCaps::all()).plan(&expr)?;
        let id = self.next;
        self.next += 1;
        let per_id = !contains_pipeline_breaker(&expr);
        self.subs.insert(id, Subscription { expr, plan, per_id, current: None });
        Ok(SubscriptionId(id))
    }

    /// Parses SAQL text and registers it; parse errors carry the caret
    /// diagnostic, exactly as `QueryRequest::saql` would surface them.
    pub fn register_saql(&mut self, text: &str) -> Result<SubscriptionId> {
        let expr = crate::lang::saql::parse(text)?;
        self.register(expr)
    }

    /// Drops a subscription. Returns false when the id was never
    /// registered or already unregistered.
    pub fn unregister(&mut self, id: SubscriptionId) -> bool {
        self.subs.remove(&id.0).is_some()
    }

    /// Number of live subscriptions.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// True when no subscription is registered.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// The live subscription ids, ascending.
    pub fn ids(&self) -> Vec<SubscriptionId> {
        self.subs.keys().map(|&k| SubscriptionId(k)).collect()
    }

    /// The registered expression behind `id`, when live.
    pub fn expr(&self, id: SubscriptionId) -> Option<&QueryExpr> {
        self.subs.get(&id.0).map(|s| &s.expr)
    }

    /// The last-known result set of `id` (sorted ids), when live and at
    /// least one pump has evaluated it.
    pub fn current(&self, id: SubscriptionId) -> Option<&[u64]> {
        self.subs.get(&id.0).and_then(|s| s.current.as_deref())
    }

    /// Cumulative pump counters.
    pub fn counters(&self) -> PumpCounters {
        self.counters
    }

    /// Re-evaluates subscriptions against `engine` after a mutation wave
    /// and returns the non-empty deltas in subscription-id order.
    ///
    /// `dirty` is the wave's changed-id set, i.e. what
    /// `changed_since(last_pumped_generation)` reported: `Some(ids)`
    /// enables pruning, **`None` is the wildcard** and disables it
    /// (every subscription re-evaluates). Callers must pass the
    /// wildcard through as `None` — collapsing it to `Some(&[])` would
    /// silently freeze every subscription.
    ///
    /// A pump is all or nothing: if any evaluation fails, no result set
    /// and no counter moves, so retrying with the same `dirty` set
    /// reports every delta the failed pump would have.
    pub fn pump<E: QueryEngine + ?Sized>(
        &mut self,
        engine: &E,
        dirty: Option<&[u64]>,
    ) -> Result<Vec<(SubscriptionId, Delta)>> {
        let mut counters = self.counters;
        let mut fresh = Vec::new();
        for (&id, sub) in &self.subs {
            let next = match (sub.current.as_deref(), dirty) {
                // The baseline, or a wildcard: anything may have changed.
                (None, _) | (Some(_), None) => {
                    counters.evaluated += 1;
                    outcome_ids(engine.execute(&sub.expr)?)
                }
                (Some(_), Some([])) => {
                    counters.skipped_clean += 1;
                    continue;
                }
                (Some(current), Some(ids)) => {
                    let mut touched: Vec<u64> = match sub.plan.id_bounds() {
                        Some((lo, hi)) => {
                            ids.iter().copied().filter(|d| (lo..=hi).contains(d)).collect()
                        }
                        None => ids.to_vec(),
                    };
                    if touched.is_empty() {
                        counters.skipped_id_bounds += 1;
                        continue;
                    }
                    counters.evaluated += 1;
                    if sub.per_id {
                        touched.sort_unstable();
                        touched.dedup();
                        maintain(engine, &sub.expr, current, &touched)?
                    } else {
                        outcome_ids(engine.execute(&sub.expr)?)
                    }
                }
            };
            let delta = diff_sorted(sub.current.as_deref().unwrap_or_default(), &next);
            fresh.push((id, next, delta));
        }
        // Every evaluation succeeded: commit.
        let mut out = Vec::new();
        for (id, next, delta) in fresh {
            if let Some(sub) = self.subs.get_mut(&id) {
                sub.current = Some(next);
            }
            if !delta.is_empty() {
                out.push((SubscriptionId(id), delta));
            }
        }
        counters.deltas_emitted += out.len() as u64;
        self.counters = counters;
        Ok(out)
    }
}

/// The next result set of a subscription free of `Limit`/`TopK` after
/// the ids in `touched` (sorted) changed: every other id keeps its
/// membership, and each touched id is decided by evaluating `expr` over
/// that id alone.
fn maintain<E: QueryEngine + ?Sized>(
    engine: &E,
    expr: &QueryExpr,
    current: &[u64],
    touched: &[u64],
) -> Result<Vec<u64>> {
    let mut next: Vec<u64> =
        current.iter().copied().filter(|id| touched.binary_search(id).is_err()).collect();
    for &d in touched {
        next.extend(outcome_ids(engine.execute(&expr.clone().and(QueryExpr::id_range(d, d)))?));
    }
    next.sort_unstable();
    next.dedup();
    Ok(next)
}

/// The sorted, deduplicated id membership of an outcome — exact and
/// approximate tiers both count (a standing query watches the whole
/// answer the same request would return).
fn outcome_ids(outcome: QueryOutcome) -> Vec<u64> {
    let mut ids = outcome.exact;
    ids.extend(outcome.approximate.into_iter().map(|m| m.id));
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// `entered` = in `next` but not `prev`; `left` = in `prev` but not
/// `next`. Both inputs sorted ascending.
fn diff_sorted(prev: &[u64], next: &[u64]) -> Delta {
    let mut delta = Delta::default();
    let (mut i, mut j) = (0, 0);
    while i < prev.len() || j < next.len() {
        match (prev.get(i), next.get(j)) {
            (Some(&p), Some(&n)) if p == n => {
                i += 1;
                j += 1;
            }
            (Some(&p), Some(&n)) if p < n => {
                delta.left.push(p);
                i += 1;
            }
            (Some(_), Some(&n)) => {
                delta.entered.push(n);
                j += 1;
            }
            (Some(&p), None) => {
                delta.left.push(p);
                i += 1;
            }
            (None, Some(&n)) => {
                delta.entered.push(n);
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::StoreEngine;
    use crate::error::Error;
    use crate::request::{QueryBody, QueryRequest, QueryResponse};
    use crate::store::SequenceStore;
    use saq_sequence::generators::{goalpost, GoalpostSpec};

    fn store_with(n: usize) -> SequenceStore {
        let mut store = SequenceStore::default();
        for _ in 0..n {
            store.insert(&goalpost(GoalpostSpec::default())).unwrap();
        }
        store
    }

    #[test]
    fn baseline_pump_reports_the_full_result_set() {
        let store = store_with(3);
        let mut reg = SubscriptionRegistry::new();
        let id = reg.register(QueryExpr::peak_count(2, 0)).unwrap();
        // Even a clean wave must evaluate a never-evaluated subscription.
        let deltas = reg.pump(&StoreEngine::new(&store), Some(&[])).unwrap();
        assert_eq!(deltas, vec![(id, Delta { entered: vec![1, 2, 3], left: vec![] })]);
        assert_eq!(reg.current(id), Some(&[1, 2, 3][..]));
        // A second clean wave is a no-op.
        let deltas = reg.pump(&StoreEngine::new(&store), Some(&[])).unwrap();
        assert!(deltas.is_empty());
        assert_eq!(reg.counters().skipped_clean, 1);
        assert_eq!(reg.counters().evaluated, 1);
    }

    #[test]
    fn wildcard_forces_reevaluation_of_every_subscription() {
        let mut store = store_with(2);
        let mut reg = SubscriptionRegistry::new();
        let id = reg.register(QueryExpr::peak_count(2, 0)).unwrap();
        reg.pump(&StoreEngine::new(&store), None).unwrap();
        assert_eq!(reg.current(id), Some(&[1, 2][..]));

        // The store changes out from under the registry with no id
        // attribution — the wildcard case (`mark_all_changed`).
        store.remove(1).unwrap();

        // Regression guard: a wildcard treated as "no ids changed" would
        // freeze the subscription forever.
        let frozen = reg.pump(&StoreEngine::new(&store), Some(&[])).unwrap();
        assert!(frozen.is_empty(), "empty dirty set must skip — that's its contract");

        // Passing the wildcard through as `None` re-evaluates.
        let deltas = reg.pump(&StoreEngine::new(&store), None).unwrap();
        assert_eq!(deltas, vec![(id, Delta { entered: vec![], left: vec![1] })]);
    }

    #[test]
    fn id_bounds_prune_unrelated_dirty_ids() {
        let store = store_with(4);
        let mut reg = SubscriptionRegistry::new();
        let id = reg.register(QueryExpr::peak_count(2, 0).and(QueryExpr::id_range(1, 2))).unwrap();
        let engine = StoreEngine::new(&store);
        reg.pump(&engine, None).unwrap();
        assert_eq!(reg.current(id), Some(&[1, 2][..]));

        // Dirty ids outside [1, 2] cannot change membership.
        let deltas = reg.pump(&engine, Some(&[3, 4])).unwrap();
        assert!(deltas.is_empty());
        assert_eq!(reg.counters().skipped_id_bounds, 1);
        assert_eq!(reg.counters().evaluated, 1);

        // A dirty id inside the bounds re-evaluates.
        reg.pump(&engine, Some(&[2])).unwrap();
        assert_eq!(reg.counters().evaluated, 2);
    }

    /// Answers like its store, except that `poison` always fails, alone
    /// or as a conjunct (the shape of a per-id re-check).
    struct FailsOn<'a> {
        store: &'a SequenceStore,
        poison: QueryExpr,
    }

    impl QueryEngine for FailsOn<'_> {
        fn request(&self, req: &QueryRequest) -> Result<QueryResponse> {
            let poisoned = match &req.query {
                QueryBody::Expr(QueryExpr::And(conjuncts)) => conjuncts.contains(&self.poison),
                QueryBody::Expr(expr) => *expr == self.poison,
                _ => false,
            };
            if poisoned {
                return Err(Error::Protocol("injected failure".into()));
            }
            StoreEngine::new(self.store).request(req)
        }
    }

    #[test]
    fn a_failed_pump_commits_nothing_so_the_retry_reports_the_delta() {
        let mut store = store_with(2);
        let mut reg = SubscriptionRegistry::new();
        let a = reg.register(QueryExpr::peak_count(2, 0)).unwrap();
        let b = reg.register(QueryExpr::peak_count(7, 0)).unwrap();
        reg.pump(&StoreEngine::new(&store), None).unwrap();
        let before = reg.counters();

        let new_id = store.insert(&goalpost(GoalpostSpec::default())).unwrap();
        let failing = FailsOn { store: &store, poison: reg.expr(b).unwrap().clone() };
        assert!(reg.pump(&failing, Some(&[new_id])).is_err());
        assert_eq!(reg.current(a), Some(&[1, 2][..]), "A evaluated, but must not commit");
        assert_eq!(reg.counters(), before);

        let deltas = reg.pump(&StoreEngine::new(&store), Some(&[new_id])).unwrap();
        assert_eq!(deltas, vec![(a, Delta { entered: vec![new_id], left: vec![] })]);
    }

    #[test]
    fn unregister_stops_deltas_and_ids_never_recycle() {
        let store = store_with(1);
        let mut reg = SubscriptionRegistry::new();
        let a = reg.register_saql("peaks = 2").unwrap();
        assert!(reg.unregister(a));
        assert!(!reg.unregister(a));
        let b = reg.register_saql("peaks = 2").unwrap();
        assert_ne!(a, b);
        let deltas = reg.pump(&StoreEngine::new(&store), None).unwrap();
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].0, b);
    }

    #[test]
    fn saql_registration_rejects_parse_errors() {
        let mut reg = SubscriptionRegistry::new();
        assert!(reg.register_saql("peaks = ").is_err());
        assert!(reg.is_empty());
    }
}

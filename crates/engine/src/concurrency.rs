//! Rule 5: deterministic priority assignment under concurrent queries.
//!
//! When several queries run at once, random requests to the same object
//! could be assigned different priorities depending on which query issued
//! them. The paper avoids this with a small set of shared data structures
//! (Section 4.3):
//!
//! * a hash table `H<oid, list>` where each list element `<level, count>`
//!   says that `count` operators (across all running queries) access `oid`
//!   from plan level `level`,
//! * `gl_low` / `gl_high`, the global minimum and maximum of the per-query
//!   `llow` / `lhigh` values.
//!
//! The structures are updated at query start and end, from the query's
//! [`PlanProfile`]; the priority of a random request to `oid` is computed
//! by Function (1) using the *lowest* registered level for `oid` and the
//! global bounds. Every update moves the registry's *generation*, so an
//! answer stays valid for as long as [`ConcurrencyRegistry::generation`]
//! returns the value it was read at.
//!
//! `H<oid, list>` is held flat, as one `(oid, level, count)` entry per
//! distinct pair, and the per-query bounds as one `(ticket, llow, lhigh)`
//! entry per query: a handful of entries, the running queries times their
//! random objects, searched linearly. Rule 5's answers are a minimum and
//! bounds over those entries, so their order does not matter, and a
//! registration in the steady state allocates nothing.

use crate::catalog::ObjectId;
use crate::plan::{PlanProfile, PlanTree};
use crate::priority::random_request_priority;
use hstorage_storage::{CachePriority, PolicyConfig};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Default)]
struct RegistryInner {
    /// `H<oid, list>`: `(oid, level, count)`, one entry per distinct
    /// `(oid, level)`, `count > 0`.
    objects: Vec<(ObjectId, u32, u32)>,
    /// `(ticket, (llow, lhigh))` of every registered query with random
    /// operators.
    query_bounds: Vec<(u64, (u32, u32))>,
    next_ticket: u64,
}

impl RegistryInner {
    fn global_bounds(&self) -> Option<(u32, u32)> {
        let mut bounds: Option<(u32, u32)> = None;
        for &(_, (lo, hi)) in &self.query_bounds {
            bounds = Some(match bounds {
                None => (lo, hi),
                Some((glo, ghi)) => (glo.min(lo), ghi.max(hi)),
            });
        }
        bounds
    }

    fn lowest_level_for(&self, oid: ObjectId) -> Option<u32> {
        self.objects
            .iter()
            .filter(|&&(o, _, _)| o == oid)
            .map(|&(_, level, _)| level)
            .min()
    }
}

/// Handle returned by [`ConcurrencyRegistry::register`]; pass it back to
/// [`ConcurrencyRegistry::unregister`] when the query finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryTicket {
    ticket: u64,
}

#[derive(Debug, Default)]
struct Shared {
    inner: Mutex<RegistryInner>,
    /// Number of registrations and unregistrations so far. Bumped only
    /// while `inner` is locked, so read under the lock it names the state
    /// read with it. Loaded without the lock (Acquire, pairing with the
    /// Release bump) it only says whether that state may have changed; it
    /// publishes no data of its own.
    generation: AtomicU64,
}

/// The shared registry of running queries.
#[derive(Debug, Clone, Default)]
pub struct ConcurrencyRegistry {
    shared: Arc<Shared>,
}

impl ConcurrencyRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a query by its plan's profile: records, for every object
    /// the plan accesses randomly, the level of the accessing operator,
    /// and folds the query's `llow`/`lhigh` into the global bounds.
    pub fn register(&self, profile: &PlanProfile) -> QueryTicket {
        let mut inner = self.shared.inner.lock();
        self.shared.generation.fetch_add(1, Ordering::Release);
        let ticket = inner.next_ticket;
        inner.next_ticket += 1;

        if let Some(bounds) = profile.level_bounds() {
            inner.query_bounds.push((ticket, bounds));
        }
        for &(oid, level) in profile.object_levels() {
            match inner
                .objects
                .iter_mut()
                .find(|&&mut (o, l, _)| o == oid && l == level)
            {
                Some((_, _, count)) => *count += 1,
                None => inner.objects.push((oid, level, 1)),
            }
        }
        QueryTicket { ticket }
    }

    /// [`Self::register`] for a caller that holds only the plan. Its
    /// ticket is returned with `unregister(&plan.profile(), ticket)`.
    pub fn register_query(&self, plan: &PlanTree) -> QueryTicket {
        self.register(&plan.profile())
    }

    /// Unregisters a finished query, removing its contribution. `profile`
    /// is the one it was registered with.
    pub fn unregister(&self, profile: &PlanProfile, ticket: QueryTicket) {
        let mut inner = self.shared.inner.lock();
        self.shared.generation.fetch_add(1, Ordering::Release);
        if let Some(at) = inner
            .query_bounds
            .iter()
            .position(|&(t, _)| t == ticket.ticket)
        {
            inner.query_bounds.swap_remove(at);
        }
        for &(oid, level) in profile.object_levels() {
            let Some(at) = inner
                .objects
                .iter()
                .position(|&(o, l, _)| o == oid && l == level)
            else {
                continue;
            };
            if inner.objects[at].2 <= 1 {
                inner.objects.swap_remove(at);
            } else {
                inner.objects[at].2 -= 1;
            }
        }
    }

    /// Number of queries currently registered.
    pub fn active_queries(&self) -> usize {
        self.shared.inner.lock().query_bounds.len()
    }

    /// The global level bounds `(gl_low, gl_high)` over all running queries.
    pub fn global_bounds(&self) -> Option<(u32, u32)> {
        self.shared.inner.lock().global_bounds()
    }

    /// The registry's generation: it changes with every
    /// [`Self::register`] and [`Self::unregister`], and with
    /// nothing else. One atomic load, no lock.
    pub fn generation(&self) -> u64 {
        self.shared.generation.load(Ordering::Acquire)
    }

    /// The priority of a random request to `oid` under Rule 5: Function (1)
    /// evaluated at the lowest level registered for `oid`, with the global
    /// bounds substituted for the per-query bounds.
    ///
    /// `fallback_level` and `fallback_bounds` (from the issuing query's own
    /// plan) are used when the registry has no information, e.g. for a
    /// query running alone whose registration was skipped.
    pub fn random_priority(
        &self,
        config: &PolicyConfig,
        oid: ObjectId,
        fallback_level: u32,
        fallback_bounds: (u32, u32),
    ) -> CachePriority {
        self.random_priority_versioned(config, oid, fallback_level, fallback_bounds)
            .1
    }

    /// [`Self::random_priority`] together with the generation of the state
    /// it was computed from, both read under one lock: the priority holds
    /// for these arguments until [`Self::generation`] returns another value.
    pub fn random_priority_versioned(
        &self,
        config: &PolicyConfig,
        oid: ObjectId,
        fallback_level: u32,
        fallback_bounds: (u32, u32),
    ) -> (u64, CachePriority) {
        let inner = self.shared.inner.lock();
        let generation = self.shared.generation.load(Ordering::Relaxed);
        let level = inner.lowest_level_for(oid).unwrap_or(fallback_level);
        let (gl_low, gl_high) = inner.global_bounds().unwrap_or(fallback_bounds);
        drop(inner);
        (
            generation,
            random_request_priority(config, level, gl_low, gl_high),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Access, OperatorKind, PlanNode};

    fn oid(n: u32) -> ObjectId {
        ObjectId(n)
    }

    fn index_scan(index: u32, table: u32) -> PlanNode {
        PlanNode::leaf(
            OperatorKind::IndexScan,
            Access::IndexScan {
                index: oid(index),
                table: oid(table),
                lookups: 10,
                index_hot_fraction: 1.0,
                table_hot_fraction: 1.0,
            },
        )
    }

    fn seq_scan(table: u32) -> PlanNode {
        PlanNode::leaf(
            OperatorKind::SeqScan,
            Access::SeqScan {
                table: oid(table),
                passes: 1,
            },
        )
    }

    /// A two-level plan: an index scan under a join with a sequential scan.
    fn plan_a() -> PlanTree {
        let join = PlanNode::node(
            OperatorKind::HashJoin,
            Access::None,
            vec![index_scan(10, 1), seq_scan(2)],
        );
        PlanTree::new("A", join)
    }

    /// A deeper plan where table 1 is accessed from a higher level.
    fn plan_b() -> PlanTree {
        let inner = PlanNode::node(
            OperatorKind::HashJoin,
            Access::None,
            vec![index_scan(20, 3), seq_scan(4)],
        );
        let outer = PlanNode::node(
            OperatorKind::NestedLoop,
            Access::None,
            vec![inner, index_scan(10, 1)],
        );
        PlanTree::new("B", outer)
    }

    #[test]
    fn register_and_unregister_are_symmetric() {
        let reg = ConcurrencyRegistry::new();
        let a = plan_a().profile();
        let t = reg.register(&a);
        assert_eq!(reg.active_queries(), 1);
        reg.unregister(&a, t);
        assert_eq!(reg.active_queries(), 0);
        assert!(reg.global_bounds().is_none());
    }

    #[test]
    fn generation_moves_with_every_registration_and_with_nothing_else() {
        let cfg = PolicyConfig::paper_default();
        let reg = ConcurrencyRegistry::new();
        let shared = reg.clone();
        let start = reg.generation();
        let a = plan_a().profile();
        let t = reg.register(&a);
        assert_eq!(shared.generation(), start + 1);
        // Reading prices nothing and moves nothing, and reports the
        // generation it read at.
        let (at, prio) = reg.random_priority_versioned(&cfg, oid(1), 5, (0, 5));
        assert_eq!((at, prio), (start + 1, CachePriority(2)));
        assert_eq!(reg.active_queries(), 1);
        assert_eq!(reg.generation(), start + 1);
        reg.unregister(&a, t);
        assert_eq!(shared.generation(), start + 2);
        let (at, prio) = reg.random_priority_versioned(&cfg, oid(1), 5, (0, 5));
        assert_eq!((at, prio), (start + 2, CachePriority(6)));
    }

    #[test]
    fn same_object_gets_same_priority_across_queries() {
        let cfg = PolicyConfig::paper_default();
        let reg = ConcurrencyRegistry::new();
        let a = plan_a().profile();
        let b = plan_b().profile();
        let _ta = reg.register(&a);
        let _tb = reg.register(&b);

        // In plan A, table 1 is accessed at level 0; in plan B at level 1.
        // Rule 5 assigns the highest priority (from the lowest level) to
        // both queries' requests.
        let p_from_a = reg.random_priority(&cfg, oid(1), 0, (0, 0));
        let p_from_b = reg.random_priority(&cfg, oid(1), 1, (0, 1));
        assert_eq!(p_from_a, p_from_b);
        assert_eq!(p_from_a, CachePriority(2));
    }

    #[test]
    fn global_bounds_cover_all_registered_queries() {
        let reg = ConcurrencyRegistry::new();
        let a = plan_a().profile();
        let b = plan_b().profile();
        let _ta = reg.register(&a);
        assert_eq!(reg.global_bounds(), Some((0, 0)));
        let _tb = reg.register(&b);
        let (lo, hi) = reg.global_bounds().unwrap();
        assert_eq!(lo, 0);
        assert!(hi >= 1);
    }

    #[test]
    fn fallbacks_used_when_nothing_registered() {
        let cfg = PolicyConfig::paper_default();
        let reg = ConcurrencyRegistry::new();
        let p = reg.random_priority(&cfg, oid(99), 2, (0, 3));
        assert_eq!(p, CachePriority(4));
    }

    #[test]
    fn counts_prevent_premature_removal() {
        let reg = ConcurrencyRegistry::new();
        let a1 = plan_a().profile();
        let a2 = plan_a().profile();
        let t1 = reg.register(&a1);
        let _t2 = reg.register(&a2);
        reg.unregister(&a1, t1);
        // The second registration still pins table 1 at level 0.
        let cfg = PolicyConfig::paper_default();
        let p = reg.random_priority(&cfg, oid(1), 5, (0, 5));
        assert_eq!(p, CachePriority(2));
    }
}

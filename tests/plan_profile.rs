//! A query's [`PlanProfile`] agrees with the level analyses as
//! `PlanTree::operator_levels` defines them, and the Rule 5 registry kept
//! as flat lists answers as the `HashMap` registry it replaced.
//!
//! The analyses are computed here the long way, from `operator_levels`:
//! each randomly accessed object at the lowest effective level of the
//! operators accessing it, and `(llow, lhigh)` over the random operators.
//! They are held against the profile on every TPC-H plan and on generated
//! trees of up to 12 nodes mixing blocking and pipelined operators with
//! index-scan leaves. The registry is driven through random interleavings
//! of registrations and unregistrations beside a model that keeps
//! `H<oid, list>` as a `HashMap` with a `Vec` per object and is fed by the
//! long-way analyses.

use hstorage_engine::concurrency::QueryTicket;
use hstorage_engine::{
    random_request_priority, Access, ConcurrencyRegistry, ObjectId, OperatorKind, PlanNode,
    PlanProfile, PlanTree,
};
use hstorage_storage::{CachePriority, PolicyConfig};
use hstorage_tpch::queries::all_query_plans;
use hstorage_tpch::{build_plan, QueryId, TpchDatabase, TpchScale};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// Rule 2's level of each randomly accessed object, and the plan's
/// `(llow, lhigh)`, from `operator_levels`.
fn reference(plan: &PlanTree) -> (HashMap<ObjectId, u32>, Option<(u32, u32)>) {
    let mut objects = HashMap::new();
    let mut bounds: Option<(u32, u32)> = None;
    for op in plan.operator_levels() {
        let Some(oids) = op.access.random_objects() else {
            continue;
        };
        let level = op.effective_level;
        bounds = Some(bounds.map_or((level, level), |(lo, hi)| (lo.min(level), hi.max(level))));
        for oid in oids {
            let lowest = objects.entry(oid).or_insert(level);
            *lowest = level.min(*lowest);
        }
    }
    (objects, bounds)
}

/// Holds `plan`'s profile to the long-way analyses.
fn assert_profile_matches(plan: &PlanTree) {
    let profile = plan.profile();
    let name = &plan.name;
    let effective: Vec<u32> = plan
        .operator_levels()
        .iter()
        .map(|op| op.effective_level)
        .collect();
    assert_eq!(profile.levels(), effective, "{name}: effective levels");

    let (objects, bounds) = reference(plan);
    let listed: HashMap<ObjectId, u32> = profile.object_levels().iter().copied().collect();
    assert_eq!(
        listed.len(),
        profile.object_levels().len(),
        "{name}: an object listed twice"
    );
    assert_eq!(listed, objects, "{name}: object levels");
    for (&oid, &level) in &objects {
        assert_eq!(profile.object_level(oid), Some(level), "{name}: {oid:?}");
    }
    assert_eq!(profile.level_bounds(), bounds, "{name}: level bounds");
}

fn tpch_plans() -> Vec<PlanTree> {
    let db = TpchDatabase::build(TpchScale::new(0.01));
    let mut plans = all_query_plans(&db);
    plans.extend([QueryId::Rf1, QueryId::Rf2].map(|q| build_plan(q, &db)));
    plans
}

#[test]
fn every_tpch_profile_matches_the_operator_levels() {
    let plans = tpch_plans();
    assert_eq!(plans.len(), 24);
    for plan in &plans {
        assert_profile_matches(plan);
    }
    // Most of them renumber levels around a blocking operator.
    let blocking = |plan: &PlanTree| {
        fn any(node: &PlanNode) -> bool {
            node.kind.is_blocking() || node.children.iter().any(any)
        }
        any(&plan.root)
    };
    assert!(plans.iter().filter(|p| blocking(p)).count() > 10);
}

/// One node of a generated tree: `(parent pick, kind pick, object, object)`.
type NodeSpec = (u64, u8, u32, u32);

/// A tree of `spec.len()` nodes: node 0 is the root, node `i > 0` hangs
/// under node `pick % i`. Leaves are index scans (two in three) or
/// sequential scans, and inner nodes blocking (hash, sort that spills,
/// materialize) or pipelined (hash join, nested loop, aggregate). Objects
/// come from a pool of six, so several operators share them.
fn tree(spec: &[NodeSpec]) -> PlanTree {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spec.len()];
    for (i, &(pick, ..)) in spec.iter().enumerate().skip(1) {
        children[(pick % i as u64) as usize].push(i);
    }
    fn build(at: usize, spec: &[NodeSpec], children: &[Vec<usize>]) -> PlanNode {
        let (_, kind, a, b) = spec[at];
        let (index, table) = (ObjectId(a % 6), ObjectId(b % 6));
        if children[at].is_empty() {
            return match kind % 3 {
                0 | 1 => PlanNode::leaf(
                    OperatorKind::IndexScan,
                    Access::IndexScan {
                        index,
                        table,
                        lookups: 4,
                        index_hot_fraction: 1.0,
                        table_hot_fraction: 1.0,
                    },
                ),
                _ => PlanNode::leaf(OperatorKind::SeqScan, Access::SeqScan { table, passes: 1 }),
            };
        }
        let (kind, access) = match kind % 6 {
            0 => (OperatorKind::Hash, Access::None),
            1 => (
                OperatorKind::Sort,
                Access::TempSpill {
                    blocks: 8,
                    read_passes: 1,
                },
            ),
            2 => (OperatorKind::Materialize, Access::None),
            3 => (OperatorKind::HashJoin, Access::None),
            4 => (OperatorKind::NestedLoop, Access::None),
            _ => (OperatorKind::Aggregate, Access::None),
        };
        let inputs = children[at]
            .iter()
            .map(|&c| build(c, spec, children))
            .collect();
        PlanNode::node(kind, access, inputs)
    }
    PlanTree::new("generated", build(0, spec, &children))
}

fn node_spec() -> impl Strategy<Value = NodeSpec> {
    (0u64..1_000, 0u8..36, 0u32..6, 0u32..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn generated_profiles_match_the_operator_levels(
        spec in proptest::collection::vec(node_spec(), 1..13),
    ) {
        assert_profile_matches(&tree(&spec));
    }
}

/// The registry as it was before its flat lists: `H<oid, list>` as a
/// `HashMap` with a `Vec` of `(level, count)` per object, and the bounds
/// by ticket.
#[derive(Default)]
struct ModelRegistry {
    objects: HashMap<ObjectId, Vec<(u32, u32)>>,
    query_bounds: HashMap<u64, (u32, u32)>,
    next_ticket: u64,
}

impl ModelRegistry {
    fn register(&mut self, plan: &PlanTree) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        let (objects, bounds) = reference(plan);
        if let Some(bounds) = bounds {
            self.query_bounds.insert(ticket, bounds);
        }
        for (oid, level) in objects {
            let list = self.objects.entry(oid).or_default();
            match list.iter_mut().find(|(lvl, _)| *lvl == level) {
                Some((_, count)) => *count += 1,
                None => list.push((level, 1)),
            }
        }
        ticket
    }

    fn unregister(&mut self, plan: &PlanTree, ticket: u64) {
        self.query_bounds.remove(&ticket);
        for (oid, level) in reference(plan).0 {
            if let Some(list) = self.objects.get_mut(&oid) {
                if let Some(pos) = list.iter().position(|(lvl, _)| *lvl == level) {
                    if list[pos].1 <= 1 {
                        list.remove(pos);
                    } else {
                        list[pos].1 -= 1;
                    }
                }
                if list.is_empty() {
                    self.objects.remove(&oid);
                }
            }
        }
    }

    fn global_bounds(&self) -> Option<(u32, u32)> {
        self.query_bounds
            .values()
            .fold(None, |bounds, &(lo, hi)| match bounds {
                None => Some((lo, hi)),
                Some((glo, ghi)) => Some((glo.min(lo), ghi.max(hi))),
            })
    }

    fn random_priority(
        &self,
        config: &PolicyConfig,
        oid: ObjectId,
        fallback_level: u32,
        fallback_bounds: (u32, u32),
    ) -> CachePriority {
        let level = self
            .objects
            .get(&oid)
            .and_then(|list| list.iter().map(|&(lvl, _)| lvl).min())
            .unwrap_or(fallback_level);
        let (lo, hi) = self.global_bounds().unwrap_or(fallback_bounds);
        random_request_priority(config, level, lo, hi)
    }
}

/// The TPC-H plans and sixteen generated trees, each with its profile.
fn registry_plans() -> Vec<(PlanTree, PlanProfile)> {
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let generated = (0..16).map(|_| {
        let nodes = 1 + next() % 12;
        let spec: Vec<NodeSpec> = (0..nodes)
            .map(|_| {
                let x = next();
                (
                    x % 1_000,
                    (x >> 16) as u8 % 36,
                    (x >> 24) as u32,
                    (x >> 32) as u32,
                )
            })
            .collect();
        tree(&spec)
    });
    tpch_plans()
        .into_iter()
        .chain(generated)
        .map(|plan| {
            let profile = plan.profile();
            (plan, profile)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Each step registers a plan (two in three) or unregisters a running
    /// one, in both registries; after every step they agree on the number
    /// of queries with random operators, the global bounds, and the
    /// Rule 5 priority of every object any plan accesses, and of one no
    /// plan accesses, under several fallbacks.
    #[test]
    fn flat_registry_answers_as_the_hashmap_model(
        steps in proptest::collection::vec((0u8..3, 0u64..1_000), 1..80),
    ) {
        let plans = registry_plans();
        let mut oids: BTreeSet<ObjectId> = plans
            .iter()
            .flat_map(|(_, profile)| profile.object_levels().iter().map(|&(oid, _)| oid))
            .collect();
        oids.insert(ObjectId(u32::MAX));
        let config = PolicyConfig::paper_default();
        let registry = ConcurrencyRegistry::new();
        let mut model = ModelRegistry::default();
        let mut running: Vec<(usize, QueryTicket, u64)> = Vec::new();
        for (op, pick) in steps {
            if op < 2 || running.is_empty() {
                let at = pick as usize % plans.len();
                let (plan, profile) = &plans[at];
                running.push((at, registry.register(profile), model.register(plan)));
            } else {
                let (at, ticket, model_ticket) = running.swap_remove(pick as usize % running.len());
                let (plan, profile) = &plans[at];
                registry.unregister(profile, ticket);
                model.unregister(plan, model_ticket);
            }
            prop_assert_eq!(registry.active_queries(), model.query_bounds.len());
            prop_assert_eq!(registry.global_bounds(), model.global_bounds());
            for &oid in &oids {
                for (level, bounds) in [(0, (0, 0)), (3, (1, 6)), (9, (2, 9))] {
                    prop_assert_eq!(
                        registry.random_priority(&config, oid, level, bounds),
                        model.random_priority(&config, oid, level, bounds),
                        "{:?} at fallback level {}", oid, level
                    );
                }
            }
        }
    }
}

//! Plan templates for the 22 TPC-H queries and the RF1/RF2 refresh
//! functions.
//!
//! The paper never needs query *answers* — every experiment is driven by
//! the block-level access behaviour of the queries: which tables are
//! scanned sequentially, which tables and indexes are probed randomly (and
//! from which plan level, which determines their caching priority), and
//! how much temporary data the blocking operators spill. The templates
//! below encode that behaviour, parameterised by the database scale so the
//! access volumes track table sizes:
//!
//! * the plans the paper prints are reproduced structurally — Q9
//!   (Figure 7: index scans on `supplier` and `orders` at two different
//!   levels), Q21 (Figure 8: index scans on `orders` and `lineitem` plus
//!   two sequential scans of `lineitem`) and Q18 (Figure 10: large hash
//!   spills over `lineitem`),
//! * the remaining queries follow the standard PostgreSQL plan shapes for
//!   a TPC-H database that only has the nine indexes of Table 3: mostly
//!   sequential scans feeding hash joins, with modest spills.

use crate::database::TpchDatabase;
use crate::schema::{TpchIndex, TpchTable};
use hstorage_engine::{Access, OperatorKind, PlanNode, PlanTree};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a TPC-H query or refresh function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum QueryId {
    /// One of Q1–Q22.
    Q(u8),
    /// Refresh function 1 (inserts into `orders`/`lineitem`).
    Rf1,
    /// Refresh function 2 (deletes from `orders`/`lineitem`).
    Rf2,
}

impl QueryId {
    /// The 22 read-only queries in numeric order.
    pub fn all_queries() -> Vec<QueryId> {
        (1..=22).map(QueryId::Q).collect()
    }

    /// Display name ("Q1", "RF1", …).
    pub fn name(&self) -> String {
        match self {
            QueryId::Q(n) => format!("Q{n}"),
            QueryId::Rf1 => "RF1".to_string(),
            QueryId::Rf2 => "RF2".to_string(),
        }
    }

    /// Whether this is one of the two refresh (update) functions.
    pub fn is_refresh(&self) -> bool {
        matches!(self, QueryId::Rf1 | QueryId::Rf2)
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

// ---------------------------------------------------------------------------
// Plan-construction helpers
// ---------------------------------------------------------------------------

fn seq(db: &TpchDatabase, table: TpchTable) -> PlanNode {
    PlanNode::leaf(
        OperatorKind::SeqScan,
        Access::SeqScan {
            table: db.table(table),
            passes: 1,
        },
    )
}

fn idx(
    db: &TpchDatabase,
    index: TpchIndex,
    lookups: u64,
    index_hot: f64,
    table_hot: f64,
) -> PlanNode {
    PlanNode::leaf(
        OperatorKind::IndexScan,
        Access::IndexScan {
            index: db.index(index),
            table: db.table(index.table()),
            lookups,
            index_hot_fraction: index_hot,
            table_hot_fraction: table_hot,
        },
    )
}

/// A blocking hash build over `input` that spills `blocks` of temporary
/// data, read back `read_passes` times.
fn hash_spill(blocks: u64, read_passes: u32, input: PlanNode) -> PlanNode {
    PlanNode::node(
        OperatorKind::Hash,
        Access::TempSpill {
            blocks,
            read_passes,
        },
        vec![input],
    )
}

/// A blocking in-memory hash build (no spill).
fn hash(input: PlanNode) -> PlanNode {
    PlanNode::node(OperatorKind::Hash, Access::None, vec![input])
}

/// A blocking sort that spills `blocks` of temporary data.
fn sort_spill(blocks: u64, input: PlanNode) -> PlanNode {
    PlanNode::node(
        OperatorKind::Sort,
        Access::TempSpill {
            blocks,
            read_passes: 1,
        },
        vec![input],
    )
}

fn hash_join(left: PlanNode, right: PlanNode) -> PlanNode {
    PlanNode::node(OperatorKind::HashJoin, Access::None, vec![left, right])
}

fn nested_loop(outer: PlanNode, inner: PlanNode) -> PlanNode {
    PlanNode::node(OperatorKind::NestedLoop, Access::None, vec![outer, inner])
}

fn aggregate(input: PlanNode) -> PlanNode {
    PlanNode::node(OperatorKind::Aggregate, Access::None, vec![input])
}

fn update(db: &TpchDatabase, table: TpchTable, blocks: u64) -> PlanNode {
    PlanNode::leaf(
        OperatorKind::Update,
        Access::Update {
            table: db.table(table),
            blocks: blocks.max(1),
        },
    )
}

fn blocks(db: &TpchDatabase, table: TpchTable) -> u64 {
    db.table_blocks(table)
}

fn frac(value: u64, fraction: f64) -> u64 {
    ((value as f64 * fraction).round() as u64).max(1)
}

// ---------------------------------------------------------------------------
// Per-query templates
// ---------------------------------------------------------------------------

/// Builds the plan template for `query` against the given database.
pub fn build_plan(query: QueryId, db: &TpchDatabase) -> PlanTree {
    let l = blocks(db, TpchTable::Lineitem);
    let o = blocks(db, TpchTable::Orders);
    let ps = blocks(db, TpchTable::Partsupp);
    let p = blocks(db, TpchTable::Part);
    let c = blocks(db, TpchTable::Customer);
    let s = blocks(db, TpchTable::Supplier);

    let root = match query {
        // Q1: pricing summary report — one full scan of lineitem feeding an
        // in-memory aggregation. Dominated by sequential requests (Fig. 5).
        QueryId::Q(1) => aggregate(seq(db, TpchTable::Lineitem)),

        // Q2: minimum cost supplier — small tables joined under part/partsupp.
        QueryId::Q(2) => aggregate(hash_join(
            hash_join(seq(db, TpchTable::Partsupp), hash(seq(db, TpchTable::Part))),
            hash(hash_join(
                seq(db, TpchTable::Supplier),
                hash(seq(db, TpchTable::Nation)),
            )),
        )),

        // Q3: shipping priority — customer ⋈ orders ⋈ lineitem with a sort.
        QueryId::Q(3) => sort_spill(
            frac(o, 0.05),
            hash_join(
                hash_join(
                    seq(db, TpchTable::Lineitem),
                    hash(seq(db, TpchTable::Orders)),
                ),
                hash(seq(db, TpchTable::Customer)),
            ),
        ),

        // Q4: order priority checking — orders with a semi-join on lineitem.
        QueryId::Q(4) => aggregate(hash_join(
            seq(db, TpchTable::Orders),
            hash_spill(frac(l, 0.04), 1, seq(db, TpchTable::Lineitem)),
        )),

        // Q5: local supplier volume — six-way join, all sequential scans
        // feeding hash joins (one of the Fig. 5 sequential-dominated queries).
        QueryId::Q(5) => aggregate(hash_join(
            hash_join(
                hash_join(
                    seq(db, TpchTable::Lineitem),
                    hash(seq(db, TpchTable::Orders)),
                ),
                hash(seq(db, TpchTable::Customer)),
            ),
            hash(hash_join(
                seq(db, TpchTable::Supplier),
                hash(hash_join(
                    seq(db, TpchTable::Nation),
                    hash(seq(db, TpchTable::Region)),
                )),
            )),
        )),

        // Q6: forecasting revenue change — a pure lineitem scan.
        QueryId::Q(6) => aggregate(seq(db, TpchTable::Lineitem)),

        // Q7: volume shipping — lineitem ⋈ orders ⋈ supplier ⋈ customer.
        QueryId::Q(7) => aggregate(hash_join(
            hash_join(
                hash_join(
                    seq(db, TpchTable::Lineitem),
                    hash(seq(db, TpchTable::Supplier)),
                ),
                hash_spill(frac(o, 0.10), 1, seq(db, TpchTable::Orders)),
            ),
            hash(hash_join(
                seq(db, TpchTable::Customer),
                hash(seq(db, TpchTable::Nation)),
            )),
        )),

        // Q8: national market share — part-filtered join over lineitem.
        QueryId::Q(8) => aggregate(hash_join(
            hash_join(
                hash_join(seq(db, TpchTable::Lineitem), hash(seq(db, TpchTable::Part))),
                hash_spill(frac(o, 0.08), 1, seq(db, TpchTable::Orders)),
            ),
            hash(hash_join(
                seq(db, TpchTable::Customer),
                hash(hash_join(
                    seq(db, TpchTable::Supplier),
                    hash(seq(db, TpchTable::Nation)),
                )),
            )),
        )),

        // Q9: product type profit measure — the paper's Figure 7: sequential
        // scans of part and lineitem with *index scans* on two objects at
        // different plan levels (priority 2 for the deeper one, priority 3
        // for the higher one). The paper's deep probe targets `supplier`;
        // at reduced scale supplier is so small that the DBMS buffer pool
        // absorbs it entirely, so we probe `partsupp` (the next join
        // partner of the same subtree) to keep priority-2 storage traffic
        // observable — see DESIGN.md.
        QueryId::Q(9) => {
            let deep_probe = idx(db, TpchIndex::PartsuppPartkey, 2 * o, 1.0, 1.0);
            let deep_join = hash_join(deep_probe, seq(db, TpchTable::Lineitem));
            let orders_probe = idx(db, TpchIndex::OrdersOrderkey, 3 * o, 0.8, 0.6);
            let mid_join = nested_loop(deep_join, orders_probe);
            let with_supplier = nested_loop(mid_join, seq(db, TpchTable::Supplier));
            let with_part = hash_join(with_supplier, hash(seq(db, TpchTable::Part)));
            aggregate(with_part)
        }

        // Q10: returned item reporting — customer ⋈ orders ⋈ lineitem.
        QueryId::Q(10) => sort_spill(
            frac(c, 0.10),
            hash_join(
                hash_join(
                    seq(db, TpchTable::Lineitem),
                    hash(seq(db, TpchTable::Orders)),
                ),
                hash(seq(db, TpchTable::Customer)),
            ),
        ),

        // Q11: important stock identification — partsupp ⋈ supplier ⋈
        // nation. One of the Fig. 5 sequential-dominated queries.
        QueryId::Q(11) => aggregate(hash_join(
            hash_join(
                seq(db, TpchTable::Partsupp),
                hash(seq(db, TpchTable::Supplier)),
            ),
            hash(seq(db, TpchTable::Nation)),
        )),

        // Q12: shipping modes — lineitem ⋈ orders.
        QueryId::Q(12) => aggregate(hash_join(
            seq(db, TpchTable::Lineitem),
            hash_spill(frac(o, 0.12), 1, seq(db, TpchTable::Orders)),
        )),

        // Q13: customer distribution — big outer join with a sizeable spill.
        QueryId::Q(13) => aggregate(hash_join(
            seq(db, TpchTable::Orders),
            hash_spill(frac(c, 0.5), 1, seq(db, TpchTable::Customer)),
        )),

        // Q14: promotion effect — lineitem ⋈ part.
        QueryId::Q(14) => aggregate(hash_join(
            seq(db, TpchTable::Lineitem),
            hash(seq(db, TpchTable::Part)),
        )),

        // Q15: top supplier — lineitem scanned twice (view + main query).
        QueryId::Q(15) => aggregate(hash_join(
            PlanNode::leaf(
                OperatorKind::SeqScan,
                Access::SeqScan {
                    table: db.table(TpchTable::Lineitem),
                    passes: 2,
                },
            ),
            hash(seq(db, TpchTable::Supplier)),
        )),

        // Q16: parts/supplier relationship — partsupp ⋈ part.
        QueryId::Q(16) => aggregate(hash_join(
            seq(db, TpchTable::Partsupp),
            hash_spill(frac(p, 0.3), 1, seq(db, TpchTable::Part)),
        )),

        // Q17: small-quantity-order revenue — lineitem with a correlated
        // aggregate over lineitem via the part key index.
        QueryId::Q(17) => aggregate(nested_loop(
            hash_join(seq(db, TpchTable::Part), hash(seq(db, TpchTable::Lineitem))),
            idx(db, TpchIndex::LineitemPartkey, frac(p, 2.0), 0.6, 0.4),
        )),

        // Q18: large volume customer — the paper's Figure 10: hash
        // aggregation over the full lineitem table spills a large amount of
        // temporary data (the shaded hash operators), plus scans of orders
        // and customer. The temp-data-dominated query of Fig. 9.
        QueryId::Q(18) => {
            let big_hash = hash_spill(frac(l, 0.30), 1, seq(db, TpchTable::Lineitem));
            let join_orders = hash_join(seq(db, TpchTable::Orders), big_hash);
            let with_customer = hash_join(join_orders, hash(seq(db, TpchTable::Customer)));
            let second_hash = hash_spill(frac(l, 0.12), 1, seq(db, TpchTable::Lineitem));
            aggregate(hash_join(with_customer, second_hash))
        }

        // Q19: discounted revenue — lineitem ⋈ part with complex predicates,
        // all sequential (one of the Fig. 5 queries).
        QueryId::Q(19) => aggregate(hash_join(
            seq(db, TpchTable::Lineitem),
            hash(seq(db, TpchTable::Part)),
        )),

        // Q20: potential part promotion — partsupp/part with a correlated
        // lineitem subquery via the part-key index.
        QueryId::Q(20) => aggregate(nested_loop(
            hash_join(
                seq(db, TpchTable::Partsupp),
                hash(hash_join(
                    seq(db, TpchTable::Supplier),
                    hash(seq(db, TpchTable::Nation)),
                )),
            ),
            idx(db, TpchIndex::LineitemPartkey, frac(ps, 0.5), 0.5, 0.3),
        )),

        // Q21: suppliers who kept orders waiting — the paper's Figure 8:
        // index scans on orders (deepest random operator → priority 2) and
        // on lineitem (higher level → priority 3), plus two sequential
        // scans of lineitem (the EXISTS / NOT EXISTS subqueries).
        QueryId::Q(21) => {
            let orders_probe = idx(db, TpchIndex::OrdersOrderkey, 3 * o, 0.9, 0.8);
            let deep_join = hash_join(orders_probe, seq(db, TpchTable::Lineitem));
            let lineitem_probe = idx(db, TpchIndex::LineitemOrderkey, 2 * o, 0.7, 0.55);
            let mid_join = nested_loop(deep_join, lineitem_probe);
            let exists_scan = seq(db, TpchTable::Lineitem);
            let top_join = nested_loop(mid_join, exists_scan);
            aggregate(hash_join(top_join, hash(seq(db, TpchTable::Supplier))))
        }

        // Q22: global sales opportunity — customer with an orders
        // anti-join via the customer key.
        QueryId::Q(22) => aggregate(hash_join(
            seq(db, TpchTable::Orders),
            hash_spill(frac(c, 0.2), 1, seq(db, TpchTable::Customer)),
        )),

        QueryId::Q(n) => panic!("unknown TPC-H query number {n}"),

        // RF1: insert SF*1500 orders and their lineitems.
        QueryId::Rf1 => PlanNode::node(
            OperatorKind::Result,
            Access::None,
            vec![
                update(db, TpchTable::Orders, frac(o, 0.001)),
                update(db, TpchTable::Lineitem, frac(l, 0.001)),
            ],
        ),

        // RF2: delete the same volume.
        QueryId::Rf2 => PlanNode::node(
            OperatorKind::Result,
            Access::None,
            vec![
                update(db, TpchTable::Orders, frac(o, 0.001)),
                update(db, TpchTable::Lineitem, frac(l, 0.001)),
            ],
        ),
    };

    // Silence "unused" for sizes only used by some arms.
    let _ = (s, c, p, ps);
    PlanTree::new(query.name(), root)
}

/// Convenience: builds every read-only query plan.
pub fn all_query_plans(db: &TpchDatabase) -> Vec<PlanTree> {
    QueryId::all_queries()
        .into_iter()
        .map(|q| build_plan(q, db))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::TpchScale;

    fn db() -> TpchDatabase {
        TpchDatabase::build(TpchScale::new(0.05))
    }

    #[test]
    fn every_query_builds_a_nonempty_plan() {
        let db = db();
        for q in QueryId::all_queries() {
            let plan = build_plan(q, &db);
            assert!(plan.size() >= 2, "{q} plan too small");
            assert_eq!(plan.name, q.name());
        }
        assert!(build_plan(QueryId::Rf1, &db).size() >= 2);
        assert!(build_plan(QueryId::Rf2, &db).size() >= 2);
    }

    #[test]
    fn q1_is_sequential_only() {
        let db = db();
        let plan = build_plan(QueryId::Q(1), &db);
        assert!(plan.profile().object_levels().is_empty());
    }

    #[test]
    fn q9_deep_probe_sits_below_the_orders_probe() {
        let db = db();
        let profile = build_plan(QueryId::Q(9), &db).profile();
        let level = |oid| profile.object_level(oid).expect("probed");
        let deep = db.table(TpchTable::Partsupp);
        let orders = db.table(TpchTable::Orders);
        assert!(level(deep) < level(orders));
        // Their indexes follow the same ordering.
        let d_idx = db.index(TpchIndex::PartsuppPartkey);
        let o_idx = db.index(TpchIndex::OrdersOrderkey);
        assert!(level(d_idx) < level(o_idx));
    }

    #[test]
    fn q21_probes_orders_below_lineitem() {
        let db = db();
        let profile = build_plan(QueryId::Q(21), &db).profile();
        let level = |oid| profile.object_level(oid).expect("probed");
        let orders = db.table(TpchTable::Orders);
        let lineitem = db.table(TpchTable::Lineitem);
        assert!(level(orders) < level(lineitem));
    }

    #[test]
    fn q18_spills_substantial_temporary_data() {
        let db = db();
        let plan = build_plan(QueryId::Q(18), &db);
        fn spilled(node: &PlanNode) -> u64 {
            let own = match node.access {
                Access::TempSpill { blocks, .. } => blocks,
                _ => 0,
            };
            own + node.children.iter().map(spilled).sum::<u64>()
        }
        let total = spilled(&plan.root);
        assert!(total > db.table_blocks(TpchTable::Lineitem) / 4);
    }

    #[test]
    fn refresh_functions_only_update() {
        let db = db();
        for q in [QueryId::Rf1, QueryId::Rf2] {
            let plan = build_plan(q, &db);
            fn all_updates(node: &PlanNode) -> bool {
                let own = matches!(node.access, Access::Update { .. } | Access::None);
                own && node.children.iter().all(all_updates)
            }
            assert!(all_updates(&plan.root), "{q} must only contain updates");
            assert!(plan.profile().object_levels().is_empty());
        }
    }

    #[test]
    fn query_names_round_trip() {
        assert_eq!(QueryId::Q(9).name(), "Q9");
        assert_eq!(QueryId::Rf1.name(), "RF1");
        assert!(QueryId::Rf2.is_refresh());
        assert!(!QueryId::Q(3).is_refresh());
        assert_eq!(QueryId::all_queries().len(), 22);
    }
}

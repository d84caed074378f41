//! Differential test of the request-program cursor against a reference
//! model: [`expand`] is the eager compiler the stream tree replaced — every
//! operation pushed into a `Vec`, pipelined inputs merged by the
//! proportional rule over materialised sequences. For the TPC-H power-test
//! plans and for generated plan trees the cursor must yield the same
//! operations in the same order, and compilation must leave the catalog in
//! the same state.
//!
//! `HSTORAGE_PROGRAM_SF` sets the TPC-H scale factor (default 0.05; CI's
//! release step runs 1.0, ≈ 270k operations a pass).

use hstorage_engine::{
    compile, Access, Catalog, CompileOptions, ContentType, IoOp, ObjectId, ObjectKind,
    OperatorKind, PlanNode, PlanTree, SemanticInfo,
};
use hstorage_storage::BlockRange;
use hstorage_tpch::power::power_test_sequence;
use hstorage_tpch::{build_plan, TpchDatabase, TpchScale};
use proptest::prelude::*;
use std::collections::HashMap;

/// Merges materialised streams proportionally: always the stream that is
/// the least far through, the first of them on a tie.
fn interleave<T: Copy>(streams: Vec<Vec<T>>) -> Vec<T> {
    let total: usize = streams.iter().map(|s| s.len()).sum();
    let mut cursors = vec![0usize; streams.len()];
    let mut out = Vec::with_capacity(total);
    for _ in 0..total {
        let mut best: Option<(usize, f64)> = None;
        for (i, stream) in streams.iter().enumerate() {
            if cursors[i] >= stream.len() {
                continue;
            }
            let progress = cursors[i] as f64 / stream.len() as f64;
            match best {
                Some((_, p)) if p <= progress => {}
                _ => best = Some((i, progress)),
            }
        }
        let (i, _) = best.expect("total count guarantees a non-exhausted stream");
        out.push(streams[i][cursors[i]]);
        cursors[i] += 1;
    }
    out
}

struct Expander<'a> {
    catalog: &'a mut Catalog,
    options: CompileOptions,
    levels: Vec<u32>,
    object_levels: HashMap<ObjectId, u32>,
    next_index: usize,
    deferred: Vec<IoOp>,
}

impl Expander<'_> {
    fn walk(&mut self, node: &PlanNode) -> Vec<IoOp> {
        let level = self.levels[self.next_index];
        self.next_index += 1;
        let children: Vec<Vec<IoOp>> = node.children.iter().map(|c| self.walk(c)).collect();
        let any_blocking_child = node.children.iter().any(|c| c.kind.is_blocking());
        let mut ops = if children.len() <= 1 || any_blocking_child {
            children.into_iter().flatten().collect()
        } else {
            interleave(children)
        };
        match node.access {
            Access::None => {}
            Access::SeqScan { table, passes } => {
                if let Some(range) = self.catalog.get(table).map(|t| t.range) {
                    let info = SemanticInfo::sequential_scan(table, level);
                    let chunk = self.options.seq_blocks_per_request;
                    chunks(range, chunk, passes, &mut ops, |range| {
                        IoOp::SequentialRead { info, range }
                    });
                }
            }
            Access::IndexScan {
                index,
                table,
                lookups,
                index_hot_fraction,
                table_hot_fraction,
            } => {
                let (Some(index_obj), Some(table_obj)) =
                    (self.catalog.get(index), self.catalog.get(table))
                else {
                    return ops;
                };
                let level_of = |oid| *self.object_levels.get(&oid).unwrap_or(&level);
                let probe = IoOp::IndexProbe {
                    index_info: SemanticInfo::random_access(
                        index,
                        ContentType::Index,
                        level_of(index),
                    ),
                    index_hot: hot_subset(index_obj.range, index_hot_fraction),
                    table_info: SemanticInfo::random_access(
                        table,
                        ContentType::RegularTable,
                        level_of(table),
                    ),
                    table_hot: hot_subset(table_obj.range, table_hot_fraction),
                };
                ops.extend((0..lookups).map(|_| probe));
            }
            Access::TempSpill {
                blocks,
                read_passes,
            } => {
                if blocks == 0 {
                    return ops;
                }
                let oid = self.catalog.allocate_temp(blocks);
                let range = self.catalog.get(oid).expect("temp just allocated").range;
                let chunk = self.options.temp_blocks_per_request;
                let (write_info, read_info) = (
                    SemanticInfo::temporary(oid, true),
                    SemanticInfo::temporary(oid, false),
                );
                let mut writes = Vec::new();
                chunks(range, chunk, 1, &mut writes, |range| IoOp::TempWrite {
                    info: write_info,
                    range,
                });
                ops = interleave(vec![ops, writes]);
                chunks(range, chunk, read_passes, &mut self.deferred, |range| {
                    IoOp::TempRead {
                        info: read_info,
                        range,
                    }
                });
                self.deferred.push(IoOp::TempDelete {
                    info: SemanticInfo::temporary_delete(oid),
                    range,
                    oid,
                });
            }
            Access::Update { table, blocks } => {
                if let Some(table_range) = self.catalog.get(table).map(|t| t.range) {
                    let info = SemanticInfo::update(table);
                    ops.extend((0..blocks).map(|_| IoOp::UpdateWrite { info, table_range }));
                }
            }
        }
        ops
    }
}

/// `passes` passes over `range`, one operation per `chunk` blocks.
fn chunks(
    range: BlockRange,
    chunk: u64,
    passes: u32,
    out: &mut Vec<IoOp>,
    op: impl Fn(BlockRange) -> IoOp,
) {
    for _ in 0..passes {
        let mut remaining = range;
        while !remaining.is_empty() {
            let (piece, rest) = remaining.split_at(chunk);
            out.push(op(piece));
            remaining = rest;
        }
    }
}

fn hot_subset(range: BlockRange, fraction: f64) -> BlockRange {
    if range.is_empty() {
        return range;
    }
    let len = ((range.len as f64 * fraction).ceil() as u64).clamp(1, range.len);
    BlockRange::new(range.start, len)
}

/// Rule 2's level of each randomly accessed object and the plan's
/// `(llow, lhigh)`, read off `operator_levels`.
fn random_levels(plan: &PlanTree) -> (HashMap<ObjectId, u32>, Option<(u32, u32)>) {
    let mut objects = HashMap::new();
    let mut bounds: Option<(u32, u32)> = None;
    for op in plan.operator_levels() {
        let level = op.effective_level;
        for oid in op.access.random_objects().into_iter().flatten() {
            let lowest = objects.entry(oid).or_insert(level);
            *lowest = level.min(*lowest);
            bounds = Some(bounds.map_or((level, level), |(lo, hi)| (lo.min(level), hi.max(level))));
        }
    }
    (objects, bounds)
}

/// The reference model: every operation of `plan`, materialised.
fn expand(plan: &PlanTree, catalog: &mut Catalog, options: CompileOptions) -> Vec<IoOp> {
    let mut expander = Expander {
        catalog,
        options,
        levels: plan
            .operator_levels()
            .iter()
            .map(|l| l.effective_level)
            .collect(),
        object_levels: random_levels(plan).0,
        next_index: 0,
        deferred: Vec::new(),
    };
    let mut ops = expander.walk(&plan.root);
    ops.append(&mut expander.deferred);
    ops
}

/// Compiles `plan` both ways — the cursor on `streamed`, the model on
/// `expanded`, two catalogs in the same state — and holds them equal.
/// Returns the number of operations.
fn assert_same_program(
    plan: &PlanTree,
    streamed: &mut Catalog,
    expanded: &mut Catalog,
    options: CompileOptions,
) -> usize {
    let program = compile(plan, streamed, options);
    let expected = expand(plan, expanded, options);
    let name = &plan.name;

    let mut cursor = program.cursor();
    assert_eq!(cursor.len(), expected.len(), "{name}: cursor length");
    for (i, want) in expected.iter().enumerate() {
        let got = cursor.next();
        assert_eq!(got.as_ref(), Some(want), "{name}: operation {i}");
        assert_eq!(
            cursor.len(),
            expected.len() - i - 1,
            "{name}: left after {i}"
        );
    }
    assert_eq!(cursor.next(), None, "{name}: cursor yields too many");
    assert_eq!(program.len(), expected.len(), "{name}: program length");
    assert_eq!(program.is_empty(), expected.is_empty());
    assert_eq!(
        program.level_bounds,
        random_levels(plan).1.unwrap_or((0, 0)),
        "{name}: level bounds"
    );

    // Same objects, and the same next temp file: the allocator's position
    // and the next object id agree too.
    let objects = |catalog: &Catalog| {
        let mut all: Vec<_> = catalog.iter().cloned().collect();
        all.sort_by_key(|o| o.oid);
        all
    };
    assert_eq!(objects(streamed), objects(expanded), "{name}: catalogs");
    let (a, b) = (streamed.allocate_temp(1), expanded.allocate_temp(1));
    assert_eq!(streamed.get(a), expanded.get(b), "{name}: next temp file");
    expected.len()
}

#[test]
fn power_test_plans_stream_the_operations_of_the_eager_expansion() {
    let scale = std::env::var("HSTORAGE_PROGRAM_SF")
        .map(|v| v.parse().expect("HSTORAGE_PROGRAM_SF is a scale factor"))
        .unwrap_or(0.05);
    let db = TpchDatabase::build(TpchScale::new(scale));
    // One catalog pair for the whole sequence: no deletion runs here, so
    // the temp files of earlier queries stay and the region wraps.
    let (mut streamed, mut expanded) = (db.catalog.clone(), db.catalog.clone());
    let sequence = power_test_sequence();
    assert_eq!(sequence.len(), 24);
    let mut operations = 0;
    for query in sequence {
        let plan = build_plan(query, &db);
        operations += assert_same_program(
            &plan,
            &mut streamed,
            &mut expanded,
            CompileOptions::default(),
        );
    }
    // ≈ 272k at scale factor 1.
    assert!(operations as f64 > 200_000.0 * scale, "{operations}");
}

/// Reads decisions off a fixed list of random words.
struct Dice<'a>(std::slice::Iter<'a, u64>);

impl Dice<'_> {
    fn below(&mut self, n: u64) -> u64 {
        self.0.next().expect("enough dice") % n
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }
}

/// Tables of 0, 1, 100 and 1,000 blocks, two indexes, and ids 6–7 that
/// name nothing.
fn small_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    let mut start = 0;
    for (name, kind, len) in [
        ("empty", ObjectKind::Table, 0),
        ("one", ObjectKind::Table, 1),
        ("hundred", ObjectKind::Table, 100),
        ("thousand", ObjectKind::Table, 1_000),
        ("idx_small", ObjectKind::Index, 3),
        ("idx_large", ObjectKind::Index, 40),
    ] {
        catalog.register(name, kind, BlockRange::new(start, len));
        start += len;
    }
    catalog.set_temp_region(BlockRange::new(10_000u64, 700));
    catalog
}

fn arbitrary_access(dice: &mut Dice<'_>) -> Access {
    let table = ObjectId(dice.pick(&[0, 1, 2, 3, 6]));
    match dice.below(6) {
        0 | 1 => Access::None,
        2 => Access::SeqScan {
            table,
            passes: dice.below(3) as u32,
        },
        3 => Access::IndexScan {
            index: ObjectId(dice.pick(&[4, 5, 7])),
            table,
            lookups: dice.pick(&[0, 1, 2, 17, 60]),
            index_hot_fraction: dice.pick(&[0.0, 0.3, 1.0]),
            table_hot_fraction: dice.pick(&[0.05, 1.0]),
        },
        4 => Access::TempSpill {
            blocks: dice.pick(&[0, 1, 31, 32, 33, 100]),
            read_passes: dice.below(3) as u32,
        },
        _ => Access::Update {
            table,
            blocks: dice.pick(&[0, 1, 9]),
        },
    }
}

fn arbitrary_node(dice: &mut Dice<'_>, depth: u32) -> PlanNode {
    let kind = dice.pick(&[
        OperatorKind::SeqScan,
        OperatorKind::IndexScan,
        OperatorKind::Hash,
        OperatorKind::Sort,
        OperatorKind::Materialize,
        OperatorKind::HashJoin,
        OperatorKind::MergeJoin,
        OperatorKind::NestedLoop,
        OperatorKind::Aggregate,
    ]);
    let access = arbitrary_access(dice);
    let children = if depth == 4 { 0 } else { dice.below(4) };
    let children = (0..children)
        .map(|_| arbitrary_node(dice, depth + 1))
        .collect();
    PlanNode::node(kind, access, children)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Generated plan trees, depth ≤ 4: blocking and pipelined parents, any
    /// access on any node, spills with 0–2 read passes, counts of zero,
    /// empty and one-block tables, ids the catalog does not know, request
    /// sizes of one block and sizes that divide nothing.
    #[test]
    fn generated_plans_stream_the_operations_of_the_eager_expansion(
        dice in prop::collection::vec(any::<u64>(), 1_024..1_025),
    ) {
        let mut dice = Dice(dice.iter());
        let options = CompileOptions {
            seq_blocks_per_request: dice.pick(&[1, 7, 64]),
            temp_blocks_per_request: dice.pick(&[1, 5, 32]),
        };
        let (mut streamed, mut expanded) = (small_catalog(), small_catalog());
        // Two plans on one catalog pair: the second allocates behind the
        // first one's temp files.
        for name in ["first", "second"] {
            let plan = PlanTree::new(name, arbitrary_node(&mut dice, 1));
            assert_same_program(&plan, &mut streamed, &mut expanded, options);
        }
    }
}

/// An index probe's index object: which leaf of a merge it came from.
fn probed_index(op: IoOp) -> u32 {
    match op {
        IoOp::IndexProbe { index_info, .. } => index_info.oid.0,
        other => panic!("unexpected op {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pipelined joins over index scans of up to 2^20 probes each, the
    /// first input itself a join of two scans when `nested`: the cursor
    /// merges in exactly the order of the `f64` model, whose progress
    /// quotients round. Leaves are told apart by their index, and the
    /// model merges the leaf ids rather than the operations.
    #[test]
    fn long_merges_follow_the_f64_model(
        lookups in prop::collection::vec(1u64..=1 << 20, 4..5),
        fanout in 2usize..4,
        nested in any::<bool>(),
    ) {
        let mut catalog = Catalog::new();
        let table = catalog.register("t", ObjectKind::Table, BlockRange::new(0u64, 10));
        let indexes: Vec<ObjectId> = (0..lookups.len())
            .map(|i| catalog.register(&format!("i{i}"), ObjectKind::Index, BlockRange::new(10 + i as u64, 1)))
            .collect();
        let scan = |i: usize| {
            let access = Access::IndexScan {
                index: indexes[i],
                table,
                lookups: lookups[i],
                index_hot_fraction: 1.0,
                table_hot_fraction: 1.0,
            };
            (
                PlanNode::leaf(OperatorKind::IndexScan, access),
                vec![indexes[i].0; lookups[i] as usize],
            )
        };
        let join = |inputs: Vec<(PlanNode, Vec<u32>)>| {
            let (nodes, ids): (Vec<PlanNode>, Vec<Vec<u32>>) = inputs.into_iter().unzip();
            (PlanNode::node(OperatorKind::HashJoin, Access::None, nodes), interleave(ids))
        };
        let mut inputs: Vec<_> = (0..fanout).map(scan).collect();
        if nested {
            inputs[0] = join(vec![scan(fanout), scan(0)]);
        }
        let (root, expected) = join(inputs);
        let program = compile(&PlanTree::new("merge", root), &mut catalog, CompileOptions::default());
        prop_assert_eq!(program.len(), expected.len());
        for (i, (got, want)) in program.cursor().map(probed_index).zip(&expected).enumerate() {
            prop_assert_eq!(got, *want, "operation {}", i);
        }
    }
}

//! Request programs: the compiled I/O behaviour of a query plan.
//!
//! The executor first *compiles* a plan tree against the catalog into a
//! [`RequestProgram`] and then *executes* it, assigning QoS policies at
//! issue time so that Rule 5 sees the registry state of the moment.
//! Keeping compilation separate from execution is also what lets the
//! concurrent-workload driver interleave several programs over one
//! storage system.
//!
//! A program is a **stream tree**, one node per plan operator rather than
//! one element per request: a leaf is either the same [`IoOp`] repeated
//! (index probes, update writes, a temp-file deletion) or whole passes
//! over a block range cut into fixed-size requests (scans, spill writes
//! and reads); an inner node runs its children back to back (blocking
//! operators) or merges them proportionally (pipelined joins, a spill's
//! generation phase). A [`ProgramCursor`] walks the tree and yields the
//! operations by value in the order an iterator-model executor with
//! blocking operators would issue them. Every node knows its length when
//! it is built, so the proportional merge can be decided one operation at
//! a time — least `yielded / length` first, the earlier child on a tie —
//! exactly as it would be over materialised sequences; the differential
//! test `tests/program_stream.rs` holds the cursor to that.

use crate::catalog::{Catalog, ObjectId};
use crate::plan::{Access, PlanNode, PlanTree};
use crate::semantic::{ContentType, SemanticInfo};
use hstorage_storage::BlockRange;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One unit of work of a compiled query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum IoOp {
    /// A sequential read of a contiguous range of a table.
    SequentialRead {
        /// Semantic information to attach.
        info: SemanticInfo,
        /// Blocks to read.
        range: BlockRange,
    },
    /// One index-scan probe: a random read of one index block followed by a
    /// random read of one table block. The concrete block addresses are
    /// drawn at execution time from the hot subsets.
    IndexProbe {
        /// Semantic info for the index access.
        index_info: SemanticInfo,
        /// Hot subset of the index to probe.
        index_hot: BlockRange,
        /// Semantic info for the table access.
        table_info: SemanticInfo,
        /// Hot subset of the table to access.
        table_hot: BlockRange,
    },
    /// A write of temporary data during the generation phase.
    TempWrite {
        /// Semantic information (temporary, write).
        info: SemanticInfo,
        /// Blocks to write.
        range: BlockRange,
    },
    /// A read of temporary data during the consumption phase.
    TempRead {
        /// Semantic information (temporary, read).
        info: SemanticInfo,
        /// Blocks to read.
        range: BlockRange,
    },
    /// Deletion of a temporary file at the end of its lifetime.
    TempDelete {
        /// Semantic information (temporary delete).
        info: SemanticInfo,
        /// The whole file being deleted.
        range: BlockRange,
        /// The temporary object to drop from the catalog.
        oid: ObjectId,
    },
    /// An application update of one random block.
    UpdateWrite {
        /// Semantic information (update).
        info: SemanticInfo,
        /// The table region the updated block is drawn from.
        table_range: BlockRange,
    },
}

/// Which operation a chunked stream cuts its range into.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum ChunkKind {
    SequentialRead,
    TempWrite,
    TempRead,
}

/// A node of the stream tree together with its read position: a program
/// holds the tree at position zero, a cursor advances its own copy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Stream {
    /// Operations the stream yields in total.
    len: u64,
    /// Operations yielded so far.
    taken: u64,
    shape: Shape,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    /// The same operation, `len` times.
    Repeat(IoOp),
    /// Whole passes over `range`, `chunk` blocks a request (the last
    /// request of a pass takes what is left).
    Chunked {
        kind: ChunkKind,
        info: SemanticInfo,
        range: BlockRange,
        chunk: u64,
        /// What the current pass has not handed out yet.
        rest: BlockRange,
    },
    /// The children back to back; `current` is the first that may still
    /// have operations.
    Concat {
        children: Vec<Stream>,
        current: usize,
    },
    /// The children merged proportionally, order kept within each. This
    /// models pipelined execution: the inputs of a non-blocking join
    /// produce and consume rows concurrently, so their I/O interleaves
    /// rather than running back to back. Each child carries its progress,
    /// `taken / len` (infinite once exhausted), recomputed only when it
    /// advances.
    Interleave(Vec<(f64, Stream)>),
}

impl Stream {
    fn repeat(op: IoOp, count: u64) -> Self {
        Stream {
            len: count,
            taken: 0,
            shape: Shape::Repeat(op),
        }
    }

    fn chunked(
        kind: ChunkKind,
        info: SemanticInfo,
        range: BlockRange,
        chunk: u64,
        passes: u32,
    ) -> Self {
        Stream {
            len: range.len.div_ceil(chunk) * u64::from(passes),
            taken: 0,
            shape: Shape::Chunked {
                kind,
                info,
                range,
                chunk,
                rest: range,
            },
        }
    }

    fn concat(parts: Vec<Stream>) -> Self {
        Self::combine(parts, |children| Shape::Concat {
            children,
            current: 0,
        })
    }

    fn interleave(parts: Vec<Stream>) -> Self {
        Self::combine(parts, |children| {
            Shape::Interleave(children.into_iter().map(|c| (0.0, c)).collect())
        })
    }

    /// An inner node over the non-empty `parts`. An empty part yields
    /// nothing under either combination, and a lone part is the
    /// combination, so the tree only keeps nodes that decide something.
    fn combine(mut parts: Vec<Stream>, shape: impl FnOnce(Vec<Stream>) -> Shape) -> Self {
        parts.retain(|part| part.len > 0);
        if parts.len() == 1 {
            return parts.pop().expect("one part");
        }
        Stream {
            len: parts.iter().map(|part| part.len).sum(),
            taken: 0,
            shape: shape(parts),
        }
    }

    fn is_exhausted(&self) -> bool {
        self.taken == self.len
    }

    fn next(&mut self) -> Option<IoOp> {
        if self.is_exhausted() {
            return None;
        }
        self.taken += 1;
        Some(match &mut self.shape {
            Shape::Repeat(op) => *op,
            Shape::Chunked {
                kind,
                info,
                range,
                chunk,
                rest,
            } => {
                let (piece, left) = rest.split_at(*chunk);
                *rest = if left.is_empty() { *range } else { left };
                let info = *info;
                match kind {
                    ChunkKind::SequentialRead => IoOp::SequentialRead { info, range: piece },
                    ChunkKind::TempWrite => IoOp::TempWrite { info, range: piece },
                    ChunkKind::TempRead => IoOp::TempRead { info, range: piece },
                }
            }
            Shape::Concat { children, current } => loop {
                match children[*current].next() {
                    Some(op) => break op,
                    None => *current += 1,
                }
            },
            Shape::Interleave(children) => {
                // The child that is the least far through, the first of
                // them on a tie. `taken < len` here, so some child has
                // finite progress.
                let mut least = 0;
                for (i, (progress, _)) in children.iter().enumerate() {
                    if *progress < children[least].0 {
                        least = i;
                    }
                }
                let (progress, child) = &mut children[least];
                let op = child.next().expect("a child with finite progress");
                *progress = if child.is_exhausted() {
                    f64::INFINITY
                } else {
                    child.taken as f64 / child.len as f64
                };
                op
            }
        })
    }
}

/// A compiled query: its name, the plan-level bounds used by Function (1),
/// and the operations as a stream tree read through [`Self::cursor`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestProgram {
    /// Query name.
    pub name: String,
    /// The query's own `(llow, lhigh)` over random operators; `(0, 0)` when
    /// the plan has no random operators.
    pub level_bounds: (u32, u32),
    ops: Stream,
}

impl RequestProgram {
    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len as usize
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.len == 0
    }

    /// A cursor at the program's first operation. Its size is that of the
    /// plan, not of the request stream.
    pub fn cursor(&self) -> ProgramCursor {
        ProgramCursor {
            ops: self.ops.clone(),
        }
    }
}

/// Yields a program's operations in order; `len()` is what remains.
#[derive(Debug, Clone)]
pub struct ProgramCursor {
    ops: Stream,
}

impl Iterator for ProgramCursor {
    type Item = IoOp;

    fn next(&mut self) -> Option<IoOp> {
        self.ops.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.ops.len - self.ops.taken) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for ProgramCursor {}

/// Compilation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompileOptions {
    /// Blocks per sequential read request.
    pub seq_blocks_per_request: u64,
    /// Blocks per temporary-data request.
    pub temp_blocks_per_request: u64,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            seq_blocks_per_request: 64,
            temp_blocks_per_request: 32,
        }
    }
}

/// Returns the leading sub-range of `range` covering `fraction` of it
/// (at least one block for non-empty ranges).
fn hot_subset(range: BlockRange, fraction: f64) -> BlockRange {
    if range.is_empty() {
        return range;
    }
    let len = ((range.len as f64 * fraction).ceil() as u64).clamp(1, range.len);
    BlockRange::new(range.start, len)
}

/// What a plan walk needs besides the node it is at.
struct Compiler<'a> {
    catalog: &'a mut Catalog,
    options: CompileOptions,
    /// Effective level of every operator, by pre-order index.
    levels: Vec<u32>,
    /// Rule 2: the level that determines the priority of requests to an
    /// object is the lowest level of any operator that accesses it
    /// randomly — not necessarily the accessing operator's own level.
    object_levels: HashMap<ObjectId, u32>,
    /// Pre-order index of the next operator visited.
    next_index: usize,
    /// Consumption phases and deletions of the spills met so far.
    deferred: Vec<Stream>,
}

/// Compiles a plan tree into a request program.
///
/// Children of blocking operators (hash, sort, materialize) complete before
/// anything above them runs; children of pipelined operators (joins) have
/// their I/O interleaved proportionally.
///
/// Temporary spills model the two phases of Section 4.2.3: the *generation*
/// phase (the write stream) is interleaved with the spilling operator's
/// input, and the *consumption* phase (the read streams) plus the deletion
/// are deferred to the end of the query, when the materialised data is
/// actually consumed by the upper part of the plan. Temporary files are
/// allocated from the catalog's temp region; the corresponding
/// [`IoOp::TempDelete`] drops them again at execution time.
///
/// # Panics
///
/// If either request size in `options` is zero.
pub fn compile(plan: &PlanTree, catalog: &mut Catalog, options: CompileOptions) -> RequestProgram {
    assert!(
        options.seq_blocks_per_request > 0,
        "seq_blocks_per_request must be positive"
    );
    assert!(
        options.temp_blocks_per_request > 0,
        "temp_blocks_per_request must be positive"
    );
    let mut compiler = Compiler {
        catalog,
        options,
        levels: plan
            .operator_levels()
            .iter()
            .map(|l| l.effective_level)
            .collect(),
        object_levels: plan.random_object_levels(),
        next_index: 0,
        deferred: Vec::new(),
    };
    let mut parts = vec![compiler.walk(&plan.root)];
    parts.append(&mut compiler.deferred);
    RequestProgram {
        name: plan.name.clone(),
        level_bounds: plan.random_level_bounds().unwrap_or((0, 0)),
        ops: Stream::concat(parts),
    }
}

impl Compiler<'_> {
    fn walk(&mut self, node: &PlanNode) -> Stream {
        let level = self.levels[self.next_index];
        self.next_index += 1;
        let children: Vec<Stream> = node.children.iter().map(|c| self.walk(c)).collect();
        // Blocking children finish before their siblings start; pipelined
        // children interleave.
        let input = if node.children.iter().any(|c| c.kind.is_blocking()) {
            Stream::concat(children)
        } else {
            Stream::interleave(children)
        };
        match node.access {
            Access::TempSpill {
                blocks,
                read_passes,
            } if blocks > 0 => {
                let oid = self.catalog.allocate_temp(blocks);
                let range = self.catalog.get(oid).expect("temp just allocated").range;
                let chunk = self.options.temp_blocks_per_request;
                // Consumption (one or more read streams) and the deletion
                // at the end of the file's lifetime wait for the end of
                // the query; generation (one write stream) interleaves
                // with the input.
                self.deferred.push(Stream::chunked(
                    ChunkKind::TempRead,
                    SemanticInfo::temporary(oid, false),
                    range,
                    chunk,
                    read_passes,
                ));
                let delete = IoOp::TempDelete {
                    info: SemanticInfo::temporary_delete(oid),
                    range,
                    oid,
                };
                self.deferred.push(Stream::repeat(delete, 1));
                let writes = Stream::chunked(
                    ChunkKind::TempWrite,
                    SemanticInfo::temporary(oid, true),
                    range,
                    chunk,
                    1,
                );
                Stream::interleave(vec![input, writes])
            }
            access => Stream::concat(vec![input, self.own_io(access, level)]),
        }
    }

    /// The I/O of one operator that runs where the operator stands in the
    /// plan (everything but a spill). Operator kinds are only needed for
    /// level computation: the access fully describes the I/O, and an
    /// in-memory hash or sort has none.
    fn own_io(&self, access: Access, level: u32) -> Stream {
        let nothing = Stream::concat(Vec::new());
        match access {
            Access::None | Access::TempSpill { .. } => nothing,
            Access::SeqScan { table, passes } => match self.catalog.get(table) {
                Some(table_obj) => Stream::chunked(
                    ChunkKind::SequentialRead,
                    SemanticInfo::sequential_scan(table, level),
                    table_obj.range,
                    self.options.seq_blocks_per_request,
                    passes,
                ),
                None => nothing,
            },
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
                    return nothing;
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
                Stream::repeat(probe, lookups)
            }
            Access::Update { table, blocks } => match self.catalog.get(table) {
                Some(table_obj) => {
                    let write = IoOp::UpdateWrite {
                        info: SemanticInfo::update(table),
                        table_range: table_obj.range,
                    };
                    Stream::repeat(write, blocks)
                }
                None => nothing,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ObjectKind;
    use crate::plan::OperatorKind;

    fn setup() -> (Catalog, ObjectId, ObjectId) {
        let mut cat = Catalog::new();
        let table = cat.register("orders", ObjectKind::Table, BlockRange::new(0u64, 1000));
        let index = cat.register(
            "idx_orders",
            ObjectKind::Index,
            BlockRange::new(1000u64, 100),
        );
        cat.set_temp_region(BlockRange::new(100_000u64, 10_000));
        (cat, table, index)
    }

    #[test]
    fn seq_scan_is_chunked() {
        let (mut cat, table, _) = setup();
        let plan = PlanTree::new(
            "scan",
            PlanNode::leaf(OperatorKind::SeqScan, Access::SeqScan { table, passes: 1 }),
        );
        let prog = compile(&plan, &mut cat, CompileOptions::default());
        assert_eq!(prog.len(), 1000usize.div_ceil(64));
        let total: u64 = prog
            .cursor()
            .map(|op| match op {
                IoOp::SequentialRead { range, .. } => range.len,
                _ => 0,
            })
            .sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn index_scan_emits_one_probe_per_lookup() {
        let (mut cat, table, index) = setup();
        let plan = PlanTree::new(
            "probe",
            PlanNode::leaf(
                OperatorKind::IndexScan,
                Access::IndexScan {
                    index,
                    table,
                    lookups: 250,
                    index_hot_fraction: 0.5,
                    table_hot_fraction: 0.1,
                },
            ),
        );
        let prog = compile(&plan, &mut cat, CompileOptions::default());
        assert_eq!(prog.len(), 250);
        match prog.cursor().next().unwrap() {
            IoOp::IndexProbe {
                index_hot,
                table_hot,
                ..
            } => {
                assert_eq!(index_hot.len, 50);
                assert_eq!(table_hot.len, 100);
            }
            other => panic!("unexpected op {other:?}"),
        }
    }

    #[test]
    fn temp_spill_generates_write_read_delete_lifecycle() {
        let (mut cat, _, _) = setup();
        let plan = PlanTree::new(
            "spill",
            PlanNode::leaf(
                OperatorKind::Hash,
                Access::TempSpill {
                    blocks: 64,
                    read_passes: 2,
                },
            ),
        );
        let before = cat.len();
        let prog = compile(&plan, &mut cat, CompileOptions::default());
        assert_eq!(cat.len(), before + 1);
        let writes = prog
            .cursor()
            .filter(|o| matches!(o, IoOp::TempWrite { .. }))
            .count();
        let reads = prog
            .cursor()
            .filter(|o| matches!(o, IoOp::TempRead { .. }))
            .count();
        let deletes = prog
            .cursor()
            .filter(|o| matches!(o, IoOp::TempDelete { .. }))
            .count();
        assert_eq!(writes, 2); // 64 blocks / 32 per request
        assert_eq!(reads, 4); // two passes
        assert_eq!(deletes, 1);
        // Writes come before reads, delete is last.
        assert!(matches!(
            prog.cursor().next().unwrap(),
            IoOp::TempWrite { .. }
        ));
        assert!(matches!(
            prog.cursor().last().unwrap(),
            IoOp::TempDelete { .. }
        ));
    }

    #[test]
    fn update_emits_one_op_per_block() {
        let (mut cat, table, _) = setup();
        let plan = PlanTree::new(
            "rf1",
            PlanNode::leaf(OperatorKind::Update, Access::Update { table, blocks: 17 }),
        );
        let prog = compile(&plan, &mut cat, CompileOptions::default());
        assert_eq!(prog.len(), 17);
        assert!(prog.cursor().all(|o| matches!(o, IoOp::UpdateWrite { .. })));
    }

    #[test]
    fn hot_subset_bounds() {
        let r = BlockRange::new(10u64, 100);
        assert_eq!(hot_subset(r, 0.25).len, 25);
        assert_eq!(hot_subset(r, 0.0).len, 1);
        assert_eq!(hot_subset(r, 1.0).len, 100);
        assert_eq!(hot_subset(r, 2.0).len, 100);
        assert!(hot_subset(BlockRange::empty(), 0.5).is_empty());
    }

    #[test]
    fn level_bounds_default_to_zero_without_random_ops() {
        let (mut cat, table, _) = setup();
        let plan = PlanTree::new(
            "scan",
            PlanNode::leaf(OperatorKind::SeqScan, Access::SeqScan { table, passes: 1 }),
        );
        let prog = compile(&plan, &mut cat, CompileOptions::default());
        assert_eq!(prog.level_bounds, (0, 0));
    }

    fn scan_with(options: CompileOptions) {
        let (mut cat, table, _) = setup();
        let plan = PlanTree::new(
            "scan",
            PlanNode::leaf(OperatorKind::SeqScan, Access::SeqScan { table, passes: 1 }),
        );
        compile(&plan, &mut cat, options);
    }

    #[test]
    #[should_panic(expected = "seq_blocks_per_request must be positive")]
    fn zero_sequential_request_size_is_rejected() {
        scan_with(CompileOptions {
            seq_blocks_per_request: 0,
            ..CompileOptions::default()
        });
    }

    #[test]
    #[should_panic(expected = "temp_blocks_per_request must be positive")]
    fn zero_temporary_request_size_is_rejected() {
        scan_with(CompileOptions {
            temp_blocks_per_request: 0,
            ..CompileOptions::default()
        });
    }
}

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
//! operations in the order an iterator-model executor with blocking
//! operators would issue them. Each step descends to one leaf, which
//! hands its operation up by reference — a chunked leaf keeps the request
//! it cut last in the node — and the cursor copies it once. Every node
//! knows its length when it is built, so the proportional merge can be
//! decided one operation at a time — least `yielded / length` first,
//! compared exactly in integers, the earlier child on a tie — exactly as
//! it would be over materialised sequences; the differential test
//! `tests/program_stream.rs` holds the cursor to that.

use crate::catalog::{Catalog, ObjectId};
use crate::plan::{Access, PlanNode, PlanProfile, PlanTree};
use crate::semantic::{ContentType, SemanticInfo};
use hstorage_storage::BlockRange;
use serde::{Deserialize, Serialize};

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
        /// The operation last handed out: a sequential read, temp write
        /// or temp read whose range each request replaces by its piece.
        op: IoOp,
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
    /// rather than running back to back.
    ///
    /// The next operation comes from the unexhausted child with the least
    /// progress `taken / len`, the earliest child on a tie. Progress is
    /// compared exactly, `a.taken * b.len` against `b.taken * a.len` in
    /// `u128`. For children shorter than 2^26 operations this is also the
    /// order of comparing the two quotients as `f64`: distinct ratios of
    /// such lengths differ by more than the rounding of both divisions,
    /// and equal ratios round alike.
    Interleave(Vec<Stream>),
}

/// The range of an operation a chunked stream cuts: the whole range it
/// is built with, then the piece each request reads or writes.
fn piece(op: &mut IoOp) -> &mut BlockRange {
    match op {
        IoOp::SequentialRead { range, .. }
        | IoOp::TempWrite { range, .. }
        | IoOp::TempRead { range, .. } => range,
        other => unreachable!("{other:?} is not cut into requests"),
    }
}

impl Stream {
    fn repeat(op: IoOp, count: u64) -> Self {
        Stream {
            len: count,
            taken: 0,
            shape: Shape::Repeat(op),
        }
    }

    /// `passes` passes over the range of `op` — a sequential read, temp
    /// write or temp read — one request per `chunk` blocks.
    fn chunked(mut op: IoOp, chunk: u64, passes: u32) -> Self {
        let range = *piece(&mut op);
        Stream {
            len: range.len.div_ceil(chunk) * u64::from(passes),
            taken: 0,
            shape: Shape::Chunked {
                op,
                range,
                chunk,
                rest: range,
            },
        }
    }

    /// `self`, then `next`: a concatenation, without a node or a `Vec`
    /// when either is empty.
    fn then(self, next: Stream) -> Self {
        if self.len == 0 {
            next
        } else if next.len == 0 {
            self
        } else {
            Self::concat(vec![self, next])
        }
    }

    fn concat(parts: Vec<Stream>) -> Self {
        Self::combine(parts, |children| Shape::Concat {
            children,
            current: 0,
        })
    }

    fn interleave(parts: Vec<Stream>) -> Self {
        Self::combine(parts, Shape::Interleave)
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

    fn next(&mut self) -> Option<&IoOp> {
        if self.is_exhausted() {
            None
        } else {
            Some(self.advance())
        }
    }

    /// Hands out the next operation, by reference into the leaf that
    /// holds it. The stream must not be exhausted.
    fn advance(&mut self) -> &IoOp {
        self.taken += 1;
        match &mut self.shape {
            Shape::Repeat(op) => op,
            Shape::Chunked {
                op,
                range,
                chunk,
                rest,
            } => {
                let (next, left) = rest.split_at(*chunk);
                *rest = if left.is_empty() { *range } else { left };
                *piece(op) = next;
                op
            }
            Shape::Concat { children, current } => {
                // `taken < len` here, so a child from `current` on still
                // has operations.
                while children[*current].is_exhausted() {
                    *current += 1;
                }
                children[*current].advance()
            }
            Shape::Interleave(children) => {
                // The least far through, the first of them on a tie. The
                // search starts from progress 1, which only an exhausted
                // child reaches; `taken < len` here, so some child is
                // below it.
                let (mut at, mut taken, mut len) = (0, 1u64, 1u64);
                for (i, child) in children.iter().enumerate() {
                    if u128::from(child.taken) * u128::from(len)
                        < u128::from(taken) * u128::from(child.len)
                    {
                        (at, taken, len) = (i, child.taken, child.len);
                    }
                }
                children[at].advance()
            }
        }
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

    /// The one copy of the operation: the tree hands it up by reference.
    #[inline]
    fn next(&mut self) -> Option<IoOp> {
        self.ops.next().copied()
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
    /// The operators' effective levels, by pre-order index, and Rule 2:
    /// the level that determines the priority of requests to an object is
    /// the lowest level of any operator that accesses it randomly — not
    /// necessarily the accessing operator's own level.
    profile: &'a PlanProfile,
    /// Pre-order index of the next operator visited.
    next_index: usize,
    /// Consumption phases and deletions of the spills met so far.
    deferred: Vec<Stream>,
}

/// Compiles a plan tree into a request program: [`compile_with_profile`]
/// with the plan's [`PlanTree::profile`], for a caller that has no use for
/// the profile otherwise.
///
/// # Panics
///
/// If either request size in `options` is zero.
pub fn compile(plan: &PlanTree, catalog: &mut Catalog, options: CompileOptions) -> RequestProgram {
    compile_with_profile(plan, &plan.profile(), catalog, options)
}

/// Compiles a plan tree, whose [`PlanTree::profile`] is `profile`, into a
/// request program.
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
/// If either request size in `options` is zero, or if `profile` has fewer
/// levels than `plan` has operators.
pub fn compile_with_profile(
    plan: &PlanTree,
    profile: &PlanProfile,
    catalog: &mut Catalog,
    options: CompileOptions,
) -> RequestProgram {
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
        profile,
        next_index: 0,
        deferred: Vec::new(),
    };
    let root = compiler.walk(&plan.root);
    let ops = if compiler.deferred.is_empty() {
        root
    } else {
        Stream::concat(std::iter::once(root).chain(compiler.deferred).collect())
    };
    RequestProgram {
        name: plan.name.clone(),
        level_bounds: profile.level_bounds().unwrap_or((0, 0)),
        ops,
    }
}

impl Compiler<'_> {
    fn walk(&mut self, node: &PlanNode) -> Stream {
        let level = self.profile.levels()[self.next_index];
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
                let read = IoOp::TempRead {
                    info: SemanticInfo::temporary(oid, false),
                    range,
                };
                self.deferred
                    .push(Stream::chunked(read, chunk, read_passes));
                let delete = IoOp::TempDelete {
                    info: SemanticInfo::temporary_delete(oid),
                    range,
                    oid,
                };
                self.deferred.push(Stream::repeat(delete, 1));
                let write = IoOp::TempWrite {
                    info: SemanticInfo::temporary(oid, true),
                    range,
                };
                let writes = Stream::chunked(write, chunk, 1);
                Stream::interleave(vec![input, writes])
            }
            access => input.then(self.own_io(access, level)),
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
                Some(table_obj) => {
                    let scan = IoOp::SequentialRead {
                        info: SemanticInfo::sequential_scan(table, level),
                        range: table_obj.range,
                    };
                    Stream::chunked(scan, self.options.seq_blocks_per_request, passes)
                }
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
                let level_of = |oid| self.profile.object_level(oid).unwrap_or(level);
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

    /// A leaf of `len` update writes to object `id`, so the order of a
    /// merge reads off the ids.
    fn leaf(id: u32, len: u64) -> Stream {
        let op = IoOp::UpdateWrite {
            info: SemanticInfo::update(ObjectId(id)),
            table_range: BlockRange::new(0u64, 1),
        };
        Stream::repeat(op, len)
    }

    /// The object ids of everything `stream` yields, in order.
    fn ids(mut stream: Stream) -> Vec<u32> {
        let mut out = Vec::new();
        while let Some(op) = stream.next() {
            match op {
                IoOp::UpdateWrite { info, .. } => out.push(info.oid.0),
                other => panic!("unexpected op {other:?}"),
            }
        }
        out
    }

    #[test]
    fn interleave_ties_go_to_the_earlier_child() {
        let merge = |a: u64, b: u64| ids(Stream::interleave(vec![leaf(0, a), leaf(1, b)]));
        assert_eq!(merge(1, 1), [0, 1]);
        // 1/2 and 2/4 tie, and so do 2/6 and 1/3: each tie starts a
        // round with child 0.
        assert_eq!(merge(2, 4), [0, 1, 1, 0, 1, 1]);
        assert_eq!(merge(3, 6), [0, 1, 1, 0, 1, 1, 0, 1, 1]);
        assert_eq!(merge(4, 2), [0, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn interleave_merges_three_children_by_least_progress() {
        let merged = ids(Stream::interleave(vec![leaf(0, 2), leaf(1, 3), leaf(2, 6)]));
        // Progress before each pick (child 0, 1, 2): 0 0 0 → 0; ½ 0 0 →
        // 1; ½ ⅓ 0 → 2; ½ ⅓ ⅙ → 2; ½ ⅓ ⅓ → 1 (tie with 2, earlier);
        // ½ ⅔ ⅓ → 2; ½ ⅔ ½ → 0 (tie with 2, earlier); 1 ⅔ ½ → 2;
        // 1 ⅔ ⅔ → 1; 1 1 ⅔ → 2, 2.
        assert_eq!(merged, [0, 1, 2, 2, 1, 2, 0, 2, 1, 2, 2]);
    }

    #[test]
    fn interleave_skips_an_exhausted_child() {
        // After its one op, child 0 is done at progress 1, which is more
        // than anything the others reach before their last op: it is
        // never picked again, and the rest merge as if it were absent.
        let merged = ids(Stream::interleave(vec![leaf(0, 1), leaf(1, 2), leaf(2, 4)]));
        assert_eq!(merged, [0, 1, 2, 2, 1, 2, 2]);
        assert_eq!(
            ids(Stream::interleave(vec![leaf(0, 1), leaf(1, 3)])),
            [0, 1, 1, 1]
        );
        // An empty part is dropped when the node is built.
        let merged = Stream::interleave(vec![leaf(0, 0), leaf(1, 2), leaf(2, 2)]);
        assert_eq!(ids(merged), [1, 2, 1, 2]);
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

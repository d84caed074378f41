//! A query's allocation is O(plan nodes), not O(requests): `run_query` of
//! one index-scan plan allocates the same number of bytes for a thousand
//! probes as for a hundred thousand, and a short lookup's setup — its plan
//! profile, program and registration — makes a handful of allocations.
//! Under the paged arrays' page churn — a buffer pool's and a block
//! table's residency pages freed and set up again — a warm stream
//! allocates nothing. A test binary of its own, because the counting
//! allocator is the whole process's.

use hstorage_cache::table::TableSlot;
use hstorage_cache::{BlockTable, CacheStats, StorageSystem};
use hstorage_engine::{
    Access, BufferPool, Catalog, ExecutorConfig, ObjectKind, OperatorKind, PlanNode, PlanTree,
    QueryExecutor,
};
use hstorage_storage::{
    BlockAddr, BlockRange, ClassifiedRequest, PolicyConfig, RequestClass, TrimCommand,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

thread_local! {
    /// `(calls, bytes)` this thread has asked the allocator for: every
    /// `alloc`, `alloc_zeroed` and `realloc` is a call. Per thread, so the
    /// test harness's own threads do not count.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATED.try_with(|a| {
        let (calls, total) = a.get();
        a.set((calls + 1, total + bytes as u64));
    });
}

/// `(calls, bytes)` allocated by this thread while `f` runs, and its result.
fn allocated<T>(f: impl FnOnce() -> T) -> ((u64, u64), T) {
    let (calls, bytes) = ALLOCATED.with(Cell::get);
    let out = f();
    let (calls_after, bytes_after) = ALLOCATED.with(Cell::get);
    ((calls_after - calls, bytes_after - bytes), out)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` without a destructor, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Accepts everything and keeps nothing: what is counted is the engine.
struct NullStorage;

impl StorageSystem for NullStorage {
    fn name(&self) -> &str {
        "null"
    }
    fn submit(&self, _req: ClassifiedRequest) {}
    fn submit_batch(&self, _reqs: Vec<ClassifiedRequest>) {}
    fn trim(&self, _cmd: &TrimCommand) {}
    fn stats(&self) -> CacheStats {
        CacheStats::new()
    }
    fn now(&self) -> Duration {
        Duration::ZERO
    }
    fn reset_stats(&self) {}
    fn resident_blocks(&self) -> u64 {
        0
    }
}

/// A catalog with one table and its index, and an index-scan plan of
/// `lookups` probes over them.
fn lookup(lookups: u64) -> (Catalog, PlanTree) {
    // Both objects inside the buffer pool's first page of 1,024 blocks.
    let mut catalog = Catalog::new();
    let table = catalog.register("orders", ObjectKind::Table, BlockRange::new(0u64, 800));
    let index = catalog.register("idx", ObjectKind::Index, BlockRange::new(800u64, 100));
    let plan = PlanTree::new(
        "probe",
        PlanNode::leaf(
            OperatorKind::IndexScan,
            Access::IndexScan {
                index,
                table,
                lookups,
                index_hot_fraction: 0.5,
                table_hot_fraction: 0.2,
            },
        ),
    );
    (catalog, plan)
}

/// Bytes allocated by one `run_query` of an index scan of `lookups` probes.
fn bytes_for(lookups: u64) -> u64 {
    let (mut catalog, plan) = lookup(lookups);
    // No buffer pool: its residency map grows with the blocks touched,
    // which is the working set's size and not the plan's.
    let config = ExecutorConfig {
        buffer_pool_blocks: 0,
        ..ExecutorConfig::default()
    };
    let mut executor = QueryExecutor::new(config, PolicyConfig::paper_default());
    let ((_, bytes), stats) = allocated(|| executor.run_query(&plan, &mut catalog, &NullStorage));
    assert_eq!(stats.requests(RequestClass::Random), 2 * lookups);
    bytes
}

#[test]
fn run_query_allocates_by_plan_size_not_by_request_count() {
    let (small, large) = (bytes_for(1_000), bytes_for(100_000));
    assert!(small > 0, "the allocator counts");
    assert_eq!(small, large, "bytes for 1,000 and for 100,000 probes");
}

/// The allocations a lookup's `run_query` makes once its executor is
/// warm: the plan profile's levels and objects, and the program's name,
/// which the query's statistics take over. The registry, the policy memo,
/// the probe group's buffers and the buffer pool reuse what the first
/// query left them.
const LOOKUP_ALLOCATIONS: u64 = 3;

#[test]
fn a_warm_lookup_makes_a_handful_of_allocations() {
    let (mut catalog, plan) = lookup(16);
    // A pool smaller than the first query's 32 accesses, so that query
    // fills it and every later one evicts, misses and reaches storage
    // through the policy memo, all without growing anything.
    let config = ExecutorConfig {
        buffer_pool_blocks: 16,
        ..ExecutorConfig::default()
    };
    let mut executor = QueryExecutor::new(config, PolicyConfig::paper_default());
    let mut run = || allocated(|| executor.run_query(&plan, &mut catalog, &NullStorage));
    let ((first, _), _) = run();
    let ((calls, bytes), stats) = run();
    assert!(
        stats.requests(RequestClass::Random) > 0,
        "the lookup misses"
    );
    assert!(first > calls, "the first query warms: {first} then {calls}");
    assert!(
        calls <= LOOKUP_ALLOCATIONS,
        "a warm lookup made {calls} allocations ({bytes} bytes), at most {LOOKUP_ALLOCATIONS} expected"
    );
}

/// A stream of pool accesses whose pages churn: each access misses on a
/// page no buffered block lies on, so it sets that page up, and the
/// eviction it makes empties and frees another. Page numbers run past
/// 256, so the index's directory is two levels deep and its leaf nodes
/// empty and are freed too. Once a first lap has taken the pages and
/// directory nodes a lap holds at once, later laps take every one from
/// a free list.
#[test]
fn a_warm_pool_with_page_churn_allocates_nothing() {
    let mut pool = BufferPool::new(16);
    let block = |i: u64| BlockAddr((i % 512) * 3 * 1024 + i % 5);
    let mut lap = |start: u64| {
        allocated(|| {
            let mut hits = 0;
            for i in start..start + 512 {
                pool.prefetch(block(i));
                hits += u64::from(pool.access(block(i), true));
                // A hit on the block just admitted.
                hits += u64::from(pool.access(block(i), true));
            }
            hits
        })
    };
    let ((first, _), _) = lap(0);
    assert!(first > 0, "the first lap sets the pages up");
    for start in [512, 1024] {
        let ((calls, bytes), hits) = lap(start);
        assert_eq!(hits, 512, "every second access hits");
        assert_eq!((calls, bytes), (0, 0), "a warm lap from {start}");
    }
}

/// A block table's residency pages under insert/remove churn: a window
/// of 16 resident blocks slides over local addresses 40,000 apart, so
/// nearly every insert sets a residency page up and every removal frees
/// one, across page numbers past 256. After a first lap nothing grows.
#[test]
fn a_warm_residency_churn_allocates_nothing() {
    let mut table = BlockTable::with_capacity(64, 1);
    let block = |i: u64| BlockAddr((i % 1024) * 40_000);
    let mut lap = |start: u64| {
        allocated(|| {
            for i in start..start + 1024 {
                assert!(table.insert(block(i), TableSlot::default()).is_none());
                if i >= 16 {
                    assert!(table.remove(block(i - 16)).is_some());
                }
            }
        })
    };
    let ((first, _), ()) = lap(0);
    assert!(first > 0, "the first lap sets the pages up");
    for start in [1024, 2048] {
        let ((calls, bytes), ()) = lap(start);
        assert_eq!((calls, bytes), (0, 0), "a warm lap from {start}");
    }
    assert_eq!(table.len(), 16);
    table.audit().unwrap();
}

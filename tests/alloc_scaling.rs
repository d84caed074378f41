//! A query's allocation is O(plan nodes), not O(requests): `run_query` of
//! one index-scan plan allocates the same number of bytes for a thousand
//! probes as for a hundred thousand. A test binary of its own, because the
//! counting allocator is the whole process's.

use hstorage_cache::{CacheStats, StorageSystem};
use hstorage_engine::{
    Access, Catalog, ExecutorConfig, ObjectKind, OperatorKind, PlanNode, PlanTree, QueryExecutor,
};
use hstorage_storage::{BlockRange, ClassifiedRequest, PolicyConfig, RequestClass, TrimCommand};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

thread_local! {
    /// Bytes this thread has asked the allocator for. Per thread, so the
    /// test harness's own threads do not count.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
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

/// Bytes allocated by one `run_query` of an index scan of `lookups` probes.
fn bytes_for(lookups: u64) -> u64 {
    let mut catalog = Catalog::new();
    let table = catalog.register("orders", ObjectKind::Table, BlockRange::new(0u64, 2_000));
    let index = catalog.register("idx", ObjectKind::Index, BlockRange::new(2_000u64, 200));
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
    // No buffer pool: its residency map grows with the blocks touched,
    // which is the working set's size and not the plan's.
    let config = ExecutorConfig {
        buffer_pool_blocks: 0,
        ..ExecutorConfig::default()
    };
    let mut executor = QueryExecutor::new(config, PolicyConfig::paper_default());
    let before = BYTES.with(Cell::get);
    let stats = executor.run_query(&plan, &mut catalog, &NullStorage);
    let bytes = BYTES.with(Cell::get) - before;
    assert_eq!(stats.requests(RequestClass::Random), 2 * lookups);
    bytes
}

#[test]
fn run_query_allocates_by_plan_size_not_by_request_count() {
    let (small, large) = (bytes_for(1_000), bytes_for(100_000));
    assert!(small > 0, "the allocator counts");
    assert_eq!(small, large, "bytes for 1,000 and for 100,000 probes");
}

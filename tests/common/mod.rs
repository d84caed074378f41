//! Helpers shared by the integration suites.

use hstorage_cache::policy::{CachePolicy, HitOutcome, PolicyRequest, RemoveReason};
use hstorage_cache::{CachePolicyKind, MigrationConfig, StorageConfig, StorageConfigKind};
use hstorage_storage::{
    BlockAddr, BlockRange, CachePriority, ClassifiedRequest, IoRequest, PolicyConfig, QosPolicy,
    RequestClass,
};

/// Env var the CI policy matrix sets to focus the equivalence suites on a
/// single replacement policy (one of [`CachePolicyKind::label`]'s values:
/// `semantic-priority`, `lru`, `cflru`, `2q`, `arc`, `per-stream`).
#[allow(dead_code)] // the inert-scan suite runs one fixed configuration
pub const POLICY_ENV: &str = "HSTORAGE_POLICY";

/// The cache policies the equivalence suites run against: the single kind
/// named by [`POLICY_ENV`] when it is set (the CI policy-matrix job), or
/// every selectable kind otherwise (local `cargo test`). An unknown label
/// panics so a matrix typo fails the job instead of silently testing the
/// default.
#[allow(dead_code)]
pub fn matrix_kinds() -> Vec<CachePolicyKind> {
    match std::env::var(POLICY_ENV) {
        Ok(label) => {
            let kind = CachePolicyKind::from_label(&label).unwrap_or_else(|| {
                panic!(
                    "{POLICY_ENV}={label:?} names no cache policy; expected one of {}",
                    CachePolicyKind::all()
                        .iter()
                        .map(|k| k.label())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            });
            vec![kind]
        }
        Err(_) => CachePolicyKind::all().to_vec(),
    }
}

/// Env var the CI migration matrix sets to run the equivalence suites
/// with the tier-migration engine attached (`on`) or detached (`off`,
/// the default). With migration on but no `migrate_idle` pulses, heat
/// tracking rides every submit yet must not perturb a single cache
/// decision — so the suites' equivalence assertions double as the proof
/// that the tracker is observationally free.
#[allow(dead_code)]
pub const MIGRATION_ENV: &str = "HSTORAGE_MIGRATION";

/// The migration configuration the equivalence suites attach to every
/// cache engine they build: [`MigrationConfig::on`] when [`MIGRATION_ENV`]
/// is `on` (the CI migration leg), disabled otherwise. Any other value
/// panics so a matrix typo fails the job instead of silently testing the
/// default.
#[allow(dead_code)]
pub fn matrix_migration() -> MigrationConfig {
    match std::env::var(MIGRATION_ENV) {
        Ok(v) if v == "on" => MigrationConfig::on(),
        Ok(v) if v == "off" => MigrationConfig::off(),
        Ok(v) => panic!("{MIGRATION_ENV}={v:?} must be \"on\" or \"off\""),
        Err(_) => MigrationConfig::off(),
    }
}

/// The hStorage-DB engine of `capacity` blocks over `shards` shards, every
/// other field at its default: what the suites hand to
/// `CacheEngine::new` after setting the knobs under test.
#[allow(dead_code)] // the suites that build engines only through `SystemConfig` skip it
pub fn hstorage(capacity: u64, shards: usize) -> StorageConfig {
    StorageConfig::new(StorageConfigKind::HStorageDb, capacity).with_shards(shards)
}

/// Thread count of the stress tests: `HSTORAGE_STRESS_THREADS` (the CI
/// contention job re-runs them at 8, 16 and 32), or 8.
#[allow(dead_code)] // every suite compiles this module; only three stress
pub fn stress_threads() -> u64 {
    std::env::var("HSTORAGE_STRESS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(8)
}

/// xorshift64*: the seeded trace generators' only source of randomness.
#[allow(dead_code)] // only the suites that generate traces draw from it
pub struct Rng(pub u64);

#[allow(dead_code)]
impl Rng {
    /// The next draw, reduced to `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) % n
    }
}

/// One request over a 256-block address space (the engines hold 96, so
/// shards fill and evict): multi-block reads and writes of every class
/// whose handling is per block. Buffered updates stay single-block — the
/// write-buffer drain check is per *request*, the one thing a block-wise
/// replay would legitimately do differently.
#[allow(dead_code)] // only the trace-driven suites draw requests
pub fn request(rng: &mut Rng) -> ClassifiedRequest {
    let start = rng.below(256);
    let len = 1 + rng.below(40);
    let read = |len, sequential| IoRequest::read(BlockRange::new(start, len), sequential);
    let write = |len| IoRequest::write(BlockRange::new(start, len), false);
    match rng.below(9) {
        0 => ClassifiedRequest::new(write(1), RequestClass::Update, QosPolicy::WriteBuffer),
        1 => ClassifiedRequest::new(write(len), RequestClass::Update, QosPolicy::priority(3)),
        2 => ClassifiedRequest::new(
            read(len, true),
            RequestClass::Sequential,
            QosPolicy::NonCachingNonEviction,
        ),
        3 => ClassifiedRequest::new(
            write(len),
            RequestClass::TemporaryData,
            QosPolicy::priority(1),
        ),
        4 => ClassifiedRequest::new(
            read(len, false),
            RequestClass::TemporaryData,
            QosPolicy::priority(1),
        ),
        5 => ClassifiedRequest::new(read(0, false), RequestClass::Random, QosPolicy::priority(2)),
        6 => ClassifiedRequest::new(
            read(len, false),
            RequestClass::TemporaryDataTrim,
            QosPolicy::NonCachingEviction,
        ),
        _ => ClassifiedRequest::new(
            read(len, false),
            RequestClass::Random,
            QosPolicy::priority(2 + rng.below(3) as u8),
        ),
    }
}

/// A shipped policy with one of the engine's shortcuts declined and
/// everything else forwarded, so the engine takes its full path where the
/// shortcut would have applied: the twin that shortcut is held to.
#[allow(dead_code)] // only the suites that build twins construct it
struct Twin {
    policy: Box<dyn CachePolicy>,
    /// Whether repeat hits may be declared idempotent.
    repeat_hits: bool,
    /// Whether request shapes may be declared inert.
    inert: bool,
}

impl CachePolicy for Twin {
    fn on_hit(
        &mut self,
        lbn: BlockAddr,
        node: u32,
        current: CachePriority,
        req: &PolicyRequest,
    ) -> HitOutcome {
        self.policy.on_hit(lbn, node, current, req)
    }

    fn admits(&self, req: &PolicyRequest) -> bool {
        self.policy.admits(req)
    }

    fn is_inert(&self, req: &PolicyRequest) -> bool {
        self.inert && self.policy.is_inert(req)
    }

    fn repeat_hit_idempotent(&self) -> bool {
        self.repeat_hits && self.policy.repeat_hit_idempotent()
    }

    fn pop_victim(&mut self, incoming: BlockAddr, req: &PolicyRequest) -> Option<BlockAddr> {
        self.policy.pop_victim(incoming, req)
    }

    fn on_insert(&mut self, lbn: BlockAddr, req: &PolicyRequest) -> (CachePriority, u32) {
        self.policy.on_insert(lbn, req)
    }

    fn on_remove(&mut self, lbn: BlockAddr, node: u32, group: CachePriority, reason: RemoveReason) {
        self.policy.on_remove(lbn, node, group, reason);
    }

    fn on_trim_absent(&mut self, lbn: BlockAddr) {
        self.policy.on_trim_absent(lbn);
    }

    fn buffers_writes(&self) -> bool {
        self.policy.buffers_writes()
    }

    fn drain_write_buffer(&mut self) -> Vec<BlockAddr> {
        self.policy.drain_write_buffer()
    }
}

/// The per-shard factory of `kind`'s [`Twin`], for
/// `CacheEngine::with_policy_factory`: `false` declines a shortcut.
#[allow(dead_code)]
fn twin(
    kind: CachePolicyKind,
    config: &PolicyConfig,
    repeat_hits: bool,
    inert: bool,
) -> impl Fn(u64) -> Box<dyn CachePolicy> {
    let config = *config;
    move |capacity| {
        Box::new(Twin {
            policy: Box::new(kind.build(&config, capacity)),
            repeat_hits,
            inert,
        })
    }
}

/// `kind`'s twin whose repeat hits are not idempotent, so every
/// submission takes the full path: the twin the repeat-hit fast path is
/// held to (contention and accounting suites).
#[allow(dead_code)]
pub fn locked(
    kind: CachePolicyKind,
    config: &PolicyConfig,
) -> impl Fn(u64) -> Box<dyn CachePolicy> {
    twin(kind, config, false, true)
}

/// `kind`'s twin that declares no request inert, so every block of an
/// inert read takes the full placement path: the twin the inert path is
/// held to (traversal and inert-scan suites).
#[allow(dead_code)]
pub fn per_block(
    kind: CachePolicyKind,
    config: &PolicyConfig,
) -> impl Fn(u64) -> Box<dyn CachePolicy> {
    twin(kind, config, true, false)
}

//! QoS policies of the hybrid storage system.
//!
//! Section 3.2 of the paper defines the QoS vocabulary of the two-level
//! hybrid storage prototype as a set of *caching priorities* described by a
//! 3-tuple `{N, t, b}`:
//!
//! * `N`  — total number of priorities; a smaller number is a *higher*
//!   priority (better chance of being cached),
//! * `t`  — the non-caching threshold: requests with priority `>= t` never
//!   cause cache allocation. The paper sets `t = N - 1`, yielding two
//!   non-caching priorities: `N - 1` ("non-caching and non-eviction") and
//!   `N` ("non-caching and eviction"),
//! * `b`  — fraction of the cache usable as a write buffer before a flush
//!   to the second level is forced.
//!
//! A request carries exactly one [`QosPolicy`]; the storage system maps it
//! to the priority of every block the request touches.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A caching priority. Priority 1 is the highest (most cache-worthy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CachePriority(pub u8);

impl CachePriority {
    /// The highest possible priority (used for temporary data, Rule 3).
    pub const HIGHEST: CachePriority = CachePriority(1);

    /// Whether this priority outranks (is more cache-worthy than) `other`.
    #[inline]
    pub fn outranks(self, other: CachePriority) -> bool {
        self.0 < other.0
    }
}

impl fmt::Display for CachePriority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// The QoS policy attached to a single I/O request.
///
/// This is the high-level service abstraction the DBMS storage manager
/// speaks; the storage system translates it into cache admission/eviction
/// decisions (Section 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QosPolicy {
    /// A caching priority in `[1, t)`: the accessed blocks compete for cache
    /// space at this priority.
    Priority(CachePriority),
    /// "Non-caching and non-eviction" (priority `N - 1`, Rule 1): blocks not
    /// already cached are *not* admitted; blocks already cached keep their
    /// previous priority untouched.
    NonCachingNonEviction,
    /// "Non-caching and eviction" (priority `N`, Rule 3 for TRIM/delete):
    /// blocks not cached are not admitted; blocks already cached are demoted
    /// so that they are evicted as soon as space is needed.
    NonCachingEviction,
    /// The write-buffer priority (Rule 4): the write wins cache space over
    /// any other priority; dirty data is flushed to the second level when
    /// the write-buffer share `b` is exceeded.
    WriteBuffer,
}

impl QosPolicy {
    /// Convenience constructor for a numbered priority.
    pub fn priority(p: u8) -> Self {
        QosPolicy::Priority(CachePriority(p))
    }

    /// Whether blocks accessed under this policy may be *admitted* into the
    /// cache when absent.
    pub fn admits(&self) -> bool {
        matches!(self, QosPolicy::Priority(_) | QosPolicy::WriteBuffer)
    }

    /// Whether this policy demotes already-cached blocks for prompt eviction.
    pub fn evicts(&self) -> bool {
        matches!(self, QosPolicy::NonCachingEviction)
    }
}

impl fmt::Display for QosPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QosPolicy::Priority(p) => write!(f, "{p}"),
            QosPolicy::NonCachingNonEviction => write!(f, "non-caching/non-eviction"),
            QosPolicy::NonCachingEviction => write!(f, "non-caching/eviction"),
            QosPolicy::WriteBuffer => write!(f, "write-buffer"),
        }
    }
}

/// The `{N, t, b}` policy configuration of Section 3.2, plus the priority
/// range reserved for random requests (Rule 2, "priority range [n1, n2]").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyConfig {
    /// Total number of priorities `N` (`N > 0`).
    pub total_priorities: u8,
    /// Non-caching threshold `t` (`0 <= t <= N`). Blocks with priority `>= t`
    /// are never admitted. The paper uses `t = N - 1`.
    pub non_caching_threshold: u8,
    /// Write-buffer share `b` of the cache capacity, `0.0 ..= 1.0`.
    /// The paper uses 10% for OLAP workloads.
    pub write_buffer_fraction: f64,
    /// Highest priority available to random requests (`n1`).
    pub random_range_high: u8,
    /// Lowest priority available to random requests (`n2 >= n1`).
    pub random_range_low: u8,
}

impl PolicyConfig {
    /// The configuration used throughout the paper's evaluation:
    /// Table 1 assigns priority 1 to temporary data, priorities `2..=N-2`
    /// to random requests, `N-1` to sequential requests and `N` to TRIM,
    /// with a 10% write buffer.
    pub fn paper_default() -> Self {
        let n = 8;
        PolicyConfig {
            total_priorities: n,
            non_caching_threshold: n - 1,
            write_buffer_fraction: 0.10,
            random_range_high: 2,
            random_range_low: n - 2,
        }
    }

    /// Creates a configuration with `n` priorities, `t = n - 1`, a random
    /// range `[2, n-2]`, and the given write-buffer fraction.
    pub fn with_priorities(n: u8, write_buffer_fraction: f64) -> Self {
        assert!(n >= 4, "need at least 4 priorities: temp, random, N-1, N");
        PolicyConfig {
            total_priorities: n,
            non_caching_threshold: n - 1,
            write_buffer_fraction,
            random_range_high: 2,
            random_range_low: n - 2,
        }
    }

    /// Validates the structural invariants of the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.total_priorities == 0 {
            return Err("N must be > 0".into());
        }
        if self.non_caching_threshold > self.total_priorities {
            return Err(format!(
                "t = {} must be <= N = {}",
                self.non_caching_threshold, self.total_priorities
            ));
        }
        if !(0.0..=1.0).contains(&self.write_buffer_fraction) {
            return Err("b must be in [0, 1]".into());
        }
        if self.random_range_high > self.random_range_low {
            return Err("random priority range must satisfy n1 <= n2".into());
        }
        if self.random_range_low >= self.non_caching_threshold {
            return Err("random priority range must stay below the non-caching threshold".into());
        }
        Ok(())
    }

    /// The "non-caching and non-eviction" priority (`N - 1`).
    pub fn non_caching_non_eviction(&self) -> CachePriority {
        CachePriority(self.total_priorities - 1)
    }

    /// The "non-caching and eviction" priority (`N`).
    pub fn non_caching_eviction(&self) -> CachePriority {
        CachePriority(self.total_priorities)
    }

    /// Resolves a [`QosPolicy`] to the concrete priority number used by the
    /// cache's priority groups. The write buffer is modelled as priority 0,
    /// which outranks every numbered priority — matching the paper's
    /// statement that an update request can "win" cache space over requests
    /// of any other priority.
    pub fn resolve(&self, policy: QosPolicy) -> CachePriority {
        match policy {
            QosPolicy::Priority(p) => p,
            QosPolicy::NonCachingNonEviction => self.non_caching_non_eviction(),
            QosPolicy::NonCachingEviction => self.non_caching_eviction(),
            QosPolicy::WriteBuffer => CachePriority(0),
        }
    }

    /// Whether the resolved priority is admissible into the cache
    /// (strictly below the non-caching threshold `t`).
    pub fn admissible(&self, prio: CachePriority) -> bool {
        prio.0 < self.non_caching_threshold
    }
}

impl Default for PolicyConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table_1() {
        let c = PolicyConfig::paper_default();
        assert!(c.validate().is_ok());
        assert_eq!(c.non_caching_threshold, c.total_priorities - 1);
        assert_eq!(c.random_range_high, 2);
        assert_eq!(c.random_range_low, c.total_priorities - 2);
        assert!((c.write_buffer_fraction - 0.10).abs() < f64::EPSILON);
    }

    #[test]
    fn priority_ordering() {
        assert!(CachePriority(1).outranks(CachePriority(2)));
        assert!(!CachePriority(3).outranks(CachePriority(3)));
        assert!(!CachePriority(5).outranks(CachePriority(2)));
    }

    #[test]
    fn policy_admission_semantics() {
        assert!(QosPolicy::priority(2).admits());
        assert!(QosPolicy::WriteBuffer.admits());
        assert!(!QosPolicy::NonCachingNonEviction.admits());
        assert!(!QosPolicy::NonCachingEviction.admits());
        assert!(QosPolicy::NonCachingEviction.evicts());
        assert!(!QosPolicy::NonCachingNonEviction.evicts());
    }

    #[test]
    fn resolve_maps_special_policies() {
        let c = PolicyConfig::paper_default();
        assert_eq!(
            c.resolve(QosPolicy::NonCachingNonEviction),
            CachePriority(c.total_priorities - 1)
        );
        assert_eq!(
            c.resolve(QosPolicy::NonCachingEviction),
            CachePriority(c.total_priorities)
        );
        assert_eq!(c.resolve(QosPolicy::WriteBuffer), CachePriority(0));
        assert_eq!(c.resolve(QosPolicy::priority(3)), CachePriority(3));
    }

    #[test]
    fn admissibility_respects_threshold() {
        let c = PolicyConfig::paper_default();
        assert!(c.admissible(CachePriority(1)));
        assert!(c.admissible(CachePriority(c.non_caching_threshold - 1)));
        assert!(!c.admissible(CachePriority(c.non_caching_threshold)));
        assert!(!c.admissible(CachePriority(c.total_priorities)));
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut c = PolicyConfig::paper_default();
        c.non_caching_threshold = c.total_priorities + 1;
        assert!(c.validate().is_err());

        let mut c = PolicyConfig::paper_default();
        c.write_buffer_fraction = 1.5;
        assert!(c.validate().is_err());

        let mut c = PolicyConfig::paper_default();
        c.random_range_high = c.random_range_low + 1;
        assert!(c.validate().is_err());

        let mut c = PolicyConfig::paper_default();
        c.random_range_low = c.non_caching_threshold;
        assert!(c.validate().is_err());
    }

    #[test]
    fn with_priorities_constructor() {
        let c = PolicyConfig::with_priorities(6, 0.2);
        assert!(c.validate().is_ok());
        assert_eq!(c.total_priorities, 6);
        assert_eq!(c.non_caching_threshold, 5);
        assert_eq!(c.random_range_low, 4);
    }
}

//! Process-wide trace interning: synthesize each catalog workload once.
//!
//! Sweeps and fleet simulations run the same `(AppId, Platform)` workload
//! thousands of times; re-synthesizing the phase trace per trial is pure
//! waste (the generators are deterministic, so every rebuild is
//! bit-identical). [`app_trace`] memoizes synthesis in a lazily-populated
//! global table keyed by `(AppId, Platform)` and hands out shared
//! `Arc<AppTrace>` handles, so a 1024-node fleet running the 24-app catalog
//! holds 24 trace allocations, not 1024.
//!
//! The table only ever grows to the catalog size (24 apps × 3 platforms)
//! and traces are immutable once built, so entries are never evicted.
//! Sweeps that need to *mutate* a trace use [`app_trace_owned`] (or build
//! from [`crate::base_spec`] directly) as the escape hatch.
//!
//! [`synthesis_count`] exposes how many traces have actually been built —
//! the test-only observability hook behind the "exactly one synthesis per
//! key" CI gate.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use magus_hetsim::AppTrace;

use crate::catalog::{synthesize_trace, AppId, Platform};

type InternTable = Mutex<HashMap<(AppId, Platform), Arc<AppTrace>>>;

static TABLE: OnceLock<InternTable> = OnceLock::new();

/// Number of traces synthesized from scratch by [`app_trace`] since
/// process start. Incremented under the table lock, so it counts unique
/// key insertions exactly — a warm table never bumps it.
static SYNTHESES: AtomicU64 = AtomicU64::new(0);

/// Instantiate `app` for `platform`, served from the process-wide intern
/// table: the first call for a key synthesizes the trace (see
/// [`synthesize_trace`]); every later call — from any thread — returns a
/// pointer-equal clone of the same `Arc`.
#[must_use]
pub fn app_trace(app: AppId, platform: Platform) -> Arc<AppTrace> {
    let table = TABLE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = table.lock().expect("trace intern table poisoned");
    // Synthesis happens under the lock: concurrent first calls for one key
    // agree on a single allocation instead of racing to build duplicates.
    Arc::clone(map.entry((app, platform)).or_insert_with(|| {
        SYNTHESES.fetch_add(1, Ordering::Relaxed);
        Arc::new(synthesize_trace(app, platform))
    }))
}

/// Bulk-instantiate one trace handle per requested `(app, platform)` key,
/// in order, under a **single** table-lock acquisition. This is the
/// fleet-construction fast path: building a 100k-node fleet through
/// [`app_trace`] would take 100k lock round-trips to hand out at most
/// catalog-size distinct traces; this takes one. Synthesis still happens
/// at most once per distinct key, and the returned `Arc`s are
/// pointer-equal to what [`app_trace`] serves.
#[must_use]
pub fn app_traces(keys: &[(AppId, Platform)]) -> Vec<Arc<AppTrace>> {
    let table = TABLE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = table.lock().expect("trace intern table poisoned");
    keys.iter()
        .map(|&(app, platform)| {
            Arc::clone(map.entry((app, platform)).or_insert_with(|| {
                SYNTHESES.fetch_add(1, Ordering::Relaxed);
                Arc::new(synthesize_trace(app, platform))
            }))
        })
        .collect()
}

/// Owned copy of an interned trace — the escape hatch for sweeps that
/// mutate the trace (e.g. [`AppTrace::extend_with`]) and must not touch
/// the shared allocation.
#[must_use]
pub fn app_trace_owned(app: AppId, platform: Platform) -> AppTrace {
    (*app_trace(app, platform)).clone()
}

/// Total from-scratch trace syntheses performed by [`app_trace`] in this
/// process. Bounded by the catalog size (apps × platforms): a warm
/// full-suite run adds zero.
#[must_use]
pub fn synthesis_count() -> u64 {
    SYNTHESES.load(Ordering::Relaxed)
}

/// Number of distinct `(AppId, Platform)` keys currently interned.
#[must_use]
pub fn interned_trace_count() -> usize {
    TABLE
        .get()
        .map_or(0, |t| t.lock().expect("trace intern table poisoned").len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interned_calls_are_pointer_equal() {
        let a = app_trace(AppId::Bfs, Platform::IntelA100);
        let b = app_trace(AppId::Bfs, Platform::IntelA100);
        assert!(Arc::ptr_eq(&a, &b));
        let c = app_trace(AppId::Bfs, Platform::IntelMax1550);
        assert!(!Arc::ptr_eq(&a, &c), "distinct keys get distinct traces");
    }

    #[test]
    fn owned_copy_detaches_from_the_table() {
        let shared = app_trace(AppId::Srad, Platform::IntelA100);
        let mut owned = app_trace_owned(AppId::Srad, Platform::IntelA100);
        assert_eq!(*shared, owned);
        owned.phases.truncate(1);
        assert_ne!(*shared, owned, "mutating the copy must not alias");
        assert_eq!(*app_trace(AppId::Srad, Platform::IntelA100), *shared);
    }

    #[test]
    fn bulk_interning_matches_single_key_interning() {
        let keys = [
            (AppId::Bfs, Platform::IntelA100),
            (AppId::Srad, Platform::IntelA100),
            (AppId::Bfs, Platform::IntelA100), // duplicate key, same Arc
        ];
        let bulk = app_traces(&keys);
        assert_eq!(bulk.len(), 3);
        assert!(Arc::ptr_eq(&bulk[0], &bulk[2]));
        for (trace, &(app, platform)) in bulk.iter().zip(&keys) {
            assert!(Arc::ptr_eq(trace, &app_trace(app, platform)));
        }
        // A warm bulk call synthesizes nothing.
        let count = synthesis_count();
        let again = app_traces(&keys);
        assert_eq!(synthesis_count(), count);
        assert!(Arc::ptr_eq(&again[1], &bulk[1]));
    }

    #[test]
    fn synthesis_counter_tracks_interned_keys() {
        // Warm a key twice: the counter and table size must agree, and the
        // second call must not synthesize again.
        let _ = app_trace(AppId::Gemm, Platform::IntelA100);
        let count = synthesis_count();
        let interned = interned_trace_count() as u64;
        let _ = app_trace(AppId::Gemm, Platform::IntelA100);
        assert_eq!(synthesis_count(), count, "warm hit must not synthesize");
        assert_eq!(interned_trace_count() as u64, interned);
        assert_eq!(count, interned, "one synthesis per interned key");
    }
}

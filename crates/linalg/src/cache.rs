//! Generic process-wide caching of derived matrix factorizations.
//!
//! The covariance matrices driving correlated-Rayleigh generation are small
//! but expensive to decompose relative to the per-block work, and realistic
//! deployments open *many* generators over a handful of distinct matrices —
//! one per named scenario. [`FactorCache`] is the shared storage behind
//! those "pay for the decomposition once per process" paths: a bounded map
//! from the **exact bit pattern** of a matrix ([`MatrixKey`]) to an `Arc` of
//! whatever was derived from it (an eigen-coloring, …).
//!
//! # Concurrency design
//!
//! One `Mutex` guards the whole store: the map, the recency clock and the
//! counters. The traffic it serves is one lookup per opened stream or
//! network group — a handful per process, each followed by millions of
//! samples — so a single lock costs nothing measurable, and it buys the
//! simplest correct contract:
//!
//! * **Compute under the lock, exactly once.** A miss runs the
//!   factorization while holding the lock, so concurrent first requests
//!   for the same key queue behind it and then hit the published value:
//!   the expensive factorization runs exactly once per key.
//! * **Poison recovery.** Entries and counters are only written *after*
//!   `compute` returns, so a `compute` that panics leaves them
//!   consistent; later lookups take the poisoned guard and carry on
//!   (failures, panics included, are never stored).
//! * **LRU eviction.** Entries carry a recency tick refreshed on every
//!   hit; when the store is full the least-recently-used entry is evicted.
//!
//! A `compute` closure must not look up the same cache: the lock is not
//! re-entrant, so such a lookup would deadlock (or panic).
//!
//! Keying on `f64::to_bits` of every entry makes cache hits *trivially*
//! bit-identical to the uncached path: a hit returns the very value a fresh
//! computation of the same input would have produced (the factorizations in
//! this workspace are deterministic functions of their input), so the
//! golden/determinism guarantees of the scalar kernel backend carry over
//! unchanged.
//!
//! Hit/miss/eviction counters are exposed through [`FactorCache::stats`] so
//! integration tests can observe sharing (e.g. two scenarios with the same
//! covariance spec must produce exactly one decomposition).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::matrix::CMatrix;

/// The exact bit pattern of a complex matrix: shape plus `f64::to_bits` of
/// every entry's real and imaginary part, in row-major order.
///
/// Two matrices map to the same key **iff** they are bitwise identical
/// (`0.0` and `-0.0` differ, as do distinct NaN payloads — both are the
/// conservative choice for a cache that promises bit-identical results).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MatrixKey {
    rows: usize,
    cols: usize,
    bits: Vec<u64>,
}

impl MatrixKey {
    /// Captures the key of a matrix.
    #[must_use]
    pub fn of(matrix: &CMatrix) -> Self {
        let mut bits = Vec::with_capacity(2 * matrix.as_slice().len());
        for z in matrix.as_slice() {
            bits.push(z.re.to_bits());
            bits.push(z.im.to_bits());
        }
        Self {
            rows: matrix.rows(),
            cols: matrix.cols(),
            bits,
        }
    }
}

/// Counters of one [`FactorCache`], read with [`FactorCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (and store) a fresh value.
    pub misses: u64,
    /// Entries dropped because the cache was at capacity.
    pub evictions: u64,
    /// Entries currently stored.
    pub entries: usize,
}

/// Everything behind the cache's one lock: each entry's value with the
/// recency tick of its last use, the clock those ticks come from, and the
/// counters.
#[derive(Debug)]
struct Store<T> {
    map: BTreeMap<MatrixKey, (Arc<T>, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A bounded, process-wide map from [`MatrixKey`] to a shared derived
/// value, behind one mutex.
///
/// Designed to live in a `static`: construction is `const`. See the
/// [module docs](self) for the concurrency design — compute under the
/// lock, exactly once per key, LRU eviction.
#[derive(Debug)]
pub struct FactorCache<T> {
    capacity: usize,
    store: Mutex<Store<T>>,
}

impl<T> FactorCache<T> {
    /// Creates an empty cache holding at most `capacity` entries
    /// (`capacity == 0` disables storage: every lookup recomputes).
    #[must_use]
    pub const fn new(capacity: usize) -> Self {
        Self {
            capacity,
            store: Mutex::new(Store {
                map: BTreeMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// Locks the store, recovering the guard if a `compute` closure
    /// panicked while holding it: entries and counters are only written
    /// after `compute` returns, so a poisoned guard is still consistent.
    fn lock(&self) -> MutexGuard<'_, Store<T>> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the cached value for `key`, computing and storing it with
    /// `compute` on a miss.
    ///
    /// `compute` runs under the cache's lock, so concurrent first requests
    /// for the same key wait for it and then hit: the computation happens
    /// exactly once per key (unless it fails — failures are not cached,
    /// and the next request computes again). `compute` must not look up
    /// this cache.
    ///
    /// # Errors
    /// Propagates `compute`'s error; nothing is stored or counted as a miss
    /// when the computation fails.
    pub fn get_or_try_insert_with<E>(
        &self,
        key: MatrixKey,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        let mut guard = self.lock();
        let store = &mut *guard;
        store.tick += 1;
        if let Some((value, last_used)) = store.map.get_mut(&key) {
            *last_used = store.tick;
            store.hits += 1;
            return Ok(Arc::clone(value));
        }
        let value = Arc::new(compute()?);
        store.misses += 1;
        if self.capacity == 0 {
            return Ok(value);
        }
        if store.map.len() >= self.capacity {
            let lru = store
                .map
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(k, _)| k.clone());
            if let Some(lru) = lru {
                store.map.remove(&lru);
                store.evictions += 1;
            }
        }
        store.map.insert(key, (Arc::clone(&value), store.tick));
        Ok(value)
    }

    /// Current counters. `hits`/`misses`/`evictions` are monotone over the
    /// process lifetime (they survive [`FactorCache::clear`]).
    pub fn stats(&self) -> CacheStats {
        let store = self.lock();
        CacheStats {
            hits: store.hits,
            misses: store.misses,
            evictions: store.evictions,
            entries: store.map.len(),
        }
    }

    /// Drops every stored entry (outstanding `Arc`s stay alive). Counters
    /// are not reset.
    pub fn clear(&self) {
        self.lock().map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use std::convert::Infallible;

    fn mat(seed: f64) -> CMatrix {
        CMatrix::from_fn(2, 2, |i, j| c64(seed + i as f64, j as f64 - seed))
    }

    #[test]
    fn keys_are_bitwise_exact() {
        assert_eq!(MatrixKey::of(&mat(1.0)), MatrixKey::of(&mat(1.0)));
        assert_ne!(MatrixKey::of(&mat(1.0)), MatrixKey::of(&mat(2.0)));
        // Same values, different shape.
        let row = CMatrix::from_real_slice(1, 4, &[1.0, 0.0, 0.0, 1.0]);
        let sq = CMatrix::from_real_slice(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert_ne!(MatrixKey::of(&row), MatrixKey::of(&sq));
        // -0.0 is a different bit pattern than 0.0 — conservative miss.
        let neg = CMatrix::from_real_slice(2, 2, &[1.0, -0.0, 0.0, 1.0]);
        assert_ne!(MatrixKey::of(&neg), MatrixKey::of(&sq));
    }

    #[test]
    fn hits_share_one_computation() {
        let cache: FactorCache<f64> = FactorCache::new(8);
        let mut computed = 0usize;
        for _ in 0..3 {
            let v = cache
                .get_or_try_insert_with(MatrixKey::of(&mat(1.0)), || {
                    computed += 1;
                    Ok::<_, Infallible>(42.0)
                })
                .unwrap();
            assert_eq!(*v, 42.0);
        }
        assert_eq!(computed, 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 1));
    }

    #[test]
    fn errors_are_propagated_and_not_stored() {
        let cache: FactorCache<f64> = FactorCache::new(8);
        let err = cache.get_or_try_insert_with(MatrixKey::of(&mat(1.0)), || Err::<f64, _>("nope"));
        assert_eq!(err.unwrap_err(), "nope");
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 0);
        // A later successful computation for the same key is stored.
        let v = cache
            .get_or_try_insert_with(MatrixKey::of(&mat(1.0)), || Ok::<_, &str>(3.5))
            .unwrap();
        assert_eq!(*v, 3.5);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn capacity_bounds_the_store() {
        let cache: FactorCache<usize> = FactorCache::new(2);
        for i in 0..5usize {
            cache
                .get_or_try_insert_with(MatrixKey::of(&mat(i as f64)), || Ok::<_, Infallible>(i))
                .unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 3);

        let disabled: FactorCache<usize> = FactorCache::new(0);
        for _ in 0..2 {
            disabled
                .get_or_try_insert_with(MatrixKey::of(&mat(0.0)), || Ok::<_, Infallible>(1))
                .unwrap();
        }
        assert_eq!(disabled.stats().entries, 0);
        assert_eq!(disabled.stats().misses, 2, "capacity 0 always recomputes");
    }

    #[test]
    fn eviction_is_least_recently_used_not_smallest_key() {
        // Regression: the original cache evicted `keys().next()` — the
        // smallest bit pattern — which threw out the hottest entry whenever
        // it happened to sort first.
        let cache: FactorCache<u32> = FactorCache::new(2);
        let (a, b, c) = (mat(1.0), mat(2.0), mat(3.0));
        assert!(
            MatrixKey::of(&a) < MatrixKey::of(&b),
            "test precondition: `a` sorts first"
        );
        cache
            .get_or_try_insert_with(MatrixKey::of(&a), || Ok::<_, Infallible>(1))
            .unwrap();
        cache
            .get_or_try_insert_with(MatrixKey::of(&b), || Ok::<_, Infallible>(2))
            .unwrap();
        // Touch `a`: it is now the most recently used despite sorting first.
        cache
            .get_or_try_insert_with(MatrixKey::of(&a), || -> Result<u32, Infallible> {
                panic!("`a` must be a hit");
            })
            .unwrap();
        // Inserting `c` must evict `b` (the LRU entry), not `a`.
        cache
            .get_or_try_insert_with(MatrixKey::of(&c), || Ok::<_, Infallible>(3))
            .unwrap();
        let mut a_recomputed = false;
        cache
            .get_or_try_insert_with(MatrixKey::of(&a), || {
                a_recomputed = true;
                Ok::<_, Infallible>(1)
            })
            .unwrap();
        assert!(!a_recomputed, "the recently-used entry was evicted");
        let mut b_recomputed = false;
        cache
            .get_or_try_insert_with(MatrixKey::of(&b), || {
                b_recomputed = true;
                Ok::<_, Infallible>(2)
            })
            .unwrap();
        assert!(b_recomputed, "the least-recently-used entry must have gone");
    }

    #[test]
    fn clear_keeps_counters_and_outstanding_arcs() {
        let cache: FactorCache<f64> = FactorCache::new(4);
        let v = cache
            .get_or_try_insert_with(MatrixKey::of(&mat(1.0)), || Ok::<_, Infallible>(7.0))
            .unwrap();
        cache.clear();
        assert_eq!(*v, 7.0);
        let s = cache.stats();
        assert_eq!((s.misses, s.entries), (1, 0));
    }

    #[test]
    fn panicking_compute_does_not_strand_waiters() {
        let cache: FactorCache<f64> = FactorCache::new(4);
        let key = MatrixKey::of(&mat(9.0));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.get_or_try_insert_with(key.clone(), || -> Result<f64, Infallible> {
                panic!("injected compute failure");
            });
        }));
        assert!(panicked.is_err());
        // The poisoned lock is recovered and nothing was stored: the same
        // key can be computed again without hanging.
        let v = cache
            .get_or_try_insert_with(key, || Ok::<_, Infallible>(1.5))
            .unwrap();
        assert_eq!(*v, 1.5);
    }
}

//! Concurrency stress tests for the [`FactorCache`]: many threads
//! hammering duplicate keys must still compute every key **exactly once**,
//! and the hit/miss/eviction counters must stay consistent with the number
//! of stored entries.
//!
//! The cache computes a miss while holding its one lock, so these tests
//! also pin the paths that design relies on: a failing or panicking
//! `compute` must leave the store usable for every other lookup (the
//! poisoned lock is recovered), and nobody may hang behind it.

use std::convert::Infallible;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use corrfade_linalg::{c64, CMatrix, FactorCache, MatrixKey};

fn mat(seed: f64) -> CMatrix {
    CMatrix::from_fn(3, 3, |i, j| c64(seed + i as f64 * 0.25, j as f64 - seed))
}

#[test]
fn duplicate_keys_under_contention_compute_exactly_once() {
    const THREADS: usize = 8;
    const KEYS: usize = 4;
    const ROUNDS: usize = 25;

    static CACHE: FactorCache<f64> = FactorCache::new(64);
    let computed: Vec<AtomicUsize> = (0..KEYS).map(|_| AtomicUsize::new(0)).collect();
    let barrier = Barrier::new(THREADS);
    let lookups = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let computed = &computed;
            let barrier = &barrier;
            let lookups = &lookups;
            scope.spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS {
                    // Every thread walks the keys in a different order so
                    // first requests and queued duplicates mix across rounds.
                    for k in 0..KEYS {
                        let key = (t + round + k) % KEYS;
                        let value = CACHE
                            .get_or_try_insert_with(MatrixKey::of(&mat(key as f64)), || {
                                computed[key].fetch_add(1, Ordering::SeqCst);
                                // Widen the compute window: a lookup that
                                // did not queue behind it would
                                // double-compute here.
                                std::thread::sleep(Duration::from_millis(2));
                                Ok::<_, Infallible>(key as f64 + 0.5)
                            })
                            .unwrap();
                        assert_eq!(*value, key as f64 + 0.5, "wrong value for key {key}");
                        lookups.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    for (key, count) in computed.iter().enumerate() {
        assert_eq!(
            count.load(Ordering::SeqCst),
            1,
            "key {key} must be computed exactly once despite {THREADS} \
             threads racing it"
        );
    }

    // Counter consistency: every lookup is either a hit or a miss, misses
    // equal the distinct keys (nothing was evicted at this capacity), and
    // the stored entries match.
    let stats = CACHE.stats();
    let total = lookups.load(Ordering::Relaxed) as u64;
    assert_eq!(total, (THREADS * ROUNDS * KEYS) as u64);
    assert_eq!(stats.hits + stats.misses, total);
    assert_eq!(stats.misses, KEYS as u64);
    assert_eq!(stats.evictions, 0);
    assert_eq!(stats.entries, KEYS);
}

#[test]
fn contended_eviction_keeps_counters_consistent_with_entries() {
    // A cache far smaller than the working set, hammered from many
    // threads: the bound must hold and the counters must balance —
    // every computed value is either still stored or was evicted.
    const THREADS: usize = 6;
    const KEYS: usize = 24;
    static SMALL: FactorCache<usize> = FactorCache::new(8);

    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for round in 0..3 {
                    for k in 0..KEYS {
                        let key = (k + t + round) % KEYS;
                        let v = SMALL
                            .get_or_try_insert_with(MatrixKey::of(&mat(key as f64)), || {
                                Ok::<_, Infallible>(key)
                            })
                            .unwrap();
                        assert_eq!(*v, key);
                    }
                }
            });
        }
    });

    let stats = SMALL.stats();
    assert!(
        stats.entries <= 8,
        "capacity bound violated under contention: {stats:?}"
    );
    assert_eq!(
        stats.entries as u64 + stats.evictions,
        stats.misses,
        "every miss must be stored or evicted exactly once: {stats:?}"
    );
    assert!(stats.misses >= KEYS as u64, "each key missed at least once");
}

#[test]
fn waiters_recover_when_the_leader_fails() {
    // One thread's computation fails; concurrent waiters for the same key
    // must neither hang nor observe the failure — they retry and succeed.
    let cache: Arc<FactorCache<f64>> = Arc::new(FactorCache::new(8));
    let failures = Arc::new(AtomicUsize::new(0));
    let successes = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(4));

    std::thread::scope(|scope| {
        for t in 0..4usize {
            let cache = Arc::clone(&cache);
            let failures = Arc::clone(&failures);
            let successes = Arc::clone(&successes);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                let result = cache.get_or_try_insert_with(MatrixKey::of(&mat(7.0)), || {
                    std::thread::sleep(Duration::from_millis(1));
                    if t == 0 {
                        Err("leader failed")
                    } else {
                        Ok(7.5)
                    }
                });
                match result {
                    Ok(v) => {
                        assert_eq!(*v, 7.5);
                        successes.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(e) => {
                        assert_eq!(e, "leader failed");
                        failures.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    });

    assert_eq!(
        failures.load(Ordering::SeqCst) + successes.load(Ordering::SeqCst),
        4,
        "no thread may hang on a failed leader"
    );
    // At most thread 0 saw the error; everyone else got the value.
    assert!(failures.load(Ordering::SeqCst) <= 1);
    assert!(successes.load(Ordering::SeqCst) >= 3);
}

#[test]
fn a_compute_that_panics_under_the_lock_blocks_no_other_lookup() {
    // Thread 0 takes the lock for a key and panics inside `compute` while
    // the others queue behind it, for that key and for other keys. Every
    // other lookup must be served (the poisoned lock is recovered), within
    // a deadline, and the counters must still balance.
    const THREADS: usize = 6;
    const KEYS: usize = 6;
    const ROUNDS: usize = 4;
    static POISONED: FactorCache<usize> = FactorCache::new(4);

    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let inside = AtomicBool::new(false);
        let barrier = Barrier::new(THREADS);
        let served = AtomicUsize::new(0);
        let panicked = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (inside, barrier, served, panicked) = (&inside, &barrier, &served, &panicked);
                scope.spawn(move || {
                    barrier.wait();
                    if t == 0 {
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            POISONED.get_or_try_insert_with(
                                MatrixKey::of(&mat(0.0)),
                                || -> Result<usize, Infallible> {
                                    inside.store(true, Ordering::SeqCst);
                                    // Hold the lock while the others queue up.
                                    std::thread::sleep(Duration::from_millis(20));
                                    panic!("injected compute panic under the lock");
                                },
                            )
                        }));
                        assert!(result.is_err(), "thread 0 must see its own panic");
                        panicked.fetch_add(1, Ordering::SeqCst);
                        return;
                    }
                    while !inside.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    for round in 0..ROUNDS {
                        for k in 0..KEYS {
                            let key = (t + round + k) % KEYS;
                            let v = POISONED
                                .get_or_try_insert_with(MatrixKey::of(&mat(key as f64)), || {
                                    Ok::<_, Infallible>(key)
                                })
                                .unwrap();
                            assert_eq!(*v, key);
                            served.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        done.send((served.into_inner(), panicked.into_inner()))
            .unwrap();
    });

    let (served, panicked) = finished
        .recv_timeout(Duration::from_secs(60))
        .expect("lookups hung behind a compute that panicked under the lock");
    assert_eq!(panicked, 1);
    assert_eq!(served, (THREADS - 1) * ROUNDS * KEYS);

    let stats = POISONED.stats();
    assert_eq!(
        stats.hits + stats.misses,
        served as u64,
        "the panicked lookup counts as neither: {stats:?}"
    );
    assert!(stats.entries <= 4, "capacity bound violated: {stats:?}");
    assert_eq!(
        stats.entries as u64 + stats.evictions,
        stats.misses,
        "every miss must be stored or evicted exactly once: {stats:?}"
    );
}

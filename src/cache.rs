//! The sharded, bounded, single-flight memoization cache behind
//! [`Session`](crate::Session).
//!
//! The PR-1 cache was one `Mutex<HashMap>` with a global `Condvar`: every
//! hit took the same lock, and every single-flight wakeup broadcast to
//! every waiter in the whole session. This module replaces it with a
//! lock-striped design:
//!
//! * **Sharding** — keys are distributed over `N` independent shards by
//!   hash, so concurrent hits on different keys take different locks and
//!   the hot hit path scales with threads instead of serializing.
//! * **Per-shard single-flight** — when several threads miss on the same
//!   key at once, exactly one runs the builder; the rest wait on *their
//!   shard's* condvar and receive the finished value as a hit. A failed
//!   build releases the key so the next waiter retries. Waiters on other
//!   shards are never woken.
//! * **Bounded capacity with LRU eviction** — each shard holds at most
//!   `ceil(capacity / shards)` entries; inserting past the bound evicts
//!   the least-recently-used entry of that shard. `capacity == 0`
//!   disables caching entirely (every request builds, nothing is stored).
//! * **Per-shard stats** — hits, misses, evictions and in-flight waits
//!   are counted per shard and aggregated in [`CacheStats`]. Counter
//!   updates happen **while the shard lock is held** and snapshots read
//!   them under the same lock, so a `stats()` call
//!   racing concurrent traffic (the `GET /v1/stats` endpoint of
//!   `cnfet-serve` polls exactly this) always observes a per-shard-
//!   coherent view: every resident entry is accounted by a counted miss
//!   (`misses >= entries + evictions`), and a reported hit's value was
//!   resident when counted. Cross-shard skew remains possible — the
//!   snapshot locks shards one at a time — but each shard's line adds
//!   up.
//! * **A seqlock fast read path** — a clean hit takes **zero mutex
//!   acquisitions**. Each shard guards its bucket table with a version
//!   counter (odd while a writer is restructuring) plus a reader-presence
//!   count: a fast reader announces itself, re-checks the version is
//!   even, probes the table, clones the value, and withdraws; a writer
//!   (always under the shard mutex, so writers are serialized) bumps the
//!   version to odd, waits for announced readers to drain, mutates, and
//!   bumps back to even. Readers that observe an odd version — or miss —
//!   fall back to the locked path, which preserves every slow-path
//!   property above (single-flight, LRU bounds, counter coherence). Fast
//!   hits are counted in their own per-shard `fast_hits` counter and
//!   refresh LRU recency through the entry's atomic tick, so an entry
//!   kept hot by fast readers is still protected from eviction.

use std::cell::UnsafeCell;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Default total entry bound of a session cache.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Default shard count of a session cache (rounded up to a power of two).
pub const DEFAULT_SHARDS: usize = 16;

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// A point-in-time snapshot of one shard's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Entries currently resident in the shard.
    pub entries: usize,
    /// Requests answered from this shard (including single-flight waits
    /// that received a concurrent build's value, and including the
    /// lock-free fast hits counted in `fast_hits`).
    pub hits: u64,
    /// The subset of `hits` served by the seqlock fast path with zero
    /// mutex acquisitions.
    pub fast_hits: u64,
    /// Requests that ran the builder on this shard.
    pub misses: u64,
    /// Entries evicted from this shard to respect the capacity bound.
    pub evictions: u64,
    /// Times a request blocked on this shard waiting for an in-flight
    /// build of its key.
    pub inflight_waits: u64,
    /// Builds currently in flight on this shard (claimed by a builder
    /// thread but not yet inserted or abandoned).
    pub in_flight: usize,
}

/// A point-in-time snapshot of a whole cache: aggregate counters plus the
/// per-shard breakdown.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total entry bound across all shards (`0` = caching disabled).
    pub capacity: usize,
    /// Entry bound of each shard.
    pub shard_capacity: usize,
    /// Entries currently resident across all shards.
    pub entries: usize,
    /// Aggregate hits.
    pub hits: u64,
    /// Aggregate lock-free fast hits (a subset of `hits`).
    pub fast_hits: u64,
    /// Aggregate misses.
    pub misses: u64,
    /// Aggregate evictions.
    pub evictions: u64,
    /// Aggregate in-flight waits.
    pub inflight_waits: u64,
    /// Aggregate builds currently in flight.
    pub in_flight: usize,
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardStats>,
}

// ---------------------------------------------------------------------------
// Shards
// ---------------------------------------------------------------------------

struct Stored<V> {
    value: V,
    /// Monotone per-shard use tick; smallest tick = least recently used.
    /// Atomic so the lock-free fast path can refresh recency on a hit —
    /// an entry kept hot by fast readers is still protected from LRU
    /// eviction, exactly as on the locked path.
    last_used: AtomicU64,
}

/// The bucket table type of one shard: indexed by the key's full 64-bit
/// hash (computed once per request, also used for shard selection) with a
/// tiny collision vector per slot, so the hot hit path hashes the —
/// potentially large — key exactly once and then does one `u64` map probe
/// plus one key compare.
type Buckets<K, V> = HashMap<u64, Vec<(K, Stored<V>)>>;

/// The mutex-guarded remainder of a shard (the bucket table itself lives
/// outside the mutex, in [`Shard::buckets`], so the seqlock fast path can
/// read it without locking).
#[derive(Debug)]
struct ShardState {
    /// Total entries across all buckets.
    len: usize,
    /// Hashes with a build in flight. Keyed by hash, not key: a 64-bit
    /// collision merely serializes two unrelated builds, it never
    /// produces a wrong value (waiters re-check their own key on wake).
    in_flight: HashSet<u64>,
}

struct Shard<K, V> {
    /// The bucket table. Written only inside [`Shard::mutate_buckets`]
    /// (shard mutex held + seqlock write section); read either under the
    /// shard mutex or from an announced fast-read section — see the
    /// safety contract on [`Shard::read_buckets`].
    buckets: UnsafeCell<Buckets<K, V>>,
    /// Seqlock version of `buckets`: odd while a writer is inside the
    /// write section.
    seq: AtomicU64,
    /// Fast readers currently announced into the read section. A writer
    /// drains this to zero before mutating, which is what makes handing
    /// `&V` references out of the table sound (no classic-seqlock torn
    /// reads, and no use-after-free cloning a value mid-eviction).
    readers: AtomicU64,
    /// Monotone use tick, shared by both hit paths.
    tick: AtomicU64,
    state: Mutex<ShardState>,
    ready: Condvar,
    hits: AtomicU64,
    fast_hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inflight_waits: AtomicU64,
}

// SAFETY: the `buckets` UnsafeCell is written only inside
// `mutate_buckets`, whose callers hold the shard mutex (serializing
// writers) and which excludes announced fast readers via the
// `seq`/`readers` handshake before touching the table; it is read only
// under that same mutex or from inside an announced fast-read section.
// `&Shard` therefore never yields unsynchronized aliased access to the
// table. `K: Send + Sync` / `V: Send + Sync` keep the `&K`/`&V`
// references the read paths hand out (and the clones they produce)
// sound across threads.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for Shard<K, V> {}

impl<K, V> std::fmt::Debug for Shard<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("seq", &self.seq)
            .field("readers", &self.readers)
            .finish_non_exhaustive()
    }
}

impl<K, V> Shard<K, V> {
    fn new() -> Shard<K, V> {
        Shard {
            buckets: UnsafeCell::new(HashMap::new()),
            seq: AtomicU64::new(0),
            readers: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            state: Mutex::new(ShardState {
                len: 0,
                in_flight: HashSet::new(),
            }),
            ready: Condvar::new(),
            hits: AtomicU64::new(0),
            fast_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inflight_waits: AtomicU64::new(0),
        }
    }

    /// A shared view of the bucket table.
    ///
    /// # Safety
    ///
    /// The caller must either hold the shard mutex (which excludes the
    /// write section, because every `mutate_buckets` caller holds it
    /// too) or be inside an announced fast-read section (`readers`
    /// incremented *before* observing `seq` even).
    unsafe fn read_buckets(&self) -> &Buckets<K, V> {
        // SAFETY: forwarded to the caller (see above).
        unsafe { &*self.buckets.get() }
    }

    /// Runs `f` with exclusive access to the bucket table. The caller
    /// must hold the shard mutex — that is what serializes writers; this
    /// method's version/reader handshake then excludes the lock-free
    /// fast readers: the version goes odd (new fast readers bounce to
    /// the locked path), announced readers drain, `f` mutates, and the
    /// version returns to even.
    fn mutate_buckets<R>(&self, f: impl FnOnce(&mut Buckets<K, V>) -> R) -> R {
        self.seq.fetch_add(1, Ordering::SeqCst);
        let mut spins = 0u32;
        while self.readers.load(Ordering::SeqCst) != 0 {
            // Fast readers never block while announced, so the drain is
            // short — but on a single CPU an announced reader may need
            // the core this writer is spinning on, so yield periodically.
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        // SAFETY: writers are serialized by the shard mutex held by the
        // caller, the odd version keeps new fast readers out, and the
        // announced readers have drained — this closure has exclusive
        // access to the table.
        let result = f(unsafe { &mut *self.buckets.get() });
        self.seq.fetch_add(1, Ordering::SeqCst);
        result
    }

    /// The lock-free fast hit path: zero mutex acquisitions on a clean
    /// hit. Returns `None` (fall back to the locked path) on a miss or
    /// whenever a writer is inside — or enters — the write section.
    fn fast_hit(&self, hash: u64, key: &K) -> Option<V>
    where
        K: Eq,
        V: Clone,
    {
        if self.seq.load(Ordering::SeqCst) & 1 != 0 {
            // A writer is restructuring the table; don't even announce.
            return None;
        }
        self.readers.fetch_add(1, Ordering::SeqCst);
        // Re-check *after* announcing. SeqCst gives the Dekker-style
        // guarantee with the writer's store(seq: odd) → load(readers)
        // sequence: either this load sees the odd version (and the
        // reader backs out without touching the table), or the writer's
        // readers-drain loop sees this reader's announcement (and waits
        // for it to withdraw before mutating). Both orders are safe;
        // overlap is impossible.
        let value = if self.seq.load(Ordering::SeqCst) & 1 == 0 {
            // SAFETY: announced while the version was even — see above.
            let buckets = unsafe { self.read_buckets() };
            buckets
                .get(&hash)
                .and_then(|bucket| bucket.iter().find(|(k, _)| k == key))
                .map(|(_, stored)| {
                    let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
                    stored.last_used.store(tick, Ordering::Relaxed);
                    stored.value.clone()
                })
        } else {
            None
        };
        self.readers.fetch_sub(1, Ordering::SeqCst);
        if value.is_some() {
            // Fast hits count as hits (the aggregate hit/miss accounting
            // is path-independent) and additionally as fast hits.
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.fast_hits.fetch_add(1, Ordering::Relaxed);
        }
        value
    }
}

/// A claimed single-flight build: releases the hash from the shard's
/// `in_flight` set and wakes the shard's waiters when dropped. Running
/// the release on `Drop` makes the claim panic-safe — a builder that
/// unwinds (and is caught upstream, e.g. by a pool worker) can never
/// leave its key permanently claimed with waiters parked forever.
struct InFlightClaim<'a, K, V> {
    shard: &'a Shard<K, V>,
    hash: u64,
}

impl<K, V> Drop for InFlightClaim<'_, K, V> {
    fn drop(&mut self) {
        // Tolerate a poisoned lock: this drop may run during a panic
        // unwind, where a second panic would abort the process.
        let mut state = match self.shard.state.lock() {
            Ok(state) => state,
            Err(poisoned) => poisoned.into_inner(),
        };
        state.in_flight.remove(&self.hash);
        drop(state);
        self.shard.ready.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------------

/// A lock-striped memoizing map with per-shard single-flight builds and
/// LRU-bounded capacity. See the [module docs](self) for the design.
#[derive(Debug)]
pub(crate) struct ShardedCache<K, V> {
    shards: Vec<Shard<K, V>>,
    /// Per-shard entry bound; `0` disables caching.
    shard_capacity: usize,
    /// Total bound as configured (kept for stats; the enforced bound is
    /// `shard_capacity` per shard).
    capacity: usize,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: usize,
}

impl<K: Clone + Eq + Hash, V: Clone> ShardedCache<K, V> {
    /// A cache bounded to `capacity` entries striped over `shards` locks.
    /// The shard count is clamped to `[1, 256]` and rounded up to a power
    /// of two; `capacity == 0` disables caching.
    pub(crate) fn new(capacity: usize, shards: usize) -> ShardedCache<K, V> {
        let shards = shards.clamp(1, 256).next_power_of_two();
        // Never stripe wider than the capacity: one entry per shard is
        // the useful minimum, and fewer shards keep LRU order exact for
        // small caches.
        let shards = if capacity == 0 {
            1
        } else {
            shards.min(capacity.next_power_of_two())
        };
        let shard_capacity = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(shards)
        };
        ShardedCache {
            shards: (0..shards).map(|_| Shard::new()).collect(),
            shard_capacity,
            capacity,
            mask: shards - 1,
        }
    }

    /// Hashes the key once; the result selects the shard and indexes the
    /// shard's buckets.
    fn hash_of(key: &K) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        h.finish()
    }

    /// Returns `(value, was_cached)`; `was_cached` is true whenever the
    /// value came from another build (earlier or concurrent), so a miss
    /// is reported exactly once per cached entry. With caching disabled
    /// (`capacity == 0`) every call builds and `was_cached` is false.
    ///
    /// The builder runs outside the shard lock, single-flight per key:
    /// misses on different keys build in parallel while duplicates wait
    /// on their shard's condvar instead of regenerating. A failed — or
    /// panicking — build releases the key so the next waiter retries; an
    /// error is propagated to the caller that ran the builder, a panic
    /// unwinds through it (the claim is released by a drop guard, so a
    /// panic-catching caller such as a pool worker never leaves the key
    /// permanently claimed).
    pub(crate) fn get_or_build<E>(
        &self,
        key: &K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        let hash = Self::hash_of(key);
        let shard = &self.shards[(hash as usize) & self.mask];
        if self.shard_capacity == 0 {
            let value = build()?;
            shard.misses.fetch_add(1, Ordering::Relaxed);
            return Ok((value, false));
        }

        // The seqlock fast path: a clean hit clones the value without
        // touching the shard mutex. Contention with a writer — or a
        // plain miss — falls through to the locked path below.
        if let Some(value) = shard.fast_hit(hash, key) {
            return Ok((value, true));
        }

        let mut state = shard.state.lock().expect("cache shard lock");
        loop {
            {
                // SAFETY: the shard mutex is held — every bucket writer
                // holds it too, so no write section can be active. (The
                // reference must not outlive this block: `wait` below
                // releases the mutex.)
                let buckets = unsafe { shard.read_buckets() };
                if let Some(bucket) = buckets.get(&hash) {
                    if let Some((_, stored)) = bucket.iter().find(|(k, _)| k == key) {
                        let tick = shard.tick.fetch_add(1, Ordering::Relaxed) + 1;
                        stored.last_used.store(tick, Ordering::Relaxed);
                        let value = stored.value.clone();
                        // Counted before the lock drops: a stats snapshot
                        // can never see this hit without the entry it
                        // came from.
                        shard.hits.fetch_add(1, Ordering::Relaxed);
                        drop(state);
                        return Ok((value, true));
                    }
                }
            }
            if !state.in_flight.contains(&hash) {
                break;
            }
            shard.inflight_waits.fetch_add(1, Ordering::Relaxed);
            state = shard.ready.wait(state).expect("cache shard lock");
        }
        state.in_flight.insert(hash);
        drop(state);
        // From here the claim is owned by the guard: however the build
        // ends — value, error, or panic — the hash is released and the
        // shard's waiters are woken, exactly once.
        let claim = InFlightClaim { shard, hash };

        let built = build();

        let mut state = shard.state.lock().expect("cache shard lock");
        let result = match built {
            Ok(value) => {
                // The key cannot already be resident: its hash was held in
                // `in_flight`, so every same-hash requester waited and
                // re-checked above.
                self.insert(shard, &mut state, hash, key.clone(), value.clone());
                Ok((value, false))
            }
            // Waiters re-check and the next one retries the build.
            Err(e) => Err(e),
        };
        drop(state);
        drop(claim);
        result
    }

    /// Inserts an entry that is not resident, counting it as a miss and
    /// evicting least-recently-used entries past the shard bound. The
    /// caller holds the shard mutex; `state` is its guarded state.
    fn insert(&self, shard: &Shard<K, V>, state: &mut ShardState, hash: u64, key: K, value: V) {
        let tick = shard.tick.fetch_add(1, Ordering::Relaxed) + 1;
        shard.mutate_buckets(|buckets| {
            // A new bucket holds exactly one entry: full 64-bit hashes
            // rarely collide, and `Vec`'s first growth would reserve room
            // for three more whole keys and values that never come.
            buckets
                .entry(hash)
                .or_insert_with(|| Vec::with_capacity(1))
                .push((
                    key,
                    Stored {
                        value,
                        last_used: AtomicU64::new(tick),
                    },
                ));
            state.len += 1;
            // Counted while the lock is held (insert and miss are one
            // atomic step to mutex-taking observers): a stats snapshot
            // can never see the entry without its miss, or the miss
            // without its entry — `misses >= entries + evictions` holds
            // at every instant.
            shard.misses.fetch_add(1, Ordering::Relaxed);
            while state.len > self.shard_capacity {
                if !Self::evict_lru(buckets) {
                    break;
                }
                state.len -= 1;
                shard.evictions.fetch_add(1, Ordering::Relaxed);
            }
        });
    }

    /// Removes the least-recently-used entry from the bucket table
    /// (linear scan; runs only on over-capacity inserts, never on hits).
    /// Must run inside a [`Shard::mutate_buckets`] write section; the
    /// caller adjusts `len` and the eviction counter on `true`.
    fn evict_lru(buckets: &mut Buckets<K, V>) -> bool {
        let Some((&lru_hash, lru_pos)) = buckets
            .iter()
            .flat_map(|(h, bucket)| {
                bucket
                    .iter()
                    .enumerate()
                    .map(move |(i, (_, s))| ((h, i), s.last_used.load(Ordering::Relaxed)))
            })
            .min_by_key(|(_, used)| *used)
            .map(|(at, _)| at)
        else {
            return false;
        };
        let bucket = buckets.get_mut(&lru_hash).expect("bucket exists");
        bucket.swap_remove(lru_pos);
        if bucket.is_empty() {
            buckets.remove(&lru_hash);
        }
        true
    }

    /// Clones every resident `(key, value)` pair, shard by shard — the
    /// export half of cache snapshotting ([`crate::snapshot`]). Each
    /// shard is locked once; builds in flight when their shard is
    /// visited are simply not included. Order is shard-major and
    /// arbitrary within a shard.
    pub(crate) fn export(&self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let state = shard.state.lock().expect("cache shard lock");
            // SAFETY: the shard mutex is held, so no write section is
            // active.
            let buckets = unsafe { shard.read_buckets() };
            for bucket in buckets.values() {
                for (key, stored) in bucket {
                    out.push((key.clone(), stored.value.clone()));
                }
            }
            drop(state);
        }
        out
    }

    /// Inserts one entry directly, bypassing the builder — the import
    /// half of cache snapshotting (warm boot). The insert is counted as
    /// a miss, preserving the per-shard invariant
    /// `misses >= entries + evictions` (the miss was paid by whoever
    /// built the snapshotted value, in a previous process). A key that
    /// is already resident is left untouched (no hit or miss counted),
    /// capacity is enforced with the usual LRU eviction, and a disabled
    /// cache (`capacity == 0`) ignores the seed entirely.
    pub(crate) fn seed(&self, key: K, value: V) {
        if self.shard_capacity == 0 {
            return;
        }
        let hash = Self::hash_of(&key);
        let shard = &self.shards[(hash as usize) & self.mask];
        let mut state = shard.state.lock().expect("cache shard lock");
        {
            // SAFETY: the shard mutex is held, so no write section is
            // active.
            let buckets = unsafe { shard.read_buckets() };
            if let Some(bucket) = buckets.get(&hash) {
                if bucket.iter().any(|(k, _)| k == &key) {
                    return;
                }
            }
        }
        self.insert(shard, &mut state, hash, key, value);
    }

    /// Entries currently resident across all shards.
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.state.lock().expect("cache shard lock").len)
            .sum()
    }

    /// Drops every resident entry; counters are kept, and so are the
    /// in-flight claims: a build racing with the clear completes, inserts
    /// its (post-clear) value, and releases its claim normally, so
    /// waiters are never stranded and `in_flight` accounting returns to
    /// zero on its own.
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            let mut state = shard.state.lock().expect("cache shard lock");
            shard.mutate_buckets(|buckets| buckets.clear());
            state.len = 0;
        }
    }

    /// A snapshot of the aggregate and per-shard counters.
    pub(crate) fn stats(&self) -> CacheStats {
        let mut out = CacheStats {
            capacity: self.capacity,
            shard_capacity: self.shard_capacity,
            shards: Vec::with_capacity(self.shards.len()),
            ..CacheStats::default()
        };
        for shard in &self.shards {
            // Counters are read while the shard lock is held, pairing
            // with the under-lock increments in `get_or_build`: each
            // shard's snapshot is internally coherent (see module docs).
            let s = {
                let state = shard.state.lock().expect("cache shard lock");
                ShardStats {
                    entries: state.len,
                    hits: shard.hits.load(Ordering::Relaxed),
                    fast_hits: shard.fast_hits.load(Ordering::Relaxed),
                    misses: shard.misses.load(Ordering::Relaxed),
                    evictions: shard.evictions.load(Ordering::Relaxed),
                    inflight_waits: shard.inflight_waits.load(Ordering::Relaxed),
                    in_flight: state.in_flight.len(),
                }
            };
            out.entries += s.entries;
            out.hits += s.hits;
            out.fast_hits += s.fast_hits;
            out.misses += s.misses;
            out.evictions += s.evictions;
            out.inflight_waits += s.inflight_waits;
            out.in_flight += s.in_flight;
            out.shards.push(s);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    fn ok(v: u32) -> impl FnOnce() -> Result<u32, Infallible> {
        move || Ok(v)
    }

    #[test]
    fn hits_after_first_build() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(64, 4);
        assert_eq!(cache.get_or_build(&1, ok(10)).unwrap(), (10, false));
        assert_eq!(cache.get_or_build(&1, ok(99)).unwrap(), (10, true));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn new_buckets_allocate_exactly_their_entries() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(1024, 4);
        for k in 0..500 {
            cache.get_or_build(&k, ok(k)).unwrap();
        }
        for k in 500..600 {
            cache.seed(k, k);
        }
        assert_eq!(cache.len(), 600);
        for shard in &cache.shards {
            let _state = shard.state.lock().expect("cache shard lock");
            // SAFETY: the shard mutex is held, so no write section is
            // active.
            let buckets = unsafe { shard.read_buckets() };
            for bucket in buckets.values() {
                assert_eq!(bucket.capacity(), bucket.len());
            }
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(2, 1);
        cache.get_or_build(&1, ok(1)).unwrap();
        cache.get_or_build(&2, ok(2)).unwrap();
        // Touch 1 so 2 becomes the LRU entry, then insert 3.
        assert!(cache.get_or_build(&1, ok(0)).unwrap().1);
        cache.get_or_build(&3, ok(3)).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get_or_build(&1, ok(0)).unwrap().1, "1 survives");
        assert!(!cache.get_or_build(&2, ok(2)).unwrap().1, "2 was evicted");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(0, 8);
        assert_eq!(cache.get_or_build(&1, ok(10)).unwrap(), (10, false));
        assert_eq!(cache.get_or_build(&1, ok(11)).unwrap(), (11, false));
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn shard_count_is_clamped_to_capacity() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(2, 64);
        assert_eq!(cache.stats().shards.len(), 2);
        let unbounded: ShardedCache<u32, u32> = ShardedCache::new(4096, 6);
        assert_eq!(unbounded.stats().shards.len(), 8, "rounded to power of two");
    }

    #[test]
    fn failed_build_releases_the_key() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(16, 1);
        assert!(cache.get_or_build(&7, || Err::<u32, &str>("boom")).is_err());
        assert_eq!(cache.get_or_build(&7, ok(42)).unwrap(), (42, false));
    }

    #[test]
    fn panicking_build_releases_the_key() {
        // A pool worker catches request panics, so a panicking builder
        // must not leave its in-flight claim behind — later requests for
        // the same key would otherwise wait forever.
        let cache: ShardedCache<u32, u32> = ShardedCache::new(16, 1);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_build(&7, || -> Result<u32, &str> { panic!("builder blew up") })
        }));
        assert!(unwound.is_err(), "panic propagates to the builder's caller");
        assert_eq!(cache.stats().in_flight, 0, "claim released by the guard");
        assert_eq!(cache.get_or_build(&7, ok(42)).unwrap(), (42, false));
    }

    #[test]
    fn clear_during_inflight_build_keeps_accounting_consistent() {
        use std::sync::atomic::AtomicBool;
        let cache: ShardedCache<u32, u32> = ShardedCache::new(16, 1);
        let release = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                cache
                    .get_or_build(&1, || {
                        while !release.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                        Ok::<_, Infallible>(7)
                    })
                    .unwrap();
            });
            // Wait until the builder has claimed the key, then clear.
            while cache.stats().in_flight == 0 {
                std::thread::yield_now();
            }
            cache.clear();
            assert_eq!(
                cache.stats().in_flight,
                1,
                "clearing must not revoke an in-flight claim"
            );
            release.store(true, Ordering::Release);
        });
        let stats = cache.stats();
        assert_eq!(stats.in_flight, 0, "claim released after the build");
        assert_eq!(stats.entries, 1, "the racing build landed post-clear");
        assert_eq!(cache.get_or_build(&1, ok(9)).unwrap(), (7, true));
    }

    #[test]
    fn stats_snapshots_stay_coherent_under_concurrent_traffic() {
        // Regression test for the counter ordering: inserts count their
        // miss and hits count themselves *under the shard lock*, so a
        // concurrent stats() poll (the serve stats endpoint) must always
        // observe `misses >= entries + evictions` and `hits + misses`
        // never exceeding the operations issued so far, per shard.
        let cache: ShardedCache<u32, u32> = ShardedCache::new(8, 4);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..2u32)
                .map(|t| {
                    let cache = &cache;
                    scope.spawn(move || {
                        for i in 0..4000u32 {
                            let key = (i % 23) * 2 + t;
                            cache.get_or_build(&key, ok(key)).unwrap();
                        }
                    })
                })
                .collect();
            let poller = scope.spawn(|| {
                let mut polls = 0u64;
                while !stop.load(Ordering::Acquire) {
                    for s in cache.stats().shards {
                        assert!(
                            s.misses >= (s.entries as u64 + s.evictions),
                            "incoherent shard snapshot: {s:?}"
                        );
                    }
                    polls += 1;
                }
                polls
            });
            for writer in writers {
                writer.join().unwrap();
            }
            stop.store(true, Ordering::Release);
            assert!(poller.join().unwrap() > 0, "the poller actually raced");
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 8000);
    }

    #[test]
    fn fast_path_serves_clean_hits_and_counts_them() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(64, 4);
        assert_eq!(cache.get_or_build(&1, ok(10)).unwrap(), (10, false));
        // With no writer active, every subsequent hit is a fast hit.
        for _ in 0..3 {
            assert_eq!(cache.get_or_build(&1, ok(99)).unwrap(), (10, true));
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 3, "fast hits are included in hits");
        assert_eq!(stats.fast_hits, 3, "...and counted separately");
    }

    #[test]
    fn fast_hits_refresh_lru_recency() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(2, 1);
        cache.get_or_build(&1, ok(1)).unwrap();
        cache.get_or_build(&2, ok(2)).unwrap();
        // This touch goes through the lock-free fast path…
        assert!(cache.get_or_build(&1, ok(0)).unwrap().1);
        assert_eq!(cache.stats().fast_hits, 1);
        // …and must still protect 1 from the eviction triggered by 3.
        cache.get_or_build(&3, ok(3)).unwrap();
        assert!(cache.get_or_build(&1, ok(0)).unwrap().1, "1 survives");
        assert!(!cache.get_or_build(&2, ok(2)).unwrap().1, "2 was evicted");
    }

    #[test]
    fn seqlock_read_path_survives_concurrent_eviction_churn() {
        // Readers hammer one hot key through the fast path while a
        // writer churns enough distinct keys through a tiny shard to
        // force constant evictions (every insert enters the seqlock
        // write section and restructures the table the readers probe).
        // Values are self-checksummed so any torn read — a clone
        // overlapping a table mutation — breaks the relation.
        const MASK: u64 = 0x9e37_79b9_7f4a_7c15;
        let make = |k: u32| {
            let seed = u64::from(k) + 1;
            move || Ok::<_, Infallible>(vec![seed, seed.wrapping_mul(3), seed ^ MASK])
        };
        let check = |v: &Vec<u64>| {
            assert_eq!(v[1], v[0].wrapping_mul(3), "torn read: {v:?}");
            assert_eq!(v[2], v[0] ^ MASK, "torn read: {v:?}");
        };
        let cache: ShardedCache<u32, Vec<u64>> = ShardedCache::new(4, 1);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        let (v, _) = cache.get_or_build(&1, make(1)).unwrap();
                        check(&v);
                    }
                });
            }
            scope.spawn(|| {
                for i in 0..10_000u32 {
                    let k = 2 + (i % 7);
                    let (v, _) = cache.get_or_build(&k, make(k)).unwrap();
                    check(&v);
                }
            });
        });
        // One guaranteed clean hit so `fast_hits > 0` holds even if the
        // scheduler serialized the whole race above.
        cache.get_or_build(&1, make(1)).unwrap();
        let (v, _) = cache.get_or_build(&1, make(1)).unwrap();
        check(&v);
        let stats = cache.stats();
        assert!(stats.fast_hits > 0, "fast path never engaged: {stats:?}");
        assert!(
            stats.fast_hits <= stats.hits,
            "fast hits are a subset of hits: {stats:?}"
        );
        // 40k threaded probes + 2 tail probes, each a hit or a miss.
        assert_eq!(stats.hits + stats.misses, 40_002);
        for s in stats.shards {
            assert!(
                s.misses >= s.entries as u64 + s.evictions,
                "incoherent shard accounting: {s:?}"
            );
        }
    }

    #[test]
    fn export_and_seed_round_trip() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(16, 4);
        cache.get_or_build(&1, ok(10)).unwrap();
        cache.get_or_build(&2, ok(20)).unwrap();
        let mut entries = cache.export();
        entries.sort_unstable();
        assert_eq!(entries, vec![(1, 10), (2, 20)]);

        let warm: ShardedCache<u32, u32> = ShardedCache::new(16, 4);
        for (k, v) in entries {
            warm.seed(k, v);
        }
        // Seeded entries are pure hits, and the invariant held at boot.
        assert_eq!(warm.get_or_build(&1, ok(99)).unwrap(), (10, true));
        assert_eq!(warm.get_or_build(&2, ok(99)).unwrap(), (20, true));
        let stats = warm.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.misses, 2, "each seed counts as a paid miss");
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn seed_respects_capacity_residency_and_disablement() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(2, 1);
        cache.seed(1, 1);
        cache.seed(1, 42);
        assert_eq!(cache.get_or_build(&1, ok(0)).unwrap(), (1, true));
        cache.seed(2, 2);
        cache.seed(3, 3);
        assert_eq!(cache.len(), 2, "seeding past capacity evicts LRU");
        assert_eq!(cache.stats().evictions, 1);

        let off: ShardedCache<u32, u32> = ShardedCache::new(0, 1);
        off.seed(1, 1);
        assert_eq!(off.len(), 0);
        assert_eq!(off.stats().misses, 0, "disabled cache ignores seeds");
    }

    #[test]
    fn concurrent_misses_single_flight() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(16, 4);
        let builds = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let (v, _) = cache
                        .get_or_build(&5, || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            // Widen the race window so waiters actually pile up.
                            std::thread::sleep(std::time::Duration::from_millis(10));
                            Ok::<_, Infallible>(55)
                        })
                        .unwrap();
                    assert_eq!(v, 55);
                });
            }
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1, "exactly one build");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }
}

//! Sharded program cache with in-place shard maps, single-flight fills,
//! and a segmented-LRU capacity bound.
//!
//! The online stage is on the request path: under concurrent serving, a
//! single `Mutex<HashMap>` serializes every lookup, and the naive
//! check-then-insert pattern lets N threads that miss on the same shape
//! all run the (micro- to millisecond) polymerization, N−1 of them
//! wasted — a classic cache stampede. This cache fixes both:
//!
//! * **Sharded in-place maps** — keys hash to one of [`DEFAULT_SHARDS`]
//!   shards, each a `RwLock<HashMap>` mutated in place. A hit takes its
//!   shard's read lock, counts the hit, clones the value's `Arc` and
//!   releases the lock; lookups on different shards never contend, and
//!   hits on one shard share it. Every mutation — a miss's in-flight
//!   install, a fill's commit, [`ShardedCache::remove`], an eviction, a
//!   direct insert — holds the write lock for one O(1) insert or remove,
//!   so a fill costs the cache a few hash-map operations however full its
//!   shard is.
//! * **Single flight** — a miss installs an in-flight slot before
//!   computing. Concurrent misses on the same key find the slot and block
//!   on its condvar instead of re-running the computation; exactly one
//!   thread polymerizes each unique shape, and everyone shares the
//!   resulting `Arc`. The computation runs outside every shard lock. If
//!   the computing thread panics, the slot is abandoned and one waiter
//!   takes over, so a poisoned key cannot wedge the cache.
//!
//! Counters are atomics (the hot hit counter is striped across cache
//! lines, one stripe per thread); [`ShardedCache::stats`] snapshots them
//! for serving telemetry, with the entry count served from an exact
//! atomic that is maintained at fill/insert/remove/evict time — no shard
//! scans.
//!
//! An optional **capacity bound** ([`ShardedCache::bounded`]) evicts with
//! a segmented-LRU policy: new entries enter a probation queue; an entry
//! that was hit while resident is promoted to a protected queue at its
//! first eviction scan (and given halved-frequency second chances there),
//! while unreferenced entries are evicted in insertion order. Hot shapes
//! therefore survive a churning tail instead of being FIFO-thrashed. The
//! protected queue is capped below the capacity (a fifth of it, at least
//! one slot, is left to probation), so a new fill outlives its own insert
//! even when every other resident entry has been hit.
//! Queue records carry a per-fill stamp, so a removed or re-inserted key
//! leaves only a *stale* record that is skipped (never evicting the new
//! incarnation) and periodically compacted away — the order state is
//! bounded by a small multiple of the live entry count. Unbounded caches
//! (the default) never touch the eviction state.
//!
//! Failure story: a computing closure that returns `Err` (or panics) never
//! caches its result — the in-flight slot is cleared, waiters are woken,
//! and the next caller retries from scratch
//! ([`ShardedCache::try_get_or_compute`]). Entries found invalid after the
//! fact are evicted with [`ShardedCache::remove`] (counted as
//! `invalidations`).

// Online hot path: failures must surface as typed errors, not panics.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, RwLock};

/// Default shard count: enough to make cross-shard collisions rare at
/// serving-realistic thread counts.
pub const DEFAULT_SHARDS: usize = 16;

/// Stripes of the hot hit counter (each on its own cache line).
const HIT_STRIPES: usize = 8;

/// Frequencies saturate here; far beyond any promotion threshold.
const FREQ_CEILING: u32 = 1 << 20;

/// How a value came out of [`ShardedCache::get_or_compute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The value was already cached.
    Hit,
    /// This call computed the value (the single flight).
    Computed,
    /// Another thread was computing the value; this call waited for it.
    Waited,
}

/// A point-in-time snapshot of the cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no entry (each starts one computation).
    pub misses: u64,
    /// Computations that ran to completion (the polymerization count —
    /// with single flight this equals the number of unique keys computed).
    pub computations: u64,
    /// Lookups that blocked on another thread's in-flight computation
    /// instead of re-running it (each is one saved computation).
    pub coalesced_waits: u64,
    /// Entries inserted directly (e.g. a loaded ahead-of-time bundle).
    pub direct_inserts: u64,
    /// Ready entries evicted by the capacity bound (0 when unbounded).
    pub evictions: u64,
    /// Ready entries explicitly evicted by [`ShardedCache::remove`]
    /// (e.g. entries that failed post-fill validation — poisoned entries).
    pub invalidations: u64,
    /// Cached entries at snapshot time.
    pub entries: u64,
}

impl CacheStats {
    /// Computations started but not yet finished at snapshot time.
    pub fn in_flight(&self) -> u64 {
        self.misses.saturating_sub(self.computations)
    }

    /// Fraction of lookups answered without computing; `0.0` before the
    /// first lookup (never `NaN` — this value reaches exported metrics).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses + self.coalesced_waits;
        if lookups == 0 {
            return 0.0;
        }
        self.hits as f64 / lookups as f64
    }

    /// Field-wise sum of two snapshots (e.g. the GEMM and conv caches of
    /// an engine, reported as one).
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            computations: self.computations + other.computations,
            coalesced_waits: self.coalesced_waits + other.coalesced_waits,
            direct_inserts: self.direct_inserts + other.direct_inserts,
            evictions: self.evictions + other.evictions,
            invalidations: self.invalidations + other.invalidations,
            entries: self.entries + other.entries,
        }
    }

    /// Publishes this snapshot into a telemetry registry (collector style:
    /// the cache's own atomics stay authoritative; the registry's
    /// `cache.*` counters are overwritten with the snapshot, so they
    /// always equal a [`ShardedCache::stats`] call made at the same time).
    pub fn export_to(&self, registry: &mikpoly_telemetry::Registry) {
        for (name, help) in [
            (
                "cache.hits",
                "program-cache lookups answered from the cache",
            ),
            ("cache.misses", "program-cache lookups that missed"),
            ("cache.computations", "programs compiled on a cache miss"),
            (
                "cache.coalesced_waits",
                "lookups that waited for an in-flight compile of the same key",
            ),
            ("cache.direct_inserts", "programs inserted without a lookup"),
            ("cache.evictions", "entries evicted by the LRU policy"),
            (
                "cache.invalidations",
                "entries dropped by explicit invalidation",
            ),
            ("cache.entries", "resident program-cache entries"),
            (
                "cache.hit_rate",
                "hits over lookups, 0 before the first lookup",
            ),
        ] {
            registry.describe(name, help);
        }
        registry.counter("cache.hits").store(self.hits);
        registry.counter("cache.misses").store(self.misses);
        registry
            .counter("cache.computations")
            .store(self.computations);
        registry
            .counter("cache.coalesced_waits")
            .store(self.coalesced_waits);
        registry
            .counter("cache.direct_inserts")
            .store(self.direct_inserts);
        registry.counter("cache.evictions").store(self.evictions);
        registry
            .counter("cache.invalidations")
            .store(self.invalidations);
        registry.counter("cache.entries").store(self.entries);
        // hit_rate is 0.0 before the first lookup, so the gauge (and the
        // Prometheus exposition rendered from it) can never carry a NaN.
        registry.gauge("cache.hit_rate").set(self.hit_rate());
    }
}

/// An in-flight computation other threads can await.
struct Flight<V> {
    state: Mutex<FlightState<V>>,
    ready: Condvar,
}

enum FlightState<V> {
    Pending,
    Done(Arc<V>),
    /// The computing thread panicked; a waiter must restart the flight.
    Abandoned,
}

/// Identity and hotness of one ready entry. Shared (via `Arc`) by the
/// entry's shard slot and the eviction state's live index, so the
/// eviction scan reads a hit-while-resident without touching any shard.
struct EntryMeta {
    /// Fill stamp: globally unique per (key, fill). Eviction-queue records
    /// carry the stamp they were enqueued with, which is how a record left
    /// behind by `remove` + re-`insert` is recognized as stale instead of
    /// prematurely evicting the key's new incarnation.
    stamp: u64,
    /// Lookup hits since the entry was filled (or last promoted); drives
    /// the segmented-LRU promotion decision.
    freq: AtomicU32,
}

/// A ready cache entry: the value plus its eviction metadata.
struct ReadyEntry<V> {
    value: Arc<V>,
    meta: Arc<EntryMeta>,
}

impl<V> Clone for ReadyEntry<V> {
    fn clone(&self) -> Self {
        Self {
            value: Arc::clone(&self.value),
            meta: Arc::clone(&self.meta),
        }
    }
}

enum Slot<V> {
    Ready(ReadyEntry<V>),
    InFlight(Arc<Flight<V>>),
}

/// A slot as a lookup takes it out of its shard: the ready value, or the
/// flight to await. The entry's metadata stays behind.
enum Found<V> {
    Ready(Arc<V>),
    InFlight(Arc<Flight<V>>),
}

impl<V> Slot<V> {
    /// Clones out what a lookup needs, showing a ready entry's metadata
    /// to `on_hit` in place, so a hit clones one `Arc`.
    fn found(&self, on_hit: impl FnOnce(&EntryMeta)) -> Found<V> {
        match self {
            Slot::Ready(e) => {
                on_hit(&e.meta);
                Found::Ready(Arc::clone(&e.value))
            }
            Slot::InFlight(f) => Found::InFlight(Arc::clone(f)),
        }
    }
}

/// One cache-line-padded counter cell.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

/// A counter striped across cache lines so 8 threads hammering the hit
/// path don't serialize on one line. `sum` folds the stripes.
struct StripedU64 {
    cells: [PaddedU64; HIT_STRIPES],
}

impl StripedU64 {
    fn new() -> Self {
        Self {
            cells: std::array::from_fn(|_| PaddedU64(AtomicU64::new(0))),
        }
    }

    #[inline]
    fn add(&self, stripe: usize, n: u64) {
        self.cells[stripe & (HIT_STRIPES - 1)]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    fn sum(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

struct Counters {
    hits: StripedU64,
    misses: AtomicU64,
    computations: AtomicU64,
    coalesced_waits: AtomicU64,
    direct_inserts: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    /// Exact count of ready entries, maintained at fill/insert/remove/
    /// evict time — `stats()` and capacity checks never scan the shards.
    ready: AtomicUsize,
    /// Fill-stamp source for [`EntryMeta::stamp`].
    stamp: AtomicU64,
}

impl Counters {
    fn new() -> Self {
        Self {
            hits: StripedU64::new(),
            misses: AtomicU64::new(0),
            computations: AtomicU64::new(0),
            coalesced_waits: AtomicU64::new(0),
            direct_inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            ready: AtomicUsize::new(0),
            stamp: AtomicU64::new(0),
        }
    }
}

static STRIPE_SEQ: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's hit-counter stripe, handed out round-robin.
    static HIT_STRIPE: usize = STRIPE_SEQ.fetch_add(1, Ordering::Relaxed);
}

/// One shard: a map mutated in place under a reader-writer lock. Each
/// write-lock critical section is a single insert or remove; no value is
/// computed under a shard lock, and the map itself is never cloned.
struct Shard<K, V> {
    map: RwLock<HashMap<K, Slot<V>>>,
}

impl<K: Eq + Hash + Clone, V> Shard<K, V> {
    fn new() -> Self {
        Self {
            map: RwLock::new(HashMap::new()),
        }
    }

    /// `key`'s slot, read under the shared lock; `on_hit` sees a ready
    /// entry's metadata.
    fn get(&self, key: &K, on_hit: impl FnOnce(&EntryMeta)) -> Option<Found<V>> {
        self.map.read().get(key).map(|slot| slot.found(on_hit))
    }

    /// The metadata of `key`'s ready entry, if one is resident.
    fn ready_meta(&self, key: &K) -> Option<Arc<EntryMeta>> {
        match self.map.read().get(key) {
            Some(Slot::Ready(e)) => Some(Arc::clone(&e.meta)),
            _ => None,
        }
    }

    /// The miss path's role decision under the write lock: the slot some
    /// other thread installed meanwhile, or a fresh in-flight slot that
    /// this caller now leads.
    fn claim(&self, key: &K, on_hit: impl FnOnce(&EntryMeta)) -> Result<Arc<Flight<V>>, Found<V>> {
        match self.map.write().entry(key.clone()) {
            Entry::Occupied(slot) => Err(slot.get().found(on_hit)),
            Entry::Vacant(vacant) => {
                let flight = Arc::new(Flight {
                    state: Mutex::new(FlightState::Pending),
                    ready: Condvar::new(),
                });
                vacant.insert(Slot::InFlight(Arc::clone(&flight)));
                Ok(flight)
            }
        }
    }

    /// Stores a ready entry; true when it added one rather than replacing
    /// a ready one. The displaced slot is dropped after the lock is
    /// released.
    fn commit(&self, key: K, entry: ReadyEntry<V>) -> bool {
        let displaced = self.map.write().insert(key, Slot::Ready(entry));
        !matches!(displaced, Some(Slot::Ready(_)))
    }

    /// Removes `key`'s slot if `pred` accepts it. The removed slot — maybe
    /// the value's last reference — is returned so the caller drops it
    /// outside the lock.
    fn remove_if(&self, key: &K, pred: impl FnOnce(&Slot<V>) -> bool) -> Option<Slot<V>> {
        let mut map = self.map.write();
        if map.get(key).is_some_and(pred) {
            map.remove(key)
        } else {
            None
        }
    }
}

/// One eviction-order record: the key plus the fill stamp it was enqueued
/// for. A record whose stamp no longer matches the key's live entry is
/// stale (the entry was removed or replaced) and is skipped.
struct OrderRecord<K> {
    key: K,
    stamp: u64,
}

/// Capacity-bound bookkeeping, touched only on the write path (fills,
/// direct inserts, removes, evictions) and only when the cache is
/// bounded. The hit path never takes this lock.
struct EvictionState<K> {
    /// Probation segment: entries that have not earned a promotion.
    probation: VecDeque<OrderRecord<K>>,
    /// Protected segment: entries hit while resident.
    protected: VecDeque<OrderRecord<K>>,
    /// Live stamp + frequency per resident key — lets the eviction scan
    /// test staleness and hotness without touching any shard.
    live: HashMap<K, Arc<EntryMeta>>,
}

impl<K: Eq + Hash + Clone> EvictionState<K> {
    fn new() -> Self {
        Self {
            probation: VecDeque::new(),
            protected: VecDeque::new(),
            live: HashMap::new(),
        }
    }

    fn order_len(&self) -> usize {
        self.probation.len() + self.protected.len()
    }

    /// Drops stale records once the queues exceed a small multiple of the
    /// live count — this is the bound that the FIFO order list lacked
    /// (remove/re-insert used to leak a dead record forever).
    fn compact(&mut self) {
        if self.order_len() <= 2 * self.live.len() + 64 {
            return;
        }
        let live = &self.live;
        let keep = |r: &OrderRecord<K>| live.get(&r.key).is_some_and(|m| m.stamp == r.stamp);
        self.probation.retain(keep);
        self.protected.retain(keep);
    }
}

/// Removes the in-flight slot and wakes waiters if the computation never
/// completed (i.e. the closure panicked or failed). Removal is
/// identity-checked: if something else (a direct insert) already replaced
/// the slot, it is left alone.
struct FlightGuard<'a, K: Eq + Hash + Clone, V> {
    shard: &'a Shard<K, V>,
    key: Option<K>,
    flight: Arc<Flight<V>>,
}

impl<K: Eq + Hash + Clone, V> Drop for FlightGuard<'_, K, V> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.shard.remove_if(
                &key,
                |slot| matches!(slot, Slot::InFlight(f) if Arc::ptr_eq(f, &self.flight)),
            );
            *self.flight.state.lock() = FlightState::Abandoned;
            self.flight.ready.notify_all();
        }
    }
}

/// A sharded map from keys to `Arc`'d values with in-place shard maps,
/// single-flight fills, and an optional segmented-LRU capacity bound.
pub struct ShardedCache<K, V> {
    shards: Vec<Shard<K, V>>,
    counters: Counters,
    /// Maximum ready entries; `None` means unbounded (no order tracking).
    capacity: Option<usize>,
    /// Segmented-LRU order state; only touched when `capacity` is set,
    /// and only by the write path.
    eviction: Mutex<EvictionState<K>>,
}

impl<K: Eq + Hash + Clone, V> ShardedCache<K, V> {
    /// A cache with [`DEFAULT_SHARDS`] shards and no capacity bound.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// A cache with an explicit shard count (power of two recommended).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(shards: usize) -> Self {
        Self::with_shards_and_capacity(shards, None)
    }

    /// A cache holding at most `capacity` ready entries; once over the
    /// bound, the segmented-LRU policy evicts unreferenced entries in
    /// insertion order and gives hit-while-resident entries a protected
    /// second life. A `capacity` of zero is treated as one — an empty
    /// bound would evict every fill before its caller returned.
    pub fn bounded(capacity: usize) -> Self {
        Self::with_shards_and_capacity(DEFAULT_SHARDS, Some(capacity.max(1)))
    }

    fn with_shards_and_capacity(shards: usize, capacity: Option<usize>) -> Self {
        assert!(shards > 0, "cache needs at least one shard");
        Self {
            shards: (0..shards).map(|_| Shard::new()).collect(),
            counters: Counters::new(),
            capacity,
            eviction: Mutex::new(EvictionState::new()),
        }
    }

    /// The capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    fn shard(&self, key: &K) -> &Shard<K, V> {
        &self.shards[self.shard_index(key)]
    }

    fn shard_index(&self, key: &K) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }

    fn note_hit(&self, meta: &EntryMeta) {
        // Thread-local storage is gone only during thread teardown; any
        // stripe is correct then.
        let stripe = HIT_STRIPE.try_with(|s| *s).unwrap_or(0);
        self.counters.hits.add(stripe, 1);
        if self.capacity.is_some() && meta.freq.load(Ordering::Relaxed) < FREQ_CEILING {
            meta.freq.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn new_entry(&self, value: Arc<V>) -> ReadyEntry<V> {
        ReadyEntry {
            value,
            meta: Arc::new(EntryMeta {
                stamp: self.counters.stamp.fetch_add(1, Ordering::Relaxed) + 1,
                freq: AtomicU32::new(0),
            }),
        }
    }

    /// Commits `entry` as `key`'s ready slot and keeps the ready count
    /// exact.
    fn store_ready(&self, shard: &Shard<K, V>, key: &K, entry: &ReadyEntry<V>) {
        if shard.commit(key.clone(), entry.clone()) {
            self.counters.ready.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Looks `key` up without filling; counts as a hit when present.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        match self.shard(key).get(key, |meta| self.note_hit(meta)) {
            Some(Found::Ready(value)) => Some(value),
            _ => None,
        }
    }

    /// Returns the cached value for `key`, computing it with `compute` on
    /// a miss. Concurrent callers for the same key coalesce onto a single
    /// computation; the outcome says which role this call played.
    pub fn get_or_compute(&self, key: &K, compute: impl FnOnce() -> V) -> (Arc<V>, CacheOutcome) {
        match self.try_get_or_compute(key, || Ok::<V, std::convert::Infallible>(compute())) {
            Ok(found) => found,
            Err(infallible) => match infallible {},
        }
    }

    /// Like [`ShardedCache::get_or_compute`], but the computation may
    /// fail. An `Err` is **never cached**: the in-flight slot is removed
    /// and every coalesced waiter is woken to retry (one of them becomes
    /// the next leader), exactly as if the closure had panicked. The
    /// error is returned to the leader only; waiters re-run `compute`
    /// under their own call's closure.
    pub fn try_get_or_compute<E>(
        &self,
        key: &K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, CacheOutcome), E> {
        let shard = self.shard(key);
        let flight = loop {
            // A hit or a visible flight needs only the read lock; a miss
            // decides its role again under the write lock, where exactly
            // one thread installs the in-flight slot.
            let on_hit = |meta: &EntryMeta| self.note_hit(meta);
            let found = match shard.get(key, on_hit) {
                Some(found) => found,
                None => match shard.claim(key, on_hit) {
                    Ok(flight) => break flight,
                    Err(found) => found,
                },
            };
            match found {
                Found::Ready(value) => return Ok((value, CacheOutcome::Hit)),
                Found::InFlight(flight) => {
                    if let Some(v) = self.await_flight(&flight) {
                        return Ok((v, CacheOutcome::Waited));
                    }
                    // The leader panicked or failed: retry and take over.
                }
            }
        };
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        // Compute outside every shard lock. The guard clears the in-flight
        // slot and wakes waiters on *any* early exit — panic or `Err` —
        // so a failed leader can never wedge them.
        let mut guard = FlightGuard {
            shard,
            key: Some(key.clone()),
            flight: Arc::clone(&flight),
        };
        let value = Arc::new(compute()?);
        guard.key = None; // disarm: the fill is committing
        let entry = self.new_entry(Arc::clone(&value));
        self.store_ready(shard, key, &entry);
        *flight.state.lock() = FlightState::Done(Arc::clone(&value));
        flight.ready.notify_all();
        self.counters.computations.fetch_add(1, Ordering::Relaxed);
        self.register(std::iter::once((key.clone(), entry.meta)));
        Ok((value, CacheOutcome::Computed))
    }

    /// Evicts `key`'s ready entry, if any (counted as an invalidation —
    /// the knob for entries found corrupt after the fact). An in-flight
    /// slot is left alone: its leader still owns the fill and its waiters
    /// its condvar.
    pub fn remove(&self, key: &K) -> bool {
        let removed = self
            .shard(key)
            .remove_if(key, |slot| matches!(slot, Slot::Ready(_)));
        let Some(Slot::Ready(_)) = removed else {
            return false;
        };
        self.counters.ready.fetch_sub(1, Ordering::Relaxed);
        self.counters.invalidations.fetch_add(1, Ordering::Relaxed);
        if self.capacity.is_some() {
            let mut ev = self.eviction.lock();
            // A racing re-fill may already be resident: the live index
            // follows the shard. The removed entry's order record goes
            // stale and is skipped/compacted later — never evicting the
            // new incarnation (the stale-order fix).
            self.sync_live(&mut ev, key);
            ev.compact();
        }
        true
    }

    /// Blocks until `flight` resolves; `None` means it was abandoned.
    fn await_flight(&self, flight: &Flight<V>) -> Option<Arc<V>> {
        self.counters
            .coalesced_waits
            .fetch_add(1, Ordering::Relaxed);
        let mut state = flight.state.lock();
        loop {
            match &*state {
                FlightState::Done(v) => return Some(Arc::clone(v)),
                FlightState::Abandoned => return None,
                FlightState::Pending => flight.ready.wait(&mut state),
            }
        }
    }

    /// Inserts a ready value, replacing any previous entry.
    pub fn insert(&self, key: K, value: Arc<V>) {
        self.insert_many([(key, value)]);
    }

    /// Bulk [`ShardedCache::insert`]: one O(1) shard insert per entry and
    /// a single eviction pass for the whole batch — how a warm restart
    /// from a large ahead-of-time bundle is loaded.
    pub fn insert_many(&self, entries: impl IntoIterator<Item = (K, Arc<V>)>) {
        let mut registered = Vec::new();
        for (key, value) in entries {
            let entry = self.new_entry(value);
            self.store_ready(self.shard(&key), &key, &entry);
            registered.push((key, entry.meta));
        }
        self.counters
            .direct_inserts
            .fetch_add(registered.len() as u64, Ordering::Relaxed);
        self.register(registered);
    }

    /// Registers committed entries with the eviction state and trims back
    /// to capacity. No-op when unbounded (the default never takes the
    /// order lock). Lock order is eviction state → shard; no caller holds
    /// a shard lock while acquiring the eviction lock, so the two cannot
    /// deadlock.
    fn register(&self, entries: impl IntoIterator<Item = (K, Arc<EntryMeta>)>) {
        let Some(capacity) = self.capacity else {
            return;
        };
        let mut ev = self.eviction.lock();
        for (key, meta) in entries {
            // Between this entry's store and now, a racing store or remove
            // of the key may have replaced it. Only a still-resident entry
            // gets an order record; a replacement is registered by its own
            // writer.
            if self.sync_live(&mut ev, &key) == Some(meta.stamp) {
                ev.probation.push_back(OrderRecord {
                    key,
                    stamp: meta.stamp,
                });
            }
        }
        self.evict_to_capacity(&mut ev, capacity);
        ev.compact();
    }

    /// Makes the live index agree with `key`'s shard slot, read under the
    /// eviction lock, and returns the resident entry's stamp. Every write
    /// to a slot (store, remove) is followed by a sync, so once writers
    /// quiesce the index holds exactly the resident entries.
    fn sync_live(&self, ev: &mut EvictionState<K>, key: &K) -> Option<u64> {
        match self.shard(key).ready_meta(key) {
            Some(meta) => {
                let stamp = meta.stamp;
                ev.live.insert(key.clone(), meta);
                Some(stamp)
            }
            None => {
                ev.live.remove(key);
                None
            }
        }
    }

    /// The segmented-LRU eviction scan. Victims come from the probation
    /// queue first (insertion order); an entry that was hit while
    /// resident is promoted to the protected queue on its first scan
    /// instead of dying. The protected queue is capped below `capacity`,
    /// so a fresh fill is never the only record left to evict: once a
    /// promotion puts it over its cap, its oldest record is scanned next,
    /// evicted if not hit since its promotion, else given a
    /// halved-frequency second chance. The scan budget (one full pass
    /// over the order records) guarantees termination even when
    /// everything is hot: once it runs out, the next live record is
    /// evicted regardless.
    fn evict_to_capacity(&self, ev: &mut EvictionState<K>, capacity: usize) {
        let protected_cap = capacity - (capacity / 5).max(1);
        let mut budget = ev.order_len();
        while self.counters.ready.load(Ordering::Relaxed) > capacity {
            let forced = budget == 0;
            let from_probation = ev.protected.len() <= protected_cap;
            let queue = if from_probation {
                &mut ev.probation
            } else {
                &mut ev.protected
            };
            // Entries committed but not yet registered (a racing fill) can
            // leave `ready` transiently above the bound with probation
            // empty; their own registration will re-run this scan.
            let Some(record) = queue.pop_front() else {
                break;
            };
            budget = budget.saturating_sub(1);
            let meta = match ev.live.get(&record.key) {
                Some(m) if m.stamp == record.stamp => Arc::clone(m),
                // Stale record (key removed or re-filled since it was
                // enqueued): drop it without counting an eviction.
                _ => continue,
            };
            let freq = meta.freq.load(Ordering::Relaxed);
            if !forced && freq > 0 {
                // Promote (probation → protected) or rotate (protected)
                // with decayed frequency instead of evicting a hot entry.
                meta.freq
                    .store(if from_probation { 0 } else { freq / 2 }, Ordering::Relaxed);
                ev.protected.push_back(record);
                continue;
            }
            // Evict under the victim shard's write lock, re-checking
            // identity by stamp: a concurrent remove + re-fill of the key
            // must never have its *new* entry evicted by this record.
            let victim = self.shard(&record.key).remove_if(
                &record.key,
                |slot| matches!(slot, Slot::Ready(e) if e.meta.stamp == record.stamp),
            );
            ev.live.remove(&record.key);
            if victim.is_some() {
                self.counters.ready.fetch_sub(1, Ordering::Relaxed);
                self.counters.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Clones out every ready value — a consistent-enough snapshot taken
    /// shard by shard, without holding any lock across the whole scan.
    pub fn snapshot(&self) -> Vec<Arc<V>> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.map.read().values().filter_map(|slot| match slot {
                Slot::Ready(e) => Some(Arc::clone(&e.value)),
                Slot::InFlight(_) => None,
            }));
        }
        out
    }

    /// Number of ready entries, counted by scanning the shards — the
    /// ground truth the [`ShardedCache::ready_entries`] atomic is tested
    /// against. Prefer `ready_entries` (O(1)) on hot paths.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.map
                    .read()
                    .values()
                    .filter(|slot| matches!(slot, Slot::Ready(_)))
                    .count()
            })
            .sum()
    }

    /// Exact ready-entry count from the maintained atomic (no scans).
    pub fn ready_entries(&self) -> usize {
        self.counters.ready.load(Ordering::Relaxed)
    }

    /// Whether the cache holds no ready entries.
    pub fn is_empty(&self) -> bool {
        self.ready_entries() == 0
    }

    /// Snapshots the counters. `entries` comes from the maintained atomic
    /// ready count — this never scans the shards.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.sum(),
            misses: self.counters.misses.load(Ordering::Relaxed),
            computations: self.counters.computations.load(Ordering::Relaxed),
            coalesced_waits: self.counters.coalesced_waits.load(Ordering::Relaxed),
            direct_inserts: self.counters.direct_inserts.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            invalidations: self.counters.invalidations.load(Ordering::Relaxed),
            entries: self.counters.ready.load(Ordering::Relaxed) as u64,
        }
    }

    /// Checks the cache's structural invariants, intended for tests and
    /// the `cache-bench` smoke at quiescence (no concurrent mutators):
    /// the atomic ready count equals a full scan, and when bounded, the
    /// order state is consistent with and bounded by the live entries.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let scanned = self.len();
        let ready = self.ready_entries();
        if scanned != ready {
            return Err(format!(
                "ready-entry counter {ready} != scanned entry count {scanned}"
            ));
        }
        if let Some(capacity) = self.capacity {
            if ready > capacity {
                return Err(format!("{ready} ready entries exceed capacity {capacity}"));
            }
            let ev = self.eviction.lock();
            if ev.live.len() != ready {
                return Err(format!(
                    "live-stamp index holds {} keys for {ready} ready entries",
                    ev.live.len()
                ));
            }
            let bound = 2 * ev.live.len() + 64 + 1;
            if ev.order_len() > bound {
                return Err(format!(
                    "order queues hold {} records, over the compaction bound {bound}",
                    ev.order_len()
                ));
            }
        }
        Ok(())
    }
}

impl<K: Eq + Hash + Clone, V> Default for ShardedCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone, V> std::fmt::Debug for ShardedCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn hit_after_compute_and_counters() {
        let cache: ShardedCache<u64, String> = ShardedCache::new();
        let (v, outcome) = cache.get_or_compute(&7, || "seven".to_string());
        assert_eq!(outcome, CacheOutcome::Computed);
        assert_eq!(&*v, "seven");
        let (v2, outcome2) = cache.get_or_compute(&7, || unreachable!("must hit"));
        assert_eq!(outcome2, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&v, &v2));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.computations), (1, 1, 1));
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.in_flight(), 0);
    }

    #[test]
    fn hit_rate_is_zero_before_first_lookup_and_never_nan() {
        let stats = CacheStats::default();
        assert_eq!(stats.hit_rate(), 0.0, "empty stats must not be NaN");
        assert!(stats.hit_rate().is_finite());
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        assert!(cache.stats().hit_rate().is_finite());
        let _ = cache.get_or_compute(&1, || 1);
        let _ = cache.get(&1);
        assert_eq!(cache.stats().hit_rate(), 0.5);
    }

    #[test]
    fn concurrent_misses_compute_exactly_once() {
        let cache: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::new());
        let computed = Arc::new(AtomicUsize::new(0));
        let threads = 8;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let cache = Arc::clone(&cache);
                let computed = Arc::clone(&computed);
                scope.spawn(move || {
                    let (v, _) = cache.get_or_compute(&42, || {
                        computed.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        4242
                    });
                    assert_eq!(*v, 4242);
                });
            }
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1, "single flight");
        let stats = cache.stats();
        assert_eq!(stats.computations, 1);
        assert_eq!(stats.hits + stats.coalesced_waits, threads - 1);
    }

    #[test]
    fn panicked_flight_is_taken_over() {
        let cache: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::new());
        let c2 = Arc::clone(&cache);
        let panicker = std::thread::spawn(move || {
            let _ = c2.get_or_compute(&1, || panic!("simulated compile failure"));
        });
        assert!(panicker.join().is_err());
        // The key is not wedged: the next caller computes it.
        let (v, outcome) = cache.get_or_compute(&1, || 11);
        assert_eq!((*v, outcome), (11, CacheOutcome::Computed));
    }

    #[test]
    fn failed_flight_is_not_cached_and_retries() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        let err = cache
            .try_get_or_compute(&5, || Err::<u64, &str>("injected"))
            .expect_err("leader must see its own error");
        assert_eq!(err, "injected");
        assert_eq!(cache.len(), 0, "errors are never cached");
        assert!(cache.get(&5).is_none());
        // The key is not wedged: the next caller computes fresh.
        let (v, outcome) = cache
            .try_get_or_compute(&5, || Ok::<u64, &str>(55))
            .expect("retry succeeds");
        assert_eq!((*v, outcome), (55, CacheOutcome::Computed));
        let stats = cache.stats();
        assert_eq!(stats.computations, 1, "only the success counts");
        assert_eq!(stats.misses, 2, "both calls missed");
    }

    #[test]
    fn followers_of_failed_leader_retry_instead_of_hanging() {
        // One leader fails (errors or panics) while several followers are
        // already blocked on its flight. Every follower must terminate:
        // one takes over and computes, the rest share the result.
        let cache: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::new());
        let started = Arc::new(std::sync::Barrier::new(2));
        let leader = {
            let cache = Arc::clone(&cache);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                let _ = cache.try_get_or_compute(&9, || {
                    started.wait(); // followers may now pile on
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    Err::<u64, &str>("leader fails")
                });
            })
        };
        started.wait();
        let followers: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    let (v, _) = cache
                        .try_get_or_compute(&9, || Ok::<u64, &str>(99))
                        .expect("follower retry must succeed");
                    *v
                })
            })
            .collect();
        leader.join().expect("leader thread must not die");
        for f in followers {
            assert_eq!(f.join().expect("follower must terminate"), 99);
        }
        let stats = cache.stats();
        assert_eq!(stats.computations, 1, "exactly one successful fill");
        assert!(cache.get(&9).is_some());
    }

    #[test]
    fn followers_of_panicked_leader_do_not_hang() {
        let cache: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::new());
        let started = Arc::new(std::sync::Barrier::new(2));
        let leader = {
            let cache = Arc::clone(&cache);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                let _ = cache.get_or_compute(&3, || {
                    started.wait();
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    panic!("injected compile panic");
                });
            })
        };
        started.wait();
        let followers: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    let (v, _) = cache.get_or_compute(&3, || 33);
                    *v
                })
            })
            .collect();
        assert!(leader.join().is_err(), "leader panics");
        for f in followers {
            assert_eq!(f.join().expect("follower must terminate"), 33);
        }
    }

    #[test]
    fn remove_evicts_ready_entries_and_counts_invalidations() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        cache.insert(1, Arc::new(10));
        assert!(cache.remove(&1), "ready entry removed");
        assert!(!cache.remove(&1), "second remove is a no-op");
        assert!(!cache.remove(&2), "absent key is a no-op");
        assert!(cache.get(&1).is_none());
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.entries, 0);
        // Removed keys recompute on next sight.
        let (_, outcome) = cache.get_or_compute(&1, || 11);
        assert_eq!(outcome, CacheOutcome::Computed);
    }

    #[test]
    fn snapshot_and_direct_insert() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        for k in 0..100 {
            cache.insert(k, Arc::new(k * 2));
        }
        assert_eq!(cache.len(), 100);
        let mut values: Vec<u64> = cache.snapshot().iter().map(|v| **v).collect();
        values.sort_unstable();
        assert_eq!(values, (0..100).map(|k| k * 2).collect::<Vec<_>>());
        assert_eq!(cache.stats().direct_inserts, 100);
        cache.check_invariants().expect("invariants");
    }

    #[test]
    fn insert_many_matches_individual_inserts() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        cache.insert_many((0..500).map(|k| (k, Arc::new(k * 3))));
        assert_eq!(cache.len(), 500);
        assert_eq!(cache.ready_entries(), 500);
        for k in 0..500 {
            assert_eq!(*cache.get(&k).expect("present"), k * 3);
        }
        assert_eq!(cache.stats().direct_inserts, 500);
        cache.check_invariants().expect("invariants");
        // Re-inserting the same keys replaces, never double-counts.
        cache.insert_many((0..500).map(|k| (k, Arc::new(k * 4))));
        assert_eq!(cache.ready_entries(), 500);
        assert_eq!(*cache.get(&7).expect("present"), 28);
        cache.check_invariants().expect("invariants");
    }

    #[test]
    fn bounded_cache_evicts_unreferenced_entries_in_insertion_order() {
        let cache: ShardedCache<u64, u64> = ShardedCache::bounded(1);
        assert_eq!(cache.capacity(), Some(1));
        let (_, o1) = cache.get_or_compute(&1, || 10);
        let (_, o2) = cache.get_or_compute(&2, || 20);
        // Key 1 was evicted to make room for key 2, so it recomputes.
        let (v1, o3) = cache.get_or_compute(&1, || 11);
        assert_eq!(
            (o1, o2, o3),
            (
                CacheOutcome::Computed,
                CacheOutcome::Computed,
                CacheOutcome::Computed
            )
        );
        assert_eq!(*v1, 11);
        let stats = cache.stats();
        assert_eq!(stats.computations, 3);
        assert!(stats.entries <= 1);
        assert!(stats.evictions >= 2, "evictions={}", stats.evictions);
        cache.check_invariants().expect("invariants");
    }

    #[test]
    fn bounded_cache_keeps_newest_entries() {
        // Without any hits, the segmented-LRU policy degenerates to
        // insertion order: the newest entries survive.
        let cache: ShardedCache<u64, u64> = ShardedCache::bounded(4);
        for k in 0..32 {
            cache.insert(k, Arc::new(k));
        }
        assert_eq!(cache.len(), 4);
        for k in 28..32 {
            assert!(cache.get(&k).is_some(), "key {k} should survive");
        }
        for k in 0..28 {
            assert!(cache.get(&k).is_none(), "key {k} should be evicted");
        }
        assert_eq!(cache.stats().evictions, 28);
        cache.check_invariants().expect("invariants");
    }

    #[test]
    fn hot_entries_survive_a_churning_tail() {
        // The capacity-thrash fix: a hit-while-resident entry is promoted
        // to the protected segment and outlives a stream of one-shot keys
        // that would have FIFO-evicted it.
        let cache: ShardedCache<u64, u64> = ShardedCache::bounded(4);
        cache.insert(1000, Arc::new(1));
        for _ in 0..3 {
            assert!(cache.get(&1000).is_some());
        }
        for k in 0..64 {
            cache.insert(k, Arc::new(k));
        }
        assert!(
            cache.get(&1000).is_some(),
            "hot key must survive 64 cold inserts at capacity 4"
        );
        assert_eq!(cache.len(), 4);
        cache.check_invariants().expect("invariants");
    }

    #[test]
    fn a_fresh_fill_survives_a_fully_hit_cache() {
        // Once every resident entry has been hit, an uncapped protected
        // segment left each new fill the only probation record, evicted
        // inside its own insert. The protected cap keeps a probation slot.
        let cache: ShardedCache<u64, u64> = ShardedCache::bounded(4);
        for k in 0..4 {
            cache.insert(k, Arc::new(k));
        }
        for k in 0..4 {
            assert!(cache.get(&k).is_some());
        }
        for k in 100..105 {
            cache.insert(k, Arc::new(k));
            assert!(
                cache.get(&k).is_some(),
                "fill {k} evicted by its own insert"
            );
        }
        assert_eq!(cache.len(), 4);
        cache.check_invariants().expect("invariants");
    }

    #[test]
    fn stale_order_records_do_not_leak_or_evict_reinserted_keys() {
        // Regression for the FIFO-order leak: an invalidate/re-insert
        // loop used to grow the order list without bound, and the stale
        // front records could evict a re-inserted key prematurely.
        let cache: ShardedCache<u64, u64> = ShardedCache::bounded(8);
        for k in 0..8 {
            cache.insert(k, Arc::new(k));
        }
        for round in 0..1000u64 {
            let k = round % 8;
            assert!(cache.remove(&k), "round {round}: live entry removed");
            cache.insert(k, Arc::new(k + round));
        }
        // Survivor set: exactly the 8 keys, all at their newest values.
        assert_eq!(cache.len(), 8);
        for k in 0..8 {
            assert!(cache.get(&k).is_some(), "key {k} must survive the churn");
        }
        // No evictions ever happened — the cache never exceeded capacity,
        // so any eviction would have been a stale-record bug.
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0, "stale records must not evict");
        assert_eq!(stats.invalidations, 1000);
        // The order state stayed bounded (the old design held 1008 dead
        // records here; compaction keeps it near the live count).
        let order_len = cache.eviction.lock().order_len();
        assert!(
            order_len <= 2 * 8 + 64 + 1,
            "order list leaked: {order_len} records for 8 live entries"
        );
        cache.check_invariants().expect("invariants");
    }

    #[test]
    fn ready_counter_matches_scan_under_mixed_operations() {
        let cache: ShardedCache<u64, u64> = ShardedCache::bounded(16);
        for k in 0..64 {
            cache.insert(k, Arc::new(k));
            if k % 3 == 0 {
                cache.remove(&(k / 2));
            }
            if k % 5 == 0 {
                let _ = cache.get_or_compute(&(k + 1000), || k);
            }
            assert_eq!(
                cache.ready_entries(),
                cache.len(),
                "counter diverged at step {k}"
            );
        }
        cache.check_invariants().expect("invariants");
    }

    /// The two interleavings the churn test below hits only now and then,
    /// replayed step by step: a write lands between another writer's
    /// store and its registration.
    #[test]
    fn registration_after_a_racing_write_keeps_the_live_index_exact() {
        let cache: ShardedCache<u64, u64> = ShardedCache::bounded(8);
        let shard = cache.shard(&1);
        // Two inserts of key 1 store in order, then register in reverse:
        // the live index must follow the resident (second) entry.
        let (first, second) = (cache.new_entry(Arc::new(10)), cache.new_entry(Arc::new(11)));
        cache.store_ready(shard, &1, &first);
        cache.store_ready(shard, &1, &second);
        cache.register([(1, Arc::clone(&second.meta))]);
        cache.register([(1, Arc::clone(&first.meta))]);
        cache.check_invariants().expect("store, store, register x2");
        assert!(cache.remove(&1));
        cache.check_invariants().expect("then remove");
        // A remove between an insert's store and its registration: the
        // late registration must not resurrect the removed key.
        let third = cache.new_entry(Arc::new(12));
        cache.store_ready(shard, &1, &third);
        assert!(cache.remove(&1));
        cache.register([(1, Arc::clone(&third.meta))]);
        cache.check_invariants().expect("store, remove, register");
        assert_eq!(cache.eviction.lock().live.len(), 0);
    }

    #[test]
    fn ready_counter_matches_scan_under_concurrent_churn() {
        let cache: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::bounded(32));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..500u64 {
                        let k = (t * 1000 + i) % 96;
                        match i % 4 {
                            0 => cache.insert(k, Arc::new(i)),
                            1 => {
                                let _ = cache.get_or_compute(&k, || i);
                            }
                            2 => {
                                let _ = cache.get(&k);
                            }
                            _ => {
                                let _ = cache.remove(&k);
                            }
                        }
                    }
                });
            }
        });
        cache.check_invariants().expect("invariants after churn");
    }

    #[test]
    fn eviction_racing_a_committing_flight_strands_no_one() {
        // A bounded cache under simultaneous fills: flights commit while
        // other threads' eviction scans trim the same shards. Nobody may
        // hang, every caller gets its value, and the counters stay
        // consistent (evictions never exceed successful fills).
        let cache: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::bounded(4));
        let threads = 8u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let k = (t + i) % 32;
                        let (v, _) = cache.get_or_compute(&k, || k * 7);
                        assert_eq!(*v, k * 7, "wrong value for key {k}");
                    }
                });
            }
        });
        let stats = cache.stats();
        let fills = stats.computations + stats.direct_inserts;
        assert!(
            stats.evictions <= fills,
            "evictions {} exceed fills {fills} — double-counted",
            stats.evictions
        );
        assert_eq!(
            stats.entries as usize,
            cache.len(),
            "ready counter diverged under racing eviction"
        );
        cache.check_invariants().expect("invariants");
    }

    #[test]
    fn keys_spread_across_shards() {
        let cache: ShardedCache<u64, u64> = ShardedCache::with_shards(16);
        for k in 0..256 {
            cache.insert(k, Arc::new(k));
        }
        let occupied = cache
            .shards
            .iter()
            .filter(|s| !s.map.read().is_empty())
            .count();
        assert!(occupied >= 12, "only {occupied}/16 shards occupied");
    }

    #[test]
    fn cross_thread_visibility() {
        // A value inserted on one thread is visible to another thread,
        // and every later mutation is visible to the next lookup.
        let cache: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::new());
        cache.insert(5, Arc::new(50));
        assert_eq!(*cache.get(&5).expect("same-thread read"), 50);
        let c2 = Arc::clone(&cache);
        let handle = std::thread::spawn(move || c2.get(&5).map(|v| *v));
        assert_eq!(handle.join().expect("reader thread"), Some(50));
        cache.insert(5, Arc::new(51));
        assert_eq!(*cache.get(&5).expect("post-update read"), 51);
        cache.remove(&5);
        assert!(cache.get(&5).is_none(), "removal visible immediately");
    }

    /// `n` keys other than `key` that hash to `key`'s shard.
    fn same_shard_keys(cache: &ShardedCache<u64, u64>, key: u64, n: usize) -> Vec<u64> {
        let shard = cache.shard_index(&key);
        (key + 1..)
            .filter(|k| cache.shard_index(k) == shard)
            .take(n)
            .collect()
    }

    #[test]
    fn a_fill_does_not_copy_its_shard() {
        // A fill is one in-place insert: the other entries of its shard
        // are neither cloned into a new map nor pinned by a reader-side
        // copy, so a held value's reference count does not move.
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        let other = same_shard_keys(&cache, 0, 1)[0];
        cache.insert(0, Arc::new(0));
        let held = cache.get(&0).expect("resident");
        let before = Arc::strong_count(&held);
        let (_, outcome) = cache.get_or_compute(&other, || 1);
        assert_eq!(outcome, CacheOutcome::Computed);
        assert_eq!(
            Arc::strong_count(&held),
            before,
            "filling a same-shard key copied the shard's entries"
        );
    }

    #[test]
    fn compute_runs_outside_every_shard_lock() {
        // A computation that reads, fills, snapshots and counts keys of
        // its own shard would self-deadlock if the fill held any shard
        // lock across it. Run it on a helper thread so a regression fails
        // the test instead of hanging the suite.
        let cache: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::new());
        let keys = same_shard_keys(&cache, 0, 2);
        cache.insert(keys[0], Arc::new(10));
        let (done, finished) = std::sync::mpsc::channel();
        let worker = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let found = cache.get_or_compute(&0, || {
                    assert_eq!(cache.get(&keys[0]).map(|v| *v), Some(10));
                    let (inner, _) = cache
                        .try_get_or_compute(&keys[1], || Ok::<u64, ()>(20))
                        .expect("nested fill");
                    assert_eq!(*inner, 20);
                    assert_eq!(cache.snapshot().len(), 2);
                    assert_eq!(cache.len(), 2);
                    7
                });
                let _ = done.send(());
                (*found.0, found.1)
            })
        };
        // A panic inside the worker disconnects the channel; only a
        // timeout means it is stuck on a lock.
        let waited = finished.recv_timeout(std::time::Duration::from_secs(10));
        assert!(
            !matches!(waited, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
            "compute blocked on a shard lock"
        );
        let result = worker.join().expect("nested cache calls inside compute");
        assert_eq!(result, (7, CacheOutcome::Computed));
        assert_eq!(cache.len(), 3);
        cache.check_invariants().expect("invariants");
    }
}

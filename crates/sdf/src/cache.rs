//! Global, thread-safe memoization of throughput analyses — across
//! graphs, runs, threads, and (through the serializable entries)
//! processes.
//!
//! The design flow's cost is dominated by state-space throughput analysis
//! of expanded interference graphs, and a DSE sweep re-pays that cost at
//! every design point even when different points land on identical
//! expanded graphs (common across tile counts, interconnects, and
//! admission orders). [`GlobalAnalysisCache`] keys every analysis by
//!
//! * a **canonical-JSON graph hash** ([`GraphFingerprint`]): the graph is
//!   canonicalized (actors and channels sorted by name, channel endpoints
//!   expressed as canonical actor ranks) into a [`serde::Value`] tree and
//!   hashed with the pinned [`serde::stable_hash`] — so two structurally
//!   identical graphs hash equal regardless of insertion order, and the
//!   64-bit key is stable across processes and can be persisted;
//! * the **capacity vector**, kept in the on-disk layout and always empty:
//!   every analysis models capacities in-graph; and
//! * the **analysis options** (every [`AnalysisOptions`] field), so a
//!   result computed under one configuration is never served to another —
//!   invalidation-by-options falls out of the key derivation.
//!
//! Interior mutability is a fixed set of `Mutex`-protected shards (an
//! FxHash map each), picked by key hash, so concurrent DSE workers rarely
//! contend on the same lock. Hit/miss/insert counters are atomics,
//! surfaced per run via [`GlobalAnalysisCache::stats`] (`mamps dse
//! --stats`).
//!
//! Entries [`export`](GlobalAnalysisCache::export) to /
//! [`import`](GlobalAnalysisCache::import) from serializable
//! [`CacheEntry`] values; `mamps_core::dse::cache` persists them as JSON
//! lines (`--cache-dir`), which is what makes a second sweep over the
//! same corpus warm across processes and shards.
//!
//! Hash collisions: two *different* graphs colliding on the 64-bit
//! fingerprint would alias cache entries. The keys mix every actor,
//! channel, rate and token count through a tagged, length-prefixed walk;
//! at DSE scales (thousands of distinct graphs) the collision probability
//! is ~n²/2⁶⁵ — accepted, as SDF3-style flows accept it for memoized
//! analyses.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use serde::{stable_hash, Deserialize, Serialize, Value};

use crate::error::SdfError;
use crate::graph::{ActorId, ChannelId, SdfGraph};
use crate::state_space::{throughput, AnalysisOptions, ThroughputResult};

/// FxHash (the rustc hash) as a `std::hash::Hasher`, for the in-memory
/// shard maps. Quality is sufficient for table indexing and it is much
/// cheaper than SipHash on the short keys used here. (Only the *stable*
/// [`serde::stable_hash`] is persisted; this table hash never leaves the
/// process.)
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;
type FxHashMap<K, V> = HashMap<K, V, FxBuild>;

/// The canonical identity of a graph for caching purposes: a stable
/// 64-bit hash over the canonical-JSON form.
///
/// Canonicalization sorts actors and channels by name (ties broken by
/// content), rewrites channel endpoints as ranks in the canonical actor
/// order, and drops the graph's own name (it does not influence any
/// analysis result). Two graphs built with the same actors and channels
/// in any insertion order therefore produce the same fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphFingerprint {
    hash: u64,
}

impl GraphFingerprint {
    /// Computes the fingerprint of `graph`. Cost is one O(V log V +
    /// E log E) sort plus a linear hash walk — far below one state-space
    /// analysis of the same graph.
    pub fn of(graph: &SdfGraph) -> GraphFingerprint {
        let mut actor_order: Vec<usize> = (0..graph.actor_count()).collect();
        actor_order.sort_by(|&a, &b| {
            let (a, b) = (graph.actor(ActorId(a)), graph.actor(ActorId(b)));
            (a.name(), a.execution_time()).cmp(&(b.name(), b.execution_time()))
        });
        let mut actor_rank = vec![0usize; graph.actor_count()];
        for (rank, &orig) in actor_order.iter().enumerate() {
            actor_rank[orig] = rank;
        }

        let channel_key = |i: usize| {
            let c = graph.channel(ChannelId(i));
            (
                c.name().to_string(),
                actor_rank[c.src().0],
                actor_rank[c.dst().0],
                c.production_rate(),
                c.consumption_rate(),
                c.initial_tokens(),
                c.token_size(),
            )
        };
        let mut channel_order: Vec<usize> = (0..graph.channel_count()).collect();
        channel_order.sort_by_key(|&i| channel_key(i));

        let int = |v: u64| Value::Int(i128::from(v));
        let actors = Value::Seq(
            actor_order
                .iter()
                .map(|&i| {
                    let a = graph.actor(ActorId(i));
                    Value::Seq(vec![
                        Value::Str(a.name().to_string()),
                        int(a.execution_time()),
                    ])
                })
                .collect(),
        );
        let channels = Value::Seq(
            channel_order
                .iter()
                .map(|&i| {
                    let (name, src, dst, p, c, tokens, size) = channel_key(i);
                    Value::Seq(vec![
                        Value::Str(name),
                        Value::Int(src as i128),
                        Value::Int(dst as i128),
                        int(p),
                        int(c),
                        int(tokens),
                        int(size),
                    ])
                })
                .collect(),
        );
        GraphFingerprint {
            hash: stable_hash(&Value::Seq(vec![actors, channels])),
        }
    }

    /// The stable 64-bit canonical-JSON hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

/// Full cache key: graph fingerprint hash, capacity vector (empty: every
/// analysis models capacities in-graph) and every analysis-options field.
/// The derived `Ord` (field order) is the export order of the on-disk
/// JSONL layer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Key {
    graph: u64,
    caps: Vec<u64>,
    auto_concurrency: bool,
    max_states: u64,
    max_firings_per_instant: u64,
}

impl Key {
    fn new(fp: &GraphFingerprint, opts: &AnalysisOptions) -> Key {
        Key {
            graph: fp.hash,
            caps: Vec::new(),
            auto_concurrency: opts.auto_concurrency,
            max_states: opts.max_states as u64,
            max_firings_per_instant: opts.max_firings_per_instant as u64,
        }
    }
}

/// One serializable cache entry, the unit of the on-disk JSONL layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheEntry {
    /// [`GraphFingerprint::hash`] of the analysed graph.
    pub graph: u64,
    /// Capacity vector in canonical channel order; empty, since every
    /// analysis models capacities in-graph.
    pub caps: Vec<u64>,
    /// [`AnalysisOptions::auto_concurrency`] of the analysis.
    pub auto_concurrency: bool,
    /// [`AnalysisOptions::max_states`] of the analysis.
    pub max_states: u64,
    /// [`AnalysisOptions::max_firings_per_instant`] of the analysis.
    pub max_firings_per_instant: u64,
    /// The memoized outcome (errors are cached too: a saturating
    /// distribution stays saturating).
    pub result: Result<ThroughputResult, SdfError>,
}

/// Counter snapshot of a memo table ([`GlobalAnalysisCache`] or
/// [`crate::passes::PassCache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Keys newly inserted by this run (imports and overwrites of an
    /// existing key are not counted).
    pub inserts: u64,
    /// Entries currently stored.
    pub entries: usize,
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses / {} inserts ({} entries)",
            self.hits, self.misses, self.inserts, self.entries
        )
    }
}

/// Number of independently locked map shards. A small power of two:
/// enough that a handful of DSE workers rarely collide, cheap enough to
/// iterate for export.
const SHARD_COUNT: usize = 16;

/// The memo table behind both [`GlobalAnalysisCache`] and
/// [`crate::passes::PassCache`]: `SHARD_COUNT` FxHash maps, each behind its
/// own `Mutex` and picked by key hash, plus relaxed hit/miss/insert
/// counters.
///
/// All methods take `&self`; a shard is locked only for the map access
/// itself, never while the caller computes a value, so concurrent DSE
/// workers rarely contend. Values stay typed (no serialization on the hit
/// path). Two workers racing on one key both compute and both insert;
/// the callers' values are deterministic, so the second write is benign.
pub(crate) struct ShardedStore<K, V> {
    shards: [Mutex<FxHashMap<K, V>>; SHARD_COUNT],
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

impl<K: Hash + Eq + Ord + Clone, V: Clone> ShardedStore<K, V> {
    /// An empty store.
    pub(crate) fn new() -> Self {
        ShardedStore {
            shards: std::array::from_fn(|_| Mutex::new(FxHashMap::default())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &K) -> MutexGuard<'_, FxHashMap<K, V>> {
        let h = FxBuild::default().hash_one(key);
        self.shards[(h as usize) % SHARD_COUNT]
            .lock()
            .expect("cache shard poisoned")
    }

    /// The stored value for `key`, if any. Counts a hit or a miss.
    pub(crate) fn lookup(&self, key: &K) -> Option<V> {
        let r = self.shard(key).get(key).cloned();
        let counter = if r.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        r
    }

    /// Stores `value` under `key`, replacing any previous value. Only a
    /// key that was not stored before bumps the insert counter.
    pub(crate) fn insert(&self, key: K, value: V) {
        if self.shard(&key).insert(key, value).is_none() {
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Fills the empty slots among `entries` (existing values win) and
    /// returns how many were new. Touches no counter: the counters
    /// account for this run's lookups and inserts only.
    pub(crate) fn import(&self, entries: impl IntoIterator<Item = (K, V)>) -> usize {
        let mut added = 0;
        for (key, value) in entries {
            if let Entry::Vacant(slot) = self.shard(&key).entry(key) {
                slot.insert(value);
                added += 1;
            }
        }
        added
    }

    /// Every entry, sorted by key, so equal stores export identical
    /// sequences regardless of insertion or shard order.
    pub(crate) fn export(&self) -> Vec<(K, V)> {
        let mut entries = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            entries.extend(shard.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }

    /// Entries currently stored.
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }
}

/// A global, thread-safe throughput-analysis cache.
///
/// Shared as an `Arc` through `MapOptions`/`FlowOptions`, consulted by
/// every analysis of the flow (the mapping flow's expanded-graph
/// analyses, the genetic binder's fitness analyses and the
/// multi-application shared-system verification) before falling back to
/// the state-space kernel. A typed wrapper over the shared memo table:
/// this type only derives the key and defines the entry type.
pub struct GlobalAnalysisCache {
    store: ShardedStore<Key, Result<ThroughputResult, SdfError>>,
}

impl fmt::Debug for GlobalAnalysisCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GlobalAnalysisCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for GlobalAnalysisCache {
    fn default() -> Self {
        GlobalAnalysisCache::new()
    }
}

impl GlobalAnalysisCache {
    /// An empty cache.
    pub fn new() -> GlobalAnalysisCache {
        GlobalAnalysisCache {
            store: ShardedStore::new(),
        }
    }

    /// [`throughput`] of `graph` through the cache: fingerprints the
    /// graph, returns the memoized result on a hit, computes and memoizes
    /// on a miss. This is the entry point for analyses whose buffer
    /// capacities are modelled in-graph (expanded mapping graphs).
    ///
    /// # Errors
    ///
    /// The (possibly memoized) errors of [`throughput`].
    pub fn throughput(
        &self,
        graph: &SdfGraph,
        opts: &AnalysisOptions,
    ) -> Result<ThroughputResult, SdfError> {
        let key = Key::new(&GraphFingerprint::of(graph), opts);
        if let Some(r) = self.store.lookup(&key) {
            return r;
        }
        let r = throughput(graph, opts);
        self.store.insert(key, r.clone());
        r
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.store.stats()
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every entry as a serializable [`CacheEntry`], sorted by key (graph
    /// hash, capacities, options) so equal caches export byte-identical
    /// JSONL regardless of insertion or shard order.
    pub fn export(&self) -> Vec<CacheEntry> {
        self.store
            .export()
            .into_iter()
            .map(|(k, result)| CacheEntry {
                graph: k.graph,
                caps: k.caps,
                auto_concurrency: k.auto_concurrency,
                max_states: k.max_states,
                max_firings_per_instant: k.max_firings_per_instant,
                result,
            })
            .collect()
    }

    /// Loads entries (e.g. parsed from an on-disk cache file) into the
    /// cache, returning how many were new. Existing entries win over
    /// imported ones; duplicates across files are harmless. Imports touch
    /// no counter.
    pub fn import<I: IntoIterator<Item = CacheEntry>>(&self, entries: I) -> usize {
        self.store.import(entries.into_iter().map(|e| {
            let key = Key {
                graph: e.graph,
                caps: e.caps,
                auto_concurrency: e.auto_concurrency,
                max_states: e.max_states,
                max_firings_per_instant: e.max_firings_per_instant,
            };
            (key, e.result)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SdfGraphBuilder;

    fn two_actor_graph(order: &[&str]) -> SdfGraph {
        // Same structure regardless of `order`: actors A (10) and B (5)
        // with a channel A -> B; only insertion order differs.
        let mut b = SdfGraphBuilder::new("g");
        let mut ids = HashMap::new();
        for &name in order {
            let t = if name == "A" { 10 } else { 5 };
            ids.insert(name, b.add_actor(name, t));
        }
        b.add_channel("e", ids["A"], 2, ids["B"], 1);
        b.build().unwrap()
    }

    #[test]
    fn insertion_order_does_not_change_the_fingerprint() {
        // The satellite contract: two structurally identical graphs with
        // different actor insertion order hash equal under canonical JSON.
        let ab = two_actor_graph(&["A", "B"]);
        let ba = two_actor_graph(&["B", "A"]);
        assert_ne!(ab, ba, "insertion order differs, so the graphs do");
        assert_eq!(
            GraphFingerprint::of(&ab).hash(),
            GraphFingerprint::of(&ba).hash()
        );
    }

    #[test]
    fn channel_insertion_order_does_not_change_the_fingerprint() {
        let build = |flip: bool| {
            let mut b = SdfGraphBuilder::new("g");
            let x = b.add_actor("x", 1);
            let y = b.add_actor("y", 2);
            let add_e = |b: &mut SdfGraphBuilder| b.add_channel("e", x, 1, y, 1);
            let add_f = |b: &mut SdfGraphBuilder| b.add_channel("f", y, 3, x, 2);
            if flip {
                add_f(&mut b);
                add_e(&mut b);
            } else {
                add_e(&mut b);
                add_f(&mut b);
            }
            b.build().unwrap()
        };
        let (g, h) = (build(false), build(true));
        let (fg, fh) = (GraphFingerprint::of(&g), GraphFingerprint::of(&h));
        assert_eq!(fg.hash(), fh.hash());
    }

    #[test]
    fn structural_differences_change_the_fingerprint() {
        let base = two_actor_graph(&["A", "B"]);
        let fp = GraphFingerprint::of(&base).hash();
        let mut b = SdfGraphBuilder::new("g");
        let a = b.add_actor("A", 10);
        let bb = b.add_actor("B", 5);
        b.add_channel_with_tokens("e", a, 2, bb, 1, 1); // one initial token
        assert_ne!(GraphFingerprint::of(&b.build().unwrap()).hash(), fp);
        let mut b = SdfGraphBuilder::new("g");
        let a = b.add_actor("A", 11); // different WCET
        let bb = b.add_actor("B", 5);
        b.add_channel("e", a, 2, bb, 1);
        assert_ne!(GraphFingerprint::of(&b.build().unwrap()).hash(), fp);
    }

    #[test]
    fn graph_name_is_not_part_of_the_identity() {
        let mut b = SdfGraphBuilder::new("one");
        let x = b.add_actor("x", 3);
        b.add_channel_with_tokens("s", x, 1, x, 1, 1);
        let one = b.build().unwrap();
        let mut b = SdfGraphBuilder::new("two");
        let x = b.add_actor("x", 3);
        b.add_channel_with_tokens("s", x, 1, x, 1, 1);
        let two = b.build().unwrap();
        assert_eq!(
            GraphFingerprint::of(&one).hash(),
            GraphFingerprint::of(&two).hash()
        );
    }

    #[test]
    fn cached_throughput_matches_uncached_and_counts() {
        let g = two_actor_graph(&["A", "B"]);
        let opts = AnalysisOptions::default();
        let cache = GlobalAnalysisCache::new();
        let direct = throughput(&g, &opts).unwrap();
        let cold = cache.throughput(&g, &opts).unwrap();
        let warm = cache.throughput(&g, &opts).unwrap();
        assert_eq!(cold, direct);
        assert_eq!(warm, direct);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (1, 1, 1, 1));
    }

    #[test]
    fn options_are_part_of_the_key() {
        let g = two_actor_graph(&["A", "B"]);
        let cache = GlobalAnalysisCache::new();
        let a = AnalysisOptions::default();
        let b = AnalysisOptions {
            max_states: 123_456,
            ..AnalysisOptions::default()
        };
        let ra = cache.throughput(&g, &a).unwrap();
        // Different options must not see `ra`'s entry.
        let rb = cache.throughput(&g, &b).unwrap();
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(ra, throughput(&g, &a).unwrap());
        assert_eq!(rb, throughput(&g, &b).unwrap());
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn export_follows_the_key_order_and_imports_serve_lookups() {
        let g = two_actor_graph(&["A", "B"]);
        let cache = GlobalAnalysisCache::new();
        for max_states in [3000usize, 1000, 2000] {
            let opts = AnalysisOptions {
                max_states,
                ..AnalysisOptions::default()
            };
            cache.throughput(&g, &opts).unwrap();
        }
        let exported = cache.export();
        assert!(exported
            .windows(2)
            .all(|w| w[0].max_states < w[1].max_states));

        let fresh = GlobalAnalysisCache::new();
        assert_eq!(fresh.import(exported.clone()), 3);
        assert_eq!(fresh.export(), exported);
        let opts = AnalysisOptions {
            max_states: 2000,
            ..AnalysisOptions::default()
        };
        assert_eq!(
            fresh.throughput(&g, &opts).unwrap(),
            throughput(&g, &opts).unwrap()
        );
        assert_eq!(fresh.stats().hits, 1);
    }

    #[test]
    fn cache_entries_serialize_to_json_and_back() {
        let g = two_actor_graph(&["A", "B"]);
        let cache = GlobalAnalysisCache::new();
        cache.throughput(&g, &AnalysisOptions::default()).unwrap();
        for e in cache.export() {
            let line = serde::json::to_string(&e);
            let back: CacheEntry = serde::json::from_str(&line).unwrap();
            assert_eq!(back, e);
            assert_eq!(serde::json::to_string(&back), line, "canonical bytes");
        }
    }

    #[test]
    fn errors_are_memoized_too() {
        // A graph that deadlocks (no initial tokens on a cycle).
        let mut b = SdfGraphBuilder::new("dead");
        let x = b.add_actor("x", 1);
        let y = b.add_actor("y", 1);
        b.add_channel("e", x, 1, y, 1);
        b.add_channel("f", y, 1, x, 1);
        let g = b.build().unwrap();
        let opts = AnalysisOptions::default();
        let cache = GlobalAnalysisCache::new();
        let e1 = cache.throughput(&g, &opts).unwrap_err();
        let e2 = cache.throughput(&g, &opts).unwrap_err();
        assert_eq!(e1, e2);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    // The contract of the shared memo table, tested once here for both
    // typed wrappers.

    #[test]
    fn store_counts_lookups_and_new_keys_only() {
        let store: ShardedStore<u64, &str> = ShardedStore::new();
        assert_eq!(store.lookup(&1), None);
        store.insert(1, "a");
        store.insert(1, "b"); // overwrite: stored, not counted
        store.insert(2, "c");
        assert_eq!(store.lookup(&1), Some("b"));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (1, 1, 2, 2));
    }

    #[test]
    fn store_import_fills_empty_slots_uncounted() {
        let store: ShardedStore<u64, &str> = ShardedStore::new();
        store.insert(1, "kept");
        assert_eq!(store.import([(1, "ignored"), (2, "new"), (2, "dup")]), 1);
        assert_eq!(store.import([(2, "again")]), 0);
        assert_eq!(store.export(), vec![(1, "kept"), (2, "new")]);
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (0, 0, 1, 2));
    }

    #[test]
    fn store_export_is_sorted_by_key() {
        let store: ShardedStore<(u64, u64), u64> = ShardedStore::new();
        let keys = [(3, 1), (1, 9), (2, 5), (1, 2), (40, 0), (7, 7)];
        for (i, &k) in keys.iter().enumerate() {
            store.insert(k, i as u64);
        }
        let exported: Vec<(u64, u64)> = store.export().into_iter().map(|(k, _)| k).collect();
        let mut sorted = keys.to_vec();
        sorted.sort();
        assert_eq!(exported, sorted);
        let fresh: ShardedStore<(u64, u64), u64> = ShardedStore::new();
        fresh.import(store.export().into_iter().rev());
        assert_eq!(fresh.export(), store.export(), "order-independent");
    }

    #[test]
    fn store_concurrent_lookups_agree() {
        let store: ShardedStore<u64, u64> = ShardedStore::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for k in 0..50u64 {
                        match store.lookup(&k) {
                            Some(v) => assert_eq!(v, k * k),
                            None => store.insert(k, k * k),
                        }
                    }
                });
            }
        });
        let s = store.stats();
        assert_eq!((s.hits + s.misses, s.inserts, s.entries), (400, 50, 50));
        assert!((0..50).all(|k| store.lookup(&k) == Some(k * k)));
    }
}

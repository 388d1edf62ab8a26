//! Content-addressed compile cache.
//!
//! The validation corpus re-compiles the same byte sequences constantly:
//! probed corpora compile the clean template skeleton under every mutation
//! fraction, campaign scenarios re-run identical shards, and the template
//! emitters draw surface parameters from small sets so structurally
//! identical sources recur across seeds. The simulated compiler is a pure
//! function of `(vendor, spec version, model, lang, source bytes)`, so its
//! outcome can be memoized soundly: a cache hit returns an
//! `Arc<CompileOutcome>` that is **the same object** a fresh compile of the
//! same key produced earlier — byte-identical by construction, and carrying
//! the already-lowered execution artifact and already-derived analyses in
//! its shared slots (see `tests/compile_parity.rs` for the end-to-end
//! equivalence proof against fresh compiles).
//!
//! Keys are addressed by an FNV-1a hash over the source bytes mixed with
//! the configuration discriminants, but correctness never rests on the
//! hash: every probe compares the full key (including the complete source
//! text), so a collision degrades to a miss, never to a wrong answer.
//!
//! Memory is bounded two ways. **Second-touch admission**: a source is
//! memoized only once its address has been seen before, so the long tail of
//! never-recurring sources (most of a probed corpus — every mutation is
//! near-unique) costs eight bytes of address filter instead of a cached
//! AST, and capacity is spent exclusively on sources that demonstrably
//! recur. **Generational eviction**: admitted entries go into a *hot*
//! generation; when the hot generation reaches capacity it is demoted
//! wholesale to *cold* (dropping the previous cold generation), and cold
//! hits are promoted back to hot. At most `2 * capacity` entries are ever
//! retained, so streaming arbitrarily large corpora through a cached
//! session keeps the constant-memory property of the pipeline.
//!
//! # Sharding
//!
//! The cache is internally split into [`DEFAULT_CACHE_SHARDS`] independent
//! shards, each with its own lock, generations, admission filter and
//! hit/miss counters; an address deterministically selects its shard, so
//! per-address semantics (second-touch admission, promotion, object
//! sharing) are exactly those of a single-shard cache while concurrent
//! compile workers touching distinct sources never contend on one lock.
//! [`CompileCache::stats`] merges the per-shard counters (the shard-union
//! law: per-shard tallies sum to the global tally because every lookup
//! lands in exactly one shard); [`CompileCache::shard_stats`] exposes the
//! unmerged rows. Every cache has this one configuration:
//! [`CompileCache::default`] and [`CompileCache::shared`] build it with
//! [`DEFAULT_CACHE_CAPACITY`] hot entries over [`DEFAULT_CACHE_SHARDS`]
//! shards.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use vv_dclang::DirectiveModel;
use vv_specs::Version;

use crate::frontend::{CompileOutcome, Lang};
use crate::vendors::VendorStyle;

/// Default bound on the hot generation (total retention ≤ 2x this).
pub const DEFAULT_CACHE_CAPACITY: usize = 8192;

/// Shard count of every cache. Eight shards keep lock hold times
/// negligible at any worker count this workspace targets while each shard
/// still holds a useful fraction of the capacity.
pub const DEFAULT_CACHE_SHARDS: usize = 8;

/// Cache statistics snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a memoized outcome.
    pub hits: u64,
    /// Lookups that fell through to a fresh compile.
    pub misses: u64,
    /// Entries currently retained (hot + cold generations).
    pub entries: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The full identity of a compilation. Everything the simulated frontends
/// read is part of the key, which is what makes memoization sound.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Key {
    style: VendorStyle,
    version: Version,
    model: DirectiveModel,
    lang: Lang,
    source: Arc<str>,
}

struct Entry {
    key: Key,
    outcome: Arc<CompileOutcome>,
}

/// A borrowed compilation identity, hashed once per compile via
/// [`KeyRef::address`] and threaded through both the probe and the insert.
#[derive(Clone, Copy)]
pub(crate) struct KeyRef<'a> {
    pub(crate) style: VendorStyle,
    pub(crate) version: Version,
    pub(crate) model: DirectiveModel,
    pub(crate) lang: Lang,
    pub(crate) source: &'a str,
}

impl KeyRef<'_> {
    /// FNV-1a over the source bytes plus configuration discriminants.
    pub(crate) fn address(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |byte: u8| {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for &byte in self.source.as_bytes() {
            eat(byte);
        }
        eat(self.style as u8);
        eat(match self.model {
            DirectiveModel::OpenAcc => 0,
            DirectiveModel::OpenMp => 1,
        });
        eat(match self.lang {
            Lang::C => 0,
            Lang::Cpp => 1,
        });
        eat(self.version.major as u8);
        eat((self.version.major >> 8) as u8);
        eat(self.version.minor as u8);
        eat((self.version.minor >> 8) as u8);
        hash
    }

    fn matches(&self, key: &Key) -> bool {
        key.style == self.style
            && key.version == self.version
            && key.model == self.model
            && key.lang == self.lang
            && *key.source == *self.source
    }

    fn to_owned_key(self) -> Key {
        Key {
            style: self.style,
            version: self.version,
            model: self.model,
            lang: self.lang,
            source: self.source.into(),
        }
    }
}

#[derive(Default)]
struct Generations {
    hot: HashMap<u64, Vec<Entry>>,
    cold: HashMap<u64, Vec<Entry>>,
    hot_entries: usize,
    cold_entries: usize,
    /// Addresses compiled at least once: the second-touch admission filter.
    /// A (harmless) hash collision admits a singleton early; the filter is
    /// cleared wholesale if it ever grows past [`MAX_SEEN_ADDRESSES`].
    seen: HashSet<u64>,
}

/// Bound on the admission filters, summed across shards (8 bytes per
/// address; ~32 MB worst case).
const MAX_SEEN_ADDRESSES: usize = 1 << 22;

/// One independently locked slice of the cache: its own generations,
/// admission filter and hit/miss counters.
struct Shard {
    state: Mutex<Generations>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Self {
            state: Mutex::new(Generations::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Generations> {
        self.state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    fn stats(&self) -> CacheStats {
        let state = self.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: state.hot_entries + state.cold_entries,
        }
    }
}

/// A concurrency-safe, bounded, content-addressed map from compilation
/// identity to memoized [`CompileOutcome`]. See the module docs.
pub struct CompileCache {
    /// Total hot capacity across all shards (retention ≤ 2x this).
    capacity: usize,
    /// Hot capacity of each shard (`capacity / shards`, at least 1).
    shard_capacity: usize,
    /// Per-shard bound on the second-touch admission filter.
    seen_limit: usize,
    shards: Box<[Shard]>,
}

impl std::fmt::Debug for CompileCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("CompileCache")
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

impl Default for CompileCache {
    /// [`DEFAULT_CACHE_CAPACITY`] hot entries over [`DEFAULT_CACHE_SHARDS`]
    /// shards.
    fn default() -> Self {
        Self::sized(DEFAULT_CACHE_CAPACITY, DEFAULT_CACHE_SHARDS)
    }
}

impl CompileCache {
    /// A cache of `capacity` hot entries split into `shards` independently
    /// locked shards. The shard count is clamped to `capacity` so each
    /// shard holds at least one hot entry and total retention stays ≤ `2 *
    /// capacity`. An address always selects the same shard, so
    /// per-address admission/eviction semantics are those of a
    /// single-shard cache of `capacity / shards` entries. Only the
    /// eviction tests pick a size other than the default.
    fn sized(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        Self {
            capacity,
            shard_capacity: (capacity / shards).max(1),
            seen_limit: (MAX_SEEN_ADDRESSES / shards).max(1024),
            shards: (0..shards).map(|_| Shard::new()).collect(),
        }
    }

    /// A shared cache with the default capacity and shard count.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Statistics so far, merged across shards. Every lookup lands in
    /// exactly one shard, so the merged counters equal what an unsharded
    /// cache would have tallied (the shard-union law); see
    /// [`CompileCache::shard_stats`] for the unmerged rows.
    pub fn stats(&self) -> CacheStats {
        let mut merged = CacheStats::default();
        for shard in self.shards.iter() {
            let row = shard.stats();
            merged.hits += row.hits;
            merged.misses += row.misses;
            merged.entries += row.entries;
        }
        merged
    }

    /// Per-shard statistics, in shard order (their field-wise sum is
    /// [`CompileCache::stats`]).
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards.iter().map(Shard::stats).collect()
    }

    /// The shard an address routes to. The address bits are remixed first:
    /// FNV-1a is well distributed in its low bits but the shard index must
    /// not correlate with the `HashMap` bucketing inside the shard.
    fn shard_of(&self, addr: u64) -> &Shard {
        let mixed = addr.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(mixed >> 57) as usize % self.shards.len()]
    }

    /// Look up a memoized outcome under a precomputed [`KeyRef::address`];
    /// a `None` must be followed by [`CompileCache::insert`] with the same
    /// address and the freshly compiled outcome. Callers hash once per
    /// compile and thread the address through both calls.
    pub(crate) fn get(&self, addr: u64, key: KeyRef<'_>) -> Option<Arc<CompileOutcome>> {
        let shard = self.shard_of(addr);
        let matches = |entry: &Entry| key.matches(&entry.key);
        let mut state = shard.lock();
        if let Some(bucket) = state.hot.get(&addr) {
            if let Some(entry) = bucket.iter().find(|e| matches(e)) {
                let outcome = Arc::clone(&entry.outcome);
                drop(state);
                shard.hits.fetch_add(1, Ordering::Relaxed);
                return Some(outcome);
            }
        }
        // Cold hit: promote the entry back into the hot generation.
        let promoted = state.cold.get_mut(&addr).and_then(|bucket| {
            bucket
                .iter()
                .position(&matches)
                .map(|i| bucket.swap_remove(i))
        });
        if let Some(entry) = promoted {
            state.cold_entries -= 1;
            let outcome = Arc::clone(&entry.outcome);
            Self::push(&mut state, self.shard_capacity, addr, entry);
            drop(state);
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return Some(outcome);
        }
        drop(state);
        shard.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Offer a freshly compiled outcome for memoization under second-touch
    /// admission: the first sighting of an address only records it in the
    /// filter, so capacity is never spent on sources that never recur.
    pub(crate) fn insert(&self, addr: u64, key: KeyRef<'_>, outcome: Arc<CompileOutcome>) {
        let shard = self.shard_of(addr);
        let mut state = shard.lock();
        if state.seen.len() >= self.seen_limit {
            state.seen.clear();
        }
        if state.seen.insert(addr) {
            return; // first touch: filter only, no entry
        }
        let entry = Entry {
            key: key.to_owned_key(),
            outcome,
        };
        Self::push(&mut state, self.shard_capacity, addr, entry);
    }

    fn push(state: &mut Generations, capacity: usize, addr: u64, entry: Entry) {
        if state.hot_entries >= capacity {
            // Demote the hot generation wholesale; the previous cold
            // generation (the least recently useful entries) is dropped.
            state.cold = std::mem::take(&mut state.hot);
            state.cold_entries = state.hot_entries;
            state.hot_entries = 0;
        }
        state.hot.entry(addr).or_default().push(entry);
        state.hot_entries += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::CompileSession;

    const SRC_A: &str = "int main() { return 0; }";
    const SRC_B: &str = "int main() { return 1; }";

    #[test]
    fn second_touch_admits_and_then_hits_the_same_outcome_object() {
        let cache = CompileCache::shared();
        let mut session =
            CompileSession::for_model(DirectiveModel::OpenAcc).with_cache(Arc::clone(&cache));
        // First touch: filter only. Second touch: admitted. Third: a hit
        // returning the very object the second compile produced.
        let first = session.compile(SRC_A, Lang::C);
        let second = session.compile(SRC_A, Lang::C);
        let third = session.compile(SRC_A, Lang::C);
        assert!(
            !Arc::ptr_eq(&first, &second),
            "first touch must not be admitted"
        );
        assert!(Arc::ptr_eq(&second, &third), "hit must share the outcome");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert_eq!(stats.entries, 1);
        assert!(stats.hit_rate() > 0.32 && stats.hit_rate() < 0.34);
    }

    #[test]
    fn distinct_sources_and_langs_do_not_alias() {
        let cache = CompileCache::shared();
        let mut session =
            CompileSession::for_model(DirectiveModel::OpenAcc).with_cache(Arc::clone(&cache));
        let a = session.compile(SRC_A, Lang::C);
        let b = session.compile(SRC_B, Lang::C);
        let a_cpp = session.compile(SRC_A, Lang::Cpp);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &a_cpp));
        assert_eq!(cache.stats().misses, 3);
        // The C and C++ compiles of the same text never alias, even once
        // both are admitted.
        let a2 = session.compile(SRC_A, Lang::C);
        let a_cpp2 = session.compile(SRC_A, Lang::Cpp);
        let a3 = session.compile(SRC_A, Lang::C);
        let a_cpp3 = session.compile(SRC_A, Lang::Cpp);
        assert!(Arc::ptr_eq(&a2, &a3));
        assert!(Arc::ptr_eq(&a_cpp2, &a_cpp3));
        assert!(!Arc::ptr_eq(&a3, &a_cpp3));
    }

    #[test]
    fn capacity_bounds_total_entries() {
        let cache = Arc::new(CompileCache::sized(4, 1));
        let mut session =
            CompileSession::for_model(DirectiveModel::OpenAcc).with_cache(Arc::clone(&cache));
        for i in 0..64 {
            let source = format!("int main() {{ return {i}; }}");
            let _ = session.compile(&source, Lang::C);
        }
        assert!(
            cache.stats().entries <= 8,
            "entries {} exceed 2x capacity",
            cache.stats().entries
        );
    }

    #[test]
    fn shard_counts_clamp_sensibly() {
        // The default layout; the shard count never exceeds the capacity
        // (each shard holds ≥ 1 entry).
        let default = CompileCache::default();
        assert_eq!(default.shards.len(), DEFAULT_CACHE_SHARDS);
        assert_eq!(default.capacity, DEFAULT_CACHE_CAPACITY);
        let tiny = CompileCache::sized(2, 8);
        assert_eq!(tiny.shards.len(), 2);
        assert_eq!(tiny.capacity, 2);
    }

    #[test]
    fn sharded_hits_still_share_the_outcome_object() {
        let cache = CompileCache::shared();
        let mut session =
            CompileSession::for_model(DirectiveModel::OpenAcc).with_cache(Arc::clone(&cache));
        let _first = session.compile(SRC_A, Lang::C); // first touch
        let second = session.compile(SRC_A, Lang::C); // admitted
        let third = session.compile(SRC_A, Lang::C); // hit
        assert!(Arc::ptr_eq(&second, &third), "hit must share the outcome");
    }

    #[test]
    fn shard_stats_sum_to_the_merged_stats() {
        let cache = CompileCache::shared();
        let mut session =
            CompileSession::for_model(DirectiveModel::OpenAcc).with_cache(Arc::clone(&cache));
        // Three passes over 20 sources: the second admits, the third hits.
        for i in 0..60 {
            let source = format!("int main() {{ return {}; }}", i % 20);
            let _ = session.compile(&source, Lang::C);
        }
        let merged = cache.stats();
        assert_eq!(merged.hits + merged.misses, 60);
        assert!(merged.hits >= 1, "recurring sources must hit");
        let rows = cache.shard_stats();
        assert_eq!(rows.len(), DEFAULT_CACHE_SHARDS);
        assert!(
            rows.iter().filter(|r| r.hits + r.misses > 0).count() > 1,
            "40 distinct-ish sources must spread across shards"
        );
        assert_eq!(rows.iter().map(|r| r.hits).sum::<u64>(), merged.hits);
        assert_eq!(rows.iter().map(|r| r.misses).sum::<u64>(), merged.misses);
        assert_eq!(
            rows.iter().map(|r| r.entries).sum::<usize>(),
            merged.entries
        );
        assert!(merged.entries <= 2 * cache.capacity);
    }

    #[test]
    fn cold_generation_hits_are_promoted() {
        let cache = Arc::new(CompileCache::sized(2, 1));
        let mut session =
            CompileSession::for_model(DirectiveModel::OpenAcc).with_cache(Arc::clone(&cache));
        let _ = session.compile(SRC_A, Lang::C); // first touch
        let admitted = session.compile(SRC_A, Lang::C); // admitted

        // Fill past capacity so SRC_A is demoted to the cold generation.
        for other in [
            SRC_B,
            "int main() { return 2; }",
            "int main() { return 3; }",
        ] {
            let _ = session.compile(other, Lang::C);
            let _ = session.compile(other, Lang::C);
        }
        let again = session.compile(SRC_A, Lang::C);
        assert!(Arc::ptr_eq(&admitted, &again), "cold hit must still share");
    }
}

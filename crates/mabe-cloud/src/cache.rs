//! Bounded caches for the hot read path.
//!
//! Three caches sit in front of the expensive pairing work:
//!
//! * **Content-key cache** — the component's derived AEAD key (the
//!   label-bound HKDF output of the recovered KEM element, no more
//!   sensitive than that element) per `(uid, owner, ciphertext id)`: the
//!   reader and the component ciphertext, which its owner's id and the
//!   owner-scoped ciphertext id name. A cache hit turns a read into one
//!   AEAD open over the stored bytes instead of a CP-ABE decryption and a
//!   key derivation. The entry keeps the component's label and the exact
//!   `(authority, version)` vector the key was derived at, and serves
//!   only a component that still has both: a republished record holds a
//!   new ciphertext (new id, another key), and a re-encrypted component
//!   (new versions) misses its old entry.
//! * **Update-key chain cache** — the composed
//!   `UpdateKey(from → latest)` per `(authority, owner, from_version)`,
//!   the per-`(authority, version)` pairing material the lazy drain and
//!   read-triggered upgrades walk repeatedly.
//! * **Step-table cache** — beside the chains, one
//!   [`UpdateTables`] set per exact step `(authority, owner, from, to)`
//!   for single read-triggered upgrades: built at the step's
//!   [`LINES_BREAK_EVEN`]-th single upgrade, at most
//!   [`STEP_TABLES_CAPACITY`] sets at once (least recently used
//!   evicted), reused by the drain for its group.
//!
//! Invalidation is wired into revocation's version bump: the begin
//! phase calls [`SystemCaches::invalidate_authority`] **under the
//! authority shard lock, before the revocation is acknowledged**. That
//! bumps the authority's generation counter and purges every entry
//! mentioning the authority (for a content key, an entry whose versions
//! name it), so a revoked user's cached content key dies with the ack,
//! and its step tables with it. Readers that raced the bump are handled
//! by the generation guard: a reader snapshots the generations of every
//! authority in the component at its miss, *before* taking its keys and
//! decrypting, and the insert is dropped unless the generations are
//! still current ([`SystemCaches::insert_content_if`]) — a decryption
//! that started before the bump can never repopulate the cache after
//! it. So a hit needs no key view: an entry exists only while no
//! authority in its version vector has revoked anything since its
//! reader decrypted.
//!
//! The content and chain caches are sharded tick-LRU maps: each shard
//! tracks a monotonically increasing touch tick per entry and evicts the
//! smallest tick when full. Hits, misses, and evictions are counted per
//! cache and exported both through [`CacheStats`] and the
//! `mabe_cache_*_total` metric families.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use mabe_core::{CiphertextId, OwnerId, Uid, UpdateKey, UpdateTables, LINES_BREAK_EVEN};
use mabe_policy::AuthorityId;
use mabe_telemetry::Counter;

/// Default total entry budget for the content-key cache.
pub(crate) const CONTENT_CACHE_CAPACITY: usize = 4096;
/// Default total entry budget for the update-key chain cache.
pub(crate) const CHAIN_CACHE_CAPACITY: usize = 1024;
/// Cap on the step-table sets cached at once. A set is `UK1`'s lines
/// (about 20 KiB) plus a 44 KiB fixed-base table per attribute ratio it
/// built, so the cap bounds the cache at 16 × (20 + 44·n) KiB for steps
/// of at most `n` attributes: 1 MiB when every authority manages one
/// attribute. Sets die at their authority's next bump, so between
/// bumps one authority keeps a set per owner and stale version at most.
pub(crate) const STEP_TABLES_CAPACITY: usize = 16;
const SHARDS: usize = 8;

/// Hit/miss/eviction counters of one cache, read via
/// [`crate::CloudSystem::cache_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Content-key cache hits.
    pub content_hits: u64,
    /// Content-key cache misses.
    pub content_misses: u64,
    /// Content-key cache evictions.
    pub content_evictions: u64,
    /// Update-key chain cache hits.
    pub chain_hits: u64,
    /// Update-key chain cache misses.
    pub chain_misses: u64,
    /// Update-key chain cache evictions.
    pub chain_evictions: u64,
    /// Step-table sets built for single upgrades and installed.
    pub step_table_builds: u64,
    /// Key-side tables built by reads and installed in their readers'
    /// slots.
    pub key_table_builds: u64,
}

impl CacheStats {
    /// Content-key hit ratio in `[0, 1]` (0 when the cache was never
    /// consulted).
    pub fn content_hit_ratio(&self) -> f64 {
        let total = self.content_hits + self.content_misses;
        if total == 0 {
            0.0
        } else {
            self.content_hits as f64 / total as f64
        }
    }
}

struct Entry<V> {
    value: V,
    tick: u64,
}

struct Shard<K, V> {
    rows: BTreeMap<K, Entry<V>>,
    tick: u64,
}

impl<K: Ord, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard {
            rows: BTreeMap::new(),
            tick: 0,
        }
    }
}

/// One of a cache's hit, miss and eviction counts: the cache's own, read
/// through [`CacheStats`], and the process-wide
/// `mabe_cache_<what>_total{cache=…}` counter, resolved once so that
/// counting takes no registry lookup.
struct Count {
    own: AtomicU64,
    metric: Counter,
}

impl Count {
    fn new(what: &str, cache: &str) -> Self {
        Count {
            own: AtomicU64::new(0),
            metric: mabe_telemetry::global()
                .counter(&format!("mabe_cache_{what}_total"), &[("cache", cache)]),
        }
    }

    fn inc(&self) {
        self.own.fetch_add(1, Ordering::Relaxed);
        self.metric.inc();
    }

    fn get(&self) -> u64 {
        self.own.load(Ordering::Relaxed)
    }
}

/// A bounded sharded tick-LRU map. Shard selection hashes the key;
/// within a shard, every access stamps a fresh tick and a full shard
/// evicts its least-recently-stamped entry.
struct LruCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    shard_capacity: usize,
    hits: Count,
    misses: Count,
    evictions: Count,
}

impl<K: Ord + Hash + Clone, V> LruCache<K, V> {
    fn new(capacity: usize, metric: &'static str) -> Self {
        LruCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity: capacity.div_ceil(SHARDS).max(1),
            hits: Count::new("hits", metric),
            misses: Count::new("misses", metric),
            evictions: Count::new("evictions", metric),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// What `read` takes from `key`'s entry, which it stamps most
    /// recent. An entry `read` rejects counts as a miss.
    fn get<R>(&self, key: &K, read: impl FnOnce(&V) -> Option<R>) -> Option<R> {
        let mut shard = self.shard(key).lock();
        shard.tick += 1;
        let tick = shard.tick;
        let got = shard.rows.get_mut(key).and_then(|entry| {
            let got = read(&entry.value)?;
            entry.tick = tick;
            Some(got)
        });
        match got {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        got
    }

    fn insert(&self, key: K, value: V) {
        let mut shard = self.shard(&key).lock();
        shard.tick += 1;
        let tick = shard.tick;
        if shard.rows.len() >= self.shard_capacity && !shard.rows.contains_key(&key) {
            // O(n) min-tick scan: shards are small and eviction is off
            // the common (hit) path.
            if let Some(victim) = shard
                .rows
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone())
            {
                shard.rows.remove(&victim);
                self.evictions.inc();
            }
        }
        shard.rows.insert(key, Entry { value, tick });
    }

    fn purge_if(&self, matches: impl Fn(&K, &V) -> bool) {
        for shard in &self.shards {
            shard.lock().rows.retain(|k, e| !matches(k, &e.value));
        }
    }

    fn counters(&self) -> (u64, u64, u64) {
        (self.hits.get(), self.misses.get(), self.evictions.get())
    }
}

/// Content-cache key: the reader and the component ciphertext, named by
/// its owner and owner-scoped id. A republished record holds a new
/// ciphertext, so it never finds the old one's entry.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct ContentCacheKey {
    pub uid: Uid,
    pub owner: OwnerId,
    pub ciphertext: CiphertextId,
}

/// A content-cache entry: the derived AEAD key, and the label and exact
/// `(authority, version)` vector of the component it was derived from.
/// It serves only a component that still has both, so a re-encrypted
/// component (new versions) misses.
#[derive(Debug)]
pub(crate) struct ContentEntry {
    pub key: [u8; 32],
    pub label: String,
    pub versions: BTreeMap<AuthorityId, u64>,
}

impl ContentEntry {
    fn serves(&self, label: &str, versions: &BTreeMap<AuthorityId, u64>) -> bool {
        self.label == label && self.versions == *versions
    }
}

/// A re-encryption step: `(authority, owner, from, to)`.
type StepKey = (String, String, u64, u64);

fn step_key(uk: &UpdateKey) -> StepKey {
    (
        uk.aid.to_string(),
        uk.owner.to_string(),
        uk.from_version,
        uk.to_version,
    )
}

/// What the step-table cache holds for one step: its single upgrades so
/// far and, from the break-even on, its tables.
#[derive(Default)]
struct StepEntry {
    upgrades: usize,
    tables: Option<Arc<UpdateTables>>,
    tick: u64,
}

/// Steps in least-recently-used order. At most [`CHAIN_CACHE_CAPACITY`]
/// entries (the chain cache's bound: one step per chain) and at most
/// [`STEP_TABLES_CAPACITY`] of them with tables.
#[derive(Default)]
struct StepCache {
    rows: BTreeMap<StepKey, StepEntry>,
    tick: u64,
}

impl StepCache {
    /// The entry of `key`, created if absent, stamped most recent.
    fn touch(&mut self, key: StepKey) -> &mut StepEntry {
        if !self.rows.contains_key(&key) && self.rows.len() >= CHAIN_CACHE_CAPACITY {
            self.evict(|_| true);
        }
        self.tick += 1;
        let tick = self.tick;
        let entry = self.rows.entry(key).or_default();
        entry.tick = tick;
        entry
    }

    /// Removes the least recently used entry that `eligible` admits.
    fn evict(&mut self, eligible: impl Fn(&StepEntry) -> bool) {
        let victim = self
            .rows
            .iter()
            .filter(|(_, e)| eligible(e))
            .min_by_key(|(_, e)| e.tick)
            .map(|(k, _)| k.clone());
        if let Some(key) = victim {
            self.rows.remove(&key);
        }
    }

    fn table_sets(&self) -> usize {
        self.rows.values().filter(|e| e.tables.is_some()).count()
    }
}

/// What one single upgrade gets from
/// [`SystemCaches::count_step_upgrade`].
pub(crate) enum StepUse {
    /// The step's cached tables.
    Cached(Arc<UpdateTables>),
    /// This upgrade reached the break-even: build the set, and install
    /// it with [`SystemCaches::install_step_tables`] under this
    /// generation of the authority.
    Build(u64),
    /// Counted, below the break-even (or past it with no set to use).
    Counted,
}

/// The system-wide cache set: content keys, update-key chains, step
/// tables, and the per-authority generation counters that guard
/// insertion.
pub(crate) struct SystemCaches {
    content: LruCache<ContentCacheKey, ContentEntry>,
    chains: LruCache<(String, String, u64), UpdateKey>,
    steps: Mutex<StepCache>,
    step_table_builds: AtomicU64,
    key_table_builds: AtomicU64,
    generations: Mutex<BTreeMap<String, u64>>,
}

impl std::fmt::Debug for SystemCaches {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("SystemCaches")
            .field("content_hits", &stats.content_hits)
            .field("content_misses", &stats.content_misses)
            .field("chain_hits", &stats.chain_hits)
            .field("chain_misses", &stats.chain_misses)
            .finish_non_exhaustive()
    }
}

impl SystemCaches {
    pub(crate) fn new() -> Self {
        SystemCaches {
            content: LruCache::new(CONTENT_CACHE_CAPACITY, "content"),
            chains: LruCache::new(CHAIN_CACHE_CAPACITY, "chain"),
            steps: Mutex::new(StepCache::default()),
            step_table_builds: AtomicU64::new(0),
            key_table_builds: AtomicU64::new(0),
            generations: Mutex::new(BTreeMap::new()),
        }
    }

    /// Snapshot of the generation counters for `aids`, taken *before*
    /// a decryption whose result may be inserted.
    pub(crate) fn generation_snapshot<'a>(
        &self,
        aids: impl Iterator<Item = &'a AuthorityId>,
    ) -> Vec<(String, u64)> {
        let gens = self.generations.lock();
        aids.map(|aid| {
            let name = aid.to_string();
            let gen = gens.get(&name).copied().unwrap_or(0);
            (name, gen)
        })
        .collect()
    }

    /// The cached content key of one reader's component, if its entry
    /// was derived at this `label` and these `versions`.
    pub(crate) fn get_content(
        &self,
        key: &ContentCacheKey,
        label: &str,
        versions: &BTreeMap<AuthorityId, u64>,
    ) -> Option<[u8; 32]> {
        self.content.get(key, |entry| {
            entry.serves(label, versions).then_some(entry.key)
        })
    }

    /// Inserts a component's content key unless any involved
    /// authority's generation moved since `snapshot` was taken (i.e. a
    /// revocation began mid-decryption — the entry could be stale, drop
    /// it).
    pub(crate) fn insert_content_if(
        &self,
        snapshot: &[(String, u64)],
        key: ContentCacheKey,
        entry: ContentEntry,
    ) {
        {
            let gens = self.generations.lock();
            let current = |name: &str| gens.get(name).copied().unwrap_or(0);
            if snapshot.iter().any(|(name, gen)| current(name) != *gen) {
                return;
            }
            // Insert while still holding the generation lock: a
            // concurrent invalidate_authority either ran before (the
            // check above failed) or will run after (its purge removes
            // this entry). No window remains where a stale entry
            // survives a bump.
            self.content.insert(key, entry);
        }
    }

    /// Cached composed update-key chain for `(aid, owner, from)`.
    /// Callers must validate `to_version` against the target they need
    /// — a shorter (stale) chain is a miss, never silently applied.
    pub(crate) fn get_chain(&self, aid: &str, owner: &str, from: u64) -> Option<UpdateKey> {
        self.chains
            .get(&(aid.to_owned(), owner.to_owned(), from), |chain| {
                Some(chain.clone())
            })
    }

    pub(crate) fn insert_chain(&self, aid: &str, owner: &str, from: u64, chain: UpdateKey) {
        self.chains
            .insert((aid.to_owned(), owner.to_owned(), from), chain);
    }

    /// The cached tables of `uk`'s exact step, if a set was built.
    pub(crate) fn step_tables(&self, uk: &UpdateKey) -> Option<Arc<UpdateTables>> {
        self.steps.lock().rows.get(&step_key(uk))?.tables.clone()
    }

    /// Counts one single upgrade of `uk`'s step: its tables if they are
    /// built, [`StepUse::Build`] for the [`LINES_BREAK_EVEN`]-th.
    pub(crate) fn count_step_upgrade(&self, uk: &UpdateKey) -> StepUse {
        let generation = self
            .generations
            .lock()
            .get(uk.aid.as_str())
            .copied()
            .unwrap_or(0);
        let mut steps = self.steps.lock();
        let entry = steps.touch(step_key(uk));
        if let Some(tables) = &entry.tables {
            return StepUse::Cached(Arc::clone(tables));
        }
        entry.upgrades += 1;
        if entry.upgrades == LINES_BREAK_EVEN {
            StepUse::Build(generation)
        } else {
            StepUse::Counted
        }
    }

    /// Installs `tables` for `uk`'s step unless the authority's
    /// generation moved since [`StepUse::Build`] handed out
    /// `generation` (its next bump overtook the build). A set already
    /// installed by a concurrent builder wins; at
    /// [`STEP_TABLES_CAPACITY`] the least recently used set goes.
    /// Returns the installed set.
    pub(crate) fn install_step_tables(
        &self,
        uk: &UpdateKey,
        generation: u64,
        tables: UpdateTables,
    ) -> Option<Arc<UpdateTables>> {
        // Held across the insert, as in `insert_content_if`: a bump
        // either ran before (the check fails) or purges after.
        let gens = self.generations.lock();
        if gens.get(uk.aid.as_str()).copied().unwrap_or(0) != generation {
            return None;
        }
        let mut steps = self.steps.lock();
        let key = step_key(uk);
        if let Some(installed) = steps.rows.get(&key).and_then(|e| e.tables.clone()) {
            return Some(installed);
        }
        if steps.table_sets() >= STEP_TABLES_CAPACITY {
            steps.evict(|e| e.tables.is_some());
        }
        let tables = Arc::new(tables);
        steps.touch(key).tables = Some(Arc::clone(&tables));
        self.step_table_builds.fetch_add(1, Ordering::Relaxed);
        Some(tables)
    }

    /// How many step-table sets are cached.
    #[cfg(test)]
    pub(crate) fn step_table_sets(&self) -> usize {
        self.steps.lock().table_sets()
    }

    /// Revocation's version bump: called under the authority shard lock
    /// before the revocation is acknowledged. Bumps the generation (so
    /// in-flight decryptions and table builds cannot repopulate) and
    /// purges every entry that mentions the authority: content keys
    /// whose versions name it, chains and step tables.
    pub(crate) fn invalidate_authority(&self, aid: &AuthorityId) {
        let name = aid.to_string();
        {
            let mut gens = self.generations.lock();
            *gens.entry(name.clone()).or_insert(0) += 1;
        }
        self.content
            .purge_if(|_, entry| entry.versions.contains_key(aid));
        self.chains.purge_if(|(a, _, _), _| *a == name);
        self.steps.lock().rows.retain(|(a, ..), _| *a != name);
    }

    pub(crate) fn stats(&self) -> CacheStats {
        let (content_hits, content_misses, content_evictions) = self.content.counters();
        let (chain_hits, chain_misses, chain_evictions) = self.chains.counters();
        CacheStats {
            content_hits,
            content_misses,
            content_evictions,
            chain_hits,
            chain_misses,
            chain_evictions,
            step_table_builds: self.step_table_builds.load(Ordering::Relaxed),
            key_table_builds: self.key_table_builds.load(Ordering::Relaxed),
        }
    }

    /// Counts one key-side table a read built and installed.
    pub(crate) fn count_key_table_build(&self) {
        self.key_table_builds.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(uid: &str, owner: &str) -> ContentCacheKey {
        ContentCacheKey {
            uid: Uid::new(uid),
            owner: OwnerId::new(owner),
            ciphertext: CiphertextId(1),
        }
    }

    fn versions(pairs: &[(&str, u64)]) -> BTreeMap<AuthorityId, u64> {
        pairs
            .iter()
            .map(|&(aid, version)| (AuthorityId::new(aid), version))
            .collect()
    }

    fn entry(key: u8, label: &str, versions: &BTreeMap<AuthorityId, u64>) -> ContentEntry {
        ContentEntry {
            key: [key; 32],
            label: label.to_owned(),
            versions: versions.clone(),
        }
    }

    /// Inserts `entry` under a generation snapshot taken now.
    fn insert(caches: &SystemCaches, key: ContentCacheKey, entry: ContentEntry) {
        let snap = caches.generation_snapshot(entry.versions.keys());
        caches.insert_content_if(&snap, key, entry);
    }

    #[test]
    fn lru_caps_and_evicts_least_recent() {
        let lru: LruCache<u64, u64> = LruCache::new(SHARDS, "content");
        // Fill one logical shard far past its per-shard budget (1).
        for i in 0..64u64 {
            lru.insert(i, i);
        }
        let total: usize = lru.shards.iter().map(|s| s.lock().rows.len()).sum();
        assert!(total <= SHARDS, "bounded at capacity, got {total}");
        let (_, _, evictions) = lru.counters();
        assert!(evictions >= 64 - SHARDS as u64);
    }

    #[test]
    fn generation_bump_blocks_stale_insert() {
        let caches = SystemCaches::new();
        let aid = AuthorityId::new("A1");
        let at = versions(&[("A1", 1)]);
        let snap = caches.generation_snapshot(std::iter::once(&aid));
        // A revocation begins between the snapshot and the insert.
        caches.invalidate_authority(&aid);
        let k = key("alice", "o");
        caches.insert_content_if(&snap, k.clone(), entry(7, "l", &at));
        assert!(
            caches.get_content(&k, "l", &at).is_none(),
            "stale insert dropped"
        );
        // A fresh snapshot inserts fine.
        insert(&caches, k.clone(), entry(8, "l", &at));
        assert_eq!(caches.get_content(&k, "l", &at), Some([8; 32]));
        // And the next bump purges it.
        caches.invalidate_authority(&aid);
        assert!(
            caches.get_content(&k, "l", &at).is_none(),
            "bump purges entries"
        );
    }

    /// An entry serves the label and the exact version vector it was
    /// derived at, and nothing else: another label, another version, or
    /// an authority more or fewer is a miss, and is counted as one.
    #[test]
    fn an_entry_serves_only_the_label_and_versions_it_was_derived_at() {
        let caches = SystemCaches::new();
        let k = key("alice", "o");
        let at = versions(&[("A", 1), ("B", 3)]);
        insert(&caches, k.clone(), entry(5, "dx", &at));
        assert_eq!(caches.get_content(&k, "dx", &at), Some([5; 32]));
        let others = [
            ("notes", at.clone()),
            ("dx", versions(&[("A", 2), ("B", 3)])),
            ("dx", versions(&[("A", 1), ("B", 4)])),
            ("dx", versions(&[("A", 1)])),
            ("dx", versions(&[("A", 1), ("B", 3), ("C", 1)])),
        ];
        for (label, other) in &others {
            assert_eq!(
                caches.get_content(&k, label, other),
                None,
                "{label} {other:?}"
            );
        }
        let stats = caches.stats();
        assert_eq!((stats.content_hits, stats.content_misses), (1, 5));
        // The insert after a miss replaces the rejected entry.
        let re_encrypted = &others[1].1;
        insert(&caches, k.clone(), entry(5, "dx", re_encrypted));
        assert_eq!(caches.get_content(&k, "dx", re_encrypted), Some([5; 32]));
        assert_eq!(caches.get_content(&k, "dx", &at), None);
    }

    /// Ciphertext ids are owner-scoped, so two owners' ciphertexts can
    /// share one: a reader's entries for them stay apart, as do two
    /// readers' entries for one ciphertext.
    #[test]
    fn a_readers_entries_for_two_owners_ciphertexts_with_one_id_stay_apart() {
        let caches = SystemCaches::new();
        let at = versions(&[("A", 1)]);
        let readers = [
            ("alice", "first", 1),
            ("alice", "second", 2),
            ("bob", "first", 3),
        ];
        for (uid, owner, content_key) in readers {
            insert(&caches, key(uid, owner), entry(content_key, "x", &at));
        }
        for (uid, owner, content_key) in readers {
            assert_eq!(
                caches.get_content(&key(uid, owner), "x", &at),
                Some([content_key; 32]),
                "{uid} reading {owner}'s"
            );
        }
        assert_eq!(caches.get_content(&key("bob", "second"), "x", &at), None);
    }

    fn step(aid: &str, owner: &str, from: u64, to: u64) -> UpdateKey {
        UpdateKey {
            aid: AuthorityId::new(aid),
            from_version: from,
            to_version: to,
            owner: mabe_core::OwnerId::new(owner),
            uk1: mabe_math::G1Affine::generator(),
            uk2: mabe_math::Fr::from_u64(2),
        }
    }

    /// An empty set for `uk`'s step: what it holds does not matter here.
    fn tables(uk: &UpdateKey) -> UpdateTables {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        mabe_core::DataOwner::new(uk.owner.clone(), &mut rng).update_tables(uk, &[])
    }

    /// Counts single upgrades of `uk` until one is told to build, and
    /// installs the set it would build.
    fn build(caches: &SystemCaches, uk: &UpdateKey) -> Option<Arc<UpdateTables>> {
        for _ in 0..LINES_BREAK_EVEN {
            if let StepUse::Build(generation) = caches.count_step_upgrade(uk) {
                return caches.install_step_tables(uk, generation, tables(uk));
            }
        }
        panic!("no build at the break-even");
    }

    #[test]
    fn a_step_set_is_built_at_the_break_even_and_serves_only_its_step() {
        let caches = SystemCaches::new();
        let uk = step("A", "o", 1, 3);
        for _ in 1..LINES_BREAK_EVEN {
            assert!(matches!(caches.count_step_upgrade(&uk), StepUse::Counted));
        }
        let StepUse::Build(generation) = caches.count_step_upgrade(&uk) else {
            panic!("the break-even-th upgrade builds");
        };
        let built = caches
            .install_step_tables(&uk, generation, tables(&uk))
            .expect("installed");
        assert!(
            matches!(caches.count_step_upgrade(&uk), StepUse::Cached(t) if Arc::ptr_eq(&t, &built))
        );
        assert_eq!(caches.stats().step_table_builds, 1);
        // Any other step, however close, has no set.
        for other in [
            step("B", "o", 1, 3),
            step("A", "p", 1, 3),
            step("A", "o", 2, 3),
            step("A", "o", 1, 2),
        ] {
            assert!(caches.step_tables(&other).is_none(), "{other:?}");
            assert!(matches!(
                caches.count_step_upgrade(&other),
                StepUse::Counted
            ));
        }
        // A second builder of the same step gets the installed set.
        let again = caches.install_step_tables(&uk, generation, tables(&uk));
        assert!(again.is_some_and(|t| Arc::ptr_eq(&t, &built)));
        assert_eq!(caches.step_table_sets(), 1);
    }

    #[test]
    fn step_sets_die_at_their_authoritys_next_bump() {
        let caches = SystemCaches::new();
        let a = step("A", "o", 1, 2);
        let b = step("B", "o", 1, 2);
        build(&caches, &a).expect("installed");
        build(&caches, &b).expect("installed");
        caches.invalidate_authority(&AuthorityId::new("A"));
        assert!(caches.step_tables(&a).is_none(), "dropped with A's bump");
        assert!(caches.step_tables(&b).is_some(), "B's set is unaffected");
        assert_eq!(caches.step_table_sets(), 1);

        // A build the bump overtook is dropped, not installed.
        let c = step("A", "o", 2, 3);
        let generation = loop {
            if let StepUse::Build(generation) = caches.count_step_upgrade(&c) {
                break generation;
            }
        };
        caches.invalidate_authority(&AuthorityId::new("A"));
        assert!(caches
            .install_step_tables(&c, generation, tables(&c))
            .is_none());
        assert!(caches.step_tables(&c).is_none());
    }

    #[test]
    fn step_sets_never_exceed_the_cap_and_the_least_recent_goes() {
        let caches = SystemCaches::new();
        let steps: Vec<UpdateKey> = (0..2 * STEP_TABLES_CAPACITY as u64)
            .map(|v| step("A", "o", v, v + 1))
            .collect();
        for (i, uk) in steps.iter().enumerate() {
            build(&caches, uk).expect("installed");
            assert!(caches.step_table_sets() <= STEP_TABLES_CAPACITY);
            // Keep the first step in use: it is never the least recent.
            if i > 0 {
                assert!(matches!(
                    caches.count_step_upgrade(&steps[0]),
                    StepUse::Cached(_)
                ));
            }
        }
        assert_eq!(caches.step_table_sets(), STEP_TABLES_CAPACITY);
        assert!(caches.step_tables(&steps[0]).is_some(), "in use, kept");
        assert!(
            caches.step_tables(&steps[1]).is_none(),
            "least recent, evicted"
        );
        assert!(caches.step_tables(steps.last().unwrap()).is_some());
    }
}

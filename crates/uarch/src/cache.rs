//! A single set-associative cache level.
//!
//! Tag-only functional model: the simulator tracks which lines are resident,
//! not their contents, which is exactly what is needed to produce the hit/miss
//! counters the paper reads (`mem_load_uops_retired.l1_hit` and friends).
//!
//! Storage is lazy. A per-set slot table (`u32`, 0 = never touched) maps
//! each set to a row of a fixed-size, set-major chunk. A chunk holds the
//! tag lane, the valid/dirty metadata lane and the replacement state of up
//! to `CHUNK_SETS` sets and is allocated zeroed when a set first needs it.
//! In a cache of more than `CHUNK_SETS` sets (the paper's L3), the first
//! access to a set gives it the next row, so memory follows the sets a
//! trace reaches. A smaller cache (every L1 and L2) is one chunk: its first
//! access materializes every set in set order, so a set's row is its index
//! and the hot path needs no slot lookup. A materialized set starts in
//! exactly the state a fresh dense cache gives it (`ReplState::init_row`),
//! so behaviour never depends on where a set lives.
//!
//! Tags are half-width. A way stores `line >> tz` in a `u32`, where `tz`
//! is the number of trailing zero bits of the set count, with the valid
//! marker in bit 31. That loses nothing: `set ≡ line (mod sets)` and
//! `2^tz` divides `sets`, so the set already fixes the line's low `tz`
//! bits, and a dirty victim's line is rebuilt as
//! `(tag << tz) | (set & (2^tz − 1))`. This holds for odd set counts too
//! (`tz = 0`: the whole line is the tag). The price is a bound: a cache
//! models lines below `2^(31 + tz)`, so with 64-byte lines byte addresses
//! below `2^(37 + tz)`: at least 128 GiB for any geometry, 8 TiB for the
//! paper's 64-set L1D ([`CacheConfig::addr_bound`]). An access at or above
//! the bound panics.
//!
//! A 20-way LRU set holds 120 B (20 × 4 B tag, 20 × 1 B meta, 20 × 1 B
//! LRU rank), so the paper's 30 MiB L3, 24,576 sets, is ~2.8 MiB when a
//! trace reaches every set. Most characterization traces touch a few
//! thousand L3 sets, and lazy sets cost them the 96 KiB slot table plus
//! the chunks they reach. The hit scan of an 8-way L1 or L2 set reads
//! 32 B of tags. Chunks are never reallocated: growing one lane by
//! doubling would copy and briefly double the storage.

use crate::config::CacheConfig;
use crate::replacement::{Policy, ReplState};

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// The line was resident.
    Hit,
    /// The line was not resident; it has been filled. Carries the evicted
    /// line's address if a dirty line was written back.
    Miss {
        /// Address of a dirty victim written back, if any.
        writeback: Option<u64>,
    },
}

impl AccessResult {
    /// True for [`AccessResult::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, AccessResult::Hit)
    }
}

const META_VALID: u8 = 1;
const META_DIRTY: u8 = 2;

/// Valid marker embedded in the tag lane. A stored tag is `line >> tz`,
/// which the address bound keeps below bit 31. Embedding the marker makes
/// the hit scan a single-lane compare — no metadata load.
const TAG_VALID: u32 = 1 << 31;

/// Hit/miss statistics of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
    /// Number of dirty writebacks produced.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`; `0.0` when there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Total number of accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Sets per storage chunk. A cache of at most this many sets is one chunk
/// whose row `r` holds set `r`; larger caches hand out rows in first-touch
/// order. 512 covers the 256 KiB 8-way L2; an L3 chunk is ~100 KiB.
const CHUNK_SETS: usize = 512;

/// Storage for one chunk's worth of materialized sets, set-major: row `r`
/// owns `tags[r * ways..][..ways]`, the same `meta` range and row `r` of
/// `state`.
#[derive(Debug, Clone)]
struct Chunk {
    /// Tags (`line >> tz`) with `TAG_VALID` embedded; meaningful only
    /// where valid.
    tags: Vec<u32>,
    /// Valid/dirty bits per way, parallel to `tags`.
    meta: Vec<u8>,
    state: ReplState,
}

impl Chunk {
    fn new(rows: usize, ways: usize, policy: Policy) -> Self {
        Chunk {
            tags: vec![0; rows * ways],
            meta: vec![0; rows * ways],
            state: ReplState::new(policy, rows, ways),
        }
    }
}

/// Lazily materialized set storage: the slot table plus the chunks.
#[derive(Debug, Clone)]
struct SetStore {
    /// `slots[set]` is 1 + the set's storage ordinal, or 0 while the set
    /// holds no storage. Ordinal `o` lives in chunk `o >> chunk_shift`,
    /// row `o & row_mask`.
    slots: Vec<u32>,
    /// Chunk 0, held inline so a one-chunk cache reaches its lanes with no
    /// extra indirection. Empty lanes until the first set materializes.
    first: Chunk,
    /// Chunks 1 and up.
    more: Vec<Chunk>,
    /// Number of sets materialized so far (the next ordinal).
    materialized: usize,
    /// True for a cache of at most `CHUNK_SETS` sets (every L1 and L2 of
    /// the paper's machine). Its first access materializes every set in
    /// set order, so a set's row is its index and the hot path needs no
    /// slot lookup.
    one_chunk: bool,
    chunk_shift: u32,
    row_mask: usize,
    ways: usize,
    policy: Policy,
}

impl SetStore {
    fn new(config: &CacheConfig) -> Self {
        let sets = config.sets();
        let chunk_sets = CHUNK_SETS.min(sets.next_power_of_two());
        SetStore {
            slots: vec![0; sets],
            first: Chunk::new(0, config.ways, config.policy),
            more: Vec::with_capacity(sets.div_ceil(chunk_sets) - 1),
            materialized: 0,
            one_chunk: sets <= CHUNK_SETS,
            chunk_shift: chunk_sets.trailing_zeros(),
            row_mask: chunk_sets - 1,
            ways: config.ways,
            policy: config.policy,
        }
    }

    /// Chunk `c` (0 is `first`).
    fn chunk(&self, c: usize) -> &Chunk {
        match c {
            0 => &self.first,
            c => &self.more[c - 1],
        }
    }

    #[inline]
    fn chunk_mut(&mut self, c: usize) -> &mut Chunk {
        match c {
            0 => &mut self.first,
            c => &mut self.more[c - 1],
        }
    }

    /// Every chunk, in ordinal order (`first` is empty before any touch).
    fn chunks(&self) -> impl Iterator<Item = &Chunk> {
        std::iter::once(&self.first).chain(&self.more)
    }

    /// The chunk and row holding `set`, materializing storage on first
    /// touch.
    #[inline]
    fn row_mut(&mut self, set: usize) -> (&mut Chunk, usize) {
        if self.one_chunk {
            if self.first.tags.is_empty() {
                self.materialize_all();
            }
            return (&mut self.first, set);
        }
        let slot = match self.slots[set] {
            0 => self.materialize(set),
            slot => slot,
        };
        let ordinal = (slot - 1) as usize;
        let row = ordinal & self.row_mask;
        (self.chunk_mut(ordinal >> self.chunk_shift), row)
    }

    /// The tags of `set`, or `None` if it holds no storage.
    fn tags(&self, set: usize) -> Option<&[u32]> {
        let ordinal = (self.slots[set] as usize).checked_sub(1)?;
        let row = ordinal & self.row_mask;
        let tags = &self.chunk(ordinal >> self.chunk_shift).tags;
        Some(&tags[row * self.ways..(row + 1) * self.ways])
    }

    /// Gives `set` the next storage row, allocating a zeroed chunk when
    /// the previous one is full, and puts the row's replacement state in
    /// the fresh state of `set`. Returns the set's new slot value.
    #[cold]
    #[inline(never)]
    fn materialize(&mut self, set: usize) -> u32 {
        let ordinal = self.materialized;
        let row = ordinal & self.row_mask;
        if row == 0 {
            let chunk = Chunk::new(self.row_mask + 1, self.ways, self.policy);
            match ordinal {
                0 => self.first = chunk,
                _ => self.more.push(chunk),
            }
        }
        let ways = self.ways;
        let chunk = self.chunk_mut(ordinal >> self.chunk_shift);
        chunk.state.init_row(row, set, ways);
        self.materialized += 1;
        let slot = u32::try_from(self.materialized).expect("set count fits the u32 slot table");
        self.slots[set] = slot;
        slot
    }

    /// Materializes every set of a one-chunk cache in set order, so that
    /// row `r` holds set `r`.
    #[cold]
    #[inline(never)]
    fn materialize_all(&mut self) {
        for set in 0..self.slots.len() {
            self.materialize(set);
        }
    }
}

/// One set-associative, write-back, write-allocate cache.
///
/// A cache models byte addresses below [`CacheConfig::addr_bound`]
/// (`2^(31 + tz)` lines, `tz` the trailing zero bits of the set count; at
/// least 128 GiB with 64-byte lines). [`Cache::access`] panics on an
/// address at or above it, naming the cache's geometry and the bound;
/// [`Cache::contains`] answers false.
///
/// # Example
///
/// ```
/// use uarch_sim::cache::Cache;
/// use uarch_sim::config::CacheConfig;
/// use uarch_sim::replacement::Policy;
///
/// let mut cache = Cache::new(CacheConfig::new(1024, 2, 64, Policy::Lru));
/// assert!(!cache.access(0x40, false).is_hit()); // cold miss
/// assert!(cache.access(0x40, false).is_hit());  // now resident
/// assert!(cache.access(0x44, false).is_hit());  // same 64-byte line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    store: SetStore,
    stats: CacheStats,
    line_shift: u32,
    sets: usize,
    /// `tz`, the trailing zero bits of `sets`: a stored tag is
    /// `line >> tz`.
    tag_shift: u32,
    /// `2^tz - 1`: the line bits the set fixes. For a power-of-two set
    /// count it is also the set-index mask.
    set_mask: u64,
    pow2_sets: bool,
    /// Lemire reciprocal for non-power-of-two set counts:
    /// `m = u128::MAX / sets + 1` makes `line % sets` the high 128 bits
    /// of `(m.wrapping_mul(line)) * sets`, exactly, for any 64-bit line.
    /// Replaces the hardware divide on the set-index path of the Haswell
    /// L3 (24576 sets), where every L1I and L2 miss lands.
    set_magic: u128,
    /// True for the dominant geometry (8-way LRU, power-of-two sets):
    /// accesses take a monomorphized branch-free path over `[_; 8]` lanes.
    fast_lru8: bool,
}

impl Cache {
    /// Builds an empty (all-invalid) cache with the given geometry. Only
    /// the slot table and the chunk list are allocated here; set storage
    /// comes on first touch.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let tag_shift = sets.trailing_zeros();
        Cache {
            store: SetStore::new(&config),
            stats: CacheStats::default(),
            line_shift: config.line_bytes.trailing_zeros(),
            sets,
            tag_shift,
            set_mask: (1u64 << tag_shift) - 1,
            pow2_sets: sets.is_power_of_two(),
            // Wrapping add handles sets == 1 (magic 0 -> remainder 0).
            set_magic: (u128::MAX / sets as u128).wrapping_add(1),
            fast_lru8: config.ways == 8 && sets.is_power_of_two() && config.policy == Policy::Lru,
            config,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (contents are kept — useful for warmup).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Number of sets holding storage: in a cache of more than
    /// `CHUNK_SETS` (512) sets, those some access has reached since
    /// construction; in a smaller one, every set once any access has.
    /// `contains` and `resident_lines` never materialize a set, and
    /// `flush` keeps the storage.
    pub fn materialized_sets(&self) -> usize {
        self.store.materialized
    }

    #[inline]
    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = if self.pow2_sets {
            (line & self.set_mask) as usize
        } else {
            // line % sets via the precomputed reciprocal (see `set_magic`):
            // three widening multiplies instead of a 64-bit divide.
            let lowbits = self.set_magic.wrapping_mul(line as u128);
            let p1 = (lowbits >> 64) * self.sets as u128;
            let p0 = (lowbits as u64 as u128) * self.sets as u128;
            ((p1 + (p0 >> 64)) >> 64) as usize
        };
        (set, line)
    }

    /// The stored form of `line`: `line >> tz` with `TAG_VALID` set.
    ///
    /// # Panics
    ///
    /// Panics when `line` lies at or above the cache's address bound.
    #[inline]
    fn tag_of(&self, line: u64) -> u32 {
        let tag = line >> self.tag_shift;
        if tag >= u64::from(TAG_VALID) {
            self.out_of_range(line);
        }
        tag as u32 | TAG_VALID
    }

    #[cold]
    #[inline(never)]
    fn out_of_range(&self, line: u64) -> ! {
        let c = &self.config;
        panic!(
            "address {:#x} is out of range for the {} B {}-way cache with {} sets: \
             it models addresses below {:#x}",
            line << self.line_shift,
            c.size_bytes,
            c.ways,
            self.sets,
            c.addr_bound()
        )
    }

    /// Finishes a miss in `set` that evicted the stored tag `dirty_victim`,
    /// if any: counts the writeback and rebuilds the victim's address as
    /// `(tag << tz) | (set & (2^tz - 1))`.
    #[inline]
    fn miss(&mut self, dirty_victim: Option<u32>, set: usize) -> AccessResult {
        let writeback = dirty_victim.map(|tag| {
            self.stats.writebacks += 1;
            let line =
                (u64::from(tag & !TAG_VALID) << self.tag_shift) | (set as u64 & self.set_mask);
            line << self.line_shift
        });
        AccessResult::Miss { writeback }
    }

    /// Accesses `addr`; `write` marks the line dirty. Fills on miss.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) -> AccessResult {
        if self.fast_lru8 {
            self.access_lru8(addr, write)
        } else {
            self.access_generic(addr, write)
        }
    }

    /// The monomorphized hot path: 8 ways, LRU, power-of-two sets. All
    /// lane slices are `[_; 8]`, so every scan is a fixed-trip branch-free
    /// loop the compiler unrolls and vectorizes; counters and replacement
    /// state evolve bit-identically to [`Cache::access_generic`] (LRU ranks
    /// of a set are always a permutation, so "last maximum rank" and
    /// "the unique rank 7" name the same victim).
    #[inline]
    fn access_lru8(&mut self, addr: u64, write: bool) -> AccessResult {
        let line = addr >> self.line_shift;
        let set_idx = (line & self.set_mask) as usize;
        let tagv = self.tag_of(line);
        let (chunk, row) = self.store.row_mut(set_idx);
        let base = row * 8;
        let tags: &mut [u32; 8] = (&mut chunk.tags[base..base + 8])
            .try_into()
            .expect("8 ways");
        let meta: &mut [u8; 8] = (&mut chunk.meta[base..base + 8])
            .try_into()
            .expect("8 ways");
        let ReplState::Lru { ranks } = &mut chunk.state else {
            unreachable!("fast path is only taken for LRU caches")
        };
        let ranks: &mut [u8; 8] = (&mut ranks[base..base + 8]).try_into().expect("8 ways");

        let mut hit_mask = 0u32;
        for (w, &t) in tags.iter().enumerate() {
            hit_mask |= u32::from(t == tagv) << w;
        }
        if hit_mask != 0 {
            let way = hit_mask.trailing_zeros() as usize;
            if write {
                meta[way] |= META_DIRTY;
            }
            let old = ranks[way];
            for r in ranks.iter_mut() {
                *r += u8::from(*r < old);
            }
            ranks[way] = 0;
            self.stats.hits += 1;
            return AccessResult::Hit;
        }

        self.stats.misses += 1;
        let mut invalid_mask = 0u32;
        for (w, &m) in meta.iter().enumerate() {
            invalid_mask |= u32::from(m & META_VALID == 0) << w;
        }
        let way = if invalid_mask != 0 {
            invalid_mask.trailing_zeros() as usize
        } else {
            let mut victim = 0usize;
            for (w, &r) in ranks.iter().enumerate() {
                if r == 7 {
                    victim = w;
                }
            }
            victim
        };
        let dirty_victim =
            (meta[way] & (META_VALID | META_DIRTY) == META_VALID | META_DIRTY).then_some(tags[way]);
        tags[way] = tagv;
        meta[way] = if write {
            META_VALID | META_DIRTY
        } else {
            META_VALID
        };
        let old = ranks[way];
        for r in ranks.iter_mut() {
            *r += u8::from(*r < old);
        }
        ranks[way] = 0;
        self.miss(dirty_victim, set_idx)
    }

    fn access_generic(&mut self, addr: u64, write: bool) -> AccessResult {
        let (set_idx, line) = self.index(addr);
        let tagv = self.tag_of(line);
        let ways = self.config.ways;
        let (chunk, row) = self.store.row_mut(set_idx);
        let base = row * ways;
        let tags = &mut chunk.tags[base..base + ways];
        let meta = &mut chunk.meta[base..base + ways];

        // Hit path: scan ways in order (valid is embedded in the tag word).
        let mut hit_way = usize::MAX;
        for (w, &t) in tags.iter().enumerate() {
            if t == tagv {
                hit_way = w;
                break;
            }
        }
        if hit_way != usize::MAX {
            if write {
                meta[hit_way] |= META_DIRTY;
            }
            chunk.state.touch(row, hit_way, ways);
            self.stats.hits += 1;
            return AccessResult::Hit;
        }

        // Miss path: fill into an invalid way or evict a victim.
        self.stats.misses += 1;
        let way = match meta.iter().position(|&m| m & META_VALID == 0) {
            Some(w) => w,
            None => chunk.state.victim(row, ways),
        };
        let dirty_victim =
            (meta[way] & (META_VALID | META_DIRTY) == META_VALID | META_DIRTY).then_some(tags[way]);
        tags[way] = tagv;
        meta[way] = if write {
            META_VALID | META_DIRTY
        } else {
            META_VALID
        };
        chunk.state.touch(row, way, ways);
        self.miss(dirty_victim, set_idx)
    }

    /// True if the line containing `addr` is currently resident. Never
    /// materializes a set. An address at or above the bound is never
    /// resident.
    pub fn contains(&self, addr: u64) -> bool {
        let (set_idx, line) = self.index(addr);
        let tag = line >> self.tag_shift;
        tag < u64::from(TAG_VALID)
            && self
                .store
                .tags(set_idx)
                .is_some_and(|tags| tags.contains(&(tag as u32 | TAG_VALID)))
    }

    /// Invalidates every line and clears statistics. Replacement state and
    /// set storage are kept, as on a dense cache whose lanes are cleared.
    pub fn flush(&mut self) {
        let store = &mut self.store;
        for chunk in std::iter::once(&mut store.first).chain(&mut store.more) {
            chunk.meta.fill(0);
            chunk.tags.fill(0);
        }
        self.stats = CacheStats::default();
    }

    /// Number of currently valid lines.
    pub fn resident_lines(&self) -> usize {
        self.store
            .chunks()
            .flat_map(|chunk| &chunk.meta)
            .filter(|&&m| m & META_VALID != 0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::Policy;

    fn small_lru() -> Cache {
        // 2 sets x 2 ways x 64B lines = 256 B.
        Cache::new(CacheConfig::new(256, 2, 64, Policy::Lru))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small_lru();
        assert!(!c.access(0x0, false).is_hit());
        assert!(c.access(0x0, false).is_hit());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn reciprocal_set_index_matches_division() {
        // Non-power-of-two set counts exercise the Lemire reciprocal;
        // sweep geometry corners and line-number extremes against `%`.
        for sets in [1usize, 2, 3, 5, 24576, 24575, (1 << 20) - 1] {
            let c = Cache::new(CacheConfig::new(sets * 64, 1, 64, Policy::Lru));
            let mut line = 1u64;
            for i in 0..1000u64 {
                let probe = line ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let (set, l) = c.index(probe << 6 >> 6 << 6);
                assert_eq!(set as u64, l % sets as u64, "sets={sets} line={l}");
                line = line.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            }
            for l in [0u64, 1, u64::MAX >> 6, (u64::MAX >> 6) - 1] {
                let (set, got) = c.index(l << 6);
                assert_eq!(got, l);
                assert_eq!(set as u64, l % sets as u64, "sets={sets} line={l}");
            }
        }
    }

    #[test]
    fn same_line_different_offset_hits() {
        let mut c = small_lru();
        c.access(0x100, false);
        assert!(c.access(0x13f, false).is_hit());
        assert!(
            !c.access(0x140, false).is_hit(),
            "next line is a different line"
        );
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small_lru();
        // Set 0 holds lines with (line_number % 2 == 0): 0x000, 0x080, 0x100...
        c.access(0x000, false); // A
        c.access(0x080, false); // B -> set full
        c.access(0x100, false); // C evicts A (LRU)
        assert!(!c.contains(0x000));
        assert!(c.contains(0x080));
        assert!(c.contains(0x100));
        // Touch B, then fill D: C is evicted, not B.
        c.access(0x080, false);
        c.access(0x180, false);
        assert!(c.contains(0x080));
        assert!(!c.contains(0x100));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small_lru();
        c.access(0x000, true); // dirty A
        c.access(0x080, false);
        let r = c.access(0x100, false); // evicts dirty A
        match r {
            AccessResult::Miss {
                writeback: Some(addr),
            } => assert_eq!(addr, 0x000),
            other => panic!("expected writeback, got {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = small_lru();
        c.access(0x000, false);
        c.access(0x080, false);
        let r = c.access(0x100, false);
        assert_eq!(r, AccessResult::Miss { writeback: None });
    }

    #[test]
    fn write_hit_marks_dirty_for_later_writeback() {
        let mut c = small_lru();
        c.access(0x000, false); // clean fill
        c.access(0x000, true); // write hit -> dirty
        c.access(0x080, false);
        let r = c.access(0x100, false);
        assert!(matches!(
            r,
            AccessResult::Miss {
                writeback: Some(0x000)
            }
        ));
    }

    #[test]
    fn working_set_within_capacity_has_no_capacity_misses() {
        // 1 KiB, 16 lines. Touch 8 distinct lines repeatedly.
        let mut c = Cache::new(CacheConfig::new(1024, 4, 64, Policy::Lru));
        for round in 0..10 {
            for i in 0..8u64 {
                let hit = c.access(i * 64, false).is_hit();
                if round > 0 {
                    assert!(hit, "round {round} line {i} should hit");
                }
            }
        }
        assert_eq!(c.stats().misses, 8);
    }

    #[test]
    fn working_set_exceeding_capacity_thrashes_lru() {
        // Direct-ish: 2-way 2-set cache cycled over 6 lines mapping to set 0
        // strictly in order -> LRU always evicts the line needed next.
        let mut c = small_lru();
        let lines: Vec<u64> = (0..6).map(|i| i * 0x80).collect(); // all set 0
        c.flush();
        for _ in 0..5 {
            for &a in &lines {
                c.access(a, false);
            }
        }
        // Every access misses after warmup because the reuse distance (6)
        // exceeds the 2-way set capacity.
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn flush_clears_everything() {
        let mut c = small_lru();
        c.access(0x0, true);
        c.flush();
        assert!(!c.contains(0x0));
        assert_eq!(c.stats(), CacheStats::default());
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn miss_rate_calculation() {
        let mut c = small_lru();
        assert_eq!(c.stats().miss_rate(), 0.0);
        c.access(0x0, false);
        c.access(0x0, false);
        c.access(0x0, false);
        c.access(0x0, false);
        assert!((c.stats().miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn non_power_of_two_set_count_still_works() {
        // 3 sets via 192 lines... use size 3*2*64 = 384.
        let mut c = Cache::new(CacheConfig::new(384, 2, 64, Policy::Lru));
        for i in 0..20u64 {
            c.access(i * 64, false);
        }
        assert_eq!(c.stats().accesses(), 20);
    }

    #[test]
    fn resident_lines_bounded_by_capacity() {
        let mut c = small_lru();
        for i in 0..100u64 {
            c.access(i * 64, false);
        }
        assert!(c.resident_lines() <= 4);
    }

    #[test]
    fn flush_then_refill_reuses_replacement_state() {
        // After a flush, invalid ways fill first and hits behave exactly as
        // on a cold cache of the same geometry.
        let mut c = small_lru();
        for i in 0..8u64 {
            c.access(i * 64, false);
        }
        c.flush();
        assert!(!c.access(0x0, false).is_hit());
        assert!(c.access(0x0, false).is_hit());
    }

    #[test]
    fn sets_materialize_on_first_access_only() {
        // 1024 sets x 2 ways: more sets than one chunk, so rows follow
        // first touch.
        let mut c = Cache::new(CacheConfig::new(1024 * 2 * 64, 2, 64, Policy::Lru));
        assert!(!c.store.one_chunk);
        assert_eq!(c.materialized_sets(), 0);
        assert!(!c.contains(0x40));
        assert_eq!(c.materialized_sets(), 0);
        // Touch 600 sets in reverse order, each twice: set 599 takes
        // ordinal 0 and the last 88 sets spill into a second chunk.
        for set in (0..600u64).rev() {
            c.access(set * 64, set % 3 == 0);
            c.access(set * 64, false);
        }
        assert_eq!(c.materialized_sets(), 600);
        assert_eq!(c.store.more.len(), 1);
        assert_eq!(c.store.slots[599], 1);
        assert_eq!(c.store.slots[0], 600);
        assert!((0..600u64).all(|set| c.contains(set * 64)));
        assert!(!c.contains(600 * 64));
        assert_eq!(c.resident_lines(), 600);
        assert_eq!(c.stats().hits, 600);
        // Flushing empties the lines and keeps the storage.
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.materialized_sets(), 600);
        assert!(!c.contains(0));
    }

    #[test]
    fn small_caches_materialize_whole_on_first_access() {
        let mut c = Cache::new(CacheConfig::new(5 * 3 * 64, 3, 64, Policy::Srrip));
        assert!(c.store.one_chunk);
        assert!(!c.contains(3 * 64));
        assert!(c.store.first.tags.is_empty(), "no storage before an access");
        c.access(3 * 64, false);
        // Every set, in set order: row r holds set r.
        assert_eq!(c.materialized_sets(), 5);
        assert_eq!(c.store.slots, [1, 2, 3, 4, 5]);
        assert_eq!(c.store.first.tags.len(), 8 * 3);
        assert!(c.store.more.is_empty());
        assert!(c.contains(3 * 64));
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn a_materialized_20_way_lru_set_holds_120_bytes() {
        // 20 × 4 B tag + 20 × 1 B meta + 20 × 1 B LRU rank. A wider lane
        // here grows every L3 the engine builds.
        let mut c = Cache::new(CacheConfig::new(30 << 20, 20, 64, Policy::Lru));
        c.access(0x40, false);
        let chunk = &c.store.first;
        let ReplState::Lru { ranks } = &chunk.state else {
            unreachable!("an LRU cache holds LRU state")
        };
        let bytes = size_of_val(chunk.tags.as_slice())
            + size_of_val(chunk.meta.as_slice())
            + size_of_val(ranks.as_slice());
        assert_eq!(bytes, CHUNK_SETS * 120);
    }

    #[test]
    fn the_bound_follows_the_set_counts_trailing_zeros() {
        // 2^(37 + tz) bytes with 64-byte lines: the 64-set L1D (tz = 6),
        // the 819-set 1 MiB L3 (tz = 0), the 3 × 2^13-set Table I L3.
        for (size, ways, bound) in [
            (32 << 10, 8, 8u64 << 40),
            (819 * 20 * 64, 20, 128 << 30),
            (30 << 20, 20, 1 << 50),
        ] {
            let config = CacheConfig::new(size, ways, 64, Policy::Lru);
            assert_eq!(config.addr_bound(), bound, "{size} B");
            let mut c = Cache::new(config);
            c.access(bound - 64, true);
            assert!(c.contains(bound - 1));
            assert!(
                !c.contains(bound),
                "an address at the bound is never resident"
            );
        }
    }
}

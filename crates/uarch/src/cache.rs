//! A single set-associative cache level.
//!
//! Tag-only functional model: the simulator tracks which lines are resident,
//! not their contents, which is exactly what is needed to produce the hit/miss
//! counters the paper reads (`mem_load_uops_retired.l1_hit` and friends).
//!
//! Storage is lazy. A per-set slot table (`u32`, 0 = never touched) maps
//! each set to a row of a fixed-size, set-major chunk. A chunk holds the
//! way words and the replacement state of up to `CHUNK_SETS` sets and is
//! allocated zeroed when a set first needs it. In a cache of more than
//! `CHUNK_SETS` sets (the paper's L3), the first access to a set gives it
//! the next row, so memory follows the sets a trace reaches. A smaller
//! cache (every L1 and L2) is one chunk: its first access materializes
//! every set in set order, so a set's row is its index and the hot path
//! needs no slot lookup. A materialized set starts in exactly the state a
//! fresh dense cache gives it (`ReplState::init_row`), so behaviour never
//! depends on where a set lives.
//!
//! A way is one `u32` word: bit 31 is the valid bit, bit 30 the dirty bit,
//! and bits 0–29 hold the quotient `q = line / sets`. The set fixes
//! `line mod sets`, so `q` loses nothing, and a dirty victim's line is
//! rebuilt as `q · sets + set`. With `sets = odd · 2^tz`, `q` is
//! `((line − set) >> tz) · odd⁻¹ mod 2^64`: `line − set` is a multiple of
//! `sets`, so the product by the modular inverse of `odd` is the exact
//! quotient, one multiply and no divide (for a power-of-two set count
//! `odd⁻¹ = 1` and `q = line >> tz`). The price is a bound: a cache models
//! lines below `2^30 · sets`, with 64-byte lines byte addresses below
//! `2^36 · sets`: 4 TiB for the paper's 64-set L1D and more for every
//! larger set count ([`CacheConfig::addr_bound`]). An access at or above
//! the bound panics.
//!
//! An LRU set is just its words, kept in recency order: way 0 is the most
//! recent line. A hit at way `w` rotates ways `0..=w` right by one; a miss
//! shifts the whole row right by one and drops the last word, which is the
//! victim (an invalid way, bit 31 clear, while the set is not full: invalid
//! words always form the row's tail). FIFO, Random, tree-PLRU and SRRIP
//! keep their ways where they were filled, fill the first invalid way, and
//! keep their own state lanes in `ReplState`.
//!
//! A 20-way LRU set holds 80 B (20 × 4 B words), so the paper's 30 MiB L3,
//! 24,576 sets, is ~1.9 MiB when a trace reaches every set. Most
//! characterization traces touch a few thousand L3 sets, and lazy sets
//! cost them the 96 KiB slot table plus the chunks they reach. The hit scan
//! of an 8-way L1 or L2 set reads 32 B. Chunks are never reallocated:
//! growing one lane by doubling would copy and briefly double the storage.

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

/// Bit 31 of a way's word: the way holds a line. The hit scan compares
/// whole words, so an invalid way never matches.
const VALID: u32 = 1 << 31;
/// Bit 30 of a way's word: the line is dirty.
const DIRTY: u32 = 1 << 30;
/// Bits 0–29 of a way's word: the quotient `line / sets`.
const QUOTIENT: u32 = DIRTY - 1;

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
/// owns `words[r * ways..][..ways]` and row `r` of `state`.
#[derive(Debug, Clone)]
struct Chunk {
    /// One word per way: valid, dirty and the line's quotient.
    words: Vec<u32>,
    state: ReplState,
}

impl Chunk {
    fn new(rows: usize, ways: usize, policy: Policy) -> Self {
        Chunk {
            words: vec![0; rows * ways],
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
            if self.first.words.is_empty() {
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

    /// The words of `set`, or `None` if it holds no storage.
    fn words(&self, set: usize) -> Option<&[u32]> {
        let ordinal = (self.slots[set] as usize).checked_sub(1)?;
        let row = ordinal & self.row_mask;
        let words = &self.chunk(ordinal >> self.chunk_shift).words;
        Some(&words[row * self.ways..(row + 1) * self.ways])
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
/// (`2^30 · sets` lines; 4 TiB for a 64-set cache of 64-byte lines).
/// [`Cache::access`] panics on an address at or above it, naming the
/// cache's geometry and the bound; [`Cache::contains`] answers false.
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
    /// `tz`, the trailing zero bits of `sets = odd · 2^tz`.
    tag_shift: u32,
    /// `odd⁻¹ mod 2^64`: a line's quotient is
    /// `((line − set) >> tz) · odd_inverse`. 1 for a power-of-two set
    /// count.
    odd_inverse: u64,
    /// `2^tz - 1`: the set-index mask of a power-of-two set count.
    set_mask: u64,
    pow2_sets: bool,
    /// Lemire reciprocal for non-power-of-two set counts:
    /// `m = u128::MAX / sets + 1` makes `line % sets` the high 128 bits
    /// of `(m.wrapping_mul(line)) * sets`, exactly, for any 64-bit line.
    /// Replaces the hardware divide on the set-index path of the Haswell
    /// L3 (24576 sets), where every L1I and L2 miss lands.
    set_magic: u128,
    /// True for the dominant geometry (8-way LRU, power-of-two sets):
    /// accesses take the monomorphized path over a `[u32; 8]` row.
    fast_lru8: bool,
}

/// The inverse of the odd number `odd` modulo `2^64`, by Newton's
/// iteration: `x = odd` is right in the low 3 bits (`odd² ≡ 1 mod 8`) and
/// each step doubles that, so five steps reach 96.
fn odd_inverse(odd: u64) -> u64 {
    let mut x = odd;
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(odd.wrapping_mul(x)));
    }
    x
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
            odd_inverse: odd_inverse((sets >> tag_shift) as u64),
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

    /// `line / sets` for a `line` in `set`: exact, since `line − set` is a
    /// multiple of `sets` (see the module doc).
    #[inline]
    fn quotient(&self, line: u64, set: usize) -> u64 {
        ((line - set as u64) >> self.tag_shift).wrapping_mul(self.odd_inverse)
    }

    /// The valid word of quotient `q`.
    ///
    /// # Panics
    ///
    /// Panics when `line` lies at or above the cache's address bound
    /// (`q ≥ 2^30`).
    #[inline]
    fn word_of(&self, q: u64, line: u64) -> u32 {
        if q > u64::from(QUOTIENT) {
            self.out_of_range(line);
        }
        q as u32 | VALID
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

    /// Finishes a miss in `set` that evicted the word `victim`: a valid,
    /// dirty victim counts a writeback of the line `q · sets + set`.
    #[inline]
    fn miss(&mut self, victim: u32, set: usize) -> AccessResult {
        self.stats.misses += 1;
        let writeback = (victim & (VALID | DIRTY) == VALID | DIRTY).then(|| {
            self.stats.writebacks += 1;
            let line = u64::from(victim & QUOTIENT) * self.sets as u64 + set as u64;
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

    /// The monomorphized hot path: 8 ways, LRU, power-of-two sets, the row
    /// a `[u32; 8]` in recency order. A hit in one of the two most recent
    /// ways (about nine in ten accesses of a characterization trace) takes
    /// one well-predicted branch and writes two words; the rest scan all
    /// eight ways and rotate them with one branch-free select. Counters
    /// evolve bit-identically to [`Cache::access_generic`].
    #[inline]
    fn access_lru8(&mut self, addr: u64, write: bool) -> AccessResult {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        // A power-of-two set count has `odd⁻¹ = 1` and `line − set` only
        // clears the bits the shift drops.
        let word = self.word_of(line >> self.tag_shift, line);
        let dirty = if write { DIRTY } else { 0 };
        let (chunk, row) = self.store.row_mut(set);
        let row: &mut [u32; 8] = (&mut chunk.words[row * 8..row * 8 + 8])
            .try_into()
            .expect("8 ways");

        // Ways 0 and 1 match where these are 0. Testing both halves of one
        // u64 for a zero lane keeps it one branch: `a || b` compiles to two,
        // and which of the two ways hits is a coin flip.
        let (d0, d1) = ((row[0] ^ word) & !DIRTY, (row[1] ^ word) & !DIRTY);
        let pair = u64::from(d0) << 32 | u64::from(d1);
        if pair.wrapping_sub(0x1_0000_0001) & !pair & 0x8000_0000_8000_0000 != 0 {
            let near = usize::from(d1 == 0);
            let front = row[near] | dirty;
            row[1] = row[1 - near];
            row[0] = front;
            self.stats.hits += 1;
            return AccessResult::Hit;
        }
        // Otherwise a hit at `w` moves ways `0..w` down one; a miss moves
        // all eight and the last word falls out as the victim.
        let mut hit_mask = 0u32;
        for (w, &t) in row.iter().enumerate() {
            hit_mask |= u32::from(t & !DIRTY == word) << w;
        }
        let (last, front) = match hit_mask {
            0 => (7, word | dirty),
            mask => {
                let w = mask.trailing_zeros() as usize;
                (w, row[w] | dirty)
            }
        };
        let victim = row[7];
        let shifted = [
            front, row[0], row[1], row[2], row[3], row[4], row[5], row[6],
        ];
        for (i, (slot, new)) in row.iter_mut().zip(shifted).enumerate() {
            // All ones where `i <= last`: a branch-free select.
            let take = 0u32.wrapping_sub((i as u32).wrapping_sub(last as u32 + 1) >> 31);
            *slot = (new & take) | (*slot & !take);
        }
        if hit_mask != 0 {
            self.stats.hits += 1;
            AccessResult::Hit
        } else {
            self.miss(victim, set)
        }
    }

    fn access_generic(&mut self, addr: u64, write: bool) -> AccessResult {
        let (set, line) = self.index(addr);
        let word = self.word_of(self.quotient(line, set), line);
        let dirty = if write { DIRTY } else { 0 };
        let ways = self.config.ways;
        let (chunk, row) = self.store.row_mut(set);
        let words = &mut chunk.words[row * ways..(row + 1) * ways];
        let hit = words.iter().position(|&t| t & !DIRTY == word);
        let victim = match (hit, &mut chunk.state) {
            (Some(w), ReplState::Lru) => {
                let front = words[w] | dirty;
                words.copy_within(..w, 1);
                words[0] = front;
                None
            }
            (Some(w), state) => {
                words[w] |= dirty;
                state.touch(row, w, ways);
                None
            }
            (None, ReplState::Lru) => {
                let victim = words[ways - 1];
                words.copy_within(..ways - 1, 1);
                words[0] = word | dirty;
                Some(victim)
            }
            (None, state) => {
                let way = words
                    .iter()
                    .position(|&t| t & VALID == 0)
                    .unwrap_or_else(|| state.victim(row, ways));
                let victim = words[way];
                words[way] = word | dirty;
                state.touch(row, way, ways);
                Some(victim)
            }
        };
        match victim {
            None => {
                self.stats.hits += 1;
                AccessResult::Hit
            }
            Some(victim) => self.miss(victim, set),
        }
    }

    /// True if the line containing `addr` is currently resident. Never
    /// materializes a set. An address at or above the bound is never
    /// resident.
    pub fn contains(&self, addr: u64) -> bool {
        let (set, line) = self.index(addr);
        let q = self.quotient(line, set);
        q <= u64::from(QUOTIENT)
            && self
                .store
                .words(set)
                .is_some_and(|words| words.iter().any(|&t| t & !DIRTY == q as u32 | VALID))
    }

    /// Invalidates every line and clears statistics. Replacement state and
    /// set storage are kept, as on a dense cache whose lanes are cleared.
    pub fn flush(&mut self) {
        let store = &mut self.store;
        for chunk in std::iter::once(&mut store.first).chain(&mut store.more) {
            chunk.words.fill(0);
        }
        self.stats = CacheStats::default();
    }

    /// Number of currently valid lines.
    pub fn resident_lines(&self) -> usize {
        self.store
            .chunks()
            .flat_map(|chunk| &chunk.words)
            .filter(|&&t| t & VALID != 0)
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
        assert!(
            c.store.first.words.is_empty(),
            "no storage before an access"
        );
        c.access(3 * 64, false);
        // Every set, in set order: row r holds set r.
        assert_eq!(c.materialized_sets(), 5);
        assert_eq!(c.store.slots, [1, 2, 3, 4, 5]);
        assert_eq!(c.store.first.words.len(), 8 * 3);
        assert!(c.store.more.is_empty());
        assert!(c.contains(3 * 64));
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn a_materialized_20_way_lru_set_holds_80_bytes() {
        // 20 × 4 B words and no other lane. A wider lane here grows every
        // L3 the engine builds.
        let mut c = Cache::new(CacheConfig::new(30 << 20, 20, 64, Policy::Lru));
        c.access(0x40, false);
        let chunk = &c.store.first;
        assert!(matches!(chunk.state, ReplState::Lru));
        assert_eq!(size_of_val(chunk.words.as_slice()), CHUNK_SETS * 80);
    }

    #[test]
    fn the_bound_is_2_pow_30_lines_per_set() {
        // 2^36 · sets bytes with 64-byte lines: the 64-set L1D, the
        // 819-set 1 MiB L3, the 3 × 2^13-set Table I L3.
        for (size, ways, bound) in [
            (32 << 10, 8, 4u64 << 40),
            (819 * 20 * 64, 20, 819 << 36),
            (30 << 20, 20, 3 << 49),
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

    #[test]
    fn quotients_are_exact_for_any_set_count() {
        for sets in [1usize, 3, 5, 64, 819, 24_576, 98_304, (1 << 20) - 1] {
            let c = Cache::new(CacheConfig::new(sets * 64, 1, 64, Policy::Lru));
            let mut line = 7u64;
            for _ in 0..1000 {
                line = line.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1) >> 6;
                let (set, l) = c.index(line << 6);
                assert_eq!(c.quotient(l, set), line / sets as u64, "sets={sets}");
            }
        }
    }

    /// The words of `set`, most recent first for an LRU cache, with the
    /// valid bit stripped.
    fn order(c: &Cache, set: usize) -> Vec<u32> {
        let words = c.store.words(set).expect("materialized");
        words.iter().map(|&t| t & !VALID).collect()
    }

    #[test]
    fn a_hit_rotates_the_ways_above_it() {
        // One set of 4 ways: each line's quotient is its line number.
        let mut c = Cache::new(CacheConfig::new(4 * 64, 4, 64, Policy::Lru));
        for line in [1u64, 2, 3, 4] {
            c.access(line * 64, false);
        }
        assert_eq!(order(&c, 0), [4, 3, 2, 1]);
        c.access(2 * 64, true); // way 2: ways 0..=2 rotate, way 3 stays
        assert_eq!(order(&c, 0), [2 | DIRTY, 4, 3, 1]);
        c.access(2 * 64, false); // already way 0: nothing moves
        assert_eq!(order(&c, 0), [2 | DIRTY, 4, 3, 1]);
        c.access(5 * 64, false); // a miss shifts the row; line 1 falls out
        assert_eq!(order(&c, 0), [5, 2 | DIRTY, 4, 3]);
    }
}

//! Cache replacement policies.
//!
//! Each policy answers two questions per set: which way to evict when the
//! set is full, and how to update state on a hit or fill. LRU is the
//! paper-machine default; FIFO, random, tree-PLRU, and SRRIP exist for the
//! replacement-policy ablation bench.
//!
//! An LRU set needs no state here: it keeps its ways in recency order in
//! the cache's own words (see [`crate::cache`]). The other policies keep
//! their ways where they were filled, and their state lives in flat lanes
//! per storage chunk of a cache, indexed by the set's row in that chunk,
//! not one enum per set: the per-set-enum layout cost the engine's hot loop
//! a discriminant match and a potential heap indirection on every probe.

/// Replacement policy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Policy {
    /// Least-recently-used (true LRU).
    #[default]
    Lru,
    /// First-in-first-out.
    Fifo,
    /// Pseudo-random (xorshift, deterministic per set).
    Random,
    /// Tree-based pseudo-LRU, as used by many real L1 designs.
    TreePlru,
    /// Static re-reference interval prediction (SRRIP, 2-bit RRPV) — a
    /// scan-resistant policy used by modern last-level caches.
    Srrip,
}

/// Replacement state of one storage chunk: one variant per chunk, flat
/// per-row (or per-way) lanes inside. A row holds one materialized set.
#[derive(Debug, Clone)]
pub(crate) enum ReplState {
    /// No lanes: the set's ways are its recency order, most recent first,
    /// and the cache rotates them itself.
    Lru,
    /// `next[row]` is the next way to evict, advancing round-robin on
    /// fills.
    Fifo { next: Vec<u8> },
    /// `state[row]` is the set's xorshift32 state.
    Random { state: Vec<u32> },
    /// `bits[row]` holds the set's PLRU tree bits; bit `i` covers internal
    /// node `i` of a complete binary tree over the ways.
    TreePlru { bits: Vec<u64> },
    /// `rrpv[row * ways + way]` is the way's 2-bit re-reference prediction
    /// value (3 = distant, 0 = near).
    Srrip { rrpv: Vec<u8> },
}

impl ReplState {
    /// Zeroed lanes for `rows` rows of `ways` ways each. A row holds no
    /// meaningful state until [`ReplState::init_row`] gives it a set, so
    /// allocation is one zeroed `Vec` per lane and no per-row work happens
    /// for rows a trace never reaches.
    pub(crate) fn new(policy: Policy, rows: usize, ways: usize) -> Self {
        match policy {
            Policy::Lru => ReplState::Lru,
            Policy::Fifo => ReplState::Fifo {
                next: vec![0; rows],
            },
            Policy::Random => ReplState::Random {
                state: vec![0; rows],
            },
            Policy::TreePlru => ReplState::TreePlru {
                bits: vec![0; rows],
            },
            Policy::Srrip => ReplState::Srrip {
                rrpv: vec![0; rows * ways],
            },
        }
    }

    /// Puts `row` in the fresh state of cache set `set`: every SRRIP way
    /// "distant" (3), FIFO and PLRU 0, and the
    /// Random seed `(set ^ 0x9e37_79b9) | 1` of the historical per-set
    /// construction. The seed depends on the real set index, never on the
    /// row, so a set behaves the same wherever its storage lives.
    pub(crate) fn init_row(&mut self, row: usize, set: usize, ways: usize) {
        match self {
            ReplState::Lru => {}
            ReplState::Fifo { next } => next[row] = 0,
            ReplState::Random { state } => state[row] = (set as u32 ^ 0x9e37_79b9) | 1,
            ReplState::TreePlru { bits } => bits[row] = 0,
            ReplState::Srrip { rrpv } => rrpv[row * ways..(row + 1) * ways].fill(3),
        }
    }

    /// Chooses the victim way among the `ways` of `row` (all valid/full).
    pub(crate) fn victim(&mut self, row: usize, ways: usize) -> usize {
        match self {
            ReplState::Lru => unreachable!("an LRU set's victim is its last way"),
            ReplState::Fifo { next } => {
                let way = next[row] as usize % ways;
                next[row] = ((way + 1) % ways) as u8;
                way
            }
            ReplState::Random { state } => {
                // xorshift32
                let mut x = state[row];
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                state[row] = x;
                (x as usize) % ways
            }
            ReplState::Srrip { rrpv } => {
                // Evict the first way at RRPV 3, aging everyone until one
                // appears (the SRRIP search-and-increment loop).
                let rrpv = &mut rrpv[row * ways..row * ways + ways];
                loop {
                    if let Some(way) = rrpv.iter().position(|&v| v >= 3) {
                        return way.min(ways - 1);
                    }
                    for v in rrpv.iter_mut() {
                        *v += 1;
                    }
                }
            }
            ReplState::TreePlru { bits } => {
                // Follow the tree: a clear bit points left, a set bit right.
                let bits = bits[row];
                let mut node = 0usize;
                let levels = ways.next_power_of_two().trailing_zeros() as usize;
                for _ in 0..levels {
                    let bit = (bits >> node) & 1;
                    node = 2 * node + 1 + bit as usize;
                }
                let way = node + 1 - ways.next_power_of_two();
                way.min(ways - 1)
            }
        }
    }

    /// Records that `way` of `row` was touched (hit or just filled).
    #[inline]
    pub(crate) fn touch(&mut self, row: usize, way: usize, ways: usize) {
        match self {
            ReplState::Lru => unreachable!("an LRU set rotates its own ways"),
            ReplState::Fifo { .. } | ReplState::Random { .. } => {}
            ReplState::Srrip { rrpv } => {
                // SRRIP inserts at "long" (2) and promotes to "near" (0) on
                // a hit; we cannot distinguish fill from hit here, so the
                // first touch after a fill sets 2 and subsequent touches 0.
                let v = &mut rrpv[row * ways + way];
                *v = if *v >= 3 { 2 } else { 0 };
            }
            ReplState::TreePlru { bits } => {
                // Walk from the leaf for `way` up to the root, flipping each
                // bit to point *away* from the touched way. Each internal
                // node is written once, so the bottom-up order is equivalent
                // to the top-down walk.
                let bits = &mut bits[row];
                let total = ways.next_power_of_two();
                let mut node = way + total - 1;
                while node > 0 {
                    let parent = (node - 1) / 2;
                    if node == 2 * parent + 2 {
                        *bits &= !(1 << parent);
                    } else {
                        *bits |= 1 << parent;
                    }
                    node = parent;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::config::CacheConfig;

    /// A fresh state with row `i` holding set `i`, as a dense cache would.
    fn fresh(policy: Policy, sets: usize, ways: usize) -> ReplState {
        let mut s = ReplState::new(policy, sets, ways);
        for set in 0..sets {
            s.init_row(set, set, ways);
        }
        s
    }

    /// An LRU cache of 64-byte lines. LRU keeps no state here (a set's
    /// ways are its recency order), so its tests drive a `Cache`.
    fn lru(sets: usize, ways: usize) -> Cache {
        Cache::new(CacheConfig::new(sets * ways * 64, ways, 64, Policy::Lru))
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = lru(1, 4);
        for line in 0..4u64 {
            c.access(line * 64, false);
        }
        // Line 0 is least recent; refreshing it makes line 1 the victim.
        c.access(0, false);
        c.access(4 * 64, false);
        assert!(c.contains(0));
        assert!(!c.contains(64));
        c.access(5 * 64, false);
        assert!(!c.contains(2 * 64));
        assert!(c.contains(3 * 64));
    }

    #[test]
    fn fifo_cycles_round_robin() {
        let mut s = fresh(Policy::Fifo, 1, 3);
        assert_eq!(s.victim(0, 3), 0);
        assert_eq!(s.victim(0, 3), 1);
        assert_eq!(s.victim(0, 3), 2);
        assert_eq!(s.victim(0, 3), 0);
        // Touches don't change FIFO order.
        s.touch(0, 1, 3);
        assert_eq!(s.victim(0, 3), 1);
    }

    #[test]
    fn random_victims_in_range_and_vary() {
        let mut s = fresh(Policy::Random, 1, 8);
        let victims: Vec<usize> = (0..64).map(|_| s.victim(0, 8)).collect();
        assert!(victims.iter().all(|&v| v < 8));
        let distinct: std::collections::HashSet<_> = victims.iter().collect();
        assert!(distinct.len() > 1, "random policy should vary");
    }

    #[test]
    fn random_sets_are_decorrelated() {
        // Sets 0 and 1 share a seed (the historical `| 1` erases the xor'd
        // low bit) — sets differing above bit 0 must diverge.
        let mut s = fresh(Policy::Random, 3, 8);
        let a: Vec<usize> = (0..32).map(|_| s.victim(0, 8)).collect();
        let b: Vec<usize> = (0..32).map(|_| s.victim(2, 8)).collect();
        assert_ne!(a, b, "per-set seeds must differ");
    }

    #[test]
    fn plru_protects_recent_way() {
        let mut s = fresh(Policy::TreePlru, 1, 4);
        for w in 0..4 {
            s.touch(0, w, 4);
        }
        // Most recently touched way (3) must not be the next victim.
        let v = s.victim(0, 4);
        assert_ne!(v, 3);
        assert!(v < 4);
    }

    #[test]
    fn plru_single_way() {
        let mut s = fresh(Policy::TreePlru, 1, 1);
        s.touch(0, 0, 1);
        assert_eq!(s.victim(0, 1), 0);
    }

    #[test]
    fn srrip_is_scan_resistant() {
        // A frequently re-touched way survives a scan of one-shot fills.
        let mut s = fresh(Policy::Srrip, 1, 4);
        s.touch(0, 0, 4);
        s.touch(0, 0, 4); // way 0 now "near" (RRPV 0)
        for _ in 0..3 {
            let v = s.victim(0, 4);
            assert_ne!(v, 0, "hot way must not be evicted by the scan");
            s.touch(0, v, 4); // scan fill at RRPV 2
        }
    }

    #[test]
    fn srrip_victims_in_range() {
        let mut s = fresh(Policy::Srrip, 1, 8);
        for i in 0..32 {
            let v = s.victim(0, 8);
            assert!(v < 8);
            s.touch(0, v % 8, 8);
            let _ = i;
        }
    }

    #[test]
    fn lru_full_rotation() {
        // One set of 2 ways holding lines A and B; the one touched last
        // survives the fill of a third line C.
        let (a, b, c_line) = (0u64, 64, 128);
        for (touch, victim) in [(a, b), (b, a)] {
            let mut c = lru(1, 2);
            c.access(a, false);
            c.access(b, false);
            c.access(touch, false);
            c.access(c_line, false);
            assert!(!c.contains(victim), "touching {touch:#x} last");
            assert!(c.contains(touch) && c.contains(c_line));
        }
    }

    #[test]
    fn sets_are_independent() {
        // Two sets of 2 ways: even lines in set 0, odd lines in set 1.
        // Touching set 1 must not disturb set 0's order.
        let mut c = lru(2, 2);
        for line in [0u64, 2, 3, 1] {
            c.access(line * 64, false);
        }
        c.access(4 * 64, false); // evicts line 0, set 0's least recent
        c.access(5 * 64, false); // evicts line 3, set 1's least recent
        assert!(!c.contains(0) && c.contains(2 * 64));
        assert!(!c.contains(3 * 64) && c.contains(64));
    }
}

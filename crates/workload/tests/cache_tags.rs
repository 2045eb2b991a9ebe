//! The one-word way layout of `uarch_sim::cache::Cache`, pinned from
//! outside the cache.
//!
//! A way is one `u32`: valid and dirty bits over the 30-bit quotient
//! `line / sets`, so a cache models only addresses below
//! `CacheConfig::addr_bound`, and an LRU set keeps its ways in recency
//! order. These tests check that the layout changes no behaviour, against
//! a naive true-LRU model that keys lines by full `u64` line numbers and
//! against digests of the positional policies recorded on the layout that
//! kept valid/dirty in a lane of their own, and that nothing the workload
//! generator can emit reaches any level's bound on any geometry the
//! repository builds.

use uarch_sim::cache::{AccessResult, Cache};
use uarch_sim::config::{CacheConfig, SystemConfig};
use uarch_sim::hierarchy::Hierarchy;
use uarch_sim::replacement::Policy;
use workload_synth::generator::TraceScale;
use workload_synth::profile::{Behavior, InputSize};
use workload_synth::reuse::LocalityModel;
use workload_synth::rng::Rng64;
use workload_synth::{cpu2006, cpu2017};

/// True LRU over full line numbers: write-allocate, write-back, a miss
/// fills the first invalid way, else evicts the least recently used one.
struct NaiveLru {
    sets: u64,
    ways: usize,
    line_bytes: u64,
    /// Per set, per way: `(line, dirty, last use)`, `None` while invalid.
    lines: Vec<Vec<Option<(u64, bool, u64)>>>,
    clock: u64,
}

impl NaiveLru {
    fn new(config: CacheConfig) -> Self {
        NaiveLru {
            sets: config.sets() as u64,
            ways: config.ways,
            line_bytes: config.line_bytes as u64,
            lines: vec![vec![None; config.ways]; config.sets()],
            clock: 0,
        }
    }

    fn access(&mut self, addr: u64, write: bool) -> AccessResult {
        self.clock += 1;
        let line = addr / self.line_bytes;
        let set = &mut self.lines[(line % self.sets) as usize];
        if let Some(way) = set.iter_mut().flatten().find(|w| w.0 == line) {
            way.1 |= write;
            way.2 = self.clock;
            return AccessResult::Hit;
        }
        let slot = match set.iter().position(Option::is_none) {
            Some(free) => free,
            None => (0..self.ways)
                .min_by_key(|&w| set[w].expect("full set").2)
                .expect("at least one way"),
        };
        let writeback = set[slot]
            .filter(|&(_, dirty, _)| dirty)
            .map(|(victim, _, _)| victim * self.line_bytes);
        set[slot] = Some((line, write, self.clock));
        AccessResult::Miss { writeback }
    }
}

fn lru(size_bytes: usize, ways: usize) -> CacheConfig {
    CacheConfig::new(size_bytes, ways, 64, Policy::Lru)
}

const MIB: usize = 1 << 20;

/// Drives `cache` and the naive model with one seeded stream and compares
/// every result. Half the accesses conflict in a few sets, over lines just
/// above 0 and lines just below the bound (quotients with bit 29 set); the
/// rest land anywhere below the bound. A quarter are writes.
fn differential(config: CacheConfig, seed: u64, accesses: usize) {
    let mut cache = Cache::new(config);
    let mut naive = NaiveLru::new(config);
    let mut rng = Rng64::seed_from(seed);
    let sets = config.sets() as u64;
    let bound_lines = config.addr_bound() / 64;
    let hot_sets: Vec<u64> = (0..8).map(|_| rng.gen_below(sets)).collect();
    let depth = 2 * config.ways as u64;
    let mut writebacks = 0;
    for i in 0..accesses {
        let line = if rng.gen_bool() {
            let set = hot_sets[rng.gen_below(hot_sets.len() as u64) as usize];
            let j = rng.gen_below(depth);
            if rng.gen_bool() {
                set + sets * j
            } else {
                // The j-th line of `set` counting down from the bound.
                let top = (bound_lines - 1 - set) / sets;
                set + sets * (top - j)
            }
        } else {
            rng.gen_below(bound_lines)
        };
        let addr = line * 64 + rng.gen_below(64);
        let write = rng.gen_below(4) == 0;
        let got = cache.access(addr, write);
        let want = naive.access(addr, write);
        assert_eq!(
            got, want,
            "{config:?} access {i}: {addr:#x} (write {write})"
        );
        writebacks += u64::from(matches!(got, AccessResult::Miss { writeback: Some(_) }));
    }
    assert!(
        writebacks > 0,
        "{config:?}: the stream evicted nothing dirty"
    );
    assert_eq!(cache.stats().writebacks, writebacks);
}

#[test]
fn half_width_tags_match_a_full_width_lru_model() {
    let haswell = SystemConfig::haswell_e5_2650l_v3();
    let tiny = SystemConfig::tiny_test();
    let geometries = [
        haswell.l1d,
        haswell.l2,
        haswell.l3,
        tiny.l1d,
        tiny.l2,
        tiny.l3,
        // One set: the whole line is the quotient.
        lru(4 * 64, 4),
        // The 1, 4 and 120 MiB L3 sweep points: 819, 3,276 and 98,304 sets.
        haswell.clone().with_l3_size(MIB).l3,
        haswell.clone().with_l3_size(4 * MIB).l3,
        haswell.clone().with_l3_size(120 * MIB).l3,
    ];
    let sets: Vec<usize> = geometries[7..].iter().map(CacheConfig::sets).collect();
    assert_eq!(sets, [819, 3_276, 98_304]);
    for (seed, config) in geometries.into_iter().enumerate() {
        differential(config, seed as u64, 40_000);
    }
}

/// The geometries the repository builds: Table I, the unit-test system,
/// and the L3 and L2 capacity sweep points.
fn geometries() -> Vec<SystemConfig> {
    let haswell = SystemConfig::haswell_e5_2650l_v3();
    let mut out = vec![haswell.clone(), SystemConfig::tiny_test()];
    for mib in [4, 8, 30, 120] {
        out.push(haswell.clone().with_l3_size(mib * MIB));
    }
    for kib in [128, 256, 1024] {
        out.push(haswell.clone().with_l2_size(kib * 1024));
    }
    out
}

/// Lines the stream prefetcher can run ahead of a demand miss.
const PREFETCH_REACH: u64 = 4 * 64;

#[test]
fn no_generated_address_reaches_a_cache_bound() {
    let behaviors: Vec<Behavior> = cpu2017::suite()
        .iter()
        .chain(&cpu2006::suite())
        .flat_map(|app| {
            InputSize::ALL
                .into_iter()
                .flat_map(|size| app.inputs(size).iter().map(|i| i.behavior.clone()))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(behaviors.len() >= 223, "{} behaviours", behaviors.len());
    for config in geometries() {
        let levels = [config.l1i, config.l1d, config.l2, config.l3];
        let bound = levels.iter().map(CacheConfig::addr_bound).min().unwrap();
        for behavior in &behaviors {
            for scale in [TraceScale::default(), TraceScale::quick()] {
                // Sized as `TraceGenerator::new` sizes it.
                let ops = scale.budget_for(behavior, &config);
                let accesses = (ops as f64 * behavior.memory_fraction()).ceil() as u64;
                let model = LocalityModel::new(behavior.service_fractions(), &config, accesses);
                let end = model.addr_end() + PREFETCH_REACH;
                assert!(
                    end <= bound,
                    "{}: generated addresses reach {end:#x}, a level models only below {bound:#x}",
                    config.name
                );
            }
        }
    }
}

#[test]
#[should_panic(expected = "models addresses below")]
fn an_access_at_the_bound_panics() {
    let config = SystemConfig::haswell_e5_2650l_v3();
    Hierarchy::new(&config).load(config.l1d.addr_bound());
}

/// FNV-1a over the bytes of `word`, continuing from `hash`.
fn fnv(mut hash: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// The digest of every result of a seeded read/write stream through one
/// cache: a hit, a clean miss, or the address a dirty victim wrote back.
/// Half the lines conflict in the low `2 × capacity` lines, a quarter sit
/// just below line `2^31` and a quarter anywhere below it; every geometry
/// here models all of them.
fn policy_digest(config: CacheConfig, seed: u64) -> u64 {
    let mut cache = Cache::new(config);
    let mut rng = Rng64::seed_from(seed);
    let lines = (config.size_bytes / config.line_bytes) as u64;
    let top = 1u64 << 31;
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for _ in 0..8 * lines {
        let line = match rng.gen_below(4) {
            0 | 1 => rng.gen_below(2 * lines),
            2 => top - 1 - rng.gen_below(2 * lines),
            _ => rng.gen_below(top),
        };
        let write = rng.gen_below(4) == 0;
        hash = fnv(
            hash,
            match cache.access(line * 64 + rng.gen_below(64), write) {
                AccessResult::Hit => 0,
                AccessResult::Miss { writeback: None } => 1,
                AccessResult::Miss {
                    writeback: Some(addr),
                } => 2 | addr << 2,
            },
        );
    }
    let stats = cache.stats();
    assert!(
        stats.hits > 0 && stats.writebacks > 0,
        "{config:?}: {stats:?}"
    );
    hash
}

/// The positional policies keep their ways where they were filled and read
/// valid/dirty from the tag word. These digests were recorded on the
/// layout with a separate valid/dirty lane, so they pin that moving those
/// bits into the tag word changed no victim and no writeback address.
#[test]
fn non_lru_policies_are_pinned() {
    let geometries = [
        // 8-way, 64 sets: the L1 geometry.
        (32 << 10, 8),
        // The 1 MiB sweep L3: 819 sets, 20-way (an odd set count).
        (819 * 20 * 64, 20),
        // 5 sets of 3 ways.
        (5 * 3 * 64, 3),
    ];
    let policies = [
        Policy::Fifo,
        Policy::Random,
        Policy::TreePlru,
        Policy::Srrip,
    ];
    let got: Vec<Vec<u64>> = geometries
        .iter()
        .enumerate()
        .map(|(i, &(size, ways))| {
            policies
                .iter()
                .map(|&p| policy_digest(CacheConfig::new(size, ways, 64, p), 0xd1ce + i as u64))
                .collect()
        })
        .collect();
    let want = [
        [
            0x03a6_a705_8280_aeb4,
            0xe273_5df7_db7d_8b88,
            0xb064_d341_30d3_6f95,
            0x18d5_ae37_29be_0a9c,
        ],
        [
            0x534a_26ef_d6c1_41ca,
            0x0e92_4623_16ae_54a4,
            0xf9c3_06e9_1a7a_2848,
            0xacee_894d_4d41_2be7,
        ],
        [
            0x9e7a_ef65_1ee5_0f66,
            0x40d4_ad06_64da_3a54,
            0x2991_1304_6dda_bd73,
            0x026c_3ea2_1aa7_ba92,
        ],
    ];
    assert_eq!(got, want, "a positional policy's victims moved");
}

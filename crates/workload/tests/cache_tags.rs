//! The half-width tag layout of `uarch_sim::cache::Cache`, pinned from
//! outside the cache.
//!
//! A cache stores `line >> tz` (`tz` = trailing zero bits of the set
//! count) in a 31-bit tag, so it models only addresses below
//! `CacheConfig::addr_bound`. These tests check that the layout changes no
//! behaviour, against a naive true-LRU model that keys lines by full
//! `u64` line numbers, and that nothing the workload generator can emit
//! reaches any level's bound on any geometry the repository builds.

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
/// above 0 and lines just below the bound (tags with bit 30 set); the rest
/// land anywhere below the bound. A quarter are writes.
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
        // One set: tz = 0 and the whole line is the tag.
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

//! Golden cache behaviour: every replacement policy on three geometries,
//! driven by a seeded load/store stream larger than capacity with a flush
//! midway, digested access by access.
//!
//! The digests were recorded on the dense whole-cache storage that
//! preceded lazily materialized sets, so they pin that a set's storage
//! layout never shows in behaviour: victims, writebacks, `contains`,
//! `resident_lines` and stats. In particular they move if a Random set
//! were seeded from its storage slot rather than its set index (the L3
//! digests: it is the one geometry here large enough to store its sets in
//! first-touch order), or if `flush` reset FIFO or SRRIP state.

use uarch_sim::cache::{AccessResult, Cache, CacheStats};
use uarch_sim::config::CacheConfig;
use uarch_sim::replacement::Policy;

const POLICIES: [Policy; 5] = [
    Policy::Lru,
    Policy::Fifo,
    Policy::Random,
    Policy::TreePlru,
    Policy::Srrip,
];

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn stats(&mut self, s: CacheStats) {
        self.word(s.hits);
        self.word(s.misses);
        self.word(s.writebacks);
    }
}

/// Drives `2 × capacity` accesses (a quarter of them stores) over a hot
/// region of half the capacity and a cold range four times the capacity,
/// flushing at the midpoint, and digests every result plus periodic
/// `contains` probes, `resident_lines` and the stats.
fn drive(config: CacheConfig, seed: u64) -> u64 {
    let lines = (config.size_bytes / config.line_bytes) as u64;
    let line_bytes = config.line_bytes as u64;
    let accesses = 2 * lines + 97;
    let mut cache = Cache::new(config);
    let mut rng = seed;
    let mut d = Digest::new();
    for i in 0..accesses {
        if i == accesses / 2 {
            d.stats(cache.stats());
            d.word(cache.resident_lines() as u64);
            cache.flush();
            d.word(cache.resident_lines() as u64);
        }
        let r = splitmix64(&mut rng);
        let line = if r & 1 == 0 {
            (r >> 8) % (lines / 2).max(1)
        } else {
            (r >> 8) % (4 * lines)
        };
        let addr = line * line_bytes + (r >> 2) % line_bytes;
        let write = (r >> 1) & 3 == 0;
        d.word(match cache.access(addr, write) {
            AccessResult::Hit => 0,
            AccessResult::Miss { writeback: None } => 1,
            AccessResult::Miss {
                writeback: Some(wb),
            } => 2 ^ (wb << 2),
        });
        if i % 61 == 0 {
            let probe = (splitmix64(&mut rng) % (4 * lines)) * line_bytes;
            d.word(u64::from(cache.contains(probe)));
        }
    }
    d.stats(cache.stats());
    d.word(cache.resident_lines() as u64);
    d.0
}

fn digests(config: impl Fn(Policy) -> CacheConfig, seed: u64) -> Vec<(Policy, u64)> {
    POLICIES
        .iter()
        .map(|&policy| (policy, drive(config(policy), seed)))
        .collect()
}

fn check(got: Vec<(Policy, u64)>, want: [u64; 5]) {
    let got_digests: Vec<u64> = got.iter().map(|&(_, d)| d).collect();
    assert_eq!(
        got_digests,
        want,
        "cache behaviour moved for {:?}",
        got.iter()
            .zip(want)
            .filter(|((_, g), w)| g != w)
            .map(|((p, _), _)| *p)
            .collect::<Vec<_>>()
    );
}

#[test]
fn eight_way_power_of_two_sets_are_pinned() {
    // 32 KiB, 8-way: the L1 geometry (LRU takes the 8-way fast path).
    let got = digests(|p| CacheConfig::new(32 * 1024, 8, 64, p), 0x5eed_0001);
    check(
        got,
        [
            0xef63_cd18_436b_658e,
            0x9d9b_f6a8_a720_d13f,
            0xa532_d783_feab_dbcd,
            0x013a_c0c1_52db_8e26,
            0xaa04_1461_126c_a227,
        ],
    );
}

#[test]
fn haswell_l3_is_pinned() {
    // 30 MiB, 20-way, 24,576 sets: the Table I L3 (reciprocal set index).
    let got = digests(
        |p| CacheConfig::new(30 * 1024 * 1024, 20, 64, p),
        0x5eed_0002,
    );
    check(
        got,
        [
            0x4808_7eab_33c6_de28,
            0x854b_14a8_2364_9957,
            0xb864_205e_1a74_e317,
            0xca11_bf26_de6d_a687,
            0xdad9_9685_89fc_bbac,
        ],
    );
}

#[test]
fn tiny_non_power_of_two_cache_is_pinned() {
    // 5 sets of 3 ways: non-power-of-two in both dimensions.
    let got = digests(|p| CacheConfig::new(5 * 3 * 64, 3, 64, p), 0x5eed_0003);
    check(
        got,
        [
            0x2ab7_9695_6d35_5cee,
            0x4845_2361_ca84_087e,
            0x8a85_202f_e324_d524,
            0x6b83_30d5_a6fc_b683,
            0xcc8e_a0d2_32c6_5198,
        ],
    );
}

#[test]
fn fresh_haswell_l3_is_empty_and_probing_materializes_nothing() {
    for policy in POLICIES {
        let l3 = Cache::new(CacheConfig::new(30 * 1024 * 1024, 20, 64, policy));
        assert_eq!(l3.resident_lines(), 0);
        let mut rng = 7;
        for _ in 0..10_000 {
            assert!(!l3.contains(splitmix64(&mut rng) >> 8));
        }
        assert_eq!(l3.resident_lines(), 0);
        assert_eq!(l3.materialized_sets(), 0, "{policy:?}");
    }
}

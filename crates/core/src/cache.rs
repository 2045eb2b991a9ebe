//! Content-addressed caching of characterization results.
//!
//! A characterization campaign is deterministic: the [`CharRecord`] of one
//! application–input pair is a pure function of the pair's identity and
//! behaviour, the simulated [`SystemConfig`], the
//! [`TraceScale`](workload_synth::generator::TraceScale), and the record
//! schema itself. This module derives a stable 128-bit [`Key`] from
//! exactly those inputs and persists each record in a [`simstore::Store`],
//! so repeated runs — the `reproduce` binary, ablations, sensitivity sweeps,
//! tests — replay from disk instead of re-simulating. Changing *any* key
//! ingredient (a profile field, a cache size, the trace budget, the record
//! layout) changes the key and transparently invalidates only the affected
//! records; nothing is ever served stale.

use std::io;
use std::path::Path;
use std::time::Instant;

use simstore::{CacheStats, CodecError, Decoder, Encoder, Key, StableHash, StableHasher, Store};
use uarch_sim::config::{CacheConfig, SystemConfig};
use uarch_sim::counters::{Event, PerfSession};
use uarch_sim::replacement::Policy;
use workload_synth::profile::{AppInputPair, InputSize, Suite};

use crate::characterize::{characterize_pair, CharRecord, RunConfig};

/// Version of the persisted [`CharRecord`] payload layout. Bump whenever
/// [`encode_record`] changes (or any encoded field changes meaning): the
/// version is hashed into every key, so old-layout records are simply never
/// addressed again — no migration, no misdecoding.
pub const SCHEMA_VERSION: u32 = 1;

/// Version of what the simulator computes: the generator's streams, the
/// engine's counters and pricing, and the footprint model. Hashed into
/// every [`pair_key`] and every simpoint key, so a model change that keeps
/// the record layout never replays results the old model computed. Bump it
/// whenever a change moves any counter; the golden test in
/// `tests/model_fingerprint.rs` fails until it is bumped.
pub const MODEL_FINGERPRINT: u32 = 1;

fn policy_code(policy: Policy) -> u8 {
    match policy {
        Policy::Lru => 0,
        Policy::Fifo => 1,
        Policy::Random => 2,
        Policy::TreePlru => 3,
        Policy::Srrip => 4,
        // `Policy` is non-exhaustive; a future variant needs its own stable
        // code here before it can be part of a cache key.
        other => unreachable!("unmapped replacement policy {other:?}"),
    }
}

fn hash_cache_config(h: &mut StableHasher, c: &CacheConfig) {
    h.write_usize(c.size_bytes);
    h.write_usize(c.ways);
    h.write_usize(c.line_bytes);
    h.write_u8(policy_code(c.policy));
}

/// Feeds every result-affecting field of a [`SystemConfig`] into `h`.
///
/// Lives here (not as a `StableHash` impl) because `SystemConfig` belongs to
/// `uarch-sim`, which does not depend on `simstore`; the characterization
/// layer is where machine identity meets cache keys.
pub fn hash_system(h: &mut StableHasher, system: &SystemConfig) {
    h.write_str(&system.name);
    hash_cache_config(h, &system.l1i);
    hash_cache_config(h, &system.l1d);
    hash_cache_config(h, &system.l2);
    hash_cache_config(h, &system.l3);
    h.write_f64(system.timing.clock_ghz);
    h.write_usize(system.timing.issue_width);
    h.write_u64(system.timing.mispredict_penalty);
    h.write_u64(system.timing.l2_latency);
    h.write_u64(system.timing.l3_latency);
    h.write_u64(system.timing.memory_latency);
    h.write_usize(system.cores);
}

fn pair_key_versioned(pair: &AppInputPair<'_>, config: &RunConfig, schema: u32) -> Key {
    let mut h = StableHasher::new();
    h.write_u32(schema);
    h.write_u32(MODEL_FINGERPRINT);
    pair.stable_hash(&mut h);
    hash_system(&mut h, &config.system);
    config.scale.stable_hash(&mut h);
    h.finish()
}

/// The content key addressing `pair`'s record under `config`.
pub fn pair_key(pair: &AppInputPair<'_>, config: &RunConfig) -> Key {
    pair_key_versioned(pair, config, SCHEMA_VERSION)
}

fn suite_code(suite: Suite) -> u8 {
    match suite {
        Suite::RateInt => 0,
        Suite::RateFp => 1,
        Suite::SpeedInt => 2,
        Suite::SpeedFp => 3,
    }
}

fn suite_from(code: u8) -> Result<Suite, CodecError> {
    match code {
        0 => Ok(Suite::RateInt),
        1 => Ok(Suite::RateFp),
        2 => Ok(Suite::SpeedInt),
        3 => Ok(Suite::SpeedFp),
        _ => Err(CodecError::BadMagic),
    }
}

fn size_code(size: InputSize) -> u8 {
    match size {
        InputSize::Test => 0,
        InputSize::Train => 1,
        InputSize::Ref => 2,
    }
}

fn size_from(code: u8) -> Result<InputSize, CodecError> {
    match code {
        0 => Ok(InputSize::Test),
        1 => Ok(InputSize::Train),
        2 => Ok(InputSize::Ref),
        _ => Err(CodecError::BadMagic),
    }
}

/// Serializes a record to the `SCHEMA_VERSION` payload layout.
pub fn encode_record(r: &CharRecord) -> Vec<u8> {
    let mut e = Encoder::with_capacity(256);
    e.put_str(&r.id);
    e.put_str(&r.app);
    e.put_str(&r.input);
    e.put_u8(suite_code(r.suite));
    e.put_u8(size_code(r.size));
    for event in Event::ALL {
        e.put_u64(r.session.count(event));
    }
    e.put_u64(r.sim_ops);
    e.put_f64(r.instructions_billions);
    e.put_f64(r.ipc);
    e.put_f64(r.load_pct);
    e.put_f64(r.store_pct);
    e.put_f64(r.branch_pct);
    e.put_f64(r.l1_miss_pct);
    e.put_f64(r.l2_miss_pct);
    e.put_f64(r.l3_miss_pct);
    e.put_f64(r.mispredict_pct);
    e.put_f64(r.rss_gib);
    e.put_f64(r.vsz_gib);
    e.put_f64(r.cpi_base);
    e.put_f64(r.cpi_branch);
    e.put_f64(r.cpi_memory);
    e.put_f64(r.cpi_frontend);
    e.put_f64(r.sim_seconds);
    e.put_f64(r.projected_seconds);
    e.into_bytes()
}

/// Deserializes a `SCHEMA_VERSION` payload produced by [`encode_record`].
///
/// # Errors
///
/// Any [`CodecError`] on truncated, trailing, or invalid-discriminant bytes.
/// `f64` fields round-trip bit-exactly (the codec moves raw bits), so a
/// decoded record compares equal to the encoded one.
pub fn decode_record(bytes: &[u8]) -> Result<CharRecord, CodecError> {
    let mut d = Decoder::new(bytes);
    let id = d.take_str()?;
    let app = d.take_str()?;
    let input = d.take_str()?;
    let suite = suite_from(d.take_u8()?)?;
    let size = size_from(d.take_u8()?)?;
    let mut session = PerfSession::new();
    for event in Event::ALL {
        session.set(event, d.take_u64()?);
    }
    let record = CharRecord {
        id,
        app,
        input,
        suite,
        size,
        session,
        sim_ops: d.take_u64()?,
        instructions_billions: d.take_f64()?,
        ipc: d.take_f64()?,
        load_pct: d.take_f64()?,
        store_pct: d.take_f64()?,
        branch_pct: d.take_f64()?,
        l1_miss_pct: d.take_f64()?,
        l2_miss_pct: d.take_f64()?,
        l3_miss_pct: d.take_f64()?,
        mispredict_pct: d.take_f64()?,
        rss_gib: d.take_f64()?,
        vsz_gib: d.take_f64()?,
        cpi_base: d.take_f64()?,
        cpi_branch: d.take_f64()?,
        cpi_memory: d.take_f64()?,
        cpi_frontend: d.take_f64()?,
        sim_seconds: d.take_f64()?,
        projected_seconds: d.take_f64()?,
    };
    d.finish()?;
    Ok(record)
}

/// A campaign's view of the result store: an optional [`Store`] plus shared
/// [`CacheStats`]. All methods take `&self` and are thread-safe, so one
/// context serves every scheduler worker by reference.
#[derive(Debug)]
pub struct CacheContext {
    store: Option<Store>,
    /// Hit/miss/byte accounting across every lookup through this context.
    pub stats: CacheStats,
}

impl CacheContext {
    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Any filesystem error opening the store.
    pub fn open<P: AsRef<Path>>(root: P) -> io::Result<CacheContext> {
        Ok(CacheContext {
            store: Some(Store::open(root)?),
            stats: CacheStats::new(),
        })
    }

    /// A context with no backing store: every lookup misses, nothing is
    /// written. Lets callers keep one code path for `--no-cache` runs.
    pub fn disabled() -> CacheContext {
        CacheContext {
            store: None,
            stats: CacheStats::new(),
        }
    }

    /// True when a backing store is attached.
    pub fn is_enabled(&self) -> bool {
        self.store.is_some()
    }

    /// The backing store, if enabled.
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// Fetches and decodes the record under `key`, counting a hit.
    /// Undecodable payloads read as a miss (the envelope layer already
    /// treats corruption the same way).
    pub fn lookup(&self, key: Key) -> Option<CharRecord> {
        let bytes = self.store.as_ref()?.get(key)?;
        match decode_record(&bytes) {
            Ok(record) => {
                self.stats.record_hit(bytes.len());
                Some(record)
            }
            Err(_) => None,
        }
    }

    /// Encodes and persists `record` under `key`. Write errors are swallowed:
    /// a read-only or full cache directory degrades to recomputation on the
    /// next run, never to a failed campaign.
    pub fn insert(&self, key: Key, record: &CharRecord) {
        if let Some(store) = &self.store {
            let payload = encode_record(record);
            if store.put(key, &payload).is_ok() {
                self.stats.record_store(payload.len());
            }
        }
    }
}

/// Cache-first characterization of one pair: serve the stored record when
/// present, otherwise simulate, persist, and account the miss cost.
///
/// Runs with interval sampling enabled bypass the cache entirely: the
/// on-disk codec persists counter totals only, so a cached record could not
/// carry the requested timeline (and a timeline-bearing record must not
/// poison the unsampled cache).
///
/// # Errors
///
/// Propagates [`crate::error::Error`] from the underlying characterization.
pub fn characterize_pair_cached(
    pair: &AppInputPair<'_>,
    config: &RunConfig,
    cache: &CacheContext,
) -> crate::error::Result<CharRecord> {
    if config.sampler.is_some() {
        return characterize_pair(pair, config);
    }
    let key = pair_key(pair, config);
    let mut probe = simtrace::span("stage/cache-probe");
    if probe.is_recording() {
        probe.arg("pair", pair.id());
    }
    if let Some(record) = cache.lookup(key) {
        probe.arg("hit", true);
        return Ok(record);
    }
    probe.arg("hit", false);
    drop(probe);
    let started = Instant::now();
    let record = characterize_pair(pair, config)?;
    cache.stats.record_miss(started.elapsed());
    cache.insert(key, &record);
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload_synth::cpu2017;
    use workload_synth::generator::TraceScale;

    fn tmp_root(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("workchar-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_record() -> CharRecord {
        let app = cpu2017::app("505.mcf_r").unwrap();
        let pair = &app.pairs(InputSize::Ref)[0];
        characterize_pair(pair, &RunConfig::quick()).unwrap()
    }

    #[test]
    fn record_codec_round_trips_exactly() {
        let record = sample_record();
        let decoded = decode_record(&encode_record(&record)).unwrap();
        assert_eq!(
            record, decoded,
            "decode must be bit-exact, sessions included"
        );
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let bytes = encode_record(&sample_record());
        assert!(decode_record(&bytes[..bytes.len() - 1]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(
            decode_record(&extended).is_err(),
            "trailing bytes must be rejected"
        );
    }

    #[test]
    fn key_invalidates_on_system_change() {
        let app = cpu2017::app("505.mcf_r").unwrap();
        let pair = &app.pairs(InputSize::Ref)[0];
        let base = RunConfig::quick();
        let mut slower = base.clone();
        slower.system.timing.memory_latency += 100;
        let mut bigger_l3 = base.clone();
        bigger_l3.system = bigger_l3.system.with_l3_size(60 * 1024 * 1024);
        assert_ne!(pair_key(pair, &base), pair_key(pair, &slower));
        assert_ne!(pair_key(pair, &base), pair_key(pair, &bigger_l3));
        assert_eq!(pair_key(pair, &base), pair_key(pair, &base.clone()));
    }

    #[test]
    fn pair_keys_are_pinned_on_the_haswell_config() {
        // Regrouping config fields (such as the nested
        // `SystemConfig::timing`) must not turn every existing store
        // record into a miss: `hash_system` keeps its field order. Only a
        // bump of SCHEMA_VERSION or MODEL_FINGERPRINT moves these.
        let app = cpu2017::app("505.mcf_r").unwrap();
        let pair = &app.pairs(InputSize::Ref)[0];
        assert_eq!(
            pair_key(pair, &RunConfig::quick()).to_string(),
            "7291bc68ed5a0e7802d1213ea5261132"
        );
        assert_eq!(
            pair_key(pair, &RunConfig::default()).to_string(),
            "b57a9e8a65cb06556c6269640197eede"
        );
    }

    #[test]
    fn key_invalidates_on_scale_change() {
        let app = cpu2017::app("505.mcf_r").unwrap();
        let pair = &app.pairs(InputSize::Ref)[0];
        let base = RunConfig::quick();
        let mut rescaled = base.clone();
        rescaled.scale = TraceScale::default();
        assert_ne!(pair_key(pair, &base), pair_key(pair, &rescaled));
    }

    #[test]
    fn key_invalidates_on_schema_bump() {
        let app = cpu2017::app("505.mcf_r").unwrap();
        let pair = &app.pairs(InputSize::Ref)[0];
        let config = RunConfig::quick();
        assert_ne!(
            pair_key_versioned(pair, &config, SCHEMA_VERSION),
            pair_key_versioned(pair, &config, SCHEMA_VERSION + 1),
        );
    }

    #[test]
    fn cached_run_matches_uncached_and_hits_second_time() {
        let root = tmp_root("hit");
        let cache = CacheContext::open(&root).unwrap();
        let app = cpu2017::app("541.leela_r").unwrap();
        let pair = &app.pairs(InputSize::Ref)[0];
        let config = RunConfig::quick();

        let cold = characterize_pair_cached(pair, &config, &cache).unwrap();
        assert_eq!(
            cold,
            characterize_pair(pair, &config).unwrap(),
            "cache must not alter results"
        );
        let warm = characterize_pair_cached(pair, &config, &cache).unwrap();
        assert_eq!(cold, warm);
        let snap = cache.stats.snapshot();
        assert_eq!((snap.misses, snap.hits, snap.stores), (1, 1, 1));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn warm_hits_survive_reopen() {
        let root = tmp_root("reopen");
        let app = cpu2017::app("519.lbm_r").unwrap();
        let pair = &app.pairs(InputSize::Ref)[0];
        let config = RunConfig::quick();
        let cold = {
            let cache = CacheContext::open(&root).unwrap();
            characterize_pair_cached(pair, &config, &cache).unwrap()
        };
        let cache = CacheContext::open(&root).unwrap();
        let warm = characterize_pair_cached(pair, &config, &cache).unwrap();
        assert_eq!(cold, warm);
        assert_eq!(
            cache.stats.snapshot().hits,
            1,
            "reopened store must serve the record"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn disabled_context_recomputes_every_time() {
        let cache = CacheContext::disabled();
        assert!(!cache.is_enabled());
        let app = cpu2017::app("505.mcf_r").unwrap();
        let pair = &app.pairs(InputSize::Ref)[0];
        let config = RunConfig::quick();
        let a = characterize_pair_cached(pair, &config, &cache).unwrap();
        let b = characterize_pair_cached(pair, &config, &cache).unwrap();
        assert_eq!(a, b);
        let snap = cache.stats.snapshot();
        assert_eq!((snap.hits, snap.misses, snap.stores), (0, 2, 0));
    }
}

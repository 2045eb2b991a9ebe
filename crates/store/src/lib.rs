//! Content-addressed result store + fault-tolerant job orchestration.
//!
//! The characterization pipeline re-measures all 194 application–input
//! pairs for every table, figure, ablation, and sensitivity sweep. This
//! crate makes that affordable: results are memoized on disk, keyed by a
//! *stable content hash* of everything that determines them, so a repeated
//! run replays from the store instead of re-simulating — and a changed
//! profile, system configuration, trace scale, or record schema changes the
//! key and transparently invalidates only the affected records.
//!
//! Modules:
//!
//! - [`hash`] — the process-stable 128-bit content hasher ([`StableHash`] /
//!   [`StableHasher`] / [`Key`]).
//! - [`codec`] — compact little-endian binary encoding for persisted
//!   records ([`Encoder`] / [`Decoder`]).
//! - [`store`] — the sharded, concurrently readable persistent [`Store`]
//!   (no in-memory index, atomic writes, versioned envelopes,
//!   corruption-as-miss).
//! - [`scheduler`] — the panic-isolating bounded-worker [`Scheduler`]
//!   (retry once, record per-job [`JobFailure`]s, partial results survive).
//! - [`stats`] — shared atomic [`CacheStats`] and the end-of-run summary.
//!
//! The crate knows nothing about the pipeline's record types: callers
//! define what is hashed (via [`StableHash`]) and what is stored (via
//! [`codec`]-encoded payloads). Its dependencies are the workspace's own
//! dependency-free `simtrace` span tree and `simmetrics` flight recorder.

pub mod codec;
pub mod hash;
pub mod scheduler;
pub mod stats;
pub mod store;

pub use codec::{CodecError, Decoder, Encoder};
pub use hash::{key_of, Key, StableHash, StableHasher};
pub use scheduler::{JobFailure, Progress, RunReport, Scheduler};
pub use stats::{CacheStats, StatsSnapshot};
pub use store::{Store, FORMAT_VERSION};

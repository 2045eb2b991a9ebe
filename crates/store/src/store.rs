//! The content-addressed persistent store.
//!
//! A [`Store`] maps 128-bit content [`Key`]s to opaque payload byte strings,
//! persisted one file per record under a root directory. The layout is
//! `root/<shard>/<32-hex-key>.rec` with 16 single-hex-digit shard
//! directories (keyed by the top nibble of `key.hi`), keeping any one
//! directory small even with hundreds of thousands of records. The
//! directories are the only index: opening a store reads nothing, a lookup
//! reads its record file directly, and a shard directory appears with the
//! first record written into it.
//!
//! Records are wrapped in a versioned envelope (magic, format version, key
//! echo, payload length, and the payload's 128-bit [`StableHasher`]
//! digest), so a damaged payload reads as absent instead of decoding as a
//! different record. Writes go to a temporary file in the same
//! directory and are `rename`d into place, so a crash mid-write leaves
//! either the old record or none — never a torn one. A record that fails
//! envelope validation on read is treated as absent for the rest of the
//! process (until this handle rewrites it); a damaged cache degrades to
//! recomputation, not failure.

use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::codec::{CodecError, Decoder, Encoder};
use crate::hash::{Key, StableHasher};

/// Envelope format version; bump when the envelope layout itself changes.
/// (Payload schema changes are the *key's* concern — schema versions are
/// hashed into keys, so old-schema records are simply never addressed.)
pub const FORMAT_VERSION: u32 = 2;

const MAGIC: &[u8; 8] = b"SIMSTOR1";
const SHARDS: usize = 16;

fn shard_of(key: Key) -> usize {
    (key.hi >> 60) as usize
}

/// A persistent, concurrently readable content-addressed record store.
///
/// # Example
///
/// ```no_run
/// use simstore::hash::key_of;
/// use simstore::store::Store;
///
/// let store = Store::open("results/cache")?;
/// let key = key_of("some stable identity");
/// store.put(key, b"payload")?;
/// assert_eq!(store.get(key), Some(b"payload".to_vec()));
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    /// Keys whose record failed validation through this handle: they read
    /// as absent until this handle writes them again.
    damaged: Mutex<HashSet<Key>>,
    tmp_counter: AtomicU64,
}

impl Store {
    /// Opens the store rooted at `root`, creating the root if needed. No
    /// record is read and no shard directory is created.
    ///
    /// # Errors
    ///
    /// Any filesystem error creating the root.
    pub fn open<P: AsRef<Path>>(root: P) -> io::Result<Store> {
        fs::create_dir_all(root.as_ref())?;
        Ok(Store::at(root.as_ref()))
    }

    /// Opens the store already rooted at `root` for reading, creating
    /// nothing: a shard directory that is missing holds no records.
    ///
    /// # Errors
    ///
    /// `root` is missing or not a directory.
    pub fn open_existing<P: AsRef<Path>>(root: P) -> io::Result<Store> {
        fs::read_dir(root.as_ref())?;
        Ok(Store::at(root.as_ref()))
    }

    fn at(root: &Path) -> Store {
        Store {
            root: root.to_path_buf(),
            damaged: Mutex::new(HashSet::new()),
            tmp_counter: AtomicU64::new(0),
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of records on disk (a directory scan).
    pub fn len(&self) -> usize {
        self.keys().len()
    }

    /// True when the store holds no records (a directory scan).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every record's key, in unspecified order, read from the shard
    /// directories (no record file is opened). The static cached-result
    /// audit walks this to verify each entry without knowing which pairs
    /// produced them.
    pub fn keys(&self) -> Vec<Key> {
        let damaged = self.damaged.lock().unwrap_or_else(|e| e.into_inner());
        let mut keys = Vec::new();
        for nibble in 0..SHARDS {
            let Ok(entries) = fs::read_dir(self.root.join(format!("{nibble:x}"))) else {
                continue; // a shard nothing was written into yet
            };
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".rec")) else {
                    continue; // tmp files and strays are not records
                };
                if let Some(key) = Key::from_hex(stem) {
                    if shard_of(key) == nibble && !damaged.contains(&key) {
                        keys.push(key);
                    }
                }
            }
        }
        keys
    }

    /// True when a record file for `key` exists and has not read as
    /// damaged (no record bytes are read).
    pub fn contains(&self, key: Key) -> bool {
        !self.is_damaged(key) && self.record_path(key).is_file()
    }

    fn record_path(&self, key: Key) -> PathBuf {
        self.root
            .join(format!("{:x}", shard_of(key)))
            .join(format!("{key}.rec"))
    }

    fn is_damaged(&self, key: Key) -> bool {
        self.damaged
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .contains(&key)
    }

    fn set_damaged(&self, key: Key, damaged: bool) {
        let mut set = self.damaged.lock().unwrap_or_else(|e| e.into_inner());
        if damaged {
            set.insert(key);
        } else {
            set.remove(&key);
        }
    }

    /// Fetches the payload stored under `key`, or `None` if absent.
    ///
    /// A record that cannot be read or whose envelope fails validation
    /// (torn write, wrong magic, key mismatch, payload digest mismatch) is
    /// reported absent, now and on every later lookup through this handle.
    pub fn get(&self, key: Key) -> Option<Vec<u8>> {
        if self.is_damaged(key) {
            return None;
        }
        let bytes = match fs::read(self.record_path(key)) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            Err(_) => {
                self.set_damaged(key, true);
                return None;
            }
        };
        match unwrap_envelope(&bytes, key) {
            Ok(payload) => Some(payload.to_vec()),
            Err(_) => {
                self.set_damaged(key, true);
                None
            }
        }
    }

    /// Persists `payload` under `key`, atomically replacing any previous
    /// record and creating the key's shard directory on its first write.
    ///
    /// # Errors
    ///
    /// Any filesystem error writing or renaming the record file.
    pub fn put(&self, key: Key, payload: &[u8]) -> io::Result<()> {
        let final_path = self.record_path(key);
        let dir = final_path
            .parent()
            .expect("record path has a shard directory");
        let tmp = dir.join(format!(
            ".tmp-{}-{}-{key}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed),
        ));
        let envelope = wrap_envelope(key, payload);
        if let Err(e) = fs::write(&tmp, &envelope) {
            if e.kind() != io::ErrorKind::NotFound {
                return Err(e);
            }
            fs::create_dir_all(dir)?;
            fs::write(&tmp, &envelope)?;
        }
        fs::rename(&tmp, &final_path)?;
        self.set_damaged(key, false);
        Ok(())
    }
}

fn digest(payload: &[u8]) -> Key {
    let mut h = StableHasher::new();
    h.write_bytes(payload);
    h.finish()
}

fn wrap_envelope(key: Key, payload: &[u8]) -> Vec<u8> {
    let mut e = Encoder::with_capacity(MAGIC.len() + 44 + payload.len());
    e.put_bytes(MAGIC);
    e.put_u32(FORMAT_VERSION);
    e.put_u64(key.hi);
    e.put_u64(key.lo);
    e.put_u64(payload.len() as u64);
    let sum = digest(payload);
    e.put_u64(sum.hi);
    e.put_u64(sum.lo);
    e.put_bytes(payload);
    e.into_bytes()
}

fn unwrap_envelope(bytes: &[u8], key: Key) -> Result<&[u8], CodecError> {
    let mut d = Decoder::new(bytes);
    if d.take_bytes(MAGIC.len())? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = d.take_u32()?;
    if version != FORMAT_VERSION {
        return Err(CodecError::UnsupportedVersion {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let (hi, lo) = (d.take_u64()?, d.take_u64()?);
    if (Key { hi, lo }) != key {
        // A renamed or hand-copied file addressing the wrong content.
        return Err(CodecError::BadMagic);
    }
    let len = d.take_u64()? as usize;
    let sum = Key {
        hi: d.take_u64()?,
        lo: d.take_u64()?,
    };
    let payload = d.take_bytes(len)?;
    d.finish()?;
    if digest(payload) != sum {
        return Err(CodecError::BadDigest);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::key_of;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("simstore-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn open_existing_creates_nothing() {
        let root = tmp_root("existing");
        let err = Store::open_existing(&root).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(
            !root.exists(),
            "a failed read-only open must not create the root"
        );
        fs::create_dir_all(&root).unwrap();
        let empty = Store::open_existing(&root).unwrap();
        assert!(empty.is_empty());
        assert_eq!(
            fs::read_dir(&root).unwrap().count(),
            0,
            "no shard dirs created"
        );
        let key = key_of("record-a");
        Store::open(&root).unwrap().put(key, b"payload").unwrap();
        assert_eq!(
            Store::open_existing(&root).unwrap().get(key),
            Some(b"payload".to_vec())
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn open_creates_no_shard_directory() {
        let root = tmp_root("lazy-shards");
        let store = Store::open(&root).unwrap();
        assert!(root.is_dir(), "open creates the root");
        assert_eq!(fs::read_dir(&root).unwrap().count(), 0, "and nothing in it");
        assert!(store.is_empty());
        let key = key_of("record-a");
        assert_eq!(store.get(key), None);
        store.put(key, b"payload").unwrap();
        let shards: Vec<_> = fs::read_dir(&root).unwrap().flatten().collect();
        assert_eq!(shards.len(), 1, "the first write creates its shard only");
        assert_eq!(store.get(key), Some(b"payload".to_vec()));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn records_written_through_another_handle_are_visible() {
        let root = tmp_root("two-handles");
        let reader = Store::open(&root).unwrap();
        let writer = Store::open(&root).unwrap();
        let key = key_of("record-late");
        assert!(!reader.contains(key));
        writer.put(key, b"late").unwrap();
        assert_eq!(reader.get(key), Some(b"late".to_vec()));
        assert!(reader.contains(key));
        assert_eq!(reader.len(), 1);
        assert_eq!(reader.keys(), vec![key]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn put_get_and_reopen() {
        let root = tmp_root("roundtrip");
        let store = Store::open(&root).unwrap();
        let key = key_of("record-a");
        assert_eq!(store.get(key), None);
        store.put(key, b"hello").unwrap();
        assert!(store.contains(key));
        assert_eq!(store.get(key), Some(b"hello".to_vec()));
        drop(store);
        let reopened = Store::open(&root).unwrap();
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.get(key), Some(b"hello".to_vec()));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn overwrite_replaces_payload() {
        let root = tmp_root("overwrite");
        let store = Store::open(&root).unwrap();
        let key = key_of("record-b");
        store.put(key, b"v1").unwrap();
        store.put(key, b"v2").unwrap();
        assert_eq!(store.get(key), Some(b"v2".to_vec()));
        assert_eq!(store.len(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_record_reads_as_absent() {
        let root = tmp_root("corrupt");
        let store = Store::open(&root).unwrap();
        let key = key_of("record-c");
        store.put(key, b"payload").unwrap();
        fs::write(store.record_path(key), b"garbage").unwrap();
        assert_eq!(store.get(key), None, "corrupt envelope is a miss");
        assert!(!store.contains(key), "and stays absent for this handle");
        assert_eq!(store.len(), 0);
        store.put(key, b"payload").unwrap();
        assert_eq!(store.get(key), Some(b"payload".to_vec()), "until rewritten");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn flipped_payload_bit_reads_as_absent() {
        let root = tmp_root("bitflip");
        let store = Store::open(&root).unwrap();
        let key = key_of("record-d");
        let payload = b"ipc=1.25 l2_mpki=3.5";
        store.put(key, payload).unwrap();
        let path = store.record_path(key);
        let mut bytes = fs::read(&path).unwrap();
        // The payload is the envelope's tail; flip one bit in its middle,
        // a change a record decoder would happily read as other numbers.
        let at = bytes.len() - payload.len() / 2;
        bytes[at] ^= 0x04;
        assert_eq!(unwrap_envelope(&bytes, key), Err(CodecError::BadDigest));
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.get(key), None, "a damaged payload is a miss");
        assert!(!store.contains(key), "and stays absent for this handle");
        let _ = fs::remove_dir_all(&root);
    }

    /// Every way a stored record can be cut short or have one bit flipped
    /// reads back as a miss, never as another payload and never as a
    /// panic: truncation at every byte offset, plus seeded single-bit
    /// flips anywhere in the envelope.
    #[test]
    fn truncated_or_bit_flipped_envelopes_never_yield_other_payloads() {
        let key = key_of("sweep-record");
        let mut e = Encoder::new();
        e.put_str("505.mcf_r-in1");
        for i in 0..24u64 {
            e.put_f64(i as f64 * 1.375);
            e.put_u64(i * 7_919);
        }
        let payload = e.into_bytes();
        let good = wrap_envelope(key, &payload);
        assert_eq!(unwrap_envelope(&good, key), Ok(&payload[..]));
        for cut in 0..good.len() {
            assert!(
                unwrap_envelope(&good[..cut], key).is_err(),
                "truncated at byte {cut} of {}",
                good.len()
            );
        }
        let mut rng = workload_synth::rng::Rng64::seed_from(0x5eed);
        for _ in 0..20_000 {
            let mut bytes = good.clone();
            let bit = rng.gen_below(bytes.len() as u64 * 8);
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            // Every bit is covered by the magic, version, key echo, length
            // or digest, so every flip is a miss.
            assert!(
                unwrap_envelope(&bytes, key).is_err(),
                "flipped bit {bit} still decoded"
            );
        }
    }

    #[test]
    fn wrong_key_file_rejected() {
        let root = tmp_root("wrongkey");
        let store = Store::open(&root).unwrap();
        let (ka, kb) = (key_of("a"), key_of("b"));
        store.put(ka, b"for-a").unwrap();
        // Copy a's record into b's slot: envelope echo catches the lie.
        let slot = store.record_path(kb);
        fs::create_dir_all(slot.parent().unwrap()).unwrap();
        fs::copy(store.record_path(ka), slot).unwrap();
        let fresh = Store::open(&root).unwrap();
        assert_eq!(fresh.get(kb), None);
        assert_eq!(fresh.get(ka), Some(b"for-a".to_vec()));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let root = tmp_root("concurrent");
        let store = Store::open(&root).unwrap();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let store = &store;
                s.spawn(move || {
                    for i in 0..25u64 {
                        let key = key_of(&format!("t{t}-i{i}"));
                        store
                            .put(key, format!("payload-{t}-{i}").as_bytes())
                            .unwrap();
                        assert!(store.get(key).is_some());
                    }
                });
            }
        });
        assert_eq!(store.len(), 100);
        let _ = fs::remove_dir_all(&root);
    }
}

//! The server's result cache: the on-disk [`CacheDir`] with a bounded
//! in-memory tier of verified envelopes in front of it.
//!
//! Entries are content-addressed by [`JobSpec::key`](crate::JobSpec::key)
//! and a spec's outcome is deterministic, so a copy held in memory can
//! never go stale. The memo only ever holds bytes that were verified:
//! an envelope enters it after a disk read whose checksum and decode
//! both succeeded, or after a fresh execution's envelope was stored.
//! A memo hit is therefore always the exact answer the disk path would
//! have given, and it costs no file I/O, no checksum pass and no
//! decode.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use cedar_obs::SharedObs;
use cedar_snap::{CacheDir, Snapshot};

use crate::job::JobOutcome;

/// Entries the memo keeps before it evicts the oldest.
///
/// One entry costs about 370 bytes of heap: its 78-byte envelope and
/// `Arc` block, its 16-hex-digit key held twice (map and eviction
/// ring), and its share of the map's table (a slot holds the key, the
/// 64-byte [`JobOutcome`] and the `Arc`) and of the ring. A full memo
/// requests 1,507,344 bytes (~1.5 MB, counted with a counting global
/// allocator; allocator overhead not included).
pub const MEMO_ENTRIES: usize = 4096;

/// An outcome with its sealed envelope, shared between the memo, the
/// cache write and every binary reply.
pub(crate) type Memoized = (JobOutcome, Arc<Vec<u8>>);

/// Verified envelopes by spec key, evicted first in, first out.
#[derive(Default)]
struct Memo {
    entries: HashMap<String, Memoized>,
    /// Keys in insertion order, oldest first: `order.len()` always
    /// equals `entries.len()`, and both stay at most [`MEMO_ENTRIES`].
    order: VecDeque<String>,
}

impl Memo {
    fn get(&self, key: &str) -> Option<Memoized> {
        self.entries
            .get(key)
            .map(|(outcome, envelope)| (*outcome, Arc::clone(envelope)))
    }

    /// Inserts `key` unless it is already present, evicting the oldest
    /// entry when full: O(1) per insert.
    fn insert(&mut self, key: &str, outcome: JobOutcome, envelope: Arc<Vec<u8>>) {
        if self.entries.contains_key(key) {
            return;
        }
        if self.order.len() == MEMO_ENTRIES {
            if let Some(oldest) = self.order.pop_front() {
                self.entries.remove(&oldest);
            }
        }
        self.order.push_back(key.to_owned());
        self.entries.insert(key.to_owned(), (outcome, envelope));
    }
}

/// The memoization cache of a server started with a cache directory.
pub(crate) struct ResultCache {
    disk: CacheDir,
    memo: Mutex<Memo>,
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory `root`, with an
    /// empty memo.
    pub(crate) fn open(root: PathBuf) -> std::io::Result<ResultCache> {
        Ok(ResultCache {
            disk: CacheDir::new(root)?,
            memo: Mutex::new(Memo::default()),
        })
    }

    fn memo(&self) -> MutexGuard<'_, Memo> {
        self.memo.lock().expect("memo lock poisoned")
    }

    /// The memoized outcome for `key`: from memory, else from disk.
    /// A disk read ticks `serve.cache.disk_reads`; its entry enters the
    /// memo only once its checksum and decode succeeded. Undecodable
    /// bytes (schema skew from an older build) are a miss.
    pub(crate) fn lookup(&self, key: &str, obs: &SharedObs) -> Option<Memoized> {
        let hit = self.memo().get(key);
        if hit.is_some() {
            return hit;
        }
        obs.inc("serve.cache.disk_reads");
        let bytes = self.disk.load_bytes(key)?;
        let outcome = JobOutcome::from_snapshot_bytes(&bytes).ok()?;
        let envelope = Arc::new(bytes);
        self.memo().insert(key, outcome, Arc::clone(&envelope));
        Some((outcome, envelope))
    }

    /// Stores a freshly executed envelope on disk and, once that
    /// succeeded, in the memo. Returns whether the disk write succeeded.
    pub(crate) fn store(&self, key: &str, outcome: JobOutcome, envelope: &Arc<Vec<u8>>) -> bool {
        if self.disk.store_bytes(key, envelope).is_err() {
            return false;
        }
        self.memo().insert(key, outcome, Arc::clone(envelope));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(i: u64) -> JobOutcome {
        JobOutcome {
            degraded: false,
            latency: 1.5,
            interarrival: 2.0,
            bandwidth: 0.25,
            net_cycles: i,
            words_dropped: 0,
            retries: 0,
            failed: 0,
        }
    }

    fn key(i: usize) -> String {
        format!("{i:016x}")
    }

    #[test]
    fn memo_stays_bounded_evicts_oldest_first_and_falls_back_to_disk() {
        const EXTRA: usize = 5;
        let dir = std::env::temp_dir().join(format!("cedar-serve-memo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(dir.clone()).unwrap();
        let obs = SharedObs::new(&crate::server::METRICS);
        for i in 0..MEMO_ENTRIES + EXTRA {
            let o = outcome(i as u64);
            assert!(cache.store(&key(i), o, &Arc::new(o.to_snapshot_bytes())));
        }
        {
            let memo = cache.memo();
            assert_eq!(memo.entries.len(), MEMO_ENTRIES);
            assert_eq!(memo.order.len(), MEMO_ENTRIES);
            for i in 0..EXTRA {
                assert!(memo.get(&key(i)).is_none(), "key {i} should be evicted");
            }
            for i in EXTRA..MEMO_ENTRIES + EXTRA {
                assert!(memo.get(&key(i)).is_some(), "key {i} should be kept");
            }
        }

        // A kept key is answered from memory.
        let (o, envelope) = cache.lookup(&key(EXTRA), &obs).unwrap();
        assert_eq!(o, outcome(EXTRA as u64));
        assert_eq!(*envelope, o.to_snapshot_bytes());
        assert_eq!(obs.counter_value("serve.cache.disk_reads"), 0);

        // An evicted key falls back to disk with the same bytes, then
        // re-enters the memo in place of the now-oldest entry.
        let (o, envelope) = cache.lookup(&key(0), &obs).unwrap();
        assert_eq!(o, outcome(0));
        assert_eq!(*envelope, outcome(0).to_snapshot_bytes());
        assert_eq!(obs.counter_value("serve.cache.disk_reads"), 1);
        let memo = cache.memo();
        assert_eq!(memo.entries.len(), MEMO_ENTRIES);
        assert!(memo.get(&key(0)).is_some());
        assert!(memo.get(&key(EXTRA)).is_none());
        drop(memo);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

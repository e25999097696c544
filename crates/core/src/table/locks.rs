//! Key-granular lock manager for the strict two-phase-locking baseline.
//!
//! Locks are shared (read) or exclusive (write) per key, held until the end
//! of the transaction (strict 2PL).  Deadlocks are avoided with the classic
//! *wait-die* rule: an older transaction (smaller begin timestamp) is allowed
//! to wait for a younger lock holder, a younger requester "dies" immediately
//! (returns [`TspError::Deadlock`]) and is expected to be retried by its
//! caller.  A bounded wait (default 1 s) additionally guards against lost
//! wake-ups so the benchmark can never hang.
//!
//! The manager keeps no per-transaction registry: the caller remembers
//! which keys it locked (the S2PL table keeps them in the transaction's
//! slot-local cell) and hands them back to [`LockManager::release`].
//!
//! A key has a lock-table entry only while some transaction holds a lock on
//! it.  The reader list of a released entry is kept, emptied, in its
//! shard's pool for the next entry, so a warm lock table grants and
//! releases locks without allocating.

use parking_lot::{Condvar, Mutex};
use std::hash::Hash;
use std::time::{Duration, Instant};
use tsp_common::recycle::KEEP_ENTRIES;
use tsp_common::{fx_shard, FxHashMap, FxHashSet, Result, TspError, TxnId};

const SHARDS: usize = 32;

/// Lock mode requested for a key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) access.
    Shared,
    /// Exclusive (write) access.
    Exclusive,
}

struct LockEntry {
    /// Shared holders: a list, since a key has few of them.
    readers: Vec<u64>,
    writer: Option<u64>,
}

impl LockEntry {
    fn is_free(&self) -> bool {
        self.readers.is_empty() && self.writer.is_none()
    }

    /// Transactions currently blocking `txn` from acquiring `mode`.
    fn conflicts(&self, txn: u64, mode: LockMode) -> impl Iterator<Item = u64> + '_ {
        let readers = match mode {
            LockMode::Shared => &[][..],
            LockMode::Exclusive => &self.readers[..],
        };
        readers
            .iter()
            .copied()
            .chain(self.writer)
            .filter(move |holder| *holder != txn)
    }

    fn grant(&mut self, txn: u64, mode: LockMode) {
        match mode {
            LockMode::Shared => {
                if self.writer != Some(txn) && !self.readers.contains(&txn) {
                    self.readers.push(txn);
                }
            }
            LockMode::Exclusive => {
                self.readers.retain(|r| *r != txn);
                self.writer = Some(txn);
            }
        }
    }
}

/// One shard's entries, and the emptied reader lists of released entries
/// (at most [`KEEP_ENTRIES`]) that new entries start from.
struct ShardTable<K> {
    entries: FxHashMap<K, LockEntry>,
    spare_readers: Vec<Vec<u64>>,
}

struct LockShard<K> {
    table: Mutex<ShardTable<K>>,
    released: Condvar,
}

/// Sharded lock table with wait-die deadlock avoidance.
pub struct LockManager<K> {
    shards: Vec<LockShard<K>>,
    max_wait: Duration,
}

impl<K: Clone + Eq + Hash> Default for LockManager<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Clone + Eq + Hash> LockManager<K> {
    /// Creates a lock manager with the default 1-second wait bound.
    pub fn new() -> Self {
        Self::with_max_wait(Duration::from_secs(1))
    }

    /// Creates a lock manager with an explicit wait bound.
    pub fn with_max_wait(max_wait: Duration) -> Self {
        LockManager {
            shards: (0..SHARDS)
                .map(|_| LockShard {
                    table: Mutex::new(ShardTable {
                        entries: FxHashMap::default(),
                        spare_readers: Vec::new(),
                    }),
                    released: Condvar::new(),
                })
                .collect(),
            max_wait,
        }
    }

    fn shard(&self, key: &K) -> &LockShard<K> {
        &self.shards[fx_shard(key, SHARDS)]
    }

    /// Acquires `mode` on `key` for `txn`, applying wait-die.
    ///
    /// Lock upgrades (shared → exclusive by the same transaction) succeed as
    /// soon as no *other* reader remains.
    pub fn lock(&self, txn: TxnId, key: &K, mode: LockMode) -> Result<()> {
        let id = txn.as_u64();
        let shard = self.shard(key);
        let deadline = Instant::now() + self.max_wait;
        let mut table = shard.table.lock();
        loop {
            let ShardTable {
                entries,
                spare_readers,
            } = &mut *table;
            let entry = entries.entry(key.clone()).or_insert_with(|| LockEntry {
                readers: spare_readers.pop().unwrap_or_default(),
                writer: None,
            });
            let (mut blocked, mut dies) = (false, false);
            for holder in entry.conflicts(id, mode) {
                blocked = true;
                // Wait-die: only wait if this transaction is older (smaller
                // timestamp) than every conflicting holder; otherwise die.
                dies |= id > holder;
            }
            if !blocked {
                entry.grant(id, mode);
                return Ok(());
            }
            if dies || Instant::now() >= deadline {
                return Err(TspError::Deadlock { txn: id });
            }
            shard
                .released
                .wait_for(&mut table, Duration::from_millis(5));
        }
    }

    /// Releases `txn`'s locks on `keys` (end of transaction — strict 2PL).
    /// Keys `txn` does not hold are skipped.
    pub fn release<'a>(&self, txn: TxnId, keys: impl IntoIterator<Item = &'a K>)
    where
        K: 'a,
    {
        let id = txn.as_u64();
        for key in keys {
            let shard = self.shard(key);
            let mut table = shard.table.lock();
            let ShardTable {
                entries,
                spare_readers,
            } = &mut *table;
            if let Some(entry) = entries.get_mut(key) {
                entry.readers.retain(|r| *r != id);
                if entry.writer == Some(id) {
                    entry.writer = None;
                }
                if entry.is_free() {
                    let readers = entries.remove(key).expect("the entry was found").readers;
                    if readers.capacity() > 0 && spare_readers.len() < KEEP_ENTRIES {
                        spare_readers.push(readers);
                    }
                }
            }
            shard.released.notify_all();
        }
    }

    /// Number of transactions currently holding at least one lock
    /// (diagnostics: walks every shard).
    pub fn holder_count(&self) -> usize {
        let mut holders = FxHashSet::default();
        for shard in &self.shards {
            for entry in shard.table.lock().entries.values() {
                holders.extend(entry.readers.iter().copied().chain(entry.writer));
            }
        }
        holders.len()
    }

    /// Number of keys with at least one lock (diagnostics).
    pub fn locked_key_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.table.lock().entries.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn shared_locks_are_compatible() {
        let lm: LockManager<u32> = LockManager::new();
        lm.lock(TxnId(1), &5, LockMode::Shared).unwrap();
        lm.lock(TxnId(2), &5, LockMode::Shared).unwrap();
        assert_eq!(lm.holder_count(), 2);
        lm.release(TxnId(1), [&5]);
        lm.release(TxnId(2), [&5]);
        assert_eq!(lm.holder_count(), 0);
        assert_eq!(lm.locked_key_count(), 0);
    }

    #[test]
    fn exclusive_conflicts_with_shared_younger_dies() {
        let lm: LockManager<u32> = LockManager::new();
        // Older transaction (1) holds an exclusive lock.
        lm.lock(TxnId(1), &9, LockMode::Exclusive).unwrap();
        // Younger transaction (5) must die instead of waiting.
        let err = lm.lock(TxnId(5), &9, LockMode::Shared).unwrap_err();
        assert!(matches!(err, TspError::Deadlock { txn: 5 }));
        lm.release(TxnId(1), [&9]);
    }

    #[test]
    fn reacquiring_own_lock_is_idempotent() {
        let lm: LockManager<u32> = LockManager::new();
        lm.lock(TxnId(3), &1, LockMode::Shared).unwrap();
        lm.lock(TxnId(3), &1, LockMode::Shared).unwrap();
        lm.lock(TxnId(3), &1, LockMode::Exclusive).unwrap(); // upgrade, sole reader
        lm.lock(TxnId(3), &1, LockMode::Exclusive).unwrap();
        lm.lock(TxnId(3), &1, LockMode::Shared).unwrap(); // already writer
        lm.release(TxnId(3), [&1]);
        assert_eq!(lm.locked_key_count(), 0);
    }

    #[test]
    fn upgrade_blocked_by_other_reader_dies_for_younger() {
        let lm: LockManager<u32> = LockManager::new();
        lm.lock(TxnId(2), &7, LockMode::Shared).unwrap();
        lm.lock(TxnId(8), &7, LockMode::Shared).unwrap();
        // Younger writer (8) cannot upgrade while 2 holds a shared lock.
        let err = lm.lock(TxnId(8), &7, LockMode::Exclusive).unwrap_err();
        assert!(matches!(err, TspError::Deadlock { .. }));
        lm.release(TxnId(2), [&7]);
        lm.release(TxnId(8), [&7]);
    }

    #[test]
    fn older_transaction_waits_for_younger_release() {
        let lm: Arc<LockManager<u32>> = Arc::new(LockManager::new());
        // Younger transaction (10) holds the lock.
        lm.lock(TxnId(10), &1, LockMode::Exclusive).unwrap();
        let waiter = {
            let lm = Arc::clone(&lm);
            std::thread::spawn(move || {
                // Older transaction (2) is allowed to wait and must succeed
                // once the younger holder releases.
                lm.lock(TxnId(2), &1, LockMode::Exclusive)
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        lm.release(TxnId(10), [&1]);
        waiter.join().unwrap().unwrap();
        lm.release(TxnId(2), [&1]);
    }

    #[test]
    fn bounded_wait_prevents_hangs() {
        let lm: LockManager<u32> = LockManager::with_max_wait(Duration::from_millis(50));
        lm.lock(TxnId(10), &1, LockMode::Exclusive).unwrap();
        // Older transaction may wait, but the bounded wait turns the stall
        // into a deadlock error instead of hanging forever.
        let start = Instant::now();
        let err = lm.lock(TxnId(2), &1, LockMode::Exclusive).unwrap_err();
        assert!(matches!(err, TspError::Deadlock { .. }));
        assert!(start.elapsed() < Duration::from_secs(2));
        lm.release(TxnId(10), [&1]);
    }

    #[test]
    fn release_without_locks_is_noop() {
        let lm: LockManager<u32> = LockManager::new();
        lm.release(TxnId(99), [&1]);
        assert_eq!(lm.holder_count(), 0);
    }

    #[test]
    fn concurrent_disjoint_lockers() {
        let lm: Arc<LockManager<u64>> = Arc::new(LockManager::new());
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let lm = Arc::clone(&lm);
                std::thread::spawn(move || {
                    let txn = TxnId(t + 1);
                    let keys: Vec<u64> = (0..200).map(|k| t * 1000 + k).collect();
                    for k in &keys {
                        lm.lock(txn, k, LockMode::Exclusive).unwrap();
                    }
                    lm.release(txn, &keys);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(lm.locked_key_count(), 0);
    }
}

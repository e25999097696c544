//! Key-space partitioned tables: one logical table sharded into N shard
//! tables, each in a commit group of its own.
//!
//! A [`PartitionedTable`] implements [`TransactionalTable<K, V>`], so
//! harnesses, the YCSB driver, stream operators, benches and examples drive
//! it exactly like an unpartitioned table.  Every key routes through a
//! [`Partitioner`] to one shard: an ordinary table of the chosen protocol,
//! created on the caller's [`StateContext`](crate::context::StateContext),
//! registered with the caller's [`TransactionManager`] and put in a
//! singleton commit group.  Nothing else is partition-specific: a
//! partition *is* a state in its own group, and the paper's consistency
//! protocol (§4.3) already says everything a key-space partition needs.
//!
//! # Commits
//!
//! * A **single-partition** transaction writes one shard, so its commit
//!   takes that shard's group lock only, and with synchronous persistence
//!   fsyncs only that shard's store.  Committers of different partitions
//!   never contend, and N partitions fsync N stores concurrently.
//! * A **cross-partition** transaction writes several groups, so it takes
//!   the manager's ordinary multi-group path: every involved group lock in
//!   ascending order, every participant validated before any applies, one
//!   commit timestamp, and no `LastCTS` published until every durable
//!   hand-off succeeded.  Commitment is all-or-nothing.
//!
//! # Reads across partitions
//!
//! A transaction pins each group's snapshot, `ReadCTS = LastCTS(group)`, at
//! its first access of that group (the context's pin rule, see
//! [`crate::context`]).  Within one partition reads come from one pinned
//! snapshot, and First-Committer-Wins, BOCC and SSI certification run
//! unchanged.  Across partitions the pins are independent, exactly as for
//! any transaction that reads more than one group in the paper: a reader
//! may observe partition *p*'s half of a cross-partition commit without
//! partition *q*'s half if it pinned *q* first, and the cross-partition
//! long fork is admitted (`tests/partitioned.rs`).  SSI and BOCC still
//! reject cross-partition write skew: their read-set certification takes
//! the read shards' group locks.  A workload that needs one point-in-time
//! view over several keys should route them to one partition.
//!
//! # Recovery
//!
//! Each persistent shard stores its own commit marker.  A commit writing
//! two or more persistent shards carries the group redo record on each
//! batch, so a partition's torn commit is rolled forward by
//! [`replay_torn_suffix`](crate::recovery::replay_torn_suffix) over that
//! partition's shard backends.  Each shard's group then resumes at its
//! repaired marker
//! ([`restore_group_cts`](crate::context::StateContext::restore_group_cts)),
//! and the context's clock resumes past every marker
//! ([`resume_clock`](crate::recovery::resume_clock)).  After a crash a
//! commit is all-or-nothing within each partition; a commit that spans
//! partitions may survive on some partitions and not on others.
//!
//! # Choosing partition counts
//!
//! Partitions multiply the *commit locks* and, with per-shard backends,
//! the *persistence queues and fsyncs*.  A partition per storage device
//! (or per expected committer thread, when volatile) is the sweet spot;
//! more partitions than concurrent committers only add routing cost, and
//! transactions that straddle partitions pay the multi-lock path.  Routing
//! is cheapest when each transaction's keys stay on one partition, as in
//! per-area smart-meter updates or per-shard YCSB multi-gets.

use crate::context::Tx;
use crate::manager::TransactionManager;
use crate::table::common::{KeyType, TableHandle, TransactionalTable, TxParticipant, ValueType};
use crate::table::factory::Protocol;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use tsp_common::{Result, StateId, Timestamp};
use tsp_storage::StorageBackend;

// ---------------------------------------------------------------------
// Partitioners
// ---------------------------------------------------------------------

/// Maps keys to partitions.  Implementations must be pure: the same key
/// must always map to the same partition for a given partition count.
///
/// **On-disk stability.**  With persistent per-partition backends the
/// assignment is baked into which backend holds which key, so it must
/// also be stable across *process restarts, toolchain upgrades and
/// platforms* — recovery routes each key back to the partition whose
/// backend persisted it, and a drifted assignment silently makes
/// recovered data unreachable (reads route to the wrong, empty
/// partition) or misrouted (new writes land beside stale twins).  Do
/// not build partitioners on hashes whose algorithm is unspecified
/// (e.g. `DefaultHasher`, documented as free to change between Rust
/// releases); [`HashPartitioner`] uses a pinned FNV-1a for this reason.
pub trait Partitioner<K: ?Sized>: Send + Sync {
    /// The partition (`0..partitions`) owning `key`.
    fn partition_of(&self, key: &K, partitions: usize) -> usize;
}

/// 64-bit FNV-1a over the key's `Hash::hash` byte stream — a fixed,
/// explicitly versioned algorithm (offset basis `0xcbf29ce484222325`,
/// prime `0x100000001b3`), vendored so partition assignment can never
/// drift with the standard library's hasher.  Stability caveat: the
/// hashed byte stream is whatever the key's `Hash` impl feeds in, so
/// persistent deployments should stick to keys whose `Hash` is
/// layout-stable (integers, strings, byte arrays — the std impls write
/// their value bytes and are stable in practice).
struct Fnv1aHasher(u64);

impl Fnv1aHasher {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv1aHasher(Self::OFFSET_BASIS)
    }
}

impl Hasher for Fnv1aHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    // The default integer methods hash native-endian (and, for usize,
    // native-width) bytes; pin little-endian 64-bit forms so the
    // assignment is identical on every platform.
    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }

    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// Hash partitioner (the default): a pinned 64-bit FNV-1a of the key,
/// reduced modulo the partition count.  The algorithm is vendored (not
/// `DefaultHasher`, whose internals may change between Rust releases)
/// so the key→partition assignment is stable across processes,
/// toolchains and platforms — with persistent per-partition backends
/// the assignment is on-disk state (see [`Partitioner`]).  Spreads any
/// key type uniformly; use [`RangePartitioner`] when transactions touch
/// contiguous key runs that should stay on one partition.
#[derive(Clone, Copy, Debug, Default)]
pub struct HashPartitioner;

impl<K: Hash + ?Sized> Partitioner<K> for HashPartitioner {
    fn partition_of(&self, key: &K, partitions: usize) -> usize {
        let mut h = Fnv1aHasher::new();
        key.hash(&mut h);
        (h.finish() % partitions.max(1) as u64) as usize
    }
}

/// Range partitioner: `bounds` holds the partition split points in
/// ascending order (`bounds.len() == partitions - 1`); keys below
/// `bounds[0]` go to partition 0, keys in `[bounds[i-1], bounds[i])` to
/// partition `i`, and so on.  Keeps contiguous key runs — a smart meter's
/// area, a tenant's id range — on one partition so their transactions
/// stay single-partition.
#[derive(Clone, Debug)]
pub struct RangePartitioner<K> {
    bounds: Vec<K>,
}

impl<K: Ord> RangePartitioner<K> {
    /// Creates a range partitioner from ascending split points.
    pub fn new(mut bounds: Vec<K>) -> Self {
        bounds.sort();
        RangePartitioner { bounds }
    }
}

impl<K: Ord + Send + Sync> Partitioner<K> for RangePartitioner<K> {
    fn partition_of(&self, key: &K, partitions: usize) -> usize {
        self.bounds
            .partition_point(|b| b <= key)
            .min(partitions.saturating_sub(1))
    }
}

// ---------------------------------------------------------------------
// The partition-router table
// ---------------------------------------------------------------------

/// The partition router: a [`TransactionalTable`] whose keys are sharded
/// across N shard tables, each in a commit group of its own.  See the
/// module docs for the commit, read and recovery rules.
///
/// ```
/// use std::sync::Arc;
/// use tsp_core::prelude::*;
///
/// let ctx = Arc::new(StateContext::new());
/// let mgr = TransactionManager::new(ctx);
/// let table = PartitionedTable::<u64, u64>::new(&mgr, Protocol::Mvcc, "kv", 4, |_p| None);
///
/// let tx = mgr.begin().unwrap();
/// table.write(&tx, 7, 700).unwrap();   // routed to 7's partition
/// mgr.commit(&tx).unwrap();
///
/// let q = mgr.begin_read_only().unwrap();
/// assert_eq!(table.read(&q, &7).unwrap(), Some(700));
/// mgr.commit(&q).unwrap();
/// ```
pub struct PartitionedTable<K, V> {
    shards: Vec<TableHandle<K, V>>,
    partitioner: Arc<dyn Partitioner<K>>,
    facade_id: StateId,
    name: String,
}

impl<K: KeyType, V: ValueType> PartitionedTable<K, V> {
    /// Creates a table of `partitions` shards routed by
    /// [`HashPartitioner`] on `mgr`'s context.  `backend_for(p)` supplies
    /// shard `p`'s storage backend (`None` for a volatile shard);
    /// per-shard backends are what make persistence scale.
    pub fn new(
        mgr: &TransactionManager,
        protocol: Protocol,
        name: impl Into<String>,
        partitions: usize,
        backend_for: impl FnMut(usize) -> Option<Arc<dyn StorageBackend>>,
    ) -> Arc<Self> {
        Self::with_partitioner(
            mgr,
            protocol,
            name,
            partitions,
            backend_for,
            Arc::new(HashPartitioner),
        )
    }

    /// [`new`](Self::new) with an explicit [`Partitioner`].  Shard `p` is
    /// the table `"{name}.p{p}"`, registered with `mgr` in a commit group
    /// of its own; shards are created in partition order, so a restart
    /// that re-creates the same tables in the same order gets the same
    /// state ids back.
    pub fn with_partitioner(
        mgr: &TransactionManager,
        protocol: Protocol,
        name: impl Into<String>,
        partitions: usize,
        mut backend_for: impl FnMut(usize) -> Option<Arc<dyn StorageBackend>>,
        partitioner: Arc<dyn Partitioner<K>>,
    ) -> Arc<Self> {
        let ctx = mgr.context();
        let name = name.into();
        let shards = (0..partitions.max(1))
            .map(|p| {
                let shard =
                    protocol.create_table::<K, V>(ctx, format!("{name}.p{p}"), backend_for(p));
                mgr.register(Arc::clone(&shard).as_participant());
                mgr.register_group(&[shard.id()])
                    .expect("freshly registered shard state");
                shard
            })
            .collect();
        Arc::new(PartitionedTable {
            shards,
            partitioner,
            facade_id: ctx.register_state(&name),
            name,
        })
    }

    /// The partition owning `key`.
    pub fn partition_of(&self, key: &K) -> usize {
        self.partitioner
            .partition_of(key, self.shards.len())
            .min(self.shards.len() - 1)
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.shards.len()
    }

    /// Partition `p`'s shard table: its state id names the shard's commit
    /// group and recovery marker; also useful for per-shard GC or version
    /// counts.
    pub fn shard(&self, p: usize) -> &TableHandle<K, V> {
        &self.shards[p]
    }

    fn shard_of(&self, key: &K) -> &TableHandle<K, V> {
        &self.shards[self.partition_of(key)]
    }
}

impl<K: KeyType, V: ValueType> TxParticipant for PartitionedTable<K, V> {
    // The facade's own state is never accessed — every read and write is
    // recorded on a shard, and the shards are the registered participants
    // — so the manager never reaches these.  They behave sensibly for
    // direct callers.
    fn state_id(&self) -> StateId {
        self.facade_id
    }

    fn has_writes(&self, tx: &Tx) -> bool {
        self.shards.iter().any(|s| s.has_writes(tx))
    }

    fn validate(&self, _tx: &Tx, _txn_has_writes: bool) -> Result<()> {
        Ok(())
    }

    fn apply(&self, _tx: &Tx, _cts: Timestamp) -> Result<()> {
        Ok(())
    }

    fn finish(&self, _tx: &Tx, _committed: bool) {}
}

impl<K: KeyType, V: ValueType> TransactionalTable<K, V> for PartitionedTable<K, V> {
    fn read(&self, tx: &Tx, key: &K) -> Result<Option<V>> {
        self.shard_of(key).read(tx, key)
    }

    fn write(&self, tx: &Tx, key: K, value: V) -> Result<()> {
        self.shard_of(&key).write(tx, key, value)
    }

    fn delete(&self, tx: &Tx, key: K) -> Result<()> {
        self.shard_of(&key).delete(tx, key)
    }

    /// A whole-table scan touches every partition, pinning each shard's
    /// group at its first access (see the module docs).
    fn scan(&self, tx: &Tx) -> Result<BTreeMap<K, V>> {
        let mut out = BTreeMap::new();
        for shard in &self.shards {
            out.append(&mut shard.scan(tx)?);
        }
        Ok(out)
    }

    fn preload_iter(&self, rows: &mut dyn Iterator<Item = (K, V)>) -> Result<()> {
        let mut buckets: Vec<Vec<(K, V)>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (k, v) in rows {
            buckets[self.partition_of(&k)].push((k, v));
        }
        for (shard, bucket) in self.shards.iter().zip(buckets) {
            if !bucket.is_empty() {
                shard.preload_iter(&mut bucket.into_iter())?;
            }
        }
        Ok(())
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn as_participant(self: Arc<Self>) -> Arc<dyn TxParticipant> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::StateContext;
    use crate::table::common::TransactionalTableExt;
    use tsp_common::TspError;

    fn setup(
        partitions: usize,
        protocol: Protocol,
    ) -> (Arc<TransactionManager>, Arc<PartitionedTable<u64, u64>>) {
        let mgr = TransactionManager::new(Arc::new(StateContext::new()));
        let table = PartitionedTable::new(&mgr, protocol, "kv", partitions, |_| None);
        (mgr, table)
    }

    #[test]
    fn basic_read_write_roundtrip_all_protocols() {
        for protocol in Protocol::ALL {
            let (mgr, table) = setup(4, protocol);
            let tx = mgr.begin().unwrap();
            for k in 0..32u64 {
                table.write(&tx, k, k * 10).unwrap();
            }
            assert!(mgr.commit(&tx).unwrap().is_some());
            let q = mgr.begin_read_only().unwrap();
            for k in 0..32u64 {
                assert_eq!(table.read(&q, &k).unwrap(), Some(k * 10), "{protocol}");
            }
            mgr.commit(&q).unwrap();
        }
    }

    #[test]
    fn single_partition_txn_touches_one_partition() {
        let mgr = TransactionManager::new(Arc::new(StateContext::new()));
        let table = PartitionedTable::<u64, u64>::with_partitioner(
            &mgr,
            Protocol::Mvcc,
            "kv",
            4,
            |_| None,
            Arc::new(RangePartitioner::new(vec![100, 200, 300])),
        );
        let ctx = mgr.context();
        let tx = mgr.begin().unwrap();
        table.write(&tx, 150, 1).unwrap(); // partition 1
        table.write(&tx, 199, 2).unwrap(); // partition 1
                                           // Only partition 1's shard was accessed, so the commit's lock set
                                           // is that shard's group alone.
        let accessed: Vec<StateId> = ctx
            .accessed_states(&tx)
            .unwrap()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(accessed, vec![table.shard(1).id()]);
        let group = ctx.groups_of_state(table.shard(1).id());
        assert_eq!(group.len(), 1);
        let last_cts = |p: usize| {
            ctx.last_cts(ctx.groups_of_state(table.shard(p).id())[0])
                .unwrap()
        };
        let before: Vec<Timestamp> = (0..4).map(last_cts).collect();
        let cts = mgr.commit(&tx).unwrap().unwrap();
        for (p, before) in before.into_iter().enumerate() {
            let now = last_cts(p);
            let want = if p == 1 { cts } else { before };
            assert_eq!(now, want, "LastCTS of partition {p}");
        }
        assert_eq!(ctx.active_count(), 0, "slot leak");
    }

    #[test]
    fn cross_partition_commit_is_all_or_nothing_on_conflict() {
        let (mgr, table) = setup(2, Protocol::Mvcc);
        // Find keys on different partitions.
        let (a, b) = distinct_partition_keys(&table);
        let t1 = mgr.begin().unwrap();
        let t2 = mgr.begin().unwrap();
        table.write(&t1, a, 1).unwrap();
        table.write(&t1, b, 1).unwrap();
        table.write(&t2, a, 2).unwrap(); // conflicts with t1 on a's partition
        table.write(&t2, b, 2).unwrap();
        mgr.commit(&t1).unwrap();
        let err = mgr.commit(&t2).unwrap_err();
        assert!(err.is_retryable());
        // Nothing of t2 survived on either partition.
        let q = mgr.begin_read_only().unwrap();
        assert_eq!(table.read(&q, &a).unwrap(), Some(1));
        assert_eq!(table.read(&q, &b).unwrap(), Some(1));
        mgr.commit(&q).unwrap();
    }

    #[test]
    fn scan_unions_partitions_and_own_writes() {
        let (mgr, table) = setup(3, Protocol::Mvcc);
        table.preload((0..30u64).map(|k| (k, k))).unwrap();
        let tx = mgr.begin().unwrap();
        table.write(&tx, 100, 100).unwrap();
        table.delete(&tx, 3).unwrap();
        let snap = table.scan(&tx).unwrap();
        assert_eq!(snap.len(), 30); // 30 preloaded - 1 deleted + 1 written
        assert_eq!(snap.get(&100), Some(&100));
        assert!(!snap.contains_key(&3));
        mgr.abort(&tx).unwrap();
    }

    /// A storage backend whose `write_batch` always fails — simulates a
    /// dead device on one partition.
    struct FailingBackend;

    impl StorageBackend for FailingBackend {
        fn get(&self, _key: &[u8]) -> Result<Option<Vec<u8>>> {
            Ok(None)
        }
        fn put(&self, _key: &[u8], _value: &[u8]) -> Result<()> {
            Err(TspError::Io(std::io::Error::other("device failed")))
        }
        fn delete(&self, _key: &[u8]) -> Result<()> {
            Err(TspError::Io(std::io::Error::other("device failed")))
        }
        fn write_batch(&self, _batch: &tsp_storage::WriteBatch) -> Result<()> {
            Err(TspError::Io(std::io::Error::other("device failed")))
        }
        fn scan(&self, _visit: &mut dyn FnMut(&[u8], &[u8]) -> bool) -> Result<()> {
            Ok(())
        }
        fn len(&self) -> usize {
            0
        }
        fn sync(&self) -> Result<()> {
            Ok(())
        }
        fn name(&self) -> &'static str {
            "failing"
        }
    }

    /// A cross-partition commit whose later partition fails its durable
    /// hand-off must abort with nothing visible on *either* partition: the
    /// healthy partition applied and persisted first, but no group's
    /// `LastCTS` is published until every hand-off succeeded, so its
    /// versions are undone before any reader could see them.
    #[test]
    fn cross_partition_durable_failure_publishes_nothing() {
        let mgr = TransactionManager::new(Arc::new(StateContext::new()));
        let table = PartitionedTable::<u64, u64>::new(&mgr, Protocol::Mvcc, "kv", 2, |p| {
            (p == 1).then(|| Arc::new(FailingBackend) as Arc<dyn StorageBackend>)
        });
        // a on the healthy partition 0, b on the failing partition 1.
        let a = (0..10_000u64).find(|k| table.partition_of(k) == 0).unwrap();
        let b = (0..10_000u64).find(|k| table.partition_of(k) == 1).unwrap();
        let tx = mgr.begin().unwrap();
        table.write(&tx, a, 1).unwrap();
        table.write(&tx, b, 2).unwrap();
        assert!(mgr.commit(&tx).is_err());
        // Nothing became visible anywhere — commits everywhere or nowhere.
        let q = mgr.begin_read_only().unwrap();
        assert_eq!(table.read(&q, &a).unwrap(), None);
        assert_eq!(table.read(&q, &b).unwrap(), None);
        mgr.commit(&q).unwrap();
        // The healthy partition is fully functional afterwards.
        let tx = mgr.begin().unwrap();
        table.write(&tx, a, 3).unwrap();
        mgr.commit(&tx).unwrap();
        let q = mgr.begin_read_only().unwrap();
        assert_eq!(table.read(&q, &a).unwrap(), Some(3));
        mgr.commit(&q).unwrap();
    }

    /// The vendored FNV-1a must match the published reference vectors —
    /// partition assignment is on-disk state, so the algorithm may never
    /// drift.
    #[test]
    fn fnv1a_matches_reference_vectors() {
        fn fnv(bytes: &[u8]) -> u64 {
            let mut h = Fnv1aHasher::new();
            h.write(bytes);
            h.finish()
        }
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn partitioner_routes_stably() {
        let hp = HashPartitioner;
        for k in 0u64..1000 {
            let p1 = hp.partition_of(&k, 8);
            let p2 = hp.partition_of(&k, 8);
            assert_eq!(p1, p2);
            assert!(p1 < 8);
        }
        let rp = RangePartitioner::new(vec![10u64, 20]);
        assert_eq!(rp.partition_of(&5, 3), 0);
        assert_eq!(rp.partition_of(&10, 3), 1);
        assert_eq!(rp.partition_of(&25, 3), 2);
    }

    /// A reaped cross-partition zombie releases its one slot, and its
    /// writes never become visible on any partition.
    #[test]
    fn reaping_an_outer_transaction_frees_every_partition() {
        let (mgr, table) = setup(2, Protocol::Mvcc);
        let ctx = Arc::clone(mgr.context());
        ctx.set_transaction_lease(Some(std::time::Duration::from_millis(1)));
        let (a, b) = distinct_partition_keys(&table);
        let zombie = mgr.begin().unwrap();
        table.write(&zombie, a, 1).unwrap();
        table.write(&zombie, b, 2).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(mgr.reap_expired(), 1);
        assert_eq!(ctx.active_count(), 0, "slot leak");
        for p in 0..2 {
            assert!(
                !table.shard(p).has_writes(&zombie),
                "write set left on p{p}"
            );
        }
        // The zombie's late commit is fenced off, and nothing it wrote is
        // visible on either partition.
        assert!(matches!(
            mgr.commit(&zombie),
            Err(TspError::LeaseExpired { .. })
        ));
        let q = mgr.begin_read_only().unwrap();
        assert_eq!(table.read(&q, &a).unwrap(), None);
        assert_eq!(table.read(&q, &b).unwrap(), None);
        mgr.commit(&q).unwrap();
    }

    /// Two keys guaranteed to live on different partitions of a 2-way
    /// hash-partitioned table.
    fn distinct_partition_keys(table: &PartitionedTable<u64, u64>) -> (u64, u64) {
        let a = 0u64;
        let pa = table.partition_of(&a);
        for b in 1u64..10_000 {
            if table.partition_of(&b) != pa {
                return (a, b);
            }
        }
        panic!("hash partitioner never split 10k keys");
    }
}

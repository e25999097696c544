//! Isolation levels for ad-hoc reads.
//!
//! §3 of the paper notes that the `FROM` operator should offer "different
//! isolation levels \[that\] provide different levels of visibility".  The
//! default — and the level every other module of this crate implements — is
//! snapshot isolation: the first read pins the topology's `ReadCTS` and all
//! later reads of the transaction see exactly that snapshot.
//!
//! This module adds two relaxed read-only levels on top of [`MvccTable`]:
//!
//! * [`IsolationLevel::ReadCommitted`] — every access reads the *current*
//!   group `LastCTS` instead of a pinned one.  Individual reads only see
//!   committed data, but two reads of the same key within one query may
//!   observe different committed versions (non-repeatable reads).
//! * [`IsolationLevel::ReadUncommitted`] — reads the newest version installed
//!   in the MVCC objects even if the surrounding multi-state commit has not
//!   published its group `LastCTS` yet.  A reader may therefore observe one
//!   state of a group ahead of the other (the anomaly the consistency
//!   protocol of §4.3 exists to prevent) — useful only for monitoring or
//!   debugging views where staleness/teardown does not matter.
//!
//! Writes always run under snapshot isolation; the relaxed levels are
//! strictly read-side.

use crate::context::{StateContext, Tx};
use crate::table::{KeyType, MvccTable, ValueType};
use std::sync::Arc;
use tsp_common::{Result, Timestamp, TspError};

/// Visibility level for ad-hoc reads through an [`IsolatedReader`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum IsolationLevel {
    /// Newest installed version, published or not.  No consistency guarantee
    /// across states of a group.
    ReadUncommitted,
    /// Latest *published* committed version at the time of each access;
    /// non-repeatable reads are possible within one query.
    ReadCommitted,
    /// Pinned snapshot per transaction — the paper's protocol and the
    /// default everywhere else in this crate.
    #[default]
    SnapshotIsolation,
}

impl IsolationLevel {
    /// True if reads at this level may observe values that a concurrent
    /// multi-state commit has not published yet.
    pub fn allows_dirty_group_reads(self) -> bool {
        matches!(self, IsolationLevel::ReadUncommitted)
    }

    /// True if two reads of the same key inside one query may differ.
    pub fn allows_non_repeatable_reads(self) -> bool {
        !matches!(self, IsolationLevel::SnapshotIsolation)
    }
}

/// A read-only view over an [`MvccTable`] at a chosen [`IsolationLevel`].
pub struct IsolatedReader<K, V> {
    table: Arc<MvccTable<K, V>>,
    ctx: Arc<StateContext>,
    level: IsolationLevel,
}

impl<K: KeyType, V: ValueType> IsolatedReader<K, V> {
    /// Creates a reader over `table` at `level`.  The context must be the one
    /// the table was registered in.
    pub fn new(
        ctx: &Arc<StateContext>,
        table: Arc<MvccTable<K, V>>,
        level: IsolationLevel,
    ) -> Self {
        IsolatedReader {
            table,
            ctx: Arc::clone(ctx),
            level,
        }
    }

    /// The reader's isolation level.
    pub fn level(&self) -> IsolationLevel {
        self.level
    }

    /// The wrapped table.
    pub fn table(&self) -> &Arc<MvccTable<K, V>> {
        &self.table
    }

    /// The snapshot timestamp a read issued *right now* would use, or `None`
    /// for [`IsolationLevel::ReadUncommitted`] (which bypasses snapshots).
    pub fn current_snapshot(&self, tx: &Tx) -> Result<Option<Timestamp>> {
        match self.level {
            IsolationLevel::ReadUncommitted => Ok(None),
            IsolationLevel::ReadCommitted => Ok(Some(self.published_cts()?)),
            IsolationLevel::SnapshotIsolation => {
                Ok(Some(self.ctx.read_snapshot(tx, self.table.id())?))
            }
        }
    }

    /// Reads `key` at the reader's isolation level within `tx`.
    ///
    /// For [`IsolationLevel::SnapshotIsolation`] this is exactly
    /// [`MvccTable::read`]; the relaxed levels resolve their own snapshot per
    /// access as described in the module docs.
    pub fn read(&self, tx: &Tx, key: &K) -> Result<Option<V>> {
        match self.level {
            IsolationLevel::SnapshotIsolation => self.table.read(tx, key),
            IsolationLevel::ReadCommitted => {
                self.ctx.record_access(tx, self.table.id())?;
                let cts = self.published_cts()?;
                self.table.read_at(cts, key)
            }
            IsolationLevel::ReadUncommitted => {
                self.ctx.record_access(tx, self.table.id())?;
                self.table.latest_committed(key)
            }
        }
    }

    /// Reads several keys in one call, all at the same resolved snapshot for
    /// the relaxed levels (so a single multi-key report is at least
    /// internally consistent under read-committed).
    pub fn read_many(&self, tx: &Tx, keys: &[K]) -> Result<Vec<(K, Option<V>)>> {
        match self.level {
            IsolationLevel::SnapshotIsolation => keys
                .iter()
                .map(|k| self.table.read(tx, k).map(|v| (k.clone(), v)))
                .collect(),
            IsolationLevel::ReadCommitted => {
                self.ctx.record_access(tx, self.table.id())?;
                let cts = self.published_cts()?;
                keys.iter()
                    .map(|k| self.table.read_at(cts, k).map(|v| (k.clone(), v)))
                    .collect()
            }
            IsolationLevel::ReadUncommitted => {
                self.ctx.record_access(tx, self.table.id())?;
                keys.iter()
                    .map(|k| self.table.latest_committed(k).map(|v| (k.clone(), v)))
                    .collect()
            }
        }
    }

    /// The current published commit timestamp governing read-committed
    /// visibility for this table.  With multiple groups (a state shared by
    /// several stream queries) the *older* one wins — the same rule §4.3
    /// prescribes for overlapping topologies.
    fn published_cts(&self) -> Result<Timestamp> {
        let mut min = None::<Timestamp>;
        self.ctx
            .for_each_group_of_state(self.table.id(), |_, last_cts| {
                min = Some(min.map_or(last_cts, |m| m.min(last_cts)));
            });
        min.ok_or(TspError::UnknownGroup { group: 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::TransactionManager;
    use crate::table::TxParticipant;

    fn setup() -> (
        Arc<StateContext>,
        Arc<TransactionManager>,
        Arc<MvccTable<u32, String>>,
    ) {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let table = MvccTable::<u32, String>::volatile(&ctx, "iso");
        mgr.register(table.clone());
        mgr.register_group(&[table.id()]).unwrap();
        (ctx, mgr, table)
    }

    fn commit_value(mgr: &TransactionManager, table: &MvccTable<u32, String>, k: u32, v: &str) {
        let tx = mgr.begin().unwrap();
        table.write(&tx, k, v.to_string()).unwrap();
        mgr.commit(&tx).unwrap();
    }

    #[test]
    fn level_properties() {
        assert!(IsolationLevel::ReadUncommitted.allows_dirty_group_reads());
        assert!(!IsolationLevel::ReadCommitted.allows_dirty_group_reads());
        assert!(IsolationLevel::ReadCommitted.allows_non_repeatable_reads());
        assert!(!IsolationLevel::SnapshotIsolation.allows_non_repeatable_reads());
        assert_eq!(IsolationLevel::default(), IsolationLevel::SnapshotIsolation);
    }

    #[test]
    fn snapshot_isolation_repeats_reads() {
        let (ctx, mgr, table) = setup();
        commit_value(&mgr, &table, 1, "v1");
        let reader = IsolatedReader::new(&ctx, table.clone(), IsolationLevel::SnapshotIsolation);
        let q = mgr.begin_read_only().unwrap();
        assert_eq!(reader.read(&q, &1).unwrap(), Some("v1".into()));
        commit_value(&mgr, &table, 1, "v2");
        // Same query, same key: still the pinned snapshot.
        assert_eq!(reader.read(&q, &1).unwrap(), Some("v1".into()));
        assert!(reader.current_snapshot(&q).unwrap().is_some());
        mgr.commit(&q).unwrap();
    }

    #[test]
    fn read_committed_sees_later_commits_within_one_query() {
        let (ctx, mgr, table) = setup();
        commit_value(&mgr, &table, 1, "v1");
        let reader = IsolatedReader::new(&ctx, table.clone(), IsolationLevel::ReadCommitted);
        let q = mgr.begin_read_only().unwrap();
        assert_eq!(reader.read(&q, &1).unwrap(), Some("v1".into()));
        commit_value(&mgr, &table, 1, "v2");
        // Non-repeatable read: the second access sees the newer commit.
        assert_eq!(reader.read(&q, &1).unwrap(), Some("v2".into()));
        mgr.commit(&q).unwrap();
    }

    #[test]
    fn read_committed_never_sees_uncommitted_writes() {
        let (ctx, mgr, table) = setup();
        commit_value(&mgr, &table, 1, "committed");
        let reader = IsolatedReader::new(&ctx, table.clone(), IsolationLevel::ReadCommitted);
        let writer = mgr.begin().unwrap();
        table.write(&writer, 1, "uncommitted".into()).unwrap();
        let q = mgr.begin_read_only().unwrap();
        assert_eq!(reader.read(&q, &1).unwrap(), Some("committed".into()));
        mgr.commit(&q).unwrap();
        mgr.abort(&writer).unwrap();
    }

    #[test]
    fn read_uncommitted_sees_unpublished_group_state() {
        let (ctx, mgr, table) = setup();
        commit_value(&mgr, &table, 1, "old");

        // Manually drive a commit up to (but not including) the group
        // publication — the window the consistency protocol closes.
        let w = ctx.begin(false).unwrap();
        table
            .write(&w, 1, "installed-not-published".into())
            .unwrap();
        table.validate(&w, true).unwrap();
        let cts = ctx.clock().next_commit_ts();
        table.apply(&w, cts).unwrap();

        let ru = IsolatedReader::new(&ctx, table.clone(), IsolationLevel::ReadUncommitted);
        let rc = IsolatedReader::new(&ctx, table.clone(), IsolationLevel::ReadCommitted);
        let si = IsolatedReader::new(&ctx, table.clone(), IsolationLevel::SnapshotIsolation);

        let q = mgr.begin_read_only().unwrap();
        assert_eq!(
            ru.read(&q, &1).unwrap(),
            Some("installed-not-published".into())
        );
        assert_eq!(rc.read(&q, &1).unwrap(), Some("old".into()));
        assert_eq!(si.read(&q, &1).unwrap(), Some("old".into()));
        assert_eq!(ru.current_snapshot(&q).unwrap(), None);
        mgr.commit(&q).unwrap();

        // Finish the interrupted commit so the context stays clean.
        for g in ctx.groups_of_state(table.id()) {
            ctx.publish_group_commit(g, cts).unwrap();
        }
        table.finish(&w, true);
        ctx.finish(&w);
    }

    #[test]
    fn read_many_is_internally_consistent_under_read_committed() {
        let (ctx, mgr, table) = setup();
        commit_value(&mgr, &table, 1, "a1");
        commit_value(&mgr, &table, 2, "b1");
        let reader = IsolatedReader::new(&ctx, table.clone(), IsolationLevel::ReadCommitted);
        let q = mgr.begin_read_only().unwrap();
        let rows = reader.read_many(&q, &[1, 2, 3]).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], (1, Some("a1".into())));
        assert_eq!(rows[1], (2, Some("b1".into())));
        assert_eq!(rows[2], (3, None));
        mgr.commit(&q).unwrap();

        // Snapshot-isolation read_many goes through the pinned path.
        let si = IsolatedReader::new(&ctx, table.clone(), IsolationLevel::SnapshotIsolation);
        let q = mgr.begin_read_only().unwrap();
        assert_eq!(si.read_many(&q, &[1]).unwrap()[0], (1, Some("a1".into())));
        assert_eq!(si.level(), IsolationLevel::SnapshotIsolation);
        assert_eq!(si.table().id(), table.id());
        mgr.commit(&q).unwrap();
    }
}

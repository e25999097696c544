//! The multi-versioned transactional table — the paper's "table wrapper"
//! (§4.1) combined with the snapshot-isolation concurrency protocol (§4.2).
//!
//! A [`MvccTable`] is the [`Table`] skeleton over the multi-version store
//! ([`Versions`]) with the [`Mvcc`] policy.  Every key maps to an
//! [`MvccObject`] holding its version history;
//! uncommitted changes are buffered in per-transaction write sets and only
//! become visible when the commit installs them and the group's `LastCTS`
//! is published.
//!
//! The concurrency protocol implemented here:
//!
//! * **read** — serve from the transaction's own write set if present,
//!   otherwise look up the version visible at the transaction's pinned
//!   snapshot (`ReadCTS`), falling back to the base table for data that
//!   predates all in-memory versions (preloaded or recovered rows).
//! * **write/delete** — append to the transaction's write set ("Dirty
//!   Array"); writers never block readers and vice versa.  With
//!   [`ConflictCheck::Eager`] an overlap with a newer committed version
//!   aborts the writer immediately; the default checks at commit time.
//! * **commit** — validate First-Committer-Wins, install the new versions,
//!   persist the batch to the base table, and let the coordinator publish
//!   the group commit timestamp.
//! * **abort** — drop the write set; nothing else ever became visible.
//!
//! # The latch-free committed-read path
//!
//! `read` of a committed value acquires **no mutex and no read-write
//! latch** (debug builds prove it with [`crate::latch_probe`]):
//!
//! 1. [`StateContext::access_snapshot`] records the access and resolves the
//!    pinned snapshot from the slot's per-state snapshot cache — a hit for
//!    every state the transaction already touched, so a query alternating
//!    between states stays on the fast path (the first access of a state
//!    takes the slot mutex once, and announces the snapshot floor the
//!    version-reclaim protocol depends on — see `mvcc.rs`),
//! 2. the write-buffer probe is one atomic owner-tag load (the write sets
//!    live in [`SlotLocal`](crate::table::SlotLocal) storage),
//! 3. the MVCC policy's read hook is empty,
//! 4. the key resolves through a lock-free insert-only index
//!    (`objmap.rs`) that stores each object inline in its chain node, so
//!    the lookup borrows the object with no extra pointer hop and no
//!    refcount traffic, and
//! 5. `MvccObject::read_visible` scans seqlock-validated atomic version
//!    headers.
//!
//! [`StateContext::access_snapshot`]: crate::context::StateContext::access_snapshot

use crate::context::{StateContext, Tx};
use crate::mvcc::MvccObject;
use crate::table::common::{KeyType, ValueType};
use crate::table::objmap::DEFAULT_INDEX_BUCKETS;
use crate::table::skeleton::{Policy, Store, Table};
use crate::table::store::Versions;
use crate::telemetry::{AbortReason, Counter};
use tsp_common::{Result, Timestamp, TspError, NO_TS};

/// When the write-write conflict check runs (§4.2 discusses both choices;
/// the ablation bench compares them).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ConflictCheck {
    /// Check at commit time only (First-Committer-Wins) — the default, so
    /// writes never block or fail early.
    #[default]
    AtCommit,
    /// Additionally check on every buffered write, aborting the later writer
    /// as soon as the overlap is detected.
    Eager,
}

/// Tuning options for the multi-version store ([`MvccTable`],
/// [`SsiTable`](crate::table::SsiTable)).
#[derive(Clone, Debug)]
pub struct MvccTableOptions {
    /// Conflict-check timing.
    pub conflict_check: ConflictCheck,
    /// Buckets of the lock-free key → version-object index (rounded up to a
    /// power of two; the index never resizes).  Size roughly to the expected
    /// key count for ~O(1) chains.
    pub index_buckets: usize,
}

impl Default for MvccTableOptions {
    fn default() -> Self {
        MvccTableOptions {
            conflict_check: ConflictCheck::AtCommit,
            index_buckets: DEFAULT_INDEX_BUCKETS,
        }
    }
}

/// Snapshot isolation: no read rule, First-Committer-Wins at commit.
pub struct Mvcc<K, V> {
    store: Versions<K, V>,
}

/// A snapshot-isolated, multi-versioned transactional table.
pub type MvccTable<K, V> = Table<K, V, Mvcc<K, V>>;

impl<K: KeyType, V: ValueType> Policy<K, V> for Mvcc<K, V> {
    type Store = Versions<K, V>;

    fn new(ctx: &StateContext, opts: &MvccTableOptions) -> Self {
        Mvcc {
            store: Versions::new(ctx, opts),
        }
    }

    fn store(&self) -> &Versions<K, V> {
        &self.store
    }

    fn on_write(t: &MvccTable<K, V>, tx: &Tx, key: &K) -> Result<()> {
        t.eager_conflict_check(tx, key)
    }

    fn validate(t: &MvccTable<K, V>, tx: &Tx, _txn_has_writes: bool) -> Result<()> {
        t.first_committer_wins(tx)
    }
}

/// The operations of a table on the multi-version store, whatever its
/// policy.
impl<K: KeyType, V: ValueType, P: Policy<K, V, Store = Versions<K, V>>> Table<K, V, P> {
    /// With [`ConflictCheck::Eager`], aborts a write of `key` at once when
    /// a version newer than the transaction's begin already committed.
    pub(super) fn eager_conflict_check(&self, tx: &Tx, key: &K) -> Result<()> {
        if self.policy.store().conflict_check != ConflictCheck::Eager {
            return Ok(());
        }
        match self.policy.store().object(key) {
            Some(obj) if obj.newest_write_ts() > tx.begin_ts() => {
                self.ctx.telemetry().record_abort(AbortReason::FcwConflict);
                Err(TspError::WriteConflict {
                    txn: tx.id().as_u64(),
                    detail: format!("eager check on state '{}'", self.name),
                })
            }
            _ => Ok(()),
        }
    }

    /// First-Committer-Wins: if any key in the write set has a committed
    /// version newer than this transaction's *snapshot floor for this
    /// state* — the oldest snapshot it may have read through this state's
    /// groups, never newer than its begin timestamp — a concurrent
    /// transaction won the race and this one must abort (§4.2).
    ///
    /// The floor (rather than the begin timestamp alone) closes a
    /// lost-update window: a transaction can begin *after* a concurrent
    /// commit drew its timestamp but still pin the pre-commit snapshot,
    /// in which case its begin timestamp is newer than the version it never
    /// saw.  The floor is per-state so a stale pin on an unrelated,
    /// quiescent group does not spuriously abort updates here.
    ///
    /// Each key costs one header read: the newest write of an object is
    /// its live version's commit timestamp
    /// ([`MvccObject::newest_write_ts`]).
    pub(super) fn first_committer_wins(&self, tx: &Tx) -> Result<()> {
        // Writeless transactions (every ad-hoc reader) validate trivially:
        // probe the write buffer (one atomic load) before computing the
        // floor, which walks the slot mutex and the group registry.
        if !self.write_sets.has_writes(tx) {
            return Ok(());
        }
        let floor = self.ctx.state_snapshot_floor(tx, self.state_id)?;
        let conflict = self
            .write_sets
            .with(tx, |ws| {
                ws.keys().any(|k| self.newest_version_ts(k) > floor)
            })
            .unwrap_or(false);
        if conflict {
            self.ctx.telemetry().record_abort(AbortReason::FcwConflict);
            return Err(TspError::WriteConflict {
                txn: tx.id().as_u64(),
                detail: format!("first-committer-wins on state '{}'", self.name),
            });
        }
        Ok(())
    }

    /// Number of keys with in-memory version objects.
    pub fn versioned_key_count(&self) -> usize {
        self.policy.store().objects.len()
    }

    /// Number of versions currently stored for `key` (0 if no object).
    pub fn version_count(&self, key: &K) -> usize {
        self.policy
            .store()
            .object(key)
            .map(|o| o.version_count())
            .unwrap_or(0)
    }

    /// Version slots allocated for `key` (0 if no object): the two inline
    /// ones plus every level a slow reader made it link.
    pub fn allocated_slots(&self, key: &K) -> usize {
        self.policy
            .store()
            .object(key)
            .map_or(0, MvccObject::allocated_slots)
    }

    /// The newest timestamp at which `key` was written or deleted (0 if the
    /// key has no in-memory versions).  Latch-free.
    ///
    /// This is the primitive behind commit-time read validation: a
    /// transaction's read of `key` is still serializable at commit iff this
    /// value does not exceed the snapshot floor the read was served at —
    /// exactly the comparison [`crate::table::SsiTable`] performs for every
    /// key in a committing transaction's read set.  Base-table rows without
    /// in-memory versions predate every running transaction (preload or
    /// recovery) and therefore never conflict.
    pub fn newest_version_ts(&self, key: &K) -> Timestamp {
        self.policy
            .store()
            .object(key)
            .map(MvccObject::newest_write_ts)
            .unwrap_or(NO_TS)
    }

    /// Runs a garbage-collection sweep over every version object, reclaiming
    /// versions no longer visible to any active snapshot.  Returns the total
    /// number of versions reclaimed.
    ///
    /// The cached `oldest_active` pre-selects candidates; the reclaim
    /// protocol re-reads the announced floors per object (`_fresh`) inside
    /// its fence, as the latch-free readers require.
    pub fn gc(&self) -> usize {
        let oldest = self.ctx.oldest_active();
        let mut reclaimed = 0;
        self.policy.store().objects.for_each(|_, obj| {
            reclaimed += obj.gc_with(oldest, || self.ctx.oldest_active_fresh());
        });
        if reclaimed > 0 {
            self.ctx.telemetry().bump(Counter::GcRuns);
            self.ctx
                .telemetry()
                .add(Counter::GcReclaimed, reclaimed as u64);
        }
        reclaimed
    }

    /// Reads the version of `key` visible at an explicit snapshot timestamp,
    /// outside any transaction.
    ///
    /// This is the building block for the relaxed isolation levels of
    /// [`crate::isolation`]: a *read-committed* reader passes the group's
    /// current `LastCTS` on every access instead of pinning one snapshot.
    /// Because no transaction announces a snapshot floor for such reads,
    /// this path serialises against writers on the object latch rather than
    /// using the latch-free scan.
    pub fn read_at(&self, snapshot: Timestamp, key: &K) -> Result<Option<V>> {
        match self.policy.store().object(key) {
            Some(obj) if !obj.is_empty() => Ok(obj.read_visible_latched(snapshot)),
            _ => self.backend.get(key),
        }
    }

    /// The latest committed value of `key` regardless of any snapshot
    /// (diagnostics / non-transactional peeks).
    pub fn latest_committed(&self, key: &K) -> Result<Option<V>> {
        self.read_at(u64::MAX - 1, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::common::{TransactionalTable, TxParticipant, LAST_CTS_KEY};
    use std::sync::Arc;
    use tsp_storage::{BTreeBackend, Codec, StorageBackend};

    fn setup() -> (Arc<StateContext>, Arc<MvccTable<u32, String>>) {
        let ctx = Arc::new(StateContext::new());
        let table = MvccTable::volatile(&ctx, "t");
        let _g = ctx.register_group(&[table.id()]).unwrap();
        (ctx, table)
    }

    /// Commits a transaction against a single table the low-level way (the
    /// `TransactionManager` does this in production code).
    fn commit(ctx: &StateContext, table: &MvccTable<u32, String>, tx: &Tx) -> Timestamp {
        table.validate(tx, true).unwrap();
        let cts = ctx.clock().next_commit_ts();
        table.apply(tx, cts).unwrap();
        table.apply_durable(tx, cts).unwrap();
        for g in ctx.groups_of_state(table.id()) {
            ctx.publish_group_commit(g, cts).unwrap();
        }
        table.finish(tx, true);
        ctx.finish(tx);
        cts
    }

    #[test]
    fn read_your_own_writes_and_isolation_from_others() {
        let (ctx, table) = setup();
        let writer = ctx.begin(false).unwrap();
        table.write(&writer, 1, "w1".into()).unwrap();
        assert_eq!(table.read(&writer, &1).unwrap(), Some("w1".into()));
        assert!(table.has_writes(&writer));

        // A concurrent reader must not see the uncommitted write.
        let reader = ctx.begin(true).unwrap();
        assert_eq!(table.read(&reader, &1).unwrap(), None);
        ctx.finish(&reader);

        commit(&ctx, &table, &writer);

        // A new reader sees the committed value.
        let reader2 = ctx.begin(true).unwrap();
        assert_eq!(table.read(&reader2, &1).unwrap(), Some("w1".into()));
        ctx.finish(&reader2);
    }

    /// The acceptance check of the latch-free rework: a committed read
    /// acquires no mutex and no read-write latch.  `latch_probe` counts
    /// every latch acquisition of the version/table layer in debug builds.
    #[test]
    #[cfg(debug_assertions)]
    fn committed_read_path_is_latch_free() {
        let (ctx, table) = setup();
        let writer = ctx.begin(false).unwrap();
        table.write(&writer, 1, "committed".into()).unwrap();
        commit(&ctx, &table, &writer);

        let reader = ctx.begin(true).unwrap();
        // Warm the per-transaction fast path: the first read records the
        // access and pins the snapshot through the slot mutex (slow path).
        assert_eq!(table.read(&reader, &1).unwrap(), Some("committed".into()));
        let before = crate::latch_probe::latch_count();
        for _ in 0..1000 {
            assert_eq!(table.read(&reader, &1).unwrap(), Some("committed".into()));
            assert_eq!(table.read(&reader, &2).unwrap(), None);
        }
        assert_eq!(
            crate::latch_probe::latch_count(),
            before,
            "committed-read fast path acquired a latch"
        );
        ctx.finish(&reader);
    }

    /// The telemetry overhead guard: with the full instrumented commit
    /// pipeline live (the `TransactionManager` has recorded stage timings
    /// into this context's registry), the committed-read fast path must
    /// *still* acquire zero latches — proof that recording stayed off the
    /// read path, not just a code-review promise.
    #[test]
    #[cfg(debug_assertions)]
    fn committed_read_path_stays_latch_free_with_telemetry_enabled() {
        use crate::manager::TransactionManager;
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let table = MvccTable::<u32, String>::volatile(&ctx, "t");
        mgr.register(Arc::clone(&table) as Arc<dyn TxParticipant>);
        mgr.register_group(&[table.id()]).unwrap();

        // Commit through the instrumented pipeline so every stage histogram
        // has recordings before the reads run.
        for i in 0..8u32 {
            let tx = mgr.begin().unwrap();
            table.write(&tx, i, format!("v{i}")).unwrap();
            mgr.commit(&tx).unwrap();
        }
        let snap = ctx.telemetry_snapshot();
        assert!(snap.validate_nanos.count >= 8, "pipeline not instrumented?");
        assert!(snap.apply_nanos.count >= 8);

        let reader = mgr.begin_read_only().unwrap();
        // Warm the slot's snapshot cache (the one legitimate slow path).
        assert_eq!(table.read(&reader, &0).unwrap(), Some("v0".into()));
        let before = crate::latch_probe::latch_count();
        for _ in 0..1000 {
            for i in 0..8u32 {
                assert_eq!(table.read(&reader, &i).unwrap(), Some(format!("v{i}")));
            }
        }
        assert_eq!(
            crate::latch_probe::latch_count(),
            before,
            "telemetry recording leaked a latch onto the committed-read path"
        );
        mgr.commit(&reader).unwrap();
    }

    /// A query that switches state on every read (the §4.3 ad-hoc query
    /// reading measurements and local_state) stays latch-free once each
    /// state has been touched: the per-state snapshot cache serves both.
    #[test]
    #[cfg(debug_assertions)]
    fn alternating_two_state_reads_are_latch_free() {
        use crate::manager::TransactionManager;
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let a = MvccTable::<u32, String>::volatile(&ctx, "a");
        let b = MvccTable::<u32, String>::volatile(&ctx, "b");
        mgr.register(Arc::clone(&a) as Arc<dyn TxParticipant>);
        mgr.register(Arc::clone(&b) as Arc<dyn TxParticipant>);
        mgr.register_group(&[a.id(), b.id()]).unwrap();
        let w = mgr.begin().unwrap();
        a.write(&w, 1, "a1".into()).unwrap();
        b.write(&w, 1, "b1".into()).unwrap();
        mgr.commit(&w).unwrap();

        let reader = mgr.begin_read_only().unwrap();
        // Warm both states of the group (the one legitimate slow path each).
        assert_eq!(a.read(&reader, &1).unwrap(), Some("a1".into()));
        assert_eq!(b.read(&reader, &1).unwrap(), Some("b1".into()));
        let before = crate::latch_probe::latch_count();
        for i in 0..1000 {
            if i % 2 == 0 {
                assert_eq!(a.read(&reader, &1).unwrap(), Some("a1".into()));
            } else {
                assert_eq!(b.read(&reader, &1).unwrap(), Some("b1".into()));
            }
        }
        assert_eq!(
            crate::latch_probe::latch_count(),
            before,
            "alternating-state reads left the snapshot-cache fast path"
        );
        mgr.commit(&reader).unwrap();
    }

    #[test]
    fn snapshot_is_stable_across_later_commits() {
        let (ctx, table) = setup();
        let w1 = ctx.begin(false).unwrap();
        table.write(&w1, 1, "old".into()).unwrap();
        commit(&ctx, &table, &w1);

        // Reader pins its snapshot before the second commit.
        let reader = ctx.begin(true).unwrap();
        assert_eq!(table.read(&reader, &1).unwrap(), Some("old".into()));

        let w2 = ctx.begin(false).unwrap();
        table.write(&w2, 1, "new".into()).unwrap();
        commit(&ctx, &table, &w2);

        // The old snapshot still sees the old value; a fresh one sees the new.
        assert_eq!(table.read(&reader, &1).unwrap(), Some("old".into()));
        ctx.finish(&reader);
        let fresh = ctx.begin(true).unwrap();
        assert_eq!(table.read(&fresh, &1).unwrap(), Some("new".into()));
        ctx.finish(&fresh);
    }

    #[test]
    fn delete_respects_snapshots() {
        let (ctx, table) = setup();
        let w1 = ctx.begin(false).unwrap();
        table.write(&w1, 5, "v".into()).unwrap();
        commit(&ctx, &table, &w1);

        let old_reader = ctx.begin(true).unwrap();
        assert_eq!(table.read(&old_reader, &5).unwrap(), Some("v".into()));

        let deleter = ctx.begin(false).unwrap();
        table.delete(&deleter, 5).unwrap();
        assert_eq!(
            table.read(&deleter, &5).unwrap(),
            None,
            "own delete visible"
        );
        commit(&ctx, &table, &deleter);

        assert_eq!(table.read(&old_reader, &5).unwrap(), Some("v".into()));
        ctx.finish(&old_reader);
        let fresh = ctx.begin(true).unwrap();
        assert_eq!(table.read(&fresh, &5).unwrap(), None);
        ctx.finish(&fresh);
    }

    #[test]
    fn first_committer_wins_conflict() {
        let (ctx, table) = setup();
        let t1 = ctx.begin(false).unwrap();
        let t2 = ctx.begin(false).unwrap();
        table.write(&t1, 9, "t1".into()).unwrap();
        table.write(&t2, 9, "t2".into()).unwrap();
        // t1 commits first.
        commit(&ctx, &table, &t1);
        // t2 must fail the FCW check.
        let err = table.validate(&t2, true).unwrap_err();
        assert!(matches!(err, TspError::WriteConflict { .. }));
        table.finish(&t2, false);
        ctx.finish(&t2);
        assert_eq!(ctx.telemetry_snapshot().stats.write_conflicts, 1);
        // The winner's value survives.
        let r = ctx.begin(true).unwrap();
        assert_eq!(table.read(&r, &9).unwrap(), Some("t1".into()));
        ctx.finish(&r);
    }

    #[test]
    fn disjoint_writers_do_not_conflict() {
        let (ctx, table) = setup();
        let t1 = ctx.begin(false).unwrap();
        let t2 = ctx.begin(false).unwrap();
        table.write(&t1, 1, "a".into()).unwrap();
        table.write(&t2, 2, "b".into()).unwrap();
        commit(&ctx, &table, &t1);
        assert!(table.validate(&t2, true).is_ok());
        commit(&ctx, &table, &t2);
        let r = ctx.begin(true).unwrap();
        assert_eq!(table.read(&r, &1).unwrap(), Some("a".into()));
        assert_eq!(table.read(&r, &2).unwrap(), Some("b".into()));
        ctx.finish(&r);
    }

    #[test]
    fn eager_conflict_check_aborts_on_write() {
        let ctx = Arc::new(StateContext::new());
        let table = MvccTable::<u32, String>::with_options(
            &ctx,
            "eager",
            None,
            MvccTableOptions {
                conflict_check: ConflictCheck::Eager,
                ..Default::default()
            },
        );
        ctx.register_group(&[table.id()]).unwrap();
        let t1 = ctx.begin(false).unwrap();
        table.write(&t1, 1, "x".into()).unwrap();
        table.validate(&t1, true).unwrap();
        let cts = ctx.clock().next_commit_ts();
        table.apply(&t1, cts).unwrap();
        table.finish(&t1, true);
        ctx.finish(&t1);
        // A transaction that began before that commit now tries to write the
        // same key: the eager check rejects it at write() time already.
        let t2 = ctx.begin(false).unwrap();
        // t2 began after the commit, so no conflict for it …
        table.write(&t2, 1, "y".into()).unwrap();
        table.finish(&t2, false);
        ctx.finish(&t2);
        // … but a transaction whose begin predates the commit is rejected.
        let t3 = ctx.begin(false).unwrap();
        let t4 = ctx.begin(false).unwrap();
        table.write(&t3, 2, "a".into()).unwrap();
        table.validate(&t3, true).unwrap();
        let cts = ctx.clock().next_commit_ts();
        table.apply(&t3, cts).unwrap();
        table.finish(&t3, true);
        ctx.finish(&t3);
        let err = table.write(&t4, 2, "b".into()).unwrap_err();
        assert!(matches!(err, TspError::WriteConflict { .. }));
        ctx.finish(&t4);
    }

    #[test]
    fn rollback_discards_writes() {
        let (ctx, table) = setup();
        let t = ctx.begin(false).unwrap();
        table.write(&t, 3, "temp".into()).unwrap();
        table.finish(&t, false);
        ctx.finish(&t);
        let r = ctx.begin(true).unwrap();
        assert_eq!(table.read(&r, &3).unwrap(), None);
        ctx.finish(&r);
        assert!(!table.has_writes(&t));
    }

    #[test]
    fn stale_pin_on_unrelated_group_does_not_abort_commits() {
        // Regression: the FCW floor must be per-state.  A transaction that
        // pinned a stale snapshot on a quiescent group must still be able to
        // update a busy, unrelated group whose data it read fresh.
        let ctx = Arc::new(StateContext::new());
        let quiet = MvccTable::<u32, String>::volatile(&ctx, "quiet");
        let busy = MvccTable::<u32, String>::volatile(&ctx, "busy");
        ctx.register_group(&[quiet.id()]).unwrap();
        ctx.register_group(&[busy.id()]).unwrap();

        // Make the busy group's key carry a recent version.
        let seed = ctx.begin(false).unwrap();
        busy.write(&seed, 1, "v1".into()).unwrap();
        commit(&ctx, &busy, &seed);

        // The cross-group transaction reads the quiet group first (pinning
        // its stale epoch LastCTS), then reads the busy key fresh and
        // updates it.  With a transaction-global floor this would conflict
        // against the version it just read; per-state it must commit.
        let tx = ctx.begin(false).unwrap();
        assert_eq!(quiet.read(&tx, &9).unwrap(), None);
        assert_eq!(busy.read(&tx, &1).unwrap(), Some("v1".into()));
        busy.write(&tx, 1, "v2".into()).unwrap();
        busy.validate(&tx, true)
            .expect("no conflict: the busy read was fresh");
        let cts = ctx.clock().next_commit_ts();
        busy.apply(&tx, cts).unwrap();
        for g in ctx.groups_of_state(busy.id()) {
            ctx.publish_group_commit(g, cts).unwrap();
        }
        busy.finish(&tx, true);
        quiet.finish(&tx, true);
        ctx.finish(&tx);

        let r = ctx.begin(true).unwrap();
        assert_eq!(busy.read(&r, &1).unwrap(), Some("v2".into()));
        ctx.finish(&r);
    }

    #[test]
    fn persistent_table_reads_fall_through_to_base_table() {
        let ctx = Arc::new(StateContext::new());
        let backend = Arc::new(BTreeBackend::new());
        let table = MvccTable::<u32, String>::persistent(&ctx, "p", backend.clone());
        ctx.register_group(&[table.id()]).unwrap();
        table
            .preload((0..100u32).map(|i| (i, format!("pre{i}"))))
            .unwrap();
        assert!(table.is_persistent());
        assert_eq!(
            table.versioned_key_count(),
            0,
            "preload goes to the base table"
        );
        let r = ctx.begin(true).unwrap();
        assert_eq!(table.read(&r, &7).unwrap(), Some("pre7".into()));
        assert_eq!(table.read(&r, &1000).unwrap(), None);
        ctx.finish(&r);
    }

    #[test]
    fn promotion_keeps_old_snapshot_of_preloaded_row() {
        let ctx = Arc::new(StateContext::new());
        let backend = Arc::new(BTreeBackend::new());
        let table = MvccTable::<u32, String>::persistent(&ctx, "p", backend);
        ctx.register_group(&[table.id()]).unwrap();
        table.preload([(1u32, "preloaded".to_string())]).unwrap();

        // Reader pins its snapshot before the update commits.
        let old_reader = ctx.begin(true).unwrap();
        assert_eq!(
            table.read(&old_reader, &1).unwrap(),
            Some("preloaded".into())
        );

        let w = ctx.begin(false).unwrap();
        table.write(&w, 1, "updated".into()).unwrap();
        table.validate(&w, true).unwrap();
        let cts = ctx.clock().next_commit_ts();
        table.apply(&w, cts).unwrap();
        table.apply_durable(&w, cts).unwrap();
        for g in ctx.groups_of_state(table.id()) {
            ctx.publish_group_commit(g, cts).unwrap();
        }
        table.finish(&w, true);
        ctx.finish(&w);

        // The old reader still sees the preloaded row (promoted to an
        // epoch-timestamped version during the update's apply).
        assert_eq!(
            table.read(&old_reader, &1).unwrap(),
            Some("preloaded".into())
        );
        ctx.finish(&old_reader);
        let fresh = ctx.begin(true).unwrap();
        assert_eq!(table.read(&fresh, &1).unwrap(), Some("updated".into()));
        ctx.finish(&fresh);
    }

    #[test]
    fn persistent_commit_writes_base_table_and_marker() {
        let ctx = Arc::new(StateContext::new());
        let backend = Arc::new(BTreeBackend::new());
        let table = MvccTable::<u32, String>::persistent(&ctx, "p", backend.clone());
        ctx.register_group(&[table.id()]).unwrap();
        let t = ctx.begin(false).unwrap();
        table.write(&t, 11, "durable".into()).unwrap();
        table.validate(&t, true).unwrap();
        let cts = ctx.clock().next_commit_ts();
        table.apply(&t, cts).unwrap();
        table.apply_durable(&t, cts).unwrap();
        table.finish(&t, true);
        ctx.finish(&t);
        assert_eq!(
            backend.get(&11u32.encode()).unwrap(),
            Some("durable".to_string().encode())
        );
        assert_eq!(backend.get(LAST_CTS_KEY).unwrap(), Some(cts.encode()));
    }

    #[test]
    fn scan_reflects_snapshot_and_own_writes() {
        let (ctx, table) = setup();
        let w = ctx.begin(false).unwrap();
        table.write(&w, 1, "one".into()).unwrap();
        table.write(&w, 2, "two".into()).unwrap();
        commit(&ctx, &table, &w);

        let t = ctx.begin(false).unwrap();
        table.write(&t, 3, "three".into()).unwrap();
        table.delete(&t, 1).unwrap();
        let snap = table.scan(&t).unwrap();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.get(&2), Some(&"two".to_string()));
        assert_eq!(snap.get(&3), Some(&"three".to_string()));
        table.finish(&t, false);
        ctx.finish(&t);

        // Another transaction never saw t's uncommitted changes.
        let r = ctx.begin(true).unwrap();
        let snap = table.scan(&r).unwrap();
        assert_eq!(snap.len(), 2);
        assert!(snap.contains_key(&1));
        ctx.finish(&r);
    }

    #[test]
    fn gc_reclaims_superseded_versions() {
        let (ctx, table) = setup();
        // A reader pinned across the writes keeps the installs' on-demand
        // GC from reclaiming the superseded versions first.
        let pinned = ctx.begin(true).unwrap();
        for i in 0..5 {
            let w = ctx.begin(false).unwrap();
            table.write(&w, 1, format!("v{i}")).unwrap();
            commit(&ctx, &table, &w);
        }
        assert_eq!(table.version_count(&1), 5);
        ctx.finish(&pinned);
        let reclaimed = table.gc();
        assert_eq!(reclaimed, 4, "only the live version must remain");
        assert_eq!(table.version_count(&1), 1);
        assert_eq!(table.latest_committed(&1).unwrap(), Some("v4".into()));
        assert!(ctx.telemetry_snapshot().stats.gc_reclaimed >= 4);
    }

    #[test]
    fn version_count_and_key_count_reporting() {
        let (ctx, table) = setup();
        assert_eq!(table.versioned_key_count(), 0);
        assert_eq!(table.version_count(&1), 0);
        let w = ctx.begin(false).unwrap();
        table.write(&w, 1, "x".into()).unwrap();
        table.write(&w, 2, "y".into()).unwrap();
        commit(&ctx, &table, &w);
        assert_eq!(table.versioned_key_count(), 2);
        assert_eq!(table.version_count(&1), 1);
        assert_eq!(table.name(), "t");
        assert_eq!(TransactionalTable::name(&*table), "t");
    }
}

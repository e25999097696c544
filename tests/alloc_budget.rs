//! Heap allocations on the commit path and the committed-read path,
//! counted on the thread that runs the transaction.
//!
//! A warm engine keeps its per-transaction buffers — write sets, the
//! participant list, durable batches, redo sections — in the transaction
//! slot or the persistence writer, so a commit allocates at most a small
//! constant that does not grow with its writes or its states, and a
//! committed read-only query allocates nothing.  The counting allocator
//! below keeps one counter per thread, so the `BatchWriter` threads (whose
//! memtable inserts are the expected remainder) and other tests running in
//! parallel do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::Arc;
use tsp::core::prelude::*;
use tsp::storage::{LsmOptions, LsmStore};

/// Counts allocation calls (`alloc`, `alloc_zeroed`, `realloc`) per thread.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the counter may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell` without a destructor, so touching
// it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocation calls `f` makes on the current thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Most allocations a warm two-state commit may make on its thread.
const COMMIT_BUDGET: u64 = 4;

/// Keys preloaded per state; commits write a prefix of them.
const KEYS: u32 = 1_000;

/// `states` persistent MVCC tables over `LsmStore`s with asynchronous
/// persistence, registered as one group — the shape of the paper's
/// Figure 1 query.
struct Engine {
    mgr: Arc<TransactionManager>,
    tables: Vec<Arc<MvccTable<u32, (u64, u64)>>>,
    dir: PathBuf,
}

impl Engine {
    fn new(name: &str, states: usize) -> Engine {
        let dir = std::env::temp_dir().join(format!("tsp-alloc-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = Arc::new(StateContext::new());
        ctx.enable_async_persistence();
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let tables: Vec<_> = (0..states)
            .map(|i| {
                // No flush or compaction during the test: the store's
                // memtable stays in memory.
                let opts = LsmOptions::no_sync().with_memtable_budget(256 << 20);
                let store = LsmStore::open(dir.join(format!("state-{i}")), opts).unwrap();
                let table = MvccTable::persistent(&ctx, format!("state-{i}"), Arc::new(store));
                table.preload((0..KEYS).map(|k| (k, (0, 0)))).unwrap();
                mgr.register(table.clone());
                table
            })
            .collect();
        let ids: Vec<_> = tables.iter().map(|t| t.id()).collect();
        mgr.register_group(&ids).unwrap();
        Engine { mgr, tables, dir }
    }

    /// One read-modify-write commit of keys `0..writes` in every state.
    fn commit(&self, writes: u32) {
        let tx = self.mgr.begin().unwrap();
        for table in &self.tables {
            for k in 0..writes {
                let (n, sum) = table.read(&tx, &k).unwrap().unwrap_or_default();
                table.write(&tx, k, (n + 1, sum + u64::from(k))).unwrap();
            }
        }
        assert!(self.mgr.commit(&tx).unwrap().is_some());
    }

    /// Allocations of one warm commit of `writes` keys per state: the
    /// largest count over a few commits after as many warm-up ones.  Each
    /// commit starts once the previous one is durable, so the writers have
    /// pooled its batch buffers again and every batch deletes the same
    /// number of dead redo records.
    fn commit_allocations(&self, writes: u32) -> u64 {
        let durable_commit = || {
            self.mgr.flush().unwrap();
            allocations(|| self.commit(writes))
        };
        (0..20).for_each(|_| {
            durable_commit();
        });
        (0..5).map(|_| durable_commit()).max().unwrap()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        let _ = self.mgr.flush();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn a_warm_two_state_commit_stays_within_budget() {
    let engine = Engine::new("two-states", 2);
    let n = engine.commit_allocations(100);
    assert!(
        n <= COMMIT_BUDGET,
        "a warm two-state commit made {n} allocations (budget {COMMIT_BUDGET})"
    );
}

#[test]
fn commit_allocations_do_not_grow_with_writes_or_states() {
    let two = Engine::new("flat-two", 2);
    let (hundred, thousand) = (two.commit_allocations(100), two.commit_allocations(1_000));
    assert_eq!(hundred, thousand, "100 vs 1,000 writes per state");
    let four = Engine::new("flat-four", 4);
    let four_states = four.commit_allocations(100);
    assert_eq!(hundred, four_states, "2 vs 4 persistent states");
}

#[test]
fn a_committed_read_only_query_allocates_nothing() {
    let engine = Engine::new("reads", 2);
    for _ in 0..10 {
        engine.commit(50);
    }
    // 10 point reads per state: keys with in-memory versions and keys
    // only the base table holds.
    let query = || {
        let tx = engine.mgr.begin_read_only().unwrap();
        for table in &engine.tables {
            for k in (0..KEYS).step_by(100) {
                assert!(table.read(&tx, &k).unwrap().is_some());
            }
        }
        assert_eq!(engine.mgr.commit(&tx).unwrap(), None);
    };
    for _ in 0..3 {
        query();
    }
    let n = allocations(query);
    assert_eq!(n, 0, "a committed 20-read query made {n} allocations");
}

/// Allocations of one warm read-modify-write commit of keys `0..writes` in
/// each of two volatile `protocol` states built by the factory, registered
/// as one group or, with `group_per_state`, as one group each: the largest
/// count over a few commits after as many warm-up ones.
fn protocol_commit_allocations(protocol: Protocol, writes: u32, group_per_state: bool) -> u64 {
    let ctx = Arc::new(StateContext::new());
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let tables: Vec<TableHandle<u32, (u64, u64)>> = (0..2)
        .map(|i| {
            let table = protocol.create_table(&ctx, format!("state-{i}"), None);
            mgr.register(Arc::clone(&table).as_participant());
            table
        })
        .collect();
    let ids: Vec<_> = tables.iter().map(|t| t.id()).collect();
    if group_per_state {
        for id in ids {
            mgr.register_group(&[id]).unwrap();
        }
    } else {
        mgr.register_group(&ids).unwrap();
    }
    let commit = || {
        let tx = mgr.begin().unwrap();
        for table in &tables {
            for k in 0..writes {
                let (n, sum) = table.read(&tx, &k).unwrap().unwrap_or_default();
                table.write(&tx, k, (n + 1, sum + u64::from(k))).unwrap();
            }
        }
        assert!(mgr.commit(&tx).unwrap().is_some());
    };
    (0..20).for_each(|_| commit());
    (0..5).map(|_| allocations(commit)).max().unwrap()
}

/// The four protocols, each with the allocations a warm volatile commit of
/// two states may make: MVCC, SSI and S2PL commit without allocating; BOCC
/// allocates only the one commit-log record per state that backward
/// validation keeps.
const VOLATILE_BUDGETS: [(Protocol, u64); 4] = [
    (Protocol::Mvcc, 0),
    (Protocol::Ssi, 0),
    (Protocol::S2pl, 0),
    (Protocol::Bocc, 2),
];

#[test]
fn a_warm_volatile_commit_allocates_only_what_its_protocol_keeps() {
    for (protocol, budget) in VOLATILE_BUDGETS {
        let ten = protocol_commit_allocations(protocol, 10, false);
        let thousand = protocol_commit_allocations(protocol, 1_000, false);
        assert!(
            ten <= budget,
            "{protocol}: a warm two-state commit made {ten} allocations (budget {budget})"
        );
        assert_eq!(ten, thousand, "{protocol}: 10 vs 1,000 writes per state");
    }
}

/// A commit across two groups takes both groups' commit locks in ascending
/// order, and collecting and holding them allocates nothing: the budgets of
/// the one-group commit hold.
#[test]
fn a_warm_commit_across_two_groups_allocates_like_one_group() {
    for (protocol, budget) in VOLATILE_BUDGETS {
        let n = protocol_commit_allocations(protocol, 10, true);
        assert!(
            n <= budget,
            "{protocol}: a warm commit over two groups made {n} allocations (budget {budget})"
        );
    }
}

/// An MVCC table of `(u64, u64)` values, the shape of a meter state.
type MeterTable = MvccTable<u32, (u64, u64)>;

/// A volatile [`MeterTable`] over one group, and its manager.
fn volatile_mvcc(name: &str) -> (Arc<TransactionManager>, Arc<MeterTable>) {
    let ctx = Arc::new(StateContext::new());
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let table = MvccTable::volatile(&ctx, name);
    mgr.register(table.clone());
    mgr.register_group(&[table.id()]).unwrap();
    (mgr, table)
}

/// Commits `(round, k)` to every key in `keys`; returns the commit
/// timestamp.
fn write_keys(
    mgr: &TransactionManager,
    table: &MeterTable,
    keys: impl IntoIterator<Item = u32>,
    round: u64,
) -> u64 {
    let tx = mgr.begin().unwrap();
    for k in keys {
        table.write(&tx, k, (round, u64::from(k))).unwrap();
    }
    mgr.commit(&tx)
        .unwrap()
        .expect("a writing commit has a timestamp")
}

/// A key's first versions live inside its version object, and the object
/// inside its index node, which the index carves from chunks it owns: a
/// commit of 1,000 fresh keys takes arena slots, not an allocation per key.
#[test]
fn a_commit_of_fresh_keys_takes_arena_slots_not_allocations() {
    const N: u32 = 1_000;
    let (mgr, table) = volatile_mvcc("fresh");
    // Warm the write set with as many keys.
    for round in 0..3 {
        write_keys(&mgr, &table, 0..N, round);
    }
    let n = allocations(|| {
        write_keys(&mgr, &table, N..2 * N, 0);
    });
    assert!(n <= 4, "a commit of {N} fresh keys made {n} allocations");
}

/// With a reader pinned, the round that overflows every key's two inline
/// slots links one level per key, and each level is one allocation.
#[test]
fn linking_a_level_is_one_allocation() {
    const KEYS: u32 = 10_000;
    let (mgr, table) = volatile_mvcc("level");
    write_keys(&mgr, &table, 0..KEYS, 0);
    let reader = mgr.begin_read_only().unwrap();
    assert_eq!(table.read(&reader, &0).unwrap(), Some((0, 0)));
    write_keys(&mgr, &table, 0..KEYS, 1);
    assert!((0..KEYS).all(|k| table.allocated_slots(&k) == 2));
    let n = allocations(|| {
        write_keys(&mgr, &table, 0..KEYS, 2);
    });
    assert!((0..KEYS).all(|k| table.allocated_slots(&k) == 4));
    assert!(
        n <= u64::from(KEYS) + 8,
        "linking a level for each of {KEYS} keys made {n} allocations"
    );
    assert_eq!(table.read(&reader, &7).unwrap(), Some((0, 7)));
    assert_eq!(mgr.commit(&reader).unwrap(), None);
}

/// A read-only transaction pinned while every key takes 1 to 6 more
/// versions: every version stays readable at its snapshot, and each key's
/// storage grows by doubling levels — at most twice the versions it holds.
/// Once the reader is gone and GC has run, each key holds one version
/// again and its next install allocates nothing.
#[test]
fn a_pinned_reader_costs_each_key_at_most_twice_its_versions() {
    const KEYS: u32 = 10_000;
    let (mgr, table) = volatile_mvcc("pinned");
    let extra = |k: u32| u64::from(k % 6) + 1;
    let first = write_keys(&mgr, &table, 0..KEYS, 0);
    let reader = mgr.begin_read_only().unwrap();
    assert_eq!(table.read(&reader, &0).unwrap(), Some((0, 0)));
    let rounds: Vec<u64> = (1..=6)
        .map(|round| {
            write_keys(
                &mgr,
                &table,
                (0..KEYS).filter(|k| extra(*k) >= round),
                round,
            )
        })
        .collect();
    for k in 0..KEYS {
        let versions = table.version_count(&k);
        assert_eq!(versions as u64, 1 + extra(k), "key {k}");
        let slots = table.allocated_slots(&k);
        assert!(
            slots <= 2.max(2 * versions),
            "key {k}: {slots} slots for {versions} versions"
        );
        assert_eq!(table.read(&reader, &k).unwrap(), Some((0, u64::from(k))));
        assert_eq!(table.read_at(first, &k).unwrap(), Some((0, u64::from(k))));
        for (round, cts) in (1..).zip(&rounds) {
            let expected = (extra(k).min(round), u64::from(k));
            assert_eq!(table.read_at(*cts, &k).unwrap(), Some(expected), "key {k}");
        }
    }
    assert_eq!(mgr.commit(&reader).unwrap(), None);
    table.gc();
    assert!((0..KEYS).all(|k| table.version_count(&k) == 1));
    // Warm the write set for single-key commits.
    for _ in 0..3 {
        write_keys(&mgr, &table, [0], 7);
    }
    let n = allocations(|| {
        for k in 0..KEYS {
            write_keys(&mgr, &table, [k], 8);
        }
    });
    assert_eq!(n, 0, "installs after the reader left made {n} allocations");
}

//! Zombie-client chaos suite for transaction leases and the epoch-fenced
//! reaper: clients that `mem::forget` their transaction or panic mid-flight
//! must not wedge GC, S2PL locks, or the slot table — and with leases
//! disabled the engine must behave exactly as it always has (zombies stay
//! put until an explicit abort).
//!
//! Every test draws its randomness from one seed — `TSP_CHAOS_SEED` when
//! set, a fixed default otherwise — so a CI failure reproduces locally by
//! exporting the seed the job printed.

// `Tx` deliberately has no `Drop` impl (the handle is plain data; cleanup
// belongs to commit/abort/TxGuard), so `mem::forget` is how a test spells
// "this client abandoned its transaction".
#![allow(clippy::forget_non_drop)]

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tsp::common::TspError;
use tsp::core::prelude::*;

fn chaos_seed() -> u64 {
    std::env::var("TSP_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xDEAD_C11E)
}

/// Small deterministic xorshift64* — the same generator the other chaos
/// suites use, so one seed drives every decision point.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn chance(&mut self, p_percent: u64) -> bool {
        self.next() % 100 < p_percent
    }
}

const ZOMBIES: usize = 6;
const CAPACITY: usize = 8;

fn setup(protocol: Protocol) -> (Arc<TransactionManager>, TableHandle<u32, u64>) {
    let ctx = Arc::new(StateContext::with_capacity(CAPACITY));
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let table = protocol.create_table::<u32, u64>(&ctx, "zombies", None);
    mgr.register(Arc::clone(&table).as_participant());
    mgr.register_group(&[table.id()]).unwrap();
    (mgr, table)
}

/// Each zombie touches its own disjoint key range (so zombies never
/// wait-die each other) plus one shared read key.
fn zombie_keys(i: usize) -> [u32; 3] {
    let base = 100 + (i as u32) * 4;
    [base, base + 1, base + 2]
}

/// Spawns `ZOMBIES` client threads that begin a transaction, do a seeded
/// mix of reads and writes, and then abandon it: some `mem::forget` the
/// handle mid-transaction, some panic with buffered writes (and, under
/// S2PL, exclusive locks) still attached.  Returns how many were spawned.
fn unleash_zombies(
    mgr: &Arc<TransactionManager>,
    table: &TableHandle<u32, u64>,
    seed: u64,
) -> usize {
    let handles: Vec<_> = (0..ZOMBIES)
        .map(|i| {
            let mgr = Arc::clone(mgr);
            let table = Arc::clone(table);
            let mut rng = Rng::new(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            std::thread::spawn(move || {
                let tx = mgr.begin().unwrap();
                let _ = table.read(&tx, &1).unwrap();
                for k in zombie_keys(i) {
                    if rng.chance(75) {
                        table.write(&tx, k, u64::from(k)).unwrap();
                    } else {
                        let _ = table.read(&tx, &k).unwrap();
                    }
                }
                if rng.chance(50) {
                    // An abandoned client: the handle is gone, the slot, the
                    // buffered writes and any locks are not.
                    std::mem::forget(tx);
                } else {
                    // A crashed client: unwinds mid-transaction without ever
                    // reaching abort.
                    panic!("zombie {i} crashed mid-transaction");
                }
            })
        })
        .collect();
    for h in handles {
        let _ = h.join(); // panics are the point
    }
    ZOMBIES
}

/// The tentpole end-to-end guarantee, exercised under all four protocols:
/// after a seeded horde of zombie clients leaks transactions, one reap
/// sweep frees every slot, unblocks every S2PL key, lets the GC floor
/// advance, and throughput recovers — no restart, no manual intervention.
#[test]
fn reaper_recovers_from_zombie_clients_under_all_protocols() {
    let seed = chaos_seed();
    println!("TSP_CHAOS_SEED={seed}");
    for protocol in Protocol::ALL {
        let (mgr, table) = setup(protocol);
        let ctx = Arc::clone(mgr.context());
        ctx.set_transaction_lease(Some(Duration::from_millis(10)));
        table
            .preload_iter(&mut (0..64u32).map(|k| (k, 0u64)))
            .unwrap();

        let spawned = unleash_zombies(&mgr, &table, seed);
        assert_eq!(
            ctx.active_count(),
            spawned,
            "{protocol}: zombies hold slots"
        );
        let wedged_floor = ctx.oldest_active_fresh();

        // While the zombies are alive (lease not yet expired), S2PL keys
        // they wrote are wedged: a younger writer wait-dies against them.
        if protocol == Protocol::S2pl {
            let probe = mgr.begin().unwrap();
            let err = table.write(&probe, zombie_keys(0)[0], 7).unwrap_err();
            assert!(
                matches!(err, TspError::Deadlock { .. }),
                "{protocol}: zombie-held key must still be locked, got {err:?}"
            );
            mgr.abort(&probe).unwrap();
        }

        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            mgr.reap_expired(),
            spawned,
            "{protocol}: one sweep reaps all"
        );
        assert_eq!(ctx.active_count(), 0, "{protocol}: slots reclaimed");
        let snap = ctx.telemetry_snapshot().stats;
        assert_eq!(snap.lease_expirations as usize, spawned, "{protocol}");
        assert_eq!(
            ctx.telemetry_snapshot().lease_reaps as usize,
            spawned,
            "{protocol}"
        );

        // Throughput recovers: the previously zombie-held keys commit
        // freely (S2PL locks were released by the reaper), and more
        // transactions than the slot capacity complete back-to-back.
        for round in 0..(CAPACITY * 4) {
            let tx = mgr.begin().unwrap();
            for i in 0..ZOMBIES {
                table.write(&tx, zombie_keys(i)[0], round as u64).unwrap();
            }
            mgr.commit(&tx).unwrap();
        }

        // Nothing a zombie buffered ever became visible, and the GC floor
        // moved past the snapshot the zombies were pinning.
        let q = mgr.begin_read_only().unwrap();
        for i in 0..ZOMBIES {
            for k in zombie_keys(i) {
                let v = table.read(&q, &k).unwrap();
                assert_ne!(v, Some(u64::from(k)), "{protocol}: zombie write leaked");
            }
        }
        mgr.commit(&q).unwrap();
        assert!(
            ctx.oldest_active_fresh() > wedged_floor,
            "{protocol}: GC floor must advance past the reaped zombies"
        );
        assert_eq!(ctx.active_count(), 0, "{protocol}: clean end state");
    }
}

/// With leases disabled (the default), zombies behave exactly as they
/// always have: the reaper is a no-op, their slots stay occupied and their
/// S2PL locks stay held until an explicit abort — no transaction is ever
/// force-aborted behind the application's back.
#[test]
fn leases_disabled_reaps_nothing_and_preserves_zombies() {
    for protocol in Protocol::ALL {
        let (mgr, table) = setup(protocol);
        let ctx = Arc::clone(mgr.context());
        assert_eq!(ctx.transaction_lease(), None, "leases default off");

        // "Zombies" we keep handles to, so the test can clean up.
        let zombies: Vec<Tx> = (0..3)
            .map(|i| {
                let tx = mgr.begin().unwrap();
                table.write(&tx, 200 + i, 1).unwrap();
                tx
            })
            .collect();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(mgr.reap_expired(), 0, "{protocol}: nothing to reap");
        assert_eq!(ctx.active_count(), 3, "{protocol}: slots stay occupied");
        assert_eq!(
            ctx.telemetry_snapshot().stats.lease_expirations,
            0,
            "{protocol}"
        );

        // An explicit abort still cleans up normally.
        for tx in &zombies {
            mgr.abort(tx).unwrap();
        }
        assert_eq!(ctx.active_count(), 0, "{protocol}");
    }
}

/// The admission slow path reaps inline: when zombies exhaust the slot
/// table, the very next `begin` sweeps them out and succeeds instead of
/// failing with `CapacityExhausted`.
#[test]
fn slot_exhaustion_recovers_via_inline_reap() {
    let seed = chaos_seed().rotate_left(17);
    println!("TSP_CHAOS_SEED={seed}");
    let ctx = Arc::new(StateContext::with_capacity(4));
    ctx.set_transaction_lease(Some(Duration::from_millis(5)));
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let table = Protocol::Mvcc.create_table::<u32, u64>(&ctx, "t", None);
    mgr.register(Arc::clone(&table).as_participant());
    mgr.register_group(&[table.id()]).unwrap();

    let mut rng = Rng::new(seed);
    for _ in 0..4 {
        let tx = mgr.begin().unwrap();
        if rng.chance(60) {
            table.write(&tx, (rng.next() % 16) as u32, 1).unwrap();
        }
        std::mem::forget(tx);
    }
    assert_eq!(ctx.active_count(), 4, "slot table exhausted by zombies");

    std::thread::sleep(Duration::from_millis(20));
    // No explicit reap: `begin`'s contended path sweeps expired leases.
    let tx = mgr.begin().expect("inline reap frees a slot");
    table.write(&tx, 1, 42).unwrap();
    mgr.commit(&tx).unwrap();
    assert_eq!(ctx.telemetry_snapshot().stats.lease_expirations, 4);
}

// Epoch-fence race property: `reap_expired` racing the owner's own commit
// resolves to exactly one winner — either the commit succeeds (and the
// sweep reaps nothing), or the commit fails with `LeaseExpired` (and the
// sweep reaped exactly one transaction).  Never both, never a torn state,
// and the engine stays fully usable afterwards.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn reap_racing_owner_commit_has_exactly_one_winner(owner_delay_us in 0u64..300) {
        race_once(owner_delay_us);
    }
}

fn race_once(owner_delay_us: u64) {
    let ctx = Arc::new(StateContext::new());
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let table = Protocol::Mvcc.create_table::<u32, u64>(&ctx, "race", None);
    mgr.register(Arc::clone(&table).as_participant());
    mgr.register_group(&[table.id()]).unwrap();

    // A 1ns lease expires the transaction the moment it begins, so the
    // sweep and the owner's commit race from the first instant.
    ctx.set_transaction_lease(Some(Duration::from_nanos(1)));
    let tx = mgr.begin().unwrap();
    table.write(&tx, 1, 111).unwrap();

    let owner_done = Arc::new(AtomicBool::new(false));
    let reaper = {
        let mgr = Arc::clone(&mgr);
        let owner_done = Arc::clone(&owner_done);
        std::thread::spawn(move || {
            let mut reaped = 0usize;
            while !owner_done.load(Ordering::Acquire) {
                reaped += mgr.reap_expired();
                std::hint::spin_loop();
            }
            reaped + mgr.reap_expired() // one final sweep after the commit
        })
    };
    if owner_delay_us > 0 {
        std::thread::sleep(Duration::from_micros(owner_delay_us));
    }
    let commit = mgr.commit(&tx);
    owner_done.store(true, Ordering::Release);
    let reaped = reaper.join().unwrap();

    match commit {
        Ok(_) => assert_eq!(reaped, 0, "commit won, yet the sweep also reaped"),
        Err(TspError::LeaseExpired { .. }) => {
            assert_eq!(reaped, 1, "LeaseExpired without exactly one reap")
        }
        Err(other) => panic!("unexpected commit outcome: {other:?}"),
    }
    // Exactly one fate: the write is visible iff the commit won.
    ctx.set_transaction_lease(None);
    let q = mgr.begin_read_only().unwrap();
    let visible = table.read(&q, &1).unwrap();
    mgr.commit(&q).unwrap();
    match reaped {
        0 => assert_eq!(visible, Some(111), "committed write must be visible"),
        _ => assert_eq!(visible, None, "reaped write must never surface"),
    }
    // No corruption: the slot table is clean and the engine keeps working.
    assert_eq!(ctx.active_count(), 0);
    let tx = mgr.begin().unwrap();
    table.write(&tx, 1, 222).unwrap();
    mgr.commit(&tx).unwrap();
    let q = mgr.begin_read_only().unwrap();
    assert_eq!(table.read(&q, &1).unwrap(), Some(222));
    mgr.commit(&q).unwrap();
}

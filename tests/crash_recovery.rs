//! Deterministic crash-point sweep and recovery-equivalence properties for
//! the group redo log.
//!
//! The model of a crash: from one global point in the durable hand-off
//! schedule onward, *every* backend write fails (`FaultPlan::crash_after` —
//! the device is permanently dark) and the process stops at its first
//! commit error.  Restarting means reopening the stores without the fault
//! wrapper and running recovery.  The pinned guarantee is **exact-prefix
//! recovery**: the recovered state equals precisely the commits whose first
//! durable batch survived — acknowledged commits always, plus at most one
//! in-flight group commit rolled forward from its redo record (presumed
//! commit) — with byte-identical values and an exact `LastCTS`, never a
//! min-fenced one.
//!
//! Every randomized case draws from `TSP_CHAOS_SEED` when set (the same
//! convention as `tests/fault_injection.rs`), so a CI failure reproduces
//! locally by exporting the seed the job printed.

use std::collections::BTreeMap;
use std::sync::Arc;
use tsp::core::prelude::*;
use tsp::storage::{
    lsm, BTreeBackend, Codec, FaultInjectingBackend, FaultPlan, LsmOptions, LsmStore,
    StorageBackend,
};

fn chaos_seed() -> u64 {
    std::env::var("TSP_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FF_EE11)
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tsp-crash-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// =====================================================================
// Part 1: the deterministic crash-point sweep (LSM stores, real reopen)
// =====================================================================

/// One scripted commit against a two-state group.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Group commit writing both states (two durable batches, redo record).
    Both(u32, u64, u64),
    /// Single-state commit on state A (one batch, no record).
    AOnly(u32, u64),
    /// Single-state commit on state B (one batch, no record).
    BOnly(u32, u64),
}

/// A fixed multi-state workload mixing group commits, single-state commits
/// and overwrites — every shape the recovery protocol distinguishes.
fn script() -> Vec<Step> {
    use Step::*;
    vec![
        Both(1, 10, 11),
        AOnly(2, 20),
        Both(1, 30, 31), // overwrite a group-committed key
        BOnly(3, 40),
        Both(4, 50, 51),
        AOnly(2, 60), // overwrite a single-state key
        Both(5, 70, 71),
        BOnly(3, 80),
        Both(1, 90, 91), // overwrite again
    ]
}

/// The durable hand-off schedule: one entry per `write_batch` call, in
/// commit order.  Within a group commit the participants persist in
/// ascending state-id order — A (registered first) before B.
fn schedule(script: &[Step]) -> Vec<(usize, u8)> {
    let mut sched = Vec::new();
    for (i, step) in script.iter().enumerate() {
        match step {
            Step::Both(..) => {
                sched.push((i, 0));
                sched.push((i, 1));
            }
            Step::AOnly(..) => sched.push((i, 0)),
            Step::BOnly(..) => sched.push((i, 1)),
        }
    }
    sched
}

/// Replays the first `n` commits of the script into model maps.
fn models(script: &[Step], n: usize) -> (BTreeMap<u32, u64>, BTreeMap<u32, u64>) {
    let mut a = BTreeMap::new();
    let mut b = BTreeMap::new();
    for step in &script[..n] {
        match *step {
            Step::Both(k, av, bv) => {
                a.insert(k, av);
                b.insert(k, bv);
            }
            Step::AOnly(k, v) => {
                a.insert(k, v);
            }
            Step::BOnly(k, v) => {
                b.insert(k, v);
            }
        }
    }
    (a, b)
}

/// Runs one step's writes on a fresh transaction; returns the commit result.
fn run_step(
    mgr: &TransactionManager,
    a: &MvccTable<u32, u64>,
    b: &MvccTable<u32, u64>,
    step: Step,
) -> tsp::common::Result<Option<u64>> {
    let tx = mgr.begin()?;
    match step {
        Step::Both(k, av, bv) => {
            a.write(&tx, k, av)?;
            b.write(&tx, k, bv)?;
        }
        Step::AOnly(k, v) => a.write(&tx, k, v)?,
        Step::BOnly(k, v) => b.write(&tx, k, v)?,
    }
    mgr.commit(&tx)
}

/// Fault-free reference run capturing each commit's timestamp.  The logical
/// clock is deterministic — the same sequence of begin/commit calls draws
/// the same timestamps — so a crash run's surviving prefix carries exactly
/// these values.
fn reference_cts(script: &[Step]) -> Vec<u64> {
    let ctx = Arc::new(StateContext::new());
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let a = MvccTable::<u32, u64>::persistent(&ctx, "a", Arc::new(BTreeBackend::new()));
    let b = MvccTable::<u32, u64>::persistent(&ctx, "b", Arc::new(BTreeBackend::new()));
    mgr.register(a.clone());
    mgr.register(b.clone());
    mgr.register_group(&[a.id(), b.id()]).unwrap();
    script
        .iter()
        .map(|&s| run_step(&mgr, &a, &b, s).unwrap().unwrap())
        .collect()
}

/// First process lifetime: run the script over fault-wrapped LSM stores
/// that both go dark at global batch offset `g` (1-based index of the first
/// batch that fails to reach disk), stopping at the first commit error.
/// Returns the number of *acknowledged* commits.
fn run_crash_at(dir: &std::path::Path, opts: &LsmOptions, script: &[Step], g: usize) -> usize {
    let sched = schedule(script);
    let a_survivors = sched[..g - 1].iter().filter(|(_, o)| *o == 0).count() as u64;
    let b_survivors = sched[..g - 1].iter().filter(|(_, o)| *o == 1).count() as u64;
    let raw_a: Arc<dyn StorageBackend> =
        Arc::new(LsmStore::open(dir.join("state_a"), opts.clone()).unwrap());
    let raw_b: Arc<dyn StorageBackend> =
        Arc::new(LsmStore::open(dir.join("state_b"), opts.clone()).unwrap());
    let fa = FaultInjectingBackend::wrap(raw_a, FaultPlan::crash_after(a_survivors + 1));
    let fb = FaultInjectingBackend::wrap(raw_b, FaultPlan::crash_after(b_survivors + 1));

    let ctx = Arc::new(StateContext::new());
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let a = MvccTable::<u32, u64>::persistent(&ctx, "a", fa);
    let b = MvccTable::<u32, u64>::persistent(&ctx, "b", fb);
    mgr.register(a.clone());
    mgr.register(b.clone());
    mgr.register_group(&[a.id(), b.id()]).unwrap();

    let mut acked = 0;
    for &step in script {
        match run_step(&mgr, &a, &b, step) {
            Ok(_) => acked += 1,
            Err(_) => break, // the process dies with the device
        }
    }
    acked
}

/// Second lifetime: reopen the stores without the fault wrapper, recover,
/// and assert the recovered state is the exact committed prefix.
fn verify_crash_at(
    dir: &std::path::Path,
    opts: &LsmOptions,
    script: &[Step],
    ref_cts: &[u64],
    g: usize,
    acked: usize,
) {
    let sched = schedule(script);
    // Exact-prefix rule: a commit is recovered iff its *first* durable batch
    // survived (index <= g-1); batches are issued in commit order, so the
    // last surviving batch names the last recovered commit.
    let recovered = sched[..g - 1].last().map(|(c, _)| c + 1).unwrap_or(0);
    assert!(
        recovered == acked || recovered == acked + 1,
        "offset {g}: recovered {recovered} vs acked {acked}"
    );

    let backend_a = Arc::new(LsmStore::open(dir.join("state_a"), opts.clone()).unwrap());
    let backend_b = Arc::new(LsmStore::open(dir.join("state_b"), opts.clone()).unwrap());
    let clock = resume_clock(&[&*backend_a, &*backend_b]).unwrap();
    let ctx = Arc::new(StateContext::with_clock(clock));
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let a = MvccTable::<u32, u64>::persistent(&ctx, "a", backend_a.clone());
    let b = MvccTable::<u32, u64>::persistent(&ctx, "b", backend_b.clone());
    mgr.register(a.clone());
    mgr.register(b.clone());
    let group = mgr.register_group(&[a.id(), b.id()]).unwrap();
    let report = restore_group(&ctx, group, &[&*backend_a, &*backend_b]).unwrap();

    // Exact LastCTS — the recovered commit's own timestamp, never a fence.
    let expect_cts = if recovered == 0 {
        EPOCH_TS
    } else {
        ref_cts[recovered - 1]
    };
    assert_eq!(
        report.last_cts, expect_cts,
        "offset {g}: LastCTS must be exact"
    );
    // A recovered-but-unacknowledged commit is exactly the torn group
    // commit the redo log repairs (presumed commit).
    assert_eq!(
        report.torn_group_commit,
        recovered > acked,
        "offset {g}: tear flag"
    );
    assert_eq!(report.replayed_commits, (recovered > acked) as u64);

    // Per-state markers land on the last recovered commit touching each
    // state — no torn suffix on either side.
    let last_touch = |want_a: bool| {
        script[..recovered]
            .iter()
            .enumerate()
            .filter(|(_, s)| match s {
                Step::Both(..) => true,
                Step::AOnly(..) => want_a,
                Step::BOnly(..) => !want_a,
            })
            .map(|(i, _)| ref_cts[i])
            .next_back()
    };
    assert_eq!(
        recover_table_cts(&*backend_a).unwrap(),
        last_touch(true),
        "offset {g}: state A marker"
    );
    assert_eq!(
        recover_table_cts(&*backend_b).unwrap(),
        last_touch(false),
        "offset {g}: state B marker"
    );

    // The recovered contents equal the committed prefix, byte-identical:
    // both through the table layer and as raw backend bytes.
    let (model_a, model_b) = models(script, recovered);
    let q = mgr.begin_read_only().unwrap();
    for k in 0..8u32 {
        assert_eq!(
            a.read(&q, &k).unwrap(),
            model_a.get(&k).copied(),
            "offset {g}: state A key {k}"
        );
        assert_eq!(
            b.read(&q, &k).unwrap(),
            model_b.get(&k).copied(),
            "offset {g}: state B key {k}"
        );
        assert_eq!(
            backend_a.get(&k.encode()).unwrap(),
            model_a.get(&k).map(|v| v.encode()),
            "offset {g}: state A key {k} raw bytes"
        );
        assert_eq!(
            backend_b.get(&k.encode()).unwrap(),
            model_b.get(&k).map(|v| v.encode()),
            "offset {g}: state B key {k} raw bytes"
        );
    }
    mgr.commit(&q).unwrap();

    // The recovered deployment accepts new group commits past the horizon.
    let w = mgr.begin().unwrap();
    a.write(&w, 7, 700).unwrap();
    b.write(&w, 7, 701).unwrap();
    let cts = mgr.commit(&w).unwrap().unwrap();
    assert!(
        cts > report.last_cts,
        "offset {g}: clock resumed past horizon"
    );
}

/// Sweeps *every* crash offset of the scripted workload — each offset is a
/// full process lifetime (fault-armed run, reopen, recovery, verification)
/// over real LSM stores.  Offset `len+1` is the no-crash boundary case.
#[test]
fn crash_sweep_every_offset_recovers_the_exact_committed_prefix() {
    let script = script();
    let sched_len = schedule(&script).len();
    let ref_cts = reference_cts(&script);
    let opts = LsmOptions::no_sync();
    for g in 1..=sched_len + 1 {
        let dir = temp_dir(&format!("sweep{g}"));
        let acked = run_crash_at(&dir, &opts, &script, g);
        verify_crash_at(&dir, &opts, &script, &ref_cts, g, acked);
        lsm::destroy(dir.join("state_a")).unwrap();
        lsm::destroy(dir.join("state_b")).unwrap();
    }
}

// =====================================================================
// Part 2: recovery-equivalence property over random multi-group histories
// =====================================================================

use proptest::prelude::*;

/// One random commit: which states of which group it writes, at which key.
#[derive(Clone, Copy, Debug)]
struct RandOp {
    kind: u8, // 0: g1 both, 1: g1 a, 2: g1 b, 3: g2 both, 4: g2 c, 5: g2 d
    key: u32,
    val: u64,
}

/// The backends a random op writes, as indices into `[a, b, c, d]`, in
/// durable hand-off order (ascending state id within the commit).
fn op_owners(op: &RandOp) -> &'static [usize] {
    match op.kind {
        0 => &[0, 1],
        1 => &[0],
        2 => &[1],
        3 => &[2, 3],
        4 => &[2],
        _ => &[3],
    }
}

struct Quad {
    ctx: Arc<StateContext>,
    mgr: Arc<TransactionManager>,
    tables: Vec<Arc<MvccTable<u32, u64>>>,
    groups: [tsp::common::GroupId; 2],
}

/// Builds the two-group deployment (group 1 = states a,b; group 2 = c,d)
/// over the given backends, optionally resuming the clock from them.
fn open_quad(backends: &[Arc<dyn StorageBackend>], recover: bool) -> Quad {
    let ctx = if recover {
        let refs: Vec<&dyn StorageBackend> = backends.iter().map(|b| &**b).collect();
        Arc::new(StateContext::with_clock(resume_clock(&refs).unwrap()))
    } else {
        Arc::new(StateContext::new())
    };
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let names = ["a", "b", "c", "d"];
    let tables: Vec<Arc<MvccTable<u32, u64>>> = names
        .iter()
        .zip(backends)
        .map(|(n, b)| MvccTable::<u32, u64>::persistent(&ctx, *n, Arc::clone(b)))
        .collect();
    for t in &tables {
        mgr.register(t.clone());
    }
    let g1 = mgr
        .register_group(&[tables[0].id(), tables[1].id()])
        .unwrap();
    let g2 = mgr
        .register_group(&[tables[2].id(), tables[3].id()])
        .unwrap();
    Quad {
        ctx,
        mgr,
        tables,
        groups: [g1, g2],
    }
}

/// Runs one random op; returns the commit result.
fn run_rand_op(q: &Quad, op: &RandOp) -> tsp::common::Result<Option<u64>> {
    let tx = q.mgr.begin()?;
    for &o in op_owners(op) {
        q.tables[o].write(&tx, op.key, op.val)?;
    }
    q.mgr.commit(&tx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// For a random two-group history and a random global crash offset,
    /// recovery restores each group to its exact committed prefix:
    /// `LastCTS` equals the fault-free reference timestamp of the last
    /// recovered commit (no min-fence), per-state markers carry no torn
    /// suffix, and every replayed value is byte-identical to the original
    /// write.  `TSP_CHAOS_SEED` perturbs the written values.
    #[test]
    fn recovery_equivalence_over_random_multi_group_histories(
        raw_ops in proptest::collection::vec((0u8..6, 0u32..8, any::<u64>()), 1..14),
        crash_sel in any::<u64>(),
    ) {
        let seed = chaos_seed();
        let ops: Vec<RandOp> = raw_ops
            .iter()
            .map(|&(kind, key, val)| RandOp { kind, key, val: val ^ seed })
            .collect();
        // The global durable hand-off schedule, one entry per batch.
        let sched: Vec<(usize, usize)> = ops
            .iter()
            .enumerate()
            .flat_map(|(i, op)| op_owners(op).iter().map(move |&o| (i, o)))
            .collect();
        let g = (crash_sel % (sched.len() as u64 + 1) + 1) as usize;

        // Fault-free reference run: per-commit timestamps.
        let ref_backends: Vec<Arc<dyn StorageBackend>> =
            (0..4).map(|_| Arc::new(BTreeBackend::new()) as _).collect();
        let reference = open_quad(&ref_backends, false);
        let ref_cts: Vec<u64> = ops
            .iter()
            .map(|op| run_rand_op(&reference, op).unwrap().unwrap())
            .collect();

        // Crash run: all four devices go dark at global offset `g`.
        let raw: Vec<Arc<dyn StorageBackend>> =
            (0..4).map(|_| Arc::new(BTreeBackend::new()) as _).collect();
        let wrapped: Vec<Arc<dyn StorageBackend>> = raw
            .iter()
            .enumerate()
            .map(|(o, b)| {
                let survivors =
                    sched[..g - 1].iter().filter(|(_, owner)| *owner == o).count() as u64;
                FaultInjectingBackend::wrap(Arc::clone(b), FaultPlan::crash_after(survivors + 1))
                    as Arc<dyn StorageBackend>
            })
            .collect();
        let crashing = open_quad(&wrapped, false);
        let mut acked = 0usize;
        for op in &ops {
            match run_rand_op(&crashing, op) {
                Ok(_) => acked += 1,
                Err(_) => break,
            }
        }
        drop(crashing);

        // Restart on the raw backends and recover both groups.
        let recovered = sched[..g - 1].last().map(|(c, _)| c + 1).unwrap_or(0);
        prop_assert!(recovered == acked || recovered == acked + 1);
        let after = open_quad(&raw, true);
        for (gi, states) in [(0usize, [0usize, 1]), (1, [2, 3])] {
            let report = restore_group(
                &after.ctx,
                after.groups[gi],
                &[&*raw[states[0]], &*raw[states[1]]],
            )
            .unwrap();
            // Exact LastCTS: the reference timestamp of the last recovered
            // commit belonging to this group.
            let expect = ops[..recovered]
                .iter()
                .enumerate()
                .filter(|(_, op)| (op.kind >= 3) == (gi == 1))
                .map(|(i, _)| ref_cts[i])
                .next_back()
                .unwrap_or(EPOCH_TS);
            prop_assert_eq!(report.last_cts, expect, "group {} LastCTS", gi + 1);
            // No torn suffix: each state's marker is the last recovered
            // commit that wrote it.
            for (slot, state) in states.iter().enumerate() {
                let expect_marker = ops[..recovered]
                    .iter()
                    .enumerate()
                    .filter(|(_, op)| op_owners(op).contains(state))
                    .map(|(i, _)| ref_cts[i])
                    .next_back();
                prop_assert_eq!(
                    recover_table_cts(&*raw[*state]).unwrap(),
                    expect_marker,
                    "state {} marker at offset {}",
                    state,
                    g
                );
                let _ = slot;
            }
        }

        // Byte-identical contents: the raw backend bytes equal the model of
        // the recovered prefix, through overwrites and replays alike.
        let mut model: [BTreeMap<u32, u64>; 4] = Default::default();
        for op in &ops[..recovered] {
            for &o in op_owners(op) {
                model[o].insert(op.key, op.val);
            }
        }
        let q = after.mgr.begin_read_only().unwrap();
        for o in 0..4usize {
            for k in 0..8u32 {
                prop_assert_eq!(
                    raw[o].get(&k.encode()).unwrap(),
                    model[o].get(&k).map(|v| v.encode()),
                    "backend {} key {} at offset {}",
                    o,
                    k,
                    g
                );
                prop_assert_eq!(
                    after.tables[o].read(&q, &k).unwrap(),
                    model[o].get(&k).copied()
                );
            }
        }
        after.mgr.commit(&q).unwrap();
    }
}

// =====================================================================
// Part 3: recovery-equivalence property over multi-partition histories
// =====================================================================

/// Deterministic splitmix64 for the partition histories (seeded by
/// `TSP_CHAOS_SEED` so shapes — not just values — follow the seed).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

struct PartDeploy {
    mgr: Arc<TransactionManager>,
    t1: Arc<PartitionedTable<u32, u64>>,
    t2: Arc<PartitionedTable<u32, u64>>,
}

/// Two partitioned tables over two partitions on `ctx`, each shard
/// persistent — partition `p` holds the backends at indices `[p]` of each
/// table's slice.
fn open_partitioned(
    ctx: StateContext,
    b1: &[Arc<dyn StorageBackend>; 2],
    b2: &[Arc<dyn StorageBackend>; 2],
) -> PartDeploy {
    let mgr = TransactionManager::new(Arc::new(ctx));
    let t1 = PartitionedTable::<u32, u64>::new(&mgr, Protocol::Mvcc, "kv1", 2, |p| {
        Some(Arc::clone(&b1[p]))
    });
    let t2 = PartitionedTable::<u32, u64>::new(&mgr, Protocol::Mvcc, "kv2", 2, |p| {
        Some(Arc::clone(&b2[p]))
    });
    PartDeploy { mgr, t1, t2 }
}

/// Recovers partition `p`: rolls a torn commit among the partition's
/// shards forward from their redo records, then resumes each shard's
/// commit group at the shard's repaired marker.  Returns the markers as
/// found on disk, the number of replayed commits and the partition's
/// horizon (the highest restored `LastCTS`).
fn restore_partition_shards(
    d: &PartDeploy,
    p: usize,
    backends: [&dyn StorageBackend; 2],
) -> (Vec<Option<u64>>, u64, u64) {
    let ctx = d.mgr.context();
    let shards = [d.t1.shard(p).id(), d.t2.shard(p).id()];
    let (per_state, replayed) = replay_torn_suffix(&shards, &backends).unwrap();
    let mut horizon = EPOCH_TS;
    for (shard, backend) in shards.iter().zip(backends) {
        let marker = recover_table_cts(backend).unwrap().unwrap_or(EPOCH_TS);
        for g in ctx.groups_of_state(*shard) {
            ctx.restore_group_cts(g, marker).unwrap();
            horizon = horizon.max(ctx.last_cts(g).unwrap());
        }
    }
    (per_state, replayed, horizon)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random multi-partition histories (single-partition and
    /// cross-partition commits, one and two tables per commit) crashed at a
    /// random per-device depth, then recovered partition by partition:
    /// `replay_torn_suffix` over the partition's shards, then each shard's
    /// group resumes at its repaired marker.  Invariants: every
    /// acknowledged commit survives byte-identically; within each partition
    /// a commit is all-or-nothing (the per-partition redo log repairs a
    /// tear between the partition's shards); recovery is exact — each
    /// partition's horizon is the maximum shard marker, never the minimum.
    #[test]
    fn partition_crashes_recover_each_partitions_exact_prefix(
        case in any::<u64>(),
        crash_depth in 1u64..8,
        op_count in 4usize..12,
    ) {
        let mut rng = SplitMix(chaos_seed() ^ case);
        // (key, both_tables, extra cross-partition key)
        let ops: Vec<(u32, bool, Option<u32>)> = (0..op_count)
            .map(|_| {
                let key = rng.below(16) as u32;
                let both = rng.below(3) > 0;
                let cross = if rng.below(4) == 0 {
                    Some((key + 1 + rng.below(8) as u32) % 16)
                } else {
                    None
                };
                (key, both, cross)
            })
            .collect();

        let raw1: [Arc<dyn StorageBackend>; 2] =
            [Arc::new(BTreeBackend::new()) as _, Arc::new(BTreeBackend::new()) as _];
        let raw2: [Arc<dyn StorageBackend>; 2] =
            [Arc::new(BTreeBackend::new()) as _, Arc::new(BTreeBackend::new()) as _];
        let wrap = |b: &Arc<dyn StorageBackend>| {
            FaultInjectingBackend::wrap(Arc::clone(b), FaultPlan::crash_after(crash_depth))
                as Arc<dyn StorageBackend>
        };
        let wrapped1 = [wrap(&raw1[0]), wrap(&raw1[1])];
        let wrapped2 = [wrap(&raw2[0]), wrap(&raw2[1])];

        // First lifetime: run until the first commit error.  Values are
        // unique per (commit, table, key) so "this exact write survived"
        // is distinguishable from any earlier overwrite.
        let d = open_partitioned(StateContext::new(), &wrapped1, &wrapped2);
        let mut acked: Vec<Vec<(u8, u32, u64)>> = Vec::new(); // (table, key, value)
        let mut in_flight: Vec<(u8, u32, u64)> = Vec::new();
        for (i, &(key, both, cross)) in ops.iter().enumerate() {
            let mut writes = Vec::new();
            let val = |t: u8, k: u32| ((i as u64) << 32) | ((t as u64) << 16) | k as u64;
            writes.push((1u8, key, val(1, key)));
            if both {
                writes.push((2u8, key, val(2, key)));
            }
            if let Some(k2) = cross {
                writes.push((1u8, k2, val(1, k2)));
                if both {
                    writes.push((2u8, k2, val(2, k2)));
                }
            }
            let run = || -> tsp::common::Result<Option<u64>> {
                let tx = d.mgr.begin()?;
                for &(t, k, v) in &writes {
                    if t == 1 {
                        d.t1.write(&tx, k, v)?;
                    } else {
                        d.t2.write(&tx, k, v)?;
                    }
                }
                d.mgr.commit(&tx)
            };
            match run() {
                Ok(_) => acked.push(writes),
                Err(_) => {
                    in_flight = writes;
                    break;
                }
            }
        }
        drop(d);

        // Second lifetime: rebuild on the raw backends with the clock
        // resumed past every marker, recover partitions.
        let all: Vec<&dyn StorageBackend> =
            raw1.iter().chain(&raw2).map(|b| &**b).collect();
        let d = open_partitioned(
            StateContext::with_clock(resume_clock(&all).unwrap()),
            &raw1,
            &raw2,
        );
        let mut horizons = Vec::new();
        for p in 0..2usize {
            let (per_state, replayed, horizon) =
                restore_partition_shards(&d, p, [&*raw1[p], &*raw2[p]]);
            // Exact horizon: the maximum shard marker, never the minimum.
            let max_marker = per_state.iter().flatten().copied().max().unwrap_or(EPOCH_TS);
            prop_assert!(horizon >= max_marker, "partition {} min-fenced", p);
            // A replay only repairs a partition whose markers disagree.
            let agree = per_state.iter().all(|m| *m == per_state[0]);
            prop_assert!(!(agree && replayed > 0), "partition {} replayed in vain", p);
            horizons.push(horizon);
        }

        let q = d.mgr.begin_read_only().unwrap();
        let read = |t: u8, k: u32| -> Option<u64> {
            if t == 1 {
                d.t1.read(&q, &k).unwrap()
            } else {
                d.t2.read(&q, &k).unwrap()
            }
        };
        // Every acknowledged commit survives byte-identically (later
        // overwrites of the same slot supersede earlier ones).
        let mut expected: BTreeMap<(u8, u32), u64> = BTreeMap::new();
        for writes in &acked {
            for &(t, k, v) in writes {
                expected.insert((t, k), v);
            }
        }
        // The in-flight commit may have been rolled forward (presumed
        // commit) — but per partition only as a whole.  Group its writes by
        // partition and accept all-or-nothing per partition.
        let partitioner = HashPartitioner;
        let mut by_part: BTreeMap<usize, Vec<(u8, u32, u64)>> = BTreeMap::new();
        for &(t, k, v) in &in_flight {
            by_part
                .entry(Partitioner::<u32>::partition_of(&partitioner, &k, 2))
                .or_default()
                .push((t, k, v));
        }
        for (p, writes) in &by_part {
            let survived: Vec<bool> = writes
                .iter()
                .map(|&(t, k, v)| read(t, k) == Some(v))
                .collect();
            prop_assert!(
                survived.iter().all(|s| *s) || !survived.iter().any(|s| *s),
                "partition {} tore the in-flight commit: {:?}",
                p,
                survived
            );
            if survived[0] {
                for &(t, k, v) in writes {
                    expected.insert((t, k), v);
                }
            }
        }
        for (&(t, k), &v) in &expected {
            prop_assert_eq!(read(t, k), Some(v), "table {} key {}", t, k);
        }
        d.mgr.commit(&q).unwrap();

        // The partitions keep accepting commits, past each horizon.
        let tx = d.mgr.begin().unwrap();
        d.t1.write(&tx, 0, u64::MAX).unwrap();
        d.t1.write(&tx, 1, u64::MAX).unwrap();
        d.t2.write(&tx, 0, u64::MAX).unwrap();
        d.mgr.commit(&tx).unwrap();
        for (p, horizon) in horizons.iter().enumerate() {
            prop_assert!(
                d.mgr.context().clock().now() > *horizon,
                "partition {} horizon is not behind the clock",
                p
            );
        }
    }
}

// =====================================================================
// Part 4: undo images — in-place protocols across a torn durable hand-off
// =====================================================================

/// S2PL and BOCC apply writes *in place*, so a torn multi-participant
/// durable hand-off must restore per-commit undo images in memory (the
/// failing process sees its pre-images until it dies), while the surviving
/// participant's disk batch — carrying the whole group's redo record —
/// rolls the commit forward at the next restart (presumed commit).
#[test]
fn in_place_protocols_restore_pre_images_then_recovery_rolls_forward() {
    for protocol in [Protocol::S2pl, Protocol::Bocc] {
        let raw_a: Arc<dyn StorageBackend> = Arc::new(BTreeBackend::new());
        let raw_b: Arc<dyn StorageBackend> = Arc::new(BTreeBackend::new());
        let interrupted_cts;
        {
            let ctx = Arc::new(StateContext::new());
            let mgr = TransactionManager::new(Arc::clone(&ctx));
            let a = protocol.create_table::<u32, u64>(&ctx, "a", Some(Arc::clone(&raw_a)));
            // State B's device dies on its second write — mid-way through
            // the second group commit's durable hand-off, after A's batch
            // (and the redo record inside it) reached disk.
            let fb = FaultInjectingBackend::wrap(Arc::clone(&raw_b), FaultPlan::crash_after(2));
            let b = protocol.create_table::<u32, u64>(&ctx, "b", Some(fb));
            mgr.register(a.clone().as_participant());
            mgr.register(b.clone().as_participant());
            mgr.register_group(&[a.id(), b.id()]).unwrap();

            let tx = mgr.begin().unwrap();
            a.write(&tx, 1, 100).unwrap();
            b.write(&tx, 1, 200).unwrap();
            mgr.commit(&tx).unwrap();

            let tx = mgr.begin().unwrap();
            a.write(&tx, 1, 111).unwrap();
            b.write(&tx, 1, 222).unwrap();
            a.write(&tx, 2, 333).unwrap();
            assert!(mgr.commit(&tx).is_err(), "B's device must be dark");
            interrupted_cts = tsp::core::recovery::recover_table_cts(&*raw_a)
                .unwrap()
                .unwrap();

            // The failed apply was undone *in place* from the undo images:
            // this process still sees the pre-images, not the torn writes.
            // (Key 2 is left unasserted: it had no pre-image, and in-place
            // tables read through to the backend, where A's half of the
            // presumed-committed batch already lives.)
            let q = mgr.begin_read_only().unwrap();
            assert_eq!(
                a.read(&q, &1).unwrap(),
                Some(100),
                "{protocol:?}: pre-image"
            );
            assert_eq!(b.read(&q, &1).unwrap(), Some(200));
            mgr.commit(&q).unwrap();
        }

        // Restart: A's surviving batch promotes the interrupted commit.
        let ctx = {
            let clock = resume_clock(&[&*raw_a, &*raw_b]).unwrap();
            Arc::new(StateContext::with_clock(clock))
        };
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let a = protocol.create_table::<u32, u64>(&ctx, "a", Some(Arc::clone(&raw_a)));
        let b = protocol.create_table::<u32, u64>(&ctx, "b", Some(Arc::clone(&raw_b)));
        mgr.register(a.clone().as_participant());
        mgr.register(b.clone().as_participant());
        let group = mgr.register_group(&[a.id(), b.id()]).unwrap();
        let report = restore_group(&ctx, group, &[&*raw_a, &*raw_b]).unwrap();
        assert!(report.torn_group_commit, "{protocol:?}");
        assert_eq!(report.last_cts, interrupted_cts);

        let q = mgr.begin_read_only().unwrap();
        assert_eq!(
            a.read(&q, &1).unwrap(),
            Some(111),
            "{protocol:?}: rolled forward"
        );
        assert_eq!(b.read(&q, &1).unwrap(), Some(222));
        assert_eq!(a.read(&q, &2).unwrap(), Some(333));
        mgr.commit(&q).unwrap();
    }
}

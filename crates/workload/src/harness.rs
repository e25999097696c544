//! The micro-benchmark harness reproducing the paper's evaluation (§5).
//!
//! Setup (§5.1): "a scenario having one stream continuously writing to two
//! states and multiple ad-hoc queries reading from these states.  Both are
//! initialized with a table size of one million key-value pairs (4 Byte key,
//! 20 Byte value).  During the experiments, we vary the number of parallel
//! ad-hoc queries and the contention rate using a Zipfian distribution."
//! Transactions are of medium length (10 operations each, §5.2) and the base
//! table persists writes synchronously.
//!
//! The harness builds the two states under the selected concurrency-control
//! protocol, preloads them, then runs one writer thread (the continuous
//! stream query, writing both states under the consistency protocol) and `N`
//! ad-hoc reader threads for a fixed wall-clock duration, reporting
//! throughput in K transactions per second — the quantity plotted in
//! Figure 4.

use crate::zipf::{KeyGen, ZipfTable};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use tsp_common::{Histogram, Result, TspError};
use tsp_core::{
    HistogramSummary, PartitionedTable, RangePartitioner, StateContext, TableHandle,
    TransactionManager, TransactionalTableExt, TxStatsSnapshot, MAX_ACTIVE_TXNS,
};
use tsp_storage::{LsmOptions, LsmStore, StorageBackend, SyncPolicy};

pub use tsp_core::Protocol;

/// Base-table storage configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageKind {
    /// Purely in-memory base tables (no durability; ablation only).
    InMemory,
    /// Persistent LSM base table with synchronous WAL writes — the paper's
    /// configuration ("sync option to true").
    LsmSync,
    /// Persistent LSM base table without fsync (ablation).
    LsmNoSync,
}

impl StorageKind {
    /// Short display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            StorageKind::InMemory => "mem",
            StorageKind::LsmSync => "lsm-sync",
            StorageKind::LsmNoSync => "lsm-nosync",
        }
    }
}

/// Configuration of one benchmark cell.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Concurrency-control protocol.
    pub protocol: Protocol,
    /// Number of concurrent ad-hoc reader queries (4 and 24 in Figure 4).
    pub readers: usize,
    /// Zipfian contention parameter θ (0 … 3 in Figure 4).
    pub theta: f64,
    /// Keys preloaded per state (paper: 1 000 000).
    pub table_size: u64,
    /// Value payload size in bytes (paper: 20).
    pub value_size: usize,
    /// Operations per transaction (paper: 10, "medium length").
    pub tx_ops: usize,
    /// Measurement duration.
    pub duration: Duration,
    /// Base-table storage.
    pub storage: StorageKind,
    /// Number of continuous stream writers (paper: 1).
    pub writers: usize,
    /// RNG seed (deterministic key sequences per thread).
    pub seed: u64,
    /// Directory for persistent base tables (a per-run subdirectory is
    /// created and removed); defaults to the system temp directory.
    pub data_dir: Option<PathBuf>,
    /// Key-space partitions.  `1` (the default) puts both states in one
    /// commit group; `> 1` shards each state into a [`PartitionedTable`]
    /// with a [`RangePartitioner`] of contiguous `table_size / partitions`
    /// chunks and per-partition storage backends, and switches the workers
    /// to partition-local key generation (every transaction stays on one
    /// partition).
    pub partitions: usize,
    /// Transaction lease (`None` = leases off, the default).  When set, a
    /// background reaper force-aborts transactions that outlive the lease
    /// — the degraded-mode knob for measuring recovery from abandoned
    /// clients (see "Transaction lifecycle & leases" in
    /// `docs/ARCHITECTURE.md`).
    pub lease: Option<Duration>,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            protocol: Protocol::Mvcc,
            readers: 4,
            theta: 0.0,
            table_size: 1_000_000,
            value_size: 20,
            tx_ops: 10,
            duration: Duration::from_secs(3),
            storage: StorageKind::LsmSync,
            writers: 1,
            seed: 42,
            data_dir: None,
            partitions: 1,
            lease: None,
        }
    }
}

impl WorkloadConfig {
    /// The paper's Figure 4 cell for a given protocol, reader count and θ.
    pub fn figure4(protocol: Protocol, readers: usize, theta: f64) -> Self {
        WorkloadConfig {
            protocol,
            readers,
            theta,
            ..Default::default()
        }
    }

    /// A scaled-down configuration for fast smoke runs and unit tests.
    pub fn quick(protocol: Protocol) -> Self {
        WorkloadConfig {
            protocol,
            readers: 2,
            theta: 1.0,
            table_size: 2_000,
            value_size: 20,
            tx_ops: 10,
            duration: Duration::from_millis(200),
            storage: StorageKind::InMemory,
            writers: 1,
            seed: 7,
            data_dir: None,
            partitions: 1,
            lease: None,
        }
    }
}

/// Result of one benchmark cell.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The configuration that produced this result.
    pub protocol: Protocol,
    /// Reader count.
    pub readers: usize,
    /// Contention parameter.
    pub theta: f64,
    /// Storage backend used.
    pub storage: StorageKind,
    /// Wall-clock measurement time.
    pub elapsed: Duration,
    /// Committed reader transactions.
    pub reader_committed: u64,
    /// Aborted (and retried) reader transactions.
    pub reader_aborted: u64,
    /// Committed writer transactions.
    pub writer_committed: u64,
    /// Aborted (and retried) writer transactions.
    pub writer_aborted: u64,
    /// Total throughput in K transactions/s (the Figure 4 y-axis).
    pub throughput_ktps: f64,
    /// Reader-only throughput in K transactions/s.
    pub reader_ktps: f64,
    /// Writer-only throughput in transactions/s.
    pub writer_tps: f64,
    /// Median reader-transaction latency.
    pub reader_p50: Option<Duration>,
    /// 99th-percentile reader-transaction latency.
    pub reader_p99: Option<Duration>,
    /// 99.9th-percentile reader-transaction latency.
    pub reader_p999: Option<Duration>,
    /// Snapshot of the context-wide counters at the end of the run.
    pub stats: TxStatsSnapshot,
    /// Key-space partitions the run used (1 = unpartitioned).
    pub partitions: usize,
    /// Committed writer transactions per home partition (empty for
    /// unpartitioned runs); index = partition.  Exposes skew.
    pub partition_writer_commits: Vec<u64>,
    /// Per-partition reader-transaction latency (nanoseconds; empty for
    /// unpartitioned runs); index = the transaction's home partition.
    /// Together with [`partition_writer_commits`](Self::partition_writer_commits)
    /// this shows whether a hot partition also pays a latency penalty.
    pub partition_reader_latency: Vec<HistogramSummary>,
    /// Degraded-mode persistence: in-place `write_batch` retries of
    /// transient backend failures over the run (0 on a healthy device).
    pub persist_retries: u64,
    /// Sticky-failed persistence writers healed by `try_recover` over the
    /// run.
    pub writer_recoveries: u64,
    /// Begins that waited for (and won) a transaction slot under bounded
    /// admission (0 unless an admission wait is configured).
    pub admission_waits: u64,
    /// 99th-percentile bounded-admission slot wait, when any wait happened.
    pub admission_wait_p99: Option<Duration>,
    /// Commits whose bounded durability wait timed out — visible but not
    /// confirmed durable within the deadline.
    pub timed_out_commits: u64,
    /// Degraded-mode leases: expired transactions force-aborted by the
    /// lease reaper over the run (0 unless [`WorkloadConfig::lease`] is
    /// set).
    pub lease_reaps: u64,
}

impl RunResult {
    /// Abort ratio over all finished transactions.
    pub fn abort_ratio(&self) -> f64 {
        let committed = self.reader_committed + self.writer_committed;
        let aborted = self.reader_aborted + self.writer_aborted;
        if committed + aborted == 0 {
            0.0
        } else {
            aborted as f64 / (committed + aborted) as f64
        }
    }
}

/// One fully wired benchmark environment (context, manager, the two states).
///
/// The states are protocol-erased [`TableHandle`]s produced by the
/// [`Protocol::create_table`] factory, so the whole harness — and the benches
/// and examples built on it — is protocol-independent: the paper's benchmark
/// schema is `u32 → Vec<u8>` (4-byte keys, 20-byte values) regardless of the
/// concurrency-control protocol under test.
pub struct BenchEnv {
    /// The transaction manager.
    pub mgr: Arc<TransactionManager>,
    /// The two states written by the stream and read by ad-hoc queries.
    pub states: [TableHandle<u32, Vec<u8>>; 2],
    /// Key-space partitions of each state (1 = unpartitioned).
    pub partitions: usize,
    /// Directory holding the persistent base tables, if any (removed on drop).
    data_dir: Option<PathBuf>,
}

impl Drop for BenchEnv {
    fn drop(&mut self) {
        if let Some(dir) = &self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

impl BenchEnv {
    /// Builds and preloads the benchmark environment described by `config`.
    ///
    /// With [`WorkloadConfig::partitions`] > 1 each state is a
    /// [`PartitionedTable`] over contiguous `table_size / partitions` key
    /// ranges, each shard in a commit group of its own and (for persistent
    /// storage) with its own LSM base table under `state{i}/p{p}`;
    /// otherwise both states form one commit group.
    pub fn build(config: &WorkloadConfig) -> Result<Self> {
        let parts = config.partitions.max(1);
        if config.table_size < parts as u64 {
            return Err(TspError::config(format!(
                "table_size {} is smaller than the partition count {parts}",
                config.table_size
            )));
        }
        // Size the transaction-slot table for the configured thread count so
        // high-concurrency sweeps aren't capped by the default of 64.
        let capacity = MAX_ACTIVE_TXNS.max(config.readers + config.writers + 2);
        let ctx = Arc::new(StateContext::with_capacity(capacity));
        let mgr = TransactionManager::new(Arc::clone(&ctx));

        // Per-state × per-partition backends.
        let data_dir = match config.storage {
            StorageKind::InMemory => None,
            StorageKind::LsmSync | StorageKind::LsmNoSync => Some(Self::fresh_data_dir(config)),
        };
        let opts = Self::lsm_options(config);
        let open = |i: usize, p: usize| -> Result<Option<Arc<dyn StorageBackend>>> {
            let Some(base) = &data_dir else {
                return Ok(None);
            };
            let path = if parts > 1 {
                base.join(format!("state{i}/p{p}"))
            } else {
                base.join(format!("state{i}"))
            };
            Ok(Some(Arc::new(LsmStore::open(path, opts.clone())?)))
        };

        // Contiguous chunks: partition p owns [p·chunk, (p+1)·chunk), the
        // last partition absorbing the remainder.
        let chunk = config.table_size / parts as u64;
        let bounds: Vec<u32> = (1..parts).map(|p| (p as u64 * chunk) as u32).collect();
        let mut states = Vec::with_capacity(2);
        for i in 0..2 {
            let name = format!("measurements{}", i + 1);
            let table: TableHandle<u32, Vec<u8>> = if parts > 1 {
                let mut backends = (0..parts).map(|p| open(i, p)).collect::<Result<Vec<_>>>()?;
                PartitionedTable::with_partitioner(
                    &mgr,
                    config.protocol,
                    name,
                    parts,
                    |p| backends[p].take(),
                    Arc::new(RangePartitioner::new(bounds.clone())),
                )
            } else {
                let table = config.protocol.create_table(&ctx, name, open(i, 0)?);
                mgr.register(Arc::clone(&table).as_participant());
                table
            };
            states.push(table);
        }
        let states: [TableHandle<u32, Vec<u8>>; 2] =
            [Arc::clone(&states[0]), Arc::clone(&states[1])];
        if parts == 1 {
            mgr.register_group(&[states[0].id(), states[1].id()])?;
        }

        Self::preload(config, &states)?;
        // Armed after the preload so loading never races a reap sweep.
        ctx.set_transaction_lease(config.lease);

        Ok(BenchEnv {
            mgr,
            states,
            partitions: parts,
            data_dir,
        })
    }

    /// A unique per-run directory for persistent base tables.
    fn fresh_data_dir(config: &WorkloadConfig) -> PathBuf {
        config
            .data_dir
            .clone()
            .unwrap_or_else(std::env::temp_dir)
            .join(format!(
                "tsp-bench-{}-{}",
                std::process::id(),
                RUN_COUNTER.fetch_add(1, Ordering::Relaxed)
            ))
    }

    /// LSM options matching the configured [`StorageKind`].
    fn lsm_options(config: &WorkloadConfig) -> LsmOptions {
        match config.storage {
            StorageKind::LsmSync => LsmOptions {
                sync: SyncPolicy::Always,
                ..LsmOptions::default()
            },
            _ => LsmOptions::no_sync(),
        }
    }

    /// Preloads both states: 4-byte keys, `value_size`-byte values.
    fn preload(config: &WorkloadConfig, states: &[TableHandle<u32, Vec<u8>>; 2]) -> Result<()> {
        let value = vec![0xABu8; config.value_size];
        for table in states {
            table.preload((0..config.table_size).map(|k| (k as u32, value.clone())))?;
        }
        Ok(())
    }
}

/// Runs one benchmark cell and reports its [`RunResult`].
pub fn run(config: &WorkloadConfig) -> Result<RunResult> {
    let env = BenchEnv::build(config)?;
    run_in(config, &env)
}

/// Runs one benchmark cell against an already-built environment (lets the
/// ablation benches reuse an expensive preload across sweeps).
pub fn run_in(config: &WorkloadConfig, env: &BenchEnv) -> Result<RunResult> {
    let capacity = env.mgr.context().max_active_txns();
    if config.readers + config.writers + 1 > capacity {
        return Err(TspError::config(format!(
            "readers + writers must stay below the context's {capacity} transaction slots",
        )));
    }
    if env.partitions != config.partitions.max(1) {
        return Err(TspError::config(format!(
            "config wants {} partitions but the environment was built with {}",
            config.partitions.max(1),
            env.partitions,
        )));
    }
    // Partitioned runs draw Zipf offsets within one chunk; unpartitioned
    // runs draw over the full key space.
    let key_space = if config.partitions > 1 {
        (config.table_size / config.partitions as u64).max(1)
    } else {
        config.table_size.max(1)
    };
    let zipf = ZipfTable::new(key_space, config.theta, true);
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(config.readers + config.writers + 1));
    // The context has one metrics registry, so one reset clears every
    // counter, histogram and gauge a previous run on this environment
    // recorded.  The writer counters live on the persistence writers
    // themselves; the run reports their growth past this baseline.
    let ctx = env.mgr.context();
    ctx.telemetry().reset();
    let baseline = ctx.telemetry_snapshot();

    // With a lease configured, a background reaper collects expired
    // transactions for the whole measured window (interval: a quarter
    // lease, floored so short smoke leases don't busy-spin).
    let reaper = config.lease.map(|lease| {
        env.mgr
            .spawn_reaper((lease / 4).max(Duration::from_millis(5)))
    });

    // Per-partition counts only make sense (and only cost anything) for
    // partitioned runs.
    let home_parts = if config.partitions > 1 {
        config.partitions
    } else {
        0
    };
    let mut writer_handles = Vec::new();
    for w in 0..config.writers {
        let mgr = Arc::clone(&env.mgr);
        let states = [Arc::clone(&env.states[0]), Arc::clone(&env.states[1])];
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        let mut sampler = KeyGen::new(
            Arc::clone(&zipf),
            config.partitions.max(1) as u64,
            config.seed ^ (w as u64 + 1),
        );
        let tx_ops = config.tx_ops;
        let value = vec![0xCDu8; config.value_size];
        writer_handles.push(std::thread::spawn(move || -> (u64, u64, Vec<u64>) {
            let mut committed = 0u64;
            let mut aborted = 0u64;
            let mut per_part = vec![0u64; home_parts];
            barrier.wait();
            while !stop.load(Ordering::Relaxed) {
                let part = sampler.next_txn();
                let Ok(tx) = mgr.begin() else {
                    aborted += 1;
                    continue;
                };
                let mut failed = false;
                for op in 0..tx_ops {
                    let key = sampler.next_key_u32();
                    let state = &states[op % 2];
                    if state.write(&tx, key, value.clone()).is_err() {
                        failed = true;
                        break;
                    }
                }
                let outcome = if failed {
                    Err(())
                } else {
                    mgr.commit(&tx).map_err(|_| ())
                };
                match outcome {
                    Ok(_) => {
                        committed += 1;
                        if let Some(c) = per_part.get_mut(part) {
                            *c += 1;
                        }
                    }
                    Err(()) => {
                        let _ = mgr.abort(&tx);
                        aborted += 1;
                    }
                }
            }
            (committed, aborted, per_part)
        }));
    }

    let mut reader_handles = Vec::new();
    for r in 0..config.readers {
        let mgr = Arc::clone(&env.mgr);
        let states = [Arc::clone(&env.states[0]), Arc::clone(&env.states[1])];
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        let mut sampler = KeyGen::new(
            Arc::clone(&zipf),
            config.partitions.max(1) as u64,
            config.seed ^ 0xDEAD_BEEF ^ (r as u64 * 31 + 7),
        );
        let tx_ops = config.tx_ops;
        reader_handles.push(std::thread::spawn(
            move || -> (u64, u64, Histogram, Vec<Histogram>) {
                let mut committed = 0u64;
                let mut aborted = 0u64;
                let latencies = Histogram::new();
                let per_part: Vec<Histogram> = (0..home_parts).map(|_| Histogram::new()).collect();
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    let started = Instant::now();
                    let part = sampler.next_txn();
                    let Ok(tx) = mgr.begin_read_only() else {
                        aborted += 1;
                        continue;
                    };
                    let mut failed = false;
                    for op in 0..tx_ops {
                        let key = sampler.next_key_u32();
                        let state = &states[op % 2];
                        if state.read(&tx, &key).is_err() {
                            failed = true;
                            break;
                        }
                    }
                    let outcome = if failed {
                        Err(())
                    } else {
                        mgr.commit(&tx).map_err(|_| ())
                    };
                    match outcome {
                        Ok(_) => {
                            committed += 1;
                            let took = started.elapsed();
                            latencies.record(took);
                            if let Some(h) = per_part.get(part) {
                                h.record(took);
                            }
                        }
                        Err(()) => {
                            let _ = mgr.abort(&tx);
                            aborted += 1;
                        }
                    }
                }
                (committed, aborted, latencies, per_part)
            },
        ));
    }

    // Release all threads together, measure for the configured duration.
    barrier.wait();
    let started = Instant::now();
    std::thread::sleep(config.duration);
    stop.store(true, Ordering::Relaxed);
    let elapsed = started.elapsed();

    let mut writer_committed = 0;
    let mut writer_aborted = 0;
    let mut partition_writer_commits = vec![0u64; home_parts];
    for h in writer_handles {
        let (c, a, per_part) = h.join().expect("writer thread panicked");
        writer_committed += c;
        writer_aborted += a;
        for (acc, n) in partition_writer_commits.iter_mut().zip(per_part) {
            *acc += n;
        }
    }
    let mut reader_committed = 0;
    let mut reader_aborted = 0;
    let latencies = Histogram::new();
    let partition_latencies: Vec<Histogram> = (0..home_parts).map(|_| Histogram::new()).collect();
    for h in reader_handles {
        let (c, a, l, pl) = h.join().expect("reader thread panicked");
        reader_committed += c;
        reader_aborted += a;
        latencies.merge(&l);
        for (acc, part) in partition_latencies.iter().zip(pl.iter()) {
            acc.merge(part);
        }
    }

    let total = reader_committed + writer_committed;
    let telemetry = ctx.telemetry_snapshot();
    let stats = telemetry.stats;
    if let Some(reaper) = reaper {
        reaper.stop();
    }
    let admission_wait_p99 = (telemetry.admission_wait_nanos.count > 0)
        .then(|| Duration::from_nanos(telemetry.admission_wait_nanos.p99));
    Ok(RunResult {
        protocol: config.protocol,
        readers: config.readers,
        theta: config.theta,
        storage: config.storage,
        elapsed,
        reader_committed,
        reader_aborted,
        writer_committed,
        writer_aborted,
        throughput_ktps: throughput_ktps(total, elapsed),
        reader_ktps: throughput_ktps(reader_committed, elapsed),
        writer_tps: writer_committed as f64 / elapsed.as_secs_f64(),
        reader_p50: latencies.quantile(0.5),
        reader_p99: latencies.quantile(0.99),
        reader_p999: latencies.quantile(0.999),
        persist_retries: telemetry.persist_retries - baseline.persist_retries,
        writer_recoveries: telemetry.writer_recoveries - baseline.writer_recoveries,
        admission_waits: stats.admission_waits,
        admission_wait_p99,
        timed_out_commits: stats.durability_timeouts,
        lease_reaps: telemetry.lease_reaps,
        stats,
        partitions: config.partitions.max(1),
        partition_writer_commits,
        partition_reader_latency: partition_latencies
            .iter()
            .map(HistogramSummary::of)
            .collect(),
    })
}

/// Throughput helper: committed operations over a wall-clock window, in
/// thousands per second.
pub fn throughput_ktps(committed: u64, elapsed: Duration) -> f64 {
    if elapsed.is_zero() {
        return 0.0;
    }
    committed as f64 / elapsed.as_secs_f64() / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math() {
        assert_eq!(throughput_ktps(0, Duration::ZERO), 0.0);
        let t = throughput_ktps(250_000, Duration::from_secs(2));
        assert!((t - 125.0).abs() < 1e-9);
    }

    #[test]
    fn quick_run_all_protocols_make_progress() {
        for protocol in Protocol::ALL {
            let config = WorkloadConfig::quick(protocol);
            let result = run(&config).unwrap();
            assert!(
                result.reader_committed > 0,
                "{} readers made no progress",
                protocol.name()
            );
            assert!(
                result.writer_committed > 0,
                "{} writer made no progress",
                protocol.name()
            );
            assert!(result.throughput_ktps > 0.0);
            assert!(result.reader_p50.is_some());
            assert!(result.reader_p999 >= result.reader_p50);
            assert!(result.partition_reader_latency.is_empty());
            assert!(result.abort_ratio() >= 0.0);
        }
    }

    #[test]
    fn run_in_resets_what_an_earlier_run_recorded() {
        let config = WorkloadConfig::quick(Protocol::Mvcc);
        assert_eq!(config.lease, None);
        let env = BenchEnv::build(&config).unwrap();
        // What an earlier run on this environment left behind: a lease reap
        // and a bounded-admission wait, neither of which this run can cause
        // (no lease, no admission wait configured).
        let telemetry = env.mgr.context().telemetry();
        telemetry.bump(tsp_core::Counter::LeaseReaps);
        telemetry.admission_wait_nanos().record_nanos(5_000);
        let result = run_in(&config, &env).unwrap();
        assert_eq!(result.lease_reaps, 0);
        assert_eq!(result.admission_wait_p99, None);
        assert_eq!(result.admission_waits, 0);
    }

    #[test]
    fn lsm_sync_storage_works_end_to_end() {
        let config = WorkloadConfig {
            storage: StorageKind::LsmSync,
            table_size: 500,
            duration: Duration::from_millis(150),
            readers: 2,
            ..WorkloadConfig::quick(Protocol::Mvcc)
        };
        let result = run(&config).unwrap();
        assert!(result.reader_committed > 0);
        assert!(result.writer_committed > 0);
    }

    #[test]
    fn high_contention_aborts_appear_for_optimistic_protocols() {
        let config = WorkloadConfig {
            theta: 2.9,
            duration: Duration::from_millis(300),
            ..WorkloadConfig::quick(Protocol::Bocc)
        };
        let result = run(&config).unwrap();
        // Under θ=2.9 almost every reader touches the hottest key, so BOCC
        // must observe validation failures.
        assert!(
            result.reader_aborted > 0 || result.stats.validation_failures > 0,
            "expected validation conflicts under extreme contention"
        );
    }

    #[test]
    fn run_in_rejects_more_threads_than_the_context_holds() {
        // The environment is sized for the small config; re-running it with
        // far more readers than transaction slots must be rejected up front.
        let small = WorkloadConfig::quick(Protocol::Mvcc);
        let env = BenchEnv::build(&small).unwrap();
        let big = WorkloadConfig {
            readers: env.mgr.context().max_active_txns() + 1,
            ..small
        };
        assert!(run_in(&big, &env).is_err());
    }

    #[test]
    fn build_sizes_the_context_for_high_concurrency() {
        let config = WorkloadConfig {
            readers: 100,
            duration: Duration::from_millis(100),
            ..WorkloadConfig::quick(Protocol::Mvcc)
        };
        let env = BenchEnv::build(&config).unwrap();
        assert!(env.mgr.context().max_active_txns() >= 102);
        let result = run_in(&config, &env).unwrap();
        assert!(result.reader_committed > 0);
    }

    #[test]
    fn partitioned_quick_run_all_protocols_make_progress() {
        for protocol in Protocol::ALL {
            let config = WorkloadConfig {
                partitions: 2,
                ..WorkloadConfig::quick(protocol)
            };
            let result = run(&config).unwrap();
            assert!(
                result.reader_committed > 0,
                "{} partitioned readers made no progress",
                protocol.name()
            );
            assert!(
                result.writer_committed > 0,
                "{} partitioned writer made no progress",
                protocol.name()
            );
            assert_eq!(result.partitions, 2);
            assert_eq!(result.partition_writer_commits.len(), 2);
            // Partition-local key generation spreads transactions over both
            // partitions, and each partition commits.
            assert!(
                result.partition_writer_commits.iter().all(|&c| c > 0),
                "{} left a partition idle: {:?}",
                protocol.name(),
                result.partition_writer_commits
            );
            // Reader latency is resolved per home partition as well.
            assert_eq!(result.partition_reader_latency.len(), 2);
            assert!(
                result.partition_reader_latency.iter().all(|s| s.count > 0),
                "{} recorded no per-partition latency: {:?}",
                protocol.name(),
                result.partition_reader_latency
            );
            let recorded: u64 = result
                .partition_reader_latency
                .iter()
                .map(|s| s.count)
                .sum();
            assert_eq!(recorded, result.reader_committed);
        }
    }

    #[test]
    fn partitioned_lsm_storage_works_end_to_end() {
        let config = WorkloadConfig {
            storage: StorageKind::LsmSync,
            table_size: 500,
            duration: Duration::from_millis(150),
            readers: 2,
            partitions: 2,
            ..WorkloadConfig::quick(Protocol::Mvcc)
        };
        let result = run(&config).unwrap();
        assert!(result.reader_committed > 0);
        assert!(result.writer_committed > 0);
    }

    #[test]
    fn run_in_rejects_partition_count_mismatch() {
        let config = WorkloadConfig {
            partitions: 2,
            ..WorkloadConfig::quick(Protocol::Mvcc)
        };
        let env = BenchEnv::build(&config).unwrap();
        let wrong = WorkloadConfig {
            partitions: 1,
            ..config
        };
        assert!(run_in(&wrong, &env).is_err());
    }

    #[test]
    fn build_rejects_more_partitions_than_keys() {
        let config = WorkloadConfig {
            partitions: 10,
            table_size: 5,
            ..WorkloadConfig::quick(Protocol::Mvcc)
        };
        assert!(BenchEnv::build(&config).is_err());
    }

    #[test]
    fn protocol_and_storage_names() {
        assert_eq!(Protocol::Mvcc.name(), "MVCC");
        assert_eq!(Protocol::S2pl.name(), "S2PL");
        assert_eq!(Protocol::Bocc.name(), "BOCC");
        assert_eq!(StorageKind::InMemory.name(), "mem");
        assert_eq!(StorageKind::LsmSync.name(), "lsm-sync");
        assert_eq!(StorageKind::LsmNoSync.name(), "lsm-nosync");
    }
}

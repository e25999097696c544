//! `commitpath` — multithreaded write/commit-path throughput sweep.
//!
//! The regression bench guarding the two-stage commit pipeline (the group
//! commit locks + pipelined persistence): N worker threads run short
//! read-modify-write transactions against one table through the
//! protocol-agnostic [`TransactionalTable`] trait, so every commit contends
//! for the one group's commit lock.  Two mixes are swept:
//!
//! * `write_heavy` — θ = 0.0 (uniform keys), 10 % reads: commits dominated by
//!   apply + persistence, the shape of an ingest-heavy stream deployment;
//! * `mixed` — θ = 0.8 (skewed keys), 50 % reads: the commit lock under
//!   hot-key conflict pressure.
//!
//! Each mix runs on a volatile table and on a persistent one (the LSM store
//! with synchronous fsync — the paper's §5.1 setting); with the pipeline
//! enabled, persistent cells commit through the asynchronous batch writer
//! and the cell additionally reports `flush_ms`, the time to drain the
//! durability backlog after the timed window (honest accounting for the
//! deferred I/O).
//!
//! With `--partitions N1,N2,…` each cell additionally sweeps key-space
//! partition counts: partitions > 1 shard the table into a
//! [`PartitionedTable`] by contiguous key ranges — one commit group, one
//! persistence queue and (for `lsm_sync`) one base table *per partition* —
//! and the workers draw partition-local keys so every transaction is
//! single-partition.  This is the scale-out sweep `BENCH_partition.json`
//! records.
//!
//! Every committed transaction's latency is recorded (commits run in the
//! microsecond-to-millisecond range, so two clock reads are noise here) and
//! each cell reports p50/p99/p999.  `--metrics-json PATH` additionally dumps
//! each cell's [`TelemetrySnapshot`] — stage timings for validate / apply /
//! durable-handoff, the persistence queue histograms and the abort taxonomy
//! (see `docs/ARCHITECTURE.md`).
//!
//! Usage:
//!   commitpath [--duration-ms N] [--threads 1,4,8] [--table-size N]
//!              [--label NAME] [--out PATH] [--metrics-json PATH]
//!              [--protocols mvcc,...] [--dir PATH] [--partitions 1,4]
//!              [--lease-ms N] [--zombies N]
//!              \[--fault-profile transient\[:seed\]|nth:N\[:permanent\]|crash_after:N|slow\[:seed\]\]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsp_common::Histogram;
use tsp_core::prelude::*;
use tsp_storage::{lsm, FaultInjectingBackend, FaultPlan, LsmOptions, LsmStore, StorageBackend};
use tsp_workload::zipf::{KeyGen, ZipfTable};

/// Operations attempted per transaction.
const OPS_PER_TXN: usize = 8;

#[derive(Clone, Copy)]
struct MixConfig {
    name: &'static str,
    theta: f64,
    read_pct: f64,
}

const CONFIGS: [MixConfig; 2] = [
    MixConfig {
        name: "write_heavy",
        theta: 0.0,
        read_pct: 0.10,
    },
    MixConfig {
        name: "mixed",
        theta: 0.8,
        read_pct: 0.50,
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Backend {
    Volatile,
    LsmSync,
}

impl Backend {
    fn name(self) -> &'static str {
        match self {
            Backend::Volatile => "volatile",
            Backend::LsmSync => "lsm_sync",
        }
    }
}

struct CellResult {
    protocol: Protocol,
    config: &'static str,
    backend: &'static str,
    threads: usize,
    partitions: usize,
    committed_txns: u64,
    ops: u64,
    aborts: u64,
    /// Zombie transactions force-aborted by the lease reaper (0 unless
    /// `--lease-ms` is set).
    lease_reaps: u64,
    elapsed_ms: u64,
    flush_ms: u64,
    /// Committed-transaction latency (nanoseconds).
    txn_p50_ns: u64,
    txn_p99_ns: u64,
    txn_p999_ns: u64,
    /// The cell context's [`TelemetrySnapshot`] as JSON (for `--metrics-json`).
    telemetry_json: String,
}

impl CellResult {
    fn commits_per_sec(&self) -> f64 {
        if self.elapsed_ms == 0 {
            return 0.0;
        }
        self.committed_txns as f64 * 1000.0 / self.elapsed_ms as f64
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"protocol\":\"{}\",\"config\":\"{}\",\"backend\":\"{}\",",
                "\"threads\":{},\"partitions\":{},",
                "\"committed_txns\":{},\"ops\":{},\"aborts\":{},\"lease_reaps\":{},",
                "\"elapsed_ms\":{},\"flush_ms\":{},\"commits_per_sec\":{:.0},",
                "\"txn_p50_ns\":{},\"txn_p99_ns\":{},\"txn_p999_ns\":{}}}"
            ),
            self.protocol.name(),
            self.config,
            self.backend,
            self.threads,
            self.partitions,
            self.committed_txns,
            self.ops,
            self.aborts,
            self.lease_reaps,
            self.elapsed_ms,
            self.flush_ms,
            self.commits_per_sec(),
            self.txn_p50_ns,
            self.txn_p99_ns,
            self.txn_p999_ns
        )
    }

    /// The cell identity plus its internal telemetry, for `--metrics-json`.
    fn to_metrics_json(&self) -> String {
        format!(
            concat!(
                "{{\"protocol\":\"{}\",\"config\":\"{}\",\"backend\":\"{}\",",
                "\"threads\":{},\"partitions\":{},\"telemetry\":{}}}"
            ),
            self.protocol.name(),
            self.config,
            self.backend,
            self.threads,
            self.partitions,
            self.telemetry_json
        )
    }
}

struct Options {
    duration: Duration,
    threads: Vec<usize>,
    table_size: u64,
    label: String,
    out: Option<std::path::PathBuf>,
    metrics_json: Option<std::path::PathBuf>,
    protocols: Vec<Protocol>,
    dir: std::path::PathBuf,
    partitions: Vec<usize>,
    sync_persist: bool,
    backends: Vec<Backend>,
    fault_plan: Option<FaultPlan>,
    lease: Option<Duration>,
    zombies: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            duration: Duration::from_millis(1000),
            threads: vec![1, 4, 8],
            table_size: 65_536,
            label: "run".to_string(),
            out: None,
            metrics_json: None,
            protocols: vec![Protocol::Mvcc],
            dir: std::env::temp_dir().join(format!("tsp-commitpath-{}", std::process::id())),
            partitions: vec![1],
            sync_persist: false,
            backends: vec![Backend::Volatile, Backend::LsmSync],
            fault_plan: None,
            lease: None,
            zombies: 0,
        }
    }
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match arg.as_str() {
            "--duration-ms" => {
                opts.duration =
                    Duration::from_millis(value("--duration-ms").parse().expect("duration in ms"));
            }
            "--threads" => {
                opts.threads = value("--threads")
                    .split(',')
                    .map(|s| s.trim().parse().expect("thread count"))
                    .collect();
            }
            "--table-size" => {
                opts.table_size = value("--table-size").parse().expect("table size");
            }
            "--label" => opts.label = value("--label"),
            "--out" => opts.out = Some(value("--out").into()),
            "--metrics-json" => opts.metrics_json = Some(value("--metrics-json").into()),
            "--protocols" => {
                opts.protocols = value("--protocols")
                    .split(',')
                    .map(|s| Protocol::parse(s.trim()).expect("protocol name"))
                    .collect();
            }
            "--dir" => opts.dir = value("--dir").into(),
            // Keep persistence *synchronous* (fsync inside the commit
            // critical section, the paper's §5.1 configuration) instead of
            // the PR 5 asynchronous pipeline.  This is the configuration
            // where per-partition commit locks pay off most visibly: N
            // partitions fsync N WALs concurrently.
            "--sync-persist" => opts.sync_persist = true,
            "--backends" => {
                opts.backends = value("--backends")
                    .split(',')
                    .map(|s| match s.trim() {
                        "volatile" => Backend::Volatile,
                        "lsm_sync" | "lsm" => Backend::LsmSync,
                        other => panic!("unknown backend {other}"),
                    })
                    .collect();
            }
            "--partitions" => {
                opts.partitions = value("--partitions")
                    .split(',')
                    .map(|s| s.trim().parse().expect("partition count"))
                    .collect();
            }
            // Deterministic fault injection on the persistent backend's
            // batch writes: `transient[:seed]`, `nth:<n>[:permanent]`,
            // `slow[:seed]` or `none` (see `tsp_storage::FaultPlan`).
            // Transient faults are absorbed by the writer's retry policy;
            // sticky failures are healed by a recovery sweep at flush time,
            // so the cell still reports honest end-to-end numbers.
            "--fault-profile" => {
                opts.fault_plan =
                    FaultPlan::parse(&value("--fault-profile")).expect("fault profile");
            }
            // Transaction lease (see "Transaction lifecycle & leases" in
            // docs/ARCHITECTURE.md): expired transactions are force-aborted
            // by a background reaper.  Off by default — the bench then
            // measures the exact pre-lease commit path.
            "--lease-ms" => {
                opts.lease = Some(Duration::from_millis(
                    value("--lease-ms").parse().expect("lease in ms"),
                ));
            }
            // Zombie clients: N transactions begun at the start of the
            // measured window and abandoned (handle leaked) — the
            // degraded-mode cell showing throughput recovering once the
            // reaper collects them.  Requires --lease-ms to ever recover.
            "--zombies" => {
                opts.zombies = value("--zombies").parse().expect("zombie count");
            }
            "--help" | "-h" => {
                eprintln!(
                    "commitpath [--duration-ms N] [--threads 1,4,8] \
                     [--table-size N] [--label NAME] [--out PATH] \
                     [--metrics-json PATH] \
                     [--protocols mvcc,s2pl,bocc,ssi] [--dir PATH] \
                     [--partitions 1,4] [--sync-persist] \
                     [--backends volatile,lsm_sync] \
                     [--lease-ms N] [--zombies N] \
                     [--fault-profile none|transient[:seed]|nth:N[:permanent]|crash_after:N|slow[:seed]]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other}"),
        }
    }
    opts
}

/// One benchmark cell: `threads` committers over a fresh table (sharded
/// into `partitions` shards when > 1, with one LSM base table per
/// partition for the persistent backend).
fn run_cell(
    protocol: Protocol,
    config: MixConfig,
    backend_kind: Backend,
    threads: usize,
    partitions: usize,
    opts: &Options,
) -> CellResult {
    let cell_dir = opts.dir.join(format!(
        "{}-{}-{}-{}-p{}",
        protocol.name(),
        config.name,
        backend_kind.name(),
        threads,
        partitions
    ));
    if backend_kind == Backend::LsmSync {
        let _ = std::fs::remove_dir_all(&cell_dir);
    }
    // Fault decorators start disarmed so the preload runs clean; they are
    // armed once the measured window begins.
    let fault_backends: std::cell::RefCell<Vec<Arc<FaultInjectingBackend>>> =
        std::cell::RefCell::new(Vec::new());
    let open_backend = |path: std::path::PathBuf| -> Option<Arc<dyn StorageBackend>> {
        match backend_kind {
            Backend::Volatile => None,
            Backend::LsmSync => {
                let store: Arc<dyn StorageBackend> =
                    Arc::new(LsmStore::open(path, LsmOptions::default()).expect("open LSM store"));
                Some(match opts.fault_plan {
                    Some(plan) => {
                        let faulty = FaultInjectingBackend::wrap(store, plan);
                        faulty.set_armed(false);
                        fault_backends.borrow_mut().push(Arc::clone(&faulty));
                        faulty as _
                    }
                    None => store,
                })
            }
        }
    };
    let capacity = (threads * 2 + 8).max(64);
    let ctx = Arc::new(StateContext::with_capacity(capacity));
    if !opts.sync_persist {
        ctx.enable_async_persistence(); // NEW-PIPELINE-API
    }
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let table: TableHandle<u64, u64> = if partitions > 1 {
        let chunk = opts.table_size / partitions as u64;
        let bounds: Vec<u64> = (1..partitions).map(|p| p as u64 * chunk).collect();
        PartitionedTable::with_partitioner(
            &mgr,
            protocol,
            "commit",
            partitions,
            |p| open_backend(cell_dir.join(format!("p{p}"))),
            Arc::new(RangePartitioner::new(bounds)),
        )
    } else {
        let table =
            protocol.create_table::<u64, u64>(&ctx, "commit", open_backend(cell_dir.clone()));
        mgr.register(Arc::clone(&table).as_participant());
        mgr.register_group(&[table.id()]).unwrap();
        table
    };
    table
        .preload_iter(&mut (0..opts.table_size).map(|k| (k, k)))
        .unwrap();
    // Preload is durable before faults arm: a sticky failure mid-preload
    // would measure recovery of the load phase, not of the workload.
    mgr.flush().expect("preload flush");
    for faulty in fault_backends.borrow().iter() {
        faulty.set_armed(true);
    }

    // Lease + reaper: armed after the preload so loading never races a
    // sweep.  Zombie clients begin, buffer a few writes and leak their
    // handle — slots, GC pins and (S2PL) locks stay wedged until the
    // reaper collects them, which is exactly the degraded-mode window the
    // cell measures.
    if let Some(lease) = opts.lease {
        ctx.set_transaction_lease(Some(lease));
    }
    let reaper = opts
        .lease
        .map(|lease| mgr.spawn_reaper((lease / 4).max(Duration::from_millis(5))));
    for z in 0..opts.zombies {
        if let Ok(tx) = mgr.begin() {
            for i in 0..4u64 {
                let _ = table.write(&tx, (z as u64 * 7 + i) % opts.table_size, 0);
            }
            // `Tx` has no Drop impl — leaking the handle without abort is
            // how an abandoned client looks to the engine.
            #[allow(clippy::forget_non_drop)]
            std::mem::forget(tx);
        }
    }

    // Partition-local sampling draws Zipf offsets within one chunk.
    let chunk = if partitions > 1 {
        (opts.table_size / partitions as u64).max(1)
    } else {
        opts.table_size
    };
    let zipf = ZipfTable::new(chunk, config.theta, true);
    let stop = Arc::new(AtomicBool::new(false));
    let latency = Arc::new(Histogram::new());
    let started = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let mgr = Arc::clone(&mgr);
            let table = Arc::clone(&table);
            let zipf = Arc::clone(&zipf);
            let stop = Arc::clone(&stop);
            let latency = Arc::clone(&latency);
            std::thread::spawn(move || {
                let mut sampler = KeyGen::new(zipf, partitions as u64, 0xc0117 + t as u64);
                let mut coin = 0x9e3779b97f4a7c15u64 ^ (t as u64).wrapping_mul(0xff51afd7ed558ccd);
                let mut next_coin = move || {
                    coin ^= coin << 13;
                    coin ^= coin >> 7;
                    coin ^= coin << 17;
                    (coin >> 11) as f64 / (1u64 << 53) as f64
                };
                let (mut committed, mut ops, mut aborts) = (0u64, 0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    sampler.next_txn();
                    let tx = match mgr.begin() {
                        Ok(tx) => tx,
                        Err(_) => {
                            std::thread::yield_now();
                            continue;
                        }
                    };
                    let mut done = 0u64;
                    let mut failed = false;
                    for _ in 0..OPS_PER_TXN {
                        let key = sampler.next_key();
                        let result = if next_coin() < config.read_pct {
                            table.read(&tx, &key).map(|_| ())
                        } else {
                            table.write(&tx, key, key.wrapping_add(1))
                        };
                        match result {
                            Ok(()) => done += 1,
                            Err(_) => {
                                let _ = mgr.abort(&tx);
                                aborts += 1;
                                failed = true;
                                break;
                            }
                        }
                    }
                    if failed {
                        continue;
                    }
                    match mgr.commit(&tx) {
                        Ok(_) => {
                            committed += 1;
                            ops += done;
                            latency.record(t0.elapsed());
                        }
                        Err(_) => aborts += 1,
                    }
                }
                (committed, ops, aborts)
            })
        })
        .collect();

    std::thread::sleep(opts.duration);
    stop.store(true, Ordering::Relaxed);
    let (mut committed, mut ops, mut aborts) = (0u64, 0u64, 0u64);
    for h in handles {
        let (c, o, a) = h.join().unwrap();
        committed += c;
        ops += o;
        aborts += a;
    }
    let elapsed_ms = started.elapsed().as_millis() as u64;
    // Under `crash_after:N` the backend is permanently dark — the cell
    // measures commit throughput up to (and error handling after) the
    // crash point.  Disarm the wrappers before the drain below so the
    // flush + recovery sweeps measure healing against a live device, not
    // a 100-iteration spin against a dead one.
    if matches!(opts.fault_plan, Some(p) if p.crash_after.is_some()) {
        for faulty in fault_backends.borrow().iter() {
            faulty.set_armed(false);
        }
    }
    // Drain the durability backlog and charge it to the cell explicitly.
    // Under an injected fault profile the flush may find sticky-failed
    // writers; a recovery sweep heals them and the retained backlog is
    // replayed — the heal-and-retry time is charged to `flush_ms` too.
    let flush_ms;
    {
        let flush_started = Instant::now();
        let mut result = mgr.flush(); // NEW-PIPELINE-API
        for _ in 0..100 {
            if result.is_ok() {
                break;
            }
            let _ = mgr.try_recover_writers();
            result = mgr.flush();
        }
        result.expect("durability flush (after recovery sweeps)");
        flush_ms = flush_started.elapsed().as_millis() as u64;
    }
    // Internal view of the same run, captured after the flush so the
    // persistence histograms cover the drained backlog too.
    let telemetry = ctx.telemetry_snapshot();
    if let Some(reaper) = reaper {
        reaper.stop();
    }
    drop(table);
    drop(mgr);
    drop(ctx);
    if backend_kind == Backend::LsmSync {
        if partitions > 1 {
            // The cell dir holds one LSM store per partition.
            let _ = std::fs::remove_dir_all(&cell_dir);
        } else {
            let _ = lsm::destroy(&cell_dir);
        }
    }
    CellResult {
        protocol,
        config: config.name,
        backend: backend_kind.name(),
        threads,
        partitions,
        committed_txns: committed,
        ops,
        aborts,
        lease_reaps: telemetry.lease_reaps,
        elapsed_ms,
        flush_ms,
        txn_p50_ns: latency.quantile_value(0.5).unwrap_or(0),
        txn_p99_ns: latency.quantile_value(0.99).unwrap_or(0),
        txn_p999_ns: latency.quantile_value(0.999).unwrap_or(0),
        telemetry_json: telemetry.to_json(),
    }
}

fn main() {
    let opts = parse_args();
    let mut cells = Vec::new();
    for config in CONFIGS {
        for &backend in &opts.backends {
            for &protocol in &opts.protocols {
                for &partitions in &opts.partitions {
                    for &threads in &opts.threads {
                        let cell = run_cell(protocol, config, backend, threads, partitions, &opts);
                        eprintln!(
                            "{:<5} {:<11} {:<8} {:>2} threads {:>2} parts: {:>9.0} commits/s \
                             ({} txns, {} aborts, {} reaps, flush {} ms)",
                            cell.protocol.name(),
                            cell.config,
                            cell.backend,
                            cell.threads,
                            cell.partitions,
                            cell.commits_per_sec(),
                            cell.committed_txns,
                            cell.aborts,
                            cell.lease_reaps,
                            cell.flush_ms
                        );
                        cells.push(cell);
                    }
                }
            }
        }
    }
    let body = cells
        .iter()
        .map(|c| format!("    {}", c.to_json()))
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        concat!(
            "{{\n  \"label\": \"{}\",\n  \"available_cpus\": {},\n",
            "  \"duration_ms\": {},\n  \"table_size\": {},\n",
            "  \"ops_per_txn\": {},\n  \"cells\": [\n{}\n  ]\n}}\n"
        ),
        opts.label,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        opts.duration.as_millis(),
        opts.table_size,
        OPS_PER_TXN,
        body
    );
    print!("{json}");
    if let Some(path) = &opts.out {
        std::fs::write(path, &json).expect("write --out file");
        eprintln!("wrote {}", path.display());
    }
    if let Some(path) = &opts.metrics_json {
        let body = cells
            .iter()
            .map(|c| format!("    {}", c.to_metrics_json()))
            .collect::<Vec<_>>()
            .join(",\n");
        let metrics = format!(
            "{{\n  \"label\": \"{}\",\n  \"cells\": [\n{}\n  ]\n}}\n",
            opts.label, body
        );
        std::fs::write(path, &metrics).expect("write --metrics-json file");
        eprintln!("wrote {}", path.display());
    }
    let _ = std::fs::remove_dir_all(&opts.dir);
}

//! `hotpath` — multithreaded read-fast-path throughput sweep.
//!
//! This is the regression bench guarding the latch-free read path: N worker
//! threads hammer one volatile table through the protocol-agnostic
//! [`TransactionalTable`] trait, each running short transactions of point
//! reads and occasional writes over a Zipfian key space.  Two configurations
//! are swept:
//!
//! * `read_heavy` — θ = 0.0 (uniform keys), 95 % reads, the scaling shape of
//!   a dashboard / ad-hoc-query dominated deployment;
//! * `mixed` — θ = 0.8 (skewed keys), 50 % reads, where write conflicts and
//!   hot-key contention start to matter.
//!
//! Each cell reports committed transactions, operations, aborts and ops/s.
//! The binary prints a JSON document (and optionally writes it to `--out`)
//! so CI can archive the numbers; `BENCH_hotpath.json` at the repo root
//! keeps a before/after pair for the latch-free read-path rework.
//!
//! With `--partitions N1,N2,…` each cell additionally sweeps key-space
//! partition counts: partitions > 1 shard the table into a
//! [`PartitionedTable`] by contiguous key ranges and the workers draw
//! partition-local keys (a home partition per transaction), so every
//! transaction is single-partition — the scale-out shape
//! `BENCH_partition.json` records.
//!
//! Each cell also samples transaction latency (1-in-16 transactions, so the
//! clock reads stay far below the bench's noise floor) and reports
//! p50/p99/p999 next to the throughput numbers.  `--metrics-json PATH`
//! additionally dumps each cell's [`TelemetrySnapshot`] — the commit-pipeline
//! stage timings and abort taxonomy described in `docs/ARCHITECTURE.md` —
//! so CI can archive the internal view alongside the external one.
//!
//! Usage:
//!   hotpath [--duration-ms N] [--threads 1,2,4,8,16] [--table-size N]
//!           [--label NAME] [--out PATH] [--metrics-json PATH]
//!           [--protocols mvcc,s2pl,bocc,ssi] [--partitions 1,4]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsp_common::Histogram;
use tsp_core::prelude::*;
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
        name: "read_heavy",
        theta: 0.0,
        read_pct: 0.95,
    },
    MixConfig {
        name: "mixed",
        theta: 0.8,
        read_pct: 0.50,
    },
];

struct CellResult {
    protocol: Protocol,
    config: &'static str,
    theta: f64,
    read_pct: f64,
    threads: usize,
    partitions: usize,
    committed_txns: u64,
    ops: u64,
    aborts: u64,
    elapsed_ms: u64,
    /// Sampled committed-transaction latency (nanoseconds).
    txn_p50_ns: u64,
    txn_p99_ns: u64,
    txn_p999_ns: u64,
    /// The cell context's [`TelemetrySnapshot`] as JSON (for `--metrics-json`).
    telemetry_json: String,
}

impl CellResult {
    fn ops_per_sec(&self) -> f64 {
        if self.elapsed_ms == 0 {
            return 0.0;
        }
        self.ops as f64 * 1000.0 / self.elapsed_ms as f64
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"protocol\":\"{}\",\"config\":\"{}\",\"theta\":{},",
                "\"read_pct\":{},\"threads\":{},\"partitions\":{},",
                "\"committed_txns\":{},",
                "\"ops\":{},\"aborts\":{},\"elapsed_ms\":{},\"ops_per_sec\":{:.0},",
                "\"txn_p50_ns\":{},\"txn_p99_ns\":{},\"txn_p999_ns\":{}}}"
            ),
            self.protocol.name(),
            self.config,
            self.theta,
            self.read_pct,
            self.threads,
            self.partitions,
            self.committed_txns,
            self.ops,
            self.aborts,
            self.elapsed_ms,
            self.ops_per_sec(),
            self.txn_p50_ns,
            self.txn_p99_ns,
            self.txn_p999_ns
        )
    }

    /// The cell identity plus its internal telemetry, for `--metrics-json`.
    fn to_metrics_json(&self) -> String {
        format!(
            concat!(
                "{{\"protocol\":\"{}\",\"config\":\"{}\",\"threads\":{},",
                "\"partitions\":{},\"telemetry\":{}}}"
            ),
            self.protocol.name(),
            self.config,
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
    custom: Vec<MixConfig>,
    partitions: Vec<usize>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            duration: Duration::from_millis(1000),
            threads: vec![1, 2, 4, 8, 16],
            table_size: 65_536,
            label: "run".to_string(),
            out: None,
            metrics_json: None,
            protocols: Protocol::ALL.to_vec(),
            custom: Vec::new(),
            partitions: vec![1],
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
            "--custom" => {
                // name:theta:read_pct — replaces the built-in config sweep
                // (repeatable).  For isolating which workload axis moves a
                // number without editing the bench.
                let spec = value("--custom");
                let mut it = spec.split(':');
                let name: &'static str = Box::leak(
                    it.next()
                        .expect("custom config name")
                        .to_string()
                        .into_boxed_str(),
                );
                let theta: f64 = it.next().expect("theta").parse().expect("theta");
                let read_pct: f64 = it.next().expect("read_pct").parse().expect("read_pct");
                opts.custom.push(MixConfig {
                    name,
                    theta,
                    read_pct,
                });
            }
            "--partitions" => {
                opts.partitions = value("--partitions")
                    .split(',')
                    .map(|s| s.trim().parse().expect("partition count"))
                    .collect();
            }
            "--help" | "-h" => {
                eprintln!(
                    "hotpath [--duration-ms N] [--threads 1,2,4,8,16] \
                     [--table-size N] [--label NAME] [--out PATH] \
                     [--metrics-json PATH] \
                     [--protocols mvcc,s2pl,bocc,ssi] [--partitions 1,4] \
                     [--custom name:theta:read_pct]..."
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other}"),
        }
    }
    opts
}

/// One benchmark cell: `threads` workers over a fresh table (sharded into
/// `partitions` shards when > 1).
fn run_cell(
    protocol: Protocol,
    config: MixConfig,
    threads: usize,
    partitions: usize,
    table_size: u64,
    duration: Duration,
) -> CellResult {
    let capacity = (threads * 2 + 8).max(64);
    let ctx = Arc::new(StateContext::with_capacity(capacity));
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let table: TableHandle<u64, u64> = if partitions > 1 {
        let chunk = table_size / partitions as u64;
        let bounds: Vec<u64> = (1..partitions).map(|p| p as u64 * chunk).collect();
        PartitionedTable::with_partitioner(
            &mgr,
            protocol,
            "hot",
            partitions,
            |_| None,
            Arc::new(RangePartitioner::new(bounds)),
        )
    } else {
        let table = protocol.create_table::<u64, u64>(&ctx, "hot", None);
        mgr.register(Arc::clone(&table).as_participant());
        mgr.register_group(&[table.id()]).unwrap();
        table
    };
    table
        .preload_iter(&mut (0..table_size).map(|k| (k, k)))
        .unwrap();

    // Partition-local sampling draws Zipf offsets within one chunk.
    let chunk = if partitions > 1 {
        (table_size / partitions as u64).max(1)
    } else {
        table_size
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
                let mut sampler = KeyGen::new(zipf, partitions as u64, 0x5eed + t as u64);
                // Cheap xorshift for the read/write coin so the Zipf sampler
                // stays dedicated to key draws.
                let mut coin = 0x9e3779b97f4a7c15u64 ^ (t as u64).wrapping_mul(0xff51afd7ed558ccd);
                let mut next_coin = move || {
                    coin ^= coin << 13;
                    coin ^= coin >> 7;
                    coin ^= coin << 17;
                    (coin >> 11) as f64 / (1u64 << 53) as f64
                };
                let (mut committed, mut ops, mut aborts) = (0u64, 0u64, 0u64);
                let mut attempts = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Sample 1-in-16 transactions for latency: two clock
                    // reads per sampled txn keep the recording overhead far
                    // below the read path's noise floor while still giving
                    // tens of thousands of samples per second.
                    let t0 = (attempts & 0xF == 0).then(Instant::now);
                    attempts += 1;
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
                                // Wait-die / eager-conflict style abort
                                // mid-transaction: roll back and retry.
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
                            if let Some(t0) = t0 {
                                latency.record(t0.elapsed());
                            }
                        }
                        Err(_) => aborts += 1,
                    }
                }
                (committed, ops, aborts)
            })
        })
        .collect();

    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let (mut committed, mut ops, mut aborts) = (0u64, 0u64, 0u64);
    for h in handles {
        let (c, o, a) = h.join().unwrap();
        committed += c;
        ops += o;
        aborts += a;
    }
    // Internal view of the same run: commit-pipeline stage timings, abort
    // taxonomy, persistence gauges.
    let telemetry = ctx.telemetry_snapshot();
    CellResult {
        protocol,
        config: config.name,
        theta: config.theta,
        read_pct: config.read_pct,
        threads,
        partitions,
        committed_txns: committed,
        ops,
        aborts,
        elapsed_ms: started.elapsed().as_millis() as u64,
        txn_p50_ns: latency.quantile_value(0.5).unwrap_or(0),
        txn_p99_ns: latency.quantile_value(0.99).unwrap_or(0),
        txn_p999_ns: latency.quantile_value(0.999).unwrap_or(0),
        telemetry_json: telemetry.to_json(),
    }
}

fn main() {
    let opts = parse_args();
    let mut cells = Vec::new();
    let configs: Vec<MixConfig> = if opts.custom.is_empty() {
        CONFIGS.to_vec()
    } else {
        opts.custom.clone()
    };
    for config in configs {
        for &protocol in &opts.protocols {
            for &partitions in &opts.partitions {
                for &threads in &opts.threads {
                    let cell = run_cell(
                        protocol,
                        config,
                        threads,
                        partitions,
                        opts.table_size,
                        opts.duration,
                    );
                    eprintln!(
                        "{:<5} {:<10} {:>2} threads {:>2} parts: {:>10.0} ops/s \
                         ({} txns, {} aborts)",
                        cell.protocol.name(),
                        cell.config,
                        cell.threads,
                        cell.partitions,
                        cell.ops_per_sec(),
                        cell.committed_txns,
                        cell.aborts
                    );
                    cells.push(cell);
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
}

//! YCSB-style workload mixes over a single queryable state.
//!
//! The paper's micro-benchmark (§5.1) fixes one workload shape: a writing
//! stream plus read-only ad-hoc queries.  To characterise the protocols
//! beyond that point in the design space — read-modify-write transactions,
//! mixed read/update clients — this module adds the standard YCSB core
//! workload mixes (A–F) as an *extension* experiment (documented in
//! DESIGN.md's ablation table).  The contention knob is the same Zipfian
//! sampler the Figure-4 harness uses, so results are directly comparable.

use crate::harness::Protocol;
use crate::zipf::{ZipfSampler, ZipfTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tsp_common::{Histogram, Result};
use tsp_core::prelude::*;

/// One logical YCSB operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum YcsbOp {
    /// Point read of one key.
    Read,
    /// Blind update of one key.
    Update,
    /// Insert of a fresh key (appends to the key space).
    Insert,
    /// Read followed by an update of the same key.
    ReadModifyWrite,
    /// Short scan starting at one key (modelled as a batch of point reads of
    /// consecutive keys, since the benchmark schema is a hash-keyed state).
    Scan,
}

/// Operation proportions of one workload mix (must sum to 1.0).
#[derive(Clone, Copy, Debug)]
pub struct YcsbMix {
    /// Mix label shown in reports ("A" … "F" or a custom name).
    pub name: &'static str,
    /// Fraction of point reads.
    pub read: f64,
    /// Fraction of blind updates.
    pub update: f64,
    /// Fraction of inserts.
    pub insert: f64,
    /// Fraction of read-modify-write operations.
    pub rmw: f64,
    /// Fraction of short scans.
    pub scan: f64,
}

impl YcsbMix {
    /// Workload A: update heavy (50 % reads, 50 % updates).
    pub const A: YcsbMix = YcsbMix {
        name: "A",
        read: 0.5,
        update: 0.5,
        insert: 0.0,
        rmw: 0.0,
        scan: 0.0,
    };
    /// Workload B: read mostly (95 % reads, 5 % updates).
    pub const B: YcsbMix = YcsbMix {
        name: "B",
        read: 0.95,
        update: 0.05,
        insert: 0.0,
        rmw: 0.0,
        scan: 0.0,
    };
    /// Workload C: read only.
    pub const C: YcsbMix = YcsbMix {
        name: "C",
        read: 1.0,
        update: 0.0,
        insert: 0.0,
        rmw: 0.0,
        scan: 0.0,
    };
    /// Workload D: read latest (95 % reads, 5 % inserts).
    pub const D: YcsbMix = YcsbMix {
        name: "D",
        read: 0.95,
        update: 0.0,
        insert: 0.05,
        rmw: 0.0,
        scan: 0.0,
    };
    /// Workload E: short scans (95 % scans, 5 % inserts).
    pub const E: YcsbMix = YcsbMix {
        name: "E",
        read: 0.0,
        update: 0.0,
        insert: 0.05,
        rmw: 0.0,
        scan: 0.95,
    };
    /// Workload F: read-modify-write (50 % reads, 50 % RMW).
    pub const F: YcsbMix = YcsbMix {
        name: "F",
        read: 0.5,
        update: 0.0,
        insert: 0.0,
        rmw: 0.5,
        scan: 0.0,
    };

    /// All six standard mixes.
    pub const ALL: [YcsbMix; 6] = [
        YcsbMix::A,
        YcsbMix::B,
        YcsbMix::C,
        YcsbMix::D,
        YcsbMix::E,
        YcsbMix::F,
    ];

    /// True if the proportions sum to 1 (within floating-point slack).
    pub fn is_normalised(&self) -> bool {
        let sum = self.read + self.update + self.insert + self.rmw + self.scan;
        (sum - 1.0).abs() < 1e-9
    }

    /// Draws the next operation kind according to the proportions.
    pub fn draw(&self, rng: &mut StdRng) -> YcsbOp {
        let u: f64 = rng.gen();
        if u < self.read {
            YcsbOp::Read
        } else if u < self.read + self.update {
            YcsbOp::Update
        } else if u < self.read + self.update + self.insert {
            YcsbOp::Insert
        } else if u < self.read + self.update + self.insert + self.rmw {
            YcsbOp::ReadModifyWrite
        } else {
            YcsbOp::Scan
        }
    }
}

/// Parameters of a YCSB extension run.
#[derive(Clone, Debug)]
pub struct YcsbConfig {
    /// Concurrency-control protocol under test.
    pub protocol: Protocol,
    /// Operation mix.
    pub mix: YcsbMix,
    /// Number of client threads.
    pub clients: usize,
    /// Transactions per client.
    pub transactions_per_client: usize,
    /// Operations per transaction.
    pub ops_per_tx: usize,
    /// Initial table size (keys `0..table_size`).
    pub table_size: u64,
    /// Zipfian skew over the key space.
    pub theta: f64,
    /// Value payload size in bytes.
    pub value_size: usize,
    /// Scan length for [`YcsbOp::Scan`].
    pub scan_length: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        YcsbConfig {
            protocol: Protocol::Mvcc,
            mix: YcsbMix::A,
            clients: 4,
            transactions_per_client: 1_000,
            ops_per_tx: 10,
            table_size: 100_000,
            theta: 0.99,
            value_size: 20,
            scan_length: 10,
            seed: 42,
        }
    }
}

/// Aggregated result of one YCSB run.
#[derive(Clone, Debug)]
pub struct YcsbResult {
    /// The protocol measured.
    pub protocol: Protocol,
    /// The mix label.
    pub mix: &'static str,
    /// Committed transactions across all clients.
    pub committed: u64,
    /// Aborted transactions (after which the client moved on).
    pub aborted: u64,
    /// Wall-clock duration of the run.
    pub elapsed: std::time::Duration,
    /// Committed transactions per second, in thousands.
    pub throughput_ktps: f64,
    /// Transaction latency distribution (committed transactions only).
    pub latency: Arc<Histogram>,
}

impl YcsbResult {
    /// Fraction of attempted transactions that aborted.
    pub fn abort_ratio(&self) -> f64 {
        let total = self.committed + self.aborted;
        if total == 0 {
            0.0
        } else {
            self.aborted as f64 / total as f64
        }
    }
}

/// Runs one YCSB configuration against a freshly built, volatile state.
pub fn run_ycsb(config: &YcsbConfig) -> Result<YcsbResult> {
    assert!(config.mix.is_normalised(), "mix proportions must sum to 1");
    let ctx = Arc::new(StateContext::with_capacity(
        tsp_core::MAX_ACTIVE_TXNS.max(config.clients + 2),
    ));
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let table: TableHandle<u32, Vec<u8>> = config.protocol.create_table(&ctx, "ycsb", None);
    mgr.register(Arc::clone(&table).as_participant());
    mgr.register_group(&[table.id()])?;
    table.preload((0..config.table_size).map(|i| (i as u32, vec![0u8; config.value_size])))?;

    let zipf = ZipfTable::new(config.table_size, config.theta, true);
    let committed = Arc::new(AtomicU64::new(0));
    let aborted = Arc::new(AtomicU64::new(0));
    let insert_cursor = Arc::new(AtomicU64::new(config.table_size));
    let latency = Arc::new(Histogram::new());

    let start = Instant::now();
    let mut handles = Vec::new();
    for client in 0..config.clients {
        let mgr = Arc::clone(&mgr);
        let table = Arc::clone(&table);
        let zipf = Arc::clone(&zipf);
        let committed = Arc::clone(&committed);
        let aborted = Arc::clone(&aborted);
        let insert_cursor = Arc::clone(&insert_cursor);
        let latency = Arc::clone(&latency);
        let cfg = config.clone();
        handles.push(std::thread::spawn(move || -> Result<()> {
            let mut sampler = ZipfSampler::new(zipf, cfg.seed ^ (client as u64 + 1));
            let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(31) + client as u64);
            let value = vec![client as u8; cfg.value_size];
            for _ in 0..cfg.transactions_per_client {
                let tx_start = Instant::now();
                let tx = mgr.begin()?;
                let mut failed = false;
                for _ in 0..cfg.ops_per_tx {
                    let op = cfg.mix.draw(&mut rng);
                    let key = sampler.next_key_u32() % cfg.table_size as u32;
                    let outcome: Result<()> = match op {
                        YcsbOp::Read => table.read(&tx, &key).map(|_| ()),
                        YcsbOp::Update => table.write(&tx, key, value.clone()),
                        YcsbOp::Insert => {
                            let fresh = insert_cursor.fetch_add(1, Ordering::Relaxed) as u32;
                            table.write(&tx, fresh, value.clone())
                        }
                        YcsbOp::ReadModifyWrite => table
                            .read(&tx, &key)
                            .and_then(|_| table.write(&tx, key, value.clone())),
                        YcsbOp::Scan => {
                            let mut res: Result<()> = Ok(());
                            for offset in 0..cfg.scan_length as u32 {
                                let k = key.wrapping_add(offset) % cfg.table_size as u32;
                                if let Err(e) = table.read(&tx, &k) {
                                    res = Err(e);
                                    break;
                                }
                            }
                            res
                        }
                    };
                    if outcome.is_err() {
                        let _ = mgr.abort(&tx);
                        aborted.fetch_add(1, Ordering::Relaxed);
                        failed = true;
                        break;
                    }
                }
                if failed {
                    continue;
                }
                match mgr.commit(&tx) {
                    Ok(_) => {
                        committed.fetch_add(1, Ordering::Relaxed);
                        latency.record(tx_start.elapsed());
                    }
                    Err(_) => {
                        aborted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Ok(())
        }));
    }
    for h in handles {
        h.join().expect("client thread panicked")?;
    }
    let elapsed = start.elapsed();
    let committed = committed.load(Ordering::Relaxed);
    Ok(YcsbResult {
        protocol: config.protocol,
        mix: config.mix.name,
        committed,
        aborted: aborted.load(Ordering::Relaxed),
        elapsed,
        throughput_ktps: crate::harness::throughput_ktps(committed, elapsed),
        latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(protocol: Protocol, mix: YcsbMix) -> YcsbConfig {
        YcsbConfig {
            protocol,
            mix,
            clients: 2,
            transactions_per_client: 50,
            ops_per_tx: 4,
            table_size: 500,
            theta: 0.5,
            value_size: 8,
            scan_length: 4,
            seed: 7,
        }
    }

    #[test]
    fn all_mixes_are_normalised() {
        for mix in YcsbMix::ALL {
            assert!(mix.is_normalised(), "mix {} not normalised", mix.name);
        }
    }

    #[test]
    fn draw_respects_proportions() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut reads = 0;
        for _ in 0..10_000 {
            if YcsbMix::B.draw(&mut rng) == YcsbOp::Read {
                reads += 1;
            }
        }
        let share = reads as f64 / 10_000.0;
        assert!((0.93..=0.97).contains(&share), "read share {share}");
        // Workload C only ever draws reads.
        for _ in 0..1_000 {
            assert_eq!(YcsbMix::C.draw(&mut rng), YcsbOp::Read);
        }
    }

    #[test]
    fn mvcc_runs_every_mix() {
        for mix in YcsbMix::ALL {
            let result = run_ycsb(&tiny(Protocol::Mvcc, mix)).unwrap();
            assert_eq!(result.mix, mix.name);
            assert!(result.committed > 0, "mix {} committed nothing", mix.name);
            assert!(result.throughput_ktps > 0.0);
            assert_eq!(result.latency.count(), result.committed);
        }
    }

    #[test]
    fn read_only_mix_never_aborts_under_mvcc() {
        let result = run_ycsb(&tiny(Protocol::Mvcc, YcsbMix::C)).unwrap();
        assert_eq!(result.aborted, 0);
        assert_eq!(result.abort_ratio(), 0.0);
        assert_eq!(result.committed, 100);
    }

    #[test]
    fn baseline_protocols_complete_update_heavy_mix() {
        for protocol in [Protocol::S2pl, Protocol::Bocc] {
            let result = run_ycsb(&tiny(protocol, YcsbMix::A)).unwrap();
            assert!(
                result.committed + result.aborted >= 100,
                "{protocol:?} lost transactions"
            );
            assert!(result.committed > 0);
        }
    }

    #[test]
    fn contention_increases_aborts_for_mvcc_writers() {
        let low = run_ycsb(&YcsbConfig {
            theta: 0.0,
            ..tiny(Protocol::Mvcc, YcsbMix::A)
        })
        .unwrap();
        let high = run_ycsb(&YcsbConfig {
            theta: 2.9,
            clients: 4,
            ..tiny(Protocol::Mvcc, YcsbMix::A)
        })
        .unwrap();
        assert!(
            high.abort_ratio() >= low.abort_ratio(),
            "high contention ({}) should abort at least as often as low ({})",
            high.abort_ratio(),
            low.abort_ratio()
        );
    }
}

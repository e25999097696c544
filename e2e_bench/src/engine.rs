//! The generated input and the two transactional states of the dataflow.

use crate::probe::{Probes, TimedBackend};
use crate::workload::{Persistence, Workload, METERS};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tsp_common::Result;
use tsp_core::{MvccTable, MvccTableOptions, StateContext, TransactionManager};
use tsp_storage::{LsmOptions, LsmStore, StorageBackend};
use tsp_workload::{SmartMeterConfig, SmartMeterGenerator};

/// Generated rounds per meter; a run longer than one pass over them cycles
/// through the same readings again with later round numbers.
const ROUNDS: u32 = 10;

/// Seconds between two readings of one meter (the generator's default).
pub const INTERVAL_SECS: u64 = 900;

/// One reading as it flows through the dataflow.  `round` is the reading's
/// event time in reading intervals: the n-th reading of a meter has round n.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    pub meter: u32,
    pub watts: u32,
    pub round: u32,
}

/// *measurements*: meter → (readings accumulated, energy in joules).
/// *local_state*: meter → (round of the latest reading, its watts).
/// Both are `(u64, u64)`, so a consistent snapshot of one meter has
/// `measurements.0 == local_state.0`.
pub type MeterTable = MvccTable<u32, (u64, u64)>;

/// The seeded reading stream and the per-meter specification limits.
pub struct Input {
    /// `(meter, watts)` in generation order: round-robin over the meters.
    readings: Vec<(u32, u32)>,
    pub max_watts: Vec<u32>,
}

impl Input {
    /// Generates `METERS × ROUNDS` readings with `SmartMeterGenerator`.
    pub fn generate(seed: u64) -> Input {
        let mut generator = SmartMeterGenerator::new(SmartMeterConfig {
            meters: METERS,
            readings_per_meter: ROUNDS,
            interval_secs: INTERVAL_SECS,
            seed,
            ..Default::default()
        });
        let max_watts = generator
            .specifications()
            .iter()
            .map(|s| s.max_watts)
            .collect();
        let readings = generator
            .readings()
            .into_iter()
            .map(|r| (r.meter_id, r.watts))
            .collect();
        Input {
            readings,
            max_watts,
        }
    }

    /// The `i`-th reading of the endless, cycled stream.
    pub fn reading(&self, i: u64) -> Reading {
        let (meter, watts) = self.readings[(i % self.readings.len() as u64) as usize];
        debug_assert_eq!(u64::from(meter), i % u64::from(METERS));
        Reading {
            meter,
            watts,
            round: (i / u64::from(METERS)) as u32 + 1,
        }
    }

    /// The expected final `(measurements, local_state)` rows per meter after
    /// the first `tuples` readings, on top of the preloaded zero rows.
    pub fn reference(&self, tuples: u64) -> Vec<((u64, u64), (u64, u64))> {
        let mut rows = vec![((0, 0), (0, 0)); METERS as usize];
        for i in 0..tuples {
            let r = self.reading(i);
            let (meas, local) = &mut rows[r.meter as usize];
            *meas = (meas.0 + 1, meas.1 + joules(r.watts));
            *local = (u64::from(r.round), u64::from(r.watts));
        }
        rows
    }
}

/// Energy of one reading interval at `watts`.
pub fn joules(watts: u32) -> u64 {
    u64::from(watts) * INTERVAL_SECS
}

/// `SyncPolicy::Always` (every batch fsynced, by the committer or by the
/// `BatchWriter`) with a memtable large enough that no run flushes or
/// compacts: `LsmStore` does both synchronously inside `write_batch`, and
/// the figures should measure the commit path rather than where in a run a
/// flush stall happens to land.
fn lsm_options() -> LsmOptions {
    LsmOptions::paper_default().with_memtable_budget(256 << 20)
}

/// A directory for one engine's `LsmStore`s, removed on drop.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once the last engine's directory is gone.
        let _ = std::fs::remove_dir(DATA_ROOT);
    }
}

/// Where engines keep their stores, relative to the working directory.
const DATA_ROOT: &str = ".bench_data";

/// One freshly built and preloaded set of states.
///
/// Fields drop in declaration order: the tables and the context (which
/// joins any `BatchWriter` threads) go before the directory is removed.
pub struct Engine {
    pub mgr: Arc<TransactionManager>,
    pub measurements: Arc<MeterTable>,
    pub local: Arc<MeterTable>,
    /// The storage decorators of a traced engine (empty otherwise).
    pub storage: Vec<Arc<TimedBackend>>,
    pub ctx: Arc<StateContext>,
    _dir: Option<DataDir>,
}

impl Engine {
    /// Builds both states for `workload` and preloads every meter row —
    /// the work `setup_s` times.  With `probes`, each `LsmStore` is wrapped
    /// in a [`TimedBackend`].
    pub fn build(workload: &Workload, probes: Option<&Arc<Probes>>) -> Result<Engine> {
        static NEXT_DIR: AtomicU64 = AtomicU64::new(0);
        let ctx = Arc::new(StateContext::new());
        if workload.persistence == Persistence::LsmAsync {
            ctx.enable_async_persistence();
        }
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let dir = match workload.persistence {
            Persistence::Memory => None,
            Persistence::LsmSync | Persistence::LsmAsync => {
                Some(DataDir(PathBuf::from(DATA_ROOT).join(format!(
                    "e2e-{}-{}",
                    std::process::id(),
                    NEXT_DIR.fetch_add(1, Ordering::Relaxed)
                ))))
            }
        };
        let mut storage = Vec::new();
        let mut table = |name: &str| -> Result<Arc<MeterTable>> {
            let backend: Option<Arc<dyn StorageBackend>> = match &dir {
                None => None,
                Some(dir) => {
                    let store = LsmStore::open(dir.0.join(name), lsm_options())?;
                    Some(match probes {
                        None => Arc::new(store),
                        Some(p) => {
                            let timed = Arc::new(TimedBackend::new(store, Arc::clone(p)));
                            storage.push(Arc::clone(&timed));
                            timed
                        }
                    })
                }
            };
            let opts = MvccTableOptions {
                index_buckets: METERS as usize,
                ..Default::default()
            };
            let t = MvccTable::with_options(&ctx, name, backend, opts);
            t.preload((0..METERS).map(|m| (m, (0, 0))))?;
            mgr.register(t.clone());
            Ok(t)
        };
        let measurements = table("measurements")?;
        let local = table("local_state")?;
        mgr.register_group(&[measurements.id(), local.id()])?;
        Ok(Engine {
            mgr,
            measurements,
            local,
            storage,
            ctx,
            _dir: dir,
        })
    }

    /// `(write batches, bytes written)` summed over the traced stores.
    pub fn storage_counters(&self) -> (u64, u64) {
        self.storage
            .iter()
            .map(|s| s.counters())
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }
}

//! One measured pass: build the Figure 1 dataflow on a preloaded engine,
//! drive it, and check what it left behind.
//!
//! `SmartMeterGenerator` readings → `punctuate_every` → `TO_TABLE`
//! *measurements* (read-and-accumulate per meter) → `TO_TABLE` *local_state*
//! (latest reading per meter) → `TO_STREAM` `OnCommit` verify query → drain.
//! Both states form one commit group, so each stream transaction commits
//! through the §4.3 protocol.  Beside the stream, the `adhoc_reads` workload
//! runs a closed-loop `AdHocQuery` reader on the calling thread.

use crate::engine::{joules, Engine, Input, MeterTable, Reading};
use crate::feed::Feed;
use crate::probe::{median_f64, process_cpu, quantile, Probes};
use crate::workload::{Workload, METERS, METERS_PER_QUERY};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tsp_common::Result;
use tsp_core::{GcDriver, TelemetrySnapshot, TransactionManager, Tx};
use tsp_stream::{AdHocQuery, Boundaries, ToTable, Topology, TriggerPolicy, TxCoordinator};

/// Everything one pass measured.
pub struct PassResult {
    /// Readings ingested.
    pub tuples: u64,
    /// Stream transactions (batches) ingested.
    pub transactions: u64,
    /// From the first reading until `flush()` returned.
    pub elapsed: Duration,
    /// Process CPU time over the pass.
    pub cpu: Duration,
    /// Per transaction: stamp of its last reading → its `OnCommit` trigger.
    pub visible_ns: Vec<u64>,
    /// Per open-loop tick: how late the generator released it.
    pub lateness_ns: Vec<u64>,
    /// The open-loop generator fell further and further behind.
    pub backlog_grew: bool,
    /// Latency of each query of the workload's query stream: the ad-hoc
    /// reader where there is one, else the verify query.
    pub query_ns: Vec<u64>,
    /// Median over whole seconds of that query stream's completions.
    pub queries_per_s: f64,
    /// Read-only queries run (verify plus ad-hoc).
    pub queries: u64,
    /// Queries that returned an error or saw a torn snapshot.
    pub failed_queries: u64,
    /// `OnCommit` triggers fired.
    pub triggers: u64,
    /// The final states equal the reference computed from the input.
    pub state_matches: bool,
    /// The engine's exported counters and stage histograms after the pass.
    pub telemetry: TelemetrySnapshot,
}

impl PassResult {
    /// Operations attempted: stream transactions plus queries.
    pub fn attempted(&self) -> u64 {
        self.transactions + self.queries
    }

    /// Stream transactions that did not commit plus failed queries.
    pub fn failed(&self) -> u64 {
        self.telemetry.stats.aborted + self.failed_queries
    }

    pub fn correct(&self) -> bool {
        self.state_matches && self.triggers == self.transactions && !self.backlog_grew
    }

    pub fn tuples_per_s(&self) -> f64 {
        self.tuples as f64 / self.elapsed.as_secs_f64()
    }

    pub fn visible_quantile_us(&self, q: f64) -> f64 {
        quantile(&mut self.visible_ns.clone(), q) as f64 / 1e3
    }
}

/// What one query saw.
struct Check {
    torn: bool,
    /// Meters whose latest reading exceeds their specification.
    violations: Vec<u32>,
}

/// Reads `meters` from both states in `tx`'s snapshot.  A meter whose two
/// rows disagree on its reading count is a torn snapshot.  Readings above
/// the meter's specification are what the verify query of Fig. 1 flags;
/// they are emitted, not checked, since the snapshot decides which readings
/// are visible.  With `probes`, each point read is timed.
fn check_meters(
    tx: &Tx,
    measurements: &MeterTable,
    local: &MeterTable,
    max_watts: &[u32],
    meters: impl Iterator<Item = u32>,
    probes: Option<&Probes>,
) -> Result<Check> {
    let read = |table: &MeterTable, meter: u32| match probes {
        None => table.read(tx, &meter),
        Some(p) => {
            let start = Instant::now();
            let row = table.read(tx, &meter);
            p.table_read.record_since(start);
            row
        }
    };
    let mut torn = false;
    let mut violations = Vec::new();
    for meter in meters {
        let total = read(measurements, meter)?;
        let latest = read(local, meter)?;
        torn |= total.map(|t| t.0) != latest.map(|l| l.0);
        if latest.is_some_and(|(_, watts)| watts > u64::from(max_watts[meter as usize])) {
            violations.push(meter);
        }
    }
    Ok(Check { torn, violations })
}

/// The `k`-th meter of query `q` on query stream `stream` (splitmix64 of
/// the seed, so a seed fixes every query's meters).
fn pick(seed: u64, stream: u64, q: u64, k: u64) -> u32 {
    let mut z = seed
        ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)
        ^ (q * METERS_PER_QUERY + k).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % u64::from(METERS)) as u32
}

/// What the verify query recorded.
#[derive(Default)]
struct VerifyLog {
    triggers: AtomicU64,
    failed: AtomicU64,
    /// `(visible ns, query ns)` per trigger.
    samples: Mutex<Vec<(u64, u64)>>,
}

/// What the ad-hoc reader recorded.
#[derive(Default)]
struct ReaderLog {
    latency_ns: Vec<u64>,
    per_second: Vec<u64>,
    failed: u64,
}

impl ReaderLog {
    fn record(&mut self, since_start: Duration, latency: Duration, ok: bool) {
        let second = since_start.as_secs() as usize;
        if self.per_second.len() <= second {
            self.per_second.resize(second + 1, 0);
        }
        self.per_second[second] += 1;
        self.latency_ns.push(latency.as_nanos() as u64);
        self.failed += u64::from(!ok);
    }
}

/// Runs `workload` for `seconds` on `engine`, traced when `probes` is set.
pub fn run(
    workload: &Workload,
    engine: &Engine,
    input: &Arc<Input>,
    seconds: f64,
    seed: u64,
    probes: Option<&Arc<Probes>>,
) -> Result<PassResult> {
    let base = Instant::now();
    let (feed, stamps, report) = Feed::new(
        Arc::clone(input),
        workload.batch,
        workload.rate,
        seconds,
        base,
    );
    let mgr: &Arc<TransactionManager> = &engine.mgr;
    let topo = Topology::new();
    let coord = TxCoordinator::new(Arc::clone(&engine.ctx));

    let accumulate = {
        let table = Arc::clone(&engine.measurements);
        let probes = probes.cloned();
        move |tx: &Tx, r: &Reading| -> Result<()> {
            let add = |(n, j): (u64, u64)| (n + 1, j + joules(r.watts));
            let Some(p) = &probes else {
                let row = table.read(tx, &r.meter)?.unwrap_or((0, 0));
                return table.write(tx, r.meter, add(row));
            };
            let start = Instant::now();
            let row = table.read(tx, &r.meter)?.unwrap_or((0, 0));
            let read_done = Instant::now();
            table.write(tx, r.meter, add(row))?;
            p.table_rmw_read.record(read_done - start);
            p.table_write.record_since(read_done);
            p.writer_closure.record_since(start);
            Ok(())
        }
    };
    let latest = {
        let table = Arc::clone(&engine.local);
        let probes = probes.cloned();
        move |tx: &Tx, r: &Reading| -> Result<()> {
            let row = (u64::from(r.round), u64::from(r.watts));
            let Some(p) = &probes else {
                return table.write(tx, r.meter, row);
            };
            let start = Instant::now();
            table.write(tx, r.meter, row)?;
            p.table_write.record_since(start);
            p.writer_closure.record_since(start);
            Ok(())
        }
    };
    let verify_log = Arc::new(VerifyLog::default());
    let verify = {
        let (measurements, local) = (Arc::clone(&engine.measurements), Arc::clone(&engine.local));
        let log = Arc::clone(&verify_log);
        let probes = probes.cloned();
        let input = Arc::clone(input);
        move |tx: &Tx| -> Result<Vec<u32>> {
            let fired = base.elapsed().as_nanos() as u64;
            let j = log.triggers.fetch_add(1, Ordering::Relaxed);
            let visible = stamps.get(j).map_or(0, |s| fired.saturating_sub(s));
            let start = Instant::now();
            let checked = check_meters(
                tx,
                &measurements,
                &local,
                &input.max_watts,
                (0..METERS_PER_QUERY).map(|k| pick(seed, 0, j, k)),
                None,
            );
            let spent = start.elapsed();
            if let Some(p) = &probes {
                p.verify.record(spent);
            }
            if !matches!(checked, Ok(Check { torn: false, .. })) {
                log.failed.fetch_add(1, Ordering::Relaxed);
            }
            log.samples
                .lock()
                .expect("verify log poisoned")
                .push((visible, spent.as_nanos() as u64));
            checked.map(|c| c.violations)
        }
    };
    topo.source_with_timestamps(feed)
        .punctuate_every(workload.batch as usize, Arc::clone(&coord))
        .to_table(ToTable::new(
            Arc::clone(mgr),
            Arc::clone(&coord),
            engine.measurements.id(),
            Boundaries::Punctuations,
            accumulate,
        ))
        .to_table(ToTable::new(
            Arc::clone(mgr),
            Arc::clone(&coord),
            engine.local.id(),
            Boundaries::Punctuations,
            latest,
        ))
        .to_stream(Arc::clone(mgr), TriggerPolicy::OnCommit, verify)
        .drain();

    // In a traced pass, one GC sweep near the end of the run exports the
    // floor lag while the stream (and reader) still hold snapshots.
    let gc = probes.map(|_| {
        let driver = GcDriver::new(Arc::clone(&engine.ctx));
        driver.register(engine.measurements.clone());
        driver.register(engine.local.clone());
        driver
    });
    let sweep_at = Duration::from_secs_f64(seconds * 0.9);
    let mut swept = false;
    let mut maybe_sweep = |now: Instant| {
        if let Some(driver) = &gc {
            if !swept && now - base >= sweep_at {
                driver.run_once();
                swept = true;
            }
        }
    };

    let cpu_before = process_cpu()?;
    topo.start();
    let reader = if workload.reader {
        Some(read_until(
            engine,
            input,
            seed,
            probes,
            &|| report.done(),
            &mut maybe_sweep,
        ))
    } else {
        while !report.done() {
            std::thread::sleep(Duration::from_millis(5));
            maybe_sweep(Instant::now());
        }
        None
    };
    topo.join();
    mgr.flush()?;
    let flushed = Instant::now();
    let cpu = process_cpu()?.saturating_sub(cpu_before);

    let feed = report.take();
    let first = feed.first.unwrap_or(base);
    let transactions = feed.tuples / workload.batch;
    let state_matches = state_matches(engine, input, feed.tuples)?;
    let samples = std::mem::take(&mut *verify_log.samples.lock().expect("verify log poisoned"));
    let triggers = verify_log.triggers.load(Ordering::Relaxed);
    let elapsed = flushed - first;
    let tail = &feed.lateness_ns[feed.lateness_ns.len() * 9 / 10..];
    let backlog_grew = quantile(&mut tail.to_vec(), 0.5) > BACKLOG_LATENESS_NS;
    let (query_ns, queries_per_s, queries, failed_queries) = match reader {
        Some(r) => {
            // Whole seconds only: the last one is partial.
            let whole = r
                .per_second
                .len()
                .saturating_sub(1)
                .max(1)
                .min(r.per_second.len());
            let mut rates: Vec<f64> = r.per_second[..whole].iter().map(|&c| c as f64).collect();
            let queries = triggers + r.latency_ns.len() as u64;
            (
                r.latency_ns,
                median_f64(&mut rates),
                queries,
                verify_log.failed.load(Ordering::Relaxed) + r.failed,
            )
        }
        None => (
            samples.iter().map(|s| s.1).collect(),
            triggers as f64 / elapsed.as_secs_f64(),
            triggers,
            verify_log.failed.load(Ordering::Relaxed),
        ),
    };
    Ok(PassResult {
        tuples: feed.tuples,
        transactions,
        elapsed,
        cpu,
        visible_ns: samples.iter().map(|s| s.0).collect(),
        lateness_ns: feed.lateness_ns,
        backlog_grew,
        query_ns,
        queries_per_s,
        queries,
        failed_queries,
        triggers,
        state_matches,
        telemetry: engine.ctx.telemetry_snapshot(),
    })
}

/// A paced run whose generator is, over its last tenth, typically this
/// late has a growing backlog: the dataflow did not sustain the rate.
const BACKLOG_LATENESS_NS: u64 = 20_000_000;

/// The closed-loop ad-hoc reader: one query after another until `stop`,
/// each reading `METERS_PER_QUERY` meters from both states in one snapshot.
fn read_until(
    engine: &Engine,
    input: &Arc<Input>,
    seed: u64,
    probes: Option<&Arc<Probes>>,
    stop: &dyn Fn() -> bool,
    on_tick: &mut dyn FnMut(Instant),
) -> ReaderLog {
    let mut log = ReaderLog::default();
    let start = Instant::now();
    let next_query = Arc::new(AtomicU64::new(0));
    let query = {
        let (measurements, local) = (Arc::clone(&engine.measurements), Arc::clone(&engine.local));
        let next_query = Arc::clone(&next_query);
        let input = Arc::clone(input);
        AdHocQuery::new(Arc::clone(&engine.mgr), move |tx| {
            let q = next_query.fetch_add(1, Ordering::Relaxed);
            let picked = (0..METERS_PER_QUERY).map(|k| pick(seed, 1, q, k));
            check_meters(tx, &measurements, &local, &input.max_watts, picked, None)
        })
    };
    while !stop() {
        let begin = Instant::now();
        let ok = match probes {
            None => matches!(query.run(), Ok(Check { torn: false, .. })),
            // Traced: the same query, with `AdHocQuery::run`'s first attempt
            // spelled out so each layer's call can be timed.
            Some(p) => {
                let q = next_query.fetch_add(1, Ordering::Relaxed);
                let picked = (0..METERS_PER_QUERY).map(|k| pick(seed, 1, q, k));
                traced_query(engine, &input.max_watts, p, picked)
            }
        };
        let done = Instant::now();
        log.record(done - start, done - begin, ok);
        on_tick(done);
    }
    log
}

fn traced_query(
    engine: &Engine,
    max_watts: &[u32],
    probes: &Probes,
    meters: impl Iterator<Item = u32>,
) -> bool {
    let start = Instant::now();
    let Ok(tx) = engine.mgr.begin_read_only() else {
        return false;
    };
    probes.begin_ro.record_since(start);
    let checked = check_meters(
        &tx,
        &engine.measurements,
        &engine.local,
        max_watts,
        meters,
        Some(probes),
    );
    let start = Instant::now();
    let committed = engine.mgr.commit(&tx);
    probes.commit_ro.record_since(start);
    committed.is_ok() && matches!(checked, Ok(Check { torn: false, .. }))
}

/// Compares every meter's rows in both states with the reference computed
/// from the first `tuples` readings.
fn state_matches(engine: &Engine, input: &Input, tuples: u64) -> Result<bool> {
    let reference = input.reference(tuples);
    let tx = engine.mgr.begin_read_only()?;
    let mut mismatches = 0u64;
    for (meter, (meas, local)) in (0u32..).zip(&reference) {
        let got = (
            engine.measurements.read(&tx, &meter)?,
            engine.local.read(&tx, &meter)?,
        );
        if got != (Some(*meas), Some(*local)) {
            if mismatches == 0 {
                eprintln!("meter {meter}: expected {meas:?}/{local:?}, state holds {got:?}");
            }
            mismatches += 1;
        }
    }
    engine.mgr.commit(&tx)?;
    if mismatches > 0 {
        eprintln!("{mismatches} meters differ from the reference");
    }
    Ok(mismatches == 0)
}

//! End-to-end benchmark of the Figure 1 smart-metering dataflow.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload meter_sync_paced --seed 7 --seconds 10 --trace 0
//! ```
//!
//! Builds the dataflow from the public API, drives it with seeded
//! `SmartMeterGenerator` readings, checks the final states against a
//! reference computed from the same readings, and prints one JSON object as
//! the last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced pass with `--trace 1`.
//! `README.md` next to this crate documents workloads and metrics.

mod engine;
mod feed;
mod pass;
mod probe;
mod workload;

use engine::{Engine, Input};
use pass::PassResult;
use probe::{median_f64, peak_rss_mb, quantile, Probes};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use tsp_common::{Result, TspError};
use tsp_core::{AbortReason, HistogramSummary};
use workload::Workload;

/// Engines built per untraced run; `setup_s` is their median build time.
const SETUP_REPEATS: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args> {
    let usage = || {
        TspError::protocol(
            "usage: --workload <meter_async|meter_sync_paced|adhoc_reads> --seed <n> \
             --seconds <n> --trace <0|1>",
        )
    };
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(usage)?;
        match flag.as_str() {
            "--workload" => workload = Workload::by_name(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s >= 1.0 && *s <= 600.0)
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return Err(usage()),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace: trace.ok_or_else(usage)?,
    })
}

/// One reported metric: name, unit, value.
type Metric = (String, &'static str, f64);

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    (
        name.to_string(),
        unit,
        if value.is_finite() { value } else { 0.0 },
    )
}

fn end_to_end(pass: &PassResult, setup_s: f64) -> Result<Vec<Metric>> {
    Ok(vec![
        metric("tuples_per_s", "1/s", pass.tuples_per_s()),
        metric("visible_p50_us", "us", pass.visible_quantile_us(0.5)),
        metric("queries_per_s", "1/s", pass.queries_per_s),
        metric(
            "query_p50_us",
            "us",
            quantile(&mut pass.query_ns.clone(), 0.5) as f64 / 1e3,
        ),
        metric(
            "cpu_us_per_tuple",
            "us",
            pass.cpu.as_secs_f64() * 1e6 / pass.tuples as f64,
        ),
        metric("peak_rss_mb", "MB", peak_rss_mb()?),
        metric("setup_s", "s", setup_s),
    ])
}

fn mean(h: &HistogramSummary) -> f64 {
    if h.count == 0 {
        0.0
    } else {
        h.sum as f64 / h.count as f64
    }
}

fn mean_of(samples: &[u64]) -> f64 {
    samples.iter().sum::<u64>() as f64 / samples.len().max(1) as f64
}

/// The per-layer metrics of a traced pass.  `storage` is `(write batches,
/// bytes)` the traced stores saw during the pass; `overhead_pct` compares
/// the workload's primary end-to-end metric with an untraced pass.
fn per_layer(
    pass: &PassResult,
    probes: &Probes,
    storage: (u64, u64),
    overhead_pct: f64,
) -> Vec<Metric> {
    let t = &pass.telemetry;
    let tuples = pass.tuples.max(1) as f64;
    let txs = pass.transactions.max(1) as f64;
    let write_commits = t.validate_nanos.count.max(1) as f64;
    let commit_ns = (t.validate_nanos.sum + t.apply_nanos.sum + t.durable_handoff_nanos.sum) as f64;
    let mut lateness = pass.lateness_ns.clone();

    // Layer budget of the mean visibility latency; means add up where
    // medians do not.  The durable hand-off contains the synchronous
    // `write_batch` calls, so storage is shown but not added again.
    let visible_mean = mean_of(&pass.visible_ns) / 1e3;
    let source_late = mean_of(&pass.lateness_ns) / 1e3;
    let table_rw = probes.writer_closure.total_ns() / txs / 1e3;
    let (validate, apply, handoff) = (
        mean(&t.validate_nanos) / 1e3,
        mean(&t.apply_nanos) / 1e3,
        mean(&t.durable_handoff_nanos) / 1e3,
    );
    let budget_unattributed = visible_mean - (source_late + table_rw + validate + apply + handoff);

    let mut m = vec![
        metric(
            "stream.source.late_p50_us",
            "us",
            quantile(&mut lateness, 0.5) as f64 / 1e3,
        ),
        metric(
            "stream.source.late_p99_us",
            "us",
            quantile(&mut lateness, 0.99) as f64 / 1e3,
        ),
        metric(
            "stream.unattributed_us_per_tuple",
            "us",
            (pass.elapsed.as_nanos() as f64 - probes.writer_closure.total_ns() - commit_ns)
                / tuples
                / 1e3,
        ),
        metric(
            "stream.to_stream.verify_us_p50",
            "us",
            probes.verify.p50_ns() / 1e3,
        ),
        metric("core.table.write_ns_p50", "ns", probes.table_write.p50_ns()),
        metric(
            "core.table.rmw_read_ns_p50",
            "ns",
            probes.table_rmw_read.p50_ns(),
        ),
        metric("core.table.read_ns_p50", "ns", probes.table_read.p50_ns()),
        metric(
            "core.context.begin_ro_ns_p50",
            "ns",
            probes.begin_ro.p50_ns(),
        ),
        metric(
            "core.manager.commit_ro_ns_p50",
            "ns",
            probes.commit_ro.p50_ns(),
        ),
        metric(
            "core.manager.validate_ns_p50",
            "ns",
            t.validate_nanos.p50 as f64,
        ),
        metric("core.manager.apply_ns_p50", "ns", t.apply_nanos.p50 as f64),
        metric(
            "core.manager.durable_handoff_ns_p50",
            "ns",
            t.durable_handoff_nanos.p50 as f64,
        ),
        // No drain recorded means every commit took the uncontended fast
        // path: batches of one.
        metric(
            "core.manager.commit_batch_size_mean",
            "count",
            if t.commit_batch_size.count == 0 {
                1.0
            } else {
                mean(&t.commit_batch_size)
            },
        ),
    ];
    for reason in AbortReason::ALL {
        m.push(metric(
            &format!("core.aborts.{}", reason.label()),
            "count",
            t.abort_count(reason) as f64,
        ));
    }
    m.extend([
        metric("core.gc.reclaimed", "count", t.stats.gc_reclaimed as f64),
        metric("core.gc.floor_lag", "ts", t.gc_floor_lag as f64),
        metric(
            "storage.write_batch_us_p50",
            "us",
            probes.write_batch.p50_ns() / 1e3,
        ),
        metric(
            "storage.write_batch_us_p99",
            "us",
            probes.write_batch.p99_ns() / 1e3,
        ),
        metric(
            "storage.batches_per_commit",
            "count",
            storage.0 as f64 / write_commits,
        ),
        metric("storage.bytes_per_tuple", "B", storage.1 as f64 / tuples),
        metric(
            "storage.batch_writer.coalesced_batch_size_mean",
            "count",
            mean(&t.coalesced_batch_size),
        ),
        metric(
            "storage.batch_writer.queue_dwell_us_p50",
            "us",
            t.queue_dwell_nanos.p50 as f64 / 1e3,
        ),
        metric("budget.visible_mean_us", "us", visible_mean),
        metric("budget.source_late_us", "us", source_late),
        metric("budget.table_rw_us", "us", table_rw),
        metric("budget.validate_us", "us", validate),
        metric("budget.apply_us", "us", apply),
        metric("budget.durable_handoff_us", "us", handoff),
        metric(
            "budget.storage_write_batch_us",
            "us",
            probes.write_batch.total_ns() / txs / 1e3,
        ),
        metric("budget.unattributed_us", "us", budget_unattributed),
        metric("diag.visible_p99_us", "us", pass.visible_quantile_us(0.99)),
        metric(
            "diag.visible_samples",
            "count",
            pass.visible_ns.len() as f64,
        ),
        metric("diag.tracing_overhead_pct", "%", overhead_pct),
    ]);
    m
}

/// The workload's primary end-to-end figure and whether higher is better:
/// saturated throughput, ad-hoc query rate, or paced visibility latency.
fn primary(workload: &Workload, pass: &PassResult) -> (f64, bool) {
    if workload.rate.is_none() {
        (pass.tuples_per_s(), true)
    } else if workload.reader {
        (pass.queries_per_s, true)
    } else {
        (pass.visible_quantile_us(0.5), false)
    }
}

fn run(args: &Args) -> Result<(Vec<Metric>, bool, u64, u64)> {
    let w = &args.workload;
    let input = Arc::new(Input::generate(args.seed));
    if !args.trace {
        let mut engine = None;
        let mut setups = Vec::new();
        for _ in 0..SETUP_REPEATS {
            drop(engine.take());
            let start = Instant::now();
            engine = Some(Engine::build(w, None)?);
            setups.push(start.elapsed().as_secs_f64());
        }
        let engine = engine.expect("at least one setup");
        let pass = pass::run(w, &engine, &input, args.seconds, args.seed, None)?;
        let metrics = end_to_end(&pass, median_f64(&mut setups))?;
        return Ok((metrics, pass.correct(), pass.attempted(), pass.failed()));
    }
    // Traced: an untraced half and a traced half, each on a fresh engine,
    // so the tracing overhead is measured rather than assumed.
    let half = args.seconds / 2.0;
    let untraced = {
        let engine = Engine::build(w, None)?;
        pass::run(w, &engine, &input, half, args.seed, None)?
    };
    let probes = Arc::new(Probes::default());
    let engine = Engine::build(w, Some(&probes))?;
    probes.write_batch.reset();
    let storage_before = engine.storage_counters();
    let traced = pass::run(w, &engine, &input, half, args.seed, Some(&probes))?;
    let storage_after = engine.storage_counters();
    let ((base, higher_better), (with_trace, _)) = (primary(w, &untraced), primary(w, &traced));
    let worse = if higher_better {
        base - with_trace
    } else {
        with_trace - base
    };
    let metrics = per_layer(
        &traced,
        &probes,
        (
            storage_after.0 - storage_before.0,
            storage_after.1 - storage_before.1,
        ),
        100.0 * worse / base,
    );
    print_budget(w, &metrics);
    Ok((
        metrics,
        untraced.correct() && traced.correct(),
        untraced.attempted() + traced.attempted(),
        untraced.failed() + traced.failed(),
    ))
}

/// Human-readable layer budget of the traced pass (before the JSON line).
fn print_budget(w: &Workload, metrics: &[Metric]) {
    println!("layer budget of the mean visibility latency, {}:", w.name);
    for (name, unit, value) in metrics.iter().filter(|m| m.0.starts_with("budget.")) {
        println!("  {:<34} {:>12.1} {unit}", &name["budget.".len()..], value);
    }
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        attempted.max(1)
    )
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok((metrics, correct, attempted, failed)) => {
            println!("{}", json(correct, attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

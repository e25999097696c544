//! The smart-metering scenario of Figure 1.
//!
//! "It is getting data from private households and the global infrastructure
//! which is checked against respective specifications.  It consists of three
//! continuous and one ad-hoc query accessing various (shared) states."
//!
//! Dataflow built here:
//!
//! * **Continuous query 1** — home smart-meter readings → tumbling window +
//!   per-meter aggregate → `TO_TABLE` into the shared state *Measurements 1*
//!   (and a volatile 30-minute *local state*).
//! * **Continuous query 2** — infrastructure measurements → `TO_TABLE` into
//!   *Measurements 2*.
//! * **Continuous query 3** — *Verify*: `TO_STREAM` over the measurement
//!   states triggered on commit, checking values against the *Specification*
//!   table and emitting violations.
//! * **Ad-hoc query** — analytics over the measurement states via `FROM`.
//!
//! Run with: `cargo run --example smart_metering`

use std::sync::Arc;
use tsp::core::prelude::*;
use tsp::stream::prelude::*;

/// One smart-meter reading (meter id, consumed watt-hours in this interval).
#[derive(Clone, Debug)]
struct Reading {
    meter: u64,
    watt_hours: u64,
}

fn main() -> tsp::common::Result<()> {
    // ------------------------------------------------------------------
    // Shared transactional states (Fig. 1: Measurements 1/2, Local State,
    // Specification).
    // ------------------------------------------------------------------
    let ctx = Arc::new(StateContext::new());
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let measurements_home = MvccTable::<u64, u64>::volatile(&ctx, "measurements_home");
    let measurements_infra = MvccTable::<u64, u64>::volatile(&ctx, "measurements_infra");
    let local_window_state = MvccTable::<u64, u64>::volatile(&ctx, "local_state_30min");
    let specification = MvccTable::<u64, u64>::volatile(&ctx, "specification");
    mgr.register(measurements_home.clone());
    mgr.register(measurements_infra.clone());
    mgr.register(local_window_state.clone());
    mgr.register(specification.clone());
    // The home query updates its aggregate table and the local window state
    // atomically; the infrastructure query has its own group.
    mgr.register_group(&[measurements_home.id(), local_window_state.id()])?;
    mgr.register_group(&[measurements_infra.id()])?;
    mgr.register_group(&[specification.id()])?;

    // Specification: every meter must stay below 5 000 Wh accumulated.
    let tx = mgr.begin()?;
    for meter in 0..8u64 {
        specification.write(&tx, meter, 5_000)?;
    }
    mgr.commit(&tx)?;

    // ------------------------------------------------------------------
    // Continuous query 1: home smart meters.
    // ------------------------------------------------------------------
    let topo = Topology::new();
    let home_coord = TxCoordinator::new(Arc::clone(&ctx));

    // 8 meters, 400 readings, one reading ≈ one minute of event time.
    let home_readings: Vec<Reading> = (0..400u64)
        .map(|i| Reading {
            meter: i % 8,
            watt_hours: 40 + (i * 13) % 160 + if i % 97 == 0 { 6_000 } else { 0 },
        })
        .collect();

    let home_agg_table = Arc::clone(&measurements_home);
    let local_state_table = Arc::clone(&local_window_state);
    let spec_table = Arc::clone(&specification);
    let verify_measurements = Arc::clone(&measurements_home);

    let violations = topo
        .source_vec(home_readings)
        // Window + aggregate: total consumption per meter per 30-element window.
        .tumbling_count_window(30)
        .aggregate_by_key(|r: &Reading| r.meter, || 0u64, |acc, r| acc + r.watt_hours)
        // Each group of per-meter aggregates becomes one transaction over
        // both home states.
        .punctuate_every(8, Arc::clone(&home_coord))
        .to_table(ToTable::new(
            Arc::clone(&mgr),
            Arc::clone(&home_coord),
            measurements_home.id(),
            Boundaries::Punctuations,
            move |tx: &Tx, (meter, wh): &(u64, u64)| {
                // Accumulate into the queryable measurement state.
                let so_far = home_agg_table.read(tx, meter)?.unwrap_or(0);
                home_agg_table.write(tx, *meter, so_far + *wh)
            },
        ))
        .to_table(ToTable::new(
            Arc::clone(&mgr),
            Arc::clone(&home_coord),
            local_window_state.id(),
            Boundaries::Punctuations,
            move |tx: &Tx, (meter, wh): &(u64, u64)| {
                // Latest window value only (the "local state (30 min)").
                local_state_table.write(tx, *meter, *wh)
            },
        ))
        // Continuous query 3 (Verify): after each commit, compare the
        // accumulated measurements against the specification.
        .to_stream(Arc::clone(&mgr), TriggerPolicy::OnCommit, move |tx| {
            let mut violations = Vec::new();
            for (meter, total) in verify_measurements.scan(tx)? {
                if let Some(limit) = spec_table.read(tx, &meter)? {
                    if total > limit {
                        violations.push((meter, total, limit));
                    }
                }
            }
            Ok(violations)
        })
        .collect();

    // ------------------------------------------------------------------
    // Continuous query 2: infrastructure measurements.
    // ------------------------------------------------------------------
    let infra_coord = TxCoordinator::new(Arc::clone(&ctx));
    let infra_table = Arc::clone(&measurements_infra);
    topo.source_generate(200, |i| (i % 4, 1_000 + i))
        .punctuate_every(20, Arc::clone(&infra_coord))
        .to_table(ToTable::new(
            Arc::clone(&mgr),
            Arc::clone(&infra_coord),
            measurements_infra.id(),
            Boundaries::Punctuations,
            move |tx: &Tx, (station, load): &(u64, u64)| infra_table.write(tx, *station, *load),
        ))
        .drain();

    // ------------------------------------------------------------------
    // Run the continuous queries.
    // ------------------------------------------------------------------
    topo.run();

    println!("=== smart metering run complete ===");
    let flagged = violations.take();
    println!(
        "verify query flagged {} specification-violation snapshots",
        flagged.len()
    );
    for (meter, total, limit) in flagged.iter().take(5) {
        println!("  meter {meter}: accumulated {total} Wh exceeds limit {limit} Wh");
    }

    // ------------------------------------------------------------------
    // Ad-hoc query (FROM): analytics over the shared states.
    // ------------------------------------------------------------------
    let analytics_home = Arc::clone(&measurements_home);
    let analytics_infra = Arc::clone(&measurements_infra);
    let analytics = AdHocQuery::new(Arc::clone(&mgr), move |tx| {
        let home = analytics_home.scan(tx)?;
        let infra = analytics_infra.scan(tx)?;
        let total_home: u64 = home.values().sum();
        let max_infra = infra.values().copied().max().unwrap_or(0);
        Ok((home.len(), total_home, infra.len(), max_infra))
    });
    let (meters, total_home, stations, max_infra) = analytics.run()?;
    println!("\nad-hoc analytics snapshot:");
    println!("  {meters} home meters, {total_home} Wh accumulated in total");
    println!("  {stations} infrastructure stations, peak load {max_infra}");

    // Consistency across the home group: the local window state and the
    // accumulated measurements were always committed together.
    let consistency_check = AdHocQuery::new(Arc::clone(&mgr), {
        let home = Arc::clone(&measurements_home);
        let local = Arc::clone(&local_window_state);
        move |tx| Ok((home.scan(tx)?.len(), local.scan(tx)?.len()))
    });
    let (home_rows, local_rows) = consistency_check.run()?;
    assert_eq!(
        home_rows, local_rows,
        "both states of the group commit together"
    );
    println!("\nconsistency check passed: {home_rows} meters present in both grouped states");

    let stats = ctx.telemetry_snapshot().stats;
    println!(
        "\ntransaction statistics: {} begun, {} committed, {} aborted",
        stats.begun, stats.committed, stats.aborted
    );
    Ok(())
}

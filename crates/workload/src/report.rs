//! Formatting of benchmark results: aligned console tables and CSV files.

use crate::harness::RunResult;
use std::io::Write;
use std::path::Path;
use tsp_common::Result;

/// CSV header matching [`csv_row`].
pub const CSV_HEADER: &str = "protocol,readers,theta,storage,elapsed_s,reader_committed,reader_aborted,writer_committed,writer_aborted,throughput_ktps,reader_ktps,writer_tps,reader_p50_us,reader_p99_us,reader_p999_us,abort_ratio,persist_retries,lease_reaps";

/// Serialises one result as a CSV row (without trailing newline).
pub fn csv_row(r: &RunResult) -> String {
    format!(
        "{},{},{:.2},{},{:.3},{},{},{},{},{:.3},{:.3},{:.1},{},{},{},{:.4},{},{}",
        r.protocol.name(),
        r.readers,
        r.theta,
        r.storage.name(),
        r.elapsed.as_secs_f64(),
        r.reader_committed,
        r.reader_aborted,
        r.writer_committed,
        r.writer_aborted,
        r.throughput_ktps,
        r.reader_ktps,
        r.writer_tps,
        r.reader_p50.map(|d| d.as_micros()).unwrap_or(0),
        r.reader_p99.map(|d| d.as_micros()).unwrap_or(0),
        r.reader_p999.map(|d| d.as_micros()).unwrap_or(0),
        r.abort_ratio(),
        r.persist_retries,
        r.lease_reaps,
    )
}

/// Writes a full CSV file with header.
pub fn write_csv(path: impl AsRef<Path>, results: &[RunResult]) -> Result<()> {
    let mut file = std::fs::File::create(path)?;
    writeln!(file, "{CSV_HEADER}")?;
    for r in results {
        writeln!(file, "{}", csv_row(r))?;
    }
    Ok(())
}

/// Renders an aligned console table, grouped the way Figure 4 is panelled:
/// one block per reader count, θ on the rows, one throughput column per
/// protocol.
pub fn figure4_table(results: &[RunResult]) -> String {
    use std::collections::BTreeSet;
    let mut out = String::new();
    let reader_counts: BTreeSet<usize> = results.iter().map(|r| r.readers).collect();
    let mut protocols: Vec<&'static str> = results.iter().map(|r| r.protocol.name()).collect();
    protocols.dedup();
    let mut unique_protocols: Vec<&'static str> = Vec::new();
    for p in protocols {
        if !unique_protocols.contains(&p) {
            unique_protocols.push(p);
        }
    }

    for readers in reader_counts {
        out.push_str(&format!(
            "\nconcurrent ad-hoc queries = {readers}  (throughput in K tps)\n"
        ));
        out.push_str(&format!("{:>6} ", "theta"));
        for p in &unique_protocols {
            out.push_str(&format!("{p:>10} "));
        }
        out.push('\n');
        let mut thetas: Vec<f64> = results
            .iter()
            .filter(|r| r.readers == readers)
            .map(|r| r.theta)
            .collect();
        thetas.sort_by(|a, b| a.partial_cmp(b).unwrap());
        thetas.dedup();
        for theta in thetas {
            out.push_str(&format!("{theta:>6.2} "));
            for p in &unique_protocols {
                let cell = results.iter().find(|r| {
                    r.readers == readers
                        && (r.theta - theta).abs() < 1e-9
                        && r.protocol.name() == *p
                });
                match cell {
                    Some(r) => out.push_str(&format!("{:>10.1} ", r.throughput_ktps)),
                    None => out.push_str(&format!("{:>10} ", "-")),
                }
            }
            out.push('\n');
        }
    }
    out
}

/// Renders a one-line summary of a single result.
pub fn summary_line(r: &RunResult) -> String {
    format!(
        "{:<5} readers={:<3} θ={:<4.2} {:<10} → {:>8.1} K tps (readers {:>8.1} K tps, writer {:>7.1} tps, aborts {:>5.1} %)",
        r.protocol.name(),
        r.readers,
        r.theta,
        r.storage.name(),
        r.throughput_ktps,
        r.reader_ktps,
        r.writer_tps,
        r.abort_ratio() * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Protocol, StorageKind};
    use std::time::Duration;
    use tsp_core::TxStatsSnapshot;

    fn fake(protocol: Protocol, readers: usize, theta: f64, ktps: f64) -> RunResult {
        RunResult {
            protocol,
            readers,
            theta,
            storage: StorageKind::InMemory,
            elapsed: Duration::from_secs(1),
            reader_committed: (ktps * 1000.0) as u64,
            reader_aborted: 5,
            writer_committed: 100,
            writer_aborted: 1,
            throughput_ktps: ktps,
            reader_ktps: ktps,
            writer_tps: 100.0,
            reader_p50: Some(Duration::from_micros(50)),
            reader_p99: Some(Duration::from_micros(900)),
            reader_p999: Some(Duration::from_micros(1500)),
            stats: TxStatsSnapshot::default(),
            partitions: 1,
            partition_writer_commits: Vec::new(),
            partition_reader_latency: Vec::new(),
            persist_retries: 2,
            writer_recoveries: 0,
            admission_waits: 0,
            admission_wait_p99: None,
            timed_out_commits: 0,
            lease_reaps: 3,
        }
    }

    #[test]
    fn csv_round_trip_shape() {
        let r = fake(Protocol::Mvcc, 4, 1.5, 123.4);
        let row = csv_row(&r);
        assert_eq!(row.split(',').count(), CSV_HEADER.split(',').count());
        assert!(row.starts_with("MVCC,4,1.50,mem"));
        assert!(
            row.ends_with(",2,3"),
            "persist_retries then lease_reaps are the last columns"
        );
    }

    #[test]
    fn write_csv_creates_file() {
        let path = std::env::temp_dir().join(format!("tsp-report-{}.csv", std::process::id()));
        let results = vec![
            fake(Protocol::Mvcc, 4, 0.0, 10.0),
            fake(Protocol::S2pl, 4, 0.0, 5.0),
        ];
        write_csv(&path, &results).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().count(), 3);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn figure4_table_layout() {
        let results = vec![
            fake(Protocol::Mvcc, 4, 0.0, 100.0),
            fake(Protocol::S2pl, 4, 0.0, 80.0),
            fake(Protocol::Mvcc, 4, 2.0, 110.0),
            fake(Protocol::S2pl, 4, 2.0, 20.0),
            fake(Protocol::Mvcc, 24, 0.0, 150.0),
        ];
        let table = figure4_table(&results);
        assert!(table.contains("concurrent ad-hoc queries = 4"));
        assert!(table.contains("concurrent ad-hoc queries = 24"));
        assert!(table.contains("MVCC"));
        assert!(table.contains("S2PL"));
        assert!(table.contains("0.00"));
        assert!(table.contains("2.00"));
        // A missing cell renders as '-'.
        assert!(table.contains('-'));
    }

    #[test]
    fn summary_line_contains_key_numbers() {
        let line = summary_line(&fake(Protocol::Bocc, 24, 2.9, 42.0));
        assert!(line.contains("BOCC"));
        assert!(line.contains("24"));
        assert!(line.contains("42.0"));
    }
}

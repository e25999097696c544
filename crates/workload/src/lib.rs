//! # tsp-workload — workload generation and the evaluation harness
//!
//! Everything needed to regenerate the paper's evaluation (§5):
//!
//! * [`zipf`] — the Zipfian key-distribution generator (Gray et al. \[7\])
//!   controlling contention, calibrated so that θ = 2.9 sends ≈ 82 % of all
//!   accesses to the hottest key, exactly the paper's setting,
//! * [`harness`] — the micro-benchmark: one continuous stream writer updating
//!   two states under the consistency protocol, N concurrent ad-hoc readers,
//!   persistent synchronous base tables, 10-operation transactions; it
//!   records latency into the shared log-bucketed [`Histogram`]
//!   (`tsp_common::Histogram`, re-exported here) and reports throughput
//!   through [`throughput_ktps`],
//! * [`report`] — console tables shaped like Figure 4 plus CSV output.
//!
//! The `tsp-bench` crate drives this harness from Criterion benches and the
//! `figure4` binary.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod harness;
pub mod report;
pub mod smartmeter;
pub mod ycsb;
pub mod zipf;

pub use harness::{throughput_ktps, BenchEnv, Protocol, RunResult, StorageKind, WorkloadConfig};
pub use smartmeter::{MeterReading, MeterSpec, SmartMeterConfig, SmartMeterGenerator};
pub use tsp_common::Histogram;
pub use ycsb::{run_ycsb, YcsbConfig, YcsbMix, YcsbOp, YcsbResult};
pub use zipf::{KeyGen, PartitionLocalSampler, ZipfSampler, ZipfTable};

/// Frequently used items, re-exported for `use tsp_workload::prelude::*`.
pub mod prelude {
    pub use crate::harness::{
        run, run_in, throughput_ktps, BenchEnv, Protocol, RunResult, StorageKind, WorkloadConfig,
    };
    pub use crate::report::{csv_row, figure4_table, summary_line, write_csv, CSV_HEADER};
    pub use crate::smartmeter::{
        violates_spec, MeterReading, MeterSpec, SmartMeterConfig, SmartMeterGenerator,
    };
    pub use crate::ycsb::{run_ycsb, YcsbConfig, YcsbMix, YcsbOp, YcsbResult};
    pub use crate::zipf::{KeyGen, PartitionLocalSampler, ZipfSampler, ZipfTable};
    pub use tsp_common::Histogram;
    pub use tsp_core::{TableHandle, TransactionalTable, TransactionalTableExt};
}

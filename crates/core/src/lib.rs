//! # tsp-core — transactional state management with snapshot isolation
//!
//! This crate is the primary contribution of the reproduced paper
//! (*Snapshot Isolation for Transactional Stream Processing*, Götze &
//! Sattler, EDBT 2019): queryable, transactional states for stream
//! processing pipelines.
//!
//! ## Components (mirroring §4 of the paper)
//!
//! * [`mvcc`] — multi-versioned data structures: per-key version arrays with
//!   `[cts, dts]` headers, a `UsedSlots` occupancy bitmap and on-demand
//!   garbage collection.
//! * [`table`] — the transactional table layer: one generic table,
//!   [`table::Table`], with each concurrency protocol plugged in as a
//!   [`table::Policy`] — [`table::MvccTable`] with snapshot isolation (the
//!   paper's contribution), the [`table::S2plTable`] and
//!   [`table::BoccTable`] baselines, and the serializable
//!   [`table::SsiTable`] extension.  The table implements the
//!   protocol-agnostic trait [`table::TransactionalTable`] once; the
//!   [`table::Protocol`] factory turns protocol choice into a runtime value
//!   (`protocol.create_table(...) -> Arc<dyn TransactionalTable<K, V>>`).
//! * [`context`] — the global state context: registered states, topology
//!   groups with their `LastCTS`, the active-transaction table (a multi-word
//!   slot bitmap sized by [`StateContext::with_capacity`], per-state status
//!   flags, per-group `ReadCTS`) and the `OldestActiveVersion` bound for
//!   garbage collection.
//! * [`manager`] — the consistency protocol (§4.3): a lightweight
//!   2-phase-commit across all states of one stream query, with coordinator
//!   election by "whoever flags last".
//! * [`clock`] — the global atomic logical clock issuing every timestamp.
//! * [`recovery`] — restoring group `LastCTS` and resuming the clock after a
//!   restart.
//! * [`stats`] — shared counters (commits, aborts, conflicts, GC work).
//! * [`telemetry`] — the metrics registry: commit-pipeline stage timing
//!   histograms, the labeled [`telemetry::AbortReason`] taxonomy, GC and
//!   persistence gauges, and JSON / Prometheus exposition via
//!   [`telemetry::TelemetrySnapshot`].
//!
//! ## Quick example
//!
//! ```
//! use std::sync::Arc;
//! use tsp_core::prelude::*;
//!
//! let ctx = Arc::new(StateContext::new());
//! let mgr = TransactionManager::new(Arc::clone(&ctx));
//! let table = MvccTable::<u64, String>::volatile(&ctx, "measurements");
//! mgr.register(table.clone());
//! mgr.register_group(&[table.id()]).unwrap();
//!
//! // A stream transaction writes …
//! let tx = mgr.begin().unwrap();
//! table.write(&tx, 1, "42 kWh".to_string()).unwrap();
//! mgr.commit(&tx).unwrap();
//!
//! // … and an ad-hoc query reads a consistent snapshot.
//! let q = mgr.begin_read_only().unwrap();
//! assert_eq!(table.read(&q, &1).unwrap(), Some("42 kWh".to_string()));
//! mgr.commit(&q).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod context;
pub mod gc;
pub mod index;
pub mod isolation;
pub mod latch_probe;
pub mod manager;
pub mod mvcc;
pub mod partition;
pub mod recovery;
pub mod stats;
pub mod table;
pub mod telemetry;

pub use clock::{GlobalClock, EPOCH_TS};
pub use context::{
    CommitVote, DurabilityHub, PendingRedo, StateContext, StateInfo, StateStatus, Tx,
    MAX_ACTIVE_TXNS,
};
pub use gc::{GcDriver, GcHandle, GcReport, GcTarget};
pub use index::{IndexedTable, PostingList};
pub use isolation::{IsolatedReader, IsolationLevel};
pub use manager::{FlagOutcome, ReaperHandle, TransactionManager, TxGuard};
pub use mvcc::{MvccObject, Version, LEVEL_SLOTS};
pub use partition::{HashPartitioner, PartitionedTable, Partitioner, RangePartitioner};
pub use recovery::{
    recover_table_cts, replay_torn_suffix, restore_group, resume_clock, RecoveryReport,
};
pub use stats::TxStatsSnapshot;
pub use table::{
    BoccTable, ConflictCheck, KeyType, MvccTable, MvccTableOptions, Protocol, S2plTable, SsiTable,
    TableHandle, TransactionalTable, TransactionalTableExt, TxParticipant, ValueType, WriteOp,
};
pub use telemetry::{
    AbortReason, Counter, HistogramSummary, Telemetry, TelemetrySnapshot, WriterScan,
};

/// Frequently used items, re-exported for `use tsp_core::prelude::*`.
pub mod prelude {
    pub use crate::clock::{GlobalClock, EPOCH_TS};
    pub use crate::context::{CommitVote, DurabilityHub, StateContext, StateStatus, Tx};
    pub use crate::gc::{GcDriver, GcReport, GcTarget};
    pub use crate::index::{IndexedTable, PostingList};
    pub use crate::isolation::{IsolatedReader, IsolationLevel};
    pub use crate::manager::{FlagOutcome, ReaperHandle, TransactionManager, TxGuard};
    pub use crate::mvcc::MvccObject;
    pub use crate::partition::{HashPartitioner, PartitionedTable, Partitioner, RangePartitioner};
    pub use crate::recovery::{
        recover_table_cts, replay_torn_suffix, restore_group, resume_clock, RecoveryReport,
    };
    pub use crate::stats::TxStatsSnapshot;
    pub use crate::table::{
        BoccTable, ConflictCheck, KeyType, MvccTable, MvccTableOptions, Protocol, S2plTable,
        SsiTable, TableHandle, TransactionalTable, TransactionalTableExt, TxParticipant, ValueType,
    };
    pub use crate::telemetry::{AbortReason, HistogramSummary, Telemetry, TelemetrySnapshot};
}

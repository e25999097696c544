//! # tsp-storage — key-value storage backends for queryable states
//!
//! The paper's transactional table wrapper sits on top of "any existing
//! backend structure with a key-value mapping" (§4.1).  This crate provides
//! that layer:
//!
//! * [`backend::StorageBackend`] — the backend trait (get/put/delete/batch/
//!   scan/sync over raw bytes),
//! * [`memtable::BTreeBackend`] — sharded ordered in-memory backend,
//! * [`lsm::LsmStore`] — a persistent, crash-recoverable WAL + LSM store.
//!   This is the stand-in for the RocksDB base table used in the paper's
//!   evaluation; its [`backend::SyncPolicy::Always`] mode reproduces the
//!   "sync option = true" configuration of §5.1.
//! * [`codec::Codec`] — order-preserving key/value encodings bridging typed
//!   states and byte-oriented backends.
//! * [`batch_writer::BatchWriter`] — the asynchronous persistence writer
//!   behind a context's durability hub.
//!
//! Metrics: the engine's registry lives in `tsp_core::telemetry`.  This
//! crate records only what the engine cannot see from above — each
//! [`BatchWriter`] keeps its queue-dwell and coalesced-batch histograms and
//! its retry/recovery counters, which the hub's writer scan joins into
//! every telemetry snapshot — plus the opt-in [`stats::InstrumentedBackend`]
//! decorator, which counts the operations and bytes that reach a backend.
//! There is no block or row cache: committed reads are served from the
//! in-memory version objects above the backend, and [`lsm::LsmStore`]
//! filters negative lookups with per-SSTable [`Bloom`] filters.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod batch_writer;
pub mod bloom;
pub mod checkpoint;
pub mod checksum;
pub mod codec;
pub mod fault;
pub mod lsm;
pub mod manifest;
pub mod memtable;
pub mod redo;
pub mod retry;
pub mod sstable;
pub mod stats;
pub mod wal;

pub use backend::{BatchOp, StorageBackend, SyncPolicy, WriteBatch};
pub use batch_writer::{BatchWriter, DEFAULT_QUEUE_CAPACITY};
pub use bloom::Bloom;
pub use checkpoint::{create_checkpoint, read_checkpoint_info, restore_checkpoint, CheckpointInfo};
pub use codec::Codec;
pub use fault::{FaultInjectingBackend, FaultPlan};
pub use lsm::{LsmOptions, LsmStore};
pub use memtable::BTreeBackend;
pub use redo::{
    parse_redo_key, redo_key, scan_redo, truncate_redo, RedoRecord, RedoSections, SectionWriter,
    StateRedo,
};
pub use retry::RetryPolicy;
pub use stats::{InstrumentedBackend, StorageStats, StorageStatsSnapshot};

/// Frequently used items, re-exported for `use tsp_storage::prelude::*`.
pub mod prelude {
    pub use crate::backend::{BatchOp, StorageBackend, SyncPolicy, WriteBatch};
    pub use crate::batch_writer::{BatchWriter, DEFAULT_QUEUE_CAPACITY};
    pub use crate::bloom::Bloom;
    pub use crate::checkpoint::{
        create_checkpoint, read_checkpoint_info, restore_checkpoint, CheckpointInfo,
    };
    pub use crate::codec::Codec;
    pub use crate::fault::{FaultInjectingBackend, FaultPlan};
    pub use crate::lsm::{LsmOptions, LsmStore};
    pub use crate::memtable::BTreeBackend;
    pub use crate::redo::{
        parse_redo_key, redo_key, scan_redo, truncate_redo, RedoRecord, RedoSections,
        SectionWriter, StateRedo,
    };
    pub use crate::retry::RetryPolicy;
    pub use crate::stats::{InstrumentedBackend, StorageStats, StorageStatsSnapshot};
}

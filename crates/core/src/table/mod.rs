//! Transactional tables — one implementation per concurrency-control
//! protocol evaluated in the paper — unified behind the protocol-agnostic
//! [`TransactionalTable`] trait.
//!
//! ## The trait layer
//!
//! * [`TransactionalTable`] — the data-plane interface every protocol
//!   implements: `read` / `write` / `delete` / snapshot-respecting `scan` /
//!   `preload`, plus the upcast to the commit-protocol half.
//! * [`TxParticipant`] — the commit-protocol interface (validate / apply /
//!   finish, plus defaulted durability and undo hooks) driven by
//!   [`crate::manager::TransactionManager`] (§4.3 of the paper).
//! * [`Protocol`] — runtime protocol selection:
//!   [`Protocol::create_table`] returns an `Arc<dyn TransactionalTable<K, V>>`
//!   ([`TableHandle`]), so harnesses, benches and operators never name a
//!   concrete table type.
//!
//! ## The implementations
//!
//! * [`MvccTable`] — the paper's contribution: multi-versioned snapshot
//!   isolation (§4.1/§4.2).
//! * [`S2plTable`] — strict two-phase locking baseline.
//! * [`BoccTable`] — backward-oriented optimistic concurrency control
//!   baseline.
//! * [`SsiTable`] — serializable snapshot isolation: the MVCC table plus
//!   commit-time read-set validation (write-snapshot isolation).  The
//!   worked example of the protocol-extension recipe in
//!   `docs/ARCHITECTURE.md`.
//!
//! All four are driven by the same consistency protocol (§4.3), mirroring
//! the paper's evaluation setup ("All concurrency control protocols use
//! fundamentally the same consistency protocol for multiple states").  The
//! mechanics they share — write-set buffering, read-your-own-writes,
//! batched preloading, commit-marker persistence, scan overlays — live in
//! [`common`] as free helpers rather than being re-implemented per protocol,
//! and the two single-version baselines share one `InPlaceStore`.

pub mod bocc_table;
pub mod common;
pub mod factory;
pub mod locks;
pub mod mvcc_table;
mod objmap;
pub mod s2pl_table;
pub mod ssi_table;

pub use bocc_table::BoccTable;
pub use common::{
    attach_group_redo, KeyType, ReadSet, Recycle, SlotLocal, TableHandle, TransactionalTable,
    TransactionalTableExt, TxParticipant, TxWriteSets, TypedBackend, ValueType, WriteOp, WriteSet,
    LAST_CTS_KEY,
};
pub use factory::Protocol;
pub use locks::{LockManager, LockMode};
pub use mvcc_table::{ConflictCheck, MvccTable, MvccTableOptions};
pub use s2pl_table::S2plTable;
pub use ssi_table::SsiTable;

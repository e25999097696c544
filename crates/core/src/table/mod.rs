//! Transactional tables: one generic [`Table<K, V, P>`](Table) skeleton
//! with each concurrency-control protocol of the paper plugged in as a
//! [`Policy`], behind the protocol-agnostic [`TransactionalTable`] trait.
//!
//! ## The trait layer
//!
//! * [`TransactionalTable`] — the data-plane interface: `read` / `write` /
//!   `delete` / snapshot-respecting `scan` / `preload`, plus the upcast to
//!   the commit-protocol half.
//! * [`TxParticipant`] — the commit-protocol interface (validate / apply /
//!   finish, plus defaulted durability and undo hooks) driven by
//!   [`crate::manager::TransactionManager`] (§4.3 of the paper).
//! * [`Protocol`] — runtime protocol selection:
//!   [`Protocol::create_table`] returns an `Arc<dyn TransactionalTable<K, V>>`
//!   ([`TableHandle`]), so harnesses, benches and operators never name a
//!   concrete table type.  The factory is the only place `dyn` dispatch
//!   enters; inside a table every protocol hook is statically dispatched.
//!
//! ## The skeleton and its policies
//!
//! [`Table`] (`skeleton.rs`) implements both traits once: registration,
//! the read-your-own-writes prologue, write buffering in slot-local write
//! sets, scans, preloading and the base table's durable batches.  A
//! [`Policy`] supplies what differs — its [`Store`] (versioned or in
//! place, `store.rs`), a read and write hook, and the validate / apply /
//! undo / finish rules — with its per-transaction state in one slot-local
//! cell of the table.  The four protocols are type aliases:
//!
//! * [`MvccTable`] — the paper's contribution: multi-versioned snapshot
//!   isolation (§4.1/§4.2), First-Committer-Wins at commit.
//! * [`S2plTable`] — strict two-phase locking baseline: locks on access,
//!   the held keys in the transaction's cell.
//! * [`BoccTable`] — backward-oriented optimistic concurrency control
//!   baseline: a read set, validated against the commit log.
//! * [`SsiTable`] — serializable snapshot isolation: the MVCC store with
//!   read-set certification added at commit (write-snapshot isolation).
//!
//! All four are driven by the same consistency protocol (§4.3), mirroring
//! the paper's evaluation setup ("All concurrency control protocols use
//! fundamentally the same consistency protocol for multiple states").
//! `docs/ARCHITECTURE.md` has the recipe for adding a protocol.

pub mod bocc_table;
pub mod common;
pub mod factory;
pub mod locks;
pub mod mvcc_table;
mod objmap;
pub mod s2pl_table;
pub mod skeleton;
pub mod ssi_table;
pub mod store;

pub use bocc_table::{Bocc, BoccTable};
pub use common::{
    attach_group_redo, KeyType, ReadSet, Recycle, SlotLocal, TableHandle, TransactionalTable,
    TransactionalTableExt, TxParticipant, TypedBackend, ValueType, WriteOp, WriteSet, LAST_CTS_KEY,
};
pub use factory::Protocol;
pub use locks::{LockManager, LockMode};
pub use mvcc_table::{ConflictCheck, Mvcc, MvccTable, MvccTableOptions};
pub use s2pl_table::{S2pl, S2plTable};
pub use skeleton::{Policy, Store, Table};
pub use ssi_table::{Ssi, SsiTable};
pub use store::{InPlaceStore, Versions};

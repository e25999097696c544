//! # tsp-stream — the dataflow framework for transactional stream processing
//!
//! This crate provides the stream-processing substrate the paper's prototype
//! builds on (PipeFabric in the original work): topologies of operators
//! connected by streams, plus the three *linking operators* of §3 that
//! connect streams with transactional tables:
//!
//! * [`to_table::ToTable`] / [`Stream::to_table`] — `TO_TABLE`, the only way
//!   to modify a table, transactional per the stream's boundaries,
//! * [`Stream::to_stream`] — `TO_STREAM`, emitting tuples derived from a
//!   table according to a [`to_stream::TriggerPolicy`],
//! * [`Topology::from_table`] / [`from::AdHocQuery`] — `FROM`, ad-hoc
//!   snapshot queries over tables (or attaching to a stream via
//!   [`Stream::broadcast`]).
//!
//! Operators between a source (or a fork) and a sink run as one fused chain
//! on one thread; only `broadcast`, `merge`, the partition routers and
//! `hash_join` cross threads through bounded channels ([`stream`],
//! [`topology`]).  The query below — source, `map`, punctuation,
//! `TO_TABLE`, sink — is a single thread.
//!
//! Transaction boundaries are data-centric: `BOT`/`COMMIT`/`ROLLBACK`
//! punctuations flow in-band ([`Stream::punctuate_every`],
//! [`txn::Boundaries`]), and the [`txn::TxCoordinator`] makes sure all
//! `TO_TABLE` operators of one query share one transaction so the
//! multi-state consistency protocol of §4.3 applies.
//!
//! ```
//! use std::sync::Arc;
//! use tsp_core::prelude::*;
//! use tsp_stream::prelude::*;
//!
//! let ctx = Arc::new(StateContext::new());
//! let mgr = TransactionManager::new(Arc::clone(&ctx));
//! let table = MvccTable::<u64, u64>::volatile(&ctx, "sums");
//! mgr.register(table.clone());
//! mgr.register_group(&[table.id()]).unwrap();
//! let coord = TxCoordinator::new(Arc::clone(&ctx));
//!
//! let topo = Topology::new();
//! let writer_table = Arc::clone(&table);
//! topo.source_vec((0..100u64).collect())
//!     .map(|x| (x % 10, x))
//!     .punctuate_every(25, Arc::clone(&coord))
//!     .to_table(ToTable::new(
//!         Arc::clone(&mgr),
//!         Arc::clone(&coord),
//!         table.id(),
//!         Boundaries::Punctuations,
//!         move |tx: &Tx, (k, v): &(u64, u64)| writer_table.write(tx, *k, *v),
//!     ))
//!     .drain();
//! topo.run();
//!
//! let q = mgr.begin_read_only().unwrap();
//! assert_eq!(table.scan(&q).unwrap().len(), 10);
//! mgr.commit(&q).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod from;
pub mod join;
pub mod partition;
pub mod stream;
pub mod to_stream;
pub mod to_table;
pub mod topology;
pub mod txn;
pub mod window;

pub use from::AdHocQuery;
pub use stream::{Collected, Data, Stream};
pub use to_stream::TriggerPolicy;
pub use to_table::{TableWriter, ToTable};
pub use topology::Topology;
pub use txn::{Boundaries, TxCoordinator};
pub use window::Window;

/// Frequently used items, re-exported for `use tsp_stream::prelude::*`.
pub mod prelude {
    pub use crate::from::AdHocQuery;
    pub use crate::stream::{Collected, Stream};
    pub use crate::to_stream::TriggerPolicy;
    pub use crate::to_table::{TableWriter, ToTable};
    pub use crate::topology::Topology;
    pub use crate::txn::{Boundaries, TxCoordinator};
    pub use crate::window::Window;
}

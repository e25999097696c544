//! Runtime protocol selection: the [`Protocol`] enum and its
//! [`TransactionalTable`](crate::table::TransactionalTable) factory.
//!
//! The paper's evaluation (§5) drives the same workload through three
//! concurrency-control protocols.  Historically each call site matched on the
//! protocol and named a concrete table type; the factory turns that choice
//! into a runtime value — harnesses, benches and examples build
//! `Arc<dyn TransactionalTable<K, V>>` handles and stay completely
//! protocol-agnostic.

use crate::context::StateContext;
use crate::table::common::{KeyType, TableHandle, ValueType};
use crate::table::{BoccTable, MvccTable, MvccTableOptions, S2plTable, SsiTable};
use std::sync::Arc;
use tsp_storage::StorageBackend;

/// Concurrency-control protocol (§5 of the paper compares the first three;
/// [`Protocol::Ssi`] is this reproduction's serializable extension).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Multi-version concurrency control with snapshot isolation (the
    /// paper's contribution).
    Mvcc,
    /// Strict two-phase locking baseline.
    S2pl,
    /// Backward-oriented optimistic concurrency control baseline.
    Bocc,
    /// Serializable snapshot isolation: MVCC plus commit-time read-set
    /// validation (write-snapshot isolation).  Closes the write-skew and
    /// read-only anomalies plain SI admits; read-only transactions still
    /// never validate and never abort.
    Ssi,
}

impl Protocol {
    /// All protocols: the paper's three in the order it lists them, then
    /// the serializable-SI extension.
    pub const ALL: [Protocol; 4] = [
        Protocol::Mvcc,
        Protocol::S2pl,
        Protocol::Bocc,
        Protocol::Ssi,
    ];

    /// Short display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::Mvcc => "MVCC",
            Protocol::S2pl => "S2PL",
            Protocol::Bocc => "BOCC",
            Protocol::Ssi => "SSI",
        }
    }

    /// Parses a case-insensitive protocol name
    /// ("mvcc" / "s2pl" / "bocc" / "ssi").
    pub fn parse(s: &str) -> Option<Protocol> {
        match s.to_ascii_lowercase().as_str() {
            "mvcc" => Some(Protocol::Mvcc),
            "s2pl" => Some(Protocol::S2pl),
            "bocc" => Some(Protocol::Bocc),
            "ssi" => Some(Protocol::Ssi),
            _ => None,
        }
    }

    /// Creates a table of this protocol flavour registered as `name`,
    /// volatile when `backend` is `None`, persistent otherwise.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use tsp_core::prelude::*;
    ///
    /// let ctx = Arc::new(StateContext::new());
    /// let mgr = TransactionManager::new(Arc::clone(&ctx));
    /// for protocol in Protocol::ALL {
    ///     let table = protocol.create_table::<u32, u64>(&ctx, protocol.name(), None);
    ///     mgr.register(Arc::clone(&table).as_participant());
    ///     mgr.register_group(&[table.id()]).unwrap();
    ///     let tx = mgr.begin().unwrap();
    ///     table.write(&tx, 1, 42).unwrap();
    ///     mgr.commit(&tx).unwrap();
    /// }
    /// ```
    pub fn create_table<K: KeyType, V: ValueType>(
        self,
        ctx: &Arc<StateContext>,
        name: impl Into<String>,
        backend: Option<Arc<dyn StorageBackend>>,
    ) -> TableHandle<K, V> {
        self.create_table_with_options(ctx, name, backend, MvccTableOptions::default())
    }

    /// Like [`create_table`](Self::create_table) but with explicit MVCC
    /// tuning options, which apply to both protocols built on the MVCC
    /// version store ([`Protocol::Mvcc`] and [`Protocol::Ssi`]); the
    /// locking/single-version baselines ignore `mvcc_opts`.
    pub fn create_table_with_options<K: KeyType, V: ValueType>(
        self,
        ctx: &Arc<StateContext>,
        name: impl Into<String>,
        backend: Option<Arc<dyn StorageBackend>>,
        mvcc_opts: MvccTableOptions,
    ) -> TableHandle<K, V> {
        match self {
            Protocol::Mvcc => MvccTable::with_options(ctx, name, backend, mvcc_opts),
            Protocol::S2pl => S2plTable::with_options(ctx, name, backend, mvcc_opts),
            Protocol::Bocc => BoccTable::with_options(ctx, name, backend, mvcc_opts),
            Protocol::Ssi => SsiTable::with_options(ctx, name, backend, mvcc_opts),
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::TransactionManager;
    use crate::table::common::TransactionalTableExt;
    use tsp_storage::BTreeBackend;

    #[test]
    fn factory_names_and_parse_round_trip() {
        for p in Protocol::ALL {
            assert_eq!(Protocol::parse(p.name()), Some(p));
            assert_eq!(format!("{p}"), p.name());
        }
        assert_eq!(Protocol::parse("nope"), None);
    }

    #[test]
    fn factory_builds_working_tables_for_every_protocol() {
        for protocol in Protocol::ALL {
            let ctx = Arc::new(StateContext::new());
            let mgr = TransactionManager::new(Arc::clone(&ctx));
            let table = protocol.create_table::<u32, String>(&ctx, "t", None);
            mgr.register(Arc::clone(&table).as_participant());
            mgr.register_group(&[table.id()]).unwrap();
            assert!(!table.is_persistent());
            assert_eq!(table.name(), "t");

            let tx = mgr.begin().unwrap();
            table.write(&tx, 7, "seven".into()).unwrap();
            mgr.commit(&tx).unwrap();

            let q = mgr.begin_read_only().unwrap();
            assert_eq!(table.read(&q, &7).unwrap(), Some("seven".into()));
            assert_eq!(table.scan(&q).unwrap().len(), 1);
            mgr.commit(&q).unwrap();
        }
    }

    #[test]
    fn factory_builds_persistent_tables() {
        for protocol in Protocol::ALL {
            let ctx = Arc::new(StateContext::new());
            let mgr = TransactionManager::new(Arc::clone(&ctx));
            let backend = Arc::new(BTreeBackend::new());
            let table = protocol.create_table::<u32, u64>(&ctx, "p", Some(backend.clone()));
            mgr.register(Arc::clone(&table).as_participant());
            mgr.register_group(&[table.id()]).unwrap();
            assert!(table.is_persistent());
            table.preload((0..100u32).map(|i| (i, i as u64))).unwrap();
            let q = mgr.begin_read_only().unwrap();
            assert_eq!(table.read(&q, &42).unwrap(), Some(42));
            mgr.commit(&q).unwrap();
            assert!(backend.len() >= 100);
        }
    }
}

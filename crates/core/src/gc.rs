//! Garbage collection of superseded versions.
//!
//! §4.1: "For garbage collection, we clean up old versions on demand (using
//! `OldestActiveVersion`), i.e., if a new version has to be created and no
//! space is available in the version array."  That on-demand path lives in
//! [`crate::mvcc::MvccObject::install`]; this module adds the complementary
//! *vacuum* path a long-running deployment needs: a [`GcDriver`] that sweeps
//! registered tables either on explicit request or from a low-priority
//! background thread — so version arrays are trimmed even for keys the
//! stream stopped updating.
//!
//! The reclamation bound is the same in both paths: a version may be dropped
//! once it is no longer the visible version for `OldestActiveVersion`, the
//! begin timestamp of the oldest still-running transaction.

use crate::context::StateContext;
use crate::table::{KeyType, MvccTable, ValueType};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Anything the [`GcDriver`] can sweep.
pub trait GcTarget: Send + Sync {
    /// Human-readable name of the swept state.
    fn gc_name(&self) -> String;
    /// Runs one reclamation sweep; returns the number of versions reclaimed.
    fn gc_sweep(&self) -> usize;
    /// Number of keys currently holding in-memory version objects.
    fn gc_versioned_keys(&self) -> usize;
}

impl<K: KeyType, V: ValueType> GcTarget for MvccTable<K, V> {
    fn gc_name(&self) -> String {
        self.name().to_string()
    }
    fn gc_sweep(&self) -> usize {
        self.gc()
    }
    fn gc_versioned_keys(&self) -> usize {
        self.versioned_key_count()
    }
}

/// Result of one [`GcDriver::run_once`] sweep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// `(state name, versions reclaimed)` per swept table.
    pub per_table: Vec<(String, usize)>,
    /// Total versions reclaimed in this sweep.
    pub reclaimed: usize,
    /// The `OldestActiveVersion` bound the sweep used.
    pub horizon: u64,
}

/// Coordinates vacuum-style garbage collection over a set of tables.
pub struct GcDriver {
    ctx: Arc<StateContext>,
    targets: parking_lot::RwLock<Vec<Arc<dyn GcTarget>>>,
    sweeps: AtomicU64,
    total_reclaimed: AtomicU64,
}

impl GcDriver {
    /// Creates a driver with no registered tables.
    pub fn new(ctx: Arc<StateContext>) -> Arc<Self> {
        Arc::new(GcDriver {
            ctx,
            targets: parking_lot::RwLock::new(Vec::new()),
            sweeps: AtomicU64::new(0),
            total_reclaimed: AtomicU64::new(0),
        })
    }

    /// Registers a table for sweeping.
    pub fn register(&self, target: Arc<dyn GcTarget>) {
        self.targets.write().push(target);
    }

    /// Number of registered targets.
    pub fn target_count(&self) -> usize {
        self.targets.read().len()
    }

    /// Sweeps every registered table once and returns what was reclaimed.
    pub fn run_once(&self) -> GcReport {
        // Reap lease-expired transactions before reading the floor: an
        // abandoned client pins `OldestActiveVersion`, and reclaiming its
        // slot here is what lets this very sweep advance past the garbage
        // it was holding live.  Free when leases are disabled (no
        // candidates) or no manager installed a reap hook.
        self.ctx.try_reap();
        let horizon = self.ctx.oldest_active();
        let targets: Vec<Arc<dyn GcTarget>> = self.targets.read().clone();
        let mut report = GcReport {
            horizon,
            ..Default::default()
        };
        for t in targets {
            let reclaimed = t.gc_sweep();
            report.reclaimed += reclaimed;
            report.per_table.push((t.gc_name(), reclaimed));
        }
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        self.total_reclaimed
            .fetch_add(report.reclaimed as u64, Ordering::Relaxed);
        // The swept tables record reclaim counters (`gc_runs` /
        // `gc_reclaimed`) into the context registry themselves; the driver
        // only refreshes the floor-lag gauge — how far the oldest active
        // snapshot trails the clock, i.e. the history GC must keep.
        self.ctx
            .telemetry()
            .set_gc_floor_lag(self.ctx.clock().now().saturating_sub(horizon));
        report
    }

    /// Number of sweeps performed so far.
    pub fn sweep_count(&self) -> u64 {
        self.sweeps.load(Ordering::Relaxed)
    }

    /// Total versions reclaimed across all sweeps of this driver.
    pub fn total_reclaimed(&self) -> u64 {
        self.total_reclaimed.load(Ordering::Relaxed)
    }

    /// Starts a background thread sweeping every `interval` until the handle
    /// is stopped or dropped.
    pub fn spawn_periodic(self: &Arc<Self>, interval: Duration) -> GcHandle {
        let driver = Arc::clone(self);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("tsp-gc".into())
            .spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    if stop_flag.load(Ordering::Relaxed) {
                        break;
                    }
                    // Swept tables record reclaim stats; `run_once` itself
                    // refreshes the floor-lag gauge.
                    let _ = driver.run_once();
                }
            })
            .expect("spawning the GC thread cannot fail");
        GcHandle {
            stop,
            handle: Some(handle),
        }
    }
}

/// Handle to a background GC thread; stops the thread when dropped.
pub struct GcHandle {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl GcHandle {
    /// Signals the thread to stop and waits for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for GcHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::TransactionManager;

    fn setup() -> (
        Arc<StateContext>,
        Arc<TransactionManager>,
        Arc<MvccTable<u32, String>>,
    ) {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let table = MvccTable::<u32, String>::volatile(&ctx, "gc-target");
        mgr.register(table.clone());
        mgr.register_group(&[table.id()]).unwrap();
        (ctx, mgr, table)
    }

    fn churn(mgr: &TransactionManager, table: &MvccTable<u32, String>, rounds: usize) {
        for i in 0..rounds {
            let tx = mgr.begin().unwrap();
            table.write(&tx, 1, format!("v{i}")).unwrap();
            mgr.commit(&tx).unwrap();
        }
    }

    #[test]
    fn run_once_reclaims_superseded_versions() {
        let (ctx, mgr, table) = setup();
        let driver = GcDriver::new(Arc::clone(&ctx));
        driver.register(table.clone());
        assert_eq!(driver.target_count(), 1);

        // A reader pinned across the churn keeps the installs' on-demand
        // GC from reclaiming the superseded versions first.
        let pinned = mgr.begin_read_only().unwrap();
        churn(&mgr, &table, 5);
        assert_eq!(table.version_count(&1), 5);
        mgr.commit(&pinned).unwrap();
        let report = driver.run_once();
        assert_eq!(report.reclaimed, 4);
        assert_eq!(report.per_table, vec![("gc-target".to_string(), 4)]);
        assert!(report.horizon > 0);
        assert_eq!(table.version_count(&1), 1);
        assert_eq!(driver.sweep_count(), 1);
        assert_eq!(driver.total_reclaimed(), 4);

        // A second sweep finds nothing new.
        let report = driver.run_once();
        assert_eq!(report.reclaimed, 0);
    }

    #[test]
    fn gc_respects_active_snapshots() {
        let (ctx, mgr, table) = setup();
        let driver = GcDriver::new(Arc::clone(&ctx));
        driver.register(table.clone());

        churn(&mgr, &table, 1);
        // Pin a snapshot that must keep seeing "v0".
        let pinned = mgr.begin_read_only().unwrap();
        assert_eq!(table.read(&pinned, &1).unwrap(), Some("v0".into()));

        churn(&mgr, &table, 3);
        driver.run_once();
        // The pinned reader still sees its version after the sweep.
        assert_eq!(table.read(&pinned, &1).unwrap(), Some("v0".into()));
        mgr.commit(&pinned).unwrap();

        // Once the pin is gone, a sweep can shrink down to one version.
        driver.run_once();
        assert_eq!(table.version_count(&1), 1);
    }

    #[test]
    fn sweeps_surface_in_stats_and_floor_lag_gauge() {
        let (ctx, mgr, table) = setup();
        let driver = GcDriver::new(Arc::clone(&ctx));
        driver.register(table.clone());
        // Pinned across the churn, as in `run_once_reclaims_superseded_versions`.
        let pinned = mgr.begin_read_only().unwrap();
        churn(&mgr, &table, 5);
        mgr.commit(&pinned).unwrap();
        let report = driver.run_once();
        assert_eq!(report.reclaimed, 4);
        // The swept table records the reclaim into the context stats
        // (exactly once — the driver must not double-count it).
        let snap = ctx.telemetry_snapshot().stats;
        assert_eq!(snap.gc_runs, 1);
        assert_eq!(snap.gc_reclaimed, 4);

        // A pinned snapshot holds the floor back while commits advance the
        // clock — the gauge must report the widening gap.
        let pinned = mgr.begin_read_only().unwrap();
        assert_eq!(table.read(&pinned, &1).unwrap(), Some("v4".into()));
        churn(&mgr, &table, 3);
        driver.run_once();
        assert!(ctx.telemetry().gc_floor_lag() > 0, "pinned snapshot lags");
        mgr.commit(&pinned).unwrap();
    }

    /// An abandoned client's pinned snapshot wedges the GC floor; with a
    /// lease configured, `run_once` reaps it first and the same sweep
    /// reclaims the garbage it was holding live.
    #[test]
    fn run_once_reaps_expired_pins_before_sweeping() {
        let (ctx, mgr, table) = setup();
        ctx.set_transaction_lease(Some(Duration::from_millis(1)));
        let driver = GcDriver::new(Arc::clone(&ctx));
        driver.register(table.clone());

        churn(&mgr, &table, 1);
        // A client pins "v0" and then disappears without aborting.
        let zombie = mgr.begin_read_only().unwrap();
        assert_eq!(table.read(&zombie, &1).unwrap(), Some("v0".into()));
        churn(&mgr, &table, 4);
        assert_eq!(table.version_count(&1), 5);

        std::thread::sleep(Duration::from_millis(20));
        let report = driver.run_once();
        // The zombie was reaped, the floor advanced, and everything but
        // the live version was reclaimed in the same sweep.
        assert_eq!(ctx.active_count(), 0);
        assert_eq!(report.reclaimed, 4);
        assert_eq!(table.version_count(&1), 1);
        assert_eq!(ctx.telemetry_snapshot().stats.lease_expirations, 1);
    }

    #[test]
    fn multiple_targets_are_swept() {
        let (ctx, mgr, t1) = setup();
        let t2 = MvccTable::<u32, String>::volatile(&ctx, "second");
        mgr.register(t2.clone());
        mgr.register_group(&[t2.id()]).unwrap();
        let driver = GcDriver::new(Arc::clone(&ctx));
        driver.register(t1.clone());
        driver.register(t2.clone());

        // Pinned across the churn, as in `run_once_reclaims_superseded_versions`.
        let pinned = mgr.begin_read_only().unwrap();
        churn(&mgr, &t1, 3);
        for i in 0..4 {
            let tx = mgr.begin().unwrap();
            t2.write(&tx, 7, format!("x{i}")).unwrap();
            mgr.commit(&tx).unwrap();
        }
        mgr.commit(&pinned).unwrap();
        let report = driver.run_once();
        assert_eq!(report.per_table.len(), 2);
        assert_eq!(report.reclaimed, 2 + 3);
        assert_eq!(t1.gc_versioned_keys(), 1);
        assert_eq!(t2.gc_name(), "second");
    }

    #[test]
    fn periodic_thread_sweeps_and_stops() {
        let (ctx, mgr, table) = setup();
        let driver = GcDriver::new(Arc::clone(&ctx));
        driver.register(table.clone());
        let handle = driver.spawn_periodic(Duration::from_millis(5));
        churn(&mgr, &table, 5);
        // Wait for at least one sweep to have happened.
        let mut waited = 0;
        while driver.sweep_count() == 0 && waited < 200 {
            std::thread::sleep(Duration::from_millis(5));
            waited += 1;
        }
        assert!(driver.sweep_count() > 0, "background sweep never ran");
        handle.stop();
        let sweeps_after_stop = driver.sweep_count();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            driver.sweep_count(),
            sweeps_after_stop,
            "thread kept running"
        );
        assert_eq!(table.version_count(&1), 1);
    }

    #[test]
    fn dropping_the_handle_stops_the_thread() {
        let (ctx, _mgr, table) = setup();
        let driver = GcDriver::new(Arc::clone(&ctx));
        driver.register(table);
        {
            let _handle = driver.spawn_periodic(Duration::from_millis(5));
            std::thread::sleep(Duration::from_millis(12));
        } // dropped here
        let sweeps = driver.sweep_count();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(driver.sweep_count(), sweeps);
    }
}

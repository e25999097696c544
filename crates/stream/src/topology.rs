//! Topology runtime.
//!
//! "In PipeFabric a query is written by defining a so-called Topology.  It
//! can be seen as graph where each node is an operator and the edges
//! represent their subscribed streams." (§4.1)
//!
//! Here a [`Topology`] owns the threads of all operators built on it.  A
//! linear chain of operators — from a source, or from an edge a boundary
//! operator leaves, to a sink or the next boundary operator — runs on one
//! thread as direct calls (see [`crate::stream`]).  Only the boundary
//! operators (`broadcast`, `merge`, the partition routers, `hash_join`)
//! hand elements across bounded channels.  Sources wait for
//! [`Topology::start`] so that a dataflow can be fully wired before any data
//! moves.  [`Topology::run`] starts the sources and blocks until every
//! thread has drained (i.e. all sources emitted `EndOfStream` and every
//! downstream operator forwarded it).

use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Default bound of the channels boundary operators feed.
pub const DEFAULT_CHANNEL_CAPACITY: usize = 1024;

struct StartGate {
    started: Mutex<bool>,
    cond: Condvar,
}

/// Shared bookkeeping of one dataflow: operator threads and the start gate.
pub(crate) struct TopologyCore {
    gate: StartGate,
    handles: Mutex<Vec<JoinHandle<()>>>,
    channel_capacity: usize,
}

impl TopologyCore {
    fn new(channel_capacity: usize) -> Self {
        TopologyCore {
            gate: StartGate {
                started: Mutex::new(false),
                cond: Condvar::new(),
            },
            handles: Mutex::new(Vec::new()),
            channel_capacity,
        }
    }

    /// Registers an operator thread.
    pub(crate) fn register(&self, handle: JoinHandle<()>) {
        self.handles.lock().push(handle);
    }

    /// Blocks the calling (source) thread until the topology is started.
    pub(crate) fn wait_for_start(&self) {
        let mut started = self.gate.started.lock();
        while !*started {
            self.gate.cond.wait(&mut started);
        }
    }

    /// Capacity used for newly created channels.
    pub(crate) fn channel_capacity(&self) -> usize {
        self.channel_capacity
    }

    fn start(&self) {
        let mut started = self.gate.started.lock();
        *started = true;
        self.gate.cond.notify_all();
    }

    fn join(&self) {
        loop {
            let handle = self.handles.lock().pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }
}

/// A dataflow under construction / execution.
///
/// Operators are added by building [`crate::stream::Stream`]s from the
/// topology's source constructors; when the graph is complete, [`run`]
/// (or [`start`] + [`join`]) executes it.
///
/// [`run`]: Topology::run
/// [`start`]: Topology::start
/// [`join`]: Topology::join
pub struct Topology {
    core: Arc<TopologyCore>,
}

impl Default for Topology {
    fn default() -> Self {
        Self::new()
    }
}

impl Topology {
    /// Creates an empty topology with default channel capacity.
    pub fn new() -> Self {
        Self::with_channel_capacity(DEFAULT_CHANNEL_CAPACITY)
    }

    /// Creates an empty topology whose boundary channels hold at most
    /// `capacity` in-flight elements each.  Fused chains have no channel to
    /// size.
    pub fn with_channel_capacity(capacity: usize) -> Self {
        Topology {
            core: Arc::new(TopologyCore::new(capacity.max(1))),
        }
    }

    pub(crate) fn core(&self) -> &Arc<TopologyCore> {
        &self.core
    }

    /// Releases all sources; data starts flowing.
    pub fn start(&self) {
        self.core.start();
    }

    /// Waits for every operator thread to finish (all sources exhausted and
    /// end-of-stream fully propagated).
    pub fn join(&self) {
        self.core.join();
    }

    /// [`start`](Self::start) followed by [`join`](Self::join).
    pub fn run(&self) {
        self.start();
        self.join();
    }

    /// Number of operator threads registered so far: one per fused chain
    /// (see [`crate::stream`]).
    pub fn operator_count(&self) -> usize {
        self.core.handles.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn sources_wait_for_start() {
        let topo = Topology::new();
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let core = Arc::clone(topo.core());
            let counter = Arc::clone(&counter);
            let handle = std::thread::spawn(move || {
                core.wait_for_start();
                counter.fetch_add(1, Ordering::SeqCst);
            });
            topo.core().register(handle);
        }
        // Before start, the "source" must still be blocked.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(counter.load(Ordering::SeqCst), 0);
        assert_eq!(topo.operator_count(), 1);
        topo.run();
        assert_eq!(counter.load(Ordering::SeqCst), 1);
        assert_eq!(topo.operator_count(), 0, "join consumes the handles");
    }

    #[test]
    fn run_with_no_operators_returns_immediately() {
        let topo = Topology::with_channel_capacity(0); // clamped to 1
        topo.run();
        assert_eq!(topo.core().channel_capacity(), 1);
    }

    #[test]
    fn join_can_be_called_repeatedly() {
        let topo = Topology::new();
        topo.start();
        topo.join();
        topo.join();
    }
}

//! The three workloads.  `README.md` in this directory says why each exists
//! and which layers it loads.

/// How the two states persist.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Persistence {
    /// Volatile in-memory states.
    Memory,
    /// `LsmStore` base tables written and fsynced inside the commit.
    LsmSync,
    /// `LsmStore` base tables persisted by `BatchWriter` threads after the
    /// commit became visible (`enable_async_persistence`).
    LsmAsync,
}

/// One workload: the dataflow's configuration and its load.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub persistence: Persistence,
    /// Tuples per stream transaction (`punctuate_every`).
    pub batch: u64,
    /// Open-loop ingest rate in tuples/s; `None` ingests as fast as the
    /// dataflow accepts (closed loop).
    pub rate: Option<u64>,
    /// Whether a closed-loop ad-hoc reader runs beside the stream.
    pub reader: bool,
}

pub const WORKLOADS: [Workload; 3] = [
    // Saturated ingest: stream operators, table writes and the commit
    // pipeline do the work; fsync runs on the `BatchWriter` threads.
    Workload {
        name: "meter_async",
        persistence: Persistence::LsmAsync,
        batch: 100,
        rate: None,
        reader: false,
    },
    // Durable ingest well below saturation: every commit makes two
    // `write_batch` + fsync calls before it becomes visible.  The rate is
    // 200 commits/s because at 1,000 commits/s (about half the saturated
    // rate) fsync tail spikes pushed the committer towards saturation and
    // the visible-latency median doubled from one run to the next.
    Workload {
        name: "meter_sync_paced",
        persistence: Persistence::LsmSync,
        batch: 10,
        rate: Some(2_000),
        reader: false,
    },
    // Reads beside a slow stream: one closed-loop ad-hoc reader over
    // 100k meters per state, more than the CPU caches hold, while the
    // ingest keeps versions and GC live.
    Workload {
        name: "adhoc_reads",
        persistence: Persistence::Memory,
        batch: 10,
        rate: Some(2_000),
        reader: true,
    },
];

/// Meters, i.e. rows per state: more than the CPU caches hold.
pub const METERS: u32 = 100_000;

/// Meters one query reads from each state (verify query and ad-hoc query).
pub const METERS_PER_QUERY: u64 = 10;

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }
}

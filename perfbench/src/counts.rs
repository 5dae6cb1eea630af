//! Exact per-layer counts, read from the program's public counters.
//!
//! With one client thread and no timers these repeat exactly for a seed,
//! which the benchmark's own test asserts and the traced mode checks
//! against the untraced run.

use mabe_cloud::DurableSystem;
use mabe_store::SimDisk;
use mabe_telemetry::OpSnapshot;

/// Counter values, absolute or as a delta.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Pairings on the client thread (`mabe-math`).
    pub pairings: u64,
    /// G1 exponentiations on the client thread.
    pub g1_muls: u64,
    /// G_T exponentiations on the client thread.
    pub gt_pows: u64,
    /// Content-key cache hits.
    pub content_hits: u64,
    /// Content-key cache misses.
    pub content_misses: u64,
    /// Content-key cache evictions.
    pub content_evictions: u64,
    /// Update-key chain cache hits.
    pub chain_hits: u64,
    /// Update-key chain cache misses.
    pub chain_misses: u64,
    /// Checkpoints (advances of the committed generation).
    pub checkpoints: u64,
    /// Bytes appended to the write-ahead log.
    pub wal_bytes: u64,
    /// Write-ahead group commits.
    pub commits: u64,
    /// Reads that upgraded a stale component before serving it.
    pub read_upgrades: u64,
    /// Components the lazy drain re-encrypted.
    pub drained: u64,
    /// Wide events emitted (one per top-level op).
    pub events: u64,
    /// Audit log entries.
    pub audit_entries: u64,
}

fn counter(name: &str) -> u64 {
    mabe_telemetry::global().counter(name, &[]).get()
}

impl Counts {
    /// Field names, in [`Counts::values`] order.
    pub const NAMES: [&'static str; 15] = [
        "pairings",
        "g1_muls",
        "gt_pows",
        "content_hits",
        "content_misses",
        "content_evictions",
        "chain_hits",
        "chain_misses",
        "checkpoints",
        "wal_bytes",
        "commits",
        "read_upgrades",
        "drained",
        "events",
        "audit_entries",
    ];

    /// Every counter except the thread-local crypto ones, now.
    pub fn system(sys: &DurableSystem<SimDisk>) -> Counts {
        let cache = sys.system().cache_stats();
        Counts {
            content_hits: cache.content_hits,
            content_misses: cache.content_misses,
            content_evictions: cache.content_evictions,
            chain_hits: cache.chain_hits,
            chain_misses: cache.chain_misses,
            checkpoints: sys.generation(),
            wal_bytes: counter("mabe_wal_bytes_total"),
            commits: counter("mabe_wal_group_commits_total"),
            read_upgrades: counter("mabe_read_upgrades_total"),
            drained: counter("mabe_lazy_drained_components_total"),
            events: counter("mabe_events_emitted_total"),
            audit_entries: sys.audit().entries().len() as u64,
            ..Counts::default()
        }
    }

    /// Every counter, now.
    pub fn capture(sys: &DurableSystem<SimDisk>) -> Counts {
        Counts::system(sys).with_ops(&OpSnapshot::capture())
    }

    /// These counts with the crypto op counts taken from `ops`.
    pub fn with_ops(mut self, ops: &OpSnapshot) -> Counts {
        self.pairings = ops.pairings;
        self.g1_muls = ops.g1_muls;
        self.gt_pows = ops.gt_pows;
        self
    }

    /// The values, in [`Counts::NAMES`] order.
    pub fn values(&self) -> [u64; 15] {
        [
            self.pairings,
            self.g1_muls,
            self.gt_pows,
            self.content_hits,
            self.content_misses,
            self.content_evictions,
            self.chain_hits,
            self.chain_misses,
            self.checkpoints,
            self.wal_bytes,
            self.commits,
            self.read_upgrades,
            self.drained,
            self.events,
            self.audit_entries,
        ]
    }

    fn from_values(v: [u64; 15]) -> Counts {
        Counts {
            pairings: v[0],
            g1_muls: v[1],
            gt_pows: v[2],
            content_hits: v[3],
            content_misses: v[4],
            content_evictions: v[5],
            chain_hits: v[6],
            chain_misses: v[7],
            checkpoints: v[8],
            wal_bytes: v[9],
            commits: v[10],
            read_upgrades: v[11],
            drained: v[12],
            events: v[13],
            audit_entries: v[14],
        }
    }

    /// `self - before`, field by field.
    pub fn since(&self, before: &Counts) -> Counts {
        let (a, b) = (self.values(), before.values());
        Counts::from_values(std::array::from_fn(|i| a[i].saturating_sub(b[i])))
    }

    /// Adds `other` field by field.
    pub fn add(&mut self, other: &Counts) {
        let (a, b) = (self.values(), other.values());
        *self = Counts::from_values(std::array::from_fn(|i| a[i] + b[i]));
    }

    /// `name=value` pairs separated by spaces.
    pub fn to_line(&self) -> String {
        Counts::NAMES
            .iter()
            .zip(self.values())
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Parses [`Counts::to_line`] output.
    pub fn from_line(line: &str) -> Option<Counts> {
        let mut v = [0u64; 15];
        let mut seen = 0;
        for pair in line.split_whitespace() {
            let (name, value) = pair.split_once('=')?;
            let i = Counts::NAMES.iter().position(|n| *n == name)?;
            v[i] = value.parse().ok()?;
            seen += 1;
        }
        (seen == v.len()).then(|| Counts::from_values(v))
    }
}

//! Engine runtime profiler: per-span execute time, hot-node attribution
//! and scheduler occupancy.
//!
//! This module observes the *runtime itself* (where `dcn-telemetry`
//! observes the protocols): when [`crate::SimConfig`] has `profile` set,
//! the engine records one [`WindowRecord`] per `run_until` span — events
//! executed and the host time spent executing them — plus per-node event
//! counts and scheduler occupancy stats. The profile keeps the
//! one-entry `shards` vector of its original multi-shard layout, so
//! reports and benchmarks read it the same way.
//!
//! ## Why profiling cannot perturb digests
//!
//! All durations come from [`std::time::Instant`] — the host's monotonic
//! clock — and are written into pre-sized buffers owned by the engine.
//! Nothing here reads or influences simulated time, event keys, RNG
//! streams or the queue order, and no profiling state is consulted by
//! dispatch. The profiler is a pure observer: per-seed trace digests are
//! bit-identical with it on or off (enforced in
//! `dcn-experiments/tests/equivalence.rs`), and the counters it bumps on
//! the forwarding path are plain integer increments into pre-allocated
//! vectors, so the zero-alloc forwarding gate holds with profiling
//! enabled (`tests/zero_alloc.rs`).

use std::time::Instant;

/// Per-window records kept verbatim; beyond this the profile keeps
/// aggregating totals and histograms but drops the raw record (counted
/// in [`ShardProfile::windows_dropped`]). Bounds both memory and the
/// size of the exported Chrome trace.
pub const WINDOW_KEEP: usize = 8192;

/// Number of log2 buckets in the events-per-window histogram; the last
/// bucket absorbs everything `>= 2^(WINDOW_HIST_BUCKETS-2)`.
pub const WINDOW_HIST_BUCKETS: usize = 17;

/// One `run_until` span. `start_ns` is the offset of the span's begin
/// from the profile epoch; `horizon`/`window_end` are simulated time
/// (the span executed events in `[horizon, window_end)`).
#[derive(Clone, Copy, Debug, Default)]
pub struct WindowRecord {
    /// Host-clock offset of this window's start from the profile epoch.
    pub start_ns: u64,
    /// Simulated time the span started at.
    pub horizon: u64,
    /// Exclusive end of the executed window (simulated ns).
    pub window_end: u64,
    /// Events dispatched inside the window.
    pub events: u64,
    /// Host time executing events.
    pub execute_ns: u64,
}

/// Scheduler occupancy counters, accumulated by both queue backends.
///
/// `wheel_slot_hits` / `wheel_overflow_hits` split wheel insertions by
/// whether the event landed in a level bucket (or the sorted ready
/// list) versus the beyond-horizon overflow heap; the heap backend
/// counts every insertion as a slot hit. `max_pending` is the
/// high-water mark of events pending at once.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedulerStats {
    /// Total insertions this queue accepted.
    pub pushes: u64,
    /// Insertions that landed in a wheel level bucket or the ready list.
    pub wheel_slot_hits: u64,
    /// Insertions that landed in the wheel's overflow heap.
    pub wheel_overflow_hits: u64,
    /// Most events pending at once.
    pub max_pending: u64,
}

impl SchedulerStats {
    /// Fold another queue's counters into this one (hits sum, the
    /// high-water mark takes the max).
    pub fn absorb(&mut self, other: SchedulerStats) {
        self.pushes += other.pushes;
        self.wheel_slot_hits += other.wheel_slot_hits;
        self.wheel_overflow_hits += other.wheel_overflow_hits;
        self.max_pending = self.max_pending.max(other.max_pending);
    }
}

/// Everything the engine recorded across its `run_until` spans.
#[derive(Clone, Debug)]
pub struct ShardProfile {
    /// Track id in exported traces (always 0).
    pub shard: u32,
    /// Host-clock epoch of the profile.
    pub epoch: Instant,
    /// First [`WINDOW_KEEP`] windows, verbatim.
    pub windows: Vec<WindowRecord>,
    /// Windows beyond [`WINDOW_KEEP`] (still aggregated below).
    pub windows_dropped: u64,
    /// Total windows (one per `run_until` span).
    pub windows_total: u64,
    /// Events dispatched.
    pub events: u64,
    /// Host ns executing events.
    pub execute_ns: u64,
    /// Host ns spent inside `run_until`. `other` time is
    /// `wall_ns - execute_ns`.
    pub wall_ns: u64,
    /// Events dispatched per node id (hot-node attribution).
    pub node_events: Vec<u64>,
    /// log2 histogram of events-per-window: bucket 0 counts empty
    /// windows, bucket `b > 0` counts windows with
    /// `2^(b-1) <= events < 2^b`, the last bucket absorbs the tail.
    pub window_hist: [u64; WINDOW_HIST_BUCKETS],
    /// Occupancy stats of the event queue.
    pub sched: SchedulerStats,
}

impl ShardProfile {
    /// A fresh profile for track `shard` of an engine with `nodes` nodes.
    pub fn new(shard: u32, nodes: usize, epoch: Instant) -> ShardProfile {
        ShardProfile {
            shard,
            epoch,
            windows: Vec::with_capacity(256),
            windows_dropped: 0,
            windows_total: 0,
            events: 0,
            execute_ns: 0,
            wall_ns: 0,
            node_events: vec![0; nodes],
            window_hist: [0; WINDOW_HIST_BUCKETS],
            sched: SchedulerStats::default(),
        }
    }

    /// Record one finished window: aggregate always, keep the raw record
    /// while under [`WINDOW_KEEP`].
    pub fn record_window(&mut self, rec: WindowRecord) {
        self.windows_total += 1;
        self.events += rec.events;
        self.execute_ns += rec.execute_ns;
        let bucket = match rec.events {
            0 => 0,
            n => (64 - n.leading_zeros() as usize).min(WINDOW_HIST_BUCKETS - 1),
        };
        self.window_hist[bucket] += 1;
        if self.windows.len() < WINDOW_KEEP {
            self.windows.push(rec);
        } else {
            self.windows_dropped += 1;
        }
    }

    /// Host ns not attributed to execution (loop overhead, scheduling
    /// noise). Clamped at zero.
    pub fn other_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.execute_ns)
    }
}

/// The whole engine's profile: `shards` holds the one [`ShardProfile`]
/// the engine recorded, plus the run parameters a report needs for
/// attribution.
#[derive(Clone, Debug)]
pub struct EngineProfile {
    /// Host-clock epoch all window `start_ns` offsets are relative to.
    pub epoch: Instant,
    /// Nodes in the simulation (`node_events` length).
    pub nodes: usize,
    /// The recorded profile (one entry once taken from the engine).
    pub shards: Vec<ShardProfile>,
}

impl EngineProfile {
    /// An empty profile for an engine with `nodes` nodes.
    pub fn new(nodes: usize) -> EngineProfile {
        EngineProfile { epoch: Instant::now(), nodes, shards: Vec::new() }
    }

    /// Events dispatched.
    pub fn total_events(&self) -> u64 {
        self.shards.iter().map(|s| s.events).sum()
    }

    /// Host ns spent inside `run_until`.
    pub fn max_wall_ns(&self) -> u64 {
        self.shards.iter().map(|s| s.wall_ns).max().unwrap_or(0)
    }

    /// Top `k` nodes by events dispatched, as `(node id, events)` sorted
    /// descending (ties toward the lower id, so output is total).
    pub fn hottest_nodes(&self, k: usize) -> Vec<(u32, u64)> {
        let mut totals = vec![0u64; self.nodes];
        for s in &self.shards {
            for (i, &n) in s.node_events.iter().enumerate() {
                totals[i] += n;
            }
        }
        let mut ranked: Vec<(u32, u64)> =
            totals.into_iter().enumerate().map(|(i, n)| (i as u32, n)).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked.retain(|&(_, n)| n > 0);
        ranked
    }

    /// Events-per-window histogram.
    pub fn window_hist(&self) -> [u64; WINDOW_HIST_BUCKETS] {
        let mut hist = [0u64; WINDOW_HIST_BUCKETS];
        for s in &self.shards {
            for (a, b) in hist.iter_mut().zip(&s.window_hist) {
                *a += b;
            }
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_hist_buckets_by_log2() {
        let mut p = ShardProfile::new(0, 4, Instant::now());
        for events in [0u64, 1, 2, 3, 4, 1 << 16, 1 << 40] {
            p.record_window(WindowRecord { events, ..WindowRecord::default() });
        }
        assert_eq!(p.window_hist[0], 1); // empty window
        assert_eq!(p.window_hist[1], 1); // 1
        assert_eq!(p.window_hist[2], 2); // 2, 3
        assert_eq!(p.window_hist[3], 1); // 4
        assert_eq!(p.window_hist[WINDOW_HIST_BUCKETS - 1], 2); // tail
        assert_eq!(p.windows_total, 7);
        assert_eq!(p.windows.len(), 7);
    }

    #[test]
    fn window_records_cap_but_totals_keep_counting() {
        let mut p = ShardProfile::new(0, 1, Instant::now());
        for _ in 0..WINDOW_KEEP + 10 {
            p.record_window(WindowRecord { events: 1, execute_ns: 2, ..Default::default() });
        }
        assert_eq!(p.windows.len(), WINDOW_KEEP);
        assert_eq!(p.windows_dropped, 10);
        assert_eq!(p.windows_total, (WINDOW_KEEP + 10) as u64);
        assert_eq!(p.events, (WINDOW_KEEP + 10) as u64);
        assert_eq!(p.execute_ns, 2 * (WINDOW_KEEP + 10) as u64);
    }

    #[test]
    fn other_ns_is_wall_minus_execute_and_clamps() {
        let mut p = ShardProfile::new(0, 1, Instant::now());
        p.record_window(WindowRecord { events: 5, execute_ns: 150, ..Default::default() });
        p.wall_ns = 200;
        assert_eq!(p.other_ns(), 50);
        // A profile whose execute time exceeds its wall clamps at zero
        // instead of wrapping.
        p.wall_ns = 100;
        assert_eq!(p.other_ns(), 0);
    }

    #[test]
    fn engine_profile_ranks_hot_nodes() {
        let mut ep = EngineProfile::new(4);
        let mut s = ShardProfile::new(0, 4, ep.epoch);
        s.node_events = vec![7, 9, 6, 0];
        s.events = 22;
        ep.shards.push(s);
        assert_eq!(ep.total_events(), 22);
        // node 1: 9, node 0: 7, node 2: 6; node 3 (zero) dropped.
        assert_eq!(ep.hottest_nodes(10), vec![(1, 9), (0, 7), (2, 6)]);
        assert_eq!(ep.hottest_nodes(2), vec![(1, 9), (0, 7)]);
    }
}

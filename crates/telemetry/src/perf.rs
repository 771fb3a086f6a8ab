//! Engine performance reports: turning a [`dcn_sim::EngineProfile`]
//! into artifacts a human (or CI) can consume.
//!
//! Three exporters share one [`PerfReport`]:
//!
//! * [`PerfReport::render_text`] — a terminal table (execute/other as %
//!   of the engine's wall time, hottest nodes, scheduler occupancy).
//! * [`PerfReport::to_json`] — the `perf_report/v3` schema, consumed by
//!   CI and by `fcr bench`'s embedded breakdowns (v3 dropped the
//!   parallel engine's barrier/drain/deposit phases, batching counters,
//!   worker count, lookahead and cross-shard frame matrix).
//! * [`PerfReport::to_chrome_trace`] — Chrome trace-event JSON loadable
//!   in `chrome://tracing` or Perfetto: one track, one duration event
//!   per `run_until` span.
//!
//! Durations come from the host monotonic clock (see
//! `dcn_sim::profiler`); nothing here feeds back into the simulation.

use dcn_sim::{EngineProfile, ShardProfile};
use std::fmt::Write as _;

use crate::json::Json;

/// `part` as a percentage of `whole` (0 when `whole` is 0).
fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.2}ms", ns as f64 / 1e6)
}

/// Where an engine's wall time went, as percentages of its wall time.
/// `fcr bench --scale` embeds one of these per row.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StallBreakdown {
    pub execute_pct: f64,
    pub other_pct: f64,
}

/// A finished run's engine profile plus the context needed to label it.
#[derive(Clone, Debug)]
pub struct PerfReport {
    profile: EngineProfile,
    /// Human label for the run (e.g. `"mrmtp tc1 seed 1"`).
    pub label: String,
    /// `std::thread::available_parallelism()` on the host (0 unknown).
    pub cores: u64,
    /// Router names indexed by node id (for hot-node attribution).
    pub node_names: Vec<String>,
}

/// The host's available parallelism, or 0 when it cannot be queried.
pub fn host_cores() -> u64 {
    std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(0)
}

/// Execute/other percentages of `profile`'s wall time
/// ([`PerfReport::stall_breakdown`] without the report).
pub fn stall_breakdown_of(profile: &EngineProfile) -> StallBreakdown {
    let (mut exec, mut other, mut wall) = (0u64, 0u64, 0u64);
    for s in &profile.shards {
        exec += s.execute_ns;
        other += s.other_ns();
        wall += s.wall_ns;
    }
    StallBreakdown { execute_pct: pct(exec, wall), other_pct: pct(other, wall) }
}

impl PerfReport {
    pub fn new(profile: EngineProfile, label: impl Into<String>, node_names: Vec<String>) -> PerfReport {
        PerfReport { profile, label: label.into(), cores: host_cores(), node_names }
    }

    pub fn profile(&self) -> &EngineProfile {
        &self.profile
    }

    fn name_of(&self, node: u32) -> String {
        self.node_names
            .get(node as usize)
            .cloned()
            .unwrap_or_else(|| format!("n{node}"))
    }

    /// Execute/other percentages of the engine's wall time.
    pub fn stall_breakdown(&self) -> StallBreakdown {
        stall_breakdown_of(&self.profile)
    }

    /// The terminal report table.
    pub fn render_text(&self) -> String {
        let p = &self.profile;
        let mut out = String::new();
        let _ = writeln!(out, "perf report: {} (cores {})", self.label, self.cores);
        let _ = writeln!(
            out,
            "{:>10} {:>8} {:>7} {:>7} {:>10}",
            "events", "windows", "exec%", "other%", "wall"
        );
        for s in &p.shards {
            let _ = writeln!(
                out,
                "{:>10} {:>8} {:>7.1} {:>7.1} {:>10}",
                s.events,
                s.windows_total,
                pct(s.execute_ns, s.wall_ns),
                pct(s.other_ns(), s.wall_ns),
                fmt_ms(s.wall_ns),
            );
        }
        let sched = p.shards.iter().fold(dcn_sim::SchedulerStats::default(), |mut acc, s| {
            acc.absorb(s.sched);
            acc
        });
        let _ = writeln!(
            out,
            "scheduler: {} pushes, {} wheel slot ({:.1}%), {} overflow heap, max pending {}",
            sched.pushes,
            sched.wheel_slot_hits,
            pct(sched.wheel_slot_hits, sched.pushes),
            sched.wheel_overflow_hits,
            sched.max_pending,
        );
        let hot = p.hottest_nodes(10);
        if !hot.is_empty() {
            let names: Vec<String> = hot
                .iter()
                .map(|&(node, events)| format!("{} ({})", self.name_of(node), events))
                .collect();
            let _ = writeln!(out, "hot nodes: {}", names.join(", "));
        }
        let hist = p.window_hist();
        let mut buckets = Vec::new();
        for (b, &count) in hist.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let bound = match b {
                0 => "0".to_string(),
                b => format!("<{}", 1u64 << b),
            };
            buckets.push(format!("{bound}:{count}"));
        }
        if !buckets.is_empty() {
            let _ = writeln!(out, "events/window hist: {}", buckets.join(" "));
        }
        let dropped: u64 = p.shards.iter().map(|s| s.windows_dropped).sum();
        if dropped > 0 {
            let _ = writeln!(
                out,
                "note: {dropped} window record(s) beyond the retention cap were aggregated only"
            );
        }
        out
    }

    fn shard_json(&self, s: &ShardProfile) -> Json {
        Json::obj(vec![
            ("shard", Json::UInt(s.shard as u64)),
            ("events", Json::UInt(s.events)),
            ("windows", Json::UInt(s.windows_total)),
            ("windows_dropped", Json::UInt(s.windows_dropped)),
            ("execute_ns", Json::UInt(s.execute_ns)),
            ("other_ns", Json::UInt(s.other_ns())),
            ("wall_ns", Json::UInt(s.wall_ns)),
            ("execute_pct", Json::Float(pct(s.execute_ns, s.wall_ns))),
            ("other_pct", Json::Float(pct(s.other_ns(), s.wall_ns))),
            (
                "sched",
                Json::obj(vec![
                    ("pushes", Json::UInt(s.sched.pushes)),
                    ("wheel_slot_hits", Json::UInt(s.sched.wheel_slot_hits)),
                    ("wheel_overflow_hits", Json::UInt(s.sched.wheel_overflow_hits)),
                    ("max_pending", Json::UInt(s.sched.max_pending)),
                ]),
            ),
        ])
    }

    /// The `perf_report/v3` JSON document.
    pub fn to_json(&self) -> Json {
        let p = &self.profile;
        let hist = p.window_hist();
        Json::obj(vec![
            ("schema", Json::str("perf_report/v3")),
            ("label", Json::str(self.label.clone())),
            ("cores", Json::UInt(self.cores)),
            ("events", Json::UInt(p.total_events())),
            ("wall_ns", Json::UInt(p.max_wall_ns())),
            (
                "shards",
                Json::Arr(p.shards.iter().map(|s| self.shard_json(s)).collect()),
            ),
            (
                "hot_nodes",
                Json::Arr(
                    p.hottest_nodes(10)
                        .into_iter()
                        .map(|(node, events)| {
                            Json::obj(vec![
                                ("node", Json::str(self.name_of(node))),
                                ("events", Json::UInt(events)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "window_hist",
                Json::Arr(hist.iter().map(|&c| Json::UInt(c)).collect()),
            ),
        ])
    }

    /// Chrome trace-event JSON (`chrome://tracing` / Perfetto): one
    /// track (`pid` 1, `tid` 0), every retained window as a `ph:"X"`
    /// duration event with `ts`/`dur` in microseconds of host time since
    /// the profile epoch. Hand-formatted because traces can run to tens
    /// of thousands of events; the output is still valid JSON (CI parses
    /// it).
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let mut emit = |out: &mut String, line: &str| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(line);
        };
        for s in &self.profile.shards {
            emit(
                &mut out,
                &format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"engine\"}}}}",
                    s.shard
                ),
            );
            for w in s.windows.iter().filter(|w| w.execute_ns > 0) {
                emit(
                    &mut out,
                    &format!(
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                         \"name\":\"execute\",\"cat\":\"window\",\
                         \"args\":{{\"events\":{},\"horizon\":{},\"window_end\":{}}}}}",
                        s.shard,
                        w.start_ns as f64 / 1e3,
                        w.execute_ns as f64 / 1e3,
                        w.events,
                        w.horizon,
                        w.window_end
                    ),
                );
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::profiler::WINDOW_HIST_BUCKETS;
    use dcn_sim::{ShardProfile, WindowRecord};

    fn toy_report() -> PerfReport {
        let mut ep = EngineProfile::new(3);
        let mut s = ShardProfile::new(0, 3, ep.epoch);
        s.record_window(WindowRecord {
            start_ns: 1_000,
            horizon: 0,
            window_end: 5_001,
            events: 4,
            execute_ns: 600,
        });
        s.record_window(WindowRecord {
            start_ns: 1_700,
            horizon: 5_000,
            window_end: 6_001,
            events: 2,
            execute_ns: 300,
        });
        s.wall_ns = 1_000;
        s.node_events = vec![3, 1, 2];
        s.sched.pushes = 10;
        s.sched.wheel_slot_hits = 9;
        s.sched.wheel_overflow_hits = 1;
        s.sched.max_pending = 4;
        ep.shards.push(s);
        let names = vec!["e0".to_string(), "e1".to_string(), "s0".to_string()];
        PerfReport::new(ep, "toy run", names)
    }

    #[test]
    fn json_export_round_trips_with_schema_and_sane_percentages() {
        let report = toy_report();
        let doc = Json::parse(&report.to_json().render()).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("perf_report/v3"));
        assert_eq!(doc.get("events").unwrap().as_u64(), Some(6));
        assert!(doc.get("cores").unwrap().as_u64().is_some());
        let shards = doc.get("shards").unwrap().as_arr().unwrap();
        assert_eq!(shards.len(), 1);
        let sh = &shards[0];
        assert_eq!(sh.get("windows").unwrap().as_u64(), Some(2));
        let attributed = sh.get("execute_ns").unwrap().as_u64().unwrap()
            + sh.get("other_ns").unwrap().as_u64().unwrap();
        assert_eq!(attributed, sh.get("wall_ns").unwrap().as_u64().unwrap());
        let total: f64 = ["execute_pct", "other_pct"]
            .iter()
            .map(|k| sh.get(k).unwrap().as_f64().unwrap())
            .sum();
        assert!((total - 100.0).abs() < 1e-9, "execute + other account for the wall: {total}");
        let hot = doc.get("hot_nodes").unwrap().as_arr().unwrap();
        assert_eq!(hot[0].get("node").unwrap().as_str(), Some("e0"));
        assert_eq!(hot[0].get("events").unwrap().as_u64(), Some(3));
        let hist = doc.get("window_hist").unwrap().as_arr().unwrap();
        assert_eq!(hist.len(), WINDOW_HIST_BUCKETS);
    }

    #[test]
    fn chrome_trace_parses_with_one_slice_per_window() {
        let report = toy_report();
        let doc = Json::parse(&report.to_chrome_trace()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // thread_name metadata + one execute slice per window.
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("M"));
        let slices: Vec<&Json> =
            events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some("X")).collect();
        assert_eq!(slices.len(), 2);
        let mut last_end = 0.0f64;
        for e in &slices {
            let ts = e.get("ts").unwrap().as_f64().unwrap();
            let dur = e.get("dur").unwrap().as_f64().unwrap();
            assert!(ts >= last_end - 1e-9, "windows are sequential, non-overlapping");
            assert!(dur > 0.0, "zero-duration windows are skipped");
            last_end = ts + dur;
        }
        assert_eq!(slices[0].get("name").unwrap().as_str(), Some("execute"));
        assert_eq!(slices[0].get("args").unwrap().get("events").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn text_report_names_hot_nodes_and_scheduler() {
        let text = toy_report().render_text();
        assert!(text.starts_with("perf report: toy run (cores "), "{text}");
        assert!(text.contains("hot nodes: e0 (3)"));
        assert!(text.contains("scheduler: 10 pushes"));
        let header = text.lines().nth(1).expect("column header line");
        assert!(header.contains("exec%") && header.contains("other%"), "{header}");
        let row = text.lines().nth(2).unwrap();
        assert!(row.contains("90.0") && row.contains("10.0"), "{row}");
    }

    #[test]
    fn stall_breakdown_covers_the_wall() {
        let b = toy_report().stall_breakdown();
        assert!((b.execute_pct - 90.0).abs() < 1e-9, "{}", b.execute_pct);
        assert!((b.other_pct - 10.0).abs() < 1e-9, "{}", b.other_pct);
    }
}

//! Scaling and scheduler benchmarks behind `fcr bench`.
//!
//! Two measurements back the timer-wheel work:
//!
//! * **Scale sweep** — build a folded-Clos fabric at each requested PoD
//!   count, run it with tracing off, and record events processed, wall
//!   time, throughput (events/sec and events/sec/node) and peak RSS.
//!   Every row reports throughput on **both bases** —
//!   `events_per_sec_wall` (elapsed time) and `events_per_sec_cpu` (the
//!   calling thread's CPU seconds; insensitive to machine-sharing
//!   noise). Every row runs with the engine profiler on and embeds its
//!   execute/other breakdown (% of the engine's wall time). Emitted as
//!   `BENCH_scale.json` (`schema: "bench_scale/v5"`, which also records
//!   the host's core count; v5 dropped the parallel engine's `workers`,
//!   `speedup` and barrier/drain/deposit columns, and older baselines
//!   still gate — [`check_regression`] keys on field names, not the
//!   schema string). Peak RSS is sampled per row: the kernel's VmHWM
//!   watermark is reset before each row, so a big fabric earlier in the
//!   sweep cannot inflate a small one's number.
//! * **Scheduler microbench** — the pop-then-re-arm stress loop from
//!   `dcn_sim::scheduler_stress`, run on both backends, reported as a
//!   wheel-over-heap speedup.
//!
//! [`check_regression`] compares a fresh report against a committed
//! baseline and fails when throughput drops by more than a tolerance,
//! which is what the CI smoke job gates on.
//!
//! A third measurement backs the data-plane fast path:
//!
//! * **Traffic soak** — converge a fabric, then pump cross-pod flows
//!   through it (N flows × 5 router hops each) and measure forwarded
//!   data packets per CPU second with the fast path on and off, plus
//!   heap allocations per forwarded packet when the binary installed
//!   the counting `#[global_allocator]`. Each point also carries the
//!   **loss-window probe**: pinned cross-pod flows paced at 25 µs while
//!   S-1-1's first uplink is carrier-failed mid-run, counting packets
//!   blackholed in the carrier-detection window with `local_repair` off
//!   and on (see EXPERIMENTS.md). Emitted as `BENCH_traffic.json`
//!   (`schema: "bench_traffic/v2"`) and gated by
//!   [`check_traffic_regression`] the same way.

use std::time::Instant;

use dcn_sim::time::{MICROS, MILLIS, SECONDS};
use dcn_sim::{alloc_track, SchedulerKind, SimConfig};
use dcn_telemetry::Json;
use dcn_topology::{Addressing, ClosParams, Fabric};
use dcn_traffic::SendSpec;

use crate::fabric::{build_fabric_sim_cfg, BuiltSim, Stack, StackTuning};
use crate::scenario::Timing;

/// One fabric size in the scale sweep.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    pub pods: usize,
    pub nodes: usize,
    pub links: usize,
    /// Events processed by the engine over the measured window.
    pub events: u64,
    pub wall_ms: f64,
    /// Events per elapsed second.
    pub events_per_sec_wall: f64,
    /// Events per CPU second of the measuring thread — insensitive to
    /// machine-sharing noise, so the regression gate keys on it. The two
    /// bases coincide when the thread is never descheduled.
    pub events_per_sec_cpu: f64,
    /// CPU-basis throughput normalized by fabric size. A droop here as
    /// pods grow is a cache-locality signal; a droop in the raw rate
    /// alone can just be a bigger fabric.
    pub events_per_node: f64,
    /// Peak resident set (VmHWM) over this row only, in KiB: the
    /// watermark is reset (via `/proc/self/clear_refs`) before each row.
    /// Zero on platforms without the proc filesystem; on kernels that
    /// refuse the reset it degrades to the process-lifetime peak.
    pub peak_rss_kb: u64,
    /// Profiler windows (`run_until` spans) executed in one rep.
    pub windows: u64,
    /// Breakdown of one rep, as % of the engine's wall time: event
    /// execution...
    pub execute_pct: f64,
    /// ...and unattributed loop overhead.
    pub other_pct: f64,
}

/// Heap-vs-wheel scheduler throughput from [`dcn_sim::scheduler_stress`].
#[derive(Clone, Copy, Debug)]
pub struct MicroBench {
    pub pending: usize,
    pub ops: u64,
    pub heap_events_per_sec: f64,
    pub wheel_events_per_sec: f64,
    pub speedup: f64,
}

/// The full `fcr bench` output.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// True when run with `--quick` (shorter windows; CI smoke mode).
    pub quick: bool,
    /// CPU cores available to this process when the report was taken
    /// (`std::thread::available_parallelism`).
    pub cores: usize,
    pub micro: MicroBench,
    pub scale: Vec<ScalePoint>,
}

/// Reset the kernel's peak-RSS watermark (write `5` to
/// `/proc/self/clear_refs`) so the next [`peak_rss_kb`] reading covers
/// only work done after this call. Best-effort: failure (non-Linux,
/// restricted kernels) silently degrades to the process-lifetime peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Read peak resident set size (VmHWM) in KiB from `/proc/self/status`.
/// Returns 0 where the proc filesystem is unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace().nth(1).and_then(|v| v.parse().ok())
            })
        })
        .unwrap_or(0)
}

/// CPU seconds the calling thread has consumed so far (utime+stime from
/// `/proc/thread-self/stat`, USER_HZ ticks — 100 Hz on every mainstream
/// Linux). `None` off-Linux. Throughput is computed against CPU time,
/// not wall time: shared or quota-throttled machines (CI runners,
/// containers) stall a process for whole scheduling periods, and a
/// wall-clock gate trips on that noise rather than on real regressions.
/// The thread's own clock is immune to whatever else the process runs
/// concurrently (other test threads, a second campaign worker).
fn thread_cpu_secs() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // comm (field 2) may contain spaces; fields resume after the last ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut it = rest.split_whitespace();
    let utime: u64 = it.nth(11)?.parse().ok()?; // field 14
    let stime: u64 = it.next()?.parse().ok()?; // field 15
    Some((utime + stime) as f64 / 100.0)
}

/// Measure `work` by the calling thread's CPU time: repeat until
/// `target_cpu` seconds are accumulated (bounding tick-quantization
/// error) or `max_reps` is hit. Returns (reps, cpu_secs, wall_secs).
/// Falls back to wall time when CPU time is unavailable.
fn measure<F: FnMut()>(target_cpu: f64, max_reps: u32, mut work: F) -> (u32, f64, f64) {
    let wall0 = Instant::now();
    let cpu0 = thread_cpu_secs();
    let mut reps = 0;
    loop {
        work();
        reps += 1;
        let wall = wall0.elapsed().as_secs_f64();
        let cpu = match (cpu0, thread_cpu_secs()) {
            (Some(a), Some(b)) => b - a,
            _ => wall,
        };
        if cpu >= target_cpu || reps >= max_reps {
            return (reps, cpu.max(1e-9), wall);
        }
    }
}

/// Run the scheduler microbenchmark on both backends. The pending count
/// models a mega-fabric steady state — hundreds of thousands of
/// concurrent keepalive/dead timers — which is where the heap's
/// `O(log n)` sift (and its cache misses) bites and the wheel's `O(1)`
/// bucketing wins.
pub fn bench_scheduler(quick: bool) -> MicroBench {
    let pending = 262_144;
    let ops: u64 = if quick { 200_000 } else { 2_000_000 };
    let rate = |kind: SchedulerKind| {
        let (reps, cpu, _) = measure(0.25, if quick { 8 } else { 2 }, || {
            // The checksum keeps the loop from being optimized away; fold
            // it into a branch the optimizer cannot predict but that
            // never fires.
            let acc = dcn_sim::scheduler_stress(kind, pending, ops);
            assert!(acc != u64::MAX, "checksum sentinel");
        });
        (reps as u64 * ops) as f64 / cpu
    };
    let heap = rate(SchedulerKind::Heap);
    let wheel = rate(SchedulerKind::Wheel);
    MicroBench {
        pending,
        ops,
        heap_events_per_sec: heap,
        wheel_events_per_sec: wheel,
        speedup: wheel / heap,
    }
}

/// Build and run one fabric size, tracing off, and measure throughput.
/// The run is deterministic, so repetitions do identical work; reps
/// accumulate until enough CPU time is banked for a stable rate (a
/// single quick window is milliseconds long, well inside OS-jitter
/// territory). Fabric/sim construction inside the measured window biases
/// the rate slightly low, identically for baseline and current.
pub fn bench_one_scale(pods: usize, quick: bool, seed: u64) -> Result<ScalePoint, String> {
    let params = ClosParams::scaled(pods)?;
    // Warmup covers cold start → converged fabric; the full run measures a
    // longer steady-state window dominated by keepalive traffic.
    let warmup = Timing::default().warmup;
    let horizon = if quick { warmup } else { warmup * 3 };
    let cfg = SimConfig { trace: false, ..SimConfig::default() };
    // Every row runs with the engine profiler on so the report can embed
    // its execute/other breakdown. Profiling reads only the host clock
    // and bumps pre-sized counters; its overhead is identical for
    // baseline and current, so the regression gate is unaffected.
    let tuning = StackTuning { profile: true, ..StackTuning::default() };
    let mut events = 0;
    let (mut nodes, mut links) = (0, 0);
    let mut profile = None;
    reset_peak_rss();
    let (reps, cpu, wall) = measure(0.25, 256, || {
        let fabric = Fabric::build(params);
        (nodes, links) = (fabric.nodes.len(), fabric.links.len());
        let mut built = build_fabric_sim_cfg(fabric, Stack::Mrmtp, seed, &[], tuning, cfg);
        built.sim.run_until(horizon);
        events = built.sim.events_processed();
        profile = built.sim.take_profile();
    });
    // The breakdown of the last rep (reps are identical work).
    let profile = profile.expect("profiling was enabled");
    let breakdown = dcn_telemetry::stall_breakdown_of(&profile);
    let windows = profile.shards.iter().map(|s| s.windows_total).sum();
    // Both bases, every row: CPU for the regression gate (insensitive to
    // machine sharing), wall for what a user waits.
    let total = (reps as u64 * events) as f64;
    let events_per_sec_wall = total / wall.max(1e-9);
    let events_per_sec_cpu = total / cpu;
    Ok(ScalePoint {
        pods,
        nodes,
        links,
        events,
        wall_ms: wall / reps as f64 * 1e3,
        events_per_sec_wall,
        events_per_sec_cpu,
        events_per_node: events_per_sec_cpu / nodes.max(1) as f64,
        peak_rss_kb: peak_rss_kb(),
        windows,
        execute_pct: breakdown.execute_pct,
        other_pct: breakdown.other_pct,
    })
}

/// One profiled scale run (the same fabric/horizon as a
/// [`bench_one_scale`] row, single rep) packaged as a full
/// [`dcn_telemetry::PerfReport`] — what `fcr bench --profile-out`
/// writes so a suspicious row can be opened in Perfetto.
pub fn profile_scale_run(
    pods: usize,
    quick: bool,
    seed: u64,
) -> Result<dcn_telemetry::PerfReport, String> {
    let params = ClosParams::scaled(pods)?;
    let warmup = Timing::default().warmup;
    let horizon = if quick { warmup } else { warmup * 3 };
    let cfg = SimConfig { trace: false, ..SimConfig::default() };
    let tuning = StackTuning { profile: true, ..StackTuning::default() };
    let fabric = Fabric::build(params);
    let mut built = build_fabric_sim_cfg(fabric, Stack::Mrmtp, seed, &[], tuning, cfg);
    built.sim.run_until(horizon);
    let profile = built.sim.take_profile().expect("profiling was enabled");
    let names = crate::profile::node_names(&built.sim);
    let label = format!("bench scale {pods} pods seed {seed}");
    Ok(dcn_telemetry::PerfReport::new(profile, label, names))
}

/// Run the whole benchmark: a sweep over `pods` plus the microbench.
/// The sweep runs first: the microbench saturates the CPU for a second
/// or more, and on throttled/shared machines that depresses whatever is
/// measured right after it.
pub fn run_bench(pods: &[usize], quick: bool, seed: u64) -> Result<BenchReport, String> {
    let scale = pods
        .iter()
        .map(|&p| bench_one_scale(p, quick, seed))
        .collect::<Result<Vec<_>, _>>()?;
    let micro = bench_scheduler(quick);
    Ok(BenchReport {
        quick,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        micro,
        scale,
    })
}

impl BenchReport {
    /// Serialize to the committed `BENCH_scale.json` schema
    /// (`bench_scale/v5`; see EXPERIMENTS.md). Rows report both
    /// throughput bases; the legacy `events_per_sec` key is kept as an
    /// alias of the CPU basis so older tooling and v2/v3 baselines still
    /// gate — [`check_regression`] reads fields by name and ignores the
    /// schema string.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::str("bench_scale/v5")),
            ("quick", Json::Bool(self.quick)),
            ("cores", Json::UInt(self.cores as u64)),
            (
                "scheduler_microbench",
                Json::obj(vec![
                    ("pending", Json::UInt(self.micro.pending as u64)),
                    ("ops", Json::UInt(self.micro.ops)),
                    ("heap_events_per_sec", Json::Float(self.micro.heap_events_per_sec)),
                    ("wheel_events_per_sec", Json::Float(self.micro.wheel_events_per_sec)),
                    ("speedup", Json::Float(self.micro.speedup)),
                ]),
            ),
            (
                "scale",
                Json::Arr(
                    self.scale
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("pods", Json::UInt(p.pods as u64)),
                                ("nodes", Json::UInt(p.nodes as u64)),
                                ("links", Json::UInt(p.links as u64)),
                                ("events", Json::UInt(p.events)),
                                ("wall_ms", Json::Float(p.wall_ms)),
                                ("events_per_sec_wall", Json::Float(p.events_per_sec_wall)),
                                ("events_per_sec_cpu", Json::Float(p.events_per_sec_cpu)),
                                // Legacy alias (CPU basis) for pre-v4 readers.
                                ("events_per_sec", Json::Float(p.events_per_sec_cpu)),
                                ("events_per_node", Json::Float(p.events_per_node)),
                                ("peak_rss_kb", Json::UInt(p.peak_rss_kb)),
                                ("windows", Json::UInt(p.windows)),
                                ("execute_pct", Json::Float(p.execute_pct)),
                                ("other_pct", Json::Float(p.other_pct)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Human-readable table for the terminal.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "scheduler microbench ({} pending, {} ops):\n  heap  {:>12.0} events/sec\n  wheel {:>12.0} events/sec\n  speedup {:.2}x\n\n",
            self.micro.pending, self.micro.ops, self.micro.heap_events_per_sec,
            self.micro.wheel_events_per_sec, self.micro.speedup,
        ));
        out.push_str(&format!("host cores: {}\n", self.cores));
        out.push_str(
            "pods  nodes  links      events   wall_ms  ev/s(wall)   ev/s(cpu)  ev/s/node  peak_rss_kb  exec%  other%\n",
        );
        for p in &self.scale {
            out.push_str(&format!(
                "{:>4}  {:>5}  {:>5}  {:>10}  {:>8.1}  {:>10.0}  {:>10.0}  {:>9.0}  {:>11}  {:>5.1}  {:>6.1}\n",
                p.pods,
                p.nodes,
                p.links,
                p.events,
                p.wall_ms,
                p.events_per_sec_wall,
                p.events_per_sec_cpu,
                p.events_per_node,
                p.peak_rss_kb,
                p.execute_pct,
                p.other_pct,
            ));
        }
        out
    }
}

// ----------------------------------------------------------------------
// Traffic soak (the data-plane fast-path benchmark)
// ----------------------------------------------------------------------

/// One (fabric size × stack) point of the traffic soak.
#[derive(Clone, Debug)]
pub struct TrafficPoint {
    pub pods: usize,
    pub stack: Stack,
    /// Concurrent cross-pod flows.
    pub flows: usize,
    /// Router hops each packet crosses (up one side, down the other).
    pub hops: usize,
    /// Data packets forwarded by routers over one measured window.
    pub packets: u64,
    /// Forwarded packets per CPU second, fast path on / off.
    pub pkts_per_sec_fast: f64,
    pub pkts_per_sec_slow: f64,
    pub speedup: f64,
    /// Heap allocations per forwarded packet on the fast path. `None`
    /// when the process has no counting allocator (library tests);
    /// `Some(0.0)` is a real measured zero.
    pub allocs_per_packet: Option<f64>,
    /// Loss-window probe: packets blackholed during the carrier-detection
    /// window of a scripted uplink failure, with `local_repair` off.
    /// MR-MTP masks port liveness inside every lookup, so its off-mode
    /// window is natively ~zero; BGP applies none, so its window spans
    /// the full carrier latency at the failing hop.
    pub window_blackholed_off: u64,
    /// Same probe with `local_repair` on.
    pub window_blackholed_on: u64,
    /// Packets locally repaired during the `on` probe.
    pub window_repaired_on: u64,
}

/// The full `fcr bench --traffic` output.
#[derive(Clone, Debug)]
pub struct TrafficReport {
    pub quick: bool,
    /// CPU cores available to this process when the report was taken
    /// (every bench/profile artifact records this).
    pub cores: usize,
    /// Was a counting `#[global_allocator]` installed in this process?
    pub alloc_counter: bool,
    pub points: Vec<TrafficPoint>,
}

/// Sum of `data_forwarded` across every router (transit decisions, the
/// soak's unit of work).
fn total_forwarded(built: &BuiltSim) -> u64 {
    built
        .fabric
        .routers()
        .map(|r| match built.stack {
            Stack::Mrmtp => built.mrmtp(r).stats().data_forwarded,
            _ => built.bgp(r).stats().data_forwarded,
        })
        .sum()
}

/// Soak one (pods × stack × fast_path) combination: converge, then
/// extend the horizon in fixed steady-state windows until enough CPU
/// time is banked. Returns (packets forwarded per window, packets/sec,
/// allocations inside forwarding scopes, fast-path forward count).
fn soak_one(
    pods: usize,
    stack: Stack,
    fast_path: bool,
    quick: bool,
    seed: u64,
) -> Result<(u64, f64, u64, u64), String> {
    let params = ClosParams::scaled(pods)?;
    let fabric = Fabric::build(params);
    let addr = Addressing::new(&fabric);
    // Cross-pod flows, both directions, one per ToR pair: every packet
    // crosses the full up/down diameter of the fabric.
    let far = params.pods - 1;
    let mut senders = Vec::new();
    // BGP needs session establishment plus the initial table dumps;
    // MR-MTP's trees converge in well under a second.
    let warmup = if stack == Stack::Mrmtp { 2 * SECONDS } else { 6 * SECONDS };
    let window = if quick { SECONDS / 2 } else { SECONDS };
    let horizon_cap = warmup + 4096 * window;
    for t in 0..params.tors_per_pod {
        let spec = |dst_tor: usize| {
            let mut s = SendSpec::new(
                addr.server_addr(dst_tor, 0).expect("server address"),
                warmup,
                horizon_cap,
            );
            // The load shape is identical in quick mode — only windows and
            // rep counts shrink — so quick CI smoke rates stay comparable
            // with a committed full-mode baseline.
            s.interval = 50 * MICROS;
            s
        };
        senders.push((fabric.server(0, t, 0), spec(fabric.tor(far, t))));
        senders.push((fabric.server(far, t, 0), spec(fabric.tor(0, t))));
    }
    let cfg = SimConfig { trace: false, ..SimConfig::default() };
    let tuning = StackTuning { fast_path, ..StackTuning::default() };
    let mut built = build_fabric_sim_cfg(fabric, stack, seed, &senders, tuning, cfg);
    built.sim.run_until(warmup);
    let warm_forwarded = total_forwarded(&built);
    alloc_track::reset();
    let mut horizon = warmup;
    let target = if quick { 0.05 } else { 0.25 };
    let (reps, cpu, _wall) = measure(target, if quick { 4 } else { 64 }, || {
        horizon += window;
        built.sim.run_until(horizon);
    });
    let delta = total_forwarded(&built) - warm_forwarded;
    Ok((
        delta / reps as u64,
        delta as f64 / cpu,
        alloc_track::scoped_allocs(),
        alloc_track::forwarded(),
    ))
}

/// Sum of `(blackholed_in_window, locally_repaired)` across every
/// router.
fn window_totals(built: &BuiltSim) -> (u64, u64) {
    let mut blackholed = 0;
    let mut repaired = 0;
    for r in built.fabric.routers() {
        let (b, rep) = match built.stack {
            Stack::Mrmtp => {
                let s = built.mrmtp(r).stats();
                (s.blackholed_in_window, s.locally_repaired)
            }
            _ => {
                let s = built.bgp(r).stats();
                (s.blackholed_in_window, s.locally_repaired)
            }
        };
        blackholed += b;
        repaired += rep;
    }
    (blackholed, repaired)
}

/// The loss-window probe: pinned cross-pod flows (one per ToR pair, all
/// riding the S-1-1 chain, paced at 25 µs so the 500 µs carrier latency
/// spans ~20 packets each), then a carrier failure of S-1-1's first
/// uplink mid-run. Returns `(blackholed_in_window, locally_repaired)`
/// summed over every router. Deterministic for a given seed; quick mode
/// runs the identical probe (it is already cheap), so quick CI numbers
/// compare against a committed full-mode baseline.
fn loss_window_probe(
    pods: usize,
    stack: Stack,
    local_repair: bool,
    seed: u64,
) -> Result<(u64, u64), String> {
    let params = ClosParams::scaled(pods)?;
    let fabric = Fabric::build(params);
    let addr = Addressing::new(&fabric);
    let far = params.pods - 1;
    let warmup = if stack == Stack::Mrmtp { 2 * SECONDS } else { 6 * SECONDS };
    let fail_at = warmup + 50 * MILLIS;
    let end = fail_at + 50 * MILLIS;
    let widths = [params.spines_per_pod, params.uplinks_per_spine];
    let mut senders = Vec::new();
    for t in 0..params.tors_per_pod {
        let src_ip = addr.server_addr(fabric.tor(0, t), 0).expect("near server");
        let dst_ip = addr.server_addr(fabric.tor(far, t), 0).expect("far server");
        let (sp, dp) = crate::flows::pin_flow(src_ip, dst_ip, &widths);
        let mut s = SendSpec::new(dst_ip, warmup, end);
        s.src_port = sp;
        s.dst_port = dp;
        s.interval = 25 * MICROS;
        senders.push((fabric.server(0, t, 0), s));
    }
    let cfg = SimConfig { trace: false, ..SimConfig::default() };
    let tuning = StackTuning { local_repair, ..StackTuning::default() };
    let mut built = build_fabric_sim_cfg(fabric, stack, seed, &senders, tuning, cfg);
    built.sim.run_until(fail_at);
    let (node, port) = built.fabric.failure_point(dcn_topology::FailureCase::Tc3);
    built
        .sim
        .schedule_port_down(fail_at, dcn_sim::NodeId(node as u32), dcn_sim::PortId(port as u16));
    built.sim.run_until(end);
    Ok(window_totals(&built))
}

/// Run the traffic soak across `pods` for both data-plane stacks
/// (MR-MTP and BGP/ECMP; BFD adds keepalive load, not forwarding work).
pub fn run_traffic_bench(pods: &[usize], quick: bool, seed: u64) -> Result<TrafficReport, String> {
    let combos: Vec<(usize, Stack)> = pods
        .iter()
        .flat_map(|&p| [(p, Stack::Mrmtp), (p, Stack::BgpEcmp)])
        .collect();
    // The loss-window probes count deterministic per-seed events, not
    // rates, so they fan out through the shared campaign pool; the timed
    // soaks stay serial — concurrent soaks would contend for cores and
    // corrupt the CPU-time rates the committed baselines gate on.
    let probes = crate::campaign::pool::fan_out(combos.clone(), 0, |(p, stack)| {
        let (window_off, _) = loss_window_probe(p, stack, false, seed)?;
        let (window_on, repaired_on) = loss_window_probe(p, stack, true, seed)?;
        Ok::<_, String>((window_off, window_on, repaired_on))
    });
    let mut points = Vec::new();
    for (&(p, stack), probe) in combos.iter().zip(probes) {
        let (window_off, window_on, repaired_on) = probe?;
        let (packets, fast_rate, allocs, fast_fwd) = soak_one(p, stack, true, quick, seed)?;
        let (_, slow_rate, _, _) = soak_one(p, stack, false, quick, seed)?;
        let allocs_per_packet = (alloc_track::counting_allocator_installed()
            && fast_fwd > 0)
            .then(|| allocs as f64 / fast_fwd as f64);
        points.push(TrafficPoint {
            pods: p,
            stack,
            flows: ClosParams::scaled(p)?.tors_per_pod * 2,
            hops: Fabric::build(ClosParams::scaled(p)?).cross_pod_router_hops(),
            packets,
            pkts_per_sec_fast: fast_rate,
            pkts_per_sec_slow: slow_rate,
            speedup: fast_rate / slow_rate,
            allocs_per_packet,
            window_blackholed_off: window_off,
            window_blackholed_on: window_on,
            window_repaired_on: repaired_on,
        });
    }
    Ok(TrafficReport {
        quick,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        alloc_counter: alloc_track::counting_allocator_installed(),
        points,
    })
}

impl TrafficReport {
    /// Serialize to the committed `BENCH_traffic.json` schema
    /// (`bench_traffic/v2`; see EXPERIMENTS.md).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::str("bench_traffic/v2")),
            ("quick", Json::Bool(self.quick)),
            ("cores", Json::UInt(self.cores as u64)),
            ("alloc_counter_installed", Json::Bool(self.alloc_counter)),
            (
                "points",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("pods", Json::UInt(p.pods as u64)),
                                ("stack", Json::str(p.stack.slug())),
                                ("flows", Json::UInt(p.flows as u64)),
                                ("hops", Json::UInt(p.hops as u64)),
                                ("packets", Json::UInt(p.packets)),
                                ("pkts_per_sec_fast", Json::Float(p.pkts_per_sec_fast)),
                                ("pkts_per_sec_slow", Json::Float(p.pkts_per_sec_slow)),
                                ("speedup", Json::Float(p.speedup)),
                                (
                                    "allocs_per_forwarded_packet",
                                    p.allocs_per_packet.map_or(Json::Null, Json::Float),
                                ),
                                ("window_blackholed_off", Json::UInt(p.window_blackholed_off)),
                                ("window_blackholed_on", Json::UInt(p.window_blackholed_on)),
                                ("window_repaired_on", Json::UInt(p.window_repaired_on)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Human-readable table for the terminal.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "traffic soak (cross-pod flows, fast path vs slow path; allocs {}):\n",
            if self.alloc_counter { "measured" } else { "not measured" },
        ));
        out.push_str(
            "pods  stack         flows  hops    packets     fast pkt/s     slow pkt/s  speedup  allocs/pkt  bh off/on  repaired\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:>4}  {:<12}  {:>5}  {:>4}  {:>9}  {:>13.0}  {:>13.0}  {:>6.2}x  {:>10}  {:>4}/{:<4}  {:>8}\n",
                p.pods,
                p.stack.label(),
                p.flows,
                p.hops,
                p.packets,
                p.pkts_per_sec_fast,
                p.pkts_per_sec_slow,
                p.speedup,
                p.allocs_per_packet
                    .map_or("n/a".into(), |a| format!("{a:.3}")),
                p.window_blackholed_off,
                p.window_blackholed_on,
                p.window_repaired_on,
            ));
        }
        out
    }
}

/// Compare a fresh traffic report against a committed baseline
/// (`BENCH_traffic.json` contents). Fails when fast-path packets/sec at
/// any matching (pods, stack) point dropped by more than `tolerance`,
/// when MR-MTP transit — measured with a counting allocator — allocates
/// at all (the zero-alloc invariant is a hard gate, not a trend), or
/// when the loss-window probe regresses: repair widening the current
/// window, or blackholing more packets than the committed baseline
/// recorded (the probe is deterministic, so this is an exact gate).
pub fn check_traffic_regression(
    current: &TrafficReport,
    baseline_json: &str,
    tolerance: f64,
) -> Result<(), String> {
    let base = Json::parse(baseline_json).map_err(|e| format!("baseline parse error: {e}"))?;
    let points = base
        .get("points")
        .and_then(|s| s.as_arr())
        .ok_or("baseline missing points array")?;
    for point in &current.points {
        if current.alloc_counter && point.stack == Stack::Mrmtp {
            if let Some(a) = point.allocs_per_packet {
                if a > 0.0 {
                    return Err(format!(
                        "MR-MTP transit allocates: {a:.3} allocs/packet at {} pods (expected 0)",
                        point.pods
                    ));
                }
            }
        }
        if point.window_blackholed_on > point.window_blackholed_off {
            return Err(format!(
                "local repair widened the loss window at {} pods ({}): {} on vs {} off",
                point.pods,
                point.stack.label(),
                point.window_blackholed_on,
                point.window_blackholed_off,
            ));
        }
        let Some(b) = points.iter().find(|b| {
            b.get("pods").and_then(|p| p.as_u64()) == Some(point.pods as u64)
                && b.get("stack").and_then(|s| s.as_str()) == Some(point.stack.slug())
        }) else {
            continue;
        };
        let base_rate = b
            .get("pkts_per_sec_fast")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| {
                format!("baseline {} pods {} missing pkts_per_sec_fast", point.pods, point.stack.slug())
            })?;
        if point.pkts_per_sec_fast < base_rate * (1.0 - tolerance) {
            return Err(format!(
                "traffic regression at {} pods ({}): {:.0} pkt/s vs baseline {:.0} (>{:.0}% drop)",
                point.pods,
                point.stack.label(),
                point.pkts_per_sec_fast,
                base_rate,
                tolerance * 100.0,
            ));
        }
        // v1 baselines lack the window fields; skip the exact gate there.
        if let Some(base_on) = b.get("window_blackholed_on").and_then(|v| v.as_u64()) {
            if point.window_blackholed_on > base_on {
                return Err(format!(
                    "loss-window regression at {} pods ({}): {} blackholed with repair on vs baseline {}",
                    point.pods,
                    point.stack.label(),
                    point.window_blackholed_on,
                    base_on,
                ));
            }
        }
    }
    Ok(())
}

/// Compare a fresh report against a committed baseline (`BENCH_scale.json`
/// contents). Fails if CPU-basis events/sec at any matching PoD count
/// dropped by more than `tolerance` (0.20 = 20%) or the scheduler
/// microbench speedup fell below 1.0. Rows present on only one side are
/// skipped — the sweep list may grow over time. Baselines without
/// `events_per_sec_cpu` (pre-v4) gate through their legacy
/// `events_per_sec` column.
pub fn check_regression(current: &BenchReport, baseline_json: &str, tolerance: f64) -> Result<(), String> {
    let base = Json::parse(baseline_json).map_err(|e| format!("baseline parse error: {e}"))?;
    let scale = base
        .get("scale")
        .and_then(|s| s.as_arr())
        .ok_or("baseline missing scale array")?;
    for point in &current.scale {
        let Some(b) = scale.iter().find(|b| {
            b.get("pods").and_then(|p| p.as_u64()) == Some(point.pods as u64)
        }) else {
            continue;
        };
        let base_eps = b
            .get("events_per_sec_cpu")
            .or_else(|| b.get("events_per_sec"))
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("baseline {} pods missing events_per_sec", point.pods))?;
        if point.events_per_sec_cpu < base_eps * (1.0 - tolerance) {
            return Err(format!(
                "regression at {} pods: {:.0} events/sec (cpu) vs baseline {:.0} (>{:.0}% drop)",
                point.pods,
                point.events_per_sec_cpu,
                base_eps,
                tolerance * 100.0,
            ));
        }
    }
    if current.micro.speedup < 1.0 {
        return Err(format!(
            "scheduler regression: wheel {:.2}x of heap (expected >= 1.0x)",
            current.micro.speedup
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_produces_sane_report() {
        let report = run_bench(&[2], true, 7).expect("2-pod bench runs");
        assert!(report.quick);
        assert!(report.cores >= 1);
        assert_eq!(report.scale.len(), 1);
        let p = &report.scale[0];
        assert_eq!(p.pods, 2);
        assert!(p.nodes > 0 && p.links > 0);
        assert!(p.events > 0, "engine processed no events");
        assert!(p.events_per_sec_wall > 0.0);
        assert!(p.events_per_sec_cpu > 0.0);
        assert!(p.events_per_node > 0.0);
        // The thread's CPU seconds can't exceed wall, so the wall rate can't exceed the CPU rate (equal when never descheduled)
        // — modulo the 10ms USER_HZ tick quantization of /proc readings,
        // worth a few percent over a ~0.25s measured window.
        assert!(p.events_per_sec_wall <= p.events_per_sec_cpu * 1.10);
        assert!(report.micro.heap_events_per_sec > 0.0);
        assert!(report.micro.wheel_events_per_sec > 0.0);

        // Every row carries its embedded breakdown.
        assert!(p.windows > 0, "profiler saw no windows");
        let total = p.execute_pct + p.other_pct;
        assert!((total - 100.0).abs() < 5.0, "breakdown covers the wall: {total}");

        // JSON round-trips through the schema.
        let rendered = report.to_json().render();
        let parsed = Json::parse(&rendered).expect("self-rendered JSON parses");
        assert_eq!(parsed.get("schema").and_then(|s| s.as_str()), Some("bench_scale/v5"));
        assert!(parsed.get("cores").and_then(|c| c.as_u64()).is_some());
        assert_eq!(
            parsed.get("scale").and_then(|s| s.as_arr()).map(|a| a.len()),
            Some(1)
        );
        let row = &parsed.get("scale").and_then(|s| s.as_arr()).unwrap()[0];
        assert!(row.get("events_per_sec_wall").and_then(|v| v.as_f64()).is_some());
        assert!(row.get("events_per_sec_cpu").and_then(|v| v.as_f64()).is_some());
        // The legacy key aliases the CPU basis for pre-v4 readers.
        assert_eq!(
            row.get("events_per_sec").and_then(|v| v.as_f64()),
            row.get("events_per_sec_cpu").and_then(|v| v.as_f64()),
        );
        assert!(row.get("events_per_node").and_then(|v| v.as_f64()).is_some());
        assert!(row.get("execute_pct").and_then(|v| v.as_f64()).is_some());

        // A report never regresses against itself...
        check_regression(&report, &rendered, 0.20).expect("self-baseline passes");

        // ...and a v2 baseline (no breakdown fields, no dual-basis
        // columns, old schema string) still gates through the legacy
        // `events_per_sec` key: the checker keys on field names only.
        let v2 = rendered
            .replace("bench_scale/v5", "bench_scale/v2")
            .replace("\"execute_pct\"", "\"execute_pct_v2_absent\"")
            .replace("\"events_per_sec_wall\"", "\"events_per_sec_wall_v2_absent\"")
            .replace("\"events_per_sec_cpu\"", "\"events_per_sec_cpu_v2_absent\"");
        check_regression(&report, &v2, 0.20).expect("v2 baseline still gates");

        // ...but does against an inflated baseline.
        let mut inflated = report.clone();
        inflated.scale[0].events_per_sec_cpu *= 10.0;
        let inflated_json = inflated.to_json().render();
        assert!(check_regression(&report, &inflated_json, 0.20).is_err());
    }

    #[test]
    fn odd_pod_count_is_rejected() {
        assert!(run_bench(&[3], true, 7).is_err());
    }

    #[test]
    fn quick_traffic_soak_produces_sane_report() {
        let report = run_traffic_bench(&[2], true, 7).expect("2-pod soak runs");
        assert!(report.quick);
        assert_eq!(report.points.len(), 2, "one point per stack");
        for p in &report.points {
            assert_eq!(p.pods, 2);
            assert_eq!(p.flows, 4);
            assert_eq!(p.hops, 5);
            assert!(p.packets > 0, "{:?}: no packets forwarded", p.stack);
            assert!(p.pkts_per_sec_fast > 0.0);
            assert!(p.pkts_per_sec_slow > 0.0);
            // Library tests have no counting allocator, so allocs/packet
            // must be honestly absent rather than a fake zero.
            assert_eq!(p.allocs_per_packet, None);
        }
        assert!(!report.alloc_counter);

        // The loss-window probe: repair must never widen the window, and
        // BGP's off-mode carrier window must be real (the pinned flows
        // all ride the failed chain).
        for p in &report.points {
            assert!(
                p.window_blackholed_on <= p.window_blackholed_off,
                "{:?}: repair widened the window",
                p.stack
            );
        }
        let bgp = report.points.iter().find(|p| p.stack == Stack::BgpEcmp).unwrap();
        assert!(bgp.window_blackholed_off > 0, "no BGP carrier window measured");
        assert!(bgp.window_repaired_on > 0, "BGP repair never engaged in the probe");

        // JSON round-trips through the schema.
        let rendered = report.to_json().render();
        let parsed = Json::parse(&rendered).expect("self-rendered JSON parses");
        assert_eq!(parsed.get("schema").and_then(|s| s.as_str()), Some("bench_traffic/v2"));
        assert!(parsed.get("cores").and_then(|c| c.as_u64()).is_some());
        assert_eq!(
            parsed.get("points").and_then(|s| s.as_arr()).map(|a| a.len()),
            Some(2)
        );
        let p0 = parsed.get("points").and_then(|s| s.as_arr()).unwrap()[0].clone();
        assert!(p0.get("window_blackholed_off").and_then(|v| v.as_u64()).is_some());

        // A report never regresses against itself...
        check_traffic_regression(&report, &rendered, 0.20).expect("self-baseline passes");

        // ...but does against an inflated baseline.
        let mut inflated = report.clone();
        for p in &mut inflated.points {
            p.pkts_per_sec_fast *= 10.0;
        }
        let inflated_json = inflated.to_json().render();
        assert!(check_traffic_regression(&report, &inflated_json, 0.20).is_err());

        // A widened repair-on window is a hard failure, both against the
        // report itself and against a baseline that recorded fewer.
        let mut widened = report.clone();
        widened.points[0].window_blackholed_on = widened.points[0].window_blackholed_off + 1;
        assert!(check_traffic_regression(&widened, &rendered, 0.20).is_err());
        let mut worse_than_base = report.clone();
        for p in &mut worse_than_base.points {
            p.window_blackholed_off += 10;
            p.window_blackholed_on += 10;
        }
        assert!(check_traffic_regression(&worse_than_base, &rendered, 0.20).is_err());
    }
}

//! Chaos campaign engine (robustness harness).
//!
//! The paper's evaluation injects *scripted* failures (TC1–TC4). This
//! module complements it with *randomized* fault schedules — link flaps
//! with configurable dwell times, whole-node crashes with staggered
//! recovery, and k-point concurrent failures — replayed against both the
//! MR-MTP and BGP stacks while the wire is impaired (probabilistic frame
//! loss, byte corruption, delay jitter). After every schedule heals and
//! the fabric quiesces, four invariants are checked:
//!
//! 1. **No forwarding loops**: every ToR-pair × flow-sample walk over the
//!    actual data-plane decision function terminates without revisiting a
//!    node.
//! 2. **No black holes**: a walk that dies (no forwarding entry) while
//!    the destination is physically reachable over admin-up links is a
//!    violation.
//! 3. **Bounded re-convergence**: the last routing state change after the
//!    final heal event must land within a configured bound.
//! 4. **Determinism**: the same seed produces a bit-identical trace
//!    digest on a second run.
//!
//! Every random draw — schedule generation *and* wire impairment — comes
//! from seeded [`DetRng`] streams, so a violating seed is a complete,
//! replayable reproduction recipe.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::path::PathBuf;

use dcn_sim::rng::DetRng;
use dcn_sim::time::{Duration, Time, MICROS, MILLIS, SECONDS};
use dcn_sim::{Impairment, NodeId, PortId, SchedulerKind};
use dcn_telemetry::{
    capture_dump, hists_jsonl, series_jsonl, spans_jsonl, Json, PerfReport, Telemetry,
    TelemetryConfig, TraceBundle,
};
use dcn_topology::{Addressing, ClosParams, Fabric, Role};
use dcn_traffic::SendSpec;
use dcn_wire::{ecmp_index, flow_hash, IpAddr4, IPPROTO_UDP};

use crate::fabric::{build_fabric_sim_sched, BuiltSim, Stack, StackTuning};
use crate::figures::Figure;
use crate::campaign::pool::fan_out;
use crate::scenario::advance;

/// Salt for the schedule-generation RNG stream (distinct from the
/// engine's per-node and impairment streams).
const SCHEDULE_SALT: u64 = 0x5C4E_D01E_FA17_5EED;

/// Tunables for one chaos run. [`ChaosConfig::default`] matches the
/// acceptance campaign: link flaps + a node crash + concurrent failures
/// on a 2-PoD fabric with 1 % frame corruption.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Fabric under test.
    pub params: ClosParams,
    /// Number of single-link flap pairs (down then up) per schedule.
    pub flaps: usize,
    /// Number of whole-node crashes (all interfaces down, staggered
    /// recovery) per schedule.
    pub crashes: usize,
    /// Size of the one concurrent k-point failure burst (0 disables it).
    pub k_concurrent: usize,
    /// Minimum flap dwell (time an interface stays down).
    pub min_dwell: Duration,
    /// Maximum flap dwell.
    pub max_dwell: Duration,
    /// Base downtime of a crashed node before its first port recovers.
    pub crash_dwell: Duration,
    /// Per-port random extra delay when a crashed node's ports recover.
    pub recovery_stagger: Duration,
    /// Wire impairment active during the fault window.
    pub impairment: Impairment,
    /// Protocol warm-up before the fault window opens.
    pub warmup: Duration,
    /// Length of the fault window. Every interface is healed by its end.
    pub window: Duration,
    /// Clean settle time after the window before invariants are checked.
    pub settle: Duration,
    /// Re-convergence bound: the last routing state change after the
    /// final heal must land within this much time (must be < `settle`).
    pub convergence_bound: Duration,
    /// Flow samples walked per ToR pair when checking loop/black-hole
    /// invariants (each sample varies the UDP source port).
    pub flows_per_pair: usize,
    /// Event-scheduler backend (the equivalence suite runs the same
    /// seeds on both backends and compares digests).
    pub scheduler: SchedulerKind,
    /// Data-plane fast path on every router (the equivalence suite runs
    /// the same seeds with it off and compares digests).
    pub fast_path: bool,
    /// Local fast reroute on every router (precomputed backup FIBs).
    /// Off by default so historical per-seed digests are unchanged; when
    /// on, the repair-loop invariant is additionally checked.
    pub local_repair: bool,
    /// Cross-pod background flows run through the fault window so the
    /// per-router `blackholed_in_window` / `locally_repaired` counters
    /// measure real transit packets. 0 (the default) adds no senders and
    /// leaves historical digests untouched.
    pub traffic_pairs: usize,
    /// Engine runtime profiling (host-clock observation only). Per-seed
    /// digests are bit-identical with it on or off; the equivalence
    /// suite enforces it.
    pub profile: bool,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            params: ClosParams::two_pod(),
            flaps: 6,
            crashes: 1,
            k_concurrent: 2,
            min_dwell: 200 * MILLIS,
            max_dwell: 1500 * MILLIS,
            crash_dwell: 800 * MILLIS,
            recovery_stagger: 400 * MILLIS,
            impairment: Impairment {
                loss_ppm: 2_000,       // 0.2 % frame loss
                corrupt_ppm: 10_000,   // 1 % byte corruption
                jitter: 20 * MICROS,
            },
            warmup: 5 * SECONDS,
            window: 6 * SECONDS,
            settle: 8 * SECONDS,
            // BGP's worst legitimate post-heal sequence is a stale
            // hold-timer expiry (3 s) followed by up to two connect
            // retries (1 s each) before updates propagate; anything past
            // 6 s means the fabric is not quiescing.
            convergence_bound: 6 * SECONDS,
            flows_per_pair: 4,
            scheduler: SchedulerKind::default(),
            fast_path: true,
            local_repair: false,
            traffic_pairs: 0,
            profile: false,
        }
    }
}

impl ChaosConfig {
    /// Instant the fault window closes and the last heals fire.
    pub fn heal_at(&self) -> Time {
        self.warmup + self.window
    }

    /// Instant the run ends and invariants are checked.
    pub fn end_at(&self) -> Time {
        self.heal_at() + self.settle
    }
}

/// One administrative interface transition in a fault schedule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultEvent {
    pub at: Time,
    pub node: usize,
    pub port: usize,
    pub up: bool,
}

/// A seeded, fully-healed fault schedule: a chronologically sorted list
/// of interface transitions in which every interface taken down is back
/// up by [`ChaosConfig::heal_at`].
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Generate the schedule for `seed` on `fabric`. Deterministic: the
    /// same (seed, fabric, config) always yields the same schedule.
    pub fn generate(seed: u64, fabric: &Fabric, cfg: &ChaosConfig) -> FaultSchedule {
        let mut rng = DetRng::new(seed, SCHEDULE_SALT);
        let start = cfg.warmup;
        let heal_at = cfg.heal_at();
        let span = cfg.window.saturating_sub(cfg.min_dwell).max(1);

        // Router-to-router interfaces are the flap/k-point candidates;
        // host-facing ports only go down when their whole node crashes.
        let mut ifaces: Vec<(usize, usize)> = Vec::new();
        for (n, node) in fabric.nodes.iter().enumerate() {
            if !node.role.is_router() {
                continue;
            }
            for (p, pr) in fabric.ports[n].iter().enumerate() {
                if fabric.nodes[pr.peer].role.is_router() {
                    ifaces.push((n, p));
                }
            }
        }
        let routers: Vec<usize> = fabric
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.role.is_router())
            .map(|(i, _)| i)
            .collect();

        let mut ev = Vec::new();
        let dwell = |rng: &mut DetRng| {
            cfg.min_dwell + rng.below(cfg.max_dwell.saturating_sub(cfg.min_dwell) + 1)
        };

        // Single-link flaps.
        for _ in 0..cfg.flaps {
            let (n, p) = ifaces[rng.below(ifaces.len() as u64) as usize];
            let down_at = start + rng.below(span);
            let up_at = (down_at + dwell(&mut rng)).min(heal_at);
            ev.push(FaultEvent { at: down_at, node: n, port: p, up: false });
            ev.push(FaultEvent { at: up_at, node: n, port: p, up: true });
        }

        // Whole-node crashes: every port down at once, staggered recovery.
        for _ in 0..cfg.crashes {
            let n = routers[rng.below(routers.len() as u64) as usize];
            let crash_at = start + rng.below(span);
            for p in 0..fabric.ports[n].len() {
                let up_at = (crash_at
                    + cfg.crash_dwell
                    + rng.below(cfg.recovery_stagger + 1))
                .min(heal_at);
                ev.push(FaultEvent { at: crash_at, node: n, port: p, up: false });
                ev.push(FaultEvent { at: up_at, node: n, port: p, up: true });
            }
        }

        // One k-point concurrent burst: k distinct interfaces cut at the
        // same instant, each healing independently.
        if cfg.k_concurrent > 0 {
            let burst_at = start + rng.below(span);
            let mut picked = HashSet::new();
            while picked.len() < cfg.k_concurrent.min(ifaces.len()) {
                picked.insert(ifaces[rng.below(ifaces.len() as u64) as usize]);
            }
            let mut picked: Vec<_> = picked.into_iter().collect();
            picked.sort_unstable();
            for (n, p) in picked {
                let up_at = (burst_at + dwell(&mut rng)).min(heal_at);
                ev.push(FaultEvent { at: burst_at, node: n, port: p, up: false });
                ev.push(FaultEvent { at: up_at, node: n, port: p, up: true });
            }
        }

        ev.sort_by_key(|e| (e.at, e.node, e.port, e.up));

        // Replay with the engine's dedup semantics to find interfaces
        // still down at window close, and heal them. (Overlapping flaps
        // on one interface can leave a later `up` as a no-op while an
        // earlier `down` wins.)
        let mut state: std::collections::HashMap<(usize, usize), bool> =
            std::collections::HashMap::new();
        for e in &ev {
            let s = state.entry((e.node, e.port)).or_insert(true);
            if *s != e.up {
                *s = e.up;
            }
        }
        for ((n, p), up) in state {
            if !up {
                ev.push(FaultEvent { at: heal_at, node: n, port: p, up: true });
            }
        }
        ev.sort_by_key(|e| (e.at, e.node, e.port, e.up));
        FaultSchedule { events: ev }
    }

    /// Number of distinct down transitions (the "fault count").
    pub fn fault_count(&self) -> usize {
        self.events.iter().filter(|e| !e.up).count()
    }
}

/// Result of one chaos run (one seed × one stack).
#[derive(Clone, Debug)]
pub struct ChaosRun {
    pub seed: u64,
    pub stack: Stack,
    /// Down transitions injected by the schedule.
    pub faults: usize,
    /// Forwarding-loop violations found after quiescence.
    pub loops: usize,
    /// Black-hole violations (no route while physically reachable).
    pub black_holes: usize,
    /// Repair-loop violations: a walk that revisits a node after local
    /// fast reroute engaged (checked only with
    /// [`ChaosConfig::local_repair`]; always 0 otherwise).
    pub repair_loops: usize,
    /// Transit packets dropped for want of a live forwarding entry
    /// during the run, summed over every router (the loss window local
    /// repair exists to shrink). Counted identically with the knob on or
    /// off; 0 without [`ChaosConfig::traffic_pairs`].
    pub window_blackholed: u64,
    /// Transit packets local fast reroute steered around a locally-dead
    /// egress, summed over every router.
    pub window_repaired: u64,
    /// ToR pairs that were physically unreachable at check time (should
    /// be zero: every schedule is fully healed).
    pub unreachable_pairs: usize,
    /// Whether the last routing state change after the final heal landed
    /// within [`ChaosConfig::convergence_bound`].
    pub converged: bool,
    /// Time of the last routing state change after the final heal
    /// (`None` = the fabric was already quiet).
    pub convergence: Option<Duration>,
    /// Trace digest; equal digests across runs of the same seed certify
    /// bit-identical execution.
    pub digest: u64,
    /// Whether a second same-seed run reproduced `digest` exactly.
    pub deterministic: bool,
    /// Corrupted/undecodable frames dropped by protocol parsers.
    pub malformed_dropped: u64,
    /// Frames the wire corrupted during the impairment window.
    pub frames_corrupted: u64,
    /// Frames the wire dropped outright during the impairment window.
    pub frames_lost: u64,
}

impl ChaosRun {
    /// Total invariant violations in this run.
    pub fn violations(&self) -> usize {
        self.loops
            + self.black_holes
            + self.repair_loops
            + self.unreachable_pairs
            + usize::from(!self.converged)
            + usize::from(!self.deterministic)
    }
}

/// Execute one chaos run: warm up, open the impaired fault window, replay
/// the schedule, heal, settle, then check every invariant.
pub fn run_chaos(seed: u64, stack: Stack, cfg: &ChaosConfig) -> ChaosRun {
    let (run, _, _) = run_chaos_once(seed, stack, cfg, &mut None);
    run
}

/// [`run_chaos`] with the engine profiler forced on, handing back the
/// perf report alongside the run. The digest in the returned run is
/// bit-identical to an unprofiled run of the same seed (the profiler is
/// a pure host-clock observer).
pub fn run_chaos_profiled(seed: u64, stack: Stack, cfg: &ChaosConfig) -> (ChaosRun, PerfReport) {
    let cfg = ChaosConfig { profile: true, ..cfg.clone() };
    let (run, _, mut built) = run_chaos_once(seed, stack, &cfg, &mut None);
    let profile = built.sim.take_profile().expect("profiling enabled");
    let names = crate::profile::node_names(&built.sim);
    let label = format!("chaos {} seed {}", stack.slug(), seed);
    let report = PerfReport::new(profile, label, names);
    (run, report)
}

fn run_chaos_once(
    seed: u64,
    stack: Stack,
    cfg: &ChaosConfig,
    tel: &mut Option<Telemetry>,
) -> (ChaosRun, FaultSchedule, BuiltSim) {
    let fabric = Fabric::build(cfg.params);
    let addr = Addressing::new(&fabric);
    let senders = chaos_senders(&fabric, &addr, cfg);
    let mut built = build_fabric_sim_sched(
        fabric,
        stack,
        seed,
        &senders,
        StackTuning {
            fast_path: cfg.fast_path,
            local_repair: cfg.local_repair,
            profile: cfg.profile,
            ..StackTuning::default()
        },
        cfg.scheduler,
    );
    let schedule = FaultSchedule::generate(seed, &built.fabric, cfg);

    // Schedule every administrative transition up front; the engine's
    // double-scheduling guard drops no-op transitions exactly the way
    // the schedule replay predicted.
    for e in &schedule.events {
        let (node, port) = (NodeId(e.node as u32), PortId(e.port as u16));
        if e.up {
            built.sim.schedule_port_up(e.at, node, port);
        } else {
            built.sim.schedule_port_down(e.at, node, port);
        }
    }

    // Warm up clean, impair the wire for the fault window, then clear
    // the impairment just before the final heals so the settle period is
    // a clean fabric.
    let heal_at = cfg.heal_at();
    advance(&mut built.sim, cfg.warmup, tel);
    built.sim.set_impairment_all(cfg.impairment);
    advance(&mut built.sim, heal_at.saturating_sub(1), tel);
    built.sim.set_impairment_all(Impairment::none());
    advance(&mut built.sim, cfg.end_at(), tel);

    let convergence = dcn_metrics::last_state_change(built.sim.trace(), heal_at);
    let converged = convergence.is_none_or(|d| d <= cfg.convergence_bound);
    let (loops, black_holes, unreachable_pairs) = check_forwarding_invariants(&built, cfg);
    let repair_loops = if cfg.local_repair { check_repair_loops(&built, cfg) } else { 0 };
    let digest = trace_digest(&built.sim);

    let mut malformed_dropped = 0;
    let (mut window_blackholed, mut window_repaired) = (0u64, 0u64);
    for (i, _) in built.fabric.nodes.iter().enumerate().filter(|(_, n)| n.role.is_router()) {
        let (malformed, blackholed, repaired) = match stack {
            Stack::Mrmtp => {
                let s = built.mrmtp(i).stats();
                (s.malformed_frames_dropped, s.blackholed_in_window, s.locally_repaired)
            }
            Stack::BgpEcmp | Stack::BgpEcmpBfd => {
                let s = built.bgp(i).stats();
                (s.malformed_frames_dropped, s.blackholed_in_window, s.locally_repaired)
            }
        };
        malformed_dropped += malformed;
        window_blackholed += blackholed;
        window_repaired += repaired;
    }

    let run = ChaosRun {
        seed,
        stack,
        faults: schedule.fault_count(),
        loops,
        black_holes,
        repair_loops,
        window_blackholed,
        window_repaired,
        unreachable_pairs,
        converged,
        convergence,
        digest,
        deterministic: true,
        malformed_dropped,
        frames_corrupted: built.sim.frames_corrupted(),
        frames_lost: built.sim.frames_lost_to_impairment(),
    };
    (run, schedule, built)
}

/// Re-run one (seed, stack) pair with telemetry attached and package a
/// self-contained replay bundle: the fault schedule, every typed span,
/// the sampled series and a capture of the fault window. Sampling is
/// read-only, so the instrumented run reproduces the original digest —
/// the caller can (and [`run_campaign`] does) cross-check it.
pub fn chaos_bundle(
    seed: u64,
    stack: Stack,
    cfg: &ChaosConfig,
    tel_cfg: TelemetryConfig,
) -> (ChaosRun, TraceBundle) {
    let mut tel = Some(Telemetry::new(tel_cfg));
    let (run, schedule, mut built) = run_chaos_once(seed, stack, cfg, &mut tel);
    let tel = tel.expect("telemetry preserved");
    // When the config profiled the run, the bundle carries the perf
    // report and Chrome trace alongside the replay artifacts.
    let perf = built.sim.take_profile().map(|profile| {
        let names = crate::profile::node_names(&built.sim);
        let label = format!("chaos {} seed {}", stack.slug(), seed);
        PerfReport::new(profile, label, names)
    });
    let sim = &built.sim;
    let name_of = |n: NodeId| sim.node_name(n).to_string();

    let meta = Json::obj(vec![
        ("kind", Json::str("chaos")),
        ("stack", Json::str(stack.slug())),
        ("seed", Json::UInt(seed)),
        ("digest", Json::UInt(run.digest)),
        ("faults", Json::UInt(run.faults as u64)),
        ("loops", Json::UInt(run.loops as u64)),
        ("black_holes", Json::UInt(run.black_holes as u64)),
        ("unreachable_pairs", Json::UInt(run.unreachable_pairs as u64)),
        ("repair_loops", Json::UInt(run.repair_loops as u64)),
        ("window_blackholed", Json::UInt(run.window_blackholed)),
        ("window_repaired", Json::UInt(run.window_repaired)),
        ("converged", Json::Bool(run.converged)),
        ("violations", Json::UInt(run.violations() as u64)),
        ("samples", Json::UInt(tel.samples_taken())),
        ("heal_at_ns", Json::UInt(cfg.heal_at())),
        ("end_ns", Json::UInt(cfg.end_at())),
    ]);
    let mut b = TraceBundle::new(meta);

    let mut sched = String::new();
    for e in &schedule.events {
        sched.push_str(
            &Json::obj(vec![
                ("at", Json::UInt(e.at)),
                ("node", Json::str(name_of(NodeId(e.node as u32)))),
                ("node_id", Json::UInt(e.node as u64)),
                ("port", Json::UInt(e.port as u64)),
                ("up", Json::Bool(e.up)),
            ])
            .render(),
        );
        sched.push('\n');
    }
    b.add_file("schedule.jsonl", sched);
    b.add_file("spans.jsonl", spans_jsonl(sim.trace(), name_of));
    b.add_file("series.jsonl", series_jsonl(tel.registry(), |i| name_of(NodeId(i))));
    b.add_file("hists.jsonl", hists_jsonl(&tel));
    b.add_file("capture.txt", capture_dump(sim, cfg.warmup, cfg.end_at(), 200));
    if let Some(report) = &perf {
        b.add_file("perf_report.json", report.to_json().render() + "\n");
        b.add_file("trace.chrome.json", report.to_chrome_trace());
    }
    (run, b)
}

/// Digest of everything observable about a finished run: the full frame
/// trace plus the engine's global counters. Two runs of the same seed
/// must produce the same digest bit-for-bit.
///
/// Each record contributes its `Debug` text followed by `0xff`, which is
/// what hashing that text as a `str` feeds the hasher. SipHash's `write`
/// is streaming, so handing it many records per call in one buffer gives
/// the same digest as hashing them one `String` at a time.
pub fn trace_digest(sim: &dcn_sim::Sim) -> u64 {
    const CHUNK: usize = 4096;
    let mut h = DefaultHasher::new();
    sim.events_processed().hash(&mut h);
    sim.frames_delivered().hash(&mut h);
    sim.frames_corrupted().hash(&mut h);
    sim.frames_lost_to_impairment().hash(&mut h);
    let mut buf = Vec::with_capacity(CHUNK + 256);
    for ev in sim.trace().events() {
        ev.write_debug_bytes(&mut buf);
        buf.push(0xff);
        if buf.len() >= CHUNK {
            h.write(&buf);
            buf.clear();
        }
    }
    h.write(&buf);
    h.finish()
}

/// Cross-pod background flows for the loss-window measurement: pair the
/// first server of each ToR in the first pod with one in the last pod
/// and run them through the fault window. With these in place the
/// per-router `blackholed_in_window` / `locally_repaired` counters
/// measure real transit packets, so an on-vs-off comparison quantifies
/// the loss window local fast reroute closes.
fn chaos_senders(fabric: &Fabric, addr: &Addressing, cfg: &ChaosConfig) -> Vec<(usize, SendSpec)> {
    if cfg.traffic_pairs == 0 {
        return Vec::new();
    }
    // First server (idx 0) of every ToR, keyed by pod:
    // (tor node, server node) pairs.
    let mut by_pod: std::collections::BTreeMap<usize, Vec<(usize, usize)>> =
        std::collections::BTreeMap::new();
    for (n, node) in fabric.nodes.iter().enumerate() {
        if let Role::Server { pod, tor_idx, idx: 0 } = node.role {
            by_pod.entry(pod).or_default().push((fabric.tor(pod, tor_idx), n));
        }
    }
    let first = by_pod.keys().next().copied().unwrap_or(0);
    let last = by_pod.keys().next_back().copied().unwrap_or(0);
    let (src_list, dst_list) = (by_pod[&first].clone(), by_pod[&last].clone());
    let mut senders = Vec::new();
    for k in 0..cfg.traffic_pairs {
        let (_, sender_node) = src_list[k % src_list.len()];
        let (dst_tor, _) = dst_list[k % dst_list.len()];
        let dst_ip = addr.server_addr(dst_tor, 0).expect("server address");
        senders.push((
            sender_node,
            SendSpec {
                // Distinct source ports spread the pairs across ECMP paths.
                src_port: 7000 + k as u16,
                ..SendSpec::new(dst_ip, cfg.warmup, cfg.heal_at())
            },
        ));
    }
    senders
}

/// The plain data-plane pick at `cur` toward `dst_ip`, mirroring each
/// stack's selection exactly. The `up` closure supplies externally
/// observed interface state; BGP ignores it by design (its FIB carries
/// no liveness mask — exactly why its off-mode loss window exists).
fn data_pick(
    built: &BuiltSim,
    cur: usize,
    dst_ip: IpAddr4,
    hash: u64,
    up: &dyn Fn(usize, PortId) -> bool,
) -> Option<PortId> {
    match built.stack {
        Stack::Mrmtp => {
            let root = dst_ip.third_octet();
            built.mrmtp(cur).forwarding_port(root, (hash & 0xFFFF) as u16, |p| up(cur, p))
        }
        Stack::BgpEcmp | Stack::BgpEcmpBfd => {
            built.bgp(cur).rib().lookup(dst_ip).and_then(|(_, members)| {
                if members.is_empty() {
                    None
                } else {
                    Some(members[ecmp_index(hash, members.len())].peer_port)
                }
            })
        }
    }
}

/// The repair-stage pick at `cur`: surviving plain candidates first
/// (MR-MTP's masked reference set, BGP's surviving ECMP members), then
/// the precomputed backups, avoiding the arrival port unless it is the
/// only survivor — mirroring both `lookup_repair` implementations.
fn repair_pick(
    built: &BuiltSim,
    cur: usize,
    dst_ip: IpAddr4,
    hash: u64,
    up: &dyn Fn(usize, PortId) -> bool,
    arrival: Option<PortId>,
) -> Option<PortId> {
    let spread = |ports: Vec<PortId>, h: u64| -> Option<PortId> {
        if ports.is_empty() {
            return None;
        }
        let keep: Vec<PortId> = ports.iter().copied().filter(|&p| Some(p) != arrival).collect();
        let set = if keep.is_empty() { ports } else { keep };
        Some(set[ecmp_index(h, set.len())])
    };
    match built.stack {
        Stack::Mrmtp => {
            let root = dst_ip.third_octet();
            let f16 = hash & 0xFFFF;
            let r = built.mrmtp(cur);
            let plain = r.forwarding_candidates(root, |p| up(cur, p));
            if !plain.is_empty() {
                return Some(plain[ecmp_index(f16, plain.len())]);
            }
            spread(r.repair_candidates(root, |p| up(cur, p)), f16)
        }
        Stack::BgpEcmp | Stack::BgpEcmpBfd => {
            let rib = built.bgp(cur).rib();
            let (prefix, members) = rib.lookup(dst_ip)?;
            let survivors: Vec<PortId> =
                members.iter().map(|e| e.peer_port).filter(|&p| up(cur, p)).collect();
            if let Some(p) = spread(survivors, hash) {
                return Some(p);
            }
            spread(rib.backup_members(prefix).into_iter().filter(|&p| up(cur, p)).collect(), hash)
        }
    }
}

/// The loop-guard invariant for local fast reroute: for every ToR pair ×
/// flow sample, and for every router hop F on the healthy path, kill
/// every plain next-hop F has toward the destination, let F take its one
/// in-data-plane repair, and continue with plain forwarding only — the
/// wire semantics, where a repaired packet is never repaired again and a
/// second dead egress drops it. Any node revisit under these rules is a
/// repair loop. Returns the violation count; honest drops (empty backup
/// set, repaired packet back at the dead hop) are not violations.
fn check_repair_loops(built: &BuiltSim, cfg: &ChaosConfig) -> usize {
    let fabric = &built.fabric;
    let tors: Vec<usize> = fabric
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| matches!(n.role, Role::Tor { .. }))
        .map(|(i, _)| i)
        .collect();

    let mut loops = 0;
    for &src in &tors {
        for &dst in &tors {
            if src == dst {
                continue;
            }
            for flow in 0..cfg.flows_per_pair {
                let Some(path) = plain_path(built, src, dst, flow as u16) else {
                    continue;
                };
                for &fx_node in &path {
                    let dead = plain_next_hops(built, fx_node, dst);
                    if dead.is_empty() {
                        continue;
                    }
                    if matches!(
                        walk_repair(built, src, dst, flow as u16, fx_node, &dead),
                        WalkOutcome::Loop
                    ) {
                        loops += 1;
                    }
                }
            }
        }
    }
    loops
}

/// The router hops a packet of this flow visits from `src` to `dst` on
/// the healthy (post-heal) fabric, destination excluded. `None` when the
/// plain walk does not deliver (already flagged by the base invariants).
fn plain_path(built: &BuiltSim, src: usize, dst: usize, flow: u16) -> Option<Vec<usize>> {
    let sim = &built.sim;
    let src_ip = built.addr.server_addr(src, 0)?;
    let dst_ip = built.addr.server_addr(dst, 0)?;
    let hash = flow_hash(src_ip, dst_ip, IPPROTO_UDP, 1000 + flow, 5000);
    let up = |n: usize, p: PortId| sim.port_up(NodeId(n as u32), p);

    let mut path = Vec::new();
    let mut visited = HashSet::new();
    let mut cur = src;
    loop {
        if cur == dst {
            return Some(path);
        }
        if !visited.insert(cur) {
            return None;
        }
        path.push(cur);
        let port = data_pick(built, cur, dst_ip, hash, &up)?;
        let peer = sim.peer_of(NodeId(cur as u32), port)?;
        cur = peer.node.0 as usize;
    }
}

/// Every plain next-hop port `node` could use toward `dst` on the
/// healthy fabric — the set the repair walk pretends just died.
fn plain_next_hops(built: &BuiltSim, node: usize, dst: usize) -> HashSet<PortId> {
    let sim = &built.sim;
    let Some(dst_ip) = built.addr.server_addr(dst, 0) else {
        return HashSet::new();
    };
    match built.stack {
        Stack::Mrmtp => built
            .mrmtp(node)
            .forwarding_candidates(dst_ip.third_octet(), |p| sim.port_up(NodeId(node as u32), p))
            .into_iter()
            .collect(),
        Stack::BgpEcmp | Stack::BgpEcmpBfd => built
            .bgp(node)
            .rib()
            .lookup(dst_ip)
            .map(|(_, m)| m.iter().map(|e| e.peer_port).collect())
            .unwrap_or_default(),
    }
}

/// Walk `src` → `dst` with every plain next-hop at `fx_node` dead,
/// applying the wire's repair semantics: one repair at that hop, plain
/// forwarding (and honest drops) everywhere after.
fn walk_repair(
    built: &BuiltSim,
    src: usize,
    dst: usize,
    flow: u16,
    fx_node: usize,
    fx_dead: &HashSet<PortId>,
) -> WalkOutcome {
    let sim = &built.sim;
    let Some(src_ip) = built.addr.server_addr(src, 0) else {
        return WalkOutcome::BlackHole;
    };
    let Some(dst_ip) = built.addr.server_addr(dst, 0) else {
        return WalkOutcome::BlackHole;
    };
    let hash = flow_hash(src_ip, dst_ip, IPPROTO_UDP, 1000 + flow, 5000);
    let up = |n: usize, p: PortId| {
        sim.port_up(NodeId(n as u32), p) && !(n == fx_node && fx_dead.contains(&p))
    };

    // The walk is deterministic given (node, repaired-flag): a genuine
    // forwarding loop revisits the same state. A plain node revisit is
    // NOT enough — a repaired packet legitimately bounces back through
    // its arrival path and terminates at the dead hop (an honest drop).
    let mut visited = HashSet::new();
    let mut cur = src;
    let mut arrival: Option<PortId> = None;
    let mut repaired = false;
    loop {
        if cur == dst {
            return WalkOutcome::Delivered;
        }
        if !visited.insert((cur, repaired)) {
            return WalkOutcome::Loop;
        }
        let port = if cur == fx_node {
            if repaired {
                // The loop guard: a packet is repaired at most once, so
                // meeting the dead egress again drops it on the wire.
                return WalkOutcome::BlackHole;
            }
            repaired = true;
            match repair_pick(built, cur, dst_ip, hash, &up, arrival) {
                Some(p) => p,
                None => return WalkOutcome::BlackHole,
            }
        } else {
            match data_pick(built, cur, dst_ip, hash, &up) {
                Some(p) => p,
                None => return WalkOutcome::BlackHole,
            }
        };
        let Some(peer) = sim.peer_of(NodeId(cur as u32), port) else {
            return WalkOutcome::BlackHole;
        };
        arrival = Some(peer.port);
        cur = peer.node.0 as usize;
    }
}

/// Walk the data plane for every ToR pair × flow sample and count loop /
/// black-hole violations. Returns (loops, black_holes, unreachable).
fn check_forwarding_invariants(built: &BuiltSim, cfg: &ChaosConfig) -> (usize, usize, usize) {
    let fabric = &built.fabric;
    let tors: Vec<usize> = fabric
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| matches!(n.role, Role::Tor { .. }))
        .map(|(i, _)| i)
        .collect();

    let mut loops = 0;
    let mut black_holes = 0;
    let mut unreachable = 0;
    for &src in &tors {
        let reachable = physically_reachable(built, src);
        for &dst in &tors {
            if src == dst {
                continue;
            }
            if !reachable.contains(&dst) {
                unreachable += 1;
                continue;
            }
            for flow in 0..cfg.flows_per_pair {
                match walk(built, src, dst, flow as u16) {
                    WalkOutcome::Delivered => {}
                    WalkOutcome::Loop => loops += 1,
                    WalkOutcome::BlackHole => black_holes += 1,
                }
            }
        }
    }
    (loops, black_holes, unreachable)
}

enum WalkOutcome {
    Delivered,
    Loop,
    BlackHole,
}

/// Follow the forwarding decision a packet of the given flow sample
/// would experience from `src` ToR to `dst` ToR, mirroring each stack's
/// data-plane selection exactly.
fn walk(built: &BuiltSim, src: usize, dst: usize, flow: u16) -> WalkOutcome {
    let sim = &built.sim;
    let src_ip = built.addr.server_addr(src, 0).expect("src server addr");
    let dst_ip = built.addr.server_addr(dst, 0).expect("dst server addr");
    // Vary the UDP source port per flow sample, exactly like a host
    // would spread flows across ECMP paths.
    let hash = flow_hash(src_ip, dst_ip, IPPROTO_UDP, 1000 + flow, 5000);

    let mut visited = HashSet::new();
    let mut cur = src;
    loop {
        if cur == dst {
            return WalkOutcome::Delivered;
        }
        if !visited.insert(cur) {
            return WalkOutcome::Loop;
        }
        let next_port = match built.stack {
            Stack::Mrmtp => {
                // Mirrors `on_host_ip`/`on_data`: destination root is the
                // third address octet; the data plane hashes the low 16
                // bits of the flow hash over the candidate set.
                let root = dst_ip.third_octet();
                let f16 = (hash & 0xFFFF) as u16;
                built
                    .mrmtp(cur)
                    .forwarding_port(root, f16, |p| sim.port_up(NodeId(cur as u32), p))
            }
            Stack::BgpEcmp | Stack::BgpEcmpBfd => {
                // Mirrors `forward_data`: LPM lookup, then ECMP over the
                // member list with the full flow hash.
                built.bgp(cur).rib().lookup(dst_ip).and_then(|(_, members)| {
                    if members.is_empty() {
                        None
                    } else {
                        Some(members[ecmp_index(hash, members.len())].peer_port)
                    }
                })
            }
        };
        let Some(port) = next_port else {
            return WalkOutcome::BlackHole;
        };
        let Some(peer) = sim.peer_of(NodeId(cur as u32), port) else {
            return WalkOutcome::BlackHole;
        };
        cur = peer.node.0 as usize;
    }
}

/// BFS over admin-up router-to-router links from `src`: the set of
/// routers a packet could physically reach. A walk failure toward an
/// unreachable destination is a partition, not a black hole.
fn physically_reachable(built: &BuiltSim, src: usize) -> HashSet<usize> {
    let sim = &built.sim;
    let fabric = &built.fabric;
    let mut seen = HashSet::new();
    let mut queue = VecDeque::new();
    seen.insert(src);
    queue.push_back(src);
    while let Some(n) = queue.pop_front() {
        let nid = NodeId(n as u32);
        for p in 0..sim.port_count(nid) {
            let port = PortId(p as u16);
            let Some(peer) = sim.peer_of(nid, port) else {
                continue;
            };
            let m = peer.node.0 as usize;
            if !fabric.nodes[m].role.is_router() {
                continue;
            }
            if sim.port_up(nid, port) && sim.port_up(peer.node, peer.port) && seen.insert(m) {
                queue.push_back(m);
            }
        }
    }
    seen
}

/// Configuration of a whole campaign: a seed range fanned over worker
/// threads for a list of stacks.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Number of seeds (seed values are `base_seed..base_seed + seeds`).
    pub seeds: u64,
    /// First seed value.
    pub base_seed: u64,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Stacks under test.
    pub stacks: Vec<Stack>,
    /// Per-run tunables.
    pub chaos: ChaosConfig,
    /// Re-run every (seed, stack) pair and compare trace digests.
    pub check_determinism: bool,
    /// When set, any run that violates an invariant is re-run with
    /// telemetry attached and a replay bundle is written under this
    /// directory (`chaos-<stack>-seed<N>/`).
    pub telemetry_out: Option<PathBuf>,
    /// When set, every run executes with the engine profiler on (digests
    /// unchanged) and writes `perf_report.json` + `trace.chrome.json`
    /// under `<dir>/chaos-<stack>-seed<N>-perf/`.
    pub profile_out: Option<PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seeds: 64,
            base_seed: 1,
            threads: 0,
            stacks: vec![Stack::Mrmtp, Stack::BgpEcmp],
            chaos: ChaosConfig::default(),
            check_determinism: true,
            telemetry_out: None,
            profile_out: None,
        }
    }
}

/// All runs of a campaign.
#[derive(Clone, Debug, Default)]
pub struct CampaignResult {
    pub runs: Vec<ChaosRun>,
}

impl CampaignResult {
    /// Total invariant violations across every run.
    pub fn violations(&self) -> usize {
        self.runs.iter().map(ChaosRun::violations).sum()
    }
}

/// Run the campaign: every (stack, seed) pair is an independent job
/// fanned out over worker threads. With `check_determinism`, each job
/// runs its simulation twice and compares digests.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignResult {
    let mut jobs = Vec::new();
    for &stack in &cfg.stacks {
        for s in 0..cfg.seeds {
            jobs.push((stack, cfg.base_seed + s));
        }
    }
    let chaos = cfg.chaos.clone();
    let check = cfg.check_determinism;
    let out = cfg.telemetry_out.clone();
    let profile_out = cfg.profile_out.clone();
    let runs = fan_out(jobs, cfg.threads, move |(stack, seed)| {
        let mut run = if let Some(dir) = &profile_out {
            let (run, report) = run_chaos_profiled(seed, stack, &chaos);
            let sub = dir.join(format!("chaos-{}-seed{}-perf", stack.slug(), seed));
            if let Err(e) = crate::profile::write_profile_artifacts(&report, &sub) {
                eprintln!("chaos: perf artifacts to {} failed: {e}", sub.display());
            }
            run
        } else {
            run_chaos(seed, stack, &chaos)
        };
        if check {
            let again = run_chaos(seed, stack, &chaos);
            run.deterministic = run.digest == again.digest;
        }
        if run.violations() > 0 {
            if let Some(dir) = &out {
                let (rerun, bundle) = chaos_bundle(seed, stack, &chaos, TelemetryConfig::default());
                // The instrumented re-run must reproduce the original
                // digest; a mismatch is itself a determinism violation.
                run.deterministic &= rerun.digest == run.digest;
                let sub = dir.join(format!("chaos-{}-seed{}", stack.slug(), seed));
                match bundle.write(&sub) {
                    Ok(_) => eprintln!("chaos: replay bundle written to {}", sub.display()),
                    Err(e) => eprintln!("chaos: bundle write to {} failed: {e}", sub.display()),
                }
            }
        }
        run
    });
    CampaignResult { runs }
}

/// Per-stack summary table of a campaign: fault totals, invariant
/// violations, and the post-heal re-convergence distribution.
pub fn campaign_summary(cfg: &CampaignConfig, result: &CampaignResult) -> Figure {
    let mut rows = Vec::new();
    for &stack in &cfg.stacks {
        let runs: Vec<&ChaosRun> = result.runs.iter().filter(|r| r.stack == stack).collect();
        if runs.is_empty() {
            continue;
        }
        let conv: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.convergence)
            .map(|d| d as f64 / MILLIS as f64)
            .collect();
        let (min, mean, max) = if conv.is_empty() {
            (0.0, 0.0, 0.0)
        } else {
            let mean = conv.iter().sum::<f64>() / conv.len() as f64;
            (
                conv.iter().cloned().fold(f64::INFINITY, f64::min),
                mean,
                conv.iter().cloned().fold(0.0, f64::max),
            )
        };
        rows.push(vec![
            stack.label().to_string(),
            runs.len().to_string(),
            runs.iter().map(|r| r.faults).sum::<usize>().to_string(),
            runs.iter().map(|r| r.loops).sum::<usize>().to_string(),
            runs.iter().map(|r| r.black_holes).sum::<usize>().to_string(),
            runs.iter().filter(|r| !r.converged).count().to_string(),
            runs.iter().filter(|r| !r.deterministic).count().to_string(),
            format!("{min:.1}"),
            format!("{mean:.1}"),
            format!("{max:.1}"),
            runs.iter().map(|r| r.malformed_dropped).sum::<u64>().to_string(),
            runs.iter().map(|r| r.frames_corrupted).sum::<u64>().to_string(),
            runs.iter().map(|r| r.frames_lost).sum::<u64>().to_string(),
        ]);
    }
    Figure {
        title: format!(
            "Chaos campaign: {} seeds/stack, {} flaps + {} crashes + k={} burst, \
             loss {} ppm / corrupt {} ppm / jitter {} us",
            cfg.seeds,
            cfg.chaos.flaps,
            cfg.chaos.crashes,
            cfg.chaos.k_concurrent,
            cfg.chaos.impairment.loss_ppm,
            cfg.chaos.impairment.corrupt_ppm,
            cfg.chaos.impairment.jitter / MICROS,
        ),
        headers: vec![
            "stack",
            "seeds",
            "faults",
            "loops",
            "blackholes",
            "unconverged",
            "non-det",
            "reconv-min-ms",
            "reconv-mean-ms",
            "reconv-max-ms",
            "malformed-drop",
            "corrupted",
            "lost",
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ChaosConfig {
        ChaosConfig {
            flaps: 3,
            crashes: 1,
            k_concurrent: 2,
            window: 3 * SECONDS,
            flows_per_pair: 2,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn schedule_is_deterministic_and_fully_healed() {
        let cfg = quick_cfg();
        let fabric = Fabric::build(cfg.params);
        let a = FaultSchedule::generate(7, &fabric, &cfg);
        let b = FaultSchedule::generate(7, &fabric, &cfg);
        assert_eq!(a.events, b.events);
        assert!(a.fault_count() > 0);

        // Replay: every interface ends up.
        let mut state = std::collections::HashMap::new();
        for e in &a.events {
            state.insert((e.node, e.port), e.up);
            assert!(e.at >= cfg.warmup && e.at <= cfg.heal_at());
        }
        assert!(state.values().all(|&up| up), "schedule leaves a port down");
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = quick_cfg();
        let fabric = Fabric::build(cfg.params);
        let a = FaultSchedule::generate(1, &fabric, &cfg);
        let b = FaultSchedule::generate(2, &fabric, &cfg);
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn chaos_run_mrmtp_holds_invariants() {
        let r = run_chaos(11, Stack::Mrmtp, &quick_cfg());
        assert_eq!(r.loops, 0, "forwarding loop detected");
        assert_eq!(r.black_holes, 0, "black hole detected");
        assert_eq!(r.unreachable_pairs, 0);
        assert!(r.converged, "re-convergence exceeded bound: {:?}", r.convergence);
    }

    #[test]
    fn chaos_run_bgp_holds_invariants() {
        let r = run_chaos(11, Stack::BgpEcmp, &quick_cfg());
        assert_eq!(r.loops, 0, "forwarding loop detected");
        assert_eq!(r.black_holes, 0, "black hole detected");
        assert_eq!(r.unreachable_pairs, 0);
        assert!(r.converged, "re-convergence exceeded bound: {:?}", r.convergence);
    }

    #[test]
    fn local_repair_shrinks_the_chaos_loss_window() {
        // Same seed, same schedule, background cross-pod traffic through
        // the fault window; only the repair knob differs. Repair must
        // engage, must not add blackholes, and must hold the repair-loop
        // invariant on both stacks.
        let off_cfg = ChaosConfig { traffic_pairs: 2, ..quick_cfg() };
        let on_cfg = ChaosConfig { local_repair: true, ..off_cfg.clone() };
        for stack in [Stack::Mrmtp, Stack::BgpEcmp] {
            let off = run_chaos(11, stack, &off_cfg);
            let on = run_chaos(11, stack, &on_cfg);
            assert_eq!(on.repair_loops, 0, "repair loop on {}", stack.label());
            assert_eq!(on.loops, 0, "post-heal loop on {}", stack.label());
            assert!(
                on.window_blackholed <= off.window_blackholed,
                "{}: repair widened the loss window ({} on vs {} off)",
                stack.label(),
                on.window_blackholed,
                off.window_blackholed,
            );
            assert_eq!(off.window_repaired, 0, "repair engaged with the knob off");
            // Chaos is where BGP repair provably fires: impairment races
            // hand its FIB a locally-dead egress, which never happens in
            // the scripted TC runs (carrier loss tears the session and
            // rebuilds the FIB in the same event).
            assert!(on.window_repaired > 0, "repair never engaged on {}", stack.label());
        }
    }

    #[test]
    fn local_repair_runs_are_deterministic() {
        let cfg = ChaosConfig { local_repair: true, traffic_pairs: 2, ..quick_cfg() };
        for stack in [Stack::Mrmtp, Stack::BgpEcmp] {
            let a = run_chaos(5, stack, &cfg);
            let b = run_chaos(5, stack, &cfg);
            assert_eq!(a.digest, b.digest, "non-deterministic with repair on {}", stack.label());
            assert_eq!(a.repair_loops, 0);
        }
    }

    #[test]
    fn same_seed_same_digest() {
        let cfg = quick_cfg();
        let a = run_chaos(3, Stack::Mrmtp, &cfg);
        let b = run_chaos(3, Stack::Mrmtp, &cfg);
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn telemetry_does_not_perturb_chaos_digest() {
        // The determinism contract: attaching the sampler must leave the
        // per-seed digest bit-identical on every stack.
        let cfg = quick_cfg();
        for stack in [Stack::Mrmtp, Stack::BgpEcmp] {
            let bare = run_chaos(5, stack, &cfg);
            let (instrumented, bundle) = chaos_bundle(5, stack, &cfg, TelemetryConfig::default());
            assert_eq!(
                bare.digest, instrumented.digest,
                "telemetry perturbed the event stream on {}",
                stack.label()
            );
            let names: Vec<&str> = bundle.files().iter().map(|(n, _)| n.as_str()).collect();
            for want in ["schedule.jsonl", "spans.jsonl", "series.jsonl", "capture.txt"] {
                assert!(names.contains(&want), "missing {want} in {names:?}");
            }
            assert_eq!(bundle.meta().get("digest").unwrap().as_u64(), Some(bare.digest));
            assert!(bundle.meta().get("samples").unwrap().as_u64().unwrap() > 0);
            // Every schedule line parses back and carries a node name;
            // down transitions match the run's fault count.
            let sched = &bundle.files()[0].1;
            let mut downs = 0;
            for line in sched.lines() {
                let j = Json::parse(line).expect("valid JSON line");
                assert!(j.get("node").unwrap().as_str().is_some());
                downs += usize::from(j.get("up").unwrap().as_bool() == Some(false));
            }
            assert_eq!(downs, instrumented.faults);
        }
    }

    #[test]
    fn small_campaign_summary_renders() {
        let cfg = CampaignConfig {
            seeds: 2,
            check_determinism: false,
            chaos: quick_cfg(),
            ..CampaignConfig::default()
        };
        let result = run_campaign(&cfg);
        assert_eq!(result.runs.len(), 4);
        assert_eq!(result.violations(), 0);
        let fig = campaign_summary(&cfg, &result);
        assert!(fig.render().contains("stack"));
    }
}

/// The trace digest's streaming encoder against the definition it
/// replaced — one `format!` of each record, hashed as a `str` — on every
/// paper failure case for every stack and on an impaired chaos run.
#[cfg(test)]
mod digest_oracle {
    use super::*;
    use crate::runspec::RunSpec;
    use dcn_topology::FailureCase;

    fn format_digest(sim: &dcn_sim::Sim) -> u64 {
        let mut h = DefaultHasher::new();
        sim.events_processed().hash(&mut h);
        sim.frames_delivered().hash(&mut h);
        sim.frames_corrupted().hash(&mut h);
        sim.frames_lost_to_impairment().hash(&mut h);
        for ev in sim.trace().events() {
            format!("{ev:?}").hash(&mut h);
        }
        h.finish()
    }

    #[test]
    fn trace_digest_matches_format_definition_on_paper_cases() {
        for stack in [Stack::Mrmtp, Stack::BgpEcmp, Stack::BgpEcmpBfd] {
            for tc in [FailureCase::Tc1, FailureCase::Tc2, FailureCase::Tc3, FailureCase::Tc4] {
                let (_, built) = crate::scenario::run_with_sim(
                    RunSpec::new(ClosParams::two_pod(), stack).failing(tc),
                );
                assert!(!built.sim.trace().is_empty());
                assert_eq!(
                    trace_digest(&built.sim),
                    format_digest(&built.sim),
                    "{} {tc:?}",
                    stack.label()
                );
            }
        }
    }

    #[test]
    fn trace_digest_matches_format_definition_under_impairment() {
        let cfg = ChaosConfig { flaps: 3, window: 3 * SECONDS, ..ChaosConfig::default() };
        let (run, _, built) = run_chaos_once(5, Stack::Mrmtp, &cfg, &mut None);
        assert!(built.sim.frames_corrupted() > 0 && built.sim.frames_lost_to_impairment() > 0);
        assert_eq!(run.digest, format_digest(&built.sim));
    }
}

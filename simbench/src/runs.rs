//! One `RunSpec` taken apart into the public calls that
//! `scenario::run_with_sim` and `campaign::run_one` make, each timed from
//! outside, plus the per-run correctness checks.
//!
//! [`decompose`] must reproduce `run_one`'s record exactly (same metrics,
//! same trace digest); [`same_record`] is the reconciliation test.

use std::time::Instant;

use dcn_experiments::campaign::store::RunRecord;
use dcn_experiments::fabric::build_fabric_sim_cfg;
use dcn_experiments::flows::pin_flow;
use dcn_experiments::{BuiltSim, RunSpec, ScenarioResult, Stack, TrafficDir};
use dcn_metrics::{
    blast_radius, class_breakdown, control_overhead_bytes, convergence_time, keepalive_stats,
    update_frames,
};
use dcn_sim::time::{as_millis_f64, secs};
use dcn_sim::{alloc_track, EngineProfile, SimConfig};
use dcn_topology::{Addressing, Fabric, FailureCase, Role};
use dcn_traffic::{SendSpec, TrafficHost};

/// Host nanoseconds spent in each layer of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Spans {
    /// `Fabric::build` + addressing + monitored-flow pinning.
    pub topology: u64,
    /// `build_fabric_sim_cfg`: protocol instances and the engine.
    pub fabric: u64,
    /// `Sim::run_until` to the end of warm-up.
    pub warmup: u64,
    /// Failure injection and `Sim::run_until` to the end of the run.
    pub measure: u64,
    /// Paper metrics from the trace (`dcn-metrics`).
    pub metrics: u64,
    /// `chaos::trace_digest`.
    pub digest: u64,
    /// `dcn_metrics::storyboard::build`.
    pub storyboard: u64,
}

/// Deterministic counters of one run (identical on every repetition).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub events: u64,
    pub warmup_events: u64,
    pub frames: u64,
    pub sim_ns: u64,
    pub trace_records: u64,
    pub routers: RouterTotals,
    /// Profiled events on top-tier spines (0 unless profiled).
    pub top_spine: u64,
    /// Allocations inside forwarding scopes and the forwards they cover
    /// (zero unless the counting allocator is installed). The counters
    /// are process-wide, so these hold only when runs execute one at a
    /// time, as in the traced pass.
    pub fwd_allocs: u64,
    pub fwd_scoped: u64,
    /// Monitored-flow packets sent and delivered (distinct).
    pub flow_sent: u64,
    pub flow_delivered: u64,
}

/// One decomposed run.
pub struct Decomposed {
    /// The record `run_one` would produce (`wall_ms` 0, no stall).
    pub record: RunRecord,
    pub result: ScenarioResult,
    pub spans: Spans,
    pub counts: Counts,
    pub profile: Option<EngineProfile>,
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn failure_slug(tc: Option<FailureCase>) -> String {
    tc.map_or_else(|| "none".into(), |tc| tc.label().to_ascii_lowercase())
}

fn traffic_slug(dir: TrafficDir) -> &'static str {
    match dir {
        TrafficDir::None => "none",
        TrafficDir::NearToFar => "near",
        TrafficDir::FarToNear => "far",
    }
}

/// The monitored flow exactly as the scenario runner pins it: returns
/// (sender node, receiver node, sender list).
fn monitored_flow(fabric: &Fabric, rs: &RunSpec) -> (usize, usize, Vec<(usize, SendSpec)>) {
    let p = rs.params;
    let addr = Addressing::new(fabric);
    let near_ip = addr.server_addr(fabric.tor(0, 0), 0).expect("near server");
    let far_ip = addr
        .server_addr(fabric.tor(1, p.tors_per_pod - 1), 0)
        .expect("far server");
    let near = fabric.server(0, 0, 0);
    let far = fabric.server(1, p.tors_per_pod - 1, 0);
    let (src, dst, src_ip, dst_ip) = match rs.traffic {
        TrafficDir::None => return (0, 0, Vec::new()),
        TrafficDir::NearToFar => (near, far, near_ip, far_ip),
        TrafficDir::FarToNear => (far, near, far_ip, near_ip),
    };
    let (sp, dp) = pin_flow(src_ip, dst_ip, &[p.spines_per_pod, p.uplinks_per_spine]);
    let mut spec = SendSpec::new(dst_ip, rs.timing.traffic_start(), rs.timing.traffic_stop());
    spec.src_port = sp;
    spec.dst_port = dp;
    if let Some(interval) = rs.traffic_interval {
        spec.interval = interval;
    }
    (src, dst, vec![(src, spec)])
}

/// Build the simulation `rs` describes, as the scenario runner does
/// (`trace` false only for the trace-cost comparison).
pub fn build(rs: &RunSpec, trace: bool) -> (BuiltSim, usize, usize) {
    let fabric = Fabric::build(rs.params);
    let (src, dst, senders) = monitored_flow(&fabric, rs);
    let cfg = SimConfig {
        trace,
        scheduler: rs.scheduler,
        ..SimConfig::default()
    };
    let built = build_fabric_sim_cfg(fabric, rs.stack, rs.seed, &senders, rs.tuning, cfg);
    (built, src, dst)
}

/// Per-router counters summed over the fabric.
#[derive(Clone, Copy, Debug, Default)]
pub struct RouterTotals {
    pub forwarded: u64,
    pub dropped: u64,
    pub mrmtp_hellos: u64,
    pub mrmtp_updates: u64,
    pub bgp_updates: u64,
    pub bgp_keepalives: u64,
    pub bgp_sessions: u64,
}

pub fn router_totals(built: &BuiltSim) -> RouterTotals {
    let mut t = RouterTotals::default();
    for r in built.fabric.routers() {
        if built.stack == Stack::Mrmtp {
            let s = built.mrmtp(r).stats();
            t.forwarded += s.data_forwarded;
            t.dropped += s.data_dropped;
            t.mrmtp_hellos += s.hellos_sent;
            t.mrmtp_updates += s.updates_sent;
        } else {
            let s = built.bgp(r).stats();
            t.forwarded += s.data_forwarded;
            t.dropped += s.data_dropped;
            t.bgp_updates += s.updates_sent;
            t.bgp_keepalives += s.keepalives_sent;
            t.bgp_sessions += s.sessions_established;
        }
    }
    t
}

/// Profiled events executed on top-tier spines.
pub fn top_spine_events(built: &BuiltSim, profile: &EngineProfile) -> u64 {
    built
        .fabric
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| matches!(n.role, Role::TopSpine { .. }))
        .map(|(i, _)| {
            profile
                .shards
                .iter()
                .map(|s| s.node_events.get(i).copied().unwrap_or(0))
                .sum::<u64>()
        })
        .sum()
}

/// Run `rs` as the sequence of public calls `run_one` makes, timing
/// each layer. With `profile`, the engine profiler records scheduler
/// occupancy and per-node event counts (digest-invariant).
pub fn decompose(rs: &RunSpec, profile: bool) -> Decomposed {
    let rs = rs.with_profile(profile);
    let timing = rs.timing;
    let mut spans = Spans::default();

    let t = Instant::now();
    let fabric = Fabric::build(rs.params);
    let (src, dst, senders) = monitored_flow(&fabric, &rs);
    spans.topology = ns_since(t);

    let t = Instant::now();
    let cfg = SimConfig {
        scheduler: rs.scheduler,
        ..SimConfig::default()
    };
    let mut built = build_fabric_sim_cfg(fabric, rs.stack, rs.seed, &senders, rs.tuning, cfg);
    spans.fabric = ns_since(t);

    alloc_track::reset();
    let t = Instant::now();
    built.sim.run_until(timing.warmup);
    spans.warmup = ns_since(t);
    let warmup_events = built.sim.events_processed();

    let t = Instant::now();
    let failure_at = timing.failure_at();
    if let Some(tc) = rs.failure {
        built.inject_failure(tc, failure_at);
    }
    built.sim.run_until(timing.end());
    spans.measure = ns_since(t);
    let (fwd_allocs, fwd_scoped) = (alloc_track::scoped_allocs(), alloc_track::forwarded());

    let t = Instant::now();
    let trace = built.sim.trace();
    let keepalive = keepalive_stats(trace, timing.warmup.saturating_sub(secs(2)), timing.warmup);
    let (convergence_ms, blast, control, frames) = if rs.failure.is_some() {
        (
            convergence_time(trace, failure_at).map(as_millis_f64),
            blast_radius(trace, failure_at),
            control_overhead_bytes(trace, failure_at, None),
            update_frames(trace, failure_at),
        )
    } else {
        (None, 0, 0, 0)
    };
    let breakdown = class_breakdown(trace, failure_at, None)
        .into_iter()
        .map(|(k, (f, b))| (k, f, b))
        .collect();
    let loss = (rs.traffic != TrafficDir::None).then(|| {
        let sent = built.host(src).sent();
        built
            .sim
            .node_as::<TrafficHost>(built.node(dst))
            .expect("receiver host")
            .report(sent)
    });
    let result = ScenarioResult {
        convergence_ms,
        blast_radius: blast,
        control_bytes: control,
        update_frames: frames,
        loss,
        keepalive,
        breakdown,
    };
    spans.metrics = ns_since(t);

    let t = Instant::now();
    let digest = dcn_experiments::chaos::trace_digest(&built.sim);
    spans.digest = ns_since(t);

    let t = Instant::now();
    let phases = rs
        .failure
        .map(|_| dcn_metrics::storyboard::build(built.sim.trace(), failure_at))
        .and_then(|sb| sb.phases)
        .map(|p| (p.detection_ms, p.propagation_ms, p.quiescence_ms));
    spans.storyboard = ns_since(t);

    let profile = built.sim.take_profile();
    let counts = Counts {
        events: built.sim.events_processed(),
        warmup_events,
        frames: built.sim.frames_delivered(),
        sim_ns: built.sim.now(),
        trace_records: built.sim.trace().len() as u64,
        routers: router_totals(&built),
        top_spine: profile.as_ref().map_or(0, |p| top_spine_events(&built, p)),
        fwd_allocs,
        fwd_scoped,
        flow_sent: result.loss.map_or(0, |l| l.sent),
        flow_delivered: result.loss.map_or(0, |l| l.unique),
    };
    let record = RunRecord {
        key: rs.key(),
        key_hash: rs.key_hash(),
        pods: rs.params.pods as u64,
        stack: rs.stack.slug().to_string(),
        failure: failure_slug(rs.failure),
        traffic: traffic_slug(rs.traffic).to_string(),
        seed: rs.seed,
        local_repair: rs.tuning.local_repair,
        digest,
        convergence_ms: result.convergence_ms,
        blast_radius: result.blast_radius as u64,
        control_bytes: result.control_bytes,
        update_frames: result.update_frames,
        packets_lost: result.loss.map(|l| l.lost()),
        keepalive_frames: result.keepalive.frames,
        phases,
        stall: None,
        wall_ms: 0.0,
    };
    Decomposed {
        record,
        result,
        spans,
        counts,
        profile,
    }
}

/// Host nanoseconds of `rs` built and run with tracing off (warm-up and
/// measurement only), and its event count — the trace-cost baseline.
pub fn untraced_run_ns(rs: &RunSpec) -> (u64, u64) {
    let (mut built, _, _) = build(rs, false);
    let t = Instant::now();
    built.sim.run_until(rs.timing.warmup);
    if let Some(tc) = rs.failure {
        built.inject_failure(tc, rs.timing.failure_at());
    }
    built.sim.run_until(rs.timing.end());
    (ns_since(t), built.sim.events_processed())
}

/// Do two records describe the same run? Host-side fields (wall time,
/// stall breakdown) are ignored.
pub fn same_record(a: &RunRecord, b: &RunRecord) -> bool {
    let strip = |r: &RunRecord| RunRecord {
        stall: None,
        wall_ms: 0.0,
        ..r.clone()
    };
    strip(a) == strip(b)
}

/// The per-run subset of the paper-shape bands (`tests/paper_shape.rs`):
/// convergence is present, TC2/TC4 converge in under 50 ms, the TC1 band
/// matches the stack's detection timer, blast radius is at least 1, the
/// keep-alive frame length matches the stack, and the monitored flow
/// sent packets. Returns every violated band.
pub fn paper_bands(rs: &RunSpec, r: &ScenarioResult) -> Vec<String> {
    let mut bad = Vec::new();
    match (rs.failure, r.convergence_ms) {
        (None, _) => {}
        (Some(_), None) => bad.push("no convergence".to_string()),
        (Some(tc), Some(c)) => {
            let band = match (tc, rs.stack) {
                (FailureCase::Tc2 | FailureCase::Tc4, _) => 0.0..50.0,
                (FailureCase::Tc1, Stack::Mrmtp) => 40.0..200.0,
                (FailureCase::Tc1, Stack::BgpEcmpBfd) => 200.0..400.0,
                (FailureCase::Tc1, Stack::BgpEcmp) => 1500.0..3200.0,
                _ => 0.0..f64::INFINITY,
            };
            if !band.contains(&c) {
                bad.push(format!("convergence {c} ms outside {band:?}"));
            }
        }
    }
    if rs.failure.is_some() && r.blast_radius < 1 {
        bad.push("blast radius 0".to_string());
    }
    let ka = r.keepalive.avg_frame_len;
    let ka_ok = match rs.stack {
        Stack::Mrmtp => ka == 60.0,
        Stack::BgpEcmp => ka == 85.0,
        Stack::BgpEcmpBfd => (66.0..70.0).contains(&ka),
    };
    if !ka_ok {
        bad.push(format!("keep-alive frame length {ka} B"));
    }
    if rs.traffic != TrafficDir::None && r.loss.is_none_or(|l| l.sent == 0) {
        bad.push("monitored flow sent nothing".to_string());
    }
    bad
}

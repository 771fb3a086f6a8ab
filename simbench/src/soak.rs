//! `forwarding_soak`: a converged 16-PoD fabric per stack (MR-MTP and
//! BGP/ECMP, fast path on, tracing off) carrying paced cross-pod flows
//! through fixed simulated windows with no failure.

use std::hash::{Hash, Hasher};
use std::time::Instant;

use dcn_experiments::fabric::build_fabric_sim_cfg;
use dcn_experiments::{BuiltSim, Stack, StackTuning};
use dcn_sim::time::{Duration, Time, MICROS, MILLIS, SECONDS};
use dcn_sim::{alloc_track, SimConfig};
use dcn_topology::{Addressing, ClosParams, Fabric};
use dcn_traffic::{SendSpec, TrafficHost};

use crate::grid::warmup_growth;
use crate::host::{peak_rss_mib, process_cpu_s, reset_peak_rss};
use crate::runs::{router_totals, top_spine_events};
use crate::stats::{fast, fast_rate, quantile, Attribution, Outcome, Samples, Tally};
use crate::{Size, SETUP_EVERY};

const STACKS: [Stack; 2] = [Stack::Mrmtp, Stack::BgpEcmp];
/// Simulated length of one soak window (one measured operation).
const WINDOW: Duration = 20 * MILLIS;
/// Inter-packet gap of every flow.
const INTERVAL: Duration = 50 * MICROS;
/// Packets a flow may have in flight at a window boundary: the 5-hop
/// cross-pod path takes well under 100 µs, i.e. two 50 µs gaps.
const IN_FLIGHT: u64 = 4;

/// Workload shape.
#[derive(Clone, Copy)]
struct SoakShape {
    pods: usize,
    /// Runs per pass; a run advances every fabric by one window.
    pass_windows: usize,
}

fn shape(size: Size) -> SoakShape {
    match size {
        Size::Full => SoakShape {
            pods: 16,
            pass_windows: 40,
        },
        Size::Smoke => SoakShape {
            pods: 4,
            pass_windows: 2,
        },
    }
}

/// Convergence horizon: BGP needs session establishment plus the table
/// dumps; MR-MTP's trees converge in well under a second.
fn warmup(stack: Stack) -> Time {
    if stack == Stack::Mrmtp {
        2 * SECONDS
    } else {
        6 * SECONDS
    }
}

struct Flow {
    src: usize,
    dst: usize,
    spec: SendSpec,
}

/// One converged fabric carrying the soak flows.
struct Soak {
    built: BuiltSim,
    flows: Vec<Flow>,
    horizon: Time,
    dropped_at_start: u64,
}

/// Host nanoseconds of the set-up layers of one soak simulation.
#[derive(Clone, Copy, Default)]
struct SetupSpans {
    topology: u64,
    fabric: u64,
    warmup: u64,
}

/// Build and converge one soak fabric. Flows run from every first-pod
/// ToR's first server to the mirror server in the last pod.
fn converge(stack: Stack, seed: u64, pods: usize, profile: bool) -> (Soak, SetupSpans) {
    let mut spans = SetupSpans::default();
    let t = Instant::now();
    let params = ClosParams::scaled(pods).expect("even PoD count");
    let fabric = Fabric::build(params);
    let addr = Addressing::new(&fabric);
    let far = params.pods - 1;
    let start = warmup(stack);
    let flows: Vec<Flow> = (0..params.tors_per_pod)
        .map(|t| {
            let dst_ip = addr
                .server_addr(fabric.tor(far, t), 0)
                .expect("server address");
            let mut spec = SendSpec::new(dst_ip, start, Time::MAX);
            spec.interval = INTERVAL;
            Flow {
                src: fabric.server(0, t, 0),
                dst: fabric.server(far, t, 0),
                spec,
            }
        })
        .collect();
    let senders: Vec<(usize, SendSpec)> = flows.iter().map(|f| (f.src, f.spec)).collect();
    spans.topology = t.elapsed().as_nanos() as u64;

    let t = Instant::now();
    let cfg = SimConfig {
        trace: false,
        ..SimConfig::default()
    };
    let tuning = StackTuning {
        fast_path: true,
        profile,
        ..StackTuning::default()
    };
    let mut built = build_fabric_sim_cfg(fabric, stack, seed, &senders, tuning, cfg);
    spans.fabric = t.elapsed().as_nanos() as u64;

    let t = Instant::now();
    built.sim.run_until(start);
    spans.warmup = t.elapsed().as_nanos() as u64;
    let dropped_at_start = router_totals(&built).dropped;
    (
        Soak {
            built,
            flows,
            horizon: start,
            dropped_at_start,
        },
        spans,
    )
}

impl Soak {
    /// Advance one window.
    fn window(&mut self) {
        self.horizon += WINDOW;
        self.built.sim.run_until(self.horizon);
    }

    fn reports(&self) -> impl Iterator<Item = dcn_traffic::LossReport> + '_ {
        self.flows.iter().map(|f| {
            let sent = self.built.host(f.src).sent();
            self.built.host(f.dst).report(sent)
        })
    }

    /// Steady-state checks after a window: no router dropped a data
    /// packet, no duplicate or reordered arrival, and nothing older than
    /// the in-flight allowance is missing.
    fn check(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let dropped = router_totals(&self.built).dropped - self.dropped_at_start;
        if dropped > 0 {
            bad.push(format!("{dropped} data packets dropped"));
        }
        for (i, r) in self.reports().enumerate() {
            if r.duplicates > 0 || r.out_of_order > 0 {
                bad.push(format!(
                    "flow {i}: {} duplicates, {} out of order",
                    r.duplicates, r.out_of_order
                ));
            }
            if r.sent == 0 || r.lost() > IN_FLIGHT {
                bad.push(format!(
                    "flow {i}: {} of {} packets missing",
                    r.lost(),
                    r.sent
                ));
            }
        }
        bad
    }

    /// Stop every sender, let the fabric drain, and require exact
    /// delivery. Returns (problems, delivered, sent).
    fn drain(&mut self) -> (Vec<String>, u64, u64) {
        let now = self.built.sim.now();
        for f in &self.flows {
            let node = self.built.node(f.src);
            let host = self
                .built
                .sim
                .node_as_mut::<TrafficHost>(node)
                .expect("sender host");
            let ip = host.ip();
            let stopped = std::mem::replace(host, TrafficHost::new(ip));
            *host = stopped.with_send(SendSpec {
                stop_at: now,
                ..f.spec
            });
        }
        self.horizon += MILLIS;
        self.built.sim.run_until(self.horizon);
        let mut bad = self.check();
        let (mut delivered, mut sent) = (0, 0);
        for (i, r) in self.reports().enumerate() {
            if r.lost() > 0 {
                bad.push(format!("flow {i}: {} packets never delivered", r.lost()));
            }
            delivered += r.unique;
            sent += r.sent;
        }
        (bad, delivered, sent)
    }

    /// Everything observable about the soak so far: the engine counters
    /// (`trace_digest` with tracing off), forwarding totals and every
    /// flow's receiver report.
    fn digest(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        dcn_experiments::chaos::trace_digest(&self.built.sim).hash(&mut h);
        router_totals(&self.built).forwarded.hash(&mut h);
        for r in self.reports() {
            (r.sent, r.arrived, r.unique, r.duplicates, r.out_of_order).hash(&mut h);
        }
        h.finish()
    }
}

fn combine(digests: &[u64]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    digests.hash(&mut h);
    h.finish()
}

/// Per-pass figures of the timed soak.
struct Pass {
    /// Host milliseconds of each run: one window on every fabric.
    run_ms: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    events: u64,
    forwarded: u64,
}

/// One pass: `pass_windows` runs, each advancing every fabric by one
/// window; every window is checked (outside the timed part).
fn pass(soaks: &mut [Soak], shape: SoakShape, tally: &mut Tally) -> Pass {
    let before: Vec<(u64, u64)> = soaks
        .iter()
        .map(|s| {
            (
                s.built.sim.events_processed(),
                router_totals(&s.built).forwarded,
            )
        })
        .collect();
    let mut run_ms = Vec::with_capacity(shape.pass_windows);
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    for _ in 0..shape.pass_windows {
        let mut ms = 0.0;
        for soak in soaks.iter_mut() {
            let t = Instant::now();
            soak.window();
            ms += t.elapsed().as_secs_f64() * 1e3;
            tally.check(
                &format!("{} window to {} ns", soak.built.stack.slug(), soak.horizon),
                soak.check(),
            );
        }
        run_ms.push(ms);
    }
    let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), process_cpu_s() - cpu0);
    let (mut events, mut forwarded) = (0, 0);
    for (s, (e0, f0)) in soaks.iter().zip(before) {
        events += s.built.sim.events_processed() - e0;
        forwarded += router_totals(&s.built).forwarded - f0;
    }
    Pass {
        run_ms,
        wall_s,
        cpu_s,
        events,
        forwarded,
    }
}

fn converge_all(seed: u64, shape: SoakShape, profile: bool) -> Vec<(Soak, SetupSpans)> {
    STACKS
        .iter()
        .map(|&stack| converge(stack, seed, shape.pods, profile))
        .collect()
}

/// Timed soak for `seconds`: every end-to-end metric. Each is computed
/// per pass (about a tenth of a second, short enough to fall within one
/// stretch of steady host speed) and reported as its fastest pass
/// ([`fast`], [`fast_rate`]); `run_p50_ms` and `run_p75_ms` are
/// quantiles of a pass's runs.
pub fn run_timed(seed: u64, size: Size, seconds: f64) -> Outcome {
    let shape = shape(size);
    let mut tally = Tally::default();
    let mut soaks: Vec<Soak> = converge_all(seed, shape, false)
        .into_iter()
        .map(|(s, _)| s)
        .collect();

    reset_peak_rss();
    let started = Instant::now();
    let mut times = Samples::default();
    let mut rates = Samples::default();
    let mut digest = 0;
    // Set-up (build and converge both fabrics) is sampled between passes.
    let mut setups = Vec::new();
    let mut last_setup: Option<Instant> = None;
    let mut passes = 0;
    while passes == 0 || started.elapsed().as_secs_f64() < seconds {
        if last_setup.is_none_or(|t| t.elapsed() >= SETUP_EVERY) {
            let t = Instant::now();
            let fresh = converge_all(seed, shape, false);
            setups.push(t.elapsed().as_secs_f64());
            drop(fresh);
            last_setup = Some(Instant::now());
        }
        let p = pass(&mut soaks, shape, &mut tally);
        if passes == 0 {
            digest = combine(&soaks.iter().map(Soak::digest).collect::<Vec<_>>());
        }
        let sim_s = (soaks.len() * shape.pass_windows) as f64 * WINDOW as f64 * 1e-9;
        times.push("wall_s", p.wall_s);
        times.push("cpu_s", p.cpu_s);
        times.push("run_p50_ms", quantile(&p.run_ms, 0.5));
        times.push("run_p75_ms", quantile(&p.run_ms, 0.75));
        rates.push("runs_per_s", p.run_ms.len() as f64 / p.wall_s);
        rates.push("sim_s_per_host_s", sim_s / p.wall_s);
        rates.push("events_per_s", p.events as f64 / p.wall_s);
        rates.push("fwd_pkts_per_s", p.forwarded as f64 / p.wall_s);
        passes += 1;
    }
    let peak = peak_rss_mib();
    for soak in &mut soaks {
        let (bad, _, _) = soak.drain();
        tally.check(&format!("{} drain", soak.built.stack.slug()), bad);
    }
    let mut metrics = times.summarise(fast);
    metrics.extend(rates.summarise(fast_rate));
    metrics.insert("setup_s".into(), fast(&setups));
    metrics.insert("peak_rss_mb".into(), peak);
    let notes = vec![
        format!(
            "passes={passes} runs_per_pass={} (a run is one {} ms window on each fabric; each metric is its fastest pass)",
            shape.pass_windows,
            WINDOW / MILLIS
        ),
        format!("setup samples={} pods={}", setups.len(), shape.pods),
    ];
    Outcome {
        tally,
        digest,
        metrics,
        notes,
    }
}

/// Timed passes on one pair of fabrics, alternating with traced passes
/// (fresh profiled fabrics, each layer timed from outside) for
/// `seconds`: every per-layer metric, with each traced fabric reconciled
/// against the timed fabrics' state after their first pass.
pub fn run_traced(seed: u64, size: Size, seconds: f64) -> Outcome {
    let shape = shape(size);
    let mut tally = Tally::default();
    let mut soaks: Vec<Soak> = converge_all(seed, shape, false)
        .into_iter()
        .map(|(s, _)| s)
        .collect();
    let mut timed = pass(&mut soaks, shape, &mut tally);
    let timed_digests: Vec<u64> = soaks.iter().map(Soak::digest).collect();

    let mut samples = Samples::default();
    let mut attribution = Attribution::default();
    let started = Instant::now();
    let mut passes = 0;
    while passes == 0 || started.elapsed().as_secs_f64() < seconds {
        if passes > 0 {
            timed = pass(&mut soaks, shape, &mut tally);
        }
        samples.push(
            "pool.busy_share",
            timed.run_ms.iter().sum::<f64>() / (timed.wall_s * 1e3),
        );
        let t_pass = Instant::now();
        let mut setup = SetupSpans::default();
        let (mut warm_events, mut events, mut frames, mut measure, mut drain_ns) =
            (0, 0, 0, 0.0, 0.0);
        let (mut forwarded, mut allocs, mut scoped, mut digest_ns) = (0, 0, 0, 0.0);
        let (mut pushes, mut overflow, mut max_pending, mut top, mut profiled) = (0, 0, 0, 0, 0);
        let (mut delivered, mut sent) = (0, 0);
        let mut proto = crate::runs::RouterTotals::default();
        let mut by_size = std::collections::BTreeMap::new();
        for (i, &stack) in STACKS.iter().enumerate() {
            let (mut soak, spans) = converge(stack, seed, shape.pods, true);
            setup.topology += spans.topology;
            setup.fabric += spans.fabric;
            setup.warmup += spans.warmup;
            let warm = soak.built.sim.events_processed();
            warm_events += warm;
            by_size.insert(
                (stack.slug(), shape.pods as u64),
                (spans.warmup as f64, warm as f64),
            );
            let fwd0 = router_totals(&soak.built).forwarded;
            alloc_track::reset();
            let t = Instant::now();
            for _ in 0..shape.pass_windows {
                soak.window();
            }
            measure += t.elapsed().as_nanos() as f64;
            allocs += alloc_track::scoped_allocs();
            scoped += alloc_track::forwarded();
            let totals = router_totals(&soak.built);
            forwarded += totals.forwarded - fwd0;
            proto.mrmtp_hellos += totals.mrmtp_hellos;
            proto.mrmtp_updates += totals.mrmtp_updates;
            proto.bgp_updates += totals.bgp_updates;
            proto.bgp_keepalives += totals.bgp_keepalives;
            proto.bgp_sessions += totals.bgp_sessions;
            events += soak.built.sim.events_processed();
            frames += soak.built.sim.frames_delivered();

            let t = Instant::now();
            let digest = soak.digest();
            digest_ns += t.elapsed().as_nanos() as f64;
            let mut bad = soak.check();
            if digest != timed_digests[i] {
                bad.push(format!(
                    "traced fabric digest {digest:#x}, timed {:#x}",
                    timed_digests[i]
                ));
            }
            let profile = soak
                .built
                .sim
                .take_profile()
                .expect("profiling was enabled");
            for s in &profile.shards {
                pushes += s.sched.pushes;
                overflow += s.sched.wheel_overflow_hits;
                max_pending = max_pending.max(s.sched.max_pending);
            }
            top += top_spine_events(&soak.built, &profile);
            profiled += profile.total_events();
            let t = Instant::now();
            let (drain_bad, d, s) = soak.drain();
            drain_ns += t.elapsed().as_nanos() as f64;
            bad.extend(drain_bad);
            delivered += d;
            sent += s;
            tally.check(&format!("{} traced soak", stack.slug()), bad);
        }
        // The drain is engine time too (`run_until` past the last window).
        let attributed =
            (setup.topology + setup.fabric + setup.warmup) as f64 + measure + drain_ns + digest_ns;
        attribution.add(t_pass.elapsed().as_nanos() as f64, attributed);

        let sims = STACKS.len() as f64;
        let ms = |ns: f64| ns / sims / 1e6;
        let per = |x: u64| x as f64 / sims;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        samples.push("topology.build_ms", ms(setup.topology as f64));
        samples.push("fabric.build_ms", ms(setup.fabric as f64));
        samples.push("engine.warmup_ms", ms(setup.warmup as f64));
        samples.push(
            "engine.warmup_ns_per_event",
            ratio(setup.warmup as f64, warm_events as f64),
        );
        samples.push("engine.measure_ms", ms(measure));
        samples.push(
            "engine.measure_ns_per_event",
            ratio(measure, (events - warm_events) as f64),
        );
        samples.push("engine.events", per(events));
        samples.push("engine.frames_delivered", per(frames));
        samples.push("scheduler.pushes", per(pushes));
        samples.push("scheduler.max_pending", max_pending as f64);
        samples.push("scheduler.overflow_hits", per(overflow));
        samples.push(
            "engine.top_spine_event_share",
            ratio(top as f64, profiled as f64),
        );
        samples.push("trace.records", 0.0);
        samples.push("trace.record_ms", 0.0);
        samples.push("digest.ms", ms(digest_ns));
        samples.push("metrics.extract_ms", 0.0);
        samples.push("storyboard.build_ms", 0.0);
        samples.push("store.append_ms", 0.0);
        samples.push("store.bytes", 0.0);
        samples.push("mrmtp.hellos_sent", proto.mrmtp_hellos as f64);
        samples.push("mrmtp.updates_sent", proto.mrmtp_updates as f64);
        samples.push("bgp.updates_sent", proto.bgp_updates as f64);
        samples.push("bgp.keepalives_sent", proto.bgp_keepalives as f64);
        samples.push("bgp.sessions_established", proto.bgp_sessions as f64);
        samples.push("fwd.ns_per_hop", ratio(measure, forwarded as f64));
        samples.push("fwd.allocs_per_hop", ratio(allocs as f64, scoped as f64));
        samples.push(
            "traffic.delivered_ratio",
            ratio(delivered as f64, sent as f64),
        );
        let timed_ns = timed.run_ms.iter().sum::<f64>() * 1e6;
        samples.push("tracing.overhead_share", (measure - timed_ns) / timed_ns);
        warmup_growth(&by_size, &mut samples);
        passes += 1;
    }
    for soak in &mut soaks {
        let (bad, _, _) = soak.drain();
        tally.check(&format!("{} drain", soak.built.stack.slug()), bad);
    }
    samples.push("pool.imbalance", 0.0);
    let notes = vec![format!(
        "timed+traced pass pairs={passes} runs per pass={} pods={}",
        shape.pass_windows, shape.pods
    )];
    let mut metrics = samples.medians();
    metrics.insert("unattributed_share".into(), attribution.check(&mut tally));
    Outcome {
        tally,
        digest: combine(&timed_digests),
        metrics,
        notes,
    }
}

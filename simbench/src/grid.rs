//! `paper_grid`: the paper's evaluation grid as a campaign of whole
//! `RunSpec` runs, timed through the campaign entry points
//! (`pool::fan_out` + `run_one` into a `campaign/v1` store).

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::thread::ThreadId;
use std::time::Instant;

use dcn_experiments::campaign::store::{RunRecord, Store};
use dcn_experiments::campaign::{pool, run_one};
use dcn_experiments::{CampaignSpec, RunSpec, Stack, TrafficDir};
use dcn_topology::FailureCase;

use crate::host::{nproc, peak_rss_mib, process_cpu_s, reset_peak_rss, thread_cpu_s};
use crate::runs::{build, decompose, paper_bands, same_record, untraced_run_ns, Decomposed};
use crate::stats::{fast, quantile, Attribution, Outcome, Samples, Tally};
use crate::{Size, SETUP_EVERY};

/// The campaign and the runs it expands to, in grid order.
pub struct PaperGrid {
    pub specs: Vec<RunSpec>,
    pub campaign: CampaignSpec,
}

/// Pool threads of the timed pass. One, so a pass's wall time is the sum
/// of its runs' times plus its store work, which [`run_timed`] relies
/// on; with two, passes also swung more with the host's load.
const THREADS: usize = 1;

/// The paper's §VII evaluation as a campaign: 2- and 4-PoD fabrics ×
/// all three stacks × TC1–TC4 × near/far traffic, one seed per point.
pub fn paper_grid(seed: u64, size: Size) -> PaperGrid {
    let smoke = size == Size::Smoke;
    let campaign = CampaignSpec {
        name: "paper_grid".into(),
        pods: if smoke { vec![2] } else { vec![2, 4] },
        stacks: Stack::ALL.to_vec(),
        failures: if smoke {
            vec![Some(FailureCase::Tc1), Some(FailureCase::Tc2)]
        } else {
            [
                FailureCase::Tc1,
                FailureCase::Tc2,
                FailureCase::Tc3,
                FailureCase::Tc4,
            ]
            .map(Some)
            .to_vec()
        },
        traffic: if smoke {
            vec![TrafficDir::NearToFar]
        } else {
            vec![TrafficDir::NearToFar, TrafficDir::FarToNear]
        },
        local_repair: vec![false],
        seeds: 1,
        base_seed: seed,
        quick: false,
    };
    PaperGrid {
        specs: campaign.expand().expect("the grid's axes are valid"),
        campaign,
    }
}

/// One timed pass through the campaign path.
struct Pass {
    records: Vec<RunRecord>,
    /// Host seconds of each `run_one` call, in grid order.
    run_s: Vec<f64>,
    /// CPU seconds of each `run_one` call (its worker thread), in grid
    /// order.
    run_cpu_s: Vec<f64>,
    /// Summed `run_one` seconds per pool worker.
    busy_s: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
}

fn timed_pass(w: &PaperGrid, dir: &Path) -> Result<Pass, String> {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let store = Store::create(
        dir,
        &w.campaign.name,
        w.campaign.to_json(),
        w.specs.len() as u64,
    )?;
    let out = pool::fan_out(w.specs.clone(), THREADS, |rs| {
        let cpu = thread_cpu_s();
        let t = Instant::now();
        let record = run_one(rs, false);
        (
            record,
            t.elapsed().as_secs_f64(),
            thread_cpu_s() - cpu,
            std::thread::current().id(),
        )
    });
    let mut workers: Vec<ThreadId> = Vec::new();
    let mut busy_s: Vec<f64> = Vec::new();
    let mut records = Vec::with_capacity(out.len());
    let mut run_s = Vec::with_capacity(out.len());
    let mut run_cpu_s = Vec::with_capacity(out.len());
    for (record, secs, cpu, id) in out {
        let slot = workers.iter().position(|&w| w == id).unwrap_or_else(|| {
            workers.push(id);
            busy_s.push(0.0);
            workers.len() - 1
        });
        busy_s[slot] += secs;
        records.push(record);
        run_s.push(secs);
        run_cpu_s.push(cpu);
    }
    store
        .append_all(&records)
        .map_err(|e| format!("append to {}: {e}", dir.display()))?;
    Ok(Pass {
        records,
        run_s,
        run_cpu_s,
        busy_s,
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - cpu0,
    })
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn combined_digest(records: &[&RunRecord]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for r in records {
        r.key.hash(&mut h);
        r.digest.hash(&mut h);
    }
    h.finish()
}

/// One set-up sample: every simulation of a pass built (not run).
fn setup_s(w: &PaperGrid) -> f64 {
    let t = Instant::now();
    let sims: Vec<_> = w.specs.iter().map(|rs| build(rs, true)).collect();
    let secs = t.elapsed().as_secs_f64();
    drop(sims);
    secs
}

/// Check a run's record against the reference record for its key
/// (same metrics, same trace digest).
pub fn check_record(record: &RunRecord, reference: Option<&RunRecord>) -> Vec<String> {
    match reference {
        None => vec!["no reference run for this key".into()],
        Some(r) if !same_record(record, r) => vec![format!(
            "record differs from the reference (digest {:#x} vs {:#x})",
            record.digest, r.digest
        )],
        Some(_) => Vec::new(),
    }
}

/// The timed pass repeated for `seconds`: every end-to-end metric.
///
/// Each `run_one` call is timed on every pass and its time taken as the
/// fastest of its samples ([`fast`]). A pass's wall and CPU time are the
/// sums of its calls' fastest times plus the fastest of what the passes
/// spend outside them (store creation and appends): a pass takes over a
/// second, longer than the host's fast stretches often last, while a
/// call takes milliseconds.
pub fn run_timed(w: &PaperGrid, seconds: f64, tmp: &Path) -> Result<Outcome, String> {
    let mut tally = Tally::default();

    // The reference pass: each spec decomposed once (also warms caches).
    // Its deterministic counters turn pass wall times into rates.
    let refs = pool::fan_out(w.specs.clone(), nproc().min(2), |rs| {
        let d = decompose(&rs, false);
        (paper_bands(&rs, &d.result), d)
    });
    let mut by_key: HashMap<&str, &RunRecord> = HashMap::new();
    for (bad, d) in &refs {
        tally.check(&d.record.key, bad.clone());
        by_key.insert(&d.record.key, &d.record);
    }
    let sum = |f: &dyn Fn(&Decomposed) -> u64| refs.iter().map(|(_, d)| f(d)).sum::<u64>() as f64;
    let (sim_s, events, forwarded) = (
        sum(&|d| d.counts.sim_ns) * 1e-9,
        sum(&|d| d.counts.events),
        sum(&|d| d.counts.routers.forwarded),
    );

    reset_peak_rss();
    let started = Instant::now();
    // Per spec: seconds and CPU seconds of each of its `run_one` calls.
    let mut spec_s = vec![Vec::new(); w.specs.len()];
    let mut spec_cpu_s = vec![Vec::new(); w.specs.len()];
    // Per pass: wall and CPU seconds outside `run_one`.
    let (mut rest_walls, mut rest_cpus) = (Vec::new(), Vec::new());
    let mut setups = Vec::new();
    let mut last_setup: Option<Instant> = None;
    let mut passes = 0;
    while passes == 0 || started.elapsed().as_secs_f64() < seconds {
        if last_setup.is_none_or(|t| t.elapsed() >= SETUP_EVERY) {
            setups.push(setup_s(w));
            last_setup = Some(Instant::now());
        }
        let dir = tmp.join(format!("pass-{passes}"));
        let pass = timed_pass(w, &dir)?;
        let _ = std::fs::remove_dir_all(&dir);
        for rec in &pass.records {
            tally.check(
                &rec.key,
                check_record(rec, by_key.get(rec.key.as_str()).copied()),
            );
        }
        for (i, (&s, &c)) in pass.run_s.iter().zip(&pass.run_cpu_s).enumerate() {
            spec_s[i].push(s);
            spec_cpu_s[i].push(c);
        }
        rest_walls.push(pass.wall_s - pass.run_s.iter().sum::<f64>());
        rest_cpus.push(pass.cpu_s - pass.run_cpu_s.iter().sum::<f64>());
        passes += 1;
    }
    let run_ms: Vec<f64> = spec_s.iter().map(|xs| fast(xs) * 1e3).collect();
    let wall_s = run_ms.iter().sum::<f64>() / 1e3 + fast(&rest_walls);
    let cpu_s = spec_cpu_s.iter().map(|xs| fast(xs)).sum::<f64>() + fast(&rest_cpus);
    let metrics = [
        ("setup_s", fast(&setups)),
        ("wall_s", wall_s),
        ("cpu_s", cpu_s),
        ("runs_per_s", run_ms.len() as f64 / wall_s),
        ("run_p50_ms", quantile(&run_ms, 0.5)),
        ("run_p75_ms", quantile(&run_ms, 0.75)),
        ("sim_s_per_host_s", sim_s / wall_s),
        ("events_per_s", events / wall_s),
        ("fwd_pkts_per_s", forwarded / wall_s),
        ("peak_rss_mb", peak_rss_mib()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();

    let digest = combined_digest(&refs.iter().map(|(_, d)| &d.record).collect::<Vec<_>>());
    let notes = vec![
        format!(
            "passes={passes} runs_per_pass={} samples per run={passes} (each time is the fastest sample)",
            run_ms.len()
        ),
        format!("setup samples={} pool threads={THREADS}", setups.len()),
    ];
    Ok(Outcome {
        tally,
        digest,
        metrics,
        notes,
    })
}

/// Host-time and counter totals of one traced pass.
#[derive(Default)]
struct LayerTotals {
    runs: f64,
    topology: f64,
    fabric: f64,
    warmup: f64,
    measure: f64,
    metrics: f64,
    digest: f64,
    storyboard: f64,
    store: f64,
    appends: f64,
    warmup_events: f64,
    measure_events: f64,
    events: f64,
    frames: f64,
    pushes: f64,
    overflow: f64,
    max_pending: f64,
    profiled_events: f64,
    top_spine: f64,
    trace_records: f64,
    fwd_allocs: f64,
    fwd_scoped: f64,
    flow_sent: f64,
    flow_delivered: f64,
    /// (runs, hellos, updates) over MR-MTP runs.
    mrmtp: (f64, f64, f64),
    /// (runs, updates, keepalives, sessions) over BGP runs.
    bgp: (f64, f64, f64, f64),
    /// Per stack, per PoD count: (warm-up ns, warm-up events).
    warmup_by_size: BTreeMap<(&'static str, u64), (f64, f64)>,
    /// Summed wall of each decomposed run (including teardown).
    run_wall: f64,
}

impl LayerTotals {
    fn add(&mut self, rs: &RunSpec, d: &Decomposed, run_wall_ns: f64) {
        let (s, c) = (&d.spans, &d.counts);
        self.runs += 1.0;
        self.topology += s.topology as f64;
        self.fabric += s.fabric as f64;
        self.warmup += s.warmup as f64;
        self.measure += s.measure as f64;
        self.metrics += s.metrics as f64;
        self.digest += s.digest as f64;
        self.storyboard += s.storyboard as f64;
        self.warmup_events += c.warmup_events as f64;
        self.measure_events += (c.events - c.warmup_events) as f64;
        self.events += c.events as f64;
        self.frames += c.frames as f64;
        self.trace_records += c.trace_records as f64;
        self.fwd_allocs += c.fwd_allocs as f64;
        self.fwd_scoped += c.fwd_scoped as f64;
        self.flow_sent += c.flow_sent as f64;
        self.flow_delivered += c.flow_delivered as f64;
        if let Some(p) = &d.profile {
            let sched = p
                .shards
                .iter()
                .fold(dcn_sim::SchedulerStats::default(), |mut acc, s| {
                    acc.absorb(s.sched);
                    acc
                });
            self.pushes += sched.pushes as f64;
            self.overflow += sched.wheel_overflow_hits as f64;
            self.max_pending = self.max_pending.max(sched.max_pending as f64);
            self.profiled_events += p.total_events() as f64;
            self.top_spine += c.top_spine as f64;
        }
        let r = &c.routers;
        if rs.stack == Stack::Mrmtp {
            self.mrmtp.0 += 1.0;
            self.mrmtp.1 += r.mrmtp_hellos as f64;
            self.mrmtp.2 += r.mrmtp_updates as f64;
        } else {
            self.bgp.0 += 1.0;
            self.bgp.1 += r.bgp_updates as f64;
            self.bgp.2 += r.bgp_keepalives as f64;
            self.bgp.3 += r.bgp_sessions as f64;
        }
        let e = self
            .warmup_by_size
            .entry((rs.stack.slug(), rs.params.pods as u64))
            .or_default();
        e.0 += s.warmup as f64;
        e.1 += c.warmup_events as f64;
        self.run_wall += run_wall_ns;
    }

    fn attributed(&self) -> f64 {
        self.topology
            + self.fabric
            + self.warmup
            + self.measure
            + self.metrics
            + self.digest
            + self.storyboard
            + self.store
    }
}

/// `num / den`, 0 when nothing was measured.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per stack: warm-up ns/event at the workload's largest fabric over
/// its smallest (1.0 with one size, 0 when the stack is not run).
pub fn warmup_growth(by_size: &BTreeMap<(&'static str, u64), (f64, f64)>, samples: &mut Samples) {
    for stack in Stack::ALL {
        let sizes: Vec<f64> = by_size
            .iter()
            .filter(|((s, _), _)| *s == stack.slug())
            .map(|(_, &(ns, ev))| ratio(ns, ev))
            .collect();
        let growth = match (sizes.first(), sizes.last()) {
            (Some(&small), Some(&large)) => ratio(large, small),
            _ => 0.0,
        };
        samples.push(
            format!("engine.warmup_cost_growth.{}", stack.slug()),
            growth,
        );
    }
}

/// Timed and decomposed passes, alternating for `seconds`: every
/// per-layer metric, with each decomposed run reconciled against the
/// preceding timed pass's record for its key.
pub fn run_traced(w: &PaperGrid, seconds: f64, tmp: &Path) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut samples = Samples::default();
    let mut attribution = Attribution::default();
    let mut digest = None;
    let started = Instant::now();
    let mut passes = 0;
    while passes == 0 || started.elapsed().as_secs_f64() < seconds {
        let timed_dir = tmp.join(format!("timed-{passes}"));
        let timed = timed_pass(w, &timed_dir)?;
        samples.push("store.bytes", dir_bytes(&timed_dir) as f64);
        let _ = std::fs::remove_dir_all(&timed_dir);
        digest.get_or_insert_with(|| combined_digest(&timed.records.iter().collect::<Vec<_>>()));
        let timed_by_key: HashMap<&str, &RunRecord> =
            timed.records.iter().map(|r| (r.key.as_str(), r)).collect();
        let busy: f64 = timed.busy_s.iter().sum();
        let max_busy = timed.busy_s.iter().cloned().fold(0.0, f64::max);
        samples.push("pool.busy_share", busy / (THREADS as f64 * timed.wall_s));
        samples.push(
            "pool.imbalance",
            ratio(max_busy, busy / timed.busy_s.len().max(1) as f64) - 1.0,
        );

        let mut totals = LayerTotals::default();
        let dir = tmp.join(format!("traced-{passes}"));
        let t_pass = Instant::now();
        let t = Instant::now();
        let store = Store::create(
            &dir,
            &w.campaign.name,
            w.campaign.to_json(),
            w.specs.len() as u64,
        )?;
        totals.store += t.elapsed().as_nanos() as f64;
        let mut traced_events = Vec::with_capacity(w.specs.len());
        for rs in &w.specs {
            let t = Instant::now();
            let d = decompose(rs, true);
            traced_events.push(d.counts.events);
            let run_wall = t.elapsed().as_nanos() as f64;
            let t = Instant::now();
            store
                .append(&d.record)
                .map_err(|e| format!("append to {}: {e}", dir.display()))?;
            totals.store += t.elapsed().as_nanos() as f64;
            totals.appends += 1.0;
            let mut bad = paper_bands(rs, &d.result);
            bad.extend(check_record(
                &d.record,
                timed_by_key.get(d.record.key.as_str()).copied(),
            ));
            tally.check(&d.record.key, bad);
            totals.add(rs, &d, run_wall);
        }
        let pass_wall = t_pass.elapsed().as_nanos() as f64;
        let _ = std::fs::remove_dir_all(&dir);
        attribution.add(pass_wall, totals.attributed());

        // Trace cost: the same runs with `SimConfig.trace` off.
        let mut untraced = 0.0;
        for (rs, traced) in w.specs.iter().zip(traced_events) {
            let (ns, events) = untraced_run_ns(rs);
            untraced += ns as f64;
            let bad = if events == traced {
                Vec::new()
            } else {
                vec![format!(
                    "trace-off run processed {events} events, traced {traced}"
                )]
            };
            tally.check(&format!("{} (trace off)", rs.key()), bad);
        }

        let n = totals.runs;
        let ms = |ns: f64| ns / n / 1e6;
        samples.push("topology.build_ms", ms(totals.topology));
        samples.push("fabric.build_ms", ms(totals.fabric));
        samples.push("engine.warmup_ms", ms(totals.warmup));
        samples.push(
            "engine.warmup_ns_per_event",
            ratio(totals.warmup, totals.warmup_events),
        );
        samples.push("engine.measure_ms", ms(totals.measure));
        samples.push(
            "engine.measure_ns_per_event",
            ratio(totals.measure, totals.measure_events),
        );
        samples.push("engine.events", totals.events / n);
        samples.push("engine.frames_delivered", totals.frames / n);
        samples.push("scheduler.pushes", totals.pushes / n);
        samples.push("scheduler.max_pending", totals.max_pending);
        samples.push("scheduler.overflow_hits", totals.overflow / n);
        samples.push(
            "engine.top_spine_event_share",
            ratio(totals.top_spine, totals.profiled_events),
        );
        samples.push("trace.records", totals.trace_records / n);
        samples.push(
            "trace.record_ms",
            ms(totals.warmup + totals.measure - untraced),
        );
        samples.push("digest.ms", ms(totals.digest));
        samples.push("metrics.extract_ms", ms(totals.metrics));
        samples.push("storyboard.build_ms", ms(totals.storyboard));
        samples.push("store.append_ms", ratio(totals.store, totals.appends) / 1e6);
        samples.push("mrmtp.hellos_sent", ratio(totals.mrmtp.1, totals.mrmtp.0));
        samples.push("mrmtp.updates_sent", ratio(totals.mrmtp.2, totals.mrmtp.0));
        samples.push("bgp.updates_sent", ratio(totals.bgp.1, totals.bgp.0));
        samples.push("bgp.keepalives_sent", ratio(totals.bgp.2, totals.bgp.0));
        samples.push(
            "bgp.sessions_established",
            ratio(totals.bgp.3, totals.bgp.0),
        );
        samples.push("fwd.ns_per_hop", 0.0);
        samples.push(
            "fwd.allocs_per_hop",
            ratio(totals.fwd_allocs, totals.fwd_scoped),
        );
        samples.push(
            "traffic.delivered_ratio",
            ratio(totals.flow_delivered, totals.flow_sent),
        );
        let timed_run_ns: f64 = timed.run_s.iter().sum::<f64>() * 1e9;
        samples.push(
            "tracing.overhead_share",
            (totals.run_wall - timed_run_ns) / timed_run_ns,
        );
        warmup_growth(&totals.warmup_by_size, &mut samples);
        passes += 1;
    }

    let mut metrics = samples.medians();
    metrics.insert("unattributed_share".into(), attribution.check(&mut tally));
    let notes = vec![format!(
        "timed+traced pass pairs={passes} simulations per pass={}",
        w.specs.len()
    )];
    Ok(Outcome {
        tally,
        digest: digest.expect("at least one pass ran"),
        metrics,
        notes,
    })
}

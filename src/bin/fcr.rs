//! `fcr` — folded-clos-routing command line.
//!
//! A thin front end over `dcn-experiments` for running reproduction
//! pieces without writing code:
//!
//! ```text
//! fcr figures                      # regenerate every paper figure
//! fcr scenario <stack> <tc> [near|far]   # one experiment, all metrics
//! fcr listings                     # Listings 1/2/3/5 artifacts
//! fcr sweep [max_pods]             # §IX PoD sweep + tier comparison
//! fcr ablations                    # design-choice ablations
//! fcr keepalive                    # Figs. 9–10 summary
//! fcr bench --scale 2,4,8,16       # scaling + scheduler benchmarks
//! fcr bench --traffic              # data-plane forwarding soak
//! fcr profile mrmtp tc1           # engine time breakdown + Chrome trace
//! ```
//!
//! Stacks: `mrmtp`, `bgp`, `bgp-bfd`. Cases: `tc1`–`tc4`.

use std::path::PathBuf;

use dcn_experiments::campaign::{self, CampaignSpec};
use dcn_experiments::{ablations, bench, figures, run, RunSpec, Stack, TrafficDir};
use dcn_topology::{ClosParams, FailureCase};

/// Count heap allocations landing inside forwarding scopes, so
/// `fcr bench --traffic` reports a measured allocations-per-forwarded-
/// packet figure instead of a trivial zero.
#[global_allocator]
static ALLOC: dcn_sim::alloc_track::CountingAllocator =
    dcn_sim::alloc_track::CountingAllocator;

fn usage() -> ! {
    eprintln!(
        "usage: fcr <command>\n\
         \n\
         commands:\n\
         \x20 figures                       regenerate every paper figure\n\
         \x20 scenario <stack> <tc> [dir]   one experiment (stack: mrmtp|bgp|bgp-bfd;\n\
         \x20                               tc: tc1..tc4; dir: near|far, default near)\n\
         \x20   --pods N             fabric size in PoDs (even, default 2)\n\
         \x20   --seed N             seed (default 42)\n\
         \x20   --local-repair       enable in-data-plane local fast reroute\n\
         \x20   --telemetry-out DIR  also write the run's trace bundle under DIR\n\
         \x20   --profile-out DIR    also profile the engine and write\n\
         \x20                        perf_report.json + trace.chrome.json under DIR\n\
         \x20 profile <stack> <tc>          engine runtime profile of one scenario:\n\
         \x20                               execute/other time, hot nodes,\n\
         \x20                               scheduler occupancy\n\
         \x20   --pods N             fabric size in PoDs (even, default 2)\n\
         \x20   --seed N             seed (default 42)\n\
         \x20   --local-repair       enable in-data-plane local fast reroute\n\
         \x20   --out DIR            write perf_report.json (perf_report/v3) and\n\
         \x20                        trace.chrome.json (chrome://tracing / Perfetto)\n\
         \x20 report <stack> <tc>           convergence storyboard + per-router counters\n\
         \x20   --seed N             seed (default 42)\n\
         \x20   --local-repair       enable in-data-plane local fast reroute\n\
         \x20   --telemetry-out DIR  also write the run's trace bundle under DIR\n\
         \x20 listings                      Listings 1/2/3/5 artifacts\n\
         \x20 sweep [max_pods]              scalability sweep + tier comparison\n\
         \x20 ablations                     design-choice ablations\n\
         \x20 keepalive                     steady-state keep-alive summary\n\
         \x20 extended                      whole-node/multi-point failures + encap overhead\n\
         \x20 replicate [n]                 Fig. 4 averaged over n seeds\n\
         \x20   --local-repair       enable in-data-plane local fast reroute\n\
         \x20   --telemetry-out DIR  also write per-seed bundles for each stack on TC1\n\
         \x20 chaos [opts]                  randomized fault campaign with invariant checks\n\
         \x20   --seeds N        seeds per stack (default 64)\n\
         \x20   --base-seed N    first seed value (default 1)\n\
         \x20   --threads N      worker threads (default: all cores)\n\
         \x20   --stacks LIST    comma list of mrmtp|bgp|bgp-bfd (default mrmtp,bgp)\n\
         \x20   --flaps N        link flaps per schedule (default 6)\n\
         \x20   --crashes N      node crashes per schedule (default 1)\n\
         \x20   --k N            concurrent-failure burst size (default 2)\n\
         \x20   --loss-ppm N     frame loss during window (default 2000)\n\
         \x20   --corrupt-ppm N  frame corruption during window (default 10000)\n\
         \x20   --local-repair   enable local fast reroute (+ repair-loop invariant)\n\
         \x20   --traffic-pairs N  cross-pod background flows per schedule (default 0)\n\
         \x20   --no-determinism skip the double-run digest comparison\n\
         \x20   --telemetry-out DIR  write a replay bundle for every violating seed\n\
         \x20   --profile-out DIR    profile every run (digests unchanged) and write\n\
         \x20                        perf artifacts per (stack, seed) under DIR\n\
         \x20 campaign run <spec>           expand a campaign grid (spec JSON file, or\n\
         \x20                               'default' for 2,4-PoD x mrmtp,bgp x tc1,tc2\n\
         \x20                               x 3 seeds) across cores into a results store\n\
         \x20   --out DIR            store directory (required; must be fresh)\n\
         \x20   --threads N          campaign worker threads (default: all cores)\n\
         \x20   --seeds N            override the spec's seeds-per-point count\n\
         \x20   --quick              shortened per-run timeline (CI smoke)\n\
         \x20   --profile            profile every run (digests unchanged) and\n\
         \x20                        record stall breakdowns in the store\n\
         \x20 campaign report <store>       summary table of one results store\n\
         \x20 campaign diff <a> <b>         compare two stores run by run: any digest\n\
         \x20                               mismatch or >threshold metric drift fails\n\
         \x20                               (exit 1); coverage changes are reported\n\
         \x20   --threshold PCT      relative metric-drift tolerance in percent\n\
         \x20                        (default 5; digests are compared exactly)\n\
         \x20 bench [opts]                  scaling + scheduler benchmarks\n\
         \x20   --scale LIST     comma list of PoD counts (default 2,4,8,16,32,64)\n\
         \x20   --traffic        forwarding soak instead: packets/sec and\n\
         \x20                    allocs per forwarded packet, fast vs slow path\n\
         \x20   --quick          short windows (CI smoke mode)\n\
         \x20   --out FILE       write BENCH_scale.json (or BENCH_traffic.json\n\
         \x20                    with --traffic) here (default stdout only)\n\
         \x20   --baseline FILE  fail (exit 1) on >20% throughput regression\n\
         \x20                    (--traffic also gates the loss-window probe)\n\
         \x20   --profile-out DIR  also write a full perf report + Chrome trace\n\
         \x20                    of the largest scale row under DIR"
    );
    std::process::exit(2);
}

fn parse_stack(s: &str) -> Stack {
    match s {
        "mrmtp" | "mtp" => Stack::Mrmtp,
        "bgp" => Stack::BgpEcmp,
        "bgp-bfd" | "bfd" => Stack::BgpEcmpBfd,
        other => {
            eprintln!("unknown stack {other:?} (mrmtp|bgp|bgp-bfd)");
            std::process::exit(2);
        }
    }
}

/// Flags shared by the single-run subcommands.
struct RunFlags {
    telemetry_out: Option<PathBuf>,
    profile_out: Option<PathBuf>,
    out: Option<PathBuf>,
    seed: Option<u64>,
    pods: Option<usize>,
    local_repair: bool,
}

/// Pull `--telemetry-out DIR`, `--profile-out DIR`, `--out DIR`,
/// `--seed N`, `--pods N` and `--local-repair` out of
/// `args`, returning the remaining positional arguments.
fn split_flags(args: &[String]) -> (Vec<&str>, RunFlags) {
    let mut positional = Vec::new();
    let mut flags = RunFlags {
        telemetry_out: None,
        profile_out: None,
        out: None,
        seed: None,
        pods: None,
        local_repair: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--telemetry-out" => {
                let Some(dir) = args.get(i + 1) else { usage() };
                flags.telemetry_out = Some(PathBuf::from(dir));
                i += 2;
            }
            "--profile-out" => {
                let Some(dir) = args.get(i + 1) else { usage() };
                flags.profile_out = Some(PathBuf::from(dir));
                i += 2;
            }
            "--out" => {
                let Some(dir) = args.get(i + 1) else { usage() };
                flags.out = Some(PathBuf::from(dir));
                i += 2;
            }
            "--local-repair" => {
                flags.local_repair = true;
                i += 1;
            }
            "--seed" => {
                let Some(n) = args.get(i + 1).and_then(|s| s.parse().ok()) else { usage() };
                flags.seed = Some(n);
                i += 2;
            }
            "--pods" => {
                let Some(n) = args.get(i + 1).and_then(|s| s.parse().ok()) else { usage() };
                flags.pods = Some(n);
                i += 2;
            }
            a => {
                positional.push(a);
                i += 1;
            }
        }
    }
    (positional, flags)
}

/// Resolve `--pods` into fabric parameters (2-PoD paper testbed default).
fn params_for(pods: Option<usize>) -> ClosParams {
    match pods {
        None | Some(2) => ClosParams::two_pod(),
        Some(p) => ClosParams::scaled(p).unwrap_or_else(|e| {
            eprintln!("--pods {p}: {e}");
            std::process::exit(2);
        }),
    }
}

fn parse_tc(s: &str) -> FailureCase {
    match s.to_ascii_lowercase().as_str() {
        "tc1" => FailureCase::Tc1,
        "tc2" => FailureCase::Tc2,
        "tc3" => FailureCase::Tc3,
        "tc4" => FailureCase::Tc4,
        other => {
            eprintln!("unknown failure case {other:?} (tc1..tc4)");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = 42;
    match args.first().map(String::as_str) {
        Some("figures") => {
            eprintln!("running failure matrices (this fans out over all CPUs)…");
            let near = figures::failure_matrix(TrafficDir::NearToFar, seed);
            let far = figures::failure_matrix(TrafficDir::FarToNear, seed);
            println!("{}", figures::fig1_stack_comparison(seed).render());
            println!("{}", figures::fig4_convergence(&near).render());
            println!("{}", figures::fig5_blast_radius(&near).render());
            println!("{}", figures::fig6_control_overhead(&near).render());
            println!("{}", figures::fig_packet_loss(&near, true).render());
            println!("{}", figures::fig_packet_loss(&far, false).render());
            println!("{}", figures::fig9_keepalive(seed).render());
            println!("{}", figures::config_comparison().render());
            println!("{}", figures::table_size_comparison(seed).render());
        }
        Some("scenario") => {
            let (pos, flags) = split_flags(&args[1..]);
            let (Some(&stack), Some(&tc)) = (pos.first(), pos.get(1)) else { usage() };
            let dir = match pos.get(2).copied() {
                Some("far") => TrafficDir::FarToNear,
                _ => TrafficDir::NearToFar,
            };
            let s = RunSpec::new(params_for(flags.pods), parse_stack(stack))
                .failing(parse_tc(tc))
                .with_traffic(dir)
                .seeded(flags.seed.unwrap_or(seed))
                .with_local_repair(flags.local_repair);
            let r = if let Some(pdir) = flags.profile_out {
                // Profiled run: host-clock observation only, digests and
                // metrics identical to an unprofiled run.
                let p = dcn_experiments::run_profiled(
                    s.with_telemetry(dcn_telemetry::TelemetryConfig::default()),
                );
                eprint!("{}", p.report.render_text());
                let sub = pdir.join(format!("profile-{}-{}", stack, tc.to_ascii_lowercase()));
                match dcn_experiments::write_profile_artifacts(&p.report, &sub) {
                    Ok(paths) => {
                        for path in paths {
                            eprintln!("wrote {}", path.display());
                        }
                    }
                    Err(e) => eprintln!("profile write to {} failed: {e}", sub.display()),
                }
                if let Some(out) = flags.telemetry_out {
                    let sub = out.join(format!("scenario-{}-{}", stack, tc.to_ascii_lowercase()));
                    match dcn_experiments::bundle_from_profiled(&p, &s).write(&sub) {
                        Ok(_) => eprintln!("trace bundle written to {}", sub.display()),
                        Err(e) => eprintln!("bundle write to {} failed: {e}", sub.display()),
                    }
                }
                p.run.result
            } else {
                match flags.telemetry_out {
                    None => run(s),
                    Some(out) => {
                        // Instrumented run: identical event processing, plus
                        // a trace bundle on disk.
                        let ir = dcn_experiments::run_instrumented(
                            s.with_telemetry(dcn_telemetry::TelemetryConfig::default()),
                        );
                        let sub =
                            out.join(format!("scenario-{}-{}", stack, tc.to_ascii_lowercase()));
                        match dcn_experiments::bundle_from_run(&ir, &s).write(&sub) {
                            Ok(_) => eprintln!("trace bundle written to {}", sub.display()),
                            Err(e) => eprintln!("bundle write to {} failed: {e}", sub.display()),
                        }
                        ir.result
                    }
                }
            };
            println!("convergence_ms   {}", r.convergence_ms.map(|v| format!("{v:.1}")).unwrap_or("-".into()));
            println!("blast_radius     {}", r.blast_radius);
            println!("control_bytes    {}", r.control_bytes);
            println!("update_frames    {}", r.update_frames);
            if let Some(l) = r.loss {
                println!(
                    "packet_loss      {} / {} ({:.2}%)  dup {}  ooo {}",
                    l.lost(),
                    l.sent,
                    100.0 * l.loss_ratio(),
                    l.duplicates,
                    l.out_of_order
                );
            }
            println!(
                "keepalive        {:.0} B/s fabric-wide, {:.0} B/frame",
                r.keepalive.bytes_per_sec, r.keepalive.avg_frame_len
            );
            println!("post-failure frame classes:");
            for (class, frames, bytes) in &r.breakdown {
                println!("  {class:<10} {frames:>8} frames  {bytes:>10} B");
            }
        }
        Some("profile") => {
            let (pos, flags) = split_flags(&args[1..]);
            let (Some(&stack), Some(&tc)) = (pos.first(), pos.get(1)) else { usage() };
            let s = RunSpec::new(params_for(flags.pods), parse_stack(stack))
                .failing(parse_tc(tc))
                .with_traffic(TrafficDir::NearToFar)
                .seeded(flags.seed.unwrap_or(seed))
                .with_local_repair(flags.local_repair);
            let p = dcn_experiments::run_profiled(s);
            print!("{}", p.report.render_text());
            if let Some(dir) = flags.out {
                match dcn_experiments::write_profile_artifacts(&p.report, &dir) {
                    Ok(paths) => {
                        for path in paths {
                            eprintln!("wrote {}", path.display());
                        }
                    }
                    Err(e) => {
                        eprintln!("profile write to {} failed: {e}", dir.display());
                        std::process::exit(2);
                    }
                }
            }
        }
        Some("report") => {
            let (pos, flags) = split_flags(&args[1..]);
            let (Some(&stack), Some(&tc)) = (pos.first(), pos.get(1)) else { usage() };
            let r = dcn_experiments::report::build_spec(
                RunSpec::new(ClosParams::two_pod(), parse_stack(stack))
                    .failing(parse_tc(tc))
                    .seeded(flags.seed.unwrap_or(seed))
                    .with_local_repair(flags.local_repair),
            );
            print!("{}", r.text);
            if let Some(out) = flags.telemetry_out {
                let sub = out.join(format!("report-{}-{}", stack, tc.to_ascii_lowercase()));
                match dcn_experiments::bundle_from_run(&r.run, &r.spec).write(&sub) {
                    Ok(_) => eprintln!("trace bundle written to {}", sub.display()),
                    Err(e) => eprintln!("bundle write to {} failed: {e}", sub.display()),
                }
            }
        }
        Some("listings") => println!("{}", figures::render_listings(seed)),
        Some("sweep") => {
            let max: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(8);
            let pods: Vec<usize> = (1..=max / 2).map(|i| i * 2).collect();
            println!("{}", figures::scale_sweep(&pods, seed).render());
            println!("{}", figures::tier_comparison(seed).render());
        }
        Some("extended") => {
            println!("{}", dcn_experiments::extended_failures::extended_failure_figure(seed).render());
            println!("{}", figures::encap_overhead_figure(seed).render());
        }
        Some("replicate") => {
            let (pos, flags) = split_flags(&args[1..]);
            let n: u64 = pos.first().and_then(|s| s.parse().ok()).unwrap_or(5);
            let seeds: Vec<u64> = (1..=n).collect();
            eprintln!("replicating Fig. 4 over {n} seeds…");
            println!(
                "{}",
                dcn_experiments::replicate::fig4_replicated(&seeds, flags.local_repair).render()
            );
            if let Some(out) = flags.telemetry_out {
                // One instrumented replication per stack on the headline
                // case (TC1, 2-PoD), a bundle per seed.
                for stack in Stack::ALL {
                    let s = RunSpec::new(ClosParams::two_pod(), stack)
                        .failing(FailureCase::Tc1)
                        .with_local_repair(flags.local_repair);
                    let r = dcn_experiments::replicate::run_replicated_instrumented(s, &seeds, &out);
                    if let Some(c) = r.convergence_ms {
                        eprintln!("{}: TC1 convergence {} ms", stack.label(), c.render(1));
                    }
                }
            }
        }
        Some("ablations") => {
            println!("{}", ablations::ablation_slow_to_accept(seed).render());
            println!("{}", ablations::ablation_loss_holddown(seed).render());
            println!("{}", ablations::sweep_mrmtp_hello(seed).render());
            println!("{}", ablations::sweep_bfd_interval(seed).render());
        }
        Some("chaos") => {
            let mut cfg = dcn_experiments::CampaignConfig::default();
            let mut i = 1;
            while i < args.len() {
                let val = |i: usize| -> &str {
                    args.get(i + 1).map(String::as_str).unwrap_or_else(|| usage())
                };
                match args[i].as_str() {
                    "--seeds" => cfg.seeds = val(i).parse().unwrap_or_else(|_| usage()),
                    "--base-seed" => cfg.base_seed = val(i).parse().unwrap_or_else(|_| usage()),
                    "--threads" => cfg.threads = val(i).parse().unwrap_or_else(|_| usage()),
                    "--stacks" => cfg.stacks = val(i).split(',').map(parse_stack).collect(),
                    "--flaps" => cfg.chaos.flaps = val(i).parse().unwrap_or_else(|_| usage()),
                    "--crashes" => cfg.chaos.crashes = val(i).parse().unwrap_or_else(|_| usage()),
                    "--k" => cfg.chaos.k_concurrent = val(i).parse().unwrap_or_else(|_| usage()),
                    "--loss-ppm" => {
                        cfg.chaos.impairment.loss_ppm = val(i).parse().unwrap_or_else(|_| usage())
                    }
                    "--corrupt-ppm" => {
                        cfg.chaos.impairment.corrupt_ppm =
                            val(i).parse().unwrap_or_else(|_| usage())
                    }
                    "--local-repair" => {
                        cfg.chaos.local_repair = true;
                        i += 1;
                        continue;
                    }
                    "--traffic-pairs" => {
                        cfg.chaos.traffic_pairs = val(i).parse().unwrap_or_else(|_| usage())
                    }
                    "--no-determinism" => {
                        cfg.check_determinism = false;
                        i += 1;
                        continue;
                    }
                    "--telemetry-out" => cfg.telemetry_out = Some(PathBuf::from(val(i))),
                    "--profile-out" => cfg.profile_out = Some(PathBuf::from(val(i))),
                    _ => usage(),
                }
                i += 2;
            }
            if cfg.seeds == 0 || cfg.stacks.is_empty() {
                eprintln!("chaos: need at least one seed and one stack");
                std::process::exit(2);
            }
            eprintln!(
                "chaos campaign: {} seeds × {} stacks (determinism check: {})…",
                cfg.seeds,
                cfg.stacks.len(),
                if cfg.check_determinism { "on" } else { "off" }
            );
            let result = dcn_experiments::chaos::run_campaign(&cfg);
            println!("{}", dcn_experiments::chaos::campaign_summary(&cfg, &result).render());
            let v = result.violations();
            if v > 0 {
                eprintln!("FAIL: {v} invariant violation(s)");
                for r in result.runs.iter().filter(|r| r.violations() > 0) {
                    eprintln!(
                        "  seed {} stack {}: loops {} blackholes {} unreachable {} converged {} deterministic {}",
                        r.seed,
                        r.stack.label(),
                        r.loops,
                        r.black_holes,
                        r.unreachable_pairs,
                        r.converged,
                        r.deterministic
                    );
                }
                std::process::exit(1);
            }
            println!("OK: all invariants held across every seed");
        }
        Some("campaign") => {
            let action = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            match action {
                "run" => {
                    let mut spec_arg: Option<String> = None;
                    let mut out: Option<PathBuf> = None;
                    let mut threads = 0usize;
                    let mut seeds: Option<u64> = None;
                    let mut quick = false;
                    let mut profile = false;
                    let mut i = 2;
                    while i < args.len() {
                        let val = |i: usize| -> &str {
                            args.get(i + 1).map(String::as_str).unwrap_or_else(|| usage())
                        };
                        match args[i].as_str() {
                            "--out" => {
                                out = Some(PathBuf::from(val(i)));
                                i += 2;
                            }
                            "--threads" => {
                                threads = val(i).parse().unwrap_or_else(|_| usage());
                                dcn_experiments::warn_if_oversubscribed(threads);
                                i += 2;
                            }
                            "--seeds" => {
                                seeds = Some(val(i).parse().unwrap_or_else(|_| usage()));
                                i += 2;
                            }
                            "--quick" => {
                                quick = true;
                                i += 1;
                            }
                            "--profile" => {
                                profile = true;
                                i += 1;
                            }
                            a if spec_arg.is_none() && !a.starts_with("--") => {
                                spec_arg = Some(a.to_string());
                                i += 1;
                            }
                            _ => usage(),
                        }
                    }
                    let Some(out) = out else {
                        eprintln!("campaign run: --out DIR is required");
                        std::process::exit(2);
                    };
                    let mut spec = match spec_arg.as_deref() {
                        None | Some("default") => CampaignSpec::default(),
                        Some(path) => {
                            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                                eprintln!("campaign: read spec {path}: {e}");
                                std::process::exit(2);
                            });
                            CampaignSpec::parse(&text).unwrap_or_else(|e| {
                                eprintln!("campaign: {e}");
                                std::process::exit(2);
                            })
                        }
                    };
                    if let Some(n) = seeds {
                        spec.seeds = n;
                    }
                    spec.quick |= quick;
                    eprintln!(
                        "campaign {:?}: {} run(s) fanning out over {}…",
                        spec.name,
                        spec.total_runs(),
                        if threads == 0 { "all cores".to_string() } else { format!("{threads} thread(s)") },
                    );
                    match campaign::run_to_store(&spec, &out, threads, profile) {
                        Ok((store, records)) => {
                            println!("{}", campaign::summary(&records).render());
                            eprintln!("{} record(s) appended to {}", records.len(), store.dir().display());
                        }
                        Err(e) => {
                            eprintln!("campaign: {e}");
                            std::process::exit(2);
                        }
                    }
                }
                "report" => {
                    let Some(dir) = args.get(2) else { usage() };
                    let store = campaign::store::Store::open(&PathBuf::from(dir)).unwrap_or_else(|e| {
                        eprintln!("campaign: {e}");
                        std::process::exit(2);
                    });
                    let records = store.records().unwrap_or_else(|e| {
                        eprintln!("campaign: {e}");
                        std::process::exit(2);
                    });
                    let name = store
                        .index()
                        .ok()
                        .and_then(|ix| ix.get("name").and_then(|n| n.as_str().map(str::to_string)))
                        .unwrap_or_default();
                    eprintln!("store {:?}: {} record(s)", name, records.len());
                    println!("{}", campaign::summary(&records).render());
                }
                "diff" => {
                    let (Some(a), Some(b)) = (args.get(2), args.get(3)) else { usage() };
                    let mut threshold = 0.05;
                    let mut i = 4;
                    while i < args.len() {
                        match args[i].as_str() {
                            "--threshold" => {
                                let pct: f64 = args
                                    .get(i + 1)
                                    .and_then(|s| s.parse().ok())
                                    .unwrap_or_else(|| usage());
                                threshold = pct / 100.0;
                                i += 2;
                            }
                            _ => usage(),
                        }
                    }
                    let open_latest = |dir: &String| {
                        campaign::store::Store::open(&PathBuf::from(dir))
                            .and_then(|s| s.latest())
                            .unwrap_or_else(|e| {
                                eprintln!("campaign: {e}");
                                std::process::exit(2);
                            })
                    };
                    let report = campaign::diff::diff(&open_latest(a), &open_latest(b), threshold);
                    print!("{}", report.render());
                    if report.has_drift() {
                        std::process::exit(1);
                    }
                }
                _ => usage(),
            }
        }
        Some("keepalive") => {
            println!("{}", figures::fig9_keepalive(seed).render());
            println!("{}", figures::fig1_stack_comparison(seed).render());
        }
        Some("bench") => {
            let mut pods: Vec<usize> = vec![2, 4, 8, 16, 32, 64];
            let mut quick = false;
            let mut traffic = false;
            let mut out: Option<PathBuf> = None;
            let mut baseline: Option<PathBuf> = None;
            let mut profile_out: Option<PathBuf> = None;
            let mut i = 1;
            while i < args.len() {
                let val = |i: usize| -> &str {
                    args.get(i + 1).map(String::as_str).unwrap_or_else(|| usage())
                };
                match args[i].as_str() {
                    "--scale" => {
                        pods = val(i)
                            .split(',')
                            .map(|p| p.parse().unwrap_or_else(|_| usage()))
                            .collect();
                        i += 2;
                    }
                    "--quick" => {
                        quick = true;
                        i += 1;
                    }
                    "--traffic" => {
                        traffic = true;
                        i += 1;
                    }
                    "--out" => {
                        out = Some(PathBuf::from(val(i)));
                        i += 2;
                    }
                    "--baseline" => {
                        baseline = Some(PathBuf::from(val(i)));
                        i += 2;
                    }
                    "--profile-out" => {
                        profile_out = Some(PathBuf::from(val(i)));
                        i += 2;
                    }
                    _ => usage(),
                }
            }
            let write_out = |json: String, out: Option<PathBuf>| {
                if let Some(path) = out {
                    if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
                        eprintln!("bench: write to {} failed: {e}", path.display());
                        std::process::exit(2);
                    }
                    eprintln!("wrote {}", path.display());
                }
            };
            let read_baseline = |path: &PathBuf| -> String {
                std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("bench: read baseline {} failed: {e}", path.display());
                    std::process::exit(2);
                })
            };
            if traffic {
                eprintln!(
                    "traffic soak at {pods:?} PoDs, fast path vs slow path ({})…",
                    if quick { "quick" } else { "full" }
                );
                let report = match bench::run_traffic_bench(&pods, quick, seed) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("bench: {e}");
                        std::process::exit(2);
                    }
                };
                print!("{}", report.render_text());
                write_out(report.to_json().render(), out);
                if let Some(path) = baseline {
                    match bench::check_traffic_regression(&report, &read_baseline(&path), 0.20) {
                        Ok(()) => eprintln!("no regression vs {}", path.display()),
                        Err(e) => {
                            eprintln!("FAIL: {e}");
                            std::process::exit(1);
                        }
                    }
                }
                return;
            }
            eprintln!(
                "benchmarking scheduler + fabric scale at {pods:?} PoDs ({})…",
                if quick { "quick" } else { "full" }
            );
            let report = match bench::run_bench(&pods, quick, seed) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("bench: {e}");
                    std::process::exit(2);
                }
            };
            print!("{}", report.render_text());
            write_out(report.to_json().render(), out);
            if let Some(path) = baseline {
                match bench::check_regression(&report, &read_baseline(&path), 0.20) {
                    Ok(()) => eprintln!("no regression vs {}", path.display()),
                    Err(e) => {
                        eprintln!("FAIL: {e}");
                        std::process::exit(1);
                    }
                }
            }
            if let Some(dir) = profile_out {
                // Full perf artifacts for the heaviest fabric in the
                // sweep: the point where time attribution matters.
                let top_pods = pods.iter().copied().max().unwrap_or(2);
                eprintln!("profiling {top_pods} PoDs…");
                match bench::profile_scale_run(top_pods, quick, seed) {
                    Ok(perf) => match dcn_experiments::write_profile_artifacts(&perf, &dir) {
                        Ok(paths) => {
                            for path in paths {
                                eprintln!("wrote {}", path.display());
                            }
                        }
                        Err(e) => {
                            eprintln!("bench: profile write to {} failed: {e}", dir.display());
                            std::process::exit(2);
                        }
                    },
                    Err(e) => {
                        eprintln!("bench: profile run failed: {e}");
                        std::process::exit(2);
                    }
                }
            }
        }
        _ => usage(),
    }
}

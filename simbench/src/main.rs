//! The simulator's benchmark: one command, one process, the sequential
//! engine only.
//!
//! ```text
//! simbench --workload <paper_grid|forwarding_soak> \
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` is the timed pass and prints every end-to-end metric;
//! `--trace 1` is the traced pass and prints every per-layer metric.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See README.md for the workloads and what each metric should move.

mod grid;
mod host;
mod runs;
mod soak;
mod stats;
#[cfg(test)]
mod tests;

use std::path::PathBuf;

use dcn_telemetry::Json;

use stats::Outcome;

// Allocations inside the routers' forwarding scopes are counted, as in
// `fcr`, so the traced pass can report allocations per forwarded hop.
#[global_allocator]
static ALLOC: dcn_sim::alloc_track::CountingAllocator = dcn_sim::alloc_track::CountingAllocator;

/// Workload size: the benchmark proper, or a seconds-long smoke version
/// of the same code paths for the unit tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    Full,
    Smoke,
}

/// Set-up is repeated between measured passes, at most this often, and
/// reported as its fastest sample (`stats::fast`): spread over the run,
/// its samples see the same host conditions as the passes.
pub const SETUP_EVERY: std::time::Duration = std::time::Duration::from_millis(500);

/// The traced pass must attribute all but this share of its wall time
/// to the layers it times.
pub const UNATTRIBUTED_BOUND: f64 = 0.10;

pub const WORKLOADS: [&str; 2] = ["paper_grid", "forwarding_soak"];

/// End-to-end metrics (`--trace 0`) and their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("runs_per_s", "1/s"),
    ("run_p50_ms", "ms"),
    ("run_p75_ms", "ms"),
    ("sim_s_per_host_s", "ratio"),
    ("events_per_s", "1/s"),
    ("fwd_pkts_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`) and their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topology.build_ms", "ms"),
    ("fabric.build_ms", "ms"),
    ("engine.warmup_ms", "ms"),
    ("engine.warmup_ns_per_event", "ns"),
    ("engine.warmup_cost_growth.mrmtp", "ratio"),
    ("engine.warmup_cost_growth.bgp", "ratio"),
    ("engine.warmup_cost_growth.bgp-bfd", "ratio"),
    ("engine.measure_ms", "ms"),
    ("engine.measure_ns_per_event", "ns"),
    ("engine.events", "count"),
    ("engine.frames_delivered", "count"),
    ("scheduler.pushes", "count"),
    ("scheduler.max_pending", "count"),
    ("scheduler.overflow_hits", "count"),
    ("engine.top_spine_event_share", "ratio"),
    ("trace.records", "count"),
    ("trace.record_ms", "ms"),
    ("digest.ms", "ms"),
    ("metrics.extract_ms", "ms"),
    ("storyboard.build_ms", "ms"),
    ("store.append_ms", "ms"),
    ("store.bytes", "B"),
    ("pool.busy_share", "ratio"),
    ("pool.imbalance", "ratio"),
    ("mrmtp.hellos_sent", "count"),
    ("mrmtp.updates_sent", "count"),
    ("bgp.updates_sent", "count"),
    ("bgp.keepalives_sent", "count"),
    ("bgp.sessions_established", "count"),
    ("fwd.ns_per_hop", "ns"),
    ("fwd.allocs_per_hop", "ratio"),
    ("traffic.delivered_ratio", "ratio"),
    ("unattributed_share", "ratio"),
    ("tracing.overhead_share", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: simbench --workload <paper_grid|forwarding_soak> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, got {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Run one workload in one mode.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    tmp: &std::path::Path,
) -> Result<Outcome, String> {
    match workload {
        "forwarding_soak" if trace => Ok(soak::run_traced(seed, size, seconds)),
        "forwarding_soak" => Ok(soak::run_timed(seed, size, seconds)),
        _ => {
            let w = grid::paper_grid(seed, size);
            if trace {
                grid::run_traced(&w, seconds, tmp)
            } else {
                grid::run_timed(&w, seconds, tmp)
            }
        }
    }
}

/// The result line: the declared metrics of this mode, each with its
/// unit. Fails if the workload did not produce one of them or produced
/// a non-finite value.
pub fn result_json(outcome: &Outcome, trace: bool) -> Result<Json, String> {
    let declared = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        let value = *outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push((
            name.to_string(),
            Json::obj(vec![
                ("value", Json::Float(value)),
                ("unit", Json::str(unit)),
            ]),
        ));
    }
    Ok(Json::obj(vec![
        ("correct", Json::Bool(outcome.tally.failed == 0)),
        ("attempted", Json::UInt(outcome.tally.attempted)),
        ("failed", Json::UInt(outcome.tally.failed)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Scratch space for the campaign stores, inside the working
    // directory, removed on exit.
    let tmp = PathBuf::from(format!(".simbench-tmp/{}", std::process::id()));
    println!("simbench host {}", host::fingerprint(args.seed).render());
    println!(
        "simbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let outcome = run(
        &args.workload,
        args.seed,
        args.seconds as f64,
        args.trace,
        Size::Full,
        &tmp,
    );
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".simbench-tmp");
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("simbench: {e}");
            std::process::exit(1);
        }
    };
    for note in &outcome.notes {
        println!("simbench {note}");
    }
    println!("simbench digest={:#018x}", outcome.digest);
    println!(
        "simbench fail_ratio={} ({} of {} operations failed)",
        outcome.tally.fail_ratio(),
        outcome.tally.failed,
        outcome.tally.attempted
    );
    for p in &outcome.tally.problems {
        println!("simbench FAILED {p}");
    }
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in declared {
        if let Some(v) = outcome.metrics.get(name) {
            println!("simbench {name} = {v} {unit}");
        }
    }
    match result_json(&outcome, args.trace) {
        Ok(json) => println!("{}", json.render()),
        Err(e) => {
            eprintln!("simbench: {e}");
            std::process::exit(1);
        }
    }
}

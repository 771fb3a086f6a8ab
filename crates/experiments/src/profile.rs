//! Profiled experiment runs: a [`RunSpec`] executed with the engine
//! profiler on, packaged as a [`dcn_telemetry::PerfReport`] and written
//! to disk as `perf_report.json` (the `perf_report/v3` schema) plus
//! `trace.chrome.json` (loadable in `chrome://tracing` / Perfetto).
//!
//! Profiling is a pure host-clock observation: the run's metrics and
//! per-seed trace digests are bit-identical with it on or off (the
//! equivalence suite enforces it), so `fcr profile` answers "where did
//! the wall time go" without changing what the simulation did.

use std::io;
use std::path::{Path, PathBuf};

use dcn_sim::{NodeId, Sim};
use dcn_telemetry::{host_cores, PerfReport, TraceBundle};

use crate::runspec::RunSpec;
use crate::scenario::{bundle_from_run, InstrumentedRun};

/// One profiled run: the ordinary instrumented result plus the engine
/// perf report extracted from the finished simulation.
pub struct ProfiledRun {
    pub run: InstrumentedRun,
    pub report: PerfReport,
}

/// Router/host names indexed by node id (hot-node attribution).
pub fn node_names(sim: &Sim) -> Vec<String> {
    (0..sim.node_count() as u32)
        .map(|i| sim.node_name(NodeId(i)).to_string())
        .collect()
}

/// Loud warning when a campaign asks for more pool threads than the
/// host has cores: the extra threads time-slice instead of running in
/// parallel, so per-run wall-clock numbers are inflated.
pub fn warn_if_oversubscribed(threads: usize) {
    let cores = host_cores();
    if cores > 0 && threads as u64 > cores {
        eprintln!(
            "WARNING: --threads {threads} exceeds the host's {cores} available core(s); \
             runs will time-slice and per-run wall-clock numbers will be inflated"
        );
    }
}

/// Execute `spec` with the profiler on and hand back the run plus its
/// [`PerfReport`].
pub fn run_profiled(spec: RunSpec) -> ProfiledRun {
    let spec = spec.with_profile(true);
    let mut run = spec.run_instrumented();
    let profile = run.built.sim.take_profile().expect("profiling was enabled");
    let names = node_names(&run.built.sim);
    let label = format!(
        "{} {} seed {}",
        spec.stack.slug(),
        spec.failure.map(|tc| tc.label()).unwrap_or("steady"),
        spec.seed
    );
    let report = PerfReport::new(profile, label, names);
    ProfiledRun { run, report }
}

/// [`bundle_from_run`] plus the perf artifacts: the replay bundle of a
/// profiled run carries `perf_report.json` and `trace.chrome.json`
/// alongside the spans/series/capture files.
pub fn bundle_from_profiled(p: &ProfiledRun, spec: &RunSpec) -> TraceBundle {
    let mut b = bundle_from_run(&p.run, spec);
    b.add_file("perf_report.json", p.report.to_json().render() + "\n");
    b.add_file("trace.chrome.json", p.report.to_chrome_trace());
    b
}

/// Write `perf_report.json` and `trace.chrome.json` under `dir`
/// (created if needed). Returns the paths written.
pub fn write_profile_artifacts(report: &PerfReport, dir: &Path) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    let json_path = dir.join("perf_report.json");
    std::fs::write(&json_path, report.to_json().render() + "\n")?;
    written.push(json_path);
    let trace_path = dir.join("trace.chrome.json");
    std::fs::write(&trace_path, report.to_chrome_trace())?;
    written.push(trace_path);
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Timing;
    use crate::Stack;
    use dcn_sim::time::{millis, secs};
    use dcn_telemetry::Json;
    use dcn_topology::{ClosParams, FailureCase};

    fn quick_spec() -> RunSpec {
        RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp)
            .failing(FailureCase::Tc1)
            .seeded(5)
            .timed(Timing {
                warmup: secs(2),
                traffic_lead: millis(100),
                post_failure: millis(500),
                drain: millis(100),
            })
    }

    #[test]
    fn profiled_run_attributes_the_whole_wall() {
        let p = run_profiled(quick_spec());
        let prof = p.report.profile();
        assert_eq!(prof.shards.len(), 1, "one engine profile");
        assert!(prof.total_events() > 0);
        let s = &prof.shards[0];
        let attributed = s.execute_ns + s.other_ns();
        // other_ns is derived as wall - execute (clamped), so the sum
        // reconstructs the wall exactly unless execute overshot wall by
        // clock noise — tolerate 5% as the acceptance bound asks.
        assert!(
            (attributed as f64 - s.wall_ns as f64).abs() <= s.wall_ns as f64 * 0.05,
            "attributed {attributed} vs wall {}",
            s.wall_ns
        );
        assert!(s.wall_ns > 0, "the engine saw wall time");
        // The run's ordinary metrics still came out.
        assert!(p.run.result.convergence_ms.is_some());
    }

    #[test]
    fn artifacts_write_and_parse() {
        let p = run_profiled(quick_spec());
        let dir = std::env::temp_dir().join(format!("dcn-perf-test-{}", std::process::id()));
        let written = write_profile_artifacts(&p.report, &dir).unwrap();
        assert_eq!(written.len(), 2);
        let report = std::fs::read_to_string(dir.join("perf_report.json")).unwrap();
        let doc = Json::parse(report.trim()).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("perf_report/v3"));
        let trace = std::fs::read_to_string(dir.join("trace.chrome.json")).unwrap();
        let tdoc = Json::parse(trace.trim()).unwrap();
        assert!(!tdoc.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn profiled_bundle_carries_the_perf_files() {
        let spec = quick_spec();
        let p = run_profiled(spec);
        let b = bundle_from_profiled(&p, &spec);
        let names: Vec<&str> = b.files().iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"perf_report.json"), "{names:?}");
        assert!(names.contains(&"trace.chrome.json"), "{names:?}");
    }
}

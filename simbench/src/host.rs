//! Host facts every output records, and the process-level clocks and
//! memory readings the end-to-end metrics use (Linux).

use dcn_telemetry::Json;

/// What makes two outputs comparable: the code revision, the host's
/// core count and CPU, the compiler, and the workload seed.
pub fn fingerprint(seed: u64) -> Json {
    Json::obj(vec![
        ("git_revision", Json::str(git_revision())),
        ("nproc", Json::UInt(nproc() as u64)),
        ("cpu_model", Json::str(cpu_model())),
        ("rustc", Json::str(env!("SIMBENCH_RUSTC_VERSION"))),
        ("seed", Json::UInt(seed)),
    ])
}

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` in the working directory
/// (no `git` process). `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` on Linux.
const PROCESS_CPU_CLOCK: i32 = 2;
const THREAD_CPU_CLOCK: i32 = 3;

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), the only memory clock_gettime writes.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "the CPU-time clocks are always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds consumed by every thread of this process so far,
/// including threads that have already exited.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(PROCESS_CPU_CLOCK)
}

/// CPU seconds consumed by the calling thread so far.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(THREAD_CPU_CLOCK)
}

/// Reset the kernel's peak-RSS watermark so the next [`peak_rss_mib`]
/// covers only later work (as `fcr bench` does per row).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (VmHWM) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

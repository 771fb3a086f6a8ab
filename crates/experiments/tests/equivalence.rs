//! Equivalence suite for the engine's *invisible* optimizations.
//!
//! Two independent substitutions must never change observable behavior:
//!
//! 1. **Scheduler backends** — the timer wheel must be a drop-in
//!    replacement for the reference binary heap.
//! 2. **The data-plane fast path** — compiled FIBs plus parse-once frame
//!    metadata must forward every packet exactly as the slow path's
//!    decode → table-walk → re-encode does.
//!
//! For every paper failure case on both protocol stacks, and for
//! randomized chaos schedules, a run's trace digest must be
//! bit-identical whichever variant the spec selects — same events, same
//! order, same bytes on the wire.

use dcn_experiments::chaos::{run_chaos, trace_digest};
use dcn_experiments::{run_digest, ChaosConfig, RunSpec, Stack, TrafficDir};
use dcn_sim::time::{MICROS, MILLIS, SECONDS};
use dcn_sim::{Impairment, SchedulerKind};
use dcn_topology::{ClosParams, FailureCase};

fn digests_match(spec: RunSpec) {
    let heap = run_digest(spec.with_scheduler(SchedulerKind::Heap));
    let wheel = run_digest(spec.with_scheduler(SchedulerKind::Wheel));
    assert_eq!(heap, wheel, "backends diverged for {spec:?}");
}

#[test]
fn tc_cases_digest_identically_on_mrmtp() {
    for tc in [FailureCase::Tc1, FailureCase::Tc2, FailureCase::Tc3, FailureCase::Tc4] {
        digests_match(RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp).failing(tc));
    }
}

#[test]
fn tc_cases_digest_identically_on_bgp() {
    for tc in [FailureCase::Tc1, FailureCase::Tc2, FailureCase::Tc3, FailureCase::Tc4] {
        digests_match(RunSpec::new(ClosParams::two_pod(), Stack::BgpEcmp).failing(tc));
    }
}

#[test]
fn traffic_and_bfd_digest_identically() {
    // The headline data-plane case (traffic pins the flow onto the
    // failure chain) and the BFD stack, one TC each to bound runtime.
    digests_match(
        RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp)
            .failing(FailureCase::Tc1)
            .with_traffic(TrafficDir::NearToFar),
    );
    digests_match(RunSpec::new(ClosParams::two_pod(), Stack::BgpEcmpBfd).failing(FailureCase::Tc1));
}

/// A trimmed chaos config (short windows, light impairment) so three
/// seeds × two backends stay test-suite friendly.
fn quick_chaos() -> ChaosConfig {
    ChaosConfig {
        flaps: 3,
        crashes: 1,
        k_concurrent: 2,
        warmup: 2 * SECONDS,
        window: 2 * SECONDS,
        settle: 4 * SECONDS,
        convergence_bound: 4 * SECONDS,
        min_dwell: 100 * MILLIS,
        max_dwell: 500 * MILLIS,
        impairment: Impairment { loss_ppm: 1_000, corrupt_ppm: 5_000, jitter: 20 * MICROS },
        flows_per_pair: 1,
        ..ChaosConfig::default()
    }
}

#[test]
fn chaos_seeds_digest_identically_across_backends() {
    for seed in [11u64, 12, 13] {
        let heap_cfg = ChaosConfig { scheduler: SchedulerKind::Heap, ..quick_chaos() };
        let wheel_cfg = ChaosConfig { scheduler: SchedulerKind::Wheel, ..quick_chaos() };
        let heap = run_chaos(seed, Stack::Mrmtp, &heap_cfg);
        let wheel = run_chaos(seed, Stack::Mrmtp, &wheel_cfg);
        assert_eq!(
            heap.digest, wheel.digest,
            "chaos seed {seed}: backends diverged"
        );
    }
}

// ----------------------------------------------------------------------
// Fast-path equivalence: compiled FIBs + parse-once metadata on vs off
// ----------------------------------------------------------------------

fn fast_path_invisible(spec: RunSpec) {
    let on = run_digest(spec.with_fast_path(true));
    let off = run_digest(spec.with_fast_path(false));
    assert_eq!(on, off, "fast path changed behavior for {spec:?}");
}

#[test]
fn fast_path_digest_identical_on_mrmtp_tc_cases() {
    // Traffic pins monitored flows onto the failure chain so the digest
    // covers data forwarding through the event, not just control plane.
    for tc in [FailureCase::Tc1, FailureCase::Tc2, FailureCase::Tc3, FailureCase::Tc4] {
        fast_path_invisible(
            RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp)
                .failing(tc)
                .with_traffic(TrafficDir::NearToFar),
        );
    }
}

#[test]
fn fast_path_digest_identical_on_bgp_tc_cases() {
    for tc in [FailureCase::Tc1, FailureCase::Tc2, FailureCase::Tc3, FailureCase::Tc4] {
        fast_path_invisible(
            RunSpec::new(ClosParams::two_pod(), Stack::BgpEcmp)
                .failing(tc)
                .with_traffic(TrafficDir::FarToNear),
        );
    }
}

#[test]
fn fast_path_digest_identical_with_bfd() {
    fast_path_invisible(
        RunSpec::new(ClosParams::two_pod(), Stack::BgpEcmpBfd)
            .failing(FailureCase::Tc1)
            .with_traffic(TrafficDir::NearToFar),
    );
}

#[test]
fn fast_path_digest_identical_under_chaos() {
    // Chaos adds loss, corruption, jitter, flaps, and crashes — the
    // fast path must shrug all of it off (corrupted frames drop their
    // metadata in transit and fall back to the slow path).
    for seed in [21u64, 22] {
        let on = run_chaos(seed, Stack::Mrmtp, &ChaosConfig { fast_path: true, ..quick_chaos() });
        let off = run_chaos(seed, Stack::Mrmtp, &ChaosConfig { fast_path: false, ..quick_chaos() });
        assert_eq!(on.digest, off.digest, "chaos seed {seed}: fast path diverged");
    }
    let on = run_chaos(23, Stack::BgpEcmp, &ChaosConfig { fast_path: true, ..quick_chaos() });
    let off = run_chaos(23, Stack::BgpEcmp, &ChaosConfig { fast_path: false, ..quick_chaos() });
    assert_eq!(on.digest, off.digest, "chaos seed 23: fast path diverged on BGP");
}

// ----------------------------------------------------------------------
// Local-repair off-mode: bit-identical to the pre-repair engine
// ----------------------------------------------------------------------

/// Golden trace digests freezing the default configuration's observable
/// behavior (regenerate with
/// `cargo run --release -p dcn-experiments --example golden_digests`).
/// With `local_repair` off — the default — the backup-FIB compilation,
/// the repair lookup stages, and the `repaired` frame flag must all be
/// invisible: same events, same order, same bytes on the wire. Last
/// regenerated when event ordering moved from queue-insertion sequence
/// to content-derived `(creator, counter)` keys (the sharded-engine
/// prerequisite), which legitimately re-ordered same-instant events.
#[test]
fn local_repair_off_matches_pre_change_golden_digests() {
    const TC_GOLDEN: [(Stack, FailureCase, u64); 8] = [
        (Stack::Mrmtp, FailureCase::Tc1, 0x00ff3614cf01e8ba),
        (Stack::Mrmtp, FailureCase::Tc2, 0xe132178c1aba0cc0),
        (Stack::Mrmtp, FailureCase::Tc3, 0xdccf015a95ed2df4),
        (Stack::Mrmtp, FailureCase::Tc4, 0xc983295775a7438b),
        (Stack::BgpEcmp, FailureCase::Tc1, 0x0a357ba1af20277d),
        (Stack::BgpEcmp, FailureCase::Tc2, 0x20cfbc45434d44c0),
        (Stack::BgpEcmp, FailureCase::Tc3, 0x566b7dc8b4654688),
        (Stack::BgpEcmp, FailureCase::Tc4, 0x48cbac3a7516733c),
    ];
    for (stack, tc, golden) in TC_GOLDEN {
        let dir = match stack {
            Stack::Mrmtp => TrafficDir::NearToFar,
            _ => TrafficDir::FarToNear,
        };
        let d = run_digest(
            RunSpec::new(ClosParams::two_pod(), stack)
                .failing(tc)
                .with_traffic(dir),
        );
        assert_eq!(
            d, golden,
            "{} {tc:?}: off-mode digest drifted from the pre-repair golden",
            stack.label(),
        );
    }
    const CHAOS_GOLDEN: [(Stack, u64, u64); 3] = [
        (Stack::Mrmtp, 21, 0xba830cb9147a6072),
        (Stack::Mrmtp, 22, 0xe5ffeae81d0460da),
        (Stack::BgpEcmp, 23, 0xb4df7391f642ba29),
    ];
    for (stack, seed, golden) in CHAOS_GOLDEN {
        let r = run_chaos(seed, stack, &quick_chaos());
        assert_eq!(
            r.digest, golden,
            "{} chaos seed {seed}: off-mode digest drifted from the pre-repair golden",
            stack.label(),
        );
    }
}

// ----------------------------------------------------------------------
// Engine profiler: a pure host-clock observer, digests identical on/off
// ----------------------------------------------------------------------

/// The profiler reads `Instant` and fills pre-sized buffers; it never
/// touches event content, ordering, or the simulated clock. A profiled
/// run must therefore produce a bit-identical trace digest.
fn profiler_invisible(spec: RunSpec) {
    assert_eq!(
        run_digest(spec),
        run_digest(spec.with_profile(true)),
        "profiler changed the digest for {spec:?}"
    );
}

#[test]
fn profiler_digest_identical_on_mrmtp_tc_cases() {
    for tc in [FailureCase::Tc1, FailureCase::Tc2, FailureCase::Tc3, FailureCase::Tc4] {
        profiler_invisible(
            RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp)
                .failing(tc)
                .with_traffic(TrafficDir::NearToFar),
        );
    }
}

#[test]
fn profiler_digest_identical_on_bgp_tc_cases() {
    for tc in [FailureCase::Tc1, FailureCase::Tc2, FailureCase::Tc3, FailureCase::Tc4] {
        profiler_invisible(
            RunSpec::new(ClosParams::two_pod(), Stack::BgpEcmp)
                .failing(tc)
                .with_traffic(TrafficDir::FarToNear),
        );
    }
}

#[test]
fn profiler_digest_identical_under_chaos() {
    // Loss, corruption, jitter, flaps, and crashes: the profiler's
    // window records must stay a read-only side channel.
    for (stack, seed) in [(Stack::Mrmtp, 11u64), (Stack::BgpEcmp, 12)] {
        let bare = run_chaos(seed, stack, &quick_chaos());
        let cfg = ChaosConfig { profile: true, ..quick_chaos() };
        let profiled = run_chaos(seed, stack, &cfg);
        assert_eq!(
            bare.digest,
            profiled.digest,
            "{} chaos seed {seed}: profiler changed the digest",
            stack.label(),
        );
    }
}

#[test]
fn steady_state_digest_identical_without_failure() {
    let spec = RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp);
    let heap = {
        let s = spec.with_scheduler(SchedulerKind::Heap);
        let ir = dcn_experiments::run_instrumented(s);
        trace_digest(&ir.built.sim)
    };
    let wheel = {
        let s = spec.with_scheduler(SchedulerKind::Wheel);
        let ir = dcn_experiments::run_instrumented(s);
        trace_digest(&ir.built.sim)
    };
    assert_eq!(heap, wheel, "telemetry-instrumented runs diverged");
}

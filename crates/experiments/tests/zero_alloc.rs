//! The zero-allocation forwarding gate, measured rather than asserted.
//!
//! This test binary installs the counting `#[global_allocator]` (which
//! library unit tests cannot), soaks a converged fabric with cross-pod
//! traffic, and checks the headline fast-path claims:
//!
//! * **MR-MTP transit forwards with zero heap allocations.** Frames are
//!   immutable and refcounted, the compiled FIB is rebuilt only on
//!   route/port change, and ECMP picks a port by masking a bitset — so
//!   steady-state forwarding touches the allocator not at all.
//! * **BGP transit allocates exactly once per packet.** The TTL
//!   decrement + checksum rewrite forces one fresh buffer per hop
//!   (`FrameBuf::mutate_copy`); that's the cost of mutating IPv4
//!   headers in flight and is documented in DESIGN.md, not a
//!   regression.

use dcn_experiments::{build_fabric_sim, flows, BuiltSim, Stack, StackTuning};
use dcn_sim::alloc_track;
use dcn_sim::time::{MICROS, MILLIS, SECONDS};
use dcn_sim::{NodeId, PortId};
use dcn_topology::{Addressing, ClosParams, Fabric, FailureCase};
use dcn_traffic::SendSpec;

#[global_allocator]
static ALLOC: alloc_track::CountingAllocator = alloc_track::CountingAllocator;

/// Converge a 2-pod fabric with four cross-pod flows, reset the counters
/// at steady state, run one more second, and return
/// (forwarded packets, allocations inside forwarding scopes). With
/// `profile` the engine profiler records every window into pre-sized
/// buffers — outside every forwarding scope. The counters are
/// per-thread, so soaks running concurrently on other test threads
/// cannot disturb each other's counts.
fn soak(stack: Stack, profile: bool) -> (u64, u64) {
    let params = ClosParams::two_pod();
    let fabric = Fabric::build(params);
    let addr = Addressing::new(&fabric);
    let warmup = if stack == Stack::Mrmtp { 2 * SECONDS } else { 6 * SECONDS };
    let stop = warmup + 2 * SECONDS;
    let mut senders = Vec::new();
    for t in 0..params.tors_per_pod {
        let spec = |dst_tor: usize| {
            let mut s = SendSpec::new(
                addr.server_addr(dst_tor, 0).expect("server address"),
                warmup,
                stop,
            );
            s.interval = 100 * MICROS;
            s
        };
        senders.push((fabric.server(0, t, 0), spec(fabric.tor(1, t))));
        senders.push((fabric.server(1, t, 0), spec(fabric.tor(0, t))));
    }
    let tuning = StackTuning { profile, ..StackTuning::default() };
    let mut built = build_fabric_sim(fabric, stack, 7, &senders, tuning);
    built.sim.run_until(warmup);
    alloc_track::reset();
    built.sim.run_until(warmup + SECONDS);
    (alloc_track::forwarded(), alloc_track::scoped_allocs())
}

/// Like [`soak`], but with local fast reroute armed and the TC1
/// interface failure injected mid-measurement, the flow pinned onto the
/// failure chain at 25 µs pacing so the repair lookup stages genuinely
/// run (direction per stack as established by `tests/local_repair.rs`:
/// MR-MTP engages its backup detour far-to-near at holddown hops, BGP
/// re-spreads near-to-far at the carrier-side hop). Returns
/// (forwarded, scoped allocations, locally-repaired packets).
fn repair_soak(stack: Stack) -> (u64, u64, u64) {
    let params = ClosParams::two_pod();
    let fabric = Fabric::build(params);
    let addr = Addressing::new(&fabric);
    let near_ip = addr.server_addr(fabric.tor(0, 0), 0).expect("near server");
    let far_ip = addr.server_addr(fabric.tor(1, params.tors_per_pod - 1), 0).expect("far server");
    let (src_node, src_ip, dst_ip) = match stack {
        Stack::Mrmtp => (fabric.server(1, params.tors_per_pod - 1, 0), far_ip, near_ip),
        _ => (fabric.server(0, 0, 0), near_ip, far_ip),
    };
    let warmup = if stack == Stack::Mrmtp { 2 * SECONDS } else { 6 * SECONDS };
    let fail_at = warmup + 50 * MILLIS;
    let end = fail_at + 100 * MILLIS;
    let widths = [params.spines_per_pod, params.uplinks_per_spine];
    let (sp, dp) = flows::pin_flow(src_ip, dst_ip, &widths);
    let mut spec = SendSpec::new(dst_ip, warmup, end);
    spec.src_port = sp;
    spec.dst_port = dp;
    spec.interval = 25 * MICROS;
    let tuning = StackTuning { local_repair: true, ..StackTuning::default() };
    let mut built = build_fabric_sim(fabric, stack, 7, &[(src_node, spec)], tuning);
    built.sim.run_until(warmup);
    alloc_track::reset();
    let (node, port) = built.fabric.failure_point(FailureCase::Tc1);
    built.sim.schedule_port_down(fail_at, NodeId(node as u32), PortId(port as u16));
    built.sim.run_until(end);
    (alloc_track::forwarded(), alloc_track::scoped_allocs(), repaired_total(&built))
}

/// Sum `locally_repaired` over every router.
fn repaired_total(built: &BuiltSim) -> u64 {
    let mut repaired = 0;
    for (i, node) in built.fabric.nodes.iter().enumerate() {
        if !node.role.is_router() {
            continue;
        }
        repaired += match built.stack {
            Stack::Mrmtp => built.mrmtp(i).stats().locally_repaired,
            Stack::BgpEcmp | Stack::BgpEcmpBfd => built.bgp(i).stats().locally_repaired,
        };
    }
    repaired
}

#[test]
fn counting_allocator_is_live_in_this_binary() {
    let _v: Vec<u8> = Vec::with_capacity(64);
    assert!(
        alloc_track::counting_allocator_installed(),
        "global allocator not installed; the soak assertions below would be vacuous"
    );
}

#[test]
fn mrmtp_transit_forwards_without_allocating() {
    let (forwarded, allocs) = soak(Stack::Mrmtp, false);
    assert!(forwarded > 1_000, "soak too light to be meaningful: {forwarded} packets");
    assert_eq!(
        allocs, 0,
        "MR-MTP fast path allocated {allocs} times over {forwarded} forwards (expected 0)"
    );
}

#[test]
fn bgp_transit_allocates_exactly_once_per_packet() {
    let (forwarded, allocs) = soak(Stack::BgpEcmp, false);
    assert!(forwarded > 1_000, "soak too light to be meaningful: {forwarded} packets");
    assert_eq!(
        allocs, forwarded,
        "BGP fast path should allocate exactly the per-hop TTL-rewrite buffer \
         ({allocs} allocs over {forwarded} forwards)"
    );
}

#[test]
fn mrmtp_profiled_transit_forwards_without_allocating() {
    // The profiler must not spend the zero-alloc budget: per-node event
    // counters are sized at build time, and window records are pushed at
    // span boundaries — outside the forwarding scopes this counter
    // charges. Zero allocations, profiled.
    let (forwarded, allocs) = soak(Stack::Mrmtp, true);
    assert!(forwarded > 1_000, "soak too light to be meaningful: {forwarded} packets");
    assert_eq!(
        allocs, 0,
        "profiled MR-MTP fast path allocated {allocs} times over {forwarded} forwards"
    );
}

#[test]
fn mrmtp_repairs_in_flight_without_allocating() {
    // The tentpole claim, CI-enforced: local fast reroute is an O(1)
    // in-data-plane action. With repair armed, a failure mid-soak, and
    // the backup detour genuinely firing, MR-MTP transit still touches
    // the allocator not at all — the backup port set is a precompiled
    // bitmask, the lazy FIB recompile reuses its fixed entry array, and
    // the once-per-root repair trace span is emitted outside the scope.
    let (forwarded, allocs, repaired) = repair_soak(Stack::Mrmtp);
    assert!(forwarded > 1_000, "soak too light to be meaningful: {forwarded} packets");
    assert!(repaired > 0, "failure injected but local repair never engaged");
    assert_eq!(
        allocs, 0,
        "MR-MTP repair path allocated {allocs} times over {forwarded} forwards \
         ({repaired} repaired; expected 0 allocations)"
    );
}

#[test]
fn bgp_repair_keeps_the_one_alloc_per_packet_budget() {
    // BGP's repair pick reuses the same TTL-rewrite buffer as the plain
    // pick: engaging the backup ECMP spread must not add allocations.
    let (forwarded, allocs, repaired) = repair_soak(Stack::BgpEcmp);
    assert!(forwarded > 1_000, "soak too light to be meaningful: {forwarded} packets");
    assert!(repaired > 0, "failure injected but local repair never engaged");
    assert_eq!(
        allocs, forwarded,
        "BGP repair path should keep exactly one alloc per forward \
         ({allocs} allocs over {forwarded} forwards, {repaired} repaired)"
    );
}

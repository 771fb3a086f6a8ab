//! Building an emulated fabric running one of the paper's three stacks.

use dcn_bgp::{BgpConfig, BgpRouter, PeerConfig};
use dcn_mrmtp::{MrmtpConfig, MrmtpRouter, TorConfig};
use dcn_sim::link::LinkSpec;
use dcn_sim::{NodeId, PortId, Protocol, SchedulerKind, Sim, SimBuilder, SimConfig};
use dcn_topology::{Addressing, ClosParams, Fabric, FourTierParams, PortKind, Role};
use dcn_traffic::{SendSpec, TrafficHost};

/// The three protocol stacks the paper evaluates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Stack {
    /// The paper's contribution: one protocol for everything.
    Mrmtp,
    /// RFC 7938 eBGP with ECMP, no BFD.
    BgpEcmp,
    /// eBGP/ECMP supervised by BFD.
    BgpEcmpBfd,
}

impl Stack {
    pub const ALL: [Stack; 3] = [Stack::Mrmtp, Stack::BgpEcmp, Stack::BgpEcmpBfd];

    pub fn label(self) -> &'static str {
        match self {
            Stack::Mrmtp => "MR-MTP",
            Stack::BgpEcmp => "BGP/ECMP",
            Stack::BgpEcmpBfd => "BGP/ECMP/BFD",
        }
    }

    /// Filesystem/CLI-safe identifier (the `fcr` stack argument).
    pub fn slug(self) -> &'static str {
        match self {
            Stack::Mrmtp => "mrmtp",
            Stack::BgpEcmp => "bgp",
            Stack::BgpEcmpBfd => "bgp-bfd",
        }
    }
}

/// Tunable protocol parameters for ablation studies (§IX: "tune timers
/// for optimal performance of the protocols"). `None` fields keep the
/// paper's defaults.
#[derive(Clone, Copy, Debug)]
pub struct StackTuning {
    /// Override every MR-MTP router's timer block.
    pub mrmtp_timers: Option<dcn_mrmtp::MrmtpTimers>,
    /// Override the BGP keepalive interval (paper: 1 s).
    pub bgp_keepalive: Option<dcn_sim::time::Duration>,
    /// Override the BGP hold time (paper: 3 s).
    pub bgp_hold: Option<dcn_sim::time::Duration>,
    /// Override the BFD transmit interval (paper: 100 ms).
    pub bfd_tx_interval: Option<dcn_sim::time::Duration>,
    /// Data-plane fast path (compiled FIBs + parse-once metadata) on
    /// every router. On by default; the equivalence suite turns it off
    /// to prove trace digests are bit-identical either way.
    pub fast_path: bool,
    /// Local fast reroute on every router: precomputed backup FIBs let
    /// the hop that observes a dead port repair forwarding in the data
    /// plane (at most once per packet). Off by default so the baseline
    /// reproduces the paper's loss windows; the equivalence suite proves
    /// `local_repair=off` digests are bit-identical to pre-repair code.
    pub local_repair: bool,
    /// Engine runtime profiling ([`dcn_sim::profiler`]): per-span
    /// execute time, hot-node attribution and scheduler occupancy. Off
    /// by default. Profiling reads only the host monotonic clock and
    /// writes into pre-sized buffers, so trace digests are bit-identical
    /// either way (the equivalence suite enforces it) and zero-alloc
    /// forwarding still holds.
    pub profile: bool,
}

impl Default for StackTuning {
    fn default() -> StackTuning {
        StackTuning {
            mrmtp_timers: None,
            bgp_keepalive: None,
            bgp_hold: None,
            bfd_tx_interval: None,
            fast_path: true,
            local_repair: false,
            profile: false,
        }
    }
}

/// A ready-to-run emulation plus the structural handles needed to inject
/// failures and read tables.
pub struct BuiltSim {
    pub sim: Sim,
    pub fabric: Fabric,
    pub addr: Addressing,
    pub stack: Stack,
}

impl BuiltSim {
    /// NodeId of a fabric node index.
    pub fn node(&self, idx: usize) -> NodeId {
        NodeId(idx as u32)
    }

    /// Inject a paper failure case at `at`.
    pub fn inject_failure(&mut self, tc: dcn_topology::FailureCase, at: dcn_sim::Time) {
        let (node, port) = self.fabric.failure_point(tc);
        self.sim
            .schedule_port_down(at, NodeId(node as u32), PortId(port as u16));
    }

    /// The MR-MTP router at a node (panics on stack/role mismatch).
    pub fn mrmtp(&self, idx: usize) -> &MrmtpRouter {
        self.sim.node_as(self.node(idx)).expect("MR-MTP router")
    }

    /// The BGP router at a node.
    pub fn bgp(&self, idx: usize) -> &BgpRouter {
        self.sim.node_as(self.node(idx)).expect("BGP router")
    }

    /// The traffic host at a server node.
    pub fn host(&self, idx: usize) -> &TrafficHost {
        self.sim.node_as(self.node(idx)).expect("traffic host")
    }
}

/// Build the emulation with the paper's default timers. `senders` maps
/// fabric server-node indices to what they should transmit.
pub fn build_sim(
    params: ClosParams,
    stack: Stack,
    seed: u64,
    senders: &[(usize, SendSpec)],
) -> BuiltSim {
    build_sim_tuned(params, stack, seed, senders, StackTuning::default())
}

/// [`build_sim`] with protocol-timer overrides for ablation studies.
pub fn build_sim_tuned(
    params: ClosParams,
    stack: Stack,
    seed: u64,
    senders: &[(usize, SendSpec)],
    tuning: StackTuning,
) -> BuiltSim {
    build_fabric_sim(Fabric::build(params), stack, seed, senders, tuning)
}

/// The fully-parameterised builder behind [`crate::RunSpec`]: timer
/// overrides plus an explicit event-scheduler backend.
pub fn build_sim_full(
    params: ClosParams,
    stack: Stack,
    seed: u64,
    senders: &[(usize, SendSpec)],
    tuning: StackTuning,
    scheduler: SchedulerKind,
) -> BuiltSim {
    build_fabric_sim_sched(Fabric::build(params), stack, seed, senders, tuning, scheduler)
}

/// Build an emulation of the four-tier zone extension (§IX).
pub fn build_four_tier_sim(
    p4: FourTierParams,
    stack: Stack,
    seed: u64,
    senders: &[(usize, SendSpec)],
) -> BuiltSim {
    build_fabric_sim(
        Fabric::build_four_tier(p4),
        stack,
        seed,
        senders,
        StackTuning::default(),
    )
}

/// Build an emulation from an already-constructed fabric, with the
/// default event scheduler.
pub fn build_fabric_sim(
    fabric: Fabric,
    stack: Stack,
    seed: u64,
    senders: &[(usize, SendSpec)],
    tuning: StackTuning,
) -> BuiltSim {
    build_fabric_sim_sched(fabric, stack, seed, senders, tuning, SchedulerKind::default())
}

/// [`build_fabric_sim`] with an explicit event-scheduler backend.
pub fn build_fabric_sim_sched(
    fabric: Fabric,
    stack: Stack,
    seed: u64,
    senders: &[(usize, SendSpec)],
    tuning: StackTuning,
    scheduler: SchedulerKind,
) -> BuiltSim {
    build_fabric_sim_cfg(
        fabric,
        stack,
        seed,
        senders,
        tuning,
        SimConfig { scheduler, ..SimConfig::default() },
    )
}

/// The most general builder: full control over the engine's
/// [`SimConfig`] (scheduler backend, tracing, carrier latency, wire
/// impairment). `fcr bench` uses it to run big fabrics with tracing off.
pub fn build_fabric_sim_cfg(
    fabric: Fabric,
    stack: Stack,
    seed: u64,
    senders: &[(usize, SendSpec)],
    tuning: StackTuning,
    mut config: SimConfig,
) -> BuiltSim {
    if tuning.profile {
        config.profile = true;
    }
    let addr = Addressing::new(&fabric);
    let mut b = SimBuilder::with_config(seed, config);
    for (i, node) in fabric.nodes.iter().enumerate() {
        let proto: Box<dyn Protocol> = match node.role {
            Role::Server { pod, tor_idx, idx } => {
                let tor = fabric.tor(pod, tor_idx);
                let ip = addr.server_addr(tor, idx).expect("server address");
                let mut host = TrafficHost::new(ip);
                if let Some((_, spec)) = senders.iter().find(|(n, _)| *n == i) {
                    host = host.with_send(*spec);
                }
                Box::new(host)
            }
            _ if stack == Stack::Mrmtp => build_mrmtp(&fabric, &addr, i, &tuning),
            _ => build_bgp(&fabric, &addr, i, stack == Stack::BgpEcmpBfd, &tuning),
        };
        b.add_node(node.name.clone(), proto);
    }
    for (li, &(x, y)) in fabric.links.iter().enumerate() {
        // Heterogeneous propagation delays (3–8 µs), deterministic per
        // link: the paper's FABRIC slices spanned sites, so neighboring
        // updates never arrive in lockstep. This keeps event orderings
        // honest (e.g. the loss-hold-down ablation).
        let jitter = (li as u64).wrapping_mul(0x9E37_79B9) % (5 * dcn_sim::time::MICROS);
        let spec = LinkSpec {
            propagation: 3 * dcn_sim::time::MICROS + jitter,
            ..LinkSpec::default()
        };
        b.add_link(NodeId(x as u32), NodeId(y as u32), spec);
    }
    let sim = b.build();
    BuiltSim { sim, fabric, addr, stack }
}

fn build_mrmtp(
    fabric: &Fabric,
    addr: &Addressing,
    i: usize,
    tuning: &StackTuning,
) -> Box<dyn Protocol> {
    let node = &fabric.nodes[i];
    let mut cfg = match node.role {
        Role::Tor { .. } => {
            let rack = addr.rack_subnet(i).expect("ToR rack subnet");
            let mut host_ports = Vec::new();
            for (pi, pr) in fabric.ports[i].iter().enumerate() {
                if matches!(pr.kind, PortKind::Host) {
                    let s = host_ports.len();
                    host_ports.push((addr.server_addr(i, s).expect("server ip"), PortId(pi as u16)));
                }
            }
            MrmtpConfig::tor(node.name.clone(), TorConfig { rack_subnet: rack, host_ports })
        }
        _ => MrmtpConfig::spine(node.name.clone(), node.tier),
    };
    if let Some(t) = tuning.mrmtp_timers {
        cfg.timers = t;
    }
    cfg.fast_path = tuning.fast_path;
    cfg.local_repair = tuning.local_repair;
    Box::new(MrmtpRouter::new(cfg, fabric.ports[i].len()))
}

fn build_bgp(
    fabric: &Fabric,
    addr: &Addressing,
    i: usize,
    bfd: bool,
    tuning: &StackTuning,
) -> Box<dyn Protocol> {
    let node = &fabric.nodes[i];
    let mut cfg = BgpConfig::new(
        node.name.clone(),
        addr.asn(i).expect("router ASN"),
        addr.router_id(i),
    );
    if bfd {
        cfg = cfg.with_bfd();
    }
    if let Some(k) = tuning.bgp_keepalive {
        cfg.keepalive_interval = k;
    }
    if let Some(h) = tuning.bgp_hold {
        cfg.hold_time = h;
    }
    if let Some(b) = tuning.bfd_tx_interval {
        cfg.bfd_tx_interval = b;
    }
    cfg.fast_path = tuning.fast_path;
    cfg.local_repair = tuning.local_repair;
    for (pi, pr) in fabric.ports[i].iter().enumerate() {
        match pr.kind {
            PortKind::Host => {}
            PortKind::Up | PortKind::Down => {
                let la = addr.link(pr.link).expect("router link addressing");
                let (a, _) = fabric.links[pr.link];
                let (local_ip, peer_ip) =
                    if a == i { (la.a_addr, la.b_addr) } else { (la.b_addr, la.a_addr) };
                cfg = cfg.peer(PeerConfig {
                    port: PortId(pi as u16),
                    local_ip,
                    peer_ip,
                    peer_asn: addr.asn(pr.peer).expect("peer ASN"),
                });
            }
        }
    }
    if let Role::Tor { .. } = node.role {
        let rack = addr.rack_subnet(i).expect("rack subnet");
        cfg = cfg.originating(rack);
        cfg.rack_subnet = Some(rack);
        for (pi, pr) in fabric.ports[i].iter().enumerate() {
            if matches!(pr.kind, PortKind::Host) {
                let s = cfg.host_ports.len();
                cfg.host_ports
                    .push((addr.server_addr(i, s).expect("server ip"), PortId(pi as u16)));
            }
        }
    }
    Box::new(BgpRouter::new(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::time::secs;

    #[test]
    fn mrmtp_fabric_builds_and_converges() {
        let mut built = build_sim(ClosParams::two_pod(), Stack::Mrmtp, 1, &[]);
        built.sim.run_until(secs(2));
        let t1 = built.mrmtp(built.fabric.top_spine(0));
        assert_eq!(t1.vid_table().own_entry_count(), 4);
    }

    #[test]
    fn bgp_fabric_builds_and_establishes_all_sessions() {
        let mut built = build_sim(ClosParams::two_pod(), Stack::BgpEcmp, 1, &[]);
        built.sim.run_until(secs(5));
        for r in built.fabric.routers() {
            let router = built.bgp(r);
            let expected = built.fabric.ports[r]
                .iter()
                .filter(|p| !matches!(p.kind, PortKind::Host))
                .count();
            assert_eq!(
                router.established_sessions(),
                expected,
                "{} sessions",
                router.name()
            );
        }
        // Every router learns every rack subnet.
        for r in built.fabric.routers() {
            let router = built.bgp(r);
            let racks = 4;
            let local = router.rib().local_prefixes().len();
            assert_eq!(
                router.rib().learned_prefixes().len() + local,
                racks,
                "{} must reach all racks",
                router.name()
            );
        }
    }

    #[test]
    fn bfd_stack_brings_bfd_sessions_up_without_breaking_bgp() {
        let mut built = build_sim(ClosParams::two_pod(), Stack::BgpEcmpBfd, 1, &[]);
        built.sim.run_until(secs(5));
        let tor = built.bgp(built.fabric.tor(0, 0));
        assert_eq!(tor.established_sessions(), 2);
    }
}

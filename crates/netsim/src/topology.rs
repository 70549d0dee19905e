//! Topology builders for the paper's deployment shapes.
//!
//! Four shapes cover the whole evaluation:
//!
//! * a **star** — all workers (plus, for the PS baseline, a parameter
//!   server) hang off one switch (paper Fig. 1),
//! * a **two-layer tree** — racks of workers under ToR switches joined by a
//!   core switch, used for the rack-scale scalability study,
//! * a **three-level tree** — ToR/AGG/Core, the full hierarchy of the
//!   paper's Fig. 10, and
//! * a **fat-tree** — that same three-level hierarchy with each AGG subtree
//!   (pod) cut into its own [`ShardedSim`] domain.
//!
//! Every rack is wired by one helper and the three-level hierarchy by one
//! builder; the last two shapes differ only in where the builder is told
//! to put the pods.

use serde::{Deserialize, Serialize};

use crate::engine::{NodeOpts, Simulator};
use crate::host::{Host, HostApp};
use crate::ids::{LinkId, NodeId, PortId};
use crate::link::LinkSpec;
use crate::packet::IpAddr;
use crate::shard::ShardedSim;
use crate::switch::{RouteTable, Switch, SwitchExtension};
use crate::time::SimDuration;

/// Shared physical parameters for topology construction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopologyConfig {
    /// Host-to-switch links (paper: 10 GbE).
    pub edge: LinkSpec,
    /// Switch-to-switch uplinks (paper: 40–100 GbE; default 40).
    pub uplink: LinkSpec,
    /// Per-packet transmit-side host overhead (NIC + stack).
    pub host_tx_overhead: SimDuration,
    /// Per-packet receive-side host overhead (NIC + stack).
    pub host_rx_overhead: SimDuration,
    /// Switch forwarding latency per packet.
    pub switch_latency: SimDuration,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            edge: LinkSpec::ten_gbe(),
            uplink: LinkSpec::forty_gbe(),
            // Calibrated host-stack costs; see DESIGN.md §5.
            host_tx_overhead: SimDuration::from_nanos(1_200),
            host_rx_overhead: SimDuration::from_nanos(1_200),
            switch_latency: SimDuration::from_nanos(500),
        }
    }
}

/// The IP of host `host` in rack `rack` (rack 0 for star topologies).
pub fn host_ip(rack: usize, host: usize) -> IpAddr {
    assert!(
        rack < 255 && host < 254,
        "rack/host index out of addressing range"
    );
    IpAddr::new(10, 0, rack as u8, host as u8 + 1)
}

/// Handles to a star topology built by [`build_star`].
#[derive(Debug)]
pub struct Star {
    /// The single switch.
    pub switch: NodeId,
    /// Hosts in creation order.
    pub hosts: Vec<NodeId>,
    /// IP of each host (index-aligned with `hosts`).
    pub host_ips: Vec<IpAddr>,
    /// Switch port facing each host.
    pub switch_ports: Vec<PortId>,
    /// Edge link of each host (index-aligned with `hosts`) — fault-plan
    /// targets.
    pub host_links: Vec<LinkId>,
}

/// Adds a switch labelled `label`, carrying `ext` if one is given (this is
/// how the iSwitch accelerator is deployed). Routes are installed later.
fn add_switch(
    sim: &mut Simulator,
    label: String,
    ext: Option<Box<dyn SwitchExtension>>,
    cfg: &TopologyConfig,
) -> NodeId {
    let dev = match ext {
        Some(e) => Switch::with_extension(RouteTable::new(), e),
        None => Switch::new(RouteTable::new()),
    };
    sim.add_node(
        Box::new(dev),
        NodeOpts::new(label).with_rx_overhead(cfg.switch_latency),
    )
}

/// The hosts hung off one switch by edge links, in port order.
#[derive(Default)]
struct Attached {
    hosts: Vec<NodeId>,
    ips: Vec<IpAddr>,
    links: Vec<LinkId>,
    /// Switch port facing each host.
    ports: Vec<PortId>,
    /// Host routes of the switch.
    routes: RouteTable,
}

/// Hangs one host per app off `switch`: host `i` is labelled by `label(i)`,
/// gets IP `10.0.rack.(i+1)` and faces the switch's next free port.
fn attach_hosts(
    sim: &mut Simulator,
    switch: NodeId,
    rack: usize,
    label: impl Fn(usize) -> String,
    apps: Vec<Box<dyn HostApp>>,
    cfg: &TopologyConfig,
) -> Attached {
    let mut at = Attached::default();
    for (i, app) in apps.into_iter().enumerate() {
        let ip = host_ip(rack, i);
        let node = sim.add_node(
            Box::new(Host::new(ip, app)),
            NodeOpts::new(label(i))
                .with_tx_overhead(cfg.host_tx_overhead)
                .with_backpressure()
                .with_rx_overhead(cfg.host_rx_overhead),
        );
        let (link, _, port) = sim.connect(node, switch, &cfg.edge);
        at.routes.add(ip, port);
        at.hosts.push(node);
        at.ips.push(ip);
        at.links.push(link);
        at.ports.push(port);
    }
    at
}

/// Builds a star: one switch with `apps.len()` hosts attached by edge links.
///
/// Host `i` gets IP `10.0.0.(i+1)`. If `ext` is provided it is installed on
/// the switch (this is how the iSwitch accelerator is deployed).
pub fn build_star(
    sim: &mut Simulator,
    apps: Vec<Box<dyn HostApp>>,
    ext: Option<Box<dyn SwitchExtension>>,
    cfg: &TopologyConfig,
) -> Star {
    let switch = add_switch(sim, "switch".to_owned(), ext, cfg);
    let at = attach_hosts(sim, switch, 0, |i| format!("host{i}"), apps, cfg);
    *sim.device_mut::<Switch>(switch).routes_mut() = at.routes;
    Star {
        switch,
        hosts: at.hosts,
        host_ips: at.ips,
        switch_ports: at.ports,
        host_links: at.links,
    }
}

/// Which switch an extension is being created for in [`build_tree`] /
/// [`build_tree3`] / [`build_fattree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchRole {
    /// Top-of-rack switch for (global) rack index.
    Tor(usize),
    /// Aggregation-layer switch (three-level trees only).
    Agg(usize),
    /// The core (root) switch.
    Core,
}

/// One rack wired under its parent switch.
struct Rack {
    tor: NodeId,
    hosts: Vec<NodeId>,
    ips: Vec<IpAddr>,
    host_links: Vec<LinkId>,
    /// The ToR-to-parent uplink, the ToR port it leaves by and the parent
    /// port it arrives at.
    uplink: LinkId,
    tor_up: PortId,
    parent_down: PortId,
}

/// The one rack-wiring loop: ToR `tor{r}` with host `i` (`r{r}h{i}`, IP
/// `10.0.r.(i+1)`) on its port `i`, then — after the host ports, the
/// convention extensions rely on — the uplink to `parent`, which becomes
/// the ToR's default route.
fn build_rack(
    sim: &mut Simulator,
    r: usize,
    apps: Vec<Box<dyn HostApp>>,
    ext: Option<Box<dyn SwitchExtension>>,
    parent: NodeId,
    cfg: &TopologyConfig,
) -> Rack {
    let tor = add_switch(sim, format!("tor{r}"), ext, cfg);
    let mut at = attach_hosts(sim, tor, r, |i| format!("r{r}h{i}"), apps, cfg);
    let (uplink, tor_up, parent_down) = sim.connect(tor, parent, &cfg.uplink);
    at.routes.set_default(tor_up);
    *sim.device_mut::<Switch>(tor).routes_mut() = at.routes;
    Rack {
        tor,
        hosts: at.hosts,
        ips: at.ips,
        host_links: at.links,
        uplink,
        tor_up,
        parent_down,
    }
}

/// Handles to a two-layer tree built by [`build_tree`].
#[derive(Debug)]
pub struct Tree {
    /// Root switch.
    pub core: NodeId,
    /// ToR switch per rack.
    pub tors: Vec<NodeId>,
    /// Hosts per rack.
    pub hosts: Vec<Vec<NodeId>>,
    /// Host IPs per rack.
    pub host_ips: Vec<Vec<IpAddr>>,
    /// On each ToR, the port facing the core.
    pub tor_uplink: Vec<PortId>,
    /// On the core, the port facing each ToR.
    pub core_downlink: Vec<PortId>,
    /// Edge link of each host, per rack (fault-plan targets).
    pub host_links: Vec<Vec<LinkId>>,
    /// ToR-to-core uplink per rack (fault-plan targets).
    pub uplink_links: Vec<LinkId>,
}

impl Tree {
    /// All host node ids, rack-major.
    pub fn all_hosts(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.hosts.iter().flatten().copied()
    }
}

/// Builds a two-layer tree: a core switch over `rack_apps.len()` ToR
/// switches, rack `r` hosting `rack_apps[r]` workers on edge links, with
/// uplinks between ToRs and the core.
///
/// Host `i` of rack `r` gets IP `10.0.r.(i+1)`. `mk_ext` is invoked once per
/// switch to optionally install an extension (the hierarchical-aggregation
/// deployment installs one on every switch).
pub fn build_tree(
    sim: &mut Simulator,
    rack_apps: Vec<Vec<Box<dyn HostApp>>>,
    mk_ext: &mut dyn FnMut(SwitchRole) -> Option<Box<dyn SwitchExtension>>,
    cfg: &TopologyConfig,
) -> Tree {
    let core = add_switch(sim, "core".to_owned(), mk_ext(SwitchRole::Core), cfg);
    let mut core_routes = RouteTable::new();
    let mut tree = Tree {
        core,
        tors: Vec::new(),
        hosts: Vec::new(),
        host_ips: Vec::new(),
        tor_uplink: Vec::new(),
        core_downlink: Vec::new(),
        host_links: Vec::new(),
        uplink_links: Vec::new(),
    };
    for (r, apps) in rack_apps.into_iter().enumerate() {
        let rack = build_rack(sim, r, apps, mk_ext(SwitchRole::Tor(r)), core, cfg);
        for ip in &rack.ips {
            core_routes.add(*ip, rack.parent_down);
        }
        tree.tors.push(rack.tor);
        tree.hosts.push(rack.hosts);
        tree.host_ips.push(rack.ips);
        tree.tor_uplink.push(rack.tor_up);
        tree.core_downlink.push(rack.parent_down);
        tree.host_links.push(rack.host_links);
        tree.uplink_links.push(rack.uplink);
    }
    *sim.device_mut::<Switch>(core).routes_mut() = core_routes;
    tree
}

/// Handles to a three-level ToR/AGG/Core tree (the full hierarchy of the
/// paper's Fig. 10), built whole by [`build_tree3`] or cut into pods by
/// [`build_fattree`].
#[derive(Debug)]
pub struct Tree3 {
    /// Root switch.
    pub core: NodeId,
    /// Aggregation switches.
    pub aggs: Vec<NodeId>,
    /// ToR switches, grouped by AGG.
    pub tors: Vec<Vec<NodeId>>,
    /// Hosts per (agg, tor).
    pub hosts: Vec<Vec<Vec<NodeId>>>,
    /// Host IPs per (agg, tor); global rack indices run agg-major.
    pub host_ips: Vec<Vec<Vec<IpAddr>>>,
    /// Edge link of each host, per (agg, tor) — fault-plan targets.
    pub host_links: Vec<Vec<Vec<LinkId>>>,
    /// ToR-to-AGG uplinks per AGG (fault-plan targets).
    pub tor_uplinks: Vec<Vec<LinkId>>,
    /// AGG-to-core uplinks (fault-plan targets). On a fat-tree, the AGG's
    /// half of the cross-domain link (the core's half is the reverse
    /// direction, a separate link in the core's domain).
    pub agg_uplinks: Vec<LinkId>,
}

impl Tree3 {
    /// All host node ids, agg-major then rack-major.
    pub fn all_hosts(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.hosts.iter().flatten().flatten().copied()
    }
}

/// Where the three-level builder puts the hierarchy: whole in one
/// simulator, or cut between the AGGs and the core.
enum PodCut<'a> {
    /// Every node in one simulator; AGG↔core links are ordinary uplinks.
    Whole(&'a mut Simulator),
    /// Core in domain [`Fattree::CORE_DOMAIN`], pod `a` in domain
    /// [`Fattree::pod_domain`]`(a)`; AGG↔core links are cross-domain links
    /// of the given spec.
    Pods(&'a mut ShardedSim, &'a LinkSpec),
}

impl PodCut<'_> {
    /// The simulator holding `domain` of the cut (the one there is, when
    /// whole).
    fn sim(&mut self, domain: usize) -> &mut Simulator {
        match self {
            PodCut::Whole(sim) => sim,
            PodCut::Pods(sharded, _) => sharded.domain_mut(domain),
        }
    }

    /// Joins pod `a`'s AGG to the core. Returns the AGG's (half of the)
    /// link, the AGG port it leaves by and the core port it arrives at.
    fn join(
        &mut self,
        a: usize,
        agg: NodeId,
        core: NodeId,
        uplink: &LinkSpec,
    ) -> (LinkId, PortId, PortId) {
        match self {
            PodCut::Whole(sim) => sim.connect(agg, core, uplink),
            PodCut::Pods(sharded, spec) => {
                let ((_, core_down), (agg_link, agg_up)) = sharded.connect_cross(
                    (Fattree::CORE_DOMAIN, core),
                    (Fattree::pod_domain(a), agg),
                    spec,
                );
                (agg_link, agg_up, core_down)
            }
        }
    }
}

/// The one three-level builder: a core switch over AGG switches, each over
/// ToR switches, each over its workers. `apps[a][t]` holds the worker apps
/// of ToR `t` under AGG `a`; global rack indices run agg-major. Port layout
/// on every switch: children first (in order), then the uplink — so an
/// extension's uplink port equals its child count, and core port `a` faces
/// pod `a`.
fn build_three_level(
    mut cut: PodCut<'_>,
    apps: Vec<Vec<Vec<Box<dyn HostApp>>>>,
    mk_ext: &mut dyn FnMut(SwitchRole) -> Option<Box<dyn SwitchExtension>>,
    cfg: &TopologyConfig,
) -> Tree3 {
    let core_ext = mk_ext(SwitchRole::Core);
    let core = add_switch(
        cut.sim(Fattree::CORE_DOMAIN),
        "core".to_owned(),
        core_ext,
        cfg,
    );
    let mut core_routes = RouteTable::new();
    let mut tree = Tree3 {
        core,
        aggs: Vec::new(),
        tors: Vec::new(),
        hosts: Vec::new(),
        host_ips: Vec::new(),
        host_links: Vec::new(),
        tor_uplinks: Vec::new(),
        agg_uplinks: Vec::new(),
    };
    let mut r = 0usize;
    for (a, agg_apps) in apps.into_iter().enumerate() {
        let sim = cut.sim(Fattree::pod_domain(a));
        let agg = add_switch(sim, format!("agg{a}"), mk_ext(SwitchRole::Agg(a)), cfg);
        let mut agg_routes = RouteTable::new();
        let (mut tors, mut hosts, mut ips) = (Vec::new(), Vec::new(), Vec::new());
        let (mut host_links, mut tor_uplinks) = (Vec::new(), Vec::new());
        for tor_apps in agg_apps {
            let rack = build_rack(sim, r, tor_apps, mk_ext(SwitchRole::Tor(r)), agg, cfg);
            for ip in &rack.ips {
                agg_routes.add(*ip, rack.parent_down);
            }
            tors.push(rack.tor);
            hosts.push(rack.hosts);
            ips.push(rack.ips);
            host_links.push(rack.host_links);
            tor_uplinks.push(rack.uplink);
            r += 1;
        }
        let (agg_link, agg_up, core_down) = cut.join(a, agg, core, &cfg.uplink);
        agg_routes.set_default(agg_up);
        for ip in ips.iter().flatten() {
            core_routes.add(*ip, core_down);
        }
        *cut.sim(Fattree::pod_domain(a))
            .device_mut::<Switch>(agg)
            .routes_mut() = agg_routes;
        tree.aggs.push(agg);
        tree.tors.push(tors);
        tree.hosts.push(hosts);
        tree.host_ips.push(ips);
        tree.host_links.push(host_links);
        tree.tor_uplinks.push(tor_uplinks);
        tree.agg_uplinks.push(agg_link);
    }
    *cut.sim(Fattree::CORE_DOMAIN)
        .device_mut::<Switch>(core)
        .routes_mut() = core_routes;
    tree
}

/// Builds a three-level tree in one simulator (see `build_three_level` for
/// the layout both this and [`build_fattree`] share).
pub fn build_tree3(
    sim: &mut Simulator,
    apps: Vec<Vec<Vec<Box<dyn HostApp>>>>,
    mk_ext: &mut dyn FnMut(SwitchRole) -> Option<Box<dyn SwitchExtension>>,
    cfg: &TopologyConfig,
) -> Tree3 {
    build_three_level(PodCut::Whole(sim), apps, mk_ext, cfg)
}

/// Shape of a sharded fat-tree built by [`build_fattree`]: `aggs` AGG
/// subtrees (pods) of `racks_per_agg` racks of `hosts_per_rack` workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FattreeShape {
    /// Number of AGG subtrees — also the number of worker domains (the
    /// core switch forms one more).
    pub aggs: usize,
    /// Racks (ToR switches) under each AGG.
    pub racks_per_agg: usize,
    /// Worker hosts under each ToR.
    pub hosts_per_rack: usize,
}

impl FattreeShape {
    /// Total worker count.
    pub fn workers(&self) -> usize {
        self.aggs * self.racks_per_agg * self.hosts_per_rack
    }

    /// Total rack (ToR) count.
    pub fn racks(&self) -> usize {
        self.aggs * self.racks_per_agg
    }

    /// Total node count: workers + ToRs + AGGs + the core.
    pub fn nodes(&self) -> usize {
        self.workers() + self.racks() + self.aggs + 1
    }

    /// Number of simulation domains: one per AGG subtree plus the core.
    pub fn domains(&self) -> usize {
        self.aggs + 1
    }
}

/// Handles to a sharded fat-tree built by [`build_fattree`]. Domain 0 holds
/// the core switch; domain `a + 1` holds AGG subtree `a` (the AGG, its
/// ToRs, and their hosts).
#[derive(Debug)]
pub struct Fattree {
    /// The hierarchy, exactly as [`build_tree3`] reports it — except that
    /// every id is local to its domain: `core` lives in
    /// [`Fattree::CORE_DOMAIN`], everything indexed by pod `a` in
    /// [`Fattree::pod_domain`]`(a)`.
    pub tree: Tree3,
}

impl Fattree {
    /// The domain holding the core switch.
    pub const CORE_DOMAIN: usize = 0;

    /// The domain holding AGG subtree `a`.
    pub fn pod_domain(a: usize) -> usize {
        a + 1
    }

    /// All `(domain, host node)` pairs, pod-major then rack-major — the
    /// same worker order as [`Tree3::all_hosts`].
    pub fn all_hosts(&self) -> impl Iterator<Item = (usize, NodeId)> + '_ {
        self.tree
            .hosts
            .iter()
            .enumerate()
            .flat_map(|(a, pod)| pod.iter().flatten().map(move |h| (Self::pod_domain(a), *h)))
    }
}

/// Builds a fat-tree as *sharded domains* of the (empty) `sharded`: the same
/// three-level ToR/AGG/Core hierarchy as [`build_tree3`] (same labels, IPs,
/// per-switch port layout, route tables and `mk_ext` calls, so the same
/// extension configs apply), but each AGG subtree is its own simulation
/// domain and the AGG↔Core uplinks are cross-domain links described by
/// `core_uplink`. The lookahead bound is therefore
/// `core_uplink.propagation + switch_latency` — pick a propagation matching
/// the longer inter-pod fibre runs of a full-scale deployment (paper §3.4),
/// which also widens the parallel epochs.
pub fn build_fattree(
    sharded: &mut ShardedSim,
    apps: Vec<Vec<Vec<Box<dyn HostApp>>>>,
    mk_ext: &mut dyn FnMut(SwitchRole) -> Option<Box<dyn SwitchExtension>>,
    cfg: &TopologyConfig,
    core_uplink: &LinkSpec,
) -> Fattree {
    assert_eq!(
        sharded.domain_count(),
        0,
        "build_fattree lays out the domains"
    );
    for _ in 0..=apps.len() {
        sharded.add_domain();
    }
    let tree = build_three_level(PodCut::Pods(sharded, core_uplink), apps, mk_ext, cfg);
    Fattree { tree }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostCtx;
    use crate::packet::Packet;
    use std::any::Any;

    /// Sends one packet to a fixed destination at start; records arrivals.
    struct OneShot {
        dst: Option<IpAddr>,
        got: Vec<IpAddr>,
    }
    impl HostApp for OneShot {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
            if let Some(dst) = self.dst {
                let pkt = Packet::udp(ctx.ip(), dst, 1, 1, 0).with_payload(vec![0u8; 100]);
                ctx.send(pkt);
            }
        }
        fn on_packet(&mut self, _ctx: &mut HostCtx<'_, '_>, pkt: Packet) {
            self.got.push(pkt.ip.src);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn star_delivers_between_any_pair() {
        let mut sim = Simulator::new();
        let apps: Vec<Box<dyn HostApp>> = vec![
            Box::new(OneShot {
                dst: Some(host_ip(0, 2)),
                got: vec![],
            }),
            Box::new(OneShot {
                dst: None,
                got: vec![],
            }),
            Box::new(OneShot {
                dst: Some(host_ip(0, 1)),
                got: vec![],
            }),
        ];
        let star = build_star(&mut sim, apps, None, &TopologyConfig::default());
        sim.run_until_idle();
        let h1 = sim.device::<Host>(star.hosts[1]).app::<OneShot>();
        assert_eq!(h1.got, vec![host_ip(0, 2)]);
        let h2 = sim.device::<Host>(star.hosts[2]).app::<OneShot>();
        assert_eq!(h2.got, vec![host_ip(0, 0)]);
    }

    #[test]
    fn tree_routes_across_racks() {
        let mut sim = Simulator::new();
        let racks: Vec<Vec<Box<dyn HostApp>>> = vec![
            vec![Box::new(OneShot {
                dst: Some(host_ip(1, 0)),
                got: vec![],
            })],
            vec![Box::new(OneShot {
                dst: None,
                got: vec![],
            })],
        ];
        let tree = build_tree(&mut sim, racks, &mut |_| None, &TopologyConfig::default());
        sim.run_until_idle();
        let dst = sim.device::<Host>(tree.hosts[1][0]).app::<OneShot>();
        assert_eq!(dst.got, vec![host_ip(0, 0)]);
    }

    #[test]
    fn tree_routes_within_rack_stay_local() {
        let mut sim = Simulator::new();
        let racks: Vec<Vec<Box<dyn HostApp>>> = vec![vec![
            Box::new(OneShot {
                dst: Some(host_ip(0, 1)),
                got: vec![],
            }),
            Box::new(OneShot {
                dst: None,
                got: vec![],
            }),
        ]];
        let tree = build_tree(&mut sim, racks, &mut |_| None, &TopologyConfig::default());
        sim.run_until_idle();
        let dst = sim.device::<Host>(tree.hosts[0][1]).app::<OneShot>();
        assert_eq!(dst.got, vec![host_ip(0, 0)]);
        // Core switch never saw the packet (ToR routed it locally).
        assert_eq!(sim.device::<Switch>(tree.core).unroutable, 0);
    }

    #[test]
    #[should_panic(expected = "addressing range")]
    fn host_ip_rejects_out_of_range() {
        let _ = host_ip(0, 254);
    }

    #[test]
    fn tree3_routes_across_the_hierarchy() {
        // Two AGGs, each one rack of one worker; worker (0,0,0) sends to
        // worker (1,0,0) — the packet must cross ToR->AGG->Core and back
        // down.
        let mut sim = Simulator::new();
        let apps: Vec<Vec<Vec<Box<dyn HostApp>>>> = vec![
            vec![vec![Box::new(OneShot {
                dst: Some(host_ip(1, 0)),
                got: vec![],
            })]],
            vec![vec![Box::new(OneShot {
                dst: None,
                got: vec![],
            })]],
        ];
        let tree = build_tree3(&mut sim, apps, &mut |_| None, &TopologyConfig::default());
        sim.run_until_idle();
        let dst = sim.device::<Host>(tree.hosts[1][0][0]).app::<OneShot>();
        assert_eq!(dst.got, vec![host_ip(0, 0)]);
        // Sibling traffic under the same AGG stays below the core.
        assert_eq!(sim.device::<Switch>(tree.core).unroutable, 0);
    }

    #[test]
    fn fattree_routes_across_pods_at_any_thread_count() {
        // Worker (pod 0) sends to worker (pod 1): the packet crosses two
        // domain boundaries (pod0 -> core -> pod1). The delivery and the
        // full metrics export must be identical at 1 and 2 threads.
        let run = |threads: usize| {
            let mut sh = ShardedSim::new();
            let apps: Vec<Vec<Vec<Box<dyn HostApp>>>> = vec![
                vec![vec![Box::new(OneShot {
                    dst: Some(host_ip(1, 0)),
                    got: vec![],
                })]],
                vec![vec![Box::new(OneShot {
                    dst: None,
                    got: vec![],
                })]],
            ];
            let ft = build_fattree(
                &mut sh,
                apps,
                &mut |_| None,
                &TopologyConfig::default(),
                &LinkSpec::forty_gbe(),
            );
            sh.run(threads);
            let got = sh
                .domain(Fattree::pod_domain(1))
                .device::<Host>(ft.tree.hosts[1][0][0])
                .app::<OneShot>()
                .got
                .clone();
            (got, sh.metrics_json().render())
        };
        let (got1, m1) = run(1);
        let (got2, m2) = run(2);
        assert_eq!(got1, vec![host_ip(0, 0)]);
        assert_eq!(got1, got2);
        assert_eq!(m1, m2, "thread count must not change the metrics export");
    }
}

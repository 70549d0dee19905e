//! End-to-end tests: workers exchanging gradients through simulated
//! switches running the iSwitch extension — the paper's Fig. 1c (star) and
//! Fig. 10 (rack-scale hierarchy) deployments.

use std::any::Any;

mod common;
use common::{switch_counter, Puppet};

use iswitch_core::{
    control_packet, decode_control, dscp, AggregationRole, CodecKind, ControlMessage, DataSegment,
    EncodedGradient, ExtensionConfig, IswitchExtension, RoundAssembler, RoundInsert,
    FAULT_RESET_TOKEN, TOS_DATA,
};
use iswitch_netsim::{
    build_star, build_tree, build_tree3, host_ip, FaultAction, HostApp, HostCtx, IpAddr, LinkSpec,
    LossModel, Packet, PortId, SimDuration, SimTime, Simulator, Switch, SwitchRole, TopologyConfig,
};

/// A scripted worker: joins (optionally), pushes one gradient vector after
/// `start_delay`, reassembles the broadcast result, and asks for Help if a
/// result segment goes missing past a timeout.
struct ScriptedWorker {
    grad: Vec<f32>,
    start_delay: SimDuration,
    join_first: bool,
    worker_id: u32,
    help_timeout: Option<SimDuration>,
    /// On timeout, re-push the whole gradient instead of asking for Help —
    /// the recovery a worker needs when the *switch* lost its state (a
    /// restart wipes partial sums, so there is nothing to Help-serve).
    retransmit_on_timeout: bool,
    /// Sends the contribution CE-marked, as if every packet had crossed a
    /// congested queue on its way to the switch.
    mark_ce: bool,
    assembler: RoundAssembler,
    /// Every result segment that arrived, in arrival order.
    arrived: Vec<DataSegment>,
    result: Option<Vec<f32>>,
    result_at: Option<SimTime>,
    acks: Vec<ControlMessage>,
}

const TIMER_SEND: u64 = 1;
const TIMER_HELP: u64 = 2;

impl ScriptedWorker {
    fn new(grad: Vec<f32>, start_delay: SimDuration) -> Self {
        let assembler = RoundAssembler::new(grad.len(), true);
        ScriptedWorker {
            grad,
            start_delay,
            join_first: false,
            worker_id: 0,
            help_timeout: None,
            retransmit_on_timeout: false,
            mark_ce: false,
            assembler,
            arrived: Vec::new(),
            result: None,
            result_at: None,
            acks: Vec::new(),
        }
    }
}

impl HostApp for ScriptedWorker {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
        ctx.set_timer(self.start_delay, TIMER_SEND);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, token: u64) {
        match token {
            TIMER_SEND => {
                if self.join_first {
                    let join = ControlMessage::Join {
                        worker_id: self.worker_id,
                        grad_len: self.grad.len() as u32,
                    };
                    let pkt = control_packet(ctx.ip(), iswitch_core::UPSTREAM_IP, &join);
                    ctx.send(pkt);
                }
                for mut pkt in packets(ctx.ip(), &self.grad) {
                    if self.mark_ce {
                        pkt.mark_ecn_ce();
                    }
                    ctx.send(pkt);
                }
                if let Some(timeout) = self.help_timeout {
                    ctx.set_timer(timeout, TIMER_HELP);
                }
            }
            TIMER_HELP if self.result.is_none() && self.retransmit_on_timeout => {
                for pkt in packets(ctx.ip(), &self.grad) {
                    ctx.send(pkt);
                }
            }
            TIMER_HELP if self.result.is_none() => {
                for seg in self.assembler.missing_in(0, u64::MAX) {
                    let pkt = control_packet(
                        ctx.ip(),
                        iswitch_core::UPSTREAM_IP,
                        &ControlMessage::Help { seg },
                    );
                    ctx.send(pkt);
                }
            }
            _ => {}
        }
    }

    fn on_packet(&mut self, ctx: &mut HostCtx<'_, '_>, pkt: Packet) {
        if dscp(pkt.ip.tos) == TOS_DATA {
            self.arrived
                .push(DataSegment::decode(&pkt.payload).expect("an f32 result"));
            if self.assembler.insert_wire(&pkt.payload) == RoundInsert::Completed {
                self.result = self.assembler.take_mean();
                self.result_at = Some(ctx.now());
            }
        } else if let Some(msg) = decode_control(&pkt) {
            self.acks.push(msg);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Round 0 of `grad` as sent from `src`.
fn packets(src: IpAddr, grad: &[f32]) -> Vec<Packet> {
    EncodedGradient::with_codec(src, grad, CodecKind::F32, 0).packets_round(0)
}

fn worker_grad(w: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| (w + 1) as f32 + (i % 7) as f32 * 0.25)
        .collect()
}

fn expected_mean(n: usize, len: usize) -> Vec<f32> {
    let mut acc = vec![0.0f32; len];
    for w in 0..n {
        for (a, g) in acc.iter_mut().zip(worker_grad(w, len)) {
            *a += g;
        }
    }
    for a in &mut acc {
        *a /= n as f32;
    }
    acc
}

fn build_star_sim(
    n: usize,
    len: usize,
    mk_worker: impl Fn(usize) -> ScriptedWorker,
) -> (Simulator, iswitch_netsim::Star) {
    let mut sim = Simulator::new();
    let apps: Vec<Box<dyn HostApp>> = (0..n)
        .map(|w| Box::new(mk_worker(w)) as Box<dyn HostApp>)
        .collect();
    // Ports on the switch are assigned in connect order: worker i -> port i.
    let child_ports: Vec<PortId> = (0..n).map(PortId::new).collect();
    let ext = IswitchExtension::new(ExtensionConfig::for_star(child_ports, len));
    let star = build_star(
        &mut sim,
        apps,
        Some(Box::new(ext)),
        &TopologyConfig::default(),
    );
    (sim, star)
}

#[test]
fn star_aggregates_and_broadcasts_to_all_workers() {
    let (n, len) = (4, 1000);
    let (mut sim, star) = build_star_sim(n, len, |w| {
        ScriptedWorker::new(worker_grad(w, len), SimDuration::from_micros(w as u64 * 3))
    });
    sim.run_until_idle();
    let expect = expected_mean(n, len);
    for &h in &star.hosts {
        let worker = sim
            .device::<iswitch_netsim::Host>(h)
            .app::<ScriptedWorker>();
        let got = worker
            .result
            .as_ref()
            .expect("every worker gets the result");
        for (a, b) in got.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-4, "aggregate mismatch: {a} vs {b}");
        }
    }
}

#[test]
fn star_aggregation_takes_two_hops_of_time() {
    // One full gradient push + broadcast should complete in roughly
    // serialization(model)·2 plus small overheads — the paper's two-hop
    // claim. For 1000 floats (3 packets) at 10 GbE this is tens of µs.
    let len = 1000;
    let (mut sim, star) = build_star_sim(3, len, |w| {
        ScriptedWorker::new(worker_grad(w, len), SimDuration::ZERO)
    });
    sim.run_until_idle();
    let worker = sim
        .device::<iswitch_netsim::Host>(star.hosts[0])
        .app::<ScriptedWorker>();
    let done = worker.result_at.expect("finished");
    assert!(
        done < SimTime::from_nanos(100_000),
        "two-hop aggregation should finish well under 100µs, took {done}"
    );
}

#[test]
fn interleaved_packet_arrivals_still_sum_correctly() {
    // Workers start at identical times so their packets interleave at the
    // switch; on-the-fly aggregation must be order-insensitive.
    let (n, len) = (4, 5000);
    let (mut sim, star) = build_star_sim(n, len, |w| {
        ScriptedWorker::new(worker_grad(w, len), SimDuration::ZERO)
    });
    sim.run_until_idle();
    let expect = expected_mean(n, len);
    let worker = sim
        .device::<iswitch_netsim::Host>(star.hosts[3])
        .app::<ScriptedWorker>();
    let got = worker.result.as_ref().expect("result");
    for (a, b) in got.iter().zip(&expect) {
        assert!((a - b).abs() < 1e-3);
    }
}

/// `racks` racks of `per_rack` workers `mk_worker(w)` (numbered rack-major)
/// under a core switch, every switch aggregating.
fn build_tree_sim(
    racks: usize,
    per_rack: usize,
    len: usize,
    mk_worker: impl Fn(usize) -> ScriptedWorker,
) -> (Simulator, iswitch_netsim::Tree) {
    let mut sim = Simulator::new();
    let rack_apps: Vec<Vec<Box<dyn HostApp>>> = (0..racks)
        .map(|r| {
            (0..per_rack)
                .map(|i| Box::new(mk_worker(r * per_rack + i)) as Box<dyn HostApp>)
                .collect()
        })
        .collect();
    let mut mk_ext = |role: SwitchRole| -> Option<Box<dyn iswitch_netsim::SwitchExtension>> {
        let ext = match role {
            SwitchRole::Tor(_) => {
                // ToR ports: workers 0..per_rack, then the uplink.
                IswitchExtension::new(ExtensionConfig::for_tree_level(
                    AggregationRole::Intermediate {
                        uplink: PortId::new(per_rack),
                    },
                    (0..per_rack).map(PortId::new).collect(),
                    len,
                ))
            }
            SwitchRole::Core => IswitchExtension::new(ExtensionConfig::for_tree_level(
                AggregationRole::Root,
                (0..racks).map(PortId::new).collect(),
                len,
            )),
            SwitchRole::Agg(_) => unreachable!("two-level tree"),
        };
        Some(Box::new(ext))
    };
    let tree = build_tree(&mut sim, rack_apps, &mut mk_ext, &TopologyConfig::default());
    (sim, tree)
}

#[test]
fn tree_hierarchical_aggregation_equals_flat_sum() {
    // Two racks of three workers under a core switch (Fig. 10): ToRs
    // aggregate locally, the core globally, results fan back down.
    let (len, racks, per_rack) = (2000, 2, 3);
    let (mut sim, tree) = build_tree_sim(racks, per_rack, len, |w| {
        ScriptedWorker::new(worker_grad(w, len), SimDuration::from_micros(w as u64))
    });
    sim.run_until_idle();

    let expect = expected_mean(racks * per_rack, len);
    for h in tree.all_hosts() {
        let worker = sim
            .device::<iswitch_netsim::Host>(h)
            .app::<ScriptedWorker>();
        let got = worker.result.as_ref().expect("every worker converges");
        for (a, b) in got.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-3, "hierarchical sum mismatch");
        }
    }
    // The core switch must have aggregated exactly rack-count contributions.
    let core_sw = sim.device_mut::<Switch>(tree.core);
    let ext = core_sw.extension::<IswitchExtension>();
    assert_eq!(
        ext.accelerator().stats().packets_in as usize,
        racks * iswitch_core::num_segments(len)
    );
}

#[test]
fn help_inside_a_tree_is_served_the_global_result() {
    // Two racks of two, one segment: worker 0's result is dropped on its
    // downlink. Its ToR relayed the global result from the core and
    // serves the `Help` from that — not from its rack's partial sum, the
    // aggregate it sent up.
    let (len, racks, per_rack) = (100, 2, 2);
    let (mut sim, tree) = build_tree_sim(racks, per_rack, len, |w| {
        let start = SimDuration::from_micros(w as u64);
        let mut worker = ScriptedWorker::new(worker_grad(w, len), start);
        worker.help_timeout = Some(SimDuration::from_millis(1));
        worker
    });
    // Worker 0's edge link carries its contribution (packet 0), then the
    // result (packet 1).
    let (link, loss) = (tree.host_links[0][0], LossModel::Exact { drops: vec![1] });
    sim.schedule_fault(SimTime::ZERO, FaultAction::SetLinkLoss { link, loss });
    sim.run_until_idle();

    let worker = sim
        .device::<iswitch_netsim::Host>(tree.hosts[0][0])
        .app::<ScriptedWorker>();
    let [reply] = worker.arrived.as_slice() else {
        panic!("one result, the Help reply: {:?}", worker.arrived);
    };
    assert_eq!(reply.count, 4, "the global count");
    let mean = expected_mean(racks * per_rack, len);
    for (sum, mean) in reply.values.iter().zip(&mean) {
        assert!(
            (sum - 4.0 * mean).abs() < 1e-3,
            "{sum} is not the global sum"
        );
    }
    assert_eq!(switch_counter(&sim, tree.tors[0], "help_served"), 1);
}

#[test]
fn three_level_hierarchy_aggregates_correctly() {
    // Fig. 10's full hierarchy: 2 AGGs x 2 ToRs x 3 workers = 12 workers.
    // ToRs aggregate 3 workers; AGGs aggregate 2 ToR contributions; the
    // core aggregates 2 AGG contributions and broadcasts back down.
    let len = 1500;
    let (aggs, tors_per_agg, per_rack) = (2usize, 2usize, 3usize);
    let total = aggs * tors_per_agg * per_rack;
    let mut sim = Simulator::new();
    let mut next = 0usize;
    let apps: Vec<Vec<Vec<Box<dyn HostApp>>>> = (0..aggs)
        .map(|_| {
            (0..tors_per_agg)
                .map(|_| {
                    (0..per_rack)
                        .map(|_| {
                            let w = next;
                            next += 1;
                            Box::new(ScriptedWorker::new(
                                worker_grad(w, len),
                                SimDuration::from_micros(w as u64 * 2),
                            )) as Box<dyn HostApp>
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let mut mk_ext = |role: SwitchRole| -> Option<Box<dyn iswitch_netsim::SwitchExtension>> {
        let (agg_role, children) = match role {
            SwitchRole::Tor(_) => (
                AggregationRole::Intermediate {
                    uplink: PortId::new(per_rack),
                },
                per_rack,
            ),
            SwitchRole::Agg(_) => (
                AggregationRole::Intermediate {
                    uplink: PortId::new(tors_per_agg),
                },
                tors_per_agg,
            ),
            SwitchRole::Core => (AggregationRole::Root, aggs),
        };
        Some(Box::new(IswitchExtension::new(
            ExtensionConfig::for_tree_level(
                agg_role,
                (0..children).map(PortId::new).collect(),
                len,
            ),
        )))
    };
    let tree = build_tree3(&mut sim, apps, &mut mk_ext, &TopologyConfig::default());
    sim.run_until_idle();

    let expect = expected_mean(total, len);
    for h in tree.all_hosts() {
        let worker = sim
            .device::<iswitch_netsim::Host>(h)
            .app::<ScriptedWorker>();
        let got = worker.result.as_ref().expect("all 12 workers converge");
        for (a, b) in got.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-3, "3-level hierarchical sum mismatch");
        }
    }
    // The core only saw one contribution per AGG per segment.
    let core_sw = sim.device_mut::<Switch>(tree.core);
    let ext = core_sw.extension::<IswitchExtension>();
    assert_eq!(
        ext.accelerator().stats().packets_in as usize,
        aggs * iswitch_core::num_segments(len)
    );
}

#[test]
fn join_and_set_h_are_acknowledged() {
    let len = 100;
    let (mut sim, star) = build_star_sim(2, len, |w| {
        let mut worker = ScriptedWorker::new(worker_grad(w, len), SimDuration::from_micros(5));
        worker.join_first = true;
        worker.worker_id = w as u32;
        worker
    });
    sim.run_until_idle();
    for &h in &star.hosts {
        let worker = sim
            .device::<iswitch_netsim::Host>(h)
            .app::<ScriptedWorker>();
        assert!(
            worker
                .acks
                .iter()
                .any(|m| matches!(m, ControlMessage::Ack { of: 0x01, ok: true })),
            "join should be acked"
        );
        assert!(worker.result.is_some());
    }
    let sw = sim.device_mut::<Switch>(star.switch);
    let ext = sw.extension::<IswitchExtension>();
    assert_eq!(ext.membership().worker_count(), 2);
}

#[test]
fn lost_result_recovered_via_help() {
    // Drop exactly one switch->worker result packet; the worker times out
    // and asks the switch to retransmit the result it keeps.
    let (n, len) = (2, 800);
    let mut sim = Simulator::new();
    let apps: Vec<Box<dyn HostApp>> = (0..n)
        .map(|w| {
            let mut worker = ScriptedWorker::new(worker_grad(w, len), SimDuration::ZERO);
            worker.help_timeout = Some(SimDuration::from_millis(1));
            Box::new(worker) as Box<dyn HostApp>
        })
        .collect();
    let child_ports: Vec<PortId> = (0..n).map(PortId::new).collect();
    let ext = IswitchExtension::new(ExtensionConfig::for_star(child_ports, len));
    // 800 floats -> 3 segments. Worker 0's link: drop one downward packet.
    // Sequence numbers count both directions on the link; worker 0 sends
    // 3 data packets (seq 0..2), then the three results come down (3..5).
    let cfg = TopologyConfig {
        edge: LinkSpec::ten_gbe(),
        ..TopologyConfig::default()
    };
    let star = {
        // Build with per-link loss: hand-wire instead of build_star.
        let switch = sim.add_node(
            Box::new(Switch::with_extension(
                iswitch_netsim::RouteTable::new(),
                Box::new(ext),
            )),
            iswitch_netsim::NodeOpts::new("switch").with_rx_overhead(cfg.switch_latency),
        );
        let mut routes = iswitch_netsim::RouteTable::new();
        let mut hosts = Vec::new();
        for (i, app) in apps.into_iter().enumerate() {
            let ip = host_ip(0, i);
            let node = sim.add_node(
                Box::new(iswitch_netsim::Host::new(ip, app)),
                iswitch_netsim::NodeOpts::new(format!("host{i}"))
                    .with_tx_overhead(cfg.host_tx_overhead)
                    .with_rx_overhead(cfg.host_rx_overhead),
            );
            let spec = if i == 0 {
                LinkSpec::ten_gbe().with_loss(LossModel::Exact { drops: vec![4] })
            } else {
                LinkSpec::ten_gbe()
            };
            let (_, _, sw_port) = sim.connect(node, switch, &spec);
            routes.add(ip, sw_port);
            hosts.push(node);
        }
        *sim.device_mut::<Switch>(switch).routes_mut() = routes;
        hosts
    };
    sim.run_until_idle();
    for &h in &star {
        let worker = sim
            .device::<iswitch_netsim::Host>(h)
            .app::<ScriptedWorker>();
        assert!(
            worker.result.is_some(),
            "worker recovered despite the lost result"
        );
    }
    assert!(sim.stats().packets_dropped >= 1);
}

#[test]
fn stale_partial_rounds_expire_and_broadcast() {
    // Drop one worker's contribution for one segment. With stale-flush
    // enabled the switch eventually broadcasts the partial aggregate
    // (count < N), and the per-segment count metadata lets workers still
    // average correctly.
    let (n, len) = (3, 500);
    let mut sim = Simulator::new();
    let apps: Vec<Box<dyn HostApp>> = (0..n)
        .map(|w| {
            Box::new(ScriptedWorker::new(worker_grad(w, len), SimDuration::ZERO))
                as Box<dyn HostApp>
        })
        .collect();
    let ext = IswitchExtension::new(
        ExtensionConfig::for_star((0..n).map(PortId::new).collect(), len)
            .with_stale_flush(SimDuration::from_millis(1)),
    );
    // 500 floats -> 2 segments. Drop worker 0's second data packet (its
    // uplink sequence number 1).
    let cfg = TopologyConfig::default();
    let switch = sim.add_node(
        Box::new(Switch::with_extension(
            iswitch_netsim::RouteTable::new(),
            Box::new(ext),
        )),
        iswitch_netsim::NodeOpts::new("switch").with_rx_overhead(cfg.switch_latency),
    );
    let mut routes = iswitch_netsim::RouteTable::new();
    let mut hosts = Vec::new();
    for (i, app) in apps.into_iter().enumerate() {
        let ip = host_ip(0, i);
        let node = sim.add_node(
            Box::new(iswitch_netsim::Host::new(ip, app)),
            iswitch_netsim::NodeOpts::new(format!("host{i}"))
                .with_tx_overhead(cfg.host_tx_overhead)
                .with_rx_overhead(cfg.host_rx_overhead),
        );
        let spec = if i == 0 {
            LinkSpec::ten_gbe().with_loss(LossModel::Exact { drops: vec![1] })
        } else {
            LinkSpec::ten_gbe()
        };
        let (_, _, sw_port) = sim.connect(node, switch, &spec);
        routes.add(ip, sw_port);
        hosts.push(node);
    }
    *sim.device_mut::<Switch>(switch).routes_mut() = routes;
    sim.run_until_idle();

    // Every worker completes: segment 0 averaged over 3, segment 1 over 2.
    for &h in &hosts {
        let worker = sim
            .device::<iswitch_netsim::Host>(h)
            .app::<ScriptedWorker>();
        let got = worker
            .result
            .as_ref()
            .expect("partial flush completes the round");
        // Segment 0 (first 366 elements): mean of workers 0,1,2.
        let full_mean: f32 =
            (worker_grad(0, len)[0] + worker_grad(1, len)[0] + worker_grad(2, len)[0]) / 3.0;
        assert!((got[0] - full_mean).abs() < 1e-4);
        // Segment 1: worker 0's packet was dropped -> mean of workers 1,2.
        let partial_mean: f32 = (worker_grad(1, len)[400] + worker_grad(2, len)[400]) / 2.0;
        assert!(
            (got[400] - partial_mean).abs() < 1e-4,
            "expected partial mean {partial_mean}, got {}",
            got[400]
        );
    }
    assert_eq!(switch_counter(&sim, switch, "stale_flushes"), 1);
}

#[test]
fn scheduled_exact_drop_is_recovered_by_partial_flush() {
    // Same loss scenario as `stale_partial_rounds_expire_and_broadcast`,
    // but injected through a scheduled fault against a stock `build_star`
    // topology: at t=0 worker 0's edge link gets an Exact loss model that
    // drops its second data packet (link sequence number 1). The stale
    // sweep flushes the stuck segment and every worker still completes
    // with the correct (per-segment count-weighted) mean.
    let (n, len) = (3, 500); // 2 segments
    let mut sim = Simulator::new();
    let apps: Vec<Box<dyn HostApp>> = (0..n)
        .map(|w| {
            let mut worker = ScriptedWorker::new(worker_grad(w, len), SimDuration::ZERO);
            worker.help_timeout = Some(SimDuration::from_millis(4));
            Box::new(worker) as Box<dyn HostApp>
        })
        .collect();
    let ext = IswitchExtension::new(
        ExtensionConfig::for_star((0..n).map(PortId::new).collect(), len)
            .with_stale_flush(SimDuration::from_millis(1)),
    );
    let star = build_star(
        &mut sim,
        apps,
        Some(Box::new(ext)),
        &TopologyConfig::default(),
    );
    sim.schedule_fault(
        SimTime::ZERO,
        FaultAction::SetLinkLoss {
            link: star.host_links[0],
            loss: LossModel::Exact { drops: vec![1] },
        },
    );
    sim.run_until_idle();

    for &h in &star.hosts {
        let worker = sim
            .device::<iswitch_netsim::Host>(h)
            .app::<ScriptedWorker>();
        let got = worker
            .result
            .as_ref()
            .expect("partial flush completes the round");
        // Segment 0: all three contributions arrived.
        let full_mean =
            (worker_grad(0, len)[0] + worker_grad(1, len)[0] + worker_grad(2, len)[0]) / 3.0;
        assert!((got[0] - full_mean).abs() < 1e-4);
        // Segment 1: worker 0's packet was dropped by the injected loss
        // model -> mean over workers 1 and 2 only.
        let partial_mean = (worker_grad(1, len)[400] + worker_grad(2, len)[400]) / 2.0;
        assert!(
            (got[400] - partial_mean).abs() < 1e-4,
            "expected partial mean {partial_mean}, got {}",
            got[400]
        );
    }
    assert_eq!(sim.stats().faults_applied, 1);
    assert_eq!(sim.stats().packets_dropped, 1);
    assert_eq!(switch_counter(&sim, star.switch, "stale_flushes"), 1);
}

#[test]
fn injected_switch_restart_is_recovered_by_retransmission() {
    // A scheduled fault fires the reserved fault-reset timer on the switch after
    // two of three contributions arrived: the accelerator loses all
    // volatile state (partial sums, counters, kept results). The two wiped
    // workers re-push on timeout and the round completes with the full
    // three-way mean — nothing double-counted, nothing lost.
    let (n, len) = (3, 400);
    let mut sim = Simulator::new();
    // Workers 0 and 1 push immediately (wiped by the restart); worker 2
    // pushes after the restart. Staggered timeouts keep the recovery
    // deterministic: by the time worker 2's timer could fire, the round
    // has completed and the guard sees the result.
    let timeouts = [1_000u64, 1_200, 5_000];
    let apps: Vec<Box<dyn HostApp>> = (0..n)
        .map(|w| {
            let delay = if w == 2 {
                SimDuration::from_micros(100)
            } else {
                SimDuration::ZERO
            };
            let mut worker = ScriptedWorker::new(worker_grad(w, len), delay);
            worker.help_timeout = Some(SimDuration::from_micros(timeouts[w]));
            worker.retransmit_on_timeout = true;
            Box::new(worker) as Box<dyn HostApp>
        })
        .collect();
    let ext = IswitchExtension::new(ExtensionConfig::for_star(
        (0..n).map(PortId::new).collect(),
        len,
    ));
    let star = build_star(
        &mut sim,
        apps,
        Some(Box::new(ext)),
        &TopologyConfig::default(),
    );
    sim.schedule_fault(
        SimTime::from_nanos(50_000),
        FaultAction::InjectTimer {
            node: star.switch,
            token: FAULT_RESET_TOKEN,
        },
    );
    sim.run_until_idle();

    let expect = expected_mean(n, len);
    for &h in &star.hosts {
        let worker = sim
            .device::<iswitch_netsim::Host>(h)
            .app::<ScriptedWorker>();
        let got = worker
            .result
            .as_ref()
            .expect("every worker recovers from the switch restart");
        for (a, b) in got.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-4, "post-restart mismatch: {a} vs {b}");
        }
    }
    let sw = sim.device_mut::<Switch>(star.switch);
    assert_eq!(sw.extension::<IswitchExtension>().stats().fault_resets, 1);
}

#[test]
fn halt_is_relayed_to_every_worker() {
    // One worker sends Halt; the switch fans it out to all children
    // ("suspend the training job on all workers", Table 2).
    let len = 50;
    struct HaltSender {
        send_halt: bool,
        halts_seen: u32,
    }
    impl HostApp for HaltSender {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
            if self.send_halt {
                ctx.set_timer(SimDuration::from_micros(10), 0);
            }
        }
        fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, _token: u64) {
            let pkt = control_packet(ctx.ip(), iswitch_core::UPSTREAM_IP, &ControlMessage::Halt);
            ctx.send(pkt);
        }
        fn on_packet(&mut self, _ctx: &mut HostCtx<'_, '_>, pkt: Packet) {
            if let Some(ControlMessage::Halt) = iswitch_core::decode_control(&pkt) {
                self.halts_seen += 1;
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let mut sim = Simulator::new();
    let apps: Vec<Box<dyn HostApp>> = (0..3)
        .map(|i| {
            Box::new(HaltSender {
                send_halt: i == 0,
                halts_seen: 0,
            }) as Box<dyn HostApp>
        })
        .collect();
    let ext = IswitchExtension::new(ExtensionConfig::for_star(
        (0..3).map(PortId::new).collect(),
        len,
    ));
    let star = build_star(
        &mut sim,
        apps,
        Some(Box::new(ext)),
        &TopologyConfig::default(),
    );
    sim.run_until_idle();
    for &h in &star.hosts {
        let w = sim.device::<iswitch_netsim::Host>(h).app::<HaltSender>();
        assert_eq!(
            w.halts_seen, 1,
            "every worker (including the sender) gets the relay"
        );
    }
}

#[test]
fn reset_clears_in_flight_aggregation() {
    // Two of three contributions arrive, then Reset: the round restarts
    // and the pre-reset partial never leaks into the next aggregate.
    let len = 10;
    struct Resetter;
    impl HostApp for Resetter {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
            ctx.set_timer(SimDuration::from_micros(50), 0);
        }
        fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, _token: u64) {
            let pkt = control_packet(ctx.ip(), iswitch_core::UPSTREAM_IP, &ControlMessage::Reset);
            ctx.send(pkt);
        }
        fn on_packet(&mut self, _ctx: &mut HostCtx<'_, '_>, _pkt: Packet) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let mut sim = Simulator::new();
    // Workers 0 and 1 push immediately (partial 2/3); worker 2 (Resetter)
    // resets at 50 µs; then workers push again at 200 µs via ScriptedWorker
    // staging — simplest: 3 scripted workers at 200 µs AFTER the reset,
    // plus two eager one-segment pushes beforehand.
    struct EagerThenFull {
        grad: Vec<f32>,
        poison_first: bool,
        asm: RoundAssembler,
        result: Option<Vec<f32>>,
    }
    impl HostApp for EagerThenFull {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
            if self.poison_first {
                ctx.set_timer(SimDuration::from_micros(1), 1); // eager partial
            }
            ctx.set_timer(SimDuration::from_micros(200), 2); // real round
        }
        fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, token: u64) {
            if token == 1 {
                // A poisoned half-round that Reset must erase.
                for pkt in packets(ctx.ip(), &vec![1_000.0; self.grad.len()]) {
                    ctx.send(pkt);
                }
            } else {
                for pkt in packets(ctx.ip(), &self.grad) {
                    ctx.send(pkt);
                }
            }
        }
        fn on_packet(&mut self, _ctx: &mut HostCtx<'_, '_>, pkt: Packet) {
            if dscp(pkt.ip.tos) == TOS_DATA
                && self.asm.insert_wire(&pkt.payload) == RoundInsert::Completed
            {
                self.result = self.asm.take_mean();
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let apps: Vec<Box<dyn HostApp>> = vec![
        Box::new(EagerThenFull {
            grad: vec![1.0; len],
            poison_first: true,
            asm: RoundAssembler::new(len, true),
            result: None,
        }),
        Box::new(EagerThenFull {
            grad: vec![2.0; len],
            poison_first: false,
            asm: RoundAssembler::new(len, true),
            result: None,
        }),
        Box::new(Resetter),
    ];
    // Threshold 2: only the two data workers contribute.
    let ext = IswitchExtension::new(
        ExtensionConfig::for_star((0..3).map(PortId::new).collect(), len).with_threshold(2),
    );
    let star = build_star(
        &mut sim,
        apps,
        Some(Box::new(ext)),
        &TopologyConfig::default(),
    );
    sim.run_until_idle();
    // Without the reset, worker 0's poisoned half-round would absorb
    // worker 1's clean 200 µs contribution (summing 1000 + 2); with it,
    // the first completed round is fully clean: mean (1 + 2) / 2 = 1.5.
    let w0 = sim
        .device::<iswitch_netsim::Host>(star.hosts[0])
        .app::<EagerThenFull>();
    let got = w0.result.as_ref().expect("clean round completes");
    assert!(
        got.iter().all(|&v| (v - 1.5).abs() < 1e-5),
        "reset failed to clear the poisoned partial: {got:?}"
    );
}

#[test]
fn non_iswitch_traffic_passes_through_untouched() {
    let len = 50;
    let mut sim = Simulator::new();

    /// Sends a plain UDP packet to the other worker through the switch.
    struct PlainSender {
        peer: iswitch_netsim::IpAddr,
        got_plain: usize,
    }
    impl HostApp for PlainSender {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
            let pkt = Packet::udp(ctx.ip(), self.peer, 5000, 5000, 0).with_payload(vec![42u8; 64]);
            ctx.send(pkt);
        }
        fn on_packet(&mut self, _ctx: &mut HostCtx<'_, '_>, pkt: Packet) {
            if pkt.ip.tos == 0 {
                self.got_plain += 1;
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    let apps: Vec<Box<dyn HostApp>> = vec![
        Box::new(PlainSender {
            peer: host_ip(0, 1),
            got_plain: 0,
        }),
        Box::new(PlainSender {
            peer: host_ip(0, 0),
            got_plain: 0,
        }),
    ];
    let ext = IswitchExtension::new(ExtensionConfig::for_star(
        vec![PortId::new(0), PortId::new(1)],
        len,
    ));
    let star = build_star(
        &mut sim,
        apps,
        Some(Box::new(ext)),
        &TopologyConfig::default(),
    );
    sim.run_until_idle();
    for &h in &star.hosts {
        assert_eq!(
            sim.device::<iswitch_netsim::Host>(h)
                .app::<PlainSender>()
                .got_plain,
            1
        );
    }
    assert_eq!(switch_counter(&sim, star.switch, "passed_through"), 2);
}

#[test]
fn switch_drops_and_counts_a_contribution_that_disagrees_with_the_open_round() {
    // Worker 0 opens every round; then a fourth host sends a well-formed
    // three-float packet for segment 0, whose open round holds a full
    // segment; then workers 1 and 2 contribute. The switch must drop the
    // odd packet, count it, and still aggregate the three honest workers.
    let (n, len) = (3, 1000);
    let mut apps: Vec<Box<dyn HostApp>> = (0..n)
        .map(|w| {
            let start = SimDuration::from_micros(w as u64 * 200);
            Box::new(ScriptedWorker::new(worker_grad(w, len), start)) as Box<dyn HostApp>
        })
        .collect();
    // A worker that believes the model has three parameters.
    let odd = ScriptedWorker::new(vec![9.0; 3], SimDuration::from_micros(100));
    apps.push(Box::new(odd));
    let child_ports: Vec<PortId> = (0..=n).map(PortId::new).collect();
    let ext =
        IswitchExtension::new(ExtensionConfig::for_star(child_ports, len).with_threshold(n as u16));
    let mut sim = Simulator::new();
    let star = build_star(
        &mut sim,
        apps,
        Some(Box::new(ext)),
        &TopologyConfig::default(),
    );
    sim.run_until_idle();

    let expect = expected_mean(n, len);
    for &h in &star.hosts[..n] {
        let worker = sim
            .device::<iswitch_netsim::Host>(h)
            .app::<ScriptedWorker>();
        let got = worker.result.as_ref().expect("honest workers finish");
        for (a, b) in got.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-4, "aggregate mismatch: {a} vs {b}");
        }
    }
    let exported = format!("core.switch.n{:03}.malformed_drops", star.switch.index());
    assert_eq!(sim.metrics().counter(&exported).get(), 1);
    let sw = sim.device_mut::<Switch>(star.switch);
    let stats = sw.extension::<IswitchExtension>().accelerator().stats();
    assert_eq!(stats.malformed_drops, 1);
    assert_eq!(stats.packets_in as usize, n * 3 + 1);
    assert_eq!(stats.segments_emitted, 3);
}

#[test]
fn refused_contribution_leaves_no_latency_clock_or_ce_mark_behind() {
    // BRAM holds one segment, H = 2, three workers 300 µs apart, two
    // segments. Worker 0 (CE-marked) opens segment 0; its segment 1 is
    // refused for lack of BRAM. Worker 1 completes segment 0 and opens
    // segment 1; worker 2's segment 0 is refused in turn and its segment 1
    // completes that round. The refused packets belong to no round: the
    // segment-1 window runs from worker 1's arrival, not worker 0's, and
    // its result — summed from two clean contributions — carries no echo.
    let (n, len) = (3, 500);
    let step = SimDuration::from_micros(300);
    let apps: Vec<Box<dyn HostApp>> = (0..n)
        .map(|w| {
            let mut worker = ScriptedWorker::new(worker_grad(w, len), step * w as u64);
            worker.mark_ce = w == 0;
            Box::new(worker) as Box<dyn HostApp>
        })
        .collect();
    let mut cfg =
        ExtensionConfig::for_star((0..n).map(PortId::new).collect(), len).with_threshold(2);
    cfg.accel.buffer_bytes = iswitch_core::FLOATS_PER_SEGMENT * 4;
    let mut sim = Simulator::new();
    let star = build_star(
        &mut sim,
        apps,
        Some(Box::new(IswitchExtension::new(cfg))),
        &TopologyConfig::default(),
    );
    sim.run_until_idle();

    for &h in &star.hosts {
        let worker = sim
            .device::<iswitch_netsim::Host>(h)
            .app::<ScriptedWorker>();
        let got = worker.result.as_ref().expect("both rounds reach everyone");
        // Segment 0 is workers 0 and 1, segment 1 is workers 1 and 2.
        let seg0 = (worker_grad(0, len)[0] + worker_grad(1, len)[0]) / 2.0;
        let seg1 = (worker_grad(1, len)[400] + worker_grad(2, len)[400]) / 2.0;
        assert!((got[0] - seg0).abs() < 1e-4);
        assert!((got[400] - seg1).abs() < 1e-4);
    }
    let latency = sim.metrics().histogram(&format!(
        "core.switch.n{:03}.agg_latency_ns",
        star.switch.index()
    ));
    assert_eq!(latency.count(), 2);
    assert!(
        latency.max_value() < 2 * step.as_nanos(),
        "a window was clocked from a refused packet: {} ns",
        latency.max_value()
    );
    let sw = sim.device_mut::<Switch>(star.switch);
    let ext = sw.extension::<IswitchExtension>();
    assert_eq!(ext.accelerator().stats().bram_drops, 2);
    assert_eq!(ext.stats().ecn_echoed, 1, "only segment 0 saw a CE mark");
}

#[test]
fn a_reset_forgets_held_and_scheduled_emissions() {
    // Store-and-forward on a slow (1 MHz) datapath, H = 1, two segments:
    // a pre-reset aggregate sits in the held set (1 of 2 segments done),
    // and a complete round sits in scheduled emissions, each when a reset
    // lands. Neither may surface afterwards: the held aggregate would fire
    // the next round one segment early (and phase-shift every round after
    // it), the scheduled ones would be emitted by a switch that no longer
    // knows them. Both ways a switch is reset must agree.
    const LEN: usize = 500;
    // Push A's segment 0, reset with it held; push B, reset with B's two
    // segments scheduled (54 µs per packet: they would leave ~208 µs and
    // ~262 µs in); push C, which alone may come back.
    // (time in µs, gradient value, leading segments pushed)
    let pushes = [(1, 1_000.0, 1), (100, 1.0, 2), (500, 2.0, 2)];
    let resets = [20, 150];
    let me = host_ip(0, 0);
    for by_fault in [false, true] {
        let mut script: Vec<(u64, Packet)> = Vec::new();
        for (at, value, segments) in pushes {
            let train = packets(me, &[value; LEN]).into_iter().take(segments);
            script.extend(train.map(|pkt| (at * 1_000, pkt)));
        }
        if !by_fault {
            let reset = control_packet(me, iswitch_core::UPSTREAM_IP, &ControlMessage::Reset);
            script.extend(resets.map(|at| (at * 1_000, reset.clone())));
        }
        let mut cfg = ExtensionConfig::for_star(vec![PortId::new(0)], LEN).store_and_forward();
        cfg.accel.clock_hz = 1_000_000;
        let mut sim = Simulator::new();
        let star = build_star(
            &mut sim,
            vec![Puppet::new(script)],
            Some(Box::new(IswitchExtension::new(cfg))),
            &TopologyConfig::default(),
        );
        if by_fault {
            for at in resets {
                let (node, token) = (star.switch, FAULT_RESET_TOKEN);
                let restart = FaultAction::InjectTimer { node, token };
                sim.schedule_fault(SimTime::from_nanos(at * 1_000), restart);
            }
        }
        sim.run_until_idle();
        let host = sim.device::<iswitch_netsim::Host>(star.hosts[0]);
        let got: Vec<(u64, f32)> = (host.app::<Puppet>().got.iter())
            .map(|(_, pkt)| DataSegment::decode(&pkt.payload).expect("an f32 result"))
            .map(|seg| (seg.seg, seg.values[0]))
            .collect();
        assert_eq!(got, [(0, 2.0), (1, 2.0)], "by_fault = {by_fault}");
    }
}

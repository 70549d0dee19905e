//! Hierarchical aggregation under membership churn: a three-level
//! ToR/AGG/Core deployment (Fig. 10) where one rack's worker leaves and
//! later rejoins mid-run. Every broadcast round must match the membership
//! in force when it ran — both the contributor *count* metadata and the
//! aggregate *values*.

use std::any::Any;

use iswitch_core::{
    control_packet, dscp, seg_round, AggregationRole, CodecKind, ControlMessage, DataSegment,
    EncodedGradient, ExtensionConfig, IswitchExtension, TOS_DATA, UPSTREAM_IP,
};
use iswitch_netsim::{
    build_tree3, HostApp, HostCtx, Packet, PortId, SimDuration, SimTime, Simulator, Switch,
    SwitchRole, TopologyConfig,
};

const T_JOIN: u64 = 1;
const T_PUSH: u64 = 2;
const T_LEAVE: u64 = 3;
const T_REJOIN: u64 = 4;

/// A worker that joins at start, pushes one round-tagged gradient every
/// `push_period`, and optionally leaves at `leave_at` and rejoins at
/// `rejoin_at`. On rejoin it resynchronizes its round counter from the
/// broadcasts it kept receiving while out (results fan out by port, not
/// membership) so its next push lands in the cluster's current round.
struct ChurnWorker {
    worker_id: u32,
    grad: Vec<f32>,
    push_period: SimDuration,
    leave_at: Option<SimDuration>,
    rejoin_at: Option<SimDuration>,
    active: bool,
    round: u32,
    last_seen_round: u32,
    /// `(round, contributor count, mean value)` of every result segment.
    results: Vec<(u32, u16, f32)>,
}

impl ChurnWorker {
    fn new(worker_id: u32, grad: Vec<f32>) -> Self {
        ChurnWorker {
            worker_id,
            grad,
            push_period: SimDuration::from_millis(2),
            leave_at: None,
            rejoin_at: None,
            active: false,
            round: 0,
            last_seen_round: 0,
            results: Vec::new(),
        }
    }

    fn join(&self, ctx: &mut HostCtx<'_, '_>) {
        let join = ControlMessage::Join {
            worker_id: self.worker_id,
            grad_len: self.grad.len() as u32,
        };
        ctx.send(control_packet(ctx.ip(), UPSTREAM_IP, &join));
    }
}

impl HostApp for ChurnWorker {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
        ctx.set_timer(SimDuration::from_micros(1), T_JOIN);
        if let Some(at) = self.leave_at {
            ctx.set_timer(at, T_LEAVE);
        }
        if let Some(at) = self.rejoin_at {
            ctx.set_timer(at, T_REJOIN);
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, token: u64) {
        match token {
            T_JOIN => {
                self.join(ctx);
                self.active = true;
                ctx.set_timer(SimDuration::from_micros(100), T_PUSH);
            }
            T_PUSH if self.active => {
                let enc = EncodedGradient::with_codec(ctx.ip(), &self.grad, CodecKind::F32, 0);
                for pkt in enc.packets_round(self.round) {
                    ctx.send(pkt);
                }
                self.round += 1;
                ctx.set_timer(self.push_period, T_PUSH);
            }
            T_LEAVE => {
                let leave = ControlMessage::Leave {
                    worker_id: self.worker_id,
                };
                ctx.send(control_packet(ctx.ip(), UPSTREAM_IP, &leave));
                self.active = false;
            }
            T_REJOIN => {
                self.join(ctx);
                self.active = true;
                // The rounds moved on without us; resume in the current one.
                self.round = self.last_seen_round + 1;
                ctx.set_timer(SimDuration::from_micros(50), T_PUSH);
            }
            _ => {}
        }
    }

    fn on_packet(&mut self, _ctx: &mut HostCtx<'_, '_>, pkt: Packet) {
        if dscp(pkt.ip.tos) == TOS_DATA {
            let seg = DataSegment::decode(&pkt.payload).expect("an f32 result");
            let round = seg_round(seg.seg);
            self.last_seen_round = self.last_seen_round.max(round);
            let mean = seg.values[0] / f32::from(seg.count);
            self.results.push((round, seg.count, mean));
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn rack_worker_leave_and_rejoin_matches_membership_every_round() {
    // 2 AGGs x 1 ToR x 2 workers = 4 workers, gradient value 2^w per
    // worker so every live subset has a unique mean: all four -> 15/4,
    // without worker 3 -> 7/3. ToRs track membership (auto threshold);
    // AGG and core aggregate a fixed one contribution per child switch.
    let (aggs, tors_per_agg, per_rack) = (2usize, 1usize, 2usize);
    let len = 40; // single segment
    let mut sim = Simulator::new();
    let mut next = 0u32;
    let apps: Vec<Vec<Vec<Box<dyn HostApp>>>> = (0..aggs)
        .map(|_| {
            (0..tors_per_agg)
                .map(|_| {
                    (0..per_rack)
                        .map(|_| {
                            let w = next;
                            next += 1;
                            let mut worker = ChurnWorker::new(w, vec![(1u32 << w) as f32; len]);
                            if w == 3 {
                                // Leave between round-2 and round-3 pushes
                                // (pushes land at 101us + r*2ms), return
                                // between round-9 and round-10.
                                worker.leave_at = Some(SimDuration::from_millis(5));
                                worker.rejoin_at = Some(SimDuration::from_micros(20_050));
                            }
                            Box::new(worker) as Box<dyn HostApp>
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let mut mk_ext = |role: SwitchRole| -> Option<Box<dyn iswitch_netsim::SwitchExtension>> {
        let cfg = match role {
            SwitchRole::Tor(_) => {
                let mut c = ExtensionConfig::for_tree_level(
                    AggregationRole::Intermediate {
                        uplink: PortId::new(per_rack),
                    },
                    (0..per_rack).map(PortId::new).collect(),
                    len,
                );
                // The churn-aware level: thresholds follow Join/Leave.
                c.auto_threshold = true;
                c.threshold = 1;
                c
            }
            SwitchRole::Agg(_) => ExtensionConfig::for_tree_level(
                AggregationRole::Intermediate {
                    uplink: PortId::new(tors_per_agg),
                },
                (0..tors_per_agg).map(PortId::new).collect(),
                len,
            ),
            SwitchRole::Core => ExtensionConfig::for_tree_level(
                AggregationRole::Root,
                (0..aggs).map(PortId::new).collect(),
                len,
            ),
        };
        Some(Box::new(IswitchExtension::new(cfg)))
    };
    let tree = build_tree3(&mut sim, apps, &mut mk_ext, &TopologyConfig::default());
    sim.run_until(SimTime::from_nanos(30_000_000));

    // Membership settled back to 2 workers on rack B's ToR.
    let tor_b = sim.device_mut::<Switch>(tree.tors[1][0]);
    let ext = tor_b.extension::<IswitchExtension>();
    assert_eq!(ext.membership().worker_count(), 2, "rejoin restored rack B");
    assert_eq!(ext.accelerator().threshold(), 2);

    // Worker 0 (never churned) observed every round; each must match the
    // membership in force when it ran.
    let w0 = sim
        .device::<iswitch_netsim::Host>(tree.hosts[0][0][0])
        .app::<ChurnWorker>();
    let full_mean = (1.0 + 2.0 + 4.0 + 8.0) / 4.0;
    let partial_mean = (1.0 + 2.0 + 4.0) / 3.0;
    let mut seen_full_early = false;
    let mut seen_partial = false;
    let mut seen_full_late = false;
    for &(round, count, mean) in &w0.results {
        match count {
            4 => {
                assert!(
                    (mean - full_mean).abs() < 1e-5,
                    "round {round}: 4-worker round must average all four, got {mean}"
                );
                if round < 3 {
                    seen_full_early = true;
                } else {
                    seen_full_late = true;
                    assert!(round >= 10, "worker 3 was away for rounds 3..10");
                }
            }
            3 => {
                assert!(
                    (mean - partial_mean).abs() < 1e-5,
                    "round {round}: 3-worker round must exclude worker 3, got {mean}"
                );
                assert!(
                    (3..10).contains(&round),
                    "3-worker rounds only while worker 3 is away, got round {round}"
                );
                seen_partial = true;
            }
            other => panic!("round {round}: impossible contributor count {other}"),
        }
    }
    assert!(
        seen_full_early,
        "rounds before the leave aggregate 4 workers"
    );
    assert!(
        seen_partial,
        "rounds during the absence aggregate 3 workers"
    );
    assert!(
        seen_full_late,
        "rounds after the rejoin aggregate 4 workers"
    );

    // The churning worker itself converges back into the job: its last
    // result is a full 4-worker aggregate.
    let w3 = sim
        .device::<iswitch_netsim::Host>(tree.hosts[1][0][1])
        .app::<ChurnWorker>();
    let &(last_round, last_count, last_mean) =
        w3.results.last().expect("worker 3 keeps receiving results");
    assert_eq!(last_count, 4);
    assert!(last_round >= 10);
    assert!((last_mean - full_mean).abs() < 1e-5);
}

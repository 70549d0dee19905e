//! The traced run: an outside-in attribution of one workload's host time to
//! this repo's layers, through their public functions only.
//!
//! Under the root span `workload` it (1) runs the workload through the
//! observed runner and reads per-layer counts from its metrics snapshot,
//! (2) drives each layer the workload uses in isolation with the workload's
//! kind of traffic to get a unit cost, and (3) makes the differential runs
//! that price what has no drive (transport, tenancy, sharding, tracing).
//! `est_share` = unit cost x count / the workload's CPU time. The shares are
//! estimates from outside the program: spans inside it are a later change.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use iswitch_cluster::{run_timing_perf, TransportKind};
use iswitch_core::{
    Accelerator, AcceleratorConfig, CodecKind, DataSegment, EncodedGradient, ExtensionConfig,
    IswitchExtension, RoundAssembler,
};
use iswitch_netsim::{
    build_star, host_ip, Context, Device, EgressQueue, Host, HostApp, HostCtx, IpAddr, NodeOpts,
    Packet, PortId, ShardedSim, SimDuration, Simulator, Switch, SwitchExtension, TopologyConfig,
};
use iswitch_obs::{JsonValue, Registry};
use iswitch_rl::{paper_model, Algorithm};

use crate::e2e::PaperFidelity;
use crate::measure::{counted, timed, Tracer};
use crate::report::{Metric, PER_LAYER};
use crate::workloads::{
    run_observed, run_perf, tenant_fabric, Outcome, Plan, Size, Workload, TENANTS,
};

/// Result of the traced run of one workload.
pub struct Layers {
    /// Every metric of [`PER_LAYER`], in its order.
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    /// One line per failed operation.
    pub faults: Vec<String>,
    pub tracer: Tracer,
}

/// Cost of one unit of work through a layer's public functions.
#[derive(Debug, Clone, Copy)]
struct UnitCost {
    ns: f64,
    allocs: f64,
}

/// Segments per burst and bursts per host in the network drives: 8,192 full
/// frames per host, enough that building the simulation is under 1 % of a
/// repetition.
const BURST_SEGMENTS: usize = 512;
const BURSTS: u32 = 16;

/// Steps a 64-bit linear congruential generator and returns its high bits.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Deterministic values in [-1, 1) for a synthetic gradient.
fn gradient(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed;
    (0..len)
        .map(|_| (lcg(&mut state) >> 7) as f32 / (1u64 << 23) as f32 - 1.0)
        .collect()
}

/// Scripted host: sends one pre-built burst per round and starts the next
/// round when `expect` packets have come back. Bursts are built before the
/// timed part, so a network drive times the network, not `core.worker`.
struct Blaster {
    /// Bursts still to send, last first.
    bursts: Vec<Vec<Packet>>,
    /// Bursts sent at start without waiting (open loop when > 1).
    initial: usize,
    expect: usize,
    got: usize,
}

impl Blaster {
    fn send_burst(&mut self, ctx: &mut HostCtx<'_, '_>) {
        for pkt in self.bursts.pop().into_iter().flatten() {
            ctx.send(pkt);
        }
    }
}

impl HostApp for Blaster {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
        for _ in 0..self.initial {
            self.send_burst(ctx);
        }
    }

    fn on_packet(&mut self, ctx: &mut HostCtx<'_, '_>, _pkt: Packet) {
        self.got += 1;
        if self.got == self.expect {
            self.got = 0;
            self.send_burst(ctx);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A host at `ip` with `BURSTS` bursts of `grad` under `codec`. `Some(dst)`
/// unicasts them to that host through plain forwarding (every burst shares
/// one set of payloads); `None` leaves them addressed upstream for an
/// iSwitch to aggregate, each burst tagged with its own round.
fn blaster(ip: IpAddr, grad: &[f32], codec: CodecKind, dst: Option<IpAddr>) -> Blaster {
    let enc = EncodedGradient::with_codec(ip, grad, codec, 0);
    let bursts = match dst {
        Some(dst) => {
            let mut burst = enc.packets_round(0);
            burst.iter_mut().for_each(|pkt| pkt.ip.dst = dst);
            vec![burst; BURSTS as usize]
        }
        None => (0..BURSTS)
            .rev()
            .map(|round| enc.packets_round(round))
            .collect(),
    };
    Blaster {
        bursts,
        initial: 1,
        expect: codec.num_segments(grad.len()),
        got: 0,
    }
}

fn host_opts(label: &str, topo: &TopologyConfig) -> NodeOpts {
    NodeOpts::new(label)
        .with_tx_overhead(topo.host_tx_overhead)
        .with_backpressure()
        .with_rx_overhead(topo.host_rx_overhead)
}

/// Two hosts on one 10 GbE link, each blasting bursts at the other.
fn link_pair(grad: &[f32]) -> Simulator {
    let topo = TopologyConfig::default();
    let ips = [host_ip(0, 0), host_ip(0, 1)];
    let mut sim = Simulator::new();
    let nodes: Vec<_> = (0..2)
        .map(|i| {
            let app = blaster(ips[i], grad, CodecKind::F32, Some(ips[1 - i]));
            sim.add_node(
                Box::new(Host::new(ips[i], Box::new(app))),
                host_opts(&format!("host{i}"), &topo),
            )
        })
        .collect();
    sim.connect(nodes[0], nodes[1], &topo.edge);
    sim
}

/// The same pair split over two engine domains.
fn sharded_pair(grad: &[f32]) -> ShardedSim {
    let topo = TopologyConfig::default();
    let ips = [host_ip(0, 0), host_ip(0, 1)];
    let mut sim = ShardedSim::new();
    let nodes: Vec<_> = (0..2)
        .map(|i| {
            let d = sim.add_domain();
            let app = blaster(ips[i], grad, CodecKind::F32, Some(ips[1 - i]));
            let node = sim.domain_mut(d).add_node(
                Box::new(Host::new(ips[i], Box::new(app))),
                host_opts(&format!("host{i}"), &topo),
            );
            (d, node)
        })
        .collect();
    sim.connect_cross(nodes[0], nodes[1], &topo.edge);
    sim
}

/// Four hosts on a plain switch, host `i` blasting at host `i + 1`.
fn forward_star(grad: &[f32]) -> Simulator {
    let mut sim = Simulator::new();
    let apps = (0..4)
        .map(|i| {
            let app = blaster(
                host_ip(0, i),
                grad,
                CodecKind::F32,
                Some(host_ip(0, (i + 1) % 4)),
            );
            Box::new(app) as Box<dyn HostApp>
        })
        .collect();
    build_star(&mut sim, apps, None, &TopologyConfig::default());
    sim
}

/// Four senders overloading one receiver's shallow egress queue: every
/// burst at once, so the switch port marks and tail-drops.
fn overload_star(grad: &[f32]) -> Simulator {
    let mut sim = Simulator::new();
    let sink = host_ip(0, 4);
    let apps = (0..5)
        .map(|i| {
            let mut app = blaster(host_ip(0, i), grad, CodecKind::F32, Some(sink));
            if i == 4 {
                app.bursts.clear();
            } else {
                app.bursts.truncate(4);
                app.initial = 4;
            }
            Box::new(app) as Box<dyn HostApp>
        })
        .collect();
    let mut topo = TopologyConfig::default();
    topo.edge.queue = Some(EgressQueue::shallow());
    build_star(&mut sim, apps, None, &topo);
    sim
}

/// `fan_in` hosts under one iSwitch, blasting rounds for it to aggregate
/// and waiting for each round's broadcast result.
fn isw_star(grad: &[f32], codec: CodecKind, fan_in: usize) -> (Simulator, iswitch_netsim::Star) {
    let mut sim = Simulator::new();
    let apps = (0..fan_in)
        .map(|i| Box::new(blaster(host_ip(0, i), grad, codec, None)) as Box<dyn HostApp>)
        .collect();
    let ports = (0..fan_in).map(PortId::new).collect();
    let ext = IswitchExtension::new(ExtensionConfig::for_star(ports, grad.len()).with_codec(codec));
    let ext: Box<dyn SwitchExtension> = Box::new(ext);
    let star = build_star(&mut sim, apps, Some(ext), &TopologyConfig::default());
    (sim, star)
}

/// A device that keeps `OUTSTANDING` timers armed with delays spread over
/// `[1 us, spread_ns]` until `total` have fired: the event loop and its
/// timing wheel with no packet work at all.
struct TimerMill {
    left: u64,
    state: u64,
    spread_ns: u64,
}

const OUTSTANDING: u64 = 256;

impl TimerMill {
    fn arm(&mut self, ctx: &mut Context<'_>) {
        let delay = 1_000 + lcg(&mut self.state) % self.spread_ns;
        ctx.set_timer(SimDuration::from_nanos(delay), 0);
    }
}

impl Device for TimerMill {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for _ in 0..OUTSTANDING {
            self.arm(ctx);
        }
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_>, _port: PortId, _pkt: Packet) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        self.left -= 1;
        if self.left >= OUTSTANDING {
            self.arm(ctx);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The (algorithm, codec) pairs whose in-switch traffic the workload
/// carries, largest gradient first, and the fan-in of its leaf switches.
fn isw_jobs(workload: &Workload) -> (Vec<(Algorithm, CodecKind)>, usize) {
    match workload.name {
        "ps_tree3_dqn" => (Vec::new(), 0),
        "incast_fattree_nack" => (vec![(Algorithm::Dqn, CodecKind::F32)], 2),
        "tenant_codec_mix" => {
            let mut jobs: Vec<_> = TENANTS
                .iter()
                .map(|&(_, alg, codec)| (alg, codec))
                .collect();
            jobs.sort_by_key(|&(alg, _)| std::cmp::Reverse(paper_model(alg).param_count()));
            (jobs, 4)
        }
        _ => (vec![(Algorithm::Dqn, CodecKind::F32)], 4),
    }
}

/// Contributions of every worker to one round, pre-built so the timed part
/// is ingestion alone.
struct AccelRound {
    accel: Accelerator,
    packets: Vec<Vec<Packet>>,
}

/// A fresh accelerator and round `round` of each worker's encoded gradient.
fn accel_round(
    encoded: &[EncodedGradient],
    grad_len: usize,
    codec: CodecKind,
    round: u32,
) -> AccelRound {
    AccelRound {
        accel: Accelerator::with_codec(
            AcceleratorConfig::default(),
            codec.num_segments(grad_len),
            encoded.len() as u16,
            codec,
        ),
        packets: encoded.iter().map(|enc| enc.packets_round(round)).collect(),
    }
}

/// Each worker's gradient encoded once under `codec`.
fn encode_all(grads: &[Vec<f32>], codec: CodecKind) -> Vec<EncodedGradient> {
    grads
        .iter()
        .enumerate()
        .map(|(w, g)| EncodedGradient::with_codec(host_ip(0, w), g, codec, 0))
        .collect()
}

/// Ingests the round segment-major (segment 0 from every worker, then
/// segment 1, ...), as near-simultaneous senders interleave on the wire.
/// Returns the aggregates in emission order.
fn ingest_round(round: &mut AccelRound) -> Vec<DataSegment> {
    let codec = round.accel.codec().codec();
    let segments = round.packets[0].len();
    let mut out = Vec::with_capacity(segments);
    for i in 0..segments {
        for worker in &round.packets {
            let payload = &worker[i].payload;
            let meta = codec.decode_meta(payload).expect("self-encoded payload");
            if let (Some(done), _) = round.accel.ingest_wire(meta, payload) {
                out.push(done);
            }
        }
    }
    out
}

/// Checks one aggregated round: f32 must equal sequential f32 adds in
/// worker order bit for bit; a quantised codec must stay within its own
/// `error_bound` of the f64 host sum. Top-k bounds kept coordinates only,
/// so its reference is the sum of what each contribution decodes to.
fn check_aggregate(
    grads: &[Vec<f32>],
    codec: CodecKind,
    round: &AccelRound,
    got: &[DataSegment],
) -> Result<(), String> {
    let c = codec.codec();
    let per_seg = codec.elems_per_segment();
    if got.len() != round.packets[0].len() {
        return Err(format!(
            "{codec}: {} aggregates for {} segments",
            got.len(),
            round.packets[0].len()
        ));
    }
    let max_abs = grads.iter().flatten().fold(0.0f32, |m, v| m.max(v.abs()));
    let tolerance = f64::from(c.error_bound(max_abs, grads.len()))
        + 1e-6 * f64::from(max_abs) * grads.len() as f64;
    for (i, seg) in got.iter().enumerate() {
        let base = i * per_seg;
        let contributions: Vec<Vec<f32>> = if codec == CodecKind::TopK {
            round
                .packets
                .iter()
                .map(|w| {
                    c.decode_values(&w[i].payload)
                        .expect("self-encoded payload")
                        .values
                })
                .collect()
        } else {
            grads
                .iter()
                .map(|g| g[base..base + seg.values.len()].to_vec())
                .collect()
        };
        for (j, &v) in seg.values.iter().enumerate() {
            if codec == CodecKind::F32 {
                let want = contributions.iter().fold(0.0f32, |s, c| s + c[j]);
                if v.to_bits() != want.to_bits() {
                    return Err(format!(
                        "f32 element {} is {v}, sequential adds give {want}",
                        base + j
                    ));
                }
            } else {
                let want: f64 = contributions.iter().map(|c| f64::from(c[j])).sum();
                if (f64::from(v) - want).abs() > tolerance {
                    return Err(format!(
                        "{codec} element {} is {v}, host sum {want}, bound {tolerance}",
                        base + j
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Sums the counters of `metrics` whose name satisfies `pick`.
fn counters(metrics: &[JsonValue], pick: impl Fn(&str) -> bool) -> u64 {
    metrics
        .iter()
        .filter_map(|m| m.get("metrics")?.get("counters"))
        .filter_map(|c| match c {
            JsonValue::Object(members) => Some(members),
            _ => None,
        })
        .flatten()
        .filter(|(name, _)| pick(name))
        .filter_map(|(_, v)| v.as_u64())
        .sum()
}

/// Largest `field` over the aggregation-latency histograms of every switch:
/// the slowest level of the hierarchy sets when a round completes.
fn agg_latency(metrics: &[JsonValue], field: &str) -> u64 {
    metrics
        .iter()
        .filter_map(|m| m.get("metrics")?.get("histograms"))
        .filter_map(|h| match h {
            JsonValue::Object(members) => Some(members),
            _ => None,
        })
        .flatten()
        .filter(|(name, _)| name.ends_with(".agg_latency_ns"))
        .filter_map(|(_, h)| h.get(field)?.as_u64())
        .max()
        .unwrap_or(0)
}

/// Whether a link metric name (`netsim.link.NNN.src->dst.what`) is the
/// direction that ends at a switch.
fn into_switch(name: &str) -> bool {
    name.split("->").nth(1).is_some_and(|dst| {
        ["switch", "core", "agg", "tor"]
            .iter()
            .any(|s| dst.starts_with(s))
    })
}

/// One traced pass in progress.
struct Pass<'a> {
    workload: Workload,
    seed: u64,
    /// How long each drive repeats.
    slice_s: f64,
    t: &'a mut Tracer,
    values: BTreeMap<String, f64>,
    attempted: u64,
    faults: Vec<String>,
}

/// What the workload's own runs hand to the drives.
struct Base {
    outcome: Outcome,
    cpu_s: f64,
    /// Metrics snapshot of every cell or tenant, and the codec each ran.
    metrics: Vec<JsonValue>,
    codecs: Vec<CodecKind>,
}

impl Base {
    fn cpu_ns(&self) -> f64 {
        self.cpu_s * 1e9
    }

    fn count(&self, suffix: &str) -> f64 {
        counters(&self.metrics, |n| n.ends_with(suffix)) as f64
    }
}

impl Pass<'_> {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    /// Times `run` on fresh state from `setup`, repeating for `slice_s`
    /// seconds: one operation. The unit cost is the fastest repetition
    /// (interference only adds time); one extra counted repetition gives
    /// allocations per unit.
    fn drive<S>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut run: impl FnMut(S) -> u64,
    ) -> UnitCost {
        self.attempted += 1;
        let slice_s = self.slice_s;
        self.t.span(name, |_| {
            let state = setup();
            let (units, heap) = counted(|| run(state));
            let mut best = f64::INFINITY;
            let started = Instant::now();
            loop {
                let state = setup();
                let (units, cost) = timed(|| run(state));
                best = best.min(cost.cpu_s * 1e9 / units as f64);
                if started.elapsed().as_secs_f64() >= slice_s {
                    break;
                }
            }
            UnitCost {
                ns: best,
                allocs: heap.allocs as f64 / units as f64,
            }
        })
    }

    /// The workload itself at its short size: tracing off (the base of every
    /// ratio), counted, and through the observed runner for the counts.
    fn workload_runs(&mut self) -> Base {
        let plan = self.workload.plan(self.seed, Size::Short);
        let (outcome, cost) = self
            .t
            .span("cluster.timing_runner.perf", |_| timed(|| run_perf(&plan)));
        let (_, heap) = self.t.span("cluster.timing_runner.counted", |_| {
            counted(|| run_perf(&plan))
        });
        let (obs, obs_cost) = self.t.span("cluster.timing_runner.run", |_| {
            timed(|| run_observed(&plan, false))
        });
        self.attempted += 3;
        self.faults.extend(outcome.faults.iter().cloned());
        let codecs = match &plan {
            Plan::Cells(cells) => cells.iter().map(|c| c.codec).collect(),
            Plan::Tenants(cfg) => cfg.tenants.iter().map(|s| s.job.codec).collect(),
        };

        // Counter-track sampling is priced on the plan's first cell alone:
        // the observed runner already costs several times the plain one.
        // The tenant runner has no counter-track option.
        if let Plan::Cells(cells) = &plan {
            let first = Plan::Cells(vec![cells[0].clone()]);
            let (_, on) = self.t.span("obs.timeseries.run", |_| {
                timed(|| run_observed(&first, true))
            });
            let off = if cells.len() == 1 {
                cost
            } else {
                self.t
                    .span("obs.timeseries.perf", |_| timed(|| run_perf(&first)))
                    .1
            };
            self.attempted += 1;
            self.set("obs.timeseries.overhead_ratio", on.cpu_s / off.cpu_s);
        }
        self.set("obs.trace.overhead_ratio", obs_cost.cpu_s / cost.cpu_s);
        self.set("obs.trace.recorded", obs.trace_recorded as f64);
        self.set("obs.trace.dropped", obs.trace_dropped as f64);

        let base = Base {
            outcome,
            cpu_s: cost.cpu_s,
            metrics: obs.metrics,
            codecs,
        };
        let o = &base.outcome;
        let events = o.fingerprint.events as f64;
        let ingested = base.count(".data_ingested");
        let per_iteration: u64 = o.fingerprint.per_iteration_ns.iter().sum();
        for (name, value) in [
            ("netsim.engine.events", events),
            (
                "netsim.engine.timer_events",
                base.count("netsim.events.timer"),
            ),
            (
                "netsim.engine.deliver_events",
                base.count("netsim.events.deliver"),
            ),
            ("netsim.link.tx_packets", base.count(".tx_packets")),
            ("netsim.link.ecn_marked", o.ecn_marked as f64),
            ("netsim.link.dropped_queue", o.dropped_queue as f64),
            ("netsim.shard.epochs", o.epochs as f64),
            ("netsim.shard.barrier_stall_ns", o.barrier_stall_ns as f64),
            ("core.accelerator.packets_in", ingested),
            ("core.accelerator.segments_emitted", base.count(".h_hits")),
            ("core.accelerator.slot_denials", base.count(".slot_denials")),
            (
                "core.accelerator.fallback_rounds",
                base.count(".fallback_rounds"),
            ),
            ("core.codec.saturations", base.count(".codec_saturations")),
            ("core.codec.rebases", base.count(".codec_rebases")),
            ("core.switch_ext.data_ingested", ingested),
            ("core.switch_ext.broadcasts", base.count(".broadcasts")),
            ("core.switch_ext.help_served", base.count(".help_served")),
            (
                "core.switch_ext.stale_flushes",
                base.count(".stale_flushes"),
            ),
            (
                "core.switch_ext.agg_latency_p50_ns",
                agg_latency(&base.metrics, "p50") as f64,
            ),
            (
                "core.switch_ext.agg_latency_p99_ns",
                agg_latency(&base.metrics, "p99") as f64,
            ),
            (
                "cluster.timing_runner.cpu_ns_per_event",
                base.cpu_ns() / events,
            ),
            (
                "cluster.timing_runner.allocs_per_event",
                heap.allocs as f64 / events,
            ),
            (
                "cluster.timing_runner.alloc_bytes_per_event",
                heap.bytes as f64 / events,
            ),
            ("cluster.timing_runner.sim_ns", o.fingerprint.sim_ns as f64),
            (
                "cluster.timing_runner.per_iteration_ns",
                per_iteration as f64,
            ),
            (
                "cluster.transport.help_requests",
                o.transport.help_requests as f64,
            ),
            (
                "cluster.transport.nacks_sent",
                o.transport.nacks_sent as f64,
            ),
            (
                "cluster.transport.retransmits",
                o.transport.retransmits as f64,
            ),
            (
                "cluster.transport.ecn_echoes",
                o.transport.ecn_echoes as f64,
            ),
            ("cluster.transport.rate_cuts", o.transport.rate_cuts as f64),
            ("cluster.tenancy.slot_denials", o.slot_denials as f64),
            ("cluster.tenancy.fallback_rounds", o.fallback_rounds as f64),
            ("cluster.tenancy.switch_rounds", o.switch_rounds as f64),
        ] {
            self.set(name, value);
        }

        let seed = self.seed;
        let paper = self.t.span("cluster.timing_runner.paper", |_| {
            PaperFidelity::measure(seed)
        });
        self.attempted += 1;
        self.set("cluster.timing_runner.paper_speedup_err_max", paper.max_err);
        base
    }

    /// Engine, link and switch: every workload keeps timers armed and moves
    /// full frames over links and switches, so these always run. Returns the
    /// forward cost and the share of the workload the three account for.
    fn network_drives(&mut self, base: &Base, frames: &[f32]) -> (UnitCost, f64) {
        let seed = self.seed;
        let spread_ns = base.outcome.fingerprint.per_iteration_ns[0].max(2_000);
        let engine = self.drive(
            "netsim.engine.drive",
            || {
                let mut sim = Simulator::new();
                let mill = TimerMill {
                    left: 200_000,
                    state: seed,
                    spread_ns,
                };
                sim.add_node(Box::new(mill), NodeOpts::new("mill"));
                sim
            },
            |mut sim| {
                sim.run_until_idle();
                sim.stats().events_processed
            },
        );
        let link = self.drive(
            "netsim.link.drive",
            || link_pair(frames),
            |mut sim| {
                sim.run_until_idle();
                sim.stats().packets_sent
            },
        );
        let forward = self.drive(
            "netsim.switch.drive",
            || forward_star(frames),
            |mut sim| {
                sim.run_until_idle();
                // Each packet is sent twice: host to switch, switch to host.
                sim.stats().packets_sent / 2
            },
        );
        self.set("netsim.engine.timer_ns_per_event", engine.ns);
        self.set("netsim.link.ns_per_packet", link.ns);
        self.set("netsim.link.allocs_per_packet", link.allocs);
        self.set("netsim.switch.forward_ns_per_packet", forward.ns);
        self.set("netsim.switch.allocs_per_packet", forward.allocs);

        // Every transmitted packet is a hop into a host, which is what the
        // link drive times, or a hop into a switch, which a forward adds.
        let tx = base.count(".tx_packets");
        let switch_rx = counters(&base.metrics, |n| {
            n.ends_with(".tx_packets") && into_switch(n)
        }) as f64;
        let engine_share = engine.ns * base.count("netsim.events.timer") / base.cpu_ns();
        let link_share = link.ns * (tx - switch_rx) / base.cpu_ns();
        let switch_share = (forward.ns - link.ns).max(0.0) * switch_rx / base.cpu_ns();
        self.set("netsim.engine.est_share", engine_share);
        self.set("netsim.link.est_share", link_share);
        self.set("netsim.switch.est_share", switch_share);
        (forward, engine_share + link_share + switch_share)
    }

    /// Accelerator and codec for every (algorithm, codec) the workload
    /// aggregates in a switch; assembler, worker packetisation and the
    /// switch extension on the largest of them. Returns the share of the
    /// workload they account for.
    fn isw_drives(&mut self, base: &Base, forward: UnitCost) -> f64 {
        let (jobs, fan_in) = isw_jobs(&self.workload);
        let mut accel_share = 0.0;
        let mut ext_share = 0.0;
        for (job, &(alg, codec)) in jobs.iter().enumerate() {
            let label = codec.label();
            let c = codec.codec();
            let per_seg = codec.elems_per_segment();
            let len = paper_model(alg).param_count();
            let grads: Vec<Vec<f32>> = (0..fan_in)
                .map(|w| gradient(len, self.seed + w as u64))
                .collect();

            let encoded = encode_all(&grads, codec);
            let mut round = accel_round(&encoded, len, codec, 1);
            let aggregates = ingest_round(&mut round);
            self.attempted += 1;
            if let Err(fault) = check_aggregate(&grads, codec, &round, &aggregates) {
                self.faults.push(format!("accelerator drive: {fault}"));
            }
            let ingest = self.drive(
                &format!("core.accelerator.drive.{label}"),
                || accel_round(&encoded, len, codec, 1),
                |mut round| {
                    black_box(ingest_round(&mut round));
                    (round.packets.len() * round.packets[0].len()) as u64
                },
            );
            self.set(
                &format!("core.accelerator.ingest_wire_ns_per_packet.{label}"),
                ingest.ns,
            );
            let ingested: u64 = base
                .metrics
                .iter()
                .zip(&base.codecs)
                .filter(|(_, &ran)| ran == codec)
                .map(|(m, _)| counters(std::slice::from_ref(m), |n| n.ends_with(".data_ingested")))
                .sum();
            accel_share += ingest.ns * ingested as f64 / base.cpu_ns();

            let encode = self.drive(
                &format!("core.codec.encode.drive.{label}"),
                || (),
                |()| {
                    for (i, chunk) in grads[0].chunks(per_seg).enumerate() {
                        black_box(
                            c.encode_contribution(i as u64, chunk)
                                .expect("finite values"),
                        );
                    }
                    len as u64
                },
            );
            let results: Vec<_> = aggregates.iter().map(|seg| c.encode_result(seg)).collect();
            let decode = self.drive(
                &format!("core.codec.decode.drive.{label}"),
                || (),
                |()| {
                    for payload in &results {
                        black_box(c.decode_values(payload).expect("self-encoded result"));
                    }
                    len as u64
                },
            );
            self.set(&format!("core.codec.encode_ns_per_elem.{label}"), encode.ns);
            self.set(&format!("core.codec.decode_ns_per_elem.{label}"), decode.ns);
            if job > 0 {
                continue;
            }

            self.set("core.accelerator.allocs_per_packet", ingest.allocs);
            let insert = self.drive(
                "core.data.drive",
                || {
                    let mut asm = RoundAssembler::with_codec(len, false, codec);
                    asm.begin_round(Some(1));
                    asm
                },
                |mut asm| {
                    for payload in &results {
                        black_box(asm.insert_wire(payload));
                    }
                    assert!(asm.is_done(), "one result round completes the assembler");
                    results.len() as u64
                },
            );
            self.set("core.data.insert_wire_ns_per_packet", insert.ns);
            let pre_encode = self.drive(
                "core.worker.encode.drive",
                || (),
                |()| {
                    black_box(EncodedGradient::with_codec(
                        host_ip(0, 0),
                        &grads[0],
                        codec,
                        0,
                    ));
                    1
                },
            );
            self.set("core.worker.encode_gradient_ms", pre_encode.ns / 1e6);
            let packets_round = self.drive(
                "core.worker.packets_round.drive",
                || (),
                |()| black_box(encoded[0].packets_round(1)).len() as u64,
            );
            self.set("core.worker.packets_round_ns_per_packet", packets_round.ns);

            let burst = &grads[0][..len.min(BURST_SEGMENTS * per_seg)];
            let mut peak_buffer = 0;
            let ext = self.drive(
                "core.switch_ext.drive",
                || isw_star(burst, codec, fan_in),
                |(mut sim, star)| {
                    sim.run_until_idle();
                    let stats = sim
                        .device::<Switch>(star.switch)
                        .extension::<IswitchExtension>()
                        .accelerator()
                        .stats();
                    peak_buffer = stats.peak_buffer_bytes;
                    stats.packets_in
                },
            );
            self.set("core.accelerator.peak_buffer_bytes", peak_buffer as f64);
            self.set("core.switch_ext.ns_per_data_packet", ext.ns);
            self.set("core.switch_ext.premium_vs_forward", ext.ns / forward.ns);
            // A data packet in is one hop into the switch and, on average,
            // one result packet out, like a forward: what an iSwitch adds to
            // that is the accelerator's ingest plus the extension itself.
            ext_share = (ext.ns - forward.ns - ingest.ns).max(0.0) * base.count(".data_ingested")
                / base.cpu_ns();
        }
        self.set("core.accelerator.est_share", accel_share);
        self.set("core.switch_ext.est_share", ext_share);
        accel_share + ext_share
    }

    fn obs_drives(&mut self) {
        let registry = Registry::new();
        let (counter, histogram) = (registry.counter("c"), registry.histogram("h"));
        let inc = self.drive(
            "obs.metrics.counter.drive",
            || (),
            |()| {
                for _ in 0..1_000_000u64 {
                    black_box(&counter).inc();
                }
                1_000_000
            },
        );
        let observe = self.drive(
            "obs.metrics.histogram.drive",
            || (),
            |()| {
                for v in 0..1_000_000u64 {
                    black_box(&histogram).record(black_box(v));
                }
                1_000_000
            },
        );
        self.set("obs.metrics.counter_inc_ns", inc.ns);
        self.set("obs.metrics.histogram_observe_ns", observe.ns);
    }

    /// Shallow queues, the shard boundary, the three transports and thread
    /// identity: what only `incast_fattree_nack` loads.
    fn incast_differentials(&mut self, base: &Base, frames: &[f32]) {
        let queue = self.drive(
            "netsim.link.queue.drive",
            || overload_star(frames),
            |mut sim| {
                sim.run_until_idle();
                assert!(
                    sim.stats().packets_dropped_queue > 0,
                    "the overload must tail-drop"
                );
                sim.stats().packets_sent
            },
        );
        self.set("netsim.link.queue_ns_per_packet", queue.ns);
        let cross = self.drive(
            "netsim.shard.drive",
            || sharded_pair(frames),
            |mut sim| {
                sim.run(1);
                sim.stats().packets_sent
            },
        );
        self.set("netsim.shard.cross_ns_per_packet", cross.ns);

        let Plan::Cells(cells) = self.workload.plan(self.seed, Size::Short) else {
            unreachable!("the incast workload is a cell plan");
        };
        for kind in TransportKind::ALL {
            let mut cfg = cells[0].clone();
            cfg.transport = kind;
            let ((_, perf), cost) = self.t.span(&format!("cluster.transport.diff.{kind}"), |_| {
                timed(|| run_timing_perf(&cfg))
            });
            self.set(
                &format!("cluster.transport.cpu_ns_per_event.{kind}"),
                cost.cpu_s * 1e9 / perf.events as f64,
            );
        }
        let mut two = cells;
        two[0].threads = 2;
        let (two, cost) = self.t.span("netsim.shard.diff.t2", |_| {
            timed(|| run_perf(&Plan::Cells(two)))
        });
        self.set("netsim.shard.t2_cpu_ratio", cost.cpu_s / base.cpu_s);
        self.attempted += 4;
        if two.fingerprint != base.outcome.fingerprint {
            self.faults.push(format!(
                "threads=2 fingerprint {:?} differs from threads=1 {:?}",
                two.fingerprint, base.outcome.fingerprint
            ));
        }
    }

    /// Epoch-stepped execution against the same four jobs run solo, on a
    /// fabric that never binds, so only the stepping differs.
    fn tenancy_differential(&mut self) {
        let fabric = tenant_fabric(None, self.workload.size(Size::Short), self.seed);
        let solo = Plan::Cells(fabric.tenants.iter().map(|s| s.job.clone()).collect());
        let fabric = Plan::Tenants(fabric);
        let (_, together) = self.t.span("cluster.tenancy.diff.fabric", |_| {
            timed(|| run_perf(&fabric))
        });
        let (_, solo) = self
            .t
            .span("cluster.tenancy.diff.solo", |_| timed(|| run_perf(&solo)));
        self.attempted += 2;
        self.set(
            "cluster.tenancy.epoch_overhead_ratio",
            together.cpu_s / solo.cpu_s,
        );
    }
}

/// Runs the traced pass of `workload`; each drive repeats for `seconds`/40.
pub fn trace(workload: Workload, seed: u64, seconds: f64) -> Layers {
    let mut tracer = Tracer::new();
    let (mut values, attempted, faults) = tracer.span("workload", |t| {
        let mut pass = Pass {
            workload,
            seed,
            slice_s: seconds / 40.0,
            t,
            values: BTreeMap::new(),
            attempted: 0,
            faults: Vec::new(),
        };
        let base = pass.workload_runs();
        let frames = gradient(BURST_SEGMENTS * CodecKind::F32.elems_per_segment(), seed);
        let (forward, network_share) = pass.network_drives(&base, &frames);
        let isw_share = pass.isw_drives(&base, forward);
        pass.set(
            "cluster.timing_runner.unattributed_share",
            1.0 - network_share - isw_share,
        );
        pass.obs_drives();
        match workload.name {
            "incast_fattree_nack" => pass.incast_differentials(&base, &frames),
            "tenant_codec_mix" => pass.tenancy_differential(),
            _ => {}
        }
        (pass.values, pass.attempted, pass.faults)
    });

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric::exact(name, unit, values.remove(name).unwrap_or(0.0)))
        .collect();
    assert!(
        values.is_empty(),
        "metrics missing from PER_LAYER: {values:?}"
    );
    Layers {
        metrics,
        attempted,
        faults,
        tracer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_check_accepts_every_codec_and_rejects_a_flipped_bit() {
        for codec in CodecKind::ALL {
            let grads: Vec<Vec<f32>> = (0..3).map(|w| gradient(1_000, 7 + w)).collect();
            let mut round = accel_round(&encode_all(&grads, codec), 1_000, codec, 1);
            let mut got = ingest_round(&mut round);
            assert_eq!(
                check_aggregate(&grads, codec, &round, &got),
                Ok(()),
                "{codec}"
            );
            got[1].values[3] += 64.0;
            assert!(
                check_aggregate(&grads, codec, &round, &got).is_err(),
                "{codec}"
            );
        }
    }

    #[test]
    fn link_directions_into_switches_are_recognised() {
        assert!(into_switch("netsim.link.000.host0->switch.tx_packets"));
        assert!(into_switch("netsim.link.007.tor1->agg0.tx_packets"));
        assert!(!into_switch("netsim.link.000.switch->host0.tx_packets"));
        assert!(!into_switch("netsim.link.003.tor1->r1h0.tx_packets"));
    }

    #[test]
    fn scripted_hosts_complete_every_round_through_an_iswitch() {
        let grad = gradient(2_000, 1);
        let (mut sim, star) = isw_star(&grad, CodecKind::F32, 4);
        sim.run_until_idle();
        let ext = sim
            .device::<Switch>(star.switch)
            .extension::<IswitchExtension>();
        let segments = CodecKind::F32.num_segments(grad.len()) as u64;
        assert_eq!(
            ext.accelerator().stats().packets_in,
            4 * segments * u64::from(BURSTS)
        );
        assert_eq!(
            ext.accelerator().stats().segments_emitted,
            segments * u64::from(BURSTS)
        );
    }
}

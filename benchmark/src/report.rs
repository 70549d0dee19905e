//! Metric tables, the result document, and `compare`.
//!
//! `END_TO_END` and `PER_LAYER` are the binary's copy of the metric lists in
//! `BENCHMARK.json`; a unit test holds the two together.

use iswitch_obs::JsonValue;

/// An end-to-end metric and the share of the baseline by which it may get
/// worse before `compare` calls a regression.
pub struct EndToEndSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub const END_TO_END: [EndToEndSpec; 5] = [
    EndToEndSpec {
        name: "events_per_cpu_s",
        unit: "events/s",
        lower_is_better: false,
        bound: 0.25,
    },
    EndToEndSpec {
        name: "cpu_s_per_sim_s",
        unit: "ratio",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEndSpec {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEndSpec {
        name: "peak_heap_mb",
        unit: "MiB",
        lower_is_better: true,
        bound: 0.02,
    },
    EndToEndSpec {
        name: "paper_sync_speedup_err",
        unit: "fraction",
        lower_is_better: true,
        bound: 0.10,
    },
];

/// Per-layer metrics `(name, unit)`, outermost layer last. `count` metrics
/// and simulated `ns` repeat exactly at a fixed seed; the rest are host
/// measurements. A layer the workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 77] = [
    ("netsim.engine.events", "count"),
    ("netsim.engine.timer_events", "count"),
    ("netsim.engine.deliver_events", "count"),
    ("netsim.engine.timer_ns_per_event", "ns"),
    ("netsim.engine.est_share", "ratio"),
    ("netsim.link.tx_packets", "count"),
    ("netsim.link.ecn_marked", "count"),
    ("netsim.link.dropped_queue", "count"),
    ("netsim.link.ns_per_packet", "ns"),
    ("netsim.link.allocs_per_packet", "count"),
    ("netsim.link.est_share", "ratio"),
    ("netsim.link.queue_ns_per_packet", "ns"),
    ("netsim.switch.forward_ns_per_packet", "ns"),
    ("netsim.switch.allocs_per_packet", "count"),
    ("netsim.switch.est_share", "ratio"),
    ("netsim.shard.epochs", "count"),
    ("netsim.shard.barrier_stall_ns", "ns"),
    ("netsim.shard.cross_ns_per_packet", "ns"),
    ("netsim.shard.t2_cpu_ratio", "ratio"),
    ("core.accelerator.packets_in", "count"),
    ("core.accelerator.segments_emitted", "count"),
    ("core.accelerator.slot_denials", "count"),
    ("core.accelerator.fallback_rounds", "count"),
    ("core.accelerator.peak_buffer_bytes", "bytes"),
    ("core.accelerator.ingest_wire_ns_per_packet.f32", "ns"),
    (
        "core.accelerator.ingest_wire_ns_per_packet.fixed-point",
        "ns",
    ),
    (
        "core.accelerator.ingest_wire_ns_per_packet.block-float",
        "ns",
    ),
    ("core.accelerator.ingest_wire_ns_per_packet.top-k", "ns"),
    ("core.accelerator.allocs_per_packet", "count"),
    ("core.accelerator.est_share", "ratio"),
    ("core.codec.encode_ns_per_elem.f32", "ns"),
    ("core.codec.encode_ns_per_elem.fixed-point", "ns"),
    ("core.codec.encode_ns_per_elem.block-float", "ns"),
    ("core.codec.encode_ns_per_elem.top-k", "ns"),
    ("core.codec.decode_ns_per_elem.f32", "ns"),
    ("core.codec.decode_ns_per_elem.fixed-point", "ns"),
    ("core.codec.decode_ns_per_elem.block-float", "ns"),
    ("core.codec.decode_ns_per_elem.top-k", "ns"),
    ("core.codec.saturations", "count"),
    ("core.codec.rebases", "count"),
    ("core.data.insert_wire_ns_per_packet", "ns"),
    ("core.worker.packets_round_ns_per_packet", "ns"),
    ("core.worker.encode_gradient_ms", "ms"),
    ("core.switch_ext.data_ingested", "count"),
    ("core.switch_ext.broadcasts", "count"),
    ("core.switch_ext.help_served", "count"),
    ("core.switch_ext.stale_flushes", "count"),
    ("core.switch_ext.agg_latency_p50_ns", "ns"),
    ("core.switch_ext.agg_latency_p99_ns", "ns"),
    ("core.switch_ext.ns_per_data_packet", "ns"),
    ("core.switch_ext.premium_vs_forward", "ratio"),
    ("core.switch_ext.est_share", "ratio"),
    ("cluster.timing_runner.cpu_ns_per_event", "ns"),
    ("cluster.timing_runner.allocs_per_event", "count"),
    ("cluster.timing_runner.alloc_bytes_per_event", "bytes"),
    ("cluster.timing_runner.sim_ns", "ns"),
    ("cluster.timing_runner.per_iteration_ns", "ns"),
    ("cluster.timing_runner.unattributed_share", "ratio"),
    ("cluster.timing_runner.paper_speedup_err_max", "fraction"),
    ("cluster.transport.cpu_ns_per_event.go-back", "ns"),
    ("cluster.transport.cpu_ns_per_event.nack", "ns"),
    ("cluster.transport.cpu_ns_per_event.dcqcn", "ns"),
    ("cluster.transport.help_requests", "count"),
    ("cluster.transport.nacks_sent", "count"),
    ("cluster.transport.retransmits", "count"),
    ("cluster.transport.ecn_echoes", "count"),
    ("cluster.transport.rate_cuts", "count"),
    ("cluster.tenancy.epoch_overhead_ratio", "ratio"),
    ("cluster.tenancy.slot_denials", "count"),
    ("cluster.tenancy.fallback_rounds", "count"),
    ("cluster.tenancy.switch_rounds", "count"),
    ("obs.trace.overhead_ratio", "ratio"),
    ("obs.trace.recorded", "count"),
    ("obs.trace.dropped", "count"),
    ("obs.timeseries.overhead_ratio", "ratio"),
    ("obs.metrics.counter_inc_ns", "ns"),
    ("obs.metrics.histogram_observe_ns", "ns"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// Interquartile distance of the samples behind `value` as a share of
    /// their median; 0 for counts and single measurements.
    pub spread: f64,
    /// Samples behind `value`.
    pub n: usize,
}

impl Metric {
    pub fn exact(name: &str, unit: &str, value: f64) -> Self {
        Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            value,
            spread: 0.0,
            n: 1,
        }
    }
}

/// Everything measured on one workload.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadResult {
    pub name: String,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// The document `run --out` writes and `compare` reads.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunResult {
    pub seed: u64,
    pub seconds: f64,
    pub workloads: Vec<WorkloadResult>,
}

fn metrics_json(metrics: &[Metric]) -> JsonValue {
    let mut obj = JsonValue::empty_object();
    for m in metrics {
        let mut entry = JsonValue::empty_object();
        entry.insert("value", JsonValue::Float(m.value));
        entry.insert("unit", JsonValue::Str(m.unit.clone()));
        entry.insert("spread", JsonValue::Float(m.spread));
        entry.insert("n", JsonValue::UInt(m.n as u64));
        obj.insert(&m.name, entry);
    }
    obj
}

fn metrics_from(doc: Option<&JsonValue>) -> Result<Vec<Metric>, String> {
    let Some(JsonValue::Object(members)) = doc else {
        return Err("metrics object missing".into());
    };
    members
        .iter()
        .map(|(name, entry)| {
            let field = |key: &str| {
                entry
                    .get(key)
                    .ok_or_else(|| format!("metric {name}: no `{key}`"))
            };
            Ok(Metric {
                name: name.clone(),
                unit: field("unit")?.as_str().unwrap_or_default().to_owned(),
                value: field("value")?.as_f64().ok_or("value not numeric")?,
                spread: field("spread")?.as_f64().ok_or("spread not numeric")?,
                n: field("n")?.as_u64().ok_or("n not a count")? as usize,
            })
        })
        .collect()
}

impl RunResult {
    pub fn to_json(&self) -> String {
        let mut doc = JsonValue::empty_object();
        doc.insert("seed", JsonValue::UInt(self.seed));
        doc.insert("seconds", JsonValue::Float(self.seconds));
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                let mut obj = JsonValue::empty_object();
                obj.insert("name", JsonValue::Str(w.name.clone()));
                obj.insert("ops_attempted", JsonValue::UInt(w.ops_attempted));
                obj.insert("ops_failed", JsonValue::UInt(w.ops_failed));
                obj.insert("end_to_end", metrics_json(&w.end_to_end));
                obj.insert("per_layer", metrics_json(&w.per_layer));
                obj
            })
            .collect();
        doc.insert("workloads", JsonValue::Array(workloads));
        format!("{}\n", doc.render())
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(text).map_err(|e| format!("{e:?}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .ok_or("no `workloads` array")?
            .iter()
            .map(|w| {
                Ok(WorkloadResult {
                    name: w
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .ok_or("workload without a name")?
                        .to_owned(),
                    ops_attempted: w
                        .get("ops_attempted")
                        .and_then(JsonValue::as_u64)
                        .unwrap_or(0),
                    ops_failed: w.get("ops_failed").and_then(JsonValue::as_u64).unwrap_or(0),
                    end_to_end: metrics_from(w.get("end_to_end"))?,
                    per_layer: metrics_from(w.get("per_layer"))?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(RunResult {
            seed: doc.get("seed").and_then(JsonValue::as_u64).unwrap_or(0),
            seconds: doc
                .get("seconds")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0),
            workloads,
        })
    }
}

/// The result line of the driver contract: `metrics` holds exactly the
/// given metrics, each as `{"value", "unit"}`.
pub fn contract_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut obj = JsonValue::empty_object();
    for m in metrics {
        let mut entry = JsonValue::empty_object();
        entry.insert("value", JsonValue::Float(m.value));
        entry.insert("unit", JsonValue::Str(m.unit.clone()));
        obj.insert(&m.name, entry);
    }
    let mut doc = JsonValue::empty_object();
    doc.insert("correct", JsonValue::Bool(failed == 0));
    doc.insert("attempted", JsonValue::UInt(attempted));
    doc.insert("failed", JsonValue::UInt(failed));
    doc.insert("metrics", obj);
    doc.render()
}

/// `compare`'s judgement of one (workload, end-to-end metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the baseline by more than the bound.
    Within,
    /// Worse than the baseline by more than the bound.
    Regressed,
    /// Either side's own spread is wider than the bound, so a move of that
    /// size cannot be told from noise.
    Unresolved,
}

/// By what share of `a` the value `b` is worse (negative when better).
pub fn worsening(spec: &EndToEndSpec, a: f64, b: f64) -> f64 {
    if spec.lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

pub fn verdict(spec: &EndToEndSpec, a: &Metric, b: &Metric) -> Verdict {
    if a.spread.max(b.spread) > spec.bound {
        Verdict::Unresolved
    } else if worsening(spec, a.value, b.value) > spec.bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

/// Prints the before/after table of two results and returns how many
/// pairs regressed. Per-layer counts that differ are listed below it: at
/// one seed they are fixed by the simulation, so a difference is a
/// behaviour change, not noise.
pub fn compare(a: &RunResult, b: &RunResult) -> usize {
    let mut regressed = 0;
    println!(
        "{:<22} {:<24} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "worse", "bound"
    );
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            println!("{:<22} missing from b", wa.name);
            continue;
        };
        for spec in &END_TO_END {
            let find =
                |w: &WorkloadResult| w.end_to_end.iter().find(|m| m.name == spec.name).cloned();
            let (Some(ma), Some(mb)) = (find(wa), find(wb)) else {
                continue;
            };
            let v = verdict(spec, &ma, &mb);
            regressed += usize::from(v == Verdict::Regressed);
            println!(
                "{:<22} {:<24} {:>14.6} {:>14.6} {:>+7.1}% {:>5.0}%  {}",
                wa.name,
                spec.name,
                ma.value,
                mb.value,
                worsening(spec, ma.value, mb.value) * 100.0,
                spec.bound * 100.0,
                match v {
                    Verdict::Within => "within",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let mut same = 0;
        for ma in wa.per_layer.iter().filter(|m| m.unit == "count") {
            match wb.per_layer.iter().find(|m| m.name == ma.name) {
                Some(mb) if mb.value == ma.value => same += 1,
                Some(mb) => println!(
                    "{:<22} {:<24} {:>14} {:>14}  count changed",
                    wa.name, ma.name, ma.value, mb.value
                ),
                None => {}
            }
        }
        if !wa.per_layer.is_empty() {
            println!("{:<22} {same} per-layer counts identical", wa.name);
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(value: f64, spread: f64) -> Metric {
        Metric {
            name: "m".into(),
            unit: "s".into(),
            value,
            spread,
            n: 15,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = &END_TO_END[4]; // paper_sync_speedup_err: lower is better, 10 %
        assert_eq!(
            verdict(lower, &metric(1.0, 0.02), &metric(1.09, 0.02)),
            Verdict::Within
        );
        assert_eq!(
            verdict(lower, &metric(1.0, 0.02), &metric(1.11, 0.02)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(lower, &metric(1.0, 0.02), &metric(0.5, 0.02)),
            Verdict::Within
        );
        assert_eq!(
            verdict(lower, &metric(1.0, 0.02), &metric(1.5, 0.12)),
            Verdict::Unresolved
        );
        let higher = &END_TO_END[0]; // events_per_cpu_s: higher is better, 25 %
        assert_eq!(
            verdict(higher, &metric(100.0, 0.0), &metric(74.0, 0.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(higher, &metric(100.0, 0.0), &metric(76.0, 0.0)),
            Verdict::Within
        );
        assert_eq!(
            verdict(higher, &metric(100.0, 0.0), &metric(120.0, 0.0)),
            Verdict::Within
        );
    }

    #[test]
    fn result_document_round_trips() {
        let result = RunResult {
            seed: 0x5117c4,
            seconds: 12.0,
            workloads: vec![WorkloadResult {
                name: "isw_star_dqn".into(),
                ops_attempted: 23,
                ops_failed: 0,
                end_to_end: vec![Metric {
                    name: "events_per_cpu_s".into(),
                    unit: "events/s".into(),
                    value: 1_234_567.891,
                    spread: 0.031,
                    n: 9,
                }],
                per_layer: vec![Metric::exact("netsim.engine.events", "count", 1_694_576.0)],
            }],
        };
        assert_eq!(RunResult::from_json(&result.to_json()), Ok(result));
    }

    #[test]
    fn compare_counts_only_regressions() {
        let side = |value: f64| RunResult {
            workloads: vec![WorkloadResult {
                name: "w".into(),
                end_to_end: vec![Metric {
                    name: "setup_s".into(),
                    ..metric(value, 0.01)
                }],
                ..WorkloadResult::default()
            }],
            ..RunResult::default()
        };
        assert_eq!(compare(&side(1.0), &side(1.2)), 0);
        assert_eq!(compare(&side(1.0), &side(1.3)), 1);
    }

    /// `BENCHMARK.json` at the repo root must name exactly the metrics and
    /// workloads this binary reports, with the same units, directions and
    /// bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| doc.get(key).and_then(JsonValue::as_array).unwrap().to_vec();
        let text =
            |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_str).unwrap().to_owned();

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, spec) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(entry, "name"), spec.name);
            assert_eq!(text(entry, "unit"), spec.unit);
            let better = if spec.lower_is_better {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(text(entry, "better"), better);
            assert_eq!(
                entry.get("bound").and_then(JsonValue::as_f64),
                Some(spec.bound)
            );
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, (name, unit)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text(entry, "name"), name);
            assert_eq!(text(entry, "unit"), unit);
        }
        let workloads = list("workloads");
        assert_eq!(workloads.len(), crate::workloads::WORKLOADS.len());
        for (entry, w) in workloads.iter().zip(crate::workloads::WORKLOADS) {
            assert_eq!(text(entry, "name"), w.name);
            assert_eq!(text(entry, "why"), w.why);
        }
    }
}

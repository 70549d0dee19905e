//! Trace analysis: round critical paths with straggler attribution, stage
//! occupancy, per-segment aggregation-latency percentiles, and a Chrome
//! trace-event export.
//!
//! The input is the causal JSONL trace an observed run produces
//! ([`crate::run_timing_observed_with`]): `run`/`worker` metadata events,
//! per-hop packet lifecycle events (`pkt.tx`/`pkt.rx`/`pkt.drop`), worker
//! phase spans (`worker.compute`/`worker.aggregation`/`worker.commit`/
//! `worker.update`), and switch spans (`switch.agg_window`). Every report
//! this module emits is a deterministic function of the trace bytes, so
//! same-seed runs analyze to byte-identical output — the property CI's
//! `analyze-smoke` job diffs.

use std::collections::{BTreeMap, BTreeSet};

use iswitch_obs::{CounterTrack, JsonValue};

/// One span reconstructed from a `"span"` trace event.
#[derive(Debug, Clone)]
struct SpanRec {
    name: String,
    start_ns: u64,
    end_ns: u64,
    /// Producer identity (IPv4 address as `u32`, widened).
    worker: Option<u64>,
    /// Iteration / sequence attribute.
    iter: Option<u64>,
    /// Aggregation round (switch spans).
    round: Option<u64>,
    /// Gradient segment (switch spans).
    seg: Option<u64>,
    /// The contribution that completed the window (switch spans).
    last_src: Option<u64>,
    /// Emitting switch node index (switch spans).
    node: Option<u64>,
}

impl SpanRec {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One `pkt.tx` hop record, kept for link attribution.
#[derive(Debug, Clone)]
struct TxRec {
    round: u64,
    seg: u64,
    worker: u64,
    link: u64,
    backlog_ns: u64,
    arrive_ns: u64,
}

/// Run-level metadata from the head of the trace.
#[derive(Debug, Clone, Default)]
struct RunMeta {
    strategy: Option<String>,
    algorithm: Option<String>,
    workers: Option<u64>,
    warmup: Option<u64>,
    seed: Option<u64>,
}

/// A parsed causal trace, ready to analyze.
///
/// # Examples
///
/// ```
/// use iswitch_cluster::analyze::TraceAnalysis;
///
/// let jsonl = r#"{"t_ns":0,"kind":"worker","index":0,"addr":7,"ip":"0.0.0.7"}
/// {"t_ns":10,"kind":"span","span":1,"name":"worker.compute","end_ns":60,"dur_ns":50,"worker":7,"iter":0}
/// "#;
/// let analysis = TraceAnalysis::from_jsonl(jsonl).unwrap();
/// assert!(analysis.report_json().render().contains("occupancy"));
/// ```
pub struct TraceAnalysis {
    run: RunMeta,
    /// Producer address (`u32` widened) → worker index.
    worker_index: BTreeMap<u64, u64>,
    /// Worker index → dotted IP string (the key worker tracks use).
    worker_ip: BTreeMap<u64, String>,
    spans: Vec<SpanRec>,
    tx: Vec<TxRec>,
    dropped_events: u64,
    /// Counter tracks joined against the trace (see [`Self::with_timeseries`]).
    timeseries: Vec<(String, CounterTrack)>,
}

fn get_u64(doc: &JsonValue, key: &str) -> Option<u64> {
    doc.get(key).and_then(|v| v.as_u64())
}

fn get_str(doc: &JsonValue, key: &str) -> Option<String> {
    doc.get(key).and_then(|v| v.as_str()).map(str::to_owned)
}

/// Nearest-rank quantile of an ascending-sorted sample.
fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

impl TraceAnalysis {
    /// Parses a JSONL trace. Unknown event kinds are skipped (the trace
    /// format is append-only); malformed JSON lines are an error.
    pub fn from_jsonl(text: &str) -> Result<TraceAnalysis, String> {
        let mut run = RunMeta::default();
        let mut worker_index = BTreeMap::new();
        let mut worker_ip = BTreeMap::new();
        let mut spans = Vec::new();
        let mut tx = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let doc = JsonValue::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            match doc.get("kind").and_then(|k| k.as_str()) {
                Some("run") => {
                    run.strategy = get_str(&doc, "strategy");
                    run.algorithm = get_str(&doc, "algorithm");
                    run.workers = get_u64(&doc, "workers");
                    run.warmup = get_u64(&doc, "warmup");
                    run.seed = get_u64(&doc, "seed");
                }
                Some("worker") => {
                    if let (Some(index), Some(addr)) =
                        (get_u64(&doc, "index"), get_u64(&doc, "addr"))
                    {
                        worker_index.insert(addr, index);
                        if let Some(ip) = get_str(&doc, "ip") {
                            worker_ip.insert(index, ip);
                        }
                    }
                }
                Some("span") => {
                    let (Some(start_ns), Some(end_ns), Some(name)) = (
                        get_u64(&doc, "t_ns"),
                        get_u64(&doc, "end_ns"),
                        get_str(&doc, "name"),
                    ) else {
                        return Err(format!("line {}: span lacks bounds or name", lineno + 1));
                    };
                    spans.push(SpanRec {
                        name,
                        start_ns,
                        end_ns,
                        worker: get_u64(&doc, "worker"),
                        iter: get_u64(&doc, "iter"),
                        round: get_u64(&doc, "round"),
                        seg: get_u64(&doc, "seg"),
                        last_src: get_u64(&doc, "last_src"),
                        node: get_u64(&doc, "node"),
                    });
                }
                Some("pkt.tx") => {
                    if let (Some(round), Some(seg), Some(worker), Some(link), Some(arrive_ns)) = (
                        get_u64(&doc, "round"),
                        get_u64(&doc, "seg"),
                        get_u64(&doc, "worker"),
                        get_u64(&doc, "link"),
                        get_u64(&doc, "arrive_ns"),
                    ) {
                        tx.push(TxRec {
                            round,
                            seg,
                            worker,
                            link,
                            backlog_ns: get_u64(&doc, "backlog_ns").unwrap_or(0),
                            arrive_ns,
                        });
                    }
                }
                _ => {}
            }
        }
        Ok(TraceAnalysis {
            run,
            worker_index,
            worker_ip,
            spans,
            tx,
            dropped_events: 0,
            timeseries: Vec::new(),
        })
    }

    /// Attaches counter tracks (from `timing --timeseries-out`, parsed with
    /// [`iswitch_obs::parse_timeseries_jsonl`]) so the report can join each
    /// round's critical path against the telemetry recorded while the round
    /// ran: the gating link's queue-depth/ECN/drop series and the gating
    /// worker's transport rate series.
    pub fn with_timeseries(mut self, tracks: Vec<(String, CounterTrack)>) -> Self {
        self.timeseries = tracks;
        self
    }

    /// Worker index for a producer address, falling back to the raw
    /// address when the trace carried no mapping.
    fn windex(&self, addr: u64) -> u64 {
        self.worker_index.get(&addr).copied().unwrap_or(addr)
    }

    fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRec> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Critical path per round with straggler attribution.
    ///
    /// iSwitch strategies: the gating event of round `r` is the
    /// `switch.agg_window` span with the latest end — its `last_src` is the
    /// contribution that crossed the threshold last, i.e. the worker that
    /// gated the barrier; the link it used comes from its final `pkt.tx`
    /// hop. Baselines without switch spans fall back to the latest
    /// `worker.aggregation` span per iteration.
    fn critical_path(&self) -> Vec<RoundPath> {
        let mut rounds: BTreeMap<u64, RoundPath> = BTreeMap::new();
        let windows: Vec<&SpanRec> = self
            .spans_named("switch.agg_window")
            .filter(|s| s.round.is_some())
            .collect();
        if !windows.is_empty() {
            for w in windows {
                let round = w.round.unwrap_or(0);
                let entry = rounds.entry(round).or_insert_with(|| RoundPath {
                    round,
                    ..RoundPath::default()
                });
                entry.windows += 1;
                if w.end_ns > entry.barrier_ns {
                    entry.barrier_ns = w.end_ns;
                    entry.gating_seg = w.seg;
                    entry.straggler_addr = w.last_src;
                    entry.gating_node = w.node;
                }
            }
        } else {
            for s in self.spans_named("worker.aggregation") {
                let round = s.iter.unwrap_or(0);
                let entry = rounds.entry(round).or_insert_with(|| RoundPath {
                    round,
                    ..RoundPath::default()
                });
                entry.windows += 1;
                if s.end_ns > entry.barrier_ns {
                    entry.barrier_ns = s.end_ns;
                    entry.straggler_addr = s.worker;
                }
            }
        }
        for path in rounds.values_mut() {
            let Some(addr) = path.straggler_addr else {
                continue;
            };
            path.straggler = Some(self.windex(addr));
            // The straggler's compute span for this round splits the path
            // into compute vs network+aggregation time.
            if let Some(c) = self
                .spans_named("worker.compute")
                .find(|s| s.worker == Some(addr) && s.iter == Some(path.round))
            {
                path.compute_ns = Some(c.dur_ns());
                path.network_ns = Some(path.barrier_ns.saturating_sub(c.end_ns));
            }
            // Last hop the gating contribution took onto the wire.
            let hop = self
                .tx
                .iter()
                .filter(|t| {
                    t.worker == addr
                        && t.round == path.round
                        && path.gating_seg.is_none_or(|seg| t.seg == seg)
                })
                .max_by_key(|t| t.arrive_ns);
            if let Some(hop) = hop {
                path.gating_link = Some(hop.link);
                path.gating_backlog_ns = Some(hop.backlog_ns);
            }
        }
        rounds.into_values().collect()
    }

    /// Per-stage occupancy: the fraction of `workers × makespan` spent in
    /// each phase. Synchronous strategies leave every stage well below 1;
    /// the asynchronous pipeline keeps compute occupancy near 1 (the
    /// paper's Fig. 11 stage-overlap argument).
    fn occupancy(&self) -> Vec<(&'static str, u64, f64)> {
        let makespan = self.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        let workers = self
            .run
            .workers
            .unwrap_or_else(|| self.worker_index.len().max(1) as u64);
        let denom = (makespan * workers).max(1) as f64;
        let stages: [(&'static str, &[&str]); 3] = [
            ("compute", &["worker.compute"]),
            ("communication", &["worker.aggregation", "worker.commit"]),
            ("update", &["worker.update"]),
        ];
        stages
            .iter()
            .map(|(label, names)| {
                let busy: u64 = self
                    .spans
                    .iter()
                    .filter(|s| names.contains(&s.name.as_str()))
                    .map(SpanRec::dur_ns)
                    .sum();
                (*label, busy, busy as f64 / denom)
            })
            .collect()
    }

    /// Aggregation-window latency percentiles, pooled and per segment.
    fn agg_latency(&self) -> Option<AggLatency> {
        let mut by_seg: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for w in self.spans_named("switch.agg_window") {
            by_seg
                .entry(w.seg.unwrap_or(0))
                .or_default()
                .push(w.dur_ns());
        }
        if by_seg.is_empty() {
            return None;
        }
        let mut pooled: Vec<u64> = by_seg.values().flatten().copied().collect();
        pooled.sort_unstable();
        let stats = |sorted: &[u64]| SegLatency {
            count: sorted.len() as u64,
            p50_ns: quantile_sorted(sorted, 0.50),
            p95_ns: quantile_sorted(sorted, 0.95),
            p99_ns: quantile_sorted(sorted, 0.99),
            max_ns: *sorted.last().expect("non-empty"),
        };
        let mut segments: Vec<(u64, SegLatency)> = by_seg
            .into_iter()
            .map(|(seg, mut durs)| {
                durs.sort_unstable();
                (seg, stats(&durs))
            })
            .collect();
        // Worst segments first; the report keeps the top 8 so huge models
        // stay readable (the pooled stats still cover every window).
        segments.sort_by(|a, b| b.1.p99_ns.cmp(&a.1.p99_ns).then(a.0.cmp(&b.0)));
        segments.truncate(8);
        Some(AggLatency {
            pooled: stats(&pooled),
            segments,
        })
    }

    /// All tracks whose name starts with `prefix` and ends with `suffix`.
    fn tracks_matching<'a>(
        &'a self,
        prefix: &'a str,
        suffix: &'a str,
    ) -> impl Iterator<Item = &'a CounterTrack> {
        self.timeseries
            .iter()
            .filter(move |(name, _)| name.starts_with(prefix) && name.ends_with(suffix))
            .map(|(_, tr)| tr)
    }

    /// Joins each round's critical path against the attached counter
    /// tracks: what the gating link's egress queue, ECN marker, and drop
    /// counter did while the round ran, and what the gating worker's
    /// transport was doing when the barrier closed. Empty without
    /// [`Self::with_timeseries`].
    ///
    /// The join windows are `[previous round's barrier, this round's
    /// barrier]` — the simulated interval in which this round's traffic was
    /// on the wire. Link tracks exist per direction; the queue peak takes
    /// the worst direction and the cumulative counters sum both, so the
    /// report does not depend on which direction label the gating hop used.
    fn attribution(&self) -> Vec<RoundAttribution> {
        if self.timeseries.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut window_start = 0u64;
        for p in self.critical_path() {
            let window_end = p.barrier_ns;
            let mut attr = RoundAttribution {
                round: p.round,
                window_start_ns: window_start,
                window_end_ns: window_end,
                ..RoundAttribution::default()
            };
            if let Some(link) = p.gating_link {
                let prefix = format!("netsim.link.{link:03}.");
                attr.link = Some(link);
                attr.queue_bytes_peak = self
                    .tracks_matching(&prefix, ".queue_bytes")
                    .filter_map(|tr| tr.peak_in(window_start, window_end))
                    .max();
                let sum = |suffix: &str| {
                    self.tracks_matching(&prefix, suffix)
                        .filter_map(|tr| tr.delta_in(window_start, window_end))
                        .fold(None, |acc: Option<i64>, d| Some(acc.unwrap_or(0) + d))
                };
                attr.ecn_marks = sum(".ecn_marks");
                attr.drops = sum(".drops");
            }
            if let Some(w) = p.straggler {
                attr.worker = Some(w);
                if let Some(ip) = self.worker_ip.get(&w) {
                    let prefix = format!("cluster.worker.{ip}.");
                    let track = |suffix: &str| {
                        self.tracks_matching(&prefix, suffix)
                            .next()
                            .and_then(|tr| tr.value_at(window_end))
                    };
                    let delta = |suffix: &str| {
                        self.tracks_matching(&prefix, suffix)
                            .next()
                            .and_then(|tr| tr.delta_in(window_start, window_end))
                    };
                    attr.tx_rate_bps = track(".tx_rate_bps");
                    attr.retransmits = delta(".retransmits");
                    attr.ecn_echoes = delta(".ecn_echoes");
                }
            }
            attr.verdict = attr.classify(&p);
            out.push(attr);
            window_start = window_end;
        }
        out
    }

    /// The full analysis as one deterministic JSON document.
    pub fn report_json(&self) -> JsonValue {
        let mut root = JsonValue::empty_object();

        let mut run = JsonValue::empty_object();
        if let Some(s) = &self.run.strategy {
            run.insert("strategy", JsonValue::Str(s.clone()));
        }
        if let Some(a) = &self.run.algorithm {
            run.insert("algorithm", JsonValue::Str(a.clone()));
        }
        if let Some(w) = self.run.workers {
            run.insert("workers", JsonValue::UInt(w));
        }
        if let Some(w) = self.run.warmup {
            run.insert("warmup", JsonValue::UInt(w));
        }
        if let Some(s) = self.run.seed {
            run.insert("seed", JsonValue::UInt(s));
        }
        if self.dropped_events > 0 {
            run.insert("trace_dropped", JsonValue::UInt(self.dropped_events));
        }
        root.insert("run", run);

        let paths = self.critical_path();
        let mut straggler_rounds: BTreeMap<u64, u64> = BTreeMap::new();
        let mut rounds = Vec::new();
        for p in &paths {
            if let Some(w) = p.straggler {
                *straggler_rounds.entry(w).or_insert(0) += 1;
            }
            rounds.push(p.to_json());
        }
        let mut cp = JsonValue::empty_object();
        cp.insert(
            "stragglers",
            JsonValue::Array(
                straggler_rounds
                    .iter()
                    .map(|(&worker, &n)| {
                        let mut o = JsonValue::empty_object();
                        o.insert("worker", JsonValue::UInt(worker));
                        o.insert("rounds_gated", JsonValue::UInt(n));
                        o
                    })
                    .collect(),
            ),
        );
        cp.insert("rounds", JsonValue::Array(rounds));
        root.insert("critical_path", cp);

        let mut occ = JsonValue::empty_object();
        for (label, busy_ns, frac) in self.occupancy() {
            let mut o = JsonValue::empty_object();
            o.insert("busy_ns", JsonValue::UInt(busy_ns));
            o.insert("occupancy", JsonValue::Float(frac));
            occ.insert(label, o);
        }
        root.insert("occupancy", occ);

        if let Some(lat) = self.agg_latency() {
            let mut agg = JsonValue::empty_object();
            agg.insert("all_segments", lat.pooled.to_json());
            agg.insert(
                "worst_segments",
                JsonValue::Array(
                    lat.segments
                        .iter()
                        .map(|(seg, s)| {
                            let mut o = s.to_json();
                            // Render the segment id first for readability.
                            let mut with_seg = JsonValue::empty_object();
                            with_seg.insert("seg", JsonValue::UInt(*seg));
                            if let JsonValue::Object(fields) = &o {
                                for (k, v) in fields {
                                    with_seg.insert(k, v.clone());
                                }
                            }
                            o = with_seg;
                            o
                        })
                        .collect(),
                ),
            );
            root.insert("aggregation_latency", agg);
        }

        // Only when counter tracks were attached: joins each round's
        // critical path against the telemetry recorded while it ran.
        let attribution = self.attribution();
        if !attribution.is_empty() {
            root.insert(
                "attribution",
                JsonValue::Array(attribution.iter().map(RoundAttribution::to_json).collect()),
            );
        }
        root
    }

    /// Exports the trace's spans as a Chrome trace-event JSON document
    /// (loadable in Perfetto / `chrome://tracing`). Workers render as
    /// threads of process 1, switches as threads of process 2; timestamps
    /// are microseconds of simulated time.
    pub fn chrome_trace(&self) -> JsonValue {
        let mut events = Vec::new();
        let meta = |pid: u64, tid: Option<u64>, what: &str, name: &str| {
            let mut args = JsonValue::empty_object();
            args.insert("name", JsonValue::Str(name.to_owned()));
            let mut ev = JsonValue::empty_object();
            ev.insert("ph", JsonValue::Str("M".to_owned()));
            ev.insert("pid", JsonValue::UInt(pid));
            if let Some(tid) = tid {
                ev.insert("tid", JsonValue::UInt(tid));
            }
            ev.insert("name", JsonValue::Str(what.to_owned()));
            ev.insert("args", args);
            ev
        };
        events.push(meta(1, None, "process_name", "workers"));
        events.push(meta(2, None, "process_name", "switches"));
        for (&addr, &index) in &self.worker_index {
            let _ = addr;
            events.push(meta(
                1,
                Some(index),
                "thread_name",
                &format!("worker{index}"),
            ));
        }
        let switch_nodes: BTreeSet<u64> = self.spans.iter().filter_map(|s| s.node).collect();
        for &node in &switch_nodes {
            events.push(meta(2, Some(node), "thread_name", &format!("node{node}")));
        }
        for s in &self.spans {
            let (pid, tid) = match (s.node, s.worker) {
                (Some(node), _) => (2, node),
                (None, Some(addr)) => (1, self.windex(addr)),
                (None, None) => (1, 0),
            };
            let mut args = JsonValue::empty_object();
            if let Some(i) = s.iter {
                args.insert("iter", JsonValue::UInt(i));
            }
            if let Some(r) = s.round {
                args.insert("round", JsonValue::UInt(r));
            }
            if let Some(seg) = s.seg {
                args.insert("seg", JsonValue::UInt(seg));
            }
            if let Some(src) = s.last_src {
                args.insert("last_src_worker", JsonValue::UInt(self.windex(src)));
            }
            let mut ev = JsonValue::empty_object();
            ev.insert("name", JsonValue::Str(s.name.clone()));
            ev.insert("ph", JsonValue::Str("X".to_owned()));
            ev.insert("pid", JsonValue::UInt(pid));
            ev.insert("tid", JsonValue::UInt(tid));
            ev.insert("ts", JsonValue::Float(s.start_ns as f64 / 1000.0));
            ev.insert("dur", JsonValue::Float(s.dur_ns() as f64 / 1000.0));
            ev.insert("args", args);
            events.push(ev);
        }
        let mut root = JsonValue::empty_object();
        root.insert("displayTimeUnit", JsonValue::Str("ms".to_owned()));
        root.insert("traceEvents", JsonValue::Array(events));
        root
    }

    /// A short human-readable summary (the CLI's default output).
    pub fn summary_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if let (Some(s), Some(a)) = (&self.run.strategy, &self.run.algorithm) {
            let _ = writeln!(
                out,
                "run: {a} / {s}, {} workers",
                self.run.workers.unwrap_or(0)
            );
        }
        let paths = self.critical_path();
        let mut gated: BTreeMap<u64, u64> = BTreeMap::new();
        for p in &paths {
            if let Some(w) = p.straggler {
                *gated.entry(w).or_insert(0) += 1;
            }
        }
        let _ = writeln!(out, "rounds analyzed: {}", paths.len());
        for (w, n) in &gated {
            let _ = writeln!(out, "  worker {w} gated {n} round(s)");
        }
        for (label, busy, frac) in self.occupancy() {
            let _ = writeln!(out, "occupancy {label:<13}: {:.3} ({busy} ns busy)", frac);
        }
        if let Some(lat) = self.agg_latency() {
            let _ = writeln!(
                out,
                "agg window latency: p50 {} ns, p95 {} ns, p99 {} ns ({} windows)",
                lat.pooled.p50_ns, lat.pooled.p95_ns, lat.pooled.p99_ns, lat.pooled.count
            );
        }
        let attribution = self.attribution();
        if !attribution.is_empty() {
            let mut verdicts: BTreeMap<&'static str, u64> = BTreeMap::new();
            for a in &attribution {
                *verdicts.entry(a.verdict).or_insert(0) += 1;
            }
            let _ = writeln!(
                out,
                "attribution: {}",
                verdicts
                    .iter()
                    .map(|(v, n)| format!("{v} x{n}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            // Keep long runs readable: detail the first rounds, count the rest.
            for a in attribution.iter().take(10) {
                let mut parts = Vec::new();
                if let (Some(l), Some(q)) = (a.link, a.queue_bytes_peak) {
                    parts.push(format!(
                        "link {l} queue peak {q} B, ecn {}, drops {}",
                        a.ecn_marks.unwrap_or(0),
                        a.drops.unwrap_or(0)
                    ));
                }
                if let Some(w) = a.worker {
                    let mut s = format!("worker {w}");
                    if let Some(r) = a.tx_rate_bps {
                        if r > 0 {
                            s.push_str(&format!(" rate {r} bps"));
                        }
                    }
                    if a.retransmits.unwrap_or(0) > 0 {
                        s.push_str(&format!(" rexmit {}", a.retransmits.unwrap_or(0)));
                    }
                    parts.push(s);
                }
                let _ = writeln!(
                    out,
                    "  round {:>3} [{}]: {}",
                    a.round,
                    a.verdict,
                    parts.join("; ")
                );
            }
            if attribution.len() > 10 {
                let _ = writeln!(out, "  … {} more round(s)", attribution.len() - 10);
            }
        }
        out
    }
}

/// Critical-path attribution of one aggregation round.
#[derive(Debug, Clone, Default)]
struct RoundPath {
    round: u64,
    /// When the last aggregation window of the round closed.
    barrier_ns: u64,
    /// Windows observed in this round.
    windows: u64,
    gating_seg: Option<u64>,
    gating_node: Option<u64>,
    straggler_addr: Option<u64>,
    straggler: Option<u64>,
    compute_ns: Option<u64>,
    network_ns: Option<u64>,
    gating_link: Option<u64>,
    gating_backlog_ns: Option<u64>,
}

impl RoundPath {
    fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::empty_object();
        o.insert("round", JsonValue::UInt(self.round));
        o.insert("barrier_ns", JsonValue::UInt(self.barrier_ns));
        o.insert("windows", JsonValue::UInt(self.windows));
        if let Some(w) = self.straggler {
            o.insert("straggler", JsonValue::UInt(w));
        }
        if let Some(seg) = self.gating_seg {
            o.insert("gating_seg", JsonValue::UInt(seg));
        }
        if let Some(n) = self.gating_node {
            o.insert("gating_node", JsonValue::UInt(n));
        }
        if let Some(c) = self.compute_ns {
            o.insert("compute_ns", JsonValue::UInt(c));
        }
        if let Some(n) = self.network_ns {
            o.insert("network_ns", JsonValue::UInt(n));
        }
        if let Some(l) = self.gating_link {
            o.insert("gating_link", JsonValue::UInt(l));
        }
        if let Some(b) = self.gating_backlog_ns {
            o.insert("gating_backlog_ns", JsonValue::UInt(b));
        }
        o
    }
}

/// One round's telemetry join: what the gating link and gating worker were
/// doing while the round was on the wire.
#[derive(Debug, Clone, Default)]
struct RoundAttribution {
    round: u64,
    window_start_ns: u64,
    window_end_ns: u64,
    link: Option<u64>,
    queue_bytes_peak: Option<i64>,
    ecn_marks: Option<i64>,
    drops: Option<i64>,
    worker: Option<u64>,
    tx_rate_bps: Option<i64>,
    retransmits: Option<i64>,
    ecn_echoes: Option<i64>,
    verdict: &'static str,
}

impl RoundAttribution {
    /// Names *why* the round was slow, most specific signal first: packet
    /// loss on the gating link beats congestion beats rate throttling
    /// beats the coarse compute/network split from the critical path.
    fn classify(&self, path: &RoundPath) -> &'static str {
        if self.drops.unwrap_or(0) > 0 {
            return "lossy-link";
        }
        if self.ecn_marks.unwrap_or(0) > 0 || self.queue_bytes_peak.unwrap_or(0) > 0 {
            return "congested-link";
        }
        if self.retransmits.unwrap_or(0) > 0 {
            return "worker-retransmitting";
        }
        if self.tx_rate_bps.unwrap_or(0) > 0 && self.ecn_echoes.unwrap_or(0) > 0 {
            return "worker-rate-limited";
        }
        match (path.compute_ns, path.network_ns) {
            (Some(c), Some(n)) if c >= n => "compute-bound",
            (Some(_), Some(_)) => "network-bound",
            _ => "unattributed",
        }
    }

    fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::empty_object();
        o.insert("round", JsonValue::UInt(self.round));
        o.insert("window_start_ns", JsonValue::UInt(self.window_start_ns));
        o.insert("window_end_ns", JsonValue::UInt(self.window_end_ns));
        o.insert("verdict", JsonValue::Str(self.verdict.to_owned()));
        let int = |v: i64| {
            if v >= 0 {
                JsonValue::UInt(v as u64)
            } else {
                JsonValue::Int(v)
            }
        };
        if let Some(l) = self.link {
            let mut link = JsonValue::empty_object();
            link.insert("index", JsonValue::UInt(l));
            if let Some(v) = self.queue_bytes_peak {
                link.insert("queue_bytes_peak", int(v));
            }
            if let Some(v) = self.ecn_marks {
                link.insert("ecn_marks", int(v));
            }
            if let Some(v) = self.drops {
                link.insert("drops", int(v));
            }
            o.insert("link", link);
        }
        if let Some(w) = self.worker {
            let mut worker = JsonValue::empty_object();
            worker.insert("index", JsonValue::UInt(w));
            if let Some(v) = self.tx_rate_bps {
                worker.insert("tx_rate_bps", int(v));
            }
            if let Some(v) = self.retransmits {
                worker.insert("retransmits", int(v));
            }
            if let Some(v) = self.ecn_echoes {
                worker.insert("ecn_echoes", int(v));
            }
            o.insert("worker", worker);
        }
        o
    }
}

/// Latency stats over one set of aggregation windows.
#[derive(Debug, Clone, Copy)]
struct SegLatency {
    count: u64,
    p50_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
    max_ns: u64,
}

impl SegLatency {
    fn to_json(self) -> JsonValue {
        let mut o = JsonValue::empty_object();
        o.insert("count", JsonValue::UInt(self.count));
        o.insert("p50_ns", JsonValue::UInt(self.p50_ns));
        o.insert("p95_ns", JsonValue::UInt(self.p95_ns));
        o.insert("p99_ns", JsonValue::UInt(self.p99_ns));
        o.insert("max_ns", JsonValue::UInt(self.max_ns));
        o
    }
}

/// Pooled + per-segment aggregation latency.
struct AggLatency {
    pooled: SegLatency,
    segments: Vec<(u64, SegLatency)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.50), 50);
        assert_eq!(quantile_sorted(&v, 0.95), 95);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&[7], 0.99), 7);
    }

    #[test]
    fn attributes_stragglers_from_agg_windows() {
        let jsonl = r#"{"t_ns":0,"kind":"run","strategy":"iSW","algorithm":"ppo","workers":2,"iterations":1,"warmup":0,"seed":1}
{"t_ns":0,"kind":"worker","index":0,"addr":101,"ip":"0.0.0.101"}
{"t_ns":0,"kind":"worker","index":1,"addr":102,"ip":"0.0.0.102"}
{"t_ns":0,"kind":"span","span":1,"name":"worker.compute","end_ns":100,"dur_ns":100,"worker":101,"iter":0}
{"t_ns":0,"kind":"span","span":2,"name":"worker.compute","end_ns":300,"dur_ns":300,"worker":102,"iter":0}
{"t_ns":150,"kind":"pkt.tx","round":0,"seg":0,"worker":102,"src":"0.0.0.102","dst":"0.0.0.9","link":3,"backlog_ns":5,"depart_ns":160,"arrive_ns":400}
{"t_ns":100,"kind":"span","span":3,"name":"switch.agg_window","end_ns":450,"dur_ns":350,"round":0,"seg":0,"last_src":102,"node":2}
"#;
        let a = TraceAnalysis::from_jsonl(jsonl).unwrap();
        let report = a.report_json();
        let rounds = report
            .get("critical_path")
            .and_then(|c| c.get("rounds"))
            .expect("rounds");
        let JsonValue::Array(rounds) = rounds else {
            panic!("rounds is an array");
        };
        assert_eq!(rounds.len(), 1);
        let r0 = &rounds[0];
        assert_eq!(r0.get("straggler").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(r0.get("barrier_ns").and_then(|v| v.as_u64()), Some(450));
        assert_eq!(r0.get("compute_ns").and_then(|v| v.as_u64()), Some(300));
        assert_eq!(r0.get("network_ns").and_then(|v| v.as_u64()), Some(150));
        assert_eq!(r0.get("gating_link").and_then(|v| v.as_u64()), Some(3));
    }

    #[test]
    fn baseline_fallback_uses_worker_aggregation_spans() {
        let jsonl = r#"{"t_ns":0,"kind":"worker","index":0,"addr":11,"ip":"0.0.0.11"}
{"t_ns":0,"kind":"worker","index":1,"addr":12,"ip":"0.0.0.12"}
{"t_ns":100,"kind":"span","span":1,"name":"worker.aggregation","end_ns":200,"dur_ns":100,"worker":11,"iter":0}
{"t_ns":100,"kind":"span","span":2,"name":"worker.aggregation","end_ns":900,"dur_ns":800,"worker":12,"iter":0}
"#;
        let a = TraceAnalysis::from_jsonl(jsonl).unwrap();
        let report = a.report_json();
        let stragglers = report
            .get("critical_path")
            .and_then(|c| c.get("stragglers"))
            .expect("stragglers");
        let JsonValue::Array(stragglers) = stragglers else {
            panic!("stragglers is an array");
        };
        assert_eq!(stragglers.len(), 1);
        assert_eq!(
            stragglers[0].get("worker").and_then(|v| v.as_u64()),
            Some(1)
        );
    }

    #[test]
    fn chrome_export_is_deterministic_and_well_formed() {
        let jsonl = r#"{"t_ns":0,"kind":"worker","index":0,"addr":5,"ip":"0.0.0.5"}
{"t_ns":10,"kind":"span","span":1,"name":"worker.compute","end_ns":60,"dur_ns":50,"worker":5,"iter":0}
{"t_ns":20,"kind":"span","span":2,"name":"switch.agg_window","end_ns":80,"dur_ns":60,"round":0,"seg":1,"last_src":5,"node":3}
"#;
        let a = TraceAnalysis::from_jsonl(jsonl).unwrap();
        let b = TraceAnalysis::from_jsonl(jsonl).unwrap();
        assert_eq!(a.chrome_trace().render(), b.chrome_trace().render());
        let doc = a.chrome_trace();
        let JsonValue::Array(events) = doc.get("traceEvents").expect("traceEvents") else {
            panic!("traceEvents is an array");
        };
        // 2 process metas + 1 worker thread + 1 switch thread + 2 spans.
        assert_eq!(events.len(), 6);
        let span = events.last().expect("span event");
        assert_eq!(span.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert!(span.get("ts").is_some() && span.get("dur").is_some());
    }

    #[test]
    fn malformed_lines_are_an_error_and_unknown_kinds_are_not() {
        assert!(TraceAnalysis::from_jsonl("not json\n").is_err());
        let ok = TraceAnalysis::from_jsonl("{\"t_ns\":0,\"kind\":\"mystery\"}\n").unwrap();
        assert!(ok.spans.is_empty());
    }
}

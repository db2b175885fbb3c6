//! One measured run of one benchmark workload, in its own process.
//!
//! `run.py` spawns this binary once per measured run, so RSS, allocator
//! state and lazily built tables never carry over from one run to the
//! next. The binary calls the repository's public API the way a user of
//! the pipeline would — campaign, analysis, calibration, generation,
//! the experiment registry — times each call from the outside, and
//! prints one JSON object as its last line of standard output.
//!
//! ```text
//! perfbench --workload observed|flood|reproduce --seed N --days D
//!           [--trace 0|1] [--out DIR] [--mode run|setup|prefix|calibrate]
//! ```
//!
//! * `run` (default) — one measured run. With `--trace 1` the stage
//!   profiler and the benchmark's timing wrappers are on, the per-layer
//!   metrics are computed, and the spans are written to `DIR` at exit.
//! * `setup` — everything up to the first campaign call, then exit:
//!   repeated set-up samples for `setup_s`.
//! * `prefix` — the first `D` days of the workload at both fidelities,
//!   retained, with record-level trace fingerprints (output check).
//! * `calibrate` — a fixed integer loop; its score tells hosts apart.

use analysis::characterize::histograms::SessionHistograms;
use analysis::columnar::analyze_retained;
use analysis::load::query_load_by_time;
use analysis::streaming::{finish_shards, shard_pipelines, StreamingPipeline, StreamingResult};
use behavior::{
    run_population_sharded_into, run_population_sharded_with_stats, run_population_with_stats,
    shard_worker_threads, CampaignStats, Fidelity, PopulationConfig,
};
use bench_support::{registry, ExperimentContext, Scale};
use geoip::{DiurnalModel, GeoDb, Region};
use p2pq::{calibrate, GeneratorConfig, WorkloadGenerator};
use parking_lot::Mutex;
use serde_json::JsonValue;
use simnet::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use telemetry::{Counter, Snapshot, StageNode};
use trace::{
    ConnectionRecord, MessageRecord, RecordedPayload, SessionId, SharedSink, Trace, TraceSink,
};

/// Peers in the steady population of the Figure 12 generator.
const GEN_PEERS: usize = 10_000;
/// Simulated hours of the generator run (about a second of work).
const GEN_HOURS: u64 = 120;

/// The shape of a workload; its length in days comes from the caller.
struct Workload {
    name: &'static str,
    sessions_per_day: f64,
    max_connections: usize,
    /// `None`: the library default, as `Scale::population` uses.
    fidelity: Option<Fidelity>,
    shards: usize,
    /// `true`: the campaign streams into `StreamingPipeline` sinks;
    /// `false`: it retains the trace and the whole reproduction follows.
    streaming: bool,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "observed",
        sessions_per_day: 36_000.0,
        max_connections: 600,
        fidelity: Some(Fidelity::Hybrid),
        shards: 1,
        streaming: true,
    },
    Workload {
        name: "flood",
        sessions_per_day: 2_000_000.0,
        max_connections: 200,
        fidelity: Some(Fidelity::Hybrid),
        shards: 1,
        streaming: true,
    },
    Workload {
        name: "reproduce",
        sessions_per_day: 36_000.0,
        max_connections: 600,
        fidelity: None,
        shards: 2,
        streaming: false,
    },
];

impl Workload {
    fn config(&self, seed: u64, days: f64) -> PopulationConfig {
        let base = PopulationConfig::default();
        PopulationConfig {
            seed,
            days,
            sessions_per_day: self.sessions_per_day,
            max_connections: self.max_connections,
            fidelity: self.fidelity.unwrap_or(base.fidelity),
            ..base
        }
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    days: f64,
    traced: bool,
    out: Option<String>,
    mode: String,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key.to_string(), v);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let days: f64 = get("days")?.parse().map_err(|e| format!("--days: {e}"))?;
    if !(days > 0.0 && days.is_finite()) {
        return Err("--days must be positive".into());
    }
    Ok(Args {
        workload,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        days,
        traced: kv.get("trace").is_some_and(|t| t == "1"),
        out: kv.get("out").cloned(),
        mode: kv.get("mode").cloned().unwrap_or_else(|| "run".into()),
    })
}

fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// Current `VmHWM` (peak resident set) of this process in bytes.
fn vm_hwm_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// FNV-1a, the usual 64-bit offset basis and prime.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digest every recorded connection and message of a retained trace
/// (the same digest the `perf` harness gates full ≡ hybrid with).
fn fingerprint_trace(trace: &Trace) -> u64 {
    let mut h = Fnv::new();
    h.u64(trace.connections.len() as u64);
    for c in &trace.connections {
        h.u64(c.id.0);
        h.u64(u64::from(u32::from(c.addr)));
        h.bytes(c.user_agent.as_bytes());
        h.u64(u64::from(c.ultrapeer));
        h.u64(c.start.as_millis());
        h.u64(c.end.map_or(u64::MAX, |e| e.as_millis()));
        h.u64(u64::from(c.closed_by_probe));
    }
    h.u64(trace.messages.len() as u64);
    for m in trace.messages.iter() {
        h.u64(m.session.0);
        h.bytes(&m.guid.0);
        h.u64(m.at.as_millis());
        h.u64(u64::from(m.hops));
        h.u64(u64::from(m.ttl));
        match m.payload {
            RecordedPayload::Ping => h.u64(1),
            RecordedPayload::Pong { addr, shared_files } => {
                h.u64(2);
                h.u64(u64::from(u32::from(addr)));
                h.u64(u64::from(shared_files));
            }
            RecordedPayload::Query { text, sha1 } => {
                h.u64(3);
                h.bytes(text.as_str().as_bytes());
                h.u64(u64::from(sha1));
            }
            RecordedPayload::QueryHit { addr, results } => {
                h.u64(4);
                h.u64(u64::from(u32::from(addr)));
                h.u64(u64::from(results));
            }
            RecordedPayload::Bye => h.u64(5),
        }
    }
    h.0
}

/// Digest of a streaming result: the stream's counts plus every filter
/// counter (streaming mode never holds the records to digest them).
fn fingerprint_streaming(r: &StreamingResult) -> u64 {
    let mut h = Fnv::new();
    h.u64(r.sessions_seen);
    h.u64(r.messages_seen);
    h.u64(r.wire_bytes);
    h.u64(r.obs.n_days() as u64);
    h.bytes(
        serde_json::to_string(&r.ft.report)
            .expect("filter report serializes")
            .as_bytes(),
    );
    h.0
}

/// A benchmark-owned sink wrapper: times every callback into the
/// streaming pipeline (traced runs only).
struct TimedSink {
    inner: StreamingPipeline,
    ns: u64,
    calls: u64,
}

impl TimedSink {
    fn time<R>(&mut self, f: impl FnOnce(&mut StreamingPipeline) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut self.inner);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }
}

impl TraceSink for TimedSink {
    fn on_connect(&mut self, rec: ConnectionRecord) {
        self.time(|p| p.on_connect(rec));
    }

    fn on_batch(&mut self, records: &[MessageRecord], wire_lens: &[u32]) {
        self.time(|p| p.on_batch(records, wire_lens));
    }

    fn on_close(&mut self, id: SessionId, end: SimTime, by_probe: bool) {
        self.time(|p| p.on_close(id, end, by_probe));
    }
}

/// Spans recorded around the benchmark's calls into each layer, kept in
/// memory and written out when the run ends.
#[derive(Default)]
struct Spans {
    t0: Option<Instant>,
    done: Vec<(String, u64, u64)>,
}

impl Spans {
    /// Run `f`, returning its result and its wall seconds; record a span
    /// when the run is traced.
    fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let r = f();
        let secs = start.elapsed().as_secs_f64();
        if let Some(t0) = self.t0 {
            let s = start.duration_since(t0).as_nanos() as u64;
            self.done
                .push((name.to_string(), s, s + (secs * 1e9) as u64));
        }
        (r, secs)
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::Array(
            self.done
                .iter()
                .map(|(name, s, e)| {
                    obj(vec![
                        ("name", JsonValue::Str(name.clone())),
                        ("start_ns", JsonValue::U64(*s)),
                        ("end_ns", JsonValue::U64(*e)),
                    ])
                })
                .collect(),
        )
    }
}

fn obj(entries: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn f64s(entries: &[(&str, f64)]) -> JsonValue {
    obj(entries
        .iter()
        .map(|&(k, v)| (k, JsonValue::F64(v)))
        .collect())
}

fn u64s(entries: &[(&str, u64)]) -> JsonValue {
    obj(entries
        .iter()
        .map(|&(k, v)| (k, JsonValue::U64(v)))
        .collect())
}

/// Inclusive seconds of the stage at `path` in the profiler tree.
fn stage_s(tree: &[StageNode], path: &str) -> f64 {
    fn find<'a>(nodes: &'a [StageNode], path: &str) -> Option<&'a StageNode> {
        nodes.iter().find_map(|n| {
            if n.path == path {
                Some(n)
            } else if path.starts_with(&format!("{}/", n.path)) {
                find(&n.children, path)
            } else {
                None
            }
        })
    }
    find(tree, path).map_or(0.0, |n| n.incl_ns as f64 / 1e9)
}

/// What the campaign phase hands to the rest of the run.
struct CampaignOut {
    stats: CampaignStats,
    campaign_s: f64,
    sessions: u64,
    messages: u64,
    wire_bytes: u64,
    peak_trace_bytes: u64,
    fingerprint: u64,
    report: analysis::FilterReport,
    /// Traced streaming runs: time inside sink callbacks, and call count.
    stream: Option<(f64, u64)>,
    /// Streaming: pipeline finish + merge seconds.
    finish_s: f64,
    /// Retained: raw/encoded bytes of the sealed chunks, and their
    /// resident encoded bytes.
    compression_ratio: f64,
    retained_chunk_bytes: u64,
    /// Retained workloads: the trace, for the reproduction that follows.
    trace: Option<Trace>,
}

fn run_streaming(
    cfg: &PopulationConfig,
    w: &Workload,
    db: &GeoDb,
    traced: bool,
    spans: &mut Spans,
    t_campaign: &mut u64,
) -> CampaignOut {
    let (stats, campaign_s, r, stream, finish_s);
    if traced {
        let sinks: Vec<Arc<Mutex<TimedSink>>> = (0..w.shards)
            .map(|_| {
                Arc::new(Mutex::new(TimedSink {
                    inner: StreamingPipeline::new(db.clone(), false),
                    ns: 0,
                    calls: 0,
                }))
            })
            .collect();
        let shared = sinks.iter().map(|s| Arc::clone(s) as SharedSink).collect();
        *t_campaign = unix_ns();
        (stats, campaign_s) = spans.time("campaign", || {
            run_population_sharded_into(cfg, w.shards, shared, false)
        });
        let timed: Vec<TimedSink> = sinks
            .into_iter()
            .map(|s| {
                Arc::try_unwrap(s)
                    .unwrap_or_else(|_| panic!("streaming sink still shared"))
                    .into_inner()
            })
            .collect();
        stream = Some((
            timed.iter().map(|t| t.ns).sum::<u64>() as f64 / 1e9,
            timed.iter().map(|t| t.calls).sum(),
        ));
        (r, finish_s) = spans.time("analysis/finish", || {
            StreamingResult::merge(timed.into_iter().map(|t| t.inner.finish()).collect())
        });
    } else {
        let sinks = shard_pipelines(db, false, w.shards);
        let shared = sinks.iter().map(|s| Arc::clone(s) as SharedSink).collect();
        *t_campaign = unix_ns();
        (stats, campaign_s) = spans.time("campaign", || {
            run_population_sharded_into(cfg, w.shards, shared, false)
        });
        stream = None;
        (r, finish_s) = spans.time("analysis/finish", || finish_shards(sinks));
    }
    CampaignOut {
        stats,
        campaign_s,
        sessions: r.sessions_seen,
        messages: r.messages_seen,
        wire_bytes: r.wire_bytes,
        peak_trace_bytes: r.peak_bytes,
        fingerprint: fingerprint_streaming(&r),
        report: r.ft.report,
        stream,
        finish_s,
        compression_ratio: 0.0,
        retained_chunk_bytes: 0,
        trace: None,
    }
}

fn run_retained(
    cfg: &PopulationConfig,
    w: &Workload,
    spans: &mut Spans,
    t_campaign: &mut u64,
) -> CampaignOut {
    *t_campaign = unix_ns();
    let ((trace, stats), campaign_s) = spans.time("campaign", || {
        run_population_sharded_with_stats(cfg, w.shards)
    });
    // The filter report and the fingerprint are filled in by `run`,
    // after the reproduction that follows.
    CampaignOut {
        stats,
        campaign_s,
        sessions: trace.connections.len() as u64,
        messages: trace.messages.len() as u64,
        wire_bytes: trace.wire_bytes,
        peak_trace_bytes: trace.mem_bytes(),
        fingerprint: 0,
        report: Default::default(),
        stream: None,
        finish_s: 0.0,
        compression_ratio: trace.messages.compression_ratio().unwrap_or(0.0),
        retained_chunk_bytes: trace.messages.retained_chunk_bytes(),
        trace: Some(trace),
    }
}

fn run(a: &Args, t_main: Instant) -> JsonValue {
    let w = a.workload;
    telemetry::profile::set_enabled(a.traced);
    let mut spans = Spans {
        t0: a.traced.then_some(t_main),
        ..Spans::default()
    };
    let cfg = w.config(a.seed, a.days);
    let db = GeoDb::synthetic();
    let mut t_campaign = 0;
    let mut c = if w.streaming {
        run_streaming(&cfg, w, &db, a.traced, &mut spans, &mut t_campaign)
    } else {
        run_retained(&cfg, w, &mut spans, &mut t_campaign)
    };

    // The reproduction: retained analysis, calibration, generation and
    // every registry experiment, one after another on this thread.
    let mut times: BTreeMap<&str, f64> = BTreeMap::new();
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    let mut experiment_bytes: Vec<(&str, u64)> = Vec::new();
    let mut experiment_s: Vec<(&str, f64)> = Vec::new();
    let mut report_digest = Fnv::new();
    let mut ctx = None;
    if let Some(trace) = c.trace.take() {
        let (r, scan_s) = spans.time("analysis/retained", || analyze_retained(&trace, &db));
        let (hist, hist_s) = spans.time("analysis/histograms", || {
            SessionHistograms::from_filtered(&r.ft)
        });
        let (load_total, load_s) = spans.time("analysis/load", || {
            Region::CHARACTERIZED
                .iter()
                .map(|&region| query_load_by_time(&r.ft, region).total)
                .sum::<u64>()
        });
        std::hint::black_box(&hist);
        times.insert("retained_scan_s", scan_s);
        times.insert("histograms_s", hist_s);
        times.insert("load_s", load_s);
        counts.insert("load_queries", load_total);

        let ((model, cal), cal_s) = spans.time("core/calibrate", || calibrate(&r.ft));
        let (events, gen_s) = spans.time("core/generate", || {
            let mut g = WorkloadGenerator::new(
                &model,
                GeneratorConfig {
                    n_peers: GEN_PEERS,
                    seed: a.seed,
                    ..GeneratorConfig::default()
                },
            );
            // Hour by hour, so the events never pile up in memory.
            (1..=GEN_HOURS)
                .map(|h| g.events_until(SimTime::from_secs(h * 3600)).len() as u64)
                .sum::<u64>()
        });
        times.insert("calibrate_s", cal_s);
        times.insert("generate_s", gen_s);
        counts.insert("fields_fitted", cal.fitted.len() as u64);
        counts.insert("events_generated", events);

        c.report = r.ft.report;
        let ctx = ctx.insert(ExperimentContext {
            trace,
            ft: r.ft,
            obs: r.obs,
            db: db.clone(),
            diurnal: DiurnalModel::paper_default(),
            scale: Scale::Default,
        });
        for e in registry() {
            let (out, secs) = spans.time(&format!("report/{}", e.id), || (e.run)(ctx));
            report_digest.bytes(e.id.as_bytes());
            report_digest.bytes(out.as_bytes());
            experiment_bytes.push((e.id, out.len() as u64));
            experiment_s.push((e.id, secs));
        }
    }
    let t_end = unix_ns();
    let peak_rss_bytes = vm_hwm_bytes();
    // Checks run after the product's last output, outside every window.
    if let Some(ctx) = &ctx {
        c.fingerprint = fingerprint_trace(&ctx.trace);
    }

    // Deterministic counts: engine statistics, the merged per-shard
    // counters and the process-global trace-store counters.
    let snap: Snapshot = c.stats.telemetry.merged(&telemetry::global().snapshot());
    let s = &c.stats;
    counts.insert("events_popped", s.events_popped);
    counts.insert("peak_queue_len", s.peak_queue_len);
    counts.insert("delivered", s.delivered);
    counts.insert("dropped", s.dropped);
    counts.insert("timers_fired", s.timers_fired);
    counts.insert("spawned", s.spawned);
    counts.insert("hybrid_elided", s.hybrid_elided_msgs);
    counts.insert("hybrid_modeled", s.hybrid_modeled_msgs);
    for (name, ctr) in [
        ("wheel_cascades", Counter::WheelCascades),
        ("heap_spills", Counter::HeapSpills),
        ("rng_batched_draws", Counter::RngBatchedDraws),
        ("sink_batches", Counter::SinkBatches),
        ("sink_records", Counter::SinkRecords),
        ("chunk_seals", Counter::ChunkSeals),
    ] {
        counts.insert(name, snap.counter(ctr));
    }
    counts.insert("sessions", c.sessions);
    counts.insert("messages", c.messages);
    counts.insert("wire_bytes", c.wire_bytes);
    counts.insert("peak_trace_bytes", c.peak_trace_bytes);
    counts.insert("filtered_sessions", c.report.final_sessions);
    counts.insert("filtered_queries", c.report.final_queries);
    counts.insert("fingerprint", c.fingerprint);
    if !experiment_bytes.is_empty() {
        counts.insert("report_digest", report_digest.0);
    }

    let analysis_s = times.get("retained_scan_s").copied().unwrap_or(0.0)
        + times.get("histograms_s").copied().unwrap_or(0.0)
        + times.get("load_s").copied().unwrap_or(0.0);
    let report_s = experiment_s.iter().fold(0.0, |acc, (_, s)| acc + s);
    let generate_s = times.get("generate_s").copied().unwrap_or(0.0);
    let events_generated = counts.get("events_generated").copied().unwrap_or(0);

    let mut entries = vec![
        (
            "population",
            serde_json::from_str(&serde_json::to_string(&cfg).expect("config serializes"))
                .expect("config round-trips"),
        ),
        ("shards", JsonValue::U64(w.shards as u64)),
        (
            "worker_threads",
            JsonValue::U64(shard_worker_threads(w.shards, false) as u64),
        ),
        ("t_campaign_start_unix_ns", JsonValue::U64(t_campaign)),
        ("t_end_unix_ns", JsonValue::U64(t_end)),
        (
            "times",
            f64s(&[
                ("campaign_s", c.campaign_s),
                ("finish_s", c.finish_s),
                ("analysis_s", analysis_s),
                (
                    "calibrate_s",
                    times.get("calibrate_s").copied().unwrap_or(0.0),
                ),
                ("generate_s", generate_s),
                ("report_s", report_s),
            ]),
        ),
        ("peak_rss_bytes", JsonValue::U64(peak_rss_bytes)),
        (
            "counts",
            u64s(&counts.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()),
        ),
        (
            "check",
            u64s(&[
                ("sink_records", snap.counter(Counter::SinkRecords)),
                ("analysis_records", c.messages),
                ("sink_sessions", c.sessions),
                (
                    "analysis_sessions",
                    c.report.raw_sessions + c.report.unfinished_sessions,
                ),
            ]),
        ),
        ("experiment_bytes", u64s(&experiment_bytes)),
    ];
    if generate_s > 0.0 {
        entries.push((
            "gen_events_per_s",
            JsonValue::F64(events_generated as f64 / generate_s),
        ));
    }
    if a.traced {
        let stages = telemetry::profile::take_stages();
        let tree = telemetry::stage_tree(&stages);
        let layers = layer_metrics(&c, &snap, &tree, &times, &counts, &experiment_s, w);
        if let Some(dir) = &a.out {
            write_spans(dir, a, &spans, &tree);
        }
        entries.push(("layers", layers));
    }
    obj(entries)
}

/// The per-layer metrics of a traced run (see README.md for the map
/// from each one to the end-to-end metric it moves).
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    c: &CampaignOut,
    snap: &Snapshot,
    tree: &[StageNode],
    times: &BTreeMap<&str, f64>,
    counts: &BTreeMap<&str, u64>,
    experiment_s: &[(&str, f64)],
    w: &Workload,
) -> JsonValue {
    let t = |k: &str| times.get(k).copied().unwrap_or(0.0);
    let n = |k: &str| counts.get(k).copied().unwrap_or(0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    const MIB: f64 = 1024.0 * 1024.0;

    let build_s = stage_s(tree, "campaign/build");
    let merge_s = stage_s(tree, "campaign/merge");
    let drain_s = stage_s(tree, "campaign/run/drain");
    let seal_s = stage_s(tree, "campaign/run/drain/seal");
    let analyze_s = stage_s(tree, "campaign/run/drain/analyze");
    // Stage times of a multi-shard run are CPU-seconds summed over the
    // workers; spread them over the workers to compare with wall time.
    let threads = shard_worker_threads(w.shards, false) as f64;
    let (stream_s, stream_calls) = c.stream.unwrap_or((0.0, 0));
    let sink_s = if w.streaming { stream_s } else { drain_s };
    let loop_s = (c.campaign_s - build_s - merge_s - sink_s / threads).max(0.0);
    let events = n("events_popped") as f64;
    let elided = n("hybrid_elided") as f64;
    let modeled = n("hybrid_modeled") as f64;

    let mut m: Vec<(String, f64)> = vec![
        ("simnet.events_popped", events),
        ("simnet.wheel_cascades", n("wheel_cascades") as f64),
        ("simnet.cascade_frac", snap.cascade_frac().unwrap_or(0.0)),
        ("simnet.heap_spills", n("heap_spills") as f64),
        ("simnet.peak_queue_len", n("peak_queue_len") as f64),
        ("simnet.delivered", n("delivered") as f64),
        ("simnet.dropped", n("dropped") as f64),
        ("simnet.ns_per_event", ratio(loop_s * 1e9, events)),
        ("behavior.build_s", build_s),
        ("behavior.loop_s", loop_s),
        ("behavior.merge_s", merge_s),
        ("behavior.hybrid_elided", elided),
        ("behavior.hybrid_modeled", modeled),
        (
            "behavior.far_cloud_avoided_frac",
            ratio(elided, elided + modeled),
        ),
        ("behavior.rng_batched_draws", n("rng_batched_draws") as f64),
        (
            "behavior.records_per_event",
            ratio(n("sink_records") as f64, events),
        ),
        ("trace.sink_batches", n("sink_batches") as f64),
        ("trace.sink_records", n("sink_records") as f64),
        ("trace.append_s", (drain_s - seal_s - analyze_s).max(0.0)),
        ("trace.seal_s", seal_s),
        ("trace.chunk_seals", n("chunk_seals") as f64),
        ("trace.chunk_compression_ratio", c.compression_ratio),
        (
            "trace.retained_chunk_mb",
            c.retained_chunk_bytes as f64 / MIB,
        ),
        ("trace.wire_mb", n("wire_bytes") as f64 / MIB),
        ("analysis.stream_s", stream_s),
        ("analysis.stream_calls", stream_calls as f64),
        ("analysis.finish_s", c.finish_s),
        ("analysis.retained_scan_s", t("retained_scan_s")),
        ("analysis.histograms_s", t("histograms_s")),
        ("analysis.load_s", t("load_s")),
        (
            "analysis.filter_keep_frac",
            ratio(c.report.final_sessions as f64, c.report.raw_sessions as f64),
        ),
        ("core.calibrate_s", t("calibrate_s")),
        ("core.fields_fitted", n("fields_fitted") as f64),
        ("core.generate_s", t("generate_s")),
        ("core.events_generated", n("events_generated") as f64),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    const NAMED: [&str; 7] = [
        "hitrate",
        "fig02",
        "fig01",
        "table1",
        "ablation_filters",
        "fig10",
        "generator",
    ];
    let exp = |id: &str| {
        experiment_s
            .iter()
            .find(|(e, _)| *e == id)
            .map_or(0.0, |e| e.1)
    };
    for id in NAMED {
        m.push((format!("report.{id}_s"), exp(id)));
    }
    let rest = experiment_s
        .iter()
        .filter(|(id, _)| !NAMED.contains(id))
        .fold(0.0, |acc, (_, s)| acc + s);
    m.push(("report.rest_s".to_string(), rest));
    JsonValue::Object(m.into_iter().map(|(k, v)| (k, JsonValue::F64(v))).collect())
}

fn write_spans(dir: &str, a: &Args, spans: &Spans, tree: &[StageNode]) {
    let doc = obj(vec![
        ("workload", JsonValue::Str(a.workload.name.to_string())),
        ("seed", JsonValue::U64(a.seed)),
        ("spans", spans.to_json()),
        (
            "stages",
            JsonValue::Array(tree.iter().map(StageNode::to_json).collect()),
        ),
    ]);
    let path = format!("{dir}/spans-{}-seed{}.json", a.workload.name, a.seed);
    let text = serde_json::to_string_pretty(&doc).expect("spans serialize");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("perfbench: cannot write {path}: {e}");
    }
}

/// Set-up only: the work a run does before its first campaign call.
fn setup_only(a: &Args) -> JsonValue {
    telemetry::profile::set_enabled(a.traced);
    let w = a.workload;
    let cfg = w.config(a.seed, a.days);
    let db = GeoDb::synthetic();
    let sinks = if w.streaming {
        shard_pipelines(&db, false, w.shards)
    } else {
        Vec::new()
    };
    let t = unix_ns();
    std::hint::black_box((&cfg, &sinks));
    obj(vec![("t_campaign_start_unix_ns", JsonValue::U64(t))])
}

/// The first `days` of the workload at both fidelities, retained, with
/// record-level fingerprints: hybrid must reproduce the full trace.
fn prefix(a: &Args) -> JsonValue {
    telemetry::profile::set_enabled(false);
    let mut out = Vec::new();
    for (name, fidelity) in [("full", Fidelity::Full), ("hybrid", Fidelity::Hybrid)] {
        let cfg = PopulationConfig {
            fidelity,
            ..a.workload.config(a.seed, a.days)
        };
        let (trace, _) = run_population_with_stats(&cfg);
        out.push((name, fingerprint_trace(&trace)));
    }
    u64s(&out)
}

/// Host scores, not results: a fixed integer loop, and dependent loads
/// around one random 32 MiB cycle (Sattolo's shuffle). The second tracks
/// how much of the shared last-level cache the host leaves this process.
fn calibration() -> JsonValue {
    const ITERS: u64 = 50_000_000;
    const SLOTS: usize = 8 << 20;
    const HOPS: u64 = 2_000_000;
    let xorshift = |mut x: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^ (x << 17)
    };
    let t = Instant::now();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
    for i in 0..ITERS {
        x = xorshift(x).wrapping_add(i);
    }
    std::hint::black_box(x);
    let alu = ITERS as f64 / t.elapsed().as_secs_f64() / 1e6;

    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    for i in (1..SLOTS).rev() {
        x = xorshift(x);
        next.swap(i, (x % i as u64) as usize);
    }
    let t = Instant::now();
    let mut p = 0usize;
    for _ in 0..HOPS {
        p = next[p] as usize;
    }
    std::hint::black_box(p);
    let mem = HOPS as f64 / t.elapsed().as_secs_f64() / 1e6;
    f64s(&[("calibration_mops", alu), ("memory_mhops", mem)])
}

fn main() {
    let t_main = Instant::now();
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match a.mode.as_str() {
        "run" => run(&a, t_main),
        "setup" => setup_only(&a),
        "prefix" => prefix(&a),
        "calibrate" => calibration(),
        other => {
            eprintln!("perfbench: unknown --mode {other:?}");
            std::process::exit(2);
        }
    };
    println!(
        "{}",
        serde_json::to_string(&out).expect("result serializes")
    );
}

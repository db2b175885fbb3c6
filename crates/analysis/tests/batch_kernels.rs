//! The batch kernels behind Table 1, Figures 1–2 and the hit-rate
//! extension read projected chunk batches. Each must equal the
//! record-at-a-time reference kept in this file, on stores cut into
//! several sealed chunks plus a non-empty tail, held in memory and
//! spilled to disk, for a real smoke campaign and for a synthetic trace
//! with the edge cases a campaign rarely produces: PONGs that repeat an
//! address with a different file count, hits whose GUID matches no
//! query, and queries on sessions without a connection record.

use analysis::hitrate::{hit_rate, HitRateAnalysis, HitRateStats};
use analysis::representative::{
    geo_representativeness, shared_files_representativeness, GeoPanel, SharedFilesPanel,
};
use behavior::{run_population, PopulationConfig};
use geoip::{AddressAllocator, GeoDb, Region};
use gnutella::Guid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::SimTime;
use stats::correlation::spearman;
use stats::histogram::Histogram;
use stats::{Ecdf, Series};
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::path::PathBuf;
use trace::{
    ConnectionRecord, MessageColumns, MessageRecord, RecordedPayload, SessionId, Trace, TraceStats,
};

// ---------------------------------------------------------------------
// Record-iteration references
// ---------------------------------------------------------------------

fn table1_ref(t: &Trace) -> TraceStats {
    let mut s = TraceStats {
        direct_connections: t.connections.len() as u64,
        ultrapeer_connections: t.connections.iter().filter(|c| c.ultrapeer).count() as u64,
        ..TraceStats::default()
    };
    let mut last_ms = 0u64;
    for c in &t.connections {
        last_ms = last_ms.max(c.end.unwrap_or(c.start).as_millis());
    }
    for m in &t.messages {
        match m.payload {
            RecordedPayload::Ping => s.ping_messages += 1,
            RecordedPayload::Pong { .. } => s.pong_messages += 1,
            RecordedPayload::Query { .. } => s.query_messages += 1,
            RecordedPayload::QueryHit { .. } => s.queryhit_messages += 1,
            RecordedPayload::Bye => {}
        }
        if m.is_one_hop_query() {
            s.hop1_queries += 1;
        }
        last_ms = last_ms.max(m.at.as_millis());
    }
    s.trace_days = last_ms.div_ceil(24 * 3600 * 1000);
    s
}

fn geo_ref(t: &Trace, db: &GeoDb) -> Vec<(Region, GeoPanel)> {
    let mut one_hop = [[0u64; 24]; 4];
    for c in &t.connections {
        one_hop[db.lookup(c.addr).index()][c.start.hour_of_day() as usize] += 1;
    }
    let mut all = [[0u64; 24]; 4];
    for m in &t.messages {
        if m.hops < 2 {
            continue;
        }
        let addr = match m.payload {
            RecordedPayload::Pong { addr, .. } | RecordedPayload::QueryHit { addr, .. } => addr,
            _ => continue,
        };
        all[db.lookup(addr).index()][m.at.hour_of_day() as usize] += 1;
    }
    let hours: Vec<f64> = (0..24).map(|h| h as f64 + 0.5).collect();
    let fraction = |table: &[[u64; 24]; 4], region: Region| -> Vec<f64> {
        (0..24)
            .map(|h| {
                let total: u64 = (0..4).map(|r| table[r][h]).sum();
                if total == 0 {
                    0.0
                } else {
                    table[region.index()][h] as f64 / total as f64
                }
            })
            .collect()
    };
    Region::CHARACTERIZED
        .iter()
        .map(|&r| {
            let panel = GeoPanel {
                one_hop: Series::labeled("1-hop Peers", hours.clone(), fraction(&one_hop, r)),
                all_peers: Series::labeled("All Peers", hours.clone(), fraction(&all, r)),
            };
            (r, panel)
        })
        .collect()
}

fn shared_files_ref(t: &Trace) -> SharedFilesPanel {
    let mut one_hop: HashMap<Ipv4Addr, u32> = HashMap::new();
    let mut all: HashMap<Ipv4Addr, u32> = HashMap::new();
    for m in &t.messages {
        if let RecordedPayload::Pong { addr, shared_files } = m.payload {
            let seen = if m.hops == 1 { &mut one_hop } else { &mut all };
            seen.entry(addr).or_insert(shared_files);
        }
    }
    let to_series = |map: &HashMap<Ipv4Addr, u32>, label: &str| {
        let mut h = Histogram::new(0.0, 101.0, 101).unwrap();
        for &files in map.values() {
            h.add(f64::from(files.min(200)));
        }
        let ys = h.fraction_series().ys().to_vec();
        Series::labeled(label, (0..=100).map(f64::from).collect(), ys)
    };
    SharedFilesPanel {
        one_hop: to_series(&one_hop, "1-hop Peers"),
        all_peers: to_series(&all, "All Peers"),
    }
}

fn hit_rate_ref(t: &Trace, db: &GeoDb) -> HitRateAnalysis {
    let mut hits: HashMap<Guid, (u64, u64)> = HashMap::new();
    for m in &t.messages {
        if let RecordedPayload::QueryHit { results, .. } = m.payload {
            let e = hits.entry(m.guid).or_insert((0, 0));
            e.0 += 1;
            e.1 += u64::from(results);
        }
    }
    let mut per_region = [HitRateStats::default(); 4];
    let mut overall = HitRateStats::default();
    let mut hit_counts = Vec::new();
    // Ordered by session id, the order the kernel feeds Spearman.
    let mut per_session: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for m in &t.messages {
        if !m.is_one_hop_query() {
            continue;
        }
        let region = t
            .connection(m.session)
            .map_or(Region::Other, |c| db.lookup(c.addr));
        let (h, r) = hits.get(&m.guid).copied().unwrap_or((0, 0));
        for stats in [&mut per_region[region.index()], &mut overall] {
            stats.queries += 1;
            stats.hit_messages += h;
            stats.results += r;
            stats.answered += u64::from(h > 0);
        }
        hit_counts.push(h as f64);
        let s = per_session.entry(m.session.0).or_insert((0, 0));
        s.0 += 1;
        s.1 += u64::from(h > 0);
    }
    let (xs, ys): (Vec<f64>, Vec<f64>) = per_session
        .values()
        .map(|&(q, a)| (q as f64, a as f64 / q as f64))
        .unzip();
    HitRateAnalysis {
        per_region,
        overall,
        hits_ccdf: Ecdf::new(hit_counts).ok().map(|e| e.ccdf_series_exact()),
        rate_vs_query_count: if xs.len() >= 30 {
            spearman(&xs, &ys).ok()
        } else {
            None
        },
    }
}

// ---------------------------------------------------------------------
// Traces and store layouts
// ---------------------------------------------------------------------

/// Edge cases on top of a plausible mix: 44 sessions of which 4 have no
/// connection record, PONGs drawn from a 150-address pool with fresh
/// file counts, hits that mostly answer a recent query, and a span of
/// about two days so hours wrap.
fn synthetic_trace(seed: u64) -> Trace {
    let db = GeoDb::synthetic();
    let alloc = AddressAllocator::new(&db);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Trace::new();
    for i in 0..40u64 {
        let addr = if i % 9 == 8 {
            Ipv4Addr::new(140, 1, 2, i as u8) // unallocated: Other
        } else {
            alloc.sample(Region::ALL[i as usize % 4], &mut rng)
        };
        t.connections.push(ConnectionRecord {
            id: SessionId(i),
            addr,
            user_agent: "X".into(),
            ultrapeer: i % 3 == 0,
            start: SimTime::from_secs(rng.gen_range(0..86_400u64)),
            end: (i % 5 != 0).then(|| SimTime::from_secs(90_000 + i)),
            closed_by_probe: false,
        });
    }
    let pool: Vec<Ipv4Addr> = (0..150)
        .map(|i| alloc.sample(Region::ALL[i % 4], &mut rng))
        .collect();
    let mut queries: Vec<Guid> = Vec::new();
    let mut at = 0u64;
    for _ in 0..12_000 {
        at += rng.gen_range(0..30_000u64);
        let mut guid = Guid::random(&mut rng);
        let payload = match rng.gen_range(0..10u32) {
            0 => RecordedPayload::Ping,
            1 | 2 => RecordedPayload::Pong {
                addr: pool[rng.gen_range(0..pool.len())],
                shared_files: rng.gen_range(0..150u32),
            },
            3..=5 => {
                queries.push(guid);
                RecordedPayload::Query {
                    text: format!("q{}", rng.gen_range(0..20u32)).as_str().into(),
                    sha1: rng.gen_bool(0.1),
                }
            }
            6..=8 => {
                if !queries.is_empty() && rng.gen_bool(0.8) {
                    guid = queries[rng.gen_range(queries.len().saturating_sub(50)..queries.len())];
                }
                RecordedPayload::QueryHit {
                    addr: pool[rng.gen_range(0..pool.len())],
                    results: rng.gen_range(0..=255u8),
                }
            }
            _ => RecordedPayload::Bye,
        };
        t.messages.push(MessageRecord {
            session: SessionId(rng.gen_range(0..44u64)),
            guid,
            at: SimTime::from_millis(at),
            hops: rng.gen_range(0..=7u8),
            ttl: rng.gen_range(0..=7u8),
            payload,
        });
    }
    t
}

/// `t` re-encoded into chunks of `chunk_rows`, optionally spilled.
fn rechunked(t: &Trace, chunk_rows: usize, spill: Option<PathBuf>) -> Trace {
    let mut messages = MessageColumns::new();
    messages.configure_chunks(chunk_rows, spill);
    messages.extend(t.messages.iter());
    Trace {
        connections: t.connections.clone(),
        messages,
        wire_bytes: t.wire_bytes,
    }
}

/// Check all four kernels against their references on `t` laid out as
/// several sealed chunks plus a tail, in memory, spilled, and in
/// near-degenerate 6- or 7-row chunks.
fn check_kernels(name: &str, t: &Trace) {
    let db = GeoDb::synthetic();
    let n = t.messages.len();
    let mut chunk_rows = (n / 7).max(1);
    if n.is_multiple_of(chunk_rows) {
        chunk_rows += 1;
    }
    let spill_dir =
        std::env::temp_dir().join(format!("p2pq-batch-kernels-{name}-{}", std::process::id()));
    let tiny = if n.is_multiple_of(7) { 6 } else { 7 };
    let layouts = [
        ("in memory", chunk_rows, None),
        ("spilled", chunk_rows, Some(spill_dir.clone())),
        ("tiny chunks", tiny, None),
    ];
    for (layout, rows, spill) in layouts {
        let spilled = spill.is_some();
        let store = &rechunked(t, rows, spill);
        let cols = &store.messages;
        assert!(cols.sealed_chunks() >= 6, "{name}/{layout}: too few chunks");
        assert_ne!(cols.len() % rows, 0, "{name}/{layout}: empty tail");
        assert_eq!(cols.spill_bytes_written() > 0, spilled, "{name}/{layout}");
        let ctx = format!("{name}, {layout}");
        assert_eq!(TraceStats::of(store), table1_ref(t), "Table 1, {ctx}");
        assert_eq!(
            geo_representativeness(store, &db),
            geo_ref(t, &db),
            "Figure 1, {ctx}"
        );
        assert_eq!(
            shared_files_representativeness(store),
            shared_files_ref(t),
            "Figure 2, {ctx}"
        );
        assert_eq!(
            hit_rate(store, &db),
            hit_rate_ref(t, &db),
            "hit rate, {ctx}"
        );
    }
    let _ = std::fs::remove_dir_all(&spill_dir);
}

#[test]
fn batch_kernels_match_record_references_on_a_campaign() {
    let t = run_population(&PopulationConfig::smoke());
    let a = hit_rate_ref(&t, &GeoDb::synthetic());
    assert!(a.overall.answered > 0 && a.rate_vs_query_count.is_some());
    check_kernels("campaign", &t);
}

#[test]
fn batch_kernels_match_record_references_on_edge_cases() {
    let t = synthetic_trace(11);
    let a = hit_rate_ref(&t, &GeoDb::synthetic());
    assert!(a.overall.answered > 0 && a.rate_vs_query_count.is_some());
    assert!(a.per_region[Region::Other.index()].queries > 0);
    check_kernels("synthetic", &t);
}

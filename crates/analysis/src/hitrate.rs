//! Query hit-rate characterization — the paper's §5 future work.
//!
//! > "Future work includes characterizing the query hit rate of the
//! > peers, including the correlation of hit rate with other measures."
//!
//! QUERYHIT responses are reverse-routed with the GUID of the QUERY they
//! answer (§3.1), so the measurement peer can attribute every hit it
//! relays to the one-hop query that caused it. This module implements the
//! characterization the authors deferred:
//!
//! * per-region hit rates (fraction of one-hop queries receiving ≥ 1 hit);
//! * the distribution of hits per query;
//! * the correlation between a session's query count and its hit rate.
//!
//! Hits observed here are a *lower bound* on the network-wide response: the
//! measurement peer only sees hits that travel back through it.

use geoip::{GeoDb, Region};
use gnutella::routing::RandomKeyHasher;
use gnutella::Guid;
use serde::{Deserialize, Serialize};
use stats::correlation::spearman;
use stats::{Ecdf, Series};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use trace::{MsgKind, Sections, Trace};

/// Hit statistics for one peer class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct HitRateStats {
    /// One-hop queries considered.
    pub queries: u64,
    /// Queries that received at least one hit.
    pub answered: u64,
    /// QUERYHIT messages attributed to those queries.
    pub hit_messages: u64,
    /// Result records carried by those hits.
    pub results: u64,
}

impl HitRateStats {
    /// Fraction of queries answered.
    pub fn answer_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.answered as f64 / self.queries as f64
        }
    }

    /// Mean hit messages per query.
    pub fn hits_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.hit_messages as f64 / self.queries as f64
        }
    }
}

/// The full hit-rate analysis result.
#[derive(Debug, Clone, PartialEq)]
pub struct HitRateAnalysis {
    /// Per-region statistics (indexed by [`Region::index`]).
    pub per_region: [HitRateStats; 4],
    /// Pooled statistics.
    pub overall: HitRateStats,
    /// CCDF of hit messages per query: `(x = hits, y = P[hits > x])`.
    pub hits_ccdf: Option<Series>,
    /// Spearman correlation between a session's query count and its
    /// answered fraction (sessions with ≥ 1 query). `None` with too few
    /// active sessions.
    pub rate_vs_query_count: Option<f64>,
}

/// Attribute QUERYHITs to one-hop queries by GUID and characterize.
///
/// Two projected passes over the trace: KIND/GUID/HIT tallies the hits
/// per GUID, then KIND/HOPS/GUID/SESSION visits the one-hop queries.
pub fn hit_rate(trace: &Trace, db: &GeoDb) -> HitRateAnalysis {
    let query = MsgKind::Query as u8;
    let query_hit = MsgKind::QueryHit as u8;

    // Hits per query GUID: (hit messages, result records).
    let mut hits: HashMap<Guid, (u64, u64), BuildHasherDefault<RandomKeyHasher>> =
        HashMap::default();
    let sections = Sections::KIND | Sections::GUID | Sections::HIT;
    trace.messages.for_each_batch(sections, |b| {
        for i in 0..b.rows() {
            if b.kind[i] == query_hit {
                let e = hits.entry(b.guid[i]).or_insert((0, 0));
                e.0 += 1;
                e.1 += u64::from(b.hit_results[b.arg[i] as usize]);
            }
        }
    });

    // Region per connection, resolved once; queries on a session without
    // a connection record count as `Other`.
    let regions: Vec<Region> = trace
        .connections
        .iter()
        .map(|c| db.lookup(c.addr))
        .collect();
    let mut per_region = [HitRateStats::default(); 4];
    let mut overall = HitRateStats::default();
    let mut hit_counts: Vec<f64> = Vec::new();
    // Per dense session id: (queries, answered).
    let mut per_session: Vec<(u64, u64)> = vec![(0, 0); regions.len()];

    let sections = Sections::KIND | Sections::HOPS | Sections::GUID | Sections::SESSION;
    trace.messages.for_each_batch(sections, |b| {
        for i in 0..b.rows() {
            if b.kind[i] != query || b.hops[i] != 1 {
                continue;
            }
            let session = b.session[i] as usize;
            let region = regions.get(session).copied().unwrap_or(Region::Other);
            let (h, r) = hits.get(&b.guid[i]).copied().unwrap_or((0, 0));
            for stats in [&mut per_region[region.index()], &mut overall] {
                stats.queries += 1;
                stats.hit_messages += h;
                stats.results += r;
                if h > 0 {
                    stats.answered += 1;
                }
            }
            hit_counts.push(h as f64);
            if session >= per_session.len() {
                per_session.resize(session + 1, (0, 0));
            }
            let s = &mut per_session[session];
            s.0 += 1;
            if h > 0 {
                s.1 += 1;
            }
        }
    });

    let hits_ccdf = Ecdf::new(hit_counts).ok().map(|e| e.ccdf_series_exact());

    // Correlation: session query count vs answered fraction, in session
    // id order.
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (q, a) in per_session {
        if q > 0 {
            xs.push(q as f64);
            ys.push(a as f64 / q as f64);
        }
    }
    let rate_vs_query_count = if xs.len() >= 30 {
        spearman(&xs, &ys).ok()
    } else {
        None
    };

    HitRateAnalysis {
        per_region,
        overall,
        hits_ccdf,
        rate_vs_query_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimTime;
    use std::net::Ipv4Addr;
    use trace::{ConnectionRecord, MessageRecord, RecordedPayload, SessionId};

    fn guid(n: u8) -> Guid {
        Guid([n; 16])
    }

    fn trace_with_hits() -> Trace {
        let mut t = Trace::new();
        for (i, octet) in [(0u64, 24u8), (1, 82)] {
            t.connections.push(ConnectionRecord {
                id: SessionId(i),
                addr: Ipv4Addr::new(octet, 0, 0, 1),
                user_agent: "X".into(),
                ultrapeer: false,
                start: SimTime::from_secs(0),
                end: Some(SimTime::from_secs(500)),
                closed_by_probe: false,
            });
        }
        let q = |sid: u64, g: u8, at: u64| MessageRecord {
            session: SessionId(sid),
            guid: guid(g),
            at: SimTime::from_secs(at),
            hops: 1,
            ttl: 6,
            payload: RecordedPayload::Query {
                text: format!("query {g}").into(),
                sha1: false,
            },
        };
        let hit = |sid: u64, g: u8, at: u64, results: u8| MessageRecord {
            session: SessionId(sid),
            guid: guid(g),
            at: SimTime::from_secs(at),
            hops: 2,
            ttl: 5,
            payload: RecordedPayload::QueryHit {
                addr: Ipv4Addr::new(66, 1, 2, 3),
                results,
            },
        };
        // NA session 0: query 1 gets 2 hits (3 + 1 results); query 2 gets none.
        t.messages.push(q(0, 1, 10));
        t.messages.push(hit(1, 1, 12, 3));
        t.messages.push(hit(1, 1, 13, 1));
        t.messages.push(q(0, 2, 40));
        // EU session 1: query 3 gets one hit.
        t.messages.push(q(1, 3, 20));
        t.messages.push(hit(0, 3, 25, 2));
        t
    }

    #[test]
    fn attributes_hits_by_guid() {
        let a = hit_rate(&trace_with_hits(), &GeoDb::synthetic());
        assert_eq!(a.overall.queries, 3);
        assert_eq!(a.overall.answered, 2);
        assert_eq!(a.overall.hit_messages, 3);
        assert_eq!(a.overall.results, 6);
        assert!((a.overall.answer_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((a.overall.hits_per_query() - 1.0).abs() < 1e-12);

        let na = a.per_region[Region::NorthAmerica.index()];
        assert_eq!(na.queries, 2);
        assert_eq!(na.answered, 1);
        let eu = a.per_region[Region::Europe.index()];
        assert_eq!(eu.queries, 1);
        assert_eq!(eu.answered, 1);
    }

    #[test]
    fn ccdf_reflects_hit_counts() {
        let a = hit_rate(&trace_with_hits(), &GeoDb::synthetic());
        let ccdf = a.hits_ccdf.unwrap();
        // Hit counts: [2, 0, 1] → P[hits > 0] = 2/3.
        assert!((ccdf.interpolate(0.0).unwrap() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(ccdf.interpolate(2.0), Some(0.0));
    }

    #[test]
    fn empty_trace_is_fine() {
        let a = hit_rate(&Trace::new(), &GeoDb::synthetic());
        assert_eq!(a.overall.queries, 0);
        assert_eq!(a.overall.answer_rate(), 0.0);
        assert!(a.hits_ccdf.is_none());
        assert!(a.rate_vs_query_count.is_none());
    }
}

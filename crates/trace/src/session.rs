//! Session reconstruction.
//!
//! The unit of analysis in §4 is the *connected session*: everything
//! between handshake completion and connection teardown on one direct
//! connection. [`Sessions::from_trace`] groups the message stream by
//! session and extracts the hop-1 queries — the queries generated by the
//! directly connected peer itself (§3.2).

use crate::chunk::Sections;
use crate::record::SessionId;
use crate::store::{MsgKind, Trace};
use gnutella::QueryId;
use serde::{Deserialize, Serialize};
use simnet::{SimDuration, SimTime};
use std::net::Ipv4Addr;

/// One observed query from a one-hop peer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryObs {
    /// Arrival time at the measurement peer.
    pub at: SimTime,
    /// Interned query text.
    pub text: QueryId,
    /// Whether the message carried a SHA1 extension.
    pub sha1: bool,
}

/// A reconstructed connected session.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionView {
    /// Session identifier.
    pub id: SessionId,
    /// Remote address.
    pub addr: Ipv4Addr,
    /// Client `User-Agent`.
    pub user_agent: String,
    /// Ultrapeer-mode connection.
    pub ultrapeer: bool,
    /// Session start (handshake completion).
    pub start: SimTime,
    /// Session end, if observed.
    pub end: Option<SimTime>,
    /// Ended via the idle-probe timeout.
    pub closed_by_probe: bool,
    /// The peer's own (hop-1) queries, in arrival order.
    pub queries: Vec<QueryObs>,
}

impl SessionView {
    /// Connected session duration (None while open).
    pub fn duration(&self) -> Option<SimDuration> {
        self.end.map(|e| e.since(self.start))
    }

    /// Measurement-local hour in which the session started.
    pub fn start_hour(&self) -> u32 {
        self.start.hour_of_day()
    }

    /// True when the session issued no queries at all (raw passivity —
    /// the paper's passive/active split is applied after filtering).
    pub fn is_raw_passive(&self) -> bool {
        self.queries.is_empty()
    }
}

/// All reconstructed sessions of a trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Sessions {
    /// Session views, indexed by [`SessionId`].
    pub views: Vec<SessionView>,
}

impl Sessions {
    /// Group a trace into per-session views, each holding its hop-1
    /// queries in arrival order. Messages whose session has no connection
    /// record are ignored.
    pub fn from_trace(trace: &Trace) -> Sessions {
        let mut views: Vec<SessionView> = trace
            .connections
            .iter()
            .map(|c| SessionView {
                id: c.id,
                addr: c.addr,
                user_agent: c.user_agent.clone(),
                ultrapeer: c.ultrapeer,
                start: c.start,
                end: c.end,
                closed_by_probe: c.closed_by_probe,
                queries: Vec::new(),
            })
            .collect();
        // One columnar pass over the AT/SESSION/KIND/HOPS/QUERY sections
        // (TTL, GUID, wire lengths and the PONG/HIT side tables are skipped
        // unread); the query cell of a row is found through `arg`, as in
        // the report kernels.
        let sections =
            Sections::AT | Sections::SESSION | Sections::KIND | Sections::HOPS | Sections::QUERY;
        let query = MsgKind::Query as u8;
        trace.messages.for_each_batch(sections, |b| {
            for (i, (&k, &h)) in b.kind.iter().zip(&b.hops).enumerate() {
                if k != query || h != 1 {
                    continue;
                }
                if let Some(v) = views.get_mut(b.session[i] as usize) {
                    let q = b.arg[i] as usize;
                    v.queries.push(QueryObs {
                        at: SimTime::from_millis(b.at_ms[i]),
                        text: QueryId::from_raw(b.query_id[q]),
                        sha1: b.query_sha1[q],
                    });
                }
            }
        });
        Sessions { views }
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True when the trace had no connections.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Iterate sessions.
    pub fn iter(&self) -> impl Iterator<Item = &SessionView> {
        self.views.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ConnectionRecord, MessageRecord, RecordedPayload};

    fn test_guid() -> gnutella::Guid {
        gnutella::Guid([7; 16])
    }

    fn trace_with_queries() -> Trace {
        let mut t = Trace::new();
        for i in 0..2u64 {
            t.connections.push(ConnectionRecord {
                id: SessionId(i),
                addr: Ipv4Addr::new(24, 0, 0, 1 + i as u8),
                user_agent: "X".into(),
                ultrapeer: false,
                start: SimTime::from_secs(i * 10),
                end: Some(SimTime::from_secs(i * 10 + 300)),
                closed_by_probe: false,
            });
        }
        // Session 0: two own queries + one relayed (hops 3) + a ping.
        t.messages.push(MessageRecord {
            session: SessionId(0),
            guid: test_guid(),
            at: SimTime::from_secs(40),
            hops: 1,
            ttl: 6,
            payload: RecordedPayload::Query {
                text: "own one".into(),
                sha1: false,
            },
        });
        t.messages.push(MessageRecord {
            session: SessionId(0),
            guid: test_guid(),
            at: SimTime::from_secs(80),
            hops: 3,
            ttl: 4,
            payload: RecordedPayload::Query {
                text: "relayed".into(),
                sha1: false,
            },
        });
        t.messages.push(MessageRecord {
            session: SessionId(0),
            guid: test_guid(),
            at: SimTime::from_secs(90),
            hops: 1,
            ttl: 6,
            payload: RecordedPayload::Query {
                text: "own two".into(),
                sha1: true,
            },
        });
        t.messages.push(MessageRecord {
            session: SessionId(0),
            guid: test_guid(),
            at: SimTime::from_secs(95),
            hops: 1,
            ttl: 1,
            payload: RecordedPayload::Ping,
        });
        t
    }

    #[test]
    fn groups_only_hop1_queries() {
        let s = Sessions::from_trace(&trace_with_queries());
        assert_eq!(s.len(), 2);
        let v0 = &s.views[0];
        assert_eq!(v0.queries.len(), 2);
        assert_eq!(v0.queries[0].text, "own one");
        assert!(v0.queries[1].sha1);
        assert!(!v0.is_raw_passive());
        // Session 1 got nothing.
        let v1 = &s.views[1];
        assert!(v1.is_raw_passive());
        assert_eq!(v1.duration(), Some(SimDuration::from_secs(300)));
    }

    #[test]
    fn start_hour() {
        let s = Sessions::from_trace(&trace_with_queries());
        assert_eq!(s.views[0].start_hour(), 0);
        let mut t = trace_with_queries();
        t.connections[0].start = SimTime::from_secs(13 * 3600 + 120);
        let s = Sessions::from_trace(&t);
        assert_eq!(s.views[0].start_hour(), 13);
    }
}

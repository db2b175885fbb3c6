//! The retained-mode analysis entry point the perf harnesses and the
//! experiment context call.
//!
//! [`analyze_retained`] is the paper's pipeline over a materialized
//! trace, nothing more: [`apply_filters`] (session reconstruction from
//! the hop-1 queries, §3.2, then filter rules 1–5, §3.3) followed by
//! [`DailyObservations::collect`] (§4.6). It owns no scan of its own —
//! [`trace::Sessions::from_trace`] is the one place hop-1 queries are
//! grouped out of the store.

use crate::filter::{apply_filters, FilteredTrace};
use crate::popularity::DailyObservations;
use geoip::GeoDb;
use trace::Trace;

/// The products of one retained-mode analysis.
#[derive(Debug, Clone)]
pub struct RetainedAnalysis {
    /// Rules 1–5 applied: surviving sessions plus the Table 2 report.
    pub ft: FilteredTrace,
    /// Per-day popularity observations (§4.6) over the same sessions.
    pub obs: DailyObservations,
}

/// Filter a materialized trace and collect its popularity observations.
pub fn analyze_retained(trace: &Trace, db: &GeoDb) -> RetainedAnalysis {
    telemetry::scope!("analysis/retained");
    let ft = apply_filters(trace, db);
    let obs = DailyObservations::collect(&ft);
    RetainedAnalysis { ft, obs }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unfinished sessions are counted, not filtered.
    #[test]
    fn open_sessions_count_as_unfinished() {
        let mut trace = Trace::new();
        trace.connections.push(trace::ConnectionRecord {
            id: trace::SessionId(0),
            addr: std::net::Ipv4Addr::new(24, 0, 0, 1),
            user_agent: "T/1".into(),
            ultrapeer: false,
            start: simnet::SimTime::from_secs(0),
            end: None,
            closed_by_probe: false,
        });
        let r = analyze_retained(&trace, &GeoDb::synthetic());
        assert_eq!(r.ft.report.unfinished_sessions, 1);
        assert_eq!(r.ft.report.raw_sessions, 0);
        assert!(r.ft.sessions.is_empty());
        assert_eq!(r.obs.n_days(), 0);
    }
}

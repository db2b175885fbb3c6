//! One-hop representativeness checks (§3.4, Figures 1 and 2).
//!
//! The paper compares the one-hop peer population against "all peers" —
//! the peers advertised in PONG and QUERYHIT messages flowing through the
//! node — along two axes: geographic mix by hour (Figure 1) and
//! shared-file counts (Figure 2).
//!
//! One implementation choice: the measurement peer also receives hop-1
//! PONGs from its direct neighbors (probe responses); we use hops ≥ 2
//! PONG/QUERYHIT addresses for the "all peers" population so the two
//! curves are independent observations, and hop-1 PONGs for the one-hop
//! shared-files curve.

use geoip::{GeoDb, Region};
use simnet::SimTime;
use stats::histogram::Histogram;
use stats::Series;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use trace::{MsgKind, Sections, Trace};

/// Hasher for the `u32`-keyed address maps below: one multiply per key,
/// folded so that every address bit reaches both the low bits the map
/// picks a bucket with and the high bits it tags slots with. (XOR-folding,
/// as `gnutella::routing::RandomKeyHasher` does for 16-byte GUIDs, would
/// leave the high 32 bits of a 4-byte key zero and give every address
/// the same tag.)
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0 ^ u64::from(v)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// First advertised shared-file count per address (`u32` form).
type AddrMap = HashMap<u32, u32, BuildHasherDefault<AddrHasher>>;

/// One Figure 1 panel: one-hop vs all-peers fraction per hour for a region.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoPanel {
    /// Fraction of one-hop peers from the region, by hour.
    pub one_hop: Series,
    /// Fraction of all (remote) peers from the region, by hour.
    pub all_peers: Series,
}

/// Compute the Figure 1 panels for all characterized regions.
pub fn geo_representativeness(trace: &Trace, db: &GeoDb) -> Vec<(Region, GeoPanel)> {
    // One-hop: connections by (hour, region).
    let mut one_hop = [[0u64; 24]; 4];
    for c in &trace.connections {
        let h = c.start.hour_of_day() as usize;
        one_hop[db.lookup(c.addr).index()][h] += 1;
    }
    // All peers: hops ≥ 2 PONG / QUERYHIT addresses by (hour, region).
    let mut all = [[0u64; 24]; 4];
    let sections = Sections::AT | Sections::KIND | Sections::HOPS | Sections::PONG | Sections::HIT;
    trace.messages.for_each_batch(sections, |b| {
        for i in 0..b.rows() {
            if b.hops[i] < 2 {
                continue;
            }
            let arg = b.arg[i] as usize;
            let addr = match MsgKind::from_u8(b.kind[i]) {
                MsgKind::Pong => b.pong_addr[arg],
                MsgKind::QueryHit => b.hit_addr[arg],
                _ => continue,
            };
            let h = SimTime::from_millis(b.at_ms[i]).hour_of_day() as usize;
            all[db.lookup(addr).index()][h] += 1;
        }
    });
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
            (
                r,
                GeoPanel {
                    one_hop: Series::labeled("1-hop Peers", hours.clone(), fraction(&one_hop, r)),
                    all_peers: Series::labeled("All Peers", hours.clone(), fraction(&all, r)),
                },
            )
        })
        .collect()
}

/// Figure 2: fraction of peers advertising each shared-file count
/// (0–100), one-hop vs all peers.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedFilesPanel {
    /// One-hop peers (first hop-1 PONG per connection address).
    pub one_hop: Series,
    /// All peers (hops ≥ 2 PONGs, deduplicated by advertised address).
    pub all_peers: Series,
}

/// Compute the Figure 2 comparison.
pub fn shared_files_representativeness(trace: &Trace) -> SharedFilesPanel {
    let mut one_hop_seen = AddrMap::default();
    let mut all_seen = AddrMap::default();
    let sections = Sections::KIND | Sections::HOPS | Sections::PONG;
    trace.messages.for_each_batch(sections, |b| {
        for i in 0..b.rows() {
            if b.kind[i] != MsgKind::Pong as u8 {
                continue;
            }
            let seen = if b.hops[i] == 1 {
                &mut one_hop_seen
            } else {
                &mut all_seen
            };
            let arg = b.arg[i] as usize;
            seen.entry(u32::from(b.pong_addr[arg]))
                .or_insert(b.pong_files[arg]);
        }
    });
    let to_series = |map: &AddrMap, label: &str| -> Series {
        let mut h = Histogram::new(0.0, 101.0, 101).expect("valid histogram");
        for &files in map.values() {
            h.add(f64::from(files.min(200)));
        }
        let mut s = h.fraction_series();
        // Bin centers land on k + 0.5; shift to integer file counts.
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        let ys = s.ys().to_vec();
        s = Series::labeled(label, xs, ys);
        s
    };
    SharedFilesPanel {
        one_hop: to_series(&one_hop_seen, "1-hop Peers"),
        all_peers: to_series(&all_seen, "All Peers"),
    }
}

/// Mean absolute difference between one-hop and all-peers fractions — the
/// §3.4 representativeness score (small ⇒ one-hop peers representative).
pub fn geo_divergence(panel: &GeoPanel) -> f64 {
    let n = panel.one_hop.len().min(panel.all_peers.len());
    if n == 0 {
        return 0.0;
    }
    (0..n)
        .map(|i| (panel.one_hop.ys()[i] - panel.all_peers.ys()[i]).abs())
        .sum::<f64>()
        / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimTime;
    use std::net::Ipv4Addr;
    use trace::{ConnectionRecord, MessageRecord, RecordedPayload, SessionId};

    fn test_guid() -> gnutella::Guid {
        gnutella::Guid([7; 16])
    }

    fn trace_with_mix() -> Trace {
        let mut t = Trace::new();
        // 3 NA + 1 EU connections at hour 2.
        for (i, first_octet) in [24u8, 63, 66, 82].iter().enumerate() {
            t.connections.push(ConnectionRecord {
                id: SessionId(i as u64),
                addr: Ipv4Addr::new(*first_octet, 1, 1, 1),
                user_agent: "X".into(),
                ultrapeer: false,
                start: SimTime::from_secs(2 * 3600 + i as u64),
                end: Some(SimTime::from_secs(2 * 3600 + 100)),
                closed_by_probe: false,
            });
        }
        // Remote pongs at hour 2: 2 NA, 2 EU.
        for (i, first_octet) in [24u8, 66, 82, 91].iter().enumerate() {
            t.messages.push(MessageRecord {
                session: SessionId(0),
                guid: test_guid(),
                at: SimTime::from_secs(2 * 3600 + 10 + i as u64),
                hops: 3,
                ttl: 3,
                payload: RecordedPayload::Pong {
                    addr: Ipv4Addr::new(*first_octet, 2, 2, 2),
                    shared_files: 10 * (i as u32 + 1),
                },
            });
        }
        // A hop-1 pong (probe response) from the first connection.
        t.messages.push(MessageRecord {
            session: SessionId(0),
            guid: test_guid(),
            at: SimTime::from_secs(2 * 3600 + 50),
            hops: 1,
            ttl: 6,
            payload: RecordedPayload::Pong {
                addr: Ipv4Addr::new(24, 1, 1, 1),
                shared_files: 7,
            },
        });
        t
    }

    #[test]
    fn geo_fractions() {
        let t = trace_with_mix();
        let db = GeoDb::synthetic();
        let panels = geo_representativeness(&t, &db);
        let (region, na) = &panels[0];
        assert_eq!(*region, Region::NorthAmerica);
        // Hour 2: one-hop NA fraction = 3/4; all-peers NA fraction = 2/4.
        assert!((na.one_hop.ys()[2] - 0.75).abs() < 1e-12);
        assert!((na.all_peers.ys()[2] - 0.50).abs() < 1e-12);
        // Hours without data are zero.
        assert_eq!(na.one_hop.ys()[10], 0.0);
        let d = geo_divergence(na);
        assert!(d > 0.0 && d < 0.02);
    }

    #[test]
    fn shared_files_split_by_hops() {
        let t = trace_with_mix();
        let p = shared_files_representativeness(&t);
        // One-hop: a single peer with 7 files.
        assert!((p.one_hop.ys()[7] - 1.0).abs() < 1e-12);
        // All peers: 4 peers with 10, 20, 30, 40.
        assert!((p.all_peers.ys()[10] - 0.25).abs() < 1e-12);
        assert!((p.all_peers.ys()[40] - 0.25).abs() < 1e-12);
        assert_eq!(p.all_peers.ys()[7], 0.0);
        assert_eq!(p.one_hop.xs().len(), 101);
    }

    #[test]
    fn empty_trace_is_fine() {
        let t = Trace::new();
        let db = GeoDb::synthetic();
        let panels = geo_representativeness(&t, &db);
        assert_eq!(panels.len(), 3);
        let p = shared_files_representativeness(&t);
        assert_eq!(p.one_hop.ys().iter().sum::<f64>(), 0.0);
    }
}

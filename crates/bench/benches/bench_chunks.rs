//! Chunk codec throughput: column encode/decode in bytes/s, whole-chunk
//! seal and decode in records/s.
//!
//! The column benches hit the two hot codecs directly — frame-of-
//! reference bit-packing of the millisecond timestamps and of the
//! interned QueryId dictionary codes. The record benches go through
//! [`trace::MessageColumns`]: `seal` pushes one full chunk of a
//! realistic message mix (sealing included), `decode` replays a sealed
//! store batch-at-a-time, the same path the vectorized analysis kernels
//! use, once with every section and once per projection the kernels
//! ask for.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use gnutella::{Guid, QueryId};
use simnet::SimTime;
use std::net::Ipv4Addr;
use trace::chunk::{decode_id_column, decode_time_column, encode_id_column, encode_time_column};
use trace::{MessageColumns, MessageRecord, RecordedPayload, Sections, SessionId, CHUNK_ROWS};

/// Arrival-ordered millisecond timestamps with sub-second jitter — the
/// shape a real campaign produces (FOR width lands around 20 bits).
fn timestamps() -> Vec<u64> {
    (0..CHUNK_ROWS as u64)
        .map(|i| 86_400_000 + i * 37 + (i.wrapping_mul(2_654_435_761) % 900))
        .collect()
}

/// Dictionary codes drawn from a ~60k-entry interner.
fn query_ids() -> Vec<u32> {
    (0..CHUNK_ROWS as u32)
        .map(|i| i.wrapping_mul(2_654_435_761) % 60_000)
        .collect()
}

/// One chunk of the campaign message mix (all five kinds, collector-
/// style GUIDs so the elided encoding applies).
fn record_mix() -> (Vec<MessageRecord>, Vec<u32>) {
    let keys: Vec<QueryId> = (0..512)
        .map(|i| format!("song number {i}").as_str().into())
        .collect();
    let mut guid = [0u8; 16];
    guid[8] = 0xFF;
    let records: Vec<MessageRecord> = (0..CHUNK_ROWS)
        .map(|i| {
            guid[0] = i as u8;
            guid[1] = (i >> 8) as u8;
            let payload = match i % 5 {
                0 => RecordedPayload::Ping,
                1 => RecordedPayload::Pong {
                    addr: Ipv4Addr::new(24, 1, (i % 251) as u8, 7),
                    shared_files: (i * 37 % 10_000) as u32,
                },
                2 => RecordedPayload::Query {
                    text: keys[i % keys.len()],
                    sha1: i % 7 == 0,
                },
                3 => RecordedPayload::QueryHit {
                    addr: Ipv4Addr::new(82, 2, (i % 251) as u8, 4),
                    results: (i % 50) as u8,
                },
                _ => RecordedPayload::Bye,
            };
            MessageRecord {
                session: SessionId((i / 40) as u64),
                guid: Guid(guid),
                at: SimTime::from_millis(86_400_000 + i as u64 * 37),
                hops: (i % 8) as u8,
                ttl: (7 - i % 8) as u8,
                payload,
            }
        })
        .collect();
    let wire_lens: Vec<u32> = (0..CHUNK_ROWS).map(|i| 23 + (i % 90) as u32).collect();
    (records, wire_lens)
}

fn bench_columns(c: &mut Criterion) {
    let ts = timestamps();
    let mut ts_enc = Vec::new();
    encode_time_column(&ts, &mut ts_enc);

    let mut group = c.benchmark_group("chunk_ts");
    group.throughput(Throughput::Bytes((CHUNK_ROWS * 8) as u64));
    group.bench_function("encode_64k", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            encode_time_column(black_box(&ts), &mut out);
            black_box(out.len())
        })
    });
    group.bench_function("decode_64k", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            decode_time_column(black_box(&ts_enc), CHUNK_ROWS, &mut out);
            black_box(out.len())
        })
    });
    group.finish();

    let ids = query_ids();
    let mut id_enc = Vec::new();
    encode_id_column(&ids, &mut id_enc);

    let mut group = c.benchmark_group("chunk_qid");
    group.throughput(Throughput::Bytes((CHUNK_ROWS * 4) as u64));
    group.bench_function("encode_64k", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            encode_id_column(black_box(&ids), &mut out);
            black_box(out.len())
        })
    });
    group.bench_function("decode_64k", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            decode_id_column(black_box(&id_enc), CHUNK_ROWS, &mut out);
            black_box(out.len())
        })
    });
    group.finish();
}

fn bench_records(c: &mut Criterion) {
    let (records, wire_lens) = record_mix();

    let mut group = c.benchmark_group("chunk_records");
    group.throughput(Throughput::Elements(CHUNK_ROWS as u64));
    group.bench_function("seal_64k", |b| {
        b.iter(|| {
            let mut cols = MessageColumns::with_capacity(CHUNK_ROWS);
            cols.push_batch(&records, &wire_lens);
            black_box(cols.sealed_chunks())
        })
    });

    let mut sealed = MessageColumns::with_capacity(CHUNK_ROWS);
    sealed.push_batch(&records, &wire_lens);
    assert_eq!(sealed.sealed_chunks(), 1, "mix must seal exactly one chunk");
    // Full decode, then the projections the analysis kernels use: the
    // gap between `decode_64k` and `decode_kind_hops_64k` is what the
    // skipped sections cost, and `decode_kind_hops_pong_64k` adds the
    // PONG side table plus the `arg` rebuild that indexes it.
    for (name, sections) in [
        ("decode_64k", Sections::ALL),
        ("decode_kind_hops_64k", Sections::KIND | Sections::HOPS),
        (
            "decode_kind_hops_pong_64k",
            Sections::KIND | Sections::HOPS | Sections::PONG,
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut hops = 0u64;
                sealed.for_each_batch(black_box(sections), |batch| {
                    hops += batch.hops.iter().map(|&h| u64::from(h)).sum::<u64>();
                    hops += batch.arg.last().copied().map_or(0, u64::from);
                });
                black_box(hops)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_columns, bench_records);
criterion_main!(benches);

//! In-memory trace store with JSONL (de)serialization.
//!
//! Messages live in [`MessageColumns`]: an uncompressed columnar
//! (structure-of-arrays) *tail* that absorbs appends, sealed into
//! immutable per-column-compressed chunks of [`CHUNK_ROWS`] rows as it
//! fills (see [`crate::chunk`] for the codec: frame-of-reference
//! bit-packed timestamps/session ids/wire lengths, dictionary-coded
//! `QueryId`s against the process-global interner, bit-packed
//! kinds/hops/TTL, entropy-elided GUIDs). A row costs ~39 bytes flat
//! and ~20–24 bytes sealed; with `P2PQ_TRACE_SPILL=dir` set, sealed
//! chunks are written to an (unlinked) spill file and re-read on
//! demand, so a paper-scale retained trace holds only the tail, the
//! chunk directory, and one decoded batch in memory.
//!
//! The public API stays record-shaped: [`MessageColumns::push`] takes a
//! [`MessageRecord`], iteration yields [`MessageRecord`]s by value
//! (everything in a record is `Copy`), and serde round-trips through the
//! record form so the JSONL interchange format is byte-identical to the
//! row-oriented store. There are exactly two ways to read sealed rows,
//! both through [`chunk::decode_chunk`]: analysis passes that want the
//! columnar layout iterate decoded batches of just the sections they
//! read via [`MessageColumns::for_each_batch`] (session reconstruction
//! and the report kernels), and sequential consumers (export, replay)
//! use [`MessageColumns::cursor`], which decodes each chunk exactly once
//! into its own scratch buffer. There is no random access. The shard
//! merge ([`Trace::merge_shards`]) consumes its sources instead of
//! borrowing them: it frees each source chunk as it decodes it, so the
//! process holds one copy of the trace while it merges.

use crate::chunk::{self, ChunkBatch, Sections, SpillFile};
use crate::record::{ConnectionRecord, MessageRecord, RecordedPayload, SessionId};
use crate::stats::TraceStats;
use gnutella::{Guid, QueryId};
use serde::{Deserialize, Serialize};
use simnet::SimTime;
use std::io::{self, BufRead, Write};
use std::net::Ipv4Addr;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;
use telemetry::{Counter, Gauge};

/// Rows per sealed chunk. A power of two that is a whole multiple of the
/// collector's 8k drain batches, so seals land on drain boundaries; at
/// ~39 bytes of flat column data per row a chunk encodes ~2.5 MB of
/// input at a time.
pub const CHUNK_ROWS: usize = 65_536;

/// Discriminant column value: which payload a row carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgKind {
    /// PING keepalive.
    Ping = 0,
    /// PONG advertisement (side table: address + shared files).
    Pong = 1,
    /// QUERY (side table: interned text + SHA1 flag).
    Query = 2,
    /// QUERYHIT (side table: responder address + result count).
    QueryHit = 3,
    /// BYE.
    Bye = 4,
}

impl MsgKind {
    /// Inverse of `kind as u8` (panics on an invalid discriminant —
    /// chunk bytes are only ever produced by this process).
    pub fn from_u8(v: u8) -> MsgKind {
        match v {
            0 => MsgKind::Ping,
            1 => MsgKind::Pong,
            2 => MsgKind::Query,
            3 => MsgKind::QueryHit,
            4 => MsgKind::Bye,
            other => panic!("invalid MsgKind discriminant {other}"),
        }
    }
}

/// The uncompressed columnar tail: plain parallel vectors, append-only,
/// drained into a sealed chunk when it reaches the chunk size. This is
/// the old flat SoA layout; payload side tables are kept as separate
/// parallel vectors per field so sealing can hand the codec borrowed
/// column slices directly.
#[derive(Debug, Clone, Default)]
struct FlatColumns {
    session: Vec<u32>,
    guid: Vec<Guid>,
    at: Vec<SimTime>,
    hops: Vec<u8>,
    ttl: Vec<u8>,
    kind: Vec<MsgKind>,
    arg: Vec<u32>,
    wire_len: Vec<u32>,
    pong_addr: Vec<Ipv4Addr>,
    pong_files: Vec<u32>,
    query_id: Vec<u32>,
    query_sha1: Vec<bool>,
    hit_addr: Vec<Ipv4Addr>,
    hit_results: Vec<u8>,
}

impl FlatColumns {
    fn len(&self) -> usize {
        self.at.len()
    }

    fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    fn reserve(&mut self, n: usize) {
        self.session.reserve(n);
        self.guid.reserve(n);
        self.at.reserve(n);
        self.hops.reserve(n);
        self.ttl.reserve(n);
        self.kind.reserve(n);
        self.arg.reserve(n);
        self.wire_len.reserve(n);
    }

    fn push_with_wire(&mut self, rec: MessageRecord, wire: u32) {
        let arg = match rec.payload {
            RecordedPayload::Ping | RecordedPayload::Bye => 0,
            RecordedPayload::Pong { addr, shared_files } => {
                self.pong_addr.push(addr);
                self.pong_files.push(shared_files);
                (self.pong_addr.len() - 1) as u32
            }
            RecordedPayload::Query { text, sha1 } => {
                self.query_id.push(text.raw());
                self.query_sha1.push(sha1);
                (self.query_id.len() - 1) as u32
            }
            RecordedPayload::QueryHit { addr, results } => {
                self.hit_addr.push(addr);
                self.hit_results.push(results);
                (self.hit_addr.len() - 1) as u32
            }
        };
        self.session
            .push(u32::try_from(rec.session.0).expect("session id exceeds u32 range"));
        self.guid.push(rec.guid);
        self.at.push(rec.at);
        self.hops.push(rec.hops);
        self.ttl.push(rec.ttl);
        self.kind.push(kind_of(&rec.payload));
        self.arg.push(arg);
        self.wire_len.push(wire);
    }

    /// Columnar batch append: one sequential pass fills the per-kind
    /// side tables plus the data-dependent `kind`/`arg` columns, then
    /// the six remaining columns extend in bulk — one reserve + bounds
    /// check per column per batch instead of eight `push` calls per
    /// record. Produces byte-identical columns to repeated
    /// [`FlatColumns::push_with_wire`] calls: side-table rows are
    /// appended in record order, so every `arg` index is unchanged.
    fn extend_batch(&mut self, records: &[MessageRecord], wire_lens: &[u32]) {
        debug_assert_eq!(records.len(), wire_lens.len());
        self.reserve(records.len());
        for rec in records {
            let arg = match rec.payload {
                RecordedPayload::Ping | RecordedPayload::Bye => 0,
                RecordedPayload::Pong { addr, shared_files } => {
                    self.pong_addr.push(addr);
                    self.pong_files.push(shared_files);
                    (self.pong_addr.len() - 1) as u32
                }
                RecordedPayload::Query { text, sha1 } => {
                    self.query_id.push(text.raw());
                    self.query_sha1.push(sha1);
                    (self.query_id.len() - 1) as u32
                }
                RecordedPayload::QueryHit { addr, results } => {
                    self.hit_addr.push(addr);
                    self.hit_results.push(results);
                    (self.hit_addr.len() - 1) as u32
                }
            };
            self.kind.push(kind_of(&rec.payload));
            self.arg.push(arg);
        }
        self.session.extend(
            records
                .iter()
                .map(|r| u32::try_from(r.session.0).expect("session id exceeds u32 range")),
        );
        self.guid.extend(records.iter().map(|r| r.guid));
        self.at.extend(records.iter().map(|r| r.at));
        self.hops.extend(records.iter().map(|r| r.hops));
        self.ttl.extend(records.iter().map(|r| r.ttl));
        self.wire_len.extend_from_slice(wire_lens);
    }

    fn get(&self, i: usize) -> MessageRecord {
        let arg = self.arg[i] as usize;
        let payload = match self.kind[i] {
            MsgKind::Ping => RecordedPayload::Ping,
            MsgKind::Bye => RecordedPayload::Bye,
            MsgKind::Pong => RecordedPayload::Pong {
                addr: self.pong_addr[arg],
                shared_files: self.pong_files[arg],
            },
            MsgKind::Query => RecordedPayload::Query {
                text: QueryId::from_raw(self.query_id[arg]),
                sha1: self.query_sha1[arg],
            },
            MsgKind::QueryHit => RecordedPayload::QueryHit {
                addr: self.hit_addr[arg],
                results: self.hit_results[arg],
            },
        };
        MessageRecord {
            session: SessionId(u64::from(self.session[i])),
            guid: self.guid[i],
            at: self.at[i],
            hops: self.hops[i],
            ttl: self.ttl[i],
            payload,
        }
    }

    /// Reset for reuse after sealing, keeping allocations.
    fn clear(&mut self) {
        self.session.clear();
        self.guid.clear();
        self.at.clear();
        self.hops.clear();
        self.ttl.clear();
        self.kind.clear();
        self.arg.clear();
        self.wire_len.clear();
        self.pong_addr.clear();
        self.pong_files.clear();
        self.query_id.clear();
        self.query_sha1.clear();
        self.hit_addr.clear();
        self.hit_results.clear();
    }

    fn shrink_to_fit(&mut self) {
        self.session.shrink_to_fit();
        self.guid.shrink_to_fit();
        self.at.shrink_to_fit();
        self.hops.shrink_to_fit();
        self.ttl.shrink_to_fit();
        self.kind.shrink_to_fit();
        self.arg.shrink_to_fit();
        self.wire_len.shrink_to_fit();
        self.pong_addr.shrink_to_fit();
        self.pong_files.shrink_to_fit();
        self.query_id.shrink_to_fit();
        self.query_sha1.shrink_to_fit();
        self.hit_addr.shrink_to_fit();
        self.hit_results.shrink_to_fit();
    }

    fn as_chunk_source(&self) -> chunk::ChunkSource<'_> {
        chunk::ChunkSource {
            session: &self.session,
            at: &self.at,
            hops: &self.hops,
            ttl: &self.ttl,
            kind: &self.kind,
            guid: &self.guid,
            wire: &self.wire_len,
            pong_addr: &self.pong_addr,
            pong_files: &self.pong_files,
            query_id: &self.query_id,
            query_sha1: &self.query_sha1,
            hit_addr: &self.hit_addr,
            hit_results: &self.hit_results,
        }
    }

    /// Copy the `sections` columns of this run into a [`ChunkBatch`], so
    /// batch-wise consumers see the tail through the same interface as
    /// sealed chunks (see [`chunk::decode_chunk`] for what each set
    /// fills).
    fn fill_batch(&self, sections: Sections, out: &mut ChunkBatch) {
        out.clear();
        out.set_rows(self.len());
        if sections.contains(Sections::AT) {
            out.at_ms.extend(self.at.iter().map(|t| t.as_millis()));
        }
        if sections.contains(Sections::SESSION) {
            out.session.extend_from_slice(&self.session);
        }
        if sections.contains(Sections::KIND) {
            out.kind.extend(self.kind.iter().map(|&k| k as u8));
        }
        if sections.contains(Sections::HOPS) {
            out.hops.extend_from_slice(&self.hops);
        }
        if sections.contains(Sections::TTL) {
            out.ttl.extend_from_slice(&self.ttl);
        }
        if sections.contains(Sections::GUID) {
            out.guid.extend_from_slice(&self.guid);
        }
        if sections.contains(Sections::WIRE) {
            out.wire.extend_from_slice(&self.wire_len);
        }
        if sections.contains(Sections::PONG) {
            out.pong_addr.extend_from_slice(&self.pong_addr);
            out.pong_files.extend_from_slice(&self.pong_files);
        }
        if sections.contains(Sections::QUERY) {
            out.query_id.extend_from_slice(&self.query_id);
            out.query_sha1.extend_from_slice(&self.query_sha1);
        }
        if sections.contains(Sections::HIT) {
            out.hit_addr.extend_from_slice(&self.hit_addr);
            out.hit_results.extend_from_slice(&self.hit_results);
        }
        if sections.fills_arg() {
            out.arg.extend_from_slice(&self.arg);
        }
    }

    /// Append rows `rows` of a [`Sections::ALL`] batch, mapping each
    /// session id through `remap` (old id → new id). The row columns
    /// are copied in bulk; side-table rows are pushed one at a time in
    /// row order with `arg` re-based onto this tail's tables, so the
    /// columns and their capacities equal those that pushing the same
    /// records through [`FlatColumns::push_with_wire`] would leave.
    fn extend_from_batch(&mut self, b: &ChunkBatch, rows: Range<usize>, remap: &[u64]) {
        for i in rows.clone() {
            let src = b.arg[i] as usize;
            let kind = MsgKind::from_u8(b.kind[i]);
            let arg = match kind {
                MsgKind::Ping | MsgKind::Bye => 0,
                MsgKind::Pong => {
                    self.pong_addr.push(b.pong_addr[src]);
                    self.pong_files.push(b.pong_files[src]);
                    (self.pong_addr.len() - 1) as u32
                }
                MsgKind::Query => {
                    self.query_id.push(b.query_id[src]);
                    self.query_sha1.push(b.query_sha1[src]);
                    (self.query_id.len() - 1) as u32
                }
                MsgKind::QueryHit => {
                    self.hit_addr.push(b.hit_addr[src]);
                    self.hit_results.push(b.hit_results[src]);
                    (self.hit_addr.len() - 1) as u32
                }
            };
            self.kind.push(kind);
            self.arg.push(arg);
        }
        self.session.extend(
            b.session[rows.clone()]
                .iter()
                .map(|&s| u32::try_from(remap[s as usize]).expect("session id exceeds u32 range")),
        );
        self.guid.extend_from_slice(&b.guid[rows.clone()]);
        self.at.extend(
            b.at_ms[rows.clone()]
                .iter()
                .map(|&ms| SimTime::from_millis(ms)),
        );
        self.hops.extend_from_slice(&b.hops[rows.clone()]);
        self.ttl.extend_from_slice(&b.ttl[rows.clone()]);
        self.wire_len.extend_from_slice(&b.wire[rows]);
    }

    /// Bytes of column data currently filled (not capacity) — the "raw"
    /// side of the chunk compression ratio.
    fn filled_bytes(&self) -> u64 {
        fn filled<T>(v: &[T]) -> u64 {
            std::mem::size_of_val(v) as u64
        }
        filled(&self.session)
            + filled(&self.guid)
            + filled(&self.at)
            + filled(&self.hops)
            + filled(&self.ttl)
            + filled(&self.kind)
            + filled(&self.arg)
            + filled(&self.wire_len)
            + filled(&self.pong_addr)
            + filled(&self.pong_files)
            + filled(&self.query_id)
            + filled(&self.query_sha1)
            + filled(&self.hit_addr)
            + filled(&self.hit_results)
    }

    /// Resident bytes, counted at capacity.
    fn mem_bytes(&self) -> u64 {
        fn cap<T>(v: &Vec<T>) -> u64 {
            (v.capacity() * std::mem::size_of::<T>()) as u64
        }
        cap(&self.session)
            + cap(&self.guid)
            + cap(&self.at)
            + cap(&self.hops)
            + cap(&self.ttl)
            + cap(&self.kind)
            + cap(&self.arg)
            + cap(&self.wire_len)
            + cap(&self.pong_addr)
            + cap(&self.pong_files)
            + cap(&self.query_id)
            + cap(&self.query_sha1)
            + cap(&self.hit_addr)
            + cap(&self.hit_results)
    }
}

/// One sealed chunk: encoded bytes in memory, or an extent of the spill
/// file. Every sealed chunk holds exactly `chunk_rows` rows, so row →
/// chunk mapping is a division.
#[derive(Debug, Clone)]
enum SealedChunk {
    Mem(Vec<u8>),
    Spilled { offset: u64, len: u32 },
}

/// Columnar message store: sealed compressed chunks plus a flat tail.
///
/// Rows are addressed by insertion index; the `wire_len` column is
/// in-memory provenance (like [`Trace::wire_bytes`]): it does not
/// survive the JSONL interchange format and does not participate in
/// equality. Spill-to-disk is controlled by the `P2PQ_TRACE_SPILL`
/// environment variable (a directory path) read at construction, or
/// per-store via [`MessageColumns::configure_chunks`].
pub struct MessageColumns {
    chunk_rows: usize,
    sealed: Vec<SealedChunk>,
    /// Rows covered by `sealed` — always `sealed.len() * chunk_rows`.
    rows_sealed: usize,
    tail: FlatColumns,
    spill_dir: Option<PathBuf>,
    /// Lazily created on first seal; shared by clones (extents are
    /// immutable once written, appends take disjoint offsets).
    spill: Option<Arc<SpillFile>>,
    /// Set after an I/O error: stop retrying, keep chunks in memory.
    spill_failed: bool,
    raw_sealed_bytes: u64,
    encoded_sealed_bytes: u64,
    spilled_bytes: u64,
    /// Reusable seal-time scratch (timestamp millis + encode output).
    encode_ms_scratch: Vec<u64>,
    encode_buf: Vec<u8>,
}

impl Default for MessageColumns {
    fn default() -> Self {
        MessageColumns {
            chunk_rows: CHUNK_ROWS,
            sealed: Vec::new(),
            rows_sealed: 0,
            tail: FlatColumns::default(),
            spill_dir: env_spill_dir(),
            spill: None,
            spill_failed: false,
            raw_sealed_bytes: 0,
            encoded_sealed_bytes: 0,
            spilled_bytes: 0,
            encode_ms_scratch: Vec::new(),
            encode_buf: Vec::new(),
        }
    }
}

fn env_spill_dir() -> Option<PathBuf> {
    std::env::var_os("P2PQ_TRACE_SPILL")
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

impl Clone for MessageColumns {
    fn clone(&self) -> Self {
        MessageColumns {
            chunk_rows: self.chunk_rows,
            sealed: self.sealed.clone(),
            rows_sealed: self.rows_sealed,
            tail: self.tail.clone(),
            spill_dir: self.spill_dir.clone(),
            spill: self.spill.clone(),
            spill_failed: self.spill_failed,
            raw_sealed_bytes: self.raw_sealed_bytes,
            encoded_sealed_bytes: self.encoded_sealed_bytes,
            spilled_bytes: self.spilled_bytes,
            encode_ms_scratch: Vec::new(),
            encode_buf: Vec::new(),
        }
    }
}

impl std::fmt::Debug for MessageColumns {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MessageColumns")
            .field("rows", &self.len())
            .field("sealed_chunks", &self.sealed.len())
            .field("chunk_rows", &self.chunk_rows)
            .field("encoded_sealed_bytes", &self.encoded_sealed_bytes)
            .field("spilled_bytes", &self.spilled_bytes)
            .finish()
    }
}

impl PartialEq for MessageColumns {
    fn eq(&self, other: &Self) -> bool {
        // Everything except `wire_len`, which is provenance, not data.
        if self.len() != other.len() {
            return false;
        }
        let mut a = self.cursor();
        let mut b = other.cursor();
        loop {
            match (a.next_with_wire(), b.next_with_wire()) {
                (Some((ra, _)), Some((rb, _))) => {
                    if ra != rb {
                        return false;
                    }
                }
                (None, None) => return true,
                _ => return false,
            }
        }
    }
}

impl MessageColumns {
    /// Empty store.
    pub fn new() -> Self {
        MessageColumns::default()
    }

    /// Empty store pre-reserved for `n` rows: the tail reserves at most
    /// one chunk (rows beyond that live compressed), the chunk directory
    /// reserves one slot per expected chunk. Side tables grow on demand.
    pub fn with_capacity(n: usize) -> Self {
        let mut cols = MessageColumns::default();
        cols.tail.reserve(n.min(cols.chunk_rows));
        cols.sealed.reserve(n / cols.chunk_rows);
        cols
    }

    /// Override chunk size and spill directory (tests and tools). Only
    /// valid on an empty store — sealed chunks are uniform.
    ///
    /// Panics if the store already holds rows or `chunk_rows` is 0.
    pub fn configure_chunks(&mut self, chunk_rows: usize, spill_dir: Option<PathBuf>) {
        assert!(
            self.is_empty() && self.sealed.is_empty(),
            "configure_chunks requires an empty store"
        );
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        self.chunk_rows = chunk_rows;
        self.spill_dir = spill_dir;
        self.spill = None;
        self.spill_failed = false;
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows_sealed + self.tail.len()
    }

    /// True when no rows have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a record with no wire-length accounting.
    pub fn push(&mut self, rec: MessageRecord) {
        self.push_with_wire(rec, 0);
    }

    /// Append a record, keeping `wire` bytes of provenance in the
    /// `wire_len` column. Seals the tail into a compressed chunk when it
    /// reaches the chunk size.
    pub fn push_with_wire(&mut self, rec: MessageRecord, wire: u32) {
        self.tail.push_with_wire(rec, wire);
        if self.tail.len() == self.chunk_rows {
            self.seal_tail();
        }
    }

    /// Append a drained batch (the [`crate::sink::TraceSink`] path).
    ///
    /// Fast path: the batch is split at chunk-seal boundaries and each
    /// segment lands in the typed columns via
    /// [`FlatColumns::extend_batch`] — one reserve + bounds check per
    /// column per segment instead of eight per-record `push` calls.
    /// Sealing semantics are identical to the per-record path: the tail
    /// seals exactly when it reaches `chunk_rows`.
    pub fn push_batch(&mut self, mut records: &[MessageRecord], mut wire_lens: &[u32]) {
        debug_assert_eq!(records.len(), wire_lens.len());
        if records.is_empty() {
            return;
        }
        telemetry::global().incr(Counter::SinkFastBatches);
        while !records.is_empty() {
            let room = self.chunk_rows - self.tail.len();
            let take = room.min(records.len());
            let (head, rest) = records.split_at(take);
            let (whead, wrest) = wire_lens.split_at(take);
            self.tail.extend_batch(head, whead);
            records = rest;
            wire_lens = wrest;
            if self.tail.len() == self.chunk_rows {
                self.seal_tail();
            }
        }
    }

    /// Append rows `rows` of a [`Sections::ALL`] batch with session ids
    /// mapped through `remap` (see [`FlatColumns::extend_from_batch`]).
    /// The run must fit in the open tail ([`MessageColumns::tail_room`]);
    /// the tail seals when it fills, exactly as on the per-record path.
    fn push_run(&mut self, b: &ChunkBatch, rows: Range<usize>, remap: &[u64]) {
        debug_assert!(rows.len() <= self.tail_room());
        self.tail.extend_from_batch(b, rows, remap);
        if self.tail.len() == self.chunk_rows {
            self.seal_tail();
        }
    }

    /// Rows the open tail takes before it seals.
    fn tail_room(&self) -> usize {
        self.chunk_rows - self.tail.len()
    }

    /// Encode the full tail into a sealed chunk and reset it.
    fn seal_tail(&mut self) {
        telemetry::scope!("seal");
        debug_assert_eq!(self.tail.len(), self.chunk_rows);
        let mut bytes = std::mem::take(&mut self.encode_buf);
        chunk::encode_chunk(
            &self.tail.as_chunk_source(),
            &mut self.encode_ms_scratch,
            &mut bytes,
        );
        self.raw_sealed_bytes += self.tail.filled_bytes();
        self.encoded_sealed_bytes += bytes.len() as u64;

        let mut stored = None;
        if let Some(dir) = &self.spill_dir {
            if !self.spill_failed && self.spill.is_none() {
                match SpillFile::create(dir) {
                    Ok(f) => self.spill = Some(Arc::new(f)),
                    Err(e) => {
                        telemetry::warn!(
                            "trace spill disabled: cannot create spill file in {}: {e} \
                             (degrading to in-memory chunks)",
                            dir.display()
                        );
                        telemetry::global().incr(Counter::SpillDegraded);
                        self.spill_failed = true;
                    }
                }
            }
            if !self.spill_failed {
                if let Some(f) = &self.spill {
                    match f.append(&bytes) {
                        Ok(offset) => {
                            self.spilled_bytes += bytes.len() as u64;
                            stored = Some(SealedChunk::Spilled {
                                offset,
                                len: bytes.len() as u32,
                            });
                        }
                        Err(e) => {
                            telemetry::warn!(
                                "trace spill disabled after write error: {e} \
                                 (degrading to in-memory chunks)"
                            );
                            telemetry::global().incr(Counter::SpillDegraded);
                            self.spill_failed = true;
                        }
                    }
                }
            }
        }
        let spilled = stored.is_some();
        match stored {
            Some(s) => {
                self.sealed.push(s);
                self.encode_buf = bytes; // reuse next seal
            }
            None => {
                bytes.shrink_to_fit();
                self.sealed.push(SealedChunk::Mem(bytes));
            }
        }
        self.rows_sealed += self.tail.len();
        self.tail.clear();

        let reg = telemetry::global();
        reg.incr(Counter::ChunkSeals);
        if spilled {
            // One add per seal; the value is the bytes appended.
            reg.add(
                Counter::SpillBytesWritten,
                self.sealed.last().map_or(0, |c| match c {
                    SealedChunk::Spilled { len, .. } => u64::from(*len),
                    SealedChunk::Mem(_) => 0,
                }),
            );
        }
        // Resident encoded bytes = all sealed minus spilled extents.
        reg.gauge_max(
            Gauge::PeakTraceBytes,
            self.encoded_sealed_bytes - self.spilled_bytes,
        );
    }

    /// Fetch chunk `idx`'s encoded bytes: borrowed in place for resident
    /// chunks, read from the spill file into `file_buf` otherwise.
    fn chunk_data<'a>(&'a self, idx: usize, file_buf: &'a mut Vec<u8>) -> &'a [u8] {
        match &self.sealed[idx] {
            SealedChunk::Mem(b) => b,
            SealedChunk::Spilled { offset, len } => {
                self.spill
                    .as_ref()
                    .expect("spilled chunk without spill file")
                    .read_into(*offset, *len as usize, file_buf)
                    .expect("trace spill read failed");
                file_buf
            }
        }
    }

    /// Sequential reader with its own decode scratch: decodes each
    /// sealed chunk exactly once as the position crosses it.
    /// The canonical export path.
    pub fn cursor(&self) -> MessageCursor<'_> {
        MessageCursor {
            cols: self,
            next: 0,
            chunk: usize::MAX,
            batch: ChunkBatch::default(),
            file_buf: Vec::new(),
        }
    }

    /// Iterate rows as reconstructed records (cursor-backed).
    pub fn iter(&self) -> impl Iterator<Item = MessageRecord> + '_ {
        let mut cur = self.cursor();
        std::iter::from_fn(move || cur.next_with_wire().map(|(rec, _)| rec))
    }

    /// Visit every batch in row order with the `sections` columns
    /// decoded: each sealed chunk once (skipping the sections outside the
    /// set unread), then the flat tail copied through the same
    /// [`ChunkBatch`] shape. Session reconstruction and the
    /// chunk-at-a-time analysis kernels (Table 1, the representativeness
    /// figures, the hit-rate extension) are written against this;
    /// [`Sections::ALL`] gives every column.
    pub fn for_each_batch(&self, sections: Sections, mut f: impl FnMut(&ChunkBatch)) {
        let mut batch = ChunkBatch::default();
        let mut file_buf = Vec::new();
        for idx in 0..self.sealed.len() {
            let bytes = self.chunk_data(idx, &mut file_buf);
            chunk::decode_chunk(bytes, sections, &mut batch);
            f(&batch);
        }
        if !self.tail.is_empty() {
            self.tail.fill_batch(sections, &mut batch);
            f(&batch);
        }
    }

    /// Resident bytes: the flat tail at capacity, sealed chunks that are
    /// held in memory (spilled extents cost nothing here), the chunk
    /// directory, and the seal-time scratch buffers.
    pub fn mem_bytes(&self) -> u64 {
        let mem_chunks: u64 = self
            .sealed
            .iter()
            .map(|c| match c {
                SealedChunk::Mem(b) => b.capacity() as u64,
                SealedChunk::Spilled { .. } => 0,
            })
            .sum();
        let directory = (self.sealed.capacity() * std::mem::size_of::<SealedChunk>()) as u64;
        let scratch = (self.encode_ms_scratch.capacity() * 8 + self.encode_buf.capacity()) as u64;
        self.tail.mem_bytes() + mem_chunks + directory + scratch
    }

    /// Number of sealed (compressed) chunks.
    pub fn sealed_chunks(&self) -> usize {
        self.sealed.len()
    }

    /// Encoded bytes of sealed chunks currently resident in memory
    /// (excludes spilled extents).
    pub fn retained_chunk_bytes(&self) -> u64 {
        self.sealed
            .iter()
            .map(|c| match c {
                SealedChunk::Mem(b) => b.len() as u64,
                SealedChunk::Spilled { .. } => 0,
            })
            .sum()
    }

    /// Total encoded bytes written to the spill file.
    pub fn spill_bytes_written(&self) -> u64 {
        self.spilled_bytes
    }

    /// Flat-column bytes per encoded byte over all sealed chunks
    /// (`None` until the first seal).
    pub fn compression_ratio(&self) -> Option<f64> {
        if self.encoded_sealed_bytes == 0 {
            None
        } else {
            Some(self.raw_sealed_bytes as f64 / self.encoded_sealed_bytes as f64)
        }
    }

    /// Drop the seal scratch buffers and shrink the tail. Call before
    /// snapshotting or unwrapping a finished trace so teardown copies
    /// don't carry dead capacity.
    pub fn compact(&mut self) {
        self.encode_ms_scratch = Vec::new();
        self.encode_buf = Vec::new();
        self.tail.shrink_to_fit();
    }
}

/// Sequential decoding reader over a [`MessageColumns`], with private
/// scratch buffers. Created by
/// [`MessageColumns::cursor`].
pub struct MessageCursor<'a> {
    cols: &'a MessageColumns,
    next: usize,
    /// Chunk index currently decoded into `batch` (`usize::MAX`: none).
    chunk: usize,
    batch: ChunkBatch,
    file_buf: Vec<u8>,
}

impl MessageCursor<'_> {
    fn ensure_chunk(&mut self, idx: usize) {
        if self.chunk != idx {
            let bytes = self.cols.chunk_data(idx, &mut self.file_buf);
            chunk::decode_chunk(bytes, Sections::ALL, &mut self.batch);
            self.chunk = idx;
        }
    }

    /// The next row and its wire length, advancing the cursor.
    pub fn next_with_wire(&mut self) -> Option<(MessageRecord, u32)> {
        if self.next >= self.cols.len() {
            return None;
        }
        let out = if self.next >= self.cols.rows_sealed {
            let i = self.next - self.cols.rows_sealed;
            (self.cols.tail.get(i), self.cols.tail.wire_len[i])
        } else {
            let idx = self.next / self.cols.chunk_rows;
            self.ensure_chunk(idx);
            let i = self.next % self.cols.chunk_rows;
            (self.batch.record(i), self.batch.wire_len(i))
        };
        self.next += 1;
        Some(out)
    }
}

/// Consuming reader over one merge source: it owns the source, takes
/// each resident sealed chunk out of the directory, decodes it once and
/// frees its bytes before any row is copied (spilled chunks are read
/// back from the spill file), then copies the tail last and drops the
/// source, with its spill file, once everything has been read. Only the
/// decoded batch of the current chunk is held besides what is left of
/// the source.
struct SourceReader {
    /// `None` once every row has been read into a batch.
    source: Option<MessageColumns>,
    next_chunk: usize,
    batch: ChunkBatch,
    /// Next unread row of `batch`.
    pos: usize,
    file_buf: Vec<u8>,
}

impl SourceReader {
    fn new(source: MessageColumns) -> Self {
        let mut reader = SourceReader {
            source: Some(source),
            next_chunk: 0,
            batch: ChunkBatch::default(),
            pos: 0,
            file_buf: Vec::new(),
        };
        reader.refill();
        reader
    }

    /// Decode the next sealed chunk, or else the tail, into `batch`.
    fn refill(&mut self) {
        self.pos = 0;
        let Some(src) = self.source.as_mut() else {
            self.batch = ChunkBatch::default();
            return;
        };
        let idx = self.next_chunk;
        match src.sealed.get_mut(idx) {
            Some(SealedChunk::Mem(bytes)) => {
                let bytes = std::mem::take(bytes);
                chunk::decode_chunk(&bytes, Sections::ALL, &mut self.batch);
                self.next_chunk += 1;
            }
            Some(SealedChunk::Spilled { .. }) => {
                let bytes = src.chunk_data(idx, &mut self.file_buf);
                chunk::decode_chunk(bytes, Sections::ALL, &mut self.batch);
                self.next_chunk += 1;
            }
            None => {
                src.tail.fill_batch(Sections::ALL, &mut self.batch);
                self.source = None;
                self.file_buf = Vec::new();
            }
        }
    }

    /// Arrival time (ms) of the next unread row; `None` when exhausted.
    fn head(&self) -> Option<u64> {
        self.batch.at_ms.get(self.pos).copied()
    }

    /// End of the run that starts at the head: the rows of the current
    /// batch that sort before `bound`, the smallest `(at_ms, shard)` head
    /// of the other sources, capped at `room` rows.
    fn run_end(&self, shard: usize, bound: Option<(u64, usize)>, room: usize) -> usize {
        let cap = self.batch.rows().min(self.pos + room);
        let Some(bound) = bound else { return cap };
        let run = self.batch.at_ms[self.pos..cap]
            .iter()
            .take_while(|&&t| (t, shard) < bound)
            .count();
        self.pos + run
    }

    /// Mark the rows before `end` read, decoding the next batch when the
    /// current one is used up.
    fn advance_to(&mut self, end: usize) {
        self.pos = end;
        if self.pos == self.batch.rows() {
            self.refill();
        }
    }
}

fn kind_of(p: &RecordedPayload) -> MsgKind {
    match p {
        RecordedPayload::Ping => MsgKind::Ping,
        RecordedPayload::Pong { .. } => MsgKind::Pong,
        RecordedPayload::Query { .. } => MsgKind::Query,
        RecordedPayload::QueryHit { .. } => MsgKind::QueryHit,
        RecordedPayload::Bye => MsgKind::Bye,
    }
}

impl<'a> IntoIterator for &'a MessageColumns {
    type Item = MessageRecord;
    type IntoIter = Box<dyn Iterator<Item = MessageRecord> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl FromIterator<MessageRecord> for MessageColumns {
    fn from_iter<I: IntoIterator<Item = MessageRecord>>(iter: I) -> Self {
        let mut cols = MessageColumns::new();
        for rec in iter {
            cols.push(rec);
        }
        cols
    }
}

impl Extend<MessageRecord> for MessageColumns {
    fn extend<I: IntoIterator<Item = MessageRecord>>(&mut self, iter: I) {
        for rec in iter {
            self.push(rec);
        }
    }
}

/// Serializes as the sequence of reconstructed records, so the serde form
/// (and with it any JSON representation) is identical to the old
/// `Vec<MessageRecord>` layout — compression never reaches the wire.
impl Serialize for MessageColumns {
    fn to_value(&self) -> serde::Value {
        serde::Value::Array(self.iter().map(|r| r.to_value()).collect())
    }
}

impl Deserialize for MessageColumns {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Array(items) => {
                let mut cols = MessageColumns::with_capacity(items.len());
                for item in items {
                    cols.push(MessageRecord::from_value(item)?);
                }
                Ok(cols)
            }
            other => Err(serde::Error::msg(format!(
                "expected array of message records, found {}",
                other.type_name()
            ))),
        }
    }
}

/// A complete measurement trace: connection records plus message columns.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    /// One record per direct connection, indexed by [`SessionId`].
    pub connections: Vec<ConnectionRecord>,
    /// All received messages, in arrival order (columnar layout).
    pub messages: MessageColumns,
    /// Total wire size of the recorded messages, in bytes — charged by the
    /// collector via `gnutella::wire::encoded_len` regardless of whether
    /// the frames traveled typed or byte-encoded. An in-memory provenance
    /// statistic: it is not part of the JSONL interchange format (readers
    /// of old traces see 0).
    #[serde(skip)]
    pub wire_bytes: u64,
}

/// Equality compares the recorded data — connections and messages — only.
/// `wire_bytes` (and the per-row `wire_len` column) is in-memory
/// provenance that does not survive the JSONL interchange format, so it
/// does not participate: a deserialized trace equals the one that wrote it.
impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.connections == other.connections && self.messages == other.messages
    }
}

/// One line of the JSONL interchange format.
#[derive(Debug, Serialize, Deserialize)]
#[serde(tag = "t", rename_all = "snake_case")]
enum TraceLine {
    Conn(ConnectionRecord),
    Msg(MessageRecord),
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Empty trace with pre-reserved capacity, for collectors that can
    /// estimate campaign volume up front. The message store only
    /// reserves its flat tail (one chunk) and chunk directory — rows
    /// beyond the first chunk live compressed, so a huge `messages`
    /// estimate no longer pins gigabytes of flat columns.
    pub fn with_capacity(connections: usize, messages: usize) -> Self {
        Trace {
            connections: Vec::with_capacity(connections),
            messages: MessageColumns::with_capacity(messages),
            wire_bytes: 0,
        }
    }

    /// Look up a connection record.
    pub fn connection(&self, id: SessionId) -> Option<&ConnectionRecord> {
        self.connections.get(id.0 as usize)
    }

    /// Overall characteristics (the Table 1 reproduction).
    pub fn stats(&self) -> TraceStats {
        TraceStats::of(self)
    }

    /// Resident bytes held by this trace: the message store (tail,
    /// resident chunks, scratch) plus the connection records and their
    /// heap strings. Spilled chunk extents are on disk and not counted.
    pub fn mem_bytes(&self) -> u64 {
        let conns = (self.connections.capacity() * std::mem::size_of::<ConnectionRecord>()) as u64
            + self
                .connections
                .iter()
                .map(|c| c.user_agent.capacity() as u64)
                .sum::<u64>();
        conns + self.messages.mem_bytes()
    }

    /// Drop scratch allocations before snapshotting or unwrapping (see
    /// [`MessageColumns::compact`]). Also returns the connection
    /// vector's over-reservation: the driver pre-reserves for the
    /// *expected* arrival count, but cap-bound scales admit a small
    /// fraction of arrivals, leaving most of that capacity dead — at
    /// paper scale ≈300 MiB for 4.36 M expected vs 361 k admitted.
    pub fn compact(&mut self) {
        self.messages.compact();
        self.connections.shrink_to_fit();
    }

    /// Merge per-shard traces into one, consuming them: connections in
    /// `(start, shard)` order with densely renumbered [`SessionId`]s,
    /// messages in `(arrival, shard)` order, so on equal arrival times
    /// the earliest shard wins and each shard keeps its own order.
    ///
    /// The merge holds one copy of the trace. Each source is read by a
    /// reader that owns it and frees every resident chunk as it decodes
    /// it, so the sources shrink while the merged store grows. Rows move
    /// in runs: the longest stretch of one source that sorts before
    /// every other source's head, capped by the room left in the merged
    /// tail, is copied column by column. The merged store equals one
    /// filled by pushing the records one by one, capacities included,
    /// and takes its chunk size and spill directory from the first
    /// source.
    pub fn merge_shards(shards: Vec<Trace>) -> Trace {
        let n_conns: usize = shards.iter().map(|t| t.connections.len()).sum();
        let n_msgs: usize = shards.iter().map(|t| t.messages.len()).sum();
        let wire_bytes: u64 = shards.iter().map(|t| t.wire_bytes).sum();
        let mut messages = MessageColumns::with_capacity(n_msgs);
        if let Some(first) = shards.first() {
            messages.configure_chunks(first.messages.chunk_rows, first.messages.spill_dir.clone());
        }

        let mut conns: Vec<(usize, ConnectionRecord)> = Vec::with_capacity(n_conns);
        let mut readers: Vec<SourceReader> = Vec::with_capacity(shards.len());
        for (shard, t) in shards.into_iter().enumerate() {
            conns.extend(t.connections.into_iter().map(|c| (shard, c)));
            readers.push(SourceReader::new(t.messages));
        }
        // Each shard's connections are already start-ordered, so a stable
        // sort by (start, shard) yields the canonical merged order.
        conns.sort_by_key(|(shard, c)| (c.start, *shard));

        // Per-shard session ids are dense from 0, so the remap is a plain
        // vector lookup rather than a hash map.
        let mut remap: Vec<Vec<u64>> = vec![Vec::new(); readers.len()];
        let mut connections = Vec::with_capacity(n_conns);
        for (new_id, (shard, mut c)) in conns.into_iter().enumerate() {
            let old = c.id.0 as usize;
            if remap[shard].len() <= old {
                remap[shard].resize(old + 1, u64::MAX);
            }
            remap[shard][old] = new_id as u64;
            c.id = SessionId(new_id as u64);
            connections.push(c);
        }

        loop {
            // The two smallest heads in (at_ms, shard) order: the first
            // source's run lasts while its rows sort before the second.
            let mut first: Option<(u64, usize)> = None;
            let mut second: Option<(u64, usize)> = None;
            for (shard, reader) in readers.iter().enumerate() {
                let Some(at) = reader.head() else { continue };
                let key = (at, shard);
                if first.is_none_or(|f| key < f) {
                    second = first;
                    first = Some(key);
                } else if second.is_none_or(|s| key < s) {
                    second = Some(key);
                }
            }
            let Some((_, shard)) = first else { break };
            let reader = &mut readers[shard];
            let end = reader.run_end(shard, second, messages.tail_room());
            messages.push_run(&reader.batch, reader.pos..end, &remap[shard]);
            reader.advance_to(end);
        }

        Trace {
            connections,
            messages,
            wire_bytes,
        }
    }

    /// Serialize as JSON lines: connection records first, then messages.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        for c in &self.connections {
            serde_json::to_writer(&mut w, &TraceLine::Conn(c.clone()))?;
            w.write_all(b"\n")?;
        }
        for m in self.messages.iter() {
            serde_json::to_writer(&mut w, &TraceLine::Msg(m))?;
            w.write_all(b"\n")?;
        }
        Ok(())
    }

    /// Read back a JSONL trace.
    ///
    /// Connection records are re-indexed by their embedded [`SessionId`];
    /// message order is preserved.
    pub fn read_jsonl<R: BufRead>(r: R) -> io::Result<Trace> {
        let mut connections: Vec<Option<ConnectionRecord>> = Vec::new();
        let mut messages = MessageColumns::new();
        for line in r.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let parsed: TraceLine = serde_json::from_str(&line)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            match parsed {
                TraceLine::Conn(c) => {
                    let idx = c.id.0 as usize;
                    if connections.len() <= idx {
                        connections.resize(idx + 1, None);
                    }
                    connections[idx] = Some(c);
                }
                TraceLine::Msg(m) => messages.push(m),
            }
        }
        let connections = connections
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                c.ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("missing connection record for session {i}"),
                    )
                })
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Trace {
            connections,
            messages,
            wire_bytes: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordedPayload;
    use simnet::SimTime;
    use std::net::Ipv4Addr;

    fn test_guid() -> gnutella::Guid {
        gnutella::Guid([7; 16])
    }

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        for i in 0..3u64 {
            t.connections.push(ConnectionRecord {
                id: SessionId(i),
                addr: Ipv4Addr::new(24, 0, 0, i as u8 + 1),
                user_agent: format!("Client/{i}"),
                ultrapeer: i % 2 == 0,
                start: SimTime::from_secs(i * 100),
                end: Some(SimTime::from_secs(i * 100 + 70)),
                closed_by_probe: i == 2,
            });
            t.messages.push(MessageRecord {
                session: SessionId(i),
                guid: test_guid(),
                at: SimTime::from_secs(i * 100 + 5),
                hops: 1,
                ttl: 6,
                payload: RecordedPayload::Query {
                    text: format!("song {i}").into(),
                    sha1: false,
                },
            });
        }
        t
    }

    /// Records covering every kind, enough to cross small chunk sizes.
    fn varied_records(n: usize) -> Vec<MessageRecord> {
        (0..n)
            .map(|i| {
                let payload = match i % 5 {
                    0 => RecordedPayload::Ping,
                    1 => RecordedPayload::Pong {
                        addr: Ipv4Addr::new(10, 0, (i / 256) as u8, (i % 256) as u8),
                        shared_files: (i * 37) as u32,
                    },
                    2 => RecordedPayload::Query {
                        text: format!("chunk song {}", i % 11).into(),
                        sha1: i % 3 == 0,
                    },
                    3 => RecordedPayload::QueryHit {
                        addr: Ipv4Addr::new(82, 1, 2, (i % 256) as u8),
                        results: (i % 250) as u8,
                    },
                    _ => RecordedPayload::Bye,
                };
                MessageRecord {
                    session: SessionId((i % 7) as u64),
                    guid: gnutella::Guid([(i % 251) as u8; 16]),
                    at: SimTime::from_millis(1_000 + (i as u64) * 13),
                    hops: (i % 8) as u8,
                    ttl: (7 - i % 8) as u8,
                    payload,
                }
            })
            .collect()
    }

    #[test]
    fn jsonl_round_trip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let back = Trace::read_jsonl(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    /// The JSONL interchange format is frozen: this golden output was
    /// captured from the row-oriented (pre-columnar) store and must stay
    /// byte-identical so old traces and external readers keep working.
    #[test]
    fn jsonl_matches_row_store_golden() {
        let mut t = Trace::new();
        t.connections.push(ConnectionRecord {
            id: SessionId(0),
            addr: Ipv4Addr::new(24, 10, 20, 30),
            user_agent: "Mutella/0.4.5".into(),
            ultrapeer: true,
            start: SimTime::from_millis(1_500),
            end: Some(SimTime::from_millis(400_000)),
            closed_by_probe: true,
        });
        t.connections.push(ConnectionRecord {
            id: SessionId(1),
            addr: Ipv4Addr::new(82, 1, 2, 3),
            user_agent: "LimeWire/4.2".into(),
            ultrapeer: false,
            start: SimTime::from_millis(2_250),
            end: None,
            closed_by_probe: false,
        });
        let g = test_guid();
        let mk = |at: u64, hops: u8, ttl: u8, session: u64, payload| MessageRecord {
            session: SessionId(session),
            guid: g,
            at: SimTime::from_millis(at),
            hops,
            ttl,
            payload,
        };
        t.messages.push(mk(3_000, 1, 6, 0, RecordedPayload::Ping));
        t.messages.push(mk(
            4_100,
            2,
            5,
            0,
            RecordedPayload::Pong {
                addr: Ipv4Addr::new(10, 0, 0, 9),
                shared_files: 340,
            },
        ));
        t.messages.push(mk(
            5_000,
            1,
            7,
            1,
            RecordedPayload::Query {
                text: "metallica one".into(),
                sha1: true,
            },
        ));
        t.messages.push(mk(
            6_000,
            3,
            4,
            1,
            RecordedPayload::QueryHit {
                addr: Ipv4Addr::new(24, 5, 6, 7),
                results: 12,
            },
        ));
        t.messages.push(mk(7_000, 1, 1, 0, RecordedPayload::Bye));

        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let golden = concat!(
            r#"{"t":"conn","id":0,"addr":"24.10.20.30","user_agent":"Mutella/0.4.5","ultrapeer":true,"start":1500,"end":400000,"closed_by_probe":true}"#,
            "\n",
            r#"{"t":"conn","id":1,"addr":"82.1.2.3","user_agent":"LimeWire/4.2","ultrapeer":false,"start":2250,"end":null,"closed_by_probe":false}"#,
            "\n",
            r#"{"t":"msg","session":0,"guid":[7,7,7,7,7,7,7,7,7,7,7,7,7,7,7,7],"at":3000,"hops":1,"ttl":6,"payload":"Ping"}"#,
            "\n",
            r#"{"t":"msg","session":0,"guid":[7,7,7,7,7,7,7,7,7,7,7,7,7,7,7,7],"at":4100,"hops":2,"ttl":5,"payload":{"Pong":{"addr":"10.0.0.9","shared_files":340}}}"#,
            "\n",
            r#"{"t":"msg","session":1,"guid":[7,7,7,7,7,7,7,7,7,7,7,7,7,7,7,7],"at":5000,"hops":1,"ttl":7,"payload":{"Query":{"text":"metallica one","sha1":true}}}"#,
            "\n",
            r#"{"t":"msg","session":1,"guid":[7,7,7,7,7,7,7,7,7,7,7,7,7,7,7,7],"at":6000,"hops":3,"ttl":4,"payload":{"QueryHit":{"addr":"24.5.6.7","results":12}}}"#,
            "\n",
            r#"{"t":"msg","session":0,"guid":[7,7,7,7,7,7,7,7,7,7,7,7,7,7,7,7],"at":7000,"hops":1,"ttl":1,"payload":"Bye"}"#,
            "\n",
        );
        assert_eq!(String::from_utf8(buf).unwrap(), golden);
    }

    #[test]
    fn columns_round_trip_every_kind() {
        let g = test_guid();
        let records = vec![
            MessageRecord {
                session: SessionId(3),
                guid: g,
                at: SimTime::from_millis(10),
                hops: 1,
                ttl: 6,
                payload: RecordedPayload::Ping,
            },
            MessageRecord {
                session: SessionId(1),
                guid: g,
                at: SimTime::from_millis(20),
                hops: 2,
                ttl: 5,
                payload: RecordedPayload::Pong {
                    addr: Ipv4Addr::new(1, 2, 3, 4),
                    shared_files: 99,
                },
            },
            MessageRecord {
                session: SessionId(0),
                guid: g,
                at: SimTime::from_millis(30),
                hops: 1,
                ttl: 7,
                payload: RecordedPayload::Query {
                    text: "q".into(),
                    sha1: true,
                },
            },
            MessageRecord {
                session: SessionId(2),
                guid: g,
                at: SimTime::from_millis(40),
                hops: 4,
                ttl: 3,
                payload: RecordedPayload::QueryHit {
                    addr: Ipv4Addr::new(9, 8, 7, 6),
                    results: 200,
                },
            },
            MessageRecord {
                session: SessionId(0),
                guid: g,
                at: SimTime::from_millis(50),
                hops: 1,
                ttl: 1,
                payload: RecordedPayload::Bye,
            },
        ];
        let cols: MessageColumns = records.iter().copied().collect();
        assert_eq!(cols.len(), records.len());
        let back: Vec<MessageRecord> = cols.iter().collect();
        assert_eq!(back, records);
    }

    #[test]
    fn sealed_chunks_round_trip_all_access_paths() {
        let records = varied_records(1_000);
        for chunk_rows in [1usize, 3, 16, 256] {
            let mut cols = MessageColumns::new();
            cols.configure_chunks(chunk_rows, None);
            for (i, r) in records.iter().enumerate() {
                cols.push_with_wire(*r, (i % 97) as u32);
            }
            assert_eq!(cols.len(), records.len());
            assert_eq!(cols.sealed_chunks(), records.len() / chunk_rows);
            // Section headers dominate degenerate chunk sizes; only
            // realistic chunks must actually compress.
            if chunk_rows >= 256 {
                assert!(cols.compression_ratio().unwrap() > 1.0);
            }

            // Iteration (cursor path), wire lengths included.
            let back: Vec<MessageRecord> = cols.iter().collect();
            assert_eq!(back, records, "chunk_rows {chunk_rows}");
            let mut cur = cols.cursor();
            for (i, r) in records.iter().enumerate() {
                assert_eq!(cur.next_with_wire(), Some((*r, (i % 97) as u32)));
            }
            assert_eq!(cur.next_with_wire(), None);

            // Batch visitation covers every row and wire length in order.
            let mut n = 0usize;
            cols.for_each_batch(Sections::ALL, |b| {
                for i in 0..b.rows() {
                    assert_eq!(b.record(i), records[n]);
                    assert_eq!(b.wire_len(i), (n % 97) as u32);
                    n += 1;
                }
            });
            assert_eq!(n, records.len());
        }
    }

    /// Every section on its own, and the sets the analysis kernels use,
    /// decode exactly the matching columns of a full decode and leave the
    /// rest empty — for sealed chunks (in memory and spilled) and for the
    /// flat tail alike — and every batch reports its row count whether
    /// or not AT was decoded.
    #[test]
    fn projected_batches_equal_full_decode_columns() {
        let records = varied_records(1_000);
        let spill = std::env::temp_dir().join("p2pq-store-test-projection");
        let single = [
            Sections::AT,
            Sections::SESSION,
            Sections::KIND,
            Sections::HOPS,
            Sections::TTL,
            Sections::GUID,
            Sections::WIRE,
            Sections::PONG,
            Sections::QUERY,
            Sections::HIT,
        ];
        let kernel_sets = [
            Sections::KIND | Sections::HOPS,
            Sections::KIND | Sections::HOPS | Sections::PONG,
            Sections::KIND | Sections::GUID | Sections::HIT,
            Sections::KIND | Sections::HOPS | Sections::GUID | Sections::SESSION,
            Sections::AT | Sections::KIND | Sections::HOPS | Sections::PONG | Sections::HIT,
        ];
        for spill_dir in [None, Some(spill)] {
            let mut cols = MessageColumns::new();
            cols.configure_chunks(96, spill_dir);
            for (i, r) in records.iter().enumerate() {
                cols.push_with_wire(*r, (i % 97) as u32);
            }
            assert_eq!(cols.sealed_chunks(), 10);
            let mut full = Vec::new();
            cols.for_each_batch(Sections::ALL, |b| full.push(b.clone()));
            assert_eq!(full.len(), 11, "ten sealed chunks and the tail");
            assert_eq!(full.iter().map(ChunkBatch::rows).sum::<usize>(), 1_000);

            for sections in single.into_iter().chain(kernel_sets) {
                let mut got = Vec::new();
                cols.for_each_batch(sections, |b| got.push(b.clone()));
                let expected: Vec<ChunkBatch> = full.iter().map(|b| project(b, sections)).collect();
                assert_eq!(got, expected, "{sections:?}");
                if !sections.contains(Sections::AT) {
                    assert!(got.iter().all(|b| b.at_ms.is_empty() && b.rows() > 0));
                }
            }
        }
    }

    /// `full` with the columns outside `sections` emptied.
    fn project(full: &ChunkBatch, sections: Sections) -> ChunkBatch {
        let mut b = full.clone();
        let keep = |s: Sections| sections.contains(s);
        if !keep(Sections::AT) {
            b.at_ms.clear();
        }
        if !keep(Sections::SESSION) {
            b.session.clear();
        }
        if !keep(Sections::KIND) {
            b.kind.clear();
        }
        if !keep(Sections::HOPS) {
            b.hops.clear();
        }
        if !keep(Sections::TTL) {
            b.ttl.clear();
        }
        if !keep(Sections::GUID) {
            b.guid.clear();
        }
        if !keep(Sections::WIRE) {
            b.wire.clear();
        }
        if !keep(Sections::PONG) {
            b.pong_addr.clear();
            b.pong_files.clear();
        }
        if !keep(Sections::QUERY) {
            b.query_id.clear();
            b.query_sha1.clear();
        }
        if !keep(Sections::HIT) {
            b.hit_addr.clear();
            b.hit_results.clear();
        }
        if !sections.fills_arg() {
            b.arg.clear();
        }
        b
    }

    #[test]
    fn spilled_chunks_read_back_identically() {
        let dir = std::env::temp_dir().join("p2pq-store-test-spill");
        let records = varied_records(500);
        let mut plain = MessageColumns::new();
        plain.configure_chunks(64, None);
        let mut spilled = MessageColumns::new();
        spilled.configure_chunks(64, Some(dir));
        for r in &records {
            plain.push(*r);
            spilled.push(*r);
        }
        assert!(spilled.spill_bytes_written() > 0);
        assert_eq!(spilled.retained_chunk_bytes(), 0);
        assert!(spilled.mem_bytes() < plain.mem_bytes());
        assert_eq!(plain, spilled);
        let a: Vec<MessageRecord> = plain.iter().collect();
        let b: Vec<MessageRecord> = spilled.iter().collect();
        assert_eq!(a, b);
        assert_eq!(a, records);

        // Clones share the spill file and stay readable side by side.
        let cloned = spilled.clone();
        let c: Vec<MessageRecord> = cloned.iter().collect();
        assert_eq!(c, records);
    }

    #[test]
    fn wire_len_excluded_from_equality() {
        let rec = MessageRecord {
            session: SessionId(0),
            guid: test_guid(),
            at: SimTime::from_millis(5),
            hops: 1,
            ttl: 6,
            payload: RecordedPayload::Ping,
        };
        let mut a = MessageColumns::new();
        a.push_with_wire(rec, 23);
        let mut b = MessageColumns::new();
        b.push(rec);
        assert_eq!(a, b);
        assert_eq!(a.cursor().next_with_wire(), Some((rec, 23)));
        assert_eq!(b.cursor().next_with_wire(), Some((rec, 0)));

        // The provenance survives sealing, and still stays out of equality.
        let mut sealed = MessageColumns::new();
        sealed.configure_chunks(1, None);
        sealed.push_with_wire(rec, 23);
        assert_eq!(sealed.sealed_chunks(), 1);
        assert_eq!(sealed, b);
        assert_eq!(sealed.cursor().next_with_wire(), Some((rec, 23)));
    }

    /// Asserts that session reconstruction's projected batch pass groups
    /// exactly the hop-1 QUERY rows of record iteration by session, and
    /// keeps one session per connection record, in connection order.
    fn assert_sessions_match_record_iteration(t: &Trace) {
        use crate::session::{QueryObs, Sessions};
        let mut expected: Vec<Vec<QueryObs>> = vec![Vec::new(); t.connections.len()];
        for m in t.messages.iter().filter(|m| m.is_one_hop_query()) {
            let RecordedPayload::Query { text, sha1 } = m.payload else {
                unreachable!()
            };
            if let Some(q) = expected.get_mut(m.session.0 as usize) {
                q.push(QueryObs {
                    at: m.at,
                    text,
                    sha1,
                });
            }
        }
        assert!(expected.iter().filter(|q| !q.is_empty()).count() >= 3);

        let s = Sessions::from_trace(t);
        let got: Vec<Vec<QueryObs>> = s.iter().map(|v| v.queries.clone()).collect();
        assert_eq!(got, expected);
        let ids: Vec<SessionId> = s.iter().map(|v| v.id).collect();
        let conn_ids: Vec<SessionId> = t.connections.iter().map(|c| c.id).collect();
        assert_eq!(ids, conn_ids);
    }

    /// The hop-1 query visitor of session reconstruction sees what a
    /// filtered record iteration sees, on a trace held in the flat tail.
    #[test]
    fn one_hop_query_visitor_matches_filtered_iteration() {
        let t = sample_trace();
        assert_eq!(t.messages.sealed_chunks(), 0);
        assert_sessions_match_record_iteration(&t);
    }

    /// The same across 7-row sealed chunks plus a tail, in memory and
    /// spilled; messages of a session without a connection record are
    /// dropped.
    #[test]
    fn one_hop_query_visitor_crosses_chunk_boundaries() {
        let records = varied_records(1_000);
        let spill = std::env::temp_dir().join("p2pq-store-test-sessions");
        for spill_dir in [None, Some(spill)] {
            let mut t = Trace::new();
            t.messages.configure_chunks(7, spill_dir);
            // Messages carry sessions 0..7; session 6 has no connection
            // record, so its queries are dropped.
            for i in 0..6u64 {
                t.connections.push(ConnectionRecord {
                    id: SessionId(i),
                    addr: Ipv4Addr::new(24, 0, 0, i as u8 + 1),
                    user_agent: format!("Client/{i}"),
                    ultrapeer: false,
                    start: SimTime::from_secs(i),
                    end: None,
                    closed_by_probe: false,
                });
            }
            for r in &records {
                t.messages.push(*r);
            }
            assert_eq!(t.messages.sealed_chunks(), 142);
            assert!(records
                .iter()
                .any(|m| m.is_one_hop_query() && m.session.0 == 6));
            assert_sessions_match_record_iteration(&t);
        }
    }

    /// Record-by-record reference for [`Trace::merge_shards`]: borrowed
    /// cursors, the smallest `(at, shard)` head pushed one record at a
    /// time into a store of the same geometry.
    fn reference_merge(mut shards: Vec<Trace>) -> Trace {
        let n_msgs: usize = shards.iter().map(|t| t.messages.len()).sum();
        let mut messages = MessageColumns::with_capacity(n_msgs);
        messages.configure_chunks(
            shards[0].messages.chunk_rows,
            shards[0].messages.spill_dir.clone(),
        );
        let mut conns: Vec<(usize, ConnectionRecord)> = shards
            .iter_mut()
            .enumerate()
            .flat_map(|(shard, t)| t.connections.drain(..).map(move |c| (shard, c)))
            .collect();
        conns.sort_by_key(|(shard, c)| (c.start, *shard));
        let mut remap: Vec<Vec<u64>> = vec![Vec::new(); shards.len()];
        let mut connections = Vec::with_capacity(conns.len());
        for (new_id, (shard, mut c)) in conns.into_iter().enumerate() {
            let old = c.id.0 as usize;
            if remap[shard].len() <= old {
                remap[shard].resize(old + 1, u64::MAX);
            }
            remap[shard][old] = new_id as u64;
            c.id = SessionId(new_id as u64);
            connections.push(c);
        }
        let mut heads: Vec<_> = shards
            .iter()
            .map(|t| {
                let mut cur = t.messages.cursor();
                std::iter::from_fn(move || cur.next_with_wire()).peekable()
            })
            .collect();
        loop {
            let mut best: Option<(SimTime, usize)> = None;
            for (shard, it) in heads.iter_mut().enumerate() {
                if let Some(&(m, _)) = it.peek() {
                    if best.is_none_or(|(bt, _)| m.at < bt) {
                        best = Some((m.at, shard));
                    }
                }
            }
            let Some((_, shard)) = best else { break };
            let (mut m, wire) = heads[shard].next().unwrap();
            m.session = SessionId(remap[shard][m.session.0 as usize]);
            messages.push_with_wire(m, wire);
        }
        Trace {
            connections,
            messages,
            wire_bytes: shards.iter().map(|t| t.wire_bytes).sum(),
        }
    }

    /// A shard trace of `n` varied records over 7 sessions, every row
    /// stamped with its shard in the first GUID byte; `per_ms` rows share
    /// each arrival time (10 ms apart), so times tie within and across
    /// shards.
    fn shard_trace(
        shard: u8,
        n: usize,
        per_ms: usize,
        chunk_rows: usize,
        spill: Option<PathBuf>,
    ) -> Trace {
        let mut t = Trace::new();
        t.messages.configure_chunks(chunk_rows, spill);
        if n == 0 {
            return t;
        }
        for i in 0..7u64 {
            t.connections.push(ConnectionRecord {
                id: SessionId(i),
                addr: Ipv4Addr::new(24, shard, 0, i as u8),
                user_agent: format!("Client/{shard}/{i}"),
                ultrapeer: i % 2 == 0,
                start: SimTime::from_secs(i),
                end: None,
                closed_by_probe: false,
            });
        }
        for (i, mut r) in varied_records(n).into_iter().enumerate() {
            r.at = SimTime::from_millis(1_000 + (i / per_ms) as u64 * 10);
            r.guid.0[0] = shard;
            t.messages
                .push_with_wire(r, (i % 89) as u32 + u32::from(shard));
        }
        t.wire_bytes = 1_000 * u64::from(shard) + n as u64;
        t
    }

    fn wires(t: &Trace) -> Vec<u32> {
        let mut cur = t.messages.cursor();
        std::iter::from_fn(move || cur.next_with_wire().map(|(_, w)| w)).collect()
    }

    /// The consuming, run-batched merge equals the record-by-record
    /// reference — records, wire lengths, connection order and ids, and
    /// resident bytes at capacity — on three sources (one empty) with
    /// millisecond ties across them, 7-row sealed chunks plus tails, in
    /// memory and spilled.
    #[test]
    fn merge_shards_matches_record_by_record_merge() {
        let spill = std::env::temp_dir().join("p2pq-store-test-merge");
        for spill_dir in [None, Some(spill)] {
            // 3 + 5 rows per arrival time do not line up with the 7-row
            // merged chunks, so the room cap does not hide a run that
            // crosses a tie.
            let shards = || {
                vec![
                    shard_trace(0, 400, 3, 7, spill_dir.clone()),
                    shard_trace(1, 0, 1, 7, spill_dir.clone()),
                    shard_trace(2, 453, 5, 7, spill_dir.clone()),
                ]
            };
            let sources = shards();
            assert_eq!(sources[0].messages.sealed_chunks(), 57);
            assert_eq!(sources[2].messages.len() % 7, 5, "shard 2 keeps a tail");
            let merged = Trace::merge_shards(sources);
            let expected = reference_merge(shards());

            assert_eq!(merged, expected);
            assert_eq!(merged.messages.len(), 853);
            assert_eq!(merged.messages.sealed_chunks(), 853 / 7);
            assert_eq!(wires(&merged), wires(&expected));
            assert_eq!(merged.wire_bytes, expected.wire_bytes);
            assert_eq!(merged.mem_bytes(), expected.mem_bytes());
            let ids: Vec<u64> = merged.connections.iter().map(|c| c.id.0).collect();
            assert_eq!(ids, (0..14).collect::<Vec<u64>>());

            // On an equal arrival time the earliest shard comes first,
            // and such ties do occur across the two non-empty shards.
            let rows: Vec<MessageRecord> = merged.messages.iter().collect();
            let mut cross_ties = 0;
            for w in rows.windows(2) {
                assert!(w[0].at <= w[1].at);
                if w[0].at == w[1].at {
                    assert!(w[0].guid.0[0] <= w[1].guid.0[0]);
                    cross_ties += usize::from(w[0].guid.0[0] != w[1].guid.0[0]);
                }
            }
            assert_eq!(cross_ties, 91);
        }
    }

    /// The merge reader frees each resident source chunk as it decodes
    /// it: the source's resident chunk bytes fall with every chunk read
    /// and reach 0 while the last chunk and the tail are still unread.
    #[test]
    fn merge_reader_frees_source_chunks_as_it_reads() {
        let mut cols = MessageColumns::new();
        cols.configure_chunks(64, None);
        for r in varied_records(64 * 5 + 20) {
            cols.push(r);
        }
        let full = cols.retained_chunk_bytes();
        assert_eq!(cols.sealed_chunks(), 5);
        let mut reader = SourceReader::new(cols);
        let mut resident = vec![full];
        let mut rows = 0;
        loop {
            let src = reader
                .source
                .as_ref()
                .expect("source kept until its tail is read");
            resident.push(src.retained_chunk_bytes());
            if reader.next_chunk == 5 {
                break;
            }
            rows += reader.batch.rows();
            reader.advance_to(reader.batch.rows());
        }
        assert_eq!(resident.len(), 6, "{resident:?}");
        assert!(resident.windows(2).all(|w| w[1] < w[0]), "{resident:?}");
        assert_eq!(resident[5], 0);
        assert!(
            reader.head().is_some(),
            "the last chunk and the tail are unread"
        );
        while reader.head().is_some() {
            rows += reader.batch.rows() - reader.pos;
            reader.advance_to(reader.batch.rows());
        }
        assert_eq!(rows, 64 * 5 + 20);
        assert!(reader.source.is_none(), "an exhausted source is dropped");
    }

    #[test]
    fn mem_bytes_counts_columns_and_strings() {
        let t = sample_trace();
        assert!(t.mem_bytes() > 0);
        let empty = Trace::new();
        assert_eq!(empty.messages.mem_bytes(), 0);
    }

    #[test]
    fn compact_drops_scratch_capacity() {
        let records = varied_records(200);
        let mut cols = MessageColumns::new();
        cols.configure_chunks(32, None);
        for r in &records {
            cols.push(*r);
        }
        // Sealing left scratch behind: the encoder's timestamp buffer and
        // a tail allocated for a whole chunk but holding 200 % 32 rows.
        let before = cols.mem_bytes();
        cols.compact();
        assert!(cols.mem_bytes() < before);
        // Data is untouched.
        let back: Vec<MessageRecord> = cols.iter().collect();
        assert_eq!(back, records);
    }

    #[test]
    fn read_tolerates_blank_lines_and_reorders_connections() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        // Shuffle: put messages before connections and add blank lines.
        let text = String::from_utf8(buf).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.reverse();
        let shuffled = format!("\n{}\n\n", lines.join("\n\n"));
        let back = Trace::read_jsonl(shuffled.as_bytes()).unwrap();
        assert_eq!(back.connections, t.connections);
        assert_eq!(back.messages.len(), t.messages.len());
    }

    #[test]
    fn read_rejects_gap_in_sessions() {
        let mut t = sample_trace();
        t.connections.remove(1);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        assert!(Trace::read_jsonl(buf.as_slice()).is_err());
    }

    #[test]
    fn read_rejects_garbage() {
        assert!(Trace::read_jsonl("not json\n".as_bytes()).is_err());
    }

    #[test]
    fn connection_lookup() {
        let t = sample_trace();
        assert_eq!(t.connection(SessionId(1)).unwrap().user_agent, "Client/1");
        assert!(t.connection(SessionId(99)).is_none());
    }
}

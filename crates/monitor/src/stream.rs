//! Streaming blktrace ingestion and full-pipeline-speed replay.
//!
//! [`blktrace::read_events`](crate::blktrace::read_events) slurps the
//! whole file into memory, decodes record-at-a-time and patches
//! latencies retroactively — fine as an oracle, hopeless for multi-GB
//! captures. This module is the production path:
//!
//! * [`BlktraceReader`] pulls fixed-size chunks into one reusable
//!   buffer and decodes 40-byte records in place, handling records that
//!   straddle chunk boundaries (the tail of a partial record is slid to
//!   the buffer front before the next refill);
//! * [`BlktraceEventSource`] performs the D/C pairing *online* with a
//!   bounded in-flight window: issues are held until their completion
//!   arrives (resolving the measured latency) and then emitted in
//!   stream order. An issue whose completion has not arrived by the
//!   time `max_inflight` later issues are pending — or by end of
//!   stream — is emitted with the default latency, exactly like the
//!   oracle's unmatched-issue rule. For any capture whose outstanding
//!   queue depth fits the window (real block layers are bounded by the
//!   device queue), the emitted events are **identical** to the
//!   oracle's. The pairing index holds only *unresolved* issues — a key
//!   is dropped the moment its last unresolved issue resolves or is
//!   force-emitted — so the decoder's memory is set by the work in
//!   flight, never by how many distinct requests the stream has seen.
//! * [`replay`] drives an [`IngestPipeline`] straight from any
//!   [`EventSource`] at full speed or at recorded-timestamp pacing —
//!   the paper's accelerated-replay knob, but from disk.
//!
//! After warm-up (chunk buffer, pending ring and pairing index at
//! their high-water marks, which the in-flight depth bounds), pulling
//! the next event allocates nothing, on any stream; the `zero_alloc`
//! suite holds the whole decode hot path to that, including a stream
//! in which no extent ever repeats.

use std::collections::VecDeque;
use std::io::{self, Read};
use std::time::{Duration, Instant};

use rtdac_types::{EventSource, Extent, FxHashMap, IoEvent, Timestamp};

use crate::blktrace::{Action, BlktraceRecord, RECORD_BYTES};
use crate::pipeline::IngestPipeline;

/// Default chunk size for [`BlktraceReader`]: 64 KiB, a comfortable
/// read(2) granularity that still fits L2.
pub const DEFAULT_CHUNK_BYTES: usize = 64 * 1024;

/// Default bound on issues held awaiting completion before they are
/// force-emitted with the default latency. Real device queues are a few
/// hundred deep; 64 Ki outstanding means pathological input, not a real
/// capture.
///
/// The bound caps a [`BlktraceEventSource`]'s memory. Each pending
/// issue takes 80 bytes in the pending ring and at most one 32-byte
/// index entry (plus a control byte per bucket), so a stream that keeps
/// `Q` issues outstanding holds about 113·`Q` bytes, each structure
/// rounded up to a power of two. At this default the worst case, a
/// stream that keeps 64 Ki issues unresolved, rounds both to 128 Ki
/// slots: about 10 MiB of pending ring and 4 MiB of index.
pub const DEFAULT_MAX_INFLIGHT: usize = 64 * 1024;

/// Chunked zero-copy reader for the blktrace-style binary stream: one
/// fixed buffer, records decoded in place, partial records carried
/// across refills.
pub struct BlktraceReader<R: Read> {
    reader: R,
    buf: Vec<u8>,
    /// Valid bytes in `buf`.
    filled: usize,
    /// Bytes already decoded.
    pos: usize,
    eof: bool,
    records: u64,
    bytes: u64,
}

impl<R: Read> BlktraceReader<R> {
    /// Wraps `reader` with the default chunk size.
    pub fn new(reader: R) -> Self {
        Self::with_chunk_bytes(reader, DEFAULT_CHUNK_BYTES)
    }

    /// Wraps `reader` with a custom chunk size (tests use tiny, odd
    /// sizes to force records to straddle every refill).
    pub fn with_chunk_bytes(reader: R, chunk_bytes: usize) -> Self {
        BlktraceReader {
            reader,
            buf: vec![0; chunk_bytes.max(RECORD_BYTES)],
            filled: 0,
            pos: 0,
            eof: false,
            records: 0,
            bytes: 0,
        }
    }

    /// Records decoded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Raw bytes consumed so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes
    }

    /// Decodes the next record, or returns `None` at a clean end of
    /// stream.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a bad magic/action or a stream that ends inside
    /// a record (truncation).
    pub fn next_record(&mut self) -> io::Result<Option<BlktraceRecord>> {
        while self.filled - self.pos < RECORD_BYTES {
            if self.eof {
                return if self.filled == self.pos {
                    Ok(None)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "truncated blktrace stream: {} trailing bytes \
                             (records are {RECORD_BYTES} bytes)",
                            self.filled - self.pos
                        ),
                    ))
                };
            }
            // Slide the partial record (if any) to the front — this is
            // the chunk-boundary straddle — then refill the rest.
            self.buf.copy_within(self.pos..self.filled, 0);
            self.filled -= self.pos;
            self.pos = 0;
            match self.reader.read(&mut self.buf[self.filled..]) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    self.filled += n;
                    self.bytes += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let record = BlktraceRecord::decode(
            self.buf[self.pos..self.pos + RECORD_BYTES]
                .try_into()
                .expect("exact record slice"),
        )?;
        self.pos += RECORD_BYTES;
        self.records += 1;
        Ok(Some(record))
    }
}

/// What a completion is paired by: the raw `(sector, blocks, pid)` of
/// the record, exactly as the oracle pairs it.
type PairKey = (u64, u32, u32);

/// An issue waiting in the emission queue for its completion.
struct Pending {
    event: IoEvent,
    key: PairKey,
    /// Sequence number of the next unresolved issue with the same key.
    /// Meaningful only while this issue is unresolved and not the
    /// newest on its key's chain.
    next: u64,
    resolved: bool,
}

/// Streaming D/C pairing over a [`BlktraceReader`]: yields issue events
/// in stream order with recovered latencies, holding at most
/// `max_inflight` unresolved issues.
pub struct BlktraceEventSource<R: Read> {
    records: BlktraceReader<R>,
    default_latency: Duration,
    max_inflight: usize,
    /// Issues not yet emitted, oldest first. Sequence number of the
    /// front element is `front_seq`.
    pending: VecDeque<Pending>,
    front_seq: u64,
    /// Key → (oldest, newest) sequence numbers of its *unresolved*
    /// issues, chained oldest-first through [`Pending::next`]: the
    /// oracle's FIFO pairing rule. A key leaves the index when its
    /// chain empties, so the index never outgrows `pending`.
    inflight: FxHashMap<PairKey, (u64, u64)>,
    done: bool,
}

impl<R: Read> BlktraceEventSource<R> {
    /// Streams `reader` with the default chunk size and in-flight
    /// window. Unmatched issues get `default_latency`, like the oracle.
    pub fn new(reader: R, default_latency: Duration) -> Self {
        Self::with_limits(
            reader,
            default_latency,
            DEFAULT_CHUNK_BYTES,
            DEFAULT_MAX_INFLIGHT,
        )
    }

    /// Full-control constructor: chunk size and in-flight bound.
    pub fn with_limits(
        reader: R,
        default_latency: Duration,
        chunk_bytes: usize,
        max_inflight: usize,
    ) -> Self {
        BlktraceEventSource {
            records: BlktraceReader::with_chunk_bytes(reader, chunk_bytes),
            default_latency,
            max_inflight: max_inflight.max(1),
            pending: VecDeque::new(),
            front_seq: 0,
            inflight: FxHashMap::default(),
            done: false,
        }
    }

    /// Raw bytes consumed so far.
    pub fn bytes_read(&self) -> u64 {
        self.records.bytes_read()
    }

    /// The underlying reader, for a caller that feeds it in place.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.records.reader
    }

    fn emit_front(&mut self) -> IoEvent {
        let front = self.pending.pop_front().expect("front exists");
        self.front_seq += 1;
        // An unresolved front is force-emitted. Every older issue is
        // gone, so it is its key's oldest unresolved issue.
        if !front.resolved {
            unlink_oldest(&mut self.inflight, front.key, front.next);
        }
        front.event
    }

    fn issue(&mut self, record: &BlktraceRecord) -> io::Result<()> {
        let extent = Extent::new(record.sector, record.blocks.max(1))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let key = (record.sector, record.blocks, record.pid);
        let seq = self.front_seq + self.pending.len() as u64;
        match self.inflight.get_mut(&key) {
            Some(chain) => {
                let newest = std::mem::replace(&mut chain.1, seq);
                self.pending[(newest - self.front_seq) as usize].next = seq;
            }
            None => {
                self.inflight.insert(key, (seq, seq));
            }
        }
        self.pending.push_back(Pending {
            event: IoEvent::new(
                Timestamp::from_nanos(record.time_ns),
                record.pid,
                record.op,
                extent,
                self.default_latency,
            ),
            key,
            next: seq,
            resolved: false,
        });
        Ok(())
    }

    /// Resolves the oldest unresolved issue of the record's key.
    /// Orphan completions are dropped, as blkparse does.
    fn complete(&mut self, record: &BlktraceRecord) {
        let key = (record.sector, record.blocks, record.pid);
        let Some(&(oldest, _)) = self.inflight.get(&key) else {
            return;
        };
        let pending = &mut self.pending[(oldest - self.front_seq) as usize];
        let issued = pending.event.timestamp.as_nanos();
        pending.event.latency = Duration::from_nanos(record.time_ns.saturating_sub(issued));
        pending.resolved = true;
        unlink_oldest(&mut self.inflight, key, pending.next);
    }
}

/// Drops the oldest issue from `key`'s chain, whose successor is
/// `next`, and drops the key once its chain is empty.
fn unlink_oldest(inflight: &mut FxHashMap<PairKey, (u64, u64)>, key: PairKey, next: u64) {
    let chain = inflight.get_mut(&key).expect("unresolved issue is indexed");
    if chain.0 == chain.1 {
        inflight.remove(&key);
    } else {
        chain.0 = next;
    }
}

impl<R: Read> EventSource for BlktraceEventSource<R> {
    fn next_event(&mut self) -> io::Result<Option<IoEvent>> {
        loop {
            // Emit whenever the front issue's latency is settled, or
            // the window overflows (its completion is too far away to
            // wait for — fall back to the default latency).
            if let Some(front) = self.pending.front() {
                if front.resolved || self.pending.len() > self.max_inflight || self.done {
                    return Ok(Some(self.emit_front()));
                }
            } else if self.done {
                return Ok(None);
            }
            match self.records.next_record()? {
                None => self.done = true,
                Some(record) => match record.action {
                    Action::Issue => self.issue(&record)?,
                    Action::Complete => self.complete(&record),
                },
            }
        }
    }
}

/// How [`replay`] paces events into the pipeline.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum ReplayPacing {
    /// Push events as fast as they decode — the throughput experiment.
    FullSpeed,
    /// Honor recorded timestamps compressed by `speedup` (the paper's
    /// accelerated replay): event at trace time *t* is pushed no
    /// earlier than wall time *t / speedup* after the first event.
    Recorded { speedup: f64 },
}

/// What [`replay`] measured.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct ReplayStats {
    /// Events pushed into the pipeline.
    pub events: u64,
    /// Wall-clock seconds for the whole replay (decode + push + any
    /// pacing waits).
    pub elapsed_secs: f64,
}

impl ReplayStats {
    /// Sustained event rate of the replay.
    pub fn events_per_sec(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.events as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }
}

/// Drives `pipeline` from `source` until end of stream. The pipeline is
/// *not* finished — the caller keeps it and can replay further sources
/// into it before harvesting the analyzer.
///
/// # Errors
///
/// Propagates the first decode/read error; events already pushed stay
/// pushed.
pub fn replay<S: EventSource>(
    source: &mut S,
    pipeline: &mut IngestPipeline,
    pacing: ReplayPacing,
) -> io::Result<ReplayStats> {
    let start = Instant::now();
    let mut events = 0u64;
    let mut base: Option<Timestamp> = None;
    while let Some(event) = source.next_event()? {
        if let ReplayPacing::Recorded { speedup } = pacing {
            let base = *base.get_or_insert(event.timestamp);
            let due = event
                .timestamp
                .saturating_since(base)
                .div_f64(speedup.max(1e-9));
            let now = start.elapsed();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        pipeline.push(event);
        events += 1;
    }
    pipeline.flush_batch();
    Ok(ReplayStats {
        events,
        elapsed_secs: start.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blktrace::{read_events, write_trace};
    use rtdac_types::{IoOp, IoRequest, Trace};

    fn sample_trace(n: u64) -> Trace {
        let mut trace = Trace::new("t");
        for i in 0..n {
            trace.push(
                IoRequest::new(
                    Timestamp::from_micros(i * 50),
                    7,
                    if i % 3 == 0 { IoOp::Write } else { IoOp::Read },
                    Extent::new((i % 17) * 64, 8).unwrap(),
                )
                .with_latency(Duration::from_micros(120 + (i % 9) * 10)),
            );
        }
        trace
    }

    fn drain<R: Read>(mut source: BlktraceEventSource<R>) -> Vec<IoEvent> {
        let mut events = Vec::new();
        while let Some(event) = source.next_event().unwrap() {
            events.push(event);
        }
        events
    }

    #[test]
    fn streaming_matches_oracle_exactly() {
        let trace = sample_trace(500);
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let oracle = read_events(buf.as_slice(), Duration::from_micros(9)).unwrap();
        let streamed = drain(BlktraceEventSource::new(
            buf.as_slice(),
            Duration::from_micros(9),
        ));
        assert_eq!(streamed, oracle);
    }

    #[test]
    fn straddling_records_decode_exactly() {
        // A chunk size that is not a multiple of RECORD_BYTES forces a
        // partial record at (almost) every refill.
        let trace = sample_trace(300);
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let oracle = read_events(buf.as_slice(), Duration::ZERO).unwrap();
        for chunk in [RECORD_BYTES + 1, 57, 97, 41] {
            let streamed = drain(BlktraceEventSource::with_limits(
                buf.as_slice(),
                Duration::ZERO,
                chunk,
                DEFAULT_MAX_INFLIGHT,
            ));
            assert_eq!(streamed, oracle, "chunk {chunk}");
        }
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let trace = sample_trace(20);
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        let mut source = BlktraceEventSource::new(buf.as_slice(), Duration::ZERO);
        let err = loop {
            match source.next_event() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("truncation went unnoticed"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn overflowing_window_falls_back_to_default_latency() {
        // Three identical issues, completions only after all of them:
        // with max_inflight=1 the first issues overflow and take the
        // default latency; the last pairs normally.
        let mut records = Vec::new();
        for i in 0..3u64 {
            records.extend_from_slice(
                &BlktraceRecord {
                    time_ns: i * 1_000,
                    sector: 64,
                    blocks: 8,
                    pid: 1,
                    action: Action::Issue,
                    op: IoOp::Read,
                }
                .encode(),
            );
        }
        for i in 0..3u64 {
            records.extend_from_slice(
                &BlktraceRecord {
                    time_ns: 10_000 + i * 1_000,
                    sector: 64,
                    blocks: 8,
                    pid: 1,
                    action: Action::Complete,
                    op: IoOp::Read,
                }
                .encode(),
            );
        }
        let events = drain(BlktraceEventSource::with_limits(
            records.as_slice(),
            Duration::from_micros(1),
            DEFAULT_CHUNK_BYTES,
            1,
        ));
        assert_eq!(events.len(), 3);
        // With a window of 1, the first two issues are forced out
        // before their completions arrive.
        assert_eq!(events[0].latency, Duration::from_micros(1));
        assert_eq!(events[1].latency, Duration::from_micros(1));
        // The last issue is still pending at EOF drain time, and its
        // completion arrived before the stream ended.
        assert_eq!(events[2].latency, Duration::from_micros(8));
    }

    /// The earlier pairing rule, kept as the model the in-flight index
    /// must match: a per-key FIFO of every unresolved issue's sequence
    /// number that is never pruned, with issues force-emitted past the
    /// window skipped lazily when a completion reaches them.
    fn model_pairing(
        records: &[BlktraceRecord],
        default_latency: Duration,
        max_inflight: usize,
    ) -> Vec<IoEvent> {
        let max_inflight = max_inflight.max(1);
        let mut out = Vec::new();
        let mut pending: VecDeque<(IoEvent, bool)> = VecDeque::new();
        let mut front_seq = 0u64;
        let mut inflight: std::collections::HashMap<PairKey, VecDeque<u64>> =
            std::collections::HashMap::new();
        let mut records = records.iter();
        let mut done = false;
        loop {
            if let Some(&(event, resolved)) = pending.front() {
                if resolved || pending.len() > max_inflight || done {
                    out.push(event);
                    pending.pop_front();
                    front_seq += 1;
                    continue;
                }
            } else if done {
                return out;
            }
            let Some(record) = records.next() else {
                done = true;
                continue;
            };
            let key = (record.sector, record.blocks, record.pid);
            match record.action {
                Action::Issue => {
                    let seq = front_seq + pending.len() as u64;
                    let event = IoEvent::new(
                        Timestamp::from_nanos(record.time_ns),
                        record.pid,
                        record.op,
                        Extent::new(record.sector, record.blocks.max(1)).unwrap(),
                        default_latency,
                    );
                    pending.push_back((event, false));
                    inflight.entry(key).or_default().push_back(seq);
                }
                Action::Complete => {
                    if let Some(queue) = inflight.get_mut(&key) {
                        while queue.front().is_some_and(|&s| s < front_seq) {
                            queue.pop_front();
                        }
                        if let Some(seq) = queue.pop_front() {
                            let (event, resolved) = &mut pending[(seq - front_seq) as usize];
                            event.latency =
                                Duration::from_nanos(record.time_ns - event.timestamp.as_nanos());
                            *resolved = true;
                        }
                    }
                }
            }
        }
    }

    /// A record stream that exercises every pairing case: a key space
    /// of 36 keys, so one `(sector, blocks, pid)` is often in flight
    /// several times; completions of a random outstanding issue, so
    /// they arrive out of order (and, under a small window, after their
    /// issue was force-emitted); and orphan completions of keys never
    /// issued.
    fn random_records(rng: &mut rtdac_workloads::Pcg32, n: usize) -> Vec<BlktraceRecord> {
        let mut outstanding: Vec<PairKey> = Vec::new();
        let mut records = Vec::with_capacity(n);
        let mut time_ns = 0u64;
        while records.len() < n {
            time_ns += rng.gen_range(1..2_000u64);
            let roll = rng.gen_range(0..100u32);
            let (key, action) = if roll < 50 || outstanding.is_empty() {
                let key = (
                    rng.gen_range(0..6u64) * 8,
                    rng.gen_range(0..3u32),
                    rng.gen_range(1..3u32),
                );
                outstanding.push(key);
                (key, Action::Issue)
            } else if roll < 93 {
                let at = rng.gen_range(0..outstanding.len());
                (outstanding.swap_remove(at), Action::Complete)
            } else {
                ((1 << 40, 8, rng.gen_range(1..3u32)), Action::Complete)
            };
            records.push(BlktraceRecord {
                time_ns,
                sector: key.0,
                blocks: key.1,
                pid: key.2,
                action,
                op: if roll.is_multiple_of(2) {
                    IoOp::Read
                } else {
                    IoOp::Write
                },
            });
        }
        records
    }

    #[test]
    fn inflight_index_pairs_exactly_like_the_per_key_fifo_model() {
        let latency = Duration::from_micros(3);
        let mut forced = 0usize;
        for seed in 0..8u64 {
            let mut rng = rtdac_workloads::Pcg32::seed_from_u64(seed);
            let records = random_records(&mut rng, 3_000);
            let mut bytes = Vec::with_capacity(records.len() * RECORD_BYTES);
            for record in &records {
                bytes.extend_from_slice(&record.encode());
            }
            for max_inflight in [1, 2, 3, 8, 64 * 1024] {
                let model = model_pairing(&records, latency, max_inflight);
                if max_inflight == 64 * 1024 {
                    // Nothing is forced out of a window this wide: the
                    // model is the materializing oracle.
                    assert_eq!(model, read_events(bytes.as_slice(), latency).unwrap());
                }
                for chunk in [41, 97, 64 * 1024] {
                    let mut source = BlktraceEventSource::with_limits(
                        bytes.as_slice(),
                        latency,
                        chunk,
                        max_inflight,
                    );
                    let mut streamed = Vec::with_capacity(model.len());
                    while let Some(event) = source.next_event().unwrap() {
                        streamed.push(event);
                        // The index holds unresolved issues only.
                        assert!(source.inflight.len() <= source.pending.len());
                        assert!(source.pending.len() <= max_inflight + 1);
                    }
                    assert_eq!(
                        streamed, model,
                        "seed {seed}, max_inflight {max_inflight}, chunk {chunk}"
                    );
                    assert!(source.inflight.is_empty(), "index leaked keys");
                }
                forced += model.iter().filter(|e| e.latency == latency).count();
            }
        }
        assert!(forced > 0, "no issue was ever emitted unresolved");
    }

    #[test]
    fn reader_counts_records_and_bytes() {
        let trace = sample_trace(10);
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let mut reader = BlktraceReader::with_chunk_bytes(buf.as_slice(), 64);
        while reader.next_record().unwrap().is_some() {}
        assert_eq!(reader.records(), 20); // 10 issues + 10 completes
        assert_eq!(reader.bytes_read(), buf.len() as u64);
    }
}

//! The `rtdacd` wire protocol: one length-prefixed framed codec for
//! both ingest and queries, std-only on both ends.
//!
//! Every frame is `magic(u32 LE) | kind(u8) | len(u32 LE) | payload`.
//! Ingest frames carry raw bytes of the blktrace binary codec (the
//! daemon feeds them straight into `BlktraceEventSource`'s chunked
//! decoder — the trace format *is* the wire format, so a fitted trace
//! file can be streamed with no re-encoding). Query frames are
//! answered from each tenant's `LiveView` and reply with the typed
//! payloads below.
//!
//! Robustness contract at the socket boundary: a frame with a bad
//! magic, an unknown kind or an oversized length is a protocol error —
//! the server drops the connection without reading further, and the
//! tenant's pipeline stays consistent (a partially-ingested stream is
//! still a valid prefix). [`MAX_FRAME_BYTES`] bounds per-connection
//! buffering, so a hostile length prefix cannot balloon memory.

use std::io::{self, Read, Write};

use crate::extent::{Extent, ExtentPair};

/// First field of every frame, chosen to collide with neither the
/// blktrace record magic nor plausible ASCII line protocols.
pub const WIRE_MAGIC: u32 = 0x7264_6163; // "rdac" LE

/// Upper bound on a frame payload; longer length prefixes are
/// rejected before any allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Bytes of the fixed frame header.
pub const HEADER_BYTES: usize = 9;

/// Frame discriminants. Requests (client → server) are < 64,
/// responses (server → client) are >= 64.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Bind this connection to a tenant id (payload: UTF-8 id).
    /// Admits the tenant if new. Reply: `Ack` or `Error`.
    Open = 1,
    /// Raw blktrace-codec bytes for the bound tenant (any length,
    /// including mid-record splits — the decoder reassembles).
    /// Reply: `Ack` carrying the cumulative event count (u64).
    Ingest = 2,
    /// Force the bound tenant's open batch out to the shards.
    /// Reply: `Ack`.
    Flush = 3,
    /// End of this connection's ingest stream: drain in-flight
    /// pairing state, flush the monitor's open window, and publish
    /// the live view up to the final batch. Reply: `Ack` carrying the
    /// total event count (u64). Queries after `IngestEnd` see every
    /// ingested event.
    IngestEnd = 4,
    /// Top-k correlated pairs (payload: k as u32). Reply: `Pairs`.
    QueryTopK = 5,
    /// All pairs with tally >= min (payload: u32). Reply: `Pairs`.
    QueryFrequent = 6,
    /// Point query for one pair's tally (payload: two extents).
    /// Reply: `Tally`.
    QueryPair = 7,
    /// The bound tenant's pipeline counters. Reply: `Stats`.
    QueryStats = 8,
    /// Registered tenant ids. Reply: `TenantList`.
    ListTenants = 9,
    /// Evict a tenant by id (payload: UTF-8 id). Reply: `Ack`.
    Evict = 10,
    /// Stop the daemon (drains every tenant). Reply: `Ack`.
    Shutdown = 11,
    /// Success; payload is command-specific (often empty).
    Ack = 64,
    /// `count(u32)` then `start(u64) len(u32) start(u64) len(u32)
    /// tally(u32)` per pair.
    Pairs = 65,
    /// `present(u8)` then `tally(u32)`.
    Tally = 66,
    /// Pipeline counters, see [`WireStats`].
    Stats = 67,
    /// `count(u32)` then `len(u32) | UTF-8 bytes` per id.
    TenantList = 68,
    /// UTF-8 error message; the server closes the connection after
    /// protocol errors but keeps it open after command errors.
    Error = 69,
}

impl FrameKind {
    fn from_u8(kind: u8) -> Option<FrameKind> {
        use FrameKind::*;
        Some(match kind {
            1 => Open,
            2 => Ingest,
            3 => Flush,
            4 => IngestEnd,
            5 => QueryTopK,
            6 => QueryFrequent,
            7 => QueryPair,
            8 => QueryStats,
            9 => ListTenants,
            10 => Evict,
            11 => Shutdown,
            64 => Ack,
            65 => Pairs,
            66 => Tally,
            67 => Stats,
            68 => TenantList,
            69 => Error,
            _ => return None,
        })
    }
}

/// One decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The discriminant.
    pub kind: FrameKind,
    /// The raw payload (interpretation is kind-specific).
    pub payload: Vec<u8>,
}

/// Decode/transport failures.
#[derive(Debug)]
pub enum WireError {
    /// Underlying transport failure (including EOF mid-frame).
    Io(io::Error),
    /// The frame did not start with [`WIRE_MAGIC`].
    BadMagic(u32),
    /// The kind byte is not a known [`FrameKind`].
    UnknownKind(u8),
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversized(usize),
    /// A payload failed its kind-specific decode.
    Malformed(&'static str),
    /// The server answered with an `Error` frame (command-level).
    Remote(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Oversized(len) => {
                write!(f, "frame length {len} exceeds {MAX_FRAME_BYTES}")
            }
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::Remote(msg) => write!(f, "server error: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Writes one frame (header + payload) to `w`.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_BYTES`] — the caller sizes
/// outbound payloads, so an oversized one is a programming error.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> io::Result<()> {
    assert!(payload.len() <= MAX_FRAME_BYTES, "oversized outbound frame");
    let mut header = [0u8; HEADER_BYTES];
    header[0..4].copy_from_slice(&WIRE_MAGIC.to_le_bytes());
    header[4] = kind as u8;
    header[5..9].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)
}

/// Reads one frame from `r`, validating magic, kind and length before
/// the payload is buffered. Errors other than command-level `Remote`
/// leave the stream position undefined — drop the connection.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    let mut payload = Vec::new();
    let kind = read_frame_into(r, &mut payload)?;
    Ok(Frame { kind, payload })
}

/// [`read_frame`] into a caller-owned buffer: `payload` is overwritten
/// with the frame's payload, so a reader that reuses one buffer
/// allocates only when a frame outgrows every earlier one. An oversized
/// length is rejected before `payload` is touched.
pub fn read_frame_into(r: &mut impl Read, payload: &mut Vec<u8>) -> Result<FrameKind, WireError> {
    let mut header = [0u8; HEADER_BYTES];
    r.read_exact(&mut header)?;
    let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let kind = FrameKind::from_u8(header[4]).ok_or(WireError::UnknownKind(header[4]))?;
    let len = u32::from_le_bytes(header[5..9].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized(len));
    }
    payload.clear();
    payload.resize(len, 0);
    r.read_exact(payload)?;
    Ok(kind)
}

// ---------------------------------------------------------------------
// Typed payload codecs (all little-endian, no padding).
// ---------------------------------------------------------------------

struct Cursor<'a> {
    bytes: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.bytes.len() < n {
            return Err(WireError::Malformed(what));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    fn extent(&mut self, what: &'static str) -> Result<Extent, WireError> {
        let start = self.u64(what)?;
        let len = self.u32(what)?;
        Extent::new(start, len).map_err(|_| WireError::Malformed(what))
    }

    fn done(&self, what: &'static str) -> Result<(), WireError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed(what))
        }
    }
}

fn put_extent(out: &mut Vec<u8>, extent: Extent) {
    out.extend_from_slice(&extent.start().to_le_bytes());
    out.extend_from_slice(&extent.len().to_le_bytes());
}

/// Encodes a `Pairs` payload.
pub fn encode_pairs(pairs: &[(ExtentPair, u32)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + pairs.len() * 28);
    out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for (pair, tally) in pairs {
        put_extent(&mut out, pair.first());
        put_extent(&mut out, pair.second());
        out.extend_from_slice(&tally.to_le_bytes());
    }
    out
}

/// Decodes a `Pairs` payload.
pub fn decode_pairs(payload: &[u8]) -> Result<Vec<(ExtentPair, u32)>, WireError> {
    let mut c = Cursor { bytes: payload };
    let count = c.u32("pair count")? as usize;
    if count > MAX_FRAME_BYTES / 28 {
        return Err(WireError::Malformed("pair count"));
    }
    let mut pairs = Vec::with_capacity(count);
    for _ in 0..count {
        let first = c.extent("pair extent")?;
        let second = c.extent("pair extent")?;
        let tally = c.u32("pair tally")?;
        let pair = ExtentPair::new(first, second).map_err(|_| WireError::Malformed("pair"))?;
        pairs.push((pair, tally));
    }
    c.done("pairs payload")?;
    Ok(pairs)
}

/// Encodes a `QueryPair` payload (two extents).
pub fn encode_pair_query(pair: ExtentPair) -> Vec<u8> {
    let mut out = Vec::with_capacity(24);
    put_extent(&mut out, pair.first());
    put_extent(&mut out, pair.second());
    out
}

/// Decodes a `QueryPair` payload.
pub fn decode_pair_query(payload: &[u8]) -> Result<ExtentPair, WireError> {
    let mut c = Cursor { bytes: payload };
    let first = c.extent("query extent")?;
    let second = c.extent("query extent")?;
    c.done("pair query payload")?;
    ExtentPair::new(first, second).map_err(|_| WireError::Malformed("identical extents"))
}

/// Pipeline counters crossing the wire in a `Stats` reply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Block-layer events the tenant has ingested.
    pub events: u64,
    /// Transactions dispatched toward the shards.
    pub transactions: u64,
    /// Batches dispatched (the epoch clock).
    pub batches: u64,
    /// Epoch the live view has folded up to.
    pub view_epoch: u64,
    /// Whether the tenant is currently parked.
    pub parked: bool,
}

/// Encodes a `Stats` payload.
pub fn encode_stats(stats: &WireStats) -> Vec<u8> {
    let mut out = Vec::with_capacity(33);
    out.extend_from_slice(&stats.events.to_le_bytes());
    out.extend_from_slice(&stats.transactions.to_le_bytes());
    out.extend_from_slice(&stats.batches.to_le_bytes());
    out.extend_from_slice(&stats.view_epoch.to_le_bytes());
    out.push(u8::from(stats.parked));
    out
}

/// Decodes a `Stats` payload.
pub fn decode_stats(payload: &[u8]) -> Result<WireStats, WireError> {
    let mut c = Cursor { bytes: payload };
    let stats = WireStats {
        events: c.u64("stats events")?,
        transactions: c.u64("stats transactions")?,
        batches: c.u64("stats batches")?,
        view_epoch: c.u64("stats epoch")?,
        parked: c.u8("stats parked")? != 0,
    };
    c.done("stats payload")?;
    Ok(stats)
}

/// Encodes a `TenantList` payload.
pub fn encode_tenant_list(ids: &[String]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    for id in ids {
        out.extend_from_slice(&(id.len() as u32).to_le_bytes());
        out.extend_from_slice(id.as_bytes());
    }
    out
}

/// Decodes a `TenantList` payload.
pub fn decode_tenant_list(payload: &[u8]) -> Result<Vec<String>, WireError> {
    let mut c = Cursor { bytes: payload };
    let count = c.u32("tenant count")? as usize;
    if count > MAX_FRAME_BYTES / 4 {
        return Err(WireError::Malformed("tenant count"));
    }
    let mut ids = Vec::with_capacity(count);
    for _ in 0..count {
        let len = c.u32("tenant id length")? as usize;
        let bytes = c.take(len, "tenant id")?;
        ids.push(
            std::str::from_utf8(bytes)
                .map_err(|_| WireError::Malformed("tenant id utf-8"))?
                .to_string(),
        );
    }
    c.done("tenant list payload")?;
    Ok(ids)
}

// ---------------------------------------------------------------------
// Client.
// ---------------------------------------------------------------------

/// A synchronous client over any `Read + Write` transport (a
/// `TcpStream` in practice; an in-memory duplex in tests). One
/// request, one response; `Error` replies surface as
/// [`WireError::Remote`].
pub struct WireClient<S: Read + Write> {
    stream: S,
}

impl<S: Read + Write> WireClient<S> {
    /// Wraps a connected transport.
    pub fn new(stream: S) -> Self {
        WireClient { stream }
    }

    /// Consumes the client, returning the transport.
    pub fn into_inner(self) -> S {
        self.stream
    }

    fn call(&mut self, kind: FrameKind, payload: &[u8]) -> Result<Frame, WireError> {
        write_frame(&mut self.stream, kind, payload)?;
        self.stream.flush()?;
        let frame = read_frame(&mut self.stream)?;
        if frame.kind == FrameKind::Error {
            return Err(WireError::Remote(
                String::from_utf8_lossy(&frame.payload).into_owned(),
            ));
        }
        Ok(frame)
    }

    fn expect(
        &mut self,
        kind: FrameKind,
        payload: &[u8],
        want: FrameKind,
    ) -> Result<Frame, WireError> {
        let frame = self.call(kind, payload)?;
        if frame.kind != want {
            return Err(WireError::Malformed("unexpected response kind"));
        }
        Ok(frame)
    }

    /// Binds this connection to `tenant` (admitting it if new).
    pub fn open(&mut self, tenant: &str) -> Result<(), WireError> {
        self.expect(FrameKind::Open, tenant.as_bytes(), FrameKind::Ack)?;
        Ok(())
    }

    /// Streams raw blktrace-codec bytes; returns the tenant's
    /// cumulative event count. Chunks larger than a frame are split.
    pub fn ingest(&mut self, bytes: &[u8]) -> Result<u64, WireError> {
        let mut events = 0;
        for chunk in bytes.chunks(MAX_FRAME_BYTES.min(256 * 1024)) {
            let frame = self.expect(FrameKind::Ingest, chunk, FrameKind::Ack)?;
            let mut c = Cursor {
                bytes: &frame.payload,
            };
            events = c.u64("ingest ack")?;
        }
        Ok(events)
    }

    /// Flushes the bound tenant's open batch.
    pub fn flush(&mut self) -> Result<(), WireError> {
        self.expect(FrameKind::Flush, &[], FrameKind::Ack)?;
        Ok(())
    }

    /// Ends the ingest stream; after this, queries see every event.
    pub fn end_ingest(&mut self) -> Result<u64, WireError> {
        let frame = self.expect(FrameKind::IngestEnd, &[], FrameKind::Ack)?;
        let mut c = Cursor {
            bytes: &frame.payload,
        };
        c.u64("ingest-end ack")
    }

    /// Top-k correlated pairs from the bound tenant's live view.
    pub fn top_k(&mut self, k: u32) -> Result<Vec<(ExtentPair, u32)>, WireError> {
        let frame = self.expect(FrameKind::QueryTopK, &k.to_le_bytes(), FrameKind::Pairs)?;
        decode_pairs(&frame.payload)
    }

    /// All pairs with tally >= `min_tally`.
    pub fn frequent_pairs(&mut self, min_tally: u32) -> Result<Vec<(ExtentPair, u32)>, WireError> {
        let frame = self.expect(
            FrameKind::QueryFrequent,
            &min_tally.to_le_bytes(),
            FrameKind::Pairs,
        )?;
        decode_pairs(&frame.payload)
    }

    /// Point query: one pair's tally, `None` if untracked.
    pub fn pair_tally(&mut self, pair: ExtentPair) -> Result<Option<u32>, WireError> {
        let frame = self.expect(
            FrameKind::QueryPair,
            &encode_pair_query(pair),
            FrameKind::Tally,
        )?;
        let mut c = Cursor {
            bytes: &frame.payload,
        };
        let present = c.u8("tally present")? != 0;
        let tally = c.u32("tally")?;
        Ok(present.then_some(tally))
    }

    /// The bound tenant's pipeline counters.
    pub fn stats(&mut self) -> Result<WireStats, WireError> {
        let frame = self.expect(FrameKind::QueryStats, &[], FrameKind::Stats)?;
        decode_stats(&frame.payload)
    }

    /// Registered tenant ids.
    pub fn tenants(&mut self) -> Result<Vec<String>, WireError> {
        let frame = self.expect(FrameKind::ListTenants, &[], FrameKind::TenantList)?;
        decode_tenant_list(&frame.payload)
    }

    /// Evicts `tenant` on the server.
    pub fn evict(&mut self, tenant: &str) -> Result<(), WireError> {
        self.expect(FrameKind::Evict, tenant.as_bytes(), FrameKind::Ack)?;
        Ok(())
    }

    /// Asks the daemon to drain every tenant and exit.
    pub fn shutdown(&mut self) -> Result<(), WireError> {
        self.expect(FrameKind::Shutdown, &[], FrameKind::Ack)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(kind: FrameKind, payload: &[u8]) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, kind, payload).unwrap();
        read_frame(&mut io::Cursor::new(buf)).unwrap()
    }

    #[test]
    fn frames_roundtrip() {
        let frame = roundtrip(FrameKind::Open, b"tenant-a");
        assert_eq!(frame.kind, FrameKind::Open);
        assert_eq!(frame.payload, b"tenant-a");
        assert_eq!(roundtrip(FrameKind::Flush, &[]).payload, b"");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Ack, &[]).unwrap();
        buf[0] ^= 0xff;
        assert!(matches!(
            read_frame(&mut io::Cursor::new(buf)),
            Err(WireError::BadMagic(_))
        ));
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Ack, &[]).unwrap();
        buf[4] = 200;
        assert!(matches!(
            read_frame(&mut io::Cursor::new(buf)),
            Err(WireError::UnknownKind(200))
        ));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Ingest, &[]).unwrap();
        buf[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut io::Cursor::new(buf)),
            Err(WireError::Oversized(_))
        ));
    }

    #[test]
    fn frames_read_into_one_reused_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Ingest, &[7; 300]).unwrap();
        write_frame(&mut wire, FrameKind::Open, b"tenant").unwrap();
        write_frame(&mut wire, FrameKind::Ingest, &[]).unwrap();
        let mut r = io::Cursor::new(wire);
        let mut payload = Vec::new();
        assert_eq!(
            read_frame_into(&mut r, &mut payload).unwrap(),
            FrameKind::Ingest
        );
        assert_eq!(payload, [7; 300]);
        let buffer = payload.as_ptr();
        assert_eq!(
            read_frame_into(&mut r, &mut payload).unwrap(),
            FrameKind::Open
        );
        assert_eq!(payload, b"tenant");
        assert_eq!(
            read_frame_into(&mut r, &mut payload).unwrap(),
            FrameKind::Ingest
        );
        assert!(payload.is_empty());
        assert_eq!(payload.as_ptr(), buffer, "a smaller frame reallocated");
    }

    #[test]
    fn oversized_length_leaves_the_buffer_untouched() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Ingest, &[]).unwrap();
        wire[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut payload = b"kept".to_vec();
        assert!(matches!(
            read_frame_into(&mut io::Cursor::new(wire), &mut payload),
            Err(WireError::Oversized(_))
        ));
        assert_eq!(payload, b"kept");
    }

    #[test]
    fn truncated_frame_is_an_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Open, b"tenant").unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_frame(&mut io::Cursor::new(buf)),
            Err(WireError::Io(_))
        ));
    }

    #[test]
    fn pairs_payload_roundtrips() {
        let pair = |a: u64, b: u64| {
            ExtentPair::new(Extent::new(a, 8).unwrap(), Extent::new(b, 4).unwrap()).unwrap()
        };
        let pairs = vec![(pair(1, 900), 42), (pair(5, 6), 7)];
        assert_eq!(decode_pairs(&encode_pairs(&pairs)).unwrap(), pairs);
        assert!(decode_pairs(&encode_pairs(&pairs)[..10]).is_err());
    }

    #[test]
    fn stats_and_tenant_list_roundtrip() {
        let stats = WireStats {
            events: 1,
            transactions: 2,
            batches: 3,
            view_epoch: 4,
            parked: true,
        };
        assert_eq!(decode_stats(&encode_stats(&stats)).unwrap(), stats);
        let ids = vec!["a".to_string(), "tenant-b".to_string()];
        assert_eq!(decode_tenant_list(&encode_tenant_list(&ids)).unwrap(), ids);
        assert!(decode_tenant_list(&[0, 0, 0]).is_err());
    }

    #[test]
    fn pair_query_roundtrips_and_canonicalizes() {
        let a = Extent::new(900, 4).unwrap();
        let b = Extent::new(1, 8).unwrap();
        let pair = ExtentPair::new(a, b).unwrap();
        let decoded = decode_pair_query(&encode_pair_query(pair)).unwrap();
        assert_eq!(decoded, pair);
    }
}

//! Property tests for the `.rtdac` columnar codec: arbitrary traces
//! must round-trip bit-exactly through encode → decode at any block
//! size, and corrupted or truncated files must fail loudly rather than
//! yield wrong records.

use std::io::ErrorKind;
use std::time::Duration;

use rtdac_check::prelude::*;
use rtdac_types::{
    read_trace_columnar, ColumnarWriter, Extent, IoOp, IoRequest, RequestSource, Timestamp, Trace,
    COLFMT_HEADER_BYTES,
};

/// An arbitrary timestamp-ordered trace: gaps, sectors, lengths, pids,
/// ops and optional latencies all fuzzed, including zero gaps and
/// repeated extents.
fn trace_strategy() -> impl Strategy<Value = Trace> {
    prop::collection::vec(
        (
            0u64..5_000,                            // time gap (ns)
            0u64..1 << 40,                          // sector
            1u32..1 << 20,                          // blocks
            0u32..64,                               // pid
            prop::bool::ANY,                        // write?
            prop::option::of(0u64..30_000_000_000), // latency (ns)
        ),
        0..300,
    )
    .prop_map(|raw| {
        let mut trace = Trace::new("prop");
        let mut t = 0u64;
        for (gap, sector, blocks, pid, is_write, latency) in raw {
            t += gap;
            let mut req = IoRequest::new(
                Timestamp::from_nanos(t),
                pid,
                if is_write { IoOp::Write } else { IoOp::Read },
                Extent::new(sector, blocks).expect("valid extent"),
            );
            if let Some(ns) = latency {
                req = req.with_latency(Duration::from_nanos(ns));
            }
            trace.push(req);
        }
        trace
    })
}

fn encode(trace: &Trace, block_records: usize) -> Vec<u8> {
    let mut writer = ColumnarWriter::with_block_records(Vec::new(), block_records);
    for request in trace {
        writer.push(request).expect("in-memory write");
    }
    writer.finish().expect("in-memory finish").0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Encode → decode is the identity on requests, at every block
    /// framing (1 record per block up to everything in one block).
    #[test]
    fn round_trip_is_bit_exact(trace in trace_strategy(), block in 1usize..128) {
        let bytes = encode(&trace, block);
        let back = read_trace_columnar("prop", bytes.as_slice()).expect("well-formed");
        prop_assert_eq!(back.requests(), trace.requests());
    }

    /// The streaming reader agrees with the materializing one record by
    /// record (same decode loop, but exercised through the trait).
    #[test]
    fn streaming_reader_agrees(trace in trace_strategy(), block in 1usize..64) {
        let bytes = encode(&trace, block);
        let mut source = rtdac_types::ColumnarReader::new(bytes.as_slice());
        let mut n = 0usize;
        while let Some(request) = source.next_request().expect("well-formed") {
            prop_assert_eq!(request, trace.requests()[n]);
            n += 1;
        }
        prop_assert_eq!(n, trace.len());
    }

    /// Any strict prefix of a non-empty file fails with UnexpectedEof —
    /// never a silent short read, never a wrong record.
    #[test]
    fn truncation_always_detected(trace in trace_strategy(), block in 1usize..64, frac in 0.0f64..1.0) {
        let bytes = encode(&trace, block);
        prop_assume!(!trace.is_empty());
        let cut = ((bytes.len() as f64 * frac) as usize).min(bytes.len() - 1);
        match read_trace_columnar("prop", &bytes[..cut]) {
            // A cut exactly on a block boundary is a valid shorter file:
            // the decoded prefix must still be exact.
            Ok(prefix) => {
                prop_assert_eq!(prefix.requests(), &trace.requests()[..prefix.len()]);
            }
            Err(e) => prop_assert_eq!(e.kind(), ErrorKind::UnexpectedEof),
        }
    }

    /// Corrupting any single header byte of the magic/version is
    /// InvalidData.
    #[test]
    fn corrupt_magic_rejected(trace in trace_strategy(), byte in 0usize..5, bit in 0u8..8) {
        let mut bytes = encode(&trace, 32);
        prop_assume!(bytes.len() >= COLFMT_HEADER_BYTES);
        bytes[byte] ^= 1 << bit;
        let err = read_trace_columnar("prop", bytes.as_slice()).expect_err("corrupt header");
        prop_assert_eq!(err.kind(), ErrorKind::InvalidData);
    }
}

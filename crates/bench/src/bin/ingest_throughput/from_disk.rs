//! The from-disk sweep: the zero-copy streaming readers and the columnar
//! format against the in-memory pipeline.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use rtdac_bench::sweep::{self, env_or, median, Criterion, Obj};
use rtdac_monitor::{
    blktrace, replay, BlktraceEventSource, IngestPipeline, MonitorConfig, PipelineConfig,
    ReplayPacing, DEFAULT_CHUNK_BYTES, DEFAULT_MAX_INFLIGHT,
};
use rtdac_synopsis::AnalyzerConfig;
use rtdac_types::{
    write_trace_columnar, ColumnarReader, EventSource, IoEvent, MsrCsvReader, RequestEvents,
    RequestSource, Trace,
};
use rtdac_workloads::{MsrServer, WorkloadFit};

use crate::{Sweep, BATCH_SIZE, RING_CAPACITY};

/// Columnar file-size ceiling: on MSR-like streams a `.rtdac` file must
/// be at most half the size of the blktrace binary equivalent — the
/// format exists to make week-long captures shippable.
const COLUMNAR_SIZE_CEILING: f64 = 0.5;
/// Blktrace chunk size used by the exactness pass alongside the
/// default: odd, so no refill aligns with the 40-byte record grid and
/// nearly every one leaves a straddling partial record.
const ODD_CHUNK_BYTES: usize = 4_091;

/// One on-disk format's size and streaming-decode figures.
struct DiskFormat {
    name: &'static str,
    bytes: u64,
    decode_secs: f64,
}

/// Writes one fitted MSR-like stream in all three formats, proves the
/// streaming readers event-exact against their materializing oracles,
/// then times streaming decode per format, the in-memory pipeline (2
/// shards, routed) the columnar decoder must outrun, and end-to-end
/// replay from the columnar file.
///
/// The input is synthesized through [`WorkloadFit`] — src2's marginals
/// fitted and replayed at bench length — so the multi-GB-shaped input is
/// reproducible from a dozen fitted parameters instead of a shipped
/// capture. `RTDAC_DISK_REQUESTS` overrides the length.
pub(crate) fn run(smoke: bool, seed: u64, repeat: usize, config: &AnalyzerConfig) -> Sweep {
    let requests = env_or("RTDAC_DISK_REQUESTS", if smoke { 4_000 } else { 400_000 }) as usize;
    let default_latency = Duration::from_micros(100);

    let fit = WorkloadFit::from_trace(&MsrServer::Src2.synthesize(20_000, seed));
    let trace = fit.synthesize(requests, seed);

    let dir = std::env::temp_dir().join(format!("rtdac_from_disk_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench scratch dir");
    let blk_path = dir.join("fitted.blk");
    let col_path = dir.join("fitted.rtdac");
    let csv_path = dir.join("fitted.csv");
    {
        let mut w = BufWriter::new(File::create(&blk_path).expect("create .blk"));
        blktrace::write_trace(&trace, &mut w).expect("write .blk");
        w.flush().expect("flush .blk");
        let mut w = BufWriter::new(File::create(&col_path).expect("create .rtdac"));
        write_trace_columnar(&trace, &mut w).expect("write .rtdac");
        w.flush().expect("flush .rtdac");
        let mut w = BufWriter::new(File::create(&csv_path).expect("create .csv"));
        trace.write_msr_csv(&mut w).expect("write .csv");
        w.flush().expect("flush .csv");
    }
    let size = |p: &Path| std::fs::metadata(p).expect("stat bench file").len();
    let open = |p: &Path| BufReader::new(File::open(p).expect("open bench file"));

    // Exactness first: every streaming reader against its materializing
    // oracle, the blktrace one additionally at an odd chunk size that
    // makes nearly every refill straddle a record boundary.
    let blk_oracle =
        blktrace::read_events(open(&blk_path), default_latency).expect("blktrace oracle");
    let blk_exact = [DEFAULT_CHUNK_BYTES, ODD_CHUNK_BYTES].iter().all(|&chunk| {
        let mut source = BlktraceEventSource::with_limits(
            open(&blk_path),
            default_latency,
            chunk,
            DEFAULT_MAX_INFLIGHT,
        );
        let mut events = Vec::with_capacity(blk_oracle.len());
        while let Some(event) = source.next_event().expect("streaming blktrace") {
            events.push(event);
        }
        events == blk_oracle
    });
    let col_exact = ColumnarReader::new(open(&col_path))
        .collect_trace("col")
        .expect("streaming columnar")
        .requests()
        == trace.requests();
    let csv_oracle = Trace::read_msr_csv("csv", open(&csv_path)).expect("csv oracle");
    let csv_exact = MsrCsvReader::new(open(&csv_path))
        .collect_trace("csv")
        .expect("streaming csv")
        .requests()
        == csv_oracle.requests();

    // The in-memory event stream the pipeline baseline consumes — what
    // a no-disk harness would replay.
    let events: Vec<IoEvent> = trace
        .iter()
        .map(|r| {
            IoEvent::new(
                r.time,
                r.pid,
                r.op,
                r.extent,
                r.latency.unwrap_or(default_latency),
            )
        })
        .collect();
    let pipeline_config = || {
        PipelineConfig::with_shards(2)
            .batch_size(BATCH_SIZE)
            .ring_capacity(RING_CAPACITY)
    };

    // Interleaved repetitions, median per measurement (same reasoning
    // as the main sweep: spread each config's samples across the run).
    let mut samples: [Vec<f64>; 5] = Default::default();
    for _rep in 0..repeat.max(1) {
        // Streaming blktrace decode (D/C pairing included).
        let start = Instant::now();
        let mut source = BlktraceEventSource::new(open(&blk_path), default_latency);
        let mut n = 0usize;
        while let Some(event) = source.next_event().expect("blk decode") {
            std::hint::black_box(&event);
            n += 1;
        }
        samples[0].push(start.elapsed().as_secs_f64());
        assert_eq!(n, requests, "blktrace decode lost events");

        // Streaming columnar decode.
        let start = Instant::now();
        let mut source = ColumnarReader::new(open(&col_path));
        let mut n = 0usize;
        while let Some(request) = source.next_request().expect("columnar decode") {
            std::hint::black_box(&request);
            n += 1;
        }
        samples[1].push(start.elapsed().as_secs_f64());
        assert_eq!(n, requests, "columnar decode lost requests");

        // Streaming CSV decode.
        let start = Instant::now();
        let mut source = MsrCsvReader::new(open(&csv_path));
        let mut n = 0usize;
        while let Some(request) = source.next_request().expect("csv decode") {
            std::hint::black_box(&request);
            n += 1;
        }
        samples[2].push(start.elapsed().as_secs_f64());
        assert_eq!(n, requests, "csv decode lost requests");

        // In-memory pipeline: the ingest rate the decoder must outrun.
        let mut pipeline =
            IngestPipeline::new(MonitorConfig::default(), config.clone(), pipeline_config());
        let start = Instant::now();
        for event in &events {
            pipeline.push(*event);
        }
        pipeline.flush_batch();
        let analyzer = pipeline.finish();
        samples[3].push(start.elapsed().as_secs_f64());
        std::hint::black_box(analyzer.stats());

        // End-to-end: columnar file -> streaming decode -> pipeline.
        let mut pipeline =
            IngestPipeline::new(MonitorConfig::default(), config.clone(), pipeline_config());
        let mut source = RequestEvents::new(ColumnarReader::new(open(&col_path)), default_latency);
        let start = Instant::now();
        let stats = replay(&mut source, &mut pipeline, ReplayPacing::FullSpeed).expect("replay");
        let analyzer = pipeline.finish();
        samples[4].push(start.elapsed().as_secs_f64());
        assert_eq!(stats.events as usize, requests, "replay lost events");
        std::hint::black_box(analyzer.stats());
    }
    let formats = [
        DiskFormat {
            name: "blktrace",
            bytes: size(&blk_path),
            decode_secs: median(&samples[0]),
        },
        DiskFormat {
            name: "columnar",
            bytes: size(&col_path),
            decode_secs: median(&samples[1]),
        },
        DiskFormat {
            name: "msr_csv",
            bytes: size(&csv_path),
            decode_secs: median(&samples[2]),
        },
    ];
    std::fs::remove_dir_all(&dir).ok();
    let [blk, col, _] = &formats;
    let pipeline_secs = median(&samples[3]);
    let replay_secs = median(&samples[4]);
    let rate = |secs: f64| requests as f64 / secs;
    let columnar_vs_blktrace = col.bytes as f64 / blk.bytes.max(1) as f64;
    let decode_over_pipeline = col.decode_secs / pipeline_secs;

    println!("\n  [from_disk] fitted src2-like stream, {requests} requests");
    for f in &formats {
        println!(
            "  {:<10} {:>10} bytes ({:>6.2} B/req)  decode {:>12.0} ev/s  {:>7.1} MB/s",
            f.name,
            f.bytes,
            f.bytes as f64 / requests.max(1) as f64,
            rate(f.decode_secs),
            f.bytes as f64 / f.decode_secs / 1e6,
        );
    }
    println!(
        "  pipeline (in-memory, 2 shards routed): {:>12.0} ev/s; replay from columnar: \
         {:>12.0} ev/s; decode CPU vs pipeline CPU: {decode_over_pipeline:.2}x",
        rate(pipeline_secs),
        rate(replay_secs),
    );

    let exact = Criterion::holds(
        "from_disk streaming readers event-exact vs their materializing oracles",
        blk_exact && col_exact && csv_exact,
    );
    let size_ceiling = Criterion::at_most(
        "from_disk columnar file size over blktrace",
        columnar_vs_blktrace,
        COLUMNAR_SIZE_CEILING,
    );
    let keeps_up = Criterion::at_most(
        "from_disk columnar decode CPU over in-memory pipeline CPU",
        decode_over_pipeline,
        1.0,
    )
    .full_only(smoke);
    let decode_keeps_up = keeps_up.pass();
    let criteria = vec![exact, size_ceiling, keeps_up];

    let json = Obj::new()
        .field(
            "notes",
            "streaming readers vs materializing oracles on one fitted src2-like stream \
             written in all three formats; decode rows are full streaming decode passes \
             (blktrace includes D/C latency pairing); pipeline is the in-memory 2-shard \
             routed ingest the columnar decoder is gated against; replay is end-to-end \
             columnar file -> streaming decode -> pipeline; exactness gates in smoke mode \
             too, timing gates only in full mode",
        )
        .field("requests", requests)
        .field("source", "workload_fit(src2)")
        .field(
            "formats",
            formats
                .iter()
                .map(|f| {
                    Obj::new()
                        .field("name", f.name)
                        .field("bytes", f.bytes)
                        .num(
                            "bytes_per_request",
                            f.bytes as f64 / requests.max(1) as f64,
                            2,
                        )
                        .num("decode_secs", f.decode_secs, 6)
                        .num("decode_events_per_sec", rate(f.decode_secs), 0)
                        .num("decode_bytes_per_sec", f.bytes as f64 / f.decode_secs, 0)
                })
                .collect::<Vec<_>>(),
        )
        .field(
            "pipeline_in_memory",
            Obj::new()
                .field("shards", 2usize)
                .field("dispatch", "routed")
                .num("elapsed_secs", pipeline_secs, 6)
                .num("events_per_sec", rate(pipeline_secs), 0),
        )
        .field(
            "replay_from_columnar",
            Obj::new().num("elapsed_secs", replay_secs, 6).num(
                "events_per_sec",
                rate(replay_secs),
                0,
            ),
        )
        .num("decode_cpu_over_pipeline_cpu", decode_over_pipeline, 3)
        .num("columnar_over_blktrace_bytes", columnar_vs_blktrace, 3)
        .num("columnar_size_ceiling", COLUMNAR_SIZE_CEILING, 1)
        .field(
            "streaming_exact",
            Obj::new()
                .field("blktrace", blk_exact)
                .field("columnar", col_exact)
                .field("msr_csv", csv_exact),
        )
        .field("columnar_decode_keeps_up_with_pipeline", decode_keeps_up)
        .field("met", sweep::met(&criteria));
    (json, criteria)
}

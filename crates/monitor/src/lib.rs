//! The real-time monitoring module of `rtdac` (§III-B/C of the paper).
//!
//! In the paper this module wraps Linux's *blktrace* to listen for block
//! layer "issue" events; here the event source is any iterator of
//! [`IoEvent`]s (the `rtdac-device` crate's replayer produces them, and a
//! user on Linux can adapt real blktrace output through
//! [`rtdac_types::Trace::read_msr_csv`] or their own converter).
//!
//! The monitor's job is purely structural: group events into
//! [`Transaction`]s by the transaction window, cap transaction size,
//! deduplicate repeats, and filter by PID — everything the paper's
//! monitoring module does between blktrace and the online analyzer.
//!
//! # Examples
//!
//! ```
//! use rtdac_monitor::{Monitor, MonitorConfig, WindowPolicy};
//! use rtdac_types::{Extent, IoEvent, IoOp, Timestamp};
//! use std::time::Duration;
//!
//! let events = (0..4u64).map(|i| IoEvent::new(
//!     Timestamp::from_millis(i * 200),       // 200 ms apart: separate txns
//!     1, IoOp::Read, Extent::new(i * 100, 8).unwrap(),
//!     Duration::from_micros(50),
//! ));
//! let txns = Monitor::new(MonitorConfig::default()).into_transactions(events);
//! assert_eq!(txns.len(), 4);
//! ```
//!
//! [`IoEvent`]: rtdac_types::IoEvent
//! [`Transaction`]: rtdac_types::Transaction

pub mod blktrace;
mod controller;
mod ewma;
mod monitor;
mod pipeline;
pub(crate) mod pool;
mod router;
mod service;
pub mod spsc;
mod stream;
mod tenant;

pub use controller::{AdaptiveController, ControllerConfig, WindowSample};
pub use ewma::LatencyEwma;
pub use monitor::{Monitor, MonitorConfig, MonitorStats, WindowPolicy};
pub use pipeline::{IngestPipeline, PipelineConfig, PipelineStats, ResizeEvent};
pub use router::{RoutedBatch, Router, RouterConfig, RouterStats, SplitConfig, WorkList};
pub use service::{serve, ServiceConfig};
pub use stream::{
    replay, BlktraceEventSource, BlktraceReader, ReplayPacing, ReplayStats, DEFAULT_CHUNK_BYTES,
    DEFAULT_MAX_INFLIGHT,
};
pub use tenant::{Tenant, TenantError, TenantRuntime, TenantRuntimeConfig};

//! The evaluation harness of `rtdac`: one module per table/figure of the
//! paper, each exposing a `run` function that **returns** the
//! paper-matching rows/series as a report `String` and writes CSV under
//! a results directory.
//!
//! Binaries in `src/bin/` are thin wrappers (`table1_workload_stats`,
//! `fig5_correlation_cdf`, …) that print the report; `exp_all` runs all
//! experiments concurrently on the [`pool`] work pool, streaming the
//! reports in the fixed serial order, with per-experiment wall-clock
//! seconds. Shared workloads (synthesized trace → replay → monitor →
//! offline pair counts) are computed once per server through
//! [`support::ExpContext`]'s cache rather than once per figure.
//! The §IV-C4 overhead figures come from the `ablations` (Figs. 12–13)
//! and `fim_throughput` binaries.
//!
//! Scale note: the MSR-like traces are synthesized at a configurable
//! request count (default 40 000, override with the `RTDAC_REQUESTS`
//! environment variable) instead of the week-long originals; table-size
//! sweeps are scaled accordingly. Every harness prints the scale it ran
//! at so numbers are never mistaken for the paper's absolute values.

pub mod experiments;
pub mod pool;
pub mod support;
pub mod sweep;

/// `writeln!` into a report `String`. Formatting into a `String` cannot
/// fail, so the error arm is dropped.
#[macro_export]
macro_rules! outln {
    ($out:expr) => {{
        use ::std::fmt::Write as _;
        let _ = writeln!($out);
    }};
    ($out:expr, $($arg:tt)*) => {{
        use ::std::fmt::Write as _;
        let _ = writeln!($out, $($arg)*);
    }};
}

/// `write!` (no trailing newline) into a report `String`.
#[macro_export]
macro_rules! out {
    ($out:expr, $($arg:tt)*) => {{
        use ::std::fmt::Write as _;
        let _ = write!($out, $($arg)*);
    }};
}

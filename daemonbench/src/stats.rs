//! The benchmark's own arithmetic: tail percentiles under the
//! sample-support rule, visible-lag matching, paced-loop lateness, and
//! `/proc` parsing.
//! Kept free of I/O so every rule is unit-tested.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the value
/// at 1-based rank `ceil(p/100 * n)`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Whether `n` samples support the `p`-th percentile: at least
/// [`MIN_BEYOND`] of them lie beyond it (p95 needs 200 samples).
pub fn supported(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// A timing summary: median, the asked-for tail percentile when the
/// samples support it, and the sample count behind both.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Nearest-rank median.
    pub p50: f64,
    /// Value at [`tail_pct`](Summary::tail_pct); `None` when too few
    /// samples lie beyond it (see [`supported`]). Never a lower
    /// percentile in its place.
    pub tail: Option<f64>,
    /// The percentile `tail` reports.
    pub tail_pct: f64,
    /// Number of samples.
    pub count: usize,
}

/// Summarizes `samples` for a tail metric at percentile `tail_pct`;
/// `None` when there are no samples.
pub fn summarize(samples: &[f64], tail_pct: f64) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        p50: percentile(&sorted, 50.0),
        tail: supported(sorted.len(), tail_pct).then(|| percentile(&sorted, tail_pct)),
        tail_pct,
        count: sorted.len(),
    })
}

/// Median of `samples` (nearest rank); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    summarize(samples, 50.0).map(|s| s.p50)
}

/// One `Stats` reply as the query connection saw it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StatsReply {
    /// When the reply arrived, seconds since the run's origin.
    pub at: f64,
    /// Events the tenant had ingested.
    pub events: u64,
    /// Batches dispatched (the epoch clock).
    pub batches: u64,
    /// Epoch the live view had folded up to.
    pub view_epoch: u64,
}

/// One ingest frame as the ingest connection saw it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrameMark {
    /// When the frame was due, seconds since the run's origin.
    pub due: f64,
    /// Cumulative events acknowledged once this frame was ingested.
    pub events: u64,
}

/// Visible lag of each frame: find the first reply whose `events`
/// covers the frame and read its `batches` as `B`; the lag is the
/// arrival time of the first reply at or after it whose `view_epoch`
/// reaches `B`, minus the frame's due time. `replies` must be in
/// arrival order. Frames no reply resolves are left out.
pub fn visible_lags(frames: &[FrameMark], replies: &[StatsReply]) -> Vec<f64> {
    frames
        .iter()
        .filter_map(|frame| {
            let covering = replies.iter().position(|r| r.events >= frame.events)?;
            let target = replies[covering].batches;
            let visible = replies[covering..]
                .iter()
                .find(|r| r.view_epoch >= target)?;
            Some(visible.at - frame.due)
        })
        .collect()
}

/// When a paced sender actually sends frame `i`: at its due time, or as
/// soon as the previous frame's ack is back if that is later (the client
/// has one request in flight). Returns `(send_at, lateness)`, lateness
/// counted from the due time.
pub fn paced_send(due: f64, previous_ack: f64) -> (f64, f64) {
    let send_at = due.max(previous_ack);
    (send_at, send_at - due)
}

/// User plus system CPU ticks from a `/proc/<pid>/stat` line. Fields are
/// counted after the *last* `)`, since the command name may itself
/// contain spaces and parentheses.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After `comm`: state is field 3 of the line, utime 14, stime 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set (`VmHWM`) in kB from a `/proc/<pid>/status` text.
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// What `rtdacd`'s first line on stdout reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Banner {
    /// The bound listening address.
    pub addr: String,
    /// The tenant cap.
    pub max_tenants: usize,
    /// The per-tenant byte budget, KiB.
    pub budget_kib: usize,
}

/// Parses `rtdacd listening on ADDR (max N tenants, K KiB/tenant)`.
pub fn parse_banner(line: &str) -> Option<Banner> {
    let rest = line.trim_end().strip_prefix("rtdacd listening on ")?;
    let (addr, config) = rest.split_once(" (max ")?;
    let (tenants, budget) = config
        .strip_suffix(" KiB/tenant)")?
        .split_once(" tenants, ")?;
    Some(Banner {
        addr: addr.to_string(),
        max_tenants: tenants.parse().ok()?,
        budget_kib: budget.parse().ok()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(10);
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 200 samples: p95 is rank 190, ten beyond.
        assert_eq!(beyond(200, 95.0), 10);
        assert!(supported(200, 95.0));
        // 199 samples: p95 (rank 190) has only 9 beyond.
        assert_eq!(beyond(199, 95.0), 9);
        assert!(!supported(199, 95.0));
        // p99 needs 1000 samples; the median needs 20.
        assert!(supported(1000, 99.0));
        assert!(!supported(999, 99.0));
        assert!(supported(20, 50.0));
        assert!(!supported(19, 50.0));
    }

    #[test]
    fn summary_reports_percentile_and_count() {
        // Order of input does not matter.
        let mut shuffled = ramp(200);
        shuffled.reverse();
        let s = summarize(&shuffled, 95.0).unwrap();
        assert_eq!(s.count, 200);
        assert_eq!(s.tail_pct, 95.0);
        assert_eq!(s.tail, Some(190.0));
        assert_eq!(s.p50, 100.0);
        // One sample short: the tail is missing, not replaced by a
        // lower percentile; the median and the count remain.
        let s = summarize(&ramp(199), 95.0).unwrap();
        assert_eq!((s.tail, s.tail_pct, s.count), (None, 95.0, 199));
        assert_eq!(s.p50, 100.0);
        assert!(summarize(&[], 95.0).is_none());
    }

    #[test]
    fn visible_lag_matches_hand_written_replies() {
        let reply = |at, events, batches, view_epoch| StatsReply {
            at,
            events,
            batches,
            view_epoch,
        };
        let replies = [
            reply(1.0, 50, 3, 0),    // covers nothing below 50 events
            reply(2.0, 120, 8, 4),   // covers frame 0 (100 ev): B = 8
            reply(3.0, 120, 8, 8),   // view reaches 8: frame 0 visible
            reply(4.0, 250, 15, 8),  // covers frame 1 (200 ev): B = 15
            reply(5.0, 260, 16, 16), // view reaches 16 >= 15
            reply(6.0, 300, 18, 18), // covers frame 2 and is itself visible
        ];
        let frames = [
            FrameMark {
                due: 0.5,
                events: 100,
            },
            FrameMark {
                due: 1.5,
                events: 200,
            },
            FrameMark {
                due: 5.5,
                events: 300,
            },
            // Never covered: left out.
            FrameMark {
                due: 6.5,
                events: 400,
            },
        ];
        let lags = visible_lags(&frames, &replies);
        assert_eq!(lags, vec![3.0 - 0.5, 5.0 - 1.5, 6.0 - 5.5]);
        // A covering reply whose view never catches up leaves the frame out.
        assert!(visible_lags(&frames[..1], &replies[..2]).is_empty());
    }

    #[test]
    fn lateness_counts_from_the_due_time() {
        // On time: sent when due, no lateness.
        assert_eq!(paced_send(1.0, 0.4), (1.0, 0.0));
        // The previous ack came back late: sent at the ack, late by the
        // gap — a stall is charged to the frame that waited on it.
        let (send, late) = paced_send(1.0, 1.25);
        assert_eq!(send, 1.25);
        assert!((late - 0.25).abs() < 1e-12);
    }

    #[test]
    fn stat_parsing_reads_after_the_last_paren() {
        let plain = "4242 (rtdacd) S 1 4242 4242 0 -1 4194560 900 0 0 0 173 42 0 0 20 0 9 0 \
                     1234 567890 1024 18446744073709551615";
        assert_eq!(parse_stat_ticks(plain), Some(173 + 42));
        // A command name with spaces and a ')' inside it.
        let tricky = "77 (my (odd) daemon) R 1 77 77 0 -1 0 0 0 0 0 11 22 0 0 20 0 1 0 5 6 7";
        assert_eq!(parse_stat_ticks(tricky), Some(33));
        assert_eq!(parse_stat_ticks("77 (short) R 1"), None);
        assert_eq!(parse_stat_ticks("no parens"), None);
    }

    #[test]
    fn banner_parsing() {
        let banner =
            parse_banner("rtdacd listening on 127.0.0.1:40123 (max 64 tenants, 512 KiB/tenant)\n");
        assert_eq!(
            banner,
            Some(Banner {
                addr: "127.0.0.1:40123".into(),
                max_tenants: 64,
                budget_kib: 512,
            })
        );
        assert_eq!(parse_banner("rtdacd listening on 127.0.0.1:1\n"), None);
        assert_eq!(
            parse_banner("rtdacd listening on [::1]:9 (max x tenants, 512 KiB/tenant)"),
            None
        );
    }

    #[test]
    fn vmhwm_parsing() {
        let status = "Name:\trtdacd\nVmPeak:\t  200000 kB\nVmHWM:\t    8812 kB\nVmRSS:\t 8000 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(8812));
        assert_eq!(parse_vmhwm_kb("Name:\tx\n"), None);
    }
}

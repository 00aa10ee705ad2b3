//! Property tests for the FTL's global invariants under arbitrary
//! write/trim workloads and stream assignments.

use rtdac_check::prelude::*;
use rtdac_ssdsim::{Ftl, FtlConfig};

#[derive(Clone, Debug)]
enum Op {
    Write { lpn: u64, stream: usize },
    Trim { lpn: u64 },
}

fn ops_strategy(lpn_space: u64, streams: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            6 => (0..lpn_space, 0..streams).prop_map(|(lpn, stream)| Op::Write { lpn, stream }),
            1 => (0..lpn_space).prop_map(|lpn| Op::Trim { lpn }),
        ],
        0..800,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After any workload: every written-and-not-trimmed LPN is mapped,
    /// every trimmed LPN is not, and live page accounting is exact.
    #[test]
    fn mapping_is_exact(ops in ops_strategy(96, 2)) {
        // LPN space (96) is well under capacity (16 EUs × 16 pages = 256
        // minus reserves), so the device never overfills.
        let config = FtlConfig {
            pages_per_eu: 16,
            erase_units: 16,
            streams: 2,
            gc_low_watermark: 3,
        };
        let mut ftl = Ftl::new(config);
        let mut live = std::collections::HashSet::new();
        for op in ops {
            match op {
                Op::Write { lpn, stream } => {
                    ftl.write(lpn, stream);
                    live.insert(lpn);
                }
                Op::Trim { lpn } => {
                    ftl.trim(lpn);
                    live.remove(&lpn);
                }
            }
            prop_assert_eq!(ftl.live_pages(), live.len());
        }
        for lpn in 0..96u64 {
            prop_assert_eq!(ftl.is_mapped(lpn), live.contains(&lpn), "lpn {}", lpn);
        }
    }

    /// Accounting identities: device writes = host writes + relocations;
    /// WAF >= 1; GC only runs when it can make progress.
    #[test]
    fn accounting_identities(ops in ops_strategy(64, 2)) {
        let config = FtlConfig {
            pages_per_eu: 8,
            erase_units: 16,
            streams: 2,
            gc_low_watermark: 3,
        };
        let mut ftl = Ftl::new(config);
        let mut writes = 0u64;
        for op in ops {
            if let Op::Write { lpn, stream } = op {
                ftl.write(lpn, stream);
                writes += 1;
            }
        }
        let stats = ftl.stats();
        prop_assert_eq!(stats.host_writes, writes);
        prop_assert_eq!(stats.device_writes, stats.host_writes + stats.relocations);
        prop_assert!(stats.waf() >= 1.0);
        prop_assert!(stats.erases >= stats.gc_runs);
    }

    /// Stream choice never affects correctness (only WAF): the final
    /// mapping is identical whatever the stream pattern.
    #[test]
    fn streams_do_not_affect_mapping(
        lpns in prop::collection::vec(0u64..48, 1..300),
        salt in 0u64..8,
    ) {
        let config = FtlConfig {
            pages_per_eu: 8,
            erase_units: 16,
            streams: 4,
            gc_low_watermark: 4,
        };
        let mut a = Ftl::new(config);
        let mut b = Ftl::new(config);
        for (i, &lpn) in lpns.iter().enumerate() {
            a.write(lpn, 0);
            b.write(lpn, ((i as u64 + salt) % 4) as usize);
        }
        prop_assert_eq!(a.live_pages(), b.live_pages());
        for lpn in 0..48u64 {
            prop_assert_eq!(a.is_mapped(lpn), b.is_mapped(lpn));
        }
    }
}

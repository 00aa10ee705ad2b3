//! Property tests for the workload generators: structural invariants
//! must hold for any parameterization, not just the tuned defaults.

use std::time::Duration;

use rtdac_check::prelude::*;
use rtdac_workloads::{MsrServer, SyntheticKind, SyntheticSpec};

fn kind_strategy() -> impl Strategy<Value = SyntheticKind> {
    prop_oneof![
        Just(SyntheticKind::OneToOne),
        Just(SyntheticKind::OneToMany),
        Just(SyntheticKind::ManyToMany),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Synthetic traces are timestamp-ordered, deterministic in the
    /// seed, and their constructed groups never overlap themselves.
    #[test]
    fn synthetic_structural_invariants(
        kind in kind_strategy(),
        events in 1usize..120,
        correlations in 1usize..8,
        seed in 0u64..1_000,
    ) {
        let spec = SyntheticSpec::new(kind)
            .events(events)
            .correlations(correlations)
            .seed(seed);
        let a = spec.generate();
        let b = spec.generate();
        prop_assert_eq!(&a.trace, &b.trace, "not deterministic");
        prop_assert_eq!(a.ground_truth.len(), correlations);

        let times: Vec<_> = a.trace.iter().map(|r| r.time).collect();
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));

        for group in &a.ground_truth {
            prop_assert_eq!(group.extents.len(), 2);
            prop_assert!(!group.extents[0].overlaps(&group.extents[1]));
        }

        // Every constructed event appears: workload requests cover each
        // group's extents at least once across the trace when events >=
        // correlations * some slack is not guaranteed, but the total
        // workload request count is exactly 2 per event.
        let workload_requests = a
            .trace
            .iter()
            .filter(|r| r.pid == rtdac_workloads::PID_WORKLOAD)
            .count();
        prop_assert_eq!(workload_requests, events * 2);
    }

    /// Changing only the interarrival means never changes which extents
    /// the groups consist of (timing and placement are independently
    /// seeded concerns).
    #[test]
    fn interarrival_does_not_change_geometry(
        seed in 0u64..500,
        corr_ms in 1u64..400,
    ) {
        let base = SyntheticSpec::new(SyntheticKind::OneToOne)
            .events(20)
            .seed(seed)
            .generate();
        let retimed = SyntheticSpec::new(SyntheticKind::OneToOne)
            .events(20)
            .seed(seed)
            .correlation_interarrival(Duration::from_millis(corr_ms))
            .generate();
        prop_assert_eq!(base.ground_truth, retimed.ground_truth);
    }

    /// MSR synthesizers: exact request count, ordering, determinism and
    /// latencies present, for any scale and seed.
    #[test]
    fn msr_structural_invariants(
        requests in 1usize..3_000,
        seed in 0u64..1_000,
    ) {
        for server in [MsrServer::Wdev, MsrServer::Stg] {
            let a = server.synthesize(requests, seed);
            prop_assert_eq!(a.len(), requests);
            let b = server.synthesize(requests, seed);
            prop_assert_eq!(&a, &b);
            let times: Vec<_> = a.iter().map(|r| r.time).collect();
            prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
            prop_assert!(a.iter().all(|r| r.latency.is_some()));
            let space = server.profile().number_space;
            // One-offs are allocated above the number space by design;
            // everything else stays inside it.
            prop_assert!(a
                .iter()
                .filter(|r| r.extent.start() < space)
                .count() > 0 || requests == 0);
        }
    }
}

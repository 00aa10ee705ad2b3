//! The checker is not vacuous: false properties fail with a seed and a
//! shrunk size, all-rejecting properties fail, case counts and inputs
//! are exact and repeatable, and zero weights are never drawn.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};

use rtdac_check::prelude::*;
use rtdac_check::{check, run, Failure};

fn panic_message(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the property must fail");
    payload
        .downcast_ref::<String>()
        .cloned()
        .expect("run panics with a formatted report")
}

#[test]
fn a_false_property_fails_with_its_seed_and_a_shrunk_size() {
    let config = ProptestConfig::with_cases(256);
    let strategy = prop::collection::vec(0u8..4, 0..100);
    let short = |v: Vec<u8>| -> Result<(), TestCaseError> {
        prop_assert!(v.len() < 10, "len {}", v.len());
        Ok(())
    };

    let Err(Failure::Falsified {
        seed,
        halvings,
        inputs,
        ..
    }) = check(&config, &strategy, short)
    else {
        panic!("a false property passed");
    };
    // The first failure is at size 1; the report is smaller.
    assert!(halvings >= 1, "not shrunk");
    // At size 1/2^h a 0..100 vec holds at most 99 >> h elements, and the
    // reported case still fails, so it holds at least 10.
    let len = inputs.matches(',').count() + 1;
    assert!((10..=99 >> halvings).contains(&len), "inputs {inputs}");

    let message = panic_message(|| run("short", "(v)", config, (strategy,), |(v,)| short(v)));
    assert!(message.contains(&format!("seed {seed};")), "{message}");
    assert!(
        message.contains(&format!("size 1/{} ", 1u64 << halvings)),
        "{message}"
    );
}

#[test]
fn a_panicking_property_fails_like_an_assertion() {
    let config = ProptestConfig::with_cases(64);
    let result = check(&config, &(0u32..10), |x| {
        assert!(x < 9, "boom at {x}");
        Ok(())
    });
    let Err(Failure::Falsified { reason, inputs, .. }) = result else {
        panic!("a panicking property passed");
    };
    assert!(reason.contains("boom at 9"), "{reason}");
    assert_eq!(inputs, "9");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A property that rejects every case must fail, not pass vacuously.
    #[test]
    #[should_panic(expected = "rejected more than 1024 cases after 0 passed")]
    fn rejecting_every_case_fails(x in 0u32..10) {
        prop_assume!(x > 100);
    }
}

#[test]
fn a_property_runs_exactly_its_configured_cases() {
    for cases in [1, 17, 192] {
        let calls = AtomicU32::new(0);
        check(&ProptestConfig::with_cases(cases), &(0u64..1_000), |_| {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
        .expect("a true property passes");
        assert_eq!(calls.load(Ordering::Relaxed), cases);
    }
}

#[test]
fn rejected_cases_do_not_count() {
    let calls = AtomicU32::new(0);
    check(&ProptestConfig::with_cases(50), &any::<bool>(), |coin| {
        prop_assume!(coin);
        calls.fetch_add(1, Ordering::Relaxed);
        Ok(())
    })
    .expect("half the cases are accepted");
    assert_eq!(calls.load(Ordering::Relaxed), 50);
}

#[test]
fn two_runs_generate_identical_inputs() {
    let strategy = (
        prop::collection::vec((0u16..64, prop::bool::ANY), 0..40),
        prop::option::of(0.0f64..1.0),
        0u32..=100,
    );
    let inputs = || {
        let seen = RefCell::new(Vec::new());
        check(&ProptestConfig::with_cases(64), &strategy, |value| {
            seen.borrow_mut().push(format!("{value:?}"));
            Ok(())
        })
        .expect("a true property passes");
        seen.into_inner()
    };
    let first = inputs();
    assert_eq!(first, inputs());
    // Different seeds draw different cases.
    let distinct: std::collections::HashSet<_> = first.iter().collect();
    assert!(distinct.len() > 60, "{} distinct of 64", distinct.len());
}

#[test]
fn a_zero_weight_arm_is_never_drawn() {
    let strategy = prop_oneof![1 => Just(true), 0 => Just(false)];
    check(&ProptestConfig::with_cases(1_000), &strategy, |picked| {
        prop_assert!(picked);
        Ok(())
    })
    .expect("the zero-weight arm was drawn");
    // Both arms of an unweighted choice are drawn.
    let unweighted = prop_oneof![Just(true), Just(false)];
    let trues = RefCell::new(0);
    check(&ProptestConfig::with_cases(1_000), &unweighted, |picked| {
        *trues.borrow_mut() += u32::from(picked);
        Ok(())
    })
    .expect("a true property passes");
    assert!((400..600).contains(&trues.into_inner()));
}

//! A std-only property checker: the subset of the `proptest` API that
//! the workspace's property suites use, so a suite needs only
//! `use rtdac_check::prelude::*;` and runs under plain `cargo test`.
//!
//! * **Cases.** A property runs `ProptestConfig::with_cases(n)` cases.
//!   Draw `i` is generated from the fixed seed `i`, so every run checks
//!   the same inputs.
//! * **Rejects.** A case that [`prop_assume!`] rejects does not count.
//!   More than 1024 rejects fail the property: it never passes vacuously.
//! * **Shrinking, by size only.** Every collection draws its length from
//!   `[min, min + (max - min) * size]`, at size 1 while searching. When a
//!   case fails, its seed is re-run at size 1/2, 1/4, … and the report
//!   names the seed, the smallest size that still fails and that case's
//!   inputs. There is no per-element shrinking and no persistence file.

use std::fmt::{self, Debug};
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Rejected cases tolerated per property before it fails (`proptest`'s
/// default global reject limit).
const MAX_REJECTS: u32 = 1024;

pub mod prelude {
    pub use crate::prop;
    pub use crate::{any, Just, ProptestConfig, Strategy, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Per-property settings; only the case count is configurable.
#[derive(Clone, Copy)]
pub struct ProptestConfig {
    cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Why a single case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// A `prop_assert*!` failed with this message.
    Fail(String),
    /// `prop_assume!` rejected the inputs.
    Reject,
}

pub type TestCaseResult = Result<(), TestCaseError>;

/// The source of every generated value: a splitmix64 stream plus the
/// current size, expressed as a number of halvings.
pub struct Gen {
    state: u64,
    halvings: u32,
    /// The widest length span any collection drew from; zero means a
    /// further halving cannot change the inputs.
    widest: usize,
}

impl Gen {
    fn new(seed: u64, halvings: u32) -> Self {
        Gen {
            state: seed,
            halvings,
            widest: 0,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `[0, span)`, for `1 <= span <= 2^64`.
    fn below(&mut self, span: u128) -> u64 {
        ((u128::from(self.next_u64()) * span) >> 64) as u64
    }

    /// A length in `[min, min + (max - min) * size]`.
    fn len(&mut self, min: usize, max: usize) -> usize {
        let span = (max - min) >> self.halvings;
        self.widest = self.widest.max(span);
        min + self.below(span as u128 + 1) as usize
    }
}

/// A generator of test inputs.
pub trait Strategy {
    type Value: Debug;

    fn generate(&self, gen: &mut Gen) -> Self::Value;

    fn prop_map<T: Debug, F: Fn(Self::Value) -> T>(self, map: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { source: self, map }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    source: S,
    map: F,
}

impl<S: Strategy, T: Debug, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn generate(&self, gen: &mut Gen) -> T {
        (self.map)(self.source.generate(gen))
    }
}

/// Always the same value.
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _: &mut Gen) -> T {
        self.0.clone()
    }
}

/// Any value of `T`; see [`any`].
pub struct Any<T>(PhantomData<fn() -> T>);

/// `any::<bool>()`: a fair coin.
pub fn any<T>() -> Any<T> {
    Any(PhantomData)
}

impl Strategy for Any<bool> {
    type Value = bool;
    fn generate(&self, gen: &mut Gen) -> bool {
        gen.next_u64() >> 63 == 1
    }
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, gen: &mut Gen) -> $t {
                assert!(self.start < self.end, "empty range {:?}", self);
                self.start + gen.below((self.end - self.start) as u128) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, gen: &mut Gen) -> $t {
                assert!(self.start() <= self.end(), "empty range {:?}", self);
                let span = (self.end() - self.start()) as u128 + 1;
                self.start() + gen.below(span) as $t
            }
        }
    )*};
}

int_ranges!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, gen: &mut Gen) -> f64 {
        let unit = (gen.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + (self.end - self.start) * unit
    }
}

macro_rules! tuples {
    ($(($($s:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, gen: &mut Gen) -> Self::Value {
                let ($($s,)+) = self;
                ($($s.generate(gen),)+)
            }
        }
    )*};
}

tuples! {
    (A) (A, B) (A, B, C) (A, B, C, D) (A, B, C, D, E) (A, B, C, D, E, F)
    (A, B, C, D, E, F, G) (A, B, C, D, E, F, G, H)
}

/// A weighted choice between strategies of one value type; built by
/// [`prop_oneof!`].
pub struct Union<T>(pub Vec<(u32, Box<dyn Strategy<Value = T>>)>);

impl<T: Debug> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, gen: &mut Gen) -> T {
        let total: u64 = self.0.iter().map(|(weight, _)| u64::from(*weight)).sum();
        assert!(total > 0, "prop_oneof! needs a non-zero weight");
        let mut pick = gen.below(u128::from(total));
        for (weight, strategy) in &self.0 {
            if pick < u64::from(*weight) {
                return strategy.generate(gen);
            }
            pick -= u64::from(*weight);
        }
        unreachable!("pick is below the total weight")
    }
}

/// One weighted [`Union`] arm.
pub fn arm<S: Strategy + 'static>(
    weight: u32,
    strategy: S,
) -> (u32, Box<dyn Strategy<Value = S::Value>>) {
    (weight, Box::new(strategy))
}

/// The `prop::…` strategy modules.
pub mod prop {
    pub mod collection {
        use std::ops::Range;

        use crate::{Gen, Strategy};

        /// A collection length: fixed, or drawn from a half-open range.
        pub struct SizeRange {
            min: usize,
            max: usize,
        }

        impl From<usize> for SizeRange {
            fn from(len: usize) -> Self {
                SizeRange { min: len, max: len }
            }
        }

        impl From<Range<usize>> for SizeRange {
            fn from(range: Range<usize>) -> Self {
                assert!(range.start < range.end, "empty size range {range:?}");
                SizeRange {
                    min: range.start,
                    max: range.end - 1,
                }
            }
        }

        /// See [`vec()`].
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        /// A `Vec` of `element`s whose length is drawn from `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, gen: &mut Gen) -> Self::Value {
                let len = gen.len(self.size.min, self.size.max);
                (0..len).map(|_| self.element.generate(gen)).collect()
            }
        }
    }

    pub mod bool {
        use crate::Any;

        /// A fair coin.
        pub const ANY: Any<std::primitive::bool> = Any(std::marker::PhantomData);
    }

    pub mod option {
        use crate::{Gen, Strategy};

        /// See [`of`].
        pub struct OptionOf<S>(S);

        /// `None` or `Some(inner)`, each half the time.
        pub fn of<S: Strategy>(inner: S) -> OptionOf<S> {
            OptionOf(inner)
        }

        impl<S: Strategy> Strategy for OptionOf<S> {
            type Value = Option<S::Value>;
            fn generate(&self, gen: &mut Gen) -> Self::Value {
                (gen.next_u64() >> 63 == 1).then(|| self.0.generate(gen))
            }
        }
    }
}

/// How a property failed; its `Display` is the report.
#[derive(Debug)]
pub enum Failure {
    /// The case drawn from `seed` failed. `halvings` is the smallest
    /// size that still fails (size 1/2^halvings), and `reason` and
    /// `inputs` are that case's.
    Falsified {
        seed: u64,
        halvings: u32,
        reason: String,
        inputs: String,
    },
    /// `prop_assume!` rejected more than 1024 cases.
    TooManyRejects { passed: u32 },
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Falsified {
                seed,
                halvings,
                reason,
                inputs,
            } => write!(
                f,
                "failed on seed {seed}; smallest failing size 1/{} \
                 (first failure at size 1): {reason}\ninputs: {inputs}",
                1u64 << halvings
            ),
            Failure::TooManyRejects { passed } => write!(
                f,
                "rejected more than {MAX_REJECTS} cases after {passed} passed"
            ),
        }
    }
}

fn run_case<S: Strategy>(
    strategy: &S,
    test: &impl Fn(S::Value) -> TestCaseResult,
    seed: u64,
    halvings: u32,
) -> (TestCaseResult, usize) {
    let mut gen = Gen::new(seed, halvings);
    let value = strategy.generate(&mut gen);
    let result = catch_unwind(AssertUnwindSafe(|| test(value))).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(TestCaseError::Fail(format!("panicked: {message}")))
    });
    (result, gen.widest)
}

/// Runs `config.cases` accepted cases of `test`; on failure, shrinks
/// the failing seed by size and returns the report.
pub fn check<S: Strategy>(
    config: &ProptestConfig,
    strategy: &S,
    test: impl Fn(S::Value) -> TestCaseResult,
) -> Result<(), Failure> {
    let (mut passed, mut rejects) = (0u32, 0u32);
    let mut seed = 0u64;
    while passed < config.cases {
        match run_case(strategy, &test, seed, 0) {
            (Ok(()), _) => passed += 1,
            (Err(TestCaseError::Reject), _) => {
                rejects += 1;
                if rejects > MAX_REJECTS {
                    return Err(Failure::TooManyRejects { passed });
                }
            }
            (Err(TestCaseError::Fail(reason)), mut widest) => {
                let mut smallest = (0, reason);
                let mut halvings = 0;
                while widest > 0 && halvings + 1 < usize::BITS {
                    halvings += 1;
                    let (result, w) = run_case(strategy, &test, seed, halvings);
                    widest = w;
                    if let Err(TestCaseError::Fail(reason)) = result {
                        smallest = (halvings, reason);
                    }
                }
                let (halvings, reason) = smallest;
                let inputs = format!("{:?}", strategy.generate(&mut Gen::new(seed, halvings)));
                return Err(Failure::Falsified {
                    seed,
                    halvings,
                    reason,
                    inputs,
                });
            }
        }
        seed += 1;
    }
    Ok(())
}

/// [`check`], panicking with the report; what [`proptest!`] expands to.
pub fn run<S: Strategy>(
    name: &str,
    args: &str,
    config: ProptestConfig,
    strategy: S,
    test: impl Fn(S::Value) -> TestCaseResult,
) {
    if let Err(failure) = check(&config, &strategy, test) {
        panic!("property {name}{args} {failure}");
    }
}

/// Declares property tests:
///
/// ```text
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn name(a in 0u32..10, v in prop::collection::vec(0u8..4, 0..20)) { … }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {$(
        $(#[$meta])*
        fn $name() {
            $crate::run(
                stringify!($name),
                stringify!(($($arg),+)),
                $config,
                ($($strategy,)+),
                |($($arg,)+)| -> $crate::TestCaseResult {
                    $body
                    Ok(())
                },
            );
        }
    )*};
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_eq!($left, $right, "")
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (left, right) => {
                if !(*left == *right) {
                    let context = format!($($fmt)+);
                    return Err($crate::TestCaseError::Fail(format!(
                        "assertion failed: `{} == {}`{}{}\n  left: {:?}\n right: {:?}",
                        stringify!($left),
                        stringify!($right),
                        if context.is_empty() { "" } else { ": " },
                        context,
                        left,
                        right
                    )));
                }
            }
        }
    };
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

/// A choice between strategies, optionally weighted (`3 => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::Union(vec![$($crate::arm($weight, $strategy)),+])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strategy),+]
    };
}

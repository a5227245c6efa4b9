//! A self-contained, offline mini implementation of the `proptest` 1.x API
//! surface this workspace uses.
//!
//! The real `proptest` crate cannot be fetched in the offline build
//! environment, so this shim provides the same macros and strategy
//! combinators with a deterministic SplitMix64 generator. There is no input
//! shrinking: on failure the test panics with the case number, the seed and
//! the `Debug` rendering of every generated input, which is enough to
//! reproduce the case (seeds are derived deterministically from the test
//! name and case index).

#![deny(missing_docs)]

use std::fmt::Debug;

/// Deterministic generator behind every strategy (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        // Modulo bias is irrelevant for test-input generation.
        self.next_u64() % bound
    }
}

/// Error type returned by `prop_assert!` family; carries the failure text.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Creates a failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

impl ProptestConfig {
    /// Configuration running `cases` generated cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use super::{Debug, TestRng};

    /// A generator of test inputs.
    pub trait Strategy {
        /// The generated value type.
        type Value: Debug;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<T: Debug, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy mapped through a function (`prop_map`).
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T: Debug, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone + Debug>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Type-erased strategy (used by `prop_oneof!`).
    pub struct BoxedStrategy<T> {
        gen_fn: Box<dyn Fn(&mut TestRng) -> T>,
    }

    impl<T: Debug> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.gen_fn)(rng)
        }
    }

    /// Conversion into a [`BoxedStrategy`]; blanket-implemented.
    pub trait IntoBoxed<T> {
        /// Boxes the strategy.
        fn into_boxed(self) -> BoxedStrategy<T>;
    }

    impl<S: Strategy + 'static> IntoBoxed<S::Value> for S {
        fn into_boxed(self) -> BoxedStrategy<S::Value> {
            BoxedStrategy {
                gen_fn: Box::new(move |rng| self.generate(rng)),
            }
        }
    }

    /// Uniform choice among boxed strategies (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union; `arms` must be non-empty.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Self { arms }
        }
    }

    impl<T: Debug> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u128 - self.start as u128) as u64;
                    self.start + (rng.below(span) as $t)
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as u128 - lo as u128 + 1) as u64;
                    lo + (rng.below(span) as $t)
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
    }
}

pub mod arbitrary {
    //! `any::<T>()` support.

    use super::strategy::Strategy;
    use super::{Debug, TestRng};
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Debug + Sized {
        /// Generates an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy produced by [`any`].
    #[derive(Debug, Clone)]
    pub struct AnyStrategy<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The full-range strategy for `T`.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }
}

pub mod prop {
    //! The `prop::` namespace (`prop::collection::vec`).

    pub mod collection {
        //! Collection strategies.

        use crate::strategy::Strategy;
        use crate::TestRng;

        /// Size specification for collection strategies.
        #[derive(Debug, Clone)]
        pub struct SizeRange {
            lo: usize,
            hi: usize, // exclusive
        }

        impl From<std::ops::Range<usize>> for SizeRange {
            fn from(r: std::ops::Range<usize>) -> Self {
                assert!(r.start < r.end, "empty size range");
                Self {
                    lo: r.start,
                    hi: r.end,
                }
            }
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                Self { lo: n, hi: n + 1 }
            }
        }

        /// Strategy generating `Vec`s of another strategy's values.
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.hi - self.size.lo) as u64;
                let n = self.size.lo + rng.below(span) as usize;
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// `vec(element, len_range)`: vectors with length drawn from the range.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }
    }
}

/// Derives a stable 64-bit seed from a test path string.
pub fn seed_of(name: &str, case: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h ^ (u64::from(case)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Defines property tests. Mirrors `proptest::proptest!`:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_prop(x in 0u32..10, v in prop::collection::vec(any::<bool>(), 1..5)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg); $($rest)*);
    };
    (@cfg ($cfg:expr); $($(#[$meta:meta])+ fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])+
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let seed = $crate::seed_of(concat!(module_path!(), "::", stringify!($name)), case);
                    let mut __proptest_rng = $crate::TestRng::new(seed);
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __proptest_rng);)+
                    let mut __case_desc = String::new();
                    $(__case_desc.push_str(&format!("  {} = {:?}\n", stringify!($arg), $arg));)+
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                        || -> ::std::result::Result<(), $crate::TestCaseError> { $body Ok(()) },
                    ));
                    match outcome {
                        Ok(Ok(())) => {}
                        Ok(Err(e)) => panic!(
                            "property {} failed at case {case} (seed {seed:#x}): {e}\ninputs:\n{}",
                            stringify!($name), __case_desc
                        ),
                        Err(payload) => {
                            eprintln!(
                                "property {} panicked at case {case} (seed {seed:#x})\ninputs:\n{}",
                                stringify!($name), __case_desc
                            );
                            std::panic::resume_unwind(payload);
                        }
                    }
                }
            }
        )*
    };
    ($($(#[$meta:meta])+ fn $name:ident($($args:tt)*) $body:block)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()); $($(#[$meta])+ fn $name($($args)*) $body)*);
    };
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "format", args…)`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(concat!("assertion failed: ", stringify!($cond))));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// `prop_assert_eq!(left, right)` with optional context message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?} == {:?}` ({} == {})",
                l, r, stringify!($left), stringify!($right)
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?} == {:?}`: {}",
                l, r, format!($($fmt)+)
            )));
        }
    }};
}

/// Uniform choice among strategies yielding one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::IntoBoxed::into_boxed($arm)),+])
    };
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.

    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
    pub use crate::{ProptestConfig, TestCaseError, TestRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::new(7);
        let mut b = TestRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in 0u64..5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 5, "y was {y}");
        }

        #[test]
        fn vec_lengths_respect_range(v in prop::collection::vec(any::<u8>(), 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
        }

        #[test]
        fn oneof_and_map_compose(op in prop_oneof![
            (0u8..4).prop_map(|b| (b, false)),
            Just((9, true)),
        ]) {
            let (v, tagged) = op;
            prop_assert!(tagged == (v == 9));
        }
    }
}

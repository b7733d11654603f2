//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset the workspace's property tests use: the
//! [`proptest!`] macro, range / tuple / `any` / `vec` / `select`
//! strategies, `prop_map` / `prop_filter` adapters, and the
//! `prop_assert*` macros. Cases are generated from a deterministic
//! per-test seed (derived from the test's module path and name), so every
//! failure reproduces by re-running the same test binary — there is no
//! shrinking and no persistence file.
//!
//! `prop_assert!` / `prop_assert_eq!` forward to `assert!` / `assert_eq!`;
//! a failing case additionally reports its case index and the generated
//! inputs.

pub mod test_runner {
    /// Per-test configuration (the `cases` knob only).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Outcome of one generated case (used by the macro internals).
    pub enum CaseResult {
        /// Case body ran to completion.
        Pass,
        /// Case was rejected by `prop_assume!`.
        Skip,
    }

    /// Deterministic case generator: xoshiro256** seeded from the test
    /// name and case index. No OS entropy, no wall clock.
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        /// RNG for case `case` of the test identified by `name`.
        pub fn for_case(name: &str, case: u32) -> Self {
            // FNV-1a over the test path, mixed with the case index.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            let mut sm = h ^ ((case as u64) << 32) ^ 0x9E37_79B9_7F4A_7C15;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            TestRng {
                s: [next(), next(), next(), next()],
            }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        /// Uniform value in `[0, n)`.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            loop {
                let m = (self.next_u64() as u128).wrapping_mul(n as u128);
                if (m as u64) >= n.wrapping_neg() % n {
                    return (m >> 64) as u64;
                }
            }
        }

        /// Uniform f64 in `[0, 1)`.
        pub fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generates one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Rejects values failing `pred` (regenerating, bounded retries).
        fn prop_filter<F>(self, reason: &'static str, pred: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                reason,
                pred,
            }
        }
    }

    /// Always produces a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.new_value(rng))
        }
    }

    /// See [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        inner: S,
        reason: &'static str,
        pred: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn new_value(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.new_value(rng);
                if (self.pred)(&v) {
                    return v;
                }
            }
            panic!(
                "prop_filter '{}' rejected 1000 consecutive values",
                self.reason
            );
        }
    }

    /// Strategies behind shared references generate like their referent.
    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn new_value(&self, rng: &mut TestRng) -> S::Value {
            (**self).new_value(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    (lo as i128 + rng.below(span + 1) as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let v = self.start as f64
                        + rng.unit() * (self.end as f64 - self.start as f64);
                    if v >= self.end as f64 { self.start } else { v as $t }
                }
            }
        )*};
    }

    float_range_strategy!(f32, f64);

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+)),+ $(,)?) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.new_value(rng),)+)
                }
            }
        )+};
    }

    tuple_strategy!(
        (A.0, B.1),
        (A.0, B.1, C.2),
        (A.0, B.1, C.2, D.3),
        (A.0, B.1, C.2, D.3, E.4)
    );
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Generates one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// The canonical strategy for `T` (see [`any`]).
    pub struct Any<T> {
        _marker: std::marker::PhantomData<T>,
    }

    /// Strategy producing any value of `T` — including, for floats, the
    /// occasional NaN/infinity/subnormal from raw bit patterns.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any {
            _marker: std::marker::PhantomData,
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut TestRng) -> f32 {
            // Raw bit pattern: exercises the full float landscape
            // (subnormals, infinities, NaNs) like real proptest's any.
            f32::from_bits(rng.next_u64() as u32)
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            f64::from_bits(rng.next_u64())
        }
    }
}

/// Strategy combinators namespace (`prop::collection::vec`, …).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;

        /// Acceptable size specifications for [`vec()`].
        pub trait SizeRange {
            /// Samples a concrete length.
            fn pick(&self, rng: &mut TestRng) -> usize;
        }

        impl SizeRange for usize {
            fn pick(&self, _rng: &mut TestRng) -> usize {
                *self
            }
        }

        impl SizeRange for std::ops::Range<usize> {
            fn pick(&self, rng: &mut TestRng) -> usize {
                assert!(self.start < self.end, "empty vec size range");
                self.start + rng.below((self.end - self.start) as u64) as usize
            }
        }

        impl SizeRange for std::ops::RangeInclusive<usize> {
            fn pick(&self, rng: &mut TestRng) -> usize {
                self.start() + rng.below((self.end() - self.start() + 1) as u64) as usize
            }
        }

        /// Strategy for `Vec<S::Value>` with length drawn from `size`.
        pub struct VecStrategy<S, R> {
            element: S,
            size: R,
        }

        /// `Vec` strategy: each element from `element`, length from `size`.
        pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
            VecStrategy { element, size }
        }

        impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
            type Value = Vec<S::Value>;
            fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = self.size.pick(rng);
                (0..n).map(|_| self.element.new_value(rng)).collect()
            }
        }
    }

    /// Sampling strategies.
    pub mod sample {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;

        /// Strategy choosing uniformly from a fixed set.
        pub struct Select<T> {
            options: Vec<T>,
        }

        /// Uniform choice from `options` (must be non-empty).
        pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
            assert!(!options.is_empty(), "select needs at least one option");
            Select { options }
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;
            fn new_value(&self, rng: &mut TestRng) -> T {
                self.options[rng.below(self.options.len() as u64) as usize].clone()
            }
        }
    }
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
///
/// Each test runs `cases` deterministic cases; a failing case reports its
/// index and generated inputs, and re-running the test reproduces it
/// exactly.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            cfg = <$crate::test_runner::ProptestConfig as Default>::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        #[test]
        fn $name:ident ( $( $arg:pat in $strat:expr ),+ $(,)? ) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let __test_path = concat!(module_path!(), "::", stringify!($name));
            for __case in 0..__config.cases {
                let mut __rng = $crate::test_runner::TestRng::for_case(__test_path, __case);
                let __vals = (
                    $( $crate::strategy::Strategy::new_value(&($strat), &mut __rng), )+
                );
                let __desc = format!("{:?}", __vals);
                let __outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                    || -> $crate::test_runner::CaseResult {
                        let ( $($arg,)+ ) = __vals;
                        $body
                        #[allow(unreachable_code)]
                        $crate::test_runner::CaseResult::Pass
                    },
                ));
                if let Err(payload) = __outcome {
                    eprintln!(
                        "proptest {__test_path}: case {__case}/{} failed with inputs {__desc}",
                        __config.cases
                    );
                    std::panic::resume_unwind(payload);
                }
            }
        }
    )*};
}

/// Asserts a condition inside a proptest case.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a proptest case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a proptest case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current case when `cond` is false (top-level of the test body
/// only, mirroring how the workspace uses the real macro).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return $crate::test_runner::CaseResult::Skip;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn cases_are_deterministic_per_name_and_index() {
        let mut a = TestRng::for_case("x::y", 3);
        let mut b = TestRng::for_case("x::y", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::for_case("x::y", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn range_strategies_respect_bounds() {
        let mut rng = TestRng::for_case("t", 0);
        for _ in 0..1000 {
            let v = (3usize..9).new_value(&mut rng);
            assert!((3..9).contains(&v));
            let f = (-1.0f32..1.0).new_value(&mut rng);
            assert!((-1.0..1.0).contains(&f));
            let i = (1usize..=4).new_value(&mut rng);
            assert!((1..=4).contains(&i));
        }
    }

    #[test]
    fn vec_and_select_and_map_compose() {
        let mut rng = TestRng::for_case("t2", 0);
        let s = prop::collection::vec(prop::sample::select(vec![1u32, 2, 3]), 2..5)
            .prop_map(|v| v.len());
        for _ in 0..100 {
            let n = s.new_value(&mut rng);
            assert!((2..5).contains(&n));
        }
    }

    #[test]
    fn filter_rejects_values() {
        let mut rng = TestRng::for_case("t3", 0);
        let s = (0u32..100).prop_filter("even", |x| x % 2 == 0);
        for _ in 0..100 {
            assert_eq!(s.new_value(&mut rng) % 2, 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_generates_and_runs(x in 1usize..10, (a, b) in (0u32..5, 0u32..5)) {
            prop_assert!((1..10).contains(&x));
            prop_assert!(a < 5 && b < 5);
        }

        #[test]
        fn assume_skips_cases(x in 0usize..10) {
            prop_assume!(x > 4);
            prop_assert!(x > 4);
        }
    }
}

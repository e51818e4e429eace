//! Minimal in-workspace stand-in for `proptest`.
//!
//! Supports the surface this workspace's property tests use: range and
//! `Just` strategies, tuples, `prop::collection::vec`, `.prop_map`, the
//! `proptest!` and `prop_compose!` macros, and `prop_assert!` /
//! `prop_assert_eq!`. Inputs are drawn deterministically (seeded from the
//! test name and case index) so failures reproduce; there is no shrinking —
//! the failing case index and message are reported instead.

use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Per-test configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A failed property within a test case.
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// A failure with message `msg`.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Deterministic test RNG (xoshiro256++ seeded from test name + case).
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// The RNG for `case` of the test named `name`.
    pub fn for_case(name: &str, case: u32) -> Self {
        let mut seed = 0xcbf29ce484222325u64; // FNV-1a over the name.
        for b in name.bytes() {
            seed ^= u64::from(b);
            seed = seed.wrapping_mul(0x100000001b3);
        }
        seed = seed.wrapping_add(u64::from(case).wrapping_mul(0x9E3779B97F4A7C15));
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        TestRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next random 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn below(&mut self, span: u64) -> u64 {
        ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }
}

/// A generator of random values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Always produces a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// A closure as a strategy (used by `prop_compose!`).
pub struct FnStrategy<F>(pub F);

impl<F> fmt::Debug for FnStrategy<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("FnStrategy")
    }
}

impl<T, F: Fn(&mut TestRng) -> T> Strategy for FnStrategy<F> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + rng.below(span) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                start + rng.below(span) as $t
            }
        }
    )*};
}

int_strategy!(usize, u64, u32, u16, u8);

macro_rules! float_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (self.end - self.start) * rng.unit_f64() as $t
            }
        }
    )*};
}

float_strategy!(f64, f32);

macro_rules! tuple_strategy {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
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
    (A.0, B.1, C.2, D.3, E.4, F.5)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Length specifications accepted by [`vec()`].
    pub trait SizeRange {
        /// Picks a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            self.clone().sample(rng)
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            self.clone().sample(rng)
        }
    }

    /// A strategy for `Vec<S::Value>` with length drawn from `len`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    /// `Vec` strategy over `element` with length in `len`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.len.pick(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// The `proptest::prop` facade module.
pub mod prop {
    pub use crate::collection;
}

/// Everything a property test needs in one import.
pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_compose, proptest, FnStrategy, Just,
        ProptestConfig, Strategy, TestCaseError, TestRng,
    };
}

/// Asserts a condition inside a property test, failing the case (not
/// panicking directly) so the harness can attach case context.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)+);
    }};
}

/// Declares property tests. Each test body runs `config.cases` times with
/// inputs drawn from its strategies; `prop_assert!` failures report the
/// case index.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut rng = $crate::TestRng::for_case(stringify!($name), case);
                    $(let $pat = $crate::Strategy::sample(&($strat), &mut rng);)+
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!("property failed at case {case}/{}: {e}", config.cases);
                    }
                }
            }
        )*
    };
}

/// Composes named strategy functions from simpler strategies, in one or two
/// sampling stages (stage two may reference stage-one bindings).
#[macro_export]
macro_rules! prop_compose {
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($args:tt)*)
        ($($b1:pat in $s1:expr),+ $(,)?)
        ($($b2:pat in $s2:expr),+ $(,)?)
        -> $out:ty $body:block
    ) => {
        $(#[$meta])*
        $vis fn $name($($args)*) -> impl $crate::Strategy<Value = $out> {
            $crate::FnStrategy(move |rng: &mut $crate::TestRng| {
                $(let $b1 = $crate::Strategy::sample(&($s1), rng);)+
                $(let $b2 = $crate::Strategy::sample(&($s2), rng);)+
                $body
            })
        }
    };
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($args:tt)*)
        ($($b1:pat in $s1:expr),+ $(,)?)
        -> $out:ty $body:block
    ) => {
        $(#[$meta])*
        $vis fn $name($($args)*) -> impl $crate::Strategy<Value = $out> {
            $crate::FnStrategy(move |rng: &mut $crate::TestRng| {
                $(let $b1 = $crate::Strategy::sample(&($s1), rng);)+
                $body
            })
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    prop_compose! {
        fn pair()(a in 0usize..10, b in 0usize..10) -> (usize, usize) {
            (a, b)
        }
    }

    prop_compose! {
        fn sized_vec()(n in 1usize..8)(v in prop::collection::vec(0u32..100, n), n in Just(n)) -> (usize, Vec<u32>) {
            (n, v)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 3usize..17, y in 0.5f64..2.5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((0.5..2.5).contains(&y));
        }

        #[test]
        fn composed_pairs_in_bounds((a, b) in pair()) {
            prop_assert!(a < 10 && b < 10);
            prop_assert_eq!(a * 2, a + a);
        }

        #[test]
        fn two_stage_vec_len_matches((n, v) in sized_vec()) {
            prop_assert_eq!(v.len(), n);
        }

        #[test]
        fn mapped_tuples_work(s in (1usize..4, 10usize..20).prop_map(|(a, b)| a + b)) {
            prop_assert!((11..24).contains(&s));
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let mut a = TestRng::for_case("t", 3);
        let mut b = TestRng::for_case("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::for_case("t", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }
}

//! Deterministic, dependency-free property testing with the `proptest`
//! API surface this workspace uses.
//!
//! The container this repository builds in has no crates.io access, so the
//! real `proptest` cannot be compiled; this crate is an API-compatible
//! replacement for the subset the test-suites need:
//!
//! * [`Strategy`] with [`Strategy::prop_map`] and [`Strategy::boxed`],
//! * integer-range, tuple, [`Just`] and [`collection::vec`] strategies,
//! * [`any`]`::<bool>()` (and the integer primitives),
//! * the [`proptest!`], [`prop_oneof!`], [`prop_assert!`],
//!   [`prop_assert_eq!`] and [`prop_assert_ne!`] macros,
//! * [`ProptestConfig::with_cases`].
//!
//! Unlike the real crate there is **no shrinking**: a failing case panics
//! with the case index and the fixed corpus seed, which — because every
//! stream is a pure function of the test's name — is already a minimal
//! reproduction recipe. Case generation is deterministic: the same test
//! name always replays the same corpus (a *fixed seed corpus*), so CI
//! failures reproduce locally without any environment coupling. Set
//! `PROPTEST_CASES` to scale the number of cases up or down globally.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------- rng ----

/// The corpus generator: xoshiro256++ seeded via splitmix64 from the
/// test's name, so each test owns a fixed, independent stream.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TestRng {
    /// Creates the generator from a raw seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        TestRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Creates the fixed-corpus generator of one named test.
    pub fn for_test(name: &str) -> Self {
        // FNV-1a over the test name: stable across runs and platforms.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in name.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng::from_seed(hash)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[lo, hi)`; `lo` when the range is empty.
    pub fn below(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        let span = hi - lo;
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let draw = self.next_u64();
            if draw <= zone {
                return lo + draw % span;
            }
        }
    }
}

// ----------------------------------------------------------- strategy ----

/// A recipe for generating values of one type.
///
/// Object-safe: `generate` is the only required method, so strategies can
/// be boxed for [`prop_oneof!`].
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, T> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

/// A type-erased strategy; see [`Strategy::boxed`].
pub struct BoxedStrategy<V>(Box<dyn Strategy<Value = V>>);

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        self.0.generate(rng)
    }
}

/// Always generates a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.below(self.start as u64, self.end as u64) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start() as u64, *self.end() as u64);
                if hi == u64::MAX {
                    return rng.next_u64() as $t;
                }
                rng.below(lo, hi + 1) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! tuple_strategy {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
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
}

/// Types with a canonical unconstrained strategy; see [`any`].
pub trait Arbitrary {
    /// Draws one unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
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
int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

/// The unconstrained strategy of an [`Arbitrary`] type.
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the unconstrained strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Uniform choice among boxed alternatives; built by [`prop_oneof!`].
pub struct Union<V>(pub Vec<BoxedStrategy<V>>);

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        assert!(
            !self.0.is_empty(),
            "prop_oneof! needs at least one alternative"
        );
        let pick = rng.below(0, self.0.len() as u64) as usize;
        self.0[pick].generate(rng)
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Length specification: a fixed size or a half-open/inclusive range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        /// Exclusive.
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }
    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi: r.end.max(r.start),
            }
        }
    }
    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: r.end().saturating_add(1),
            }
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.below(self.size.lo as u64, self.size.hi as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A `Vec` of values from `element`, with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

// ------------------------------------------------------------- config ----

/// Per-block configuration; only the case count is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }

    /// The case count after applying the `PROPTEST_CASES` override.
    pub fn effective_cases(&self) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(self.cases)
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Runs one property over `config.cases` generated cases. Used by the
/// [`proptest!`] macro; callable directly for programmatic properties.
pub fn run_cases<F: FnMut(&mut TestRng, u32)>(name: &str, config: &ProptestConfig, mut case: F) {
    let mut rng = TestRng::for_test(name);
    for index in 0..config.effective_cases() {
        case(&mut rng, index);
    }
}

// -------------------------------------------------------------- macros ---

/// Declares property tests: `fn name(arg in strategy, ...) { body }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@block ($config) $($rest)*);
    };
    (@block ($config:expr)
        $( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                let __config = $config;
                $(let $arg = $strat;)+
                $crate::run_cases(stringify!($name), &__config, |__rng, __case| {
                    $(let $arg = $crate::Strategy::generate(&$arg, __rng);)+
                    let __run = move || { $body };
                    if let Err(panic) = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(__run),
                    ) {
                        eprintln!(
                            "proptest case {} of {} failed (fixed corpus of `{}`)",
                            __case, stringify!($name), stringify!($name),
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                });
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@block ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Uniform choice among strategies generating the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Asserts inside a property body (no shrinking; panics like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Equality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Inequality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn corpus_is_fixed_per_name() {
        let mut a = TestRng::for_test("alpha");
        let mut b = TestRng::for_test("alpha");
        let mut c = TestRng::for_test("beta");
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::for_test("ranges");
        let s = 3u8..9;
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((3..9).contains(&v));
        }
        let inc = 0u64..=2;
        for _ in 0..200 {
            assert!(inc.generate(&mut rng) <= 2);
        }
    }

    #[test]
    fn vec_and_map_compose() {
        let mut rng = TestRng::for_test("compose");
        let s = collection::vec(0u32..10, 2..5).prop_map(|v| v.len());
        for _ in 0..100 {
            let len = s.generate(&mut rng);
            assert!((2..5).contains(&len));
        }
        let fixed = collection::vec(any::<bool>(), 7);
        assert_eq!(fixed.generate(&mut rng).len(), 7);
    }

    #[test]
    fn oneof_hits_every_alternative() {
        let mut rng = TestRng::for_test("oneof");
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[s.generate(&mut rng) as usize] = true;
        }
        assert_eq!(seen, [false, true, true, true]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        fn macro_binds_and_iterates(x in 0u8..4, ys in collection::vec(0u8..4, 0..6)) {
            prop_assert!(x < 4);
            for y in ys {
                prop_assert!(y < 4);
            }
        }
    }
}

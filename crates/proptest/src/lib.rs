//! A minimal, dependency-free drop-in for the subset of `proptest` this
//! workspace uses. The container this repository builds in has no access
//! to a crates-io registry, so the upstream crate cannot be fetched.
//!
//! Supported surface (everything the repo's property tests call):
//!
//! * `proptest! { #![proptest_config(...)] #[test] fn f(x in strat, ..) {..} }`
//! * strategies: integer ranges, tuples, `any::<T>()`, `Just`,
//!   `prop::collection::vec(strategy, size)`, `.prop_map(f)`,
//!   `prop_oneof![..]`
//! * assertions: `prop_assert!`, `prop_assert_eq!`, `prop_assert_ne!`
//!
//! Semantics differ from upstream in one deliberate way: failures panic
//! immediately with the failing case index and there is **no shrinking**.
//! Case generation is deterministic — the RNG is seeded from the test
//! function's name — so a failure reproduces on every run.

#![deny(unsafe_code)]

use std::marker::PhantomData;

use rand::rngs::SmallRng;
use rand::{Rng, SampleUniform, SeedableRng};

pub mod collection;

/// Runner configuration (only `cases` is honored).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of values of one type.
pub trait Strategy {
    type Value;

    fn sample(&self, rng: &mut SmallRng) -> Self::Value;

    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut SmallRng) -> T {
        (**self).sample(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut SmallRng) -> S::Value {
        (**self).sample(rng)
    }
}

impl<T: SampleUniform + Copy> Strategy for std::ops::Range<T> {
    type Value = T;
    fn sample(&self, rng: &mut SmallRng) -> T {
        rng.gen_range(self.start..self.end)
    }
}

impl<T: SampleUniform + Copy> Strategy for std::ops::RangeInclusive<T> {
    type Value = T;
    fn sample(&self, rng: &mut SmallRng) -> T {
        rng.gen_range(*self.start()..=*self.end())
    }
}

/// Always yields a clone of its payload.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut SmallRng) -> T {
        self.0.clone()
    }
}

/// `.prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut SmallRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! impl_tuple_strategy {
    ($($S:ident/$idx:tt),+) => {
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn sample(&self, rng: &mut SmallRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A / 0);
impl_tuple_strategy!(A / 0, B / 1);
impl_tuple_strategy!(A / 0, B / 1, C / 2);
impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3);

/// Types with a default whole-domain strategy ([`any`]).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut SmallRng) -> Self;
}

impl<T: rand::Standard> Arbitrary for T {
    fn arbitrary(rng: &mut SmallRng) -> T {
        rng.gen()
    }
}

/// Strategy over `T`'s whole domain.
pub struct Any<T>(PhantomData<T>);

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut SmallRng) -> T {
        T::arbitrary(rng)
    }
}

/// Uniform choice among boxed alternatives (`prop_oneof!`).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut SmallRng) -> T {
        let i = rng.gen_range(0..self.options.len());
        self.options[i].sample(rng)
    }
}

/// Failure value for test bodies that use `?` / early `return Ok(())`
/// (upstream runs each case in a function returning
/// `Result<(), TestCaseError>`; the shim does the same via a closure).
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

/// Deterministic per-test RNG (used by the `proptest!` expansion).
pub fn __seed_rng(test_name: &str) -> SmallRng {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    test_name.hash(&mut h);
    SmallRng::seed_from_u64(h.finish())
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[macro_export]
macro_rules! __proptest_cases {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let mut __rng = $crate::__seed_rng(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..__cfg.cases {
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)+
                    // The closure is load-bearing: it gives `$body` a scope
                    // where `?` on TestCaseError works, as in real proptest.
                    #[allow(clippy::redundant_closure_call)]
                    let __result: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(e) = __result {
                        panic!("proptest case {} failed: {}", __case, e);
                    }
                }
            }
        )*
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// Everything the repo's tests import.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };

    /// Upstream's `prelude::prop` namespace.
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u64..10, y in 0u32..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y <= 4);
        }

        #[test]
        fn tuples_and_patterns((a, b) in (0u64..8, 1u64..3)) {
            prop_assert!(a < 8 && (1..3).contains(&b));
        }

        #[test]
        fn vec_respects_size(v in prop::collection::vec(0u64..100, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 100));
        }

        #[test]
        fn oneof_and_map_cover_arms(x in prop_oneof![
            (0u64..4).prop_map(|v| v),
            Just(99u64),
        ]) {
            prop_assert!(x < 4 || x == 99);
        }

        #[test]
        fn any_bool_is_fine(b in any::<bool>(), s in any::<u64>()) {
            let _ = (b, s);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::__seed_rng("some::test");
        let mut b = crate::__seed_rng("some::test");
        let sa = crate::Strategy::sample(&(0u64..1_000_000), &mut a);
        let sb = crate::Strategy::sample(&(0u64..1_000_000), &mut b);
        assert_eq!(sa, sb);
    }
}

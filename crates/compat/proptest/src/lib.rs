//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest API this workspace's property
//! tests use: the [`proptest!`] macro, `any::<T>()`, integer-range and
//! `collection::vec` strategies, `prop_map` / `prop_filter` combinators,
//! the `prop_assert*` macros and [`ProptestConfig::with_cases`].
//!
//! Differences from upstream: no shrinking (a failing case panics with
//! the generated inputs left to the assertion message), and the default
//! case count is 64 rather than 256 to keep `cargo test` fast on the
//! big-integer suites.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Test-run configuration.
pub mod config {
    /// Mirror of proptest's `ProptestConfig`; only `cases` is honored.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }
}

/// Strategies: composable random-value generators.
pub mod strategy {
    use rand::rngs::StdRng;
    use rand::Rng;

    /// A generator of random values of type `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Keeps only values satisfying `pred`, retrying otherwise.
        fn prop_filter<F: Fn(&Self::Value) -> bool>(
            self,
            whence: &'static str,
            pred: F,
        ) -> Filter<Self, F>
        where
            Self: Sized,
        {
            Filter {
                inner: self,
                whence,
                pred,
            }
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn sample(&self, rng: &mut StdRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// See [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        inner: S,
        whence: &'static str,
        pred: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;

        fn sample(&self, rng: &mut StdRng) -> S::Value {
            for _ in 0..10_000 {
                let v = self.inner.sample(rng);
                if (self.pred)(&v) {
                    return v;
                }
            }
            panic!("prop_filter({:?}) rejected 10000 consecutive samples", self.whence);
        }
    }

    /// `any::<T>()` marker strategy.
    pub struct Any<T>(pub(crate) std::marker::PhantomData<T>);

    macro_rules! impl_any_int {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    rng.random::<$t>()
                }
            }
        )*};
    }

    impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! impl_tuple_strategy {
        ($($s:ident / $v:ident),*) => {
            impl<$($s: Strategy),*> Strategy for ($($s,)*) {
                type Value = ($($s::Value,)*);
                fn sample(&self, rng: &mut StdRng) -> Self::Value {
                    let ($($v,)*) = self;
                    ($($v.sample(rng),)*)
                }
            }
        };
    }

    impl_tuple_strategy!(A / a, B / b);
    impl_tuple_strategy!(A / a, B / b, C / c);
    impl_tuple_strategy!(A / a, B / b, C / c, D / d);
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Strategy for `Vec<S::Value>` with a length drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    /// Generates vectors whose length lies in `len`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = rng.random_range(self.len.clone());
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Returns the canonical strategy for `T` (uniform over the whole type).
pub fn any<T>() -> strategy::Any<T>
where
    strategy::Any<T>: strategy::Strategy,
{
    strategy::Any(std::marker::PhantomData)
}

/// Everything a property-test module normally imports.
pub mod prelude {
    pub use crate::config::ProptestConfig;
    pub use crate::strategy::Strategy;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Deterministic per-test RNG derivation (FNV-1a over the test path).
pub fn rng_for(test_path: &str, case: u32) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_path.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    StdRng::seed_from_u64(h ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` random instantiations.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::config::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                use $crate::strategy::Strategy as _;
                let __cfg: $crate::config::ProptestConfig = $cfg;
                for __case in 0..__cfg.cases {
                    let mut __rng = $crate::rng_for(
                        concat!(module_path!(), "::", stringify!($name)),
                        __case,
                    );
                    $(let $arg = ($strat).sample(&mut __rng);)+
                    $body
                }
            }
        )*
    };
}

/// Asserts a condition inside a property (panics with the message).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respected(a in 3u64..10, b in 1usize..4) {
            prop_assert!((3..10).contains(&a));
            prop_assert!((1..4).contains(&b));
        }

        #[test]
        fn vec_lengths(v in crate::collection::vec(any::<u8>(), 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
        }

        #[test]
        fn map_and_filter(x in any::<u32>().prop_map(|v| v % 100).prop_filter("even", |v| v % 2 == 0)) {
            prop_assert_eq!(x % 2, 0);
            prop_assert!(x < 100);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        /// Doc comments inside the macro must parse.
        #[test]
        fn config_applies(seed in any::<u64>()) {
            let _ = seed;
        }
    }
}

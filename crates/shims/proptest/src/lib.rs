//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so this in-tree shim
//! implements the subset of proptest the workspace's property tests use:
//! the [`proptest!`] macro (with `#![proptest_config(..)]`), range and
//! tuple strategies, [`prop::collection::vec`], [`Strategy::prop_map`],
//! and the `prop_assert!`/`prop_assert_eq!` assertion macros.
//!
//! Unlike real proptest there is **no shrinking** and no persisted failure
//! regression file: failing cases report the case number under a fixed
//! seed (overridable via `PROPTEST_SEED`), which reproduces the draw
//! deterministically.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::ops::Range;

/// Test-case failure carried out of a property body by `prop_assert!`.
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Creates a failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Per-test configuration (subset of proptest's).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// The RNG handed to strategies.
pub type TestRng = SmallRng;

/// Returns the deterministic base RNG (seed from `PROPTEST_SEED` or fixed).
pub fn test_rng() -> TestRng {
    let seed = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x00C0_FFEE_u64);
    SmallRng::seed_from_u64(seed)
}

/// A generator of random values (shim of proptest's `Strategy`).
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        (**self).new_value(rng)
    }
}

/// Strategy adapter produced by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
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

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn new_value(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn new_value(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

macro_rules! tuple_strategy {
    ($($s:ident/$idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.new_value(rng),)+)
            }
        }
    };
}

tuple_strategy!(A / 0);
tuple_strategy!(A / 0, B / 1);
tuple_strategy!(A / 0, B / 1, C / 2);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5, G / 6);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5, G / 6, H / 7);
tuple_strategy!(
    A / 0,
    B / 1,
    C / 2,
    D / 3,
    E / 4,
    F / 5,
    G / 6,
    H / 7,
    I / 8
);
tuple_strategy!(
    A / 0,
    B / 1,
    C / 2,
    D / 3,
    E / 4,
    F / 5,
    G / 6,
    H / 7,
    I / 8,
    J / 9
);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::Range;

    /// A length specification: exact or a half-open range.
    #[derive(Debug, Clone)]
    pub struct SizeRange(Range<usize>);

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self(n..n + 1)
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            Self(r)
        }
    }

    /// Strategy for `Vec`s of `element` values with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy produced by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.0.clone());
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// The `prop::` namespace used by `use proptest::prelude::*` consumers.
pub mod prop {
    pub use crate::collection;
}

/// Everything a property test file needs.
pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, proptest, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Asserts a condition inside a property body, failing the case (not the
/// whole process) with a formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{:?}` != `{:?}` ({} vs {})",
            l,
            r,
            stringify!($left),
            stringify!($right)
        );
    }};
}

/// Declares property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running the body over random draws.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { (<$crate::ProptestConfig as ::std::default::Default>::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let strategies = ($($strat,)*);
                let mut rng = $crate::test_rng();
                for case in 0..config.cases {
                    let ($($arg,)*) = $crate::Strategy::new_value(&strategies, &mut rng);
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!("property `{}` failed at case {case}/{}: {e}",
                               stringify!($name), config.cases);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        #[test]
        fn ranges_honoured(x in 3u64..17, y in -1.0f64..1.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-1.0..1.0).contains(&y), "y = {y}");
        }

        #[test]
        fn vec_and_map_compose(
            v in prop::collection::vec(0u32..10, 2..6),
            w in prop::collection::vec(0.0f64..1.0, 4),
            doubled in (1usize..5).prop_map(|n| n * 2),
        ) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert_eq!(w.len(), 4);
            prop_assert!(doubled % 2 == 0 && doubled <= 8);
        }
    }

    #[test]
    fn prop_assert_failure_is_reported() {
        let result = std::panic::catch_unwind(|| {
            // No #[test] attribute here: the generated fn is called
            // directly so the failure path can be observed.
            proptest! {
                fn always_fails(x in 0u32..1) {
                    prop_assert!(x > 0, "x was {x}");
                }
            }
            always_fails();
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(
            msg.contains("always_fails") && msg.contains("x was 0"),
            "{msg}"
        );
    }

    #[test]
    fn just_yields_value() {
        let mut rng = crate::test_rng();
        assert_eq!(Just(41u8).new_value(&mut rng), 41);
    }
}

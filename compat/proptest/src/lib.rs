//! Minimal in-tree substitute for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the subset of proptest it uses: the [`strategy::Strategy`]
//! trait with `prop_map` / `prop_filter` / `prop_filter_map`, tuple and
//! range strategies, `any`, `Just`, collection / option / sample
//! strategies, a small regex-based string generator, and the
//! `proptest!` / `prop_oneof!` / `prop_assert*` / `prop_assume!`
//! macros. Cases are generated from a deterministic per-test seed;
//! failures report the generated inputs. **No shrinking** — a failing
//! case prints the raw inputs instead of a minimised one, which is
//! acceptable for an offline CI gate.

#![forbid(unsafe_code)]

pub mod collection;
pub mod num;
pub mod option;
pub mod sample;
pub mod strategy;
pub mod string;
pub mod test_runner;

pub use strategy::{Just, Strategy};
pub use test_runner::{ProptestConfig, TestCaseError, TestRng};

use std::marker::PhantomData;

/// Types with a canonical "arbitrary value" strategy.
pub trait Arbitrary: std::fmt::Debug + Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($ty:ty),*) => {$(
        impl Arbitrary for $ty {
            fn arbitrary(rng: &mut TestRng) -> $ty {
                rng.next_u64() as $ty
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for [u64; 4] {
    fn arbitrary(rng: &mut TestRng) -> [u64; 4] {
        [
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
        ]
    }
}

/// The canonical strategy for a type: `any::<u8>()` etc.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct AnyStrategy<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub mod prelude {
    //! Everything a property-test file imports with one glob.
    pub use crate as prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Asserts a condition inside a `proptest!` body; on failure the case
/// (with its generated inputs) is reported instead of panicking on the
/// spot.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// `prop_assert!` for equality, printing both sides on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (left, right) => {
                if !(*left == *right) {
                    return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        ::std::format!(
                            "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`",
                            left,
                            right
                        ),
                    ));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (left, right) => {
                if !(*left == *right) {
                    return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        ::std::format!(
                            "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`\n{}",
                            left,
                            right,
                            ::std::format!($($fmt)+)
                        ),
                    ));
                }
            }
        }
    };
}

/// `prop_assert!` for inequality.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (left, right) => {
                if *left == *right {
                    return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        ::std::format!("assertion failed: `left != right`\n  both: `{:?}`", left),
                    ));
                }
            }
        }
    };
}

/// Rejects the current case (resampled, not counted as a failure).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                ::std::format!("assumption failed: {}", stringify!($cond)),
            ));
        }
    };
}

/// Weighted (or unweighted) choice between strategies producing the
/// same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $($crate::strategy::arm($weight as u32, $strat)),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $($crate::strategy::arm(1u32, $strat)),+
        ])
    };
}

/// Defines property tests: each `fn name(inputs in strategies) { body }`
/// becomes a `#[test]` running many generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($config:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $pat:pat_param in $strat:expr ),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $config;
                $crate::test_runner::run_cases(&__config, stringify!($name), |__rng| {
                    let __inputs = ( $( $crate::strategy::Strategy::generate(&($strat), __rng), )+ );
                    let __described = ::std::format!("{:?}", __inputs);
                    let ( $($pat,)+ ) = __inputs;
                    let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    __outcome.map_err(|e| e.with_inputs(&__described))
                });
            }
        )*
    };
}

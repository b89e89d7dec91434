//! Vendored, dependency-free stand-in for the [`proptest`] crate.
//!
//! The build environment has no network access to crates.io, so this crate
//! provides the *subset* of proptest's API that the workspace's property
//! tests actually use, with identical call-site syntax:
//!
//! - the [`proptest!`] macro over `#[test] fn name(args) { .. }` items,
//!   where each argument is either `pat in strategy` or `pat: Type`;
//! - integer-range strategies (`0u64..1_000_000`), [`any::<T>()`](any),
//!   and [`collection::vec`];
//! - [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`] and
//!   [`prop_assume!`].
//!
//! Unlike real proptest there is no shrinking: cases are generated from a
//! deterministic splitmix64 stream seeded from the test's module path and
//! name, so failures are bit-reproducible across runs and machines. The
//! number of cases per test defaults to [`test_runner::DEFAULT_CASES`] and
//! can be overridden with the `PROPTEST_CASES` environment variable.

#![expect(
    clippy::cast_possible_truncation,
    reason = "strategies draw a u64 or i64 and narrow it into the requested range or type on purpose"
)]

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod test_runner;

pub use arbitrary::{any, Arbitrary};
pub use strategy::Strategy;

/// Everything a property-test module usually imports.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::Strategy;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Declares property tests.
///
/// Each `#[test] fn name(args) { body }` item expands to a normal unit test
/// that runs `body` for [`test_runner::cases()`] generated inputs.
#[macro_export]
macro_rules! proptest {
    ($( $(#[$meta:meta])+ fn $name:ident($($args:tt)*) $body:block )*) => {
        $(
            $(#[$meta])+
            fn $name() {
                let mut __pt_rng = $crate::test_runner::TestRng::for_test(concat!(
                    module_path!(),
                    "::",
                    stringify!($name)
                ));
                for __pt_case in 0..$crate::test_runner::cases() {
                    let mut __pt_case_rng = __pt_rng.fork(__pt_case);
                    $crate::__proptest_case!(__pt_case_rng, $body, $($args)*);
                }
            }
        )*
    };
}

/// Implementation detail of [`proptest!`]: binds one generated value per
/// argument, then runs the body inside a closure so [`prop_assume!`] can
/// abandon the case early.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_case {
    // Terminal: all arguments bound — run the body.
    ($rng:ident, $body:block $(,)?) => {
        #[expect(
            clippy::redundant_closure_call,
            reason = "the closure gives prop_assume! an early return out of the case body"
        )]
        let _: ::core::option::Option<()> = (move || {
            $body
            ::core::option::Option::Some(())
        })();
    };
    // `mut x in strategy`
    ($rng:ident, $body:block, mut $a:ident in $s:expr $(, $($rest:tt)*)?) => {
        let mut $a = $crate::strategy::Strategy::generate(&($s), &mut $rng);
        $crate::__proptest_case!($rng, $body $(, $($rest)*)?);
    };
    // `x in strategy`
    ($rng:ident, $body:block, $a:ident in $s:expr $(, $($rest:tt)*)?) => {
        let $a = $crate::strategy::Strategy::generate(&($s), &mut $rng);
        $crate::__proptest_case!($rng, $body $(, $($rest)*)?);
    };
    // `mut x: Type`
    ($rng:ident, $body:block, mut $a:ident : $t:ty $(, $($rest:tt)*)?) => {
        let mut $a = <$t as $crate::arbitrary::Arbitrary>::arbitrary(&mut $rng);
        $crate::__proptest_case!($rng, $body $(, $($rest)*)?);
    };
    // `x: Type`
    ($rng:ident, $body:block, $a:ident : $t:ty $(, $($rest:tt)*)?) => {
        let $a = <$t as $crate::arbitrary::Arbitrary>::arbitrary(&mut $rng);
        $crate::__proptest_case!($rng, $body $(, $($rest)*)?);
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Skips the current case (without failing) when `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::option::Option::None;
        }
    };
}

//! The [`Strategy`] trait and its combinators.

use crate::string::generate_matching;
use crate::test_runner::TestRng;
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The generated value type.
    type Value: Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms every generated value.
    fn prop_map<U: Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { source: self, f }
    }

    /// Keeps only values satisfying `pred` (resampling otherwise).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        reason: &'static str,
        pred: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            source: self,
            reason,
            pred,
        }
    }

    /// Filters and maps in one step (resampling on `None`).
    fn prop_filter_map<U: Debug, F: Fn(Self::Value) -> Option<U>>(
        self,
        reason: &'static str,
        f: F,
    ) -> FilterMap<Self, F>
    where
        Self: Sized,
    {
        FilterMap {
            source: self,
            reason,
            f,
        }
    }
}

/// Always produces a clone of one value.
#[derive(Debug, Clone, Copy)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Strategy produced by [`Strategy::prop_map`].
#[derive(Debug, Clone, Copy)]
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S: Strategy, U: Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.source.generate(rng))
    }
}

const FILTER_ATTEMPTS: usize = 4096;

/// Strategy produced by [`Strategy::prop_filter`].
#[derive(Debug, Clone, Copy)]
pub struct Filter<S, F> {
    source: S,
    reason: &'static str,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..FILTER_ATTEMPTS {
            let v = self.source.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter '{}': filter rejected every sample",
            self.reason
        );
    }
}

/// Strategy produced by [`Strategy::prop_filter_map`].
#[derive(Debug, Clone, Copy)]
pub struct FilterMap<S, F> {
    source: S,
    reason: &'static str,
    f: F,
}

impl<S: Strategy, U: Debug, F: Fn(S::Value) -> Option<U>> Strategy for FilterMap<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        for _ in 0..FILTER_ATTEMPTS {
            if let Some(v) = (self.f)(self.source.generate(rng)) {
                return v;
            }
        }
        panic!(
            "prop_filter_map '{}': filter rejected every sample",
            self.reason
        );
    }
}

macro_rules! impl_range_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let offset = (rng.next_u64() as u128) % span;
                (self.start as i128 + offset as i128) as $ty
            }
        }
        impl Strategy for RangeInclusive<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = (*self.end() as i128 - *self.start() as i128 + 1) as u128;
                let offset = (rng.next_u64() as u128) % span;
                (*self.start() as i128 + offset as i128) as $ty
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// String literals are regex strategies generating matching strings.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        generate_matching(self, rng)
    }
}

impl Strategy for String {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        generate_matching(self, rng)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+);)*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A);
    (A, B);
    (A, B, C);
    (A, B, C, D);
    (A, B, C, D, E);
    (A, B, C, D, E, F2);
}

type ArmFn<V> = Box<dyn Fn(&mut TestRng) -> V>;

/// Weighted choice between strategies with a common value type; built
/// by the `prop_oneof!` macro.
pub struct Union<V> {
    arms: Vec<(u32, ArmFn<V>)>,
    total: u64,
}

impl<V: Debug> Union<V> {
    /// Builds the union; weights must not all be zero.
    pub fn new(arms: Vec<(u32, ArmFn<V>)>) -> Self {
        let total = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof: all weights zero");
        Union { arms, total }
    }
}

/// Wraps one strategy as a `prop_oneof!` arm.
pub fn arm<S: Strategy + 'static>(weight: u32, strategy: S) -> (u32, ArmFn<S::Value>) {
    (weight, Box::new(move |rng| strategy.generate(rng)))
}

impl<V: Debug> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let mut pick = rng.below(self.total);
        for (weight, f) in &self.arms {
            if pick < *weight as u64 {
                return f(rng);
            }
            pick -= *weight as u64;
        }
        unreachable!("weighted pick out of range")
    }
}

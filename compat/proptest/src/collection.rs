//! Collection strategies: `vec` and `hash_map`.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;
use std::ops::Range;

/// Size bounds for a generated collection, half-open.
#[derive(Debug, Clone)]
pub struct SizeRange(Range<usize>);

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange(r)
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange(n..n + 1)
    }
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        rng.usize_in(self.0.clone())
    }
}

/// A vector of values from `element`, sized within `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.size.pick(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// A hash map with keys from `key` and values from `value`, sized
/// within `size` (duplicate keys may produce a smaller map, as in real
/// proptest's key-collision behaviour).
pub fn hash_map<K: Strategy, V: Strategy>(
    key: K,
    value: V,
    size: impl Into<SizeRange>,
) -> HashMapStrategy<K, V> {
    HashMapStrategy {
        key,
        value,
        size: size.into(),
    }
}

/// Strategy returned by [`hash_map`].
#[derive(Debug, Clone)]
pub struct HashMapStrategy<K, V> {
    key: K,
    value: V,
    size: SizeRange,
}

impl<K: Strategy, V: Strategy> Strategy for HashMapStrategy<K, V>
where
    K::Value: Eq + Hash,
{
    type Value = HashMap<K::Value, V::Value>;
    fn generate(&self, rng: &mut TestRng) -> HashMap<K::Value, V::Value> {
        let n = self.size.pick(rng);
        let mut map = HashMap::with_capacity(n);
        for _ in 0..n.saturating_mul(4) {
            if map.len() >= n {
                break;
            }
            map.insert(self.key.generate(rng), self.value.generate(rng));
        }
        map
    }
}

//! Collection strategies.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::Range;

/// A number-of-elements specification for [`vec()`].
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    min: usize,
    /// Exclusive.
    max: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max: r.end,
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange { min: n, max: n + 1 }
    }
}

/// A strategy producing `Vec`s of values from `element`, with a length
/// drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
#[derive(Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.max - self.size.min) as u64;
        let n = self.size.min + rng.below(span) as usize;
        (0..n).map(|_| self.element.sample(rng)).collect()
    }
}

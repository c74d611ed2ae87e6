//! A totally-ordered `f64` wrapper for heaps and sort keys.
//!
//! `f64` is only `PartialOrd` because of NaN, so it cannot key a
//! `BinaryHeap` or derive `Ord` directly. [`OrdF64`] closes that gap with
//! IEEE 754 `total_cmp` ordering (−NaN < −∞ < … < +∞ < +NaN), which is a
//! genuine total order and agrees with `<` on the ordinary values every
//! distance computation produces.
//!
//! Priority queues of distances (Dijkstra's frontier) use this one wrapper
//! instead of re-declaring it privately.

/// `f64` wrapper ordered by [`f64::total_cmp`].
#[derive(Clone, Copy, Debug, Default)]
pub struct OrdF64(pub f64);

impl OrdF64 {
    /// The wrapped value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

// Equality must agree with `Ord` (the `Eq`/`Ord` contract), so it is
// defined through `total_cmp` too: NaN == NaN, and -0.0 != +0.0 — unlike
// `f64`'s own `==`.
impl PartialEq for OrdF64 {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl From<f64> for OrdF64 {
    #[inline]
    fn from(x: f64) -> Self {
        OrdF64(x)
    }
}

impl From<OrdF64> for f64 {
    #[inline]
    fn from(x: OrdF64) -> Self {
        x.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_ordinary_values_like_lt() {
        let mut v = [OrdF64(3.5), OrdF64(-1.0), OrdF64(0.0), OrdF64(2.0)];
        v.sort();
        assert_eq!(v.map(f64::from), [-1.0, 0.0, 2.0, 3.5]);
    }

    #[test]
    fn total_order_handles_nan_and_zero_signs() {
        let mut v = [
            OrdF64(f64::NAN),
            OrdF64(1.0),
            OrdF64(f64::NEG_INFINITY),
            OrdF64(-0.0),
            OrdF64(0.0),
        ];
        v.sort();
        assert!(v[0].get().is_infinite() && v[0].get() < 0.0);
        assert!(v[1].get() == 0.0 && v[1].get().is_sign_negative());
        assert!(v[2].get() == 0.0 && v[2].get().is_sign_positive());
        assert_eq!(v[3].get(), 1.0);
        assert!(v[4].get().is_nan());
    }

    #[test]
    fn equality_agrees_with_the_total_order() {
        assert_eq!(OrdF64(f64::NAN), OrdF64(f64::NAN));
        assert_ne!(OrdF64(-0.0), OrdF64(0.0));
        assert_eq!(OrdF64(1.5), OrdF64(1.5));
    }

    #[test]
    fn works_as_a_heap_key() {
        let mut heap = std::collections::BinaryHeap::new();
        for d in [2.0, 0.5, 9.0, 1.5] {
            heap.push(std::cmp::Reverse(OrdF64(d)));
        }
        assert_eq!(heap.pop().unwrap().0.get(), 0.5);
        assert_eq!(heap.pop().unwrap().0.get(), 1.5);
    }
}

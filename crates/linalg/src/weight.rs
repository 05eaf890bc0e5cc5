//! The [`Weight`] abstraction: the scalar type the numeric stack is
//! generic over.
//!
//! The workspace's kernels were written against `f64`. Certified bounds
//! for tolerance (inexact) lumps need the same kernels over a second
//! scalar: a closed interval `[lo, hi]` with **outward-rounded**
//! arithmetic, so that every computed interval is guaranteed to contain
//! the exact real-arithmetic result (the enclosure discipline of interval
//! analysis, applied here to the imprecise-CTMC constructions of
//! Erreygers & De Bock, arXiv:1804.01020).
//!
//! Two deliberate design points:
//!
//! * The trait is **sealed** to exactly `f64` and [`Interval`]. The `f64`
//!   impl is `#[inline]` pass-through arithmetic, so a kernel
//!   instantiated at `f64` compiles to the same floating-point expression
//!   tree as the pre-generic code — the existing bit-identity proptests
//!   (any thread count, image round trips) remain valid oracles.
//! * Rust gives no portable access to the FPU rounding mode, so outward
//!   rounding is done by **ulp-nudging**: a correctly rounded (nearest)
//!   result is within half an ulp of the true value, hence
//!   [`next_down`]`(fl(x ∘ y)) ≤ x ∘ y ≤ `[`next_up`]`(fl(x ∘ y))` for
//!   every finite operation. One ulp of slack per operation is a few
//!   parts in 2⁵² — invisible next to the rate envelopes the bounds
//!   solver propagates, and sound.
//!
//! The storage layout of [`Interval`] (two consecutive doubles, 16-byte
//! POD) lives in `mdl-arena` so generic kernels keep interval weights in
//! the same [`mdl_arena::Slab`]s as `f64` ones; this module owns the
//! arithmetic.

/// A closed interval of doubles, re-exported from `mdl-arena` (which owns
/// the 16-byte POD storage layout for slabs and images).
pub use mdl_arena::Interval;

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for mdl_arena::Interval {}
}

/// The next representable double strictly above `v` (saturating at
/// `+∞`; NaN is returned unchanged). `-0.0` and `+0.0` both step to the
/// smallest positive subnormal.
#[inline]
pub fn next_up(v: f64) -> f64 {
    if v.is_nan() || v == f64::INFINITY {
        return v;
    }
    if v == 0.0 {
        return f64::from_bits(1);
    }
    let bits = v.to_bits();
    if bits >> 63 == 0 {
        f64::from_bits(bits + 1)
    } else {
        f64::from_bits(bits - 1)
    }
}

/// The next representable double strictly below `v` (saturating at
/// `-∞`; NaN is returned unchanged).
#[inline]
pub fn next_down(v: f64) -> f64 {
    -next_up(-v)
}

/// Whether `s == fl(x + y)` is the *exact* real sum, decided by the
/// 2Sum error term (Knuth; exact in IEEE-754 when `s` is finite). Exact
/// sums must not be nudged: the envelope builders rely on "all members
/// aggregate to bit-identical exact sums ⇒ zero-width hull" so that an
/// exactly lumpable model under a tolerance run produces an **empty**
/// envelope, which is what lets the bounds path return degenerate
/// `[x, x]` answers there.
#[inline]
fn sum_is_exact(x: f64, y: f64, s: f64) -> bool {
    if !s.is_finite() {
        return false;
    }
    let yp = s - x;
    let xp = s - yp;
    (x - xp) + (y - yp) == 0.0
}

/// `x + y` rounded toward `-∞`: the nearest-rounded sum when that is
/// exact, one ulp below it otherwise.
#[inline]
pub fn add_down(x: f64, y: f64) -> f64 {
    let s = x + y;
    if sum_is_exact(x, y, s) {
        s
    } else {
        next_down(s)
    }
}

/// `x + y` rounded toward `+∞`.
#[inline]
pub fn add_up(x: f64, y: f64) -> f64 {
    let s = x + y;
    if sum_is_exact(x, y, s) {
        s
    } else {
        next_up(s)
    }
}

/// `x - y` rounded toward `-∞`.
#[inline]
pub fn sub_down(x: f64, y: f64) -> f64 {
    add_down(x, -y)
}

/// `x - y` rounded toward `+∞`.
#[inline]
pub fn sub_up(x: f64, y: f64) -> f64 {
    add_up(x, -y)
}

/// `x * y` rounded toward `-∞`.
#[inline]
pub fn mul_down(x: f64, y: f64) -> f64 {
    next_down(x * y)
}

/// `x * y` rounded toward `+∞`.
#[inline]
pub fn mul_up(x: f64, y: f64) -> f64 {
    next_up(x * y)
}

/// The scalar type of the numeric stack. Sealed — exactly `f64` (exact
/// reproduction of the historical kernels, bit for bit) and [`Interval`]
/// (guaranteed enclosures via outward rounding).
///
/// `Pod` is a supertrait so generic kernels can keep their arrays in
/// [`mdl_arena::Slab`]s (owned or memory-mapped) at either instantiation.
pub trait Weight:
    sealed::Sealed + mdl_arena::Pod + Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static
{
    /// The additive identity.
    fn zero() -> Self;

    /// The multiplicative identity.
    fn one() -> Self;

    /// Embeds a double as a weight (a point interval for [`Interval`]).
    fn from_f64(v: f64) -> Self;

    /// Addition. For `f64` this is IEEE `+` verbatim; for [`Interval`] it
    /// is outward-rounded endpoint addition.
    fn add(self, rhs: Self) -> Self;

    /// Multiplication, with the same contract as [`Weight::add`].
    fn mul(self, rhs: Self) -> Self;

    /// Whether every component is finite.
    fn is_finite(self) -> bool;

    /// A representative double (the value itself, or the interval
    /// midpoint) — diagnostics only, never fed back into certified
    /// arithmetic. Named `rep` rather than `midpoint` to stay clear of
    /// `f64`'s inherent two-argument `midpoint`.
    fn rep(self) -> f64;
}

impl Weight for f64 {
    #[inline]
    fn zero() -> f64 {
        0.0
    }

    #[inline]
    fn one() -> f64 {
        1.0
    }

    #[inline]
    fn from_f64(v: f64) -> f64 {
        v
    }

    #[inline]
    fn add(self, rhs: f64) -> f64 {
        self + rhs
    }

    #[inline]
    fn mul(self, rhs: f64) -> f64 {
        self * rhs
    }

    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }

    #[inline]
    fn rep(self) -> f64 {
        self
    }
}

impl Weight for Interval {
    #[inline]
    fn zero() -> Interval {
        Interval { lo: 0.0, hi: 0.0 }
    }

    #[inline]
    fn one() -> Interval {
        Interval { lo: 1.0, hi: 1.0 }
    }

    #[inline]
    fn from_f64(v: f64) -> Interval {
        Interval::point(v)
    }

    #[inline]
    fn add(self, rhs: Interval) -> Interval {
        Interval {
            lo: add_down(self.lo, rhs.lo),
            hi: add_up(self.hi, rhs.hi),
        }
    }

    #[inline]
    fn mul(self, rhs: Interval) -> Interval {
        // Full sign-safe interval product: the true product of any
        // x ∈ self, y ∈ rhs lies between the min and max of the four
        // endpoint products; outward rounding keeps the enclosure sound.
        let a = self.lo * rhs.lo;
        let b = self.lo * rhs.hi;
        let c = self.hi * rhs.lo;
        let d = self.hi * rhs.hi;
        Interval {
            lo: next_down(a.min(b).min(c).min(d)),
            hi: next_up(a.max(b).max(c).max(d)),
        }
    }

    #[inline]
    fn is_finite(self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    #[inline]
    fn rep(self) -> f64 {
        self.lo + 0.5 * (self.hi - self.lo)
    }
}

/// The lower/upper transition operators of an **imprecise CTMC** whose
/// off-diagonal rates live in per-transition intervals (the credal-set
/// construction of Erreygers & De Bock, arXiv:1804.01020).
///
/// For a gamble `f` over the state space, the lower operator is
///
/// ```text
/// (Q̲f)(s) = Σ_{s'} min_{q ∈ [lo,hi]} q(s,s') · (f(s') − f(s))
///         = Σ_{s'} (if f(s') ≥ f(s) { lo } else { hi }) · (f(s') − f(s))
/// ```
///
/// and the upper operator flips the endpoint choice. Self-loops
/// contribute zero (`f(s) − f(s) = 0`), so the diagonal of the rate
/// matrix never needs representing — exactly like the scalar solvers.
/// Implementations must round **toward the bound** (down for the lower
/// operator, up for the upper), so the ctmc bounds solver's iterates stay
/// certified enclosures.
///
/// Implemented by `CompiledMdMatrix<Interval>` in `mdl-md`; defined here
/// so `mdl-ctmc` (which never sees the symbolic layers) can drive the
/// sweeps generically, mirroring [`RateMatrix`](crate::RateMatrix).
pub trait IntervalRateMatrix: Sync {
    /// Dimension of the state space.
    fn num_states(&self) -> usize;

    /// Accumulates `out[s] += (Q̲f)(s)` (`upper == false`) or
    /// `out[s] += (Q̄f)(s)` (`upper == true`), rounded toward the bound.
    fn acc_bound_operator(&self, f: &[f64], out: &mut [f64], upper: bool);

    /// An upper bound on every state's exit rate `Σ_{s'≠s} hi(s, s')`,
    /// rounded up — the basis of the uniformization constant.
    fn max_exit_rate_hi(&self) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_up_down_step_one_ulp() {
        assert_eq!(next_up(1.0), 1.0 + f64::EPSILON);
        assert_eq!(next_down(1.0 + f64::EPSILON), 1.0);
        assert!(next_up(0.0) > 0.0);
        assert!(next_down(0.0) < 0.0);
        assert_eq!(next_up(f64::INFINITY), f64::INFINITY);
        assert_eq!(next_down(f64::NEG_INFINITY), f64::NEG_INFINITY);
        assert_eq!(next_up(f64::MAX), f64::INFINITY);
        assert_eq!(next_down(f64::MIN), f64::NEG_INFINITY);
        assert!(next_up(f64::NAN).is_nan());
        // Strict bracketing of the rounded result.
        for v in [1.0, -3.5, 1e-300, 2.2e18, -0.0] {
            assert!(next_down(v) < v || v == f64::NEG_INFINITY);
            assert!(next_up(v) > v || v == f64::INFINITY);
        }
    }

    #[test]
    fn directed_ops_bracket_the_nearest_result() {
        let pairs = [(0.1, 0.2), (1e16, -1.0), (3.0, 7.0), (-2.5, 1e-17)];
        for (x, y) in pairs {
            assert!(add_down(x, y) <= x + y && x + y <= add_up(x, y));
            assert!(sub_down(x, y) <= x - y && x - y <= sub_up(x, y));
            assert!(mul_down(x, y) <= x * y && x * y <= mul_up(x, y));
        }
    }

    #[test]
    fn exact_sums_are_not_nudged() {
        // Exactly representable sums come back verbatim — the envelope
        // builders rely on this for zero-width hulls on exact lumps.
        assert_eq!(add_down(0.0, 2.5), 2.5);
        assert_eq!(add_up(0.0, 2.5), 2.5);
        assert_eq!(add_down(1.5, 0.25), 1.75);
        assert_eq!(add_up(1.5, 0.25), 1.75);
        assert_eq!(sub_down(3.0, 3.0), 0.0);
        assert_eq!(sub_up(3.0, 3.0), 0.0);
        // Inexact sums strictly bracket.
        assert!(add_down(0.1, 0.2) < 0.1 + 0.2);
        assert!(add_up(0.1, 0.2) > 0.1 + 0.2);
        // Overflow still yields sound directed bounds.
        assert_eq!(add_down(f64::MAX, f64::MAX), f64::MAX);
        assert_eq!(add_up(f64::MAX, f64::MAX), f64::INFINITY);
    }

    #[test]
    fn f64_weight_is_plain_ieee() {
        assert_eq!(Weight::add(0.1f64, 0.2), 0.1 + 0.2);
        assert_eq!(Weight::mul(0.1f64, 0.3), 0.1 * 0.3);
        assert_eq!(<f64 as Weight>::zero(), 0.0);
        assert_eq!(<f64 as Weight>::one(), 1.0);
        assert_eq!(Weight::rep(3.5f64), 3.5);
    }

    #[test]
    fn interval_ops_enclose_f64_ops() {
        let cases = [
            (Interval { lo: 0.1, hi: 0.3 }, Interval { lo: 0.2, hi: 0.4 }),
            (
                Interval { lo: -1.5, hi: 2.0 },
                Interval { lo: -3.0, hi: 0.5 },
            ),
            (Interval::point(1e100), Interval::point(1e-100)),
        ];
        for (a, b) in cases {
            let s = a.add(b);
            // Endpoint combinations of the operands stay inside.
            for x in [a.lo, a.hi] {
                for y in [b.lo, b.hi] {
                    assert!(s.lo <= x + y && x + y <= s.hi, "{s:?} vs {x} + {y}");
                    let p = a.mul(b);
                    assert!(p.lo <= x * y && x * y <= p.hi, "{p:?} vs {x} * {y}");
                }
            }
            // The enclosure never shrinks; it stays tight (no nudge) when
            // the endpoint sums are exact.
            assert!(s.width() >= a.width() + b.width());
        }
    }

    #[test]
    fn interval_point_and_midpoint() {
        let p = Interval::from_f64(2.5);
        assert!(p.is_point());
        assert_eq!(Weight::rep(p), 2.5);
        let w = Interval { lo: 1.0, hi: 3.0 };
        assert_eq!(Weight::rep(w), 2.0);
        assert!(
            Interval {
                lo: 0.0,
                hi: f64::INFINITY
            }
            .is_finite()
                == false
        );
        assert!(w.is_finite());
    }

    #[test]
    fn interval_mul_handles_mixed_signs() {
        let a = Interval { lo: -2.0, hi: 3.0 };
        let b = Interval { lo: -5.0, hi: 7.0 };
        let p = a.mul(b);
        // Extremes: 3·(−5) = −15 and (−2)·(−5) = 10 ∨ 3·7 = 21.
        assert!(p.lo <= -15.0 && p.hi >= 21.0);
        assert!(p.lo >= -15.5 && p.hi <= 21.5, "one-ulp slack only: {p:?}");
    }
}

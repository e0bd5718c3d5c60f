//! Exact rational arithmetic for the bandwidth model.
//!
//! Algorithm 1 repeatedly divides link bandwidth by congestion counts and
//! subtracts the result; with floating point, the `argmin L(e)/C(e)` step
//! can mis-tie-break and the paper's exact claims ("aggregate bandwidth is
//! exactly `q·B/2`") become approximate. A small normalized `i128` rational
//! keeps the whole model exact.
//!
//! Exact means never silently wrong: `+ − × ÷` use checked `i128`
//! operations and panic with [`OVERFLOW`] when a result does not fit, in
//! release builds as well as debug ones (a wrapped `i128` would otherwise
//! turn, say, the harmonic sum `Σ_{k≤100} 1/k ≈ 5.19` into `≈ 1.23`).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A normalized rational number (`den > 0`, `gcd(|num|, den) = 1`).
///
/// Stored as `i128` internally: Algorithm 1 itself produces tame
/// denominators, but summing many heterogeneous bandwidths (e.g. the
/// optimal-split arithmetic over dozens of trees) can push intermediate
/// denominators past `i64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

/// The panic message of every `Rational` operation whose exact result does
/// not fit in `i128` parts.
pub const OVERFLOW: &str = "rational overflow";

fn checked(x: Option<i128>) -> i128 {
    x.expect(OVERFLOW)
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        // 64-bit remainders are far cheaper than 128-bit ones: switch to
        // them as soon as both operands fit.
        if let (Ok(mut x), Ok(mut y)) = (u64::try_from(a), u64::try_from(b)) {
            while y != 0 {
                (x, y) = (y, x % y);
            }
            return x as i128;
        }
        (a, b) = (b, a % b);
    }
    a as i128
}

impl Rational {
    /// Creates `num / den`, normalizing sign and reducing. Panics on a zero
    /// denominator.
    pub fn new(num: i64, den: i64) -> Self {
        Self::new_i128(num as i128, den as i128)
    }

    /// Creates `num / den` from `i128` parts. Panics on a zero
    /// denominator, and with [`OVERFLOW`] if the normalized value does not
    /// fit (only `i128::MIN` parts can cause that).
    pub fn new_i128(num: i128, den: i128) -> Self {
        assert!(den != 0, "zero denominator");
        let g = gcd(num, den).max(1);
        let (num, den) = if g == 1 { (num, den) } else { (num / g, den / g) };
        if den < 0 {
            Rational { num: checked(num.checked_neg()), den: checked(den.checked_neg()) }
        } else {
            Rational { num, den }
        }
    }

    /// The integer `n`.
    pub const fn from_int(n: i64) -> Self {
        Rational { num: n as i128, den: 1 }
    }

    /// Zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// One.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Numerator (after normalization).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// Denominator (positive after normalization).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Exact equality with an integer.
    pub fn is_int(&self, n: i64) -> bool {
        self.den == 1 && self.num == n as i128
    }

    /// Conversion to `f64` (for reporting only).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Reciprocal. Panics on zero.
    pub fn recip(&self) -> Self {
        assert!(self.num != 0, "reciprocal of zero");
        Rational::new_i128(self.den, self.num)
    }

    /// `true` iff strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

// The four operations never wrap. When every part fits in `i64` (the
// common case) the direct formula provably fits in `i128`: each product
// stays below 2^126 in magnitude, so a sum of two stays below 2^127.
// Otherwise the cold paths first cancel the operands' common factors
// (which leaves every normalized result unchanged), then compute in
// checked `i128` and panic with [`OVERFLOW`] if the result does not fit.

/// `true` iff all four parts fit in `i64`.
fn small(a: i128, b: i128, c: i128, d: i128) -> bool {
    [a, b, c, d].iter().all(|&x| i64::try_from(x).is_ok())
}

/// `a/b + c/d` (`neg` subtracts instead) for normalized operands with a
/// part outside `i64`.
#[cold]
fn wide_sum(a: i128, b: i128, c: i128, d: i128, neg: bool) -> Rational {
    let g = gcd(b, d);
    let (l, r) = (checked(a.checked_mul(d / g)), checked(c.checked_mul(b / g)));
    let num = if neg { l.checked_sub(r) } else { l.checked_add(r) };
    Rational::new_i128(checked(num), checked(b.checked_mul(d / g)))
}

/// `(a/b)·(c/d)` for normalized operands with a part outside `i64`.
#[cold]
fn wide_product(a: i128, b: i128, c: i128, d: i128) -> Rational {
    // Both operands are normalized, so cross-cancelling is all the
    // reduction the product needs.
    let (g1, g2) = (gcd(a, d).max(1), gcd(c, b).max(1));
    Rational::new_i128(
        checked((a / g1).checked_mul(c / g2)),
        checked((b / g2).checked_mul(d / g1)),
    )
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        let (a, b, c, d) = (self.num, self.den, rhs.num, rhs.den);
        if small(a, b, c, d) {
            Rational::new_i128(a * d + c * b, b * d)
        } else {
            wide_sum(a, b, c, d, false)
        }
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        let (a, b, c, d) = (self.num, self.den, rhs.num, rhs.den);
        if small(a, b, c, d) {
            Rational::new_i128(a * d - c * b, b * d)
        } else {
            wide_sum(a, b, c, d, true)
        }
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        let (a, b, c, d) = (self.num, self.den, rhs.num, rhs.den);
        if small(a, b, c, d) {
            Rational::new_i128(a * c, b * d)
        } else {
            wide_product(a, b, c, d)
        }
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        assert!(rhs.num != 0, "division by zero rational");
        // The reciprocal of a normalized value is normalized up to sign.
        let recip = if rhs.num < 0 {
            Rational { num: -rhs.den, den: checked(rhs.num.checked_neg()) }
        } else {
            Rational { num: rhs.den, den: rhs.num }
        };
        self * recip
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Cross-multiplication can overflow even i128 once denominators
        // grow (e.g. sums over many heterogeneous bandwidths), so compare
        // by the continued-fraction expansion instead: equal integer
        // parts, then the comparison of the reciprocal remainders flips.
        let (mut a, mut b, mut c, mut d) = (self.num, self.den, other.num, other.den);
        let mut flipped = false;
        loop {
            let (qa, qc) = (a.div_euclid(b), c.div_euclid(d));
            if qa != qc {
                let ord = qa.cmp(&qc);
                return if flipped { ord.reverse() } else { ord };
            }
            let (ra, rc) = (a - qa * b, c - qc * d);
            match (ra == 0, rc == 0) {
                (true, true) => return Ordering::Equal,
                // No remainder on one side: it is the smaller fraction
                // (before flipping).
                (true, false) => {
                    return if flipped { Ordering::Greater } else { Ordering::Less }
                }
                (false, true) => {
                    return if flipped { Ordering::Less } else { Ordering::Greater }
                }
                (false, false) => {
                    // a/b vs c/d with equal floors: compare b/ra vs d/rc,
                    // reversed.
                    (a, b, c, d) = (b, ra, d, rc);
                    flipped = !flipped;
                }
            }
        }
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::from_int(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, 5), Rational::ZERO);
        assert_eq!(Rational::new(7, 1).numer(), 7);
        assert_eq!(Rational::new(7, 1).denom(), 1);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        Rational::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let half = Rational::new(1, 2);
        let third = Rational::new(1, 3);
        assert_eq!(half + third, Rational::new(5, 6));
        assert_eq!(half - third, Rational::new(1, 6));
        assert_eq!(half * third, Rational::new(1, 6));
        assert_eq!(half / third, Rational::new(3, 2));
        assert_eq!(half.recip(), Rational::from_int(2));
    }

    #[test]
    fn ordering() {
        let mut v = vec![
            Rational::new(3, 4),
            Rational::new(1, 2),
            Rational::new(2, 3),
            Rational::from_int(-1),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                Rational::from_int(-1),
                Rational::new(1, 2),
                Rational::new(2, 3),
                Rational::new(3, 4)
            ]
        );
    }

    #[test]
    fn many_term_sums_do_not_overflow() {
        // Regression: summing 64 bandwidths i/(i+1) overflowed the old
        // i64 representation (LCM of denominators ~1e27).
        let total = (1..=64)
            .map(|i| Rational::new(i, i + 1))
            .fold(Rational::ZERO, |a, b| a + b);
        assert!(total.is_positive());
        assert!(total > Rational::from_int(59) && total < Rational::from_int(64));
        // And the optimal split over them still partitions exactly.
        let bw: Vec<Rational> = (1..=64).map(|i| Rational::new(i, i + 1)).collect();
        let sizes = crate::perf::optimal_split(1 << 20, &bw);
        assert_eq!(sizes.iter().sum::<u64>(), 1 << 20);
    }

    /// `H_n = Σ_{k≤n} 1/k`.
    fn harmonic(n: i64) -> Rational {
        (1..=n).map(|k| Rational::new(1, k)).fold(Rational::ZERO, |a, b| a + b)
    }

    #[test]
    fn harmonic_sum_to_40_is_exact() {
        assert_eq!(harmonic(40), Rational::new(2_078_178_381_193_813, 485_721_041_551_200));
    }

    #[test]
    #[should_panic(expected = "rational overflow")]
    fn harmonic_sum_to_100_overflows_loudly() {
        // The denominator of H_100 is ≈ 2.8e39 > i128::MAX: the sum cannot
        // be represented, so it must panic in every profile rather than
        // wrap to a wrong value.
        let _ = harmonic(100);
    }

    #[test]
    #[should_panic(expected = "rational overflow")]
    fn products_overflow_loudly() {
        let _ = Rational::new_i128(1 << 120, 1) * Rational::new_i128(1 << 10, 3);
    }

    #[test]
    #[should_panic(expected = "rational overflow")]
    fn quotients_overflow_loudly() {
        let _ = Rational::new_i128(3, 1 << 120) / Rational::new_i128(1 << 10, 7);
    }

    #[test]
    fn reduction_keeps_wide_operands_in_range() {
        // Cross-cancelling before multiplying: the unreduced products
        // would exceed i128, the results do not.
        let a = Rational::new_i128(1 << 100, 3);
        let b = Rational::new_i128(3, 1 << 100);
        assert_eq!(a * b, Rational::ONE);
        assert_eq!(a / a, Rational::ONE);
        let c = Rational::new_i128(1, 1 << 100);
        assert_eq!(c + c, Rational::new_i128(1, 1 << 99));
        assert_eq!(c - c, Rational::ZERO);
    }

    #[test]
    fn display() {
        assert_eq!(Rational::new(1, 2).to_string(), "1/2");
        assert_eq!(Rational::from_int(5).to_string(), "5");
        assert_eq!(Rational::new(-3, 6).to_string(), "-1/2");
    }

    #[test]
    fn assign_ops_and_predicates() {
        let mut x = Rational::ONE;
        x += Rational::new(1, 2);
        assert_eq!(x, Rational::new(3, 2));
        x -= Rational::from_int(2);
        assert_eq!(x, Rational::new(-1, 2));
        assert!(!x.is_positive());
        assert!(Rational::new(1, 7).is_positive());
        assert!(Rational::from_int(4).is_int(4));
        assert!(!Rational::new(9, 2).is_int(4));
        assert_eq!(x.to_f64(), -0.5);
    }
}

"""Exact arithmetic in quadratic fields, plus rational interval helpers.

Return-time and orbit certificates need comparisons like ||n*alpha|| < eps
to be decided exactly.  Numbers of the form a + b*sqrt(d) (a, b rational,
d squarefree) support this: sign, floor and fractional part are all exact
integer computations.  Decimal inputs are handled as rational intervals.
"""

from fractions import Fraction
from math import isfinite, isqrt, lcm

from .errors import UsageError, PrecisionExhausted


_SPLIT_TRIAL = 10**5  # squarefree_split's trial-division bound


def squarefree_split(d: int) -> tuple[int, int]:
    """d = s^2 * d0; returns (s, d0).

    Trial division by p <= 10^5, stopping once p^2 exceeds what is left,
    leaves a cofactor c that is 1, a prime, or a product of primes above
    10^5; c is folded into s when it is a perfect square.  Below 10^15, c
    has at most two prime factors, so d0 is squarefree.  Above it, c may
    hide a square factor (p^2 q with p, q > 10^5): d0 is then a
    non-square but not always squarefree, which is all that exact sign
    and floor need.
    """
    if d <= 0:
        raise UsageError(f"need d > 0, got {d}")
    s, d0, c, p = 1, 1, d, 2
    while p * p <= c and p <= _SPLIT_TRIAL:
        while c % (p * p) == 0:
            c //= p * p
            s *= p
        if c % p == 0:
            c //= p
            d0 *= p
        p += 1
    r = isqrt(c)
    if r * r == c:
        return s * r, d0
    return s, d0 * c


def _floor_surd(P: int, D: int, Q: int) -> int:
    """floor((P + sqrt(D)) / Q) exactly, D not a perfect square."""
    s = isqrt(D)
    if Q > 0:
        return (P + s) // Q
    # (P + sqrt(D))/Q = -(P + sqrt(D))/|Q|; the value is never an integer
    return -((P + s) // (-Q)) - 1


def _surd_form(x: "QuadExt") -> tuple[int, int, int]:
    """Integers (P, D, Q) with x = (P + sqrt(D))/Q, for irrational x: write
    x = (A + B*sqrt(d))/den and fold the sign of B into P and Q."""
    den = lcm(x.a.denominator, x.b.denominator)
    A = x.a.numerator * (den // x.a.denominator)
    B = x.b.numerator * (den // x.b.denominator)
    D = B * B * x.d
    return (A, D, den) if B > 0 else (-A, D, -den)


class QuadExt:
    """Immutable a + b*sqrt(d), a and b rational, d a non-square >= 2 (0
    when b = 0); d is squarefree when the radicand given was below 10^15
    (see `squarefree_split`)."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=0):
        a = Fraction(a)
        b = Fraction(b)
        if b == 0:
            d = 0
        else:
            if d < 2:
                raise UsageError(f"need d >= 2 for irrational part, got {d}")
            s, d0 = squarefree_split(d)
            if d0 == 1:  # d was a perfect square: fold into the rational part
                a += b * s
                b = Fraction(0)
                d = 0
            else:
                b *= s
                d = d0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @classmethod
    def _of(cls, a: Fraction, b: Fraction, d: int) -> "QuadExt":
        """Arithmetic results: the radicand d is an operand's, already
        split, so it is not split again."""
        x = object.__new__(cls)
        object.__setattr__(x, "a", a)
        object.__setattr__(x, "b", b)
        object.__setattr__(x, "d", d if b else 0)
        return x

    def __setattr__(self, *_):
        raise AttributeError("QuadExt is immutable")

    # --- constructors -------------------------------------------------

    @classmethod
    def golden(cls) -> "QuadExt":
        """(sqrt(5) - 1) / 2, the fractional part of the golden ratio."""
        return cls(Fraction(-1, 2), Fraction(1, 2), 5)

    # --- predicates ----------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def _check_compatible(self, other: "QuadExt"):
        if self.b != 0 and other.b != 0 and self.d != other.d:
            raise UsageError(f"mixed radicands {self.d} and {other.d}")

    # --- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadExt._of(self.a + other, self.b, self.d)
        self._check_compatible(other)
        return QuadExt._of(self.a + other.a, self.b + other.b, self.d or other.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt._of(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadExt._of(self.a - other, self.b, self.d)
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadExt._of(self.a * other, self.b * other, self.d)
        self._check_compatible(other)
        d = self.d or other.d
        return QuadExt._of(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    # --- order ----------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d)."""
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # mixed signs: compare a^2 with b^2 d (never equal: d is a non-square)
        if a > 0:  # b < 0
            return 1 if a * a > b * b * d else -1
        return 1 if b * b * d > a * a else -1

    def _cmp(self, other) -> int:
        return (self - other).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadExt(other)
        elif not isinstance(other, QuadExt):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    # --- floor / fractional part ----------------------------------------

    def __float__(self) -> float:
        """The nearest float, to within about 2^-52 relative."""
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return float(a)
        try:
            fa, fb = float(a), float(b) * d**0.5
        except OverflowError:
            return self._float_scaled()
        # The sum is off by a few ulps of max(|fa|, |fb|): harmless unless
        # the terms have opposite signs and nearly cancel (or fb overflowed).
        x = fa + fb
        if isfinite(x) and (
            (a < 0) == (b < 0) or 64 * abs(x) >= max(abs(fa), abs(fb))
        ):
            return x
        return self._float_scaled()

    def _float_scaled(self) -> float:
        """float(x) from the exact floor of 2^k x, with k chosen so that the
        floor has at least 64 bits: x = (P + sqrt(D))/Q, and
        |x| = |P^2 - D| / (|Q| |P - sqrt(D)|) bounds log2 |x| from below
        without cancellation."""
        P, D, Q = _surd_form(self)
        k = max(
            0,
            68
            + Q.bit_length()
            + max(abs(P), isqrt(D)).bit_length()
            - abs(P * P - D).bit_length(),
        )
        return _floor_surd(P << k, D << (2 * k), Q) / (1 << k)

    def floor(self) -> int:
        """Exact floor, in integer arithmetic whatever the magnitude."""
        if self.b == 0:
            return self.a.numerator // self.a.denominator
        return _floor_surd(*_surd_form(self))

    def frac(self) -> "QuadExt":
        """x - floor(x), in [0, 1)."""
        return self - self.floor()

    def dist_to_nearest_int(self) -> "QuadExt":
        """||x||, the distance to the nearest integer."""
        f = self.frac()
        return f if f._cmp(Fraction(1, 2)) <= 0 else 1 - f

    def __repr__(self):
        if self.b == 0:
            return f"QuadExt({self.a})"
        return f"QuadExt({self.a} + {self.b}*sqrt({self.d}))"


# --- rational intervals ---------------------------------------------------
# Minimal certified enclosures [lo, hi]; just what continued-fraction
# expansion of decimal inputs needs.


class RatInterval:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise UsageError("empty interval")
        self.lo, self.hi = lo, hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __mul__(self, n: int):
        if n >= 0:
            return RatInterval(self.lo * n, self.hi * n)
        return RatInterval(self.hi * n, self.lo * n)

    __rmul__ = __mul__

    def __sub__(self, x):
        x = Fraction(x)
        return RatInterval(self.lo - x, self.hi - x)

    def certain_floor(self) -> int:
        """floor if the whole interval agrees on it."""
        flo = self.lo.numerator // self.lo.denominator
        fhi = self.hi.numerator // self.hi.denominator
        if flo != fhi:
            raise PrecisionExhausted(
                f"interval [{float(self.lo):.17g}, {float(self.hi):.17g}] "
                f"straddles an integer"
            )
        return flo

    def recip(self) -> "RatInterval":
        """1/x for an interval not containing 0."""
        if self.lo <= 0 <= self.hi:
            raise PrecisionExhausted("interval contains 0, cannot invert")
        return RatInterval(1 / self.hi, 1 / self.lo)

    def dist_to_nearest_int(self) -> "RatInterval":
        """Enclosure of ||x||; requires the interval to sit inside one period."""
        n = self.certain_floor()
        lo, hi = self.lo - n, self.hi - n  # both in [0, 1)
        half = Fraction(1, 2)
        if hi <= half:
            return RatInterval(lo, hi)
        if lo >= half:
            return RatInterval(1 - hi, 1 - lo)
        return RatInterval(min(lo, 1 - hi), half)

    def compare_lt(self, x) -> bool:
        """Certified self < x; raises when the interval straddles x."""
        x = Fraction(x)
        if self.hi < x:
            return True
        if self.lo >= x:
            return False
        raise PrecisionExhausted(f"interval straddles comparison point {float(x)}")

    def __repr__(self):
        return f"RatInterval({self.lo}, {self.hi})"


def sqrt_interval(d: int) -> RatInterval:
    """Certified enclosure of sqrt(d) of width 2^-128."""
    s = isqrt(d << 256)
    lo = Fraction(s, 1 << 128)
    hi = Fraction(s + 1, 1 << 128)
    return RatInterval(lo, hi)

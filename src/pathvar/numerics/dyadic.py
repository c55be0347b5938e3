"""Exact dyadic rationals: Fractions on a 2**e grid.

Every exact number in pathvar is a Fraction or, on a grid, integers over a
power of two: an interval's ends are two integers over one 2**e (see
numerics.interval), and partition parameters lie on such a grid too.  A
Dyadic is a Fraction whose denominator is a power of two, the view an
interval gives of its ends; arithmetic, comparison, hashing and str are
Fraction's own.  Division leaves the grid, so a derived value gets back onto
it only through the directed rounding below (grid_bounds, ceil_to,
sqrt_bounds, sqrt_down, sqrt_up and the chord kernels' integer sums
root_sums and grid_sums), the only places that round; that is what keeps
every derived interval an honest enclosure.

This module also decides what a number is: to_fraction reads every number
a caller passes in, and parse_exact every string, from the command line, a
path file or to_fraction, under DECIMAL_EXPONENT_CAP and EXACT_BITS_CAP.

The (m, e) constructor and as_fraction() remain only because the benchmark
harness under bench/ builds Dyadic(m, e) and reads certificate endpoints
through as_fraction(); removing them waits for a change to the benchmark.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import repeat
from operator import floordiv, lt, mul
from typing import Iterable, Optional, Union

# The largest decimal exponent a number may spell, Python's own cap on the
# digits of an integer string.  Fraction builds the power of ten first, so
# "1e999999999" would cost a billion digits; past the cap it is refused.
DECIMAL_EXPONENT_CAP = 4300

# The most bits a numerator or denominator may have as an input number
# writes it out: room for 10**300, while a 2,000-digit coordinate stalls the
# angle route.  A longer digit string is past it unread, as 10**n > 2**n.
EXACT_BITS_CAP = 1024
# every spelling Fraction reads (from Python 3.12 with spaces around "/"):
# whole digits, then a denominator or fraction digits and an exponent
_SPELLING = re.compile(r"(?i)[-+]?([\d_]*)(?:\s*/\s*([\d_]+)|\.?([\d_]*)(?:e([-+]?)([\d_]+))?)")


def ascii_digits(text: str) -> str:
    """A string of decimal digits in any script with each digit written in
    ASCII, as int reads it: "٠٧" becomes "07"."""
    return text if text.isascii() else text.translate({ord(c): str(int(c)) for c in set(text)})


def spell(q: Union[int, Fraction]) -> str:
    """str(q) while its numerator and denominator have at most 3 *
    DECIMAL_EXPONENT_CAP bits, fewer digits than Python's own cap; past
    that digit cap, their bit lengths, as "-20001-bit/1-bit"."""
    num, den = abs(q.numerator).bit_length(), q.denominator.bit_length()
    return str(q) if max(num, den) <= 3 * DECIMAL_EXPONENT_CAP else f"{'-' * (q < 0)}{num}-bit/{den}-bit"


def _refuse_long(what: str, *digit_strings: str) -> None:
    for digits in digit_strings:
        digits = ascii_digits(digits).lstrip("0")
        if len(digits) > EXACT_BITS_CAP or int(digits or "0").bit_length() > EXACT_BITS_CAP:
            raise ValueError(f"{what} spells a numerator or denominator beyond the cap of {EXACT_BITS_CAP} bits")


def parse_exact(text: str, what: str = "number") -> Fraction:
    """The exact rational a decimal or "p/q" string spells; ValueError,
    naming `what`, when it spells none, its exponent passes
    DECIMAL_EXPONENT_CAP or its numerator or denominator EXACT_BITS_CAP."""
    text = text.strip()
    spelled = _SPELLING.fullmatch(text)  # else Fraction rejects the text
    if spelled:
        whole, den, frac, sign, exp = (g.replace("_", "") for g in spelled.groups(""))
        exp = ascii_digits(exp).lstrip("0") or "0"
        if len(exp) > len(str(DECIMAL_EXPONENT_CAP)) or int(exp) > DECIMAL_EXPONENT_CAP:
            raise ValueError(f"{what} {text!r} has a decimal exponent beyond the cap of {DECIMAL_EXPONENT_CAP}")
        shift = int(sign + exp) - len(frac)
        _refuse_long(what, whole + frac + "0" * shift, den or "1" + "0" * -shift)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"cannot parse {what} {text!r} as a rational or decimal") from None


def to_fraction(x) -> Fraction:
    """The one reader of a number a caller passes in (a Fraction, int, float
    or rational string), exactly; a string is read by parse_exact.
    ValueError for a boolean, not 0 or 1, and for anything Fraction refuses:
    None, a list, a NaN or an infinity."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return parse_exact(x)
    if isinstance(x, bool):
        raise ValueError("booleans are not numbers")
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"cannot read {x!r} as an exact number") from None


def check_dyadic(q: Union[int, Fraction]) -> Union[int, Fraction]:
    """q itself if its denominator is a power of two; ValueError otherwise.
    The one test of what lies on the dyadic grid."""
    den = q.denominator
    if den & (den - 1):
        raise ValueError(f"{q} is not a dyadic rational")
    return q


class Dyadic(Fraction):
    """Dyadic(m, e) is m * 2**e for an integer m; Dyadic(q) is q, a Fraction
    or int whose denominator is a power of two.  Anything else raises
    ValueError."""

    __slots__ = ()

    def __new__(cls, m: Union[int, Fraction] = 0, e: int = 0):
        if type(m) is cls and not e:
            return m  # immutable, so shared
        if e:
            m = Fraction(m << e) if e > 0 else Fraction(m, 1 << -e)
        return super().__new__(cls, check_dyadic(m))

    # Fraction's repr, copy and pickle spell a subclass value as cls(numerator,
    # denominator), read here as numerator * 2**denominator; spell caps the digits
    def __repr__(self):
        return f"Dyadic(Fraction({spell(self).replace('/', ', ')}))"

    def __reduce__(self):
        return (Dyadic, (Fraction(self.numerator, self.denominator),))

    def __copy__(self):
        return self  # immutable

    def __deepcopy__(self, memo):
        return self

    def as_fraction(self) -> "Dyadic":
        return self


# -- directed rounding of general rationals ----------------------------------


def grid_bounds(q: Fraction, exp: int) -> tuple[int, int]:
    """(floor, ceil) of q / 2**exp: the multiples of 2**exp nearest q from
    below and from above, as integers over 2**exp."""
    n, r = divmod(q.numerator << max(0, -exp), q.denominator << max(0, exp))
    return n, n + (r > 0)


def ceil_to(q: Fraction, exp: int) -> Dyadic:
    """Smallest multiple of 2**exp that is >= q."""
    return Dyadic(grid_bounds(q, exp)[1], exp)


def root_sums(nums: Iterable[int], den: int, roots: Optional[list[int]] = None) -> tuple[int, int]:
    """(sum_i floor(sqrt(n_i / den)), sum_i ceil(sqrt(n_i / den))) for
    integers n_i >= 0 and den > 0.  One isqrt a term, or none given roots
    isqrt(n_i) and den = q**2: floor(floor(y) / q) = floor(y / q).  The
    ceiling is the floor r, plus one unless r**2 = n_i / den exactly."""
    if roots is not None:
        q = math.isqrt(den)

        def floors():
            return map(floordiv, roots, repeat(q)) if q > 1 else roots

        lo = sum(floors())
        squares = map(pow, floors(), repeat(2))
        return lo, lo + sum(map(lt, map(mul, squares, repeat(den)) if q > 1 else squares, nums))
    lo = hi = 0
    for n in nums:
        r = math.isqrt(n // den)
        lo += r
        hi += r + (r * r * den < n)
    return lo, hi


def grid_sums(values: Iterable[int], den: int, s: int) -> tuple[int, int]:
    """(sum_i floor(v_i * 2**s / den), sum_i ceil(v_i * 2**s / den)) for
    integers v_i >= 0, den > 0 and s >= 0: each v_i / den rounded down and
    up onto the 2**-s grid.  When den divides 2**s every term is on the
    grid, so one sum, shifted and divided, is both."""
    if not den & (den - 1) and den.bit_length() <= s + 1:
        total = (sum(values) << s) // den
        return total, total
    lo = hi = 0
    for v in values:
        q, r = divmod(v << s, den)
        lo += q
        hi += q + (r > 0)
    return lo, hi


def sqrt_bounds(q: Fraction, exp: int) -> tuple[int, int]:
    """(floor, ceil) of sqrt(q) / 2**exp for q >= 0, as integers over 2**exp."""
    if q < 0:
        raise ValueError("sqrt of negative value")
    return root_sums((q.numerator << max(0, -2 * exp),), q.denominator << max(0, 2 * exp))


def sqrt_down(q: Fraction, exp: int) -> Dyadic:
    """Largest multiple of 2**exp whose square is <= q (q >= 0)."""
    return Dyadic(sqrt_bounds(q, exp)[0], exp)


def sqrt_up(q: Fraction, exp: int) -> Dyadic:
    """Smallest multiple of 2**exp whose square is >= q (q >= 0)."""
    return Dyadic(sqrt_bounds(q, exp)[1], exp)


# -- tolerances and working precision -----------------------------------------


def eps_fraction(eps) -> Fraction:
    """A positive tolerance (Fraction, int or rational string) as an exact
    Fraction."""
    q = to_fraction(eps)
    if q <= 0:
        raise ValueError("tolerance must be positive")
    return q


def floor_log2(q: Fraction) -> int:
    """Largest k with 2**k <= q, for q > 0."""
    n, d = q.numerator, q.denominator
    if n <= 0:
        raise ValueError("log of a nonpositive value")
    k = n.bit_length() - d.bit_length()
    if (n << max(0, -k)) >= (d << max(0, k)):
        return k
    return k - 1


def working_exp(eps: Fraction) -> int:
    """Working binary precision: comfortably below both 2**-60 and eps."""
    return min(-60, floor_log2(eps) - 6)

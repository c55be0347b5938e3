"""Independent reference values for the benchmark's correctness checker.

Nothing here imports pathvar.  Every reference is an object with
``within(lo, hi, slack)``, true when the reference value provably lies in
``[lo, hi + slack]``.  The exact kinds decide this with integer or rational
arithmetic.  ``Approx`` holds an mpmath value (50 digits) or, when mpmath
cannot be imported, a float value, and widens the test by a stated margin
that is far below every tolerance the benchmark asks for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

try:
    import mpmath

    mpmath.mp.dps = 50
    HAVE_MPMATH = True
except ImportError:  # pragma: no cover - exercised only without mpmath
    mpmath = None
    HAVE_MPMATH = False

# float fallback margin: 1e-12 is three orders below the finest tolerance
# (1e-9) that the workloads request; quadrature gets a looser margin with
# mpmath because tanh-sinh error estimates are not rigorous
MARGIN = Fraction(1, 10**40) if HAVE_MPMATH else Fraction(1, 10**12)
QUAD_MARGIN = Fraction(1, 10**25) if HAVE_MPMATH else Fraction(1, 10**12)

SQRT_BITS = 96  # integer square-root bounds are taken on the 2**-96 grid


# -- reference kinds -------------------------------------------------------------


@dataclass(frozen=True)
class Sqrt:
    """The exact value sqrt(q) of a nonnegative rational q."""

    q: Fraction

    def within(self, lo: Fraction, hi: Fraction, slack: Fraction = Fraction(0)) -> bool:
        top = hi + slack
        lo_ok = lo <= 0 or lo * lo <= self.q
        hi_ok = top >= 0 and top * top >= self.q
        return lo_ok and hi_ok

    def approx(self) -> float:
        return math.sqrt(self.q)


@dataclass(frozen=True)
class Bounds:
    """Exact rational bounds r_lo <= value <= r_hi."""

    lo: Fraction
    hi: Fraction

    def within(self, lo: Fraction, hi: Fraction, slack: Fraction = Fraction(0)) -> bool:
        return lo <= self.lo and self.hi <= hi + slack

    def approx(self) -> float:
        return float((self.lo + self.hi) / 2)


@dataclass(frozen=True)
class Approx:
    """A high-precision (or float) value, compared with a stated margin."""

    value: Fraction
    margin: Fraction = MARGIN

    def within(self, lo: Fraction, hi: Fraction, slack: Fraction = Fraction(0)) -> bool:
        return lo <= self.value + self.margin and self.value - self.margin <= hi + slack

    def approx(self) -> float:
        return float(self.value)


def _to_fraction(x) -> Fraction:
    if HAVE_MPMATH:
        man, exp = mpmath.mpf(x).man_exp
        return Fraction(man) * Fraction(2) ** exp
    return Fraction(x)


# -- directions --------------------------------------------------------------------


def unit_vector(direction: tuple):
    """(cos, sin) of a direction spec ("pi", q) or ("rad", r), at 50 digits
    with mpmath or in floats without it."""
    kind, value = direction[0], direction[1]
    m = mpmath if HAVE_MPMATH else math
    if kind == "pi":
        theta = m.pi * (mpmath.mpf(value.numerator) / value.denominator if HAVE_MPMATH else float(value))
    elif kind == "rad":
        theta = mpmath.mpf(value.numerator) / value.denominator if HAVE_MPMATH else float(value)
    else:
        raise ValueError(f"not an angle direction: {direction!r}")
    return m.cos(theta), m.sin(theta)


# -- piecewise-linear paths ------------------------------------------------------


def chords(vertices) -> list[tuple[Fraction, Fraction]]:
    return [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(vertices, vertices[1:])]


def _common_denominator(chs) -> int:
    den = 1
    for dx, dy in chs:
        den = math.lcm(den, dx.denominator, dy.denominator)
    return den


def polyline_length(vertices) -> Bounds:
    """Sum of chord lengths, bounded with math.isqrt on integers."""
    chs = chords(vertices)
    den = _common_denominator(chs)
    lo = hi = 0
    for dx, dy in chs:
        n2 = ((dx * den) ** 2 + (dy * den) ** 2).numerator << (2 * SQRT_BITS)
        r = math.isqrt(n2)
        lo += r
        hi += r if r * r == n2 else r + 1
    scale = den << SQRT_BITS
    return Bounds(Fraction(lo, scale), Fraction(hi, scale))


def polyline_variation(vertices, direction: tuple):
    """Variation along a direction spec: exact for ("ray", wx, wy), 50-digit
    (or float) for angle directions."""
    chs = chords(vertices)
    if direction[0] == "ray":
        wx, wy = Fraction(direction[1]), Fraction(direction[2])
        s = sum(abs(wx * dx + wy * dy) for dx, dy in chs)
        return Sqrt(s * s / (wx * wx + wy * wy))
    c, s = unit_vector(direction)
    if HAVE_MPMATH:
        total = mpmath.fsum(
            abs(c * mpmath.mpf(dx.numerator) / dx.denominator + s * mpmath.mpf(dy.numerator) / dy.denominator)
            for dx, dy in chs
        )
    else:
        total = math.fsum(abs(c * float(dx) + s * float(dy)) for dx, dy in chs)
    return Approx(_to_fraction(total))


def sawtooth_vertices(n: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """Vertices of t -> (t, 2**-n * dist(2**n t, Z)): 2**(n+1) chords of
    horizontal extent h = 2**-(n+1), alternately rising by h and falling."""
    h = Fraction(1, 1 << (n + 1))
    return tuple((j * h, h if j % 2 else Fraction(0)) for j in range((1 << (n + 1)) + 1))


def tilt_vertices(vertices):
    return tuple((x, y + x) for x, y in vertices)


SAWTOOTH_LENGTH = Sqrt(Fraction(2))  # every chord is (h, +-h): total sqrt(2)


def sawtooth_variation(direction: tuple):
    """(|wx + wy| + |wx - wy|) / (2 |w|), since half of the total horizontal
    extent 1 is travelled along (1, 1) and half along (1, -1)."""
    if direction[0] == "ray":
        wx, wy = Fraction(direction[1]), Fraction(direction[2])
        a = abs(wx + wy) + abs(wx - wy)
        return Sqrt(a * a / (4 * (wx * wx + wy * wy)))
    c, s = unit_vector(direction)
    return Approx(_to_fraction((abs(c + s) + abs(c - s)) / 2))


# -- polynomial paths ----------------------------------------------------------------


def _poly_eval(coeffs, t):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _deriv(coeffs) -> list[Fraction]:
    return [k * c for k, c in enumerate(coeffs)][1:] or [Fraction(0)]


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


PARABOLA_X = (Fraction(0), Fraction(1))
PARABOLA_Y = (Fraction(0), Fraction(0), Fraction(1))


def parabola_length() -> Approx:
    """Closed form of the length of t -> (t, t**2) on [0, 1]:
    sqrt(5)/2 + asinh(2)/4."""
    if HAVE_MPMATH:
        return Approx(_to_fraction(mpmath.sqrt(5) / 2 + mpmath.asinh(2) / 4))
    return Approx(Fraction(math.sqrt(5) / 2 + math.asinh(2) / 4))


def polynomial_length(x, y) -> Approx:
    """Arc length by quadrature of the speed (mpmath.quad, or composite
    10-point Gauss-Legendre in floats).  The workload paths have speed
    bounded away from zero, so the integrand is smooth."""
    if tuple(x) == PARABOLA_X and tuple(y) == PARABOLA_Y:
        return parabola_length()
    xp, yp = _deriv(x), _deriv(y)
    if HAVE_MPMATH:
        xpm, ypm = [_mp(c) for c in xp], [_mp(c) for c in yp]

        def speed(t):
            return mpmath.sqrt(_poly_eval(xpm, t) ** 2 + _poly_eval(ypm, t) ** 2)

        return Approx(_to_fraction(mpmath.quad(speed, mpmath.linspace(0, 1, 9))), QUAD_MARGIN)
    xpf, ypf = [float(c) for c in xp], [float(c) for c in yp]
    nodes, weights = _gauss_legendre_10()
    panels = 256
    total = 0.0
    for k in range(panels):
        a = k / panels
        for u, w in zip(nodes, weights):
            t = a + (u + 1) / (2 * panels)
            total += w * math.hypot(_poly_eval(xpf, t), _poly_eval(ypf, t))
    return Approx(Fraction(total / (2 * panels)), QUAD_MARGIN)


def _gauss_legendre_10():
    """Nodes and weights of 10-point Gauss-Legendre on [-1, 1] by Newton
    iteration on P_10."""
    n = 10
    nodes, weights = [], []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1)
            dx = p1 / dp
            x -= dx
            if abs(dx) < 1e-16:
                break
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


def polynomial_variation(x, y, direction: tuple) -> Approx:
    """Total variation of r(t) = <w, alpha(t)> for the unit vector w: the sum
    of |r| differences between consecutive critical points of r in [0, 1].
    Critical points are the real roots of r' (mpmath.polyroots, or float
    bisection on a 4096-cell sign scan without mpmath)."""
    if direction[0] == "ray":
        wx, wy = Fraction(direction[1]), Fraction(direction[2])
        norm = math.sqrt(wx * wx + wy * wy) if not HAVE_MPMATH else mpmath.sqrt(_mp(wx * wx + wy * wy))
        c = (_mp(wx) if HAVE_MPMATH else float(wx)) / norm
        s = (_mp(wy) if HAVE_MPMATH else float(wy)) / norm
    else:
        c, s = unit_vector(direction)
    size = max(len(x), len(y))
    xs = list(x) + [Fraction(0)] * (size - len(x))
    ys = list(y) + [Fraction(0)] * (size - len(y))
    if HAVE_MPMATH:
        r = [c * _mp(a) + s * _mp(b) for a, b in zip(xs, ys)]
    else:
        r = [c * float(a) + s * float(b) for a, b in zip(xs, ys)]
    rp = [k * v for k, v in enumerate(r)][1:]
    while rp and rp[-1] == 0:
        rp.pop()
    points = [0, 1]
    if len(rp) >= 2:
        points += _unit_roots(rp)
    points.sort()
    values = [_poly_eval(r, t) for t in points]
    total = sum(abs(b - a) for a, b in zip(values, values[1:]))
    return Approx(_to_fraction(total) if HAVE_MPMATH else Fraction(float(total)))


def _unit_roots(p) -> list:
    """Real roots of p inside (0, 1); p is given lowest degree first."""
    if HAVE_MPMATH:
        roots = mpmath.polyroots(list(reversed(p)), maxsteps=500, extraprec=500)
        return [z.real for z in (mpmath.mpc(z) for z in roots) if abs(z.imag) < mpmath.mpf(10) ** -30 and 0 < z.real < 1]
    cells = 4096
    out = []
    prev_t, prev_v = 0.0, _poly_eval(p, 0.0)
    for k in range(1, cells + 1):
        t = k / cells
        v = _poly_eval(p, t)
        if prev_v == 0 and 0 < prev_t < 1:
            out.append(prev_t)
        elif prev_v * v < 0:
            a, b = prev_t, t
            for _ in range(80):
                m = (a + b) / 2
                if _poly_eval(p, m) * prev_v > 0:
                    a = m
                else:
                    b = m
            out.append((a + b) / 2)
        prev_t, prev_v = t, v
    return out

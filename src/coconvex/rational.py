"""Exact rational scalars and exact comparison of d-th root combinations.

Every quantity in this package is a rational number; nothing here ever
touches floating point.  gmpy2's mpq is used when available because it is
much faster, with fractions.Fraction as a drop-in fallback.  The two agree
on construction from ints and "p/q" strings, on str() output, and on
arithmetic, which is all we rely on.

`SplitMix64` is the package's one source of pseudo-random integers: the
seeded generators of `harness` and the lifting heights of
`forms.volume_polynomial`.  The stream is pinned down by algorithm, not by
library: a 64-bit splitmix generator (golden-ratio increment, two
xor-multiply mixes), with named substreams derived by xoring the root seed
with the FNV-1a hash of a label.  Bounded draws use remainder reduction;
the tiny modulo bias is irrelevant for test-case generation and lifting
heights, and keeps the derivation rule one line long.
"""

from __future__ import annotations

import re

from .errors import CoconvexError

try:
    from gmpy2 import mpq as Rat

    RAT_BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rat

    RAT_BACKEND = "fractions"

ZERO = Rat(0)
ONE = Rat(1)

_RAT_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def rat(value) -> Rat:
    """Coerce an int, Rat, or "p/q" string to a canonical rational.

    Floats are refused, so a binary expansion never passes for the decimal
    it approximates, and so are bools, which are ints only to Python.
    """
    if isinstance(value, str):
        if not _RAT_RE.match(value):
            raise ValueError(f"not a rational literal: {value!r}")
        return Rat(value)
    if isinstance(value, bool) or not isinstance(value, (int, Rat)):
        raise ValueError(f"not an exact rational (an int or a 'p/q' string): {value!r}")
    return Rat(value)


def rat_str(x) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    return str(Rat(x))


def integer_root_floor(m: int, d: int) -> int:
    """floor(m ** (1/d)) for integers m >= 0, d >= 1, computed exactly."""
    if m < 0 or d < 1:
        raise ValueError("integer_root_floor needs m >= 0 and d >= 1")
    if d == 1 or m in (0, 1):
        return m
    # Integer Newton iteration; the final while loops pin down the floor.
    x = 1 << ((m.bit_length() + d - 1) // d)
    while True:
        y = ((d - 1) * x + m // x ** (d - 1)) // d
        if y >= x:
            break
        x = y
    while x ** d > m:
        x -= 1
    while (x + 1) ** d <= m:
        x += 1
    return x


def rational_root_floor(z, d: int, scale: int) -> int:
    """floor(scale * z ** (1/d)) for a rational z >= 0, exactly."""
    z = Rat(z)
    if z < 0:
        raise ValueError("negative radicand")
    p = int(z.numerator) * scale ** d
    q = int(z.denominator)
    k = integer_root_floor(p // q, d)
    while (k + 1) ** d * q <= p:
        k += 1
    while k ** d * q > p:
        k -= 1
    return k


def exact_root(z, d: int):
    """z ** (1/d) as a rational if z is a perfect d-th power, else None."""
    z = Rat(z)
    if z < 0:
        return None
    p, q = int(z.numerator), int(z.denominator)
    rp = integer_root_floor(p, d)
    rq = integer_root_floor(q, d)
    if rp ** d == p and rq ** d == q:
        return Rat(rp, rq)
    return None


_PRECISION_CAP = 1 << 14


def compare_root_sum(terms, d: int) -> int:
    """Sign of sum(c * z ** (1/d)) over (c, z) pairs, decided exactly.

    c is any rational, z a nonnegative rational, d >= 1 shared by all terms.
    Perfect powers are folded into an exact rational part.  Radicands equal
    up to a d-th power of a rational are merged into one term.  What remains
    is a rational plus rational multiples of pairwise inequivalent
    irrational surds, which is nonzero whenever any surd coefficient is,
    so interval refinement with exact integer root floors terminates.
    """
    rational_part = ZERO
    surds: list[list] = []  # [coefficient, radicand]
    for c, z in terms:
        c, z = Rat(c), Rat(z)
        if c == 0 or z == 0:
            continue
        root = exact_root(z, d)
        if root is not None:
            rational_part += c * root
            continue
        for entry in surds:
            ratio = exact_root(z / entry[1], d)
            if ratio is not None:
                entry[0] += c * ratio
                break
        else:
            surds.append([c, z])
    surds = [(c, z) for c, z in surds if c != 0]
    if not surds:
        return (rational_part > 0) - (rational_part < 0)

    prec = 64
    while prec <= _PRECISION_CAP:
        scale = 1 << prec
        lo = hi = rational_part
        for c, z in surds:
            f = rational_root_floor(z, d, scale)
            # z**(1/d) lies strictly between f/scale and (f+1)/scale.
            below, above = Rat(f, scale), Rat(f + 1, scale)
            if c > 0:
                lo += c * below
                hi += c * above
            else:
                lo += c * above
                hi += c * below
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        prec *= 2
    raise ArithmeticError("root comparison did not separate from zero")


_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return h


class SplitMix64:
    """Deterministic 64-bit generator with label-derived substreams."""

    __slots__ = ("seed", "state")

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self.state = self.seed

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
        z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise CoconvexError("need a positive range")
        return self.next_u64() % n

    def int_between(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def derive(self, label: str) -> "SplitMix64":
        """Fresh stream from the root seed and a label; never consumes state."""
        return SplitMix64(self.seed ^ _fnv1a64(label))

"""Exact arithmetic on extended Lebesgue exponents.

Every exponent handled by the planners (p, q, range endpoints, iteration
bookkeeping exponents, ...) is a *nonnegative rational or +infinity*, and
every identity the planners certify is an exact rational equality.  Floats
never enter this layer.

Conventions, used everywhere without further comment:

    1/inf = 0,   1/0 = inf,   1' = inf,   inf' = 1,

where ' denotes the Hoelder conjugate, 1/p + 1/p' = 1.

Most planner algebra is affine in *reciprocals* of exponents, and reciprocal
differences may legitimately be negative (off-diagonal shifts).  Those signed
intermediate quantities are plain :class:`fractions.Fraction` values; only the
exponents themselves are confined to [0, inf], and :class:`Exponent` has no
arithmetic: all algebra runs on Fractions through :func:`rec` and :func:`from_rec`.

The weight classes A_p & RH_s are exact index pairs too
(:class:`WeightClassSpec`; :meth:`WeightClassSpec.for_range` is the one
limited-range class rule), and :func:`cjn_index` is the index rule linking them,

    v in A_p and RH_s   <=>   v^s in A_q,   q = s(p-1) + 1,

and :func:`power_membership` decides the power weights |x|^alpha on the
line (n = 1) in closed form:

    |x|^alpha in A_p  <=>  -1 < alpha < p-1      (p > 1)
                      <=>  -1 < alpha <= 0       (p = 1)
    |x|^alpha in RH_s <=>  alpha > -1/s          (s < inf)
                      <=>  alpha >= 0            (s = inf)
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import DomainError

__all__ = [
    "Exponent",
    "INF",
    "as_exponent",
    "conjugate_ratio",
    "harmonic_sum",
    "parse_rational",
    "exp_str",
    "WeightClassSpec",
    "cjn_index",
    "power_membership",
]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")

ExponentLike = Union["Exponent", int, Fraction, str]


@functools.total_ordering
class Exponent:
    """A nonnegative rational or +infinity: a pure value type.

    Built from an int, a Fraction or a string (an inf spelling, or a literal
    of :func:`parse_rational`); :func:`as_exponent` passes an Exponent through.
    Instances are immutable, hashable and totally ordered (infinity is the
    maximum).  They define no arithmetic; all algebra works on plain
    Fractions through :func:`rec` and :func:`from_rec`.
    """

    __slots__ = ("_num",)

    def __init__(self, value: int | Fraction | str):
        if isinstance(value, str):
            if value.strip().lower() in ("inf", "infinity", "+inf", "oo"):
                self._num = None
                return
            value = parse_rational(value)
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise DomainError(f"cannot build an exponent from {value!r}")
        v = Fraction(value)
        if v < 0:
            raise DomainError(f"exponent must be nonnegative, got {v}")
        self._num = v

    # -- basic views ------------------------------------------------------

    @property
    def is_inf(self) -> bool:
        return self._num is None

    @property
    def frac(self) -> Fraction:
        """The exact rational value; raises on infinity."""
        if self._num is None:
            raise DomainError("infinite exponent has no rational value")
        return self._num

    # -- formatting ---------------------------------------------------------

    def __str__(self) -> str:
        return "inf" if self._num is None else str(self._num)

    def __repr__(self) -> str:
        return f"Exponent({str(self)!r})"

    # -- ordering ----------------------------------------------------------

    @staticmethod
    def _value(x):
        """None for infinity, the Fraction for a finite exponent, int or
        Fraction, and NotImplemented for an operand that does not compare."""
        if isinstance(x, Exponent):
            return x._num
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        return NotImplemented

    def __eq__(self, other):
        o = self._value(other)
        return o if o is NotImplemented else self._num == o

    def __lt__(self, other):  # total_ordering derives <=, > and >=
        o = self._value(other)
        if o is NotImplemented:
            return o
        return self._num is not None and (o is None or self._num < o)

    def __hash__(self):
        return hash(("Exponent", self._num))


def parse_rational(text: str) -> Fraction:
    """The exact signed rational of a literal '[+-]num[/den]' in decimal
    digits: the one rational grammar, which rejects floating literals."""
    t = text.strip()
    if not _RATIONAL_RE.match(t):
        raise DomainError(f"literal {text!r} is not a rational 'num/den'")
    try:
        return Fraction(t)
    except ZeroDivisionError:
        raise DomainError(f"literal {text!r} has a zero denominator")


INF = Exponent("inf")


def as_exponent(x: ExponentLike) -> Exponent:
    """Coerce int / Fraction / string to an :class:`Exponent`."""
    return x if isinstance(x, Exponent) else Exponent(x)


def rec(p: ExponentLike) -> Fraction:
    """1/p as a plain Fraction (p > 0 required; 1/inf = 0).

    Planner systems are affine in reciprocals, so this is the working form
    there; reciprocal differences may be signed.
    """
    p = as_exponent(p)
    if p.is_inf:
        return Fraction(0)
    if p.frac == 0:
        raise DomainError("1/0 = inf is not representable as a reciprocal")
    return 1 / p.frac


def from_rec(t: Fraction) -> Exponent:
    """Inverse of :func:`rec`: the exponent with reciprocal t >= 0 (0 gives inf)."""
    t = Fraction(t)
    if t < 0:
        raise DomainError(f"reciprocal {t} is negative")
    if t == 0:
        return INF
    return Exponent(1 / t)


def conjugate_ratio(a: ExponentLike, b: ExponentLike) -> Exponent:
    """(a/b)' for a >= b > 0, b finite, via 1/(a/b)' = 1 - b/a: (inf/b)' = 1, (a/a)' = inf."""
    a, b = as_exponent(a), as_exponent(b)
    if not a >= b > 0:
        raise DomainError(f"conjugate_ratio requires a >= b > 0, got {a}, {b}")
    return from_rec(1 - rec(a) * b.frac)


def harmonic_sum(qs: Iterable[ExponentLike]) -> Exponent:
    """The exponent p with 1/p = sum of 1/q_j, exactly.

    Infinite entries contribute 0; zero entries are rejected (their
    reciprocal is infinite and the sum would be meaningless).
    """
    total = Fraction(0)
    for q in qs:
        q = as_exponent(q)
        if q == 0:
            raise DomainError("harmonic_sum requires every entry > 0")
        total += rec(q)
    return from_rec(total)


def exp_str(x) -> str:
    """Serialize an exponent-like value as 'num/den' or 'inf'.

    Accepts Exponent, Fraction (possibly signed) and int; this is the one
    string form used in all JSON/CSV output.
    """
    if isinstance(x, Exponent):
        return str(x)
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    raise DomainError(f"cannot serialize {x!r} as an exponent string")


@dataclass(frozen=True)
class WeightClassSpec:
    """A membership claim v in A_p intersect RH_s.

    p is finite and >= 1; s is >= 1 and may be infinity (RH_1 is the trivial
    reverse-Hoelder class, so s = 1 encodes "A_p only").
    """

    p: Exponent
    s: Exponent

    def __post_init__(self):
        object.__setattr__(self, "p", as_exponent(self.p))
        object.__setattr__(self, "s", as_exponent(self.s))
        if self.p.is_inf:
            raise DomainError("A_p index must be finite")
        if self.p < 1 or self.s < 1:
            raise DomainError(f"class indices must be >= 1, got ({self.p}, {self.s})")

    @classmethod
    def for_range(cls, q: ExponentLike, r_minus: ExponentLike, r_plus: ExponentLike) -> WeightClassSpec:
        """w^q in A_{q/r_-} & RH_{(r_+/q)'}, the class of the range (r_-, r_+) at exponent q
        (Auscher & Martell, 2007); DomainError unless 0 < r_- <= q <= r_+ with q finite."""
        q = as_exponent(q)
        return cls(Exponent(q.frac * rec(r_minus)), conjugate_ratio(r_plus, q))


def cjn_index(p: ExponentLike, s: ExponentLike) -> Exponent:
    """The index q = s(p-1) + 1 with v in A_p & RH_s  <=>  v^s in A_q.

    Requires finite 1 <= p and 1 <= s < inf; exact.
    """
    p, s = as_exponent(p), as_exponent(s)
    if p.is_inf or s.is_inf:
        raise DomainError("cjn_index requires finite p and s")
    if p < 1 or s < 1:
        raise DomainError(f"cjn_index requires p, s >= 1, got ({p}, {s})")
    return Exponent(s.frac * (p.frac - 1) + 1)


def power_membership(alpha: Fraction, spec: WeightClassSpec):
    """Closed-form verdict for |x|^alpha in A_p & RH_s on R, with the
    per-condition reasons (for reports); alpha is an exact rational."""
    p, s = spec.p, spec.s
    reasons = []

    if p == 1:
        in_ap = Fraction(-1) < alpha <= 0
        reasons.append(f"A_1 on R requires -1 < alpha <= 0: alpha={alpha} -> {in_ap}")
    else:
        in_ap = Fraction(-1) < alpha < p.frac - 1
        reasons.append(
            f"A_{p} on R requires -1 < alpha < p-1 = {p.frac - 1}: alpha={alpha} -> {in_ap}"
        )

    if s.is_inf:
        in_rh = alpha >= 0
        reasons.append(f"RH_inf on R requires alpha >= 0: alpha={alpha} -> {in_rh}")
    elif s == 1:
        in_rh = True
        reasons.append("RH_1 is trivial")
    else:
        bound = -rec(s)
        in_rh = alpha > bound
        reasons.append(
            f"RH_{s} on R requires alpha > -1/s = {bound}: alpha={alpha} -> {in_rh}"
        )

    return bool(in_ap and in_rh), reasons

"""High-precision zeta and Dirichlet L-values with explicit error bounds.

Everything is built on the Euler-Maclaurin expansion of the Hurwitz zeta
function at integer s >= 2 and rational a, with the classical remainder
bound (first omitted term, doubled here for safety), summed in integer
fixed point: the head term by term, the tail by Horner's rule over exact
Bernoulli coefficients rounded once per precision.  The only error sources
are the truncation bound and less than one unit of the last fixed-point bit
per floor, which the guard bits make negligible against the reported bound.

The quadratic L-value is assembled from Hurwitz values,

    L(s, chi_D) = |D|^(-s) * sum_{a=1}^{|D|} chi_D(a) * zeta(s, a/|D|),

which converges geometrically in work rather than polynomially like the
raw character series.  The residues' fixed-point values are added as
integers, so an L-value is one exact quotient.  Every value is returned as
the exact Fraction its integer sum gives, with no floating-point layer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, log2
from operator import index
from typing import NamedTuple

from .errors import BadOption, NonConvergent, excerpt
from .surd import squarefree_decompose


class _ContextFields(NamedTuple):
    precision: int = 256
    target_error: Fraction | float = Fraction(1, 10**30)


class PrecisionContext(_ContextFields):
    """Working precision in bits and a target absolute error.

    An immutable tuple, checked whenever one is built (``_replace`` too): a
    bad field raises BadOption."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        try:
            supported = index(self.precision) >= 64
        except TypeError:
            supported = False
        if not supported:
            raise BadOption(f"precision must be an integer of at least 64 bits, "
                            f"not {excerpt(self.precision)}")
        try:
            inside = 0 < self.target_error < 1
        except (TypeError, ValueError, ArithmeticError):
            inside = False
        if not inside:
            raise BadOption(f"target error must be in (0, 1), not {excerpt(self.target_error)}")
        if float(self.target_error) == 0:
            raise BadOption("target error is below the float64 range")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))

    def workprec(self) -> int:
        # enough bits for the target plus room for summation rounding
        return max(self.precision, int(-log2(float(self.target_error))) + 48)


DEFAULT_CONTEXT = PrecisionContext()


def fundamental_discriminant(delta: int) -> int:
    """Fundamental discriminant of Q(sqrt(delta)) for squarefree delta; 1, the
    class of Q, gives 1, the discriminant of Q."""
    if delta == 0:
        raise ValueError("delta must be nonzero")
    s, f = squarefree_decompose(abs(delta))
    if f != 1:
        raise ValueError(f"delta {delta} is not squarefree")
    return delta if delta % 4 == 1 else 4 * delta


def kronecker_chi(D: int, n: int) -> int:
    """Kronecker symbol (D/n) for n >= 1; the quadratic character mod |D|."""
    a = D
    if n < 1:
        raise ValueError("n must be positive")
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    if n == 1:
        return result
    # Jacobi symbol (a/n) for odd n >= 3 by quadratic reciprocity
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@lru_cache(maxsize=None)
def bernoulli_fraction(m: int) -> Fraction:
    """Exact Bernoulli number B_m (B_1 = -1/2 convention)."""
    if m == 0:
        return Fraction(1)
    if m == 1:
        return Fraction(-1, 2)
    if m % 2:
        return Fraction(0)
    acc = Fraction(0)
    for k in range(m):
        acc += comb(m + 1, k) * bernoulli_fraction(k)
    return -acc / (m + 1)


_EM_TERMS = 16  # fixed number of Bernoulli correction terms


@lru_cache(maxsize=None)
def _em_tail(s: int) -> tuple[tuple[tuple[int, Fraction], ...], float]:
    """Tail terms (m, c_m), the tail at X = M + a being sum c_m X^(-m), and
    the constant C of the remainder bound C X^(-s-2J-1)."""
    J = _EM_TERMS
    tail = [(s - 1, Fraction(1, s - 1)), (s, Fraction(1, 2))]
    rising = s  # (s)_(2j-1) at step j
    for j in range(1, J + 1):
        tail.append((s + 2 * j - 1, bernoulli_fraction(2 * j) / factorial(2 * j) * rising))
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    # twice the first omitted term: 2 |B_(2J+2)|/(2J+2)! (s)_(2J+1)
    return tuple(tail), 2.0 * float(abs(bernoulli_fraction(2 * J + 2))) / factorial(2 * J + 2) * rising


@lru_cache(maxsize=64)
def _tail_fixed(s: int, wp: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The tail coefficients in wp-bit fixed point, C_m = floor(c_m 2^wp),
    in Horner order: C_m of the highest m, then (g, C_m) for each lower m
    down to s - 1, g in {1, 2} the gap to the exponent before it.  Bounded,
    since wp follows the caller's context."""
    fixed = [(m, (c.numerator << wp) // c.denominator)
             for m, c in sorted(_em_tail(s)[0], reverse=True)]
    return fixed[0][1], tuple((m_up - m, C) for (m_up, _), (m, C) in zip(fixed, fixed[1:]))


def _hurwitz_fixed(s: int, p: int, q: int, wp: int, limit: float) -> int:
    """zeta(s, p/q) 2^wp as an integer, for p/q in lowest terms, with the
    cutoff M the first whose remainder bound is at most ``limit``; the sum
    of ``hurwitz_zeta``.  The caller works out wp and limit once."""
    coeff = _em_tail(s)[1]
    M = 16
    # (M q + p) / q is float(M + p/q), correctly rounded
    while coeff * ((M * q + p) / q) ** (-(s + 2 * _EM_TERMS + 1)) > limit:
        M *= 2
        if M > 1 << 24:
            raise NonConvergent("Euler-Maclaurin cutoff exploded; target too small?")
    scaled = q ** s << wp
    total = sum(scaled // (k * q + p) ** s for k in range(M))
    # the tail sum c_m u^m, u = q / X, as u^(s-1) times a polynomial in u
    X = M * q + p
    q2, X2 = q * q, X * X
    acc, steps = _tail_fixed(s, wp)
    for g, C in steps:
        acc = (acc * q // X if g == 1 else acc * q2 // X2) + C
    return total + acc * q ** (s - 1) // X ** (s - 1)


def hurwitz_zeta(s: int, a: Fraction | int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Fraction:
    """zeta(s, a) for integer s >= 2 and rational a = p/q in (0, 1].

    The cutoff M doubles from 16 until the remainder bound is below half of
    ctx.target_error (NonConvergent past M = 2^24).  At wp = ctx.workprec()
    bits, each head term (k + a)^(-s) is the integer (q^s 2^wp) // (k q + p)^s.
    The tail sum_m c_m (M + a)^(-m), with u = q / X and X = M q + p, is
    u^(s-1) times a polynomial in u, evaluated by Horner's rule from the
    highest m down: acc = acc q^g // X^g + C_m with gaps g in {1, 2} and
    C_m = floor(c_m 2^wp), then one floor of acc q^(s-1) / X^(s-1).  Each
    floor is off by less than one unit, and every factor u^g or u^(s-1)
    applied after it is at most 1, so no error grows: with J = 16 Bernoulli
    terms the M head terms, J + 2 coefficients, J + 1 Horner steps and the
    last product add less than (M + 2J + 4) 2^-wp, below 2^-22 of the target
    for every M up to 2^24 since wp >= log2(1/target) + 47.  The value is
    that integer over 2^wp, exactly.  The absolute error is thus below
    ctx.target_error.
    """
    if s < 2:
        raise ValueError("only integer s >= 2 is supported")
    a = Fraction(a)
    if not 0 < a <= 1:
        raise ValueError("a must lie in (0, 1]")
    wp = ctx.workprec()
    return Fraction(_hurwitz_fixed(s, a.numerator, a.denominator, wp,
                                   float(ctx.target_error) / 2), 1 << wp)


def riemann_zeta(s: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Fraction:
    """zeta(s) for integer s >= 2, absolute error within ctx.target_error."""
    return hurwitz_zeta(s, Fraction(1), ctx)


def dirichlet_L(s: int, D: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Fraction:
    """L(s, chi_D) through the Hurwitz decomposition over residues mod |D|:
    the fixed-point Hurwitz sums of the residues prime to |D| are added as
    integers at one working precision, and the value is their total over
    |D|^s 2^wp, exactly."""
    if s < 2:
        raise ValueError("only integer s >= 2 is supported")
    q = abs(D)
    if q == 1:
        raise ValueError("trivial character: evaluate the zeta branch instead")
    # per-residue budget: q Hurwitz terms are divided by q^s at the end
    per_term = min(Fraction(ctx.target_error) * q ** (s - 1) / 2, Fraction(1, 2))
    sub = PrecisionContext(ctx.workprec(), per_term)
    wp, limit = sub.workprec(), float(sub.target_error) / 2
    total = 0
    for a in range(1, q + 1):
        ch = kronecker_chi(D, a)
        if ch:
            # chi_D(a) != 0 iff gcd(a, |D|) = 1, so a/q is in lowest terms
            total += ch * _hurwitz_fixed(s, a, q, wp, limit)
    return Fraction(total, q ** s << wp)

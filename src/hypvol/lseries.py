"""High-precision zeta and Dirichlet L-values with explicit error bounds.

Everything is built on the Euler-Maclaurin expansion of the Hurwitz zeta
function at integer s >= 2, with the classical remainder bound (first
omitted term, doubled here for safety).  Bernoulli numbers are computed
exactly as fractions, so the only error sources are the truncation bound
and floating-point rounding, which the guard bits make negligible against
the reported bound.

The quadratic L-value is assembled from Hurwitz values,

    L(s, chi_D) = |D|^(-s) * sum_{a=1}^{|D|} chi_D(a) * zeta(s, a/|D|),

which converges geometrically in work rather than polynomially like the
raw character series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, log2

import mpmath
from mpmath import mp

from .errors import DeltaIsSquare, NonConvergent
from .surd import squarefree_decompose


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision in bits and a target absolute error."""

    precision: int = 256
    target_error: Fraction | float = Fraction(1, 10**30)

    def __post_init__(self):
        if self.precision < 64:
            raise ValueError("precision below 64 bits is not supported")
        if not 0 < self.target_error < 1:
            raise ValueError("target error must be in (0, 1)")
        if float(self.target_error) == 0:
            raise ValueError("target error is below the float64 range")

    def workprec(self) -> int:
        # enough bits for the target plus room for summation rounding
        return max(self.precision, int(-log2(float(self.target_error))) + 48)


DEFAULT_CONTEXT = PrecisionContext()


@dataclass(frozen=True)
class FundamentalDiscriminant:
    """Discriminant of Q(sqrt(delta)) together with its squarefree origin."""

    D: int
    delta: int


def fundamental_discriminant(delta: int) -> FundamentalDiscriminant:
    """Fundamental discriminant of Q(sqrt(delta)) for squarefree delta != 1."""
    if delta == 0:
        raise ValueError("delta must be nonzero")
    s, f = squarefree_decompose(abs(delta))
    if f != 1:
        raise ValueError(f"delta {delta} is not squarefree")
    if delta == 1:
        raise DeltaIsSquare("delta = 1 gives the rational field; "
                            "use the zeta branch of the volume prediction")
    D = delta if delta % 4 == 1 else 4 * delta
    return FundamentalDiscriminant(D, delta)


def kronecker_chi(D: FundamentalDiscriminant | int, n: int) -> int:
    """Kronecker symbol (D/n) for n >= 1; the quadratic character mod |D|."""
    a = D.D if isinstance(D, FundamentalDiscriminant) else D
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


def _hurwitz_mpf(s: int, a: Fraction, target: float) -> tuple[mpmath.mpf, float]:
    """Euler-Maclaurin value of zeta(s, a) and its truncation bound.

    Requires integer s >= 2 and rational a in (0, 1].  The cutoff M is
    doubled until the remainder bound (twice the first omitted Bernoulli
    term) falls below the target.
    """
    J = _EM_TERMS
    # remainder bound: 2 * |B_{2J+2}|/(2J+2)! * (s)_{2J+1} * (M+a)^(-s-2J-1)
    b_next = abs(bernoulli_fraction(2 * J + 2))
    pochhammer = 1
    for i in range(2 * J + 1):
        pochhammer *= s + i
    coeff = 2.0 * float(b_next) / factorial(2 * J + 2) * pochhammer

    M = 16
    while coeff * float(M + a) ** (-(s + 2 * J + 1)) > target / 2:
        M *= 2
        if M > 1 << 24:
            raise NonConvergent("Euler-Maclaurin cutoff exploded; target too small?")
    bound = coeff * float(M + a) ** (-(s + 2 * J + 1))

    an = mp.mpf(a.numerator) / a.denominator
    total = mp.mpf(0)
    for k in range(M):
        total += (k + an) ** (-s)
    x = M + an
    total += x ** (1 - s) / (s - 1)
    total += x ** (-s) / 2
    term_pow = x ** (-s - 1)
    rising = mp.mpf(s)
    for j in range(1, J + 1):
        b = bernoulli_fraction(2 * j)
        total += mp.mpf(b.numerator) / b.denominator / factorial(2 * j) * rising * term_pow
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        term_pow /= x * x
    return total, bound


def hurwitz_zeta(s: int, a: Fraction | int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpmath.mpf:
    """zeta(s, a) for integer s >= 2 and rational a in (0, 1].

    The absolute error is at most ctx.target_error (truncation bound plus
    rounding margin absorbed by guard bits); NonConvergent if the cutoff
    needed for that target outgrows its cap.
    """
    if s < 2:
        raise ValueError("only integer s >= 2 is supported")
    a = Fraction(a)
    if not 0 < a <= 1:
        raise ValueError("a must lie in (0, 1]")
    with mp.workprec(ctx.workprec()):
        value, bound = _hurwitz_mpf(s, a, float(ctx.target_error))
        if bound > float(ctx.target_error):
            raise NonConvergent("remainder bound failed to meet target")
        return +value


def riemann_zeta(s: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpmath.mpf:
    """zeta(s) for integer s >= 2, absolute error within ctx.target_error."""
    return hurwitz_zeta(s, Fraction(1), ctx)


def dirichlet_L(s: int, D: FundamentalDiscriminant, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpmath.mpf:
    """L(s, chi_D) through the Hurwitz decomposition over residues mod |D|."""
    if s < 2:
        raise ValueError("only integer s >= 2 is supported")
    q = abs(D.D)
    if q == 1:
        raise ValueError("trivial character: evaluate the zeta branch instead")
    # per-residue budget: q Hurwitz terms are divided by q^s at the end
    per_term = min(Fraction(ctx.target_error) * q ** (s - 1) / 2, Fraction(1, 2))
    sub = PrecisionContext(ctx.workprec(), per_term)
    with mp.workprec(sub.workprec()):
        total = mp.mpf(0)
        for a in range(1, q + 1):
            ch = kronecker_chi(D, a)
            if ch == 0:
                continue
            total += ch * hurwitz_zeta(s, Fraction(a, q), sub)
        return +(total / mp.mpf(q) ** s)

"""Exact arithmetic in the ring of rational combinations of square roots.

Elements are finite sums sum_D c_D * sqrt(D) with rational coefficients c_D
and squarefree positive integer radicands D (D = 1 is the rational part).
This ring is closed under multiplication because
sqrt(D1)*sqrt(D2) = g*sqrt(D1*D2/g^2) with g = gcd(D1, D2), and it is in
fact a field.

An element is stored as integer numerators n_D over one shared denominator
den, c_D = n_D / den, kept canonical: den > 0, no n_D is zero, and
gcd(den, all n_D) = 1.  A sum or product is then a pass over integers and
one gcd reduction, with no rational arithmetic per coefficient; Fractions
appear only where values enter (the constructor) and leave (``as_rational``).

Signs, inverses and integrality are exact and share one step down the
field tower: split off the largest prime's square root, x = a + b*sqrt(p),
and go on with a^2 - p*b^2, which has one prime fewer, until a rational is
left.  The canonical form makes the zero test and equality syntactic.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import TooLarge, excerpt

_Rat = int | Fraction
TRIAL_DIVISION_LIMIT = 10**6   # largest trial divisor: cofactors up to 10^12 factor
MAX_NESTING = 100              # parentheses a surd literal may nest
MAX_LITERAL_DIGITS = 4300      # Python's default limit on int() of a decimal string
_FLOAT_BITS = 80               # fixed-point bits of each square root in float()


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = s * f**2 with s squarefree; return (s, f).  Requires n > 0."""
    if n <= 0:
        raise ValueError("radicand must be positive")
    s, f = 1, 1
    for p, e in prime_factors(n).items():
        s *= p ** (e % 2)
        f *= p ** (e // 2)
    return s, f


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} of n > 0 by trial division, primes ascending.

    The last 2^12 integers factored are memoized (``_factorization``), and
    every call returns a fresh dict.  Raises ``TooLarge`` when the divisors
    up to TRIAL_DIVISION_LIMIT leave a cofactor above the limit's square,
    which could be composite.
    """
    return dict(_factorization(n))


@functools.lru_cache(maxsize=1 << 12)
def _factorization(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of n, primes ascending, memoized."""
    out = {}
    d = 2
    while d * d <= n and d <= TRIAL_DIVISION_LIMIT:
        while n % d == 0:
            n //= d
            out[d] = out.get(d, 0) + 1
        d += 1 if d == 2 else 2
    if d * d <= n:
        raise TooLarge(f"an integer of {n.bit_length()} bits has no prime factor up to "
                       f"{TRIAL_DIVISION_LIMIT} and is too large to factor")
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return tuple(out.items())


def prime_characters(radicands: Iterable[int]) -> list[frozenset[int]]:
    """Every set of primes dividing the radicands, the empty set first.

    Set k holds the i-th smallest prime iff bit i of k is set.  Each set is
    a character for ``MultiSurd.conjugate_by_primes``, so the list covers
    every automorphism of the field the radicands generate, some of them
    more than once.
    """
    primes = sorted({p for r in radicands for p in prime_factors(r)})
    return [frozenset(p for i, p in enumerate(primes) if mask >> i & 1)
            for mask in range(1 << len(primes))]


class MultiSurd:
    """Canonical element of the multi-quadratic ring, immutable.

    ``_nums`` maps each squarefree radicand D to its numerator n_D and
    ``_den`` is the shared denominator, in the canonical form of the module
    docstring (zero is the empty map over 1), so equality of forms is
    equality of values and the zero test is emptiness of the map.
    ``__init__`` takes rational coefficients and factors the radicands of
    outside input; results of ring operations have squarefree radicands
    already and go through ``_reduced``, which drops zeros and divides out
    the common gcd.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, terms: Mapping[int, _Rat] | _Rat = 0):
        if isinstance(terms, (int, Fraction)):
            self._nums = {1: terms.numerator} if terms else {}
            self._den = terms.denominator
            return
        clean: dict[int, Fraction] = {}
        for rad, coeff in terms.items():
            c = Fraction(coeff)
            if c == 0:
                continue
            s, f = squarefree_decompose(rad)
            clean[s] = clean.get(s, Fraction(0)) + c * f
            if clean[s] == 0:
                del clean[s]
        # over the lcm of lowest-terms denominators the form is already reduced
        self._den = math.lcm(*(c.denominator for c in clean.values()))
        self._nums = {r: c.numerator * (self._den // c.denominator) for r, c in clean.items()}

    @staticmethod
    def _reduced(nums: dict[int, int], den: int) -> "MultiSurd":
        """The surd over squarefree radicands and den > 0, made canonical."""
        if 0 in nums.values():
            nums = {r: c for r, c in nums.items() if c}
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums = {r: c // g for r, c in nums.items()}
            den //= g
        out = object.__new__(MultiSurd)
        out._nums, out._den = nums, den
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def sqrt(cls, d: int, coeff: _Rat = 1) -> "MultiSurd":
        """coeff * sqrt(d) for a positive integer d (d need not be squarefree)."""
        return cls({d: Fraction(coeff)})

    # -- inspection --------------------------------------------------------

    def radicands(self) -> frozenset[int]:
        """Squarefree radicands with nonzero coefficient, excluding 1."""
        return frozenset(r for r in self._nums if r != 1)

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        """False for zero alone, as for int and Fraction."""
        return bool(self._nums)

    def is_rational(self) -> bool:
        nums = self._nums
        return not nums or (len(nums) == 1 and 1 in nums)

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return Fraction(self._nums.get(1, 0), self._den)

    def _split(self) -> tuple[int, "MultiSurd", "MultiSurd"]:
        """(p, a, b) with self = a + b*sqrt(p), for an irrational self.

        p is the largest prime under the radicands; a holds the terms whose
        radicand p does not divide, b the others divided by sqrt(p), so
        neither involves sqrt(p) and b is nonzero.
        """
        nums, den = self._nums, self._den
        p = max(_factorization(r)[-1][0] for r in nums if r != 1)
        a = MultiSurd._reduced({r: c for r, c in nums.items() if r % p}, den)
        b = MultiSurd._reduced({r // p: c for r, c in nums.items() if r % p == 0}, den)
        return p, a, b

    def is_integral(self) -> bool:
        """Is the value an algebraic integer?  Decided down the field tower.

        A rational is integral iff its denominator is 1.  Otherwise, with
        self = a + b*sqrt(p) from ``_split``, the value is a root of
        X^2 - 2a X + (a^2 - p b^2) over the subfield without sqrt(p), whose
        ring of integers is integrally closed; so it is integral iff the
        relative trace 2a and norm a^2 - p*b^2 are.
        """
        if self.is_rational():
            return self._den == 1
        p, a, b = self._split()
        return (a * 2).is_integral() and (a * a - b * b * p).is_integral()

    # -- ring operations ---------------------------------------------------

    def _plus(self, other, sign: int) -> "MultiSurd":
        """self + sign * other, over the lcm of the two denominators."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = self._den, other._den
        g = math.gcd(d1, d2)
        m1, m2 = d2 // g, sign * (d1 // g)
        acc = {r: c * m1 for r, c in self._nums.items()}
        for r, c in other._nums.items():
            acc[r] = acc.get(r, 0) + c * m2
        return MultiSurd._reduced(acc, d1 * m1)

    def __add__(self, other) -> "MultiSurd":
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "MultiSurd":
        return self._plus(other, -1)

    def __neg__(self) -> "MultiSurd":
        return MultiSurd._reduced({r: -c for r, c in self._nums.items()}, self._den)

    def __mul__(self, other) -> "MultiSurd":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n1, n2 = self._nums, other._nums
        if len(n1) == 1 and 1 in n1:
            n1, n2 = n2, n1
        if len(n2) == 1 and 1 in n2:
            c2 = n2[1]
            acc = {r: c * c2 for r, c in n1.items()}
        else:
            acc = {}
            for r1, c1 in n1.items():
                for r2, c2 in n2.items():
                    g = math.gcd(r1, r2)
                    rad = (r1 // g) * (r2 // g)
                    acc[rad] = acc.get(rad, 0) + c1 * c2 * g
        return MultiSurd._reduced(acc, self._den * other._den)

    __rmul__ = __mul__

    def inverse(self) -> "MultiSurd":
        """Multiplicative inverse, found down the field tower.

        While x is irrational, split x = a + b*sqrt(p) and multiply the
        numerator by a - b*sqrt(p); x becomes a^2 - p*b^2, which is nonzero
        with one prime fewer.  The rational q/d left at the end, in lowest
        terms, inverts in integers to d/q with the sign moved up.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero surd")
        numer, x = MultiSurd(1), self
        while not x.is_rational():
            p, a, b = x._split()
            numer = numer * (a - b * MultiSurd._reduced({p: 1}, 1))
            x = a * a - b * b * p
        q = x._nums[1]
        inverse = MultiSurd._reduced({1: x._den if q > 0 else -x._den}, abs(q))
        return inverse if x is self else numer * inverse

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        """A rational value hashes as the equal int or Fraction, since it
        compares equal to them."""
        nums, den = self._nums, self._den
        if len(nums) != (1 in nums):    # irrational
            return hash((den, frozenset(nums.items())))
        return hash(nums.get(1, 0) if den == 1 else Fraction(nums[1], den))

    # -- conjugation -------------------------------------------------------

    def conjugate_by_primes(self, neg_primes: frozenset[int]) -> "MultiSurd":
        """Apply the character sending sqrt(p) to -sqrt(p) for p in neg_primes.

        This is always a ring automorphism: the sign of sqrt(D) is the
        parity of the flipped primes dividing D.
        """
        out = {}
        for r, c in self._nums.items():
            parity = sum(1 for p in neg_primes if r % p == 0)
            out[r] = -c if parity % 2 else c
        return MultiSurd._reduced(out, self._den)

    # -- numeric evaluation ------------------------------------------------

    def __float__(self) -> float:
        """The nearest float to sum_r n_r isqrt(r 4^k) / (den 2^k), k = 80
        bits: each square root is floored in integers, so a term's error is
        below |n_r| / (den 2^80), under 2^-80 of the term itself, and one
        division rounds the whole.  Past the float range it is +-inf."""
        k = _FLOAT_BITS
        total = sum(c * math.isqrt(r << 2 * k) for r, c in self._nums.items())
        try:
            return total / (self._den << k)
        except OverflowError:
            return math.inf if total > 0 else -math.inf

    # -- sign --------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, decided down the field tower.

        With self = a + b*sqrt(p) from ``_split``: if a is zero or has the
        sign of b, that is the sign; otherwise the larger of a^2 and p*b^2
        wins, and a^2 - p*b^2 (the product with the conjugate flipping
        sqrt(p)) is nonzero with one prime fewer.
        """
        if self.is_zero():
            return 0
        if self.is_rational():
            return 1 if self._nums[1] > 0 else -1
        p, a, b = self._split()
        sb = b.sign()
        sa = a.sign()
        if sa in (0, sb):
            return sb
        return sa * (a * a - b * b * p).sign()

    def __repr__(self):
        if self.is_zero():
            return "MultiSurd(0)"
        parts = []
        for r, c in sorted(self._nums.items()):
            c = Fraction(c, self._den)
            if r == 1:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"sqrt({r})")
            else:
                parts.append(f"{c}*sqrt({r})")
        return " + ".join(parts).replace("+ -", "- ")


def _coerce(x):
    if isinstance(x, MultiSurd):
        return x
    if isinstance(x, (int, Fraction)):
        return MultiSurd(x)
    return NotImplemented


def product(*factors: MultiSurd) -> MultiSurd:
    """The product of the factors, multiplying by none of them equal to 1."""
    out = None
    for f in factors:
        if f._den != 1 or f._nums != {1: 1}:
            out = f if out is None or (out._den == 1 and out._nums == {1: 1}) else out * f
    return MultiSurd(1) if out is None else out


# -- literal syntax ---------------------------------------------------------

def parse_surd(text: str) -> MultiSurd:
    """Parse a surd literal: `p/q`, `sqrt(D)`, `p/q*sqrt(D)`, and sums.

    Examples: ``sqrt(26)/4``, ``1/4 + 1/4*sqrt(5)``, ``3 - 2*sqrt(2)``.
    Integers are written in the ASCII digits 0-9.
    """
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take():
        tok = peek()
        pos[0] += 1
        return tok

    def factor(depth: int) -> MultiSurd:
        tok = take()
        if tok is None:
            raise ValueError(f"unexpected end of surd literal {excerpt(text)}")
        if tok == "(":
            if depth == MAX_NESTING:
                raise ValueError(f"surd literal nests parentheses deeper than {MAX_NESTING}")
            v = expr(depth + 1)
            if take() != ")":
                raise ValueError(f"unbalanced parentheses in {excerpt(text)}")
            return v
        if tok == "sqrt":
            if take() != "(":
                raise ValueError(f"sqrt needs parentheses in {excerpt(text)}")
            arg = take()
            if not isinstance(arg, int) or arg <= 0:
                raise ValueError(f"sqrt argument must be a positive integer in {excerpt(text)}")
            if take() != ")":
                raise ValueError(f"unbalanced parentheses in {excerpt(text)}")
            return MultiSurd.sqrt(arg)
        if isinstance(tok, int):
            return MultiSurd(tok)
        raise ValueError(f"unexpected token {tok!r} in {excerpt(text)}")

    def term(depth: int) -> MultiSurd:
        v = factor(depth)
        while peek() in ("*", "/"):
            op = take()
            rhs = factor(depth)
            v = v * rhs if op == "*" else v / rhs
        return v

    def expr(depth: int) -> MultiSurd:
        sgn = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sgn = -sgn
        v = term(depth) * MultiSurd(sgn)
        while peek() in ("+", "-"):
            op = take()
            v = v + term(depth) * MultiSurd(-1 if op == "-" else 1)
        return v

    value = expr(0)
    if pos[0] != len(tokens):
        raise ValueError(f"trailing tokens in surd literal {excerpt(text)}")
    return value


def _tokenize(text: str):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            if j - i > MAX_LITERAL_DIGITS:
                raise ValueError(f"integer literal longer than {MAX_LITERAL_DIGITS} digits")
            out.append(int(text[i:j]))
            i = j
        elif text.startswith("sqrt", i):
            out.append("sqrt")
            i += 4
        elif ch in "+-*/()":
            out.append(ch)
            i += 1
        else:
            raise ValueError(f"bad character {ch!r} in surd literal {excerpt(text)}")
    return out

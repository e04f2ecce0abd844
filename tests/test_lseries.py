import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from mpmath import mp

from hypvol import lseries
from hypvol.errors import BadOption, DeltaIsSquare
from hypvol.lseries import (
    _EM_TERMS,
    PrecisionContext,
    bernoulli_fraction,
    dirichlet_L,
    fundamental_discriminant,
    hurwitz_zeta,
    kronecker_chi,
    riemann_zeta,
)
from oracles import as_mpf, dirichlet_L_direct, em_cutoff, hurwitz_zeta_mpf, hurwitz_zeta_termwise

CTX = PrecisionContext(256)


def test_fundamental_discriminant():
    assert fundamental_discriminant(13) == 13
    assert fundamental_discriminant(-11) == -11
    assert fundamental_discriminant(-1) == -4
    assert fundamental_discriminant(2) == 8
    assert fundamental_discriminant(-2) == -8
    assert fundamental_discriminant(5) == 5


def test_fundamental_discriminant_rejects():
    with pytest.raises(DeltaIsSquare):
        fundamental_discriminant(1)
    with pytest.raises(ValueError):
        fundamental_discriminant(12)
    with pytest.raises(ValueError):
        fundamental_discriminant(0)


def test_bernoulli_values():
    assert bernoulli_fraction(0) == 1
    assert bernoulli_fraction(2) == Fraction(1, 6)
    assert bernoulli_fraction(4) == Fraction(-1, 30)
    assert bernoulli_fraction(12) == Fraction(-691, 2730)
    assert bernoulli_fraction(7) == 0


def test_kronecker_basics():
    D13 = fundamental_discriminant(13)
    assert kronecker_chi(D13, 1) == 1
    assert kronecker_chi(D13, 13) == 0
    assert kronecker_chi(D13, 2) == -1


def test_kronecker_against_square_oracle():
    # for odd prime modulus, chi(n) must be +1 exactly on nonzero squares
    for delta in (13, 5, -11):
        D = fundamental_discriminant(delta)
        p = abs(D)
        squares = {(k * k) % p for k in range(1, p)}
        for n in range(1, p):
            expected = 1 if n in squares else -1
            assert kronecker_chi(D, n) == expected, (delta, n)


def test_kronecker_completely_multiplicative():
    rng = random.Random(0)
    for D in (fundamental_discriminant(d) for d in (13, -11, -1, 5)):
        for _ in range(250):
            m = rng.randint(1, 10**6)
            n = rng.randint(1, 10**6)
            assert kronecker_chi(D, m * n) == kronecker_chi(D, m) * kronecker_chi(D, n)


def test_kronecker_periodicity():
    for delta in (13, -11, -1):
        D = fundamental_discriminant(delta)
        q = abs(D)
        for n in range(1, 3 * q):
            assert kronecker_chi(D, n) == kronecker_chi(D, n + q)


def test_zeta_closed_forms():
    with mp.workprec(300):
        assert abs(as_mpf(riemann_zeta(2, CTX)) - mp.pi ** 2 / 6) < mp.mpf('1e-25')
        assert abs(as_mpf(riemann_zeta(4, CTX)) - mp.pi ** 4 / 90) < mp.mpf('1e-25')


def test_zeta3_against_direct_sum():
    # brute-force oracle: 10^7 terms plus the integral-sandwich tail midpoint
    N = 10**7
    k = np.arange(1, N + 1, dtype=np.float64)
    partial = float(np.sum(1.0 / k ** 3))
    tail_mid = (0.5 / N**2 + 0.5 / (N + 1) ** 2) / 2
    oracle = partial + tail_mid
    assert abs(float(riemann_zeta(3, CTX)) - oracle) < 1e-12


def test_hurwitz_at_one_is_zeta():
    with mp.workprec(300):
        gap = as_mpf(hurwitz_zeta(3, 1, CTX)) - as_mpf(riemann_zeta(3, CTX))
        assert abs(gap) < mp.mpf('1e-30')


def test_hurwitz_duplication():
    # zeta(s, 1/2) = (2^s - 1) zeta(s); at s = 2 that is pi^2/2
    with mp.workprec(300):
        assert abs(as_mpf(hurwitz_zeta(2, Fraction(1, 2), CTX)) - mp.pi ** 2 / 2) < mp.mpf('1e-28')
        for s in (3, 5):
            lhs = as_mpf(hurwitz_zeta(s, Fraction(1, 2), CTX))
            rhs = (mp.mpf(2) ** s - 1) * as_mpf(riemann_zeta(s, CTX))
            assert abs(lhs - rhs) < mp.mpf('1e-28')


def test_hurwitz_direct_sum_oracle():
    # zeta(3, 1/13) against 10^6 explicit terms plus integral tail midpoint
    N = 10**6
    a = 1.0 / 13.0
    k = np.arange(N, dtype=np.float64)
    partial = float(np.sum((k + a) ** -3.0))
    tail_mid = (0.5 / (N + a) ** 2 + 0.5 / (N + 1 + a) ** 2) / 2
    assert abs(float(hurwitz_zeta(3, Fraction(1, 13), CTX)) - (partial + tail_mid)) < 1e-11


def test_hurwitz_decomposition_identity():
    # sum_{a=1}^{q} zeta(s, a/q) = q^s zeta(s)
    with mp.workprec(300):
        for q in range(2, 11):
            for s in (2, 3):
                lhs = sum(as_mpf(hurwitz_zeta(s, Fraction(a, q), CTX)) for a in range(1, q + 1))
                rhs = mp.mpf(q) ** s * as_mpf(riemann_zeta(s, CTX))
                assert abs(lhs - rhs) < mp.mpf('1e-27') * q


def test_L_catalan():
    # L(2, chi_-4) is Catalan's constant; oracle is the alternating series
    # with average-of-partial-sums acceleration
    D = fundamental_discriminant(-1)
    N = 10**6
    k = np.arange(N, dtype=np.float64)
    terms = (-1.0) ** (k % 2) / (2 * k + 1) ** 2
    s_n = float(np.sum(terms))
    oracle = s_n + 0.5 * (1.0 / (2 * N + 1) ** 2)  # half the next term
    val = float(dirichlet_L(2, D, CTX))
    assert abs(val - oracle) < 1e-12
    with mp.workprec(300):
        assert abs(as_mpf(dirichlet_L(2, D, CTX)) - mp.catalan) < mp.mpf('1e-28')


def test_L_hurwitz_vs_direct_grid():
    for delta in (13, -11, -1, 5):
        D = fundamental_discriminant(delta)
        for s in (2, 3, 4):
            via_hurwitz = float(dirichlet_L(s, D, CTX))
            direct = dirichlet_L_direct(s, D, terms=10**5)
            assert abs(via_hurwitz - direct) < 1e-5, (delta, s)


def test_L_rejects_trivial_character():
    with pytest.raises(ValueError):
        dirichlet_L(3, 1, CTX)


def test_monotone_precision():
    # doubling the working precision moves nothing by more than the bound
    D = fundamental_discriminant(13)
    for build in (lambda c: riemann_zeta(3, c),
                  lambda c: hurwitz_zeta(2, Fraction(3, 7), c),
                  lambda c: dirichlet_L(3, D, c)):
        coarse_ctx = PrecisionContext(128, 1e-20)
        fine_ctx = PrecisionContext(256, 1e-35)
        with mp.workprec(400):
            coarse = as_mpf(build(coarse_ctx))
            fine = as_mpf(build(fine_ctx))
            assert abs(coarse - fine) <= mp.mpf('1e-20')


def test_precision_context_validation():
    with pytest.raises(ValueError):
        PrecisionContext(32)
    with pytest.raises(ValueError):
        PrecisionContext(128, 2.0)
    # 10^-400 lies in (0, 1) but is 0.0 as a float64
    with pytest.raises(ValueError, match="below the float64 range"):
        PrecisionContext(1024, Fraction(1, 10**400))
    assert PrecisionContext(64, 1e-40).workprec() >= 133


@pytest.mark.parametrize("args, message", [
    ((32,), "precision must be an integer of at least 64 bits, not 32"),
    ((256, 0), "target error must be in (0, 1), not 0"),
    (("x",), "precision must be an integer of at least 64 bits, not 'x'"),
    ((256, "x" * 5000), f"target error must be in (0, 1), not '{'x' * 39}... [4962 more characters]"),
], ids=["32-bits", "zero-target", "text-precision", "long-target"])
def test_precision_context_raises_bad_option(args, message):
    with pytest.raises(BadOption) as exc:
        PrecisionContext(*args)
    assert isinstance(exc.value, ValueError) and str(exc.value) == message


GRID_DIGITS = (20, 30, 40, 60)  # targets 10^-digits
# a = 1 and, for every q <= 24, the smallest, a middle and the largest p/q
GRID_A = sorted({Fraction(1)} | {Fraction(p, q) for q in range(2, 25)
                                 for p in (1, next(p for p in range(q // 2, q) if math.gcd(p, q) == 1), q - 1)})


@pytest.mark.parametrize("s", range(2, 9))
def test_hurwitz_grid_against_mpf_sum_and_mpmath(s):
    for a in GRID_A:
        with mp.workprec(600):
            reference = mpmath.zeta(s, mp.mpf(a.numerator) / a.denominator)
        for digits in GRID_DIGITS:
            ctx = PrecisionContext(256, Fraction(1, 10**digits))
            value = hurwitz_zeta(s, a, ctx)
            oracle = hurwitz_zeta_mpf(s, a, ctx)
            with mp.workprec(600):
                value = as_mpf(value)
                # the mpf sum rounds relative to its running total
                assert abs(value - oracle) <= mp.mpf(2) ** (8 - ctx.workprec()) * max(1, abs(oracle)), (s, a, digits)
                assert abs(value - reference) <= mp.mpf(10) ** -digits, (s, a, digits)


GRID_D = (-4, -3, 5, -7, 8, -11, 12, 13, -20, 21, 24)


@pytest.mark.parametrize("D", GRID_D)
def test_dirichlet_L_grid_against_mpmath(D):
    delta = D // 4 if D % 4 == 0 else D
    disc = fundamental_discriminant(delta)
    assert disc == D
    chi = [0] + [kronecker_chi(disc, n) for n in range(1, abs(D))]
    for s in range(2, 9):
        with mp.workprec(600):
            reference = mpmath.dirichlet(s, chi)
        for digits in GRID_DIGITS:
            value = dirichlet_L(s, disc, PrecisionContext(256, Fraction(1, 10**digits)))
            with mp.workprec(600):
                value = as_mpf(value)
                assert abs(value - reference) <= mp.mpf(10) ** -digits, (D, s, digits)


# the 5D and 7D library contexts and a deep one
ROUNDING_CONTEXTS = (PrecisionContext(256, Fraction(1, 10**30)),
                     PrecisionContext(320, Fraction(1, 10**40)),
                     PrecisionContext(512, Fraction(1, 10**100)))


@pytest.mark.parametrize("ctx", ROUNDING_CONTEXTS, ids=lambda c: f"{c.precision}bits")
def test_hurwitz_horner_tail_against_termwise_tail(ctx):
    # both sums round the same truncated series with the same cutoff M: the
    # Horner tail within (M + 2J + 4) 2^-wp of it, the termwise one within
    # (M + J + 2) 2^-wp
    wp = ctx.workprec()
    for s in range(2, 9):
        for a in GRID_A:
            M = em_cutoff(s, a, ctx)
            with mp.workprec(2 * wp):
                gap = abs(as_mpf(hurwitz_zeta(s, a, ctx)) - hurwitz_zeta_termwise(s, a, ctx))
                assert gap <= mp.ldexp(2 * M + 3 * _EM_TERMS + 6, -wp), (s, a)


@pytest.mark.parametrize("D", GRID_D)
def test_dirichlet_L_is_one_sum_of_hurwitz_values(D):
    # the residues' fixed-point sums add exactly, so the L-value differs from
    # |D|^-s sum chi(a) zeta(s, a/|D|) only by its one division by |D|^s,
    # well inside the rounding bound of a single Hurwitz value
    disc = fundamental_discriminant(D // 4 if D % 4 == 0 else D)
    q = abs(D)
    for ctx in ROUNDING_CONTEXTS:
        for s in range(2, 9):
            per_term = min(Fraction(ctx.target_error) * q ** (s - 1) / 2, Fraction(1, 2))
            sub = PrecisionContext(ctx.workprec(), per_term)
            wp = sub.workprec()
            with mp.workprec(4 * wp):
                total = sum(kronecker_chi(disc, a) * as_mpf(hurwitz_zeta(s, Fraction(a, q), sub))
                            for a in range(1, q + 1))
                reference = total / mp.mpf(q) ** s
                value = as_mpf(dirichlet_L(s, disc, ctx))
                assert abs(value - reference) <= mp.ldexp(abs(reference), -wp), (s, ctx)


@pytest.mark.parametrize("D", (13, -11, 24))
def test_dirichlet_L_converts_once_and_sums_one_kernel_per_residue(monkeypatch, D):
    # the value is one quotient: the kernels' integers, weighted by the
    # character and summed, over |D|^s 2^wp
    kernel = lseries._hurwitz_fixed
    residues, sums, precisions = [], [], set()

    def counting_kernel(s, p, q, wp, limit):
        residues.append((p, q))
        precisions.add(wp)
        sums.append(kernel(s, p, q, wp, limit))
        return sums[-1]

    monkeypatch.setattr(lseries, "_hurwitz_fixed", counting_kernel)
    disc = fundamental_discriminant(D // 4 if D % 4 == 0 else D)
    q = abs(D)
    value = dirichlet_L(3, disc, CTX)
    assert residues == [(a, q) for a in range(1, q + 1) if math.gcd(a, q) == 1]
    (wp,) = precisions
    total = sum(kronecker_chi(disc, p) * v for (p, _), v in zip(residues, sums))
    assert value == Fraction(total, q ** 3 << wp)

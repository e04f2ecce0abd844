import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from hypvol import surd
from hypvol.arithmeticity import classify
from hypvol.diagram import gram_matrix, parse_diagram
from hypvol.errors import BadWeight, TooLarge
from hypvol.surd import (
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    TRIAL_DIVISION_LIMIT,
    MultiSurd,
    parse_surd,
    prime_characters,
    prime_factors,
    squarefree_decompose,
)
from oracles import as_mpf, char_poly_is_integral


RADICANDS = [1, 2, 3, 5, 6, 7, 10, 13, 26]

coeffs = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=16
)
surds = st.builds(
    lambda pairs: MultiSurd(dict(pairs)),
    st.lists(st.tuples(st.sampled_from(RADICANDS), coeffs), max_size=4),
)


def test_squarefree_decompose():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(8) == (2, 2)
    assert squarefree_decompose(26) == (26, 1)
    assert squarefree_decompose(36) == (1, 6)
    assert squarefree_decompose(360) == (10, 6)


def test_canonicalization_folds_square_factors():
    assert MultiSurd.sqrt(8) == MultiSurd.sqrt(2, 2)
    assert MultiSurd.sqrt(9) == MultiSurd(3)
    assert MultiSurd({2: 1, 8: Fraction(-1, 2)}).is_zero()


def test_mul_gcd_reduction():
    # sqrt(2)*sqrt(26) = 2*sqrt(13)
    assert MultiSurd.sqrt(2) * MultiSurd.sqrt(26) == MultiSurd.sqrt(13, 2)


def test_mul_square_of_monomial():
    w = MultiSurd.sqrt(26, Fraction(1, 4))
    assert w * w == MultiSurd(Fraction(13, 8))


def test_mul_golden_ratio_square():
    # ((1 + sqrt 5)/4)^2 = 3/8 + sqrt(5)/8, cross-checked against floats
    x = MultiSurd({1: Fraction(1, 4), 5: Fraction(1, 4)})
    sq = x * x
    assert sq == MultiSurd({1: Fraction(3, 8), 5: Fraction(1, 8)})
    assert math.isclose(float(sq), float(x) ** 2, rel_tol=1e-14)


@given(st.lists(st.sampled_from([MultiSurd(1), MultiSurd(-1), MultiSurd(2),
                                  MultiSurd.sqrt(2), MultiSurd(Fraction(1, 2))]), max_size=5))
def test_product_multiplies_by_no_unit(factors):
    # the running product may return to 1, as (-1)(-1) does, and is not
    # multiplied on from there either
    seen = []
    multiply = MultiSurd.__mul__
    with pytest.MonkeyPatch.context() as mp_:
        mp_.setattr(MultiSurd, "__mul__", lambda x, y: seen.append((x, y)) or multiply(x, y))
        got = surd.product(*factors)
    assert got == math.prod(factors, start=MultiSurd(1))
    assert MultiSurd(1) not in {x for pair in seen for x in pair}


def test_zero_alone_is_false():
    assert not MultiSurd(0)
    assert not (MultiSurd(1) - 1)
    assert MultiSurd(1)
    assert MultiSurd.sqrt(2)
    assert MultiSurd.sqrt(2) - MultiSurd.sqrt(3)


def test_sign_basics():
    assert MultiSurd(0).sign() == 0
    assert (MultiSurd.sqrt(26, Fraction(1, 4)) - 1).sign() == 1
    assert (MultiSurd(3) - MultiSurd.sqrt(2, 2)).sign() == 1
    assert (MultiSurd.sqrt(2, 2) - 3).sign() == -1


def test_sign_tight_difference():
    # sqrt(2) + sqrt(3) vs sqrt(5 + 2*sqrt(6)) are equal; perturb slightly
    x = MultiSurd.sqrt(2) + MultiSurd.sqrt(3) - MultiSurd(Fraction(31463, 10000))
    assert x.sign() == (1 if math.sqrt(2) + math.sqrt(3) > 3.1463 else -1)


def sqrt2_convergents_past(bits):
    """The first convergent p/q of sqrt(2) with q > 2^bits and p^2 - 2q^2 = 1
    (so p/q > sqrt(2)), and the convergent after it (p^2 - 2q^2 = -1)."""
    p, q = 1, 1
    while q <= 1 << bits or p * p - 2 * q * q != 1:
        p, q = p + 2 * q, p + q
    return Fraction(p, q), Fraction(p + 2 * q, p + q)


def test_sign_beyond_any_fixed_precision():
    # |sqrt(2) - p/q| < 1/q^2 < 2^-4200: no 4096-bit enclosure separates it
    # from zero, the field tower does
    over, under = sqrt2_convergents_past(2100)
    assert over.numerator ** 2 - 2 * over.denominator ** 2 == 1
    assert (MultiSurd.sqrt(2) - over).sign() == -1
    assert under.numerator ** 2 - 2 * under.denominator ** 2 == -1
    assert (MultiSurd.sqrt(2) - under).sign() == 1


def test_dashed_weight_at_one_within_2_to_minus_4200_is_bad_weight():
    over, _ = sqrt2_convergents_past(2100)
    text = f"n 2\nfacets 3\nedge 0 1 dashed 1 + sqrt(2) - {over}\nedge 1 2 3\n"
    with pytest.raises(BadWeight, match="must exceed 1"):
        parse_diagram(text)


SIGN_RADICANDS = [1, 2, 3, 5, 6, 10, 13, 26, 30]

sign_surds = st.builds(
    lambda pairs: MultiSurd(dict(pairs)),
    st.lists(st.tuples(st.sampled_from(SIGN_RADICANDS), coeffs), max_size=6),
)


@settings(max_examples=200, deadline=None)
@given(sign_surds, sign_surds)
def test_sign_agrees_with_1024_bits(x, y):
    # x * y and x * x - y * y mix every radicand and can nearly cancel
    for z in (x, x * y, x * x - y * y):
        with mp.workprec(1024):
            value = as_mpf(z)
        assert z.sign() == (value > 0) - (value < 0)


def test_inverse_and_division():
    x = MultiSurd({1: 1, 5: 1})
    assert x * x.inverse() == MultiSurd(1)
    y = MultiSurd({2: Fraction(3, 7), 13: Fraction(-1, 2), 1: 2})
    assert (y / y) == MultiSurd(1)
    with pytest.raises(ZeroDivisionError):
        MultiSurd(0).inverse()


def test_inverse_of_a_rational_matches_the_fraction_inverse():
    # a rational inverts by swapping numerator and denominator in integers;
    # the canonical form (positive denominator, lowest terms) is that of 1/q
    qs = [Fraction(1), Fraction(-1), Fraction(3), Fraction(-4), Fraction(2, 7),
          Fraction(-9, 4), Fraction(-1, 6), Fraction(10**20 + 7, 3), Fraction(-5, 10**18)]
    for q in qs:
        x = MultiSurd(q)
        inverse = x.inverse()
        assert inverse == MultiSurd(1 / q)
        assert (inverse._nums, inverse._den) == (MultiSurd(1 / q)._nums, (1 / q).denominator)
        assert inverse.as_rational() * q == 1
    with pytest.raises(ZeroDivisionError):
        MultiSurd(0).inverse()


def test_inverse_and_integrality_need_no_conjugates(monkeypatch):
    def refuse(self, neg_primes):
        raise AssertionError("conjugate_by_primes called")

    monkeypatch.setattr(MultiSurd, "conjugate_by_primes", refuse)
    x = MultiSurd({1: 1, 2: Fraction(1, 2), 3: -1, 5: Fraction(2, 3), 7: 1, 11: -2,
                   13: Fraction(1, 4), 30: 1, 1001: 3})
    assert x * x.inverse() == MultiSurd(1)
    assert not x.is_integral()
    y = MultiSurd({1: 1, 2: 1, 3: 1, 5: 1, 7: 1, 11: 1, 13: 1, 2 * 3 * 5 * 7 * 11 * 13: -4})
    assert y * y.inverse() == MultiSurd(1)
    assert y.is_integral()


def test_ring_operations_factor_no_radicand(monkeypatch):
    # radicands are factored where a value enters; ring operations keep
    # them squarefree without factoring
    x = MultiSurd({1: Fraction(1, 3), 2: 1, 3: -2, 5: Fraction(1, 2), 13: 1, 26: Fraction(-3, 4)})
    y = MultiSurd({1: 2, 2: Fraction(2, 5), 5: Fraction(1, 2), 13: -1, 26: 1})

    def results():
        values = [x + y, x - y, -x, x * y, x * x - y * y, x * 2, x.inverse(), x / y]
        return values, [v.sign() for v in values], [v.is_integral() for v in values]

    expected = results()

    def refuse(n):
        raise AssertionError("squarefree_decompose called")

    monkeypatch.setattr(surd, "squarefree_decompose", refuse)
    assert results() == expected
    assert x * x.inverse() == 1


def test_is_integral_examples():
    assert MultiSurd({1: Fraction(1, 2), 5: Fraction(1, 2)}).is_integral()  # golden ratio
    assert not MultiSurd.sqrt(2, Fraction(1, 2)).is_integral()
    assert not MultiSurd({1: Fraction(1, 2), 3: Fraction(1, 2)}).is_integral()
    assert MultiSurd(-7).is_integral()
    assert not MultiSurd(Fraction(7, 2)).is_integral()
    # (sqrt 2 + sqrt 6)/2 = sqrt 2 * (1 + sqrt 3)/2 squares to 2 + sqrt 3
    assert MultiSurd({2: Fraction(1, 2), 6: Fraction(1, 2)}).is_integral()


TOWER_RADICANDS = SIGN_RADICANDS + [7, 11]

# quarter-integer coefficients make a fair share of the values integral
tower_surds = st.builds(
    lambda pairs: MultiSurd({r: Fraction(k, d) for r, k, d in pairs}),
    st.lists(st.tuples(st.sampled_from(TOWER_RADICANDS), st.integers(-9, 9),
                       st.sampled_from([1, 2, 4])), max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(tower_surds, tower_surds)
def test_inverse_and_integrality_agree_with_conjugates(x, y):
    for z in (x, x * y, x * x - y * y):
        if not z.is_zero():
            assert z * z.inverse() == MultiSurd(1)
        assert z.is_integral() == char_poly_is_integral(z)


def test_interval_contains_value_at_every_precision():
    rng = random.Random(42)
    for _ in range(50):
        x = MultiSurd(
            {rng.choice(RADICANDS): Fraction(rng.randint(-40, 40), rng.randint(1, 9))
             for _ in range(rng.randint(0, 4))}
        )
        with mp.workprec(512):
            ref = as_mpf(x)
        # float() is within 8 ulps of the 512-bit value
        slack = 8 * abs(float(x)) * 2.0 ** -52 + 1e-300
        assert abs(float(x) - ref) <= slack


ORACLE_RADICANDS = [1, 2, 3, 5, 6, 7, 10, 15, 30]


def random_terms(rng: random.Random) -> dict[int, Fraction]:
    """Up to five terms over ORACLE_RADICANDS, numerators and denominators up to 10^6."""
    return {r: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            for r in rng.sample(ORACLE_RADICANDS, rng.randint(0, 5))}


def terms_of(x: MultiSurd) -> dict[int, Fraction]:
    """The rational coefficient of each radicand, read off the integer form."""
    return {r: Fraction(c, x._den) for r, c in x._nums.items()}


def mpf_of(terms: dict[int, Fraction]):
    """sum c * sqrt(r) at the working precision."""
    return mp.fsum(mp.mpf(c.numerator) / c.denominator * mp.sqrt(r) for r, c in terms.items())


def size_of(terms: dict[int, Fraction]):
    return mp.fsum(abs(mp.mpf(c.numerator) / c.denominator) * mp.sqrt(r)
                   for r, c in terms.items())


def assert_canonical(x: MultiSurd):
    assert x._den > 0
    assert all(x._nums.values())
    assert math.gcd(x._den, *x._nums.values()) == 1   # also den == 1 for zero
    assert all(squarefree_decompose(r)[1] == 1 for r in x._nums)


def test_ring_operations_match_300_bit_evaluation():
    rng = random.Random(20)
    with mp.workprec(300):
        tol = mp.mpf(2) ** -200
        for _ in range(150):
            tx, ty = random_terms(rng), random_terms(rng)
            x, y = MultiSurd(tx), MultiSurd(ty)
            vx, vy = mpf_of(tx), mpf_of(ty)
            sx, sy = size_of(tx), size_of(ty)
            cases = [(x + y, vx + vy, sx + sy), (x - y, vx - vy, sx + sy),
                     (x * y, vx * vy, sx * sy), (x * 3, 3 * vx, 3 * sx)]
            if not x.is_zero():
                cases.append((x.inverse(), 1 / vx, abs(1 / vx)))
            for z, want, scale in [(x, vx, sx)] + cases:
                assert_canonical(z)
                assert abs(mpf_of(terms_of(z)) - want) <= tol * (scale + 1)
                assert z.sign() == mp.sign(want)


def test_equal_values_by_different_routes_are_equal_and_hash_equal():
    # geometry.realize keys a dict by MultiSurd
    rng = random.Random(21)
    for _ in range(100):
        x, y, z = (MultiSurd(random_terms(rng)) for _ in range(3))
        pairs = [((x * y) * z, x * (y * z)), ((x + y) - y, x), (x * y - y * x, MultiSurd(0)),
                 (MultiSurd.sqrt(8), MultiSurd.sqrt(2, 2)),
                 (MultiSurd(Fraction(6, 4)), MultiSurd({1: 3, 4: Fraction(-3, 4)}))]
        if not x.is_zero():
            pairs.append((x * x.inverse(), MultiSurd(1)))
        for a, b in pairs:
            assert_canonical(a)
            assert a == b and hash(a) == hash(b)


def per_term_mpf(x: MultiSurd, prec: int):
    """The value rounded term by term from each coefficient in lowest terms."""
    with mp.workprec(prec + 16):
        total = mp.mpf(0)
        for r, c in sorted(terms_of(x).items()):
            t = mp.mpf(c.numerator) / mp.mpf(c.denominator)
            if r != 1:
                t = t * mp.sqrt(r)
            total += t
        total = +total
    return total


def test_float_image_rounds_each_coefficient_in_lowest_terms():
    # products grow numerators and the shared denominator past 80 bits; the
    # conversion must not round them before reducing each term
    rng = random.Random(22)
    for _ in range(100):
        x, y, z = (MultiSurd(random_terms(rng)) for _ in range(3))
        for w in (x, x * y, x * y * z, x + y * z):
            assert float(w) == float(per_term_mpf(w, 64))


@settings(max_examples=200, deadline=None)
@given(surds, surds, surds)
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)


@settings(max_examples=200, deadline=None)
@given(surds)
def test_square_positive(x):
    assert (x * x).sign() == (0 if x.is_zero() else 1)


@settings(max_examples=150, deadline=None)
@given(surds, surds, st.frozensets(st.sampled_from([2, 3, 5, 7, 13]), max_size=3))
def test_galois_conjugate_is_ring_homomorphism(a, b, neg):
    assert (a * b).conjugate_by_primes(neg) == a.conjugate_by_primes(neg) * b.conjugate_by_primes(neg)
    assert (a + b).conjugate_by_primes(neg) == a.conjugate_by_primes(neg) + b.conjugate_by_primes(neg)


def test_galois_conjugate_examples():
    x = MultiSurd({1: 1, 5: 1})
    assert x.conjugate_by_primes(frozenset({5})) == MultiSurd({1: 1, 5: -1})
    q = MultiSurd(Fraction(22, 7))
    assert q.conjugate_by_primes(frozenset({2, 3})) == q
    y = MultiSurd({2: 1, 3: Fraction(1, 2), 6: -2, 1: 5})
    for neg in prime_characters([6]):
        assert y.conjugate_by_primes(neg).conjugate_by_primes(neg) == y


def test_galois_conjugate_flips_composite_radicand():
    y = MultiSurd.sqrt(26)
    z = MultiSurd.sqrt(2) + MultiSurd.sqrt(26)
    # either prime of 26 flips sqrt(26); the character negating 2 also
    # moves sqrt(2), the one negating 13 leaves it
    for neg in (frozenset({2}), frozenset({13})):
        assert y.conjugate_by_primes(neg) == -y
        flipped = z.conjugate_by_primes(neg)
        assert flipped == -z or flipped == MultiSurd.sqrt(2) - MultiSurd.sqrt(26)


def test_prime_characters_in_bitmask_order():
    # bit i of the index selects the i-th smallest prime; witness order in
    # the classification follows this order
    assert prime_characters([]) == [frozenset()]
    assert prime_characters([6, 5, 10]) == [
        frozenset(), {2}, {3}, {2, 3}, {5}, {2, 5}, {3, 5}, {2, 3, 5}]


def test_parse_surd():
    assert parse_surd("sqrt(26)/4") == MultiSurd.sqrt(26, Fraction(1, 4))
    assert parse_surd("3/2") == MultiSurd(Fraction(3, 2))
    assert parse_surd("1/4 + 1/4*sqrt(5)") == MultiSurd({1: Fraction(1, 4), 5: Fraction(1, 4)})
    assert parse_surd("3 - 2*sqrt(2)") == MultiSurd({1: 3, 2: -2})
    assert parse_surd("2*sqrt(8)") == MultiSurd.sqrt(2, 4)
    assert parse_surd("-sqrt(2)") == MultiSurd.sqrt(2, -1)


@pytest.mark.parametrize("bad", ["sqrt(-2)", "sqrt 2", "2 +", "x", "sqrt(2)!", "()",
                                 "\u0663", "\u00b2", "sqrt(\u0662)", "1/\uff14"])
def test_parse_surd_rejects(bad):
    with pytest.raises(ValueError):
        parse_surd(bad)


def test_parse_surd_nesting_is_bounded():
    assert parse_surd("(" * MAX_NESTING + "2" + ")" * MAX_NESTING) == MultiSurd(2)
    deeper = "(" * (MAX_NESTING + 1) + "2" + ")" * (MAX_NESTING + 1)
    with pytest.raises(ValueError, match="deeper than"):
        parse_surd(deeper)


def test_integer_literals_are_bounded():
    assert parse_surd("1" * MAX_LITERAL_DIGITS) == MultiSurd(int("1" * MAX_LITERAL_DIGITS))
    with pytest.raises(ValueError, match=f"integer literal longer than {MAX_LITERAL_DIGITS} digits"):
        parse_surd("sqrt(2)/" + "1" * (MAX_LITERAL_DIGITS + 1))


def test_prime_factors_give_up_past_the_trial_division_limit():
    limit = TRIAL_DIVISION_LIMIT
    assert prime_factors(2**200 * 3**50 * 999983) == {2: 200, 3: 50, 999983: 1}
    assert prime_factors(999999999989) == {999999999989: 1}   # a prime below limit^2
    with pytest.raises(TooLarge):
        prime_factors(1000003 * 1000033)                       # two primes above the limit
    assert squarefree_decompose(limit**2 * 7) == (7, limit)


def test_each_radicand_is_divided_out_once():
    # a radicand's trial division runs once per process, not on every sign,
    # inverse or integrality step down the tower; a prime near 10^12 costs
    # about 0.1 s of division each time
    surd._factorization.cache_clear()
    text = "n 2\nfacets 3\nedge 0 1 dashed sqrt(999999999989)\nedge 1 2 3\nedge 0 2 3\n"
    G = gram_matrix(parse_diagram(text))
    t0 = time.perf_counter()
    classify(G)
    assert time.perf_counter() - t0 < 0.1
    info = surd._factorization.cache_info()
    assert info.hits > 0 and info.misses == info.currsize   # no integer divided out twice


def test_prime_factors_returns_a_fresh_dict():
    # reports keep the factorization, so the memo must not be shared
    prime_factors(360)[2] = 0
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}

"""Acceptance criteria, one test per criterion, each printing a status line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
import time
from fractions import Fraction

from mpmath import mp

from hypvol.arithmeticity import (
    Classification,
    classify,
    discriminant_delta,
    enumerate_cycles,
    rational_form,
)
from hypvol.diagram import gram_matrix, parse_diagram
from hypvol.geometry import enumerate_vertices, realize, to_klein
from hypvol.integration import polytope_volume
from hypvol.lseries import (
    PrecisionContext,
    dirichlet_L,
    fundamental_discriminant,
    riemann_zeta,
)
from hypvol.polytopes import IDEAL_TRIANGLE, POLYTOPE_5D, POLYTOPE_7D
from hypvol.prediction import analyze
from hypvol.surd import MultiSurd
from oracles import as_mpf, dirichlet_L_direct, relabeled

VOL_5D_REFERENCE = "0.0241330687945822699990"
VOL_7D_REFERENCE = "0.000181338"
# angles pi/4, pi/5, pi/2: area pi/20
TRIANGLE_245 = "n 2\nfacets 3\nedge 0 1 4\nedge 1 2 5\n"


def _report(number: int, elapsed: float, detail: str):
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) {detail}")


def test_criterion_1_classification_5d():
    t0 = time.perf_counter()
    G = gram_matrix(parse_diagram(POLYTOPE_5D))
    rep = classify(G)
    F = rational_form(G)
    from hypvol.arithmeticity import squarefree_class
    from hypvol.diagram import eliminate

    eliminated, pivots = eliminate(F.matrix)
    assert len(eliminated) == len(F.matrix)
    det = math.prod(pivots, start=MultiSurd(1))
    assert F.det == det
    disc_class = squarefree_class(det.as_rational())
    D = fundamental_discriminant(rep.delta)
    elapsed = time.perf_counter() - t0
    assert rep.field_is_rational                      # K = Q
    assert rep.classification is Classification.PROPERLY_QUASI_ARITHMETIC
    assert disc_class == -13
    assert rep.delta == 13                            # field Q(sqrt 13)
    assert D == 13
    assert elapsed < 1.0
    _report(1, elapsed, "5d polytope: K=Q, properly quasi-arithmetic, "
                        "disc -13, delta 13, D 13")


def test_criterion_2_classification_7d():
    t0 = time.perf_counter()
    G = gram_matrix(parse_diagram(POLYTOPE_7D))
    rep = classify(G)
    D = fundamental_discriminant(rep.delta)
    elapsed = time.perf_counter() - t0
    assert rep.classification is Classification.PROPERLY_QUASI_ARITHMETIC
    assert rep.delta == -11
    assert D == -11
    assert elapsed < 1.0
    _report(2, elapsed, "7d polytope: delta -11, D -11, properly quasi-arithmetic")


def test_criterion_3_l_function_cross_checks():
    t0 = time.perf_counter()
    ctx = PrecisionContext(256)
    with mp.workprec(300):
        assert abs(as_mpf(riemann_zeta(2, ctx)) - mp.pi ** 2 / 6) < mp.mpf("1e-25")
        assert abs(as_mpf(riemann_zeta(4, ctx)) - mp.pi ** 4 / 90) < mp.mpf("1e-25")
    checked = 0
    for delta in (13, -11, -1, 5):
        D = fundamental_discriminant(delta)
        for s in (2, 3, 4):
            via_hurwitz = float(dirichlet_L(s, D, ctx))
            direct = dirichlet_L_direct(s, D, terms=10**6)
            assert abs(via_hurwitz - direct) < 1e-5, (s, D)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(3, elapsed, f"zeta closed forms to 1e-25; {checked} L-values vs "
                        "direct million-term series to 1e-5")


def test_criterion_4_volume_identity_5d():
    t0 = time.perf_counter()
    rep = analyze(POLYTOPE_5D, assume_volume=VOL_5D_REFERENCE, assume_err=1e-19)
    elapsed = time.perf_counter() - t0
    rec = rep.recognition
    assert rec.status == "recognized"
    assert (rec.numerator, rec.denominator) == (1, 23040)
    assert rec.q_factorization == {2: 9, 3: 2, 5: 1}
    assert elapsed < 5.0
    _report(4, elapsed, "5d identity: volume = 1/23040 * T, 23040 = 2^9 3^2 5")


def test_criterion_5_volume_identity_7d():
    t0 = time.perf_counter()
    rep = analyze(POLYTOPE_7D, assume_volume=VOL_7D_REFERENCE, assume_err=5e-9)
    elapsed = time.perf_counter() - t0
    rec = rep.recognition
    assert rec.status == "recognized"
    assert (rec.numerator, rec.denominator) == (1, 2**13 * 3**4 * 5 * 7)
    assert elapsed < 5.0
    _report(5, elapsed, "7d identity: volume = 1/(2^13 3^4 5 7) * T")


def test_criterion_6_integrator_low_dimension():
    t0 = time.perf_counter()
    r = realize(gram_matrix(parse_diagram(TRIANGLE_245)))
    enumerate_vertices(r)
    est = polytope_volume(to_klein(r), 1e-4)
    ref = math.pi / 20
    assert abs(est.value - ref) / ref < 1e-4

    r = realize(gram_matrix(parse_diagram(IDEAL_TRIANGLE)))
    enumerate_vertices(r)
    est_ideal = polytope_volume(to_klein(r), 1e-3)
    assert abs(est_ideal.value - math.pi) / math.pi < 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(6, elapsed, f"(2,4,5) area {est.value:.8f} ~ pi/20; "
                        f"ideal triangle {est_ideal.value:.6f} ~ pi")


def test_criterion_7_integrator_paper_scale():
    ref5 = float(mp.mpf(VOL_5D_REFERENCE))
    t0 = time.perf_counter()
    r = realize(gram_matrix(parse_diagram(POLYTOPE_5D)))
    enumerate_vertices(r)
    est5 = polytope_volume(to_klein(r), 1e-3)
    t5 = time.perf_counter() - t0
    dev5 = abs(est5.value - ref5)
    assert t5 < 600.0
    assert dev5 / ref5 < 1e-3 or dev5 <= est5.abs_error

    ref7 = 0.000181338
    t0 = time.perf_counter()
    r = realize(gram_matrix(parse_diagram(POLYTOPE_7D)))
    enumerate_vertices(r)
    est7 = polytope_volume(to_klein(r), 5e-3)
    t7 = time.perf_counter() - t0
    dev7 = abs(est7.value - ref7)
    assert t7 < 1800.0
    assert dev7 / ref7 < 5e-3 or dev7 <= est7.abs_error

    _report(7, t5 + t7,
            f"5d volume {est5.value:.8f} (rel dev {dev5 / ref5:.1e}, {t5:.0f}s); "
            f"7d volume {est7.value:.3e} (rel dev {dev7 / ref7:.1e}, {t7:.0f}s)")


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(2718)
    rads = [1, 2, 3, 5, 7, 13, 26]

    def rand_surd():
        return MultiSurd({rng.choice(rads): Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                          for _ in range(rng.randint(0, 3))})

    # ring axioms and positivity of squares
    for _ in range(300):
        a, b, c = rand_surd(), rand_surd(), rand_surd()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
    for _ in range(1000):
        a = rand_surd()
        assert (a * a).sign() == (0 if a.is_zero() else 1)

    # Galois conjugation is a ring homomorphism
    for _ in range(300):
        a, b = rand_surd(), rand_surd()
        neg = frozenset(d for d in (2, 3, 5) if rng.random() < 0.5)
        assert (a * b).conjugate_by_primes(neg) == \
            a.conjugate_by_primes(neg) * b.conjugate_by_primes(neg)

    # spanning-tree invariance of delta: the tree follows the facet labels,
    # so 20 random relabelings per diagram
    tree_rng = random.Random(20)
    for text, n, expected in ((POLYTOPE_5D, 5, 13), (POLYTOPE_7D, 7, -11)):
        d = parse_diagram(text)
        for _ in range(20):
            perm = list(range(d.facets))
            tree_rng.shuffle(perm)
            assert discriminant_delta(rational_form(gram_matrix(relabeled(d, perm))), n) == expected

    # cycle value invariance under rotation and reversal
    d5 = parse_diagram(POLYTOPE_5D)
    G5 = gram_matrix(d5)
    long_cycles = [c for c in enumerate_cycles(G5) if len(c.cycle) >= 3]
    for c in long_cycles:
        order = list(c.cycle)
        for k in range(len(order)):
            rot = order[k:] + order[:k]
            v = MultiSurd(1)
            for x, y in zip(rot, rot[1:] + rot[:1]):
                v = v * (G5[x, y] * 2)
            assert v == c.value
            w = MultiSurd(1)
            rev = rot[::-1]
            for x, y in zip(rev, rev[1:] + rev[:1]):
                w = w * (G5[x, y] * 2)
            assert w == c.value

    # signature invariance under facet permutation
    for _ in range(5):
        perm = list(range(8))
        rng.shuffle(perm)
        assert gram_matrix(relabeled(d5, perm)).signature == (5, 1, 2)

    # recognition round trip on 1000 random rationals
    from hypvol.prediction import recognize_rational

    for _ in range(1000):
        q = rng.randint(1, 10**6)
        p = rng.randint(1, 10**6)
        x = Fraction(p, q)
        xi = Fraction(rng.randint(-(10**6), 10**6), 10**6) * Fraction(1, 2 * 10**14)
        rec = recognize_rational(x + xi, Fraction(1, 10**14))
        assert rec.status == "recognized"
        assert Fraction(rec.numerator, rec.denominator) == x

    # determinism of volume estimates
    r = realize(gram_matrix(parse_diagram(IDEAL_TRIANGLE)))
    enumerate_vertices(r)
    kp = to_klein(r)
    e1 = polytope_volume(kp, 1e-3)
    e2 = polytope_volume(kp, 1e-3)
    assert (e1.value, e1.abs_error, e1.samples) == (e2.value, e2.abs_error, e2.samples)

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(8, elapsed, "ring axioms, conjugation homomorphism, tree-choice "
                        "invariance, cycle invariance, signature permutation "
                        "invariance, recognition round trip, determinism")

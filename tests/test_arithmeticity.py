import random
import sys
from fractions import Fraction

import pytest

from hypvol import arithmeticity, diagram
from hypvol.arithmeticity import (
    Classification,
    QuadraticFormQ,
    classify,
    discriminant_delta,
    enumerate_cycles,
    field_of_definition,
    rational_form,
)
from hypvol.diagram import GramMatrix, eliminate, gram_matrix, inertia, parse_diagram
from hypvol.errors import DisconnectedGraph, HypvolError, TooLarge
from hypvol.polytopes import IDEAL_TRIANGLE, POLYTOPE_5D, POLYTOPE_7D
from hypvol.surd import MultiSurd, parse_surd
from oracles import conjugate_signatures, cycles_by_sequences, field_contains, relabeled

# the (4,5,6) and (4,5,5) hyperbolic triangles, over Q(sqrt 5, sqrt 6) and
# Q(sqrt 2, sqrt 5)
TRIANGLE_456 = "n 2\nfacets 3\nedge 0 1 4\nedge 1 2 5\nedge 0 2 6\n"
TRIANGLE_455 = "n 2\nfacets 3\nedge 0 1 5\nedge 1 2 5\nedge 0 2 4\n"


def triangle_all_label3():
    return gram_matrix(parse_diagram(
        "n 2\nfacets 3\nedge 0 1 3\nedge 1 2 3\nedge 0 2 3\n"))


def test_cycles_triangle():
    cycles = enumerate_cycles(triangle_all_label3())
    two = [c for c in cycles if len(c.cycle) == 2]
    three = [c for c in cycles if len(c.cycle) == 3]
    assert len(two) == 3 and len(three) == 1
    assert all(c.value == MultiSurd(1) for c in two)
    assert three[0].value == MultiSurd(-1)


def test_cycles_5d_contains_dashed_two_cycle():
    G = gram_matrix(parse_diagram(POLYTOPE_5D))
    cycles = {c.cycle: c.value for c in enumerate_cycles(G)}
    assert cycles[(0, 1)] == MultiSurd(Fraction(13, 2))
    assert cycles[(4, 5)] == MultiSurd(Fraction(13, 2))


def test_cycles_tree_only_two_cycles():
    G = gram_matrix(parse_diagram("n 2\nfacets 4\nedge 0 1 3\nedge 1 2 3\nedge 1 3 4\n"))
    cycles = enumerate_cycles(G)
    assert all(len(c.cycle) == 2 for c in cycles)
    assert len(cycles) == 3


def test_cycles_too_large_guard():
    G = GramMatrix(2, [[MultiSurd(1)] * 13 for _ in range(13)])
    with pytest.raises(TooLarge):
        enumerate_cycles(G)


def test_cycles_count_guard():
    # the complete graph on 8 facets lists 28 + 8,018 cycles, within the
    # bound; on 9 facets, 36 + 62,814 would pass it
    def complete(N):
        return GramMatrix(N - 1, [[MultiSurd(1 if i == j else -1) for j in range(N)]
                                  for i in range(N)])

    assert len(enumerate_cycles(complete(8))) == 8046 <= arithmeticity.MAX_CYCLES
    with pytest.raises(TooLarge, match="simple cycles"):
        enumerate_cycles(complete(9))


def test_cycles_path_guard():
    # facet 0 hangs by one edge on a clique of 11: its paths into the clique
    # never close, so the guard on path extensions stops the search before
    # the cycle count could
    text = "n 11\nfacets 12\nedge 0 1 3\n" + "".join(
        f"edge {i} {j} 3\n" for i in range(1, 12) for j in range(i + 1, 12))
    with pytest.raises(TooLarge, match="more than 100000 simple paths"):
        enumerate_cycles(gram_matrix(parse_diagram(text)))


def test_cycles_disconnected():
    G = gram_matrix(parse_diagram("n 2\nfacets 4\nedge 0 1 3\nedge 2 3 3\n"))
    with pytest.raises(DisconnectedGraph):
        enumerate_cycles(G)


def test_cycle_value_rotation_reversal_invariance():
    G = gram_matrix(parse_diagram(POLYTOPE_5D))
    cycles = [c for c in enumerate_cycles(G) if len(c.cycle) >= 3]
    assert cycles, "expected some long cycles"

    def value_of(order):
        v = MultiSurd(1)
        for a, b in zip(order, order[1:] + order[:1]):
            v = v * (G[a, b] * 2)
        return v

    for c in cycles:
        order = list(c.cycle)
        for k in range(len(order)):
            rotated = order[k:] + order[:k]
            assert value_of(rotated) == c.value
            assert value_of(rotated[::-1]) == c.value


def test_field_of_definition_5d_is_rational():
    G = gram_matrix(parse_diagram(POLYTOPE_5D))
    assert field_of_definition(enumerate_cycles(G)) == frozenset()


def test_field_of_definition_golden_edge():
    # one edge with entry -(1 + sqrt 5)/4: the doubled square is (3 + sqrt 5)/2
    e = parse_surd("-1/4 - 1/4*sqrt(5)")
    G = GramMatrix(1, [[MultiSurd(1), e], [e, MultiSurd(1)]])
    cycles = enumerate_cycles(G)
    assert cycles[0].value == parse_surd("3/2 + 1/2*sqrt(5)")
    assert field_of_definition(cycles) == frozenset({5})


def test_field_of_definition_integer_entries():
    G = gram_matrix(parse_diagram(IDEAL_TRIANGLE))
    assert field_of_definition(enumerate_cycles(G)) == frozenset()


def test_rational_form_5d_disc():
    G = gram_matrix(parse_diagram(POLYTOPE_5D))
    F = rational_form(G)
    assert len(F.matrix) == 6
    for row in F.matrix:
        for e in row:
            assert e.is_rational()
    assert discriminant_delta(F, 5) == 13


def test_rational_form_7d_disc():
    G = gram_matrix(parse_diagram(POLYTOPE_7D))
    F = rational_form(G)
    assert len(F.matrix) == 8
    assert discriminant_delta(F, 7) == -11


def test_rational_form_keeps_rational_entries_rational():
    G = gram_matrix(parse_diagram(IDEAL_TRIANGLE))
    F = rational_form(G)
    for row in F.matrix:
        for e in row:
            assert e.is_rational()


def test_rational_form_requires_rank_n_plus_1():
    # the Lorentzian 5D Gram matrix has rank 6, read off its signature (5, 1, 2)
    G = gram_matrix(parse_diagram(POLYTOPE_5D))
    assert len(rational_form(G).basis_facets) == 6


def test_discriminant_delta_hyperbolic_form():
    diag = [[MultiSurd(1 if i == j else 0) for j in range(6)] for i in range(6)]
    diag[5][5] = MultiSurd(-1)
    F = QuadraticFormQ(diag, tuple(range(6)), [diag[i][i] for i in range(6)])
    assert discriminant_delta(F, 5) == 1


def test_delta_spanning_tree_invariance():
    # the BFS tree's root and order follow the facet labels, so 20 random
    # relabelings per diagram give several spanning trees, and every one
    # must give the same class
    rng = random.Random(0)
    for text, n, expected in [(POLYTOPE_5D, 5, 13), (POLYTOPE_7D, 7, -11)]:
        d = parse_diagram(text)
        trees = set()
        for _ in range(20):
            perm = list(range(d.facets))
            rng.shuffle(perm)
            G = gram_matrix(relabeled(d, perm))
            assert discriminant_delta(rational_form(G), n) == expected
            parent = G.forest
            back = {new: old for old, new in enumerate(perm)}
            trees.add(frozenset(frozenset((back[v], back[u])) for v, u in parent.items() if u >= 0))
        assert len(trees) > 1


def test_classify_5d():
    rep = classify(gram_matrix(parse_diagram(POLYTOPE_5D)))
    assert rep.classification is Classification.PROPERLY_QUASI_ARITHMETIC
    assert rep.field_is_rational
    assert rep.delta == 13
    assert any("13/2" in w for w in rep.witnesses)


def test_classify_enumerates_cycles_once(monkeypatch):
    calls = []

    def counted(G):
        calls.append(G)
        return enumerate_cycles(G)

    monkeypatch.setattr(arithmeticity, "enumerate_cycles", counted)
    rep = arithmeticity.classify(gram_matrix(parse_diagram(POLYTOPE_5D)))
    assert rep.delta == 13
    assert len(calls) == 1


@pytest.mark.parametrize("text, delta", [(POLYTOPE_5D, 13), (POLYTOPE_7D, -11),
                                         (TRIANGLE_456, None), (TRIANGLE_455, None)])
def test_classify_eliminates_the_rescaled_form_once(monkeypatch, text, delta):
    # the discriminant class and every conjugate signature read the pivots
    # of the rescaled form's one elimination; inertia's are counted too
    calls = []

    def counted(entries):
        calls.append(entries)
        return eliminate(entries)

    monkeypatch.setattr(diagram, "eliminate", counted)
    assert classify(gram_matrix(parse_diagram(text))).delta == delta
    assert len(calls) == 1


@pytest.mark.parametrize("text", [POLYTOPE_5D, POLYTOPE_7D, IDEAL_TRIANGLE],
                         ids=["5d", "7d", "triangle"])
def test_classify_multiplies_by_no_unit_in_cycles_or_rescaling(monkeypatch, text):
    # a cycle's product starts at its first edge, and the rescaled form
    # skips the root's scale 1 and a unit diagonal entry
    one, multiply = MultiSurd(1), MultiSurd.__mul__
    sites = ("dfs", "enumerate_cycles", "__init__")
    calls = []

    def recorded(x, y):
        frame = sys._getframe(1)
        while frame.f_globals["__name__"] == "hypvol.surd":
            frame = frame.f_back
        calls.append((frame.f_code.co_name, one in (x, y)))
        return multiply(x, y)

    monkeypatch.setattr(MultiSurd, "__mul__", recorded)
    classify(gram_matrix(parse_diagram(text)))
    assert {site for site, _ in calls} >= {"dfs", "__init__"}
    assert [site for site, unit in calls if unit and site in sites] == []


def test_classify_triangles_over_biquadratic_fields():
    rep = classify(gram_matrix(parse_diagram(TRIANGLE_456)))
    assert rep.field_name == "Q(sqrt 5, sqrt 6, sqrt 30)"
    assert len(arithmeticity._field_automorphisms(rep.field_generators)) == 3
    assert rep.classification is Classification.NOT_QUASI_ARITHMETIC
    assert rep.witnesses == ("conjugate flipping sqrt of [5, 6] has signature (2,1,0), "
                             "not definite",)
    rep = classify(gram_matrix(parse_diagram(TRIANGLE_455)))
    assert rep.field_name == "Q(sqrt 2, sqrt 5, sqrt 10)"
    assert rep.classification is Classification.ARITHMETIC
    assert rep.witnesses == ()


_SURD_LABELS = [None, None, None, "3", "4", "5", "6", "inf", "dashed 3/2", "dashed sqrt(2)",
                "dashed 1 + sqrt(5)", "dashed sqrt(6)", "dashed sqrt(26)/4"]


def _random_surd_gram(rng: random.Random) -> GramMatrix | None:
    """Gram matrix of a random diagram, its dimension set so its rank is n + 1,
    or None unless exactly one eigenvalue is negative."""
    facets = rng.choice([3, 3, 4, 5])
    lines = ["n 2", f"facets {facets}"]
    for i in range(facets):
        for j in range(i + 1, facets):
            label = rng.choice(_SURD_LABELS)
            if label is not None:
                lines.append(f"edge {i} {j} {label}")
    G = gram_matrix(parse_diagram("\n".join(lines)))
    pos, neg, _ = inertia(G.entries)
    return GramMatrix(pos + neg - 1, G.entries) if neg == 1 else None


def _outcome(fn, G):
    """fn(G), or the type and message of the HypvolError it raises."""
    try:
        return fn(G)
    except HypvolError as exc:
        return type(exc), str(exc)


def test_cycles_match_products_rebuilt_from_their_edges(monkeypatch):
    # 500 seeded random surd diagrams of 3-6 facets, the connected ones
    # compared: the DFS that carries each path's product finds the cycles and
    # values of rebuilding every product from its edges, and classify reports
    # the same with either
    rng = random.Random(11)
    compared = 0
    for _ in range(500):
        facets = rng.choice([3, 4, 5, 6])
        lines = ["n 2", f"facets {facets}"]
        lines += [f"edge {i} {j} {label}" for i in range(facets) for j in range(i + 1, facets)
                  if (label := rng.choice(_SURD_LABELS)) is not None]
        G = gram_matrix(parse_diagram("\n".join(lines)))
        try:
            cycles = arithmeticity.enumerate_cycles(G)
        except DisconnectedGraph:
            continue
        assert cycles == cycles_by_sequences(G)
        report = _outcome(classify, G)
        with monkeypatch.context() as m:
            m.setattr(arithmeticity, "enumerate_cycles", cycles_by_sequences)
            assert report == _outcome(classify, G)
        compared += 1
    assert compared >= 300


def test_rational_form_entries_lie_in_the_field_of_definition():
    # every rescaled entry is half a cyclic product times squared doubled
    # entries, so its radicands lie in the GF(2) span of the generators
    assert field_contains(30, frozenset({5, 6})) and field_contains(1, frozenset())
    assert not field_contains(2, frozenset({5, 6})) and not field_contains(3, frozenset())
    rng = random.Random(17)
    checked = irrational = 0
    while checked < 500:
        G = _random_surd_gram(rng)
        if G is None:
            continue
        try:
            form = rational_form(G)
        except HypvolError:
            continue
        gens = field_of_definition(enumerate_cycles(G))
        assert all(field_contains(r, gens) for row in form.matrix for e in row
                   for r in e.radicands())
        checked += 1
        irrational += bool(gens)
    assert irrational >= 100


def test_conjugate_signatures_match_the_conjugated_forms():
    # the signs of the conjugated pivots of one elimination give every
    # conjugate's inertia, as a fresh elimination of each conjugate does
    rng = random.Random(7)
    conjugates = nondefinite = 0
    for _ in range(150):
        G = _random_surd_gram(rng)
        if G is None:
            continue
        try:
            rep = classify(G)
            form = rational_form(G)
        except HypvolError:
            continue
        eliminated, pivots = eliminate(form.matrix)
        assert pivots == form.pivots
        assert sorted(eliminated) == list(range(len(form.matrix)))
        expected = []
        for (primes, flips), (oracle_flips, (pos, neg, zero)) in zip(
                arithmeticity._field_automorphisms(rep.field_generators),
                conjugate_signatures(form, rep.field_generators)):
            assert flips == oracle_flips
            signs = [p.conjugate_by_primes(primes).sign() for p in form.pivots]
            assert (signs.count(1), signs.count(-1), 0) == (pos, neg, zero)
            conjugates += 1
            if pos and neg:
                expected.append(f"conjugate flipping sqrt of {flips} has signature "
                                f"({pos},{neg},{zero}), not definite")
        assert [w for w in rep.witnesses if w.startswith("conjugate")] == expected
        assert (rep.classification is Classification.NOT_QUASI_ARITHMETIC) == bool(expected)
        nondefinite += len(expected)
    assert conjugates >= 200 and 0 < nondefinite < conjugates


def test_classify_7d():
    rep = classify(gram_matrix(parse_diagram(POLYTOPE_7D)))
    assert rep.classification is Classification.PROPERLY_QUASI_ARITHMETIC
    assert rep.delta == -11


def test_classify_arithmetic_integral_example():
    # ideal triangle: cyclic products 4, 4, 4 and -8, all rational integers
    G = gram_matrix(parse_diagram(IDEAL_TRIANGLE))
    values = [c.value for c in enumerate_cycles(G)]
    assert all(v.is_rational() and v.as_rational().denominator == 1 for v in values)
    rep = classify(G)
    assert rep.classification is Classification.ARITHMETIC
    assert rep.witnesses == ()


def test_classify_arithmetic_quadratic_field():
    # hyperbolic (2,4,5) triangle: field Q(sqrt 5), conjugate form definite,
    # all cyclic products algebraic integers
    G = gram_matrix(parse_diagram("n 2\nfacets 3\nedge 1 2 4\nedge 0 2 5\n"))
    rep = classify(G)
    assert rep.field_generators == frozenset({5})
    assert rep.classification is Classification.ARITHMETIC
    assert rep.delta is None


def test_classify_not_quasi_arithmetic():
    # dashed weight sqrt(2) puts sqrt(2) into the field; flipping its sign
    # makes the form indefinite
    text = "n 2\nfacets 3\nedge 0 1 dashed sqrt(2)\nedge 1 2 3\nedge 0 2 3\n"
    rep = classify(gram_matrix(parse_diagram(text)))
    assert rep.field_generators == frozenset({2})
    assert rep.classification is Classification.NOT_QUASI_ARITHMETIC
    assert any("not definite" in w for w in rep.witnesses)


def test_classify_relabel_invariance():
    d = parse_diagram(POLYTOPE_5D)
    rng = random.Random(5)
    for _ in range(3):
        perm = list(range(d.facets))
        rng.shuffle(perm)
        rep = classify(gram_matrix(relabeled(d, perm)))
        assert rep.classification is Classification.PROPERLY_QUASI_ARITHMETIC
        assert rep.delta == 13


def test_det_exact():
    rows = [[MultiSurd(2), MultiSurd(1)], [MultiSurd(1), MultiSurd(1)]]
    eliminated, pivots = eliminate(rows)
    assert len(eliminated) == 2
    assert pivots[0] * pivots[1] == MultiSurd(1)
    rows = [[MultiSurd(1), MultiSurd(1)], [MultiSurd(1), MultiSurd(1)]]
    assert len(eliminate(rows)[0]) == 1

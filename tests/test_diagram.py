import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypvol.diagram import (
    CoxeterDiagram,
    GramMatrix,
    assert_lorentzian,
    eliminate,
    gram_matrix,
    inertia,
    parse_diagram,
    rescaled_form,
    signature,
)
from hypvol.errors import (
    BadWeight,
    DiagramSyntaxError,
    NotLorentzian,
    UnsupportedLabel,
)
from hypvol.polytopes import IDEAL_TRIANGLE, POLYTOPE_5D, POLYTOPE_7D
from hypvol.surd import MultiSurd, parse_surd
from oracles import relabeled


def test_parse_5d_polytope():
    d = parse_diagram(POLYTOPE_5D)
    assert d.dimension == 5
    assert d.facets == 8
    entries = list(d.edges.values())
    assert len(entries) == 9
    assert entries.count(-parse_surd("sqrt(26)/4")) == 2
    assert entries.count(MultiSurd(-1)) == 1
    assert entries.count(MultiSurd(Fraction(-1, 2))) == 6


def test_parse_unsupported_label():
    text = "n 2\nfacets 3\nedge 0 1 3\nedge 1 2 3\nedge 0 2 7\n"
    with pytest.raises(UnsupportedLabel):
        parse_diagram(text)


def test_parse_label_two_hints_right_angle():
    with pytest.raises(UnsupportedLabel, match="right angle"):
        parse_diagram("n 2\nfacets 3\nedge 0 1 2\n")


def test_parse_no_edges_is_valid():
    d = parse_diagram("n 2\nfacets 3\n")
    assert d.edges == {}
    G = gram_matrix(d)
    assert all(G[i, j] == (1 if i == j else 0) for i in range(3) for j in range(3))


@pytest.mark.parametrize("text", [
    "facets 3\nedge 0 1 3\n",                 # edge before headers
    "n 2\nfacets 3\nedge 0 3 3\n",            # index out of range
    "n 2\nfacets 3\nedge 0 0 3\n",            # self edge
    "n 2\nfacets 3\nedge 0 1 3\nedge 1 0 4\n",  # duplicate edge
    "n 2\nfacets 3\nedge 0 1\n",              # missing label
    "n two\nfacets 3\n",                      # bad integer
    "n 2\nfacets 3\nvertex 0 1 3\n",          # unknown directive
    "n 2\nfacets 3\nedge 0 1 frob\n",         # unknown label
    "n 2\n",                                  # missing facets
    "n 3\nfacets 4\nedge 0 1 3\nn 2\nfacets 3\n",  # repeated n, after a checked edge
    "n 2\nfacets 3\nfacets 4\n",              # repeated facets
    "n +2\nfacets 3\n",                      # integers are ASCII digits alone:
    "n 2\nfacets 0_3\n",                     # no sign, no underscore,
    "n 2\nfacets 3\nedge \u0660 \u0661 inf\n",  # no Arabic-Indic digits
    "n 2\nfacets 3\nedge 0 2 \uff13\n",       # and no fullwidth ones
])
def test_parse_syntax_errors(text):
    with pytest.raises(DiagramSyntaxError):
        parse_diagram(text)


@pytest.mark.parametrize("text, line", [
    ("n 5 6\nfacets 7\n", 1),                # would read as n = 5
    ("n 2\nfacets 3\nedge 0 1 3 4\n", 3),     # would read as label 3
])
def test_parse_rejects_trailing_tokens(text, line):
    with pytest.raises(DiagramSyntaxError, match=f"^line {line}: "):
        parse_diagram(text)


_LONG = "7" * 4300      # as many digits as int() takes


@pytest.mark.parametrize("line3, error, message", [
    (f"edge 0 1 x{_LONG}", DiagramSyntaxError, "unknown edge label"),
    (f"edge 0 1 3 {_LONG}", DiagramSyntaxError, "trailing tokens"),
    (f"facets 3 {_LONG}", DiagramSyntaxError, "trailing tokens"),
    (f"x{_LONG} 0 1 3", DiagramSyntaxError, "unknown directive"),
    (f"edge {_LONG} {_LONG} 3", DiagramSyntaxError, "self edge"),
    (f"edge 0 1 dashed {_LONG}x", BadWeight, "bad character"),
    (f"edge 0 1 dashed {_LONG} {_LONG}", BadWeight, "trailing tokens in surd literal"),
    (f"edge 0 1 dashed {_LONG}+", BadWeight, "unexpected end of surd literal"),
    (f"edge 0 1 dashed ({_LONG}", BadWeight, "unbalanced parentheses"),
    (f"edge 0 1 dashed sqrt {_LONG}", BadWeight, "sqrt needs parentheses"),
    (f"edge 0 1 dashed sqrt(-{_LONG})", BadWeight, "sqrt argument must be a positive"),
    (f"edge 0 1 dashed {_LONG}*)", BadWeight, "unexpected token"),
])
def test_messages_echo_a_bounded_excerpt_of_the_input(line3, error, message):
    with pytest.raises(error, match=f"^line 3: .*{message}") as info:
        parse_diagram(f"n 2\nfacets 3\n{line3}\n")
    assert len(str(info.value)) < 200
    assert "more characters]" in str(info.value)


def test_parse_bad_dashed_weights():
    with pytest.raises(BadWeight):
        parse_diagram("n 2\nfacets 3\nedge 0 1 dashed 1\n")
    with pytest.raises(BadWeight):
        parse_diagram("n 2\nfacets 3\nedge 0 1 dashed 1/2\n")
    with pytest.raises(BadWeight):
        parse_diagram("n 2\nfacets 3\nedge 0 1 dashed spam\n")
    for weight in ("\u0663", "\u00b2"):  # Arabic-Indic three, superscript two
        with pytest.raises(BadWeight, match="bad character"):
            parse_diagram(f"n 2\nfacets 3\nedge 0 1 dashed {weight}\n")


def test_comments_and_blank_lines():
    d = parse_diagram("# header\n\nn 2\nfacets 3\nedge 0 1 3  # angle pi/3\n")
    assert d.edges[(0, 1)] == MultiSurd(Fraction(-1, 2))


def test_gram_single_edge_label3():
    d = parse_diagram("n 2\nfacets 3\nedge 0 1 3\n")
    G = gram_matrix(d)
    assert G[0, 1] == MultiSurd(Fraction(-1, 2))
    assert G[1, 0] == G[0, 1]
    assert G[0, 2].is_zero()


def test_gram_exact_cosines():
    d = parse_diagram("n 3\nfacets 5\nedge 0 1 4\nedge 1 2 5\nedge 2 3 6\n"
                      "edge 3 4 inf\nedge 0 4 dashed 3/2\n")
    G = gram_matrix(d)
    assert G[0, 1] == parse_surd("-sqrt(2)/2")
    assert G[1, 2] == parse_surd("-1/4 - 1/4*sqrt(5)")
    assert G[2, 3] == parse_surd("-sqrt(3)/2")
    assert G[3, 4] == MultiSurd(-1)
    assert G[0, 4] == MultiSurd(Fraction(-3, 2))
    # a parsed diagram holds each edge's exact Gram entry
    assert len(d.edges) == 5
    assert all(d.edges[i, j] == G[i, j] for i, j in d.edges)


def test_gram_5d_entries():
    G = gram_matrix(parse_diagram(POLYTOPE_5D))
    w = parse_surd("sqrt(26)/4")
    assert G[0, 1] == -w
    assert G[4, 5] == -w
    assert G[0, 4] == MultiSurd(-1)


def test_gram_is_label_local():
    base = "n 2\nfacets 4\nedge 0 1 3\nedge 1 2 3\nedge 2 3 3\n"
    changed = base.replace("edge 1 2 3", "edge 1 2 4")
    G1 = gram_matrix(parse_diagram(base))
    G2 = gram_matrix(parse_diagram(changed))
    diffs = [(i, j) for i in range(4) for j in range(4) if G1[i, j] != G2[i, j]]
    assert sorted(diffs) == [(1, 2), (2, 1)]


def test_signature_identity():
    d = parse_diagram("n 2\nfacets 3\n")
    assert signature(gram_matrix(d)) == (3, 0, 0)


def test_signature_diag_plus_minus():
    G = GramMatrix(1, [[MultiSurd(1), MultiSurd(0)], [MultiSurd(0), MultiSurd(-1)]])
    assert signature(G) == (1, 1, 0)


def test_inertia_hyperbolic_pair():
    a = MultiSurd.sqrt(2)
    assert inertia([[MultiSurd(0), a], [a, MultiSurd(0)]]) == (1, 1, 0)


# elements of Q(sqrt 2, sqrt 5): integer combinations of 1, sqrt 2, sqrt 5, sqrt 10
field_elements = st.one_of(
    st.just(MultiSurd(0)),
    st.builds(lambda cs: MultiSurd(dict(zip((1, 2, 5, 10), cs))),
              st.lists(st.integers(-3, 3), min_size=4, max_size=4)),
)


@st.composite
def symmetric_surd_matrices(draw):
    """Symmetric 2x2 to 5x5 matrices; some with a zero diagonal, so the
    hyperbolic pivot runs at once, some with a unit border around a
    zero-diagonal block, so it runs after one pivot, and some with a
    repeated row, so they are singular."""
    size = draw(st.integers(2, 5))
    shape = draw(st.sampled_from(["full", "zero diagonal", "bordered"]))
    M = [[MultiSurd(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + int(shape != "full"), size):
            M[i][j] = M[j][i] = draw(field_elements)
    if shape == "bordered":
        # the congruence by I + e_0 t' of [[1, 0], [0, Z]]: the Schur
        # complement of the leading 1 is the zero-diagonal block Z again
        t = [draw(field_elements) for _ in range(size)]
        M[0][0] = MultiSurd(1)
        for i in range(1, size):
            M[0][i] = M[i][0] = t[i]
            for j in range(1, size):
                M[i][j] = M[i][j] + t[i] * t[j]
    if draw(st.booleans()):
        M[-1] = M[0][:]
        for i in range(size):
            M[i][-1] = M[i][0]
    return M


@settings(max_examples=150, deadline=None)
@given(symmetric_surd_matrices())
def test_elimination_kernel_against_floats(M):
    eliminated, pivots = eliminate(M)
    pos = sum(p.sign() > 0 for p in pivots)
    neg = sum(p.sign() < 0 for p in pivots)
    zero = len(M) - len(pivots)
    product = math.prod(pivots, start=MultiSurd(1))
    A = np.array([[float(e) for e in row] for row in M])
    assert pos + neg + zero == len(M)
    assert len(eliminated) == len(set(eliminated)) == pos + neg
    hadamard = np.prod([max(1.0, np.linalg.norm(row)) for row in A])
    det = float(product) if len(eliminated) == len(M) else 0.0
    assert abs(det - np.linalg.det(A)) <= 1e-9 * hadamard
    # the eliminated principal submatrix is nonsingular, with the pivot
    # product as its determinant
    assert not product.is_zero()
    sub = A[np.ix_(eliminated, eliminated)]
    assert abs(float(product) - np.linalg.det(sub)) <= 1e-9 * hadamard
    eig = np.linalg.eigvalsh(A)
    if np.all((np.abs(eig) < 1e-9) | (np.abs(eig) > 1e-6)):
        # eigenvalues well separated from zero: compare signs and rank
        nonzero = np.abs(eig) > 1e-6
        assert (pos, neg, zero) == (int((eig > 1e-6).sum()), int((eig < -1e-6).sum()),
                                    int((~nonzero).sum()))


def test_hyperbolic_pivots_after_a_pivot():
    # the ideal triangle's Gram matrix: after the leading 1 the Schur
    # complement is [[0, -2], [-2, 0]], pivoted as 2a = -4 and -a/2 = 1
    eliminated, pivots = eliminate(gram_matrix(parse_diagram(IDEAL_TRIANGLE)).entries)
    assert eliminated == [0, 1, 2]
    assert pivots == [MultiSurd(1), MultiSurd(-4), MultiSurd(1)]
    assert math.prod(pivots, start=MultiSurd(1)) == MultiSurd(-4)
    # a unit border around a zero-diagonal block, under a congruence: the
    # hyperbolic pair comes second and third, with pivot product -a^2
    r = MultiSurd.sqrt(2)
    M = [[MultiSurd(1), r, MultiSurd(1)],
         [r, MultiSurd(2), r + 3],
         [MultiSurd(1), r + 3, MultiSurd(1)]]
    eliminated, pivots = eliminate(M)
    assert eliminated == [0, 1, 2]
    assert pivots == [MultiSurd(1), MultiSurd(6), MultiSurd(Fraction(-3, 2))]
    assert inertia(M) == (2, 1, 0)


def test_signature_5d_with_float_oracle():
    G = gram_matrix(parse_diagram(POLYTOPE_5D))
    exact = signature(G)
    eig = np.linalg.eigvalsh(np.array([[float(G[i, j]) for j in range(8)] for i in range(8)]))
    oracle = (int((eig > 1e-9).sum()), int((eig < -1e-9).sum()),
              int((np.abs(eig) <= 1e-9).sum()))
    assert exact == oracle == (5, 1, 2)


def test_signature_7d():
    G = gram_matrix(parse_diagram(POLYTOPE_7D))
    assert signature(G) == (7, 1, 2)
    assert_lorentzian(G)


def test_signature_permutation_invariance():
    d = parse_diagram(POLYTOPE_5D)
    rng = random.Random(3)
    for _ in range(5):
        perm = list(range(8))
        rng.shuffle(perm)
        assert signature(gram_matrix(relabeled(d, perm))) == (5, 1, 2)


def test_relabeled_diagram_same_signature():
    d = parse_diagram(POLYTOPE_7D)
    rng = random.Random(11)
    perm = list(range(d.facets))
    rng.shuffle(perm)
    assert signature(gram_matrix(relabeled(d, perm))) == (7, 1, 2)


_SURD_LABELS = [None, None, None, None, "3", "4", "5", "6", "inf", "dashed 3/2",
                "dashed sqrt(2)", "dashed 1 + sqrt(5)", "dashed sqrt(6)", "dashed sqrt(26)/4"]


def test_signature_of_the_rescaled_form_matches_the_gram_inertia():
    # 2,000 seeded random surd diagrams of 3-6 facets, disconnected and
    # non-Lorentzian ones among them: the pivots of the rescaled form give
    # the inertia of a fresh elimination of G itself (Sylvester's law)
    rng = random.Random(23)
    disconnected = non_lorentzian = 0
    seen = set()
    for _ in range(2000):
        facets = rng.choice([3, 4, 5, 6])
        lines = ["n 2", f"facets {facets}"]
        lines += [f"edge {i} {j} {label}" for i in range(facets) for j in range(i + 1, facets)
                  if (label := rng.choice(_SURD_LABELS)) is not None]
        G = gram_matrix(parse_diagram("\n".join(lines)))
        sig = signature(G)
        assert sig == inertia(G.entries), lines
        forest = rescaled_form(G)[0]
        disconnected += sum(u < 0 for u in forest.values()) > 1
        non_lorentzian += sig[1] != 1
        seen.add(sig)
    assert disconnected >= 150 and non_lorentzian >= 400 and len(seen) >= 12


def test_assert_lorentzian_rejects_definite():
    d = parse_diagram("n 2\nfacets 3\n")
    with pytest.raises(NotLorentzian):
        assert_lorentzian(gram_matrix(d))


def test_diagram_validation():
    with pytest.raises(ValueError):
        CoxeterDiagram(1, 3, {})
    with pytest.raises(ValueError):
        CoxeterDiagram(2, 2, {})
    with pytest.raises(ValueError):
        CoxeterDiagram(2, 3, {(0, 5): MultiSurd(Fraction(-1, 2))})


def test_labels_parse_to_distinct_entries():
    # a finite label's entry lies in (-1, 0), inf's is -1 and a dashed one's
    # below -1, so the entry alone tells the labels apart
    labels = ["3", "4", "5", "6", "inf", "dashed 3", "dashed sqrt(2)"]
    parsed = [parse_diagram(f"n 2\nfacets 3\nedge 0 1 {label}").edges[0, 1] for label in labels]
    assert len(set(parsed)) == len(labels)
    assert all(-1 < float(e) < 0 for e in parsed[:4]) and parsed[4] == -1
    assert all(float(e) < -1 for e in parsed[5:])
    assert parse_diagram("n 2\nfacets 3\nedge 0 1 3") != parse_diagram(
        "n 2\nfacets 3\nedge 0 1 dashed 3")


@pytest.mark.parametrize("name, text", [
    ("ideal_triangle", IDEAL_TRIANGLE),
    ("polytope5d", POLYTOPE_5D),
    ("polytope7d", POLYTOPE_7D),
])
def test_bundled_diagram_files_match_the_constants(name, text):
    # the CLI and the README read the files; the library tests and the bench the constants
    path = Path(__file__).parents[1] / "diagrams" / f"{name}.diagram"
    assert parse_diagram(path.read_text(encoding="utf-8")) == parse_diagram(text)


def test_every_bundled_diagram_file_has_a_constant():
    # so the comparison above covers each file the README can point to
    folder = Path(__file__).parents[1] / "diagrams"
    assert sorted(path.stem for path in folder.glob("*.diagram")) == [
        "ideal_triangle", "polytope5d", "polytope7d"]

"""Field of definition and (quasi-)arithmeticity of a reflection group.

The reflection group of a Coxeter polytope embeds in the orthogonal group
of a quadratic form defined over the field K generated by the cyclic
products of doubled Gram entries.  The group is quasi-arithmetic when K is
totally real (automatic for surd entries) and every nontrivial Galois
conjugate of the form is definite, and arithmetic when additionally every
cyclic product is an algebraic integer.  Witnesses for each failed
condition are collected in the report.  The form is the Gram matrix
rescaled along a BFS spanning forest of the non-orthogonality graph, one
tree per component; ``diagram.GramMatrix`` builds and eliminates it.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple

from .diagram import GramMatrix
from .errors import DisconnectedGraph, TooLarge
from .surd import MultiSurd, prime_characters, product, squarefree_decompose

MAX_FACETS_FOR_CYCLES = 12
# simple cycles listed before ``TooLarge``: a dense diagram on 12 facets has
# millions; the densest one in the tests has 197 of length >= 3, and the
# complete graph on 8 facets 8,046 with its 2-cycles
MAX_CYCLES = 10_000
# simple paths the cycle search extends before ``TooLarge``: a facet joined
# to a dense part by one edge starts millions of paths that never close, all
# uncounted by ``MAX_CYCLES``; the complete graph on 8 facets extends 16,064
MAX_EXTENSIONS = 100_000
# largest |D| whose L-value the prediction evaluates: its cost grows linearly
# in |D|, and at this bound it takes about 1 s at the default context
MAX_DISCRIMINANT = 40_000


class CyclicProduct(NamedTuple):
    """Product of doubled Gram entries along a closed walk of facets; an
    immutable tuple.

    ``cycle`` lists the distinct vertices; the closing edge back to the
    first vertex is implicit.  A 2-cycle is just a doubled entry squared.
    """

    cycle: tuple[int, ...]
    value: MultiSurd


class QuadraticFormQ(NamedTuple):
    """Rescaled Gram restricted to a maximal-rank facet subset; an immutable
    tuple.

    Entries lie in the field of definition; for the polytopes in scope that
    field is Q and the matrix is rational.  ``pivots`` come from the one
    elimination that chose the basis; ``det`` is their product.
    """

    matrix: list[list[MultiSurd]]
    basis_facets: tuple[int, ...]
    pivots: list[MultiSurd]

    @property
    def det(self) -> MultiSurd:
        return product(*self.pivots)


class Classification(enum.Enum):
    ARITHMETIC = "arithmetic"
    PROPERLY_QUASI_ARITHMETIC = "properly quasi-arithmetic"
    NOT_QUASI_ARITHMETIC = "not quasi-arithmetic"


class ArithmeticityReport(NamedTuple):
    """What ``classify`` found; an immutable tuple."""

    field_generators: frozenset[int]
    delta: int | None
    classification: Classification
    witnesses: tuple[str, ...] = ()

    @property
    def field_is_rational(self) -> bool:
        return not self.field_generators

    @property
    def field_name(self) -> str:
        """``Q``, or ``Q(sqrt a, sqrt b, ...)`` over the generators."""
        roots = ", ".join(f"sqrt {g}" for g in sorted(self.field_generators))
        return f"Q({roots})" if roots else "Q"


def _check_connected(G: GramMatrix) -> None:
    """Raise DisconnectedGraph unless the rescaling forest is a single tree."""
    roots = [k for k, u in enumerate(G.forest.values()) if u < 0]
    if len(roots) > 1:  # BFS order: facet 0's tree comes first
        missing = sorted(list(G.forest)[roots[1]:])
        raise DisconnectedGraph(f"facets {missing} are orthogonal to the rest")


def check_facet_count(N: int) -> None:
    """Raise ``TooLarge`` past the exhaustive cycle enumeration's facet limit."""
    if N > MAX_FACETS_FOR_CYCLES:
        raise TooLarge(f"{N} facets exceeds the cycle enumeration limit "
                       f"{MAX_FACETS_FOR_CYCLES}")


def enumerate_cycles(G: GramMatrix) -> list[CyclicProduct]:
    """All simple cycles of the non-orthogonality graph, with their values.

    Exhaustive enumeration; guarded by the facet-count limit, by
    ``MAX_CYCLES`` and by ``MAX_EXTENSIONS`` on the search's simple paths,
    past which it raises ``TooLarge``, because both counts are exponential.
    Length-2 cycles (edge there and back) are included, so the output is
    nonempty for any connected graph.  A path's product is formed only when
    a cycle closes through it, so paths that never close multiply nothing.
    """
    N = G.size
    check_facet_count(N)
    adj = G.neighbours
    _check_connected(G)
    doubled = {}
    out = []
    for i in range(N):
        for j in adj[i]:
            if j > i:
                v = doubled[i, j] = doubled[j, i] = G[i, j] * 2
                out.append(CyclicProduct((i, j), v * v))
    # simple cycles of length >= 3, canonical: start at the smallest vertex,
    # orient so the second vertex is smaller than the last; values[k] is the
    # product along the path's first k + 1 edges, from its first edge's
    # doubled entry, formed only when a cycle closes and kept while it lasts
    extensions = 0
    for start in range(N):
        path, values = [start], []

        def dfs(u):
            nonlocal extensions
            for w in adj[u]:
                if w == start and len(path) >= 3:
                    if path[1] < path[-1]:
                        for k in range(len(values), len(path) - 1):
                            edge = doubled[path[k], path[k + 1]]
                            values.append(product(values[-1], edge) if k else edge)
                        out.append(CyclicProduct(tuple(path), product(values[-1], doubled[u, start])))
                        if len(out) > MAX_CYCLES:
                            raise TooLarge(f"the non-orthogonality graph has more than "
                                           f"{MAX_CYCLES} simple cycles")
                elif w > start and w not in path:
                    extensions += 1
                    if extensions > MAX_EXTENSIONS:
                        raise TooLarge(f"the cycle search extended more than "
                                       f"{MAX_EXTENSIONS} simple paths")
                    path.append(w)
                    dfs(w)
                    path.pop()
                    del values[len(path) - 1:]

        dfs(start)
    out.sort(key=lambda c: (len(c.cycle), c.cycle))
    return out


def field_of_definition(cycles: list[CyclicProduct]) -> frozenset[int]:
    """Squarefree radicands generating the field; empty set means Q."""
    gens: set[int] = set()
    for c in cycles:
        gens |= c.value.radicands()
    return frozenset(gens)


def rational_form(G: GramMatrix) -> QuadraticFormQ:
    """The rescaled form ``G.rescaled`` of a connected G on a basis of its span.

    The returned form is its nonsingular principal submatrix on the facets
    its one exact elimination pivots on, with that run's pivots, which are
    its own: no other facet is a pivot or enters the basis' Schur
    complements.  For a Lorentzian G it has rank n + 1, read off the
    signature.  Any two such bases of the span differ by a change of basis
    over K, so the discriminant class and the conjugate signatures do not
    depend on it.
    """
    _check_connected(G)
    basis = sorted(G.eliminated)
    return QuadraticFormQ([[G.rescaled[i][j] for j in basis] for i in basis], tuple(basis),
                          G.pivots)


def squarefree_class(x: Fraction) -> int:
    """Signed squarefree representative of nonzero x modulo squares."""
    v = x.numerator * x.denominator
    sign = 1 if v > 0 else -1
    s, _ = squarefree_decompose(abs(v))
    return sign * s


def discriminant_delta(F: QuadraticFormQ, n: int) -> int:
    """Signed squarefree class of (-1)^((n+1)/2) * det(F) for odd n.

    Only defined over Q, where F is rational.  Above n = 3 a nonuniform
    lattice forces the field of definition to be the rationals; in n = 3 it
    need not (the nonuniform [5,3,6] has field Q(sqrt 5)), and a group over
    Q may be cocompact.  In n = 3, det(F) < 0, so delta is always negative.
    """
    m = (n + 1) // 2
    return squarefree_class(Fraction((-1) ** m) * F.det.as_rational())


def _field_automorphisms(gens: frozenset[int]) -> list[tuple[frozenset[int], list[int]]]:
    """Nontrivial automorphisms of the multiquadratic field generated by gens.

    Each is a prime character paired with the generators whose square roots
    it negates; characters negating the same generators act alike on the
    field, and only the first of them is kept.
    """
    out: dict[tuple[int, ...], frozenset[int]] = {}
    for neg in prime_characters(gens):
        flips = tuple(g for g in sorted(gens) if sum(g % p == 0 for p in neg) % 2)
        if flips:
            out.setdefault(flips, neg)
    return [(neg, list(flips)) for flips, neg in out.items()]


def classify(G: GramMatrix) -> ArithmeticityReport:
    """Arithmeticity classification of the reflection group of G.

    Quasi-arithmetic iff the field of definition is totally real (always
    true here, radicands are positive) and every nontrivial conjugate of
    the rescaled form is definite, its signature read off the signs of the
    conjugated pivots; arithmetic iff additionally every cyclic product is
    an algebraic integer, which ``MultiSurd.is_integral`` decides.
    """
    cycles = enumerate_cycles(G)
    gens = field_of_definition(cycles)
    witnesses: list[str] = []

    form = rational_form(G)
    for primes, flips in _field_automorphisms(gens):
        pos = sum(p.conjugate_by_primes(primes).sign() > 0 for p in form.pivots)
        neg = len(form.pivots) - pos
        if pos and neg:
            witnesses.append(f"conjugate flipping sqrt of {flips} has signature "
                             f"({pos},{neg},0), not definite")
    quasi = not witnesses

    non_integral = [c for c in cycles if not c.value.is_integral()]
    witnesses += [f"cycle {c.cycle} has non-integral value {c.value}" for c in non_integral]
    cls = (Classification.NOT_QUASI_ARITHMETIC if not quasi
           else Classification.PROPERLY_QUASI_ARITHMETIC if non_integral
           else Classification.ARITHMETIC)

    odd_over_q = not gens and G.dimension % 2 == 1
    delta = discriminant_delta(form, G.dimension) if odd_over_q else None

    return ArithmeticityReport(
        field_generators=gens,
        delta=delta,
        classification=cls,
        witnesses=tuple(witnesses),
    )

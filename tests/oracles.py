"""Reference implementations that the tests check the pipeline against.

Each computes the same quantity as a pipeline function by a slower,
independent route: a truncated character series for Dirichlet L-values,
the full characteristic polynomial over all Galois conjugates for
algebraic integrality, a fresh elimination of every conjugated form
for the conjugate signatures, and every vertex sequence with each product
rebuilt from its edges for the cycles.
"""

import itertools
import math

import numpy as np

from hypvol.arithmeticity import (CyclicProduct, QuadraticFormQ, _field_automorphisms,
                                  nonorthogonality_graph)
from hypvol.diagram import inertia
from hypvol.lseries import FundamentalDiscriminant, kronecker_chi
from hypvol.surd import MultiSurd, prime_characters


def dirichlet_L_direct(s: int, D: FundamentalDiscriminant, terms: int = 10**6) -> float:
    """Truncated character series sum chi(n)/n^s.

    The tail after N terms is below |D| * N^(-s) by Abel summation, far
    inside any tolerance this is used with.
    """
    q = abs(D.D)
    table = np.array([kronecker_chi(D, n) for n in range(1, q + 1)], dtype=np.float64)
    n = np.arange(1, terms + 1, dtype=np.float64)
    chi = table[np.arange(terms) % q]
    return math.fsum(chi / n ** s)


def char_poly_is_integral(x: MultiSurd) -> bool:
    """Integrality via the characteristic polynomial of the conjugates.

    The monic product of (X - conjugate) over all prime sign patterns has
    rational coefficients; x is an algebraic integer iff they are integers.
    """
    if x.is_rational():
        return x.as_rational().denominator == 1
    conjugates = [x.conjugate_by_primes(neg) for neg in prime_characters(x.radicands())]
    # poly coefficients in MultiSurd arithmetic, constant term first
    poly = [MultiSurd(1)]
    for c in conjugates:
        nxt = [MultiSurd(0)] * (len(poly) + 1)
        for k, a in enumerate(poly):
            nxt[k] = nxt[k] - a * c
            nxt[k + 1] = nxt[k + 1] + a
        poly = nxt
    return all(a.is_rational() and a.as_rational().denominator == 1 for a in poly)


def conjugate_signatures(form: QuadraticFormQ, gens: frozenset[int]) -> list:
    """(flipped generators, inertia) for each nontrivial field automorphism.

    Conjugates every entry of the basis block and eliminates each
    conjugated matrix afresh.
    """
    out = []
    for primes, flips in _field_automorphisms(gens):
        conj = [[e.conjugate_by_primes(primes) for e in row] for row in form.matrix]
        out.append((flips, inertia(conj)))
    return out


def cycles_by_sequences(G) -> list[CyclicProduct]:
    """Every simple cycle of the non-orthogonality graph, with its value.

    Tries each vertex sequence that starts at its smallest vertex with the
    second vertex below the last, keeps those whose consecutive vertices
    (and last and first) are joined, and multiplies the doubled Gram entries
    of its edges afresh.  Length-2 cycles are the edges, valued (2 g)^2.
    """
    adj = nonorthogonality_graph(G)
    out = []
    for start in range(G.size):
        for k in range(1, G.size - start):
            for rest in itertools.permutations(range(start + 1, G.size), k):
                cycle = (start,) + rest
                if k > 1 and rest[0] > rest[-1]:
                    continue
                edges = list(zip(cycle, cycle[1:] + (start,)))
                if all(b in adj[a] for a, b in edges):
                    value = MultiSurd(1)
                    for a, b in edges:
                        value = value * (G[a, b] * 2)
                    out.append(CyclicProduct(cycle, value))
    out.sort(key=lambda c: (len(c.cycle), c.cycle))
    return out

"""Reference implementations that the tests check the pipeline against.

Each computes the same quantity as a pipeline function by a slower,
independent route: a truncated character series for Dirichlet L-values,
the Euler-Maclaurin sum for Hurwitz zeta values in mpmath floating point
and in fixed point with the tail summed term by term,
the full characteristic polynomial over all Galois conjugates for
algebraic integrality, a fresh elimination of every conjugated form
for the conjugate signatures, every vertex sequence with each product
rebuilt from its edges for the cycles, a scan of every smooth
denominator for the recognition window, and a full elimination of every
candidate's principal Gram submatrix for the face census.  Besides them:
a GF(2) solver for field membership of square roots, facet relabeling of
a diagram, the points of a fan simplex, ``facet_tuple`` and
``census_tuples``, which spell the geometry's bitmask facet sets as
ascending tuples, and ``as_mpf``, which turns the pipeline's exact values
into mpfs for the tests' mpmath comparisons.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from mpmath import mp

from hypvol.arithmeticity import CyclicProduct, QuadraticFormQ, _field_automorphisms
from hypvol.diagram import CoxeterDiagram, inertia
from hypvol.geometry import census
from hypvol.lseries import _EM_TERMS, PrecisionContext, _em_tail, bernoulli_fraction, kronecker_chi
from hypvol.prediction import RECOGNITION_MAX_NUMERATOR, _smooth_denominators
from hypvol.surd import MultiSurd, prime_characters, prime_factors


def as_mpf(x):
    """x, an int, a Fraction or a MultiSurd, as an mpf at the working
    precision; a MultiSurd term by term, each coefficient in lowest terms
    times its square root."""
    if isinstance(x, MultiSurd):
        return mp.fsum(as_mpf(Fraction(c, x._den)) * mp.sqrt(r)
                       for r, c in sorted(x._nums.items()))
    x = Fraction(x)
    return mp.mpf(x.numerator) / x.denominator


def dirichlet_L_direct(s: int, D: int, terms: int = 10**6) -> float:
    """Truncated character series sum chi(n)/n^s.

    The tail after N terms is below |D| * N^(-s) by Abel summation, far
    inside any tolerance this is used with.
    """
    q = abs(D)
    table = np.array([kronecker_chi(D, n) for n in range(1, q + 1)], dtype=np.float64)
    n = np.arange(1, terms + 1, dtype=np.float64)
    chi = table[np.arange(terms) % q]
    return math.fsum(chi / n ** s)


def em_cutoff(s: int, a: Fraction, ctx: PrecisionContext) -> int:
    """The Euler-Maclaurin cutoff M of ``lseries.hurwitz_zeta``: doubled from
    16 until the remainder bound 2 |B_(2J+2)|/(2J+2)! (s)_(2J+1)
    (M + a)^(-s-2J-1) is below half of ctx.target_error."""
    J = _EM_TERMS
    pochhammer = math.prod(range(s, s + 2 * J + 1))
    coeff = 2.0 * float(abs(bernoulli_fraction(2 * J + 2))) / math.factorial(2 * J + 2) * pochhammer
    M = 16
    while coeff * float(M + a) ** (-(s + 2 * J + 1)) > float(ctx.target_error) / 2:
        M *= 2
    return M


def hurwitz_zeta_mpf(s: int, a: Fraction, ctx: PrecisionContext):
    """zeta(s, a) by the Euler-Maclaurin sum in mpf arithmetic.

    The same cutoff M, J Bernoulli terms and remainder bound as
    ``lseries.hurwitz_zeta``, but every term and tail coefficient is an
    mpf at ``ctx.workprec()`` bits, so rounding is relative to the running
    sum rather than fixed point.
    """
    J = _EM_TERMS
    M = em_cutoff(s, a, ctx)
    with mp.workprec(ctx.workprec()):
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
            total += mp.mpf(b.numerator) / b.denominator / math.factorial(2 * j) * rising * term_pow
            rising *= (s + 2 * j - 1) * (s + 2 * j)
            term_pow /= x * x
        return +total


def hurwitz_zeta_termwise(s: int, a: Fraction, ctx: PrecisionContext):
    """zeta(s, a) by the integer fixed-point Euler-Maclaurin sum with the
    tail term by term.

    The same cutoff, head and exact tail coefficients as
    ``lseries.hurwitz_zeta``, but each tail term c_m (M + a)^(-m) is one
    floor division of num(c_m) q^m 2^wp by den(c_m) (M q + p)^m, so with
    J Bernoulli terms rounding adds less than (M + J + 2) 2^-wp.
    """
    M = em_cutoff(s, a, ctx)
    wp = ctx.workprec()
    p, q = a.numerator, a.denominator
    scaled = q ** s << wp
    total = sum(scaled // (k * q + p) ** s for k in range(M))
    X = M * q + p
    for m, c in _em_tail(s)[0]:
        total += (c.numerator * q ** m << wp) // (c.denominator * X ** m)
    return mp.ldexp(total, -wp)


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
    adj = G.neighbours
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


def smooth_candidates_by_scan(x: Fraction, err: Fraction) -> list[Fraction]:
    """Every p/q within err of x, p = round(x q) in 1..the numerator cap,
    found by trying each smooth denominator q in turn."""
    found = set()
    for q in _smooth_denominators():
        p = round(x * q)
        if 0 < p <= RECOGNITION_MAX_NUMERATOR and abs(x - Fraction(p, q)) <= err:
            found.add(Fraction(p, q))
    return sorted(found)


def solve_gf2(rows: list[tuple[int, int]]) -> int | None:
    """Solve a GF(2) linear system given as (bitmask, rhs) rows.

    Returns one solution as a bitmask (free variables set to 0), or None.
    Pivot rows are keyed by their leading bit, so reduction always clears
    the current leading bit and terminates.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for vec, rhs in rows:
        while vec:
            col = vec.bit_length() - 1
            if col not in pivots:
                pivots[col] = (vec, rhs)
                break
            pvec, prhs = pivots[col]
            vec ^= pvec
            rhs ^= prhs
        else:
            if rhs:
                return None
    sol = 0
    for col in sorted(pivots):  # ascending: lower bits of each row are resolved
        vec, rhs = pivots[col]
        acc = rhs
        low = vec & ((1 << col) - 1)
        while low:
            j = low.bit_length() - 1
            acc ^= sol >> j & 1
            low ^= 1 << j
        if acc:
            sol |= 1 << col
    return sol


def field_contains(radicand: int, gens: frozenset[int]) -> bool:
    """Is sqrt(radicand) in the multiquadratic field generated by gens?

    Square classes form a GF(2) vector space with primes as coordinates;
    sqrt(radicand) lies in the field iff its prime support is a sum of
    generator supports: one equation per prime, one unknown per generator.
    """
    gens = sorted(gens)
    primes = {p for r in (radicand, *gens) for p in prime_factors(r)}
    rows = [(sum(1 << i for i, g in enumerate(gens) if g % p == 0), int(radicand % p == 0))
            for p in primes]
    return solve_gf2(rows) is not None


def census_by_inertia(G):
    """``geometry.census`` with the inertia of every candidate's principal
    Gram submatrix eliminated afresh: a k-set is elliptic iff its
    (k-1)-subsets are and its inertia is (k, 0, 0), an ideal vertex's first
    n-set has inertia (n - 1, 0, 1), and it merges into a parabolic set
    while the union keeps rank n - 1 with no negative part.  Such an n-set
    T has a kernel vector k, its candidate vertex is v = sum k_i e_i, and
    for j outside T, G[T + j] is singular iff <v, e_j> = 0.  When that
    holds for every facet, v = 0, as the normals span, and T is no ideal
    vertex: on a disconnected graph, T's singular component can be a whole
    component of the graph."""
    n, N = G.dimension, G.size

    def sub_inertia(S):
        return inertia([[G[i, j] for j in S] for i in S])

    faces = [[()]]
    for k in range(1, n + 1):
        below = set(faces[-1])
        faces.append([S + (j,) for S in faces[-1] for j in range(S[-1] + 1 if S else 0, N)
                      if all(S[:i] + S[i + 1:] + (j,) in below for i in range(k - 1))
                      and sub_inertia(S + (j,)) == (k, 0, 0)])
    finite = set(faces[n])
    cusps = []
    for T in itertools.combinations(range(N), n):
        if T in finite or any(set(T) <= set(P) for _, P in cusps):
            continue
        if sub_inertia(T) != (n - 1, 0, 1):
            continue
        if all(sub_inertia(tuple(sorted({*T, j})))[2] for j in range(N) if j not in T):
            continue
        for c, (first, P) in enumerate(cusps):
            U = tuple(sorted({*P, *T}))
            if sub_inertia(U) == (n - 1, 0, len(U) - n + 1):
                cusps[c] = (first, U)
                break
        else:
            cusps.append((T, T))
    return faces, cusps


def facet_tuple(S: int) -> tuple[int, ...]:
    """The facets of the bitmask facet set S (bit j is facet j), ascending."""
    return tuple(j for j in range(S.bit_length()) if S >> j & 1)


def census_tuples(G):
    """``geometry.census`` with every facet set an ascending tuple, the
    form ``census_by_inertia`` returns."""
    faces, cusps = census(G)
    return ([[facet_tuple(S) for S in level] for level in faces],
            [(facet_tuple(T), facet_tuple(P)) for T, P in cusps])


def relabeled(diagram: CoxeterDiagram, perm: list[int]) -> CoxeterDiagram:
    """The diagram with facet i renamed to perm[i]."""
    edges = {}
    for (i, j), label in diagram.edges.items():
        a, b = perm[i], perm[j]
        edges[min(a, b), max(a, b)] = label
    return CoxeterDiagram(diagram.dimension, diagram.facets, edges)


def simplex_points(kp, simplex: list[int]) -> np.ndarray:
    """The (n + 1, n) points of a simplex of the Klein fan, -1 the origin."""
    return np.array([kp.vertices[k] if k >= 0 else np.zeros(kp.dimension) for k in simplex])

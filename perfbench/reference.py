"""Reference values computed without any hypvol code.

The two bundled polytopes satisfy vol(P) = q * T with T = |D|^(n/2) L(m, chi_D)
(source paper, and the bundled README): P5 with D = 13, m = 3, q = 1/23040 and
P7 with D = -11, m = 4, q = 1/23224320.  The L-values come from
``mpmath.dirichlet`` over the Legendre symbol tables mod 13 and mod 11
(chi_-11(a) = (a/11) by quadratic reciprocity), so they share no code with
``hypvol.lseries``.  The ideal triangle has area pi.

Signatures are checked numerically from a float Gram matrix the harness builds
from the diagram text itself, independent of ``hypvol.diagram``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp

# the volume literal printed in the bundled README for the 5D polytope
README_VOL5 = "0.0241330687945822699990"
DIGITS = 50


@dataclass(frozen=True)
class Expected:
    """What a correct report says about one base diagram."""

    signature: tuple[int, int, int]
    classification: str
    delta: int | None
    fraction: Fraction | None       # None: no prediction applies (even dimension)
    volume: mpmath.mpf


def _legendre_table(p: int) -> list[int]:
    return [0] + [1 if pow(a, (p - 1) // 2, p) == 1 else -1 for a in range(1, p)]


def _volume(n: int, modulus: int, q: Fraction) -> mpmath.mpf:
    m = (n + 1) // 2
    with mp.workdps(DIGITS + 10):
        L = mpmath.dirichlet(m, _legendre_table(modulus))
        T = mp.mpf(modulus) ** (mp.mpf(n) / 2) * L
        return +(T * q.numerator / q.denominator)


def expected_table() -> dict[str, Expected]:
    """Reference outputs for the three base diagrams of the benchmark."""
    with mp.workdps(DIGITS):
        vol5 = _volume(5, 13, Fraction(1, 23040))
        vol7 = _volume(7, 11, Fraction(1, 23224320))
        if abs(vol5 - mp.mpf(README_VOL5)) > mp.mpf(10) ** -22:
            raise RuntimeError(f"reference vol(P5) {vol5} disagrees with {README_VOL5}")
        return {
            "5d": Expected((5, 1, 2), "properly quasi-arithmetic", 13,
                           Fraction(1, 23040), vol5),
            "7d": Expected((7, 1, 2), "properly quasi-arithmetic", -11,
                           Fraction(1, 23224320), vol7),
            # (inf, inf, inf) triangle group: cycle products 4 and -8, arithmetic over Q
            "triangle": Expected((2, 1, 0), "arithmetic", None, None, +mp.pi),
        }


def float_gram(diagram_text: str) -> list[list[float]]:
    """Gram matrix of a diagram file, parsed here with floats."""
    size = 0
    edges = []
    for raw in diagram_text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "facets":
            size = int(parts[1])
        elif parts[0] == "edge":
            i, j, label = int(parts[1]), int(parts[2]), parts[3:]
            if label == ["inf"]:
                value = -1.0
            elif label[0] == "dashed":
                value = -_surd_float(label[1])
            else:
                value = -math.cos(math.pi / int(label[0]))
            edges.append((i, j, value))
    G = [[1.0 if i == j else 0.0 for j in range(size)] for i in range(size)]
    for i, j, v in edges:
        G[i][j] = G[j][i] = v
    return G


def _surd_float(text: str) -> float:
    """Value of a literal of the form sqrt(D)/k, the only dashed weights used here."""
    root, _, den = text.partition("/")
    if not root.startswith("sqrt(") or not root.endswith(")"):
        raise ValueError(f"unsupported dashed weight {text!r}")
    return math.sqrt(int(root[5:-1])) / (int(den) if den else 1)


def numeric_signature(diagram_text: str, tol: float = 1e-9) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of the float Gram matrix."""
    with mp.workdps(30):
        eig = mp.eigsy(mp.matrix(float_gram(diagram_text)), eigvals_only=True)
        vals = [float(e) for e in eig]
    return (sum(v > tol for v in vals), sum(v < -tol for v in vals),
            sum(abs(v) <= tol for v in vals))

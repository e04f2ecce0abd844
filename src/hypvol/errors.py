"""Exception types shared across the pipeline."""

EXCERPT_LIMIT = 40     # characters of input a message echoes


def excerpt(value) -> str:
    """repr(value) for a message that echoes input: at most EXCERPT_LIMIT
    characters of it, and a mark saying how many more were cut."""
    text = repr(value)
    if len(text) <= EXCERPT_LIMIT:
        return text
    return f"{text[:EXCERPT_LIMIT]}... [{len(text) - EXCERPT_LIMIT} more characters]"


class HypvolError(Exception):
    """Base class for all errors raised by this package."""


class BadOption(HypvolError, ValueError):
    """An option of ``analyze`` or a field of ``PrecisionContext`` is of the
    wrong kind, out of range, or given without its partner; a ValueError
    too, for callers that catch that."""


class DiagramSyntaxError(HypvolError):
    """Malformed line in a diagram file."""


class UnsupportedLabel(HypvolError):
    """Finite edge label outside the supported set {3, 4, 5, 6}."""


class BadWeight(HypvolError):
    """Dashed edge weight that is not a surd greater than 1."""


class DisconnectedGraph(HypvolError):
    """The non-orthogonality graph of the Gram matrix is not connected."""


class TooLarge(HypvolError):
    """Input exceeds a fixed guard.

    The facet count exceeds the exhaustive cycle enumeration's limit, the
    enumeration finds more than ``MAX_CYCLES`` simple cycles or extends more
    than ``MAX_EXTENSIONS`` simple paths (both in ``arithmeticity``), an
    integer from the input has a cofactor too large to factor by trial
    division, or a Gram entry, such as a dashed weight of 10^400, exceeds
    the float64 range of the geometry.
    """


class NotLorentzian(HypvolError):
    """Gram matrix does not have signature (n, 1) plus a zero part."""


class NoVertices(HypvolError):
    """Vertex enumeration produced nothing; input is unbounded or invalid."""


class TriangulationFailure(HypvolError):
    """A facet could not be triangulated by the recursive fan."""


class NonConvergent(HypvolError):
    """A truncation could not meet its error target.

    A cusp's radial integral diverges because a base vertex touches the
    sphere at its ideal point, or a vertex taken as finite lies outside the
    ball; the cubature's changes did not shrink by half twice within the
    node cap; or the Euler-Maclaurin cutoff of a zeta or L-value outgrew
    its cap.
    """

"""Arithmeticity and volume analysis for hyperbolic Coxeter polytopes.

Given a Coxeter diagram of a finite-volume hyperbolic polytope, this package
computes the exact Gram matrix, decides (quasi-)arithmeticity of the
associated reflection group, evaluates the number-theoretic factor that its
covolume must be a rational multiple of, integrates the hyperbolic volume
numerically in the Klein model, and recognizes the rational multiplier.

The package exports the pipeline, ``analyze``, its ``AnalysisReport`` and
the ``PrecisionContext`` of its L-values; each stage is a module of its own.
"""

from .lseries import PrecisionContext
from .prediction import AnalysisReport, analyze

__version__ = "0.1.0"

__all__ = ["AnalysisReport", "PrecisionContext", "analyze", "__version__"]

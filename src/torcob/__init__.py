"""Exact torus-equivariant cobordism calculator with rational coefficients.

Layers, bottom up: ``coeff`` (the rationalized Lazard ring), ``series``
(graded truncated power series), ``fgl`` (the universal formal group law),
``torus`` (S(T), characters, Chern-class division), ``gkm`` (moment graphs,
localization, Bott residues), ``flag`` (GL_n coinvariants), ``exprs``/``cli``
(front end), ``accept`` (the acceptance battery behind ``torcob selftest``).
Every exact product runs through ``kernels``.
"""

from torcob.coeff import GradedCoeff
from torcob.errors import (
    Ambiguous,
    GraphInvalid,
    NoSolution,
    NotAClass,
    NotDivisible,
    NotInvertible,
    TorcobError,
    TruncationInsufficient,
    VariableMismatch,
    ZeroCharacter,
)
from torcob.fgl import FGLContext, build
from torcob.gkm import GKMGraph, PiecewiseClass
from torcob.series import TruncSeries
from torcob.torus import TorusContext

__all__ = [
    "GradedCoeff",
    "TruncSeries",
    "FGLContext",
    "TorusContext",
    "GKMGraph",
    "PiecewiseClass",
    "build",
    "TorcobError",
    "VariableMismatch",
    "NotDivisible",
    "NotInvertible",
    "TruncationInsufficient",
    "ZeroCharacter",
    "NotAClass",
    "NoSolution",
    "Ambiguous",
    "GraphInvalid",
]

__version__ = "0.1.0"

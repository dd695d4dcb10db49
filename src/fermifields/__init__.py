"""fermifields: Grassmann functionals for lattice fermion fields.

A desk-scale toolkit for classical anticommuting field theory and its
deformation quantization: a sparse finite-generator exterior algebra
with graded derivatives, discrete Dirac dynamics with retarded and
advanced Green's kernels, Peierls brackets, intertwining (Møller) maps
as truncated coupling series, the Gross-Neveu interacting propagator as
a terminating series, and star products with time ordering and a formal
S-matrix.  Every graded-algebra identity is machine-checkable, exactly
in rational arithmetic.
"""

from ._core import BACKEND
from .algebra import (Algebra, Configuration, GeneratorId, GrassmannElement,
                      evaluate, left_derivative)
from .lattice import (DiracOperator, FieldLattice, Lattice, causal_propagator,
                      dirac_green, kg_green)
from .series import FormalSeries, HbarSeries, TruncatedSeries

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "Algebra", "Configuration", "GeneratorId", "GrassmannElement",
    "left_derivative", "evaluate",
    "Lattice", "FieldLattice", "DiracOperator", "kg_green", "dirac_green",
    "causal_propagator", "FormalSeries", "TruncatedSeries", "HbarSeries",
    "__version__",
]

"""Perron-Frobenius block theory for reducible non-negative integer
matrices, with applications to expanding substitutions: normalized-iterate
limits, principal eigenvectors, blow-up substitutions, factor frequencies,
and shift-invariant measures on substitution subshifts."""

import types as _types

from .errors import (
    FloatRangeError,
    ImageOverflowError,
    MaxIterError,
    NotExpandingError,
    NotPBFrobeniusError,
    NotPrincipalError,
    ParseError,
    SingularSystemError,
    SubperronError,
    ZeroColumnError,
)
from .frequencies import (
    FrequencyTable,
    KirchhoffReport,
    factor_frequencies,
    frequency_table,
    growth_rate,
    kirchhoff_check,
    letter_frequencies,
    measure_cylinder,
)
from .matrices import (
    BlockClass,
    BlockDecomposition,
    ExactMatrix,
    is_expanding,
    is_power_bounded,
    is_primitive,
    load_matrix,
    parse_matrix,
    pb_frobenius_power,
    primitive_frobenius_power,
    scc_blocks,
)
from .spectral import (
    ConvergenceReport,
    GrowthType,
    PrincipalEigenvector,
    block_eigenvalues,
    classify_limit_case,
    dominant_interior_contains,
    eigencone_membership,
    growth_type,
    normalized_limit,
    pf_eigen_block,
    power_eigenvector_lift,
    principal_blocks,
    principal_eigenvector,
    trajectory_growth,
)
from .words import (
    Alphabet,
    FactorAlphabet,
    Substitution,
    blow_up,
    factor_alphabet,
    is_expanding_subst,
    load_substitution,
    parse_substitution,
    stabilizing_power,
)

__version__ = "0.1.0"

#: the public names imported above, each written once
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _types.ModuleType))

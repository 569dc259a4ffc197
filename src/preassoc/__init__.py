"""Preassociative and associative variadic functions over finite chains.

Exhaustive axiom checkers, quasi-inverse machinery, factorization through
associative operations, and constructors for the classical generated
families (quasi-sums, t-norms, Ling-type operations, medians on chains).
"""

from .core import (
    ABS_TOL,
    EPSILON,
    REL_TOL,
    Chain,
    GeneratedFn,
    Interval,
    TableFn,
    Verdict,
    Witness,
    canonical_symbol,
    ranges,
    tabulate,
)
from .errors import (
    ArityError,
    AxiomError,
    ConditionError,
    DomainMismatchError,
    FunctionFileError,
    GeneratorError,
    GridClosureError,
    InternalVerificationError,
    NotAnOperationError,
    PinError,
    PreassocError,
    PreconditionError,
    UnknownSymbolError,
)

__version__ = "0.1.0"

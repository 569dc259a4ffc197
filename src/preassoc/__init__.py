"""Preassociative and associative variadic functions over finite chains.

Exhaustive axiom checkers, quasi-inverse machinery, factorization through
associative operations, and constructors for the classical generated
families (quasi-sums, t-norms, Ling-type operations, medians on chains).
"""

from .core import EPSILON, Chain, TableFn, Verdict, Witness, canonical_symbol, ranges
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
from .families import ABS_TOL, REL_TOL, GeneratedFn, Interval, tabulate

__version__ = "0.1.0"

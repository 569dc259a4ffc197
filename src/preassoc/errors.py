"""Exception types shared across the package."""


class PreassocError(Exception):
    """Base class for the package's refusals of a faulty input."""


class ArityError(PreassocError):
    """Tuple longer than the table's max arity."""


class UnknownSymbolError(PreassocError):
    """Tuple contains a symbol outside the declared domain."""


class NotAnOperationError(PreassocError):
    """The check needs values that stay inside the domain, but the codomain leaves it."""


class DomainMismatchError(PreassocError):
    """Quasi-inverse candidates whose domains and ranges do not line up."""


class PinError(PreassocError):
    """A pin names a pair (y, x) with f(x) != y, or repeats a y."""


class GeneratorError(PreassocError):
    """A generator function (phi, psi, f) or its interval failed grid validation."""


class GridClosureError(PreassocError):
    """The binary operation leaves the finite grid it must be tabulated on."""


class AxiomError(PreassocError):
    """A defining axiom of a named operation family failed on the carrier."""

    def __init__(self, axiom, message, witness=None):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class ConditionError(PreassocError):
    """A numbered existence condition failed; carries the violating instance."""

    def __init__(self, condition, message, witness=None):
        super().__init__(message)
        self.condition = condition
        self.witness = witness


class PreconditionError(PreassocError):
    """A factorization precondition failed; carries the failing Verdict."""

    def __init__(self, verdict, message):
        super().__init__(message)
        self.verdict = verdict


class InternalVerificationError(RuntimeError):
    """Re-verification of a freshly constructed object failed: a library bug, so
    not a ``PreassocError``, which the CLI reports as an input error (exit 2)."""


class FunctionFileError(PreassocError):
    """A function file failed to parse or validate."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field

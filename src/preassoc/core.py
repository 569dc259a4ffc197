"""Finite chains, variadic function tables, and generated real-interval families.

A variadic function maps tuples of every length 0..N over a finite chain to a
codomain value.  The empty tuple maps to a distinguished default; a sentinel
``EPSILON`` marks the "no value" default of operation-like functions and is
kept outside every chain so that tuple-emptiness and value-emptiness never
collide.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import ArityError, GeneratorError, UnknownSymbolError

#: Package-wide float comparison tolerances, applied symmetrically.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def close(u: float, v: float) -> bool:
    """Symmetric float equality at the package tolerances."""
    return math.isclose(u, v, rel_tol=REL_TOL, abs_tol=ABS_TOL)


class _EpsilonMarker:
    """Singleton sentinel for the empty-tuple value; never a chain symbol."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ε"

    def __reduce__(self):
        # unpickling (e.g. across worker processes) must return the singleton
        return (_EpsilonMarker, ())


EPSILON = _EpsilonMarker()


@dataclass(frozen=True)
class Chain:
    """A finite totally ordered set of symbols; listing order is the order."""

    elements: tuple
    _index: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        elems = tuple(self.elements)
        object.__setattr__(self, "elements", elems)
        if not elems:
            raise ValueError("a chain needs at least one element")
        index = {}
        for i, e in enumerate(elems):
            if e is EPSILON:
                raise ValueError("the ε marker cannot be a chain element")
            if e in index:
                raise ValueError(f"duplicate chain element {e!r}")
            index[e] = i
        object.__setattr__(self, "_index", index)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, symbol):
        return symbol in self._index

    def index(self, symbol):
        try:
            return self._index[symbol]
        except KeyError:
            raise UnknownSymbolError(f"symbol {symbol!r} is not in the chain") from None

    def leq(self, u, v) -> bool:
        return self.index(u) <= self.index(v)

    def meet(self, u, v):
        return u if self.index(u) <= self.index(v) else v

    def join(self, u, v):
        return u if self.index(u) >= self.index(v) else v

    def med(self, u, v, w):
        """Ternary median: the middle element of the three under the chain order."""
        return sorted((u, v, w), key=self.index)[1]

    def min_of(self, symbols):
        return min(symbols, key=self.index)

    def max_of(self, symbols):
        return max(symbols, key=self.index)

    def successor(self, u):
        """The next-larger element, or None at the top."""
        i = self.index(u)
        return self.elements[i + 1] if i + 1 < len(self.elements) else None

    @property
    def bottom(self):
        return self.elements[0]

    @property
    def top(self):
        return self.elements[-1]

    def tuples(self, length: int) -> Iterator[tuple]:
        """All tuples of exactly the given length, in lexicographic order."""
        return product(self.elements, repeat=length)

    def tuples_up_to(self, max_length: int) -> Iterator[tuple]:
        """All tuples of lengths 0..max_length, shortest first, lexicographic."""
        for n in range(max_length + 1):
            yield from product(self.elements, repeat=n)


@dataclass(frozen=True)
class Witness:
    """A minimal counterexample: named tuples, named values, optional scalars."""

    parts: tuple  # ((name, tuple-of-symbols), ...)
    values: tuple  # ((name, symbol-or-EPSILON), ...)
    scalars: tuple = ()  # ((name, int), ...)
    note: str = ""

    def part(self, name):
        for k, v in self.parts:
            if k == name:
                return v
        raise KeyError(name)

    def value(self, name):
        for k, v in self.values:
            if k == name:
                return v
        raise KeyError(name)

    def scalar(self, name):
        for k, v in self.scalars:
            if k == name:
                return v
        raise KeyError(name)

    def describe(self) -> str:
        bits = ["%s=%s" % (k, "(" + ",".join(map(str, t)) + ")") for k, t in self.parts]
        bits += ["%s=%s" % (k, v) for k, v in self.scalars]
        bits += ["%s=%s" % (k, v) for k, v in self.values]
        text = " ".join(bits)
        return f"{text} [{self.note}]" if self.note else text


@dataclass(frozen=True)
class Verdict:
    """Outcome of one property check over a truncated tuple universe."""

    property: str
    holds: bool
    cases_checked: int
    witness: Optional[Witness]
    max_arity: int
    extra: tuple = ()  # ((key, value), ...) checker-specific annotations

    def __post_init__(self):
        if self.holds != (self.witness is None):
            raise ValueError("holds must be True exactly when there is no witness")

    def __bool__(self):
        return self.holds


@dataclass(frozen=True)
class TableFn:
    """A truncated variadic function: a total table on tuples of length 0..N.

    ``default`` is the value of the empty tuple; it may be the EPSILON marker.
    ``entries`` holds the tuples of length 1..N; the table copies the mapping
    it is given and exposes the copy read-only.  ``codomain`` is an ordered
    listing of the admissible entry values; its listing order is the codomain
    order used by monotonicity and convexity checks.  Within the package,
    ``_table`` is the one total table of every tuple, ε included, that
    evaluation and the checkers read.
    """

    domain: Chain
    codomain: tuple
    max_arity: int
    default: object
    entries: Mapping
    _table: dict = field(init=False, repr=False, compare=False)

    __hash__ = None  # equal by value, but the entries are not hashable

    def __post_init__(self):
        codomain = tuple(self.codomain)
        object.__setattr__(self, "codomain", codomain)
        entries = dict(self.entries)
        if self.max_arity < 1:
            raise ValueError("max_arity must be at least 1")
        if len(set(codomain)) != len(codomain) or not codomain:
            raise ValueError("codomain must be a nonempty list of distinct symbols")
        values = set(codomain)
        if self.default is not EPSILON and self.default not in values:
            raise ValueError(f"default {self.default!r} is not in the codomain")
        dom = set(self.domain.elements)
        expected = sum(len(dom) ** n for n in range(1, self.max_arity + 1))
        if len(entries) != expected:
            raise ValueError(
                f"entries not total: expected {expected} tuples for arities "
                f"1..{self.max_arity}, found {len(entries)}"
            )
        for key, value in entries.items():
            if not 1 <= len(key) <= self.max_arity:
                raise ValueError(f"entry arity {len(key)} outside 1..{self.max_arity}")
            for s in key:
                if s not in dom:
                    raise UnknownSymbolError(f"entry tuple uses unknown symbol {s!r}")
            if value not in values:
                raise ValueError(f"entry value {value!r} is not in the codomain")
        object.__setattr__(self, "entries", MappingProxyType(entries))
        object.__setattr__(self, "_table", {(): self.default, **entries})

    def __reduce__(self):
        # a mapping proxy does not pickle; rebuild from a plain copy
        return (
            TableFn,
            (self.domain, self.codomain, self.max_arity, self.default, dict(self.entries)),
        )

    def eval(self, args: Sequence) -> object:
        """Value at a tuple; the empty tuple yields the default."""
        t = tuple(args)
        if len(t) > self.max_arity:
            raise ArityError(f"tuple of length {len(t)} exceeds max arity {self.max_arity}")
        try:
            return self._table[t]
        except KeyError:
            for s in t:
                if s not in self.domain:
                    raise UnknownSymbolError(f"symbol {s!r} is not in the domain") from None
            raise

    __call__ = eval

    @property
    def is_operation(self) -> bool:
        """True when every admissible value stays in the domain or is ε."""
        dom = set(self.domain.elements)
        return all(v is EPSILON or v in dom for v in self.codomain) and (
            self.default is EPSILON or self.default in dom
        )

    @property
    def is_epsilon_standard(self) -> bool:
        """Operation with ε default that attains ε at the empty tuple only."""
        return (
            self.is_operation
            and self.default is EPSILON
            and all(v is not EPSILON for v in self.entries.values())
        )


def ranges(fn: TableFn) -> tuple:
    """Ranges of the unary part and of the whole non-nullary part.

    Returns (ran_F1, ran_Fflat) as frozensets; the first is always a subset
    of the second.
    """
    ran1 = frozenset(fn.entries[(u,)] for u in fn.domain.elements)
    ranflat = frozenset(fn.entries.values())
    return ran1, ranflat


# ---------------------------------------------------------------------------
# Generated real-interval families
# ---------------------------------------------------------------------------

FAMILIES = (
    "quasi_sum",
    "ling",
    "variadic_tnorm",
    "variadic_tconorm",
    "variadic_uninorm",
    "median_chain",
)

_FOLD_FAMILIES = frozenset(("variadic_tnorm", "variadic_tconorm", "variadic_uninorm"))


@dataclass(frozen=True)
class Interval:
    """A real interval with endpoint openness flags; infinities allowed."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, x: float) -> bool:
        if self.lo_open:
            if x <= self.lo:
                return False
        elif x < self.lo - ABS_TOL:
            return False
        if self.hi_open:
            if x >= self.hi:
                return False
        elif x > self.hi + ABS_TOL:
            return False
        return True

    def __str__(self):
        left = "]" if self.lo_open else "["
        right = "[" if self.hi_open else "]"
        return f"{left}{self.lo}, {self.hi}{right}"


@dataclass(frozen=True)
class GeneratedFn:
    """A variadic real family given by generators and family parameters.

    Families:
      quasi_sum        psi(phi(x1) + ... + phi(xn))
      ling             psi(min(phi(x1) + ... + phi(xn), phi(a)))
      variadic_tnorm / variadic_tconorm / variadic_uninorm
                       left fold of the binary operation
      median_chain     med(a, (c ^ x1) v med(min x, c ^ d, max x) v (d ^ xn), b)
    """

    family: str
    interval: Interval
    phi: Optional[Callable] = None
    psi: Optional[Callable] = None
    binary: Optional[Callable] = None
    a: Optional[float] = None
    b: Optional[float] = None
    c: Optional[float] = None
    d: Optional[float] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family in ("quasi_sum", "ling"):
            if self.phi is None or self.psi is None:
                raise ValueError(f"{self.family} needs both phi and psi")
        if self.family in _FOLD_FAMILIES and self.binary is None:
            raise ValueError(f"{self.family} needs a binary operation")
        if self.family == "median_chain":
            for p in ("a", "b", "c", "d"):
                if getattr(self, p) is None:
                    raise ValueError("median_chain needs parameters a, b, c, d")

    def eval(self, xs: Sequence[float]) -> float:
        """The family formula at a nonempty tuple of reals inside the interval."""
        xs = [float(x) for x in xs]
        if not xs:
            raise ValueError("generated families are evaluated on tuples of length >= 1")
        for x in xs:
            if not self.interval.contains(x):
                raise ValueError(f"input {x} outside interval {self.interval}")
        if self.family == "quasi_sum":
            return self.psi(sum(self.phi(x) for x in xs))
        if self.family == "ling":
            return self.psi(min(sum(self.phi(x) for x in xs), self.phi(self.a)))
        if self.family in _FOLD_FAMILIES:
            return reduce(self.binary, xs)
        # median_chain over the reals: min/max are the chain operations
        lo, hi = min(xs), max(xs)
        cd = min(self.c, self.d)
        inner = max(min(self.c, xs[0]), _med3(lo, cd, hi), min(self.d, xs[-1]))
        return _med3(self.a, inner, self.b)


def _med3(u, v, w):
    return sorted((u, v, w))[1]


def canonical_symbol(value: float) -> str:
    """Render a real value as its canonical 12-significant-digit symbol."""
    v = float(value)
    if v == 0.0:  # normalize -0.0
        v = 0.0
    return format(v, ".12g")


class _ValueCanon:
    """Collapses near-equal reals (1e-9 rel / 1e-12 abs) onto shared representatives.

    Representatives are seeded with the grid points so observed values that
    round onto a grid point reuse the grid symbol exactly.
    """

    def __init__(self, seeds: Iterable[float] = ()):
        self._reps: list[float] = []
        for s in sorted(seeds):
            self.rep(s)

    def rep(self, value: float) -> float:
        reps = self._reps
        i = bisect_left(reps, value)
        for j in (i - 1, i):
            if 0 <= j < len(reps) and close(reps[j], value):
                return reps[j]
        reps.insert(i, value)
        return value


def _as_grid(carrier) -> list[float]:
    grid = sorted(float(x) for x in carrier)
    if not grid:
        raise ValueError("empty grid")
    for u, v in zip(grid, grid[1:]):
        if close(u, v):
            raise ValueError(f"grid points {u} and {v} coincide at tolerance")
    return grid


def tabulate(
    source,
    carrier,
    max_arity: int,
    *,
    default=EPSILON,
) -> TableFn:
    """Build the total table of a generated family or binary operation.

    ``source`` is a GeneratedFn, or a binary callable which is extended with
    identity unary part by folding left.  ``carrier`` is a Chain (symbolic)
    or an iterable of reals (a finite grid).  Real values are collapsed onto
    canonical 12-significant-digit symbols; the codomain lists the distinct
    observed values in ascending order.
    """
    if max_arity < 1:
        raise ValueError("max_arity must be at least 1")
    if isinstance(carrier, Chain):
        return _tabulate_chain(source, carrier, max_arity, default)
    return _tabulate_grid(source, carrier, max_arity, default)


def _tabulate_chain(source, chain: Chain, max_arity, default) -> TableFn:
    if isinstance(source, GeneratedFn):
        raise TypeError("generated families need a real grid carrier, not a chain")
    entries = {}
    observed = []
    seen = set()
    for n in range(1, max_arity + 1):
        for t in chain.tuples(n):
            v = reduce(source, t)
            if v not in chain:
                raise ValueError(f"binary operation left the chain: {t!r} -> {v!r}")
            entries[t] = v
            if v not in seen:
                seen.add(v)
                observed.append(v)
    codomain = tuple(sorted(observed, key=chain.index))
    if default is not EPSILON and default not in codomain:
        codomain = codomain + (default,)
    return TableFn(chain, codomain, max_arity, default, entries)


def _tabulate_grid(source, carrier, max_arity, default) -> TableFn:
    grid = _as_grid(carrier)
    if isinstance(source, GeneratedFn):
        for x in grid:
            if not source.interval.contains(x):
                raise ValueError(f"grid point {x} outside interval {source.interval}")
        if source.phi is not None:
            _require_strictly_monotone(source.phi, grid, "phi")
        evalf = source.eval
    else:
        evalf = lambda t: reduce(source, t)  # noqa: E731

    raw = {}
    for n in range(1, max_arity + 1):
        for t in product(grid, repeat=n):
            raw[t] = float(evalf(t))

    canon = _ValueCanon(grid)
    rep_of = {v: canon.rep(v) for v in sorted(set(raw.values()))}
    sym = {}
    for g in grid:
        sym[g] = canonical_symbol(g)
    for v, r in rep_of.items():
        sym.setdefault(r, canonical_symbol(r))

    chain = Chain(tuple(sym[g] for g in grid))
    entries = {
        tuple(sym[x] for x in t): sym[rep_of[v]] for t, v in raw.items()
    }
    cod_values = sorted({rep_of[v] for v in raw.values()})
    codomain = tuple(sym[r] for r in cod_values)
    if len(set(codomain)) != len(codomain):
        raise AssertionError("canonical value symbols collided; tolerances inconsistent")
    if default is not EPSILON:
        if isinstance(default, float):
            default = canonical_symbol(canon.rep(default))
        if default not in codomain:
            codomain = codomain + (default,)
    return TableFn(chain, codomain, max_arity, default, entries)


def _require_strictly_monotone(f: Callable, grid: Sequence[float], label: str) -> bool:
    """Check strict monotonicity on consecutive grid points; returns direction."""
    ys = [float(f(x)) for x in grid]
    if len(ys) < 2:
        return True
    increasing = all(u < v and not close(u, v) for u, v in zip(ys, ys[1:]))
    decreasing = all(u > v and not close(u, v) for u, v in zip(ys, ys[1:]))
    if not (increasing or decreasing):
        raise GeneratorError(f"{label} is not strictly monotone on the sampling grid")
    return increasing

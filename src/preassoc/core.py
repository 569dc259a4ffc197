"""Finite chains, variadic function tables, witnesses and verdicts.

A variadic function maps tuples of every length 0..N over a finite chain to a
codomain value.  The empty tuple maps to a distinguished default; a sentinel
``EPSILON`` marks the "no value" default of operation-like functions and is
kept outside every chain so that tuple-emptiness and value-emptiness never
collide.  ``canonical_symbol`` renders a real value as the numeric symbol
the function-file format documents; the real-interval families that produce
such values live in ``families``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice, product
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .errors import ArityError, UnknownSymbolError


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
        # a pickled ε (say, a table a user pickles) must unpickle to the singleton
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

    def tuples(self, length: int) -> tuple:
        """All tuples of exactly the given length, in lexicographic order (cached)."""
        return _tuples(self.elements, length)

    def tuples_up_to(self, max_length: int) -> tuple:
        """All tuples of lengths 0..max_length, shortest first, lexicographic (cached)."""
        return _tuples_up_to(self.elements, max_length)


# cached per (elements, length), so one n-tuple object serves every universe of a chain
@lru_cache(maxsize=128)
def _tuples(elements: tuple, length: int) -> tuple:
    return tuple(product(elements, repeat=length))


@lru_cache(maxsize=128)
def _tuples_up_to(elements: tuple, max_length: int) -> tuple:
    return tuple(t for n in range(max_length + 1) for t in _tuples(elements, n))


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
    ``_row`` holds every tuple's value in ``domain.tuples_up_to`` order, F(ε)
    first: every package builder makes its table from one (``_of_row``), and
    whole-table reads (the checkers' passes, the writer) take it as one tuple;
    ``_table`` is the total table of every tuple, ε included, for evaluation
    and the witness scans' random access; ``_attained`` is the set of entry
    values; and ``_decided`` is where ``checks`` keeps the answers it derives
    from the table alone, made on first use.  A rebuilt or unpickled table
    rebuilds ``_row`` and starts without ``_decided``.
    """

    domain: Chain
    codomain: tuple
    max_arity: int
    default: object
    entries: Mapping
    _row: tuple = field(init=False, repr=False, compare=False)
    _table: dict = field(init=False, repr=False, compare=False)
    _attained: frozenset = field(init=False, repr=False, compare=False)
    _decided: Optional[dict] = field(init=False, repr=False, compare=False, default=None)

    __hash__ = None  # equal by value, but the entries are not hashable

    def __post_init__(self):
        codomain = tuple(self.codomain)
        object.__setattr__(self, "codomain", codomain)
        entries = dict(self.entries)
        if type(self.max_arity) is not int or self.max_arity < 1:  # bool is an int subclass
            raise ValueError("max_arity must be an integer >= 1")
        # an empty codomain is refused below: a total table has an entry, whose value it lacks
        if len(set(codomain)) != len(codomain):
            raise ValueError("codomain symbols must be distinct")
        values = set(codomain)
        if self.default is not EPSILON and self.default not in values:
            raise ValueError(f"default {self.default!r} is outside the codomain")
        dom = set(self.domain.elements)
        k, expected = len(dom), 0
        for n in range(1, self.max_arity + 1):  # stops past len(entries), however large N is
            expected += k**n
            if expected > len(entries):
                break
        # as many keys as tuples of length 1..N, and each such tuple a key: the
        # keys are exactly those tuples, so none is at fault.  Keys listed in
        # ``tuples_up_to`` order (``_of_row``'s) show it in one comparison,
        # and their values are then the row as listed.  Otherwise the walk
        # names the first fault, if there is one
        universe = self.domain.tuples_up_to(self.max_arity) if expected == len(entries) else ()
        in_order = ((), *entries) == universe
        if not in_order and (
            not universe or not all(map(entries.__contains__, islice(universe, 1, None)))
        ):
            for key in entries:
                if not isinstance(key, tuple):
                    raise ValueError(f"entry key {key!r} is not a tuple")
                if not 1 <= len(key) <= self.max_arity:
                    raise ValueError(f"entry arity {len(key)} outside 1..{self.max_arity}")
                for s in key:
                    if s not in dom:
                        raise UnknownSymbolError(f"entry {key!r} uses unknown domain symbol {s!r}")
        attained = frozenset(entries.values())
        if not attained <= values:
            key, value = next((t, v) for t, v in entries.items() if v not in values)
            raise ValueError(f"entry value {value!r} at {key!r} is outside the codomain")
        if expected != len(entries):
            # every key is a distinct tuple of length 1..N, so some arity falls short
            have = Counter(map(len, entries))
            n = next(n for n in range(1, self.max_arity + 1) if have[n] != k**n)
            raise ValueError(f"entries not total at arity {n}: expected {k**n}, found {have[n]}")
        table = {(): self.default, **entries}
        if in_order:
            row = (self.default, *entries.values())
        else:
            row = tuple(map(table.__getitem__, universe))
        object.__setattr__(self, "entries", MappingProxyType(entries))
        object.__setattr__(self, "_row", row)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_attained", attained)

    @classmethod
    def _of_row(cls, domain: Chain, codomain, max_arity: int, row: Sequence) -> TableFn:
        """The table whose ``_row`` is ``row``, F(ε) first, keyed by ``domain.tuples_up_to``:
        the constructor takes it back in one comparison, or refuses it as those entries."""
        tuples, values = iter(domain.tuples_up_to(max_arity)), iter(row)
        next(tuples, None)  # the empty tuple; none below arity 0, which the constructor refuses
        return cls(domain, codomain, max_arity, next(values), dict(zip(tuples, values)))

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
        return self.is_operation and self.default is EPSILON and EPSILON not in self._attained


def ranges(fn: TableFn) -> tuple:
    """Ranges of the unary part and of the whole non-nullary part.

    Returns (ran_F1, ran_Fflat) as frozensets; the first is always a subset
    of the second.
    """
    ran1 = frozenset(fn.entries[(u,)] for u in fn.domain.elements)
    return ran1, fn._attained


def left_fold(chain: Chain, unary: Mapping, binary: Mapping, max_arity: int) -> list:
    """The row of F(x1) = unary[x1], F(x1..xn) = binary[F(x1..x_{n-1}), xn], F(ε) = ε.

    ``binary`` must hold every pair (F(x1..x_{n-1}), xn) the fold reads (a
    missing one raises KeyError); the row, for ``TableFn._of_row``, lists the
    values of ``chain.tuples_up_to(max_arity)`` in order.  A layer is one
    list: with ``layer`` the values of ``chain.tuples(n - 1)``,
    ``product(layer, elements)`` lists the pairs read in ``chain.tuples(n)`` order.
    """
    elements = chain.elements
    layer = [unary[x] for x in elements]
    row = [EPSILON, *layer]
    for _ in range(2, max_arity + 1):
        layer = list(map(binary.__getitem__, product(layer, elements)))
        row += layer
    return row


def compose(f, H: TableFn) -> TableFn:
    """The default-ε table of f(H(x)) on H's nonempty tuples, into f's codomain.

    ``f`` is a ``quasi_inverse.FiniteMap`` defined on every value H attains.
    """
    row = (EPSILON, *map(f.graph.__getitem__, islice(H._row, 1, None)))
    return TableFn._of_row(H.domain, f.codomain, H.max_arity, row)


def canonical_symbol(value: float) -> str:
    """Render a real value as its canonical 12-significant-digit symbol."""
    v = float(value)
    if v == 0.0:  # normalize -0.0
        v = 0.0
    return format(v, ".12g")

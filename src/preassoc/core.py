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
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count, filterfalse, islice, product
from typing import Optional, Sequence

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


@lru_cache(maxsize=128)
def _positions(elements: tuple, max_length: int) -> dict:
    """Each tuple's index in ``_tuples_up_to(elements, max_length)``, so in a table's row."""
    return dict(zip(_tuples_up_to(elements, max_length), count()))


def _reach(k: int, n: int, size: int) -> tuple:
    """(m, expected): the tuples of length 1..m over k symbols number ``expected``,
    and m is the first arity at which they outnumber ``size``, else n.  The
    count stops there, however large n is."""
    m = expected = 0
    while m < n and expected <= size:
        m += 1
        expected += k**m
    return m, expected


class _RowEntries(Mapping):
    """A row's entries, read-only: the tuples past ε in ``tuples_up_to`` order, one per value."""

    __slots__ = ("_shape", "_row")

    def __init__(self, domain: Chain, max_arity: int, row: tuple):
        self._shape, self._row = (domain.elements, max_arity, row[0]), row

    def __len__(self):
        return len(self._row) - 1

    def __iter__(self):  # arity by arity, so a short row builds only the tuples it reaches
        elements, n, _ = self._shape
        return islice((t for m in range(1, n + 1) for t in _tuples(elements, m)), len(self))

    def __getitem__(self, key):  # the empty tuple, at index 0, is no entry
        if not (i := _positions(*self._shape[:2])[key]):
            raise KeyError(key)
        return self._row[i]

    def items(self):
        return _RowItems(self)

    def __repr__(self):
        return f"{type(self).__name__}({dict(self)!r})"


class _RowItems(ItemsView):  # each tuple beside its value, reversible as a dict's items are
    def __iter__(self):
        return zip(self._mapping, islice(self._mapping._row, 1, None))

    def __reversed__(self):
        return reversed(tuple(self))


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
    ``entries`` holds the tuples of length 1..N read-only: a view over the
    row in ``domain.tuples_up_to`` order, whatever order a given mapping had
    (``_of_row`` builds from a row).  A mapping becomes its row first: its
    values as listed if its keys run in that order as far as they reach,
    else read at the tuples if its keys are all of them; else the first key,
    in the given order, that is no tuple of length 1..N over the domain is
    named, then the first arity short of tuples.  Every row is then checked
    once: a value past the tuples of length N, the first value outside the
    codomain in tuple order, the arity it falls short at.  ``codomain``
    lists the admissible entry values; its listing order is the codomain
    order used by monotonicity and convexity checks.  ``_row``, all a table
    keeps of its values, lists them in ``domain.tuples_up_to`` order, F(ε)
    first; evaluation and the checkers read a tuple at its index in
    ``_positions``, and two tables compare by it, not by ``entries``.
    ``_attained`` is the set of entry values, and ``_decided`` holds the
    answers ``checks`` derives from the table alone, which a rebuilt or
    unpickled table derives anew.
    """

    domain: Chain
    codomain: tuple
    max_arity: int
    default: object
    entries: Mapping = field(compare=False)
    _row: tuple = field(init=False, repr=False)
    _attained: frozenset = field(init=False, repr=False, compare=False)
    _decided: Optional[dict] = field(init=False, repr=False, compare=False, default=None)

    __hash__ = None  # equal by value, but the entries are not hashable

    def __post_init__(self):
        codomain = tuple(self.codomain)
        object.__setattr__(self, "codomain", codomain)
        domain, n, default, entries = self.domain, self.max_arity, self.default, self.entries
        if type(entries) is not _RowEntries or entries._shape != (domain.elements, n, default):
            entries = dict(entries)
        if type(n) is not int or n < 1:  # bool is an int subclass
            raise ValueError("max_arity must be an integer >= 1")
        # an empty codomain is refused below: a total table has an entry, whose value it lacks
        values = set(codomain)
        if len(values) != len(codomain):
            raise ValueError("codomain symbols must be distinct")
        if default is not EPSILON and default not in values:
            raise ValueError(f"default {default!r} is outside the codomain")
        k, size = len(domain), len(entries)
        m, expected = _reach(k, n, size)
        if type(entries) is dict:  # a mapping becomes its row, or its first key fault is named
            universe = domain.tuples_up_to(m)
            if ((), *entries) == universe[: size + 1]:  # keys in row order, as far as they reach
                listed = entries.values()
            elif expected == size and all(map(entries.__contains__, islice(universe, 1, None))):
                listed = map(entries.__getitem__, islice(universe, 1, None))
            else:
                for key in entries:
                    if not isinstance(key, tuple):
                        raise ValueError(f"entry key {key!r} is not a tuple")
                    if not 1 <= len(key) <= n:
                        raise ValueError(f"entry arity {len(key)} outside 1..{n}")
                    for s in filterfalse(domain.__contains__, key):
                        raise UnknownSymbolError(f"entry {key!r} uses unknown domain symbol {s!r}")
                have = Counter(map(len, entries))  # distinct tuples of length 1..N, not all
                a = next(a for a in range(1, n + 1) if have[a] != k**a)
                raise ValueError(
                    f"entries not total at arity {a}: expected {k**a}, found {have[a]}"
                )
            entries = _RowEntries(domain, n, (default, *listed))
        row = entries._row
        if expected < size:  # a row past the tuples of length N
            raise ValueError(f"entry arity {n + 1} outside 1..{n}")
        attained = frozenset(islice(row, 1, None))
        if not attained <= values:  # the first in tuple order, named off the tuples it reaches
            key, value = next((t, v) for t, v in entries.items() if v not in values)
            raise ValueError(f"entry value {value!r} at {key!r} is outside the codomain")
        if expected != size:  # a row fills the arities in order, so it falls short at arity m
            found = size - expected + k**m
            raise ValueError(f"entries not total at arity {m}: expected {k**m}, found {found}")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_row", row)
        object.__setattr__(self, "_attained", attained)

    @classmethod
    def _of_row(cls, domain: Chain, codomain, max_arity: int, row: Sequence) -> TableFn:
        """The table whose ``_row`` is ``row`` (F(ε) first, in ``domain.tuples_up_to`` order)."""
        return cls(domain, codomain, max_arity, row[0], _RowEntries(domain, max_arity, tuple(row)))

    def __reduce__(self):  # pickled and copied as its row, rebuilt through the one validation
        return (TableFn._of_row, (self.domain, self.codomain, self.max_arity, self._row))

    def eval(self, args: Sequence) -> object:
        """Value at a tuple; the empty tuple yields the default."""
        t = tuple(args)
        if len(t) > self.max_arity:
            raise ArityError(f"tuple of length {len(t)} exceeds max arity {self.max_arity}")
        try:
            return self._row[_positions(self.domain.elements, self.max_arity)[t]]
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
    return frozenset(fn._row[1 : len(fn.domain) + 1]), fn._attained


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

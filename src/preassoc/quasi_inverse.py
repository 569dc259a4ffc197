"""Constructive quasi-inverse machinery on finite functions.

A quasi-inverse g of f satisfies f ∘ g = id on ran(f) and attains all of its
values already on ran(f).  On finite domains every f has quasi-inverses and
they can be enumerated: the ones with domain exactly ran(f) (right-inverses)
are the choice functions picking one preimage per attained value.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping

from .errors import DomainMismatchError, PinError


@dataclass(frozen=True)
class FiniteMap:
    """A total map between two finite ordered value listings."""

    domain: tuple
    codomain: tuple
    graph: Mapping

    __hash__ = None  # equal by value, but the graph is not hashable

    def __post_init__(self):
        domain = tuple(self.domain)
        codomain = tuple(self.codomain)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "graph", dict(self.graph))
        if len(set(domain)) != len(domain):
            raise ValueError("domain listing has duplicates")
        if len(set(codomain)) != len(codomain):
            raise ValueError("codomain listing has duplicates")
        if set(self.graph) != set(domain):
            raise ValueError("graph is not total on the domain")
        cod = set(codomain)
        for x, y in self.graph.items():
            if y not in cod:
                raise ValueError(f"value {y!r} at {x!r} is outside the codomain")

    def __call__(self, x):
        return self.graph[x]

    @property
    def range(self) -> tuple:
        """Attained values, in codomain order."""
        attained = set(self.graph.values())
        return tuple(v for v in self.codomain if v in attained)

    def is_one_to_one(self) -> bool:
        return len(set(self.graph.values())) == len(self.graph)

    def preimage(self, y) -> tuple:
        """All x with f(x) = y, in domain order."""
        return tuple(x for x in self.domain if self.graph[x] == y)

    @classmethod
    def identity(cls, values) -> "FiniteMap":
        vals = tuple(values)
        return cls(vals, vals, {v: v for v in vals})


def is_quasi_inverse(f: FiniteMap, g: FiniteMap):
    """Whether g is a quasi-inverse of f; returns (bool, witness-or-None).

    The two defining conditions: f ∘ g is the identity on ran(f), and g
    restricted to ran(f) already attains every value of g.
    """
    ran_f = set(f.graph.values())
    ran_g = set(g.graph.values())
    if not ran_g <= set(f.domain):
        raise DomainMismatchError("ran(g) must lie inside dom(f)")
    if not ran_f <= set(g.graph):
        raise DomainMismatchError("ran(f) must lie inside dom(g)")
    for y in (v for v in f.codomain if v in ran_f):
        if f.graph[g.graph[y]] != y:
            witness = {
                "condition": "left-inverse-on-range",
                "y": y,
                "g(y)": g.graph[y],
                "f(g(y))": f.graph[g.graph[y]],
            }
            return False, witness
    ran_g_restricted = {g.graph[y] for y in ran_f}
    if ran_g_restricted != ran_g:
        witness = {
            "condition": "range-preservation",
            "value": min(ran_g - ran_g_restricted, key=g.codomain.index),
        }
        return False, witness
    return True, None


def right_inverses(f: FiniteMap) -> list:
    """All quasi-inverses of f with domain exactly ran(f), lexicographically.

    There are exactly prod over y in ran(f) of |preimage(y)| of them; each
    picks one preimage per attained value.
    """
    ran_f = f.range
    choices = [f.preimage(y) for y in ran_f]
    out = []
    for combo in product(*choices):
        graph = dict(zip(ran_f, combo))
        out.append(FiniteMap(ran_f, f.domain, graph))
    return out


def canonical_quasi_inverse(f: FiniteMap, pins=None) -> FiniteMap:
    """The right-inverse picking the smallest preimage, except where pinned.

    Each pin (y, x) forces g(y) = x and must satisfy f(x) = y; pinned values
    must be distinct.  Determinism of the unpinned choices makes downstream
    factorizations reproducible.
    """
    ran_f = f.range
    pinned = {}
    for y, x in pins or ():
        if y in pinned:
            raise PinError(f"value {y!r} pinned twice")
        if x not in f.graph or f.graph[x] != y:
            raise PinError(f"pin ({y!r}, {x!r}) does not satisfy f(x) = y")
        pinned[y] = x
    graph = {}
    for y in ran_f:
        graph[y] = pinned.get(y, f.preimage(y)[0])
    return FiniteMap(ran_f, f.domain, graph)

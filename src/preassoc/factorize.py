"""Structure theorems as algorithms.

A standard, preassociative function whose unary part attains everything the
whole function attains factors as F = f ∘ H on nonempty tuples, where H is an
associative operation with default ε and f is one-to-one.  This module
recovers such factorizations, extends unary+binary seeds to full variadic
operations, and evaluates factored functions recursively.
"""

from __future__ import annotations

from dataclasses import dataclass

from .checks import (
    check_associative,
    check_preassociative,
    check_standard,
    check_unarily_quasi_range_idempotent,
    nonassociative_triple,
)
from .core import Chain, TableFn, compose, left_fold
from .errors import (
    ConditionError,
    DomainMismatchError,
    InternalVerificationError,
    PreconditionError,
)
from .quasi_inverse import FiniteMap, canonical_quasi_inverse, is_quasi_inverse


@dataclass(frozen=True)
class Factorization:
    """A recovered triple: F = f ∘ H on nonempty tuples, with H = g ∘ F there.

    ``g`` is the chosen quasi-inverse of the unary part, ``H`` the associative
    default-ε operation, and ``f`` the unary part restricted to ran(H) on
    nonempty tuples (one-to-one).
    """

    g: FiniteMap
    H: TableFn
    f: FiniteMap


def factorize(fn: TableFn, pins=None) -> Factorization:
    """Factor a standard preassociative function through an associative operation.

    Preconditions (each checked, with the failing verdict attached to the
    error): the function is standard, preassociative, and its unary range
    equals its full range.  The associative factor is built through the
    canonical quasi-inverse of the unary part; ``pins`` force particular
    preimage choices.  When the unary part is one-to-one the result does not
    depend on pins and H has identity unary part.

    Everything constructed is re-verified before returning; a verification
    failure signals a library bug, not a user error.
    """
    for verdict in (
        check_standard(fn),
        check_preassociative(fn, "P1"),
        check_unarily_quasi_range_idempotent(fn),
    ):
        if not verdict.holds:
            raise PreconditionError(
                verdict, f"factorization precondition failed: {verdict.property}"
            )

    elements = fn.domain.elements
    f1 = FiniteMap(elements, fn.codomain, {u: fn.entries[(u,)] for u in elements})
    g = canonical_quasi_inverse(f1, pins)
    H = compose(g, fn)  # g's codomain is F1's domain, the chain

    ran_h = tuple(u for u in elements if u in H._attained)
    f = FiniteMap(ran_h, fn.codomain, {u: f1.graph[u] for u in ran_h})

    _verify_factorization(fn, f1, g, H, f)
    return Factorization(g=g, H=H, f=f)


def _verify_factorization(fn: TableFn, f1: FiniteMap, g: FiniteMap, H: TableFn, f: FiniteMap):
    # f ∘ H = F as one comparison of the rows past F(ε); the walk only names a mismatch
    if tuple(map(f.graph.__getitem__, H._row[1:])) != fn._row[1:]:
        for t, v in fn.entries.items():
            if f.graph[H.entries[t]] != v:
                raise InternalVerificationError(
                    f"factor identity failed at {t!r}: f(H(x)) != F(x)"
                )
    if not f.is_one_to_one():
        raise InternalVerificationError("restricted unary part is not one-to-one")
    ok, _ = is_quasi_inverse(f1, g)
    if not ok:
        raise InternalVerificationError("chosen g is not a quasi-inverse of F1")
    verdict = check_associative(H, "A1")
    if not verdict.holds:
        raise InternalVerificationError(
            f"constructed H is not associative: {verdict.witness.describe()}"
        )
    if not H.is_epsilon_standard:
        raise InternalVerificationError("constructed H is not an ε-default standard operation")


def _binary_table(f2, elements) -> dict:
    """Normalize a binary table to a total dict over elements squared."""
    table = dict(f2)
    missing = [(u, v) for u in elements for v in elements if (u, v) not in table]
    if missing:
        raise ValueError(f"binary table is not total; first missing pair {missing[0]!r}")
    dom = set(elements)
    for pair, w in table.items():
        if w not in dom:
            raise ValueError(f"binary value {w!r} at {pair!r} leaves the domain")
    return table


def extend_unary_binary(f1: FiniteMap, f2, max_arity: int) -> TableFn:
    """The unique associative default-ε operation with the given unary and binary parts.

    Exists exactly when: (i) f1 ∘ f1 = f1 and f1 ∘ f2 = f2, (ii) f2 absorbs f1
    in either argument, (iii) f2 is associative.  Each condition is checked
    exhaustively; the entries are the left fold
    G_n(x) = G_2(G_{n-1}(x_1..x_{n-1}), x_n) of ``core.left_fold``.
    """
    elements = f1.domain
    if set(f1.graph.values()) - set(elements):
        raise ValueError("unary part must map the domain into itself")
    table = _binary_table(f2, elements)

    for u in elements:  # condition (i), unary half
        if f1.graph[f1.graph[u]] != f1.graph[u]:
            raise ConditionError(
                "i", f"F1(F1({u!r})) != F1({u!r})", witness=(u,)
            )
    for (u, v), w in table.items():  # condition (i), binary half
        if f1.graph[w] != w:
            raise ConditionError(
                "i", f"F1(F2({u!r},{v!r})) != F2({u!r},{v!r})", witness=(u, v)
            )
    for (u, v), w in table.items():  # condition (ii)
        if table[(f1.graph[u], v)] != w or table[(u, f1.graph[v])] != w:
            raise ConditionError(
                "ii",
                f"F2 does not absorb F1 at ({u!r},{v!r})",
                witness=(u, v),
            )
    triple = nonassociative_triple(table, elements)  # condition (iii)
    if triple is not None:
        raise ConditionError(
            "iii", "binary part not associative at ({!r},{!r},{!r})".format(*triple),
            witness=triple,
        )

    chain = Chain(elements)
    row = left_fold(chain, f1.graph, table, max_arity)
    return TableFn._of_row(chain, elements, max_arity, row)


def build_from_f1_h2(f1: FiniteMap, h2, max_arity: int) -> TableFn:
    """A preassociative standard function with unary part f1 and binary part f1 ∘ h2.

    Needs f1 one-to-one and h2 associative; the result is f1 composed with the
    identity-unary extension of h2, with default ε.
    """
    if not f1.is_one_to_one():
        raise ValueError("unary part must be one-to-one")
    # extend_unary_binary, not tabulate: it refuses a non-associative h2
    return compose(f1, extend_unary_binary(FiniteMap.identity(f1.domain), h2, max_arity))


def recursive_eval(f1: FiniteMap, f2, g: FiniteMap, xs) -> object:
    """Evaluate a factored function by folding its binary part through g.

    Computes F(x_1..x_n) as F_2(g(F(x_1..x_{n-1})), x_n) with F_1 as the base
    case; g must be a quasi-inverse of f1.
    """
    xs = tuple(xs)
    if not xs:
        raise ValueError("recursive evaluation needs at least one argument")
    ok, witness = is_quasi_inverse(f1, g)
    if not ok:
        raise DomainMismatchError(f"g is not a quasi-inverse of F1: {witness}")
    table = dict(f2)
    acc = f1.graph[xs[0]]
    for x in xs[1:]:
        acc = table[(g.graph[acc], x)]
    return acc

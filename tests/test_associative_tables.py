"""The backtracking generator of associative binary tables and the extensions built on it.

Each fast path is held against its exhaustive reference: the filter of every
binary table through ``nonassociative_triple``, and the A1 filter over the
default-ε standard universe.  Past the 3-chain, where the filter no longer
fits, the search's tables must come strictly increasing in row-major order,
each associative, as many as OEIS A023814 counts, so they are the filter's
list; their order digest is frozen.
"""

import hashlib
import time
from itertools import product

import pytest

from conftest import all_binary_tables
from preassoc.checks import check_associative, nonassociative_triple
from preassoc.enumeration import (
    all_associative_extensions,
    all_epsilon_standard,
    associative_tables,
    default_chain,
)
from preassoc.errors import ConditionError
from preassoc.factorize import extend_unary_binary
from preassoc.quasi_inverse import FiniteMap
from preassoc.serialization import dumps_function


def _filtered_binary_tables(chain):
    return [t for t in all_binary_tables(chain) if nonassociative_triple(t, chain.elements) is None]


def _a1_tables(chain, max_arity):
    return [
        dumps_function(fn)
        for fn in all_epsilon_standard(chain, max_arity)
        if check_associative(fn, "A1").holds
    ]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_associative_tables_match_the_filter_in_order(k):
    chain = default_chain(k)
    got = list(associative_tables(chain))
    reference = _filtered_binary_tables(chain)
    assert got == reference
    assert [list(t) for t in got] == [list(t) for t in reference]  # key order too


def test_labeled_semigroup_counts():
    # the numbers of associative binary operations on 1..4 labeled elements
    # (OEIS A023814), the first three recomputed by the filter above
    counts = [sum(1 for _ in associative_tables(default_chain(k))) for k in (1, 2, 3)]
    assert counts == [1, 8, 113]
    chain = default_chain(4)
    assert sum(1 for _ in associative_tables(chain)) == 3492
    # the best of three walks, so that one slowed by a busy host does not decide
    elapsed = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in associative_tables(chain):
            pass
        elapsed.append(time.perf_counter() - t0)
    assert min(elapsed) < 1.0, f"the 4-chain took {min(elapsed):.2f}s at best"


def _order_digest(tables):
    """sha256 over ``repr(list(t.items()))`` of each table in turn."""
    digest = hashlib.sha256()
    for table in tables:
        digest.update(repr(list(table.items())).encode())
    return digest.hexdigest()


def test_the_3_chain_order_digest():
    tables = associative_tables(default_chain(3))
    digest = "daaf2ebf708464b3a3f29934cca67fa03c44ab0b0e71885c2cc3a4b9e0f065bc"
    assert _order_digest(tables) == digest


def test_the_4_chain_tables_are_the_filter_in_order():
    # 3 492 tables (A023814), each associative and each after the last in
    # row-major order: exactly the filter's list, order included
    chain = default_chain(4)
    tables = list(associative_tables(chain))
    assert len(tables) == 3492
    assert all(list(t) == list(chain.tuples(2)) for t in tables)
    rows = [tuple(map(chain.index, t.values())) for t in tables]
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert all(nonassociative_triple(t, chain.elements) is None for t in tables)
    digest = "854e48e71530d7f19f5ddd67e6546f6c04ce4596879a22c7e3d78c522c01b6b2"
    assert _order_digest(tables) == digest


@pytest.mark.parametrize("k,max_arity", [(2, 3), (1, 3), (1, 4), (1, 5)])
def test_extensions_are_the_a1_tables_in_universe_order(k, max_arity):
    chain = default_chain(k)
    got = [dumps_function(fn) for fn in all_associative_extensions(chain, max_arity)]
    assert got == _a1_tables(chain, max_arity)


def test_extensions_on_the_3_chain_match_every_unary_map_reference():
    # the former search: every associative table against all k^k unary maps
    chain = default_chain(3)
    elements = chain.elements
    reference = set()
    for table in _filtered_binary_tables(chain):
        for values in product(elements, repeat=len(elements)):
            f1 = FiniteMap(elements, elements, dict(zip(elements, values)))
            try:
                reference.add(dumps_function(extend_unary_binary(f1, table, 3)))
            except ConditionError:
                continue
    got = [dumps_function(fn) for fn in all_associative_extensions(chain, 3)]
    assert len(got) == len(set(got)) == 164
    assert set(got) == reference


def _extensions_through_extend_unary_binary(chain, max_arity):
    # the former loop: extend_unary_binary on every idempotent unary map and
    # every associative table whose range it fixes, skipping ConditionError;
    # each pair that does not absorb must fail there on condition (ii)
    elements = chain.elements
    tables = list(associative_tables(chain))
    for values in product(elements, repeat=len(elements)):
        unary = dict(zip(elements, values))
        if any(unary[w] != w for w in values):
            continue
        f1 = FiniteMap(elements, elements, unary)
        for table in tables:
            if not set(table.values()) <= set(values):
                continue
            absorbs = all(
                table[unary[u], v] == w == table[u, unary[v]] for (u, v), w in table.items()
            )
            try:
                ext = extend_unary_binary(f1, table, max_arity)
            except ConditionError as err:
                assert not absorbs and err.condition == "ii", (unary, table)
                continue
            assert absorbs, (unary, table)
            yield ext


@pytest.mark.parametrize("max_arity", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_extensions_match_extend_unary_binary_in_order(k, max_arity):
    chain = default_chain(k)
    got = list(all_associative_extensions(chain, max_arity))
    reference = list(_extensions_through_extend_unary_binary(chain, max_arity))
    assert got == reference
    assert [dumps_function(fn) for fn in got] == [dumps_function(fn) for fn in reference]


def test_extensions_below_arity_3_are_truncations():
    # A1 does not see (xy)z = x(yz) below arity 3, so the extensions cover
    # only part of the A1 tables at arity 2 and repeat unary tables at arity 1
    chain = default_chain(2)
    at_2 = [dumps_function(fn) for fn in all_associative_extensions(chain, 2)]
    a1_at_2 = _a1_tables(chain, 2)
    assert (len(at_2), len(a1_at_2)) == (10, 18)
    assert set(at_2) < set(a1_at_2)
    at_1 = [dumps_function(fn) for fn in all_associative_extensions(chain, 1)]
    assert len(at_1) == 10
    assert set(at_1) == set(_a1_tables(chain, 1))
    assert len(set(at_1)) == 3

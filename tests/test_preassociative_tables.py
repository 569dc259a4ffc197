"""The layer-by-layer generator of P1 tables against the brute P1 filter.

``preassociative_tables`` must yield exactly the tables of ``_all_tables``
on which ``_p1_pass`` answers, in the same order.  The brute filter covers
the universes it can walk; the larger counts are frozen from the generator
and tied, where a sweep reaches them, to the sweep's own P1 count.
"""

import pytest

from preassoc.checks import _p1_pass
from preassoc.core import EPSILON, TableFn
from preassoc.enumeration import (
    _all_tables,
    all_epsilon_standard,
    all_operations,
    default_chain,
    preassociative_tables,
)


def _p1_tables(tables):
    return [fn for fn in tables if _p1_pass(fn) is not None]


def _operations(chain):
    return chain.elements + (EPSILON,)


@pytest.mark.parametrize("max_arity, count", [(1, 4), (2, 36), (3, 22)])
def test_epsilon_standard_on_the_2_chain_equals_the_brute_filter(max_arity, count):
    chain = default_chain(2)
    got = list(preassociative_tables(chain, max_arity, chain.elements, (EPSILON,)))
    assert got == _p1_tables(all_epsilon_standard(chain, max_arity))
    assert len(got) == count


@pytest.mark.parametrize(
    "chain_size, max_arity, count",
    [(1, 1, 4), (1, 2, 6), (1, 3, 6), (1, 4, 6), (2, 1, 27), (2, 2, 543)],
)
def test_all_operations_equal_the_brute_filter(chain_size, max_arity, count):
    chain = default_chain(chain_size)
    codomain = _operations(chain)
    got = list(preassociative_tables(chain, max_arity, codomain, codomain))
    assert got == _p1_tables(all_operations(chain, max_arity))
    assert len(got) == count


def test_a_foreign_codomain_equals_the_brute_filter():
    chain = default_chain(2)
    codomain = ("a", "b", "c")
    got = list(preassociative_tables(chain, 2, codomain, (EPSILON,)))
    assert got == _p1_tables(_all_tables(chain, 2, codomain, (EPSILON,)))
    assert len(got) == 495


@pytest.mark.parametrize("max_arity", [0, -1])
def test_a_max_arity_below_1_is_refused_as_table_fn_refuses_it(max_arity):
    chain = default_chain(2)
    with pytest.raises(ValueError) as refused:
        TableFn(chain, chain.elements, max_arity, EPSILON, {})
    with pytest.raises(ValueError, match=f"^{refused.value}$"):
        list(preassociative_tables(chain, max_arity, chain.elements, (EPSILON,)))


# Counts past the brute filter's reach, frozen from the generator.  The
# 3-chain ones are the default-ε standard P1 tables at arities 3 and 4; the
# 2-chain one covers every default, ε entries included (3^15 tables, which a
# brute walk once matched in order).
@pytest.mark.parametrize(
    "chain_size, max_arity, any_default, count",
    [(3, 3, False, 1509), (3, 4, False, 1521), (2, 3, True, 159)],
)
def test_frozen_counts(chain_size, max_arity, any_default, count):
    chain = default_chain(chain_size)
    codomain = _operations(chain) if any_default else chain.elements
    defaults = codomain if any_default else (EPSILON,)
    assert sum(1 for _ in preassociative_tables(chain, max_arity, codomain, defaults)) == count

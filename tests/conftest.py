"""Shared builders for the canonical example functions."""

from itertools import product

import pytest

from preassoc.core import EPSILON, Chain, TableFn
from preassoc.families import tabulate


@pytest.fixture
def chain2():
    return Chain(("0", "1"))


@pytest.fixture
def chain3():
    return Chain(("0", "1", "2"))


@pytest.fixture
def chain4():
    return Chain(("0", "1", "2", "3"))


@pytest.fixture
def min3(chain3):
    """The min-extension on {0,1,2} at max arity 3."""
    return tabulate(chain3.meet, chain3, 3)


@pytest.fixture
def first_element2(chain2):
    """F(x) = x1 with default ε on {0,1}, max arity 3."""
    entries = {
        t: t[0] for n in range(1, 4) for t in product(chain2.elements, repeat=n)
    }
    return TableFn(chain2, chain2.elements, 3, EPSILON, entries)


@pytest.fixture
def length_fn(chain2):
    """F(x) = |x| as a string symbol, default "0", on {0,1} at max arity 3."""
    entries = {
        t: str(n) for n in range(1, 4) for t in product(chain2.elements, repeat=n)
    }
    return TableFn(chain2, ("0", "1", "2", "3"), 3, "0", entries)


@pytest.fixture
def remark_b():
    """First-projection with a colliding default: F(ε) = a, F(x) = x1 on {a,b}."""
    chain = Chain(("a", "b"))
    entries = {
        t: t[0] for n in range(1, 3) for t in product(chain.elements, repeat=n)
    }
    return TableFn(chain, chain.elements, 2, "a", entries)


def tuple_table(fn):
    """Every tuple's value, the empty tuple's included, keyed by tuple: the public reference."""
    return {(): fn.default, **fn.entries}


def xor_table(chain):
    return {
        (u, v): str(int(u) ^ int(v))
        for u in chain.elements
        for v in chain.elements
    }


def all_binary_tables(chain):
    """Every binary operation table on the chain, lexicographically.

    The k² cells in row-major order, values ascending: the exhaustive
    reference for ``enumeration.associative_tables``.
    """
    pairs = chain.tuples(2)
    for values in product(chain.elements, repeat=len(pairs)):
        yield dict(zip(pairs, values))

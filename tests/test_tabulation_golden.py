"""Frozen digests of tabulated tables: every table-building path stays byte-identical.

Each case builds a table through one tabulation path (a generated quasi-sum
on a grid, a Ling-type family, a catalog seed, a lifted seed, a folded chain
operation) and compares ``function_digest`` of its serialized form with a
value frozen before the real-interval machinery moved between modules.  The
names are imported from the package root so the test reads the same wherever
they are defined.
"""

import math

import pytest

from preassoc import Chain, Interval, tabulate
from preassoc.families import lift_tnorm, make_ling, make_quasi_sum, make_variadic_seed
from preassoc.serialization import function_digest

QUARTERS = [0.0, 0.25, 0.5, 0.75, 1.0]


def _quasi_sum_product():
    gen = make_quasi_sum(
        math.log, math.exp, Interval(0, 1, lo_open=True), Interval(hi=0.0)
    )
    return tabulate(gen, [0.25, 0.5, 1.0], 2)


def _ling_lukasiewicz():
    gen = make_ling(lambda x: 1 - x, lambda t: 1 - t, 0, 1)
    return tabulate(gen, QUARTERS, 2)


def _lukasiewicz_seed():
    return make_variadic_seed("tnorm", "lukasiewicz", QUARTERS, 3)


def _lifted_seed():
    return lift_tnorm(lambda x: x * x, _lukasiewicz_seed())


def _chain_meet():
    chain3 = Chain(("0", "1", "2"))
    return tabulate(chain3.meet, chain3, 3)


CASES = {
    "quasi_sum_product": (
        _quasi_sum_product,
        "5bfcbb2f0c20905b4a796dd7ec2e712d474009f6026ebb08ec27ba9f7a0bd7bf",
    ),
    "ling_lukasiewicz": (
        _ling_lukasiewicz,
        "e0950c2f7bf4a79536d658df631b0f28ef8802ae68454e8b5de5007ee9ac9397",
    ),
    "lukasiewicz_seed": (
        _lukasiewicz_seed,
        "0171445f8f10c88f223838a1065fcee4ad11c847cc1d52322acaf8cbcf1ad753",
    ),
    "lifted_seed": (
        _lifted_seed,
        "f8028d7963869df686c521947c23b05956507346c4f5075ac8ee1cdc3994cde3",
    ),
    "chain_meet": (
        _chain_meet,
        "054b8cf1b0f6179bd7c8e1ee4e5e37603e66301c9045c07177978c37ce5dbfcd",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_tabulated_table_is_byte_identical(name):
    build, digest = CASES[name]
    assert function_digest(build()) == digest

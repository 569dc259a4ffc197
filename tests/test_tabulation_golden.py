"""Frozen digests of tabulated tables: every table-building path stays byte-identical.

Each case builds a table through one tabulation path (a generated quasi-sum
on a grid, a Ling-type family, a catalog seed on a grid or a symbolic chain,
a lifted seed, a folded chain operation, associative or not) and compares
``function_digest`` of its serialized form with a frozen value.  The seed and
chain-tabulation errors are pinned to their exact texts and witnesses, which
name grid points and chain symbols.  The names are imported from the package
root so the test reads the same wherever they are defined.
"""

import math

import pytest

from preassoc import Chain, Interval, tabulate
from preassoc.errors import AxiomError, GridClosureError
from preassoc.families import lift_tnorm, make_ling, make_quasi_sum, make_variadic_seed
from preassoc.serialization import function_digest

QUARTERS = [0.0, 0.25, 0.5, 0.75, 1.0]


def _quasi_sum_product():
    gen = make_quasi_sum(math.log, math.exp, Interval(0, 1, lo_open=True))
    return tabulate(gen, [0.25, 0.5, 1.0], 2)


def _ling_lukasiewicz():
    gen = make_ling(lambda x: 1 - x, lambda t: 1 - t, 0, 1)
    return tabulate(gen, QUARTERS, 2)


def _lukasiewicz_seed():
    return make_variadic_seed("tnorm", "lukasiewicz", QUARTERS, 3)


def _lifted_seed():
    return lift_tnorm(lambda x: x * x, _lukasiewicz_seed())


C3 = Chain(("0", "1", "2"))


def _chain_meet():
    return tabulate(C3.meet, C3, 3)


def _uninorm_seed():
    return make_variadic_seed("uninorm", "idempotent-max", QUARTERS, 3, e=0.5)


def _tconorm_on_a_symbolic_chain():
    return make_variadic_seed("tconorm", "max", Chain(("b", "a", "c")), 4)


def _nonassociative_chain_fold():
    # a non-associative op: the fold left to right is the only reading
    up = dict(zip(C3.elements, C3.elements[1:] + C3.elements[-1:]))  # one step up, the top fixed
    return tabulate(lambda u, v: C3.meet(up[u], v), C3, 3, default="2")


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
    "uninorm_seed": (
        _uninorm_seed,
        "abfd95dcdbeb07dcb6e3b2ed5b21f6e1a227bb5b8fe411b1dce66fa7f01ff0f6",
    ),
    "tconorm_on_a_symbolic_chain": (
        _tconorm_on_a_symbolic_chain,
        "2fc09bc593af8531b8fbd2e8f4bf21a5ef230cb3612c4744de109113b7093114",
    ),
    "nonassociative_chain_fold": (
        _nonassociative_chain_fold,
        "40c1e4eb17d250f9b781fbb60f651e61a17a7a8bfac85c05f4714b6f557925aa",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_tabulated_table_is_byte_identical(name):
    build, digest = CASES[name]
    assert function_digest(build()) == digest


def test_seed_axiom_failure_names_grid_points():
    with pytest.raises(AxiomError) as err:
        make_variadic_seed("tnorm", lambda x, y: x, [0, 0.5, 1], 2)  # a projection
    assert str(err.value) == "1.0 is not neutral at 0.0"
    assert err.value.witness == (1.0, 0.0)


def test_seed_closure_failure_names_grid_points():
    with pytest.raises(GridClosureError) as err:
        make_variadic_seed("tnorm", "product", [0, 0.5, 1], 2)
    assert str(err.value) == "operation leaves the carrier: (0.5, 0.5) -> 0.25"


def test_chain_closure_failure_names_the_pair():
    with pytest.raises(ValueError) as err:
        tabulate(lambda u, v: "9", C3, 2)
    assert str(err.value) == "binary operation left the chain: ('0', '0') -> '9'"

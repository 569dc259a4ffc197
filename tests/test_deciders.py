"""The fast A2, P1 and replication-preinvariance deciders against their scans.

Each decider returns the exhaustive scan's ``cases_checked`` when the
property holds and None otherwise, and the checker answers from it without
entering the scan.  Over whole small universes the checker's verdict must
equal the scan's, and the decider must say "holds" exactly when the scan does.
"""

import random
from itertools import product

import pytest

from preassoc import checks
from preassoc.core import EPSILON, TableFn
from preassoc.enumeration import (
    all_associative_extensions,
    all_operations,
    default_chain,
    epsilon_standard_at,
)
from preassoc.errors import NotAnOperationError
from preassoc.families import MedianParams, make_median_family

#: property -> (decider, reference scan), by name in ``preassoc.checks``
DECIDED = {
    "preassociative_P1": ("_p1_cases", "_p1_scan"),
    "replication_preinvariant": ("_prepl_cases", "_prepl_scan"),
    "associative_A2": ("_a2_cases", "_a2_scan"),
}


def _operations_2_2():
    return all_operations(default_chain(2), 2)


def _epsilon_standard_2_3():
    chain = default_chain(2)
    return (epsilon_standard_at(chain, 3, i) for i in range(16384))


def _foreign_2_3():
    chain = default_chain(2)
    relabel = {"0": "q", "1": "p"}
    for i in range(0, 16384, 7):
        fn = epsilon_standard_at(chain, 3, i)
        entries = {t: relabel[v] for t, v in fn.entries.items()}
        for default in (EPSILON, "q"):
            yield TableFn(chain, ("q", "p"), 3, default, entries)


def _chain3_arity2():
    chain = default_chain(3)
    values = chain.elements + (EPSILON,)
    slots = [t for n in (1, 2) for t in product(chain.elements, repeat=n)]
    rng = random.Random(20141)
    for _ in range(3000):
        entries = {t: rng.choice(values) for t in slots}
        yield TableFn(chain, values, 2, rng.choice(values), entries)
    # associative ones, so that every property also holds somewhere
    yield from all_associative_extensions(chain, 2)


UNIVERSES = {
    "operations-2-2": _operations_2_2,
    "epsilon-standard-2-3": _epsilon_standard_2_3,
    "foreign-2-3": _foreign_2_3,
    "sample-3-2": _chain3_arity2,
}


def _refused(prop, fn):
    return prop == "associative_A2" and not (fn.is_operation and fn.default is EPSILON)


@pytest.mark.parametrize("universe", UNIVERSES)
@pytest.mark.parametrize("prop", DECIDED)
def test_checker_agrees_with_scan(prop, universe, monkeypatch):
    decider_name, scan_name = DECIDED[prop]
    decider = getattr(checks, decider_name)
    scan = getattr(checks, scan_name)
    # the checker reaches the scan only when the decider fails; hand it the
    # verdict computed here, so that each table is scanned once
    ref = None
    monkeypatch.setattr(checks, scan_name, lambda fn: ref)
    holding = tested = 0
    for fn in UNIVERSES[universe]():
        if _refused(prop, fn):
            with pytest.raises((NotAnOperationError, ValueError)):
                checks.CHECKERS[prop](fn)
            continue
        ref = scan(fn)
        assert checks.CHECKERS[prop](fn) == ref
        assert (decider(fn) is not None) == ref.holds
        tested += 1
        holding += ref.holds
    if (prop, universe) == ("associative_A2", "foreign-2-3"):
        assert tested == 0  # A2 needs an operation
    else:
        assert 0 < holding < tested


def test_holding_tables_never_enter_the_scans(monkeypatch):
    def refuse(fn):
        raise AssertionError("the exhaustive scan was entered")

    for _, scan_name in DECIDED.values():
        monkeypatch.setattr(checks, scan_name, refuse)
    chain4 = default_chain(4)
    constant = TableFn(
        chain4, chain4.elements, 5, EPSILON,
        {t: "2" for n in range(1, 6) for t in product(chain4.elements, repeat=n)},
    )
    median = make_median_family(MedianParams("0", "3", "1", "2"), chain4, 5)
    # cases_checked as the scans count them (frozen from the scans themselves)
    expected = {
        "constant": {
            "preassociative_P1": 1614254,
            "replication_preinvariant": 208,
            "associative_A2": 245052,
        },
        "median": {
            "preassociative_P1": 763160,
            "replication_preinvariant": 58,
            "associative_A2": 245052,
        },
    }
    for name, fn in (("constant", constant), ("median", median)):
        for prop in DECIDED:
            v = checks.CHECKERS[prop](fn)
            assert v.holds and v.witness is None
            assert v.cases_checked == expected[name][prop]

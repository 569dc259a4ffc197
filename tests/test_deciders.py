"""The fast paths of the checkers against exhaustive references.

Each decider (A2, P1, P2, replication-preinvariance) returns the exhaustive
scan's ``cases_checked`` when the property holds and None otherwise, and the
checker answers from it without entering the scan.  Over whole small
universes the checker's verdict must equal the scan's, and the decider must
say "holds" exactly when the scan does.

A1 and A3 visit their candidates in witness-key order and stop at the first
violation.  Their verdicts, witness and ``cases_checked`` included, must
equal those of the exhaustive scans that race every violation for the least
key, kept here as the reference.
"""

import random
from itertools import product

import pytest

from preassoc import checks
from preassoc.core import EPSILON, TableFn, Verdict, Witness
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
    "preassociative_P2": ("_p2_cases", "_check_p2"),
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
            "preassociative_P2": 7737,
            "replication_preinvariant": 208,
            "associative_A2": 245052,
        },
        "median": {
            "preassociative_P1": 763160,
            "preassociative_P2": 7737,
            "replication_preinvariant": 58,
            "associative_A2": 245052,
        },
    }
    for name, fn in (("constant", constant), ("median", median)):
        for prop in DECIDED:
            v = checks.CHECKERS[prop](fn)
            assert v.holds and v.witness is None
            assert v.cases_checked == expected[name][prop]


# ---------------------------------------------------------------------------
# A1 and A3: the first key-ordered violation against the least of all
# ---------------------------------------------------------------------------


def _least(prop, fn, cases, violations):
    """The verdict whose witness has the least (total, chain indices, lengths) key.

    Each violation is (total length, parts, values, note).
    """
    index = fn.domain.index

    def key(violation):
        tuples = [t for _, t in violation[1]]
        return (violation[0], tuple(index(s) for t in tuples for s in t), tuple(map(len, tuples)))

    shortest = min((v[0] for v in violations), default=None)
    least = min((v for v in violations if v[0] == shortest), key=key, default=None)
    witness = None if least is None else Witness(least[1], least[2], note=least[3])
    return Verdict(prop, least is None, cases, witness, fn.max_arity)


_SUBST = "substituted-epsilon: nonempty inner block evaluates to ε"


def _reference_a1(fn):
    table = fn._table
    elements, n = fn.domain.elements, fn.max_arity
    candidates = [
        (x, y, z)
        for x, z in checks._context_pairs(elements, n - 1)
        for y in checks._all_tuples(elements, n - len(x) - len(z))
    ]
    violations = []
    for x, y, z in candidates:
        parts = (("x", x), ("y", y), ("z", z))
        total = len(x) + len(y) + len(z)
        vy = table[y]
        if vy is EPSILON:
            if y:
                violations.append((total, parts, (("F(y)", EPSILON),), _SUBST))
            continue
        lhs, rhs = table[x + y + z], table[x + (vy,) + z]
        if lhs != rhs:
            violations.append((total, parts, (("F(x,y,z)", lhs), ("F(x,F(y),z)", rhs)), ""))
    return _least("associative_A1", fn, len(candidates), violations)


def _reference_a3(fn):
    table = fn._table
    by_len = checks._tuples_by_len(fn.domain.elements, fn.max_arity)
    violations = []
    cases = 0
    for total in range(fn.max_arity + 1):
        for i in range(total + 1):
            for x, y in product(by_len[i], by_len[total - i]):
                cases += 1
                parts = (("x", x), ("y", y))
                vx, vy = table[x], table[y]
                if (vx is EPSILON and x) or (vy is EPSILON and y):
                    note = "substituted-epsilon: nonempty block evaluates to ε"
                    violations.append((total, parts, (("F(x)", vx), ("F(y)", vy)), note))
                    continue
                lhs = table[x + y]
                rhs = table[checks._wrap(vx) + checks._wrap(vy)]
                if lhs != rhs:
                    values = (("F(x,y)", lhs), ("F(F(x),F(y))", rhs))
                    violations.append((total, parts, values, ""))
    return _least("associative_A3", fn, cases, violations)


ASSOC_UNIVERSES = {
    "operations-2-2": _operations_2_2,
    "epsilon-standard-2-3": _epsilon_standard_2_3,
    "extensions-3-3": lambda: all_associative_extensions(default_chain(3), 3),
}


@pytest.mark.parametrize("universe", ASSOC_UNIVERSES)
@pytest.mark.parametrize("form", ["A1", "A3"])
def test_key_ordered_scan_matches_reference(form, universe):
    reference = {"A1": _reference_a1, "A3": _reference_a3}[form]
    holding = tested = 0
    for fn in ASSOC_UNIVERSES[universe]():
        if form == "A3" and fn.default is not EPSILON:
            continue
        ref = reference(fn)
        assert checks.check_associative(fn, form) == ref
        tested += 1
        holding += ref.holds
    assert holding > 0
    if universe == "extensions-3-3":
        assert holding == tested == 164
    else:
        assert holding < tested

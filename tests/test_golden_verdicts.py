"""Frozen verdicts of every checker over fixed input corpora.

Any change to a checker's verdict (holds, minimal witness, max arity, extra
annotations) or to its refusal of an input changes ``VERDICT_DIGEST``.  The
per-property sums of ``cases_checked`` are frozen separately as a readable
dict, so a change that only alters how many cases a checker visits re-freezes
that dict and nothing else.  ``UNIVERSE_DIGEST`` covers every checker on every
table of the 2-chain/arity-3 sweep, where the corpus samples every 64th.
"""

import hashlib

import pytest

from preassoc.checks import CHECKERS, PROPERTY_NAMES
from preassoc.core import EPSILON, Chain, TableFn
from preassoc.enumeration import all_operations, default_chain, epsilon_standard_at
from preassoc.errors import NotAnOperationError
from preassoc.families import MedianParams, make_median_family, make_variadic_seed, tabulate

VERDICT_DIGEST = "b9f68ed7016ed5423bde19fc6deef0a3b9a06b510ea60a251bd8561362e6e671"

UNIVERSE_DIGEST = "d4a34990767f8acd1f057fe54abcca685137bc473f9faefcd8a31e7ca3bccfb9"

CASES_CHECKED = {
    "standard": 10782,
    "epsilon_standard": 5896,
    "associative_A1": 63638,
    "associative_A2": 169035,
    "associative_A3": 26120,
    "preassociative_P1": 77369,
    "preassociative_P2": 54042,
    "unarily_idempotent": 3443,
    "unarily_range_idempotent": 7859,
    "unarily_quasi_range_idempotent": 11965,
    "range_idempotent": 8960,
    "idempotent": 10329,
    "replication_invariant": 5681,
    "replication_preinvariant": 2827,
    "nondecreasing": 17026,
    "nonincreasing": 17026,
    "symmetric": 12890,
    "convex_sections": 16586,
}


def _corpus():
    chain2 = default_chain(2)
    yield from all_operations(chain2, 2)
    for index in range(0, 16384, 64):
        yield epsilon_standard_at(chain2, 3, index)
    # non-operations: the same tables relabeled into a foreign codomain
    relabel = {"0": "q", "1": "p"}
    for index in range(0, 16384, 256):
        fn = epsilon_standard_at(chain2, 3, index)
        entries = {t: relabel[v] for t, v in fn.entries.items()}
        yield TableFn(chain2, ("q", "p"), 3, EPSILON, entries)
    # the README examples
    yield make_median_family(MedianParams("0", "3", "1", "1"), default_chain(4), 3)
    yield make_variadic_seed("tnorm", "lukasiewicz", [0, 0.25, 0.5, 0.75, 1], 3)
    chain3 = Chain(("0", "1", "2"))
    yield tabulate(chain3.meet, chain3, max_arity=3)
    yield make_median_family(MedianParams("0", "2", "1", "1"), chain3, 3)


@pytest.fixture(scope="module")
def golden():
    digest = hashlib.sha256()
    cases = dict.fromkeys(PROPERTY_NAMES, 0)
    for fn in _corpus():
        for prop in PROPERTY_NAMES:
            try:
                v = CHECKERS[prop](fn)
            except (NotAnOperationError, ValueError) as exc:
                record = (prop, "refused", type(exc).__name__)
            else:
                record = (v.property, v.holds, v.witness, v.max_arity, v.extra)
                cases[prop] += v.cases_checked
            digest.update(repr(record).encode("utf-8") + b"\n")
    return digest.hexdigest(), cases


def test_verdicts_match_frozen_digest(golden):
    assert golden[0] == VERDICT_DIGEST


def test_cases_checked_match_frozen_sums(golden):
    assert golden[1] == CASES_CHECKED


def test_whole_sweep_universe_matches_frozen_digest():
    # all 16 384 default-ε tables, each checker's verdict with its cases and witness
    chain2 = default_chain(2)
    digest = hashlib.sha256()
    for index in range(16384):
        fn = epsilon_standard_at(chain2, 3, index)
        for prop in PROPERTY_NAMES:
            v = CHECKERS[prop](fn)
            digest.update(repr((v.property, v.holds, v.cases_checked, v.witness, v.extra)).encode())
            digest.update(b"\n")
    assert digest.hexdigest() == UNIVERSE_DIGEST

"""The fast paths of the checkers against exhaustive references.

P1, P2 and replication-preinvariance compare tuples of one value class.
Their checkers set each tuple beside the first of its class (P1,
replication-preinvariance) or each bucket's first split in key order beside
its first split of another value (P2, one walk in ``_p2_scan``).  Their
verdicts, witness and ``cases_checked`` included, must equal those of
exhaustive scans that race every same-class pair for the least key (P2:
every pair of splits in one bucket), kept here as the reference.  The bit
the sweep's reference reads for each (``_p1_pass``, ``_p2_scan`` and the
replication-preinvariance checker, which has no decider) must say "holds"
exactly when the reference does.

A1, A2, A3 and the idempotence, replication, order and symmetry laws visit
their candidates in witness-key order and stop at the first violation.  Their
verdicts must likewise equal those of the exhaustive scans that race every
violation for the least key; a refusal must raise the same exception type.

A1, A2, A3, P1 and P2 decide a holding verdict by a linear test
(``_a1_holds``, ``_p1_cases``) and scan only when it refuses; a holding A1
counts its candidates in closed form, without listing them.  The public
checkers are held to the references on universes that reach every refusal,
and the scans themselves on holding tables, which the checkers no longer
scan.  The P1 pass and the A1 verdict are made once per table and kept on
it; verdicts read off a table's kept answers must equal those of a fresh
copy.  The sweep, which decides its laws on masks, must run none of these.
The P1 pass counts distinct (value, one-letter signature) pairs over the
tuples shorter than N: its answer, None or the scan's ``cases_checked``,
must equal the scan's on tables whose classes span every layer, and its
index array must locate each one-letter extension.

The order laws read each arity's values as one list, and the one-value
laws the set of attained values; the test that refutes a law also names
its least witness.  Their public verdicts must equal exhaustive references
(the racing loops of the order laws, and a walk over every nonempty tuple
for the one-value laws) on every universe here and on medians, catalog
seeds and near-monotone and near-symmetric tables.  Hand-built tables whose
lowest failing arity holds several violations pin the tie-breaks.

Every table of those universes that ``factorize`` accepts is rebuilt by
``core.compose`` from its factors.

P2's walk builds no key for a conflict longer than the least total so
far; its verdicts must equal those of the same walk keying every conflict,
kept here, on the near-injective probes that fill the checkers' caches
before the benchmark's timed passes.  The monotone laws decide a layer by
subtraction in integer lanes; their verdicts must equal those of the
section getters' reads compared pairwise, kept here, on whole universes,
medians and tables whose ranks fill 8-, 16- and 32-bit lanes.

Replication-invariance visits only the tuples up to length N // 2, the
ones a replica fits; its verdict must equal the reference's walk over
every nonempty tuple, on medians too.  A table built from entries out of
tuple order reads its value row through the dict; its verdicts, function
digest and factorization must equal those of the same table built in
order.
"""

import copy
import dataclasses
import pickle
import random
from collections import Counter
from functools import cache, partial
from itertools import combinations, product
from math import comb
from operator import gt

import pytest

from preassoc import checks, enumeration
from preassoc.core import EPSILON, TableFn, Verdict, Witness, _positions, compose
from preassoc.enumeration import (
    all_associative_extensions,
    all_operations,
    default_chain,
    epsilon_standard_at,
    equivalence_sweep,
    preassociative_tables,
)
from preassoc.errors import GridClosureError, NotAnOperationError, PreconditionError
from preassoc.factorize import factorize
from preassoc.families import (
    TCONORMS,
    TNORMS,
    UNINORMS,
    MedianParams,
    lift_tnorm,
    make_median_family,
    make_variadic_seed,
    tabulate,
)
from preassoc.serialization import function_digest, read_function, save_function

from conftest import tuple_table


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


def _near_constant_2_5():
    # one class of nearly every tuple, and P1 witnesses with long contexts
    chain = default_chain(2)
    slots = chain.tuples_up_to(5)[1:]
    rng = random.Random(20145)
    for _ in range(200):
        entries = dict.fromkeys(slots, "0")
        for t in rng.sample(slots, rng.randint(1, 3)):
            entries[t] = "1"
        yield TableFn(chain, chain.elements, 5, EPSILON, entries)


def _three_values_3_3():
    # buckets of P2 with three values, whose splits walk and key orders rank apart
    chain = default_chain(3)
    slots = chain.tuples_up_to(3)[1:]
    rng = random.Random(20143)
    for _ in range(1000):
        entries = {t: rng.choice("abc") for t in slots}
        yield TableFn(chain, ("a", "b", "c"), 3, EPSILON, entries)


def _once(generate):
    """A universe built on first use and shared by every test over it."""
    return cache(lambda: tuple(generate()))


UNIVERSES = {
    "operations-2-2": _once(_operations_2_2),
    "epsilon-standard-2-3": _once(_epsilon_standard_2_3),
    "foreign-2-3": _once(_foreign_2_3),
    "sample-3-2": _once(_chain3_arity2),
}

PAIR_UNIVERSES = {
    **UNIVERSES,
    "three-values-3-3": _once(_three_values_3_3),
    "near-constant-2-5": _once(_near_constant_2_5),
}


# ---------------------------------------------------------------------------
# Pair laws against the former same-class pair races
# ---------------------------------------------------------------------------


def _least(prop, fn, cases, violations):
    """The verdict whose witness has the least (total, chain indices, lengths, scalars) key.

    Each violation is (total length, parts, values, scalars, note), the
    fields of its ``Witness`` after the total; the first of equal keys wins.
    """
    index = fn.domain.index

    def key(violation):
        tuples = [t for _, t in violation[1]]
        flat = tuple(index(s) for t in tuples for s in t)
        return (flat, tuple(map(len, tuples)), tuple(v for _, v in violation[3]))

    shortest = min((v[0] for v in violations), default=None)
    least = min((v for v in violations if v[0] == shortest), key=key, default=None)
    witness = None if least is None else Witness(*least[1:])
    return Verdict(prop, least is None, cases, witness, fn.max_arity)


def _value_classes(fn, table):
    """Tuples of length 0..N grouped by value in ``table``, each class in canonical order."""
    classes = {}
    for t in fn.domain.tuples_up_to(fn.max_arity):
        classes.setdefault(table[t], []).append(t)
    return classes.values()


def _reference_p1(fn):
    """Every same-class pair (y, y') over every context within N - |y'|."""
    table = tuple_table(fn)
    n = fn.max_arity
    violations = []
    cases = 0
    for group in _value_classes(fn, table):
        for y, yp in combinations(group, 2):  # canonical order: len(y) <= len(yp)
            contexts = checks._context_pairs(fn.domain, n - len(yp))
            cases += len(contexts)
            for x, z in contexts:
                lhs, rhs = table[x + y + z], table[x + yp + z]
                if lhs != rhs:
                    parts = (("x", x), ("y", y), ("y'", yp), ("z", z))
                    values = (("F(x,y,z)", lhs), ("F(x,y',z)", rhs))
                    total = len(x) + len(y) + len(yp) + len(z)
                    violations.append((total, parts, values, (), ""))
    return _least("preassociative_P1", fn, cases, violations)


def _reference_p2(fn):
    """Every pair of splits x·y in one (F(x), F(y)) bucket that differ in F(x·y).

    Pairs are not listed once a shorter violation is known: the key compares
    total length first.
    """
    table = tuple_table(fn)
    chain, n = fn.domain, fn.max_arity
    by_len = [chain.tuples(i) for i in range(n + 1)]
    buckets = {}  # (F(x), F(y)) -> its splits (total, x, y, F(x·y)), shortest first
    for total in range(n + 1):
        for i in range(total + 1):
            for x, y in product(by_len[i], by_len[total - i]):
                buckets.setdefault((table[x], table[y]), []).append((total, x, y, table[x + y]))
    violations = []
    shortest = 2 * n  # totals stay <= 2N
    for splits in buckets.values():
        for i, first in enumerate(splits):
            for second in splits[i + 1 :]:
                total = first[0] + second[0]
                if total > shortest:
                    break
                if first[3] == second[3]:
                    continue
                (_, x, y, vf), (_, xp, yp, vs) = sorted(
                    (first, second), key=lambda s: checks._index_key(chain, s[1], s[2])
                )
                parts = (("x", x), ("y", y), ("x'", xp), ("y'", yp))
                violations.append((total, parts, (("F(x,y)", vf), ("F(x',y')", vs)), (), ""))
                shortest = total
    cases = sum((t + 1) * len(chain) ** t for t in range(n + 1))  # the contexts within N
    return _least("preassociative_P2", fn, cases, violations)


def _reference_prepl(fn):
    """Every same-class pair at k = 2, 3, ... up to its first failing k."""
    table = tuple_table(fn)
    n = fn.max_arity
    violations = []
    cases = 0
    for group in _value_classes(fn, table):
        for x, y in combinations(group, 2):
            kmax = n // max(len(x), len(y), 1)  # ε fits every k <= n
            for k in range(2, kmax + 1):
                cases += 1
                vx, vy = table[x * k], table[y * k]
                if vx != vy:
                    parts = (("x", x), ("y", y))
                    values = (("F(k·x)", vx), ("F(k·y)", vy))
                    violations.append((len(x) + len(y), parts, values, (("k", k),), ""))
                    break
    return _least("replication_preinvariant", fn, cases, violations)


#: property -> (reference, the bit the sweep's reference reads in ``test_orbit_sweep``)
PAIR_LAWS = {
    "preassociative_P1": (_reference_p1, lambda fn: checks._p1_pass(fn) is not None),
    "preassociative_P2": (_reference_p2, lambda fn: checks._p2_scan(fn).holds),
    "replication_preinvariant": (
        _reference_prepl, lambda fn: checks.check_replication_preinvariant(fn).holds
    ),
}


@pytest.mark.parametrize("universe", PAIR_UNIVERSES)
@pytest.mark.parametrize("prop", PAIR_LAWS)
def test_pair_law_matches_reference(prop, universe):
    reference, bit = PAIR_LAWS[prop]
    holding = tested = 0
    for fn in PAIR_UNIVERSES[universe]():
        ref = reference(fn)
        assert checks.CHECKERS[prop](fn) == ref
        assert bit(fn) == ref.holds
        tested += 1
        holding += ref.holds
    assert holding < tested
    assert holding > 0 or universe not in UNIVERSES


def test_p1_scan_matches_reference_on_holding_tables():
    # the P1 checker answers holding tables from ``_p1_cases``; the scan must agree
    tables = [fn for fn in UNIVERSES["sample-3-2"]() if checks._p1_cases(fn) is not None]
    assert len(tables) > 100
    for fn in tables:
        assert checks._p1_scan(fn) == _reference_p1(fn)


def test_p2_scan_matches_reference_on_holding_tables():
    # the P2 checker answers tables that hold P1 from ``_p1_cases``; the scan must agree
    tables = [
        fn
        for universe in ("foreign-2-3", "sample-3-2")
        for fn in UNIVERSES[universe]()
        if checks._p1_cases(fn) is not None
    ]
    assert len(tables) > 100
    assert any(not fn.is_operation for fn in tables)  # foreign codomains among them
    for fn in tables:
        ref = _reference_p2(fn)
        assert ref.holds
        assert checks._p2_scan(fn) == ref


def _p2_scan_keying_every_conflict(fn):
    """``checks._p2_scan`` building the key of every bucket's first conflict."""
    chain, n, row = fn.domain, fn.max_arity, fn._row
    pos = _positions(chain.elements, n)
    splits = checks._context_pairs(chain, n)
    first = {}
    key, witness = (2 * n + 1,), None
    for xp, yp in splits:
        if len(xp) + len(yp) > key[0]:
            break
        bucket = (row[pos[xp]], row[pos[yp]])
        vs = row[pos[xp + yp]]
        a = first.get(bucket)
        if a is None:
            first[bucket] = (xp, yp, vs)
        elif a and a[2] != vs:
            first[bucket] = ()
            x, y, vf = a
            if (found := checks._index_key(chain, x, y, xp, yp)) < key:
                key, witness = found, Witness(
                    (("x", x), ("y", y), ("x'", xp), ("y'", yp)), (("F(x,y)", vf), ("F(x',y')", vs))
                )
    return Verdict("preassociative_P2", witness is None, len(splits), witness, n)


def _warm_up_probe(k, n):
    # every tuple its own value but the two constant tuples of each length,
    # which share one: the probe that fills the checkers' caches before timing
    chain = default_chain(k)
    labels = {t: ",".join(t) for t in chain.tuples_up_to(n)[1:]}
    for m in range(1, n + 1):
        labels[(chain.elements[0],) * m] = labels[(chain.elements[-1],) * m] = f"pair{m}"
    return TableFn(chain, tuple(dict.fromkeys(labels.values())), n, EPSILON, labels)


def test_p2_scan_keys_only_conflicts_that_can_be_least():
    probes = [_warm_up_probe(4, 5), _warm_up_probe(5, 4)]
    # three-valued buckets on the 3-chain hold later conflicts of the same total that key less
    tables = (*probes, *UNIVERSES["operations-2-2"](), *PAIR_UNIVERSES["three-values-3-3"]())
    for fn in tables:
        assert checks._p2_scan(fn) == _p2_scan_keying_every_conflict(fn), fn
    assert not any(checks._p2_scan(fn).holds for fn in probes)


def test_near_constant_p1_witnesses_have_long_contexts():
    contexts = {
        len(w.part("x")) + len(w.part("z"))
        for fn in PAIR_UNIVERSES["near-constant-2-5"]()
        if (w := checks.check_preassociative(fn, "P1").witness) is not None
    }
    assert max(contexts) == 4


@pytest.mark.parametrize(
    "index, x, y, xp, yp, vf, vs",
    [
        # splits ranked by |x| before the word would give x' = (1), y' = (1,0) here
        (17, "1", "0", "00", "0", "1", "0"),
        (33, "1", "1", "00", "1", "1", "0"),  # ... and x' = (1), y' = (0,0)
        (150, "0", "0", "01", "0", "1", "0"),  # ... and x' = (0), y' = (1,1)
        (16366, "1", "0", "00", "0", "0", "1"),  # ... and x' = (1), y' = (1,0)
    ],
)
def test_p2_witness_is_the_least_split_pair(index, x, y, xp, yp, vf, vs):
    fn = epsilon_standard_at(default_chain(2), 3, index)
    least = Witness(
        (("x", tuple(x)), ("y", tuple(y)), ("x'", tuple(xp)), ("y'", tuple(yp))),
        (("F(x,y)", vf), ("F(x',y')", vs)),
    )
    assert checks.check_preassociative(fn, "P2").witness == least
    assert _reference_p2(fn).witness == least


#: The laws on single attained values, decided on the set of entry values.
ONE_VALUE_LAWS = (
    "standard", "epsilon_standard", "unarily_range_idempotent", "unarily_quasi_range_idempotent"
)

#: The laws on the order of the chain and the codomain, decided layer by layer.
ORDER_LAWS = ("nondecreasing", "nonincreasing", "symmetric", "convex_sections")


def test_holding_tables_never_enter_the_scans(monkeypatch):
    # PREPL has no separate scan to enter; for it the counts are checked
    def refuse(fn):
        raise AssertionError("the exhaustive scan was entered")

    for scan in ("_p1_scan", "_p2_scan", "_a1_scan", "_a3_scan"):
        monkeypatch.setattr(checks, scan, refuse)
    chain4 = default_chain(4)
    constant = TableFn(
        chain4, chain4.elements, 5, EPSILON,
        {t: "2" for n in range(1, 6) for t in product(chain4.elements, repeat=n)},
    )
    median = make_median_family(MedianParams("0", "3", "1", "2"), chain4, 5)
    # cases_checked as the pair races and the walks count them (frozen from them)
    expected = {
        "constant": {
            "preassociative_P1": 1614254,
            "preassociative_P2": 7737,
            "replication_preinvariant": 208,
            "associative_A1": 19949,
            "associative_A2": 245052,
            "associative_A3": 7737,
            "nondecreasing": 4779,
            "nonincreasing": 4779,
            "symmetric": 1360,
            "convex_sections": 1593,
            **dict.fromkeys(ONE_VALUE_LAWS, 1364),
        },
        "median": {
            "preassociative_P1": 763160,
            "preassociative_P2": 7737,
            "replication_preinvariant": 58,
            "associative_A1": 19949,
            "associative_A2": 245052,
            "associative_A3": 7737,
            "nondecreasing": 4779,  # c != d, so not symmetric, and not nonincreasing
            "convex_sections": 1593,
            **dict.fromkeys(ONE_VALUE_LAWS, 1364),
        },
    }
    for name, fn in (("constant", constant), ("median", median)):
        for prop in expected[name]:
            v = checks.CHECKERS[prop](fn)
            assert v.holds and v.witness is None
            assert v.cases_checked == expected[name][prop]


# ---------------------------------------------------------------------------
# First key-ordered violations against the least of all
# ---------------------------------------------------------------------------


_SUBST = "substituted-epsilon: nonempty inner block evaluates to ε"


def _reference_a1(fn):
    table = tuple_table(fn)
    chain, n = fn.domain, fn.max_arity
    candidates = [
        (x, y, z)
        for x, z in checks._context_pairs(chain, n - 1)
        for y in chain.tuples_up_to(n - len(x) - len(z))
    ]
    violations = []
    for x, y, z in candidates:
        parts = (("x", x), ("y", y), ("z", z))
        total = len(x) + len(y) + len(z)
        vy = table[y]
        if vy is EPSILON:
            if y:
                violations.append((total, parts, (("F(y)", EPSILON),), (), _SUBST))
            continue
        lhs, rhs = table[x + y + z], table[x + (vy,) + z]
        if lhs != rhs:
            values = (("F(x,y,z)", lhs), ("F(x,F(y),z)", rhs))
            violations.append((total, parts, values, (), ""))
    return _least("associative_A1", fn, len(candidates), violations)


def _reference_a2(fn):
    """Every pair of decompositions of every word, substituted ε apart.

    As in the racing scan this replaces, pairs are not listed once a shorter
    violation is known: the key compares total length first.
    """
    table = tuple_table(fn)
    violations = []
    shortest = None  # the least total length listed so far
    cases = 0
    for w in fn.domain.tuples_up_to(fn.max_arity):
        n = len(w)
        cases += comb((n + 1) * (n + 2) // 2, 2)  # pairs of decompositions
        if shortest is not None and shortest < n:
            continue  # every violation on w has total n or 2n
        results = []  # ((x, y, z), F(x, F(y), z)) where F(y) is not a substituted ε
        for i in range(n + 1):
            for j in range(n - i + 1):
                x, y, z = w[:i], w[i : i + j], w[i + j :]
                vy = table[y]
                if vy is EPSILON and y:
                    parts = (("x", x), ("y", y), ("z", z))
                    violations.append((n, parts, (("F(y)", EPSILON),), (), _SUBST))
                    shortest = n if shortest is None else min(shortest, n)
                    continue
                results.append(((x, y, z), table[x + checks._wrap(vy) + z]))
        if len({v for _, v in results}) == 1 or (shortest is not None and shortest < 2 * n):
            continue  # no two decompositions differ, or none can be the least
        for ((x, y, z), v1), ((xp, yp, zp), v2) in combinations(results, 2):
            if v1 != v2:
                parts = (("x", x), ("y", y), ("z", z), ("x'", xp), ("y'", yp), ("z'", zp))
                values = (("F(x,F(y),z)", v1), ("F(x',F(y'),z')", v2))
                violations.append((2 * n, parts, values, (), ""))
                shortest = 2 * n if shortest is None else min(shortest, 2 * n)
    return _least("associative_A2", fn, cases, violations)


def _reference_a3(fn):
    table = tuple_table(fn)
    by_len = [fn.domain.tuples(i) for i in range(fn.max_arity + 1)]
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
                    violations.append((total, parts, (("F(x)", vx), ("F(y)", vy)), (), note))
                    continue
                lhs = table[x + y]
                rhs = table[checks._wrap(vx) + checks._wrap(vy)]
                if lhs != rhs:
                    values = (("F(x,y)", lhs), ("F(F(x),F(y))", rhs))
                    violations.append((total, parts, values, (), ""))
    return _least("associative_A3", fn, cases, violations)


ASSOC_UNIVERSES = {
    "operations-2-2": UNIVERSES["operations-2-2"],
    "epsilon-standard-2-3": UNIVERSES["epsilon-standard-2-3"],
    "extensions-3-3": lambda: all_associative_extensions(default_chain(3), 3),
}


@pytest.mark.parametrize("universe", ASSOC_UNIVERSES)
@pytest.mark.parametrize("form", ["A1", "A2", "A3"])
def test_key_ordered_scan_matches_reference(form, universe):
    reference = {"A1": _reference_a1, "A2": _reference_a2, "A3": _reference_a3}[form]
    holding = tested = 0
    for fn in ASSOC_UNIVERSES[universe]():
        if form != "A1" and fn.default is not EPSILON:
            with pytest.raises(ValueError, match="default ε"):
                checks.check_associative(fn, form)
            continue
        ref = reference(fn)
        assert checks.check_associative(fn, form) == ref
        assert checks._a1_holds(fn) == ref.holds  # A1 ⇔ A2 ⇔ A3 at default ε
        tested += 1
        holding += ref.holds
    assert holding > 0
    if universe == "extensions-3-3":
        assert holding == tested == 164
    else:
        assert holding < tested


def test_operations_reach_every_refusal_of_the_assoc_decider():
    # the first law each table breaks, in the order ``_a1_holds`` tests them
    reasons = Counter()
    for fn in UNIVERSES["operations-2-2"]():
        values = set(fn.entries.values())
        if EPSILON in values:
            reasons["nonempty tuple valued ε"] += 1
        elif fn.default is not EPSILON and fn((fn.default,)) != fn.default:
            reasons["F((d,)) != d"] += 1
        elif any(fn((v,)) != v for v in values):
            reasons["F((v,)) != v"] += 1
        elif checks._p1_cases(fn) is None:
            reasons["P1 fails"] += 1
        else:
            reasons["holds"] += 1
    assert len(reasons) == 5 and min(reasons.values()) > 0, reasons


@pytest.mark.parametrize("form", ["A1", "A3"])
def test_assoc_scan_matches_reference_on_holding_tables(form):
    # the A1 and A3 checkers answer holding tables from ``_a1_holds``; the scans must agree
    reference = {"A1": _reference_a1, "A3": _reference_a3}[form]
    scan = {"A1": checks._a1_scan, "A3": checks._a3_scan}[form]
    tables = [
        fn
        for universe in ("operations-2-2", "extensions-3-3")
        for fn in ASSOC_UNIVERSES[universe]()
        if (form == "A1" or fn.default is EPSILON) and checks._a1_holds(fn)
    ]
    assert len(tables) > 164
    assert (form == "A1") == any(fn.default is not EPSILON for fn in tables)
    for fn in tables:
        ref = reference(fn)
        assert ref.holds
        assert scan(fn) == ref


def test_sweep_bits_do_not_read_the_assoc_decider(monkeypatch):
    # the sweep decides every law from its definition over the candidate
    # indices: it builds no table and runs no decider, scan or checker, so
    # A1_iff_P1_and_URI, A1_iff_A3 and P1_iff_P2 compare independent
    # computations, and the tests hold the checkers to its bits
    def refuse(*args):
        raise AssertionError("the sweep ran a checker or built a table")

    for name in (
        "_a1_holds",
        "_p1_cases",
        "_once",
        "_a1_scan",
        "_a3_scan",
        "_p1_pass",
        "_p2_scan",
        "check_replication_preinvariant",
        "check_unarily_range_idempotent",
        "check_unarily_quasi_range_idempotent",
        "check_range_idempotent",
        "check_replication_invariant",
    ):
        monkeypatch.setattr(checks, name, refuse)
    monkeypatch.setattr(enumeration, "epsilon_standard_at", refuse)
    report = equivalence_sweep(2, 3, workers=1)
    assert report.bits_digest == (
        "6e2403e89b309aa51a3cc0cd519566639f18299222cfce82407d78fc1d342e91"
    )
    assert report.all_equivalences_hold()


def _counted(monkeypatch, name):
    """Wrap ``checks.<name>`` so that its calls are counted; returns the list of tables."""
    calls = []
    inner = getattr(checks, name)

    def counting(fn):
        calls.append(fn)
        return inner(fn)

    monkeypatch.setattr(checks, name, counting)
    return calls


def _median_4_5():
    return make_median_family(MedianParams("0", "3", "1", "2"), default_chain(4), 5)


def test_one_p1_pass_per_table(monkeypatch):
    # A1, A2, A3, P1, P2 and factorize's precondition read F's one pass; H is a new table
    passes = _counted(monkeypatch, "_p1_pass")
    fn = _median_4_5()
    verdicts = checks.run_checks(fn, checks.PROPERTY_NAMES)
    assert all(verdicts[p].holds for p in ("associative_A1", "preassociative_P1"))
    assert len(passes) == 1
    fac = factorize(fn)
    assert len(passes) == 2
    assert passes[0] is fn and passes[1] is fac.H


def test_holding_a1_builds_no_candidate_list():
    checks._assoc_candidates.cache_clear()
    verdict = checks.check_associative(_median_4_5())
    assert verdict.holds and verdict.cases_checked == 19949
    assert checks._assoc_candidates.cache_info().currsize == 0


def test_holding_tables_build_no_entry_dict(tmp_path):
    # the checkers, factorize and the canonical read keep nothing on a table but its fields
    fields = {f.name for f in dataclasses.fields(TableFn)}
    fn = _median_4_5()
    verdicts = checks.run_checks(fn, checks.PROPERTY_NAMES)
    assert all(verdicts[p].holds for p in ("associative_A1", "preassociative_P1"))
    fac = factorize(fn)
    assert set(vars(fn)) == set(vars(fac.H)) == fields
    path = tmp_path / "median.json"
    save_function(fn, path)
    read, _ = read_function(path)
    assert checks.run_checks(read, checks.PROPERTY_NAMES) == verdicts
    assert read == fn and set(vars(read)) == fields


@pytest.mark.parametrize(
    "k, n", [(k, n) for k in range(1, 6) for n in range(1, 6) if k < 5 or n < 5]
)
def test_holding_a1_counts_every_candidate(k, n):
    # the closed form of a holding verdict against the list the scan walks
    chain = default_chain(k)
    verdict = checks.check_associative(tabulate(chain.meet, chain, n))
    assert verdict.holds
    assert verdict.cases_checked == len(checks._assoc_candidates(chain, n))


def test_a2_reads_the_a1_verdict_once(monkeypatch):
    scans = _counted(monkeypatch, "_a1_scan")
    median = _median_4_5()
    entries = dict(median.entries)
    entries[("3", "3", "3", "3", "2")] = "0"
    fn = TableFn(median.domain, median.codomain, 5, EPSILON, entries)
    verdicts = checks.run_checks(fn, checks.PROPERTY_NAMES)
    assert not verdicts["associative_A1"].holds and not verdicts["associative_A2"].holds
    assert scans == [fn]
    fresh = copy.copy(fn)
    assert checks.check_associative(fresh, "A2") == verdicts["associative_A2"]
    assert scans == [fn, fresh]


def test_kept_answers_are_invisible(monkeypatch):
    fn = _median_4_5()
    before = (repr(fn), pickle.dumps(fn))
    checks.run_checks(fn, checks.PROPERTY_NAMES)
    assert fn._decided  # the run kept its answers
    assert (repr(fn), pickle.dumps(fn)) == before
    passes = _counted(monkeypatch, "_p1_pass")
    for rebuilt in (copy.copy(fn), copy.deepcopy(fn), pickle.loads(pickle.dumps(fn))):
        assert rebuilt == fn and rebuilt._decided is None
        assert checks.check_preassociative(rebuilt) == checks.check_preassociative(fn)
        assert passes[-1] is rebuilt  # a rebuilt table decides afresh
    assert len(passes) == 3


def test_kept_answers_equal_fresh_ones():
    # run_checks shares one P1 pass and one A1 verdict among the laws; each
    # checker on its own rebuilt copy of the table must give the same verdict
    tested = 0
    for fn in UNIVERSES["operations-2-2"]():
        names = [
            n for n in checks.PROPERTY_NAMES
            if fn.default is EPSILON or n not in checks.EPSILON_DEFAULT_ONLY
        ]
        shared = checks.run_checks(fn, names)
        assert shared == {n: checks.CHECKERS[n](copy.copy(fn)) for n in names}
        tested += 1
    assert tested == 2187


def _split_universe(chain, n, parts):
    """Every split of every word up to length n into ``parts`` parts, sorted by key."""
    splits = []
    for w in chain.tuples_up_to(n):
        for cuts in combinations(range(len(w) + parts - 1), parts - 1):
            bounds = [c - i for i, c in enumerate(cuts)]  # cuts among the letters, repeats allowed
            ends = [0, *bounds, len(w)]
            splits.append(tuple(w[a:b] for a, b in zip(ends, ends[1:])))
    return sorted(splits, key=lambda split: checks._index_key(chain, *split))


@pytest.mark.parametrize("k, n", [(1, 4), (2, 4), (3, 4), (4, 3)])
def test_split_lists_are_every_split_in_key_order(k, n):
    chain = default_chain(k)
    own = {t: t for t in chain.tuples_up_to(n)}
    lists = {
        b: (checks._context_pairs(chain, b), _split_universe(chain, b, 2)) for b in range(n + 1)
    }
    triples = [s for s in _split_universe(chain, n, 3) if len(s[0]) + len(s[2]) < n]
    lists["A1"] = (checks._assoc_candidates(chain, n), triples)
    for got, brute in lists.values():
        assert list(got) == brute
        assert all(part is own[part] for split in got for part in split)


# The former exhaustive loops of the one-part and order laws, each racing
# every violation for the least key.


def _reference_idempotent(fn):
    checks._require_operation(fn, "idempotent")
    table = tuple_table(fn)
    violations = []
    cases = 0
    for n in range(1, fn.max_arity + 1):
        for u in fn.domain.elements:
            cases += 1
            v = table[(u,) * n]
            if v != u:
                violations.append((n, (("x", (u,) * n),), (("F(x)", v),), (("arity", n),), ""))
    return _least("idempotent", fn, cases, violations)


def _reference_range_idempotent(fn):
    checks._require_operation(fn, "range_idempotent")
    table = tuple_table(fn)
    violations = []
    cases = 0
    seen = set()
    for t in fn.domain.tuples_up_to(fn.max_arity):
        v = table[t]
        if v in seen:
            continue
        seen.add(v)
        if v is EPSILON:
            cases += 1
            if fn.default is not EPSILON:
                values = (("F(x)", EPSILON), ("F(k·F(x))", fn.default))
                violations.append((len(t), (("x", t),), values, (("k", 1),), ""))
            continue
        for k in range(1, fn.max_arity + 1):
            cases += 1
            rep = table[(v,) * k]
            if rep != v:
                values = (("F(x)", v), ("F(k·F(x))", rep))
                violations.append((len(t), (("x", t),), values, (("k", k),), ""))
                break
    return _least("range_idempotent", fn, cases, violations)


def _reference_replication_invariant(fn):
    table = tuple_table(fn)
    violations = []
    cases = 0
    for t in fn.domain.tuples_up_to(fn.max_arity)[1:]:
        v = table[t]
        for k in range(2, fn.max_arity // len(t) + 1):
            cases += 1
            rep = table[t * k]
            if rep != v:
                values = (("F(x)", v), ("F(k·x)", rep))
                violations.append((len(t), (("x", t),), values, (("k", k),), ""))
                break
    return _least("replication_invariant", fn, cases, violations)


def _reference_monotone(prop, fn):
    table = tuple_table(fn)
    chain = fn.domain
    cod = {v: i for i, v in enumerate(fn.codomain)}
    violations = []
    cases = 0
    for n in range(1, fn.max_arity + 1):
        for t in chain.tuples(n):
            for i in range(n):
                j = chain.index(t[i]) + 1
                if j == len(chain):  # t[i] is the top
                    continue
                s = chain.elements[j]
                cases += 1
                t2 = t[:i] + (s,) + t[i + 1 :]
                a, b = cod[table[t]], cod[table[t2]]
                if a > b if prop == "nondecreasing" else a < b:
                    parts = (("x", t), ("x'", t2))
                    values = (("F(x)", table[t]), ("F(x')", table[t2]))
                    violations.append((2 * n, parts, values, (("position", i),), ""))
    return _least(prop, fn, cases, violations)


def _reference_symmetric(fn):
    table = tuple_table(fn)
    chain = fn.domain
    violations = []
    cases = 0
    for n in range(2, fn.max_arity + 1):
        for t in chain.tuples(n):
            cases += 1
            canon = tuple(sorted(t, key=chain.index))
            if table[t] != table[canon]:
                parts = (("x", t), ("sorted(x)", canon))
                values = (("F(x)", table[t]), ("F(sorted(x))", table[canon]))
                violations.append((2 * n, parts, values, (), ""))
    return _least("symmetric", fn, cases, violations)


def _reference_convex_sections(fn):
    table = tuple_table(fn)
    elements = fn.domain.elements
    by_len = [fn.domain.tuples(i) for i in range(fn.max_arity)]
    cod = {v: i for i, v in enumerate(fn.codomain)}
    violations = []
    cases = 0
    for total in range(fn.max_arity):
        for i in range(total + 1):
            for pre, post in product(by_len[i], by_len[total - i]):
                cases += 1
                image = {cod[table[pre + (u,) + post]] for u in elements}
                missing = [j for j in range(min(image), max(image) + 1) if j not in image]
                if missing:
                    violations.append((
                        total,
                        (("y", pre), ("z", post)),
                        (("missing", fn.codomain[missing[0]]),),
                        (("arity", total + 1), ("position", i)),
                        "section image has a gap",
                    ))
    return _least("convex_sections", fn, cases, violations)


FIRST_VIOLATION = {
    "idempotent": _reference_idempotent,
    "range_idempotent": _reference_range_idempotent,
    "replication_invariant": _reference_replication_invariant,
    "nondecreasing": lambda fn: _reference_monotone("nondecreasing", fn),
    "nonincreasing": lambda fn: _reference_monotone("nonincreasing", fn),
    "symmetric": _reference_symmetric,
    "convex_sections": _reference_convex_sections,
}


def _outcome(check, fn):
    """The verdict, or the type of the exception that refused the function."""
    try:
        return check(fn)
    except NotAnOperationError as exc:
        return type(exc)


@pytest.mark.parametrize("universe", UNIVERSES)
@pytest.mark.parametrize("prop", FIRST_VIOLATION)
def test_first_violation_matches_least_key_scan(prop, universe):
    outcomes = []
    for fn in UNIVERSES[universe]():
        ref = _outcome(FIRST_VIOLATION[prop], fn)
        assert _outcome(checks.CHECKERS[prop], fn) == ref
        outcomes.append(ref.holds if isinstance(ref, Verdict) else None)
    if prop in checks.OPERATION_ONLY and universe == "foreign-2-3":
        assert set(outcomes) == {None}  # not operations
    elif prop == "convex_sections" and universe in ("epsilon-standard-2-3", "foreign-2-3"):
        assert set(outcomes) == {True}  # a two-symbol codomain has no gaps
    else:
        assert set(outcomes) == {True, False}


def test_replication_invariant_on_medians_matches_the_walk():
    # the checker visits the tuples up to length N // 2, the reference every
    # nonempty tuple (on UNIVERSES, test_first_violation_matches_least_key_scan);
    # every median holds the law, so its walk runs to the end
    medians = list(_medians(4, 5))
    for fn in medians:
        verdict = checks.check_replication_invariant(fn)
        assert verdict == _reference_replication_invariant(fn) and verdict.holds, fn
    assert len(medians) == 50


# ---------------------------------------------------------------------------
# Order and one-value laws against their references
# ---------------------------------------------------------------------------


def _medians(k, n):
    chain = default_chain(k)
    for params in product(chain.elements, repeat=4):
        try:
            yield make_median_family(MedianParams(*params), chain, n)
        except ValueError:
            continue  # a > c∧d or c∨d > b


def _catalog_grid_5():
    # each seed and its negation, which is nonincreasing where the seed is nondecreasing
    grid = [0, 0.25, 0.5, 0.75, 1]
    seeds = [(kind, name, None) for kind, names in (("tnorm", TNORMS), ("tconorm", TCONORMS))
             for name in names]
    seeds += [("uninorm", name, e) for name in UNINORMS for e in grid[1:-1]]
    for kind, name, e in seeds:
        try:
            seed = make_variadic_seed(kind, name, grid, 4, e=e)
        except GridClosureError:
            continue  # product and probabilistic-sum leave the grid
        yield seed
        yield lift_tnorm(lambda x: -x, seed)


def _near_order_tables():
    # monotone and symmetric bases (join, meet, clamped sum), the asymmetric
    # first projection and the non-monotone sum mod k, with 0 to 2 entries
    # moved one step or to any value of a codomain that may have room for gaps
    rng = random.Random(20146)
    bases = (
        lambda x, k: max(x),
        lambda x, k: min(x),
        lambda x, k: min(sum(x), k - 1),
        lambda x, k: x[0],
        lambda x, k: sum(x) % k,
    )
    for k, n in ((2, 5), (3, 3), (4, 3), (5, 2)):
        chain = default_chain(k)
        slots = chain.tuples_up_to(n)[1:]
        index = {t: [int(s) for s in t] for t in slots}
        for base in bases:
            for _ in range(40):
                width = k + rng.randint(0, 2)  # extra codomain symbols above the chain
                codomain = tuple(str(i) for i in range(width))
                entries = {t: codomain[base(index[t], k)] for t in slots}
                for t in rng.sample(slots, rng.randint(0, 2)):
                    i = codomain.index(entries[t])
                    i = rng.choice([i - 1, i + 1, rng.randrange(width)])
                    entries[t] = codomain[min(max(i, 0), width - 1)]
                yield TableFn(chain, codomain, n, EPSILON, entries)


ORDER_UNIVERSES = {
    **PAIR_UNIVERSES,
    "medians-5-3": _once(partial(_medians, 5, 3)),
    "catalog-grid-5-4": _once(_catalog_grid_5),
    "near-order": _once(_near_order_tables),
}

def _first_failure_walk(prop, fn, fails, values, note="", extra=()):
    """``checks._first_failure`` as a walk over every nonempty tuple in canonical order."""
    table = tuple_table(fn)
    tuples = fn.domain.tuples_up_to(fn.max_arity)
    for cases, t in enumerate(tuples[1:], 1):
        if fails(table[t]):
            witness = Witness((("x", t),), values(table[t]), note=note)
            return Verdict(prop, False, cases, witness, fn.max_arity, extra)
    return Verdict(prop, True, len(tuples) - 1, None, fn.max_arity, extra)


def _reference_one_value(prop, fn):
    """The one-value law's checker with the walk in place of the attained-value test."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(checks, "_first_failure", _first_failure_walk)
        return checks.CHECKERS[prop](fn)


#: property -> its exhaustive reference
ORDER_AND_ONE_VALUE = {
    **{prop: FIRST_VIOLATION[prop] for prop in ORDER_LAWS},
    **{prop: partial(_reference_one_value, prop) for prop in ONE_VALUE_LAWS},
}


@pytest.mark.parametrize("universe", ORDER_UNIVERSES)
def test_order_and_one_value_deciders_match_their_scans(universe):
    # the scans are the exhaustive references: the racing loops and the walk.
    # On UNIVERSES the order laws are compared by test_first_violation_matches_least_key_scan
    laws = ONE_VALUE_LAWS if universe in UNIVERSES else ORDER_AND_ONE_VALUE
    for fn in ORDER_UNIVERSES[universe]():
        for prop in laws:
            reference = ORDER_AND_ONE_VALUE[prop]
            assert _outcome(checks.CHECKERS[prop], fn) == _outcome(reference, fn), (prop, fn)


#: universe -> how many of its tables ``factorize`` accepts
FACTORIZED = {
    "operations-2-2": 102,
    "epsilon-standard-2-3": 18,
    "foreign-2-3": 2,
    "sample-3-2": 183,
    "three-values-3-3": 0,
    "near-constant-2-5": 4,
    "medians-5-3": 105,
    "catalog-grid-5-4": 22,
    "near-order": 422,
}


@pytest.mark.parametrize("universe", ORDER_UNIVERSES)
def test_compose_rebuilds_every_factorized_table(universe):
    accepted = 0
    for fn in ORDER_UNIVERSES[universe]():
        try:
            fac = factorize(fn)
        except PreconditionError:
            continue
        assert compose(fac.f, fac.H).entries == fn.entries, fn
        accepted += 1
    assert accepted == FACTORIZED[universe]


# ---------------------------------------------------------------------------
# Tables whose entries come out of tuple order
# ---------------------------------------------------------------------------


def _backwards(fn):
    """``fn`` built from its entries listed last to first, so its row is read through the dict."""
    entries = dict(reversed(fn.entries.items()))
    return TableFn(fn.domain, fn.codomain, fn.max_arity, fn.default, entries)


def _factorized(fn):
    try:
        return factorize(fn)
    except PreconditionError as exc:
        return exc.verdict


#: universe -> its tables: on the 2-chain every operation up to arity 2 and every
#: default-ε table at arity 3, on the 3-chain every 149th default-ε table at arity 2
ROW_ORDER_UNIVERSES = {
    "operations-2-1": lambda: all_operations(default_chain(2), 1),
    "operations-2-2": UNIVERSES["operations-2-2"],
    "epsilon-standard-2-3": UNIVERSES["epsilon-standard-2-3"],
    "epsilon-standard-3-2-every-149th": lambda: (
        epsilon_standard_at(default_chain(3), 2, i) for i in range(0, 3**12, 149)
    ),
}


@pytest.mark.parametrize("universe", ROW_ORDER_UNIVERSES)
def test_out_of_order_entries_give_the_same_answers(universe):
    # no builder lists entries out of order: the row is then the dict read in
    # tuple order, and every answer must be that of the in-order table
    for fn in ROW_ORDER_UNIVERSES[universe]():
        backwards = _backwards(fn)
        assert backwards._row == fn._row and backwards == fn
        names = [
            n for n in checks.PROPERTY_NAMES
            if (fn.is_operation or n not in checks.OPERATION_ONLY)
            and (fn.default is EPSILON or n not in checks.EPSILON_DEFAULT_ONLY)
        ]
        assert checks.run_checks(backwards, names) == checks.run_checks(fn, names), fn
        assert function_digest(backwards) == function_digest(fn), fn
        assert _factorized(backwards) == _factorized(fn), fn


def _max_table(chain, n, changes):
    """The n-ary join on ``chain`` into its own symbols, with the given entries changed."""
    entries = {t: max(t, key=chain.index) for t in chain.tuples_up_to(n)[1:]}
    entries.update({tuple(t): v for t, v in changes.items()})
    return TableFn(chain, chain.elements, n, EPSILON, entries)


@pytest.mark.parametrize(
    "prop, changes, parts, scalars",
    [
        # (0,0,0) steps down at every position: the last gives the least x'
        ("nondecreasing", {"000": "2"}, (("x", "000"), ("x'", "001")), (("position", 2),)),
        # (0,0,2) → (0,1,2) at position 1 comes before (0,1,1)'s steps at 2 and 1
        ("nondecreasing", {"012": "0", "021": "0"}, (("x", "002"), ("x'", "012")),
         (("position", 1),)),
        # symmetric at arity 2; at arity 3, (0,2,0), (1,0,0) and (2,0,0) differ
        # from their sorted tuples
        ("symmetric", {"002": "1", "100": "2"}, (("x", "020"), ("sorted(x)", "002")), ()),
        # the sections (·,1,1) and (0,·,1) have gaps too, and (·,1,1) is the first cut
        ("convex_sections", {"011": "0", "111": "0", "001": "2"}, (("y", "00"), ("z", "")),
         (("arity", 3), ("position", 2))),
    ],
)
def test_least_witness_in_a_layer_of_several_violations(prop, changes, parts, scalars):
    chain = default_chain(3)
    fn = _max_table(chain, 3, changes)
    low = TableFn(chain, chain.elements, 2, EPSILON, {t: fn(t) for t in chain.tuples_up_to(2)[1:]})
    assert checks.CHECKERS[prop](low).holds  # arities 1 and 2 hold
    verdict = checks.CHECKERS[prop](fn)
    assert verdict == FIRST_VIOLATION[prop](fn)
    assert verdict.witness.parts == tuple((name, tuple(t)) for name, t in parts)
    assert verdict.witness.scalars == scalars


@pytest.mark.parametrize("prop", ORDER_AND_ONE_VALUE)
def test_order_universes_reach_both_verdicts(prop):
    # each decider both holds and refuses on the tables made for it
    outcomes = {
        getattr(_outcome(checks.CHECKERS[prop], fn), "holds", None)  # None: not an operation
        for universe in ("medians-5-3", "catalog-grid-5-4", "near-order", "sample-3-2")
        for fn in ORDER_UNIVERSES[universe]()
    }
    assert {True, False} <= outcomes


def test_sorted_index_maps_each_tuple_to_its_sorted_tuple():
    for k, n in [(1, 3), (2, 4), (3, 3), (4, 2)]:
        chain = default_chain(k)
        tuples = chain.tuples(n)
        position = {t: i for i, t in enumerate(tuples)}
        expected = tuple(position[tuple(sorted(t, key=chain.index))] for t in tuples)
        assert checks._sorted_index(k, n) == expected


def test_section_getters_pair_each_tuple_with_its_steps():
    # zipping the k getters' reads gives every section once; at n = 1 each
    # getter reads one index and must still return a tuple
    for k, n in [(1, 1), (2, 1), (3, 1), (1, 3), (2, 4), (3, 3), (4, 2), (5, 3)]:
        chain = default_chain(k)
        tuples = chain.tuples(n)
        reads = [read(tuples) for read in checks._section_getters(k, n)]
        assert all(type(r) is tuple and len(r) == n * k ** (n - 1) for r in reads)
        sections = sorted(zip(*reads))
        expected = sorted(
            tuple(t[:i] + (u,) + t[i + 1 :] for u in chain.elements)
            for i in range(n)
            for t in tuples
            if t[i] == chain.elements[0]
        )
        assert sections == expected


# ---------------------------------------------------------------------------
# The monotone laws' integer lanes against the section getters
# ---------------------------------------------------------------------------


def _getters_hold(prop, fn):
    """The former decision: each layer's reads of adjacent section getters compared."""
    sign = 1 if prop == "nondecreasing" else -1  # a violation lowers the rank
    rank = {v: sign * i for i, v in enumerate(fn.codomain)}
    k = len(fn.domain)
    for n in range(1, fn.max_arity + 1):
        layer = checks._layer(fn, n, rank)
        reads = [read(layer) for read in checks._section_getters(k, n)]
        if any(any(map(gt, low, high)) for low, high in zip(reads, reads[1:])):
            return False
    return True


def _wide_or_epsilon_tables():
    # near-monotone tables whose codomain fills 8-bit lanes to the top (128
    # symbols), needs 16-bit (129, 300) or 32-bit lanes (2^15 + 1), or lists ε
    # among the symbols; the values jump between the lowest and highest ranks
    rng = random.Random(20147)
    for size in (128, 129, 300, 2**15 + 1, 3, 5):
        for _ in range(40 if size < 2**15 else 4):
            codomain = [f"v{i}" for i in range(size)]
            if size < 128:
                codomain.insert(rng.randrange(size + 1), EPSILON)
            k, n = rng.choice([(1, 3), (2, 3), (3, 2), (3, 3), (4, 2)])
            chain = default_chain(k)
            extremes = [codomain[0], codomain[1], codomain[-2], codomain[-1]]
            row = [rng.choice(codomain)]
            for t in chain.tuples_up_to(n)[1:]:
                if rng.random() < 0.05:
                    row.append(rng.choice(extremes))
                else:
                    row.append(codomain[(len(codomain) - 1) * sum(map(int, t)) // (n * (k - 1) or 1)])
            yield TableFn._of_row(chain, tuple(codomain), n, row)


MONOTONE_TABLES = {
    "epsilon-standard-2-3": UNIVERSES["epsilon-standard-2-3"],
    "operations-2-2": UNIVERSES["operations-2-2"],
    "1-chain-1-4": lambda: (fn for n in range(1, 5) for fn in all_operations(default_chain(1), n)),
    "medians-4-5": lambda: _medians(4, 5),
    "wide-or-epsilon": _wide_or_epsilon_tables,
}


@pytest.mark.parametrize("tables", MONOTONE_TABLES)
def test_monotone_lanes_match_the_section_getters(tables):
    outcomes = Counter()
    for fn in MONOTONE_TABLES[tables]():
        for prop in ("nondecreasing", "nonincreasing"):
            holds = checks.CHECKERS[prop](fn).holds
            assert holds == _getters_hold(prop, fn), (prop, fn)
            outcomes[prop, holds] += 1
    if tables == "medians-4-5":
        assert outcomes["nondecreasing", True] == 50
    elif tables == "1-chain-1-4":
        assert {holds for _, holds in outcomes} == {True}  # no chain step to compare
    else:
        assert {holds for _, holds in outcomes} == {True, False}


# ---------------------------------------------------------------------------
# The P1 set count against the scan
# ---------------------------------------------------------------------------


def _f_of_h_3_4():
    # f∘H, H associative on the 3-chain and f merging two of its values into
    # a foreign codomain: classes of up to all 121 tuples that span layers,
    # P1 holding or not; the default is ε or a symbol, which may join a class
    rng = random.Random(20147)
    codomain = ("p", "q", "r", "s")
    for h in all_associative_extensions(default_chain(3), 4):
        for _ in range(3):
            a, b = rng.sample(codomain, 2)
            f = dict(zip(h.domain.elements, rng.sample([a, a, b], 3)))
            entries = {t: f[v] for t, v in h.entries.items()}
            for default in (EPSILON, rng.choice(codomain)):
                yield TableFn(h.domain, codomain, 4, default, entries)


def _p1_walk_2_2():
    # the P1 tables of the 2-chain at arity 2 with any default, as
    # ``enumerate --filter preassoc`` walks them: small classes, few layers
    chain = default_chain(2)
    codomain = chain.elements + (EPSILON,)
    return preassociative_tables(chain, 2, codomain, codomain)


#: universe -> (tables, how many hold P1)
P1_PASS_UNIVERSES = {
    "p1-walk-2-2": (_once(_p1_walk_2_2), 543, 543),
    "f-of-h-3-4": (_once(_f_of_h_3_4), 984, 578),
    "medians-4-5": (_once(partial(_medians, 4, 5)), 50, 50),
    "catalog-grid-5-4": (ORDER_UNIVERSES["catalog-grid-5-4"], 22, 22),
}


@pytest.mark.parametrize("universe", P1_PASS_UNIVERSES)
def test_p1_pass_matches_the_scan_on_large_classes(universe):
    # the pass counts distinct (value, one-letter signature) pairs and the
    # cases from per-layer class sizes; the scan sets every tuple beside the
    # first of its class in every context and counts each pair's contexts.
    # The scan is held to the exhaustive pair race in the tests above
    tables, size, holding = P1_PASS_UNIVERSES[universe]
    outcomes = []
    for fn in tables():
        scan = checks._p1_scan(fn)
        assert checks._p1_pass(fn) == (scan.cases_checked if scan.holds else None), fn
        outcomes.append(scan.holds)
    assert (len(outcomes), sum(outcomes)) == (size, holding)


@pytest.mark.parametrize("k, n", list(product(range(1, 5), range(1, 6))))
def test_extension_index_locates_the_one_letter_extensions(k, n):
    # for each tuple y shorter than n, in order: where u·y, then y·u, sit in tuples_up_to
    chain = default_chain(k)
    position = {t: i for i, t in enumerate(chain.tuples_up_to(n))}
    expected = [
        position[e]
        for y in chain.tuples_up_to(n - 1)
        for e in [(u,) + y for u in chain.elements] + [y + (u,) for u in chain.elements]
    ]
    assert list(checks._extension_index(k, n)) == expected

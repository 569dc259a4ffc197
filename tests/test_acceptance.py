"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Exhaustive oracles at desk scale; stated tolerances pinned inline.
"""

import time
from itertools import product

import pytest

from conftest import all_binary_tables
from preassoc.checks import (
    check_associative,
    check_convex_sections,
    check_nondecreasing,
    check_preassociative,
    check_range_idempotent,
    check_standard,
    check_unarily_quasi_range_idempotent,
)
from preassoc.core import EPSILON, Chain, TableFn
from preassoc.enumeration import (
    all_associative_extensions,
    default_chain,
    equivalence_sweep,
    preassociative_tables,
)
from preassoc.factorize import extend_unary_binary, factorize
from preassoc.families import (
    Interval,
    MedianParams,
    make_ling,
    make_median_family,
    make_quasi_sum,
    tabulate,
)
from preassoc.quasi_inverse import (
    FiniteMap,
    canonical_quasi_inverse,
    is_quasi_inverse,
    right_inverses,
)
from preassoc.serialization import dumps_function

CHAIN2 = default_chain(2)
CHAIN3 = default_chain(3)
CHAIN4 = default_chain(4)


def _report(number, text):
    print(f"ACCEPTANCE {number}: PASS — {text}")


@pytest.fixture(scope="module")
def sweep():
    t0 = time.perf_counter()
    report = equivalence_sweep(2, 3, workers=1)
    elapsed = time.perf_counter() - t0
    return report, elapsed


@pytest.fixture(scope="module")
def associative_binaries():
    """Triple-loop oracle over all 16 binary tables on the 2-chain."""
    found = []
    for table in all_binary_tables(CHAIN2):
        if all(
            table[(table[(u, v)], w)] == table[(u, table[(v, w)])]
            for u, v, w in product(CHAIN2.elements, repeat=3)
        ):
            found.append(table)
    return found


def test_criterion_1_theorem_equivalence_sweep(sweep):
    report, elapsed = sweep
    assert report.total == 16384  # all default-ε standard tables, chain 2, arity 3
    for name in (
        "A1_iff_P1_and_URI",
        "A1_iff_A2",
        "A1_iff_A3",
        "P1_iff_P2",
        "URI_iff_UQRI_and_F1F1",
    ):
        assert report.equivalence_failures[name] == [], name
    assert report.all_equivalences_hold()
    # per-candidate property bits, frozen before the checkers were refactored
    assert report.bits_digest == (
        "6e2403e89b309aa51a3cc0cd519566639f18299222cfce82407d78fc1d342e91"
    )
    assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"
    _report(
        1,
        f"equivalences exact over {report.total} candidates in {elapsed:.1f}s "
        f"(associative count {report.property_counts['A1']})",
    )


def test_sweep_p1_count_equals_the_p1_tables_built_layer_by_layer(sweep):
    report, _ = sweep
    tables = preassociative_tables(CHAIN2, 3, CHAIN2.elements, (EPSILON,))
    assert sum(1 for _ in tables) == report.property_counts["P1"] == 22


def test_criterion_2_associative_binary_count(associative_binaries):
    # golden value produced by the triple-loop oracle run, frozen here
    assert len(associative_binaries) == 8
    identity = FiniteMap.identity(CHAIN2.elements)
    for table in associative_binaries:
        ext = extend_unary_binary(identity, table, 4)
        assert check_associative(ext, "A1").holds
    _report(2, "8 of 16 binary tables associative; all identity extensions pass A1 at arity 4")


def test_criterion_3_factorization_round_trip(associative_binaries):
    identity = FiniteMap.identity(CHAIN2.elements)
    bijections = (
        {"0": "p", "1": "q"},
        {"0": "q", "1": "p"},
    )
    codomain = ("p", "q")
    checked = 0
    for table in associative_binaries:
        H = extend_unary_binary(identity, table, 4)
        for graph in bijections:
            entries = {t: graph[v] for t, v in H.entries.items()}
            F = TableFn(CHAIN2, codomain, 4, EPSILON, entries)
            fac = factorize(F)
            assert fac.H.entries == H.entries
            assert fac.f.graph == graph
            checked += 1
    assert checked == 16
    _report(3, "all 8 x 2 relabeled extensions recover H and f exactly")


def _valid_median_params(chain):
    out = []
    for a, b in product(chain.elements, repeat=2):
        if not chain.leq(a, b):
            continue
        for c, d in product(chain.elements, repeat=2):
            if chain.leq(a, chain.meet(c, d)) and chain.leq(chain.join(c, d), b):
                out.append(MedianParams(a, b, c, d))
    return out


def test_criterion_4_median_family_soundness_and_completeness():
    t0 = time.perf_counter()

    # soundness on the 4-chain at arity 4: every valid parameter tuple
    params4 = _valid_median_params(CHAIN4)
    assert len(params4) == 50
    for params in params4:
        fn = make_median_family(params, CHAIN4, 4)
        assert check_associative(fn, "A1").holds, params
        assert check_range_idempotent(fn).holds, params
        assert check_nondecreasing(fn).holds, params
        assert check_convex_sections(fn).holds, params

    # completeness on the 3-chain at arity 3: every associative default-ε
    # standard operation passing the remaining conditions is a median table.
    # Associative operations are determined by their unary+binary parts, so
    # the enumeration runs over those pairs.
    median_tables = {
        dumps_function(make_median_family(p, CHAIN3, 3)) for p in _valid_median_params(CHAIN3)
    }
    matched = set()
    survivors = 0
    for fn in all_associative_extensions(CHAIN3, 3):
        if not (
            check_range_idempotent(fn).holds
            and check_nondecreasing(fn).holds
            and check_convex_sections(fn).holds
        ):
            continue
        survivors += 1
        blob = dumps_function(fn)
        assert blob in median_tables, "operation satisfies the axioms but is not a median table"
        matched.add(blob)
    assert matched == median_tables  # every median table is hit, symbolically exact
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.1f}s"
    _report(
        4,
        f"50 sound parameter tuples at arity 4; completeness exact on the 3-chain "
        f"({survivors} survivors = {len(median_tables)} median tables) in {elapsed:.1f}s",
    )


LING_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def test_criterion_5_ling_lukasiewicz_identity():
    gen = make_ling(lambda x: 1 - x, lambda t: 1 - t, 0, 1)
    checked = 0
    for n in range(1, 5):
        for t in product(LING_GRID, repeat=n):
            expected = max(sum(t) - (n - 1), 0.0)
            assert abs(gen.eval(t) - expected) <= 1e-12
            checked += 1
    assert checked == 5 + 25 + 125 + 625
    _report(5, f"bounded-sum identity exact to 1e-12 on {checked} grid tuples")


def test_criterion_6_quasi_sum_sampled_laws():
    import math

    grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    gen = make_quasi_sum(math.log, math.exp, Interval(0, 1, lo_open=True, hi_open=True))
    fn = tabulate(gen, grid, 3)
    checked = 0
    for n in range(1, 4):
        for t in product(grid, repeat=n):
            prod_fold = 1.0
            for x in t:
                prod_fold *= x
            key = tuple(f"{x:.12g}" for x in t)
            got = float(fn.eval(key))
            assert abs(got - prod_fold) <= 1e-12 * max(abs(got), abs(prod_fold))
            checked += 1
    assert check_preassociative(fn, "P1").holds
    _report(6, f"tabulated product matches the fold on {checked} tuples; P1 exact on symbols")


def test_criterion_7_quasi_inverse_algebra():
    checked_maps = 0
    checked_inverses = 0
    for dom_size in (1, 2, 3):
        for cod_size in (1, 2, 3):
            dom = tuple(range(dom_size))
            cod = tuple("xyz"[:cod_size])
            for values in product(cod, repeat=dom_size):
                f = FiniteMap(dom, cod, dict(zip(dom, values)))
                checked_maps += 1
                expected = 1
                for y in f.range:
                    expected *= len(f.preimage(y))
                inverses = right_inverses(f)
                assert len(inverses) == expected
                canonical = canonical_quasi_inverse(f)
                assert canonical in inverses
                for g in inverses:
                    ok, _ = is_quasi_inverse(f, g)
                    assert ok
                    ok_rev, _ = is_quasi_inverse(g, f)  # symmetry of the relation
                    assert ok_rev
                    assert g.is_one_to_one()  # g restricted to ran(f) is g itself
                    sub = g.range
                    assert FiniteMap(sub, f.codomain, {x: f.graph[x] for x in sub}).is_one_to_one()
                    checked_inverses += 1
    assert checked_maps == 56
    _report(
        7,
        f"{checked_maps} finite maps enumerated; {checked_inverses} right-inverses verified",
    )


def test_criterion_8_pinned_counterexamples():
    # the projection-with-colliding-default function on the chain a < b
    chain = Chain(("a", "b"))
    entries = {t: t[0] for n in (1, 2) for t in product(chain.elements, repeat=n)}
    fn = TableFn(chain, chain.elements, 2, "a", entries)

    std = check_standard(fn)
    assert not std.holds
    assert std.witness.part("x") == ("a",)  # F(a) = F(ε)
    assert std.witness.value("F(x)") == "a"

    pre = check_preassociative(fn, "P1")
    assert not pre.holds
    w = pre.witness
    assert {w.part("y"), w.part("y'")} == {(), ("a",)}  # the colliding pair
    assert w.part("x") == () and w.part("z") == ("b",)
    assert {w.value("F(x,y,z)"), w.value("F(x,y',z)")} == {"a", "b"}  # F(ab) != F(b)

    # the length function: preassociative but not unarily quasi-range-idempotent
    c2 = default_chain(2)
    length_entries = {
        t: str(n) for n in range(1, 4) for t in product(c2.elements, repeat=n)
    }
    length_fn = TableFn(c2, ("0", "1", "2", "3"), 3, "0", length_entries)
    assert check_preassociative(length_fn, "P1").holds
    assert not check_unarily_quasi_range_idempotent(length_fn).holds
    _report(8, "projection/default collision and length-function witnesses pinned")


def test_criterion_9_performance_and_parallel_determinism(sweep):
    serial_report, _ = sweep

    # preassociativity at chain size 3, arity 4: 120 nonempty tuples
    c3 = default_chain(3)
    entries = {}
    for n in range(1, 5):
        for t in product(c3.elements, repeat=n):
            entries[t] = min(t, key=c3.index)
    fn = TableFn(c3, c3.elements, 4, EPSILON, entries)
    assert len(fn.entries) == 120
    t0 = time.perf_counter()
    verdict = check_preassociative(fn, "P1")
    elapsed = time.perf_counter() - t0
    assert verdict.holds
    assert elapsed < 1.0, f"P1 took {elapsed:.3f}s"

    # worst case: a constant function puts all 121 tuples in one value class
    const_entries = {t: "0" for t in entries}
    const_fn = TableFn(c3, c3.elements, 4, "0", const_entries)
    t0 = time.perf_counter()
    check_preassociative(const_fn, "P1")
    elapsed_const = time.perf_counter() - t0
    assert elapsed_const < 1.0, f"P1 single-class took {elapsed_const:.3f}s"

    # the sweep runs in one process; ``workers`` is validated and changes nothing
    other_report = equivalence_sweep(2, 3, workers=2)
    assert other_report.to_json() == serial_report.to_json()
    assert equivalence_sweep(2, 2, workers=3).to_json() == equivalence_sweep(2, 2).to_json()
    _report(
        9,
        f"P1 on 120 tuples in {elapsed * 1000:.0f}ms; sweep report independent of workers "
        f"(digest {other_report.bits_digest[:12]})",
    )

"""Property-based invariants over randomly drawn small functions."""

from itertools import product

import hypothesis.strategies as st
from hypothesis import given, settings

from preassoc.checks import (
    check_associative,
    check_preassociative,
    check_standard,
    check_unarily_range_idempotent,
)
from preassoc.core import EPSILON, Chain, TableFn, ranges
from preassoc.quasi_inverse import (
    FiniteMap,
    canonical_quasi_inverse,
    is_quasi_inverse,
    right_inverses,
)
from preassoc.serialization import dumps_function, loads_function

SYMBOLS = ("0", "1", "2")


@st.composite
def table_fns(draw, max_chain=3, max_arity=2, operations_only=False):
    size = draw(st.integers(1, max_chain))
    chain = Chain(SYMBOLS[:size])
    n = draw(st.integers(1, max_arity))
    slots = [t for k in range(1, n + 1) for t in product(chain.elements, repeat=k)]
    if operations_only:
        values = chain.elements
        default = EPSILON
        codomain = chain.elements
    else:
        values = chain.elements + ("p", "q")
        codomain = values
        default = draw(st.sampled_from(values + (EPSILON,)))
    entries = {t: draw(st.sampled_from(values)) for t in slots}
    return TableFn(chain, codomain, n, default, entries)


@st.composite
def finite_maps(draw, max_size=3):
    dom_size = draw(st.integers(1, max_size))
    cod_size = draw(st.integers(1, max_size))
    dom = tuple(range(dom_size))
    cod = tuple("abcd"[:cod_size])
    graph = {x: draw(st.sampled_from(cod)) for x in dom}
    return FiniteMap(dom, cod, graph)


@given(table_fns())
@settings(max_examples=150, deadline=None)
def test_unary_range_is_contained_in_full_range(fn):
    ran1, ranflat = ranges(fn)
    assert ran1 <= ranflat


@given(table_fns())
@settings(max_examples=150, deadline=None)
def test_concatenation_neutrality(fn):
    for t in fn.domain.tuples_up_to(fn.max_arity):
        assert fn.eval(() + t) == fn.eval(t) == fn.eval(t + ())


@given(table_fns())
@settings(max_examples=100, deadline=None)
def test_serialization_round_trip(fn):
    back = loads_function(dumps_function(fn))
    assert back.entries == fn.entries
    assert back.codomain == fn.codomain
    assert (back.default is EPSILON) == (fn.default is EPSILON)
    if fn.default is not EPSILON:
        assert back.default == fn.default


@given(table_fns())
@settings(max_examples=100, deadline=None)
def test_verdicts_are_deterministic(fn):
    first = check_preassociative(fn, "P1")
    second = check_preassociative(fn, "P1")
    assert first == second


@given(table_fns(operations_only=True))
@settings(max_examples=150, deadline=None)
def test_associative_implies_preassociative_and_uri(fn):
    if check_associative(fn, "A1").holds:
        assert check_preassociative(fn, "P1").holds
        assert check_unarily_range_idempotent(fn).holds


@given(table_fns(operations_only=True))
@settings(max_examples=150, deadline=None)
def test_preassociativity_forms_agree(fn):
    assert (
        check_preassociative(fn, "P1").holds
        == check_preassociative(fn, "P2").holds
    )


@given(finite_maps())
@settings(max_examples=200, deadline=None)
def test_canonical_quasi_inverse_always_valid(f):
    g = canonical_quasi_inverse(f)
    ok, _ = is_quasi_inverse(f, g)
    assert ok


@given(finite_maps())
@settings(max_examples=100, deadline=None)
def test_quasi_inverse_symmetry_and_restriction(f):
    for g in right_inverses(f):
        ok, _ = is_quasi_inverse(f, g)
        assert ok
        ok_rev, _ = is_quasi_inverse(g, f)
        assert ok_rev
        # restricting g to ran(f) changes nothing for right-inverses
        sub = g.domain
        restricted = FiniteMap(sub, g.codomain, {x: g.graph[x] for x in sub})
        ok_res, _ = is_quasi_inverse(f, restricted)
        assert ok_res


@given(table_fns(operations_only=True), st.permutations(list(SYMBOLS)))
@settings(max_examples=100, deadline=None)
def test_left_composition_preserves_preassociativity(fn, perm):
    """Composing with a one-to-one relabeling keeps standard + preassociative."""
    if not (check_standard(fn).holds and check_preassociative(fn, "P1").holds):
        return
    relabel = dict(zip(SYMBOLS, ["x", "y", "z"]))
    g = {s: relabel[p] for s, p in zip(SYMBOLS, perm)}
    entries = {t: g[v] for t, v in fn.entries.items()}
    composed = TableFn(
        fn.domain, tuple(g[v] for v in fn.codomain), fn.max_arity, EPSILON, entries
    )
    assert check_standard(composed).holds
    assert check_preassociative(composed, "P1").holds


@given(table_fns(operations_only=True), st.sampled_from(SYMBOLS), st.sampled_from(SYMBOLS))
@settings(max_examples=100, deadline=None)
def test_right_composition_preserves_preassociativity(fn, img0, img1):
    """Precomposing every argument with a map into the chain keeps the laws."""
    if not (check_standard(fn).holds and check_preassociative(fn, "P1").holds):
        return
    elements = fn.domain.elements
    g = {elements[0]: img0, elements[-1]: img1}
    for u in elements:
        g.setdefault(u, u)
    if any(v not in elements for v in g.values()):
        return
    entries = {
        t: fn.entries[tuple(g[s] for s in t)]
        for t in fn.entries
    }
    composed = TableFn(fn.domain, fn.codomain, fn.max_arity, EPSILON, entries)
    assert check_preassociative(composed, "P1").holds

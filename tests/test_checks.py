"""Checker semantics on the pinned example functions."""

from itertools import product

import pytest

from preassoc.checks import (
    CHECKERS,
    EPSILON_DEFAULT_ONLY,
    OPERATION_ONLY,
    check_associative,
    check_epsilon_standard,
    check_preassociative,
    check_standard,
    run_checks,
)
from preassoc.core import EPSILON, TableFn
from preassoc.enumeration import all_operations, default_chain
from preassoc.errors import NotAnOperationError
from preassoc.families import tabulate

from conftest import xor_table


def build_fn(chain, max_arity, value_of, codomain=None, default=EPSILON):
    entries = {
        t: value_of(t)
        for n in range(1, max_arity + 1)
        for t in product(chain.elements, repeat=n)
    }
    if codomain is None:
        seen = []
        for v in entries.values():
            if v not in seen:
                seen.append(v)
        codomain = tuple(seen)
    return TableFn(chain, codomain, max_arity, default, entries)


class TestStandard:
    def test_length_function_is_standard(self, length_fn):
        v = check_standard(length_fn)
        assert v.holds
        assert dict(v.extra)["epsilon_standard"] is False

    def test_remark_b_fails_with_witness_a(self, remark_b):
        v = check_standard(remark_b)
        assert not v.holds
        assert v.witness.part("x") == ("a",)

    def test_constant_fails_at_shortest_tuple(self, chain2):
        fn = build_fn(chain2, 3, lambda t: "0", codomain=("0", "1"), default="0")
        v = check_standard(fn)
        assert not v.holds
        assert v.witness.part("x") == ("0",)

    def test_epsilon_standard_checker(self, min3, length_fn, remark_b):
        assert check_epsilon_standard(min3).holds
        assert not check_epsilon_standard(length_fn).holds
        assert not check_epsilon_standard(remark_b).holds


class TestAssociative:
    def test_min_extension_holds_all_forms(self, chain3):
        fn = tabulate(chain3.meet, chain3, 4)
        for form in ("A1", "A2", "A3"):
            assert check_associative(fn, form).holds

    def test_first_element_holds(self, first_element2):
        # F(x, F(y), z) starts with the first symbol of (x, y), as does F(x,y,z)
        assert check_associative(first_element2, "A1").holds

    def test_xor_with_negated_unary_fails(self, chain2):
        xor = xor_table(chain2)
        neg = {"0": "1", "1": "0"}

        def value_of(t):
            if len(t) == 1:
                return neg[t[0]]
            acc = t[0]
            for s in t[1:]:
                acc = xor[(acc, s)]
            return acc

        fn = build_fn(chain2, 3, value_of, codomain=chain2.elements)
        v = check_associative(fn, "A1")
        assert not v.holds
        x, y, z = v.witness.part("x"), v.witness.part("y"), v.witness.part("z")
        lhs = fn.eval(x + y + z)
        vy = fn.eval(y)
        rhs = fn.eval(x + ((vy,) if vy is not EPSILON else ()) + z)
        assert lhs != rhs

    def test_requires_operation(self, length_fn):
        with pytest.raises(NotAnOperationError):
            check_associative(length_fn, "A1")

    def test_a2_a3_require_epsilon_default(self, remark_b):
        with pytest.raises(ValueError):
            check_associative(remark_b, "A2")

    def test_exactly_the_epsilon_default_checkers_refuse_other_defaults(self):
        refused = set()
        for fn in all_operations(default_chain(2), 2):
            for name, checker in CHECKERS.items():
                try:
                    checker(fn)
                except ValueError:
                    assert fn.default is not EPSILON
                    refused.add(name)
                else:
                    assert name not in EPSILON_DEFAULT_ONLY or fn.default is EPSILON
        assert refused == EPSILON_DEFAULT_ONLY

    def test_substituted_epsilon_is_reported(self, chain2):
        # nonempty tuple mapping to ε: an operation that is not standard
        def value_of(t):
            return EPSILON if len(t) == 2 and t == ("1", "1") else t[0]

        fn = build_fn(
            chain2, 2, value_of, codomain=chain2.elements + (EPSILON,)
        )
        v = check_associative(fn, "A1")
        assert not v.holds
        assert "substituted-epsilon" in v.witness.note

    def test_empty_inner_block_substitutes_the_default(self, chain2):
        # y = ε substitutes F(ε) = "0": F(1) = 1 but F(0, 1) = 0
        fn = tabulate(chain2.meet, chain2, 2, default="0")
        v = check_associative(fn, "A1")
        assert not v.holds
        assert (v.witness.part("x"), v.witness.part("y"), v.witness.part("z")) == (
            (),
            (),
            ("1",),
        )
        assert v.cases_checked == 19


class TestPreassociative:
    def test_length_function_holds(self, length_fn):
        assert check_preassociative(length_fn, "P1").holds
        assert check_preassociative(length_fn, "P2").holds

    def test_sum_through_injection_holds(self, chain2):
        # F(x) = f(sum of digits) with f one-to-one: symbols s0..s3
        fn = build_fn(
            chain2,
            3,
            lambda t: "s%d" % sum(int(s) for s in t),
            codomain=("s0", "s1", "s2", "s3", "e"),
            default="e",
        )
        assert check_preassociative(fn, "P1").holds
        assert check_preassociative(fn, "P2").holds

    def test_remark_b_pinned_witness(self, remark_b):
        v = check_preassociative(remark_b, "P1")
        assert not v.holds
        w = v.witness
        # the pair with equal values is {ε, (a)}; the context (x, z) = (ε, (b))
        assert {w.part("y"), w.part("y'")} == {(), ("a",)}
        assert w.part("x") == ()
        assert w.part("z") == ("b",)
        assert {w.value("F(x,y,z)"), w.value("F(x,y',z)")} == {"a", "b"}

    def test_p2_agrees_on_remark_b(self, remark_b):
        assert not check_preassociative(remark_b, "P2").holds


IDEMPOTENCE = (
    "unarily_idempotent",
    "unarily_range_idempotent",
    "unarily_quasi_range_idempotent",
    "range_idempotent",
    "idempotent",
    "replication_invariant",
    "replication_preinvariant",
)
ORDER = ("nondecreasing", "nonincreasing", "symmetric", "convex_sections")


class TestIdempotenceSuite:
    def test_min_extension_all_seven(self, min3):
        suite = run_checks(min3, IDEMPOTENCE)
        assert len(suite) == 7
        assert all(v.holds for v in suite.values())

    def test_length_function_subset(self, length_fn):
        # operation-only checks do not apply to a function into the naturals
        suite = run_checks(length_fn, [p for p in IDEMPOTENCE if p not in OPERATION_ONLY])
        assert set(suite) == {
            "unarily_quasi_range_idempotent",
            "replication_invariant",
            "replication_preinvariant",
        }
        assert not suite["unarily_quasi_range_idempotent"].holds
        assert suite["replication_preinvariant"].holds

    def test_two_cycle_separates_uri_from_uqri(self, chain2):
        # F1 swaps 0 and 1; F_n(x) = F1(x1). ran F1 = ran Fb but F1∘F1 != F1.
        swap = {"0": "1", "1": "0"}
        fn = build_fn(chain2, 2, lambda t: swap[t[0]], codomain=chain2.elements)
        suite = run_checks(fn, IDEMPOTENCE)
        assert not suite["unarily_range_idempotent"].holds
        assert suite["unarily_quasi_range_idempotent"].holds


class TestOrderProperties:
    def test_min_extension(self, min3):
        results = run_checks(min3, ORDER)
        assert results["nondecreasing"].holds
        assert results["symmetric"].holds
        assert results["convex_sections"].holds
        assert not results["nonincreasing"].holds

    def test_median_symmetry_depends_on_c_d(self, chain4):
        from preassoc.families import MedianParams, make_median_family

        sym = make_median_family(MedianParams("0", "3", "1", "1"), chain4, 3)
        asym = make_median_family(MedianParams("0", "3", "1", "2"), chain4, 3)
        assert run_checks(sym, ORDER)["symmetric"].holds
        asym_results = run_checks(asym, ORDER)
        assert not asym_results["symmetric"].holds
        assert asym_results["nondecreasing"].holds
        assert asym_results["convex_sections"].holds

    def test_xor_not_nondecreasing(self, chain2):
        xor = xor_table(chain2)

        def value_of(t):
            acc = t[0]
            for s in t[1:]:
                acc = xor[(acc, s)]
            return acc

        fn = build_fn(chain2, 2, value_of, codomain=chain2.elements)
        v = run_checks(fn, ORDER)["nondecreasing"]
        assert not v.holds
        assert ("position", 0) in v.witness.scalars or ("position", 1) in v.witness.scalars


class TestVerdictContract:
    def test_holds_iff_no_witness(self, min3, remark_b):
        for v in (
            check_standard(min3),
            check_standard(remark_b),
            check_preassociative(remark_b, "P1"),
        ):
            assert v.holds == (v.witness is None)

    def test_run_checks_orders_and_validates(self, min3):
        out = run_checks(min3, ["preassociative_P1", "standard"])
        assert list(out) == ["standard", "preassociative_P1"]
        with pytest.raises(ValueError):
            run_checks(min3, ["no_such_property"])

    def test_witness_is_deterministic(self, remark_b):
        a = check_preassociative(remark_b, "P1").witness
        b = check_preassociative(remark_b, "P1").witness
        assert a == b

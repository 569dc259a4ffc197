"""Factorization through associative operations, seed extension, recursion."""

import re
from itertools import product

import pytest

from preassoc.checks import (
    check_associative,
    check_preassociative,
    check_unarily_quasi_range_idempotent,
)
from preassoc.core import EPSILON, TableFn, compose
from preassoc.enumeration import associative_tables
from preassoc.errors import (
    ConditionError,
    DomainMismatchError,
    InternalVerificationError,
    PreconditionError,
)
from preassoc.factorize import (
    _verify_factorization,
    build_from_f1_h2,
    extend_unary_binary,
    factorize,
    recursive_eval,
)
from preassoc.families import tabulate
from preassoc.quasi_inverse import FiniteMap

SIGMA = {"0": "1", "1": "2", "2": "0"}  # the 3-cycle


@pytest.fixture
def min_ext(chain3):
    return tabulate(chain3.meet, chain3, 3)


@pytest.fixture
def sigma_min(chain3, min_ext):
    """F = sigma ∘ min on nonempty tuples: a relabeled meet."""
    entries = {t: SIGMA[v] for t, v in min_ext.entries.items()}
    return TableFn(chain3, chain3.elements, 3, EPSILON, entries)


class TestFactorize:
    def test_relabeled_min_recovers_min_and_sigma(self, sigma_min, min_ext):
        fac = factorize(sigma_min)
        assert fac.H.entries == min_ext.entries
        assert fac.f.graph == SIGMA
        assert check_associative(fac.H, "A1").holds

    def test_associative_input_is_fixed_point(self, min_ext):
        fac = factorize(min_ext)
        assert fac.H.entries == min_ext.entries
        assert fac.f.graph == {u: u for u in min_ext.domain.elements}

    def test_length_function_violates_uqri(self, length_fn):
        with pytest.raises(PreconditionError) as err:
            factorize(length_fn)
        assert err.value.verdict.property == "unarily_quasi_range_idempotent"

    def test_remark_b_violates_standardness(self, remark_b):
        with pytest.raises(PreconditionError) as err:
            factorize(remark_b)
        assert err.value.verdict.property == "standard"

    def test_one_to_one_unary_ignores_pins(self, sigma_min):
        pinned = factorize(sigma_min, pins=[("1", "0")])
        plain = factorize(sigma_min)
        assert pinned.H.entries == plain.H.entries
        # H1 = id whenever F1 is one-to-one
        assert all(pinned.H.entries[(u,)] == u for u in sigma_min.domain.elements)

    def test_non_injective_unary_records_g(self, chain4):
        from preassoc.families import MedianParams, make_median_family

        # window [1, 2]: F1(x) = med(1, x, 2) clamps, so ran(F1) = {1, 2}
        fn = make_median_family(MedianParams("1", "2", "1", "2"), chain4, 3)
        fac = factorize(fn)
        assert set(fac.g.domain) == {"1", "2"}
        # the clamped median is associative already, so H re-labels nothing
        assert check_associative(fac.H, "A1").holds
        for t, v in fn.entries.items():
            assert fac.f.graph[fac.H.entries[t]] == v

    def test_factorization_invariants(self, sigma_min):
        fac = factorize(sigma_min)
        for t, v in sigma_min.entries.items():
            assert fac.f.graph[fac.H.entries[t]] == v
        assert fac.f.is_one_to_one()
        assert fac.H.is_epsilon_standard

    @pytest.mark.parametrize("order", [1, -1])
    def test_a_broken_identity_names_its_first_tuple(self, sigma_min, order):
        # F changed at two tuples, its entries in or out of tuple order: the
        # check of f ∘ H = F names the first changed tuple in tuple order
        fac = factorize(sigma_min)
        f1 = FiniteMap(sigma_min.domain.elements, sigma_min.codomain, SIGMA)
        changed = dict(list(sigma_min.entries.items())[::order])
        changed[("1", "2")] = changed[("2", "1", "0")] = "0"  # were "2" and "1"
        fn = TableFn(sigma_min.domain, sigma_min.codomain, 3, EPSILON, changed)
        with pytest.raises(InternalVerificationError, match=re.escape("failed at ('1', '2'):")):
            _verify_factorization(fn, f1, fac.g, fac.H, fac.f)


class TestExtendUnaryBinary:
    def test_identity_plus_min(self, chain3):
        f1 = FiniteMap.identity(chain3.elements)
        f2 = {(u, v): chain3.meet(u, v) for u in chain3.elements for v in chain3.elements}
        ext = extend_unary_binary(f1, f2, 4)
        assert check_associative(ext, "A1").holds
        assert ext.max_arity == 4

    def test_xor_extends_and_stays_associative(self, chain2):
        from conftest import xor_table

        f1 = FiniteMap.identity(chain2.elements)
        ext = extend_unary_binary(f1, xor_table(chain2), 4)
        assert check_associative(ext, "A1").holds
        # group addition mod 2: F4(1,1,1,1) = 0
        assert ext.eval(("1", "1", "1", "1")) == "0"

    def test_two_cycle_unary_fails_condition_i(self, chain2):
        neg = FiniteMap(chain2.elements, chain2.elements, {"0": "1", "1": "0"})
        f2 = {(u, v): chain2.meet(u, v) for u in chain2.elements for v in chain2.elements}
        with pytest.raises(ConditionError) as err:
            extend_unary_binary(neg, f2, 3)
        assert err.value.condition == "i"

    def test_absorption_failure_is_condition_ii(self, chain2):
        # F1 constant 0 with min: F1 is idempotent, but it does not fix
        # min(1, 1) = 1, so condition (i) fails before (ii) is tested;
        # test_nonabsorbing_binary_fails_condition_ii below reaches (ii)
        const0 = FiniteMap(chain2.elements, chain2.elements, {"0": "0", "1": "0"})
        f2 = {(u, v): chain2.meet(u, v) for u in chain2.elements for v in chain2.elements}
        with pytest.raises(ConditionError) as err:
            extend_unary_binary(const0, f2, 3)
        assert err.value.condition in ("i", "ii")

    def test_nonabsorbing_binary_fails_condition_ii(self, chain3):
        # F1 idempotent and fixing ran F2 = {0, 1}, so (i) holds; but
        # F2(F1(2), 0) = F2(1, 0) = 1 while F2(2, 0) = 0
        f1 = FiniteMap(chain3.elements, chain3.elements, {"0": "0", "1": "1", "2": "1"})
        f2 = {(u, v): "0" if u == "2" else "1" for u in chain3.elements for v in chain3.elements}
        message = "F2 does not absorb F1 at ('2','0')"
        with pytest.raises(ConditionError, match=re.escape(message)) as err:
            extend_unary_binary(f1, f2, 3)
        assert err.value.condition == "ii"
        assert err.value.witness == ("2", "0")

    def test_nonassociative_binary_fails_condition_iii(self, chain3):
        sub = {
            (u, v): str((int(u) - int(v)) % 3)
            for u in chain3.elements
            for v in chain3.elements
        }
        f1 = FiniteMap.identity(chain3.elements)
        with pytest.raises(ConditionError) as err:
            extend_unary_binary(f1, sub, 3)
        assert err.value.condition == "iii"


class TestBuildFromF1H2:
    def test_sigma_over_min_round_trip(self, chain3, sigma_min, min_ext):
        f1 = FiniteMap(chain3.elements, chain3.elements, SIGMA)
        h2 = {(u, v): chain3.meet(u, v) for u in chain3.elements for v in chain3.elements}
        built = build_from_f1_h2(f1, h2, 3)
        assert built.entries == sigma_min.entries
        fac = factorize(built)
        assert fac.H.entries == min_ext.entries

    def test_identity_gives_plain_extension(self, chain3, min_ext):
        f1 = FiniteMap.identity(chain3.elements)
        h2 = {(u, v): chain3.meet(u, v) for u in chain3.elements for v in chain3.elements}
        built = build_from_f1_h2(f1, h2, 3)
        assert built.entries == min_ext.entries

    def test_result_is_preassociative_and_uqri(self, chain3):
        f1 = FiniteMap(chain3.elements, ("p", "q", "r"), {"0": "p", "1": "q", "2": "r"})
        h2 = {(u, v): chain3.join(u, v) for u in chain3.elements for v in chain3.elements}
        built = build_from_f1_h2(f1, h2, 3)
        assert check_preassociative(built, "P1").holds
        assert check_unarily_quasi_range_idempotent(built).holds

    def test_mod3_subtraction_rejected(self, chain3):
        sub = {
            (u, v): str((int(u) - int(v)) % 3)
            for u in chain3.elements
            for v in chain3.elements
        }
        f1 = FiniteMap.identity(chain3.elements)
        with pytest.raises(ConditionError) as err:
            build_from_f1_h2(f1, sub, 3)
        assert err.value.condition == "iii"
        assert err.value.witness is not None

    def test_is_f1_composed_with_the_identity_extension_of_h2(self, chain3):
        identity = FiniteMap.identity(chain3.elements)
        maps = [
            identity,
            FiniteMap(chain3.elements, chain3.elements, SIGMA),
            FiniteMap(chain3.elements, ("s", "q", "r", "p"), {"0": "p", "1": "s", "2": "q"}),
        ]
        count = 0
        for h2 in associative_tables(chain3):
            for f1 in maps:
                built = build_from_f1_h2(f1, h2, 3)
                assert built == compose(f1, extend_unary_binary(identity, h2, 3))
                assert built.codomain == f1.codomain
                count += 1
        assert count == 3 * 113

    def test_non_injective_unary_rejected(self, chain2):
        const = FiniteMap(chain2.elements, chain2.elements, {"0": "0", "1": "0"})
        f2 = {(u, v): chain2.meet(u, v) for u in chain2.elements for v in chain2.elements}
        with pytest.raises(ValueError):
            build_from_f1_h2(const, f2, 2)


class TestRecursiveEval:
    def test_matches_table_on_all_tuples(self, chain3, sigma_min):
        f1 = FiniteMap(chain3.elements, chain3.elements, SIGMA)
        g = FiniteMap(chain3.elements, chain3.elements, {v: k for k, v in SIGMA.items()})
        f2 = {
            (u, v): sigma_min.entries[(u, v)]
            for u in chain3.elements
            for v in chain3.elements
        }
        for n in range(1, 4):
            for t in product(chain3.elements, repeat=n):
                assert recursive_eval(f1, f2, g, t) == sigma_min.eval(t)

    def test_base_case_is_unary_part(self, chain3, sigma_min):
        f1 = FiniteMap(chain3.elements, chain3.elements, SIGMA)
        g = FiniteMap(chain3.elements, chain3.elements, {v: k for k, v in SIGMA.items()})
        assert recursive_eval(f1, {}, g, ("2",)) == SIGMA["2"]

    def test_two_step_unfold(self, chain3, min_ext):
        f1 = FiniteMap.identity(chain3.elements)
        g = FiniteMap.identity(chain3.elements)
        f2 = {
            (u, v): min_ext.entries[(u, v)]
            for u in chain3.elements
            for v in chain3.elements
        }
        assert recursive_eval(f1, f2, g, ("2", "1")) == "1"

    def test_requires_quasi_inverse(self, chain3, sigma_min):
        f1 = FiniteMap(chain3.elements, chain3.elements, SIGMA)
        not_g = FiniteMap(chain3.elements, chain3.elements, SIGMA)  # sigma, not its inverse
        with pytest.raises(DomainMismatchError):
            recursive_eval(f1, {}, not_g, ("0", "1"))


class TestStandardnessNecessity:
    def test_factored_form_without_standardness_is_not_preassociative(self, remark_b):
        # the non-nullary part factors trivially (H = F, f = id) yet the
        # function fails preassociativity because its default collides
        assert not check_preassociative(remark_b, "P1").holds
        assert not check_associative(remark_b, "A1").holds

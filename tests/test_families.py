"""Generated families: quasi-sums, Ling-type operations, seeds, medians."""

import dataclasses
import math
from itertools import product

import pytest

from preassoc.checks import (
    check_associative,
    check_convex_sections,
    check_nondecreasing,
    check_nonincreasing,
    check_preassociative,
    check_range_idempotent,
    check_symmetric,
    check_unarily_quasi_range_idempotent,
)
import preassoc
from preassoc import core, families
from preassoc.core import Chain
from preassoc.errors import AxiomError, GeneratorError, GridClosureError
from preassoc.factorize import factorize
from preassoc.families import (
    FAMILIES,
    GeneratedFn,
    Interval,
    MedianParams,
    lift_tnorm,
    make_ling,
    make_median_family,
    make_quasi_sum,
    make_variadic_seed,
    tabulate,
)
from preassoc.quasi_inverse import FiniteMap


def _med(chain: Chain, u, v, w):
    """The ternary median under the chain order."""
    return sorted((u, v, w), key=chain.index)[1]


def median_formula(chain: Chain, params: MedianParams, xs) -> object:
    """med(a, (c∧x1) ∨ med(⋀x, c∧d, ⋁x) ∨ (d∧xn), b) under the chain order.

    The reference for the median family's tables, which are computed on
    chain indices.
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    lo, hi = min(xs, key=chain.index), max(xs, key=chain.index)
    inner = _med(chain, lo, chain.meet(c, d), hi)
    inner = chain.join(chain.join(chain.meet(c, xs[0]), inner), chain.meet(d, xs[-1]))
    return _med(chain, a, inner, b)


class TestInterval:
    @pytest.mark.parametrize(
        "interval",
        [
            dict(lo=math.inf, hi=math.inf),
            dict(lo=-math.inf, hi=-math.inf),
            dict(lo=1, hi=1, lo_open=True),
            dict(lo=1, hi=1, hi_open=True),
            dict(lo=2, hi=1),
        ],
        ids=["plus-infinity", "minus-infinity", "lo-open-point", "hi-open-point", "reversed"],
    )
    def test_an_interval_without_a_real_number_is_refused(self, interval):
        with pytest.raises(ValueError, match="holds no real number"):
            Interval(**interval)

    @pytest.mark.parametrize("lo, hi", [(math.nan, 1), (0, math.nan)], ids=["lo", "hi"])
    def test_a_nan_end_is_refused(self, lo, hi):
        with pytest.raises(ValueError, match="interval end nan is not a number"):
            Interval(lo, hi)

    @pytest.mark.parametrize(
        "interval",
        [
            Interval(0, 1),
            Interval(0, 1, True, True),
            Interval(0, math.inf),
            Interval(-math.inf, 0, hi_open=True),
            Interval(),
        ],
        ids=["closed", "open", "half-line-up", "half-line-down", "line"],
    )
    def test_a_nan_point_lies_in_no_interval(self, interval):
        assert not interval.contains(math.nan)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: make_quasi_sum(lambda x: x, lambda t: t, Interval(0, 1)),
            lambda: make_ling(lambda x: 1 - x, lambda t: 1 - t, 0, 1),
        ],
        ids=["quasi_sum", "ling"],
    )
    def test_a_generated_family_refuses_a_nan_input(self, make):
        with pytest.raises(ValueError, match=r"^input nan outside interval \[0(\.0)?, 1(\.0)?\]$"):
            make().eval([0.5, math.nan])

    def test_a_closed_point_and_half_lines_are_intervals(self):
        assert Interval(1, 1).contains(1)
        assert Interval(-math.inf, 0).contains(-1e300)
        assert Interval(0, math.inf, lo_open=True).contains(1e300)


class TestQuasiSum:
    def test_log_exp_is_product(self):
        gen = make_quasi_sum(math.log, math.exp, Interval(0, 1, lo_open=True))
        assert gen.eval((0.5, 0.5)) == pytest.approx(0.25, abs=1e-12)

    def test_identity_pair_is_summation(self):
        gen = make_quasi_sum(lambda x: x, lambda t: t, Interval())
        assert gen.eval((1.0, 2.0, 3.5)) == pytest.approx(6.5, abs=1e-12)

    def test_cubed_psi_breaks_sampled_associativity(self):
        gen = make_quasi_sum(lambda x: x, lambda t: t ** 3, Interval())
        assert gen.eval((1.0, 2.0)) == pytest.approx(27.0, abs=1e-12)
        # preassociativity survives tabulation, plain associativity does not
        fn = tabulate(gen, [0.0, 1.0, 2.0], 2)
        assert check_preassociative(fn, "P2").holds
        lhs = gen.eval((1.0, 2.0))
        rhs = gen.eval((gen.eval((1.0, 2.0)),))
        assert abs(lhs - rhs) > 1.0  # psi is not the identity on its range

    def test_rejects_nonmonotone_phi(self):
        with pytest.raises(GeneratorError):
            make_quasi_sum(lambda x: x * x, lambda t: t, Interval(-1, 1))

    @pytest.mark.parametrize(
        "interval",
        [Interval(10, math.inf), Interval(-math.inf, -20), Interval(-math.inf, 5)],
        ids=["from-10", "up-to-minus-20", "up-to-5"],
    )
    def test_every_grid_point_of_a_half_line_lies_inside_it(self, interval):
        # the finite end lies past the ±8 window in the first two
        grid = families._sample_grid(interval)
        assert all(interval.lo <= x <= interval.hi for x in grid), grid
        assert grid == sorted(set(grid))

    def test_phi_defined_only_past_the_window_is_accepted(self):
        phi = lambda x: math.sqrt(x - 9.5)  # noqa: E731
        gen = make_quasi_sum(phi, lambda t: t, Interval(10, math.inf))
        assert gen.eval((10.5, 13.5)) == pytest.approx(3.0, abs=1e-12)
        phi = lambda x: math.sqrt(-19.5 - x)  # noqa: E731
        gen = make_quasi_sum(phi, lambda t: t, Interval(-math.inf, -20))
        assert gen.eval((-20.5, -23.5)) == pytest.approx(3.0, abs=1e-12)


class TestLing:
    def test_lukasiewicz_shape(self):
        gen = make_ling(lambda x: 1 - x, lambda t: 1 - t, 0, 1)
        # direct arithmetic: 1 - min((1-0.7) + (1-0.7), 1) = 0.4
        assert gen.eval((0.7, 0.7)) == pytest.approx(0.4, abs=1e-12)

    def test_neutral_at_b_on_grid(self):
        gen = make_ling(lambda x: 1 - x, lambda t: 1 - t, 0, 1)
        for i in range(11):
            x = i / 10
            assert gen.eval((1.0, x)) == pytest.approx(
                gen.eval((x,)), abs=1e-12
            )

    def test_interior_diagonal_drops(self):
        gen = make_ling(lambda x: 1 - x, lambda t: 1 - t, 0, 1)
        for i in range(1, 10):
            x = i / 10  # interior points only
            assert gen.eval((x, x)) < gen.eval((x,))

    def test_phi_endpoint_enforced(self):
        with pytest.raises(GeneratorError):
            make_ling(lambda x: 2 - x, lambda t: t, 0, 1)  # phi(1) = 1 != 0

    def test_phi_must_decrease(self):
        with pytest.raises(GeneratorError):
            make_ling(lambda x: x - 1, lambda t: t, 0, 1)


QUARTER_GRID = [0, 0.25, 0.5, 0.75, 1]


class TestVariadicSeeds:
    def test_lukasiewicz_triple(self):
        fn = make_variadic_seed("tnorm", "lukasiewicz", QUARTER_GRID, 3)
        # max(0, max(0, .75 + .75 - 1) + .75 - 1) = 0.25
        assert fn.eval(("0.75", "0.75", "0.75")) == "0.25"

    def test_neutral_law_on_grid(self):
        fn = make_variadic_seed("tnorm", "lukasiewicz", QUARTER_GRID, 2)
        for s in fn.domain.elements:
            assert fn.eval(("1", s)) == s

    def test_drastic_associative_at_three(self):
        fn = make_variadic_seed("tnorm", "drastic", [0, 0.5, 1], 3)
        assert check_associative(fn, "A1").holds

    def test_unary_part_is_identity(self):
        fn = make_variadic_seed("tnorm", "min", QUARTER_GRID, 3)
        assert all(fn.entries[(s,)] == s for s in fn.domain.elements)

    def test_tconorms(self):
        for name in ("max", "bounded-sum"):
            fn = make_variadic_seed("tconorm", name, QUARTER_GRID, 3)
            assert check_associative(fn, "A1").holds
            assert all(fn.eval(("0", s)) == s for s in fn.domain.elements)

    def test_uninorm_needs_interior_neutral(self):
        fn = make_variadic_seed("uninorm", "idempotent-min", QUARTER_GRID, 3, e=0.5)
        assert check_associative(fn, "A1").holds
        assert all(fn.eval(("0.5", s)) == s for s in fn.domain.elements)
        with pytest.raises(ValueError):
            make_variadic_seed("uninorm", "idempotent-min", QUARTER_GRID, 2, e=1.0)
        with pytest.raises(ValueError):
            make_variadic_seed("uninorm", "idempotent-min", QUARTER_GRID, 2)

    @pytest.mark.parametrize(
        "name, e", [("idempotent-min", 0.5 + 1e-13), ("idempotent-max", 0.5 - 1e-13)]
    )
    def test_uninorm_is_built_at_the_snapped_neutral(self, name, e):
        # e within tolerance of 0.5 names the grid point 0.5, so the catalog
        # uninorm must be the one built at 0.5, not at the raw e
        near = make_variadic_seed("uninorm", name, [0, 0.5, 1], 2, e=e)
        exact = make_variadic_seed("uninorm", name, [0, 0.5, 1], 2, e=0.5)
        assert near.entries == exact.entries

    def test_uninorm_neutral_must_be_a_chain_element(self):
        chain = Chain(("0", "1", "2"))
        with pytest.raises(ValueError, match="'9'"):
            make_variadic_seed("uninorm", chain.meet, chain, 2, e="9")

    def test_grid_closure_enforced(self):
        with pytest.raises(GridClosureError):
            make_variadic_seed("tnorm", "product", [0, 0.5, 1], 2)

    def test_grid_may_be_a_one_shot_iterator(self):
        fn = make_variadic_seed("tnorm", "min", iter(QUARTER_GRID), 2)
        assert fn.entries == make_variadic_seed("tnorm", "min", QUARTER_GRID, 2).entries

    def test_chain_closure_enforced(self, chain3):
        def meet_or_outside(u, v):
            return "3" if u == v == "1" else chain3.meet(u, v)

        with pytest.raises(GridClosureError, match="leaves the carrier"):
            make_variadic_seed("tnorm", meet_or_outside, chain3, 2)

    def test_axiom_failure_is_named(self):
        # a non-symmetric binary operation dressed as a t-norm
        def projection(x, y):
            return x

        with pytest.raises(AxiomError) as err:
            make_variadic_seed("tnorm", projection, [0, 0.5, 1], 2)
        assert err.value.axiom in ("neutral", "symmetric")

    def test_chain_carrier(self, chain3):
        fn = make_variadic_seed("tnorm", lambda u, v: chain3.meet(u, v), chain3, 3)
        assert check_associative(fn, "A1").holds
        assert fn.eval(("2", "0")) == "0"

    def test_catalog_min_respects_chain_order(self):
        # listing order b < a disagrees with string comparison
        weird = Chain(("b", "a"))
        fn = make_variadic_seed("tnorm", "min", weird, 2)
        assert fn.eval(("a", "b")) == "b"
        with pytest.raises(ValueError):
            make_variadic_seed("tnorm", "product", weird, 2)


class TestLift:
    def test_negation_flips_direction(self):
        seed = make_variadic_seed("tnorm", "min", QUARTER_GRID, 3)
        lifted = lift_tnorm(lambda x: -x, seed)
        assert check_nonincreasing(lifted).holds
        assert check_symmetric(lifted).holds
        # F2(1, x) = F1(x) = -x
        for s in seed.domain.elements:
            assert lifted.eval(("1", s)) == lifted.eval((s,))

    def test_identity_lift_is_seed(self):
        seed = make_variadic_seed("tnorm", "min", QUARTER_GRID, 2)
        assert lift_tnorm(lambda x: x, seed).entries == seed.entries

    def test_square_lift_factorizes_back(self):
        seed = make_variadic_seed("tnorm", "lukasiewicz", QUARTER_GRID, 3)
        lifted = lift_tnorm(lambda x: x * x, seed)
        fac = factorize(lifted)
        assert fac.H.entries == seed.entries
        assert check_preassociative(lifted, "P1").holds
        assert check_unarily_quasi_range_idempotent(lifted).holds

    def test_rejects_nonmonotone(self):
        seed = make_variadic_seed("tnorm", "min", QUARTER_GRID, 2)
        with pytest.raises(GeneratorError):
            lift_tnorm(lambda x: (x - 0.5) ** 2, seed)


class TestMedianFamily:
    def test_c_median_behavior(self, chain4):
        fn = make_median_family(MedianParams("0", "3", "1", "1"), chain4, 3)
        # H2(2, 3) = med(0, (1^2) v med(2, 1, 3) v (1^3), 3) = med(0, 2, 3) = 2
        assert fn.eval(("2", "3")) == "2"
        # c-median shape: med(min, 1, max) on the full window
        for t in product(chain4.elements, repeat=3):
            lo, hi = min(t, key=chain4.index), max(t, key=chain4.index)
            assert fn.eval(t) == _med(chain4, lo, "1", hi)

    def test_degenerate_window_is_constant(self, chain4):
        fn = make_median_family(MedianParams("1", "1", "1", "1"), chain4, 2)
        assert set(fn.entries.values()) == {"1"}

    def test_symmetry_iff_c_equals_d(self, chain4):
        sym = make_median_family(MedianParams("0", "3", "2", "2"), chain4, 3)
        asym = make_median_family(MedianParams("0", "3", "2", "1"), chain4, 3)
        assert check_symmetric(sym).holds
        assert not check_symmetric(asym).holds

    def test_defining_property_suite(self, chain4):
        fn = make_median_family(MedianParams("0", "3", "1", "2"), chain4, 3)
        assert check_associative(fn, "A1").holds
        assert check_range_idempotent(fn).holds
        assert check_nondecreasing(fn).holds
        assert check_convex_sections(fn).holds

    def test_params_validation(self, chain4):
        with pytest.raises(ValueError):
            MedianParams("2", "1", "1", "1").validate(chain4)
        with pytest.raises(ValueError):
            MedianParams("1", "2", "0", "2").validate(chain4)  # a > c^d
        with pytest.raises(ValueError):
            make_median_family(MedianParams("2", "1", "1", "1"), chain4, 2)

    def test_f_lift_keeps_conclusions(self, chain4):
        f = FiniteMap(
            ("0", "1", "2", "3"),
            ("p", "q", "r", "s"),
            {"0": "p", "1": "q", "2": "r", "3": "s"},
        )
        fn = make_median_family(MedianParams("0", "3", "1", "2"), chain4, 3, f=f)
        assert check_preassociative(fn, "P1").holds
        assert check_unarily_quasi_range_idempotent(fn).holds
        assert check_nondecreasing(fn).holds
        assert check_convex_sections(fn).holds

    def test_f_must_be_increasing_with_convex_range(self, chain4):
        window = ("0", "1", "2", "3")
        decreasing = FiniteMap(window, ("p", "q", "r", "s"),
                               {"0": "s", "1": "r", "2": "q", "3": "p"})
        with pytest.raises(GeneratorError):
            make_median_family(MedianParams("0", "3", "1", "1"), chain4, 2, f=decreasing)
        gappy = FiniteMap(window, ("p", "q", "r", "s", "t"),
                          {"0": "p", "1": "q", "2": "r", "3": "t"})
        with pytest.raises(GeneratorError):
            make_median_family(MedianParams("0", "3", "1", "1"), chain4, 2, f=gappy)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_table_equals_formula_for_every_valid_params(self, k):
        # the table is the left fold of its unary and binary parts; the
        # formula, evaluated at every tuple, is the reference
        chain = Chain(tuple("zyxwv"[:k]))  # listing order against string order
        top = 5 if k <= 4 else 4
        valid = 0
        for a, b, c, d in product(chain.elements, repeat=4):
            params = MedianParams(a, b, c, d)
            try:
                params.validate(chain)
            except ValueError:
                continue
            valid += 1
            expected = {t: median_formula(chain, params, t) for t in chain.tuples_up_to(top)[1:]}
            for n in range(1, top + 1):
                entries = make_median_family(params, chain, n).entries
                assert list(entries) == list(chain.tuples_up_to(n)[1:])
                mismatch = next((t for t in entries if entries[t] != expected[t]), None)
                assert mismatch is None, (params, n, mismatch)
            if k == 4:  # relabeled into foreign labels, the range one past the least
                window = chain.elements[chain.index(a) : chain.index(b) + 1]
                labels = tuple("PQRST")
                f = FiniteMap(window, labels, dict(zip(window, labels[1:])))
                relabeled = make_median_family(params, chain, top, f=f)
                assert relabeled.codomain == labels
                assert relabeled.entries == {t: f.graph[v] for t, v in expected.items()}, params
        assert valid == {1: 1, 2: 6, 3: 20, 4: 50, 5: 105}[k]

    def test_formula_matches_unary_median(self, chain4):
        params = MedianParams("1", "2", "1", "2")
        for u in chain4.elements:
            assert median_formula(chain4, params, (u,)) == _med(chain4, "1", u, "2")


class TestModuleLayout:
    MOVED = ("tabulate", "Interval", "GeneratedFn", "REL_TOL", "ABS_TOL")

    def test_package_root_exports_the_families_objects(self):
        for name in self.MOVED:
            assert getattr(preassoc, name) is getattr(families, name)
            assert not hasattr(core, name)
        assert preassoc.canonical_symbol is core.canonical_symbol

    def test_generated_families_are_quasi_sum_and_ling(self):
        assert FAMILIES == ("quasi_sum", "ling")
        fields = [f.name for f in dataclasses.fields(GeneratedFn)]
        assert fields == ["family", "interval", "phi", "psi", "a"]
        with pytest.raises(ValueError, match="unknown family"):
            GeneratedFn("median_chain", Interval(0, 3), abs, abs)
        with pytest.raises(ValueError, match="bound a"):
            GeneratedFn("ling", Interval(0, 1), abs, abs)

"""Quasi-inverse algebra on small finite maps."""

from itertools import product

import pytest

from preassoc.errors import DomainMismatchError, PinError
from preassoc.quasi_inverse import (
    FiniteMap,
    canonical_quasi_inverse,
    is_quasi_inverse,
    right_inverses,
)


@pytest.fixture
def collapse_map():
    """f: {1,2,3} -> {1,2} with f(1) = f(2) = 1, f(3) = 2."""
    return FiniteMap((1, 2, 3), (1, 2), {1: 1, 2: 1, 3: 2})


class TestIsQuasiInverse:
    def test_identity(self):
        i = FiniteMap.identity((1, 2, 3))
        ok, witness = is_quasi_inverse(i, i)
        assert ok and witness is None

    def test_worked_positive_example(self, collapse_map):
        g = FiniteMap((1, 2), (1, 2, 3), {1: 2, 2: 3})
        # f(g(1)) = f(2) = 1, f(g(2)) = f(3) = 2; ran(g|ran f) = {2,3} = ran(g)
        ok, witness = is_quasi_inverse(collapse_map, g)
        assert ok and witness is None

    def test_worked_negative_example(self, collapse_map):
        g = FiniteMap((1, 2), (1, 2, 3), {1: 3, 2: 3})
        ok, witness = is_quasi_inverse(collapse_map, g)
        assert not ok
        assert witness["y"] == 1 and witness["f(g(y))"] == 2

    def test_range_preservation_condition(self, collapse_map):
        # g defined on a larger domain whose extra value never appears on ran(f)
        g = FiniteMap((1, 2, 9), (1, 2, 3), {1: 1, 2: 3, 9: 2})
        ok, witness = is_quasi_inverse(collapse_map, g)
        assert not ok
        assert witness["condition"] == "range-preservation"
        assert witness["value"] == 2

    def test_domain_mismatch(self, collapse_map):
        g = FiniteMap((1,), (1, 2, 3), {1: 1})  # dom(g) misses ran(f)
        with pytest.raises(DomainMismatchError):
            is_quasi_inverse(collapse_map, g)


class TestRightInverses:
    def test_count_is_product_of_preimage_sizes(self, collapse_map):
        out = right_inverses(collapse_map)
        assert len(out) == 2
        assert [g.graph for g in out] == [{1: 1, 2: 3}, {1: 2, 2: 3}]

    def test_bijection_has_exactly_one(self):
        f = FiniteMap((1, 2, 3), ("a", "b", "c"), {1: "b", 2: "c", 3: "a"})
        out = right_inverses(f)
        assert len(out) == 1
        assert out[0].graph == {"b": 1, "c": 2, "a": 3}

    def test_constant_on_three_points(self):
        f = FiniteMap((1, 2, 3), ("k",), {1: "k", 2: "k", 3: "k"})
        out = right_inverses(f)
        assert len(out) == 3

    def test_every_right_inverse_is_quasi_inverse(self, collapse_map):
        for g in right_inverses(collapse_map):
            ok, _ = is_quasi_inverse(collapse_map, g)
            assert ok


class TestCanonical:
    def test_smallest_preimage_rule(self, collapse_map):
        g = canonical_quasi_inverse(collapse_map)
        assert g.graph == {1: 1, 2: 3}

    def test_pin_overrides(self, collapse_map):
        g = canonical_quasi_inverse(collapse_map, [(1, 2)])
        assert g.graph == {1: 2, 2: 3}

    def test_median_unary_part_pins(self):
        # f(x) = med(1, x, 2) on the chain 0 < 1 < 2 < 3
        f = FiniteMap(
            ("0", "1", "2", "3"),
            ("0", "1", "2", "3"),
            {"0": "1", "1": "1", "2": "2", "3": "2"},
        )
        g = canonical_quasi_inverse(f, [("1", "1"), ("2", "2")])
        assert g.graph == {"1": "1", "2": "2"}
        ok, _ = is_quasi_inverse(f, g)
        assert ok

    def test_invalid_pin(self, collapse_map):
        with pytest.raises(PinError):
            canonical_quasi_inverse(collapse_map, [(2, 1)])  # f(1) = 1 != 2
        with pytest.raises(PinError):
            canonical_quasi_inverse(collapse_map, [(1, 1), (1, 2)])

    def test_canonical_passes_is_quasi_inverse(self, collapse_map):
        g = canonical_quasi_inverse(collapse_map)
        ok, _ = is_quasi_inverse(collapse_map, g)
        assert ok


def all_finite_maps(dom_size, cod_size):
    dom = tuple(range(1, dom_size + 1))
    cod = tuple("abc"[:cod_size])
    for values in product(cod, repeat=dom_size):
        yield FiniteMap(dom, cod, dict(zip(dom, values)))


class TestEnumeratedAlgebra:
    """Structural laws over every map between sets of size <= 3."""

    def test_symmetry_restriction_and_injectivity(self):
        for dom_size in (1, 2, 3):
            for cod_size in (1, 2, 3):
                for f in all_finite_maps(dom_size, cod_size):
                    ris = right_inverses(f)
                    sizes = [len(f.preimage(y)) for y in f.range]
                    expected = 1
                    for s in sizes:
                        expected *= s
                    assert len(ris) == expected
                    for g in ris:
                        ok, _ = is_quasi_inverse(f, g)
                        assert ok
                        # symmetry: f is a quasi-inverse of g
                        ok_rev, _ = is_quasi_inverse(g, f)
                        assert ok_rev
                        # restriction of g to ran(f) is g itself here; f|ran(g)
                        # and g|ran(f) are one-to-one
                        assert g.is_one_to_one()
                        sub = g.range
                        f_restricted = FiniteMap(sub, f.codomain, {x: f.graph[x] for x in sub})
                        assert f_restricted.is_one_to_one()

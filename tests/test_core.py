"""Core types: chains, tables, evaluation, tabulation, ranges."""

import copy
import dataclasses
import math
import pickle
import random
import re
from itertools import islice, product

import pytest

from preassoc import core
from preassoc.checks import EPSILON_DEFAULT_ONLY, PROPERTY_NAMES, run_checks
from preassoc.core import EPSILON, Chain, TableFn, canonical_symbol, left_fold, ranges
from preassoc.errors import ArityError, GeneratorError, UnknownSymbolError
from preassoc.families import GeneratedFn, Interval, tabulate
from preassoc.quasi_inverse import FiniteMap
from preassoc.serialization import dumps_function, loads_function

from conftest import tuple_table


class TestChain:
    def test_order_and_lattice(self):
        c = Chain(("a", "b", "c"))
        assert c.leq("a", "c") and not c.leq("c", "a")
        assert c.meet("c", "a") == "a"
        assert c.join("c", "a") == "c"

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            Chain(("a", "a"))
        with pytest.raises(ValueError):
            Chain(())
        with pytest.raises(ValueError):
            Chain(("a", EPSILON))

    def test_tuple_enumeration_order(self):
        c = Chain(("0", "1"))
        ts = list(c.tuples_up_to(2))
        assert ts[0] == ()
        assert ts[1:3] == [("0",), ("1",)]
        assert len(ts) == 1 + 2 + 4

    def test_tuples_are_cached_in_the_old_order(self):
        c = Chain(("1", "0", "2"))
        ts = c.tuples_up_to(3)
        # shortest first, then lexicographic in the chain's listing order
        assert ts == tuple(t for n in range(4) for t in product(c.elements, repeat=n))
        assert c.tuples_up_to(3) is ts
        assert Chain(("1", "0", "2")).tuples_up_to(3) is ts  # one cache per elements
        assert c.tuples(2) is c.tuples(2) and c.tuples(2) == ts[4:13]
        assert all(a is b for a, b in zip(c.tuples(2), ts[4:13]))  # shared tuple objects


class TestEval:
    def test_first_element_projection(self, first_element2):
        assert first_element2.eval(("0", "1", "1")) == "0"

    def test_empty_tuple_gives_default(self, first_element2):
        assert first_element2.eval(()) is EPSILON

    def test_min_extension(self, min3):
        assert min3.eval(("2", "0", "1")) == "0"

    def test_arity_exceeded(self, min3):
        with pytest.raises(ArityError):
            min3.eval(("0",) * 4)

    def test_unknown_symbol(self, min3):
        with pytest.raises(UnknownSymbolError):
            min3.eval(("0", "9"))

    def test_concatenation_neutrality(self, min3):
        for t in min3.domain.tuples_up_to(3):
            assert min3.eval(() + t) == min3.eval(t) == min3.eval(t + ())

    def test_entries_must_be_total(self, chain2):
        entries = {("0",): "0"}
        with pytest.raises(ValueError, match="not total"):
            TableFn(chain2, ("0", "1"), 2, EPSILON, entries)

    def test_default_must_be_admissible(self, chain2):
        entries = {t: "0" for n in (1, 2) for t in product(chain2.elements, repeat=n)}
        with pytest.raises(ValueError, match="default"):
            TableFn(chain2, ("0", "1"), 2, "zzz", entries)

    def test_entry_keys_must_be_tuples(self, chain2):
        # a string key has a length and symbols, but eval looks up tuples
        entries = {"0": "0", "1": "1", "00": "0", "01": "0", "10": "0", "11": "1"}
        with pytest.raises(ValueError, match="not a tuple"):
            TableFn(chain2, ("0", "1"), 2, EPSILON, entries)

    @pytest.mark.parametrize(
        "bad,error,message",
        [
            ("10", ValueError, r"^entry key '10' is not a tuple$"),
            ((), ValueError, r"^entry arity 0 outside 1\.\.2$"),
            (("1", "0", "0"), ValueError, r"^entry arity 3 outside 1\.\.2$"),
            (("1", "9"), UnknownSymbolError, r"^entry \('1', '9'\) uses unknown domain symbol"),
        ],
    )
    def test_a_key_fault_is_named_when_the_entry_count_is_total(
        self, chain2, bad, error, message
    ):
        # six keys, as many as the tuples of length 1..2, with ("1", "0") replaced;
        # a later fault of another kind is not the one named
        entries = {("0",): "0", ("1",): "1", ("0", "0"): "0", ("0", "1"): "0"}
        entries.update({bad: "0", ("1", "7"): "1"})
        with pytest.raises(error, match=message):
            TableFn(chain2, ("0", "1"), 2, EPSILON, entries)

    def test_tuple_subclass_keys_are_accepted(self, chain2):
        class Args(tuple):
            pass

        entries = {Args(t): t[0] for n in (1, 2) for t in product(chain2.elements, repeat=n)}
        fn = TableFn(chain2, chain2.elements, 2, EPSILON, entries)
        assert fn.eval(("1", "0")) == "1"

    def test_entry_values_must_be_in_the_codomain(self, chain2):
        # the first entry valued outside the codomain is named
        entries = {("0",): "0", ("1",): "2", ("0", "0"): "3", ("0", "1"): "0"}
        entries.update({("1", "0"): "0", ("1", "1"): "1"})
        message = r"^entry value '2' at \('1',\) is outside the codomain$"
        with pytest.raises(ValueError, match=message):
            TableFn(chain2, ("0", "1"), 2, EPSILON, entries)

    @pytest.mark.parametrize("bad", [True, 1.0, 0])
    def test_max_arity_must_be_a_positive_int(self, chain2, bad):
        entries = {(u,): u for u in chain2.elements}
        with pytest.raises(ValueError, match="max_arity"):
            TableFn(chain2, chain2.elements, bad, EPSILON, entries)


class TestImmutability:
    def test_entries_are_copied(self, chain2):
        entries = {t: t[0] for n in (1, 2) for t in product(chain2.elements, repeat=n)}
        fn = TableFn(chain2, chain2.elements, 2, EPSILON, entries)
        entries[("0", "1")] = "zzz"
        assert fn.entries[("0", "1")] == "0"
        assert fn.eval(("0", "1")) == "0"

    def test_entries_are_read_only(self, min3):
        with pytest.raises(TypeError):
            min3.entries[("0",)] = "1"
        assert min3.eval(("0",)) == "0"

    def test_copies_are_equal_and_valid(self, min3, length_fn):
        for fn in (min3, length_fn):
            for other in (pickle.loads(pickle.dumps(fn)), copy.deepcopy(fn)):
                assert other == fn
                assert other.eval(()) == fn.default
                for t in fn.domain.tuples_up_to(fn.max_arity):
                    assert other.eval(t) == fn.eval(t)
            _assert_rebuilt_from_the_row(fn)
        changed = dataclasses.replace(min3, default="1")
        assert changed != min3 and changed.entries == min3.entries
        assert changed.eval(()) == "1" and changed.eval(("2", "0")) == "0"

    def test_unhashable(self, min3):
        with pytest.raises(TypeError):
            hash(min3)

    def test_finite_map_unhashable(self):
        with pytest.raises(TypeError):
            hash(FiniteMap.identity(("0", "1")))


def _listed(entries, order):
    """The same entries listed in canonical, reversed or shuffled order."""
    items = list(entries.items())
    if order == "reversed":
        items.reverse()
    elif order == "shuffled":
        random.Random(20310).shuffle(items)
    return dict(items)


def _valued(chain, n, value):
    return {t: value(t) for t in chain.tuples_up_to(n)[1:]}


_KEY_FAULT = r"^entry key '10' is not a tuple$"
_VALUE_FAULT = r"^entry value '7' at \('1',\) is outside the codomain$"
_SHORT_FAULT = r"^entries not total at arity 2: expected 4, found 3$"
_LONG_FAULT = r"^entry arity 3 outside 1\.\.2$"

#: fault -> changes to the 2-chain's arity-2 table t -> t[0]: t: a new value
#: at t, ("key", t): a key in t's stead, ("drop", t): no entry at t, and
#: "extra": one entry past N, after the last
_TWO_FAULTS = {
    "key+value": {("0", "0"): "7", ("key", ("1", "0")): "10"},
    "value+short": {("1",): "7", ("drop", ("1", "1")): True},
    "value+hole": {("1",): "7", ("drop", ("0", "1")): True},
    "two-values": {("1",): "7", ("1", "0"): "8"},
    "long+value": {("1",): "7", "extra": True},
}


#: case -> (chain, codomain, max arity, default, entries in canonical order)
ROW_CASES = {
    "symbol-default": lambda: (
        Chain(("0", "1")), ("0", "1", "2", "3"), 3, "0",
        _valued(Chain(("0", "1")), 3, lambda t: str(len(t))),
    ),
    "foreign-codomain": lambda: (
        Chain(("0", "1", "2")), ("p", "q", "r"), 3, EPSILON,
        _valued(Chain(("0", "1", "2")), 3, lambda t: "pqr"[len(set(t)) - 1]),
    ),
    "epsilon-values": lambda: (
        Chain(("0", "1")), ("0", "1", EPSILON), 2, "1",
        _valued(Chain(("0", "1")), 2, lambda t: EPSILON if t[-1] == "1" else t[0]),
    ),
    "1-chain": lambda: (
        Chain(("a",)), ("a", "b"), 4, "b", _valued(Chain(("a",)), 4, lambda t: "ab"[len(t) % 2]),
    ),
}


def _assert_rebuilt_from_the_row(fn):
    """Pickled, copied and deep-copied once its laws are decided, ``fn`` comes back whole."""
    if fn.is_operation:  # the laws that keep answers on a table read operations only
        run_checks(fn, set(PROPERTY_NAMES) - EPSILON_DEFAULT_ONLY)
        assert fn._decided
    names = {f.name for f in dataclasses.fields(TableFn)} - {"_decided"}
    for rebuilt in (pickle.loads(pickle.dumps(fn)), copy.copy(fn), copy.deepcopy(fn)):
        assert rebuilt == fn and rebuilt._row == fn._row
        assert type(rebuilt.entries) is core._RowEntries
        assert set(vars(rebuilt)) == names  # the decided answers are not carried over


class TestRow:
    """``_row``: every tuple's value in ``tuples_up_to`` order, however the entries were listed."""

    @pytest.mark.parametrize("order", ["canonical", "reversed", "shuffled"])
    @pytest.mark.parametrize("case", ROW_CASES)
    def test_row_lists_every_value_in_tuple_order(self, case, order):
        chain, codomain, n, default, entries = ROW_CASES[case]()
        given = _listed(entries, order)
        fn = TableFn(chain, codomain, n, default, given)
        table = tuple_table(fn)
        assert fn._row == tuple(table[t] for t in chain.tuples_up_to(n))
        assert fn._row[0] == default
        # the entries view the row, in tuple order, whatever order they were given in
        assert list(fn.entries) == list(chain.tuples_up_to(n)[1:])
        assert type(fn.entries) is core._RowEntries
        _assert_rebuilt_from_the_row(fn)

    @pytest.mark.parametrize("case", ROW_CASES)
    def test_of_row_rebuilds_the_table(self, case):
        chain, codomain, n, default, entries = ROW_CASES[case]()
        fn = TableFn(chain, codomain, n, default, _listed(entries, "shuffled"))
        built = TableFn._of_row(chain, codomain, n, fn._row)
        assert built == fn and built._row == fn._row
        assert list(built.entries) == list(chain.tuples_up_to(n)[1:])
        _assert_rebuilt_from_the_row(built)

    @pytest.mark.parametrize("case", ROW_CASES)
    def test_row_view_is_the_entry_mapping(self, case):
        chain, codomain, n, default, entries = ROW_CASES[case]()
        twin = TableFn(chain, codomain, n, default, _listed(entries, "shuffled"))
        fn = TableFn._of_row(chain, codomain, n, twin._row)
        assert fn == twin and twin == fn
        assert fn.entries == entries and entries == fn.entries
        assert fn.entries == twin.entries and twin.entries == fn.entries
        assert len(fn.entries) == len(twin.entries) == len(entries)
        assert list(fn.entries) == list(chain.tuples_up_to(n)[1:])
        assert list(fn.entries.items()) == list(entries.items())
        assert list(reversed(fn.entries.items())) == list(reversed(entries.items()))
        first = chain.elements[0]
        for key in [(), (first, "zz"), first, 0, (first,) * (n + 1)]:
            assert key not in fn.entries and key not in twin.entries
            with pytest.raises(KeyError):
                fn.entries[key]
        for key in chain.tuples_up_to(n)[1:]:
            assert key in fn.entries and fn.entries[key] == entries[key] == fn.eval(key)
        with pytest.raises(TypeError):
            fn.entries[chain.tuples_up_to(n)[1]] = default
        for copied in (pickle.loads(pickle.dumps(fn)), dataclasses.replace(fn), copy.copy(fn)):
            assert copied == fn and copied._row == fn._row
        assert set(vars(fn)) <= {f.name for f in dataclasses.fields(TableFn)}  # no cache beside
        assert dict(zip(chain.tuples_up_to(n), fn._row)) == {(): default, **entries}

    def test_of_row_sizes_a_short_row_without_tuples(self):
        chain = Chain(("short-row-p", "short-row-q"))
        p, q = chain.elements
        built = core._tuples.cache_info().misses, core._positions.cache_info().misses
        message = r"^entries not total at arity 2: expected 4, found 1$"
        with pytest.raises(ValueError, match=message):
            TableFn._of_row(chain, chain.elements, 10**9, (EPSILON, p, q, p))
        assert (core._tuples.cache_info().misses, core._positions.cache_info().misses) == built
        with pytest.raises(ValueError, match=message):
            TableFn(chain, chain.elements, 10**9, EPSILON, {(p,): p, (q,): q, (p, p): p})
        # a value fault names its tuple off the layers the row reaches
        message = r"^entry value 'zz' at \('short-row-q',\) is outside the codomain$"
        with pytest.raises(ValueError, match=message):
            TableFn._of_row(chain, chain.elements, 10**9, (EPSILON, p, "zz", p))
        with pytest.raises(ValueError, match=message):
            TableFn(chain, chain.elements, 10**9, EPSILON, {(p,): p, (q,): "zz", (p, p): p})

    @pytest.mark.parametrize(
        "fault,message",
        [
            ("short", r"^entries not total at arity 2: expected 4, found 3$"),
            ("long", r"^entry arity 3 outside 1\.\.2$"),
            ("long-foreign", r"^entry arity 3 outside 1\.\.2$"),
            ("value", r"^entry value '7' at \('1', '0'\) is outside the codomain$"),
            ("arity-0", r"^max_arity must be an integer >= 1$"),
            ("arity-negative", r"^max_arity must be an integer >= 1$"),
        ],
        ids=["short", "long", "long-foreign", "value", "arity-0", "arity-negative"],
    )
    def test_of_row_refuses_with_the_key_paths_message(self, chain2, fault, message):
        entries = _valued(chain2, 2, lambda t: t[0])
        n = {"arity-0": 0, "arity-negative": -1}.get(fault, 2)
        if fault == "short":
            del entries[("1", "1")]  # the row's last value
        elif fault.startswith("long"):  # one value past the row, at the first 3-tuple's key
            entries[("0", "0", "0")] = "zz" if fault == "long-foreign" else "0"
        elif fault == "value":
            entries[("1", "0")] = "7"
        with pytest.raises(ValueError, match=message):
            TableFn(chain2, chain2.elements, n, EPSILON, entries)
        with pytest.raises(ValueError, match=message):
            TableFn._of_row(chain2, chain2.elements, n, [EPSILON, *entries.values()])

    def test_row_decides_equality_outside_the_repr(self):
        chain, codomain, n, default, entries = ROW_CASES["symbol-default"]()
        fn = TableFn(chain, codomain, n, default, entries)
        other = TableFn(chain, codomain, n, default, _listed(entries, "reversed"))
        assert fn == other and "_row" not in repr(fn)

    @pytest.mark.parametrize("case", ROW_CASES)
    def test_tables_compare_by_row_without_reading_entries(self, case, monkeypatch):
        chain, codomain, n, default, entries = ROW_CASES[case]()
        twin = TableFn(chain, codomain, n, default, _listed(entries, "shuffled"))
        fn = TableFn._of_row(chain, codomain, n, twin._row)
        last = chain.tuples_up_to(n)[-1]
        other = next(v for v in codomain if v != entries[last])
        changed = TableFn._of_row(chain, codomain, n, (*twin._row[:-1], other))

        def unread(self):
            raise AssertionError("equality read the entries")

        monkeypatch.setattr(core._RowEntries, "__iter__", unread)
        assert fn == twin and twin == fn and fn == TableFn._of_row(chain, codomain, n, fn._row)
        assert fn != changed and changed != fn and twin != changed and changed != twin

    @pytest.mark.parametrize("order", ["canonical", "reversed", "shuffled"])
    @pytest.mark.parametrize(
        "fault,error,message",
        [
            ("10", ValueError, r"^entry key '10' is not a tuple$"),
            (("1", "0", "0"), ValueError, r"^entry arity 3 outside 1\.\.2$"),
            (("1", "9"), UnknownSymbolError, r"^entry \('1', '9'\) uses unknown domain symbol"),
            (None, ValueError, r"^entries not total at arity 2: expected 4, found 3$"),
            ("value", ValueError, r"^entry value '7' at \('1', '0'\) is outside the codomain$"),
        ],
    )
    def test_each_refusal_keeps_its_message_in_any_order(
        self, chain2, order, fault, error, message
    ):
        # one fault at the place of ("1", "0"): a key in its stead, no entry, or a foreign value
        items = []
        for t, v in _valued(chain2, 2, lambda t: t[0]).items():
            if t != ("1", "0"):
                items.append((t, v))
            elif fault == "value":
                items.append((t, "7"))
            elif fault is not None:
                items.append((fault, v))
        with pytest.raises(error, match=message):
            TableFn(chain2, chain2.elements, 2, EPSILON, _listed(dict(items), order))

    @pytest.mark.parametrize(
        "fault,kind,message",
        [
            ("key+value", "in-order", _KEY_FAULT),
            ("key+value", "reversed", _KEY_FAULT),
            # a mapping in row order is read as its row: its values before its length
            ("value+short", "row", _VALUE_FAULT),
            ("value+short", "in-order", _VALUE_FAULT),
            # a mapping that skips a tuple and is no prefix of the row: short before any value
            ("value+short", "reversed", _SHORT_FAULT),
            ("value+hole", "in-order", _SHORT_FAULT),
            ("value+hole", "reversed", _SHORT_FAULT),
            # two bad values: the first in tuple order, whatever order they were listed in
            ("two-values", "row", _VALUE_FAULT),
            ("two-values", "in-order", _VALUE_FAULT),
            ("two-values", "reversed", _VALUE_FAULT),
            # one entry past the tuples of length N, with a bad value: the length first
            ("long+value", "row", _LONG_FAULT),
            ("long+value", "in-order", _LONG_FAULT),
            ("long+value", "reversed", _LONG_FAULT),
        ],
    )
    def test_of_two_faults_each_input_kind_names_the_same_one(self, chain2, fault, kind, message):
        items = [(t, t[0]) for t in chain2.tuples_up_to(2)[1:]]
        changes = _TWO_FAULTS[fault]
        items = [
            (changes.get(("key", t), t), changes.get(t, v))
            for t, v in items if ("drop", t) not in changes
        ]
        if "extra" in changes:
            items.append((("0", "0", "0"), "0"))
        with pytest.raises(ValueError, match=message):
            if kind == "row":
                TableFn._of_row(chain2, chain2.elements, 2, [EPSILON, *(v for _, v in items)])
            else:
                given = dict(items if kind == "in-order" else reversed(items))
                TableFn(chain2, chain2.elements, 2, EPSILON, given)


class TestReach:
    """``core._reach``: the count of tuples of length 1..m the constructor and the reader share."""

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("k", range(1, 6))
    def test_reach_is_the_plain_sum_up_to_the_first_arity_past_the_count(self, k, n):
        sums = [sum(k**a for a in range(1, m + 1)) for m in range(n + 1)]
        sizes = {size for total in sums for size in (total - 1, total, total + 1) if size >= 0}
        for size in sorted(sizes):
            m = next((m for m in range(1, n + 1) if sums[m] > size), n)
            assert core._reach(k, n, size) == (m, sums[m]), size

    def test_reach_stops_at_the_count_however_large_the_arity(self):
        assert core._reach(2, 10**9, 5) == (2, 6)
        assert core._reach(1, 10**9, 0) == (1, 1)
        assert core._reach(3, 10**9, 10**6) == (13, sum(3**a for a in range(1, 14)))


class TestRanges:
    def test_length_function(self, length_fn):
        ran1, ranflat = ranges(length_fn)
        assert ran1 == frozenset({"1"})
        assert ranflat == frozenset({"1", "2", "3"})

    def test_min_extension_idempotent(self, min3):
        ran1, ranflat = ranges(min3)
        assert ran1 == ranflat == frozenset({"0", "1", "2"})

    def test_constant(self, chain2):
        entries = {t: "1" for n in (1, 2) for t in product(chain2.elements, repeat=n)}
        fn = TableFn(chain2, ("0", "1"), 2, "1", entries)
        assert ranges(fn) == (frozenset({"1"}), frozenset({"1"}))

    def test_inclusion_always(self, min3, length_fn, first_element2):
        for fn in (min3, length_fn, first_element2):
            ran1, ranflat = ranges(fn)
            assert ran1 <= ranflat


class TestTabulate:
    def test_binary_min_counts(self, chain2):
        fn = tabulate(chain2.meet, chain2, 3)
        assert len(fn.entries) == 2 + 4 + 8
        assert fn.is_epsilon_standard

    def test_arity_one_count_matches_chain(self, chain3):
        fn = tabulate(chain3.meet, chain3, 1)
        assert len(fn.entries) == len(chain3)

    def test_round_trip_against_generated(self):
        gen = GeneratedFn(
            family="quasi_sum",
            interval=Interval(0, 1, lo_open=True),
            phi=math.log,
            psi=math.exp,
        )
        grid = [0.25, 0.5, 1.0]
        fn = tabulate(gen, grid, 2)
        for t in product(grid, repeat=2):
            expected = canonical_symbol(gen.eval(t))
            key = tuple(canonical_symbol(x) for x in t)
            assert fn.eval(key) == expected

    def test_near_equal_values_collapse(self):
        gen = GeneratedFn(
            family="quasi_sum",
            interval=Interval(0, 1, lo_open=True),
            phi=math.log,
            psi=math.exp,
        )
        fn = tabulate(gen, [0.1, 0.9], 2)
        # 0.1 * 0.9 and 0.9 * 0.1 must land on one symbol
        assert fn.eval(("0.1", "0.9")) == fn.eval(("0.9", "0.1")) == "0.09"

    def test_int_default_is_canonicalized(self):
        fn = tabulate(min, [0, 1], 2, default=1)
        assert fn == tabulate(min, [0, 1], 2, default=1.0)
        assert fn.default == "1" and fn.codomain == ("0", "1")
        assert loads_function(dumps_function(fn)) == fn

    def test_nan_grid_point_is_refused(self):
        with pytest.raises(ValueError, match="grid point nan is not a number"):
            tabulate(min, [0, math.nan, 1], 2)

    @pytest.mark.parametrize(
        "source, grid, where",
        [
            (GeneratedFn("quasi_sum", Interval(), lambda x: x, lambda t: t),
             [-math.inf, 0, math.inf], "(-inf,inf)"),
            (lambda u, v: u - v, [0, math.inf], "(inf,inf)"),
        ],
        ids=["quasi-sum", "binary"],
    )
    def test_nan_value_is_refused_naming_its_tuple(self, source, grid, where):
        # the least tuple valued NaN, shortest first, is named
        with pytest.raises(ValueError, match=re.escape(f"value at {where} is not a number")):
            tabulate(source, grid, 3)

    def test_rejects_generated_on_chain(self, chain2):
        gen = GeneratedFn(family="quasi_sum", interval=Interval(), phi=abs, psi=abs)
        with pytest.raises(TypeError):
            tabulate(gen, chain2, 2)

    def test_monotonicity_guard_on_user_grid(self):
        gen = GeneratedFn(
            family="quasi_sum", interval=Interval(-1, 1), phi=lambda x: x * x, psi=lambda t: t
        )
        with pytest.raises(GeneratorError):
            tabulate(gen, [-0.5, 0.0, 0.5], 2)


class TestLeftFold:
    @staticmethod
    def per_tuple(chain, unary, binary, max_arity):
        """The fold's definition, one tuple at a time off its prefix, in tuple order."""
        values = {(): EPSILON, **{(x,): unary[x] for x in chain.elements}}
        for t in chain.tuples_up_to(max_arity):
            if len(t) >= 2:
                values[t] = binary[values[t[:-1]], t[-1]]
        return [values[t] for t in chain.tuples_up_to(max_arity)]

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("max_arity", [1, 2, 3, 4])
    def test_equals_its_per_tuple_definition(self, k, max_arity):
        chain = Chain(tuple("cba"[:k]))  # listing order against string order
        elements = chain.elements
        identity = dict(zip(elements, elements))
        shift = dict(zip(elements, elements[1:] + elements[:1]))
        # every binary table on the 1- and 2-chain, associative or not; a sample on the 3-chain
        binaries = [
            dict(zip(chain.tuples(2), values))
            for values in islice(product(elements, repeat=k * k), 0, None, 1 if k < 3 else 997)
        ]
        for binary in binaries:
            for unary in (identity, shift):
                row = left_fold(chain, unary, binary, max_arity)
                assert row == self.per_tuple(chain, unary, binary, max_arity)
                assert len(row) == len(chain.tuples_up_to(max_arity)) and row[0] is EPSILON

    def test_binary_into_foreign_labels(self, chain3):
        # the unary part and the binary's values are labels, its pairs keyed by them
        labels = ("p", "q", "r", "s")
        unary = dict(zip(chain3.elements, labels))
        binary = {
            (v, x): labels[(labels.index(v) * 3 + chain3.index(x) + 1) % 4]
            for v in labels
            for x in chain3.elements
        }
        row = left_fold(chain3, unary, binary, 4)
        assert row == self.per_tuple(chain3, unary, binary, 4)
        assert len(row) == len(chain3.tuples_up_to(4)) and row[0] is EPSILON
        assert set(row[1:]) == set(labels)

    def test_missing_pair_raises_key_error(self, chain2):
        unary = {"0": "0", "1": "1"}
        binary = {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1"}
        assert left_fold(chain2, unary, binary, 1) == [EPSILON, "0", "1"]  # arity 1 reads no pair
        with pytest.raises(KeyError) as err:
            left_fold(chain2, unary, binary, 2)
        assert err.value.args == (("1", "1"),)
        with pytest.raises(KeyError):
            left_fold(chain2, {"0": "0"}, binary, 1)


class TestGeneratedEval:
    def test_quasi_sum_product(self):
        gen = GeneratedFn(
            family="quasi_sum",
            interval=Interval(0, 1, lo_open=True),
            phi=math.log,
            psi=math.exp,
        )
        assert gen.eval((0.5, 0.5)) == pytest.approx(0.25, abs=1e-12)

    def test_unary_case_is_psi_phi(self):
        gen = GeneratedFn(
            family="quasi_sum", interval=Interval(0, 2), phi=lambda x: x + 1, psi=lambda t: 2 * t
        )
        for i in range(10):
            x = 0.2 * i
            assert gen.eval((x,)) == pytest.approx(2 * (x + 1), abs=1e-12)

    def test_ling_lukasiewicz_value(self):
        gen = GeneratedFn(
            family="ling",
            interval=Interval(0, 1),
            phi=lambda x: 1 - x,
            psi=lambda t: 1 - t,
            a=0.0,
        )
        # direct arithmetic oracle: 1 - min(0.3 + 0.3, 1) = 0.4
        assert gen.eval((0.7, 0.7)) == pytest.approx(0.4, abs=1e-12)

    def test_rejects_empty_and_out_of_interval(self):
        gen = GeneratedFn(family="quasi_sum", interval=Interval(0, 1), phi=abs, psi=abs)
        with pytest.raises(ValueError):
            gen.eval(())
        with pytest.raises(ValueError):
            gen.eval((2.0,))


def test_epsilon_marker_is_singleton_and_unpicklable_to_copy():
    import pickle

    assert pickle.loads(pickle.dumps(EPSILON)) is EPSILON
    assert repr(EPSILON) == "ε"

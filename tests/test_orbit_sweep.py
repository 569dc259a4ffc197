"""The theorem sweep's law masks against per-table reference bits.

``equivalence_sweep`` decides each law for every candidate at once, as a
mask over the candidate indices, from the law's definition.  The reference
here builds each table and reads the checkers' scans (``_function_bits``), so
the tests hold the masks and the checkers to each other, law by law.  The
reference's bits are also checked to be invariant under relabeling
(F ↦ σ∘F∘σ⁻¹ for a permutation σ of the chain symbols) and reversal of the
argument order (F ↦ G, G(x₁…xₙ) = F(xₙ…x₁)), as every law's definition is.
"""

import hashlib
import random
from array import array
from functools import lru_cache
from itertools import permutations

import pytest

from preassoc import enumeration
from preassoc.checks import (
    _a1_scan,
    _a3_scan,
    _p1_pass,
    _p2_scan,
    check_range_idempotent,
    check_replication_invariant,
    check_replication_preinvariant,
    check_unarily_quasi_range_idempotent,
    check_unarily_range_idempotent,
)
from preassoc.core import EPSILON, TableFn
from preassoc.enumeration import (
    SWEEP_EQUIVALENCES,
    SWEEP_PROPERTIES,
    _Universe,
    _law_masks,
    _sweep_bits,
    default_chain,
    epsilon_standard_at,
    epsilon_standard_count,
    equivalence_sweep,
    preassociative_tables,
)

from conftest import tuple_table


def _function_bits(fn: TableFn) -> dict:
    """The sweep properties of one table, each read off its checker's scan.

    A1, A3 and P2 run their scans, not the decider, P1 its raw pass and PREPL
    its checker, which has no decider, so no answer is kept on the table.
    """
    table = tuple_table(fn)
    elements = fn.domain.elements
    a1 = _a1_scan(fn).holds
    return {
        "A1": a1,
        "A2": a1,  # the A2 verdict holds exactly when A1's does
        "A3": _a3_scan(fn).holds,
        "P1": _p1_pass(fn) is not None,
        "P2": _p2_scan(fn).holds,
        "URI": check_unarily_range_idempotent(fn).holds,
        "UQRI": check_unarily_quasi_range_idempotent(fn).holds,
        "RI": check_range_idempotent(fn).holds,
        "REPL": check_replication_invariant(fn).holds,
        "PREPL": check_replication_preinvariant(fn).holds,
        "F1F1": all(table[(table[(u,)],)] == table[(u,)] for u in elements),
        "FF2": all(table[(table[(u,)], table[(u,)])] == table[(u,)] for u in elements)
        if fn.max_arity >= 2
        else True,
    }


def _relabel(fn: TableFn, sigma: dict, step: int = 1) -> TableFn:
    """σ∘F∘σ⁻¹, its arguments reversed when ``step`` is -1.

    The table of F with every chain symbol x renamed σ(x) and, for step -1,
    every tuple read back to front.
    """
    entries = {tuple(sigma[x] for x in t)[::step]: sigma[v] for t, v in fn.entries.items()}
    return TableFn(fn.domain, fn.codomain, fn.max_arity, EPSILON, entries)


def _relabelings_of(chain) -> list:
    """Every permutation of the chain symbols as a dict, the identity first."""
    return [dict(zip(chain.elements, image)) for image in permutations(chain.elements)]


def _index_of(fn: TableFn) -> int:
    """The index of a default-ε standard table, its base-k digits over the slots."""
    elements = fn.domain.elements
    k = len(elements)
    slots = fn.domain.tuples_up_to(fn.max_arity)[1:]
    return sum(elements.index(fn.entries[t]) * k**s for s, t in enumerate(slots))


def _pattern(bits: dict) -> int:
    """A candidate's two bytes as an int: bit i for ``SWEEP_PROPERTIES[i]``."""
    return sum(1 << i for i, name in enumerate(SWEEP_PROPERTIES) if bits[name])


def _patterns(chain_size: int, max_arity: int, indices) -> array:
    """The pattern of each index, every table checked on its own."""
    chain = default_chain(chain_size)
    bits = (_function_bits(epsilon_standard_at(chain, max_arity, i)) for i in indices)
    return array("H", map(_pattern, bits))


@lru_cache(maxsize=None)
def _universe_patterns(chain_size: int, max_arity: int) -> array:
    return _patterns(chain_size, max_arity, range(epsilon_standard_count(chain_size, max_arity)))


def _blob(patterns) -> bytes:
    """The patterns packed as the sweep packs them, two bytes each, big-endian."""
    return b"".join(p.to_bytes(2, "big") for p in patterns)


def _masks(patterns) -> dict:
    """Each property's mask over ``patterns``: bit j set where the j-th pattern has it."""
    return {
        name: sum(1 << j for j, p in enumerate(patterns) if p >> i & 1)
        for i, name in enumerate(SWEEP_PROPERTIES)
    }


def _bits_at(blob: bytes, index: int) -> dict:
    """The named bits of an index, read back off packed bits."""
    value = int.from_bytes(blob[2 * index : 2 * index + 2], "big")
    return {name: bool(value >> i & 1) for i, name in enumerate(SWEEP_PROPERTIES)}


@pytest.fixture(scope="module")
def brute_2_3():
    """The packed bits of every table of the 2-chain/arity-3 universe, each checked on its own."""
    return _blob(_universe_patterns(2, 3))


@pytest.mark.parametrize("max_arity,samples", [(2, 300), (3, 200)])
def test_every_sweep_bit_is_relabeling_invariant_on_the_3_chain(max_arity, samples):
    chain = default_chain(3)
    rng = random.Random(15 + max_arity)
    total = epsilon_standard_count(3, max_arity)
    for _ in range(samples):
        fn = epsilon_standard_at(chain, max_arity, rng.randrange(total))
        bits = _function_bits(fn)
        for sigma in _relabelings_of(chain):
            image = _function_bits(_relabel(fn, sigma))
            for name in SWEEP_PROPERTIES:
                assert image[name] == bits[name], (name, fn.entries, sigma)


@pytest.mark.parametrize("max_arity,samples", [(2, 150), (3, 100)])
def test_every_sweep_bit_is_invariant_under_reversal_and_relabeling_on_the_3_chain(
    max_arity, samples
):
    chain = default_chain(3)
    rng = random.Random(23 + max_arity)
    total = epsilon_standard_count(3, max_arity)
    for _ in range(samples):
        fn = epsilon_standard_at(chain, max_arity, rng.randrange(total))
        bits = _function_bits(fn)
        # the relabelings alone are the test above; here every σ with reversal
        for sigma in _relabelings_of(chain):
            assert _function_bits(_relabel(fn, sigma, -1)) == bits, (fn.entries, sigma)


def _assert_invariant_on_2_chain_arity_3(brute_2_3, sigma, step):
    chain = default_chain(2)
    for index in range(epsilon_standard_count(2, 3)):
        image = _index_of(_relabel(epsilon_standard_at(chain, 3, index), sigma, step))
        assert _bits_at(brute_2_3, image) == _bits_at(brute_2_3, index), index


def test_every_sweep_bit_is_relabeling_invariant_on_the_2_chain_at_arity_3(brute_2_3):
    (_, swap) = _relabelings_of(default_chain(2))
    _assert_invariant_on_2_chain_arity_3(brute_2_3, swap, 1)


def test_every_sweep_bit_is_reversal_invariant_on_the_2_chain_at_arity_3(brute_2_3):
    (identity, _) = _relabelings_of(default_chain(2))
    _assert_invariant_on_2_chain_arity_3(brute_2_3, identity, -1)


def _digits(index: int, chain_size: int, slots: int) -> tuple:
    """The base-k digits of an index over the slots, the last (most significant) slot first."""
    return tuple(index // chain_size**s % chain_size for s in reversed(range(slots)))


@pytest.mark.parametrize("chain_size,max_arity", [(2, 2), (2, 3), (3, 1), (4, 1)])
@pytest.mark.parametrize("stride", [2, 3])
def test_a_stride_reads_the_digits_of_its_indices(chain_size, max_arity, stride):
    # the slot masks, read at every stride-th index from each offset, give
    # the base-k digits of the index, and read last slot first they are the
    # entries of ``epsilon_standard_at`` at that index
    chain = default_chain(chain_size)
    universe = _Universe(chain, max_arity)
    slots = universe.slots
    total = epsilon_standard_count(chain_size, max_arity)
    assert universe.full == (1 << total) - 1
    # each mask's bits in index order, one digit string per (slot, symbol)
    columns = {t: [f"{m:0{total}b}"[::-1] for m in universe.masks[t]] for t in slots}
    assert all(len(c) == total for cs in columns.values() for c in cs)
    for start in range(stride):
        for index in range(start, total, stride):
            read = []
            for t in reversed(slots):
                (digit,) = [j for j, c in enumerate(columns[t]) if c[index] == "1"]
                read.append(digit)
            assert tuple(read) == _digits(index, chain_size, len(slots)), index
            fn = epsilon_standard_at(chain, max_arity, index)
            entries = tuple(chain.elements[d] for d in read)
            assert entries == tuple(fn.entries[t] for t in reversed(slots)), index


WHOLE_UNIVERSES = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (4, 1)]


@pytest.mark.parametrize("chain_size,max_arity", WHOLE_UNIVERSES)
def test_each_law_mask_equals_the_reference_on_whole_universes(chain_size, max_arity):
    reference = _masks(_universe_patterns(chain_size, max_arity))
    masks = _law_masks(chain_size, max_arity)
    assert list(masks) == list(SWEEP_PROPERTIES)
    wrong = [name for name in SWEEP_PROPERTIES if masks[name] != reference[name]]
    assert not wrong, f"masks differ from the reference for {wrong}"


@pytest.mark.parametrize("chain_size,max_arity", WHOLE_UNIVERSES)
def test_packed_bits_equal_the_reference_on_whole_universes(chain_size, max_arity):
    # the packed bits the digest is taken of, against the reference packed alike
    expected = _blob(_universe_patterns(chain_size, max_arity))
    total = epsilon_standard_count(chain_size, max_arity)
    assert _sweep_bits(_law_masks(chain_size, max_arity), total) == expected
    report = equivalence_sweep(chain_size, max_arity)
    assert report.bits_digest == hashlib.sha256(expected).hexdigest()


#: Each sweep line as a predicate over one candidate's bits, the theorem as stated.
THEOREMS = {
    "A1_iff_P1_and_URI": lambda p: p["A1"] == (p["P1"] and p["URI"]),
    "A1_iff_A2": lambda p: p["A1"] == p["A2"],
    "A1_iff_A3": lambda p: p["A1"] == p["A3"],
    "P1_iff_P2": lambda p: p["P1"] == p["P2"],
    "URI_iff_UQRI_and_F1F1": lambda p: p["URI"] == (p["UQRI"] and p["F1F1"]),
    "RI_lemma_i_iff_ii": lambda p: (p["A1"] and p["RI"]) == (p["A1"] and p["FF2"]),
    "RI_lemma_i_iff_iii": lambda p: (p["A1"] and p["RI"]) == (p["P1"] and p["UQRI"] and p["RI"]),
    "RI_lemma_i_iff_iv": lambda p: (p["A1"] and p["RI"])
    == (p["P1"] and p["UQRI"] and p["F1F1"] and p["FF2"]),
    "A1_implies_P1": lambda p: (not p["A1"]) or p["P1"],
    "REPL_implies_PREPL": lambda p: (not p["REPL"]) or p["PREPL"],
    "P1_implies_PREPL": lambda p: (not p["P1"]) or p["PREPL"],
    "A1_and_REPL_iff_A1_and_RI": lambda p: (p["A1"] and p["REPL"]) == (p["A1"] and p["RI"]),
}


def test_each_line_fails_exactly_where_the_patched_reference_breaks_it(monkeypatch):
    # the laws are right, so no line fails on its own; flip some candidates'
    # bits of every law, set and cleared alike, in the sweep and in the
    # reference, and each line must fail on exactly the candidates where the
    # theorem, evaluated on the reference's bits, breaks
    assert list(THEOREMS) == list(SWEEP_EQUIVALENCES)
    total = epsilon_standard_count(2, 3)
    rng = random.Random(28)
    flips = {name: rng.sample(range(total), 2000) for name in enumeration._LAWS}
    for name, indices in flips.items():
        flip = sum(1 << i for i in indices)
        law = enumeration._LAWS[name]
        monkeypatch.setitem(enumeration._LAWS, name, lambda u, law=law, flip=flip: law(u) ^ flip)
    report = equivalence_sweep(2, 3)

    flips["A2"] = flips["A1"]  # the sweep reads A2 off A1's mask
    patterns = array("H", _universe_patterns(2, 3))
    for name, indices in flips.items():
        bit = 1 << SWEEP_PROPERTIES.index(name)
        for i in indices:
            patterns[i] ^= bit
    bits = [{name: bool(p >> i & 1) for i, name in enumerate(SWEEP_PROPERTIES)} for p in patterns]
    expected = {
        line: [i for i, b in enumerate(bits) if not holds(b)] for line, holds in THEOREMS.items()
    }
    # every line but A1_iff_A2, whose sides are one mask, is broken somewhere
    unbroken = [line for line, failing in expected.items() if not failing]
    assert unbroken == ["A1_iff_A2"], unbroken
    assert report.equivalence_failures == expected
    assert report.property_counts == {name: sum(b[name] for b in bits) for name in SWEEP_PROPERTIES}
    assert report.bits_digest == hashlib.sha256(_blob(patterns)).hexdigest()


_BAD_SIZES = [
    (2, 0, "max_arity"),
    (2, -1, "max_arity"),
    (0, 2, "chain_size"),
    (True, 2, "chain_size"),
]


@pytest.mark.parametrize(
    "chain_size, max_arity, name, workers",
    [(*bad, workers) for workers in (1, 2) for bad in _BAD_SIZES]
    + [(2, 2, "workers", workers) for workers in (0, -1, True)],
)
def test_sizes_below_one_are_refused_before_any_work(chain_size, max_arity, name, workers):
    def refuse(*args):
        raise AssertionError("the sweep started")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_law_masks", refuse)
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1$"):
            equivalence_sweep(chain_size, max_arity, workers=workers)


@pytest.fixture(scope="module")
def sweep_3_2():
    """``equivalence_sweep(3, 2)``, the law masks it read its report off and their packed bits."""
    packed = []
    real = enumeration._sweep_bits

    def keep(masks, total):
        packed.append((masks, real(masks, total)))
        return packed[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_sweep_bits", keep)
        report = equivalence_sweep(3, 2)
    ((masks, blob),) = packed
    return report, masks, blob


def test_3_chain_arity_2_universe_matches_the_brute_reference(sweep_3_2):
    report, _, blob = sweep_3_2
    assert report.total == 531441
    # frozen from a brute sweep that checked every one of the 531 441 tables
    assert report.property_counts == {
        "A1": 19782,
        "A2": 19782,
        "A3": 19782,
        "P1": 119565,
        "P2": 119565,
        "URI": 22758,
        "UQRI": 127317,
        "F1F1": 196830,
        "RI": 1500,
        "FF2": 63423,
        "REPL": 19683,
        "PREPL": 242757,
    }
    assert report.all_equivalences_hold()
    assert report.bits_digest == hashlib.sha256(blob).hexdigest() == (
        "f4031230bdbcb2a90f10d071255cd44e903718c2dd0752773c3bc90b54303f93"
    )
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
        "17ebcbcfade3744a6b77114e71f4ac91135f6e2a984e0f343a7c6cb21826c761"
    )


def test_3_chain_arity_2_p1_count_equals_the_p1_tables_built_layer_by_layer(sweep_3_2):
    report, _, _ = sweep_3_2
    chain = default_chain(3)
    tables = preassociative_tables(chain, 2, chain.elements, (EPSILON,))
    assert sum(1 for _ in tables) == report.property_counts["P1"] == 119565


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_3_chain_arity_2_slices_equal_brute_bits(sweep_3_2, seed):
    _, masks, blob = sweep_3_2
    rng = random.Random(seed)
    lo = rng.randrange(531441 - 400)
    patterns = _patterns(3, 2, range(lo, lo + 400))
    reference = _masks(patterns)
    window = (1 << 400) - 1
    wrong = [name for name in SWEEP_PROPERTIES if masks[name] >> lo & window != reference[name]]
    assert not wrong, f"masks differ from the reference for {wrong} at {lo}..{lo + 399}"
    assert blob[2 * lo : 2 * lo + 800] == _blob(patterns)

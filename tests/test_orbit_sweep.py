"""The orbit-shared theorem sweep against per-index bits.

``equivalence_sweep`` computes the property bits once per orbit under
relabeling (F ↦ σ∘F∘σ⁻¹ for a permutation σ of the chain symbols) and
reversal of the argument order (F ↦ G, G(x₁…xₙ) = F(xₙ…x₁)), and copies them
to the orbit's other members.  These tests check the invariance it rests on,
the index images it moves along, and its output against bits computed for
every index on its own.
"""

import hashlib
import random
from itertools import islice, permutations

import pytest

from preassoc import enumeration
from preassoc.core import EPSILON, TableFn
from preassoc.enumeration import (
    SWEEP_PROPERTIES,
    _function_bits,
    _symmetries,
    _sweep_bits,
    _sweep_range,
    default_chain,
    epsilon_standard_at,
    epsilon_standard_count,
    equivalence_sweep,
    preassociative_tables,
)


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


def _symmetries_of(chain) -> list:
    """Every (σ, step) of relabeling × reversal, the reversing ones (step -1) first."""
    return [(sigma, step) for step in (-1, 1) for sigma in _relabelings_of(chain)]


def _index_of(fn: TableFn) -> int:
    """The index of a default-ε standard table, its base-k digits over the slots."""
    elements = fn.domain.elements
    k = len(elements)
    slots = fn.domain.tuples_up_to(fn.max_arity)[1:]
    return sum(elements.index(fn.entries[t]) * k**s for s, t in enumerate(slots))


def _packed(index_bits: dict) -> bytes:
    value = sum(1 << i for i, name in enumerate(SWEEP_PROPERTIES) if index_bits[name])
    return value.to_bytes(2, "big")


def _brute_bits(chain_size: int, max_arity: int, indices) -> bytes:
    """The packed bits of each index, every table checked on its own."""
    chain = default_chain(chain_size)
    return b"".join(
        _packed(_function_bits(epsilon_standard_at(chain, max_arity, i))) for i in indices
    )


def _bits_at(blob: bytes, index: int) -> dict:
    """The named bits of an index, read back off packed bits."""
    value = int.from_bytes(blob[2 * index : 2 * index + 2], "big")
    return {name: bool(value >> i & 1) for i, name in enumerate(SWEEP_PROPERTIES)}


@pytest.fixture(scope="module")
def brute_2_3():
    """The packed bits of every table of the 2-chain/arity-3 universe, each checked on its own."""
    return _brute_bits(2, 3, range(epsilon_standard_count(2, 3)))


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


@pytest.mark.parametrize(
    "chain_size,max_arity", [(1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)]
)
def test_index_images_are_the_relabeled_tables(chain_size, max_arity):
    chain = default_chain(chain_size)
    slots = chain.tuples_up_to(max_arity)[1:]
    # each (σ, step) as the map (t, v) -> (its tuple, its value); one image per
    # distinct map other than the identity's, in the order they first come
    actions = {}
    for sigma, step in _symmetries_of(chain):
        moved = tuple((tuple(sigma[x] for x in t)[::step], sigma[v]) for t in slots for v in chain)
        actions.setdefault(moved, (sigma, step))
    del actions[tuple((t, v) for t in slots for v in chain)]
    images = _symmetries(chain_size, max_arity)
    assert len(images) == len(actions)
    assert all(len(terms) == len(slots) for terms in images)
    total = epsilon_standard_count(chain_size, max_arity)
    rng = random.Random(chain_size * 10 + max_arity)
    indices = range(total) if total <= 4096 else [rng.randrange(total) for _ in range(500)]
    for index in indices:
        fn = epsilon_standard_at(chain, max_arity, index)
        ds = _digits(index, chain_size, len(slots))
        for terms, (sigma, step) in zip(images, actions.values()):
            image = sum(terms[j][d] for j, d in enumerate(ds))
            assert image == _index_of(_relabel(fn, sigma, step)), (index, sigma, step)


@pytest.mark.parametrize("chain_size,max_arity", [(2, 2), (2, 3), (3, 1), (4, 1)])
@pytest.mark.parametrize("stride", [2, 3])
def test_a_stride_reads_the_digits_of_its_indices(chain_size, max_arity, stride):
    chain = default_chain(chain_size)
    slots = chain.tuples_up_to(max_arity)[1:]
    total = epsilon_standard_count(chain_size, max_arity)
    for start in range(stride):
        indices = range(start, total, stride)
        read = []

        def recorded(*args):
            for ds in islice(*args):
                read.append(ds)
                yield ds

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(enumeration, "islice", recorded)
            _sweep_range((chain_size, max_arity, indices))
        assert read == [_digits(i, chain_size, len(slots)) for i in indices]
        for index, ds in zip(indices, read):
            fn = epsilon_standard_at(chain, max_arity, index)
            entries = tuple(chain.elements[d] for d in ds)
            assert entries == tuple(fn.entries[t] for t in reversed(slots)), index


@pytest.mark.parametrize("chain_size,max_arity", [(1, 2), (2, 2), (2, 3), (3, 1), (4, 1)])
def test_only_the_least_index_of_an_orbit_is_its_own_source(chain_size, max_arity):
    chain = default_chain(chain_size)
    total = epsilon_standard_count(chain_size, max_arity)
    group = _symmetries_of(chain)
    least = set()
    for index in range(total):
        fn = epsilon_standard_at(chain, max_arity, index)
        least.add(min(_index_of(_relabel(fn, sigma, step)) for sigma, step in group))
    _, sources = _sweep_range((chain_size, max_arity, range(total)))
    assert {i for i, source in enumerate(sources) if source == i} == least
    assert all(source <= i for i, source in enumerate(sources))
    if (chain_size, max_arity) == (2, 3):
        # (16 384 + 128 + 2 048 + 0) / 4 by Burnside: the fixed tables of the
        # identity, the swap, reversal and the swap with reversal
        assert len(least) == 4640


def test_the_3_chain_at_arity_2_has_46026_orbit_least_indices():
    # only the source search runs: no table is built or checked
    no_bits = dict.fromkeys(SWEEP_PROPERTIES, False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "epsilon_standard_at", lambda *args: None)
        mp.setattr(enumeration, "_function_bits", lambda fn: no_bits)
        _, sources = _sweep_range((3, 2, range(epsilon_standard_count(3, 2))))
    assert sum(source == i for i, source in enumerate(sources)) == 46026


@pytest.mark.parametrize(
    "chain_size,max_arity", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (4, 1)]
)
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_orbit_shared_bits_equal_brute_bits_on_whole_universes(
    chain_size, max_arity, workers, request
):
    if (chain_size, max_arity) == (2, 3):
        brute = request.getfixturevalue("brute_2_3")
    else:
        total = epsilon_standard_count(chain_size, max_arity)
        brute = _brute_bits(chain_size, max_arity, range(total))
    assert _sweep_bits(chain_size, max_arity, workers) == brute


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
        mp.setattr(enumeration, "_sweep_bits", refuse)
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1$"):
            equivalence_sweep(chain_size, max_arity, workers=workers)


@pytest.fixture(scope="module")
def sweep_3_2():
    """``equivalence_sweep(3, 2, workers=2)`` and the joined bits it read its report off."""
    joined = []
    real = enumeration._sweep_bits

    def keep(*args):
        joined.append(real(*args))
        return joined[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_sweep_bits", keep)
        report = equivalence_sweep(3, 2, workers=2)
    (blob,) = joined
    return report, blob


def test_3_chain_arity_2_universe_matches_the_brute_reference(sweep_3_2):
    report, blob = sweep_3_2
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
    report, _ = sweep_3_2
    chain = default_chain(3)
    tables = preassociative_tables(chain, 2, chain.elements, (EPSILON,))
    assert sum(1 for _ in tables) == report.property_counts["P1"] == 119565


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_3_chain_arity_2_slices_equal_brute_bits(sweep_3_2, seed):
    _, blob = sweep_3_2
    rng = random.Random(seed)
    lo = rng.randrange(531441 - 400)
    assert blob[2 * lo : 2 * lo + 800] == _brute_bits(3, 2, range(lo, lo + 400))

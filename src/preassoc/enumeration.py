"""Exhaustive universes of small table functions and theorem-level sweeps.

The sweep's candidates are indexable: ``epsilon_standard_at`` reads its index
as base-k digits over the slots (the nonempty tuples in ``tuples_up_to``
order), the first slot least significant, so the sweep is deterministic,
restartable, and splits cleanly across worker processes with bit-identical
merged reports.  Index order is thus product order over the slots taken
last to first, so the sweep reads each index's digits off ``product``.
``all_epsilon_standard`` and ``all_operations`` stream in product order over
the slots as listed, the last slot varying fastest (``all_operations`` takes
each default in turn, ε last): on the 2-chain at arity 1 the second table
streamed is F(0)=0, F(1)=1, while index 1 is F(0)=1, F(1)=0.
``preassociative_tables`` streams, in the same order, only the tables of
such a universe that satisfy P1, built one arity at a time.

``equivalence_sweep`` computes each candidate's bits once per orbit under
relabeling the chain symbols and reversing the argument order, on the
orbit's least index: 4 640 of the 16 384 candidates on the 2-chain at
arity 3, 46 026 of the 531 441 on the 3-chain at arity 2.
"""

from __future__ import annotations

import hashlib
import json
import struct
from array import array
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import islice, permutations, product
from operator import getitem
from typing import Iterator

from .checks import (
    _a1_scan,
    _a3_scan,
    _extension_index,
    _p1_pass,
    _p2_conflicts,
    _prepl_mismatches,
    check_range_idempotent,
    check_replication_invariant,
    check_unarily_quasi_range_idempotent,
    check_unarily_range_idempotent,
)
from .core import EPSILON, Chain, TableFn
from .errors import ConditionError
from .factorize import extend_unary_binary
from .quasi_inverse import FiniteMap


def default_chain(size: int) -> Chain:
    """The chain 0 < 1 < ... < size-1 over string symbols."""
    if size < 1:
        raise ValueError("chain size must be at least 1")
    return Chain(tuple(str(i) for i in range(size)))


def epsilon_standard_count(chain_size: int, max_arity: int) -> int:
    slots = sum(chain_size ** n for n in range(1, max_arity + 1))
    return chain_size ** slots


def epsilon_standard_at(chain: Chain, max_arity: int, index: int) -> TableFn:
    """The index-th default-ε standard candidate (base-k digits over the slots)."""
    slots = chain.tuples_up_to(max_arity)[1:]
    k = len(chain.elements)
    values = []
    i = index
    for _ in range(len(slots)):
        values.append(chain.elements[i % k])
        i //= k
    if i:
        raise IndexError(f"index {index} out of range")
    entries = dict(zip(slots, values))
    return TableFn(chain, chain.elements, max_arity, EPSILON, entries)


def all_epsilon_standard(chain: Chain, max_arity: int) -> Iterator[TableFn]:
    """Every operation with default ε and entries inside the chain."""
    yield from _all_tables(chain, max_arity, chain.elements, (EPSILON,))


def all_operations(chain: Chain, max_arity: int) -> Iterator[TableFn]:
    """Every operation-shaped table: entries and default over the chain plus ε."""
    values = chain.elements + (EPSILON,)
    yield from _all_tables(chain, max_arity, values, values)


def _all_tables(chain: Chain, max_arity: int, values: tuple, defaults: tuple) -> Iterator[TableFn]:
    """Every table with codomain ``values``, for each default in turn, entries in product order."""
    slots = chain.tuples_up_to(max_arity)[1:]
    for default in defaults:
        for entry_values in product(values, repeat=len(slots)):
            yield TableFn(chain, values, max_arity, default, dict(zip(slots, entry_values)))


def preassociative_tables(
    chain: Chain, max_arity: int, values: tuple, defaults: tuple
) -> Iterator[TableFn]:
    """The tables of ``_all_tables`` on which P1 holds, in its order, built layer by layer.

    By ``checks._p1_pass``, P1 at arity N holds iff F(u·y) = F(u·r) and
    F(y·u) = F(r·u) for every symbol u and every tuple y with |y| < N, r the
    first tuple of y's value class.  Given the layers below m (the tuples
    shorter than m), the ties from the (m-1)-tuples constrain layer m alone,
    so a depth-first walk fixes one layer at a time: the default, then
    layer 1, which only the empty tuple (the first of its class) could tie,
    then each layer m in turn.
    There the ties, read at ``_extension_index``, join the m-tuples into
    classes; a tie to a shorter tuple w joins the class to the first tuple
    valued F(w), which fixes its value, and a class so joined to two values
    ends the branch.  Each free class takes each of ``values`` in turn,
    listed by first member: where two tables of a layer first differ is such
    a member, so the walk keeps product order.
    """
    tuples = chain.tuples_up_to(max_arity)
    k = len(chain)
    index = _extension_index(k, max_arity)
    row = []  # the values fixed so far, in ``tuples_up_to`` order

    def walk(m, lo):  # layer m holds the positions lo .. lo + k^m - 1
        if m > max_arity:  # TableFn refuses a max_arity below 1 here
            yield TableFn(chain, values, max_arity, row[0], dict(zip(tuples[1:], row[1:])))
            return
        first = dict(zip(reversed(row[:lo]), range(lo - 1, -1, -1)))  # value -> first position
        parent = {}  # a position of layer m -> an earlier one of its class

        def root(p):  # the class's first member, or the first position of its fixed value
            while p in parent:
                p = parent[p]
            return p

        for y in range(lo - k ** (m - 1), lo):
            r = first[row[y]]
            if r == y:
                continue
            ties = zip(index[2 * k * y : 2 * k * (y + 1)], index[2 * k * r : 2 * k * (r + 1)])
            for a, b in ties:
                a, b = sorted((root(a), root(b) if b >= lo else first[row[b]]))
                if a != b:
                    if b < lo:  # the class is tied to two values
                        return
                    parent[b] = a
        roots = [root(p) for p in range(lo, lo + k**m)]
        free = {r: j for j, r in enumerate(sorted({r for r in roots if r >= lo}))}
        for choice in product(values, repeat=len(free)):
            row[lo : lo + k**m] = [choice[free[r]] if r >= lo else row[r] for r in roots]
            yield from walk(m + 1, lo + k**m)

    for default in defaults:
        row[:] = [default]
        yield from walk(1, 1)


def associative_tables(chain: Chain) -> Iterator[dict]:
    """Every associative binary table on the chain, in lexicographic order.

    The order reads each table's k² cells in row-major order, values
    ascending.  A backtracking search fills the cells in that order, so it
    emits the tables in it.  After each cell it rechecks only the triples
    (u, v, w) that read the new cell and whose four lookups uv, (uv)w, vw and
    u(vw) are all filled.  Every triple is so checked once its last lookup is
    filled, and no later cell changes its verdict, so the search emits
    exactly the tables on which ``nonassociative_triple`` finds nothing.
    """
    elements = chain.elements
    k = len(elements)
    pairs = chain.tuples(2)
    coords = tuple(product(range(k), repeat=2))
    cell = [-1] * (k * k)  # cell[u*k + v] is the index of uv, or -1 while unfilled

    def clash(u, v, w):
        uv, vw = cell[u * k + v], cell[v * k + w]
        if uv < 0 or vw < 0:
            return False
        left, right = cell[uv * k + w], cell[u * k + vw]
        return left >= 0 and right >= 0 and left != right

    def breaks(a, b):
        # the new cell ab read as uv, as vw, as the outer (uv)w and as u(vw);
        # an unfilled cell holds -1, which is neither a nor b
        for x in range(k):
            if clash(a, b, x) or clash(x, a, b):
                return True
        for (u, v), c in zip(coords, cell):
            if (c == a and clash(u, v, b)) or (c == b and clash(a, u, v)):
                return True
        return False

    def fill(i):
        if i == k * k:
            yield dict(zip(pairs, (elements[c] for c in cell)))
            return
        a, b = coords[i]
        for c in range(k):
            cell[i] = c
            if not breaks(a, b):
                yield from fill(i + 1)
        cell[i] = -1

    yield from fill(0)


def all_associative_extensions(chain: Chain, max_arity: int) -> Iterator[TableFn]:
    """Each (F1, F2) pair that extends to an associative operation, extended to ``max_arity``.

    By the theorem behind ``extend_unary_binary``, F1 and F2 are the unary
    and binary parts of an associative default-ε operation, then unique,
    exactly when F1 is idempotent and fixes ran(F2), F2 absorbs F1 and F2 is
    associative.  So only idempotent F1 are tried, each with the
    ``associative_tables`` whose range it fixes, in ``all_epsilon_standard``
    order (unary part first).

    For ``max_arity`` >= 3 these are exactly that universe's A1 tables: A1
    up to arity 3 already gives the three conditions and the fold.  Below
    arity 3, A1 does not see (xy)z = x(yz), so at arity 2 these are some of
    the A1 tables (10 of 18 on the 2-chain), and at arity 1 each unary table
    repeats once per binary part it pairs with.
    """
    elements = chain.elements
    tables = [(t, set(t.values())) for t in associative_tables(chain)]
    for values in product(elements, repeat=len(elements)):
        unary = dict(zip(elements, values))
        fixed = set(values)  # an idempotent map fixes exactly its range
        if any(unary[w] != w for w in fixed):
            continue
        f1 = FiniteMap(elements, elements, unary)
        for table, table_range in tables:
            if table_range <= fixed:
                try:
                    yield extend_unary_binary(f1, table, max_arity)
                except ConditionError:  # F2 does not absorb F1
                    continue


# ---------------------------------------------------------------------------
# The theorem-equivalence sweep
# ---------------------------------------------------------------------------

#: ``equivalence_sweep`` shares each bit across an orbit of S_k × {identity,
#: reversal} and relies on this for every name here:
#: - Relabeling.  Every bit is an equality between values with ε fixed, so
#:   relabeling the chain symbols (F ↦ σ∘F∘σ⁻¹) leaves it unchanged.
#: - Reversal.  Let G(x) = F(rev x), with rev () = () and so G(ε) = F(ε).
#:   G attains what F attains and has F's unary part, and rev preserves
#:   length, so it maps each law's truncated quantifier set onto itself and
#:   turns G's instance into F's:
#:   A1's candidates (x, y, z) ↦ (rev z, rev y, rev x), since G(x·y·z) =
#:   F(rev z·rev y·rev x) and G(x·G(y)·z) = F(rev z·F(rev y)·rev x), with
#:   |x| + |z| < N and |x·y·z| <= N kept; A3's splits and P2's pairs
#:   (x, y) ↦ (rev y, rev x), within |x·y| <= N; P1's contexts (x, y, y', z)
#:   ↦ (rev z, rev y, rev y', rev x), within |x·y·z|, |x·y'·z| <= N; PREPL's
#:   pairs (x, y) at k ↦ (rev x, rev y), since rev (k·x) = k·rev x, and
#:   REPL's tuples likewise.  URI, UQRI and F1F1 read only the unary part
#:   and the attained values, RI only constant tuples k·v over attained v,
#:   and FF2 only the pairs (F(u), F(u)): reversal fixes all of these.
#:   A2's bit is A1's, and P1's is read off ``_p1_pass``, which decides
#:   the P1 law above.  So each bit holds on G exactly when it holds on F.
SWEEP_PROPERTIES = (
    "A1",
    "A2",
    "A3",
    "P1",
    "P2",
    "URI",
    "UQRI",
    "F1F1",
    "RI",
    "FF2",
    "REPL",
    "PREPL",
)

#: name -> (label, predicate over the per-function property dict).
#: The lines the sweep tests are theorems the paper states or recalls, each
#: side read off its own checker: the associativity forms A1 ⇔ A3, A1 ⇔ P1 ∧
#: URI and with it A1 ⇒ P1, P1 ⇔ P2, URI ⇔ UQRI ∧ F1∘F1 = F1, the
#: range-idempotence lemma (i) ⇔ (ii), (iii), (iv), and A1 ∧ REPL ⇔ A1 ∧ RI.
#: ``REPL_implies_PREPL`` and ``P1_implies_PREPL`` follow from the
#: definitions in a step: F(k·x) = F(x) = F(y) = F(k·y), and in k·x the copies
#: of x turn into y one at a time.
#: ``A1_iff_A2`` holds by construction: with default ε, A2 holds exactly when
#: A1 does (``checks._check_a2`` reads A1's first violation), so the sweep
#: takes its A2 bit from the A1 verdict and this line guards only that.
#: The public A1, A3 and P2 checkers decide a holding verdict from
#: ``checks._a1_holds`` (unary laws and the P1 pass) or the P1 pass itself,
#: so the sweep reads A1 and A3 off their scans (``_a1_scan``, ``_a3_scan``)
#: and P2 off ``_p2_conflicts``: otherwise ``A1_iff_P1_and_URI``,
#: ``A1_iff_A3`` and ``P1_iff_P2`` would check the decider against itself.
#: P1 alone comes from its decider, ``_p1_pass``, and PREPL from
#: ``_prepl_mismatches``.
SWEEP_EQUIVALENCES = {
    "A1_iff_P1_and_URI": lambda p: p["A1"] == (p["P1"] and p["URI"]),
    "A1_iff_A2": lambda p: p["A1"] == p["A2"],
    "A1_iff_A3": lambda p: p["A1"] == p["A3"],
    "P1_iff_P2": lambda p: p["P1"] == p["P2"],
    "URI_iff_UQRI_and_F1F1": lambda p: p["URI"] == (p["UQRI"] and p["F1F1"]),
    "RI_lemma_i_iff_ii": lambda p: (p["A1"] and p["RI"]) == (p["A1"] and p["FF2"]),
    "RI_lemma_i_iff_iii": lambda p: (p["A1"] and p["RI"])
    == (p["P1"] and p["UQRI"] and p["RI"]),
    "RI_lemma_i_iff_iv": lambda p: (p["A1"] and p["RI"])
    == (p["P1"] and p["UQRI"] and p["F1F1"] and p["FF2"]),
    "A1_implies_P1": lambda p: (not p["A1"]) or p["P1"],
    "REPL_implies_PREPL": lambda p: (not p["REPL"]) or p["PREPL"],
    "P1_implies_PREPL": lambda p: (not p["P1"]) or p["PREPL"],
    "A1_and_REPL_iff_A1_and_RI": lambda p: (p["A1"] and p["REPL"])
    == (p["A1"] and p["RI"]),
}


def _function_bits(fn: TableFn) -> dict:
    # the sweep needs only the bits, so P1, P2 and PREPL skip the witness
    # scan; A1 and A3 run theirs, not the decider (see SWEEP_EQUIVALENCES).
    # P1 reads the raw pass, not the per-table ``_p1_cases``: each table is
    # read once, so keeping its answer would only cost time
    table = fn._table
    elements = fn.domain.elements
    a1 = _a1_scan(fn).holds
    return {
        "A1": a1,
        "A2": a1,  # the A2 verdict holds exactly when A1's does
        "A3": _a3_scan(fn).holds,
        "P1": _p1_pass(fn) is not None,
        "P2": next(_p2_conflicts(fn), None) is None,
        "URI": check_unarily_range_idempotent(fn).holds,
        "UQRI": check_unarily_quasi_range_idempotent(fn).holds,
        "RI": check_range_idempotent(fn).holds,
        "REPL": check_replication_invariant(fn).holds,
        "PREPL": next(_prepl_mismatches(fn), None) is None,
        "F1F1": all(
            table[(table[(u,)],)] == table[(u,)] for u in elements
        ),
        "FF2": all(
            table[(table[(u,)], table[(u,)])] == table[(u,)] for u in elements
        )
        if fn.max_arity >= 2
        else True,
    }


@dataclass
class SweepReport:
    """Aggregated result of sweeping every default-ε standard candidate."""

    chain_size: int
    max_arity: int
    total: int
    property_counts: dict
    equivalence_failures: dict  # equivalence name -> sorted candidate indices
    bits_digest: str

    def all_equivalences_hold(self) -> bool:
        return all(not v for v in self.equivalence_failures.values())

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@lru_cache(maxsize=16)
def _symmetries(chain_size: int, max_arity: int) -> tuple:
    """How each non-identity relabeling, reversed or not, moves the sweep's indices.

    The group is S_k × {identity, reversal}.  Relabeling a table's symbols by
    a permutation σ (F ↦ σ∘F∘σ⁻¹) moves the digit d at the slot of tuple t to
    the digit σ(d) at the slot of σ(t); reversing the argument order as well
    (F ↦ G, G(x₁…xₙ) = σ(F(σ⁻¹(xₙ)…σ⁻¹(x₁)))) moves it to the slot of σ(t)
    reversed.  Either way the image of an index is a sum of one term per
    slot.  For each element this gives ``terms``, one tuple of k terms per
    slot, most significant slot first: ``terms[j][d]`` is σ(d)·k^position of
    the image of t_j, and the image of the index with digits ``ds`` (as
    ``product`` yields them) is ``sum(map(getitem, terms, ds))``.

    Each distinct non-identity action is listed once: at max arity 1, and on
    the 1-chain, reversal fixes every tuple, so it adds no image there.  The
    reversing elements come first: on the 3-chain at arity 2 they find a
    smaller image sooner (1 464 581 image sums in all, against 1 571 164
    with each σ beside its reversal).
    """
    chain = default_chain(chain_size)
    k = chain_size
    code = {e: d for d, e in enumerate(chain.elements)}
    slots = [tuple(code[x] for x in t) for t in chain.tuples_up_to(max_arity)[1:]]
    position = {t: s for s, t in enumerate(slots)}

    def terms(sigma, step):
        return tuple(
            tuple(sigma[d] * k ** position[tuple(sigma[x] for x in t)[::step]] for d in range(k))
            for t in reversed(slots)
        )

    actions = dict.fromkeys(
        terms(sigma, step) for step in (-1, 1) for sigma in permutations(range(k))
    )
    del actions[terms(range(k), 1)]
    return tuple(actions)


def _sweep_range(args) -> tuple:
    """The packed bits of the candidates ``indices`` and the source of each.

    A candidate's source is the first smaller image a ``_symmetries`` action
    gives, a smaller member of its orbit, or else the candidate itself, its
    orbit's least index.  Only those get their bits computed, two bytes a
    candidate, bit i for ``SWEEP_PROPERTIES[i]``; the others' bytes stay zero
    for ``_sweep_bits`` to copy.  The digits are read off ``product``.
    """
    chain_size, max_arity, indices = args
    chain = default_chain(chain_size)
    images = _symmetries(chain_size, max_arity)
    digits = product(range(chain_size), repeat=len(chain.tuples_up_to(max_arity)) - 1)
    digits = islice(digits, indices.start, None, indices.step)  # in step with ``indices``
    blob = bytearray(2 * len(indices))
    sources = array("L")
    for at, (index, ds) in enumerate(zip(indices, digits)):
        for terms in images:
            image = sum(map(getitem, terms, ds))
            if image < index:
                sources.append(image)
                break
        else:
            sources.append(index)
            bits = _function_bits(epsilon_standard_at(chain, max_arity, index))
            packed = sum(1 << i for i, name in enumerate(SWEEP_PROPERTIES) if bits[name])
            blob[2 * at : 2 * at + 2] = packed.to_bytes(2, "big")
    return blob, sources


def _sweep_bits(chain_size: int, max_arity: int, workers: int) -> bytes:
    """The packed bits of every candidate, in index order, computed once per orbit.

    Worker w takes the indices w, w + workers, w + 2·workers, ...: the least
    members of the orbits crowd the low indices (44 292 of the 46 026 on the
    3-chain at arity 2 lie in its lower half), and striding shares them out
    evenly where contiguous ranges would not.
    """
    total = epsilon_standard_count(chain_size, max_arity)
    jobs = [(chain_size, max_arity, range(w, total, workers)) for w in range(workers)]
    if workers == 1:
        parts = list(map(_sweep_range, jobs))
    else:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(workers) as pool:
            parts = pool.map(_sweep_range, jobs)
    blob = bytearray(2 * total)
    packed = memoryview(blob).cast("H")  # one two-byte item a candidate
    sources = array("L", [0]) * total
    for w, (bits, part_sources) in enumerate(parts):
        packed[w::workers] = memoryview(bits).cast("H")
        sources[w::workers] = part_sources
    # a source is smaller than its candidate, so in ascending order it is
    # resolved first: every copy ends at its orbit's least index, the one
    # member whose bits a worker computed
    for index, source in enumerate(sources):
        if source != index:
            packed[index] = packed[source]
    return bytes(blob)


def equivalence_sweep(chain_size: int, max_arity: int, workers: int = 1) -> SweepReport:
    """Check the associativity/preassociativity equivalences over a whole universe.

    Every sweep property holds on F exactly when it holds on σ∘F∘σ⁻¹ for any
    permutation σ of the chain symbols, and exactly when it holds on F with
    its arguments reversed (the argument above ``SWEEP_PROPERTIES``).  The
    bits are therefore computed once per orbit of those symmetries, on its
    least index, and copied to the orbit's other members.

    The index space is split into one strided range per worker, each range
    run in its own process when ``workers`` > 1.  A worker computes the bits
    of the orbits' least indices in its range and names, for each other
    candidate, a smaller member of its orbit; the copies are made after the
    join, in ascending index order.  The report is read off the joined bits
    alone, so it is bit-identical to a single-process run; each equivalence
    is decided once per distinct bit pattern.
    """
    sizes = (("chain_size", chain_size), ("max_arity", max_arity), ("workers", workers))
    for name, value in sizes:
        if type(value) is not int or value < 1:  # bool is an int subclass
            raise ValueError(f"{name} must be an integer >= 1")
    blob = _sweep_bits(chain_size, max_arity, workers)
    members = {}  # bit pattern -> the candidates that have it, ascending
    for index, (pattern,) in enumerate(struct.iter_unpack(">H", blob)):
        members.setdefault(pattern, []).append(index)
    bits = {
        pattern: {name: bool(pattern >> i & 1) for i, name in enumerate(SWEEP_PROPERTIES)}
        for pattern in members
    }
    return SweepReport(
        chain_size=chain_size,
        max_arity=max_arity,
        total=len(blob) // 2,
        property_counts={
            name: sum(len(ix) for p, ix in members.items() if bits[p][name])
            for name in SWEEP_PROPERTIES
        },
        equivalence_failures={
            name: sorted(i for p, ix in members.items() if not pred(bits[p]) for i in ix)
            for name, pred in SWEEP_EQUIVALENCES.items()
        },
        bits_digest=hashlib.sha256(blob).hexdigest(),
    )

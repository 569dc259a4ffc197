"""Exhaustive universes of small table functions and theorem-level sweeps.

The sweep's candidates are indexable: ``epsilon_standard_at`` reads its index
as base-k digits over the slots (the nonempty tuples in ``tuples_up_to``
order), the first slot least significant, so the sweep is deterministic.
``all_epsilon_standard`` and ``all_operations`` stream in product order over
the slots as listed, the last slot varying fastest (``all_operations`` takes
each default in turn, ε last): on the 2-chain at arity 1 the second table
streamed is F(0)=0, F(1)=1, while index 1 is F(0)=1, F(1)=0.
``preassociative_tables`` streams, in the same order, only the tables of
such a universe that satisfy P1, built one arity at a time.

``equivalence_sweep`` builds no table: bit i of an int stands for candidate
i, each slot's value is k such masks in closed form, and each law an AND/OR
of them over its own quantifier space (``_Universe``), a few hundred
operations on 16 384-bit ints on the 2-chain at arity 3.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections import defaultdict
from dataclasses import asdict, dataclass
from functools import reduce
from itertools import product, repeat
from operator import and_, or_
from typing import Iterator

from .checks import _assoc_candidates, _context_pairs, _extension_index
from .core import EPSILON, Chain, TableFn, left_fold


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

    By the theorem behind ``factorize.extend_unary_binary``, F1 and F2 are
    the unary and binary parts of an associative default-ε operation, then
    unique, exactly when (i) F1 is idempotent and fixes ran(F2), (ii) F2
    absorbs F1 and (iii) F2 is associative.  Only idempotent F1 are tried,
    each with the ``associative_tables`` whose range it fixes, so (i) and
    (iii) hold by construction and only (ii) is tested; each pair that
    passes is the left fold of ``core.left_fold``.  The tables come in
    ``all_epsilon_standard`` order (unary part first).

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
        for table, table_range in tables:
            if table_range <= fixed and all(
                table[unary[u], v] == w == table[u, unary[v]] for (u, v), w in table.items()
            ):
                entries = left_fold(chain, unary, table, max_arity)
                yield TableFn(chain, elements, max_arity, EPSILON, entries)


# ---------------------------------------------------------------------------
# The theorem-equivalence sweep
# ---------------------------------------------------------------------------

#: The laws the sweep decides, bit i of a candidate's two bytes for the i-th
#: name.  Each is decided from its own definition (``_LAWS``), never by a
#: checker, so the lines below compare independent computations; the tests
#: hold every checker to these bits.  A2's bit is A1's (``A1_iff_A2``).
SWEEP_PROPERTIES = (
    "A1", "A2", "A3", "P1", "P2", "URI", "UQRI", "F1F1", "RI", "FF2", "REPL", "PREPL"
)

#: name -> the candidates on which the line fails, from the property masks.
#: The lines the sweep tests are theorems the paper states or recalls, each
#: side decided from its own definition: the associativity forms A1 ⇔ A3,
#: A1 ⇔ P1 ∧ URI and with it A1 ⇒ P1, P1 ⇔ P2, URI ⇔ UQRI ∧ F1∘F1 = F1, the
#: range-idempotence lemma (i) ⇔ (ii), (iii), (iv), and A1 ∧ REPL ⇔ A1 ∧ RI.
#: ``REPL_implies_PREPL`` and ``P1_implies_PREPL`` follow from the
#: definitions in a step: F(k·x) = F(x) = F(y) = F(k·y), and in k·x the copies
#: of x turn into y one at a time.
#: ``A1_iff_A2`` holds by construction: with default ε, A2 holds exactly when
#: A1 does (``checks._check_a2`` reads A1's first violation), so the sweep
#: takes its A2 bit from A1's and this line guards only that.
#: An equivalence fails where its sides differ (``^``), an implication where
#: its premise holds and its conclusion does not (``& ~``).
SWEEP_EQUIVALENCES = {
    "A1_iff_P1_and_URI": lambda p: p["A1"] ^ (p["P1"] & p["URI"]),
    "A1_iff_A2": lambda p: p["A1"] ^ p["A2"],
    "A1_iff_A3": lambda p: p["A1"] ^ p["A3"],
    "P1_iff_P2": lambda p: p["P1"] ^ p["P2"],
    "URI_iff_UQRI_and_F1F1": lambda p: p["URI"] ^ (p["UQRI"] & p["F1F1"]),
    "RI_lemma_i_iff_ii": lambda p: (p["A1"] & p["RI"]) ^ (p["A1"] & p["FF2"]),
    "RI_lemma_i_iff_iii": lambda p: (p["A1"] & p["RI"]) ^ (p["P1"] & p["UQRI"] & p["RI"]),
    "RI_lemma_i_iff_iv": lambda p: (p["A1"] & p["RI"])
    ^ (p["P1"] & p["UQRI"] & p["F1F1"] & p["FF2"]),
    "A1_implies_P1": lambda p: p["A1"] & ~p["P1"],
    "REPL_implies_PREPL": lambda p: p["REPL"] & ~p["PREPL"],
    "P1_implies_PREPL": lambda p: p["P1"] & ~p["PREPL"],
    "A1_and_REPL_iff_A1_and_RI": lambda p: (p["A1"] & p["REPL"]) ^ (p["A1"] & p["RI"]),
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


class _Universe:
    """Every default-ε standard candidate on a chain up to ``max_arity``, as slot masks.

    A mask is an int whose bit i stands for candidate i.  Candidate i has
    F(t_s) = the j-th chain symbol, t_s the s-th nonempty tuple in
    ``tuples_up_to`` order, when digit s of i in base k is j
    (``epsilon_standard_at``).  That digit runs through 0 .. k-1 with period
    k^(s+1), holding each for k^s indices, so ``masks[t_s][j]`` is the
    repunit with a one at every multiple of the period, times 2^(k^s) - 1
    (a run of k^s ones), shifted up by j·k^s.

    Each law is an AND/OR of these masks over its own quantifier space.
    Pairs with ε are vacuous there: the default makes F(ε) = ε and every
    entry is a chain symbol, so F(t) = F(ε) only at t = ε.  So no nonempty
    block substitutes ε (the A1, A2 and A3 violations of that kind never
    occur), and a pair of equal values with ε on one side has ε on both.
    """

    def __init__(self, chain: Chain, max_arity: int):
        self.chain, self.max_arity = chain, max_arity
        k = len(chain)
        self.slots = chain.tuples_up_to(max_arity)[1:]
        self.full = (1 << k ** len(self.slots)) - 1  # every candidate
        self.masks = {}
        repunit = 1  # a one at every multiple of k^(s+1), the period of digit s
        for s in reversed(range(len(self.slots))):
            run = k**s
            ones = (repunit << run) - repunit
            self.masks[self.slots[s]] = tuple(ones << (j * run) for j in range(k))
            repunit = sum(repunit << (j * run) for j in range(k))

    def values(self, t: tuple) -> tuple:
        """Each value F(t) may take, as a tuple fragment (ε as ()), with its candidates."""
        if not t:
            return (((), self.full),)
        return tuple(zip(((u,) for u in self.chain), self.masks[t]))

    def same(self, s: tuple, t: tuple) -> int:
        """The candidates with F(s) = F(t)."""
        if s == t or not s or not t:  # F(t) = ε only at t = ε
            return self.full if s == t else 0
        return reduce(or_, map(and_, self.masks[s], self.masks[t]))

    def attained(self, tuples) -> list:
        """For each chain symbol, the candidates that take it at some tuple of ``tuples``."""
        return [reduce(or_, column) for column in zip(*map(self.masks.__getitem__, tuples))]

    def constant(self, *times: int) -> list:
        """For each chain symbol v, the candidates with F(r·v) = v for every r in ``times``."""
        fixed = ([self.masks[(v,) * r][j] for r in times] for j, v in enumerate(self.chain))
        return [reduce(and_, masks) for masks in fixed]

    def wherever(self, ranges: list, holds: list) -> int:
        """The candidates on which ``holds[j]`` holds wherever ``ranges[j]`` does, for every j."""
        return self.full ^ reduce(or_, map(lambda r, h: r & ~h, ranges, holds))


def _clashes(cells) -> int:
    """The candidates on which a key comes with two values; ``cells`` yields (key, value, mask)."""
    joined = defaultdict(int)
    for key, value, mask in cells:
        joined[key, value] |= mask
    seen, twice = defaultdict(int), 0
    for (key, _), mask in joined.items():
        twice |= seen[key] & mask
        seen[key] |= mask
    return twice


def _a1(u: _Universe) -> int:
    """F(x·y·z) = F(x·F(y)·z) over ``_assoc_candidates``; y = ε compares F(x·z) to itself."""
    bad = 0
    for x, y, z in _assoc_candidates(u.chain, u.max_arity):
        if y:
            for v, at in u.values(y):
                bad |= at & ~u.same(x + y + z, x + v + z)
    return u.full ^ bad


def _a3(u: _Universe) -> int:
    """F(x·y) = F(F(x)·F(y)) over the splits of ``_context_pairs``."""
    bad = 0
    for x, y in _context_pairs(u.chain, u.max_arity):
        for a, at_x in u.values(x):
            for b, at_y in u.values(y):
                bad |= at_x & at_y & ~u.same(x + y, a + b)
    return u.full ^ bad


def _p1(u: _Universe) -> int:
    """F(y) = F(y') ⇒ F(x·y·z) = F(x·y'·z) for every pair and context within N.

    In each context (x, z) the nonempty y with |x·y·z| <= N are keyed by
    F(y): two of one key valued apart at x·y·z are a violating pair.
    """
    n = u.max_arity
    return u.full ^ _clashes(
        ((x, z, a), c, at & at_c)
        for x, z in _context_pairs(u.chain, n - 1)
        for y in u.chain.tuples_up_to(n - len(x) - len(z))[1:]
        for a, at in u.values(y)
        for c, at_c in u.values(x + y + z)
    )


def _p2(u: _Universe) -> int:
    """(F(x), F(y)) determines F(x·y) over the splits of ``_context_pairs``."""
    return u.full ^ _clashes(
        ((a, b), c, at_x & at_y & at_c)
        for x, y in _context_pairs(u.chain, u.max_arity)
        for a, at_x in u.values(x)
        for b, at_y in u.values(y)
        for c, at_c in u.values(x + y)
    )


def _prepl(u: _Universe) -> int:
    """F(x) = F(y) ⇒ F(k·x) = F(k·y) for every k >= 2 with k·|x|, k·|y| <= N."""
    n = u.max_arity
    return u.full ^ _clashes(
        ((k, a), c, at & at_c)
        for k in range(2, n + 1)
        for y in u.chain.tuples_up_to(n // k)[1:]
        for a, at in u.values(y)
        for c, at_c in u.values(y * k)
    )


def _repl(u: _Universe) -> int:
    """F(k·x) = F(x) for every nonempty x and k >= 2 with k·|x| <= N."""
    n = u.max_arity
    replicas = (u.same(x * k, x) for k in range(2, n + 1) for x in u.chain.tuples_up_to(n // k)[1:])
    return reduce(and_, replicas, u.full)


#: Each sweep law but A2 (A1's bit), deciding it for every candidate at once.
_LAWS = {
    "A1": _a1,
    "A3": _a3,
    "P1": _p1,
    "P2": _p2,
    # F1 fixes every value F attains
    "URI": lambda u: u.wherever(u.attained(u.slots), u.constant(1)),
    # F1 attains every value F attains
    "UQRI": lambda u: u.wherever(u.attained(u.slots), u.attained(u.chain.tuples(1))),
    # F1 fixes its own range
    "F1F1": lambda u: u.wherever(u.attained(u.chain.tuples(1)), u.constant(1)),
    # F(k·v) = v for every value v that F attains and every k <= N
    "RI": lambda u: u.wherever(u.attained(u.slots), u.constant(*range(1, u.max_arity + 1))),
    # F(v, v) = v for every v in the range of F1, nothing to test at N = 1
    "FF2": lambda u: u.wherever(u.attained(u.chain.tuples(1)), u.constant(2))
    if u.max_arity > 1
    else u.full,
    "REPL": _repl,
    "PREPL": _prepl,
}

def _law_masks(chain_size: int, max_arity: int) -> dict:
    """Each sweep property's mask over the whole universe, in ``SWEEP_PROPERTIES`` order."""
    universe = _Universe(default_chain(chain_size), max_arity)
    masks = {name: law(universe) for name, law in _LAWS.items()}
    return {name: masks["A1" if name == "A2" else name] for name in SWEEP_PROPERTIES}


def _sweep_bits(masks: dict, total: int) -> bytes:
    """The packed bits of each of the ``total`` candidates, in index order.

    Two bytes a candidate, big-endian, bit i for ``SWEEP_PROPERTIES[i]``.  A
    law's mask in binary, reversed, lists its bit of each candidate in index
    order; side by side, the last law first, these digit strings spell each
    candidate's bits in base 2.
    """
    digits = [f"{masks[name]:0{total}b}"[::-1] for name in reversed(SWEEP_PROPERTIES)]
    return struct.pack(f">{total}H", *map(int, map("".join, zip(*digits)), repeat(2)))


def _indices(mask: int) -> list:
    """The set bits of ``mask``, ascending."""
    return [i for i, digit in enumerate(f"{mask:b}"[::-1]) if digit == "1"]


def equivalence_sweep(chain_size: int, max_arity: int, workers: int = 1) -> SweepReport:
    """Check the associativity/preassociativity equivalences over a whole universe.

    Every candidate's bits are decided at once, law by law, as masks over
    the candidate indices (``_Universe``); no table is built and no checker
    runs.  The report is read off the masks: each count is a mask's set bits,
    each line's failures the set bits of its failure mask, and the digest
    that of the masks packed two bytes a candidate.  ``workers`` is checked
    like the sizes and has no other effect; it stays for callers that pass it.
    """
    sizes = (("chain_size", chain_size), ("max_arity", max_arity), ("workers", workers))
    for name, value in sizes:
        if type(value) is not int or value < 1:  # bool is an int subclass
            raise ValueError(f"{name} must be an integer >= 1")
    masks = _law_masks(chain_size, max_arity)
    total = epsilon_standard_count(chain_size, max_arity)
    return SweepReport(
        chain_size=chain_size,
        max_arity=max_arity,
        total=total,
        property_counts={name: masks[name].bit_count() for name in SWEEP_PROPERTIES},
        equivalence_failures={
            name: _indices(line(masks)) for name, line in SWEEP_EQUIVALENCES.items()
        },
        bits_digest=hashlib.sha256(_sweep_bits(masks, total)).hexdigest(),
    )

"""Axiom checkers over truncated tuple universes.

Every verdict covers its whole (truncated) quantifier space, so a holding
verdict is a proof at the recorded max arity.  A failing verdict reports the
minimal counterexample under (total tuple length, chain order on the
concatenated symbols, part lengths, then scalars such as k or a position),
which keeps CI failures reproducible.  Most checkers visit their candidates
in that order and stop at the first violation, which is the witness; A2
reads A1's first violation and weighs it against the first ε-valued tuple.
P1, P2 and replication-preinvariance compare tuples of one value class:
each sets a tuple beside the first of its class (P2: a bucket's first split
in key order beside its first split of another value) and keeps the least
violation, and its docstring argues that no other pair is less.
``cases_checked`` still counts the whole space.
A linear test decides a holding A1, A2, A3, P1 or P2 verdict, and only a
failing one runs the scan for its witness.  P1 holds iff, over the tuples y
shorter than N, F(y) determines the one-letter signature (F(u·y) and F(y·u)
for every symbol u): one set count over the values, read once as a list,
decides it without a tuple walk.  A1 holds iff P1 does and F1 ∘ F = F with
no nonempty tuple valued ε, the paper's "associative iff preassociative and
unarily range-idempotent"; A1 implies A2 and A3, and P1 implies P2.  The
linear P1 test runs once per table: its answer and the A1 verdict are kept
on the table (``TableFn._decided``), so these five laws and ``factorize``'s
precondition share one pass.
The order and one-value laws take one pass each: the test that refutes
the law also names its least witness.  The order laws read the table one
arity at a time as a tuple in product order (``_layer``): monotonicity
subtracts each layer's steps up in integer lanes (``_lanes``), convexity
tests each distinct section once, read at cached indices
(``_section_getters``), and symmetry compares a layer with itself read at
the sorted tuples.  Their witness keys order by total length first, so the
least lies in the first failing layer.
A law on single values (standard, epsilon_standard,
unarily_range_idempotent, unarily_quasi_range_idempotent) holds iff no
attained value fails it; else its witness is the first tuple valued in a
failing one.
Every checker and witness scan reads the row of every tuple's value, ε
included, in ``tuples_up_to`` order (``TableFn._row``), a tuple at its index
in ``core._positions``, so no check builds a tuple-keyed dict and an empty
block needs no case.
"""

from __future__ import annotations

import struct
from array import array
from collections import Counter
from functools import lru_cache
from itertools import combinations_with_replacement, islice, product
from math import comb
from operator import itemgetter, mul, ne

from .core import EPSILON, Chain, TableFn, Verdict, Witness, _positions, ranges
from .errors import NotAnOperationError

#: Properties that compare or feed values back into the domain.
OPERATION_ONLY = frozenset(
    (
        "epsilon_standard",
        "associative_A1",
        "associative_A2",
        "associative_A3",
        "unarily_idempotent",
        "unarily_range_idempotent",
        "range_idempotent",
        "idempotent",
    )
)

#: Properties whose checkers refuse a default other than ε.
EPSILON_DEFAULT_ONLY = frozenset(("associative_A2", "associative_A3"))


# ---------------------------------------------------------------------------
# Cached candidate universes (keyed by chain and max arity); the tuples are
# the chain's own, from ``Chain.tuples``
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def _context_pairs(chain: Chain, budget: int) -> tuple:
    """All (x, z) with |x| + |z| <= budget, in witness-key order: the word x·z, then |x|.

    The parts are located from the word's rank r in base k.
    """
    by_len = [chain.tuples(n) for n in range(budget + 1)]
    power = [len(chain) ** e for e in range(budget + 1)]
    return tuple(
        (by_len[i][r // power[m - i]], by_len[m - i][r % power[m - i]])
        for m in range(budget + 1)
        for r in range(power[m])
        for i in range(m + 1)
    )


@lru_cache(maxsize=128)
def _assoc_candidates(chain: Chain, n: int) -> tuple:
    """Candidate triples (x, y, z) for the substitution form, in witness-key order.

    Each pair (x, w) of ``_context_pairs`` is followed by w's own splits
    (y, z), which sit side by side in that list from ((), w) on, so each word
    x·y·z comes shortest first, then lexicographic, with its splits in
    (|x|, |y|) order; y may be empty, and |x|+1+|z| <= n.
    """
    pairs = _context_pairs(chain, n)
    splits = {w: pairs[i : i + len(w) + 1] for i, (x, w) in enumerate(pairs) if not x}
    return tuple([(x, y, z) for x, w in pairs for y, z in splits[w] if len(x) + len(z) < n])


def _index_key(chain: Chain, *tuples_):
    idx = chain.index
    total = sum(len(t) for t in tuples_)
    flat = tuple(idx(s) for t in tuples_ for s in t)
    lens = tuple(len(t) for t in tuples_)
    return (total, flat, lens)


def _first_failure(prop, fn: TableFn, fails, values, note="", extra=()) -> Verdict:
    """The verdict of a law on single values, from the first nonempty tuple failing it.

    The law holds iff no attained value fails it.  Otherwise the first
    nonempty tuple in canonical order valued in the failing ones is the
    minimal witness; ``values(F(x))`` gives its named values, and
    ``cases_checked`` counts the tuples up to it.
    """
    bad = set(filter(fails, fn._attained))
    row = fn._row
    if not bad:
        return Verdict(prop, True, len(row) - 1, None, fn.max_arity, extra)
    cases = next(i for i in range(1, len(row)) if row[i] in bad)
    t = fn.domain.tuples_up_to(fn.max_arity)[cases]
    witness = Witness((("x", t),), values(row[cases]), note=note)
    return Verdict(prop, False, cases, witness, fn.max_arity, extra)


def nonassociative_triple(table, elements):
    """The first (u, v, w) in product order with (uv)w != u(vw), or None.

    ``table`` is a total binary table over ``elements`` keyed by pairs.
    """
    for u, v, w in product(elements, repeat=3):
        if table[(table[(u, v)], w)] != table[(u, table[(v, w)])]:
            return (u, v, w)
    return None


def _require_operation(fn: TableFn, prop: str):
    if not fn.is_operation:
        raise NotAnOperationError(
            f"{prop} needs an operation (codomain within the domain plus ε); "
            f"codomain {fn.codomain!r} leaves the domain"
        )


def _once(fn: TableFn, law: str, decide):
    """``decide(fn)``, kept in the table's ``_decided`` so a law is decided once per table.

    The table is immutable, so the answer stays valid for its lifetime.
    """
    decided = fn._decided
    if decided is None:  # made on first use, so a table read only once costs nothing
        decided = {}
        object.__setattr__(fn, "_decided", decided)
    if law not in decided:
        decided[law] = decide(fn)
    return decided[law]


def _wrap(value):
    """A value as a tuple fragment: ε contributes nothing, symbols one slot."""
    return () if value is EPSILON else (value,)


# ---------------------------------------------------------------------------
# Standardness
# ---------------------------------------------------------------------------


def check_standard(fn: TableFn) -> Verdict:
    """The default value is attained only at the empty tuple.

    The verdict's ``extra`` carries the stronger epsilon_standard flag.
    """
    default = fn.default
    return _first_failure(
        "standard", fn, lambda v: v == default, lambda v: (("F(x)", v), ("F(ε)", default)),
        note="nonempty tuple attains the default value",
        extra=(("epsilon_standard", fn.is_epsilon_standard),),
    )


def check_epsilon_standard(fn: TableFn) -> Verdict:
    """Standard operation into domain ∪ {ε} whose default is ε itself."""
    if not fn.is_operation:
        values = (("codomain", tuple(map(repr, fn.codomain))),)
        note = "not an operation: codomain leaves the domain"
    elif fn.default is not EPSILON:
        values, note = (("F(ε)", fn.default),), "default value is not ε"
    else:
        return _first_failure(
            "epsilon_standard", fn, lambda v: v is EPSILON, lambda v: (("F(x)", v),),
            note="nonempty tuple maps to ε",
        )
    return Verdict("epsilon_standard", False, 0, Witness((), values, note=note), fn.max_arity)


# ---------------------------------------------------------------------------
# Associativity (three equivalent forms)
# ---------------------------------------------------------------------------


def check_associative(fn: TableFn, form: str = "A1") -> Verdict:
    """Associativity in substitution (A1), decomposition (A2), or pairwise (A3) form.

    Requires an operation; forms A2 and A3 additionally require default = ε.
    A substituted value of ε for a nonempty inner block is reported as a
    violation (of ε-standardness) rather than skipped.  Every form goes
    decider-then-scan: ``_a1_holds`` decides a holding verdict in linear
    time, and only a failing one runs the form's scan, which returns its
    first violation in witness-key order; an A2 pair witness sets the
    decomposition (ε, ε, w) beside the first split of w that changes its value.
    """
    prop = f"associative_{form}"
    if form not in ("A1", "A2", "A3"):
        raise ValueError(f"unknown associativity form {form!r}")
    _require_operation(fn, prop)
    if prop in EPSILON_DEFAULT_ONLY and fn.default is not EPSILON:
        raise ValueError(f"{prop} is defined only for operations with default ε")
    if form == "A1":
        return _check_a1(fn)
    if form == "A2":
        return _check_a2(fn)
    return _check_a3(fn)


_SUBST_EPS = "substituted-epsilon: nonempty inner block evaluates to ε"


def _a1_holds(fn: TableFn) -> bool:
    """Whether A1 holds, decided in time linear in the table.

    A1 holds iff no nonempty tuple is valued ε, F((v,)) = v for every value
    v ≠ ε, the default included, and P1 holds.  Necessity: these unary laws
    are the A1 candidates (ε, y, ε), and A1 implies P1, since F(x·y·z) =
    F(x·F(y)·z) = F(x·F(y')·z) = F(x·y'·z) for same-class y, y'.
    Sufficiency: y and (F(y),) share a value class, and the later of the two
    has length |y| (length 1 for y = ε with a default d ≠ ε), so P1 gives
    F(x·y·z) = F(x·F(y)·z) for every |x| + |z| <= N - |y|, which covers A1's
    candidates.  The unary laws are tested first, so failing tables pay little.
    """
    unary = dict(zip((EPSILON, *fn.domain.elements), fn._row))  # F(ε) at ε
    if EPSILON in fn._attained or any(unary[v] != v for v in {*fn._attained, fn.default}):
        return False
    return _p1_cases(fn) is not None


def _check_a1(fn: TableFn) -> Verdict:
    """The A1 verdict, made once per table: A2 reads it too."""
    return _once(fn, "A1", _a1_verdict)


def _a1_verdict(fn: TableFn) -> Verdict:
    """A holding A1 from ``_a1_holds``, its ``cases_checked`` in closed form; else the scan.

    The candidates are ``_assoc_candidates``' splits x·y·z with |x·z| < N.
    A word of length m has C(m + 2, 2) splits, and the only ones with
    |x·z| = N are the N + 1 splits of an N-word with y = ε, so they number
    Σ_m k^m·C(m + 2, 2) - (N + 1)·k^N and a holding verdict builds no list.
    """
    if _a1_holds(fn):
        k, n = len(fn.domain), fn.max_arity
        cases = sum(k**m * comb(m + 2, 2) for m in range(n + 1)) - (n + 1) * k**n
        return Verdict("associative_A1", True, cases, None, n)
    return _a1_scan(fn)


def _a1_scan(fn: TableFn) -> Verdict:
    """The A1 verdict, from the first violating candidate in witness-key order."""
    row, pos = fn._row, _positions(fn.domain.elements, fn.max_arity)
    candidates = _assoc_candidates(fn.domain, fn.max_arity)
    for x, y, z in candidates:
        vy = row[pos[y]]
        if vy is EPSILON:
            # with y = ε and default ε, F(x, F(ε), z) = F(x, z) holds trivially
            if not y:
                continue
            values, note = (("F(y)", EPSILON),), _SUBST_EPS
        else:
            lhs, rhs = row[pos[x + y + z]], row[pos[x + (vy,) + z]]
            if lhs == rhs:
                continue
            values, note = (("F(x,y,z)", lhs), ("F(x,F(y),z)", rhs)), ""
        witness = Witness((("x", x), ("y", y), ("z", z)), values, note=note)
        return Verdict("associative_A1", False, len(candidates), witness, fn.max_arity)
    return Verdict("associative_A1", True, len(candidates), None, fn.max_arity)


def _check_a2(fn: TableFn) -> Verdict:
    """All decompositions w = (x, y, z) give the same substituted value.

    Assumes default ε, so (ε, ε, w) gives F(w) and A2 fails where A1 does;
    A1 implies A2, since each decomposition's value is F(w) by A1.  So A2
    reads ``_check_a1``, the A1 verdict kept on the table, and a table is
    scanned for A1 at most once.  A1 visits the splits with y nonempty word
    by word in (|x|, |y|) order, so its first violation is A2's least
    witness when it is a substituted ε (the first ε-valued tuple, alone as
    y).  A value mismatch at (x', y', z') on w gives the least pair witness,
    (ε, ε, w) beside it, with key total 2|w|; a substituted ε on a tuple of
    length up to 2|w| may still have a smaller key.  ``cases_checked``
    counts the C(m, 2) pairs of the m = (n+1)(n+2)/2 decompositions of each
    n-tuple.
    """
    chain, n = fn.domain, fn.max_arity
    k = len(chain.elements)
    cases = sum(k**i * comb((i + 1) * (i + 2) // 2, 2) for i in range(n + 1))
    first = _check_a1(fn).witness
    if first is None or first.note:  # holds, or A1's substituted ε is A2's witness too
        return Verdict("associative_A2", first is None, cases, first, n)
    xp, yp, zp = first.part("x"), first.part("y"), first.part("z")
    w = xp + yp + zp
    witness = Witness(
        (("x", ()), ("y", ()), ("z", w), ("x'", xp), ("y'", yp), ("z'", zp)),
        (("F(x,F(y),z)", first.value("F(x,y,z)")), ("F(x',F(y'),z')", first.value("F(x,F(y),z)"))),
    )
    key = _index_key(chain, (), (), w, xp, yp, zp)
    for t, v in islice(zip(chain.tuples_up_to(min(n, 2 * len(w))), fn._row), 1, None):
        if v is EPSILON:
            if _index_key(chain, (), t, ()) < key:
                parts = (("x", ()), ("y", t), ("z", ()))
                witness = Witness(parts, (("F(y)", EPSILON),), note=_SUBST_EPS)
            break
    return Verdict("associative_A2", False, cases, witness, n)


def _check_a3(fn: TableFn) -> Verdict:
    """A3 from ``_a1_holds`` when A1 holds, else from the scan.

    A1 implies A3 (default ε): F(x·y) = F(F(x)·y) = F(F(x)·F(y)), and each
    step is an A1 candidate within N.
    """
    if _a1_holds(fn):
        cases = len(_context_pairs(fn.domain, fn.max_arity))
        return Verdict("associative_A3", True, cases, None, fn.max_arity)
    return _a3_scan(fn)


def _a3_scan(fn: TableFn) -> Verdict:
    """F(x, y) = F(F(x), F(y)) for all pairs, in witness-key order: w = x·y, then |x|."""
    row, pos = fn._row, _positions(fn.domain.elements, fn.max_arity)
    splits = _context_pairs(fn.domain, fn.max_arity)
    for x, y in splits:
        vx, vy = row[pos[x]], row[pos[y]]
        if (vx is EPSILON and x) or (vy is EPSILON and y):
            values = (("F(x)", vx), ("F(y)", vy))
            note = "substituted-epsilon: nonempty block evaluates to ε"
        else:
            lhs, rhs = row[pos[x + y]], row[pos[_wrap(vx) + _wrap(vy)]]
            if lhs == rhs:
                continue
            values, note = (("F(x,y)", lhs), ("F(F(x),F(y))", rhs)), ""
        witness = Witness((("x", x), ("y", y)), values, note=note)
        return Verdict("associative_A3", False, len(splits), witness, fn.max_arity)
    return Verdict("associative_A3", True, len(splits), None, fn.max_arity)


# ---------------------------------------------------------------------------
# Preassociativity (two equivalent forms)
# ---------------------------------------------------------------------------


def check_preassociative(fn: TableFn, form: str = "P1") -> Verdict:
    """Preassociativity via contexts (P1) or via the two-equality form (P2).

    Works for arbitrary codomains.  Both forms go decider-then-scan on
    ``_p1_cases``: a holding verdict is decided by counting the distinct
    one-letter signatures of each value class (``_p1_pass``).  P1 implies
    P2: from x·y to x'·y' (F(x) = F(x'), F(y) = F(y')) through x·y' or x'·y,
    one of which fits N since |x·y| + |x'·y'| <= 2N.  A failing P1 comes from
    ``_p1_scan``, which sets each tuple beside the first of its class in all
    its contexts; a failing P2 from ``_p2_scan``, one walk over the splits in
    key order setting each bucket's first split beside its first split of
    another value.
    """
    if form not in ("P1", "P2"):
        raise ValueError(f"unknown preassociativity form {form!r}")
    cases = _p1_cases(fn)
    if cases is None:
        return _p1_scan(fn) if form == "P1" else _p2_scan(fn)
    if form == "P2":
        cases = len(_context_pairs(fn.domain, fn.max_arity))
    return Verdict(f"preassociative_{form}", True, cases, None, fn.max_arity)


def _p1_cases(fn: TableFn):
    """``_p1_pass``'s answer, made once per table: A1, A2, A3, P1 and P2 all read it."""
    return _once(fn, "P1", _p1_pass)


def _p1_pass(fn: TableFn):
    """``cases_checked`` of the P1 scan if P1 holds, else None.

    P1 holds iff F(u·y) = F(u·r) and F(y·u) = F(r·u) for every symbol u and
    every tuple y with |y| < N, where r is the first (hence shortest) tuple of
    y's value class.  Necessity: these are contexts of length 1 within the
    budget N - |y|.  Sufficiency, by induction on |x| + |z|: peel one letter u
    off x (or z); then u·y and u·r share a class and the longer of the pair,
    u·y, has budget N - |y| - 1 for the rest of the context.
    So P1 holds iff, over the tuples y with |y| < N, F(y) determines the
    signature ((F(u·y))_u, (F(y·u))_u): the first r of a short y's class is
    itself short (|r| <= |y|), so every short member of a class has r's
    signature iff the class's short members share one.  The pairs
    (F(y), signature) project onto the values F(y), so that holds iff there
    are as many distinct pairs as distinct short values: one set count, with
    the signatures read off the values in ``tuples_up_to`` order in one call
    of ``_extension_getter``.  ``enumeration.preassociative_tables`` solves
    the same ties, read at the same index, one layer at a time.
    The scan counts every context within N - |y'| for each same-class pair
    (y, y'), y' the later one.  Tuples come shortest first, so the j-th
    m-tuple valued v (from j = 0) follows b_m(v) + j members of its class,
    b_m(v) the tuples shorter than m valued v; the c_m(v) m-tuples valued v
    add c_m(v)·b_m(v) + C(c_m(v), 2) pairs, each with the contexts within
    N - m.  As C(b + c, 2) = C(b, 2) + c·b + C(c, 2), that sums over v to
    S_m - S_(m-1), S_m the same-class pairs among the tuples up to length m:
    cases = Σ_m |contexts(N - m)|·(S_m - S_(m-1)), added up in plain integers.
    Once the test holds, the counts c_m need no pass over the row: for m < N,
    each (m+1)-tuple is y·u for one short m-tuple y and one symbol u, so
    c_(m+1)(w) = Σ_v c_m(v)·#{u : F(r_v·u) = w}, r_v the first tuple valued v.
    """
    k, n = len(fn.domain), fn.max_arity
    values = fn._row
    short = values[: sum(k**m for m in range(n))]
    extensions = iter(_extension_getter(k, n)(values))
    # zip reads the one iterator 2k times per row: each short y's value and signature
    signatures = set(zip(short, *[extensions] * (2 * k)))
    right = {s[0]: s[k + 1 :] for s in signatures}  # short value v -> (F(r_v·u))_u
    if len(right) != len(signatures):
        return None
    cases, layer, seen = 0, {values[0]: 1}, {}  # value -> m-tuples, tuples shorter than m
    for m, weight in enumerate(_context_counts(fn.domain, n)):
        added, counted, layer = 0, layer, {}
        for v, c in counted.items():
            b = seen.get(v, 0)
            seen[v] = b + c
            added += c * b + c * (c - 1) // 2
            for w in right[v] if m < n else ():  # the next layer, by the proof
                layer[w] = layer.get(w, 0) + c
        cases += weight * added
    return cases


@lru_cache(maxsize=128)
def _context_counts(chain: Chain, n: int) -> tuple:
    """|contexts(n - m)| for m = 0, ..., n: ``_p1_pass``'s layer weights, once per shape."""
    return tuple(len(_context_pairs(chain, n - m)) for m in range(n + 1))


@lru_cache(maxsize=128)
def _extension_getter(k: int, n: int) -> itemgetter:
    """A row's values at ``_extension_index(k, n)``, a tuple: it has 2k >= 2 indices."""
    return itemgetter(*_extension_index(k, n))


@lru_cache(maxsize=128)
def _extension_index(k: int, n: int) -> array:
    """For each tuple y with |y| < n over a k-chain, the ``tuples_up_to`` indices of u·y, then y·u.

    The i-th m-tuple y sits at off(m) + i, off(m) = k^0 + ... + k^(m-1), so
    u·y (symbol index u) sits at off(m+1) + u·k^m + i and y·u at
    off(m+1) + i·k + u.  The 2k indices of each y follow in ``tuples_up_to``
    order.  ``_p1_pass`` reads the one-letter signatures here, and
    ``enumeration.preassociative_tables`` the ties it solves.
    """
    index = array("l")
    off = 1  # off(m + 1)
    for m in range(n):
        width = k**m
        for i in range(width):
            index.extend(off + u * width + i for u in range(k))
            index.extend(off + i * k + u for u in range(k))
        off += width * k
    return index


def _p1_scan(fn: TableFn) -> Verdict:
    """The P1 verdict, from each tuple y' set beside the first tuple r of its class.

    A violation (x, y, y', z) has y before y' in canonical order, so
    |y| <= |y'|, and |x| + |z| <= N - |y'|.  If y != r, then F(x·r·z) differs
    from F(x·y·z) or from F(x·y'·z), so (x, r, y, z) or (x, r, y', z) violates
    P1 within the same budget, with a smaller key: the total is no larger,
    and at equal totals r comes before y at the same position.  So only the
    pairs (r, y') are tried, each in its contexts (shortest first) until
    their total passes the least violation so far.
    """
    n, chain, row = fn.max_arity, fn.domain, fn._row
    pos = _positions(chain.elements, n)
    classes = {}  # value -> (first tuple of its class, members so far)
    cases = 0
    key, witness = (2 * n + 1,), None  # of the least violation so far; totals stay <= 2N
    for yp, v in zip(chain.tuples_up_to(n), row):
        r, b = classes.get(v, (yp, 0))
        classes[v] = (r, b + 1)
        contexts = _context_pairs(chain, n - len(yp)) if b else ()
        cases += b * len(contexts)
        for x, z in contexts:
            if len(x) + len(r) + len(yp) + len(z) > key[0]:
                break
            lhs, rhs = row[pos[x + r + z]], row[pos[x + yp + z]]
            if lhs != rhs and (found := _index_key(chain, x, r, yp, z)) < key:
                key, witness = found, Witness(
                    (("x", x), ("y", r), ("y'", yp), ("z", z)),
                    (("F(x,y,z)", lhs), ("F(x,y',z)", rhs)),
                )
    return Verdict("preassociative_P1", witness is None, cases, witness, n)


def _p2_scan(fn: TableFn) -> Verdict:
    """The pair of values (F(x), F(y)) must determine F(x, y): one walk over the splits.

    The splits x·y come in witness-key order, so the first split a of each
    bucket (F(x), F(y)) is the bucket's least.  If (c, d) with c < d is a
    violation in the bucket, F(a) differs from F(c) or from F(d), so (a, c)
    or (a, d) is a violation with a key no larger: the totals, the chain
    indices and the lengths each compare part by part.  So the least witness
    sets a bucket's a beside its first split b of another value, and the walk
    keeps the least such pair.  Each pair's total is at least |b|, so the
    walk stops at the first split longer than the least total so far; a
    longer pair builds no key, since a larger total never compares less.
    """
    chain, n, row = fn.domain, fn.max_arity, fn._row
    pos = _positions(chain.elements, n)
    splits = _context_pairs(chain, n)
    first = {}  # (F(x), F(y)) -> (x, y, F(x·y)) of its first split; () once it has conflicted
    key, witness = (2 * n + 1,), None  # of the least conflict so far; totals stay <= 2N
    for xp, yp in splits:
        if len(xp) + len(yp) > key[0]:
            break
        bucket = (row[pos[xp]], row[pos[yp]])
        vs = row[pos[xp + yp]]
        a = first.get(bucket)
        if a is None:
            first[bucket] = (xp, yp, vs)
        elif a and a[2] != vs:
            first[bucket] = ()
            x, y, vf = a
            if len(x + y + xp + yp) <= key[0] and (found := _index_key(chain, x, y, xp, yp)) < key:
                key, witness = found, Witness(
                    (("x", x), ("y", y), ("x'", xp), ("y'", yp)), (("F(x,y)", vf), ("F(x',y')", vs))
                )
    return Verdict("preassociative_P2", witness is None, len(splits), witness, n)


# ---------------------------------------------------------------------------
# Idempotence family
# ---------------------------------------------------------------------------


def check_unarily_idempotent(fn: TableFn) -> Verdict:
    """The unary part is the identity."""
    _require_operation(fn, "unarily_idempotent")
    for cases, (u, v) in enumerate(zip(fn.domain.elements, islice(fn._row, 1, None)), 1):
        if v != u:
            witness = Witness((("x", (u,)),), (("F(x)", v),))
            return Verdict("unarily_idempotent", False, cases, witness, fn.max_arity)
    return Verdict("unarily_idempotent", True, len(fn.domain.elements), None, fn.max_arity)


def check_unarily_range_idempotent(fn: TableFn) -> Verdict:
    """The unary part fixes every attained value: F1 ∘ Fb = Fb."""
    _require_operation(fn, "unarily_range_idempotent")
    f1 = dict(zip((EPSILON, *fn.domain.elements), fn._row))  # the unary part, F(ε) at ε
    return _first_failure(
        "unarily_range_idempotent", fn, lambda v: f1[v] != v,
        lambda v: (("F(x)", v), ("F(F(x))", f1[v])),
    )


def check_unarily_quasi_range_idempotent(fn: TableFn) -> Verdict:
    """The unary part attains every value the whole function attains."""
    ran1, _ = ranges(fn)
    return _first_failure(
        "unarily_quasi_range_idempotent", fn, lambda v: v not in ran1, lambda v: (("F(x)", v),),
        note="value outside ran(F1)",
    )


def check_range_idempotent(fn: TableFn) -> Verdict:
    """F(k · F(x)) = F(x) for every tuple x and every repetition count k <= N."""
    _require_operation(fn, "range_idempotent")
    row, pos = fn._row, _positions(fn.domain.elements, fn.max_arity)
    witness = None  # the first failure in canonical tuple order is the least
    cases = 0
    for v in dict.fromkeys(row):  # each value once, in the order of its first tuple
        # k copies of ε are the empty tuple, so ε takes the one case k = 1
        for k in range(1, 2 if v is EPSILON else fn.max_arity + 1):
            cases += 1
            rep = row[pos[_wrap(v) * k]]
            if rep != v:
                if witness is None:
                    t = fn.domain.tuples_up_to(fn.max_arity)[row.index(v)]
                    witness = Witness((("x", t),), (("F(x)", v), ("F(k·F(x))", rep)), (("k", k),))
                break
    return Verdict("range_idempotent", witness is None, cases, witness, fn.max_arity)


def check_idempotent(fn: TableFn) -> Verdict:
    """F_n(x, ..., x) = x at every arity."""
    _require_operation(fn, "idempotent")
    cases = fn.max_arity * len(fn.domain.elements)
    row, pos = fn._row, _positions(fn.domain.elements, fn.max_arity)
    for n in range(1, fn.max_arity + 1):
        for u in fn.domain.elements:
            v = row[pos[(u,) * n]]
            if v != u:
                witness = Witness((("x", (u,) * n),), (("F(x)", v),), (("arity", n),))
                return Verdict("idempotent", False, cases, witness, fn.max_arity)
    return Verdict("idempotent", True, cases, None, fn.max_arity)


def check_replication_invariant(fn: TableFn) -> Verdict:
    """F(k · x) = F(x) whenever the replicated tuple still fits the arity.

    Only tuples up to length N // 2 fit a k >= 2 (k·|x| <= N).
    """
    row, pos = fn._row, _positions(fn.domain.elements, fn.max_arity)
    witness = None  # the first failure in canonical tuple order is the least
    cases = 0
    for t, v in islice(zip(fn.domain.tuples_up_to(fn.max_arity // 2), row), 1, None):
        for k in range(2, fn.max_arity // len(t) + 1):
            cases += 1
            rep = row[pos[t * k]]
            if rep != v:
                if witness is None:
                    witness = Witness((("x", t),), (("F(x)", v), ("F(k·x)", rep)), (("k", k),))
                break
    return Verdict("replication_invariant", witness is None, cases, witness, fn.max_arity)


def check_replication_preinvariant(fn: TableFn) -> Verdict:
    """Equal values replicate equally: F(x) = F(y) implies F(k·x) = F(k·y).

    Only tuples up to length N // 2 fit a k >= 2 (k·|y| <= N); ε fits every
    k.  A violation (x, y, k) has x before y in canonical order and k the
    least at which the pair fails.  If x is not the first tuple r of its
    class, r fits every k that y fits, so (r, x) or (r, y) fails at some
    k' <= k with a smaller key, as in ``_p1_scan``.  So one walk over the
    tuples compares each y with r at k = 2, 3, ... until they differ and
    keeps the least mismatch by key.  ``cases_checked`` counts each
    same-class pair at k = 2 up to its least failing k, that is, for each k,
    the pairs that fit k and share (F(x), F(2·x), ..., F((k-1)·x)).
    """
    row, pos = fn._row, _positions(fn.domain.elements, fn.max_arity)
    n, chain = fn.max_arity, fn.domain
    seen = Counter()  # (k, (F(x), ..., F((k-1)·x))) -> tuples so far that fit k and share it
    first = {}  # value -> first tuple of its class
    cases = 0
    key, witness = (n + 1,), None  # of the least mismatch so far; totals stay <= N
    for y, v in zip(chain.tuples_up_to(n // 2), row):
        signature = (v,)
        r = first.setdefault(v, y)
        for k in range(2, n // max(len(y), 1) + 1):
            cases += seen[k, signature]
            seen[k, signature] += 1
            vy = row[pos[y * k]]
            signature += (vy,)
            if r is not y and (vr := row[pos[r * k]]) != vy:
                if (found := _index_key(chain, r, y)) < key:
                    key, witness = found, Witness(
                        (("x", r), ("y", y)), (("F(k·x)", vr), ("F(k·y)", vy)), (("k", k),)
                    )
                r = y  # y and r first differ at this k: stop comparing them
    return Verdict("replication_preinvariant", witness is None, cases, witness, n)


# ---------------------------------------------------------------------------
# Order-theoretic properties
# ---------------------------------------------------------------------------


def check_nondecreasing(fn: TableFn) -> Verdict:
    return _check_monotone(fn, "nondecreasing")


def check_nonincreasing(fn: TableFn) -> Verdict:
    return _check_monotone(fn, "nonincreasing")


def _layer(fn: TableFn, n: int, code=None) -> tuple:
    """F(t) for every n-tuple t in product order, each through ``code`` if given.

    The n-tuples follow the k^0 + ... + k^(n-1) shorter ones in the row (a
    sum, not (k^n - 1)/(k - 1), so the 1-chain fits).  In product order,
    raising position i of t by one chain step adds k^(n-1-i) to its index.
    """
    k = len(fn.domain)
    start = sum(k**m for m in range(n))
    values = fn._row[start : start + k**n]
    return tuple(values if code is None else map(code.__getitem__, values))


@lru_cache(maxsize=128)
def _section_getters(k: int, n: int) -> tuple:
    """k getters reading the one-argument sections of an n-tuple layer in product order.

    The j-th reads, at every position i (stride s = k^(n-1-i)) and for every
    tuple a with digit 0 there, the tuple a + j·s, which has digit j there.
    So zipping all k reads gives every section once, for
    ``check_convex_sections``.  Read from a layer (a tuple), each getter
    returns a tuple, also over the one index of a layer with n = 1.
    """
    strides = [k ** (n - 1 - i) for i in range(n)]
    starts = [(a, s) for s in strides for a in range(k**n) if a // s % k == 0]
    if len(starts) == 1:  # itemgetter over one index returns the item, a slice a tuple
        return tuple(itemgetter(slice(j, j + 1)) for j in range(k))
    return tuple(itemgetter(*[a + j * s for a, s in starts]) for j in range(k))


@lru_cache(maxsize=128)
def _lanes(k: int, n: int, code: str) -> tuple:
    """An n-tuple layer's packer (lane a is tuple a), its top bits, and per-stride guards.

    The guards at stride s are the top bits of the lanes with a step up
    there, the first (k-1)·s of each block of k·s: a repunit of (k-1)·s
    lanes times one of the blocks, as ``_Universe`` builds its masks.
    """
    w = 8 * struct.calcsize("<" + code)

    def ones(count, width=w):  # a one at the bottom of each of ``count`` fields of ``width`` bits
        return ((1 << width * count) - 1) // ((1 << width) - 1)

    blocks = [(k**i, k ** (n - 1 - i)) for i in range(n)]  # (blocks of k·s lanes, s) per position
    guards = [(w * s, ones((k - 1) * s) * ones(b, w * k * s) << w - 1) for b, s in blocks]
    return struct.Struct(f"<{k**n}{code}").pack, ones(k**n) << w - 1, guards


def _check_monotone(fn: TableFn, prop: str) -> Verdict:
    """Monotone in each argument; only adjacent chain elements are compared.

    A layer's ranks (below 2^(w-1); a violation lowers the rank) fill the
    w-bit lanes of one int (``_lanes``).  Shifted down s lanes with top bits
    set, lane a minus the rank at a is 2^(w-1) plus the step a → a + s, in
    (0, 2^w): no lane borrows, and the top bit stays where the step does not
    go down.  The least witness (x, x'), key total 2|x|, lies in the first
    layer with a step down, where raising a later position gives a smaller
    x': it is the first violation visiting x in product order and its
    positions last to first.  ``cases_checked`` counts the steps up: at each
    of n positions, the (k-1)·k^(n-1) n-tuples not topped there.
    """
    top = len(fn.codomain) - 1
    rank = {v: i if prop == "nondecreasing" else top - i for i, v in enumerate(fn.codomain)}
    code = "B" if top < 1 << 7 else "H" if top < 1 << 15 else "L"
    k = len(fn.domain)
    cases = sum(n * (k - 1) * k ** (n - 1) for n in range(1, fn.max_arity + 1))
    for n in range(1, fn.max_arity + 1):
        pack, every, guards = _lanes(k, n, code)
        layer = _layer(fn, n, rank)
        lanes = int.from_bytes(pack(*layer), "little")
        if not any(g & ~(((lanes >> shift) | every) - lanes) for shift, g in guards):
            continue
        strides = [(i, k ** (n - 1 - i)) for i in reversed(range(n))]
        a, i, s = next(
            (a, i, s)
            for a, r in enumerate(layer)
            for i, s in strides
            if a // s % k < k - 1 and r > layer[a + s]  # digit i of a is not the top
        )
        x, xp, f = fn.domain.tuples(n)[a], fn.domain.tuples(n)[a + s], _layer(fn, n)
        values = (("F(x)", f[a]), ("F(x')", f[a + s]))
        witness = Witness((("x", x), ("x'", xp)), values, (("position", i),))
        return Verdict(prop, False, cases, witness, fn.max_arity)
    return Verdict(prop, True, cases, None, fn.max_arity)


def check_symmetric(fn: TableFn) -> Verdict:
    """Invariant under argument permutations, via sorted-tuple canonicalization.

    Each layer is compared with itself read at the sorted tuples.  A witness
    (x, sorted(x)) has key total 2|x|, then x's chain indices, so the least
    is the first differing tuple of the first layer with one.
    ``cases_checked`` counts the tuples of length 2..N.
    """
    tuples = fn.domain.tuples
    k = len(fn.domain)
    cases = sum(k**n for n in range(2, fn.max_arity + 1))
    for n in range(2, fn.max_arity + 1):
        layer = _layer(fn, n)
        index = _sorted_index(k, n)
        differs = list(map(ne, layer, map(layer.__getitem__, index)))
        if True in differs:
            a = differs.index(True)
            witness = Witness(
                (("x", tuples(n)[a]), ("sorted(x)", tuples(n)[index[a]])),
                (("F(x)", layer[a]), ("F(sorted(x))", layer[index[a]])),
            )
            return Verdict("symmetric", False, cases, witness, fn.max_arity)
    return Verdict("symmetric", True, cases, None, fn.max_arity)


@lru_cache(maxsize=128)
def _sorted_index(k: int, n: int) -> tuple:
    """For each n-tuple over a k-chain, in product order, the index of its sorted tuple."""
    weights = [k ** (n - 1 - j) for j in range(n)]
    first = {c: sum(map(mul, c, weights)) for c in combinations_with_replacement(range(k), n)}
    return tuple(map(first.__getitem__, map(tuple, map(sorted, product(range(k), repeat=n)))))


def check_convex_sections(fn: TableFn) -> Verdict:
    """Every one-argument section has a gap-free image in the codomain order.

    Each layer's distinct sections (their k codomain positions in chain
    order), read by ``_section_getters``, are tested once.  A witness (y, z)
    has key total |y·z|, then the word y·z, then |y|, which is the order of
    ``_context_pairs``; so the least is the first pair of total n - 1 whose
    section is gapped, n the first layer with a gapped section.
    """
    chain, row, pos = fn.domain, fn._row, _positions(fn.domain.elements, fn.max_arity)
    cod = {v: i for i, v in enumerate(fn.codomain)}
    k = len(chain)
    cases = len(_context_pairs(chain, fn.max_arity - 1))
    for n in range(1, fn.max_arity + 1):
        layer = _layer(fn, n, cod)
        sections = set(zip(*[read(layer) for read in _section_getters(k, n)]))
        gapped = {s for s in sections if max(s) - min(s) >= len(set(s))}
        if not gapped:
            continue
        for y, z in _context_pairs(chain, n - 1):  # shorter pairs have no gapped section
            image = tuple(cod[row[pos[y + (u,) + z]]] for u in chain.elements)
            if image in gapped:
                break
        missing = next(j for j in range(min(image), max(image)) if j not in image)
        witness = Witness(
            (("y", y), ("z", z)),
            (("missing", fn.codomain[missing]),),
            (("arity", n), ("position", len(y))),
            note="section image has a gap",
        )
        return Verdict("convex_sections", False, cases, witness, fn.max_arity)
    return Verdict("convex_sections", True, cases, None, fn.max_arity)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

CHECKERS = {
    "standard": check_standard,
    "epsilon_standard": check_epsilon_standard,
    "associative_A1": lambda fn: check_associative(fn, "A1"),
    "associative_A2": lambda fn: check_associative(fn, "A2"),
    "associative_A3": lambda fn: check_associative(fn, "A3"),
    "preassociative_P1": lambda fn: check_preassociative(fn, "P1"),
    "preassociative_P2": lambda fn: check_preassociative(fn, "P2"),
    "unarily_idempotent": check_unarily_idempotent,
    "unarily_range_idempotent": check_unarily_range_idempotent,
    "unarily_quasi_range_idempotent": check_unarily_quasi_range_idempotent,
    "range_idempotent": check_range_idempotent,
    "idempotent": check_idempotent,
    "replication_invariant": check_replication_invariant,
    "replication_preinvariant": check_replication_preinvariant,
    "nondecreasing": check_nondecreasing,
    "nonincreasing": check_nonincreasing,
    "symmetric": check_symmetric,
    "convex_sections": check_convex_sections,
}

#: The closed list of checkable property names, in canonical order.
PROPERTY_NAMES = tuple(CHECKERS)


def run_checks(fn: TableFn, names) -> dict:
    """Run the named checkers in the canonical property order."""
    unknown = [n for n in names if n not in CHECKERS]
    if unknown:
        raise ValueError(f"unknown properties: {', '.join(unknown)}")
    selected = set(names)
    return {n: CHECKERS[n](fn) for n in PROPERTY_NAMES if n in selected}

"""Real-interval families, their tabulation, and the axiomatized operation families.

The real-valued model: an ``Interval``, a ``GeneratedFn`` for the two
generated families (quasi-sums psi(phi(x1) + ... + phi(xn)) and Ling-type
bounded sums), and ``tabulate``, which turns a generated family or a folded
binary operation on a finite grid or chain into a ``core.TableFn``.  Reals
are compared at the package tolerances ``REL_TOL``/``ABS_TOL`` and rendered
through ``core.canonical_symbol``.

Constructors on top of it: quasi-sums and Ling-type families from generator
pairs, the variadic extensions of catalog t-norms, t-conorms and uninorms,
their relabelings, and median-style operations on bounded chains.  Real
families are validated on finite sampling grids; strict monotonicity and the
defining axioms are certified at grid points only.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import product
from numbers import Real
from typing import Callable, Optional, Sequence

from .checks import nonassociative_triple
from .core import EPSILON, Chain, TableFn, canonical_symbol, compose, left_fold
from .errors import AxiomError, GeneratorError, GridClosureError
from .quasi_inverse import FiniteMap

#: Package-wide float comparison tolerances, applied symmetrically.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def close(u: float, v: float) -> bool:
    """Symmetric float equality at the package tolerances."""
    return math.isclose(u, v, rel_tol=REL_TOL, abs_tol=ABS_TOL)


# ---------------------------------------------------------------------------
# Generated real-interval families and their tabulation
# ---------------------------------------------------------------------------

FAMILIES = ("quasi_sum", "ling")


@dataclass(frozen=True)
class Interval:
    """A real interval with endpoint openness flags; infinities allowed.

    It must hold a real number: its ends are numbers, lo <= hi, and when
    they meet, at a finite point of a closed interval.
    """

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval end nan is not a number")
        if self.lo > self.hi or (
            self.lo == self.hi and (self.lo_open or self.hi_open or math.isinf(self.lo))
        ):
            raise ValueError(f"interval {self} holds no real number")

    def contains(self, x: float) -> bool:  # each test is a comparison NaN fails
        above = x > self.lo if self.lo_open else x >= self.lo - ABS_TOL
        return above and (x < self.hi if self.hi_open else x <= self.hi + ABS_TOL)

    def __str__(self):
        left = "]" if self.lo_open else "["
        right = "[" if self.hi_open else "]"
        return f"{left}{self.lo}, {self.hi}{right}"


@dataclass(frozen=True)
class GeneratedFn:
    """A variadic real family given by generators phi, psi and, for ling, a.

    Families:
      quasi_sum   psi(phi(x1) + ... + phi(xn))
      ling        psi(min(phi(x1) + ... + phi(xn), phi(a)))
    """

    family: str
    interval: Interval
    phi: Callable
    psi: Callable
    a: Optional[float] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "ling" and self.a is None:
            raise ValueError("ling needs its bound a")

    def eval(self, xs: Sequence[float]) -> float:
        """The family formula at a nonempty tuple of reals inside the interval."""
        xs = [float(x) for x in xs]
        if not xs:
            raise ValueError("generated families are evaluated on tuples of length >= 1")
        for x in xs:
            if not self.interval.contains(x):
                raise ValueError(f"input {x} outside interval {self.interval}")
        total = sum(self.phi(x) for x in xs)
        if self.family == "ling":
            total = min(total, self.phi(self.a))
        return self.psi(total)


def _rep(reps: list, value: float) -> float:
    """``value``'s near-equal (1e-9 rel / 1e-12 abs) neighbour in sorted ``reps``, else itself, inserted."""
    i = bisect_left(reps, value)
    for j in (i - 1, i):
        if 0 <= j < len(reps) and close(reps[j], value):
            return reps[j]
    reps.insert(i, value)
    return value


def _as_grid(carrier) -> list[float]:
    grid = [float(x) for x in carrier]
    if any(map(math.isnan, grid)):
        raise ValueError("grid point nan is not a number")
    grid.sort()
    if not grid:
        raise ValueError("empty grid")
    for u, v in zip(grid, grid[1:]):
        if close(u, v):
            raise ValueError(f"grid points {u} and {v} coincide at tolerance")
    return grid


def _require_strictly_monotone(f: Callable, grid: Sequence[float], label: str) -> bool:
    """Check strict monotonicity on consecutive grid points; returns direction."""
    ys = [float(f(x)) for x in grid]
    if len(ys) < 2:
        return True
    increasing = all(u < v and not close(u, v) for u, v in zip(ys, ys[1:]))
    decreasing = all(u > v and not close(u, v) for u, v in zip(ys, ys[1:]))
    if not (increasing or decreasing):
        raise GeneratorError(f"{label} is not strictly monotone on the sampling grid")
    return increasing


def tabulate(
    source,
    carrier,
    max_arity: int,
    *,
    default=EPSILON,
) -> TableFn:
    """Build the total table of a generated family or binary operation.

    ``source`` is a GeneratedFn, or a binary callable which is extended with
    identity unary part by folding left.  ``carrier`` is a Chain (symbolic)
    or an iterable of reals (a finite grid).  Real values are collapsed onto
    canonical 12-significant-digit symbols; the codomain lists the distinct
    observed values in ascending order.
    """
    if isinstance(carrier, Chain):
        return _tabulate_chain(source, carrier, max_arity, default)
    return _tabulate_grid(source, carrier, max_arity, default)


def _tabulate_chain(source, chain: Chain, max_arity, default) -> TableFn:
    if isinstance(source, GeneratedFn):
        raise TypeError("generated families need a real grid carrier, not a chain")
    table = {}
    if max_arity >= 2:  # the unary part is the identity: no call at arity 1
        for t in chain.tuples(2):
            v = source(*t)
            if v not in chain:
                raise ValueError(f"binary operation left the chain: {t!r} -> {v!r}")
            table[t] = v
    row = left_fold(chain, dict(zip(chain, chain)), table, max_arity)
    row[0] = default
    # the identity unary part attains every element, so the codomain is the chain
    codomain = chain.elements
    if default is not EPSILON and default not in codomain:
        codomain = codomain + (default,)
    return TableFn._of_row(chain, codomain, max_arity, row)


def _tabulate_grid(source, carrier, max_arity, default) -> TableFn:
    """The table on a real grid, its values listed in ``product`` order: the row's order past ε."""
    grid = _as_grid(carrier)
    if isinstance(source, GeneratedFn):
        for x in grid:
            if not source.interval.contains(x):
                raise ValueError(f"grid point {x} outside interval {source.interval}")
        _require_strictly_monotone(source.phi, grid, "phi")
        evalf = source.eval
    else:
        evalf = lambda t: reduce(source, t)  # noqa: E731

    def universe():
        return (t for n in range(1, max_arity + 1) for t in product(grid, repeat=n))

    raw = [float(evalf(t)) for t in universe()]
    # NaN is close to no representative, so each NaN value would get a symbol "nan" of its own
    nan = next((t for t, v in zip(universe(), raw) if math.isnan(v)), None)
    if nan is not None:
        raise ValueError(f"value at ({','.join(map(canonical_symbol, nan))}) is not a number")

    reps = list(grid)  # so a value that rounds onto a grid point reuses its symbol
    rep_of = {v: _rep(reps, v) for v in sorted(set(raw))}
    sym = {g: canonical_symbol(g) for g in grid}
    for r in rep_of.values():
        sym.setdefault(r, canonical_symbol(r))

    chain = Chain(tuple(sym[g] for g in grid))
    codomain = tuple(sym[r] for r in sorted(set(rep_of.values())))
    if len(set(codomain)) != len(codomain):
        raise AssertionError("canonical value symbols collided; tolerances inconsistent")
    if default is not EPSILON:
        if isinstance(default, Real) and not isinstance(default, bool):
            default = canonical_symbol(_rep(reps, float(default)))
        if default not in codomain:
            codomain = codomain + (default,)
    row = [default, *(sym[rep_of[v]] for v in raw)]
    return TableFn._of_row(chain, codomain, max_arity, row)


# ---------------------------------------------------------------------------
# Quasi-sums and Ling-type families from generator pairs
# ---------------------------------------------------------------------------

_SAMPLES = 33
#: Window used to sample unbounded intervals during construction-time checks.
_INF_WINDOW = 8.0


def _sample_grid(interval: Interval, n: int = _SAMPLES) -> list:
    """``n`` evenly spaced points inside ``interval``, nudged off an open end.

    An infinite end is cut off ``_INF_WINDOW`` past the finite end or past 0,
    whichever lies further out.  The last point is the upper end itself, so
    rounding the steps carries no point past it.
    """
    lo, hi = float(interval.lo), float(interval.hi)
    if not math.isfinite(lo):
        lo = min(hi, 0.0) - _INF_WINDOW
    if not math.isfinite(hi):
        hi = max(lo, 0.0) + _INF_WINDOW
    span = hi - lo
    if span == 0:
        return [lo]
    nudge = span * 1e-6
    if interval.lo_open or not math.isfinite(interval.lo):
        lo += nudge
    if interval.hi_open or not math.isfinite(interval.hi):
        hi -= nudge
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def make_quasi_sum(phi: Callable, psi: Callable, interval: Interval) -> GeneratedFn:
    """The family psi(phi(x1) + ... + phi(xn)) on the given interval.

    ``phi`` must be strictly monotone on the construction sampling grid, and
    ``psi`` strictly monotone on the sampled phi values.  The interval J that
    the sums of phi values range over follows from the sign of phi: the
    half-line ]-inf, 0] when phi <= 0, [0, inf[ when phi >= 0, the whole line
    otherwise; each is closed under addition.
    """
    grid = _sample_grid(interval)
    _require_strictly_monotone(phi, grid, "phi")
    _require_strictly_monotone(psi, sorted(float(phi(x)) for x in grid), "psi")
    return GeneratedFn(
        family="quasi_sum",
        interval=interval,
        phi=phi,
        psi=psi,
    )


def make_ling(phi: Callable, psi: Callable, a: float, b: float) -> GeneratedFn:
    """The bounded family psi(min(phi(x1) + ... + phi(xn), phi(a))) on [a, b].

    ``phi`` must be continuous strictly decreasing with phi(b) = 0 (checked at
    tolerance); ``psi`` strictly monotone on [0, phi(a)].  With psi equal to
    the inverse of phi the binary part is the classical bounded generator
    form.
    """
    a, b = float(a), float(b)
    if not a < b:
        raise GeneratorError(f"need a < b, got a={a}, b={b}")
    if not close(float(phi(b)), 0.0):
        raise GeneratorError(f"phi(b) = {phi(b)} but the construction needs phi(b) = 0")
    interval = Interval(a, b)
    grid = _sample_grid(interval)
    increasing = _require_strictly_monotone(phi, grid, "phi")
    if increasing:
        raise GeneratorError("phi must be strictly decreasing")
    top = float(phi(a))
    psi_grid = [top * i / (_SAMPLES - 1) for i in range(_SAMPLES)]
    _require_strictly_monotone(psi, psi_grid, "psi")
    return GeneratedFn(
        family="ling",
        interval=interval,
        phi=phi,
        psi=psi,
        a=a,
    )


# ---------------------------------------------------------------------------
# Binary seed catalog
# ---------------------------------------------------------------------------


def _drastic(x, y):
    if x == 1.0:
        return y
    if y == 1.0:
        return x
    return 0.0


TNORMS = {
    "min": min,
    "product": lambda x, y: x * y,
    "lukasiewicz": lambda x, y: max(0.0, x + y - 1.0),
    "drastic": _drastic,
}

TCONORMS = {
    "max": max,
    "probabilistic-sum": lambda x, y: x + y - x * y,
    "bounded-sum": lambda x, y: min(1.0, x + y),
}


def _uninorm_min(e):
    # the weakest uninorm with neutral element e: max on [e, 1]^2, min elsewhere
    def op(x, y):
        return max(x, y) if x >= e and y >= e else min(x, y)

    return op


def _uninorm_max(e):
    # the strongest uninorm with neutral element e: min on [0, e]^2, max elsewhere
    def op(x, y):
        return min(x, y) if x <= e and y <= e else max(x, y)

    return op


UNINORMS = {
    "idempotent-min": _uninorm_min,
    "idempotent-max": _uninorm_max,
}


def _resolve_seed_op(kind: str, op, neutral, chain=None):
    if callable(op):
        return op
    name = str(op)
    if chain is not None:
        # symbolic carriers order by the chain, not by string comparison
        if kind == "tnorm" and name == "min":
            return chain.meet
        if kind == "tconorm" and name == "max":
            return chain.join
        raise ValueError(
            f"catalog entry {name!r} needs a numeric grid carrier; "
            "pass a binary callable for symbolic chains"
        )
    if kind == "uninorm":
        if name not in UNINORMS:
            raise ValueError(f"unknown uninorm {name!r}; known: {sorted(UNINORMS)}")
        return UNINORMS[name](neutral)
    catalog = TNORMS if kind == "tnorm" else TCONORMS
    if name not in catalog:
        raise ValueError(f"unknown {kind} {name!r}; known: {sorted(catalog)}")
    return catalog[name]


def _snap(values: list, value, on_grid: bool):
    """The carrier element that ``value`` names (on a grid: within tolerance), or None."""
    if not on_grid:
        return value if value in values else None
    value = float(value)
    for g in values:
        if close(g, value):
            return g
    return None


def make_variadic_seed(kind: str, op, carrier, max_arity: int, *, e=None) -> TableFn:
    """The unique default-ε associative extension of a (discretized) t-norm,
    t-conorm, or uninorm, with identity unary part.

    ``op`` is a catalog name or a binary callable.  The defining axioms are
    checked exhaustively on the carrier: closure, symmetry, monotonicity,
    associativity, and the neutral element (carrier top for t-norms, carrier
    bottom for t-conorms, for uninorms the interior carrier element that ``e``
    names, at which a catalog uninorm is built).
    """
    if kind not in ("tnorm", "tconorm", "uninorm"):
        raise ValueError(f"unknown seed kind {kind!r}")
    on_grid = not isinstance(carrier, Chain)
    values = _as_grid(carrier) if on_grid else list(carrier.elements)
    neutral = _seed_neutral(kind, values, e, on_grid)
    binary = _resolve_seed_op(kind, op, neutral, chain=None if on_grid else carrier)
    snapped = {}
    for u, v in product(values, repeat=2):
        w = binary(u, v)
        s = _snap(values, w, on_grid)
        if s is None:
            raise GridClosureError(f"operation leaves the carrier: ({u!r}, {v!r}) -> {w!r}")
        snapped[(u, v)] = s
    _check_seed_axioms(snapped, values, neutral)
    # the checked table, folded on the chain of the grid's canonical symbols
    chain = Chain(tuple(map(canonical_symbol, values))) if on_grid else carrier
    symbol = dict(zip(values, chain.elements))
    table = {(symbol[u], symbol[v]): symbol[w] for (u, v), w in snapped.items()}
    return tabulate(lambda u, v: table[u, v], chain, max_arity)


def _seed_neutral(kind, values, e, on_grid):
    if kind == "tnorm":
        return values[-1]
    if kind == "tconorm":
        return values[0]
    if e is None:
        raise ValueError("a uninorm needs its neutral element e")
    ne = _snap(values, e, on_grid)
    if ne is None:
        raise ValueError(f"neutral element {e!r} is not an element of the carrier")
    if ne == values[0] or ne == values[-1]:
        raise ValueError("a uninorm neutral element must be interior to the carrier")
    return ne


def _check_seed_axioms(table, values, neutral):
    for x in values:  # neutral element law
        if table[(neutral, x)] != x or table[(x, neutral)] != x:
            raise AxiomError(
                "neutral",
                f"{neutral!r} is not neutral at {x!r}",
                witness=(neutral, x),
            )
    for u, v in product(values, repeat=2):  # symmetry
        if table[(u, v)] != table[(v, u)]:
            raise AxiomError("symmetric", f"not symmetric at ({u!r},{v!r})", witness=(u, v))
    pos = {x: i for i, x in enumerate(values)}
    for u, v in product(values, repeat=2):  # monotone: adjacent steps suffice
        i = pos[u]
        if i + 1 < len(values):
            u2 = values[i + 1]
            if pos[table[(u2, v)]] < pos[table[(u, v)]]:
                raise AxiomError(
                    "nondecreasing", f"decreasing step at ({u!r},{v!r})", witness=(u, v)
                )
    triple = nonassociative_triple(table, values)  # associativity
    if triple is not None:
        raise AxiomError(
            "associative", "not associative at ({!r},{!r},{!r})".format(*triple), witness=triple
        )


def lift_tnorm(f: Callable, seed: TableFn) -> TableFn:
    """Relabel a variadic seed by a strictly monotone unary map on its carrier.

    The seed must come from a numeric grid; ``f`` is applied to the decoded
    grid values, checked strictly monotone on them, and the relabeled table
    keeps the seed's default ε.  The unary part of the result is exactly f.
    """
    try:
        carrier = [float(s) for s in seed.domain.elements]
    except ValueError:
        raise TypeError("lift needs a seed tabulated on a numeric grid") from None
    _require_strictly_monotone(f, carrier, "f")
    relabel = {s: canonical_symbol(float(f(x))) for s, x in zip(seed.domain, carrier)}
    codomain = tuple(sorted(set(relabel.values()), key=float))
    if len(codomain) != len(relabel):
        raise GeneratorError("f collapses grid values at the rendering tolerance")
    return compose(FiniteMap(seed.domain.elements, codomain, relabel), seed)


# ---------------------------------------------------------------------------
# Median-style operations on bounded chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MedianParams:
    """Clamp window [a, b] and the pair c, d steering first/last arguments."""

    a: object
    b: object
    c: object
    d: object

    def validate(self, chain: Chain):
        for p in (self.a, self.b, self.c, self.d):
            if p not in chain:
                raise ValueError(f"parameter {p!r} is not a chain element")
        cd_meet = chain.meet(self.c, self.d)
        cd_join = chain.join(self.c, self.d)
        if not chain.leq(self.a, cd_meet):
            raise ValueError(f"need a <= c∧d, got a={self.a!r}, c∧d={cd_meet!r}")
        if not chain.leq(cd_join, self.b):
            raise ValueError(f"need c∨d <= b, got c∨d={cd_join!r}, b={self.b!r}")


def _median_row(params: MedianParams, chain: Chain, max_arity: int) -> list:
    """The median family's row: its value at every tuple of length 1..N, after F(ε) = ε.

    The value at x is F(x) = med(a, I(x), b) with I(x) = (c∧x1) ∨ med(⋀x,
    c∧d, ⋁x) ∨ (d∧xn) under the chain order.  The formula is worked out on
    chain indices for the tuples of length 1 and 2 only; the rest is
    ``core.left_fold`` of those two parts, which equals the formula because
    F(x·u) = F(F(x)·u) for every nonempty x and element u (A1).

    Proof.  Write m = c∧d, L = ⋀x and U = ⋁x.  As L <= U, med(L, m, U) =
    L ∨ (m∧U), so I(x) = (c∧x1) ∨ L ∨ (m∧U) ∨ (d∧xn), and I(u) = u for a
    single element.  For x·u the meet is L∧u and the join U∨u; m∧u <= d∧u,
    so I(x·u) = (c∧x1) ∨ (L∧u) ∨ (m∧U) ∨ (d∧u).  Meeting I(x) with c∨u
    keeps c∧x1 (<= c) and m∧U (m <= c), turns L into (L∧c) ∨ (L∧u), where
    L∧c <= c∧x1, and d∧xn into (m∧xn) ∨ (d∧xn∧u), where m∧xn <= m∧U and
    d∧xn∧u <= d∧u.  Hence I(x·u) = (I(x) ∧ (c∨u)) ∨ (d∧u), and with x = v
    alone, I(v·u) = (v ∧ (c∨u)) ∨ (d∧u).  The clamp g(v) = med(a, v, b) =
    (a∨v)∧b (a <= b) preserves ∧ and ∨ on a chain and g∘g = g, so with
    v = F(x) = g(I(x)), where g(v) = g(I(x)):  F(v·u) = (g(v) ∧ g(c∨u)) ∨
    g(d∧u) = g((I(x) ∧ (c∨u)) ∨ (d∧u)) = g(I(x·u)) = F(x·u).  ∎
    """
    a, b, c, d = (chain._index[p] for p in (params.a, params.b, params.c, params.d))
    cd = min(c, d)
    elements = chain.elements

    def value(*x):  # F at a tuple of chain indices
        inner = max(min(c, x[0]), min(max(min(x), cd), max(x)), min(d, x[-1]))
        return elements[min(max(a, inner), b)]

    unary = {u: value(i) for i, u in enumerate(elements)}
    binary = {(u, v): value(i, j) for (i, u), (j, v) in product(enumerate(elements), repeat=2)}
    return left_fold(chain, unary, binary, max_arity)


def make_median_family(
    params: MedianParams,
    chain: Chain,
    max_arity: int,
    f=None,
) -> TableFn:
    """Tabulate the median-style operation, optionally relabeled through f.

    Without ``f`` the result is an associative, range-idempotent operation
    whose sections are all monotone and convex.  ``f`` (a FiniteMap from the
    window [a, b] into an ordered codomain) must be strictly increasing with a
    gap-free range; it relabels every entry.
    """
    params.validate(chain)
    row = _median_row(params, chain, max_arity)
    median = TableFn._of_row(chain, chain.elements, max_arity, row)
    if f is None:
        return median

    window = chain.elements[chain.index(params.a) : chain.index(params.b) + 1]
    if f.domain != window:
        raise ValueError(
            f"f must be defined exactly on the window [{params.a!r}, {params.b!r}]"
        )
    images = [f.codomain.index(f.graph[u]) for u in window]
    if any(p >= q for p, q in zip(images, images[1:])):
        raise GeneratorError("f must be strictly increasing on the window")
    # strictly increasing images leave no gap exactly when the ends are len - 1 apart
    if images[-1] - images[0] != len(images) - 1:
        raise GeneratorError("range of f has a gap in the codomain order")
    return compose(f, median)

"""The three benchmark workloads: seeded inputs, item execution, answer checks.

Every workload draws its items from a finite pool, so that ``golden.json``
can hold the frozen answer of every item any seed can draw.  ``draw`` picks
the items of one pass from the seed.  The pass of every workload has a
fixed make-up (how many items of each kind, and which median orbits), and
the seed picks among items of equal cost, so runs on different seeds are
comparable.

Each item runs as ``execute`` (timed) followed by ``check`` (untimed),
which returns the answer payload whose sha256 is compared with the frozen
digest, and the known-answer failures found by checks that do not use the
checkers under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from itertools import permutations, product

E2 = ("0", "1")
E3 = ("0", "1", "2")
E4 = ("0", "1", "2", "3")

#: Five-point grids on [0, 1]; the order-based catalog operations are closed on
#: all of them, the arithmetic ones (lukasiewicz, bounded-sum) on the first.
GRIDS = (
    (0.0, 0.25, 0.5, 0.75, 1.0),
    (0.0, 0.1, 0.4, 0.7, 1.0),
    (0.0, 0.2, 0.3, 0.9, 1.0),
    (0.0, 0.5, 0.6, 0.8, 1.0),
)

#: Associative binary operations on {0, 1, 2, 3}, conjugated by a seeded permutation.
TEMPLATES = {
    "semilattice": lambda x, y: min(x, y),
    "cyclic_group": lambda x, y: (x + y) % 4,
    "rectangular_band": lambda x, y: (x & 2) | (y & 1),
}
PERMUTATIONS = tuple("".join(map(str, p)) for p in permutations(range(4)))
#: One-to-one unary parts into foreign labels, so the functions are not operations.
LABELS = ("a", "b", "c", "d", "e")
F1_CHOICES = ("bdae", "ecab", "cabd")

#: The 18 checkable properties, in the package's canonical order.
PROPERTIES = (
    "standard", "epsilon_standard", "associative_A1", "associative_A2",
    "associative_A3", "preassociative_P1", "preassociative_P2",
    "unarily_idempotent", "unarily_range_idempotent",
    "unarily_quasi_range_idempotent", "range_idempotent", "idempotent",
    "replication_invariant", "replication_preinvariant", "nondecreasing",
    "nonincreasing", "symmetric", "convex_sections",
)

#: Associative binary operations on a 3-element set (OEIS A023814).
ASSOCIATIVE_BINARY_ON_3 = 113
#: Associative default-ε standard tables on the 2-chain up to arity 3: the
#: sweep's A1 count, and the number that ``enumerate --filter assoc`` emits.
ASSOCIATIVE_ON_2_CHAIN_ARITY_3 = 10


@dataclass(frozen=True)
class Item:
    key: str
    kind: str
    params: tuple = ()
    candidates: int = 1
    argv: tuple = ()
    writes: tuple = ()


@dataclass
class Checked:
    payload: object
    problems: list = field(default_factory=list)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def payload_digest(payload) -> str:
    return sha256_text(json.dumps(payload, sort_keys=True, ensure_ascii=False))


def median_orbit(params, elements):
    """``params`` and its images under swapping c and d and reversing the chain.

    The checkers scan the median tables of an orbit at the same cost (their
    case counts agree to 0.01%); a seed picks one member of each orbit, so
    every seed gets a pass of the same cost.
    """
    pos = {s: i for i, s in enumerate(elements)}
    a, b, c, d = (pos[p] for p in params)
    top = len(elements) - 1
    images = [(a, b, c, d), (a, b, d, c),
              (top - b, top - a, top - d, top - c), (top - b, top - a, top - c, top - d)]
    return sorted({tuple(elements[i] for i in q) for q in images})


def median_params(elements):
    """Every (a, b, c, d) with a <= c∧d and c∨d <= b, as chain symbols."""
    k = len(elements)
    return [
        tuple(elements[i] for i in (a, b, c, d))
        for a, b, c, d in product(range(k), repeat=4)
        if a <= min(c, d) and max(c, d) <= b
    ]


def median_value(xs, a, b, c, d):
    """The median-style formula on chain positions, written from the paper."""
    med = lambda u, v, w: sorted((u, v, w))[1]  # noqa: E731
    inner = max(min(c, xs[0]), med(min(xs), min(c, d), max(xs)), min(d, xs[-1]))
    return med(a, inner, b)


def median_table(elements, params, max_arity):
    pos = {s: i for i, s in enumerate(elements)}
    a, b, c, d = (pos[p] for p in params)
    return {
        t: elements[median_value([pos[s] for s in t], a, b, c, d)]
        for n in range(1, max_arity + 1)
        for t in product(elements, repeat=n)
    }


def table_key(entries) -> str:
    return payload_digest(sorted([list(t), str(v)] for t, v in entries.items()))


def grid_text(grid) -> str:
    return ",".join(format(x, "g") for x in grid)


def grid_symbols(lib, grid) -> tuple:
    return tuple(lib.core.canonical_symbol(x) for x in grid)


def verdict_payload(verdict):
    """(property, holds, witness, max_arity); cases_checked is left out on purpose."""
    w = verdict.witness
    witness = None
    if w is not None:
        witness = [
            [[k, [str(s) for s in t]] for k, t in w.parts],
            [[k, str(v)] for k, v in w.values],
            [[k, v] for k, v in w.scalars],
            w.note,
        ]
    return [verdict.property, verdict.holds, witness, verdict.max_arity]


def applicable(lib, fn):
    if fn.is_operation:
        return list(lib.checks.PROPERTY_NAMES)
    return [p for p in lib.checks.PROPERTY_NAMES if p not in lib.checks.OPERATION_ONLY]


class Workload:
    name = ""
    #: passes a run always completes; item_ms_tail's percentile is set by them
    min_passes = 2

    def pool(self) -> dict:
        raise NotImplementedError

    def draw(self, rng) -> list:
        raise NotImplementedError

    def shapes(self, lib) -> list:
        """(chain elements, max arity) of every table the workload checks; warmed in set-up."""
        raise NotImplementedError

    def execute(self, lib, item, tmp):
        raise NotImplementedError

    def check(self, lib, item, output, tmp) -> Checked:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


class Sweep(Workload):
    """The theorem-equivalence sweep over every default-ε table on the 2-chain, arity 3."""

    name = "sweep"
    #: a pass is one library call of 15 to 35 s on the VM described in README.md
    min_passes = 1
    TOTAL = 2 ** (2 + 4 + 8)

    def pool(self):
        item = Item("sweep:2:3", "sweep", (2, 3), candidates=self.TOTAL)
        return {item.key: item}

    def draw(self, rng):
        return list(self.pool().values())

    def shapes(self, lib):
        return [(E2, 3)]

    def execute(self, lib, item, tmp):
        return lib.enumeration.equivalence_sweep(*item.params, workers=1)

    def check(self, lib, item, report, tmp):
        payload = {
            "to_json_sha256": sha256_text(report.to_json()),
            "all_equivalences_hold": report.all_equivalences_hold(),
            "total": report.total,
        }
        problems = []
        if not report.all_equivalences_hold():
            problems.append("an equivalence of the paper fails in the sweep")
        if report.total != self.TOTAL:
            problems.append(f"sweep covered {report.total} candidates, not {self.TOTAL}")
        a1 = report.property_counts.get("A1")
        if a1 != ASSOCIATIVE_ON_2_CHAIN_ARITY_3:
            problems.append(f"sweep counts {a1} A1 tables, not {ASSOCIATIVE_ON_2_CHAIN_ARITY_3}")
        return Checked(payload, problems)


# ---------------------------------------------------------------------------
# deep
# ---------------------------------------------------------------------------


def conjugated(template, perm):
    """h2(σx, σy) = σ(op(x, y)): conjugates of associative operations are associative."""
    op = TEMPLATES[template]
    sigma = [int(ch) for ch in perm]
    return {
        (E4[sigma[x]], E4[sigma[y]]): E4[sigma[op(x, y)]]
        for x in range(4)
        for y in range(4)
    }


#: Catalog operations by cost: order-based ones (min, max, uninorms) are cheapest.
SEED_COST = {"lukasiewicz": "arithmetic", "bounded-sum": "arithmetic", "drastic": "drastic"}
SEEDS_PER_PASS = {"order": 3, "arithmetic": 1, "drastic": 2}
F1H2_PER_PASS = {"semilattice": 1, "cyclic_group": 2, "rectangular_band": 1}
#: One median orbit from each quarter of the cost range: ordered by the cases
#: the checkers scan at arity 5, the 19 orbits on the 4-chain run from 0303
#: (0.70 M cases) to 0000 (1.91 M).
DEEP_MEDIAN_ORBITS = ("0202", "0201", "0101", "0111")


class Deep(Workload):
    """Large tables whose properties mostly hold, so every scan runs to the end."""

    name = "deep"

    def pool(self):
        items = {}
        for p in median_params(E4):
            key = "median:" + "".join(p)
            items[key] = Item(key, "median", p)
        seeds = [("tnorm", "lukasiewicz", GRIDS[0], None), ("tconorm", "bounded-sum", GRIDS[0], None)]
        for grid in GRIDS:
            seeds += [("tnorm", "min", grid, None), ("tconorm", "max", grid, None),
                      ("tnorm", "drastic", grid, None)]
            for name in ("idempotent-min", "idempotent-max"):
                seeds += [("uninorm", name, grid, e) for e in grid[1:-1]]
        for kind, name, grid, e in seeds:
            key = f"seed:{kind}:{name}:{grid_text(grid)}:{e}"
            items[key] = Item(key, "seed", (kind, name, grid, e))
        for template in TEMPLATES:
            for perm in PERMUTATIONS:
                for f1 in F1_CHOICES:
                    key = f"f1h2:{template}:{perm}:{f1}"
                    items[key] = Item(key, "f1h2", (template, perm, f1))
        for c in E4:
            items[f"const:{c}"] = Item(f"const:{c}", "const", (c,))
        items["extensions:3:3"] = Item("extensions:3:3", "extensions")
        return items

    def draw(self, rng):
        pool = self.pool()
        keys = ["median:" + "".join(rng.choice(median_orbit(tuple(p), E4))) for p in DEEP_MEDIAN_ORBITS]
        seeds = {}
        for key, item in pool.items():
            if item.kind == "seed":
                seeds.setdefault(SEED_COST.get(item.params[1], "order"), []).append(key)
        for group, count in SEEDS_PER_PASS.items():
            keys += rng.sample(seeds[group], count)
        for template, count in F1H2_PER_PASS.items():
            for perm in rng.sample(PERMUTATIONS, count):
                keys.append(f"f1h2:{template}:{perm}:{rng.choice(F1_CHOICES)}")
        keys += [f"const:{rng.choice(E4)}", "extensions:3:3"]
        rng.shuffle(keys)
        return [pool[k] for k in keys]

    def shapes(self, lib):
        return [(E4, 5), (E3, 3)] + [(grid_symbols(lib, grid), 4) for grid in GRIDS]

    def build(self, lib, item):
        if item.kind == "median":
            params = lib.families.MedianParams(*item.params)
            return lib.families.make_median_family(params, lib.core.Chain(E4), 5)
        if item.kind == "seed":
            kind, name, grid, e = item.params
            return lib.families.make_variadic_seed(kind, name, list(grid), 4, e=e)
        if item.kind == "f1h2":
            template, perm, f1 = item.params
            f1map = lib.quasi_inverse.FiniteMap(E4, LABELS, dict(zip(E4, f1)))
            return lib.factorize.build_from_f1_h2(f1map, conjugated(template, perm), 5)
        (c,) = item.params
        entries = {t: c for n in range(1, 6) for t in product(E4, repeat=n)}
        return lib.core.TableFn(lib.core.Chain(E4), E4, 5, lib.core.EPSILON, entries)

    def execute(self, lib, item, tmp):
        if item.kind == "extensions":
            found = list(lib.enumeration.all_associative_extensions(lib.core.Chain(E3), 3))
            checkers = lib.checks.CHECKERS
            kept = [
                fn for fn in found
                if all(checkers[p](fn).holds for p in ("range_idempotent", "nondecreasing", "convex_sections"))
            ]
            return found, kept
        fn = self.build(lib, item)
        verdicts = lib.checks.run_checks(fn, applicable(lib, fn))
        try:
            return fn, verdicts, lib.factorize.factorize(fn), None
        except lib.errors.PreconditionError as exc:
            return fn, verdicts, None, exc.verdict.property

    def check(self, lib, item, output, tmp):
        if item.kind == "extensions":
            return self._check_extensions(output)
        fn, verdicts, fac, failed = output
        problems = []
        payload = {"verdicts": [verdict_payload(v) for v in verdicts.values()]}
        if fac is None:
            payload["precondition_failed"] = failed
            problems.append(f"factorize refused a function that factors: {failed}")
        else:
            payload["factorization"] = {
                "h_digest": lib.serialization.function_digest(fac.H),
                "g": {str(k): str(v) for k, v in fac.g.graph.items()},
                "f": {str(k): str(v) for k, v in fac.f.graph.items()},
            }
            bad = [t for t, v in fn.entries.items() if fac.f.graph[fac.H.entries[t]] != v]
            if bad:
                problems.append(f"f(H(x)) != F(x) at {bad[0]!r}")
        must_hold = {
            "median": ("associative_A1", "range_idempotent", "nondecreasing", "convex_sections"),
            "seed": ("associative_A1", "symmetric", "nondecreasing"),
            "f1h2": ("preassociative_P1",),
            "const": ("associative_A1", "preassociative_P1"),
        }[item.kind]
        for prop in must_hold:
            if not verdicts[prop].holds:
                problems.append(f"{prop} fails, but the paper proves it for {item.kind} tables")
        if item.kind == "median" and dict(fn.entries) != median_table(E4, item.params, 5):
            problems.append("median table differs from the median formula")
        if item.kind == "f1h2" and fn.is_operation:
            problems.append("build_from_f1_h2 with foreign labels returned an operation")
        return Checked(payload, problems)

    def _check_extensions(self, output):
        found, kept = output
        kept_keys = sorted(table_key(fn.entries) for fn in kept)
        payload = {
            "count": len(found),
            "extensions": payload_digest(sorted(table_key(fn.entries) for fn in found)),
            "kept": payload_digest(kept_keys),
        }
        medians = sorted({table_key(median_table(E3, p, 3)) for p in median_params(E3)})
        problems = []
        if kept_keys != medians:
            problems.append(
                f"{len(kept_keys)} extensions pass RI, nondecreasing and convex sections; "
                f"the median formula gives {len(medians)} tables"
            )
        return Checked(payload, problems)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_TRIPLE_FILES = ("fn.json", "h.json", "report.json")


def _triple(prefix, generate_args):
    fn_path, h_path, report_path = (f"{{tmp}}/{name}" for name in CLI_TRIPLE_FILES)
    return [
        Item(f"{prefix}:generate", "generate",
             argv=("generate", *generate_args, "--max-arity", "4", "--out", fn_path),
             writes=("fn.json",)),
        Item(f"{prefix}:check", "check",
             argv=("check", fn_path, "--properties", ",".join(PROPERTIES), "--json")),
        Item(f"{prefix}:factorize", "factorize",
             argv=("factorize", fn_path, "--out-h", h_path, "--out-report", report_path),
             writes=("h.json", "report.json")),
    ]


ENUMERATE_ITEMS = (
    Item("enumerate:assoc:2:3", "enumerate",
         argv=("enumerate", "--chain-size", "2", "--max-arity", "3", "--filter", "assoc")),
    Item("enumerate:preassoc,uqri:2:2", "enumerate",
         argv=("enumerate", "--chain-size", "2", "--max-arity", "2", "--filter", "preassoc,uqri")),
    Item("enumerate:associative_binary:3:4", "enumerate",
         argv=("enumerate", "--chain-size", "3", "--max-arity", "4",
               "--filter", "associative_binary", "--out", "{tmp}/binary.jsonl"),
         writes=("binary.jsonl",)),
)


def _read_table(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {tuple(e["args"]): e["value"] for e in doc["entries"]}


class Cli(Workload):
    """In-process ``preassoc.cli.main`` commands on files: reads, writes, and streams."""

    name = "cli"
    min_passes = 4
    #: t-norm -> (grids it is closed on, triples per pass)
    TNORMS = {"min": (GRIDS, 2), "drastic": (GRIDS, 2), "lukasiewicz": (GRIDS[:1], 1)}

    def triples(self):
        out = {}
        for a, b, c, d in median_params(E4):
            prefix = f"median:{a}{b}{c}{d}"
            out[prefix] = _triple(prefix, ("--family", "median", "--chain", ",".join(E4),
                                           "--a", a, "--b", b, "--c", c, "--d", d))
        for name, (grids, _) in self.TNORMS.items():
            for grid in grids:
                prefix = f"tnorm:{name}:{grid_text(grid)}"
                out[prefix] = _triple(prefix, ("--family", "tnorm", "--name", name,
                                               "--grid", grid_text(grid)))
        return out

    def pool(self):
        items = {it.key: it for triple in self.triples().values() for it in triple}
        items.update((it.key, it) for it in ENUMERATE_ITEMS)
        return items

    def draw(self, rng):
        triples = self.triples()
        # one member of every median orbit on the 4-chain
        orbits = sorted({tuple(median_orbit(p, E4)) for p in median_params(E4)})
        units = [triples["median:" + "".join(rng.choice(orbit))] for orbit in orbits]
        for name, (grids, picks) in self.TNORMS.items():
            units += [triples[f"tnorm:{name}:{grid_text(g)}"] for g in rng.sample(grids, picks)]
        units += [[it] for it in ENUMERATE_ITEMS]
        rng.shuffle(units)
        return [it for unit in units for it in unit]

    def shapes(self, lib):
        return [(E4, 4), (E2, 3), (E2, 2)] + [(grid_symbols(lib, grid), 4) for grid in GRIDS]

    def execute(self, lib, item, tmp):
        argv = [arg.replace("{tmp}", tmp) for arg in item.argv]
        for name in item.writes:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(tmp, name))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = lib.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, lib, item, output, tmp):
        code, stdout, stderr = output
        files = {}
        for name in item.writes:
            path = os.path.join(tmp, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    files[name] = hashlib.sha256(fh.read()).hexdigest()
            else:
                files[name] = None
        payload = {
            "exit": code,
            "stdout": sha256_text(stdout.replace(tmp, "{tmp}")),
            "files": files,
        }
        problems = []
        if item.kind == "generate" and (code != 0 or files["fn.json"] is None):
            problems.append(f"generate exited {code}: {stderr.strip()}")
        elif item.kind == "check":
            if code not in (0, 1):
                problems.append(f"check exited {code}: {stderr.strip()}")
            else:
                results = json.loads(stdout)["results"]
                if len(results) != len(PROPERTIES) or (code == 0) != all(r["holds"] for r in results):
                    problems.append("check --json report disagrees with its exit code")
        elif item.kind == "factorize":
            problems += self._check_factorization(code, tmp)
        elif item.kind == "enumerate":
            problems += self._check_enumeration(item, code, stdout, tmp)
        return Checked(payload, problems)

    def _check_factorization(self, code, tmp):
        with open(os.path.join(tmp, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        if code == 1:
            return [] if "failed_precondition" in report else ["exit 1 without a failed precondition"]
        if code != 0:
            return [f"factorize exited {code}"]
        fn = _read_table(os.path.join(tmp, "fn.json"))
        h = _read_table(os.path.join(tmp, "h.json"))
        f = report["f"]
        bad = [t for t, v in fn.items() if f[h[t]] != v]
        return [f"f(H(x)) != F(x) at {bad[0]!r}"] if bad else []

    def _check_enumeration(self, item, code, stdout, tmp):
        if code != 0:
            return [f"enumerate exited {code}"]
        if item.writes:
            with open(os.path.join(tmp, item.writes[0]), encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        else:
            lines = stdout.splitlines()
        tables = [json.loads(line) for line in lines]
        if item.key == "enumerate:assoc:2:3" and len(tables) != ASSOCIATIVE_ON_2_CHAIN_ARITY_3:
            return [f"enumerate --filter assoc emitted {len(tables)} tables, "
                    f"not {ASSOCIATIVE_ON_2_CHAIN_ARITY_3}"]
        if item.key == "enumerate:associative_binary:3:4" and len(tables) != ASSOCIATIVE_BINARY_ON_3:
            return [f"{len(tables)} associative binary tables on 3 symbols, not {ASSOCIATIVE_BINARY_ON_3}"]
        return []


WORKLOADS = {w.name: w for w in (Sweep(), Deep(), Cli())}

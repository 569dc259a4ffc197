"""Command-line front end: check, factorize, generate, enumerate.

Exit codes: 0 when the requested work succeeded and every selected property
holds, 1 when a selected property fails (or a factorization precondition is
violated), 2 on input or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import __version__
from .checks import CHECKERS, EPSILON_DEFAULT_ONLY, OPERATION_ONLY, PROPERTY_NAMES, run_checks
from .core import EPSILON, Chain, TableFn
from .enumeration import (
    all_associative_extensions,
    all_epsilon_standard,
    all_operations,
    associative_tables,
    default_chain,
    preassociative_tables,
)
from .errors import PreassocError, PreconditionError
from .factorize import factorize
from .families import (
    TCONORMS,
    TNORMS,
    UNINORMS,
    Interval,
    MedianParams,
    make_ling,
    make_median_family,
    make_quasi_sum,
    make_variadic_seed,
    tabulate,
)
from .quasi_inverse import FiniteMap
from .serialization import (
    SCHEMA_VERSION,
    _decode,
    _value_token,
    build_report,
    dumps_function,  # not called here: bench/tracer.py times only functions imported across modules
    dumps_function_compact,
    dumps_report,
    function_digest,
    read_function,
    save_function,
    verdict_to_dict,
)

ALIASES = {
    "assoc": "associative_A1",
    "associative": "associative_A1",
    "preassoc": "preassociative_P1",
    "preassociative": "preassociative_P1",
    "uri": "unarily_range_idempotent",
    "uqri": "unarily_quasi_range_idempotent",
}

#: The options each ``generate`` family reads.  Passing another is a usage
#: error, and so is leaving out one but --phi and --psi, which default to id.
FAMILY_OPTIONS = {
    "median": ("chain", "a", "b", "c", "d"),
    "tnorm": ("grid", "name"),
    "tconorm": ("grid", "name"),
    "uninorm": ("grid", "name", "e"),
    "quasi-sum": ("grid", "phi", "psi"),
    "ling": ("grid", "phi", "psi", "a", "b"),
}

#: The most candidates ``enumerate`` scans without ``--force``.
ENUMERATE_LIMIT = 2**20

NAMED_UNARY = {
    "id": lambda x: x,
    "ln": math.log,
    "exp": math.exp,
    "neg": lambda x: -x,
    "one-minus": lambda x: 1.0 - x,
    "square": lambda x: x * x,
    "cube": lambda x: x ** 3,
}


def _tokens(raw: str) -> list:
    """The nonempty items of a comma-separated option value, stripped."""
    return [token for token in map(str.strip, raw.split(",")) if token]


def _resolve_properties(tokens, parser) -> list:
    """Property names for the tokens, aliases resolved, each once in first-seen order."""
    names = []
    for token in tokens:
        name = ALIASES.get(token, token)
        if name not in PROPERTY_NAMES:
            parser.error(f"unknown property {token!r}; known: {', '.join(PROPERTY_NAMES)}")
        if name not in names:
            names.append(name)
    return names


def _read_table(args) -> tuple:
    """The file's table, truncated to --max-arity, and its ``function_digest``."""
    fn, digest = read_function(args.file)
    n = args.max_arity
    if not n or n == fn.max_arity:
        return fn, digest
    if n > fn.max_arity:
        raise PreassocError(f"cannot raise max arity from {fn.max_arity} to {n}: entries missing")
    fn = TableFn._of_row(fn.domain, fn.codomain, n, fn._row[: len(fn.domain.tuples_up_to(n))])
    return fn, function_digest(fn)


def _print_verdicts(verdicts, quiet):
    if quiet:
        return
    width = max(len(name) for name in verdicts)
    for name, v in verdicts.items():
        status = "holds" if v.holds else "FAILS"
        line = f"{name:<{width}}  {status}  cases={v.cases_checked}"
        if v.witness is not None:
            line += f"  witness: {v.witness.describe()}"
        print(line)


def _needs_epsilon_default(fn: TableFn, name: str) -> bool:
    """The checker of ``name`` refuses ``fn``'s default."""
    return name in EPSILON_DEFAULT_ONLY and fn.default is not EPSILON


def _cmd_check(args, parser) -> int:
    names = _resolve_properties(_tokens(args.properties), parser)
    if not names:
        parser.error("property selection is empty")
    fn, digest = _read_table(args)
    refused = [name for name in names if _needs_epsilon_default(fn, name)]
    if refused:
        raise PreassocError(f"{', '.join(refused)}: defined only for operations with default ε")
    verdicts = run_checks(fn, names)
    if args.json:
        report = build_report(digest, verdicts.values(), __version__)
        print(dumps_report(report), end="")
    else:
        _print_verdicts(verdicts, args.quiet)
    return 0 if all(v.holds for v in verdicts.values()) else 1


def _parse_pins(raw):
    pins = []
    for token in _tokens(raw):
        if ":" not in token:
            raise PreassocError(f"pin {token!r} must have the form value:preimage")
        y, x = token.split(":", 1)
        pins.append((_decode(y), x))
    return pins


def _graph_tokens(fmap: FiniteMap) -> dict:
    """A finite map's graph in function-file tokens, for the factorize report."""
    return {_value_token(u): _value_token(v) for u, v in fmap.graph.items()}


def _cmd_factorize(args, parser) -> int:
    fn, digest = _read_table(args)
    pins = _parse_pins(args.pins) if args.pins else None
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "function_digest": digest,
    }
    failed = None
    try:
        fac = factorize(fn, pins)
    except PreconditionError as exc:
        failed = exc.verdict.property
        report["failed_precondition"] = verdict_to_dict(exc.verdict)
    else:
        report["h_digest"] = save_function(fac.H, args.out_h)
        report["g"] = _graph_tokens(fac.g)
        report["f"] = _graph_tokens(fac.f)
    text = dumps_report(report)
    if args.out_report:
        with open(args.out_report, "w", encoding="utf-8") as fh:
            fh.write(text)
    if failed is not None and not args.quiet:
        print(f"precondition failed: {failed}")
    if args.json:
        print(text, end="")
    elif failed is None and not args.quiet:
        print(f"wrote associative factor to {args.out_h}")
    return 0 if failed is None else 1


def _csv_floats(raw: str, parser, what: str):
    try:
        values = [float(token) for token in _tokens(raw)]
    except ValueError:
        parser.error(f"{what} must be a comma-separated list of numbers")
    if not values:
        parser.error(f"{what} must list at least one number")
    return values


def _float_option(raw, option):
    try:
        return float(raw)
    except ValueError:
        raise PreassocError(f"{option} must be a number, got {raw!r}") from None


def _named_unary(name, parser, what):
    """The named generator, raising an input error that names the option, the
    generator and the point where it fails (ln at 0, exp at 1000)."""
    if name not in NAMED_UNARY:
        parser.error(f"unknown {what} {name!r}; known: {', '.join(sorted(NAMED_UNARY))}")
    fn = NAMED_UNARY[name]

    def generator(x):
        try:
            return fn(x)
        except (ValueError, OverflowError) as exc:
            raise PreassocError(f"{what} {name} cannot be evaluated at {x:g}: {exc}") from None

    return generator


def _cmd_generate(args, parser) -> int:
    try:
        fn = _generated_table(args, parser)
    except ValueError as exc:  # a parameter given on the command line
        raise PreassocError(str(exc)) from exc
    save_function(fn, args.out)
    if not args.quiet:
        print(f"wrote {args.family} table ({len(fn.entries)} entries) to {args.out}")
    return 0


def _generated_table(args, parser) -> TableFn:
    family = args.family
    n = args.max_arity
    reads = FAMILY_OPTIONS[family]
    for option in sorted(set().union(*FAMILY_OPTIONS.values()) - set(reads)):
        if getattr(args, option) is not None:
            parser.error(f"--family {family} does not read --{option}")
    for option in reads:
        if option not in ("phi", "psi") and not getattr(args, option):
            parser.error(f"--family {family} needs --{option}")
    if family == "median":
        chain = Chain(tuple(_tokens(args.chain)))
        return make_median_family(MedianParams(args.a, args.b, args.c, args.d), chain, n)
    grid = _csv_floats(args.grid, parser, "--grid")
    if family in ("tnorm", "tconorm", "uninorm"):
        e = _float_option(args.e, "--e") if args.e is not None else None
        return make_variadic_seed(family, args.name, grid, n, e=e)
    phi = _named_unary(args.phi or "id", parser, "--phi")
    psi = _named_unary(args.psi or "id", parser, "--psi")
    if family == "quasi-sum":
        gen = make_quasi_sum(phi, psi, Interval(min(grid), max(grid)))
    else:  # ling, the last of the family choices
        gen = make_ling(phi, psi, _float_option(args.a, "--a"), _float_option(args.b, "--b"))
    return tabulate(gen, grid, n)


def _passes_filters(fn, names) -> bool:
    # every candidate is an operation, so only a default other than ε can fall
    # outside a checker's precondition, and then the property cannot hold
    if any(_needs_epsilon_default(fn, name) for name in names):
        return False
    # the laws ``_candidates`` walks hold on nearly every candidate: they run last
    walked = ("associative_A1", "preassociative_P1")
    return all(CHECKERS[name](fn).holds for name in sorted(names, key=walked.__contains__))


def _universe(k: int, n: int, filters, binary: bool) -> tuple:
    """The universe ``enumerate`` covers on a k-chain at max arity n, as (base, exponent).

    It holds base**exponent candidates: k^(k²) binary tables for
    associative_binary, the ``epsilon_standard_count`` when every filter is
    operation-only, and (k+1)^(slots+1) tables with any default otherwise.
    """
    if binary:
        return k, k * k
    slots = sum(k**i for i in range(1, n + 1))
    if all(name in OPERATION_ONLY for name in filters):
        return k, slots
    return k + 1, slots + 1


def _too_large(k: int, n: int, filters, binary: bool) -> bool:
    """More than ``ENUMERATE_LIMIT`` candidates, decided without computing huge powers."""
    # capping the arity at 21 changes no answer: from there on every universe
    # but the binary one has an exponent above 20, or a single candidate
    base, exponent = _universe(k, min(n, 21), filters, binary)
    return (base >= 2 and exponent > 20) or base**exponent > ENUMERATE_LIMIT


def _count_text(base: int, exponent: int) -> str:
    """base**exponent in decimal, or as base^exponent where that runs past 4000 digits."""
    if exponent * math.log10(base) < 4000:
        return str(base**exponent)
    return f"{base}^{exponent}"


def _candidates(chain: Chain, n: int, filters, binary: bool):
    """The tables of ``enumerate``'s universe that can pass ``filters``, in universe order.

    For associative_binary these are the identity extensions of the
    associative binary tables, folded by ``tabulate`` (each is associative
    by construction).  Otherwise the universe holds the default-ε standard
    tables, widened to every default when a filter is checkable beyond
    operations.  When the filters include A1 at arity 3 or more, the
    candidates come from the associative extensions, exactly the A1 tables
    of the default-ε standard universe (see ``all_associative_extensions``).
    With any default, each default (chain order, then ε) is paired with the
    extensions' entries, in ``all_operations`` order: a nonempty y with
    F(y) = ε violates A1; the conditions with y nonempty never read F(ε), so
    the entries form a default-ε A1 table, an extension; and y = ε adds
    F(x·z) = F(x·d·z) for the default d.  For a symbol d that holds iff
    F(d) = d and F(a·d) = F(d·a) = a at each value a of F (``_neutral``):
    these are the cases x·z = ε and x·z = a, as F(a) = a by A1, and for x
    and z valued a and b they give the rest by substituting blocks:
    F(x·d·z) = F(F(a·d)·b) = F(a·b) = F(x·z), F(d·z) = F(d·b) = F(z) and
    F(x·d) = F(x).  Otherwise, when they include P1, the candidates are the
    universe's P1 tables, built layer by layer (``preassociative_tables``);
    else they are the whole universe.  The walked law still runs, after the
    other filters, on each table they keep.
    """
    if binary:
        return (tabulate(lambda u, v, t=t: t[u, v], chain, n) for t in associative_tables(chain))
    any_default = any(name not in OPERATION_ONLY for name in filters)
    codomain = chain.elements + (EPSILON,) if any_default else chain.elements
    defaults = codomain if any_default else (EPSILON,)
    if "associative_A1" in filters and n >= 3:
        if not any_default:
            return all_associative_extensions(chain, n)
        exts = list(all_associative_extensions(chain, n))  # built once
        kept = ((d, e) for d in defaults for e in exts if d is EPSILON or _neutral(e, d))
        return (TableFn._of_row(chain, codomain, n, (d, *e._row[1:])) for d, e in kept)
    if "preassociative_P1" in filters:
        return preassociative_tables(chain, n, codomain, defaults)
    return all_operations(chain, n) if any_default else all_epsilon_standard(chain, n)


def _neutral(fn: TableFn, d) -> bool:
    """F(d) = d and F(a·d) = F(d·a) = a at each value a of F."""
    return fn((d,)) == d and all(fn((a, d)) == a == fn((d, a)) for a in fn._attained)


def _cmd_enumerate(args, parser) -> int:
    tokens = _tokens(args.filter)
    special_binary = "associative_binary" in tokens
    filters = _resolve_properties([t for t in tokens if t != "associative_binary"], parser)
    if special_binary and filters:
        parser.error("associative_binary cannot be combined with other filters")

    size, n = args.chain_size, args.max_arity
    if size < 1:
        parser.error("--chain-size must be at least 1")
    if _too_large(size, n, filters, special_binary) and not args.force:
        print(
            f"refusing chain size {size} / max arity {n}: more than {ENUMERATE_LIMIT} "
            f"candidates to scan; pass --force to override",
            file=sys.stderr,
        )
        return 2
    chain = default_chain(size)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout

    emitted = 0
    try:
        # the other filters run first, then the walked law re-checks each table they keep
        for fn in _candidates(chain, n, filters, special_binary):
            if _passes_filters(fn, filters):
                out.write(dumps_function_compact(fn) + "\n")
                emitted += 1
    finally:
        if out is not sys.stdout:
            out.close()
    if not args.quiet:
        scanned = _count_text(*_universe(size, n, filters, special_binary))
        print(f"scanned {scanned} candidates; emitted {emitted}", file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``preassoc`` parser, built on the first call and shared by every later one."""
    json_report = argparse.ArgumentParser(add_help=False)  # check and factorize print a report
    json_report.add_argument("--json", action="store_true", help="emit a machine-readable report")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--quiet", action="store_true", help="suppress informational output")
    shared.add_argument(
        "--max-arity", type=int, default=None, help="override/truncate the max arity"
    )

    parser = argparse.ArgumentParser(
        prog="preassoc",
        description="check, factorize, generate, and enumerate variadic functions on finite chains",
    )
    parser.add_argument("--version", action="version", version=f"preassoc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    reporting = [json_report, shared]  # --json stays first in --help

    p_check = sub.add_parser("check", parents=reporting, help="run property checkers on a function file")
    p_check.add_argument("file")
    p_check.add_argument(
        "--properties",
        required=True,
        help="comma-separated property names (aliases: assoc, preassoc, uri, uqri)",
    )
    p_check.set_defaults(handler=_cmd_check, parser=p_check)

    p_fac = sub.add_parser("factorize", parents=reporting, help="factor through an associative operation")
    p_fac.add_argument("file")
    p_fac.add_argument("--out-h", required=True, help="path for the associative factor H")
    p_fac.add_argument("--out-report", default=None, help="path for the JSON report (f, g, digests)")
    p_fac.add_argument("--pins", default=None, help="comma-separated value:preimage pins for g")
    p_fac.set_defaults(handler=_cmd_factorize, parser=p_fac)

    p_gen = sub.add_parser("generate", parents=[shared], help="tabulate a named operation family")
    p_gen.add_argument(
        "--family",
        required=True,
        choices=tuple(FAMILY_OPTIONS),
    )
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--chain", help="comma-separated chain symbols (median)")
    p_gen.add_argument("--grid", help="comma-separated real grid points")
    p_gen.add_argument("--name", help=f"catalog name; tnorms: {', '.join(sorted(TNORMS))}; "
                                      f"tconorms: {', '.join(sorted(TCONORMS))}; "
                                      f"uninorms: {', '.join(sorted(UNINORMS))}")
    p_gen.add_argument("--phi", help="named generator (quasi-sum, ling); default id")
    p_gen.add_argument("--psi", help="named generator (quasi-sum, ling); default id")
    p_gen.add_argument("--a", default=None)
    p_gen.add_argument("--b", default=None)
    p_gen.add_argument("--c", default=None)
    p_gen.add_argument("--d", default=None)
    p_gen.add_argument("--e", default=None, help="uninorm neutral element")
    p_gen.set_defaults(handler=_cmd_generate, parser=p_gen)

    p_enum = sub.add_parser("enumerate", parents=[shared], help="stream small function universes")
    p_enum.add_argument("--chain-size", type=int, required=True)
    p_enum.add_argument("--filter", default="", help="comma-separated properties; or associative_binary")
    p_enum.add_argument("--out", default=None, help="output path (JSON lines); stdout when omitted")
    p_enum.add_argument("--force", action="store_true", help="override the size guard")
    p_enum.set_defaults(handler=_cmd_enumerate, parser=p_enum)

    return parser


def main(argv=None) -> int:
    """Run one ``preassoc`` command and return its exit code.

    ``main`` may be called any number of times in one process.  The parser is
    built on the first call and only read afterwards (``parse_args`` leaves
    it as it is), so nothing may ``add_argument`` or ``set_defaults`` on it
    after ``build_parser`` returns.
    """
    args = build_parser().parse_args(argv)
    parser = args.parser  # usage errors print the subcommand's usage
    if args.max_arity is not None and args.max_arity < 1:
        parser.error("--max-arity must be at least 1")
    if args.command in ("generate", "enumerate") and args.max_arity is None:
        parser.error(f"{args.command} needs --max-arity")
    try:
        return args.handler(args, parser)
    except (PreassocError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

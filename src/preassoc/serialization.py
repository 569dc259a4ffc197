"""Function and report files: a diff-friendly JSON interchange format.

A function file lists the domain chain, an optional codomain listing, the
default value ("ε" for the marker), the max arity, and one entry per tuple.
Canonical serialization lists entries by arity, then lexicographically in the
domain's listing order, and is byte-stable, so digests and golden-file
comparisons are meaningful.  Each read makes one canonical attempt: a text
in that layout is read without ``json``, any other through ``json`` and one
walk over its entries.  A file may begin with a UTF-8 byte-order mark, which
the reader drops; ``read_function`` takes the digest from the bytes read when
they are the canonical text exactly, with no mark dropped or line end changed.
Reports are the bytes of ``json.dumps(report, ensure_ascii=False, indent=1)``
and a newline, written directly rather than by ``json``'s indent encoder.
"""

from __future__ import annotations

import hashlib
import json
import math
from functools import lru_cache
from itertools import islice
from json.encoder import encode_basestring

from .core import EPSILON, Chain, TableFn, Verdict, Witness, _reach
from .errors import FunctionFileError, UnknownSymbolError

EPSILON_TOKEN = "ε"
SCHEMA_VERSION = 1

FUNCTION_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["domain", "default", "max_arity", "entries"],
    "properties": {
        "domain": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "codomain": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "default": {"type": "string"},
        "max_arity": {"type": "integer", "minimum": 1},
        "entries": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["args", "value"],
                "properties": {
                    "args": {
                        "type": "array",
                        "items": {"type": "string"},
                        "minItems": 1,
                    },
                    "value": {"type": "string"},
                },
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}

WITNESS_SCHEMA = {
    "type": "object",
    "required": ["parts", "values"],
    "properties": {
        "parts": {
            "type": "object",
            "additionalProperties": {"type": "array", "items": {"type": "string"}},
        },
        "values": {"type": "object", "additionalProperties": {"type": "string"}},
        "scalars": {"type": "object", "additionalProperties": {"type": "integer"}},
        "note": {"type": "string"},
    },
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["schema_version", "tool_version", "function_digest", "results"],
    "properties": {
        "schema_version": {"type": "integer"},
        "tool_version": {"type": "string"},
        "function_digest": {"type": "string"},
        "results": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["property", "holds", "cases_checked", "max_arity"],
                "properties": {
                    "property": {"type": "string"},
                    "holds": {"type": "boolean"},
                    "cases_checked": {"type": "integer"},
                    "max_arity": {"type": "integer"},
                    "witness": {"anyOf": [WITNESS_SCHEMA, {"type": "null"}]},
                    "extra": {"type": "object"},
                },
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}


def _value_token(value) -> str:
    return EPSILON_TOKEN if value is EPSILON else str(value)


def _refuse_unloadable(fn: TableFn) -> None:
    """Refuse, with ``FunctionFileError``, a domain or codomain symbol that the
    loader would not read back: a non-string, or the reserved string "ε"."""
    for field, symbols in (("domain", fn.domain.elements), ("codomain", fn.codomain)):
        for s in symbols:
            if s is not EPSILON and (not isinstance(s, str) or s == EPSILON_TOKEN):
                raise FunctionFileError(
                    f"{field} symbol {s!r} cannot be serialized: function files hold "
                    f"strings other than the reserved {EPSILON_TOKEN!r}",
                    field=field,
                )


def table_to_dict(fn: TableFn) -> dict:
    """The canonical JSON-ready form of a table function.

    ``dumps_function`` writes the bytes of ``json.dumps`` of this form.  Refuses
    unloadable symbols, as every serializer does.
    """
    _refuse_unloadable(fn)
    return {
        "domain": list(fn.domain.elements),
        "codomain": [_value_token(v) for v in fn.codomain],
        "default": _value_token(fn.default),
        "max_arity": fn.max_arity,
        "entries": [
            {"args": list(args), "value": _value_token(value)}
            for args, value in zip(fn.domain.tuples_up_to(fn.max_arity), fn._row)
            if args
        ],
    }


def _layout(indent) -> tuple:
    """``json.dumps``'s line breaks at nesting levels 0..4 and its key separator."""
    if indent is None:
        return ("",) * 5, ":"
    return tuple("\n" + " " * (indent * level) for level in range(5)), ": "


# a head depends on the chain, the arity and the layout, never on the table's values
@lru_cache(maxsize=32)
def _entry_heads(chain: Chain, max_arity: int, indent) -> tuple:
    """Each entry's text up to its value, in ``tuples_up_to`` order without the empty tuple."""
    br, colon = _layout(indent)
    symbols = {s: encode_basestring(s) for s in chain.elements}
    start = br[2] + "{" + br[3] + '"args"' + colon + "[" + br[4]
    sep = "," + br[4]
    end = br[3] + "]," + br[3] + '"value"' + colon
    return tuple(
        start + sep.join(map(symbols.__getitem__, args)) + end
        for args in islice(chain.tuples_up_to(max_arity), 1, None)
    )


def _header(domain, codomain, default, max_arity: int, indent) -> str:
    """The writer's text up to the "entries" field: "{" and the four fields before it."""
    br, colon = _layout(indent)

    def array(items):
        return "[" + br[2] + ("," + br[2]).join(items) + br[1] + "]"

    fields = {
        "domain": array(map(encode_basestring, domain)),
        "codomain": array(encode_basestring(_value_token(v)) for v in codomain),
        "default": encode_basestring(_value_token(default)),
        "max_arity": str(max_arity),
    }
    return "{" + br[1] + ("," + br[1]).join(f'"{key}"{colon}{text}' for key, text in fields.items())


def _write(fn: TableFn, indent) -> str:
    """The text of ``json.dumps(table_to_dict(fn), ensure_ascii=False, ...)`` with
    ``indent``, or with the compact separators for None, built from string pieces."""
    _refuse_unloadable(fn)
    br, colon = _layout(indent)
    close = br[2] + "}"
    tails = {v: encode_basestring(_value_token(v)) + close for v in fn.codomain}
    heads = _entry_heads(fn.domain, fn.max_arity, indent)
    entries = ",".join(map(str.__add__, heads, map(tails.__getitem__, islice(fn._row, 1, None))))
    header = _header(fn.domain.elements, fn.codomain, fn.default, fn.max_arity, indent)
    return header + "," + br[1] + '"entries"' + colon + "[" + entries + br[1] + "]" + br[0] + "}"


def dumps_function(fn: TableFn) -> str:
    """Byte-stable canonical serialization."""
    return _write(fn, 1) + "\n"


def dumps_function_compact(fn: TableFn) -> str:
    """One-line form for streaming enumeration output."""
    return _write(fn, None)


def function_digest(fn: TableFn) -> str:
    return hashlib.sha256(dumps_function(fn).encode("utf-8")).hexdigest()


def _fields(doc) -> tuple:
    """A document's shape-checked domain, max_arity, default and codomain (or None)."""
    if not isinstance(doc, dict):
        raise FunctionFileError("function document must be a JSON object")
    for key in FUNCTION_SCHEMA["required"]:
        if key not in doc:
            raise FunctionFileError(f"missing required field {key!r}", field=key)
    for key in doc:
        if key not in FUNCTION_SCHEMA["properties"]:
            raise FunctionFileError(f"unknown field {key!r}", field=key)
    domain = doc["domain"]
    if not isinstance(domain, list) or not all(isinstance(s, str) for s in domain):
        raise FunctionFileError("domain must be a list of strings", field="domain")
    if EPSILON_TOKEN in domain:
        raise FunctionFileError(
            f"the marker {EPSILON_TOKEN!r} is reserved and cannot be a domain symbol",
            field="domain",
        )
    max_arity = doc["max_arity"]
    if type(max_arity) is not int or max_arity < 1:  # bool is an int subclass
        raise FunctionFileError("max_arity must be an integer >= 1", field="max_arity")
    default = doc["default"]
    if not isinstance(default, str):
        raise FunctionFileError("default must be a symbol string", field="default")
    codomain = doc.get("codomain", [])  # null is refused; an omitted one is inferred
    if not isinstance(codomain, list) or not all(isinstance(s, str) for s in codomain):
        raise FunctionFileError("codomain must be a list of strings", field="codomain")
    codomain = tuple(map(_decode, codomain)) if "codomain" in doc else None
    return domain, max_arity, _decode(default), codomain


def table_from_dict(doc) -> TableFn:
    """Parse a function document into a validated table function.

    The loader checks the document's shape; ``Chain`` and ``TableFn`` refuse
    an invalid table, and their refusal becomes a ``FunctionFileError``.
    """
    domain, max_arity, default, codomain = _fields(doc)
    entries_doc = doc["entries"]
    if not isinstance(entries_doc, list):
        raise FunctionFileError("entries must be a list", field="entries")
    entries = {}
    for i, item in enumerate(entries_doc):
        if not isinstance(item, dict) or "args" not in item or "value" not in item:
            raise _entry_error(i, " must be an object with 'args' and 'value'")
        if len(item) != 2:
            raise _entry_error(i, " must hold only 'args' and 'value'")
        args = item["args"]
        value = item["value"]
        if not isinstance(args, list) or not all(isinstance(s, str) for s in args):
            raise _entry_error(i, ".args must be a list of symbols")
        if not isinstance(value, str):
            raise _entry_error(i, ".value must be a symbol")
        key = tuple(args)
        if key in entries:
            raise FunctionFileError(f"duplicate entry for args {args!r}", field=f"entries[{i}]")
        entries[key] = _decode(value)
    if codomain is None:
        codomain = _inferred_codomain(set(entries.values()), default, domain)
    return _table(lambda: TableFn(Chain(tuple(domain)), codomain, max_arity, default, entries))


def _table(build) -> TableFn:
    """``build()``'s table; a ``Chain`` or ``TableFn`` refusal becomes a ``FunctionFileError``."""
    try:
        return build()
    except (ValueError, UnknownSymbolError) as exc:
        raise FunctionFileError(str(exc)) from None


def _entry_error(i: int, fault: str) -> FunctionFileError:
    where = f"entries[{i}]"
    return FunctionFileError(where + fault, field=where)


def _decode(token: str):
    return EPSILON if token == EPSILON_TOKEN else token


def _inferred_codomain(values: set, default, domain: list) -> tuple:
    """Entry values and a non-ε default in domain, numeric or string order; an entry's ε last."""
    eps = EPSILON in values
    values.discard(EPSILON)
    if default is not EPSILON:
        values.add(default)
    if values <= set(domain):
        ordered = [v for v in domain if v in values]
    else:
        try:
            numeric = not any(math.isnan(float(v)) for v in values)
        except ValueError:
            numeric = False
        # string order unless every value is a number; NaN compares false both ways
        ordered = sorted(values, key=float) if numeric else sorted(values)
    if eps:
        ordered.append(EPSILON)
    return tuple(ordered)


def _canonical_fields(text: str):
    """``TableFn._of_row``'s arguments for a text in ``dumps_function``'s layout, else None.

    Taken only when the text up to the entries is the writer's header for its
    fields and each entry is its cached head and a codomain token, in
    ``tuples_up_to`` order: the text is then ``dumps_function`` of the table
    these arguments make, byte for byte, which ``json.loads`` reads back to the
    same fields and entries, so ``table_from_dict`` would give the same table
    or refusal.  Heads are built only once the entries number the tuples of
    length 1..N, by the count the constructor takes (``core._reach``).
    """
    header, found, body = text.partition(',\n "entries": [')
    body, tail, end = body.rpartition("\n  }\n ]\n}\n")
    if not (found and tail) or end:
        return None
    try:
        domain, max_arity, default, codomain = _fields(json.loads(header + ',"entries":[]}'))
        chain = Chain(tuple(domain))
    except (ValueError, FunctionFileError):  # JSONDecodeError is a ValueError
        return None
    if codomain is None or header != _header(domain, codomain, default, max_arity, 1):
        return None
    pieces = body.split("\n  },")
    if _reach(len(domain), max_arity, len(pieces))[1] != len(pieces):
        return None
    heads = _entry_heads(chain, max_arity, 1)
    tokens = {encode_basestring(_value_token(v)): v for v in codomain}
    row = [default, *map(tokens.get, map(str.removeprefix, pieces, heads))]
    if None in row or not all(map(str.startswith, pieces, heads)):
        return None
    return chain, codomain, max_arity, row


def _loads(text: str) -> tuple:
    """A text's table, and whether the direct read took it (see ``_canonical_fields``)."""
    if (fields := _canonical_fields(text)) is not None:
        return _table(lambda: TableFn._of_row(*fields)), True
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FunctionFileError(f"invalid JSON: {exc}") from None
    return table_from_dict(doc), False


def loads_function(text: str) -> TableFn:
    return _loads(text)[0]


def _read(path) -> tuple:
    """A function file's table, and its bytes if they are the canonical text, else None.

    The file is read as bytes and decoded as strict UTF-8; one leading
    byte-order mark is dropped and line ends are translated to "\\n", as a
    text-mode read would, and the text takes one canonical attempt.  The
    bytes come back only when that attempt took the text and nothing was
    dropped or translated: they are then ``dumps_function`` of the table.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        decoded = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FunctionFileError(f"not UTF-8 text: {exc}") from None
    text = decoded.removeprefix("\ufeff")
    if "\r" in text:  # a canonical text has none; the guard spares it two scans
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    fn, canonical = _loads(text)
    return fn, data if canonical and text == decoded else None


def read_function(path) -> tuple:
    """A function file's table and its ``function_digest``: the sha256 of the
    bytes read when they are the canonical text, else computed from the table."""
    fn, canonical = _read(path)
    return fn, function_digest(fn) if canonical is None else hashlib.sha256(canonical).hexdigest()


def load_function(path) -> TableFn:
    return _read(path)[0]


def save_function(fn: TableFn, path) -> str:
    """Write the canonical form and return its ``function_digest``, the sha256 of
    the bytes written; unloadable symbols are refused before the file opens."""
    data = dumps_function(fn).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def witness_to_dict(w: Witness) -> dict:
    doc = {
        "parts": {name: [str(s) for s in t] for name, t in w.parts},
        "values": {name: _value_token(v) for name, v in w.values},
    }
    if w.scalars:
        doc["scalars"] = {name: v for name, v in w.scalars}
    if w.note:
        doc["note"] = w.note
    return doc


def verdict_to_dict(v: Verdict) -> dict:
    doc = {
        "property": v.property,
        "holds": v.holds,
        "cases_checked": v.cases_checked,
        "max_arity": v.max_arity,
        "witness": witness_to_dict(v.witness) if v.witness is not None else None,
    }
    if v.extra:
        doc["extra"] = {k: val for k, val in v.extra}
    return doc


def build_report(digest: str, verdicts, tool_version: str) -> dict:
    """The ``check`` report on the table whose ``function_digest`` is ``digest``."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": tool_version,
        "function_digest": digest,
        "results": [verdict_to_dict(v) for v in verdicts],
    }


#: Every leaf but a str, int, bool or None; its text does not depend on the indent.
_encode_leaf = json.JSONEncoder(ensure_ascii=False).encode

_LEAVES = {
    str: encode_basestring,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _report_text(value, br: str) -> str:
    """``json.dumps(value, ensure_ascii=False, indent=1)`` nested where ``br`` breaks a line."""
    leaf = _LEAVES.get(type(value))
    if leaf is not None:
        return leaf(value)
    inner = br + " "
    if isinstance(value, dict):
        items = [encode_basestring(k) + ": " + _report_text(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + br + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_report_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + br + "]" if items else "[]"
    return _encode_leaf(value)


def dumps_report(report: dict) -> str:
    """The bytes of ``json.dumps(report, ensure_ascii=False, indent=1) + "\\n"`` for a
    report whose keys are strings, written without ``json``'s pure-Python indent encoder."""
    return _report_text(report, "\n") + "\n"

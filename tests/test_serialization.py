"""Function/report file round trips, canonical bytes, schema conformance."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from preassoc import __version__, serialization
from preassoc.cli import main
from preassoc.checks import (
    EPSILON_DEFAULT_ONLY,
    PROPERTY_NAMES,
    check_preassociative,
    check_standard,
    run_checks,
)
from preassoc.core import EPSILON, Chain, TableFn
from preassoc.enumeration import all_operations, default_chain
from preassoc.errors import FunctionFileError
from preassoc.families import MedianParams, make_median_family, make_variadic_seed, tabulate
from preassoc.serialization import (
    FUNCTION_SCHEMA,
    REPORT_SCHEMA,
    build_report,
    dumps_function,
    dumps_function_compact,
    dumps_report,
    function_digest,
    load_function,
    loads_function,
    read_function,
    save_function,
    table_from_dict,
    table_to_dict,
)


@pytest.fixture
def min3_fn(chain3):
    return tabulate(chain3.meet, chain3, 3)


class TestRoundTrip:
    def test_parse_of_serialize_is_identity(self, min3_fn, length_fn, remark_b):
        for fn in (min3_fn, length_fn, remark_b):
            back = loads_function(dumps_function(fn))
            assert back.domain.elements == fn.domain.elements
            assert back.codomain == fn.codomain
            assert back.max_arity == fn.max_arity
            assert back.default == fn.default or (
                back.default is EPSILON and fn.default is EPSILON
            )
            assert back.entries == fn.entries

    def test_serialization_is_byte_stable(self, min3_fn):
        # rebuild the same function with scrambled entry insertion order
        items = sorted(min3_fn.entries.items(), reverse=True)
        scrambled = TableFn(
            min3_fn.domain,
            min3_fn.codomain,
            min3_fn.max_arity,
            min3_fn.default,
            dict(items),
        )
        assert dumps_function(scrambled) == dumps_function(min3_fn)
        assert function_digest(scrambled) == function_digest(min3_fn)

    def test_entries_sorted_by_arity_then_args(self, min3_fn):
        doc = table_to_dict(min3_fn)
        keys = [(len(e["args"]), e["args"]) for e in doc["entries"]]
        assert keys == sorted(keys)

    def test_epsilon_token(self, min3_fn):
        doc = table_to_dict(min3_fn)
        assert doc["default"] == "ε"
        back = table_from_dict(doc)
        assert back.default is EPSILON

    def test_documents_validate_against_schema(self, min3_fn, length_fn):
        for fn in (min3_fn, length_fn):
            jsonschema.validate(table_to_dict(fn), FUNCTION_SCHEMA)
            compact = json.loads(dumps_function_compact(fn))
            jsonschema.validate(compact, FUNCTION_SCHEMA)


def _json_forms(fn):
    """The reference bytes: ``json.dumps`` of ``table_to_dict`` in both layouts."""
    doc = table_to_dict(fn)
    return (
        json.dumps(doc, ensure_ascii=False, indent=1) + "\n",
        json.dumps(doc, ensure_ascii=False, separators=(",", ":")),
    )


def _assert_json_bytes(fn):
    assert (dumps_function(fn), dumps_function_compact(fn)) == _json_forms(fn)


def _spread(chain, codomain, max_arity, default):
    """A table taking the codomain values in turn along the canonical entry order."""
    keys = [t for t in chain.tuples_up_to(max_arity) if t]
    entries = {t: codomain[i % len(codomain)] for i, t in enumerate(keys)}
    return TableFn(chain, codomain, max_arity, default, entries)


#: Symbols JSON escapes (quote, backslash, newline, a control character) or keeps as is.
_ODD_SYMBOLS = ('"', "\\", "\n", "\x01", " ", "é")


class TestWriterBytes:
    def test_every_binary_operation_on_the_2_chain(self):
        for fn in all_operations(default_chain(2), 2):
            _assert_json_bytes(fn)

    def test_median_and_grid_tnorm_at_arity_4(self, chain4):
        _assert_json_bytes(make_median_family(MedianParams("0", "3", "1", "2"), chain4, 4))
        _assert_json_bytes(make_variadic_seed("tnorm", "min", [0, 0.25, 0.5, 0.75, 1], 4))

    @pytest.mark.parametrize("default", [EPSILON, "é"], ids=["epsilon", "symbol"])
    def test_escaped_symbols_and_epsilon_values(self, default):
        chain = Chain(_ODD_SYMBOLS)
        fn = _spread(chain, chain.elements + (EPSILON,), 2, default)
        _assert_json_bytes(fn)
        assert loads_function(dumps_function(fn)) == fn
        # domain and codomain apart: a foreign codomain of escaped symbols
        foreign = _spread(Chain(_ODD_SYMBOLS[:3]), _ODD_SYMBOLS[3:] + (EPSILON,), 2, default)
        _assert_json_bytes(foreign)

    @pytest.mark.parametrize("default", [EPSILON, "s"], ids=["epsilon", "symbol"])
    def test_one_symbol_chain(self, default):
        _assert_json_bytes(_spread(Chain(("s",)), ("s",), 3, default))

    def test_cached_heads_follow_the_chain_and_the_arity(self):
        # alternate renders: a head cache keyed on too little would hand one table another's text
        fns = [
            tabulate(Chain(("0", "1")).meet, Chain(("0", "1")), 2),
            tabulate(Chain(("a", "b")).meet, Chain(("a", "b")), 2),
            tabulate(Chain(("0", "1")).meet, Chain(("0", "1")), 3),
        ]
        for _ in range(2):
            for fn in fns:
                _assert_json_bytes(fn)

    def test_save_returns_the_digest_of_the_bytes_written(self, tmp_path, min3_fn):
        path = tmp_path / "f.json"
        digest = save_function(min3_fn, path)
        assert path.read_bytes() == _json_forms(min3_fn)[0].encode("utf-8")
        assert digest == function_digest(min3_fn) == hashlib.sha256(path.read_bytes()).hexdigest()


def _read_back_tables(chain4):
    """Tables whose canonical texts must take the direct read: every operation on
    the 2-chain at arity 2, a median and a grid t-norm at arity 4, symbols JSON
    escapes or that look like the layout's own separators, ε values, a foreign
    codomain, and a chain listed against string order."""
    yield from all_operations(default_chain(2), 2)
    yield make_median_family(MedianParams("0", "3", "1", "2"), chain4, 4)
    yield make_variadic_seed("tnorm", "min", [0, 0.25, 0.5, 0.75, 1], 4)
    odd = Chain(_ODD_SYMBOLS + ("},", "\n  },", ',\n "entries": ['))
    for default in (EPSILON, "é"):
        yield _spread(odd, odd.elements + (EPSILON,), 2, default)
        yield _spread(Chain(_ODD_SYMBOLS[:3]), _ODD_SYMBOLS[3:] + (EPSILON,), 2, default)
    yield tabulate(Chain(("b", "a")).meet, Chain(("b", "a")), 3)


def _outcome(read, text):
    """The table ``read`` makes of ``text``, or the type and message of its refusal."""
    try:
        return read(text)
    except Exception as exc:  # every refusal is compared, whatever its type
        return type(exc), str(exc)


def _through_json(text):
    """The general read: ``json.loads`` (its refusal worded as the loader's), then
    ``table_from_dict``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FunctionFileError(f"invalid JSON: {exc}") from None
    return table_from_dict(doc)


def _near_canonical():
    """Texts one edit away from the canonical layout, by name."""
    fn = tabulate(Chain(("0", "1")).meet, Chain(("0", "1")), 2)
    text = dumps_function(fn)
    doc = table_to_dict(fn)
    entries = doc["entries"]
    last = text.rindex('"value": "1"')
    header = text.partition(',\n "entries": [')[0]
    tokens = ['"%s"' % entry["value"] for entry in entries]
    return {
        "crlf": text.replace("\n", "\r\n"),
        "no-final-newline": text[:-1],
        "extra-space-in-header": text.replace('"max_arity": ', '"max_arity":  '),
        "extra-space-in-entries": text.replace('"value": ', '"value":  ', 1),
        "extra-space-at-end": text + " ",
        "args-swapped": json.dumps(  # the layout kept, two entries' args traded
            {**doc, "entries": [{**entries[0], "args": ["1"]}, {**entries[1], "args": ["0"]}]
             + entries[2:]}, ensure_ascii=False, indent=1
        ) + "\n",
        # each entry's value in place of the whole entry: not JSON
        "values-without-heads": header + ',\n "entries": [' + "\n  },".join(tokens)
        + "\n  }\n ]\n}\n",
        "entries-reversed": json.dumps(
            {**doc, "entries": entries[::-1]}, ensure_ascii=False, indent=1
        ) + "\n",
        "entries-key-first": text.replace("{\n", '{\n "entries": 5,\n', 1),
        "entries-key-twice": text.replace('\n "codomain"', '\n "entries": [],\n "codomain"', 1),
        "extra-header-key": text.replace('\n "default"', '\n "extra": 1,\n "default"', 1),
        "codomain-omitted": json.dumps(
            {key: v for key, v in doc.items() if key != "codomain"}, ensure_ascii=False, indent=1
        ) + "\n",
        "duplicate-domain-symbol": text.replace('"1"\n ],', '"1",\n  "0"\n ],', 1),
        "value-outside-codomain": text[:last] + text[last:].replace('"1"', '"7"', 1),
        "max-arity-not-an-integer": text.replace('"max_arity": 2', '"max_arity": true'),
        # the entries kept in the writer's layout, the header laid out otherwise
        "header-crlf": header.replace("\n", "\r\n") + text[len(header):],
        "header-compact": json.dumps(
            {key: v for key, v in doc.items() if key != "entries"}, ensure_ascii=False
        )[:-1] + text[len(header):],
        "header-keys-reordered": text.replace('{\n "domain"', '{\n "max_arity": 2,\n "domain"', 1)
        .replace(',\n "max_arity": 2,\n "entries"', ',\n "entries"', 1),
    }


_NEAR_CANONICAL = _near_canonical()


class TestReadPaths:
    def test_canonical_and_compact_texts_read_back_the_table(self, chain4):
        for fn in _read_back_tables(chain4):
            text = dumps_function(fn)
            assert serialization._canonical_fields(text) is not None, fn
            assert loads_function(text) == fn == _through_json(text)
            compact = dumps_function_compact(fn)
            assert loads_function(compact) == fn == _through_json(compact)

    @pytest.mark.parametrize("case", _NEAR_CANONICAL)
    def test_near_canonical_text_reads_as_json_does(self, case):
        text = _NEAR_CANONICAL[case]
        assert _outcome(loads_function, text) == _outcome(_through_json, text)

    @pytest.mark.parametrize("case", _NEAR_CANONICAL)
    def test_only_the_writers_text_takes_the_direct_read(self, case):
        # read_function hashes the bytes of a text the direct read takes
        text = _NEAR_CANONICAL[case]
        assert serialization._canonical_fields(text) is None

    def test_a_huge_max_arity_is_refused_before_any_head_is_built(self):
        text = dumps_function(_spread(Chain(("0", "1")), ("0", "1"), 1, EPSILON))
        text = text.replace('"max_arity": 1', '"max_arity": 60')
        before = serialization._entry_heads.cache_info()
        with pytest.raises(FunctionFileError) as info:
            loads_function(text)
        assert str(info.value) == "entries not total at arity 2: expected 4, found 0"
        after = serialization._entry_heads.cache_info()
        assert (after.currsize, after.misses) == (before.currsize, before.misses)


def _entries_reversed(fn):
    doc = table_to_dict(fn)
    doc["entries"].reverse()
    return json.dumps(doc, ensure_ascii=False, indent=1) + "\n"


#: Each layout the loader reads, as the text it makes of a table.
_LAYOUTS = {
    "canonical": dumps_function,
    "compact": dumps_function_compact,
    "crlf": lambda fn: dumps_function(fn).replace("\n", "\r\n"),
    "lone-cr": lambda fn: dumps_function(fn).replace("\n", "\r"),
    "bom": lambda fn: "\ufeff" + dumps_function(fn),
    "hand-laid": lambda fn: json.dumps(table_to_dict(fn), ensure_ascii=False, indent=2),
    "entries-reversed": _entries_reversed,
}


class TestReadFunction:
    @pytest.mark.parametrize("layout", _LAYOUTS)
    def test_digest_is_function_digest_in_every_layout(self, tmp_path, chain4, layout):
        for fn in (
            make_median_family(MedianParams("0", "3", "1", "2"), chain4, 4),
            make_variadic_seed("tnorm", "min", [0, 0.25, 0.5, 0.75, 1], 4),
        ):
            path = tmp_path / "f.json"
            path.write_bytes(_LAYOUTS[layout](fn).encode("utf-8"))
            table, digest = read_function(path)
            assert table == load_function(path) == fn
            assert digest == function_digest(table)

    @pytest.mark.parametrize("layout", _LAYOUTS)
    def test_each_read_makes_one_canonical_attempt(self, tmp_path, chain4, layout, monkeypatch):
        attempts = []
        canonical_fields = serialization._canonical_fields

        def counted(text):
            attempts.append(text)
            return canonical_fields(text)

        monkeypatch.setattr(serialization, "_canonical_fields", counted)
        path = tmp_path / "f.json"
        fn = make_median_family(MedianParams("0", "3", "1", "2"), chain4, 4)
        path.write_bytes(_LAYOUTS[layout](fn).encode("utf-8"))
        assert read_function(path)[0] == fn
        assert len(attempts) == 1

    def test_a_byte_order_mark_is_dropped(self, tmp_path):
        text = _readme_example()
        plain, marked = tmp_path / "plain.json", tmp_path / "bom.json"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert read_function(marked) == read_function(plain)
        with pytest.raises(FunctionFileError, match="BOM"):  # a text keeps its mark
            loads_function("\ufeff" + text)

    def test_not_utf8_is_refused(self, tmp_path, min3_fn):
        path = tmp_path / "f.json"
        path.write_bytes(dumps_function(min3_fn).encode("utf-16"))
        with pytest.raises(FunctionFileError, match="^not UTF-8 text"):
            read_function(path)


class TestValidation:
    def base_doc(self):
        return {
            "domain": ["0", "1"],
            "default": "ε",
            "max_arity": 1,
            "entries": [
                {"args": ["0"], "value": "0"},
                {"args": ["1"], "value": "1"},
            ],
        }

    def test_missing_entry_names_arity(self):
        doc = self.base_doc()
        doc["max_arity"] = 2
        doc["entries"].append({"args": ["0", "0"], "value": "0"})
        with pytest.raises(FunctionFileError, match="not total at arity 2"):
            table_from_dict(doc)

    def test_duplicate_entry(self):
        doc = self.base_doc()
        doc["entries"].append({"args": ["0"], "value": "1"})
        with pytest.raises(FunctionFileError, match="duplicate"):
            table_from_dict(doc)

    @pytest.mark.parametrize(
        "entry, message",
        [
            (["1"], "entries[1] must be an object with 'args' and 'value'"),
            ({"args": ["1"]}, "entries[1] must be an object with 'args' and 'value'"),
            ({"args": "1", "value": "1"}, "entries[1].args must be a list of symbols"),
            ({"args": [1], "value": "1"}, "entries[1].args must be a list of symbols"),
            ({"args": ["1"], "value": 1}, "entries[1].value must be a symbol"),
            ({"args": ["0"], "value": "1"}, "duplicate entry for args ['0']"),
            ({"args": ["1"], "value": "1", "x": 2}, "entries[1] must hold only 'args' and 'value'"),
        ],
        ids=["not-object", "no-value", "args-not-list", "args-not-strings", "value-not-string",
             "duplicate", "extra-key"],
    )
    def test_entry_fault_names_its_index(self, entry, message):
        doc = self.base_doc()
        doc["entries"][1] = entry
        with pytest.raises(FunctionFileError) as err:
            table_from_dict(doc)
        assert str(err.value) == message
        assert err.value.field == "entries[1]"

    def test_first_faulty_entry_is_named(self):
        # the entries are walked in order, so a refusal names the first fault
        doc = self.base_doc()
        doc["entries"] += [{"args": ["0"], "value": 1}, {"args": [1], "value": "0"}]
        doc["entries"][0] = {"args": ["0"]}
        with pytest.raises(FunctionFileError) as err:
            table_from_dict(doc)
        assert str(err.value) == "entries[0] must be an object with 'args' and 'value'"
        assert err.value.field == "entries[0]"

    def test_the_entry_walk_reads_dict_subclass_items_and_the_marker(self):
        # the one walk takes any dict item, and an "ε" value decodes to the marker
        class Item(dict):
            pass

        doc = self.base_doc()
        doc["entries"][1]["value"] = "ε"
        plain = table_from_dict(doc)
        doc["entries"] = [Item(item) for item in doc["entries"]]
        subclassed = table_from_dict(doc)
        assert plain == subclassed
        assert plain.entries == {("0",): "0", ("1",): EPSILON}

    def test_unknown_symbol(self):
        doc = self.base_doc()
        doc["entries"][0]["args"] = ["7"]
        with pytest.raises(FunctionFileError, match="unknown domain symbol"):
            table_from_dict(doc)

    def test_epsilon_reserved_in_domain(self):
        doc = self.base_doc()
        doc["domain"] = ["0", "ε"]
        with pytest.raises(FunctionFileError, match="reserved"):
            table_from_dict(doc)

    def test_value_outside_codomain(self):
        doc = self.base_doc()
        doc["codomain"] = ["0"]
        with pytest.raises(FunctionFileError, match="outside the codomain"):
            table_from_dict(doc)

    def test_no_entries_and_no_codomain_is_refused_as_not_total(self):
        doc = self.base_doc()
        doc["entries"] = []
        with pytest.raises(FunctionFileError, match="not total at arity 1: expected 2, found 0"):
            table_from_dict(doc)

    def test_huge_max_arity_is_refused_at_the_first_short_arity(self):
        doc = self.base_doc()
        doc["max_arity"] = 10**9
        with pytest.raises(FunctionFileError, match="not total at arity 2: expected 4, found 0"):
            table_from_dict(doc)

    def test_boolean_max_arity(self):
        doc = self.base_doc()
        doc["max_arity"] = True
        with pytest.raises(FunctionFileError, match="max_arity") as err:
            table_from_dict(doc)
        assert err.value.field == "max_arity"

    def test_invalid_json_text(self):
        with pytest.raises(FunctionFileError, match="invalid JSON"):
            loads_function("{nope")

    @pytest.mark.parametrize(
        "domain, values, codomain",
        [
            (["1", "0"], ["0", "1"], ("1", "0")),  # chain order, not listing order
            (["0", "1"], ["10", "9"], ("9", "10")),  # numeric, not string order
            (["0", "1"], ["ε", "1"], ("1", EPSILON)),  # ε last
        ],
        ids=["chain-order", "numeric", "epsilon-last"],
    )
    def test_codomain_inference_uses_chain_order(self, domain, values, codomain):
        doc = self.base_doc()
        doc["domain"] = domain
        doc["entries"] = [{"args": [u], "value": v} for u, v in zip(domain, values)]
        assert table_from_dict(doc).codomain == codomain

    @pytest.mark.parametrize(
        "default, codomain", [("0", ("0", "1")), ("ε", ("1",))], ids=["symbol", "epsilon"]
    )
    def test_codomain_inference_includes_a_symbol_default(self, default, codomain):
        # ε never enters an inferred codomain through the default
        doc = self.base_doc()
        doc["default"] = default
        for entry in doc["entries"]:
            entry["value"] = "1"
        fn = table_from_dict(doc)
        assert fn.codomain == codomain
        assert loads_function(dumps_function(fn)) == fn

    def test_codomain_inferred_with_nan_is_the_same_under_any_hash_seed(self, tmp_path):
        # NaN compares false both ways, so a float order would follow set order
        doc = self.base_doc()
        doc["domain"] = ["0", "1", "2", "3"]
        doc["entries"] = [
            {"args": [u], "value": v} for u, v in zip(doc["domain"], ["2", "nan", "0", "1"])
        ]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        probe = (
            "import sys\n"
            "from preassoc.serialization import load_function\n"
            "print(load_function(sys.argv[1]).codomain)\n"
        )
        src = str(Path(serialization.__file__).parents[1])
        seen = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            done = subprocess.run(
                [sys.executable, "-c", probe, str(path)], env=env, capture_output=True, text=True
            )
            assert done.returncode == 0, done.stderr
            seen.add(done.stdout)
        assert seen == {"('0', '1', '2', 'nan')\n"}


def _fault(edit):
    doc = TestValidation().base_doc()
    edit(doc)
    return doc


#: Documents ``FUNCTION_SCHEMA`` refuses, with the field the loader names.
_OFF_SCHEMA = {
    "extra-field": (lambda d: d.update(extra=1), "extra"),
    "extra-entry-key": (lambda d: d["entries"][1].update(x=2), "entries[1]"),
    "null-codomain": (lambda d: d.update(codomain=None), "codomain"),
}


@pytest.mark.parametrize("fault", _OFF_SCHEMA)
def test_loader_refuses_what_the_schema_refuses(fault):
    edit, field = _OFF_SCHEMA[fault]
    doc = _fault(edit)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, FUNCTION_SCHEMA)
    with pytest.raises(FunctionFileError) as info:
        table_from_dict(doc)
    assert info.value.field == field
    with pytest.raises(FunctionFileError) as info:
        loads_function(json.dumps(doc, indent=1))
    assert info.value.field == field


def _readme_example() -> str:
    """The example function file under "## Function files" in README.md."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Function files", 1)[1]
    return section.split("```json\n", 1)[1].split("```", 1)[0]


def test_readme_example_loads_and_validates():
    text = _readme_example()
    jsonschema.validate(json.loads(text), FUNCTION_SCHEMA)
    fn = loads_function(text)
    assert fn == table_from_dict(json.loads(text))
    assert fn.entries[("0", "1")] == "0" and fn.default is EPSILON


#: One function document per table-level fault, which ``Chain`` or ``TableFn`` refuses.
_TABLE_FAULTS = {
    "arity-above-max": lambda d: d["entries"].append({"args": ["0", "0"], "value": "0"}),
    "empty-args": lambda d: d["entries"].append({"args": [], "value": "0"}),
    "unknown-symbol": lambda d: d["entries"][0].update(args=["7"]),
    "short-arity": lambda d: d.update(max_arity=2),
    "value-outside-codomain": lambda d: d.update(codomain=["0"]),
    "default-outside-codomain": lambda d: d.update(default="5", codomain=["0", "1"]),
    "duplicate-codomain": lambda d: d.update(codomain=["0", "1", "0"]),
    "empty-codomain": lambda d: d.update(codomain=[]),
    "duplicate-domain": lambda d: d.update(domain=["0", "1", "0"]),
    "empty-domain": lambda d: d.update(domain=[]),
}


@pytest.mark.parametrize("fault", _TABLE_FAULTS)
class TestTableFaults:
    def test_loader_raises_function_file_error(self, fault):
        with pytest.raises(FunctionFileError) as info:
            table_from_dict(_fault(_TABLE_FAULTS[fault]))
        assert info.value.field is None

    def test_check_exits_two_with_an_error_line(self, fault, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_fault(_TABLE_FAULTS[fault])), encoding="utf-8")
        code = main(["check", str(path), "--properties", "standard"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err


def _unary_fn(domain, values):
    chain = Chain(domain)
    entries = {(u,): v for u, v in zip(domain, values)}
    return TableFn(chain, tuple(dict.fromkeys(values)), 1, EPSILON, entries)


#: Tables whose symbols the loader would not read back, with the field at fault.
_UNLOADABLE = pytest.mark.parametrize(
    "make, field",
    [
        (lambda: tabulate(min, Chain((0, 1)), 2), "domain"),
        (lambda: _unary_fn(("0", "1"), (1, 2)), "codomain"),
        (lambda: _unary_fn(("0", "ε"), ("0", "0")), "domain"),
        (lambda: _unary_fn(("0", "1"), ("ε", "1")), "codomain"),
    ],
    ids=["int-domain", "int-codomain", "eps-token-domain", "eps-token-codomain"],
)


class TestSave:
    @_UNLOADABLE
    def test_unloadable_symbols_refused_before_writing(self, tmp_path, make, field):
        path = tmp_path / "f.json"
        with pytest.raises(FunctionFileError) as info:
            save_function(make(), path)
        assert info.value.field == field
        assert not path.exists()

    @_UNLOADABLE
    @pytest.mark.parametrize(
        "serialize", [dumps_function, dumps_function_compact, function_digest]
    )
    def test_unloadable_symbols_refused_by_every_serializer(self, serialize, make, field):
        with pytest.raises(FunctionFileError) as info:
            serialize(make())
        assert info.value.field == field


class TestReports:
    def test_report_schema(self, remark_b):
        verdicts = [
            check_standard(remark_b),
            check_preassociative(remark_b, "P1"),
        ]
        report = build_report(function_digest(remark_b), verdicts, __version__)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["schema_version"] == 1
        assert not report["results"][0]["holds"]
        assert report["results"][0]["witness"]["parts"]["x"] == ["a"]

    def test_digest_matches_input(self, tmp_path, min3_fn):
        path = tmp_path / "f.json"
        save_function(min3_fn, path)
        report = build_report(read_function(path)[1], [check_standard(min3_fn)], __version__)
        assert report["function_digest"] == function_digest(min3_fn)

    def test_every_check_report_is_json_dumps_text(self):
        for fn in all_operations(default_chain(2), 2):
            names = [n for n in PROPERTY_NAMES
                     if fn.default is EPSILON or n not in EPSILON_DEFAULT_ONLY]
            report = build_report(function_digest(fn), run_checks(fn, names).values(), __version__)
            assert dumps_report(report) == json.dumps(report, ensure_ascii=False, indent=1) + "\n"

    @pytest.mark.parametrize(
        "value",
        [{}, [], {"a": []}, [[]], True, 1, None, 0.5, "ε\x01", {"x": ({}, [1, -0.0, False])}],
    )
    def test_edge_shapes_are_json_dumps_text(self, value):
        assert dumps_report(value) == json.dumps(value, ensure_ascii=False, indent=1) + "\n"

"""End-to-end command-line behavior and exit-code contract."""

import hashlib
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import jsonschema
import pytest

from preassoc.checks import PROPERTY_NAMES
from preassoc import cli
from preassoc.cli import main
from preassoc.core import EPSILON, TableFn
from preassoc.errors import InternalVerificationError
from preassoc.families import MedianParams, make_median_family, tabulate
from preassoc.serialization import (
    FUNCTION_SCHEMA,
    REPORT_SCHEMA,
    dumps_function,
    function_digest,
    load_function,
    save_function,
)

#: Filters whose enumeration stays within default-ε standard candidates.
_OPERATION_ONLY_FILTERS = frozenset((
    "epsilon_standard",
    "associative_A1",
    "associative_A2",
    "associative_A3",
    "unarily_idempotent",
    "unarily_range_idempotent",
    "range_idempotent",
    "idempotent",
))


def _recording(checker, record):
    """``checker``, appending each table it is called on and whether the law holds."""
    def run(fn):
        verdict = checker(fn)
        record.append((fn, verdict.holds))
        return verdict
    return run


def _slots(chain, max_arity):
    return [t for n in range(1, max_arity + 1) for t in product(chain.elements, repeat=n)]


@pytest.fixture
def min_file(tmp_path, chain3):
    fn = tabulate(chain3.meet, chain3, 3)
    path = tmp_path / "min.json"
    save_function(fn, path)
    return path


@pytest.fixture
def remark_b_file(tmp_path, remark_b):
    path = tmp_path / "rb.json"
    save_function(remark_b, path)
    return path


@pytest.fixture
def length_file(tmp_path, length_fn):
    path = tmp_path / "len.json"
    save_function(length_fn, path)
    return path


class TestCheck:
    def test_known_good_exits_zero(self, min_file, capsys):
        code = main(["check", str(min_file), "--properties", "assoc,preassoc"])
        out = capsys.readouterr().out
        assert code == 0
        assert "associative_A1" in out and "holds" in out

    def test_failing_property_exits_one_and_prints_witness(self, remark_b_file, capsys):
        code = main(["check", str(remark_b_file), "--properties", "standard,preassoc"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILS" in out and "witness" in out

    def test_invalid_file_exits_two(self, tmp_path, capsys):
        doc = {
            "domain": ["0", "1"],
            "default": "ε",
            "max_arity": 2,
            "entries": [
                {"args": ["0"], "value": "0"},
                {"args": ["1"], "value": "1"},
                {"args": ["0", "0"], "value": "0"},
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["check", str(path), "--properties", "standard"])
        err = capsys.readouterr().err
        assert code == 2
        assert "entries not total at arity 2" in err

    def test_file_not_utf8_exits_two(self, tmp_path, min_file, capsys):
        # a UTF-16 byte-order mark: an input error, not a failing property (exit 1)
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + min_file.read_bytes())
        code = main(["check", str(path), "--properties", "assoc"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: not UTF-8 text") and "Traceback" not in err

    def test_json_report_validates(self, min_file, capsys):
        code = main(["check", str(min_file), "--properties", "assoc", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        jsonschema.validate(json.loads(out), REPORT_SCHEMA)

    def test_unknown_property_exits_two(self, min_file, capsys):
        with pytest.raises(SystemExit) as err:
            main(["check", str(min_file), "--properties", "nope"])
        assert err.value.code == 2

    def test_max_arity_truncation(self, min_file, capsys):
        code = main(["check", str(min_file), "--properties", "assoc", "--max-arity", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "associative_A1" in out

    @pytest.mark.parametrize("arity", ["0", "-1"])
    def test_max_arity_below_one_exits_two(self, min_file, arity, capsys):
        with pytest.raises(SystemExit) as err:
            main(["check", str(min_file), "--properties", "assoc", "--max-arity", arity])
        assert err.value.code == 2
        assert "--max-arity must be at least 1" in capsys.readouterr().err

    def test_form_undefined_for_the_default_exits_two(self, remark_b_file, capsys):
        code = main(["check", str(remark_b_file), "--properties", "standard,associative_A2"])
        assert code == 2
        assert "associative_A2: defined only for operations with default ε" in (
            capsys.readouterr().err
        )

    def test_checker_bug_propagates(self, min_file, monkeypatch):
        # a ValueError from library code is a bug, not an input error (exit 2)
        def broken(fn):
            raise ValueError("checker bug")

        monkeypatch.setitem(cli.CHECKERS, "symmetric", broken)
        with pytest.raises(ValueError, match="checker bug"):
            main(["check", str(min_file), "--properties", "symmetric"])

    def test_factorize_verification_bug_propagates(self, min_file, tmp_path, monkeypatch):
        # a failed re-verification of a fresh factorization is a bug, not exit 2
        monkeypatch.setattr("preassoc.factorize.is_quasi_inverse", lambda f1, g: (False, None))
        with pytest.raises(InternalVerificationError, match="not a quasi-inverse"):
            main(["factorize", str(min_file), "--out-h", str(tmp_path / "H.json")])


class TestFactorize:
    def test_relabeled_min_round_trips_byte_for_byte(self, tmp_path, chain3, min_file, capsys):
        mn = load_function(min_file)
        sigma = {"0": "1", "1": "2", "2": "0"}
        relabeled = TableFn(
            chain3, chain3.elements, 3, EPSILON,
            {t: sigma[v] for t, v in mn.entries.items()},
        )
        src = tmp_path / "relabeled.json"
        save_function(relabeled, src)
        out_h = tmp_path / "H.json"
        out_rep = tmp_path / "rep.json"
        code = main([
            "factorize", str(src), "--out-h", str(out_h), "--out-report", str(out_rep),
        ])
        assert code == 0
        assert out_h.read_bytes() == min_file.read_bytes()
        report = json.loads(out_rep.read_text(encoding="utf-8"))
        assert report["f"] == sigma
        assert set(report["g"]) == {"0", "1", "2"}

    def test_h_digest_is_the_sha256_of_the_written_file(self, tmp_path, chain3, min_file, capsys):
        # a relabeled min, so that H (the min itself) differs from the input
        sigma = {"0": "1", "1": "2", "2": "0"}
        entries = {t: sigma[v] for t, v in load_function(min_file).entries.items()}
        src = tmp_path / "relabeled.json"
        save_function(TableFn(chain3, chain3.elements, 3, EPSILON, entries), src)
        out_h = tmp_path / "H.json"
        assert main(["factorize", str(src), "--out-h", str(out_h), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["h_digest"] != report["function_digest"]
        assert report["h_digest"] == function_digest(load_function(out_h))
        assert report["h_digest"] == hashlib.sha256(out_h.read_bytes()).hexdigest()

    def test_file_not_utf8_exits_two(self, tmp_path, min_file, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(min_file.read_text(encoding="utf-8").encode("utf-16"))
        out_h = tmp_path / "H.json"
        code = main(["factorize", str(path), "--out-h", str(out_h)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: not UTF-8 text")
        assert not out_h.exists()

    def test_precondition_failure_exits_one_with_report(self, tmp_path, length_file, capsys):
        out_h = tmp_path / "H.json"
        out_rep = tmp_path / "rep.json"
        code = main([
            "factorize", str(length_file), "--out-h", str(out_h), "--out-report", str(out_rep),
        ])
        assert code == 1
        report = json.loads(out_rep.read_text(encoding="utf-8"))
        assert (
            report["failed_precondition"]["property"]
            == "unarily_quasi_range_idempotent"
        )
        assert not out_h.exists()

    @pytest.mark.parametrize("quiet", [False, True])
    def test_json_prints_the_written_report(self, tmp_path, min_file, length_file, capsys, quiet):
        for src, code, lead in ((min_file, 0, ""), (length_file, 1, "precondition failed: ")):
            out_rep = tmp_path / "rep.json"
            argv = ["factorize", str(src), "--out-h", str(tmp_path / "H.json"),
                    "--out-report", str(out_rep), "--json"]
            assert main(argv + ["--quiet"] * quiet) == code
            printed = capsys.readouterr().out
            report = out_rep.read_text(encoding="utf-8")
            if lead and not quiet:
                head, printed = printed.split("\n", 1)
                assert head == lead + "unarily_quasi_range_idempotent"
            assert printed == report

    def test_associative_input_is_fixed_point(self, tmp_path, min_file):
        out_h = tmp_path / "H.json"
        code = main(["factorize", str(min_file), "--out-h", str(out_h)])
        assert code == 0
        assert out_h.read_bytes() == min_file.read_bytes()

    def test_epsilon_pin_reads_the_marker(self, tmp_path, chain2):
        # standard with default "0", every nonempty tuple into ε: g has the key ε
        entries = {t: EPSILON for t in chain2.tuples_up_to(2) if t}
        src = tmp_path / "eps.json"
        save_function(TableFn(chain2, ("0", "1", EPSILON), 2, "0", entries), src)
        out_h = tmp_path / "H.json"
        out_rep = tmp_path / "rep.json"
        code = main([
            "factorize", str(src), "--out-h", str(out_h), "--out-report", str(out_rep),
            "--pins", "ε:1",
        ])
        assert code == 0
        assert json.loads(out_rep.read_text(encoding="utf-8"))["g"] == {"ε": "1"}
        assert set(load_function(out_h).entries.values()) == {"1"}


class TestGenerate:
    def test_median_then_check_assoc(self, tmp_path, capsys):
        out = tmp_path / "med.json"
        code = main([
            "generate", "--family", "median", "--chain", "0,1,2,3",
            "--a", "0", "--b", "3", "--c", "1", "--d", "1",
            "--max-arity", "3", "--out", str(out),
        ])
        assert code == 0
        jsonschema.validate(json.loads(out.read_text(encoding="utf-8")), FUNCTION_SCHEMA)
        assert main(["check", str(out), "--properties", "assoc"]) == 0

    def test_lukasiewicz_catalog(self, tmp_path):
        out = tmp_path / "luk.json"
        code = main([
            "generate", "--family", "tnorm", "--name", "lukasiewicz",
            "--grid", "0,0.25,0.5,0.75,1", "--max-arity", "3", "--out", str(out),
        ])
        assert code == 0
        fn = load_function(out)
        assert fn.eval(("0.75", "0.75", "0.75")) == "0.25"
        assert main(["check", str(out), "--properties", "assoc,symmetric"]) == 0

    def test_invalid_median_params_exit_two(self, tmp_path, capsys):
        out = tmp_path / "bad.json"
        code = main([
            "generate", "--family", "median", "--chain", "0,1,2,3",
            "--a", "2", "--b", "1", "--c", "1", "--d", "1",
            "--max-arity", "2", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--family", "tnorm", "--name", "nope", "--grid", "0,0.5,1"],
        ["--family", "uninorm", "--name", "idempotent-min", "--e", "half", "--grid", "0,0.5,1"],
        ["--family", "ling", "--a", "zero", "--b", "1", "--grid", "0,0.5,1"],
        ["--family", "median", "--chain", "0,1,1", "--a", "0", "--b", "1", "--c", "0", "--d", "1"],
    ])
    def test_invalid_generate_parameters_exit_two(self, tmp_path, args, capsys):
        out = tmp_path / "bad.json"
        assert main(["generate", *args, "--max-arity", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("family", [
        ["--family", "quasi-sum", "--phi", "id", "--psi", "id"],
        ["--family", "ling", "--a", "0", "--b", "1", "--phi", "id", "--psi", "id"],
        ["--family", "tnorm", "--name", "min"],
    ])
    def test_grid_of_separators_only_exits_two(self, tmp_path, family, capsys):
        out = tmp_path / "bad.json"
        with pytest.raises(SystemExit) as err:
            main(["generate", *family, "--grid", " , ", "--max-arity", "2", "--out", str(out)])
        assert err.value.code == 2
        assert "--grid must list at least one number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option,args", [
        ("--e", ["--family", "uninorm", "--name", "idempotent-min", "--e", "x"]),
        ("--a", ["--family", "ling", "--a", "x", "--b", "1"]),
        ("--b", ["--family", "ling", "--a", "0", "--b", "x"]),
    ])
    def test_non_numeric_parameter_names_its_option(self, tmp_path, option, args, capsys):
        out = tmp_path / "bad.json"
        code = main(["generate", *args, "--grid", "0,0.5,1", "--max-arity", "2", "--out", str(out)])
        assert code == 2
        assert f"error: {option} must be a number, got 'x'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid,generators,message", [
        ("0,1", ["--phi", "ln", "--psi", "exp"], "--phi ln cannot be evaluated at 0"),
        ("0,1000", ["--phi", "exp", "--psi", "ln"], "--phi exp cannot be evaluated at 718.75"),
    ])
    def test_generator_failure_names_generator_and_point(
        self, tmp_path, grid, generators, message, capsys
    ):
        out = tmp_path / "bad.json"
        code = main(["generate", "--family", "quasi-sum", *generators, "--grid", grid,
                     "--max-arity", "2", "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option,args", [
        ("--grid", ["--family", "median", "--chain", "0,1", "--a", "0", "--b", "1",
                    "--c", "0", "--d", "1", "--grid", "0,1"]),
        ("--e", ["--family", "tnorm", "--name", "min", "--grid", "0,1", "--e", "0.5"]),
        ("--phi", ["--family", "tconorm", "--name", "max", "--grid", "0,1", "--phi", "exp"]),
        ("--chain", ["--family", "uninorm", "--name", "idempotent-min", "--grid", "0,0.5,1",
                     "--e", "0.5", "--chain", "0,1"]),
        ("--name", ["--family", "quasi-sum", "--grid", "0,1", "--name", "min"]),
        ("--c", ["--family", "ling", "--phi", "one-minus", "--psi", "one-minus",
                 "--a", "0", "--b", "1", "--grid", "0,1", "--c", "0"]),
    ])
    def test_option_the_family_does_not_read_is_a_usage_error(
        self, tmp_path, option, args, capsys
    ):
        out = tmp_path / "fn.json"
        with pytest.raises(SystemExit) as err:
            main(["generate", *args, "--max-arity", "2", "--out", str(out)])
        assert err.value.code == 2
        assert f"--family {args[1]} does not read {option}" in capsys.readouterr().err
        assert not out.exists()

    #: every option each family reads, set to a value it accepts
    COMPLETE = {
        "median": {"chain": "0,1,2", "a": "0", "b": "2", "c": "1", "d": "1"},
        "tnorm": {"grid": "0,0.5,1", "name": "min"},
        "tconorm": {"grid": "0,0.5,1", "name": "max"},
        "uninorm": {"grid": "0,0.5,1", "name": "idempotent-min", "e": "0.5"},
        "quasi-sum": {"grid": "0,1", "phi": "id", "psi": "id"},
        "ling": {"grid": "0,1", "phi": "one-minus", "psi": "one-minus", "a": "0", "b": "1"},
    }

    @pytest.mark.parametrize("family,option", [
        (family, option)
        for family, options in cli.FAMILY_OPTIONS.items()
        for option in options
        if option not in ("phi", "psi")
    ])
    def test_leaving_out_a_needed_option_is_a_usage_error(
        self, tmp_path, family, option, capsys
    ):
        given = self.COMPLETE[family]
        assert tuple(given) == cli.FAMILY_OPTIONS[family]
        out = tmp_path / "fn.json"
        argv = ["generate", "--family", family, "--max-arity", "2", "--out", str(out)]
        assert main(argv + [f"--{k}={v}" for k, v in given.items()]) == 0
        out.unlink()
        with pytest.raises(SystemExit) as err:
            main(argv + [f"--{k}={v}" for k, v in given.items() if k != option])
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert err_text.startswith("usage: preassoc generate ")
        assert f"preassoc generate: error: --family {family} needs --{option}\n" in err_text
        assert not out.exists()

    @pytest.mark.parametrize("family,grid,message", [
        ("quasi-sum", "nan,1", "interval end nan is not a number"),
        ("quasi-sum", "0,nan,1", "grid point nan is not a number"),
        ("tnorm", "0,nan,1", "grid point nan is not a number"),
    ])
    def test_nan_grid_point_is_named(self, tmp_path, family, grid, message, capsys):
        out = tmp_path / "nan.json"
        name = ["--name", "min"] if family == "tnorm" else []
        code = main(["generate", "--family", family, *name, f"--grid={grid}",
                     "--max-arity", "2", "--out", str(out)])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_value_is_named(self, tmp_path, capsys):
        # phi(-inf) + phi(inf) is NaN: an input error, not a traceback
        out = tmp_path / "nan.json"
        code = main(["generate", "--family", "quasi-sum", "--grid=-inf,inf",
                     "--max-arity", "2", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: value at (-inf,inf) is not a number\n"
        assert not out.exists()

    def test_quasi_sum_and_ling(self, tmp_path):
        out = tmp_path / "qs.json"
        code = main([
            "generate", "--family", "quasi-sum", "--phi", "ln", "--psi", "exp",
            "--grid", "0.25,0.5,1", "--max-arity", "2", "--out", str(out),
        ])
        assert code == 0
        fn = load_function(out)
        assert fn.eval(("0.5", "0.5")) == "0.25"

        out2 = tmp_path / "ling.json"
        code = main([
            "generate", "--family", "ling", "--phi", "one-minus", "--psi", "one-minus",
            "--a", "0", "--b", "1", "--grid", "0,0.25,0.5,0.75,1",
            "--max-arity", "2", "--out", str(out2),
        ])
        assert code == 0
        fn2 = load_function(out2)
        assert fn2.eval(("0.75", "0.75")) == "0.5"

    def test_uninorm_generation(self, tmp_path):
        out = tmp_path / "uni.json"
        code = main([
            "generate", "--family", "uninorm", "--name", "idempotent-min",
            "--e", "0.5", "--grid", "0,0.25,0.5,0.75,1", "--max-arity", "2",
            "--out", str(out),
        ])
        assert code == 0
        assert main(["check", str(out), "--properties", "assoc,symmetric"]) == 0

    def test_uninorm_neutral_within_tolerance_writes_the_same_file(self, tmp_path):
        paths = []
        for e in ("0.5", "0.5000000000001"):
            out = tmp_path / f"uni-{e}.json"
            code = main([
                "generate", "--family", "uninorm", "--name", "idempotent-min",
                "--grid", "0,0.5,1", "--e", e, "--max-arity", "2", "--out", str(out),
            ])
            assert code == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestEnumerate:
    def test_binary_associative_count(self, tmp_path, capsys):
        out = tmp_path / "bins.jsonl"
        code = main([
            "enumerate", "--chain-size", "2", "--max-arity", "2",
            "--filter", "associative_binary", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 8  # golden value from the triple-loop oracle
        assert "scanned 16" in capsys.readouterr().err
        for line in lines:
            jsonschema.validate(json.loads(line), FUNCTION_SCHEMA)

    def test_assoc_at_arity_3_matches_the_brute_loop(self, monkeypatch, capsys):
        from preassoc.checks import check_associative
        from preassoc.enumeration import all_epsilon_standard, default_chain
        from preassoc.serialization import dumps_function_compact

        expected = "".join(
            dumps_function_compact(fn) + "\n"
            for fn in all_epsilon_standard(default_chain(2), 3)
            if check_associative(fn, "A1").holds
        )
        calls = []
        a1 = cli.CHECKERS["associative_A1"]
        monkeypatch.setitem(cli.CHECKERS, "associative_A1", lambda fn: calls.append(fn) or a1(fn))
        code = main(["enumerate", "--chain-size", "2", "--max-arity", "3", "--filter", "assoc"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == expected
        assert "scanned 16384 candidates; emitted 10" in captured.err
        assert len(calls) == 10  # A1 runs only on the associative extensions

    def test_assoc_with_any_default_filters_matches_the_brute_loop(self, capsys):
        # preassoc widens the universe to every default; its A1 tables hold
        # only chain values, so the reference scans 3 defaults x 2^14 tables
        from preassoc.enumeration import default_chain
        from preassoc.serialization import dumps_function_compact

        chain = default_chain(2)
        filters = ["associative_A1", "preassociative_P1"]
        codomain = chain.elements + (EPSILON,)
        expected = "".join(
            dumps_function_compact(fn) + "\n"
            for d in codomain
            for values in product(chain.elements, repeat=14)
            for fn in [TableFn(chain, codomain, 3, d, dict(zip(_slots(chain, 3), values)))]
            if cli._passes_filters(fn, filters)
        )
        code = main(["enumerate", "--chain-size", "2", "--max-arity", "3",
                     "--filter", "assoc,preassoc", "--force"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == expected
        assert "scanned 14348907 candidates; emitted 16" in captured.err

    def test_assoc_with_preassoc_at_arity_3_takes_the_associative_extensions(
        self, monkeypatch, capsys
    ):
        # the 10 extensions with default ε and the 3 each that 0 and 1 are
        # neutral for, not 3 defaults x 10 extensions or the 159 P1 tables
        calls = []
        a1 = cli.CHECKERS["associative_A1"]
        monkeypatch.setitem(cli.CHECKERS, "associative_A1", lambda fn: calls.append(fn) or a1(fn))
        code = main(["enumerate", "--chain-size", "2", "--max-arity", "3",
                     "--filter", "assoc,preassoc", "--force"])
        assert code == 0
        assert "scanned 14348907 candidates; emitted 16" in capsys.readouterr().err
        assert len(calls) == 16

    #: sha256 of ``enumerate``'s stdout when every default was paired with every extension
    ANY_DEFAULT_ASSOC_STDOUT = {
        ("assoc,symmetric", 2, 3): "b0a61a7436e02f4b7625f241f276c054e30652b1d8cb25d5129556057f5d6f16",
        ("assoc,symmetric", 2, 4): "263fb438b45d711fc17d55a49c628ca8a45603f027f5c62709f635e016363e13",
        ("assoc,symmetric", 3, 3): "80d0c38ca8d4f2b21394d19815e8388bf1a97c7b12a8df652451f994bf64482d",
        ("symmetric,assoc", 2, 3): "b0a61a7436e02f4b7625f241f276c054e30652b1d8cb25d5129556057f5d6f16",
        ("symmetric,assoc", 2, 4): "263fb438b45d711fc17d55a49c628ca8a45603f027f5c62709f635e016363e13",
        ("symmetric,assoc", 3, 3): "80d0c38ca8d4f2b21394d19815e8388bf1a97c7b12a8df652451f994bf64482d",
        ("assoc,nondecreasing,uqri", 2, 3): "acaf863a3e3a60a4cfbb2bb1121a834362155b35988dca27d3ec924bfab31e4e",
        ("assoc,nondecreasing,uqri", 2, 4): "487ce7233c17fbac013494b629f4989859cb13273f13e58c318daac970fb8cdb",
        ("assoc,nondecreasing,uqri", 3, 3): "4435d783228308e9506c3c8c704afa94c84d95506a40ccc2346e3b65e5627534",
    }

    @pytest.mark.parametrize("filters,size,max_arity", list(ANY_DEFAULT_ASSOC_STDOUT))
    def test_assoc_with_any_default_pairs_each_symbol_default_where_it_is_neutral(
        self, filters, size, max_arity, capsys
    ):
        # the reference pairs every default with every extension and lets the
        # filters refuse; a symbol default is now paired only where it is neutral
        from preassoc.enumeration import all_associative_extensions, default_chain
        from preassoc.serialization import dumps_function_compact

        chain = default_chain(size)
        names = cli._resolve_properties(filters.split(","), None)
        codomain = chain.elements + (EPSILON,)
        rows = [ext._row[1:] for ext in all_associative_extensions(chain, max_arity)]
        every_pair = [TableFn._of_row(chain, codomain, max_arity, (d, *row))
                      for d in codomain for row in rows]
        expected = "".join(
            dumps_function_compact(fn) + "\n" for fn in every_pair if cli._passes_filters(fn, names)
        )
        code = main(["enumerate", "--chain-size", str(size), "--max-arity", str(max_arity),
                     "--filter", filters, "--force"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == expected
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == self.ANY_DEFAULT_ASSOC_STDOUT[filters, size, max_arity]
        built = list(cli._candidates(chain, max_arity, names, False))
        assert [fn for fn in every_pair if cli.CHECKERS["associative_A1"](fn).holds] == built
        if (size, max_arity) == (2, 3):
            assert (len(every_pair), len(built)) == (30, 16)

    def test_preassoc_walks_only_the_p1_tables(self, monkeypatch, capsys):
        from preassoc.enumeration import all_operations, default_chain
        from preassoc.serialization import dumps_function_compact

        names = ["preassociative_P1", "unarily_quasi_range_idempotent"]
        expected = "".join(
            dumps_function_compact(fn) + "\n"
            for fn in all_operations(default_chain(2), 2)
            if cli._passes_filters(fn, names)
        )
        calls = {name: [] for name in names}
        for name in names:
            monkeypatch.setitem(cli.CHECKERS, name, _recording(cli.CHECKERS[name], calls[name]))
        code = main(["enumerate", "--chain-size", "2", "--max-arity", "2",
                     "--filter", "preassoc,uqri"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == expected
        assert "scanned 2187 candidates; emitted 129" in captured.err
        # the walk yields the 543 P1 tables among the 2 187 and UQRI sees each;
        # P1 runs last, re-checking only the 129 that UQRI keeps
        assert len(calls["unarily_quasi_range_idempotent"]) == 543
        assert len(calls["preassociative_P1"]) == 129

    @pytest.mark.parametrize(
        "arity, walked, other, orders",
        [(2, "preassociative_P1", "unarily_quasi_range_idempotent", ("preassoc,uqri", "uqri,preassoc")),
         (3, "associative_A1", "symmetric", ("assoc,symmetric", "symmetric,assoc"))],
        ids=["preassoc-uqri", "assoc-symmetric"],
    )
    def test_filter_order_cannot_change_the_output(
        self, arity, walked, other, orders, monkeypatch, capsys
    ):
        # the filters are an AND of pure checkers, so the bytes cannot depend on
        # their order; the walked law runs last, once on each table the other
        # filter keeps, and emits exactly the ones it holds on
        checkers = {name: cli.CHECKERS[name] for name in (walked, other)}
        runs = []
        for filters in orders:
            seen = {name: [] for name in checkers}
            for name, checker in checkers.items():
                monkeypatch.setitem(cli.CHECKERS, name, _recording(checker, seen[name]))
            code = main(["enumerate", "--chain-size", "2", "--max-arity", str(arity),
                         "--filter", filters, "--force"])
            captured = capsys.readouterr()
            assert code == 0
            emitted = int(captured.err.rsplit("emitted ", 1)[1])
            assert [fn for fn, _ in seen[walked]] == [fn for fn, holds in seen[other] if holds]
            assert sum(holds for _, holds in seen[walked]) == emitted > 0
            runs.append((captured.out, emitted))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "filters", ["preassoc", "preassoc,assoc", "preassoc,symmetric,idempotent"]
    )
    def test_preassoc_filters_match_the_brute_loop(self, filters, capsys):
        from preassoc.enumeration import all_operations, default_chain
        from preassoc.serialization import dumps_function_compact

        names = cli._resolve_properties(filters.split(","), None)
        expected = "".join(
            dumps_function_compact(fn) + "\n"
            for fn in all_operations(default_chain(2), 2)
            if cli._passes_filters(fn, names)
        )
        code = main(["enumerate", "--chain-size", "2", "--max-arity", "2", "--filter", filters])
        assert code == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("max_arity", [3, 4])
    @pytest.mark.parametrize("filters", ["assoc,preassoc", "assoc,symmetric", "assoc,uqri"])
    def test_assoc_with_any_default_filters_on_the_1_chain(self, max_arity, filters, capsys):
        # the whole universe, ε entries included, filtered by every checker
        from preassoc.enumeration import all_operations, default_chain
        from preassoc.serialization import dumps_function_compact

        names = cli._resolve_properties(filters.split(","), None)
        expected = "".join(
            dumps_function_compact(fn) + "\n"
            for fn in all_operations(default_chain(1), max_arity)
            if cli._passes_filters(fn, names)
        )
        code = main(["enumerate", "--chain-size", "1", "--max-arity", str(max_arity),
                     "--filter", filters])
        assert code == 0
        assert capsys.readouterr().out == expected

    def test_assoc_below_arity_3_scans_the_universe(self, capsys):
        # A1 at arity 2 does not see (xy)z = x(yz): 18 tables, not the 10 extensions
        code = main(["enumerate", "--chain-size", "2", "--max-arity", "2", "--filter", "assoc"])
        captured = capsys.readouterr()
        assert code == 0
        assert len(captured.out.splitlines()) == 18
        assert "scanned 64 candidates; emitted 18" in captured.err

    def test_associative_binary_on_the_4_chain(self, capsys):
        argv = ["enumerate", "--chain-size", "4", "--max-arity", "2",
                "--filter", "associative_binary"]
        assert main(argv) == 2  # 4^16 candidates: the guard still holds
        assert "--force" in capsys.readouterr().err
        assert main(argv + ["--force"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 3492
        assert "scanned 4294967296 candidates; emitted 3492" in captured.err

    def test_scanned_count_past_4000_digits_is_a_power(self):
        assert cli._count_text(2, 14) == "16384"
        assert cli._count_text(1, 10**6) == "1"
        assert cli._count_text(2, 16382) == "2^16382"

    def test_associative_filter_implies_equivalent_properties(self, tmp_path):
        out = tmp_path / "assoc.jsonl"
        code = main([
            "enumerate", "--chain-size", "2", "--max-arity", "3",
            "--filter", "associative", "--out", str(out),
        ])
        assert code == 0
        from preassoc.checks import (
            check_preassociative,
            check_unarily_range_idempotent,
        )
        from preassoc.serialization import loads_function

        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            fn = loads_function(line)
            assert check_preassociative(fn, "P1").holds
            assert check_unarily_range_idempotent(fn).holds

    def test_enumeration_is_deterministic_and_duplicate_free(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        argv = ["enumerate", "--chain-size", "2", "--max-arity", "2", "--filter", "associative"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text(encoding="utf-8").splitlines()
        assert len(set(lines)) == len(lines)

    def test_chain_size_below_one_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["enumerate", "--chain-size", "0", "--max-arity", "2"])
        assert err.value.code == 2
        assert "--chain-size must be at least 1" in capsys.readouterr().err

    def test_singleton_chain(self, capsys):
        code = main(["enumerate", "--chain-size", "1", "--max-arity", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert len(captured.out.splitlines()) == 1

    def test_guard_and_force(self, tmp_path, capsys):
        code = main(["enumerate", "--chain-size", "4", "--max-arity", "2"])
        assert code == 2
        assert "--force" in capsys.readouterr().err
        out = tmp_path / "forced.jsonl"
        code = main([
            "enumerate", "--chain-size", "4", "--max-arity", "1",
            "--filter", "idempotent", "--force", "--out", str(out),
        ])
        assert code == 0

    def test_guard_bounds_the_scanned_universe(self, capsys):
        # 2^(2+4+8+16) = 2^30 default-ε candidates, within the old 3/4 limits
        code = main(["enumerate", "--chain-size", "2", "--max-arity", "4"])
        assert code == 2
        assert "--force" in capsys.readouterr().err

    def test_filters_skip_unmet_preconditions_and_propagate_bugs(self, monkeypatch, capsys):
        # A2 is refused for a default other than ε, which the widened
        # universe holds: such candidates are filtered out, not errors
        code = main(["enumerate", "--chain-size", "1", "--max-arity", "1",
                     "--filter", "symmetric,associative_A2"])
        assert code == 0
        assert "scanned 4 candidates; emitted 1" in capsys.readouterr().err

        def broken(fn):
            raise ValueError("checker bug")

        monkeypatch.setitem(cli.CHECKERS, "symmetric", broken)
        with pytest.raises(ValueError, match="checker bug"):
            cli._passes_filters(tabulate(min, ("0", "1"), 2), ["symmetric"])

    @pytest.mark.parametrize("prop", PROPERTY_NAMES)
    def test_general_filter_widens_universe(self, prop, capsys):
        # a property checkable beyond default-ε operations widens the universe
        # to every default, so more candidates are scanned
        code = main(["enumerate", "--chain-size", "1", "--max-arity", "1",
                     "--filter", prop])
        captured = capsys.readouterr()
        assert code == 0
        if prop in _OPERATION_ONLY_FILTERS:
            assert "scanned 1 " in captured.err  # the one default-ε table
        else:
            assert "scanned 4 " in captured.err  # (1+ε)^1 entries x (1+ε) defaults


def _report(argv, tmp_path, capsys) -> dict:
    """The report ``check --json`` prints or ``factorize`` writes, whatever the exit code."""
    if argv[0] == "check":
        assert main(argv + ["--properties", ",".join(PROPERTY_NAMES), "--json"]) in (0, 1)
        return json.loads(capsys.readouterr().out)
    out_rep = tmp_path / "rep.json"
    assert main(argv + ["--out-h", str(tmp_path / "H.json"), "--out-report", str(out_rep)]) in (0, 1)
    return json.loads(out_rep.read_text(encoding="utf-8"))


class TestReportDigest:
    """The report's ``function_digest`` is that of the table the command read."""

    @pytest.fixture
    def median_file(self, tmp_path, chain4):
        path = tmp_path / "median.json"
        save_function(make_median_family(MedianParams("0", "3", "1", "2"), chain4, 4), path)
        return path

    @pytest.mark.parametrize("command", ["check", "factorize"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["canonical", "crlf"])
    def test_digest_of_the_file_read(self, tmp_path, median_file, command, newline, capsys):
        path = tmp_path / "in.json"
        path.write_bytes(median_file.read_bytes().replace(b"\n", newline.encode()))
        report = _report([command, str(path)], tmp_path, capsys)
        assert report["function_digest"] == function_digest(load_function(path))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("command", ["check", "factorize"])
    def test_digest_of_the_truncated_table(self, tmp_path, median_file, command, n, capsys):
        report = _report([command, str(median_file), "--max-arity", str(n)], tmp_path, capsys)
        fn = load_function(median_file)
        truncated = TableFn(fn.domain, fn.codomain, n, fn.default,
                            {t: v for t, v in fn.entries.items() if len(t) <= n})
        assert report["function_digest"] == function_digest(truncated)
        assert report["function_digest"] != function_digest(fn)

    def test_a_file_with_a_byte_order_mark_checks(self, tmp_path, min_file, capsys):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + min_file.read_bytes())
        assert main(["check", str(path), "--properties", "assoc", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["function_digest"] == function_digest(
            load_function(min_file)
        )

    @pytest.mark.parametrize(
        "fixture, code", [("min_file", 0), ("length_file", 1)], ids=["factors", "precondition"]
    )
    def test_factorize_report_is_json_dumps_text(self, tmp_path, fixture, code, request, capsys):
        # exit 1: the report holds the failed precondition in place of f, g and H
        out_rep = tmp_path / "rep.json"
        argv = ["factorize", str(request.getfixturevalue(fixture)),
                "--out-h", str(tmp_path / "H.json"), "--out-report", str(out_rep)]
        assert main(argv) == code
        text = out_rep.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), ensure_ascii=False, indent=1) + "\n"


class TestJsonOption:
    """``--json`` belongs to the subcommands that print a report."""

    def test_check_and_factorize_print_json(self, tmp_path, min_file, capsys):
        assert main(["check", str(min_file), "--properties", "assoc", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]
        argv = ["factorize", str(min_file), "--out-h", str(tmp_path / "H.json"), "--json"]
        assert main(argv) == 0
        assert "h_digest" in json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("argv", [
        ["generate", "--family", "tnorm", "--name", "min", "--grid", "0,1",
         "--max-arity", "2", "--out", "unused.json"],
        ["enumerate", "--chain-size", "1", "--max-arity", "1"],
    ])
    def test_generate_and_enumerate_refuse_json(self, tmp_path, monkeypatch, argv, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(argv + ["--json"])
        assert err.value.code == 2
        assert "unrecognized arguments: --json" in capsys.readouterr().err
        assert not (tmp_path / "unused.json").exists()
        with pytest.raises(SystemExit):
            main([argv[0], "--help"])
        assert "--json" not in capsys.readouterr().out


class TestUsageErrors:
    """A usage error prints the usage of its own subcommand."""

    @pytest.mark.parametrize("argv,message", [
        (["check", "{file}", "--properties", "bogus"], "unknown property 'bogus'"),
        (["factorize", "{file}", "--out-h", "H.json", "--max-arity", "0"],
         "--max-arity must be at least 1"),
        (["generate", "--family", "tnorm", "--name", "min", "--grid", "0,1", "--e", "0.5",
          "--max-arity", "2", "--out", "t.json"], "--family tnorm does not read --e"),
        (["enumerate", "--chain-size", "2", "--max-arity", "2", "--filter", "bogus"],
         "unknown property 'bogus'"),
    ])
    def test_usage_error_prints_its_subcommand_usage(
        self, tmp_path, monkeypatch, min_file, argv, message, capsys
    ):
        monkeypatch.chdir(tmp_path)
        command = argv[0]
        with pytest.raises(SystemExit) as err:
            main([str(min_file) if a == "{file}" else a for a in argv])
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert err_text.startswith(f"usage: preassoc {command} [-h]")
        assert f"preassoc {command}: error: {message}" in err_text
        assert not (tmp_path / "t.json").exists() and not (tmp_path / "H.json").exists()


class TestRepeatedCalls:
    """``main`` shares one parser across calls and leaves nothing behind."""

    _MIN_TNORM = ["generate", "--family", "tnorm", "--name", "min", "--grid", "0,1",
                  "--max-arity", "2", "--out"]

    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_importing_the_cli_builds_no_parser(self):
        # a probe on ArgumentParser.__init__ in a fresh interpreter; building
        # the parser afterwards shows that the probe sees a build
        probe = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(kwargs.get('prog'))\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import preassoc.cli\n"
            "assert built == [], built\n"
            "preassoc.cli.build_parser()\n"
            "assert 'preassoc' in built, built\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_json_does_not_carry_over(self, min_file, capsys):
        argv = ["check", str(min_file), "--properties", "assoc"]
        assert main(argv + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("associative_A1  holds  cases=")

    def test_quiet_does_not_carry_over(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(self._MIN_TNORM + [str(out), "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        assert main(self._MIN_TNORM + [str(out)]) == 0
        assert capsys.readouterr().out == f"wrote tnorm table (6 entries) to {out}\n"

    def test_usage_error_after_a_successful_call(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(self._MIN_TNORM + [str(out)]) == 0
        capsys.readouterr()
        out.unlink()
        with pytest.raises(SystemExit) as err:
            main([a for a in self._MIN_TNORM if a not in ("--max-arity", "2")] + [str(out)])
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert err_text.startswith("usage: preassoc generate [-h]")
        assert "preassoc generate: error: generate needs --max-arity" in err_text
        assert not out.exists()

    def test_help_is_the_same_twice(self, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as err:
                main(["enumerate", "--help"])
            assert err.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0].startswith("usage: preassoc enumerate [-h]")
        assert texts[0] == texts[1]

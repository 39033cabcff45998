import argparse
import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pseudosum
import pseudosum.lut as lut_module
from pseudosum import make_mod_lut
from pseudosum import cli
from pseudosum.cli import main

from oracles import near_uniform_law


def write(path, doc):
    """doc written as JSON, or as it is if it is bytes."""
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def mod2(tmp_path):
    return write(tmp_path / "mod2.json", make_mod_lut(2).to_json())


def child_env():
    """The environment of a child python: this one, with the directory of the
    imported pseudosum first on PYTHONPATH, since pyproject's pytest
    pythonpath reaches only this process, and without PYTHONUNBUFFERED, so
    stdout is buffered as for a user: os._exit would drop an unflushed
    result."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    root = os.path.dirname(os.path.dirname(pseudosum.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (root, env.get("PYTHONPATH"))))
    return env


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_public_names_are_pinned():
    # a change to this list is a change to the package's interface
    assert pseudosum.__all__ == """
        Alphabet Cdf CONVERGED CYCLE Distribution IdDecomposition LimitResult LutTable
        MAX_ITERATIONS Permutation SimConfig Spectrum StableLaw ValidityError apply
        check_associative check_commutative classify_stable construct_id convolve decompose_id
        degenerate_doa_necessary doa_attractor empirical_fold enumerate_stable find_idempotents
        find_identity from_spectrum in_doa is_associative is_infinitely_divisible is_stable
        limit make_cyclic_lut make_max_lut make_mod_lut max_convolve max_doa max_nth_root
        max_stable_set multiply_spectra nth_root_oracle power relabel sample_index spectrum
        stable_distribution tv_distance verify_left_subtraction
    """.split()
    # each name is resolved on first access from one table of its defining
    # submodule, and is that module's own object
    owners = {name: module for module, names in pseudosum._EXPORTS.items() for name in names}
    assert set(owners) == set(pseudosum.__all__)
    for name, module in owners.items():
        value = getattr(importlib.import_module(f"pseudosum.{module}"), name)
        assert getattr(pseudosum, name) is value, name
        assert getattr(value, "__module__", f"pseudosum.{module}") == f"pseudosum.{module}", name
    star: dict = {}
    exec("from pseudosum import *", star)
    assert set(star) - {"__builtins__"} == set(pseudosum.__all__)
    assert set(pseudosum.__all__) | set(pseudosum._EXPORTS) <= set(dir(pseudosum))


def test_submodules_resolve_as_package_attributes(monkeypatch):
    # importing a submodule binds it on the package; unbound again, the
    # package's __getattr__ imports it by name and binds the same module
    for module in pseudosum._EXPORTS:
        monkeypatch.delattr(pseudosum, module)
        assert module not in vars(pseudosum)
        assert getattr(pseudosum, module) is importlib.import_module(f"pseudosum.{module}")
        assert vars(pseudosum)[module] is sys.modules[f"pseudosum.{module}"]
    with pytest.raises(AttributeError, match="has no attribute 'nonesuch'"):
        pseudosum.nonesuch


def test_readme_cli_lines_parse():
    # every command line of README's CLI block, its optional parts included,
    # parses, and together the lines reach every subcommand's handler
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("pseudosum ")]
    parser = cli._build_parser()
    handlers = set()
    for line in lines:
        args = parser.parse_args(line.replace("[", "").replace("]", "").split()[1:])
        handlers.add(args.handler)
    assert handlers == {f for name, f in vars(cli).items() if name.startswith("_cmd_")}


def test_check_mod6(tmp_path, capsys):
    path = write(tmp_path / "mod6.json", make_mod_lut(6).to_json())
    code, doc = run(capsys, ["check", "--lut", path])
    assert code == 0
    assert doc["version"] == 1
    assert doc["associative"] is True
    assert doc["commutative"] is True
    assert doc["identity"] == 0
    assert doc["idempotents"] == [0]


def test_check_gen_and_counterexample(tmp_path, capsys):
    code, doc = run(capsys, ["check", "--gen", "max4"])
    assert code == 0 and doc["identity"] == 0 and doc["idempotents"] == [0, 1, 2, 3]
    s = write(tmp_path / "s.json", {"n": 3, "s": [1, 2, 0]})
    code, doc = run(capsys, ["check", "--gen", f"perm:{s}"])
    assert code == 0 and doc["associative"] is True and doc["identity"] == 2
    code = main(["check", "--gen", "bogus9"])
    assert code == 1
    bad = write(
        tmp_path / "bad.json",
        {"n": 2, "alphabet": [0, 1], "table": [[0, 1], [0, 0]]},
    )
    code, doc = run(capsys, ["check", "--lut", bad])
    assert code == 0
    assert doc["associative"] is False
    assert doc["counterexample"] == [1, 0, 1]


def test_check_gen_and_lut_agree_without_a_scan(tmp_path, capsys, monkeypatch):
    # built-in tables and the same tables read from a file are recognized by
    # their entries: neither is scanned, and their documents are equal.  The
    # scan itself, run once beforehand, agrees that they are associative.
    rng = np.random.default_rng(5)
    gens = []
    for n in range(1, 13):
        gens += [f"mod{n}", f"max{n}"]
        s = write(tmp_path / f"s{n}.json", {"n": n, "s": rng.permutation(n).tolist()})
        gens.append(f"perm:{s}")
    luts = {gen: cli._load_lut(argparse.Namespace(gen=gen)) for gen in gens}
    assert all(lut_module._scan_associative(lut.table) is None for lut in luts.values())
    calls = []
    monkeypatch.setattr(lut_module, "_scan_associative", lambda table: calls.append(table))
    for gen, lut in luts.items():
        path = write(tmp_path / "lut.json", lut.to_json())
        code, doc = run(capsys, ["check", "--lut", path])
        assert code == 0 and doc["associative"] is True and doc["commutative"] is True
        assert run(capsys, ["check", "--gen", gen]) == (code, doc), gen
    assert calls == []


def test_convolve_and_power_roundtrip(tmp_path, capsys):
    p = write(tmp_path / "p.json", {"n": 2, "p": [0.75, 0.25]})
    code, doc = run(capsys, ["convolve", "--gen", "mod2", p, p])
    assert code == 0
    assert doc["p"] == [0.625, 0.375]
    # emitted document is re-readable as a distribution input
    out = write(tmp_path / "out.json", doc)
    code, doc2 = run(capsys, ["power", "--gen", "mod2", out, "--m", "1"])
    assert code == 0 and doc2["p"] == [0.625, 0.375]


def test_limit_command(tmp_path, capsys, mod2):
    d = write(tmp_path / "d.json", {"n": 2, "p": [0.75, 0.25]})
    code, doc = run(capsys, ["limit", "--lut", mod2, "--dist", d])
    assert code == 0
    assert doc["status"] == "converged"
    assert doc["limit"] == [0.5, 0.5]

    d1 = write(tmp_path / "d1.json", {"n": 2, "p": [0.0, 1.0]})
    code, doc = run(capsys, ["limit", "--lut", mod2, "--dist", d1])
    assert code == 0 and doc["status"] == "cycle" and doc["period"] == 2


def test_stable_enumerate(capsys):
    code, doc = run(capsys, ["stable", "--enumerate", "6"])
    assert code == 0
    assert len(doc["laws"]) == 4
    assert [law["m"] for law in doc["laws"]] == [6, 3, 2, 1]
    assert doc["laws"][1]["p"] == [0.5, 0, 0, 0.5, 0, 0]


def test_stable_with_permutation(tmp_path, capsys):
    s = write(tmp_path / "s.json", {"n": 3, "s": [1, 2, 0]})
    code, doc = run(capsys, ["stable", "--enumerate", "3", "--perm", s])
    assert code == 0
    assert doc["laws"][0]["m"] == 3
    assert doc["laws"][0]["p"] == [0, 0, 1]  # s_inv[0] = 2


def test_doa_command(tmp_path, capsys):
    d = write(tmp_path / "d.json", {"n": 4, "p": [0.5, 0.0, 0.5, 0.0]})
    code, doc = run(capsys, ["doa", "--dist", d, "--target", "2"])
    assert code == 0 and doc["in_doa"] is True
    code, doc = run(capsys, ["doa", "--dist", d])
    assert code == 0 and doc["attractor"] == {"m": 2, "r": 2}
    cyc = write(tmp_path / "cyc.json", {"n": 2, "p": [0.0, 1.0]})
    code, doc = run(capsys, ["doa", "--dist", cyc])
    assert code == 0 and doc["attractor"] is None
    code, doc = run(capsys, ["doa", "--dist", d, "--target", "3"])
    assert code == 1


def test_id_command(tmp_path, capsys):
    d = write(tmp_path / "d.json", {"n": 2, "p": [0.75, 0.25]})
    code, doc = run(capsys, ["id", "--dist", d, "--check"])
    assert code == 0 and doc["infinitely_divisible"] is True
    code, doc = run(capsys, ["id", "--dist", d, "--decompose"])
    assert code == 0
    dec = doc["decomposition"]
    assert dec["m"] == 2 and abs(dec["lambda"] - 0.346573590280) < 1e-9
    bad = write(tmp_path / "bad.json", {"n": 3, "p": [0.0, 0.5, 0.5]})
    code, doc = run(capsys, ["id", "--dist", bad, "--decompose"])
    assert code == 0 and doc["decomposition"] is None


def test_id_command_stops_at_the_search_bound(tmp_path, capsys, monkeypatch):
    # a law whose decomposition search passes its bound exits 1 with one line
    monkeypatch.setattr("pseudosum.cyclic._BRANCH_NODES", 2**12)
    d = write(tmp_path / "d.json", near_uniform_law(56, 0, 3e-9).to_json())
    for flag in ("--check", "--decompose"):
        assert main(["id", "--dist", d, flag]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("pseudosum id: decomposition search too large")
        assert len(captured.err.splitlines()) == 1


def test_spectrum_command_12_digits(tmp_path, capsys):
    d = write(tmp_path / "d.json", {"n": 3, "p": [0.0, 0.5, 0.5]})
    code, doc = run(capsys, ["spectrum", "--dist", d])
    assert code == 0
    assert doc["spectrum"][0] == [1.0, 0.0]
    assert abs(doc["spectrum"][1][0] + 0.5) < 1e-12
    # serialized with 12 significant digits
    assert doc["spectrum"][1][0] == float(f"{-0.5:.12g}")


def test_max_commands(tmp_path, capsys):
    p = write(tmp_path / "p.json", {"n": 2, "p": [0.5, 0.5]})
    code, doc = run(capsys, ["max", "--convolve", p, p])
    assert code == 0 and doc["p"] == [0.25, 0.75]
    q = write(tmp_path / "q.json", {"n": 2, "p": [0.25, 0.75]})
    code, doc = run(capsys, ["max", "--root", "2", q])
    assert code == 0 and doc["p"] == [0.5, 0.5]
    code, doc = run(capsys, ["max", "--doa", "1", p])
    assert code == 0 and doc["in_doa"] is True
    # an order beyond the float range used to exit 1 with an internal error,
    # and one past Python's 4300-digit int-to-str limit as not an integer
    for order in ("1" + "0" * 400, "1" * 5000):
        code, doc = run(capsys, ["max", "--root", order, q])
        assert code == 0 and doc["p"] == [1.0, 0.0]


def test_simulate_deterministic_and_compare(tmp_path, capsys, mod2):
    d = write(tmp_path / "d.json", {"n": 2, "p": [0.75, 0.25]})
    argv = [
        "simulate", "--lut", mod2, "--dist", d,
        "--m", "3", "--trials", "10000", "--seed", "42", "--compare-exact",
    ]
    code1, doc1 = run(capsys, argv)
    code2, doc2 = run(capsys, argv + ["--workers", "8"])
    assert code1 == code2 == 0
    assert doc1 == doc2
    assert doc1["tv"] <= 0.02
    assert len(doc1["exact"]) == 2


def test_simulate_relabeled_cyclic_matches_exact_law(tmp_path, capsys):
    # a relabeled cyclic table folds in residues; its histogram is within the
    # TV bound the bench uses (failing with probability < 1e-9) of the exact law
    rng = np.random.default_rng(31)
    n, trials = 16, 40_000
    s = write(tmp_path / "s.json", {"n": n, "s": rng.permutation(n).tolist()})
    d = write(tmp_path / "d.json", {"n": n, "p": rng.dirichlet(np.ones(n)).tolist()})
    code, doc = run(capsys, ["simulate", "--gen", f"perm:{s}", "--dist", d, "--m", "5", "--trials", str(trials),
                             "--seed", "3", "--compare-exact"])
    assert code == 0
    assert doc["tv"] <= 0.5 * np.sqrt(n / trials) + np.sqrt(np.log(1e9) / (2 * trials))


def test_simulate_compare_exact_rejects_the_table_before_any_trial(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("Monte Carlo run on a table the exact law rejects")

    monkeypatch.setattr(pseudosum, "empirical_fold", fail)
    bad = write(tmp_path / "bad.json", {"n": 2, "alphabet": [0, 1], "table": [[0, 1], [0, 0]]})
    d = write(tmp_path / "d.json", {"n": 2, "p": [0.75, 0.25]})
    code = main(["simulate", "--lut", bad, "--dist", d, "--m", "3", "--trials", "2000000", "--seed", "1",
                 "--compare-exact"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "pseudosum simulate: table is not associative; powers are ill-defined\n"


def test_output_file_and_inputs_unchanged(tmp_path, capsys, mod2):
    d = write(tmp_path / "d.json", {"n": 2, "p": [0.75, 0.25]})
    before = (tmp_path / "d.json").read_bytes(), (tmp_path / "mod2.json").read_bytes()
    out = tmp_path / "res.json"
    code = main(["power", "--lut", mod2, str(d), "--m", "2", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(out.read_text())["p"] == [0.625, 0.375]
    after = (tmp_path / "d.json").read_bytes(), (tmp_path / "mod2.json").read_bytes()
    assert before == after


def test_exit_codes(tmp_path, capsys):
    # missing file -> 1
    assert main(["check", "--lut", str(tmp_path / "nope.json")]) == 1
    capsys.readouterr()
    # invalid JSON -> 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "--lut", str(bad)]) == 1
    capsys.readouterr()
    # invalid distribution -> 1
    d = write(tmp_path / "d.json", {"n": 2, "p": [0.9, 0.9]})
    assert main(["spectrum", "--dist", d]) == 1
    capsys.readouterr()
    # no table given -> 1
    assert main(["check"]) == 1
    capsys.readouterr()
    # unknown flag -> 2
    assert main(["check", "--bogus"]) == 2
    capsys.readouterr()
    # unknown subcommand -> 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    # missing required flag -> 2
    assert main(["stable"]) == 2
    capsys.readouterr()
    # --help -> 0
    assert main(["--help"]) == 0
    capsys.readouterr()
    # an integer option of any length is read; malformed text is a usage
    # error whose message shows at most 40 characters of it
    d = write(tmp_path / "h.json", HALF)
    assert main(["limit", "--gen", "mod2", "--dist", d, "--max-doublings", "1" * 5000]) == 0
    capsys.readouterr()
    for value in ("abc", "1" * 5000 + "x"):
        assert main(["power", "--gen", "mod2", d, "--m", value]) == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("pseudosum power: error: argument --m: invalid int value: '")
        assert len(err) < 120


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError("Unable to allocate 8.00 GiB for an array"),
         "out of memory: Unable to allocate 8.00 GiB for an array"),
        (MemoryError(), "out of memory"),
        (RuntimeError("spectral cross-check\ndisagrees"), "internal error: spectral cross-check disagrees"),
    ],
)
def test_resource_and_internal_errors_exit_1_with_one_line(monkeypatch, capsys, exc, message):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_power", fail)
    assert main(["power", "--gen", "mod2", "p.json", "--m", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"pseudosum power: {message}"]


NAN_LAW = {"n": 2, "p": [float("nan"), 1.0]}
HALF = {"n": 2, "p": [0.5, 0.5]}
S3 = {"n": 3, "s": [2, 0, 1]}
SIZES = "permutation size 3 does not match n=2"
LONG_NEGATIVE = "got -" + "1" * 39 + "... (4001 characters)"


@pytest.mark.parametrize(
    "files, argv, message",
    [
        # non-finite masses used to pass validation and print NaN (not JSON)
        ({"d": NAN_LAW}, ["spectrum", "--dist", "{d}"], "probabilities must be finite"),
        ({"d": NAN_LAW}, ["max", "--root", "2", "{d}"], "probabilities must be finite"),
        ({"d": NAN_LAW}, ["id", "--dist", "{d}", "--check"], "probabilities must be finite"),
        ({"d": {"n": 2, "p": [float("inf"), 1.0]}}, ["id", "--dist", "{d}", "--decompose"],
         "probabilities must be finite"),
        # malformed documents and arguments used to raise a raw ValueError
        ({"d": {"n": "x", "p": [0.5, 0.5]}}, ["spectrum", "--dist", "{d}"], "n must hold numbers"),
        ({"d": {"n": 2, "p": "ab"}}, ["spectrum", "--dist", "{d}"], "p must hold numbers"),
        ({"d": {"n": 2, "p": [0.5, "a"]}}, ["spectrum", "--dist", "{d}"], "p must hold numbers"),
        ({"d": {"n": 2, "p": 0.5}}, ["spectrum", "--dist", "{d}"], "1-d sequence"),
        ({"t": {"n": "x", "alphabet": [0, 1], "table": [[0, 1], [1, 0]]}}, ["check", "--lut", "{t}"],
         "n must hold numbers"),
        ({"d": HALF, "s": {"n": "x", "s": [0, 1]}}, ["spectrum", "--dist", "{d}", "--perm", "{s}"],
         "n must hold numbers"),
        ({"d": HALF, "s": {"n": 2, "s": [0, 1.5]}}, ["spectrum", "--dist", "{d}", "--perm", "{s}"],
         "permutation entries must be integers"),
        ({"s": {"n": 2, "s": [1, 0.5]}}, ["check", "--gen", "perm:{s}"],
         "permutation entries must be integers"),
        ({"d": HALF}, ["max", "--root", "abc", "{d}"], "N must be an integer, got 'abc'"),
        ({"d": HALF}, ["max", "--doa", "z", "{d}"], "X must be an integer, got 'z'"),
        # non-finite alphabet values used to pass and print NaN (not JSON)
        ({"t": {"n": 2, "alphabet": [float("nan"), 1.0], "table": [[0, 1], [1, 0]]}},
         ["check", "--lut", "{t}"], "alphabet values must be finite"),
        ({"t": {"n": 2, "alphabet": [float("inf"), 0.0], "table": [[0, 1], [1, 0]]}},
         ["check", "--lut", "{t}"], "alphabet values must be finite"),
        # a non-finite --tol used to raise from math.ceil, or run every doubling
        ({"d": HALF}, ["id", "--dist", "{d}", "--decompose", "--tol", "nan"], "tol must be finite and >= 0"),
        ({"d": HALF}, ["id", "--dist", "{d}", "--check", "--tol", "inf"], "tol must be finite and >= 0"),
        ({"d": HALF}, ["id", "--dist", "{d}", "--decompose", "--tol", "-1"], "tol must be finite and >= 0"),
        ({"d": HALF}, ["limit", "--gen", "mod2", "--dist", "{d}", "--tol", "nan"], "tol must be finite and > 0"),
        ({"d": HALF}, ["limit", "--gen", "mod2", "--dist", "{d}", "--tol", "inf"], "tol must be finite and > 0"),
        ({"d": HALF}, ["limit", "--gen", "mod2", "--dist", "{d}", "--tol", "-1"], "tol must be finite and > 0"),
        # a permutation of the wrong size, reported by the library in each command
        ({"s": S3}, ["stable", "--enumerate", "2", "--perm", "{s}"], SIZES),
        ({"d": HALF, "s": S3}, ["doa", "--dist", "{d}", "--perm", "{s}"], SIZES),
        ({"d": HALF, "s": S3}, ["doa", "--dist", "{d}", "--target", "2", "--perm", "{s}"], SIZES),
        ({"d": HALF, "s": S3}, ["id", "--dist", "{d}", "--perm", "{s}"], SIZES),
        ({"d": HALF, "s": S3}, ["spectrum", "--dist", "{d}", "--perm", "{s}"], SIZES),
        # a file that is not UTF-8, and sizes beyond numpy's, used to raise a raw traceback
        ({"t": b"\xff\xfe\x00bad"}, ["check", "--lut", "{t}"], "not valid JSON"),
        ({}, ["stable", "--enumerate", "99999999999999999999"], "enumeration too large"),
        ({}, ["check", "--gen", "max99999999999999999999"], "internal error"),
        # a document that is not an object used to report a missing field
        ({"t": [1, 2]}, ["check", "--lut", "{t}"], "lut document must be a JSON object"),
        ({"t": "n"}, ["check", "--lut", "{t}"], "lut document must be a JSON object"),
        ({"d": None}, ["spectrum", "--dist", "{d}"], "distribution document must be a JSON object"),
        ({"d": 2}, ["max", "--root", "2", "{d}"], "distribution document must be a JSON object"),
        ({"s": [2, 0, 1]}, ["check", "--gen", "perm:{s}"], "permutation document must be a JSON object"),
        ({"d": HALF, "s": "s"}, ["spectrum", "--dist", "{d}", "--perm", "{s}"],
         "permutation document must be a JSON object"),
        ({"d": {"n": 2}}, ["spectrum", "--dist", "{d}"], "distribution document missing field: 'p'"),
        # an integer past Python's int-to-str digit limit used to be an internal error
        ({"d": b'{"n": ' + b"1" * 5000 + b', "p": [1.0]}'}, ["max", "--convolve", "{d}", "{d}"], "not valid JSON"),
        # stable laws past their bound are refused before any allocation
        ({}, ["stable", "--enumerate", "1000000007"], "enumeration too large"),
        # integers past the digit limit are read, and a message shows at most
        # 40 characters of an argument
        ({}, ["stable", "--enumerate", "1" * 5000], "n=<16607-bit int> times"),
        ({"d": HALF}, ["doa", "--dist", "{d}", "--target", "1" * 5000], "target <16607-bit int> must"),
        ({"d": HALF}, ["max", "--doa", "1" * 5000, "{d}"], "got <16607-bit int>"),
        ({"d": HALF}, ["max", "--root", "x" * 5000, "{d}"], "'" + "x" * 39 + "... (5002 characters)"),
        ({}, ["check", "--gen", "bogus" + "9" * 5000], "'bogus" + "9" * 34 + "... (5007 characters);"),
        # a simulation past its draw bound used to run until it was killed
        ({"d": HALF}, ["simulate", "--gen", "mod2", "--dist", "{d}", "--m", "2", "--trials", "1" + "0" * 21,
                       "--seed", "1"], "simulation too large: trials=1000000000000000000000 times m=2"),
        # an integer the library rejects used to be shown in full
        ({"d": HALF}, ["power", "--gen", "mod2", "--m", "-" + "1" * 4000, "{d}"], LONG_NEGATIVE),
        ({"d": HALF}, ["simulate", "--gen", "mod2", "--dist", "{d}", "--m", "2", "--trials", "-" + "1" * 4000,
                       "--seed", "1"], LONG_NEGATIVE),
        ({"d": HALF}, ["simulate", "--gen", "mod2", "--dist", "{d}", "--m", "2", "--trials", "10", "--seed", "1",
                       "--workers", "-" + "1" * 4000], LONG_NEGATIVE),
        ({"d": HALF}, ["limit", "--gen", "mod2", "--dist", "{d}", "--max-doublings", "-" + "1" * 4000],
         LONG_NEGATIVE),
        ({}, ["stable", "--enumerate", "-" + "1" * 4000], LONG_NEGATIVE),
        ({"d": HALF}, ["max", "--root", "-" + "1" * 4000, "{d}"], LONG_NEGATIVE),
        ({"d": HALF}, ["max", "--doa", "1" * 4000, "{d}"], "got " + "1" * 40 + "... (4000 characters)"),
    ],
)
def test_invalid_input_exits_1_with_one_line(tmp_path, capsys, files, argv, message):
    paths = {name: write(tmp_path / f"{name}.json", doc) for name, doc in files.items()}
    assert main([a.format(**paths) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"pseudosum {argv[0]}: ")
    assert message in captured.err
    # a message shows at most 40 characters of a long argument, so the line stays short
    for arg in (a for a in argv if len(a) > 1000):
        assert arg[:41] not in captured.err and len(captured.err) < 140


def test_unwritable_output_exits_1(tmp_path, capsys):
    out = tmp_path / "missing" / "res.json"
    assert main(["check", "--gen", "mod2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("pseudosum check: ")


def test_table_commands_do_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call (numpy 2.4), about 13 ms
    # of every CLI process that builds a table
    code = (
        "import contextlib, io, sys\n"
        "from pseudosum.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['check', '--gen', 'mod8']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


BASE = {"cli", "errors"}
DIST = BASE | {"lut", "dist"}


@pytest.mark.parametrize(
    "argv, loaded",
    [
        # a usage error, or an argument rejected before any library call, loads no numpy
        pytest.param(["check", "--bogus"], BASE, id="usage-error"),
        pytest.param(["check", "--gen", "bogus9"], BASE, id="check-gen-bogus"),
        pytest.param(["max", "--root", "x", "{d}"], BASE, id="max-root-not-an-integer"),
        pytest.param(["check", "--lut", "{t}"], BASE | {"lut"}, id="check-lut"),
        pytest.param(["check", "--gen", "mod8"], BASE | {"lut"}, id="check-gen-mod"),
        pytest.param(["check", "--gen", "max8"], BASE | {"lut"}, id="check-gen-max"),
        pytest.param(["check", "--gen", "perm:{s}"], BASE | {"lut"}, id="check-gen-perm"),
        pytest.param(["convolve", "--lut", "{t}", "{d}", "{d}"], DIST, id="convolve"),
        pytest.param(["power", "--lut", "{t}", "{d}", "--m", "3"], DIST, id="power"),
        pytest.param(["limit", "--lut", "{t}", "--dist", "{d}"], DIST, id="limit"),
        pytest.param(["stable", "--enumerate", "6"], DIST | {"cyclic"}, id="stable"),
        pytest.param(["doa", "--dist", "{d}"], DIST | {"cyclic"}, id="doa"),
        pytest.param(["id", "--dist", "{d}", "--decompose"], DIST | {"cyclic"}, id="id"),
        pytest.param(["spectrum", "--dist", "{d}"], DIST | {"cyclic"}, id="spectrum"),
        pytest.param(["max", "--convolve", "{d}", "{d}"], DIST | {"extremal"}, id="max-convolve"),
        pytest.param(["simulate", "--lut", "{t}", "--dist", "{d}", "--m", "2", "--trials", "10", "--seed", "1"],
                     DIST | {"montecarlo"}, id="simulate"),
        pytest.param(["simulate", "--lut", "{t}", "--dist", "{d}", "--m", "2", "--trials", "10", "--seed", "1",
                      "--compare-exact"], DIST | {"montecarlo"}, id="simulate-compare-exact"),
    ],
)
def test_commands_import_only_their_modules(tmp_path, argv, loaded):
    paths = {"t": write(tmp_path / "t.json", make_mod_lut(2).to_json()), "d": write(tmp_path / "d.json", HALF),
             "s": write(tmp_path / "s.json", {"n": 2, "s": [1, 0]})}
    code = (
        "import contextlib, io, sys\n"
        "from pseudosum.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = main({[a.format(**paths) for a in argv]!r})\n"
        "print(code == 0)\n"
        "print(*sorted(m[10:] for m in sys.modules if m.startswith('pseudosum.')))\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    # every command that reaches the library succeeds here
    assert out.stdout.splitlines() == [str(loaded != BASE), " ".join(sorted(loaded)), str("lut" in loaded)]


def python_m(*argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "pseudosum", *argv], env=child_env(), text=True, **kwargs)


@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(["stable", "--enumerate", "5"], 0, id="success"),
        pytest.param(["--help"], 0, id="help"),
        pytest.param(["check", "--gen", "bogus9"], 1, id="invalid-input"),
        pytest.param(["check", "--bogus"], 2, id="usage-error"),
        pytest.param(["stable", "--enumerate", "360", "--out", "{out}"], 0, id="out-file"),
    ],
)
def test_module_entry_point(tmp_path, argv, code):
    res = tmp_path / "res.json"
    out = python_m(*(a.format(out=res) for a in argv), capture_output=True)
    assert out.returncode == code, out.stderr
    if argv == ["--help"]:
        # written by argparse outside main's flush: run() flushes it
        assert out.stdout.startswith("usage: pseudosum") and out.stderr == ""
    elif code == 0:
        assert out.stderr == ""
        if "--out" in argv:
            assert out.stdout == ""
        doc = json.loads(res.read_text() if "--out" in argv else out.stdout)
        assert len(doc["laws"]) == {"5": 2, "360": 24}[argv[2]]
    elif code == 1:
        assert out.stdout == ""
        assert out.stderr.splitlines() == ["pseudosum check: unknown generator 'bogus9'; expected modN, maxN, or perm:FILE"]
    else:
        assert out.stdout == ""
        assert out.stderr.splitlines()[-1] == "pseudosum: error: unrecognized arguments: --bogus"


@pytest.mark.parametrize("gen, m, want", [
    ("mod8", 2**30 - 1, [0.125] * 8),
    ("max8", 2**64 - 1, [0.0] * 7 + [1.0]),
])
def test_power_at_huge_m_exits_0_with_empty_stderr(tmp_path, gen, m, want):
    # mod 8 used to exit 1 on a total mass of 1 + 9e-8, and max 8 to print
    # numpy's overflow warning as a second stderr line
    p = write(tmp_path / "p8.json", {"n": 8, "p": [0.3, 0.05, 0.1, 0.2, 0.05, 0.1, 0.15, 0.05]})
    out = python_m("power", "--gen", gen, p, "--m", str(m), capture_output=True)
    assert (out.returncode, out.stderr) == (0, "")
    assert np.allclose(json.loads(out.stdout)["p"], want, rtol=0.0, atol=1e-12)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_result_write_exits_1_with_one_line():
    # the result is flushed inside main: a failed write used to surface at
    # interpreter exit as "Exception ignored ... OSError" and exit 120.  The
    # device takes no byte, so there is no stdout to read back.
    with open("/dev/full", "w") as full:
        out = python_m("check", "--gen", "mod4", stdout=full, stderr=subprocess.PIPE)
    assert out.returncode == 1
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("pseudosum check: "), out.stderr


def test_closed_stdout_exits_1_with_one_line():
    # with descriptor 1 closed at start-up, sys.stdout is None and print
    # drops the result: the process used to exit 0 having written nothing
    out = subprocess.run(["sh", "-c", '"$0" -m pseudosum check --gen mod4 >&-', sys.executable],
                         env=child_env(), text=True, stderr=subprocess.PIPE)
    assert out.returncode == 1
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("pseudosum check: "), out.stderr


def test_seed_is_required_for_simulate(tmp_path, capsys, mod2):
    d = write(tmp_path / "d.json", {"n": 2, "p": [0.75, 0.25]})
    code = main(["simulate", "--lut", mod2, "--dist", d, "--m", "2", "--trials", "10"])
    capsys.readouterr()
    assert code == 2

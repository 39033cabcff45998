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

    monkeypatch.setitem(cli._COMMANDS, "power", fail)
    assert main(["power", "--gen", "mod2", "p.json", "--m", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"pseudosum power: {message}"]


NAN_LAW = {"n": 2, "p": [float("nan"), 1.0]}
HALF = {"n": 2, "p": [0.5, 0.5]}
S3 = {"n": 3, "s": [2, 0, 1]}
SIZES = "permutation size 3 does not match n=2"


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
        ({}, ["stable", "--enumerate", "99999999999999999999"], "internal error"),
        ({}, ["check", "--gen", "max99999999999999999999"], "internal error"),
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
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv, loaded",
    [
        # a usage error loads no numpy
        (["check", "--bogus"], {"cli", "errors"}),
        (["check", "--lut", "{t}"], {"cli", "errors", "lut"}),
        (["max", "--convolve", "{d}", "{d}"], {"cli", "errors", "lut", "dist", "extremal"}),
        (["doa", "--dist", "{d}"], {"cli", "errors", "lut", "dist", "cyclic"}),
        (["simulate", "--lut", "{t}", "--dist", "{d}", "--m", "2", "--trials", "10", "--seed", "1"],
         {"cli", "errors", "lut", "dist", "montecarlo"}),
    ],
    ids=["usage-error", "check-lut", "max-convolve", "doa", "simulate"],
)
def test_commands_import_only_their_modules(tmp_path, argv, loaded):
    paths = {"t": write(tmp_path / "t.json", make_mod_lut(2).to_json()), "d": write(tmp_path / "d.json", HALF)}
    code = (
        "import contextlib, io, sys\n"
        "from pseudosum.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    main({[a.format(**paths) for a in argv]!r})\n"
        "print(*sorted(m[10:] for m in sys.modules if m.startswith('pseudosum.')))\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [" ".join(sorted(loaded)), str("lut" in loaded)]


def python_m(*argv, **kwargs):
    # buffered stdout, as for a user: os._exit would drop an unflushed result
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-m", "pseudosum", *argv], env=env, text=True, **kwargs)


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
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    out = subprocess.run(["sh", "-c", '"$0" -m pseudosum check --gen mod4 >&-', sys.executable],
                         env=env, text=True, stderr=subprocess.PIPE)
    assert out.returncode == 1
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("pseudosum check: "), out.stderr


def test_seed_is_required_for_simulate(tmp_path, capsys, mod2):
    d = write(tmp_path / "d.json", {"n": 2, "p": [0.75, 0.25]})
    code = main(["simulate", "--lut", mod2, "--dist", d, "--m", "2", "--trials", "10"])
    capsys.readouterr()
    assert code == 2
